"""Expression grammar, rulebook parsing, and selection-table parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from obar.errors import ExpressionError, SchemaError
from obar.rules import (
    DEFAULT_RULEBOOK_DOC,
    DEFAULT_SELECTION_DOC,
    _MAX_NESTING,
    compile_expression,
    context_namespace,
    default_rulebook,
    default_selection_rules,
    object_namespace,
    parse_rulebook,
    parse_selection_rules,
)
from obar.scene import parse_scene

NS = {
    "priority": 5.0,
    "level_db": -3.0,
    "type": "music",
    "group": "",
    "onscreen": False,
    "deficit": 0.25,
}


class TestExpressions:
    @pytest.mark.parametrize("text,expected", [
        ("priority > 3", True),
        ("priority >= 5", True),
        ("priority < 5", False),
        ("priority <= 4.999", False),
        ("type == 'music'", True),
        ("type != 'music'", False),
        ("level_db == -3", True),
        ("level_db < -2.5 and priority == 5", True),
        ("onscreen", False),
        ("not onscreen", True),
        ("type == 'x' or type == 'music'", True),
        ("true and not false", True),
        ("deficit > 0 and (type == 'music' or type == 'effect')", True),
        ("not (priority > 3)", False),
        ("group == ''", True),
    ])
    def test_evaluation(self, text, expected):
        assert compile_expression(text).holds(NS) is expected

    def test_or_binds_looser_than_and(self):
        # false and false or true => (false and false) or true
        assert compile_expression("false and false or true").holds({}) is True

    def test_unknown_field_reported(self):
        expr = compile_expression("loudness > 3")
        with pytest.raises(ExpressionError, match="loudness"):
            expr.holds(NS)

    def test_non_boolean_condition_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("priority").holds(NS)

    def test_string_ordering_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("type > 'a'").holds(NS)

    @pytest.mark.parametrize("text", [
        "", "   ", "priority >", "== 3", "(priority > 3", "priority > 3)",
        "priority ?? 3", "3 3", "not", "'unterminated",
    ])
    def test_malformed_expressions_fail_at_parse_time(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text)

    @pytest.mark.parametrize("open_, close", [("not ", ""), ("(", ")"), ("-", "")])
    def test_nesting_stops_at_a_fixed_depth(self, open_, close):
        """Each `not`, `(` and unary `-` nests one level. A condition at the
        (even) depth limit compiles and holds; one level deeper fails at
        parse time, so evaluation never recurses deeper than parsing."""
        depth = _MAX_NESTING
        body = "1 < 2" if open_ == "-" else "true"
        assert compile_expression(open_ * depth + body + close * depth).holds({})
        with pytest.raises(ExpressionError, match="nests deeper"):
            compile_expression(open_ * (depth + 1) + body + close * (depth + 1))

    def test_unary_minus(self):
        assert compile_expression("level_db > -4").holds(NS) is True
        assert compile_expression("-1 < 0").holds({}) is True

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    def test_comparisons_match_python(self, x, y, op):
        got = compile_expression(f"x {op} y").evaluate({"x": x, "y": y})
        assert got == eval(f"x {op} y", {"x": x, "y": y})


class TestRulebookParsing:
    def _book(self, rules):
        return {"schema": "rulebook v1", "rules": rules}

    def test_default_rulebook_parses(self):
        rules = default_rulebook()
        assert [r.rule_id for r in rules] == [
            "boost-dialogue-when-masked", "personalize-team-levels",
            "fit-reverb-to-room", "prune-filler-on-tiny-layouts"]

    def test_actions_with_selects(self):
        rules = parse_rulebook(self._book([{
            "rule_id": "duck",
            "when": "intelligibility_deficit > 0",
            "actions": [
                {"kind": "gain_offset", "db": -4.0, "select": "type == 'music'"},
                {"kind": "regroup", "group": "bed"},
            ],
        }]))
        assert rules[0].actions[0].kind == "GainOffset"
        assert rules[0].actions[0].params == (("value", -4.0),)
        assert rules[0].actions[0].select.holds({"type": "music"})
        assert rules[0].actions[1].select is None

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "prune"}]},
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "prune"}]},
            ]))

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown action kind"):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "amplify", "db": 3}]},
            ]))

    def test_missing_parameter_rejected(self):
        with pytest.raises(SchemaError, match="needs db"):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "gain_offset"}]},
            ]))

    def test_wrong_parameter_type_rejected(self):
        with pytest.raises(SchemaError):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "gain_offset", "db": "loud"}]},
            ]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400, True, "3"],
                             ids=["NaN", "Infinity", "10**400", "true", "string"])
    def test_parameter_must_be_a_finite_number(self, value):
        with pytest.raises(SchemaError) as info:
            parse_rulebook(self._book([
                {"rule_id": "duck", "when": "true",
                 "actions": [{"kind": "gain_offset", "db": value}]},
            ]))
        message = str(info.value)
        assert message.startswith("rule duck: action gain_offset field db must be")
        assert "\n" not in message

    def test_extra_parameter_rejected(self):
        with pytest.raises(SchemaError):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "prune", "db": 1}]},
            ]))

    def test_computed_action_takes_no_select(self):
        with pytest.raises(SchemaError):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "true",
                 "actions": [{"kind": "personalize", "select": "true"}]},
            ]))

    def test_malformed_condition_is_parse_time_error(self):
        with pytest.raises(ExpressionError):
            parse_rulebook(self._book([
                {"rule_id": "a", "when": "deficit >",
                 "actions": [{"kind": "prune"}]},
            ]))

    def test_rule_without_actions_rejected(self):
        with pytest.raises(SchemaError):
            parse_rulebook(self._book([{"rule_id": "a", "when": "true",
                                        "actions": []}]))

    def test_wrong_schema_rejected(self):
        with pytest.raises(SchemaError):
            parse_rulebook({"schema": "rulebook v2", "rules": []})


class TestSelectionParsing:
    def test_default_table_parses(self):
        rules = default_selection_rules()
        assert rules[-1].renderer == "AP1"
        assert rules[0].subset == "nearest_device"

    def test_unknown_renderer_rejected(self):
        with pytest.raises(SchemaError):
            parse_selection_rules({"schema": "selection v1", "rules": [
                {"match": "true", "renderer": "Binaural"}]})

    def test_bad_order_rejected(self):
        with pytest.raises(SchemaError):
            parse_selection_rules({"schema": "selection v1", "rules": [
                {"match": "true", "renderer": "AmbiMM", "order": 0}]})

    def test_bad_subset_rejected(self):
        with pytest.raises(SchemaError):
            parse_selection_rules({"schema": "selection v1", "rules": [
                {"match": "true", "renderer": "AP1", "subset": "ceiling"}]})

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            parse_selection_rules({"schema": "selection v1", "rules": []})

    def test_docs_round_trip_through_json(self):
        import json
        assert parse_selection_rules(json.loads(json.dumps(DEFAULT_SELECTION_DOC)))
        assert parse_rulebook(json.loads(json.dumps(DEFAULT_RULEBOOK_DOC)))


class TestNamespaces:
    def test_object_namespace_fields(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        ns = object_namespace(scene.object_by_id("band"))
        assert ns["type"] == "music"
        assert ns["priority"] == 4.0
        assert ns["group"] == ""
        assert ns["has_position"] is True
        assert ns["has_distance"] is False
        assert ns["az_deg"] == 30.0
        assert ns["onscreen"] is False

    def test_context_namespace_fields(self, basic_scene_dir):
        from obar.context import (ContextTracker, ListenerInfo, SpeakerLayout, parse_speaker,
                                  build_scenario)
        from obar.geometry import Direction3
        from obar_helpers import ring_speakers
        scene = parse_scene(basic_scene_dir[1])
        layout = SpeakerLayout(tuple(
            parse_speaker(s, "s") for s in ring_speakers(5)))
        listener = ListenerInfo(
            listener_id="l", position=Direction3(0, 0, 0),
            hearing_impaired=True, intelligibility_preference=0.9,
            team_preference="home")
        scenario = build_scenario(layout, [listener])
        ctx = ContextTracker().update(scenario, scene)
        ns = context_namespace(ctx, scene)
        assert ns["speaker_count"] == 5.0
        assert ns["object_count"] == 2.0
        assert ns["has_dialogue"] is True
        assert ns["hearing_impaired"] is True
        assert ns["team_preference"] == "home"
        assert ns["intelligibility_target"] == 0.9
        assert ns["measured_intelligibility"] == -1.0
        assert ns["has_room_decay"] is False

    def test_default_rules_only_use_known_fields(self, basic_scene_dir):
        """Every default rule condition evaluates against real namespaces."""
        from obar.context import (ContextTracker, ListenerInfo, SpeakerLayout, parse_speaker,
                                  build_scenario)
        from obar.geometry import Direction3
        from obar_helpers import ring_speakers
        scene = parse_scene(basic_scene_dir[1])
        layout = SpeakerLayout(tuple(
            parse_speaker(s, "s") for s in ring_speakers(5)))
        listener = ListenerInfo(
            listener_id="l", position=Direction3(0, 0, 0),
            hearing_impaired=False, intelligibility_preference=0.0,
            team_preference=None)
        scenario = build_scenario(layout, [listener])
        ctx = ContextTracker().update(scenario, scene)
        ns = context_namespace(ctx, scene)
        for rule in default_rulebook():
            assert rule.when.holds(ns) in (True, False)
        obj_ns = dict(ns)
        for obj in scene.objects:
            obj_ns.update(object_namespace(obj))
            for row in default_selection_rules():
                assert row.match.holds(obj_ns) in (True, False)
