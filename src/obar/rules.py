"""Rule expressions, adaptation rulebooks, and renderer selection tables.

Conditions are small boolean expressions over named fields: comparisons,
and/or/not, parentheses, numeric and string literals. Both rulebooks and
selection tables share the grammar (documented in docs/rulebook-grammar.md);
malformed expressions fail at parse time, never at render time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ExpressionError, SchemaError
from .renderclass import KNOWN_RENDERER_NAMES
from .scene import (
    ObjectType,
    echo,
    get_field,
    parse_list,
    parse_mapping,
    parse_number,
    parse_string,
    read_document,
    require_keys,
)

RULEBOOK_SCHEMA_VERSION = "rulebook v1"
SELECTION_SCHEMA_VERSION = "selection v1"


# ---------------------------------------------------------------------------
# expression language

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|==|!=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<minus>-)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "true", "false"}

# How deep a condition may nest `not`, `(` and unary `-`: far above any real
# condition, and shallow enough to parse and evaluate inside the recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos} in {text!r}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "name" and value in _KEYWORDS:
            kind = value
        tokens.append((kind, value))
    tokens.append(("end", ""))
    return tokens


@dataclass(frozen=True)
class _Literal:
    value: object

    def evaluate(self, namespace):
        return self.value


@dataclass(frozen=True)
class _Name:
    name: str

    def evaluate(self, namespace):
        if self.name not in namespace:
            raise ExpressionError(f"unknown field {self.name!r}")
        return namespace[self.name]


@dataclass(frozen=True)
class _Compare:
    op: str
    left: _Node
    right: _Node

    def evaluate(self, namespace):
        a = self.left.evaluate(namespace)
        b = self.right.evaluate(namespace)
        if self.op == "==":
            return a == b
        if self.op == "!=":
            return a != b
        if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
            raise ExpressionError(
                f"ordering comparison {self.op} needs numbers, got {a!r} and {b!r}")
        ops = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}
        return ops[self.op]


@dataclass(frozen=True)
class _Bool:
    op: str
    parts: tuple

    def evaluate(self, namespace):
        if self.op == "and":
            return all(_truth(p.evaluate(namespace)) for p in self.parts)
        return any(_truth(p.evaluate(namespace)) for p in self.parts)


@dataclass(frozen=True)
class _Not:
    inner: _Node

    def evaluate(self, namespace):
        return not _truth(self.inner.evaluate(namespace))


@dataclass(frozen=True)
class _Negate:
    inner: _Node

    def evaluate(self, namespace):
        value = self.inner.evaluate(namespace)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExpressionError(f"cannot negate {value!r}")
        return -value


_Node = _Literal | _Name | _Compare | _Bool | _Not | _Negate


def _truth(value) -> bool:
    if not isinstance(value, bool):
        raise ExpressionError(
            f"condition produced {value!r}; comparisons or booleans required")
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        token = self.tokens[self.pos]
        if kind is not None and token[0] != kind:
            raise ExpressionError(
                f"expected {kind} but found {token[1] or 'end of input'!r} "
                f"in {self.text!r}")
        self.pos += 1
        return token

    def nested(self, parse) -> _Node:
        """parse() one nesting level deeper, at most _MAX_NESTING levels."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExpressionError(f"condition nests deeper than {_MAX_NESTING} levels")
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> _Node:
        node = self.or_expr()
        if self.peek()[0] != "end":
            raise ExpressionError(
                f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def or_expr(self) -> _Node:
        parts = [self.and_expr()]
        while self.peek()[0] == "or":
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else _Bool("or", tuple(parts))

    def and_expr(self) -> _Node:
        parts = [self.not_expr()]
        while self.peek()[0] == "and":
            self.take()
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else _Bool("and", tuple(parts))

    def not_expr(self) -> _Node:
        if self.peek()[0] == "not":
            self.take()
            return _Not(self.nested(self.not_expr))
        return self.comparison()

    def comparison(self) -> _Node:
        left = self.operand()
        if self.peek()[0] == "op":
            op = self.take()[1]
            right = self.operand()
            return _Compare(op, left, right)
        return left

    def operand(self) -> _Node:
        kind, value = self.peek()
        if kind == "number":
            self.take()
            return _Literal(float(value))
        if kind == "minus":
            self.take()
            return _Negate(self.nested(self.operand))
        if kind == "string":
            self.take()
            return _Literal(value[1:-1])
        if kind == "true":
            self.take()
            return _Literal(True)
        if kind == "false":
            self.take()
            return _Literal(False)
        if kind == "name":
            self.take()
            return _Name(value)
        if kind == "lparen":
            self.take()
            node = self.nested(self.or_expr)
            self.take("rparen")
            return node
        raise ExpressionError(
            f"expected a value but found {value or 'end of input'!r} "
            f"in {self.text!r}")


@dataclass(frozen=True)
class Expression:
    """A compiled condition; evaluate() against a flat name->value mapping."""

    source: str
    root: _Node = field(compare=False, repr=False)

    def evaluate(self, namespace) -> object:
        return self.root.evaluate(namespace)

    def holds(self, namespace) -> bool:
        return _truth(self.root.evaluate(namespace))


def compile_expression(text: str) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty condition")
    return Expression(source=text, root=_Parser(text).parse())


# ---------------------------------------------------------------------------
# namespaces the expressions see

def object_namespace(obj) -> dict:
    """Fields a per-object predicate can reference."""
    pos = obj.position
    return {
        "id": obj.object_id,
        "type": obj.object_type.value,
        "group": obj.group or "",
        "priority": float(obj.priority),
        "level_db": float(obj.level_db),
        "diffuseness": float(obj.diffuseness),
        "extent_deg": float(obj.extent_deg or 0.0),
        "channels": float(obj.channels),
        "onscreen": obj.advanced.onscreen,
        "importance": float(obj.advanced.importance),
        "interactivity_restriction": obj.advanced.interactivity_restriction,
        "object_quality": float(obj.advanced.object_quality),
        "language": obj.advanced.language or "",
        "preferred_renderer": obj.advanced.preferred_renderer or "",
        "has_position": pos is not None,
        "has_distance": pos is not None and pos.distance_m is not None,
        "az_deg": float(pos.az_deg) if pos is not None else 0.0,
        "el_deg": float(pos.el_deg) if pos is not None else 0.0,
        "distance_m": float(pos.distance_m) if pos is not None and
        pos.distance_m is not None else 0.0,
        "has_reverb": obj.reverb is not None,
    }


def context_namespace(ctx, scene) -> dict:
    """Fields a scene-level rule condition can reference."""
    return {
        "intelligibility_deficit": float(ctx.intelligibility_deficit),
        "noise_delta_db": float(ctx.noise_delta_db),
        "noise_broadband_db": float(ctx.noise_broadband_db),
        "measured_intelligibility": (
            -1.0 if ctx.measured_intelligibility is None
            else float(ctx.measured_intelligibility)),
        "intelligibility_target": float(ctx.effective_intelligibility_target),
        "envelopment_target": float(ctx.scene_targets.envelopment),
        "speaker_count": float(ctx.speaker_count),
        "object_count": float(len(scene.objects)),
        "has_dialogue": any(
            o.object_type is ObjectType.DIALOGUE for o in scene.objects),
        "has_room_decay": ctx.room_decay_tau_s is not None,
        "hearing_impaired": bool(ctx.listener.hearing_impaired),
        "team_preference": ctx.listener.team_preference or "",
    }


# ---------------------------------------------------------------------------
# rulebooks

# Each direct rulebook kind: the AdaptationAction kind it becomes, and for
# each document parameter the action field it sets and the field's parser.
DIRECT_ACTIONS = {
    "gain_offset": ("GainOffset", {"db": ("value", parse_number)}),
    "spectral_tilt": ("SpectralTilt", {"db": ("value", parse_number)}),
    "reposition": ("Reposition", {"daz_deg": ("daz_deg", parse_number),
                                  "del_deg": ("del_deg", parse_number)}),
    "time_shift": ("TimeShift", {"ms": ("value", parse_number)}),
    "decorrelate": ("Decorrelate", {"amount": ("value", parse_number)}),
    "reverb_tail_scale": ("ReverbTailScale", {"factor": ("value", parse_number)}),
    "prune": ("Prune", {}),
    "regroup": ("Regroup", {"group": ("group", parse_string)}),
}
_COMPUTED_ACTION_KINDS = ("intelligibility_ladder", "personalize", "reverb_fit")


@dataclass(frozen=True)
class RuleAction:
    """One action template inside a rule: a computed kind (no params), or
    the AdaptationAction kind a direct action becomes with its action fields
    as (field, value) pairs; and an optional object predicate restricting
    which objects it touches."""

    kind: str
    params: tuple = ()
    select: Expression | None = None


@dataclass(frozen=True)
class AdaptationRule:
    rule_id: str
    when: Expression
    actions: tuple[RuleAction, ...]


def _parse_action(doc, where, rule_id: str) -> RuleAction:
    kind = get_field(parse_mapping(doc, where), "kind", where, parse_string,
                     required=True)
    action = f"rule {rule_id}: action {kind}"
    if kind in _COMPUTED_ACTION_KINDS:
        require_keys(doc, {"kind"}, action)
        return RuleAction(kind=kind)
    if kind not in DIRECT_ACTIONS:
        raise SchemaError(f"rule {rule_id}: unknown action kind {kind!r}")
    action_kind, wanted = DIRECT_ACTIONS[kind]
    require_keys(doc, {"kind", "select", *wanted}, action)
    params = []
    for name, (action_field, parse) in wanted.items():
        if name not in doc:
            raise SchemaError(f"{action} needs {name}")
        params.append((action_field, parse(doc[name], f"{action} field {name}")))
    select = compile_expression(doc["select"]) if "select" in doc else None
    return RuleAction(kind=action_kind, params=tuple(params), select=select)


def parse_rulebook(doc: dict) -> tuple[AdaptationRule, ...]:
    require_keys(doc, {"schema", "rules"}, "rulebook")
    if get_field(doc, "schema", "rulebook") != RULEBOOK_SCHEMA_VERSION:
        raise SchemaError(
            f"rulebook schema must be {RULEBOOK_SCHEMA_VERSION!r}")
    rules = []
    seen = set()
    for i, entry in enumerate(get_field(doc, "rules", "rulebook", parse_list, [])):
        where = f"rulebook.rules[{i}]"
        require_keys(entry, {"rule_id", "when", "actions"}, where)
        rule_id = get_field(entry, "rule_id", where, parse_string, "")
        if not rule_id:
            raise SchemaError(f"{where} needs a non-empty rule_id")
        if rule_id in seen:
            raise SchemaError(f"duplicate rule_id {rule_id!r}")
        seen.add(rule_id)
        when = compile_expression(get_field(entry, "when", where, default=""))
        actions = tuple(
            _parse_action(a, f"{where}.actions[{j}]", rule_id)
            for j, a in enumerate(get_field(entry, "actions", where, parse_list, [])))
        if not actions:
            raise SchemaError(f"rule {rule_id} has no actions")
        rules.append(AdaptationRule(rule_id=rule_id, when=when, actions=actions))
    return tuple(rules)


def load_rulebook(path: str) -> tuple[AdaptationRule, ...]:
    return parse_rulebook(read_document(path, f"rulebook {path}"))


DEFAULT_RULEBOOK_DOC = {
    "schema": RULEBOOK_SCHEMA_VERSION,
    "rules": [
        {
            "rule_id": "boost-dialogue-when-masked",
            "when": "intelligibility_deficit > 0 and has_dialogue",
            "actions": [{"kind": "intelligibility_ladder"}],
        },
        {
            "rule_id": "personalize-team-levels",
            "when": "team_preference != ''",
            "actions": [{"kind": "personalize"}],
        },
        {
            "rule_id": "fit-reverb-to-room",
            "when": "has_room_decay",
            "actions": [{"kind": "reverb_fit"}],
        },
        {
            "rule_id": "prune-filler-on-tiny-layouts",
            "when": "speaker_count <= 2",
            "actions": [
                {"kind": "prune", "select": "type == 'ambience' and priority == 0"},
            ],
        },
    ],
}


def default_rulebook() -> tuple[AdaptationRule, ...]:
    return parse_rulebook(DEFAULT_RULEBOOK_DOC)


# ---------------------------------------------------------------------------
# renderer selection tables

@dataclass(frozen=True)
class SelectionRule:
    match: Expression
    renderer: str
    order: str | int | None = None        # AmbiMM only: integer or "highest"
    subset: str = "all"                   # all | nearest_device | backdrop


def _parse_selection_rule(entry, where) -> SelectionRule:
    require_keys(entry, {"match", "renderer", "order", "subset"}, where)
    renderer = get_field(entry, "renderer", where)
    if renderer not in KNOWN_RENDERER_NAMES:
        raise SchemaError(
            f"selection rule renderer must be one of "
            f"{sorted(KNOWN_RENDERER_NAMES)}, got {echo(renderer)}")
    order = get_field(entry, "order", where)
    if order is not None and order != "highest" and (
            isinstance(order, bool) or not isinstance(order, int) or order < 1):
        raise SchemaError("selection rule order must be 'highest' or an int >= 1")
    subset = get_field(entry, "subset", where, default="all")
    if subset not in ("all", "nearest_device", "backdrop"):
        raise SchemaError(f"unknown speaker subset {echo(subset)}")
    return SelectionRule(
        match=compile_expression(get_field(entry, "match", where, default="")),
        renderer=renderer, order=order, subset=subset)


def parse_selection_rules(doc: dict) -> tuple[SelectionRule, ...]:
    require_keys(doc, {"schema", "rules"}, "selection table")
    if get_field(doc, "schema", "selection table") != SELECTION_SCHEMA_VERSION:
        raise SchemaError(
            f"selection schema must be {SELECTION_SCHEMA_VERSION!r}")
    rules = tuple(
        _parse_selection_rule(e, f"selection table.rules[{i}]")
        for i, e in enumerate(get_field(doc, "rules", "selection table", parse_list, [])))
    if not rules:
        raise SchemaError("selection table needs at least one rule")
    return rules


def load_selection_rules(path: str) -> tuple[SelectionRule, ...]:
    return parse_selection_rules(read_document(path, f"selection table {path}"))


DEFAULT_SELECTION_DOC = {
    "schema": SELECTION_SCHEMA_VERSION,
    "rules": [
        {"match": "type == 'dialogue' and not onscreen",
         "renderer": "AP1", "subset": "nearest_device"},
        {"match": "type == 'dialogue' and onscreen", "renderer": "VBAP"},
        {"match": "type == 'ambience' or type == 'hoa'",
         "renderer": "AmbiMM", "order": "highest", "subset": "backdrop"},
        {"match": "type == 'diffuse' or diffuseness > 0.5", "renderer": "Diffuse"},
        {"match": "type == 'effect' and has_distance", "renderer": "WFS"},
        {"match": "type == 'effect'", "renderer": "VBAP"},
        {"match": "type == 'music'", "renderer": "PM"},
        {"match": "type == 'music'", "renderer": "AmbiMM", "order": "highest"},
        {"match": "true", "renderer": "AP1"},
    ],
}


def default_selection_rules() -> tuple[SelectionRule, ...]:
    return parse_selection_rules(DEFAULT_SELECTION_DOC)
