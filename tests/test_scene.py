"""Scene document parsing and validation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import object_doc, scene_doc, speech_like, write_scene, write_stem
from obar import scene as sm
from obar.errors import MissingStem, RangeError, RateMismatch, SchemaError
from obar.geometry import Direction3


class TestParsing:
    def test_defaults_filled(self, basic_scene_dir):
        _, path, _ = basic_scene_dir
        sc = sm.parse_scene(path)
        narrator = sc.object_by_id("narrator")
        assert narrator.level_db == 0.0
        assert narrator.diffuseness == 0.0
        assert narrator.constraints.tolerances == sm.Tolerances()
        assert narrator.constraints.priority_order == sm.DEFAULT_PRIORITY_ORDER
        assert narrator.advanced.importance == 5
        assert not narrator.advanced.onscreen
        assert sc.targets.intelligibility == 0.8
        assert sc.duration_samples == 2 * 48000

    def test_unknown_top_level_field_rejected(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = dict(doc)
        doc["reverb_defaults"] = {}
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(SchemaError, match="reverb_defaults"):
            sm.parse_scene(path)

    def test_unknown_object_field_rejected(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["loudness"] = 3
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(SchemaError, match="loudness"):
            sm.parse_scene(path)

    def test_priority_out_of_range_names_field_and_object(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][1]["priority"] = 11
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(RangeError) as err:
            sm.parse_scene(path)
        assert err.value.field == "priority"
        assert err.value.object_id == "band"

    def test_missing_stem(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["stems"] = ["stems/nope.wav"]
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(MissingStem):
            sm.parse_scene(path)

    def test_rate_mismatch(self, tmp_path):
        d = str(tmp_path)
        ref = write_stem(d, "stems/slow.wav", speech_like(fs=44100), fs=44100)
        path = write_scene(d, scene_doc([object_doc("a", "dialogue", [ref])]))
        with pytest.raises(RateMismatch):
            sm.parse_scene(path)

    def test_unknown_preferred_renderer_rejected_at_parse(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["advanced"] = {"preferred_renderer": "Holophonic"}
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(RangeError) as err:
            sm.parse_scene(path)
        assert err.value.field == "advanced.preferred_renderer"

    def test_known_preferred_renderer_accepted(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["advanced"] = {"preferred_renderer": "PM"}
        path = write_scene(d, doc, "ok.json")
        sc = sm.parse_scene(path)
        assert sc.object_by_id("narrator").advanced.preferred_renderer == "PM"

    def test_duplicate_object_ids_rejected(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][1]["id"] = "narrator"
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(RangeError, match="duplicate"):
            sm.parse_scene(path)

    def test_azimuth_at_negative_180_rejected(self, basic_scene_dir):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["position"] = {"az": -180.0, "el": 0.0, "dist": None}
        path = write_scene(d, doc, "bad.json")
        with pytest.raises(RangeError):
            sm.parse_scene(path)

    def test_advanced_extra_must_be_a_mapping(self, basic_scene_dir):
        """extra is free-form and unread, but it must be a mapping."""
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        doc["objects"][0]["advanced"] = {"extra": {"mood": "tense", "warp": [1, 2]}}
        sm.parse_scene(write_scene(d, doc, "ok.json"))
        doc["objects"][0]["advanced"] = {"extra": ["mood", "tense"]}
        with pytest.raises(SchemaError, match="extra must be a mapping"):
            sm.parse_scene(write_scene(d, doc, "bad.json"))

    def test_reverb_parsed_as_written(self, tmp_path):
        d = str(tmp_path)
        ref = write_stem(d, "stems/a.wav", speech_like())
        doc = scene_doc([object_doc(
            "a", "effect", [ref],
            position={"az": 10.0, "el": 0.0, "dist": 3.0},
            reverb={
                "reflections": [{"delay_ms": 12.0,
                                 "direction": {"az": -40.0, "el": 10.0, "dist": None},
                                 "level_db": -12.0}],
                "tail_bands": [
                    {"band_center_hz": 250.0, "onset_ms": 40.0, "attack_ms": 20.0,
                     "level_db": -18.0, "decay_tau_s": 0.4},
                    {"band_center_hz": 2000.0, "onset_ms": 40.0, "attack_ms": 20.0,
                     "level_db": -22.0, "decay_tau_s": 0.25},
                ],
            })])
        reverb = sm.parse_scene(write_scene(d, doc)).objects[0].reverb
        assert reverb.reflections == (
            sm.Reflection(12.0, Direction3(-40.0, 10.0, None), -12.0),)
        assert reverb.tail_bands == (
            sm.TailBand(250.0, 40.0, 20.0, -18.0, 0.4),
            sm.TailBand(2000.0, 40.0, 20.0, -22.0, 0.25))

    def test_malformed_json_is_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            sm.parse_scene(str(path))


class TestMonoMix:
    def _obj(self, *stems):
        return sm.AudioObject("x", sm.ObjectType.EFFECT, tuple(
            sm.Stem(f"s{i}.wav", 48000, np.asarray(s, dtype=float))
            for i, s in enumerate(stems)))

    def test_single_stem_is_bit_identical(self):
        x = speech_like(0.1)
        obj = self._obj(x)
        assert sm.mono_mix(obj).tobytes() == x.tobytes()

    def test_empty_stems_are_skipped(self):
        a = np.arange(10.0)
        b = np.ones(4)
        obj = self._obj(a, np.zeros(0), b)
        assert np.array_equal(sm.mono_mix(obj), (a + np.pad(b, (0, 6))) / 2.0)

    def test_object_without_samples_mixes_to_nothing(self):
        assert len(sm.mono_mix(self._obj(np.zeros(0)))) == 0

    def test_single_stem_mix_is_a_read_only_view_of_the_stem(self):
        x = speech_like(0.1)
        obj = self._obj(np.zeros(0), x)   # an empty stem does not count
        stem = obj.stems[1].samples
        mix = sm.mono_mix(obj)
        assert np.shares_memory(mix, stem)
        with pytest.raises(ValueError):
            mix[0] = 1.0
        assert stem.flags.writeable

    def test_multi_stem_mix_is_a_new_array(self):
        a, b = np.arange(10.0), np.ones(10)
        obj = self._obj(a, b)
        mix = sm.mono_mix(obj)
        assert not np.shares_memory(mix, obj.stems[0].samples)
        assert not np.shares_memory(mix, obj.stems[1].samples)
        assert np.array_equal(mix, (a + b) / 2.0)


class TestParseNumber:
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10**300, 10**300)))
    def test_finite_numbers_parse_to_their_float(self, value):
        assert sm.parse_number(value, "f") == float(value)

    @given(st.one_of(
        st.text(), st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])))
    def test_everything_else_is_a_schema_error_naming_the_field(self, value):
        with pytest.raises(SchemaError, match=r"^objects\[0\]\.level_db must be"):
            sm.parse_number(value, "objects[0].level_db")

    @pytest.mark.parametrize("path, value", [
        (("level_db",), [1]),
        (("level_db",), "3"),
        (("level_db",), None),
        (("diffuseness",), float("nan")),
        (("extent_deg",), float("inf")),
        (("position", "az"), "left"),
        (("position", "el"), float("nan")),
        (("constraints", "tolerances", "level_db"), [6]),
        (("reverb", "tail_bands", 0, "decay_tau_s"), float("nan")),
    ])
    def test_scene_fields_go_through_parse_number(self, basic_scene_dir, path, value):
        d, _, doc = basic_scene_dir
        doc = json.loads(json.dumps(doc))
        obj = doc["objects"][0]
        obj.setdefault("position", {"az": 0.0, "el": 0.0})
        obj.setdefault("reverb", {"tail_bands": [
            {"band_center_hz": 1000.0, "decay_tau_s": 0.5}]})
        target = obj
        for key in path[:-1]:
            if isinstance(target, dict):
                target = target.setdefault(key, {})
            else:
                target = target[key]
        target[path[-1]] = value
        bad = write_scene(d, doc, "bad.json")
        with pytest.raises(SchemaError, match=path[-1]):
            sm.parse_scene(bad)


class TestValidate:
    def build(self, **over):
        stem = sm.Stem(ref="x.wav", sample_rate=48000, samples=speech_like(0.01))
        fields = dict(
            object_id="obj", object_type=sm.ObjectType.EFFECT, stems=(stem,),
            position=Direction3(0.0, 0.0, 1.0),
        )
        fields.update(over)
        obj = sm.AudioObject(**fields)
        return sm.Scene(sample_rate=48000, targets=sm.SceneTargets(), objects=(obj,))

    def test_valid_scene_has_no_violations(self):
        assert sm.validate_scene(self.build()) == []

    @pytest.mark.parametrize("field,value", [
        ("level_db", -61.0),
        ("level_db", 12.5),
        ("diffuseness", 1.2),
        ("extent_deg", 360.0),
        ("priority", -1),
        ("channels", 0),
    ])
    def test_out_of_range_fields_flagged(self, field, value):
        records = sm.validate_scene(self.build(**{field: value}))
        assert any(field in r.field for r in records)

    def test_unsorted_tail_bands_flagged(self):
        rv = sm.ReverbMetadata(tail_bands=(
            sm.TailBand(2000.0, 0.0, 0.0, -20.0, 0.3),
            sm.TailBand(250.0, 0.0, 0.0, -20.0, 0.4),
        ))
        records = sm.validate_scene(self.build(reverb=rv))
        assert any("tail_bands" in r.field for r in records)

    def test_duplicate_priority_order_flagged(self):
        c = sm.EditorialConstraints(priority_order=("level", "level"))
        records = sm.validate_scene(self.build(constraints=c))
        assert any(r.field == "priority_order" for r in records)

    @settings(max_examples=60, deadline=None)
    @given(
        level=st.floats(-100, 100, allow_nan=False),
        diffuseness=st.floats(-1, 2, allow_nan=False),
        priority=st.integers(-5, 15),
    )
    def test_matches_independent_range_checker(self, level, diffuseness, priority):
        # oracle: direct range arithmetic on the documented bounds
        expect_bad = (
            not (-60.0 <= level <= 12.0)
            or not (0.0 <= diffuseness <= 1.0)
            or not (0 <= priority <= 10)
        )
        records = sm.validate_scene(self.build(
            level_db=level, diffuseness=diffuseness, priority=priority))
        assert (len(records) > 0) == expect_bad
