"""Context unit tests: noise states, intelligibility estimation, scenario
assembly, context tracking, and device enumeration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obar.context import (
    ContextTracker,
    ListenerInfo,
    NoiseState,
    SILENT_NOISE,
    SpeakerLayout,
    band_snr_score,
    build_scenario,
    estimate_intelligibility,
    noise_at,
    parse_noise_timeline,
    scenario_from_dict,
)
from obar.devices import layout_from_device_config
from obar.errors import (
    BlockTooShort,
    DuplicateDeviceId,
    EmptyLayout,
    LengthMismatch,
    NoListener,
    SchemaError,
)
from obar.geometry import Direction3
from obar.scene import parse_scene

from conftest import FS, noise_like, ring_speakers, scenario_doc, write_json

class TestNoiseEstimation:
    def test_noise_state_floors_low_values(self):
        state = NoiseState(0.0, (-300.0, -50.0, -120.0, -10.0, 0.0, -1.0, -2.0))
        assert state.band_levels_db[0] == -120.0
        assert state.band_levels_db[1] == -50.0

    def test_noise_state_needs_seven_bands(self):
        with pytest.raises(SchemaError):
            NoiseState(0.0, (-50.0, -50.0))


class TestIntelligibility:
    def test_silent_masker_scores_one(self):
        speech = noise_like(0.5, seed=3, lo=150.0, hi=5000.0)
        assert estimate_intelligibility(speech, np.zeros_like(speech), FS) == 1.0

    def test_equal_blocks_score_half(self):
        speech = noise_like(0.5, seed=4, lo=150.0, hi=5000.0)
        score = estimate_intelligibility(speech, speech.copy(), FS)
        assert score == pytest.approx(0.5, abs=1e-9)

    def test_masker_fifteen_db_up_scores_zero(self):
        speech = noise_like(0.5, seed=5, lo=150.0, hi=5000.0)
        masker = speech * 10 ** (15.0 / 20.0)
        assert estimate_intelligibility(speech, masker, FS) == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            estimate_intelligibility(np.zeros(8192), np.zeros(8191), FS)

    def test_short_blocks_rejected(self):
        with pytest.raises(BlockTooShort):
            estimate_intelligibility(np.zeros(1024), np.zeros(1024), FS)

    @given(
        st.lists(st.floats(-60, 0), min_size=7, max_size=7),
        st.lists(st.floats(-60, 0), min_size=7, max_size=7),
        st.integers(0, 6),
        st.floats(0.1, 30.0),
    )
    def test_score_monotone_in_band_snr(self, speech, masker, band, boost):
        base = band_snr_score(speech, masker)
        raised = list(speech)
        raised[band] += boost
        assert band_snr_score(raised, masker) >= base

    def test_score_range(self):
        assert band_snr_score([0.0] * 7, [100.0] * 7) == 0.0
        assert band_snr_score([100.0] * 7, [0.0] * 7) == 1.0


def _layout(count=5, radius=2.0):
    speakers = ring_speakers(count, radius=radius)
    from obar.context import parse_speaker
    return SpeakerLayout(tuple(
        parse_speaker(s, f"s[{i}]") for i, s in enumerate(speakers)))


def _listener(listener_id="l0", az=0.0, dist=0.0, **over):
    return ListenerInfo(
        listener_id=listener_id,
        position=Direction3(az, 0.0, dist),
        hearing_impaired=over.get("hearing_impaired", False),
        intelligibility_preference=over.get("intelligibility_preference", 0.0),
        team_preference=over.get("team_preference"),
    )


class TestBuildScenario:
    def test_centered_listener_keeps_positions(self):
        layout = _layout()
        scenario = build_scenario(layout, [_listener()])
        assert scenario.layout == layout
        assert scenario.listener.listener_id == "l0"

    def test_off_origin_listener_rereferences_geometry(self):
        layout = _layout(count=4, radius=2.0)
        scenario = build_scenario(layout, [_listener(az=0.0, dist=1.0)])
        front = next(s for s in scenario.layout.speakers
                     if s.speaker_id == "s0")
        assert front.position.distance_m == pytest.approx(1.0, abs=1e-12)
        assert front.position.az_deg == pytest.approx(0.0, abs=1e-9)
        assert scenario.listener.position.distance_m == 0.0

    def test_listener_on_a_speaker_rejected(self):
        """Re-referenced around a listener on it, a speaker would sit at
        distance 0, where it has no direction."""
        with pytest.raises(SchemaError, match="listener l0 sits on speaker s1"):
            build_scenario(_layout(count=4, radius=2.0), [_listener(az=90.0, dist=2.0)])

    def test_no_listener_rejected(self):
        with pytest.raises(NoListener):
            build_scenario(_layout(), [])

    def test_empty_layout_rejected(self):
        with pytest.raises(EmptyLayout):
            SpeakerLayout(())


class TestContextTracker:
    def test_defaults_without_monitoring(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        scenario = build_scenario(_layout(), [_listener()])
        ctx = ContextTracker().update(scenario, scene)
        assert ctx.intelligibility_deficit == 0.0
        assert ctx.noise_delta_db == 0.0
        assert ctx.speaker_count == 5

    def test_deficit_is_target_minus_measured(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])  # scene target 0.8
        scenario = build_scenario(_layout(), [_listener()])
        ctx = ContextTracker().update(scenario, scene, measured=0.5)
        assert ctx.intelligibility_deficit == pytest.approx(0.3)
        assert ctx.effective_intelligibility_target == 0.8
        # above target the deficit goes negative; it is not floored at 0
        ctx = ContextTracker().update(scenario, scene, measured=0.85)
        assert ctx.intelligibility_deficit == pytest.approx(-0.05)

    def test_listener_preference_can_exceed_scene_target(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        listener = _listener(intelligibility_preference=0.95)
        scenario = build_scenario(_layout(), [listener])
        ctx = ContextTracker().update(scenario, scene, measured=0.5)
        assert ctx.effective_intelligibility_target == 0.95
        assert ctx.intelligibility_deficit == pytest.approx(0.45)

    def test_noise_delta_steps_between_updates(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        scenario = build_scenario(_layout(), [_listener()])
        tracker = ContextTracker()
        quiet = NoiseState(0.0, (-40.0,) * 7)
        loud = NoiseState(2.0, (-30.0,) * 7)
        first = tracker.update(scenario, scene, quiet)
        second = tracker.update(scenario, scene, loud)
        # the noise held 10 dB above the first update: no change since the
        # previous one
        held = tracker.update(scenario, scene, NoiseState(4.0, (-30.0,) * 7))
        assert first.noise_delta_db == 0.0
        assert second.noise_delta_db == pytest.approx(10.0, abs=1e-9)
        assert held.noise_delta_db == 0.0

    def test_nearest_device_tracks_listener(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        # listener sits 1 m toward az 90; ring speaker at az 90 r 2 is nearest
        scenario = build_scenario(_layout(count=4), [_listener(az=90.0, dist=1.0)])
        ctx = ContextTracker().update(scenario, scene)
        assert ctx.nearest_device == "s1"


class TestScenarioDocuments:
    def test_round_trip_with_noise_timeline(self, tmp_path):
        doc = scenario_doc(
            ring_speakers(5),
            noise_timeline=[
                {"t_s": 0.0, "band_levels_db": [-60.0] * 7},
                {"t_s": 4.0, "band_levels_db": [-30.0] * 7},
            ],
        )
        path = write_json(str(tmp_path), doc, "scenario.json")
        from obar.context import parse_scenario
        layout, listeners, room_decay_tau_s, timeline = parse_scenario(path)
        assert len(layout.speakers) == 5
        assert listeners[0].listener_id == "listener0"
        assert len(timeline) == 2
        assert noise_at(timeline, 3.9).band_levels_db == (-60.0,) * 7
        assert noise_at(timeline, 4.0).band_levels_db == (-30.0,) * 7
        assert noise_at(timeline, -1.0) is SILENT_NOISE

    def test_unsorted_timeline_rejected(self):
        with pytest.raises(SchemaError):
            parse_noise_timeline([
                {"t_s": 5.0, "band_levels_db": [-60.0] * 7},
                {"t_s": 1.0, "band_levels_db": [-30.0] * 7},
            ])

    def test_noise_level_ceiling(self):
        """A band level up to +200 dBFS parses and its broadband power sum is
        finite; one above it is rejected by name."""
        timeline = parse_noise_timeline([{"t_s": 0.0, "band_levels_db": [200.0] * 7}])
        assert timeline[0].broadband_db() == pytest.approx(200.0 + 10 * np.log10(7))
        with pytest.raises(SchemaError, match=r"band_levels_db\[3\] must be <= 200"):
            parse_noise_timeline([
                {"t_s": 0.0, "band_levels_db": [0.0] * 3 + [200.5] + [0.0] * 3}])

    def test_unknown_field_rejected(self):
        doc = scenario_doc(ring_speakers(3))
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    def test_environment_taus_validated(self):
        doc = scenario_doc(ring_speakers(3))
        doc["environment"] = {"room_decay_tau_s": [0.5] * 6}
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)
        doc["environment"] = {"room_decay_tau_s": [0.5] * 7}
        _, _, room_decay_tau_s, _ = scenario_from_dict(doc)
        assert room_decay_tau_s == (0.5,) * 7

    def test_speaker_without_distance_rejected(self):
        doc = scenario_doc([{"id": "s0", "position": {"az": 0.0, "el": 0.0}}])
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("field", ["intelligibility_preference",
                                       "envelopment_preference"])
    def test_listener_preferences_span_zero_to_one(self, field):
        doc = scenario_doc(ring_speakers(3))
        for value in (0, 0.0, 0.5, 1, 1.0):
            doc["listeners"][0][field] = value
            scenario_from_dict(doc)
        for value in (-1e-9, 1.000001, 5):
            doc["listeners"][0][field] = value
            with pytest.raises(SchemaError, match=field):
                scenario_from_dict(doc)


class TestDeviceEnumeration:
    def _doc(self, devices):
        return {"schema": "devices v1", "devices": devices}

    def test_kind_defaults_applied(self):
        layout = layout_from_device_config(self._doc([
            {"id": "ph", "kind": "phone",
             "position": {"az": 10.0, "el": 0.0, "dist": 0.8}},
        ]))
        phone = layout.by_id("ph")
        assert phone.bandwidth_hz.low_hz == 300.0
        assert phone.bandwidth_hz.high_hz == 8000.0
        assert phone.latency_ms == 30.0

    def test_disconnected_devices_excluded(self):
        layout = layout_from_device_config(self._doc([
            {"id": "a", "position": {"az": 0, "el": 0, "dist": 2}},
            {"id": "b", "position": {"az": 90, "el": 0, "dist": 2},
             "connected": False},
        ]))
        assert layout.ids() == ("a",)

    def test_duplicate_ids_rejected_even_when_disconnected(self):
        with pytest.raises(DuplicateDeviceId):
            layout_from_device_config(self._doc([
                {"id": "a", "position": {"az": 0, "el": 0, "dist": 2}},
                {"id": "a", "position": {"az": 90, "el": 0, "dist": 2},
                 "connected": False},
            ]))

    def test_overrides_beat_defaults(self):
        layout = layout_from_device_config(self._doc([
            {"id": "tv", "kind": "tv",
             "position": {"az": 0, "el": 0, "dist": 2.5},
             "bandwidth_hz": {"low": 80.0, "high": 15000.0}},
        ]))
        assert layout.by_id("tv").bandwidth_hz.low_hz == 80.0

    def test_all_disconnected_rejected(self):
        with pytest.raises(EmptyLayout):
            layout_from_device_config(self._doc([
                {"id": "a", "position": {"az": 0, "el": 0, "dist": 2},
                 "connected": False},
            ]))

    def test_devices_layout_inside_scenario(self, tmp_path):
        doc = scenario_doc(ring_speakers(3))
        doc["layout"] = self._doc([
            {"id": "ph", "kind": "phone",
             "position": {"az": 0.0, "el": 0.0, "dist": 1.0}},
        ])
        layout, _, _, _ = scenario_from_dict(doc)
        assert layout.ids() == ("ph",)
