"""Scene adapter tests: clamping, priorities, the intelligibility ladder,
personalization, reverb refitting, and whole-rulebook application."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obar_helpers import FS, music_like, speech_like
from obar import adapt
from obar.adapt import (
    ACTION_KINDS,
    LADDER_DECORRELATE_AMOUNT,
    LADDER_RESIDUAL_THRESHOLD,
    LADDER_SLOPE_DB_PER_DEFICIT,
    LADDER_STEP_CAP_DB,
    MAX_TAU_S,
    AdaptationAction,
    _rung_reposition,
    action_magnitude,
    adapt_reverb,
    apply_rules,
    clamp_to_tolerances,
    intelligibility_boost,
    personalize_levels,
    resolve_priority,
    room_tau_at,
    tolerance_bound,
)
from obar.context import (
    MIN_NOISE_BLOCK,
    HighLevelContext,
    ListenerInfo,
    estimate_intelligibility,
)
from obar.dsp import OCTAVE_CENTERS_HZ, Directive, apply_directives
from obar.errors import NoDialogueObject, NonPositiveTau, UnknownProperty
from obar.geometry import Direction3
from obar.rules import DIRECT_ACTIONS, parse_rulebook
from obar.scene import (
    PERCEPTUAL_PROPERTIES,
    AudioObject,
    EditorialConstraints,
    ObjectType,
    ReverbMetadata,
    Scene,
    SceneTargets,
    Stem,
    TailBand,
    Tolerances,
    mono_mix,
)

SPEECH = speech_like()
MUSIC = music_like()
LATE_MUSIC = MUSIC * (np.arange(len(MUSIC)) >= len(MUSIC) // 4)


def make_object(oid, otype, samples=None, **over):
    stems = (Stem(ref=f"{oid}.wav", sample_rate=FS,
                  samples=np.zeros(0) if samples is None else samples),)
    fields = dict(object_id=oid, object_type=ObjectType(otype), stems=stems)
    fields.update(over)
    return AudioObject(**fields)


def make_scene(*objects, intelligibility=0.0):
    return Scene(sample_rate=FS,
                 targets=SceneTargets(intelligibility=intelligibility),
                 objects=tuple(objects))


def make_ctx(deficit=0.0, speaker_count=5, room=None, targets=SceneTargets()):
    return HighLevelContext(
        intelligibility_deficit=deficit,
        noise_delta_db=0.0,
        noise_broadband_db=-120.0,
        scene_targets=targets,
        listener=ListenerInfo("l0", Direction3(0.0)),
        measured_intelligibility=None,
        effective_intelligibility_target=max(deficit, 0.0),
        speaker_count=speaker_count,
        room_decay_tau_s=room,
    )


def constraints(**tol):
    return EditorialConstraints(tolerances=Tolerances(**tol))


def scene_mixes(scene):
    return {o.object_id: mono_mix(o) for o in scene.objects}


def boost(scene, ctx, window=None):
    """intelligibility_boost over the scene's own mono mixes; window None
    previews the whole scene."""
    return intelligibility_boost(scene, ctx, scene_mixes(scene),
                                 window or (0, scene.duration_samples))


def apply(scene, ctx, book):
    """apply_rules with the ladder previewing the whole scene."""
    return apply_rules(scene, ctx, book, scene_mixes(scene),
                       (0, scene.duration_samples))


# ---------------------------------------------------------------------------
# clamping

class TestClamp:
    def test_gain_clamped_to_tolerance(self):
        action = AdaptationAction("o", "GainOffset", -12.0)
        out = clamp_to_tolerances(action, constraints(level_db=6.0))
        assert out.value == -6.0

    def test_inside_tolerance_unchanged(self):
        action = AdaptationAction("o", "Reposition", daz_deg=10.0)
        assert clamp_to_tolerances(action, constraints(position_deg=15.0)) == action

    def test_zero_tolerance_neutralizes(self):
        action = AdaptationAction("o", "GainOffset", -3.0)
        out = clamp_to_tolerances(action, constraints(level_db=0.0))
        assert out.value == 0.0

    @pytest.mark.parametrize("kind,value,tol,expect", [
        ("SpectralTilt", -9.0, {"spectral_tilt_db": 4.0}, -4.0),
        ("TimeShift", 250.0, {"time_shift_ms": 100.0}, 100.0),
        ("TimeShift", -40.0, {"time_shift_ms": 100.0}, -40.0),
        ("Decorrelate", 1.7, {}, 1.0),
        ("Decorrelate", -0.3, {}, 0.0),
        ("ReverbTailScale", 3.0, {"reverb_scale": 0.5}, 1.5),
        ("ReverbTailScale", 0.2, {"reverb_scale": 0.5}, 0.5),
    ])
    def test_scalar_kinds(self, kind, value, tol, expect):
        out = clamp_to_tolerances(AdaptationAction("o", kind, value), constraints(**tol))
        assert out.value == pytest.approx(expect)

    def test_reposition_norm_rescaled(self):
        action = AdaptationAction("o", "Reposition", daz_deg=30.0, del_deg=40.0)
        out = clamp_to_tolerances(action, constraints(position_deg=15.0))
        assert (out.daz_deg, out.del_deg) == pytest.approx((9.0, 12.0))
        assert math.hypot(out.daz_deg, out.del_deg) == pytest.approx(15.0)

    def test_prune_and_regroup_pass_through(self):
        for action in (AdaptationAction("o", "Prune"),
                       AdaptationAction("o", "Regroup", group="g")):
            assert clamp_to_tolerances(action, constraints()) == action

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownProperty):
            clamp_to_tolerances(AdaptationAction("o", "Sharpen", 1.0), constraints())

    @given(
        kind=st.sampled_from(sorted(ACTION_KINDS)),
        value=st.floats(-1e6, 1e6),
        daz=st.floats(-720.0, 720.0),
        delv=st.floats(-180.0, 180.0),
        level=st.floats(0.0, 60.0),
        pos=st.floats(0.0, 180.0),
        shift=st.floats(0.0, 1000.0),
        tilt=st.floats(0.0, 24.0),
        rscale=st.floats(0.0, 0.99),
    )
    def test_clamped_magnitude_bounded_and_idempotent(
            self, kind, value, daz, delv, level, pos, shift, tilt, rscale):
        cons = constraints(level_db=level, position_deg=pos, time_shift_ms=shift,
                           spectral_tilt_db=tilt, reverb_scale=rscale)
        action = AdaptationAction("o", kind, value=value, daz_deg=daz, del_deg=delv,
                                  group="g")
        out = clamp_to_tolerances(action, cons)
        assert action_magnitude(out) <= tolerance_bound(kind, cons) + 1e-9
        assert clamp_to_tolerances(out, cons) == out


# ---------------------------------------------------------------------------
# priority resolution

class TestPriority:
    ORDER = EditorialConstraints(
        priority_order=("intelligibility", "position", "level"))

    def test_full_budget_orders_level_first(self):
        requested = [AdaptationAction("o", "Reposition", daz_deg=5.0),
                     AdaptationAction("o", "GainOffset", -3.0)]
        out = resolve_priority(requested, self.ORDER)
        assert [a.kind for a in out] == ["GainOffset", "Reposition"]

    def test_empty_request(self):
        assert resolve_priority([], self.ORDER) == []

    def test_property_missing_from_order(self):
        with pytest.raises(UnknownProperty):
            resolve_priority([AdaptationAction("o", "TimeShift", 10.0)], self.ORDER)

    def test_unknown_kind(self):
        with pytest.raises(UnknownProperty):
            resolve_priority([AdaptationAction("o", "Sharpen", 1.0)], self.ORDER)

    @given(
        kinds=st.lists(st.sampled_from(sorted(ACTION_KINDS)), max_size=12),
        order=st.permutations(sorted({prop for prop, _ in ACTION_KINDS.values()})),
    )
    def test_matches_reference_stable_sort(self, kinds, order):
        requested = [AdaptationAction(f"o{i}", kind, value=float(i))
                     for i, kind in enumerate(kinds)]
        cons = EditorialConstraints(priority_order=tuple(order))
        decorated = sorted(
            ((-order.index(ACTION_KINDS[a.kind][0]), i, a)
             for i, a in enumerate(requested)),
            key=lambda t: (t[0], t[1]))
        expect = [a for _, _, a in decorated]
        assert resolve_priority(requested, cons) == expect


# ---------------------------------------------------------------------------
# intelligibility ladder

def ladder_scene(music_tol=None, music_az=None, dialogue_az=None, music=MUSIC):
    dlg_kw = {}
    if dialogue_az is not None:
        dlg_kw["position"] = Direction3(dialogue_az)
    mus_kw = {}
    if music_tol is not None:
        mus_kw["constraints"] = constraints(**music_tol)
    if music_az is not None:
        mus_kw["position"] = Direction3(music_az)
    return make_scene(
        make_object("narrator", "dialogue", SPEECH, priority=9, **dlg_kw),
        make_object("band", "music", music, priority=4, **mus_kw),
    )


class TestLadder:
    def test_first_rung_ducks_music_by_six(self):
        actions = boost(ladder_scene(), make_ctx(deficit=0.3))
        assert actions[0].object_id == "band"
        assert actions[0].kind == "GainOffset"
        assert actions[0].value == pytest.approx(-6.0)

    def test_step_scales_with_deficit(self):
        actions = boost(ladder_scene(), make_ctx(deficit=0.1))
        assert actions[0].value == pytest.approx(-2.0)

    def test_zero_deficit_emits_nothing(self):
        assert boost(ladder_scene(), make_ctx(deficit=0.0)) == []

    def test_no_dialogue_rejected(self):
        scene = make_scene(make_object("band", "music", MUSIC))
        with pytest.raises(NoDialogueObject):
            boost(scene, make_ctx(deficit=0.3))

    def test_dialogue_only_scene_emits_nothing(self):
        scene = make_scene(make_object("narrator", "dialogue", SPEECH))
        assert boost(scene, make_ctx(deficit=0.3)) == []

    def test_tight_level_tolerance_escalates_to_tilt(self):
        """With the duck clamped to -2 dB the preview still leaves most of the
        0.3 deficit, so the tilt rung must be emitted."""
        scene = ladder_scene(music_tol={"level_db": 2.0})
        ducked = MUSIC * 10 ** (-2.0 / 20.0)
        gain = (estimate_intelligibility(SPEECH, ducked, FS)
                - estimate_intelligibility(SPEECH, MUSIC, FS))
        assert 0.3 - gain > 0.05
        kinds = [a.kind for a in boost(scene, make_ctx(deficit=0.3))]
        assert "SpectralTilt" in kinds

    def test_small_deficit_stops_after_duck(self):
        """A -1.6 dB duck recovers most of a 0.08 deficit, so escalation stops."""
        ducked = MUSIC * 10 ** (-1.6 / 20.0)
        gain = (estimate_intelligibility(SPEECH, ducked, FS)
                - estimate_intelligibility(SPEECH, MUSIC, FS))
        assert 0.08 - gain <= 0.05
        actions = boost(ladder_scene(), make_ctx(deficit=0.08))
        assert {a.kind for a in actions} == {"GainOffset"}

    def test_tiny_tolerances_emit_full_ladder_in_order(self):
        scene = ladder_scene(music_tol={"level_db": 0.5, "spectral_tilt_db": 0.5},
                             music_az=30.0, dialogue_az=0.0)
        actions = boost(scene, make_ctx(deficit=0.3))
        kinds = [a.kind for a in actions]
        assert kinds == ["GainOffset", "SpectralTilt", "Reposition", "Decorrelate"]
        assert all(a.object_id == "band" for a in actions)
        assert actions[-1].value == LADDER_DECORRELATE_AMOUNT

    def test_reposition_pushes_away_from_dialogue(self):
        scene = ladder_scene(music_tol={"level_db": 0.5, "spectral_tilt_db": 0.5},
                             music_az=30.0, dialogue_az=0.0)
        repos = [a for a in boost(scene, make_ctx(deficit=0.3))
                 if a.kind == "Reposition"]
        assert repos[0].daz_deg == pytest.approx(30.0)  # step 6 * 5 deg, away

        mirrored = ladder_scene(music_tol={"level_db": 0.5, "spectral_tilt_db": 0.5},
                                music_az=-20.0, dialogue_az=0.0)
        repos = [a for a in boost(mirrored, make_ctx(deficit=0.3))
                 if a.kind == "Reposition"]
        assert repos[0].daz_deg == pytest.approx(-30.0)

    def test_positionless_masker_skips_reposition_but_decorrelates(self):
        scene = ladder_scene(music_tol={"level_db": 0.5, "spectral_tilt_db": 0.5})
        kinds = [a.kind for a in boost(scene, make_ctx(deficit=0.3))]
        assert kinds == ["GainOffset", "SpectralTilt", "Decorrelate"]

    @pytest.mark.parametrize("duck_db", [0.5, 2.0, 6.0])
    def test_ducking_never_lowers_the_proxy(self, duck_db):
        before = estimate_intelligibility(SPEECH, MUSIC, FS)
        after = estimate_intelligibility(SPEECH, MUSIC * 10 ** (-duck_db / 20.0), FS)
        assert after >= before - 1e-12

    def test_preview_window_is_honoured(self):
        actions = boost(ladder_scene(), make_ctx(deficit=0.3), window=(0, 8192))
        assert actions[0].kind == "GainOffset"

    @pytest.mark.parametrize("window", [None, (4096, 12288)])
    def test_rung_residuals_match_per_rung_previews(self, window, monkeypatch):
        """The ladder scores its baseline once and previews two rungs; each
        residual is exactly where rebuilding every preview per rung put it,
        and the reposition rung's preview would repeat the tilt rung's."""
        scene = ladder_scene(music_tol={"level_db": 0.5, "spectral_tilt_db": 0.5},
                             music_az=30.0, dialogue_az=0.0)
        scores = []

        def counting(*args):
            scores.append(estimate_intelligibility(*args))
            return scores[-1]

        monkeypatch.setattr(adapt, "estimate_intelligibility", counting)
        actions = boost(scene, make_ctx(deficit=0.3), window=window)
        kinds = [a.kind for a in actions]
        assert kinds == ["GainOffset", "SpectralTilt", "Reposition", "Decorrelate"]
        assert len(scores) == 1 + 2   # the baseline, then the duck and the tilt

        window = window or (0, scene.duration_samples)
        dialogue, others = list(scene.objects[:1]), list(scene.objects[1:])
        for rungs, score in ((1, scores[1]), (2, scores[2]), (3, scores[2])):
            assert (0.3 - max(score - scores[0], 0.0)
                    == _per_rung_residual(scene, 0.3, dialogue, others,
                                          actions[:rungs], window))

    @settings(max_examples=50, deadline=None)
    @given(
        deficit=st.floats(0.0, 0.4),
        level_db=st.floats(0.0, 8.0),
        tilt_db=st.floats(0.0, 8.0),
        music_az=st.one_of(st.none(), st.floats(-180.0, 180.0)),
        dialogue_az=st.one_of(st.none(), st.floats(-180.0, 180.0)),
        lo=st.sampled_from(range(0, len(SPEECH), 1000)),
        width=st.integers(1, len(SPEECH) // 4),
    )
    def test_ladder_matches_the_per_rung_loop(self, deficit, level_db, tilt_db,
                                              music_az, dialogue_az, lo, width):
        """The ladder emits exactly the per-rung loop's actions. The masker
        is silent in its first quarter, so where the window falls decides
        how far the ladder climbs."""
        scene = ladder_scene(
            music_tol={"level_db": level_db, "spectral_tilt_db": tilt_db},
            music_az=music_az, dialogue_az=dialogue_az, music=LATE_MUSIC)
        ctx = make_ctx(deficit=deficit)
        window = (lo, lo + width)
        assert boost(scene, ctx, window) == _per_rung_ladder(scene, ctx, window)


def _oracle_mix(objs, window, length, gains_db, tilts_db):
    mix = np.zeros(length)
    for obj in objs:
        sig = mono_mix(obj)[window[0]:window[1]]
        if not len(sig):
            continue
        sig = sig * 10.0 ** ((obj.level_db + gains_db.get(obj.object_id, 0.0)) / 20.0)
        tilt = tilts_db.get(obj.object_id, 0.0)
        if abs(tilt) > 1e-12:
            sig = apply_directives(sig, [Directive("spectral_tilt", tilt)], FS)
        mix[:len(sig)] += sig
    return mix


def _per_rung_residual(scene, deficit, dialogue, others, emitted, window):
    """Reference: the ladder residual with every preview rebuilt and scored
    again from the objects' windowed mono mixes."""
    gains, tilts = {}, {}
    for action in emitted:
        clamped = clamp_to_tolerances(
            action, scene.object_by_id(action.object_id).constraints)
        if clamped.kind == "GainOffset":
            gains[clamped.object_id] = gains.get(clamped.object_id, 0.0) + clamped.value
        elif clamped.kind == "SpectralTilt":
            tilts[clamped.object_id] = tilts.get(clamped.object_id, 0.0) + clamped.value
    length = max(
        max((window[1] - window[0] for o in (*dialogue, *others) for s in o.stems),
            default=0),
        MIN_NOISE_BLOCK,
    )
    speech = _oracle_mix(dialogue, window, length, {}, {})
    before = _oracle_mix(others, window, length, {}, {})
    after = _oracle_mix(others, window, length, gains, tilts)
    score_before = estimate_intelligibility(speech, before, scene.sample_rate)
    score_after = estimate_intelligibility(speech, after, scene.sample_rate)
    return deficit - max(score_after - score_before, 0.0)


def _per_rung_ladder(scene, ctx, window):
    """Reference: the ladder as one loop over rungs 2-4 (tilt, reposition,
    decorrelate), each appended while _per_rung_residual of the rungs before
    it stays above the threshold."""
    deficit = ctx.intelligibility_deficit
    if deficit <= 0.0:
        return []
    dialogue = [o for o in scene.objects if o.object_type is ObjectType.DIALOGUE]
    others = [o for o in scene.objects if o.object_type is not ObjectType.DIALOGUE]
    step = min(deficit * LADDER_SLOPE_DB_PER_DEFICIT, LADDER_STEP_CAP_DB)
    reason = "intelligibility_ladder"
    emitted = [AdaptationAction(o.object_id, "GainOffset", -step, reason=reason)
               for o in others]
    later_rungs = (
        lambda: [AdaptationAction(o.object_id, "SpectralTilt", -step, reason=reason)
                 for o in others],
        lambda: _rung_reposition(others, dialogue, step, reason),
        lambda: [AdaptationAction(o.object_id, "Decorrelate",
                                  LADDER_DECORRELATE_AMOUNT, reason=reason)
                 for o in others],
    )
    for build in later_rungs:
        residual = _per_rung_residual(scene, deficit, dialogue, others, emitted, window)
        if residual <= LADDER_RESIDUAL_THRESHOLD:
            break
        emitted.extend(build())
    return emitted


# ---------------------------------------------------------------------------
# personalization

class TestPersonalize:
    def _scene(self, groups):
        return make_scene(*(
            make_object(f"o{i}", "ambience", group=g) for i, g in enumerate(groups)))

    def _listener(self, team):
        return ListenerInfo("l0", Direction3(0.0), team_preference=team)

    def test_boosts_preferred_and_ducks_rival(self):
        scene = self._scene(["home_crowd", "away_crowd"])
        actions = personalize_levels(scene, self._listener("home"))
        by_id = {a.object_id: a.value for a in actions}
        assert by_id == {"o0": 3.0, "o1": -3.0}

    def test_no_preference(self):
        scene = self._scene(["home_crowd", "away_crowd"])
        assert personalize_levels(scene, self._listener(None)) == []
        assert personalize_levels(scene, self._listener("")) == []

    def test_no_grouped_objects(self):
        scene = make_scene(make_object("o0", "ambience"))
        assert personalize_levels(scene, self._listener("home")) == []

    def test_bare_team_groups_pair(self):
        scene = self._scene(["home", "away"])
        by_id = {a.object_id: a.value
                 for a in personalize_levels(scene, self._listener("home"))}
        assert by_id == {"o0": 3.0, "o1": -3.0}

    def test_unrelated_group_untouched(self):
        scene = self._scene(["home_crowd", "venue_pa"])
        by_id = {a.object_id: a.value
                 for a in personalize_levels(scene, self._listener("home"))}
        assert by_id == {"o0": 3.0}

    def test_absent_preferred_team_changes_nothing(self):
        scene = self._scene(["away_crowd"])
        assert personalize_levels(scene, self._listener("home")) == []


# ---------------------------------------------------------------------------
# reverb refitting

def reverb_with_taus(taus, centers=None):
    centers = centers or [1000.0] * len(taus)
    return ReverbMetadata(tail_bands=tuple(
        TailBand(band_center_hz=c, onset_ms=20.0, attack_ms=5.0,
                 level_db=-12.0, decay_tau_s=t)
        for c, t in zip(centers, taus)))


class TestAdaptReverb:
    def test_formula_example(self):
        refit, feasible = adapt_reverb(reverb_with_taus([0.3]), [0.6], [0.3])
        assert refit.tail_bands[0].decay_tau_s == pytest.approx(0.6)
        assert feasible == (True,)

    def test_envelope_product_oracle(self):
        """Multiplying the refit production envelope by the room envelope and
        fitting the slope recovers the 0.3 s target."""
        refit, _ = adapt_reverb(reverb_with_taus([0.3]), [0.6], [0.3])
        tau_p = refit.tail_bands[0].decay_tau_s
        t = np.arange(int(2.0 * FS)) / FS
        env = np.exp(-t / tau_p) * np.exp(-t / 0.6)
        slope = np.polyfit(t, np.log(env), 1)[0]
        assert -1.0 / slope == pytest.approx(0.3, rel=1e-9)

    def test_room_equal_to_target_is_infeasible(self):
        refit, feasible = adapt_reverb(reverb_with_taus([0.3]), [0.3], [0.3])
        assert feasible == (False,)
        assert refit.tail_bands[0].decay_tau_s == MAX_TAU_S

    def test_anechoic_limit(self):
        refit, feasible = adapt_reverb(reverb_with_taus([0.5]), [1e9], [0.3])
        assert feasible == (True,)
        assert refit.tail_bands[0].decay_tau_s == pytest.approx(0.3, rel=1e-6)

    def test_non_positive_tau_rejected(self):
        with pytest.raises(NonPositiveTau):
            adapt_reverb(reverb_with_taus([0.3]), [0.0], [0.3])
        with pytest.raises(NonPositiveTau):
            adapt_reverb(reverb_with_taus([0.3]), [0.6], [-0.1])

    def test_band_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adapt_reverb(reverb_with_taus([0.3, 0.4]), [0.6], [0.3])

    @given(
        tau_t=st.floats(0.05, 5.0),
        excess=st.floats(1.01, 50.0),
    )
    def test_combination_identity(self, tau_t, excess):
        tau_r = tau_t * excess
        refit, feasible = adapt_reverb(reverb_with_taus([1.0]), [tau_r], [tau_t])
        assert feasible == (True,)
        tau_p = refit.tail_bands[0].decay_tau_s
        combined = 1.0 / (1.0 / tau_p + 1.0 / tau_r)
        assert combined == pytest.approx(tau_t, rel=1e-9)

    def test_room_tau_interpolation(self):
        octave_taus = np.linspace(0.2, 0.8, len(OCTAVE_CENTERS_HZ))
        at_centres = room_tau_at(OCTAVE_CENTERS_HZ, octave_taus)
        assert np.allclose(at_centres, octave_taus)
        mid = room_tau_at([math.sqrt(125.0 * 250.0)], octave_taus)[0]
        assert mid == pytest.approx((octave_taus[0] + octave_taus[1]) / 2.0)
        assert room_tau_at([20.0], octave_taus)[0] == pytest.approx(octave_taus[0])
        assert room_tau_at([16000.0], octave_taus)[0] == pytest.approx(octave_taus[-1])


# ---------------------------------------------------------------------------
# apply_rules

def rulebook(*rules):
    return parse_rulebook({"schema": "rulebook v1", "rules": list(rules)})


class TestApplyRules:
    def test_empty_rulebook_is_identity(self):
        scene = ladder_scene()
        adapted, report = apply(scene, make_ctx(deficit=0.3), ())
        assert adapted == scene
        assert report.applied == () and report.skipped == () and report.deltas == ()

    def test_input_scene_untouched(self):
        scene = ladder_scene(music_tol={"level_db": 2.0})
        snapshot = copy.deepcopy(scene)
        book = rulebook({
            "rule_id": "duck",
            "when": "intelligibility_deficit > 0 and has_dialogue",
            "actions": [{"kind": "intelligibility_ladder"}],
        })
        apply(scene, make_ctx(deficit=0.3), book)
        assert scene == snapshot

    def test_ducking_rule_applies_clamped_gain(self):
        scene = ladder_scene(music_tol={"level_db": 2.0})
        book = rulebook({
            "rule_id": "duck",
            "when": "intelligibility_deficit > 0 and has_dialogue",
            "actions": [{"kind": "intelligibility_ladder"}],
        })
        adapted, report = apply(scene, make_ctx(deficit=0.3), book)
        band = adapted.object_by_id("band")
        assert band.level_db == pytest.approx(-2.0)
        assert adapted.object_by_id("narrator").level_db == 0.0
        gain_entries = [e for e in report.applied
                        if e.action.kind == "GainOffset"]
        assert gain_entries[0].requested == pytest.approx(6.0)
        assert gain_entries[0].clamped == pytest.approx(2.0)
        directive_kinds = [d.kind for d in band.directives]
        assert "spectral_tilt" in directive_kinds
        assert "decorrelate" in directive_kinds
        assert not scene.object_by_id("band").directives

    def test_prune_rule_removes_object_and_reports(self):
        scene = make_scene(
            make_object("narrator", "dialogue", SPEECH, priority=9),
            make_object("birds", "ambience", priority=0),
        )
        book = rulebook({
            "rule_id": "prune-filler",
            "when": "speaker_count <= 2",
            "actions": [{"kind": "prune",
                         "select": "type == 'ambience' and priority == 0"}],
        })
        adapted, report = apply(scene, make_ctx(speaker_count=2), book)
        assert [o.object_id for o in adapted.objects] == ["narrator"]
        assert any(e.action.kind == "Prune" and e.action.object_id == "birds"
                   for e in report.applied)
        assert ("birds", "Prune", 1.0) in report.deltas

    def test_later_rules_see_adapted_scene(self):
        scene = make_scene(make_object("a", "effect"), make_object("b", "effect"))
        book = rulebook(
            {"rule_id": "tag", "when": "true",
             "actions": [{"kind": "regroup", "group": "x", "select": "id == 'a'"}]},
            {"rule_id": "duck-tagged", "when": "true",
             "actions": [{"kind": "gain_offset", "db": -3.0,
                          "select": "group == 'x'"}]},
        )
        adapted, _ = apply(scene, make_ctx(), book)
        assert adapted.object_by_id("a").group == "x"
        assert adapted.object_by_id("a").level_db == pytest.approx(-3.0)
        assert adapted.object_by_id("b").level_db == 0.0

    def test_gain_respects_level_floor(self):
        scene = make_scene(make_object("quiet", "music", level_db=-58.0))
        book = rulebook({"rule_id": "duck", "when": "true",
                         "actions": [{"kind": "gain_offset", "db": -6.0}]})
        adapted, report = apply(scene, make_ctx(), book)
        assert adapted.object_by_id("quiet").level_db == -60.0
        assert report.applied[0].clamped == pytest.approx(2.0)
        assert ("quiet", "GainOffset", -2.0) in report.deltas

    def test_every_applied_magnitude_within_tolerance(self):
        scene = ladder_scene(music_tol={"level_db": 2.0, "spectral_tilt_db": 1.0})
        book = rulebook(
            {"rule_id": "duck",
             "when": "intelligibility_deficit > 0 and has_dialogue",
             "actions": [{"kind": "intelligibility_ladder"}]},
            {"rule_id": "nudge", "when": "true",
             "actions": [{"kind": "time_shift", "ms": 500.0,
                          "select": "type == 'music'"}]},
        )
        _, report = apply(scene, make_ctx(deficit=0.3), book)
        assert report.applied
        for entry in report.applied:
            obj = scene.object_by_id(entry.action.object_id)
            assert entry.clamped <= tolerance_bound(
                entry.action.kind, obj.constraints) + 1e-9

    def test_ladder_reports_gain_and_tilt_totals_apart(self):
        """A ladder interval that ducks and tilts reports one total per
        action kind, each in its own unit and within its own tolerance,
        not one "level" total that adds dB of gain to dB of tilt."""
        scene = ladder_scene(music_tol={"level_db": 2.0, "spectral_tilt_db": 1.0})
        book = rulebook({"rule_id": "duck",
                         "when": "intelligibility_deficit > 0 and has_dialogue",
                         "actions": [{"kind": "intelligibility_ladder"}]})
        _, report = apply(scene, make_ctx(deficit=0.3), book)
        totals = {(oid, kind): total for oid, kind, total in report.deltas}
        assert totals[("band", "GainOffset")] == pytest.approx(-2.0)
        assert totals[("band", "SpectralTilt")] == pytest.approx(-1.0)
        for (oid, kind), total in totals.items():
            bound = tolerance_bound(kind, scene.object_by_id(oid).constraints)
            assert abs(total) <= bound + 1e-9

    def test_reverb_fit_through_rulebook(self):
        scene = make_scene(make_object(
            "hall", "effect", reverb=reverb_with_taus([0.3])))
        room = tuple([0.6] * len(OCTAVE_CENTERS_HZ))
        book = rulebook({"rule_id": "fit", "when": "has_room_decay",
                         "actions": [{"kind": "reverb_fit"}]})
        adapted, report = apply(scene, make_ctx(room=room), book)
        # raw refit 0.6 is factor 2.0; default reverb tolerance 0.5 clamps to 1.5
        band = adapted.object_by_id("hall").reverb.tail_bands[0]
        assert band.decay_tau_s == pytest.approx(0.45)
        entry = [e for e in report.applied if e.action.kind == "ReverbTailScale"][0]
        assert entry.requested == pytest.approx(1.0)
        assert entry.clamped == pytest.approx(0.5)

    def test_reposition_without_position_is_skipped(self):
        scene = make_scene(make_object("band", "music"))
        book = rulebook({"rule_id": "move", "when": "true",
                         "actions": [{"kind": "reposition", "daz_deg": 10.0,
                                      "del_deg": 0.0}]})
        adapted, report = apply(scene, make_ctx(), book)
        assert adapted.object_by_id("band").position is None
        assert report.skipped and "position" in report.skipped[0].reason

    def test_unknown_property_propagates(self):
        scene = make_scene(make_object(
            "band", "music",
            constraints=EditorialConstraints(priority_order=("level",))))
        book = rulebook({"rule_id": "move", "when": "true",
                         "actions": [{"kind": "time_shift", "ms": 10.0}]})
        with pytest.raises(UnknownProperty):
            apply(scene, make_ctx(), book)

    def test_rule_condition_gates_actions(self):
        scene = make_scene(make_object("band", "music"))
        book = rulebook({"rule_id": "duck", "when": "noise_delta_db > 3",
                         "actions": [{"kind": "gain_offset", "db": -6.0}]})
        adapted, report = apply(scene, make_ctx(), book)
        assert adapted.object_by_id("band").level_db == 0.0
        assert report.applied == ()

    def test_missing_dialogue_recorded_as_skip(self):
        scene = make_scene(make_object("band", "music", MUSIC))
        book = rulebook({"rule_id": "duck", "when": "intelligibility_deficit > 0",
                         "actions": [{"kind": "intelligibility_ladder"}]})
        adapted, report = apply(scene, make_ctx(deficit=0.3), book)
        assert adapted.object_by_id("band").level_db == 0.0
        assert report.skipped and "dialogue" in report.skipped[0].reason
        assert report.skipped[0].action.kind == "intelligibility_ladder"
        assert report.skipped[0].action.reason == "duck"


# ---------------------------------------------------------------------------
# the action tables

# A document value for every direct-action parameter, inside the default
# tolerances so that clamping leaves it as written.
DOCUMENT_VALUES = {"db": -2.0, "daz_deg": 4.0, "del_deg": -3.0, "ms": 5.0,
                   "amount": 0.25, "factor": 1.25, "group": "bed"}


def table_scene():
    """One object that every action kind can edit: positioned, with a
    reverb tail."""
    return make_scene(make_object("band", "music", MUSIC,
                                  position=Direction3(30.0, 0.0, 2.0),
                                  reverb=reverb_with_taus([0.3])))


class TestActionTables:
    @pytest.mark.parametrize("rule_kind", sorted(DIRECT_ACTIONS))
    def test_direct_action_through_rulebook(self, rule_kind):
        kind, params = DIRECT_ACTIONS[rule_kind]
        doc = {"kind": rule_kind, **{name: DOCUMENT_VALUES[name] for name in params}}
        book = rulebook({"rule_id": "r", "when": "true", "actions": [doc]})
        _, report = apply(table_scene(), make_ctx(), book)
        assert report.skipped == ()
        [entry] = report.applied
        assert entry.action.kind == kind and entry.action.reason == "r"
        for name, (action_field, _parse) in params.items():
            assert getattr(entry.action, action_field) == DOCUMENT_VALUES[name]

    def test_every_bound_names_a_tolerance(self):
        tolerance_fields = {f.name for f in dataclasses.fields(Tolerances)}
        for kind, (prop, bound) in ACTION_KINDS.items():
            assert prop in PERCEPTUAL_PROPERTIES, kind
            if isinstance(bound, str):
                assert bound in tolerance_fields, kind

    @pytest.mark.parametrize("kind", sorted(ACTION_KINDS))
    def test_every_kind_applies(self, kind):
        scene = table_scene()
        action = AdaptationAction("band", kind, value=1.0, daz_deg=1.0, group="g")
        _, magnitude, why = adapt._apply_one(scene, action)
        assert why is None and magnitude is not None
