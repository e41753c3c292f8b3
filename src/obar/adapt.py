"""Scene adapter: rulebook-driven, tolerance-bounded edits to a scene.

Adaptations are expressed as actions (gain, tilt, reposition, time shift,
decorrelation, reverb scaling, prune, regroup). ACTION_KINDS gives each kind
the perceptual property it trades and the tolerance that bounds it: each
action is clamped to the touched object's editorial tolerances and ordered so
that lower-priority properties are modified first. apply_rules composes
everything over a rulebook and returns a new scene plus a report; the input
scene is never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .context import HighLevelContext, ListenerInfo, estimate_intelligibility, proxy_mixes
from .dsp import OCTAVE_CENTERS_HZ, Directive, apply_directives, object_seed
from .errors import NoDialogueObject, NonPositiveTau, UnknownProperty
from .geometry import Direction3, wrap_azimuth
from .rules import RuleAction, context_namespace, object_namespace
from .scene import (
    LEVEL_DB_MAX,
    LEVEL_DB_MIN,
    EditorialConstraints,
    ObjectType,
    ReverbMetadata,
    Scene,
)

# Intelligibility ladder sizing. The escalation direction is fixed (duck, then
# tilt, then displace and decorrelate); these constants size the steps.
LADDER_STEP_CAP_DB = 6.0
LADDER_SLOPE_DB_PER_DEFICIT = 20.0
LADDER_REPOSITION_DEG_PER_DB = 5.0
LADDER_RESIDUAL_THRESHOLD = 0.05
LADDER_DECORRELATE_AMOUNT = 0.5

PERSONALIZE_DB = 3.0

# Stand-in for an unbounded decay when the room alone already rings longer
# than the production intent.
MAX_TAU_S = 1.0e6

# Each action kind -> (the perceptual property it trades, the Tolerances
# field that bounds its magnitude or a fixed bound). Keys are the only valid
# AdaptationAction kinds.
ACTION_KINDS = {
    "GainOffset": ("level", "level_db"),
    "SpectralTilt": ("level", "spectral_tilt_db"),
    "Reposition": ("position", "position_deg"),
    "TimeShift": ("velocity", "time_shift_ms"),
    "Decorrelate": ("locatedness", 1.0),
    "ReverbTailScale": ("envelopment", "reverb_scale"),
    "Prune": ("scale", math.inf),
    "Regroup": ("scale", math.inf),
}


def _action_kind(kind: str) -> tuple[str, str | float]:
    if kind not in ACTION_KINDS:
        raise UnknownProperty(f"unknown action kind {kind!r}")
    return ACTION_KINDS[kind]


@dataclass(frozen=True)
class AdaptationAction:
    """One adaptation applied to one object.

    value carries the payload for scalar kinds: dB for GainOffset and
    SpectralTilt, milliseconds for TimeShift, a 0..1 amount for Decorrelate,
    a multiplicative factor for ReverbTailScale. Reposition uses the
    (daz_deg, del_deg) pair instead. ReverbTailScale may name a single tail
    band via band_center_hz (None scales every band). reason records the
    rule that requested the action.
    """

    object_id: str
    kind: str
    value: float = 0.0
    daz_deg: float = 0.0
    del_deg: float = 0.0
    group: str | None = None
    band_center_hz: float | None = None
    reason: str = ""


def action_magnitude(action: AdaptationAction) -> float:
    """The size compared against tolerances: |dB|, |ms|, amount, |factor - 1|,
    or the angular displacement norm for Reposition."""
    if action.kind == "Reposition":
        return math.hypot(action.daz_deg, action.del_deg)
    if action.kind == "ReverbTailScale":
        return abs(action.value - 1.0)
    if action.kind in ("Prune", "Regroup"):
        return 0.0
    return abs(action.value)


def tolerance_bound(kind: str, constraints: EditorialConstraints) -> float:
    """The tolerance an action magnitude is held to (inf = unbounded)."""
    _prop, bound = _action_kind(kind)
    return getattr(constraints.tolerances, bound) if isinstance(bound, str) else bound


def _clip(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def clamp_to_tolerances(action: AdaptationAction,
                        constraints: EditorialConstraints) -> AdaptationAction:
    """Clamp an action into the object's editorial tolerances.

    With b = tolerance_bound(kind): gain, tilt and time shift clamp into
    [-b, +b]; Decorrelate amounts into [0, b]; ReverbTailScale factors into
    [1 - b, 1 + b]; Reposition displacement vectors are rescaled so their
    norm fits b. Prune and Regroup pass through.
    """
    kind = action.kind
    bound = tolerance_bound(kind, constraints)
    if kind in ("Prune", "Regroup"):
        return action
    if kind == "Decorrelate":
        return replace(action, value=_clip(action.value, 0.0, bound))
    if kind == "ReverbTailScale":
        value = _clip(action.value, 1.0 - bound, 1.0 + bound)
        # 1 - b need not be representable; walk back until the factor's
        # distance from 1 honors the bound exactly
        while abs(value - 1.0) > bound:
            value = math.nextafter(value, 1.0)
        return replace(action, value=value)
    if kind != "Reposition":
        return replace(action, value=_clip(action.value, -bound, bound))
    norm = math.hypot(action.daz_deg, action.del_deg)
    if norm <= bound or norm == 0.0:
        return action
    s = bound / norm
    daz, dle = action.daz_deg * s, action.del_deg * s
    # rounding in the rescale can leave the norm a few ulp over the bound;
    # shrinking s until it fits keeps the clamp ceiling hard and idempotent
    while math.hypot(daz, dle) > bound:
        s = math.nextafter(s, 0.0)
        daz, dle = action.daz_deg * s, action.del_deg * s
    return replace(action, daz_deg=daz, del_deg=dle)


def resolve_priority(requested,
                     constraints: EditorialConstraints) -> list[AdaptationAction]:
    """Order actions so the most expendable perceptual properties go first.

    constraints.priority_order lists properties most-protected first; the
    result is a stable sort by descending position in that order.
    """
    order = constraints.priority_order

    def rank(action: AdaptationAction) -> int:
        prop, _bound = _action_kind(action.kind)
        if prop not in order:
            raise UnknownProperty(
                f"property {prop!r} not in priority order {order}")
        return -order.index(prop)

    return sorted(requested, key=rank)


# ---------------------------------------------------------------------------
# intelligibility ladder

def _clamped_values(actions, others) -> dict[str, float]:
    """object_id -> each action's value, clamped to its object's tolerances."""
    return {o.object_id: clamp_to_tolerances(a, o.constraints).value
            for a, o in zip(actions, others)}


def _rung_reposition(others, dialogue, step_db, reason):
    dialogue_positions = [d for d in dialogue if d.position is not None]
    actions = []
    for obj in others:
        if obj.position is None:
            continue
        if dialogue_positions:
            nearest = min(
                dialogue_positions,
                key=lambda d: abs(wrap_azimuth(obj.position.az_deg - d.position.az_deg)))
            rel = wrap_azimuth(obj.position.az_deg - nearest.position.az_deg)
        else:
            rel = wrap_azimuth(obj.position.az_deg)
        away = 1.0 if rel >= 0.0 else -1.0
        actions.append(AdaptationAction(
            obj.object_id, "Reposition",
            daz_deg=away * step_db * LADDER_REPOSITION_DEG_PER_DB, reason=reason))
    return actions


def intelligibility_boost(scene: Scene, ctx: HighLevelContext, mixes,
                          window: tuple[int, int],
                          reason: str = "intelligibility_ladder"):
    """Escalating masker adaptations sized by the intelligibility deficit.

    Rung 1 ducks every non-dialogue object by step = min(deficit * 20 dB,
    6 dB). Rung 2 tilts them by -step. Rung 3 moves them away from the
    nearest dialogue azimuth by step * 5 degrees and decorrelates them by
    0.5. Each later rung is emitted only while the rungs before it, clamped
    to each object's tolerances, leave a projected deficit above 0.05.

    The projection scores context.proxy_mixes over the sample range
    window, reading each object's slice of mixes (object_id -> the object's
    mono mix) at its level: the proxy gain of the ducked, then ducked and
    tilted, maskers over the unadapted ones. A tilt filters the slice from
    rest. A mono preview cannot register reposition or decorrelation, so
    rung 3 is one step and the ladder makes at most three proxy scores.
    """
    deficit = ctx.intelligibility_deficit
    if deficit <= 0.0:
        return []
    dialogue = [o for o in scene.objects if o.object_type is ObjectType.DIALOGUE]
    if not dialogue:
        raise NoDialogueObject("the intelligibility ladder needs a dialogue object")
    others = [o for o in scene.objects if o.object_type is not ObjectType.DIALOGUE]
    if not others:
        return []
    step = min(deficit * LADDER_SLOPE_DB_PER_DEFICIT, LADDER_STEP_CAP_DB)
    fs = scene.sample_rate

    def read(obj, gains_db, tilts_db):
        oid = obj.object_id
        sig = mixes[oid][window[0]:window[1]] * 10.0 ** (
            (obj.level_db + gains_db.get(oid, 0.0)) / 20.0)
        tilt = tilts_db.get(oid, 0.0)
        if len(sig) and abs(tilt) > 1e-12:
            sig = apply_directives(sig, [Directive("spectral_tilt", tilt)], fs)
        return sig

    speech, masker = proxy_mixes(scene.objects, lambda o, _n: read(o, {}, {}), window)
    score_before = estimate_intelligibility(speech, masker, fs)

    def residual(gains_db, tilts_db) -> float:
        _, after = proxy_mixes(
            others, lambda o, _n: read(o, gains_db, tilts_db), window)
        gain = estimate_intelligibility(speech, after, fs) - score_before
        return deficit - max(gain, 0.0)

    duck = [AdaptationAction(o.object_id, "GainOffset", -step, reason=reason)
            for o in others]
    gains = _clamped_values(duck, others)
    if residual(gains, {}) <= LADDER_RESIDUAL_THRESHOLD:
        return duck
    tilt = [AdaptationAction(o.object_id, "SpectralTilt", -step, reason=reason)
            for o in others]
    if residual(gains, _clamped_values(tilt, others)) <= LADDER_RESIDUAL_THRESHOLD:
        return duck + tilt
    # a masker without a position is not repositioned, but still decorrelated
    return duck + tilt + _rung_reposition(others, dialogue, step, reason) + [
        AdaptationAction(o.object_id, "Decorrelate", LADDER_DECORRELATE_AMOUNT,
                         reason=reason)
        for o in others]


# ---------------------------------------------------------------------------
# personalization

def _team_role(group: str) -> tuple[str, str]:
    team, _, role = group.partition("_")
    return team, role


def personalize_levels(scene: Scene, listener: ListenerInfo,
                       reason: str = "personalize"):
    """Level offsets favouring the listener's team.

    Group labels follow "<team>" or "<team>_<role>". Groups on the preferred
    team gain +3 dB; groups on a different team sharing a role with some
    preferred group (its opposite number) lose 3 dB. Groups with no preferred
    counterpart are left alone.
    """
    preference = listener.team_preference
    if not preference:
        return []
    preferred_roles = {
        _team_role(o.group)[1] for o in scene.objects
        if o.group and _team_role(o.group)[0] == preference
    }
    actions = []
    for obj in scene.objects:
        if not obj.group:
            continue
        team, role = _team_role(obj.group)
        if team == preference:
            actions.append(AdaptationAction(
                obj.object_id, "GainOffset", PERSONALIZE_DB, reason=reason))
        elif role in preferred_roles:
            actions.append(AdaptationAction(
                obj.object_id, "GainOffset", -PERSONALIZE_DB, reason=reason))
    return actions


# ---------------------------------------------------------------------------
# reverb adaptation

def adapt_reverb(reverb: ReverbMetadata, room_decay_tau_s, target_tau_s):
    """Refit production decay constants so production + room lands on target.

    Exponential envelopes multiply, so decay rates add: the combined constant
    obeys 1/tau_combined = 1/tau_production + 1/tau_room. Solving for the
    production constant that combines with the room to hit the target gives
    tau_p' = tau_t * tau_r / (tau_r - tau_t) when tau_r > tau_t; otherwise the
    room alone already rings past the target, the band is marked infeasible,
    and the constant pins at MAX_TAU_S. room_decay_tau_s and target_tau_s
    align with reverb.tail_bands.

    Returns (new ReverbMetadata, per-band feasibility flags).
    """
    room = tuple(float(t) for t in room_decay_tau_s)
    target = tuple(float(t) for t in target_tau_s)
    bands = reverb.tail_bands
    if len(room) != len(bands) or len(target) != len(bands):
        raise ValueError(
            f"adapt_reverb needs one room and one target decay constant per "
            f"tail band ({len(bands)} bands, {len(room)} room, {len(target)} target)")
    if any(t <= 0.0 for t in room + target) or any(b.decay_tau_s <= 0.0 for b in bands):
        raise NonPositiveTau("decay constants must all be > 0")
    new_bands = []
    feasible = []
    for band, tau_r, tau_t in zip(bands, room, target):
        if tau_r > tau_t:
            tau_p = tau_t * tau_r / (tau_r - tau_t)
            ok = True
        else:
            tau_p = MAX_TAU_S
            ok = False
        new_bands.append(replace(band, decay_tau_s=tau_p))
        feasible.append(ok)
    return replace(reverb, tail_bands=tuple(new_bands)), tuple(feasible)


def room_tau_at(band_centers_hz, room_tau_octaves) -> np.ndarray:
    """Room decay constants interpolated from the octave centres to arbitrary
    band centres (linear in log frequency, edge values held)."""
    taus = np.asarray(room_tau_octaves, dtype=float)
    if len(taus) != len(OCTAVE_CENTERS_HZ):
        raise ValueError(
            f"room decay needs {len(OCTAVE_CENTERS_HZ)} octave values, got {len(taus)}")
    return np.interp(np.log(np.asarray(band_centers_hz, dtype=float)),
                     np.log(np.array(OCTAVE_CENTERS_HZ)), taus)


# ---------------------------------------------------------------------------
# rule application

@dataclass(frozen=True)
class AppliedAction:
    action: AdaptationAction          # as applied, post-clamping
    requested: float                  # magnitude before clamping
    clamped: float                    # magnitude actually applied


@dataclass(frozen=True)
class SkippedAction:
    action: AdaptationAction
    reason: str


@dataclass(frozen=True)
class AdaptationReport:
    """What apply_rules did: applied actions with requested vs clamped
    magnitudes, skipped actions with reasons, and net deltas as
    (object_id, action kind, signed total) records, each total in its kind's
    unit (a Prune counts 1)."""

    applied: tuple[AppliedAction, ...] = ()
    skipped: tuple[SkippedAction, ...] = ()
    deltas: tuple[tuple[str, str, float], ...] = ()


def _expand_direct(template: RuleAction, scene: Scene, rule_id: str):
    return [AdaptationAction(obj.object_id, template.kind, reason=rule_id,
                             **dict(template.params))
            for obj in scene.objects
            if template.select is None
            or template.select.holds(object_namespace(obj))]


def _expand_reverb_fit(scene: Scene, ctx: HighLevelContext, rule_id: str):
    room_octaves = ctx.room_decay_tau_s
    if room_octaves is None:
        return []
    actions = []
    for obj in scene.objects:
        if obj.reverb is None or not obj.reverb.tail_bands:
            continue
        centers = [b.band_center_hz for b in obj.reverb.tail_bands]
        room = room_tau_at(centers, room_octaves)
        target = [b.decay_tau_s for b in obj.reverb.tail_bands]
        refit, _feasible = adapt_reverb(obj.reverb, room, target)
        for band, new_band in zip(obj.reverb.tail_bands, refit.tail_bands):
            actions.append(AdaptationAction(
                obj.object_id, "ReverbTailScale",
                value=new_band.decay_tau_s / band.decay_tau_s,
                band_center_hz=band.band_center_hz, reason=rule_id))
    return actions


def _expand(template: RuleAction, scene: Scene, ctx: HighLevelContext,
            rule_id: str, mixes, window):
    if template.kind == "intelligibility_ladder":
        return intelligibility_boost(scene, ctx, mixes, window, reason=rule_id)
    if template.kind == "personalize":
        return personalize_levels(scene, ctx.listener, reason=rule_id)
    if template.kind == "reverb_fit":
        return _expand_reverb_fit(scene, ctx, rule_id)
    return _expand_direct(template, scene, rule_id)


def _apply_one(scene: Scene, action: AdaptationAction):
    """Apply one clamped action. Returns (scene, applied magnitude or None,
    skip reason or None)."""
    try:
        obj = scene.object_by_id(action.object_id)
    except KeyError:
        return scene, None, "object not in scene"
    kind = action.kind
    if kind == "Prune":
        return scene.with_objects(
            o for o in scene.objects if o.object_id != action.object_id), 0.0, None
    if kind == "GainOffset":
        new_level = _clip(obj.level_db + action.value, LEVEL_DB_MIN, LEVEL_DB_MAX)
        applied = new_level - obj.level_db
        new_obj = replace(obj, level_db=new_level)
    elif kind == "SpectralTilt":
        new_obj = replace(obj, directives=obj.directives + (
            Directive("spectral_tilt", action.value),))
        applied = action.value
    elif kind == "TimeShift":
        new_obj = replace(obj, directives=obj.directives + (
            Directive("time_shift", action.value),))
        applied = action.value
    elif kind == "Decorrelate":
        new_obj = replace(obj, directives=obj.directives + (
            Directive("decorrelate", action.value, seed=object_seed(obj.object_id)),))
        applied = action.value
    elif kind == "Reposition":
        if obj.position is None:
            return scene, None, "object has no position"
        pos = obj.position
        new_obj = replace(obj, position=Direction3(
            wrap_azimuth(pos.az_deg + action.daz_deg),
            _clip(pos.el_deg + action.del_deg, -90.0, 90.0),
            pos.distance_m))
        applied = action_magnitude(action)
    elif kind == "ReverbTailScale":
        if obj.reverb is None or not obj.reverb.tail_bands:
            return scene, None, "object has no reverb tail"
        bands = tuple(
            replace(b, decay_tau_s=b.decay_tau_s * action.value)
            if action.band_center_hz is None
            or abs(b.band_center_hz - action.band_center_hz) < 1e-9 else b
            for b in obj.reverb.tail_bands)
        new_obj = replace(obj, reverb=replace(obj.reverb, tail_bands=bands))
        applied = action.value - 1.0
    elif kind == "Regroup":
        new_obj = replace(obj, group=action.group)
        applied = 0.0
    else:
        raise UnknownProperty(f"unknown action kind {kind!r}")
    objects = tuple(new_obj if o.object_id == action.object_id else o
                    for o in scene.objects)
    return scene.with_objects(objects), applied, None


def apply_rules(scene: Scene, ctx: HighLevelContext, rulebook, mixes,
                window: tuple[int, int]):
    """Evaluate a rulebook against a scene and apply the fired actions.

    Rules run in book order and later rules see the already-adapted scene.
    Each fired rule's actions are ordered by resolve_priority per object,
    clamped to that object's tolerances, then applied; metadata edits land
    directly and signal edits become deferred directives on the object.
    The intelligibility ladder previews mixes (object_id -> mono mix) over
    the sample range window. Returns (adapted scene, AdaptationReport); the
    input scene is untouched.
    """
    adapted = scene
    applied: list[AppliedAction] = []
    skipped: list[SkippedAction] = []
    deltas: dict[tuple[str, str], float] = {}
    for rule in rulebook:
        if not rule.when.holds(context_namespace(ctx, adapted)):
            continue
        requested: list[AdaptationAction] = []
        for template in rule.actions:
            try:
                requested.extend(_expand(template, adapted, ctx, rule.rule_id,
                                         mixes, window))
            except NoDialogueObject as exc:
                skipped.append(SkippedAction(
                    AdaptationAction("", template.kind, reason=rule.rule_id), str(exc)))
        by_object: dict[str, list[AdaptationAction]] = {}
        for action in requested:
            by_object.setdefault(action.object_id, []).append(action)
        for object_id, actions in by_object.items():
            try:
                constraints = adapted.object_by_id(object_id).constraints
            except KeyError:
                for action in actions:
                    skipped.append(SkippedAction(action, "object not in scene"))
                continue
            for action in resolve_priority(actions, constraints):
                clamped = clamp_to_tolerances(action, constraints)
                adapted, magnitude, why = _apply_one(adapted, clamped)
                if why is not None:
                    skipped.append(SkippedAction(clamped, why))
                    continue
                applied.append(AppliedAction(
                    action=clamped,
                    requested=action_magnitude(action),
                    clamped=abs(magnitude),
                ))
                key = (object_id, clamped.kind)
                deltas[key] = deltas.get(key, 0.0) + (
                    magnitude if clamped.kind != "Prune" else 1.0)
    report = AdaptationReport(
        applied=tuple(applied),
        skipped=tuple(skipped),
        deltas=tuple((oid, kind, total) for (oid, kind), total in deltas.items()),
    )
    return adapted, report
