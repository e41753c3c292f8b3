"""Object router: per-object renderer selection and its feasibility.

Selection walks an ordered table of (match, renderer) rows and takes the first
row whose predicate holds and whose driving function can actually be built on
the resolved speaker subset; the final row assigns nearest-speaker panning, so
every object always gets a renderer. _candidate is the one statement of what a
row can realize: selection asks it row by row, and feasibility (what `obar
probe` prints) asks it once per renderer kind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import HighLevelContext, ReproductionScenario, SpeakerLayout
from .dsp import DEFAULT_SAMPLE_RATE
from .errors import (
    NotBracketed,
    ObarError,
    RankDeficient,
    SourceInsideArray,
    TooFewSpeakers,
)
from .geometry import Direction3, wrap_azimuth
from .renderclass import RendererClass, RendererKind
from .renderers import (
    PM_BETA_DEFAULT,
    DrivingFunction,
    PMDesign,
    ambi_encode,
    ambi_mm_decode,
    diffuse_gains,
    nearest_speaker_gains,
    pm_filters,
    vbap_gains,
    wfs_drive,
)
from .rules import (
    SelectionRule,
    compile_expression,
    context_namespace,
    object_namespace,
)
from .scene import AudioObject, Scene

MAX_AMBI_ORDER = 3
WFS_MAX_GAP_M = 0.5
WFS_MIN_SPEAKERS = 4
BACKDROP_MIN_ABS_AZ_DEG = 90.0
BAND_LIMIT_POWER_FRACTION = 1e-3      # -30 dB of mono-mix energy below a speaker's low edge
PM_ZONE_RADIUS_M = 0.15
PM_ZONE_POINTS = 8
PM_DESIGN_MEMO_SIZE = 64


@dataclass(frozen=True)
class RendererAssignment:
    """One object's renderer and speakers. subset_kind names the selection
    row's subset rule the speakers came from; it is "all" for the AP1
    backstop and when a row's subset had too few distinct azimuths for the
    ambisonic order and the whole band-capable layout stood in."""

    object_id: str
    renderer: RendererClass
    speaker_subset: tuple[str, ...]
    subset_kind: str = "all"


# ---------------------------------------------------------------------------
# feasibility

def wfs_segment(layout: SpeakerLayout) -> tuple[str, ...] | None:
    """Longest contiguous run of speakers with neighbour spacing <= 0.5 m.

    Speakers are walked in azimuth order (circularly); a run needs at least
    four speakers to support wavefront synthesis.
    """
    speakers = sorted(layout.speakers, key=lambda s: s.position.az_deg)
    count = len(speakers)
    if count < WFS_MIN_SPEAKERS:
        return None
    pts = [np.array(s.position.cartesian()) for s in speakers]
    gap_ok = [float(np.linalg.norm(pts[i] - pts[(i + 1) % count])) <= WFS_MAX_GAP_M
              for i in range(count)]
    if all(gap_ok):
        return tuple(s.speaker_id for s in speakers)
    # open the circle at a bad gap and scan linear runs
    start = (gap_ok.index(False) + 1) % count
    ordered = [(start + i) % count for i in range(count)]
    best: list[int] = []
    run = [ordered[0]]
    for idx in range(count - 1):
        a = ordered[idx]
        if gap_ok[a]:
            run.append(ordered[idx + 1])
        else:
            if len(run) > len(best):
                best = run
            run = [ordered[idx + 1]]
    if len(run) > len(best):
        best = run
    if len(best) < WFS_MIN_SPEAKERS:
        return None
    return tuple(speakers[i].speaker_id for i in best)


def _distinct_azimuths(speakers) -> int:
    return len({wrap_azimuth(s.position.az_deg) for s in speakers})


def max_ambi_order(speakers) -> int:
    """Highest 2-D ambisonic order the speakers carry, at most MAX_AMBI_ORDER:
    order N needs 2N+1 distinct azimuths (stacked speakers count once)."""
    return min((_distinct_azimuths(speakers) - 1) // 2, MAX_AMBI_ORDER)


def feasibility(layout: SpeakerLayout,
                obj: AudioObject) -> dict[str, RendererAssignment | ObarError]:
    """Renderer kind name -> the assignment a selection row of that kind on
    subset "all" (mode matching at order "highest") realizes for this object
    on this layout, or the ObarError that says why it cannot. Each row goes
    through _candidate, as in selection, with no stem energy below any
    speaker's low edge and at DEFAULT_SAMPLE_RATE."""
    no_low_energy = {s.bandwidth_hz.low_hz: 0.0 for s in layout.speakers}
    results: dict = {}
    for kind in RendererKind:
        try:
            results[kind.value] = _candidate(
                _all_row(kind), layout, obj, None, no_low_energy,
                DEFAULT_SAMPLE_RATE)
        except ObarError as exc:
            results[kind.value] = exc
    return results


# ---------------------------------------------------------------------------
# speaker subsets

def _below_edge_fractions(samples: np.ndarray, sample_rate: int, edges_hz) -> dict:
    """edge Hz -> fraction of the signal's energy below it, from one spectrum."""
    if len(samples) == 0:
        return {edge: 0.0 for edge in edges_hz}
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    total = float(np.sum(spectrum))
    if total <= 0.0:
        return {edge: 0.0 for edge in edges_hz}
    freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
    return {edge: float(np.sum(spectrum[freqs < edge])) / total for edge in edges_hz}


def band_table(mixes: dict, speakers, sample_rate: int) -> dict:
    """object id -> {speaker low edge Hz: fraction of the object's mono-mix
    energy below it}, from one transform per mix (mixes maps object id to
    mono mix). Stems are fixed for a render, so one table serves it."""
    edges = sorted({float(s.bandwidth_hz.low_hz) for s in speakers})
    return {oid: _below_edge_fractions(mix, sample_rate, edges)
            for oid, mix in mixes.items()}


def band_capable_subset(speakers, band_fractions: dict):
    """Drop speakers whose low edge cuts into significant mono-mix energy.

    band_fractions is the object's row of band_table and covers every
    speaker's low edge. If every speaker would be dropped the full subset
    is restored (a bad speaker beats silence).
    """
    speakers = list(speakers)
    kept = [s for s in speakers
            if band_fractions[s.bandwidth_hz.low_hz] <= BAND_LIMIT_POWER_FRACTION]
    return kept if kept else speakers


def _resolve_subset(rule_subset: str, layout: SpeakerLayout,
                    nearest_device: str | None, band_fractions: dict):
    speakers = list(layout.speakers)
    if rule_subset == "nearest_device" and nearest_device is not None:
        return [layout.by_id(nearest_device)]
    if rule_subset == "backdrop":
        backdrop = [s for s in speakers
                    if abs(s.position.az_deg) > BACKDROP_MIN_ABS_AZ_DEG]
        if backdrop:
            speakers = backdrop
    return band_capable_subset(speakers, band_fractions)


def pm_control_points() -> tuple[Direction3, ...]:
    """Control zone: a small ring around the listening origin."""
    return tuple(
        Direction3(((360.0 * i / PM_ZONE_POINTS + 180.0) % 360.0) - 180.0,
                   0.0, PM_ZONE_RADIUS_M)
        for i in range(PM_ZONE_POINTS))


@functools.lru_cache(maxsize=PM_DESIGN_MEMO_SIZE)
def pm_design(speaker_dirs: tuple[Direction3, ...], source: Direction3,
              sample_rate: int) -> PMDesign:
    """Pressure-matching filters over the pm_control_points() zone, solved
    at PM_BETA_DEFAULT.

    Memoised on (speaker directions, source position, sample rate), the
    whole input of the solve, so a geometry that repeats across
    intervals and trial builds is solved once. Designs are shared, so their
    arrays are read-only; errors are raised again on every call, never
    cached. Each miss calls pm_filters through this module's global name.
    """
    design = pm_filters(speaker_dirs, pm_control_points(), source,
                        beta=PM_BETA_DEFAULT, sample_rate=sample_rate)
    for array in (design.freqs, design.spectra, design.firs, design.align_delays_s):
        array.flags.writeable = False
    return design


# ---------------------------------------------------------------------------
# driving functions

def _object_direction(obj: AudioObject) -> Direction3:
    return obj.position if obj.position is not None else Direction3(0.0)


def build_drive(assignment: RendererAssignment, layout: SpeakerLayout,
                obj: AudioObject, sample_rate: int) -> DrivingFunction:
    """Realize an assignment as per-speaker gains/delays/filters."""
    speakers = [layout.by_id(sid) for sid in assignment.speaker_subset]
    dirs = [s.position for s in speakers]
    n = len(speakers)
    kind = assignment.renderer.kind
    gains = np.ones(n)
    delays = np.zeros(n)
    firs: tuple = ()

    if kind is RendererKind.AP1_NEAREST:
        gains = nearest_speaker_gains(dirs, _object_direction(obj))
    elif kind is RendererKind.AP3_VBAP:
        if obj.position is None:
            raise NotBracketed("panning needs an object position")
        gains = vbap_gains(dirs, obj.position)
    elif kind is RendererKind.AMBI_MM:
        order = assignment.renderer.order or 1
        decode = ambi_mm_decode(dirs, order)
        gains = decode @ ambi_encode(_object_direction(obj), order)
        norm = float(np.linalg.norm(gains))
        if norm <= 0.0:
            raise NotBracketed("mode-matched gains vanished")
        gains = gains / norm
    elif kind is RendererKind.WFS_GAIN_DELAY:
        if obj.position is None:
            raise SourceInsideArray("wavefront synthesis needs an object position")
        gains, delays = wfs_drive(dirs, obj.position)
    elif kind is RendererKind.PM_SINGLE_ZONE:
        if obj.position is None or obj.position.distance_m is None:
            raise SourceInsideArray("pressure matching needs a source distance")
        design = pm_design(tuple(dirs), obj.position, sample_rate)
        # calibrate so the reproduced zone pressure sits at stem level
        scale = 4.0 * math.pi * float(obj.position.distance_m)
        firs = tuple(f * scale for f in design.firs)
        delays = np.array(design.align_delays_s, dtype=float)
        if delays.min() < 0.0:
            delays -= delays.min()
    elif kind is RendererKind.DIFFUSE:
        gains, firs = diffuse_gains(n)
    else:  # pragma: no cover - enum is closed
        raise ObarError(f"unhandled renderer kind {kind}")

    return DrivingFunction(
        speaker_ids=assignment.speaker_subset,
        gains=np.asarray(gains, dtype=float),
        delays_s=np.asarray(delays, dtype=float),
        firs=firs,
        sample_rate=sample_rate,
    )


# ---------------------------------------------------------------------------
# selection

def _candidate(rule: SelectionRule, layout: SpeakerLayout, obj: AudioObject,
               nearest_device: str | None, band_fractions: dict,
               sample_rate: int) -> RendererAssignment:
    """The assignment this row realizes for obj, after one build of its
    drive, or the ObarError that says why the row cannot be realized. Mode
    matching falls back to the whole band-capable layout when the subset has
    too few distinct azimuths for the order; at order "highest" it steps
    down from the order the distinct azimuths allow to the first one whose
    decode is not rank deficient."""
    subset = _resolve_subset(rule.subset, layout, nearest_device, band_fractions)
    kind = RendererKind(rule.renderer)
    subset_kind = rule.subset
    order = None
    highest = False
    if kind is RendererKind.AMBI_MM:
        highest = rule.order in ("highest", None)
        order = max(max_ambi_order(subset), 1) if highest else int(rule.order)
        if _distinct_azimuths(subset) < 2 * order + 1:
            subset = band_capable_subset(layout.speakers, band_fractions)
            subset_kind = "all"
            order = max(max_ambi_order(subset), 1) if highest else order
        distinct = _distinct_azimuths(subset)
        if distinct < 2 * order + 1:
            raise TooFewSpeakers(
                f"order {order} needs {2 * order + 1} speakers at distinct "
                f"azimuths, layout has {distinct}")
    elif kind is RendererKind.WFS_GAIN_DELAY:
        segment = wfs_segment(SpeakerLayout(tuple(subset)))
        if segment is None:
            raise TooFewSpeakers(
                f"needs {WFS_MIN_SPEAKERS} speakers, layout has {len(subset)}"
                if len(subset) < WFS_MIN_SPEAKERS else
                f"no contiguous run of {WFS_MIN_SPEAKERS}+ speakers spaced "
                f"<= {WFS_MAX_GAP_M} m")
        by_id = {s.speaker_id: s for s in subset}
        subset = [by_id[sid] for sid in segment]

    while True:
        assignment = RendererAssignment(
            object_id=obj.object_id,
            renderer=RendererClass(kind, order),
            speaker_subset=tuple(s.speaker_id for s in subset),
            subset_kind=subset_kind,
        )
        try:
            build_drive(assignment, layout, obj, sample_rate)
            return assignment
        except RankDeficient:
            if not highest or order == 1:
                raise
            order -= 1


def _all_row(kind: RendererKind) -> SelectionRule:
    """A row that always holds and asks for kind on every speaker, mode
    matching at the highest order."""
    return SelectionRule(
        match=compile_expression("true"),
        renderer=kind.value,
        order="highest" if kind is RendererKind.AMBI_MM else None,
        subset="all",
    )


def select_renderer(obj: AudioObject, layout: SpeakerLayout,
                    nearest_device: str | None, selection_rules, namespace,
                    sample_rate: int, band_fractions: dict) -> RendererAssignment:
    """First workable row of the selection table wins; AP1 backstops.

    band_fractions is the object's row of band_table.
    """
    rules = list(selection_rules)
    preferred = obj.advanced.preferred_renderer
    if preferred:
        rules.insert(0, _all_row(RendererKind(preferred)))
    ns = dict(namespace)
    ns.update(object_namespace(obj))
    for rule in rules:
        if not rule.match.holds(ns):
            continue
        try:
            return _candidate(rule, layout, obj, nearest_device, band_fractions,
                              sample_rate)
        except ObarError:
            pass
    return RendererAssignment(
        object_id=obj.object_id,
        renderer=RendererClass(RendererKind.AP1_NEAREST),
        speaker_subset=tuple(layout.ids()),
    )


def route(scene: Scene, scenario: ReproductionScenario, ctx: HighLevelContext,
          selection_rules, bands: dict):
    """Assign one renderer per object; returns the assignments ordered by
    object_id.

    bands is the run's band_table for this layout, with a row for every
    object of the scene.
    """
    shared_ns = context_namespace(ctx, scene)
    return [
        select_renderer(obj, scenario.layout, ctx.nearest_device, selection_rules,
                        shared_ns, scene.sample_rate, bands[obj.object_id])
        for obj in sorted(scene.objects, key=lambda o: o.object_id)
    ]
