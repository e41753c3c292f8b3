"""Block-based rendering loop: scene in, multichannel speaker file out.

Every context interval the engine re-measures the listening conditions,
re-derives the adaptation from the pristine scene, and re-routes objects to
renderers; between updates it streams fixed-size blocks through per-object
renderer lanes. A routing change starts a timed crossfade between the old
and new lane; metadata-only changes (levels, positions, directives) step at
the block boundary instead.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .adapt import apply_rules
from .context import (
    MIN_NOISE_BLOCK,
    ContextTracker,
    Monitoring,
    band_snr_score,
    build_scenario,
    noise_at,
    parse_scenario,
)
from .dsp import (
    BLOCK_SIZE,
    DEFAULT_SEED,
    apply_directives,
    octave_band_levels,
    power_sum_db,
    rms_db,
)
from .errors import JobError
from .renderers import DrivingFunction, new_render_state, render_block
from .routing import DEFAULT_CROSSFADE_S, BandFractions, build_drive, route
from .rules import (
    default_rulebook,
    default_selection_rules,
    load_rulebook,
    load_selection_rules,
)
from .scene import ObjectType, Scene, mono_mix, parse_scene
from .wavio import write_wav

CONTEXT_INTERVAL_S = 2.0
REPORT_SCHEMA_VERSION = "render-report v1"
METRICS_HEADER = ("t_s", "metric", "value")


@dataclass(frozen=True)
class RenderJob:
    """One rendering run: input documents, output target, and options.

    rulebook_path / selection_path fall back to the built-in defaults when
    None; report and metrics paths default to out_path + ".report.json" and
    out_path + ".metrics.csv".
    """

    scene_path: str
    scenario_path: str
    out_path: str
    rulebook_path: str | None = None
    selection_path: str | None = None
    report_path: str | None = None
    metrics_path: str | None = None
    block_size: int = BLOCK_SIZE
    crossfade_s: float = DEFAULT_CROSSFADE_S
    seed: int = DEFAULT_SEED
    listener_id: str | None = None


@dataclass
class RenderResult:
    out_path: str
    report_path: str
    metrics_path: str
    report: dict
    output: np.ndarray
    sample_rate: int


# ---------------------------------------------------------------------------
# per-object lanes

def _gains_only(drive: DrivingFunction) -> bool:
    return not drive.firs and not np.any(np.asarray(drive.delays_s))


class _Lane:
    """Streaming render state for one object.

    Holds the live driving function plus, during a crossfade, the outgoing
    one. Source is the directive-processed mono signal; gain is the linear
    object level applied at mix time.
    """

    def __init__(self, assignment, drive, source, gain):
        self.assignment = assignment
        self.drive = drive
        self.state = new_render_state(drive)
        self.source = source
        self.gain = gain
        self.old = None  # (drive, state, source, gain) while fading out
        self.fade_start_s = 0.0
        self.fade_end_s = 0.0
        self.fade_coherent = True

    def begin_fade(self, assignment, drive, source, gain, start_s, duration_s):
        # A change arriving mid-fade snaps the previous fade to its endpoint.
        self.old = (self.drive, self.state, self.source, self.gain)
        # Two gain-only drives carry the same waveform, so amplitudes may sum;
        # anything with delays or filters mixes power-complementarily instead.
        self.fade_coherent = _gains_only(self.drive) and _gains_only(drive)
        self.fade_start_s = start_s
        self.fade_end_s = start_s + duration_s
        self.assignment = assignment
        self.drive = drive
        self.state = new_render_state(drive)
        self.source = source
        self.gain = gain

    def update(self, assignment, drive, source, gain):
        self.assignment = assignment
        if drive.fingerprint() != self.drive.fingerprint():
            # Same renderer, new parameters: step at the block boundary.
            self.drive = drive
            self.state = new_render_state(drive)
        self.source = source
        self.gain = gain


# ---------------------------------------------------------------------------
# signal bookkeeping

def _object_sources(scene: Scene, cache: dict) -> dict:
    """object_id -> (processed mono signal, linear mix gain).

    Directive processing is cached on (id, directives): adaptation usually
    repeats between context updates, so each distinct edit chain filters the
    stem once per run.
    """
    out = {}
    for obj in scene.objects:
        key = (obj.object_id, obj.directives)
        if key not in cache:
            base = mono_mix(obj)
            cache[key] = (
                apply_directives(base, obj.directives, scene.sample_rate)
                if obj.directives else base
            )
        out[obj.object_id] = (cache[key], 10.0 ** (obj.level_db / 20.0))
    return out


def _segment(source: np.ndarray, t0: int, n: int) -> np.ndarray:
    seg = source[t0 : t0 + n]
    if len(seg) < n:
        seg = np.concatenate([seg, np.zeros(n - len(seg))])
    return seg


def _interval_proxy(scene, sources, t0, t1, noise, sample_rate):
    """Proxy intelligibility of the dialogue mix over [t0, t1) against the
    remaining objects plus ambient noise; None when the scene has no
    dialogue. Level gains are part of the mix, so ducking moves the score."""
    n = max(t1 - t0, MIN_NOISE_BLOCK)
    speech = np.zeros(n)
    masker = np.zeros(n)
    has_dialogue = False
    for obj in scene.objects:
        source, gain = sources[obj.object_id]
        seg = _segment(source, t0, n) * gain
        if obj.object_type is ObjectType.DIALOGUE:
            has_dialogue = True
            speech += seg
        else:
            masker += seg
    if not has_dialogue:
        return None
    masker_bands = octave_band_levels(masker, sample_rate)
    combined = [
        power_sum_db((m, nz))
        for m, nz in zip(masker_bands, noise.band_levels_db)
    ]
    return band_snr_score(octave_band_levels(speech, sample_rate), combined)


def _promote_listener(listeners, listener_id):
    """Move the named listener into the dominant (first) slot."""
    if listener_id is None:
        return listeners
    for i, listener in enumerate(listeners):
        if listener.listener_id == listener_id:
            return (listeners[i],) + listeners[:i] + listeners[i + 1 :]
    known = ", ".join(l.listener_id for l in listeners)
    raise JobError(f"listener {listener_id!r} not in scenario (has: {known})")


# ---------------------------------------------------------------------------
# the run

def run_render(job: RenderJob) -> RenderResult:
    wall_start = time.perf_counter()
    if int(job.block_size) <= 0:
        raise JobError(f"options.block_size must be >= 1, got {job.block_size}")
    if job.crossfade_s <= 0.0:
        raise JobError(f"options.crossfade_s must be > 0, got {job.crossfade_s}")

    scene = parse_scene(job.scene_path)
    layout, listeners, environment, timeline = parse_scenario(job.scenario_path)
    listeners = _promote_listener(listeners, job.listener_id)
    rulebook = (load_rulebook(job.rulebook_path)
                if job.rulebook_path else default_rulebook())
    selection = (load_selection_rules(job.selection_path)
                 if job.selection_path else default_selection_rules())

    fs = scene.sample_rate
    n_total = scene.duration_samples
    if n_total <= 0:
        raise JobError("scene.objects carry no audio samples to render")
    block = int(job.block_size)
    interval = int(round(CONTEXT_INTERVAL_S * fs))
    n_blocks = math.ceil(n_total / block)

    # Geometry is fixed for the run; only the noise state changes, so the
    # channel order pinned here matches every per-interval scenario below.
    scenario0 = build_scenario(layout, listeners, environment)
    chan_index = {s.speaker_id: i for i, s in enumerate(scenario0.layout.speakers)}
    n_channels = len(scenario0.layout.speakers)
    # Stems are fixed for the run, so each object's band analysis is too.
    band_fractions = BandFractions.for_speakers(scenario0.layout.speakers)

    tracker = ContextTracker()
    cache: dict = {}
    lanes: dict[str, _Lane] = {}
    prev_assign: dict = {}
    intervals: list[dict] = []
    interval_spans: list[tuple[float, int]] = []
    out = np.zeros((n_blocks * block, n_channels))
    next_update = 0

    for b in range(n_blocks):
        t0 = b * block
        if t0 >= next_update:
            t_s = t0 / fs
            noise = noise_at(timeline, t_s)
            window = (t0, min(t0 + interval, max(n_total, t0 + block)))

            # Measure on the pristine mix so the adaptation derived from it
            # is a fixed point: the same noise always yields the same deficit
            # and hence the same actions, with no duck/release oscillation.
            pristine_sources = _object_sources(scene, cache)
            measured = _interval_proxy(
                scene, pristine_sources, window[0], window[1], noise, fs)

            scenario = build_scenario(layout, listeners, environment, noise=noise)
            ctx = tracker.update(
                scenario, scene,
                Monitoring(noise=noise, intelligibility=measured))
            adapted, adapt_report = apply_rules(
                scene, ctx, rulebook, preview_window=window)
            assignments, schedules = route(
                adapted, scenario, ctx, selection,
                previous=prev_assign, now_s=t_s, crossfade_s=job.crossfade_s,
                band_fractions=band_fractions)
            prev_assign = {a.object_id: a for a in assignments}

            adapted_sources = _object_sources(adapted, cache)
            projected = _interval_proxy(
                adapted, adapted_sources, window[0], window[1], noise, fs)

            fading = {s.object_id: s for s in schedules}
            for assignment in assignments:
                oid = assignment.object_id
                obj = adapted.object_by_id(oid)
                source, gain = adapted_sources[oid]
                drive = build_drive(assignment, scenario.layout, obj, fs)
                lane = lanes.get(oid)
                if lane is None:
                    lanes[oid] = _Lane(assignment, drive, source, gain)
                elif oid in fading:
                    lane.begin_fade(assignment, drive, source, gain,
                                    start_s=t_s,
                                    duration_s=fading[oid].duration_s)
                else:
                    lane.update(assignment, drive, source, gain)
            live = {a.object_id for a in assignments}
            for oid in list(lanes):
                if oid not in live:  # pruned objects stop at the boundary
                    del lanes[oid]

            intervals.append(_interval_record(
                t_s, noise, ctx, measured, projected,
                assignments, adapt_report, schedules))
            interval_spans.append((t_s, t0))
            next_update += interval

        times = (t0 + np.arange(block)) / fs
        for lane in lanes.values():
            seg = _segment(lane.source, t0, block) * lane.gain
            rendered = render_block(seg, lane.drive, lane.state)
            cols = [chan_index[sid] for sid in lane.drive.speaker_ids]
            if lane.old is None:
                out[t0 : t0 + block, cols] += rendered
                continue
            p = np.clip(
                (times - lane.fade_start_s)
                / (lane.fade_end_s - lane.fade_start_s), 0.0, 1.0)
            w_new = p if lane.fade_coherent else np.sqrt(p)
            w_old = (1.0 - p) if lane.fade_coherent else np.sqrt(1.0 - p)
            out[t0 : t0 + block, cols] += rendered * w_new[:, None]
            old_drive, old_state, old_source, old_gain = lane.old
            old_seg = _segment(old_source, t0, block) * old_gain
            old_rendered = render_block(old_seg, old_drive, old_state)
            old_cols = [chan_index[sid] for sid in old_drive.speaker_ids]
            out[t0 : t0 + block, old_cols] += old_rendered * w_old[:, None]
            if times[-1] >= lane.fade_end_s:
                lane.old = None

    out = out[:n_total]
    if not np.all(np.isfinite(out)):
        raise JobError("rendered output contains non-finite samples")

    metrics = _metric_rows(intervals, interval_spans, out, interval, n_channels)
    report = {
        "schema": REPORT_SCHEMA_VERSION,
        "scene": os.path.abspath(job.scene_path),
        "scenario": os.path.abspath(job.scenario_path),
        "sample_rate": fs,
        "duration_samples": n_total,
        "block_size": block,
        "crossfade_s": job.crossfade_s,
        "seed": job.seed,
        "listener": listeners[0].listener_id,
        "channels": [s.speaker_id for s in scenario0.layout.speakers],
        "intervals": intervals,
        "timing": {"render_s": round(time.perf_counter() - wall_start, 6)},
    }

    report_path = job.report_path or job.out_path + ".report.json"
    metrics_path = job.metrics_path or job.out_path + ".metrics.csv"
    write_wav(job.out_path, fs, out)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for t_s, name, value in metrics:
            writer.writerow([f"{t_s:.6f}", name, f"{value:.6f}"])

    return RenderResult(
        out_path=job.out_path, report_path=report_path,
        metrics_path=metrics_path, report=report,
        output=out, sample_rate=fs)


def _interval_record(t_s, noise, ctx, measured, projected,
                     assignments, adapt_report, schedules) -> dict:
    high = ctx.high_level
    return {
        "t_s": round(t_s, 6),
        "noise_broadband_db": round(noise.broadband_db(), 6),
        "noise_delta_db": round(high.noise_delta_db, 6),
        "measured_intelligibility": None if measured is None else round(measured, 6),
        "projected_intelligibility": None if projected is None else round(projected, 6),
        "intelligibility_deficit": round(high.intelligibility_deficit, 6),
        "assignments": [
            {
                "object_id": a.object_id,
                "renderer": a.renderer.label(),
                "speakers": list(a.speaker_subset),
                "subset": a.param("subset_kind", "all"),
            }
            for a in assignments
        ],
        "adaptation": {
            "applied": [
                {
                    "object_id": ap.action.object_id,
                    "kind": ap.action.kind,
                    "requested": round(ap.requested, 6),
                    "clamped": round(ap.clamped, 6),
                    "reason": ap.action.reason,
                }
                for ap in adapt_report.applied
            ],
            "skipped": [
                {
                    "object_id": sk.action.object_id,
                    "kind": sk.action.kind,
                    "reason": sk.reason,
                }
                for sk in adapt_report.skipped
            ],
            "deltas": [
                {"object_id": oid, "property": prop, "total": total}
                for oid, prop, total in adapt_report.deltas
            ],
        },
        "crossfades": [
            {
                "object_id": s.object_id,
                "from": s.old.renderer.label(),
                "to": s.new.renderer.label(),
                "start_s": s.start_s,
                "duration_s": s.duration_s,
            }
            for s in schedules
        ],
    }


def _metric_rows(intervals, interval_spans, out, interval, n_channels):
    """Flatten per-interval metrics, ordered by time then metric name."""
    rows = []
    for record, (t_s, t0) in zip(intervals, interval_spans):
        rows.append((t_s, "noise_broadband_db", record["noise_broadband_db"]))
        if record["measured_intelligibility"] is not None:
            rows.append((t_s, "intelligibility_proxy",
                         record["measured_intelligibility"]))
        if record["projected_intelligibility"] is not None:
            rows.append((t_s, "intelligibility_projected",
                         record["projected_intelligibility"]))
        rows.append((t_s, "intelligibility_deficit",
                     record["intelligibility_deficit"]))
        t1 = min(t0 + interval, len(out))
        for i in range(n_channels):
            rows.append((t_s, f"rms_db_ch{i}", rms_db(out[t0:t1, i])))
    return rows
