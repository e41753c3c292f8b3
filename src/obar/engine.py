"""Block-based rendering loop: scene in, multichannel speaker file out.

The engine decides, then mixes. Every context interval a plan (_plans)
re-measures the listening conditions, re-derives the adaptation from the
pristine scene, re-routes objects to renderers and builds their drives; it
records a crossfade for each object whose assignment or drive differs from
the previous plan's, and that object carries its outgoing chain (its tail).
The plan is the mixer's only input, in samples: from the plan's first
sample, the first block at or after the interval's boundary, the mixer
(_render_blocks) fades each object with a tail from the old drive to the
new one over the length the plan gives it, crossfade_s * fs samples, and
changes that leave the drive as it was (levels, directives) step there
instead. Stems are fixed for the run, so before the first plan the engine
mixes each object to mono once, and it analyses each mix's band energy once
(routing.band_table), on the mixing worker while plan 0 is decided.

Between updates the engine streams fixed-size blocks through per-object
renderer lanes, mixing a span of whole blocks per pass (_mix_block). A span
ends at the first of: the block before the next update, the block holding
the end of a running fade (after which the outgoing drive is dropped), and
SPAN_SAMPLES. Every renderer takes the span's K blocks as K x block frames
and gives the samples it would give those blocks one by one, so the span
length does not change the output. Each span mixes in three parts. Steady
filtered lanes (pressure matching, diffuse, WFS: FIRs and delays folded
into taps) sum their output spectra per block and channel and share one
inverse transform; steady gain-only lanes (VBAP, AmbiMM, AP1) are one
matrix product of their mono segments and channel gain rows; fading lanes
render one by one, because a fade weighs each sample after the filter.

An adapted object's directive chain (tilt, time shift, decorrelation) is
filtered only over the window its lanes read, started early enough for the
filters to settle (dsp.directive_margins): each plan filters its chains
over its own interval, and the plan that starts a crossfade filters the
outgoing lane's chain, from the previous plan, over the fade. A plan is
handed to the mixer as soon as it is decided, a window is dropped once no
lane reads it, and objects without directives read their stems in place.

Deciding and mixing overlap. The render's thread decides every plan and
mixes every span in which a fade runs. The render's one mixing worker first
builds the band table while the render's thread measures, adapts and
filters plan 0's chains, and plan 0's route waits for it; then the steady
spans that end an interval go to the worker while the render's thread
decides the next plan, and the worker's future returns the spans it mixed
before that plan is applied. The band table takes one transform per mix; a
steady span calls only render_spectrum, BlockFIR.output and a matrix
product. So every call the benchmark traces (perfbench/tracer.py keeps
one span stack per process) stays on the render's thread, and the lanes
have one owner at a time, so the output is the one-thread output, byte for
byte.

Each span is checked for finiteness as soon as it is mixed, and the WAV
streams one interval at a time: the engine keeps the output of the
interval being mixed and of the metric window still open (about one
interval and one span), not the whole programme. The WAV is written beside
its target and takes its name only when the render has finished, every
number in the report is finite and the report and metrics are written, so
a failed render leaves no output. Each output channel is delayed by its
speaker's latency gap to the layout's slowest speaker, so that devices of
unequal latency (scenario latency_ms) sound together; drives never see it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adapt import apply_rules
from .context import (
    ContextTracker,
    band_snr_score,
    build_scenario,
    noise_at,
    parse_scenario,
    proxy_mixes,
    proxy_window,
)
from .dsp import (
    BLOCK_SIZE,
    DEFAULT_SEED,
    BlockFIR,
    apply_directives,
    crossfade_gains,
    directive_margins,
    octave_band_levels,
    power_sum_db,
    rms_db,
)
from .errors import JobError
from .renderers import (
    DrivingFunction,
    new_render_state,
    render_block,
    render_spectrum,
)
from .routing import band_table, build_drive, route
from .rules import (
    default_rulebook,
    default_selection_rules,
    load_rulebook,
    load_selection_rules,
)
from .scene import Scene, mono_mix, parse_scene
from .wavio import write_wav

CONTEXT_INTERVAL_S = 2.0
REPORT_SCHEMA_VERSION = "render-report v1"
METRICS_HEADER = ("t_s", "metric", "value")
DEFAULT_CROSSFADE_S = 1.0
# The most samples mixed in one pass (rounded down to whole blocks, at
# least one block): longer spans cut the per-block overhead, shorter ones
# keep each lane's spectra in cache.
SPAN_SAMPLES = 8192
# Stages whose wall seconds the report sums under "timing", beside render_s.
STAGES = ("measure_s", "adapt_s", "route_s", "build_s", "mix_s")


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
    listener_id: str | None = None


@dataclass
class RenderResult:
    out_path: str
    report_path: str
    metrics_path: str
    report: dict
    sample_rate: int


# ---------------------------------------------------------------------------
# per-object lanes

class _Lane:
    """Streaming render state for one object.

    Holds the live driving function plus, during a crossfade counted in
    samples from the first sample of the plan that began it, the outgoing
    one. Source is the directive-processed mono signal (a _Source); gain is
    the linear object level applied at mix time; cols are the drive's
    output columns. gain_row is the drive's gains spread over every output
    channel (zeros off its subset) when the drive has no filter (neither
    FIRs nor delays: state.fir is None), else None.
    """

    def __init__(self, drive, source, gain, chan_index):
        self.chan_index = chan_index
        self._set_drive(drive)
        self.source = source
        self.gain = gain
        self.old = None  # (drive, state, source, gain, cols) while fading out
        self.fade_start = self.fade_length = self.fade_end = 0
        self.fade_coherent = True

    def _set_drive(self, drive):
        self.drive = drive
        self.state = new_render_state(drive)
        self.cols = _columns(drive, self.chan_index)
        self.gain_row = None
        if self.state.fir is None:
            self.gain_row = np.zeros(len(self.chan_index))
            self.gain_row[self.cols] = drive.gains

    def begin_fade(self, drive, source, gain, tail, start, length):
        """Fade from the live drive, reading tail (its source from sample
        start on), to drive reading source, over length samples (possibly
        fractional) from start; the fade ends at fade_end = start + length.
        A change arriving mid-fade snaps the previous fade to its endpoint."""
        self.old = (self.drive, self.state, tail, self.gain, self.cols)
        old_filtered = self.state.fir is not None
        self.fade_start, self.fade_length, self.fade_end = start, length, start + length
        self._set_drive(drive)
        # Two gain-only drives carry the same waveform, so amplitudes may sum;
        # anything with delays or filters mixes power-complementarily instead.
        self.fade_coherent = not old_filtered and self.state.fir is None
        self.source = source
        self.gain = gain


def _columns(drive: DrivingFunction, chan_index: dict) -> np.ndarray:
    """The output column index of each of a drive's speakers."""
    return np.array([chan_index[sid] for sid in drive.speaker_ids], dtype=np.intp)


def _add_columns(out: np.ndarray, cols: np.ndarray, samples: np.ndarray) -> None:
    """out[:, cols] += samples, one column at a time: a fancy-index add
    would gather, add and scatter back all of the span's columns."""
    for col, column in zip(cols, samples.T):
        out[:, col] += column


def _mix_block(lanes, t0: int, block: int, out: np.ndarray) -> None:
    """Add the span of every lane that starts at sample t0 into out (span
    samples x channels, zeroed by the caller). The span is K whole blocks
    of block samples, and each lane renders it as K x block frames, which
    every renderer turns into the samples of those K blocks rendered one
    by one. Sample i of a fade weighs (i - fade_start) / fade_length, and a
    lane drops its outgoing drive after the span whose last sample index
    reaches its fade_end, so no running fade may end in a block before the
    span's last one (_span_blocks).

    Every renderer is linear, so lanes mix in three groups:
    - a steady lane (no fade running) whose drive has a filter (FIRs or
      delays folded into taps) adds its output spectra (render_spectrum)
      into one spectrum per block and channel, and one BlockFIR.output
      turns the sum into samples;
    - any other steady lane is gain-only, one row of a matrix product: the
      lane-gain-scaled mono segments, stacked, times their lanes'
      gain_rows;
    - a fading lane renders both of its drives with render_block, because
      the fade weights act after the filter.
    Each lane's segment is read once per drive it renders.
    """
    n, n_channels = out.shape
    count = n // block
    spectrum = None
    segments, gain_rows = [], []
    for lane in lanes:
        seg = lane.source.segment(t0, n) * lane.gain
        frames = seg.reshape(count, block)
        if lane.old is None:
            if lane.state.fir is not None:
                if spectrum is None:
                    spectrum = np.zeros((n_channels, count, block + 1),
                                        dtype=complex)
                rows = render_spectrum(frames, lane.drive, lane.state)
                # row by row in place: a fancy-index add would gather, add
                # and scatter back the whole rows x K x block + 1 array
                for row, col in zip(rows, lane.cols):
                    spectrum[col] += row
            else:
                segments.append(seg)
                gain_rows.append(lane.gain_row)
            continue
        position = np.clip((np.arange(t0, t0 + n) - lane.fade_start)
                           / lane.fade_length, 0.0, 1.0)
        w_old, w_new = crossfade_gains(position, lane.fade_coherent)
        rendered = render_block(frames, lane.drive, lane.state)
        _add_columns(out, lane.cols, rendered * w_new[:, None])
        old_drive, old_state, old_source, old_gain, old_cols = lane.old
        old_seg = old_source.segment(t0, n) * old_gain
        old_rendered = render_block(
            old_seg.reshape(count, block), old_drive, old_state)
        _add_columns(out, old_cols, old_rendered * w_old[:, None])
        if t0 + n - 1 >= lane.fade_end:
            lane.old = None
    if segments:
        out += np.array(segments).T @ np.array(gain_rows)
    if spectrum is not None:
        out += BlockFIR.output(spectrum).reshape(n_channels, n).T


def _span_blocks(lanes, t0: int, block: int, limit: int) -> int:
    """The number of blocks in the span that starts at t0: limit, or fewer
    so that the span ends with the block holding the end of the first
    running fade to end (the first block whose last sample index reaches
    its fade_end, as _mix_block tests it)."""
    ends = [lane.fade_end for lane in lanes if lane.old is not None]
    if not ends:
        return limit
    last = t0 + block * np.arange(1, limit + 1) - 1
    return min(limit, int(np.searchsorted(last, min(ends))) + 1)


# ---------------------------------------------------------------------------
# signal bookkeeping

@dataclass(frozen=True)
class _Source:
    """Samples [start, start + len(samples)) of an object's processed mono
    signal, whose whole length is stem_len. Reads past stem_len are zeros;
    a read anywhere else outside the window is a bookkeeping error."""

    samples: np.ndarray
    start: int
    stem_len: int

    @property
    def stop(self) -> int:
        return self.start + len(self.samples)

    def segment(self, t0: int, n: int) -> np.ndarray:
        i = t0 - self.start
        if i < 0:
            raise RuntimeError(f"read at {t0} before the window at {self.start}")
        seg = self.samples[i : i + n]
        if len(seg) < n:
            if self.stop < self.stem_len:
                raise RuntimeError(
                    f"read to {t0 + n} past the window end {self.stop}")
            seg = np.concatenate([seg, np.zeros(n - len(seg))])
        return seg


def _chain_window(base: np.ndarray, directives, sample_rate: int,
                  lo: int, hi: int) -> _Source:
    """apply_directives(base, directives)[lo:hi], filtering only a window.

    The window starts the chain's warm-up before lo and ends its look-ahead
    after hi (dsp.directive_margins), clipped to the stem, so the result
    matches the whole-stem chain to within the dropped transient; where the
    window reaches the stem's end, a time advance zero-fills as it does on
    the whole stem.
    """
    n = len(base)
    lo, hi = min(lo, n), min(hi, n)
    if lo >= hi:
        return _Source(np.zeros(0), lo, n)
    warmup, lookahead = directive_margins(directives, sample_rate)
    a = max(0, lo - warmup)
    chain = apply_directives(base[a : min(n, hi + lookahead)], directives,
                             sample_rate, a)
    return _Source(chain[lo - a : hi - a], lo, n)


class _Sources:
    """The processed mono signal of every object, for one run.

    Every object's mono mix is made once, when the run starts (a read-only
    view of the stem for a single-stem object). An object without
    directives reads its whole mix; a directive chain is filtered only over
    the samples [lo, hi) a plan's lanes read, and lanes hold what they read.
    """

    def __init__(self, scene: Scene):
        self.sample_rate = scene.sample_rate
        # object_id -> mono mix; adaptation never touches an object's stems,
        # so the pristine and adapted objects share it.
        self.mixes = {obj.object_id: mono_mix(obj) for obj in scene.objects}

    def source(self, obj, lo: int, hi: int) -> _Source:
        """obj's processed mono signal, covering [lo, hi)."""
        mix = self.mixes[obj.object_id]
        if not obj.directives:
            return _Source(mix, 0, len(mix))
        return _chain_window(mix, obj.directives, self.sample_rate, lo, hi)

    def for_scene(self, scene: Scene, lo: int, hi: int) -> dict:
        """object_id -> (source covering [lo, hi), linear mix gain)."""
        return {obj.object_id: (self.source(obj, lo, hi),
                                10.0 ** (obj.level_db / 20.0))
                for obj in scene.objects}


def _interval_proxy(scene, sources, window, noise, sample_rate):
    """Proxy intelligibility of the dialogue mix over window against the
    remaining objects plus ambient noise; None when the scene has no
    dialogue. The mixes are context.proxy_mixes of sources (object_id ->
    (_Source, linear mix gain)), so ducking moves the score."""
    def read(obj, n):
        source, gain = sources[obj.object_id]
        return source.segment(window[0], n) * gain

    speech, masker = proxy_mixes(scene.objects, read, window)
    if speech is None:
        return None
    masker_bands = octave_band_levels(masker, sample_rate)
    combined = [
        power_sum_db((m, nz))
        for m, nz in zip(masker_bands, noise.band_levels_db)
    ]
    return band_snr_score(octave_band_levels(speech, sample_rate), combined)


class _StageClock:
    """Wall seconds summed per stage (STAGES). start() sets a mark;
    lap(stage) charges the time since the mark to stage and moves it."""

    def __init__(self):
        self.totals = dict.fromkeys(STAGES, 0.0)
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.totals[stage] += now - self._mark
        self._mark = now


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
    if not math.isfinite(job.crossfade_s) or job.crossfade_s <= 0.0:
        raise JobError(
            f"options.crossfade_s must be finite and > 0, got {job.crossfade_s}")

    scene = parse_scene(job.scene_path)
    layout, listeners, room_decay_tau_s, timeline = parse_scenario(job.scenario_path)
    listeners = _promote_listener(listeners, job.listener_id)
    rulebook = (load_rulebook(job.rulebook_path)
                if job.rulebook_path else default_rulebook())
    selection = (load_selection_rules(job.selection_path)
                 if job.selection_path else default_selection_rules())

    fs = scene.sample_rate
    if not math.isfinite(job.crossfade_s * fs):
        raise JobError(f"options.crossfade_s={job.crossfade_s} is not a finite "
                       f"number of samples at {fs} Hz")
    if job.crossfade_s * fs < 1.0:
        raise JobError(f"options.crossfade_s={job.crossfade_s} is shorter than "
                       f"one sample at {fs} Hz")
    interval = int(round(CONTEXT_INTERVAL_S * fs))
    if int(job.block_size) > interval:
        raise JobError(f"options.block_size={job.block_size} is longer than one "
                       f"context interval ({interval} samples at {fs} Hz)")
    n_total = scene.duration_samples
    if n_total <= 0:
        raise JobError("scene.objects carry no audio samples to render")
    # Geometry is fixed for the run, so one scenario serves every interval;
    # the noise state changes and is handed to the tracker with each update.
    scenario = build_scenario(layout, listeners, room_decay_tau_s)

    report_path = job.report_path or job.out_path + ".report.json"
    metrics_path = job.metrics_path or job.out_path + ".metrics.csv"
    intervals: list[dict] = []
    levels: list[tuple[float, list[float]]] = []
    # The WAV streams into a file beside out_path and takes its name only
    # once the render is known good and its report and metrics are written;
    # a failure removes the partial WAV and whichever of those it wrote.
    partial = job.out_path + ".partial"
    written = [partial]
    clock = _StageClock()
    # Stems are fixed for the run, so each object's mono mix and its band
    # analysis are too: both are made once, the mixes before the first
    # plan, the band table on the mixing worker while plan 0 is decided.
    sources = _Sources(scene)
    clock.lap("measure_s")
    try:
        with ThreadPoolExecutor(max_workers=1,
                                thread_name_prefix="obar-mix") as worker:
            bands = worker.submit(band_table, sources.mixes,
                                  scenario.layout.speakers, fs)
            plans = _plans(job, scene, scenario, timeline, rulebook,
                           selection, sources, bands, clock)
            write_wav(partial, fs, _render_blocks(
                job, scenario.layout, fs, n_total, plans, intervals, levels,
                clock, worker))
        report = {
            "schema": REPORT_SCHEMA_VERSION,
            "scene": os.path.abspath(job.scene_path),
            "scenario": os.path.abspath(job.scenario_path),
            "sample_rate": fs,
            "duration_samples": n_total,
            "block_size": int(job.block_size),
            "crossfade_s": job.crossfade_s,
            "seed": DEFAULT_SEED,
            "listener": scenario.listener.listener_id,
            "channels": [s.speaker_id for s in scenario.layout.speakers],
            "intervals": intervals,
            "timing": {
                "render_s": round(time.perf_counter() - wall_start, 6),
                **{stage: round(seconds, 6)
                   for stage, seconds in clock.totals.items()},
            },
        }
        try:
            report_text = json.dumps(report, indent=2, allow_nan=False)
        except ValueError as exc:
            raise JobError(f"report holds a non-finite number: {exc}") from exc
        with open(report_path, "w", encoding="utf-8") as fh:
            written.append(report_path)
            fh.write(report_text)
            fh.write("\n")
        with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
            written.append(metrics_path)
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for t_s, name, value in _metric_rows(intervals, levels):
                writer.writerow([f"{t_s:.6f}", name, f"{value:.6f}"])
        os.replace(partial, job.out_path)
        written.clear()
    finally:
        for path in written:
            if os.path.exists(path):
                os.remove(path)

    return RenderResult(
        out_path=job.out_path, report_path=report_path,
        metrics_path=metrics_path, report=report, sample_rate=fs)


def _plans(job, scene, scenario, timeline, rulebook, selection, sources,
           bands, clock):
    """Decide each context update; mix nothing.

    Update k (from 0) runs at the first block at or after k intervals, up
    to the scene's end, and is yielded as soon as it is decided, as (start,
    stop, objects, record):
    - start: the update's first sample, and stop: the next update's;
    - objects: each routed object_id, in routing order -> (drive, _Source
      covering the update's reads, linear mix gain, fade); fade is None
      unless the record lists a crossfade for the object, else (tail,
      length): the previous update's chain over [start, start +
      fade_reads), which the outgoing lane reads during the fade, and the
      fade's length from start, crossfade_s * fs samples (maybe fractional);
    - record: the update's report record, whose crossfades are the objects
      whose assignment or drive (by fingerprint) differs from the previous
      update's.
    bands is the future of the band table (routing.band_table), built on
    the mixing worker while plan 0 measures, adapts and filters its chains;
    the first route waits for it.
    clock (a _StageClock) sums, with run_render's mono mixes (sources):
    - measure_s: the mono mixes, the context tracker's update and both
      proxies (_interval_proxy), with the pristine sources' reads;
    - adapt_s: apply_rules and the adapted directive chains, tails too;
    - route_s: route, and in plan 0 the wait for the band table;
    - build_s: the drives and the crossfades.
    """
    fs = scene.sample_rate
    n_total = scene.duration_samples
    block = int(job.block_size)
    interval = int(round(CONTEXT_INTERVAL_S * fs))
    fade_s = float(job.crossfade_s)
    length = fade_s * fs
    # The outgoing lane of a crossfade reads its tail up to the end of the
    # block holding the fade's end (_span_blocks), which lies before
    # start + ceil(length) + block.
    fade_reads = math.ceil(length) + block
    tracker = ContextTracker()
    # object_id -> the previous update's (assignment, drive fingerprint,
    # adapted object); the fingerprint is the lane's drive's own, so no
    # second copy of a drive's bytes outlives its update.
    previous: dict = {}
    t0 = k = 0
    while t0 < n_total:
        k += 1
        stop = -(-k * interval // block) * block
        t_s = t0 / fs
        noise = noise_at(timeline, t_s)
        window = (t0, min(t0 + interval, max(n_total, t0 + block)))
        # Samples read from this update's sources: the proxies'
        # (context.proxy_window), and each lane's blocks until the next update.
        reads = (t0, max(stop, t0 + proxy_window(window)))

        # Measure on the pristine mix so the adaptation derived from it
        # is a fixed point: the same noise always yields the same deficit
        # and hence the same actions, with no duck/release oscillation.
        clock.start()
        measured = _interval_proxy(scene, sources.for_scene(scene, *reads),
                                   window, noise, fs)
        ctx = tracker.update(scenario, scene, noise, measured)
        clock.lap("measure_s")
        adapted, adapt_report = apply_rules(
            scene, ctx, rulebook, sources.mixes, window)
        adapted_sources = sources.for_scene(adapted, *reads)
        clock.lap("adapt_s")
        projected = _interval_proxy(adapted, adapted_sources, window, noise, fs)
        clock.lap("measure_s")
        assignments = route(adapted, scenario, ctx, selection, bands.result())
        clock.lap("route_s")

        objects, crossfades, current = {}, [], {}
        for assignment in assignments:
            oid = assignment.object_id
            obj = adapted.object_by_id(oid)
            drive = build_drive(assignment, scenario.layout, obj, fs)
            objects[oid] = (drive, *adapted_sources[oid], None)
            fingerprint = drive.fingerprint()
            old = previous.get(oid)
            if old is not None and old[1] == fingerprint:
                fingerprint = old[1]   # the lane's; this drive is dropped
            if old is not None and (old[0] != assignment or old[1] != fingerprint):
                crossfades.append({
                    "object_id": oid,
                    "from": old[0].renderer.label(),
                    "to": assignment.renderer.label(),
                    "start_s": t_s,
                    "duration_s": fade_s,
                })
            current[oid] = (assignment, fingerprint, obj)
        clock.lap("build_s")
        for crossfade in crossfades:
            oid = crossfade["object_id"]
            objects[oid] = (*objects[oid][:3], (sources.source(
                previous[oid][2], t0, t0 + fade_reads), length))
        previous = current
        clock.lap("adapt_s")
        yield t0, stop, objects, _interval_record(
            t_s, ctx, measured, projected, assignments, adapt_report,
            crossfades)
        t0 = stop


def _render_blocks(job, layout, fs, n_total, plans, intervals, levels, clock,
                   worker):
    """Mix the plans (_plans) span by span; decide nothing on the mixing
    worker.

    The plan is the mixer's only input, and its record is only appended to
    intervals. At the plan's start the mixer drops the lanes of objects it
    does not route, then, in routing order, fades each object that has a
    fade (the outgoing drive reads its tail) over the fade's length, steps
    each other known lane's source and gain, adds a lane for each new
    object, and lets go of the plan's objects. A span is whole blocks
    mixed in one _mix_block pass, up to the first of the plan's stop, the
    block holding the end of a running fade (_span_blocks) and
    SPAN_SAMPLES, so no span reads a source past what its plan filtered.

    Each interval is mixed (_mix) into out, one interval's output. Its
    spans in which a fade runs mix first, on this thread, because they call
    render_block and BlockFIR.process, which the benchmark traces. The
    steady spans that follow go to the render's one mixing worker (worker,
    a ThreadPoolExecutor of one thread that run_render opens) while
    this thread runs next(plans); the worker's future returns their spans,
    or raises what the worker raised, ahead of the next plan's error, and
    this thread waits for it before the next plan touches the lanes.

    Then yields each finished span of the interval, samples x channels
    (float64) with each channel late by its speaker's latency gap to the
    layout's slowest, up to n_total: a view overwritten once the next span
    is asked for. Appends each record to intervals and, once output passes
    its metric window, (t_s, each channel's RMS dB over it) to levels.
    clock adds build_s (lane set-up) and mix_s (the fading spans and the
    wait for the worker).
    """
    block = int(job.block_size)
    interval = int(round(CONTEXT_INTERVAL_S * fs))
    chan_index = {s.speaker_id: i for i, s in enumerate(layout.speakers)}
    n_channels = len(layout.speakers)
    lanes: dict[str, _Lane] = {}
    span_blocks = max(1, SPAN_SAMPLES // block)
    # An interval is at most ceil(interval / block) blocks long; row 0 is
    # the interval's first sample.
    out = np.zeros((-(-interval // block) * block, n_channels))
    # Output from the start of the oldest metric window still open (row 0
    # is sample base). A window is interval samples from an update block,
    # and the span that closes it starts before its end, so the window and
    # that span fit in interval + one span of samples. Channel c lands
    # lags[c] samples late, its speaker's latency gap to the layout's
    # slowest, so all devices sound together; buf holds those ahead of t1.
    # A channel n_total late is silent throughout: it is never written,
    # and its lag does not size buf.
    slowest = max(s.latency_ms for s in layout.speakers)
    lags = [round(min((slowest - s.latency_ms) * fs / 1000, n_total))
            for s in layout.speakers]
    audible = [(c, lag) for c, lag in enumerate(lags) if lag < n_total]
    ahead = max((lag for _, lag in audible), default=0)
    buf = np.zeros((interval + span_blocks * block + ahead, n_channels))
    base = 0
    windows: list[tuple[float, int]] = []   # (t_s, first sample), open

    plan = next(plans)
    while plan is not None:
        start, stop, objects, record = plan
        clock.start()
        for oid in lanes.keys() - objects:  # pruned: stop at the boundary
            del lanes[oid]
        for oid, (drive, source, gain, fade) in objects.items():
            if fade is not None:
                tail, length = fade
                lanes[oid].begin_fade(drive, source, gain, tail, start, length)
            elif oid in lanes:   # the same drive: only the signal steps
                lanes[oid].source, lanes[oid].gain = source, gain
            else:
                lanes[oid] = _Lane(drive, source, gain, chan_index)
        objects.clear()   # drives no lane took go now, not at the next plan
        clock.lap("build_s")
        intervals.append(record)
        windows.append((start / fs, start))

        stop = min(stop, n_total)
        clock.start()
        spans = _mix(lanes.values(), start, start, stop, block, span_blocks,
                     out, fading=True)
        clock.lap("mix_s")
        steady = worker.submit(_mix, lanes.values(), start,
                               spans[-1][1] if spans else start, stop, block,
                               span_blocks, out)
        try:
            plan = next(plans) if stop < n_total else None
        finally:
            clock.start()
            spans += steady.result()
            clock.lap("mix_s")

        for t, t1 in spans:
            end = min(t1, n_total)
            span = out[t - start : t1 - start]
            if any(lags):   # per channel: about 10x the cost of one block copy
                for c, lag in audible:
                    buf[t + lag - base : t1 + lag - base, c] = span[:, c]
            else:
                buf[t - base : t1 - base] = span
            yield buf[t - base : end - base]
            while windows and min(windows[0][1] + interval, n_total) <= end:
                t_s, w0 = windows.pop(0)
                w1 = min(w0 + interval, n_total)
                levels.append((t_s, [rms_db(buf[w0 - base : w1 - base, i])
                                     for i in range(n_channels)]))
            keep = windows[0][1] if windows else t1
            if keep > base:
                buf[: t1 + ahead - keep] = buf[keep - base : t1 + ahead - base]
                base = keep


def _mix(lanes, origin: int, t0: int, end: int, block: int, span_blocks: int,
         out: np.ndarray, fading: bool = False) -> list[tuple[int, int]]:
    """Mix the lanes span by span from sample t0 into out, whose row 0 is
    sample origin, up to end or, with fading, up to the first span in
    which no fade runs; returns the spans mixed, (t0, t1), each at most
    span_blocks blocks. A non-finite sample before end raises a JobError."""
    spans = []
    while t0 < end and not (fading and all(lane.old is None for lane in lanes)):
        count = min(span_blocks, -(-(end - t0) // block))
        t1 = t0 + _span_blocks(lanes, t0, block, count) * block
        span = out[t0 - origin : t1 - origin]
        span.fill(0.0)
        _mix_block(lanes, t0, block, span)
        if not np.all(np.isfinite(span[: min(t1, end) - t0])):
            raise JobError("rendered output contains non-finite samples")
        spans.append((t0, t1))
        t0 = t1
    return spans


def _interval_record(t_s, ctx, measured, projected,
                     assignments, adapt_report, crossfades) -> dict:
    return {
        "t_s": round(t_s, 6),
        "noise_broadband_db": round(ctx.noise_broadband_db, 6),
        "noise_delta_db": round(ctx.noise_delta_db, 6),
        "measured_intelligibility": None if measured is None else round(measured, 6),
        "projected_intelligibility": None if projected is None else round(projected, 6),
        "intelligibility_deficit": round(ctx.intelligibility_deficit, 6),
        "assignments": [
            {
                "object_id": a.object_id,
                "renderer": a.renderer.label(),
                "speakers": list(a.speaker_subset),
                "subset": a.subset_kind,
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
                {"object_id": oid, "kind": kind, "total": round(total, 6)}
                for oid, kind, total in adapt_report.deltas
            ],
        },
        "crossfades": crossfades,
    }


def _metric_rows(intervals, levels):
    """Flatten per-interval metrics, ordered by time then metric name."""
    rows = []
    for record, (t_s, channel_db) in zip(intervals, levels):
        rows.append((t_s, "noise_broadband_db", record["noise_broadband_db"]))
        if record["measured_intelligibility"] is not None:
            rows.append((t_s, "intelligibility_proxy",
                         record["measured_intelligibility"]))
        if record["projected_intelligibility"] is not None:
            rows.append((t_s, "intelligibility_projected",
                         record["projected_intelligibility"]))
        rows.append((t_s, "intelligibility_deficit",
                     record["intelligibility_deficit"]))
        for i, db in enumerate(channel_db):
            rows.append((t_s, f"rms_db_ch{i}", db))
    return rows
