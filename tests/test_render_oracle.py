"""The whole render against a reference renderer written the direct way.

The reference takes the plans engine._plans yields as given (start, stop,
each object's drive, source, gain and fade) and re-derives no decision;
the drive designs are checked elsewhere. It uses no block, span, partition
or shared spectrum:
- each drive a lane holds is fed the piecewise plan signal, source x gain
  over each plan's samples and, while it fades out, its tail x its gain;
- a gain-only drive renders as its gains times that signal, a filtered one
  as one whole-signal convolution per row with the row's folded taps
  (renderers._folded_taps);
- a drive weighs its output by 1 while steady and by dsp.crossfade_gains
  at (n - start) / length, sample by sample, while it fades, with the
  amplitude law exactly when both drives are gain-only;
- each channel is then delayed by its speaker's latency gap to the
  layout's slowest and cut at the scene's end.
The engine must equal it to TOLERANCE on short cuts of the benchmark's
workloads, at block lengths that do and do not divide the interval. This
is differential testing (McKeeman, Digital Technical Journal 10(1), 1998)
against the simplest correct program.
"""

import glob
import importlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from obar import demo, engine
from obar.context import build_scenario, parse_scenario
from obar.dsp import crossfade_gains
from obar.engine import RenderJob
from obar.renderers import _folded_taps
from obar.wavio import read_stem, write_wav

from obar_helpers import render_output

ROOT = Path(__file__).resolve().parents[1]
CUT_S = 4.0
BLOCKS = (1024, 256, 1000, 333)
TOLERANCE = 1e-9
# case -> workload: demo-devices is live-switch's scene and noise on the
# demo devices, whose latencies differ (tv 10 ms, soundbars 15, phone 30).
CASES = {"broadcast-step": "broadcast-step", "dense-ring": "dense-ring",
         "live-switch": "live-switch", "demo-devices": "live-switch"}


def _gain_only(drive) -> bool:
    return all(f is None for f in drive.firs) and not np.any(drive.delays_s)


def _convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The first len(x) samples of the linear convolution x * taps."""
    size = 1 << (len(x) + len(taps) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(taps, size),
                        size)[: len(x)]


class _Drive:
    """One drive of one lane, from the update that set it: the signal it
    is fed and the weight of its output, per sample of the render."""

    def __init__(self, drive, n_total):
        self.drive = drive
        self.gain = None
        # COLD START: the input is zero before the update that set the
        # drive, so a crossfade's incoming filter starts from silence (the
        # engine gives it a fresh filter). Filtering the lane's earlier
        # input here instead is the exact crossfade of ROADMAP item 18.
        self.x = np.zeros(n_total)
        self.w = np.zeros(n_total)

    def feed(self, source, gain, lo, hi):
        self.x[lo:hi] = source.segment(lo, hi - lo) * gain
        self.gain = gain

    def output(self, n_channels, chan_index):
        """The drive's weighted output, samples x channels."""
        d = self.drive
        if _gain_only(d):
            rows = np.outer(d.gains, self.x)
        else:
            firs = d.firs or (None,) * len(d.gains)
            rows = [_convolve(self.x, _folded_taps(g, delay, f, d.sample_rate))
                    for g, delay, f in zip(d.gains, d.delays_s, firs)]
        out = np.zeros((len(self.x), n_channels))
        for sid, row in zip(d.speaker_ids, rows):
            out[:, chan_index[sid]] += self.w * row
        return out


def reference_render(plans, speakers, fs, n_total):
    """The render of plans (engine._plans' output) on speakers, the direct
    way; samples x channels."""
    lanes, drives = {}, []
    for start, stop, objects, _ in plans:
        end = min(stop, n_total)
        for oid in lanes.keys() - objects:   # unrouted: silent from start on
            del lanes[oid]
        for oid, (drive, source, gain, fade) in objects.items():
            old = lanes.get(oid)
            if fade is None and old is not None:
                lane = old
            else:
                lane = lanes[oid] = _Drive(drive, n_total)
                drives.append(lane)
            weight = 1.0
            if fade is not None:
                tail, length = fade
                assert start + length <= stop, "a fade runs into the next plan"
                position = np.clip((np.arange(start, end) - start) / length,
                                   0.0, 1.0)
                w_old, weight = crossfade_gains(
                    position, _gain_only(old.drive) and _gain_only(drive))
                # the outgoing drive reads its tail until its weight is 0
                old.feed(tail, old.gain, start,
                         min(start + math.ceil(length), end))
                old.w[start:end] = w_old
            lane.feed(source, gain, start, end)
            lane.w[start:end] = weight
    chan_index = {s.speaker_id: c for c, s in enumerate(speakers)}
    mix = sum(d.output(len(speakers), chan_index) for d in drives)
    slowest = max(s.latency_ms for s in speakers)
    out = np.zeros_like(mix)
    for c, s in enumerate(speakers):
        lag = min(round((slowest - s.latency_ms) * fs / 1000), n_total)
        out[lag:, c] = mix[: n_total - lag, c]
    return out


@pytest.fixture(scope="module")
def cuts(tmp_path_factory):
    """case -> the documents of its workload at seed 0, every stem cut to
    its first CUT_S seconds; the demo-devices case lays the scenario out on
    demo.write_demo_devices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT))
        workloads = importlib.import_module("perfbench.workloads")
    files = {}
    for case, workload in CASES.items():
        d = str(tmp_path_factory.mktemp(case))
        files[case] = workloads.generate(workload, 0, d)
        for path in glob.glob(os.path.join(d, "*.wav")):
            fs, samples = read_stem(path)
            write_wav(path, fs, samples[: round(CUT_S * fs)])
        if case == "demo-devices":
            demo.write_demo_devices(d)
            with open(files[case].scenario, encoding="utf-8") as fh:
                scenario = json.load(fh)
            scenario["layout"] = "devices.json"
            with open(files[case].scenario, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
    return files


def _render_with_plans(job):
    """render_output(job) and the plans the render mixed."""
    plans = []
    decide = engine._plans

    def recorded(*args, **kwargs):
        for start, stop, objects, record in decide(*args, **kwargs):
            # a copy: the mixer clears a plan's objects once it applies them
            plans.append((start, stop, dict(objects), record))
            yield start, stop, objects, record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_plans", recorded)
        result, out = render_output(job)
    return result, out, plans


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", CASES)
def test_render_equals_the_reference(cuts, tmp_path, case, block):
    """The engine's float64 output equals the reference render of the
    plans it mixed, and the cases that should fade do."""
    files = cuts[case]
    job = RenderJob(scene_path=files.scene, scenario_path=files.scenario,
                    rulebook_path=files.rulebook, selection_path=files.selection,
                    out_path=str(tmp_path / "out.wav"), block_size=block)
    result, out, plans = _render_with_plans(job)
    layout, listeners, tau, _ = parse_scenario(files.scenario)
    speakers = build_scenario(layout, listeners, tau).layout.speakers
    n_total = len(out)
    assert n_total == round(CUT_S * result.sample_rate)
    expected = reference_render(plans, speakers, result.sample_rate, n_total)
    diff = np.max(np.abs(out - expected))
    assert diff <= TOLERANCE, f"max |engine - reference| = {diff:.3e}"
    assert np.max(np.abs(expected)) > 0.1
    fades = sum(len(iv["crossfades"]) for iv in result.report["intervals"])
    assert (fades > 0) == (CASES[case] == "live-switch")
