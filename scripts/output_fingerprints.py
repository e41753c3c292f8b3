#!/usr/bin/env python3
"""Print SHA-256 fingerprints of the benchmark workloads' rendered outputs.

For every workload and seed, writes the workload's documents with
perfbench.workloads.generate, renders them once through
obar.engine.run_render and prints one line:

    <workload> seed=<n> wav=<sha256> metrics=<sha256> report=<sha256>

The report digest covers the report JSON without "timing" (wall time) and
"scene"/"scenario" (absolute paths), re-serialised with sorted keys. Two
checkouts that render the same audio, metrics and decisions print the same
lines, so diffing the output of two checkouts is a bit-identity gate:

    python3 scripts/output_fingerprints.py --seeds 0 1 7 > fingerprints.txt

--dump DIR also saves each render's float64 samples (before the WAV's
float32 rounding, captured by wrapping obar.engine.write_wav, to which the
engine streams them) as DIR/<workload>-seed<n>.npy and its WAV, metrics and
report digests as DIR/<workload>-seed<n>.json. --compare DIR loads the same
files from another checkout's dump and prints, after each line,

    <workload> seed=<n> max_abs_diff=<value> wav=<same|differs> metrics=<same|differs> report=<same|differs>

and exits 1 when any value exceeds MAX_ABS_DIFF (1e-9), a metrics or report
digest differs, or a dump is missing or has another shape. The WAV digest
never fails the run: float32 rounding can move it with the float64 samples
still within MAX_ABS_DIFF. It is printed for information, so a change that
moves float64 samples by rounding shows whether the WAV bytes held (a dump
without a WAV digest prints wav=unavailable). A change meant to move the
audio by rounding only is gated by

    python3 scripts/output_fingerprints.py --dump /tmp/parent     # parent
    python3 scripts/output_fingerprints.py --compare /tmp/parent  # change

Run from anywhere; the script imports obar (src/) and perfbench from the
checkout it sits in and writes only under --dest (a temporary directory,
removed afterwards, when not given).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import obar.engine  # noqa: E402
from obar.engine import RenderJob, run_render  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

VOLATILE_REPORT_KEYS = ("timing", "scene", "scenario")
# Largest sample difference --compare accepts: far above float64 rounding
# (about 1e-15 here), far below a wrong gain, delay or filter.
MAX_ABS_DIFF = 1e-9


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def report_digest(report_path: str) -> str:
    """SHA-256 of the report without its volatile keys, keys sorted."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key in VOLATILE_REPORT_KEYS:
        report.pop(key, None)
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_samples(job: RenderJob):
    """run_render(job) and its float64 samples, copied from the blocks the
    engine streams through obar.engine.write_wav (it keeps none itself)."""
    blocks = []
    write = obar.engine.write_wav

    def capture(path, sample_rate, channels):
        def copied():
            for block in channels:
                blocks.append(np.array(block))
                yield block
        write(path, sample_rate, copied())

    obar.engine.write_wav = capture
    try:
        result = run_render(job)
    finally:
        obar.engine.write_wav = write
    return result, np.concatenate(blocks)


def fingerprint(name: str, seed: int, dest: str) -> tuple[str, dict, np.ndarray]:
    """The fingerprint line of one render, its WAV, metrics and report
    digests and its float64 samples."""
    work = os.path.join(dest, f"{name}-seed{seed}")
    files = generate(name, seed, work)
    out = os.path.join(work, "out.wav")
    result, output = render_samples(RenderJob(
        scene_path=files.scene, scenario_path=files.scenario, out_path=out,
        rulebook_path=files.rulebook, selection_path=files.selection,
        block_size=WORKLOADS[name].block_size))
    digests = {"wav": _sha256_file(out),
               "metrics": _sha256_file(result.metrics_path),
               "report": report_digest(result.report_path)}
    line = f"{name} seed={seed} " + " ".join(
        f"{key}={digest}" for key, digest in digests.items())
    return line, digests, output


def max_abs_diff(output: np.ndarray, path: str) -> float | None:
    """Largest sample difference from a dumped render; None when the dump
    is missing or has another shape."""
    if not os.path.isfile(path):
        return None
    other = np.load(path)
    if other.shape != output.shape:
        return None
    return float(np.max(np.abs(output - other), initial=0.0))


def compare(output: np.ndarray, digests: dict, stem: str) -> tuple[str, bool]:
    """The comparison with a dump saved under stem (DIR/<workload>-seed<n>)
    as printed, and whether it passes; the WAV digest is only printed."""
    diff = max_abs_diff(output, stem + ".npy")
    if diff is None:
        return f"max_abs_diff=unavailable (no dump of the same shape at {stem}.npy)", False
    text = f"max_abs_diff={diff:.3e}"
    if not os.path.isfile(stem + ".json"):
        return f"{text} digests=unavailable (no {stem}.json)", False
    with open(stem + ".json", encoding="utf-8") as fh:
        dumped = json.load(fh)
    states = {key: "unavailable" if key not in dumped
              else "same" if dumped[key] == value else "differs"
              for key, value in digests.items()}
    text += "".join(f" {key}={state}" for key, state in states.items())
    return text, (diff <= MAX_ABS_DIFF
                  and states["metrics"] == states["report"] == "same")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    parser.add_argument("--dest", default=None,
                        help="directory for workload files and renders "
                             "(default: a temporary directory)")
    parser.add_argument("--dump", metavar="DIR", default=None,
                        help="save each render's float64 samples as "
                             "DIR/<workload>-seed<n>.npy and its WAV, metrics "
                             "and report digests as DIR/<workload>-seed<n>.json")
    parser.add_argument("--compare", metavar="DIR", default=None,
                        help="print each render's max abs difference from "
                             "the samples another checkout dumped to DIR, "
                             "and whether its WAV, metrics and report digests "
                             "match; exit 1 on a sample, metrics or report "
                             "difference or a missing dump")
    args = parser.parse_args(argv)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        dest = args.dest or tmp
        for name in WORKLOADS:
            for seed in args.seeds:
                line, digests, output = fingerprint(name, seed, dest)
                print(line, flush=True)
                stem = f"{name}-seed{seed}"
                if args.dump:
                    np.save(os.path.join(args.dump, stem + ".npy"), output)
                    with open(os.path.join(args.dump, stem + ".json"), "w",
                              encoding="utf-8") as fh:
                        json.dump(digests, fh)
                if args.compare:
                    text, ok = compare(output, digests,
                                       os.path.join(args.compare, stem))
                    print(f"{name} seed={seed} {text}", flush=True)
                    if not ok:
                        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
