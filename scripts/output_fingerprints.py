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
float32 rounding) as DIR/<workload>-seed<n>.npy. --compare DIR loads the
same file from another checkout's dump and prints, after each line,

    <workload> seed=<n> max_abs_diff=<value>

and exits 1 when any value exceeds MAX_ABS_DIFF (1e-9) or a dump is
missing or has another shape. A change meant to move the audio by rounding
only is gated by

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


def fingerprint(name: str, seed: int, dest: str) -> tuple[str, np.ndarray]:
    """The fingerprint line of one render and its float64 samples."""
    work = os.path.join(dest, f"{name}-seed{seed}")
    files = generate(name, seed, work)
    out = os.path.join(work, "out.wav")
    result = run_render(RenderJob(
        scene_path=files.scene, scenario_path=files.scenario, out_path=out,
        rulebook_path=files.rulebook, selection_path=files.selection,
        block_size=WORKLOADS[name].block_size))
    line = (f"{name} seed={seed} wav={_sha256_file(out)} "
            f"metrics={_sha256_file(result.metrics_path)} "
            f"report={report_digest(result.report_path)}")
    return line, result.output


def max_abs_diff(output: np.ndarray, path: str) -> float | None:
    """Largest sample difference from a dumped render; None when the dump
    is missing or has another shape."""
    if not os.path.isfile(path):
        return None
    other = np.load(path)
    if other.shape != output.shape:
        return None
    return float(np.max(np.abs(output - other), initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    parser.add_argument("--dest", default=None,
                        help="directory for workload files and renders "
                             "(default: a temporary directory)")
    parser.add_argument("--dump", metavar="DIR", default=None,
                        help="save each render's float64 samples as "
                             "DIR/<workload>-seed<n>.npy")
    parser.add_argument("--compare", metavar="DIR", default=None,
                        help="print each render's max abs difference from "
                             "the samples another checkout dumped to DIR")
    args = parser.parse_args(argv)
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        dest = args.dest or tmp
        for name in WORKLOADS:
            for seed in args.seeds:
                line, output = fingerprint(name, seed, dest)
                print(line, flush=True)
                npy = f"{name}-seed{seed}.npy"
                if args.dump:
                    np.save(os.path.join(args.dump, npy), output)
                if args.compare:
                    diff = max_abs_diff(output, os.path.join(args.compare, npy))
                    if diff is None:
                        print(f"{name} seed={seed} max_abs_diff=unavailable "
                              f"(no dump of the same shape in {args.compare})",
                              flush=True)
                        status = 1
                    else:
                        print(f"{name} seed={seed} max_abs_diff={diff:.3e}",
                              flush=True)
                        if diff > MAX_ABS_DIFF:
                            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
