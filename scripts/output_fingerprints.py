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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from obar.engine import RenderJob, run_render  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

VOLATILE_REPORT_KEYS = ("timing", "scene", "scenario")


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


def fingerprint(name: str, seed: int, dest: str) -> str:
    work = os.path.join(dest, f"{name}-seed{seed}")
    files = generate(name, seed, work)
    out = os.path.join(work, "out.wav")
    result = run_render(RenderJob(
        scene_path=files.scene, scenario_path=files.scenario, out_path=out,
        rulebook_path=files.rulebook, selection_path=files.selection,
        block_size=WORKLOADS[name].block_size))
    return (f"{name} seed={seed} wav={_sha256_file(out)} "
            f"metrics={_sha256_file(result.metrics_path)} "
            f"report={report_digest(result.report_path)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    parser.add_argument("--dest", default=None,
                        help="directory for workload files and renders "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dest = args.dest or tmp
        for name in WORKLOADS:
            for seed in args.seeds:
                print(fingerprint(name, seed, dest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
