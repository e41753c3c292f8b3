#!/usr/bin/env python3
"""Record the default-seed fingerprint of every workload in reference.json.

    python3 perfbench/record_reference.py

Renders each workload once at checks.DEFAULT_SEED with the same thread
settings as the benchmark, runs every seed-independent output check on the
result, and writes the assignments, applied actions and per-interval channel
levels to perfbench/reference.json. Run it only at a commit whose output is
known good; later renders at the default seed are compared against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run

    os.environ.update(run.THREAD_ENV)
    from obar.engine import RenderJob, run_render
    from perfbench import checks, workloads

    reference = {}
    work = run.WORK_DIR / f"reference-{os.getpid()}"
    try:
        for name, w in workloads.WORKLOADS.items():
            files = workloads.generate(name, checks.DEFAULT_SEED, str(work / name))
            result = run_render(RenderJob(
                scene_path=files.scene, scenario_path=files.scenario,
                out_path=str(work / name / "mix.wav"),
                rulebook_path=files.rulebook, selection_path=files.selection,
                block_size=w.block_size))
            found = checks.fingerprint(result.report,
                                       checks.read_metrics(result.metrics_path))
            problems = checks.check_render(
                name, checks.DEFAULT_SEED, files, result.out_path,
                result.metrics_path, result.report_path, {name: found})
            if problems:
                print(f"{name}: not recorded: {problems}", file=sys.stderr)
                return 1
            reference[name] = found
            print(f"{name}: {len(found['intervals'])} intervals")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
