#!/usr/bin/env python3
"""Render benchmark for obar: realtime factor of ``run_render``.

    python3 perfbench/run.py --workload broadcast-step --seed 0 --seconds 10 --trace 0

Generates the workload from --seed under perfbench/.work, then renders it
again and again, one fresh child process per render (a closed loop with one
client), until --seconds have passed. Every render's outputs are checked.
An untraced run with fewer than three renders adds set-up-only children so
that setup_s is a median of three.

--trace 0 reports the end-to-end metrics: rtf (audio seconds per wall second
of run_render), setup_s (import obar and parse every input document) and
peak_rss_mb (peak RSS of the render process), each the median over the
run's renders.
--trace 1 alternates untraced and traced renders and reports per-layer self
times and call counts from the traced ones, plus engine.trace_overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric with
its unit, sample count and quartiles, the fail rate, and the environment. A
copy of the result, with every sample, goes to perfbench/.results/. The exit
code is 0 only when every render succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / ".results"

# A run must end within 180 s; no render starts that would likely end later
# than this, and a child still running at HARD_LIMIT_S + 10 s is killed.
HARD_LIMIT_S = 150.0

# Fewer renders than this in an untraced run are topped up with set-up-only
# children, so that setup_s is always a median of at least this many.
MIN_SETUPS = 3

# Pinned for every render so that runs of two commits use the same settings.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Defined in perfbench/workloads.py, which needs obar; named here so that
# --help and argument errors work without it.
WORKLOAD_NAMES = ("broadcast-step", "dense-ring", "live-switch")

END_TO_END = (("rtf", "s/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "scene.parse": ("scene.parse_s", None),
    "context.measure": ("context.measure_s", "context.measure_calls"),
    "context.update": ("context.update_s", None),
    "adapt.rules": ("adapt.rules_s", None),
    "adapt.preview": ("adapt.preview_s", "adapt.preview_calls"),
    "adapt.preview_filter": ("adapt.preview_filter_s", None),
    "dsp.tilt_design": ("dsp.tilt_design_s", "dsp.tilt_designs"),
    "dsp.directives": ("dsp.directives_s", "dsp.directive_calls"),
    "routing.route": ("routing.route_s", None),
    "routing.band_subset": ("routing.band_subset_s", "routing.band_subset_calls"),
    "routing.trial_build": ("routing.trial_build_s", "routing.trial_builds"),
    "renderers.pm_design": ("renderers.pm_design_s", "renderers.pm_designs"),
    "renderers.render_block": ("renderers.render_block_s",
                               "renderers.render_block_calls"),
    "dsp.fir": ("dsp.fir_s", "dsp.fir_calls"),
    "dsp.delay": ("dsp.delay_s", "dsp.delay_calls"),
    "engine.build_drive": ("engine.build_drive_s", "engine.drive_builds"),
    "wavio.write": ("wavio.write_s", None),
    "engine.render": ("engine.self_s", None),
}
DERIVED = {
    "engine.builds_per_assignment": "ratio",
    "engine.crossfades": "count",
    "engine.cpu_s": "s",
    "engine.trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for time_metric, count_metric in SPAN_METRICS.values():
        units[time_metric] = "s"
        if count_metric:
            units[count_metric] = "count"
    units.update(DERIVED)
    return units


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a value that
    repeats in every sample, such as a call count, keeps its type."""
    if len(set(values)) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def layer_values(spans, missing, report_counts) -> dict[str, float | None]:
    """Per-layer metrics of one traced render; None marks a missing layer."""
    from perfbench import tracer

    totals = tracer.self_times(spans)
    values: dict[str, float | None] = {}
    for span, (time_metric, count_metric) in SPAN_METRICS.items():
        seconds, count = totals.get(span, (0.0, 0))
        gone = span in missing
        values[time_metric] = None if gone else seconds
        if count_metric:
            values[count_metric] = None if gone else count
    values["engine.crossfades"] = report_counts["crossfades"]
    builds = (values["routing.trial_builds"], values["engine.drive_builds"])
    values["engine.builds_per_assignment"] = (
        None if None in builds else sum(builds) / report_counts["assignments"])
    return values


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, renders: int) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "renders": renders,
    }


class Run:
    """One benchmark run: the generated workload and every render of it."""

    def __init__(self, args, files, work: Path, deadline: float):
        from perfbench import workloads

        self.args = args
        self.files = files
        self.workload = workloads.WORKLOADS[args.workload]
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))),
                        **THREAD_ENV)
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.expected_hashes = None
        self.first_problems: list[str] = []
        self.report_counts = None
        self.spans: dict[int, list] = {}

    def _child(self, record: dict, *extra: str) -> dict | None:
        """Run one child process; its result, or None after recording why
        it failed."""
        index = record["index"]
        result_path = self.work / f"result-{index}.json"
        cmd = [sys.executable, "-m", "perfbench.child",
               "--scene", self.files.scene, "--scenario", self.files.scenario,
               "--rulebook", self.files.rulebook,
               "--selection", self.files.selection,
               "--result", str(result_path), "--src", str(SRC), *extra]
        self.records.append(record)
        timeout = max(self.deadline + 10.0 - time.perf_counter(), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            self._fail(record, f"child {index} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            self._fail(record, f"child {index} exited {proc.returncode}: {tail[0]}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result

    def render(self, traced: bool) -> dict:
        """One render in a fresh process, with its outputs checked."""
        index = len(self.records)
        out_dir = self.work / f"render-{index}"
        out_dir.mkdir()
        wav = out_dir / "mix.wav"
        record = {"index": index, "kind": "traced" if traced else "render",
                  "ok": False}
        result = self._child(
            record, "--out", str(wav), "--block", str(self.workload.block_size),
            "--trace", "1" if traced else "0")
        if result is not None:
            spans = result.pop("spans", None)
            record.update(result)
            problems = self._check(wav)
            if traced:
                problems += [f"{name} still wrapped after the traced render"
                             for name in result["not_restored"]]
                self.spans[index] = spans
            if problems:
                self._fail(record, *problems)
            else:
                record["ok"] = True
        shutil.rmtree(out_dir)
        return record

    def setup(self) -> dict:
        """One set-up without a render, for more set-up samples."""
        record = {"index": len(self.records), "kind": "setup", "ok": False}
        result = self._child(record, "--setup-only")
        if result is not None:
            record.update(result, ok=True)
        return record

    def _fail(self, record, *problems):
        record["problems"] = list(problems)
        self.problems += [p for p in problems if p not in self.problems]

    def _check(self, wav: Path) -> list[str]:
        """Full checks on the first render; byte identity on the others."""
        from perfbench import checks

        metrics = Path(str(wav) + ".metrics.csv")
        hashes = (_sha256(wav), _sha256(metrics))
        if self.expected_hashes is None:
            self.expected_hashes = hashes
            report_path = str(wav) + ".report.json"
            self.first_problems = checks.check_render(
                self.args.workload, self.args.seed, self.files, str(wav),
                str(metrics), report_path)
            if not self.first_problems:
                with open(report_path, encoding="utf-8") as fh:
                    intervals = json.load(fh)["intervals"]
                self.report_counts = {
                    "assignments": sum(len(iv["assignments"]) for iv in intervals),
                    "crossfades": sum(len(iv["crossfades"]) for iv in intervals),
                }
            return list(self.first_problems)
        if hashes != self.expected_hashes:
            return ["WAV or metrics CSV differs from the first render of the run"]
        return list(self.first_problems)

    def setup_samples(self) -> int:
        return sum(r["ok"] and r["kind"] != "traced" for r in self.records)

    def metrics(self) -> dict:
        ok = [r for r in self.records if r["ok"]]
        plain = [r for r in ok if r["kind"] == "render"]
        if not self.args.trace:
            samples = {
                "rtf": [self.workload.duration_s / r["render_s"] for r in plain],
                "setup_s": [r["setup_s"] for r in ok if r["kind"] != "traced"],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            }
            units = dict(END_TO_END)
        else:
            traced = [r for r in ok if r["kind"] == "traced"]
            per_render = [layer_values(self.spans[r["index"]], r["missing"],
                                       self.report_counts) for r in traced]
            units = per_layer_units()
            samples = {name: [v[name] for v in per_render if v.get(name) is not None]
                       for name in units}
            samples["engine.cpu_s"] = [r["cpu_s"] for r in plain]
            if plain and traced:
                samples["engine.trace_overhead"] = [
                    statistics.median(r["render_s"] for r in traced)
                    / statistics.median(r["render_s"] for r in plain)]
        out = {}
        for name, unit in units.items():
            values = samples.get(name) or []
            if values:
                q1, med, q3 = quartiles(values)
                out[name] = {"value": med, "unit": unit, "n": len(values),
                             "q1": q1, "q3": q3}
            else:
                out[name] = {"value": None, "unit": unit, "n": 0}
        return out


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "obar" / "__init__.py").is_file():
        print(f"no obar sources at {SRC / 'obar'}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # Set-up is timed as an installed package pays it, with bytecode
    # already compiled, whatever PYTHONDONTWRITEBYTECODE says.
    compileall.compile_dir(str(SRC / "obar"), quiet=1)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        files = workloads.generate(args.workload, args.seed, str(work / "inputs"))
        run = Run(args, files, work, started + HARD_LIMIT_S)
        measure_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if args.trace:
                run.render(traced=False)
            run.render(traced=bool(args.trace))
            now = time.perf_counter()
            if (now - measure_start >= args.seconds
                    or now + (now - round_start) > run.deadline):
                break
        while not args.trace and run.setup_samples() < MIN_SETUPS:
            setup_start = time.perf_counter()
            if not run.setup()["ok"]:
                break
            now = time.perf_counter()
            if now + (now - setup_start) > run.deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run.metrics()
    attempted = len(run.records)
    failed = sum(not r["ok"] for r in run.records)
    renders = sum(r["kind"] != "setup" for r in run.records)
    env = environment(args, renders)
    correct = failed == 0

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "children": run.records,
                   "problems": run.problems}, fh, indent=1)
    if run.spans:
        with gzip.open(RESULTS_DIR / f"{stem}.spans.json.gz", "wt",
                       encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "renders": run.spans}, fh)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{renders} renders and {attempted - renders} extra set-ups "
          f"in {time.perf_counter() - started:.1f} s")
    for name, m in metrics.items():
        if m["value"] is None:
            print(f"  {name}: missing ({m['unit']})")
        else:
            print(f"  {name} = {m['value']:.6g} {m['unit']}  "
                  f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    print(f"  fail_rate = {failed / attempted:.6g}  ({failed} of {attempted} "
          "child processes failed)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
