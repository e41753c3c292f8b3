"""Tests of the benchmark itself: tracer arithmetic and hygiene, workload
generation, and the output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import obar.adapt
import obar.dsp
from obar.context import parse_scenario
from obar.engine import RenderJob, run_render
from obar.rules import load_rulebook, load_selection_rules
from obar.scene import parse_scene, validate_scene
from perfbench import checks, tracer, workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0, 100, -1),
        ("mid", 10, 40, 0),
        ("leaf", 20, 30, 1),
        ("leaf", 50, 60, 0),
        ("leaf", 55, 70, 0),   # overlaps its sibling; covered once
    ]
    totals = {name: (round(s * 1e9), n)
              for name, (s, n) in tracer.self_times(spans).items()}
    assert totals == {"root": (100 - 30 - 20, 1), "mid": (20, 1),
                      "leaf": (10 + 10 + 15, 3)}


def test_wrappers_record_nested_spans_and_are_restored():
    recorder = tracer.Tracer()
    originals, missing = tracer.install(recorder)
    try:
        assert missing == []
        assert {f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in originals} \
            == set(tracer.check_restored(originals))
        obar.adapt.apply_directives(
            np.ones(64), [obar.dsp.Directive("spectral_tilt", 3.0)], 48000)
    finally:
        tracer.uninstall(originals)
    assert tracer.check_restored(originals) == []
    assert len(originals) == len(tracer.TARGETS)
    spans = recorder.finished()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("adapt.preview_filter", -1), ("dsp.tilt_design", 0)]


def test_missing_target_is_reported_not_wrapped():
    targets = (("dsp.tilt_design", "obar.dsp", "design_tilt_ba"),
               ("gone", "obar.dsp", "no_such_function"),
               ("gone.too", "obar.no_such_module", "anything"))
    originals, missing = tracer.install(tracer.Tracer(), targets)
    tracer.uninstall(originals)
    assert missing == ["gone", "gone.too"]
    assert [a for _, a, _ in originals] == ["design_tilt_ba"]
    assert tracer.check_restored(originals) == []


def _tree(path: Path):
    return sorted(p.relative_to(path) for p in path.rglob("*") if p.is_file())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_and_valid(name, tmp_path):
    first = workloads.generate(name, 3, str(tmp_path / "a"))
    workloads.generate(name, 3, str(tmp_path / "b"))
    workloads.generate(name, 4, str(tmp_path / "c"))
    files = _tree(tmp_path / "a")
    assert files == _tree(tmp_path / "b")
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b", [str(f) for f in files], shallow=False)
    assert mismatch == [] and errors == []
    _, changed, _ = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "c", [str(f) for f in files], shallow=False)
    assert "narrator.wav" in changed and "scene.json" in changed

    scene = parse_scene(first.scene)
    assert validate_scene(scene) == []
    w = workloads.WORKLOADS[name]
    assert scene.duration_samples == int(w.duration_s * scene.sample_rate)
    layout, listeners, _, timeline = parse_scenario(first.scenario)
    assert len(layout.speakers) == w.speakers
    assert load_rulebook(first.rulebook) and load_selection_rules(first.selection)


def test_live_switch_levels_stay_on_their_side_of_the_threshold():
    levels = workloads.live_switch_levels(12.0)
    margin = workloads.LIVE_JITTER_DB
    for k, band_db in enumerate(levels):
        broadband = band_db + workloads.BROADBAND_OFFSET_DB
        if k % 2:
            assert broadband - margin > workloads.LIVE_THRESHOLD_DB
        else:
            assert broadband + margin < workloads.LIVE_THRESHOLD_DB
    assert len(set(levels)) == len(levels)


@pytest.fixture(scope="module")
def default_render(tmp_path_factory):
    """One broadcast-step render at the default seed, in-process."""
    d = tmp_path_factory.mktemp("render")
    name = "broadcast-step"
    files = workloads.generate(name, checks.DEFAULT_SEED, str(d / "inputs"))
    result = run_render(RenderJob(
        scene_path=files.scene, scenario_path=files.scenario,
        out_path=str(d / "mix.wav"), rulebook_path=files.rulebook,
        selection_path=files.selection,
        block_size=workloads.WORKLOADS[name].block_size))
    return name, files, result


def _corrupt(result, tmp_path, swap_csv: bool):
    """Copy the render's outputs with channels 0 and 1 swapped."""
    wav = tmp_path / "mix.wav"
    rate, data = wavfile.read(result.out_path)
    wavfile.write(wav, rate, data[:, [1, 0] + list(range(2, data.shape[1]))])
    metrics = tmp_path / "mix.metrics.csv"
    text = Path(result.metrics_path).read_text()
    if swap_csv:
        text = (text.replace("rms_db_ch0", "rms_db_chX")
                .replace("rms_db_ch1", "rms_db_ch0")
                .replace("rms_db_chX", "rms_db_ch1"))
    metrics.write_text(text)
    report = tmp_path / "mix.report.json"
    shutil.copy(result.report_path, report)
    return str(wav), str(metrics), str(report)


def test_checks_accept_the_default_render(default_render):
    name, files, result = default_render
    assert checks.check_render(
        name, checks.DEFAULT_SEED, files, result.out_path,
        result.metrics_path, result.report_path) == []


@pytest.mark.parametrize("swap_csv", [False, True])
def test_checks_reject_swapped_channels(default_render, tmp_path, swap_csv):
    name, files, result = default_render
    problems = checks.check_render(
        name, checks.DEFAULT_SEED, files, *_corrupt(result, tmp_path, swap_csv))
    assert problems
    if swap_csv:
        # WAV and CSV agree with each other; only the reference catches it
        assert all(p.startswith("reference:") for p in problems)


def test_checks_reject_a_ladder_before_the_step(default_render, tmp_path):
    name, files, result = default_render
    report = json.loads(Path(result.report_path).read_text())
    report["intervals"][0]["adaptation"]["applied"] = \
        report["intervals"][-1]["adaptation"]["applied"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    problems = checks.check_render(name, 1, files, result.out_path,
                                   result.metrics_path, str(path))
    assert any("before the step" in p for p in problems)


def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".results",
                                                  "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "broadcast-step",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    from perfbench import run

    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
