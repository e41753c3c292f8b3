"""The engine mixes each interval's steady spans on one worker thread per
render while the render's thread decides the next plan: the calls the
benchmark traces stay on the render's thread, the output equals one-thread
mixing byte for byte, and a failure on either thread leaves no output and
no thread."""

import importlib
import json
import os
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from obar import demo, engine
from obar.cli import main as cli_main
from obar.engine import RenderJob, run_render
from obar.errors import JobError, ObarError

from obar_helpers import ring_speakers, scenario_doc, write_json

ROOT = Path(__file__).resolve().parents[1]
SPEAKERS = 6
DURATION_S = 6.0


@pytest.fixture
def workloads(monkeypatch):
    """perfbench.workloads, for the live-switch selection table."""
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.workloads")


def _job(d, workloads=None, **options):
    """The demo scene, DURATION_S long, on a SPEAKERS ring. With the
    benchmark's workloads module, under the live-switch selection table
    and a noise floor that crosses its threshold every interval, so every
    update crossfades; without, in quiet noise under the default table, so
    nothing fades."""
    scene = demo.write_demo_scene(d, duration_s=DURATION_S)
    timeline = [{"t_s": 0.0, "band_levels_db": [demo.QUIET_BAND_DB] * 7}]
    extra = {}
    if workloads is not None:
        timeline = [{"t_s": 2.0 * k, "band_levels_db": [level] * 7}
                    for k, level in enumerate(
                        workloads.live_switch_levels(DURATION_S))]
        extra["selection_path"] = write_json(
            d, workloads.LIVE_SELECTION_DOC, "selection.json")
    scenario = write_json(
        d, scenario_doc(ring_speakers(SPEAKERS), noise_timeline=timeline),
        "scenario.json")
    return RenderJob(scene_path=scene, scenario_path=scenario,
                     out_path=os.path.join(d, "out.wav"), **extra, **options)


def _crossfades(report):
    return sum(len(iv["crossfades"]) for iv in report["intervals"])


def _recording(name, fn, calls):
    def recorded(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return fn(*args, **kwargs)
    return recorded


@pytest.mark.parametrize("fading", [True, False])
def test_traced_calls_run_on_the_render_thread(tmp_path, monkeypatch,
                                               workloads, fading):
    """Every attribute the benchmark's tracer wraps is called on the
    thread that called run_render (its span stack is one per process), and
    the steady spans are mixed on another."""
    tracer = importlib.import_module("perfbench.tracer")
    calls = []
    for name, module, attr_path in tracer.TARGETS:
        owner, attr = tracer._resolve(module, attr_path)
        monkeypatch.setattr(owner, attr,
                            _recording(name, vars(owner)[attr], calls))
    monkeypatch.setattr(engine, "_mix_block",
                        _recording("_mix_block", engine._mix_block, calls))
    job = _job(str(tmp_path), workloads if fading else None)
    report = run_render(job).report
    assert (_crossfades(report) > 0) == fading

    render_thread = threading.get_ident()
    traced = {name for name, _ in calls if name != "_mix_block"}
    assert {"routing.route", "engine.build_drive", "wavio.write"} <= traced
    off_thread = {name for name, ident in calls if ident != render_thread}
    assert off_thread == {"_mix_block"}
    mixes_here = [ident == render_thread
                  for name, ident in calls if name == "_mix_block"]
    # fading spans mix here and call the traced render_block; with no
    # fade, every span mixes on the second thread
    assert any(mixes_here) == fading
    if fading:
        assert "renderers.render_block" in traced


class _InlineExecutor:
    """A ThreadPoolExecutor whose submit runs the call at once and returns
    its finished future."""

    def __init__(self, max_workers=None, thread_name_prefix=""):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _outputs(result):
    with open(result.out_path, "rb") as fh:
        wav = fh.read()
    with open(result.metrics_path, "rb") as fh:
        metrics = fh.read()
    with open(result.report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    del report["timing"]
    return wav, metrics, report


@pytest.mark.parametrize("fading, block", [(True, 256), (False, 1024)])
def test_threaded_mixing_equals_inline_mixing(tmp_path, monkeypatch,
                                              workloads, fading, block):
    """With the interpreter switching threads as often as it can, the
    render equals one whose mixing worker runs its spans inside submit()."""
    job = _job(str(tmp_path), workloads if fading else None, block_size=block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _outputs(run_render(job))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _InlineExecutor)
    inline = _outputs(run_render(job))
    assert threaded == inline
    assert (_crossfades(threaded[2]) > 0) == fading


def test_one_mixing_worker_mixes_every_interval(tmp_path, monkeypatch):
    """Over a render of three intervals, every steady span is mixed on one
    and the same worker thread, which is gone when the render returns."""
    threads = []

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return mix_block(*args, **kwargs)

    mix_block = engine._mix_block
    monkeypatch.setattr(engine, "_mix_block", recorded)
    before = threading.active_count()
    report = run_render(_job(str(tmp_path))).report
    assert len(report["intervals"]) == 3
    workers = set(threads) - {threading.current_thread()}
    assert len(workers) == 1
    assert not workers.pop().is_alive()
    assert threading.active_count() == before


def _fail_route_on_second_call(monkeypatch):
    """Plan 1's routing raises, while interval 0 is being mixed; returns
    the CLI's diagnostic."""
    route = engine.route
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ObarError("route failed while interval 0 mixed")
        return route(*args, **kwargs)

    monkeypatch.setattr(engine, "route", failing)
    return "error [obar]: route failed while interval 0 mixed"


def _fail_a_steady_span(monkeypatch):
    """The second thread's third span raises; returns the CLI's
    diagnostic."""
    mix_block = engine._mix_block
    render_thread = threading.get_ident()
    calls = []

    def failing(*args, **kwargs):
        if threading.get_ident() != render_thread:
            calls.append(None)
            if len(calls) == 3:
                raise JobError("steady span failed on the mixing thread")
        return mix_block(*args, **kwargs)

    monkeypatch.setattr(engine, "_mix_block", failing)
    return "error [cli_io]: steady span failed on the mixing thread"


@pytest.mark.parametrize("fail", [_fail_route_on_second_call,
                                  _fail_a_steady_span])
def test_failure_while_mixing_leaves_no_output_and_no_thread(
        tmp_path, capsys, monkeypatch, fail):
    d = str(tmp_path)
    job = _job(d)
    before = set(os.listdir(d))
    diagnostic = fail(monkeypatch)
    threads = threading.active_count()
    rc = cli_main(["render", "--scene", job.scene_path,
                   "--scenario", job.scenario_path, "--out", job.out_path])
    assert rc == 1
    assert capsys.readouterr().err == diagnostic + "\n"
    assert set(os.listdir(d)) == before
    assert threading.active_count() == threads
