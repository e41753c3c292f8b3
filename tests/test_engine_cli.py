"""Engine and CLI behavior: the block loop, context updates, lane handling,
crossfade records, report/metrics emission, and the four subcommands."""

import collections
import csv
import hashlib
import json
import math
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from obar import context, demo, dsp, engine, renderers, routing
from obar.cli import main as cli_main
from obar.engine import RenderJob, run_render
from obar.errors import JobError, RankDeficient
from obar.geometry import Direction3
from obar.rules import (
    DEFAULT_RULEBOOK_DOC,
    DEFAULT_SELECTION_DOC,
    load_rulebook,
    load_selection_rules,
    parse_selection_rules,
)
from obar.scene import AudioObject, ObjectType, mono_mix, parse_scene

from obar_helpers import (
    FS,
    music_like,
    noise_like,
    object_doc,
    render_output,
    ring_speakers,
    scenario_doc,
    scene_doc,
    speech_like,
    write_json,
    write_scene,
    write_stem,
)

QUIET_TIMELINE = [{"t_s": 0.0, "band_levels_db": [-80.0] * 7}]


def step_timeline(t_s=2.0, level_db=-50.0):
    return [
        {"t_s": 0.0, "band_levels_db": [-80.0] * 7},
        {"t_s": t_s, "band_levels_db": [level_db] * 7},
    ]


def make_job(tmp_path, objects, *, speakers=3, noise_timeline=None,
             intelligibility=0.0, rulebook=None, selection=None,
             out_name="out.wav", **job_over):
    d = str(tmp_path)
    scene = write_scene(d, scene_doc(objects, intelligibility=intelligibility))
    scenario = write_json(
        d,
        scenario_doc(ring_speakers(speakers),
                     noise_timeline=noise_timeline or QUIET_TIMELINE),
        "scenario.json")
    extra = {}
    if rulebook is not None:
        extra["rulebook_path"] = write_json(d, rulebook, "rules.json")
    if selection is not None:
        extra["selection_path"] = write_json(d, selection, "select.json")
    return RenderJob(scene_path=scene, scenario_path=scenario,
                     out_path=os.path.join(d, out_name), **extra, **job_over)


def two_object_docs(d, duration_s=2.5):
    dlg = write_stem(d, "dlg.wav", speech_like(duration_s))
    mus = write_stem(d, "mus.wav", music_like(duration_s))
    return [
        object_doc("narrator", "dialogue", [dlg], priority=9,
                   position={"az": 0.0, "el": 0.0, "dist": None},
                   advanced={"onscreen": True}),
        object_doc("band", "music", [mus], priority=4, level_db=-3.0,
                   position={"az": -35.0, "el": 0.0, "dist": None}),
    ]


class TestEngine:
    def test_output_matches_layout_and_scene_duration(self, tmp_path):
        job = make_job(tmp_path, two_object_docs(str(tmp_path)))
        result, output = render_output(job)
        n = int(2.5 * FS)
        assert output.shape == (n, 3)
        assert result.report["duration_samples"] == n
        assert result.report["channels"] == ["s0", "s1", "s2"]
        rate, data = wavfile.read(job.out_path)
        assert rate == FS
        assert data.dtype == np.float32
        assert data.shape == (n, 3)
        assert np.allclose(data, output.astype(np.float32))

    def test_memory_does_not_grow_with_duration(self, tmp_path):
        """The output streams to the WAV through a window of about one
        interval, so rendering 8 s more of a 12-speaker ring adds only the
        longer stem and its mix to the peak allocation, far below the 37 MB
        that 8 s x 12 channels of float64 output would take."""
        def peak_bytes(name, duration_s):
            d = str(tmp_path / name)
            os.makedirs(d)
            stem = write_stem(d, "hum.wav", music_like(duration_s))
            job = make_job(d, [object_doc(
                "hum", "music", [stem],
                position={"az": 20.0, "el": 0.0, "dist": None})], speakers=12)
            tracemalloc.start()
            try:
                run_render(job)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak_bytes("long", 12.0) - peak_bytes("short", 4.0)
        assert growth < 12e6, growth

    def test_one_assignment_record_per_object_per_interval(self, tmp_path):
        job = make_job(tmp_path, two_object_docs(str(tmp_path), 5.0))
        report = run_render(job).report
        assert len(report["intervals"]) == 3  # updates at 0, 2, 4 s
        for iv in report["intervals"]:
            ids = [a["object_id"] for a in iv["assignments"]]
            assert ids == ["band", "narrator"]

    def test_spans_stop_at_updates_and_fade_ends(self, tmp_path, monkeypatch):
        """The block loop mixes spans of whole blocks, at most SPAN_SAMPLES
        long (or one block), that tile the render. No span crosses the
        block of a context update or the block holding a fade's end, where
        the outgoing lane's reads stop: here the outgoing lanes read
        decorrelated chains filtered only up to that block, the block
        length divides neither the interval nor the 0.3 s fade, and the
        render finishes."""
        d = str(tmp_path)
        stem = write_stem(d, "n.wav", noise_like(7.3))
        objects = [object_doc("hiss", "effect", [stem],
                              position={"az": 20.0, "el": 0.0, "dist": None})]
        rulebook = {"schema": "rulebook v1", "rules": [
            {"rule_id": "wide", "when": "true", "actions": [
                {"kind": "decorrelate", "amount": 0.5,
                 "select": "type == 'effect'"}]}]}
        selection = {"schema": "selection v1", "rules": [
            {"match": "noise_broadband_db > -45",
             "renderer": "AmbiMM", "order": 2},
            {"match": "true", "renderer": "VBAP"},
        ]}
        timeline = [{"t_s": t, "band_levels_db": [level] * 7}
                    for t, level in ((0.0, -80.0), (2.0, -40.0),
                                     (4.0, -80.0), (6.0, -40.0))]
        block = 700
        job = make_job(tmp_path, objects, speakers=5, noise_timeline=timeline,
                       rulebook=rulebook, selection=selection,
                       block_size=block, crossfade_s=0.3)
        spans = []
        mix = engine._mix_block

        def recording(lanes, t0, size, out):
            assert size == block
            spans.append((t0, t0 + len(out)))
            return mix(lanes, t0, size, out)

        monkeypatch.setattr(engine, "_mix_block", recording)
        report = run_render(job).report

        n_total = report["duration_samples"]
        starts = [a for a, _ in spans]
        ends = [b for _, b in spans]
        assert starts == [0] + ends[:-1]
        assert ends[-1] >= n_total > starts[-1]
        longest = max(1, engine.SPAN_SAMPLES // block) * block
        assert all(b - a <= longest and (b - a) % block == 0
                   for a, b in spans)
        interval = int(engine.CONTEXT_INTERVAL_S * FS)
        updates = [-(-k * interval // block) * block
                   for k in range(-(-n_total // interval))]
        assert set(updates) <= set(starts)
        fades = [f for iv in report["intervals"] for f in iv["crossfades"]]
        assert len(fades) == 3
        for fade in fades:
            t = round(fade["start_s"] * FS)
            end = t + job.crossfade_s * FS
            while t + block - 1 < end:
                t += block
            assert t + block in ends, fade
        assert len(spans) > len(updates) + len(fades)

    @pytest.mark.parametrize("crossfade_s, block", [
        (0.0123, 256),     # 590.4 samples
        (0.005, 240),      # 240 samples: the outgoing lane reads its whole tail
        (0.0033125, 160),  # 159 samples: the fade ends on a block's last sample
    ])
    def test_fractional_fades_do_not_depend_on_the_span_length(
            self, tmp_path, monkeypatch, crossfade_s, block):
        """The demo scene under the live-switch selection table, its noise
        crossing the table's threshold every interval, with short fades:
        the render mixed in spans of SPAN_SAMPLES is byte-identical to the
        one mixed a block at a time, and neither reads an outgoing chain
        past the tail its plan filtered."""
        monkeypatch.syspath_prepend(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from perfbench import workloads

        d = str(tmp_path)
        timeline = [{"t_s": 2.0 * k, "band_levels_db": [level] * 7}
                    for k, level in enumerate(workloads.live_switch_levels(6.0))]
        job = RenderJob(
            scene_path=demo.write_demo_scene(d, duration_s=6.0),
            scenario_path=write_json(d, scenario_doc(
                ring_speakers(6), noise_timeline=timeline), "scenario.json"),
            selection_path=write_json(
                d, workloads.LIVE_SELECTION_DOC, "selection.json"),
            out_path=os.path.join(d, "out.wav"), block_size=block,
            crossfade_s=crossfade_s)

        def rendered():
            result = run_render(job)
            with open(result.out_path, "rb") as wav, \
                    open(result.metrics_path, "rb") as metrics:
                return wav.read(), metrics.read(), result.report

        spanned = rendered()
        monkeypatch.setattr(engine, "SPAN_SAMPLES", block)
        blockwise = rendered()
        assert spanned[:2] == blockwise[:2]
        fades = [f for iv in spanned[2]["intervals"] for f in iv["crossfades"]]
        assert len(fades) == 4

    @staticmethod
    def _render_on_demo_devices(tmp_path, latency_ms=None):
        """A 10 s music object at 10 degrees on the demo devices, the
        noise crossing a selection threshold at 2 s and back at 4 s, so
        the object fades from VBAP to AmbiMM(1) and back; latency_ms, if
        given, replaces every device's latency. From the fourth update on,
        a metric window stays open into the next update's first span, the
        case that fills the output buffer."""
        d = str(tmp_path)
        devices_path = demo.write_demo_devices(d)
        if latency_ms is not None:
            with open(devices_path, encoding="utf-8") as fh:
                devices = json.load(fh)
            for device in devices["devices"]:
                device["latency_ms"] = latency_ms
            write_json(d, devices, "devices.json")
        write_stem(d, "m.wav", noise_like(10.0))
        # per band; over the 7 bands, -34.05 and -26.05 dB broadband
        quiet, loud = -42.5, -34.5
        timeline = [{"t_s": 2.0 * k, "band_levels_db": [level] * 7}
                    for k, level in enumerate((quiet, loud, quiet))]
        scenario = scenario_doc([], noise_timeline=timeline)
        scenario["layout"] = "devices.json"
        job = RenderJob(
            scene_path=write_scene(d, scene_doc([object_doc(
                "m", "music", ["m.wav"],
                position={"az": 10.0, "el": 0.0, "dist": 2.0})])),
            scenario_path=write_json(d, scenario, "scenario.json"),
            selection_path=write_json(d, {"schema": "selection v1", "rules": [
                {"match": "type == 'music' and noise_broadband_db > -30.0",
                 "renderer": "AmbiMM", "order": 1},
                {"match": "true", "renderer": "VBAP"}]}, "selection.json"),
            out_path=os.path.join(d, "out.wav"))
        result, out = render_output(job)
        fades = [(f["from"], f["to"], f["start_s"])
                 for iv in result.report["intervals"] for f in iv["crossfades"]]
        assert [f[:2] for f in fades] == [("VBAP", "AmbiMM(1)"),
                                          ("AmbiMM(1)", "VBAP")]
        return result, out, fades

    def test_device_latencies_delay_each_channel_so_output_arrives_together(
            self, tmp_path):
        """On the demo devices (tv 10 ms, soundbars 15 ms, phone 30 ms)
        each output channel is the render with every latency at 0,
        delayed by its device's latency gap to the phone, with silence
        before, so what the render means to sound together does. The
        decisions, crossfades included, do not move."""
        plain, plain_out, _ = self._render_on_demo_devices(tmp_path / "plain", 0.0)
        late, late_out, _ = self._render_on_demo_devices(tmp_path / "late")
        assert late.report["channels"] == [
            "tv", "soundbar-left", "soundbar-right", "phone"]
        assert late.report["intervals"] == plain.report["intervals"]
        assert late_out.shape == plain_out.shape
        for c, latency_ms in enumerate((10.0, 15.0, 15.0, 30.0)):
            lag = round((30.0 - latency_ms) * FS / 1000)
            assert not np.any(late_out[:lag, c]), c
            assert np.array_equal(late_out[lag:, c],
                                  plain_out[: len(plain_out) - lag, c]), c
        assert np.any(late_out[:, :3])

    def test_a_latency_gap_longer_than_the_programme_silences_its_channel(
            self, tmp_path):
        """A tv 1e300 ms late (finite, so the scenario parses) puts every
        other device's channel more than the whole programme behind it:
        the render exits 0, those channels are silent, and the tv's channel
        is the one the render with every latency at 0 gives."""
        outputs = {}
        for name, tv_ms in (("plain", 0.0), ("late", 1e300)):
            d = str(tmp_path / name)
            devices_path = demo.write_demo_devices(d)
            with open(devices_path, encoding="utf-8") as fh:
                devices = json.load(fh)
            for device in devices["devices"]:
                if name == "plain" or device["id"] == "tv":
                    device["latency_ms"] = tv_ms
            write_json(d, devices, "devices.json")
            scenario = scenario_doc([])
            scenario["layout"] = "devices.json"
            scene = write_scene(d, scene_doc([object_doc(
                "m", "music", [write_stem(d, "m.wav", music_like(3.0))],
                position={"az": 10.0, "el": 0.0, "dist": 2.0})]))
            out = os.path.join(d, "out.wav")
            assert cli_main([
                "render", "--scene", scene, "--scenario",
                write_json(d, scenario, "scenario.json"), "--out", out]) == 0
            _, outputs[name] = wavfile.read(out)
        plain, late = outputs["plain"], outputs["late"]
        assert late.shape == plain.shape
        assert np.any(plain[:, 0]) and np.any(plain[:, 1:])
        assert np.array_equal(late[:, 0], plain[:, 0])
        assert not np.any(late[:, 1:])

    def test_a_silent_channel_costs_no_output_buffer(self, tmp_path):
        """A tv 1e300 ms late silences every other channel, and those
        channels' clipped lags size no buffer: the render's traced peak
        stays within 2 MB of the same render with every latency equal
        (a buffer as long as the 12 s programme on the five channels is
        23 MB)."""
        peaks = {}
        for name, tv_ms in (("equal", 0.0), ("late", 1e300)):
            d = str(tmp_path / name)
            devices_path = demo.write_demo_devices(d)
            with open(devices_path, encoding="utf-8") as fh:
                devices = json.load(fh)
            for device in devices["devices"]:
                device["latency_ms"] = tv_ms if device["id"] == "tv" else 0.0
            write_json(d, devices, "devices.json")
            scenario = scenario_doc([])
            scenario["layout"] = "devices.json"
            scene = write_scene(d, scene_doc([object_doc(
                "m", "music", [write_stem(d, "m.wav", music_like(12.0))],
                position={"az": 10.0, "el": 0.0, "dist": 2.0})]))
            job = RenderJob(scene_path=scene,
                            scenario_path=write_json(d, scenario, "scenario.json"),
                            out_path=os.path.join(d, "out.wav"))
            tracemalloc.start()
            try:
                run_render(job)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["late"] < peaks["equal"] + 2e6, peaks

    def test_fades_on_devices_of_unequal_latency_keep_the_level(self, tmp_path):
        """Latency compensation leaves the drives gain-only, so a fade
        between VBAP and AmbiMM(1) on the demo devices still sums
        amplitudes: the output power summed over channels at mid-fade is
        within 0.5 dB of the steady power before and after (an
        equal-power fade of the two coherent drives peaks about 3 dB
        higher)."""
        _, out, fades = self._render_on_demo_devices(tmp_path)

        def level_db(t0_s, t1_s):
            seg = out[round(t0_s * FS) : round(t1_s * FS)]
            return 10.0 * np.log10(np.mean(np.sum(seg**2, axis=1)))

        for _, _, start_s in fades:
            steady = [level_db(start_s - 0.6, start_s - 0.1),
                      level_db(start_s + 1.1, start_s + 1.6)]
            assert abs(steady[0] - steady[1]) < 0.5
            mid = level_db(start_s + 0.4, start_s + 0.6)
            assert abs(mid - np.mean(steady)) < 0.5, (start_s, mid, steady)

    def test_band_table_is_built_once_before_the_first_span(
            self, tmp_path, monkeypatch):
        """Over a render of three updates, each object's mono mix (a
        multi-stem object's mean of its stems) is transformed for band
        analysis exactly once, and every transform comes before the first
        span is mixed."""
        d = str(tmp_path)
        dlg = write_stem(d, "dlg.wav", speech_like(4.5))
        left = write_stem(d, "l.wav", music_like(4.5, seed=5))
        right = write_stem(d, "r.wav", music_like(4.5, seed=6))
        wash = write_stem(d, "wash.wav", noise_like(4.5, lo=40.0))
        job = make_job(tmp_path, [
            object_doc("narrator", "dialogue", [dlg], priority=9,
                       position={"az": 0.0, "el": 0.0, "dist": None}),
            object_doc("band", "music", [left, right], priority=4,
                       position={"az": -40.0, "el": 0.0, "dist": None}),
            object_doc("wash", "ambience", [wash], priority=2,
                       position={"az": 150.0, "el": 0.0, "dist": None}),
        ], speakers=5, noise_timeline=step_timeline(), intelligibility=0.9)
        events = []
        fractions = routing._below_edge_fractions
        mix = engine._mix_block

        def analysing(samples, sample_rate, edges_hz):
            events.append(("band", np.array(samples)))
            return fractions(samples, sample_rate, edges_hz)

        def mixing(*args):
            events.append(("mix", None))
            return mix(*args)

        monkeypatch.setattr(routing, "_below_edge_fractions", analysing)
        monkeypatch.setattr(engine, "_mix_block", mixing)
        report = run_render(job).report
        assert len(report["intervals"]) == 3
        kinds = [kind for kind, _ in events]
        first_mix = kinds.index("mix")
        assert kinds[:first_mix] == ["band"] * 3
        assert "band" not in kinds[first_mix:]
        scene = parse_scene(job.scene_path)
        assert len(scene.object_by_id("band").stems) == 2
        for (_, samples), obj in zip(events, scene.objects):
            assert np.array_equal(samples, mono_mix(obj))

    def test_report_times_each_stage(self, tmp_path):
        """report["timing"] holds render_s and one wall time per stage;
        the stages are disjoint parts of the render, so they sum to no
        more than render_s, and a render that mixes blocks spends time
        mixing them."""
        job = make_job(tmp_path, two_object_docs(str(tmp_path)))
        timing = run_render(job).report["timing"]
        assert list(timing) == ["render_s", *engine.STAGES]
        assert engine.STAGES == (
            "measure_s", "adapt_s", "route_s", "build_s", "mix_s")
        assert all(math.isfinite(v) and v >= 0.0 for v in timing.values())
        assert sum(timing[stage] for stage in engine.STAGES) <= timing["render_s"]
        assert timing["mix_s"] > 0.0

    def test_metrics_csv_rows(self, tmp_path):
        job = make_job(tmp_path, two_object_docs(str(tmp_path)))
        result = run_render(job)
        with open(result.metrics_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s", "metric", "value"]
        named = {}
        for t_s, metric, value in rows[1:]:
            float(t_s), float(value)
            named.setdefault(metric, 0)
            named[metric] += 1
        for metric in ("noise_broadband_db", "intelligibility_proxy",
                       "intelligibility_projected", "intelligibility_deficit",
                       "rms_db_ch0", "rms_db_ch1", "rms_db_ch2"):
            assert named[metric] == len(result.report["intervals"])

    def test_byte_identical_across_runs(self, tmp_path):
        job_a = make_job(tmp_path, two_object_docs(str(tmp_path)))
        job_b = RenderJob(**{**job_a.__dict__, "out_path": job_a.out_path + ".b.wav"})
        run_render(job_a)
        run_render(job_b)
        with open(job_a.out_path, "rb") as fh:
            wav_a = fh.read()
        with open(job_b.out_path, "rb") as fh:
            wav_b = fh.read()
        assert wav_a == wav_b
        with open(job_a.out_path + ".metrics.csv") as fh:
            csv_a = fh.read()
        with open(job_b.out_path + ".metrics.csv") as fh:
            csv_b = fh.read()
        assert csv_a == csv_b

    def test_object_level_scales_output_linearly(self, tmp_path):
        d = str(tmp_path)
        mus = write_stem(d, "mus.wav", music_like(2.0))
        def render(level_db, name):
            objects = [object_doc("band", "music", [mus], level_db=level_db,
                                  position={"az": -35.0, "el": 0.0, "dist": None})]
            job = make_job(tmp_path, objects, out_name=name)
            return render_output(job)[1]
        loud = render(0.0, "a.wav")
        soft = render(-6.0, "b.wav")
        ratio = np.sum(np.square(soft)) / np.sum(np.square(loud))
        assert abs(ratio - 10.0 ** (-0.6)) < 1e-9

    def test_wfs_render_equals_a_delay_line_reference(self, tmp_path):
        """Two effects behind a 28-speaker ring of 2 m (0.45 m apart) route
        to WFS and one
        without a distance to VBAP, in 1000-sample blocks, with no rules.
        The output equals each stem through its speakers' gains and a
        4-tap Lagrange delay line from rest, summed tap by tap, to 1e-12:
        the WFS delays run as folded filter taps in the engine."""
        d = str(tmp_path)
        far = {"az": 40.0, "el": 0.0, "dist": 6.0}
        farther = {"az": -130.0, "el": 0.0, "dist": 9.0}
        panned = {"az": 100.0, "el": 0.0, "dist": None}
        objects = [
            object_doc(oid, "effect",
                       [write_stem(d, f"{oid}.wav", noise_like(2.5, seed=seed))],
                       position=pos)
            for oid, seed, pos in (("far", 1, far), ("farther", 2, farther),
                                   ("panned", 3, panned))]
        job = make_job(tmp_path, objects, speakers=28, block_size=1000,
                       rulebook={"schema": "rulebook v1", "rules": []})
        result, out = render_output(job)

        def delay_line(x, delay_s):
            m, kernel = dsp._delay_plan(delay_s * FS)
            padded = np.concatenate([np.zeros(m + 3), x])
            if kernel is None:
                return padded[3 : 3 + len(x)]
            y = np.zeros(len(x))
            for k in range(4):
                y += kernel[k] * padded[3 - k : 3 - k + len(x)]
            return y

        scene = parse_scene(job.scene_path)
        mixes = {obj.object_id: mono_mix(obj) for obj in scene.objects}
        speakers = {s["id"]: s["position"] for s in ring_speakers(28)}
        channels = result.report["channels"]
        intervals = result.report["intervals"]
        expected = np.zeros_like(out)
        for a in intervals[0]["assignments"]:
            dirs = [Direction3(speakers[sid]["az"], 0.0, speakers[sid]["dist"])
                    for sid in a["speakers"]]
            pos = {"far": far, "farther": farther, "panned": panned}[a["object_id"]]
            x = mixes[a["object_id"]]
            if pos["dist"] is None:
                assert a["renderer"] == "VBAP"
                gains = renderers.vbap_gains(dirs, Direction3(pos["az"]))
                delays = np.zeros(len(dirs))
            else:
                assert a["renderer"] == "WFS"
                gains, delays = renderers.wfs_drive(
                    dirs, Direction3(pos["az"], 0.0, pos["dist"]))
                assert np.count_nonzero(delays) == len(dirs) - 1
            for sid, g, delay in zip(a["speakers"], gains, delays):
                expected[:, channels.index(sid)] += g * delay_line(x, delay)
        assert all(iv["assignments"] == intervals[0]["assignments"]
                   for iv in intervals)
        assert np.max(np.abs(out - expected)) <= 1e-12
        assert np.max(np.abs(out)) > 0.1

    def test_multi_stem_object_mixes_to_mono(self, tmp_path):
        d = str(tmp_path)
        a = speech_like(2.0, seed=1)
        b = noise_like(2.0, seed=2)
        sa = write_stem(d, "a.wav", a)
        sb = write_stem(d, "b.wav", b)
        sm = write_stem(d, "m.wav", (a + b) / 2.0)
        pos = {"az": 20.0, "el": 0.0, "dist": None}
        multi = make_job(tmp_path, [object_doc("x", "effect", [sa, sb], position=pos)],
                         out_name="multi.wav")
        mono = make_job(tmp_path, [object_doc("x", "effect", [sm], position=pos)],
                        out_name="mono.wav")
        out_multi = render_output(multi)[1]
        out_mono = render_output(mono)[1]
        assert np.allclose(out_multi, out_mono, atol=1e-12)

    def test_listener_flag_selects_dominant(self, tmp_path):
        d = str(tmp_path)
        objects = two_object_docs(d)
        scene = write_scene(d, scene_doc(objects))
        listeners = [
            {"id": "sofa", "position": {"az": 0.0, "el": 0.0, "dist": 0.0}},
            {"id": "chair", "position": {"az": 90.0, "el": 0.0, "dist": 0.5}},
        ]
        scenario = write_json(
            d, scenario_doc(ring_speakers(3), listeners=listeners,
                            noise_timeline=QUIET_TIMELINE), "scenario.json")
        job = RenderJob(scene_path=scene, scenario_path=scenario,
                        out_path=os.path.join(d, "out.wav"),
                        listener_id="chair")
        report = run_render(job).report
        assert report["listener"] == "chair"
        assert report["channels"] == ["s0", "s1", "s2"]

    def test_unknown_listener_rejected(self, tmp_path):
        job = make_job(tmp_path, two_object_docs(str(tmp_path)),
                       listener_id="nobody")
        with pytest.raises(JobError, match="nobody"):
            run_render(job)

    def test_bad_options_rejected(self, tmp_path):
        objects = two_object_docs(str(tmp_path))
        with pytest.raises(JobError, match="block_size"):
            run_render(make_job(tmp_path, objects, block_size=0))
        with pytest.raises(JobError, match="crossfade_s"):
            run_render(make_job(tmp_path, objects, crossfade_s=0.0))

    def test_selection_switch_emits_crossfade(self, tmp_path):
        d = str(tmp_path)
        stem = write_stem(d, "n.wav", noise_like(4.0))
        objects = [object_doc("hiss", "effect", [stem],
                              position={"az": 20.0, "el": 0.0, "dist": None})]
        selection = {
            "schema": "selection v1",
            "rules": [
                {"match": "noise_broadband_db > -45",
                 "renderer": "AmbiMM", "order": 2},
                {"match": "true", "renderer": "VBAP"},
            ],
        }
        job = make_job(tmp_path, objects, speakers=5,
                       noise_timeline=step_timeline(2.0, -50.0),
                       selection=selection)
        report = run_render(job).report
        labels = [iv["assignments"][0]["renderer"] for iv in report["intervals"]]
        assert labels[0] == "VBAP"
        assert labels[1] == "AmbiMM(2)"
        fades = report["intervals"][1]["crossfades"]
        assert len(fades) == 1
        assert fades[0]["from"] == "VBAP"
        assert fades[0]["to"] == "AmbiMM(2)"
        assert fades[0]["duration_s"] == 1.0
        # the fade starts at the update block's first sample, unrounded
        update = -(-2 * FS // job.block_size) * job.block_size
        assert fades[0]["start_s"] == update / FS
        assert report["intervals"][1]["t_s"] == round(update / FS, 6)
        assert report["intervals"][1]["t_s"] != update / FS

        # a whole number of seconds is still reported as a float
        job = make_job(tmp_path, objects, speakers=5,
                       noise_timeline=step_timeline(2.0, -50.0),
                       selection=selection, crossfade_s=1, out_name="int.wav")
        result = run_render(job)
        with open(result.report_path) as fh:
            fade = json.load(fh)["intervals"][1]["crossfades"][0]
        assert type(fade["duration_s"]) is float and fade["duration_s"] == 1.0
        assert result.report["intervals"][1]["crossfades"][0] == fade

    def test_object_back_from_prune_starts_without_crossfade(self, tmp_path):
        """An object pruned for one interval comes back on a fresh lane: its
        renderer differs from the one it had before the prune, yet no
        crossfade is recorded."""
        d = str(tmp_path)
        stem = write_stem(d, "wash.wav", noise_like(6.0))
        objects = [object_doc("wash", "ambience", [stem], priority=0,
                              position={"az": 180.0, "el": 0.0, "dist": None})]
        rulebook = {
            "schema": "rulebook v1",
            "rules": [{"rule_id": "drop-filler",
                       "when": "noise_broadband_db > -45",
                       "actions": [{"kind": "prune",
                                    "select": "type == 'ambience'"}]}],
        }
        selection = {
            "schema": "selection v1",
            "rules": [{"match": "noise_broadband_db > -60",
                       "renderer": "AmbiMM", "order": 2},
                      {"match": "true", "renderer": "VBAP"}],
        }
        # broadband -71.5 dB, then -41.5 (pruned), then -51.5
        timeline = [{"t_s": t, "band_levels_db": [level] * 7}
                    for t, level in ((0.0, -80.0), (2.0, -50.0), (4.0, -60.0))]
        job = make_job(tmp_path, objects, speakers=5, noise_timeline=timeline,
                       rulebook=rulebook, selection=selection)
        result, output = render_output(job)
        intervals = result.report["intervals"]
        assert [[a["renderer"] for a in iv["assignments"]] for iv in intervals] \
            == [["VBAP"], [], ["AmbiMM(2)"]]
        assert all(iv["crossfades"] == [] for iv in intervals)
        update = -(-4 * FS // job.block_size) * job.block_size
        assert np.max(np.abs(output[update:])) > 0.0

    def test_prune_empties_lane_at_boundary(self, tmp_path):
        d = str(tmp_path)
        stem = write_stem(d, "wash.wav", noise_like(4.0))
        objects = [object_doc("wash", "ambience", [stem], priority=0,
                              position={"az": 180.0, "el": 0.0, "dist": None})]
        rulebook = {
            "schema": "rulebook v1",
            "rules": [
                {"rule_id": "drop-filler",
                 "when": "noise_broadband_db > -45",
                 "actions": [{"kind": "prune", "select": "type == 'ambience'"}]},
            ],
        }
        job = make_job(tmp_path, objects, speakers=5,
                       noise_timeline=step_timeline(2.0, -50.0),
                       rulebook=rulebook)
        result, output = render_output(job)
        report = result.report
        assert len(report["intervals"][0]["assignments"]) == 1
        assert report["intervals"][1]["assignments"] == []
        deltas = report["intervals"][1]["adaptation"]["deltas"]
        assert {"object_id": "wash", "kind": "Prune", "total": 1.0} in deltas
        # the lane disappears at the block containing the boundary
        boundary = (int(2.0 * FS) // job.block_size + 1) * job.block_size
        assert np.max(np.abs(output[:boundary])) > 0.0
        assert np.max(np.abs(output[boundary:])) == 0.0

    def test_each_distinct_signal_and_geometry_is_computed_once(
            self, tmp_path, monkeypatch):
        """The loop measures many signals more than once (pristine and
        adapted mixes, ladder previews) and builds every PM drive twice per
        interval; band analyses (one pass of the band kernel over all
        bands) equal the distinct signals and PM solves the distinct
        geometries."""
        measured = []

        def recording(block, sample_rate=FS):
            block = np.ascontiguousarray(block, dtype=float)
            measured.append((sample_rate, hashlib.sha256(block.data).digest()))
            return dsp.octave_band_levels(block, sample_rate)

        passes = []
        band_energies = dsp._band_energies

        def counting_passes(*args, **kwargs):
            passes.append(1)
            return band_energies(*args, **kwargs)

        solves = []

        def counting_pm(speakers, points, source, *, beta, sample_rate):
            solves.append((tuple(speakers), source, beta, sample_rate))
            return renderers.pm_filters(speakers, points, source, beta=beta,
                                        sample_rate=sample_rate)

        d = str(tmp_path)
        scene = demo.write_demo_scene(d, duration_s=6.0)
        scenario = demo.write_demo_scenario(d, noise_step_db=10.0)
        monkeypatch.setattr(engine, "octave_band_levels", recording)
        monkeypatch.setattr(context, "octave_band_levels", recording)
        monkeypatch.setattr(dsp, "_band_energies", counting_passes)
        monkeypatch.setattr(routing, "pm_filters", counting_pm)
        monkeypatch.setattr(dsp, "_band_levels_memo", collections.OrderedDict())
        routing.pm_design.cache_clear()
        run_render(RenderJob(scene, scenario, os.path.join(d, "out.wav")))
        assert len(measured) > len(set(measured))
        assert len(passes) == len(set(measured))
        assert solves and len(solves) == len(set(solves))


class _WholeStemSources(engine._Sources):
    """engine._Sources with the whole-stem directive processing the
    windowed chains replaced behind it, as their reference: each distinct
    (id, directives) chain filters the whole stem once per run."""

    def __init__(self, scene):
        super().__init__(scene)
        self.cache = {}

    def source(self, obj, lo, hi):
        key = (obj.object_id, obj.directives)
        if key not in self.cache:
            mix = self.mixes[obj.object_id]
            self.cache[key] = (
                engine.apply_directives(mix, obj.directives, self.sample_rate)
                if obj.directives else mix)
        signal = self.cache[key]
        return engine._Source(signal, 0, len(signal))


_DIRECTIVES = st.one_of(
    st.builds(lambda db: dsp.Directive("spectral_tilt", db),
              st.floats(-23.5, 23.5)),
    st.builds(lambda ms: dsp.Directive("time_shift", ms),
              st.floats(-100.0, 100.0)),
    st.builds(lambda amount, seed: dsp.Directive("decorrelate", amount, seed=seed),
              st.floats(0.0, 1.0), st.integers(0, 99)),
)


class TestWindowedSources:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_DIRECTIVES, max_size=4), st.integers(2000, 40000),
           st.integers(0, 2**32 - 1), st.data())
    def test_windowed_chain_equals_whole_stem_slice(self, directives, n, seed,
                                                    data):
        """Tilts up to +-23.5 dB, time shifts of +-100 ms and decorrelation
        in any order; windows at, near and away from the stem's ends."""
        stem = np.random.default_rng(seed).standard_normal(n) * 0.1
        lo = data.draw(st.one_of(st.just(0), st.integers(0, n)), label="lo")
        hi = data.draw(st.one_of(st.just(n), st.integers(lo, n + 500)), label="hi")
        whole = dsp.apply_directives(stem, directives, FS)[lo:hi]
        window = engine._chain_window(stem, tuple(directives), FS, lo, hi)
        assert window.start == min(lo, n) and window.stem_len == n
        assert window.samples.shape == whole.shape
        assert np.max(np.abs(window.samples - whole), initial=0.0) <= 1e-12

    def test_stacked_tilts_window_rounds_as_the_whole_stem(self):
        """Three tilts raise the slice to a peak near 3747, where a few ulp
        exceed 1e-12: the tilt scan's blocks must lie on the stem's own
        sample grid, not start at the window's first sample."""
        stem = np.random.default_rng(0).standard_normal(2000) * 0.1
        directives = tuple(dsp.Directive("spectral_tilt", db)
                           for db in (3.0, 23.0, 23.0))
        whole = dsp.apply_directives(stem, directives, FS)[280:2000]
        window = engine._chain_window(stem, directives, FS, 280, 2000)
        assert np.max(np.abs(whole)) > 3000.0
        assert np.max(np.abs(window.samples - whole)) <= 1e-12

    def test_reads_outside_the_window_are_errors(self):
        source = engine._Source(np.arange(10.0), 100, 200)
        assert np.array_equal(source.segment(104, 3), [4.0, 5.0, 6.0])
        with pytest.raises(RuntimeError, match="before the window"):
            source.segment(99, 3)
        with pytest.raises(RuntimeError, match="past the window"):
            source.segment(108, 3)
        at_end = engine._Source(np.arange(10.0), 190, 200)
        assert np.array_equal(at_end.segment(198, 4), [8.0, 9.0, 0.0, 0.0])

    @pytest.mark.parametrize("fs, block, crossfade_s", [
        (44100, 1000, 3.0),   # 1000 does not divide the 88200-sample interval
        (48000, 256, 1.0),
        (48000, 1000, 0.25),
    ])
    def test_windowed_render_equals_whole_stem_reference(
            self, tmp_path, monkeypatch, fs, block, crossfade_s):
        """A render whose chains (tilts, decorrelation, negative time shifts)
        change every interval while the noise flips a renderer switch, with
        a multi-stem object and a stem shorter than the scene, against the
        same render with whole-stem chains."""
        d = str(tmp_path)
        dur = 8.5
        dlg = write_stem(d, "dlg.wav", speech_like(dur, fs=fs), fs=fs)
        left = write_stem(d, "l.wav", music_like(dur, seed=5, fs=fs), fs=fs)
        right = write_stem(d, "r.wav", music_like(dur, seed=6, fs=fs), fs=fs)
        wash = write_stem(d, "wash.wav", noise_like(dur - 1.3, fs=fs), fs=fs)
        scene = write_scene(d, scene_doc([
            object_doc("narrator", "dialogue", [dlg], priority=9,
                       position={"az": 0.0, "el": 0.0, "dist": None}),
            object_doc("band", "music", [left, right], priority=4,
                       position={"az": -40.0, "el": 0.0, "dist": None}),
            object_doc("wash", "ambience", [wash], priority=2,
                       position={"az": 150.0, "el": 0.0, "dist": None}),
        ], fs=fs, intelligibility=0.9))
        timeline = [{"t_s": t, "band_levels_db": [level] * 7}
                    for t, level in ((0.0, -60.0), (2.0, -45.0), (4.0, -58.0),
                                     (6.0, -46.0), (8.0, -57.0))]
        scenario = write_json(d, scenario_doc(ring_speakers(5),
                                              noise_timeline=timeline),
                              "scenario.json")
        rulebook = write_json(d, {"schema": "rulebook v1", "rules": [
            {"rule_id": "steady", "when": "true", "actions": [
                {"kind": "decorrelate", "amount": 0.4,
                 "select": "type == 'dialogue'"}]},
            {"rule_id": "loud", "when": "noise_broadband_db > -45", "actions": [
                {"kind": "spectral_tilt", "db": -5.5, "select": "type == 'music'"},
                {"kind": "time_shift", "ms": -37.3, "select": "type == 'music'"},
                {"kind": "time_shift", "ms": -61.7, "select": "type == 'ambience'"},
                {"kind": "decorrelate", "amount": 0.8,
                 "select": "type == 'ambience'"}]},
            {"rule_id": "quiet", "when": "noise_broadband_db <= -45", "actions": [
                {"kind": "time_shift", "ms": -12.01, "select": "type != 'dialogue'"},
                {"kind": "spectral_tilt", "db": 4.0,
                 "select": "type == 'ambience'"}]},
            {"rule_id": "ladder", "when": "intelligibility_deficit > 0",
             "actions": [{"kind": "intelligibility_ladder"}]},
        ]}, "rules.json")
        selection = write_json(d, {"schema": "selection v1", "rules": [
            {"match": "noise_broadband_db > -45", "renderer": "AmbiMM", "order": 1},
            {"match": "true", "renderer": "VBAP"},
        ]}, "select.json")

        filtered = []
        apply = dsp.apply_directives

        def counting(stem, directives, sample_rate, start=0):
            filtered.append((len(stem), directives))
            return apply(stem, directives, sample_rate, start)

        monkeypatch.setattr(engine, "apply_directives", counting)

        def render(name):
            return render_output(RenderJob(
                scene_path=scene, scenario_path=scenario,
                out_path=os.path.join(d, name), rulebook_path=rulebook,
                selection_path=selection, block_size=block,
                crossfade_s=crossfade_s))

        windowed, windowed_output = render("windowed.wav")
        filtered.clear()
        monkeypatch.setattr(engine, "_Sources", _WholeStemSources)
        reference, reference_output = render("reference.wav")

        shifts = {dr.value for _, chain in filtered for dr in chain
                  if dr.kind == "time_shift"}
        assert {-37.3, -61.7, -12.01} <= shifts
        fades = [f for iv in reference.report["intervals"] for f in iv["crossfades"]]
        assert len(fades) >= 4
        assert np.max(np.abs(windowed_output - reference_output)) <= 1e-9
        for key in ("intervals", "channels", "duration_samples"):
            assert windowed.report[key] == reference.report[key]
        with open(windowed.metrics_path) as a, open(reference.metrics_path) as b:
            assert a.read() == b.read()


def _plan_inputs(job, rulebook=None, selection=None):
    """engine._plans' arguments for a job (as run_render makes them) and
    the run's sources."""
    scene = parse_scene(job.scene_path)
    layout, listeners, decay, timeline = context.parse_scenario(job.scenario_path)
    scenario = context.build_scenario(layout, listeners, decay)
    sources = engine._Sources(scene)
    bands = Future()   # run_render's is the mixing worker's
    bands.set_result(
        routing.band_table(sources.mixes, layout.speakers, scene.sample_rate))
    return (job, scene, scenario, timeline,
            rulebook or engine.default_rulebook(),
            selection or engine.default_selection_rules(), sources, bands,
            engine._StageClock()), sources


def _drained_plans(job, rulebook=None, selection=None):
    """Every plan engine._plans yields for a job, with no mixer, and the
    run's sources."""
    inputs, sources = _plan_inputs(job, rulebook, selection)
    return list(engine._plans(*inputs)), sources


class TestPlans:
    def test_plans_decide_the_report_without_mixing(self, tmp_path):
        """Draining engine._plans with no mixer gives the render's report
        records, each update's start at its own block and its stop at the
        next update's, with a block that does not divide the 96000-sample
        interval. The mixer reads no field of the report records."""
        d = str(tmp_path)
        scene_path = demo.write_demo_scene(d)
        scenario_path = demo.write_demo_scenario(d, noise_step_db=10.0)
        job = RenderJob(scene_path=scene_path, scenario_path=scenario_path,
                        out_path=os.path.join(d, "out.wav"), block_size=1024)
        scene = parse_scene(scene_path)
        plans, _ = _drained_plans(job)
        interval = int(engine.CONTEXT_INTERVAL_S * FS)
        stops = [-(-k * interval // 1024) * 1024 for k in range(1, len(plans) + 1)]
        assert [stop for _, stop, _, _ in plans] == stops
        assert [start for start, _, _, _ in plans] == [0] + stops[:-1]
        assert stops[-2] < scene.duration_samples <= stops[-1]
        records = [record for _, _, _, record in plans]
        assert records == run_render(job).report["intervals"]
        assert any(record["adaptation"]["applied"] for record in records)
        for _, _, objects, record in plans:
            assert list(objects) == [a["object_id"] for a in record["assignments"]]
        mixer_reads = set(engine._render_blocks.__code__.co_names)
        assert not mixer_reads & {"route", "apply_rules", "build_drive",
                                  "noise_at", "ContextTracker",
                                  "_interval_proxy"}
        mixer_constants = set(engine._render_blocks.__code__.co_consts)
        assert not mixer_constants & {"crossfades", "start_s", "duration_s",
                                      "object_id"}

    def test_a_plan_is_yielded_before_the_next_update_is_routed(
            self, tmp_path, monkeypatch):
        """No look-ahead: route has run once when plan 0 is taken, and once
        more per plan after it."""
        d = str(tmp_path)
        job = RenderJob(scene_path=demo.write_demo_scene(d),
                        scenario_path=demo.write_demo_scenario(d),
                        out_path=os.path.join(d, "out.wav"))
        routed = []
        route = engine.route

        def counting(*args):
            routed.append(args[0])
            return route(*args)

        monkeypatch.setattr(engine, "route", counting)
        inputs, _ = _plan_inputs(job)
        plans = engine._plans(*inputs)
        next(plans)
        assert len(routed) == 1
        next(plans)
        assert len(routed) == 2

    def test_a_drive_change_without_a_switch_crossfades(self, tmp_path):
        """The demo scene under noise rising 7 dB every interval: at the
        third update the ladder repositions the band (PM) and the wash
        (AmbiMM(2)) without switching their renderers. Their new drives
        fade in against the old ones; a new filter swapped in from silence
        would drop the output by about 24 dB over the next block."""
        d = str(tmp_path)
        scenario_path = demo.write_demo_scenario(d)
        with open(scenario_path) as fh:
            doc = json.load(fh)
        doc["noise_timeline"] = [
            {"t_s": 2.0 * k, "band_levels_db": [-50.0 + 7.0 * k] * 7}
            for k in range(5)]
        write_json(d, doc, "scenario.json")
        job = RenderJob(scene_path=demo.write_demo_scene(d),
                        scenario_path=scenario_path,
                        out_path=os.path.join(d, "out.wav"))
        result, output = render_output(job)
        fades = [(iv["t_s"], f["object_id"], f["from"], f["to"])
                 for iv in result.report["intervals"] for f in iv["crossfades"]]
        boundary = -(-2 * int(engine.CONTEXT_INTERVAL_S * FS) // job.block_size
                     ) * job.block_size
        t_s = round(boundary / FS, 6)
        assert fades == [(t_s, "band", "PM", "PM"),
                         (t_s, "wash", "AmbiMM(2)", "AmbiMM(2)")]
        before = np.mean(output[boundary - 512 : boundary] ** 2)
        after = np.mean(output[boundary : boundary + 512] ** 2)
        assert 10.0 * math.log10(after / before) > -6.0

    def test_each_plan_filters_its_reads_and_the_fades_it_starts(
            self, tmp_path, monkeypatch):
        """The live-switch workload at seed 0: every adapted chain covers
        the plan's reads (its blocks until stop and its proxy window) and
        ends no later; exactly the objects in the record's crossfades get a
        fade, (tail, length): their previous plan's chain over [start,
        start + fade_reads) and crossfade_s * fs samples."""
        monkeypatch.syspath_prepend(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from perfbench import workloads

        files = workloads.generate("live-switch", 0, str(tmp_path))
        block = workloads.WORKLOADS["live-switch"].block_size
        job = RenderJob(scene_path=files.scene, scenario_path=files.scenario,
                        out_path=str(tmp_path / "out.wav"),
                        rulebook_path=files.rulebook,
                        selection_path=files.selection, block_size=block)
        plans, sources = _drained_plans(
            job, load_rulebook(files.rulebook),
            load_selection_rules(files.selection))
        n_total = parse_scene(files.scene).duration_samples
        interval = int(engine.CONTEXT_INTERVAL_S * FS)
        fade_reads = math.ceil(job.crossfade_s * FS) + block
        t0 = chains = 0
        faded = []   # per fade: whether its tail is a chain
        for start, stop, objects, record in plans:
            assert start == t0
            proxy = max(min(interval, max(n_total - t0, block)),
                        context.MIN_NOISE_BLOCK)
            reads = max(stop, t0 + proxy)
            for oid, (_, source, _, _) in objects.items():
                if source.samples is sources.mixes[oid]:
                    continue
                chains += 1
                assert source.start == t0
                assert source.stop == min(reads, source.stem_len)
            fades = {oid: fade for oid, (*_, fade) in objects.items()
                     if fade is not None}
            assert set(fades) == {f["object_id"] for f in record["crossfades"]}
            for oid, (tail, length) in fades.items():
                assert length == job.crossfade_s * FS
                faded.append(tail.samples is not sources.mixes[oid])
                if faded[-1]:
                    assert tail.start == t0
                    assert tail.stop == min(t0 + fade_reads, tail.stem_len)
            t0 = stop
        assert chains and len(faded) == 20 and any(faded)


class TestMixBlock:
    """engine._mix_block over spans against its oracle: the same lanes
    mixed one block at a time, which must give the same samples to the
    bit; and, independently, the sum of every lane's render_block output,
    each drive on a fresh state, with the fade weights applied after the
    filter."""

    CHANNELS = tuple(f"s{i}" for i in range(6))
    BLOCK = 256

    @staticmethod
    def _drive(ids, gains, delays_s=None, firs=()):
        return renderers.DrivingFunction(
            tuple(ids), np.asarray(gains, dtype=float),
            np.zeros(len(ids)) if delays_s is None
            else np.asarray(delays_s, dtype=float),
            tuple(firs), FS)

    def test_block_mix_equals_sum_of_lane_renders(self, monkeypatch):
        """Gain-only lanes on all channels and on a subset, a PM-like, a
        Diffuse and a WFS-like (gains and delays, no FIRs) lane on subsets
        and one fade from a gain-only to a FIR drive that ends in the third
        block, a whole and a fractional number of samples long, over five
        blocks cut three ways into spans that end at the fade's end block.
        The stems end inside the last block, which reads zeros past them.
        Only the two drives of the fade go through render_block, once per
        span; the WFS lane's delays are folded into taps, so it joins the
        shared spectrum, and so does the fading lane's FIR drive once its
        fade has ended, on the state render_block advanced."""
        calls = []
        render = renderers.render_block

        def counting(stem_block, drive, state):
            calls.append((drive.speaker_ids, np.shape(stem_block)))
            return render(stem_block, drive, state)

        monkeypatch.setattr(engine, "render_block", counting)
        for fade_length in (384.0, 383.7):
            self._check_spans_against_oracles(fade_length, calls)

    def _check_spans_against_oracles(self, fade_length, calls):
        rng = np.random.default_rng(18)
        block, n_blocks = self.BLOCK, 5
        stem_len = (n_blocks - 1) * block + 100
        chan_index = {sid: i for i, sid in enumerate(self.CHANNELS)}
        _, diffuse_firs = renderers.diffuse_gains(3)

        def source():
            return engine._Source(rng.standard_normal(stem_len), 0, stem_len)

        steady = [
            (self._drive(self.CHANNELS, rng.uniform(-1, 1, 6)), source(), 0.7),
            (self._drive(("s4", "s1"), [0.6, 0.8]), source(), 1.3),
            (self._drive(("s0", "s2", "s3"), [1.0, 1.0, 1.0],
                         [0.0, 0.0003, 0.0011],
                         [rng.standard_normal(300) * 0.05 for _ in range(3)]),
             source(), 0.9),
            (self._drive(("s5", "s1", "s3"), np.full(3, 3 ** -0.5),
                         firs=diffuse_firs), source(), 1.1),
            (self._drive(("s2", "s4", "s5"), [0.5, 0.6, 0.62],
                         [0.0, 0.00052, 0.0021]), source(), 0.8),
        ]
        old = (self._drive(("s0", "s1"), [0.8, 0.6]), source(), 1.2)
        new = (self._drive(("s1", "s2", "s3"), [0.9, 0.7, 1.0],
                           firs=[rng.standard_normal(200) * 0.05, None,
                                 rng.standard_normal(40) * 0.05]),
               source(), 0.6)
        fade_start = block // 2
        fade_end = fade_start + fade_length

        def lanes():
            built = [engine._Lane(d, src, g, chan_index)
                     for d, src, g in steady]
            fading = engine._Lane(*old, chan_index)
            fading.begin_fade(*new, tail=old[1], start=fade_start,
                              length=fade_length)
            return built + [fading]

        # the oracle: one block per call
        per_block = lanes()
        blockwise = np.zeros((n_blocks * block, len(self.CHANNELS)))
        for b in range(n_blocks):
            engine._mix_block(per_block, b * block, block,
                              blockwise[b * block : (b + 1) * block])

        # the sum of every lane's own render
        def rendered(drive, src, gain, state, t0):
            return renderers.render_block(
                src.segment(t0, block) * gain, drive, state)

        def cols(drive):
            return [chan_index[sid] for sid in drive.speaker_ids]

        states = [renderers.new_render_state(d) for d, _, _ in steady]
        old_state = renderers.new_render_state(old[0])
        new_state = renderers.new_render_state(new[0])
        summed = np.zeros_like(blockwise)
        old_live = True
        for b in range(n_blocks):
            t0 = b * block
            expected = summed[t0 : t0 + block]
            for (drive, src, gain), state in zip(steady, states):
                expected[:, cols(drive)] += rendered(drive, src, gain, state, t0)
            samples = t0 + np.arange(block)
            position = np.clip((samples - fade_start) / fade_length, 0.0, 1.0)
            w_old, w_new = dsp.crossfade_gains(position, coherent=False)
            expected[:, cols(new[0])] += (
                rendered(*new, new_state, t0) * w_new[:, None])
            if old_live:
                expected[:, cols(old[0])] += (
                    rendered(*old, old_state, t0) * w_old[:, None])
                old_live = samples[-1] < fade_end

        for spans in ((3, 2), (1, 2, 2), (2, 1, 1, 1)):
            spanned = lanes()
            assert [lane.gain_row is not None for lane in spanned] == [
                True, True, False, False, False, False]
            out = np.zeros_like(blockwise)
            b = 0
            for count in spans:
                t0 = b * block
                calls.clear()
                engine._mix_block(spanned, t0, block,
                                  out[t0 : t0 + count * block])
                b += count
                frames = (count, block)
                assert calls == ([(("s1", "s2", "s3"), frames),
                                  (("s0", "s1"), frames)]
                                 if b <= 3 else []), (fade_length, spans, b)
                assert (spanned[-1].old is None) == (b >= 3), (
                    fade_length, spans, b)
            assert np.array_equal(out, blockwise), (fade_length, spans)
            assert np.max(np.abs(out - summed)) < 1e-12, (fade_length, spans)

    def test_span_blocks_end_at_the_first_fade_end(self):
        """_span_blocks keeps the limit without a running fade and
        otherwise ends the span with the block whose last sample index
        first reaches a fade's end, the block after which _mix_block drops
        the outgoing drive."""
        chan_index = {"s0": 0}
        drive = self._drive(("s0",), [1.0])
        src = engine._Source(np.zeros(10), 0, 10)
        lane = engine._Lane(drive, src, 1.0, chan_index)
        block = 100
        assert engine._span_blocks([lane], 1000, block, 32) == 32
        fading = engine._Lane(drive, src, 1.0, chan_index)
        fading.begin_fade(drive, src, 1.0, src, start=1000, length=250)
        assert fading.fade_end == 1250
        # the fade ends at sample 1250, in the block [1200, 1300)
        assert engine._span_blocks([lane, fading], 1000, block, 32) == 3
        assert engine._span_blocks([fading], 1000, block, 2) == 2
        # a fade ending on a block's last sample ends that block
        fading.fade_end = 1199
        assert engine._span_blocks([fading], 1000, block, 32) == 2
        # one ending between two samples ends the block holding the later
        fading.fade_end = 1199.5
        assert engine._span_blocks([fading], 1000, block, 32) == 3
        fading.fade_end = 1198.5
        assert engine._span_blocks([fading], 1000, block, 32) == 2


class TestCLI:
    def demo_paths(self, tmp_path):
        d = str(tmp_path)
        scene = demo.write_demo_scene(d, duration_s=2.0)
        scenario = demo.write_demo_scenario(d)
        return d, scene, scenario

    def test_render_exit_zero_and_files(self, tmp_path, capsys):
        d, scene, scenario = self.demo_paths(tmp_path)
        out = os.path.join(d, "mix.wav")
        rc = cli_main(["render", "--scene", scene, "--scenario", scenario,
                       "--out", out])
        assert rc == 0
        assert os.path.isfile(out)
        assert os.path.isfile(out + ".report.json")
        assert os.path.isfile(out + ".metrics.csv")
        assert "5 channels" in capsys.readouterr().out
        with open(out + ".report.json") as fh:
            assert json.load(fh)["seed"] == dsp.DEFAULT_SEED

    def test_validate_clean_scene(self, tmp_path, capsys):
        _, scene, scenario = self.demo_paths(tmp_path)
        rc = cli_main(["validate", "--scene", scene, "--scenario", scenario])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_duplicate_id_lists_one_violation(self, tmp_path, capsys):
        d = str(tmp_path)
        stem = write_stem(d, "s.wav", speech_like(1.0))
        doc = scene_doc([
            object_doc("twin", "dialogue", [stem]),
            object_doc("twin", "dialogue", [stem]),
        ])
        scene = write_scene(d, doc)
        rc = cli_main(["validate", "--scene", scene])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("violation:") == 1
        assert "twin" in out

    def test_validate_unreadable_exits_two(self, tmp_path, capsys):
        rc = cli_main(["validate", "--scene", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "scene_model" in capsys.readouterr().err

    def test_probe_stereo_shows_reasons(self, tmp_path, capsys):
        d = str(tmp_path)
        scenario = write_json(d, scenario_doc(ring_speakers(2)), "stereo.json")
        rc = cli_main(["probe", "--scenario", scenario])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("az")]
        assert len(lines) == 8
        assert all("AP1 ok" in l for l in lines)
        assert all("AmbiMM no" in l for l in lines)
        assert "needs 3 speakers" in out

    def test_probe_ring8_supports_third_order(self, tmp_path, capsys):
        d = str(tmp_path)
        scenario = write_json(d, scenario_doc(ring_speakers(8)), "ring8.json")
        assert cli_main(["probe", "--scenario", scenario]) == 0
        out = capsys.readouterr().out
        assert "AmbiMM(3) ok" in out

    def test_highest_order_steps_down_past_a_rank_deficient_decode(
            self, tmp_path, capsys):
        """Seven speakers within 18 degrees: their distinct azimuths allow
        order 3, whose decode is rank deficient, and order 2 decodes. Mode
        matching at order "highest" steps down to order 2 in the probe and
        in selection alike, and no line of the probe names order 3."""
        azimuths = (-9.68, -4.67, -2.21, 0.26, 2.11, 5.46, 7.86)
        speakers = [{"id": f"s{i}", "position": {"az": az, "el": 0.0, "dist": 2.0}}
                    for i, az in enumerate(azimuths)]
        scenario_path = write_json(str(tmp_path), scenario_doc(speakers),
                                   "arc.json")
        layout = context.parse_scenario(scenario_path)[0]
        dirs = [s.position for s in layout.speakers]
        with pytest.raises(RankDeficient):
            renderers.ambi_mm_decode(dirs, 3)
        assert routing.max_ambi_order(layout.speakers) == 3

        assert cli_main(["probe", "--scenario", scenario_path]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == "layout: 7 speakers"
        assert len(lines) == 8 and all("AmbiMM(2) ok" in l for l in lines)
        assert not any("order 3" in l or "AmbiMM(3)" in l for l in lines)

        table = parse_selection_rules({"schema": "selection v1", "rules": [
            {"match": "true", "renderer": "AmbiMM", "order": "highest"}]})
        obj = AudioObject("pad", ObjectType.EFFECT, stems=(),
                          position=Direction3(30.0, 0.0, None))
        no_low_energy = {s.bandwidth_hz.low_hz: 0.0 for s in layout.speakers}
        assignment = routing.select_renderer(obj, layout, None, table, {}, FS,
                                             no_low_energy)
        assert assignment.renderer.label() == "AmbiMM(2)"
        assert assignment.speaker_subset == tuple(layout.ids())

    def test_probe_rejects_wfs_for_a_source_on_the_ring(self, tmp_path, capsys):
        """A 32-speaker ring of radius 2 m is one WFS segment, but the probe
        object at 2 m is not behind it, so build_drive would reject WFS."""
        d = str(tmp_path)
        scenario = write_json(
            d, scenario_doc(demo.ring_layout_doc(32, 2.0)["speakers"]),
            "ring32.json")
        assert cli_main(["probe", "--scenario", scenario]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("az")]
        assert len(lines) == 8
        assert all("WFS no (source at 2.0 m is not behind a speaker at 2.0 m)"
                   in l for l in lines)

    def test_tilt_beyond_the_shelf_reach_fails_in_one_line(self, tmp_path,
                                                           capsys):
        """A direct spectral_tilt rule past the first-order shelf's reach,
        inside every object's tolerance, ends the render with one diagnostic
        line and leaves no WAV, partial WAV, report or metrics behind."""
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        for obj in doc["objects"]:
            constraints = obj.setdefault("constraints", {})
            constraints.setdefault("tolerances", {})["spectral_tilt_db"] = 40.0
        wide = write_json(d, doc, "wide-scene.json")
        rules = write_json(d, {"schema": "rulebook v1", "rules": [
            {"rule_id": "steep", "when": "true", "actions": [
                {"kind": "spectral_tilt", "db": 30.0}]}]}, "rules.json")
        before = set(os.listdir(d))
        out = os.path.join(d, "x.wav")
        assert cli_main(["render", "--scene", wide, "--scenario", scenario,
                         "--out", out, "--rules", rules]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0 and err.startswith("error [dsp_core]:"), err
        assert "30 dB exceeds the first-order shelf's reach" in err, err
        assert set(os.listdir(d)) == before

    def test_crossfade_too_long_to_count_fails_in_one_line(self, tmp_path,
                                                            capsys):
        """An --xfade that is finite in seconds but not in samples ends the
        render with one diagnostic line and leaves nothing behind."""
        d, scene, scenario = self.demo_paths(tmp_path)
        before = set(os.listdir(d))
        out = os.path.join(d, "x.wav")
        assert cli_main(["render", "--scene", scene, "--scenario", scenario,
                         "--out", out, "--xfade", "1e308"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0 and "crossfade_s" in err, err
        assert set(os.listdir(d)) == before

    @pytest.mark.parametrize("xfade", ["1e-300", "1e-12", "2e-5"])
    def test_crossfade_under_one_sample_fails_in_one_line(self, tmp_path,
                                                          capsys, xfade):
        """A crossfade shorter than one sample (2e-5 s is 0.96 samples at
        48 kHz) has no sample to fade over: one diagnostic line, nothing
        left behind."""
        d, scene, scenario = self.demo_paths(tmp_path)
        before = set(os.listdir(d))
        assert cli_main(["render", "--scene", scene, "--scenario", scenario,
                         "--out", os.path.join(d, "x.wav"),
                         "--xfade", xfade]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0, err
        assert "crossfade_s" in err and "shorter than one sample" in err, err
        assert set(os.listdir(d)) == before

    @pytest.mark.parametrize("block", ["96001", "150000", "2000000000"])
    def test_block_longer_than_an_interval_fails_in_one_line(self, tmp_path,
                                                             capsys, block):
        """A block longer than one context interval (96000 samples at 48
        kHz) would skip updates or allocate its span: one diagnostic line,
        nothing left behind."""
        d, scene, scenario = self.demo_paths(tmp_path)
        before = set(os.listdir(d))
        assert cli_main(["render", "--scene", scene, "--scenario", scenario,
                         "--out", os.path.join(d, "x.wav"),
                         "--block", block]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0, err
        assert err.startswith("error [cli_io]: options.block_size="), err
        assert "longer than one context interval" in err, err
        assert set(os.listdir(d)) == before

    def test_block_of_one_interval_renders(self, tmp_path):
        d, scene, scenario = self.demo_paths(tmp_path)
        out = os.path.join(d, "x.wav")
        assert cli_main(["render", "--scene", scene, "--scenario", scenario,
                         "--out", out, "--block", "96000"]) == 0
        report = json.load(open(out + ".report.json"))
        assert [iv["t_s"] for iv in report["intervals"]] == [0.0]

    def test_time_shift_longer_than_the_stems_renders(self, tmp_path, capsys):
        """A time shift of 1e12 ms, inside an equally wide tolerance, delays
        every object past the end of the programme: the render exits 0 with
        silent output instead of allocating the delay in zeros."""
        d = str(tmp_path)
        scene = demo.write_demo_scene(d, duration_s=4.0)
        scenario = demo.write_demo_scenario(d)
        doc = json.load(open(scene))
        for obj in doc["objects"]:
            obj.setdefault("constraints", {}).setdefault(
                "tolerances", {})["time_shift_ms"] = 1e12
        late = write_json(d, doc, "late-scene.json")
        rules = write_json(d, {"schema": "rulebook v1", "rules": [
            {"rule_id": "late", "when": "true", "actions": [
                {"kind": "time_shift", "ms": 1e12}]}]}, "rules.json")
        out = os.path.join(d, "x.wav")
        assert cli_main(["render", "--scene", late, "--scenario", scenario,
                         "--out", out, "--rules", rules]) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, samples = wavfile.read(out)
        assert samples.shape == (4 * 48000, demo.DEMO_RING_SPEAKERS)
        assert not np.any(samples)

    def test_devices_listing(self, tmp_path, capsys):
        config = demo.write_demo_devices(str(tmp_path))
        rc = cli_main(["devices", "--config", config])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 connected device(s)" in out
        assert "tablet" not in out
        assert "band 300-8000 Hz" in out  # phone defaults filled in

    def test_devices_duplicate_id_diagnostic(self, tmp_path, capsys):
        d = str(tmp_path)
        doc = json.load(open(demo.write_demo_devices(d)))
        doc["devices"][1]["id"] = "tv"
        config = write_json(d, doc, "dup.json")
        rc = cli_main(["devices", "--config", config])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cli_io" in err
        assert "tv" in err

    def _one_line_failures(self, capsys, validate_args, render_args, field):
        """validate exits 2 and render exits 1, each with one stderr line
        naming the field."""
        assert cli_main(["validate", *validate_args]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0 and field in err, err
        assert cli_main(["render", *render_args]) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and field in err, err

    @pytest.mark.parametrize("entry, field", [
        ({"t_s": 0.0, "band_levels_db": [float("nan")] * 7},
         "noise_timeline[0].band_levels_db[0]"),
        ({"t_s": 0.0, "band_levels_db": [-60.0] * 6 + [float("inf")]},
         "noise_timeline[0].band_levels_db[6]"),
        ({"t_s": 0.0, "band_levels_db": [-60.0, "loud"] + [-60.0] * 5},
         "noise_timeline[0].band_levels_db[1]"),
        ({"t_s": float("nan"), "band_levels_db": [-60.0] * 7},
         "noise_timeline[0].t_s"),
        ({"t_s": "0", "band_levels_db": [-60.0] * 7}, "noise_timeline[0].t_s"),
        ({"t_s": 0.0, "band_levels_db": -60.0}, "noise_timeline[0].band_levels_db"),
        ({"band_levels_db": [-60.0] * 7}, "noise_timeline[0]"),
        # a band power of 10 ** 400 overflows a float
        ({"t_s": 0.0, "band_levels_db": [4000.0] * 7},
         "noise_timeline[0].band_levels_db[0]"),
    ])
    def test_bad_noise_timeline_fails_at_parse_time(self, tmp_path, capsys,
                                                    entry, field):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scenario))
        doc["noise_timeline"] = [entry]
        bad = write_json(d, doc, "bad-scenario.json")
        out = os.path.join(d, "x.wav")
        self._one_line_failures(
            capsys, ["--scene", scene, "--scenario", bad],
            ["--scene", scene, "--scenario", bad, "--out", out], field)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field, value", [
        ("level_db", [1]), ("level_db", "-3"), ("diffuseness", float("nan"))])
    def test_bad_numeric_scene_field_fails_at_parse_time(self, tmp_path, capsys,
                                                         field, value):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        doc["objects"][0][field] = value
        bad = write_json(d, doc, "bad-scene.json")
        self._one_line_failures(
            capsys, ["--scene", bad],
            ["--scene", bad, "--scenario", scenario,
             "--out", os.path.join(d, "x.wav")], field)

    @pytest.mark.parametrize("field, value", [
        ("channels", [1]), ("channels", 1.5), ("channels", True),
        ("priority", 2.5), ("priority", "9"), ("priority", False)])
    def test_bad_integer_scene_field_fails_at_parse_time(self, tmp_path, capsys,
                                                         field, value):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        doc["objects"][0][field] = value
        bad = write_json(d, doc, "bad-scene.json")
        self._one_line_failures(
            capsys, ["--scene", bad],
            ["--scene", bad, "--scenario", scenario,
             "--out", os.path.join(d, "x.wav")], field)

    def test_bad_importance_fails_at_parse_time(self, tmp_path, capsys):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        doc["objects"][0]["advanced"]["importance"] = 8.5
        bad = write_json(d, doc, "bad-scene.json")
        self._one_line_failures(
            capsys, ["--scene", bad],
            ["--scene", bad, "--scenario", scenario,
             "--out", os.path.join(d, "x.wav")], "advanced.importance")

    def test_whole_number_integer_fields_stay_ints(self, tmp_path):
        d, scene, _ = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        doc["objects"][0].update(channels=1.0, priority=9.0)
        doc["objects"][0]["advanced"]["importance"] = 9.0
        obj = parse_scene(write_json(d, doc, "whole.json")).objects[0]
        for value in (obj.channels, obj.priority, obj.advanced.importance):
            assert type(value) is int

    @pytest.mark.parametrize("path", [("priority",), ("advanced", "importance")])
    def test_oversized_integer_is_out_of_range(self, tmp_path, capsys, path):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        target = doc["objects"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        bad = write_json(d, doc, "big.json")
        field = ".".join(path)
        assert cli_main(["validate", "--scene", bad]) == 1
        out = capsys.readouterr().out
        assert f"{field}=an integer of 401 digits above range" in out
        assert max(len(line) for line in out.splitlines()) < 200
        assert cli_main(["render", "--scene", bad, "--scenario", scenario,
                         "--out", os.path.join(d, "x.wav")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "above range" in err and field in err
        assert len(err) < 200, err

    @pytest.mark.parametrize("document, path", [
        ("rules", ("rules", 0, "actions", 0, "db")),
        ("scene", ("sample_rate",)),
    ])
    def test_oversized_integer_is_echoed_by_its_length(self, tmp_path, capsys,
                                                       document, path):
        """A diagnostic quotes an integer beyond 20 digits by its length, not
        digit for digit."""
        d, scene, scenario = self.demo_paths(tmp_path)
        docs = {"scene": json.load(open(scene)),
                "rules": {"schema": "rulebook v1", "rules": [
                    {"rule_id": "duck", "when": "true",
                     "actions": [{"kind": "gain_offset", "db": 0.0}]}]}}
        target = docs[document]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        out = os.path.join(d, "x.wav")
        argv = ["render", "--scene", write_json(d, docs["scene"], "big.json"),
                "--scenario", scenario, "--out", out,
                "--rules", write_json(d, docs["rules"], "rules.json")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "an integer of 401 digits" in err, err
        assert len(err) < 200, err

    @pytest.mark.parametrize("case, edits", [
        ("listeners", [("scenario", ("listeners",), 5)]),
        ("tail_bands", [("scene", ("objects", 0, "reverb"), {"tail_bands": 5})]),
        ("rules", [("rules", ("rules",), 5)]),
        ("actions", [("rules", ("rules", 0, "actions"), 5)]),
        ("selection_rules", [("select", ("rules",), 5)]),
        ("devices", [("devices", ("devices",), 5)]),
        ("action_kind", [("rules", ("rules", 0, "actions", 0, "kind"), [1])]),
        ("group", [("scene", ("objects", 0, "group"), 5),
                   ("scenario", ("listeners", 0, "team_preference"), "home")]),
        ("onscreen", [("scene", ("objects", 0, "advanced", "onscreen"), "false")]),
    ])
    def test_malformed_document_fails_in_one_line(self, tmp_path, capsys,
                                                  case, edits):
        """Non-lists in list fields, a non-string action kind or group and a
        non-bool flag each end in one diagnostic line, not a traceback or a
        silently misread value."""
        d, scene, scenario = self.demo_paths(tmp_path)
        docs = {"scene": json.load(open(scene)),
                "scenario": json.load(open(scenario)),
                "rules": json.loads(json.dumps(DEFAULT_RULEBOOK_DOC)),
                "select": json.loads(json.dumps(DEFAULT_SELECTION_DOC)),
                "devices": json.load(open(demo.write_demo_devices(d)))}
        for document, path, value in edits:
            target = docs[document]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        paths = {name: write_json(d, doc, f"bad-{name}.json")
                 for name, doc in docs.items()}
        out = os.path.join(d, "x.wav")
        if case == "devices":
            argv = ["devices", "--config", paths["devices"]]
        else:
            argv = ["render", "--scene", paths["scene"], "--scenario", paths["scenario"],
                    "--rules", paths["rules"], "--select", paths["select"],
                    "--out", out]
        assert cli_main(argv) in (1, 2)
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [") and err.count("\n") == 0, err
        assert not os.path.exists(out)

    def test_integer_beyond_the_parser_limit_fails_in_one_line(self, tmp_path,
                                                              capsys):
        """Python's JSON reader refuses integer literals of more than 4300
        digits with a ValueError that is not a JSONDecodeError."""
        d, scene, scenario = self.demo_paths(tmp_path)
        text = open(scene).read().replace('"priority": 9', '"priority": 1' + "0" * 5000, 1)
        bad = os.path.join(d, "huge.json")
        with open(bad, "w") as fh:
            fh.write(text)
        self._one_line_failures(
            capsys, ["--scene", bad],
            ["--scene", bad, "--scenario", scenario,
             "--out", os.path.join(d, "x.wav")], "not valid JSON")

    def test_missing_layout_file_is_a_schema_error(self, tmp_path, capsys):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scenario))
        doc["layout"] = "no-such-layout.json"
        bad = write_json(d, doc, "bad-scenario.json")
        out = os.path.join(d, "x.wav")
        self._one_line_failures(
            capsys, ["--scene", scene, "--scenario", bad],
            ["--scene", scene, "--scenario", bad, "--out", out],
            os.path.join(d, "no-such-layout.json"))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("failure", ["missing", "huge_integer"])
    @pytest.mark.parametrize("reader", ["scene", "scenario", "layout", "rules",
                                        "select", "devices"])
    def test_unreadable_document_fails_in_one_line(self, tmp_path, capsys,
                                                   reader, failure):
        """Every document reader turns a file it cannot open, or text the
        JSON reader rejects, into one SchemaError line and exit 1."""
        d, scene, scenario = self.demo_paths(tmp_path)
        bad = os.path.join(d, "bad.json")
        if failure == "huge_integer":
            with open(bad, "w") as fh:
                fh.write('{"n": 1' + "0" * 5000 + "}")
        if reader == "layout":
            doc = json.load(open(scenario))
            doc["layout"] = "bad.json"
            scenario = write_json(d, doc, "layout-ref.json")
        out = os.path.join(d, "x.wav")
        render = ["render", "--scene", scene, "--scenario", scenario, "--out", out]
        argv = {
            "scene": ["render", "--scene", bad, "--scenario", scenario, "--out", out],
            "scenario": ["render", "--scene", scene, "--scenario", bad, "--out", out],
            "layout": render,
            "rules": render + ["--rules", bad],
            "select": render + ["--select", bad],
            "devices": ["devices", "--config", bad],
        }[reader]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0, err
        assert err.startswith("error [scene_model]: "), err
        assert ("cannot read" if failure == "missing" else "not valid JSON") in err
        assert not os.path.exists(out)

    def test_non_finite_report_value_fails_in_one_line(self, tmp_path, capsys,
                                                       monkeypatch):
        d, scene, scenario = self.demo_paths(tmp_path)
        monkeypatch.setattr(engine, "band_snr_score", lambda *a: float("nan"))
        out = os.path.join(d, "x.wav")
        rc = cli_main(["render", "--scene", scene, "--scenario", scenario,
                       "--out", out])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = captured.err.strip()
        assert err.count("\n") == 0, err
        assert "report holds a non-finite number" in err
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".report.json")

    @pytest.mark.parametrize("flag", ["--report", "--metrics"])
    def test_unwritable_report_or_metrics_leaves_no_output(
            self, tmp_path, capsys, flag):
        """A report or metrics path in a missing directory ends in one
        cli_io line and exit 1, and leaves no WAV, partial file, report or
        metrics CSV behind."""
        d, scene, scenario = self.demo_paths(tmp_path)
        before = set(os.listdir(d))
        rc = cli_main(["render", "--scene", scene, "--scenario", scenario,
                       "--out", os.path.join(d, "x.wav"),
                       flag, os.path.join(d, "no", "such", "dir", "r.json")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "Traceback" not in err
        assert err.count("\n") == 0, err
        assert err.startswith("error [cli_io]: "), err
        assert set(os.listdir(d)) == before

    def test_non_finite_block_mid_stream_leaves_no_output(
            self, tmp_path, capsys, monkeypatch):
        """A span that turns non-finite after the first interval, when
        part of the WAV has already streamed, ends in a one-line error and
        leaves no WAV, partial file, report or metrics CSV behind. The NaN
        enters through a lane's segment read, which every lane makes each
        span whichever way it mixes; a span is at most SPAN_SAMPLES long,
        and longer reads are the intelligibility proxy's windows, which
        pass untouched."""
        d = str(tmp_path)
        scene = demo.write_demo_scene(d, duration_s=5.0)
        scenario = demo.write_demo_scenario(d)
        before = set(os.listdir(d))
        calls = []
        segment = engine._Source.segment

        def counting(source, t0, n):
            if n <= engine.SPAN_SAMPLES:
                calls.append(t0)
            return segment(source, t0, n)

        monkeypatch.setattr(engine._Source, "segment", counting)
        out = os.path.join(d, "clean.wav")
        assert cli_main(["render", "--scene", scene, "--scenario", scenario,
                         "--out", out]) == 0
        clean = list(calls)
        bad_call = len(clean) * 3 // 4   # at about 3.75 s of 5 s
        # the render stops once the poisoned span is mixed: the span's
        # other reads still happen, no later span's do
        bad_span = clean[bad_call - 1]
        stop = max(i for i, t0 in enumerate(clean) if t0 == bad_span) + 1
        assert 0 < bad_span and stop < len(clean)
        for name in ("clean.wav", "clean.wav.report.json", "clean.wav.metrics.csv"):
            os.remove(os.path.join(d, name))
        capsys.readouterr()
        calls.clear()

        def poisoned(source, t0, n):
            seg = counting(source, t0, n)
            if n <= engine.SPAN_SAMPLES and len(calls) == bad_call:
                return seg * np.nan
            return seg

        monkeypatch.setattr(engine._Source, "segment", poisoned)
        rc = cli_main(["render", "--scene", scene, "--scenario", scenario,
                       "--out", os.path.join(d, "x.wav")])
        assert rc == 1
        assert calls == clean[:stop]
        err = capsys.readouterr().err.strip()
        assert "Traceback" not in err
        assert err.count("\n") == 0, err
        assert "rendered output contains non-finite samples" in err
        assert set(os.listdir(d)) == before

    @pytest.mark.parametrize("xfade", ["nan", "inf"])
    def test_non_finite_crossfade_fails_in_one_line(self, tmp_path, capsys,
                                                    xfade):
        d, scene, scenario = self.demo_paths(tmp_path)
        before = set(os.listdir(d))
        rc = cli_main(["render", "--scene", scene, "--scenario", scenario,
                       "--out", os.path.join(d, "x.wav"), "--xfade", xfade])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "Traceback" not in err
        assert err.count("\n") == 0, err
        assert err.startswith("error [cli_io]: options.crossfade_s "), err
        assert set(os.listdir(d)) == before

    def test_non_finite_stem_fails_at_parse_time(self, tmp_path, capsys):
        """One NaN sample in a stem fails validate (exit 2) and render
        (exit 1) with one line naming the stem, before any block renders."""
        d, scene, scenario = self.demo_paths(tmp_path)
        path = os.path.join(d, "narrator.wav")
        rate, samples = wavfile.read(path)
        samples[len(samples) // 2] = np.nan
        wavfile.write(path, rate, samples)
        before = set(os.listdir(d))
        for argv, code in (
                (["validate", "--scene", scene], 2),
                (["render", "--scene", scene, "--scenario", scenario,
                  "--out", os.path.join(d, "x.wav")], 1)):
            assert cli_main(argv) == code
            err = capsys.readouterr().err.strip()
            assert err.count("\n") == 0, err
            assert err.startswith("error [scene_model]: "), err
            assert "narrator.wav" in err and "non-finite" in err
        assert set(os.listdir(d)) == before

    @pytest.mark.parametrize("path, value, named", [
        (("layout", "speakers", 1, "id"), "s0", "speaker id 's0' appears twice"),
        (("layout", "speakers", 1, "position", "dist"), 0, "speaker s1 distance must be > 0"),
        (("layout", "speakers", 1, "position", "dist"), -2.0, "speaker s1 distance must be > 0"),
        (("listeners", 0, "intelligibility_preference"), 7.0,
         "listeners[0].intelligibility_preference must lie in 0..1"),
        (("listeners", 0, "envelopment_preference"), -0.5,
         "listeners[0].envelopment_preference must lie in 0..1"),
    ], ids=["repeated-speaker-id", "zero-distance", "negative-distance",
            "intelligibility-preference", "envelopment-preference"])
    def test_invalid_scenario_fails_in_one_line(self, tmp_path, capsys, path,
                                                value, named):
        """A scenario the renderer cannot honour fails validate (exit 2) and
        render (exit 1) with one line naming the culprit, writing nothing."""
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scenario))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = write_json(d, doc, "bad-scenario.json")
        before = set(os.listdir(d))
        self._one_line_failures(
            capsys, ["--scene", scene, "--scenario", bad],
            ["--scene", scene, "--scenario", bad, "--out", os.path.join(d, "x.wav")],
            named)
        assert set(os.listdir(d)) == before

    def test_missing_stem_single_line_diagnostic(self, tmp_path, capsys):
        d, scene, scenario = self.demo_paths(tmp_path)
        doc = json.load(open(scene))
        doc["objects"][0]["stems"] = ["vanished.wav"]
        bad = write_json(d, doc, "bad.json")
        rc = cli_main(["render", "--scene", bad, "--scenario", scenario,
                       "--out", os.path.join(d, "x.wav")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "scene_model" in err
        assert "vanished.wav" in err
