"""Acceptance suite: one test per release gate, tolerances pinned.

Each test is self-contained and checks the implementation against an
independently coded oracle (explicit normal-equations solves, reference
sorts, Schroeder decay fits) or against hard numeric bounds.
"""

import json
import math
import os
import time

import numpy as np

from obar import demo
from obar.adapt import (
    AdaptationAction,
    action_magnitude,
    adapt_reverb,
    apply_rules,
    clamp_to_tolerances,
    resolve_priority,
    tolerance_bound,
)
from obar.cli import main as cli_main
from obar.context import (
    MIN_NOISE_BLOCK,
    ContextTracker,
    band_snr_score,
    build_scenario,
    noise_at,
    parse_scenario,
)
from obar.dsp import (
    BLOCK_SIZE,
    apply_directives,
    octave_band_levels,
    power_sum_db,
)
from obar.engine import CONTEXT_INTERVAL_S, RenderJob, run_render
from obar.errors import NotBracketed
from obar.geometry import Direction3
from obar.renderclass import RendererKind
from obar.renderers import (
    PM_BETA_DEFAULT,
    SPEED_OF_SOUND_MS,
    ambi_encode,
    ambi_mm_decode,
    nearest_speaker_gains,
    pm_filters,
    vbap_gains,
)
from obar.routing import max_ambi_order
from obar.rules import default_rulebook
from obar.scene import (
    DEFAULT_PRIORITY_ORDER,
    EditorialConstraints,
    ObjectType,
    ReverbMetadata,
    TailBand,
    Tolerances,
    parse_scene,
)

from conftest import (
    FS,
    infeasibility_reasons,
    object_doc,
    render_output,
    ring_speakers,
    route_scene,
    scenario_doc,
    scene_doc,
    write_json,
    write_scene,
    write_stem,
)


def ring(count):
    return tuple(Direction3(360.0 * i / count) for i in range(count))


def units_2d(dirs):
    return np.array([d.unit_vector()[:2] for d in dirs])


# ---------------------------------------------------------------------------
# 1. panning laws

def test_1_panning_law_suite():
    rng = np.random.default_rng(2026)
    started = time.perf_counter()
    panned = 0
    while panned < 1000:
        count = int(rng.integers(2, 9))
        step = 360.0 / count
        dirs = tuple(
            Direction3(i * step + rng.uniform(-0.45, 0.45) * step)
            for i in range(count))
        target = Direction3(float(rng.uniform(-180.0, 180.0)))

        one_hot = nearest_speaker_gains(dirs, target)
        assert sorted(one_hot.tolist()) == [0.0] * (count - 1) + [1.0]

        try:
            g = vbap_gains(dirs, target)
        except NotBracketed:
            continue
        assert abs(float(np.sum(g * g)) - 1.0) <= 1e-9
        r = g @ units_2d(dirs)
        r = r / np.linalg.norm(r)
        assert np.linalg.norm(r - np.array(target.unit_vector()[:2])) <= 1e-9
        panned += 1
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 2. ambisonic decode vs explicit pseudoinverse; energy vector accuracy

def test_2_ambisonic_oracle():
    """Mode-matching decode equals the pseudoinverse; energy vectors are as
    accurate as that decode allows.

    For every ring of L speakers (L in 3..8) and order N (1..3) with
    2N+1 <= L, the decode is checked against an explicit normal-equation
    pseudoinverse. Oversampled rings (L >= 2N+2) must steer the energy vector
    to within 0.1 deg of every azimuth on a 1 deg grid.

    At critical sampling (L = 2N+1) the encode matrix is square, so the
    decode is unique: on a uniform ring its gains are D_N(phi_l - phi_t)/L,
    the order-N Dirichlet kernel. The squared gains carry harmonic 2N = L-1,
    which aliases onto the first circular moment of an L-point ring, giving
    r_E ~ e^{i phi_t} (2N + e^{i L delta}) with delta = phi_0 - phi_t. The
    direction error is therefore |atan2(sin L delta, 2N + cos L delta)|:
    zero at the speakers and at most arcsin(1/(2N)) between them. Critical
    rings are checked pointwise against that closed form.
    """
    vector_tol_deg = 0.1
    closed_form_tol_deg = 1e-6
    for count in range(3, 9):
        dirs = ring(count)
        units = units_2d(dirs)
        for order in range(1, 4):
            if 2 * order + 1 > count:
                continue
            decode = ambi_mm_decode(dirs, order)
            encodes = np.array([ambi_encode(d, order) for d in dirs])
            # oracle: explicit normal-equations pseudoinverse via LU solve
            oracle = np.linalg.solve(encodes.T @ encodes, encodes.T).T
            assert np.max(np.abs(decode - oracle)) <= 1e-9, (count, order)

            critical = count == 2 * order + 1
            worst = 0.0
            for az in np.arange(0.0, 360.0, 1.0):
                target = Direction3(float(az))
                gains = decode @ ambi_encode(target, order)
                energy = gains * gains
                r_e = energy @ units / np.sum(energy)
                t2 = np.array(target.unit_vector()[:2])
                cosang = np.clip(r_e @ t2 / np.linalg.norm(r_e), -1.0, 1.0)
                error = float(np.degrees(np.arccos(cosang)))
                worst = max(worst, error)
                where = f"L={count} N={order} az={az:.0f} deg"
                if not critical:
                    assert error <= vector_tol_deg, (
                        f"{where}: energy vector off by {error:.6f} deg")
                    continue
                delta = math.radians(dirs[0].az_deg - float(az))
                expected = abs(math.degrees(math.atan2(
                    math.sin(count * delta), 2 * order + math.cos(count * delta))))
                assert abs(error - expected) <= closed_form_tol_deg, (
                    f"{where}: energy vector off by {error:.6f} deg, "
                    f"critical-sampling aliasing gives {expected:.6f} deg")
            if critical:
                bound = math.degrees(math.asin(1.0 / (2 * order)))
                assert worst <= bound + closed_form_tol_deg, (
                    f"L={count} N={order}: worst error {worst:.6f} deg "
                    f"exceeds arcsin(1/2N) = {bound:.6f} deg")


# ---------------------------------------------------------------------------
# 3. pressure matching vs direct regularized normal equations

def test_3_pm_oracle_equivalence():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n_spk = int(rng.integers(1, 5))
        n_pts = int(rng.integers(1, 5))
        speakers = tuple(
            Direction3(float(rng.uniform(-180, 180)), 0.0,
                       float(rng.uniform(1.5, 2.5)))
            for _ in range(n_spk))
        points = tuple(
            Direction3(float(rng.uniform(-180, 180)), 0.0,
                       float(rng.uniform(0.1, 0.8)))
            for _ in range(n_pts))
        source = Direction3(float(rng.uniform(-180, 180)), 0.0,
                            float(rng.uniform(2.8, 4.0)))

        design = pm_filters(speakers, points, source)
        assert design.spectra.shape == (n_spk, 129)

        spk = np.array([p.cartesian() for p in speakers])
        ctl = np.array([p.cartesian() for p in points])
        src = np.array(source.cartesian())
        d_spk = np.linalg.norm(ctl[:, None, :] - spk[None, :, :], axis=2)
        d_src = np.linalg.norm(ctl - src[None, :], axis=1)
        beta = PM_BETA_DEFAULT

        for fi, f in enumerate(design.freqs):
            k = 2.0 * np.pi * f / SPEED_OF_SOUND_MS
            G = np.exp(-1j * k * d_spk) / (4.0 * np.pi * d_spk)
            p = np.exp(-1j * k * d_src) / (4.0 * np.pi * d_src)
            gram = G.conj().T @ G + beta * np.eye(n_spk)
            q_oracle = np.linalg.solve(gram, G.conj().T @ p)
            q = design.spectra[:, fi]
            assert (np.linalg.norm(q - q_oracle)
                    <= 1e-6 * np.linalg.norm(q_oracle))

            def objective(w):
                return (np.sum(np.abs(G @ w - p) ** 2)
                        + beta * np.sum(np.abs(w) ** 2))

            assert objective(q) <= objective(q_oracle) + 1e-9


# ---------------------------------------------------------------------------
# 4. tolerance clamps never exceeded; priority matches a reference sort

_KIND_PROPERTY = {
    "GainOffset": "level",
    "SpectralTilt": "level",
    "Reposition": "position",
    "TimeShift": "velocity",
    "Decorrelate": "locatedness",
    "ReverbTailScale": "envelopment",
    "Prune": "scale",
    "Regroup": "scale",
}


def _reference_sort(actions, order):
    decorated = [(-order.index(_KIND_PROPERTY[a.kind]), i, a)
                 for i, a in enumerate(actions)]
    decorated.sort(key=lambda rec: (rec[0], rec[1]))
    return [a for _, _, a in decorated]


def _random_action(rng, kind):
    if kind == "Reposition":
        return AdaptationAction("x", kind,
                                daz_deg=float(rng.uniform(-180, 180)),
                                del_deg=float(rng.uniform(-90, 90)))
    if kind == "ReverbTailScale":
        return AdaptationAction("x", kind, value=float(rng.uniform(-1, 5)))
    return AdaptationAction("x", kind, value=float(rng.uniform(-600, 600)))


def test_4_tolerance_supremacy():
    rng = np.random.default_rng(4)
    kinds = list(_KIND_PROPERTY)
    violations = 0
    for _ in range(10_000):
        constraints = EditorialConstraints(
            tolerances=Tolerances(
                level_db=float(rng.uniform(0, 24)),
                position_deg=float(rng.uniform(0, 90)),
                time_shift_ms=float(rng.uniform(0, 500)),
                spectral_tilt_db=float(rng.uniform(0, 12)),
                reverb_scale=float(rng.uniform(0, 1))),
            priority_order=tuple(rng.permutation(DEFAULT_PRIORITY_ORDER)))

        kind = kinds[int(rng.integers(0, len(kinds)))]
        clamped = clamp_to_tolerances(_random_action(rng, kind), constraints)
        if action_magnitude(clamped) > tolerance_bound(kind, constraints):
            violations += 1

        requested = [_random_action(rng, kinds[int(rng.integers(0, len(kinds)))])
                     for _ in range(int(rng.integers(3, 9)))]
        assert (resolve_priority(requested, constraints)
                == _reference_sort(requested, constraints.priority_order))
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. noise step triggers adaptation that raises the intelligibility proxy

def _mono(obj):
    parts = [np.asarray(s.samples, dtype=float) for s in obj.stems]
    length = max(len(p) for p in parts)
    acc = np.zeros(length)
    for p in parts:
        acc[:len(p)] += p
    return acc / len(parts)


def _proxy(objects, window, noise, fs):
    t0, t1 = window
    n = max(t1 - t0, MIN_NOISE_BLOCK)
    speech = np.zeros(n)
    masker = np.zeros(n)
    for obj in objects:
        sig = _mono(obj)
        if obj.directives:
            sig = apply_directives(sig, obj.directives, fs)
        seg = sig[t0:t0 + n]
        if len(seg) < n:
            seg = np.concatenate([seg, np.zeros(n - len(seg))])
        seg = seg * 10.0 ** (obj.level_db / 20.0)
        if obj.object_type is ObjectType.DIALOGUE:
            speech += seg
        else:
            masker += seg
    masker_bands = octave_band_levels(masker, fs)
    combined = [power_sum_db((m, nz))
                for m, nz in zip(masker_bands, noise.band_levels_db)]
    return band_snr_score(octave_band_levels(speech, fs), combined)


def test_5_intelligibility_loop(tmp_path):
    d = str(tmp_path)
    scene_path = demo.write_demo_scene(d, duration_s=10.0)
    scenario_path = demo.write_demo_scenario(d, speakers=5, noise_step_db=10.0)
    no_rules = write_json(d, {"schema": "rulebook v1", "rules": []}, "none.json")

    adapted_run = run_render(RenderJob(
        scene_path=scene_path, scenario_path=scenario_path,
        out_path=os.path.join(d, "adapted.wav")))
    plain_run = run_render(RenderJob(
        scene_path=scene_path, scenario_path=scenario_path,
        out_path=os.path.join(d, "plain.wav"), rulebook_path=no_rules))

    scene = parse_scene(scene_path)
    layout, listeners, room_decay_tau_s, timeline = parse_scenario(scenario_path)
    scenario = build_scenario(layout, listeners, room_decay_tau_s)
    rulebook = default_rulebook()
    fs = scene.sample_rate
    n_total = scene.duration_samples
    interval = int(round(CONTEXT_INTERVAL_S * fs))
    mixes = {obj.object_id: _mono(obj) for obj in scene.objects}

    boundaries = []
    next_update = 0
    for b in range(math.ceil(n_total / BLOCK_SIZE)):
        t0 = b * BLOCK_SIZE
        if t0 >= next_update:
            boundaries.append(t0)
            next_update += interval
    assert len(boundaries) == len(adapted_run.report["intervals"])

    tracker = ContextTracker()
    stepped = 0
    for t0, adapted_iv, plain_iv in zip(
            boundaries, adapted_run.report["intervals"],
            plain_run.report["intervals"]):
        t_s = t0 / fs
        noise = noise_at(timeline, t_s)
        window = (t0, min(t0 + interval, max(n_total, t0 + BLOCK_SIZE)))
        measured = _proxy(scene.objects, window, noise, fs)
        ctx = tracker.update(scenario, scene, noise, measured)
        adapted_scene, report = apply_rules(scene, ctx, rulebook, mixes, window)
        with_actions = _proxy(adapted_scene.objects, window, noise, fs)

        # the engine's reported scores must come from the same signals
        assert abs(adapted_iv["measured_intelligibility"] - measured) <= 1e-6
        assert abs(adapted_iv["projected_intelligibility"] - with_actions) <= 1e-6
        assert abs(plain_iv["projected_intelligibility"]
                   - plain_iv["measured_intelligibility"]) <= 1e-6

        for applied in adapted_iv["adaptation"]["applied"]:
            constraints = scene.object_by_id(applied["object_id"]).constraints
            assert (applied["clamped"]
                    <= tolerance_bound(applied["kind"], constraints))

        if t_s >= demo.NOISE_STEP_T_S:
            stepped += 1
            assert adapted_iv["adaptation"]["applied"]
            assert with_actions - measured >= 0.05
            assert (adapted_iv["projected_intelligibility"]
                    - plain_iv["projected_intelligibility"]) >= 0.05
    assert stepped >= 2


# ---------------------------------------------------------------------------
# 6. renderer crossfade keeps output power flat

def test_6_crossfade_flatness(tmp_path):
    selection = {
        "schema": "selection v1",
        "rules": [
            {"match": "noise_broadband_db > -45", "renderer": "AmbiMM",
             "order": 2},
            {"match": "true", "renderer": "VBAP"},
        ],
    }
    timeline = [
        {"t_s": 0.0, "band_levels_db": [-80.0] * 7},
        {"t_s": 2.0, "band_levels_db": [-50.0] * 7},
    ]
    for trial in range(10):
        d = str(tmp_path / f"trial{trial}")
        os.makedirs(d)
        samples = np.random.default_rng(trial).standard_normal(
            int(4.2 * FS)) * 0.1
        stem = write_stem(d, "hiss.wav", samples)
        scene = write_scene(d, scene_doc([
            object_doc("hiss", "effect", [stem],
                       position={"az": 20.0, "el": 0.0, "dist": None})]))
        scenario = write_json(
            d, scenario_doc(ring_speakers(5), noise_timeline=timeline),
            "scenario.json")
        select = write_json(d, selection, "select.json")
        result, output = render_output(RenderJob(
            scene_path=scene, scenario_path=scenario,
            out_path=os.path.join(d, "out.wav"), selection_path=select))

        fades = result.report["intervals"][1]["crossfades"]
        assert [f["from"] for f in fades] == ["VBAP"]
        assert [f["to"] for f in fades] == ["AmbiMM(2)"]
        fade_start = int(round(fades[0]["start_s"] * FS))
        fade_len = int(round(fades[0]["duration_s"] * FS))

        def window_power(lo, hi):
            return float(np.mean(np.sum(
                np.square(output[lo:hi]), axis=1)))

        steady_pre = window_power(int(0.5 * FS), fade_start)
        transition = window_power(fade_start, fade_start + fade_len)
        steady_post = window_power(fade_start + fade_len + int(0.1 * FS),
                                   int(4.1 * FS))
        assert abs(10.0 * math.log10(transition / steady_pre)) <= 0.5
        assert abs(10.0 * math.log10(transition / steady_post)) <= 0.5


# ---------------------------------------------------------------------------
# 7. reverb refit: analytic identity and rendered decay recovery

def exponential_tail(duration_s, tau_s, sample_rate, seed):
    """Noise burst with an exponential decay envelope exp(-t / tau)."""
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    return rng.standard_normal(n) * np.exp(-t / tau_s)


def test_7_reverb_adaptation_identity():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n_bands = int(rng.integers(1, 5))
        bands = tuple(
            TailBand(band_center_hz=float(center), onset_ms=5.0,
                     attack_ms=10.0, level_db=-12.0,
                     decay_tau_s=float(rng.uniform(0.1, 1.5)))
            for center in rng.choice([250.0, 500.0, 1000.0, 2000.0], n_bands))
        room = rng.uniform(0.2, 2.5, n_bands)
        feasible_mask = rng.random(n_bands) < 0.7
        ratio = np.where(feasible_mask, rng.uniform(0.25, 0.95, n_bands),
                         rng.uniform(1.0, 1.6, n_bands))
        target = room * ratio
        refit, feasible = adapt_reverb(
            ReverbMetadata(tail_bands=bands), room, target)
        for band, tau_r, tau_t, ok in zip(
                refit.tail_bands, room, target, feasible):
            assert ok == (tau_r > tau_t)
            if ok:
                combined = 1.0 / (1.0 / band.decay_tau_s + 1.0 / tau_r)
                assert abs(combined - tau_t) <= 1e-9

    for tau_room, tau_target, seed in [(0.8, 0.35, 5), (1.2, 0.5, 6),
                                       (0.45, 0.2, 7)]:
        band = TailBand(1000.0, 0.0, 0.0, 0.0, decay_tau_s=0.6)
        refit, feasible = adapt_reverb(
            ReverbMetadata(tail_bands=(band,)), (tau_room,), (tau_target,))
        assert feasible == (True,)
        duration_s = max(6.0 * tau_target, 1.0)
        tail = exponential_tail(duration_s, refit.tail_bands[0].decay_tau_s,
                                FS, seed=seed)
        t = np.arange(len(tail)) / FS
        tail = tail * np.exp(-t / tau_room)
        # Schroeder backward integration, fitted over the early decay
        edc = np.cumsum(tail[::-1] ** 2)[::-1]
        lo = int(0.25 * tau_target * FS)
        hi = int(1.5 * tau_target * FS)
        slope = np.polyfit(t[lo:hi], np.log(edc[lo:hi]), 1)[0]
        tau_fit = -2.0 / slope
        assert abs(tau_fit - tau_target) <= 0.05 * tau_target


# ---------------------------------------------------------------------------
# 8. end-to-end render: fast, deterministic, feasible assignments

def renderer_label(label):
    """A report's renderer label, such as "AmbiMM(2)", as (kind, order or None)."""
    name, _, order = label.partition("(")
    return RendererKind(name), int(order.rstrip(")")) if order else None


def test_8_determinism_end_to_end(tmp_path):
    d = str(tmp_path)
    scene_path = demo.write_demo_scene(d, duration_s=10.0)
    scenario_path = demo.write_demo_scenario(d, speakers=5)
    out_a = os.path.join(d, "a.wav")
    out_b = os.path.join(d, "b.wav")

    started = time.perf_counter()
    assert cli_main(["render", "--scene", scene_path, "--scenario",
                     scenario_path, "--out", out_a]) == 0
    assert time.perf_counter() - started < 10.0
    assert cli_main(["render", "--scene", scene_path, "--scenario",
                     scenario_path, "--out", out_b]) == 0

    with open(out_a, "rb") as fh:
        bytes_a = fh.read()
    with open(out_b, "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    with open(out_a + ".metrics.csv") as fh:
        metrics_a = fh.read()
    with open(out_b + ".metrics.csv") as fh:
        metrics_b = fh.read()
    assert metrics_a == metrics_b

    with open(out_a + ".report.json") as fh:
        report_a = json.load(fh)
    with open(out_b + ".report.json") as fh:
        report_b = json.load(fh)
    report_a.pop("timing")
    report_b.pop("timing")
    assert report_a == report_b

    scene = parse_scene(scene_path)
    layout, listeners, _, _ = parse_scenario(scenario_path)
    scenario = build_scenario(layout, listeners)
    top_order = max_ambi_order(scenario.layout.speakers)
    for iv in report_a["intervals"]:
        for record in iv["assignments"]:
            kind, order = renderer_label(record["renderer"])
            obj = scene.object_by_id(record["object_id"])
            assert kind.value not in infeasibility_reasons(scenario.layout, obj)
            if kind is RendererKind.AMBI_MM:
                assert order is not None and 1 <= order <= top_order
            else:
                assert order is None


# ---------------------------------------------------------------------------
# 9. two dialogue objects land on two different renderer classes

def test_9_same_type_divergence(tmp_path):
    d = str(tmp_path)
    scene = parse_scene(demo.write_two_voice_scene(d))
    layout, listeners, _, _ = parse_scenario(
        demo.write_demo_scenario(d, speakers=5))
    scenario = build_scenario(layout, listeners)
    ctx = ContextTracker().update(scenario, scene)
    assignments = route_scene(scene, scenario, ctx)

    assert len(assignments) == 2
    types = {scene.object_by_id(a.object_id).object_type for a in assignments}
    assert types == {ObjectType.DIALOGUE}
    kinds = {a.renderer.kind for a in assignments}
    assert len(kinds) == 2
