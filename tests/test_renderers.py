"""Renderer bank tests.

Derived expectations are computed by independent oracle routes (explicit
normal equations, brute-force nearest search, direct 2x2 solves) and frozen
here; the implementation must agree without sharing code paths.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from obar import dsp, renderers
from obar.errors import (
    NotBracketed,
    RankDeficient,
    SourceInsideArray,
    StateMismatch,
    TooFewSpeakers,
)
from obar.geometry import Direction3, angle_between_deg
from obar.routing import pm_control_points
from obar.renderers import (
    DrivingFunction,
    ambi_encode,
    ambi_mm_decode,
    diffuse_gains,
    nearest_speaker_gains,
    new_render_state,
    pm_default_freqs,
    pm_filters,
    render_block,
    render_spectrum,
    vbap_gains,
    wfs_drive,
)

FS = 48000


def ring(count, start=0.0):
    dirs = []
    for i in range(count):
        az = start + 360.0 * i / count
        az = ((az + 180.0) % 360.0) - 180.0
        dirs.append(Direction3(180.0 if az == -180.0 else az))
    return dirs


class TestNearestSpeaker:
    def test_picks_minimum_angle(self):
        dirs = [Direction3(0), Direction3(90), Direction3(180), Direction3(-90)]
        assert nearest_speaker_gains(dirs, Direction3(85)).tolist() == [0, 1, 0, 0]

    def test_tie_breaks_to_lowest_index(self):
        dirs = [Direction3(0), Direction3(90)]
        assert nearest_speaker_gains(dirs, Direction3(45)).tolist() == [1, 0]

    def test_single_speaker(self):
        assert nearest_speaker_gains([Direction3(123)], Direction3(0)).tolist() == [1]

    def test_empty_subset_rejected(self):
        with pytest.raises(TooFewSpeakers):
            nearest_speaker_gains([], Direction3(0))

    @given(st.integers(2, 8), st.floats(-180, 180), st.floats(0, 359))
    def test_matches_brute_force_and_is_one_hot(self, count, target_az, start):
        dirs = ring(count, start)
        target = Direction3(((target_az + 180.0) % 360.0) - 180.0 or 180.0)
        gains = nearest_speaker_gains(dirs, target)
        assert sorted(gains.tolist()) == [0.0] * (count - 1) + [1.0]
        chosen = int(np.argmax(gains))
        angles = [angle_between_deg(d, target) for d in dirs]
        assert angles[chosen] <= min(angles) + 1e-9


class TestVbap:
    def test_symmetric_pair(self):
        g = vbap_gains([Direction3(45), Direction3(-45)], Direction3(0))
        assert g == pytest.approx([0.70711, 0.70711], abs=1e-5)

    def test_on_speaker_identity(self):
        g = vbap_gains([Direction3(45), Direction3(-45)], Direction3(45))
        assert g == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_orthogonal_pair_gains_are_direction_components(self):
        g = vbap_gains([Direction3(0), Direction3(90)], Direction3(30))
        assert g == pytest.approx([0.86603, 0.50000], abs=1e-5)

    def test_outside_arc_raises(self):
        with pytest.raises(NotBracketed):
            vbap_gains([Direction3(0), Direction3(90)], Direction3(180))

    def test_feasibility_helper_agrees(self):
        """vbap_gains is the feasibility check: it pans inside the pair's
        arc and raises NotBracketed outside it."""
        pair = [Direction3(0), Direction3(90)]
        assert np.count_nonzero(vbap_gains(pair, Direction3(30))) == 2
        with pytest.raises(NotBracketed):
            vbap_gains(pair, Direction3(180))

    @given(st.integers(3, 8), st.floats(-179.99, 180), st.floats(0, 359))
    @settings(max_examples=150)
    def test_reconstruction_on_rings(self, count, target_az, start):
        dirs = ring(count, start)
        target = Direction3(target_az if target_az != -180.0 else 180.0)
        gains = vbap_gains(dirs, target)
        assert np.sum(gains**2) == pytest.approx(1.0, abs=1e-9)
        assert np.min(gains) >= 0.0
        assert np.count_nonzero(gains) <= 2
        mix = gains @ np.array([d.unit_vector() for d in dirs])
        mix /= np.linalg.norm(mix)
        assert mix == pytest.approx(target.unit_vector(), abs=1e-9)

    def test_triplet_encloses_elevated_target(self):
        dirs = [Direction3(-60), Direction3(60), Direction3(0, 90)]
        target = Direction3(0, 20)
        gains = vbap_gains(dirs, target)
        assert np.sum(gains**2) == pytest.approx(1.0, abs=1e-9)
        assert np.min(gains) >= 0.0
        mix = gains @ np.array([d.unit_vector() for d in dirs])
        mix /= np.linalg.norm(mix)
        assert mix == pytest.approx(target.unit_vector(), abs=1e-9)

    def test_triplet_rejects_unreachable_target(self):
        dirs = [Direction3(-60), Direction3(60), Direction3(0, 90)]
        with pytest.raises(NotBracketed):
            vbap_gains(dirs, Direction3(0, -40))

    def test_two_coincident_speakers_cannot_bracket(self):
        with pytest.raises(NotBracketed):
            vbap_gains([Direction3(10), Direction3(10)], Direction3(20))


class TestAmbisonics:
    def test_encode_front(self):
        assert ambi_encode(Direction3(0), 1) == pytest.approx([1, 1, 0])

    def test_encode_left(self):
        assert ambi_encode(Direction3(90), 1) == pytest.approx([1, 0, 1], abs=1e-15)

    def test_encode_order_two(self):
        got = ambi_encode(Direction3(45), 2)
        assert got == pytest.approx([1, 0.70711, 0.70711, 0, 1], abs=1e-5)

    def test_square_decode_matches_normal_equation_oracle(self):
        dirs = ring(4)
        decode = ambi_mm_decode(dirs, 1)
        for i, d in enumerate(dirs):
            phi = math.radians(d.az_deg)
            row = 0.25 * np.array([1.0, 2.0 * math.cos(phi), 2.0 * math.sin(phi)])
            assert decode[i] == pytest.approx(row, abs=1e-12)

    def test_square_gains_for_on_speaker_direction(self):
        decode = ambi_mm_decode(ring(4), 1)
        gains = decode @ ambi_encode(Direction3(0), 1)
        assert gains == pytest.approx([0.75, 0.25, -0.25, 0.25], abs=1e-12)

    @pytest.mark.parametrize("count,order", [(3, 1), (5, 1), (5, 2), (7, 3), (8, 3)])
    def test_mode_matching_residual(self, count, order):
        dirs = ring(count, start=11.0)
        decode = ambi_mm_decode(dirs, order)
        encodes = np.array([ambi_encode(d, order) for d in dirs])
        identity = encodes.T @ decode
        assert np.max(np.abs(identity - np.eye(2 * order + 1))) < 1e-9

    def test_coincident_speakers_rank_deficient(self):
        dirs = [Direction3(0), Direction3(0), Direction3(90)]
        with pytest.raises(RankDeficient):
            ambi_mm_decode(dirs, 1)

    def test_too_few_speakers_rank_deficient(self):
        with pytest.raises(RankDeficient):
            ambi_mm_decode(ring(4), 2)

    @pytest.mark.parametrize("count,order", [(4, 1), (6, 1), (6, 2), (8, 2), (8, 3)])
    def test_energy_vector_oversampled_layouts(self, count, order):
        """With more speakers than modes the energy vector tracks any direction."""
        dirs = ring(count, start=7.0)
        decode = ambi_mm_decode(dirs, order)
        units = np.array([d.unit_vector() for d in dirs])
        for theta in np.linspace(-180.0, 180.0, 360, endpoint=False):
            gains = decode @ ambi_encode(Direction3(theta), order)
            vec = (gains**2) @ units / np.sum(gains**2)
            got = math.degrees(math.atan2(vec[1], vec[0]))
            err = abs(((got - theta + 180.0) % 360.0) - 180.0)
            assert err < 0.1, (count, order, theta, err)

    @pytest.mark.parametrize("count,order", [(3, 1), (5, 2), (7, 3)])
    def test_energy_vector_critical_layouts_on_speakers(self, count, order):
        """Critically sampled layouts are exact at the speaker directions."""
        dirs = ring(count, start=-13.0)
        decode = ambi_mm_decode(dirs, order)
        units = np.array([d.unit_vector() for d in dirs])
        for d in dirs:
            gains = decode @ ambi_encode(d, order)
            vec = (gains**2) @ units / np.sum(gains**2)
            got = math.degrees(math.atan2(vec[1], vec[0]))
            err = abs(((got - d.az_deg + 180.0) % 360.0) - 180.0)
            assert err < 0.1


class TestWfs:
    def test_single_speaker_normalizes_and_offsets(self):
        gains, delays = wfs_drive(
            [Direction3(0, distance_m=3.43)], Direction3(0, distance_m=10.0))
        assert gains == pytest.approx([1.0])
        assert delays == pytest.approx([0.0])

    def test_inverse_distance_gain_and_relative_delay(self):
        speakers = [Direction3(0, distance_m=2.0), Direction3(0, distance_m=1.0)]
        gains, delays = wfs_drive(speakers, Direction3(0, distance_m=3.0))
        assert gains[0] / gains[1] == pytest.approx(2.0, abs=1e-12)
        assert np.sum(gains**2) == pytest.approx(1.0, abs=1e-12)
        assert delays[0] == 0.0
        assert delays[1] * 1000.0 == pytest.approx(1000.0 / 343.0, abs=1e-6)

    def test_equidistant_speakers_align(self):
        speakers = [Direction3(a, distance_m=2.0) for a in (-30, 0, 30)]
        gains, delays = wfs_drive(speakers, Direction3(0, distance_m=2.0 + 5.0))
        assert delays.min() == 0.0
        assert np.all(delays >= 0.0)
        # symmetric about the middle speaker
        assert gains[0] == pytest.approx(gains[2], abs=1e-12)
        assert delays[0] == pytest.approx(delays[2], abs=1e-12)

    def test_source_inside_array_rejected(self):
        with pytest.raises(SourceInsideArray):
            wfs_drive([Direction3(0, distance_m=2.0)], Direction3(0, distance_m=1.0))

    def test_source_without_distance_rejected(self):
        with pytest.raises(SourceInsideArray):
            wfs_drive([Direction3(0, distance_m=2.0)], Direction3(0))


class TestPressureMatching:
    SPEAKERS = [Direction3(-30.0, distance_m=2.0), Direction3(30.0, distance_m=2.0)]
    CONTROL = [Direction3(0.0, distance_m=0.3), Direction3(120.0, distance_m=0.25)]
    SOURCE = Direction3(10.0, distance_m=5.0)

    def test_identity_when_source_on_single_speaker(self):
        design = pm_filters(
            [Direction3(0.0, distance_m=2.0)],
            [Direction3(0.0, distance_m=0.3)],
            Direction3(0.0, distance_m=2.0), beta=0.0, n_taps=256)
        assert np.max(np.abs(design.spectra - 1.0)) < 1e-12
        # linear-phase identity: a windowed unit impulse at the centre tap
        assert int(np.argmax(design.firs[0])) == 128
        assert design.firs[0][128] == pytest.approx(1.0, abs=1e-3)

    def test_norm_shrinks_with_regularization(self):
        norms = []
        for beta in (1e-3, 1e-1, 10.0):
            design = pm_filters(self.SPEAKERS, self.CONTROL, self.SOURCE,
                                freqs=np.array([1000.0]), beta=beta, n_taps=64)
            norms.append(float(np.linalg.norm(design.spectra[:, 0])))
        assert norms[0] > norms[1] > norms[2]

    def test_matches_normal_equation_oracle(self):
        freqs = pm_default_freqs()
        design = pm_filters(self.SPEAKERS, self.CONTROL, self.SOURCE,
                            freqs=freqs, beta=1e-3, n_taps=64)
        spk = np.array([p.cartesian() for p in self.SPEAKERS])
        ctl = np.array([p.cartesian() for p in self.CONTROL])
        src = np.array(self.SOURCE.cartesian())
        d_spk = np.linalg.norm(ctl[:, None, :] - spk[None, :, :], axis=2)
        d_src = np.linalg.norm(ctl - src[None, :], axis=1)
        c = 343.0
        for fi, f in enumerate(freqs):
            g = np.exp(-2j * np.pi * f * d_spk / c) / (4 * np.pi * d_spk)
            p = np.exp(-2j * np.pi * f * d_src / c) / (4 * np.pi * d_src)
            lhs = g.conj().T @ g + 1e-3 * np.eye(2)
            oracle = np.linalg.solve(lhs, g.conj().T @ p)
            rel = np.max(np.abs(oracle - design.spectra[:, fi]))
            rel /= max(float(np.max(np.abs(oracle))), 1e-30)
            assert rel < 1e-6

    def test_residual_is_locally_optimal(self):
        freqs = np.array([500.0, 4000.0])
        design = pm_filters(self.SPEAKERS, self.CONTROL, self.SOURCE,
                            freqs=freqs, beta=1e-3, n_taps=64)
        spk = np.array([p.cartesian() for p in self.SPEAKERS])
        ctl = np.array([p.cartesian() for p in self.CONTROL])
        src = np.array(self.SOURCE.cartesian())
        d_spk = np.linalg.norm(ctl[:, None, :] - spk[None, :, :], axis=2)
        d_src = np.linalg.norm(ctl - src[None, :], axis=1)
        rng = np.random.default_rng(5)
        for fi, f in enumerate(freqs):
            g = np.exp(-2j * np.pi * f * d_spk / 343.0) / (4 * np.pi * d_spk)
            p = np.exp(-2j * np.pi * f * d_src / 343.0) / (4 * np.pi * d_src)
            q = design.spectra[:, fi]

            def cost(qq):
                return float(np.sum(np.abs(g @ qq - p) ** 2)
                             + 1e-3 * np.sum(np.abs(qq) ** 2))

            base = cost(q)
            for _ in range(20):
                eps = 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                assert cost(q + eps) >= base

    def test_control_point_on_speaker_rejected(self):
        with pytest.raises(SourceInsideArray):
            pm_filters(self.SPEAKERS, [Direction3(-30.0, distance_m=2.0)],
                       self.SOURCE, n_taps=64)

    def test_default_grid_shape(self):
        freqs = pm_default_freqs()
        assert len(freqs) == 129
        assert freqs[0] == pytest.approx(50.0)
        assert freqs[-1] == pytest.approx(16000.0)
        assert np.all(np.diff(np.log(freqs)) > 0)
        design = pm_filters(self.SPEAKERS, self.CONTROL, self.SOURCE)
        assert design.firs.shape == (2, 1024)
        assert design.spectra.shape == (2, 129)


class TestDiffuse:
    def test_equal_power_gains(self):
        gains, firs = diffuse_gains(4)
        assert gains == pytest.approx([0.5] * 4)
        assert len(firs) == 4
        assert all(len(f) == 1024 for f in firs)

    def test_single_speaker_rejected(self):
        with pytest.raises(TooFewSpeakers):
            diffuse_gains(1)

    def test_repeatable(self):
        a = diffuse_gains(3)[1]
        b = diffuse_gains(3)[1]
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_rendered_noise_decorrelates(self):
        gains, firs = diffuse_gains(4)
        drive = DrivingFunction(("s0", "s1", "s2", "s3"), gains,
                                np.zeros(4), firs, FS)
        state = new_render_state(drive)
        noise = np.random.default_rng(7).standard_normal(FS * 10)
        blocks = [render_block(noise[i:i + 1024], drive, state)
                  for i in range(0, len(noise) - 1023, 1024)]
        out = np.vstack(blocks)
        corr = np.corrcoef(out.T)
        np.fill_diagonal(corr, 0.0)
        assert np.max(np.abs(corr)) < 0.2


def _per_speaker_fractional_delay(block, history, delay_s, sample_rate=FS):
    """Reference: a streaming delay line, one speaker's 4-tap Lagrange
    delay block by block from _delay_plan, summed tap by tap. history is
    the carried input (empty at the start); returns (delayed block, new
    history)."""
    n = len(block)
    m, kernel = dsp._delay_plan(delay_s * sample_rate)
    pad = (m + 3) if kernel is not None else m
    if len(history) < pad:
        history = np.concatenate([np.zeros(pad - len(history)), history])
    ext = np.concatenate([history, block]) if len(history) else block
    off = len(history)
    if kernel is None:
        out = ext[off - m : off - m + n] if m else block.copy()
    else:
        out = np.zeros(n)
        for k in range(4):
            start = off - (m + k)
            out += kernel[k] * ext[start : start + n]
    keep = max(pad, len(history))
    if keep:
        history = ext[-keep:] if len(ext) >= keep else ext
    return out, history


@st.composite
def _batched_cases(draw):
    """(gains, delays_s, firs, block lengths, signal seed) for 1-12 speakers:
    delays of each kind (none, whole samples, under one sample, fractional),
    FIR rows of 1-1100 taps mixed with unfiltered rows, and 1-5 blocks of
    one length from 1 to 3000 (a render state takes one block length),
    shorter or longer than the folded taps, so the filter runs with several
    partitions or with one."""
    count = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delays = []
    for kind in draw(st.lists(st.sampled_from(["none", "whole", "sub", "frac"]),
                              min_size=count, max_size=count)):
        whole = draw(st.integers(1, 400)) if kind in ("whole", "frac") else 0
        part = draw(st.floats(1e-6, 1.0 - 1e-6)) if kind in ("sub", "frac") else 0.0
        delays.append((whole + part) / FS)
    lengths = draw(st.lists(st.one_of(st.none(), st.integers(1, 1100)),
                            min_size=count, max_size=count))
    firs = tuple(None if n is None else rng.standard_normal(n) / math.sqrt(n)
                 for n in lengths)
    if draw(st.booleans()) and all(f is None for f in firs):
        firs = ()
    blocks = [draw(st.integers(1, 3000))] * draw(st.integers(1, 5))
    return (rng.uniform(-1.0, 1.0, count), np.array(delays), firs, blocks,
            draw(st.integers(0, 2**32 - 1)))


class TestRenderBlock:
    def _drive(self, gains, delays, firs=(), ids=None):
        gains = np.asarray(gains, dtype=float)
        ids = tuple(ids or (f"s{i}" for i in range(len(gains))))
        return DrivingFunction(ids, gains, np.asarray(delays, dtype=float),
                               tuple(firs), FS)

    def test_identity_drive(self):
        drive = self._drive([1.0], [0.0])
        state = new_render_state(drive)
        x = np.random.default_rng(0).standard_normal(1024)
        out = render_block(x, drive, state)
        assert np.array_equal(out[:, 0], x)

    def test_gain_scales_rms(self):
        drive = self._drive([0.5], [0.0])
        state = new_render_state(drive)
        x = np.random.default_rng(1).standard_normal(1024)
        out = render_block(x, drive, state)
        rms = math.sqrt(float(np.mean(out[:, 0] ** 2)))
        assert rms == pytest.approx(0.5 * math.sqrt(float(np.mean(x**2))), rel=1e-12)

    def test_integer_delay_places_impulse(self):
        drive = self._drive([1.0], [0.010])
        state = new_render_state(drive)
        x = np.zeros(1024)
        x[0] = 1.0
        out = render_block(x, drive, state)
        assert out[480, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(out[:, 0])) == pytest.approx(1.0, abs=1e-9)

    def test_state_mismatch_detected(self):
        a = self._drive([1.0], [0.0])
        b = self._drive([0.9], [0.0])
        state = new_render_state(a)
        with pytest.raises(StateMismatch):
            render_block(np.zeros(1024), b, state)

    def test_state_mismatch_detected_on_spectrum_path(self):
        """render_spectrum reads the same state as render_block and checks
        it the same way, before the state moves."""
        fir = np.random.default_rng(5).standard_normal(64)
        a = self._drive([1.0, 0.5], [0.0, 0.001], firs=(fir, fir))
        b = self._drive([1.0, 0.4], [0.0, 0.001], firs=(fir, fir))
        state = new_render_state(a)
        with pytest.raises(StateMismatch):
            render_spectrum(np.zeros(1024), b, state)
        assert state.fir._history is None
        assert render_spectrum(np.zeros(1024), a, state).shape == (2, 1025)

    def test_spectrum_path_equals_render_block(self):
        """BlockFIR.output of render_spectrum is render_block's block, to
        the bit, block after block."""
        rng = np.random.default_rng(6)
        gains, firs = diffuse_gains(3)
        drive = self._drive(gains, [0.0, 0.0004, 0.0013], firs=firs)
        direct, split = new_render_state(drive), new_render_state(drive)
        for _ in range(4):
            x = rng.standard_normal(300)
            spectrum = render_spectrum(x, drive, split)
            assert np.array_equal(dsp.BlockFIR.output(spectrum).T,
                                  render_block(x, drive, direct))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        fir = rng.standard_normal(64) * 0.1
        drive = self._drive([0.8, 0.3], [0.0015, 0.0], firs=(fir, None))
        x = rng.standard_normal(1024)
        y = rng.standard_normal(1024)
        a, b = 0.7, -1.3

        def run(sig):
            return render_block(sig, drive, new_render_state(drive))

        combined = run(a * x + b * y)
        separate = a * run(x) + b * run(y)
        assert np.max(np.abs(combined - separate)) < 1e-6

    def test_taps_transformed_once_per_drive(self, monkeypatch):
        """Twenty equal blocks, rendered as spans of 1, 4, 7 and 8 blocks,
        cost one transform of the taps for the whole drive and one forward
        transform of the mono input per span, of the span's K input block
        pairs at once, not one per speaker or per block; the spans give the
        samples of the blocks rendered one by one. The folded taps (1024
        decorrelator taps after a delay of up to 113.76 samples) span two
        partitions of the block; the delay line starts at zeros, so nothing
        else is transformed, and each transform is told apart by the shape
        of what it transforms."""
        gains, firs = diffuse_gains(4)
        drive = self._drive(gains, [0.0, 0.001, 0.0, 0.00237], firs=firs)
        state = new_render_state(drive)
        assert state.fir.taps.shape == (4, 112 + 1024 + 3)
        x = np.random.default_rng(8).standard_normal((20, 1024))
        by_block = new_render_state(drive)
        blockwise = np.concatenate([render_block(b, drive, by_block) for b in x])
        rfft = np.fft.rfft
        shapes = []

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        spans = [render_block(x[0], drive, state)]
        for a, b in ((1, 5), (5, 12), (12, 20)):
            spans.append(render_block(x[a:b], drive, state))
        assert shapes == [
            (2, 4, 1024),         # the taps: 2 partitions x 4 rows x 1024
            (1, 2048),            # each span: its K newest input pairs
            (4, 2048), (7, 2048), (8, 2048)]
        assert np.array_equal(np.concatenate(spans), blockwise)

    def test_distant_pm_source_skips_leading_zero_partitions(self):
        """A pressure-matching source at 10 m on a 2 m ring puts a bulk delay
        of about 1100 samples into every row's folded taps as leading
        zeros. Rendered in 256-sample blocks, the first four partitions are
        zero in every row; the partitioned path leaves out their products,
        and the output equals the overlap-save sum over every partition
        exactly."""
        size = 256
        speakers = [Direction3(d.az_deg, 0.0, 2.0) for d in ring(6)]
        source = Direction3(30.0, 0.0, 10.0)
        design = pm_filters(speakers, pm_control_points(), source, sample_rate=FS)
        delays = np.array(design.align_delays_s)
        assert delays.min() > 0.02
        firs = tuple(f * 4.0 * math.pi * 10.0 for f in design.firs)
        drive = self._drive(np.ones(6), delays, firs=firs)
        state = new_render_state(drive)
        taps = state.fir.taps
        assert np.flatnonzero(np.any(taps != 0.0, axis=0))[0] >= 4 * size

        x = np.random.default_rng(11).standard_normal(40 * size)
        out = np.concatenate([render_block(x[i : i + size], drive, state)
                              for i in range(0, len(x), size)])

        rows, length = taps.shape
        count = -(-length // size)
        padded = np.zeros((rows, count * size))
        padded[:, :length] = taps
        parts = scipy.fft.rfft(
            padded.reshape(rows, count, size).transpose(1, 0, 2), 2 * size, axis=2)
        history = np.zeros(count * size)
        fdl = np.zeros((count, size + 1), dtype=complex)
        expected = []
        for i in range(0, len(x), size):
            history[:-size] = history[size:]
            history[-size:] = x[i : i + size]
            fdl[1:] = fdl[:-1]
            fdl[0] = scipy.fft.rfft(history[-2 * size :])
            spectrum = (fdl[:, None, :] * parts).sum(axis=0)
            expected.append(scipy.fft.irfft(spectrum, 2 * size, axis=1)[:, size:].T)
        assert np.array_equal(out, np.concatenate(expected))
        assert np.max(np.abs(out)) > 0.1

    def test_filtered_drive_is_one_filter_call_per_block(self, monkeypatch):
        """A drive with FIRs, delays and an unfiltered row, and a dry drive
        with delays alone, render each block with one BlockFIR.process call
        on the mono block, with blocks shorter and longer than the folded
        taps. fractional_delay runs once per row, when the state is built
        (_folded_taps), and never while rendering."""
        rng = np.random.default_rng(5)
        calls = []
        process = dsp.BlockFIR.process
        delay = renderers.fractional_delay

        def counting_process(fir, block):
            calls.append(("fir", np.ndim(block)))
            return process(fir, block)

        def counting_delay(*args):
            calls.append(("delay",))
            return delay(*args)

        monkeypatch.setattr(dsp.BlockFIR, "process", counting_process)
        monkeypatch.setattr(renderers, "fractional_delay", counting_delay)
        wet = self._drive([0.8, -0.3, 0.5], [0.0015, 0.0, 0.00071],
                          firs=(rng.standard_normal(64), None, rng.standard_normal(9)))
        dry = self._drive([0.8, -0.3], [0.0015, 0.0])
        for drive in (wet, dry):
            for n in (100, 1024):
                calls.clear()
                state = new_render_state(drive)
                assert calls == [("delay",)] * len(drive.gains)
                calls.clear()
                for _ in range(3):
                    render_block(rng.standard_normal(n), drive, state)
                assert calls == [("fir", 1)] * 3

    @settings(max_examples=40, deadline=None)
    @given(_batched_cases())
    def test_batched_matches_per_speaker_reference(self, case):
        """The batched pass equals a per-speaker render: gain, the 1-D
        fractional delay line, then np.convolve with the row's FIR. Every
        delayed drive runs on its folded taps through the overlap-save FFT,
        which moves the last bits only: to 1e-12 without FIRs (gains-only
        drives stay exact), to 1e-9 with them."""
        gains, delays, firs, blocks, seed = case
        ids = tuple(f"s{i}" for i in range(len(gains)))
        drive = DrivingFunction(ids, gains, delays, firs, FS)
        dry = DrivingFunction(ids, gains, delays, (), FS)
        wet_state, dry_state = new_render_state(drive), new_render_state(dry)
        x = np.random.default_rng(seed).standard_normal(sum(blocks))
        histories = [np.zeros(0)] * len(gains)
        wet, batched_dry, per_speaker_dry = [], [], []
        start = 0
        for n in blocks:
            seg = x[start:start + n]
            start += n
            wet.append(render_block(seg, drive, wet_state))
            batched_dry.append(render_block(seg, dry, dry_state))
            cols = []
            for i, (g, d) in enumerate(zip(gains, delays)):
                y = g * seg
                if d != 0.0:
                    y, histories[i] = _per_speaker_fractional_delay(y, histories[i], d)
                cols.append(y)
            per_speaker_dry.append(np.column_stack(cols))
        ref_dry = np.vstack(per_speaker_dry)
        if np.any(delays):
            assert np.max(np.abs(np.vstack(batched_dry) - ref_dry)) <= 1e-12
        else:
            assert np.vstack(batched_dry).tobytes() == ref_dry.tobytes()
        ref_wet = np.column_stack([
            col if f is None else np.convolve(col, f)[:len(x)]
            for col, f in zip(ref_dry.T, firs or (None,) * len(gains))])
        assert np.max(np.abs(np.vstack(wet) - ref_wet)) <= 1e-9

    def test_block_boundary_continuity(self):
        rng = np.random.default_rng(4)
        fir = rng.standard_normal(128) * 0.05
        drive = self._drive([1.0], [0.0123456], firs=(fir,))
        sig = np.sin(2 * np.pi * 440 * np.arange(8192) / FS)

        state = new_render_state(drive)
        whole = render_block(sig, drive, state)

        state = new_render_state(drive)
        parts = [render_block(sig[i:i + 1024], drive, state)
                 for i in range(0, 8192, 1024)]
        assert np.max(np.abs(np.vstack(parts) - whole)) < 1e-9
