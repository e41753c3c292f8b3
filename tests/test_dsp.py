"""dsp primitives against independent oracles.

Band levels are checked against direct FFT band power, delays against
analytically shifted sines, and the tilt shelf against sine-probe level
measurements, so none of the expectations reuse the implementation's own math.
The numpy kernels are also checked against the scipy.signal computations
they replace: band levels against the filter bank run by sosfilt, the band
design against butter, the tilt design against a root-found one, the tilt
filter against lfilter and the decorrelator against fftconvolve, and the
transform lengths against scipy.fft.next_fast_len.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal
from scipy.fft import next_fast_len
from scipy.optimize import brentq

from obar import dsp
from obar.errors import NegativeDelay, ObarError, TiltOutOfReach, UnsupportedRate

from obar_helpers import FS, noise_like


def fft_band_power_db(x, sample_rate, lo, hi):
    """Oracle: brick-wall band power from the periodogram, in dB."""
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(len(x), 1.0 / sample_rate)
    # Parseval with rfft: interior bins count twice
    w = np.full(len(f), 2.0)
    w[0] = 1.0
    if len(x) % 2 == 0:
        w[-1] = 1.0
    p = np.sum(w[(f >= lo) & (f < hi)] * np.abs(spec[(f >= lo) & (f < hi)]) ** 2)
    p /= len(x) ** 2
    return 10.0 * np.log10(max(p, 1e-30))


class TestOctaveBands:
    def test_full_scale_sine_lands_in_its_band(self):
        t = np.arange(FS) / FS
        levels = dsp.octave_band_levels(np.sin(2 * np.pi * 1000 * t), FS)
        assert abs(levels[3] - (-3.01)) < 0.05
        others = np.delete(levels, 3)
        assert np.all(others <= -40.0)

    def test_white_noise_matches_fft_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4 * FS) * 0.1
        levels = dsp.octave_band_levels(x, FS)
        for lvl, fc in zip(levels, dsp.OCTAVE_CENTERS_HZ):
            oracle = fft_band_power_db(x, FS, fc / np.sqrt(2), fc * np.sqrt(2))
            assert abs(lvl - oracle) < 1.0, f"band {fc}: {lvl} vs oracle {oracle}"

    def test_band_limited_noise_matches_fft_oracle(self):
        x = noise_like(2.0, seed=11, lo=200.0, hi=6000.0)
        x *= 0.1 / np.sqrt(np.mean(x**2))
        levels = dsp.octave_band_levels(x, FS)
        assert dsp.power_sum_db(levels) == pytest.approx(-20.0, abs=0.5)
        for lvl, fc in zip(levels, dsp.OCTAVE_CENTERS_HZ):
            oracle = fft_band_power_db(x, FS, fc / np.sqrt(2), fc * np.sqrt(2))
            if oracle > -60.0:
                assert lvl == pytest.approx(oracle, abs=0.75), fc

    def test_band_power_sum_matches_broadband_for_inband_noise(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2 * FS)
        spec = np.fft.rfft(x)
        f = np.fft.rfftfreq(len(x), 1.0 / FS)
        spec[(f < 125 / np.sqrt(2)) | (f > 8000 * np.sqrt(2))] = 0.0
        x = np.fft.irfft(spec, len(x))
        x *= 0.1 / np.sqrt(np.mean(x * x))
        band_sum = dsp.power_sum_db(dsp.octave_band_levels(x, FS))
        assert abs(band_sum - dsp.rms_db(x)) < 0.5

    def test_silence_floors_at_minus_120(self):
        levels = dsp.octave_band_levels(np.zeros(FS // 4), FS)
        assert np.all(levels == -120.0)

    @pytest.mark.parametrize("n", [0, 1, 601, 2 * FS])
    def test_silence_and_sub_floor_input_floor_exactly(self, n):
        """At lengths where every band, some bands or no band is convolved
        directly."""
        assert np.all(dsp.octave_band_levels(np.zeros(n), FS) == -120.0)
        quiet = np.random.default_rng(n).uniform(-1.0, 1.0, n) * 1e-7
        assert np.all(dsp.octave_band_levels(quiet, FS) == -120.0)

    def test_low_rate_rejected(self):
        with pytest.raises(UnsupportedRate):
            dsp.octave_band_levels(np.zeros(1000), 16000)


def reference_band_levels(block, sample_rate):
    """The filter bank's measurement: per band rms_db(sosfilt(...))."""
    def rms_db(x):
        if x.size == 0:
            return -120.0
        rms = math.sqrt(float(np.mean(x * x)))
        if rms <= 10.0 ** (-120.0 / 20.0):
            return -120.0
        return 20.0 * math.log10(rms)

    levels = []
    for fc in (125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0):
        sos = signal.butter(7, [fc / np.sqrt(2.0), fc * np.sqrt(2.0)],
                            btype="bandpass", fs=sample_rate, output="sos")
        levels.append(rms_db(signal.sosfilt(sos, np.asarray(block, dtype=float))))
    return np.array(levels)


# The band kernel's bound against the filter bank, in dB.
BANK_TOL_DB = 1e-9


def assert_matches_bank(levels, block, sample_rate):
    reference = reference_band_levels(block, sample_rate)
    assert np.max(np.abs(levels - reference)) <= BANK_TOL_DB, (levels, reference)


def test_next_fast_len_matches_scipy():
    ns = range(1, 20001)
    assert [dsp._next_fast_len(n) for n in ns] == [
        next_fast_len(n, real=True) for n in ns]


class TestBandKernel:
    """The numpy band kernel against the filter bank it replaces."""

    @pytest.mark.parametrize("rate", [44100, FS])
    def test_band_design_matches_butter(self, rate):
        """The poles against butter's, and the responses the kernel uses (the
        truncated impulse response's spectrum and the Parseval weights)
        against butter's zeros, poles and gain evaluated as products."""
        for band in dsp._octave_bank(rate):
            lo, hi = band.edges_hz
            z, p, k = signal.butter(7, [lo, hi], btype="bandpass", fs=rate,
                                    output="zpk")
            assert np.array_equal(z, np.concatenate([np.ones(7), -np.ones(7)]))
            poles = dsp._band_poles(lo, hi, rate)
            assert np.max(np.abs(np.sort_complex(poles) - np.sort_complex(p))) <= 1e-12
            size = band.ring_size
            _, h = signal.freqz_zpk(
                z, p, k, worN=2.0 * np.pi * np.arange(size // 2 + 1) / size)
            assert np.max(np.abs(band.ring_spectrum - h)) <= 1e-12
            weights = dsp._band_weights(rate, size)[dsp._octave_bank(rate).index(band)]
            scale = np.full(size // 2 + 1, 2.0 / size)
            scale[0] = scale[-1] = 1.0 / size
            assert np.max(np.abs(weights / scale - np.abs(h) ** 2)) <= 1e-12

    def test_response_lengths_reach_the_transient_floor(self):
        bank = dsp._octave_bank(FS)
        assert [len(b.response) for b in bank][::6] == [42505, 602]
        for band in bank:
            pole = np.max(np.abs(dsp._band_poles(*band.edges_hz, FS)))
            length = len(band.response)
            assert pole ** length < dsp.TRANSIENT_FLOOR <= pole ** (length - 1)

    @pytest.mark.parametrize("kind", ["noise", "band", "tail", "onset", "click"])
    def test_full_windows_match_the_bank(self, kind):
        """Two-second windows: steady noise, band-limited noise, a burst in
        the last 5 ms (nearly all of the 125 Hz band's energy rings out past
        the window, so that band is convolved directly), silence then
        noise, and one click in the middle."""
        rng = np.random.default_rng(5)
        n = 2 * FS
        x = {"noise": lambda: rng.standard_normal(n) * 0.1,
             "band": lambda: noise_like(2.0, seed=3, lo=200.0, hi=6000.0),
             "tail": lambda: np.concatenate([np.zeros(n - 240),
                                             rng.standard_normal(240) * 0.5]),
             "onset": lambda: np.concatenate([np.zeros(n // 2),
                                              rng.standard_normal(n // 2) * 0.1]),
             "click": lambda: np.eye(1, n, n // 2)[0] * 0.9}[kind]()
        assert_matches_bank(dsp.octave_band_levels(x, FS), x, FS)

    @pytest.mark.parametrize("n", [601, 602, 603, 2641, 2643, 42504, 42506])
    def test_windows_around_the_response_lengths_match_the_bank(self, n):
        """Bands whose truncated response is longer than the window are
        convolved directly; the others take the Parseval difference."""
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        assert_matches_bank(dsp.octave_band_levels(x, FS), x, FS)

    def test_low_rate_rejected_for_any_length(self):
        for n in (0, 1, 1000, 50000):
            with pytest.raises(UnsupportedRate):
                dsp.octave_band_levels(np.ones(n), 16000)


class TestBandLevelMemo:
    """octave_band_levels answers a repeated signal from its memo table.

    A hit returns the very array of the first measurement, so `is` tells a
    hit from a miss without instrumenting the measurement; every miss
    matches the filter bank to within BANK_TOL_DB.
    """

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 3000),
                    elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
           index=st.integers(0, 10**6), rate=st.sampled_from([44100, FS]))
    def test_memo_matches_reference_and_keys_on_exact_bytes(self, x, index, rate):
        first = dsp.octave_band_levels(x, rate)
        assert_matches_bank(first, x, rate)
        assert not first.flags.writeable
        # the same bytes again, from a fresh buffer: a hit
        assert dsp.octave_band_levels(x.copy(), rate) is first
        # one ulp off in one sample: a miss, measured afresh
        nudged = x.copy()
        nudged[index % len(x)] = np.nextafter(nudged[index % len(x)], np.inf)
        moved = dsp.octave_band_levels(nudged, rate)
        assert moved is not first
        assert_matches_bank(moved, nudged, rate)
        # the other sample rate: a miss
        other = 44100 if rate == FS else FS
        elsewhere = dsp.octave_band_levels(x, other)
        assert elsewhere is not first
        assert_matches_bank(elsewhere, x, other)
        # the same samples followed by silence: a miss
        padded = dsp.octave_band_levels(np.concatenate([x, np.zeros(7)]), rate)
        assert padded is not first

    @settings(max_examples=30, deadline=None)
    @given(x=arrays(np.float64, st.integers(2, 3000),
                    elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
           step=st.integers(2, 3))
    def test_strided_view_is_measured_as_its_samples(self, x, step):
        view = x[::step]
        levels = dsp.octave_band_levels(view, FS)
        assert_matches_bank(levels, view, FS)
        assert dsp.octave_band_levels(np.ascontiguousarray(view), FS) is levels

    def test_results_are_read_only(self):
        levels = dsp.octave_band_levels(np.linspace(-0.5, 0.5, 5000), FS)
        with pytest.raises(ValueError):
            levels[0] = 0.0

    def test_table_is_bounded_and_keeps_no_signal(self):
        rng = np.random.default_rng(11)
        for _ in range(dsp.BAND_LEVELS_MEMO_SIZE + 5):
            dsp.octave_band_levels(rng.standard_normal(64), FS)
        table = dsp._band_levels_memo
        assert len(table) == dsp.BAND_LEVELS_MEMO_SIZE
        for (rate, digest), levels in table.items():
            assert (rate, len(digest)) == (FS, 32)
            assert levels.shape == (len(dsp.OCTAVE_CENTERS_HZ),)


class TestFractionalDelay:
    def test_zero_delay_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2048)
        y = dsp.fractional_delay(x, 0.0, FS)
        assert np.array_equal(y, x)

    def test_integer_delay_exact(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4096)
        for d in (1, 7, 480):
            y = dsp.fractional_delay(x, d / FS, FS)
            assert len(y) == len(x) + d
            assert np.array_equal(y[d:], x)
            assert np.all(y[:d] == 0.0)

    @pytest.mark.parametrize("freq", [250.0, 1000.0, 3000.0])
    @pytest.mark.parametrize("delay", [0.5, 1.5, 10.25])
    def test_matches_phase_shifted_sine_within_minus_60db(self, freq, delay):
        # oracle: the analytically delayed sine
        t = np.arange(FS) / FS
        x = np.sin(2 * np.pi * freq * t)
        ref = np.sin(2 * np.pi * freq * (t - delay / FS))
        y = dsp.fractional_delay(x, delay / FS, FS)[: len(x)]
        err = y[100:-100] - ref[100:-100]
        rel = np.sqrt(np.mean(err**2) / 0.5)
        assert 20 * np.log10(rel) < -60.0

    def test_negative_delay_rejected(self):
        with pytest.raises(NegativeDelay):
            dsp.fractional_delay(np.zeros(16), -1e-4, FS)


class TestCrossfades:
    def test_envelope_power_identity(self):
        w_old, w_new = dsp.crossfade_gains(np.linspace(0, 1, 1001), coherent=False)
        assert np.max(np.abs(w_old**2 + w_new**2 - 1.0)) < 1e-12

    def test_uncorrelated_noise_power_flat(self):
        # oracle: statistics of two independent unit-power noises over 10 s
        rng = np.random.default_rng(11)
        n = 10 * FS
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        w_old, w_new = dsp.crossfade_gains(0.5, coherent=False)
        out = a * w_old + b * w_new
        assert abs(10 * np.log10(np.mean(out**2))) < 0.1

    def test_endpoints_pass_through(self):
        a = np.ones(8)
        b = np.full(8, 2.0)
        for coherent in (False, True):
            for position, want in ((0.0, a), (1.0, b)):
                w_old, w_new = dsp.crossfade_gains(position, coherent)
                assert np.array_equal(a * w_old + b * w_new, want)

    def test_coherent_crossfade_flat_for_identical_signals(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(FS)
        w_old, w_new = dsp.crossfade_gains(np.linspace(0, 1, FS), coherent=True)
        out = x * w_old + x * w_new
        assert np.max(np.abs(out - x)) < 1e-12

    def test_position_out_of_range_rejected(self):
        for position in (1.5, -0.1, [0.0, 1.0 + 1e-12]):
            for coherent in (False, True):
                with pytest.raises(ValueError):
                    dsp.crossfade_gains(position, coherent)


class TestBlockFIR:
    def test_blockwise_equals_full_convolution(self):
        """1024-sample blocks against 1024 taps: one partition per row. The
        signal's last block is zero-padded to the block length, as the
        engine pads a stem's end."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal(10000)
        h = rng.standard_normal(1024) * 0.03
        full = np.convolve(x, h)[: len(x)]
        fir = dsp.BlockFIR([h])
        padded = np.concatenate([x, np.zeros(-len(x) % 1024)])
        parts = [fir.process(padded[i : i + 1024]) for i in range(0, len(x), 1024)]
        out = np.concatenate(parts, axis=1)[0, : len(x)]
        assert np.max(np.abs(out - full)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 1100), st.booleans(), st.integers(1, 6),
           st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
    def test_any_block_length_equals_full_convolution(
            self, n_taps, shorter, blocks, rows, seed, data):
        """One input row feeds every row of taps, in blocks of one length
        drawn up to the tap count (several partitions) or from it up (one
        partition); row r = np.convolve(x, h[r]) either way."""
        size = data.draw(st.integers(1, n_taps) if shorter
                         else st.integers(n_taps, 3000))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(size * blocks)
        h = [rng.standard_normal(rng.integers(1, n_taps + 1)) / math.sqrt(n_taps)
             for _ in range(rows)]
        fir = dsp.BlockFIR(h)
        out = np.concatenate(
            [fir.process(x[i : i + size]) for i in range(0, len(x), size)], axis=1)
        assert out.shape == (rows, len(x))
        for r in range(rows):
            full = np.convolve(x, h[r])[: len(x)]
            assert np.max(np.abs(out[r] - full)) < 1e-12

    @pytest.mark.parametrize("first", [100, 1024, 3000])
    def test_block_length_change_rejected(self, first):
        fir = dsp.BlockFIR([np.ones(1024)])
        fir.process(np.zeros(first))
        for other in (first - 1, first + 1, 0):
            with pytest.raises(ValueError, match=f"blocks of {first}"):
                fir.process(np.zeros(other))
            with pytest.raises(ValueError, match=f"blocks of {first}"):
                fir.process(np.zeros((3, other)))
        with pytest.raises(ValueError, match=f"blocks of {first}"):
            fir.process(np.zeros((0, first)))
        assert fir.process(np.ones(first)).shape == (1, first)
        assert fir.process(np.ones((3, first))).shape == (1, 3 * first)

    @pytest.mark.parametrize("size, lead", [(256, 0), (100, 0), (256, 700),
                                            (100, 700), (2000, 0)])
    def test_span_equals_its_blocks_one_by_one(self, size, lead):
        """One call on K x B frames gives, to the bit, the samples and the
        spectra of K one-block calls, with one partition (B = 2000) or
        many, spans longer and shorter than the frequency-domain delay
        line, leading zero partitions (a bulk delay of 700 samples in every
        row) and spans after single blocks on the same state."""
        rng = np.random.default_rng(size + lead)
        h = np.concatenate([np.zeros((3, lead)),
                            rng.standard_normal((3, 900)) * 0.03], axis=1)
        x = rng.standard_normal((12, size))
        single, spanned = dsp.BlockFIR(h), dsp.BlockFIR(h)
        expected = np.concatenate([single.process(b) for b in x], axis=1)
        out = [spanned.process(x[0]), spanned.process(x[1]),
               spanned.process(x[2:7]), spanned.process(x[7:])]
        assert spanned._first == lead // size
        assert [o.shape for o in out] == [(3, size), (3, size),
                                          (3, 5 * size), (3, 5 * size)]
        assert np.array_equal(np.concatenate(out, axis=1), expected)

        single, spanned = dsp.BlockFIR(h), dsp.BlockFIR(h)
        blockwise = np.stack([single.spectrum(b) for b in x], axis=1)
        spectra = np.concatenate([spanned.spectrum(x[:1]),
                                  spanned.spectrum(x[1:4]),
                                  spanned.spectrum(x[4:])], axis=1)
        assert spectra.shape == (3, 12, size + 1)
        assert np.array_equal(spectra, blockwise)
        assert np.array_equal(
            dsp.BlockFIR.output(spectra[:, 4:6]),
            np.stack([dsp.BlockFIR.output(blockwise[:, k]) for k in (4, 5)],
                     axis=1))

    def test_summed_spectra_equal_summed_outputs(self):
        """Filters fed different signals: output() of their spectra summed
        is the sum of what process() returns for each, block after block;
        process() is output(spectrum()) of one filter."""
        rng = np.random.default_rng(11)
        taps = [rng.standard_normal((3, n)) * 0.05 for n in (900, 60)]
        split = [dsp.BlockFIR(h) for h in taps]
        whole = [dsp.BlockFIR(h) for h in taps]
        for _ in range(5):
            xs = [rng.standard_normal(256) for _ in taps]
            summed = dsp.BlockFIR.output(
                sum(f.spectrum(x) for f, x in zip(split, xs)))
            separate = sum(f.process(x) for f, x in zip(whole, xs))
            assert summed.shape == (3, 256)
            assert np.max(np.abs(summed - separate)) < 1e-12

    def test_empty_first_block_rejected(self):
        fir = dsp.BlockFIR([np.ones(8)])
        with pytest.raises(ValueError, match="empty block"):
            fir.process(np.zeros(0))
        out = fir.process(np.ones(4))
        assert np.max(np.abs(out[0] - [1.0, 2.0, 3.0, 4.0])) < 1e-12

    @pytest.mark.parametrize("taps", [[], np.array([]), [[]], [np.zeros(0)] * 2])
    def test_no_taps_rejected(self, taps):
        with pytest.raises(ValueError, match="at least one tap"):
            dsp.BlockFIR(taps)

    def test_partitioned_block_costs_one_forward_transform(self, monkeypatch):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 1024)) * 0.03
        x = rng.standard_normal(256 * 12)
        sizes = []
        rfft = np.fft.rfft

        def counting_rfft(a, n=None, axis=-1, **kwargs):
            sizes.append(a.shape[axis] if n is None else n)
            return rfft(a, n, axis, **kwargs)

        fir = dsp.BlockFIR(h)
        fir.process(x[:256])          # fixes the block length, transforms the taps
        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        out = [fir.process(x[i : i + 256]) for i in range(256, len(x), 256)]
        assert sizes == [512] * len(out)
        full = np.convolve(x, h[1])[: len(x)]
        assert np.max(np.abs(np.concatenate(out, axis=1)[1] - full[256:])) < 1e-12


class TestDecorrelators:
    def test_unit_energy_and_deterministic(self):
        h1 = dsp.decorrelator_fir(3)
        h2 = dsp.decorrelator_fir(3)
        assert np.array_equal(h1, h2)
        assert abs(np.sum(h1**2) - 1.0) < 1e-9

    def test_distinct_speakers_decorrelate_white_noise(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(10 * FS)
        outs = [np.convolve(x, dsp.decorrelator_fir(i))[: len(x)] for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                c = np.corrcoef(outs[i], outs[j])[0, 1]
                assert abs(c) < 0.2


class TestDirectives:
    def probe_level_ratio_db(self, process, freq_hi, freq_lo):
        """Oracle: steady-state sine probes at the two frequencies."""
        t = np.arange(FS) / FS
        out_hi = process(np.sin(2 * np.pi * freq_hi * t))[FS // 4 :]
        out_lo = process(np.sin(2 * np.pi * freq_lo * t))[FS // 4 :]
        return 20 * np.log10(np.sqrt(np.mean(out_hi**2) / np.mean(out_lo**2)))

    @pytest.mark.parametrize("tilt", [-6.0, -2.5, 3.0, 6.0])
    def test_tilt_hits_stated_db(self, tilt):
        d = dsp.Directive("spectral_tilt", tilt)
        ratio = self.probe_level_ratio_db(
            lambda x: dsp.apply_directives(x, [d], FS), 4000.0, 250.0
        )
        assert abs(ratio - tilt) < 0.5

    def test_zero_tilt_identity(self):
        x = np.random.default_rng(1).standard_normal(1000)
        y = dsp.apply_directives(x, [dsp.Directive("spectral_tilt", 0.0)], FS)
        assert np.array_equal(y, x)

    def test_time_shift_forward_and_back(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(FS // 2)
        fwd = dsp.apply_directives(x, [dsp.Directive("time_shift", 10.0)], FS)
        assert np.array_equal(fwd[480:], x[:-480])
        back = dsp.apply_directives(x, [dsp.Directive("time_shift", -10.0)], FS)
        assert np.array_equal(back[: len(x) - 480], x[480:])

    @pytest.mark.parametrize("shift_ms", [-42.0, -41.99, -100.0])
    def test_advance_past_the_stem_end_keeps_its_length(self, shift_ms):
        x = np.random.default_rng(2).standard_normal(2000)
        y = dsp.apply_directives(x, [dsp.Directive("time_shift", shift_ms)], FS)
        assert y.shape == x.shape
        assert not np.any(y)

    @pytest.mark.parametrize("shift_ms", [2000 / FS * 1e3, 41.69, 1e12])
    def test_delay_past_the_stem_end_keeps_its_length(self, shift_ms):
        """A delay whose leading zeros fill the stem (2000, 2001.12 and
        4.8e13 samples here) leaves it all zeros, without building the
        delayed signal: 1e12 ms of zeros would take hundreds of TiB."""
        x = np.random.default_rng(2).standard_normal(2000)
        y = dsp.apply_directives(x, [dsp.Directive("time_shift", shift_ms)], FS)
        assert y.shape == x.shape
        assert not np.any(y)

    def test_delay_under_one_sample_past_the_stem_end_reaches_it(self):
        """At 2000.5 samples the Lagrange kernel's first tap still lands
        the first input sample on the last output sample."""
        x = np.random.default_rng(2).standard_normal(2000)
        delay_ms = 2000.5 / FS * 1e3
        y = dsp.apply_directives(x, [dsp.Directive("time_shift", delay_ms)], FS)
        _, kernel = dsp._delay_plan(delay_ms * 1e-3 * FS)
        assert not np.any(y[:-1])
        assert y[-1] == pytest.approx(kernel[0] * x[0], rel=1e-9)
        assert y[-1] != 0.0

    def test_decorrelate_zero_is_identity_and_full_preserves_power(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4 * FS)
        same = dsp.apply_directives(x, [dsp.Directive("decorrelate", 0.0, seed=5)], FS)
        assert np.array_equal(same, x)
        wet = dsp.apply_directives(x, [dsp.Directive("decorrelate", 1.0, seed=5)], FS)
        assert abs(10 * np.log10(np.mean(wet**2) / np.mean(x**2))) < 0.5

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            dsp.apply_directives(np.zeros(16), [dsp.Directive("reverse", 1.0)], FS)

    def test_reapplication_does_not_stack(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(FS // 4)
        d = [dsp.Directive("spectral_tilt", -6.0)]
        once = dsp.apply_directives(x, d, FS)
        again = dsp.apply_directives(x, d, FS)
        assert np.array_equal(once, again)

    @pytest.mark.parametrize("tilt", [-6.0, 0.0, 3.0])
    def test_each_tilt_design_is_solved_afresh(self, tilt):
        """design_tilt_ba keeps no memo: every call solves the shelf and
        returns its own arrays, which the caller may edit without touching
        the next design."""
        b, a = dsp.design_tilt_ba(tilt, FS)
        expected = (b.copy(), a.copy())
        b[0], a[0] = 2.0, 2.0
        again = dsp.design_tilt_ba(tilt, FS)
        assert again[0] is not b and again[1] is not a
        assert again[0].tobytes() == expected[0].tobytes()
        assert again[1].tobytes() == expected[1].tobytes()


def root_found_tilt_ba(tilt_db, sample_rate):
    """The shelf design the closed form replaced: the shelf's ratio r
    root-found on the digital response measured at the two probes."""
    w0 = 2.0 * math.pi * math.sqrt(dsp.TILT_PROBE_HZ * dsp.TILT_REF_HZ)
    probes = np.array([dsp.TILT_REF_HZ, dsp.TILT_PROBE_HZ])

    def design(x):
        r = math.exp(x)
        return signal.bilinear([r / w0, 1.0], [1.0 / (w0 * r), 1.0], sample_rate)

    def measured(x):
        _, h = signal.freqz(*design(x), worN=probes, fs=sample_rate)
        return 20.0 * math.log10(abs(h[1]) / abs(h[0])) - tilt_db

    return design(brentq(measured, -8.0, 8.0, xtol=1e-12))


# The hop of the decorrelator's overlap-save frames, in samples.
HOP = dsp.DECORRELATOR_FRAME - dsp.DECORRELATOR_TAPS + 1
TILTS_DB = [-23.5, -17.0, -6.0, -2.5, -1e-3, 1e-3, 0.7, 3.0, 6.0, 12.0, 23.5]


class TestTiltKernels:
    @pytest.mark.parametrize("rate", [44100, FS, 96000])
    def test_closed_form_matches_the_root_found_design(self, rate):
        for tilt in TILTS_DB:
            b, a = dsp.design_tilt_ba(tilt, rate)
            ref_b, ref_a = root_found_tilt_ba(tilt, rate)
            assert np.max(np.abs(b - ref_b)) <= 1e-10, tilt
            assert np.max(np.abs(a - ref_a)) <= 1e-10, tilt

    @pytest.mark.parametrize("tilt", [23.6, -23.6, 30.0, -40.0])
    def test_tilt_beyond_the_shelf_reach_is_an_obar_error(self, tilt):
        with pytest.raises(TiltOutOfReach, match="reach") as caught:
            dsp.design_tilt_ba(tilt, FS)
        assert isinstance(caught.value, ObarError)
        assert isinstance(caught.value, ValueError)

    @settings(max_examples=40, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 5000),
                    elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
           tilt=st.sampled_from(TILTS_DB))
    def test_recursion_matches_lfilter(self, x, tilt):
        b, a = dsp.design_tilt_ba(tilt, FS)
        y = dsp.apply_directives(x, [dsp.Directive("spectral_tilt", tilt)], FS)
        ref = signal.lfilter(b, a, x)
        assert y.shape == x.shape
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tilt", TILTS_DB)
    def test_recursion_matches_lfilter_on_long_noise(self, tilt):
        x = np.random.default_rng(1).standard_normal(3 * FS)
        b, a = dsp.design_tilt_ba(tilt, FS)
        y = dsp.apply_directives(x, [dsp.Directive("spectral_tilt", tilt)], FS)
        ref = signal.lfilter(b, a, x)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 7, 1023, 1024, 5000, 2 * FS + 4321,
                                   HOP - 1, HOP, HOP + 1, 2 * HOP + 1])
    @pytest.mark.parametrize("amount", [0.3, 1.0])
    def test_decorrelation_matches_fftconvolve(self, n, amount):
        """At any length, the frame edges of the overlap-save convolution
        (its hop) included, and wherever in its signal the window starts."""
        x = np.random.default_rng(n).standard_normal(n)
        wet = signal.fftconvolve(x, dsp.decorrelator_fir(9))[:n]
        ref = math.sqrt(1.0 - amount) * x + math.sqrt(amount) * wet
        for start in (0, 12345):
            y = dsp.apply_directives(
                x, [dsp.Directive("decorrelate", amount, seed=9)], FS, start)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), start

    def test_decorrelation_transforms_are_no_longer_than_a_frame(
            self, monkeypatch):
        """Decorrelating a 2 s window takes no transform longer than
        DECORRELATOR_FRAME points, however long the window."""
        sizes = []

        def recorder(transform, points):
            def recorded(a, n=None, axis=-1, **kwargs):
                sizes.append(points(np.shape(a)[axis]) if n is None else n)
                return transform(a, n, axis, **kwargs)
            return recorded

        monkeypatch.setattr(np.fft, "rfft", recorder(np.fft.rfft, lambda m: m))
        monkeypatch.setattr(np.fft, "irfft",
                            recorder(np.fft.irfft, lambda m: 2 * (m - 1)))
        x = np.random.default_rng(2).standard_normal(2 * FS)
        dsp.apply_directives(x, [dsp.Directive("decorrelate", 0.5, seed=3)], FS)
        assert sizes and max(sizes) <= dsp.DECORRELATOR_FRAME


class TestDirectiveMargins:
    def test_tilt_warmup_lets_the_transient_decay_below_the_floor(self):
        for tilt in (-23.5, -6.0, 3.0, 23.5):
            warmup, lookahead = dsp.directive_margins(
                [dsp.Directive("spectral_tilt", tilt)], FS)
            pole = abs(dsp.design_tilt_ba(tilt, FS)[1][1])
            assert pole ** warmup < dsp.TRANSIENT_FLOOR <= pole ** (warmup - 1)
            assert lookahead == 0
        assert dsp.directive_margins([dsp.Directive("spectral_tilt", -23.5)], FS) == (3701, 0)
        assert dsp.directive_margins([dsp.Directive("spectral_tilt", 0.0)], FS) == (0, 0)

    def test_reaches_add_up_along_the_chain(self):
        chain = [
            dsp.Directive("time_shift", 10.01),     # 480.48 samples late
            dsp.Directive("decorrelate", 0.3, seed=1),
            dsp.Directive("time_shift", -2.5),      # 120 samples early
            dsp.Directive("decorrelate", 0.0, seed=2),
        ]
        assert dsp.directive_margins(chain, FS) == (481 + 3 + 1023 + 3, 120)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            dsp.directive_margins([dsp.Directive("reverse", 1.0)], FS)


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(64, 512),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        ),
        st.floats(0.0, 50.0),
    )
    def test_delay_never_produces_nan(self, x, delay_samples):
        y = dsp.fractional_delay(x, delay_samples / FS, FS)
        assert np.all(np.isfinite(y))

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(256, 1024),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        ),
        st.floats(-6.0, 6.0),
        st.floats(0.0, 1.0),
    )
    def test_directive_chain_stays_finite(self, x, tilt, amount):
        y = dsp.apply_directives(
            x,
            [
                dsp.Directive("spectral_tilt", tilt),
                dsp.Directive("time_shift", 3.25),
                dsp.Directive("decorrelate", amount, seed=2),
            ],
            FS,
        )
        assert np.all(np.isfinite(y))
        assert len(y) == len(x)
