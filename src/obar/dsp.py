"""Block DSP primitives: delays, crossfades, band analysis, signal directives.

Everything here is deterministic. All stochastic pieces (decorrelators) draw
from generators seeded with documented constants so renders repeat bit-exact.

The kernels use numpy only, with numpy.fft for every transform; no filter
runs sample by sample.
Band analysis keeps the filter bank's definition (order-7 Butterworth
band-passes, each filtered from rest over the window) and computes its
output energy from the identity in octave_band_levels: the Parseval sum of
the window's spectrum weighted by |H_b|^2, less the energy of the ring-out
past the window, with each band's impulse response truncated at
TRANSIENT_FLOOR. On every two-second window of the benchmark workloads'
seed-0 stems it matches scipy.signal.sosfilt of butter's sections to within
6e-12 dB. The tilt shelf is solved in closed form and filtered by a blocked
scan, and decorrelators convolve by overlap-save in frames of
DECORRELATOR_FRAME points, each giving DECORRELATOR_FRAME - DECORRELATOR_TAPS
+ 1 output samples, so no transform grows with the window. There is one
delay, fractional_delay, applied to a whole signal (the time-shift
directive) or to a drive's filter taps; streaming delays run as those taps
in BlockFIR, so no delay line carries history between blocks.
"""

from __future__ import annotations

import functools
import hashlib
import math
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import NegativeDelay, TiltOutOfReach, UnsupportedRate

DEFAULT_SAMPLE_RATE = 48000
BLOCK_SIZE = 1024

# Octave band analysis. Centres per the usual octave series; order 7 Butterworth
# band-pass (14 poles) keeps adjacent-band leakage of a centred sine below
# -40 dB while band power sums stay within 0.2 dB of broadband for in-range
# signals. Levels are floored at -120 dBFS.
OCTAVE_CENTERS_HZ = (125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0)
BAND_FILTER_ORDER = 7
LEVEL_FLOOR_DB = -120.0
# Below this share of a band's whole output energy inside the window, the
# window's energy is convolved directly rather than taken as a difference.
MIN_WINDOW_SHARE = 1e-3
# Band measurements remembered by octave_band_levels (digests and levels
# only, never the signals), least recently used evicted first.
BAND_LEVELS_MEMO_SIZE = 256

# Decorrelators: random-phase all-pass FIRs, one fixed seed per speaker index.
DECORRELATOR_TAPS = 1024
# Overlap-save frame of the decorrelating convolution: each frame's
# transform gives DECORRELATOR_FRAME - DECORRELATOR_TAPS + 1 samples.
DECORRELATOR_FRAME = 8 * DECORRELATOR_TAPS
DEFAULT_SEED = 42

# Spectral tilt is defined as the gain at this frequency relative to the
# reference frequency, realized with a first-order shelf.
TILT_PROBE_HZ = 4000.0
TILT_REF_HZ = 250.0

# A directive chain filtered over a window starts early enough for its
# start-up transient to decay below this fraction of the signal level.
TRANSIENT_FLOOR = 1e-16
# A first-order recursion is scanned in blocks over which its pole's powers
# grow by at most this factor.
SCAN_GROWTH = 1e3


def rms_db(x: np.ndarray) -> float:
    """RMS level in dBFS, floored at LEVEL_FLOOR_DB."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return LEVEL_FLOOR_DB
    return _mean_power_db(float(np.mean(x * x)))


def _mean_power_db(power: float) -> float:
    """The level of a mean power, in dBFS, floored like rms_db."""
    rms = math.sqrt(power)
    if rms <= 10.0 ** (LEVEL_FLOOR_DB / 20.0):
        return LEVEL_FLOOR_DB
    return 20.0 * math.log10(rms)


def power_sum_db(levels_db) -> float:
    """Combine per-band dB levels into a broadband level (power sum)."""
    p = sum(10.0 ** (l / 10.0) for l in levels_db)
    if p <= 10.0 ** (LEVEL_FLOOR_DB / 10.0):
        return LEVEL_FLOOR_DB
    return 10.0 * math.log10(p)


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer >= n (2^a 3^b 5^c), a length numpy.fft
    transforms quickly; scipy.fft.next_fast_len(n, real=True) gives the
    same."""
    best = 1 << (n - 1).bit_length()
    odd = 1                                 # 3^b 5^c, below best
    while odd < best:
        odd3 = odd
        while odd3 < best:
            # the least power of two times odd3 that reaches n
            best = min(best, odd3 << (-(-n // odd3) - 1).bit_length())
            odd3 *= 3
        odd *= 5
    return best


@dataclass(frozen=True)
class _Band:
    """One filter of the octave bank: its edges in Hz and its impulse
    response h from rest, truncated where the slowest pole has decayed
    below TRANSIENT_FLOOR, with h's spectrum at ring_size >= 2 len(h) - 2
    points."""

    edges_hz: tuple[float, float]
    response: np.ndarray
    ring_size: int
    ring_spectrum: np.ndarray


def _prewarped(freqs_hz, sample_rate: int):
    """Analog frequencies that the bilinear transform s = 4 (z - 1) / (z + 1)
    maps to freqs_hz, as scipy.signal.butter prewarps its band edges."""
    return 4.0 * np.tan(np.pi * np.asarray(freqs_hz) / sample_rate)


def _prototype_poles() -> np.ndarray:
    """The poles of the Butterworth low-pass prototype of order
    BAND_FILTER_ORDER, 1 / prod(s - p), on the left half of the unit
    circle."""
    order = BAND_FILTER_ORDER
    return -np.exp(1j * np.pi * np.arange(1 - order, order, 2.0) / (2 * order))


def _band_poles(lo: float, hi: float, sample_rate: int) -> np.ndarray:
    """The 2 BAND_FILTER_ORDER poles of the Butterworth band-pass from lo to
    hi Hz, as scipy.signal.butter(..., btype="bandpass") designs it: the
    prototype's poles, moved to the prewarped band and mapped by the
    bilinear transform. Its zeros are BAND_FILTER_ORDER at z = 1 and as
    many at z = -1."""
    lo_w, hi_w = _prewarped((lo, hi), sample_rate)
    analog = _prototype_poles() * (hi_w - lo_w) / 2.0
    shift = np.sqrt(analog**2 - lo_w * hi_w)
    analog = np.concatenate([analog + shift, analog - shift])
    return (4.0 + analog) / (4.0 - analog)


def _lowpass_frequency(edges_hz, size: int, sample_rate: int) -> np.ndarray:
    """For the bins k = 1 .. size // 2 of a size-point real transform, the
    frequency q of the low-pass prototype that the band-pass maps the
    digital frequency w = 2 pi k / size to: the bilinear transform takes w
    to W = 4 tan(w / 2), and the low-pass to band-pass transform takes W
    to (W^2 - W_lo W_hi) / (W (W_hi - W_lo)), W_lo and W_hi the prewarped
    edges. The band-pass's response at w is the prototype's there, so
    |H(e^jw)|^2 = 1 / (1 + q^(2 BAND_FILTER_ORDER)); at w = 0 it is 0."""
    lo_w, hi_w = _prewarped(edges_hz, sample_rate)
    analog = 4.0 * np.tan(np.pi * np.arange(1, size // 2 + 1) / size)
    return (analog * analog - lo_w * hi_w) / (analog * (hi_w - lo_w))


@functools.lru_cache(maxsize=8)
def _octave_bank(sample_rate: int) -> tuple[_Band, ...]:
    """The octave bank's filters at one sample rate. Each truncated impulse
    response is sampled from the exact frequency response on a grid of
    ring_size points; the response past its length is below
    TRANSIENT_FLOOR, so folding it back is negligible."""
    nyq = sample_rate / 2.0
    if OCTAVE_CENTERS_HZ[-1] * math.sqrt(2.0) >= nyq:
        raise UnsupportedRate(
            f"sample rate {sample_rate} too low for the 8 kHz octave band"
        )
    prototype = _prototype_poles()[:, None]
    bank = []
    for fc in OCTAVE_CENTERS_HZ:
        edges = (fc / math.sqrt(2.0), fc * math.sqrt(2.0))
        slowest = float(np.max(np.abs(_band_poles(*edges, sample_rate))))
        length = math.ceil(math.log(TRANSIENT_FLOOR) / math.log(slowest))
        size = _next_fast_len(2 * length - 2)
        # the prototype at s = j q; zero at w = 0
        s_lp = 1j * _lowpass_frequency(edges, size, sample_rate)
        spectrum = np.zeros(size // 2 + 1, dtype=complex)
        spectrum[1:] = 1.0 / np.prod(s_lp - prototype, axis=0)
        response = np.fft.irfft(spectrum, size)[:length]
        bank.append(_Band(edges, response, size, np.fft.rfft(response, size)))
    return tuple(bank)


@functools.lru_cache(maxsize=4)
def _band_weights(sample_rate: int, size: int) -> np.ndarray:
    """Bands x size // 2 + 1 Parseval weights: |H(e^jw)|^2 of each band at
    the bins of a size-point real transform (_lowpass_frequency), doubled
    for the bins that stand for two, over size."""
    weights = np.zeros((len(OCTAVE_CENTERS_HZ), size // 2 + 1))
    for row, band in zip(weights, _octave_bank(sample_rate)):
        with np.errstate(over="ignore"):    # far stopband: the weight is 0
            power = _lowpass_frequency(band.edges_hz, size, sample_rate) ** (
                2 * BAND_FILTER_ORDER)
        row[1:] = 1.0 / (1.0 + power)
    weights[:, 1 : (size + 1) // 2] *= 2.0
    weights /= size
    return weights


def _windowed_energy(x: np.ndarray, band: _Band) -> float:
    """The band's output energy over the window, from the samples: x
    convolved with the first len(x) samples of h, by one transform."""
    n = len(x)
    taps = band.response[:n]
    size = _next_fast_len(n + len(taps) - 1)
    y = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(taps, size), size)[:n]
    return float(np.sum(y * y))


def _band_energies(x: np.ndarray, sample_rate: int) -> np.ndarray:
    """Each octave band's output energy over the window [0, n) of x,
    filtered from rest; see octave_band_levels."""
    bank = _octave_bank(sample_rate)
    n = len(x)
    if not n:
        return np.zeros(len(bank))
    reach = max((len(b.response) for b in bank if len(b.response) <= n),
                default=0)
    if reach:
        size = _next_fast_len(n + reach - 1)
        spectrum = np.fft.rfft(x, size)
        # einsum, not a BLAS product: unpinned BLAS threads make these
        # small products many times slower
        totals = np.einsum("bk,k->b", _band_weights(sample_rate, size),
                           spectrum.real**2 + spectrum.imag**2)
    energies = np.empty(len(bank))
    for i, band in enumerate(bank):
        length = len(band.response)
        if length > n:
            energies[i] = _windowed_energy(x, band)
            continue
        total = totals[i]
        if total <= n * 10.0 ** (LEVEL_FLOOR_DB / 10.0):
            energies[i] = total     # the window's share is below the floor too
            continue
        # the ring-out past the window: the last length - 1 samples
        # convolved with h, from its (length - 1)-th sample on
        ring = np.fft.irfft(
            np.fft.rfft(x[n - length + 1 :], band.ring_size)
            * band.ring_spectrum, band.ring_size)[length - 1 : 2 * length - 2]
        energies[i] = total - float(np.sum(ring * ring))
        if energies[i] < MIN_WINDOW_SHARE * total:
            # most of the energy rings out past the window, so the
            # difference would cancel too many digits
            energies[i] = _windowed_energy(x, band)
    return energies


_band_levels_memo: OrderedDict = OrderedDict()


def octave_band_levels(block: np.ndarray, sample_rate: int = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """Per-octave-band RMS levels of a block, in dBFS.

    Returns 7 levels for the 125 Hz .. 8 kHz octave bands, each floored at
    -120 dBFS: band b's level is the RMS over the block of the block
    filtered from rest by the band's order-7 Butterworth band-pass. No
    filter is run. With h_b the band's impulse response truncated where it
    has decayed below TRANSIENT_FLOOR (L_b samples, 42505 at 125 Hz down
    to 602 at 8 kHz at 48 kHz), the output over the block's n samples has
    the energy

        sum_k w_b[k] |X[k]|^2  -  sum_j r_b[j]^2,

    the Parseval sum of the block's spectrum X, zero-padded to M >=
    n + L_b - 1 points, weighted by |H_b|^2 (the whole filtered output)
    less the energy of r_b, the ring-out past the block: its last L_b - 1
    samples convolved with h_b, one short transform. Folding h_b's tail
    past L_b back into M points changes no digit that matters, since it is
    below TRANSIENT_FLOOR. Where the block is shorter than L_b, or less than
    MIN_WINDOW_SHARE of the output's energy falls inside it, the output
    over the block is convolved directly instead. On the 111 two-second
    windows of the benchmark workloads' seed-0 stems the levels match the
    filter bank (scipy.signal.sosfilt of butter's sections) to within
    6e-12 dB; the tests hold them to 1e-9 dB.

    Measurements are memoised on (sample rate, SHA-256 of the
    block's float64 bytes): a block measured before, byte for byte,
    returns the earlier result without measuring. The table keeps at most
    BAND_LEVELS_MEMO_SIZE results and no signal, and the returned arrays
    are shared, so they are read-only.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 1:
        raise ValueError("block must be one-dimensional")
    block = np.ascontiguousarray(block)
    sample_rate = int(sample_rate)
    key = (sample_rate, hashlib.sha256(block.data).digest())
    levels = _band_levels_memo.get(key)
    if levels is not None:
        _band_levels_memo.move_to_end(key)
        return levels
    levels = np.array([_mean_power_db(e / max(block.size, 1))
                       for e in _band_energies(block, sample_rate)])
    levels.flags.writeable = False
    _band_levels_memo[key] = levels
    if len(_band_levels_memo) > BAND_LEVELS_MEMO_SIZE:
        _band_levels_memo.popitem(last=False)
    return levels


# fractional delay -------------------------------------------------------

def _lagrange_kernel(mu: float) -> np.ndarray:
    """4-point Lagrange interpolation weights for a read position mu in [0, 3]."""
    h = np.ones(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                h[i] *= (mu - j) / (i - j)
    return h


def _delay_plan(delay_samples: float):
    """Split a delay into (integer offset, 4-tap kernel or None for exact shifts)."""
    if delay_samples < 0:
        raise NegativeDelay(f"delay must be >= 0, got {delay_samples}")
    r = round(delay_samples)
    if abs(delay_samples - r) < 1e-12:
        return int(r), None
    base = int(math.floor(delay_samples))
    if base >= 1:
        m = base - 1          # centred: mu lands in (1, 2)
    else:
        m = 0                 # sub-sample delay: causal first segment
    return m, _lagrange_kernel(delay_samples - m)


def fractional_delay(x: np.ndarray, delay_s: float,
                     sample_rate: int = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """x delayed by delay_s seconds, in full: _delay_plan's m zeros, then x
    itself for a whole-sample delay, or x convolved with the 4-tap Lagrange
    kernel for a fractional one (len(x) + 3 samples). Whole-sample delays
    are exact shifts. Filter taps and whole signals are delayed alike."""
    x = np.asarray(x, dtype=float)
    m, kernel = _delay_plan(delay_s * sample_rate)
    if kernel is not None:
        x = np.convolve(kernel, x)
    return np.concatenate([np.zeros(m), x])


# crossfades -------------------------------------------------------------

def crossfade_gains(position, coherent: bool):
    """Gain envelopes (w_old, w_new) fading one block out and another in.

    position may be a scalar or a per-sample array in [0, 1]. When both
    blocks carry the same waveform (two gain renderers fed the same stem)
    the law is amplitude-complementary, (1-p, p): amplitude sums stay
    constant so power stays flat, where the equal-power law would bulge by
    up to +3 dB. Otherwise it is equal-power, (sqrt(1-p), sqrt(p)), whose
    squares sum to 1 and so keep the power of uncorrelated blocks flat.
    """
    p = np.asarray(position, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("crossfade position must lie in [0, 1]")
    if coherent:
        return 1.0 - p, p
    return np.sqrt(1.0 - p), np.sqrt(p)


# streaming FIR ----------------------------------------------------------

class BlockFIR:
    """Streaming FIR filter bank by uniformly partitioned overlap-save (Wefers
    2015, ch. 5): one input row feeds one row of taps per output row
    (single-input multiple-output).

    taps is a sequence of FIRs, one per output row; shorter rows are
    zero-padded to the longest. process() takes a span of input: one 1-D
    block, or K x B frames that are K consecutive blocks, and returns rows x
    samples. The first block's length B fixes the partition size: the taps
    are cut into P = ceil(len(taps) / B) partitions of B and transformed
    once, and every later block must be B samples long too; an empty block
    or one of another length raises ValueError. The last B input samples
    are the only history, and a frequency-domain delay line, zeros at the
    start, keeps the spectra of the last P - 1 input block pairs. A span of
    K blocks costs one forward FFT of K 2B-point windows, one spectrum
    product per block and row for each partition from the first one not
    zero in every row (leading zeros are a bulk delay), and one inverse
    FFT; each block's arithmetic is the same whether it comes alone or in
    a span, so the output is too, to the bit. spectrum() stops before the
    inverse FFT, so filters whose outputs are summed can share one output()
    call.
    """

    def __init__(self, taps):
        rows = list(taps)
        length = max((len(r) for r in rows), default=0)
        if length == 0:
            raise ValueError("a FIR needs at least one tap")
        self.taps = np.zeros((len(rows), length))
        for i, r in enumerate(rows):
            self.taps[i, : len(r)] = r
        self._first = 0                             # leading zero partitions
        self._parts: np.ndarray | None = None       # (P - first) x rows x B + 1
        self._history: np.ndarray | None = None     # the last block, B
        self._fdl: np.ndarray | None = None         # P - 1 x B + 1, oldest first

    def _partition(self, size: int) -> None:
        """Cut the taps into partitions of size samples and transform
        partitions first..P-1, each zero-padded to 2 * size; the partitions
        before first are zero in every row (a bulk delay), so their products
        would add exact zeros."""
        rows, length = self.taps.shape
        count = -(-length // size)
        padded = np.zeros((rows, count * size))
        padded[:, :length] = self.taps
        parts = padded.reshape(rows, count, size).transpose(1, 0, 2)
        self._first = int(np.argmax(np.any(parts != 0.0, axis=(1, 2))))
        self._parts = np.fft.rfft(parts[self._first :], 2 * size, axis=2)
        self._history = np.zeros(size)
        self._fdl = np.zeros((count - 1, size + 1), dtype=complex)

    def spectrum(self, frames: np.ndarray) -> np.ndarray:
        """Take a span into the filter: one 1-D block, whose output
        spectrum is rows x B + 1, or K x B frames, whose K spectra are rows
        x K x B + 1; each spectrum is its block's output before the
        inverse transform. The filter is linear, so output() of a sum of
        spectra is the sum of the blocks' outputs."""
        frames = np.asarray(frames, dtype=float)
        blocks = frames if frames.ndim == 2 else frames[None, :]
        count, size = blocks.shape
        if self._history is None:
            if not blocks.size:
                raise ValueError("an empty block cannot fix the block length")
            self._partition(size)
        elif size != len(self._history) or not count:
            raise ValueError(f"{count} blocks of {size} samples; this filter "
                             f"takes one or more blocks of {len(self._history)}")
        stream = np.concatenate([self._history, blocks.ravel()])
        # windows[k] is the pair (block k - 1, block k), 2B samples
        windows = np.lib.stride_tricks.sliding_window_view(
            stream, 2 * size)[::size]
        depth = len(self._fdl)
        # spectra[depth + k] is block k's pair; partition p reads the pair
        # p blocks older, spectra[depth + k - p]
        spectra = np.concatenate([self._fdl, np.fft.rfft(windows, axis=-1)])
        self._history = stream[-size:]
        self._fdl = spectra[len(spectra) - depth :]
        terms = (spectra[None, depth - p : depth - p + count] * part[:, None]
                 for p, part in enumerate(self._parts, self._first))
        out = next(terms)
        for term in terms:
            out += term
        return out if frames.ndim == 2 else out[:, 0]

    @staticmethod
    def output(spectrum: np.ndarray) -> np.ndarray:
        """The samples of output spectra, ... x rows x B + 1 -> ... x rows x
        B: the last B points of each 2B-point inverse transform."""
        size = spectrum.shape[-1] - 1
        return np.fft.irfft(spectrum, 2 * size, axis=-1)[..., size:]

    def process(self, frames: np.ndarray) -> np.ndarray:
        """Filter a span, one 1-D block or K x B frames; returns rows x
        samples, K x B samples for frames."""
        out = self.output(self.spectrum(frames))
        return out.reshape(len(out), -1)


def decorrelator_fir(index: int) -> np.ndarray:
    """Random-phase all-pass FIR (DECORRELATOR_TAPS taps) for one speaker index.

    Unit magnitude in every DFT bin (so unit energy) with phases drawn from a
    generator seeded by DEFAULT_SEED + index; the same index always yields
    the same taps.
    """
    rng = np.random.default_rng(DEFAULT_SEED + int(index))
    phases = rng.uniform(-np.pi, np.pi, DECORRELATOR_TAPS // 2 + 1)
    phases[0] = 0.0
    if DECORRELATOR_TAPS % 2 == 0:
        phases[-1] = 0.0
    return np.fft.irfft(np.exp(1j * phases), DECORRELATOR_TAPS)


# signal directives ------------------------------------------------------

@dataclass(frozen=True)
class Directive:
    """Deferred signal edit: kind in {spectral_tilt, time_shift, decorrelate}.

    value units: dB for spectral_tilt (gain at 4 kHz relative to 250 Hz),
    milliseconds for time_shift (positive is later), 0..1 for decorrelate.
    seed keys the decorrelator so distinct objects decorrelate differently.
    """

    kind: str
    value: float
    seed: int = 0


def object_seed(object_id: str) -> int:
    """Stable per-object seed for decorrelation directives."""
    return zlib.crc32(object_id.encode("utf-8"))


def design_tilt_ba(tilt_db: float, sample_rate: int = DEFAULT_SAMPLE_RATE):
    """First-order shelf whose 4 kHz response sits tilt_db above 250 Hz.

    Solved on the digital response so the stated dB is hit exactly at the two
    probe frequencies. A first-order shelf tops out near 24 dB across this
    four-octave span; magnitudes beyond that raise TiltOutOfReach (a
    ValueError).

    The shelf is (1 + s r / w0) / (1 + s / (w0 r)), w0 the probes' geometric
    mean, through the bilinear transform s = c (z - 1) / (z + 1), c = 2 fs.

    At a digital frequency f the response's squared magnitude is
    (1 + S u) / (1 + u / S), with S = r^2 and u = (c tan(pi f / fs) / w0)^2
    the prewarped frequency. With u1, u2 at the reference and the probe,
    |H(f2) / H(f1)|^2 = T = 10^(tilt_db / 10) is the quadratic

        (u2 - T u1) S^2 + (1 - T) (1 + u1 u2) S + (u1 - T u2) = 0,

    whose first and last coefficients have opposite signs inside the
    shelf's reach: one positive root, taken in the form that cancels no
    digits.
    """
    if abs(tilt_db) < 1e-9:
        return np.array([1.0]), np.array([1.0])
    span_db = 20.0 * math.log10(TILT_PROBE_HZ / TILT_REF_HZ)
    if abs(tilt_db) >= span_db - 0.5:
        raise TiltOutOfReach(
            f"spectral tilt of {tilt_db:g} dB exceeds the first-order shelf's "
            f"reach of {span_db - 0.5:.2f} dB")
    c = 2.0 * sample_rate
    w0 = 2.0 * math.pi * math.sqrt(TILT_PROBE_HZ * TILT_REF_HZ)
    u1, u2 = ((c * math.tan(math.pi * f / sample_rate) / w0) ** 2
              for f in (TILT_REF_HZ, TILT_PROBE_HZ))
    t = 10.0 ** (tilt_db / 10.0)
    qa, qb, qc = u2 - t * u1, (1.0 - t) * (1.0 + u1 * u2), u1 - t * u2
    root = math.sqrt(qb * qb - 4.0 * qa * qc)
    square = (-qb + root) / (2.0 * qa) if qb < 0.0 else 2.0 * qc / (-qb - root)
    r = math.sqrt(square)
    num, den = c * r / w0, c / (w0 * r)
    return (np.array([(num + 1.0) / (den + 1.0), (1.0 - num) / (den + 1.0)]),
            np.array([1.0, (1.0 - den) / (1.0 + den)]))


def _first_order_filter(b, a, x: np.ndarray, start: int = 0) -> np.ndarray:
    """y[n] = b[0] x[n] + b[1] x[n - 1] + p y[n - 1], p = -a[1], from rest,
    as scipy.signal.lfilter(b, a, x) computes it, without a loop per sample.

    A blocked scan: in blocks of B samples, with |p|^-B at most SCAN_GROWTH,
    the response from rest is p^i times the running sum of v[j] p^-j, where
    v[j] = b[0] x[j] + b[1] x[j - 1] and i, j count from the block's start.
    Each block then gets its carry, p^(i + 1) times the output at the end of
    the block before. Those ends obey the same recursion with pole p^B,
    whose terms are summed until its power falls below TRANSIENT_FLOOR.
    x[0] is sample start of its signal, and start % B leading zeros lay the
    blocks on that signal's grid, so a window rounds as the whole does.
    """
    if len(a) == 1:
        return b[0] * x
    n, p = len(x), -a[1]
    size = max(1, int(math.log(SCAN_GROWTH) / -math.log(abs(p)))) if p else 1
    lead = start % size
    count = -(-(lead + n) // size)
    v = np.zeros(count * size)
    np.multiply(x, b[0], out=v[lead : lead + n])
    v[lead + 1 : lead + n] += b[1] * x[:-1]
    i = np.arange(size, dtype=float)
    sums = v.reshape(count, size)
    sums *= p ** -i
    np.cumsum(sums, axis=1, out=sums)
    local = sums[:, -1] * p ** (size - 1)       # block ends, each from rest
    ends = local.copy()
    step = power = p**size
    for lag in range(1, count):
        if abs(power) < TRANSIENT_FLOOR:
            break
        ends[lag:] += power * local[:-lag]
        power *= step
    sums[1:] += (p * ends[:-1])[:, None]
    sums *= p**i
    return sums.ravel()[lead : lead + n]


def _overlap_save(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The first len(x) samples of x convolved with taps, by overlap-save.

    Frames of size points, DECORRELATOR_FRAME or, for a short x, the least
    fast length that holds the whole convolution, start hop = size -
    len(taps) + 1 samples apart on x preceded by len(taps) - 1 zeros; the
    last hop samples of each frame's circular convolution are linear.
    """
    n, reach = len(x), len(taps) - 1
    size = min(DECORRELATOR_FRAME, _next_fast_len(n + reach))
    hop = size - reach
    count = max(1, -(-n // hop))
    padded = np.zeros((count - 1) * hop + size)
    padded[reach : reach + n] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, size)[::hop]
    wet = np.fft.irfft(np.fft.rfft(frames, axis=-1) * np.fft.rfft(taps, size),
                       size, axis=-1)
    return wet[:, reach:].ravel()[:n]


def apply_directives(
    stem: np.ndarray,
    directives,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    start: int = 0,
) -> np.ndarray:
    """Apply deferred signal directives, in order, to a stem from sample start.

    Always processes from the original signal it is given, so re-running an
    adaptation pass never stacks filters, and returns a new array (a copy
    only when no directive changed the input).
    """
    x = out = np.asarray(stem, dtype=float)
    for d in directives:
        if d.kind == "spectral_tilt":
            b, a = design_tilt_ba(d.value, sample_rate)
            out = _first_order_filter(b, a, out, start)
        elif d.kind == "time_shift":
            n = len(out)
            shift = d.value * 1e-3 * sample_rate
            if shift >= n + 1:
                # the delay's leading zeros alone (_delay_plan's m >= n)
                # fill the stem, so none of it is computed
                out = np.zeros(n)
            elif shift >= 0:
                out = fractional_delay(out, d.value * 1e-3, sample_rate)[:n]
            else:
                # advance: delay by the fractional complement, then shift left;
                # an advance past the stem's end leaves it all zeros
                whole = int(math.ceil(-shift))
                out = fractional_delay(out, (whole + shift) / sample_rate,
                                       sample_rate)
                out = np.concatenate([out[whole:n], np.zeros(min(whole, n))])
        elif d.kind == "decorrelate":
            amount = min(max(d.value, 0.0), 1.0)
            if amount > 0.0:
                wet = _overlap_save(out, decorrelator_fir(d.seed))
                out = math.sqrt(1.0 - amount) * out + math.sqrt(amount) * wet
        else:
            raise ValueError(f"unknown directive kind {d.kind!r}")
    return out.copy() if out is x else out


def directive_margins(directives, sample_rate: int = DEFAULT_SAMPLE_RATE) -> tuple[int, int]:
    """(warm-up, look-ahead) of a directive chain, in samples.

    Sample n of apply_directives' output depends on the input from
    n - warm-up to n + look-ahead, to within TRANSIENT_FLOOR of the signal
    level, so filtering a window that starts warm-up samples early and ends
    look-ahead samples late reproduces the whole-stem output inside it.
    Reaches add up along the chain:

    - spectral_tilt: the samples the shelf's pole takes to decay below
      TRANSIENT_FLOOR (3701 at -23.5 dB, 15 at +23.5 dB);
    - time_shift: the 4-tap Lagrange delay reaches ceil(shift) + 3 samples
      back for a delay; an advance reaches 3 back and ceil(-shift) ahead;
    - decorrelate: DECORRELATOR_TAPS - 1 back when the amount is positive.
    """
    warmup = lookahead = 0
    for d in directives:
        if d.kind == "spectral_tilt":
            _, a = design_tilt_ba(d.value, sample_rate)
            pole = abs(a[-1]) if len(a) > 1 else 0.0
            if pole > 0.0:
                warmup += math.ceil(math.log(TRANSIENT_FLOOR) / math.log(pole))
        elif d.kind == "time_shift":
            shift = d.value * 1e-3 * sample_rate
            if shift >= 0:
                warmup += math.ceil(shift) + 3
            else:
                warmup += 3
                lookahead += math.ceil(-shift)
        elif d.kind == "decorrelate":
            if d.value > 0.0:
                warmup += DECORRELATOR_TAPS - 1
        else:
            raise ValueError(f"unknown directive kind {d.kind!r}")
    return warmup, lookahead
