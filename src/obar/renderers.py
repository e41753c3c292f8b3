"""Renderer bank: panning, mode matching, gain-delay wavefront synthesis,
pressure matching, and diffuse decorrelation.

Each renderer reduces to a DrivingFunction (per-speaker gain, delay, optional
FIR). render_block executes a driving function span by span (one block or
several consecutive ones) with state so a long signal can stream without
discontinuities, processing all of a drive's speakers in one batched pass.
Gain, the 4-tap Lagrange delay and the FIR are linear and fixed for the
drive's lifetime, so a drive with FIRs or delays (pressure matching,
diffuse, WFS) folds them into one row of taps per speaker
(dsp.fractional_delay of the FIR) and runs as one overlap-save filter bank
fed the mono block, whose tap transforms are kept for the drive's
lifetime. A drive with neither (VBAP, AmbiMM, AP1) is its gains alone.
render_spectrum stops a filtered drive's span before its inverse
transform, so the engine can sum steady filtered lanes in one spectrum per
output channel and invert once per span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dsp import BlockFIR, decorrelator_fir, fractional_delay
from .errors import (
    NotBracketed,
    RankDeficient,
    SourceInsideArray,
    StateMismatch,
    TooFewSpeakers,
)
from .geometry import Direction3, angle_between_deg, ccw_arc_deg

SPEED_OF_SOUND_MS = 343.0

# Pressure matching defaults: solve on a log grid, realize as linear-phase FIRs.
PM_FREQ_COUNT = 129
PM_FREQ_LO_HZ = 50.0
PM_FREQ_HI_HZ = 16000.0
PM_BETA_DEFAULT = 1e-3
PM_FIR_TAPS = 1024

_TIE_EPS_DEG = 1e-9
_FLAT_EPS_DEG = 1e-9


def pm_default_freqs() -> np.ndarray:
    return np.geomspace(PM_FREQ_LO_HZ, PM_FREQ_HI_HZ, PM_FREQ_COUNT)


# ---------------------------------------------------------------------------
# panning

def nearest_speaker_gains(speaker_dirs, target: Direction3) -> np.ndarray:
    """One-hot gain vector selecting the speaker at minimum great-circle angle.

    Exact ties go to the lowest index.
    """
    if not speaker_dirs:
        raise TooFewSpeakers("nearest-speaker panning needs a speaker")
    angles = np.array([angle_between_deg(d, target) for d in speaker_dirs])
    best = float(np.min(angles))
    index = int(np.flatnonzero(angles <= best + _TIE_EPS_DEG)[0])
    gains = np.zeros(len(speaker_dirs))
    gains[index] = 1.0
    return gains


def _is_horizontal(speaker_dirs, target: Direction3) -> bool:
    return abs(target.el_deg) < _FLAT_EPS_DEG and all(
        abs(d.el_deg) < _FLAT_EPS_DEG for d in speaker_dirs)


def _bracketing_pair(azimuths, target_az: float):
    """Adjacent azimuth pair whose arc (< 180 deg) contains the target."""
    order = sorted(range(len(azimuths)), key=lambda i: azimuths[i])
    for k in range(len(order)):
        i, j = order[k], order[(k + 1) % len(order)]
        arc = ccw_arc_deg(azimuths[i], azimuths[j])
        if len(order) == 1 or arc == 0.0:
            continue
        if arc < 180.0 and ccw_arc_deg(azimuths[i], target_az) <= arc + 1e-12:
            return i, j
    return None


def vbap_gains(speaker_dirs, target: Direction3) -> np.ndarray:
    """Vector-base amplitude panning gains, power-normalized.

    Horizontal layouts pan over the adjacent speaker pair that brackets the
    target; layouts or targets with elevation pan over an enclosing triplet.
    Raises NotBracketed when no pair or triplet contains the target.
    """
    if len(speaker_dirs) < 2:
        raise NotBracketed("vector-base panning needs at least two speakers")
    units = np.array([d.unit_vector() for d in speaker_dirs])
    p = np.array(target.unit_vector())
    gains = np.zeros(len(speaker_dirs))
    if _is_horizontal(speaker_dirs, target):
        pair = _bracketing_pair([d.az_deg for d in speaker_dirs], target.az_deg)
        if pair is None:
            raise NotBracketed(
                f"no adjacent speaker pair brackets azimuth {target.az_deg}")
        i, j = pair
        basis = np.column_stack([units[i, :2], units[j, :2]])
        g = np.linalg.solve(basis, p[:2])
        g = np.maximum(g, 0.0)
        gains[i], gains[j] = g
    else:
        best = None
        for tri in combinations(range(len(speaker_dirs)), 3):
            basis = units[list(tri)].T
            if abs(np.linalg.det(basis)) < 1e-9:
                continue
            g = np.linalg.solve(basis, p)
            if np.min(g) >= -1e-9:
                if best is None or np.min(g) > best[1]:
                    best = (tri, float(np.min(g)), np.maximum(g, 0.0))
        if best is None:
            raise NotBracketed("no speaker triplet encloses the target")
        tri, _, g = best
        gains[list(tri)] = g
    return gains / np.linalg.norm(gains)


# ---------------------------------------------------------------------------
# ambisonic mode matching (2D circular harmonics)

def ambi_encode(direction: Direction3, order: int) -> np.ndarray:
    """Circular-harmonic coefficients [1, cos t, sin t, ..., cos Nt, sin Nt]."""
    if order < 0:
        raise ValueError("order must be >= 0")
    theta = math.radians(direction.az_deg)
    coeffs = [1.0]
    for n in range(1, order + 1):
        coeffs.append(math.cos(n * theta))
        coeffs.append(math.sin(n * theta))
    return np.array(coeffs)


def ambi_mm_decode(speaker_dirs, order: int) -> np.ndarray:
    """Mode-matching decode matrix, speakers x (2*order+1).

    Gains for a direction are D @ ambi_encode(direction, order). Raises
    RankDeficient when the layout cannot carry all requested modes (too few or
    coincident speakers).
    """
    n_modes = 2 * order + 1
    if len(speaker_dirs) < n_modes:
        raise RankDeficient(
            f"{len(speaker_dirs)} speakers cannot match {n_modes} modes")
    encodes = np.array([ambi_encode(d, order) for d in speaker_dirs])
    singulars = np.linalg.svd(encodes, compute_uv=False)
    if singulars[-1] < 1e-9 * singulars[0]:
        raise RankDeficient("speaker layout is rank deficient for this order")
    return np.linalg.pinv(encodes).T


# ---------------------------------------------------------------------------
# wavefront synthesis by gains and delays

def wfs_drive(speaker_positions, source: Direction3):
    """Per-speaker (gains, delays_s) reproducing a point source behind the array.

    Each speaker is delayed by its distance to the virtual source and weighted
    by 1/r, power-normalized over the subset; delays are offset so the smallest
    is exactly zero. The source must lie farther from the listener than every
    speaker in the subset.
    """
    if source.distance_m is None:
        raise SourceInsideArray("wavefront synthesis needs a source distance")
    src = np.array(source.cartesian())
    pts = []
    for sp in speaker_positions:
        if sp.distance_m is None:
            raise SourceInsideArray("speaker positions need distances")
        if source.distance_m <= sp.distance_m:
            raise SourceInsideArray(
                f"source at {source.distance_m} m is not behind a speaker at "
                f"{sp.distance_m} m")
        pts.append(np.array(sp.cartesian()))
    r = np.array([float(np.linalg.norm(src - p)) for p in pts])
    delays = r / SPEED_OF_SOUND_MS
    delays -= delays.min()
    inv = 1.0 / r
    gains = inv / math.sqrt(float(np.sum(inv**2)))
    return gains, delays


# ---------------------------------------------------------------------------
# single-zone pressure matching

@dataclass(frozen=True)
class PMDesign:
    """Solved pressure-matching filters: spectra on the grid plus FIR taps.

    Each speaker's bulk propagation delay (source path minus speaker path) is
    factored out of the taps into align_delays_s; rendering applies taps and
    delay together. Keeping the taps delay-free concentrates their energy at
    the window centre.
    """

    freqs: np.ndarray
    spectra: np.ndarray          # speakers x freqs, complex
    firs: np.ndarray             # speakers x taps
    align_delays_s: np.ndarray   # per speaker, may be negative


def _greens(distance_m: np.ndarray, freq_hz: float) -> np.ndarray:
    k = 2.0 * np.pi * freq_hz / SPEED_OF_SOUND_MS
    return np.exp(-1j * k * distance_m) / (4.0 * np.pi * distance_m)


def pm_filters(
    speaker_positions,
    control_points,
    source: Direction3,
    freqs: np.ndarray | None = None,
    beta: float = PM_BETA_DEFAULT,
    n_taps: int = PM_FIR_TAPS,
    sample_rate: int = 48000,
) -> PMDesign:
    """Regularized pressure matching over a control zone.

    Per frequency, driving weights minimize |G q - p|^2 + beta |q|^2 where G
    holds free-field Green's functions from speakers to control points and p
    the target source's Green's functions. Realized as linear-phase-shifted
    FIRs via the inverse transform with a Hann window.
    """
    if freqs is None:
        freqs = pm_default_freqs()
    if source.distance_m is None:
        raise SourceInsideArray("pressure matching needs a source distance")
    spk = np.array([p.cartesian() for p in speaker_positions])
    ctl = np.array([p.cartesian() for p in control_points])
    src = np.array(source.cartesian())
    d_spk = np.linalg.norm(ctl[:, None, :] - spk[None, :, :], axis=2)
    d_src = np.linalg.norm(ctl - src[None, :], axis=1)
    if np.any(d_spk < 1e-6) or np.any(d_src < 1e-6):
        raise SourceInsideArray("a control point coincides with a source or speaker")

    n_spk = len(speaker_positions)
    spectra = np.zeros((n_spk, len(freqs)), dtype=complex)
    eye = np.eye(n_spk)
    for fi, f in enumerate(freqs):
        G = _greens(d_spk, f)
        p = _greens(d_src, f)
        # augmented least squares, equivalent to the regularized normal
        # equations but solved along a different numerical route
        a = np.vstack([G, math.sqrt(beta) * eye])
        b = np.concatenate([p, np.zeros(n_spk)])
        q, *_ = np.linalg.lstsq(a, b, rcond=None)
        spectra[:, fi] = q

    align = (np.mean(d_src) - np.mean(d_spk, axis=0)) / SPEED_OF_SOUND_MS
    firs = _spectra_to_firs(freqs, spectra, align, n_taps, sample_rate)
    return PMDesign(freqs=np.asarray(freqs, dtype=float), spectra=spectra,
                    firs=firs, align_delays_s=align)


def _spectra_to_firs(freqs, spectra, align_delays_s, n_taps, sample_rate) -> np.ndarray:
    """Interpolate solved spectra onto the FFT grid, centre as linear phase,
    window, and invert to taps.

    The per-speaker bulk delay is unwound first so the interpolated phase
    varies slowly across the sparse log grid and the impulse lands on the
    window centre; callers reapply it as align_delays_s."""
    freqs = np.asarray(freqs, dtype=float)
    grid = np.fft.rfftfreq(n_taps, 1.0 / sample_rate)
    firs = np.zeros((spectra.shape[0], n_taps))
    centre = n_taps // 2
    window = np.hanning(n_taps)
    shift = np.exp(-2j * np.pi * grid * centre / sample_rate)
    for li in range(spectra.shape[0]):
        smooth = spectra[li] * np.exp(2j * np.pi * freqs * align_delays_s[li])
        re = np.interp(grid, freqs, smooth.real,
                       left=smooth[0].real, right=smooth[-1].real)
        im = np.interp(grid, freqs, smooth.imag,
                       left=smooth[0].imag, right=smooth[-1].imag)
        h = (re + 1j * im) * shift
        h[0] = h[0].real
        if n_taps % 2 == 0:
            h[-1] = h[-1].real
        firs[li] = np.fft.irfft(h, n_taps) * window
    return firs


# ---------------------------------------------------------------------------
# diffuse rendering

def diffuse_gains(n_speakers: int):
    """Equal power split with a distinct decorrelator per speaker index."""
    if n_speakers < 2:
        raise TooFewSpeakers("diffuse rendering needs at least two speakers")
    gains = np.full(n_speakers, 1.0 / math.sqrt(n_speakers))
    firs = tuple(decorrelator_fir(i) for i in range(n_speakers))
    return gains, firs


# ---------------------------------------------------------------------------
# driving functions and block rendering

@dataclass(frozen=True)
class DrivingFunction:
    """Per-speaker gain, delay, and optional FIR over a speaker subset.

    A drive is a value: its arrays are never modified after construction,
    which lets fingerprint() serialise them once.
    """

    speaker_ids: tuple[str, ...]
    gains: np.ndarray
    delays_s: np.ndarray
    firs: tuple = ()                 # per-speaker ndarray or None
    sample_rate: int = 48000

    def fingerprint(self) -> tuple:
        """The drive's contents as hashable bytes, computed on first use."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            fir_bytes = tuple(
                None if f is None else f.tobytes() for f in self.firs) if self.firs else ()
            cached = (self.speaker_ids, self.gains.tobytes(),
                      self.delays_s.tobytes(), fir_bytes, self.sample_rate)
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass
class RenderState:
    """Streaming state for one driving function.

    A drive with FIRs or delays (pressure matching, diffuse, WFS) runs as
    one filter bank (fir) fed the mono block: row r's taps fold its gain,
    delay and FIR into one filter (_folded_taps). The first block's length
    fixes the filter's partition size, so every block rendered with this
    state must have that length. A drive with neither (VBAP, AmbiMM, AP1)
    has no filter (fir is None), takes blocks of any length and needs no
    state beyond its fingerprint.
    """

    fingerprint: tuple
    fir: BlockFIR | None = None


def _folded_taps(gain: float, delay_s: float, fir, sample_rate: int) -> np.ndarray:
    """One row's gain, delay and FIR as one filter: gain x the FIR delayed
    by fractional_delay (m zeros, then the Lagrange kernel convolved with
    the FIR). A row without a FIR folds to gain x its delay."""
    taps = np.ones(1) if fir is None else fir
    return gain * fractional_delay(taps, delay_s, sample_rate)


def new_render_state(drive: DrivingFunction) -> RenderState:
    """Streaming state for a drive, before its first block: a filter bank,
    whose block length the first render_block call fixes, when a row has
    a FIR or a delay; else none."""
    if all(f is None for f in drive.firs) and not np.any(drive.delays_s):
        return RenderState(fingerprint=drive.fingerprint())
    firs = drive.firs or (None,) * len(drive.gains)
    return RenderState(fingerprint=drive.fingerprint(), fir=BlockFIR([
        _folded_taps(g, d, f, drive.sample_rate)
        for g, d, f in zip(drive.gains, drive.delays_s, firs)]))


def _check_state(drive: DrivingFunction, state: RenderState) -> None:
    if state.fingerprint != drive.fingerprint():
        raise StateMismatch("render state belongs to a different driving function")


def render_block(stem_block: np.ndarray, drive: DrivingFunction,
                 state: RenderState) -> np.ndarray:
    """A span through a driving function, all speakers together.

    stem_block is one mono block, or K x B frames holding K consecutive
    blocks of B samples. A drive with a filter (FIRs or delays) is one
    BlockFIR.process call of the span against every row's folded taps. A
    gain-only drive is one outer product of the gains and the span's
    samples. Returns the samples, span length x subset speakers in drive
    order, equal to the span's blocks rendered one by one. The state must
    have been created for this exact driving function; with a filter,
    every block must have the length of the first one rendered with it (a
    ValueError otherwise).

    The engine calls this only for fading lanes; a steady filtered lane
    goes through render_spectrum, and a steady gain-only lane needs no
    state at all (engine._mix_block).
    """
    _check_state(drive, state)
    block = np.asarray(stem_block, dtype=float)
    if state.fir is not None:
        return state.fir.process(block).T
    return np.outer(drive.gains, block).T


def render_spectrum(stem_block: np.ndarray, drive: DrivingFunction,
                    state: RenderState) -> np.ndarray:
    """A span through a filtered drive, stopped before the inverse
    transform (BlockFIR.spectrum): for one block, its output spectrum,
    subset speakers x block length + 1; for K x B frames, subset speakers
    x K x block length + 1.
    BlockFIR.output of a block's spectrum is render_block's result for the
    block, transposed; spectra of several drives summed into shared rows
    give their summed output from one inverse transform. The state is
    checked and advanced exactly as render_block does."""
    _check_state(drive, state)
    return state.fir.spectrum(stem_block)
