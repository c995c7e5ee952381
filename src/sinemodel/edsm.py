"""Exponentially damped sinusoidal model via subspace (shift-invariance) estimation.

A frame is modeled as x[n] = sum_k alpha_k * z_k^n with poles
z_k = exp(delta_k + i*omega_k); delta is the per-sample log-amplitude slope
(positive grows, negative decays) and omega the per-sample angle.  Poles are
estimated from the column space of a Hankel data matrix, amplitudes by a
Vandermonde least-squares solve, and conjugate pairs are merged into real
damped sinusoids (a, delta, f, phi).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _kernels
from .core import TWO_PI, SampledSignal
from .errors import AnalysisError, UsageError
from .pitch import F0Track

RANK_RTOL = 1e-10      # singular values below this fraction of the largest are noise
_REAL_POLE_TOL = 1e-9  # |Im z| below this (relative) makes a pole real
_COND_WARN = 1e12
_LOG_RANGE = 600.0     # |delta| * frame_len ceiling; exp(600) stays finite in float64


@dataclass(frozen=True)
class DampedSinusoid:
    """Real damped sinusoid a * exp(delta*n) * cos(2*pi*f/fs*n + phi)."""

    a: float         # amplitude at frame start, >= 0
    delta: float     # per-sample damping; > 0 grows
    freq_hz: float   # in [0, fs/2]
    phase: float     # rad at frame start

    def __post_init__(self):
        if self.a < 0:
            raise UsageError(f"component amplitude must be >= 0, got {self.a}")


@dataclass(frozen=True)
class EDSMFrame:
    """Per-frame analysis result; start/length in samples of the source signal."""

    start: int
    length: int
    components: tuple
    k_eff: int  # effective exponential order kept after the rank threshold


@dataclass(frozen=True)
class EDSMConfig:
    """Frame-wise analysis settings.

    order counts sinusoids per frame (the exponential order is twice that)
    and is capped by each frame's Hankel capacity.  Each frame's Hankel
    matrix has L//2 columns for a frame of L samples.  Only poles that
    cannot be rendered over the frame without overflow are discarded,
    because over-ordered frames rely on strongly damped poles to reach
    their fit quality.
    """

    window_samples: int
    order: object = None        # sinusoids per frame: int, per-frame sequence, or None
    rank_rtol: float = RANK_RTOL

    def __post_init__(self):
        if self.window_samples < 4:
            raise UsageError(f"window must be >= 4 samples, got {self.window_samples}")


# ---------------------------------------------------------------------------
# estimation primitives
# ---------------------------------------------------------------------------

def build_hankel(frame: np.ndarray, n_cols: int) -> np.ndarray:
    """Hankel data matrix X[r, n] = frame[r + n] with n_cols columns.

    Row count R satisfies n_cols + R - 1 == len(frame).
    """
    x = np.asarray(frame, dtype=np.float64)
    length = x.shape[0]
    rows = length - n_cols + 1
    if n_cols < 1 or rows < 1:
        raise UsageError(f"invalid Hankel shape for frame of {length} samples, N={n_cols}")
    return _kernels.hankel_build(x, rows, n_cols)


def esprit_poles(frame: np.ndarray, k_exp: int,
                 rank_rtol: float = RANK_RTOL) -> tuple[np.ndarray, int]:
    """Estimate up to k_exp poles from one frame via the shift-invariance of
    the right singular basis of its Hankel matrix with L//2 columns.

    Returns (poles, k_eff) where k_eff <= k_exp is the order kept after
    dropping singular values below rank_rtol times the largest.
    """
    x = np.asarray(frame, dtype=np.float64)
    length = x.shape[0]
    if k_exp < 1:
        raise UsageError(f"k_exp must be >= 1, got {k_exp}")
    if not np.any(x):
        raise AnalysisError("cannot estimate poles of an all-zero frame")
    n = length // 2
    rows = length - n + 1
    if n < 2 or rows < 2:
        raise UsageError(f"frame of {length} samples too short for N={n}")
    if k_exp > min(n, rows) - 1:
        raise UsageError(
            f"order {k_exp} too high for Hankel of {rows}x{n}; need N > K and R > K")
    X = _kernels.hankel_build(x, rows, n)
    _, s, vh = np.linalg.svd(X, full_matrices=False)
    k_eff = int(np.count_nonzero(s >= rank_rtol * s[0]))
    k_eff = min(k_eff, k_exp)
    if k_eff == 0:
        return np.empty(0, dtype=np.complex128), 0
    vs = vh[:k_eff].conj().T              # N x k_eff singular basis
    phi = np.linalg.pinv(vs[:-1, :]) @ vs[1:, :]
    poles = np.linalg.eigvals(phi)
    order = np.lexsort((np.abs(poles), np.angle(poles)))
    return poles[order], k_eff


def vandermonde_amplitudes(frame: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Least-squares complex amplitudes alpha solving frame = Z^T alpha.

    Z^T has columns z_k^n, n = 0..L-1.  The solve is QR on the column-
    equilibrated system: a singular-value cutoff relative to the largest
    column would discard the near-unit-circle columns that carry the fit
    whenever a strongly damped pole inflates the spectrum, so no rank
    truncation is applied unless the factorization itself degenerates.
    Warns with the condition number when near-coincident poles make the
    system ill-conditioned.
    """
    x = np.asarray(frame, dtype=np.float64)
    poles = np.asarray(poles, dtype=np.complex128)
    if poles.size == 0:
        return np.empty(0, dtype=np.complex128)
    length = x.shape[0]
    max_growth = np.max(np.abs(np.log(np.maximum(np.abs(poles), 1e-12)))) * (length - 1)
    if max_growth > 700.0:
        raise AnalysisError(
            f"pole magnitudes overflow over {length} samples (|delta|*L = {max_growth:.1f})")
    zt = poles[None, :] ** np.arange(length, dtype=np.float64)[:, None]
    y = x.astype(np.complex128)
    # equilibrate by per-column max; 2-norms can overflow for damped poles
    scale = np.max(np.abs(zt), axis=0)
    scale[scale == 0.0] = 1.0
    zs = zt / scale
    q, r = np.linalg.qr(zs)
    d = np.abs(np.diag(r))
    cond = np.inf if d.min() == 0.0 else d.max() / d.min()
    if cond > _COND_WARN:
        warnings.warn(f"Vandermonde system ill-conditioned (cond={cond:.3e}); "
                      "near-coincident poles", RuntimeWarning, stacklevel=2)
    if d.min() > 0.0 and np.isfinite(r).all():
        alphas = scipy.linalg.solve_triangular(r, q.conj().T @ y) / scale
        if np.isfinite(alphas).all():
            return alphas
    alphas, _, _, _ = np.linalg.lstsq(zs, y, rcond=1e-30)
    return alphas / scale


# ---------------------------------------------------------------------------
# pole <-> real-sinusoid conversions
# ---------------------------------------------------------------------------

def poles_to_components(poles: np.ndarray, alphas: np.ndarray,
                        fs: float) -> tuple[DampedSinusoid, ...]:
    """Merge conjugate pole pairs into real damped sinusoids.

    A pair (z, conj(z)) with amplitudes (alpha, conj(alpha)) renders as
    2|alpha| exp(delta n) cos(omega n + arg alpha).  Real poles map to f=0
    (or fs/2 for negative real z) with the phase folded into {0, pi}.
    Every complex pole needs its exact conjugate among the poles, as the
    eigenvalues of a real matrix have.
    """
    poles = np.asarray(poles, dtype=np.complex128)
    alphas = np.asarray(alphas, dtype=np.complex128)
    if poles.shape != alphas.shape:
        raise UsageError("poles and amplitudes must align")
    comps: list[DampedSinusoid] = []
    is_real = np.abs(poles.imag) <= _REAL_POLE_TOL * (1.0 + np.abs(poles))
    for i in np.flatnonzero(is_real):
        z, al = poles[i], alphas[i]
        mag = abs(z)
        if mag <= 0:
            continue
        delta = float(np.log(mag))
        freq = 0.0 if z.real >= 0 else fs / 2.0
        a = abs(al.real)
        phase = 0.0 if al.real >= 0 else np.pi
        comps.append(DampedSinusoid(a=a, delta=delta, freq_hz=freq, phase=phase))
    # a real frame's poles come in exact conjugate pairs: sorting both
    # half-planes the same way lines each pole up with its conjugate
    up = np.flatnonzero(~is_real & (poles.imag > 0))
    lo = np.flatnonzero(~is_real & (poles.imag < 0))
    up = up[np.lexsort((poles[up].imag, poles[up].real))]
    lo = lo[np.lexsort((-poles[lo].imag, poles[lo].real))]
    if up.shape != lo.shape or not np.array_equal(poles[lo], poles[up].conj()):
        raise UsageError("complex poles must come in exact conjugate pairs")
    for i, j in zip(up, lo):
        zi, ai, zj, aj = poles[i], alphas[i], poles[j], alphas[j]
        delta = 0.5 * (np.log(abs(zi)) + np.log(abs(zj)))
        omega = 0.5 * (np.angle(zi) - np.angle(zj))
        comps.append(DampedSinusoid(a=float(abs(ai) + abs(aj)), delta=float(delta),
                                    freq_hz=float(omega * fs / TWO_PI),
                                    phase=float(np.angle(ai))))
    comps.sort(key=lambda c: (c.freq_hz, -c.a))
    return tuple(comps)


def components_to_poles(components, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Expand real damped sinusoids into (poles, alphas); inverse of
    poles_to_components for components with 0 < f < fs/2."""
    poles: list[complex] = []
    alphas: list[complex] = []
    for c in components:
        omega = TWO_PI * c.freq_hz / fs
        if 0.0 < c.freq_hz < fs / 2.0:
            z = np.exp(c.delta + 1j * omega)
            al = 0.5 * c.a * np.exp(1j * c.phase)
            poles.extend([z, z.conjugate()])
            alphas.extend([al, al.conjugate()])
        else:
            z = np.exp(c.delta) * (1.0 if c.freq_hz == 0.0 else -1.0)
            poles.append(complex(z))
            alphas.append(complex(c.a * np.cos(c.phase)))
    return np.asarray(poles, dtype=np.complex128), np.asarray(alphas, dtype=np.complex128)


# ---------------------------------------------------------------------------
# frame-based analysis / synthesis
# ---------------------------------------------------------------------------

def _frame_orders(order, n_frames: int) -> list[int]:
    if order is None:
        raise UsageError("EDSM needs an order: an int or a per-frame sequence")
    if np.isscalar(order):
        return [int(order)] * n_frames
    orders = [int(k) for k in order]
    if len(orders) != n_frames:
        raise UsageError(f"per-frame order list has {len(orders)} entries, need {n_frames}")
    return orders


def full_band_orders(f0track: F0Track, signal: SampledSignal,
                     window: int) -> list[int]:
    """Per-frame sinusoid counts fs / (2 f0) for non-overlapping frames of
    `window` samples, with f0 read at each frame's center."""
    n = signal.samples.shape[0]
    orders = []
    for start in range(0, n, window):
        center = min(start + window // 2, n - 1)
        f0 = max(float(f0track.f0_at(center / signal.fs)), 1.0)
        orders.append(max(1, int(signal.fs / (2.0 * f0))))
    return orders


def edsm_analyze(signal: SampledSignal, config: EDSMConfig) -> list[EDSMFrame]:
    """Analyze non-overlapping rectangular frames into damped sinusoids.

    Per frame the requested sinusoid count k is doubled into an exponential
    order and capped by the frame's own Hankel capacity min(N, R) - 1 so the
    shift-invariance structure stays valid; the rank threshold may lower it
    further.  The trailing partial frame is analyzed at its reduced length
    under its own capacity; only a tail too short to carry even one pole
    pair is zero-padded up to the minimum workable length.
    """
    x = signal.samples
    n = x.shape[0]
    w = int(config.window_samples)
    starts = list(range(0, n, w))
    orders = _frame_orders(config.order, len(starts))
    frames: list[EDSMFrame] = []
    for start, k_sin in zip(starts, orders):
        length = min(w, n - start)
        seg = x[start:start + length]
        if k_sin < 1:
            raise UsageError(f"per-frame order must be >= 1, got {k_sin}")
        k_exp = 2 * k_sin
        if not np.any(seg):
            frames.append(EDSMFrame(start=start, length=length, components=(), k_eff=0))
            continue
        if seg.shape[0] < 8:
            seg = np.concatenate([seg, np.zeros(8 - seg.shape[0])])
        n_cols = seg.shape[0] // 2
        k_cap = min(n_cols, seg.shape[0] - n_cols + 1) - 1
        k_use = min(k_exp, k_cap)
        poles, k_eff = esprit_poles(seg, k_use, rank_rtol=config.rank_rtol)
        if poles.shape[0]:
            # keep poles renderable over this frame
            mag = np.abs(poles)
            bound = _LOG_RANGE / max(seg.shape[0] - 1, 1)
            keep = (mag > 0) & (np.abs(np.log(np.maximum(mag, 1e-300))) <= bound)
            poles = poles[keep]
        if k_eff == 0 or poles.shape[0] == 0:
            frames.append(EDSMFrame(start=start, length=length, components=(), k_eff=0))
            continue
        alphas = vandermonde_amplitudes(seg, poles)
        comps = poles_to_components(poles, alphas, signal.fs)
        frames.append(EDSMFrame(start=start, length=length, components=comps, k_eff=k_eff))
    return frames


def edsm_synthesize(frames, n_samples: int, fs: float) -> np.ndarray:
    """Concatenative resynthesis; each frame is rendered over its own support.

    Damping is clamped so exp(delta * n) stays finite over the frame.
    """
    out = np.zeros(int(n_samples), dtype=np.float64)
    for fr in frames:
        stop = min(fr.start + fr.length, n_samples)
        if stop <= fr.start:
            continue
        n = np.arange(stop - fr.start, dtype=np.float64)
        bound = _LOG_RANGE / max(stop - fr.start - 1, 1)
        seg = np.zeros(n.shape[0], dtype=np.float64)
        for c in fr.components:
            delta = float(np.clip(c.delta, -bound, bound))
            seg += c.a * np.exp(delta * n) * np.cos(TWO_PI * c.freq_hz / fs * n + c.phase)
        out[fr.start:stop] = seg
    return out
