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

from . import _kernels
from ._lapack import ztrtrs
from .core import TWO_PI, SampledSignal
from .errors import AnalysisError, UsageError
from .pitch import F0Track

RANK_RTOL = 1e-10      # singular values below this fraction of the largest are noise
_REAL_POLE_TOL = 1e-9  # |Im z| below this (relative) makes a pole real
_COND_WARN = 1e12
_LOG_RANGE = 600.0     # |delta| * frame_len ceiling; exp(600) stays finite in float64
ESPRIT_BLOCK = 1 << 16  # Hankel elements per stacked SVD in edsm_analyze


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
    (poles,), (k_eff,) = _esprit_block(x[np.newaxis], np.array([k_exp]), rank_rtol)
    return poles, int(k_eff)


def _esprit_block(frames: np.ndarray, k_max: np.ndarray,
                  rank_rtol: float) -> tuple[list, np.ndarray]:
    """esprit_poles of each row of frames (g x L, none all-zero) with order
    cap k_max[i]: one stacked SVD for the block, then one stacked pinv and
    eigvals per group of frames with equal k_eff.  numpy runs the LAPACK and
    BLAS routine of a lone matrix on each matrix of a stack, so each frame's
    poles are those of a call on that frame alone.
    """
    length = frames.shape[1]
    n = length // 2
    X = _kernels.hankel_build(frames, length - n + 1, n)
    _, s, vh = np.linalg.svd(X, full_matrices=False)
    k_eff = np.minimum(np.count_nonzero(s >= rank_rtol * s[:, :1], axis=1), k_max)
    poles = [np.empty(0, dtype=np.complex128)] * frames.shape[0]
    for k in np.unique(k_eff[k_eff > 0]).tolist():
        group = np.flatnonzero(k_eff == k)
        vs = vh[group, :k].conj().swapaxes(1, 2)  # N x k_eff singular bases
        phi = np.linalg.pinv(vs[:, :-1]) @ vs[:, 1:]
        z = np.linalg.eigvals(phi)
        order = np.lexsort((np.abs(z), np.angle(z)), axis=-1)
        for g, zg, og in zip(group.tolist(), z, order):
            poles[g] = zg[og]
    return poles, k_eff


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
    if r.shape[0] == r.shape[1] and d.min() > 0.0 and np.isfinite(r).all():
        # a square, C-ordered r: r.T is the Fortran-order lower factor LAPACK takes
        alphas = ztrtrs(r.T, q.conj().T @ y, lower=1, trans=1)[0] / scale
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
    is_real = np.abs(poles.imag) <= _REAL_POLE_TOL * (1.0 + np.abs(poles))
    # magnitudes are hypot(re, im), as a complex scalar's abs is; numpy's
    # complex-array abs loop can differ from it in the last bit
    mag = np.hypot(poles.real, poles.imag)
    re = np.flatnonzero(is_real & (mag > 0))
    # a real frame's poles come in exact conjugate pairs: sorting both
    # half-planes the same way lines each pole up with its conjugate
    up = np.flatnonzero(~is_real & (poles.imag > 0))
    lo = np.flatnonzero(~is_real & (poles.imag < 0))
    up = up[np.lexsort((poles[up].imag, poles[up].real))]
    lo = lo[np.lexsort((-poles[lo].imag, poles[lo].real))]
    if up.shape != lo.shape or not np.array_equal(poles[lo], poles[up].conj()):
        raise UsageError("complex poles must come in exact conjugate pairs")
    ai, aj = alphas[up], alphas[lo]
    a = np.concatenate((np.abs(alphas[re].real),
                        np.hypot(ai.real, ai.imag) + np.hypot(aj.real, aj.imag)))
    delta = np.concatenate((np.log(mag[re]), 0.5 * (np.log(mag[up]) + np.log(mag[lo]))))
    omega = 0.5 * (np.angle(poles[up]) - np.angle(poles[lo]))
    freq = np.concatenate((np.where(poles[re].real >= 0, 0.0, fs / 2.0), omega * fs / TWO_PI))
    phase = np.concatenate((np.where(alphas[re].real >= 0, 0.0, np.pi), np.angle(ai)))
    order = np.lexsort((-a, freq))
    return tuple(DampedSinusoid(*c)
                 for c in np.stack((a, delta, freq, phase), axis=1)[order].tolist())


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
    centers = np.minimum(np.arange(0, n, window) + window // 2, n - 1)
    f0 = np.maximum(f0track.f0_at(centers / signal.fs), 1.0)
    return np.maximum(1, (signal.fs / (2.0 * f0)).astype(np.int64)).tolist()


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
    starts = np.arange(0, n, w)
    orders = np.array(_frame_orders(config.order, starts.shape[0]), dtype=np.int64)
    if np.any(orders < 1):
        raise UsageError(f"per-frame order must be >= 1, got {orders[orders < 1][0]}")
    lengths = np.minimum(w, n - starts)
    frames: list[EDSMFrame] = []
    # the full frames, then a shorter tail, in blocks of at most ESPRIT_BLOCK
    # Hankel elements or of one frame
    for length in sorted(set(lengths.tolist()), reverse=True):
        seg_len = max(length, 8)
        n_cols = seg_len // 2
        k_cap = min(n_cols, seg_len - n_cols + 1) - 1
        same = np.flatnonzero(lengths == length)
        step = max(1, ESPRIT_BLOCK // ((seg_len - n_cols + 1) * n_cols))
        for block in np.array_split(same, range(step, same.shape[0], step)):
            segs = np.zeros((block.shape[0], seg_len))
            segs[:, :length] = x[starts[block, None] + np.arange(length)]
            live = np.flatnonzero(np.any(segs, axis=1))
            poles, k_eff = _esprit_block(segs[live], np.minimum(2 * orders[block[live]], k_cap),
                                         config.rank_rtol)
            comps, k_kept = [()] * block.shape[0], np.zeros(block.shape[0], dtype=np.int64)
            for i, z, k in zip(live.tolist(), poles, k_eff.tolist()):
                # keep poles renderable over this frame
                mag = np.abs(z)
                z = z[(mag > 0) & (np.abs(np.log(np.maximum(mag, 1e-300)))
                                   <= _LOG_RANGE / max(seg_len - 1, 1))]
                if k and z.shape[0]:
                    alphas = vandermonde_amplitudes(segs[i], z)
                    comps[i], k_kept[i] = poles_to_components(z, alphas, signal.fs), k
            frames += [EDSMFrame(start=s, length=length, components=c, k_eff=k)
                       for s, c, k in zip(starts[block].tolist(), comps, k_kept.tolist())]
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
        a, delta, freq, phase = np.array(
            [(c.a, c.delta, c.freq_hz, c.phase) for c in fr.components]).reshape(-1, 4).T
        seg = np.zeros(n.shape[0], dtype=np.float64)
        # each component's samples, added in component order
        for row in (a[:, None] * np.exp(np.clip(delta, -bound, bound)[:, None] * n)
                    * np.cos(TWO_PI * freq[:, None] / fs * n + phase[:, None])):
            seg += row
        out[fr.start:stop] = seg
    return out
