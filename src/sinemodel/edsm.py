"""Exponentially damped sinusoidal model via subspace (shift-invariance) estimation.

A frame is modeled as x[n] = sum_k alpha_k * z_k^n with poles
z_k = exp(delta_k + i*omega_k); delta is the per-sample log-amplitude slope
(positive grows, negative decays) and omega the per-sample angle.  Poles are
estimated from the row space of a Hankel data matrix (ESPRIT), and one real
least-squares fit per frame gives the real damped sinusoids directly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._lapack import dsyevr, dtrtrs
from .core import TWO_PI, FrameRecord, SampledSignal, amp_phase, check_count
from .errors import UsageError
from .pitch import F0Track

RANK_RTOL = 1e-10      # singular values below this fraction of the largest are noise
_REAL_POLE_TOL = 1e-9  # |Im z| below this (relative) makes a pole real
_PINV_RCOND = 1e-15    # np.linalg.pinv's default cutoff
_GRAM_COST = 8         # a fixed-order frame may use its Gram when this * (k + 1) <= N
_GRAM_MARGIN = 1e-4    # the Gram's squared rounding bound, relative to the k-pole residual
_EPS = float(np.finfo(np.float64).eps)
_COND_WARN = 1e12
_LOG_RANGE = 600.0     # |delta| * frame_len ceiling; exp(600) stays finite in float64
ESPRIT_BLOCK = 1 << 16  # elements per stack: Hankel matrices in analysis, samples in synthesis


class EDSMFrame(NamedTuple):
    """One frame of an EDSMFrames record; components is a (C, 4) view."""

    start: int
    length: int
    k_eff: int
    components: np.ndarray


@dataclass(frozen=True, eq=False)
class EDSMFrames(FrameRecord):
    """The damped sinusoids of non-overlapping frames, as a FrameRecord.

    A component's row (freq_hz, amp, phase, delta) renders as
    amp * exp(delta*n) * cos(2*pi*freq_hz/fs*n + phase), n counted from its
    frame's start; a frame's rows ascend in frequency, louder first.  Frame i
    spans samples start[i] to start[i] + length[i] - 1 and kept order
    k_eff[i] (0 without components).  Iterating gives EDSMFrame views.
    """

    start: np.ndarray   # n_frames ints, ascending
    length: np.ndarray
    k_eff: np.ndarray

    delta = property(lambda self: self.values[3])

    def __post_init__(self):
        if (self.amp < 0).any():
            raise UsageError("component amplitudes must be >= 0")
        if self.start.shape[0] and not (self.start[0] >= 0 and (self.length > 0).all() and (
                self.start[1:] >= self.start[:-1] + self.length[:-1]).all()):
            raise UsageError("frames must start at sample >= 0, be non-empty and not overlap")

    def __getitem__(self, i: int) -> EDSMFrame:
        i = range(len(self))[i]
        return EDSMFrame(int(self.start[i]), int(self.length[i]), int(self.k_eff[i]),
                         super().__getitem__(i))

    @classmethod
    def from_frames(cls, frames) -> EDSMFrames:
        """The record of (start, length, k_eff, components) frames, each
        frame's components as rows (freq_hz, amp, phase, delta)."""
        frames = list(frames)
        rows = [np.asarray(fr[3], dtype=np.float64).reshape(-1, 4) for fr in frames]
        start, length, k_eff = np.array([fr[:3] for fr in frames],
                                        dtype=np.int64).reshape(-1, 3).T
        return cls(offsets=np.cumsum([0] + [r.shape[0] for r in rows]),
                   values=np.concatenate([np.empty((0, 4))] + rows).T.copy(),
                   start=start, length=length, k_eff=k_eff)


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
        check_count("window_samples", self.window_samples, 4)
        if self.order is not None:
            for k in [self.order] if np.isscalar(self.order) else self.order:
                check_count("order", k, 1)
        if not 0.0 <= self.rank_rtol <= 1.0:
            raise UsageError(f"rank_rtol must be in [0, 1], got {self.rank_rtol!r}")


# ---------------------------------------------------------------------------
# estimation stages
# ---------------------------------------------------------------------------

def esprit_poles(frames: np.ndarray, k_max: np.ndarray,
                 rank_rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """ESPRIT on each row of frames (g x L, none all-zero) with order cap
    k_max[i]: poles from the shift invariance of the top right singular
    vectors of each frame's Hankel matrix X with L//2 = N columns.

    A frame of a fixed-order block (rank_rtol == 0, so k_eff = k_max and no
    singular value is read) takes its k basis vectors from the k + 1 largest
    eigenpairs of the Gram X'X (one stacked syrk, then one dsyevr per frame)
    when that is cheaper, _GRAM_COST * (k + 1) <= N, and accurate enough: the
    Gram's rounding bound theta = N eps l_1 / (l_k - l_{k+1}) has theta^2 at
    most _GRAM_MARGIN times the residual (trace - l_1 - ... - l_k) / trace the
    k-pole fit leaves, and |u|^2 <= 1/2 (see _shift_matrices).  Every other
    frame gets the block's one stacked SVD.  Then one stacked shift solve and
    eigvals per group of frames with equal kept order and basis kind.  numpy
    runs the LAPACK and BLAS routine of a lone matrix on each matrix of a
    stack, so each frame's poles are those of a call on that frame alone.

    Returns k_eff, the order kept after dropping singular values below
    rank_rtol times the largest (at most k_max), and g x max(k_eff) poles:
    row i holds its k_eff[i] poles ordered by angle, then magnitude, then NaN.
    """
    length = frames.shape[1]
    n = length // 2
    X = _kernels.hankel_build(frames, length - n + 1, n)
    k_eff = np.array(k_max, dtype=np.int64)
    bases = _gram_bases(X, k_eff) if rank_rtol == 0.0 else {}
    by_gram = np.fromiter(bases, dtype=np.int64, count=len(bases))
    by_svd = np.setdiff1d(np.arange(frames.shape[0]), by_gram)
    groups = [(rows, np.stack([bases[i] for i in rows.tolist()]))
              for rows in _by_order(by_gram, k_eff)]
    if by_svd.shape[0]:
        # the R >= N + 1 rows outnumber the N columns, so the thin vh is N x N
        _, s, vh = np.linalg.svd(X[by_svd] if bases else X, full_matrices=False)
        k_eff[by_svd] = np.minimum(np.count_nonzero(s >= rank_rtol * s[:, :1], axis=1),
                                   k_eff[by_svd])
        groups += [(rows, vh[np.searchsorted(by_svd, rows)]) for rows in _by_order(by_svd, k_eff)]
    poles = np.full((frames.shape[0], k_eff.max(initial=0)), np.nan, dtype=np.complex128)
    for rows, vh in groups:
        k = int(k_eff[rows[0]])
        z = np.linalg.eigvals(_shift_matrices(vh, k))
        poles[rows, :k] = np.take_along_axis(
            z, np.lexsort((np.abs(z), np.angle(z)), axis=-1), axis=-1)
    return k_eff, poles


def _by_order(rows: np.ndarray, k_eff: np.ndarray):
    """The frames among rows with equal k_eff, one array per k_eff > 0."""
    for k in np.unique(k_eff[rows]).tolist():
        if k > 0:
            yield rows[k_eff[rows] == k]


def _gram_bases(X: np.ndarray, k_max: np.ndarray) -> dict:
    """{frame: k x N top eigenvectors of its Gram X'X, largest first} for the
    frames of a fixed-order stack (k = k_max) whose Gram is cheaper than the
    SVD and accurate enough (see esprit_poles)."""
    n = X.shape[2]
    cand = np.flatnonzero(_GRAM_COST * (k_max + 1) <= n)
    xs = X[cand]
    bases = {}
    for i, gram in zip(cand.tolist(), xs.swapaxes(1, 2) @ xs):  # same-buffer matmul: syrk
        k = int(k_max[i])
        # the k + 1 largest eigenpairs, ascending; a failed solve leaves the frame to the SVD
        lam, vecs, _, _, info = dsyevr(gram, range="I", il=n - k, iu=n)
        top, lam = vecs[:, :0:-1].T, lam[k::-1].tolist()
        trace = float(np.trace(gram))
        gap = lam[k - 1] - lam[k]
        if (info == 0 and gap > 0.0 and (n * _EPS * lam[0] / gap) ** 2 <= _GRAM_MARGIN * (
                trace - sum(lam[:k])) / trace and top[:, -1] @ top[:, -1] <= 0.5):
            bases[i] = top
    return bases


def _shift_matrices(vh: np.ndarray, k: int) -> np.ndarray:
    """ESPRIT's shift matrix Phi = pinv(V1) V2 for each stacked basis vh, in
    closed form: an N x N right singular basis, or the k x N top subspace
    alone.  V1, V2: the first and last N - 1 coordinates of V = vh[:k].  With
    u = V[:, -1] and w = vh[k:, -1], V1'V1 = I - uu' and |u|^2 + |w|^2 = 1,
    so Phi = M + u(u'M) / |w|^2, M = V[:, :-1] V[:, 1:]'.  Given the
    complement rows, u'M is formed from them, as u'V[:, :-1] =
    -w'vh[k:, :-1]: its error is then eps*|w|, not eps.  Without them u'M is
    formed directly and |w|^2 = 1 - |u|^2, which loses at most a factor
    sqrt(2) where |u|^2 <= 1/2.  Where |w| (V1's smallest singular value) is
    at most pinv's cutoff, Phi is pinv's minimum-norm M - u(u'M) / |u|^2.
    """
    v, rest = vh[:, :k], vh[:, k:]
    u = v[:, :, -1:]
    uu = u.swapaxes(1, 2) @ u
    v_next = v[:, :, 1:].swapaxes(1, 2)
    m = v[:, :, :-1] @ v_next
    if rest.shape[1]:
        w = rest[:, :, -1:]
        neg_um = (w.swapaxes(1, 2) @ rest[:, :, :-1]) @ v_next
        ww = w.swapaxes(1, 2) @ w
    else:
        neg_um, ww = -(u.swapaxes(1, 2) @ m), 1.0 - uu
    denom = np.where(ww > _PINV_RCOND ** 2, ww, -uu)
    return m - u * (neg_um / denom)


def _conjugate_split(z: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the real (Im z == 0) and upper (Im z > 0) poles among those
    kept, for g x k poles (one frame a row).  Raises UsageError unless each
    frame's kept complex poles come in exact conjugate pairs, as the
    eigenvalues of a real matrix do."""
    none = complex(np.inf, np.inf)
    up = keep & (z.imag > 0)
    if not np.array_equal(np.sort(np.where(up, z, none), axis=-1),
                          np.sort(np.where(keep & (z.imag < 0), z.conj(), none), axis=-1)):
        raise UsageError("complex poles must come in exact conjugate pairs")
    return keep & (z.imag == 0), up


def vandermonde_amplitudes(frames: np.ndarray, real: np.ndarray,
                           up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of each row of frames (g x L) on the
    columns r^n of its real poles (g x n_r), then Re z^n and Im z^n of its
    upper poles (g x n_p), each scaled by its maximum (2-norms can overflow),
    and each frame's condition estimate: one R-only QR of [columns | frame]
    for the stack, then per frame one dtrtrs on R[:K, :K] and R[:K, K].  A
    rank cutoff would drop the near-unit-circle columns that carry the fit
    when a strongly damped pole inflates the spectrum, so a degenerate or
    non-finite solve falls back to least squares without one.

    Returns (coef, cond), coef's rows (c_real, c_cos, c_sin): as complex
    amplitudes of frame = sum alpha z^n, alpha is c for a real pole and
    (c_cos - i c_sin) / 2 for z, its conjugate for conj z.
    """
    g, length = frames.shape
    n = np.arange(length, dtype=np.float64)
    env, angle = np.abs(up)[:, :, None] ** n, np.angle(up)[:, :, None] * n
    a = np.concatenate((real[:, :, None] ** n, env * np.cos(angle), env * np.sin(angle),
                        frames[:, None, :]), axis=1)
    k = a.shape[1] - 1
    scale = np.max(np.abs(a[:, :k]), axis=2)
    scale[scale == 0.0] = 1.0
    a[:, :k] /= scale[:, :, None]
    r = np.linalg.qr(a.swapaxes(1, 2), mode="r")
    d = np.abs(np.diagonal(r[:, :k, :k], axis1=1, axis2=2))
    d_min = d.min(axis=1)
    cond = np.divide(d.max(axis=1), d_min, out=np.full(g, np.inf), where=d_min != 0.0)
    coef = np.full((g, k), np.nan)
    square = r.shape[1] >= k
    for i in np.flatnonzero(square & (d_min > 0.0) & np.isfinite(r).all(axis=(1, 2))).tolist():
        coef[i] = dtrtrs(r[i, :k, :k], r[i, :k, k])[0]
    for i in np.flatnonzero(~np.isfinite(coef).all(axis=1)).tolist():
        coef[i] = np.linalg.lstsq(a[i, :k].T, a[i, k], rcond=1e-30)[0]
    return coef / scale, cond


def _warn_ill_conditioned(cond: np.ndarray) -> None:
    for c in cond[cond > _COND_WARN].tolist():
        warnings.warn(f"Vandermonde system ill-conditioned (cond={c:.3e}); "
                      "near-coincident poles", RuntimeWarning, stacklevel=3)


def _components(real: np.ndarray, c_real: np.ndarray, up: np.ndarray, c_cos: np.ndarray,
                c_sin: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (freq_hz, amp, phase, delta) of stacked frames' components from
    their nonzero real and upper poles and coefficients, and which to keep.
    A real pole is amplitude |c|, phase 0 or pi and frequency 0 or fs/2 by
    sign.  A pair is amp_phase(c_cos, c_sin) and z's damping and frequency,
    or, real within _REAL_POLE_TOL, two real components of |c_cos| / 2: its
    second one is kept after all the pairs.
    """
    mag = np.hypot(up.real, up.imag)
    near = np.abs(up.imag) <= _REAL_POLE_TOL * (1.0 + mag)

    def band_edge(re, c, r_mag):
        return (np.where(re >= 0, 0.0, fs / 2.0), np.abs(c), np.where(c >= 0, 0.0, np.pi),
                np.log(r_mag))

    pair = (np.angle(up) * fs / TWO_PI, *amp_phase(c_cos, c_sin), np.log(mag))
    split = band_edge(up.real, c_cos / 2.0, mag)
    rows = np.stack([np.concatenate((r, np.where(near, s, p), s), axis=1) for r, p, s in
                     zip(band_edge(real, c_real, np.abs(real)), pair, split)], axis=-1)
    keep = np.concatenate((np.ones(real.shape, dtype=bool), np.ones_like(near), near), axis=1)
    return rows, keep


# ---------------------------------------------------------------------------
# frame-based analysis / synthesis
# ---------------------------------------------------------------------------

def _frame_orders(order, n_frames: int) -> np.ndarray:
    if order is None:
        raise UsageError("EDSM needs an order: an int or a per-frame sequence")
    orders = np.array([order] * n_frames if np.isscalar(order) else order, dtype=np.int64)
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


def edsm_analyze(signal: SampledSignal, config: EDSMConfig) -> EDSMFrames:
    """Analyze non-overlapping rectangular frames into damped sinusoids.

    Per frame the requested sinusoid count k is doubled into an exponential
    order and capped by the frame's own Hankel capacity min(N, R) - 1 so the
    shift-invariance structure stays valid; the rank threshold may lower it
    further.  The trailing partial frame is analyzed at its reduced length
    under its own capacity; only a tail too short to carry even one pole
    pair is zero-padded up to the minimum workable length.  A block of
    equal-length frames shares one esprit_poles call, and its frames with
    equal renderable real and upper pole counts share one
    vandermonde_amplitudes call.
    """
    x = signal.samples
    n = x.shape[0]
    w = config.window_samples
    starts = np.arange(0, n, w)
    orders = _frame_orders(config.order, starts.shape[0])
    lengths = np.minimum(w, n - starts)
    k_kept = np.zeros(starts.shape[0], dtype=np.int64)
    cond = np.zeros(starts.shape[0])
    frame_of, rows = [np.empty(0, dtype=np.int64)], [np.empty((0, 4))]
    for length in sorted(set(lengths.tolist()), reverse=True):
        seg_len = max(length, 8)
        n_cols = seg_len // 2
        k_cap = min(n_cols, seg_len - n_cols + 1) - 1
        bound = _LOG_RANGE / max(seg_len - 1, 1)
        same = np.flatnonzero(lengths == length)
        step = max(1, ESPRIT_BLOCK // ((seg_len - n_cols + 1) * n_cols))
        for block in np.array_split(same, range(step, same.shape[0], step)):
            segs = np.zeros((block.shape[0], seg_len))
            segs[:, :length] = x[starts[block, None] + np.arange(length)]
            live = np.flatnonzero(np.any(segs, axis=1))
            k_eff, z = esprit_poles(segs[live], np.minimum(2 * orders[block[live]], k_cap),
                                    config.rank_rtol)
            mag = np.abs(z)
            # keep poles renderable over this frame; NaN pads are not
            real, up = _conjugate_split(
                z, (mag > 0) & (np.abs(np.log(np.maximum(mag, 1e-300))) <= bound))
            counts = np.stack((real.sum(axis=1), up.sum(axis=1)), axis=1)
            for n_real, n_up in np.unique(counts[counts.any(axis=1)], axis=0).tolist():
                sub = np.flatnonzero((counts == (n_real, n_up)).all(axis=1))
                at, g = live[sub], sub.shape[0]
                r, u = z[sub][real[sub]].real.reshape(g, n_real), z[sub][up[sub]].reshape(g, n_up)
                coef, cond[block[at]] = vandermonde_amplitudes(segs[at], r, u)
                comps, keep = _components(r, coef[:, :n_real], u, coef[:, n_real:n_real + n_up],
                                          coef[:, n_real + n_up:], signal.fs)
                k_kept[block[at]] = k_eff[sub]
                frame_of.append(np.broadcast_to(block[at, None], keep.shape)[keep])
                rows.append(comps[keep])
    _warn_ill_conditioned(cond)
    frame_of, rows = np.concatenate(frame_of), np.concatenate(rows)
    order = np.lexsort((-rows[:, 1], rows[:, 0], frame_of))
    return EDSMFrames(
        offsets=np.concatenate(([0], np.cumsum(np.bincount(frame_of,
                                                           minlength=starts.shape[0])))),
        values=rows[order].T.copy(), start=starts, length=lengths, k_eff=k_kept)


def edsm_synthesize(frames: EDSMFrames, n_samples: int, fs: float) -> np.ndarray:
    """Concatenative resynthesis; each frame is rendered over its own support.

    Frames of equal rendered length and component count are rendered as
    (g, C, L) arrays of at most ESPRIT_BLOCK samples, summed over components
    in order.  Damping is clamped so exp(delta * n) stays finite.
    """
    n_samples = int(n_samples)
    out = np.zeros(n_samples, dtype=np.float64)
    span = np.minimum(frames.start + frames.length, n_samples) - frames.start
    count = np.diff(frames.offsets)
    shape = np.stack((span, count), axis=1)
    for length, c in np.unique(shape[(span > 0) & (count > 0)], axis=0).tolist():
        same = np.flatnonzero((shape == (length, c)).all(axis=1))
        n = np.arange(length, dtype=np.float64)
        bound = _LOG_RANGE / max(length - 1, 1)
        step = max(1, ESPRIT_BLOCK // (c * length))
        for part in np.array_split(same, range(step, same.shape[0], step)):
            freq, amp, phase, delta = frames.values[:, frames.offsets[part, None] + np.arange(c),
                                                    None]
            terms = (amp * np.exp(np.clip(delta, -bound, bound) * n)
                     * np.cos(TWO_PI * freq / fs * n + phase))
            seg = np.zeros((part.shape[0], length))
            for term in terms.swapaxes(0, 1):  # each component's samples, in order
                seg += term
            out[frames.start[part, None] + np.arange(length)] = seg
    return out
