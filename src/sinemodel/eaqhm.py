"""Extended adaptive quasi-harmonic analysis.

Each frame is fit by weighted least squares against time-modulated basis
functions psi_k(t) = amp_k(t) * exp(i*phase_k(t)) together with their
slope-carrying twins t * psi_k(t); the complex pair (a_k, b_k) then yields a
frequency-mismatch correction eta_k.  Analysis alternates between solving
frames against the basis sampled from the current partial tracks and
re-anchoring the tracks from the solutions, keeping the best-SRER iterate.

The fit of the real target is two-sided: every component k=1..m is paired
with its conjugate, and DC is added.  That mirrored complex fit is
conjugate-symmetric, so it is solved as the real design
[1 | A cos | A sin | t | t A cos | t A sin] (Pantazis, Rosec & Stylianou
2011) at a quarter of the flops, and mapped back by a_0 = c_0 and
a_k = (c_k - i s_k) / 2, likewise for b.

Basis columns are normalized per frame: amplitude is divided by its value
at the frame center and phase is zeroed there, so |a_k| and arg(a_k) are
directly the frame-center amplitude and phase anchors.  The LS time
variable is in seconds, which makes eta_k come out in Hz.  Each iterate's
tracks are sampled once, one sample_track per track: that gives the
iterate's synthesis (for its SRER), C = (A+eps) cos(phase) and
S = (A+eps) sin(phase) over the signal, and the track values at every frame
center.  A frame's columns are its C and S rows rotated by the frame-center
phase, so no frame evaluates cos or sin of its own phase block.

Frames are solved in stacked blocks.  Frames with the same sample offsets
from their center and the same component count (hence the same width, time
axis, window and column count) form a group, cut into blocks of at most
FRAME_BLOCK design elements.  A block's designs are one frame-interleaved
(n, G, q) view at the start of one buffer per loop (frame g's sample i is row
i*G + g), so element-wise steps run over G*q contiguous values, and ls_solve
works inside it.  Gathering the C and S rows, rotation, the design's DC and
slope columns, and every step of ls_solve but each frame's Cholesky factor,
condition estimate and triangular solve run on the whole block; each frame's
result is bitwise that of solving it alone.  The frame layout, eligibility,
rotation factors and the coefficient-to-anchor mapping are array passes over
all frames.  Every frame system is a few hundred samples wide, so the block
loops of init_harmonic and of each adaptation pass run on single-threaded
OpenBLAS (see _blas) and restore the previous thread count afterwards.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import _kernels
from ._blas import single_threaded_blas
from .core import (PartialTrack, SampledSignal, hop_samples, make_window, render_spans,
                   sample_track, srer, wrap_phase)
# adapt renders its iterates itself; the name stays bound here because
# perfbench's tracer rebinds eaqhm.synthesize_tracks
from .core import synthesize_tracks  # noqa: F401
from .errors import AnalysisError, IllConditionedError, UsageError
from .pitch import F0Track

_POTRF, _POCON, _POTRS = get_lapack_funcs(("potrf", "pocon", "potrs"),
                                          dtype=np.float64)

_AMP_EPS = 1e-10  # guards the per-frame center normalization of dead partials
SRER_THRESHOLD_DB = 0.1    # adaptation stops once an iterate improves by less
SRER_CEILING_DB = 150.0    # past this, the residual is numerical noise
COND_BOUND = 1e10          # on the real normal matrix of a frame fit
NYQUIST_MARGIN_HZ = 200.0  # partials stay this far below fs/2
COL_RATIO = 2.0 / 3.0      # LS columns capped at this fraction of the frame
ADAPT_WINDOW_KIND = "hamming"
_NORM_BLOCK = 8192         # squares per block of rows in ls_solve's column norms
FRAME_BLOCK = 65536        # design elements per block of frames solved together


@dataclass(frozen=True)
class EaQHMConfig:
    hop_ms: float = 1.0
    window_periods: float = 3.0      # pitch-adaptive window span, local f0 periods
    window_samples: int = None       # fixed window (overrides window_periods)
    init_window_kind: str = "blackman"
    max_partials: int = None         # None: full band from the local f0
    max_adaptations: int = 10
    f_guard_hz: float = None         # conditioning guard; None: local f0

    def __post_init__(self):
        if self.max_adaptations < 0:
            raise UsageError("max_adaptations must be >= 0")
        if self.window_samples is None and not 0 < self.window_periods < np.inf:
            raise UsageError(f"window_periods must be positive and finite, "
                             f"got {self.window_periods}")


@dataclass
class AdaptationState:
    iteration: int
    srer_history: list[float] = field(default_factory=list)
    tracks: list[PartialTrack] = field(default_factory=list)


# ---------------------------------------------------------------------------
# least-squares machinery
# ---------------------------------------------------------------------------

def ls_solve(e: np.ndarray, window: np.ndarray,
             target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted LS solves of target ~ E [a; b] via the normal equations, for
    one or more frames interleaved row by row.

    E is a real float64 (n*G, q) design, n = len(window): frame g's sample i
    is row i*G + g of E and of the (n*G,) target (the frame fits pass the
    real mirrored design).  Returns a and b, each (G, q/2), and cond, (G,):
    LAPACK's condition estimate of each frame's normal matrix.  A frame is
    solved exactly when its cond <= COND_BOUND; the others (more columns
    than samples, not positive definite, or past the bound) have cond inf or
    above the bound and NaN rows in a and b.

    E is overwritten: it is weighted and equilibrated in place and then holds
    scratch, so the solve copies no normal matrix and E only when q = 2.
    Columns are equilibrated to unit norm first (exact algebra, keeps the
    condition check about basis structure, not units).  Every step but the
    Cholesky factor, its condition estimate and its solve runs on all G frames
    at once, and each frame's result is bitwise that of solving it alone.
    """
    if not (isinstance(e, np.ndarray) and e.dtype == np.float64 and e.ndim == 2):
        raise UsageError("ls_solve takes a real float64 design matrix")
    w = np.asarray(window, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    rows, q = e.shape
    n = w.shape[0]
    if w.ndim != 1 or n == 0 or rows % n or y.shape != (rows,) or q % 2:
        raise UsageError("ls_solve takes an (n*G, q) design with even q, an (n,) "
                         "window and an (n*G,) target")
    g, half = rows // n, q // 2
    coef = np.full((g, q), np.nan)
    cond = np.full(g, np.inf)
    if n < q:
        return coef[:, :half], coef[:, half:], cond
    e3 = e.reshape(n, g, q)
    e3 *= w[:, None, None]
    yw = np.multiply(y.reshape(n, g).T, w, out=np.empty((g, n)))[:, :, None]
    scale = _column_norms(e3)
    scale[scale == 0.0] = 1.0
    e3 /= scale
    frames, et = e3.transpose(1, 0, 2), e3.transpose(1, 2, 0)
    r = np.matmul(et, frames)
    # OpenBLAS's gemv sums a contiguous two-column frame in an order of its
    # own, so a q = 2 stack (DC and slope only) multiplies contiguous frames
    rhs = np.matmul(et if q > 2 else np.ascontiguousarray(frames).transpose(0, 2, 1), yw)
    # E is dead now: it takes |r| for pocon's 1-norm, and potrf factors each
    # r in place (r is symmetric, so r.T is the Fortran-order matrix LAPACK
    # takes)
    abs_r = np.abs(r, out=e.reshape(-1)[:g * q * q].reshape(g, q, q))
    anorm = np.max(np.add.reduce(abs_r, axis=1), axis=1)
    for i in range(g):
        chol, info = _POTRF(r[i].T, lower=1, overwrite_a=1)
        if info != 0:
            continue
        rcond, info = _POCON(chol, anorm[i], uplo=b"L")
        if info == 0 and rcond != 0.0:
            cond[i] = 1.0 / float(rcond)
        if not cond[i] <= COND_BOUND:
            continue
        sol, info = _POTRS(chol, rhs[i], lower=1)
        if info != 0:
            cond[i] = np.inf
            continue
        coef[i] = sol[:, 0]
    coef /= scale
    return coef[:, :half], coef[:, half:], cond


def _column_norms(e: np.ndarray) -> np.ndarray:
    """np.linalg.norm(e[:, g], axis=0) of every frame g of an (n, G, q)
    stack, as (G, q), bit for bit: each column's squares are summed down the
    rows in order.  The squares are formed a block of rows at a time, never
    for all of e at once, one reduction serving every frame; each block is
    reduced below the running sums, which keeps the order."""
    n, g, q = e.shape
    rows = max(1, _NORM_BLOCK // max(g * q, 1))
    scratch = np.empty((rows + 1, g, q))
    out = np.square(e[0])
    for i in range(1, n, rows):
        k = min(rows, n - i)
        scratch[0] = out
        np.square(e[i:i + k], out=scratch[1:k + 1])
        np.add.reduce(scratch[:k + 1], axis=0, out=out)
    return np.sqrt(out, out=out)


def freq_correction(a, b):
    """Frequency-mismatch estimate (Re a Im b - Im a Re b) / (2 pi |a|^2), Hz.

    With the frame time axis in seconds this is directly the correction to
    add to the component's frequency.  Components with |a| = 0 get 0.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    den = np.abs(a) ** 2
    num = a.real * b.imag - a.imag * b.real
    out = np.divide(num, 2.0 * np.pi * den, out=np.zeros_like(num),
                    where=den > 0)
    if np.isscalar(a) or out.ndim == 0:
        return float(out)
    return out


def _mirrored(cos_coef: np.ndarray, sin_coef: np.ndarray) -> np.ndarray:
    """Complex amplitudes (c_k - i s_k) / 2 of components k >= 1 from their
    cos and sin coefficients in the real design."""
    return (cos_coef - 1j * sin_coef) / 2.0


def _complete_design(e: np.ndarray, cols: np.ndarray, t: np.ndarray) -> None:
    """Fill the (n, G, q) design stack e = [1 | A cos | A sin | t | t A cos |
    t A sin] from cols, its (G, q, n) transpose with the cos and sin rows set:
    cols gets its DC and slope rows, then e is copied from it in one pass."""
    p = cols.shape[1] // 2
    cols[:, 0], cols[:, p] = 1.0, t
    np.multiply(cols[:, 1:p], t, out=cols[:, p + 1:])
    e[...] = cols.transpose(2, 0, 1)


def _rotation_factors(amp_c: np.ndarray,
                      phase_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(phase_c) / (A_c + eps) and sin(phase_c) / (A_c + eps), the
    factors _rotate_into turns C and S rows with."""
    g = 1.0 / (amp_c + _AMP_EPS)
    return np.cos(phase_c) * g, np.sin(phase_c) * g


def _rotate_into(cols: np.ndarray, c_rows: np.ndarray, s_rows: np.ndarray,
                 cc: np.ndarray, sc: np.ndarray) -> None:
    """Write the (A+eps)/(A_c+eps) cos(phase - phase_c) columns of a stack
    of frames and their sin twins into the cos and sin rows of cols, the
    (G, q, n) transpose of their designs.

    c_rows and s_rows are the frames' (G, m, n) samples of C = (A+eps)
    cos(phase) and S = (A+eps) sin(phase), one row per component; cc and sc
    are the (G, m, 1) _rotation_factors at the frame centers.  By angle
    addition the columns are C cc + S sc and S cc - C sc, formed row by row;
    c_rows is overwritten."""
    m = cc.shape[-2]
    cos, sin = cols[:, 1:m + 1], cols[:, m + 1:2 * m + 1]
    np.multiply(c_rows, cc, out=cos)
    cos += np.multiply(s_rows, sc, out=sin)
    np.multiply(s_rows, cc, out=sin)
    sin -= np.multiply(c_rows, sc, out=c_rows)


# ---------------------------------------------------------------------------
# frame layout and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Layout:
    """Every analysis frame of a signal, in center order: its center and
    first and last samples, its local f0 and its column budget."""

    center: np.ndarray    # int64
    lo: np.ndarray        # int64
    hi: np.ndarray        # int64
    f0: np.ndarray        # float64, Hz
    k_budget: np.ndarray  # int64

    def __len__(self) -> int:
        return self.center.shape[0]


def _frame_layout(n: int, fs: float, f0track: F0Track,
                  config: EaQHMConfig) -> _Layout:
    """A frame every hop whose center is voiced, whose window (clipped to
    the signal) spans two periods of the guard frequency, and whose column
    budget is at least one component."""
    center = np.arange(0, n, hop_samples(config.hop_ms, fs), dtype=np.int64)
    f0 = f0track.f0_at(center / fs)
    voiced = f0 > 0
    center, f0 = center[voiced], f0[voiced]
    if config.window_samples is not None:
        w = np.full(center.shape, int(config.window_samples), dtype=np.int64)
    else:
        w = np.rint(config.window_periods * fs / f0).astype(np.int64)
    half = (w | 1) // 2  # even windows grow by one sample
    lo = np.maximum(center - half, 0)
    hi = np.minimum(center + half, n - 1)
    w_eff = hi - lo + 1
    guard_f = f0 if config.f_guard_hz is None else config.f_guard_hz
    k_budget = ((COL_RATIO * w_eff / 2.0 - 1.0) // 2).astype(np.int64)
    keep = ~(w_eff < 2.0 * fs / guard_f) & (k_budget >= 1)
    return _Layout(center=center[keep], lo=lo[keep], hi=hi[keep], f0=f0[keep],
                   k_budget=k_budget[keep])


@dataclass(frozen=True)
class _Block:
    """Frames solved together: they share their sample offsets from the
    center (so their width, time axis and window) and their component count."""

    frames: np.ndarray  # frame indices, in center order
    lo: int             # first sample, relative to the center
    n: int              # samples per frame
    m: int              # components per frame

    @property
    def g(self) -> int:
        return self.frames.shape[0]

    @property
    def q(self) -> int:
        return 2 * (2 * self.m + 1)


def _blocks(layout: _Layout, frames: np.ndarray, counts: np.ndarray) -> list[_Block]:
    """The given frames grouped by (lo - center, hi - center, component
    count), each group cut into blocks of at most FRAME_BLOCK design elements
    (and at least one frame)."""
    lo = layout.lo[frames] - layout.center[frames]
    hi = layout.hi[frames] - layout.center[frames]
    m = counts[frames]
    order = np.lexsort((m, hi, lo))
    keys = np.stack((lo, hi, m))[:, order]
    # a group starts at the first frame and wherever the key changes
    starts = np.flatnonzero(np.r_[order.size > 0, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    out = []
    for s0, s1 in zip(starts.tolist(), [*starts[1:].tolist(), order.shape[0]]):
        lo_k, hi_k, m_k = keys[:, s0].tolist()
        n = hi_k - lo_k + 1
        per = max(1, FRAME_BLOCK // (n * 2 * (2 * m_k + 1)))
        group = frames[order[s0:s1]]
        out.extend(_Block(frames=group[i:i + per], lo=lo_k, n=n, m=m_k)
                   for i in range(0, group.shape[0], per))
    return out


class _BlockBuffers:
    """One set of buffers for a loop over blocks, sized for its largest
    block; each call hands out C-contiguous views at their starts."""

    def __init__(self, blocks: list[_Block], fs: float, window_kind: str):
        size = max((b.g * b.n for b in blocks), default=0)
        design = max((b.g * b.n * b.q for b in blocks), default=0)
        cols = max((b.g * b.n * b.m for b in blocks), default=0)
        self._design, self._transposed = np.empty(design), np.empty(design)
        self._target, self._cols = np.empty(size), np.empty((2, cols))
        self._index = np.empty(cols, dtype=np.int64)
        self._fs, self._kind = fs, window_kind
        self._windows: dict = {}

    def design(self, b: _Block) -> np.ndarray:
        """The frame-interleaved (n, G, q) design of block b."""
        return self._design[:b.n * b.g * b.q].reshape(b.n, b.g, b.q)

    def transposed(self, b: _Block) -> np.ndarray:
        """A (G, q, n) scratch of block b: its frame designs transposed."""
        return self._transposed[:b.g * b.q * b.n].reshape(b.g, b.q, b.n)

    def cols(self, b: _Block, i: int, shape: tuple) -> np.ndarray:
        """The i-th of two per-component scratches of block b: G*n*m
        elements in the given shape."""
        return self._cols[i, :b.g * b.n * b.m].reshape(shape)

    def index(self, b: _Block) -> np.ndarray:
        """A (G, m, n) int64 scratch of block b."""
        return self._index[:b.g * b.n * b.m].reshape(b.g, b.m, b.n)

    def target(self, x: np.ndarray, layout: _Layout, b: _Block) -> np.ndarray:
        """x over each frame of block b, interleaved as the design's rows."""
        rows = layout.center[b.frames] + b.lo + np.arange(b.n)[:, None]
        return np.take(x, rows, out=self._target[:rows.size].reshape(rows.shape),
                       mode="clip").reshape(-1)

    def times(self, b: _Block) -> np.ndarray:
        """The block's LS time axis in seconds."""
        return np.arange(b.lo, b.lo + b.n) / self._fs

    def window(self, b: _Block) -> np.ndarray:
        w = self._windows.get(b.n)
        if w is None:
            w = self._windows[b.n] = make_window(self._kind, b.n)
        return w


# ---------------------------------------------------------------------------
# initialization and adaptation
# ---------------------------------------------------------------------------

def init_harmonic(signal: SampledSignal, f0track: F0Track,
                  config: EaQHMConfig = EaQHMConfig()) -> list[PartialTrack]:
    """Initial tracks from per-frame stationary-harmonic LS fits at k*f0.

    Anchors carry (2|a_k|, k*f0_local, arg a_k) per solved frame.
    Ill-conditioned frames are skipped with a warning; failing every frame
    is an error.
    """
    if not f0track.any_voiced:
        raise AnalysisError("cannot initialize harmonics: no voiced frames")
    x = signal.samples
    fs = signal.fs
    layout = _frame_layout(x.shape[0], fs, f0track, config)
    if not len(layout):
        # the window guard is a conditioning bound: surface it as such
        raise IllConditionedError(
            "no analysis frame satisfies the two-period window-length guard",
            float("inf"))
    band = ((fs / 2.0 - NYQUIST_MARGIN_HZ) / layout.f0).astype(np.int64)
    if config.max_partials is not None:
        band = np.minimum(band, config.max_partials)
    k_maxes = np.minimum(band, layout.k_budget)
    harmonics = np.arange(1, max(0, int(k_maxes.max())) + 1, dtype=np.float64)
    # cos and sin coefficients per (frame, harmonic); NaN where none was solved
    cos_coef = np.full((len(layout), harmonics.shape[0]), np.nan)
    sin_coef = np.full_like(cos_coef, np.nan)
    blocks = _blocks(layout, np.flatnonzero(k_maxes >= 1), k_maxes)
    bufs = _BlockBuffers(blocks, fs, config.init_window_kind)
    omega = 2.0 * np.pi * layout.f0
    skipped = 0
    with single_threaded_blas():
        for b in blocks:
            k = b.m
            e, t, cols = bufs.design(b), bufs.times(b), bufs.transposed(b)
            phase = bufs.cols(b, 0, (b.g, k, b.n))
            np.multiply((omega[b.frames][:, None] * t)[:, None], harmonics[:k, None], out=phase)
            np.cos(phase, out=cols[:, 1:k + 1])
            np.sin(phase, out=cols[:, k + 1:2 * k + 1])
            _complete_design(e, cols, t)
            c, _, cond = ls_solve(e.reshape(-1, b.q), bufs.window(b), bufs.target(x, layout, b))
            # the rows of frames not solved are NaN, which the coefficients hold already
            skipped += int(np.count_nonzero(~(cond <= COND_BOUND)))
            cos_coef[b.frames, :k] = c[:, 1:k + 1]
            sin_coef[b.frames, :k] = c[:, k + 1:]
    if skipped:
        warnings.warn(f"harmonic initialization skipped {skipped} ill-conditioned "
                      f"frame(s) of {len(layout)}", RuntimeWarning, stacklevel=2)
    a = _mirrored(cos_coef, sin_coef)
    amps = 2.0 * np.abs(a)
    phases = np.angle(a)
    times = layout.center / fs
    tracks: list[PartialTrack] = []
    for k in range(amps.shape[1]):
        keep = ~np.isnan(amps[:, k])
        if keep.any():
            tracks.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                       freqs=(k + 1) * layout.f0[keep],
                                       phases=phases[keep, k]))
    if not tracks:
        raise AnalysisError("harmonic initialization failed on every frame")
    return tracks


@dataclass
class _Sampled:
    """An iterate's tracks sampled over the signal: C = (A+eps) cos(phase)
    and S = (A+eps) sin(phase) with one row per track (so a frame's samples
    of a track are one contiguous run), and amplitude, frequency and phase at
    every frame center with one row per frame."""

    c_rows: np.ndarray  # (n_tracks, n)
    s_rows: np.ndarray
    amp_c: np.ndarray   # (n_frames, n_tracks)
    freq_c: np.ndarray
    phase_c: np.ndarray


def _render(tracks: list[PartialTrack], fs: float, n: int,
            centers: np.ndarray) -> tuple[np.ndarray, _Sampled]:
    """An iterate's synthesis and its _Sampled tracks, from one sample_track
    per track over the whole signal.

    The synthesis is synthesize_tracks' own: each track, in order, adds over
    its render_spans range.  A track whose range is not the whole signal (a
    zero-amplitude end anchor) is sampled again over that range, because a
    sample's phase depends on the requested range in its last bits.
    """
    n_tracks = len(tracks)
    synth = np.zeros(n)
    sampled = _Sampled(c_rows=np.empty((n_tracks, n)), s_rows=np.empty((n_tracks, n)),
                       amp_c=np.empty((centers.shape[0], n_tracks)),
                       freq_c=np.empty((centers.shape[0], n_tracks)),
                       phase_c=np.empty((centers.shape[0], n_tracks)))
    lo, hi = render_spans(tracks, n, fs)
    for k, (tr, r0, r1) in enumerate(zip(tracks, lo.tolist(), hi.tolist())):
        amp, freq, phase = sample_track(tr, fs, 0, n - 1)
        if (r0, r1) == (0, n - 1):
            _kernels.accumulate_cosine(synth, 0, amp, phase)
        elif r1 >= r0:
            amp_r, _, phase_r = sample_track(tr, fs, r0, r1)
            _kernels.accumulate_cosine(synth, r0, amp_r, phase_r)
        sampled.amp_c[:, k] = amp[centers]
        sampled.freq_c[:, k] = freq[centers]
        sampled.phase_c[:, k] = phase[centers]
        amp += _AMP_EPS
        np.multiply(amp, np.cos(phase), out=sampled.c_rows[k])
        np.multiply(amp, np.sin(phase), out=sampled.s_rows[k])
    return synth, sampled


def _adaptation_pass(x: np.ndarray, fs: float, tracks: list[PartialTrack],
                     sampled: _Sampled, layout: _Layout,
                     config: EaQHMConfig) -> list[PartialTrack]:
    """Re-fit every frame against the sampled tracks and re-anchor them.

    A frame fits the tracks below the Nyquist margin, lowest center
    frequency first, up to its column budget.  An ill-conditioned frame
    keeps the previous iterate's values; a track no frame fits is carried
    unchanged.  The pass consumes sampled's C and S rows: it drops them once
    the frames are solved.
    """
    n_frames, n_tracks = sampled.freq_c.shape
    budget = layout.k_budget
    if config.max_partials is not None:
        budget = np.minimum(budget, config.max_partials)
    # a frame's eligible tracks are the first `count` of its frequency order
    order = np.argsort(sampled.freq_c, axis=1, kind="stable")
    below = sampled.freq_c < fs / 2.0 - NYQUIST_MARGIN_HZ
    count = np.minimum(np.count_nonzero(below, axis=1), budget)
    fitted = np.flatnonzero(count)
    cc, sc = _rotation_factors(sampled.amp_c, sampled.phase_c)
    blocks = _blocks(layout, fitted, count)
    bufs = _BlockBuffers(blocks, fs, ADAPT_WINDOW_KIND)
    # cos and sin coefficients of a, then of b, per (frame, track)
    coef = np.full((4, n_frames, n_tracks), np.nan)
    ill = np.zeros(n_frames, dtype=bool)
    with single_threaded_blas():
        for b in blocks:
            m, frames = b.m, b.frames[:, None]
            idx = order[b.frames, :m]
            # flat index of (track, sample) in the C and S rows
            at = np.add((idx * x.shape[0] + layout.center[frames] + b.lo)[:, :, None],
                        np.arange(b.n), out=bufs.index(b))
            c_rows = np.take(sampled.c_rows, at, out=bufs.cols(b, 0, at.shape), mode="clip")
            s_rows = np.take(sampled.s_rows, at, out=bufs.cols(b, 1, at.shape), mode="clip")
            cols = bufs.transposed(b)
            _rotate_into(cols, c_rows, s_rows, cc[frames, idx][..., None], sc[frames, idx][..., None])
            e = bufs.design(b)
            _complete_design(e, cols, bufs.times(b))
            c, d, cond = ls_solve(e.reshape(-1, b.q), bufs.window(b), bufs.target(x, layout, b))
            # a's cos and sin coefficients, then b's; the rows of frames not
            # solved are NaN, which coef holds already
            solved = np.stack((c[:, 1:], d[:, 1:]), axis=1).reshape(-1, 4, m)
            coef[:, frames, idx] = solved.transpose(1, 0, 2)
            ill[b.frames] = ~(cond <= COND_BOUND)
    if ill[fitted].all():
        raise AnalysisError("adaptation pass failed on every frame")
    # the rows are the bulk of sampled: release them before the mapping
    sampled.c_rows = sampled.s_rows = None
    a = _mirrored(coef[0], coef[1])
    half_f0 = layout.f0[:, None] / 2.0
    eta = np.clip(freq_correction(a, _mirrored(coef[2], coef[3])), -half_f0, half_f0)
    # new anchors per (frame, track); NaN where the track was not fitted
    amps = 2.0 * np.abs(a)
    freqs = np.clip(sampled.freq_c + eta, 1.0, fs / 2.0 - 1.0)
    phases = np.angle(a)
    # an ill-conditioned frame keeps the previous iterate's values
    kept = np.zeros_like(ill, shape=amps.shape)
    np.put_along_axis(kept, order, (np.arange(n_tracks) < count[:, None]) & ill[:, None],
                      axis=1)
    amps[kept] = sampled.amp_c[kept]
    freqs[kept] = sampled.freq_c[kept]
    phases[kept] = wrap_phase(sampled.phase_c[kept])
    times = layout.center / fs
    out: list[PartialTrack] = []
    for k, tr in enumerate(tracks):
        keep = ~np.isnan(amps[:, k])
        if not keep.any():
            out.append(tr)  # never eligible this pass; carry unchanged
            continue
        out.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                freqs=freqs[keep, k], phases=phases[keep, k]))
    return out


def adapt(signal: SampledSignal, tracks: list[PartialTrack], f0track: F0Track,
          config: EaQHMConfig = EaQHMConfig()) -> AdaptationState:
    """Adaptation loop: re-fit frames against the current tracks, apply the
    frequency corrections, and keep the best-SRER iterate.

    The SRER history records the initial synthesis and every improving
    iterate, so it is non-decreasing by construction; an iterate that fails
    to improve (or improves by less than the threshold) stops the loop.
    Each iterate is rendered once (_render): its synthesis gives its SRER
    and its sampled tracks feed the next pass.
    """
    x = signal.samples
    n = x.shape[0]
    fs = signal.fs
    layout = _frame_layout(n, fs, f0track, config)
    current = list(tracks)
    synth, sampled = _render(current, fs, n, layout.center)
    best_srer = srer(x, synth)
    state = AdaptationState(iteration=0, srer_history=[best_srer], tracks=current)
    if best_srer >= SRER_CEILING_DB:
        return state  # already at the double-precision noise floor
    for it in range(1, config.max_adaptations + 1):
        new_tracks = _adaptation_pass(x, fs, current, sampled, layout, config)
        del sampled  # free its frame-center values before the next render
        synth, sampled = _render(new_tracks, fs, n, layout.center)
        s = srer(x, synth)
        state.iteration = it
        if s <= best_srer:
            break
        improvement = s - best_srer
        best_srer = s
        current = new_tracks
        state.srer_history.append(s)
        state.tracks = new_tracks
        if improvement < SRER_THRESHOLD_DB or s >= SRER_CEILING_DB:
            break
    return state


def eaqhm_analyze(signal: SampledSignal, f0track: F0Track,
                  config: EaQHMConfig = EaQHMConfig()) -> AdaptationState:
    """Harmonic initialization followed by the adaptation loop."""
    return adapt(signal, init_harmonic(signal, f0track, config), f0track, config)
