"""Extended adaptive quasi-harmonic analysis.

Each frame is fit by weighted least squares against time-modulated basis
functions psi_k(t) = amp_k(t) * exp(i*phase_k(t)), k=1..m, each paired with
its conjugate, together with their slope-carrying twins t * psi_k(t) and DC.
That mirrored fit of a real target is solved as the real design
[1 | A cos | A sin | t | t A cos | t A sin] (Pantazis, Rosec & Stylianou
2011), and the anchors are read from its real coefficients: component k's
cos and sin coefficients give its amplitude and phase (core.amp_phase), and
its slope coefficients its frequency-mismatch correction eta_k
(_freq_correction).  Analysis alternates between solving frames against the
basis sampled from the current partial tracks and re-anchoring the tracks
from the solutions, keeping the best-SRER iterate.

The anchors are those of basis columns normalized per frame (amplitude
divided by its value at the frame center, phase zeroed there).  The LS time
variable is in seconds, which makes eta_k come out in Hz.  Each iterate's
tracks are sampled once, one sample_track per track over the whole signal:
that gives the iterate's synthesis (its SRER, and adapt's result),
C = (A+eps) cos(phase) and S = (A+eps) sin(phase) over the signal (eps is
_AMP_EPS times the power of two that brings the input's peak into [0.5, 1),
so analysis is exact under power-of-two gain), and the track values at every
frame center.  No frame evaluates cos or sin of its own phase block: its
columns are its raw C and S rows, whose coefficients the pass turns to the
normalized columns' (by the center phase and A_c+eps, a 2x2 map per track
that leaves eta_k unchanged), or init_harmonic's rows by angle addition.

Every frame fit runs through one block stage, _fit_frames; init_harmonic
and the adaptation pass keep only the basis they write into a block's cos and
sin rows and their map from coefficients to anchors.  Frames with the same
width and component count (so the same window and column count) form a
group, cut into blocks of at most FRAME_BLOCK design elements.  A block's
designs are one (q, G, n) array of its own (row j holds column j of every
frame, each frame's samples contiguous); the basis fills write it and
ls_solve reads it in place, so element-wise steps, and every step of
ls_solve but each frame's Cholesky solve and condition estimate, run on the
whole block; each frame's result is bitwise that of solving it alone in the
same layout.  Layout, eligibility and the anchor maps are array passes over
all frames.  Frame systems are a few hundred samples wide, so
the stage runs on single-threaded OpenBLAS (see _blas).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._blas import single_threaded_blas
from ._lapack import dpocon, dposv
from .core import (TWO_PI, PartialTrack, SampledSignal, amp_phase, check_count, check_hop_ms,
                   check_window_kind, hop_samples, make_window, render_spans, sample_track, srer,
                   wrap_phase)
# adapt renders its iterates itself; the name stays bound here because
# perfbench's tracer rebinds eaqhm.synthesize_tracks
from .core import synthesize_tracks  # noqa: F401
from .errors import AnalysisError, IllConditionedError, UsageError
from .pitch import F0Track

_AMP_EPS = 1e-10  # guards the per-frame center normalization of dead partials (_amp_eps)
SRER_THRESHOLD_DB = 0.1    # adaptation stops once an iterate improves by less
SRER_CEILING_DB = 150.0    # past this, the residual is numerical noise
COND_BOUND = 1e10          # on the real normal matrix of a frame fit
NYQUIST_MARGIN_HZ = 200.0  # partials stay this far below fs/2
COL_RATIO = 2.0 / 3.0      # LS columns capped at this fraction of the frame
ADAPT_WINDOW_KIND = "hamming"
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
        check_hop_ms(self.hop_ms)
        check_window_kind(self.init_window_kind)
        check_count("max_adaptations", self.max_adaptations, 0)
        if self.max_partials is not None:
            check_count("max_partials", self.max_partials, 1)
        if self.window_samples is not None:
            check_count("window_samples", self.window_samples, 1)
        elif not 0 < self.window_periods < np.inf:
            raise UsageError(f"window_periods must be positive and finite, "
                             f"got {self.window_periods}")
        if self.f_guard_hz is not None and not 0 < self.f_guard_hz < np.inf:
            raise UsageError(f"f_guard_hz must be positive and finite, got {self.f_guard_hz}")


@dataclass
class AdaptationState:
    iteration: int
    srer_history: list[float] = field(default_factory=list)
    tracks: list[PartialTrack] = field(default_factory=list)
    synthesis: np.ndarray = None  # the tracks' synthesize_tracks, from adapt's render


# ---------------------------------------------------------------------------
# least-squares machinery
# ---------------------------------------------------------------------------

def ls_solve(e: np.ndarray, window: np.ndarray,
             target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted LS solves of target ~ E [a; b] via the normal equations, for
    one or more frames stacked row by row.

    E is a real float64 (G*n, q) design, n = len(window): frame g's sample i
    is row g*n + i of E and of the (G*n,) target (the frame fits pass the
    real mirrored design, as the transpose of a (q, G*n) buffer, so each
    column of a frame is contiguous).  Returns a and b, each (G, q/2), and
    cond, (G,): LAPACK's condition estimate of each frame's normal matrix.  A
    frame is solved exactly when its cond <= COND_BOUND; the others (more
    columns than samples, not positive definite, or past the bound) have cond
    inf or above the bound and NaN rows in a and b.

    E is overwritten: it is weighted in place and then holds scratch, so the
    solve copies neither E nor a normal matrix.  posv factors and solves
    R = E^T W^2 E unequilibrated (Cholesky is invariant under diagonal
    scaling, van der Sluis 1969); cond is that of DRD, D = diag(1/sqrt(r_jj)),
    the normal matrix of unit-norm columns (so the check is about basis
    structure, not units), from pocon on D L and ||DRD||_1 = max_j d_j sum_i
    |r_ij| d_i.  Every step but each frame's Cholesky solve and condition
    estimate runs on all G frames at once, and each frame's result is bitwise
    that of solving it alone in the same layout.
    """
    if not (isinstance(e, np.ndarray) and e.dtype == np.float64 and e.ndim == 2):
        raise UsageError("ls_solve takes a real float64 design matrix")
    w = np.asarray(window, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    rows, q = e.shape
    n = w.shape[0]
    if w.ndim != 1 or n == 0 or rows % n or y.shape != (rows,) or q % 2:
        raise UsageError("ls_solve takes a (G*n, q) design with even q, an (n,) "
                         "window and a (G*n,) target")
    g, half = rows // n, q // 2
    coef = np.full((g, q), np.nan)
    cond = np.full(g, np.inf)
    if n < q:
        return coef[:, :half], coef[:, half:], cond
    frames = e.reshape(g, n, q)
    frames *= w[:, None]
    yw = np.multiply(y.reshape(g, n), w)[:, :, None]
    # same-buffer products: numpy takes syrk for each frame's Gram matrix
    et = frames.transpose(0, 2, 1)
    r = np.matmul(et, frames)
    rhs = np.matmul(et, yw)
    d = np.sqrt(np.diagonal(r, axis1=1, axis2=2))
    d = 1.0 / np.where(d == 0.0, 1.0, d)   # such a frame's posv fails
    # E is dead now: it takes |r| for the 1-norm of DRD
    scratch = np.ravel(e, order="K")[:g * q * q].reshape(g, q, q)
    anorm = np.max(np.matmul(np.abs(r, out=scratch), d[:, :, None])[:, :, 0] * d, axis=1)
    for i in range(g):
        # r is symmetric, so r.T is the Fortran-order matrix LAPACK takes,
        # and posv factors and solves it in place
        chol, sol, info = dposv(r[i].T, rhs[i], lower=1, overwrite_a=1, overwrite_b=1)
        if info != 0:
            continue
        chol *= d[i, :, None]   # D L, the factor of DRD
        rcond, info = dpocon(chol, anorm[i], uplo=b"L")
        if info == 0 and rcond != 0.0:
            cond[i] = 1.0 / float(rcond)
        if cond[i] <= COND_BOUND:
            coef[i] = sol[:, 0]
    return coef[:, :half], coef[:, half:], cond


def _freq_correction(c_a, s_a, c_b, s_b) -> np.ndarray:
    """Frequency-mismatch estimate (s_a c_b - c_a s_b) / (2 pi (c_a^2 + s_a^2)),
    Hz, of components with cos and sin coefficients (c_a, s_a) and slope
    coefficients (c_b, s_b): with the frame time axis in seconds, directly the
    correction to add to the frequency.  0 where the amplitude is 0."""
    den = c_a * c_a + s_a * s_a
    num = s_a * c_b - c_a * s_b
    return np.divide(num, TWO_PI * den, out=np.zeros_like(num), where=den > 0)


def _complete_design(design: np.ndarray, t: np.ndarray) -> None:
    """Fill the DC row, the t row and the slope twins of a (q, G, n) block
    of designs [1 | A cos | A sin | t | t A cos | t A sin] (one row per
    column, every frame's samples contiguous) whose cos and sin rows are set,
    given each frame's time axis t, (G, n)."""
    p = design.shape[0] // 2
    design[0], design[p] = 1.0, t
    np.multiply(design[1:p], t, out=design[p + 1:])


def _amp_eps(x: np.ndarray) -> float:
    """_AMP_EPS scaled by 2^k, k the frexp exponent of x's peak |x|: the same
    for peaks in [0.5, 1), and exact under power-of-two gain."""
    return float(np.ldexp(_AMP_EPS, np.frexp(np.max(np.abs(x)))[1]))


def _harmonic_rows(cos_rows: np.ndarray, sin_rows: np.ndarray, wt: np.ndarray) -> None:
    """Write cos(j wt) and sin(j wt), j = 1..k, into the (G, k, n) rows,
    given wt, (G, n): harmonic 1 is one cos and sin per sample, and harmonics
    j+1..2j are harmonics 1..j times harmonic j by angle addition."""
    np.cos(wt, out=cos_rows[:, 0])
    np.sin(wt, out=sin_rows[:, 0])
    j, k = 1, cos_rows.shape[1]
    while j < k:
        h = min(j, k - j)
        c, s = cos_rows[:, :h], sin_rows[:, :h]
        c_j, s_j = cos_rows[:, j - 1:j], sin_rows[:, j - 1:j]
        np.subtract(c * c_j, s * s_j, out=cos_rows[:, j:j + h])
        np.add(s * c_j, c * s_j, out=sin_rows[:, j:j + h])
        j += h


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
    """Frames solved together: they share their width (so their window) and
    their component count."""

    frames: np.ndarray  # frame indices, in center order
    n: int              # samples per frame
    m: int              # components per frame

    @property
    def q(self) -> int:
        return 2 * (2 * self.m + 1)


def _blocks(layout: _Layout, frames: np.ndarray, counts: np.ndarray) -> list[_Block]:
    """The given frames grouped by (width, component count), each group cut
    into blocks of at most FRAME_BLOCK design elements (and at least one
    frame)."""
    width = layout.hi[frames] - layout.lo[frames] + 1
    m = counts[frames]
    order = np.lexsort((m, width))
    keys = np.stack((width, m))[:, order]
    # a group starts at the first frame and wherever the key changes
    starts = np.flatnonzero(np.r_[order.size > 0, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    out = []
    for s0, s1 in zip(starts.tolist(), [*starts[1:].tolist(), order.shape[0]]):
        n, m_k = keys[:, s0].tolist()
        per = max(1, FRAME_BLOCK // (n * 2 * (2 * m_k + 1)))
        group = frames[order[s0:s1]]
        out.extend(_Block(frames=group[i:i + per], n=n, m=m_k)
                   for i in range(0, group.shape[0], per))
    return out


def _fit_frames(x: np.ndarray, fs: float, layout: _Layout, counts: np.ndarray,
                window_kind: str, basis) -> tuple[np.ndarray, np.ndarray]:
    """Fit x over every frame f with counts[f] >= 1 against its design
    [1 | A cos | A sin | t | t A cos | t A sin] of counts[f] components,
    solved in _blocks under a window_kind window.

    A block's designs are one (q, G, n) array: row j holds column j of every
    frame, frame after frame.  basis(b, cols, t) writes the cos and sin rows
    of block b's designs into cols, the array's (G, q, n) view, given each
    frame's LS time axis t, (G, n), in seconds from its center.

    Returns coef, (4, n_frames, max count): a's cos and sin coefficients,
    then b's, of a frame's j-th component in column j, NaN where the frame
    was not solved; and ill, (n_frames,), the frames fitted but
    ill-conditioned.
    """
    blocks = _blocks(layout, np.flatnonzero(counts >= 1), counts)
    coef = np.full((4, len(layout), int(np.max(counts, initial=0))), np.nan)
    ill = np.zeros(len(layout), dtype=bool)
    windows = {n: make_window(window_kind, n) for n in {b.n for b in blocks}}
    with single_threaded_blas():
        for b in blocks:
            g, n, m, q = b.frames.shape[0], b.n, b.m, b.q
            # each frame's samples, frame after frame as in the design's rows
            rows = layout.lo[b.frames][:, None] + np.arange(n)
            t = (rows - layout.center[b.frames][:, None]) / fs
            design = np.empty((q, g, n))
            basis(b, design.transpose(1, 0, 2), t)
            _complete_design(design, t)
            c, d, cond = ls_solve(design.reshape(q, g * n).T, windows[n], x[rows].reshape(-1))
            # the rows of frames not solved are NaN
            coef[:2, b.frames, :m] = c[:, 1:].reshape(g, 2, m).transpose(1, 0, 2)
            coef[2:, b.frames, :m] = d[:, 1:].reshape(g, 2, m).transpose(1, 0, 2)
            ill[b.frames] = ~(cond <= COND_BOUND)
    return coef, ill


def _tracks(times: np.ndarray, amps: np.ndarray, freqs: np.ndarray, phases: np.ndarray,
            carried) -> list[PartialTrack]:
    """One track per column of the (n_frames, n_columns) anchors, from the
    frames whose amplitude is not NaN.  A column with no such frame is
    carried[k] unchanged, or no track when carried is None."""
    out: list[PartialTrack] = []
    for k in range(amps.shape[1]):
        keep = ~np.isnan(amps[:, k])
        if keep.any():
            out.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                    freqs=freqs[keep, k], phases=phases[keep, k]))
        elif carried is not None:
            out.append(carried[k])
    return out


# ---------------------------------------------------------------------------
# initialization and adaptation
# ---------------------------------------------------------------------------

def init_harmonic(signal: SampledSignal, f0track: F0Track,
                  config: EaQHMConfig = EaQHMConfig()) -> list[PartialTrack]:
    """Initial tracks from per-frame stationary-harmonic LS fits at k*f0.

    Anchors carry (hypot(c_k, s_k), k*f0_local, atan2(-s_k, c_k)) per
    solved frame, from the cos and sin coefficients c_k and s_k of harmonic k.
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
    omega = 2.0 * np.pi * layout.f0

    def basis(b, cols, t):
        _harmonic_rows(cols[:, 1:b.m + 1], cols[:, b.m + 1:2 * b.m + 1],
                       omega[b.frames][:, None] * t)

    coef, ill = _fit_frames(x, fs, layout, k_maxes, config.init_window_kind, basis)
    if ill.any():
        warnings.warn(f"harmonic initialization skipped {np.count_nonzero(ill)} ill-conditioned "
                      f"frame(s) of {len(layout)}", RuntimeWarning, stacklevel=2)
    amps, phases = amp_phase(coef[0], coef[1])
    tracks = _tracks(layout.center / fs, amps, np.multiply.outer(layout.f0, harmonics), phases,
                     None)
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
    eps: float          # the _amp_eps of the input


def _render(tracks: list[PartialTrack], fs: float, n: int, centers: np.ndarray,
            eps: float) -> tuple[np.ndarray, _Sampled]:
    """An iterate's synthesis and its _Sampled tracks with amplitude guard
    eps, from one sample_track per track over the whole signal.

    The synthesis is synthesize_tracks' own: each track, in order, adds its
    samples over its render_spans range.
    """
    n_tracks = len(tracks)
    synth = np.zeros(n)
    sampled = _Sampled(c_rows=np.empty((n_tracks, n)), s_rows=np.empty((n_tracks, n)),
                       amp_c=np.empty((centers.shape[0], n_tracks)),
                       freq_c=np.empty((centers.shape[0], n_tracks)),
                       phase_c=np.empty((centers.shape[0], n_tracks)), eps=eps)
    lo, hi = render_spans(tracks, n, fs)
    for k, (tr, r0, r1) in enumerate(zip(tracks, lo.tolist(), hi.tolist())):
        amp, freq, phase = sample_track(tr, fs, 0, n - 1)
        _kernels.accumulate_cosine(synth, r0, amp[r0:r1 + 1], phase[r0:r1 + 1])
        sampled.amp_c[:, k] = amp[centers]
        sampled.freq_c[:, k] = freq[centers]
        sampled.phase_c[:, k] = phase[centers]
        amp += eps
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
    n = x.shape[0]

    def basis(b, cols, t):
        idx = order[b.frames, :b.m]
        # flat index of (track, sample) in the C and S rows; each is in range, and
        # "clip" lets take write straight into the design ("raise" buffers it)
        at = (idx * n + layout.lo[b.frames, None])[:, :, None] + np.arange(b.n)
        np.take(sampled.c_rows, at, out=cols[:, 1:b.m + 1], mode="clip")
        np.take(sampled.s_rows, at, out=cols[:, b.m + 1:2 * b.m + 1], mode="clip")

    slots, ill = _fit_frames(x, fs, layout, count, ADAPT_WINDOW_KIND, basis)
    if ill[count > 0].all():
        raise AnalysisError("adaptation pass failed on every frame")
    # the rows are the bulk of sampled: release them before the mapping
    sampled.c_rows = sampled.s_rows = None
    # slot j of a frame is track order[f, j]; slots past its count are NaN and
    # land on tracks it does not fit
    coef = np.full((4, n_frames, n_tracks), np.nan)
    np.put_along_axis(coef, order[None, :, :slots.shape[2]], slots, axis=2)
    half_f0 = layout.f0[:, None] / 2.0
    eta = np.clip(_freq_correction(*coef), -half_f0, half_f0)
    # to the normalized columns, in place: (c, s) turned by the center phase, times A_c+eps
    c, s = coef[0], coef[1]
    gain = sampled.amp_c + sampled.eps
    g_cos, g_sin = np.cos(sampled.phase_c) * gain, np.sin(sampled.phase_c) * gain
    c_g_sin = c * g_sin
    c *= g_cos
    c += np.multiply(s, g_sin, out=g_sin)
    s *= g_cos
    s -= c_g_sin
    # new anchors per (frame, track); NaN where the track was not fitted
    amps, phases = amp_phase(c, s)
    freqs = np.clip(sampled.freq_c + eta, 1.0, fs / 2.0 - 1.0)
    # an ill-conditioned frame keeps the previous iterate's values
    kept = np.zeros_like(ill, shape=amps.shape)
    np.put_along_axis(kept, order, (np.arange(n_tracks) < count[:, None]) & ill[:, None],
                      axis=1)
    amps[kept] = sampled.amp_c[kept]
    freqs[kept] = sampled.freq_c[kept]
    phases[kept] = wrap_phase(sampled.phase_c[kept])
    return _tracks(layout.center / fs, amps, freqs, phases, tracks)


def adapt(signal: SampledSignal, tracks: list[PartialTrack], f0track: F0Track,
          config: EaQHMConfig = EaQHMConfig()) -> AdaptationState:
    """Adaptation loop: re-fit frames against the current tracks, apply the
    frequency corrections, and keep the best-SRER iterate.

    The SRER history records the initial synthesis and every improving
    iterate, so it is non-decreasing by construction; an iterate that fails
    to improve (or improves by less than the threshold) stops the loop.
    Each iterate is rendered once (_render): its synthesis gives its SRER
    (and is the state's, for the best iterate) and its sampled tracks feed
    the next pass.
    """
    x = signal.samples
    n = x.shape[0]
    fs = signal.fs
    layout = _frame_layout(n, fs, f0track, config)
    eps = _amp_eps(x)
    current = list(tracks)
    synth, sampled = _render(current, fs, n, layout.center, eps)
    best_srer = srer(x, synth)
    state = AdaptationState(iteration=0, srer_history=[best_srer], tracks=current, synthesis=synth)
    if best_srer >= SRER_CEILING_DB:
        return state  # already at the double-precision noise floor
    for it in range(1, config.max_adaptations + 1):
        new_tracks = _adaptation_pass(x, fs, current, sampled, layout, config)
        del sampled  # free its frame-center values before the next render
        synth, sampled = _render(new_tracks, fs, n, layout.center, eps)
        s = srer(x, synth)
        state.iteration = it
        if s <= best_srer:
            break
        improvement = s - best_srer
        best_srer = s
        current = new_tracks
        state.srer_history.append(s)
        state.tracks, state.synthesis = new_tracks, synth
        if improvement < SRER_THRESHOLD_DB or s >= SRER_CEILING_DB:
            break
    return state


def eaqhm_analyze(signal: SampledSignal, f0track: F0Track,
                  config: EaQHMConfig = EaQHMConfig()) -> AdaptationState:
    """Harmonic initialization followed by the adaptation loop."""
    return adapt(signal, init_harmonic(signal, f0track, config), f0track, config)
