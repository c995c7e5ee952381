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

A frame loop does only the frame's own solve.  Each frame's design is a
contiguous view at the start of one buffer, sized for the loop's widest
frame, and ls_solve works inside it.  Eligibility, rotation factors and the
coefficient-to-anchor mapping are array passes over all frames.  Every frame
system is a few hundred samples wide, so the frame loops of init_harmonic
and of each adaptation pass run on single-threaded OpenBLAS (see _blas) and
restore the previous thread count afterwards.
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
_NORM_BLOCK = 8192         # squares per block of ls_solve's column norms


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
        if self.window_samples is None and self.window_periods <= 0:
            raise UsageError("window_periods must be positive")


@dataclass
class AdaptationState:
    iteration: int
    srer_history: list[float] = field(default_factory=list)
    tracks: list[PartialTrack] = field(default_factory=list)


# ---------------------------------------------------------------------------
# least-squares machinery
# ---------------------------------------------------------------------------

def ls_solve(e: np.ndarray, window: np.ndarray,
             target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted LS solve of target ~ E [a; b] via the normal equations.

    E is a real float64 design (the frame fits pass the real mirrored
    design), and COND_BOUND applies to its normal matrix.  E is overwritten:
    it is weighted and equilibrated in place and then holds scratch, so the
    solve copies neither E nor its normal matrix.  Columns are equilibrated
    to unit norm first (exact algebra, keeps the condition check about basis
    structure, not units).  Raises IllConditionedError carrying LAPACK's
    condition estimate of the normal matrix when it exceeds COND_BOUND, and
    an infinite one when E has more columns than rows.
    """
    if not (isinstance(e, np.ndarray) and e.dtype == np.float64):
        raise UsageError("ls_solve takes a real float64 design matrix")
    n, q = e.shape
    if n < q:
        raise IllConditionedError(f"{q} columns on {n} samples", np.inf)
    w = window.values if hasattr(window, "values") else np.asarray(window, dtype=np.float64)
    e *= w[:, None]
    yw = np.asarray(target, dtype=np.float64) * w
    scale = _column_norms(e)
    scale[scale == 0.0] = 1.0
    e /= scale
    r = e.T @ e
    rhs = e.T @ yw
    # E is dead now: it takes |r| for pocon's 1-norm, and potrf factors r in
    # place (r is symmetric, so r.T is the Fortran-order matrix LAPACK takes)
    abs_r = np.abs(r, out=e.reshape(-1)[:q * q].reshape(q, q))
    anorm = float(np.max(np.sum(abs_r, axis=0)))
    chol, info = _POTRF(r.T, lower=1, overwrite_a=1)
    if info != 0:
        raise IllConditionedError("normal equations not positive definite", np.inf)
    rcond, info = _POCON(chol, anorm, uplo=b"L")
    cond = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info != 0 or not np.isfinite(cond) or cond > COND_BOUND:
        raise IllConditionedError(
            f"normal equations condition {cond:.3e} exceeds bound {COND_BOUND:.1e}", cond)
    c, info = _POTRS(chol, rhs[:, None], lower=1)
    if info != 0:
        raise IllConditionedError("normal-equations solve failed", cond)
    c = c[:, 0] / scale
    m = q // 2
    return c[:m], c[m:]


def _column_norms(e: np.ndarray) -> np.ndarray:
    """np.linalg.norm(e, axis=0) of a C-contiguous e, bit for bit: each
    column's squares are summed down the rows in order.  The squares are
    formed a block of rows at a time, never for all of e at once; each block
    is reduced below the running sums, which keeps the order."""
    n, q = e.shape
    rows = max(1, _NORM_BLOCK // max(q, 1))
    scratch = np.empty((rows + 1, q))
    out = np.square(e[0])
    for i in range(1, n, rows):
        block = e[i:i + rows]
        scratch[0] = out
        np.square(block, out=scratch[1:block.shape[0] + 1])
        np.add.reduce(scratch[:block.shape[0] + 1], axis=0, out=out)
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


def _design(buf: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (n, 2p) design of a frame with m components, p = 2m + 1, as a
    C-contiguous view at the start of buf."""
    q = 2 * (2 * m + 1)
    return buf[:n * q].reshape(n, q)


def _design_buffer(widths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One buffer that holds the _design of any frame of a loop, given every
    frame's width and component count."""
    return np.empty(int(np.max(widths * 2 * (2 * counts + 1), initial=0)))


def _complete_design(e: np.ndarray, t: np.ndarray) -> None:
    """Fill the DC column and the slope half of a design whose cos and sin
    columns are set: e = [1 | A cos | A sin | t | t A cos | t A sin]."""
    p = e.shape[1] // 2
    e[:, 0] = 1.0
    np.multiply(t[:, None], e[:, :p], out=e[:, p:])


def _rotation_factors(amp_c: np.ndarray,
                      phase_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(phase_c) / (A_c + eps) and sin(phase_c) / (A_c + eps), the
    factors _rotate_into turns C and S rows with."""
    g = 1.0 / (amp_c + _AMP_EPS)
    return np.cos(phase_c) * g, np.sin(phase_c) * g


def _rotate_into(e: np.ndarray, c_rows: np.ndarray, s_rows: np.ndarray,
                 cc: np.ndarray, sc: np.ndarray) -> None:
    """Write a frame's (A+eps)/(A_c+eps) cos(phase - phase_c) columns and
    their sin twins into the cos and sin columns of its design e.

    c_rows and s_rows are the frame's (n, m) samples of C = (A+eps) cos(phase)
    and S = (A+eps) sin(phase); cc and sc are the _rotation_factors at the
    frame center.  By angle addition the columns are C cc + S sc and
    S cc - C sc.  The slope half of e serves as scratch."""
    m = cc.shape[0]
    p = 2 * m + 1
    cos_cols, sin_cols, scratch = e[:, 1:m + 1], e[:, m + 1:p], e[:, p + 1:p + m + 1]
    np.multiply(c_rows, cc, out=cos_cols)
    cos_cols += np.multiply(s_rows, sc, out=scratch)
    np.multiply(s_rows, cc, out=sin_cols)
    sin_cols -= np.multiply(c_rows, sc, out=scratch)


# ---------------------------------------------------------------------------
# frame layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Frame:
    center: int
    lo: int
    hi: int
    f0: float
    k_budget: int


def _frame_layout(n: int, fs: float, f0track: F0Track,
                  config: EaQHMConfig) -> list[_Frame]:
    hop = hop_samples(config.hop_ms, fs)
    frames: list[_Frame] = []
    for c in range(0, n, hop):
        f0_l = float(f0track.f0_at(c / fs))
        if f0_l <= 0:
            continue
        if config.window_samples is not None:
            w = int(config.window_samples)
        else:
            w = int(round(config.window_periods * fs / f0_l))
        if w % 2 == 0:
            w += 1
        half = w // 2
        lo = max(0, c - half)
        hi = min(n - 1, c + half)
        w_eff = hi - lo + 1
        guard_f = config.f_guard_hz if config.f_guard_hz is not None else f0_l
        if w_eff < 2.0 * fs / guard_f:
            continue  # shorter than two periods of the guard frequency
        k_budget = int((COL_RATIO * w_eff / 2.0 - 1.0) // 2)
        if k_budget < 1:
            continue
        frames.append(_Frame(center=c, lo=lo, hi=hi, f0=f0_l, k_budget=k_budget))
    return frames


def _frame_times(cache: dict, fr: _Frame, fs: float) -> np.ndarray:
    """A frame's LS time axis in seconds, cached per window offset."""
    key = (fr.lo - fr.center, fr.hi - fr.center)
    t = cache.get(key)
    if t is None:
        t = cache[key] = np.arange(key[0], key[1] + 1) / fs
    return t


def _frame_window(cache: dict, kind: str, length: int) -> np.ndarray:
    w = cache.get(length)
    if w is None:
        w = cache[length] = make_window(kind, length).values
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
    n = x.shape[0]
    frames = _frame_layout(n, fs, f0track, config)
    if not frames:
        # the window guard is a conditioning bound: surface it as such
        raise IllConditionedError(
            "no analysis frame satisfies the two-period window-length guard",
            float("inf"))
    k_maxes = np.array([_partial_count(fr, fs, config) for fr in frames])
    widths = np.array([fr.hi - fr.lo + 1 for fr in frames])
    active = np.flatnonzero(k_maxes >= 1)
    harmonics = np.arange(1, max(0, int(k_maxes.max())) + 1, dtype=np.float64)
    # cos and sin coefficients per (frame, harmonic); NaN where none was solved
    cos_coef = np.full((len(frames), harmonics.shape[0]), np.nan)
    sin_coef = np.full_like(cos_coef, np.nan)
    buf = _design_buffer(widths[active], k_maxes[active])
    block = int(np.max(widths[active] * k_maxes[active], initial=0))
    phase_buf, trig_buf = np.empty(block), np.empty(block)
    times_cache: dict = {}
    windows: dict = {}
    skipped = 0
    with single_threaded_blas():
        for j in active.tolist():
            fr, k, w_len = frames[j], int(k_maxes[j]), int(widths[j])
            t = _frame_times(times_cache, fr, fs)
            e = _design(buf, w_len, k)
            phase = phase_buf[:w_len * k].reshape(w_len, k)
            trig = trig_buf[:w_len * k].reshape(w_len, k)
            np.multiply(2.0 * np.pi * fr.f0 * t[:, None], harmonics[:k], out=phase)
            e[:, 1:k + 1] = np.cos(phase, out=trig)
            e[:, k + 1:2 * k + 1] = np.sin(phase, out=trig)
            _complete_design(e, t)
            try:
                c, _ = ls_solve(e, _frame_window(windows, config.init_window_kind, w_len),
                                x[fr.lo:fr.hi + 1])
            except IllConditionedError:
                skipped += 1
                continue
            cos_coef[j, :k] = c[1:k + 1]
            sin_coef[j, :k] = c[k + 1:]
    if skipped:
        warnings.warn(f"harmonic initialization skipped {skipped} ill-conditioned "
                      f"frame(s) of {len(frames)}", RuntimeWarning, stacklevel=2)
    a = _mirrored(cos_coef, sin_coef)
    amps = 2.0 * np.abs(a)
    phases = np.angle(a)
    times = np.array([fr.center for fr in frames]) / fs
    f0s = np.array([fr.f0 for fr in frames])
    tracks: list[PartialTrack] = []
    for k in range(amps.shape[1]):
        keep = ~np.isnan(amps[:, k])
        if keep.any():
            tracks.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                       freqs=(k + 1) * f0s[keep], phases=phases[keep, k]))
    if not tracks:
        raise AnalysisError("harmonic initialization failed on every frame")
    return tracks


def _partial_count(fr: _Frame, fs: float, config: EaQHMConfig) -> int:
    band = int((fs / 2.0 - NYQUIST_MARGIN_HZ) / fr.f0)
    k = band if config.max_partials is None else min(config.max_partials, band)
    return min(k, fr.k_budget)


@dataclass
class _Sampled:
    """An iterate's tracks sampled over the signal: C = (A+eps) cos(phase)
    and S = (A+eps) sin(phase) with one column per track (so a frame's
    samples are one block of rows), and amplitude, frequency and phase at
    every frame center with one row per frame."""

    c_rows: np.ndarray  # (n, n_tracks)
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
    sampled = _Sampled(c_rows=np.empty((n, n_tracks)), s_rows=np.empty((n, n_tracks)),
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
        np.multiply(amp, np.cos(phase), out=sampled.c_rows[:, k])
        np.multiply(amp, np.sin(phase), out=sampled.s_rows[:, k])
    return synth, sampled


def _adaptation_pass(x: np.ndarray, fs: float, tracks: list[PartialTrack],
                     sampled: _Sampled, frames: list[_Frame],
                     config: EaQHMConfig) -> list[PartialTrack]:
    """Re-fit every frame against the sampled tracks and re-anchor them.

    A frame fits the tracks below the Nyquist margin, lowest center
    frequency first, up to its column budget.  An ill-conditioned frame
    keeps the previous iterate's values; a track no frame fits is carried
    unchanged.  The pass consumes sampled's C and S rows: it drops them once
    the frames are solved.
    """
    n_frames, n_tracks = sampled.freq_c.shape
    budget = np.array([fr.k_budget for fr in frames], dtype=np.int64)
    if config.max_partials is not None:
        budget = np.minimum(budget, config.max_partials)
    # a frame's eligible tracks are the first `count` of its frequency order
    order = np.argsort(sampled.freq_c, axis=1, kind="stable")
    below = sampled.freq_c < fs / 2.0 - NYQUIST_MARGIN_HZ
    count = np.minimum(np.count_nonzero(below, axis=1), budget)
    fitted = np.flatnonzero(count)
    cc, sc = _rotation_factors(sampled.amp_c, sampled.phase_c)
    widths = np.array([fr.hi - fr.lo + 1 for fr in frames], dtype=np.int64)
    buf = _design_buffer(widths[fitted], count[fitted])
    rows = np.empty((2, int(np.max(widths[fitted] * count[fitted], initial=0))))
    # cos and sin coefficients of a, then of b, per (frame, track)
    coef = np.full((4, n_frames, n_tracks), np.nan)
    ill = np.zeros(n_frames, dtype=bool)
    times_cache: dict = {}
    windows: dict = {}
    with single_threaded_blas():
        for j in fitted.tolist():
            fr, m, w_len = frames[j], int(count[j]), int(widths[j])
            idx = order[j, :m]
            e = _design(buf, w_len, m)
            c_rows = rows[0, :w_len * m].reshape(w_len, m)
            s_rows = rows[1, :w_len * m].reshape(w_len, m)
            np.take(sampled.c_rows[fr.lo:fr.hi + 1], idx, axis=1, out=c_rows, mode="clip")
            np.take(sampled.s_rows[fr.lo:fr.hi + 1], idx, axis=1, out=s_rows, mode="clip")
            _rotate_into(e, c_rows, s_rows, cc[j, idx], sc[j, idx])
            _complete_design(e, _frame_times(times_cache, fr, fs))
            try:
                c, d = ls_solve(e, _frame_window(windows, ADAPT_WINDOW_KIND, w_len),
                                x[fr.lo:fr.hi + 1])
            except IllConditionedError:
                ill[j] = True
                continue
            coef[0, j, idx], coef[1, j, idx] = c[1:m + 1], c[m + 1:]
            coef[2, j, idx], coef[3, j, idx] = d[1:m + 1], d[m + 1:]
    if ill[fitted].all():
        raise AnalysisError("adaptation pass failed on every frame")
    # the rows are the bulk of sampled: release them before the mapping
    sampled.c_rows = sampled.s_rows = None
    a = _mirrored(coef[0], coef[1])
    half_f0 = np.array([fr.f0 for fr in frames])[:, None] / 2.0
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
    times = np.array([fr.center for fr in frames], dtype=np.int64) / fs
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
    frames = _frame_layout(n, fs, f0track, config)
    centers = np.array([fr.center for fr in frames], dtype=np.int64)
    current = list(tracks)
    synth, sampled = _render(current, fs, n, centers)
    best_srer = srer(x, synth)
    state = AdaptationState(iteration=0, srer_history=[best_srer], tracks=current)
    if best_srer >= SRER_CEILING_DB:
        return state  # already at the double-precision noise floor
    for it in range(1, config.max_adaptations + 1):
        new_tracks = _adaptation_pass(x, fs, current, sampled, frames, config)
        del sampled  # free its frame-center values before the next render
        synth, sampled = _render(new_tracks, fs, n, centers)
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
