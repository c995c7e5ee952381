"""Extended adaptive quasi-harmonic analysis.

Each frame is fit by weighted least squares against time-modulated basis
functions psi_k(t) = amp_k(t) * exp(i*phase_k(t)) together with their
slope-carrying twins t * psi_k(t); the complex pair (a_k, b_k) then yields a
frequency-mismatch correction eta_k.  Analysis alternates between solving
frames against the basis sampled from the current partial tracks and
re-anchoring the tracks from the solutions, keeping the best-SRER iterate.

Basis columns are normalized per frame: amplitude is divided by its value
at the frame center and phase is zeroed there, so |a_k| and arg(a_k) are
directly the frame-center amplitude and phase anchors.  The LS time
variable is in seconds, which makes eta_k come out in Hz.  An adaptation
pass samples (A+eps) cos(phase) and (A+eps) sin(phase) of every track once;
a frame's columns are those rows rotated by the frame-center phase, so no
frame evaluates cos or sin of its own phase block.

Every frame system is a few hundred samples wide, so the frame loops of
init_harmonic and of each adaptation pass run on single-threaded OpenBLAS
(see _blas) and restore the previous thread count afterwards.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from ._blas import single_threaded_blas
from .core import (PartialTrack, SampledSignal, hop_samples, make_window, sample_track,
                   srer, synthesize_tracks, wrap_phase)
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


@dataclass(frozen=True)
class QHMFrameSolution:
    """Per-frame complex amplitudes/slopes and frequency corrections, k=0..K."""

    a: np.ndarray    # complex
    b: np.ndarray    # complex
    eta: np.ndarray  # Hz; eta[0] == 0 (the DC component gets no correction)


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

    E is real: the frame fits pass the real design of _solve_mirrored, and
    COND_BOUND applies to its normal matrix.  Columns are equilibrated to
    unit norm first (exact algebra, keeps the condition check about basis
    structure, not units).  Raises IllConditionedError carrying LAPACK's
    condition estimate of the normal matrix when it exceeds COND_BOUND.
    """
    if np.iscomplexobj(e):
        raise UsageError("ls_solve takes a real design matrix")
    w = window.values if hasattr(window, "values") else np.asarray(window, dtype=np.float64)
    es = e * w[:, None]
    yw = np.asarray(target, dtype=np.float64) * w
    scale = np.linalg.norm(es, axis=0)
    scale[scale == 0.0] = 1.0
    es /= scale
    r = es.T @ es
    rhs = es.T @ yw
    chol, info = _POTRF(r, lower=1)
    if info != 0:
        raise IllConditionedError("normal equations not positive definite", np.inf)
    anorm = float(np.max(np.sum(np.abs(r), axis=0)))
    rcond, info = _POCON(chol, anorm, uplo=b"L")
    cond = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info != 0 or not np.isfinite(cond) or cond > COND_BOUND:
        raise IllConditionedError(
            f"normal equations condition {cond:.3e} exceeds bound {COND_BOUND:.1e}", cond)
    c, info = _POTRS(chol, rhs[:, None], lower=1)
    if info != 0:
        raise IllConditionedError("normal-equations solve failed", cond)
    c = c[:, 0] / scale
    m = e.shape[1] // 2
    return c[:m], c[m:]


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


def _solve_mirrored(seg: np.ndarray, cos_cols: np.ndarray, sin_cols: np.ndarray,
                    window, t: np.ndarray) -> QHMFrameSolution:
    """Solve one frame against components k=1..m plus DC, each paired with
    its conjugate so the fit of the real target is two-sided.

    cos_cols and sin_cols are the (n, m) columns A_k cos(phase_k) and
    A_k sin(phase_k).  For a real target the mirrored complex fit is
    conjugate-symmetric, so it is solved as the real design
    [1 | A cos | A sin | t | t A cos | t A sin] (Pantazis, Rosec & Stylianou
    2011) at a quarter of the flops, and mapped back by a_0 = c_0,
    a_k = (c_k - i s_k) / 2, likewise for b.  Returns the k=0..m half;
    conjugate coefficients are implicit."""
    n, m = cos_cols.shape
    p = 2 * m + 1
    e = np.empty((n, 2 * p))
    e[:, 0] = 1.0
    e[:, 1:m + 1] = cos_cols
    e[:, m + 1:p] = sin_cols
    np.multiply(t[:, None], e[:, :p], out=e[:, p:])
    c, d = ls_solve(e, window, seg)
    a = np.concatenate((c[:1], (c[1:m + 1] - 1j * c[m + 1:]) / 2.0))
    b = np.concatenate((d[:1], (d[1:m + 1] - 1j * d[m + 1:]) / 2.0))
    eta = np.concatenate(([0.0], freq_correction(a[1:], b[1:])))
    return QHMFrameSolution(a=a, b=b, eta=eta)


def _rotated_columns(c_rows: np.ndarray, s_rows: np.ndarray, amp_c: np.ndarray,
                     phase_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A frame's (A+eps)/(A_c+eps) cos(phase - phase_c) and sin twin.

    c_rows and s_rows are (n, m) samples of C = (A+eps) cos(phase) and
    S = (A+eps) sin(phase); amp_c and phase_c are the m values at the frame
    center.  By angle addition the columns are C cos(phase_c) + S sin(phase_c)
    and S cos(phase_c) - C sin(phase_c), each over A_c + eps."""
    g = 1.0 / (amp_c + _AMP_EPS)
    cc = np.cos(phase_c) * g
    sc = np.sin(phase_c) * g
    cos_cols = c_rows * cc
    cos_cols += s_rows * sc
    sin_cols = s_rows * cc
    sin_cols -= c_rows * sc
    return cos_cols, sin_cols


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
    k_maxes = [_partial_count(fr, fs, config) for fr in frames]
    # anchors per (frame, harmonic); NaN where the frame gave none
    amps = np.full((len(frames), max(0, max(k_maxes))), np.nan)
    phases = np.full_like(amps, np.nan)
    windows: dict[int, np.ndarray] = {}
    skipped = 0
    with single_threaded_blas():
        for j, (fr, k_max) in enumerate(zip(frames, k_maxes)):
            if k_max < 1:
                continue
            idx = np.arange(fr.lo, fr.hi + 1)
            t = (idx - fr.center) / fs
            seg = x[fr.lo:fr.hi + 1]
            w = windows.get(fr.hi - fr.lo + 1)
            if w is None:
                w = make_window(config.init_window_kind, fr.hi - fr.lo + 1).values
                windows[fr.hi - fr.lo + 1] = w
            ks = np.arange(1, k_max + 1, dtype=np.float64)
            phase_cols = 2.0 * np.pi * fr.f0 * t[:, None] * ks[None, :]
            try:
                sol = _solve_mirrored(seg, np.cos(phase_cols), np.sin(phase_cols), w, t)
            except IllConditionedError:
                skipped += 1
                continue
            amps[j, :k_max] = 2.0 * np.abs(sol.a[1:])
            phases[j, :k_max] = np.angle(sol.a[1:])
    if skipped:
        warnings.warn(f"harmonic initialization skipped {skipped} ill-conditioned "
                      f"frame(s) of {len(frames)}", RuntimeWarning, stacklevel=2)
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


def _adaptation_pass(x: np.ndarray, fs: float, tracks: list[PartialTrack],
                     f0track: F0Track, config: EaQHMConfig) -> list[PartialTrack]:
    n = x.shape[0]
    n_tracks = len(tracks)
    frames = _frame_layout(n, fs, f0track, config)
    centers = np.array([fr.center for fr in frames], dtype=np.int64)
    # C = (A+eps) cos(phase) and S = (A+eps) sin(phase), one row per track,
    # and the track values at every frame center, one row per frame
    c_all = np.empty((n_tracks, n))
    s_all = np.empty((n_tracks, n))
    amp_c = np.empty((centers.size, n_tracks))
    freq_c = np.empty_like(amp_c)
    phase_c = np.empty_like(amp_c)
    for k, tr in enumerate(tracks):
        amp, freq, phase = sample_track(tr, fs, 0, n - 1)
        amp_c[:, k], freq_c[:, k], phase_c[:, k] = amp[centers], freq[centers], phase[centers]
        amp += _AMP_EPS
        np.multiply(amp, np.cos(phase), out=c_all[k])
        np.multiply(amp, np.sin(phase), out=s_all[k])
    # new anchors per (frame, track); NaN where the track was not eligible
    amps = np.full_like(amp_c, np.nan)
    freqs = np.full_like(amp_c, np.nan)
    phases = np.full_like(amp_c, np.nan)
    windows: dict[int, np.ndarray] = {}
    f_ceiling = fs / 2.0 - NYQUIST_MARGIN_HZ
    solved_any = False
    with single_threaded_blas():
        for j, fr in enumerate(frames):
            budget = fr.k_budget if config.max_partials is None \
                else min(config.max_partials, fr.k_budget)
            order = np.argsort(freq_c[j], kind="stable")
            idx = order[freq_c[j, order] < f_ceiling][:budget]
            if idx.size == 0:
                continue
            t = (np.arange(fr.lo, fr.hi + 1) - fr.center) / fs
            seg = x[fr.lo:fr.hi + 1]
            w_len = fr.hi - fr.lo + 1
            w = windows.get(w_len)
            if w is None:
                w = make_window(ADAPT_WINDOW_KIND, w_len).values
                windows[w_len] = w
            cos_cols, sin_cols = _rotated_columns(
                c_all[idx, fr.lo:fr.hi + 1].T, s_all[idx, fr.lo:fr.hi + 1].T,
                amp_c[j, idx], phase_c[j, idx])
            try:
                sol = _solve_mirrored(seg, cos_cols, sin_cols, w, t)
            except IllConditionedError:
                # keep the previous iterate's values at this frame
                amps[j, idx] = amp_c[j, idx]
                freqs[j, idx] = freq_c[j, idx]
                phases[j, idx] = wrap_phase(phase_c[j, idx])
                continue
            solved_any = True
            eta = np.clip(sol.eta[1:], -fr.f0 / 2.0, fr.f0 / 2.0)
            amps[j, idx] = 2.0 * np.abs(sol.a[1:])
            freqs[j, idx] = np.clip(freq_c[j, idx] + eta, 1.0, fs / 2.0 - 1.0)
            phases[j, idx] = np.angle(sol.a[1:])
    if not solved_any:
        raise AnalysisError("adaptation pass failed on every frame")
    times = centers / fs
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
    """
    x = signal.samples
    n = x.shape[0]
    fs = signal.fs
    current = list(tracks)
    best_srer = srer(x, synthesize_tracks(current, n, fs))
    state = AdaptationState(iteration=0, srer_history=[best_srer], tracks=current)
    if best_srer >= SRER_CEILING_DB:
        return state  # already at the double-precision noise floor
    for it in range(1, config.max_adaptations + 1):
        new_tracks = _adaptation_pass(x, fs, current, f0track, config)
        s = srer(x, synthesize_tracks(new_tracks, n, fs))
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

