"""Adaptive quasi-harmonic analysis: LS machinery and the adaptation loop."""
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from sinemodel import _blas, _lapack, eaqhm
from sinemodel._blas import single_threaded_blas
from sinemodel.core import (PartialTrack, SampledSignal, amp_phase, hop_samples, make_window,
                            sample_track, srer, synthesize_tracks, wrap_phase)
from sinemodel.eaqhm import EaQHMConfig, adapt, eaqhm_analyze, init_harmonic, ls_solve
from sinemodel.errors import AnalysisError, IllConditionedError, UsageError
from sinemodel.generators import AMFMSpec, gen_amfm
from sinemodel.harness import MODEL_TABLE, PITCH_BAND_HZ, run_model
from sinemodel.pitch import F0Track, estimate_f0

FS = 16000.0
# the references factor and solve in two calls where ls_solve makes one posv
dpotrf, dpotrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


# ---------------------------------------------------------------------------
# plain references: the complex mirrored system the real frame design replaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFunctionSet:
    """Sampled instantaneous amplitude/phase per component, one column each."""

    amp: np.ndarray    # (n_samples, n_components)
    phase: np.ndarray


def build_ls_system(frame, basis, window, t):
    """E_e = [E_e0 | E_e1] with (E_e0)_{n,k} = amp_k(t_n) e^{i phase_k(t_n)} and
    E_e1 = t_n * E_e0; returns (E_e, window, frame)."""
    n = frame.shape[0]
    if basis.amp.shape[0] != n or window.shape[0] != n or t.shape[0] != n:
        raise UsageError("frame, basis, window and time axis must share sample count")
    e0 = basis.amp * np.exp(1j * basis.phase)
    return np.hstack([e0, t[:, None] * e0]), window, frame


def freq_correction(a, b):
    """The frequency-mismatch estimate (Re a Im b - Im a Re b) / (2 pi |a|^2),
    Hz, of complex amplitudes a and slopes b; 0 where |a| = 0."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    den = np.abs(a) ** 2
    num = a.real * b.imag - a.imag * b.real
    return np.divide(num, 2.0 * np.pi * den, out=np.zeros_like(num), where=den > 0)


def _real_correction(a, b):
    """eaqhm's correction of components of complex amplitudes a = (c - i s) / 2
    and slopes b, read from their real cos and sin coefficients."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return eaqhm._freq_correction(2.0 * a.real, -2.0 * a.imag, 2.0 * b.real, -2.0 * b.imag)


def complex_ls_solve(e, window, target):
    """Weighted LS of target ~ E [a; b] for a complex E, through the
    equilibrated normal equations."""
    ew = e * window[:, None]
    scale = np.linalg.norm(ew, axis=0)
    es = ew / scale
    c = cho_solve(cho_factor(es.conj().T @ es, lower=True),
                  es.conj().T @ (target * window)) / scale
    m = e.shape[1] // 2
    return c[:m], c[m:]


@dataclass(frozen=True)
class QHMFrameSolution:
    """Per-frame complex amplitudes/slopes and frequency corrections, k=0..K."""

    a: np.ndarray    # complex
    b: np.ndarray    # complex
    eta: np.ndarray  # Hz; eta[0] == 0 (the DC component gets no correction)


def _solve_mirrored(seg, cos_cols, sin_cols, window, t):
    """Solve one frame against components k=1..m plus DC through the real
    design [1 | A cos | A sin | t | t A cos | t A sin], built afresh, and map
    the coefficients back to the k=0..m half of the mirrored complex fit."""
    n, m = cos_cols.shape
    p = 2 * m + 1
    e = np.empty((n, 2 * p))
    e[:, 0] = 1.0
    e[:, 1:m + 1] = cos_cols
    e[:, m + 1:p] = sin_cols
    np.multiply(t[:, None], e[:, :p], out=e[:, p:])
    c, d = _one_frame_solve(e, window, seg)
    a = np.concatenate((c[:1], (c[1:m + 1] - 1j * c[m + 1:]) / 2.0))
    b = np.concatenate((d[:1], (d[1:m + 1] - 1j * d[m + 1:]) / 2.0))
    eta = np.concatenate(([0.0], freq_correction(a[1:], b[1:])))
    return QHMFrameSolution(a=a, b=b, eta=eta)


def _reference_ls_solve(e, window, target):
    """ls_solve as a function that leaves e alone: a fresh weighted copy of
    the design (in e's layout), an equilibrated copy of the normal equations
    and a copied factor, solved by potrf and potrs."""
    w = np.asarray(window, dtype=np.float64)
    es = e * w[:, None]
    yw = np.asarray(target, dtype=np.float64) * w
    r = es.T @ es
    rhs = es.T @ yw
    scale = np.sqrt(np.diag(r))
    scale[scale == 0.0] = 1.0
    r = r / np.multiply.outer(scale, scale)
    rhs = rhs / scale
    chol, info = dpotrf(r, lower=1)
    if info != 0:
        raise IllConditionedError("normal equations not positive definite", np.inf)
    anorm = float(np.max(np.sum(np.abs(r), axis=0)))
    rcond, info = _lapack.dpocon(chol, anorm, uplo=b"L")
    cond = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info != 0 or not np.isfinite(cond) or cond > eaqhm.COND_BOUND:
        raise IllConditionedError("condition exceeds bound", cond)
    c, info = dpotrs(chol, rhs[:, None], lower=1)
    c = c[:, 0] / scale
    m = e.shape[1] // 2
    return c[:m], c[m:]


# ---------------------------------------------------------------------------
# per-frame references: the frame layout loop, and ls_solve, init_harmonic and
# the adaptation pass as they were when every frame was its own solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Frame:
    center: int
    lo: int
    hi: int
    f0: float
    k_budget: int


def _per_frame_layout(n, fs, f0track, config):
    hop = hop_samples(config.hop_ms, fs)
    frames = []
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
        k_budget = int((eaqhm.COL_RATIO * w_eff / 2.0 - 1.0) // 2)
        if k_budget < 1:
            continue
        frames.append(_Frame(center=c, lo=lo, hi=hi, f0=f0_l, k_budget=k_budget))
    return frames


def _frames_of(layout):
    return [_Frame(*row) for row in zip(layout.center.tolist(), layout.lo.tolist(),
                                         layout.hi.tolist(), layout.f0.tolist(),
                                         layout.k_budget.tolist())]


def _per_frame_ls_solve(e, window, target):
    """One frame's solve, overwriting e; raises IllConditionedError with the
    condition estimate for a frame it does not solve."""
    n, q = e.shape
    if n < q:
        raise IllConditionedError(f"{q} columns on {n} samples", np.inf)
    w = np.asarray(window, dtype=np.float64)
    e *= w[:, None]
    yw = np.asarray(target, dtype=np.float64) * w
    r = e.T @ e
    rhs = e.T @ yw
    scale = np.sqrt(np.diag(r))
    scale[scale == 0.0] = 1.0
    r /= np.multiply.outer(scale, scale)
    rhs /= scale
    anorm = float(np.max(np.sum(np.abs(r), axis=0)))
    chol, info = dpotrf(r.T, lower=1, overwrite_a=1)
    if info != 0:
        raise IllConditionedError("normal equations not positive definite", np.inf)
    rcond, info = _lapack.dpocon(chol, anorm, uplo=b"L")
    cond = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info != 0 or not np.isfinite(cond) or cond > eaqhm.COND_BOUND:
        raise IllConditionedError("condition exceeds bound", cond)
    c, info = dpotrs(chol, rhs[:, None], lower=1)
    if info != 0:
        raise IllConditionedError("normal-equations solve failed", cond)
    c = c[:, 0] / scale
    m = q // 2
    return c[:m], c[m:]


def _per_frame_complete_design(e, t):
    p = e.shape[1] // 2
    e[:, 0] = 1.0
    np.multiply(t[:, None], e[:, :p], out=e[:, p:])


def _per_frame_init_harmonic(signal, f0track, config):
    x, fs = signal.samples, signal.fs
    frames = _per_frame_layout(x.shape[0], fs, f0track, config)
    if not frames:
        raise IllConditionedError(
            "no analysis frame satisfies the two-period window-length guard", np.inf)
    k_maxes = []
    for fr in frames:
        band = int((fs / 2.0 - eaqhm.NYQUIST_MARGIN_HZ) / fr.f0)
        k = band if config.max_partials is None else min(config.max_partials, band)
        k_maxes.append(min(k, fr.k_budget))
    k_maxes = np.array(k_maxes)
    harmonics = np.arange(1, max(0, int(k_maxes.max())) + 1, dtype=np.float64)
    cos_coef = np.full((len(frames), harmonics.shape[0]), np.nan)
    sin_coef = np.full_like(cos_coef, np.nan)
    skipped = 0
    with single_threaded_blas():
        for j in np.flatnonzero(k_maxes >= 1).tolist():
            fr, k = frames[j], int(k_maxes[j])
            w_len = fr.hi - fr.lo + 1
            t = np.arange(fr.lo - fr.center, fr.hi - fr.center + 1) / fs
            e = np.empty((2 * (2 * k + 1), w_len)).T   # the block layout: columns contiguous
            phase = np.multiply(2.0 * np.pi * fr.f0 * t[:, None], harmonics[:k])
            e[:, 1:k + 1] = np.cos(phase)
            e[:, k + 1:2 * k + 1] = np.sin(phase)
            _per_frame_complete_design(e, t)
            try:
                c, _ = _per_frame_ls_solve(e, make_window(config.init_window_kind, w_len),
                                           x[fr.lo:fr.hi + 1])
            except IllConditionedError:
                skipped += 1
                continue
            cos_coef[j, :k] = c[1:k + 1]
            sin_coef[j, :k] = c[k + 1:]
    if skipped:
        warnings.warn(f"harmonic initialization skipped {skipped} ill-conditioned "
                      f"frame(s) of {len(frames)}", RuntimeWarning, stacklevel=2)
    amps, phases = amp_phase(cos_coef, sin_coef)
    times = np.array([fr.center for fr in frames]) / fs
    f0s = np.array([fr.f0 for fr in frames])
    tracks = []
    for k in range(amps.shape[1]):
        keep = ~np.isnan(amps[:, k])
        if keep.any():
            tracks.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                       freqs=(k + 1) * f0s[keep], phases=phases[keep, k]))
    if not tracks:
        raise AnalysisError("harmonic initialization failed on every frame")
    return tracks


def _per_frame_adaptation_pass(x, fs, tracks, sampled, layout, config):
    """eaqhm._adaptation_pass with one gather, rotation and solve per frame."""
    frames = _frames_of(layout)
    n_frames, n_tracks = sampled.freq_c.shape
    budget = np.array([fr.k_budget for fr in frames], dtype=np.int64)
    if config.max_partials is not None:
        budget = np.minimum(budget, config.max_partials)
    order = np.argsort(sampled.freq_c, axis=1, kind="stable")
    below = sampled.freq_c < fs / 2.0 - eaqhm.NYQUIST_MARGIN_HZ
    count = np.minimum(np.count_nonzero(below, axis=1), budget)
    fitted = np.flatnonzero(count)
    cc, sc = eaqhm._rotation_factors(sampled.amp_c, sampled.phase_c, sampled.eps)
    coef = np.full((4, n_frames, n_tracks), np.nan)
    ill = np.zeros(n_frames, dtype=bool)
    with single_threaded_blas():
        for j in fitted.tolist():
            fr, m = frames[j], int(count[j])
            w_len = fr.hi - fr.lo + 1
            idx = order[j, :m]
            e = np.empty((2 * (2 * m + 1), w_len)).T   # the block layout: columns contiguous
            c_rows = sampled.c_rows[idx, fr.lo:fr.hi + 1].T
            s_rows = sampled.s_rows[idx, fr.lo:fr.hi + 1].T
            p = 2 * m + 1
            cos_cols, sin_cols, scratch = e[:, 1:m + 1], e[:, m + 1:p], e[:, p + 1:p + m + 1]
            np.multiply(c_rows, cc[j, idx], out=cos_cols)
            cos_cols += np.multiply(s_rows, sc[j, idx], out=scratch)
            np.multiply(s_rows, cc[j, idx], out=sin_cols)
            sin_cols -= np.multiply(c_rows, sc[j, idx], out=scratch)
            _per_frame_complete_design(e, np.arange(fr.lo - fr.center, fr.hi - fr.center + 1) / fs)
            try:
                c, d = _per_frame_ls_solve(e, make_window(eaqhm.ADAPT_WINDOW_KIND, w_len),
                                           x[fr.lo:fr.hi + 1])
            except IllConditionedError:
                ill[j] = True
                continue
            coef[0, j, idx], coef[1, j, idx] = c[1:m + 1], c[m + 1:]
            coef[2, j, idx], coef[3, j, idx] = d[1:m + 1], d[m + 1:]
    if ill[fitted].all():
        raise AnalysisError("adaptation pass failed on every frame")
    sampled.c_rows = sampled.s_rows = None
    amps, phases = amp_phase(coef[0], coef[1])
    half_f0 = np.array([fr.f0 for fr in frames])[:, None] / 2.0
    eta = np.clip(eaqhm._freq_correction(*coef), -half_f0, half_f0)
    freqs = np.clip(sampled.freq_c + eta, 1.0, fs / 2.0 - 1.0)
    kept = np.zeros_like(ill, shape=amps.shape)
    np.put_along_axis(kept, order, (np.arange(n_tracks) < count[:, None]) & ill[:, None],
                      axis=1)
    amps[kept] = sampled.amp_c[kept]
    freqs[kept] = sampled.freq_c[kept]
    phases[kept] = wrap_phase(sampled.phase_c[kept])
    times = np.array([fr.center for fr in frames], dtype=np.int64) / fs
    out = []
    for k, tr in enumerate(tracks):
        keep = ~np.isnan(amps[:, k])
        if not keep.any():
            out.append(tr)
            continue
        out.append(PartialTrack(times=times[keep], amps=amps[keep, k],
                                freqs=freqs[keep, k], phases=phases[keep, k]))
    return out


def _one_frame_solve(e, window, target):
    """ls_solve on one frame, raising IllConditionedError for a frame it
    does not solve."""
    c, d, cond = eaqhm.ls_solve(e, window, target)
    if not cond[0] <= eaqhm.COND_BOUND:
        raise IllConditionedError("frame not solved", cond[0])
    return c[0], d[0]


def _sampled(tracks, x, fs, layout):
    """`tracks` sampled over x as adapt samples them."""
    return eaqhm._render(tracks, fs, x.shape[0], layout.center, eaqhm._amp_eps(x))[1]


def _one_pass(x, fs, tracks, f0track, config):
    """One adaptation pass of `tracks`, rendered and laid out as adapt does."""
    layout = eaqhm._frame_layout(x.shape[0], fs, f0track, config)
    return eaqhm._adaptation_pass(x, fs, tracks, _sampled(tracks, x, fs, layout), layout, config)


def _const_f0(n, f0, hop=80):
    times = np.arange(0, n, hop) / FS
    return F0Track(times=times, f0=np.full(times.size, f0),
                   voiced=np.ones(times.size, dtype=bool))


def _harmonic(n, f0=150.0, k_max=5):
    t = np.arange(n) / FS
    return sum((0.5 + 0.3 / k) * np.cos(2 * np.pi * f0 * k * t + 0.2 * k)
               for k in range(1, k_max + 1))


# ---------------------------------------------------------------------------
# frequency correction identities
# ---------------------------------------------------------------------------

def test_freq_correction_zero_for_aligned_slope():
    # b a real multiple of a carries no rotation, hence no correction
    a = 0.8 * np.exp(0.9j)
    assert float(_real_correction(a, 2.5 * a)) == pytest.approx(0.0, abs=1e-15)


def test_freq_correction_recovers_known_detuning():
    # a complex exponential detuned by df has b = i*2*pi*df*a
    for df in (0.5, -12.25, 40.0):
        a = 0.8 * np.exp(0.9j)
        b = 1j * 2 * np.pi * df * a
        assert float(_real_correction(a, b)) == pytest.approx(df, rel=1e-12)


def test_freq_correction_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    base = float(_real_correction(a, b))
    for c in (2.0, -0.3, 1.7 - 2.2j):
        assert float(_real_correction(c * a, c * b)) == pytest.approx(base, rel=1e-12)


def test_freq_correction_vector_and_degenerate():
    a = np.array([1.0 + 0j, 0.0 + 0j])
    b = np.array([1j * 2 * np.pi * 3.0, 1.0 + 1j])
    out = _real_correction(a, b)
    assert out[0] == pytest.approx(3.0)
    assert out[1] == 0.0  # zero-amplitude component gets no correction


def test_real_read_out_matches_the_complex_amplitudes():
    # the anchors read from cos and sin coefficients are |2a|, arg a and the
    # complex correction of a = (c - i s) / 2 and its slope
    rng = np.random.default_rng(12)
    c_a, s_a, c_b, s_b = rng.normal(size=(4, 5, 40)) * rng.uniform(1e-6, 1e3, (4, 5, 1))
    a, b = (c_a - 1j * s_a) / 2.0, (c_b - 1j * s_b) / 2.0
    amps, phases = amp_phase(c_a, s_a)
    np.testing.assert_allclose(amps, 2.0 * np.abs(a), rtol=1e-15, atol=0)
    np.testing.assert_allclose(phases, np.angle(a), rtol=1e-15, atol=0)
    np.testing.assert_allclose(eaqhm._freq_correction(c_a, s_a, c_b, s_b),
                               freq_correction(a, b), rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# LS system
# ---------------------------------------------------------------------------

def test_build_ls_system_layout():
    n, m = 32, 3
    rng = np.random.default_rng(0)
    amp = rng.uniform(0.5, 1.5, (n, m))
    phase = rng.uniform(-3, 3, (n, m))
    t = (np.arange(n) - n // 2) / FS
    e, w, y = build_ls_system(np.zeros(n), BasisFunctionSet(amp=amp, phase=phase),
                              np.ones(n), t)
    assert e.shape == (n, 2 * m)
    np.testing.assert_allclose(e[:, :m], amp * np.exp(1j * phase))
    np.testing.assert_allclose(e[:, m:], t[:, None] * e[:, :m])
    with pytest.raises(UsageError):
        build_ls_system(np.zeros(n - 1), BasisFunctionSet(amp=amp, phase=phase),
                        np.ones(n), t)


def test_ls_solve_recovers_coefficients():
    n = 200
    t = (np.arange(n) - n // 2) / FS
    w1, w2 = 2 * np.pi * 300.0, 2 * np.pi * 900.0
    # the real twin of the conjugate-mirrored basis: 2 Re(a e^{iwt}) is
    # 2 Re(a) cos(wt) - 2 Im(a) sin(wt)
    e = np.stack([np.cos(w1 * t), np.sin(w1 * t), np.cos(w2 * t), np.sin(w2 * t)],
                 axis=1)
    e = np.hstack([e, t[:, None] * e])
    a = np.array([0.4 * np.exp(0.3j), 0.25 * np.exp(-1.0j)])
    b = np.array([2.0 * np.exp(0.1j), -1.5 * np.exp(0.6j)])

    def real_coeffs(z):
        return np.stack([2 * z.real, -2 * z.imag], axis=1).ravel()

    y = e @ np.concatenate([real_coeffs(a), real_coeffs(b)])
    c, d, cond = ls_solve(e, np.hamming(n), y)
    assert c.shape == d.shape == (1, 4) and cond[0] <= eaqhm.COND_BOUND
    c, d = c[0], d[0]
    a_est = (c[0::2] - 1j * c[1::2]) / 2
    b_est = (d[0::2] - 1j * d[1::2]) / 2
    np.testing.assert_allclose(a_est, a, atol=1e-10)
    np.testing.assert_allclose(b_est, b, atol=1e-7)


def test_ls_solve_rejects_degenerate_basis():
    n = 64
    t = (np.arange(n) - n // 2) / FS
    col = np.cos(2 * np.pi * 100.0 * t)
    e = np.stack([col, col], axis=1)  # duplicated column
    c, d, cond = ls_solve(e, np.ones(n), col)
    assert cond[0] > 1e10 or np.isinf(cond[0])
    assert np.isnan(c).all() and np.isnan(d).all()
    c, d, cond = ls_solve(np.ones((3, 4)), np.ones(3), np.ones(3))  # more columns than samples
    assert np.isinf(cond[0])
    assert np.isnan(c).all() and np.isnan(d).all()


@pytest.mark.parametrize("shape", [(321, 174), (200, 6), (640, 30)])
def test_ls_solve_matches_the_non_mutating_reference(shape):
    rng = np.random.default_rng(shape[1])
    n, q = shape
    t = (np.arange(n) - n // 2) / FS
    e = rng.normal(size=(q, n)).T   # the block layout: columns contiguous
    e[:, q // 2:] = t[:, None] * e[:, :q // 2]   # slope half, as in the frame designs
    w, y = np.hamming(n), rng.normal(size=n)
    want = _reference_ls_solve(e, w, y)
    got = ls_solve(e.T.copy().T, w, y)
    for g, r in zip(got, want):
        assert g[0].tobytes() == r.tobytes()


def test_ls_solve_reports_the_reference_condition():
    n = 64
    t = (np.arange(n) - n // 2) / FS
    col = np.cos(2 * np.pi * 100.0 * t)
    # nearly dependent columns: factorable, but past COND_BOUND
    e = np.stack([col, col + 1e-7 * np.sin(2 * np.pi * 900.0 * t), np.ones(n)], axis=1)
    e = np.hstack([e, t[:, None] * e[:, :1]])
    with pytest.raises(IllConditionedError) as want:
        _reference_ls_solve(e, np.hamming(n), col)
    c, d, cond = ls_solve(e.copy(), np.hamming(n), col)
    assert np.isfinite(want.value.condition) and want.value.condition > eaqhm.COND_BOUND
    assert cond[0] == want.value.condition
    assert np.isnan(c).all() and np.isnan(d).all()


def test_ls_solve_allocates_no_design_sized_temporaries():
    import tracemalloc

    rng = np.random.default_rng(2)
    for n, g, q in ((321, 1, 174), (215, 2, 138)):
        # a block's designs as the fit stage passes them: the (G*n, q)
        # transpose of a (q, G*n) buffer
        e = rng.normal(size=(q, g * n)).T
        w, y = np.hamming(n), rng.normal(size=g * n)
        tracemalloc.start()
        try:
            ls_solve(e, w, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the normal matrices are the one G x q x q array; weighting, the
        # scale's outer product, |r| and the factors reuse e or r (one copy
        # of e would take G * n * q * 8 bytes)
        assert peak < g * q * q * 8 + g * n * q * 8 / 4, (n, g, q)


@pytest.mark.parametrize("n, g, q", [(481, 22, 6), (641, 17, 6), (321, 34, 6), (320, 8, 6),
                                     (336, 6, 6), (352, 5, 6), (215, 2, 138), (223, 2, 146),
                                     (321, 1, 210), (267, 1, 174)])
def test_interleaved_frame_products_match_contiguous_frames(n, g, q):
    # ls_solve forms each frame's Gram matrix and right-hand side on the
    # (q, n) view of a frame in the (q, G, n) block, whose row stride is G*n;
    # the blocks' bitwise equality with per-frame solves rests on BLAS
    # summing such a view as it sums the contiguous (q, n) frame (block
    # shapes of the benchmark workloads)
    rng = np.random.default_rng(g * q)
    frames = rng.normal(size=(q, g, n)).transpose(1, 0, 2)
    contiguous = np.ascontiguousarray(frames)
    yw = rng.normal(size=(g, n, 1))
    for name, a, b in (("Gram matrix", frames, frames), ("right-hand side", frames, yw)):
        got = np.matmul(a, b.transpose(0, 2, 1) if b is frames else b)
        want = np.matmul(contiguous, contiguous.transpose(0, 2, 1) if b is frames else yw)
        assert got.tobytes() == want.tobytes(), (
            f"the {name} of a frame view of a (q, G, n) = {(q, g, n)} block is not "
            "bitwise that of the contiguous frame: this numpy/OpenBLAS sums strided "
            "operands differently, so eaqhm's stacked solves no longer equal "
            "per-frame solves")


def test_ls_solve_rejects_complex_design():
    e = np.ones((8, 2), dtype=np.complex128)
    with pytest.raises(UsageError):
        ls_solve(e, np.ones(8), np.ones(8))


def test_real_frame_design_matches_complex_mirrored_system():
    # the frame solver's real design must give the same a, b and eta as the
    # conjugate-mirrored complex system [conj psi_m..conj psi_1 | 1 | psi_1..psi_m]
    rng = np.random.default_rng(11)
    n, m = 321, 52
    t = (np.arange(n) - n // 2) / FS
    amp = rng.uniform(0.5, 1.5, (n, m))
    phase = (2 * np.pi * 140.0 * t[:, None] * np.arange(1, m + 1)
             + rng.normal(0.0, 0.01, (n, m)))
    seg = rng.normal(size=n)
    w = np.hamming(n)
    sol = _solve_mirrored(seg, amp * np.cos(phase), amp * np.sin(phase), w, t)

    amp_full = np.hstack([amp[:, ::-1], np.ones((n, 1)), amp])
    phase_full = np.hstack([-phase[:, ::-1], np.zeros((n, 1)), phase])
    e, w_, y = build_ls_system(seg, BasisFunctionSet(amp=amp_full, phase=phase_full),
                               w, t)
    a_full, b_full = complex_ls_solve(e, w_, y)
    a, b = a_full[m:], b_full[m:]
    eta = np.concatenate(([0.0], freq_correction(a[1:], b[1:])))
    for got, want in ((sol.a, a), (sol.b, b), (sol.eta, eta)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# adaptation pass against a per-frame cos(phase - phase_c) reference
# ---------------------------------------------------------------------------

def test_rotated_columns_match_direct_trig_over_60s():
    # phases reach 3e6 rad over 60 s; rotating the once-sampled (A+eps) cos/sin
    # rows by the center phase must match cos/sin of the phase difference
    f = np.array([7900.0, 4000.5, 123.4])
    f_am = np.array([0.7, 2.0, 5.0])
    top = 0.0
    for center in np.linspace(160, 60 * FS - 161, 40).astype(int):
        t = np.arange(center - 160, center + 161) / FS   # one 321-sample frame
        phase = 2 * np.pi * f[:, None] * t + 0.3 * np.sin(2 * np.pi * 3.0 * t)
        amp = 1.0 + 0.5 * np.cos(2 * np.pi * f_am[:, None] * t)
        top = max(top, phase.max())
        design = np.empty((2 * (2 * 3 + 1), 1, 321))   # one frame's (q, G, n) design
        cc, sc = eaqhm._rotation_factors(amp[:, 160], phase[:, 160], eaqhm._AMP_EPS)
        eaqhm._rotate_into(design.transpose(1, 0, 2),
                           (amp + eaqhm._AMP_EPS)[None] * np.cos(phase),
                           (amp + eaqhm._AMP_EPS)[None] * np.sin(phase),
                           cc[None, :, None], sc[None, :, None])
        times = (np.arange(321) - 160) / FS
        eaqhm._complete_design(design, times)
        e = design[:, 0].T
        cos_cols, sin_cols = e[:, 1:4], e[:, 4:7]
        # the DC column and the slope twins, bit for bit
        assert (e[:, 0] == 1.0).all() and (e[:, 7] == times).all()
        assert (e[:, 8:14] == times[:, None] * e[:, 1:7]).all()
        ratio = ((amp + eaqhm._AMP_EPS) / (amp[:, 160:161] + eaqhm._AMP_EPS)).T
        diff = (phase - phase[:, 160:161]).T
        np.testing.assert_allclose(cos_cols, ratio * np.cos(diff), rtol=0, atol=1e-8)
        np.testing.assert_allclose(sin_cols, ratio * np.sin(diff), rtol=0, atol=1e-8)
    assert top > 2.9e6


def _reference_adaptation_pass(x, fs, tracks, f0track, config):
    """One adaptation pass that samples every track, then builds each frame's
    columns from cos and sin of its own (phase - center phase) block and keeps
    per-track anchor lists."""
    n = x.shape[0]
    sampled = [sample_track(tr, fs, 0, n - 1) for tr in tracks]
    amp_all = np.array([s[0] for s in sampled])
    freq_all = np.array([s[1] for s in sampled])
    phase_all = np.array([s[2] for s in sampled])
    f_ceiling = fs / 2.0 - eaqhm.NYQUIST_MARGIN_HZ
    # the amplitude guard, scaled by the power of two of the input's peak
    eps = np.ldexp(eaqhm._AMP_EPS, np.frexp(np.max(np.abs(x)))[1])
    anchors = {}
    for fr in _per_frame_layout(n, fs, f0track, config):
        eligible = [k for k in range(len(tracks)) if freq_all[k, fr.center] < f_ceiling]
        eligible.sort(key=lambda k: freq_all[k, fr.center])
        budget = fr.k_budget if config.max_partials is None \
            else min(config.max_partials, fr.k_budget)
        eligible = eligible[:budget]
        if not eligible:
            continue
        t = (np.arange(fr.lo, fr.hi + 1) - fr.center) / fs
        w = make_window(eaqhm.ADAPT_WINDOW_KIND, fr.hi - fr.lo + 1)
        amp_cols = amp_all[eligible, fr.lo:fr.hi + 1].T
        amp_cols = (amp_cols + eps) / (amp_cols[fr.center - fr.lo] + eps)
        phase_cols = phase_all[eligible, fr.lo:fr.hi + 1].T - phase_all[eligible, fr.center]
        t_c = fr.center / fs
        try:
            sol = _solve_mirrored(x[fr.lo:fr.hi + 1], amp_cols * np.cos(phase_cols),
                                  amp_cols * np.sin(phase_cols), w, t)
        except IllConditionedError:
            for k in eligible:
                anchors.setdefault(k, []).append(
                    (t_c, amp_all[k, fr.center], freq_all[k, fr.center],
                     float(wrap_phase(phase_all[k, fr.center]))))
            continue
        eta = np.clip(sol.eta[1:], -fr.f0 / 2.0, fr.f0 / 2.0)
        for j, k in enumerate(eligible):
            a_k = sol.a[j + 1]
            new_f = float(np.clip(freq_all[k, fr.center] + eta[j], 1.0, fs / 2.0 - 1.0))
            anchors.setdefault(k, []).append((t_c, 2.0 * abs(a_k), new_f, float(np.angle(a_k))))
    out = []
    for k, tr in enumerate(tracks):
        if k not in anchors:
            out.append(tr)
            continue
        arr = np.asarray(anchors[k])
        out.append(PartialTrack(times=arr[:, 0], amps=arr[:, 1], freqs=arr[:, 2],
                                phases=arr[:, 3]))
    return out


def test_adaptation_pass_matches_per_frame_reference(monkeypatch):
    sig, _ = gen_amfm(AMFMSpec(n_partials=4, f0=220.0, f_c=4.0, rho=0.6,
                               duration=2.0, fs=FS))
    f0t = estimate_f0(sig, f_min=150.0, f_max=320.0)
    cfg = EaQHMConfig()  # no partial cap, so only the Nyquist margin excludes `above`
    # four harmonic tracks plus one above the Nyquist margin
    above = PartialTrack(times=[0.0, 2.0], amps=[0.1, 0.1], freqs=[7900.0, 7900.0],
                         phases=[0.0, 0.0])
    tracks = init_harmonic(sig, f0t, EaQHMConfig(max_partials=4)) + [above]
    calls = {"n": 0}
    solve = eaqhm.ls_solve
    layout = eaqhm._frame_layout(sig.samples.shape[0], FS, f0t, cfg)
    forced_samples = sig.samples[layout.lo[699]:layout.hi[699] + 1]

    def refuse_one(e, window, target):
        # the 700th frame of a pass is ill-conditioned; a block's frames are
        # told apart by their samples, which the target holds frame after frame
        c, d, cond = solve(e, window, target)
        frames = target.reshape(-1, len(window))
        calls["n"] += frames.shape[0]
        if frames.shape[1] == forced_samples.shape[0]:
            hit = (frames == forced_samples).all(axis=1)
            c[hit], d[hit], cond[hit] = np.nan, np.nan, np.inf
        return c, d, cond

    monkeypatch.setattr(eaqhm, "ls_solve", refuse_one)
    got = _one_pass(sig.samples, FS, tracks, f0t, cfg)
    assert calls["n"] > 700
    calls["n"] = 0
    want = _reference_adaptation_pass(sig.samples, FS, tracks, f0t, cfg)
    assert len(got) == len(want) == 5
    assert got[4] is above and want[4] is above
    # every frame has eligible tracks here, so frame 700 is solved
    forced = int(layout.center[699])
    for g, r, tr in zip(got[:4], want[:4], tracks):
        np.testing.assert_array_equal(g.times, r.times)
        np.testing.assert_allclose(g.freqs, r.freqs, rtol=0, atol=1e-9)
        np.testing.assert_allclose(g.amps, r.amps, rtol=0, atol=1e-9)
        assert np.max(np.abs(wrap_phase(g.phases - r.phases))) <= 1e-9
        # the forced frame keeps the previous iterate's values
        j = int(np.flatnonzero(g.times == forced / FS)[0])
        amp, freq, phase = sample_track(tr, FS, forced, forced)
        assert (g.amps[j], g.freqs[j]) == (amp[0], freq[0])
        assert g.phases[j] == pytest.approx(float(wrap_phase(phase[0])), abs=1e-12)


def test_pass_alternating_narrow_and_wide_windows_matches_reference():
    # frames alternate 321- and 161-sample windows, so every design view of
    # the pass buffer follows one of the other size
    sig, _ = gen_amfm(AMFMSpec(n_partials=4, f0=220.0, f_c=4.0, rho=0.6,
                               duration=0.3, fs=FS))
    x = sig.samples
    tracks = init_harmonic(sig, estimate_f0(sig, f_min=150.0, f_max=320.0),
                           EaQHMConfig(max_partials=4))
    times = np.arange(0, x.shape[0], 16) / FS
    f0t = F0Track(times=times, f0=np.where(np.arange(times.size) % 2, 300.0, 150.0),
                  voiced=np.ones(times.size, dtype=bool))
    cfg = EaQHMConfig(max_partials=6)
    layout = eaqhm._frame_layout(x.shape[0], FS, f0t, cfg)
    widths = (layout.hi - layout.lo + 1).tolist()
    assert set(zip(widths[50:-50], widths[51:-49])) == {(321, 161), (161, 321)}
    got = _one_pass(x, FS, tracks, f0t, cfg)
    want = _reference_adaptation_pass(x, FS, tracks, f0t, cfg)
    assert len(got) == len(want) == len(tracks)
    for g, r in zip(got, want):
        np.testing.assert_array_equal(g.times, r.times)
        np.testing.assert_allclose(g.freqs, r.freqs, rtol=0, atol=1e-9)
        np.testing.assert_allclose(g.amps, r.amps, rtol=0, atol=1e-9)
        assert np.max(np.abs(wrap_phase(g.phases - r.phases))) <= 1e-9


# ---------------------------------------------------------------------------
# frames solved as stacked blocks against the per-frame references
# ---------------------------------------------------------------------------

def _same_tracks(got, want):
    assert len(got) == len(want)
    for g, r in zip(got, want):
        for name in ("times", "amps", "freqs", "phases"):
            assert getattr(g, name).tobytes() == getattr(r, name).tobytes()


def _outcome(fn, *args):
    """fn's result, or the type and message of the SineModelError it raised,
    with the RuntimeWarnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except AnalysisError as err:
            result = (type(err), str(err))
    return result, [str(w.message) for w in caught if w.category is RuntimeWarning]


def _varying_f0(duration, phase):
    times = np.arange(0.0, duration + 0.01, 0.005)
    return F0Track(times=times, f0=170.0 + 60.0 * np.sin(2 * np.pi * 9.0 * times + phase),
                   voiced=np.ones(times.size, dtype=bool))


def _shadow(track):
    """A copy of track whose amplitude zigzags over its second half: where
    both are fitted in the first half, a frame has two equal columns."""
    amps = track.amps.copy()
    amps[amps.size // 2:] *= np.where(np.arange(amps.size - amps.size // 2) % 2, 1.5, 0.5)
    return PartialTrack(times=track.times, amps=amps, freqs=track.freqs, phases=track.phases)


def test_frame_layout_matches_the_loop_reference():
    sig = gen_amfm(AMFMSpec(duration=0.4, seed=3))[0]
    n = sig.samples.shape[0]
    tracks = (estimate_f0(sig, *PITCH_BAND_HZ), _varying_f0(0.4, 1.0),
              F0Track(times=np.array([0.0, 0.2, 0.4]), f0=np.array([150.0, 0.0, 90.0]),
                      voiced=np.array([True, False, True])))
    configs = (EaQHMConfig(), EaQHMConfig(window_periods=1.3, hop_ms=0.7),
               EaQHMConfig(window_samples=160, f_guard_hz=1000.0),
               EaQHMConfig(window_samples=41), EaQHMConfig(window_samples=20000))
    for f0t in tracks:
        for cfg in configs:
            layout = eaqhm._frame_layout(n, FS, f0t, cfg)
            assert _frames_of(layout) == _per_frame_layout(n, FS, f0t, cfg)
            assert layout.center.dtype == layout.k_budget.dtype == np.int64


def test_blocks_group_frames_by_width_and_count():
    sig = gen_amfm(AMFMSpec(duration=0.3, seed=3))[0]
    n = sig.samples.shape[0]
    f0t = estimate_f0(sig, *PITCH_BAND_HZ)
    for cfg, split in ((EaQHMConfig(), None),
                       (EaQHMConfig(window_samples=161, f_guard_hz=1000.0), 5)):
        layout = eaqhm._frame_layout(n, FS, f0t, cfg)
        counts = np.minimum(layout.k_budget, 1 if split else 40)
        counts[::3] = 0   # frames with nothing to fit are left out
        fitted = np.flatnonzero(counts)
        budget = eaqhm.FRAME_BLOCK if split is None else split * 161 * 6
        with mock.patch.object(eaqhm, "FRAME_BLOCK", budget):
            blocks = eaqhm._blocks(layout, fitted, counts)
        assert sorted(np.concatenate([b.frames for b in blocks]).tolist()) == fitted.tolist()
        for b in blocks:
            assert np.all(np.diff(b.frames) > 0)
            assert (layout.hi[b.frames] - layout.lo[b.frames] + 1 == b.n).all()
            assert (counts[b.frames] == b.m).all()
            assert b.frames.shape[0] == 1 or b.frames.shape[0] * b.n * b.q <= budget
        sizes = [b.frames.shape[0] for b in blocks if b.n == 161]
        if split is None:
            assert 1 in [b.frames.shape[0] for b in blocks]   # pitch-adaptive: groups of one
        else:
            # the interior frames share one key and are cut every `split` frames
            assert sizes[:-1] == [split] * (len(sizes) - 1) and 0 < sizes[-1] <= split
            assert any(b.n < 161 for b in blocks)   # clipped edge frames


def test_start_and_end_clipped_frames_of_one_width_share_a_block():
    # 321-sample windows every 16 samples over 16*100 + 1 samples: the first
    # frame (center 0) and the last (center n - 1) are both clipped to 161
    # samples, on opposite sides of their centers
    n = 1601
    sig = SampledSignal(samples=_harmonic(n, k_max=3), fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(window_samples=321, f_guard_hz=1000.0, max_partials=3)
    layout = eaqhm._frame_layout(n, FS, f0t, cfg)
    assert layout.center[0] == 0 and layout.center[-1] == n - 1
    assert layout.hi[0] - layout.lo[0] == layout.hi[-1] - layout.lo[-1] == 160
    shared = []
    real_blocks = eaqhm._blocks

    def record(*args):
        blocks = real_blocks(*args)
        shared.append(any({0, len(layout) - 1} <= set(b.frames.tolist()) for b in blocks))
        return blocks

    with mock.patch.object(eaqhm, "_blocks", record):
        got = init_harmonic(sig, f0t, cfg)
        _same_tracks(got, _per_frame_init_harmonic(sig, f0t, cfg))
        tracks = got + [_shadow(got[0])]
        got = eaqhm._adaptation_pass(sig.samples, FS, tracks,
                                     _sampled(tracks, sig.samples, FS, layout), layout, cfg)
    want = _per_frame_adaptation_pass(sig.samples, FS, tracks,
                                      _sampled(tracks, sig.samples, FS, layout), layout, cfg)
    assert shared == [True, True]
    _same_tracks(got, want)
    # both edge frames are solved, in the pass as in the initialization
    assert all(tr.times[0] == 0.0 and tr.times[-1] == (n - 1) / FS for tr in got + tracks)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(g=st.integers(1, 5), n=st.integers(1, 40), m=st.integers(0, 4),
       kinds=st.lists(st.sampled_from(["plain", "zero", "duplicate", "near", "scaled"]),
                      min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 16))
def test_stacked_ls_solve_matches_the_per_frame_reference(g, n, m, kinds, seed):
    rng = np.random.default_rng(seed)
    q = 2 * (2 * m + 1)
    t = (np.arange(n) - n // 2) / FS
    e = rng.normal(size=(g, n, q))
    e[..., q // 2:] = t[:, None] * e[..., :q // 2]   # slope half, as in the frame designs
    for i, kind in enumerate(kinds[:g]):
        a, b = rng.choice(q, 2, replace=False)
        if kind == "zero":
            e[i, :, a] = 0.0
        elif kind == "duplicate":
            e[i, :, b] = e[i, :, a]
        elif kind == "near":
            e[i, :, b] = e[i, :, a] + 1e-7 * rng.normal(size=n)
        elif kind == "scaled":
            e[i] *= 10.0 ** rng.uniform(-6, 6, size=q)
    w, y = np.hamming(n), rng.normal(size=g * n)
    # frame i's sample j is row i*n + j of the design and target; the design
    # is the transpose of a (q, G*n) buffer, as the fit stage passes it
    c, d, cond = ls_solve(np.ascontiguousarray(e.transpose(2, 0, 1)).reshape(q, g * n).T, w, y)
    assert c.shape == d.shape == (g, q // 2) and cond.shape == (g,)
    for i in range(g):
        try:
            want = _per_frame_ls_solve(e[i].T.copy().T, w, y[i * n:(i + 1) * n])
        except IllConditionedError as err:
            assert cond[i] == err.condition
            assert np.isnan(c[i]).all() and np.isnan(d[i]).all()
            continue
        assert cond[i] <= eaqhm.COND_BOUND
        assert c[i].tobytes() == want[0].tobytes() and d[i].tobytes() == want[1].tobytes()


def test_ls_solve_rejects_mismatched_stacks():
    e = np.ones((12, 4))
    for window, target in ((np.ones(5), np.ones(12)), (np.ones(4), np.ones(11)),
                           (np.ones((2, 2)), np.ones(12)), (np.ones(0), np.ones(12))):
        with pytest.raises(UsageError):
            ls_solve(e, window, target)
    with pytest.raises(UsageError):   # odd column count
        ls_solve(np.ones((12, 3)), np.ones(4), np.ones(12))
    with pytest.raises(UsageError):   # one frame is a 2-D design
        ls_solve(np.ones(4), np.ones(4), np.ones(4))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(fs=st.sampled_from([8000.0, 16000.0]),
       window=st.sampled_from([None, 65, 97, 160]),
       guard=st.sampled_from([None, 1000.0]),
       partials=st.sampled_from([None, 1, 3]),
       block=st.sampled_from([1, 700, 5000, eaqhm.FRAME_BLOCK]),
       shadow=st.booleans(), seed=st.integers(0, 3))
def test_blocked_loops_match_the_per_frame_references(fs, window, guard, partials, block,
                                                       shadow, seed):
    sig = gen_amfm(AMFMSpec(n_partials=3, f0=170.0, f_c=4.0, rho=0.6, duration=0.05,
                            fs=fs, seed=seed))[0]
    x, n = sig.samples, sig.samples.shape[0]
    f0t = _varying_f0(0.05, seed)
    cfg = EaQHMConfig(window_samples=window, f_guard_hz=guard, max_partials=partials)
    with mock.patch.object(eaqhm, "FRAME_BLOCK", block):
        got, got_warned = _outcome(init_harmonic, sig, f0t, cfg)
        want, want_warned = _outcome(_per_frame_init_harmonic, sig, f0t, cfg)
        assert got_warned == want_warned
        if isinstance(want, tuple):
            assert got == want
            return
        _same_tracks(got, want)
        tracks = want + [_shadow(want[0])] if shadow else want
        layout = eaqhm._frame_layout(n, fs, f0t, cfg)
        got = _outcome(eaqhm._adaptation_pass, x, fs, tracks,
                       _sampled(tracks, x, fs, layout), layout, cfg)[0]
        want = _outcome(_per_frame_adaptation_pass, x, fs, tracks,
                        _sampled(tracks, x, fs, layout), layout, cfg)[0]
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_tracks(got, want)


def test_blocked_pass_keeps_ill_frames_like_the_reference():
    sig = gen_amfm(AMFMSpec(n_partials=3, f0=170.0, f_c=4.0, rho=0.6, duration=0.1, fs=FS))[0]
    x, n = sig.samples, sig.samples.shape[0]
    f0t = _varying_f0(0.1, 0.0)
    cfg = EaQHMConfig(window_samples=161, max_partials=2)
    init = init_harmonic(sig, f0t, cfg)
    tracks = init + [_shadow(init[0])]
    layout = eaqhm._frame_layout(n, FS, f0t, cfg)
    solved = []
    real = eaqhm.ls_solve

    def record(e, window, target):
        c, d, cond = real(e, window, target)
        solved.extend((cond <= eaqhm.COND_BOUND).tolist())
        return c, d, cond

    with mock.patch.object(eaqhm, "ls_solve", record):
        got = eaqhm._adaptation_pass(x, FS, tracks, _sampled(tracks, x, FS, layout), layout, cfg)
    assert 0 < solved.count(False) < len(solved)   # blocks mix solved and ill frames
    want = _per_frame_adaptation_pass(x, FS, tracks, _sampled(tracks, x, FS, layout), layout, cfg)
    _same_tracks(got, want)


def test_init_leaves_frames_above_the_band_unfitted_like_the_reference():
    # at 7,900 Hz no harmonic lies below the Nyquist margin: such a frame is
    # neither solved nor counted as skipped
    n = 1600
    sig = SampledSignal(samples=np.random.default_rng(0).normal(size=n), fs=FS)
    times = np.arange(0, n, 80) / FS
    f0t = F0Track(times=times, f0=np.where(np.arange(times.size) % 2, 7900.0, 200.0),
                  voiced=np.ones(times.size, dtype=bool))
    cfg = EaQHMConfig(window_samples=401)
    layout = eaqhm._frame_layout(n, FS, f0t, cfg)
    above = layout.f0 > FS / 2.0 - eaqhm.NYQUIST_MARGIN_HZ
    assert 0 < np.count_nonzero(above) < len(layout)
    got, got_warned = _outcome(init_harmonic, sig, f0t, cfg)
    want, want_warned = _outcome(_per_frame_init_harmonic, sig, f0t, cfg)
    assert got_warned == want_warned == []
    _same_tracks(got, want)


def test_every_frame_fit_runs_through_the_one_block_stage(monkeypatch):
    n = 3200
    sig = SampledSignal(samples=_harmonic(n, k_max=3), fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(max_partials=3, max_adaptations=2)
    want_init = init_harmonic(sig, _const_f0(n, 151.5), cfg)   # detuned: adapt runs
    want = adapt(sig, want_init, f0t, cfg)
    depth, solves, fits = [0], [], []
    real_fit, real_solve = eaqhm._fit_frames, eaqhm.ls_solve

    def fit(*args):
        depth[0] += 1
        before = len(solves)
        try:
            return real_fit(*args)
        finally:
            depth[0] -= 1
            fits.append(len(solves) - before)

    def solve(*args):
        solves.append(depth[0])
        return real_solve(*args)

    monkeypatch.setattr(eaqhm, "_fit_frames", fit)
    monkeypatch.setattr(eaqhm, "ls_solve", solve)
    # a block of five interior frames (321 samples, 3 components)
    monkeypatch.setattr(eaqhm, "FRAME_BLOCK", 5 * 321 * 14)
    got_init = init_harmonic(sig, _const_f0(n, 151.5), cfg)
    assert len(fits) == 1
    got = adapt(sig, got_init, f0t, cfg)
    assert got.iteration >= 1 and len(fits) == 1 + got.iteration
    assert set(solves) == {1}   # every solve inside a _fit_frames call
    assert min(fits) > 1        # several blocks per fit
    _same_tracks(got_init, want_init)
    _same_tracks(got.tracks, want.tracks)
    assert repr(got.srer_history) == repr(want.srer_history)


@pytest.mark.parametrize("fs", [8000.0, 44100.0, 48000.0])
def test_eaqhm_at_other_rates_matches_the_per_frame_reference(fs, monkeypatch):
    sig = gen_amfm(AMFMSpec(duration=0.03, fs=fs, seed=2))[0]
    n = sig.samples.shape[0]
    f0track = estimate_f0(sig, *PITCH_BAND_HZ)
    # the protocol (full band), cut to one pass to keep the wide solves short
    cfg = replace(MODEL_TABLE["eaqhm"].config(sig, f0track, None, None), max_adaptations=1)
    srer_db, state, y, _ = run_model("eaqhm", sig, f0track, cfg)
    assert np.isfinite(srer_db) and state.iteration == 1
    monkeypatch.setattr(eaqhm, "_adaptation_pass", _per_frame_adaptation_pass)
    want = adapt(sig, _per_frame_init_harmonic(sig, f0track, cfg), f0track, cfg)
    _same_tracks(state.tracks, want.tracks)
    assert (state.iteration, repr(state.srer_history)) == (want.iteration,
                                                           repr(want.srer_history))
    assert y.tobytes() == synthesize_tracks(want.tracks, n, fs).tobytes()
    assert repr(srer_db) == repr(srer(sig.samples, y))


# ---------------------------------------------------------------------------
# BLAS threading around the frame loops
# ---------------------------------------------------------------------------

def blas_thread_counts():
    """Current thread count of every loaded OpenBLAS build, by library path."""
    return {path: get() for path, (get, _) in _blas._loaded_controls().items()}


needs_openblas = pytest.mark.skipif(not blas_thread_counts(),
                                    reason="no OpenBLAS thread-count symbol loaded")


@needs_openblas
def test_frame_loops_restore_blas_thread_counts(monkeypatch, tmp_path):
    from sinemodel import audio_io
    from sinemodel.generators import ChirpSpec, gen_stationary_plus_chirp
    from sinemodel.harness import SweepSpec, run_window_sweep

    before = blas_thread_counts()
    n = 3200
    sig = SampledSignal(samples=_harmonic(n, k_max=3), fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(max_partials=3, max_adaptations=1)
    tracks = init_harmonic(sig, _const_f0(n, 151.5), cfg)  # detuned: adapt runs
    assert blas_thread_counts() == before
    adapt(sig, tracks, f0t, cfg)
    assert blas_thread_counts() == before

    inside = []

    def refuse(e, window, target):
        # every frame of every block is ill-conditioned
        inside.append(blas_thread_counts())
        g, half = e.shape[0] // len(window), e.shape[1] // 2
        return np.full((g, half), np.nan), np.full((g, half), np.nan), np.full(g, np.inf)

    monkeypatch.setattr(eaqhm, "ls_solve", refuse)
    with pytest.raises(AnalysisError), pytest.warns(RuntimeWarning, match="skipped"):
        init_harmonic(sig, f0t, cfg)
    assert blas_thread_counts() == before
    with pytest.raises(AnalysisError):
        adapt(sig, tracks, f0t, cfg)
    assert blas_thread_counts() == before
    assert inside and all(set(c.values()) == {1} for c in inside)
    monkeypatch.undo()

    # a sweep of eaqhm cells
    signal, _ = gen_stationary_plus_chirp(ChirpSpec(
        stationary_duration=0.15, chirp_duration=0.15, chirp_f_end=235.0))
    path = tmp_path / "chirp.wav"
    audio_io.write_wav(path, SampledSignal(samples=0.5 * signal.samples, fs=FS))
    curve = run_window_sweep(SweepSpec(source=str(path), models=("eaqhm",),
                                       multiples=(2.0, 3.0, 4.0), t_min_s=0.01,
                                       partials={"eaqhm": 1}))
    assert [c.status for c in curve.rows] == ["ok"] * 3
    assert blas_thread_counts() == before


@needs_openblas
def test_blas_limit_held_until_last_concurrent_caller_leaves():
    before = blas_thread_counts()
    entered, release_first, first_left = (threading.Event() for _ in range(3))

    def first():
        with single_threaded_blas():
            entered.set()
            release_first.wait(10)
        first_left.set()

    worker = threading.Thread(target=first)
    worker.start()
    assert entered.wait(10)
    with single_threaded_blas():
        release_first.set()
        assert first_left.wait(10)
        assert set(blas_thread_counts().values()) == {1}
    worker.join(10)
    assert not worker.is_alive()
    assert blas_thread_counts() == before


@needs_openblas
def test_blas_limit_under_many_concurrent_callers():
    before = blas_thread_counts()
    seen = []

    def worker():
        for _ in range(50):
            with single_threaded_blas():
                seen.append(set(blas_thread_counts().values()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 50 and all(s == {1} for s in seen)
    assert blas_thread_counts() == before


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_harmonic_recovers_exact_harmonics():
    n = 6400
    x = _harmonic(n)
    sig = SampledSignal(samples=x, fs=FS)
    tracks = init_harmonic(sig, _const_f0(n, 150.0), EaQHMConfig(max_partials=5))
    assert len(tracks) == 5
    for k, tr in enumerate(tracks, start=1):
        assert np.allclose(tr.freqs, 150.0 * k)
        assert np.max(np.abs(tr.amps - (0.5 + 0.3 / k))) < 1e-3
    y = synthesize_tracks(tracks, n, FS)
    assert srer(x, y) > 60.0


def test_init_harmonic_requires_voiced_frames():
    n = 4000
    track = F0Track(times=np.array([0.0, 0.1]), f0=np.array([100.0, 100.0]),
                    voiced=np.array([False, False]))
    with pytest.raises(AnalysisError):
        init_harmonic(SampledSignal(samples=np.ones(n), fs=FS), track,
                      EaQHMConfig())


def test_window_guard_rejects_short_frames():
    n = 4000
    x = _harmonic(n)
    # 2 periods of 150 Hz need 213 samples; a 101-sample window cannot pass
    with pytest.raises(IllConditionedError):
        init_harmonic(SampledSignal(samples=x, fs=FS), _const_f0(n, 150.0),
                      EaQHMConfig(window_samples=101))


def test_config_validation():
    with pytest.raises(UsageError):
        EaQHMConfig(max_adaptations=-1)
    with pytest.raises(UsageError):
        EaQHMConfig(window_periods=0.0)


@pytest.mark.parametrize("fields", [
    {"max_partials": 0}, {"max_partials": -3}, {"max_partials": 2.5},
    {"window_samples": float("nan")}, {"window_samples": 160.0}, {"window_samples": 0},
    {"f_guard_hz": 0.0}, {"f_guard_hz": -5.0}, {"f_guard_hz": float("nan")},
    {"f_guard_hz": float("inf")}, {"max_adaptations": 2.5},
    {"max_adaptations": True}, {"max_partials": True}, {"window_samples": True},
    {"init_window_kind": "nope"}, {"hop_ms": float("nan")}, {"hop_ms": -1.0},
    {"hop_ms": 0.0}, {"hop_ms": float("inf")},
])
def test_config_rejects_values_that_would_break_later(fields):
    # each of these once ended in AnalysisError, a bare ValueError,
    # ZeroDivisionError or TypeError, silently switched the guard off,
    # (True) ran as a count of 1, or (a window kind, a hop) was accepted and
    # raised only inside the analysis
    with pytest.raises(UsageError):
        EaQHMConfig(**fields)


def test_config_takes_numpy_integers():
    cfg = EaQHMConfig(window_samples=np.int64(161), max_partials=np.int32(2),
                      max_adaptations=np.int64(0), f_guard_hz=100.0)
    assert cfg.window_samples == 161 and cfg.max_partials == 2


# ---------------------------------------------------------------------------
# adaptation loop
# ---------------------------------------------------------------------------

def test_adapt_exact_harmonic_converges_immediately():
    n = 6400
    x = _harmonic(n)
    sig = SampledSignal(samples=x, fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(max_partials=5)
    state = adapt(sig, init_harmonic(sig, f0t, cfg), f0t, cfg)
    assert state.iteration <= 2
    assert state.srer_history[-1] > 100.0


def test_adapt_history_nondecreasing_and_bounded():
    from sinemodel.generators import AMFMSpec, gen_amfm

    vib, _ = gen_amfm(AMFMSpec(n_partials=4, f0=220.0, f_c=4.0, rho=0.6,
                               duration=0.5, fs=FS))
    f0t = estimate_f0(vib, f_min=150.0, f_max=320.0)
    cfg = EaQHMConfig(max_partials=4)
    state = eaqhm_analyze(vib, f0t, cfg)
    hist = state.srer_history
    assert all(b >= a for a, b in zip(hist, hist[1:]))
    assert state.iteration <= cfg.max_adaptations
    assert hist[-1] > 40.0
    y = synthesize_tracks(state.tracks, len(vib), FS)
    assert srer(vib.samples, y) == pytest.approx(hist[-1], abs=1e-9)


def test_adapt_zero_iterations_returns_init():
    n = 6400
    sig = SampledSignal(samples=_harmonic(n), fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(max_partials=5, max_adaptations=0)
    tracks = init_harmonic(sig, f0t, cfg)
    state = adapt(sig, tracks, f0t, cfg)
    assert state.iteration == 0
    assert len(state.srer_history) == 1
    assert state.tracks is not tracks or state.tracks == tracks


def test_adapt_improves_detuned_start():
    # start the loop from deliberately detuned tracks; adaptation must gain
    n = 6400
    x = _harmonic(n, k_max=3)
    sig = SampledSignal(samples=x, fs=FS)
    f0t = _const_f0(n, 150.0)
    cfg = EaQHMConfig(max_partials=3)
    detuned = _const_f0(n, 151.5)
    start = init_harmonic(sig, detuned, cfg)
    s0 = srer(x, synthesize_tracks(start, n, FS))
    state = adapt(sig, start, f0t, cfg)
    assert state.srer_history[-1] > s0 + 10.0


def test_adapt_samples_each_track_once_per_rendered_iterate(monkeypatch):
    from sinemodel import core

    n = 3200
    sig = SampledSignal(samples=_harmonic(n, k_max=3), fs=FS)
    cfg = EaQHMConfig(max_partials=3, max_adaptations=2)
    start = init_harmonic(sig, _const_f0(n, 151.5), cfg)   # detuned: adapt runs
    # above the three fitted partials, so every pass carries it unchanged; its
    # zero-amplitude end anchors keep its synthesis range short of the signal
    start.append(PartialTrack(times=[0.05, 0.1, 0.15], amps=[0.0, 0.2, 0.0],
                              freqs=[2000.0, 2010.0, 2000.0], phases=[0.0, 1.0, 2.0]))
    calls = []
    real = core.sample_track

    def counting(track, *args):
        calls.append(track)
        return real(track, *args)

    monkeypatch.setattr(eaqhm, "sample_track", counting)
    monkeypatch.setattr(core, "sample_track", counting)
    state = adapt(sig, start, _const_f0(n, 150.0), cfg)
    assert state.iteration >= 1
    # the start and every iterate a pass produced, one sample_track per track
    assert len(calls) == (1 + state.iteration) * len(start)
    assert sum(tr is start[-1] for tr in calls) == 1 + state.iteration


def test_render_synthesis_is_synthesize_tracks():
    rng = np.random.default_rng(26)
    n = 1600
    tracks = []
    for i in range(24):
        # starts before 0 or past the signal put anchors outside it; odd tracks
        # ramp from and to zero amplitude, so they cover part of the signal
        m = int(rng.integers(1, 30))
        times = rng.uniform(-0.02, 0.11) + np.cumsum(rng.uniform(1e-6, 8e-3, m))
        amps = rng.uniform(0.1, 1.0, m)
        if i % 2:
            amps[[0, -1]] = 0.0
        tracks.append(PartialTrack(times=times, amps=amps, freqs=rng.uniform(50.0, 4000.0, m),
                                   phases=rng.uniform(-np.pi, np.pi, m)))
    centers = np.arange(0, n, 80)
    synth, sampled = eaqhm._render(tracks, FS, n, centers, eaqhm._AMP_EPS)
    assert synth.tobytes() == synthesize_tracks(tracks, n, FS).tobytes()
    for k, tr in enumerate(tracks):
        amp, freq, phase = sample_track(tr, FS, 0, n - 1)
        assert sampled.amp_c[:, k].tobytes() == amp[centers].tobytes()
        assert sampled.freq_c[:, k].tobytes() == freq[centers].tobytes()
        assert sampled.phase_c[:, k].tobytes() == phase[centers].tobytes()


def test_adapt_peak_memory_on_one_second_of_audio():
    import tracemalloc

    sig, _ = gen_amfm(AMFMSpec(duration=1.0, seed=0))
    f0t = estimate_f0(sig, *PITCH_BAND_HZ)
    tracks = init_harmonic(sig, f0t, EaQHMConfig())
    tracemalloc.start()
    try:
        adapt(sig, tracks, f0t, EaQHMConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
