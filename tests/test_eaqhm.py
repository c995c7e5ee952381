"""Adaptive quasi-harmonic analysis: LS machinery and the adaptation loop."""
import sys
import threading

import numpy as np
import pytest

from sinemodel import eaqhm
from sinemodel._blas import blas_thread_counts, single_threaded_blas
from sinemodel.core import SampledSignal, srer, synthesize_tracks
from sinemodel.eaqhm import (BasisFunctionSet, EaQHMConfig, adapt,
                             build_ls_system, eaqhm_analyze, freq_correction,
                             init_harmonic, ls_solve)
from sinemodel.errors import AnalysisError, IllConditionedError, UsageError
from sinemodel.pitch import F0Track, estimate_f0

FS = 16000.0


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
    assert freq_correction(a, 2.5 * a) == pytest.approx(0.0, abs=1e-15)


def test_freq_correction_recovers_known_detuning():
    # a complex exponential detuned by df has b = i*2*pi*df*a
    for df in (0.5, -12.25, 40.0):
        a = 0.8 * np.exp(0.9j)
        b = 1j * 2 * np.pi * df * a
        assert freq_correction(a, b) == pytest.approx(df, rel=1e-12)


def test_freq_correction_scale_invariance():
    rng = np.random.default_rng(5)
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    base = freq_correction(a, b)
    for c in (2.0, -0.3, 1.7 - 2.2j):
        assert freq_correction(c * a, c * b) == pytest.approx(base, rel=1e-12)


def test_freq_correction_vector_and_degenerate():
    a = np.array([1.0 + 0j, 0.0 + 0j])
    b = np.array([1j * 2 * np.pi * 3.0, 1.0 + 1j])
    out = freq_correction(a, b)
    assert out[0] == pytest.approx(3.0)
    assert out[1] == 0.0  # zero-amplitude component gets no correction


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
    # conjugate-mirrored basis keeps the target real
    e = np.stack([np.exp(1j * w1 * t), np.exp(-1j * w1 * t),
                  np.exp(1j * w2 * t), np.exp(-1j * w2 * t)], axis=1)
    e = np.hstack([e, t[:, None] * e])
    a = np.array([0.4 * np.exp(0.3j), 0.4 * np.exp(-0.3j),
                  0.25 * np.exp(-1.0j), 0.25 * np.exp(1.0j)])
    b = np.array([2.0 * np.exp(0.1j), 2.0 * np.exp(-0.1j),
                  -1.5 * np.exp(0.6j), -1.5 * np.exp(-0.6j)])
    y = (e @ np.concatenate([a, b])).real
    a_est, b_est = ls_solve(e, np.hamming(n), y)
    np.testing.assert_allclose(a_est, a, atol=1e-10)
    np.testing.assert_allclose(b_est, b, atol=1e-7)


def test_ls_solve_rejects_degenerate_basis():
    n = 64
    t = (np.arange(n) - n // 2) / FS
    col = np.exp(1j * 2 * np.pi * 100.0 * t)
    e = np.stack([col, col], axis=1)  # duplicated column
    with pytest.raises(IllConditionedError) as info:
        ls_solve(e, np.ones(n), col.real)
    assert info.value.condition > 1e10 or np.isinf(info.value.condition)


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
    sol = eaqhm._solve_mirrored(seg, amp, phase, w, t)

    amp_full = np.hstack([amp[:, ::-1], np.ones((n, 1)), amp])
    phase_full = np.hstack([-phase[:, ::-1], np.zeros((n, 1)), phase])
    e, w_, y = build_ls_system(seg, BasisFunctionSet(amp=amp_full, phase=phase_full),
                               w, t)
    a_full, b_full = ls_solve(e, w_, y)
    a, b = a_full[m:], b_full[m:]
    eta = np.concatenate(([0.0], freq_correction(a[1:], b[1:])))
    for got, want in ((sol.a, a), (sol.b, b), (sol.eta, eta)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# BLAS threading around the frame loops
# ---------------------------------------------------------------------------

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

    def refuse(*args):
        inside.append(blas_thread_counts())
        raise IllConditionedError("refused", np.inf)

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
