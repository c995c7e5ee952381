"""Adaptive quasi-harmonic analysis: LS machinery and the adaptation loop."""
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from sinemodel import eaqhm
from sinemodel._blas import blas_thread_counts, single_threaded_blas
from sinemodel.core import (PartialTrack, SampledSignal, make_window, sample_track,
                            srer, synthesize_tracks, wrap_phase)
from sinemodel.eaqhm import (EaQHMConfig, adapt, eaqhm_analyze, freq_correction,
                             init_harmonic, ls_solve)
from sinemodel.errors import AnalysisError, IllConditionedError, UsageError
from sinemodel.generators import AMFMSpec, gen_amfm
from sinemodel.pitch import F0Track, estimate_f0

FS = 16000.0


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
    c, d = ls_solve(e, np.hamming(n), y)
    a_est = (c[0::2] - 1j * c[1::2]) / 2
    b_est = (d[0::2] - 1j * d[1::2]) / 2
    np.testing.assert_allclose(a_est, a, atol=1e-10)
    np.testing.assert_allclose(b_est, b, atol=1e-7)


def test_ls_solve_rejects_degenerate_basis():
    n = 64
    t = (np.arange(n) - n // 2) / FS
    col = np.cos(2 * np.pi * 100.0 * t)
    e = np.stack([col, col], axis=1)  # duplicated column
    with pytest.raises(IllConditionedError) as info:
        ls_solve(e, np.ones(n), col)
    assert info.value.condition > 1e10 or np.isinf(info.value.condition)


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
    sol = eaqhm._solve_mirrored(seg, amp * np.cos(phase), amp * np.sin(phase), w, t)

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
        cos_cols, sin_cols = eaqhm._rotated_columns(
            ((amp + eaqhm._AMP_EPS) * np.cos(phase)).T,
            ((amp + eaqhm._AMP_EPS) * np.sin(phase)).T, amp[:, 160], phase[:, 160])
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
    anchors = {}
    for fr in eaqhm._frame_layout(n, fs, f0track, config):
        eligible = [k for k in range(len(tracks)) if freq_all[k, fr.center] < f_ceiling]
        eligible.sort(key=lambda k: freq_all[k, fr.center])
        budget = fr.k_budget if config.max_partials is None \
            else min(config.max_partials, fr.k_budget)
        eligible = eligible[:budget]
        if not eligible:
            continue
        t = (np.arange(fr.lo, fr.hi + 1) - fr.center) / fs
        w = make_window(eaqhm.ADAPT_WINDOW_KIND, fr.hi - fr.lo + 1).values
        amp_cols = amp_all[eligible, fr.lo:fr.hi + 1].T
        amp_cols = (amp_cols + eaqhm._AMP_EPS) / (amp_cols[fr.center - fr.lo] + eaqhm._AMP_EPS)
        phase_cols = phase_all[eligible, fr.lo:fr.hi + 1].T - phase_all[eligible, fr.center]
        t_c = fr.center / fs
        try:
            sol = eaqhm._solve_mirrored(x[fr.lo:fr.hi + 1], amp_cols * np.cos(phase_cols),
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

    def refuse_one(e, window, target):
        # the 700th frame solve of a pass is ill-conditioned
        calls["n"] += 1
        if calls["n"] == 700:
            raise IllConditionedError("forced", np.inf)
        return solve(e, window, target)

    monkeypatch.setattr(eaqhm, "ls_solve", refuse_one)
    got = eaqhm._adaptation_pass(sig.samples, FS, tracks, f0t, cfg)
    assert calls["n"] > 700
    calls["n"] = 0
    want = _reference_adaptation_pass(sig.samples, FS, tracks, f0t, cfg)
    assert len(got) == len(want) == 5
    assert got[4] is above and want[4] is above
    # every frame has eligible tracks here, so solve 700 is frame 700
    forced = eaqhm._frame_layout(sig.samples.shape[0], FS, f0t, cfg)[699].center
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
