"""Subspace estimation of damped sinusoids: poles, amplitudes, frames."""
import numpy as np
import pytest

from sinemodel.core import SampledSignal, srer
from sinemodel.edsm import (EDSMConfig, EDSMFrame, DampedSinusoid, build_hankel,
                            components_to_poles, edsm_analyze, edsm_synthesize,
                            esprit_poles, poles_to_components,
                            vandermonde_amplitudes)
from sinemodel.errors import AnalysisError, UsageError
from sinemodel.generators import DampedSumSpec, gen_damped_sum

FS = 16000.0


def _damped_frame(n, a, delta, f, phi):
    k = np.arange(n)
    return a * np.exp(delta * k) * np.cos(2 * np.pi * f / FS * k + phi)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_hankel_indexing_by_hand():
    X = build_hankel(np.array([1.0, 2.0, 3.0, 4.0]), n_cols=2)
    np.testing.assert_array_equal(X, [[1, 2], [2, 3], [3, 4]])
    x = np.arange(10.0)
    H = build_hankel(x, n_cols=4)
    assert H.shape == (7, 4)
    for r in range(7):
        for c in range(4):
            assert H[r, c] == x[r + c]
    with pytest.raises(UsageError):
        build_hankel(x, n_cols=0)
    with pytest.raises(UsageError):
        build_hankel(x, n_cols=11)


def test_esprit_recovers_known_pole_pair():
    delta, f = -0.002, 500.0
    frame = _damped_frame(200, 0.8, delta, f, 0.4)
    poles, k_eff = esprit_poles(frame, k_exp=2)
    assert k_eff == 2
    truth = np.exp(delta + 1j * 2 * np.pi * f / FS)
    for z in poles:
        ref = truth if z.imag > 0 else truth.conjugate()
        assert abs(z - ref) < 1e-8


def test_esprit_rank_threshold_drops_excess_order():
    # a single real sinusoid spans rank 2; asking for 6 keeps only 2
    frame = _damped_frame(200, 1.0, 0.0, 440.0, 0.0)
    poles, k_eff = esprit_poles(frame, k_exp=6)
    assert k_eff == 2
    assert poles.shape[0] == 2


def test_esprit_validation():
    frame = _damped_frame(20, 1.0, 0.0, 440.0, 0.0)
    with pytest.raises(UsageError):
        esprit_poles(frame, k_exp=0)
    with pytest.raises(UsageError):  # beyond the Hankel capacity
        esprit_poles(frame, k_exp=10)
    with pytest.raises(AnalysisError):
        esprit_poles(np.zeros(20), k_exp=2)


def test_vandermonde_recovers_known_amplitudes():
    rng = np.random.default_rng(0)
    z1 = 0.999 * np.exp(1j * 2 * np.pi * 300.0 / FS)
    z2 = 0.997 * np.exp(1j * 2 * np.pi * 1234.0 / FS)
    poles = np.array([z1, np.conj(z1), z2, np.conj(z2)])
    alphas = np.array([0.4 * np.exp(0.3j), 0.4 * np.exp(-0.3j),
                       0.2 * np.exp(-1.1j), 0.2 * np.exp(1.1j)])
    n = np.arange(300)
    frame = np.real(np.sum(alphas[None, :] * poles[None, :] ** n[:, None], axis=1))
    est = vandermonde_amplitudes(frame, poles)
    np.testing.assert_allclose(est, alphas, atol=1e-9)
    assert vandermonde_amplitudes(frame, np.array([])).size == 0


def test_vandermonde_overflow_guard():
    with pytest.raises(AnalysisError):
        vandermonde_amplitudes(np.ones(300), np.array([np.exp(5.0) + 0j]))


def test_vandermonde_warns_on_coincident_poles():
    z = 0.99 * np.exp(1j * 0.3)
    poles = np.array([z, z * (1 + 1e-14)])
    frame = np.real(0.5 * z ** np.arange(100))
    with pytest.warns(RuntimeWarning):
        vandermonde_amplitudes(frame, poles)


# ---------------------------------------------------------------------------
# pole <-> component conversion
# ---------------------------------------------------------------------------

def test_conjugate_pair_merges_to_real_component():
    z = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    al = 0.4 * np.exp(0.7j)
    comps = poles_to_components(np.array([z, np.conj(z)]),
                                np.array([al, np.conj(al)]), FS)
    assert len(comps) == 1
    c = comps[0]
    assert c.a == pytest.approx(0.8)
    assert c.freq_hz == pytest.approx(700.0)
    assert c.phase == pytest.approx(0.7)
    assert c.delta == pytest.approx(np.log(0.99))


def test_real_poles_map_to_band_edges():
    comps = poles_to_components(np.array([0.9 + 0j, -0.8 + 0j]),
                                np.array([0.5 + 0j, -0.3 + 0j]), FS)
    by_f = {c.freq_hz: c for c in comps}
    dc = by_f[0.0]
    assert dc.a == pytest.approx(0.5) and dc.phase == 0.0
    assert dc.delta == pytest.approx(np.log(0.9))
    ny = by_f[FS / 2.0]
    assert ny.a == pytest.approx(0.3) and ny.phase == pytest.approx(np.pi)
    with pytest.raises(UsageError):
        poles_to_components(np.zeros(2, complex), np.zeros(3, complex), FS)


def test_conjugate_pairs_match_in_any_order():
    z1 = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    z2 = 1.001 * np.exp(1j * 2 * np.pi * 1900.0 / FS)
    a1, a2 = 0.4 * np.exp(0.7j), 0.1 * np.exp(-2.0j)
    # pairs listed out of order, with a duplicated pair and a real pole
    poles = np.array([np.conj(z2), z1, 0.5 + 0j, z2, np.conj(z1), z1, np.conj(z1)])
    alphas = np.array([np.conj(a2), a1, 0.2 + 0j, a2, np.conj(a1), a1, np.conj(a1)])
    comps = poles_to_components(poles, alphas, FS)
    assert [c.freq_hz for c in comps] == pytest.approx([0.0, 700.0, 700.0, 1900.0])
    assert [c.a for c in comps] == pytest.approx([0.2, 0.8, 0.8, 0.2])
    assert comps[3].phase == pytest.approx(-2.0)
    assert comps[3].delta == pytest.approx(np.log(1.001))


def test_complex_pole_without_exact_conjugate_is_rejected():
    z = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    al = np.array([0.4 + 0.1j, 0.4 - 0.1j])
    for poles in (np.array([z, 0.9 + 0j]), np.array([z, np.conj(z) * (1 + 1e-12)]),
                  np.array([z, z])):
        with pytest.raises(UsageError, match="conjugate"):
            poles_to_components(poles, al, FS)


def test_components_poles_roundtrip():
    comps = (DampedSinusoid(a=0.6, delta=-0.001, freq_hz=350.0, phase=0.2),
             DampedSinusoid(a=0.3, delta=0.0005, freq_hz=2100.0, phase=-1.4))
    poles, alphas = components_to_poles(comps, FS)
    assert poles.shape == alphas.shape == (4,)
    back = poles_to_components(poles, alphas, FS)
    assert len(back) == 2
    for orig, rec in zip(comps, back):
        assert rec.a == pytest.approx(orig.a, rel=1e-12)
        assert rec.delta == pytest.approx(orig.delta, rel=1e-9)
        assert rec.freq_hz == pytest.approx(orig.freq_hz, rel=1e-12)
        assert rec.phase == pytest.approx(orig.phase, rel=1e-12)


def test_component_amplitude_must_be_nonnegative():
    with pytest.raises(UsageError):
        DampedSinusoid(a=-0.1, delta=0.0, freq_hz=100.0, phase=0.0)


# ---------------------------------------------------------------------------
# frame pipeline
# ---------------------------------------------------------------------------

def test_full_window_exact_recovery():
    spec = DampedSumSpec(components=((0.8, 5.0, 440.0, 0.5),
                                     (0.5, 2.0, 1234.5, -1.2),
                                     (0.3, 8.0, 3777.0, 2.0)),
                         duration=0.125, fs=FS)
    sig, truth = gen_damped_sum(spec)
    n = len(sig)
    frames = edsm_analyze(sig, EDSMConfig(window_samples=n, order=3))
    assert len(frames) == 1
    comps = frames[0].components
    assert len(comps) == 3
    for est, ref in zip(comps, sorted(truth, key=lambda c: c.freq_hz)):
        assert abs(est.a - ref.a) <= 1e-6 * max(1.0, abs(ref.a))
        assert abs(est.delta - ref.delta) <= 1e-6
        assert abs(est.freq_hz - ref.freq_hz) <= 1e-6 * ref.freq_hz
        assert abs(est.phase - ref.phase) <= 1e-6
    y = edsm_synthesize(frames, n, FS)
    assert srer(sig.samples, y) >= 80.0
    # a strongly growing envelope is still renderable over its frame, so kept
    x = _damped_frame(400, 0.1, 0.05, 500.0, 0.0)
    grown = edsm_analyze(SampledSignal(samples=x, fs=FS),
                         EDSMConfig(window_samples=400, order=1))
    assert grown[0].components[0].delta == pytest.approx(0.05, abs=1e-6)


def test_framed_analysis_with_partial_tail():
    sig, _ = gen_damped_sum(DampedSumSpec(
        components=((0.8, 5.0, 440.0, 0.5), (0.5, 2.0, 1234.5, -1.2)),
        duration=1000 / FS, fs=FS))
    frames = edsm_analyze(sig, EDSMConfig(window_samples=300, order=2))
    assert [fr.start for fr in frames] == [0, 300, 600, 900]
    assert frames[-1].length == 100  # reduced tail, analyzed at its own length
    y = edsm_synthesize(frames, 1000, FS)
    assert srer(sig.samples, y) >= 80.0


def test_tiny_tail_is_padded_not_dropped():
    n = 903
    t = np.arange(n) / FS
    sig = SampledSignal(samples=np.cos(2 * np.pi * 440.0 * t), fs=FS)
    frames = edsm_analyze(sig, EDSMConfig(window_samples=300, order=1))
    assert frames[-1].start == 900 and frames[-1].length == 3
    y = edsm_synthesize(frames, n, FS)
    assert np.all(np.isfinite(y))
    assert srer(sig.samples[:900], y[:900]) >= 80.0


def test_silent_frame_yields_no_components():
    x = _damped_frame(900, 0.5, -0.001, 440.0, 0.0)
    x[300:600] = 0.0
    frames = edsm_analyze(SampledSignal(samples=x, fs=FS),
                          EDSMConfig(window_samples=300, order=1))
    assert frames[1].components == () and frames[1].k_eff == 0
    y = edsm_synthesize(frames, 900, FS)
    assert np.max(np.abs(y[300:600])) == 0.0


def test_synthesize_clamps_unrenderable_damping():
    fr = [EDSMFrame(start=0, length=100,
                    components=(DampedSinusoid(a=1.0, delta=9.0, freq_hz=100.0,
                                               phase=0.0),),
                    k_eff=2)]
    y = edsm_synthesize(fr, 100, FS)
    assert np.all(np.isfinite(y))


def test_order_handling():
    sig, _ = gen_damped_sum(DampedSumSpec(components=((0.8, 5.0, 440.0, 0.5),),
                                          duration=600 / FS, fs=FS))
    with pytest.raises(UsageError):
        edsm_analyze(sig, EDSMConfig(window_samples=300))  # order required
    with pytest.raises(UsageError):
        edsm_analyze(sig, EDSMConfig(window_samples=300, order=[1]))  # need 2
    with pytest.raises(UsageError):
        edsm_analyze(sig, EDSMConfig(window_samples=300, order=0))
    frames = edsm_analyze(sig, EDSMConfig(window_samples=300, order=[1, 2]))
    assert len(frames) == 2
    with pytest.raises(UsageError):
        EDSMConfig(window_samples=3)


def test_requested_order_capped_by_frame_capacity():
    # a 64-sample frame holds at most min(32, 33) - 1 = 31 exponentials
    x = _damped_frame(64, 0.5, -0.001, 440.0, 0.0)
    frames = edsm_analyze(SampledSignal(samples=x, fs=FS),
                          EDSMConfig(window_samples=64, order=100))
    assert frames[0].k_eff <= 31
    assert np.all(np.isfinite(edsm_synthesize(frames, 64, FS)))
