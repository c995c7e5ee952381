"""Subspace estimation of damped sinusoids: poles, amplitudes, frames."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinemodel import edsm
from sinemodel.core import TWO_PI, SampledSignal, srer, wrap_phase
from sinemodel.edsm import (EDSMConfig, EDSMFrame, DampedSinusoid, build_hankel,
                            components_to_poles, edsm_analyze, edsm_synthesize,
                            esprit_poles, full_band_orders, poles_to_components,
                            vandermonde_amplitudes)
from sinemodel.errors import AnalysisError, UsageError
from sinemodel.generators import AMFMSpec, DampedSumSpec, gen_amfm, gen_damped_sum
from sinemodel.harness import MODEL_TABLE, PITCH_BAND_HZ, run_model
from sinemodel.pitch import estimate_f0

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


def _reference_poles_to_components(poles, alphas, fs):
    """poles_to_components one pole (pair) at a time, on scalars."""
    comps = []
    is_real = np.abs(poles.imag) <= edsm._REAL_POLE_TOL * (1.0 + np.abs(poles))
    for i in np.flatnonzero(is_real):
        z, al = poles[i], alphas[i]
        mag = abs(z)
        if mag <= 0:
            continue
        comps.append(DampedSinusoid(a=abs(al.real), delta=float(np.log(mag)),
                                    freq_hz=0.0 if z.real >= 0 else fs / 2.0,
                                    phase=0.0 if al.real >= 0 else np.pi))
    up = np.flatnonzero(~is_real & (poles.imag > 0))
    lo = np.flatnonzero(~is_real & (poles.imag < 0))
    up = up[np.lexsort((poles[up].imag, poles[up].real))]
    lo = lo[np.lexsort((-poles[lo].imag, poles[lo].real))]
    for i, j in zip(up, lo):
        zi, ai, zj, aj = poles[i], alphas[i], poles[j], alphas[j]
        delta = 0.5 * (np.log(abs(zi)) + np.log(abs(zj)))
        omega = 0.5 * (np.angle(zi) - np.angle(zj))
        comps.append(DampedSinusoid(a=float(abs(ai) + abs(aj)), delta=float(delta),
                                    freq_hz=float(omega * fs / TWO_PI),
                                    phase=float(np.angle(ai))))
    comps.sort(key=lambda c: (c.freq_hz, -c.a))
    return tuple(comps)


def _component_bits(comps):
    return np.array([(c.a, c.delta, c.freq_hz, c.phase) for c in comps]).tobytes()


@st.composite
def _pole_sets(draw):
    """Poles of a real frame, shuffled: positive and negative real poles, zero
    poles, conjugate pairs, and pairs whose imaginary part sits on either
    side of the real-pole tolerance; amplitudes are arbitrary."""
    finite = st.floats(-2.0, 2.0)
    poles, alphas = [], []
    for kind in draw(st.lists(st.sampled_from(["real", "negative", "zero", "near_real",
                                                "pair"]), max_size=12)):
        r = draw(st.floats(1e-3, 2.0))
        al = [complex(draw(finite), draw(finite)) for _ in range(2)]
        if kind == "pair":
            z = r * np.exp(1j * draw(st.floats(1e-6, np.pi - 1e-6)))
        elif kind == "near_real":
            z = r * draw(st.sampled_from([1.0, -1.0])) * complex(
                1.0, draw(st.sampled_from([1e-13, 1e-10, 5e-10, 2e-9, 1e-8])))
        else:
            poles.append({"real": r, "negative": -r, "zero": 0.0}[kind])
            alphas.append(al[0])
            continue
        poles += [z, np.conj(z)]
        alphas += al
    order = draw(st.permutations(range(len(poles))))
    return (np.array(poles, dtype=np.complex128)[order],
            np.array(alphas, dtype=np.complex128)[order])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(pa=_pole_sets(), fs=st.sampled_from([8000.0, 16000.0, 44100.0]))
def test_pole_pairing_matches_the_scalar_reference(pa, fs):
    poles, alphas = pa
    got = poles_to_components(poles, alphas, fs)
    want = _reference_poles_to_components(poles, alphas, fs)
    assert len(got) == len(want)
    assert _component_bits(got) == _component_bits(want)


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


@st.composite
def _damped_sums(draw):
    """A frame of 1-4 damped sinusoids with frequencies at least two DFT bins
    apart and from 0 and fs/2, amplitudes of 0.1-1 and at most e^3 of decay
    or e^1.5 of growth over the frame; components sorted by frequency."""
    length = draw(st.integers(64, 400))
    bin_hz = FS / length
    k = draw(st.integers(1, 4))
    # k gaps of at least two bins share the band left over, in random shares
    spare = FS / 2.0 - 2.0 * bin_hz * (k + 1)
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1)))
    gaps = 2.0 * bin_hz + spare * shares / max(shares.sum(), 1.0)
    freqs = np.cumsum(gaps)[:k]
    comps = [DampedSinusoid(a=draw(st.floats(0.1, 1.0)),
                            delta=draw(st.floats(-3.0, 1.5)) / length, freq_hz=float(f),
                            phase=draw(st.floats(-3.0, 3.0))) for f in freqs]
    x = sum(_damped_frame(length, c.a, c.delta, c.freq_hz, c.phase) for c in comps)
    return x, comps


@settings(deadline=None, max_examples=150, derandomize=True)
@given(case=_damped_sums())
def test_edsm_recovers_random_damped_sums_exactly(case):
    x, truth = case
    n = x.shape[0]
    frames = edsm_analyze(SampledSignal(samples=x, fs=FS),
                          EDSMConfig(window_samples=n, order=len(truth)))
    assert len(frames) == 1 and frames[0].k_eff == 2 * len(truth)
    comps = frames[0].components
    assert len(comps) == len(truth)
    for est, ref in zip(comps, truth):
        assert abs(est.a - ref.a) <= 1e-6
        assert abs(est.delta - ref.delta) <= 1e-8
        assert abs(est.freq_hz - ref.freq_hz) <= 1e-6 * ref.freq_hz
        assert abs(wrap_phase(est.phase - ref.phase)) <= 1e-6
    assert srer(x, edsm_synthesize(frames, n, FS)) >= 100.0


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


# ---------------------------------------------------------------------------
# frame-by-frame references
# ---------------------------------------------------------------------------

def _reference_esprit_poles(x, k_exp, rank_rtol):
    """esprit_poles of one frame with its own SVD, pinv and eigvals."""
    n = x.shape[0] // 2
    X = np.lib.stride_tricks.sliding_window_view(x, n).copy()
    _, s, vh = np.linalg.svd(X, full_matrices=False)
    k_eff = min(int(np.count_nonzero(s >= rank_rtol * s[0])), k_exp)
    if k_eff == 0:
        return np.empty(0, dtype=np.complex128), 0
    vs = vh[:k_eff].conj().T
    poles = np.linalg.eigvals(np.linalg.pinv(vs[:-1, :]) @ vs[1:, :])
    return poles[np.lexsort((np.abs(poles), np.angle(poles)))], k_eff


def _reference_edsm_analyze(signal, config):
    """edsm_analyze one frame at a time."""
    x = signal.samples
    n = x.shape[0]
    w = int(config.window_samples)
    starts = list(range(0, n, w))
    orders = edsm._frame_orders(config.order, len(starts))
    frames = []
    for start, k_sin in zip(starts, orders):
        length = min(w, n - start)
        seg = x[start:start + length]
        if not np.any(seg):
            frames.append(EDSMFrame(start=start, length=length, components=(), k_eff=0))
            continue
        if seg.shape[0] < 8:
            seg = np.concatenate([seg, np.zeros(8 - seg.shape[0])])
        n_cols = seg.shape[0] // 2
        k_cap = min(n_cols, seg.shape[0] - n_cols + 1) - 1
        poles, k_eff = _reference_esprit_poles(seg, min(2 * k_sin, k_cap), config.rank_rtol)
        mag = np.abs(poles)
        bound = edsm._LOG_RANGE / max(seg.shape[0] - 1, 1)
        poles = poles[(mag > 0) & (np.abs(np.log(np.maximum(mag, 1e-300))) <= bound)]
        if k_eff == 0 or poles.shape[0] == 0:
            frames.append(EDSMFrame(start=start, length=length, components=(), k_eff=0))
            continue
        alphas = vandermonde_amplitudes(seg, poles)
        comps = poles_to_components(poles, alphas, signal.fs)
        frames.append(EDSMFrame(start=start, length=length, components=comps, k_eff=k_eff))
    return frames


def _reference_edsm_synthesize(frames, n_samples, fs):
    """edsm_synthesize one component at a time."""
    out = np.zeros(int(n_samples), dtype=np.float64)
    for fr in frames:
        stop = min(fr.start + fr.length, n_samples)
        if stop <= fr.start:
            continue
        n = np.arange(stop - fr.start, dtype=np.float64)
        bound = edsm._LOG_RANGE / max(stop - fr.start - 1, 1)
        seg = np.zeros(n.shape[0], dtype=np.float64)
        for c in fr.components:
            delta = float(np.clip(c.delta, -bound, bound))
            seg += c.a * np.exp(delta * n) * np.cos(TWO_PI * c.freq_hz / fs * n + c.phase)
        out[fr.start:stop] = seg
    return out


def _reference_full_band_orders(f0track, signal, window):
    n = signal.samples.shape[0]
    orders = []
    for start in range(0, n, window):
        center = min(start + window // 2, n - 1)
        f0 = max(float(f0track.f0_at(center / signal.fs)), 1.0)
        orders.append(max(1, int(signal.fs / (2.0 * f0))))
    return orders


def _random_damped_sum(draw_n, rng):
    """Sum of a few damped sinusoids whose count changes along the signal."""
    k = np.arange(draw_n)
    x = np.zeros(draw_n)
    for _ in range(int(rng.integers(1, 6))):
        a, f = rng.uniform(0.1, 1.0), rng.uniform(50.0, 7900.0)
        delta, phi = rng.uniform(-0.01, 0.005), rng.uniform(-np.pi, np.pi)
        on = slice(int(rng.integers(0, draw_n)), None)
        x[on] += a * np.exp(delta * k[on] / 4) * np.cos(TWO_PI * f / FS * k[on] + phi)
    return x


@settings(deadline=None, max_examples=120, derandomize=True)
@given(w=st.integers(4, 48), n_full=st.integers(0, 9),
       tail=st.sampled_from([0, 1, 3, 7, 8, 13]), seed=st.integers(0, 2**32 - 1),
       rank_rtol=st.sampled_from([0.0, 1e-10, 1e-3]), budget=st.sampled_from([1, 300, 1 << 16]),
       orders=st.lists(st.integers(1, 12), min_size=11, max_size=11))
def test_blocked_analysis_matches_the_per_frame_reference(w, n_full, tail, seed, rank_rtol,
                                                          budget, orders):
    rng = np.random.default_rng(seed)
    n = n_full * w + min(tail, w - 1)
    if n == 0:
        return
    x = _random_damped_sum(n, rng) + rng.normal(0.0, 1e-4, n)
    # frames at levels 60 dB apart, so each frame's rank threshold is its
    # own, and frames of digital silence
    for i in range(0, n, w):
        x[i:i + w] *= 0.0 if rng.uniform() < 0.25 else 10.0 ** rng.uniform(-3.0, 0.0)
    sig = SampledSignal(samples=x, fs=FS)
    n_frames = -(-n // w)
    cfg = EDSMConfig(window_samples=w, order=orders[:n_frames], rank_rtol=rank_rtol)
    with mock.patch.object(edsm, "ESPRIT_BLOCK", budget), \
            warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = edsm_analyze(sig, cfg)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _reference_edsm_analyze(sig, cfg)
    assert repr(got) == repr(want)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    y = edsm_synthesize(got, n, FS)
    assert y.tobytes() == _reference_edsm_synthesize(want, n, FS).tobytes()


def test_blocks_mix_frame_orders_and_silence():
    # one block holds frames of different k_eff, all-zero frames and a tail
    # padded to 8 samples
    rng = np.random.default_rng(5)
    x = _random_damped_sum(40 * 30 + 5, rng)
    x[400:480] = 0.0
    sig = SampledSignal(samples=x, fs=FS)
    cfg = EDSMConfig(window_samples=40, order=[1 + i % 7 for i in range(31)], rank_rtol=1e-6)
    got = edsm_analyze(sig, cfg)
    assert len({fr.k_eff for fr in got[:30]}) > 3
    assert got[10].k_eff == got[11].k_eff == 0 and got[-1].length == 5
    assert repr(got) == repr(_reference_edsm_analyze(sig, cfg))


def test_esprit_poles_is_the_one_frame_reference():
    rng = np.random.default_rng(9)
    for length, k_exp, rtol in ((80, 12, 1e-10), (9, 3, 0.0), (200, 30, 1e-6)):
        x = _random_damped_sum(length, rng)
        poles, k_eff = esprit_poles(x, k_exp, rank_rtol=rtol)
        want, want_k = _reference_esprit_poles(x, k_exp, rtol)
        assert k_eff == want_k
        assert poles.dtype == want.dtype and poles.tobytes() == want.tobytes()


@pytest.mark.parametrize("fs", [8000.0, 44100.0, 48000.0])
def test_edsm_at_other_rates_matches_the_per_frame_reference(fs):
    sig = gen_amfm(AMFMSpec(duration=0.15, fs=fs, seed=2))[0]
    f0track = estimate_f0(sig, *PITCH_BAND_HZ)
    cfg = MODEL_TABLE["edsm"].config(sig, f0track, None, None)
    assert cfg.order == _reference_full_band_orders(f0track, sig, cfg.window_samples)
    srer_db, frames, y, _ = run_model("edsm", sig, f0track, cfg)
    assert np.isfinite(srer_db)
    want = _reference_edsm_analyze(sig, cfg)
    assert repr(frames) == repr(want)
    assert y.tobytes() == _reference_edsm_synthesize(want, sig.samples.shape[0], fs).tobytes()


def test_full_band_orders_match_the_per_frame_reference():
    sig = gen_amfm(AMFMSpec(duration=0.3, seed=4))[0]
    f0track = estimate_f0(sig, *PITCH_BAND_HZ)
    for window in (7, 80, 123, 4800, 6000):
        got = full_band_orders(f0track, sig, window)
        assert got == _reference_full_band_orders(f0track, sig, window)
        assert all(type(k) is int for k in got)
