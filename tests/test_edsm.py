"""Subspace estimation of damped sinusoids: poles, amplitudes, frames."""
import os
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import sinemodel
from sinemodel import _kernels, edsm
from sinemodel._lapack import dsyevr
from sinemodel.core import TWO_PI, SampledSignal, srer, wrap_phase
from sinemodel.edsm import (EDSMConfig, EDSMFrames, edsm_analyze, edsm_synthesize,
                            full_band_orders)
from sinemodel.errors import UsageError
from sinemodel.generators import AMFMSpec, DampedSumSpec, gen_amfm, gen_damped_sum
from sinemodel.harness import MODEL_TABLE, PITCH_BAND_HZ, run_model
from sinemodel.pitch import estimate_f0
from sinemodel.sm import track_partials

FS = 16000.0
EPS = np.finfo(np.float64).eps


def _damped_frame(n, a, delta, f, phi):
    k = np.arange(n)
    return a * np.exp(delta * k) * np.cos(2 * np.pi * f / FS * k + phi)


def _hankel(x, n_cols):
    return _kernels.hankel_build(x, x.shape[0] - n_cols + 1, n_cols)


def _esprit_poles(frame, k_exp, rank_rtol=edsm.RANK_RTOL):
    """edsm's ESPRIT stage on a one-frame stack: (poles, k_eff)."""
    k_eff, poles = edsm.esprit_poles(frame[None], np.array([k_exp]), rank_rtol)
    return poles[0], int(k_eff[0])


def _vandermonde_amplitudes(frame, poles):
    """edsm's amplitude stage on a one-frame stack with a conjugate-closed
    pole set, as the complex amplitudes alpha of frame = sum alpha z^n: c for
    a real pole, (c_cos - i c_sin) / 2 for an upper pole z and its conjugate
    for conj z.  Warns as edsm_analyze does on an ill-conditioned system."""
    real, up = (np.flatnonzero(m[0]) for m in edsm._conjugate_split(
        poles[None], np.ones((1, poles.shape[0]), dtype=bool)))
    coef, cond = edsm.vandermonde_amplitudes(frame[None], poles[None, real].real,
                                             poles[None, up])
    edsm._warn_ill_conditioned(cond)
    c_real, c_cos, c_sin = np.split(coef[0], [real.shape[0], real.shape[0] + up.shape[0]])
    alphas = np.empty(poles.shape, dtype=np.complex128)
    alphas[real] = c_real
    alphas.real[up], alphas.imag[up] = c_cos / 2.0, -c_sin / 2.0
    # sorting both half-planes the same way lines each pole up with its conjugate
    lo = np.flatnonzero(poles.imag < 0)
    alphas[lo[np.lexsort((-poles[lo].imag, poles[lo].real))]] = \
        alphas[up[np.lexsort((poles[up].imag, poles[up].real))]].conj()
    return alphas


def _frame_bits(frames):
    return tuple((name, getattr(frames, name).dtype.str, getattr(frames, name).tobytes())
                 for name in ("offsets", "values", "start", "length", "k_eff"))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_hankel_indexing_by_hand():
    X = _kernels.hankel_build(np.array([1.0, 2.0, 3.0, 4.0]), 3, 2)
    np.testing.assert_array_equal(X, [[1, 2], [2, 3], [3, 4]])
    x = np.arange(10.0)
    H = _kernels.hankel_build(x, 7, 4)
    assert H.shape == (7, 4)
    for r in range(7):
        for c in range(4):
            assert H[r, c] == x[r + c]


def test_esprit_recovers_known_pole_pair():
    delta, f = -0.002, 500.0
    frame = _damped_frame(200, 0.8, delta, f, 0.4)
    poles, k_eff = _esprit_poles(frame, k_exp=2)
    assert k_eff == 2
    truth = np.exp(delta + 1j * 2 * np.pi * f / FS)
    for z in poles:
        ref = truth if z.imag > 0 else truth.conjugate()
        assert abs(z - ref) < 1e-8


def test_esprit_rank_threshold_drops_excess_order():
    # a single real sinusoid spans rank 2; asking for 6 keeps only 2
    frame = _damped_frame(200, 1.0, 0.0, 440.0, 0.0)
    poles, k_eff = _esprit_poles(frame, k_exp=6)
    assert k_eff == 2
    assert poles.shape[0] == 2


# ---------------------------------------------------------------------------
# the closed-form shift solve against pinv
# ---------------------------------------------------------------------------

def _pinv_shift_matrix(vh, k):
    """ESPRIT's shift matrix as np.linalg.pinv solves it."""
    vs = vh[:k].T
    return np.linalg.pinv(vs[:-1]) @ vs[1:]


def _shift_error(vh, k):
    """|Phi - pinv's Phi| / |pinv's Phi| and |w| for one basis."""
    got = edsm._shift_matrices(vh[None], k)[0]
    want = _pinv_shift_matrix(vh, k)
    return np.linalg.norm(got - want) / np.linalg.norm(want), np.linalg.norm(vh[k:, -1])


# Relative to |Phi|, both solutions carry an error of order eps / |w|, where
# |w| is V1's smallest singular value; this bound holds it 256-fold.
_SHIFT_BOUND = 256.0 * EPS


@settings(deadline=None, max_examples=300, derandomize=True)
@given(length=st.integers(8, 120), seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.0))
def test_shift_solve_matches_pinv_on_random_frames(length, seed, share):
    x = np.random.default_rng(seed).normal(size=length)
    n = length // 2
    vh = np.linalg.svd(_hankel(x, n), full_matrices=False)[2]
    k = 1 + int(share * (n - 2))
    err, w = _shift_error(vh, k)
    assert err <= _SHIFT_BOUND / w


@pytest.mark.parametrize("n_cols", [8, 16, 24, 32])
@pytest.mark.parametrize("spread", [0.5, 0.1, 0.02])
def test_shift_solve_matches_pinv_where_w_is_small(n_cols, spread):
    # a shift-invariant basis with |w| down to 3e-9: the n_cols - 1 poles,
    # clustered near 1, are the roots of the polynomial a whose coefficients
    # span the complement, so |w| = 1 / |a|.  Forming |w|^2 as 1 - |u|^2
    # misses the bound here by orders of magnitude once |w| falls below 1e-4.
    rng = np.random.default_rng(n_cols)
    k = n_cols - 1
    z = (1 - spread * rng.uniform(0, 1, k // 2)) * np.exp(1j * spread * rng.uniform(0.1, 1, k // 2))
    roots = np.concatenate([z, z.conj(), 1 - spread * rng.uniform(0, 1, k % 2)])
    a = np.real(np.poly(roots))[::-1]
    q = np.linalg.qr(np.column_stack([a, rng.normal(size=(n_cols, k))]))[0]
    vh = np.vstack([q[:, 1:].T, q[:, :1].T])
    err, w = _shift_error(vh, k)
    assert w == pytest.approx(1.0 / np.linalg.norm(a), rel=1e-6)
    assert err <= _SHIFT_BOUND / w
    if n_cols == 32:
        assert w < 1e-6


@pytest.mark.parametrize("length", [41, 81, 161])
def test_shift_solve_poles_match_pinv_at_full_hankel_capacity(length):
    # the criterion-2 sweep's frames: the AM-FM sum at full Hankel capacity,
    # where |w| falls to 1e-7-1e-4.  The poles that carry the fit agree with
    # pinv's to 5e-7 or better; forming u'M directly moves them by 2e-5 to
    # 5e-2 and costs that sweep 80-110 dB of SRER.
    x = gen_amfm(AMFMSpec())[0].samples
    n = length // 2
    k = min(n, length - n + 1) - 1
    for start in range(0, x.shape[0] - length, 7 * length):
        vh = np.linalg.svd(_hankel(x[start:start + length], n), full_matrices=False)[2]
        want = np.linalg.eigvals(_pinv_shift_matrix(vh, k))
        got = np.linalg.eigvals(edsm._shift_matrices(vh[None], k)[0])
        for z in want[np.abs(want) > 0.5]:
            assert np.min(np.abs(got - z)) <= 5e-6


@pytest.mark.parametrize("n_cols, k, w_norm", [(6, 2, 0.0), (10, 4, 0.0), (10, 9, 0.0),
                                               (12, 3, 1e-16), (20, 10, 5e-16)])
def test_shift_solve_takes_pinvs_minimum_norm_branch(n_cols, k, w_norm):
    # |w| at most pinv's 1e-15 cutoff: pinv drops V1's smallest singular
    # value, and so does the closed form (for k >= 2; one pole's V1 has no
    # larger singular value to cut against).  A Householder reflection of an
    # orthogonal basis sets its last column to a chosen t.
    rng = np.random.default_rng(k)
    q = np.linalg.qr(rng.normal(size=(n_cols, n_cols)))[0]
    t = rng.normal(size=n_cols)
    t[:k] *= np.sqrt(1.0 - w_norm ** 2) / np.linalg.norm(t[:k])
    t[k:] *= w_norm / np.linalg.norm(t[k:])
    v = q[:, -1] - t
    vh = q - np.outer(v, 2.0 * (v @ q) / (v @ v))
    if w_norm == 0.0:
        vh[k:, -1] = 0.0
    assert np.linalg.norm(vh[k:, -1]) <= 1e-15
    got = edsm._shift_matrices(vh[None], k)[0]
    want = _pinv_shift_matrix(vh, k)
    assert np.linalg.norm(got - want) <= 64 * EPS * max(1.0, np.linalg.norm(want))


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def test_vandermonde_recovers_known_amplitudes():
    z1 = 0.999 * np.exp(1j * 2 * np.pi * 300.0 / FS)
    z2 = 0.997 * np.exp(1j * 2 * np.pi * 1234.0 / FS)
    poles = np.array([z1, np.conj(z1), z2, np.conj(z2)])
    alphas = np.array([0.4 * np.exp(0.3j), 0.4 * np.exp(-0.3j),
                       0.2 * np.exp(-1.1j), 0.2 * np.exp(1.1j)])
    n = np.arange(300)
    frame = np.real(np.sum(alphas[None, :] * poles[None, :] ** n[:, None], axis=1))
    est = _vandermonde_amplitudes(frame, poles)
    np.testing.assert_allclose(est, alphas, atol=1e-9)


def test_vandermonde_warns_on_coincident_poles():
    z = 0.99 * np.exp(1j * 0.3)
    poles = np.array([z, np.conj(z), z * (1 + 1e-14), np.conj(z * (1 + 1e-14))])
    frame = np.real(z ** np.arange(100))
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        _vandermonde_amplitudes(frame, poles)


def test_vandermonde_rejects_unpaired_poles():
    z = 0.99 * np.exp(1j * 0.3)
    for poles in ([z], [z, np.conj(z), z], [z, np.conj(z) * (1 + 1e-12)], [z, z]):
        with pytest.raises(UsageError, match="conjugate"):
            edsm._conjugate_split(np.array([poles]), np.ones((1, len(poles)), dtype=bool))


def _reference_vandermonde_amplitudes(frame, poles):
    """The complex least-squares amplitudes: QR of the column-equilibrated
    complex Vandermonde system, then scipy.linalg.solve_triangular; more
    poles than samples take the minimum-norm least-squares solution."""
    zt = poles[None, :] ** np.arange(frame.shape[0], dtype=np.float64)[:, None]
    scale = np.max(np.abs(zt), axis=0)
    scale[scale == 0.0] = 1.0
    zs = zt / scale
    q, r = np.linalg.qr(zs)
    if r.shape[0] == r.shape[1] and np.abs(np.diag(r)).min() > 0.0 and np.isfinite(r).all():
        alphas = solve_triangular(r, q.conj().T @ frame.astype(np.complex128))
        alphas /= scale
        if np.isfinite(alphas).all():
            return alphas
    return np.linalg.lstsq(zs, frame.astype(np.complex128), rcond=1e-30)[0] / scale


@settings(deadline=None, max_examples=200, derandomize=True)
@given(length=st.integers(1, 200), seed=st.integers(0, 2 ** 16),
       radii=st.lists(st.floats(0.9, 1.02), min_size=0, max_size=6),
       n_real=st.integers(0, 2), n_frames=st.integers(1, 4))
def test_vandermonde_solve_matches_solve_triangular(length, seed, radii, n_real, n_frames):
    # edsm's real solve, stacked over frames sharing their pole counts,
    # against the complex QR solve on conjugate-closed pole sets.  Each frame
    # is the exact signal of its poles plus noise 60 dB down, so both
    # solutions agree to about eps times the system's condition number
    # (times its square, scaled by the small residual).  The bound is 1e-11
    # times both; 3,000 scratch draws came within 0.041 of it.
    if not radii and not n_real:
        return
    rng = np.random.default_rng(seed)
    up = np.array(radii) * np.exp(1j * rng.uniform(1e-3, np.pi - 1e-3, (n_frames, len(radii))))
    real = rng.choice([-1.0, 1.0], (n_frames, n_real)) * rng.uniform(0.5, 1.05, (n_frames, n_real))
    n = np.arange(length)
    frames = np.empty((n_frames, length))
    for g in range(n_frames):
        alphas = rng.normal(size=len(radii)) * np.exp(1j * rng.uniform(-np.pi, np.pi, len(radii)))
        frames[g] = (2.0 * np.real(alphas @ up[g][:, None] ** n)
                     + rng.normal(size=n_real) @ real[g][:, None] ** n
                     + 1e-3 * rng.normal(size=length))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # ill-conditioned draws
        coef, cond = edsm.vandermonde_amplitudes(frames, real, up)
        for g in range(n_frames):
            poles = np.concatenate([real[g], up[g], np.conj(up[g])])
            if length < poles.shape[0]:
                continue   # minimum-norm solutions differ by parametrization
            c_real, c_cos, c_sin = np.split(coef[g], [n_real, n_real + len(radii)])
            pair = (c_cos - 1j * c_sin) / 2.0
            got = np.concatenate([c_real, pair, pair.conj()])
            ref = _reference_vandermonde_amplitudes(frames[g], poles)
            kappa = np.linalg.cond(poles[None, :] ** n[:, None]
                                   / np.max(np.abs(poles[None, :] ** n[:, None]), axis=0))
            bound = 1e-11 * kappa * (1.0 + 1e-3 * kappa) * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= bound


# ---------------------------------------------------------------------------
# pole <-> component conversion
# ---------------------------------------------------------------------------

def _poles_to_components(poles, alphas, fs):
    """Component rows (freq_hz, amp, phase, delta) of a conjugate-closed pole
    set, by frequency, louder first: edsm's pole split and component stage on
    one frame, with each amplitude turned back into its real coefficient
    (c = alpha for a real pole, c_cos = 2 Re alpha and c_sin = -2 Im alpha
    for an upper pole; a pair's conj z takes conj alpha)."""
    real, up = (m[0] for m in edsm._conjugate_split(poles[None], poles[None] != 0))
    rows, keep = edsm._components(poles[None, real].real, alphas[None, real].real,
                                  poles[None, up], 2.0 * alphas[None, up].real,
                                  -2.0 * alphas[None, up].imag, fs)
    rows = rows[keep]
    return rows[np.lexsort((-rows[:, 1], rows[:, 0]))]


def test_conjugate_pair_merges_to_real_component():
    z = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    al = 0.4 * np.exp(0.7j)
    comps = _poles_to_components(np.array([z, np.conj(z)]),
                                np.array([al, np.conj(al)]), FS)
    assert comps.shape == (1, 4)
    freq_hz, a, phase, delta = comps[0]
    assert a == pytest.approx(0.8)
    assert freq_hz == pytest.approx(700.0)
    assert phase == pytest.approx(0.7)
    assert delta == pytest.approx(np.log(0.99))


def test_real_poles_map_to_band_edges():
    comps = _poles_to_components(np.array([0.9 + 0j, -0.8 + 0j]),
                                np.array([0.5 + 0j, -0.3 + 0j]), FS)
    by_f = {row[0]: row for row in comps.tolist()}
    _, a, phase, delta = by_f[0.0]
    assert a == pytest.approx(0.5) and phase == 0.0
    assert delta == pytest.approx(np.log(0.9))
    _, a, phase, _ = by_f[FS / 2.0]
    assert a == pytest.approx(0.3) and phase == pytest.approx(np.pi)


def test_conjugate_pairs_match_in_any_order():
    z1 = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    z2 = 1.001 * np.exp(1j * 2 * np.pi * 1900.0 / FS)
    a1, a2 = 0.4 * np.exp(0.7j), 0.1 * np.exp(-2.0j)
    # pairs listed out of order, with a duplicated pair and a real pole
    poles = np.array([np.conj(z2), z1, 0.5 + 0j, z2, np.conj(z1), z1, np.conj(z1)])
    alphas = np.array([np.conj(a2), a1, 0.2 + 0j, a2, np.conj(a1), a1, np.conj(a1)])
    comps = _poles_to_components(poles, alphas, FS)
    assert comps[:, 0] == pytest.approx([0.0, 700.0, 700.0, 1900.0])
    assert comps[:, 1] == pytest.approx([0.2, 0.8, 0.8, 0.2])
    assert comps[3, 2] == pytest.approx(-2.0)
    assert comps[3, 3] == pytest.approx(np.log(1.001))


def test_complex_pole_without_exact_conjugate_is_rejected():
    z = 0.99 * np.exp(1j * 2 * np.pi * 700.0 / FS)
    al = np.array([0.4 + 0.1j, 0.4 - 0.1j])
    for poles in (np.array([z, 0.9 + 0j]), np.array([z, np.conj(z) * (1 + 1e-12)]),
                  np.array([z, z])):
        with pytest.raises(UsageError, match="conjugate"):
            _poles_to_components(poles, al, FS)


def _reference_poles_to_components(poles, alphas, fs):
    """_poles_to_components one pole (pair) at a time, on scalars: the real
    poles, then the pairs (each upper pole z with amplitude alpha stands for
    itself and conj z with conj alpha), then each near-real pair's second
    component, then a stable sort by frequency, louder first."""
    def band_edge(z, al):
        return (0.0 if z.real >= 0 else fs / 2.0, abs(al.real),
                0.0 if al.real >= 0 else np.pi, float(np.log(abs(z))))

    comps = [band_edge(poles[i], alphas[i]) for i in np.flatnonzero(poles.imag == 0)
             if poles[i] != 0]
    second = []
    for z, al in zip(poles[poles.imag > 0], alphas[poles.imag > 0]):
        zj, aj = z.conjugate(), al.conjugate()
        if abs(z.imag) <= edsm._REAL_POLE_TOL * (1.0 + abs(z)):
            comps.append(band_edge(z, al))
            second.append(band_edge(zj, aj))
            continue
        delta = 0.5 * (np.log(abs(z)) + np.log(abs(zj)))
        omega = 0.5 * (np.angle(z) - np.angle(zj))
        comps.append((float(omega * fs / TWO_PI), float(abs(al) + abs(aj)),
                      float(np.angle(al)), float(delta)))
    comps += second
    comps.sort(key=lambda c: (c[0], -c[1]))
    return np.array(comps).reshape(-1, 4)


@st.composite
def _pole_sets(draw):
    """Poles of a real frame with the amplitudes a real frame gives them
    (conjugates for a pair), shuffled: positive and negative real poles, zero
    poles, conjugate pairs, and pairs whose imaginary part sits on either
    side of the real-pole tolerance."""
    finite = st.floats(-2.0, 2.0)
    poles, alphas = [], []
    for kind in draw(st.lists(st.sampled_from(["real", "negative", "zero", "near_real",
                                                "pair"]), max_size=12)):
        r = draw(st.floats(1e-3, 2.0))
        al = complex(draw(finite), draw(finite))
        if kind == "pair":
            z = r * np.exp(1j * draw(st.floats(1e-6, np.pi - 1e-6)))
        elif kind == "near_real":
            z = r * draw(st.sampled_from([1.0, -1.0])) * complex(
                1.0, draw(st.sampled_from([1e-13, 1e-10, 5e-10, 2e-9, 1e-8])))
        else:
            poles.append({"real": r, "negative": -r, "zero": 0.0}[kind])
            alphas.append(al.real)
            continue
        poles += [z, np.conj(z)]
        alphas += [al, np.conj(al)]
    order = draw(st.permutations(range(len(poles))))
    return (np.array(poles, dtype=np.complex128)[order],
            np.array(alphas, dtype=np.complex128)[order])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(pa=_pole_sets(), fs=st.sampled_from([8000.0, 16000.0, 44100.0]))
def test_pole_pairing_matches_the_scalar_reference(pa, fs):
    poles, alphas = pa
    got = _poles_to_components(poles, alphas, fs)
    want = _reference_poles_to_components(poles, alphas, fs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _components_to_poles(rows, fs):
    """Expand component rows (freq_hz, amp, phase, delta) into (poles,
    alphas); the inverse of _poles_to_components for 0 < f < fs/2."""
    poles, alphas = [], []
    for freq_hz, a, phase, delta in rows:
        if 0.0 < freq_hz < fs / 2.0:
            z = np.exp(delta + 1j * TWO_PI * freq_hz / fs)
            al = 0.5 * a * np.exp(1j * phase)
            poles += [z, z.conjugate()]
            alphas += [al, al.conjugate()]
        else:
            poles.append(complex(np.exp(delta) * (1.0 if freq_hz == 0.0 else -1.0)))
            alphas.append(complex(a * np.cos(phase)))
    return np.asarray(poles, dtype=np.complex128), np.asarray(alphas, dtype=np.complex128)


def test_components_poles_roundtrip():
    comps = np.array([(350.0, 0.6, 0.2, -0.001), (2100.0, 0.3, -1.4, 0.0005)])
    poles, alphas = _components_to_poles(comps, FS)
    assert poles.shape == alphas.shape == (4,)
    back = _poles_to_components(poles, alphas, FS)
    assert back.shape == (2, 4)
    np.testing.assert_allclose(back[:, :3], comps[:, :3], rtol=1e-12)
    np.testing.assert_allclose(back[:, 3], comps[:, 3], rtol=1e-9)


def test_component_amplitude_must_be_nonnegative():
    with pytest.raises(UsageError):
        EDSMFrames.from_frames([(0, 100, 2, [(100.0, -0.1, 0.0, 0.0)])])
    # frames edsm_synthesize can render one after another: from sample 0 on,
    # non-empty, not overlapping
    for layout in ([(-1, 100)], [(0, 0)], [(0, 100), (99, 100)]):
        with pytest.raises(UsageError, match="overlap"):
            EDSMFrames.from_frames([(s, n, 0, []) for s, n in layout])


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields", [
    {"rank_rtol": float("nan")}, {"rank_rtol": 2.0}, {"rank_rtol": -1e-10},
    {"rank_rtol": float("inf")}, {"window_samples": float("nan")},
    {"window_samples": 80.7}, {"window_samples": 80.0}, {"window_samples": 3},
])
def test_config_rejects_values_that_would_break_silently(fields):
    with pytest.raises(UsageError):
        EDSMConfig(**{"window_samples": 80, "order": 3, **fields})


@pytest.mark.parametrize("order", [2.5, [2.7, 2.7], True, float("nan"), 0, [1, 0], [1, True],
                                   np.array([2.0, 3.0])])
def test_config_rejects_orders_that_are_not_counts(order):
    # 2.5, [2.7] * n and True once ran as 2, 2 and 1 sinusoids, nan ended in
    # a bare ValueError, and 0 passed until analysis
    with pytest.raises(UsageError, match="order"):
        EDSMConfig(window_samples=80, order=order)


def test_config_takes_numpy_integer_orders():
    sig = gen_amfm(AMFMSpec(duration=0.02, seed=0))[0]
    want = edsm_analyze(sig, EDSMConfig(window_samples=80, order=[3, 2, 3, 1]))
    for order in (np.array([3, 2, 3, 1]), [np.int64(3), 2, np.int32(3), 1]):
        got = edsm_analyze(sig, EDSMConfig(window_samples=80, order=order))
        assert got.values.tobytes() == want.values.tobytes()
    assert EDSMConfig(window_samples=80).order is None   # an error only at analysis


def test_config_takes_numpy_integers_and_the_rank_bounds():
    sig = gen_amfm(AMFMSpec(duration=0.05, seed=0))[0]
    for cfg in (EDSMConfig(window_samples=np.int64(80), order=3, rank_rtol=0.0),
                EDSMConfig(window_samples=np.int32(80), order=3, rank_rtol=1.0)):
        assert len(edsm_analyze(sig, cfg)) == 10


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
    for est, ref in zip(comps, truth.values.T[np.argsort(truth.freq_hz)]):
        freq_hz, a, phase, delta = est
        assert abs(a - ref[1]) <= 1e-6 * max(1.0, abs(ref[1]))
        assert abs(delta - ref[3]) <= 1e-6
        assert abs(freq_hz - ref[0]) <= 1e-6 * ref[0]
        assert abs(phase - ref[2]) <= 1e-6
    y = edsm_synthesize(frames, n, FS)
    assert srer(sig.samples, y) >= 80.0
    # a strongly growing envelope is still renderable over its frame, so kept
    x = _damped_frame(400, 0.1, 0.05, 500.0, 0.0)
    grown = edsm_analyze(SampledSignal(samples=x, fs=FS),
                         EDSMConfig(window_samples=400, order=1))
    assert grown.delta[0] == pytest.approx(0.05, abs=1e-6)


@st.composite
def _damped_sums(draw):
    """A frame of 1-4 damped sinusoids with frequencies at least two DFT bins
    apart and from 0 and fs/2, amplitudes of 0.1-1 and at most e^3 of decay
    or e^1.5 of growth over the frame; rows (freq_hz, amp, phase, delta)
    sorted by frequency."""
    length = draw(st.integers(64, 400))
    bin_hz = FS / length
    k = draw(st.integers(1, 4))
    # k gaps of at least two bins share the band left over, in random shares
    spare = FS / 2.0 - 2.0 * bin_hz * (k + 1)
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1)))
    gaps = 2.0 * bin_hz + spare * shares / max(shares.sum(), 1.0)
    freqs = np.cumsum(gaps)[:k]
    comps = np.array([(float(f), draw(st.floats(0.1, 1.0)), draw(st.floats(-3.0, 3.0)),
                       draw(st.floats(-3.0, 1.5)) / length) for f in freqs])
    x = sum(_damped_frame(length, a, delta, f, phase) for f, a, phase, delta in comps)
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
    assert comps.shape == truth.shape
    assert np.all(np.abs(comps[:, 1] - truth[:, 1]) <= 1e-6)
    assert np.all(np.abs(comps[:, 3] - truth[:, 3]) <= 1e-8)
    assert np.all(np.abs(comps[:, 0] - truth[:, 0]) <= 1e-6 * truth[:, 0])
    assert np.all(np.abs(wrap_phase(comps[:, 2] - truth[:, 2])) <= 1e-6)
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
    assert frames[1].components.shape == (0, 4) and frames[1].k_eff == 0
    y = edsm_synthesize(frames, 900, FS)
    assert np.max(np.abs(y[300:600])) == 0.0


def test_synthesize_clamps_unrenderable_damping():
    fr = EDSMFrames.from_frames([(0, 100, 2, [(100.0, 1.0, 0.0, 9.0)])])
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


def test_track_partials_links_an_edsm_record_of_a_steady_tone():
    # edsm's record is a FrameRecord: sm's tracker reads it as it is
    w = 200
    x = _damped_frame(20 * w, 0.7, 0.0, 440.0, 0.3)
    frames = edsm_analyze(SampledSignal(samples=x, fs=FS), EDSMConfig(window_samples=w, order=1))
    assert frames.values.shape == (4, 20)
    tracks = track_partials(frames, frames.start / FS, w / FS)
    assert len(tracks) == 1
    assert tracks[0].freqs[:-1] == pytest.approx(np.full(20, 440.0))
    assert tracks[0].amps[:-1] == pytest.approx(np.full(20, 0.7))


# ---------------------------------------------------------------------------
# frame-by-frame references
# ---------------------------------------------------------------------------

def _gram_rule(x, k):
    """The Gram rule's values for one frame x and order k, as esprit_poles
    forms them from its Hankel matrix X: (the k x N top eigenvectors of X'X,
    largest first; theta^2, the squared rounding bound, inf for a tie; rho,
    the residual fraction the k-pole fit leaves; |u|^2)."""
    n = x.shape[0] // 2
    X = np.lib.stride_tricks.sliding_window_view(x, n).copy()
    gram = X.T @ X
    lam, vecs = dsyevr(gram, range="I", il=n - k, iu=n)[:2]
    # contiguous, as esprit_poles stacks them: matmul takes BLAS for these only
    top, lam = np.ascontiguousarray(vecs[:, :0:-1].T), lam[k::-1].tolist()
    trace = float(np.trace(gram))
    gap = lam[k - 1] - lam[k]
    theta2 = (n * EPS * lam[0] / gap) ** 2 if gap > 0.0 else np.inf
    return top, theta2, (trace - sum(lam[:k])) / trace, float(top[:, -1] @ top[:, -1])


def _svd_esprit_poles(x, k_exp, rank_rtol):
    """esprit_poles of one frame with its own SVD, closed-form shift solve
    and eigvals."""
    n = x.shape[0] // 2
    X = np.lib.stride_tricks.sliding_window_view(x, n).copy()
    _, s, vh = np.linalg.svd(X, full_matrices=False)
    k_eff = min(int(np.count_nonzero(s >= rank_rtol * s[0])), k_exp)
    if k_eff == 0:
        return np.empty(0, dtype=np.complex128), 0
    v, rest = vh[:k_eff], vh[k_eff:]
    u, w = v[:, -1:], rest[:, -1:]
    m = v[:, :-1] @ v[:, 1:].T
    neg_um = (w.T @ rest[:, :-1]) @ v[:, 1:].T
    ww = w.T @ w
    denom = ww if ww[0, 0] > 1e-30 else -(u.T @ u)
    return _sorted_poles(np.linalg.eigvals(m - u * (neg_um / denom))), k_eff


def _reference_esprit_poles(x, k_exp, rank_rtol):
    """esprit_poles of one frame: at a fixed order (rank_rtol 0), from the top
    eigenvectors of its Gram when 8 (k + 1) <= N, theta^2 <= 1e-4 rho and
    |u|^2 <= 1/2, with u'M formed directly; otherwise _svd_esprit_poles."""
    n = x.shape[0] // 2
    if rank_rtol == 0.0 and 8 * (k_exp + 1) <= n:
        v, theta2, rho, uu = _gram_rule(x, k_exp)
        if theta2 <= 1e-4 * rho and uu <= 0.5:
            u = v[:, -1:]
            m = v[:, :-1] @ v[:, 1:].T
            phi = m - u * (-(u.T @ m) / (1.0 - u.T @ u))
            return _sorted_poles(np.linalg.eigvals(phi)), k_exp
    return _svd_esprit_poles(x, k_exp, rank_rtol)


def _sorted_poles(poles):
    return poles[np.lexsort((np.abs(poles), np.angle(poles)))].astype(np.complex128)


def _reference_edsm_analyze(signal, config):
    """edsm_analyze one frame at a time."""
    x = signal.samples
    n = x.shape[0]
    w = config.window_samples
    starts = list(range(0, n, w))
    frames = []
    for start, k_sin in zip(starts, edsm._frame_orders(config.order, len(starts))):
        length = min(w, n - start)
        seg = x[start:start + length]
        comps, k_kept = [], 0
        if np.any(seg):
            seg = np.concatenate([seg, np.zeros(max(8 - length, 0))])
            n_cols = seg.shape[0] // 2
            k_cap = min(n_cols, seg.shape[0] - n_cols + 1) - 1
            poles, k_eff = _reference_esprit_poles(seg, min(2 * k_sin, k_cap), config.rank_rtol)
            mag = np.abs(poles)
            bound = edsm._LOG_RANGE / max(seg.shape[0] - 1, 1)
            poles = poles[(mag > 0) & (np.abs(np.log(np.maximum(mag, 1e-300))) <= bound)]
            if k_eff and poles.shape[0]:
                alphas = _vandermonde_amplitudes(seg, poles)
                comps, k_kept = _poles_to_components(poles, alphas, signal.fs), k_eff
        frames.append((start, length, k_kept, comps))
    return EDSMFrames.from_frames(frames)


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
        for freq_hz, a, phase, delta in fr.components.tolist():
            delta = float(np.clip(delta, -bound, bound))
            seg += a * np.exp(delta * n) * np.cos(TWO_PI * freq_hz / fs * n + phase)
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
        y = edsm_synthesize(got, n, FS)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _reference_edsm_analyze(sig, cfg)
    assert _frame_bits(got) == _frame_bits(want)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
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
    assert len(set(got.k_eff[:30].tolist())) > 3
    assert got[10].k_eff == got[11].k_eff == 0 and got[-1].length == 5
    assert _frame_bits(got) == _frame_bits(_reference_edsm_analyze(sig, cfg))


def test_analysis_runs_through_the_two_named_stages(monkeypatch):
    # edsm_analyze looks both stages up in the module at call time, so a
    # tracer that rebinds them, as perfbench's does, sees the real work
    w = 40
    x = _random_damped_sum(25 * w + 13, np.random.default_rng(3))
    x[5 * w:7 * w] = 0.0
    sig = SampledSignal(samples=x, fs=FS)
    cfg = EDSMConfig(window_samples=w, order=[1 + i % 4 for i in range(26)], rank_rtol=1e-8)
    # four 21 x 20 Hankel matrices a block: 25 full frames in 7 blocks, then the tail
    monkeypatch.setattr(edsm, "ESPRIT_BLOCK", 4 * 21 * 20)
    want = edsm_analyze(sig, cfg)
    esprit, vandermonde = edsm.esprit_poles, edsm.vandermonde_amplitudes
    blocks = []  # per esprit_poles call: its frames, then per amplitude solve its pole counts

    def count_esprit(frames, k_max, rank_rtol):
        blocks.append((frames.shape[0], []))
        return esprit(frames, k_max, rank_rtol)

    def count_vandermonde(frames, real, up):
        blocks[-1][1].append((real.shape[1], up.shape[1], frames.shape[0]))
        return vandermonde(frames, real, up)

    monkeypatch.setattr(edsm, "esprit_poles", count_esprit)
    monkeypatch.setattr(edsm, "vandermonde_amplitudes", count_vandermonde)
    got = edsm_analyze(sig, cfg)
    assert _frame_bits(got) == _frame_bits(want)
    assert [n for n, _ in blocks] == [4, 2, 4, 4, 4, 4, 1, 1]   # frames 5 and 6 are silent
    kept = np.add.reduceat(got.k_eff > 0, [0, 4, 8, 12, 16, 20, 24, 25])
    for (_, solves), n_kept in zip(blocks, kept.tolist()):
        # one solve per (real, upper) pole count, together holding every frame kept
        assert len({(n_real, n_up) for n_real, n_up, _ in solves}) == len(solves)
        assert sum(g for _, _, g in solves) == n_kept
    assert max(len(solves) for _, solves in blocks) > 1


def test_esprit_poles_is_the_one_frame_reference():
    rng = np.random.default_rng(9)
    for length, k_exp, rtol in ((80, 12, 1e-10), (9, 3, 0.0), (200, 30, 1e-6), (400, 4, 0.0)):
        x = _random_damped_sum(length, rng)
        poles, k_eff = _esprit_poles(x, k_exp, rank_rtol=rtol)
        want, want_k = _reference_esprit_poles(x, k_exp, rtol)
        assert k_eff == want_k
        assert poles.dtype == want.dtype and poles.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# fixed-order frames: the Gram path and the rule that sends a frame to the SVD
# ---------------------------------------------------------------------------

GRAM_POLE_RTOL = 1e-10  # |Gram pole - SVD pole| / max |SVD pole| on noisy frames


def _noisy_tones(length, k, rng):
    """max(1, k // 2) damped or growing tones with white noise 20 to 140 dB
    down: a frame whose k-pole fit leaves a residual."""
    n = np.arange(length)
    x = sum(rng.uniform(0.1, 1.0) * np.exp(rng.uniform(-0.01, 0.003) * n)
            * np.cos(rng.uniform(0.05, 3.0) * n + rng.uniform(-np.pi, np.pi))
            for _ in range(max(1, k // 2)))
    return x + rng.normal(0.0, 10.0 ** rng.uniform(-7.0, -1.0), length)


def _traced_esprit_poles(x, k, rank_rtol):
    """_esprit_poles and the number of dsyevr calls it made."""
    with mock.patch.object(edsm, "dsyevr", wraps=dsyevr) as spy:
        poles, k_eff = _esprit_poles(x, k, rank_rtol)
    return poles, k_eff, spy.call_count


def test_gram_poles_match_the_svd_poles_on_noisy_low_order_frames():
    rng = np.random.default_rng(21)
    for _ in range(60):
        k = int(rng.choice([1, 2, 4, 6]))
        x = _noisy_tones(int(rng.integers(16 * (k + 1), 700)), k, rng)
        _, theta2, rho, uu = _gram_rule(x, k)
        assert theta2 <= 1e-4 * rho and uu <= 0.5
        poles, k_eff, calls = _traced_esprit_poles(x, k, 0.0)
        want, _ = _reference_esprit_poles(x, k, 0.0)
        assert calls == 1 and k_eff == k and poles.tobytes() == want.tobytes()
        svd, _ = _svd_esprit_poles(x, k, 0.0)
        assert np.abs(poles - svd).max() <= GRAM_POLE_RTOL * np.abs(svd).max()


def _fs4_tone():
    # 161 samples: R = 82 rows, half of each phase, so the tone's two
    # eigenvalues are equal up to rounding
    return np.cos(np.pi / 2 * np.arange(161) + 0.3)


def _growing_tone(rng):
    # |u|^2 = 0.63 for the k = 2 subspace, though the Gram is accurate
    n = np.arange(161)
    return np.exp(0.25 * n) * (np.cos(0.9 * n + 0.2) + rng.normal(0.0, 1e-3, 161))


@pytest.mark.parametrize("case", ["rank_rtol", "order", "near_n_over_8", "tie", "growing"])
def test_frames_failing_the_gram_rule_take_the_svd(case):
    rng = np.random.default_rng(4)
    x, k, rank_rtol, calls = {
        "rank_rtol": (_noisy_tones(161, 2, rng), 2, 1e-12, 0),
        # 8 (k + 1) = 88 > N = 80
        "order": (_noisy_tones(161, 10, rng), 10, 0.0, 0),
        # 8 (k + 1) = 24 > N = 23
        "near_n_over_8": (_noisy_tones(47, 2, rng), 2, 0.0, 0),
        "tie": (_fs4_tone(), 1, 0.0, 1),
        "growing": (_growing_tone(rng), 2, 0.0, 1),
    }[case]
    if calls:
        # dsyevr ran, and only the condition under test fails
        _, theta2, rho, uu = _gram_rule(x, k)
        assert (theta2 <= 1e-4 * rho) == (case != "tie") and (uu <= 0.5) == (case != "growing")
    poles, k_eff, got_calls = _traced_esprit_poles(x, k, rank_rtol)
    want, want_k = _svd_esprit_poles(x, k, rank_rtol)
    assert got_calls == calls and k_eff == want_k == k
    assert poles.tobytes() == want.tobytes()
    if case == "near_n_over_8":
        # one sample more makes N = 24, and the frame takes the Gram
        assert _traced_esprit_poles(np.append(x, 0.5), k, 0.0)[2] == 1


def test_fixed_order_blocks_mix_gram_and_svd_frames():
    # 161-sample frames (N = 80): orders 1-4 (k = 2-8) take the Gram, orders
    # 5 and 6 (k = 10, 12) exceed N / 8; a silent frame, a growing one that
    # dsyevr sees and the rule sends to the SVD, and a short tail (N = 20)
    rng = np.random.default_rng(8)
    orders = [1 + i % 6 for i in range(12)]
    tones = [_noisy_tones(161, 2 * k, rng) for k in orders]
    growing = _growing_tone(rng)
    for x, k in zip(tones, orders):
        if k <= 4:
            _, theta2, rho, uu = _gram_rule(x, 2 * k)
            assert theta2 <= 1e-4 * rho and uu <= 0.5
    assert _gram_rule(growing, 2)[3] > 0.5
    sig = SampledSignal(samples=np.concatenate(tones + [np.zeros(161), growing,
                                                        _noisy_tones(40, 2, rng)]), fs=FS)
    cfg = EDSMConfig(window_samples=161, order=orders + [1, 1, 2], rank_rtol=0.0)
    with mock.patch.object(edsm, "dsyevr", wraps=dsyevr) as spy:
        got = edsm_analyze(sig, cfg)
    assert spy.call_count == 9
    assert got.k_eff.tolist() == [2 * k for k in orders] + [0, 2, 4]
    assert _frame_bits(got) == _frame_bits(_reference_edsm_analyze(sig, cfg))


@pytest.mark.parametrize("fs", [8000.0, 44100.0, 48000.0])
def test_edsm_at_other_rates_matches_the_per_frame_reference(fs):
    sig = gen_amfm(AMFMSpec(duration=0.15, fs=fs, seed=2))[0]
    f0track = estimate_f0(sig, *PITCH_BAND_HZ)
    cfg = MODEL_TABLE["edsm"].config(sig, f0track, None, None)
    assert cfg.order == _reference_full_band_orders(f0track, sig, cfg.window_samples)
    srer_db, frames, y, _ = run_model("edsm", sig, f0track, cfg)
    assert np.isfinite(srer_db)
    want = _reference_edsm_analyze(sig, cfg)
    assert _frame_bits(frames) == _frame_bits(want)
    assert y.tobytes() == _reference_edsm_synthesize(want, sig.samples.shape[0], fs).tobytes()


def test_full_band_orders_match_the_per_frame_reference():
    sig = gen_amfm(AMFMSpec(duration=0.3, seed=4))[0]
    f0track = estimate_f0(sig, *PITCH_BAND_HZ)
    for window in (7, 80, 123, 4800, 6000):
        got = full_band_orders(f0track, sig, window)
        assert got == _reference_full_band_orders(f0track, sig, window)
        assert all(type(k) is int for k in got)


# ---------------------------------------------------------------------------
# long input
# ---------------------------------------------------------------------------

LONG_S = 30
LONG_WALL_S = 30.0    # the child's wall time, start-up and input generation included
LONG_RSS_MB = 128.0   # the child's peak resident set

_LONG_CHILD = f"""
import numpy as np
from sinemodel.core import TWO_PI, SampledSignal
from sinemodel.generators import AMFMSpec
from sinemodel.harness import MODEL_TABLE, PITCH_BAND_HZ, run_model
from sinemodel.pitch import estimate_f0
# gen_amfm's sum, built without its per-sample truth tracks (four arrays of
# the input's length per partial)
spec = AMFMSpec(duration={LONG_S})
t = np.arange(int(round(spec.duration * spec.fs))) / spec.fs
r = np.random.default_rng(spec.seed).uniform(0.0, 1.0, spec.n_partials)
carrier = np.cos(TWO_PI * spec.f_c * t)
x = np.zeros(t.shape[0])
for k in range(1, spec.n_partials + 1):
    x += (0.5 + r[k - 1] / k) * np.cos(TWO_PI * k * spec.f0 * t + k * spec.rho * carrier)
del t, carrier
sig = SampledSignal(samples=x, fs=spec.fs)
f0track = estimate_f0(sig, *PITCH_BAND_HZ)
cfg = MODEL_TABLE["edsm"].config(sig, f0track, None, None)
srer_db, frames, _, _ = run_model("edsm", sig, f0track, cfg)
# this process image's own peak resident set, in KiB: ru_maxrss would also
# count the resident set of the process that started it
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(srer_db, len(frames), peak_kib / 1024.0)
"""


def test_edsm_on_30_s_of_audio_stays_within_time_and_memory():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sinemodel.__file__)))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _LONG_CHILD], capture_output=True,
                         text=True, check=True, env=env).stdout
    wall = time.perf_counter() - t0
    srer_db, frames, rss_mb = out.split()
    # the protocol's window of 0.75 periods of the 150 Hz fundamental: 80 samples
    assert int(frames) == LONG_S * 16000 // 80
    assert float(srer_db) > 150.0
    assert wall < LONG_WALL_S, f"{LONG_S} s of audio took {wall:.1f} s"
    assert float(rss_mb) < LONG_RSS_MB, f"{LONG_S} s of audio peaked at {float(rss_mb):.0f} MB"
