"""The numpy kernels against plain-Python loop references."""
import numpy as np
import pytest

from sinemodel import _kernels

rng = np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# loop references: each kernel's definition, one sample at a time
# ---------------------------------------------------------------------------

def _accumulate_cosine_ref(out, start, amp, phase):
    for i in range(amp.shape[0]):
        out[start + i] += amp[i] * np.cos(phase[i])


def _trapezoid_phase_ref(freq_hz, fs, phi0):
    n = freq_hz.shape[0]
    phase = np.empty(n)
    if n == 0:
        return phase
    phase[0] = phi0
    for i in range(1, n):
        phase[i] = phase[i - 1] + np.pi / fs * (freq_hz[i - 1] + freq_hz[i])
    return phase


def _autocorr_norm_ref(frame, lag_min, lag_max):
    n = frame.shape[0]
    r = np.zeros(lag_max - lag_min + 1)
    if not any(frame):
        return r
    for j, lag in enumerate(range(lag_min, lag_max + 1)):
        m = n - lag
        if m <= 0:
            continue
        num = sum(frame[i] * frame[i + lag] for i in range(m))
        e1 = sum(frame[i] * frame[i] for i in range(m))
        e2 = sum(frame[i + lag] * frame[i + lag] for i in range(m))
        den = np.sqrt(e1 * e2)
        if den > 0.0:
            r[j] = num / den
    return r


def _hankel_build_ref(x, rows, cols):
    X = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            X[r, c] = x[r + c]
    return X


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_accumulate_cosine_matches():
    for _ in range(5):
        n = int(rng.integers(10, 400))
        start = int(rng.integers(0, 50))
        amp = rng.uniform(0.0, 2.0, n)
        phase = rng.uniform(-50.0, 50.0, n)
        out_a = np.zeros(start + n + 7)
        out_b = out_a.copy()
        _kernels.accumulate_cosine(out_a, start, amp, phase)
        _accumulate_cosine_ref(out_b, start, amp, phase)
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-14)


def test_accumulate_cosine_adds_in_place():
    base = rng.normal(size=20)
    out_a, out_b = base.copy(), base.copy()
    amp = np.ones(5)
    phase = np.zeros(5)
    _kernels.accumulate_cosine(out_a, 3, amp, phase)
    _accumulate_cosine_ref(out_b, 3, amp, phase)
    np.testing.assert_allclose(out_a, out_b)
    np.testing.assert_allclose(out_a[3:8], base[3:8] + 1.0)
    np.testing.assert_allclose(out_a[:3], base[:3])


def test_trapezoid_phase_matches():
    for n in (0, 1, 2, 777):
        freq = rng.uniform(0.0, 4000.0, n)
        a = _kernels.trapezoid_phase(freq, 16000.0, 0.25)
        b = _trapezoid_phase_ref(freq, 16000.0, 0.25)
        assert a.shape == b.shape == (n,)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_autocorr_norm_matches():
    for _ in range(5):
        n = int(rng.integers(50, 400))
        frame = rng.normal(size=n)
        lag_min = int(rng.integers(1, 10))
        lag_max = int(rng.integers(lag_min, n + 5))  # may exceed the frame
        (a,) = _kernels.autocorr_norm(frame[None], lag_min, lag_max)
        b = _autocorr_norm_ref(frame, lag_min, lag_max)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_autocorr_norm_zero_frame():
    z = np.zeros(64)
    np.testing.assert_array_equal(_kernels.autocorr_norm(z[None], 2, 10), np.zeros((1, 9)))
    np.testing.assert_array_equal(_autocorr_norm_ref(z, 2, 10), np.zeros(9))


def _one_frame_autocorr_norm(frame, lag_min, lag_max):
    """autocorr_norm of one 1-D frame, as its own array ops."""
    n = frame.shape[0]
    r = np.zeros(lag_max - lag_min + 1, dtype=np.float64)
    if not np.any(frame):
        return r
    full = np.correlate(frame, frame, mode="full")[n - 1:]
    csq = np.concatenate(([0.0], np.cumsum(frame * frame)))
    lags = np.arange(lag_min, min(lag_max + 1, n))
    den = np.sqrt(csq[n - lags] * (csq[n] - csq[lags]))
    np.divide(full[lags], den, out=r[:lags.shape[0]], where=den > 0.0)
    return r


def test_autocorr_norm_rows_are_the_one_frame_bits():
    # a stack of frames, an all-zero one among them, gives each frame's own bits
    frames = rng.normal(size=(6, 120))
    frames[2] = 0.0
    for lag_min, lag_max in ((1, 60), (5, 130), (119, 125)):
        got = _kernels.autocorr_norm(frames, lag_min, lag_max)
        assert got.shape == (6, lag_max - lag_min + 1)
        for row, frame in zip(got, frames):
            assert row.tobytes() == _one_frame_autocorr_norm(frame, lag_min, lag_max).tobytes()
        assert not got[2].any()


def test_hankel_build_matches():
    for rows, cols in ((1, 1), (3, 2), (40, 17)):
        x = rng.normal(size=rows + cols - 1)
        np.testing.assert_array_equal(_kernels.hankel_build(x, rows, cols),
                                      _hankel_build_ref(x, rows, cols))


def test_autocorr_unit_lag_of_periodic_signal():
    # exact period: correlation at the period lag is 1
    n, period = 240, 40
    frame = np.sin(2 * np.pi * np.arange(n) / period)
    r = _kernels.autocorr_norm(frame[None], period, period)
    assert r[0, 0] == pytest.approx(1.0, abs=1e-12)
