"""Property tests: SRER scale invariance and the WAV round trip."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinemodel import audio_io
from sinemodel.core import SRER_MAX_DB, SampledSignal, srer

SETTINGS = settings(deadline=None, max_examples=300, derandomize=True)
EPS = np.finfo(np.float64).eps


def _std(v):
    """Population std taken at unit scale, so tiny samples do not underflow."""
    m = float(np.max(np.abs(v)))
    return 0.0 if m == 0.0 else m * float(np.std(v / m))


def _signal_pair(max_size=64):
    """A reference and an estimate of equal length, finite float64 samples."""
    return st.integers(1, max_size).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3))))


@SETTINGS
@given(pair=_signal_pair(), k=st.integers(-300, 300), sign=st.sampled_from([1.0, -1.0]))
def test_srer_is_exactly_invariant_to_power_of_two_scaling(pair, k, sign):
    x, s = pair
    c = sign * 2.0 ** k
    cx, cs = x * c, s * c
    # scaling by 2**k is exact unless a sample leaves the normal range
    assume(np.all(cx / c == x) and np.all(cs / c == s))
    assert srer(cx, cs) == srer(x, s)


@SETTINGS
@given(pair=_signal_pair(), c=st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6))
def test_srer_is_invariant_to_scaling(pair, c):
    x, s = pair
    scaled = srer(x * c, s * c)
    # rounding c*x, c*s and their difference moves each scaled sample by at
    # most a few ulps, or by a few subnormal steps once it underflows; in units
    # of the unscaled signals the reference's std moves by at most eta and the
    # error's std by at most delta, and the SRER only as far as that allows
    tiny = 4.0 * np.finfo(np.float64).smallest_subnormal / abs(c)
    eta = 2.0 * EPS * float(np.max(np.abs(x))) + tiny
    delta = 4.0 * EPS * float(np.max(np.abs(x) + np.abs(s))) + tiny
    den = _std(x - s)
    if np.ptp(x) == 0.0:
        # a constant reference: -SRER_MAX_DB unless the error is constant too
        assert scaled == -SRER_MAX_DB or (scaled == SRER_MAX_DB and den <= delta)
        return
    num = _std(x)
    lo = 20.0 * np.log10((num - eta) / (den + delta)) - 1e-9 if num > eta else -np.inf
    hi = 20.0 * np.log10((num + eta) / (den - delta)) + 1e-9 if den > delta else np.inf
    assert lo <= scaled <= hi or (scaled == SRER_MAX_DB and den <= delta) \
        or (scaled == -SRER_MAX_DB and num <= eta)
    if den > delta:
        assert lo <= srer(x, s) <= hi


@SETTINGS
@given(x=arrays(np.float64, st.integers(1, 256), elements=st.floats(-1.0, 1.0)),
       fs=st.sampled_from([8000, 16000, 22050, 44100, 48000]))
def test_wav_round_trip_within_one_lsb(tmp_path_factory, x, fs):
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    audio_io.write_wav(path, SampledSignal(samples=x, fs=fs))
    back = audio_io.read_wav(path)
    assert back.fs == fs
    assert back.samples.shape == x.shape
    assert np.max(np.abs(back.samples - x)) < 1.0 / 32768.0
