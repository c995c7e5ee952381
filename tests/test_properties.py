"""Property tests: SRER scale invariance, the WAV round trip, what the
pitch tracker returns on silence, white noise and clipped input, and what
each model returns on edge inputs."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sinemodel import audio_io
from sinemodel.core import SRER_MAX_DB, SampledSignal, srer
from sinemodel.errors import SineModelError
from sinemodel.harness import MODEL_TABLE, MODELS, PITCH_BAND_HZ, run_model
from sinemodel.pitch import estimate_f0

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


# ---------------------------------------------------------------------------
# pitch on silence, white noise and clipped input
# ---------------------------------------------------------------------------

PITCH_SETTINGS = settings(deadline=None, max_examples=100, derandomize=True)


def _check_track(track, n, fs, band):
    """What every track is: one frame per hop of 5 ms whose window of two
    longest periods fits the input, and either no voiced frame (f0 0
    everywhere) or an f0 inside the band on every frame."""
    f_min, f_max = band
    frame_len = 2 * int(np.ceil(fs / f_min))
    hop = max(1, int(round(5.0 * fs / 1000.0)))
    starts = np.arange(0, n - frame_len + 1, hop)
    assert track.times.tobytes() == ((starts + frame_len / 2.0) / fs).tobytes()
    if track.any_voiced:
        assert np.all((f_min <= track.f0) & (track.f0 <= f_max))
    else:
        assert np.all(track.f0 == 0.0)


@PITCH_SETTINGS
@given(extra=st.integers(0, 6000),
       level=st.sampled_from([0.0, 1e-300]) | st.floats(-1e6, 1e6, allow_subnormal=False),
       fs=st.sampled_from([8000.0, 16000.0, 44100.0]),
       band=st.sampled_from([PITCH_BAND_HZ, (60.0, 500.0), (150.0, 1000.0)]))
def test_pitch_on_silence_is_unvoiced_with_f0_zero(extra, level, fs, band):
    # silence, or a constant (DC) level, which the per-frame mean removes
    n = 2 * int(np.ceil(fs / band[0])) + extra   # at least one frame
    track = estimate_f0(SampledSignal(samples=np.full(n, level), fs=fs), *band)
    _check_track(track, n, fs, band)
    assert len(track) > 0 and not track.any_voiced


def _noise(seed, n, gain):
    """Gaussian white noise, hard-clipped to +-1 after `gain` when gain > 1."""
    x = np.random.default_rng(seed).normal(size=n)
    return np.clip(gain * x, -1.0, 1.0) if gain > 1.0 else x


@PITCH_SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), seconds=st.floats(0.06, 0.3),
       fs=st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0]),
       gain=st.sampled_from([1.0, 3.0, 100.0]), k=st.integers(-40, 40))
def test_pitch_on_white_noise_voices_at_most_one_frame(seed, seconds, fs, gain, k):
    # plain or clipped white noise under the comparison band: its normalized
    # autocorrelation stays below the voicing threshold on all but rare
    # frames
    n = int(seconds * fs)
    x = _noise(seed, n, gain)
    track = estimate_f0(SampledSignal(samples=x, fs=fs), *PITCH_BAND_HZ)
    _check_track(track, n, fs, PITCH_BAND_HZ)
    assert np.count_nonzero(track.voiced) <= 1
    # the tracker is scale-free: a power-of-two gain changes no bit
    scaled = estimate_f0(SampledSignal(samples=x * 2.0 ** k, fs=fs), *PITCH_BAND_HZ)
    assert scaled.voiced.tobytes() == track.voiced.tobytes()
    assert scaled.f0.tobytes() == track.f0.tobytes()


@PITCH_SETTINGS
@given(f=st.floats(75.0, 395.0), gain=st.floats(1.0, 1000.0), phase=st.floats(0.0, 6.3),
       fs=st.sampled_from([8000.0, 16000.0, 44100.0]))
def test_pitch_on_a_clipped_tone_keeps_its_period(f, gain, phase, fs):
    # clipping a tone (up to a square wave) adds odd harmonics but keeps the
    # period: every frame is voiced at the tone's f0
    n = int(0.1 * fs)
    x = np.clip(gain * np.cos(2.0 * np.pi * f * np.arange(n) / fs + phase), -1.0, 1.0)
    track = estimate_f0(SampledSignal(samples=x, fs=fs), *PITCH_BAND_HZ)
    _check_track(track, n, fs, PITCH_BAND_HZ)
    assert track.voiced.all()
    assert np.max(np.abs(track.f0 - f)) <= 0.01 * f


# ---------------------------------------------------------------------------
# every model on edge inputs
# ---------------------------------------------------------------------------

def _edge_inputs(n=4000, fs=16000.0):
    """0.25 s inputs at the edges of what a model is asked to fit."""
    t = np.arange(n) / fs
    tone = 0.5 * np.cos(2.0 * np.pi * 150.0 * t + 0.3)
    impulse = np.zeros(n)
    impulse[n // 2] = 0.9
    return {"silence": np.zeros(n), "dc": np.full(n, 0.25), "impulse": impulse,
            "noise": np.random.default_rng(0).normal(0.0, 0.1, n),
            "clipped_tone": np.clip(4.0 * tone, -0.5, 0.5),
            "tone_then_silence": np.where(t < 0.125, tone, 0.0)}


def _run_protocol(model, x, fs=16000.0):
    """(srer_db, resynthesis) of `model` under the comparison protocol, or
    None when it raises a SineModelError."""
    sig = SampledSignal(samples=x, fs=fs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # skipped frames
            f0track = estimate_f0(sig, *PITCH_BAND_HZ) if MODEL_TABLE[model].needs_f0 else None
            s, _, y, _ = run_model(model, sig, f0track,
                                   MODEL_TABLE[model].config(sig, f0track, None, None))
    except SineModelError:
        return None
    return s, y


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", list(_edge_inputs()))
def test_models_on_edge_inputs_are_finite_and_scale_free(name, model):
    x = _edge_inputs()[name]
    base = _run_protocol(model, x)
    for k in (-200, 200):
        scaled = _run_protocol(model, x * 2.0 ** k)
        assert (scaled is None) == (base is None)
        if base is not None:
            assert np.isfinite(scaled[0]) and np.isfinite(scaled[1]).all()
            assert abs(scaled[0] - base[0]) <= 1e-9
    if base is not None:
        assert np.isfinite(base[0]) and np.isfinite(base[1]).all()
