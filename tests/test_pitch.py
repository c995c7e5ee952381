"""Autocorrelation f0 tracking."""
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sinemodel import _kernels, pitch
from sinemodel.core import SampledSignal
from sinemodel.errors import AnalysisError, UsageError
from sinemodel.pitch import F0Track, average_pitch_period, estimate_f0

FS = 16000.0


def test_pure_tone_f0():
    t = np.arange(8000) / FS
    sig = SampledSignal(samples=np.cos(2 * np.pi * 150.0 * t), fs=FS)
    track = estimate_f0(sig, f_min=70.0, f_max=400.0)
    assert track.voiced.all()
    assert np.max(np.abs(track.f0 - 150.0)) < 0.1
    assert average_pitch_period(track) == pytest.approx(1.0 / 150.0, rel=1e-3)


def test_harmonic_stack_avoids_octave_errors():
    # rich harmonics tempt the tracker toward period multiples; the
    # smallest-lag rule must keep it at the true f0
    t = np.arange(8000) / FS
    x = sum(np.cos(2 * np.pi * 150.0 * k * t + 0.1 * k) / k for k in range(1, 6))
    track = estimate_f0(SampledSignal(samples=x, fs=FS), f_min=70.0, f_max=400.0)
    assert np.max(np.abs(track.f0 - 150.0)) < 0.5


def test_noise_is_unvoiced():
    rng = np.random.default_rng(0)
    sig = SampledSignal(samples=rng.normal(0, 0.1, 8000), fs=FS)
    track = estimate_f0(sig, f_min=70.0, f_max=400.0)
    assert not track.any_voiced
    with pytest.raises(AnalysisError):
        average_pitch_period(track)


def test_unvoiced_frames_inherit_nearest_voiced():
    t = np.arange(8000) / FS
    x = np.cos(2 * np.pi * 200.0 * t)
    x[4000:] = 0.0
    track = estimate_f0(SampledSignal(samples=x, fs=FS), f_min=70.0, f_max=400.0)
    assert track.any_voiced and not track.voiced.all()
    # every frame carries a usable value, voiced or not
    assert np.all(track.f0 >= 70.0) and np.all(track.f0 <= 400.0)
    # frames fully inside the tone are accurate; frames straddling the edge
    # see only partial support and are allowed to drift within the band
    core = track.voiced & (track.times <= 0.22)
    assert np.any(core)
    assert np.max(np.abs(track.f0[core] - 200.0)) < 1.0
    # the silent tail is unvoiced and carries one inherited constant
    tail = track.times >= 0.30
    assert np.any(tail) and not np.any(track.voiced[tail])
    assert np.unique(track.f0[tail]).shape[0] == 1


def test_estimate_f0_validation():
    sig = SampledSignal(samples=np.ones(100), fs=FS)
    with pytest.raises(UsageError):  # too short for two f_min periods
        estimate_f0(sig, f_min=60.0, f_max=400.0)
    with pytest.raises(UsageError):
        estimate_f0(sig, f_min=400.0, f_max=100.0)
    long_sig = SampledSignal(samples=np.ones(8000), fs=FS)
    with pytest.raises(UsageError):  # f_max at Nyquist
        estimate_f0(long_sig, f_min=100.0, f_max=8000.0)


def test_f0_at_interpolates():
    track = F0Track(times=np.array([0.0, 1.0]), f0=np.array([100.0, 200.0]),
                    voiced=np.array([True, True]))
    assert track.f0_at(0.5) == pytest.approx(150.0)
    assert track.f0_at(2.0) == pytest.approx(200.0)  # held beyond the span
    assert len(track) == 2


def test_f0track_validation():
    with pytest.raises(UsageError):
        F0Track(times=np.zeros(3), f0=np.zeros(2), voiced=np.zeros(3, bool))


def _argmin_nearest_voiced(voiced):
    """Reference fill: a frames x voiced distance matrix, argmin per frame
    (the first minimum, so ties go to the earlier voiced frame)."""
    vi = np.flatnonzero(voiced)
    return vi[np.argmin(np.abs(np.arange(voiced.shape[0])[:, None] - vi[None, :]), axis=1)]


def test_nearest_voiced_matches_argmin_reference():
    rng = np.random.default_rng(3)
    masks = [rng.random(n) < p for n in (1, 2, 7, 50, 400) for p in (0.02, 0.3, 0.9)]
    masks += [np.eye(9, dtype=bool)[k] for k in (0, 4, 8)]      # one voiced frame
    masks.append(np.array([0, 1, 0, 0, 1, 0, 0, 0, 1, 0], dtype=bool))  # ties
    masks = [m for m in masks if m.any()]
    assert len(masks) >= 12
    for m in masks:
        np.testing.assert_array_equal(pitch._nearest_voiced(m), _argmin_nearest_voiced(m))


def _pitch_test_inputs():
    t = np.arange(8000) / FS
    gated = np.cos(2 * np.pi * 200.0 * t)
    gated[4000:] = 0.0
    return [np.cos(2 * np.pi * 150.0 * t),
            sum(np.cos(2 * np.pi * 150.0 * k * t + 0.1 * k) / k for k in range(1, 6)),
            np.random.default_rng(0).normal(0, 0.1, 8000), gated]


def test_estimate_f0_fill_matches_argmin_reference(monkeypatch):
    # the inputs of the tests above give the same f0 with the reference fill
    got = [estimate_f0(SampledSignal(samples=x, fs=FS), f_min=70.0, f_max=400.0)
           for x in _pitch_test_inputs()]
    monkeypatch.setattr(pitch, "_nearest_voiced", _argmin_nearest_voiced)
    for x, g in zip(_pitch_test_inputs(), got):
        want = estimate_f0(SampledSignal(samples=x, fs=FS), f_min=70.0, f_max=400.0)
        np.testing.assert_array_equal(g.f0, want.f0)
        np.testing.assert_array_equal(g.voiced, want.voiced)


def _pick_lag(r, lo):
    """_pick_lags of one row, one lag at a time."""
    n = r.shape[0]
    g = float(np.max(r))
    if g <= 0:
        return 0.0, g
    keep = pitch._PEAK_KEEP * g
    for j in range(1, n - 1):
        if r[j] > r[j - 1] and r[j] > r[j + 1] and r[j] >= keep:
            a, b, c = r[j - 1], r[j], r[j + 1]
            den = a - 2.0 * b + c
            p = 0.0 if den == 0.0 else float(np.clip(0.5 * (a - c) / den, -0.5, 0.5))
            return lo + j + p, float(b - 0.25 * (a - c) * p)
    j = int(np.argmax(r))
    return float(lo + j), g


def test_pick_lags_match_the_one_row_reference():
    rng = np.random.default_rng(9)
    rows = [rng.uniform(-1.0, 1.0, 40) for _ in range(30)]
    rows += [np.sin(np.linspace(0.0, k, 40)) for k in (3.0, 9.0, 20.0)]
    rows += [
        np.zeros(40), -np.ones(40),                  # no positive peak: lag 0
        np.linspace(0.0, 1.0, 40),                   # rising: the global peak's lag
        np.linspace(1.0, 0.0, 40),                   # falling: the same, at lag lo
        np.r_[0.0, 1.0, 0.0, 0.95, 0.0, np.zeros(35)],  # the first near-peak wins
        np.r_[0.0, 0.5, 0.0, 1.0, 0.0, np.zeros(35)],   # a small first maximum loses
        np.r_[0.0, 0.9, 0.0, 1.0, 0.0, np.zeros(35)],   # one at exactly 0.9 of the peak wins
        np.r_[0.2, 0.6, 1.0, 0.6, 0.2, np.zeros(35)],   # a symmetric peak: p = 0
        np.r_[0.0, 0.5, 1.0, 1.0, 0.5, np.zeros(35)],   # a plateau is no maximum
    ]
    r = np.stack(rows)
    lag, corr = pitch._pick_lags(r, 7)
    want = np.array([_pick_lag(row, 7) for row in rows])
    assert lag.tobytes() == want[:, 0].tobytes()
    assert corr.tobytes() == want[:, 1].tobytes()


def _per_frame_estimate_f0(signal, f_min, f_max, hop_ms):
    """estimate_f0 one frame at a time."""
    x, fs = signal.samples, signal.fs
    lag_min = max(1, int(np.floor(fs / f_max)))
    lag_max = int(np.ceil(fs / f_min))
    frame_len = 2 * lag_max
    hop = pitch.hop_samples(hop_ms, fs)
    lo, hi = max(1, lag_min - 2), min(frame_len - 2, lag_max + 2)
    starts = np.arange(0, x.shape[0] - frame_len + 1, hop)
    f0 = np.zeros(starts.shape[0])
    voiced = np.zeros(starts.shape[0], dtype=bool)
    for i, s in enumerate(starts):
        frame = x[s:s + frame_len]
        frame = frame - np.mean(frame)
        lag, corr = _pick_lag(_kernels.autocorr_norm(frame[None], lo, hi)[0], lo)
        if corr >= pitch.VOICING_THRESHOLD and lag > 0:
            cand = fs / lag
            if f_min <= cand <= f_max:
                f0[i] = cand
                voiced[i] = True
    if np.any(voiced):
        f0 = f0[pitch._nearest_voiced(voiced)]
        if f0.shape[0] >= pitch._MEDFILT_FRAMES:
            f0 = pitch._median_filter(f0)
        f0 = np.clip(f0, f_min, f_max)
    return (starts + frame_len / 2.0) / fs, f0, voiced


@pytest.mark.parametrize("block", [pitch.FRAME_BLOCK, 7])
def test_estimate_f0_matches_the_per_frame_loop(monkeypatch, block):
    monkeypatch.setattr(pitch, "FRAME_BLOCK", block)
    t = np.arange(8000) / FS
    chirp = np.cos(2 * np.pi * (120.0 * t + 150.0 * t * t))
    inputs = _pitch_test_inputs() + [chirp, np.zeros(8000)]
    frames = set()
    for x in inputs:
        sig = SampledSignal(samples=x, fs=FS)
        for f_min, f_max, hop_ms in ((70.0, 400.0, 5.0), (60.0, 500.0, 1.0)):
            got = estimate_f0(sig, f_min=f_min, f_max=f_max, hop_ms=hop_ms)
            times, f0, voiced = _per_frame_estimate_f0(sig, f_min, f_max, hop_ms)
            frames.add(len(got))
            assert got.times.tobytes() == times.tobytes()
            assert got.f0.tobytes() == f0.tobytes()
            assert got.voiced.tobytes() == voiced.tobytes()
    # more frames than one block, and not a whole number of blocks
    assert any(n > block and n % block for n in frames)


def test_estimate_f0_memory_stays_bounded_on_60s():
    # a frames x voiced matrix would need about 1 GB here
    t = np.arange(int(60 * FS)) / FS
    x = np.cos(2 * np.pi * 150.0 * t)
    x[int(20 * FS):int(30 * FS)] = 0.0
    sig = SampledSignal(samples=x, fs=FS)
    del t, x
    tracemalloc.start()
    try:
        track = estimate_f0(sig, f_min=70.0, f_max=400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert track.any_voiced and not track.voiced.all()
    assert peak < 50e6


def test_median_filter_matches_medfilt_reference():
    from scipy.signal import medfilt

    rng = np.random.default_rng(5)
    arrays = [rng.uniform(60.0, 400.0, n) for n in (5, 6, 9, 100, 2500)]
    arrays += [rng.integers(0, 4, n).astype(float) * 37.5 for n in (5, 8, 64, 999)]  # ties
    arrays.append(np.full(12, 150.0))
    for x in arrays:
        np.testing.assert_array_equal(pitch._median_filter(x), medfilt(x, 5))


def _fresh_python(code: str) -> str:
    """stdout of `code` in a new interpreter that imports the sinemodel under test."""
    import sinemodel

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sinemodel.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


def test_import_loads_no_scipy_signal():
    # audio_io loads on the first file read or write, not at import, and
    # reads and writes WAV itself, so scipy.io never loads
    code = ("import sys, sinemodel; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.signal', "
            "'scipy.io')) or m == 'sinemodel.audio_io'))")
    assert _fresh_python(code).strip() == "[]"


def test_import_loads_no_scipy_interpolate():
    # the frequency spline is core's own; scipy.interpolate would bring
    # scipy.special, optimize and spatial with it
    code = ("import sys, sinemodel, sinemodel.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.interpolate', "
            "'scipy.special', 'scipy.optimize', 'scipy.spatial'))))")
    assert _fresh_python(code).strip() == "[]"


def test_import_loads_no_scipy_linalg_io_or_numpy_test_tools():
    # LAPACK comes from scipy's _flapack extension alone and WAV files are
    # read in-house; scipy.linalg's array-API layer would bring numpy.f2py
    # and numpy.testing, about 25 MB per process
    code = ("import sys, sinemodel, sinemodel.cli, sinemodel.harness, sinemodel.audio_io; "
            "print(sorted(m for m in sys.modules if m != 'scipy.linalg._flapack' and "
            "m.startswith(('scipy.linalg', 'scipy.io', 'numpy.f2py', 'numpy.testing'))))")
    assert _fresh_python(code).strip() == "[]"


def test_lapack_routines_are_scipys_own():
    # the same objects scipy.linalg hands out, so results stay bitwise scipy's
    import scipy.linalg

    from sinemodel import _lapack

    for routine, name, dtype in (("dgtsv", "gtsv", np.float64),
                                 ("dposv", "posv", np.float64),
                                 ("dpocon", "pocon", np.float64),
                                 ("dtrtrs", "trtrs", np.float64)):
        assert getattr(_lapack, routine) is scipy.linalg.get_lapack_funcs(name, dtype=dtype)


def test_missing_lapack_extension_is_an_import_error_naming_the_path(monkeypatch):
    from sinemodel import _lapack

    monkeypatch.setattr(_lapack.os.path, "isfile", lambda path: False)
    with pytest.raises(ImportError, match=r"linalg.*_flapack"):
        _lapack._load_flapack()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_maps_every_openblas_build_scipy_linalg_would():
    # _blas looks the builds up once, so none may be mapped only later
    code = ("import sinemodel\n"
            "def builds():\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        return sorted({line.split()[-1] for line in maps\n"
            "                       if 'openblas' in line.lower() and '.so' in line})\n"
            "before = builds()\n"
            "import scipy.linalg\n"
            "print(before)\n"
            "print(builds())\n")
    before, after = _fresh_python(code).splitlines()
    assert before == after
    assert before != "[]"
