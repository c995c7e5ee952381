"""Windows, SRER, interpolation and track synthesis."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from sinemodel import _kernels, core
from sinemodel.core import (SRER_MAX_DB, TWO_PI, PartialTrack, SampledSignal,
                            _cubic_track_samples, hop_samples, interp_frequency_spline,
                            make_window, render_spans, sample_track, srer,
                            synthesize_tracks, wrap_phase)
from sinemodel.errors import UsageError
from sinemodel.sm import SMConfig, sm_analyze_peaks, sm_synthesize

FS = 16000.0


# ---------------------------------------------------------------------------
# loop references: the track renderer one anchor span at a time
# ---------------------------------------------------------------------------

def _phase_by_freq_integration_ref(freq_hz, fs, anchor_idx, anchor_phases):
    """sample_track's phase over samples whose spline frequencies are
    freq_hz, with the anchors on samples anchor_idx: integrated out from the
    first anchor both ways, then pinned span by span."""
    idx = np.asarray(anchor_idx, dtype=np.int64)
    tgt = np.asarray(anchor_phases, dtype=np.float64)
    phase = np.empty(freq_hz.shape[0])
    phase[idx[0]:] = _kernels.trapezoid_phase(freq_hz[idx[0]:], fs, tgt[0])
    for i in range(idx[0] - 1, -1, -1):  # the spline holds its first value here
        phase[i] = phase[i + 1] - TWO_PI * freq_hz[i] / fs
    for j in range(idx.shape[0] - 1):
        ia, ib = int(idx[j]), int(idx[j + 1])
        r = float(wrap_phase(tgt[j + 1] - phase[ib]))
        span = ib - ia
        phase[ia + 1:ib + 1] += r * (np.arange(1, span + 1) / span)
        phase[ib + 1:] += r
    return phase


def _phase_cubic_mq(dt, phi1, f1, phi2, f2, tau):
    """The renderer's cubic phase between two anchors at offsets tau in [0, dt]."""
    w1, a, b = core._cubic_coeffs(dt, phi1, f1, phi2, f2)
    tau = np.asarray(tau, dtype=np.float64)
    return phi1 + w1 * tau + a * tau**2 + b * tau**3


def _track_phase_cubic_ref(track, n0, t, fs):
    phase = np.empty(t.shape[0], dtype=np.float64)
    times, freqs, phases = track.times, track.freqs, track.phases
    if times.shape[0] == 1:
        return phases[0] + TWO_PI * freqs[0] * (t - times[0])
    anchor_samp = np.round(times * fs).astype(np.int64) - n0
    first, last = int(anchor_samp[0]), int(anchor_samp[-1])
    if first > 0:
        phase[:first] = phases[0] + TWO_PI * freqs[0] * (t[:first] - times[0])
    if last < t.shape[0] - 1:
        phase[last + 1:] = phases[-1] + TWO_PI * freqs[-1] * (t[last + 1:] - times[-1])
    for j in range(times.shape[0] - 1):
        ia = max(int(anchor_samp[j]), 0)
        ib = min(int(anchor_samp[j + 1]), t.shape[0] - 1)
        if ib < 0 or ia > t.shape[0] - 1 or ib < ia:
            continue
        stop = ib + 1 if j == times.shape[0] - 2 else ib
        tau = t[ia:stop] - times[j]
        phase[ia:stop] = _phase_cubic_mq(times[j + 1] - times[j], phases[j],
                                        freqs[j], phases[j + 1], freqs[j + 1], tau)
    return phase


def _spline_ref(times, freqs, t_eval):
    """interp_frequency_spline through scipy's CubicSpline."""
    if len(times) == 1:
        return np.full(np.shape(t_eval), float(freqs[0]))
    return CubicSpline(times, freqs, bc_type="natural")(np.clip(t_eval, times[0], times[-1]))


def _sample_track_ref(track, fs, n0, n1):
    """sample_track with the CubicSpline frequency spline."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "interp_frequency_spline", _spline_ref)
        return sample_track(track, fs, n0, n1)


def _render_range(track, n_samples, fs):
    """Samples n0..n1 that cover every anchor and, unless a zero-amplitude
    end anchor stops it there, the signal edge on that side."""
    n0 = int(np.round(track.times[0] * fs))
    n1 = int(np.round(track.times[-1] * fs))
    if track.amps[0] > 0:
        n0 = min(n0, 0)
    if track.amps[-1] > 0:
        n1 = max(n1, n_samples - 1)
    return n0, n1


def _synthesize_tracks_ref(tracks, n_samples, fs, phase_mode):
    out = np.zeros(n_samples)
    for track in tracks:
        n0, n1 = _render_range(track, n_samples, fs)
        lo, hi = max(n0, 0), min(n1, n_samples - 1)
        if hi < lo:
            continue
        t = np.arange(n0, n1 + 1, dtype=np.float64) / fs
        amp = np.interp(t, track.times, track.amps)
        if phase_mode == "cubic":
            phase = _track_phase_cubic_ref(track, n0, t, fs)
        else:
            phase = _phase_by_freq_integration_ref(
                interp_frequency_spline(track.times, track.freqs, t), fs,
                np.round(track.times * fs).astype(np.int64) - n0, track.phases)
        sl = slice(lo - n0, hi - n0 + 1)
        _kernels.accumulate_cosine(out, lo, amp[sl], phase[sl])
    return out


def _random_track(rng, n_anchors, t0, ramps=False):
    # two in five odd gaps are under half a sample, so anchor pairs (never
    # three anchors) share a sample
    gaps = rng.uniform(5e-4, 8e-3, n_anchors)
    short = (rng.random(n_anchors) < 0.4) & (np.arange(n_anchors) % 2 == 1)
    gaps[short] = rng.uniform(1e-6, 3e-5, n_anchors)[short]
    times = t0 + np.cumsum(gaps) - gaps[0]
    amps = rng.uniform(0.1, 1.0, n_anchors)
    if ramps:
        amps[0] = amps[-1] = 0.0
    return PartialTrack(times=times, amps=amps,
                        freqs=rng.uniform(50.0, 4000.0, n_anchors),
                        phases=rng.uniform(-np.pi, np.pi, n_anchors))


def _parity_tracks():
    rng = np.random.default_rng(2024)
    tracks = [
        PartialTrack(times=[0.01], amps=[0.5], freqs=[300.0], phases=[1.0]),
        PartialTrack(times=[0.01], amps=[0.0], freqs=[300.0], phases=[1.0]),
        # two anchors on sample 160, then the last two on sample 480
        PartialTrack(times=[0.01, 0.0100125, 0.02, 0.03, 0.03001],
                     amps=[0.0, 1.0, 0.8, 0.6, 0.0], freqs=[200, 210, 190, 205, 200],
                     phases=[0.0, 2.0, -1.0, 3.0, 0.5]),
    ]
    for i in range(30):
        # starts before 0 or past the 0.1 s signal put anchors outside it
        tracks.append(_random_track(rng, int(rng.integers(1, 40)),
                                    rng.uniform(-0.02, 0.12), ramps=i % 2 == 1))
    return tracks


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_sampled_signal_validation():
    with pytest.raises(UsageError):
        SampledSignal(samples=np.zeros((4, 2)), fs=FS)
    with pytest.raises(UsageError):
        SampledSignal(samples=np.array([]), fs=FS)
    with pytest.raises(UsageError):
        SampledSignal(samples=np.array([0.0, np.nan]), fs=FS)
    with pytest.raises(UsageError):
        SampledSignal(samples=np.zeros(4), fs=0.0)
    sig = SampledSignal(samples=[0, 1, 0, -1], fs=4.0)
    assert len(sig) == 4
    assert sig.duration == pytest.approx(1.0)
    assert sig.samples.dtype == np.float64


@pytest.mark.parametrize("fs", [np.inf, -np.inf, np.nan, -1.0])
def test_sampled_signal_rejects_a_rate_that_is_not_positive_and_finite(fs):
    with pytest.raises(UsageError, match="sample rate must be positive and finite"):
        SampledSignal(samples=np.zeros(4), fs=fs)


def test_partial_track_validation():
    with pytest.raises(UsageError):
        PartialTrack(times=np.array([]), amps=np.array([]),
                     freqs=np.array([]), phases=np.array([]))
    with pytest.raises(UsageError):  # non-increasing times
        PartialTrack(times=[0.0, 0.0], amps=[1, 1], freqs=[100, 100], phases=[0, 0])
    with pytest.raises(UsageError):  # negative amplitude
        PartialTrack(times=[0.0, 1.0], amps=[1, -1], freqs=[100, 100], phases=[0, 0])
    with pytest.raises(UsageError):  # zero frequency
        PartialTrack(times=[0.0, 1.0], amps=[1, 1], freqs=[0, 100], phases=[0, 0])
    tr = PartialTrack(times=[0.5, 1.0], amps=[1, 1], freqs=[100, 100], phases=[0, 0])
    assert tr.times[0] == 0.5 and tr.times[-1] == 1.0


@pytest.mark.parametrize("field", ["times", "amps", "freqs", "phases"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_partial_track_rejects_non_finite_anchors(field, bad, n):
    anchors = dict(times=[0.0, 0.01, 0.02][:n], amps=[0.5] * n, freqs=[100.0] * n,
                   phases=[0.0] * n)
    anchors[field] = anchors[field][:-1] + [bad]
    with pytest.raises(UsageError, match="finite"):
        PartialTrack(**anchors)


_ANCHORS = dict(times=[0.0, 0.01, 0.02], amps=[0.5, 0.4, 0.0], freqs=[100.0, 101.0, 102.0],
                phases=[0.0, 1.0, 2.0])


def _columns(*tracks):
    """Four float64 anchor columns of the tracks, one after another, and
    their offsets."""
    cols = [np.array([v for tr in tracks for v in tr[k]], dtype=np.float64)
            for k in ("times", "amps", "freqs", "phases")]
    return cols, np.concatenate(([0], np.cumsum([len(tr["times"]) for tr in tracks])))


@pytest.mark.parametrize("field,i,bad", [
    ("times", 1, np.nan), ("amps", 2, np.inf), ("freqs", 0, -np.inf), ("phases", 2, np.nan),
    ("times", 1, 0.0), ("times", 2, 0.005), ("amps", 1, -0.1), ("freqs", 2, 0.0),
    ("freqs", 0, -5.0)])
def test_track_column_check_rejects_each_bad_anchor_as_partial_track_does(field, i, bad):
    anchors = {k: list(v) for k, v in _ANCHORS.items()}
    anchors[field][i] = bad
    with pytest.raises(UsageError) as own:
        PartialTrack(**anchors)
    # the bad track between two good ones; times restart at each track
    cols, offsets = _columns(_ANCHORS, anchors, _ANCHORS)
    with pytest.raises(UsageError) as checked:
        core.check_track_columns(*cols, offsets)
    assert str(checked.value) == str(own.value)
    with pytest.raises(UsageError) as built:
        PartialTrack.from_columns(*cols, offsets)
    assert str(built.value) == str(own.value)


def test_track_column_check_rejects_empty_tracks_and_unequal_columns():
    with pytest.raises(UsageError) as own:
        PartialTrack(times=[], amps=[], freqs=[], phases=[])
    cols, _ = _columns(_ANCHORS, _ANCHORS)
    with pytest.raises(UsageError) as checked:
        core.check_track_columns(*cols, np.array([0, 3, 3, 6]))
    assert str(checked.value) == str(own.value)
    with pytest.raises(UsageError) as own:
        PartialTrack(times=[0.0, 0.01], amps=[0.5], freqs=[100.0, 100.0], phases=[0.0, 0.0])
    with pytest.raises(UsageError) as checked:
        core.check_track_columns(cols[0], cols[1][:-1], cols[2], cols[3], np.array([0, 3, 6]))
    assert str(checked.value) == str(own.value)


def test_tracks_from_columns_are_the_tracks_built_one_by_one():
    later = dict(_ANCHORS, times=[0.03])  # a one-anchor track, then times restart
    later = {k: v[:1] for k, v in later.items()}
    tracks = [_ANCHORS, later, _ANCHORS]
    cols, offsets = _columns(*tracks)
    built = PartialTrack.from_columns(*cols, offsets)
    assert len(built) == 3
    for got, anchors in zip(built, tracks):
        want = PartialTrack(**anchors)
        for field in ("times", "amps", "freqs", "phases"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert built[2].times.base is cols[0]  # views into the columns
    assert PartialTrack.from_columns(*(np.empty(0),) * 4, np.zeros(1, dtype=np.int64)) == []


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_make_window_rectangular():
    w = make_window("rectangular", 5)
    np.testing.assert_array_equal(w, np.ones(5))


def test_make_window_hamming_shape():
    w = make_window("hamming", 5)
    assert w[2] == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[0] == w[4]


def test_make_window_symmetry_and_range():
    for kind in ("hamming", "hann", "blackman", "rectangular"):
        w = make_window(kind, 7)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
        assert np.all(w >= -1e-15) and np.all(w <= 1.0 + 1e-15)
    assert make_window("hann", 7)[1] == pytest.approx(make_window("hann", 7)[5])


@pytest.mark.parametrize("kind, numpy_window", [
    ("hamming", np.hamming), ("hann", np.hanning), ("blackman", np.blackman),
    ("rectangular", np.ones)])
@pytest.mark.parametrize("length", [1, 8, 321])
def test_make_window_is_numpys_window_as_a_float64_array(kind, numpy_window, length):
    w = make_window(kind, length)
    assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (length,)
    assert w.tobytes() == numpy_window(length).astype(np.float64).tobytes()


def test_make_window_errors():
    with pytest.raises(UsageError):
        make_window("kaiser", 5)
    with pytest.raises(UsageError):
        make_window("hann", 0)


# ---------------------------------------------------------------------------
# srer
# ---------------------------------------------------------------------------

def test_srer_zero_reconstruction_of_zero_mean_signal():
    x = np.sin(np.linspace(0, 20, 1000))
    x -= x.mean()
    assert srer(x, np.zeros_like(x)) == pytest.approx(0.0, abs=1e-9)


def test_srer_exact_reconstruction_sentinel():
    x = np.sin(np.linspace(0, 20, 1000))
    assert srer(x, x.copy()) == SRER_MAX_DB


def test_srer_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=500)
        s = x + rng.normal(scale=10 ** rng.uniform(-6, -1), size=500)
        expect = 20.0 * np.log10(np.std(x) / np.std(x - s))
        assert srer(x, s) == pytest.approx(expect, abs=1e-9)


def test_srer_accepts_signals_and_checks_lengths():
    sig = SampledSignal(samples=np.sin(np.arange(100)), fs=FS)
    assert srer(sig, sig) == SRER_MAX_DB
    with pytest.raises(UsageError):
        srer(np.zeros(10), np.zeros(11))


@pytest.mark.parametrize("hop_ms, fs, hop", [(1.0, 16000.0, 16), (5.0, 44100.0, 220),
                                             (1.0, 44100.0, 44), (0.01, 16000.0, 1)])
def test_hop_samples_rounds_to_at_least_one(hop_ms, fs, hop):
    assert hop_samples(hop_ms, fs) == hop


@pytest.mark.parametrize("hop_ms", [0.0, -5.0, np.nan, np.inf, -np.inf])
def test_hop_samples_rejects_hops_that_are_not_positive_and_finite(hop_ms):
    with pytest.raises(UsageError, match="hop"):
        hop_samples(hop_ms, 16000.0)


def test_wrap_phase_range():
    phi = wrap_phase(np.array([0.0, np.pi, -np.pi, 7 * np.pi, -9.5]))
    assert np.all(phi > -np.pi - 1e-12) and np.all(phi <= np.pi + 1e-12)
    assert wrap_phase(7 * np.pi) == pytest.approx(np.pi)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _amplitude_at(times, amps, t_eval, fs=4.0):
    """sample_track's amplitudes of a track at times t_eval (samples at fs)."""
    track = PartialTrack(times=times, amps=amps, freqs=np.full(len(times), 1.0),
                         phases=np.zeros(len(times)))
    s = np.round(np.asarray(t_eval) * fs).astype(int)
    return sample_track(track, fs, s.min(), s.max())[0][s - s.min()]


def test_interp_amplitude_linear():
    t = np.array([0.0, 1.0])
    a = np.array([1.0, 3.0])
    assert _amplitude_at(t, a, np.array([0.5]))[0] == pytest.approx(2.0)
    # constant extension outside the span
    np.testing.assert_allclose(_amplitude_at(t, a, np.array([-1.0, 2.0])), [1.0, 3.0])
    assert _amplitude_at([0.0], [0.7], np.array([5.0]))[0] == 0.7
    with pytest.raises(UsageError):  # no track, so nothing to sample, without anchors
        PartialTrack(times=[], amps=[], freqs=[], phases=[])


def test_interp_frequency_spline_reproduces_linear_and_constant():
    t = np.linspace(0, 1, 11)
    line = 100.0 + 50.0 * t
    te = np.linspace(0, 1, 101)
    np.testing.assert_allclose(interp_frequency_spline(t, line, te),
                               100.0 + 50.0 * te, atol=1e-9)
    np.testing.assert_allclose(interp_frequency_spline(t, np.full(11, 440.0), te),
                               440.0, atol=1e-12)
    assert interp_frequency_spline([0.0], [440.0], np.array([9.0]))[0] == 440.0


def test_interp_frequency_spline_exact_at_anchors():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 1, 9))
    f = rng.uniform(100, 200, 9)
    np.testing.assert_allclose(interp_frequency_spline(t, f, t), f, atol=1e-10)


def test_interp_frequency_spline_sinusoidal_law():
    """1 ms anchors resolve a slow sinusoidal frequency law to under 1% of
    its modulation depth; a 300 Hz law (3.3 anchors per cycle) is beyond
    cubic-spline reach and is held to the measured 20% ceiling instead."""
    for f_mod, bound in ((20.0, 0.01), (300.0, 0.20)):
        anchors = np.arange(0.0, 0.5, 0.001)
        depth_half = 3.0 * 0.01 * f_mod
        law = lambda t: 450.0 - depth_half * np.sin(2 * np.pi * f_mod * t)
        te = np.arange(0.0, 0.499, 1.0 / FS)
        est = interp_frequency_spline(anchors, law(anchors), te)
        err = np.max(np.abs(est - law(te))) / (2 * depth_half)
        assert err < bound


@st.composite
def _spline_cases(draw):
    """Anchors (1, 2, 3 or many; uneven gaps down to 1e-9 s) and evaluation
    times at the anchors, between them and past both ends."""
    n = draw(st.sampled_from([1, 2, 3, draw(st.integers(4, 120))]))
    gaps = np.array(draw(st.lists(st.floats(1e-9, 0.05), min_size=n, max_size=n)))
    times = draw(st.floats(-1.0, 1.0)) + np.cumsum(gaps)
    freqs = np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n)))
    inside = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=50)))
    t_eval = np.concatenate([times, times[0] + inside * (times[-1] - times[0]),
                             (times[:-1] + times[1:]) / 2, times[[0, -1]] + [-0.5, 0.5]])
    return times, freqs, t_eval


@settings(deadline=None, max_examples=400, derandomize=True)
@given(case=_spline_cases())
def test_interp_frequency_spline_matches_cubic_spline_bitwise(case):
    times, freqs, t_eval = case
    assume((np.diff(times) > 0).all())  # no gap lost to rounding
    got = interp_frequency_spline(times, freqs, t_eval)
    assert got.tobytes() == _spline_ref(times, freqs, t_eval).tobytes()


def test_interp_frequency_spline_validation():
    with pytest.raises(UsageError):
        interp_frequency_spline([], [], [0.0])
    with pytest.raises(UsageError):  # unequal lengths
        interp_frequency_spline([0.0, 1.0], [100.0], [0.5])
    with pytest.raises(UsageError):  # non-increasing times
        interp_frequency_spline([0.0, 1.0, 1.0], [100.0, 110.0, 120.0], [0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError, match="finite"):
            interp_frequency_spline([0.0, 1.0], [100.0, bad], [0.5])
        with pytest.raises(UsageError, match="finite"):
            interp_frequency_spline([0.0, bad], [100.0, 110.0], [0.5])
        with pytest.raises(UsageError, match="finite"):
            interp_frequency_spline([bad], [100.0], [0.5])


# ---------------------------------------------------------------------------
# phase models
# ---------------------------------------------------------------------------

def test_phase_integration_constant_frequency():
    track = PartialTrack(times=[0.0], amps=[1.0], freqs=[100.0], phases=[0.0])
    ph = sample_track(track, FS, 0, 160)[2]
    assert ph[160] == pytest.approx(2 * np.pi, abs=1e-10)


def test_phase_integration_zero_frequency():
    # a track's frequency is positive: the integration kernel takes the zeros
    ph = _kernels.trapezoid_phase(np.zeros(100), FS, 0.4)
    np.testing.assert_allclose(ph, 0.4)


def test_phase_integration_chirp_matches_closed_form():
    n = 16001
    t = np.arange(n) / FS
    exact = 2 * np.pi * (100.0 * t + 450.0 * t * t)
    # a two-anchor spline is the linear law 100 + 900 t
    track = PartialTrack(times=[0.0, 1.0], amps=[1.0, 1.0], freqs=[100.0, 1000.0],
                         phases=[0.0, exact[-1]])
    ph = sample_track(track, FS, 0, n - 1)[2]
    assert np.max(np.abs(ph - exact)) < 1e-3


def test_phase_integration_anchor_reconciliation():
    n = 400
    idx = np.array([0, 150, 399])
    # anchors deliberately offset from the pure integral
    tgt = np.array([0.2, 1.0, 2.5])
    track = PartialTrack(times=idx / FS, amps=np.ones(3), freqs=np.full(3, 123.0),
                         phases=tgt)
    ph = sample_track(track, FS, 0, n - 1)[2]
    for i, p in zip(idx, tgt):
        assert wrap_phase(ph[i] - p) == pytest.approx(0.0, abs=1e-9)
    # continuity: no sample-to-sample jump beyond the reconciliation slope
    assert np.max(np.abs(np.diff(ph))) < 0.1


def test_phase_integration_matches_loop_reference():
    rng = np.random.default_rng(99)
    for n_anchors in (1, 2, 5, 60):
        for _ in range(10):
            n = int(rng.integers(100, 3000))
            # up to 200 samples before the first anchor; about a fifth of the
            # anchor samples carry a second anchor
            track = _random_track(rng, n_anchors, rng.uniform(0.0, n / FS / 2))
            anchors = np.round(track.times * FS).astype(np.int64)
            n0, n1 = -int(rng.integers(0, 200)), max(n - 1, int(anchors[-1]))
            freq = interp_frequency_spline(track.times, track.freqs,
                                           np.arange(n0, n1 + 1) / FS)
            ref = _phase_by_freq_integration_ref(freq, FS, anchors - n0, track.phases)
            ph = sample_track(track, FS, n0, n1)[2]
            np.testing.assert_allclose(ph, ref, rtol=0, atol=1e-9)


def test_phase_cubic_degenerates_to_linear():
    f = 100.0
    dt = 0.01
    phi2 = 2 * np.pi * f * dt  # consistent with constant-frequency advance
    tau = np.linspace(0, dt, 50)
    ph = _phase_cubic_mq(dt, 0.0, f, phi2, f, tau)
    np.testing.assert_allclose(ph, 2 * np.pi * f * tau, atol=1e-9)


def test_phase_cubic_endpoint_conditions():
    dt = 0.005
    phi1, f1, phi2, f2 = 0.3, 100.0, 2.0, 140.0
    tau = np.array([0.0, dt])
    ph = _phase_cubic_mq(dt, phi1, f1, phi2, f2, tau)
    assert ph[0] == pytest.approx(phi1)
    assert wrap_phase(ph[1] - phi2) == pytest.approx(0.0, abs=1e-9)
    # endpoint derivatives: finite differences at both ends
    eps = 1e-7
    d0 = np.diff(_phase_cubic_mq(dt, phi1, f1, phi2, f2, np.array([0.0, eps])))[0] / eps
    d1 = np.diff(_phase_cubic_mq(dt, phi1, f1, phi2, f2, np.array([dt - eps, dt])))[0] / eps
    assert d0 == pytest.approx(2 * np.pi * f1, rel=1e-4)
    assert d1 == pytest.approx(2 * np.pi * f2, rel=1e-4)
    with pytest.raises(UsageError):
        _phase_cubic_mq(0.0, phi1, f1, phi2, f2, tau)


def test_phase_cubic_broadcasts_over_spans():
    rng = np.random.default_rng(5)
    dt = rng.uniform(1e-3, 1e-2, 40)
    phi1, phi2 = rng.uniform(-np.pi, np.pi, (2, 40))
    f1, f2 = rng.uniform(50.0, 4000.0, (2, 40))
    tau = rng.uniform(0.0, 1.0, 40) * dt
    ph = _phase_cubic_mq(dt, phi1, f1, phi2, f2, tau)
    for i in range(40):
        assert ph[i] == _phase_cubic_mq(dt[i], phi1[i], f1[i], phi2[i], f2[i], tau[i])
    with pytest.raises(UsageError):
        _phase_cubic_mq(np.array([0.01, -0.01]), 0.0, 100.0, 0.0, 100.0, 0.0)


def test_cubic_resynthesis_of_stationary_tone():
    n = 8000
    t = np.arange(n) / FS
    x = 0.7 * np.cos(2 * np.pi * 100.0 * t + 0.3)
    anchor_t = np.arange(0, n, 160) / FS
    track = PartialTrack(times=anchor_t, amps=np.full(anchor_t.size, 0.7),
                         freqs=np.full(anchor_t.size, 100.0),
                         phases=0.3 + 2 * np.pi * 100.0 * anchor_t)
    y = synthesize_tracks([track], n, FS, phase_mode="cubic")
    assert srer(x, y) > 60.0


# ---------------------------------------------------------------------------
# track sampling / synthesis
# ---------------------------------------------------------------------------

def _stationary_track(n, f=100.0, a=0.7, phi=0.3, hop=160):
    t = np.arange(0, n, hop) / FS
    return PartialTrack(times=t, amps=np.full(t.size, a), freqs=np.full(t.size, f),
                        phases=phi + 2 * np.pi * f * t)


def test_sample_track_matches_truth():
    n = 4000
    track = _stationary_track(n)
    amp, freq, phase = sample_track(track, FS, 0, n - 1)
    t = np.arange(n) / FS
    np.testing.assert_allclose(amp, 0.7, atol=1e-12)
    np.testing.assert_allclose(freq, 100.0, atol=1e-9)
    x = 0.7 * np.cos(2 * np.pi * 100.0 * t + 0.3)
    assert srer(x, amp * np.cos(phase)) > 100.0


def test_sample_track_beyond_span_advances_at_endpoint_frequency():
    track = PartialTrack(times=[0.0, 0.01], amps=[1.0, 1.0],
                         freqs=[100.0, 100.0], phases=[0.0, 2 * np.pi])
    # a range entirely after the last anchor
    amp, freq, phase = sample_track(track, FS, 320, 480)
    t = np.arange(320, 481) / FS
    np.testing.assert_allclose(phase, 2 * np.pi + 2 * np.pi * 100.0 * (t - 0.01),
                               atol=1e-9)
    # and entirely before the first anchor
    track2 = PartialTrack(times=[0.02, 0.03], amps=[1.0, 1.0],
                          freqs=[100.0, 100.0], phases=[0.0, 2 * np.pi])
    _, _, ph2 = sample_track(track2, FS, 0, 100)
    t2 = np.arange(0, 101) / FS
    np.testing.assert_allclose(ph2, -2 * np.pi * 100.0 * (0.02 - t2), atol=1e-9)


def test_sample_track_interior_gap():
    # evaluation range strictly between two anchors
    track = PartialTrack(times=[0.0, 0.1], amps=[1.0, 1.0],
                         freqs=[100.0, 100.0],
                         phases=[0.0, 2 * np.pi * 100.0 * 0.1])
    amp, freq, phase = sample_track(track, FS, 300, 500)
    t = np.arange(300, 501) / FS
    np.testing.assert_allclose(phase, 2 * np.pi * 100.0 * t, atol=1e-6)
    with pytest.raises(UsageError):
        sample_track(track, FS, 10, 9)


def test_sample_track_is_independent_of_the_range():
    rng = np.random.default_rng(11)
    track = _random_track(rng, 100, 0.005)
    first, last = np.round(track.times[[0, -1]] * FS).astype(int)
    n0, n1 = first - 200, last + 200
    full = sample_track(track, FS, n0, n1)
    inner = np.round(track.times[40:42] * FS).astype(int)
    ranges = [(500, 1200),                          # mid-track start and end
              (n0, (first + last) // 2),            # ends mid-track
              ((first + last) // 2, n1),            # starts mid-track
              (inner[0] + 1, inner[1] - 1),         # between two anchors
              (n0, first - 50), (last + 50, n1)]    # wholly before, after
    for a, b in ranges:
        part = sample_track(track, FS, a, b)
        sl = slice(a - n0, b - n0 + 1)
        for got, want in zip(part, full):
            assert got.tobytes() == want[sl].tobytes()


def test_track_phase_matches_loop_references():
    n = 1600  # 0.1 s
    for track in _parity_tracks():
        n0, n1 = _render_range(track, n, FS)
        t = np.arange(n0, n1 + 1, dtype=np.float64) / FS
        # the flat renderer covers the samples of [n0, n1] inside the signal
        chunks = list(_cubic_track_samples([track], n, FS))
        if chunks:
            s = np.concatenate([c[0] for c in chunks])
            np.testing.assert_array_equal(s, np.arange(max(n0, 0), min(n1, n - 1) + 1))
            np.testing.assert_array_equal(np.concatenate([c[2] for c in chunks]),
                                          _track_phase_cubic_ref(track, n0, t, FS)[s - n0])
        anchors = np.round(track.times * FS).astype(np.int64) - n0
        freq = interp_frequency_spline(track.times, track.freqs, t)
        ref = _phase_by_freq_integration_ref(freq, FS, anchors, track.phases)
        np.testing.assert_allclose(sample_track(track, FS, n0, n1)[2], ref,
                                   rtol=0, atol=1e-9)


def test_synthesize_tracks_matches_loop_references():
    n = 1600
    tracks = _parity_tracks()
    np.testing.assert_array_equal(synthesize_tracks(tracks, n, FS, phase_mode="cubic"),
                                  _synthesize_tracks_ref(tracks, n, FS, "cubic"))
    # a phase error e moves each track's samples by at most amp * e
    np.testing.assert_allclose(
        synthesize_tracks(tracks, n, FS),
        _synthesize_tracks_ref(tracks, n, FS, "freq_integration"),
        rtol=0, atol=1e-9 * sum(float(np.max(tr.amps)) for tr in tracks))


def test_freq_integration_render_matches_the_cubic_spline_reference():
    n = 1600
    tracks = _parity_tracks()
    want = np.zeros(n)
    for track, lo, hi in zip(tracks, *render_spans(tracks, n, FS)):
        n0, n1 = _render_range(track, n, FS)
        for a, b in ((n0, n1), (n0 - 7, (n0 + n1) // 2), (lo, hi)):
            if b >= a:
                for got, ref in zip(sample_track(track, FS, a, b),
                                    _sample_track_ref(track, FS, a, b)):
                    assert got.tobytes() == ref.tobytes()
        if hi >= lo:
            amp, _, phase = _sample_track_ref(track, FS, lo, hi)
            _kernels.accumulate_cosine(want, lo, amp, phase)
    assert synthesize_tracks(tracks, n, FS).tobytes() == want.tobytes()


@pytest.mark.parametrize("fs", [8000.0, 16000.0, 44100.0, 12345.0])
def test_first_sample_at_matches_a_search_of_the_sample_times(fs):
    s = np.arange(-50, 3000)
    t = s / fs
    # each sample time and its two floating-point neighbours
    times = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)])
    guess = np.ceil(times * fs)
    want = np.searchsorted(t, times, side="left") + s[0]
    # ceil(time * fs) misses the answer in both directions on this grid
    assert np.any(guess < want) and np.any(guess > want)
    lo, hi = np.full(times.shape, -50), np.full(times.shape, 2999)
    np.testing.assert_array_equal(core._first_sample_at(times, fs, lo, hi), want)
    # clipped to lo..hi, with hi + 1 when no sample in range reaches the time
    lo, hi = np.full(times.shape, 100), np.full(times.shape, 200)
    np.testing.assert_array_equal(core._first_sample_at(times, fs, lo, hi),
                                  np.clip(want, 100, 201))


@pytest.mark.parametrize("chunk", [core.SYNTH_CHUNK, 97])
def test_sm_synthesize_matches_the_track_loop(monkeypatch, chunk):
    monkeypatch.setattr(core, "SYNTH_CHUNK", chunk)
    n = 3200
    t = np.arange(n) / FS
    x = (0.6 * np.cos(2 * np.pi * 220.0 * t) * (t < 0.12)  # dies: a death ramp
         + 0.4 * np.cos(2 * np.pi * 530.0 * t + 1.0) * (t > 0.07))  # born: a birth ramp
    tracks = sm_analyze_peaks(SampledSignal(samples=x, fs=FS), SMConfig(max_peaks=4)).tracks
    assert any(tr.amps[0] == 0 for tr in tracks) and any(tr.amps[-1] == 0 for tr in tracks)
    tracks += [
        PartialTrack(times=[0.05], amps=[0.3], freqs=[700.0], phases=[0.2]),  # lone anchor
        PartialTrack(times=[0.09], amps=[0.0], freqs=[700.0], phases=[0.2]),  # one sample
        # anchors before the signal start and past its end: clipped to it
        PartialTrack(times=[-0.03, 0.02, 0.19, 0.25], amps=[0.5, 0.2, 0.4, 0.1],
                     freqs=[300.0, 310.0, 305.0, 300.0], phases=[0.0, 1.0, 2.0, 3.0]),
        PartialTrack(times=[-0.03, 0.02, 0.19, 0.25], amps=[0.0, 0.2, 0.4, 0.0],
                     freqs=[900.0, 910.0, 905.0, 900.0], phases=[0.0, 1.0, 2.0, 3.0]),
    ]
    rendered = [_render_range(tr, n, FS) for tr in tracks]
    lengths = [max(min(n1, n - 1) - max(n0, 0) + 1, 0) for n0, n1 in rendered]
    edges = np.cumsum(lengths)
    # some chunk boundary falls strictly inside a track's samples
    assert any(a < c < b for c in range(chunk, int(edges[-1]), chunk)
               for a, b in zip(edges - lengths, edges))
    np.testing.assert_allclose(sm_synthesize(tracks, n, FS),
                               _synthesize_tracks_ref(tracks, n, FS, "cubic"),
                               rtol=0, atol=1e-12)


def test_synthesize_tracks_edge_extension():
    n = 4000
    # anchors only in the middle; nonzero boundary amps extend to the edges
    t = np.arange(1000, 3000, 160) / FS
    track = PartialTrack(times=t, amps=np.full(t.size, 1.0),
                         freqs=np.full(t.size, 100.0),
                         phases=2 * np.pi * 100.0 * t)
    y = synthesize_tracks([track], n, FS)
    assert np.max(np.abs(y[:100])) > 0.5  # covered before the first anchor
    assert np.max(np.abs(y[-100:])) > 0.5
    # zero boundary amps (ramp anchors) keep the track inside its span
    track0 = PartialTrack(times=[0.1, 0.11, 0.12], amps=[0.0, 1.0, 0.0],
                          freqs=[100.0] * 3, phases=[0.0, 1.0, 2.0])
    y0 = synthesize_tracks([track0], n, FS)
    assert np.max(np.abs(y0[:1500])) == 0.0
    assert np.max(np.abs(y0[2000:])) == 0.0


def test_synthesize_tracks_rejects_unknown_phase_mode():
    with pytest.raises(UsageError):
        synthesize_tracks([], 100, FS, phase_mode="hermite")


def test_synthesize_tracks_sums_components():
    n = 2000
    tr1 = _stationary_track(n, f=100.0, a=0.5, phi=0.0)
    tr2 = _stationary_track(n, f=317.0, a=0.3, phi=1.0)
    t = np.arange(n) / FS
    x = (0.5 * np.cos(2 * np.pi * 100.0 * t)
         + 0.3 * np.cos(2 * np.pi * 317.0 * t + 1.0))
    for mode in ("freq_integration", "cubic"):
        assert srer(x, synthesize_tracks([tr1, tr2], n, FS, phase_mode=mode)) > 60.0
