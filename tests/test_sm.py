"""FFT peak picking and partial tracking."""
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinemodel
from sinemodel import sm
from sinemodel.core import (TWO_PI, PartialTrack, SampledSignal, make_window, srer,
                            wrap_phase)
from sinemodel.errors import UsageError
from sinemodel.generators import AMFMSpec, gen_amfm
from sinemodel.harness import MODEL_TABLE, run_model
from sinemodel.sm import (_LOG_FLOOR, MAX_JUMP_HZ, THRESHOLD_DB, SMConfig, SMPeaks,
                          sm_analyze_peaks, sm_peaks, sm_synthesize, track_partials)

FS = 16000.0


@dataclass(frozen=True, slots=True)
class SpectralPeak:
    """One peak as the reference code below keeps it."""

    freq_hz: float
    amp: float
    phase: float
    bin: float


def _peak(f, amp=1.0, phase=0.0):
    return SpectralPeak(freq_hz=f, amp=amp, phase=phase, bin=f * 2048 / FS)


def _record(peak_lists) -> SMPeaks:
    """The SMPeaks record of per-frame lists of SpectralPeak."""
    flat = [(p.freq_hz, p.amp, p.phase, p.bin) for peaks in peak_lists for p in peaks]
    counts = [len(peaks) for peaks in peak_lists]
    return SMPeaks(offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
                   values=np.array(flat, dtype=np.float64).reshape(-1, 4).T.copy())


def _lists(peaks: SMPeaks) -> list[list[SpectralPeak]]:
    """Per-frame lists of SpectralPeak of a record."""
    return [[SpectralPeak(*row) for row in rows.tolist()] for rows in peaks]


# ---------------------------------------------------------------------------
# frame analysis
# ---------------------------------------------------------------------------

def test_frame_peak_measures_off_bin_tone():
    L, nfft = 481, 2048
    t = (np.arange(L) - L // 2) / FS
    f, a, ph = 312.3, 0.8, 0.7  # deliberately between FFT bins
    frame = a * np.cos(2 * np.pi * f * t + ph)
    (peaks,) = _lists(sm._block_peaks(frame[None], make_window("hann", L), nfft, FS, 5))
    best = min(peaks, key=lambda p: abs(p.freq_hz - f))
    assert abs(best.freq_hz - f) < 0.01
    assert best.amp == pytest.approx(a, abs=1e-3)
    assert best.phase == pytest.approx(ph, abs=1e-3)


def test_frame_peak_cap_and_ordering():
    L = 481
    t = (np.arange(L) - L // 2) / FS
    frame = sum(np.cos(2 * np.pi * f * t) for f in (300.0, 700.0, 1500.0, 2900.0))
    (peaks,) = _lists(sm._block_peaks(frame[None], make_window("hann", L), 2048, FS, 2))
    assert len(peaks) == 2
    freqs = [p.freq_hz for p in peaks]
    assert freqs == sorted(freqs)


def _frame_peaks_ref(frame, window, fft_size, fs, max_peaks):
    """One frame's peaks one local maximum at a time: interpolate every
    maximum, then keep the max_peaks loudest, ordered by frequency."""
    w = window
    xw = frame * (w / np.sum(w))
    half_hi, half_lo = (w.shape[0] + 1) // 2, w.shape[0] // 2
    buf = np.zeros(fft_size)
    buf[:half_hi] = xw[half_lo:]
    buf[-half_lo:] = xw[:half_lo]
    spectrum = np.fft.rfft(buf)
    # dB of the magnitudes scaled to a maximum in [0.5, 1), by a power of two
    exp = np.frexp(np.abs(spectrum).max())[1]
    mag = 20.0 * np.log10(np.maximum(np.ldexp(np.abs(spectrum), -exp), 1e-200))
    phase_spec = np.unwrap(np.angle(spectrum))
    peaks = []
    for b in range(1, mag.shape[0] - 1):
        left, mid, right = mag[b - 1], mag[b], mag[b + 1]
        if not (mid > left and mid > right and mid > mag.max() + THRESHOLD_DB):
            continue
        den = left - 2.0 * mid + right
        p = 0.0 if den == 0.0 else 0.5 * (left - right) / den
        p = float(np.clip(p, -1.0, 1.0))
        frac_bin = b + p
        freq = frac_bin * fs / fft_size
        if not (0.0 < freq < fs / 2.0):
            continue
        amp = np.ldexp(2.0 * 10.0 ** ((mid - 0.25 * (left - right) * p) / 20.0), exp)
        phase = float(wrap_phase(np.interp(frac_bin, np.arange(phase_spec.shape[0]),
                                           phase_spec)))
        peaks.append(SpectralPeak(freq_hz=float(freq), amp=float(amp),
                                  phase=phase, bin=float(frac_bin)))
    peaks.sort(key=lambda pk: -pk.amp)
    return sorted(peaks[:max_peaks], key=lambda pk: pk.freq_hz)


def test_frame_peaks_match_scalar_reference():
    rng = np.random.default_rng(7)
    for L, kind, nfft, max_peaks in ((301, "hamming", 2048, 1), (481, "hann", 2048, 100),
                                     (481, "blackman", 4096, 5), (63, "hann", 64, 3)):
        window = make_window(kind, L)
        t = (np.arange(L) - L // 2) / FS
        for _ in range(10):
            frame = rng.normal(0.0, 0.01, L)
            for _ in range(int(rng.integers(1, 6))):
                frame += rng.uniform(0.1, 1.0) * np.cos(
                    2 * np.pi * rng.uniform(50.0, 7000.0) * t + rng.uniform(-np.pi, np.pi))
            (got,) = _lists(sm._block_peaks(frame[None], window, nfft, FS, max_peaks))
            want = _frame_peaks_ref(frame, window, nfft, FS, max_peaks)
            assert len(got) == len(want) > 0
            for field in ("freq_hz", "amp", "phase", "bin"):
                np.testing.assert_array_max_ulp(
                    np.array([getattr(pk, field) for pk in got]),
                    np.array([getattr(pk, field) for pk in want]), maxulp=4)


def _full_spectrum_block_peaks(frames, w, fft_size, fs, max_peaks):
    """_block_peaks taking dB (of each frame's magnitudes scaled by a power of
    two to a maximum in [0.5, 1)) and the unwrapped phase over the whole
    spectrum."""
    spectrum = sm._zero_phase_spectra(frames, w, fft_size)
    exp = np.frexp(np.abs(spectrum).max(axis=1))[1]
    mag = 20.0 * np.log10(np.maximum(np.ldexp(np.abs(spectrum), -exp[:, None]), _LOG_FLOOR))
    phase_spec = sm._unwrap_rows(np.angle(spectrum))
    floor = mag.max(axis=1, keepdims=True) + THRESHOLD_DB
    mid = mag[:, 1:-1]
    rows, peak_bins = np.nonzero((mid > mag[:, :-2]) & (mid > mag[:, 2:]) & (mid > floor))
    peak_bins += 1
    left, mid, right = (mag[rows, peak_bins - 1], mag[rows, peak_bins],
                        mag[rows, peak_bins + 1])
    den = left - 2.0 * mid + right
    p = np.divide(0.5 * (left - right), den, out=np.zeros_like(den), where=den != 0.0)
    p = np.clip(p, -1.0, 1.0)
    frac_bin = peak_bins + p
    freq = frac_bin * fs / fft_size
    amp = np.ldexp(2.0 * 10.0 ** ((mid - 0.25 * (left - right) * p) / 20.0), exp[rows])
    inside = np.flatnonzero((freq > 0.0) & (freq < fs / 2.0))
    loud = inside[np.lexsort((-amp[inside], rows[inside]))]
    rank = np.arange(loud.shape[0]) - np.searchsorted(rows[loud], rows[loud])
    keep = loud[rank < max_peaks]
    keep = keep[np.lexsort((freq[keep], rows[keep]))]
    rows, frac_bin = rows[keep], frac_bin[keep]
    lo_bin = frac_bin.astype(np.int64)
    below = phase_spec[rows, lo_bin]
    phase = wrap_phase((phase_spec[rows, lo_bin + 1] - below) * (frac_bin - lo_bin) + below)
    counts = np.bincount(rows, minlength=frames.shape[0])
    return SMPeaks(offsets=np.concatenate(([0], np.cumsum(counts))),
                   values=np.stack((freq[keep], amp[keep], phase, frac_bin)))


# a frame: a few cosines anywhere up to Nyquist (bin fft_size / 2), at a
# scale that may put the whole spectrum below _LOG_FLOOR, or all zeros
_TONES = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0),
                            st.floats(-np.pi, np.pi)), max_size=5)
_SCALES = st.sampled_from([0.0, 1e-230, 1e-203, 1e-180, 1e-3, 1.0, 1e4])
_BLOCK_FRAME = st.tuples(_TONES, _SCALES, st.booleans())


@settings(deadline=None, max_examples=150, derandomize=True)
@given(block=st.lists(_BLOCK_FRAME, min_size=1, max_size=6),
       shape=st.sampled_from([(31, "hann", 64), (63, "rectangular", 64), (481, "hann", 2048),
                              (301, "blackman", 1024)]),
       max_peaks=st.sampled_from([1, 3, 100]))
def test_peak_local_db_and_phase_are_the_full_spectrum_bits(block, shape, max_peaks):
    L, kind, nfft = shape
    w = make_window(kind, L)
    n = np.arange(L) - L // 2
    frames = np.zeros((len(block), L))
    for row, (tones, scale, noisy) in zip(frames, block):
        for at, a, ph in tones:  # at 1.0 the cosine sits on the last bin
            row += a * np.cos(np.pi * at * n + ph)
        if noisy:
            row += np.random.default_rng(len(tones)).normal(0.0, 1e-3, L)
        row *= scale
    got = sm._block_peaks(frames, w, nfft, FS, max_peaks)
    want = _full_spectrum_block_peaks(frames, w, nfft, FS, max_peaks)
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def test_peak_local_evaluation_edge_frames():
    # an all-zero frame, a Nyquist cosine (the spectrum's maximum on the last
    # bin), a tone whose peak is the last interior bin, frames far below
    # _LOG_FLOOR in absolute terms (dB is taken relative to each frame's
    # power-of-two scale, so they keep their peaks), and a tone a few hundred
    # subnormal steps high, whose spectrum rounds to exact zeros beside
    # some of its peaks: those bins read as _LOG_FLOOR
    L, nfft = 63, 64
    w = make_window("hann", L)
    n = np.arange(L) - L // 2
    nyquist = np.cos(np.pi * n)
    near = np.cos(np.pi * (30.6 / 32.0) * n)
    tone = np.cos(np.pi * (7.3 / 32.0) * n)
    frames = np.stack([np.zeros(L), nyquist, nyquist + 0.5 * tone, near, 0.5 * near + tone,
                       2.0 ** -680 * tone, 1e-195 * (tone + 1e-8 * near), tone,
                       2.0 ** -1067 * tone])
    got = sm._block_peaks(frames, w, nfft, FS, 100)
    want = _full_spectrum_block_peaks(frames, w, nfft, FS, 100)
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    counts = np.diff(got.offsets)
    assert counts[0] == 0 and counts[[2, 4, 5, 6, 7, 8]].min() > 0
    # the 2^-680 tone (about 1e-205) has the peaks of the unit tone, its
    # amplitudes scaled by 2^-680 exactly
    quiet, loud = (got.values[:, got.offsets[i]:got.offsets[i + 1]] for i in (5, 7))
    assert quiet[[0, 2, 3]].tobytes() == loud[[0, 2, 3]].tobytes()
    assert quiet[1].tobytes() == np.ldexp(loud[1], -680).tobytes()
    # the subnormal tone keeps peaks with a neighbour bin at exactly zero, so
    # _block_peaks takes that bin's dB at the floor
    spectra = np.abs(sm._zero_phase_spectra(frames, w, nfft))
    mag = spectra[8]
    peak_bins = np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])) + 1
    frac_bins = got.bin[got.offsets[8]:got.offsets[9]]
    kept = [b for b in peak_bins.tolist() if np.abs(frac_bins - b).min() < 1.0]
    assert any(mag[b - 1] == 0.0 or mag[b + 1] == 0.0 for b in kept)
    assert sm._db(np.zeros(1))[0] == 20.0 * np.log10(_LOG_FLOOR)
    # the last interior bin is a peak of the full spectrum
    assert spectra[3, -2] > spectra[3, -3] and spectra[3, -2] > spectra[3, -1]


def _framed(x, w_len, hop):
    """sm_peaks' frames of x: (centers, frames) of the zero-padded signal."""
    half = w_len // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(half)])
    n = x.shape[0]
    centers = np.arange(half, n - half, hop) if n > w_len else np.array([n // 2])
    return centers, [padded[c:c + w_len] for c in centers]


@pytest.mark.parametrize("block", [sm.FRAME_BLOCK, 5])
def test_block_peaks_match_the_scalar_reference_frame_by_frame(monkeypatch, block):
    monkeypatch.setattr(sm, "FRAME_BLOCK", block)
    rng = np.random.default_rng(11)
    n = 6000
    t = np.arange(n) / FS
    x = sum(rng.uniform(0.2, 1.0) * np.cos(2 * np.pi * f * t + rng.uniform(-np.pi, np.pi))
            for f in (180.0, 410.0, 655.0, 1290.0, 2710.0))
    x = x + rng.normal(0.0, 1e-3, n)
    x[2500:3600] = 0.0  # frames wholly inside this stretch are all-zero
    cfg = SMConfig(window_samples=320, hop_ms=3.0, max_peaks=3)  # 20 ms
    w_len = 321
    window = make_window("hann", w_len)
    times, peaks = sm_peaks(SampledSignal(samples=x, fs=FS), cfg)
    lists = _lists(peaks)
    centers, frames = _framed(x, w_len, 48)
    # more frames than one block, and not a whole number of blocks
    assert len(frames) > block and len(frames) % block != 0
    np.testing.assert_array_equal(times, centers / FS)
    zero = [not np.any(fr) for fr in frames]
    assert any(zero) and not all(zero)
    for frame, got in zip(frames, lists):
        want = _frame_peaks_ref(frame, window, 2048, FS, 3)
        assert len(got) == len(want)
        # live frames have more local maxima than the 3 kept
        assert (want == []) == (not np.any(frame))
        if want:
            for field in ("freq_hz", "amp", "phase", "bin"):
                np.testing.assert_array_max_ulp(
                    np.array([getattr(pk, field) for pk in got]),
                    np.array([getattr(pk, field) for pk in want]), maxulp=4)
        # batching changes nothing: each frame alone gives the same peaks
        assert [got] == _lists(sm._block_peaks(frame[None], window, 2048, FS, 3))
    assert max(len(p) for p in lists) == 3


def test_block_peaks_single_centred_frame():
    t = np.arange(300) / FS
    x = 0.8 * np.cos(2 * np.pi * 440.0 * t + 0.4) + 0.3 * np.cos(2 * np.pi * 1320.0 * t)
    times, peaks = sm_peaks(SampledSignal(samples=x, fs=FS), SMConfig())  # 30 ms
    lists = _lists(peaks)
    (centers, (frame,)) = _framed(x, 481, 16)
    assert times.tolist() == [150 / FS]
    want = _frame_peaks_ref(frame, make_window("hann", 481), 2048, FS, 100)
    assert len(lists) == 1 and len(lists[0]) == len(want) > 1
    for field in ("freq_hz", "amp", "phase", "bin"):
        np.testing.assert_array_max_ulp(np.array([getattr(pk, field) for pk in lists[0]]),
                                        np.array([getattr(pk, field) for pk in want]),
                                        maxulp=4)


def test_frame_analysis_edge_cases():
    w = make_window("hann", 31)
    assert _lists(sm._block_peaks(np.zeros((1, 31)), w, 64, FS, 5)) == [[]]


def test_smconfig_validation():
    with pytest.raises(UsageError):
        SMConfig(max_peaks=0)
    with pytest.raises(UsageError):   # once ran as 3 peaks
        SMConfig(max_peaks=2.5)
    assert SMConfig(max_peaks=np.int64(3)).max_peaks == 3
    with pytest.raises(UsageError):   # once ran as 1 peak
        SMConfig(max_peaks=True)
    # a numpy integer window still takes the odd-length rule
    assert sm._resolve_window_samples(SMConfig(window_samples=np.int64(80)), FS) == 81
    # a window kind and a hop were once accepted and raised only inside sm_peaks
    for fields in ({"window_kind": "nope"}, {"window_kind": None}, {"hop_ms": float("nan")},
                   {"hop_ms": -1.0}, {"hop_ms": 0.0}, {"hop_ms": float("inf")}):
        with pytest.raises(UsageError):
            SMConfig(**fields)
    assert SMConfig(window_kind="HAMMING").window_kind == "HAMMING"   # any case, as make_window


@pytest.mark.parametrize("w", [float("nan"), 80.5, 81.0, 0, True])
def test_smconfig_rejects_windows_that_are_not_counts(w):
    # nan once ended in a bare ValueError in sm_peaks, 80.5 ran as 81 samples
    with pytest.raises(UsageError, match="window_samples"):
        SMConfig(window_samples=w)


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

def test_tracking_continuation_and_death_ramp():
    lists = [[_peak(100.0, 1.0, 0.0)], [_peak(102.0, 1.0, 0.1)], []]
    times = np.array([0.0, 0.01, 0.02])
    tracks = track_partials(_record(lists), times, hop_s=0.01)
    assert len(tracks) == 1
    tr = tracks[0]
    # two live anchors plus a death ramp to zero one hop later
    assert tr.times.tolist() == [0.0, 0.01, 0.02]
    assert tr.amps[-1] == 0.0
    assert tr.freqs[-1] == 102.0


def test_tracking_birth_fade_in():
    lists = [[], [_peak(200.0)], [_peak(201.0)]]
    times = np.array([0.0, 0.01, 0.02])
    tracks = track_partials(_record(lists), times, hop_s=0.01)
    assert len(tracks) == 1
    tr = tracks[0]
    # interior birth fades in from zero one hop before its first frame,
    # and a track alive at the end is held one hop at constant amplitude
    assert tr.times[0] == pytest.approx(0.0)
    assert tr.amps[0] == 0.0
    assert tr.amps[-1] == tr.amps[-2]
    assert tr.times[-1] == pytest.approx(0.03)


def test_tracking_first_frame_birth_has_no_ramp():
    lists = [[_peak(100.0)], [_peak(100.0)]]
    tracks = track_partials(_record(lists), np.array([0.0, 0.01]), 0.01)
    assert tracks[0].amps[0] == 1.0


def test_tracking_jump_bound_splits():
    lists = [[_peak(100.0)], [_peak(100.0 + MAX_JUMP_HZ + 20.0)]]
    tracks = track_partials(_record(lists), np.array([0.0, 0.01]), hop_s=0.01)
    assert len(tracks) == 2
    # a step of exactly the bound still continues the track
    lists = [[_peak(100.0)], [_peak(100.0 + MAX_JUMP_HZ)]]
    assert len(track_partials(_record(lists), np.array([0.0, 0.01]), hop_s=0.01)) == 1


def test_tracking_louder_peak_claims_first():
    lists = [
        [_peak(100.0, 1.0), _peak(110.0, 1.0)],
        # one peak between the two tracks, slightly nearer 110
        [_peak(106.0, amp=2.0)],
    ]
    tracks = track_partials(_record(lists), np.array([0.0, 0.01]), 0.01)
    cont = [tr for tr in tracks if len(tr) >= 2 and tr.amps[1] == 2.0]
    assert len(cont) == 1
    assert cont[0].freqs[0] == 110.0


def test_tracking_requires_aligned_inputs():
    with pytest.raises(UsageError):
        track_partials(_record([[]]), np.array([0.0, 0.01]), 0.01)


def test_tracking_contested_track_goes_to_the_louder_peak():
    # both peaks are nearest the 110 Hz track; the louder takes it and the
    # other falls back to the 100 Hz track, 8 Hz away
    lists = [[_peak(100.0), _peak(110.0)], [_peak(106.0, amp=2.0), _peak(108.0, amp=1.0)]]
    tracks = track_partials(_record(lists), np.array([0.0, 0.01]), 0.01)
    assert [tr.freqs[:2].tolist() for tr in tracks] == [[100.0, 108.0], [110.0, 106.0]]


class _TrackBuilder:
    __slots__ = ("times", "amps", "freqs", "phases", "first_frame")

    def __init__(self, first_frame: bool):
        self.times: list[float] = []
        self.amps: list[float] = []
        self.freqs: list[float] = []
        self.phases: list[float] = []
        self.first_frame = first_frame

    def add(self, t: float, peak: SpectralPeak) -> None:
        self.times.append(t)
        self.amps.append(peak.amp)
        self.freqs.append(peak.freq_hz)
        self.phases.append(peak.phase)


def _reference_track_partials(peak_lists, frame_times, hop_s):
    """track_partials one peak object at a time: each peak scans every
    active track, and each track grows in Python lists."""
    active: list[_TrackBuilder] = []
    done: list[_TrackBuilder] = []

    def retire(tb: _TrackBuilder, ramp: bool) -> None:
        if ramp:
            f, ph = tb.freqs[-1], tb.phases[-1]
            tb.times.append(tb.times[-1] + hop_s)
            tb.amps.append(0.0)
            tb.freqs.append(f)
            tb.phases.append(float(wrap_phase(ph + TWO_PI * f * hop_s)))
        done.append(tb)

    for i, (t, peaks) in enumerate(zip(frame_times, peak_lists)):
        taken = [False] * len(active)
        matched = []
        births = []
        for peak in sorted(peaks, key=lambda pk: -pk.amp):
            best, best_d = -1, MAX_JUMP_HZ
            for j, tb in enumerate(active):
                if taken[j]:
                    continue
                d = abs(tb.freqs[-1] - peak.freq_hz)
                if d <= best_d:
                    best, best_d = j, d
            if best >= 0:
                taken[best] = True
                matched.append((active[best], peak))
            else:
                births.append(peak)
        for j in range(len(active) - 1, -1, -1):
            if not taken[j]:
                retire(active.pop(j), ramp=True)
        for tb, peak in matched:
            tb.add(t, peak)
        for peak in births:
            tb = _TrackBuilder(first_frame=(i == 0))
            if i > 0:
                f, ph = peak.freq_hz, peak.phase
                tb.times.append(t - hop_s)
                tb.amps.append(0.0)
                tb.freqs.append(f)
                tb.phases.append(float(wrap_phase(ph - TWO_PI * f * hop_s)))
            tb.add(t, peak)
            active.append(tb)
    for tb in active:
        f, ph = tb.freqs[-1], tb.phases[-1]
        tb.times.append(tb.times[-1] + hop_s)
        tb.amps.append(tb.amps[-1])
        tb.freqs.append(f)
        tb.phases.append(float(wrap_phase(ph + TWO_PI * f * hop_s)))
    done.extend(active)
    tracks = [PartialTrack(times=np.asarray(tb.times), amps=np.asarray(tb.amps),
                           freqs=np.asarray(tb.freqs), phases=np.asarray(tb.phases))
              for tb in done if tb.times]
    tracks.sort(key=lambda tr: (tr.times[0], tr.freqs[0]))
    return tracks


def _assert_same_tracks(got, want):
    """Bitwise equal track lists, in the same order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("times", "amps", "freqs", "phases"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def _match(last_f, f):
    """One frame's greedy matching as one distance matrix: peaks at f (louder
    first) against the tracks ending at last_f (in birth order)."""
    if last_f.shape[0] == 0:
        return np.full(f.shape[0], -1)
    d = np.abs(last_f - f[:, None])
    best = d.shape[1] - 1 - d[:, ::-1].argmin(axis=1)
    best[d[np.arange(f.shape[0]), best] > MAX_JUMP_HZ] = -1
    if np.bincount(best[best >= 0], minlength=1).max() <= 1:
        return best  # no track is wanted twice, so each peak gets its nearest
    taken = np.zeros(d.shape[1], dtype=bool)
    for p, row in enumerate(d):
        row = np.where(taken, np.inf, row)
        j = row.shape[0] - 1 - int(row[::-1].argmin())
        best[p] = j if row[j] <= MAX_JUMP_HZ else -1
        taken[j] |= best[p] >= 0
    return best


def _frame_loop_track_partials(peaks, frame_times, hop_s):
    """track_partials one frame at a time: match each frame against the
    tracks alive after the frame before, recording each track's peaks."""
    freq, amp, phase, offsets = peaks.freq_hz, peaks.amp, peaks.phase, peaks.offsets
    frame_of = np.repeat(np.arange(len(peaks)), np.diff(offsets))
    loud = np.lexsort((-amp, frame_of))
    track_of = np.empty(freq.shape[0], dtype=np.int64)
    active, last_f = np.empty(0, dtype=np.int64), np.empty(0)
    retired = [active]  # track ids in the order the tracks die
    n_tracks = 0
    for i in range(len(peaks)):
        order = loud[offsets[i]:offsets[i + 1]]
        f = freq[order]
        best = _match(last_f, f)
        hit = best >= 0
        taken = np.zeros(active.shape[0], dtype=bool)
        taken[best[hit]] = True
        born = np.arange(n_tracks, n_tracks + f.shape[0] - np.count_nonzero(hit))
        n_tracks += born.shape[0]
        track_of[order[hit]] = active[best[hit]]
        track_of[order[~hit]] = born
        retired.append(active[~taken][::-1])
        last_f[best[hit]] = f[hit]
        active = np.concatenate((active[taken], born))
        last_f = np.concatenate((last_f[taken], f[~hit]))
    n_peaks = np.bincount(track_of, minlength=n_tracks)
    fade_in = np.arange(n_tracks) >= (offsets[1] if len(peaks) else 0)
    length = fade_in + n_peaks + 1
    end = np.cumsum(length)
    start = end - length
    by_track = np.argsort(track_of, kind="stable")
    first = np.cumsum(n_peaks) - n_peaks
    slot = np.repeat(start + fade_in - first, n_peaks) + np.arange(by_track.shape[0])
    t_peak = np.asarray(frame_times)[frame_of]
    times, amps, freqs, phases = anchors = np.empty((4, int(length.sum())))
    for row, col in zip(anchors, (t_peak, amp, freq, phase)):
        row[slot] = col[by_track]
    p, s = by_track[first[fade_in]], start[fade_in]
    times[s], amps[s], freqs[s] = t_peak[p] - hop_s, 0.0, freq[p]
    phases[s] = wrap_phase(phase[p] - TWO_PI * freq[p] * hop_s)
    p, s = by_track[first + n_peaks - 1], end - 1
    times[s], amps[s], freqs[s] = t_peak[p] + hop_s, amp[p], freq[p]
    phases[s] = wrap_phase(phase[p] + TWO_PI * freq[p] * hop_s)
    amps[s[np.concatenate(retired)]] = 0.0
    done = np.concatenate(retired + [active])
    done = done[np.lexsort((freqs[start[done]], times[start[done]]))]
    return [PartialTrack(times=times[a:b], amps=amps[a:b], freqs=freqs[a:b],
                         phases=phases[a:b])
            for a, b in zip(start[done].tolist(), end[done].tolist())]


# a frame: peaks on a 10 Hz grid, so equal distances to two tracks and steps
# of exactly MAX_JUMP_HZ are common, with a few loudness levels, so several
# peaks contest one track and some tie in loudness
_FRAME = st.lists(st.tuples(st.integers(0, 20), st.sampled_from([0.0, 0.5]),
                            st.sampled_from([0.5, 1.0, 2.0]), st.floats(-3.0, 3.0)),
                  max_size=7, unique_by=lambda p: p[0])


# short tables, and tables of 40 frames or more, whose tracks outlive any
# fixed number of linking passes
@settings(deadline=None, max_examples=400, derandomize=True)
@given(table=st.lists(_FRAME, min_size=1, max_size=12) | st.lists(_FRAME, min_size=40,
                                                                   max_size=60))
def test_tracking_matches_the_reference_on_random_peak_tables(table):
    lists = [[_peak(100.0 + 10.0 * g + dg, amp, ph) for g, dg, amp, ph in sorted(frame)]
             for frame in table]
    times = 0.015 + 0.001 * np.arange(len(lists))
    got = track_partials(_record(lists), times, 0.001)
    _assert_same_tracks(got, _reference_track_partials(lists, times, 0.001))
    _assert_same_tracks(got, _frame_loop_track_partials(_record(lists), times, 0.001))


def test_tracking_tie_in_a_contested_frame_goes_to_the_later_born_track():
    # a 140 Hz track from frame 0 and a louder 100 Hz one born in frame 1,
    # both alive for 44 frames; then a loud peak 20 Hz from each (a tie, so
    # the later-born 100 Hz track) and a quieter one nearest that track too,
    # which falls back to the 140 Hz track
    n = 45
    lists = [[_peak(140.0, 1.0)]] + [[_peak(100.0, 2.0), _peak(140.0, 1.0)]] * (n - 1)
    lists.append([_peak(115.0, 0.5), _peak(120.0, 3.0)])
    times = 0.015 + 0.001 * np.arange(len(lists))
    tracks = track_partials(_record(lists), times, 0.001)
    ends = sorted((tr.freqs[0], tr.freqs[-2]) for tr in tracks)
    assert ends == [(100.0, 120.0), (140.0, 115.0)]
    _assert_same_tracks(tracks, _reference_track_partials(lists, times, 0.001))
    _assert_same_tracks(tracks, _frame_loop_track_partials(_record(lists), times, 0.001))


@pytest.mark.parametrize("low,high,peak", [
    (100.0, 100.0, 101.0),    # two tracks at one frequency
    (1e-16, 2e-16, 16.0)])    # distinct, but 16 Hz away from both once rounded
def test_tracking_ties_with_a_candidate_past_the_nearest(low, high, peak):
    # the quieter, so later-born, track is the lower one: the tie goes to it
    lists = [[_peak(low, 1.0), _peak(high, 2.0)], [_peak(peak, 1.0)]]
    assert abs(low - peak) == abs(high - peak)
    times = np.array([0.015, 0.016])
    tracks = track_partials(_record(lists), times, 0.001)
    assert sorted((tr.amps[0], len(tr)) for tr in tracks) == [(1.0, 3), (2.0, 2)]
    _assert_same_tracks(tracks, _reference_track_partials(lists, times, 0.001))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_sm_pipeline_single_tone():
    n = 8000
    t = np.arange(n) / FS
    x = 0.7 * np.cos(2 * np.pi * 100.0 * t + 0.3)
    sig = SampledSignal(samples=x, fs=FS)
    # knowing the component count, reconstruction is clean
    tracks = sm_analyze_peaks(sig, SMConfig(max_peaks=1)).tracks
    assert len(tracks) == 1
    assert srer(x, sm_synthesize(tracks, n, FS)) > 50.0
    # at the defaults, window sidelobes cost accuracy but stay usable
    assert srer(x, sm_synthesize(sm_analyze_peaks(sig).tracks, n, FS)) > 25.0


def test_sm_pipeline_two_tones():
    n = 8000
    t = np.arange(n) / FS
    x = (0.7 * np.cos(2 * np.pi * 100.0 * t)
         + 0.4 * np.cos(2 * np.pi * 317.0 * t + 1.1))
    sig = SampledSignal(samples=x, fs=FS)
    y = sm_synthesize(sm_analyze_peaks(sig).tracks, n, FS)
    assert srer(x, y) > 25.0


@pytest.mark.parametrize("fs", [8000.0, 44100.0, 48000.0])
def test_sm_at_other_rates_matches_the_reference_tracker(fs):
    sig = gen_amfm(AMFMSpec(duration=0.2, fs=fs, seed=2))[0]
    cfg = MODEL_TABLE["sm"].config(sig, None, None, None)
    srer_db, result, y, _ = run_model("sm", sig, None, cfg)
    assert np.isfinite(srer_db)
    hop_s = sm.hop_samples(cfg.hop_ms, fs) / fs
    want = _reference_track_partials(_lists(result.peaks), result.frame_times, hop_s)
    _assert_same_tracks(result.tracks, want)
    assert y.tobytes() == sm_synthesize(want, sig.samples.shape[0], fs).tobytes()


def test_sm_peaks_framing():
    n = 4000
    t = np.arange(n) / FS
    sig = SampledSignal(samples=np.cos(2 * np.pi * 200.0 * t), fs=FS)
    times, lists = sm_peaks(sig, SMConfig(hop_ms=5.0))  # the 30 ms window
    assert len(times) == len(lists) > 1
    # centers keep the window inside the signal
    half = 481 // 2
    assert times[0] * FS == pytest.approx(half)
    assert times[-1] * FS < n - half
    # a signal shorter than one window still yields a single centered frame
    short = SampledSignal(samples=np.cos(2 * np.pi * 200.0 * t[:300]), fs=FS)
    times1, lists1 = sm_peaks(short, SMConfig())
    assert len(times1) == 1 and len(lists1[0]) >= 1


def test_sm_peaks_window_validation():
    sig = SampledSignal(samples=np.ones(100), fs=FS)
    with pytest.raises(UsageError):
        sm_peaks(sig, SMConfig(window_samples=1))
    # a window longer than the minimum FFT gets a longer FFT, not an error
    times, lists = sm_peaks(sig, SMConfig(window_samples=4096))
    assert len(times) == len(lists) == 1


@pytest.mark.parametrize("fs,window_ms,fft_size", [
    (16000.0, 30.0, 2048), (44100.0, 30.0, 2048), (48000.0, 30.0, 2048),
    (96000.0, 30.0, 4096), (16000.0, 200.0, 4096), (16000.0, 300.0, 8192)])
def test_fft_size_follows_the_window(monkeypatch, fs, window_ms, fft_size):
    seen = set()

    def spy(frames, window, n_fft, *args):
        seen.add((frames.shape[1], n_fft))
        return SMPeaks(offsets=np.zeros(frames.shape[0] + 1, dtype=np.int64),
                       values=np.empty((4, 0)))

    monkeypatch.setattr(sm, "_block_peaks", spy)
    sm_peaks(SampledSignal(samples=np.ones(int(0.4 * fs)), fs=fs),
             SMConfig(window_samples=round(window_ms * fs / 1000.0), hop_ms=50.0))
    ((w_len, n_fft),) = seen
    # the next power of two at or above the window, and at least 2048
    assert n_fft == fft_size
    assert n_fft >= w_len and (n_fft == 2048 or n_fft // 2 < w_len)


# ---------------------------------------------------------------------------
# long input
# ---------------------------------------------------------------------------

LONG_S = 30
LONG_WALL_S = 30.0    # the child's wall time, start-up and input generation included
LONG_RSS_MB = 256.0   # the child's peak resident set

_LONG_CHILD = f"""
import numpy as np
from sinemodel.core import SampledSignal
from sinemodel.generators import AMFMSpec, gen_amfm
from sinemodel.harness import run_model
from sinemodel.sm import SMConfig
# one-second AM-FM segments, one seed each: the partial amplitudes step every
# second, and each segment ends in phase with the start of the next
x = np.concatenate([gen_amfm(AMFMSpec(seed=i))[0].samples for i in range({LONG_S})])
srer_db, result, _, _ = run_model("sm", SampledSignal(samples=x, fs=16000.0), None,
                                  SMConfig())
# this process image's own peak resident set, in KiB: ru_maxrss would also
# count the resident set of the process that started it
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(srer_db, len(result.peaks), peak_kib / 1024.0)
"""


def test_sm_on_30_s_of_audio_stays_within_time_and_memory():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sinemodel.__file__)))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _LONG_CHILD], capture_output=True,
                         text=True, check=True, env=env).stdout
    wall = time.perf_counter() - t0
    srer_db, frames, rss_mb = out.split()
    assert int(frames) == (LONG_S * 16000 - 481) // 16 + 1
    assert float(srer_db) > 20.0
    assert wall < LONG_WALL_S, f"{LONG_S} s of audio took {wall:.1f} s"
    assert float(rss_mb) < LONG_RSS_MB, f"{LONG_S} s of audio peaked at {float(rss_mb):.0f} MB"
