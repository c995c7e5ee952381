"""Sinusoidal model: per-frame FFT peak picking plus greedy partial tracking.

Frames are windowed with a zero-phase buffer (frame center at FFT index 0)
so measured phases refer to the frame center, and are analysed in blocks
that share one FFT call.  Peak frequency and amplitude
come from parabolic interpolation of the log-magnitude spectrum around each
local maximum; phase is read off the unwrapped phase spectrum at the
fractional bin.  Tracks connect peaks frame to frame by nearest frequency
within a jump bound; deaths (and interior births) ramp the amplitude over
one hop to avoid clicks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (TWO_PI, PartialTrack, SampledSignal, hop_samples, make_window,
                   synthesize_tracks, wrap_phase)
from .errors import UsageError

_LOG_FLOOR = 1e-200
THRESHOLD_DB = -60.0  # peaks must clear the frame's spectral max minus this
MAX_JUMP_HZ = 30.0    # largest frequency step a track continues across
MIN_FFT_SIZE = 2048   # frames are zero-padded to max(this, next power of two >= window)
FRAME_BLOCK = 32      # frames per batched FFT in sm_peaks


@dataclass(frozen=True)
class SpectralPeak:
    freq_hz: float
    amp: float      # linear amplitude of the underlying cosine
    phase: float    # rad at the frame center
    bin: float      # fractional FFT bin

    def __post_init__(self):
        if self.amp < 0:
            raise UsageError(f"peak amplitude must be >= 0, got {self.amp}")


@dataclass(frozen=True)
class SMConfig:
    window_ms: float = 30.0
    window_kind: str = "hann"
    hop_ms: float = 1.0
    max_peaks: int = 100
    window_samples: int = None    # overrides window_ms when set (forced odd)

    def __post_init__(self):
        if self.max_peaks < 1:
            raise UsageError("max_peaks must be >= 1")


@dataclass(frozen=True)
class SMAnalysis:
    """Frame-center times (s), each frame's peaks, and the tracks built from them."""

    frame_times: np.ndarray
    peak_lists: list
    tracks: list


def analyze_frame_fft(frame: np.ndarray, window, fft_size: int, fs: float,
                      max_peaks: int) -> list[SpectralPeak]:
    """Pick at most max_peaks spectral peaks from one frame.

    The window is sum-normalized so a unit cosine yields a 0.5 spectral
    peak; reported amplitudes are therefore 2 * interpolated magnitude.
    An all-zero frame yields no peaks.
    """
    x = np.asarray(frame, dtype=np.float64)
    w = window.values if hasattr(window, "values") else np.asarray(window, dtype=np.float64)
    if x.shape[0] != w.shape[0]:
        raise UsageError(f"frame length {x.shape[0]} != window length {w.shape[0]}")
    if fft_size < w.shape[0]:
        raise UsageError(f"fft_size {fft_size} shorter than window {w.shape[0]}")
    return _block_peaks(x[np.newaxis], w, fft_size, fs, max_peaks)[0]


def _block_peaks(frames: np.ndarray, w: np.ndarray, fft_size: int, fs: float,
                 max_peaks: int) -> list[list[SpectralPeak]]:
    """analyze_frame_fft of each row of frames (n_frames x len(w)), with one
    FFT for the block and every later step an array op across it."""
    spectrum = _zero_phase_spectra(frames, w, fft_size)
    mag = 20.0 * np.log10(np.maximum(np.abs(spectrum), _LOG_FLOOR))
    phase_spec = _unwrap_rows(np.angle(spectrum))
    del spectrum
    floor = mag.max(axis=1, keepdims=True) + THRESHOLD_DB
    mid = mag[:, 1:-1]
    is_peak = (mid > mag[:, :-2]) & (mid > mag[:, 2:]) & (mid > floor)
    rows, peak_bins = np.nonzero(is_peak)  # frame-major, bins ascending
    peak_bins += 1
    left, mid, right = (mag[rows, peak_bins - 1], mag[rows, peak_bins],
                        mag[rows, peak_bins + 1])
    den = left - 2.0 * mid + right
    p = np.divide(0.5 * (left - right), den, out=np.zeros_like(den), where=den != 0.0)
    p = np.clip(p, -1.0, 1.0)
    frac_bin = peak_bins + p
    freq = frac_bin * fs / fft_size
    amp = 2.0 * 10.0 ** ((mid - 0.25 * (left - right) * p) / 20.0)
    inside = np.flatnonzero((freq > 0.0) & (freq < fs / 2.0))
    # per frame, the max_peaks loudest (ties keep bin order), then ordered by
    # frequency (ties keep loudness order); lexsort is stable
    loud = inside[np.lexsort((-amp[inside], rows[inside]))]
    rank = np.arange(loud.shape[0]) - np.searchsorted(rows[loud], rows[loud])
    keep = loud[rank < max_peaks]
    keep = keep[np.lexsort((freq[keep], rows[keep]))]
    # phase at the fractional bin, linear between its two neighbouring bins
    rows, frac_bin = rows[keep], frac_bin[keep]
    lo_bin = frac_bin.astype(np.int64)
    below = phase_spec[rows, lo_bin]
    phase = wrap_phase((phase_spec[rows, lo_bin + 1] - below) * (frac_bin - lo_bin) + below)
    peaks = list(map(SpectralPeak, freq[keep].tolist(), amp[keep].tolist(),
                     phase.tolist(), frac_bin.tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=frames.shape[0])).tolist()
    return [peaks[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _zero_phase_spectra(frames: np.ndarray, w: np.ndarray, fft_size: int) -> np.ndarray:
    """rfft of each sum-normalized windowed frame, zero-padded to fft_size
    with the frame center at index 0."""
    xw = frames * (w / np.sum(w))
    half_hi, half_lo = (w.shape[0] + 1) // 2, w.shape[0] // 2
    buf = np.zeros((frames.shape[0], fft_size))
    buf[:, :half_hi] = xw[:, half_lo:]
    if half_lo:
        buf[:, fft_size - half_lo:] = xw[:, :half_lo]
    return np.fft.rfft(buf, axis=1)


def _unwrap_rows(angle: np.ndarray) -> np.ndarray:
    """np.unwrap(angle, axis=1), working out the wrap only for the steps it
    corrects (those of at least pi)."""
    step = np.diff(angle, axis=1)
    jump = np.abs(step) >= np.pi
    big = step[jump]
    wrapped = np.mod(big + np.pi, TWO_PI) - np.pi
    wrapped[(wrapped == -np.pi) & (big > 0)] = np.pi
    out = np.zeros_like(angle)
    out[:, 1:][jump] = wrapped - big
    np.cumsum(out, axis=1, out=out)
    out += angle
    return out


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


def track_partials(peak_lists: list[list[SpectralPeak]], frame_times: np.ndarray,
                   hop_s: float) -> list[PartialTrack]:
    """Greedy nearest-frequency matching of peaks into partial tracks.

    Louder peaks claim tracks first, each the nearest free track within
    MAX_JUMP_HZ.  A track with no match dies with a
    one-hop amplitude ramp to zero; an unmatched peak is born, fading in
    over one hop unless it appears in the first frame.  Tracks still alive
    at the last frame end without a ramp.
    """
    if len(peak_lists) != len(frame_times):
        raise UsageError("one peak list per frame time required")
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
        matched: list[tuple[_TrackBuilder, SpectralPeak]] = []
        births: list[SpectralPeak] = []
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
    # tracks alive at the end close without a ramp; hold them one extra hop
    # so synthesis covers the samples after the last frame center
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
    tracks.sort(key=lambda tr: (tr.birth, tr.freqs[0]))
    return tracks


def _resolve_window_samples(config: SMConfig, fs: float) -> int:
    w = config.window_samples
    if w is None:
        w = int(round(config.window_ms * fs / 1000.0))
    w = int(w)
    if w % 2 == 0:
        w += 1  # odd length keeps an exact center sample for zero-phase framing
    if w < 3:
        raise UsageError(f"window of {w} samples is too short")
    return w


def sm_peaks(signal: SampledSignal,
             config: SMConfig = SMConfig()) -> tuple[np.ndarray, list[list[SpectralPeak]]]:
    """Per-frame peak lists and their frame-center times in seconds."""
    x = signal.samples
    fs = signal.fs
    w_len = _resolve_window_samples(config, fs)
    fft_size = max(MIN_FFT_SIZE, 1 << (w_len - 1).bit_length())
    hop = hop_samples(config.hop_ms, fs)
    window = make_window(config.window_kind, w_len)
    half = w_len // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(half)])
    # centers only where the window fits entirely inside the signal; the
    # uncovered edges are filled by constant track extension at synthesis
    n = x.shape[0]
    if n > w_len:
        centers = np.arange(half, n - half, hop)
    else:
        centers = np.array([n // 2])
    # frame c is padded[c:c + w_len]; blocks of FRAME_BLOCK frames share one FFT
    frames = sliding_window_view(padded, w_len)
    peak_lists = []
    for i in range(0, centers.shape[0], FRAME_BLOCK):
        peak_lists += _block_peaks(frames[centers[i:i + FRAME_BLOCK]], window.values,
                                   fft_size, fs, config.max_peaks)
    return centers / fs, peak_lists


def sm_analyze_peaks(signal: SampledSignal, config: SMConfig = SMConfig()) -> SMAnalysis:
    """Frame the signal, pick peaks, and connect them into partial tracks,
    keeping the peaks."""
    times, peak_lists = sm_peaks(signal, config)
    hop_s = hop_samples(config.hop_ms, signal.fs) / signal.fs
    return SMAnalysis(times, peak_lists, track_partials(peak_lists, times, hop_s))


def sm_analyze(signal: SampledSignal, config: SMConfig = SMConfig()) -> list[PartialTrack]:
    """Frame the signal, pick peaks, and connect them into partial tracks."""
    return sm_analyze_peaks(signal, config).tracks


def sm_synthesize(tracks, n_samples: int, fs: float) -> np.ndarray:
    """Resynthesize tracks with cubic phase interpolation between anchors."""
    return synthesize_tracks(tracks, n_samples, fs, phase_mode="cubic")
