"""Sinusoidal model: per-frame FFT peak picking plus greedy partial tracking.

Frames are windowed with a zero-phase buffer (frame center at FFT index 0)
so measured phases refer to the frame center.  Peak frequency and amplitude
come from parabolic interpolation of the log-magnitude spectrum around each
local maximum; phase is read off the unwrapped phase spectrum at the
fractional bin.  Tracks connect peaks frame to frame by nearest frequency
within a jump bound; deaths (and interior births) ramp the amplitude over
one hop to avoid clicks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (TWO_PI, PartialTrack, SampledSignal, hop_samples, make_window,
                   synthesize_tracks, wrap_phase)
from .errors import UsageError

_LOG_FLOOR = 1e-200
THRESHOLD_DB = -60.0  # peaks must clear the frame's spectral max minus this
MAX_JUMP_HZ = 30.0    # largest frequency step a track continues across
MIN_FFT_SIZE = 2048   # frames are zero-padded to max(this, next power of two >= window)


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
    if not np.any(x):
        return []
    xw = x * (w / np.sum(w))
    half_hi = (w.shape[0] + 1) // 2
    half_lo = w.shape[0] // 2
    buf = np.zeros(fft_size)
    buf[:half_hi] = xw[half_lo:]
    if half_lo:
        buf[-half_lo:] = xw[:half_lo]
    spectrum = np.fft.rfft(buf)
    mag = 20.0 * np.log10(np.maximum(np.abs(spectrum), _LOG_FLOOR))
    interior = np.arange(1, mag.shape[0] - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & (mag[interior] > mag[interior + 1])
    above = mag[interior] > mag.max() + THRESHOLD_DB
    peak_bins = interior[is_peak & above]
    if peak_bins.size == 0:
        return []
    left, mid, right = mag[peak_bins - 1], mag[peak_bins], mag[peak_bins + 1]
    den = left - 2.0 * mid + right
    p = np.divide(0.5 * (left - right), den, out=np.zeros_like(den), where=den != 0.0)
    p = np.clip(p, -1.0, 1.0)
    frac_bin = peak_bins + p
    freq = frac_bin * fs / fft_size
    amp = 2.0 * 10.0 ** ((mid - 0.25 * (left - right) * p) / 20.0)
    inside = np.flatnonzero((freq > 0.0) & (freq < fs / 2.0))
    # the max_peaks loudest (ties keep bin order), then ordered by frequency
    keep = inside[np.argsort(-amp[inside], kind="stable")[:max_peaks]]
    keep = keep[np.argsort(freq[keep], kind="stable")]
    phase_spec = np.unwrap(np.angle(spectrum))
    phase = wrap_phase(np.interp(frac_bin[keep], np.arange(phase_spec.shape[0]),
                                 phase_spec))
    return [SpectralPeak(freq_hz=float(f), amp=float(a), phase=float(ph), bin=float(b))
            for f, a, ph, b in zip(freq[keep], amp[keep], phase, frac_bin[keep])]


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
    peak_lists = [analyze_frame_fft(padded[c:c + w_len], window, fft_size, fs,
                                    config.max_peaks)
                  for c in centers]
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
