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
WINDOW_MS = 30.0      # the protocol window, used when SMConfig.window_samples is None


@dataclass(frozen=True, eq=False)
class SMPeaks:
    """The spectral peaks of a run of frames, as columns.

    Column c of `values` is one peak's (freq_hz, amp, phase, bin): its
    frequency, the linear amplitude of the underlying cosine, the phase (rad)
    at the frame center and the fractional FFT bin.  Frame i owns columns
    offsets[i]:offsets[i + 1], by ascending frequency.  len() counts frames,
    and peaks[i] is frame i's peaks as (k, 4) rows.
    """

    offsets: np.ndarray  # n_frames + 1 ints
    values: np.ndarray   # 4 x n_peaks

    freq_hz = property(lambda self: self.values[0])
    amp = property(lambda self: self.values[1])
    phase = property(lambda self: self.values[2])
    bin = property(lambda self: self.values[3])

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.values[:, self.offsets[i]:self.offsets[i + 1]].T


@dataclass(frozen=True)
class SMConfig:
    window_kind: str = "hann"
    hop_ms: float = 1.0
    max_peaks: int = 100
    window_samples: int = None    # forced odd; None: WINDOW_MS

    def __post_init__(self):
        if self.max_peaks < 1:
            raise UsageError("max_peaks must be >= 1")


@dataclass(frozen=True)
class SMAnalysis:
    """Frame-center times (s), the frames' peaks, and the tracks built from them."""

    frame_times: np.ndarray
    peaks: SMPeaks
    tracks: list


def analyze_frame_fft(frame: np.ndarray, window, fft_size: int, fs: float,
                      max_peaks: int) -> SMPeaks:
    """Pick at most max_peaks spectral peaks from one frame (a one-frame record).

    The window is sum-normalized so a unit cosine yields a 0.5 spectral
    peak; reported amplitudes are therefore 2 * interpolated magnitude.
    An all-zero frame yields no peaks.
    """
    x = np.asarray(frame, dtype=np.float64)
    w = np.asarray(window, dtype=np.float64)
    if x.shape[0] != w.shape[0]:
        raise UsageError(f"frame length {x.shape[0]} != window length {w.shape[0]}")
    if fft_size < w.shape[0]:
        raise UsageError(f"fft_size {fft_size} shorter than window {w.shape[0]}")
    return _block_peaks(x[np.newaxis], w, fft_size, fs, max_peaks)


def _block_peaks(frames: np.ndarray, w: np.ndarray, fft_size: int, fs: float,
                 max_peaks: int) -> SMPeaks:
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
    counts = np.bincount(rows, minlength=frames.shape[0])
    return SMPeaks(offsets=np.concatenate(([0], np.cumsum(counts))),
                   values=np.stack((freq[keep], amp[keep], phase, frac_bin)))


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


def _match(last_f: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Greedy matching of one frame's peaks at f (louder first) to the tracks
    ending at last_f: each peak claims the nearest free track within
    MAX_JUMP_HZ, the latest one on ties.  Returns each peak's track, or -1."""
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


def track_partials(peaks: SMPeaks, frame_times: np.ndarray,
                   hop_s: float) -> list[PartialTrack]:
    """Greedy nearest-frequency matching of peaks into partial tracks.

    Louder peaks claim tracks first, each the nearest free track within
    MAX_JUMP_HZ.  A track with no match dies with a
    one-hop amplitude ramp to zero; an unmatched peak is born, fading in
    over one hop unless it appears in the first frame.  Tracks still alive
    at the last frame end without a ramp.  A track is recorded as its
    peaks' indices and gathered into anchor arrays once, at the end.
    """
    if len(peaks) != len(frame_times):
        raise UsageError("one peak list per frame time required")
    freq, amp, phase, offsets = peaks.freq_hz, peaks.amp, peaks.phase, peaks.offsets
    frame_of = np.repeat(np.arange(len(peaks)), np.diff(offsets))
    loud = np.lexsort((-amp, frame_of))  # per frame louder first, ties by frequency
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
    # a track's anchors: a fade-in one hop before an interior birth, its
    # peaks, then one hop after its last peak a ramp to zero or, for a track
    # alive at the end, a hold so synthesis covers the samples after the last
    # frame center
    n_peaks = np.bincount(track_of, minlength=n_tracks)
    fade_in = np.arange(n_tracks) >= (offsets[1] if len(peaks) else 0)  # not first-frame births
    length = fade_in + n_peaks + 1
    end = np.cumsum(length)
    start = end - length
    by_track = np.argsort(track_of, kind="stable")  # each track's peaks in frame order
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
    dead = np.concatenate(retired)
    amps[s[dead]] = 0.0
    done = np.concatenate((dead, active))
    done = done[np.lexsort((freqs[start[done]], times[start[done]]))]
    return [PartialTrack(times=times[a:b], amps=amps[a:b], freqs=freqs[a:b],
                         phases=phases[a:b])
            for a, b in zip(start[done].tolist(), end[done].tolist())]


def _resolve_window_samples(config: SMConfig, fs: float) -> int:
    w = config.window_samples
    if w is None:
        w = int(round(WINDOW_MS * fs / 1000.0))
    w = int(w)
    if w % 2 == 0:
        w += 1  # odd length keeps an exact center sample for zero-phase framing
    if w < 3:
        raise UsageError(f"window of {w} samples is too short")
    return w


def sm_peaks(signal: SampledSignal,
             config: SMConfig = SMConfig()) -> tuple[np.ndarray, SMPeaks]:
    """Frame-center times in seconds and the frames' peaks."""
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
    blocks = [_block_peaks(frames[centers[i:i + FRAME_BLOCK]], window, fft_size,
                           fs, config.max_peaks)
              for i in range(0, centers.shape[0], FRAME_BLOCK)]
    counts = np.concatenate([np.diff(b.offsets) for b in blocks])
    return centers / fs, SMPeaks(offsets=np.concatenate(([0], np.cumsum(counts))),
                                 values=np.concatenate([b.values for b in blocks], axis=1))


def sm_analyze_peaks(signal: SampledSignal, config: SMConfig = SMConfig()) -> SMAnalysis:
    """Frame the signal, pick peaks, and connect them into partial tracks,
    keeping the peaks."""
    times, peaks = sm_peaks(signal, config)
    hop_s = hop_samples(config.hop_ms, signal.fs) / signal.fs
    return SMAnalysis(times, peaks, track_partials(peaks, times, hop_s))


def sm_analyze(signal: SampledSignal, config: SMConfig = SMConfig()) -> list[PartialTrack]:
    """Frame the signal, pick peaks, and connect them into partial tracks."""
    return sm_analyze_peaks(signal, config).tracks


def sm_synthesize(tracks, n_samples: int, fs: float) -> np.ndarray:
    """Resynthesize tracks with cubic phase interpolation between anchors."""
    return synthesize_tracks(tracks, n_samples, fs, phase_mode="cubic")
