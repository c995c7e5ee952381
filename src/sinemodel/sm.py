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

from .core import (TWO_PI, FrameRecord, PartialTrack, SampledSignal, check_count,
                   check_hop_ms, check_window_kind, hop_samples, make_window,
                   synthesize_tracks, wrap_phase)
from .errors import UsageError

_LOG_FLOOR = 1e-200
THRESHOLD_DB = -60.0  # peaks must clear the frame's spectral max minus this
MAX_JUMP_HZ = 30.0    # largest frequency step a track continues across
MIN_FFT_SIZE = 2048   # frames are zero-padded to max(this, next power of two >= window)
FRAME_BLOCK = 32      # frames per batched FFT in sm_peaks
LINK_BLOCK = 512      # frames per nearest-candidate pass in track_partials
WINDOW_MS = 30.0      # the protocol window, used when SMConfig.window_samples is None


class SMPeaks(FrameRecord):
    """The spectral peaks of a run of frames, as a FrameRecord.

    A peak's row is (freq_hz, amp, phase, bin): its frequency, the linear
    amplitude of the underlying cosine, the phase (rad) at the frame center
    and the fractional FFT bin.  A frame's peaks ascend in frequency.
    """

    bin = property(lambda self: self.values[3])


@dataclass(frozen=True)
class SMConfig:
    window_kind: str = "hann"
    hop_ms: float = 1.0
    max_peaks: int = 100
    window_samples: int = None    # forced odd; None: WINDOW_MS

    def __post_init__(self):
        check_window_kind(self.window_kind)
        check_hop_ms(self.hop_ms)
        check_count("max_peaks", self.max_peaks, 1)
        if self.window_samples is not None:
            check_count("window_samples", self.window_samples, 1)


@dataclass(frozen=True)
class SMAnalysis:
    """Frame-center times (s), the frames' peaks, and the tracks built from them."""

    frame_times: np.ndarray
    peaks: SMPeaks
    tracks: list


def _db(mag: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(mag, _LOG_FLOOR))


def _block_peaks(frames: np.ndarray, w: np.ndarray, fft_size: int, fs: float,
                 max_peaks: int) -> SMPeaks:
    """At most max_peaks spectral peaks of each row of frames (n_frames x
    len(w)), with one FFT for the block and every later step an array op
    across it.

    The window is sum-normalized so a unit cosine yields a 0.5 spectral
    peak; reported amplitudes are therefore 2 * interpolated magnitude.
    A peak is a local maximum of the dB spectrum above the frame's maximum
    plus THRESHOLD_DB.  dB is non-decreasing in |X|, so every peak is a local
    maximum of |X| and the frame's dB maximum is the dB of its |X| maximum:
    dB is taken only at those maxima and their neighbours, of the magnitudes
    scaled by the power of two that brings the frame's maximum into [0.5, 1)
    (so peaks are exact under power-of-two gain), and the amplitudes get
    that scale back.  The phase is unwrapped only up to the highest bin read,
    and the unwrap's sum starts at bin 0, so the prefix is the whole
    spectrum's.  An all-zero frame yields no peaks.
    """
    spectrum = _zero_phase_spectra(frames, w, fft_size)
    mag = np.abs(spectrum)
    mid = mag[:, 1:-1]
    rows, peak_bins = np.nonzero((mid > mag[:, :-2]) & (mid > mag[:, 2:]))
    peak_bins += 1
    top, exp = np.frexp(mag.max(axis=1))
    left, mid, right = _db(np.ldexp(mag[rows[:, None], peak_bins[:, None] + np.arange(-1, 2)],
                                    -exp[rows, None])).T
    floor = _db(top) + THRESHOLD_DB
    is_peak = np.flatnonzero((mid > left) & (mid > right) & (mid > floor[rows]))
    rows, peak_bins = rows[is_peak], peak_bins[is_peak]
    left, mid, right = left[is_peak], mid[is_peak], right[is_peak]
    den = left - 2.0 * mid + right
    p = np.divide(0.5 * (left - right), den, out=np.zeros_like(den), where=den != 0.0)
    p = np.clip(p, -1.0, 1.0)
    frac_bin = peak_bins + p
    freq = frac_bin * fs / fft_size
    amp = np.ldexp(2.0 * 10.0 ** ((mid - 0.25 * (left - right) * p) / 20.0), exp[rows])
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
    phase_spec = _unwrap_rows(np.angle(spectrum[:, :int(lo_bin.max(initial=0)) + 2]))
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


def _roots(prev: np.ndarray, root: np.ndarray, c0: int, c1: int) -> None:
    """Set root[c0:c1] to the first peak of each peak's track, given prev
    (each peak's predecessor, -1 for none) on [c0, c1) and root on [0, c0)."""
    r = prev[c0:c1].copy()
    born = r < 0
    r[born] = np.flatnonzero(born) + c0
    while True:  # pointer jumping: each pass halves the chains inside [c0, c1)
        inside = r >= c0
        nxt = np.where(inside, r[np.where(inside, r - c0, 0)], r)
        if np.array_equal(nxt, r):
            break
        r = nxt
    inside = r >= c0
    root[c0:c1] = np.where(inside, r, root[np.where(inside, 0, r)])


def _nearest(freq: np.ndarray, frame_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a run of whole frames (columns ascending by frame, then
    frequency): each peak's nearest peak of the frame before within
    MAX_JUMP_HZ (-1 for none), and whether its frame needs the scan, that
    is, one of its candidates is wanted twice or a distance ties."""
    n = freq.shape[0]
    # (frame, frequency rank) keys are exact and ascend with the columns, so
    # one search places every peak among the frame before's peaks
    rank = np.unique(freq, return_inverse=True)[1].reshape(-1)
    key = frame_of * (n + 1) + rank
    pos = np.searchsorted(key, key - (n + 1))
    before = frame_of - 1

    def dist(col):
        at = np.clip(col, 0, n - 1)
        return np.where((col == at) & (frame_of[at] == before), np.abs(freq[at] - freq), np.inf)

    d_left, d_right = dist(pos - 1), dist(pos)
    hit = np.minimum(d_left, d_right) <= MAX_JUMP_HZ
    want = np.where(hit, np.where(d_right <= d_left, pos, pos - 1), -1)
    # a tie: equal distances each side, or the next candidate out as near
    # as the nearest (equal frequencies, or a rounded difference)
    tie = hit & ((d_left == d_right) | np.where(d_right < d_left, dist(pos + 1) == d_right,
                                                 dist(pos - 2) == d_left))
    wanted = np.bincount(want[hit], minlength=n)
    return want, tie | (hit & (wanted[want] > 1))


def _link(freq: np.ndarray, amp: np.ndarray, offsets: np.ndarray,
          frame_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each peak's track (numbered by first peak), and each track's first
    and last peak and a key ascending with its birth order.

    Every peak continues a track or starts one, so the tracks alive after a
    frame are exactly its peaks, and a frame's matching depends only on the
    frame before.  So every peak finds its nearest candidate at once (in
    passes of LINK_BLOCK frames); a frame where no two peaks want one
    candidate and no distance ties is already greedy.  The others are
    scanned peak by peak in frame order, because a tie goes to the
    latest-born track and birth order needs the earlier frames' links: it
    is the order of the tracks' first peaks in loud, the peaks frame by
    frame and louder first.
    """
    n, n_frames = freq.shape[0], offsets.shape[0] - 1
    loud = np.lexsort((-amp, frame_of))  # ties by frequency
    loud_pos = np.empty_like(loud)
    loud_pos[loud] = np.arange(n)
    prev = np.empty(n, dtype=np.int64)
    needs_scan = np.empty(n, dtype=bool)
    for i in range(0, n_frames, LINK_BLOCK):
        c0, c1 = int(offsets[max(i - 1, 0)]), int(offsets[i])
        c2 = int(offsets[min(i + LINK_BLOCK, n_frames)])
        want, to_scan = _nearest(freq[c0:c2], frame_of[c0:c2])
        want = want[c1 - c0:]  # frame i - 1 only offers candidates
        prev[c1:c2] = np.where(want >= 0, want + c0, -1)
        needs_scan[c1:c2] = to_scan[c1 - c0:]
    scan = np.unique(frame_of[needs_scan])
    root = np.empty(n, dtype=np.int64)
    rooted = 0  # root is known on [0, rooted)
    for i in scan.tolist():
        c0, c1, c2 = int(offsets[i - 1]), int(offsets[i]), int(offsets[i + 1])
        _roots(prev, root, rooted, c1)
        rooted = c1
        cand = c0 + np.argsort(loud_pos[root[c0:c1]])  # their tracks in birth order
        peaks = loud[c1:c2]
        taken = np.zeros(cand.shape[0], dtype=bool)
        for p, row in zip(peaks.tolist(), np.abs(freq[cand] - freq[peaks][:, None])):
            row = np.where(taken, np.inf, row)
            j = row.shape[0] - 1 - int(row[::-1].argmin())
            prev[p] = cand[j] if row[j] <= MAX_JUMP_HZ else -1
            taken[j] |= prev[p] >= 0
    _roots(prev, root, rooted, n)
    births = prev < 0
    born = np.flatnonzero(births)
    track_of = (np.cumsum(births) - 1)[root]
    followed = np.zeros(n, dtype=bool)
    followed[prev[prev >= 0]] = True
    last = np.empty_like(born)
    last[track_of[~followed]] = np.flatnonzero(~followed)
    return track_of, born, last, loud_pos[born]


def track_partials(peaks: FrameRecord, frame_times: np.ndarray,
                   hop_s: float) -> list[PartialTrack]:
    """Greedy nearest-frequency matching of peaks into partial tracks.

    peaks is any FrameRecord (sm's SMPeaks, edsm's EDSMFrames): only its
    offsets and its frequency, amplitude and phase columns are read.

    Louder peaks claim tracks first, each the nearest free track within
    MAX_JUMP_HZ.  A track with no match dies with a
    one-hop amplitude ramp to zero; an unmatched peak is born, fading in
    over one hop unless it appears in the first frame.  Tracks still alive
    at the last frame end without a ramp.  Tracks come ordered by start
    time, then start frequency, then death (alive last), the later-born
    first among tracks that die together.
    """
    if len(peaks) != len(frame_times):
        raise UsageError("one peak list per frame time required")
    return PartialTrack.from_columns(*_anchor_columns(peaks, frame_times, hop_s))


def _anchor_columns(peaks: FrameRecord, frame_times: np.ndarray,
                    hop_s: float) -> tuple[np.ndarray, ...]:
    """track_partials' anchor columns (times, amps, freqs, phases), track k
    at bounds[k]:bounds[k + 1], and bounds."""
    freq, amp, phase, offsets = peaks.freq_hz, peaks.amp, peaks.phase, peaks.offsets
    n_frames = len(peaks)
    frame_of = np.repeat(np.arange(n_frames), np.diff(offsets))
    track_of, born, last, birth = _link(freq, amp, offsets, frame_of)
    n_peaks = np.bincount(track_of, minlength=born.shape[0])
    death = frame_of[last] + 1
    alive = death == n_frames
    fade_in = frame_of[born] > 0
    t_peak = np.asarray(frame_times)[frame_of]
    t_start = np.where(fade_in, t_peak[born] - hop_s, t_peak[born])
    order = np.lexsort((np.where(alive, birth, -birth), death,
                        freq[born], t_start))
    # a track's anchors: a fade-in one hop before an interior birth, its
    # peaks (one a frame), then one hop after its last peak a ramp to zero
    # or, for a track alive at the end, a hold so synthesis covers the
    # samples after the last frame center
    length = (fade_in + n_peaks + 1)[order]
    bounds = np.concatenate(([0], np.cumsum(length)))
    start = np.empty_like(born)
    start[order] = bounds[:-1]
    times, amps, freqs, phases = anchors = np.empty((4, int(bounds[-1])))
    slot = (start + fade_in - frame_of[born])[track_of] + frame_of
    for row, col in zip(anchors, (t_peak, amp, freq, phase)):
        row[slot] = col
    p, s = born[fade_in], start[fade_in]
    times[s], amps[s], freqs[s] = t_peak[p] - hop_s, 0.0, freq[p]
    phases[s] = wrap_phase(phase[p] - TWO_PI * freq[p] * hop_s)
    p, s = last, start + fade_in + n_peaks
    times[s], amps[s], freqs[s] = t_peak[p] + hop_s, np.where(alive, amp[p], 0.0), freq[p]
    phases[s] = wrap_phase(phase[p] + TWO_PI * freq[p] * hop_s)
    return times, amps, freqs, phases, bounds


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


def sm_synthesize(tracks, n_samples: int, fs: float) -> np.ndarray:
    """Resynthesize tracks with cubic phase interpolation between anchors."""
    return synthesize_tracks(tracks, n_samples, fs, phase_mode="cubic")
