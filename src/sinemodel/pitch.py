"""Autocorrelation fundamental-frequency tracking.

Per frame: remove the mean, compute the normalized autocorrelation over the
lag range [fs/f_max, fs/f_min], and take the smallest lag whose local
maximum comes within 10% of the global peak (this prefers the true period
over its multiples).  The lag is refined parabolically.  Frames whose peak
correlation falls below the voicing threshold are unvoiced; unvoiced frames
inherit the nearest voiced f0 so windowing decisions downstream always have
a usable value.  The threshold is VOICING_THRESHOLD, or, for frames so short
that white noise correlates above it, 4/sqrt(n) for the n samples the widest
lag searched overlaps (white noise's normalized autocorrelation at a lag
spreads as 1/sqrt of its overlap).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .core import SampledSignal, hop_samples
from .errors import AnalysisError, UsageError

VOICING_THRESHOLD = 0.3
_PEAK_KEEP = 0.9        # local maxima within this fraction of the global peak compete
_MEDFILT_FRAMES = 5     # odd, so the running median is centred
FRAME_BLOCK = 256       # frames per array pass in estimate_f0


@dataclass(frozen=True)
class F0Track:
    times: np.ndarray   # frame centers, s
    f0: np.ndarray      # Hz; unvoiced frames carry the nearest voiced value
    voiced: np.ndarray  # bool per frame

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        f0 = np.asarray(self.f0, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        if not (times.shape == f0.shape == voiced.shape) or times.ndim != 1:
            raise UsageError("time/f0/voiced arrays must be matching 1-D arrays")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "voiced", voiced)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def any_voiced(self) -> bool:
        return bool(np.any(self.voiced))

    def f0_at(self, t) -> np.ndarray:
        """Linear interpolation of the filled f0 curve at arbitrary times."""
        return np.interp(np.asarray(t, dtype=np.float64), self.times, self.f0)


def _pick_lags(r: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of r (frames x lags from lo): the smallest-lag local maximum
    within _PEAK_KEEP of the row's global peak, parabolically refined, or
    the global peak's lag where there is none.  Returns (lag, correlation);
    a row whose peak is not positive gives lag 0."""
    g = r.max(axis=1)
    mid = r[:, 1:-1]
    found = (mid > r[:, :-2]) & (mid > r[:, 2:]) & (mid >= (_PEAK_KEEP * g)[:, None])
    refined = found.any(axis=1)
    j = np.where(refined, found.argmax(axis=1) + 1, r.argmax(axis=1))
    a, b, c = (np.take_along_axis(r, (j + k)[:, None].clip(0, r.shape[1] - 1), axis=1)[:, 0]
               for k in (-1, 0, 1))
    den = a - 2.0 * b + c
    p = np.clip(np.divide(0.5 * (a - c), den, out=np.zeros_like(den), where=den != 0.0),
                -0.5, 0.5)
    lag = np.where(refined, (lo + j) + p, lo + j)
    corr = np.where(refined, b - 0.25 * (a - c) * p, g)
    live = g > 0
    return np.where(live, lag, 0.0), np.where(live, corr, g)


def _nearest_voiced(voiced: np.ndarray) -> np.ndarray:
    """Index of the nearest voiced frame for every frame, the earlier one on
    a tie; needs at least one voiced frame."""
    vi = np.flatnonzero(voiced)
    frames = np.arange(voiced.shape[0])
    pos = np.searchsorted(vi, frames)
    before = vi[np.maximum(pos - 1, 0)]
    after = vi[np.minimum(pos, vi.shape[0] - 1)]
    return np.where(frames - before <= after - frames, before, after)


def _median_filter(x: np.ndarray) -> np.ndarray:
    """Running median over _MEDFILT_FRAMES frames, zero-padded at the ends
    (scipy.signal.medfilt's rule)."""
    half = _MEDFILT_FRAMES // 2
    return np.median(sliding_window_view(np.pad(x, half), _MEDFILT_FRAMES), axis=1)


def estimate_f0(signal: SampledSignal, f_min: float = 60.0, f_max: float = 500.0,
                hop_ms: float = 5.0) -> F0Track:
    """Frame-wise autocorrelation pitch track.

    Needs at least 2/f_min seconds of signal.  The returned track is
    median-filtered over 5 frames and never locks onto a frequency outside
    [f_min, f_max].
    """
    if not (0 < f_min < f_max):
        raise UsageError(f"need 0 < f_min < f_max, got {f_min}, {f_max}")
    x = signal.samples
    fs = signal.fs
    if f_max >= fs / 2:
        raise UsageError(f"f_max {f_max} must be below Nyquist")
    lag_min = max(1, int(np.floor(fs / f_max)))
    lag_max = int(np.ceil(fs / f_min))
    frame_len = 2 * lag_max
    if x.shape[0] < frame_len:
        raise UsageError(f"signal too short for f_min={f_min} Hz "
                         f"(need {frame_len} samples, got {x.shape[0]})")
    hop = hop_samples(hop_ms, fs)
    # widen the search two lags each side so edge peaks stay interior
    lo = max(1, lag_min - 2)
    hi = min(frame_len - 2, lag_max + 2)
    starts = np.arange(0, x.shape[0] - frame_len + 1, hop)
    times = (starts + frame_len / 2.0) / fs
    lag, corr = np.empty(starts.shape[0]), np.empty(starts.shape[0])
    frames = sliding_window_view(x, frame_len)[::hop]
    for i in range(0, starts.shape[0], FRAME_BLOCK):
        block = frames[i:i + FRAME_BLOCK]
        block = block - np.mean(block, axis=1, keepdims=True)
        lag[i:i + FRAME_BLOCK], corr[i:i + FRAME_BLOCK] = _pick_lags(
            _kernels.autocorr_norm(block, lo, hi), lo)
    f0 = np.divide(fs, lag, out=np.zeros_like(lag), where=lag > 0)
    threshold = max(VOICING_THRESHOLD, 4.0 / np.sqrt(frame_len - hi))
    voiced = (corr >= threshold) & (lag > 0) & (f_min <= f0) & (f0 <= f_max)
    f0[~voiced] = 0.0
    if np.any(voiced):
        # unvoiced frames inherit the nearest voiced estimate
        f0 = f0[_nearest_voiced(voiced)]
        if f0.shape[0] >= _MEDFILT_FRAMES:
            f0 = _median_filter(f0)
        f0 = np.clip(f0, f_min, f_max)
    return F0Track(times=times, f0=f0, voiced=voiced)


def average_pitch_period(track: F0Track) -> float:
    """Mean voiced pitch period in seconds."""
    if not track.any_voiced:
        raise AnalysisError("average pitch period undefined: no voiced frames")
    return float(np.mean(1.0 / track.f0[track.voiced]))
