"""Shared signal types, analysis windows, SRER and partial-track synthesis.

Conventions used throughout the toolkit:
  - signals are 1-D float64 arrays in nominal [-1, 1), fs in Hz
  - track anchors are (time s, linear amplitude, frequency Hz, phase rad)
  - windows are symmetric (L-1 denominator), peak 1 at the center sample
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import _kernels
from .errors import UsageError

# Reconstruction with exactly zero error reports this finite sentinel so
# downstream CSV/compare paths never have to serialize an infinity.
SRER_MAX_DB = 300.0

WINDOW_KINDS = ("hamming", "hann", "blackman", "rectangular")

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real signal."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise UsageError(f"signal must be 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise UsageError("signal must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise UsageError("signal contains non-finite samples")
        if not (self.fs > 0):
            raise UsageError(f"sample rate must be positive, got {self.fs}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", float(self.fs))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.fs


@dataclass(frozen=True)
class WindowVector:
    """Named analysis window with its sample values."""

    kind: str
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PartialTrack:
    """One partial: anchor arrays plus the birth/death span it covers."""

    times: np.ndarray   # s, strictly increasing
    amps: np.ndarray    # linear, >= 0
    freqs: np.ndarray   # Hz, > 0
    phases: np.ndarray  # rad
    birth: float = None
    death: float = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        amps = np.asarray(self.amps, dtype=np.float64)
        freqs = np.asarray(self.freqs, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        n = times.shape[0]
        if n == 0:
            raise UsageError("track needs at least one anchor")
        if not (amps.shape[0] == freqs.shape[0] == phases.shape[0] == n):
            raise UsageError("track anchor arrays must have equal length")
        if n > 1 and not np.all(np.diff(times) > 0):
            raise UsageError("anchor times must be strictly increasing")
        if np.any(amps < 0):
            raise UsageError("anchor amplitudes must be >= 0")
        if np.any(freqs <= 0):
            raise UsageError("anchor frequencies must be > 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "birth", float(times[0] if self.birth is None else self.birth))
        object.__setattr__(self, "death", float(times[-1] if self.death is None else self.death))

    def __len__(self) -> int:
        return self.times.shape[0]


# ---------------------------------------------------------------------------
# windows and SRER
# ---------------------------------------------------------------------------

def make_window(kind: str, length: int) -> WindowVector:
    """Symmetric analysis window of the given kind and length."""
    if length < 1:
        raise UsageError(f"window length must be >= 1, got {length}")
    kind = kind.lower()
    if kind == "hamming":
        values = np.hamming(length)
    elif kind == "hann":
        values = np.hanning(length)
    elif kind == "blackman":
        values = np.blackman(length)
    elif kind == "rectangular":
        values = np.ones(length)
    else:
        raise UsageError(f"unknown window kind {kind!r}, expected one of {WINDOW_KINDS}")
    return WindowVector(kind=kind, values=values.astype(np.float64))


def _as_samples(x) -> np.ndarray:
    if isinstance(x, SampledSignal):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def srer(reference, estimate) -> float:
    """Signal-to-reconstruction-error ratio in dB.

    20*log10(std(x) / std(x - s)) with the population std (mean removed).
    A zero-error reconstruction reports the finite sentinel SRER_MAX_DB.
    """
    x = _as_samples(reference)
    s = _as_samples(estimate)
    if x.shape != s.shape:
        raise UsageError(f"length mismatch: reference {x.shape} vs estimate {s.shape}")
    if x.size == 0:
        raise UsageError("empty signals")
    num = float(np.std(x))
    den = float(np.std(x - s))
    if den == 0.0:
        return SRER_MAX_DB
    if num == 0.0:
        return -SRER_MAX_DB
    return float(20.0 * np.log10(num / den))


def wrap_phase(phi):
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(phi, dtype=np.float64)))


# ---------------------------------------------------------------------------
# interpolation between anchors
# ---------------------------------------------------------------------------

def interp_amplitude_linear(times: np.ndarray, amps: np.ndarray,
                            t_eval: np.ndarray) -> np.ndarray:
    """Linear amplitude interpolation, constant beyond the anchor span."""
    times = np.asarray(times, dtype=np.float64)
    amps = np.asarray(amps, dtype=np.float64)
    if times.size == 0:
        raise UsageError("need at least one amplitude anchor")
    return np.interp(np.asarray(t_eval, dtype=np.float64), times, amps)


def interp_frequency_spline(times: np.ndarray, freqs: np.ndarray,
                            t_eval: np.ndarray) -> np.ndarray:
    """Natural cubic-spline frequency interpolation, constant beyond the span."""
    times = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    t_eval = np.asarray(t_eval, dtype=np.float64)
    if times.size == 0:
        raise UsageError("need at least one frequency anchor")
    if times.size == 1:
        return np.full(t_eval.shape, freqs[0])
    spline = CubicSpline(times, freqs, bc_type="natural")
    return spline(np.clip(t_eval, times[0], times[-1]))


def phase_by_freq_integration(freq_hz: np.ndarray, fs: float, phi0: float = 0.0,
                              anchor_idx: np.ndarray = None,
                              anchor_phases: np.ndarray = None) -> np.ndarray:
    """Per-sample phase as the trapezoid integral of 2*pi*f/fs.

    With anchors, the integrated phase is pinned to each anchor phase
    modulo 2*pi; every span's residual is spread linearly across it so the
    curve stays continuous.
    """
    freq_hz = np.asarray(freq_hz, dtype=np.float64)
    phase = _kernels.trapezoid_phase(freq_hz, float(fs), float(phi0))
    if anchor_idx is None or len(anchor_idx) == 0:
        return phase
    idx = np.asarray(anchor_idx, dtype=np.int64)
    tgt = np.asarray(anchor_phases, dtype=np.float64)
    if idx.shape != tgt.shape:
        raise UsageError("anchor index/phase arrays must have equal length")
    if np.any(idx < 0) or np.any(idx >= freq_hz.shape[0]):
        raise UsageError("anchor index out of range")
    phase += tgt[0] - phase[idx[0]]
    for j in range(idx.shape[0] - 1):
        ia, ib = int(idx[j]), int(idx[j + 1])
        r = float(wrap_phase(tgt[j + 1] - phase[ib]))
        span = ib - ia
        phase[ia + 1:ib + 1] += r * (np.arange(1, span + 1) / span)
        phase[ib + 1:] += r
    return phase


def phase_cubic_mq(dt: float, phi1: float, f1: float, phi2: float, f2: float,
                   tau: np.ndarray) -> np.ndarray:
    """Cubic phase between two anchors with minimal-|M| unwrapping.

    dt is the anchor spacing in seconds; tau holds evaluation offsets in
    [0, dt].  Endpoint phases are met modulo 2*pi and endpoint frequencies
    exactly.
    """
    if dt <= 0:
        raise UsageError(f"anchor spacing must be positive, got {dt}")
    w1 = TWO_PI * f1
    w2 = TWO_PI * f2
    m = np.round(((phi1 + w1 * dt - phi2) + (w2 - w1) * dt / 2.0) / TWO_PI)
    d = phi2 - phi1 - w1 * dt + TWO_PI * m
    a = 3.0 / dt**2 * d - (w2 - w1) / dt
    b = -2.0 / dt**3 * d + (w2 - w1) / dt**2
    tau = np.asarray(tau, dtype=np.float64)
    return phi1 + w1 * tau + a * tau**2 + b * tau**3


# ---------------------------------------------------------------------------
# track sampling and synthesis
# ---------------------------------------------------------------------------

def sample_track(track: PartialTrack, fs: float, n0: int,
                 n1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (amplitude, frequency, phase) of a track over samples
    n0..n1 inclusive.

    Amplitude is linear between anchors, frequency a natural cubic spline,
    phase the trapezoid integral of frequency pinned to the anchor phases
    modulo 2*pi.  Beyond the anchor span, amplitude and frequency hold their
    endpoint values and phase keeps advancing at the endpoint frequency.
    """
    if n1 < n0:
        raise UsageError("empty sample range")
    t = np.arange(n0, n1 + 1, dtype=np.float64) / fs
    amp = interp_amplitude_linear(track.times, track.amps, t)
    freq = interp_frequency_spline(track.times, track.freqs, t)
    idx = np.round(track.times * fs).astype(np.int64) - n0
    keep = (idx >= 0) & (idx < t.shape[0])
    if np.any(keep):
        phase = phase_by_freq_integration(freq, fs, phi0=track.phases[0],
                                          anchor_idx=idx[keep],
                                          anchor_phases=track.phases[keep])
    elif t[0] > track.times[-1]:
        phase = track.phases[-1] + TWO_PI * track.freqs[-1] * (t - track.times[-1])
    elif t[-1] < track.times[0]:
        phase = track.phases[0] - TWO_PI * track.freqs[0] * (track.times[0] - t)
    else:
        # range falls between two anchors: integrate from the left anchor's
        # sample so the trapezoid grid stays uniform, then slice
        ia = int(np.searchsorted(track.times, t[0]) - 1)
        m_a = int(np.round(track.times[ia] * fs))
        tt = np.arange(m_a, n1 + 1, dtype=np.float64) / fs
        ff = interp_frequency_spline(track.times, track.freqs, tt)
        phase = phase_by_freq_integration(ff, fs, phi0=track.phases[ia])[n0 - m_a:]
    return amp, freq, phase


def _track_phase_cubic(track: PartialTrack, n0: int, t: np.ndarray,
                       fs: float) -> np.ndarray:
    phase = np.empty(t.shape[0], dtype=np.float64)
    times, freqs, phases = track.times, track.freqs, track.phases
    if times.shape[0] == 1:
        return phases[0] + TWO_PI * freqs[0] * (t - times[0])
    anchor_samp = np.round(times * fs).astype(np.int64) - n0
    # before the first / after the last anchor: constant-frequency advance
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
        phase[ia:stop] = phase_cubic_mq(times[j + 1] - times[j], phases[j],
                                        freqs[j], phases[j + 1], freqs[j + 1], tau)
    return phase


def synthesize_tracks(tracks, n_samples: int, fs: float,
                      phase_mode: str = "freq_integration") -> np.ndarray:
    """Additive resynthesis of partial tracks.

    phase_mode selects how phase evolves between anchors:
      - "freq_integration": integrate spline-interpolated frequency,
        reconciling at anchor phases (adaptive-model convention)
      - "cubic": per-span cubic phase from boundary (phase, frequency)
        pairs (peak-tracking convention)
    Amplitudes are always linearly interpolated.  A track whose boundary
    anchor has zero amplitude (a birth/death ramp) stops there; a track
    ending with nonzero amplitude is held to the signal edge so the
    samples outside the frame-center span are still covered.
    """
    if phase_mode not in ("freq_integration", "cubic"):
        raise UsageError(f"unknown phase mode {phase_mode!r}")
    out = np.zeros(int(n_samples), dtype=np.float64)
    for track in tracks:
        n0 = int(np.round(track.times[0] * fs))
        n1 = int(np.round(track.times[-1] * fs))
        if track.amps[0] > 0:
            n0 = min(n0, 0)
        if track.amps[-1] > 0:
            n1 = max(n1, int(n_samples) - 1)
        lo = max(n0, 0)
        hi = min(n1, n_samples - 1)
        if hi < lo:
            continue
        if phase_mode == "freq_integration":
            amp, _, phase = sample_track(track, fs, n0, n1)
        else:
            t = np.arange(n0, n1 + 1, dtype=np.float64) / fs
            amp = interp_amplitude_linear(track.times, track.amps, t)
            phase = _track_phase_cubic(track, n0, t, fs)
        sl = slice(lo - n0, hi - n0 + 1)
        _kernels.accumulate_cosine(out, lo, amp[sl], phase[sl])
    return out
