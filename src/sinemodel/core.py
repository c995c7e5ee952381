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

SYNTH_CHUNK = 1 << 13  # track samples per pass of the cubic-phase renderer


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


def hop_samples(hop_ms: float, fs: float) -> int:
    """A frame hop of hop_ms milliseconds in samples, at least one."""
    return max(1, int(round(hop_ms * fs / 1000.0)))


def _as_samples(x) -> np.ndarray:
    if isinstance(x, SampledSignal):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _unit_spread(v: np.ndarray) -> tuple[float, int]:
    """(d, k) with population std(v) = d * 2**k: the std of v rescaled by a
    power of two (exact) to unit peak, so its squares cannot underflow.
    d is exactly 0 when v is constant."""
    if np.ptp(v) == 0.0:
        return 0.0, 0
    k = int(np.frexp(np.max(np.abs(v)))[1])
    return float(np.std(np.ldexp(v, -k))), k


def srer(reference, estimate) -> float:
    """Signal-to-reconstruction-error ratio in dB.

    20*log10(std(x) / std(x - s)) with the population std (mean removed).
    A zero-error reconstruction (x - s constant) reports the finite sentinel
    SRER_MAX_DB; a constant reference with a non-constant error reports
    -SRER_MAX_DB.
    """
    x = _as_samples(reference)
    s = _as_samples(estimate)
    if x.shape != s.shape:
        raise UsageError(f"length mismatch: reference {x.shape} vs estimate {s.shape}")
    if x.size == 0:
        raise UsageError("empty signals")
    num, k_num = _unit_spread(x)
    den, k_den = _unit_spread(x - s)
    if den == 0.0:
        return SRER_MAX_DB
    if num == 0.0:
        return -SRER_MAX_DB
    return float(20.0 * (np.log10(num / den) + (k_num - k_den) * np.log10(2.0)))


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

    With anchors (sample indices in non-decreasing order), the integrated
    phase is pinned to each anchor phase modulo 2*pi; every span's residual
    is spread linearly across it so the curve stays continuous.
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
    if np.any(np.diff(idx) < 0):
        raise UsageError("anchor indices must be non-decreasing")
    phase += tgt[0] - phase[idx[0]]
    # span j's residual r[j] ramps in over samples idx[j]+1..idx[j+1] and
    # holds after them; ramp_base[j] sums the residuals of the earlier spans
    r = np.append(wrap_phase(np.diff(tgt) - np.diff(phase[idx])), 0.0)
    span = np.append(np.diff(idx), 1)
    ramp_base = np.concatenate(([0.0], np.cumsum(r[:-1])))
    s = np.arange(idx[0] + 1, phase.shape[0])
    j = np.searchsorted(idx, s) - 1  # last anchor strictly before s
    phase[idx[0] + 1:] += ramp_base[j] + r[j] * ((s - idx[j]) / span[j])
    return phase


def phase_cubic_mq(dt: float, phi1: float, f1: float, phi2: float, f2: float,
                   tau: np.ndarray) -> np.ndarray:
    """Cubic phase between two anchors with minimal-|M| unwrapping.

    dt is the anchor spacing in seconds; tau holds evaluation offsets in
    [0, dt].  Endpoint phases are met modulo 2*pi and endpoint frequencies
    exactly.  The arguments broadcast, so one call can evaluate many spans.
    """
    w1, a, b = _cubic_coeffs(dt, phi1, f1, phi2, f2)
    tau = np.asarray(tau, dtype=np.float64)
    return phi1 + w1 * tau + a * tau**2 + b * tau**3


def _cubic_coeffs(dt, phi1, f1, phi2, f2):
    """Per-span (w1, a, b) of phase_cubic_mq's phi1 + w1*tau + a*tau**2 + b*tau**3."""
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt <= 0):
        raise UsageError(f"anchor spacing must be positive, got {np.min(dt)}")
    w1 = TWO_PI * f1
    w2 = TWO_PI * f2
    m = np.round(((phi1 + w1 * dt - phi2) + (w2 - w1) * dt / 2.0) / TWO_PI)
    d = phi2 - phi1 - w1 * dt + TWO_PI * m
    a = 3.0 / dt**2 * d - (w2 - w1) / dt
    b = -2.0 / dt**3 * d + (w2 - w1) / dt**2
    return w1, a, b


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
    A sample's amplitude and frequency do not depend on the requested
    range; its phase does only in the last bits, through the point the
    frequency integral starts from.
    """
    if n1 < n0:
        raise UsageError("empty sample range")
    anchors = np.round(track.times * fs).astype(np.int64)
    lo = min(n0, int(anchors[0]))
    hi = max(n1, int(anchors[-1]))
    t = np.arange(lo, hi + 1, dtype=np.float64) / fs
    freq = interp_frequency_spline(track.times, track.freqs, t)
    phase = phase_by_freq_integration(freq, fs, phi0=track.phases[0],
                                      anchor_idx=anchors - lo,
                                      anchor_phases=track.phases)
    sl = slice(n0 - lo, n1 - lo + 1)
    amp = interp_amplitude_linear(track.times, track.amps, t[sl])
    return amp, freq[sl], phase[sl]


def render_spans(tracks, n_samples: int, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Per track, the samples lo..hi that synthesis renders it over (none
    when hi = lo - 1): a zero-amplitude end anchor stops the track at that
    anchor's sample, a nonzero one holds it to the signal edge."""
    ends = np.array([(tr.times[0], tr.times[-1], tr.amps[0], tr.amps[-1])
                     for tr in tracks]).reshape(-1, 4)
    at = np.round(ends[:, :2] * fs).astype(np.int64)
    lo = np.where(ends[:, 2] == 0, np.maximum(at[:, 0], 0), 0)
    hi = np.where(ends[:, 3] == 0, np.minimum(at[:, 1], n_samples - 1), n_samples - 1)
    return lo, np.maximum(hi, lo - 1)


def _first_sample_at(times: np.ndarray, fs: float, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """Per time, the first sample s in lo..hi whose time s / fs is at or
    after it (hi + 1 when none is)."""
    s = np.clip(np.ceil(times * fs), lo, hi + 1)
    while True:
        down = (s > lo) & ((s - 1.0) / fs >= times)
        up = (s <= hi) & (s / fs < times)
        if not (down.any() or up.any()):
            return s.astype(np.int64)
        s += up.astype(np.float64) - down


def _run_rows(run_end: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Row of each position c0..c1-1 of a stream in which row r fills the
    positions before run_end[r] that earlier rows leave."""
    r0, r1 = np.searchsorted(run_end, [c0, c1 - 1], side="right")
    counts = np.diff(np.clip(run_end[r0:r1 + 1], c0, c1), prepend=c0)
    return np.repeat(np.arange(r0, r1 + 1), counts)


def _cubic_track_samples(tracks, n_samples: int, fs: float):
    """Yield (sample index, amplitude, phase) arrays of the cubic-phase render
    of every track, track-major and then by sample, in chunks of at most
    SYNTH_CHUNK samples.

    The values are those of a track-by-track render: amplitude is np.interp
    of the anchors; phase is the cubic of the span whose first anchor sample
    is the last one at or before the sample (the last span also covers its
    end sample).  Before the first and after the last anchor sample
    (everywhere, for a lone anchor) phase advances at the endpoint frequency.
    Tracks are taken in groups of about SYNTH_CHUNK samples, so no array
    grows with the input beyond the longest track's anchors.
    """
    if not tracks:
        return
    lo, hi = render_spans(tracks, n_samples, fs)
    # a group is the tracks whose samples start in one SYNTH_CHUNK of the stream
    group = (np.cumsum(hi - lo + 1) - (hi - lo + 1)) // SYNTH_CHUNK
    bounds = np.flatnonzero(np.diff(group)) + 1
    for g0, g1 in zip([0, *bounds.tolist()], [*bounds.tolist(), len(tracks)]):
        yield from _cubic_group_samples(tracks[g0:g1], lo[g0:g1], hi[g0:g1], fs)


def _cubic_group_samples(tracks, lo: np.ndarray, hi: np.ndarray, fs: float):
    """_cubic_track_samples of tracks rendered over samples lo..hi."""
    sizes = np.array([len(tr) for tr in tracks], dtype=np.int64)
    times = np.concatenate([tr.times for tr in tracks])
    amps = np.concatenate([tr.amps for tr in tracks])
    freqs = np.concatenate([tr.freqs for tr in tracks])
    phases = np.concatenate([tr.phases for tr in tracks])
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    track_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    # A table of one row per anchor, after one "before the first anchor" row
    # per track.  A row gives phase phi + w*tau + a*tau**2 + b*tau**3 and
    # amplitude slope*tau + y at tau = t - t_ref.
    rows = np.arange(times.shape[0]) + track_of + 1
    pre = first + np.arange(sizes.shape[0])
    spans = np.flatnonzero(track_of[1:] == track_of[:-1])  # anchors a span starts at
    n_rows = rows.shape[0] + pre.shape[0]
    t_ref, phi, w, y = (np.empty(n_rows) for _ in range(4))
    a, b, slope = (np.zeros(n_rows) for _ in range(3))
    for col, values in ((t_ref, times), (phi, phases), (w, TWO_PI * freqs), (y, amps)):
        col[rows] = values
        col[pre] = values[first]
    _, a[rows[spans]], b[rows[spans]] = _cubic_coeffs(
        times[spans + 1] - times[spans], phases[spans], freqs[spans],
        phases[spans + 1], freqs[spans + 1])
    slope[rows[spans]] = ((amps[spans + 1] - amps[spans])
                          / (times[spans + 1] - times[spans]))
    # A track's rows take over one after another: the pre row at lo, then
    # each anchor's row, for phase at the anchor sample (one later for a
    # track's last anchor, so the last span keeps its end sample) and for
    # amplitude at the first sample at or after the anchor time.  The rows'
    # runs of samples, in table order, make one stream of every track's
    # samples.
    at_lo, at_hi = lo[track_of], hi[track_of]
    phase_at = np.round(times * fs).astype(np.int64)
    phase_at[last] += 1
    phase_start, amp_start = np.empty(n_rows, np.int64), np.empty(n_rows, np.int64)
    phase_start[pre] = amp_start[pre] = lo
    phase_start[rows] = np.clip(phase_at, at_lo, at_hi + 1)
    amp_start[rows] = _first_sample_at(times, fs, at_lo, at_hi)

    def run_end(start):
        stop = np.append(start[1:], 0)
        stop[rows[last]] = hi + 1
        return np.cumsum(stop - start)

    phase_end, amp_end = run_end(phase_start), run_end(amp_start)
    offset = phase_start - np.append(0, phase_end[:-1])  # sample minus position
    for c0 in range(0, int(phase_end[-1]), SYNTH_CHUNK):
        c1 = min(c0 + SYNTH_CHUNK, int(phase_end[-1]))
        r = _run_rows(phase_end, c0, c1)
        s = np.arange(c0, c1) + offset[r]
        t = s / fs
        tau = t - t_ref[r]
        phase = phi[r] + w[r] * tau + a[r] * tau**2 + b[r] * tau**3
        r = _run_rows(amp_end, c0, c1)
        yield s, slope[r] * (t - t_ref[r]) + y[r], phase


def synthesize_tracks(tracks, n_samples: int, fs: float,
                      phase_mode: str = "freq_integration") -> np.ndarray:
    """Additive resynthesis of partial tracks.

    phase_mode selects how phase evolves between anchors:
      - "freq_integration": integrate spline-interpolated frequency,
        reconciling at anchor phases (adaptive-model convention)
      - "cubic": per-span cubic phase from boundary (phase, frequency)
        pairs (peak-tracking convention)
    Amplitudes are always linearly interpolated.  Each track covers its
    render_spans range: a track whose boundary anchor has zero amplitude (a
    birth/death ramp) stops there; a track ending with nonzero amplitude is
    held to the signal edge so the samples outside the frame-center span
    are still covered.
    """
    if phase_mode not in ("freq_integration", "cubic"):
        raise UsageError(f"unknown phase mode {phase_mode!r}")
    n_samples = int(n_samples)
    out = np.zeros(n_samples, dtype=np.float64)
    tracks = list(tracks)
    if phase_mode == "cubic":
        for s, amp, phase in _cubic_track_samples(tracks, n_samples, fs):
            # unbuffered and in order, so each sample sums its tracks in track order
            np.add.at(out, s, amp * np.cos(phase))
        return out
    starts, ends = render_spans(tracks, n_samples, fs)
    for track, lo, hi in zip(tracks, starts.tolist(), ends.tolist()):
        if hi >= lo:
            amp, _, phase = sample_track(track, fs, lo, hi)
            _kernels.accumulate_cosine(out, lo, amp, phase)
    return out
