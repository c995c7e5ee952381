"""Shared signal types, analysis windows, SRER and partial-track synthesis.

Conventions used throughout the toolkit:
  - signals are 1-D float64 arrays in nominal [-1, 1), fs in Hz
  - track anchors are (time s, linear amplitude, frequency Hz, phase rad)
  - windows are symmetric (L-1 denominator), peak 1 at the center sample
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._lapack import dgtsv
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
        if not 0 < self.fs < np.inf:
            raise UsageError(f"sample rate must be positive and finite, got {self.fs}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", float(self.fs))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.fs


@dataclass(frozen=True, slots=True)
class PartialTrack:
    """One partial: its anchor arrays, spanning times[0] to times[-1]."""

    times: np.ndarray   # s, strictly increasing
    amps: np.ndarray    # linear, >= 0
    freqs: np.ndarray   # Hz, > 0
    phases: np.ndarray  # rad

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        amps = np.asarray(self.amps, dtype=np.float64)
        freqs = np.asarray(self.freqs, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        check_track_columns(times, amps, freqs, phases)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_columns(cls, times: np.ndarray, amps: np.ndarray, freqs: np.ndarray,
                     phases: np.ndarray, offsets: np.ndarray) -> list[PartialTrack]:
        """The tracks whose anchors are offsets[k]:offsets[k + 1] of four
        float64 columns, as views into them, checked once for all tracks."""
        check_track_columns(times, amps, freqs, phases, offsets)
        tracks = []
        new, put = object.__new__, object.__setattr__
        for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
            track = new(cls)
            put(track, "times", times[a:b])
            put(track, "amps", amps[a:b])
            put(track, "freqs", freqs[a:b])
            put(track, "phases", phases[a:b])
            tracks.append(track)
        return tracks

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """Per-frame rows of a run of frames, kept as columns.

    Column c of `values` is one row: its frequency (Hz), linear amplitude and
    phase (rad), then one more value the kind of record names.  Frame i owns
    columns offsets[i]:offsets[i + 1].  len() counts frames, and record[i] is
    frame i's rows as a (k, 4) view.
    """

    offsets: np.ndarray  # n_frames + 1 ints
    values: np.ndarray   # 4 x n_rows

    freq_hz = property(lambda self: self.values[0])
    amp = property(lambda self: self.values[1])
    phase = property(lambda self: self.values[2])

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.values[:, self.offsets[i]:self.offsets[i + 1]].T


def check_track_columns(times: np.ndarray, amps: np.ndarray, freqs: np.ndarray,
                        phases: np.ndarray, offsets: np.ndarray = None) -> None:
    """Raise PartialTrack's UsageError unless the float64 anchor columns hold
    valid tracks; track k is offsets[k]:offsets[k + 1] of them, and None
    makes every anchor one track."""
    n = times.shape[0]
    if n == 0 if offsets is None else not (offsets[1:] > offsets[:-1]).all():
        raise UsageError("track needs at least one anchor")
    if not (amps.shape[0] == freqs.shape[0] == phases.shape[0] == n):
        raise UsageError("track anchor arrays must have equal length")
    if not (np.isfinite(times).all() and np.isfinite(amps).all()
            and np.isfinite(freqs).all() and np.isfinite(phases).all()):
        raise UsageError("track anchors must be finite")
    rising = times[1:] > times[:-1]
    if offsets is not None:
        rising[offsets[1:-1] - 1] = True  # a track may start before the last one ends
    if not rising.all():
        raise UsageError("anchor times must be strictly increasing")
    if not (amps >= 0).all():
        raise UsageError("anchor amplitudes must be >= 0")
    if not (freqs > 0).all():
        raise UsageError("anchor frequencies must be > 0")


# ---------------------------------------------------------------------------
# windows and SRER
# ---------------------------------------------------------------------------

def check_window_kind(kind: str) -> None:
    """UsageError unless kind names one of WINDOW_KINDS (in any case)."""
    if not isinstance(kind, str) or kind.lower() not in WINDOW_KINDS:
        raise UsageError(f"unknown window kind {kind!r}, expected one of {WINDOW_KINDS}")


def make_window(kind: str, length: int) -> np.ndarray:
    """Symmetric float64 analysis window of the given kind and length."""
    if length < 1:
        raise UsageError(f"window length must be >= 1, got {length}")
    check_window_kind(kind)
    window = dict(zip(WINDOW_KINDS, (np.hamming, np.hanning, np.blackman, np.ones)))
    return window[kind.lower()](length).astype(np.float64)


def check_hop_ms(hop_ms: float) -> None:
    """UsageError unless a frame hop of hop_ms milliseconds is positive and finite."""
    if not 0 < hop_ms < np.inf:
        raise UsageError(f"hop must be a positive finite number of ms, got {hop_ms}")


def hop_samples(hop_ms: float, fs: float) -> int:
    """A frame hop of hop_ms milliseconds in samples, at least one (check_hop_ms)."""
    check_hop_ms(hop_ms)
    return max(1, int(round(hop_ms * fs / 1000.0)))


def check_count(name: str, value, low: int) -> None:
    """UsageError unless value is an integer (Python or numpy, not bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise UsageError(f"{name} must be an integer >= {low}, got {value!r}")


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


def amp_phase(c, s):
    """Amplitude hypot(c, s) and phase atan2(-s, c) of c cos(x) + s sin(x)
    written as amp cos(x + phase)."""
    return np.hypot(c, s), np.arctan2(-s, c)


# ---------------------------------------------------------------------------
# interpolation between anchors
# ---------------------------------------------------------------------------

def interp_frequency_spline(times: np.ndarray, freqs: np.ndarray,
                            t_eval: np.ndarray) -> np.ndarray:
    """Natural cubic-spline frequency interpolation, constant beyond the span.

    The anchor slopes solve the natural spline's tridiagonal system and each
    interval is the cubic Hermite polynomial of its end values and slopes,
    both in the operation order of scipy's CubicSpline(bc_type="natural"),
    whose values these are bit for bit.
    """
    times = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    t_eval = np.asarray(t_eval, dtype=np.float64)
    n = times.shape[0]
    if n == 0:
        raise UsageError("need at least one frequency anchor")
    if freqs.shape != times.shape:
        raise UsageError("frequency anchor arrays must have equal length")
    if not (np.isfinite(times).all() and np.isfinite(freqs).all()):
        raise UsageError("frequency anchors must be finite")
    if n == 1:
        return np.full(t_eval.shape, freqs[0])
    dx = np.diff(times)
    if not (dx > 0).all():
        raise UsageError("anchor times must be strictly increasing")
    slope = np.diff(freqs) / dx
    # row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1], with
    # zero curvature (2 s[0] + s[1] = 3 slope[0], likewise at the end) at
    # both ends; diagonally dominant, so gtsv's pivots never vanish
    diag = np.empty(n)
    diag[0], diag[-1] = 2 * dx[0], 2 * dx[-1]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    rhs = np.empty(n)
    rhs[0], rhs[-1] = 3 * (freqs[1] - freqs[0]), 3 * (freqs[-1] - freqs[-2])
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    s = dgtsv(np.append(dx[1:], dx[-1]), diag, np.append(dx[0], dx[:-1]), rhs,
              overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)[3]
    # interval k: freqs[k] + s[k] z + c1[k] z**2 + c0[k] z**3, z = t - times[k]
    bend = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1 = bend / dx, (slope - s[:-1]) / dx - bend
    t = np.clip(t_eval, times[0], times[-1])
    k = np.minimum(np.searchsorted(times, t, "right") - 1, n - 2)
    z = t - times[k]
    z2 = z * z
    return ((freqs[k] + s[k] * z) + c1[k] * z2) + c0[k] * (z2 * z)


def _cubic_coeffs(dt, phi1, f1, phi2, f2):
    """Per-span (w1, a, b) of the cubic phase phi1 + w1*tau + a*tau**2 +
    b*tau**3 between two anchors dt seconds apart, with minimal-|M|
    unwrapping: it meets the endpoint phases modulo 2*pi and the endpoint
    frequencies exactly.  The arguments broadcast, one span per element."""
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

    Amplitude is linear between anchors, frequency a natural cubic spline;
    beyond the anchor span both hold their endpoint values.  Phase starts at
    the first anchor phase on the first anchor's sample: after it, phase is
    the trapezoid integral of frequency, and each span's residual against
    the next anchor phase (modulo 2*pi) is spread linearly across the span
    and held after it; before it, frequency holds, so phase falls linearly.
    Every value of a sample is the same, bit for bit, whatever range holds it.
    """
    if n1 < n0:
        raise UsageError("empty sample range")
    anchors = np.round(track.times * fs).astype(np.int64)
    lo, hi = min(n0, int(anchors[0])), max(n1, int(anchors[-1]))
    t = np.arange(lo, hi + 1, dtype=np.float64) / fs
    freq = interp_frequency_spline(track.times, track.freqs, t)
    back, idx = anchors[0] - lo, anchors - anchors[0]
    phase = np.concatenate((
        track.phases[0] - (TWO_PI * track.freqs[0] / fs) * np.arange(back, 0, -1),
        _kernels.trapezoid_phase(freq[back:], fs, track.phases[0])))
    ahead = phase[back:]
    # span j's residual r[j] ramps in over samples idx[j]+1..idx[j+1] and
    # holds after them; ramp_base[j] sums the residuals of the earlier spans
    r = np.append(wrap_phase(np.diff(track.phases) - np.diff(ahead[idx])), 0.0)
    span = np.append(np.diff(idx), 1)
    ramp_base = np.concatenate(([0.0], np.cumsum(r[:-1])))
    s = np.arange(1, ahead.shape[0])
    j = np.searchsorted(idx, s) - 1  # last anchor strictly before s
    ahead[1:] += ramp_base[j] + r[j] * ((s - idx[j]) / span[j])
    sl = slice(n0 - lo, n1 - lo + 1)
    return np.interp(t[sl], track.times, track.amps), freq[sl], phase[sl]


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
