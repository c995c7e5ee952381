"""Synthetic test signals with exact ground-truth parameter tracks.

Three families:
  - a stationary tone followed by an exponentially enveloped linear chirp
    (phase-continuous at the junction)
  - a quasi-harmonic AM-FM sum with seeded random amplitude offsets
  - sums of exponentially damped sinusoids
All ground truth is returned in closed form (per-sample track anchors or
exact damped-sinusoid parameter sets), never re-estimated from the audio.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, PartialTrack, SampledSignal
from .edsm import EDSMFrames
from .errors import UsageError


def _check_positive(**values) -> None:
    """UsageError for the first given rate or duration not positive and finite."""
    for name, v in values.items():
        if not 0 < v < np.inf:
            raise UsageError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class ChirpSpec:
    """Stationary tone plus exponentially enveloped linear chirp."""

    fs: float = 16000.0
    stationary_freq: float = 100.0
    stationary_duration: float = 1.0
    chirp_f_end: float = 1000.0
    chirp_duration: float = 1.0
    damping: float = -2.0   # envelope exp(-damping * t): negative grows, positive decays

    def __post_init__(self):
        _check_positive(fs=self.fs, stationary_duration=self.stationary_duration,
                        chirp_duration=self.chirp_duration)
        for name in ("stationary_freq", "chirp_f_end"):
            f = getattr(self, name)
            if not 0 < f < self.fs / 2:
                raise UsageError(f"{name} {f} outside (0, fs/2)")


@dataclass(frozen=True)
class AMFMSpec:
    """Sum of K partials with amplitudes 1/2 + r_k/k and sinusoidal FM.

    Partial k has phase 2*pi*k*f0*t + k*rho*cos(2*pi*f_c*t), hence
    instantaneous frequency k*f0 - k*rho*f_c*sin(2*pi*f_c*t).
    """

    n_partials: int = 10
    f0: float = 150.0
    f_c: float = 300.0
    rho: float = 0.01
    duration: float = 1.0
    fs: float = 16000.0
    seed: int = 0

    def __post_init__(self):
        _check_positive(fs=self.fs, duration=self.duration)
        if self.n_partials < 1:
            raise UsageError("need at least one partial")
        if self.n_partials * self.f0 >= self.fs / 2:
            raise UsageError("highest partial must stay below Nyquist")


@dataclass(frozen=True)
class DampedSumSpec:
    """Sum over components (a_k, d_k, f_k, phi_k) of
    a_k * exp(-d_k * t) * cos(2*pi*f_k*t + phi_k); d_k is per second,
    positive d_k decays."""

    components: tuple  # of (a, d_per_second, f_hz, phi_rad)
    duration: float = 0.5
    fs: float = 16000.0

    def __post_init__(self):
        _check_positive(fs=self.fs, duration=self.duration)
        if len(self.components) == 0:
            raise UsageError("need at least one component")
        for a, d, f, phi in self.components:
            if a <= 0:
                raise UsageError(f"amplitude must be > 0, got {a}")
            if not (0 < f < self.fs / 2):
                raise UsageError(f"frequency {f} outside (0, fs/2)")


def gen_stationary_plus_chirp(spec: ChirpSpec = ChirpSpec()) -> tuple[SampledSignal, PartialTrack]:
    """Generate the two-part signal and its exact single-partial track.

    Part one: unit-amplitude cosine at the stationary frequency.  Part two:
    linear chirp from that frequency to chirp_f_end under the exponential
    envelope, with amplitude and phase both continuous at the junction.
    Track anchors are returned at every sample.
    """
    fs = spec.fs
    n1 = int(round(spec.stationary_duration * fs))
    n2 = int(round(spec.chirp_duration * fs))
    t1 = np.arange(n1) / fs
    tau = np.arange(n2) / fs
    f_start = spec.stationary_freq
    slope = (spec.chirp_f_end - f_start) / spec.chirp_duration
    d = spec.damping

    amp = np.concatenate([np.ones(n1), np.exp(-d * tau)])
    freq = np.concatenate([np.full(n1, f_start), f_start + slope * tau])
    phase_c = TWO_PI * f_start * spec.stationary_duration
    phase = np.concatenate([TWO_PI * f_start * t1,
                            phase_c + TWO_PI * (f_start * tau + 0.5 * slope * tau**2)])
    samples = amp * np.cos(phase)
    times = np.arange(n1 + n2) / fs
    track = PartialTrack(times=times, amps=amp, freqs=freq, phases=phase)
    return SampledSignal(samples=samples, fs=fs), track


def gen_amfm(spec: AMFMSpec = AMFMSpec()) -> tuple[SampledSignal, list[PartialTrack]]:
    """Generate the AM-FM sum and one exact per-sample track per partial."""
    fs = spec.fs
    n = int(round(spec.duration * fs))
    t = np.arange(n) / fs
    rng = np.random.default_rng(spec.seed)
    r = rng.uniform(0.0, 1.0, spec.n_partials)
    samples = np.zeros(n)
    tracks: list[PartialTrack] = []
    carrier = np.cos(TWO_PI * spec.f_c * t)
    mod = np.sin(TWO_PI * spec.f_c * t)
    for k in range(1, spec.n_partials + 1):
        a_k = 0.5 + r[k - 1] / k
        phase = TWO_PI * k * spec.f0 * t + k * spec.rho * carrier
        freq = k * spec.f0 - k * spec.rho * spec.f_c * mod
        samples += a_k * np.cos(phase)
        tracks.append(PartialTrack(times=t, amps=np.full(n, a_k),
                                   freqs=freq, phases=phase))
    return SampledSignal(samples=samples, fs=fs), tracks


def default_damped_spec(seed: int = 0, fs: float = 16000.0,
                        duration: float = 1.0) -> DampedSumSpec:
    """Quasi-harmonic decaying stack: six partials near k*180 Hz with seeded
    detunes and phases, amplitude 0.4/k, envelope exp(-4t)."""
    rng = np.random.default_rng(seed)
    comps = tuple((0.4 / k,
                   4.0,
                   180.0 * k + float(rng.uniform(-3.0, 3.0)),
                   float(rng.uniform(-np.pi, np.pi)))
                  for k in range(1, 7))
    return DampedSumSpec(components=comps, duration=duration, fs=fs)


def gen_damped_sum(spec: DampedSumSpec) -> tuple[SampledSignal, EDSMFrames]:
    """Generate a damped-sinusoid sum plus the exact component set, as one
    edsm frame over the whole signal with the spec's components in order.

    Ground-truth damping is converted to the per-sample pole convention:
    delta = -d/fs (the envelope exp(-d*t) equals exp(delta*n) at t = n/fs).
    """
    fs = spec.fs
    n = int(round(spec.duration * fs))
    t = np.arange(n) / fs
    samples = np.zeros(n)
    rows = []
    for a, d, f, phi in spec.components:
        samples += a * np.exp(-d * t) * np.cos(TWO_PI * f * t + phi)
        rows.append((float(f), float(a), float(phi), float(-d / fs)))
    truth = EDSMFrames.from_frames([(0, n, 2 * len(rows), rows)])
    return SampledSignal(samples=samples, fs=fs), truth
