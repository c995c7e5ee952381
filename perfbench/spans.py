"""Per-layer spans and counts, recorded from outside the package.

A traced call rebinds each traced public name, in every module that calls
it, to a wrapper that times the call and counts its work, and restores the
original names when the call ends.  Nothing in the package is edited, so an
untraced call runs the unmodified code.

Spans nest per thread: a span's self time is its duration minus the time of
the traced calls made directly inside it, so ``eaqhm.adapt.self_s`` is the
adaptation loop's own Python work with the solves, track sampling and
synthesis taken out.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from sinemodel import (_kernels, audio_io, core, eaqhm, edsm, harness, sm)
from sinemodel.errors import IllConditionedError

KERNELS = ("accumulate_cosine", "trapezoid_phase", "autocorr_norm", "hankel_build")


@dataclass
class _Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Recorder:
    """Span aggregates and counters, safe to update from worker threads."""

    def __init__(self):
        self.aggs: dict[str, _Agg] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def wrap(self, name: str, fn, observe=None):
        """`fn` timed as span `name`; `observe(recorder, args, result, exc)`
        adds the call's counts."""
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            child = [0.0]
            stack.append(child)
            exc = result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    agg = self.aggs.setdefault(name, _Agg())
                    agg.calls += 1
                    agg.total_s += dur
                    agg.self_s += dur - child[0]
                    agg.durations.append(dur)
                if observe is not None:
                    observe(self, args, result, exc)
        return traced


# -- what each traced call counts -------------------------------------------

def _obs_pitch(rec, args, f0track, exc):
    if f0track is not None:
        rec.count("pitch.frames", len(f0track))
        rec.count("pitch.voiced", int(np.count_nonzero(f0track.voiced)))


def _obs_sm_peaks(rec, args, result, exc):
    if result is not None:
        rec.count("sm.frames", len(result[1]))
        rec.count("sm.peaks", sum(len(p) for p in result[1]))


def _obs_sm_tracks(rec, args, tracks, exc):
    if tracks is not None:
        rec.count("sm.tracks", len(tracks))


def _obs_sm_synth(rec, args, result, exc):
    rec.count("sm.anchors", sum(tr.times.shape[0] for tr in args[0]))


def _obs_edsm_frames(rec, args, frames, exc):
    if frames is not None:
        rec.count("edsm.frames", len(frames))
        rec.count("edsm.empty_frames", sum(1 for fr in frames if fr.k_eff == 0))
        rec.count("edsm.components", sum(len(fr.components) for fr in frames))


def _obs_adapt(rec, args, state, exc):
    if state is not None:
        rec.count("eaqhm.passes", state.iteration)
        rec.count("eaqhm.passes_accepted", len(state.srer_history) - 1)
        rec.count("eaqhm.tracks", len(state.tracks))
        rec.count("eaqhm.anchors", sum(tr.times.shape[0] for tr in state.tracks))


def _obs_ls_solve(rec, args, result, exc):
    n, p = args[0].shape
    rec.sample("eaqhm.ls_solve.cols", p)
    # complex Gram product E^H E: n*p^2 complex multiply-adds of 8 flops each
    rec.count("eaqhm.ls_solve.gflop", 8.0 * n * p * p / 1e9)
    if isinstance(exc, IllConditionedError):
        rec.count("eaqhm.ls_solve.ill_conditioned")


def targets() -> list[tuple]:
    """(module, attribute, span name, observer) for every traced call site.

    A public function is rebound in each module that calls it, because the
    callers hold their own reference to it after `from ... import`.
    """
    out = [
        (audio_io, "read_wav", "audio_io.read_wav", None),
        (harness, "estimate_f0", "pitch.estimate_f0", _obs_pitch),
        (sm, "sm_peaks", "sm.sm_peaks", _obs_sm_peaks),
        (sm, "track_partials", "sm.track_partials", _obs_sm_tracks),
        (harness, "sm_synthesize", "sm.sm_synthesize", _obs_sm_synth),
        (harness, "edsm_analyze", "edsm.edsm_analyze", _obs_edsm_frames),
        (edsm, "esprit_poles", "edsm.esprit_poles", None),
        (edsm, "vandermonde_amplitudes", "edsm.vandermonde_amplitudes", None),
        (harness, "edsm_synthesize", "edsm.edsm_synthesize", None),
        (harness, "init_harmonic", "eaqhm.init_harmonic", None),
        (harness, "adapt", "eaqhm.adapt", _obs_adapt),
        (eaqhm, "ls_solve", "eaqhm.ls_solve", _obs_ls_solve),
    ]
    for caller in (harness, eaqhm, sm):
        out.append((caller, "synthesize_tracks", "core.synthesize_tracks", None))
    for caller in (eaqhm, core):
        out.append((caller, "sample_track", "core.sample_track", None))
    for name in KERNELS:
        out.append((_kernels, name, f"kernels.{name}", None))
    return out


class Rebound:
    """Context manager: trace every call site in `targets()` into `recorder`,
    then put every original back, even when the traced call raises."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name, observe in targets():
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(name, original, observe))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


# -- per-layer metrics ---------------------------------------------------------

# name -> (unit, better); every traced run reports all of them, with 0 for a
# layer the workload does not run
EAQHM_METRICS = {
    "eaqhm.init_harmonic.s": ("s", "lower"),
    "eaqhm.init_harmonic.self_s": ("s", "lower"),
    "eaqhm.adapt.s": ("s", "lower"),
    "eaqhm.adapt.self_s": ("s", "lower"),
    "eaqhm.passes": ("count", "lower"),
    "eaqhm.passes_accepted": ("count", "higher"),
    "eaqhm.pass_accept_frac": ("frac", "higher"),
    "eaqhm.adapt_s_per_pass": ("s", "lower"),
    "eaqhm.tracks": ("count", "lower"),
    "eaqhm.anchors": ("count", "lower"),
    "eaqhm.params": ("count", "lower"),
    "eaqhm.srer_db": ("dB", "higher"),
    "eaqhm.ls_solve.calls": ("count", "lower"),
    "eaqhm.ls_solve.s": ("s", "lower"),
    "eaqhm.ls_solve.p50_us": ("us", "lower"),
    "eaqhm.ls_solve.tail_us": ("us", "lower"),
    "eaqhm.ls_solve.tail_pct": ("%", "higher"),
    "eaqhm.ls_solve.tail_beyond": ("count", "higher"),
    "eaqhm.ls_solve.ill_conditioned": ("count", "lower"),
    "eaqhm.ls_solve.cols_p50": ("count", "lower"),
    "eaqhm.ls_solve.gflop": ("GFLOP", "lower"),
    "eaqhm.ls_solve.gflop_per_s": ("GFLOP/s", "higher"),
}

PER_LAYER = {
    "harness.run_comparison.s": ("s", "lower"),
    "harness.run_window_sweep.s": ("s", "lower"),
    "harness.sweep.cell_busy_s": ("s", "lower"),
    "harness.sweep.concurrency": ("1", "higher"),
    "harness.sweep.cells_ok": ("count", "higher"),
    "harness.sweep.cells_ill_conditioned": ("count", "lower"),
    "harness.sweep.cells_failed": ("count", "lower"),
    "process.user_s": ("s", "lower"),
    "process.sys_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "failed_frac": ("frac", "lower"),
    "audio_io.read_wav.s": ("s", "lower"),
    "pitch.estimate_f0.s": ("s", "lower"),
    "pitch.frames": ("count", "lower"),
    "pitch.voiced_frac": ("frac", "higher"),
    "sm.sm_peaks.s": ("s", "lower"),
    "sm.frames": ("count", "lower"),
    "sm.peaks": ("count", "lower"),
    "sm.track_partials.s": ("s", "lower"),
    "sm.tracks": ("count", "lower"),
    "sm.sm_synthesize.s": ("s", "lower"),
    "sm.anchors": ("count", "lower"),
    "sm.synth_us_per_anchor": ("us", "lower"),
    "sm.params": ("count", "lower"),
    "sm.srer_db": ("dB", "higher"),
    "edsm.edsm_analyze.s": ("s", "lower"),
    "edsm.edsm_analyze.self_s": ("s", "lower"),
    "edsm.frames": ("count", "lower"),
    "edsm.empty_frame_frac": ("frac", "lower"),
    "edsm.esprit_poles.calls": ("count", "lower"),
    "edsm.esprit_poles.s": ("s", "lower"),
    "edsm.esprit_poles.p50_us": ("us", "lower"),
    "edsm.vandermonde_amplitudes.calls": ("count", "lower"),
    "edsm.vandermonde_amplitudes.s": ("s", "lower"),
    "edsm.components": ("count", "lower"),
    "edsm.edsm_synthesize.s": ("s", "lower"),
    "edsm.params": ("count", "lower"),
    "edsm.srer_db": ("dB", "higher"),
    **EAQHM_METRICS,
    "core.synthesize_tracks.calls": ("count", "lower"),
    "core.synthesize_tracks.s": ("s", "lower"),
    "core.sample_track.calls": ("count", "lower"),
    "core.sample_track.s": ("s", "lower"),
    **{f"kernels.{k}.{m}": (u, "lower") for k in KERNELS
       for m, u in (("calls", "count"), ("s", "s"))},
    # the compare workload's eaqhm metrics again, from a child process whose
    # BLAS runs one thread per CPU (the benchmark itself runs one thread)
    "blas_mt.wall_s": ("s", "lower"),
    **{f"blas_mt.{k}": v for k, v in EAQHM_METRICS.items()},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(durations: list) -> tuple[float, float, int]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it:
    (percentile, value, samples beyond); zeros when there are too few."""
    n = len(durations)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            value = float(np.percentile(durations, pct))
            return pct, value, int(sum(1 for d in durations if d > value))
    return 0.0, 0.0, 0


def layer_metrics(rec: Recorder, n_calls: int) -> dict[str, float]:
    """Per-harness-call span and count metrics (all but the harness-level
    and blas_mt ones, which the runner adds)."""
    out: dict[str, float] = {}

    def agg(name):
        return rec.aggs.get(name, _Agg())

    def per_call(value):
        return value / n_calls

    for name in ("audio_io.read_wav", "pitch.estimate_f0", "sm.sm_peaks",
                 "sm.track_partials", "sm.sm_synthesize", "edsm.edsm_analyze",
                 "edsm.esprit_poles", "edsm.vandermonde_amplitudes",
                 "edsm.edsm_synthesize", "eaqhm.init_harmonic", "eaqhm.adapt",
                 "eaqhm.ls_solve", "core.synthesize_tracks", "core.sample_track",
                 *(f"kernels.{k}" for k in KERNELS)):
        a = agg(name)
        out[f"{name}.s"] = per_call(a.total_s)
        out[f"{name}.self_s"] = per_call(a.self_s)
        out[f"{name}.calls"] = per_call(a.calls)
        out[f"{name}.p50_us"] = float(np.median(a.durations)) * 1e6 if a.durations else 0.0
    c = rec.counts
    for name in ("pitch.frames", "sm.frames", "sm.peaks", "sm.tracks", "sm.anchors",
                 "edsm.frames", "edsm.components", "eaqhm.passes",
                 "eaqhm.passes_accepted", "eaqhm.tracks", "eaqhm.anchors",
                 "eaqhm.ls_solve.ill_conditioned", "eaqhm.ls_solve.gflop"):
        out[name] = per_call(c.get(name, 0))
    out["pitch.voiced_frac"] = _ratio(c.get("pitch.voiced", 0), c.get("pitch.frames", 0))
    out["sm.synth_us_per_anchor"] = _ratio(out["sm.sm_synthesize.s"] * 1e6, out["sm.anchors"])
    out["sm.params"] = 3 * out["sm.anchors"]
    out["edsm.empty_frame_frac"] = _ratio(c.get("edsm.empty_frames", 0), c.get("edsm.frames", 0))
    out["edsm.params"] = 4 * out["edsm.components"]
    out["eaqhm.params"] = 3 * out["eaqhm.anchors"]
    out["eaqhm.pass_accept_frac"] = _ratio(out["eaqhm.passes_accepted"], out["eaqhm.passes"])
    out["eaqhm.adapt_s_per_pass"] = _ratio(out["eaqhm.adapt.s"], out["eaqhm.passes"])
    pct, value, beyond = _tail(agg("eaqhm.ls_solve").durations)
    out["eaqhm.ls_solve.tail_pct"] = pct
    out["eaqhm.ls_solve.tail_us"] = value * 1e6
    out["eaqhm.ls_solve.tail_beyond"] = beyond
    cols = rec.samples.get("eaqhm.ls_solve.cols", [])
    out["eaqhm.ls_solve.cols_p50"] = float(np.median(cols)) if cols else 0.0
    out["eaqhm.ls_solve.gflop_per_s"] = _ratio(out["eaqhm.ls_solve.gflop"],
                                               out["eaqhm.ls_solve.s"])
    return {k: v for k, v in out.items() if k in PER_LAYER}
