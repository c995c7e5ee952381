"""Benchmark harness: SRER-vs-window sweeps and multi-model comparisons.

Window sizes in a sweep are expressed as multiples of the signal's minimum
period T_min (the period of its lowest-frequency component) and converted to
odd sample counts, rounding up so a multiple of exactly 2 still clears the
adaptive model's two-period window guard.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import PartialTrack, SampledSignal, check_count, srer, synthesize_tracks
from .eaqhm import EaQHMConfig, adapt, init_harmonic
from .edsm import (EDSMConfig, EDSMFrames, edsm_analyze, edsm_synthesize,
                   full_band_orders)
from .errors import IllConditionedError, SineModelError, UsageError
from .generators import AMFMSpec, ChirpSpec, gen_amfm, gen_stationary_plus_chirp
from .pitch import F0Track, average_pitch_period, estimate_f0
from .sm import SMConfig, sm_analyze_peaks, sm_synthesize

MODELS = ("sm", "edsm", "eaqhm")
CELL_STATUSES = ("ok", "ill_conditioned", "failed")
PITCH_BAND_HZ = (70.0, 400.0)  # f0 search band of comparisons, analyses and sweeps


def _check_models(models: Sequence[str]) -> None:
    models = list(models)
    bad = [m for m in models if m not in MODELS]
    if bad:
        raise UsageError(f"unknown model(s): {', '.join(bad)}")
    repeated = sorted({m for m in models if models.count(m) > 1})
    if repeated:
        raise UsageError(f"model(s) named more than once: {', '.join(repeated)}")


def _track_param_count(tracks: Sequence[PartialTrack]) -> int:
    # 3 per anchor: amplitude, frequency, phase
    return sum(3 * tr.times.shape[0] for tr in tracks)


def _frame_param_count(frames: EDSMFrames) -> int:
    # 4 per component: amplitude, damping, frequency, phase
    return 4 * frames.values.shape[1]


def _given(cfg, **fields):
    """cfg with each field that is not None applied."""
    return replace(cfg, **{k: v for k, v in fields.items() if v is not None})


def _edsm_config(signal: SampledSignal, f0track: F0Track, window, count) -> EDSMConfig:
    if window is None:
        window = max(8, int(round(0.75 * average_pitch_period(f0track) * signal.fs)))
    order = full_band_orders(f0track, signal, window) if count is None else count
    return EDSMConfig(window_samples=window, order=order)


def _io():
    from . import audio_io  # on first use: `import sinemodel` loads no file formats
    return audio_io


@dataclass(frozen=True)
class ModelEntry:
    config: Callable        # (signal, f0track, window samples, count) -> config
    sweep_fields: Callable  # t_min (s) -> fields a window sweep sets on config
    analyze: Callable       # (signal, f0track, cfg) -> result
    resynthesize: Callable  # (result, n_samples, fs) -> samples
    params: Callable        # result -> synthesis parameter count
    dump: Callable          # (path, result, fs): the analyze parameter dump
    needs_f0: bool = True
    window_floor: Callable = int  # analyze --window in samples -> the window used


# How the harness and `sinemodel analyze` run each model.  config(signal,
# f0track, None, None) is the comparison protocol: the SMConfig and EaQHMConfig
# defaults (sm: a 30 ms Hann window, 1 ms hop, the window's FFT size and up to
# 100 peaks; eaqhm: 3 local pitch periods, Blackman initialization and Hamming
# adaptation, at most 10 adaptations, full-band harmonics) and, for edsm,
# non-overlapping rectangular windows of 0.75 average pitch periods with
# full-band order fs/(2 f0_local).  A window in samples or an int count
# replaces the protocol's; None keeps it.  Sweeps use Hamming windows, the edsm
# order as given (no rank-based trimming) and the minimum period as the eaqhm
# conditioning guard.  Every stage is looked up in this module (sm's in the sm
# module) at call time, so it can be rebound to trace a run.
MODEL_TABLE = {
    "sm": ModelEntry(
        needs_f0=False,
        config=lambda sig, f0, w, k: _given(SMConfig(), window_samples=w, max_peaks=k),
        sweep_fields=lambda t_min: {"window_kind": "hamming"},
        analyze=lambda sig, f0, cfg: sm_analyze_peaks(sig, cfg),
        resynthesize=lambda r, n, fs: sm_synthesize(r.tracks, n, fs),
        params=lambda r: _track_param_count(r.tracks),
        dump=lambda path, r, fs: _io().write_sm_json(path, r.tracks, r.frame_times,
                                                     r.peaks, fs)),
    "edsm": ModelEntry(
        config=_edsm_config,
        sweep_fields=lambda t_min: {"rank_rtol": 0.0},
        window_floor=lambda w: max(8, w),
        analyze=lambda sig, f0, cfg: edsm_analyze(sig, cfg),
        resynthesize=lambda r, n, fs: edsm_synthesize(r, n, fs),
        params=_frame_param_count,
        dump=lambda path, r, fs: _io().write_frames_json(path, r, fs)),
    "eaqhm": ModelEntry(
        config=lambda sig, f0, w, k: _given(EaQHMConfig(), window_samples=w, max_partials=k),
        sweep_fields=lambda t_min: {"init_window_kind": "hamming", "f_guard_hz": 1.0 / t_min},
        window_floor=lambda w: max(9, w | 1),
        analyze=lambda sig, f0, cfg: adapt(sig, init_harmonic(sig, f0, cfg), f0, cfg),
        resynthesize=lambda r, n, fs: synthesize_tracks(r.tracks, n, fs),
        params=lambda r: _track_param_count(r.tracks),
        dump=lambda path, r, fs: _io().write_eaqhm_json(path, r.tracks, r.srer_history,
                                                        r.iteration, fs)),
}


def run_model(model: str, signal: SampledSignal, f0track: F0Track, cfg):
    """Analyze `signal` with one model under `cfg` (its SMConfig, EDSMConfig
    or EaQHMConfig) and resynthesize it.

    Returns (srer_db, result, resynthesis, param_count); result is an
    SMAnalysis (frame times, peaks, tracks), the edsm EDSMFrames record or the
    eaqhm AdaptationState.  f0track is used by eaqhm only.
    """
    entry = MODEL_TABLE[model]
    result = entry.analyze(signal, f0track, cfg)
    y = entry.resynthesize(result, signal.samples.shape[0], signal.fs)
    return srer(signal.samples, y), result, y, entry.params(result)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    source: str                       # "chirp", "amfm", or a WAV path
    models: tuple[str, ...] = MODELS
    multiples: tuple[float, ...] = tuple(np.arange(1, 11) * 0.5)
    t_min_s: float = None             # inferred for the named generators
    partials: dict = field(default_factory=dict)  # per-model counts; None = default
    seed: int = 0

    def __post_init__(self):
        if self.t_min_s is not None and not 0 < self.t_min_s < np.inf:
            raise UsageError(f"t_min_s must be positive and finite, got {self.t_min_s}")
        mult = tuple(float(m) for m in self.multiples)
        if not (mult and 0 < mult[0] and mult[-1] < np.inf
                and all(a < b for a, b in zip(mult, mult[1:]))):
            raise UsageError("multiples must be positive, finite and strictly ascending")
        object.__setattr__(self, "multiples", mult)
        _check_models(self.models)
        _check_models(self.partials)
        for model, count in self.partials.items():
            if count is not None:
                check_count(f"{model} partial count", count, 1)


@dataclass(frozen=True)
class SweepCell:
    model: str
    multiple: float
    srer_db: float          # None when the cell did not produce a result
    status: str
    error: str = None       # "Type: message" of the error a cell that is not "ok" raised

    def __post_init__(self):
        if self.status not in CELL_STATUSES:
            raise UsageError(f"invalid cell status {self.status!r}")


@dataclass(frozen=True)
class SRERCurve:
    rows: tuple[SweepCell, ...]

    def cell(self, model: str, multiple: float) -> SweepCell:
        for row in self.rows:
            if row.model == model and math.isclose(row.multiple, multiple):
                return row
        raise KeyError((model, multiple))


def parse_multiples(text: str) -> tuple[float, ...]:
    """Either "start:step:stop" (inclusive) or a comma-separated list."""
    try:
        if ":" in text:
            start_s, step_s, stop_s = text.split(":")
            start, step, stop = float(start_s), float(step_s), float(stop_s)
            if step <= 0:
                raise ValueError("step must be positive")
            return tuple(np.arange(start, stop + step / 2, step).tolist())
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse window multiples {text!r}: {exc}") from exc


def sweep_window_samples(multiple: float, t_min_s: float, fs: float) -> int:
    """Odd sample count covering at least `multiple` minimum periods."""
    return 2 * math.ceil(multiple * t_min_s * fs / 2.0) + 1


_GENERATOR_DEFAULTS = {
    # t_min (s), pitch search band (Hz), per-model partial counts
    "chirp": (1.0 / 100.0, (80.0, 1050.0), {"sm": 1, "edsm": 1, "eaqhm": 1}),
    "amfm": (1.0 / 150.0, PITCH_BAND_HZ, {"sm": 10}),
}


def _resolve_source(spec: SweepSpec):
    if spec.source in _GENERATOR_DEFAULTS:
        t_min, band, counts = _GENERATOR_DEFAULTS[spec.source]
        if spec.source == "chirp":
            signal, _ = gen_stationary_plus_chirp(ChirpSpec())
        else:
            signal, _ = gen_amfm(AMFMSpec(seed=spec.seed))
    else:
        signal = _io().read_wav(spec.source)
        t_min, band, counts = spec.t_min_s, PITCH_BAND_HZ, {}
        if t_min is None:
            raise UsageError("t_min_s is required for WAV sweep sources")
    if spec.t_min_s is not None:
        t_min = spec.t_min_s
    return signal, t_min, band, {**counts, **spec.partials}


def _sweep_cell(signal: SampledSignal, f0track: F0Track, model: str,
                multiple: float, t_min: float, counts: dict) -> SweepCell:
    entry = MODEL_TABLE[model]
    w = sweep_window_samples(multiple, t_min, signal.fs)
    srer_db, status, error = None, "ok", None
    try:
        cfg = replace(entry.config(signal, f0track, w, counts.get(model)),
                      **entry.sweep_fields(t_min))
        srer_db = run_model(model, signal, f0track, cfg)[0]
    except SineModelError as exc:
        status = "ill_conditioned" if isinstance(exc, IllConditionedError) else "failed"
        error = _reason(exc)
    return SweepCell(model=model, multiple=multiple, srer_db=srer_db, status=status,
                     error=error)


def _reason(exc: SineModelError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_window_sweep(spec: SweepSpec) -> SRERCurve:
    """One SRER cell per (model, window multiple).

    Cells run one after another on the calling thread, in spec order
    (model-major, then multiples ascending).  A cell whose analysis raises
    a SineModelError never aborts the sweep: it carries status
    "ill_conditioned" (window below the adaptive model's conditioning
    bound) or "failed", and the error's type and message.  Any other
    exception propagates.
    """
    signal, t_min, band, counts = _resolve_source(spec)
    f0track = None
    if any(MODEL_TABLE[model].needs_f0 for model in spec.models):
        f0track = estimate_f0(signal, *band)
    rows = tuple(_sweep_cell(signal, f0track, model, multiple, t_min, counts)
                 for model in spec.models for multiple in spec.multiples)
    return SRERCurve(rows=rows)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    file_id: str
    status: str                      # "ok" or "unanalyzable"
    srer_db: dict = field(default_factory=dict)      # model -> dB
    param_counts: dict = field(default_factory=dict)  # model -> synthesis params
    wall_time_s: dict = field(default_factory=dict)   # model -> seconds
    errors: dict = field(default_factory=dict)        # model -> "Type: message" if it failed


def run_comparison(files: Sequence, models: Sequence[str] = MODELS) -> list[ComparisonRow]:
    """SRER/parameter-count/wall-time table, one row per input file.

    Every model runs under its MODEL_TABLE protocol.  When a requested model
    needs pitch, it is tracked over PITCH_BAND_HZ, and a file whose pitch
    cannot be tracked is kept in the table with status "unanalyzable"
    instead of aborting the run.
    """
    _check_models(models)
    needs_f0 = any(MODEL_TABLE[model].needs_f0 for model in models)
    rows: list[ComparisonRow] = []
    for path in files:
        file_id = str(path)
        signal = _io().read_wav(path)
        f0track = None
        try:
            if needs_f0:
                f0track = estimate_f0(signal, *PITCH_BAND_HZ)
                if not f0track.any_voiced:
                    raise UsageError("no voiced frames")
        except SineModelError:
            rows.append(ComparisonRow(file_id=file_id, status="unanalyzable"))
            continue
        row = ComparisonRow(file_id=file_id, status="ok")
        for model in models:
            t0 = time.perf_counter()
            try:
                cfg = MODEL_TABLE[model].config(signal, f0track, None, None)
                s, _, _, p = run_model(model, signal, f0track, cfg)
                dt = time.perf_counter() - t0
            except SineModelError as exc:
                s, p, dt = None, None, None
                row.errors[model] = _reason(exc)
            row.srer_db[model] = s
            row.param_counts[model] = p
            row.wall_time_s[model] = dt
        rows.append(row)
    return rows


def generate_standins(dir_path, seed: int = 0) -> list[str]:
    """Write the three local quasi-harmonic 16 kHz stand-in WAVs used when no
    comparison file list is supplied: a harmonic tone with vibrato, the
    default AM-FM sum, and a decaying damped-sinusoid stack.  Returns the
    file paths."""
    import os

    from .generators import default_damped_spec, gen_damped_sum

    def _norm(signal: SampledSignal) -> SampledSignal:
        # peak-normalize to 0.5 so 16-bit storage never clips; SRER is
        # scale-invariant so the comparison is unaffected
        peak = float(np.max(np.abs(signal.samples)))
        return SampledSignal(samples=signal.samples * (0.5 / peak), fs=signal.fs)

    vibrato, _ = gen_amfm(AMFMSpec(n_partials=8, f0=220.0, f_c=5.0, rho=0.8, seed=seed))
    amfm, _ = gen_amfm(AMFMSpec(seed=seed))
    damped, _ = gen_damped_sum(default_damped_spec(seed=seed))
    paths = []
    for name, signal in (("vibrato.wav", vibrato), ("amfm_default.wav", amfm),
                         ("damped_sum.wav", damped)):
        path = os.path.join(dir_path, name)
        _io().write_wav(path, _norm(signal))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export(data, path) -> None:
    """Write an SRERCurve or a comparison table: JSON when path ends in
    ".json", CSV otherwise.

    CSV output renders a missing SRER (ill-conditioned cell) as 0 so curve
    files plot directly; JSON keeps it as null.
    """
    audio_io = _io()
    as_json = str(path).endswith(".json")
    if isinstance(data, SRERCurve):
        if as_json:
            audio_io._dump_json(path, {
                "type": "srer_curve",
                "rows": [{"model": r.model, "multiple": r.multiple,
                          "srer_db": r.srer_db, "status": r.status, "error": r.error}
                         for r in data.rows]})
        elif not data.rows:
            raise UsageError("cannot export an empty curve as CSV")
        else:
            audio_io.write_csv(
                path, ("model", "multiple", "srer_db", "status", "error"),
                [(r.model, r.multiple, 0.0 if r.srer_db is None else r.srer_db,
                  r.status, _blank(r.error)) for r in data.rows])
        return
    if isinstance(data, (list, tuple)) and data and isinstance(data[0], ComparisonRow):
        models = sorted({m for r in data for m in r.srer_db})
        header = ["file", "status"]
        for m in models:
            header += [f"{m}_srer_db", f"{m}_params", f"{m}_time_s", f"{m}_error"]
        table = []
        for r in data:
            row = [r.file_id, r.status]
            for m in models:
                row += [_blank(r.srer_db.get(m)), _blank(r.param_counts.get(m)),
                        _blank(r.wall_time_s.get(m)), _blank(r.errors.get(m))]
            table.append(row)
        if as_json:
            audio_io._dump_json(path, {
                "type": "comparison_table",
                "rows": [{"file": r.file_id, "status": r.status,
                          "srer_db": r.srer_db, "param_counts": r.param_counts,
                          "wall_time_s": r.wall_time_s, "errors": r.errors} for r in data]})
        else:
            audio_io.write_csv(path, header, table)
        return
    raise UsageError(f"cannot export object of type {type(data).__name__}")


def _blank(value):
    return "" if value is None else value
