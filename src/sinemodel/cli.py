"""Command-line front end.

Subcommands: gen, pitch, analyze, srer, sweep, compare.
Exit codes: 0 ok, 2 usage error, 3 I/O error, 4 analysis failure.
The SINEMODEL_SEED environment variable overrides generator seeds.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile

import numpy as np

from . import audio_io
from .core import PartialTrack, SampledSignal, srer
from .errors import AnalysisError, AudioIOError, UsageError
from .generators import (AMFMSpec, ChirpSpec, default_damped_spec, gen_amfm,
                         gen_damped_sum, gen_stationary_plus_chirp)
from .harness import (MODEL_TABLE, MODELS, PITCH_BAND_HZ, SweepSpec, export,
                      generate_standins, parse_multiples, run_comparison,
                      run_model, run_window_sweep)
from .pitch import estimate_f0

_SCALE_CEILING = 0.99  # generated WAVs are rescaled to this peak to avoid clipping
# analyze flags that set the config field of their dest name
_FIELD_FLAGS = {"hop_ms": "--hop", "window_periods": "--window-periods",
                "max_adaptations": "--max-adapt"}


def _seed(args) -> int:
    env = os.environ.get("SINEMODEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"SINEMODEL_SEED must be an integer, got {env!r}") from exc
    return args.seed


def _scaled(signal: SampledSignal) -> tuple[SampledSignal, float]:
    peak = float(np.max(np.abs(signal.samples)))
    if peak <= _SCALE_CEILING or peak == 0.0:
        return signal, 1.0
    scale = _SCALE_CEILING / peak
    return SampledSignal(samples=signal.samples * scale, fs=signal.fs), scale


def _scale_track(track: PartialTrack, scale: float) -> PartialTrack:
    if scale == 1.0:
        return track
    return PartialTrack(times=track.times, amps=track.amps * scale,
                        freqs=track.freqs, phases=track.phases)


def _cmd_gen(args) -> None:
    seed = _seed(args)
    fs = float(args.fs)
    if args.signal == "chirp":
        signal, track = gen_stationary_plus_chirp(ChirpSpec(fs=fs))
        signal, scale = _scaled(signal)
        tracks = [_scale_track(track, scale)]
        truth = ("tracks", tracks)
    elif args.signal == "amfm":
        signal, tracks = gen_amfm(AMFMSpec(fs=fs, seed=seed))
        signal, scale = _scaled(signal)
        truth = ("tracks", [_scale_track(tr, scale) for tr in tracks])
    else:
        signal, frames = gen_damped_sum(default_damped_spec(seed=seed, fs=fs))
        signal, scale = _scaled(signal)
        values = frames.values.copy()
        values[1] *= scale  # the amplitude column
        truth = ("frames", dataclasses.replace(frames, values=values))
    audio_io.write_wav(args.out, signal)
    if args.truth:
        kind, data = truth
        if kind == "tracks":
            audio_io.write_tracks_json(args.truth, data, fs=fs,
                                       extra={"scale": scale})
        else:
            audio_io.write_frames_json(args.truth, data, fs=fs)
    print(f"wrote {args.out} ({signal.samples.shape[0]} samples at {fs:g} Hz, "
          f"scale {scale:.6g})")


def _cmd_pitch(args) -> None:
    signal = audio_io.read_wav(args.infile)
    track = estimate_f0(signal, f_min=args.fmin, f_max=args.fmax,
                        hop_ms=args.hop)
    audio_io.write_f0_csv(args.out, track)
    n_v = int(np.sum(track.voiced))
    print(f"wrote {args.out} ({len(track)} frames, {n_v} voiced)")


def _cmd_analyze(args) -> None:
    """One model under the comparison protocol, changed only by the flags given:
    --window and --partials set its window and count, --f0 its pitch track, and
    each other flag the config field it is named for (a usage error where the
    model has no such setting)."""
    entry = MODEL_TABLE[args.model]
    if args.f0 is not None and not entry.needs_f0:
        raise UsageError(f"--f0 does not apply to --model {args.model}")
    signal = audio_io.read_wav(args.infile)
    f0track = None
    if entry.needs_f0:
        f0track = (audio_io.read_f0_csv(args.f0) if args.f0
                   else estimate_f0(signal, *PITCH_BAND_HZ))
    if args.window is not None and not 0 < args.window < np.inf:
        raise UsageError(f"--window must be a positive finite number of ms, got {args.window}")
    window = (None if args.window is None
              else entry.window_floor(int(round(args.window * signal.fs / 1000.0))))
    cfg = entry.config(signal, f0track, window, args.partials)
    fields = {k: v for k, v in vars(args).items() if k in _FIELD_FLAGS and v is not None}
    for name in fields:
        if not hasattr(cfg, name):
            raise UsageError(f"{_FIELD_FLAGS[name]} does not apply to --model {args.model}")
    cfg = dataclasses.replace(cfg, **fields)
    srer_db, result, y, _ = run_model(args.model, signal, f0track, cfg)
    entry.dump(args.params, result, signal.fs)
    audio_io.write_wav(args.resynth, SampledSignal(samples=np.clip(y, -1.0, 1.0),
                                                   fs=signal.fs))
    print(f"model={args.model} srer_db={srer_db:.3f}")


def _cmd_srer(args) -> None:
    ref = audio_io.read_wav(args.ref)
    test = audio_io.read_wav(args.test)
    if ref.samples.shape != test.samples.shape:
        raise UsageError("reference and test signals differ in length "
                         f"({ref.samples.shape[0]} vs {test.samples.shape[0]})")
    print(f"{srer(ref.samples, test.samples):.6f}")


def _cmd_sweep(args) -> None:
    spec = SweepSpec(source=args.signal,
                     models=tuple(m.strip() for m in args.models.split(",")),
                     multiples=parse_multiples(args.multiples),
                     seed=_seed(args))
    curve = run_window_sweep(spec)
    export(curve, args.out)
    print(f"wrote {args.out} ({len(curve.rows)} cells)")


def _cmd_compare(args) -> None:
    if args.list:
        try:
            with open(args.list) as fh:
                files = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
        except OSError as exc:
            raise AudioIOError(f"cannot read file list {args.list}: {exc}") from exc
        if not files:
            raise UsageError(f"file list {args.list} names no files")
        rows = run_comparison(files)
    else:
        print("no --list given: comparing on locally generated stand-ins "
              "(the published comparison corpus is not distributable)")
        with tempfile.TemporaryDirectory(prefix="sinemodel_standins_") as tmp:
            rows = run_comparison(generate_standins(tmp, seed=_seed(args)))
    export(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinemodel",
        description="Sinusoidal analysis/resynthesis toolkit: spectral, "
                    "damped-subspace and adaptive quasi-harmonic models "
                    f"({', '.join(MODELS)}) with an SRER benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test signal (and its ground truth)")
    p.add_argument("--signal", required=True, choices=("chirp", "amfm", "damped"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=16000.0)
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--truth", help="optional ground-truth JSON path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pitch", help="estimate an f0 track")
    p.add_argument("--in", dest="infile", required=True, help="input WAV")
    p.add_argument("--fmin", type=float, default=60.0)
    p.add_argument("--fmax", type=float, default=500.0)
    p.add_argument("--hop", type=float, default=5.0, help="hop in ms")
    p.add_argument("--out", required=True, help="output CSV (time_s, f0_hz)")
    p.set_defaults(func=_cmd_pitch)

    p = sub.add_parser("analyze", help="analyze and resynthesize with one model "
                                        "under the comparison protocol")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--in", dest="infile", required=True, help="input WAV")
    p.add_argument("--f0", help="f0 CSV (estimated internally when omitted)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--window", type=float, help="window length in ms")
    g.add_argument("--window-periods", dest="window_periods", type=float,
                   help="window length in local pitch periods")
    p.add_argument("--hop", dest="hop_ms", type=float, help="hop in ms")
    p.add_argument("--partials", type=int, help="partial/peak count cap")
    p.add_argument("--max-adapt", dest="max_adaptations", type=int, help="adaptation cap")
    p.add_argument("--params", required=True, help="parameter dump JSON path")
    p.add_argument("--resynth", required=True, help="resynthesis WAV path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("srer", help="signal-to-reconstruction-error ratio in dB")
    p.add_argument("--ref", required=True, help="reference WAV")
    p.add_argument("--test", required=True, help="reconstruction WAV")
    p.set_defaults(func=_cmd_srer)

    p = sub.add_parser("sweep", help="SRER versus window size, per model")
    p.add_argument("--signal", required=True, choices=("chirp", "amfm"))
    p.add_argument("--models", default=",".join(MODELS),
                   help=f"comma-separated subset of {','.join(MODELS)}")
    p.add_argument("--multiples", default="0.5:0.5:5",
                   help="window multiples of the minimum period, "
                        "start:step:stop or a comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="curve CSV (or .json) path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "compare",
        help="per-file SRER/parameter/time table across all three models")
    p.add_argument("--list",
                   help="text file with one WAV path per line; when omitted, "
                        "three locally generated quasi-harmonic stand-ins are "
                        "used (the published comparison corpus is not "
                        "distributable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="table CSV (or .json) path")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AudioIOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
