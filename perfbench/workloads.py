"""The benchmark's workloads: inputs made from a seed, the harness call each
loop iteration makes, and the checks every call's output must pass.

Each workload is a closed loop with one caller: the next harness call starts
when the previous one has returned.  Only `sweep` runs the harness's own
worker pool.

Sizes are cut down from the paper's protocol so that a call takes seconds,
not minutes: on a 2-core machine with threaded OpenBLAS, a `compare` call on
the full 1 s stand-ins takes about 200 s, the 2 s chirp sweep about 50 s and
a 10 s `long` input about 18 s.  The cuts keep the per-frame systems the
same (window lengths and partial counts do not depend on the input length);
only the number of frames shrinks.
"""
from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sinemodel import audio_io, harness
from sinemodel.core import SampledSignal
from sinemodel.generators import (AMFMSpec, ChirpSpec, gen_amfm,
                                  gen_stationary_plus_chirp)

COMPARE_S = 0.1        # stand-ins are cut into 0.1 s crops
COMPARE_CROPS = 10     # crops per 1 s stand-in
COMPARE_SETS = 2       # crop sets per run, one per call in turn
SWEEP_HALF_S = 0.15    # stationary part and chirp part of the sweep input
SWEEP_MULTIPLES = (1.0, 2.0, 3.0, 4.0)
LONG_S = 2.0           # 20x a compare crop
LONG_SETS = 4          # AM-FM inputs per run, one per call in turn
SRER_TOL_DB = 0.01     # the tolerance ROADMAP sets for SRERs that must not change

WHY = {
    "compare": "The paper's three-model table (sm, edsm, eaqhm) on 0.1 s crops of "
               "the three stand-ins; wide eaqhm LS solves dominate, so solve flops "
               "show here, and the traced run adds a threaded-BLAS reference.",
    "sweep": "SRER-vs-window sweep over 1-4 minimum periods, all three models, on "
             "the harness thread pool; narrow eaqhm solves, so per-frame dispatch "
             "and GIL/BLAS contention show. Seed-independent input.",
    "long": "2 s AM-FM inputs (20x a compare crop) with sm and edsm only: no "
            "eaqhm, so eaqhm changes predict no change; superlinear loops and "
            "memory growth show.",
}

# SRERs (dB) of the current code on the full-size inputs: compare for every
# crop (compare/<crop>/<model>@<file>), sweep at every seed (its input ignores
# the seed), long at seed 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Op:
    """One (model, file) or (model, window multiple) result of a call."""

    key: str                 # "model@file" or "model@multiple"
    model: str
    srer_db: float | None
    status: str
    params: int | None = None   # from the comparison table; sweeps report none


@dataclass(frozen=True)
class Job:
    files: tuple = ()
    models: tuple = harness.MODELS
    spec: harness.SweepSpec | None = None
    reference: dict = field(default_factory=dict)
    expected_status: dict = field(default_factory=dict)   # key -> non-"ok" status


def _half_scale(signal: SampledSignal) -> SampledSignal:
    # peak 0.5 keeps 16-bit storage from clipping; SRER is scale-invariant
    return SampledSignal(samples=signal.samples * (0.5 / np.max(np.abs(signal.samples))),
                         fs=signal.fs)


def make_jobs(workload: str, seed: int, workdir: str, scale: float = 1.0) -> list[Job]:
    """Generate and write the workload's inputs under `workdir`: one job per
    input set, which successive calls take in turn.

    `compare` crops the seed-0 stand-ins (the `sinemodel compare` default)
    at COMPARE_SETS offsets, (seed * COMPARE_SETS + i) mod COMPARE_CROPS: an
    even and an odd crop, the two phases of the 5 Hz vibrato.
    With stand-ins generated from the seed instead, eaqhm ran 3 to 5
    adaptation passes on the AM-FM file depending on the seed, which moved a
    run's time by a third; on the fixed stand-ins every crop's SRER is pinned
    in reference.json, so compare outputs are checked at every seed.  `long`
    generates LONG_SETS AM-FM inputs from seeds seed * LONG_SETS + i: the
    seeded amplitudes change how many peaks sm tracks, and one input's time
    varied by a third from seed to seed.  `scale` shrinks every input length
    (tests use it); the references apply only at scale 1.
    """
    if scale == 1.0:
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    else:
        reference = {"compare": {}, "sweep": {}, "long": {}}
    if workload == "compare":
        standins = harness.generate_standins(workdir, seed=0)
        jobs = []
        for i in range(COMPARE_SETS):
            crop = (seed * COMPARE_SETS + i) % COMPARE_CROPS
            subdir = os.path.join(workdir, f"crop{crop}")
            os.makedirs(subdir)
            files = []
            for path in standins:
                signal = audio_io.read_wav(path)
                n = int(round(COMPARE_S * scale * signal.fs))
                files.append(os.path.join(subdir, os.path.basename(path)))
                audio_io.write_wav(files[-1], SampledSignal(
                    samples=signal.samples[crop * n:(crop + 1) * n], fs=signal.fs))
            ref = reference["compare"].get(str(crop), {})
            jobs.append(Job(files=tuple(files), reference=ref))
        return jobs
    if workload == "sweep":
        # the sweep's own chirp shape (100 Hz, then up at 900 Hz/s) cut short
        # enough that its pitch stays inside the WAV-source search band
        half = SWEEP_HALF_S * scale
        signal, _ = gen_stationary_plus_chirp(ChirpSpec(
            stationary_duration=half, chirp_duration=half,
            chirp_f_end=100.0 + 900.0 * half))
        path = os.path.join(workdir, "chirp.wav")
        audio_io.write_wav(path, _half_scale(signal))
        spec = harness.SweepSpec(source=path, multiples=SWEEP_MULTIPLES,
                                 t_min_s=0.01,
                                 partials={"sm": 1, "edsm": 1, "eaqhm": 1})
        return [Job(spec=spec,
                    reference=reference["sweep"],
                    expected_status={"eaqhm@1": "ill_conditioned"})]
    if workload == "long":
        jobs = []
        for i in range(LONG_SETS):
            input_seed = seed * LONG_SETS + i
            signal, _ = gen_amfm(AMFMSpec(duration=LONG_S * scale, seed=input_seed))
            os.makedirs(os.path.join(workdir, f"set{i}"))
            path = os.path.join(workdir, f"set{i}", "long.wav")
            audio_io.write_wav(path, _half_scale(signal))
            jobs.append(Job(files=(path,), models=("sm", "edsm"),
                            reference=reference["long"] if input_seed == 0 else {}))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


@contextmanager
def cell_stopwatch(durations: list):
    """Time each sweep cell as the harness's pool runs it.

    The harness reports no per-cell time for sweeps, so the cell function is
    wrapped for the call and put back afterwards.
    """
    original = harness._sweep_cell

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    harness._sweep_cell = timed
    try:
        yield
    finally:
        harness._sweep_cell = original


def run_job(job: Job) -> tuple[list[Op], list[float]]:
    """One harness call: its operations and the duration of each cell."""
    if job.spec is not None:
        cells: list[float] = []
        with cell_stopwatch(cells):
            curve = harness.run_window_sweep(job.spec)
        return [Op(f"{c.model}@{c.multiple:g}", c.model, c.srer_db, c.status)
                for c in curve.rows], cells
    rows = harness.run_comparison(job.files, models=job.models)
    ops: list[Op] = []
    cells = []
    for row in rows:
        name = os.path.basename(row.file_id)
        for model in job.models:
            s = row.srer_db.get(model)
            status = row.status if row.status != "ok" else ("ok" if s is not None else "failed")
            ops.append(Op(f"{model}@{name}", model, s, status, row.param_counts.get(model)))
            if row.wall_time_s.get(model) is not None:
                cells.append(row.wall_time_s[model])
    return ops, cells


def check(job: Job, ops: list[Op], first: dict | None = None) -> dict[str, str]:
    """Operations whose output is wrong, with the reason.

    Every operation must end in its expected status with a finite SRER, match
    the pinned reference where one applies, and repeat the run's first call
    exactly.  On a comparison, the subspace and adaptive models must beat the
    spectral one on every file (the paper's claim).
    """
    bad: dict[str, str] = {}
    for op in ops:
        want = job.expected_status.get(op.key, "ok")
        if op.status != want:
            bad[op.key] = f"status {op.status}, expected {want}"
        elif want != "ok":
            continue
        elif op.srer_db is None or not math.isfinite(op.srer_db):
            bad[op.key] = f"SRER {op.srer_db}"
        elif op.key in job.reference and abs(op.srer_db - job.reference[op.key]) > SRER_TOL_DB:
            bad[op.key] = (f"SRER {op.srer_db:.4f} dB, reference "
                           f"{job.reference[op.key]:.4f} dB")
        elif first is not None and op.srer_db != first.get(op.key):
            bad[op.key] = f"SRER {op.srer_db!r} dB, first call gave {first.get(op.key)!r}"
        elif op.params is not None and op.params <= 0:
            bad[op.key] = f"{op.params} parameters"
    if job.spec is None and "sm" in job.models:
        srer = {op.key: op.srer_db for op in ops}
        for op in ops:
            base = srer.get("sm@" + op.key.split("@", 1)[1])
            if (op.model != "sm" and op.key not in bad and base is not None
                    and op.srer_db is not None and op.srer_db <= base):
                bad[op.key] = f"SRER {op.srer_db:.2f} dB not above sm's {base:.2f} dB"
    return bad
