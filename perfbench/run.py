#!/usr/bin/env python3
"""Pipeline benchmark of the sinemodel harness, end to end and per layer.

    python3 perfbench/run.py --workload compare|sweep|long --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`
directory.  The run repeats one harness call (`run_comparison` or
`run_window_sweep`) until S seconds have passed, checks every call's output,
and prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of untraced calls.  `--trace 1`
alternates untraced and traced calls and reports the per-layer metrics of
the traced ones (see spans.py), the tracing overhead, and for `compare` the
eaqhm metrics of a child process whose BLAS runs one thread per CPU.
Machine facts are printed with every result.  The exit code is 0 when every
output is correct, 1 when one is not, and 2 when the checkout has no
sources.

The benchmark runs OpenBLAS on one thread.  On a 2-core machine shared with
other work, threaded OpenBLAS made the same `compare` call take 22 to 28 s
from run to run (single-threaded: 8 to 10 s), a spread wider than any bound
a regression check could use.  The traced run's threaded child reports what
threading costs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("compare", "sweep", "long")
SETUP_REPEATS = 3
HARD_LIMIT_S = 150.0    # start no call that could end past this
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "max_cell_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "srer_min_db": ("dB", "higher"),
    "ok_frac": ("frac", "higher"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes, run as child processes of a benchmark run
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--threaded-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources() -> bool:
    """Import sinemodel from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sinemodel", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import sinemodel
    return os.path.dirname(os.path.abspath(sinemodel.__file__)) == os.path.join(SRC, "sinemodel")


def blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with version and thread count."""
    import ctypes
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and ".so" in line}
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, names, restype in (
                ("threads", ("scipy_openblas_get_num_threads64_",
                             "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                             "openblas_get_num_threads"), ctypes.c_int),
                ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                            "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(info)
    return out


def machine_facts() -> dict:
    import importlib.util

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas_libraries(),
    }


def child_cmd(args, *flags) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", *flags]


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import the package and write
    the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(child_cmd(args, "--setup-only"), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Call:
    """One harness call: its operations, cell times, wall and CPU seconds."""

    def __init__(self, job, recorder=None):
        import spans
        import workloads
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if recorder is None:
            self.ops, self.cells = workloads.run_job(job)
            self.missing = []
        else:
            with spans.Rebound(recorder) as rebound:
                self.ops, self.cells = workloads.run_job(job)
            self.missing = rebound.missing
        self.wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        self.user_s = ru1.ru_utime - ru0.ru_utime
        self.sys_s = ru1.ru_stime - ru0.ru_stime
        self.srer = {op.key: op.srer_db for op in self.ops}

    def ok_srers(self, model: str = None) -> list[float]:
        return [op.srer_db for op in self.ops if op.status == "ok"
                and op.srer_db is not None and model in (None, op.model)]


def model_srer(calls, model: str) -> float:
    """Mean SRER over the model's successful operations (0 when it ran none)."""
    vals = [s for c in calls for s in c.ok_srers(model)]
    return statistics.fmean(vals) if vals else 0.0


def run_threaded_reference(args, parent_srer: dict, notes: list) -> tuple[dict, dict]:
    """eaqhm metrics of one traced call on the first input set in a child
    whose BLAS runs one thread per CPU, and the operations whose SRER differs
    from this process's by more than the SRER tolerance."""
    import workloads
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(os.cpu_count()))
    budget = max(30.0, HARD_LIMIT_S + 20.0 - (time.perf_counter() - T_START))
    proc = subprocess.run(child_cmd(args, "--trace", "1", "--threaded-child"), env=env,
                          check=True, timeout=budget, capture_output=True, text=True)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = {}
    for key, s in child["srer"].items():
        ref = parent_srer.get(key)
        if (s is None) != (ref is None) or (s is not None and abs(s - ref) > workloads.SRER_TOL_DB):
            bad[key] = f"threaded-BLAS SRER {s} dB, single-threaded {ref} dB"
    notes.append("blas_mt child BLAS: " + json.dumps(child["blas"]))
    metrics = {"blas_mt.wall_s": child["wall_s"]}
    metrics.update({f"blas_mt.{k}": v for k, v in child["metrics"].items()})
    return metrics, bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.threaded_child:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads OpenBLAS
    if not use_checkout_sources():
        print(f"perfbench: no sinemodel package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.setup_only:
        import workloads
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            workloads.make_jobs(args.workload, args.seed, tmp)
        return 0
    setup_s = None if args.threaded_child else measure_setup(args)
    import spans
    import workloads
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        jobs = workloads.make_jobs(args.workload, args.seed, tmp)
        if args.threaded_child:
            rec = spans.Recorder()
            call = Call(jobs[0], rec)
            layer = spans.layer_metrics(rec, 1)
            layer["eaqhm.srer_db"] = model_srer([call], "eaqhm")
            print(json.dumps({
                "wall_s": call.wall_s, "srer": call.srer, "blas": blas_libraries(),
                "metrics": {k: layer[k] for k in spans.EAQHM_METRICS}}))
            return 0
        return measure(args, jobs, setup_s)


def measure(args, jobs, setup_s: float) -> int:
    """The closed loop over the input sets, each call untraced, then traced
    as well when --trace 1."""
    import spans
    import workloads
    plain: list[Call] = []
    traced: list[Call] = []
    rec = spans.Recorder()
    wrong: dict[tuple, str] = {}    # (call, op key) -> reason
    firsts: dict[int, dict] = {}    # input set -> SRERs of its first call
    attempted = 0
    t_measure = time.perf_counter()
    longest = 0.0
    while True:
        # whole cycles over the input sets, so every run weighs them alike
        t_cycle = time.perf_counter()
        for i, job in enumerate(jobs):
            plain.append(Call(job))
            batch = [plain[-1]]
            if args.trace:
                traced.append(Call(job, rec))
                batch.append(traced[-1])
            for call in batch:
                attempted += len(call.ops)
                for key, why in workloads.check(job, call.ops, firsts.get(i)).items():
                    wrong[(id(call), key)] = why
                firsts.setdefault(i, call.srer)
        now = time.perf_counter()
        longest = max(longest, now - t_cycle)
        if now - t_measure >= args.seconds or now - T_START + longest > HARD_LIMIT_S:
            break
    notes: list[str] = []
    if args.trace:
        metrics = trace_metrics(args, jobs, plain, traced, rec, notes, wrong, firsts[0])
        if args.workload == "compare":
            attempted += len(traced[0].ops)    # the threaded child's operations
        metrics["failed_frac"] = len(wrong) / attempted
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(c.wall_s for c in plain),
            "max_cell_s": statistics.median(max(c.cells, default=0.0) for c in plain),
            "cpu_s": statistics.median(c.user_s + c.sys_s for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "srer_min_db": min((s for c in plain for s in c.ok_srers()), default=0.0),
            "ok_frac": (attempted - len(wrong)) / attempted,
        }
    failed = len(wrong)
    units = spans.PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced calls on {len(jobs)} input "
          f"set(s), operations attempted={attempted} failed={failed}")
    for op in plain[0].ops:
        print(f"  {op.key:26s} {op.status:16s}"
              + ("" if op.srer_db is None else f"{op.srer_db:10.4f} dB"))
    for (_, key), why in sorted(wrong.items(), key=str):
        print(f"  WRONG {key}: {why}")
    for note in notes:
        print(f"  note: {note}")
    print("machine " + json.dumps(machine_facts()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name][0]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


def trace_metrics(args, jobs, plain, traced, rec, notes, wrong, first_srer) -> dict:
    """Per-layer metrics of the traced calls; adds the traced-only checks'
    failures to `wrong`."""
    import spans
    n = len(traced)
    out = spans.layer_metrics(rec, n)
    wall = statistics.median(c.wall_s for c in traced)
    is_sweep = jobs[0].spec is not None
    out["harness.run_window_sweep.s"] = wall if is_sweep else 0.0
    out["harness.run_comparison.s"] = 0.0 if is_sweep else wall
    busy = sum(sum(c.cells) for c in traced) if is_sweep else 0.0
    out["harness.sweep.cell_busy_s"] = busy / n
    out["harness.sweep.concurrency"] = busy / sum(c.wall_s for c in traced)
    for status in ("ok", "ill_conditioned", "failed"):
        count = sum(1 for c in traced for op in c.ops if op.status == status)
        out[f"harness.sweep.cells_{status}"] = count / n if is_sweep else 0.0
    out["process.user_s"] = statistics.fmean(c.user_s for c in traced)
    out["process.sys_s"] = statistics.fmean(c.sys_s for c in traced)
    # each traced call against the untraced call on the same input just before it
    out["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    for model in ("sm", "edsm", "eaqhm"):
        out[f"{model}.srer_db"] = model_srer(traced, model)
        # the spans must see every parameter the comparison table counts
        table = sum(op.params or 0 for c in traced for op in c.ops if op.model == model) / n
        if not is_sweep and abs(table - out[f"{model}.params"]) > 1e-9 * max(table, 1.0):
            wrong[("trace", f"{model}.params")] = (
                f"traced {model} params {out[f'{model}.params']:g}, table {table:g}")
    missing = sorted({m for c in traced for m in c.missing})
    if missing:
        notes.append("not traced, name not found: " + ", ".join(missing))
    if args.workload == "compare":
        threaded, bad = run_threaded_reference(args, first_srer, notes)
        out.update(threaded)
        wrong.update({("blas_mt", key): why for key, why in bad.items()})
    else:
        out.update({name: 0.0 for name in spans.PER_LAYER if name.startswith("blas_mt.")})
        notes.append("blas_mt.* is 0: the threaded-BLAS reference runs on compare only")
    if args.workload == "long":
        notes.append("eaqhm.* is 0: long runs sm and edsm only")
    notes.append("harness.run_comparison.s is 0: a sweep runs no comparison" if is_sweep
                 else "harness.sweep.* and harness.run_window_sweep.s are 0: no sweep pool")
    return out


if __name__ == "__main__":
    sys.exit(main())
