"""The benchmark's own tests: a tiny-input pass through every workload path,
traced and untraced, and the contract of its output.

    python -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"compare": 0.4, "sweep": 0.3, "long": 0.1}


def _bound_names():
    return [(module, attr, getattr(module, attr))
            for module, attr, _, _ in spans.targets()]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_pass_traced_and_untraced(workload, tmp_path):
    job = workloads.make_jobs(workload, 1, str(tmp_path), scale=TINY[workload])[0]
    before = _bound_names()
    plain = run.Call(job)
    rec = spans.Recorder()
    traced = run.Call(job, rec)
    # every rebound name is the original object again
    assert all(getattr(module, attr) is orig for module, attr, orig in before)
    assert traced.missing == []
    assert workloads.check(job, plain.ops) == {}
    assert workloads.check(job, traced.ops, plain.srer) == {}
    assert plain.cells and traced.cells
    metrics = spans.layer_metrics(rec, 1)
    assert metrics["pitch.frames"] > 0
    assert metrics["core.synthesize_tracks.calls"] > 0
    if workload == "long":
        assert metrics["eaqhm.ls_solve.calls"] == 0
    else:
        assert metrics["eaqhm.ls_solve.calls"] > 0
        assert metrics["eaqhm.ls_solve.gflop"] > 0
    if workload == "sweep":
        assert metrics["sm.frames"] > 0
    else:
        # the spans see every parameter the comparison table counts
        for model in job.models:
            table = sum(op.params for op in traced.ops if op.model == model)
            assert metrics[f"{model}.params"] == table


def test_names_restored_when_traced_call_raises():
    before = _bound_names()
    with pytest.raises(RuntimeError):
        with spans.Rebound(spans.Recorder()):
            raise RuntimeError("boom")
    assert all(getattr(module, attr) is orig for module, attr, orig in before)


def test_check_flags_wrong_outputs():
    job = workloads.Job(spec=object(), reference={"sm@1": 30.0},
                        expected_status={"eaqhm@1": "ill_conditioned"})
    ops = [workloads.Op("sm@1", "sm", 31.0, "ok"),
           workloads.Op("edsm@1", "edsm", float("nan"), "ok"),
           workloads.Op("eaqhm@1", "eaqhm", None, "ok"),
           workloads.Op("sm@2", "sm", 20.0, "ok")]
    bad = workloads.check(job, ops, first={"sm@2": 20.5})
    assert sorted(bad) == ["eaqhm@1", "edsm@1", "sm@1", "sm@2"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in bench[key]} == table


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # one cycle over the long inputs, two operations (sm, edsm) each
    assert result["correct"] is True and result["attempted"] == 2 * workloads.LONG_SETS
    assert sorted(result["metrics"]) == sorted(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
