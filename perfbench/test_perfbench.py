"""Self-tests of the benchmark. Run with ``python3 -m pytest perfbench``.

The smoke tests run every workload at tiny sizes and assert that each metric
named in BENCHMARK.json is printed with its unit; the unit tests cover the
span self-time arithmetic and the substate size guard.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=600, cwd=cwd)


def _smoke(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    result = _smoke(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    # A traced run also makes one traced pass of every other workload.
    result = _smoke("trajectories", 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    produced = [(name, unit) for name, unit, _ in workloads.LAYERS]
    assert declared == produced + [("bench.trace_overhead_frac", "ratio")]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sequences", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a: the union [1, 6] counts once
        _span("a.x", 2.0, 3.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert tracing.nesting_errors(spans, selfs) == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    spans = [_span("root", 0.0, 2.0), _span("late", 1.5, 2.5, parent=0)]
    errors = tracing.nesting_errors(spans, tracing.self_times(spans))
    assert errors == ["late: not inside its parent root"]


def test_tracer_links_parents_and_sums_per_pass():
    tracer = tracing.Tracer()
    tracer.pass_id = 7
    with tracer.span("outer"):
        with tracer.span("inner") as sp:
            sp.count("calls", 2)
        with tracer.span("inner") as sp:
            sp.count("calls", 3)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    selfs = tracing.self_times(tracer.spans)
    summary = tracing.by_pass(tracer.spans, selfs)[7]
    assert summary["inner"]["spans"] == 2 and summary["inner"]["counts"] == {"calls": 5}
    inner = tracer.spans[1].duration + tracer.spans[2].duration
    assert summary["outer"]["self_s"] == pytest.approx(tracer.spans[0].duration - inner)


def test_size_guard_refuses_over_budget_cases_without_allocating(monkeypatch):
    # The roughly 68 GB case: a resolution-64 grid (8192 points) with m = 16.
    assert workloads.substate_tensor_bytes(8192, 16) > 68 * 10**9
    with pytest.raises(workloads.SizeGuardError):
        workloads.guard_substates(8192, 16)
    for res, m in workloads.SUBSTATE_CASES.values():
        workloads.guard_substates(2 * res * res, m)

    calls = []
    monkeypatch.setattr(workloads.manifolds, "extend_to_substates",
                        lambda ens, dirs: calls.append(len(dirs)))
    inputs = workloads.substates_inputs(1, "tiny", ROOT / ".perfbench_out")
    rng = workloads.np.random.default_rng(0)
    inputs["cases"] = {"m12": (8, [workloads._unit(rng) for _ in range(17)])}
    gate = workloads.Gate()
    workloads.substates_pass(inputs, tracing.NullTracer(), gate)
    assert calls == []
    assert gate.failed == 1 and "SizeGuardError" in gate.failures[0]
