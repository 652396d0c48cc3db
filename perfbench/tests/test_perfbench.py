"""Smoke tests of the benchmark at tiny size: metrics, spans, counts, failures.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
from contactnewton import collision, linalg, scene, solver
from contactnewton.dynamics import MechanicalState
from tracing import Tracer

WORKLOADS = sorted(harness.WORKLOADS)
STEPS = 3
COUNTS = ("collision.pairs", "solver.pgs_sweeps", "solver.newton_iterations",
          "linalg.solve_columns")


def tiny_run(name, trace=False):
    return harness.run_workload(harness.WORKLOADS[name], STEPS, trace=trace, tiny=True, setups=1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_have_units(name):
    res = tiny_run(name)
    assert res.checks == [] and res.failure is None
    metrics = harness.metrics(res, trace=False)
    assert list(metrics) == list(harness.END_TO_END)
    for m in metrics.values():
        assert m["unit"] and math.isfinite(m["value"]) and m["value"] > 0
    assert metrics["step_success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run(name):
    first, second = tiny_run(name, trace=True), tiny_run(name, trace=True)
    assert first.checks == [] and first.failure is None
    metrics = harness.metrics(first, trace=True)
    assert list(metrics) == list(harness.PER_LAYER)
    assert all(m["unit"] and math.isfinite(m["value"]) for m in metrics.values())

    tracer = first.tracer
    assert {s.layer for s in tracer.spans} == set(harness.LAYERS)
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    assert min(tracer.self_times()) >= 0.0

    again = harness.per_layer(second.tracer)
    for name_ in COUNTS:
        assert metrics[name_]["value"] == again[name_] > 0


def test_forced_failure_counts_as_failed(monkeypatch):
    calls = []

    def failing_detect(geometries, threshold, _detect=collision.detect):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("injected detection failure")
        return _detect(geometries, threshold)

    monkeypatch.setattr(collision, "detect", failing_detect)
    res = tiny_run("grasp_rotate")
    # one cold step and one timed step complete; the third step fails and the fourth never runs
    assert res.planned == 1 + STEPS and res.completed == 2 and res.failed == 2
    assert "injected detection failure" in res.failure
    assert harness.end_to_end(res)["step_success_ratio"] == 0.5
    assert res.checks == []


def test_non_finite_commit_fails_the_check(monkeypatch):
    def nan_state(state, free, dv, h):
        return MechanicalState(np.full_like(state.q, np.nan), state.v)

    monkeypatch.setattr(scene, "integrate_correction", nan_state)
    res = tiny_run("grasp_rotate")
    assert res.completed == 0 and res.failed == res.planned
    assert any("non-finite" in message for message in res.checks)


def test_solve_inside_fast_iteration_fails_the_check(monkeypatch):
    F = linalg.Factorization(linalg.SparseSym(np.eye(3)))

    def violation_with_solve(D, p_a, p_b, _violation=solver.compute_violation):
        F.solve(np.ones(3))
        return _violation(D, p_a, p_b)

    monkeypatch.setattr(solver, "compute_violation", violation_with_solve)
    res = tiny_run("column_fast", trace=True)
    assert any("system solves inside fast-scheme" in message for message in res.checks)


def test_tracer_restores_the_program():
    before = (scene.Simulation.step, solver.pgs, linalg.Factorization.solve, collision.detect)
    with Tracer():
        assert solver.pgs is not before[1]
    assert (scene.Simulation.step, solver.pgs, linalg.Factorization.solve,
            collision.detect) == before


def test_tail_keeps_ten_steps_beyond():
    samples = list(range(30))
    pct, value = harness.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert harness.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grasp_rotate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    for w in spec["workloads"]:
        steps = harness.planned_steps(harness.WORKLOADS[w["name"]], spec["run_seconds"])
        assert f"{steps} timed steps" in w["why"]
