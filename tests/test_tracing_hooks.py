"""The names the benchmark's layer tracer patches must exist and be called.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``TRACED``
table through ``owner.__dict__[attr]``, so renaming or deleting one of those
names, or calling the function some other way, breaks the traced benchmark
run without failing anything else. The same holds for the config fields
``perfbench/harness.py`` sets.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from contactnewton import collision, solver
from contactnewton.linalg import Factorization
from contactnewton.scene import Simulation, load_scene

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_harness():
    """``perfbench/harness.py`` as a module. It imports its sibling ``tracing``
    as a top-level module, so ``perfbench/`` is on ``sys.path`` while it loads;
    its dataclasses look their module up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("perfbench_harness", ROOT / "perfbench" / "harness.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def test_harness_builds_every_workload_config():
    # scene_config sets NewtonConfig and PgsConfig fields by name (the
    # column's rotation_tol, for one), so renaming or deleting such a field
    # fails here rather than in every benchmark run
    harness = load_harness()
    assert harness.WORKLOADS
    for workload in harness.WORKLOADS.values():
        config = harness.scene_config(workload, tiny=True)
        if workload.scheme is not None:
            assert config.newton.scheme == workload.scheme
            assert (config.newton.penetration_tol, config.newton.rotation_tol) == (0.0, 0.0)
        assert not (config.output.metrics or config.output.snapshots)


def test_every_traced_name_exists():
    tracing = load_tracing()
    assert tracing.TRACED
    for owner, attr, *_ in tracing.TRACED:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert callable(solver.local_solve)


def count_calls(monkeypatch, module, names) -> Counter:
    """Wrap each of ``module``'s ``names`` so that its calls are counted."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_fast_newton_iteration_calls_the_traced_solver_names(monkeypatch):
    names = ("relinearize", "max_frame_rotation", "assemble_direction", "rebuild_W_fast",
             "fast_update_proximity")
    calls = count_calls(monkeypatch, solver, names)
    # the plates turn between the first two iterations, and a negative
    # penetration tolerance is never met, so the second iteration re-linearizes
    config = load_scene(ROOT / "scenes" / "grasp_rotate.scn")
    newton = replace(config.newton, scheme="fast", max_iterations=2, penetration_tol=-1.0)
    Simulation(replace(config, newton=newton)).step()
    for name in names:
        assert calls[name] > 0, name


def test_standard_newton_iteration_calls_the_traced_solver_names(monkeypatch):
    # the tracer opens a standard iteration's span at solver.assemble_H, so
    # the W rebuild must look it up in solver's globals when called
    names = ("relinearize", "max_frame_rotation", "assemble_direction", "assemble_H",
             "assemble_W_standard")
    calls = count_calls(monkeypatch, solver, names)
    config = load_scene(ROOT / "scenes" / "grasp_rotate.scn")
    newton = replace(config.newton, scheme="standard", max_iterations=2, penetration_tol=-1.0)
    Simulation(replace(config, newton=newton)).step()
    for name in names:
        assert calls[name] > 0, name


@pytest.mark.parametrize("scene, forced", [("bench_column.scn", True), ("grasp_rotate.scn", False)])
def test_fast_step_rebuilds_once_per_iteration_and_relinearizes_moved_normals(
        monkeypatch, scene, forced):
    # the tracer opens a fast iteration's span at solver.rebuild_W_fast, so it
    # runs once per iteration though W is kept; relinearize and
    # max_frame_rotation run only where the previous move's normals differ
    # from the frames' own, bit for bit
    events = []

    def recording(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append((name, args[0], result))
            return result

        return wrapper

    for name in ("rebuild_W_fast", "relinearize", "max_frame_rotation", "fast_update_proximity"):
        monkeypatch.setattr(solver, name, recording(name))
    config = load_scene(ROOT / "scenes" / scene)
    newton = replace(config.newton, scheme="fast")
    if forced:
        newton = replace(newton, max_iterations=5, penetration_tol=-1.0)
    sim = Simulation(replace(config, newton=newton))
    # unforced, grasp_rotate's first steps end after one iteration; from step
    # 11 on the plates have turned the frames far enough to need a second
    for _ in range(1 if forced else 11):
        sim.step()
    moved = iterations = 0
    for _ in range(4):
        events.clear()
        report = sim.step()
        expected, turned, D, prox = [], [], None, None
        for name, arg, result in events:
            if name == "rebuild_W_fast":
                turned.append(prox is not None and prox.normals.tobytes() != D[:, 0].tobytes())
                expected += ["relinearize", "max_frame_rotation"] * turned[-1] + [name]
                D = arg
            elif name == "fast_update_proximity":
                expected.append(name)
                prox = result
        assert [name for name, *_ in events] == expected
        assert len(turned) == len(report.iterations)
        for k, (it, turn) in enumerate(zip(report.iterations, turned)):
            assert it.kept is (k > 0 and not turn)  # a step starts holding nothing
            assert turn or it.rotation == 0.0
        moved += sum(turned)
        iterations += len(turned)
    assert iterations > 4
    assert (moved > 0) is (scene == "grasp_rotate.scn")


def test_pgs_calls_local_solve_through_the_module_global(monkeypatch):
    # the tracer's solver.local_solve_calls counts the module global, so a
    # sweep that inlined the local solve would read 0 there; skipped visits
    # make no call, and PgsResult.work counts the calls made
    calls = count_calls(monkeypatch, solver, ("local_solve",))
    expected = []

    def pgs(W, delta, h, config, prepared, _fn=solver.pgs):
        before = calls["local_solve"]
        res = _fn(W, delta, h, config, prepared)
        expected.append((calls["local_solve"] - before, res.work,
                         len(delta) // 3 * res.iterations))
        return res

    monkeypatch.setattr(solver, "pgs", pgs)
    config = load_scene(ROOT / "scenes" / "block_on_plane.scn")
    newton = replace(config.newton, scheme="fast", max_iterations=2, penetration_tol=-1.0,
                     rotation_tol=-1.0)
    Simulation(replace(config, newton=newton)).step()
    assert len(expected) == 2
    for counted, work, groups_times_sweeps in expected:
        assert counted == work
        assert 0 < work <= groups_times_sweeps


@pytest.mark.parametrize("scheme", ["single", "standard", "fast"])
def test_step_looks_up_detection_and_gaps_through_collision(monkeypatch, scheme):
    # one detection on the step-start states, and the signed gaps of its
    # pairs at the final positions (pen_after); pen_before reads the gaps
    # of the proximity record at the free positions
    calls = count_calls(monkeypatch, collision, ("detect", "build_frames", "signed_gaps"))
    config = load_scene(ROOT / "scenes" / "block_on_plane.scn")
    report = Simulation(replace(config, newton=replace(config.newton, scheme=scheme))).step()
    assert report.c_groups > 0
    assert calls == {"detect": 1, "build_frames": 1, "signed_gaps": 1}


def test_fast_step_backsolves_only_in_its_one_final_correction(monkeypatch):
    # the tracer's solver.mechanical_correction span must hold the fast final
    # solve, traced as a linalg.solve; no solve runs in the Newton loop, and
    # the free motion's two passes run before it
    inside = []
    corrections = []
    solves_inside = Counter()
    solves_outside = Counter()

    def correction(*args, _fn=solver._mechanical_correction, **kwargs):
        corrections.append(1)
        inside.append(True)
        try:
            return _fn(*args, **kwargs)
        finally:
            inside.pop()

    def counting(name):
        fn = getattr(Factorization, name)

        def wrapper(self, *args, **kwargs):
            (solves_inside if inside else solves_outside)[name] += 1
            return fn(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "_mechanical_correction", correction)
    for name in ("solve", "solve_multi", "forward", "backward"):
        monkeypatch.setattr(Factorization, name, counting(name))
    config = load_scene(ROOT / "scenes" / "block_on_plane.scn")
    newton = replace(config.newton, scheme="fast", max_iterations=2, penetration_tol=-1.0)
    sim = Simulation(replace(config, newton=newton))
    for _ in range(2):
        corrections.clear()
        solves_inside.clear()
        solves_outside.clear()
        report = sim.step()
        assert report.c_groups > 0
        assert len(corrections) == 1
        # one solve, finished on the free motion's forward pass; it calls
        # forward for its own right-hand side
        assert solves_inside == {"solve": 1, "forward": 1}
        assert solves_outside == {"forward": 1, "backward": 1}  # the free motion


@pytest.mark.parametrize("workload", ["column_fast", "grasp_rotate"])
def test_traced_benchmark_run_passes_its_checks(monkeypatch, workload):
    # the traced run of the benchmark at tiny size: every traced name is
    # patched and called, its output checks hold and no solve runs inside a
    # fast Newton iteration, whose span ends with the proximity move and
    # holds the move's geometric refresh
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("harness", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    harness = importlib.import_module("harness")
    res = harness.run_workload(harness.WORKLOADS[workload], 2, trace=True, tiny=True, setups=1)
    assert res.checks == []
    assert res.failure is None
    assert res.tracer.solves_in_fast_iterations() == 0
    tracer = res.tracer
    kids = tracer.children()
    fast = [i for i, span in enumerate(tracer.spans)
            if span.name == "solver.newton_iteration" and tracer.inside(i, "solver.newton_fast")]
    assert fast
    for i in fast:
        moves = [k for k in kids[i] if tracer.spans[k].name == "constraints.fast_update_proximity"]
        assert moves == kids[i][-1:]  # one move, and the iteration's last span
        assert [tracer.spans[k].name for k in kids[moves[0]]] == ["collision.refresh_proximity"]
    spans = Counter(span.name for span in tracer.spans)
    steps = 1 + 2  # the set-up's first step and the two timed ones
    for name in ("dynamics.compute_free_motion", "solver.mechanical_correction",
                 "dynamics.integrate_correction"):
        assert spans[name] == steps, name
