"""Workloads, the timed run, output checks and metrics of the benchmark.

A run does ``SETUPS`` cold set-ups (``load_scene`` + ``Simulation`` + the
first step, which factorizes and builds the first W_g), keeps the last
simulation and times ``planned_steps`` further steps of it. The step count
follows from ``--seconds`` and a fixed nominal step time per workload, so a
run does the same work on every commit: the accuracy figure and the layer
counts compare like with like, and a faster program is not handed more
(and, on ``grasp_rotate``, harder) steps.

Between steps a speed probe, fixed work owned by the benchmark, measures
how fast the shared host runs; reported times are scaled by it (see
``SpeedProbe``). The scenes are deterministic and take no random input, so
the seed is recorded but changes nothing.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import contactnewton
from contactnewton.scene import OutputConfig, Simulation, load_scene, with_box_divisions

from tracing import ITERATION, Tracer

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
SETUPS = 3
COLUMN_GROUPS = 64
TAIL_BEYOND = 10  # the tail percentile keeps at least this many steps above it
PROBE_SHARE = 0.05  # probe time after each step, as a share of that step's time
PROBE_MIN_RUNS = 3  # probes after each step at least; one alone is too noisy
PROBE_REF_S = 0.020  # the speed probe's time on the reference host (about its median)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    nominal_step_s: float  # planned steps = ceil(seconds / nominal_step_s)
    scheme: str | None = None  # set: the column overrides of `contactnewton bench`
    tiny_divisions: tuple | None = None  # a smaller mesh for the smoke tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("column_fast", "bench_column.scn", 0.85, "fast", (7, 6, 7)),
        Workload("column_standard", "bench_column.scn", 2.5, "standard", (7, 6, 7)),
        Workload("grasp_rotate", "grasp_rotate.scn", 0.5),
    )
}

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "pen_after_max_m": "m",
    "step_success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "collision.detect_ms": "ms",
    "collision.pairs": "count",
    "collision.refresh_ms": "ms",
    "collision.refresh_calls": "count",
    "collision.relinearize_ms": "ms",
    "collision.relinearize_calls": "count",
    "collision.signed_gaps_ms": "ms",
    "collision.self_ms": "ms",
    "dynamics.assemble_ms": "ms",
    "dynamics.free_motion_ms": "ms",
    "dynamics.integrate_ms": "ms",
    "dynamics.self_ms": "ms",
    "linalg.factorize_ms": "ms",
    "linalg.factorize_calls": "count",
    "linalg.solve_calls": "count",
    "linalg.solve_columns": "count",
    "linalg.solve_multi_ms": "ms",
    "linalg.self_ms": "ms",
    "constraints.compliance_ms": "ms",
    "constraints.rebuild_w_ms": "ms",
    "constraints.signed_mapping_ms": "ms",
    "constraints.violation_ms": "ms",
    "constraints.self_ms": "ms",
    "solver.newton_iterations": "count",
    "solver.newton_iteration_ms": "ms",
    "solver.proximity_update_ms": "ms",
    "solver.mechanical_correction_ms": "ms",
    "solver.pgs_ms": "ms",
    "solver.pgs_sweeps": "count",
    "solver.pgs_sweep_ms": "ms",
    "solver.pgs_converged_ratio": "ratio",
    "solver.local_solve_calls": "count",
    "solver.self_ms": "ms",
    "scene.step_ms": "ms",
    "scene.self_ms": "ms",
}

LAYERS = ("collision", "dynamics", "linalg", "constraints", "solver", "scene")
REBUILD_W = ("constraints.rebuild_w_fast", "constraints.assemble_h",
             "constraints.assemble_w_standard")
COMPLIANCE = REBUILD_W + ("constraints.assemble_wg",)


def scene_config(workload: Workload, tiny: bool = False):
    config = load_scene(SCENES / workload.scene)
    if workload.scheme is not None:
        # As `contactnewton bench` runs a cell: every configured iteration, no early exit.
        config = replace(
            config,
            newton=replace(config.newton, scheme=workload.scheme, max_iterations=5,
                           penetration_tol=0.0, rotation_tol=0.0),
            pgs=replace(config.pgs, max_iterations=30),
        )
    if tiny and workload.tiny_divisions is not None:
        config = with_box_divisions(config, workload.tiny_divisions)
    return replace(config, output=OutputConfig(snapshots=False, metrics=False))


def planned_steps(workload: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / workload.nominal_step_s))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would not lie
    above the median, so the tail is the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _laplacian(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


class SpeedProbe:
    """Fixed work, owned by the benchmark, timed between steps to track the host's speed.

    The host shares its cores with other machines' work, and its speed
    drifts within seconds: identical runs differed by 10-30% in wall time
    per step. The probe does the kinds of work a step does: a sparse
    triangular solve on a factor the size of the column's, a dense product
    summed one rank-1 update at a time, and an interpreted loop of 3 x 3
    numpy operations. It slows with the host. Each step's time is scaled by
    ``PROBE_REF_S`` over the probe time around that step, which cut the
    spread between identical runs to 1-9%. The probe does not change with
    the program, so a change to the program still shows in full.
    """

    def __init__(self):
        nx, ny, nz = 8, 47, 8  # the column's node grid: 9024 DOFs
        grid = (sp.kron(sp.kron(_laplacian(nx), sp.eye(ny)), sp.eye(nz))
                + sp.kron(sp.kron(sp.eye(nx), _laplacian(ny)), sp.eye(nz))
                + sp.kron(sp.kron(sp.eye(nx), sp.eye(ny)), _laplacian(nz)))
        A = sp.kron(grid, sp.eye(3)) + 0.01 * sp.eye(3 * nx * ny * nz)
        self.lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        self.rhs = np.ones((A.shape[0], 8))
        M = np.random.default_rng(0).standard_normal((150, 150))
        self.W = M @ M.T
        self.bursts: list[list[float]] = []  # probe times of each run_for call

    def once(self) -> float:
        t0 = time.perf_counter()
        self.lu.solve(self.rhs)
        out = np.zeros_like(self.W)
        for p in range(self.W.shape[0]):
            out += self.W[:, p, None] * self.W[None, p, :]
        x = np.zeros(3)
        step = np.array([1.0, 0.5, 0.25])
        for i in range(2000):
            g = 3 * (i % 40)
            x = x + 1e-9 * (self.W[g : g + 3, g : g + 3] @ step)
        return time.perf_counter() - t0

    def run_for(self, seconds: float) -> None:
        """Probe PROBE_MIN_RUNS times, and on until ``seconds`` of probing have passed."""
        burst = [self.once() for _ in range(PROBE_MIN_RUNS)]
        while sum(burst) < seconds:
            burst.append(self.once())
        self.bursts.append(burst)

    def scales(self) -> list[float]:
        """Per probed step, the factor that takes its time to the reference host speed.

        Step j ran between bursts j - 1 and j; their medians' mean is the
        probe time around it.
        """
        around = [statistics.median(b) for b in self.bursts]
        return [2.0 * PROBE_REF_S / (around[max(j - 1, 0)] + around[j])
                for j in range(len(around))]


def _finite_state(sim) -> bool:
    return all(
        np.isfinite(obj.state.q).all() and np.isfinite(obj.state.v).all()
        for obj in sim.dynamic_objects
    )


@dataclass
class RunResult:
    workload: str
    planned: int  # cold set-up steps + timed steps
    completed: int = 0
    dofs: int = 0
    setup_times: list = field(default_factory=list)  # wall time, s, as measured
    step_times: list = field(default_factory=list)  # timed steps only
    pen_after: list = field(default_factory=list)  # every completed step
    groups: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # failed output checks, as messages
    failure: str | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: Tracer | None = None

    @property
    def failed(self) -> int:
        """Failed steps plus the planned steps a failure left unattempted."""
        return self.planned - self.completed


def run_workload(workload: Workload, n_steps: int, trace: bool = False,
                 tiny: bool = False, setups: int = SETUPS) -> RunResult:
    """Set up ``setups`` times, then time ``n_steps`` steps; never raises for a failed step."""
    res = RunResult(workload.name, setups + n_steps)
    tracer = res.tracer = Tracer() if trace else None
    sim = None

    def step(step_id):
        if tracer is not None:
            tracer.begin_step(step_id)
        t0 = time.perf_counter()
        report = sim.step()
        elapsed = time.perf_counter() - t0
        if not (_finite_state(sim) and math.isfinite(report.pen_after)):
            res.checks.append(f"step {step_id}: committed a non-finite state")
            raise FloatingPointError(f"step {step_id} committed a non-finite state")
        if workload.scheme is not None and report.c_groups != COLUMN_GROUPS:
            res.checks.append(
                f"step {step_id}: {report.c_groups} contact groups, expected {COLUMN_GROUPS}"
            )
        res.completed += 1
        res.pen_after.append(report.pen_after)
        res.groups.append(report.c_groups)
        return elapsed

    with tracer if tracer is not None else contextlib.nullcontext():
        try:
            for i in range(setups):
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.begin_step(f"setup{i}")
                sim = Simulation(scene_config(workload, tiny))
                step(f"setup{i}")
                res.setup_times.append(time.perf_counter() - t0)
                res.probe.run_for(PROBE_SHARE * res.setup_times[-1])
            res.dofs = sim.total_dofs()
            for k in range(1, n_steps + 1):
                res.step_times.append(step(k))
                res.probe.run_for(PROBE_SHARE * res.step_times[-1])
        except Exception:  # a failed step ends the run; it is counted, not raised
            res.failure = traceback.format_exc()
    if len(set(res.pen_after[: len(res.setup_times)])) > 1:
        res.checks.append("the cold set-ups disagree: the program is not deterministic")
    if tracer is not None and tracer.solves_in_fast_iterations():
        res.checks.append(
            f"{tracer.solves_in_fast_iterations()} system solves inside fast-scheme "
            "Newton iterations"
        )
    return res


# --- metrics ------------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def step_scales(res: RunResult) -> dict:
    """The speed probe's factor per step id ("setup0", ... for set-ups, 1, 2, ... timed)."""
    ids = [f"setup{i}" for i in range(len(res.setup_times))]
    ids += list(range(1, len(res.step_times) + 1))
    return dict(zip(ids, res.probe.scales()))


def end_to_end(res: RunResult, scales: dict | None = None) -> dict:
    """End-to-end metrics; each step's time multiplied by its factor in ``scales``."""
    scales = scales or {}
    setups = [t * scales.get(f"setup{i}", 1.0) for i, t in enumerate(res.setup_times)]
    times = [t * scales.get(k, 1.0) for k, t in enumerate(res.step_times, start=1)]
    return {
        "setup_s": _median(setups),
        "steps_per_s": len(times) / sum(times) if times else 0.0,
        "step_ms_p50": 1e3 * _median(times),
        "step_ms_tail": 1e3 * tail(times)[1] if times else 0.0,
        "pen_after_max_m": max(res.pen_after, default=0.0),
        "step_success_ratio": 1.0 - res.failed / res.planned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, scales: dict | None = None) -> dict:
    """Per-layer metrics from the spans of the timed steps (factorize: the set-ups).

    Each span's time is multiplied by its step's factor in ``scales``.

    ``_ms`` metrics are medians per call, except ``self_ms``, ``compliance_ms``
    and ``mechanical_correction_ms``, which are medians per step. Counts are
    totals over the timed steps.
    """
    spans = tracer.spans
    scales = scales or {}
    to_ms = [1e3 * scales.get(s.step, 1.0) for s in spans]
    timed = [i for i, s in enumerate(spans) if isinstance(s.step, int)]
    steps = sorted({spans[i].step for i in timed})
    own = tracer.self_times()
    kids = tracer.children()
    durations = defaultdict(list)  # ms
    per_step = defaultdict(lambda: defaultdict(float))
    layer_self = defaultdict(lambda: defaultdict(float))
    for i in timed:
        s = spans[i]
        durations[s.name].append(to_ms[i] * s.duration)
        per_step[s.name][s.step] += to_ms[i] * s.duration
        layer_self[s.layer][s.step] += to_ms[i] * own[i]

    def ms(name):
        return _median(durations[name])

    def ms_per_step(names):
        return _median([sum(per_step[n][k] for n in names) for k in steps])

    def total(name):  # a call that raised reports no value
        return sum(spans[i].value or 0 for i in timed if spans[i].name == name)

    rebuild, update = [], []
    for i in timed:
        children = [spans[c] for c in kids.get(i, ())]
        pgs_ends = [c.end for c in children if c.name == "solver.pgs"]
        if spans[i].name != ITERATION or not pgs_ends:
            continue
        rebuild.append(to_ms[i] * sum(c.duration for c in children if c.name in REBUILD_W))
        update.append(to_ms[i] * (spans[i].end - max(pgs_ends)))
    pgs = [(to_ms[i] * spans[i].duration, spans[i].value) for i in timed
           if spans[i].name == "solver.pgs" and spans[i].value is not None]
    factorize = [to_ms[i] * s.duration for i, s in enumerate(spans) if s.name == "linalg.factorize"]
    metrics = {
        "collision.detect_ms": ms("collision.detect"),
        "collision.pairs": total("collision.detect"),
        "collision.refresh_ms": ms("collision.refresh_proximity"),
        "collision.refresh_calls": len(durations["collision.refresh_proximity"]),
        "collision.relinearize_ms": ms("collision.relinearize"),
        "collision.relinearize_calls": len(durations["collision.relinearize"]),
        "collision.signed_gaps_ms": ms("collision.signed_gaps"),
        "dynamics.assemble_ms": ms("dynamics.assemble"),
        "dynamics.free_motion_ms": ms("dynamics.compute_free_motion"),
        "dynamics.integrate_ms": ms("dynamics.integrate_correction"),
        "linalg.factorize_ms": _median(factorize),
        "linalg.factorize_calls": len(factorize),
        "linalg.solve_calls": len(durations["linalg.solve"]) + len(durations["linalg.solve_multi"]),
        "linalg.solve_columns": total("linalg.solve") + total("linalg.solve_multi"),
        "linalg.solve_multi_ms": ms("linalg.solve_multi"),
        "constraints.compliance_ms": ms_per_step(COMPLIANCE),
        "constraints.rebuild_w_ms": _median(rebuild),
        "constraints.signed_mapping_ms": ms("constraints.build_signed_mapping"),
        "constraints.violation_ms": ms("constraints.compute_violation"),
        "solver.newton_iterations": len(durations[ITERATION]),
        "solver.newton_iteration_ms": ms(ITERATION),
        "solver.proximity_update_ms": _median(update),
        "solver.mechanical_correction_ms": ms_per_step(["solver.mechanical_correction"]),
        "solver.pgs_ms": ms("solver.pgs"),
        "solver.pgs_sweeps": sum(sweeps for _, (sweeps, _) in pgs),
        "solver.pgs_sweep_ms": _median([took / sweeps for took, (sweeps, _) in pgs if sweeps]),
        "solver.pgs_converged_ratio": sum(ok for _, (_, ok) in pgs) / len(pgs) if pgs else 0.0,
        "solver.local_solve_calls": sum(
            n for (name, step), n in tracer.counts.items()
            if name == "solver.local_solve" and isinstance(step, int)
        ),
        "scene.step_ms": ms("scene.step"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = _median([layer_self[layer][k] for k in steps])
    return {name: metrics[name] for name in PER_LAYER}


def metrics(res: RunResult, trace: bool) -> dict:
    """Per-layer metrics of a traced run, end-to-end metrics otherwise, with units.

    Times are scaled to the reference host speed by the run's speed probe.
    """
    scales = step_scales(res)
    values, units = ((per_layer(res.tracer, scales), PER_LAYER) if trace
                     else (end_to_end(res, scales), END_TO_END))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def function_table(tracer: Tracer) -> list[dict]:
    """Calls, total, median and self time per traced name over the timed steps."""
    own = tracer.self_times()
    rows = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "durations": []})
    for i, s in enumerate(tracer.spans):
        if not isinstance(s.step, int):
            continue
        row = rows[s.name]
        row["calls"] += 1
        row["total_ms"] += 1e3 * s.duration
        row["self_ms"] += 1e3 * own[i]
        row["durations"].append(s.duration)
    table = []
    for name in sorted(rows):
        row = rows[name]
        table.append({
            "name": name,
            "calls": row["calls"],
            "total_ms": row["total_ms"],
            "median_ms": 1e3 * _median(row.pop("durations")),
            "self_ms": row["self_ms"],
        })
    return table


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "contactnewton": os.path.relpath(Path(contactnewton.__file__).parent, ROOT),
    }
