"""Benchmark matrix comparing the standard and fast update schemes.

For every (resolution, scheme) cell the harness re-meshes the scene's
procedural soft box, runs warmup steps, then measures per-phase wall times
over the configured repetitions. Reported numbers are medians: the rebuild,
solve and correction columns are medians over the Newton iterations that
rebuilt W (``IterationStats.kept`` false), and ``rebuilds`` counts them. An
iteration whose directions repeat the previous one's keeps W under both
schemes, so it times no update of W, which is what the paper's cost claim is
about. The mapping compliance W_g is built or reused once per step. A step
whose attachments repeat the previous step's takes that step's W_g, so on a
resting scene the median ``build_wg_ms`` times only that check, while
``build_wg_cold_ms`` reports the cell's first step, a full gather that fills
the cached block of A^-1. ``final_corr_ms`` is the per-step median of the
step's final solve, one per body for both schemes: the correction by the
summed impulse and the rest of the free motion's backward pass together.
The update fraction is (rebuild + correction) / per-iteration total.
``newton_iter_iqr_ms`` and ``step_total_iqr_ms`` are the interquartile
ranges of the per-iteration and per-step samples, so a difference between
two runs can be read against the spread of each. The summary prints the
fast-vs-standard ratio per rebuilding iteration, with the counts, and per
step.

Reference figures from the original GPU study (RTX 3080, cuBLAS/cuSPARSE
pipeline): per-iteration speedup 6.97x, whole-scheme speedup 3.20x, update
fractions 84-90% (standard) vs 14-15% (fast). Those are printed next to the
measured ratios for orientation only; a CPU build is not comparable
hardware.
"""

from __future__ import annotations

import csv
import os
import statistics
from dataclasses import dataclass, field, replace

from .errors import ParseError, ValidationError
from .scene import (
    SceneConfig,
    Simulation,
    as_count,
    as_mapping,
    load_scene,
    read_settings,
    read_yaml_mapping,
    require,
    soft_box,
    with_box_divisions,
)
from .solver import SCHEMES

PAPER_PER_ITERATION_SPEEDUP = 6.97
PAPER_TOTAL_SPEEDUP = 3.20

BENCH_FIELDS = (
    "resolution", "dofs", "constraints", "scheme", "build_wg_ms",
    "build_wg_cold_ms", "final_corr_ms", "rebuild_w_ms", "solve_ms", "corr_ms",
    "newton_iter_ms", "newton_iter_iqr_ms", "rebuilds", "step_total_ms",
    "step_total_iqr_ms",
    "update_fraction",
)

# the smallest valid count of each setting; timing rows need 3 repetitions
_LEAST = {"repetitions": 3, "warmup": 0, "newton_iterations": 1, "pgs_iterations": 1}


@dataclass
class BenchSpec:
    scene: str
    resolutions: list[int]
    schemes: list[str] = field(default_factory=lambda: ["standard", "fast"])
    repetitions: int = 5
    warmup: int = 3
    newton_iterations: int = 5
    pgs_iterations: int = 30

    def __post_init__(self):
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ValidationError(f"bench.{key}: must be >= {least}, got {getattr(self, key)}")
        resolutions = list(self.resolutions)
        if not resolutions or min(resolutions) < 1 or resolutions != sorted(set(resolutions)):
            raise ValidationError(
                f"bench.resolutions: expected strictly increasing counts >= 1, got {resolutions}"
            )
        if not self.schemes:
            raise ValidationError("bench.schemes: needs at least one scheme")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValidationError(
                    f"bench.schemes: unknown scheme {scheme!r}, pick from {SCHEMES}"
                )


def _list(value, where):
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list, got {value!r}")
    return value


def _counts(value, where):
    return [as_count(n, where) for n in _list(value, where)]


_SPEC = {"resolutions": ("resolutions", _counts), "schemes": ("schemes", _list),
         **{key: (key, as_count)
            for key in ("repetitions", "warmup", "newton_iterations", "pgs_iterations")}}


def load_bench_spec(path) -> BenchSpec:
    raw = read_yaml_mapping(path, "bench spec")
    if "scene" not in raw:
        raise ParseError(f"{path}: bench spec needs at least a 'scene' key")
    as_mapping(raw, "bench", ("scene", *_SPEC))
    require(raw, "resolutions", "bench")
    scene_path = raw["scene"]
    if not isinstance(scene_path, str):
        raise ValidationError(f"bench.scene: expected a file name, got {scene_path!r}")
    if not os.path.isabs(scene_path):
        scene_path = os.path.join(os.path.dirname(os.path.abspath(path)), scene_path)
    return BenchSpec(scene=scene_path, **read_settings(raw, "bench", _SPEC))


def measure_cell(config: SceneConfig, scheme: str, spec: BenchSpec) -> dict:
    """Medians of the per-phase samples for one (resolution, scheme) cell."""
    cfg = replace(
        config,
        newton=replace(
            config.newton,
            scheme=scheme,
            max_iterations=spec.newton_iterations,
            # benchmark every configured iteration; no early exit: penetration
            # is never negative, while 0.0 would stop a step whose
            # penetration reads exactly 0.0
            penetration_tol=-1.0,
        ),
        pgs=replace(config.pgs, max_iterations=spec.pgs_iterations),
    )
    sim = Simulation(cfg)
    warm = [sim.step() for _ in range(spec.warmup)]
    measured = [sim.step() for _ in range(spec.repetitions)]
    rebuilt = [it for rep in measured for it in rep.iterations if not it.kept]
    rebuild = [it.rebuild_time for it in rebuilt]
    solve = [it.solve_time for it in rebuilt]
    corr = [it.correction_time for it in rebuilt]
    iter_total = [it.rebuild_time + it.solve_time + it.correction_time for it in rebuilt]
    build_wg = [rep.t_build_wg for rep in measured]
    final_corr = [rep.t_final_correction for rep in measured]
    step_total = [rep.t_step for rep in measured]
    constraints = [rep.c_groups for rep in measured]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    med_iter = med(iter_total)
    update_fraction = (med(rebuild) + med(corr)) / med_iter if med_iter > 0 else 0.0
    return {
        "dofs": sim.total_dofs(),
        "constraints": med(constraints),
        "scheme": scheme,
        "build_wg_ms": 1e3 * med(build_wg),
        "build_wg_cold_ms": 1e3 * (warm + measured)[0].t_build_wg,
        "final_corr_ms": 1e3 * med(final_corr),
        "rebuild_w_ms": 1e3 * med(rebuild),
        "solve_ms": 1e3 * med(solve),
        "corr_ms": 1e3 * med(corr),
        "newton_iter_ms": 1e3 * med_iter,
        "newton_iter_iqr_ms": 1e3 * _iqr(iter_total),
        "rebuilds": len(iter_total),
        "step_total_ms": 1e3 * med(step_total),
        "step_total_iqr_ms": 1e3 * _iqr(step_total),
        "update_fraction": update_fraction,
    }


def _iqr(xs) -> float:
    """Interquartile range of the samples, quartiles interpolated linearly;
    0.0 for fewer than two."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def run_bench(spec: BenchSpec) -> tuple[list[dict], str]:
    config = load_scene(spec.scene)
    nx, _, nz = soft_box(config).box_params["divisions"]
    rows = []
    for resolution in spec.resolutions:
        cfg_r = with_box_divisions(config, (nx, resolution, nz))
        for scheme in spec.schemes:
            row = {"resolution": resolution}
            row.update(measure_cell(cfg_r, scheme, spec))
            rows.append(row)
    return rows, summarize(rows, spec)


def summarize(rows: list[dict], spec: BenchSpec) -> str:
    lines = []
    lines.append(
        f"benchmark: {os.path.basename(spec.scene)}, "
        f"{spec.newton_iterations} Newton x {spec.pgs_iterations} contact-solve iterations, "
        f"median of {spec.repetitions} steps after {spec.warmup} warmup"
    )
    header = (
        f"{'res':>5} {'DOFs':>7} {'cst':>6} {'scheme':>9} {'build Wg':>10} "
        f"{'cold Wg':>10} {'final corr':>10} {'rebuild W':>10} {'solve':>9} {'corr':>9} "
        f"{'Newton it':>10} {'it IQR':>9} {'rebuilds':>9} {'step':>9} {'step IQR':>9} "
        f"{'update':>7}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['resolution']:>5} {row['dofs']:>7} {row['constraints']:>6.1f} "
            f"{row['scheme']:>9} {row['build_wg_ms']:>8.2f}ms {row['build_wg_cold_ms']:>8.2f}ms "
            f"{row['final_corr_ms']:>8.2f}ms {row['rebuild_w_ms']:>8.2f}ms "
            f"{row['solve_ms']:>7.2f}ms {row['corr_ms']:>7.2f}ms {row['newton_iter_ms']:>8.2f}ms "
            f"{row['newton_iter_iqr_ms']:>7.2f}ms {row['rebuilds']:>9} "
            f"{row['step_total_ms']:>7.2f}ms "
            f"{row['step_total_iqr_ms']:>7.2f}ms {100 * row['update_fraction']:>6.1f}%"
        )
    by_res = {}
    for row in rows:
        by_res.setdefault(row["resolution"], {})[row["scheme"]] = row
    for resolution, cell in sorted(by_res.items()):
        if "standard" in cell and "fast" in cell:
            std, fast = cell["standard"], cell["fast"]
            per_it = std["newton_iter_ms"] / max(fast["newton_iter_ms"], 1e-12)
            total = std["step_total_ms"] / max(fast["step_total_ms"], 1e-12)
            lines.append(
                f"resolution {resolution}: fast is {per_it:.2f}x faster per Newton "
                f"iteration that rebuilds W ({std['rebuilds']} standard and "
                f"{fast['rebuilds']} fast rebuilds), {total:.2f}x over the whole step"
            )
    lines.append(
        f"reference (original GPU study, RTX 3080): {PAPER_PER_ITERATION_SPEEDUP:.2f}x "
        f"per iteration, {PAPER_TOTAL_SPEEDUP:.2f}x total; not comparable to this "
        "CPU build, shown for orientation only"
    )
    return "\n".join(lines)


def write_bench_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in BENCH_FIELDS})
