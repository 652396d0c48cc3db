"""Benchmark matrix comparing the standard and fast update schemes.

For every (resolution, scheme) cell the harness re-meshes the scene's
procedural soft box, runs warmup steps, then measures per-phase wall times
over the configured repetitions. Reported numbers are medians: the rebuild,
PGS and correction columns are per-Newton-iteration medians; building the
mapping compliance runs once per step. After the first step that build is a
gather from cached columns of A^-1, so its median is the warm cost and
``build_wg_cold_ms`` reports the cell's first step, which fills the cache.
The update fraction is (rebuild + correction) / per-iteration total.

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

import yaml

from .errors import ParseError, ValidationError
from .scene import (
    OutputConfig,
    SceneConfig,
    Simulation,
    SoftSpec,
    _mapping,
    _number,
    load_scene,
    with_box_divisions,
)

PAPER_PER_ITERATION_SPEEDUP = 6.97
PAPER_TOTAL_SPEEDUP = 3.20

BENCH_FIELDS = (
    "resolution", "dofs", "constraints", "scheme", "build_wg_ms",
    "build_wg_cold_ms", "rebuild_w_ms", "pgs_ms", "corr_ms", "newton_iter_ms",
    "step_total_ms", "update_fraction",
)


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
        if self.repetitions < 3:
            raise ValidationError("bench repetitions must be >= 3 for timing rows")
        if list(self.resolutions) != sorted(set(self.resolutions)):
            raise ValidationError("bench resolutions must be strictly increasing")
        if not self.resolutions:
            raise ValidationError("bench needs at least one resolution")
        for scheme in self.schemes:
            if scheme not in ("standard", "fast", "single"):
                raise ValidationError(f"unknown bench scheme {scheme!r}")


_SPEC_KEYS = ("scene", "resolutions", "schemes", "repetitions", "warmup",
              "newton_iterations", "pgs_iterations")


def _list(raw, key, default):
    value = raw.get(key, default)
    if not isinstance(value, list):
        raise ValidationError(f"bench.{key}: expected a list, got {value!r}")
    return value


def load_bench_spec(path) -> BenchSpec:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or "scene" not in raw:
        raise ParseError(f"{path}: bench spec needs at least a 'scene' key")
    _mapping(raw, "bench", _SPEC_KEYS)
    scene_path = raw["scene"]
    if not isinstance(scene_path, str):
        raise ValidationError(f"bench.scene: expected a file name, got {scene_path!r}")
    if not os.path.isabs(scene_path):
        scene_path = os.path.join(os.path.dirname(os.path.abspath(path)), scene_path)
    count = lambda key, default: _number(raw.get(key, default), f"bench.{key}", int)
    return BenchSpec(
        scene=scene_path,
        resolutions=[_number(r, "bench.resolutions", int) for r in _list(raw, "resolutions", [])],
        schemes=_list(raw, "schemes", ["standard", "fast"]),
        repetitions=count("repetitions", 5),
        warmup=count("warmup", 3),
        newton_iterations=count("newton_iterations", 5),
        pgs_iterations=count("pgs_iterations", 30),
    )


def _base_divisions(config: SceneConfig):
    for spec in config.objects:
        if isinstance(spec, SoftSpec) and spec.box_params is not None:
            return spec.box_params["divisions"]
    raise ValidationError("bench scene needs a procedural soft box")


def measure_cell(config: SceneConfig, scheme: str, spec: BenchSpec) -> dict:
    """Medians of the per-phase samples for one (resolution, scheme) cell."""
    cfg = replace(
        config,
        newton=replace(
            config.newton,
            scheme=scheme,
            max_iterations=spec.newton_iterations,
            # benchmark every configured iteration; no early exit
            penetration_tol=0.0,
            rotation_tol=0.0,
        ),
        pgs=replace(config.pgs, max_iterations=spec.pgs_iterations),
        output=OutputConfig(snapshots=False, metrics=False),
    )
    sim = Simulation(cfg)
    warm = [sim.step() for _ in range(spec.warmup)]
    measured = [sim.step() for _ in range(spec.repetitions)]
    rebuild, pgs_t, corr, iter_total = [], [], [], []
    build_wg, step_total, constraints = [], [], []
    for rep in measured:
        for it in rep.iterations:
            rebuild.append(it.rebuild_time)
            pgs_t.append(it.pgs_time)
            corr.append(it.correction_time)
            iter_total.append(it.rebuild_time + it.pgs_time + it.correction_time)
        build_wg.append(rep.t_build_wg)
        step_total.append(rep.t_step)
        constraints.append(rep.c_groups)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    med_iter = med(iter_total)
    update_fraction = (med(rebuild) + med(corr)) / med_iter if med_iter > 0 else 0.0
    return {
        "dofs": sim.total_dofs(),
        "constraints": med(constraints),
        "scheme": scheme,
        "build_wg_ms": 1e3 * med(build_wg),
        "build_wg_cold_ms": 1e3 * (warm + measured)[0].t_build_wg,
        "rebuild_w_ms": 1e3 * med(rebuild),
        "pgs_ms": 1e3 * med(pgs_t),
        "corr_ms": 1e3 * med(corr),
        "newton_iter_ms": 1e3 * med_iter,
        "step_total_ms": 1e3 * med(step_total),
        "update_fraction": update_fraction,
    }


def run_bench(spec: BenchSpec) -> tuple[list[dict], str]:
    config = load_scene(spec.scene)
    nx, _, nz = _base_divisions(config)
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
        f"{spec.newton_iterations} Newton x {spec.pgs_iterations} PGS iterations, "
        f"median of {spec.repetitions} steps after {spec.warmup} warmup"
    )
    header = (
        f"{'res':>5} {'DOFs':>7} {'cst':>6} {'scheme':>9} {'build Wg':>10} "
        f"{'cold Wg':>10} {'rebuild W':>10} {'PGS':>9} {'corr':>9} "
        f"{'Newton it':>10} {'step':>9} {'update':>7}"
    )
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['resolution']:>5} {row['dofs']:>7} {row['constraints']:>6.1f} "
            f"{row['scheme']:>9} {row['build_wg_ms']:>8.2f}ms {row['build_wg_cold_ms']:>8.2f}ms "
            f"{row['rebuild_w_ms']:>8.2f}ms {row['pgs_ms']:>7.2f}ms {row['corr_ms']:>7.2f}ms {row['newton_iter_ms']:>8.2f}ms "
            f"{row['step_total_ms']:>7.2f}ms {100 * row['update_fraction']:>6.1f}%"
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
                f"iteration, {total:.2f}x over the whole step"
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
