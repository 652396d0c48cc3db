"""Algebraic-identity and complementarity checks runnable on any scene.

Three checks back the `verify` CLI command:

  congruence-identity   D W_g D^T against the standard Schur complement,
                        at the detection directions and again after the
                        fast scheme has re-linearized them;
  complementarity       Signorini and Coulomb residuals after a converged
                        PGS solve on the first step's contact problem;
  scheme-equivalence    standard and fast recursive corrections agree on
                        lambda and positions when re-linearization is off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constraints import (
    assemble_H,
    assemble_W_standard,
    assemble_direction,
    compute_violation,
    rebuild_W_fast,
)
from .scene import SceneConfig, Simulation
from .solver import NewtonConfig, PgsConfig, newton_fast, newton_standard, pgs

IDENTITY_RTOL = 1e-9
EQUIVALENCE_RTOL = 1e-8
COMPLEMENTARITY_PGS = dict(max_iterations=200, tolerance=1e-6)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _identity_error(ctx, frames) -> tuple[float, float]:
    D = assemble_direction(frames)
    H = {oid: assemble_H(D, S) for oid, S in sorted(ctx.S_by_object.items())}
    W_std = assemble_W_standard(H, ctx.F_by_object)
    W_fast = rebuild_W_fast(D, ctx.wg)
    scale = max(np.abs(W_std).max(initial=0.0), 1e-300)
    return float(np.abs(W_fast - W_std).max(initial=0.0)), scale


def check_congruence_identity(config: SceneConfig, corrupt_wg=None) -> CheckResult:
    """|D W_g D^T - sum H A^-1 H^T| <= 1e-9 |W| at detection and after
    re-linearization. ``corrupt_wg`` is a test hook mutating W_g in place."""
    sim = Simulation(config)
    ctx, *_ = sim.prepare_step(build_wg=True)
    if not ctx.pairs:
        return CheckResult("congruence-identity", False, "scene has no contacts")
    if corrupt_wg is not None:
        corrupt_wg(ctx.wg)
    err0, scale0 = _identity_error(ctx, ctx.detection_frames)
    # drive the fast scheme a couple of iterations so directions move
    ncfg = NewtonConfig(scheme="fast", max_iterations=2, penetration_tol=0.0,
                        rotation_tol=0.0)
    result = newton_fast(ctx, ncfg, replace(config.pgs))
    err1, scale1 = _identity_error(ctx, result.final_frames)
    worst = max(err0 / scale0, err1 / scale1)
    return CheckResult(
        "congruence-identity",
        worst <= IDENTITY_RTOL,
        f"max relative deviation {worst:.3e} (tolerance {IDENTITY_RTOL:.0e})",
    )


def check_complementarity(config: SceneConfig) -> CheckResult:
    """Signorini/Coulomb residuals after a converged PGS on the first step."""
    sim = Simulation(config)
    ctx, *_ = sim.prepare_step(build_wg=True)
    if not ctx.pairs:
        return CheckResult("complementarity", False, "scene has no contacts")
    D = assemble_direction(ctx.detection_frames)
    W = rebuild_W_fast(D, ctx.wg)
    delta = compute_violation(D, ctx.p_a0, ctx.p_b0)
    pcfg = PgsConfig(friction=config.pgs.friction, **COMPLEMENTARITY_PGS)
    res = pgs(W, delta, config.h, pcfg)
    mu = pcfg.friction
    tol_c = 1e-6 * max(1.0, float(np.abs(delta).max()))
    worst = 0.0
    ok = True
    for g in range(len(ctx.pairs)):
        ln = res.lam[3 * g]
        lt = float(np.hypot(res.lam[3 * g + 1], res.lam[3 * g + 2]))
        dn = res.delta_end[3 * g]
        ok &= ln >= 0.0
        ok &= dn >= -1e-6
        ok &= ln * dn <= tol_c
        ok &= lt <= mu * ln + 1e-9
        worst = max(worst, abs(min(dn, 0.0)), ln * dn, lt - mu * ln)
    return CheckResult(
        "complementarity",
        bool(ok),
        f"{len(ctx.pairs)} groups, worst residual {worst:.3e} "
        f"(converged={res.converged} in {res.iterations} sweeps)",
    )


def check_scheme_equivalence(config: SceneConfig) -> CheckResult:
    """With re-linearization disabled the two recursive schemes must agree."""
    ncfg = dict(max_iterations=4, relinearize=False, penetration_tol=1e-12)
    pcfg = PgsConfig(max_iterations=150, tolerance=1e-10, friction=config.pgs.friction)

    sim_s = Simulation(config)
    ctx_s, *_ = sim_s.prepare_step(build_wg=False)
    if not ctx_s.pairs:
        return CheckResult("scheme-equivalence", False, "scene has no contacts")
    std = newton_standard(ctx_s, NewtonConfig(scheme="standard", **ncfg), pcfg)

    sim_f = Simulation(config)
    ctx_f, *_ = sim_f.prepare_step(build_wg=True)
    fast = newton_fast(ctx_f, NewtonConfig(scheme="fast", **ncfg), pcfg)

    if len(std.lam_history) != len(fast.lam_history):
        return CheckResult(
            "scheme-equivalence", False,
            f"iteration counts differ: {len(std.lam_history)} vs {len(fast.lam_history)}",
        )
    lam_scale = max((float(np.abs(l).max()) for l in std.lam_history), default=0.0)
    lam_scale = max(lam_scale, 1e-300)
    worst = 0.0
    for ls, lf in zip(std.lam_history, fast.lam_history):
        worst = max(worst, float(np.abs(ls - lf).max()) / lam_scale)
    for oid in sorted(std.dv_by_object):
        ds = std.dv_by_object[oid]
        df = fast.dv_by_object.get(oid, np.zeros_like(ds))
        dv_scale = max(float(np.abs(ds).max()), 1e-300)
        worst = max(worst, float(np.abs(ds - df).max()) / dv_scale)
    return CheckResult(
        "scheme-equivalence",
        worst <= EQUIVALENCE_RTOL,
        f"max relative deviation {worst:.3e} (tolerance {EQUIVALENCE_RTOL:.0e})",
    )


def run_verification(config: SceneConfig, corrupt_wg=None) -> list[CheckResult]:
    return [
        check_congruence_identity(config, corrupt_wg=corrupt_wg),
        check_complementarity(config),
        check_scheme_equivalence(config),
    ]
