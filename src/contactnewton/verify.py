"""Algebraic-identity and complementarity checks runnable on any scene.

Three checks back the `verify` CLI command:

  congruence-identity   D W_g D^T against the standard Schur complement,
                        at the detection directions and again after the
                        fast scheme has re-linearized them;
  complementarity       Signorini and Coulomb residuals after the fast
                        Newton loop's first contact solve on the first step;
  scheme-equivalence    standard and fast recursive corrections agree on
                        lambda and velocity increments over 4 forced
                        iterations of the production Newton loop, whose
                        directions are re-linearized at the supporting
                        elements' normals in every iteration after the
                        first, each contact solve cut after one Newton
                        step so that every iteration carries force.

Every check probes the first step of the scene through one shared context
from :func:`prepare`; the correction schemes only read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import assemble_Wg, assemble_direction, compute_violation, rebuild_W_fast
from .scene import SceneConfig, Simulation
from .solver import (NewtonConfig, PgsConfig, StepContext, newton_fast, newton_standard,
                     rebuild_W_standard)

IDENTITY_RTOL = 1e-9
EQUIVALENCE_RTOL = 1e-8
COMPLEMENTARITY_PGS = dict(max_iterations=200)
# lambda = 0 and one Newton step: a converged solve would leave the later,
# re-linearized iterations almost nothing to correct, so a wrong W there
# would change almost nothing the check compares
EQUIVALENCE_PGS = dict(max_iterations=2)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _identity_error(ctx, frames) -> tuple[float, float]:
    D = assemble_direction(frames)
    W_std = rebuild_W_standard(D, ctx)
    W_fast = rebuild_W_fast(D, ctx.wg)
    scale = max(np.abs(W_std).max(initial=0.0), 1e-300)
    return float(np.abs(W_fast - W_std).max(initial=0.0)), scale


def prepare(config: SceneConfig) -> StepContext:
    """The first step's solver context, with W_g built whatever the scheme."""
    ctx = Simulation(config).prepare_step().ctx
    if ctx.wg is None:
        ctx.wg, ctx.X_by_object = assemble_Wg(ctx.S_by_object, ctx.F_by_object)
    return ctx


def check_congruence_identity(config: SceneConfig, ctx: StepContext) -> CheckResult:
    """|D W_g D^T - sum H A^-1 H^T| <= 1e-9 |W| at detection and after
    re-linearization."""
    if not ctx.pairs:
        return CheckResult("congruence-identity", False, "scene has no contacts")
    err0, scale0 = _identity_error(ctx, ctx.detection_frames)
    # drive the fast scheme two iterations so directions move; a negative
    # tolerance forces the second, re-linearized one (as scheme-equivalence)
    ncfg = NewtonConfig(scheme="fast", max_iterations=2, penetration_tol=-1.0)
    result = newton_fast(ctx, ncfg, config.pgs)
    err1, scale1 = _identity_error(ctx, result.frames)
    worst = max(err0 / scale0, err1 / scale1)
    return CheckResult(
        "congruence-identity",
        worst <= IDENTITY_RTOL,
        f"max relative deviation {worst:.3e} (tolerance {IDENTITY_RTOL:.0e})",
    )


def check_complementarity(config: SceneConfig, ctx: StepContext) -> CheckResult:
    """Signorini/Coulomb residuals after the fast Newton loop's first contact solve."""
    if not ctx.pairs:
        return CheckResult("complementarity", False, "scene has no contacts")
    pcfg = PgsConfig(friction=config.pgs.friction, **COMPLEMENTARITY_PGS)
    result = newton_fast(ctx, NewtonConfig(scheme="fast", max_iterations=1), pcfg)
    [res] = result.solves
    delta = compute_violation(result.frames, ctx.r0)
    mu = pcfg.friction
    tol_c = 1e-6 * max(1.0, float(np.abs(delta).max()))
    lam = res.lam.reshape(-1, 3)
    ln, dn = lam[:, 0], res.delta_end[0::3]
    lt = np.hypot(lam[:, 1], lam[:, 2])
    ok = (ln >= 0.0) & (dn >= -1e-6) & (ln * dn <= tol_c) & (lt <= mu * ln + 1e-9)
    return CheckResult(
        "complementarity",
        bool(ok.all()),
        f"{len(ctx.pairs)} groups, worst residual {res.residual:.3e} "
        f"(converged={res.converged} in {res.iterations} iterations)",
    )


def check_scheme_equivalence(config: SceneConfig, ctx: StepContext) -> CheckResult:
    """The two recursive schemes must agree, iteration by iteration.

    A negative tolerance forces all 4 iterations: penetration is never
    negative, so the stop test cannot end the loop early. Each contact
    solve stops after one Newton step (``EQUIVALENCE_PGS``), so every
    iteration leaves the next one force to add in its turned frames.
    Besides each iteration's lambda, the check compares the step's velocity
    increments, which both schemes end with the same final solve.
    """
    ncfg = dict(max_iterations=4, penetration_tol=-1.0)
    pcfg = PgsConfig(friction=config.pgs.friction, **EQUIVALENCE_PGS)
    if not ctx.pairs:
        return CheckResult("scheme-equivalence", False, "scene has no contacts")
    std = newton_standard(ctx, NewtonConfig(scheme="standard", **ncfg), pcfg)
    fast = newton_fast(ctx, NewtonConfig(scheme="fast", **ncfg), pcfg)

    if len(std.solves) != len(fast.solves):
        return CheckResult(
            "scheme-equivalence", False,
            f"iteration counts differ: {len(std.solves)} vs {len(fast.solves)}",
        )
    lam_scale = max((float(np.abs(s.lam).max()) for s in std.solves), default=0.0)
    lam_scale = max(lam_scale, 1e-300)
    worst = 0.0
    for ss, sf in zip(std.solves, fast.solves):
        worst = max(worst, float(np.abs(ss.lam - sf.lam).max()) / lam_scale)
    for oid, ds in sorted(std.dv_by_object.items()):
        dv_scale = max(float(np.abs(ds).max()), 1e-300)
        worst = max(worst, float(np.abs(ds - fast.dv_by_object[oid]).max()) / dv_scale)
    return CheckResult(
        "scheme-equivalence",
        worst <= EQUIVALENCE_RTOL,
        f"max relative deviation {worst:.3e} (tolerance {EQUIVALENCE_RTOL:.0e})",
    )


def run_verification(config: SceneConfig) -> list[CheckResult]:
    ctx = prepare(config)
    return [
        check_congruence_identity(config, ctx),
        check_complementarity(config, ctx),
        check_scheme_equivalence(config, ctx),
    ]
