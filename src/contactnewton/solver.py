"""Projected Gauss-Seidel and the recursive corrective-motion schemes.

PGS sweeps the contact groups in canonical order. Each local solve handles
one group's 3 x 3 block with every other group frozen: the normal row is
updated first (clamped at zero), then the tangential pair is solved exactly
and projected onto the friction disk of radius mu * lambda_n. The sweep
stops when the relative change of lambda drops below the configured
tolerance.

The recursive correction is one Newton loop, :func:`_newton`. Its only
proximity state is the stacked relative position r = pA - pB, one 3-row per
pair. Each iteration re-linearizes the directions from r (stopping when they
turned by no more than ``rotation_tol``), rebuilds the compliance W, runs
PGS on the violation D r, moves r by the resulting impulse, and stops once
PGS's end-of-step penetration is within ``penetration_tol``. A scheme
supplies three operations:

  rebuild   W from the current directions D;
  move      r after the impulse D^T lambda;
  finish    the mechanical velocity corrections once the loop ends.

The two schemes bind them as follows:

  standard  rebuild W = sum H A^-1 H^T (multi-RHS backsolves); move by the
            mechanical correction dv = h A^-1 S^T D^T lambda and re-evaluate
            r from the corrected state; finish with the sum of the
            per-iteration corrections;

  fast      rebuild W = D W_g D^T (blockwise congruence); move in constraint
            space, r += h^2 W_g D^T lambda, with no system solve; finish
            with one mechanical correction by the accumulated impulse.

Iteration 1 always uses the detection-time directions, so a 1-iteration
loop is exactly the classic single-correction scheme.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .collision import ContactFrame, max_frame_rotation, relinearize
from .constraints import (
    assemble_H,
    assemble_W_standard,
    assemble_direction,
    compute_violation,
    fast_update_proximity,
    rebuild_W_fast,
)
from .errors import SingularBlockError, ValidationError
from .linalg import Factorization

SCHEMES = ("single", "standard", "fast")


@dataclass
class PgsConfig:
    max_iterations: int = 30
    tolerance: float = 1e-6
    friction: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("pgs.max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValidationError("pgs.tolerance must be positive")
        if self.friction < 0:
            raise ValidationError("friction coefficient must be >= 0")


@dataclass
class NewtonConfig:
    scheme: str = "single"
    max_iterations: int = 5
    penetration_tol: float = 1e-5
    relinearize: bool = True
    rotation_tol: float = 1e-4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}, pick from {SCHEMES}")
        if self.max_iterations < 1:
            raise ValidationError("newton.max_iterations must be >= 1")


@dataclass
class PgsResult:
    lam: np.ndarray
    delta_end: np.ndarray
    iterations: int
    eps_history: list[float]
    converged: bool


def regularize(W: np.ndarray) -> np.ndarray:
    """Shift singular per-group diagonal blocks so every local solve is posed.

    Applied only to groups whose 3 x 3 block is (numerically) singular, e.g.
    duplicated contacts; the shift is 1e-10 trace(W) / c.
    """
    c = W.shape[0]
    if c == 0:
        return W
    shift = 1e-10 * np.trace(W) / c
    if shift <= 0:
        shift = 1e-30
    out = None
    for g in range(c // 3):
        blk = W[3 * g : 3 * g + 3, 3 * g : 3 * g + 3]
        sym = 0.5 * (blk + blk.T)
        eigs = np.linalg.eigvalsh(sym)
        scale = max(abs(eigs).max(), 1e-300)
        if eigs.min() <= 1e-12 * scale:
            if out is None:
                out = W.copy()
            out[3 * g : 3 * g + 3, 3 * g : 3 * g + 3] += shift * np.eye(3)
    return W if out is None else out


def local_solve(
    alpha: int,
    W: np.ndarray,
    delta_cur: np.ndarray,
    lam: np.ndarray,
    mu: float,
    h2: float,
) -> np.ndarray:
    """One group's Signorini/Coulomb block solve with the others frozen.

    ``delta_cur`` is the violation at the current lambda. Normal row first,
    then the exact tangential 2 x 2 solve, then the disk projection.
    """
    i = 3 * alpha
    Wnn = W[i, i]
    if not Wnn > 0:
        raise SingularBlockError(f"group {alpha}: normal compliance {Wnn} not positive")
    ln_old = lam[i]
    ln = max(0.0, ln_old - delta_cur[i] / (h2 * Wnn))
    if ln == 0.0:
        return np.zeros(3)
    if mu == 0.0:
        return np.array([ln, 0.0, 0.0])
    dt = delta_cur[i + 1 : i + 3] + h2 * W[i + 1 : i + 3, i] * (ln - ln_old)
    T = h2 * W[i + 1 : i + 3, i + 1 : i + 3]
    det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    if not det > 0:
        raise SingularBlockError(f"group {alpha}: tangential block singular")
    # stick trial: zero the tangential gap exactly
    rhs = -dt
    dlt = np.array(
        [
            (T[1, 1] * rhs[0] - T[0, 1] * rhs[1]) / det,
            (T[0, 0] * rhs[1] - T[1, 0] * rhs[0]) / det,
        ]
    )
    lt = lam[i + 1 : i + 3] + dlt
    radius = mu * ln
    nt = float(np.hypot(lt[0], lt[1]))
    if nt > radius:
        lt = lt * (radius / nt)
    return np.array([ln, lt[0], lt[1]])


def pgs(W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig) -> PgsResult:
    """Sweep the groups until the relative lambda change drops below tolerance.

    Returns lambda and the end-of-step violation delta_base + h^2 W lambda.
    """
    c = len(delta_base)
    if c == 0:
        return PgsResult(np.zeros(0), np.zeros(0), 0, [], True)
    if W.shape != (c, c):
        raise SingularBlockError(f"W is {W.shape}, violation has {c} rows")
    W = regularize(W)
    h2 = h * h
    lam = np.zeros(c)
    delta_cur = delta_base.astype(np.float64).copy()
    eps_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        lam_prev = lam.copy()
        for g in range(c // 3):
            new = local_solve(g, W, delta_cur, lam, config.friction, h2)
            dl = new - lam[3 * g : 3 * g + 3]
            if dl.any():
                delta_cur += h2 * (W[:, 3 * g : 3 * g + 3] @ dl)
                lam[3 * g : 3 * g + 3] = new
        num = float(np.linalg.norm(lam - lam_prev))
        den = float(np.linalg.norm(lam))
        eps = 0.0 if num == 0.0 else (np.inf if den == 0.0 else num / den)
        eps_history.append(eps)
        if eps <= config.tolerance:
            converged = True
            break
    delta_end = delta_base + h2 * (W @ lam)
    return PgsResult(lam, delta_end, iterations, eps_history, converged)


# --- recursive correction schemes ----------------------------------------------


@dataclass
class StepContext:
    """Everything the correction schemes need for one time step."""

    pairs: list
    detection_frames: list[ContactFrame]
    S_by_object: dict[int, object]  # signed mapping per dynamic object
    F_by_object: dict[int, Factorization]
    r0: np.ndarray  # (p, 3) free-motion relative proximity positions pA - pB
    h: float
    refresh: Callable[[dict[int, np.ndarray]], np.ndarray]  # dv by object -> r
    wg: np.ndarray | None = None  # (3p, 3p) W_g = sum S A^-1 S^T


@dataclass
class IterationStats:
    rebuild_time: float
    pgs_time: float
    correction_time: float
    pgs_iterations: int
    pgs_eps: float
    penetration: float
    rotation: float


@dataclass
class CorrectionResult:
    dv_by_object: dict[int, np.ndarray]
    lam_history: list[np.ndarray]
    lam: np.ndarray  # (c,) grouped (lambda_n, lambda_t1, lambda_t2), last iteration
    iterations: list[IterationStats] = field(default_factory=list)
    final_frames: list[ContactFrame] = field(default_factory=list)
    final_correction_time: float = 0.0


def _penetration(delta_end: np.ndarray) -> float:
    normals = delta_end.reshape(-1, 3)[:, 0] if delta_end.size else np.zeros(0)
    return float(max(0.0, -(normals.min() if normals.size else 0.0)))


def _mechanical_correction(ctx: StepContext, t: np.ndarray) -> dict[str, np.ndarray]:
    """dv = h A^-1 S^T t per object, t being a proximity-space impulse."""
    dv = {}
    for oid in sorted(ctx.S_by_object):
        S = ctx.S_by_object[oid]
        rhs = S.T @ t
        dv[oid] = ctx.h * ctx.F_by_object[oid].solve(rhs)
    return dv


def _newton(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig, rebuild, move, finish
) -> CorrectionResult:
    """The recursive correction loop shared by both schemes.

    ``rebuild(D)`` returns W, ``move(D, lam, r)`` returns the new relative
    proximity positions, and ``finish(accumulated)`` turns the summed impulse
    D_k^T lambda_k into ``(dv_by_object, final_correction_time)``. The
    operations must look up their module-level names when called: the layer
    tracer of the benchmark patches those names.
    """
    frames = list(ctx.detection_frames)
    D = assemble_direction(frames)
    r = ctx.r0
    accumulated = np.zeros(3 * len(ctx.pairs))
    result = CorrectionResult({}, [], np.zeros(D.c))
    for k in range(ncfg.max_iterations):
        rotation = 0.0
        if k > 0 and ncfg.relinearize:
            new_frames = relinearize(r, frames)
            rotation = max_frame_rotation(frames, new_frames)
            frames = new_frames
            D = assemble_direction(frames)
            if rotation <= ncfg.rotation_tol:
                break
        t0 = time.perf_counter()
        W = rebuild(D)
        t1 = time.perf_counter()
        res = pgs(W, compute_violation(D, r), ctx.h, pcfg)
        t2 = time.perf_counter()
        r = move(D, res.lam, r)
        t3 = time.perf_counter()
        accumulated += D.apply_transposed(res.lam)
        result.lam_history.append(res.lam)
        result.lam = res.lam
        pen = _penetration(res.delta_end)
        result.iterations.append(
            IterationStats(
                rebuild_time=t1 - t0,
                pgs_time=t2 - t1,
                correction_time=t3 - t2,
                pgs_iterations=res.iterations,
                pgs_eps=res.eps_history[-1] if res.eps_history else 0.0,
                penetration=pen,
                rotation=rotation,
            )
        )
        if pen <= ncfg.penetration_tol:
            break
    result.dv_by_object, result.final_correction_time = finish(accumulated)
    result.final_frames = frames
    return result


def newton_standard(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction rebuilding W by multi-RHS backsolves each iteration."""
    dv = {oid: np.zeros(S.shape[1]) for oid, S in sorted(ctx.S_by_object.items())}

    def rebuild(D):
        H = {oid: assemble_H(D, S) for oid, S in sorted(ctx.S_by_object.items())}
        return assemble_W_standard(H, ctx.F_by_object)

    def move(D, lam, r):
        dv_k = _mechanical_correction(ctx, D.apply_transposed(lam))
        for oid in dv:
            dv[oid] = dv[oid] + dv_k[oid]
        return ctx.refresh(dv)

    return _newton(ctx, ncfg, pcfg, rebuild, move, lambda accumulated: (dv, 0.0))


def newton_fast(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction with the congruence rebuild and proximity-space updates.

    The loop performs no system solves; one mechanical correction with the
    accumulated impulse runs after it.
    """
    if ctx.wg is None:
        raise ValidationError("fast scheme needs the mapping compliance built upfront")

    def move(D, lam, r):
        return fast_update_proximity(r, ctx.wg, D, lam, ctx.h)

    def finish(accumulated):
        t0 = time.perf_counter()
        dv = _mechanical_correction(ctx, accumulated)
        return dv, time.perf_counter() - t0

    return _newton(ctx, ncfg, pcfg, lambda D: rebuild_W_fast(D, ctx.wg), move, finish)
