"""Projected Gauss-Seidel and the recursive corrective-motion schemes.

PGS sweeps the contact groups in canonical order. Each local solve handles
one group's 3 x 3 block with every other group frozen: the normal row is
updated first (clamped at zero), then the tangential pair is solved exactly
and projected onto the friction disk of radius mu * lambda_n. The sweep
stops when the relative change of lambda drops below the configured
tolerance. Every diagonal block must be positive definite, as it is when
each A side carries DOFs (detection pairs no pinned vertex); the local
solve raises :class:`SingularBlockError` on a block that is not.

A sweep runs on plain Python floats. Before the sweeps, :func:`pgs` takes
each group's diagonal-block scalars once (:func:`group_blocks`) and builds one
(n_groups, 3, c + 1) array whose block g is ``[h^2 W[3g:3g+3, :] |
delta_base[3g:3g+3]]``. Lambda is held in one (c + 1) array that ends in 1,
so the block times lambda is group g's violation at the current lambda: a
visit reads it with one gemv and hands it to :func:`local_solve` as floats.
The local solve maps float tuples to a float tuple, and a group whose lambda
changed writes its 3 entries into the array through a memoryview. Besides
that gemv, only the stop test (norms of the first c entries against the
previous sweep's copy) and the final ``delta_end`` go through numpy. The row
read sums the same products ``W[g rows, j] lambda_j`` as updating the whole
violation by each changed group's columns would, so it needs no symmetry of
W, and results move against that column order through summation order only.
The local solve's formulas and their order are those of the array version,
and the sweep is bitwise equal to an array oracle that reads rows the same
way (``tests/test_solver.py``); against both column-update orders lambda
differs at rounding level only.
To keep the local solve bitwise, the disk projection keeps ``np.hypot``:
``math.hypot`` rounds differently. To keep its cost low, ``np.hypot`` runs
only when the squared tangential impulse reaches (1 - 1e-6) times the squared
radius of the disk.

The recursive correction is one Newton loop, :func:`_newton`. Its only
proximity state is the stacked relative position r = pA - pB, one 3-row per
pair. Each iteration re-linearizes the directions from r (stopping when they
turned by no more than ``rotation_tol``), rebuilds the compliance W, runs
PGS on the violation D r, moves r by the resulting impulse, and stops once
PGS's end-of-step penetration is within ``penetration_tol``. The direction
matrix D is block diagonal and the loop holds it as its blocks, the (p, 3, 3)
frame array, so re-linearizing, the rotation test and every product with D
are array operations with no loop over pairs. A scheme supplies three
operations:

  rebuild   W from the current directions D;
  move      r after the impulse D^T lambda;
  finish    the mechanical velocity corrections dv by object, once the loop
            ends; the loop times the call.

The two schemes bind them as follows:

  standard  rebuild W = sum H A^-1 H^T (multi-RHS backsolves); move by the
            mechanical correction dv = h A^-1 S^T D^T lambda and re-evaluate
            r from the corrected state; finish with the sum of the
            per-iteration corrections;

  fast      rebuild W = D W_g D^T (blockwise congruence); move in constraint
            space, r += h^2 W_g D^T lambda, with no system solve; finish
            with one mechanical correction by the accumulated impulse, a
            gather from the columns of A^-1 the W_g build cached; the free
            motion is the step's only backsolve.

Iteration 1 always uses the detection-time directions, so a 1-iteration
loop is exactly the classic single-correction scheme.

Each iteration leaves one :class:`IterationStats` record, and the step's
report and ``newton.csv`` are built from these records alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .collision import Contacts, max_frame_rotation, relinearize
from .constraints import (
    apply_transposed,
    assemble_H,
    assemble_W_standard,
    assemble_direction,
    compute_violation,
    contact_dofs,
    fast_update_proximity,
    rebuild_W_fast,
)
from .errors import SingularBlockError, ValidationError, as_number
from .linalg import Factorization

SCHEMES = ("single", "standard", "fast")


@dataclass
class PgsConfig:
    max_iterations: int = 30
    tolerance: float = 1e-6
    friction: float = 0.5

    def __post_init__(self):
        self.max_iterations = as_number(self.max_iterations, "pgs.max_iterations", int)
        self.tolerance = as_number(self.tolerance, "pgs.tolerance")
        self.friction = as_number(self.friction, "pgs.friction")
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
    relinearize: bool = True  # off only in verify's scheme-equivalence check
    rotation_tol: float = 1e-4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}, pick from {SCHEMES}")
        # zero and negative tolerances are valid: they force iterations
        self.max_iterations = as_number(self.max_iterations, "newton.max_iterations", int)
        self.penetration_tol = as_number(self.penetration_tol, "newton.penetration_tol")
        self.rotation_tol = as_number(self.rotation_tol, "newton.rotation_tol")
        if self.max_iterations < 1:
            raise ValidationError("newton.max_iterations must be >= 1")


@dataclass
class PgsResult:
    lam: np.ndarray
    delta_end: np.ndarray
    iterations: int
    eps_history: list[float]
    converged: bool


def _block_index(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Fancy index picking the (c // 3, 3, 3) diagonal group blocks of a c x c matrix."""
    rows = np.arange(3 * (c // 3)).reshape(-1, 3)
    return rows[:, :, None], rows[:, None, :]


def group_blocks(W: np.ndarray, h2: float) -> list[tuple[float, ...]]:
    """Per group, the plain floats ``local_solve`` reads from W's diagonal block.

    Each entry is ``(Wnn, W_t1n, W_t2n, T00, T01, T10, T11, det)`` with
    ``T = h2 * W_tt`` the tangential block and ``det`` its determinant.
    """
    out = []
    for (wnn, _, _), (wt1n, w11, w12), (wt2n, w21, w22) in W[_block_index(len(W))].tolist():
        T00, T01, T10, T11 = h2 * w11, h2 * w12, h2 * w21, h2 * w22
        out.append((wnn, wt1n, wt2n, T00, T01, T10, T11, T00 * T11 - T01 * T10))
    return out


_ZERO = (0.0, 0.0, 0.0)


def local_solve(
    block: tuple[float, ...],
    delta: Sequence[float],
    lam: Sequence[float],
    mu: float,
    h2: float,
) -> tuple[float, float, float]:
    """One group's Signorini/Coulomb block solve with the others frozen.

    ``block`` is the group's entry of :func:`group_blocks`, ``delta`` its
    violation at the current lambda and ``lam`` its current lambda. Normal row
    first, then the exact tangential 2 x 2 solve, then the disk projection.
    Returns the group's new lambda.
    """
    Wnn, Wt1n, Wt2n, T00, T01, T10, T11, det = block
    if not Wnn > 0:
        raise SingularBlockError(f"normal compliance {Wnn} not positive")
    ln_old = lam[0]
    ln = ln_old - delta[0] / (h2 * Wnn)
    if not ln > 0.0:  # also -0.0 and NaN
        return _ZERO
    if mu == 0.0:
        return (ln, 0.0, 0.0)
    if not det > 0:
        raise SingularBlockError("tangential block singular")
    # stick trial: zero the tangential gap exactly
    rhs0 = -(delta[1] + h2 * Wt1n * (ln - ln_old))
    rhs1 = -(delta[2] + h2 * Wt2n * (ln - ln_old))
    lt0 = lam[1] + (T11 * rhs0 - T01 * rhs1) / det
    lt1 = lam[2] + (T00 * rhs1 - T10 * rhs0) / det
    radius = mu * ln
    rr = radius * radius
    # Project only when |lt| may reach the disk edge: the 1e-6 margin covers
    # the rounding of the squares wherever rr is a normal float.
    if lt0 * lt0 + lt1 * lt1 >= 0.999999 * rr or rr < 1e-290:
        nt = float(np.hypot(lt0, lt1))
        if nt > radius:
            scale = radius / nt
            lt0 *= scale
            lt1 *= scale
    return (ln, lt0, lt1)


def pgs(W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig) -> PgsResult:
    """Sweep the groups until the relative lambda change drops below tolerance.

    Returns lambda and the end-of-step violation delta_base + h^2 W lambda.
    """
    c = len(delta_base)
    if c == 0:
        return PgsResult(np.zeros(0), np.zeros(0), 0, [], True)
    if W.shape != (c, c) or c % 3:
        raise SingularBlockError(f"W is {W.shape}, violation has {c} rows (3 per group)")
    h2 = h * h
    mu = config.friction
    n_groups = c // 3
    blocks = group_blocks(W, h2)
    # rows[g] is the contiguous (3, c + 1) block [h^2 W[3g:3g+3, :] | delta_base[3g:3g+3]]
    rows = np.empty((n_groups, 3, c + 1))
    np.multiply(W.reshape(n_groups, 3, c), h2, out=rows[:, :, :c])
    rows[:, :, c] = delta_base.reshape(n_groups, 3)
    reads = [row.dot for row in rows]  # reads[g](lam) is group g's violation
    lam = np.zeros(c + 1)
    lam[c] = 1.0
    lam_items = memoryview(lam)  # single entries as Python floats, not numpy scalars
    lam_now = lam[:c]
    lam_prev = np.zeros(c)  # lam_now after the previous sweep
    eps_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        for g in range(n_groups):
            i = 3 * g
            old = (lam_items[i], lam_items[i + 1], lam_items[i + 2])
            try:
                new = local_solve(blocks[g], reads[g](lam).tolist(), old, mu, h2)
            except SingularBlockError as exc:
                raise SingularBlockError(f"group {g}: {exc}") from None
            if new != old:
                lam_items[i], lam_items[i + 1], lam_items[i + 2] = new
        num = float(np.linalg.norm(lam_now - lam_prev))
        den = float(np.linalg.norm(lam_now))
        eps = 0.0 if num == 0.0 else (np.inf if den == 0.0 else num / den)
        eps_history.append(eps)
        if eps <= config.tolerance:
            converged = True
            break
        lam_prev[:] = lam_now
    delta_end = delta_base + h2 * (W @ lam_now)
    return PgsResult(lam_now, delta_end, iterations, eps_history, converged)


# --- recursive correction schemes ----------------------------------------------


@dataclass
class StepContext:
    """Everything the correction schemes need for one time step."""

    pairs: Contacts
    detection_frames: np.ndarray  # (p, 3, 3), rows (n, t1, t2) per pair
    S_by_object: dict[int, object]  # signed mapping per dynamic object
    F_by_object: dict[int, Factorization]
    r0: np.ndarray  # (p, 3) free-motion relative proximity positions pA - pB
    h: float
    refresh: Callable[[dict[int, np.ndarray]], np.ndarray]  # dv by object -> r
    wg: np.ndarray | None = None  # (3p, 3p) W_g = sum S A^-1 S^T

    @cached_property
    def dofs_by_object(self) -> dict[int, np.ndarray]:
        """Each object's contact DOFs, derived once per step for W_g and the gather."""
        return {oid: contact_dofs(S) for oid, S in self.S_by_object.items()}


@dataclass
class IterationStats:
    """One Newton iteration; ``newton.csv`` has a column per field, in this order."""

    penetration: float  # PGS's end-of-step penetration, the stop test's value
    rebuild_time: float
    pgs_time: float
    correction_time: float  # moving r
    pgs_iterations: int
    pgs_eps: float
    pgs_converged: bool
    rotation: float  # frame turn measured before the iteration, 0 in the first


@dataclass
class CorrectionResult:
    dv_by_object: dict[int, np.ndarray]
    lam_history: list[np.ndarray]  # (c,) grouped (lambda_n, lambda_t1, lambda_t2) per iteration
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))  # step's force in final frames
    iterations: list[IterationStats] = field(default_factory=list)
    final_frames: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    final_correction_time: float = 0.0
    exit: str = "max_iterations"  # why the loop stopped; else "penetration" or "rotation"


def _penetration(delta_end: np.ndarray) -> float:
    normals = delta_end.reshape(-1, 3)[:, 0] if delta_end.size else np.zeros(0)
    return float(max(0.0, -(normals.min() if normals.size else 0.0)))


def _mechanical_correction(
    ctx: StepContext, t: np.ndarray, gather: bool = False
) -> dict[int, np.ndarray]:
    """dv = h A^-1 S^T t per object, t being a proximity-space impulse.

    S^T t is nonzero only on the object's contact DOFs J. With ``gather``,
    A^-1 S^T t is A^-1[:, J] (S^T t)[J] from the factorization's cached
    columns; otherwise it is a backsolve.
    """
    dv = {}
    for oid in sorted(ctx.S_by_object):
        rhs = ctx.S_by_object[oid].T @ t
        F = ctx.F_by_object[oid]
        if gather:
            J = ctx.dofs_by_object[oid]
            dv[oid] = ctx.h * F.inverse_columns_times(J, rhs[J])
        else:
            dv[oid] = ctx.h * F.solve(rhs)
    return dv


def _newton(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig, rebuild, move, finish
) -> CorrectionResult:
    """The recursive correction loop shared by both schemes.

    D is the (p, 3, 3) frame array. ``rebuild(D)`` returns W, ``move(D, lam,
    r)`` returns the new relative proximity positions, and
    ``finish(accumulated)`` turns the summed impulse D_k^T lambda_k into
    ``dv_by_object``. The step's force ``lam`` is that sum in the final
    frames, D_K sum_k D_k^T lambda_k. The operations must look up their
    module-level names when called: the layer tracer of the benchmark
    patches those names.
    """
    D = assemble_direction(ctx.detection_frames)
    r = ctx.r0
    accumulated = np.zeros(3 * len(ctx.pairs))
    result = CorrectionResult({}, [])
    for k in range(ncfg.max_iterations):
        rotation = 0.0
        if k > 0 and ncfg.relinearize:
            new_frames = relinearize(r, D)
            rotation = max_frame_rotation(D, new_frames)
            D = assemble_direction(new_frames)
            if rotation <= ncfg.rotation_tol:
                result.exit = "rotation"
                break
        t0 = time.perf_counter()
        W = rebuild(D)
        t1 = time.perf_counter()
        res = pgs(W, compute_violation(D, r), ctx.h, pcfg)
        t2 = time.perf_counter()
        r = move(D, res.lam, r)
        t3 = time.perf_counter()
        accumulated += apply_transposed(D, res.lam)
        result.lam_history.append(res.lam)
        pen = _penetration(res.delta_end)
        result.iterations.append(
            IterationStats(
                penetration=pen,
                rebuild_time=t1 - t0,
                pgs_time=t2 - t1,
                correction_time=t3 - t2,
                pgs_iterations=res.iterations,
                pgs_eps=res.eps_history[-1] if res.eps_history else 0.0,
                pgs_converged=res.converged,
                rotation=rotation,
            )
        )
        if pen <= ncfg.penetration_tol:
            result.exit = "penetration"
            break
    t0 = time.perf_counter()
    result.dv_by_object = finish(accumulated)
    result.final_correction_time = time.perf_counter() - t0
    result.final_frames = D
    result.lam = np.einsum("gij,gj->gi", D, accumulated.reshape(-1, 3)).ravel()
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
        dv_k = _mechanical_correction(ctx, apply_transposed(D, lam))
        for oid in dv:
            dv[oid] = dv[oid] + dv_k[oid]
        return ctx.refresh(dv)

    return _newton(ctx, ncfg, pcfg, rebuild, move, lambda accumulated: dv)


def newton_fast(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction with the congruence rebuild and proximity-space updates.

    The loop performs no system solves; one mechanical correction with the
    accumulated impulse runs after it, gathered from the cached columns of
    A^-1 rather than backsolved.
    """
    if ctx.wg is None:
        raise ValidationError("fast scheme needs the mapping compliance built upfront")

    def move(D, lam, r):
        return fast_update_proximity(r, ctx.wg, D, lam, ctx.h)

    def finish(accumulated):
        return _mechanical_correction(ctx, accumulated, gather=True)

    return _newton(ctx, ncfg, pcfg, lambda D: rebuild_W_fast(D, ctx.wg), move, finish)
