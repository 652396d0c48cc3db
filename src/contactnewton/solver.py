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
each group's diagonal-block scalars once (:func:`group_blocks`, with the
h^2 products the local solve needs) and builds one (n_groups, 3, c + 1)
array whose block g is ``[h^2 W[3g:3g+3, :] | delta_base[3g:3g+3]]``.
Lambda is held in one (c + 1) array that ends in 1, so the block times
lambda is group g's violation at the current lambda: a visit reads it with
one gemv and hands it to :func:`local_solve` as floats, together with the
group's current lambda from a list of float triples. The local solve maps
float tuples to a float tuple, and a group whose lambda changed replaces its
triple and writes its 3 entries into the array through a memoryview. Besides
that gemv, only the stop test (``sqrt(x . x)``, what ``np.linalg.norm``
computes for a 1-D float array, of the first c entries and of their change
since the previous sweep) and the final ``delta_end`` go through numpy. The
row read sums the same products ``W[g rows, j] lambda_j`` as updating the
whole violation by each changed group's columns would, so it needs no
symmetry of W, and results move against that column order through summation
order only. The local solve's formulas and their order are those of the
array version, and the sweep is bitwise equal to an array oracle that reads
rows the same way (``tests/test_solver.py``); against both column-update
orders lambda differs at rounding level only. The disk projection takes the
tangential length as ``abs(complex(lt0, lt1))``: CPython's complex ``abs``
calls the C library's ``hypot``, as ``np.hypot`` does, at a fraction of a
numpy call's cost (``math.hypot`` rounds differently), so it runs on every
friction visit. Where that length overflows although both components are
finite, complex ``abs`` raises ``OverflowError`` (``np.hypot`` returned inf)
and :func:`pgs` raises :class:`NonFiniteStateError` naming the group.

A visit whose local solve provably returns zero again is skipped. A group at
lambda = 0 gets zero back exactly when its normal violation reads
delta_n >= 0. Let omega_g = max_j |h^2 W[3g, j]| and let ``moved`` be the sum
of |d lambda|_1 over every lambda write of the call. Once a group read
delta_rec at lambda = 0 and got zero back with ``moved`` at m_rec, its exact
violation can since have fallen by at most omega_g (moved - m_rec). So its
visits are skipped while delta_rec - omega_g (moved - m_rec) exceeds the
margin rho (|delta_rec| + omega_g m_rec) + 1e-300. The margin covers the
rounding of both row reads, each at most (c + 1) u (|delta_base| + omega_g
|lambda|_1) with u = 2^-53 and |lambda|_1 <= moved, and the rounding of
``moved``'s running sum, at most (writes) u moved. Hence rho = 8 u (c + 4 +
groups x the sweep cap), the last term bounding the writes. The absolute
term covers underflow. A skipped visit leaves lambda as the local solve would
have, so lambda, the sweep count and ``delta_end`` are bitwise those of the
sweep that visits every group; ``PgsResult.local_solves`` counts the visits
that ran. Input with NaN or infinity raises :class:`NonFiniteStateError`
before the first sweep, which also keeps the bound's arithmetic finite.

The recursive correction is one Newton loop, :func:`_newton`. Its only
proximity state is the stacked relative position r = pA - pB, one 3-row per
pair. Each iteration re-linearizes the directions from r (stopping when they
turned by no more than ``rotation_tol``), rebuilds the compliance W, runs
PGS on the violation D r, moves r by the resulting impulse, and stops once
PGS's end-of-step penetration is within ``penetration_tol``. The direction
matrix D is block diagonal and the loop holds it as its blocks, the (p, 3, 3)
frame array, so re-linearizing, the rotation test and every product with D
are array operations with no loop over pairs. A scheme supplies two
operations:

  rebuild   W from the current directions D;
  move      r after the impulse D^T lambda.

The two schemes bind them as follows:

  standard  rebuild W = sum H A^-1 H^T (multi-RHS backsolves); move by the
            mechanical correction dv = h A^-1 S^T D^T lambda, one backsolve
            per object, and re-evaluate r from the corrected state;

  fast      rebuild W = D W_g D^T (blockwise congruence); move in constraint
            space, r += h^2 W_g D^T lambda, with no system solve.

Both end the step the same way, timed by the loop: one solve per object,
dv = A^-1 (b + h S^T sum_k D_k^T lambda_k), free motion and correction
together (:func:`_mechanical_correction`). The free motion left the forward
pass of A^-1 b (``y_free``) and only the part of its backward pass that
contact reads (``scene``). The forward pass of the correction's right-hand
side skips its leading zero rows (``linalg``), and one backward pass over
the whole band finishes the sum. So per object a fast step makes one
forward and one backward pass over the whole band, and two over trailing
rows only: the free motion's backward pass and the correction's forward
pass. The standard scheme's per-iteration solves only feed the proximity
refresh.

Iteration 1 always uses the detection-time directions, so a 1-iteration
loop is exactly the classic single-correction scheme. Every later iteration
re-linearizes; there is no frozen-direction variant. Negative tolerances
force every iteration, since penetration and frame turn are never negative:
``contactnewton verify`` compares the two schemes on this loop that way.

Each iteration leaves one :class:`IterationStats` record, and the step's
report and ``newton.csv`` are built from these records alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .collision import Contacts, max_frame_rotation, relinearize
from .constraints import (
    apply_transposed,
    assemble_H,
    assemble_W_standard,
    assemble_direction,
    compute_violation,
    fast_update_proximity,
    rebuild_W_fast,
)
from .errors import NonFiniteStateError, SingularBlockError, ValidationError, as_number
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
    rotation_tol: float = 1e-4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"newton.scheme: unknown scheme {self.scheme!r}, pick from {SCHEMES}"
            )
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
    local_solves: int = 0  # local_solve calls the sweeps made; skipped visits make none


def group_blocks(W: np.ndarray, h2: float) -> list[tuple[float, ...]]:
    """Per group, the plain floats ``local_solve`` reads from W's diagonal block.

    Each entry is ``(Wnn, h2 Wnn, h2 W_t1n, h2 W_t2n, T00, T01, T10, T11,
    det)`` with ``T = h2 * W_tt`` the tangential block and ``det`` its
    determinant.
    """
    n = len(W) // 3
    B = W.reshape(n, 3, n, 3).diagonal(axis1=0, axis2=2)  # B[i, j, g] = W[3g + i, 3g + j]
    hB = h2 * B
    T00, T01, T10, T11 = hB[1, 1], hB[1, 2], hB[2, 1], hB[2, 2]
    det = T00 * T11 - T01 * T10
    columns = (B[0, 0], hB[0, 0], hB[1, 0], hB[2, 0], T00, T01, T10, T11, det)
    return list(zip(*np.stack(columns).tolist()))


_ZERO = (0.0, 0.0, 0.0)

# The skip test's rounding margin (module docstring): rho = _SKIP_ROUNDING *
# (c + 4 + groups x sweeps) relative, plus _SKIP_FLOOR absolute for underflow.
_SKIP_ROUNDING = 8 * 2.0**-53
_SKIP_FLOOR = 1e-300


def local_solve(
    block: tuple[float, ...],
    delta: Sequence[float],
    lam: Sequence[float],
    mu: float,
) -> tuple[float, float, float]:
    """One group's Signorini/Coulomb block solve with the others frozen.

    ``block`` is the group's entry of :func:`group_blocks`, ``delta`` its
    violation at the current lambda and ``lam`` its current lambda. Normal row
    first, then the exact tangential 2 x 2 solve, then the disk projection.
    Returns the group's new lambda. Raises ``OverflowError`` when the
    tangential impulse's length overflows a float.
    """
    Wnn, hWnn, hWt1n, hWt2n, T00, T01, T10, T11, det = block
    if not Wnn > 0:
        raise SingularBlockError(f"normal compliance {Wnn} not positive")
    ln_old = lam[0]
    ln = ln_old - delta[0] / hWnn
    if not ln > 0.0:  # also -0.0 and NaN
        return _ZERO
    if mu == 0.0:
        return (ln, 0.0, 0.0)
    if not det > 0:
        raise SingularBlockError("tangential block singular")
    # stick trial: zero the tangential gap exactly
    rhs0 = -(delta[1] + hWt1n * (ln - ln_old))
    rhs1 = -(delta[2] + hWt2n * (ln - ln_old))
    lt0 = lam[1] + (T11 * rhs0 - T01 * rhs1) / det
    lt1 = lam[2] + (T00 * rhs1 - T10 * rhs0) / det
    radius = mu * ln
    nt = abs(complex(lt0, lt1))  # C hypot, as np.hypot
    if nt > radius:
        scale = radius / nt
        lt0 *= scale
        lt1 *= scale
    return (ln, lt0, lt1)


def pgs(W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig) -> PgsResult:
    """Sweep the groups until the relative lambda change drops below tolerance.

    Returns lambda and the end-of-step violation delta_base + h^2 W lambda.
    Visits that provably leave a separated group at zero are skipped (module
    docstring). A non-finite entry in W or delta_base raises
    :class:`NonFiniteStateError` naming the first bad group, and so does a
    local solve whose tangential impulse length overflows.
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
    finite = np.isfinite(rows)
    if not finite.all():
        g = int(np.argmin(finite.all(axis=(1, 2))))
        what = "violation" if finite[g, :, :c].all() else "compliance row"
        raise NonFiniteStateError(f"group {g}: non-finite {what} handed to PGS")
    reads = [row.dot for row in rows]  # reads[g](lam) is group g's violation
    lam = np.zeros(c + 1)
    lam[c] = 1.0
    lam_items = memoryview(lam)  # writes single entries from Python floats
    lam_groups = [_ZERO] * n_groups  # lam's groups as float triples
    lam_now = lam[:c]
    lam_prev = np.zeros(c)  # lam_now after the previous sweep
    # the skip bound (module docstring): group g's visits are skipped while
    # moved, the summed |d lambda|_1 of every write, is below skip_until[g]
    omega = np.abs(rows[:, 0, :c]).max(axis=1).tolist()
    rel = _SKIP_ROUNDING * (c + 4 + n_groups * config.max_iterations)
    moved = 0.0
    skip_until = [-math.inf] * n_groups
    skipped = 0
    eps_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        for g in range(n_groups):
            if moved < skip_until[g]:
                skipped += 1
                continue
            old = lam_groups[g]
            delta = reads[g](lam).tolist()
            try:
                new = local_solve(blocks[g], delta, old, mu)
            except SingularBlockError as exc:
                raise SingularBlockError(f"group {g}: {exc}") from None
            except OverflowError:
                raise NonFiniteStateError(
                    f"group {g}: tangential impulse overflows in the local solve"
                ) from None
            if new != old:
                lam_groups[g] = new
                i = 3 * g
                lam_items[i], lam_items[i + 1], lam_items[i + 2] = new
                moved += abs(new[0] - old[0]) + abs(new[1] - old[1]) + abs(new[2] - old[2])
            elif new is _ZERO:  # separated, and stays so until moved reaches the limit
                dn = delta[0]
                margin = rel * (abs(dn) + omega[g] * moved) + _SKIP_FLOOR
                skip_until[g] = moved + (dn - margin) / omega[g]
        step = lam_now - lam_prev
        num = math.sqrt(step.dot(step))  # np.linalg.norm of a 1-D float array
        den = math.sqrt(lam_now.dot(lam_now))
        eps = 0.0 if num == 0.0 else (math.inf if den == 0.0 else num / den)
        eps_history.append(eps)
        if eps <= config.tolerance:
            converged = True
            break
        lam_prev[:] = lam_now
    delta_end = delta_base + h2 * (W @ lam_now)
    local_solves = n_groups * iterations - skipped
    return PgsResult(lam_now, delta_end, iterations, eps_history, converged, local_solves)


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
    y_free: dict[int, np.ndarray]  # forward pass of the free motion A^-1 b per object
    wg: np.ndarray | None = None  # (3p, 3p) W_g = sum S A^-1 S^T


@dataclass
class IterationStats:
    """One Newton iteration; ``newton.csv`` has a column per field, in this order."""

    penetration: float  # PGS's end-of-step penetration, the stop test's value
    rebuild_time: float
    pgs_time: float
    correction_time: float  # moving r
    pgs_iterations: int
    pgs_local_solves: int  # local solves PGS ran, skipped visits excluded
    pgs_eps: float
    pgs_converged: bool
    rotation: float  # frame turn measured before the iteration, 0 in the first


@dataclass
class CorrectionResult:
    # v_new - v by object, free motion and correction: A^-1 (b + h S^T impulse)
    dv_by_object: dict[int, np.ndarray]
    lam_history: list[np.ndarray]  # (c,) grouped (lambda_n, lambda_t1, lambda_t2) per iteration
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))  # step's force in final frames
    impulse: np.ndarray = field(default_factory=lambda: np.zeros(0))  # sum D_k^T lambda_k
    iterations: list[IterationStats] = field(default_factory=list)
    final_frames: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    final_correction_time: float = 0.0
    exit: str = "max_iterations"  # why the loop stopped; else "penetration" or "rotation"


def _penetration(delta_end: np.ndarray) -> float:
    normals = delta_end.reshape(-1, 3)[:, 0] if delta_end.size else np.zeros(0)
    return float(max(0.0, -(normals.min() if normals.size else 0.0)))


def _mechanical_correction(ctx: StepContext, t: np.ndarray) -> dict[int, np.ndarray]:
    """The step's velocity increment per object, t being the proximity-space
    impulse: dv = A^-1 (b + h S^T t), free motion and correction in one solve.

    The forward pass of h S^T t skips its leading zero rows (it is nonzero
    only on the object's contact DOFs) and adds to the free motion's forward
    pass ``ctx.y_free``; one backward pass over the whole band finishes both.
    """
    return {oid: ctx.F_by_object[oid].solve(ctx.h * (S.T @ t), ctx.y_free[oid])
            for oid, S in sorted(ctx.S_by_object.items())}


def _newton(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig, rebuild, move
) -> CorrectionResult:
    """The recursive correction loop shared by both schemes.

    D is the (p, 3, 3) frame array. ``rebuild(D)`` returns W and ``move(D,
    lam, r)`` returns the new relative proximity positions. Once the loop
    ends, :func:`_mechanical_correction` turns the summed impulse
    sum_k D_k^T lambda_k into ``dv_by_object``, the same way for both
    schemes. The step's force ``lam`` is that sum in the final frames,
    D_K sum_k D_k^T lambda_k. The operations must look up their
    module-level names when called: the layer tracer of the benchmark
    patches those names.
    """
    D = assemble_direction(ctx.detection_frames)
    r = ctx.r0
    accumulated = np.zeros(3 * len(ctx.pairs))
    result = CorrectionResult({}, [])
    for k in range(ncfg.max_iterations):
        rotation = 0.0
        if k > 0:
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
                pgs_local_solves=res.local_solves,
                pgs_eps=res.eps_history[-1] if res.eps_history else 0.0,
                pgs_converged=res.converged,
                rotation=rotation,
            )
        )
        if pen <= ncfg.penetration_tol:
            result.exit = "penetration"
            break
    t0 = time.perf_counter()
    result.dv_by_object = _mechanical_correction(ctx, accumulated)
    result.final_correction_time = time.perf_counter() - t0
    result.impulse = accumulated
    result.final_frames = D
    result.lam = np.einsum("gij,gj->gi", D, accumulated.reshape(-1, 3)).ravel()
    return result


def newton_standard(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction rebuilding W by multi-RHS backsolves each iteration
    and moving r by the mechanical correction of each impulse, one backsolve
    per object whose sum over the iterations only feeds ``ctx.refresh``."""
    dv = {oid: np.zeros(S.shape[1]) for oid, S in sorted(ctx.S_by_object.items())}

    def rebuild(D):
        H = {oid: assemble_H(D, S) for oid, S in sorted(ctx.S_by_object.items())}
        return assemble_W_standard(H, ctx.F_by_object)

    def move(D, lam, r):
        t = apply_transposed(D, lam)
        for oid, S in sorted(ctx.S_by_object.items()):
            dv[oid] = dv[oid] + ctx.h * ctx.F_by_object[oid].solve(S.T @ t)
        return ctx.refresh(dv)

    return _newton(ctx, ncfg, pcfg, rebuild, move)


def newton_fast(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction with the congruence rebuild and proximity-space updates.

    The loop performs no system solves; the final solve after it is the
    only one, as for every scheme.
    """
    if ctx.wg is None:
        raise ValidationError("fast scheme needs the mapping compliance built upfront")

    def move(D, lam, r):
        return fast_update_proximity(r, ctx.wg, D, lam, ctx.h)

    return _newton(ctx, ncfg, pcfg, lambda D: rebuild_W_fast(D, ctx.wg), move)
