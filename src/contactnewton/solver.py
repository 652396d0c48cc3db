"""The contact solve, by a semismooth Newton method, and the recursive correction schemes.

The contact solve has one seam. :func:`prepare_solve` derives from W and h
alone what the solve needs and is the one place W is checked; the Newton
loop holds that preparation as an opaque value while it keeps W and hands
it to every :func:`pgs` call. A :class:`PgsResult` carries lambda,
``delta_end``, the iterations, whether they converged, a work count and one
residual, :func:`complementarity_residual` of lambda and ``delta_end``,
which ``contactnewton verify`` prints. The loop, the reports, the benchmark
and the checks read nothing else of the solve.

The solve finds the root of the Alart-Curnier function (Alart and Curnier,
CMAME 92(3), 1991). With hW = h^2 W, delta = delta_base + hW lambda and, per
group, its normal row n, its two tangential rows t and T = hW[t, t], the
scaling rho = blockdiag(1 / hW[n, n], T^-1) is projected Gauss-Seidel's, so
the root is PGS's fixed point:

  F(lambda) = lambda - Pi(y),   y = lambda - rho delta,

where :func:`local_solve` is Pi, group by group: zero unless y_n > 0, else
(y_n, y_t) with y_t projected onto the friction disk of radius mu y_n.
:func:`prepare_solve` makes M = rho hW, one batched product over the
groups, and each call b = rho delta_base, so y = lambda - b - M lambda.
Iteration k tests F at the iterate lambda_k, lambda_1 = 0. It stops,
converged, once |F|_inf <= 1e-13 max |b| (F = 0 implies the Signorini
and Coulomb conditions that ``verify`` checks), or at
iteration ``PgsConfig.max_iterations``. Otherwise it takes the generalized
Jacobian of F on the groups with y_n > 0, steps every other group to zero,
makes one dense solve of the active block (``np.linalg.lstsq`` where
``np.linalg.solve`` finds it singular, as for duplicated contacts) and
halves the step until 1/2 |F|^2 falls by the Armijo fraction; when no
halving lowers it, the solve stops unconverged. Lambda is Pi(y) of the last
iterate, so lambda_n >= 0 exactly and |lambda_t| <= mu lambda_n to rounding;
``PgsResult.work`` counts the evaluations of F, one :func:`local_solve` call
each, which the benchmark's tracer counts through the module global.

Errors are raised where they arise, naming the first bad group.
:func:`prepare_solve` runs with numpy's floating-point warnings off and
raises, in this order:
- :class:`NonFiniteStateError` for a time step whose square overflows (h^2
  scales W), and for NaN or infinity in W ("compliance row");
- :class:`SingularBlockError` for hW[n, n] <= 0 ("normal compliance");
- :class:`NonFiniteStateError` for a diagonal block of hW, det T or rho that
  a huge or tiny finite W or h overflowed.
Then :func:`pgs` raises:
- :class:`NonFiniteStateError` for NaN or infinity in delta_base
  ("violation"), before any product with it;
- :class:`SingularBlockError` for det T <= 0 at a group that needs T^-1,
  one with friction on and y_n > 0 (rho reads zero in such a T^-1's place);
- :class:`NonFiniteStateError` where a tangential trial's length overflows
  a float, and where y or F is not finite (a finite but huge delta_base or
  lambda overflowed a product).
Every diagonal block is positive definite when each A side carries DOFs
(detection pairs no pinned vertex).

The recursive correction is one Newton loop, :func:`_newton`. Iteration 1
takes the detection-time frames, so a 1-iteration loop is exactly the
classic single-correction scheme. Each later iteration takes every pair's
normal from its supporting element at the state the previous iteration's
move left (``relinearize`` of the record's ``normals``: a plane's normal, a
posed mesh's element normal at its pose at the step's end, a soft triangle's
normal at its moved nodes), never flipped to agree with the previous frame.
Then it rebuilds the compliance W, solves the contact problem at the
violation D r, adds D^T lambda to the summed impulse f, and moves:
``ctx.refresh`` evaluates one :class:`~.collision.Proximity` record at
q_free + dq, dq being the displacement that f causes, holding r = pA - pB,
the element normals and the signed gaps, all from one set of views. The loop
stops once the worst geometric penetration of that record is within
``penetration_tol`` (exit ``penetration``), or after ``max_iterations``
(exit ``max_iterations``). A negative ``penetration_tol`` forces every
iteration, as ``contactnewton verify`` runs it. Nothing else stops it: the
frame turn is measured (``max_frame_rotation``) but only reported, and
``NewtonConfig.rotation_tol`` is accepted but read by nothing. The loop does
not re-query the supporting element: each pair keeps the vertex and element
of detection. The direction matrix D is block diagonal and the loop holds it
as its blocks, the (p, 3, 3) frame array, so re-linearizing and every
product with D are array operations with no loop over pairs. A scheme
supplies two operations:

  rebuild   W from the current directions D;
  move      the record after the summed impulse f, through one
            ``ctx.refresh(dq)``.

Each step starts holding nothing: iteration 1 builds D from detection's
frames, W and W's preparation. A later iteration keeps all three when the
previous move's normals equal D's first rows bit for bit; ``relinearize``
builds frames from their normals, so equal normals would give equal
frames. Kept, D stays the same object, ``max_frame_rotation`` is not
called (the turn reads 0.0), both schemes' rebuilds return the kept W with
no products or solves, and the solve takes the kept preparation, which
depends on W and h only: only b = rho delta_base is recomputed, and lambda
is bitwise that of a fresh preparation. :func:`~contactnewton.constraints.rebuild_W_fast` is
still called once per iteration, since the benchmark's tracer opens the
fast iteration span there; the standard one opens at ``assemble_H``, in
rebuilding iterations only. Otherwise the loop drops W and the preparation
before new ones are built and re-linearizes D.
None of them carries over to the next step; the step's last D is only
reported (``CorrectionResult.frames``). On a plane or a kinematic plate
the element normals repeat from the second iteration on wherever
detection's normals already are the element's (``bench_column``'s are, in
every step), and from the third otherwise; a soft B triangle turns with
its nodes, so there everything is rebuilt.

The two schemes bind them as follows:

  standard  rebuild W = sum H A^-1 H^T (multi-RHS backsolves); move by
            dq = h^2 A^-1 S^T f, one backsolve per object;

  fast      rebuild W = D W_g D^T (blockwise congruence); move by
            dq[J] = h^2 X_o^T f on the contact DOFs J, with X_o =
            S_J A^-1[J, J] from the W_g gather, one gemv per object and no
            system solve (:func:`fast_update_proximity`).

Re-evaluating r and the element normals, not linearizing them, is the
paper's split of the direction D from the mapping S: a rigid side's r
follows its turned lever arm, and the directions follow the geometry at the
step's end, while W keeps the lever arm of detection.

Both end the step the same way, timed by the loop: one solve per object,
dv = A^-1 (b + h S^T f), free motion and correction together
(:func:`_mechanical_correction`). The free motion left the forward pass of
A^-1 b (``y_free``) and only the part of its backward pass that contact
reads (``scene``). So per object a fast step makes one forward and one
backward pass over the whole band, and two over trailing rows only: the
free motion's backward pass and the correction's forward pass. The
standard scheme's per-iteration solves only feed the proximity refresh.
Each iteration leaves one :class:`IterationStats` record, and the step's
report and ``newton.csv`` are built from these records alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .collision import Contacts, Proximity, max_frame_rotation, penetration, relinearize
from .constraints import (
    apply_transposed,
    assemble_H,
    assemble_W_standard,
    assemble_direction,
    compute_violation,
    rebuild_W_fast,
)
from .errors import NonFiniteStateError, SingularBlockError, ValidationError, as_number
from .linalg import Factorization

SCHEMES = ("single", "standard", "fast")


@dataclass
class PgsConfig:
    max_iterations: int = 30  # the contact solve's iterations (module docstring)
    friction: float = 0.5

    def __post_init__(self):
        self.max_iterations = as_number(self.max_iterations, "pgs.max_iterations", int)
        self.friction = as_number(self.friction, "pgs.friction")
        if self.max_iterations < 1:
            raise ValidationError("pgs.max_iterations must be >= 1")
        if self.friction < 0:
            raise ValidationError("friction coefficient must be >= 0")


@dataclass
class NewtonConfig:
    scheme: str = "single"
    max_iterations: int = 5
    penetration_tol: float = 1e-5
    rotation_tol: float = 1e-4  # accepted and checked, but stops nothing (module docstring)

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
class Scaled:
    """The contact solve's preparation of W and h (module docstring)."""

    M: np.ndarray  # (c, c) rho h^2 W
    rho: np.ndarray  # (groups, 3, 3) blockdiag(1 / hW[n, n], T^-1), zero for a singular T
    det: np.ndarray  # (groups,) det T


@dataclass
class PgsResult:
    lam: np.ndarray
    delta_end: np.ndarray  # delta_base + h^2 W lam
    iterations: int  # iterates whose F was tested, lambda = 0 the first
    converged: bool  # |F|_inf reached the stop (module docstring)
    work: int  # evaluations of F, one local_solve call each
    residual: float  # complementarity_residual(lam, delta_end, friction)


_STOP = 1e-13  # |F|_inf relative to max |rho delta_base|
_ARMIJO = 1e-4  # the decrease of 1/2 |F|^2 a step must make, per unit step length
_HALVINGS = 30  # step halvings tried before the solve stops


def prepare_solve(W: np.ndarray, h: float) -> Scaled:
    """:func:`pgs`'s preparation of W and h, M = rho h^2 W (module docstring)."""
    c = len(W)
    n_groups = c // 3
    if W.shape != (c, c) or c % 3:
        raise SingularBlockError(f"W is {W.shape}, not 3 rows per contact group")
    h2 = h * h
    if n_groups and not math.isfinite(h2):
        raise NonFiniteStateError(f"time step {h!r} squared is not finite")
    W3 = W.reshape(n_groups, 3, c)
    finite = np.isfinite(W3).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteStateError(f"group {int(np.argmin(finite))}: non-finite compliance row "
                                  "handed to the contact solve")
    groups = np.arange(n_groups)
    with np.errstate(all="ignore"):  # an overflow is refused below
        B = h2 * W3.reshape(n_groups, 3, n_groups, 3)[groups, :, groups]  # hW's diagonal blocks
        hWnn = B[:, 0, 0]
        if not (hWnn > 0).all():
            g = int(np.argmin(hWnn > 0))
            raise SingularBlockError(f"group {g}: normal compliance {W[3 * g, 3 * g]} not positive")
        t00, t01, t10, t11 = B[:, 1, 1], B[:, 1, 2], B[:, 2, 1], B[:, 2, 2]
        det = t00 * t11 - t01 * t10
        den = np.where(det > 0, det, np.inf)  # a singular T's rows of rho read 0
        rho = np.zeros((n_groups, 3, 3))
        rho[:, 0, 0] = 1.0 / hWnn
        rho[:, 1, 1] = t11 / den
        rho[:, 1, 2] = -t01 / den
        rho[:, 2, 1] = -t10 / den
        rho[:, 2, 2] = t00 / den
        # an infinite entry of a tangential block makes det T inf or NaN
        finite = np.isfinite(hWnn) & np.isfinite(det) & np.isfinite(rho).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteStateError(f"group {int(np.argmin(finite))}: h^2 W's diagonal block "
                                      "or its inverse is not finite")
        M = np.matmul(h2 * rho, W3).reshape(c, c)
    return Scaled(M, rho, det)


def complementarity_residual(lam: np.ndarray, delta_end: np.ndarray, mu: float) -> float:
    """The worst Signorini/Coulomb residual of a solve: the largest of 0.0 and, per group,
    -min(delta_n, 0), lambda_n delta_n and the cone excess |lambda_t| - mu lambda_n."""
    lam3 = lam.reshape(-1, 3)
    ln, dn, lt = lam3[:, 0], delta_end[0::3], np.hypot(lam3[:, 1], lam3[:, 2])
    return float(np.max([np.abs(np.minimum(dn, 0.0)), ln * dn, lt - mu * ln], initial=0.0))


def local_solve(y: np.ndarray, det: np.ndarray, mu: float) -> np.ndarray:
    """Pi of the (groups, 3) trial y, every group's Signorini/Coulomb projection:
    zero unless y_n > 0, else (y_n, y_t) with y_t projected onto the disk of
    radius mu y_n. ``det`` is each group's det T, refused where T^-1 was needed."""
    out = np.zeros_like(y)
    active = y[:, 0] > 0.0
    out[:, 0] = np.where(active, y[:, 0], 0.0)
    if mu == 0.0:
        return out
    singular = active & ~(det > 0)
    if singular.any():
        raise SingularBlockError(f"group {int(np.argmax(singular))}: tangential block singular")
    with np.errstate(over="ignore"):  # a radius past the float range projects nothing
        length = np.hypot(y[:, 1], y[:, 2])
        radius = mu * out[:, 0]
    overflow = active & np.isinf(length)
    if overflow.any():
        raise NonFiniteStateError(f"group {int(np.argmax(overflow))}: tangential impulse "
                                  "overflows in the local solve")
    scale = np.divide(radius, length, out=np.ones_like(length), where=length > radius)
    out[:, 1:] = np.where(active[:, None], y[:, 1:] * scale[:, None], 0.0)
    return out


def _projection_jacobian(y: np.ndarray, mu: float) -> np.ndarray:
    """d Pi / d y at the (k, 3) trials y of active groups, as (k, 3, 3) blocks."""
    G = np.zeros((len(y), 3, 3))
    G[:, 0, 0] = 1.0
    if mu == 0.0:
        return G
    length = np.hypot(y[:, 1], y[:, 2])
    with np.errstate(over="ignore"):
        slip = length > mu * y[:, 0]
    G[~slip, 1, 1] = G[~slip, 2, 2] = 1.0
    u = y[slip, 1:] / length[slip, None]
    s = mu * y[slip, 0] / length[slip]
    G[slip, 1:, 0] = mu * u
    G[slip, 1:, 1:] = s[:, None, None] * (np.eye(2) - u[:, :, None] * u[:, None, :])
    return G


def _newton_step(M: np.ndarray, y: np.ndarray, lam: np.ndarray, F: np.ndarray,
                 mu: float) -> np.ndarray:
    """The Newton step at lam: groups with y_n <= 0 step to zero, the others
    solve J = I - G + G M on their rows and columns, G = d Pi / d y block
    diagonal, by one dense solve, or least squares where J is singular."""
    active = y[0::3] > 0.0
    step = -lam
    if not active.any():
        return step
    G = _projection_jacobian(y.reshape(-1, 3)[active], mu)
    k = len(G)
    if active.all():  # as in bench_column's solves, where gathering M's rows and
        rows, M_block = slice(None), M  # columns would about double the solve's time
        rhs = -F
    else:
        rows = np.flatnonzero(np.repeat(active, 3))
        M_rows = M[rows]
        M_block = M_rows.T[rows].T  # the active columns, gathered as rows of the transpose
        rest = lam.copy()
        rest[rows] = 0.0  # the other groups' lambda, which the step zeroes
        rhs = (G @ (M_rows @ rest).reshape(k, 3, 1)).ravel() - F[rows]
    J = np.matmul(G, M_block.reshape(k, 3, 3 * k)).reshape(3 * k, 3 * k)
    J[np.diag_indices(3 * k)] += 1.0
    J.reshape(k, 3, k, 3)[np.arange(k), :, np.arange(k)] -= G
    try:
        step[rows] = np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:  # a singular active block: redundant contacts
        step[rows] = np.linalg.lstsq(J, rhs, rcond=None)[0]
    return step


def pgs(
    W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig, prepared: Scaled
) -> PgsResult:
    """Solve F(lambda) = 0 by semismooth Newton iterations (module docstring).

    ``prepared`` is :func:`prepare_solve` of the same W and h, new or kept;
    the result is bitwise the same either way.
    """
    c = len(delta_base)
    if c == 0:
        return PgsResult(np.zeros(0), np.zeros(0), 0, True, 0, 0.0)
    if W.shape != (c, c):
        raise SingularBlockError(f"W is {W.shape}, violation has {c} rows")
    mu = config.friction
    n_groups = c // 3
    delta3 = delta_base.reshape(n_groups, 3)
    finite = np.isfinite(delta3).all(axis=1)
    if not finite.all():
        raise NonFiniteStateError(
            f"group {int(np.argmin(finite))}: non-finite violation handed to the contact solve")
    M, det = prepared.M, prepared.det
    work = iterations = 0

    def residual(lam):
        """(y, Pi(y), F, 1/2 |F|^2) at lam."""
        nonlocal work
        y = lam - b - M @ lam
        if not np.isfinite(y).all():
            raise NonFiniteStateError(f"iteration {iterations}: the impulses' norm is not finite")
        work += 1
        proj = local_solve(y.reshape(n_groups, 3), det, mu).ravel()
        F = lam - proj
        merit = 0.5 * (F @ F)
        if not math.isfinite(merit):
            raise NonFiniteStateError(f"iteration {iterations}: the impulses' norm is not finite")
        return y, proj, F, merit

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused in residual
        b = (prepared.rho @ delta3[:, :, None]).ravel()
        lam = np.zeros(c)
        y, proj, F, merit = residual(lam)
        stop = _STOP * np.abs(b).max()
        while True:
            iterations += 1
            converged = np.abs(F).max() <= stop
            if converged or iterations == config.max_iterations:
                break
            step = _newton_step(M, y, lam, F, mu)
            t = 1.0
            for _ in range(_HALVINGS):
                trial = lam + t * step
                evaluated = residual(trial)
                if evaluated[3] <= (1.0 - 2.0 * _ARMIJO * t) * merit:
                    break
                t *= 0.5
            else:
                break  # no step lowers |F|: rounding level
            lam = trial
            y, proj, F, merit = evaluated
        delta_end = delta_base + h * h * (W @ proj)
        return PgsResult(proj, delta_end, iterations, bool(converged), work,
                         complementarity_residual(proj, delta_end, mu))


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
    refresh: Callable[[dict[int, np.ndarray]], Proximity]  # the record at q_free + dq, by object
    y_free: dict[int, np.ndarray]  # forward pass of the free motion A^-1 b per object
    wg: np.ndarray | None = None  # (3p, 3p) W_g = sum S A^-1 S^T
    X_by_object: dict[int, tuple[np.ndarray, np.ndarray]] | None = None  # (J, S_J A^-1[J, J])


@dataclass
class IterationStats:
    """One Newton iteration; ``newton.csv`` has a column per field, in this order."""

    penetration: float  # worst geometric penetration after the move, the stop test's value
    rebuild_time: float
    solve_time: float  # preparing the contact solve (a new W only) and solving it
    correction_time: float  # summing the impulse and moving r
    solve_iterations: int  # the solve's PgsResult iterations, work, residual, converged
    solve_work: int
    solve_residual: float
    solve_converged: bool
    rotation: float  # frame turn measured before the iteration, 0 if D is kept; stops nothing
    kept: bool  # D, W and the preparation are the last iteration's; never the first


@dataclass
class CorrectionResult:
    # v_new - v by object, free motion and correction: A^-1 (b + h S^T f)
    dv_by_object: dict[int, np.ndarray]
    solves: list[PgsResult]  # each iteration's contact solve, lam grouped (n, t1, t2)
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))  # step's force in final frames
    iterations: list[IterationStats] = field(default_factory=list)
    final_correction_time: float = 0.0
    exit: str = "max_iterations"  # why the loop stopped; else "penetration"
    frames: np.ndarray | None = None  # the last iteration's D


def _mechanical_correction(ctx: StepContext, f: np.ndarray) -> dict[int, np.ndarray]:
    """The step's velocity increment per object, f being the summed world
    impulse: dv = A^-1 (b + h S^T f), free motion and correction in one solve.

    The forward pass of h S^T f skips its leading zero rows (it is nonzero
    only on the object's contact DOFs) and adds to the free motion's forward
    pass ``ctx.y_free``; one backward pass over the whole band finishes both.
    """
    return {oid: ctx.F_by_object[oid].solve(ctx.h * (S.T @ f), ctx.y_free[oid])
            for oid, S in sorted(ctx.S_by_object.items())}


def fast_update_proximity(ctx: StepContext, f: np.ndarray) -> Proximity:
    """The proximity record after the summed world impulse f, with no system
    solve: the contact DOFs J move by dq[J] = h^2 X_o^T f (X_o from the W_g
    gather), which is h^2 A^-1 S^T f on J, and ``ctx.refresh`` evaluates the
    record at q_free + dq.

    Other DOFs keep q_free. A soft body's pairs read those only with zero
    weight or on pinned nodes, which A decouples; a rigid body's pose reads
    all six, and J holds all six (``constraints.contact_dofs``), so the move
    is exact for both.
    """
    h2 = ctx.h * ctx.h
    dq = {}
    for oid, (J, X) in ctx.X_by_object.items():
        dq[oid] = np.zeros(ctx.S_by_object[oid].shape[1])
        dq[oid][J] = h2 * (X.T @ f)
    return ctx.refresh(dq)


def _newton(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig, rebuild, move
) -> CorrectionResult:
    """The recursive correction loop shared by both schemes.

    D is the (p, 3, 3) frame array. ``rebuild(D, W)`` returns W at D, given
    the W held for the same D or None, and ``move(f)`` the :class:`Proximity`
    record after the summed world impulse f = sum_k D_k^T lambda_k, through
    one ``ctx.refresh``. Once the loop ends, :func:`_mechanical_correction`
    turns f into ``dv_by_object``, the same way for both schemes. The step's
    force ``lam`` is f in the final frames, D_K f, and ``frames`` is D_K.
    The module docstring says what the loop keeps between iterations; no W
    or preparation leaves it. The operations must look up their module-level
    names when called, since the benchmark's layer tracer patches them and
    opens its iteration spans inside the rebuild (module docstring).
    """
    D = W = prepared = normals = None
    r = ctx.r0
    f = np.zeros(3 * len(ctx.pairs))
    result = CorrectionResult({}, [])
    for k in range(ncfg.max_iterations):
        rotation = 0.0
        kept = k > 0 and normals.tobytes() == D[:, 0].tobytes()
        if not kept:
            W = prepared = None  # freed before the rebuild and the preparation make new ones
            frames = assemble_direction(relinearize(normals) if k else ctx.detection_frames)
            if k:
                rotation = max_frame_rotation(D, frames)
            D = frames
        t0 = time.perf_counter()
        W = rebuild(D, W)
        t1 = time.perf_counter()
        if not kept:
            prepared = prepare_solve(W, ctx.h)
        res = pgs(W, compute_violation(D, r), ctx.h, pcfg, prepared)
        t2 = time.perf_counter()
        f = f + apply_transposed(D, res.lam)
        prox = move(f)
        r, normals = prox.r, prox.normals
        t3 = time.perf_counter()
        result.solves.append(res)
        pen = penetration(prox.gaps)
        result.iterations.append(IterationStats(
            pen, rebuild_time=t1 - t0, solve_time=t2 - t1, correction_time=t3 - t2,
            solve_iterations=res.iterations, solve_work=res.work, solve_residual=res.residual,
            solve_converged=res.converged, rotation=rotation, kept=kept))
        if pen <= ncfg.penetration_tol:
            result.exit = "penetration"
            break
    t0 = time.perf_counter()
    result.dv_by_object = _mechanical_correction(ctx, f)
    result.final_correction_time = time.perf_counter() - t0
    result.frames = D
    result.lam = np.einsum("gij,gj->gi", D, f.reshape(-1, 3)).ravel()
    return result


def rebuild_W_standard(D: np.ndarray, ctx: StepContext, kept=None) -> np.ndarray:
    """The standard W = sum H A^-1 H^T at the frames D by multi-RHS backsolves, or
    ``kept`` as it is; operations looked up when called, as :func:`_newton` needs."""
    if kept is not None:
        return kept
    H = {oid: assemble_H(D, S) for oid, S in sorted(ctx.S_by_object.items())}
    return assemble_W_standard(H, ctx.F_by_object)


def newton_standard(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction rebuilding W by multi-RHS backsolves and moving the
    nodes by dq = h^2 A^-1 S^T f, one backsolve per object."""
    h2 = ctx.h * ctx.h

    def move(f):
        return ctx.refresh({oid: h2 * ctx.F_by_object[oid].solve(S.T @ f)
                            for oid, S in sorted(ctx.S_by_object.items())})

    return _newton(ctx, ncfg, pcfg, lambda D, W: rebuild_W_standard(D, ctx, W), move)


def newton_fast(
    ctx: StepContext, ncfg: NewtonConfig, pcfg: PgsConfig
) -> CorrectionResult:
    """Recursive correction with the congruence rebuild and the gathered move.

    The loop performs no system solves; the final solve after it is the
    only one, as for every scheme.
    """
    if ctx.wg is None or ctx.X_by_object is None:
        raise ValidationError("fast scheme needs the mapping compliance built upfront")
    return _newton(ctx, ncfg, pcfg, lambda D, W: rebuild_W_fast(D, ctx.wg, W),
                   lambda f: fast_update_proximity(ctx, f))
