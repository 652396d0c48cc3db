"""The contact solve, by projected Gauss-Seidel, and the recursive correction schemes.

The contact solve has one seam. :func:`prepare_solve` derives from W and h
alone what the solve needs and is the one place W is checked; the Newton
loop holds that preparation as an opaque value while it keeps W and hands
it to every :func:`pgs` call. A :class:`PgsResult` carries lambda,
``delta_end``, the iterations, whether they converged, a work count and one
residual, :func:`complementarity_residual` of lambda and ``delta_end``,
which ``contactnewton verify`` prints. The loop, the reports, the benchmark
and the checks read nothing else of the solve.

PGS sweeps the contact groups in canonical order. Each visit solves one
group's Signorini/Coulomb block with every other group frozen: the normal
row is solved first (clamped at zero), then the tangential pair is solved
exactly and projected onto the friction disk of radius mu * lambda_n. The
sweep stops when the relative change of lambda drops below the configured
tolerance.

Everything in that block solve but the clamp and the projection is linear
in lambda, so PGS's preparation, its :class:`Fold`, folds it into each
group's rows. With hW = h^2 W, T = hW[t, t] the group's tangential 2 x 2
block (t its two tangential rows, n its normal row), ``delta_base`` the
free violation and P_g = blockdiag(-1 / hW[n, n], -T^-1) (zero in T^-1's
place for a singular T), group g's folded (3, c + 1) block is

  [(h^2 P_g) W[g's rows, :] | P_g delta_base[g's rows]]

with its normal row's column n and its tangential rows' 3 group columns
then zeroed: the normal row is -[hW[n, :] | delta_base[n]] / hW[n, n] and
the tangential rows are -T^-1 [hW[t, :] | delta_base[t]]. Its constants
are q = -T^-1 hW[t, n], the tangential rows' column n before it is
zeroed, and det T. Lambda is held in one (c + 1) array that ends in 1, so
one gemv of the block with it reads (a, b0, b1): a is the new lambda_n
before the clamp, and b + q a the tangential stick trial, the lambda_t
that zeroes the group's tangential gap at that lambda_n. The fold holds
one tuple per group, its block's bound ``dot``, its constants and the
offset 3g of its lambda entries, and the gemv writes into one 3-vector
reused by every visit, which unpacks to Python floats through a
memoryview. :func:`local_solve` maps those floats and the group's
constants to its new lambda triple: zero unless a > 0, else (a, lambda_t)
with lambda_t projected onto the disk. A group whose lambda changed
replaces its triple in a list of float triples and writes its 3 entries
into the array through a memoryview. Besides that gemv, only the stop test
(``sqrt(x . x)``, what ``np.linalg.norm`` computes for a 1-D float array,
of the first c entries and of their change since the previous sweep,
taken into one reused buffer) and the final ``delta_end`` go through numpy.
The fold is one batched product over all groups, (h^2 P) W, and each call
one more, P delta_base; the sweep is bitwise equal to an array oracle that
folds group by group with the same products and reads rows the same way
(``tests/test_solver.py``). Against the unfolded block solve, which reads
the group's violation and updates its lambda by increments, lambda differs
at rounding level only. A group's new lambda is computed outright, not
added to its old one as an increment, so the sweep can reach a fixed point
where no bit of lambda changes, where the increments kept moving lambda by
an ulp. The disk projection takes the tangential length as
``abs(complex(lt0, lt1))``: CPython's complex ``abs`` calls the C library's
``hypot``, as ``np.hypot`` does, at a fraction of a numpy call's cost
(``math.hypot`` rounds differently), so it runs on every friction visit.

A visit whose local solve provably returns zero again is skipped. A group at
lambda = 0 gets zero back exactly when its read gives a <= 0 (or NaN). Let
omega_g be the largest magnitude stored in the group's folded normal row,
taken before its own entry (about 1) is zeroed, so it bounds every stored
entry of that row by construction. Let ``moved`` be the sum of
|d lambda|_1 over every lambda write of the call. Once a group read a_rec
at lambda = 0 and got zero back with ``moved`` at m_rec, its exact a can
since have risen by at most omega_g (moved - m_rec). So its visits are
skipped while -a_rec - omega_g (moved - m_rec) exceeds the margin rho (|a_rec|
+ omega_g m_rec) + 1e-300. Both reads use the same stored row, so the fold's
own rounding is the same in both and enters only through omega_g. The margin
covers the rounding of both row reads, each at most (c + 1) u (|f| + omega_g
|lambda|_1) with u = 2^-53, f the row's folded delta_base entry and
|lambda|_1 <= moved, and the rounding of ``moved``'s running sum, at most
(writes) u moved. Hence rho = 8 u (c + 4 + groups x the sweep cap), the last
term bounding the writes. The absolute term covers underflow. A skipped visit
leaves lambda as the local solve would have, so lambda, the sweep count and
``delta_end`` are bitwise those of the sweep that visits every group;
``PgsResult.work`` counts the visits that ran.

Errors are raised where they arise, naming the first bad group. The fold
runs with numpy's floating-point warnings off and raises, in this order:
- :class:`NonFiniteStateError` for a time step whose square overflows (h^2
  scales W), and for NaN or infinity in W ("compliance row");
- :class:`SingularBlockError` for hW[n, n] <= 0 ("normal compliance");
- :class:`NonFiniteStateError` for a diagonal block of hW, det T or P that
  a huge or tiny finite W or h overflowed, before the fold's product.
Then :func:`pgs` raises, with numpy's overflow warnings off for the call:
- :class:`NonFiniteStateError` for NaN or infinity in delta_base
  ("violation"), before any product with it;
- :class:`SingularBlockError` for det T <= 0, only at a visit that needs
  T^-1, one with friction on and a > 0 (the fold gives such a group zero
  tangential rows and constants);
- :class:`NonFiniteStateError` at a visit whose tangential length
  overflows a float (complex ``abs`` raises ``OverflowError`` where
  ``np.hypot`` returned inf), and at the end of a sweep whose lambda or
  change of lambda has a non-finite norm (a finite but huge delta_base or
  lambda overflowed the folded violation, a row read or the norms).
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
no products or solves, and PGS takes the kept fold, which depends on W and
h only: only its P delta_base column is recomputed, and lambda is bitwise
that of a fresh fold. :func:`~contactnewton.constraints.rebuild_W_fast` is
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
class Fold:
    """PGS's preparation of W and h (module docstring); each :func:`pgs` call
    writes its own P delta_base into column c of ``rows``."""

    rows: np.ndarray  # (groups, 3, c + 1) folded row blocks
    P: np.ndarray  # (groups, 3, 3) blockdiag(-1 / hW[n, n], -T^-1)
    groups: list  # (read, q0, q1, det, 3g) per group; read(lam, got) is rows[g].dot
    omega: list  # omega_g per group


@dataclass
class PgsResult:
    lam: np.ndarray
    delta_end: np.ndarray  # delta_base + h^2 W lam
    iterations: int  # sweeps
    converged: bool
    work: int  # local_solve calls the sweeps made; skipped visits make none
    residual: float  # complementarity_residual(lam, delta_end, friction)


_ZERO = (0.0, 0.0, 0.0)

# The skip test's rounding margin (module docstring): rho = _SKIP_ROUNDING *
# (c + 4 + groups x sweeps) relative, plus _SKIP_FLOOR absolute for underflow.
_SKIP_ROUNDING = 8 * 2.0**-53
_SKIP_FLOOR = 1e-300


def prepare_solve(W: np.ndarray, h: float) -> Fold:
    """:func:`pgs`'s preparation of W and h, its :class:`Fold` (module docstring)."""
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
        raise NonFiniteStateError(
            f"group {int(np.argmin(finite))}: non-finite compliance row handed to PGS")
    groups = np.arange(n_groups)
    with np.errstate(all="ignore"):  # an overflow is refused below
        B = h2 * W3.reshape(n_groups, 3, n_groups, 3)[groups, :, groups]  # hW's diagonal blocks
        hWnn = B[:, 0, 0]
        if not (hWnn > 0).all():
            g = int(np.argmin(hWnn > 0))
            raise SingularBlockError(f"group {g}: normal compliance {W[3 * g, 3 * g]} not positive")
        t00, t01, t10, t11 = B[:, 1, 1], B[:, 1, 2], B[:, 2, 1], B[:, 2, 2]
        det = t00 * t11 - t01 * t10
        den = np.where(det > 0, det, np.inf)  # a singular T's rows and q read 0
        P = np.zeros((n_groups, 3, 3))  # blockdiag(-1 / hW[n, n], -T^-1)
        P[:, 0, 0] = -1.0 / hWnn
        P[:, 1, 1] = -t11 / den
        P[:, 1, 2] = t01 / den
        P[:, 2, 1] = t10 / den
        P[:, 2, 2] = -t00 / den
        # an infinite entry of a tangential block makes det T inf or NaN
        finite = np.isfinite(hWnn) & np.isfinite(det) & np.isfinite(P).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteStateError(f"group {int(np.argmin(finite))}: h^2 W's diagonal block "
                                      "or its inverse is not finite")
        rows = np.empty((n_groups, 3, c + 1))
        np.matmul(h2 * P, W3, out=rows[:, :, :c])
        folded = rows[:, :, :c].reshape(n_groups, 3, n_groups, 3)  # a view of rows
        omega = np.abs(rows[:, 0, :c]).max(axis=1, initial=0.0)
    q0, q1 = folded[groups, 1, groups, 0], folded[groups, 2, groups, 0]
    folded[groups, 0, groups, 0] = 0.0
    folded[groups, 1:, groups, :] = 0.0
    reads = [row.dot for row in rows]
    return Fold(rows, P, list(zip(reads, q0.tolist(), q1.tolist(), det.tolist(), range(0, c, 3))),
                omega.tolist())


def complementarity_residual(lam: np.ndarray, delta_end: np.ndarray, mu: float) -> float:
    """The worst Signorini/Coulomb residual of a solve: the largest of 0.0 and, per group,
    -min(delta_n, 0), lambda_n delta_n and the cone excess |lambda_t| - mu lambda_n."""
    lam3 = lam.reshape(-1, 3)
    ln, dn, lt = lam3[:, 0], delta_end[0::3], np.hypot(lam3[:, 1], lam3[:, 2])
    return float(np.max([np.abs(np.minimum(dn, 0.0)), ln * dn, lt - mu * ln], initial=0.0))


def local_solve(
    a: float, b0: float, b1: float, q0: float, q1: float, det: float, mu: float
) -> tuple[float, float, float]:
    """One group's Signorini/Coulomb block solve with the others frozen.

    ``(a, b0, b1)`` is the group's folded read and ``(q0, q1, det)`` its
    constants (module docstring). The new lambda_n is ``a`` clamped at zero,
    the stick trial b + q a is projected onto the friction disk. Returns the
    group's new lambda. Raises ``OverflowError`` when the tangential
    impulse's length overflows a float.
    """
    if not a > 0.0:  # also -0.0 and NaN
        return _ZERO
    if mu == 0.0:
        return (a, 0.0, 0.0)
    if not det > 0:
        raise SingularBlockError("tangential block singular")
    lt0 = b0 + q0 * a
    lt1 = b1 + q1 * a
    radius = mu * a
    nt = abs(complex(lt0, lt1))  # C hypot, as np.hypot
    if nt > radius:
        scale = radius / nt
        lt0 *= scale
        lt1 *= scale
    return (a, lt0, lt1)


def pgs(
    W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig, fold: Fold
) -> PgsResult:
    """Sweep the groups until the relative lambda change drops below tolerance.

    ``fold`` is :func:`prepare_solve` of the same W and h, new or kept; the
    result is bitwise the same either way. Each visit is one gemv of the
    group's folded rows and one :func:`local_solve`; visits that provably
    leave a separated group at zero are skipped (module docstring).
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
            f"group {int(np.argmin(finite))}: non-finite violation handed to PGS")
    groups, omega = fold.groups, fold.omega
    got = np.empty(3)
    got_items = memoryview(got)  # unpacks to Python floats
    lam = np.zeros(c + 1)
    lam[c] = 1.0
    lam_items = memoryview(lam)  # writes single entries from Python floats
    lam_groups = [_ZERO] * n_groups  # lam's groups as float triples
    lam_now = lam[:c]
    lam_prev = np.zeros(c)  # lam_now after the previous sweep
    step = np.empty(c)  # lam_now - lam_prev
    # the skip bound (module docstring): group g's visits are skipped while
    # moved, the summed |d lambda|_1 of every write, is below skip_until[g]
    rel = _SKIP_ROUNDING * (c + 4 + n_groups * config.max_iterations)
    moved = 0.0
    skip_until = [-math.inf] * n_groups
    skipped = 0
    converged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # module docstring
        fold.rows[:, :, c] = (fold.P @ delta3[:, :, None])[:, :, 0]
        for _ in range(config.max_iterations):
            iterations += 1
            for g, (read, q0, q1, det, i) in enumerate(groups):
                if moved < skip_until[g]:
                    skipped += 1
                    continue
                read(lam, got)
                a, b0, b1 = got_items
                try:
                    new = local_solve(a, b0, b1, q0, q1, det, mu)
                except SingularBlockError as exc:
                    raise SingularBlockError(f"group {g}: {exc}") from None
                except OverflowError:
                    raise NonFiniteStateError(
                        f"group {g}: tangential impulse overflows in the local solve"
                    ) from None
                old = lam_groups[g]
                if new != old:
                    lam_groups[g] = new
                    n0, n1, n2 = new
                    o0, o1, o2 = old
                    lam_items[i] = n0
                    lam_items[i + 1] = n1
                    lam_items[i + 2] = n2
                    moved += abs(n0 - o0) + abs(n1 - o1) + abs(n2 - o2)
                elif new is _ZERO:  # separated, and stays so until moved reaches the limit
                    margin = rel * (abs(a) + omega[g] * moved) + _SKIP_FLOOR
                    skip_until[g] = moved + (-a - margin) / omega[g]
            np.subtract(lam_now, lam_prev, out=step)
            num = math.sqrt(step.dot(step))  # np.linalg.norm of a 1-D float array
            den = math.sqrt(lam_now.dot(lam_now))
            if not num + den < math.inf:  # an overflow, or NaN
                raise NonFiniteStateError(
                    f"sweep {iterations}: the impulses' norm is not finite")
            eps = 0.0 if num == 0.0 else (math.inf if den == 0.0 else num / den)
            if eps <= config.tolerance:
                converged = True
                break
            lam_prev[:] = lam_now
        delta_end = delta_base + h * h * (W @ lam_now)
        return PgsResult(lam_now, delta_end, iterations, converged, n_groups * iterations - skipped,
                         complementarity_residual(lam_now, delta_end, mu))


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
    lam_history: list[np.ndarray]  # (c,) grouped (lambda_n, lambda_t1, lambda_t2) per iteration
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
        result.lam_history.append(res.lam)
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
