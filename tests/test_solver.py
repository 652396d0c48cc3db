import gc
import itertools
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactnewton import scene, solver
from contactnewton.collision import (
    MeshGeometry,
    PlaneGeometry,
    Pose,
    build_frames,
    detect,
    proximity,
    relinearize,
)
from contactnewton.constraints import (
    assemble_direction,
    assemble_H,
    assemble_W_standard,
    assemble_Wg,
    build_signed_mapping,
    compute_violation,
    rebuild_W_fast,
)
from contactnewton.dynamics import SoftBody, compute_free_motion
from contactnewton.errors import NonFiniteStateError, SingularBlockError, ValidationError
from contactnewton.linalg import Factorization
from contactnewton.mesh import TetMesh, box_mesh, surface_triangles, surface_vertices
from contactnewton.scene import Simulation, load_scene, with_box_divisions
from contactnewton.solver import (
    NewtonConfig,
    PgsConfig,
    PgsResult,
    StepContext,
    complementarity_residual,
    local_solve,
    newton_fast,
    newton_standard,
    pgs,
    prepare_solve,
)
from contactnewton.verify import prepare
from stiffness_reference import system_matrix
from test_scene import SPINNING_BALL

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def solve(W, delta, h, config):
    """One contact solve on a fresh preparation of W, as the Newton loop makes for a new W."""
    return pgs(W, delta, h, config, prepare_solve(W, h))


# --- the converged-PGS referee ---------------------------------------------------
# The Newton solve's root is projected Gauss-Seidel's fixed point, so PGS run
# to a tight stop referees it. Two array solvers, both visiting every group
# until the relative change of lambda over a sweep is at most REFEREE_TOL.
# ``pgs_reference`` reads the violation and updates lambda by increments; with
# ``update="rows"`` a group's violation is read when the group is visited, as
# delta_base[g] + (h^2 W)[g rows] @ lambda, one gemv of [h^2 W | delta_base]
# with [lambda; 1]. The two column-update orders keep the whole violation
# current instead, adding each changed group's step: ``"columns"`` as
# (h^2 W)[:, g] @ dlambda, ``"unscaled"`` as h^2 (W[:, g] @ dlambda).
# ``pgs_folded_reference`` folds each group's block solve into its rows and
# computes the group's new lambda outright from one gemv of them. The Newton
# solve agrees with either to REFEREE_RTOL, what that stop leaves of lambda's
# error where PGS contracts slowly (about a thousand sweeps on bench_column's
# first solve).

REFEREE_TOL = 1e-11
REFEREE_RTOL = 1e-8
REFEREE_SWEEPS = 20_000


def local_solve_reference(
    alpha: int,
    W: np.ndarray,
    delta_cur: np.ndarray,
    lam: np.ndarray,
    mu: float,
    h2: float,
) -> np.ndarray:
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


def referee_sweeps(W, delta_base, h, mu, sweep, start):
    """Run ``sweep(lam)`` (one in-place PGS sweep) from ``start`` (None: zero) to
    REFEREE_TOL; the PgsResult."""
    c = len(delta_base)
    lam = np.zeros(c) if start is None else start.copy()
    converged = False
    sweeps = 0
    while not converged and sweeps < REFEREE_SWEEPS:
        sweeps += 1
        lam_prev = lam.copy()
        sweep(lam)
        converged = np.linalg.norm(lam - lam_prev) <= REFEREE_TOL * np.linalg.norm(lam)
    delta_end = delta_base + h * h * (W @ lam)
    return PgsResult(lam, delta_end, sweeps, converged, c // 3 * sweeps,
                     complementarity_residual(lam, delta_end, mu))


def pgs_reference(W: np.ndarray, delta_base: np.ndarray, h: float, mu: float,
                  update: str = "rows", start=None) -> PgsResult:
    """The unfolded referee."""
    h2 = h * h
    hW = h2 * W
    row_blocks = np.hstack([hW, delta_base[:, None]])  # [h^2 W | delta_base]
    delta_cur = delta_base + (0.0 if start is None else hW @ start)

    def sweep(lam):
        for g in range(len(lam) // 3):
            rows = slice(3 * g, 3 * g + 3)
            if update == "rows":
                delta_cur[rows] = row_blocks[rows] @ np.append(lam, 1.0)
            new = local_solve_reference(g, W, delta_cur, lam, mu, h2)
            dl = new - lam[rows]
            if dl.any():
                if update == "columns":
                    delta_cur[:] += hW[:, rows] @ dl
                elif update == "unscaled":
                    delta_cur[:] += h2 * (W[:, rows] @ dl)
                lam[rows] = new

    return referee_sweeps(W, delta_base, h, mu, sweep, start)


def fold_reference(W: np.ndarray, delta_base: np.ndarray, h2: float):
    """The folded rows F (c, c + 1), q (groups, 2) and det T (groups,) group by
    group. With hW = h^2 W, T = hW[t, t] and P = blockdiag(-1 / hW[n, n],
    -T^-1) (a singular T's block zero), F's rows are [(h^2 P) W[g rows] |
    P delta_base[g rows]], q is their tangential rows' column n, and then
    the normal row's column n and the tangential rows' group columns are
    zeroed."""
    c = len(delta_base)
    F = np.zeros((c, c + 1))
    q = np.zeros((c // 3, 2))
    det = np.zeros(c // 3)
    for g in range(c // 3):
        rows = slice(3 * g, 3 * g + 3)
        n, t0, t1 = 3 * g, 3 * g + 1, 3 * g + 2
        hB = h2 * W[rows, rows]
        hWnn = hB[0, 0]
        if not hWnn > 0:
            raise SingularBlockError(f"group {g}: normal compliance {W[n, n]} not positive")
        T = hB[1:, 1:]
        det[g] = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
        den = det[g] if det[g] > 0 else np.inf  # unused rows of a singular T read 0
        P = np.zeros((3, 3))
        P[0, 0] = -1.0 / hWnn
        P[1, 1], P[1, 2] = -T[1, 1] / den, T[0, 1] / den
        P[2, 1], P[2, 2] = T[1, 0] / den, -T[0, 0] / den
        F[rows, :c] = (h2 * P) @ W[rows]
        F[rows, c] = P @ delta_base[rows]
        q[g] = F[t0:t1 + 1, n]
        F[n, n] = 0.0
        F[t0:t1 + 1, rows] = 0.0
    return F, q, det


def local_solve_folded_reference(a, b, q, det, mu) -> np.ndarray:
    if not a > 0:
        return np.zeros(3)
    if mu == 0.0:
        return np.array([a, 0.0, 0.0])
    if not det > 0:
        raise SingularBlockError("tangential block singular")
    lt = b + q * a
    radius = mu * a
    nt = float(np.hypot(lt[0], lt[1]))
    if nt > radius:
        lt = lt * (radius / nt)
    return np.array([a, lt[0], lt[1]])


def pgs_folded_reference(W: np.ndarray, delta_base: np.ndarray, h: float, mu: float,
                         start=None) -> PgsResult:
    """The folded referee."""
    F, q, det = fold_reference(W, delta_base, h * h)

    def sweep(lam):
        for g in range(len(lam) // 3):
            rows = slice(3 * g, 3 * g + 3)
            a, b0, b1 = F[rows] @ np.append(lam, 1.0)
            lam[rows] = local_solve_folded_reference(a, np.array([b0, b1]), q[g], det[g], mu)

    return referee_sweeps(W, delta_base, h, mu, sweep, start)


def scaled_violation(W, delta_base, h):
    """rho delta_base, the scale of the solve's stop: per group delta_n / hW[n, n]
    and T^-1 delta_t, with hW = h^2 W and T = hW[t, t]."""
    hW = h * h * W
    out = np.empty_like(delta_base)
    for n in range(0, len(delta_base), 3):
        (t00, t01), (t10, t11) = hW[n + 1:n + 3, n + 1:n + 3]
        d0, d1 = delta_base[n + 1:n + 3]
        det = t00 * t11 - t01 * t10
        out[n] = delta_base[n] / hW[n, n]
        out[n + 1:n + 3] = (t11 * d0 - t01 * d1) / det, (t00 * d1 - t10 * d0) / det
    return out


def assert_close_pgs(res, ref, W, delta_base, h, rtol=REFEREE_RTOL):
    """The solve converged and agrees with the converged referee: lambda to
    ``rtol`` relative to its largest entry or, where that is rounding noise,
    to the solve's own scale, rho delta_base; the end violation, which
    nearly cancels, to ``rtol`` relative to the free one."""
    assert res.converged and ref.converged
    scale = max(np.abs(ref.lam).max(), np.abs(scaled_violation(W, delta_base, h)).max())
    assert np.abs(res.lam - ref.lam).max() <= rtol * scale
    assert np.abs(res.delta_end - ref.delta_end).max() <= rtol * np.abs(delta_base).max()


def lcp_enumeration_oracle(W, delta_free, h):
    """Brute force over the 2^c active sets of the frictionless normal LCP.

    Solves delta = delta_free + h^2 W lam with lam >= 0 complementary to
    delta >= 0; returns the feasible complementary solution, unique for a
    positive definite W. The sets are tried from all active on, so a
    resting body's many contacts are solved at the first try.
    """
    c = len(delta_free)
    h2 = h * h
    for active in itertools.product([True, False], repeat=c):
        idx = [i for i, a in enumerate(active) if a]
        lam = np.zeros(c)
        if idx:
            sub = W[np.ix_(idx, idx)]
            rhs = -np.asarray(delta_free)[idx] / h2
            try:
                lam_sub = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            lam[idx] = lam_sub
        delta_end = delta_free + h2 * (W @ lam)
        if lam.min(initial=0.0) >= -1e-12 and delta_end.min() >= -1e-9:
            return lam
    raise AssertionError("oracle found no feasible complementary solution")


def normal_only_to_groups(W_n, delta_n):
    """Embed a frictionless normal-only problem into grouped (n, t1, t2) form."""
    c = len(delta_n)
    W = np.zeros((3 * c, 3 * c))
    delta = np.zeros(3 * c)
    for i in range(c):
        for j in range(c):
            W[3 * i, 3 * j] = W_n[i, j]
        # identity tangential compliance keeps blocks invertible
        W[3 * i + 1, 3 * i + 1] = 1.0
        W[3 * i + 2, 3 * i + 2] = 1.0
        delta[3 * i] = delta_n[i]
    return W, delta


def project(y, mu, det=1.0):
    """local_solve of the trials y, one (3,) row per group, all with det T ``det``."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return local_solve(y, np.full(len(y), det), mu)


class TestLocalSolve:
    """Pi, the clamp and disk projection of a group's trial y = lambda - rho delta."""

    def test_separated_contact_inactive(self):
        assert np.array_equal(project([-0.01, 0.3, -0.2], mu=0.5), np.zeros((1, 3)))
        assert np.array_equal(solve(np.eye(3), np.array([0.01, 0.0, 0.0]), 0.01, PgsConfig()).lam,
                              np.zeros(3))

    def test_scalar_closed_form(self):
        # lambda_n = -delta_free / (h^2 W_nn) for a single frictionless contact;
        # F is linear on its active set, so one Newton step lands on it and the
        # second iterate's test stops the solve
        W = 0.5 * np.eye(3)
        h = 0.01
        res = solve(W, np.array([-0.004, 0.0, 0.0]), h, PgsConfig(friction=0.0))
        assert res.lam[0] == pytest.approx(0.004 / (h * h * 0.5), rel=1e-12)
        assert res.lam[1] == res.lam[2] == 0.0
        assert (res.iterations, res.work, res.converged) == (2, 2, True)

    def test_stick_zeroes_tangential_gap(self):
        # tangential demand below the cone: the group sticks, its tangential
        # gap is closed as its normal one is
        rng = np.random.default_rng(4)
        B = rng.standard_normal((3, 3))
        W = B @ B.T + 3 * np.eye(3)
        delta = np.array([-0.01, 0.0005, -0.0003])
        res = solve(W, delta, 0.01, PgsConfig(friction=10.0))
        assert np.abs(res.delta_end).max() <= 1e-15
        assert np.hypot(res.lam[1], res.lam[2]) < 10.0 * res.lam[0]

    def test_zero_normal_kills_friction(self):
        assert np.array_equal(project([-0.01, -1.0, 0.5], mu=0.5), np.zeros((1, 3)))
        res = solve(np.eye(3), np.array([0.01, -1.0, 0.5]), 0.01, PgsConfig(friction=0.5))
        assert np.array_equal(res.lam, np.zeros(3))

    @pytest.mark.parametrize("a", [-0.0, 0.0, np.nan], ids=["minus-zero", "zero", "nan"])
    def test_normal_impulse_not_positive_gives_zero(self, a):
        # a normal trial of -0.0, 0.0 or NaN leaves the group at +0.0
        for mu in (0.0, 0.5):
            out = project([a, 0.3, -0.1], mu)
            assert np.array_equal(out, np.zeros((1, 3))) and not np.signbit(out).any()

    def test_singular_block_raises(self):
        # a singular tangential block raises, but only where T^-1 is needed:
        # with friction on and a positive normal trial, naming the group
        y = np.array([[0.1, 0.0, 0.0], [0.2, 0.01, 0.02]])
        for det in (0.0, -1e-3, np.nan):
            dets = np.array([1.0, det])
            with pytest.raises(SingularBlockError, match="group 1: tangential block singular"):
                local_solve(y, dets, 0.5)
            assert np.array_equal(local_solve(y, dets, 0.0)[:, 1:], np.zeros((2, 2)))
            separated = y * np.array([[1.0], [-1.0]])
            assert np.array_equal(local_solve(separated, dets, 0.5)[1], np.zeros(3))

    @pytest.mark.parametrize("ratio", [0.5, 1.0 - 5e-8, 1.0 + 5e-8, 2.0],
                             ids=["inside", "just-inside", "just-outside", "outside"])
    def test_cone_boundary(self, ratio):
        # the tangential trial at ratio * mu * y_n: kept inside the disk, scaled
        # onto its edge outside, as PGS's per-group disk projection does
        mu, yn = 0.4, 1.2
        yt = ratio * mu * yn * np.array([0.6, -0.8])
        out = project([yn, *yt], mu)[0]
        expected = local_solve_folded_reference(yn, yt, np.zeros(2), 1.0, mu)
        assert np.array_equal(out, expected)
        norm_t = np.hypot(out[1], out[2])
        if ratio < 1.0:
            assert np.array_equal(out[1:], yt)
        else:
            assert norm_t == pytest.approx(mu * yn, rel=1e-15)
            assert out[1:] @ yt > 0


    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_projection_is_idempotent(self, mu):
        # Pi maps every trial into the cone, where it is the identity (to the
        # rounding of a length scaled onto the disk's edge)
        rng = np.random.default_rng(12)
        y = rng.standard_normal((200, 3))
        once = local_solve(y, np.ones(200), mu)
        twice = local_solve(once, np.ones(200), mu)
        assert np.abs(twice - once).max() <= 1e-15 * np.abs(once).max()
        assert np.array_equal(twice[:, 0], once[:, 0])

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_jacobian_matches_finite_differences(self, mu):
        # d Pi / d y of active groups that stick and slip, against central
        # differences of local_solve; Pi is smooth away from the disk edge
        y = np.array([[0.3, 0.01, -0.02], [0.2, 0.5, -0.3], [1.0, -0.1, 0.9]])
        G = solver._projection_jacobian(y, mu)
        step = 1e-7
        det = np.ones(len(y))
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd = (local_solve(y + e, det, mu) - local_solve(y - e, det, mu)) / (2 * step)
            assert np.abs(G[:, :, j] - fd).max() <= 1e-7, j


class TestPgs:
    def test_no_contacts(self):
        res = solve(np.zeros((0, 0)), np.zeros(0), h=0.01, config=PgsConfig())
        assert res.converged
        assert res.iterations == 0
        assert res.lam.size == 0

    def test_single_contact_matches_closed_form(self):
        W = np.diag([0.5, 1.0, 1.0])
        delta = np.array([-0.002, 0.0, 0.0])
        res = solve(W, delta, h=0.01, config=PgsConfig(friction=0.0))
        assert res.lam[0] == pytest.approx(0.002 / (1e-4 * 0.5), rel=1e-12)
        assert res.delta_end[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_two_contacts(self):
        W_n = np.array([[1.0, 0.3], [0.3, 1.0]])
        delta_n = np.array([-0.01, -0.01])
        W, delta = normal_only_to_groups(W_n, delta_n)
        cfg = PgsConfig(max_iterations=500, friction=0.0)
        res = solve(W, delta, h=0.01, config=cfg)
        lam_n = res.lam[::3]
        assert abs(lam_n[0] - lam_n[1]) <= 1e-9 * max(lam_n)
        oracle = lcp_enumeration_oracle(W_n, delta_n, h=0.01)
        assert np.abs(lam_n - oracle).max() <= 1e-7 * max(np.abs(oracle).max(), 1e-12)

    def test_matches_lcp_oracle_random(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            c = int(rng.integers(1, 5))
            B = rng.standard_normal((c, c))
            W_n = B @ B.T + c * np.eye(c)
            delta_n = rng.uniform(-0.01, 0.005, c)
            W, delta = normal_only_to_groups(W_n, delta_n)
            cfg = PgsConfig(max_iterations=2000, friction=0.0)
            res = solve(W, delta, h=0.01, config=cfg)
            oracle = lcp_enumeration_oracle(W_n, delta_n, h=0.01)
            scale = max(np.abs(oracle).max(), 1e-9)
            assert np.abs(res.lam[::3] - oracle).max() <= 1e-7 * scale

    def test_complementarity_postconditions(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((9, 9))
        W = B @ B.T + 9 * np.eye(9)
        delta = rng.uniform(-0.02, 0.01, 9)
        cfg = PgsConfig(max_iterations=200, friction=0.4)
        res = solve(W, delta, h=0.01, config=cfg)
        tol_c = 1e-6 * max(1.0, np.abs(delta).max())
        for g in range(3):
            ln = res.lam[3 * g]
            lt = np.hypot(res.lam[3 * g + 1], res.lam[3 * g + 2])
            dn = res.delta_end[3 * g]
            assert ln >= 0.0
            assert dn >= -tol_c
            assert ln * dn <= tol_c
            assert lt <= 0.4 * ln + 1e-9

    def test_coulomb_stick_and_slip(self):
        # stick: tangential demand inside the cone leaves no tangential gap;
        # slip: lambda_t sits on the cone, antiparallel to the end gap
        W = np.eye(3)
        h = 0.01
        stick = solve(W, np.array([-0.01, 0.002, 0.0]), h,
                      PgsConfig(max_iterations=200, friction=0.9))
        g = stick.delta_end
        assert abs(g[1]) <= 1e-6 and abs(g[2]) <= 1e-6
        slip = solve(W, np.array([-0.01, 0.02, 0.0]), h,
                     PgsConfig(max_iterations=200, friction=0.1))
        ln = slip.lam[0]
        lt = slip.lam[1:3]
        assert np.hypot(*lt) == pytest.approx(0.1 * ln, rel=1e-9)
        gt = slip.delta_end[1:3]
        cosang = (lt @ gt) / (np.linalg.norm(lt) * np.linalg.norm(gt))
        assert cosang == pytest.approx(-1.0, abs=1e-3)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((6, 6))
        W = B @ B.T + 6 * np.eye(6)
        delta = rng.uniform(-0.01, 0.01, 6)
        cfg = PgsConfig(max_iterations=50, friction=0.3)
        r1 = solve(W.copy(), delta.copy(), 0.01, cfg)
        r2 = solve(W.copy(), delta.copy(), 0.01, cfg)
        assert np.array_equal(r1.lam, r2.lam)
        assert np.array_equal(r1.delta_end, r2.delta_end)

    def test_duplicate_contacts_resolved(self, monkeypatch):
        # a duplicated contact leaves both diagonal blocks regular but the
        # active block singular (rank 3): the dense solve refuses it, the
        # least-squares step takes its place and the penetration is resolved
        W1 = np.diag([1.0, 1.0, 1.0])
        W = np.zeros((6, 6))
        W[:3, :3] = W1
        W[3:, 3:] = W1
        W[:3, 3:] = W1
        W[3:, :3] = W1  # rank 3: duplicated contact
        delta = np.array([-0.01, 0, 0, -0.01, 0, 0.0])
        fallbacks = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: fallbacks.append(1) or lstsq(*args, **kwargs))
        res = solve(W, delta, 0.01, PgsConfig(max_iterations=300))
        assert fallbacks
        assert res.converged
        assert res.delta_end[::3].min() >= -1e-6

    def test_singular_group_is_named(self):
        W = np.eye(6)
        W[3, 3] = -1.0
        delta = np.array([-0.01, 0.0, 0.0, -0.01, 0.0, 0.0])
        with pytest.raises(SingularBlockError, match="group 1: normal compliance"):
            solve(W, delta, 0.01, PgsConfig())

    @pytest.mark.parametrize("friction, raises", [(0.0, False), (0.5, True)])
    def test_singular_tangential_block_raises_at_the_visit(self, friction, raises):
        # group 1's tangential block is singular. Without friction its T^-1 is
        # never needed and the solve goes on; with friction the first
        # evaluation with a positive normal trial raises. Neither warns before that.
        W = np.eye(9)
        W[4:6, 4:6] = 0.0
        delta = np.array([-0.01, 0.0, 0.0, -0.01, 0.0, 0.0, 0.02, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if raises:
                with pytest.raises(SingularBlockError, match="group 1: tangential block singular"):
                    solve(W, delta, 0.01, PgsConfig(friction=friction))
            else:
                res = solve(W, delta, 0.01, PgsConfig(friction=friction))
                assert res.lam[3] > 0.0 and res.converged

    def test_separated_group_with_a_singular_tangential_block_is_solved(self):
        # a group that stays separated never needs its T^-1, with friction on
        W = np.eye(6)
        W[4:6, 4:6] = 0.0
        delta = np.array([-0.01, 0.001, 0.0, 0.02, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(W, delta, 0.01, PgsConfig(friction=0.5))
        assert res.lam[0] > 0.0 and not res.lam[3:].any()

    def test_local_solves_run_through_the_module_global(self, monkeypatch):
        # the benchmark's tracer counts local_solve through the module global:
        # every evaluation of F makes one call, and PgsResult.work counts them;
        # each iteration after the first evaluates F once or more
        calls = []
        inner = solver.local_solve

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(solver, "local_solve", counting)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((12, 12))
        W = B @ B.T + 12 * np.eye(12)
        delta = rng.uniform(-0.01, 0.0, 12)
        delta[3] = 0.05
        res = solve(W, delta, 0.01, PgsConfig(max_iterations=2, friction=0.3))
        assert res.iterations == 2 and not res.converged
        assert len(calls) == res.work >= 2
        calls.clear()
        res = solve(W, delta, 0.01, PgsConfig(friction=0.3))
        assert res.converged and len(calls) == res.work >= res.iterations > 2

    def test_iteration_cap_counts_the_tested_iterates(self):
        # pgs.iterations caps the iterates whose F is tested, lambda = 0 the
        # first: capped at 1 the solve makes no Newton step and returns
        # Pi(-rho delta_base), each group's impulse as if it were alone
        W_n = np.array([[1.0, 0.6], [0.6, 1.0]])
        W, delta = normal_only_to_groups(W_n, np.array([-0.01, -0.01]))
        h = 0.01
        one = solve(W, delta, h, PgsConfig(max_iterations=1, friction=0.0))
        assert (one.iterations, one.work, one.converged) == (1, 1, False)
        assert np.array_equal(one.lam[0::3], 0.01 / (h * h) * np.ones(2))
        full = solve(W, delta, h, PgsConfig(friction=0.0))
        assert full.converged and 1 < full.iterations <= 30
        capped = solve(W, delta, h, PgsConfig(max_iterations=full.iterations, friction=0.0))
        assert same_bits(capped.lam, full.lam) and capped.converged

    def test_lambda_lies_in_the_cone_however_the_solve_stops(self):
        # lambda is Pi of the last iterate, so lambda_n >= 0 and |lambda_t| <=
        # mu lambda_n hold to rounding, also for a solve stopped by its cap
        for cap in (1, 2, 3, 30):
            for W, delta, cfg in random_cases(0.3):
                res = solve(W, delta, 0.01, replace(cfg, max_iterations=cap))
                lam = res.lam.reshape(-1, 3)
                assert (lam[:, 0] >= 0.0).all()
                assert (np.hypot(lam[:, 1], lam[:, 2]) <= 0.3 * lam[:, 0] * (1 + 1e-15)).all()

    @pytest.mark.parametrize("where", ["violation", "compliance row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, where, bad):
        # a NaN violation used to read as separated (lambda 0, "converged"),
        # and an inf in W gave lambda 0 everywhere after 1 sweep
        W = 2.0 * np.eye(9)
        delta = np.array([-0.01, 0, 0, -0.01, 0, 0, -0.01, 0, 0])
        if where == "violation":
            delta[3] = bad
        else:
            W[4, 7] = bad
        with pytest.raises(NonFiniteStateError, match=f"group 1: non-finite {where}"):
            solve(W, delta, 0.01, PgsConfig())

    def test_overflowing_tangential_length_is_refused(self):
        # W and the violation are finite, but group 1's tangential trial is
        # (1.5e308, 1.5e308), whose length overflows a float
        W = np.eye(6)
        delta = np.array([-0.01, 0.0, 0.0, -1.0, -1.5e304, -1.5e304])
        with pytest.raises(NonFiniteStateError, match="group 1: tangential impulse overflows"):
            solve(W, delta, 0.01, PgsConfig())


def separated_problem(rng):
    """A weakly coupled problem whose groups mostly start separated (delta_n > 0),
    with at least one group penetrating."""
    groups = int(rng.integers(3, 9))
    c = 3 * groups
    B = rng.standard_normal((c, c))
    W = B @ B.T / c + rng.uniform(0.5, 2.0) * np.eye(c)
    delta = rng.uniform(-0.01, 0.01, c)
    delta[::3] = rng.uniform(0.0, 0.01, groups)
    penetrating = rng.choice(groups, int(rng.integers(1, groups // 2 + 1)), replace=False)
    delta[3 * penetrating] = rng.uniform(-0.005, -0.001, len(penetrating))
    return W, delta


def record_pgs_calls(config, steps):
    """(W, delta, h, config) of every contact solve in the first ``steps`` steps."""
    recorded = []
    pgs_now = solver.pgs

    def recording(W, delta, h, config, prepared):
        recorded.append((W.copy(), delta.copy(), h, config))
        return pgs_now(W, delta, h, config, prepared)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "pgs", recording)
        sim = Simulation(config)
        for _ in range(steps):
            sim.step()
    return recorded


@pytest.fixture(scope="module")
def bench_column_pgs_inputs():
    """(W, delta, h, config) of every contact solve in 2 steps of bench_column
    at divisions (7, 6, 7), under the benchmark's 5 Newton x 30 solve iterations.

    Negative tolerances force the iterations: at these divisions a 0.0 rotation
    tolerance stops most steps after one. Past the first iteration only a few
    of the 64 groups stay active.
    """
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (7, 6, 7))
    newton = replace(config.newton, scheme="fast", max_iterations=5, penetration_tol=-1.0,
                     rotation_tol=-1.0)
    config = replace(config, newton=newton, pgs=replace(config.pgs, max_iterations=30))
    recorded = record_pgs_calls(config, 2)
    assert len(recorded) == 10
    return recorded


@pytest.fixture(scope="module")
def grasp_rotate_wide_pgs_inputs():
    """(W, delta, h, config) of grasp_rotate's contact solves past c = 270 in its
    first 19 steps. The widest has c = 300 (100 groups); bench_column's have
    c = 192."""
    recorded = record_pgs_calls(load_scene(SCENES / "grasp_rotate.scn"), 19)
    return [call for call in recorded if len(call[1]) > 270]


@pytest.fixture(scope="module")
def bench_column_refereed(bench_column_pgs_inputs):
    """Each bench_column input with its converged referee."""
    return [(W, delta, h, config, pgs_reference(W, delta, h, config.friction))
            for W, delta, h, config in bench_column_pgs_inputs]


def dense_block_sizes(monkeypatch):
    """The order of every dense solve the contact solve makes from now on."""
    sizes = []
    dense = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda J, rhs: sizes.append(len(J)) or dense(J, rhs))
    return sizes


class TestPgsSkipsSeparatedGroups:
    """A group whose normal trial is not positive is left out of the dense
    solve and stepped to zero: separated groups end at lambda = 0 exactly, and
    the dense block holds the contact groups alone."""

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_random_separated_problems(self, monkeypatch, mu):
        rng = np.random.default_rng(17 + int(10 * mu))
        sizes = dense_block_sizes(monkeypatch)
        for trial in range(24):
            W, delta = separated_problem(rng)
            sizes.clear()
            res = solve(W, delta, 0.01, PgsConfig(friction=mu))
            ref = pgs_folded_reference(W, delta, 0.01, mu)
            assert_close_pgs(res, ref, W, delta, 0.01)
            assert np.array_equal(res.lam[ref.lam == 0.0], np.zeros((ref.lam == 0.0).sum()))
            assert 0 < max(sizes) < len(delta), trial

    def test_bench_column_inputs(self, monkeypatch, bench_column_refereed):
        # every group of the resting column presses in each step's first
        # Newton iteration, a few in the later ones; the 5th has nothing left
        # to correct: its penetration and lambda are at rounding level against
        # those of the step's first iteration
        sizes = dense_block_sizes(monkeypatch)
        for k, (W, delta, h, config, ref) in enumerate(bench_column_refereed):
            sizes.clear()
            res = solve(W, delta, h, config)
            assert_close_pgs(res, ref, W, delta, h)
            penetration, lam = -delta[0::3].min(), np.abs(res.lam).max()
            if k % 5 == 0:  # each step's first Newton iteration
                assert max(sizes) == len(delta), k
                first_penetration, first_lam = penetration, lam
            else:
                assert max(sizes, default=0) < len(delta), k
            if k % 5 == 4:
                assert penetration <= 1e-15 * first_penetration, k
                assert lam <= 1e-13 * first_lam, k

    def test_grasp_rotate_wide_inputs(self, monkeypatch, grasp_rotate_wide_pgs_inputs):
        # the slip scene's widest solves, past bench_column's
        sizes = dense_block_sizes(monkeypatch)
        widths = []
        for W, delta, h, config in grasp_rotate_wide_pgs_inputs:
            sizes.clear()
            res = solve(W, delta, h, config)
            assert_close_pgs(res, pgs_reference(W, delta, h, config.friction), W, delta, h)
            assert 0 < max(sizes) < len(delta)
            widths.append(len(delta))
        assert max(widths) == 300 and len(widths) >= 3

    @pytest.mark.parametrize("push", [1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, 2.0])
    def test_group_pushed_into_contact_is_visited(self, push):
        # group 0 starts separated by 1e-15; group 1's force then lowers group
        # 0's violation by push * 1e-15, so group 0 must join the solve once
        # that turns its violation negative
        h, eps = 0.01, 1e-15
        W = np.diag([0.5, 1.0, 1.0, 2.0, 1.0, 1.0])
        W[0, 3] = W[3, 0] = -0.9
        lam1 = push * eps / (h * h * 0.9)
        delta = np.array([eps, 0.0, 0.0, -h * h * 2.0 * lam1, 0.0, 0.0])
        cfg = PgsConfig(friction=0.0)
        res = solve(W, delta, h, cfg)
        ref = pgs_folded_reference(W, delta, h, 0.0)
        assert_close_pgs(res, ref, W, delta, h)
        if push > 1.0 + 1e-12:
            assert ref.lam[0] > 0.0 and res.lam[0] > 0.0
        elif push < 1.0 - 1e-12:  # still separated
            assert ref.lam[0] == res.lam[0] == 0.0


def random_problem(rng):
    groups = int(rng.integers(2, 7))
    c = 3 * groups
    B = rng.standard_normal((c, c))
    W = B @ B.T + rng.uniform(0.1, c) * np.eye(c)
    return W, rng.uniform(-0.01, 0.005, c)


def random_cases(mu):
    """24 random problems with friction ``mu``."""
    rng = np.random.default_rng(int(10 * mu) + 1)
    for _ in range(24):
        W, delta = random_problem(rng)
        yield W, delta, PgsConfig(friction=mu)


# the case of random_cases(10.0) that the Newton solve leaves unconverged after
# its 30 iterations; PGS from lambda = 0 does not converge on it either
UNCONVERGED_AT_MU_10 = [18]


def assert_random_cases_refereed(mu, referee, **kwargs):
    """Every random case's solve against ``referee``. At mu = 10 the fixed point
    need not be unique and PGS from lambda = 0 cycles on some cases, so there
    the referee starts from the solve's lambda, which it must keep."""
    unconverged = []
    for k, (W, delta, cfg) in enumerate(random_cases(mu)):
        res = solve(W, delta, 0.01, cfg)
        if not res.converged:
            unconverged.append(k)
            continue
        start = res.lam if mu == 10.0 else None
        assert_close_pgs(res, referee(W, delta, 0.01, mu, start=start, **kwargs), W, delta, 0.01)
    assert unconverged == (UNCONVERGED_AT_MU_10 if mu == 10.0 else [])


@pytest.fixture(scope="module")
def grasp_rotate_pgs_inputs():
    """(W, delta, h, config) of every contact solve in the first 2 steps of grasp_rotate."""
    recorded = record_pgs_calls(load_scene(SCENES / "grasp_rotate.scn"), 2)
    assert len(recorded) >= 2 and all(len(d) for _, d, _, _ in recorded)
    return recorded


class TestPgsMatchesReference:
    """The Newton solve converges to the converged referees' lambda and end
    violation, whichever order they read the violation in."""

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems(self, mu):
        assert_random_cases_refereed(mu, pgs_folded_reference)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems_match_referee(self, mu):
        assert_random_cases_refereed(mu, pgs_reference)

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_separated_problems_match_referee(self, mu):
        rng = np.random.default_rng(17 + int(10 * mu))
        for trial in range(24):
            W, delta = separated_problem(rng)
            assert_close_pgs(solve(W, delta, 0.01, PgsConfig(friction=mu)),
                             pgs_reference(W, delta, 0.01, mu), W, delta, 0.01)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems_match_unscaled_update(self, mu):
        assert_random_cases_refereed(mu, pgs_reference, update="unscaled")

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems_match_column_update(self, mu):
        assert_random_cases_refereed(mu, pgs_reference, update="columns")

    def test_grasp_rotate_inputs(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_close_pgs(solve(W, delta, h, config),
                             pgs_folded_reference(W, delta, h, config.friction), W, delta, h)

    def test_grasp_rotate_inputs_match_referee(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_close_pgs(solve(W, delta, h, config),
                             pgs_reference(W, delta, h, config.friction), W, delta, h)

    def test_bench_column_inputs_match_referee(self, bench_column_refereed):
        for W, delta, h, config, ref in bench_column_refereed:
            assert_close_pgs(solve(W, delta, h, config), ref, W, delta, h)

    def test_grasp_rotate_inputs_match_unscaled_update(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_close_pgs(solve(W, delta, h, config),
                             pgs_reference(W, delta, h, config.friction, update="unscaled"),
                             W, delta, h)

    def test_grasp_rotate_inputs_match_column_update(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_close_pgs(solve(W, delta, h, config),
                             pgs_reference(W, delta, h, config.friction, update="columns"),
                             W, delta, h)

    def test_arguments_unmodified(self):
        for trial, (W, delta, cfg) in enumerate(random_cases(0.3)):
            W_in, delta_in = W.copy(), delta.copy()
            solve(W, delta, 0.01, cfg)
            assert np.array_equal(W, W_in), trial
            assert np.array_equal(delta, delta_in), trial


# grasp_rotate's first 4 steps: per step, each Newton iteration's
# (solve_iterations, solve_work), and digests of the cube's committed
# displacement q - q0 (its norm, its dot with a seeded normal vector, and its
# summed |x|, |y| and |z| components), as recorded with the Newton contact
# solve.
GRASP_ROTATE_COUNTS = [[(7, 7)], [(6, 6)], [(6, 6)], [(7, 7)]]
GRASP_ROTATE_DIGESTS = [0.3716179195705082, 0.5852144841142688, 3.615454899246353,
                        3.028711083419126, 0.24497335753824412]


def test_grasp_rotate_convergence_counts_are_pinned():
    # the contact solve dominates this workload's step, so a change meant to
    # make it cheaper must not change how it converges: the iterations and
    # evaluations of F of every Newton iteration stay as recorded, and the
    # committed state moves at rounding level only
    sim = Simulation(load_scene(SCENES / "grasp_rotate.scn"))
    cube = sim.dynamic_objects[0]
    q0 = cube.state.q.copy()
    counts = []
    for _ in range(4):
        report = sim.step()
        counts.append([(it.solve_iterations, it.solve_work) for it in report.iterations])
    assert counts == GRASP_ROTATE_COUNTS
    dq = cube.state.q - q0
    w = np.random.default_rng(0).standard_normal(dq.size)
    digests = [np.linalg.norm(dq), dq @ w, *np.abs(dq.reshape(-1, 3)).sum(axis=0)]
    assert digests == pytest.approx(GRASP_ROTATE_DIGESTS, rel=1e-9)


# a block resting on the plane with its bottom node layer pinned: only those
# vertices lie within the threshold of the plane
FIXED_ON_PLANE = """\
dt: 0.01
threshold: 0.01
objects:
  - name: block
    type: soft
    mesh: {box: {size: [0.1, 0.1, 0.1], divisions: [2, 2, 2], center: [0.0, 0.05, 0.0]}}
    fixed_region: {axis: y, max: 0.0}
  - name: ground
    type: plane
"""


def test_pinned_vertices_are_not_paired(tmp_path):
    # without its pin the bottom layer's 9 vertices would be paired
    path = tmp_path / "free.scn"
    path.write_text(FIXED_ON_PLANE.replace("    fixed_region: {axis: y, max: 0.0}\n", ""))
    assert Simulation(load_scene(path)).step().c_groups == 9
    path = tmp_path / "fixed.scn"
    path.write_text(FIXED_ON_PLANE)
    sim = Simulation(load_scene(path))
    block = sim.dynamic_objects[0]
    q0 = block.state.q.copy()
    fixed = block.body.fixed_mask
    assert fixed.reshape(-1, 3).all(axis=1).sum() == 9
    for _ in range(3):
        assert sim.step().c_groups == 0
    assert np.array_equal(block.state.q[fixed], q0[fixed])
    assert np.isfinite(block.state.q).all() and (block.state.q != q0).any()


def build_context(bodies_pairs, h=0.01, gravity=(0, -9.81, 0), with_wg=True):
    """StepContext over soft bodies given (id -> body) and detected pairs."""
    bodies, pairs = bodies_pairs
    states = {oid: b.initial_state() for oid, b in bodies.items()}
    F = {}
    free = {}
    for oid, body in bodies.items():
        A = system_matrix(body, h)
        b = body.assemble(states[oid], h=h, gravity=gravity)
        F[oid] = Factorization(A)
        free[oid] = compute_free_motion(F[oid], b, states[oid], h=h)
    S = {
        oid: build_signed_mapping(pairs, oid, body.n_dofs, body.fixed_mask)
        for oid, body in bodies.items()
    }

    def views_at(dq):
        views = {}
        for oid in bodies:
            q = free[oid].q_free + dq.get(oid, 0.0)
            views[oid] = q.reshape(-1, 3)
        views[PLANE_ID] = Pose.identity()
        return views

    def refresh(dq):
        return proximity(pairs, views_at(dq))

    ctx = StepContext(
        pairs=pairs,
        detection_frames=build_frames(pairs),
        S_by_object=S,
        F_by_object=F,
        r0=refresh({}).r,
        h=h,
        refresh=refresh,
        y_free={oid: fm.y for oid, fm in free.items()},
    )
    if with_wg:
        ctx.wg, ctx.X_by_object = assemble_Wg(S, F)
    return ctx, bodies, states, free


PLANE_ID = 99


def falling_block_setup(center_y=0.0495, vy=-0.05, tilt=0.0):
    """A soft block over the plane y = 0, turned by ``tilt`` rad about z."""
    m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2), center=(0.0, center_y, 0.0))
    if tilt:
        c, s = np.cos(tilt), np.sin(tilt)
        center = np.array([0.0, center_y, 0.0])
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        m = TetMesh((m.nodes - center) @ turn.T + center, m.tets)
    body = SoftBody(m, young=5e4, poisson=0.3)
    tris = surface_triangles(m)
    geom = MeshGeometry(
        object_id=0,
        points=m.nodes,
        triangles=tris,
        vertex_ids=surface_vertices(tris),
        deformable=True,
    )
    plane = PlaneGeometry(object_id=PLANE_ID, normal=(0, 1, 0), offset=0.0)
    pairs = detect([geom, plane], threshold=0.01)
    assert pairs
    return {0: body}, pairs


class TestNewtonSchemes:
    def test_no_penetration_keeps_state(self):
        bodies, pairs = falling_block_setup(center_y=0.058)  # detected but separated
        ctx, *_ = build_context((bodies, pairs), gravity=(0, 0, 0))
        res = newton_standard(ctx, NewtonConfig(scheme="standard"), PgsConfig())
        assert all(np.array_equal(s.lam, np.zeros_like(s.lam)) for s in res.solves)
        assert np.array_equal(res.dv_by_object[0], np.zeros_like(res.dv_by_object[0]))

    def test_one_iteration_is_single_scheme(self):
        bodies, pairs = falling_block_setup()
        ctx, *_ = build_context((bodies, pairs))
        one = newton_standard(ctx, NewtonConfig(scheme="standard", max_iterations=1),
                              PgsConfig(max_iterations=100))
        assert len(one.solves) == 1

    def test_fast_noop_without_contact_forces(self):
        bodies, pairs = falling_block_setup(center_y=0.058)
        ctx, *_ = build_context((bodies, pairs), gravity=(0, 0, 0))
        res = newton_fast(ctx, NewtonConfig(scheme="fast"), PgsConfig())
        assert np.array_equal(res.dv_by_object[0], np.zeros_like(res.dv_by_object[0]))

    def test_schemes_agree_under_forced_relinearized_iterations(self):
        # negative tolerances force all 4 iterations, each after the first
        # in the plane's element frames; only the tilted block's lower edge
        # penetrates. Those frames repeat from the third iteration on, whose
        # contact solves keep the previous preparation
        bodies, pairs = falling_block_setup(center_y=0.052, tilt=0.1)
        cfgn = dict(max_iterations=4, penetration_tol=-1.0, rotation_tol=-1.0)
        pcfg = PgsConfig(max_iterations=150, friction=0.5)
        moves = {}
        results = {}
        for scheme, newton in (("standard", newton_standard), ("fast", newton_fast)):
            ctx, *_ = build_context((bodies, pairs))

            def refresh(dq, _fn=ctx.refresh, scheme=scheme):
                moves[scheme] = dq[0]  # the summed impulse's displacement
                return _fn(dq)

            ctx.refresh = refresh
            results[scheme] = newton(ctx, NewtonConfig(scheme=scheme, **cfgn), pcfg)
        std, fast = results["standard"], results["fast"]
        assert len(std.solves) == len(fast.solves) == 4
        for res in (std, fast):
            assert [it.kept for it in res.iterations][2:] == [True, True]
        scale = max(max(np.abs(s.lam).max() for s in std.solves), 1e-12)
        for ss, sf in zip(std.solves, fast.solves):
            assert np.abs(ss.lam - sf.lam).max() <= 1e-8 * scale
        # the last move: the standard solve and the fast gather agree on the
        # contact DOFs, where the fast scheme moves the nodes
        J = ctx.X_by_object[0][0]
        dq_s, dq_f = moves["standard"][J], moves["fast"][J]
        assert np.abs(dq_s).max() > 0
        assert np.abs(dq_s - dq_f).max() <= 1e-8 * np.abs(dq_s).max()
        # the final solves, free motion included, agree as well
        dv_s, dv_f = std.dv_by_object[0], fast.dv_by_object[0]
        assert np.abs(dv_s - dv_f).max() <= 1e-8 * np.abs(dv_s).max()

    def test_schemes_agree_on_a_spinning_ball(self, tmp_path):
        # the ball's contact point turns with it: each later iteration finds
        # the turned lever arm's point still below the plane, under both
        # schemes, since both move the ball's pose and re-evaluate r
        path = tmp_path / "ball.scn"
        path.write_text(SPINNING_BALL)
        ctx = prepare(load_scene(path))
        cfgn = dict(max_iterations=4, penetration_tol=-1.0, rotation_tol=-1.0)
        pcfg = PgsConfig(max_iterations=300, friction=0.5)
        std = newton_standard(ctx, NewtonConfig(scheme="standard", **cfgn), pcfg)
        fast = newton_fast(ctx, NewtonConfig(scheme="fast", **cfgn), pcfg)
        assert len(std.solves) == len(fast.solves) == 4
        for ss, sf in zip(std.solves, fast.solves):
            assert ss.lam[0] > 0.0
            assert np.abs(ss.lam - sf.lam).max() <= 1e-12 * np.abs(ss.lam).max()
        (oid,) = std.dv_by_object
        dv_s, dv_f = std.dv_by_object[oid], fast.dv_by_object[oid]
        assert np.abs(dv_s - dv_f).max() <= 1e-12 * np.abs(dv_s).max()

    def test_fast_loop_performs_no_system_solves(self, monkeypatch):
        bodies, pairs = falling_block_setup()
        at_correction = []

        def correction(ctx, t, _fn=solver._mechanical_correction):
            at_correction.append(ctx.F_by_object[0].solve_count)
            return _fn(ctx, t)

        monkeypatch.setattr(solver, "_mechanical_correction", correction)
        for iterations in (1, 5):
            ctx, *_ = build_context((bodies, pairs))
            assert list(ctx.S_by_object) == [0]
            F = ctx.F_by_object[0]
            before = F.solve_count
            at_correction.clear()
            res = newton_fast(
                ctx,
                NewtonConfig(scheme="fast", max_iterations=iterations,
                             penetration_tol=0.0, rotation_tol=0.0),
                PgsConfig(max_iterations=50),
            )
            assert np.abs(res.lam).max() > 0  # the body carries contact force
            # the loop moves the nodes by the gathered displacement: no
            # backsolve; the final correction is one backsolve for the body
            assert at_correction == [before]
            assert F.solve_count - before == 1

    def test_standard_backsolves_every_iteration_with_wg_set(self, monkeypatch):
        # the correction route follows the scheme, not whether ctx.wg exists
        bodies, pairs = falling_block_setup()
        solves = []

        def counting_solve(self, b, y=None, _solve=Factorization.solve):
            solves.append(y is None)  # False: the final solve, which finishes y
            return _solve(self, b, y)

        monkeypatch.setattr(Factorization, "solve", counting_solve)
        for iterations in (1, 3):
            ctx, *_ = build_context((bodies, pairs))
            assert ctx.wg is not None
            solves.clear()
            res = newton_standard(
                ctx,
                NewtonConfig(scheme="standard", max_iterations=iterations,
                             penetration_tol=-1.0, rotation_tol=-1.0),
                PgsConfig(max_iterations=50),
            )
            assert len(res.iterations) == iterations
            # one mechanical correction each, then the final solve
            assert solves == [True] * iterations + [False]

    def test_newton_determinism(self):
        bodies, pairs = falling_block_setup()
        lam_runs = []
        for _ in range(2):
            ctx, *_ = build_context((bodies, pairs))
            res = newton_fast(ctx, NewtonConfig(scheme="fast", max_iterations=3,
                                                penetration_tol=0.0),
                              PgsConfig(max_iterations=60, friction=0.5))
            lam_runs.append(np.concatenate([s.lam for s in res.solves]))
        assert np.array_equal(lam_runs[0], lam_runs[1])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NewtonConfig(scheme="warp")
        with pytest.raises(ValidationError):
            PgsConfig(max_iterations=0)
        with pytest.raises(TypeError, match="tolerance"):  # PGS's relative-change stop is gone
            PgsConfig(tolerance=1e-6)

    @pytest.mark.parametrize("config, field", [
        (PgsConfig, "max_iterations"),
        (PgsConfig, "friction"),
        (NewtonConfig, "max_iterations"),
        (NewtonConfig, "penetration_tol"),
        (NewtonConfig, "rotation_tol"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "a"])
    def test_config_rejects_non_finite_numbers(self, config, field, value):
        prefix = "pgs" if config is PgsConfig else "newton"
        with pytest.raises(ValidationError, match=f"{prefix}.{field}"):
            config(**{field: value})

    @pytest.mark.parametrize("config", [PgsConfig, NewtonConfig])
    def test_config_rejects_fractional_counts(self, config):
        with pytest.raises(ValidationError, match="max_iterations: expected a whole number"):
            config(max_iterations=2.5)
        assert config(max_iterations=3.0).max_iterations == 3
        assert type(config(max_iterations=np.int64(3)).max_iterations) is int

    def test_newton_tolerances_may_be_zero_or_negative(self):
        for tol in (0.0, -1.0):
            ncfg = NewtonConfig(penetration_tol=tol, rotation_tol=tol)
            assert (ncfg.penetration_tol, ncfg.rotation_tol) == (tol, tol)


# --- the geometric stop and the kept preparation (PGS's fold once) -------------------


def record_loop(config, steps):
    """The simulation, the reports of ``steps`` fast steps, and what the
    loop ran, in order: ("ctx", ctx) per step, then per iteration
    ("pgs", W, delta, h, config, whether the previous call's preparation was
    handed in, result) and ("move", the proximity record)."""
    events = []
    held = [None]  # the previous call's preparation, alive so that `is` is exact
    pgs_now, move_now, newton_now = solver.pgs, solver.fast_update_proximity, scene.newton_fast

    def recording_newton(ctx, ncfg, pcfg):
        events.append(("ctx", ctx))
        return newton_now(ctx, ncfg, pcfg)

    def recording_pgs(W, delta, h, config, prepared):
        res = pgs_now(W, delta, h, config, prepared)
        events.append(("pgs", W.copy(), delta.copy(), h, config, prepared is held[0], res))
        held[0] = prepared
        return res

    def recording_move(ctx, f):
        prox = move_now(ctx, f)
        events.append(("move", prox))
        return prox

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene, "newton_fast", recording_newton)
        mp.setattr(solver, "pgs", recording_pgs)
        mp.setattr(solver, "fast_update_proximity", recording_move)
        sim = Simulation(config)
        reports = [sim.step() for _ in range(steps)]
    return sim, reports, events


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("scene_name, kept", [
    # detection's normals are the plane's bit for bit, so each step builds
    # D, W and the preparation once and keeps them; a step starts holding nothing
    ("block_on_plane", [[False, True, True, True]] * 2),
    ("bench_column", [[False, True, True, True]] * 2),
    # soft B triangles turn with their nodes
    ("two_body_press", [[False] * 4] * 2),
    # the plates turn between the first two iterations
    ("grasp_rotate", [[False, False, True, True]] * 2),
], ids=["block_on_plane", "bench_column", "two_body_press", "grasp_rotate"])
def test_kept_fold_gives_the_fresh_folds_result(scene_name, kept):
    # every contact solve of two steps of forced iterations, rebuilt from
    # scratch: the frames from detection or from the previous move's normals,
    # W_g gathered from fresh signed mappings, W = D W_g D^T and a fresh
    # preparation. W, the violation, lambda, delta_end and the counts are
    # bitwise those the loop recorded, so no kept D, W or preparation
    # outlives a change of the normals within a step, or its step
    config = load_scene(SCENES / f"{scene_name}.scn")
    if scene_name == "bench_column":
        config = with_box_divisions(config, (7, 6, 7))
    newton = replace(config.newton, scheme="fast", max_iterations=4, penetration_tol=-1.0)
    sim, reports, events = record_loop(replace(config, newton=newton), 2)
    assert [[it.kept for it in report.iterations] for report in reports] == kept
    assert reports[1].mapping_reused is (scene_name != "two_body_press")
    calls = 0
    for event in events:
        if event[0] == "ctx":
            ctx = event[1]
            S = {obj.oid: build_signed_mapping(ctx.pairs, obj.oid, obj.body.n_dofs,
                                               obj.body.fixed_mask)
                 for obj in sim.dynamic_objects}
            wg, _ = assemble_Wg(S, ctx.F_by_object)
            D, r = build_frames(ctx.pairs), ctx.r0
        elif event[0] == "move":
            D, r = relinearize(event[1].normals), event[1].r
        else:
            _, W, delta, h, cfg, folded, res = event
            assert folded is kept[calls // 4][calls % 4], calls
            fresh_W = rebuild_W_fast(D, wg)
            fresh_delta = compute_violation(D, r)
            assert same_bits(W, fresh_W) and same_bits(delta, fresh_delta), calls
            fresh = solve(fresh_W, fresh_delta, h, cfg)
            assert same_bits(res.lam, fresh.lam) and same_bits(res.delta_end, fresh.delta_end), calls
            assert (res.iterations, res.converged, res.work, res.residual) == (
                fresh.iterations, fresh.converged, fresh.work, fresh.residual), calls
            calls += 1
    assert calls == 8


def test_kept_fold_still_checks_the_violation():
    # a kept preparation was checked when W was prepared; each call checks its violation
    bodies, pairs = falling_block_setup()
    ctx, *_ = build_context((bodies, pairs))
    D = assemble_direction(ctx.detection_frames)
    W = rebuild_W_fast(D, ctx.wg)
    delta = compute_violation(D, ctx.r0)
    prepared = prepare_solve(W, ctx.h)
    first = pgs(W, delta, ctx.h, PgsConfig(), prepared)
    bad = delta.copy()
    bad[4] = np.nan
    with pytest.raises(NonFiniteStateError, match="group 1: non-finite violation"):
        pgs(W, bad, ctx.h, PgsConfig(), prepared)
    again = pgs(W, delta, ctx.h, PgsConfig(), prepared)
    assert same_bits(again.lam, first.lam) and same_bits(again.delta_end, first.delta_end)


@pytest.mark.parametrize("scene_name", ["bench_column", "grasp_rotate"])
def test_no_w_or_fold_outlives_its_step(monkeypatch, scene_name):
    # every W the fast rebuild returns and every preparation the loop makes is freed by
    # the end of its step, also where the next step reuses the step's W_g
    made = []

    def tracked(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            made.append(weakref.ref(out))
            return out

        return wrapper

    monkeypatch.setattr(solver, "rebuild_W_fast", tracked(solver.rebuild_W_fast))
    monkeypatch.setattr(solver, "prepare_solve", tracked(solver.prepare_solve))
    config = load_scene(SCENES / f"{scene_name}.scn")
    if scene_name == "bench_column":
        config = with_box_divisions(config, (7, 6, 7))
    sim = Simulation(replace(config, newton=replace(config.newton, scheme="fast")))
    for _ in range(3):
        made.clear()
        sim.step()
        gc.collect()
        assert len(made) >= 2
        assert [ref for ref in made if ref() is not None] == []


@pytest.mark.parametrize("scene_name, kept", [
    # the plane's normals repeat from the second iteration on: one rebuild a step
    ("bench_column", [[False] + [True] * 4] * 3),
    # the plates turn between the first two iterations
    ("grasp_rotate", [[False, False, True, True]] * 3),
])
def test_standard_keeps_w_as_fast_does(monkeypatch, scene_name, kept):
    # one keep rule for both schemes: an iteration that keeps D keeps W, makes
    # no rebuild solve and hands PGS the previous iteration's W object
    config = load_scene(SCENES / f"{scene_name}.scn")
    if scene_name == "bench_column":
        config = with_box_divisions(config, (7, 4, 7))
    config = replace(config, newton=replace(config.newton, max_iterations=len(kept[0]),
                                            penetration_tol=-1.0))
    fast = Simulation(replace(config, newton=replace(config.newton, scheme="fast")))
    assert [[it.kept for it in fast.step().iterations] for _ in kept] == kept
    calls, events = [], []  # per PGS call: its W and the calls made since the last one

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def recording_pgs(W, delta, h, cfg, prepared, _fn=solver.pgs):
        events.append((W, calls[:]))  # holds W alive, so that `is` is exact
        calls.clear()
        return _fn(W, delta, h, cfg, prepared)

    monkeypatch.setattr(solver, "assemble_W_standard",
                        counting("assemble_W_standard", solver.assemble_W_standard))
    monkeypatch.setattr(Factorization, "solve_multi",
                        counting("solve_multi", Factorization.solve_multi))
    monkeypatch.setattr(solver, "pgs", recording_pgs)
    standard = Simulation(replace(config, newton=replace(config.newton, scheme="standard")))
    assert [[it.kept for it in standard.step().iterations] for _ in kept] == kept
    flags = [flag for step in kept for flag in step]
    assert len(events) == len(flags)
    for k, (flag, (W, made)) in enumerate(zip(flags, events)):
        if flag:
            assert made == [] and W is events[k - 1][0], k
        else:
            assert "assemble_W_standard" in made and "solve_multi" in made, k
            assert k == 0 or W is not events[k - 1][0], k


def test_grasp_rotate_recurses_under_both_recursive_schemes():
    # the loop stops on the geometric gap after each move: some step of the
    # shipped scene needs a second iteration, in the plates' frames at the
    # step's end, and both recursive schemes count the same iterations and
    # sweeps over a fixed step count
    config = load_scene(SCENES / "grasp_rotate.scn")
    counts = {}
    for scheme in ("fast", "standard"):
        sim = Simulation(replace(config, newton=replace(config.newton, scheme=scheme)))
        reports = [sim.step() for _ in range(13)]
        assert {report.newton_exit for report in reports} <= {"penetration", "max_iterations"}
        for report in reports:
            pen = [it.penetration for it in report.iterations]
            tol = config.newton.penetration_tol
            assert all(p > tol for p in pen[:-1])
            assert (pen[-1] <= tol) == (report.newton_exit == "penetration")
        counts[scheme] = [[it.solve_iterations for it in report.iterations] for report in reports]
    assert counts["fast"] == counts["standard"]
    assert max(map(len, counts["fast"])) == 2
