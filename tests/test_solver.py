import itertools
from pathlib import Path

import numpy as np
import pytest

from contactnewton import solver
from contactnewton.collision import (
    MeshGeometry,
    PlaneGeometry,
    Pose,
    build_frames,
    detect,
    refresh_proximity,
)
from contactnewton.constraints import (
    assemble_direction,
    assemble_H,
    assemble_W_standard,
    assemble_Wg,
    build_signed_mapping,
    compute_violation,
)
from contactnewton.dynamics import SoftBody, compute_free_motion
from contactnewton.errors import SingularBlockError, ValidationError
from contactnewton.linalg import Factorization
from contactnewton.mesh import TetMesh, box_mesh, surface_triangles, surface_vertices
from contactnewton.scene import Simulation, load_scene
from contactnewton.solver import (
    NewtonConfig,
    PgsConfig,
    PgsResult,
    StepContext,
    group_blocks,
    local_solve,
    newton_fast,
    newton_standard,
    pgs,
)

SCENES = Path(__file__).resolve().parents[1] / "scenes"


# --- reference PGS: the array-based solver the plain-float sweep replaced --------
# The oracle. With ``update="rows"`` a group's violation is read when the group
# is visited, as delta_base[g] + (h^2 W)[g rows] @ lambda, taken as one gemv of
# the row block [h^2 W | delta_base] with [lambda; 1]; the sweep must reproduce
# it bit for bit. The two column-update orders keep the whole violation current
# instead, adding each changed group's step: ``"columns"`` as (h^2 W)[:, g] @
# dlambda, ``"unscaled"`` as h^2 (W[:, g] @ dlambda), the order the array solver
# had. Both differ from the row read only in summation order, so the sweep
# matches them to rounding.


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


def pgs_reference(
    W: np.ndarray, delta_base: np.ndarray, h: float, config: PgsConfig, update: str = "rows"
) -> PgsResult:
    c = len(delta_base)
    if c == 0:
        return PgsResult(np.zeros(0), np.zeros(0), 0, [], True)
    if W.shape != (c, c):
        raise SingularBlockError(f"W is {W.shape}, violation has {c} rows")
    h2 = h * h
    hW = h2 * W
    row_blocks = np.hstack([hW, delta_base[:, None]])  # [h^2 W | delta_base]
    lam = np.zeros(c)
    delta_cur = delta_base.astype(np.float64).copy()
    eps_history: list[float] = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        lam_prev = lam.copy()
        for g in range(c // 3):
            rows = slice(3 * g, 3 * g + 3)
            if update == "rows":
                delta_cur[rows] = row_blocks[rows] @ np.append(lam, 1.0)
            new = local_solve_reference(g, W, delta_cur, lam, config.friction, h2)
            dl = new - lam[rows]
            if dl.any():
                if update == "columns":
                    delta_cur += hW[:, rows] @ dl
                elif update == "unscaled":
                    delta_cur += h2 * (W[:, rows] @ dl)
                lam[rows] = new
        num = float(np.linalg.norm(lam - lam_prev))
        den = float(np.linalg.norm(lam))
        eps = 0.0 if num == 0.0 else (np.inf if den == 0.0 else num / den)
        eps_history.append(eps)
        if eps <= config.tolerance:
            converged = True
            break
    delta_end = delta_base + h2 * (W @ lam)
    return PgsResult(lam, delta_end, iterations, eps_history, converged)


def assert_same_pgs(res, ref):
    assert np.array_equal(res.lam, ref.lam)
    assert np.array_equal(res.delta_end, ref.delta_end)
    assert np.array_equal(res.eps_history, ref.eps_history)
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged


def lcp_enumeration_oracle(W, delta_free, h):
    """Brute force over the 2^c active sets of the frictionless normal LCP.

    Solves delta = delta_free + h^2 W lam with lam >= 0 complementary to
    delta >= 0; returns the feasible complementary solution.
    """
    c = len(delta_free)
    h2 = h * h
    for active in itertools.product([False, True], repeat=c):
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


def solve_block(W, delta, lam, mu, h2):
    """local_solve on group 0 of W, the way pgs feeds it."""
    return local_solve(group_blocks(W, h2)[0], tuple(delta), tuple(lam), mu, h2)


class TestLocalSolve:
    def test_separated_contact_inactive(self):
        W = np.eye(3)
        lam = np.zeros(3)
        out = solve_block(W, np.array([0.01, 0.0, 0.0]), lam, mu=0.5, h2=1e-4)
        assert np.array_equal(out, np.zeros(3))

    def test_scalar_closed_form(self):
        # lambda_n = -delta_free / (h^2 W_nn) for a single frictionless contact
        W = 0.5 * np.eye(3)
        h2 = 1e-4
        delta = np.array([-0.004, 0.0, 0.0])
        out = solve_block(W, delta, np.zeros(3), mu=0.0, h2=h2)
        assert out[0] == pytest.approx(0.004 / (h2 * 0.5), rel=1e-12)
        assert out[1] == out[2] == 0.0

    def test_stick_zeroes_tangential_gap(self):
        # tangential demand below the cone: the 2x2 solve closes the gap
        rng = np.random.default_rng(4)
        B = rng.standard_normal((3, 3))
        W = B @ B.T + 3 * np.eye(3)
        h2 = 1e-4
        delta = np.array([-0.01, 0.0005, -0.0003])
        lam = np.array(solve_block(W, delta, np.zeros(3), mu=10.0, h2=h2))
        delta_end = delta + h2 * (W @ lam)
        # 3x3 oracle: with a huge cone the block solve must zero the
        # tangential gap while the normal redoes only the diagonal row
        assert abs(delta_end[1]) <= 1e-12
        assert abs(delta_end[2]) <= 1e-12
        assert np.hypot(lam[1], lam[2]) < 10.0 * lam[0]

    def test_zero_normal_kills_friction(self):
        W = np.eye(3)
        out = solve_block(W, np.array([0.01, -1.0, 0.5]), np.zeros(3), mu=0.5, h2=1e-4)
        assert np.array_equal(out, np.zeros(3))

    @pytest.mark.parametrize("ln_old, delta_n", [(-0.0, 0.0), (0.0, 0.0), (0.0, np.nan)],
                             ids=["minus-zero", "zero", "nan"])
    def test_normal_impulse_not_positive_gives_zero(self, ln_old, delta_n):
        # the normal row ln_old - delta_n / (h^2 Wnn) comes out -0.0, 0.0 or
        # NaN: the group gets the shared +0.0 triple, as max(0.0, ln) gave
        W = np.eye(3)
        delta, lam = np.array([delta_n, -1.0, 0.5]), np.array([ln_old, 0.3, -0.1])
        out = solve_block(W, delta, lam, mu=0.5, h2=1e-4)
        assert out is solver._ZERO
        assert not np.signbit(out).any()
        assert np.array_equal(out, local_solve_reference(0, W, delta, lam, 0.5, 1e-4))

    def test_singular_block_raises(self):
        W = np.zeros((3, 3))
        with pytest.raises(SingularBlockError):
            solve_block(W, np.array([-0.1, 0.0, 0.0]), np.zeros(3), mu=0.5, h2=1e-4)

    @pytest.mark.parametrize(
        "ratio, hypot_calls",
        [(0.5, 0), (1.0 - 5e-8, 1), (1.0 + 5e-8, 1), (2.0, 1)],
        ids=["inside", "just-inside", "just-outside", "outside"],
    )
    def test_cone_boundary(self, monkeypatch, ratio, hypot_calls):
        # the stick trial puts |lambda_t| at ratio * mu * lambda_n; np.hypot
        # runs only near or past the disk edge, and the result must equal the
        # array solver's bit for bit on either side of that pre-check
        rng = np.random.default_rng(11)
        B = rng.standard_normal((3, 3))
        W = B @ B.T + 3 * np.eye(3)
        h2, mu = 1e-4, 0.4
        lam0 = np.array([0.2, 0.01, -0.03])
        ln = lam0[0] + 1.0
        direction = np.array([0.6, -0.8])
        lt = ratio * mu * ln * direction
        # choose delta so the normal row gives ln and the stick trial gives lt
        delta = np.empty(3)
        delta[0] = -(ln - lam0[0]) * h2 * W[0, 0]
        delta[1:] = -(h2 * W[1:, 0] * (ln - lam0[0]) + h2 * W[1:, 1:] @ (lt - lam0[1:]))
        calls = []
        hypot = np.hypot
        monkeypatch.setattr(np, "hypot", lambda *a: calls.append(a) or hypot(*a))
        out = solve_block(W, delta, lam0, mu, h2)
        assert len(calls) == hypot_calls
        monkeypatch.undo()
        ref = local_solve_reference(0, W, delta, lam0, mu, h2)
        assert np.array_equal(np.array(out), ref)
        assert out[0] == pytest.approx(ln, rel=1e-12)
        norm_t = np.hypot(out[1], out[2])
        if ratio < 1.0:
            assert norm_t == pytest.approx(ratio * mu * out[0], rel=1e-9)
            assert norm_t < mu * out[0]
        else:
            assert norm_t == pytest.approx(mu * out[0], rel=1e-15)


class TestPgs:
    def test_no_contacts(self):
        res = pgs(np.zeros((0, 0)), np.zeros(0), h=0.01, config=PgsConfig())
        assert res.converged
        assert res.iterations == 0
        assert res.lam.size == 0

    def test_single_contact_matches_closed_form(self):
        W = np.diag([0.5, 1.0, 1.0])
        delta = np.array([-0.002, 0.0, 0.0])
        res = pgs(W, delta, h=0.01, config=PgsConfig(friction=0.0))
        assert res.lam[0] == pytest.approx(0.002 / (1e-4 * 0.5), rel=1e-12)
        assert res.delta_end[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_two_contacts(self):
        W_n = np.array([[1.0, 0.3], [0.3, 1.0]])
        delta_n = np.array([-0.01, -0.01])
        W, delta = normal_only_to_groups(W_n, delta_n)
        cfg = PgsConfig(max_iterations=500, tolerance=1e-13, friction=0.0)
        res = pgs(W, delta, h=0.01, config=cfg)
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
            cfg = PgsConfig(max_iterations=2000, tolerance=1e-14, friction=0.0)
            res = pgs(W, delta, h=0.01, config=cfg)
            oracle = lcp_enumeration_oracle(W_n, delta_n, h=0.01)
            scale = max(np.abs(oracle).max(), 1e-9)
            assert np.abs(res.lam[::3] - oracle).max() <= 1e-7 * scale

    def test_complementarity_postconditions(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((9, 9))
        W = B @ B.T + 9 * np.eye(9)
        delta = rng.uniform(-0.02, 0.01, 9)
        cfg = PgsConfig(max_iterations=200, tolerance=1e-6, friction=0.4)
        res = pgs(W, delta, h=0.01, config=cfg)
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
        stick = pgs(W, np.array([-0.01, 0.002, 0.0]), h,
                    PgsConfig(max_iterations=200, tolerance=1e-12, friction=0.9))
        g = stick.delta_end
        assert abs(g[1]) <= 1e-6 and abs(g[2]) <= 1e-6
        slip = pgs(W, np.array([-0.01, 0.02, 0.0]), h,
                   PgsConfig(max_iterations=200, tolerance=1e-12, friction=0.1))
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
        cfg = PgsConfig(max_iterations=50, tolerance=1e-10, friction=0.3)
        r1 = pgs(W.copy(), delta.copy(), 0.01, cfg)
        r2 = pgs(W.copy(), delta.copy(), 0.01, cfg)
        assert np.array_equal(r1.lam, r2.lam)
        assert np.array_equal(r1.delta_end, r2.delta_end)

    def test_duplicate_contacts_resolved(self):
        # a duplicated contact leaves both diagonal blocks regular but the
        # system singular (rank 3); PGS must still resolve the penetration
        W1 = np.diag([1.0, 1.0, 1.0])
        W = np.zeros((6, 6))
        W[:3, :3] = W1
        W[3:, 3:] = W1
        W[:3, 3:] = W1
        W[3:, :3] = W1  # rank 3: duplicated contact
        delta = np.array([-0.01, 0, 0, -0.01, 0, 0.0])
        res = pgs(W, delta, 0.01, PgsConfig(max_iterations=300, tolerance=1e-10))
        assert res.delta_end[::3].min() >= -1e-6


    def test_singular_group_is_named(self):
        W = np.eye(6)
        W[3, 3] = -1.0
        delta = np.array([-0.01, 0.0, 0.0, -0.01, 0.0, 0.0])
        with pytest.raises(SingularBlockError, match="group 1: normal compliance"):
            pgs(W, delta, 0.01, PgsConfig())

    def test_one_local_solve_per_group_and_sweep(self, monkeypatch):
        # the benchmark's tracer counts local_solve through the module global
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
        res = pgs(W, delta, 0.01, PgsConfig(max_iterations=7, tolerance=1e-300, friction=0.3))
        assert res.iterations == 7 and not res.converged
        assert len(calls) == 7 * 4


def assert_close_pgs(res, ref, delta_base, rtol=1e-10):
    """lambda agrees to ``rtol`` relative to its largest entry, and the end
    violation, which nearly cancels, to ``rtol`` relative to the free one."""
    assert np.abs(res.lam - ref.lam).max() <= rtol * np.abs(ref.lam).max()
    assert np.abs(res.delta_end - ref.delta_end).max() <= rtol * np.abs(delta_base).max()


def random_problem(rng):
    groups = int(rng.integers(2, 7))
    c = 3 * groups
    B = rng.standard_normal((c, c))
    W = B @ B.T + rng.uniform(0.1, c) * np.eye(c)
    return W, rng.uniform(-0.01, 0.005, c)


def random_cases(mu):
    """24 random problems with friction ``mu``, half run to convergence and
    half to a sweep cap."""
    rng = np.random.default_rng(int(10 * mu) + 1)
    for trial in range(24):
        W, delta = random_problem(rng)
        if trial % 2:
            cfg = PgsConfig(max_iterations=400, tolerance=1e-5, friction=mu)
        else:
            cfg = PgsConfig(max_iterations=int(rng.integers(1, 40)),
                            tolerance=1e-300, friction=mu)
        yield W, delta, cfg


@pytest.fixture(scope="class")
def grasp_rotate_pgs_inputs():
    """(W, delta, h, config) of every PGS call in the first 2 steps of grasp_rotate."""
    recorded = []
    pgs_now = solver.pgs

    def recording(W, delta, h, config):
        recorded.append((W.copy(), delta.copy(), h, config))
        return pgs_now(W, delta, h, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "pgs", recording)
        sim = Simulation(load_scene(SCENES / "grasp_rotate.scn"))
        for _ in range(2):
            sim.step()
    assert len(recorded) >= 2 and all(len(d) for _, d, _, _ in recorded)
    return recorded


class TestPgsMatchesReference:
    """The plain-float sweep reproduces the row-read array PGS bit for bit,
    and both column-update oracles to rounding."""

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems(self, mu):
        seen = set()
        for W, delta, cfg in random_cases(mu):
            res = pgs(W, delta, 0.01, cfg)
            assert_same_pgs(res, pgs_reference(W, delta, 0.01, cfg))
            seen.add("converged" if res.converged else "max_iterations")
        assert seen == {"converged", "max_iterations"}

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems_match_unscaled_update(self, mu):
        for W, delta, cfg in random_cases(mu):
            assert_close_pgs(pgs(W, delta, 0.01, cfg),
                             pgs_reference(W, delta, 0.01, cfg, update="unscaled"), delta)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 10.0])
    def test_random_problems_match_column_update(self, mu):
        for W, delta, cfg in random_cases(mu):
            assert_close_pgs(pgs(W, delta, 0.01, cfg),
                             pgs_reference(W, delta, 0.01, cfg, update="columns"), delta)

    def test_grasp_rotate_inputs(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_same_pgs(pgs(W, delta, h, config), pgs_reference(W, delta, h, config))

    def test_grasp_rotate_inputs_match_unscaled_update(self, grasp_rotate_pgs_inputs):
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            assert_close_pgs(pgs(W, delta, h, config),
                             pgs_reference(W, delta, h, config, update="unscaled"), delta)

    def test_grasp_rotate_inputs_match_column_update(self, grasp_rotate_pgs_inputs):
        # rounding moves lambda, but not the sweep count or the verdict
        for W, delta, h, config in grasp_rotate_pgs_inputs:
            res = pgs(W, delta, h, config)
            ref = pgs_reference(W, delta, h, config, update="columns")
            assert_close_pgs(res, ref, delta)
            assert (res.iterations, res.converged) == (ref.iterations, ref.converged)

    def test_arguments_unmodified(self):
        for trial, (W, delta, cfg) in enumerate(random_cases(0.3)):
            W_in, delta_in = W.copy(), delta.copy()
            pgs(W, delta, 0.01, cfg)
            assert np.array_equal(W, W_in), trial
            assert np.array_equal(delta, delta_in), trial


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
        A, b = body.assemble(states[oid], h=h, gravity=gravity)
        F[oid] = Factorization(A)
        free[oid] = compute_free_motion(F[oid], b, states[oid], h=h)
    S = {
        oid: build_signed_mapping(pairs, oid, body.n_dofs, body.fixed_mask)
        for oid, body in bodies.items()
    }

    def views_at(dv_total):
        views = {}
        for oid in bodies:
            q = free[oid].q_free + h * dv_total.get(oid, 0.0)
            views[oid] = q.reshape(-1, 3)
        views[PLANE_ID] = Pose.identity()
        return views

    def refresh(dv_total):
        p_a, p_b = refresh_proximity(pairs, views_at(dv_total))
        return p_a - p_b

    ctx = StepContext(
        pairs=pairs,
        detection_frames=build_frames(pairs),
        S_by_object=S,
        F_by_object=F,
        r0=refresh({}),
        h=h,
        refresh=refresh,
        wg=assemble_Wg(S, F) if with_wg else None,
    )
    return ctx, bodies, states, free


PLANE_ID = 99


def falling_block_setup(center_y=0.0495, vy=-0.05):
    m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2), center=(0.0, center_y, 0.0))
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
        assert all(np.array_equal(lam, np.zeros_like(lam)) for lam in res.lam_history)
        assert np.array_equal(res.dv_by_object[0], np.zeros_like(res.dv_by_object[0]))

    def test_one_iteration_is_single_scheme(self):
        bodies, pairs = falling_block_setup()
        ctx, *_ = build_context((bodies, pairs))
        one = newton_standard(ctx, NewtonConfig(scheme="standard", max_iterations=1),
                              PgsConfig(max_iterations=100))
        assert len(one.lam_history) == 1

    def test_fast_noop_without_contact_forces(self):
        bodies, pairs = falling_block_setup(center_y=0.058)
        ctx, *_ = build_context((bodies, pairs), gravity=(0, 0, 0))
        res = newton_fast(ctx, NewtonConfig(scheme="fast"), PgsConfig())
        assert np.array_equal(res.dv_by_object[0], np.zeros_like(res.dv_by_object[0]))

    def test_schemes_agree_with_frozen_frames(self):
        bodies, pairs = falling_block_setup()
        cfgn = dict(max_iterations=4, relinearize=False, penetration_tol=1e-12)
        pcfg = PgsConfig(max_iterations=150, tolerance=1e-10, friction=0.5)
        ctx1, *_ = build_context((bodies, pairs))
        std = newton_standard(ctx1, NewtonConfig(scheme="standard", **cfgn), pcfg)
        ctx2, *_ = build_context((bodies, pairs))
        fast = newton_fast(ctx2, NewtonConfig(scheme="fast", **cfgn), pcfg)
        assert len(std.lam_history) == len(fast.lam_history)
        scale = max(max(np.abs(l).max() for l in std.lam_history), 1e-12)
        for ls, lf in zip(std.lam_history, fast.lam_history):
            assert np.abs(ls - lf).max() <= 1e-8 * scale
        dv_s = std.dv_by_object[0]
        dv_f = fast.dv_by_object[0]
        assert np.abs(dv_s - dv_f).max() <= 1e-8 * max(np.abs(dv_s).max(), 1e-12)

    def test_fast_loop_performs_no_system_solves(self):
        bodies, pairs = falling_block_setup()
        for iterations in (1, 5):
            ctx, *_ = build_context((bodies, pairs))
            F = ctx.F_by_object[0]
            before = F.solve_count
            newton_fast(
                ctx,
                NewtonConfig(scheme="fast", max_iterations=iterations,
                             penetration_tol=0.0, rotation_tol=0.0),
                PgsConfig(max_iterations=50),
            )
            # the loop moves r in constraint space and the final correction
            # gathers from the cached columns of A^-1: no backsolve at all
            assert F.solve_count - before == 0

    def test_standard_backsolves_every_iteration_with_wg_set(self, monkeypatch):
        # the correction route follows the scheme, not whether ctx.wg exists
        bodies, pairs = falling_block_setup()
        solves = []

        def counting_solve(self, b, _solve=Factorization.solve):
            solves.append(1)
            return _solve(self, b)

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
            assert len(solves) == iterations  # one mechanical correction each

    def test_newton_determinism(self):
        bodies, pairs = falling_block_setup()
        lam_runs = []
        for _ in range(2):
            ctx, *_ = build_context((bodies, pairs))
            res = newton_fast(ctx, NewtonConfig(scheme="fast", max_iterations=3,
                                                penetration_tol=0.0),
                              PgsConfig(max_iterations=60, friction=0.5))
            lam_runs.append(np.concatenate(res.lam_history))
        assert np.array_equal(lam_runs[0], lam_runs[1])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NewtonConfig(scheme="warp")
        with pytest.raises(ValidationError):
            PgsConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            PgsConfig(tolerance=0.0)

    @pytest.mark.parametrize("config, field", [
        (PgsConfig, "max_iterations"),
        (PgsConfig, "tolerance"),
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
