import numpy as np
import pytest

from contactnewton.dynamics import (
    MechanicalState,
    RigidBody,
    SoftBody,
    compute_free_motion,
    integrate_correction,
    lame_parameters,
    lumped_masses,
)
from contactnewton.errors import DegenerateTetError, NonFiniteForceError, ValidationError
from contactnewton.linalg import Factorization
from contactnewton.mesh import TetMesh, box_mesh, tet_volumes


def element_stiffness_bmatrix(verts, young, poisson):
    """Independent oracle: strain-displacement (B-matrix) assembly with the
    engineering-notation elasticity matrix, K = V B^T C B."""
    lam, mu = lame_parameters(young, poisson)
    C = np.array(
        [
            [lam + 2 * mu, lam, lam, 0, 0, 0],
            [lam, lam + 2 * mu, lam, 0, 0, 0],
            [lam, lam, lam + 2 * mu, 0, 0, 0],
            [0, 0, 0, mu, 0, 0],
            [0, 0, 0, 0, mu, 0],
            [0, 0, 0, 0, 0, mu],
        ]
    )
    edges = np.column_stack([verts[i] - verts[0] for i in (1, 2, 3)])
    vol = np.linalg.det(edges) / 6.0
    inv = np.linalg.inv(edges)
    grads = np.vstack([-inv.sum(axis=0), inv])
    B = np.zeros((6, 12))
    for a in range(4):
        gx, gy, gz = grads[a]
        B[:, 3 * a : 3 * a + 3] = [
            [gx, 0, 0],
            [0, gy, 0],
            [0, 0, gz],
            [gy, gx, 0],
            [0, gz, gy],
            [gz, 0, gx],
        ]
    return vol * B.T @ C @ B


def point_mass_body(mass=2.0, position=(0.0, 0.0, 0.0)):
    mesh = TetMesh(np.array([position]), np.zeros((0, 4)))
    return SoftBody(mesh, node_masses=np.array([mass]), rayleigh_mass=0.0)


REGULAR_TET = np.array(
    [
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
)


class TestAssembly:
    def test_point_mass_system(self):
        body = point_mass_body(mass=2.0)
        A, b = body.assemble(body.initial_state(), h=0.01, gravity=(0, -10.0, 0))
        assert np.allclose(A.toarray(), 2.0 * np.eye(3))
        assert np.allclose(b, [0.0, -0.2, 0.0])

    def test_rigid_no_force(self):
        body = RigidBody(mass=1.0, inertia=np.eye(3) * 0.1)
        A, b = body.assemble(np.eye(3), h=0.01, gravity=(0, 0, 0))
        assert np.array_equal(b, np.zeros(6))
        expect = np.zeros((6, 6))
        expect[:3, :3] = np.eye(3)
        expect[3:, 3:] = 0.1 * np.eye(3)
        assert np.allclose(A.toarray(), expect)

    def test_rigid_world_inertia_rotates(self):
        body = RigidBody(mass=1.0, inertia=np.diag([1.0, 2.0, 3.0]))
        R = np.array([[0.0, -1, 0], [1.0, 0, 0], [0.0, 0, 1]])  # 90 deg about z
        A, _ = body.assemble(R, h=0.01, gravity=(0, 0, 0))
        assert np.allclose(A.toarray()[3:, 3:], np.diag([2.0, 1.0, 3.0]), atol=1e-12)

    def test_stiffness_matches_bmatrix_oracle(self):
        mesh = TetMesh(REGULAR_TET, np.array([[0, 1, 2, 3]]))
        body = SoftBody(mesh, young=1e4, poisson=0.3)
        K = body.stiffness().toarray()
        K_oracle = element_stiffness_bmatrix(REGULAR_TET, 1e4, 0.3)
        scale = np.abs(K_oracle).max()
        assert np.abs(K - K_oracle).max() <= 1e-8 * scale

    def test_degenerate_tet_rejected(self):
        flat = REGULAR_TET.copy()
        flat[3] = flat[0]
        with pytest.raises(DegenerateTetError):
            SoftBody(TetMesh(flat, np.array([[0, 1, 2, 3]])))

    def test_inverted_tet_rejected(self):
        inv = REGULAR_TET[[1, 0, 2, 3]]
        with pytest.raises(DegenerateTetError):
            SoftBody(TetMesh(inv, np.array([[0, 1, 2, 3]])))

    def test_nonfinite_force_rejected(self):
        body = point_mass_body()
        state = body.initial_state()
        state.v[0] = np.nan
        with pytest.raises(NonFiniteForceError):
            body.assemble(state, h=0.01, gravity=(0, -9.81, 0))

    def test_material_validation(self):
        mesh = TetMesh(REGULAR_TET, np.array([[0, 1, 2, 3]]))
        with pytest.raises(ValidationError):
            SoftBody(mesh, young=-1.0)
        with pytest.raises(ValidationError):
            SoftBody(mesh, poisson=0.5)
        with pytest.raises(ValidationError):
            SoftBody(mesh, density=0.0)

    @pytest.mark.parametrize("node", [-2, 100, 8])
    def test_fixed_node_out_of_range_rejected(self, node):
        mesh = box_mesh((0.1, 0.1, 0.1), (1, 1, 1))  # 8 nodes
        with pytest.raises(ValidationError):
            SoftBody(mesh, fixed_nodes=[node])

    def test_system_matrix_kept_per_time_step(self):
        mesh = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(mesh, fixed_nodes=[0, 1])
        state = body.initial_state((0.0, -0.3, 0.1))
        A1, b1 = body.assemble(state, h=0.01, gravity=(0, -9.81, 0))
        moved = MechanicalState(state.q + 1e-3, state.v)
        A2, b2 = body.assemble(moved, h=0.01, gravity=(0, -9.81, 0))
        assert A2 is A1  # not rebuilt for the same h
        fresh = SoftBody(mesh, fixed_nodes=[0, 1])
        A_ref, b_ref = fresh.assemble(moved, h=0.01, gravity=(0, -9.81, 0))
        assert np.array_equal(A2.toarray(), A_ref.toarray())
        assert np.array_equal(b2, b_ref)
        A3, _ = body.assemble(state, h=0.02, gravity=(0, -9.81, 0))
        assert A3 is not A1
        A3_ref, _ = SoftBody(mesh, fixed_nodes=[0, 1]).assemble(state, h=0.02, gravity=(0, -9.81, 0))
        assert np.array_equal(A3.toarray(), A3_ref.toarray())
        assert not np.array_equal(A3.toarray(), A1.toarray())

    def test_lumped_mass_total(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        masses = lumped_masses(m.nodes, m.tets, density=1000.0)
        assert abs(masses.sum() - 1.0) <= 1e-12  # 1e-3 m^3 * 1000 kg/m^3


class TestFreeMotion:
    def test_rest_stays_at_rest(self):
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, 0, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        assert np.array_equal(free.dv_free, np.zeros(3))
        assert np.array_equal(free.q_free, state.q)

    def test_point_mass_gravity(self):
        body = point_mass_body(mass=2.0)
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10.0, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        assert np.allclose(free.dv_free, [0.0, -0.1, 0.0])
        assert np.allclose(free.q_free, state.q + 0.01 * free.dv_free)

    def test_fixed_face_tet_matches_dense_oracle(self):
        mesh = TetMesh(REGULAR_TET * 0.1, np.array([[0, 1, 2, 3]]))
        body = SoftBody(mesh, young=5e4, poisson=0.3, fixed_nodes=np.array([0, 1, 2]))
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -9.81, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        x_oracle = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(free.dv_free - x_oracle) <= 1e-10
        assert np.array_equal(free.dv_free[:9], np.zeros(9))  # fixed nodes do not move


class TestIntegrateCorrection:
    def test_zero_correction(self):
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        out = integrate_correction(state, free, np.zeros(3), h=0.01)
        assert np.array_equal(out.q, free.q_free)

    def test_full_cancellation(self):
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        out = integrate_correction(state, free, -free.dv_free, h=0.01)
        assert np.allclose(out.v, np.zeros(3))
        assert np.allclose(out.q, state.q)

    def test_incremental_equals_batch(self):
        # accumulating corrections one by one matches integrating their sum
        rng = np.random.default_rng(3)
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10, 0))
        free = compute_free_motion(Factorization(A), b, state, h=0.01)
        parts = [rng.standard_normal(3) * 0.01 for _ in range(4)]
        batch = integrate_correction(state, free, np.sum(parts, axis=0), h=0.01)
        q = free.q_free.copy()
        v = state.v + free.dv_free
        for p in parts:
            v = v + p
            q = q + 0.01 * p
        assert np.abs(batch.q - q).max() <= 1e-12
        assert np.abs(batch.v - v).max() <= 1e-12


class TestProperties:
    def test_momentum_conserved_free_floating(self):
        # no external force, no mass-proportional damping: total momentum of
        # a free-floating deformed body is preserved by the implicit step
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(m, young=1e4, poisson=0.3, rayleigh_mass=0.0, rayleigh_stiffness=0.1)
        state = body.initial_state()
        rng = np.random.default_rng(12)
        state.q = state.q + 0.002 * rng.standard_normal(state.q.shape)
        state.v = 0.1 * rng.standard_normal(state.v.shape)
        h = 0.01
        A, b = body.assemble(state, h=h, gravity=(0, 0, 0))
        free = compute_free_motion(Factorization(A), b, state, h=h)
        out = integrate_correction(state, free, np.zeros_like(state.v), h=h)
        m3 = np.repeat(body.masses(), 3)
        p_before = (m3 * state.v).reshape(-1, 3).sum(axis=0)
        p_after = (m3 * out.v).reshape(-1, 3).sum(axis=0)
        assert np.abs(p_after - p_before).max() <= 1e-10 * max(1.0, np.abs(p_before).max())

    def test_stiffness_symmetric_and_system_spd(self):
        m = box_mesh((0.1, 0.1, 0.15), (2, 2, 3))
        body = SoftBody(m, young=2e4, poisson=0.45)
        K = body.stiffness()
        asym = abs(K - K.T)
        assert asym.data.max(initial=0.0) <= 1e-10 * np.abs(K.data).max()
        A, _ = body.assemble(body.initial_state(), h=0.02, gravity=(0, -9.81, 0))
        Factorization(A)  # SPD: must not raise

    def test_force_finite_difference_matches_stiffness(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(m, young=1e4, poisson=0.3)
        state = body.initial_state()
        rng = np.random.default_rng(8)
        dq = 1e-6 * rng.standard_normal(state.q.shape)
        f0 = body.internal_force(state.q, state.v)
        f1 = body.internal_force(state.q + dq, state.v)
        Kdq = body.stiffness() @ dq
        assert np.abs((f1 - f0) - Kdq).max() <= 1e-8 * max(np.abs(Kdq).max(), 1e-30)
