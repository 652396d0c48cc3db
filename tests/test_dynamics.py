import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from contactnewton.dynamics import (
    MechanicalState,
    RigidBody,
    SoftBody,
    assemble_stiffness,
    compute_free_motion,
    integrate_correction,
    lame_parameters,
    lumped_masses,
    shape_gradients,
)
from contactnewton.errors import DegenerateTetError, NonFiniteForceError, ValidationError
from contactnewton.linalg import Factorization
from contactnewton.mesh import TetMesh, box_mesh, check_positive_volumes, load_mesh, tet_volumes

SCENES = Path(__file__).resolve().parents[1] / "scenes"


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


def jittered_box(size, divisions, seed):
    """A box mesh whose nodes are moved by up to 15% of the smallest cell edge."""
    m = box_mesh(size, divisions)
    step = min(np.asarray(size) / np.asarray(divisions))
    rng = np.random.default_rng(seed)
    mesh = TetMesh(m.nodes + rng.uniform(-0.15, 0.15, m.nodes.shape) * step, m.tets)
    check_positive_volumes(mesh, "jittered box")
    return mesh


@functools.lru_cache(maxsize=1)
def column_mesh():
    """The 7 x 46 x 7 box of bench_column.scn: 3008 nodes, 13524 tets."""
    return box_mesh((0.07, 0.46, 0.07), (7, 46, 7), center=(0.0, 0.2298, 0.0))


def shared_tet_pattern(mesh):
    """Node x node pattern: True where two nodes (or a node and itself) share a tet."""
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    ones = np.ones(len(rows), dtype=np.int8)
    return sp.csr_matrix((ones, (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))


def point_mass_body(mass=2.0, position=(0.0, 0.0, 0.0)):
    mesh = TetMesh(np.array([position]), np.zeros((0, 4)))
    return SoftBody(mesh, node_mass=mass, rayleigh_mass=0.0)


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

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan")])
    def test_node_mass_rejected_at_construction(self, mass):
        with pytest.raises(ValidationError, match="node_mass must be positive"):
            point_mass_body(mass)

    def test_node_in_no_tet_rejected_at_construction(self):
        nodes = np.vstack([REGULAR_TET, [[5.0, 5.0, 5.0]]])
        with pytest.raises(ValidationError, match="every node needs positive mass"):
            SoftBody(TetMesh(nodes, np.array([[0, 1, 2, 3]])))

    def test_asymmetric_inertia_rejected_at_construction(self):
        # its symmetric part is positive definite, but the factorization of the
        # rigid system reads only the upper triangle
        with pytest.raises(ValidationError, match="rigid inertia must be symmetric"):
            RigidBody(mass=1, inertia=[[1, 0.9, 0], [0, 1, 0], [0, 0, 1]])

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
        masses = lumped_masses(m.tets, tet_volumes(m.nodes, m.tets), 1000.0, m.n_nodes)
        assert abs(masses.sum() - 1.0) <= 1e-12  # 1e-3 m^3 * 1000 kg/m^3

    def test_lumped_masses_match_the_add_at_passes_bitwise(self):
        m = column_mesh()
        share = 1000.0 * tet_volumes(m.nodes, m.tets) / 4.0
        want = np.zeros(m.n_nodes)
        for i in range(4):
            np.add.at(want, m.tets[:, i], share)
        body = SoftBody(m, density=1000.0)
        assert np.array_equal(body.masses(), want)

    def test_fixed_mask_built_once_and_read_only(self):
        mesh = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        fixed = np.flatnonzero(mesh.nodes[:, 1] <= mesh.nodes[:, 1].min())  # the bottom face
        body = SoftBody(mesh, fixed_nodes=fixed)
        want = np.zeros(body.n_dofs, dtype=bool)
        for node in fixed:
            want[3 * node : 3 * node + 3] = True
        assert np.array_equal(body.fixed_mask, want)
        assert body.fixed_mask is body.fixed_mask
        with pytest.raises(ValueError):
            body.fixed_mask[0] = False
        assert not SoftBody(mesh).fixed_mask.any()


class TestStiffnessAssembly:
    @pytest.mark.parametrize("mesh", [
        pytest.param(lambda: jittered_box((0.1, 0.12, 0.09), (2, 3, 2), seed=5), id="jittered-box"),
        pytest.param(lambda: load_mesh(SCENES / "meshes" / "block.mesh"), id="block.mesh"),
    ])
    def test_stiffness_matches_summed_bmatrix_oracle(self, mesh):
        mesh = mesh()
        young, poisson = 3e4, 0.35
        K_oracle = np.zeros((3 * mesh.n_nodes, 3 * mesh.n_nodes))
        for tet in mesh.tets:
            dofs = (3 * tet[:, None] + np.arange(3)).ravel()
            K_oracle[np.ix_(dofs, dofs)] += element_stiffness_bmatrix(mesh.nodes[tet], young, poisson)
        K = assemble_stiffness(mesh.nodes, mesh.tets, young, poisson).toarray()
        assert np.abs(K - K_oracle).max() <= 1e-12 * np.abs(K_oracle).max()

    def test_column_stiffness_exactly_symmetric(self):
        m = column_mesh()
        K = assemble_stiffness(m.nodes, m.tets, 1e5, 0.3)
        assert (K != K.T).nnz == 0

    @pytest.mark.parametrize("mesh, nnz", [
        pytest.param(column_mesh, 349_578, id="bench_column"),
        pytest.param(lambda: load_mesh(SCENES / "meshes" / "block.mesh"), 11_997, id="block.mesh"),
    ])
    def test_one_full_block_per_node_pair(self, mesh, nnz):
        # the pattern, and so the band of the factorization, is that of one
        # full 3x3 block per pair of nodes sharing a tet
        mesh = mesh()
        K = assemble_stiffness(mesh.nodes, mesh.tets, 1e5, 0.3)
        pairs = shared_tet_pattern(mesh)
        assert K.nnz == 9 * pairs.nnz == nnz
        want = sp.kron(pairs, np.ones((3, 3), dtype=np.int8), format="csr")
        want.sort_indices()
        K.sort_indices()
        assert np.array_equal(K.indptr, want.indptr)
        assert np.array_equal(K.indices, want.indices)

    def test_gradient_identities(self):
        m = jittered_box((0.1, 0.12, 0.09), (3, 4, 3), seed=11)
        grads, vols = shape_gradients(m.nodes, m.tets)
        scale = np.abs(grads).max()
        # sum_a g_a = 0 and sum_a x_a g_a^T = I: the interpolation reproduces
        # constants and linear fields
        assert np.abs(grads.sum(axis=1)).max() <= 1e-12 * scale
        moments = np.einsum("eai,eaj->eij", m.nodes[m.tets], grads)
        assert np.abs(moments - np.eye(3)).max() <= 1e-12
        assert np.array_equal(vols, tet_volumes(m.nodes, m.tets))

    def test_column_assembly_peak_memory(self):
        # numpy reports its buffers to tracemalloc, so the peak does not
        # depend on the host's speed; a COO assembly over (m, 4, 4, 3, 3)
        # element blocks peaks at about 94 MB here
        m = column_mesh()
        tracemalloc.start()
        try:
            assemble_stiffness(m.nodes, m.tets, 1e5, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6


class TestFreeMotion:
    def test_rest_stays_at_rest(self):
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, 0, 0))
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=0.01)
        dv_free = F.backward(free.y)  # A^-1 b
        assert np.array_equal(dv_free, np.zeros(3))
        assert np.array_equal(free.q_free, state.q)

    def test_point_mass_gravity(self):
        body = point_mass_body(mass=2.0)
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10.0, 0))
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=0.01)
        dv_free = F.backward(free.y)  # A^-1 b
        assert np.allclose(dv_free, [0.0, -0.1, 0.0])
        assert np.allclose(free.q_free, state.q + 0.01 * dv_free)

    def test_fixed_face_tet_matches_dense_oracle(self):
        mesh = TetMesh(REGULAR_TET * 0.1, np.array([[0, 1, 2, 3]]))
        body = SoftBody(mesh, young=5e4, poisson=0.3, fixed_nodes=np.array([0, 1, 2]))
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -9.81, 0))
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=0.01)
        dv_free = F.backward(free.y)  # A^-1 b
        x_oracle = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(dv_free - x_oracle) <= 1e-10
        assert np.array_equal(dv_free[:9], np.zeros(9))  # fixed nodes do not move


class TestIntegrateCorrection:
    def test_zero_correction(self):
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10, 0))
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=0.01)
        dv_free = F.backward(free.y)  # A^-1 b
        out = integrate_correction(state, dv_free, h=0.01)
        assert np.array_equal(out.q, free.q_free)
        assert np.array_equal(out.v, state.v + dv_free)

    def test_full_cancellation(self):
        body = point_mass_body()
        state = body.initial_state()
        # a correction that cancels the free motion leaves a whole increment of 0
        out = integrate_correction(state, np.zeros(3), h=0.01)
        assert np.allclose(out.v, np.zeros(3))
        assert np.allclose(out.q, state.q)

    def test_incremental_equals_batch(self):
        # accumulating corrections one by one matches integrating their sum
        rng = np.random.default_rng(3)
        body = point_mass_body()
        state = body.initial_state()
        A, b = body.assemble(state, h=0.01, gravity=(0, -10, 0))
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=0.01)
        dv_free = F.backward(free.y)  # A^-1 b
        parts = [rng.standard_normal(3) * 0.01 for _ in range(4)]
        batch = integrate_correction(state, dv_free + np.sum(parts, axis=0), h=0.01)
        q = free.q_free.copy()
        v = state.v + dv_free
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
        F = Factorization(A)
        free = compute_free_motion(F, b, state, h=h)
        dv_free = F.backward(free.y)  # A^-1 b
        out = integrate_correction(state, dv_free, h=h)
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
        # the right-hand side is linear in q with slope -h K: b(q + dq) - b(q) = -h K dq
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(m, young=1e4, poisson=0.3)
        state = body.initial_state()
        rng = np.random.default_rng(8)
        state.v = 0.1 * rng.standard_normal(state.v.shape)
        dq = 1e-6 * rng.standard_normal(state.q.shape)
        h = 0.01
        _, b0 = body.assemble(state, h, gravity=(0, -9.81, 0))
        _, b1 = body.assemble(MechanicalState(state.q + dq, state.v), h, gravity=(0, -9.81, 0))
        hKdq = h * (body.stiffness() @ dq)
        assert np.abs((b1 - b0) + hKdq).max() <= 1e-8 * max(np.abs(hKdq).max(), 1e-30)

    def test_rhs_matches_two_product_formula(self):
        # the two-product form, h (f_ext - f(q, v)) - h^2 K v with K (q - q0) and K v apart
        m = box_mesh((0.1, 0.1, 0.15), (2, 2, 3))
        body = SoftBody(m, young=2e4, poisson=0.35, rayleigh_mass=0.3,
                        rayleigh_stiffness=0.05, fixed_nodes=[0, 1])
        rng = np.random.default_rng(21)
        state = body.initial_state()
        state.q = state.q + 0.003 * rng.standard_normal(state.q.shape)
        state.v = 0.2 * rng.standard_normal(state.v.shape)
        h = 0.02
        _, b = body.assemble(state, h, gravity=(0, -9.81, 0))

        K = body.stiffness()
        m3 = np.repeat(body.masses(), 3)
        f_ext = m3 * np.tile([0.0, -9.81, 0.0], m.n_nodes)
        disp = state.q - m.nodes.ravel()
        Kv = K @ state.v
        f = K @ disp + body.rayleigh_mass * (m3 * state.v) + body.rayleigh_stiffness * Kv
        expect = h * (f_ext - f) - h * h * Kv
        expect[body.fixed_mask] = 0.0
        assert np.abs(b - expect).max() <= 1e-12 * np.abs(expect).max()
