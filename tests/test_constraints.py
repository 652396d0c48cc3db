import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from contactnewton.collision import (
    MeshGeometry,
    PlaneGeometry,
    Pose,
    build_frames,
    detect,
    proximity,
)
from contactnewton.constraints import (
    apply_transposed,
    assemble_direction,
    assemble_H,
    assemble_W_standard,
    assemble_Wg,
    build_signed_mapping,
    compute_violation,
    rebuild_W_fast,
)
from contactnewton.dynamics import MechanicalState, RigidBody, SoftBody, compute_free_motion
from contactnewton.errors import DimensionMismatchError
from contactnewton.linalg import Factorization
from contactnewton.scene import load_scene
from contactnewton.solver import StepContext, fast_update_proximity
from contactnewton.verify import prepare
from contactnewton.mesh import TetMesh, box_mesh, surface_triangles, surface_vertices
from pairs_reference import AttachKind, Attachment, ProximityPair, to_contacts
from stiffness_reference import system_matrix
from test_scene import COUPLED_BALL, MIXED_SCENE, SCENES, SPINNING_BALL, write_scene


def axes_frame():
    """Frame rows (n, t1, t2) = (y, x, z)."""
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def random_frame(seed):
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    t1 = np.cross(n, rng.standard_normal(3))
    t1 /= np.linalg.norm(t1)
    return np.stack([n, t1, np.cross(n, t1)])


def point_mass_pair(mass=1.0, height=-0.002):
    """One-node body of the given mass touching the plane y = 0."""
    mesh = TetMesh(np.array([[0.0, height, 0.0]]), np.zeros((0, 4)))
    body = SoftBody(mesh, node_mass=mass, rayleigh_mass=0.0)
    pair = ProximityPair(
        object_a=0,
        object_b=1,
        attach_a=Attachment(AttachKind.VERTEX, 0, vertex=0),
        attach_b=Attachment(
            AttachKind.WORLD, 1, world_point=np.array([0.0, 0.0, 0.0])
        ),
        p_a=np.array([0.0, height, 0.0]),
        p_b=np.zeros(3),
        ref_normal=np.array([0.0, 1.0, 0.0]),
        signed_distance=height,
        vertex_id=0,
        element_id=-1,
    )
    return body, to_contacts([pair])


def block_on_plane_context(h=0.01, center_y=0.0495, fixed_nodes=()):
    """Small soft box over the plane y = 0, with factorization and mappings."""
    m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2), center=(0.0, center_y, 0.0))
    body = SoftBody(m, young=5e4, poisson=0.3, fixed_nodes=fixed_nodes)
    tris = surface_triangles(m)
    geom = MeshGeometry(
        object_id=0,
        points=m.nodes,
        triangles=tris,
        vertex_ids=surface_vertices(tris),
        deformable=True,
    )
    plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
    pairs = detect([geom, plane], threshold=0.01)
    assert pairs
    state = body.initial_state()
    A = system_matrix(body, h)
    b = body.assemble(state, h=h, gravity=(0, -9.81, 0))
    F = Factorization(A)
    S = build_signed_mapping(pairs, 0, body.n_dofs, body.fixed_mask)
    frames = build_frames(pairs)
    return body, state, pairs, frames, F, S, h


def assemble_H_reference(D, G):
    """H = D G through sp.block_diag, the route the hand-built CSR replaced."""
    D_sparse = sp.block_diag(list(D), format="csr") if len(D) else sp.csr_matrix((0, 0))
    return (D_sparse @ G).tocsr()


def dense(D):
    """The block-diagonal direction matrix of the (p, 3, 3) blocks D as a dense array."""
    return scipy.linalg.block_diag(*D)


class TestDirectionMatrix:
    def test_single_block_permutation(self):
        D = assemble_direction([axes_frame()])
        expect = np.array([[0.0, 1, 0], [1.0, 0, 0], [0.0, 0, 1]])
        assert np.array_equal(dense(D), expect)

    def test_two_groups_block_diagonal(self):
        D = assemble_direction([axes_frame(), random_frame(3)])
        Dd = dense(D)
        assert Dd.shape == (6, 6)
        assert np.array_equal(Dd[:3, 3:], np.zeros((3, 3)))
        assert np.array_equal(Dd[3:, :3], np.zeros((3, 3)))

    def test_ddt_is_identity(self):
        frames = [random_frame(s) for s in range(5)]
        D = dense(assemble_direction(frames))
        assert np.abs(D @ D.T - np.eye(15)).max() <= 1e-12

    def test_apply_consistency(self):
        D = assemble_direction([random_frame(1), random_frame(2)])
        rel = np.random.default_rng(0).standard_normal(6)
        Dd = dense(D)
        assert np.allclose(compute_violation(D, rel), Dd @ rel)
        lam = np.random.default_rng(1).standard_normal(6)
        assert np.allclose(apply_transposed(D, lam), Dd.T @ lam)
        # H = D G through the sparse block diagonal that assemble_H builds
        G = np.random.default_rng(2).standard_normal((6, 4))
        assert np.allclose(assemble_H(D, sp.csr_matrix(G)).toarray(), Dd @ G)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2), (0,), (1, 9)])
    def test_rejects_non_frame_shapes(self, shape):
        with pytest.raises(DimensionMismatchError):
            assemble_direction(np.zeros(shape))


class TestContactJacobian:
    def test_vertex_axes_rows(self):
        body, pair = point_mass_pair()
        D = assemble_direction([axes_frame()])
        S = build_signed_mapping(pair, 0, 3)
        H = assemble_H(D, S)
        expect = np.array([[0.0, 1, 0], [1.0, 0, 0], [0.0, 0, 1]])
        assert np.allclose(H.toarray(), expect)

    def test_identity_direction_gives_G(self):
        body, pair = point_mass_pair()
        D = assemble_direction([np.eye(3)])
        G = build_signed_mapping(pair, 0, 3)
        H = assemble_H(D, G)
        assert np.array_equal(H.toarray(), G.toarray())

    def test_projected_relative_velocity_oracle(self):
        # H v equals the frame-projected relative proximity velocity
        rng = np.random.default_rng(7)
        nodes = rng.standard_normal((3, 3))
        pair = ProximityPair(
            object_a=0,
            object_b=1,
            attach_a=Attachment(
                AttachKind.BARYCENTRIC,
                0,
                triangle=np.array([0, 1, 2]),
                weights=np.array([0.25, 0.35, 0.4]),
            ),
            attach_b=Attachment(AttachKind.WORLD, 1, world_point=np.zeros(3)),
            p_a=np.array([0.25, 0.35, 0.4]) @ nodes,
            p_b=np.zeros(3),
            ref_normal=np.array([0.0, 1.0, 0.0]),
            signed_distance=0.0,
            vertex_id=0,
            element_id=0,
        )
        pair = to_contacts([pair])
        frame = random_frame(11)
        D = assemble_direction([frame])
        S = build_signed_mapping(pair, 0, 9)
        H = assemble_H(D, S)
        v = rng.standard_normal(9)
        rel_velocity = np.array([0.25, 0.35, 0.4]) @ v.reshape(3, 3)
        oracle = frame @ rel_velocity
        assert np.abs(H @ v - oracle).max() <= 1e-12

    def test_dimension_mismatch(self):
        body, pair = point_mass_pair()
        D = assemble_direction([axes_frame(), axes_frame()])
        S = build_signed_mapping(pair, 0, 3)
        with pytest.raises(DimensionMismatchError):
            assemble_H(D, S)

    def test_matches_block_diag_product_bitwise(self):
        # the hand-built CSR of D stores every block entry, zeros included,
        # as sp.block_diag does: H's pattern, its entry order and every value
        # with the sign of zero are those of the sp.block_diag product, on
        # plane frames (many exact zeros) and on random ones
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        turned = np.array([random_frame(40 + k) for k in range(len(frames))])
        for D in (assemble_direction(frames), assemble_direction(turned),
                  assemble_direction(-frames), assemble_direction(np.zeros((0, 3, 3)))):
            G = S if len(D) else sp.csr_matrix((0, S.shape[1]))
            H = assemble_H(D, G)
            expect = assemble_H_reference(D, G)
            assert H.shape == expect.shape
            assert np.array_equal(H.indptr, expect.indptr)
            assert np.array_equal(H.indices, expect.indices)
            assert np.array_equal(H.data.view(np.int64), expect.data.view(np.int64))
            assert np.array_equal(H.toarray().view(np.int64), expect.toarray().view(np.int64))


class TestDelassus:
    def test_point_mass_W_is_inverse_mass(self):
        body, pair = point_mass_pair(mass=2.0)
        state = body.initial_state()
        A = system_matrix(body, 0.01)
        b = body.assemble(state, h=0.01, gravity=(0, 0, 0))
        F = Factorization(A)
        D = assemble_direction([axes_frame()])
        S = build_signed_mapping(pair, 0, 3)
        H = assemble_H(D, S)
        W = assemble_W_standard({0: H}, {0: F})
        assert np.abs(W - 0.5 * np.eye(3)).max() <= 1e-12

    def test_two_objects_sum(self):
        # two identical point masses in touching contact: W doubles
        mesh_a = TetMesh(np.array([[0.0, 0.0, 0.0]]), np.zeros((0, 4)))
        mesh_b = TetMesh(np.array([[0.0, -0.001, 0.0]]), np.zeros((0, 4)))
        body_a = SoftBody(mesh_a, node_mass=2.0, rayleigh_mass=0.0)
        body_b = SoftBody(mesh_b, node_mass=2.0, rayleigh_mass=0.0)
        pair = ProximityPair(
            object_a=0,
            object_b=1,
            attach_a=Attachment(AttachKind.VERTEX, 0, vertex=0),
            attach_b=Attachment(AttachKind.VERTEX, 1, vertex=0),
            p_a=np.array([0.0, 0.0, 0.0]),
            p_b=np.array([0.0, -0.001, 0.0]),
            ref_normal=np.array([0.0, 1.0, 0.0]),
            signed_distance=0.001,
            vertex_id=0,
            element_id=0,
        )
        pair = to_contacts([pair])
        D = assemble_direction([axes_frame()])
        F = {}
        H = {}
        for oid, body in ((0, body_a), (1, body_b)):
            A = system_matrix(body, 0.01)
            F[oid] = Factorization(A)
            H[oid] = assemble_H(D, build_signed_mapping(pair, oid, 3))
        W = assemble_W_standard(H, F)
        assert np.abs(W - 2.0 * 0.5 * np.eye(3)).max() <= 1e-12

    def test_small_mesh_matches_dense_oracle(self):
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        D = assemble_direction(frames)
        H = assemble_H(D, S)
        W = assemble_W_standard({0: H}, {0: F})
        A = system_matrix(body, h)
        Hd = H.toarray()
        W_oracle = Hd @ np.linalg.solve(A.toarray(), Hd.T)
        scale = np.abs(W_oracle).max()
        assert np.abs(W - W_oracle).max() <= 1e-9 * scale

    def test_hands_solve_multi_a_fortran_order_rhs(self, monkeypatch):
        # the solve gathers the permuted rows into a Fortran-order block, which
        # a C-order right-hand side makes a buffered gather; both give W bit
        # for bit
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        H = assemble_H(assemble_direction(frames), S)
        seen = []

        def solve_multi(self, B, _fn=Factorization.solve_multi):
            seen.append(B.flags.f_contiguous)
            return _fn(self, B)

        monkeypatch.setattr(Factorization, "solve_multi", solve_multi)
        W = assemble_W_standard({0: H}, {0: F})
        assert seen == [True]
        c_order = H.T.toarray(order="C")
        assert W.tobytes() == (H @ F.solve_multi(c_order)).tobytes()

    def test_symmetric_psd(self):
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        D = assemble_direction(frames)
        H = assemble_H(D, S)
        W = assemble_W_standard({0: H}, {0: F})
        assert np.abs(W - W.T).max() <= 1e-10 * np.abs(W).max()
        eigs = np.linalg.eigvalsh(0.5 * (W + W.T))
        assert eigs.min() >= -1e-8 * np.abs(eigs).max()


def rebuild_W_fast_reference(D, wg: np.ndarray) -> np.ndarray:
    """The einsum congruence that the batched matrix products replaced, with D
    the (p, 3, 3) blocks."""
    g = len(D)
    if wg.shape != (3 * g, 3 * g):
        raise DimensionMismatchError(
            f"direction matrix is {3 * g} rows, W_g is {wg.shape}"
        )
    blocks = np.einsum("gia,gahb->gihb", D, wg.reshape(g, 3, g, 3))
    return np.einsum("gihb,hjb->gihj", blocks, D).reshape(3 * g, 3 * g)


def rebuild_W_fast_column_reference(D, wg: np.ndarray) -> np.ndarray:
    """W = D (W_g D^T) by column groups, then row groups: Y[:, j] = W_g[:, j] D_j^T
    on a transposed view, then W[i, :] = D_i Y[i, :]."""
    g = len(D)
    c = 3 * g
    Y = wg.reshape(c, g, 3).transpose(1, 0, 2) @ D.transpose(0, 2, 1)  # (g, c, 3)
    wg_dt = Y.transpose(1, 0, 2).reshape(c, c)  # W_g D^T
    return (D @ wg_dt.reshape(g, 3, c)).reshape(c, c)


class TestMappingDelassus:
    def test_point_mass_wg(self):
        body, pair = point_mass_pair(mass=4.0)
        A = system_matrix(body, 0.01)
        wg, _ = assemble_Wg({0: build_signed_mapping(pair, 0, 3)}, {0: Factorization(A)})
        assert np.abs(wg - 0.25 * np.eye(3)).max() <= 1e-12

    def test_fixed_wall_contributes_zero(self):
        # the plane side has no DOFs: W_g is the body's own S A^-1 S^T
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        wg, _ = assemble_Wg({0: S}, {0: F})
        A = system_matrix(body, h)
        Sd = S.toarray()
        oracle = Sd @ np.linalg.solve(A.toarray(), Sd.T)
        assert np.abs(wg - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_congruence_identity_with_standard(self):
        # the central identity: D W_g D^T equals the standard Schur complement
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        D = assemble_direction(frames)
        H = assemble_H(D, S)
        W_std = assemble_W_standard({0: H}, {0: F})
        wg, _ = assemble_Wg({0: S}, {0: F})
        W_fast = rebuild_W_fast(D, wg)
        scale = max(np.abs(W_std).max(), 1e-300)
        assert np.abs(W_fast - W_std).max() <= 1e-10 * scale

    def test_congruence_after_rotation(self):
        # rotating every frame keeps the identity with a freshly built standard W
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        R = random_frame(23)
        rotated = frames @ R.T  # every row (n, t1, t2) turned by R
        D_rot = assemble_direction(rotated)
        H_rot = assemble_H(D_rot, S)
        W_std = assemble_W_standard({0: H_rot}, {0: F})
        wg, _ = assemble_Wg({0: S}, {0: F})
        W_fast = rebuild_W_fast(D_rot, wg)
        assert np.abs(W_fast - W_std).max() <= 1e-10 * np.abs(W_std).max()

    def test_isotropy_single_group(self):
        wg = 0.5 * np.eye(3)
        for seed in range(4):
            D = assemble_direction([random_frame(seed)])
            W = rebuild_W_fast(D, wg)
            assert np.abs(W - 0.5 * np.eye(3)).max() <= 1e-12

    def test_blockwise_congruence_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for g in (3, 5):
            D = assemble_direction([random_frame(10 * g + s) for s in range(g)])
            B = rng.standard_normal((3 * g, 3 * g))
            wg = B @ B.T
            Dd = dense(D)
            oracle = Dd @ wg @ Dd.T
            W = rebuild_W_fast(D, wg)
            assert np.abs(W - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("g", [0, 1, 5, 64, 104])
    def test_rebuild_matches_einsum_reference(self, g):
        rng = np.random.default_rng(g)
        D = assemble_direction(np.array([random_frame(100 + s) for s in range(g)]).reshape(-1, 3, 3))
        B = rng.standard_normal((3 * g, 3 * g))
        for wg in (B @ B.T, B):  # symmetric, and not
            expect = rebuild_W_fast_reference(D, wg)
            W = rebuild_W_fast(D, wg)
            assert W.shape == expect.shape == (3 * g, 3 * g)
            assert np.abs(W - expect).max(initial=0.0) <= 1e-15 * np.abs(expect).max(initial=0.0)

    @pytest.mark.parametrize("g", [0, 1, 64, 104])
    def test_rebuild_matches_column_product_bitwise(self, g):
        rng = np.random.default_rng(200 + g)
        D = assemble_direction(np.array([random_frame(300 + s) for s in range(g)]).reshape(-1, 3, 3))
        B = rng.standard_normal((3 * g, 3 * g))
        for wg in (B @ B.T, B):  # symmetric, and not
            expect = rebuild_W_fast_column_reference(D, wg)
            for layout in (wg, np.asfortranarray(wg)):
                W = rebuild_W_fast(D, layout)
                assert W.flags.c_contiguous
                assert np.array_equal(W.view(np.int64), expect.view(np.int64))

    def test_rebuild_peak_memory(self):
        # the result and the intermediate D W_g^T hold 2.0 c^2 doubles; each
        # transposed (c, c) copy would add 1.0 c^2
        g = 64
        c = 3 * g
        D = assemble_direction(np.array([random_frame(400 + s) for s in range(g)]))
        wg = np.random.default_rng(4).standard_normal((c, c))
        for layout in (wg, np.asfortranarray(wg)):
            tracemalloc.start()
            try:
                rebuild_W_fast(D, layout)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.1 * 8 * c * c

    def test_rebuild_matches_einsum_reference_on_block(self):
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        D = assemble_direction(frames)
        wg, _ = assemble_Wg({0: S}, {0: F})
        expect = rebuild_W_fast_reference(D, wg)
        assert np.abs(rebuild_W_fast(D, wg) - expect).max() <= 1e-15 * np.abs(expect).max()

    def test_rebuild_shape_mismatch(self):
        D = assemble_direction([random_frame(s) for s in range(3)])
        with pytest.raises(DimensionMismatchError):
            rebuild_W_fast(D, np.eye(6))


def two_boxes_context(h=0.01):
    """Two soft boxes, one resting on the other: vertex and barycentric sides
    on both bodies. Returns bodies, pairs, S and A by object id."""
    lower = box_mesh((0.1, 0.1, 0.1), (2, 2, 2), center=(0.0, 0.0, 0.0))
    upper = box_mesh((0.06, 0.06, 0.06), (2, 2, 2), center=(0.01, 0.0795, 0.0))
    bodies = {0: SoftBody(lower, young=5e4), 1: SoftBody(upper, young=2e4)}
    geoms = []
    for oid, body in bodies.items():
        tris = surface_triangles(body.mesh)
        geoms.append(MeshGeometry(oid, body.mesh.nodes, tris, surface_vertices(tris),
                                  deformable=True))
    pairs = detect(geoms, threshold=0.005)
    assert set(pairs.a.object_id.tolist()) == {0, 1}
    S, A = {}, {}
    for oid, body in bodies.items():
        A[oid] = system_matrix(body, h)
        S[oid] = build_signed_mapping(pairs, oid, body.n_dofs, body.fixed_mask)
    return bodies, pairs, S, A


def dense_wg(S_by_object, A_by_object):
    """Oracle: sum over objects of S A^-1 S^T with dense inverses."""
    return sum(
        S.toarray() @ np.linalg.inv(A_by_object[oid].toarray()) @ S.toarray().T
        for oid, S in S_by_object.items()
    )


def contact_dofs(S):
    """The columns of S with nonzero entries."""
    return np.flatnonzero(np.abs(S.toarray()).sum(axis=0))


def moved_dofs(S):
    """The DOFs the fast move displaces: the contact DOFs, or all six of a
    rigid body (the only object with six) whose pose the pairs read."""
    J = contact_dofs(S)
    return np.arange(6) if J.size and S.shape[1] == 6 else J


def rigid_on_soft_pairs(body, vertices):
    """A rigid sphere (object 1) pressing on the given vertices of a soft body
    (object 0), one pair per vertex with the sphere on side A."""
    pairs = []
    for v in vertices:
        lever = np.array([0.01 * (v % 3), -0.05, 0.02])
        pairs.append(ProximityPair(
            object_a=1,
            object_b=0,
            attach_a=Attachment(AttachKind.RIGID_LOCAL, 1, local_point=lever, lever=lever),
            attach_b=Attachment(AttachKind.VERTEX, 0, vertex=int(v)),
            p_a=body.mesh.nodes[v].copy(),
            p_b=body.mesh.nodes[v].copy(),
            ref_normal=np.array([0.0, 1.0, 0.0]),
            signed_distance=0.0,
            vertex_id=int(v),
            element_id=-1,
        ))
    return to_contacts(pairs)


class TestWgGather:
    """assemble_Wg gathers S A^-1 S^T from cached columns of A^-1; each case
    is checked against the dense oracle and against the solves it may cost."""

    @staticmethod
    def check(S, F, A):
        wg, X_by_object = assemble_Wg(S, F)
        assert wg.T.flags.c_contiguous  # rebuild_W_fast reads W_g^T by rows
        oracle = dense_wg(S, A)
        assert np.abs(wg - oracle).max() <= 1e-9 * np.abs(oracle).max()
        for oid, (J, X) in X_by_object.items():  # X_o = S_J A^-1[J, J]
            assert np.array_equal(J, moved_dofs(S[oid]))
            expect = S[oid].toarray()[:, J] @ np.linalg.inv(A[oid].toarray())[np.ix_(J, J)]
            assert np.abs(X - expect).max() <= 1e-9 * np.abs(expect).max()
        assert set(X_by_object) == {oid for oid in S if contact_dofs(S[oid]).size}
        return wg

    def test_vertex_attachments(self):
        body, state, pairs, frames, F, S, h = block_on_plane_context()
        A = system_matrix(body, h)
        self.check({0: S}, {0: F}, {0: A})
        assert F.solve_count == 3 * len(pairs)  # one column per contact DOF
        self.check({0: S}, {0: F}, {0: A})
        assert F.solve_count == 3 * len(pairs)  # the second build only gathers

    def test_barycentric_attachments(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(m, young=5e4)
        tris = surface_triangles(m)[[0, 1, 5]]
        rng = np.random.default_rng(8)
        pairs = []
        for tri in tris:
            w = rng.dirichlet(np.ones(3))
            pairs.append(ProximityPair(
                object_a=0,
                object_b=1,
                attach_a=Attachment(AttachKind.BARYCENTRIC, 0, triangle=tri, weights=w),
                attach_b=Attachment(AttachKind.WORLD, 1, world_point=np.zeros(3)),
                p_a=w @ m.nodes[tri],
                p_b=np.zeros(3),
                ref_normal=np.array([0.0, 1.0, 0.0]),
                signed_distance=0.0,
                vertex_id=-1,
                element_id=0,
            ))
        S = build_signed_mapping(to_contacts(pairs), 0, body.n_dofs)
        A = system_matrix(body, 0.01)
        F = Factorization(A)
        self.check({0: S}, {0: F}, {0: A})
        assert F.solve_count == 3 * len(np.unique(tris))  # shared nodes solved once

    def test_zero_weight_column_is_no_contact_dof(self):
        # a closest point on an edge stores an explicit zero weight for the
        # third node; that column is no contact DOF, so it is not in J, and
        # X_o is bitwise S[:, J] A^-1[J, J]
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        body = SoftBody(m, young=5e4)
        tri = surface_triangles(m)[0]
        w = np.array([0.25, 0.75, 0.0])
        pair = ProximityPair(
            object_a=0,
            object_b=1,
            attach_a=Attachment(AttachKind.BARYCENTRIC, 0, triangle=tri, weights=w),
            attach_b=Attachment(AttachKind.WORLD, 1, world_point=np.zeros(3)),
            p_a=w @ m.nodes[tri],
            p_b=np.zeros(3),
            ref_normal=np.array([0.0, 1.0, 0.0]),
            signed_distance=0.0,
            vertex_id=-1,
            element_id=0,
        )
        S = build_signed_mapping(to_contacts([pair]), 0, body.n_dofs)
        assert S.nnz == 9 and (S.data == 0.0).sum() == 3
        A = system_matrix(body, 0.01)
        F = Factorization(A)
        self.check({0: S}, {0: F}, {0: A})
        J, X = assemble_Wg({0: S}, {0: F})[1][0]
        assert J.tolist() == np.sort((3 * tri[:2, None] + np.arange(3)).ravel()).tolist()
        assert not np.isin(3 * tri[2] + np.arange(3), J).any()
        assert X.tobytes() == (S[:, J] @ F.inverse_block(J)).tobytes()

    def test_fixed_dofs_cost_no_solve(self):
        _, _, unpinned_pairs, *_ = block_on_plane_context()
        fixed = unpinned_pairs.a.nodes[:3, 0].tolist()
        body, state, pairs, frames, F, S, h = block_on_plane_context(fixed_nodes=fixed)
        A = system_matrix(body, h)
        wg = self.check({0: S}, {0: F}, {0: A})
        assert F.solve_count == 3 * (len(pairs) - len(fixed))
        pinned = np.flatnonzero(np.isin(pairs.a.nodes[:, 0], fixed))
        assert len(pinned) == len(fixed)
        for g in pinned:
            assert not wg[3 * g : 3 * g + 3].any() and not wg[:, 3 * g : 3 * g + 3].any()

    def test_two_dynamic_soft_bodies(self):
        bodies, pairs, S, A = two_boxes_context()
        F = {oid: Factorization(a) for oid, a in A.items()}
        self.check(S, F, A)
        for oid in bodies:
            assert F[oid].solve_count == len(contact_dofs(S[oid]))

    def test_rigid_sphere_on_soft_body_over_two_steps(self):
        # the soft factorization lives across steps; the rigid one is rebuilt
        # every step with the turned inertia, so its cache starts empty
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        soft = SoftBody(m, young=5e4)
        sphere = RigidBody(mass=0.5, inertia=np.diag([1e-3, 2e-3, 3e-3]), radius=0.05)
        A_soft = system_matrix(soft, 0.01)
        F_soft = Factorization(A_soft)
        top = np.flatnonzero(m.nodes[:, 1] >= m.nodes[:, 1].max() - 1e-12)
        turn = np.array([[0.0, -1, 0], [1.0, 0, 0], [0.0, 0, 1]])
        # step 2 shares two of its four vertices with step 1: 3 + 2 new vertices
        steps = [(np.eye(3), top[:3], 9), (turn, top[1:5], 15)]
        for rotation, vertices, soft_solves in steps:
            pairs = rigid_on_soft_pairs(soft, vertices)
            A_rigid, _ = sphere.assemble(rotation, h=0.01, gravity=(0, 0, 0))
            A = {0: A_soft, 1: A_rigid}
            F = {0: F_soft, 1: Factorization(A_rigid)}
            S = {0: build_signed_mapping(pairs, 0, soft.n_dofs),
                 1: build_signed_mapping(pairs, 1, 6)}
            self.check(S, F, A)
            assert F[1].solve_count == 6  # the whole pose
            assert F_soft.solve_count == soft_solves

    def test_shape_mismatch(self):
        body, pair = point_mass_pair()
        S = build_signed_mapping(pair, 0, 3)
        with pytest.raises(DimensionMismatchError):
            assemble_Wg({0: S}, {0: Factorization(np.eye(6))})


class TestViolation:
    def test_penetration_sign(self):
        D = assemble_direction([axes_frame()])
        v = compute_violation(D, np.array([[0.0, -0.01, 0.0]]))
        assert v[0] == pytest.approx(-0.01)

    def test_zero_gap(self):
        D = assemble_direction([axes_frame()])
        v = compute_violation(D, np.zeros((1, 3)))
        assert np.array_equal(v, np.zeros(3))

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(3)
        frames = [random_frame(s) for s in range(4)]
        D = assemble_direction(frames)
        r = rng.standard_normal((4, 3))
        v = compute_violation(D, r)
        for g, f in enumerate(frames):
            rel = r[g]
            n, t1, t2 = f
            assert abs(v[3 * g] - n @ rel) <= 1e-14
            assert abs(v[3 * g + 1] - t1 @ rel) <= 1e-14
            assert abs(v[3 * g + 2] - t2 @ rel) <= 1e-14


def relative_positions(pairs):
    return pairs.a.point - pairs.b.point


def proximity_context(pairs, q_by_object, S, F, h, posed_views):
    """A StepContext whose refresh evaluates the proximity record at q + dq,
    the soft bodies' positions ``q_by_object`` moved by dq; ``posed_views``
    holds the views of the objects without DOFs."""

    def refresh(dq):
        views = dict(posed_views)
        for oid, q in q_by_object.items():
            views[oid] = (q + dq.get(oid, 0.0)).reshape(-1, 3)
        return proximity(pairs, views)

    ctx = StepContext(pairs=pairs, detection_frames=build_frames(pairs), S_by_object=S,
                      F_by_object=F, r0=refresh({}).r, h=h, refresh=refresh, y_free={})
    ctx.wg, ctx.X_by_object = assemble_Wg(S, F)
    return ctx


def block_on_plane_proximity():
    """(ctx, D) of the block on the plane at its initial positions."""
    body, state, pairs, frames, F, S, h = block_on_plane_context()
    ctx = proximity_context(pairs, {0: state.q}, {0: S}, {0: F}, h, {1: Pose.identity()})
    return ctx, assemble_direction(frames)


def solved_move(ctx, f):
    """The oracle: dq = h^2 A^-1 S^T f per object, by a system solve."""
    return {oid: ctx.h**2 * ctx.F_by_object[oid].solve(S.T @ f)
            for oid, S in ctx.S_by_object.items()}


class TestFastProximityUpdate:
    """The fast move displaces the contact DOFs by dq[J] = h^2 X_o^T f with
    no solve, and re-evaluates r there. Its oracle is the solve h^2 A^-1 S^T f;
    on node-weighted sides r is linear in dq, so it also equals the
    constraint-space update r + h^2 W_g f."""

    def test_zero_lambda_is_noop(self):
        ctx, D = block_on_plane_proximity()
        assert np.array_equal(fast_update_proximity(ctx, np.zeros(3 * len(D))).r, ctx.r0)

    def test_scalar_point_mass(self):
        # the normal gap changes by h^2 lambda_n / m on a point mass
        body, pair = point_mass_pair(mass=2.0)
        A = system_matrix(body, 0.01)
        S = {0: build_signed_mapping(pair, 0, 3)}
        ctx = proximity_context(pair, {0: body.mesh.nodes.ravel()}, S, {0: Factorization(A)},
                                0.01, {1: Pose.identity()})
        D = assemble_direction([axes_frame()])
        r = ctx.r0
        nr = fast_update_proximity(ctx, apply_transposed(D, np.array([3.0, 0.0, 0.0]))).r
        assert nr[0, 1] - r[0, 1] == pytest.approx(0.01**2 * 3.0 / 2.0)
        assert np.array_equal(nr[0, [0, 2]], r[0, [0, 2]])

    def test_linearity_in_lambda(self):
        # the moves of separate impulses add up to the move of their sum
        ctx, D = block_on_plane_proximity()
        rng = np.random.default_rng(5)
        fs = [apply_transposed(D, rng.standard_normal(3 * len(D))) for _ in range(3)]
        summed = ctx.r0 + sum(fast_update_proximity(ctx, f).r - ctx.r0 for f in fs)
        once = fast_update_proximity(ctx, np.sum(fs, axis=0)).r
        assert np.abs(summed - once).max() <= 1e-12 * np.abs(ctx.r0).max()

    def test_matches_full_mechanical_pipeline(self):
        # the move equals r after the real corrective motion, by solve
        ctx, D = block_on_plane_proximity()
        f = apply_transposed(D, np.abs(np.random.default_rng(9).standard_normal(3 * len(D))))
        fast = fast_update_proximity(ctx, f).r
        assert np.abs(fast - ctx.r0).max() > 1e-6  # it did move
        assert np.abs(fast - ctx.refresh(solved_move(ctx, f)).r).max() <= 1e-12 * np.abs(fast).max()

    def test_two_dynamic_bodies_match_mechanical_pipeline(self):
        # both sides of every pair move: the move must equal pA - pB after
        # each body's own corrective motion, with action and reaction signs
        h = 0.01
        bodies, pairs, S, A = two_boxes_context(h)
        F = {oid: Factorization(a) for oid, a in A.items()}
        ctx = proximity_context(pairs, {oid: b.mesh.nodes.ravel() for oid, b in bodies.items()},
                                S, F, h, {})
        D = assemble_direction(ctx.detection_frames)
        f = apply_transposed(D, np.abs(np.random.default_rng(4).standard_normal(3 * len(D))))
        fast = fast_update_proximity(ctx, f).r
        assert np.abs(fast - ctx.r0).max() > 1e-6  # it did move
        assert np.abs(fast - ctx.refresh(solved_move(ctx, f)).r).max() <= 1e-12 * np.abs(fast).max()

    def test_gap_linearization(self):
        # delta(after correction) == delta_free + h^2 W lambda for linear maps
        ctx, D = block_on_plane_proximity()
        W = rebuild_W_fast(D, ctx.wg)
        lam = np.abs(np.random.default_rng(2).standard_normal(3 * len(D))) * 0.1
        delta_free = compute_violation(D, ctx.r0)
        delta_after = compute_violation(D, fast_update_proximity(ctx, apply_transposed(D, lam)).r)
        predicted = delta_free + ctx.h**2 * (W @ lam)
        assert np.abs(delta_after - predicted).max() <= 1e-9

    @pytest.mark.parametrize("case", ["block_on_plane", "two_body_press", "grasp_rotate",
                                      "mixed", "two_boxes", "spinning_ball", "coupled_ball"])
    def test_gathered_move_matches_the_solve(self, tmp_path, case):
        # dq[J] from the W_g gather is the solve h^2 A^-1 S^T f restricted to
        # J, which holds all six DOFs of a rigid body, so there dq is the
        # whole solve; where every dynamic side is node-weighted, the new r is
        # also the constraint-space update r + h^2 W_g f
        if case == "two_boxes":
            bodies, pairs, S, A = two_boxes_context()
            F = {oid: Factorization(a) for oid, a in A.items()}
            ctx = proximity_context(pairs, {oid: b.mesh.nodes.ravel()
                                            for oid, b in bodies.items()}, S, F, 0.01, {})
        else:
            texts = {"mixed": MIXED_SCENE, "spinning_ball": SPINNING_BALL,
                     "coupled_ball": COUPLED_BALL}
            path = (write_scene(tmp_path, texts[case]) if case in texts
                    else SCENES / f"{case}.scn")
            ctx = prepare(load_scene(path))
        D = assemble_direction(ctx.detection_frames)
        f = apply_transposed(D, np.abs(np.random.default_rng(6).standard_normal(3 * len(D))))
        moves = []

        def recording(dq, _fn=ctx.refresh):
            moves.append(dq)
            return _fn(dq)

        r = fast_update_proximity(replace(ctx, refresh=recording), f).r
        (dq,) = moves
        solved = solved_move(ctx, f)
        assert set(dq) == set(ctx.X_by_object) and dq
        for oid, (J, _) in ctx.X_by_object.items():
            moved = slice(None) if len(dq[oid]) == 6 else J  # a rigid body: every DOF
            assert np.abs(dq[oid][moved] - solved[oid][moved]).max() <= (
                1e-12 * np.abs(solved[oid]).max())
        # no rigid side: r is linear in dq
        if case in ("block_on_plane", "two_body_press", "grasp_rotate", "two_boxes"):
            linear = ctx.r0 + ctx.h**2 * (ctx.wg @ f).reshape(ctx.r0.shape)
            assert np.abs(r - linear).max() <= 1e-12 * np.abs(r).max()
