import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactnewton.collision import (
    AttachKind,
    Attachment,
    MeshGeometry,
    PlaneGeometry,
    Pose,
    SphereGeometry,
    build_frames,
    closest_points_on_triangles,
    detect,
    max_frame_rotation,
    refresh_proximity,
    relinearize,
)
from contactnewton.constraints import build_signed_mapping
from contactnewton.errors import DegenerateFrameError, InvalidAttachmentError
from contactnewton.mesh import box_mesh, surface_triangles, surface_vertices


def mesh_geometry(mesh, object_id=0, offset=(0.0, 0.0, 0.0), dynamic=True):
    tris = surface_triangles(mesh)
    return MeshGeometry(
        object_id=object_id,
        points=mesh.nodes + np.asarray(offset),
        triangles=tris,
        vertex_ids=surface_vertices(tris),
        deformable=True,
        dynamic=dynamic,
    )


def project_onto_triangle_oracle(tri, p):
    """Closed-form orthogonal projection onto the triangle's plane, solved as
    a 2x2 least-squares system in the edge basis; valid when inside."""
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    A = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    rhs = np.array([e1 @ (p - tri[0]), e2 @ (p - tri[0])])
    v, w = np.linalg.solve(A, rhs)
    return np.array([1 - v - w, v, w])


class TestDetect:
    def test_separated_cubes_empty(self):
        m = box_mesh((0.2, 0.2, 0.2), (1, 1, 1))
        a = mesh_geometry(m, 0)
        b = mesh_geometry(m, 1, offset=(1.0, 0.0, 0.0))
        assert detect([a, b], threshold=0.01) == []

    def test_vertex_below_plane(self):
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.3, 0.045, -0.2))
        geom = mesh_geometry(m, 0)
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([geom, plane], threshold=0.01)
        # only the bottom face (y = -0.005) is within threshold
        assert len(pairs) == 4
        for pair in pairs:
            assert pair.signed_distance == pytest.approx(-0.005)
            assert np.allclose(pair.p_a[1], -0.005)
            assert np.allclose(pair.p_b[1], 0.0)
            assert np.allclose(pair.p_a[[0, 2]], pair.p_b[[0, 2]])

    def test_barycentric_matches_projection_oracle(self):
        tri = np.array([[0.0, 0, 0], [1.0, 0, 0.1], [0.2, 0, 1.0]])
        p = np.array([0.35, 0.004, 0.3])  # projects inside
        cps, bary = closest_points_on_triangles(tri[None], p)
        oracle = project_onto_triangle_oracle(tri, p)
        assert np.abs(bary[0] - oracle).max() <= 1e-10
        assert np.abs(cps[0] - oracle @ tri).max() <= 1e-10

    def test_penetrating_pairs_reported_negative(self):
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.0, 0.03, 0.0))
        geom = mesh_geometry(m, 0)
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([geom, plane], threshold=0.01)
        assert len(pairs) == 4
        assert all(p.signed_distance == pytest.approx(-0.02) for p in pairs)

    def test_canonical_order(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 1, 2), center=(0.0, 0.049, 0.0))
        geom = mesh_geometry(m, 3)
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([geom, plane], threshold=0.01)
        keys = [(p.object_a, p.object_b, p.vertex_id, p.element_id) for p in pairs]
        assert keys == sorted(keys)

    def test_two_static_sides_skipped(self):
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.0, 0.049, 0.0))
        geom = mesh_geometry(m, 0)
        geom.dynamic = False
        geom.deformable = False
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        assert detect([geom, plane], threshold=0.01) == []

    def test_sphere_plane(self):
        sph = SphereGeometry(
            object_id=0, center=np.array([0.2, 0.095, 0.0]), radius=0.1,
            pose=Pose(np.eye(3), np.array([0.2, 0.095, 0.0])),
        )
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([sph, plane], threshold=0.01)
        assert len(pairs) == 1
        assert pairs[0].signed_distance == pytest.approx(-0.005)
        assert np.allclose(pairs[0].p_a, [0.2, -0.005, 0.0])
        assert np.allclose(pairs[0].attach_a.lever, [0.0, -0.1, 0.0])

    def test_translation_invariance(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 2, 2))
        shift = np.array([1.3, -0.7, 2.1])
        a0 = mesh_geometry(m, 0, offset=(0.0, 0.08, 0.0))
        b0 = mesh_geometry(m, 1)
        a1 = mesh_geometry(m, 0, offset=shift + (0.0, 0.08, 0.0))
        b1 = mesh_geometry(m, 1, offset=shift)
        p0 = detect([a0, b0], threshold=0.02)
        p1 = detect([a1, b1], threshold=0.02)
        assert len(p0) == len(p1) > 0
        for x, y in zip(p0, p1):
            assert (x.object_a, x.object_b, x.vertex_id, x.element_id) == (
                y.object_a, y.object_b, y.vertex_id, y.element_id)
            assert abs(x.signed_distance - y.signed_distance) <= 1e-12
            assert np.abs((y.p_a - x.p_a) - shift).max() <= 1e-12

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidAttachmentError):
            detect([], threshold=0.0)


class TestMappingJacobian:
    def test_vertex_block_is_identity(self):
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=2)
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping([pair], object_id=0, n_dofs=12)
        assert np.allclose(G.toarray()[:, 6:9], np.eye(3))
        assert G.nnz == 3

    def test_barycentric_centroid(self):
        att = Attachment(
            AttachKind.BARYCENTRIC, object_id=0,
            triangle=np.array([0, 1, 2]), weights=np.full(3, 1 / 3),
        )
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping([pair], object_id=0, n_dofs=9)
        v = np.arange(9.0)
        expect = (v[0:3] + v[3:6] + v[6:9]) / 3
        assert np.abs(G @ v - expect).max() <= 1e-15

    def test_rigid_lever_cross_product(self):
        att = Attachment(
            AttachKind.RIGID_LOCAL, object_id=0,
            local_point=np.array([0.0, 0, 1.0]), lever=np.array([0.0, 0, 1.0]),
        )
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping([pair], object_id=0, n_dofs=6)
        v = np.array([0.0, 0, 0, 0, 1.0, 0])  # omega = (0, 1, 0)
        # oracle: point velocity = v_lin + omega x r
        expect = np.cross([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert np.abs(G @ v - expect).max() <= 1e-15

    def test_invalid_vertex_raises(self):
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=5)
        pair = _dummy_pair(att, _world_attachment())
        with pytest.raises(InvalidAttachmentError):
            build_signed_mapping([pair], object_id=0, n_dofs=9)

    def test_mapping_consistency_linear(self):
        # g(q + dq) - g(q) == G dq exactly for vertex/barycentric attachments
        rng = np.random.default_rng(5)
        nodes = rng.standard_normal((4, 3))
        att_a = Attachment(AttachKind.VERTEX, object_id=0, vertex=3)
        att_b = Attachment(
            AttachKind.BARYCENTRIC, object_id=0,
            triangle=np.array([0, 1, 2]), weights=np.array([0.2, 0.3, 0.5]),
        )
        pair_a = _dummy_pair(att_a, _world_attachment())
        pair_b = _dummy_pair(att_b, _world_attachment())
        G = build_signed_mapping([pair_a, pair_b], object_id=0, n_dofs=12)
        dq = rng.standard_normal(12) * 0.1
        views0 = {0: nodes, 9: None}
        views1 = {0: nodes + dq.reshape(-1, 3), 9: None}
        pa0, _ = refresh_proximity([pair_a, pair_b], views0)
        pa1, _ = refresh_proximity([pair_a, pair_b], views1)
        assert np.abs((pa1 - pa0).ravel() - G @ dq).max() <= 1e-12

    def test_b_side_enters_negated(self):
        # the object owning side B maps with -G: S v is the change of pA - pB
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=1)
        pair = _dummy_pair(_world_attachment(), att)
        S = build_signed_mapping([pair], object_id=0, n_dofs=6)
        assert np.array_equal(S.toarray()[:, 3:6], -np.eye(3))
        assert S.nnz == 3


def _world_attachment():
    return Attachment(AttachKind.WORLD, object_id=9, world_point=np.zeros(3))


def _dummy_pair(att_a, att_b):
    from contactnewton.collision import ProximityPair

    return ProximityPair(
        object_a=att_a.object_id,
        object_b=att_b.object_id,
        attach_a=att_a,
        attach_b=att_b,
        p_a=np.zeros(3),
        p_b=np.zeros(3),
        ref_normal=np.array([0.0, 1.0, 0.0]),
        signed_distance=0.0,
        vertex_id=max(att_a.vertex, 0),
        element_id=-1,
    )


class TestFrames:
    def _pair(self, p_a, p_b, ref=(0.0, 1.0, 0.0)):
        pair = _dummy_pair(
            Attachment(AttachKind.VERTEX, object_id=0, vertex=0), _world_attachment()
        )
        pair.p_a = np.asarray(p_a, dtype=float)
        pair.p_b = np.asarray(p_b, dtype=float)
        pair.ref_normal = np.asarray(ref, dtype=float)
        return pair

    def test_normal_from_offset(self):
        [frame] = build_frames([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame.n, [0, 1, 0])

    def test_coincident_falls_back_to_element_normal(self):
        [frame] = build_frames([self._pair((0.2, 0.0, 0.1), (0.2, 0.0, 0.1))])
        assert np.allclose(frame.n, [0, 1, 0])

    def test_penetrating_pair_keeps_separation_direction(self):
        [frame] = build_frames([self._pair((0.0, -0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame.n, [0, 1, 0])  # flipped toward the reference

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFrameError):
            build_frames([self._pair((0, 0, 0), (0, 0, 0), ref=(0, 0, 0))])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_orthonormal_for_random_normals(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(3)
        while np.linalg.norm(d) < 1e-3:
            d = rng.standard_normal(3)
        ref = d / np.linalg.norm(d)
        [frame] = build_frames([self._pair(ref * 0.01, (0, 0, 0), ref=ref)])
        F = frame.as_matrix()
        assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-9
        # right-handed
        assert np.cross(frame.n, frame.t1) @ frame.t2 == pytest.approx(1.0, abs=1e-9)

    def test_tangent_fallback_axis(self):
        [frame] = build_frames([self._pair((0.01, 0.0, 0.0), (0, 0, 0), ref=(1, 0, 0))])
        assert abs(frame.n @ frame.t1) <= 1e-12
        assert np.allclose(frame.t1, [0, 0, 1])  # x is parallel to n, fall back to z

    def test_relinearize_fixed_point(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
        again = relinearize(np.array([[0.0, 0.01, 0.0]]), frames)
        assert np.array_equal(again[0].n, frames[0].n)
        assert np.array_equal(again[0].t1, frames[0].t1)

    def test_relinearize_rotation_oracle(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
        ang = np.deg2rad(10)
        p_new = 0.01 * np.array([[np.sin(ang), np.cos(ang), 0.0]])
        new = relinearize(p_new, frames)
        assert max_frame_rotation(frames, new) == pytest.approx(ang, abs=1e-12)
        F = new[0].as_matrix()
        assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-9

    def test_relinearize_collapse_keeps_previous(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
        new = relinearize(np.zeros((1, 3)) + 1e-12, frames)
        assert new[0] is frames[0]

    def test_frame_continuity(self):
        # small proximity perturbations rotate the normal proportionally once
        # the separation is comfortably nonzero
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.standard_normal(3)
            d *= rng.uniform(0.01, 1.0) / np.linalg.norm(d)
            ref = d / np.linalg.norm(d)
            pair = self._pair(d, (0, 0, 0), ref=ref)
            [f0] = build_frames([pair])
            eps = rng.standard_normal(3)
            eps *= 1e-8 / np.linalg.norm(eps)
            [f1] = relinearize((d + eps)[None], [f0])
            assert np.linalg.norm(f1.n - f0.n) <= 1e-6
