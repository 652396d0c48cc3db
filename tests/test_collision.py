from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactnewton import collision, solver
from contactnewton.collision import (
    _MAX_TILT_COS,
    _T1_FALLBACK,
    _T1_REFERENCE,
    COINCIDENT_EPS,
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
from contactnewton.errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    InvalidAttachmentError,
)
from contactnewton.mesh import box_mesh, surface_triangles, surface_vertices
from contactnewton.scene import Simulation, load_scene
from pairs_reference import (
    AttachKind,
    Attachment,
    ProximityPair,
    build_signed_mapping_reference,
    closest_points_reference,
    detect_reference,
    refresh_proximity_reference,
    signed_gaps_reference,
    to_contacts,
    vertex_vs_plane_preselect_reference,
)
from test_scene import MIXED_SCENE

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def mesh_geometry(mesh, object_id=0, offset=(0.0, 0.0, 0.0)):
    tris = surface_triangles(mesh)
    return MeshGeometry(
        object_id=object_id,
        points=mesh.nodes + np.asarray(offset),
        triangles=tris,
        vertex_ids=surface_vertices(tris),
        deformable=True,
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
        assert len(detect([a, b], threshold=0.01)) == 0

    def test_vertex_below_plane(self):
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.3, 0.045, -0.2))
        geom = mesh_geometry(m, 0)
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([geom, plane], threshold=0.01)
        # only the bottom face (y = -0.005) is within threshold
        assert len(pairs) == 4
        p_a, p_b = pairs.a.point, pairs.b.point
        assert pairs.signed_distance == pytest.approx([-0.005] * 4)
        assert np.allclose(p_a[:, 1], -0.005)
        assert np.allclose(p_b[:, 1], 0.0)
        assert np.allclose(p_a[:, [0, 2]], p_b[:, [0, 2]])

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
        assert pairs.signed_distance == pytest.approx([-0.02] * 4)

    def test_canonical_order(self):
        m = box_mesh((0.1, 0.1, 0.1), (2, 1, 2), center=(0.0, 0.049, 0.0))
        geom = mesh_geometry(m, 3)
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([geom, plane], threshold=0.01)
        keys = list(zip(pairs.a.object_id.tolist(), pairs.b.object_id.tolist(),
                        pairs.vertex_id.tolist(), pairs.element_id.tolist()))
        assert keys == sorted(keys)

    def test_two_static_sides_skipped(self):
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.0, 0.049, 0.0))
        geom = mesh_geometry(m, 0)
        geom.deformable = False
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        assert len(detect([geom, plane], threshold=0.01)) == 0

    def test_sphere_plane(self):
        sph = SphereGeometry(
            object_id=0, center=np.array([0.2, 0.095, 0.0]), radius=0.1,
            pose=Pose(np.eye(3), np.array([0.2, 0.095, 0.0])),
        )
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([sph, plane], threshold=0.01)
        assert len(pairs) == 1
        assert pairs.signed_distance[0] == pytest.approx(-0.005)
        assert np.allclose(pairs.a.point[0], [0.2, -0.005, 0.0])
        assert np.allclose(pairs.a.lever[0], [0.0, -0.1, 0.0])

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
        for ids in ("vertex_id", "element_id"):
            assert np.array_equal(getattr(p0, ids), getattr(p1, ids))
        assert np.array_equal(p0.a.object_id, p1.a.object_id)
        assert np.array_equal(p0.b.object_id, p1.b.object_id)
        assert np.abs(p0.signed_distance - p1.signed_distance).max() <= 1e-12
        assert np.abs((p1.a.point - p0.a.point) - shift).max() <= 1e-12

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidAttachmentError):
            detect([], threshold=0.0)


class TestMappingJacobian:
    def test_vertex_block_is_identity(self):
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=2)
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping(to_contacts([pair]), object_id=0, n_dofs=12)
        assert np.allclose(G.toarray()[:, 6:9], np.eye(3))
        assert G.nnz == 3

    def test_barycentric_centroid(self):
        att = Attachment(
            AttachKind.BARYCENTRIC, object_id=0,
            triangle=np.array([0, 1, 2]), weights=np.full(3, 1 / 3),
        )
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping(to_contacts([pair]), object_id=0, n_dofs=9)
        v = np.arange(9.0)
        expect = (v[0:3] + v[3:6] + v[6:9]) / 3
        assert np.abs(G @ v - expect).max() <= 1e-15

    def test_rigid_lever_cross_product(self):
        att = Attachment(
            AttachKind.RIGID_LOCAL, object_id=0,
            local_point=np.array([0.0, 0, 1.0]), lever=np.array([0.0, 0, 1.0]),
        )
        pair = _dummy_pair(att, _world_attachment())
        G = build_signed_mapping(to_contacts([pair]), object_id=0, n_dofs=6)
        v = np.array([0.0, 0, 0, 0, 1.0, 0])  # omega = (0, 1, 0)
        # oracle: point velocity = v_lin + omega x r
        expect = np.cross([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert np.abs(G @ v - expect).max() <= 1e-15

    def test_invalid_vertex_raises(self):
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=5)
        pair = _dummy_pair(att, _world_attachment())
        with pytest.raises(InvalidAttachmentError):
            build_signed_mapping(to_contacts([pair]), object_id=0, n_dofs=9)

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
        contacts = to_contacts([pair_a, pair_b])
        G = build_signed_mapping(contacts, object_id=0, n_dofs=12)
        dq = rng.standard_normal(12) * 0.1
        views0 = {0: nodes, 9: Pose.identity()}
        views1 = {0: nodes + dq.reshape(-1, 3), 9: Pose.identity()}
        pa0, _ = refresh_proximity(contacts, views0)
        pa1, _ = refresh_proximity(contacts, views1)
        assert np.abs((pa1 - pa0).ravel() - G @ dq).max() <= 1e-12

    def test_b_side_enters_negated(self):
        # the object owning side B maps with -G: S v is the change of pA - pB
        att = Attachment(AttachKind.VERTEX, object_id=0, vertex=1)
        pair = _dummy_pair(_world_attachment(), att)
        S = build_signed_mapping(to_contacts([pair]), object_id=0, n_dofs=6)
        assert np.array_equal(S.toarray()[:, 3:6], -np.eye(3))
        assert S.nnz == 3


def _world_attachment():
    return Attachment(AttachKind.WORLD, object_id=9, world_point=np.zeros(3))


def _dummy_pair(att_a, att_b):
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


def frames_of(pairs):
    """``build_frames`` on a list of pairs."""
    return build_frames(to_contacts(pairs))


def frame_pair(p_a, p_b, ref=(0.0, 1.0, 0.0)):
    pair = _dummy_pair(
        Attachment(AttachKind.VERTEX, object_id=0, vertex=0), _world_attachment()
    )
    pair.p_a = np.asarray(p_a, dtype=float)
    pair.p_b = np.asarray(p_b, dtype=float)
    pair.ref_normal = np.asarray(ref, dtype=float)
    return pair


class TestFrames:
    _pair = staticmethod(frame_pair)

    def test_normal_from_offset(self):
        [frame] = frames_of([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame[0], [0, 1, 0])

    def test_coincident_falls_back_to_element_normal(self):
        [frame] = frames_of([self._pair((0.2, 0.0, 0.1), (0.2, 0.0, 0.1))])
        assert np.allclose(frame[0], [0, 1, 0])

    def test_penetrating_pair_keeps_separation_direction(self):
        [frame] = frames_of([self._pair((0.0, -0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame[0], [0, 1, 0])  # flipped toward the reference

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFrameError):
            frames_of([self._pair((0, 0, 0), (0, 0, 0), ref=(0, 0, 0))])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_orthonormal_for_random_normals(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(3)
        while np.linalg.norm(d) < 1e-3:
            d = rng.standard_normal(3)
        ref = d / np.linalg.norm(d)
        [frame] = frames_of([self._pair(ref * 0.01, (0, 0, 0), ref=ref)])
        n, t1, t2 = frame
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-9
        # right-handed
        assert np.cross(n, t1) @ t2 == pytest.approx(1.0, abs=1e-9)

    def test_tangent_fallback_axis(self):
        [frame] = frames_of([self._pair((0.01, 0.0, 0.0), (0, 0, 0), ref=(1, 0, 0))])
        n, t1, _ = frame
        assert abs(n @ t1) <= 1e-12
        assert np.allclose(t1, [0, 0, 1])  # x is parallel to n, fall back to z

    def test_relinearize_fixed_point(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = frames_of(pairs)
        again = relinearize(np.array([[0.0, 0.01, 0.0]]), frames)
        assert np.array_equal(again[0, 0], frames[0, 0])
        assert np.array_equal(again[0, 1], frames[0, 1])

    def test_relinearize_rotation_oracle(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = frames_of(pairs)
        ang = np.deg2rad(10)
        p_new = 0.01 * np.array([[np.sin(ang), np.cos(ang), 0.0]])
        new = relinearize(p_new, frames)
        assert max_frame_rotation(frames, new) == pytest.approx(ang, abs=1e-12)
        F = new[0]
        assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-9

    def test_rotation_of_unequal_frame_lists_raises(self):
        frames = frames_of([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))] * 2)
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames, frames[:1])
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames[:1], frames)

    def test_relinearize_collapse_keeps_previous(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = frames_of(pairs)
        new = relinearize(np.zeros((1, 3)) + 1e-12, frames)
        assert np.array_equal(new[0], frames[0])

    def test_frame_continuity(self):
        # small proximity perturbations rotate the normal proportionally once
        # the separation is comfortably nonzero
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.standard_normal(3)
            d *= rng.uniform(0.01, 1.0) / np.linalg.norm(d)
            ref = d / np.linalg.norm(d)
            pair = self._pair(d, (0, 0, 0), ref=ref)
            [f0] = frames_of([pair])
            eps = rng.standard_normal(3)
            eps *= 1e-8 / np.linalg.norm(eps)
            [f1] = relinearize((d + eps)[None], f0[None])
            assert np.linalg.norm(f1[0] - f0[0]) <= 1e-6


# --- reference narrow phase ---------------------------------------------------
# The per-vertex narrow phase that the batched one replaced is kept verbatim
# as the oracle in pairs_reference: the batched query must reproduce every
# pair bit for bit.


def assert_bitwise_equal(x, y, where="pair"):
    """Equal types, shapes, dtypes and bytes, field by field (so -0.0 != 0.0)."""
    assert type(x) is type(y), where
    if isinstance(x, np.ndarray):
        assert (x.dtype, x.shape) == (y.dtype, y.shape), where
        assert x.tobytes() == y.tobytes(), where
    elif is_dataclass(x):
        for f in fields(x):
            assert_bitwise_equal(getattr(x, f.name), getattr(y, f.name), f"{where}.{f.name}")
    elif isinstance(x, float):
        assert np.float64(x).tobytes() == np.float64(y).tobytes(), where
    else:
        assert x == y, where


def assert_same_pairs(got, expect):
    """``detect``'s arrays against the oracle's pairs, field by field."""
    assert len(got) == len(expect)
    assert_bitwise_equal(got, to_contacts(expect), "contacts")


def degenerate_triangles(rng, count):
    """Random triangles with collinear, repeated-vertex and point triangles mixed in."""
    tris = rng.uniform(-1.0, 1.0, (count, 3, 3))
    tris[0::5, 2] = tris[0::5, 0] + 0.5 * (tris[0::5, 1] - tris[0::5, 0])  # collinear
    tris[1::5, 1] = tris[1::5, 0]  # repeated vertex
    tris[2::7, :] = tris[2::7, :1]  # all three vertices equal
    return tris


def feature_points(rng, tris, count):
    """Random points plus points exactly on triangle vertices and edges."""
    edges = tris[:, [0, 1, 2]] + rng.uniform(0.0, 1.0, (len(tris), 3, 1)) * (
        tris[:, [1, 2, 0]] - tris[:, [0, 1, 2]])
    on = np.concatenate([tris.reshape(-1, 3), edges.reshape(-1, 3)])
    return np.concatenate([rng.uniform(-1.5, 1.5, (count, 3)), on[rng.permutation(len(on))[:count]]])


def cloud_geometry(points, object_id=0):
    return MeshGeometry(
        object_id=object_id,
        points=points,
        triangles=np.zeros((0, 3), dtype=np.int64),
        vertex_ids=np.arange(len(points)),
        deformable=True,
    )


def soup_geometry(tris, object_id=1, deformable=True, pose=None):
    return MeshGeometry(
        object_id=object_id,
        points=tris.reshape(-1, 3),
        triangles=np.arange(3 * len(tris)).reshape(-1, 3),
        vertex_ids=np.arange(3 * len(tris)),
        deformable=deformable,
        pose=pose or Pose.identity(),
    )


class TestBatchedNarrowPhase:
    def test_kernel_matches_per_point_reference(self):
        rng = np.random.default_rng(11)
        tris = degenerate_triangles(rng, 40)
        P = feature_points(rng, tris, 300)
        points, bary = closest_points_on_triangles(tris, P)
        assert points.shape == bary.shape == (len(P), len(tris), 3)
        for i, p in enumerate(P):
            ref_points, ref_bary = closest_points_reference(tris, p)
            one_points, one_bary = closest_points_on_triangles(tris, p)
            for got in (points[i], one_points):
                assert got.tobytes() == ref_points.tobytes()
            for got in (bary[i], one_bary):
                assert got.tobytes() == ref_bary.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_soups_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        tris = degenerate_triangles(rng, 30)
        P = feature_points(rng, tris, 120)
        cloud = cloud_geometry(P)
        pose = Pose(np.linalg.qr(rng.standard_normal((3, 3)))[0], rng.standard_normal(3))
        for soup in (soup_geometry(tris), soup_geometry(tris, deformable=False, pose=pose)):
            pairs = detect([cloud, soup], threshold=0.05)
            assert len(pairs) > 0
            assert_same_pairs(pairs, detect_reference([cloud, soup], threshold=0.05))

    def test_exact_ties_go_to_lowest_triangle(self):
        rng = np.random.default_rng(3)
        tris = rng.uniform(-1.0, 1.0, (6, 3, 3))
        tris = np.concatenate([tris, tris[::-1], tris[:, [1, 2, 0]]])  # duplicate faces
        P = feature_points(rng, tris, 60)
        cloud = cloud_geometry(P)
        soup = soup_geometry(tris)
        pairs = detect([cloud, soup], threshold=0.05)
        assert len(pairs) and (pairs.element_id < 6).all()
        assert_same_pairs(pairs, detect_reference([cloud, soup], threshold=0.05))

    def test_far_points_on_both_sides_of_an_open_plate(self):
        # two triangles with outward normal +y; a point behind an open plate
        # has signed = -distance, so it is paired however far it is
        plate = np.array([[[-1.0, 0, -1], [1, 0, 1], [1, 0, -1]],
                          [[-1.0, 0, -1], [-1, 0, 1], [1, 0, 1]]])
        P = np.array([
            [0.1, 0.005, 0.2],  # near, in front
            [0.3, -0.005, 0.1],  # near, behind
            [0.2, 3.0, -0.4],  # far in front: not paired
            [-0.6, -3.0, 0.5],  # far behind: signed = -3
            [5.0, 0.002, 5.0],  # beside the plate, in front: not paired
            [5.0, -0.002, 5.0],  # beside the plate, behind: paired
            [0.5, 0.01, -0.5],  # exactly at the threshold: paired
        ])
        cloud = cloud_geometry(P)
        pairs = detect([cloud, soup_geometry(plate)], threshold=0.01)
        assert pairs.vertex_id.tolist() == [0, 1, 3, 5, 6]
        assert pairs.signed_distance[2] == -3.0
        assert pairs.signed_distance[3] < -5.0
        assert pairs.signed_distance[4] == 0.01
        assert_same_pairs(pairs, detect_reference([cloud, soup_geometry(plate)], 0.01))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tilted_planes_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-2.0, 2.0, (400, 3))
        cloud = cloud_geometry(P)
        for _ in range(10):
            normal = rng.standard_normal(3)
            offset = float(rng.uniform(-1.0, 1.0))
            plane = PlaneGeometry(object_id=1, normal=normal, offset=offset)
            # put a few vertices exactly on and just around the threshold
            P[:6] -= np.outer(P[:6] @ plane.normal - offset - 0.01, plane.normal)
            P[6:12] += rng.uniform(-1e-15, 1e-15, (6, 1)) * plane.normal
            pairs = detect([cloud, plane], threshold=0.01)
            assert 0 < len(pairs) < len(P)
            assert_same_pairs(pairs, detect_reference([cloud, plane], threshold=0.01))

    def test_empty_vertex_ids(self):
        rng = np.random.default_rng(4)
        tris = rng.uniform(-1.0, 1.0, (5, 3, 3))
        cloud = cloud_geometry(rng.uniform(-1.0, 1.0, (4, 3)))
        geometries = [cloud, soup_geometry(tris, deformable=False),
                      PlaneGeometry(object_id=2, normal=(0, 1, 0), offset=0.0)]
        assert len(detect(geometries, threshold=0.1)) > 0
        cloud.vertex_ids = np.zeros(0, dtype=np.int64)
        assert_same_pairs(detect(geometries, threshold=0.1), [])
        assert detect_reference(geometries, threshold=0.1) == []

    def test_blocked_query_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(5)
        tris = degenerate_triangles(rng, 3)
        cloud = cloud_geometry(feature_points(rng, tris, 40))
        soup = soup_geometry(tris)
        whole = detect([cloud, soup], threshold=0.2)
        monkeypatch.setattr(collision, "QUERY_ENTRIES", 7)
        blocked = detect([cloud, soup], threshold=0.2)
        assert len(blocked) > 2
        assert_bitwise_equal(blocked, whole)
        # more triangles than entries per block: one vertex per block
        monkeypatch.setattr(collision, "QUERY_ENTRIES", 2)
        assert_bitwise_equal(detect([cloud, soup], threshold=0.2), whole)

    @pytest.mark.parametrize("scene", ["grasp_rotate.scn", "two_body_press.scn"])
    def test_recorded_scene_geometry_matches_reference(self, monkeypatch, scene):
        recorded = []

        def recording(geometries, threshold):
            recorded.append((geometries, threshold))
            return detect(geometries, threshold)

        monkeypatch.setattr(collision, "detect", recording)
        sim = Simulation(load_scene(SCENES / scene))
        for _ in range(3):
            sim.step()
        assert len(recorded) == 3
        for geometries, threshold in recorded:
            pairs = detect(geometries, threshold)
            assert len(pairs) > 0
            assert_same_pairs(pairs, detect_reference(geometries, threshold))


# --- reference contact frames ---------------------------------------------------
# The per-pair frame code that the (p, 3, 3) array version replaced, kept
# verbatim as the oracle (ContactFrame included): every frame, kept-frame
# decision and rotation must match it bit for bit.


@dataclass
class ContactFrame:
    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """Rows (n, t1, t2)."""
        return np.stack([self.n, self.t1, self.t2])


def _tangents(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t1 = _T1_REFERENCE - (_T1_REFERENCE @ n) * n
    if np.linalg.norm(t1) < 1e-6:
        t1 = _T1_FALLBACK - (_T1_FALLBACK @ n) * n
    t1 = t1 / np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def _frame_from_direction(d: np.ndarray, ref: np.ndarray | None) -> ContactFrame:
    norm = np.linalg.norm(d)
    if norm > COINCIDENT_EPS:
        n = d / norm
        if ref is not None and n @ ref < 0:
            n = -n
    elif ref is not None and np.linalg.norm(ref) > 0.5:
        n = ref / np.linalg.norm(ref)
    else:
        raise DegenerateFrameError("coincident proximity points and no element normal")
    t1, t2 = _tangents(n)
    return ContactFrame(n, t1, t2)


def pair_rows(contacts):
    """The rows of ``detect``'s arrays as the (p_a, p_b, ref_normal) the frame oracle reads."""
    return [SimpleNamespace(p_a=a, p_b=b, ref_normal=n)
            for a, b, n in zip(contacts.a.point, contacts.b.point, contacts.ref_normal)]


def build_frames_reference(pairs) -> list[ContactFrame]:
    """Detection-time frames: normal from pA - pB, element normal as fallback."""
    return [_frame_from_direction(p.p_a - p.p_b, p.ref_normal) for p in pairs]


def relinearize_reference(r: np.ndarray, previous: list[ContactFrame]):
    frames = []
    for d, old in zip(r, previous, strict=True):
        norm = np.linalg.norm(d)
        if norm <= COINCIDENT_EPS:
            frames.append(old)
            continue
        n = d / norm
        if n @ old.n < 0:
            n = -n
        if n @ old.n < _MAX_TILT_COS:
            frames.append(old)
            continue
        t1, t2 = _tangents(n)
        frames.append(ContactFrame(n, t1, t2))
    return frames


def max_frame_rotation_reference(old: list[ContactFrame], new: list[ContactFrame]) -> float:
    """Largest angle between corresponding normals, radians."""
    if len(old) != len(new):
        raise DimensionMismatchError(f"{len(old)} old frames but {len(new)} new frames")
    worst = 0.0
    for fo, fn in zip(old, new):
        c = float(np.clip(fo.n @ fn.n, -1.0, 1.0))
        worst = max(worst, float(np.arccos(c)))
    return worst


def frame_array(frames):
    return np.array([f.as_matrix() for f in frames]).reshape(-1, 3, 3)


def frame_list(array):
    return [ContactFrame(*rows) for rows in array]


MARK = 7.0  # tangent rows of the previous frames: a kept frame still carries it


def check_relinearize(r, previous):
    """relinearize against the reference, with the kept-frame masks compared.

    The rule reads only the previous normals, so the previous tangent rows are
    set to MARK: a kept frame keeps them and a re-evaluated one cannot.
    Returns the kept mask.
    """
    previous = previous.copy()
    previous[:, 1:] = MARK
    old = frame_list(previous)
    expect = relinearize_reference(r, old)
    kept = np.array([f is o for f, o in zip(expect, old)], dtype=bool).reshape(-1)
    got = relinearize(r, previous)
    assert_bitwise_equal(got, frame_array(expect))
    assert np.array_equal(got[:, 1, 0] == MARK, kept)
    return kept


def unit(v):
    return v / np.linalg.norm(v)


def random_pairs(rng, count):
    """Pairs with pA - pB over magnitudes 1e-12 .. 1 and element normals of
    random length and orientation."""
    pairs = []
    for _ in range(count):
        p_b = rng.uniform(-1.0, 1.0, 3)
        d = unit(rng.standard_normal(3)) * 10.0 ** rng.uniform(-12.0, 0.0)
        ref = unit(rng.standard_normal(3)) * rng.uniform(0.6, 2.0)
        pairs.append(frame_pair(p_b + d, p_b, ref))
    return pairs


def tilted(n_old, angle, rng, length=0.01):
    """A direction at ``angle`` radians from the unit normal n_old."""
    u = unit(np.cross(n_old, rng.standard_normal(3)))
    return length * (np.cos(angle) * n_old + np.sin(angle) * u)


class TestFramesMatchReference:
    _pair = staticmethod(frame_pair)

    def _build(self, pairs):
        got = frames_of(pairs)
        assert_bitwise_equal(got, frame_array(build_frames_reference(pairs)))
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pairs = random_pairs(rng, 200)
        d = np.array([p.p_a - p.p_b for p in pairs])
        apart = np.linalg.norm(d, axis=1) > COINCIDENT_EPS
        assert apart.any() and not apart.all()  # both the offset and the fallback rule
        self._build(pairs)

    def test_build_edge_cases(self):
        eps = COINCIDENT_EPS
        assert np.linalg.norm([0.6 * eps, 0.8 * eps, 0.0]) == eps
        pairs = [
            self._pair((0.6 * eps, 0.8 * eps, 0.0), (0, 0, 0), (0, 1, 0)),  # |d| at eps
            self._pair((0.0, 0.5 * eps, 0.0), (0, 0, 0), (0.0, 0.0, 0.7)),  # below eps
            self._pair((2 * eps, 0.0, 0.0), (0, 0, 0), (0, 1, 0)),  # above eps, along x
            self._pair((0.01, 0.0, 0.0), (0, 0, 0), (-1, 0, 0)),  # flipped onto -x
            self._pair((-0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0)),
            self._pair((0.2, 0.3, 0.1), (0.2, 0.3, 0.1), (1.5, 0, 0)),  # coincident, x
            self._pair((1e-9, 0.01, 0.0), (0, 0, 0), (0, 1, 0)),
            self._pair((0.01, 1e-9, 0.0), (0, 0, 0), (1, 0, 0)),  # |t1| 1e-7: fallback
            self._pair((-0.01, 0.0, 3e-9), (0, 0, 0), (-1, 0, 0)),
            self._pair((0.01, 2e-8, 0.0), (0, 0, 0), (1, 0, 0)),  # |t1| 2e-6: no fallback
        ]
        frames = self._build(pairs)
        assert np.array_equal(frames[5, 1], [0.0, 0.0, 1.0])  # tangent fallback to z
        assert self._build([]).shape == (0, 3, 3)

    def test_coincident_without_element_normal_raises(self):
        good = self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0))
        bad = self._pair((0.1, 0.1, 0.1), (0.1, 0.1, 0.1), (0.0, 0.4, 0.0))
        for pairs in ([bad], [good, bad, good]):
            with pytest.raises(DegenerateFrameError):
                build_frames_reference(pairs)
            with pytest.raises(DegenerateFrameError):
                frames_of(pairs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relinearize_random(self, seed):
        rng = np.random.default_rng(seed)
        previous = frames_of(random_pairs(rng, 120))
        n_old = previous[:, 0]
        r = np.empty((120, 3))
        for i in range(120):
            kind = i % 6
            if kind == 0:  # anywhere, including beyond the tilt limit
                r[i] = unit(rng.standard_normal(3)) * 10.0 ** rng.uniform(-12.0, 0.0)
            elif kind == 1:  # at or below the coincidence limit
                r[i] = unit(rng.standard_normal(3)) * COINCIDENT_EPS * rng.choice([0.0, 0.5, 1.0])
            elif kind in (2, 3):  # just under and just over 60 degrees
                r[i] = tilted(n_old[i], np.pi / 3 + rng.choice([-1e-7, 1e-7]), rng)
            elif kind == 4:  # the same, pointing against n_old (flipped)
                r[i] = -tilted(n_old[i], np.pi / 3 + rng.choice([-1e-7, 1e-7]), rng)
            else:  # a small turn
                r[i] = tilted(n_old[i], rng.uniform(0.0, 0.1), rng)
        kept = check_relinearize(r, previous)
        assert kept.any() and not kept.all()
        assert_max_rotation_matches(previous, relinearize(r, previous))

    def test_relinearize_along_x_uses_fallback_tangent(self):
        previous = frames_of([
            self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0)),
            self._pair((-0.01, 0.001, 0.0), (0, 0, 0), (-1, 0, 0)),
        ])
        r = np.array([[0.02, 0.0, 0.0], [-0.02, 0.0, 0.0]])
        check_relinearize(r, previous)
        assert np.array_equal(relinearize(r, previous)[:, 1], [[0, 0, 1], [0, 0, 1.0]])

    def test_relinearize_at_the_tilt_and_tangent_limits(self):
        up = self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0))
        along_x = self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0))
        previous = frames_of([up, up, along_x, along_x, along_x])
        x = 1.7320508075688774  # (x, 1, 0) normalizes to a y component of exactly 0.5
        assert unit(np.array([x, 1.0, 0.0]))[1] == _MAX_TILT_COS
        r = np.array([
            [x, 1.0, 0.0],  # exactly 60 degrees from n_old: re-evaluated
            [-x, -1.0, 0.0],  # the same after the flip
            [1.0, 1e-7, 0.0],  # within 1e-6 of the x axis: tangent falls back to z
            [-1.0, 0.0, 3e-7],
            [1.0, 2e-6, 0.0],  # just outside: tangent stays the projected x axis
        ])
        assert not check_relinearize(r, previous).any()

    def test_rotation_limits(self):
        axes = frames_of([
            self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0)),
            self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0)),
        ])
        assert max_frame_rotation(axes, axes) == 0.0
        flipped = axes.copy()
        flipped[1] *= -1.0
        assert max_frame_rotation(axes, flipped) == np.pi
        random = frames_of(random_pairs(np.random.default_rng(8), 50))
        for old, new in ((axes, axes), (axes, flipped), (random, random), (random, random[::-1])):
            assert_max_rotation_matches(old, new)

    def test_relinearize_no_pairs(self):
        check_relinearize(np.zeros((0, 3)), np.zeros((0, 3, 3)))
        assert max_frame_rotation(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))) == 0.0

    def test_relinearize_length_mismatch_raises(self):
        frames = frames_of([self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0))] * 2)
        with pytest.raises(DimensionMismatchError):
            relinearize(np.ones((3, 3)), frames)
        with pytest.raises(DimensionMismatchError):
            relinearize(np.ones((1, 3)), frames)

    @pytest.mark.parametrize("scene", ["grasp_rotate.scn", "two_body_press.scn"])
    def test_recorded_scene_frames_match_reference(self, monkeypatch, scene):
        # every re-linearization of two forced fast steps, on the real r
        recorded = []

        def recording(r, previous):
            recorded.append((r.copy(), previous.copy()))
            return relinearize(r, previous)

        monkeypatch.setattr(solver, "relinearize", recording)
        config = load_scene(SCENES / scene)
        newton = replace(config.newton, scheme="fast", max_iterations=5,
                         penetration_tol=0.0, rotation_tol=0.0)
        sim = Simulation(replace(config, newton=newton))
        for _ in range(2):
            sim.step()
            expect = build_frames_reference(pair_rows(sim.last_pairs))
            assert_bitwise_equal(build_frames(sim.last_pairs), frame_array(expect))
        assert len(recorded) >= 4
        for r, previous in recorded:
            check_relinearize(r, previous)
            assert_max_rotation_matches(previous, relinearize(r, previous))


def assert_max_rotation_matches(old, new):
    got = max_frame_rotation(old, new)
    expect = max_frame_rotation_reference(frame_list(old), frame_list(new))
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()


# --- proximity positions, gaps and mappings against the per-pair oracle ----------
# refresh_proximity, signed_gaps, build_signed_mapping and the vertex-vs-plane
# query loop over objects, not pairs; every value must be bitwise that of the
# per-pair code kept in pairs_reference.

SOFT_A, SOFT_B, RIGID, KINEMATIC, PLANE = range(5)
N_NODES = 12


def random_pose(rng):
    return Pose(np.linalg.qr(rng.standard_normal((3, 3)))[0], rng.standard_normal(3))


def random_views(rng):
    soft_b = rng.uniform(-1.0, 1.0, (N_NODES, 3))
    soft_b[11] = 0.5 * (soft_b[9] + soft_b[10])  # (9, 10, 11) is a sliver
    return {
        SOFT_A: rng.uniform(-1.0, 1.0, (N_NODES, 3)),
        SOFT_B: soft_b,
        RIGID: random_pose(rng),
        KINEMATIC: random_pose(rng),
        PLANE: Pose.identity(),
    }


def random_weights(rng):
    """Barycentric weights, with zero weights in three of every five."""
    w = rng.dirichlet(np.ones(3))
    return [w, np.array([0.0, w[1], 1.0 - w[1]]), np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]), w][rng.integers(5)]


def random_triangle(rng, degenerate=False):
    if degenerate:
        return [np.array([4, 4, 7]), np.array([9, 10, 11]), np.array([2, 2, 2])][rng.integers(3)]
    return rng.choice(N_NODES, 3, replace=False)


def random_attachment(rng, kind, oid, degenerate=False):
    if kind == AttachKind.VERTEX:
        return Attachment(kind, oid, vertex=int(rng.integers(N_NODES)))
    if kind == AttachKind.BARYCENTRIC:
        return Attachment(kind, oid, triangle=random_triangle(rng, degenerate),
                          weights=random_weights(rng))
    if kind == AttachKind.RIGID_LOCAL:
        lever = rng.standard_normal(3) * 0.1
        lever[rng.integers(3)] = 0.0  # zero entries of [I, -skew(lever)] are dropped
        return Attachment(kind, oid, local_point=rng.standard_normal(3) * 0.1, lever=lever)
    if kind == AttachKind.LOCAL:
        return Attachment(kind, oid, local_point=rng.standard_normal(3),
                          local_normal=unit(rng.standard_normal(3)))
    return Attachment(kind, oid, world_point=rng.standard_normal(3))


A_SIDES = [(AttachKind.VERTEX, SOFT_A), (AttachKind.BARYCENTRIC, SOFT_A),
           (AttachKind.RIGID_LOCAL, RIGID), (AttachKind.LOCAL, KINEMATIC)]
B_SIDES = [(AttachKind.BARYCENTRIC, SOFT_B), (AttachKind.LOCAL, KINEMATIC),
           (AttachKind.WORLD, PLANE), (AttachKind.VERTEX, SOFT_B)]


def random_attached_pairs(rng, count):
    """Pairs over every attachment kind on both sides, with degenerate B triangles."""
    pairs = []
    for i in range(count):
        kind_a, oid_a = A_SIDES[rng.integers(len(A_SIDES))]
        kind_b, oid_b = B_SIDES[rng.integers(len(B_SIDES))]
        pairs.append(ProximityPair(
            object_a=oid_a,
            object_b=oid_b,
            attach_a=random_attachment(rng, kind_a, oid_a),
            attach_b=random_attachment(rng, kind_b, oid_b, degenerate=i % 4 == 0),
            p_a=rng.standard_normal(3),
            p_b=rng.standard_normal(3),
            ref_normal=unit(rng.standard_normal(3)),
            signed_distance=float(rng.standard_normal()),
            vertex_id=i,
            element_id=-1,
        ))
    return pairs


def assert_same_mapping(got, expect):
    assert got.shape == expect.shape
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(expect, name)), name
    assert got.data.tobytes() == expect.data.tobytes()


def assert_same_proximity(contacts, pairs, views):
    for got, expect in zip(refresh_proximity(contacts, views),
                           refresh_proximity_reference(pairs, views)):
        assert_bitwise_equal(got, expect)
    assert_bitwise_equal(collision.signed_gaps(contacts, views),
                         signed_gaps_reference(pairs, views))


class TestProximityMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pairs = random_attached_pairs(rng, 300)
        contacts = to_contacts(pairs)
        for _ in range(3):
            assert_same_proximity(contacts, pairs, random_views(rng))

    def test_degenerate_b_triangle_falls_back_to_detection_normal(self):
        rng = np.random.default_rng(3)
        pairs = [p for p in random_attached_pairs(rng, 80)
                 if p.attach_b.kind == AttachKind.BARYCENTRIC
                 and len(set(p.attach_b.triangle.tolist())) < 3]
        assert pairs
        views = random_views(rng)
        gaps = collision.signed_gaps(to_contacts(pairs), views)
        p_a, p_b = refresh_proximity_reference(pairs, views)
        ref = np.array([p.ref_normal for p in pairs])
        assert np.array_equal(gaps, (ref[:, None, :] @ (p_a - p_b)[:, :, None])[:, 0, 0])
        assert_same_proximity(to_contacts(pairs), pairs, views)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_signed_mappings(self, seed):
        rng = np.random.default_rng(seed)
        pairs = random_attached_pairs(rng, 200)
        contacts = to_contacts(pairs)
        fixed = rng.random(3 * N_NODES) < 0.2
        for oid, n_dofs, mask in ((SOFT_A, 3 * N_NODES, None), (SOFT_A, 3 * N_NODES, fixed),
                                  (SOFT_B, 3 * N_NODES, fixed), (RIGID, 6, None)):
            assert_same_mapping(build_signed_mapping(contacts, oid, n_dofs, mask),
                                build_signed_mapping_reference(pairs, oid, n_dofs, mask))

    @pytest.mark.parametrize("attachment", [
        Attachment(AttachKind.VERTEX, SOFT_A, vertex=N_NODES),
        Attachment(AttachKind.BARYCENTRIC, SOFT_A, triangle=np.array([0, N_NODES + 2, 1]),
                   weights=np.full(3, 1 / 3)),
        Attachment(AttachKind.BARYCENTRIC, SOFT_A, triangle=np.array([0, 1, -2]),
                   weights=np.full(3, 1 / 3)),
    ])
    def test_out_of_range_nodes_raise(self, attachment):
        pairs = random_attached_pairs(np.random.default_rng(4), 10)
        pairs[3].attach_a = attachment
        with pytest.raises(InvalidAttachmentError):
            build_signed_mapping_reference(pairs, SOFT_A, 3 * N_NODES)
        with pytest.raises(InvalidAttachmentError):
            build_signed_mapping(to_contacts(pairs), SOFT_A, 3 * N_NODES)

    def test_rigid_side_on_a_soft_body_raises(self):
        pairs = [p for p in random_attached_pairs(np.random.default_rng(5), 40)
                 if p.attach_a.kind == AttachKind.RIGID_LOCAL]
        for mapping in (build_signed_mapping_reference, build_signed_mapping):
            with pytest.raises(InvalidAttachmentError):
                mapping(pairs if mapping is build_signed_mapping_reference
                        else to_contacts(pairs), RIGID, 9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_vertex_vs_plane_matches_per_candidate_loop(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-2.0, 2.0, (400, 3))
        cloud = cloud_geometry(P)
        for _ in range(10):
            plane = PlaneGeometry(object_id=1, normal=rng.standard_normal(3),
                                  offset=float(rng.uniform(-1.0, 1.0)))
            P[:6] -= np.outer(P[:6] @ plane.normal - plane.offset - 0.01, plane.normal)
            P[6:12] += rng.uniform(-1e-15, 1e-15, (6, 1)) * plane.normal
            expect = vertex_vs_plane_preselect_reference(cloud, plane, 0.01)
            assert 0 < len(expect) < len(P)
            assert_same_pairs(collision._vertex_vs_plane(cloud, plane, 0.01), expect)

    def test_sphere_on_plane(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pose = random_pose(rng)
            sph = SphereGeometry(object_id=0, center=pose.position, radius=0.1, pose=pose)
            n = unit(rng.standard_normal(3))  # the sphere's surface within 5 mm of the plane
            offset = float(n @ pose.position) - 0.1 + rng.uniform(-0.005, 0.005)
            plane = PlaneGeometry(object_id=1, normal=n, offset=offset)
            geometries = [sph, plane]
            contacts = detect(geometries, threshold=0.01)
            pairs = detect_reference(geometries, threshold=0.01)
            assert len(pairs) == 1
            assert_same_pairs(contacts, pairs)
            views = {0: random_pose(rng), 1: Pose.identity()}
            assert_same_proximity(contacts, pairs, views)
            S = build_signed_mapping(contacts, 0, 6)
            assert_same_mapping(S, build_signed_mapping_reference(pairs, 0, 6))

    @pytest.mark.parametrize("deformable", [True, False])
    def test_mesh_against_static_mesh(self, deformable):
        # a soft cloud on a static (tilted) soup, and a static cloud on a soft soup
        rng = np.random.default_rng(7)
        tris = degenerate_triangles(rng, 20)
        pose = random_pose(rng)
        cloud = cloud_geometry(feature_points(rng, tris, 80))
        soup = soup_geometry(tris, deformable=False, pose=pose)
        if not deformable:
            cloud.deformable = False
            cloud.pose = pose
            soup = soup_geometry(tris)
        contacts = detect([cloud, soup], threshold=0.05)
        pairs = detect_reference([cloud, soup], threshold=0.05)
        assert len(pairs) > 0
        assert_same_pairs(contacts, pairs)
        for moved in (pose, random_pose(rng)):
            soft = cloud if deformable else soup
            nodes = soft.points + rng.uniform(-0.1, 0.1, soft.points.shape)
            views = {0: nodes, 1: moved} if deformable else {0: moved, 1: nodes}
            assert_same_proximity(contacts, pairs, views)

    @pytest.mark.parametrize("scene", ["grasp_rotate.scn", "two_body_press.scn",
                                       "block_on_plane.scn", "mixed"])
    def test_recorded_scene_proximity_matches_reference(self, monkeypatch, tmp_path, scene):
        detected, calls = {}, []
        detect_now, refresh_now = collision.detect, collision.refresh_proximity

        def recording_detect(geometries, threshold):
            contacts = detect_now(geometries, threshold)
            detected[id(contacts)] = (contacts, detect_reference(geometries, threshold))
            return contacts

        def recording_refresh(contacts, views):
            calls.append((contacts, views))
            return refresh_now(contacts, views)

        monkeypatch.setattr(collision, "detect", recording_detect)
        monkeypatch.setattr(collision, "refresh_proximity", recording_refresh)
        if scene == "mixed":
            path = tmp_path / "mixed.scn"
            path.write_text(MIXED_SCENE)
        else:
            path = SCENES / scene
        config = load_scene(path)
        newton = replace(config.newton, scheme="standard", max_iterations=3,
                         penetration_tol=0.0, rotation_tol=0.0)
        sim = Simulation(replace(config, newton=newton))
        for _ in range(2):
            sim.step()
        monkeypatch.undo()
        assert len(detected) == 2 and len(calls) >= 8
        for contacts, pairs in detected.values():
            assert len(pairs) > 0
            assert_same_pairs(contacts, pairs)
            for obj in sim.dynamic_objects:
                args = (obj.oid, obj.body.n_dofs, obj.body.fixed_mask)
                assert_same_mapping(build_signed_mapping(contacts, *args),
                                    build_signed_mapping_reference(pairs, *args))
        for contacts, views in calls:
            assert_same_proximity(contacts, detected[id(contacts)][1], views)

