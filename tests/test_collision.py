import functools
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from contactnewton import collision, solver
from contactnewton.collision import (
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
    element_normals,
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
    vertex_vs_plane_reference,
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

    def test_penetrating_vertex_gets_the_planes_frame_bytes(self):
        # a penetrating pair's normal is flipped from (0, -1, 0); the flip
        # must give +0, not -0, components, so detection's frames are the
        # plane's bit for bit, which the Newton loop's keep rule compares
        m = box_mesh((0.1, 0.1, 0.1), (1, 1, 1), center=(0.3, 0.03, -0.2))
        plane = PlaneGeometry(object_id=1, normal=(0, 1, 0), offset=0.0)
        pairs = detect([mesh_geometry(m, 0), plane], threshold=0.01)
        assert len(pairs) == 4 and (pairs.signed_distance < 0).all()
        assert_bitwise_equal(build_frames(pairs), relinearize(np.tile(plane.normal, (4, 1))))

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
        # a frame's own normal gives the frame back, bit for bit
        frames = frames_of([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))])
        assert_bitwise_equal(relinearize(frames[:, 0]), frames)

    def test_relinearize_rotation_oracle(self):
        frames = frames_of([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))])
        ang = np.deg2rad(10)
        new = relinearize(np.array([[np.sin(ang), np.cos(ang), 0.0]]))
        assert max_frame_rotation(frames, new) == pytest.approx(ang, abs=1e-12)
        F = new[0]
        assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-9

    def test_rotation_of_unequal_frame_lists_raises(self):
        frames = frames_of([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))] * 2)
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames, frames[:1])
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames[:1], frames)

    def test_frame_continuity(self):
        # small turns of the normal turn the frame proportionally
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = rng.standard_normal(3)
            d *= rng.uniform(0.01, 1.0) / np.linalg.norm(d)
            ref = d / np.linalg.norm(d)
            pair = self._pair(d, (0, 0, 0), ref=ref)
            [f0] = frames_of([pair])
            eps = rng.standard_normal(3)
            eps *= 1e-8 / np.linalg.norm(eps)
            [f1] = relinearize(unit(d + eps)[None])
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

    def test_one_query_against_several_meshes_matches_one_per_mesh(self, monkeypatch):
        # a deformable body's vertices are queried once against the stacked
        # triangles of all the meshes it overlaps; each mesh's pairs must be
        # bitwise those of a detection against that mesh alone
        rng = np.random.default_rng(11)
        tris = degenerate_triangles(rng, 6)
        cloud = cloud_geometry(feature_points(rng, tris, 40))
        meshes = [soup_geometry(tris[:4], object_id=1, deformable=False),
                  soup_geometry(tris[4:] + 0.01, object_id=2, deformable=False)]
        alone = [detect([cloud, mesh], threshold=0.2) for mesh in meshes]
        assert all(len(pairs) > 0 for pairs in alone)
        for entries in (collision.QUERY_ENTRIES, 13, 2):  # whole, 2 vertices and 1 per block
            monkeypatch.setattr(collision, "QUERY_ENTRIES", entries)
            assert_bitwise_equal(detect([cloud, *meshes], threshold=0.2),
                                 collision._concat(alone))

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
            n = 0.0 - n  # +0, not -0, for a zero component
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


def relinearize_reference(normals: np.ndarray) -> list[ContactFrame]:
    """Frames at given unit normals, taken as they are."""
    return [ContactFrame(n, *_tangents(n)) for n in normals]


def max_frame_rotation_reference(old: list[ContactFrame], new: list[ContactFrame]) -> float:
    """Largest angle between corresponding normals, radians, 2 asin(|n_o - n_n| / 2)."""
    if len(old) != len(new):
        raise DimensionMismatchError(f"{len(old)} old frames but {len(new)} new frames")
    worst = 0.0
    for fo, fn in zip(old, new):
        d = fo.n - fn.n
        worst = max(worst, float(2.0 * np.arcsin(min(0.5 * np.sqrt(d @ d), 1.0))))
    return worst


def frame_array(frames):
    return np.array([f.as_matrix() for f in frames]).reshape(-1, 3, 3)


def frame_list(array):
    return [ContactFrame(*rows) for rows in array]


def element_normal_reference(contacts, views) -> np.ndarray:
    """Each pair's supporting element normal, one pair at a time: a posed B
    side's detection-time normal turned by its pose, a node-weighted one's
    triangle normal at its current nodes (the detection-time normal for a
    degenerate triangle), as it is, with no flip."""
    normals = []
    for i, oid in enumerate(contacts.b.object_id.tolist()):
        view = views[oid]
        if isinstance(view, Pose):
            normals.append(view.rotation @ contacts.local_normal[i])
            continue
        tri = np.asarray(view)[contacts.b.nodes[i]]
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        norm = np.linalg.norm(n)
        normals.append(n / norm if norm > 0 else contacts.ref_normal[i])
    return np.array(normals).reshape(-1, 3)


def check_relinearize(normals):
    """relinearize against the reference, bit for bit; returns the frames."""
    got = relinearize(normals)
    assert_bitwise_equal(got, frame_array(relinearize_reference(normals)).reshape(-1, 3, 3))
    assert_bitwise_equal(got[:, 0], normals)  # the normal as given: never flipped
    return got


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
        # unit normals anywhere, and within 1e-6 of the x axis, where the
        # tangent falls back to the z axis, on either side of that limit
        rng = np.random.default_rng(seed)
        normals = np.array([unit(rng.standard_normal(3)) for _ in range(120)])
        near_x = normals[::4]
        near_x[:, 0] = rng.choice([-1.0, 1.0], len(near_x))
        near_x[:, 1:] *= 10.0 ** rng.uniform(-8.0, -5.0, (len(near_x), 1))
        normals[::4] = [unit(n) for n in near_x]
        check_relinearize(normals)
        short = [np.linalg.norm(_T1_REFERENCE - n[0] * n) < 1e-6 for n in normals]
        assert any(short) and not all(short)

    def test_relinearize_along_x_uses_fallback_tangent(self):
        frames = check_relinearize(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        assert np.array_equal(frames[:, 1], [[0, 0, 1], [0, 0, 1.0]])

    def test_relinearize_at_the_tangent_limits(self):
        normals = np.array([unit(np.array(d)) for d in (
            (1.0, 1e-7, 0.0),  # within 1e-6 of the x axis: tangent falls back to z
            (-1.0, 0.0, 3e-7),
            (1.0, 2e-6, 0.0),  # just outside: tangent stays the projected x axis
        )])
        frames = check_relinearize(normals)
        assert np.array_equal(frames[0, 1], [0.0, 0.0, 1.0])
        assert abs(frames[2, 1, 1]) > 0.99

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

    def test_rotation_of_equal_normals_is_zero(self):
        # arccos of the dot product read up to 2.6e-8 rad for equal normals
        frames = frames_of(random_pairs(np.random.default_rng(3), 200))
        assert max_frame_rotation(frames, frames) == 0.0
        assert max_frame_rotation(frames, relinearize(frames[:, 0].copy())) == 0.0

    @pytest.mark.parametrize("angle", [1e-9, 1e-7, 1e-4, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-6])
    def test_rotation_of_known_turns(self, angle):
        # a unit normal turned by ``angle`` about a perpendicular axis reads
        # that angle within the rounding of the normals' entries, a few ulps
        # absolute, which near pi the half-chord's closeness to 1 amplifies
        # by 1 / cos(angle / 2); arccos read 0 for turns below about 1e-8
        rng = np.random.default_rng(11)
        n0 = np.array([unit(rng.standard_normal(3)) for _ in range(20)])
        u = np.array([unit(np.cross(n, rng.standard_normal(3))) for n in n0])
        n1 = np.cos(angle) * n0 + np.sin(angle) * u
        for old, new in zip(n0, n1):
            got = max_frame_rotation(relinearize(old[None]), relinearize(new[None]))
            bound = 8 * np.finfo(float).eps * (1.0 + angle / np.cos(angle / 2))
            assert abs(got - angle) <= bound, (got, angle)

    def test_relinearize_no_pairs(self):
        assert check_relinearize(np.zeros((0, 3))).shape == (0, 3, 3)
        assert max_frame_rotation(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))) == 0.0

    @pytest.mark.parametrize("scene, relinearized", [("grasp_rotate.scn", 2),
                                                      ("two_body_press.scn", 6)],
                             ids=["grasp_rotate.scn", "two_body_press.scn"])
    def test_recorded_scene_frames_match_reference(self, monkeypatch, scene, relinearized):
        # every later iteration of two forced fast steps: the previous move's
        # normals are the supporting elements' at its views, by the per-pair
        # reference; the iteration re-linearizes at them, to the reference
        # frames, exactly when they differ from its frames' normals bit for
        # bit, and keeps those frames as the same object otherwise. The
        # plates turn between the first two iterations only; soft B
        # triangles turn with their nodes in most iterations, but not after
        # an iteration whose solve left every group at lambda = 0
        moves, events = [], []
        proximity_now, relinearize_now = collision.proximity, solver.relinearize
        rebuild_now = solver.rebuild_W_fast

        def recording_proximity(contacts, views):
            record = proximity_now(contacts, views)
            moves.append((contacts, views, record.normals))
            return record

        def recording_relinearize(normals):
            events.append(("relinearize", len(moves), normals.copy()))
            return relinearize_now(normals)

        def recording_rebuild(D, wg, kept=None):
            events.append(("rebuild", len(moves), D))
            return rebuild_now(D, wg, kept)

        monkeypatch.setattr(collision, "proximity", recording_proximity)
        monkeypatch.setattr(solver, "relinearize", recording_relinearize)
        monkeypatch.setattr(solver, "rebuild_W_fast", recording_rebuild)
        config = load_scene(SCENES / scene)
        newton = replace(config.newton, scheme="fast", max_iterations=5, penetration_tol=-1.0)
        sim = Simulation(replace(config, newton=newton))
        for _ in range(2):
            sim.step()
            expect = build_frames_reference(pair_rows(sim.last_pairs))
            assert_bitwise_equal(build_frames(sim.last_pairs), frame_array(expect))
        monkeypatch.undo()
        rebuilds = [i for i, event in enumerate(events) if event[0] == "rebuild"]
        assert len(rebuilds) == 10
        for step in (rebuilds[:5], rebuilds[5:]):
            for before, now in zip(step, step[1:]):
                (_, _, D_before), (_, count, D) = events[before], events[now]
                contacts, views, normals = moves[count - 1]  # the move that preceded it
                assert_bitwise_equal(normals, element_normal_reference(contacts, views))
                between = events[before + 1:now]
                if normals.tobytes() == D_before[:, 0].tobytes():
                    assert between == [] and D is D_before
                else:
                    [(kind, at, relinearized_at)] = between
                    assert kind == "relinearize" and at == count
                    assert_bitwise_equal(relinearized_at, normals)
                    assert_bitwise_equal(D, check_relinearize(normals))
        assert sum(event[0] == "relinearize" for event in events) == relinearized


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
            expect = vertex_vs_plane_reference(cloud, plane, 0.01)
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
        # a soft cloud on a static (tilted) soup, and a static cloud on a soft
        # soup: a static mesh's vertices carry no DOFs, so they are never paired
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
        if not deformable:
            assert len(contacts) == 0 and pairs == []
            return
        assert len(pairs) > 0
        assert_same_pairs(contacts, pairs)
        for moved in (pose, random_pose(rng)):
            nodes = cloud.points + rng.uniform(-0.1, 0.1, cloud.points.shape)
            assert_same_proximity(contacts, pairs, {0: nodes, 1: moved})

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
                         penetration_tol=-1.0, rotation_tol=0.0)
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



class TestElementNormals:
    """Each later Newton iteration's normals are the supporting elements' at
    the moved state, taken as they are: never flipped to agree with the
    detection normal or the previous frame."""

    def test_plane_keeps_its_normal_under_any_move(self):
        rng = np.random.default_rng(11)
        plane = PlaneGeometry(object_id=1, normal=(0.3, 1.0, -0.2), offset=0.05)
        P = rng.uniform(-0.2, 0.2, (40, 3))
        P -= np.outer(P @ plane.normal - plane.offset - rng.uniform(-0.01, 0.01, 40),
                      plane.normal)
        contacts = detect([cloud_geometry(P), plane], threshold=0.01)
        assert len(contacts) > 10
        for moved in (P, P - 0.05 * plane.normal):  # the second sinks every vertex
            views = {0: moved, 1: Pose.identity()}
            normals = element_normals(contacts, views)
            assert_bitwise_equal(normals, element_normal_reference(contacts, views))
            assert (normals == plane.normal).all()
            record = collision.proximity(contacts, views)
            pairs = detect_reference([cloud_geometry(P), plane], 0.01)
            assert_bitwise_equal(record.gaps, signed_gaps_reference(pairs, views))
            assert_bitwise_equal(check_relinearize(normals)[:, 0], normals)
        assert (record.gaps < 0).all()  # sunk: r turned against n, which stays

    def test_plate_is_posed_at_the_end_of_the_step(self):
        # a turning plate's rows read its pose at t_next in every evaluation
        # of the step: no move changes them, and they differ from detection's
        sim = Simulation(load_scene(SCENES / "grasp_rotate.scn"))
        sim.step()
        ctx = sim.prepare_step().ctx
        pairs, t_next = ctx.pairs, sim.time + sim.config.h
        plates = [obj for obj in sim.objects if obj.kind == "kinematic"]
        views = {obj.oid: obj.pose_at(t_next) for obj in plates}
        on_plate = np.isin(pairs.b.object_id, list(views))
        assert on_plate.all()
        expect = element_normal_reference(pairs, views)
        assert not np.array_equal(expect, pairs.ref_normal)
        (cube,) = sim.dynamic_objects
        dq = np.random.default_rng(2).uniform(-1e-3, 1e-3, cube.body.n_dofs)
        for move in ({}, {cube.oid: dq}):
            assert_bitwise_equal(ctx.refresh(move).normals, expect)

    def test_soft_triangle_turns_with_its_nodes_unflipped(self):
        # a soft B triangle's normal follows its moved nodes, even when the
        # move turns it over: the normal then opposes the detection normal
        rng = np.random.default_rng(12)
        tris = rng.uniform(-1.0, 1.0, (6, 3, 3))
        cloud = cloud_geometry(feature_points(rng, tris, 40))
        soup = soup_geometry(tris)
        contacts = detect([cloud, soup], threshold=0.05)
        assert len(contacts) > 0
        nodes = soup.points + rng.uniform(-0.05, 0.05, soup.points.shape)
        flipped = nodes.copy()
        flipped[0::3], flipped[1::3] = nodes[1::3], nodes[0::3]  # every triangle turned over
        for moved in (nodes, flipped):
            views = {0: cloud.points, 1: moved}
            normals = element_normals(contacts, views)
            assert_bitwise_equal(normals, element_normal_reference(contacts, views))
            check_relinearize(normals)
        assert (_rowdot_reference(normals, contacts.ref_normal) < 0).all()

    def test_penetration_of_gaps(self):
        assert collision.penetration(np.array([0.02, -0.01, -0.003])) == 0.01
        assert collision.penetration(np.array([0.02, 0.0])) == 0.0
        assert collision.penetration(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("scene", ["grasp_rotate.scn", "two_body_press.scn",
                                       "block_on_plane.scn", "mixed"])
    def test_step_record_matches_a_full_evaluation(self, tmp_path, scene):
        # the step's refresh is one proximity evaluation on the step's views;
        # its record equals one evaluated from scratch on the same views
        if scene == "mixed":
            path = tmp_path / "mixed.scn"
            path.write_text(MIXED_SCENE)
        else:
            path = SCENES / scene
        sim = Simulation(load_scene(path))
        sim.step()
        prep = sim.prepare_step()
        ctx, t_next = prep.ctx, sim.time + sim.config.h
        rng = np.random.default_rng(14)
        for dq in ({}, {oid: rng.uniform(-1e-3, 1e-3, S.shape[1])
                        for oid, S in ctx.S_by_object.items()}):
            record = ctx.refresh(dq)
            captured = {}

            def capture(contacts, views, _fn=refresh_proximity):
                captured["views"] = views
                return _fn(contacts, views)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(collision, "refresh_proximity", capture)
                again = ctx.refresh(dq)
            views = captured["views"]
            full = collision.proximity(ctx.pairs, views)
            for got in (record, again):
                assert_bitwise_equal(got, full)
        assert_bitwise_equal(prep.pen_before, collision.penetration(ctx.refresh({}).gaps))


def _rowdot_reference(a, b):
    return np.array([x @ y for x, y in zip(a, b)])


def assert_fresh_groups(side):
    """``side.groups`` equals a grouping of its rows computed now."""
    expect = [(oid, np.flatnonzero(side.object_id == oid))
              for oid in np.unique(side.object_id).tolist()]
    got = side.groups
    assert [oid for oid, _ in got] == [oid for oid, _ in expect]
    for (_, rows), (_, want) in zip(got, expect):
        assert np.array_equal(rows, want)


class TestSideGroups:
    @pytest.mark.parametrize("scene", ["bench_column.scn", "block_on_plane.scn",
                                       "grasp_rotate.scn", "point_mass.scn",
                                       "two_body_press.scn", "mixed"])
    def test_detected_groups_match_a_fresh_grouping(self, monkeypatch, tmp_path, scene):
        detected = []
        detect_now = collision.detect

        def recording_detect(geometries, threshold):
            detected.append(detect_now(geometries, threshold))
            return detected[-1]

        monkeypatch.setattr(collision, "detect", recording_detect)
        if scene == "mixed":
            path = tmp_path / "mixed.scn"
            path.write_text(MIXED_SCENE)
        else:
            path = SCENES / scene
        sim = Simulation(load_scene(path))
        for _ in range(4):
            sim.step()
        monkeypatch.undo()
        assert len(detected) == 4 and any(len(contacts) for contacts in detected)
        for contacts in detected:
            for side in (contacts.a, contacts.b):
                # the steps filled the cache, so these are the groups they read
                assert "groups" in vars(side) or not len(contacts)
                assert_fresh_groups(side)

    def test_take_and_concat_group_their_own_rows(self):
        contacts = to_contacts(random_attached_pairs(np.random.default_rng(9), 60))
        for side in (contacts.a, contacts.b):
            assert len(side.groups) > 1  # fills the source sides' caches
        rows = np.flatnonzero(contacts.b.object_id != contacts.b.object_id[0])
        parts = [collision._take(contacts, rows), collision._take(contacts.a, rows[::-1]),
                 collision._concat([contacts, collision._take(contacts, rows)]),
                 collision._concat([contacts.b, contacts.a])]
        for part in parts:
            for side in (part.a, part.b) if isinstance(part, collision.Contacts) else (part,):
                assert "groups" not in vars(side)
                assert_fresh_groups(side)


# --- one independent constraint per contact feature ---------------------------


def both_ways_penetration(sim):
    """Worst penetration of the committed state by (soft vertices, vertices
    of kinematic or static meshes): row 0 as read, row 1 counting only the
    vertices behind the face of their closest element.

    Every ordered mesh pair with a deformable side is queried, so a kinematic
    plate's vertices inside the soft body are read too, though ``detect``
    does not pair them. A vertex whose closest point on B is on an edge or a
    corner of B reads its depth below the plane of the element there, which
    need not be a depth into B: a cube vertex slid past a plate's open edge,
    or a plate corner outside the cube. Row 1 keeps the vertices whose closest
    point is the foot of their perpendicular, |signed distance| = |gap|.
    """
    states = {obj.oid: obj.state for obj in sim.dynamic_objects}
    views = sim._views({oid: state.q for oid, state in states.items()}, sim.time)
    meshes = [g for g in (obj.geometry(states, sim.time) for obj in sim.objects)
              if isinstance(g, MeshGeometry)]
    worst = np.zeros((2, 2))
    for ga in meshes:
        for gb in meshes:
            if ga is gb or not (ga.deformable or gb.deformable):
                continue
            pairs = collision._vertex_vs_meshes(ga, [gb], sim.config.threshold)[0]
            if not len(pairs):
                continue
            gaps = collision.signed_gaps(pairs, views)
            face = np.abs(pairs.signed_distance) <= np.abs(gaps) + 1e-12
            k = 0 if ga.deformable else 1
            worst[0, k] = max(worst[0, k], collision.penetration(gaps))
            worst[1, k] = max(worst[1, k], collision.penetration(gaps[face]))
    return worst


@functools.cache
def recorded_run(scene, steps):
    """Per step of the scene as shipped: (3 x its pair count, the rank of S
    with every dynamic object's block stacked column-wise, the both-ways
    penetration of the committed state)."""
    sim = Simulation(load_scene(SCENES / scene))
    records = []
    for _ in range(steps):
        ctx = sim.prepare_step().ctx
        S = sp.hstack([ctx.S_by_object[obj.oid] for obj in sim.dynamic_objects]).toarray()
        sigma = np.linalg.svd(S, compute_uv=False)
        rank = int((sigma > 1e-9 * sigma.max(initial=0.0)).sum())
        sim.step()
        records.append((3 * len(ctx.pairs), rank, both_ways_penetration(sim)))
    return records


class TestOneConstraintPerFeature:
    @pytest.mark.parametrize("scene, steps", [("grasp_rotate.scn", 63),
                                              ("two_body_press.scn", 20),
                                              ("block_on_plane.scn", 20),
                                              ("point_mass.scn", 20)])
    def test_stacked_mapping_has_full_rank(self, scene, steps):
        # duplicated rows (a plate corner paired against the cube as well as
        # the cube's vertices against the plate) left S rank-deficient on 46
        # of 63 grasp_rotate steps, and PGS stalled on the singular W
        records = recorded_run(scene, steps)
        assert [(step, rank) for step, (rows, rank, _) in enumerate(records)
                if rank != rows] == []
        assert sum(rows for rows, _, _ in records) > 0

    def test_vertex_query_on_a_posed_mesh_reads_its_vertices(self):
        # detect never queries a kinematic mesh's vertices, but the query must
        # still give rows that read back as the vertices, not the pose origin
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        plate = np.array([[[-1.0, 0, -1], [1, 0, 1], [1, 0, -1]],
                          [[-1.0, 0, -1], [-1, 0, 1], [1, 0, 1]]])
        P = np.array([[0.1, -0.005, 0.2], [-0.3, 0.004, 0.1], [0.2, 3.0, -0.4]])
        kinematic = replace(cloud_geometry(P, object_id=0), deformable=False, pose=pose)
        soft = soup_geometry(plate, object_id=1)
        pairs = collision._vertex_vs_meshes(kinematic, [soft], threshold=0.01)[0]
        assert pairs.vertex_id.tolist() == [0, 1]
        views = {0: pose, 1: soft.points}
        p_a, _ = refresh_proximity(pairs, views)
        np.testing.assert_allclose(p_a, P[:2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(collision.signed_gaps(pairs, views),
                                   pairs.signed_distance, rtol=0, atol=1e-15)

    def test_unpaired_vertices_sink_no_deeper(self):
        # the plate's vertices are no longer constrained against the cube; over
        # the same 63 steps under PGS the two-way rule read 1.11e-2 m (soft
        # vertices) and 6.56e-2 m (plate vertices), and neither kind may get
        # deeper behind a face. Read below element planes, the converged
        # contact solve's trajectory goes deeper: the cube slips further out of
        # its grip, and its vertices 2-4 cm past a plate's open edge, and the
        # plate corners 1-9 cm outside it (winding number 0), read as deep
        # (ROADMAP item 7). So did PGS run to 1e-13 on the one-way rule, at
        # 1.50e-2 and 8.06e-2 m
        readings = np.array([pen for _, _, pen in recorded_run("grasp_rotate.scn", 63)])
        soft, plate = readings[:, 1].max(axis=0)
        assert soft <= 1.11e-2
        assert plate <= 6.56e-2
        assert (readings[:, 0, 1] > 0).any()  # the plate's vertices are read
