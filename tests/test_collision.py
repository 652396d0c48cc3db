from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactnewton import collision, solver
from contactnewton.collision import (
    _MAX_TILT_COS,
    _T1_FALLBACK,
    _T1_REFERENCE,
    _TIE_EPS,
    COINCIDENT_EPS,
    AttachKind,
    Attachment,
    MeshGeometry,
    PlaneGeometry,
    Pose,
    ProximityPair,
    SphereGeometry,
    _mesh_attachment,
    build_frames,
    closest_points_on_triangles,
    detect,
    max_frame_rotation,
    refresh_proximity,
    relinearize,
    triangle_normals,
)
from contactnewton.constraints import build_signed_mapping
from contactnewton.errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    InvalidAttachmentError,
)
from contactnewton.mesh import box_mesh, surface_triangles, surface_vertices
from contactnewton.scene import Simulation, load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


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
        [frame] = build_frames([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame[0], [0, 1, 0])

    def test_coincident_falls_back_to_element_normal(self):
        [frame] = build_frames([self._pair((0.2, 0.0, 0.1), (0.2, 0.0, 0.1))])
        assert np.allclose(frame[0], [0, 1, 0])

    def test_penetrating_pair_keeps_separation_direction(self):
        [frame] = build_frames([self._pair((0.0, -0.01, 0.0), (0.0, 0.0, 0.0))])
        assert np.allclose(frame[0], [0, 1, 0])  # flipped toward the reference

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
        n, t1, t2 = frame
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-9
        # right-handed
        assert np.cross(n, t1) @ t2 == pytest.approx(1.0, abs=1e-9)

    def test_tangent_fallback_axis(self):
        [frame] = build_frames([self._pair((0.01, 0.0, 0.0), (0, 0, 0), ref=(1, 0, 0))])
        n, t1, _ = frame
        assert abs(n @ t1) <= 1e-12
        assert np.allclose(t1, [0, 0, 1])  # x is parallel to n, fall back to z

    def test_relinearize_fixed_point(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
        again = relinearize(np.array([[0.0, 0.01, 0.0]]), frames)
        assert np.array_equal(again[0, 0], frames[0, 0])
        assert np.array_equal(again[0, 1], frames[0, 1])

    def test_relinearize_rotation_oracle(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
        ang = np.deg2rad(10)
        p_new = 0.01 * np.array([[np.sin(ang), np.cos(ang), 0.0]])
        new = relinearize(p_new, frames)
        assert max_frame_rotation(frames, new) == pytest.approx(ang, abs=1e-12)
        F = new[0]
        assert np.abs(F @ F.T - np.eye(3)).max() <= 1e-9

    def test_rotation_of_unequal_frame_lists_raises(self):
        frames = build_frames([self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))] * 2)
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames, frames[:1])
        with pytest.raises(DimensionMismatchError):
            max_frame_rotation(frames[:1], frames)

    def test_relinearize_collapse_keeps_previous(self):
        pairs = [self._pair((0.0, 0.01, 0.0), (0.0, 0.0, 0.0))]
        frames = build_frames(pairs)
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
            [f0] = build_frames([pair])
            eps = rng.standard_normal(3)
            eps *= 1e-8 / np.linalg.norm(eps)
            [f1] = relinearize((d + eps)[None], f0[None])
            assert np.linalg.norm(f1[0] - f0[0]) <= 1e-6


# --- reference narrow phase ---------------------------------------------------
# The per-vertex narrow phase that the batched one replaced, kept verbatim as
# the oracle: the batched query must reproduce every pair bit for bit.


def closest_points_reference(tris: np.ndarray, p: np.ndarray):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 != d3, d1 / (d1 - d3), 0.0)
        w_ac = np.where(d2 != d6, d2 / (d2 - d6), 0.0)
        den_bc = (d4 - d3) + (d5 - d6)
        w_bc = np.where(den_bc != 0, (d4 - d3) / den_bc, 0.0)
        den = va + vb + vc
        v_in = np.where(den != 0, vb / den, 1.0 / 3.0)
        w_in = np.where(den != 0, vc / den, 1.0 / 3.0)

    conds = [
        (d1 <= 0) & (d2 <= 0),  # vertex a
        (d3 >= 0) & (d4 <= d3),  # vertex b
        (vc <= 0) & (d1 >= 0) & (d3 <= 0),  # edge ab
        (d6 >= 0) & (d5 <= d6),  # vertex c
        (vb <= 0) & (d2 >= 0) & (d6 <= 0),  # edge ac
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),  # edge bc
    ]
    v_candidates = [0.0 * d1, 1.0 + 0.0 * d1, v_ab, 0.0 * d1, 0.0 * d1, 1.0 - w_bc]
    w_candidates = [0.0 * d1, 0.0 * d1, 0.0 * d1, 1.0 + 0.0 * d1, w_ac, w_bc]
    v = np.select(conds, v_candidates, default=v_in)
    w = np.select(conds, w_candidates, default=w_in)
    u = 1.0 - v - w
    points = a + v[:, None] * ab + w[:, None] * ac
    bary = np.column_stack([u, v, w])
    return points, bary


def vertex_vs_mesh_reference(geom_a: MeshGeometry, geom_b: MeshGeometry, threshold: float):
    pairs = []
    tri_pts = geom_b.points[geom_b.triangles]
    normals = triangle_normals(tri_pts)
    for vid in geom_a.vertex_ids:
        p = geom_a.points[vid]
        cps, bary = closest_points_reference(tri_pts, p)
        diff = p - cps
        dist = np.linalg.norm(diff, axis=1)
        side = np.einsum("ij,ij->i", diff, normals)
        signed = np.where(side >= 0, dist, -dist)
        best = int(np.flatnonzero(dist <= dist.min() + _TIE_EPS).min())
        if signed[best] > threshold:
            continue
        attach_a = _mesh_attachment(geom_a, vertex=vid, point=p)
        attach_b = _mesh_attachment(
            geom_b,
            triangle=geom_b.triangles[best],
            bary=bary[best],
            point=cps[best],
            normal=normals[best],
        )
        pairs.append(
            ProximityPair(
                object_a=geom_a.object_id,
                object_b=geom_b.object_id,
                attach_a=attach_a,
                attach_b=attach_b,
                p_a=p.copy(),
                p_b=cps[best].copy(),
                ref_normal=normals[best].copy(),
                signed_distance=float(signed[best]),
                vertex_id=int(vid),
                element_id=int(best),
            )
        )
    return pairs


def vertex_vs_plane_reference(geom: MeshGeometry, plane: PlaneGeometry, threshold: float):
    pairs = []
    n = plane.normal
    for vid in geom.vertex_ids:
        p = geom.points[vid]
        signed = float(n @ p - plane.offset)
        if signed > threshold:
            continue
        foot = p - signed * n
        pairs.append(
            ProximityPair(
                object_a=geom.object_id,
                object_b=plane.object_id,
                attach_a=_mesh_attachment(geom, vertex=vid, point=p),
                attach_b=Attachment(AttachKind.WORLD, plane.object_id, world_point=foot),
                p_a=p.copy(),
                p_b=foot,
                ref_normal=n.copy(),
                signed_distance=signed,
                vertex_id=int(vid),
                element_id=-1,
            )
        )
    return pairs


def detect_reference(geometries, threshold):
    """``detect`` with the per-vertex narrow phase (same broad phase and order)."""
    with mock.patch.object(collision, "_vertex_vs_mesh", vertex_vs_mesh_reference), \
            mock.patch.object(collision, "_vertex_vs_plane", vertex_vs_plane_reference):
        return detect(geometries, threshold)


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
    assert len(got) == len(expect)
    for i, (x, y) in enumerate(zip(got, expect)):
        assert_bitwise_equal(x, y, f"pair {i}")


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
        dynamic=True,
    )


def soup_geometry(tris, object_id=1, deformable=True, pose=None):
    return MeshGeometry(
        object_id=object_id,
        points=tris.reshape(-1, 3),
        triangles=np.arange(3 * len(tris)).reshape(-1, 3),
        vertex_ids=np.arange(3 * len(tris)),
        deformable=deformable,
        dynamic=deformable,
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
        assert pairs and all(p.element_id < 6 for p in pairs)
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
        assert [p.vertex_id for p in pairs] == [0, 1, 3, 5, 6]
        assert pairs[2].signed_distance == -3.0
        assert pairs[3].signed_distance < -5.0
        assert pairs[4].signed_distance == 0.01
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
        assert detect(geometries, threshold=0.1) == []
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
        assert_same_pairs(blocked, whole)
        # more triangles than entries per block: one vertex per block
        monkeypatch.setattr(collision, "QUERY_ENTRIES", 2)
        assert_same_pairs(detect([cloud, soup], threshold=0.2), whole)

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
        got = build_frames(pairs)
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
                build_frames(pairs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relinearize_random(self, seed):
        rng = np.random.default_rng(seed)
        previous = build_frames(random_pairs(rng, 120))
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
        previous = build_frames([
            self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0)),
            self._pair((-0.01, 0.001, 0.0), (0, 0, 0), (-1, 0, 0)),
        ])
        r = np.array([[0.02, 0.0, 0.0], [-0.02, 0.0, 0.0]])
        check_relinearize(r, previous)
        assert np.array_equal(relinearize(r, previous)[:, 1], [[0, 0, 1], [0, 0, 1.0]])

    def test_relinearize_at_the_tilt_and_tangent_limits(self):
        up = self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0))
        along_x = self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0))
        previous = build_frames([up, up, along_x, along_x, along_x])
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
        axes = build_frames([
            self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0)),
            self._pair((0.01, 0.0, 0.0), (0, 0, 0), (1, 0, 0)),
        ])
        assert max_frame_rotation(axes, axes) == 0.0
        flipped = axes.copy()
        flipped[1] *= -1.0
        assert max_frame_rotation(axes, flipped) == np.pi
        random = build_frames(random_pairs(np.random.default_rng(8), 50))
        for old, new in ((axes, axes), (axes, flipped), (random, random), (random, random[::-1])):
            assert_max_rotation_matches(old, new)

    def test_relinearize_no_pairs(self):
        check_relinearize(np.zeros((0, 3)), np.zeros((0, 3, 3)))
        assert max_frame_rotation(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))) == 0.0

    def test_relinearize_length_mismatch_raises(self):
        frames = build_frames([self._pair((0.0, 0.01, 0.0), (0, 0, 0), (0, 1, 0))] * 2)
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
            self._build(sim.last_pairs)
        assert len(recorded) >= 4
        for r, previous in recorded:
            check_relinearize(r, previous)
            assert_max_rotation_matches(previous, relinearize(r, previous))


def assert_max_rotation_matches(old, new):
    got = max_frame_rotation(old, new)
    expect = max_frame_rotation_reference(frame_list(old), frame_list(new))
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()
