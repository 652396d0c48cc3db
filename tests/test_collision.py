from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactnewton import collision
from contactnewton.collision import (
    _TIE_EPS,
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
