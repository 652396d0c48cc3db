"""Discrete proximity detection, contact frames, geometric mapping Jacobians.

Detection runs once per time step on the current mechanical state. Each
proximity pair freezes its attachments (vertex, barycentric point, rigid
local point or fixed world point) for the whole step; Newton iterations
only re-linearize directions from updated proximity positions.

Frame rule: the normal is the normalized pA - pB, oriented to agree with
the supporting element's outward normal captured at detection (so a
penetrating pair still points along the separation direction); it falls
back to that element normal when the points nearly coincide. Frames are one
(p, 3, 3) array with rows (n, t1, t2) per pair, the blocks of the direction
matrix D; t1 is the x axis projected off n (the z axis where that is nearly
parallel to n). Building, re-linearizing and comparing frames are array
operations over all pairs, and every row is bitwise what a one-pair
computation gives, because the row-wise dot products run the one-pair dot
kernel (:func:`_rowdot`).

Narrow phase: each surface vertex of A is paired with its closest triangle
of B (near-ties go to the lowest triangle id) when its signed distance to
that triangle is at most ``threshold``. The query runs on blocks of vertices
against all of B's triangles at once, at most ``QUERY_ENTRIES`` vertex x
triangle entries per block so memory stays bounded, and each entry uses the
formulas of a one-point query, so the pairs are bitwise those of a query
per vertex. There is no distance cull against B's bounding box: a vertex
behind an open plate or deep inside B has signed distance -dist, which
passes the gate however far away it is, and culling it would change the
pair list. Vertex-vs-plane preselects vertices with one matrix-vector
product and a margin above its rounding error, then computes each
candidate's distance with the per-vertex dot product as before, because the
two round differently on tilted planes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrameError, DimensionMismatchError, InvalidAttachmentError

COINCIDENT_EPS = 1e-9  # m, below this pA - pB carries no direction
_TIE_EPS = 1e-9  # m, distances closer than this count as a tie (id breaks it)
QUERY_ENTRIES = 1 << 18  # vertex x triangle entries per block of a mesh query
_T1_REFERENCE = np.array([1.0, 0.0, 0.0])
_T1_FALLBACK = np.array([0.0, 0.0, 1.0])


@dataclass
class Pose:
    """Rigid placement: x_world = rotation @ x_local + position."""

    rotation: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.position

    def inverse_apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points) - self.position) @ self.rotation

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


class AttachKind(enum.Enum):
    VERTEX = "vertex"  # deformable mesh vertex
    BARYCENTRIC = "barycentric"  # point on a deformable triangle
    RIGID_LOCAL = "rigid_local"  # body-frame point of a 6-DOF rigid body
    LOCAL = "local"  # local-frame point of a kinematic (scripted) object
    WORLD = "world"  # fixed world point (static planes/meshes)


@dataclass
class Attachment:
    kind: AttachKind
    object_id: int
    vertex: int = -1
    triangle: np.ndarray | None = None  # (3,) node ids
    weights: np.ndarray | None = None  # (3,) barycentric
    local_point: np.ndarray | None = None  # rigid/kinematic local coords
    world_point: np.ndarray | None = None  # static attachment
    lever: np.ndarray | None = None  # rigid: world lever arm at detection
    local_normal: np.ndarray | None = None  # kinematic: element normal, local frame


@dataclass
class ProximityPair:
    object_a: int
    object_b: int
    attach_a: Attachment
    attach_b: Attachment
    p_a: np.ndarray
    p_b: np.ndarray
    ref_normal: np.ndarray  # separation direction from B toward A at detection
    signed_distance: float
    vertex_id: int
    element_id: int


# --- geometry descriptors handed over by the scene ---------------------------


@dataclass
class MeshGeometry:
    object_id: int
    points: np.ndarray  # (n, 3) current world positions
    triangles: np.ndarray  # (t, 3) outward-wound surface triangles
    vertex_ids: np.ndarray  # surface vertices participating in detection
    deformable: bool  # True: per-node DOFs; False: scripted/static mesh
    dynamic: bool  # True when the object owns mechanical DOFs
    pose: Pose = field(default_factory=Pose.identity)  # for non-deformable attachments


@dataclass
class PlaneGeometry:
    object_id: int
    normal: np.ndarray  # unit
    offset: float  # plane: normal . x = offset

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(self.normal)
        if norm == 0:
            raise InvalidAttachmentError("plane normal must be nonzero")
        self.normal = self.normal / norm


@dataclass
class SphereGeometry:
    object_id: int
    center: np.ndarray
    radius: float
    pose: Pose  # for body-frame attachment
    dynamic: bool = True


# --- narrow phase -------------------------------------------------------------


def closest_points_on_triangles(tris: np.ndarray, p: np.ndarray):
    """Closest point of ``p`` on each triangle; returns (points, barycentric).

    ``p`` is one point ``(3,)``, giving ``(T, 3)`` results, or a block of
    points ``(V, 3)``, giving ``(V, T, 3)`` results. Vectorized region
    classification (Ericson's method); barycentric weights are nonnegative
    and sum to one. Every entry is computed by the same elementwise formulas,
    so a block query is bitwise equal to one query per point.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    p = np.asarray(p)[..., None, :]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("...j,...j->...", ab, ap)
    d2 = np.einsum("...j,...j->...", ac, ap)
    bp = p - b
    d3 = np.einsum("...j,...j->...", ab, bp)
    d4 = np.einsum("...j,...j->...", ac, bp)
    cp = p - c
    d5 = np.einsum("...j,...j->...", ab, cp)
    d6 = np.einsum("...j,...j->...", ac, cp)
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
    points = a + v[..., None] * ab + w[..., None] * ac
    bary = np.stack([u, v, w], axis=-1)
    return points, bary


def triangle_normals(tris: np.ndarray) -> np.ndarray:
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    lengths = np.linalg.norm(n, axis=1, keepdims=True)
    return np.divide(n, lengths, out=np.zeros_like(n), where=lengths > 0)


def _aabb_overlap(points_a, points_b, margin):
    lo_a, hi_a = points_a.min(axis=0), points_a.max(axis=0)
    lo_b, hi_b = points_b.min(axis=0), points_b.max(axis=0)
    return bool(np.all(lo_a - margin <= hi_b) and np.all(lo_b - margin <= hi_a))


def _mesh_attachment(
    geom: MeshGeometry, vertex=None, triangle=None, bary=None, point=None, normal=None
):
    if geom.deformable:
        if vertex is not None:
            return Attachment(AttachKind.VERTEX, geom.object_id, vertex=int(vertex))
        return Attachment(
            AttachKind.BARYCENTRIC,
            geom.object_id,
            triangle=np.asarray(triangle, dtype=np.int64),
            weights=np.asarray(bary, dtype=np.float64),
        )
    if geom.dynamic:
        raise InvalidAttachmentError("dynamic non-deformable meshes are not supported")
    return Attachment(
        AttachKind.LOCAL,
        geom.object_id,
        local_point=geom.pose.inverse_apply(point),
        local_normal=None if normal is None else geom.pose.rotation.T @ normal,
    )


def _vertex_vs_mesh(geom_a: MeshGeometry, geom_b: MeshGeometry, threshold: float):
    """Best proximity pair for each surface vertex of A against B's triangles."""
    pairs = []
    tri_pts = geom_b.points[geom_b.triangles]
    normals = triangle_normals(tri_pts)
    block = max(1, QUERY_ENTRIES // len(tri_pts))
    for start in range(0, len(geom_a.vertex_ids), block):
        vids = geom_a.vertex_ids[start : start + block]
        P = geom_a.points[vids]
        cps, bary = closest_points_on_triangles(tri_pts, P)
        diff = P[:, None, :] - cps
        dist = np.linalg.norm(diff, axis=-1)
        side = np.einsum("...j,...j->...", diff, normals)
        signed = np.where(side >= 0, dist, -dist)
        # closest feature first (unsigned), then its signed distance gates the
        # pair; near-exact ties go to the lowest triangle id so selection is
        # stable under whole-scene translation
        best = np.argmax(dist <= dist.min(axis=1, keepdims=True) + _TIE_EPS, axis=1)
        rows = np.arange(len(vids))
        keep = signed[rows, best] <= threshold
        rows, best = rows[keep], best[keep]
        cps, bary, signed = cps[rows, best], bary[rows, best], signed[rows, best]
        for i, (vid, tri) in enumerate(zip(vids[rows], best.tolist())):
            p = P[rows[i]]
            attach_a = _mesh_attachment(geom_a, vertex=vid, point=p)
            attach_b = _mesh_attachment(
                geom_b,
                triangle=geom_b.triangles[tri],
                bary=bary[i],
                point=cps[i],
                normal=normals[tri],
            )
            pairs.append(
                ProximityPair(
                    object_a=geom_a.object_id,
                    object_b=geom_b.object_id,
                    attach_a=attach_a,
                    attach_b=attach_b,
                    p_a=p.copy(),
                    p_b=cps[i].copy(),
                    ref_normal=normals[tri].copy(),
                    signed_distance=float(signed[i]),
                    vertex_id=int(vid),
                    element_id=tri,
                )
            )
    return pairs


def _vertex_vs_plane(geom: MeshGeometry, plane: PlaneGeometry, threshold: float):
    pairs = []
    n = plane.normal
    P = geom.points[geom.vertex_ids]
    # A gemv rounds differently from the per-vertex dot product that sets the
    # reported distance, so it only preselects vertices. Either value is within
    # about 4u (|p| . |n| + |offset|) of the exact one (u = 2^-53), far inside
    # the margin; each candidate's distance is then computed as before.
    margin = 1e-12 * (np.abs(P) @ np.abs(n) + abs(plane.offset))
    near = P @ n - plane.offset <= threshold + margin
    for vid in geom.vertex_ids[near]:
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


def _sphere_vs_plane(sph: SphereGeometry, plane: PlaneGeometry, threshold: float):
    n = plane.normal
    center_dist = float(n @ sph.center - plane.offset)
    signed = center_dist - sph.radius
    if signed > threshold:
        return []
    surface = sph.center - sph.radius * n
    foot = sph.center - center_dist * n
    attach = Attachment(
        AttachKind.RIGID_LOCAL,
        sph.object_id,
        local_point=sph.pose.inverse_apply(surface),
        lever=surface - sph.center,
    )
    return [
        ProximityPair(
            object_a=sph.object_id,
            object_b=plane.object_id,
            attach_a=attach,
            attach_b=Attachment(AttachKind.WORLD, plane.object_id, world_point=foot),
            p_a=surface,
            p_b=foot,
            ref_normal=n.copy(),
            signed_distance=signed,
            vertex_id=0,
            element_id=-1,
        )
    ]


def detect(geometries, threshold: float) -> list[ProximityPair]:
    """All proximity pairs with signed distance <= threshold, in canonical order."""
    if threshold <= 0:
        raise InvalidAttachmentError(f"threshold must be positive, got {threshold}")
    meshes = [g for g in geometries if isinstance(g, MeshGeometry)]
    planes = [g for g in geometries if isinstance(g, PlaneGeometry)]
    spheres = [g for g in geometries if isinstance(g, SphereGeometry)]
    pairs: list[ProximityPair] = []
    for ga in meshes:
        for gb in meshes:
            if ga.object_id == gb.object_id or not (ga.dynamic or gb.dynamic):
                continue
            if len(gb.triangles) == 0:
                continue
            if not _aabb_overlap(ga.points, gb.points, threshold):
                continue
            pairs.extend(_vertex_vs_mesh(ga, gb, threshold))
        for plane in planes:
            if ga.dynamic:
                pairs.extend(_vertex_vs_plane(ga, plane, threshold))
    for sph in spheres:
        for plane in planes:
            if sph.dynamic:
                pairs.extend(_sphere_vs_plane(sph, plane, threshold))
    pairs.sort(key=lambda p: (p.object_a, p.object_b, p.vertex_id, p.element_id))
    return pairs


# --- contact frames -----------------------------------------------------------


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (p, 3) arrays.

    A stacked (1, 3) @ (3, 1) product runs, row by row, the dot kernel of a
    one-row ``a[i] @ b[i]``, so each entry is bitwise the per-pair value; an
    einsum or ``(a * b).sum(axis=1)`` rounds differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _frames_from_normals(n: np.ndarray) -> np.ndarray:
    """Frames (p, 3, 3) with rows (n, t1, t2) for unit normals n (p, 3)."""
    # e_x . n is n_x exactly, and likewise e_z . n is n_z
    t1 = _T1_REFERENCE - n[:, :1] * n
    short = np.sqrt(_rowdot(t1, t1)) < 1e-6
    t1[short] = _T1_FALLBACK - n[short, 2:] * n[short]
    t1 = t1 / np.sqrt(_rowdot(t1, t1))[:, None]
    return np.stack([n, t1, np.cross(n, t1)], axis=1)


def build_frames(pairs) -> np.ndarray:
    """Detection-time frames (p, 3, 3): normal from pA - pB, element normal as fallback."""
    if not pairs:
        return np.zeros((0, 3, 3))
    d = np.array([p.p_a for p in pairs]) - np.array([p.p_b for p in pairs])
    ref = np.array([p.ref_normal for p in pairs], dtype=np.float64)
    norm = np.sqrt(_rowdot(d, d))
    ref_norm = np.sqrt(_rowdot(ref, ref))
    apart = norm > COINCIDENT_EPS
    if not (apart | (ref_norm > 0.5)).all():
        raise DegenerateFrameError("coincident proximity points and no element normal")
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.where(apart[:, None], d / norm[:, None], ref / ref_norm[:, None])
    n = np.where((apart & (_rowdot(n, ref) < 0))[:, None], -n, n)
    return _frames_from_normals(n)


_MAX_TILT_COS = 0.5  # 60 degrees per re-linearization


def relinearize(r: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Frames (p, 3, 3) re-evaluated on updated relative proximity positions r = pA - pB.

    Attachments are untouched. A pair keeps its previous frame when its row
    of r carries no usable direction: points that have (nearly)
    collapsed, or a direction that jumped implausibly far from the previous
    normal in one iteration, which happens when tangential slip drags pA
    past pB and the difference vector stops tracking the contact geometry.
    """
    if len(r) != len(previous):
        raise DimensionMismatchError(f"{len(r)} proximity rows but {len(previous)} frames")
    norm = np.sqrt(_rowdot(r, r))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = r / norm[:, None]
    cos = _rowdot(n, previous[:, 0])
    n = np.where((cos < 0)[:, None], -n, n)  # after the flip n . n_old is |cos|
    moved = (norm > COINCIDENT_EPS) & ~(np.abs(cos) < _MAX_TILT_COS)
    frames = previous.copy()
    frames[moved] = _frames_from_normals(n[moved])
    return frames


def max_frame_rotation(old: np.ndarray, new: np.ndarray) -> float:
    """Largest angle between corresponding normals, radians."""
    if len(old) != len(new):
        raise DimensionMismatchError(f"{len(old)} old frames but {len(new)} new frames")
    cos = np.clip(_rowdot(old[:, 0], new[:, 0]), -1.0, 1.0)
    return float(np.arccos(cos).max(initial=0.0))


# --- geometric mapping --------------------------------------------------------


def _skew(r: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -r[2], r[1]],
            [r[2], 0.0, -r[0]],
            [-r[1], r[0], 0.0],
        ]
    )


def attachment_triplets(attachment: Attachment, n_dofs: int, row0: int):
    """COO triplets of the 3 x n_dofs velocity map of one attachment."""
    rows, cols, vals = [], [], []
    if attachment.kind == AttachKind.VERTEX:
        if not 0 <= 3 * attachment.vertex + 2 < n_dofs:
            raise InvalidAttachmentError(f"vertex {attachment.vertex} out of range")
        for i in range(3):
            rows.append(row0 + i)
            cols.append(3 * attachment.vertex + i)
            vals.append(1.0)
    elif attachment.kind == AttachKind.BARYCENTRIC:
        for node, w in zip(attachment.triangle, attachment.weights):
            if not 0 <= 3 * node + 2 < n_dofs:
                raise InvalidAttachmentError(f"triangle node {node} out of range")
            for i in range(3):
                rows.append(row0 + i)
                cols.append(3 * int(node) + i)
                vals.append(float(w))
    elif attachment.kind == AttachKind.RIGID_LOCAL:
        if n_dofs != 6:
            raise InvalidAttachmentError("rigid attachment on a non-rigid object")
        block = np.hstack([np.eye(3), -_skew(attachment.lever)])
        for i in range(3):
            for j in range(6):
                if block[i, j] != 0.0:
                    rows.append(row0 + i)
                    cols.append(j)
                    vals.append(block[i, j])
    else:
        raise InvalidAttachmentError(
            f"attachment kind {attachment.kind} carries no DOFs"
        )
    return rows, cols, vals


def attachment_point(attachment: Attachment, view) -> np.ndarray:
    """World position of an attachment under a position view.

    ``view`` is an (n, 3) node array for deformable objects, a :class:`Pose`
    for rigid/kinematic objects, and ignored for world-fixed attachments.
    """
    if attachment.kind == AttachKind.VERTEX:
        return np.asarray(view)[attachment.vertex]
    if attachment.kind == AttachKind.BARYCENTRIC:
        nodes = np.asarray(view)[attachment.triangle]
        return attachment.weights @ nodes
    if attachment.kind in (AttachKind.RIGID_LOCAL, AttachKind.LOCAL):
        return view.apply(attachment.local_point)
    return attachment.world_point


def refresh_proximity(pairs, views: dict) -> tuple[np.ndarray, np.ndarray]:
    """Proximity positions of both sides under per-object position views."""
    p_a = np.empty((len(pairs), 3))
    p_b = np.empty((len(pairs), 3))
    for i, pair in enumerate(pairs):
        p_a[i] = attachment_point(pair.attach_a, views.get(pair.attach_a.object_id))
        p_b[i] = attachment_point(pair.attach_b, views.get(pair.attach_b.object_id))
    return p_a, p_b


def _element_normal(pair, views) -> np.ndarray:
    """Current outward normal of the pair's supporting element (the B side)."""
    b = pair.attach_b
    if b.kind == AttachKind.BARYCENTRIC:
        nodes = np.asarray(views.get(b.object_id))[b.triangle]
        n = np.cross(nodes[1] - nodes[0], nodes[2] - nodes[0])
        norm = np.linalg.norm(n)
        if norm > 0:
            return n / norm
    elif b.kind == AttachKind.LOCAL and b.local_normal is not None:
        return views.get(b.object_id).rotation @ b.local_normal
    return pair.ref_normal  # static planes/meshes: frozen normal is exact


def signed_gaps(pairs, views: dict) -> np.ndarray:
    """Geometric gap of every pair: distance of the A point above the current
    supporting element plane, negative when interpenetrating.

    Unlike the frame-projected violation this is immune to tangential slip,
    so it is the honest end-of-step interpenetration measure.
    """
    p_a, p_b = refresh_proximity(pairs, views)
    gaps = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        gaps[i] = _element_normal(pair, views) @ (p_a[i] - p_b[i])
    return gaps
