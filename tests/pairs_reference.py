"""Per-pair proximity code that the array version in ``collision`` replaced.

Kept verbatim as the test oracle: one ``ProximityPair`` and two
``Attachment`` objects per pair, with a five-way ``AttachKind`` dispatch.
The narrow phase, proximity positions, geometric gaps and signed mappings of
``collision`` and ``constraints`` must match it bit for bit.
:func:`to_contacts` turns a list of pairs into the arrays ``detect``
returns, so results can be compared field by field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from contactnewton.collision import (
    _TIE_EPS,
    Contacts,
    MeshGeometry,
    PlaneGeometry,
    Side,
    SphereGeometry,
    _aabb_overlap,
    triangle_normals,
)
from contactnewton.errors import InvalidAttachmentError


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


# --- narrow phase ---------------------------------------------------------------


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
    return Attachment(
        AttachKind.LOCAL,
        geom.object_id,
        local_point=geom.pose.inverse_apply(point),
        local_normal=None if normal is None else geom.pose.rotation.T @ normal,
    )


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


def sphere_vs_plane_reference(sph: SphereGeometry, plane: PlaneGeometry, threshold: float):
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


def detect_reference(geometries, threshold: float) -> list[ProximityPair]:
    """All proximity pairs with signed distance <= threshold, in canonical order."""
    if threshold <= 0:
        raise InvalidAttachmentError(f"threshold must be positive, got {threshold}")
    meshes = [g for g in geometries if isinstance(g, MeshGeometry)]
    planes = [g for g in geometries if isinstance(g, PlaneGeometry)]
    spheres = [g for g in geometries if isinstance(g, SphereGeometry)]
    pairs: list[ProximityPair] = []
    for ga in meshes:
        for gb in meshes:
            if ga.object_id == gb.object_id or not ga.deformable:
                continue
            if len(gb.triangles) == 0:
                continue
            if not _aabb_overlap(ga.points, gb.points, threshold):
                continue
            pairs.extend(vertex_vs_mesh_reference(ga, gb, threshold))
        for plane in planes:
            if ga.deformable:
                pairs.extend(vertex_vs_plane_reference(ga, plane, threshold))
    for sph in spheres:
        for plane in planes:
            pairs.extend(sphere_vs_plane_reference(sph, plane, threshold))
    pairs.sort(key=lambda p: (p.object_a, p.object_b, p.vertex_id, p.element_id))
    return pairs


# --- geometric mapping ----------------------------------------------------------


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


def refresh_proximity_reference(pairs, views: dict) -> tuple[np.ndarray, np.ndarray]:
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


def signed_gaps_reference(pairs, views: dict) -> np.ndarray:
    """Geometric gap of every pair: distance of the A point above the current
    supporting element plane, negative when interpenetrating.

    Unlike the frame-projected violation this is immune to tangential slip,
    so it is the honest end-of-step interpenetration measure.
    """
    p_a, p_b = refresh_proximity_reference(pairs, views)
    gaps = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        gaps[i] = _element_normal(pair, views) @ (p_a[i] - p_b[i])
    return gaps


_DOF_KINDS = (AttachKind.VERTEX, AttachKind.BARYCENTRIC, AttachKind.RIGID_LOCAL)


def build_signed_mapping_reference(
    pairs, object_id: int, n_dofs: int, fixed_mask=None
) -> sp.csr_matrix:
    """Signed relative mapping S for one object: +G on A sides, -G on B sides.

    Columns of fixed (Dirichlet) DOFs are zeroed; a constrained node neither
    moves under contact forces nor contributes compliance.
    """
    rows, cols, vals = [], [], []
    for i, pair in enumerate(pairs):
        for attach, sign in ((pair.attach_a, 1.0), (pair.attach_b, -1.0)):
            if attach.object_id != object_id or attach.kind not in _DOF_KINDS:
                continue
            r, c, v = attachment_triplets(attach, n_dofs, 3 * i)
            rows += r
            cols += c
            vals += [sign * x for x in v]
    S = sp.coo_matrix((vals, (rows, cols)), shape=(3 * len(pairs), n_dofs)).tocsr()
    if fixed_mask is not None and fixed_mask.any():
        keep = sp.diags(np.where(fixed_mask, 0.0, 1.0))
        S = S @ keep
    return S


# --- conversion to the array form -------------------------------------------------


def _side_row(att: Attachment):
    """(nodes, weights, local, lever) of one attachment in the two-form layout."""
    zero, posed = np.zeros(3), np.full(3, -1, dtype=np.int64)
    if att.kind == AttachKind.VERTEX:
        return np.full(3, att.vertex, dtype=np.int64), np.array([1.0, 0.0, 0.0]), zero, zero
    if att.kind == AttachKind.BARYCENTRIC:
        return att.triangle, att.weights, zero, zero
    if att.kind == AttachKind.RIGID_LOCAL:
        return posed, zero, att.local_point, att.lever
    if att.kind == AttachKind.LOCAL:
        return posed, zero, att.local_point, zero
    return posed, zero, att.world_point, zero  # a world point is local to the identity pose


def _side(pairs, which) -> Side:
    atts = [getattr(p, f"attach_{which}") for p in pairs]
    nodes, weights, local, lever = zip(*(_side_row(att) for att in atts))
    return Side(
        np.array([att.object_id for att in atts], dtype=np.int64),
        np.array([getattr(p, f"p_{which}") for p in pairs], dtype=np.float64),
        np.array(nodes, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        np.array(local, dtype=np.float64),
        np.array(lever, dtype=np.float64),
    )


def _local_normal(pair) -> np.ndarray:
    b = pair.attach_b
    if b.kind == AttachKind.LOCAL and b.local_normal is not None:
        return b.local_normal
    if b.kind == AttachKind.WORLD:
        return pair.ref_normal  # the identity pose's local normal
    return np.zeros(3)


def to_contacts(pairs) -> Contacts:
    """The pairs in the array layout ``detect`` returns."""
    if not pairs:
        return Contacts.empty()
    return Contacts(
        _side(pairs, "a"),
        _side(pairs, "b"),
        np.array([p.ref_normal for p in pairs], dtype=np.float64),
        np.array([_local_normal(p) for p in pairs], dtype=np.float64),
        np.array([p.signed_distance for p in pairs], dtype=np.float64),
        np.array([p.vertex_id for p in pairs], dtype=np.int64),
        np.array([p.element_id for p in pairs], dtype=np.int64),
    )

