"""Discrete proximity detection, contact frames, proximity positions.

Detection runs once per time step on the current mechanical state and
returns one :class:`Contacts`, a struct of arrays with one row per proximity
pair in canonical order. Each side of a pair is frozen for the whole step in
one of two forms, the one its object's view takes:

  node-weighted  a deformable body (view: its (n, 3) node array); the point
                 is weights @ nodes, a vertex being nodes (v, v, v) with
                 weights (1, 0, 0) and a point on a triangle its barycentric
                 weights;
  posed          a rigid sphere, a kinematic or static mesh, or a plane
                 (view: a :class:`Pose`); the point is the pose applied to a
                 local point. A plane's view is the identity pose, so its
                 foot point is its own local point.

Newton iterations never re-pair: each move evaluates one
:class:`Proximity` record of the frozen pairs (:func:`proximity`, the one
evaluation, which :func:`signed_gaps` reads too): r = pA - pB, the unit
normals of the supporting elements (:func:`element_normals`) and the
signed gaps, all from one set of views of every object.
:func:`refresh_proximity` and :func:`element_normals` loop over the
objects, not the pairs: the rows of one object, grouped once per side
(:attr:`Side.groups`), are read in one batched product, whose rows are
bitwise the one-pair products (:func:`_rowmat`).
The product accumulates into a zeroed output, so a vertex or plane foot
coordinate that is exactly -0.0 reads as +0.0.

Frame rule: at detection the normal is the normalized pA - pB, oriented to
agree with the supporting element's outward normal captured at detection
(so a penetrating pair still points along the separation direction); it
falls back to that element normal when the points nearly coincide. Each
later Newton iteration takes the supporting element's normal at the moved
state as it is, never flipped to agree with the previous frame. Frames are
one (p, 3, 3) array with rows (n, t1, t2) per pair, the blocks of the
direction matrix D; t1 is the x axis projected off n (the z axis where that
is nearly parallel to n), built by :func:`relinearize` for both rules.
Building and comparing frames are array operations over all pairs, and
every row is bitwise what a one-pair computation gives, because the
row-wise dot products run the one-pair dot kernel (:func:`_rowdot`).

Narrow phase: each surface vertex of a deformable mesh A is paired with
every plane and with its closest triangle of every other mesh B (near-ties
go to the lowest triangle id) when its signed distance is at most
``threshold``. Only vertices that carry DOFs are paired, so each contact
feature gives one independent constraint. Two soft meshes are paired both
ways, but a kinematic or static mesh's vertices are never paired: pairing a
plate corner against a soft body's triangle as well as the soft vertices
against the plate duplicated rows of S, left W singular and stalled PGS. So
a vertex of a non-deformable mesh that enters a soft body is not
constrained. A pinned vertex of a soft body carries no DOFs either: the
scene leaves it out of the mesh's ``vertex_ids``, so it is never paired and
every A side gives W a positive-definite diagonal block. The mesh query
runs on blocks of A's vertices against the triangles of every B whose box
overlaps A's at once, at most ``QUERY_ENTRIES`` vertex x triangle entries
per block so memory stays bounded, and each entry uses the formulas of a
one-point query, so the pairs are bitwise those of a query per vertex and
per B.
There is no distance cull against B's bounding box: a vertex behind an open
plate or deep inside B has signed distance -dist, which passes the gate
however far away it is, and culling it would change the pair list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (DegenerateFrameError, DimensionMismatchError, InvalidAttachmentError,
                     NonFiniteStateError)

COINCIDENT_EPS = 1e-9  # m, below this pA - pB carries no direction
_TIE_EPS = 1e-9  # m, distances closer than this count as a tie (id breaks it)
QUERY_ENTRIES = 1 << 18  # vertex x triangle entries per block of a mesh query
_T1_REFERENCE = np.array([1.0, 0.0, 0.0])
_T1_FALLBACK = np.array([0.0, 0.0, 1.0])
_VERTEX_WEIGHTS = np.array([1.0, 0.0, 0.0])


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


@dataclass
class Side:
    """One side (A or B) of every pair, one row per pair.

    A node-weighted row reads ``nodes`` and ``weights``; a posed row reads
    ``local`` and has node ids (-1, -1, -1), which is how the mapping tells
    a rigid side from a deformable one. The rows of each object are grouped
    once, on first use (:attr:`groups`); a side is not edited after
    detection, and :func:`_take` and :func:`_concat` build new sides, which
    group their own rows.
    """

    object_id: np.ndarray  # (p,) int64
    point: np.ndarray  # (p, 3) world position at detection
    nodes: np.ndarray  # (p, 3) int64 node ids
    weights: np.ndarray  # (p, 3)
    local: np.ndarray  # (p, 3) point in the object's frame
    lever: np.ndarray  # (p, 3) rigid side: world lever arm surface - center at detection

    @cached_property
    def groups(self) -> tuple:
        """``(object id, rows)`` for each object on this side, ids ascending."""
        ids = self.object_id
        return tuple((oid, np.flatnonzero(ids == oid)) for oid in np.unique(ids).tolist())


@dataclass
class Contacts:
    """All proximity pairs of a step as arrays, one row per pair."""

    a: Side
    b: Side
    ref_normal: np.ndarray  # (p, 3) separation direction from B toward A at detection
    local_normal: np.ndarray  # (p, 3) posed B side: its element normal in B's frame
    signed_distance: np.ndarray  # (p,)
    vertex_id: np.ndarray  # (p,) int64
    element_id: np.ndarray  # (p,) int64, -1 for planes

    def __len__(self) -> int:
        return len(self.signed_distance)

    @staticmethod
    def empty() -> "Contacts":
        none = np.zeros((0, 3))
        return _contacts(_side(-1, none), _side(-1, none), none, np.zeros(0), [], -1)


def _side(object_id, point, nodes=None, weights=None, local=None, lever=None) -> Side:
    """Side rows of one object; unset arrays default to a posed side's."""
    k = len(point)
    zeros = np.zeros((k, 3))
    return Side(
        np.full(k, object_id, dtype=np.int64),
        point,
        np.full((k, 3), -1, dtype=np.int64) if nodes is None else nodes,
        zeros if weights is None else weights,
        zeros if local is None else local,
        zeros if lever is None else lever,
    )


def _contacts(a, b, ref_normal, signed, vertex_id, element_id, local_normal=None) -> Contacts:
    k = len(signed)
    return Contacts(
        a,
        b,
        np.broadcast_to(ref_normal, (k, 3)).copy(),
        np.zeros((k, 3)) if local_normal is None else np.broadcast_to(local_normal, (k, 3)).copy(),
        np.asarray(signed, dtype=np.float64),
        np.broadcast_to(np.asarray(vertex_id, dtype=np.int64), (k,)).copy(),
        np.broadcast_to(np.asarray(element_id, dtype=np.int64), (k,)).copy(),
    )


def _take(x, rows):
    """Rows ``rows`` of ``x`` (a :class:`Contacts`, a :class:`Side` or an array)."""
    if isinstance(x, np.ndarray):
        return x[rows]
    return type(x)(*(_take(getattr(x, f.name), rows) for f in fields(x)))


def _concat(parts):
    """Row-wise concatenation of Contacts (or Sides, or arrays) of the same layout."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return type(first)(*(_concat([getattr(p, f.name) for p in parts]) for f in fields(first)))


# --- geometry descriptors handed over by the scene ---------------------------


@dataclass
class MeshGeometry:
    object_id: int
    points: np.ndarray  # (n, 3) current world positions
    triangles: np.ndarray  # (t, 3) outward-wound surface triangles
    vertex_ids: np.ndarray  # surface vertices participating in detection
    deformable: bool  # True: per-node DOFs; False: scripted/static mesh, no DOFs
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
    pose: Pose  # for body-frame attachment; a sphere is always a dynamic rigid body


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


def _mesh_side(geom: MeshGeometry, points, nodes, weights) -> Side:
    """Side rows on a mesh: node-weighted on a deformable one, else posed."""
    if geom.deformable:
        return _side(geom.object_id, points, nodes=nodes, weights=weights)
    local = _rowmat(points - geom.pose.position, geom.pose.rotation)
    return _side(geom.object_id, points, local=local)


def _vertex_side(geom: MeshGeometry, vids, points) -> Side:
    """Side rows of a mesh's vertices: node-weighted on a deformable mesh, else posed."""
    nodes = np.repeat(np.asarray(vids, dtype=np.int64)[:, None], 3, axis=1)
    return _mesh_side(geom, points, nodes, np.tile(_VERTEX_WEIGHTS, (len(vids), 1)))


def _vertex_vs_meshes(geom_a: MeshGeometry, meshes, threshold: float) -> list:
    """Best proximity pair for each surface vertex of A against each mesh B
    of ``meshes``: one :class:`Contacts` per B, in their order.

    A's vertices are queried once, in blocks, against all the Bs' triangles
    stacked; each B then picks a vertex's closest triangle among its own
    columns, so its pairs are bitwise those of a query against B alone.
    ``detect`` queries only a deformable A; on a kinematic or static A the
    vertex rows are posed, so they read correctly all the same.
    """
    if not len(geom_a.vertex_ids) or not meshes:
        return [Contacts.empty() for _ in meshes]
    tri_pts = np.concatenate([g.points[g.triangles] for g in meshes])
    normals = triangle_normals(tri_pts)
    ends = np.cumsum([len(g.triangles) for g in meshes])
    columns = [slice(hi - len(g.triangles), hi) for g, hi in zip(meshes, ends)]
    block = max(1, QUERY_ENTRIES // len(tri_pts))
    # per B, per block: (vertex ids, vertex points, triangles, closest, bary, signed)
    found = [[] for _ in meshes]
    for start in range(0, len(geom_a.vertex_ids), block):
        vids = geom_a.vertex_ids[start : start + block]
        P = geom_a.points[vids]
        cps, bary = closest_points_on_triangles(tri_pts, P)
        diff = P[:, None, :] - cps
        dist = np.linalg.norm(diff, axis=-1)
        side = np.einsum("...j,...j->...", diff, normals)
        signed = np.where(side >= 0, dist, -dist)
        for parts, cols in zip(found, columns):
            d = dist[:, cols]
            # closest feature first (unsigned), then its signed distance gates
            # the pair; near-exact ties go to the lowest triangle id so
            # selection is stable under whole-scene translation
            best = np.argmax(d <= d.min(axis=1, keepdims=True) + _TIE_EPS, axis=1)
            at = cols.start + best  # its column among all the Bs' triangles
            rows = np.flatnonzero(signed[np.arange(len(vids)), at] <= threshold)
            best, at = best[rows], at[rows]
            parts.append((vids[rows], P[rows], best, cps[rows, at], bary[rows, at],
                          signed[rows, at]))
    return [_mesh_contacts(geom_a, geom_b, normals[cols], parts)
            for geom_b, cols, parts in zip(meshes, columns, found)]


def _mesh_contacts(geom_a: MeshGeometry, geom_b: MeshGeometry, normals, parts):
    """The pairs one B kept over the blocks of :func:`_vertex_vs_meshes`."""
    vids, P, best, cps, bary, signed = (np.concatenate(x) for x in zip(*parts))
    if not len(vids):
        return Contacts.empty()
    b = _mesh_side(geom_b, cps, geom_b.triangles[best], bary)
    local_normal = None
    if not geom_b.deformable:
        local_normal = _rowmat(normals[best], geom_b.pose.rotation)
    return _contacts(_vertex_side(geom_a, vids, P), b, normals[best], signed, vids, best,
                     local_normal)


def _vertex_vs_plane(geom: MeshGeometry, plane: PlaneGeometry, threshold: float):
    n = plane.normal
    vids = geom.vertex_ids
    P = geom.points[vids]
    signed = (P[:, None, :] @ n)[:, 0] - plane.offset  # not P @ n: a gemv rounds differently
    keep = signed <= threshold
    vids, P, signed = vids[keep], P[keep], signed[keep]
    if not len(vids):
        return Contacts.empty()
    foot = P - signed[:, None] * n
    b = _side(plane.object_id, foot, local=foot)
    return _contacts(_vertex_side(geom, vids, P), b, n, signed, vids, -1, n)


def _sphere_vs_plane(sph: SphereGeometry, plane: PlaneGeometry, threshold: float):
    n = plane.normal
    center_dist = float(n @ sph.center - plane.offset)
    signed = center_dist - sph.radius
    if signed > threshold:
        return Contacts.empty()
    surface = (sph.center - sph.radius * n)[None]
    foot = (sph.center - center_dist * n)[None]
    a = _side(sph.object_id, surface, local=sph.pose.inverse_apply(surface),
              lever=surface - sph.center)
    b = _side(plane.object_id, foot, local=foot)
    return _contacts(a, b, n, [signed], 0, -1, n)


def detect(geometries, threshold: float) -> Contacts:
    """All proximity pairs with signed distance <= threshold, in canonical order."""
    if threshold <= 0:
        raise InvalidAttachmentError(f"threshold must be positive, got {threshold}")
    meshes = [g for g in geometries if isinstance(g, MeshGeometry)]
    planes = [g for g in geometries if isinstance(g, PlaneGeometry)]
    spheres = [g for g in geometries if isinstance(g, SphereGeometry)]
    found = [Contacts.empty()]
    for ga in meshes:
        if not ga.deformable:  # its vertices carry no DOFs to constrain
            continue
        others = [gb for gb in meshes if gb.object_id != ga.object_id and len(gb.triangles)
                  and _aabb_overlap(ga.points, gb.points, threshold)]
        found += _vertex_vs_meshes(ga, others, threshold)
        for plane in planes:
            found.append(_vertex_vs_plane(ga, plane, threshold))
    for sph in spheres:
        for plane in planes:
            found.append(_sphere_vs_plane(sph, plane, threshold))
    contacts = _concat(found)
    # a stable sort, so equal keys keep the order in which they were found
    order = np.lexsort((contacts.element_id, contacts.vertex_id, contacts.b.object_id,
                        contacts.a.object_id))
    return _take(contacts, order)


# --- contact frames -----------------------------------------------------------


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (p, 3) arrays.

    A stacked (1, 3) @ (3, 1) product runs, row by row, the dot kernel of a
    one-row ``a[i] @ b[i]``, so each entry is bitwise the per-pair value; an
    einsum or ``(a * b).sum(axis=1)`` rounds differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rowmat(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x[i] @ M`` for every row of x (k, 3).

    A stacked (1, 3) @ (3, 3) product runs, row by row, the vector-matrix
    kernel of a one-row ``x[i] @ M`` (and of ``M.T @ x[i]``), so each row is
    bitwise the per-pair value; a (k, 3) @ (3, 3) gemm rounds differently.
    """
    return (x[:, None, :] @ M)[:, 0]


def relinearize(n: np.ndarray) -> np.ndarray:
    """Frames (p, 3, 3) with rows (n, t1, t2) for unit normals n (p, 3).

    Detection passes its pA - pB normals (:func:`build_frames`); each later
    Newton iteration passes the supporting elements' normals at the moved
    state (:func:`element_normals`). Each row is written in place; t2 = n x
    t1 takes ``np.cross``'s products and differences component by
    component, so it is bitwise that call.
    """
    frames = np.empty((len(n), 3, 3))
    frames[:, 0] = n
    t1 = frames[:, 1]
    # e_x . n is n_x exactly, and likewise e_z . n is n_z
    np.subtract(_T1_REFERENCE, n[:, :1] * n, out=t1)
    short = np.sqrt(_rowdot(t1, t1)) < 1e-6
    t1[short] = _T1_FALLBACK - n[short, 2:] * n[short]
    t1 /= np.sqrt(_rowdot(t1, t1))[:, None]
    (n0, n1, n2), (b0, b1, b2), (c0, c1, c2) = n.T, t1.T, frames[:, 2].T
    tmp = np.empty(len(n))
    for c, x, y, u, w in ((c0, n1, b2, n2, b1), (c1, n2, b0, n0, b2), (c2, n0, b1, n1, b0)):
        np.multiply(x, y, out=c)
        np.multiply(u, w, out=tmp)
        c -= tmp
    return frames


def build_frames(contacts: Contacts) -> np.ndarray:
    """Detection-time frames (p, 3, 3): normal from pA - pB, element normal as fallback."""
    if not len(contacts):
        return np.zeros((0, 3, 3))
    d = contacts.a.point - contacts.b.point
    ref = contacts.ref_normal
    norm = np.sqrt(_rowdot(d, d))
    ref_norm = np.sqrt(_rowdot(ref, ref))
    apart = norm > COINCIDENT_EPS
    if not (apart | (ref_norm > 0.5)).all():
        raise DegenerateFrameError("coincident proximity points and no element normal")
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.where(apart[:, None], d / norm[:, None], ref / ref_norm[:, None])
    # 0 - n flips every nonzero component as -n does and gives +0 for zeros,
    # so a flipped normal along an axis has the bytes of the element's normal
    n = np.where((apart & (_rowdot(n, ref) < 0))[:, None], 0.0 - n, n)
    return relinearize(n)


def max_frame_rotation(old: np.ndarray, new: np.ndarray) -> float:
    """Largest angle between corresponding normals, radians.

    The angle between unit normals is 2 asin(|n_old - n_new| / 2), which is
    exactly 0 for equal normals and resolves small turns; ``arccos`` of the
    dot product reads about 1.5e-8 rad for a dot one ulp below 1.
    """
    if len(old) != len(new):
        raise DimensionMismatchError(f"{len(old)} old frames but {len(new)} new frames")
    d = old[:, 0] - new[:, 0]
    half_chord = np.minimum(0.5 * np.sqrt(_rowdot(d, d)), 1.0)
    return float(2.0 * np.arcsin(half_chord).max(initial=0.0))


# --- proximity positions -----------------------------------------------------


def _side_points(side: Side, views: dict) -> np.ndarray:
    """Each row's point under ``views``, read in one batch per object, not per pair."""
    points = np.empty((len(side.object_id), 3))
    for oid, rows in side.groups:
        view = views[oid]
        if isinstance(view, Pose):
            points[rows] = _rowmat(side.local[rows], view.rotation.T) + view.position
        else:
            nodes = np.asarray(view)[side.nodes[rows]]
            points[rows] = (side.weights[rows, None, :] @ nodes)[:, 0]
    return points


def refresh_proximity(contacts: Contacts, views: dict) -> tuple[np.ndarray, np.ndarray]:
    """Proximity positions of both sides under per-object position views.

    ``views`` maps every object id to an (n, 3) node array (node-weighted
    sides) or a :class:`Pose` (posed sides).
    """
    return _side_points(contacts.a, views), _side_points(contacts.b, views)


def element_normals(contacts: Contacts, views: dict) -> np.ndarray:
    """Unit outward normal (p, 3) of every pair's supporting element, its B side.

    A posed B side's normal is its detection-time element normal turned by
    B's pose in ``views``; a node-weighted B side takes the normal of its
    triangle's nodes in ``views``, or the detection-time normal if that
    triangle is degenerate. An overflow raises :class:`NonFiniteStateError`.
    """
    out = contacts.ref_normal.copy()
    b = contacts.b
    for oid, rows in b.groups:
        view = views[oid]
        if isinstance(view, Pose):
            out[rows] = _rowmat(contacts.local_normal[rows], view.rotation.T)
            continue
        tri = np.asarray(view)[b.nodes[rows]]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            norm = np.sqrt(_rowdot(n, n))
        if not np.isfinite(norm).all():
            raise NonFiniteStateError(f"object {oid}: a contact triangle's normal overflows")
        ok = norm > 0
        out[rows[ok]] = n[ok] / norm[ok, None]
    return out


@dataclass(frozen=True)
class Proximity:
    """The frozen pairs under one set of views: what a Newton move evaluates."""

    r: np.ndarray  # (p, 3) relative proximity positions pA - pB
    normals: np.ndarray  # (p, 3) the supporting elements' unit normals
    gaps: np.ndarray  # (p,) signed gaps normals . r, negative when interpenetrating


def proximity(contacts: Contacts, views: dict) -> Proximity:
    """The :class:`Proximity` record of ``contacts``, its points, normals and
    gaps all evaluated on ``views`` (as :func:`refresh_proximity` takes them)."""
    normals = element_normals(contacts, views)
    p_a, p_b = refresh_proximity(contacts, views)
    r = p_a - p_b
    return Proximity(r, normals, _rowdot(normals, r))


def penetration(gaps: np.ndarray) -> float:
    """Worst penetration of signed gaps, max(0, -min), and 0.0 without gaps."""
    return float(max(0.0, -gaps.min())) if len(gaps) else 0.0


def signed_gaps(contacts: Contacts, views: dict) -> np.ndarray:
    """Geometric gap of every pair: distance of the A point above the current
    supporting element plane (:func:`element_normals`), negative when
    interpenetrating.

    Unlike the frame-projected violation this is immune to tangential slip,
    so it is the honest end-of-step interpenetration measure.
    """
    return proximity(contacts, views).gaps
