"""Tetrahedral meshes: minimal ASCII file format, box mesher, surface extraction.

File format (whitespace separated, ``#`` comments allowed)::

    nodes <N>
    x y z          # N lines, meters
    tets <M>
    a b c d        # M lines, zero-based node indices, positive volume

"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTetError, ParseError


@dataclass
class TetMesh:
    nodes: np.ndarray  # (n, 3) float64, meters
    tets: np.ndarray  # (m, 4) int64

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64).reshape(-1, 3)
        self.tets = np.asarray(self.tets, dtype=np.int64).reshape(-1, 4)
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= len(self.nodes)):
            raise ParseError("tet indices out of range")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tets(self) -> int:
        return len(self.tets)


# tets per block of tet_volumes: its temporaries stay near 0.5 MB
_TET_BLOCK = 2048


def tet_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes, positive for correctly oriented tets.

    Computed ``_TET_BLOCK`` tets at a time; each volume is the same product
    of its own tet's coordinates, bit for bit, whatever the block.
    """
    vols = np.empty(len(tets))
    for lo in range(0, len(tets), _TET_BLOCK):
        block = tets[lo:lo + _TET_BLOCK]
        a, b, c, d = (nodes[block[:, i]] for i in range(4))
        vols[lo:lo + len(block)] = np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) / 6.0
    return vols


def check_positive_volumes(mesh: TetMesh, where: str = "mesh") -> np.ndarray:
    vols = tet_volumes(mesh.nodes, mesh.tets)
    if vols.size and vols.min() <= 0.0:
        bad = int(np.argmin(vols))
        raise DegenerateTetError(
            f"{where}: tet {bad} has non-positive volume {vols[bad]:.3e}"
        )
    return vols


# Kuhn subdivision of a hexahedral cell into 6 tets sharing the main
# diagonal; corner order (x + 2 y + 4 z bit pattern), all volumes positive.
_KUHN_TETS = (
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
    (0, 5, 1, 7),
)


def box_mesh(size, divisions, center=(0.0, 0.0, 0.0)) -> TetMesh:
    """Structured tet mesh of an axis-aligned box.

    ``divisions`` counts cells per axis; the mesh has ``(nx+1)(ny+1)(nz+1)``
    nodes. Node ordering is x-fastest, deterministic.
    """
    size = np.asarray(size, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    nx, ny, nz = (int(d) for d in divisions)
    if min(nx, ny, nz) < 1 or np.any(size <= 0):
        raise ParseError(f"invalid box mesh: size={size.tolist()}, divisions={divisions}")
    xs = np.linspace(-0.5, 0.5, nx + 1) * size[0] + center[0]
    ys = np.linspace(-0.5, 0.5, ny + 1) * size[1] + center[1]
    zs = np.linspace(-0.5, 0.5, nz + 1) * size[2] + center[2]
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    # cells x-fastest; a cell's corner b sits at its base node plus offset[b]
    sx, sy = 1, nx + 1
    sz = sy * (ny + 1)
    base = (sz * np.arange(nz)[:, None, None] + sy * np.arange(ny)[:, None]
            + sx * np.arange(nx)).ravel()
    bits = np.arange(8)
    offset = sx * (bits & 1) + sy * ((bits >> 1) & 1) + sz * ((bits >> 2) & 1)
    tets = (base[:, None, None] + offset[np.array(_KUHN_TETS)]).reshape(-1, 4)
    mesh = TetMesh(nodes, tets)
    check_positive_volumes(mesh, "box_mesh")
    return mesh


# Faces of tet (a, b, c, d) wound so their normals point outward when the
# tet has positive volume.
_TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))


def surface_triangles(mesh: TetMesh) -> np.ndarray:
    """Oriented boundary triangles (outward normals), sorted deterministically.

    A face is on the boundary when exactly one tet has it; it keeps that
    tet's winding. The rows are in lexicographic order. A face is found by
    the int64 code ``(a n + b) n + c`` of its sorted node ids a <= b <= c,
    n the node count, whose order is the lexicographic one; a mesh of
    2^21 nodes or more, whose codes could overflow, is refused. The sorted
    ids are held as int32 and freed once the codes exist, and a boundary
    face's winding is read back from its tet, so no array of all faces'
    windings is kept.
    """
    n = mesh.n_nodes
    if n >= 2**21:
        raise ParseError(f"surface extraction takes fewer than 2**21 nodes, got {n}")
    # face f is face f % 4 of tet f // 4; both windings of a face sort alike
    keys = mesh.tets.astype(np.int32)[:, _TET_FACES].reshape(-1, 3)
    keys.sort(axis=1)
    codes = (keys[:, 0] * np.int64(n) + keys[:, 1]) * n + keys[:, 2]
    del keys
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes) + 1, dtype=bool)  # where a run of equal codes starts, then the end
    first[1:-1] = codes[1:] != codes[:-1]
    del codes
    starts = np.flatnonzero(first)
    once = order[starts[:-1][np.diff(starts) == 1]]
    tet, face = np.divmod(once, 4)
    boundary = mesh.tets[tet[:, None], np.array(_TET_FACES)[face]]
    return boundary[np.lexsort(boundary.T[::-1])]


def surface_vertices(triangles: np.ndarray) -> np.ndarray:
    return np.unique(triangles.ravel())


def load_mesh(path) -> TetMesh:
    rows = {"nodes": [], "tets": []}
    declared = {}  # the line count each section header gives
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] in rows:
                    section = parts[0]
                    declared[section] = int(parts[1])
                elif section is None:
                    raise ValueError("data before section header")
                elif section == "nodes":
                    rows["nodes"].append([float(v) for v in parts[:3]])
                    if len(parts) != 3:
                        raise ValueError("node line needs 3 coordinates")
                else:
                    rows["tets"].append([int(v) for v in parts[:4]])
                    if len(parts) != 4:
                        raise ValueError("tet line needs 4 indices")
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    for section, count in declared.items():
        if len(rows[section]) != count:
            raise ParseError(
                f"{path}: section '{section}' declares {count} lines, has {len(rows[section])}"
            )
    return TetMesh(
        np.array(rows["nodes"], dtype=np.float64).reshape(-1, 3),
        np.array(rows["tets"], dtype=np.int64).reshape(-1, 4),
    )
