import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contactnewton.errors import ParseError
from contactnewton.mesh import (
    _KUHN_TETS,
    _TET_BLOCK,
    _TET_FACES,
    TetMesh,
    box_mesh,
    load_mesh,
    surface_triangles,
    surface_vertices,
    tet_volumes,
)

UNIT_TET = TetMesh(
    np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]),
    np.array([[0, 1, 2, 3]]),
)


def test_box_mesh_counts_and_volumes():
    m = box_mesh((1.0, 2.0, 3.0), (2, 3, 4))
    assert m.n_nodes == 3 * 4 * 5
    assert m.n_tets == 2 * 3 * 4 * 6
    vols = tet_volumes(m.nodes, m.tets)
    assert vols.min() > 0
    assert abs(vols.sum() - 6.0) <= 1e-12


def test_box_mesh_rejects_bad_divisions():
    with pytest.raises(ParseError):
        box_mesh((1, 1, 1), (0, 1, 1))


def test_surface_of_single_tet_is_all_faces():
    tris = surface_triangles(UNIT_TET)
    assert len(tris) == 4
    assert len(surface_vertices(tris)) == 4
    # outward orientation: normals point away from the centroid
    c = UNIT_TET.nodes.mean(axis=0)
    for tri in tris:
        p = UNIT_TET.nodes[tri]
        n = np.cross(p[1] - p[0], p[2] - p[0])
        assert n @ (p.mean(axis=0) - c) > 0


def test_surface_of_box_excludes_interior():
    m = box_mesh((1, 1, 1), (2, 2, 2))
    tris = surface_triangles(m)
    # 6 faces x 4 cells x 2 triangles
    assert len(tris) == 48
    assert len(surface_vertices(tris)) == 26  # 27 nodes minus the center


# node lines in repr form, so a float parse that rounds would show
NODES = ["0.0 -0.00020000000000000573 0.1", "0.30000000000000004 0.0 0.1", "0.0 0.1 0.1",
         "1e-05 0.0 -0.7071067811865476", "-0.5 0.5 0.5"]
TETS = ["0 1 2 3", "4 2 1 3"]


def mesh_text(nodes=NODES, tets=TETS):
    """A mesh file whose headers declare 5 nodes and 2 tets, whatever lines follow."""
    return "\n".join(["nodes 5  # a comment", *nodes, "", "tets 2", *tets]) + "\n"


def test_mesh_text_loads_exactly(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text(mesh_text())
    m = load_mesh(path)
    assert np.array_equal(m.nodes, [[0.0, -0.00020000000000000573, 0.1],
                                    [0.30000000000000004, 0.0, 0.1], [0.0, 0.1, 0.1],
                                    [1e-05, 0.0, -0.7071067811865476], [-0.5, 0.5, 0.5]])
    assert np.array_equal(m.tets, [[0, 1, 2, 3], [4, 2, 1, 3]])
    assert (m.nodes.dtype, m.tets.dtype) == (np.float64, np.int64)


@pytest.mark.parametrize("section, lines", [
    ("nodes", NODES[:4]), ("nodes", NODES + NODES[:1]), ("tets", TETS[:1]), ("tets", TETS * 2)],
    ids=["nodes-too-few", "nodes-too-many", "tets-too-few", "tets-too-many"])
def test_section_line_count_must_match_its_header(tmp_path, section, lines):
    path = tmp_path / "count.mesh"
    path.write_text(mesh_text(**{section: lines}))
    count = len(NODES) if section == "nodes" else len(TETS)
    message = f"{path}: section '{section}' declares {count} lines, has {len(lines)}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_mesh(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("nodes 1\n0 0\n")
    with pytest.raises(ParseError, match="bad.mesh:2"):
        load_mesh(path)


def test_parse_error_on_stray_data(tmp_path):
    path = tmp_path / "bad2.mesh"
    path.write_text("0 0 0\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_out_of_range_tet_index(tmp_path):
    path = tmp_path / "bad3.mesh"
    path.write_text("nodes 2\n0 0 0\n1 0 0\ntets 1\n0 1 2 3\n")
    with pytest.raises(ParseError):
        load_mesh(path)


# --- the loop versions the array code replaced, kept as oracles -------------------

MESHES = Path(__file__).resolve().parents[1] / "scenes" / "meshes"


def box_tets_loop(divisions):
    nx, ny, nz = divisions

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                corner = [
                    nid(i + (b & 1), j + ((b >> 1) & 1), k + ((b >> 2) & 1))
                    for b in range(8)
                ]
                for t in _KUHN_TETS:
                    tets.append([corner[t[0]], corner[t[1]], corner[t[2]], corner[t[3]]])
    return np.array(tets, dtype=np.int64)


def surface_triangles_loop(mesh):
    faces = {}
    for tet in mesh.tets:
        for fa, fb, fc in _TET_FACES:
            tri = (int(tet[fa]), int(tet[fb]), int(tet[fc]))
            key = tuple(sorted(tri))
            if key in faces:
                faces[key] = None  # interior face, seen twice
            else:
                faces[key] = tri
    boundary = [tri for tri in faces.values() if tri is not None]
    boundary.sort()
    return np.array(boundary, dtype=np.int64).reshape(-1, 3)


# the shipped scenes' boxes (bench_column, grasp_rotate, two_body_press) and a few more
BOX_DIVISIONS = [(7, 46, 7), (5, 5, 5), (4, 4, 4), (1, 1, 1), (1, 1, 3), (3, 1, 2), (2, 5, 1)]


@pytest.mark.parametrize("divisions", BOX_DIVISIONS, ids=lambda d: "x".join(map(str, d)))
def test_box_mesh_and_surface_match_the_loop_versions(divisions):
    m = box_mesh((0.1, 0.2, 0.3), divisions)
    assert np.array_equal(m.tets, box_tets_loop(divisions))
    tris = surface_triangles(m)
    assert tris.dtype == np.int64
    assert np.array_equal(tris, surface_triangles_loop(m))


@pytest.mark.parametrize("name, n_nodes, n_tets", [("block.mesh", 125, 384), ("point.mesh", 1, 0)])
def test_shipped_meshes_load_with_their_declared_counts(name, n_nodes, n_tets):
    m = load_mesh(MESHES / name)
    assert (m.n_nodes, m.n_tets) == (n_nodes, n_tets)


@pytest.mark.parametrize("name", ["block.mesh", "point.mesh"])
def test_surface_of_shipped_meshes_matches_the_loop_version(name):
    m = load_mesh(MESHES / name)
    assert np.array_equal(surface_triangles(m), surface_triangles_loop(m))


def test_surface_matches_the_loop_version_on_non_manifold_tets():
    # random tets over 8 nodes share faces two, three or more times, and some
    # repeat whole; a face is on the boundary only when exactly one tet has it
    rng = np.random.default_rng(3)
    tets = np.array([rng.choice(8, 4, replace=False) for _ in range(40)])
    m = TetMesh(rng.standard_normal((8, 3)), tets)
    for count in (0, 1, 2, 5, 40):
        sub = TetMesh(m.nodes, m.tets[:count])
        assert np.array_equal(surface_triangles(sub), surface_triangles_loop(sub)), count


def test_surface_refuses_a_mesh_whose_face_codes_could_overflow():
    # a face's code (a n + b) n + c fits an int64 for n < 2**21; the nodes are
    # a broadcast view, so the mesh allocates no coordinates
    nodes = np.broadcast_to(np.zeros(3), (2**21, 3))
    m = TetMesh(nodes, UNIT_TET.tets)
    assert m.n_nodes == 2**21
    with pytest.raises(ParseError, match=r"fewer than 2\*\*21 nodes, got 2097152"):
        surface_triangles(m)
    smaller = TetMesh(nodes[1:], UNIT_TET.tets)
    assert len(surface_triangles(smaller)) == 4


def column_mesh():
    """The 7 x 46 x 7 box of bench_column.scn: 3008 nodes, 13524 tets."""
    return box_mesh((0.07, 0.46, 0.07), (7, 46, 7), center=(0.0, 0.2298, 0.0))


def test_blocked_volumes_are_the_whole_products_bytes():
    m = column_mesh()
    assert m.n_tets > 6 * _TET_BLOCK
    a, b, c, d = (m.nodes[m.tets[:, i]] for i in range(4))
    whole = np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) / 6.0
    assert tet_volumes(m.nodes, m.tets).tobytes() == whole.tobytes()


@pytest.mark.parametrize("extract, bound", [
    # int32 faces and keys, the keys freed once the codes exist and the
    # windings read back from the tets: about 1.3 MB (int64 faces and keys
    # held to the end took 4.0 MB)
    pytest.param(surface_triangles, 2.0e6, id="surface_triangles"),
    # _TET_BLOCK tets at a time: about 0.6 MB (3.0 MB all at once)
    pytest.param(lambda m: tet_volumes(m.nodes, m.tets), 1.0e6, id="tet_volumes"),
])
def test_column_extraction_peak_memory(extract, bound):
    # numpy reports its buffers to tracemalloc, so the peak does not depend
    # on the host; each is called at every load of the column
    m = column_mesh()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        extract(m)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= bound
