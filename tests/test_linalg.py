import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import spsolve
from scipy.spatial.transform import Rotation

from contactnewton import linalg
from contactnewton.bench import load_bench_spec
from contactnewton.dynamics import RigidBody, SoftBody
from contactnewton.errors import DimensionMismatchError, NotSPDError
from contactnewton.linalg import Factorization, band_ordering
from contactnewton.mesh import box_mesh
from contactnewton.scene import Simulation, SoftSpec, load_scene, with_box_divisions
from stiffness_reference import system_matrix
from test_tracing_hooks import load_harness

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def random_spd(dim, seed, shift=10.0):
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((dim, dim)))
    return L @ L.T + shift * np.eye(dim)


def dense_gaussian_elimination(A, b):
    """Independent oracle: plain Gaussian elimination with back substitution."""
    A = A.astype(np.float64).copy()
    b = b.astype(np.float64).copy()
    n = len(b)
    for k in range(n):
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k:] -= f * A[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1 :] @ x[i + 1 :]) / A[i, i]
    return x


class TestFactorizeSolve:
    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatchError):
            Factorization(np.ones((2, 3)))

    def test_takes_dense_and_sparse_matrices(self):
        A = random_spd(5, 0)
        b = np.random.default_rng(1).standard_normal(5)
        dense, sparse = Factorization(A), Factorization(sp.csr_matrix(A))
        assert dense.dim == sparse.dim == 5
        assert np.array_equal(dense.solve(b), sparse.solve(b))

    def test_identity(self):
        F = Factorization(sp.eye(3))
        assert np.allclose(F.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        F = Factorization(sp.diags([2.0, 4.0]))
        assert np.allclose(F.solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_zero_rhs(self):
        F = Factorization(sp.eye(4))
        assert np.array_equal(F.solve(np.zeros(4)), np.zeros(4))

    def test_scalar_diag(self):
        F = Factorization(sp.diags([4.0]))
        assert np.allclose(F.solve(np.array([2.0])), [0.5])

    def test_residual_random_spd(self):
        A = random_spd(10, 42)
        F = Factorization(A)
        b = np.random.default_rng(7).standard_normal(10)
        x = F.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_matches_dense_elimination_oracle(self):
        A = random_spd(6, 3)
        b = np.random.default_rng(11).standard_normal(6)
        x = Factorization(A).solve(b)
        assert np.linalg.norm(x - dense_gaussian_elimination(A, b)) <= 1e-10

    def test_not_spd_detected(self):
        A = random_spd(6, 5)
        A[2, 2] = -50.0
        with pytest.raises(NotSPDError):
            Factorization(A)

    def test_singular_detected(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        with pytest.raises(NotSPDError):
            Factorization(A)

    def test_dimension_mismatch(self):
        F = Factorization(sp.eye(3))
        with pytest.raises(DimensionMismatchError):
            F.solve(np.zeros(4))

    def test_deterministic_bit_identical(self):
        A = random_spd(20, 9)
        b = np.random.default_rng(1).standard_normal(20)
        x1 = Factorization(A).solve(b)
        x2 = Factorization(A).solve(b)
        assert np.array_equal(x1, x2)

    def test_solve_count(self):
        F = Factorization(sp.eye(3))
        assert F.solve_count == 0
        F.solve(np.zeros(3))
        F.solve_multi(np.zeros((3, 4)))
        assert F.solve_count == 5


class TestSolveMulti:
    def test_identity_rhs_gives_inverse(self):
        A = random_spd(6, 21)
        F = Factorization(A)
        X = F.solve_multi(np.eye(6))
        for j in range(6):
            assert np.array_equal(X[:, j], Factorization(A).solve(np.eye(6)[:, j]))
        assert np.allclose(A @ X, np.eye(6), atol=1e-10)

    def test_duplicate_columns(self):
        F = Factorization(random_spd(5, 2))
        b = np.random.default_rng(3).standard_normal(5)
        X = F.solve_multi(np.column_stack([b, b]))
        assert np.array_equal(X[:, 0], X[:, 1])

    def test_columnwise_matches_solve(self):
        A = random_spd(10, 17)
        F = Factorization(A)
        B = np.random.default_rng(5).standard_normal((10, 3))
        X = F.solve_multi(B)
        for j in range(3):
            assert np.linalg.norm(X[:, j] - F.solve(B[:, j])) <= 1e-12

    def test_shape_check(self):
        F = Factorization(sp.eye(4))
        with pytest.raises(DimensionMismatchError):
            F.solve_multi(np.zeros((3, 2)))

    def test_residual_property_many_dims(self):
        # ||A F.solve_multi(B) - B||_inf <= 1e-9 ||B||_inf over seeded SPD systems
        for dim in (2, 7, 23, 50):
            A = random_spd(dim, dim)
            F = Factorization(A)
            B = np.random.default_rng(dim + 1).standard_normal((dim, 4))
            X = F.solve_multi(B)
            assert np.abs(A @ X - B).max() <= 1e-9 * np.abs(B).max()



class TestInverseBlock:
    def test_matches_dense_inverse(self):
        A = random_spd(15, 41)
        F = Factorization(A)
        inv = np.linalg.inv(A)
        for dofs in ([3, 0, 11], [14, 3, 7, 0, 9]):
            block = F.inverse_block(dofs)
            oracle = inv[np.ix_(dofs, dofs)]
            assert np.abs(block - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_solves_only_new_columns(self):
        F = Factorization(random_spd(12, 5))
        F.inverse_block([4, 1, 9])
        assert F.solve_count == 3
        first = F.inverse_block([4, 1, 9])
        assert F.solve_count == 3  # a repeated call solves nothing
        block = F.inverse_block([9, 2, 4, 7, 1])
        assert F.solve_count == 5  # only 2 and 7 were new
        assert np.array_equal(block[np.ix_([2, 4, 0], [2, 4, 0])], first)

    def test_rejects_bad_dofs(self):
        F = Factorization(sp.eye(4))
        for dofs in ([0, 4], [-1], [[0, 1]]):
            with pytest.raises(DimensionMismatchError):
                F.inverse_block(dofs)
        assert F.solve_count == 0

    def test_empty_dofs(self):
        F = Factorization(random_spd(6, 3))
        assert F.inverse_block([]).shape == (0, 0)
        assert F.solve_count == 0


def sparse_spd(dim, seed):
    B = sp.random(dim, dim, density=0.05, random_state=seed, format="csr")
    return B @ B.T + 10.0 * sp.eye(dim)


# inverse_block calls, as DOFs of sparse_spd(60, 8) (bw 53), of a diagonal
# (bw 0) and of banded_spd(300, 6, 7) (bw 6), whose fills reach back to ever
# earlier rows
GROWTH = {
    "diagonal": (lambda: sp.diags(np.arange(1.0, 8.0)).tocsr(),
                 lambda F: ([5, 6], [2, 6, 5], [0, 6])),
    "sparse": (lambda: sparse_spd(60, 8),
               lambda F: ([4, 1, 9], [9, 2, 4, 7, 1], [30, 2, 30, 55, 0],
                          [12, 40, 41, 42, 43, 44, 45, 9], list(range(0, 60, 7)))),
    "banded": (lambda: banded_spd(300, 6, 7),
               lambda F: ([297, 290, 299], [150, 299, 151], [5, 297, 0, 5],
                          list(range(1, 300, 37)))),
}


class TestCacheGrowth:
    @pytest.mark.parametrize("system, calls", GROWTH.values(), ids=GROWTH.keys())
    def test_grown_block_matches_the_dense_inverse(self, system, calls):
        A = system()
        F = Factorization(A)
        inv = np.linalg.inv(A.toarray())
        seen = []
        for dofs in calls(F):
            block = F.inverse_block(dofs)
            assert block.flags.c_contiguous
            oracle = inv[np.ix_(dofs, dofs)]
            assert np.abs(block - oracle).max() <= 1e-13 * np.abs(oracle).max()
            seen.append((dofs, block))
            for earlier, kept in seen:  # a growth keeps every cached entry
                assert np.array_equal(F.inverse_block(earlier), kept)
        assert F.solve_count == len(set().union(*map(list, calls(F))))


def chain_spd(n_nodes):
    """Tridiagonal SPD over 3 DOFs per node: 10 on the diagonal, -1 beside it."""
    dim = 3 * n_nodes
    return sp.diags([-np.ones(dim - 1), 10.0 * np.ones(dim), -np.ones(dim - 1)],
                    [-1, 0, 1]).toarray()


def factor_quietly(A):
    """Factorization of A with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return Factorization(A)


class TestSpdCheckNamesDof:
    def test_non_positive_pivot_names_its_dof(self):
        A = chain_spd(4)
        A[7, 7] = -50.0  # node 2, y
        with pytest.raises(NotSPDError, match=r"non-positive pivot at DOF 7 \(node 2, component y\)"):
            factor_quietly(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal_names_its_dof(self, bad):
        A = chain_spd(4)
        A[5, 5] = bad  # node 1, z
        with pytest.raises(NotSPDError, match=r"pivot at DOF 5 \(node 1, component z\)") as exc:
            factor_quietly(A)
        assert exc.value.__cause__ is None and exc.value.__context__ is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_off_diagonal_raises(self, bad):
        A = chain_spd(4)
        A[3, 4] = A[4, 3] = bad
        with pytest.raises(NotSPDError, match=r"pivot at DOF [34] \(node 1, component [xy]\)") as exc:
            factor_quietly(A)
        assert exc.value.__cause__ is None and exc.value.__context__ is None


def soft_system(scene):
    """The system matrix A of the first soft body of a shipped scene."""
    return soft_systems(scene)[0][0]


def relative_error(x, oracle):
    return np.abs(x - oracle).max() / np.abs(oracle).max()


class TestStructures:
    @pytest.mark.parametrize("scene, dofs", [("bench_column.scn", 9024),
                                             ("grasp_rotate.scn", 648)])
    def test_shipped_system_matches_spsolve(self, scene, dofs):
        A = soft_system(scene)
        assert A.shape == (dofs, dofs)
        F = Factorization(A)
        B = np.random.default_rng(dofs).standard_normal((dofs, 2))
        assert relative_error(F.solve(B[:, 0]), spsolve(A.tocsc(), B[:, 0])) <= 1e-12
        X = F.solve_multi(B)
        assert relative_error(X, spsolve(A.tocsc(), B)) <= 1e-12

    def test_two_disconnected_components(self):
        a = sparse_spd(30, 4)
        b = sparse_spd(20, 5)
        mix = np.random.default_rng(6).permutation(50)  # interleave the components
        A = sp.block_diag([a, b]).tocsr()[mix][:, mix]
        rhs = np.random.default_rng(8).standard_normal(50)
        x = Factorization(A).solve(rhs)
        assert relative_error(x, np.linalg.solve(A.toarray(), rhs)) <= 1e-12

    def test_point_mass_diagonal(self):
        A = soft_system("point_mass.scn")
        assert A.shape == (3, 3) and sp.triu(A, 1).nnz == 0  # bandwidth 0
        b = np.array([1.0, -2.0, 3.0])
        assert relative_error(Factorization(A).solve(b), b / A.diagonal()) <= 1e-15

    def test_one_by_one_block(self):  # test_scalar_diag covers solve
        F = Factorization(np.array([[4.0]]))
        assert np.array_equal(F.solve_multi(np.array([[2.0, -8.0]])), [[0.5, -2.0]])

    def test_rigid_full_world_inertia(self):
        body = RigidBody(mass=2.0, inertia=[[3.0, 0.4, -0.2], [0.4, 2.0, 0.1], [-0.2, 0.1, 1.5]])
        rotation = Rotation.from_rotvec([0.3, -0.7, 0.5]).as_matrix()
        A, _ = body.assemble(rotation, 0.01, (0.0, -9.81, 0.0))
        dense = A.toarray()
        assert np.count_nonzero(dense[3:, 3:]) == 9  # a full world inertia block
        b = np.random.default_rng(3).standard_normal(6)
        assert relative_error(Factorization(A).solve(b), np.linalg.solve(dense, b)) <= 1e-12


def bandwidth(F):
    return F._band.shape[0] - 1


def rigid_system(inertia=((3.0, 0.4, -0.2), (0.4, 2.0, 0.1), (-0.2, 0.1, 1.5)),
                 rotvec=(0.3, -0.7, 0.5)):
    body = RigidBody(mass=2.0, inertia=np.array(inertia))
    A, _ = body.assemble(Rotation.from_rotvec(rotvec).as_matrix(), 0.01, (0, 0, 0))
    return A


def unit_solves(F, dofs):
    """solve_multi of the unit vectors of ``dofs``, its rows at ``dofs``."""
    E = np.zeros((F.dim, len(dofs)))
    E[dofs, np.arange(len(dofs))] = 1.0
    return F.solve_multi(E)[dofs]


def assert_fills_are_solves(F, calls):
    """Each ``inverse_block`` call of ``calls`` on a fresh ``F`` against
    solve_multi of the unit vectors of its DOFs, bit for bit. Entry (a, b)
    is b's column at a unless a was first asked for by a later call: the
    block's rows at older columns are the transpose of the newer columns."""
    first = np.full(F.dim, len(calls))  # the call that first asked for each DOF
    for k, dofs in enumerate(map(np.asarray, calls)):
        first[dofs] = np.minimum(first[dofs], k)
        X = unit_solves(F, dofs)
        newer = first[dofs][:, None] > first[dofs]
        assert_bitwise(F.inverse_block(dofs), np.where(newer, X.T, X))


class TestUnitColumnFill:
    """The A^-1 cache fills its new columns by the two passes of a solve of
    their unit vectors, so each entry equals solve bit for bit, also where a
    fill reaches rows before those of the cached DOFs."""

    @pytest.mark.parametrize("scene, dofs, bw", [("bench_column.scn", 9024, 194),
                                                 ("grasp_rotate.scn", 648, 110)])
    def test_shipped_system(self, scene, dofs, bw):
        A, points = soft_systems(scene)[0]
        F = Factorization(A, points=points)  # as the program factors it
        assert (F.dim, bandwidth(F)) == (dofs, bw)
        picks = np.random.default_rng(dofs).choice(dofs, 6, replace=False)
        assert_fills_are_solves(F, [F._perm[[-1, -bw]], [*F._perm[[-3, 0]], *picks],
                                    [dofs - 1, *picks[:3]]])

    # (system, dim, bw): diagonals, a band narrower than the matrix, the band
    # as wide as the matrix, a 2 x 2 system, and the rigid body's full world
    # inertia
    EDGES = {
        "diagonal": (lambda: soft_system("point_mass.scn"), 3, 0),
        "rigid-diagonal": (lambda: rigid_system(np.diag([3.0, 0.5, 1.5]), (0, 0, 0)), 6, 0),
        "short-last-block": (lambda: banded_spd(60, 36, 8), 60, 36),
        "dense": (lambda: random_spd(7, 4), 7, 6),
        "one-row-blocks": (lambda: random_spd(2, 5), 2, 1),
        "rigid": (rigid_system, 6, 2),
    }

    @pytest.mark.parametrize("system, dim, bw", EDGES.values(), ids=EDGES.keys())
    def test_edge_shapes(self, system, dim, bw):
        F = Factorization(system())
        assert (F.dim, bandwidth(F)) == (dim, bw)
        # one column, the last, then every DOF down to the first row
        assert_fills_are_solves(F, [F._perm[-1:], np.arange(dim)])


def soft_systems(scene):
    """(A, rest node positions) of every soft body of a shipped scene, or of
    a loaded scene config."""
    cfg = load_scene(SCENES / scene) if isinstance(scene, str) else scene
    return [(system_matrix(spec.body, cfg.h), spec.body.mesh.nodes)
            for spec in cfg.objects if isinstance(spec, SoftSpec)]


def box_system(divisions):
    body = SoftBody(box_mesh((1.0, 1.0, 1.0), divisions))
    A = system_matrix(body, 0.01)
    return A, body.mesh.nodes


def order_bandwidth(A, perm):
    """The half-bandwidth of A with its DOFs in the order ``perm``."""
    coo = sp.coo_matrix(A)
    at = np.empty_like(perm)
    at[perm] = np.arange(len(perm))
    return int(np.abs(at[coo.row] - at[coo.col]).max(initial=0))


def rcm_bandwidth(A):
    """The half-bandwidth of A in reverse Cuthill-McKee order, the tests'
    reference for the program's sort."""
    csr = sp.csr_matrix(A)
    return order_bandwidth(csr, reverse_cuthill_mckee(csr, symmetric_mode=True))


def sort_bandwidth(A, points):
    """The half-bandwidth of A in the program's order for rest positions ``points``."""
    return order_bandwidth(A, band_ordering(A.shape[0], points))


SHIPPED_SCENES = tuple(sorted(path.name for path in SCENES.glob("*.scn")))


class TestLongAxisOrdering:
    """With the rest node positions, the factorization sorts the nodes along
    the body's longest axis, and that order bands no wider than reverse
    Cuthill-McKee (RCM) on every shipped body and bench resolution."""

    @pytest.mark.parametrize("scene, bws", [("bench_column.scn", [194]),
                                            ("grasp_rotate.scn", [110]),
                                            ("two_body_press.scn", [77, 77]),
                                            ("block_on_plane.scn", [77])])
    def test_production_bands(self, scene, bws):
        cfg = load_scene(SCENES / scene)
        sim = Simulation(cfg)
        factors = [obj.assemble(obj.state, cfg.h, cfg.gravity)[0]
                   for obj in sim.objects if obj.kind == "soft"]
        assert [bandwidth(F) for F in factors] == bws

    @pytest.mark.parametrize("scene", SHIPPED_SCENES)
    def test_never_wider_than_rcm_on_shipped_meshes(self, scene):
        for A, points in soft_systems(scene):
            assert sort_bandwidth(A, points) <= rcm_bandwidth(A)

    def test_never_wider_than_rcm_on_benchmarked_columns(self):
        # every resolution of bench.spec; perfbench's tiny smoke-test column
        # (7 x 6 x 7 over the column's 0.07 x 0.46 x 0.07 m) is the one body
        # where RCM bands narrower: the sort's y layers of 8 x 8 nodes give
        # 194, while RCM, which mixes the layers, reaches 191
        spec = load_bench_spec(SCENES / "bench.spec")
        column = load_scene(spec.scene)
        nx, _, nz = next(s.box_params["divisions"] for s in column.objects
                         if isinstance(s, SoftSpec))

        def bands(divisions):
            [(A, points)] = soft_systems(with_box_divisions(column, divisions))
            return sort_bandwidth(A, points), rcm_bandwidth(A)

        for resolution in spec.resolutions:
            sort, rcm = bands((nx, resolution, nz))
            assert sort <= rcm, resolution
        tiny = {w.tiny_divisions for w in load_harness().WORKLOADS.values()} - {None}
        assert {divisions: bands(divisions) for divisions in tiny} == {(7, 6, 7): (194, 191)}

    @pytest.mark.parametrize("points", [None, "rest"])
    def test_entry_positions_follow_the_chosen_order(self, points):
        # the factor equals dpbtrf of P A P^T's upper band, packed from the
        # dense matrix in the order of band_ordering: the sort, or with no
        # positions the matrix's own order
        A, rest = soft_systems("grasp_rotate.scn")[0]
        points = rest if points else None
        F = Factorization(A, points=points)
        perm = band_ordering(F.dim, points)
        assert np.array_equal(F._perm, perm)
        dense = A.toarray()[np.ix_(perm, perm)]
        bw = order_bandwidth(A, perm)
        assert bandwidth(F) == bw == (131 if points is None else 110)
        band = np.zeros((bw + 1, F.dim), order="F")
        for d in range(bw + 1):  # diagonal d of the upper triangle, right-aligned
            band[bw - d, d:] = np.diagonal(dense, d)
        band, info = dpbtrf(band)
        assert info == 0
        assert_bitwise(F._band, band)

    @pytest.mark.parametrize("divisions, rcm, chosen", [((12, 12, 12), 509, 509),
                                                        ((16, 16, 16), 872, 869)])
    def test_never_wider_than_rcm_on_large_boxes(self, divisions, rcm, chosen):
        A, points = box_system(divisions)
        assert (rcm_bandwidth(A), sort_bandwidth(A, points)) == (rcm, chosen)

    def test_rejects_points_of_another_size(self):
        A, points = soft_systems("grasp_rotate.scn")[0]
        with pytest.raises(DimensionMismatchError):
            Factorization(A, points=points[1:])

    def test_fill_of_the_last_dof_runs_one_forward_solve(self, monkeypatch):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        widths = []
        calls = count_calls(monkeypatch, "dtbtrs", "trans", "N", widths)
        F.inverse_block(F._perm[-1:])
        assert list(zip(calls, widths)) == [("T", bandwidth(F) + 1), ("N", 1)]

    def test_fill_matches_solve_for_early_and_late_dofs(self):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        # the forward pass from the end, then a growth down to the first row
        assert_fills_are_solves(F, [F._perm[[-1, -200]], F._perm[[3000, 0, -1]]])


def column_contact_dofs(points):
    """The DOFs of the column's bottom layer of nodes, which meets the ground."""
    axis = int(np.argmax(np.ptp(points, axis=0)))
    bottom = np.flatnonzero(points[:, axis] == points[:, axis].min())
    return (3 * bottom[:, None] + np.arange(3)).ravel()


def count_calls(monkeypatch, name, key, default, widths=None):
    """Patch ``linalg.<name>`` to record each call's ``key`` keyword (or
    ``default``), and in ``widths``, if given, the column count of its first
    argument, a band's."""
    fn = getattr(linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get(key, default))
        if widths is not None:
            widths.append(args[0].shape[1])
        return fn(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counting)
    return calls


class TestContactBlockFill:
    """The column's contact DOFs are its last 192 permuted positions, so a
    fill of their block covers the last 192 + bw rows only."""

    def test_cold_fill_peak_memory(self):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        J = column_contact_dofs(points)
        assert np.array_equal(np.sort(F._at[J]), np.arange(8832, 9024))
        tracemalloc.start()
        try:
            F.inverse_block(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6  # the whole 192 columns took 14.3 MB

    def test_cold_fill_runs_two_passes_on_the_trailing_rows_only(self, monkeypatch):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        J = column_contact_dofs(points)
        widths = []
        calls = count_calls(monkeypatch, "dtbtrs", "trans", "N", widths)
        block = F.inverse_block(J)
        # of 9024 rows: from bw before the first contact DOF, then from it
        assert list(zip(calls, widths)) == [("T", len(J) + bandwidth(F)), ("N", len(J))]
        assert F.solve_count == len(J)
        assert_bitwise(block, unit_solves(F, J))

    def test_growth_towards_earlier_blocks_matches_solve(self):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        J = column_contact_dofs(points)
        dofs = np.concatenate([J, F._perm[[4000, 0]]])  # down to the first row
        assert_fills_are_solves(F, [J[:96], dofs])
        assert F.solve_count == 96 + 2 * len(dofs)  # the fills', then the references'


def dpbtrs_solve(F, B):
    """A^-1 B by ``dpbtrs`` over the whole band, the reference of every solve."""
    X, info = dpbtrs(F._band, np.asarray(B, dtype=np.float64)[F._perm])
    assert info == 0
    return X[F._at]


def assert_bitwise(x, reference):
    assert x.shape == reference.shape and x.tobytes() == reference.tobytes()


def banded_spd(dim, half, seed):
    """An SPD matrix of half-bandwidth ``half`` in its own order, which a
    factorization given no positions keeps."""
    rng = np.random.default_rng(seed)
    L = np.tril(np.triu(rng.standard_normal((dim, dim)), -half))
    return sp.csr_matrix(L @ L.T + 10.0 * np.eye(dim))


def rhs_with_zero_lead(F, first, rng, columns=()):
    """A right-hand side in DOF order whose permuted rows before ``first`` are zero."""
    B = np.zeros((F.dim, *columns))
    B[first:] = rng.standard_normal(B[first:].shape)
    return B[F._at]


class TestSkipSolve:
    """Every solve is one transposed and one plain dtbtrs pass, the forward
    one skipping the leading zero permuted rows but bw, and equals dpbtrs
    bit for bit."""

    SYSTEMS = {
        "random": (lambda: (banded_spd(300, 12, 3), None)),
        "random-wide": (lambda: (banded_spd(400, 40, 4), None)),
        "column": (lambda: soft_systems("bench_column.scn")[0]),
        "grasp": (lambda: soft_systems("grasp_rotate.scn")[0]),
    }

    @pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS.keys())
    def test_skip_equals_dpbtrs(self, monkeypatch, system):
        A, points = system()
        F = Factorization(A, points=points)
        bw = bandwidth(F)
        calls = count_calls(monkeypatch, "dtbtrs", "trans", "N")
        rng = np.random.default_rng(F.dim)
        firsts = [bw + 1, F.dim - 1, *rng.integers(bw + 1, F.dim, 6)]
        for first in firsts:
            b = rhs_with_zero_lead(F, first, rng)
            b[rng.random(F.dim) < 0.5] = 0.0  # zeros after the first nonzero row too
            b[F._perm[first]] = 1.0
            assert_bitwise(F.solve(b), dpbtrs_solve(F, b))
        B = rhs_with_zero_lead(F, firsts[2], rng, (3,))
        B[F._perm[:-5], 1] = 0.0  # a column that starts later than the block
        assert_bitwise(F.solve_multi(B), dpbtrs_solve(F, B))
        assert calls == ["T", "N"] * (len(firsts) + 1)  # every solve took the skip

    def test_column_correction_rhs(self, monkeypatch):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        calls = count_calls(monkeypatch, "dtbtrs", "trans", "N")
        b = np.zeros(F.dim)
        b[column_contact_dofs(points)] = np.random.default_rng(2).standard_normal(192)
        assert_bitwise(F.solve(b), dpbtrs_solve(F, b))
        assert calls == ["T", "N"]

    def test_multi_rhs_peak_memory(self):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        J = column_contact_dofs(points)
        B = np.zeros((F.dim, len(J)), order="F")  # as the standard scheme's H^T
        B[J, np.arange(len(J))] = 1.0
        tracemalloc.start()
        try:
            F.solve_multi(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * B.nbytes  # the permuted B and the result, as dpbtrs alone

    def test_every_rhs_makes_one_pair_of_passes(self, monkeypatch):
        F = Factorization(banded_spd(300, 12, 5))
        calls = count_calls(monkeypatch, "dtbtrs", "trans", "N")
        rng = np.random.default_rng(6)
        # dense, nonzero from permuted row bw on, a block with one dense column, and zero
        B = [rng.standard_normal(F.dim), rhs_with_zero_lead(F, bandwidth(F), rng),
             np.column_stack([rhs_with_zero_lead(F, 200, rng), rng.standard_normal(F.dim)]),
             np.zeros(F.dim)]
        for b in B:
            calls.clear()
            x = F.solve(b) if b.ndim == 1 else F.solve_multi(b)
            assert_bitwise(x, dpbtrs_solve(F, b))
            assert calls == ["T", "N"]
        y = F.forward(B[0])
        calls.clear()
        F.solve(B[1], y)  # the step's final solve
        assert calls == ["T", "N"]


class TestSplitSolve:
    """``forward`` and ``backward`` are the two passes of ``solve``: the rows
    a backward pass limited to the trailing rows covers are ``solve``'s bit
    for bit, and a right-hand side counts once."""

    SYSTEMS = {
        "column": (lambda: soft_systems("bench_column.scn")[0]),
        "unsorted-cube": (lambda: (box_system((8, 8, 8))[0], None)),
    }

    @pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS.keys())
    def test_trailing_rows_equal_solve(self, system):
        A, points = system()
        F = Factorization(A, points=points)
        n, bw = F.dim, bandwidth(F)
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n)
        skipping = rhs_with_zero_lead(F, n - bw // 2, rng)  # its forward pass skips
        for rhs in (b, skipping):
            x = F.solve(rhs)
            y = F.forward(rhs)
            y0 = y.copy()
            for lo in (0, 1, n - 1, n - 2 * bw, *rng.integers(1, n, 5)):
                dofs = F._perm[[lo, *rng.integers(lo, n, 3)]]  # earliest at position lo
                part = F.backward(y, dofs)[F._perm]
                assert_bitwise(part[lo:], x[F._perm][lo:])
                assert np.isnan(part[:lo]).all()
            assert_bitwise(F.backward(y), x)
            assert_bitwise(y, y0)  # backward leaves y as it was

    def test_no_dofs_solve_no_rows(self):
        F = Factorization(banded_spd(300, 12, 7))
        y = F.forward(np.ones(F.dim))
        assert np.isnan(F.backward(y, np.zeros(0, dtype=np.int64))).all()

    def test_forward_passes_add_up(self):
        F = Factorization(banded_spd(300, 12, 8))
        rng = np.random.default_rng(8)
        b0 = rng.standard_normal(F.dim)
        b1 = rhs_with_zero_lead(F, 250, rng)
        x = F.backward(F.forward(b0) + F.forward(b1))
        assert np.abs(x - F.solve(b0 + b1)).max() <= 1e-13 * np.abs(x).max()
        assert_bitwise(F.solve(b1, F.forward(b0)), x)  # the step's final solve

    def test_a_right_hand_side_counts_once(self):
        F = Factorization(banded_spd(300, 12, 9))
        y = F.forward(np.ones(F.dim))
        assert F.solve_count == 1
        F.backward(y)
        F.backward(y, F._perm[-3:])
        assert F.solve_count == 1
        F.solve(np.ones(F.dim), y)
        assert F.solve_count == 2

    def test_rejects_a_wrong_shape(self):
        F = Factorization(sp.eye(3))
        with pytest.raises(DimensionMismatchError):
            F.forward(np.zeros(4))
