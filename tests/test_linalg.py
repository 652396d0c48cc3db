import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dtrsm
from scipy.sparse.linalg import spsolve
from scipy.spatial.transform import Rotation

from contactnewton import linalg
from contactnewton.dynamics import RigidBody, SoftBody
from contactnewton.errors import DimensionMismatchError, NotSPDError
from contactnewton.linalg import Factorization, band_ordering
from contactnewton.mesh import box_mesh
from contactnewton.scene import Simulation, SoftSpec, load_scene

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


class PerColumnCache:
    """The dict-of-columns cache ``inverse_block`` used before the cache became
    one array, kept as the bitwise oracle of the cache's bookkeeping. It draws
    its columns from the fill the cache runs, the blocked ``_unit_columns``,
    and takes each out of the fill's permuted rows into DOF order."""

    def __init__(self, F: Factorization):
        self.dim = F.dim
        self.unit_columns = F._unit_columns
        self.at = F._at
        self._inverse_columns: dict[int, np.ndarray] = {}

    def inverse_block(self, dofs) -> np.ndarray:
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.ndim != 1 or ((dofs < 0) | (dofs >= self.dim)).any():
            raise DimensionMismatchError(
                f"dofs must be a 1-d list of indices in [0, {self.dim})"
            )
        cache = self._inverse_columns
        new = [d for d in dict.fromkeys(dofs.tolist()) if d not in cache]
        if new:
            X = self.unit_columns(np.array(new))
            for j, d in enumerate(new):
                cache[d] = X[self.at, j]
        block = np.empty((len(dofs), len(dofs)))
        for j, d in enumerate(dofs.tolist()):
            block[:, j] = cache[d][dofs]
        return block


def sparse_spd(dim, seed):
    B = sp.random(dim, dim, density=0.05, random_state=seed, format="csr")
    return B @ B.T + 10.0 * sp.eye(dim)


class TestCacheGrowth:
    CALLS = ([4, 1, 9], [9, 2, 4, 7, 1], [30, 2, 30, 55, 0], [12, 40, 41, 42, 43, 44, 45, 9],
             list(range(0, 60, 7)))

    def test_grown_cache_matches_the_per_column_oracle_bitwise(self):
        A = sparse_spd(60, 8)
        F, oracle = Factorization(A), PerColumnCache(Factorization(A))
        for k, dofs in enumerate(self.CALLS):
            block = F.inverse_block(dofs)
            assert block.flags.c_contiguous
            assert np.array_equal(block, oracle.inverse_block(dofs))
            for earlier in self.CALLS[: k + 1]:  # blocks gathered before the growth
                assert np.array_equal(F.inverse_block(earlier), oracle.inverse_block(earlier))
        assert F.solve_count == len(set().union(*self.CALLS))


class TestInverseColumnsTimes:
    def test_matches_dense_inverse(self):
        A = random_spd(15, 41)
        F = Factorization(A)
        inv = np.linalg.inv(A)
        rng = np.random.default_rng(2)
        for dofs in ([3, 0, 11], [14, 3, 7, 0, 9], [5, 5, 2]):  # a repeated DOF adds up
            x = rng.standard_normal(len(dofs))
            oracle = inv[:, dofs] @ x
            got = F.inverse_columns_times(dofs, x)
            assert got.shape == (15,)
            assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_equals_a_backsolve_of_the_scattered_rhs(self):
        A = random_spd(20, 6)
        F = Factorization(A)
        dofs = np.array([2, 17, 8, 11])
        x = np.random.default_rng(7).standard_normal(4)
        b = np.zeros(20)
        b[dofs] = x
        expect = F.solve(b)
        assert np.abs(F.inverse_columns_times(dofs, x) - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_solves_only_new_columns(self):
        F = Factorization(random_spd(12, 5))
        x = np.ones(3)
        F.inverse_block([4, 1, 9])
        assert F.solve_count == 3
        F.inverse_columns_times([9, 1, 4], x)
        assert F.solve_count == 3  # every column cached: a gather, no solve
        F.inverse_columns_times([9, 2, 7], x)
        assert F.solve_count == 5  # only 2 and 7 were new
        F.inverse_block([7, 2])
        assert F.solve_count == 5  # and inverse_block reuses them

    def test_rejects_bad_dofs_and_x(self):
        F = Factorization(sp.eye(4))
        for dofs in ([0, 4], [-1], [[0, 1]]):
            with pytest.raises(DimensionMismatchError):
                F.inverse_columns_times(dofs, np.ones(np.size(dofs)))
        with pytest.raises(DimensionMismatchError):
            F.inverse_columns_times([0, 1], np.ones(3))
        assert F.solve_count == 0

    def test_empty_dofs(self):
        F = Factorization(random_spd(6, 3))
        assert np.array_equal(F.inverse_columns_times([], []), np.zeros(6))
        F.inverse_block([1, 2])
        assert np.array_equal(F.inverse_columns_times(np.zeros(0, dtype=int), np.zeros(0)),
                              np.zeros(6))
        assert F.solve_count == 2


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
    cfg = load_scene(SCENES / scene)
    spec = next(o for o in cfg.objects if isinstance(o, SoftSpec))
    A, _ = spec.body.assemble(spec.body.initial_state(spec.velocity), cfg.h, cfg.gravity)
    return A


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


def assert_fill_matches_solve(F, dofs):
    """Each column of the blocked fill, its rows in permuted order, against a
    dpbtrs solve of its unit vector."""
    X = F._unit_columns(np.asarray(dofs))
    assert X.shape == (F.dim, len(dofs))
    for column, d in zip(X.T, dofs):
        e = np.zeros(F.dim)
        e[d] = 1.0
        assert relative_error(column[F._at], F.solve(e)) <= 1e-12


class TestUnitColumnFill:
    """The blocked level-3 fill of the A^-1 cache matches solve to rounding."""

    @pytest.mark.parametrize("scene, dofs, bw", [("bench_column.scn", 9024, 266),
                                                 ("grasp_rotate.scn", 648, 113)])
    def test_shipped_system(self, scene, dofs, bw):
        F = Factorization(soft_system(scene))
        assert (F.dim, bandwidth(F)) == (dofs, bw)  # a shorter last block
        picks = [0, dofs - 1, *np.random.default_rng(dofs).choice(dofs, 6, replace=False)]
        assert_fill_matches_solve(F, picks)
        assert F.solve_count == 2 * len(picks)  # the fill counts its columns

    # (system, dim, bw): diagonals, a last block shorter than bw, the band as
    # wide as the matrix (a last block of one row), blocks of one row, and the
    # rigid body's full world inertia
    EDGES = {
        "diagonal": (lambda: soft_system("point_mass.scn"), 3, 0),
        "rigid-diagonal": (lambda: rigid_system(np.diag([3.0, 0.5, 1.5]), (0, 0, 0)), 6, 0),
        "short-last-block": (lambda: sparse_spd(60, 8), 60, 36),
        "dense": (lambda: random_spd(7, 4), 7, 6),
        "one-row-blocks": (lambda: random_spd(2, 5), 2, 1),
        "rigid": (rigid_system, 6, 2),
    }

    @pytest.mark.parametrize("system, dim, bw", EDGES.values(), ids=EDGES.keys())
    def test_edge_shapes(self, system, dim, bw):
        F = Factorization(system())
        assert (F.dim, bandwidth(F)) == (dim, bw)
        assert_fill_matches_solve(F, np.arange(dim))
        assert_fill_matches_solve(F, [dim - 1])  # one column


def soft_systems(scene):
    """(A, rest node positions) of every soft body of a shipped scene."""
    cfg = load_scene(SCENES / scene)
    return [(spec.body.assemble(spec.body.initial_state(spec.velocity), cfg.h, cfg.gravity)[0],
             spec.body.mesh.nodes) for spec in cfg.objects if isinstance(spec, SoftSpec)]


def box_system(divisions):
    body = SoftBody(box_mesh((1.0, 1.0, 1.0), divisions))
    A, _ = body.assemble(body.initial_state(), 0.01, (0.0, -9.81, 0.0))
    return A, body.mesh.nodes


SHIPPED_SCENES = ("bench_column.scn", "grasp_rotate.scn", "two_body_press.scn",
                  "block_on_plane.scn", "point_mass.scn")


class TestLongAxisOrdering:
    """With the rest node positions, the factorization keeps the narrower of
    RCM and a descending sort along the body's longest axis."""

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
            csr = A.tocsr()
            assert band_ordering(csr, points)[1] <= band_ordering(csr)[1]

    @pytest.mark.parametrize("divisions, rcm, chosen", [((12, 12, 12), 509, 509),
                                                        ((16, 16, 16), 872, 869)])
    def test_never_wider_than_rcm_on_large_boxes(self, divisions, rcm, chosen):
        A, points = box_system(divisions)
        csr = A.tocsr()
        perm, bw = band_ordering(csr, points)
        assert (band_ordering(csr)[1], bw) == (rcm, chosen)
        if rcm == chosen:  # a tie keeps RCM
            assert np.array_equal(perm, band_ordering(csr)[0])

    def test_rejects_points_of_another_size(self):
        A, points = soft_systems("grasp_rotate.scn")[0]
        with pytest.raises(DimensionMismatchError):
            Factorization(A, points=points[1:])

    def test_fill_of_the_last_dof_runs_one_forward_solve(self, monkeypatch):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        calls = []

        def counting_dtrsm(*args, **kwargs):
            calls.append(kwargs.get("trans_a", 0))
            return dtrsm(*args, **kwargs)

        monkeypatch.setattr(linalg, "dtrsm", counting_dtrsm)
        F._unit_columns(F._perm[-1:])
        n_blocks = -(-F.dim // bandwidth(F))
        assert (calls.count(0), calls.count(1)) == (1, n_blocks)

    def test_fill_matches_solve_for_early_and_late_dofs(self):
        A, points = soft_systems("bench_column.scn")[0]
        F = Factorization(A, points=points)
        assert_fill_matches_solve(F, F._perm[[-1, -200]])  # the forward pass from the end
        assert_fill_matches_solve(F, F._perm[[3000, 0, -1]])
