"""Sparse symmetric linear algebra: factorization and solves.

The system matrices assembled by the dynamics module are symmetric positive
definite by construction (linear FEM keeps them constant, too), so each is
factored once as a banded Cholesky: a reverse Cuthill-McKee ordering packs
the matrix into a narrow band, and LAPACK's ``dpbtrf``/``dpbtrs`` factor it
and solve on it. A pivot that is not positive and finite is reported as
:class:`NotSPDError`, naming the DOF where it arose.

:class:`Factorization` takes the assembled matrix (scipy sparse or dense) as
it is and reads only its upper triangle, so it does not check symmetry: the
assemblers build symmetric matrices, and the one setting from outside that
enters A, a rigid body's inertia, is checked when a scene is loaded.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import DimensionMismatchError, NotSPDError


class Factorization:
    """Banded Cholesky factorization of a symmetric matrix, reusable for many solves.

    The DOFs are reordered by reverse Cuthill-McKee, ``perm[k]`` being the
    DOF at position k, so that ``P A Pᵀ`` has a narrow half-bandwidth ``bw``.
    Its upper band is packed in LAPACK ``'U'`` band storage, a Fortran-order
    ``(bw + 1, n)`` array of ``n·(bw+1)`` doubles, and factored in place by
    ``dpbtrf`` as ``Uᵀ U``. A solve permutes the right-hand side, runs
    ``dpbtrs`` (which solves one column at a time, so a column of
    :meth:`solve_multi` equals :meth:`solve` of that column bit for bit) and
    scatters the result back. The one SPD check is on the pivots: ``dpbtrf``
    stops at the first one that is not positive, and a NaN or infinity in A
    leaves a non-finite pivot; either is reported as :class:`NotSPDError`
    naming the original DOF of that pivot.

    ``solve_count`` tracks how many backsolves went through this object,
    which lets callers assert that a code path performs no system solves.

    The object caches the columns of A^-1 it has solved for, as the rows of
    one dense array (A is symmetric, so column d of A^-1 is also its row d):
    ``_row_of[d]`` is the row of ``_rows`` holding DOF d, or -1. A column is
    solved once, on a unit right-hand side through :meth:`solve_multi`, and
    lives as long as this factorization; :meth:`inverse_block` and
    :meth:`inverse_columns_times` only gather from it. The cache makes the
    object mutable: do not share it across threads while the cache fills.
    """

    __slots__ = ("dim", "_perm", "_at", "_band", "solve_count", "_rows", "_row_of")

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        n = csr.shape[0]
        if csr.shape != (n, n):
            raise DimensionMismatchError(f"matrix must be square, got {csr.shape}")
        perm = reverse_cuthill_mckee(csr, symmetric_mode=True).astype(np.intp)
        at = np.empty(n, dtype=np.intp)
        at[perm] = np.arange(n)
        coo = csr.tocoo()
        i, j = at[coo.row], at[coo.col]
        upper = i <= j
        i, j, values = i[upper], j[upper], coo.data[upper]
        bw = int((j - i).max(initial=0))
        # entry (i, j) of the upper band sits at ab[bw + i - j, j]; bincount
        # sums duplicate entries
        band = np.bincount((bw + i - j) + (bw + 1) * j, weights=values,
                           minlength=(bw + 1) * n).reshape((bw + 1, n), order="F")
        band, info = dpbtrf(band, overwrite_ab=True)
        # dpbtrf stops at the first pivot <= 0 (info > 0) but passes a NaN
        # one on, so the first bad pivot is the first non-finite one it
        # accepted, else the one it stopped at
        accepted = info - 1 if info > 0 else n
        finite = np.isfinite(band[bw, :accepted])
        bad = accepted if finite.all() else int(np.argmin(finite))
        if bad < n:
            dof = int(perm[bad])
            what = "non-positive" if bad == info - 1 else "non-finite"
            raise NotSPDError(
                f"{what} pivot at DOF {dof} (node {dof // 3}, component "
                f"{'xyz'[dof % 3]}); check masses, materials and time step"
            )
        self.dim = n
        self._perm = perm
        self._at = at
        self._band = band
        self.solve_count = 0
        self._rows = np.zeros((0, self.dim))
        self._row_of = np.full(self.dim, -1, dtype=np.int64)

    def _backsolve(self, B: np.ndarray) -> np.ndarray:
        X, _ = dpbtrs(self._band, B[self._perm], overwrite_b=True)
        return X[self._at]

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.dim,):
            raise DimensionMismatchError(
                f"rhs has shape {b.shape}, expected ({self.dim},)"
            )
        self.solve_count += 1
        return self._backsolve(b)

    def solve_multi(self, B: np.ndarray) -> np.ndarray:
        """Solve A X = B column by column on the shared factorization."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"rhs block has shape {B.shape}, expected ({self.dim}, k)"
            )
        self.solve_count += B.shape[1]
        return self._backsolve(B)

    def _check_dofs(self, dofs) -> np.ndarray:
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.ndim != 1 or ((dofs < 0) | (dofs >= self.dim)).any():
            raise DimensionMismatchError(
                f"dofs must be a 1-d list of indices in [0, {self.dim})"
            )
        return dofs

    def _cached_rows(self, dofs: np.ndarray) -> np.ndarray:
        """Rows of the cache holding ``dofs``, solving for the DOFs not cached yet.

        New DOFs are solved in order of first appearance, all in one
        :meth:`solve_multi` call.
        """
        rows = self._row_of[dofs]
        missing = rows < 0
        if missing.any():
            new = dofs[missing]
            _, first = np.unique(new, return_index=True)
            new = new[np.sort(first)]
            E = np.zeros((self.dim, len(new)))
            E[new, np.arange(len(new))] = 1.0
            X = self.solve_multi(E)
            self._row_of[new] = np.arange(len(self._rows), len(self._rows) + len(new))
            self._rows = np.concatenate([self._rows, X.T])
            rows = self._row_of[dofs]
        return rows

    def inverse_block(self, dofs) -> np.ndarray:
        """A^-1[dofs][:, dofs] as a C-contiguous array, from the cached columns.

        Entry (i, j) is entry ``dofs[i]`` of the solved column ``dofs[j]``.
        """
        dofs = self._check_dofs(dofs)
        rows = self._cached_rows(dofs)
        return self._rows.T[np.ix_(dofs, rows)]

    def inverse_columns_times(self, dofs, x) -> np.ndarray:
        """A^-1[:, dofs] @ x, a vector over all DOFs, from the cached columns.

        x is scattered onto the cache rows (a repeated DOF adds up), then one
        matrix-vector product with the cache replaces a backsolve.
        """
        dofs = self._check_dofs(dofs)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != dofs.shape:
            raise DimensionMismatchError(
                f"x has shape {x.shape}, expected ({len(dofs)},) for the dofs"
            )
        rows = self._cached_rows(dofs)
        z = np.bincount(rows, weights=x, minlength=len(self._rows))
        return z @ self._rows
