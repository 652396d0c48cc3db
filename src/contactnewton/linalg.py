"""Sparse symmetric linear algebra: storage, factorization, solves.

The system matrices assembled by the dynamics module are symmetric positive
definite by construction, so the factorization is a pivot-free symmetric
elimination (SuperLU in symmetric mode with diagonal pivoting disabled).
A non-positive pivot is reported as :class:`NotSPDError`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatchError, NotSPDError

_SYM_RTOL = 1e-12


class SparseSym:
    """Square symmetric sparse matrix (CSR storage)."""

    __slots__ = ("csr",)

    def __init__(self, mat, check: bool = True):
        csr = sp.csr_matrix(mat, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {csr.shape}")
        if check:
            scale = max(np.abs(csr.data).max(initial=0.0), 1.0)
            asym = abs(csr - csr.T)
            if asym.nnz and asym.data.max() > _SYM_RTOL * scale:
                raise DimensionMismatchError(
                    f"matrix is not symmetric (max asymmetry {asym.data.max():.3e})"
                )
        self.csr = csr

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @classmethod
    def from_triplets(cls, dim, rows, cols, values, check: bool = True) -> "SparseSym":
        mat = sp.coo_matrix((values, (rows, cols)), shape=(dim, dim))
        return cls(mat, check=check)

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()


class Factorization:
    """Factorization of a :class:`SparseSym`, reusable for many solves.

    ``solve_count`` tracks how many backsolves went through this object,
    which lets callers assert that a code path performs no system solves.
    The object caches the columns of A^-1 that :meth:`inverse_block` has
    solved for, so it is not immutable: do not share it across threads
    while that cache fills.
    """

    __slots__ = ("dim", "_lu", "solve_count", "_inverse_columns")

    def __init__(self, matrix: SparseSym):
        csc = matrix.csr.tocsc()
        try:
            lu = splu(
                csc,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:  # SuperLU reports exact singularity
            raise NotSPDError(f"factorization failed: {exc}") from exc
        pivots = lu.U.diagonal()
        if not np.all(pivots > 0.0):
            raise NotSPDError(
                f"non-positive pivot encountered (min {pivots.min():.3e}); "
                "check masses, materials and time step"
            )
        self.dim = matrix.dim
        self._lu = lu
        self.solve_count = 0
        self._inverse_columns: dict[int, np.ndarray] = {}

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.dim,):
            raise DimensionMismatchError(
                f"rhs has shape {b.shape}, expected ({self.dim},)"
            )
        self.solve_count += 1
        return self._lu.solve(b)

    def solve_multi(self, B: np.ndarray) -> np.ndarray:
        """Solve A X = B column by column on the shared factorization."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"rhs block has shape {B.shape}, expected ({self.dim}, k)"
            )
        self.solve_count += B.shape[1]
        return self._lu.solve(B)

    def inverse_block(self, dofs) -> np.ndarray:
        """A^-1[dofs][:, dofs], from cached columns of A^-1.

        Only DOFs not seen before are solved for, on unit right-hand sides
        through :meth:`solve_multi`; each cached column lives as long as
        this factorization.
        """
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.ndim != 1 or ((dofs < 0) | (dofs >= self.dim)).any():
            raise DimensionMismatchError(
                f"dofs must be a 1-d list of indices in [0, {self.dim})"
            )
        cache = self._inverse_columns
        new = [d for d in dict.fromkeys(dofs.tolist()) if d not in cache]
        if new:
            E = np.zeros((self.dim, len(new)))
            E[new, np.arange(len(new))] = 1.0
            X = self.solve_multi(E)
            for j, d in enumerate(new):
                cache[d] = X[:, j]
        block = np.empty((len(dofs), len(dofs)))
        for j, d in enumerate(dofs.tolist()):
            block[:, j] = cache[d][dofs]
        return block
