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

    Immutable after construction; safe to share across threads.
    ``solve_count`` tracks how many backsolves went through this object,
    which lets callers assert that a code path performs no system solves.
    """

    __slots__ = ("dim", "_lu", "solve_count")

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

