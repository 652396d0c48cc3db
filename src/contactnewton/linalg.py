"""Sparse symmetric linear algebra: factorization and solves.

The system matrices assembled by the dynamics module are symmetric positive
definite by construction (linear FEM keeps them constant, too), so each is
factored once as a banded Cholesky: an ordering packs the matrix into a
narrow band and LAPACK's ``dpbtrf`` factors it as ``Uᵀ U``. A pivot that is
not positive and finite is reported as :class:`NotSPDError`, naming the DOF
where it arose.

The order is one rule (:func:`band_ordering`): a body given its rest node
positions has its nodes sorted by descending coordinate along its longest
axis, and a matrix given none (a rigid sphere's 6×6 system) keeps its own
order. On every shipped body and ``bench.spec`` resolution the sort bands
no wider than reverse Cuthill-McKee (RCM), as the tests check: 194 against
266 on ``bench_column``'s 7×46×7 box, 110, 77, 509 and 869 against 113,
80, 509 and 872 on the 5³, 4³, 12³ and 16³ boxes. An ascending sort loses
to RCM on the cubes (131, 95, 551 and 923).

Every solve, of one right-hand side or of a block, is two passes of LAPACK's
``dtbtrs`` on the band: :meth:`Factorization.forward`, a transposed pass
``Uᵀ y = P b``, then :meth:`Factorization.backward`, a plain pass ``U x =
y``. These are the two triangular band solves ``dpbtrs`` makes, column by
column, so a solve equals ``dpbtrs`` bit for bit; ``dpbtrs`` remains only
as the tests' reference.

The forward pass skips leading zero rows: it runs on the trailing sub-band
from ``bw`` rows before the first nonzero permuted row. The skipped rows of
y are exact zeros, and starting ``bw`` rows early keeps every dot product
of the pass at its length and its first element, on which the BLAS dot
kernel's rounding depends. Row k of the backward pass needs only the rows
after k, so a pass limited to the trailing rows from some ``lo`` gives
those rows bit for bit as the whole pass does; the free motion runs its
backward pass only down to the earliest row that contact reads. Forward
passes add up, so the step's final solve adds the forward pass of the
correction's right-hand side, nonzero on the contact DOFs only and thus
skipping, to the free motion's, and one backward pass over the whole band
finishes both. On the column, whose 192 contact DOFs the descending sort
puts last of 9024 positions, a step so makes two passes over the whole band
where two solves made three.

The fast scheme needs A^-1 only where contact reaches it, on the block
A^-1[C, C] over the DOFs C that have been in contact; :class:`Factorization`
caches that block. New columns are filled by the same two passes on the
unit vectors of the new DOFs: the forward pass skips as a solve's does,
from ``bw`` rows before the earliest new DOF's permuted position, and the
backward pass stops at the earliest position in C, the first row the block
reads. A cached entry so equals the entry of :meth:`Factorization.solve` of
a unit vector bit for bit, that of the later cached of its two DOFs. On
the column each pass of the first fill runs over at most the last 386 of
9024 rows.

:class:`Factorization` takes the assembled matrix (scipy sparse or dense) as
it is, or a :class:`RowBlocks` that hands it the matrix's CSR rows a block
at a time, as a soft body's system matrix comes (:meth:`~.dynamics.SoftBody.
system_rows`), so that the matrix is never held whole. It makes two passes
over the blocks, the first for ``bw``, the second to add the upper entries
into the band, so its temporaries are those of one block. It reads only
the upper triangle, so it does not check symmetry: the assemblers build
symmetric matrices, and the one setting from outside that enters A, a rigid
body's inertia, is checked by :class:`~.dynamics.RigidBody`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .errors import DimensionMismatchError, NotSPDError, ValidationError

# The largest band a factorization allocates, in bytes. The band is (bw + 1) n
# doubles and grows with a body's cross-section, not its node count: the
# README's largest box, 16x16x16, bands 103 MB.
MAX_BAND_BYTES = 2 * 2**30


def band_ordering(n: int, points=None) -> np.ndarray:
    """The DOF order of the banded factor of an ``n``-DOF system: ``perm[k]``
    is the DOF at position k.

    With ``points``, the ``(n / 3, 3)`` rest positions of the nodes that own
    DOFs ``3i..3i+2``, it is a stable sort of the nodes by descending
    coordinate along the axis of largest extent, each node's three DOFs
    together; without, it is the identity.
    """
    if points is None:
        return np.arange(n)
    points = np.asarray(points, dtype=np.float64)
    if points.shape != (n // 3, 3) or 3 * len(points) != n:
        raise DimensionMismatchError(
            f"points have shape {points.shape}, expected ({n // 3}, 3) for {n} DOFs"
        )
    axis = int(np.argmax(np.ptp(points, axis=0)))
    nodes = np.argsort(-points[:, axis], kind="stable")
    return (3 * nodes[:, None] + np.arange(3)).ravel()


@dataclass(frozen=True)
class RowBlocks:
    """An ``n``-by-``n`` matrix given by its CSR rows a block at a time.

    Each call of ``blocks`` starts a new pass over the rows, in order, and
    yields ``(lo, indptr, indices, data)`` per block: the CSR arrays of rows
    ``lo`` to ``lo + len(indptr) - 2``, ``indptr`` starting at 0.
    """

    n: int
    blocks: Callable[[], Iterable[tuple]]


def _permuted_entries(at: np.ndarray, lo: int, indptr: np.ndarray, indices: np.ndarray):
    """The permuted row and column of each stored entry of a block of CSR
    rows from ``lo`` on, in storage order."""
    return np.repeat(at[lo:lo + len(indptr) - 1], np.diff(indptr)), at[indices]


class Factorization:
    """Banded Cholesky factorization of a symmetric matrix, reusable for many solves.

    The DOFs are reordered by :func:`band_ordering`, ``perm[k]`` being the
    DOF at position k and ``at`` its inverse, so that ``P A Pᵀ`` has a
    narrow half-bandwidth ``bw``. ``points``, the rest positions of a body's
    nodes, orders them along the body's longest axis; with none the matrix
    keeps its own order. ``matrix`` is a scipy sparse or dense matrix, or a
    :class:`RowBlocks`, which is read twice: once for ``bw``, once to add
    its upper entries into the band. The upper band is packed in LAPACK
    ``'U'`` band storage, a Fortran-order ``(bw + 1, n)`` array of
    ``n·(bw+1)`` doubles, and factored in place by ``dpbtrf`` as ``Uᵀ U``.
    Every solve is :meth:`forward` then :meth:`backward` (module
    docstring): the forward pass permutes the right-hand side, one vector
    or a block of columns, the backward pass scatters the result back. Both
    solve one column at a time, so a column of :meth:`solve_multi` equals
    :meth:`solve` of that column bit for bit.
    The one SPD check is on the pivots: ``dpbtrf`` stops at the first one
    that is not positive, and a NaN or infinity in A leaves a non-finite
    pivot; either is reported as :class:`NotSPDError` naming the original
    DOF of that pivot.

    ``solve_count`` tracks how many right-hand sides were solved for on this
    object, one each however its passes are split (:meth:`forward` counts
    it), which lets callers assert that a code path performs no system
    solves.

    The object caches the block of A^-1 over the DOFs it was asked for:
    ``_dofs`` lists them in the order they were first asked for,
    ``_block[a, b]`` is A^-1[_dofs[a], _dofs[b]], and ``_col_of[d]`` is the
    index of DOF d in ``_dofs``, or -1. New DOFs are solved for once, by
    the two passes of a solve, and stay for the life of this factorization;
    :meth:`inverse_block` only gathers from the block. ``_block[a, b]`` is
    so bit for bit the entry at ``_dofs[a]`` of :meth:`solve` of the unit
    vector of ``_dofs[b]``, unless ``_dofs[a]`` was cached by a later fill,
    which wrote the entry from its own column, A^-1 being symmetric. The
    cache makes the object mutable: do not share it across threads while
    the cache fills.
    """

    __slots__ = ("dim", "_perm", "_at", "_band", "solve_count", "_dofs", "_block", "_col_of")

    def __init__(self, matrix, points=None):
        if not isinstance(matrix, RowBlocks):
            csr = sp.csr_matrix(matrix, dtype=np.float64)
            if csr.shape[0] != csr.shape[1]:
                raise DimensionMismatchError(f"matrix must be square, got {csr.shape}")
            matrix = RowBlocks(csr.shape[0], lambda: [(0, csr.indptr, csr.indices, csr.data)])
        n = matrix.n
        perm = band_ordering(n, points)
        at = np.empty(n, dtype=np.intp)
        at[perm] = np.arange(n)
        bw = 0
        for lo, indptr, indices, _ in matrix.blocks():
            i, j = _permuted_entries(at, lo, indptr, indices)
            bw = max(bw, int((j - i).max(initial=0)))
        size = 8 * (bw + 1) * n
        if size > MAX_BAND_BYTES:
            raise ValidationError(
                f"the band of {n} DOFs at half-bandwidth {bw} takes {size} bytes "
                f"({size / 2**30:.3g} GiB), more than the {MAX_BAND_BYTES} allowed")
        band = np.zeros((bw + 1, n), order="F")
        # entry (i, j) of the upper band sits at ab[bw + i - j, j], which is
        # (bw + i - j) + (bw + 1) j = bw (j + 1) + i of the raveled band
        flat = band.reshape(-1, order="F")  # a view
        for lo, indptr, indices, data in matrix.blocks():
            i, j = _permuted_entries(at, lo, indptr, indices)
            upper = i <= j
            # sequential: duplicates are summed in storage order onto 0.0
            np.add.at(flat, (bw * (j + 1) + i)[upper], data[upper])
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
        self._dofs = np.zeros(0, dtype=np.int64)
        self._block = np.zeros((0, 0))
        self._col_of = np.full(n, -1, dtype=np.int64)

    def solve(self, b: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """A^-1 b; with ``y = forward(b0)`` of an earlier right-hand side,
        A^-1 (b0 + b), b's forward pass added to y and one backward pass
        finishing both. b counts once in ``solve_count`` either way."""
        y_b = self.forward(b)
        return self._finish(y_b if y is None else y + y_b, 0)

    def solve_multi(self, B: np.ndarray) -> np.ndarray:
        """A^-1 B for a block of right-hand sides, column by column on the
        shared factorization."""
        return self._finish(self.forward(B), 0)

    def forward(self, b: np.ndarray) -> np.ndarray:
        """The forward pass of a solve: y with ``Uᵀ y = P b``, in permuted
        order, for one right-hand side or a block of columns, run from ``bw``
        rows before the first nonzero row of the permuted b (module docstring).

        :meth:`backward` finishes the solve; each column counts once in
        ``solve_count``, here, however its passes are split. Forward passes
        add up: ``backward(forward(b0) + forward(b1))`` is A^-1 (b0 + b1) to
        rounding.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[:1] != (self.dim,) or b.ndim > 2:
            raise DimensionMismatchError(
                f"rhs has shape {b.shape}, expected ({self.dim},) or ({self.dim}, k)"
            )
        self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        # a block is gathered in Fortran order, which dtbtrs solves in place;
        # "clip" (no index is out of range) lets take write out unbuffered
        y = np.empty(b.shape, order="F")
        np.take(b.T, self._perm, axis=-1, out=y.T, mode="clip")
        bw = self._band.shape[0] - 1
        nonzero = y != 0 if y.ndim == 1 else (y != 0).any(axis=1)
        start = max(int(np.argmax(nonzero)) - bw, 0)  # an all-zero b gives 0
        y[start:], _ = dtbtrs(self._band[:, start:], y[start:], trans="T", overwrite_b=True)
        return y

    def backward(self, y: np.ndarray, dofs=None) -> np.ndarray:
        """A^-1 b in DOF order from ``y = forward(b)``: the backward pass
        ``U x = y`` on the trailing permuted rows from the earliest position
        of ``dofs`` (all rows when ``dofs`` is None), NaN on the rows before.

        Row k of the pass needs only the rows after k, so the rows it covers
        equal those of :meth:`solve` bit for bit. ``y`` is left as it is.
        """
        lo = 0 if dofs is None else int(self._at[dofs].min(initial=self.dim))
        return self._finish(np.array(y, dtype=np.float64), lo)

    def _finish(self, x: np.ndarray, lo: int) -> np.ndarray:
        """:meth:`backward` from permuted row ``lo`` on, overwriting ``x``."""
        x[:lo] = np.nan
        if lo < self.dim:
            x[lo:], _ = dtbtrs(self._band[:, lo:], x[lo:], overwrite_b=True)
        return x[self._at]

    def inverse_block(self, dofs) -> np.ndarray:
        """A^-1[dofs][:, dofs] as a C-contiguous array, from the cached block.

        DOFs not cached yet are solved for together, in order of first
        appearance: a forward pass on their unit vectors as :meth:`forward`
        runs it, from ``bw`` rows before the earliest permuted position among
        them, then a backward pass down to ``lo``, the earliest position of a
        cached or new DOF. The work array holds only the permuted rows from
        the earlier of the two starts on, and each new DOF counts once in
        ``solve_count``. The new columns' rows at the cached and new DOFs
        grow the block, and its new rows at the old columns are the transpose
        of those columns' old rows, A^-1 being symmetric.
        """
        dofs = np.asarray(dofs, dtype=np.int64)
        if dofs.ndim != 1 or ((dofs < 0) | (dofs >= self.dim)).any():
            raise DimensionMismatchError(
                f"dofs must be a 1-d list of indices in [0, {self.dim})"
            )
        index = self._col_of[dofs]
        missing = index < 0
        if missing.any():
            new = dofs[missing]
            _, first = np.unique(new, return_index=True)
            new = new[np.sort(first)]
            every = np.concatenate([self._dofs, new])
            at = self._at[every]
            start = max(int(self._at[new].min()) - (self._band.shape[0] - 1), 0)
            lo = int(at.min())
            top = min(start, lo)
            X = np.zeros((self.dim - top, len(new)), order="F")  # permuted rows from top on
            X[self._at[new] - top, np.arange(len(new))] = 1.0
            X[start - top:], _ = dtbtrs(self._band[:, start:], X[start - top:], trans="T",
                                        overwrite_b=True)
            X[lo - top:], _ = dtbtrs(self._band[:, lo:], X[lo - top:], overwrite_b=True)
            self.solve_count += len(new)
            columns = X[at - top]  # A^-1[every, new]
            m = len(self._dofs)
            block = np.empty((len(every), len(every)))
            block[:m, :m] = self._block
            block[:, m:] = columns
            block[m:, :m] = columns[:m].T
            self._dofs, self._block = every, block
            self._col_of[new] = np.arange(m, len(every))
            index = self._col_of[dofs]
        return self._block.take(index, axis=0).take(index, axis=1)
