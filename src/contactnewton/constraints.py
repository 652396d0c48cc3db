"""Constraint-space assembly: directions, contact Jacobians, Delassus operators.

All constraint work happens in a single stacked relative-proximity space of
dimension 3p (one 3-block per proximity pair, acting on pA - pB). The sign
convention is folded into the per-object signed mapping S: rows owned as
side A enter with +, side B with -, so one direction matrix serves both
sides and per-object forces come out with opposite signs automatically.

Two routes build the c x c compliance (Delassus) operator:

  standard   W = sum_obj H A^-1 H^T      (multi-RHS backsolves, n-dimensional)
  fast       W = D W_g D^T               (blockwise congruence, independent of n)

with W_g = sum_obj S A^-1 S^T, a (3p, 3p) array gathered once per time step
from the columns of A^-1 each factorization caches (a soft body's A is
constant, so only DOFs entering contact for the first time cost a solve).
The fast route also moves the relative proximity positions r = pA - pB
directly in constraint space, r_{k+1} = r_k + h^2 W_g D^T lambda_k,
skipping all system solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .collision import AttachKind, ContactFrame, attachment_triplets
from .errors import DimensionMismatchError
from .linalg import Factorization

_DOF_KINDS = (AttachKind.VERTEX, AttachKind.BARYCENTRIC, AttachKind.RIGID_LOCAL)


@dataclass
class DirectionMatrix:
    """Block-diagonal constraint directions; block i has rows (n, t1, t2)."""

    blocks: np.ndarray  # (c_g, 3, 3)

    @property
    def n_groups(self) -> int:
        return len(self.blocks)

    @property
    def c(self) -> int:
        return 3 * len(self.blocks)

    def as_sparse(self) -> sp.csr_matrix:
        if self.n_groups == 0:
            return sp.csr_matrix((0, 0))
        return sp.block_diag(list(self.blocks), format="csr")

    def apply(self, rel: np.ndarray) -> np.ndarray:
        """D @ rel for a stacked (3p,) relative vector, blockwise."""
        return np.einsum("gij,gj->gi", self.blocks, rel.reshape(-1, 3)).ravel()

    def apply_transposed(self, lam: np.ndarray) -> np.ndarray:
        """D^T @ lam, blockwise."""
        return np.einsum("gji,gj->gi", self.blocks, lam.reshape(-1, 3)).ravel()


def assemble_direction(frames: list[ContactFrame]) -> DirectionMatrix:
    if not frames:
        return DirectionMatrix(np.zeros((0, 3, 3)))
    return DirectionMatrix(np.stack([f.as_matrix() for f in frames]))


def build_signed_mapping(pairs, object_id: int, n_dofs: int, fixed_mask=None) -> sp.csr_matrix:
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


def assemble_H(D: DirectionMatrix, G: sp.spmatrix) -> sp.csr_matrix:
    """Contact Jacobian H = D G; rows grouped (n, t1, t2) per pair."""
    if D.c != G.shape[0]:
        raise DimensionMismatchError(
            f"direction matrix acts on {D.c} proximity rows, mapping has {G.shape[0]}"
        )
    return (D.as_sparse() @ G).tocsr()


def assemble_W_standard(
    H_by_object: dict[int, sp.spmatrix], F_by_object: dict[int, Factorization]
) -> np.ndarray:
    """W = sum_obj H A^-1 H^T via multi-RHS backsolves on the shared factorizations."""
    ids = sorted(H_by_object)
    if not ids:
        return np.zeros((0, 0))
    c = H_by_object[ids[0]].shape[0]
    W = np.zeros((c, c))
    for oid in ids:
        H = H_by_object[oid]
        F = F_by_object[oid]
        if H.shape[1] != F.dim:
            raise DimensionMismatchError(
                f"object {oid}: H has {H.shape[1]} columns, factorization dim {F.dim}"
            )
        if H.nnz == 0:
            continue
        X = F.solve_multi(H.T.toarray())
        W += H @ X
    return W


def assemble_Wg(
    S_by_object: dict[int, sp.spmatrix], F_by_object: dict[int, Factorization]
) -> np.ndarray:
    """W_g = sum_obj S A^-1 S^T, the direction-independent compliance (3p x 3p).

    Each object adds S_J A^-1[J][:, J] S_J^T over the columns J of S with
    entries; :meth:`Factorization.inverse_block` supplies the middle factor.
    """
    ids = sorted(S_by_object)
    if not ids:
        return np.zeros((0, 0))
    dim = S_by_object[ids[0]].shape[0]
    wg = np.zeros((dim, dim))
    for oid in ids:
        S = S_by_object[oid]
        F = F_by_object[oid]
        if S.shape[1] != F.dim:
            raise DimensionMismatchError(
                f"object {oid}: S has {S.shape[1]} columns, factorization dim {F.dim}"
            )
        S = S.tocsr()
        J = np.unique(S.indices[S.data != 0.0])
        if J.size == 0:
            continue
        SJ = S[:, J].toarray()
        wg += SJ @ F.inverse_block(J) @ SJ.T
    return wg


def rebuild_W_fast(D: DirectionMatrix, wg: np.ndarray) -> np.ndarray:
    """W = D W_g D^T block by block, W[i, j] = D_i W_g[i, j] D_j^T for groups
    i, j, since D is block diagonal; no system solves, cost independent of n."""
    if wg.shape != (D.c, D.c):
        raise DimensionMismatchError(
            f"direction matrix is {D.c} rows, W_g is {wg.shape}"
        )
    g = D.n_groups
    blocks = np.einsum("gia,gahb->gihb", D.blocks, wg.reshape(g, 3, g, 3))
    return np.einsum("gihb,hjb->gihj", blocks, D.blocks).reshape(D.c, D.c)


def compute_violation(D: DirectionMatrix, r: np.ndarray) -> np.ndarray:
    """Projected gaps D r, rows (delta_n, delta_t1, delta_t2) per group."""
    rel = r.ravel()
    if rel.size != D.c:
        raise DimensionMismatchError(
            f"positions stack to {rel.size}, direction matrix expects {D.c}"
        )
    return D.apply(rel)


def fast_update_proximity(
    r: np.ndarray, wg: np.ndarray, D: DirectionMatrix, lam: np.ndarray, h: float
) -> np.ndarray:
    """Relative proximity positions r = pA - pB after one corrective impulse,
    r + h^2 W_g D^T lambda, without system solves."""
    if lam.shape != (D.c,):
        raise DimensionMismatchError(f"lambda has shape {lam.shape}, expected ({D.c},)")
    return r + (h * h) * (wg @ D.apply_transposed(lam)).reshape(r.shape)
