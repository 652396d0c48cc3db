"""Constraint-space assembly: directions, contact Jacobians, Delassus operators.

All constraint work happens in a single stacked relative-proximity space of
dimension 3p (one 3-block per proximity pair, acting on pA - pB). The sign
convention is folded into the per-object signed mapping S: rows owned as
side A enter with +, side B with -, so one direction matrix serves both
sides and per-object forces come out with opposite signs automatically.

Two routes build the c x c compliance (Delassus) operator:

  standard   W = sum_obj H A^-1 H^T      (multi-RHS backsolves, n-dimensional)
  fast       W = D W_g D^T               (dense congruence, independent of n)

with W_g = sum_obj S A^-1 S^T built once per time step. The fast route also
updates proximity positions directly in constraint space,
p_{k+1} = p_k + h^2 W_g D^T lambda_k, skipping all system solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .collision import AttachKind, ContactFrame, attachment_triplets
from .errors import DimensionMismatchError
from .linalg import Factorization, gemm

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

    def as_dense(self) -> np.ndarray:
        D = np.zeros((self.c, self.c))
        for i, blk in enumerate(self.blocks):
            D[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = blk
        return D

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


@dataclass
class MappingDelassus:
    """Direction-independent compliance in proximity space (3p x 3p).

    ``per_object`` keeps each object's own contribution S A^-1 S^T so the
    proximity update can scatter the correction back to the two sides of
    every pair with the right signs.
    """

    wg: np.ndarray
    per_object: dict[int, np.ndarray]

    @property
    def dim(self) -> int:
        return self.wg.shape[0]


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
) -> MappingDelassus:
    """W_g = sum_obj S A^-1 S^T, plus the per-object contributions."""
    ids = sorted(S_by_object)
    if not ids:
        return MappingDelassus(np.zeros((0, 0)), {})
    dim = S_by_object[ids[0]].shape[0]
    wg = np.zeros((dim, dim))
    per_object = {}
    for oid in ids:
        S = S_by_object[oid]
        F = F_by_object[oid]
        if S.shape[1] != F.dim:
            raise DimensionMismatchError(
                f"object {oid}: S has {S.shape[1]} columns, factorization dim {F.dim}"
            )
        if S.nnz == 0:
            per_object[oid] = np.zeros((dim, dim))
            continue
        X = F.solve_multi(S.T.toarray())
        U = np.asarray(S @ X)
        per_object[oid] = U
        wg += U
    return MappingDelassus(wg, per_object)


def rebuild_W_fast(D: DirectionMatrix, wg: MappingDelassus) -> np.ndarray:
    """W = D W_g D^T by dense congruence; no system solves, cost independent of n."""
    if D.c != wg.dim:
        raise DimensionMismatchError(
            f"direction matrix is {D.c} rows, W_g is {wg.dim}"
        )
    if D.c == 0:
        return np.zeros((0, 0))
    Dd = D.as_dense()
    return gemm(gemm(Dd, wg.wg), Dd, transpose_b=True)


def compute_violation(D: DirectionMatrix, p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """Projected gaps D (p_a - p_b), rows (delta_n, delta_t1, delta_t2) per group."""
    rel = (p_a - p_b).ravel()
    if rel.size != D.c:
        raise DimensionMismatchError(
            f"positions stack to {rel.size}, direction matrix expects {D.c}"
        )
    return D.apply(rel)


def fast_update_proximity(
    p_a: np.ndarray,
    p_b: np.ndarray,
    wg: MappingDelassus,
    D: DirectionMatrix,
    lam: np.ndarray,
    h: float,
    pairs,
) -> tuple[np.ndarray, np.ndarray]:
    """Proximity positions after one corrective impulse, without system solves.

    The relative update is h^2 W_g D^T lambda; each object's share (its own
    S A^-1 S^T contribution) moves the side it owns, with the B side taking
    the opposite sign per the action-reaction convention.
    """
    if lam.shape != (D.c,):
        raise DimensionMismatchError(f"lambda has shape {lam.shape}, expected ({D.c},)")
    t = D.apply_transposed(lam)
    h2 = h * h
    p_a = p_a.copy()
    p_b = p_b.copy()
    moves = {oid: h2 * (U @ t) for oid, U in wg.per_object.items()}
    for i, pair in enumerate(pairs):
        if pair.attach_a.object_id in moves:
            p_a[i] += moves[pair.attach_a.object_id][3 * i : 3 * i + 3]
        if pair.attach_b.object_id in moves:
            p_b[i] -= moves[pair.attach_b.object_id][3 * i : 3 * i + 3]
    return p_a, p_b
