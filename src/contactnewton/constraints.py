"""Constraint-space assembly: directions, contact Jacobians, Delassus operators.

All constraint work happens in a single stacked relative-proximity space of
dimension 3p (one 3-block per proximity pair, acting on pA - pB). The sign
convention is folded into the per-object signed mapping S: rows owned as
side A enter with +, side B with -, so one direction matrix serves both
sides and per-object forces come out with opposite signs automatically.
S is built from the two attachment forms of ``collision.Contacts``: a
node-weighted side (deformable body) maps its three nodes' velocities with
its weights, and a posed side on a dynamic object (rigid sphere) maps its
6 DOFs with [I, -skew(lever)]. Posed sides of kinematic objects and planes
carry no DOFs and enter no S.

Two routes build the c x c compliance (Delassus) operator:

  standard   W = sum_obj H A^-1 H^T      (multi-RHS backsolves, n-dimensional)
  fast       W = D W_g D^T               (blockwise congruence, independent of n)

with W_g = sum_obj S A^-1 S^T, a (3p, 3p) array gathered, when the step's
attachments differ from the previous step's (or a rigid body's A was
factored anew), from the block A^-1[J, J] over the object's contact DOFs J
(:func:`contact_dofs`, all six of a rigid body), which each factorization
caches (a soft body's A is constant, so only DOFs entering contact for the
first time cost a solve). The scene keeps S, W_g and X_o between steps.
D is block diagonal, and every function here takes it as its blocks: the
(p, 3, 3) frame array that :func:`assemble_direction` checks, with no
wrapper. D r is one einsum in :func:`compute_violation`, D^T lambda one in
:func:`apply_transposed`, and only :func:`assemble_H` builds the sparse
matrix, straight from the blocks. The congruence is two batched
row-group products, W = D (D W_g^T)^T = D (W_g D^T), and W_g is held
Fortran-ordered (the transpose of a C-ordered W_g^T), so neither product
copies a transpose. The gather of W_g passes through
X_o = S_J A^-1[J, J] per object, and :func:`assemble_Wg` returns it too:
the fast scheme displaces the contact DOFs by dq[J] = h^2 X_o^T f for a
world impulse f = D^T lambda, the mechanical correction on J, with no
system solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .collision import Contacts
from .errors import DimensionMismatchError, InvalidAttachmentError
from .linalg import Factorization


def assemble_direction(frames: np.ndarray) -> np.ndarray:
    """D for a (p, 3, 3) frame array with rows (n, t1, t2) per pair.

    D is block diagonal and is carried as its blocks, the checked frame array.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1:] != (3, 3):
        raise DimensionMismatchError(f"frames have shape {frames.shape}, expected (p, 3, 3)")
    return frames


def apply_transposed(D: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """D^T lambda, blockwise, for the (p, 3, 3) blocks D and a (3p,) lambda."""
    return np.einsum("gji,gj->gi", D, lam.reshape(-1, 3)).ravel()


def _skew(r: np.ndarray) -> np.ndarray:
    """Cross-product matrices (k, 3, 3) of the rows of r (k, 3): skew(r) x = r x x."""
    x, y, z = r.T
    o = np.zeros(len(r))
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=1).reshape(-1, 3, 3)


def build_signed_mapping(
    contacts: Contacts, object_id: int, n_dofs: int, fixed_mask=None
) -> sp.csr_matrix:
    """Signed relative mapping S for one object: +G on A sides, -G on B sides.

    A node-weighted side maps the velocities of its three nodes with its
    weights. A posed side on a dynamic object is a rigid body's point, whose
    velocity is v + omega x lever, so G = [I, -skew(lever)] with the lever
    arm taken at detection. Columns of fixed (Dirichlet) DOFs are zeroed; a
    constrained node neither moves under contact forces nor contributes
    compliance.
    """
    rows, cols, vals = [], [], []
    xyz = np.arange(3)
    for side, sign in ((contacts.a, 1.0), (contacts.b, -1.0)):
        mine = side.object_id == object_id
        posed = (side.nodes < 0).all(axis=1)
        g = np.flatnonzero(mine & ~posed)
        nodes = side.nodes[g]
        bad = (nodes < 0) | (3 * nodes + 2 >= n_dofs)
        if bad.any():
            raise InvalidAttachmentError(f"node {nodes[bad][0]} out of range")
        # entry (pair g, node j, component i): row 3g + i, column 3 node_j + i
        rows.append(np.broadcast_to(3 * g[:, None, None] + xyz, nodes.shape + (3,)).ravel())
        cols.append((3 * nodes[:, :, None] + xyz).ravel())
        vals.append(np.repeat(sign * side.weights[g], 3, axis=1).ravel())
        g = np.flatnonzero(mine & posed)
        if g.size == 0:
            continue
        if n_dofs != 6:
            raise InvalidAttachmentError("rigid attachment on a non-rigid object")
        block = np.concatenate([np.broadcast_to(np.eye(3), (g.size, 3, 3)),
                                -_skew(side.lever[g])], axis=2)
        k, i, j = np.nonzero(block)
        rows.append(3 * g[k] + i)
        cols.append(j)
        vals.append(sign * block[k, i, j])
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * len(contacts), n_dofs),
    ).tocsr()
    if fixed_mask is not None and fixed_mask.any():
        keep = sp.diags(np.where(fixed_mask, 0.0, 1.0))
        S = S @ keep
    return S


def assemble_H(D: np.ndarray, G: sp.spmatrix) -> sp.csr_matrix:
    """Contact Jacobian H = D G; rows grouped (n, t1, t2) per pair."""
    c = 3 * len(D)
    if c != G.shape[0]:
        raise DimensionMismatchError(
            f"direction matrix acts on {c} proximity rows, mapping has {G.shape[0]}"
        )
    # every entry of the blocks, zeros included, as sp.block_diag stores them
    columns = (3 * np.arange(len(D))[:, None] + np.arange(3)).repeat(3, axis=0)
    D_sparse = sp.csr_matrix((D.ravel(), columns.ravel(), np.arange(0, 3 * c + 1, 3)),
                             shape=(c, c))
    return (D_sparse @ G).tocsr()


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
        # Fortran order: the solve gathers the permuted rows without buffering
        X = F.solve_multi(H.T.toarray(order="F"))
        W += H @ X
    return W


def contact_dofs(S: sp.spmatrix) -> np.ndarray:
    """The sorted DOFs a contact move displaces: the columns of S with a
    nonzero entry, or all six of a rigid body that contact reaches.

    Only a rigid body has six DOFs (:func:`build_signed_mapping`), and its
    pairs read its whole pose, so a DOF that S does not reach, such as a
    sphere's spin about its contact normal, still moves the contact point
    once A^-1 couples it to the reached ones.
    """
    S = S.tocsr()
    J = np.unique(S.indices[S.data != 0.0])
    return np.arange(6) if J.size and S.shape[1] == 6 else J


def _columns(S: sp.csr_matrix, J: np.ndarray) -> sp.csr_matrix:
    """``S[:, J]`` for sorted columns J: each row's entries in J, in S's order.

    Relabelling the column indices by ``searchsorted`` gives the entries
    and order of scipy's column indexing, without its general path. An
    entry outside J (an explicit zero, as a zero weight stores) is dropped,
    as the indexing drops it.
    """
    at = np.searchsorted(J, S.indices)
    hit = at < J.size
    hit[hit] = J[at[hit]] == S.indices[hit]
    indptr = np.concatenate(([0], np.cumsum(hit)))[S.indptr]
    return sp.csr_matrix((S.data[hit], at[hit], indptr), shape=(S.shape[0], J.size))


def assemble_Wg(
    S_by_object: dict[int, sp.spmatrix],
    F_by_object: dict[int, Factorization],
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """W_g = sum_obj S A^-1 S^T, the direction-independent compliance (3p x 3p),
    and ``(J, X_o)`` by object, X_o = S_J A^-1[J, J] over its contact DOFs J.

    Each object adds X_o S_J^T (J from :func:`contact_dofs`);
    :meth:`Factorization.inverse_block` supplies A^-1[J, J]. S_J stays
    sparse, each of its rows holding a few nonzeros, so both products cost
    O(|J|²) and not the O(|J|³) of a dense S_J. An object without contact
    DOFs has no X_o. W_g is returned Fortran-ordered, as the transpose of
    the C-ordered sum of X_o S_J^T, for :func:`rebuild_W_fast` to read by rows.
    """
    ids = sorted(S_by_object)
    if not ids:
        return np.zeros((0, 0)), {}
    dim = S_by_object[ids[0]].shape[0]
    wg_t = np.zeros((dim, dim))  # W_g^T
    X_by_object = {}
    for oid in ids:
        S = S_by_object[oid]
        F = F_by_object[oid]
        if S.shape[1] != F.dim:
            raise DimensionMismatchError(
                f"object {oid}: S has {S.shape[1]} columns, factorization dim {F.dim}"
            )
        S = S.tocsr()
        J = contact_dofs(S)
        if J.size == 0:
            continue
        SJ = _columns(S, J)
        X = SJ @ F.inverse_block(J)
        wg_t += SJ @ X.T
        X_by_object[oid] = (J, X)
    return wg_t.T, X_by_object


def rebuild_W_fast(D: np.ndarray, wg: np.ndarray, kept=None) -> np.ndarray:
    """W = D W_g D^T block by block, W[i, j] = D_i W_g[i, j] D_j^T for groups
    i, j, since D is block diagonal; no system solves, cost independent of n.

    Two batched products by row groups: V = D W_g^T, V[i] = D_i W_g[:, i]^T,
    then W = D V^T, since V^T = W_g D^T. Each reshape only splits the row
    axis, so it is a view for any layout of W_g, BLAS reads a transposed
    operand in place, and the result is C-contiguous: no transposed copy is
    made. The first product reads contiguous rows when W_g is
    Fortran-ordered, as :func:`assemble_Wg` returns it.

    ``kept`` is the W the Newton loop holds for these frames, or None. It
    is returned as it is, with no products: the loop keeps W only while D
    repeats, and W_g is fixed within a step. The fast Newton loop calls this
    in every iteration, W kept or not, because it is the iteration's first
    operation: the benchmark's layer tracer opens its iteration span at this
    call.
    """
    if kept is not None:
        return kept
    g = len(D)
    c = 3 * g
    if wg.shape != (c, c):
        raise DimensionMismatchError(f"direction matrix is {c} rows, W_g is {wg.shape}")
    V = D @ wg.T.reshape(g, 3, c)  # (g, 3, 3g)
    return (D @ V.reshape(c, c).T.reshape(g, 3, c)).reshape(c, c)


def compute_violation(D: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Projected gaps D r, rows (delta_n, delta_t1, delta_t2) per group."""
    rel = r.ravel()
    if rel.size != 3 * len(D):
        raise DimensionMismatchError(
            f"positions stack to {rel.size}, direction matrix expects {3 * len(D)}"
        )
    return np.einsum("gij,gj->gi", D, rel.reshape(-1, 3)).ravel()

