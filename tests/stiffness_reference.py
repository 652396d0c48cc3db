"""Batched stiffness and system-matrix assembly that ``dynamics`` replaced.

Kept as the test oracle. :func:`assemble_stiffness` builds the
``(3, 10, m)`` gradients of every tet's 10 upper node pairs and sums each
component with one ``np.bincount`` over the raveled ``(10, m)`` terms, local
pair first, then tet. :func:`system_matrix` builds A through a COO round
trip: K's entries off the fixed rows and columns, scaled, then the mass
diagonal, summed by the COO to CSR conversion. ``dynamics`` must give
K's ``data``, ``indices`` and ``indptr`` bit for bit, and those of A once
the blocks of rows that ``SoftBody.system_rows`` streams are stacked.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from contactnewton.dynamics import _PAIR_A, _PAIR_B, lame_parameters, shape_gradients


def assemble_stiffness(nodes: np.ndarray, tets: np.ndarray, young: float, poisson: float) -> sp.csr_matrix:
    n = len(nodes)
    if len(tets) == 0:
        return sp.csr_matrix((3 * n, 3 * n))
    lam, mu = lame_parameters(young, poisson)
    grads, vols = shape_gradients(nodes, tets)

    # pairs laid out (10, m), gradients (3, 10, m); each pair is oriented
    # so that p is its node with the lower global id
    ids = tets.T
    ia, ib = ids[_PAIR_A], ids[_PAIR_B]
    swap = ia > ib
    g = np.ascontiguousarray(grads.transpose(2, 1, 0))  # (3, 4, m)
    gp = np.where(swap, g[:, _PAIR_B], g[:, _PAIR_A])
    gq = np.where(swap, g[:, _PAIR_A], g[:, _PAIR_B])
    key = (np.minimum(ia, ib) * n + np.maximum(ia, ib)).ravel()
    upper, slot = np.unique(key, return_inverse=True)
    rows, cols = np.divmod(upper, n)

    lam_v = lam * vols
    mu_v = mu * vols
    mu_dot = mu_v * np.einsum("ikm,ikm->km", gp, gq)
    blocks = np.empty((len(upper), 3, 3))
    w = np.empty(ia.shape)
    t = np.empty(ia.shape)
    for i in range(3):
        for j in range(3):
            np.multiply(gp[i], gq[j], out=w)
            w *= lam_v
            np.multiply(gq[i], gp[j], out=t)
            t *= mu_v
            w += t
            if i == j:
                w += mu_dot
            blocks[:, i, j] = np.bincount(slot, weights=w.ravel(), minlength=len(upper))

    off = rows != cols
    block_rows = np.concatenate([rows, cols[off]])
    block_cols = np.concatenate([cols, rows[off]])
    blocks = np.concatenate([blocks, blocks[off].transpose(0, 2, 1)])
    order = np.argsort(block_rows * n + block_cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(block_rows, minlength=n), out=indptr[1:])
    K = sp.bsr_matrix((blocks[order], block_cols[order], indptr), shape=(3 * n, 3 * n))
    return K.tocsr()


def system_matrix(body, h: float) -> sp.csr_matrix:
    """A = (1 + h a) M + (h b + h^2) K of a ``SoftBody``, fixed rows and
    columns replaced by identity, with K from :func:`assemble_stiffness`."""
    mesh = body.mesh
    m3 = np.repeat(body.masses(), 3)
    fixed = body.fixed_mask
    K = assemble_stiffness(mesh.nodes, mesh.tets, body.young, body.poisson).tocoo()
    k_scale = h * body.rayleigh_stiffness + h * h
    keep = ~(fixed[K.row] | fixed[K.col])
    rows = K.row[keep]
    cols = K.col[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = k_scale * K.data[keep]
        diag = np.where(fixed, 1.0, (1.0 + h * body.rayleigh_mass) * m3)
    rows = np.concatenate([rows, np.arange(body.n_dofs)])
    cols = np.concatenate([cols, np.arange(body.n_dofs)])
    vals = np.concatenate([vals, diag])
    shape = (body.n_dofs, body.n_dofs)
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)
