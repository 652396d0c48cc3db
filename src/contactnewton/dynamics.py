"""Mechanical models and implicit time integration.

Soft bodies are linear-elastic tetrahedral meshes with Rayleigh damping,
integrated with backward Euler: the step solves

    (M + h B + h^2 K) dv = h (f_ext - f(q, v)) - h^2 K v

with B = rayleigh_mass * M + rayleigh_stiffness * K. Because the material
is linear, K (and hence the system matrix) is constant, so the
factorization is reused across the whole simulation, and the right-hand
side takes one product with K:
h (f_ext - rayleigh_mass M v) - K (h (q - q0) + (h rayleigh_stiffness + h^2) v).

K is assembled once per body by node-pair blocks: each tet's gradients
come from edge cross products, its 10 upper 3x3 blocks (node pairs a <= b
in global id) are summed into the unique node-pair blocks one local pair
at a time, so no array holds more than one pair's terms, and the
off-diagonal blocks are mirrored, so K is exactly symmetric and stores one
full block per pair of nodes that share a tet. A tet so thin or so large
that a product of its gradients overflows gives a non-finite K, which is
reported as :class:`~.errors.NonFiniteForceError` before K is laid out.

The system matrix A is never held whole: :meth:`SoftBody.system_rows`
hands the factorization A's CSR rows a block of ``_ROW_BLOCK`` rows at a
time, each computed from K's rows in K's own pattern, and
:class:`~.linalg.Factorization` packs its band from them. A body keeps K,
which every step's right-hand side reads, and its factorization.

Rigid bodies carry 6 velocity DOFs (linear + angular); their system matrix
is the generalized mass with world-frame inertia, and the right-hand side
is the external impulse only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonFiniteForceError, ValidationError
from .linalg import Factorization, RowBlocks
from .mesh import TetMesh, check_positive_volumes

# relative asymmetry a rigid inertia may carry, against its largest entry
_SYM_RTOL = 1e-12
# rows of the system matrix per block of SoftBody.system_rows: on the column
# (about 39 stored entries a row) a block's temporaries stay near 1 MB
_ROW_BLOCK = 512


@dataclass
class MechanicalState:
    """Stacked DOF positions and velocities of one object.

    For rigid bodies q is a 6-vector (position, rotation increment from the
    step-start orientation); for soft bodies q stacks nodal positions.
    """

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64).ravel()
        self.v = np.asarray(self.v, dtype=np.float64).ravel()
        if self.q.shape != self.v.shape:
            raise ValidationError(
                f"q and v dimensions disagree: {self.q.shape} vs {self.v.shape}"
            )


@dataclass
class FreeMotion:
    """The unconstrained motion of one object, solved only where contact reads it.

    ``y`` is the forward pass of ``dv_free = A^-1 b`` (``Factorization.forward``),
    which the step's one final solve finishes together with the contact
    correction. The free positions ``q_free = q + h (v + dv_free)`` hold the
    rows of the backward pass, which runs only down to the earliest row of
    the DOFs the contact pairs read; the rows before it are NaN.
    """

    y: np.ndarray
    q_free: np.ndarray


def lame_parameters(young: float, poisson: float) -> tuple[float, float]:
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


def shape_gradients(nodes: np.ndarray, tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant shape-function gradients per tet: (m, 4, 3), and volumes.

    With edges e_i = x_i - x_0, the gradients of nodes 1..3 are
    e2 x e3, e3 x e1 and e1 x e2 over 6V, and node 0's is minus their sum.
    The volumes are those of ``mesh.tet_volumes``, bit for bit.
    """
    a = nodes[tets[:, 0]]
    e1, e2, e3 = (nodes[tets[:, i]] - a for i in (1, 2, 3))
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1] = np.cross(e2, e3)
    grads[:, 2] = np.cross(e3, e1)
    grads[:, 3] = np.cross(e1, e2)
    six_v = np.einsum("ij,ij->i", grads[:, 3], e3)
    grads[:, 1:] /= six_v[:, None, None]
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads, six_v / 6.0


# the 10 local node pairs (a, b), a <= b, of a tet
_PAIR_A = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_PAIR_B = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])


def _upper_blocks(nodes: np.ndarray, tets: np.ndarray, young: float, poisson: float):
    """The summed upper node-pair blocks of :func:`assemble_stiffness`:
    ``(rows, cols, blocks)``, ``rows <= cols`` in node ids, sorted by pair."""
    n = len(nodes)
    lam, mu = lame_parameters(young, poisson)
    grads, vols = shape_gradients(nodes, tets)
    g = np.ascontiguousarray(grads.transpose(2, 1, 0))  # (3, 4, m)

    # pairs laid out (10, m); slot[k, e] is the upper block of tet e's pair k
    ia, ib = tets.T[_PAIR_A], tets.T[_PAIR_B]
    key = np.minimum(ia, ib) * n + np.maximum(ia, ib)
    upper, slot = np.unique(key.ravel(), return_inverse=True)
    slot = slot.reshape(key.shape)
    swaps = ia > ib

    lam_v = lam * vols
    mu_v = mu * vols
    sums = np.zeros((9, len(upper)))  # component 3 i + j of every upper block
    w = np.empty(len(tets))
    t = np.empty(len(tets))
    for k, (a, b) in enumerate(zip(_PAIR_A, _PAIR_B)):
        # each pair is oriented so that p is its node with the lower global id
        gp = np.where(swaps[k], g[:, b], g[:, a])
        gq = np.where(swaps[k], g[:, a], g[:, b])
        mu_dot = mu_v * np.einsum("im,im->m", gp, gq)
        for i in range(3):
            for j in range(3):
                # lam V (p_i q_j) + mu V (q_i p_j): with p == q on a diagonal pair
                # this is symmetric in i, j bit for bit
                np.multiply(gp[i], gq[j], out=w)
                w *= lam_v
                np.multiply(gq[i], gp[j], out=t)
                t *= mu_v
                w += t
                if i == j:
                    w += mu_dot
                np.add.at(sums[3 * i + j], slot[k], w)
    rows, cols = np.divmod(upper, n)
    return rows, cols, sums.T.reshape(-1, 3, 3)


def assemble_stiffness(nodes: np.ndarray, tets: np.ndarray, young: float, poisson: float) -> sp.csr_matrix:
    """Global stiffness of constant-strain tetrahedra (isotropic linear elasticity).

    Block (a, b) of an element matrix is
    V (lam g_a g_b^T + mu g_b g_a^T + mu (g_a . g_b) I), and block (b, a) is
    its transpose. Each tet contributes its 10 blocks with a <= b in global
    node id; they are summed into the unique upper node-pair blocks one local
    pair at a time, each with an ``np.add.at`` per component, which adds in
    tet order: every block sums its terms local pair first, then tet. Each
    off-diagonal block is mirrored into its transposed place. So K == K^T bit
    for bit, and K stores one full 3x3 block per pair of nodes that share a
    tet. The temporaries are O(m) arrays of one local pair, and the summing
    ones are gone before K is laid out. A non-finite block raises
    :class:`NonFiniteForceError`.
    """
    n = len(nodes)
    if len(tets) == 0:
        return sp.csr_matrix((3 * n, 3 * n))
    # a tet too thin or too large for the float range overflows its
    # gradients or their products, which the finite check reports
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, blocks = _upper_blocks(nodes, tets, young, poisson)
    if not np.isfinite(blocks).all():
        raise NonFiniteForceError("stiffness is not finite: a tet is too thin or too "
                                  "large for the float range")
    off = rows != cols
    block_rows = np.concatenate([rows, cols[off]])
    block_cols = np.concatenate([cols, rows[off]])
    order = np.argsort(block_rows * n + block_cols)
    blocks = np.concatenate([blocks, blocks[off].transpose(0, 2, 1)])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(block_rows, minlength=n), out=indptr[1:])
    K = sp.bsr_matrix((blocks, block_cols[order], indptr), shape=(3 * n, 3 * n))
    return K.tocsr()


def lumped_masses(tets: np.ndarray, vols: np.ndarray, density: float, n_nodes: int) -> np.ndarray:
    """Per-node lumped mass (kg): a quarter of each tet's mass to each of its nodes."""
    share = density * vols / 4.0
    return np.bincount(tets.T.ravel(), weights=np.tile(share, 4), minlength=n_nodes)


@dataclass
class SoftBody:
    """Linear-FE tetrahedral body, or a bare particle cloud with a uniform node mass.

    ``node_mass`` (kg, > 0) gives every node that mass in place of the masses
    lumped from the tets; a body without tets needs it.
    """

    mesh: TetMesh
    young: float = 1e4
    poisson: float = 0.3
    density: float = 1000.0
    rayleigh_mass: float = 0.1
    rayleigh_stiffness: float = 0.1
    fixed_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    node_mass: float | None = None

    def __post_init__(self):
        if self.young <= 0:
            raise ValidationError(f"young modulus must be positive, got {self.young}")
        if not 0.0 <= self.poisson < 0.5:
            raise ValidationError(f"poisson ratio must be in [0, 0.5), got {self.poisson}")
        if self.density <= 0:
            raise ValidationError(f"density must be positive, got {self.density}")
        vols = check_positive_volumes(self.mesh, "soft body")
        self.fixed_nodes = np.asarray(self.fixed_nodes, dtype=np.int64)
        outside = (self.fixed_nodes < 0) | (self.fixed_nodes >= self.mesh.n_nodes)
        if outside.any():
            raise ValidationError(
                f"fixed node ids {self.fixed_nodes[outside].tolist()} outside "
                f"[0, {self.mesh.n_nodes})"
            )
        if self.node_mass is None:
            if self.mesh.n_tets == 0:
                raise ValidationError("a body without tets needs a node_mass")
            self._masses = lumped_masses(self.mesh.tets, vols, self.density, self.mesh.n_nodes)
            if self._masses.min() <= 0:
                raise ValidationError("every node needs positive mass: a node is in no tet")
        elif not self.node_mass > 0:
            raise ValidationError(f"node_mass must be positive, got {self.node_mass}")
        else:
            self._masses = np.full(self.mesh.n_nodes, self.node_mass, dtype=np.float64)
        fixed = np.zeros((self.mesh.n_nodes, 3), dtype=bool)
        fixed[self.fixed_nodes] = True
        fixed.flags.writeable = False
        self._fixed_mask = fixed.ravel()
        self._stiffness = None

    @property
    def n_dofs(self) -> int:
        return 3 * self.mesh.n_nodes

    @property
    def fixed_mask(self) -> np.ndarray:
        """Read-only: True on every DOF of a fixed node."""
        return self._fixed_mask

    def masses(self) -> np.ndarray:
        return self._masses

    def stiffness(self) -> sp.csr_matrix:
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(
                self.mesh.nodes, self.mesh.tets, self.young, self.poisson
            )
        return self._stiffness

    def initial_state(self, velocity=(0.0, 0.0, 0.0)) -> MechanicalState:
        v = np.tile(np.asarray(velocity, dtype=np.float64), self.mesh.n_nodes)
        return MechanicalState(self.mesh.nodes.ravel().copy(), v)

    def system_rows(self, h: float) -> RowBlocks:
        """The system matrix A = (1 + h a) M + (h b + h^2) K at time step h,
        fixed rows and columns replaced by identity, as CSR rows a block of
        ``_ROW_BLOCK`` at a time (:class:`~.linalg.RowBlocks`); A is never
        held whole.

        Each block is computed from K's rows in K's own pattern: K's entries
        scaled, those of a fixed row or column dropped but for its diagonal,
        a diagonal put in the rows of a node in no tet (which store none),
        and the mass diagonal added. A huge h or mass may overflow these
        products, as it does the right-hand side's: :meth:`assemble`'s
        finite check reports it, else the factorization's pivot check.
        """
        if h <= 0:
            raise ValidationError(f"time step must be positive, got {h}")
        return RowBlocks(self.n_dofs, lambda: self._system_blocks(h))

    def _system_blocks(self, h: float):
        K = self.stiffness()
        n = self.n_dofs
        fixed = self.fixed_mask
        pinned = fixed.any()  # else every entry of K is kept
        k_scale = h * self.rayleigh_stiffness + h * h
        with np.errstate(over="ignore", invalid="ignore"):
            diag = (1.0 + h * self.rayleigh_mass) * np.repeat(self.masses(), 3)
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            start, stop = K.indptr[lo], K.indptr[hi]
            counts = np.diff(K.indptr[lo:hi + 1])
            rows = np.repeat(np.arange(lo, hi), counts)
            indices, data = K.indices[start:stop], K.data[start:stop]
            on_diag = rows == indices
            if pinned:
                keep = on_diag | ~(fixed[rows] | fixed[indices])
                rows, on_diag, indices, data = rows[keep], on_diag[keep], indices[keep], data[keep]
                counts = np.bincount(rows - lo, minlength=hi - lo)
            with np.errstate(over="ignore", invalid="ignore"):
                data = k_scale * data
            bare = np.flatnonzero(counts == 0)
            if bare.size:
                at = (np.cumsum(counts) - counts)[bare]
                data = np.insert(data, at, 0.0)
                indices = np.insert(indices, at, lo + bare)
                on_diag = np.insert(on_diag, at, True)
                counts[bare] = 1
            with np.errstate(over="ignore", invalid="ignore"):
                data[on_diag] = np.where(fixed[lo:hi], 1.0, data[on_diag] + diag[lo:hi])
            indptr = np.zeros(hi - lo + 1, dtype=K.indptr.dtype)
            np.cumsum(counts, out=indptr[1:])
            yield lo, indptr, indices, data

    def assemble(self, state: MechanicalState, h: float, gravity) -> np.ndarray:
        """The right-hand side b of the step from ``state``; the system
        matrix is :meth:`system_rows`, constant for a fixed h."""
        if h <= 0:
            raise ValidationError(f"time step must be positive, got {h}")
        m3 = np.repeat(self.masses(), 3)
        fixed = self.fixed_mask

        # h (f_ext - f(q, v)) - h^2 K v, the K terms of the internal force
        # f(q, v) = K (q - q0) + (rayleigh_mass M + rayleigh_stiffness K) v
        # gathered into one product; the finite check reports an overflow
        g = np.asarray(gravity, dtype=np.float64)
        disp = state.q - self.mesh.nodes.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            f_ext = (m3 * np.tile(g, self.mesh.n_nodes)).astype(np.float64)
            k_arg = h * disp + (h * self.rayleigh_stiffness + h * h) * state.v
            b = h * (f_ext - self.rayleigh_mass * (m3 * state.v)) - self.stiffness() @ k_arg
        b[fixed] = 0.0
        if not np.all(np.isfinite(b)):
            raise NonFiniteForceError("assembled right-hand side is not finite")
        return b


@dataclass
class RigidBody:
    """Six-DOF rigid body; collision geometry is a sphere of given radius."""

    mass: float
    inertia: np.ndarray | None = None  # (3, 3) body frame, kg m^2; default: solid sphere
    radius: float = 0.1

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError(f"rigid mass must be positive, got {self.mass}")
        if self.inertia is None:
            self.inertia = (0.4 * self.mass * self.radius * self.radius) * np.eye(3)
        self.inertia = np.asarray(self.inertia, dtype=np.float64).reshape(3, 3)
        # the factorization of the rigid system reads only its upper triangle
        asymmetry = np.abs(self.inertia - self.inertia.T).max()
        if asymmetry > _SYM_RTOL * max(np.abs(self.inertia).max(), 1.0):
            raise ValidationError(
                f"rigid inertia must be symmetric, max asymmetry {asymmetry:.3e}"
            )
        eig = np.linalg.eigvalsh(0.5 * (self.inertia + self.inertia.T))
        if eig.min() <= 0:
            raise ValidationError("rigid inertia must be symmetric positive definite")

    @property
    def n_dofs(self) -> int:
        return 6

    @property
    def fixed_mask(self) -> np.ndarray:
        return np.zeros(6, dtype=bool)

    def assemble(self, rotation: np.ndarray, h: float, gravity) -> tuple[sp.csr_matrix, np.ndarray]:
        """Generalized mass and external impulse; no internal forces."""
        if h <= 0:
            raise ValidationError(f"time step must be positive, got {h}")
        A = np.zeros((6, 6))
        A[:3, :3] = self.mass * np.eye(3)
        A[3:, 3:] = rotation @ self.inertia @ rotation.T
        b = np.zeros(6)
        b[:3] = h * self.mass * np.asarray(gravity, dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise NonFiniteForceError("assembled right-hand side is not finite")
        return sp.csr_matrix(A), b


def compute_free_motion(
    F: Factorization, b: np.ndarray, state: MechanicalState, h: float, dofs=None
) -> FreeMotion:
    """The free motion A^-1 b on the factorization of A, and the free positions,
    on the rows the backward pass reaches from the DOFs ``dofs`` on (all rows
    when ``dofs`` is None)."""
    y = F.forward(b)
    dv = F.backward(y, dofs)
    return FreeMotion(y, state.q + h * (state.v + dv))


def integrate_correction(state: MechanicalState, dv: np.ndarray, h: float) -> MechanicalState:
    """The committed state from the step's whole velocity increment ``dv``,
    free motion and contact correction together: v + dv and q + h (v + dv)."""
    v_new = state.v + np.asarray(dv, dtype=np.float64)
    return MechanicalState(state.q + h * v_new, v_new)
