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
in global id) are summed into the unique node-pair blocks with one
``np.bincount`` per component, and the off-diagonal blocks are mirrored,
so K is exactly symmetric and stores one full block per pair of nodes
that share a tet.

Rigid bodies carry 6 velocity DOFs (linear + angular); their system matrix
is the generalized mass with world-frame inertia, and the right-hand side
is the external impulse only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonFiniteForceError, ValidationError
from .linalg import Factorization
from .mesh import TetMesh, check_positive_volumes

# relative asymmetry a rigid inertia may carry, against its largest entry
_SYM_RTOL = 1e-12


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


def assemble_stiffness(nodes: np.ndarray, tets: np.ndarray, young: float, poisson: float) -> sp.csr_matrix:
    """Global stiffness of constant-strain tetrahedra (isotropic linear elasticity).

    Block (a, b) of an element matrix is
    V (lam g_a g_b^T + mu g_b g_a^T + mu (g_a . g_b) I), and block (b, a) is
    its transpose. Each tet contributes its 10 blocks with a <= b in global
    node id; they are summed into the unique upper node-pair blocks with one
    ``np.bincount`` per component, and each off-diagonal block is mirrored
    into its transposed place. So K == K^T bit for bit, and K stores one full
    3x3 block per pair of nodes that share a tet.
    """
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
            # lam V (p_i q_j) + mu V (q_i p_j): with p == q on a diagonal pair
            # this is symmetric in i, j bit for bit
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
        self._system = None  # (h, A) of the last assemble

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

    def assemble(self, state: MechanicalState, h: float, gravity) -> tuple[sp.csr_matrix, np.ndarray]:
        if h <= 0:
            raise ValidationError(f"time step must be positive, got {h}")
        m3 = np.repeat(self.masses(), 3)
        fixed = self.fixed_mask

        # A = (1 + h a) M + (h b + h^2) K, with fixed rows/cols replaced by
        # identity; it depends on h alone (linear material), so it is kept.
        # A huge h or mass may overflow its products, as it does the
        # right-hand side's, which the finite check below reports
        if self._system is None or self._system[0] != h:
            K = self.stiffness().tocoo()
            k_scale = h * self.rayleigh_stiffness + h * h
            keep = ~(fixed[K.row] | fixed[K.col])
            rows = K.row[keep]
            cols = K.col[keep]
            with np.errstate(over="ignore", invalid="ignore"):
                vals = k_scale * K.data[keep]
                diag = np.where(fixed, 1.0, (1.0 + h * self.rayleigh_mass) * m3)
            rows = np.concatenate([rows, np.arange(self.n_dofs)])
            cols = np.concatenate([cols, np.arange(self.n_dofs)])
            vals = np.concatenate([vals, diag])
            shape = (self.n_dofs, self.n_dofs)
            self._system = (h, sp.csr_matrix((vals, (rows, cols)), shape=shape))
        A = self._system[1]

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
        return A, b


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
