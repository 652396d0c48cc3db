"""Mechanical models and implicit time integration.

Soft bodies are linear-elastic tetrahedral meshes with Rayleigh damping,
integrated with backward Euler: the step solves

    (M + h B + h^2 K) dv = h (f_ext - f(q, v)) - h^2 K v

with B = rayleigh_mass * M + rayleigh_stiffness * K. Because the material
is linear, K (and hence the system matrix) is constant, so the
factorization is reused across the whole simulation.

Rigid bodies carry 6 velocity DOFs (linear + angular); their system matrix
is the generalized mass with world-frame inertia, and the right-hand side
is the external impulse only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NonFiniteForceError, ValidationError
from .linalg import Factorization, SparseSym
from .mesh import TetMesh, check_positive_volumes, tet_volumes


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

    def copy(self) -> "MechanicalState":
        return MechanicalState(self.q.copy(), self.v.copy())


@dataclass
class FreeMotion:
    """Unconstrained velocity increment and positions, plus the step's factorization."""

    dv_free: np.ndarray
    q_free: np.ndarray
    factorization: Factorization


def lame_parameters(young: float, poisson: float) -> tuple[float, float]:
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return lam, mu


def shape_gradients(nodes: np.ndarray, tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant shape-function gradients per tet: (m, 4, 3), and volumes."""
    a = nodes[tets[:, 0]]
    edges = np.stack(
        [nodes[tets[:, i]] - a for i in (1, 2, 3)], axis=2
    )  # (m, 3, 3), columns are edge vectors
    vols = np.linalg.det(edges) / 6.0
    inv = np.linalg.inv(edges)  # rows of inv are gradients of nodes 1..3
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:, :] = inv
    grads[:, 0, :] = -inv.sum(axis=1)
    return grads, vols


def assemble_stiffness(nodes: np.ndarray, tets: np.ndarray, young: float, poisson: float) -> sp.csr_matrix:
    """Global stiffness of constant-strain tetrahedra (isotropic linear elasticity)."""
    n_dofs = 3 * len(nodes)
    if len(tets) == 0:
        return sp.csr_matrix((n_dofs, n_dofs))
    lam, mu = lame_parameters(young, poisson)
    grads, vols = shape_gradients(nodes, tets)
    # block (a, b) of the element matrix:
    #   V * (lam * g_a g_b^T + mu * g_b g_a^T + mu * (g_a . g_b) I)
    blocks = lam * np.einsum("e,eai,ebj->eabij", vols, grads, grads)
    blocks += mu * np.einsum("e,ebi,eaj->eabij", vols, grads, grads)
    dots = np.einsum("eai,ebi->eab", grads, grads)
    blocks += mu * np.einsum("e,eab,ij->eabij", vols, dots, np.eye(3))

    dof = 3 * tets[:, :, None] + np.arange(3)[None, None, :]  # (m, 4, 3)
    rows = np.broadcast_to(dof[:, :, None, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dof[:, None, :, None, :], blocks.shape).ravel()
    K = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n_dofs, n_dofs))
    return K.tocsr()


def lumped_masses(nodes: np.ndarray, tets: np.ndarray, density: float) -> np.ndarray:
    """Per-node lumped mass from tet volumes (kg)."""
    masses = np.zeros(len(nodes))
    if len(tets):
        share = density * tet_volumes(nodes, tets) / 4.0
        for i in range(4):
            np.add.at(masses, tets[:, i], share)
    return masses


@dataclass
class SoftBody:
    """Linear-FE tetrahedral body (or a bare particle cloud with explicit masses)."""

    mesh: TetMesh
    young: float = 1e4
    poisson: float = 0.3
    density: float = 1000.0
    rayleigh_mass: float = 0.1
    rayleigh_stiffness: float = 0.1
    fixed_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    node_masses: np.ndarray | None = None
    extra_node_force: np.ndarray | None = None  # constant (3,) N applied per node

    def __post_init__(self):
        if self.young <= 0:
            raise ValidationError(f"young modulus must be positive, got {self.young}")
        if not 0.0 <= self.poisson < 0.5:
            raise ValidationError(f"poisson ratio must be in [0, 0.5), got {self.poisson}")
        if self.density <= 0:
            raise ValidationError(f"density must be positive, got {self.density}")
        check_positive_volumes(self.mesh, "soft body")
        self.fixed_nodes = np.asarray(self.fixed_nodes, dtype=np.int64)
        outside = (self.fixed_nodes < 0) | (self.fixed_nodes >= self.mesh.n_nodes)
        if outside.any():
            raise ValidationError(
                f"fixed node ids {self.fixed_nodes[outside].tolist()} outside "
                f"[0, {self.mesh.n_nodes})"
            )
        if self.node_masses is not None:
            self.node_masses = np.asarray(self.node_masses, dtype=np.float64)
            if self.node_masses.shape != (self.mesh.n_nodes,):
                raise ValidationError("node_masses must list one mass per node")
        elif self.mesh.n_tets == 0:
            raise ValidationError("a body without tets needs explicit node_masses")
        self._stiffness = None
        self._masses = None
        self._system = None  # (h, A) of the last assemble

    @property
    def n_dofs(self) -> int:
        return 3 * self.mesh.n_nodes

    @property
    def fixed_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_dofs, dtype=bool)
        for node in self.fixed_nodes:
            mask[3 * node : 3 * node + 3] = True
        return mask

    def masses(self) -> np.ndarray:
        if self._masses is None:
            if self.node_masses is not None:
                self._masses = self.node_masses.copy()
            else:
                self._masses = lumped_masses(self.mesh.nodes, self.mesh.tets, self.density)
            if self._masses.min(initial=np.inf) <= 0 and self.mesh.n_nodes:
                raise ValidationError("every node needs positive mass")
        return self._masses

    def stiffness(self) -> sp.csr_matrix:
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(
                self.mesh.nodes, self.mesh.tets, self.young, self.poisson
            )
        return self._stiffness

    def internal_force(self, q: np.ndarray, v: np.ndarray, Kv=None) -> np.ndarray:
        """f(q, v) = K (q - q0) + (rayleigh_mass M + rayleigh_stiffness K) v.

        ``Kv`` is K v, for a caller that already has it.
        """
        K = self.stiffness()
        m3 = np.repeat(self.masses(), 3)
        disp = q - self.mesh.nodes.ravel()
        if Kv is None:
            Kv = K @ v
        return K @ disp + self.rayleigh_mass * (m3 * v) + self.rayleigh_stiffness * Kv

    def initial_state(self, velocity=(0.0, 0.0, 0.0)) -> MechanicalState:
        v = np.tile(np.asarray(velocity, dtype=np.float64), self.mesh.n_nodes)
        return MechanicalState(self.mesh.nodes.ravel().copy(), v)

    def assemble(self, state: MechanicalState, h: float, gravity) -> tuple[SparseSym, np.ndarray]:
        if h <= 0:
            raise ValidationError(f"time step must be positive, got {h}")
        m3 = np.repeat(self.masses(), 3)
        fixed = self.fixed_mask

        # A = (1 + h a) M + (h b + h^2) K, with fixed rows/cols replaced by
        # identity; it depends on h alone (linear material), so it is kept
        if self._system is None or self._system[0] != h:
            K = self.stiffness().tocoo()
            k_scale = h * self.rayleigh_stiffness + h * h
            keep = ~(fixed[K.row] | fixed[K.col])
            rows = K.row[keep]
            cols = K.col[keep]
            vals = k_scale * K.data[keep]
            diag = np.where(fixed, 1.0, (1.0 + h * self.rayleigh_mass) * m3)
            rows = np.concatenate([rows, np.arange(self.n_dofs)])
            cols = np.concatenate([cols, np.arange(self.n_dofs)])
            vals = np.concatenate([vals, diag])
            self._system = (h, SparseSym.from_triplets(self.n_dofs, rows, cols, vals, check=False))
        A = self._system[1]

        g = np.asarray(gravity, dtype=np.float64)
        f_ext = (m3 * np.tile(g, self.mesh.n_nodes)).astype(np.float64)
        if self.extra_node_force is not None:
            f_ext += np.tile(np.asarray(self.extra_node_force, dtype=np.float64), self.mesh.n_nodes)
        Kv = self.stiffness() @ state.v
        b = h * (f_ext - self.internal_force(state.q, state.v, Kv)) - h * h * Kv
        b[fixed] = 0.0
        if not np.all(np.isfinite(b)):
            raise NonFiniteForceError("assembled right-hand side is not finite")
        return A, b


@dataclass
class RigidBody:
    """Six-DOF rigid body; collision geometry is a sphere of given radius."""

    mass: float
    inertia: np.ndarray  # (3, 3) body frame, kg m^2
    radius: float = 0.1

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError(f"rigid mass must be positive, got {self.mass}")
        self.inertia = np.asarray(self.inertia, dtype=np.float64).reshape(3, 3)
        eig = np.linalg.eigvalsh(0.5 * (self.inertia + self.inertia.T))
        if eig.min() <= 0:
            raise ValidationError("rigid inertia must be symmetric positive definite")

    @property
    def n_dofs(self) -> int:
        return 6

    @property
    def fixed_mask(self) -> np.ndarray:
        return np.zeros(6, dtype=bool)

    def assemble(self, rotation: np.ndarray, h: float, gravity) -> tuple[SparseSym, np.ndarray]:
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
        return SparseSym(sp.csr_matrix(A), check=False), b


def compute_free_motion(
    F: Factorization, b: np.ndarray, state: MechanicalState, h: float
) -> FreeMotion:
    """dv_free = A^-1 b on the factorization of A, and the free positions."""
    dv = F.solve(b)
    q_free = state.q + h * (state.v + dv)
    return FreeMotion(dv, q_free, F)


def integrate_correction(
    state: MechanicalState, free: FreeMotion, dv_cor_total: np.ndarray, h: float
) -> MechanicalState:
    """Final velocities and positions once all corrective motion is known."""
    dv_cor_total = np.asarray(dv_cor_total, dtype=np.float64)
    v_new = state.v + free.dv_free + dv_cor_total
    q_new = free.q_free + h * dv_cor_total
    return MechanicalState(q_new, v_new)
