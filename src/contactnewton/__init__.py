"""Implicit FEM contact dynamics with recursive constraint correction.

The package couples linear-FE soft bodies and rigid spheres through
Signorini/Coulomb contact constraints solved by projected Gauss-Seidel,
and offers three correction schemes per time step: the classic single
corrective motion, a recursive (Newton) correction that rebuilds the
compliance operator from system solves every iteration, and a fast
recursive correction that rebuilds it by a blockwise congruence of the
direction-independent mapping compliance and updates the relative proximity
positions without touching the mechanical system.
"""

from .collision import Contacts, build_frames, detect, relinearize
from .constraints import (
    apply_transposed,
    assemble_direction,
    assemble_H,
    assemble_W_standard,
    assemble_Wg,
    compute_violation,
    fast_update_proximity,
    rebuild_W_fast,
)
from .dynamics import (
    FreeMotion,
    MechanicalState,
    RigidBody,
    SoftBody,
    compute_free_motion,
    integrate_correction,
)
from .errors import (
    ContactNewtonError,
    DegenerateFrameError,
    DegenerateTetError,
    DimensionMismatchError,
    InvalidAttachmentError,
    NonFiniteForceError,
    NonFiniteStateError,
    NotSPDError,
    ParseError,
    SingularBlockError,
    ValidationError,
)
from .linalg import Factorization, SparseSym
from .mesh import TetMesh, box_mesh, load_mesh, save_mesh
from .scene import (
    SceneConfig,
    Simulation,
    Snapshot,
    StepReport,
    load_scene,
    load_snapshot,
    run,
    save_snapshot,
    take_snapshot,
)
from .solver import NewtonConfig, PgsConfig, local_solve, newton_fast, newton_standard, pgs

__version__ = "0.1.0"
