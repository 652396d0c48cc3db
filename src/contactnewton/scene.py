"""Scene description, the time-stepping loop, and state persistence.

A scene file is YAML with the keys documented in the README (objects[],
gravity, dt, threshold, mu, pgs.*, newton.*, output.*). Soft bodies take
their tet mesh from a file in the minimal ASCII format or from a procedural
box; colliders are static planes, static or scripted (kinematic) triangle
meshes, and rigid spheres.

Each step runs: detect -> linearize -> assemble -> free motion -> violation
at the free state -> correction scheme (single / standard / fast) ->
integrate. Detection happens once per step; the correction schemes never
re-pair. A failed step leaves the previous state untouched.

:meth:`Simulation.detect` is the one detection path: pairs and frames of
given states at a given time. :meth:`Simulation.penetration` is the one
penetration measure: the worst geometric gap of given pairs at given
positions. A step's ``pen_before`` and ``pen_after`` are that measure at
the free and at the final positions.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np
import yaml
from scipy.spatial.transform import Rotation

from . import collision
from .collision import MeshGeometry, PlaneGeometry, Pose, SphereGeometry
from .constraints import assemble_Wg, build_signed_mapping
from .dynamics import (
    MechanicalState,
    RigidBody,
    SoftBody,
    compute_free_motion,
    integrate_correction,
)
from .errors import NonFiniteStateError, ParseError, ValidationError, as_number
from .linalg import Factorization
from .mesh import TetMesh, box_mesh, load_mesh, surface_triangles, surface_vertices
from .solver import (
    IterationStats,
    NewtonConfig,
    PgsConfig,
    StepContext,
    newton_fast,
    newton_standard,
)

DEFAULT_GRAVITY = (0.0, -9.81, 0.0)
DEFAULT_DT = 0.01
DEFAULT_THRESHOLD = 0.01
DEFAULT_MU = 0.5

SNAPSHOT_MAGIC = "CONTACTNEWTON-SNAPSHOT 1"


# --- object specifications ------------------------------------------------------


@dataclass
class SoftSpec:
    name: str
    mesh: TetMesh
    young: float = 1e4
    poisson: float = 0.3
    density: float = 1000.0
    rayleigh_mass: float = 0.1
    rayleigh_stiffness: float = 0.1
    fixed_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fixed_region: tuple | None = None  # (axis, min or None, max or None), re-applied on re-mesh
    velocity: tuple = (0.0, 0.0, 0.0)
    node_mass: float | None = None  # uniform per-node mass for tetless bodies
    extra_force: tuple | None = None  # constant per-node force, N
    box_params: dict | None = None  # procedural box origin of the mesh, if any


@dataclass
class PlaneSpec:
    name: str
    normal: tuple = (0.0, 1.0, 0.0)
    offset: float = 0.0


@dataclass
class RigidSphereSpec:
    name: str
    mass: float
    radius: float
    position: tuple = (0.0, 0.0, 0.0)
    velocity: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    inertia: np.ndarray | None = None  # default: solid sphere


@dataclass
class MotionSpec:
    axis: tuple = (0.0, 0.0, 1.0)
    center: tuple = (0.0, 0.0, 0.0)
    angular_velocity: float = 0.0  # rad/s
    velocity: tuple = (0.0, 0.0, 0.0)  # m/s


@dataclass
class KinematicMeshSpec:
    """Scripted (or, with zero motion, static) triangle-mesh collider."""

    name: str
    points: np.ndarray  # (n, 3) local coordinates
    triangles: np.ndarray  # (t, 3), outward wound
    motion: MotionSpec = field(default_factory=MotionSpec)


@dataclass
class OutputConfig:
    snapshots: bool = True
    metrics: bool = True
    every: int = 1

    def __post_init__(self):
        if self.every < 1:
            raise ValidationError(f"output.every must be >= 1, got {self.every}")


@dataclass
class SceneConfig:
    objects: list
    gravity: tuple = DEFAULT_GRAVITY
    h: float = DEFAULT_DT
    threshold: float = DEFAULT_THRESHOLD
    pgs: PgsConfig = field(default_factory=lambda: PgsConfig(friction=DEFAULT_MU))
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if self.h <= 0:
            raise ValidationError(f"dt must be positive, got {self.h}")
        if self.threshold <= 0:
            raise ValidationError(f"threshold must be positive, got {self.threshold}")
        if not self.objects:
            raise ValidationError("scene needs at least one object")


# --- scene file parsing ---------------------------------------------------------


def _require(mapping, key, where):
    if key not in mapping:
        raise ValidationError(f"{where}: missing required key '{key}'")
    return mapping[key]


_TOP_KEYS = ("objects", "gravity", "dt", "threshold", "mu", "pgs", "newton", "output")
_KINEMATIC_KEYS = ("name", "type", "plate", "mesh", "motion")
_OBJECT_KEYS = {
    "soft": ("name", "type", "mesh", "material", "fixed_nodes", "fixed_region", "velocity",
             "node_mass", "extra_force"),
    "plane": ("name", "type", "normal", "offset"),
    "kinematic_mesh": _KINEMATIC_KEYS,
    "static_mesh": _KINEMATIC_KEYS,
    "rigid_sphere": ("name", "type", "mass", "radius", "position", "velocity", "inertia"),
}
_MESH_KEYS = ("file", "box")


def _mapping(value, where, keys=None):
    """A scene section as a dict; an absent or empty section reads as {}.

    With ``keys`` given, any other key is an error: a misspelt key would
    otherwise leave its setting at the default without a word.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {value!r}")
    if keys is not None:
        for key in value:
            if key not in keys:
                raise ValidationError(
                    f"{where}: unknown key {key!r} (expected one of {', '.join(keys)})"
                )
    return value


def _array(value, where, dtype=np.float64):
    """``value`` as a flat finite array; an integer ``dtype`` takes whole numbers only."""
    try:
        arr = np.asarray(value, dtype=np.float64).ravel()
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected a list of numbers, got {value!r}") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{where}: expected finite numbers, got {value!r}")
    if np.issubdtype(dtype, np.integer):
        if not (arr == np.round(arr)).all():
            raise ValidationError(f"{where}: expected whole numbers, got {value!r}")
        return arr.astype(dtype)
    return arr


def _vec3(value, where):
    arr = _array(value, where)
    if arr.shape != (3,):
        raise ValidationError(f"{where}: expected 3 components, got {value!r}")
    return tuple(arr)


def _box_params(box, where):
    box = _mapping(box, where, ("size", "divisions", "center"))
    divisions = _array(_require(box, "divisions", where), f"{where}.divisions", np.int64)
    return {
        "size": _vec3(_require(box, "size", where), where),
        "divisions": tuple(int(d) for d in divisions),
        "center": _vec3(box.get("center", (0, 0, 0)), where),
    }


def _region_nodes(mesh, region):
    """Ids of the nodes inside a parsed ``fixed_region`` (none for ``None``)."""
    if region is None:
        return np.zeros(0, dtype=np.int64)
    axis, lo, hi = region
    coords = mesh.nodes[:, axis]
    mask = np.ones(len(coords), dtype=bool)
    if hi is not None:
        mask &= coords <= hi
    if lo is not None:
        mask &= coords >= lo
    return np.flatnonzero(mask)


def _load_mesh(section, name, base_dir):
    """The tet mesh of a ``mesh`` section, and its box parameters (None for a file)."""
    mesh_spec = _mapping(section, f"{name}.mesh", _MESH_KEYS)
    if "file" in mesh_spec:
        path = os.path.join(base_dir, mesh_spec["file"])
        if not os.path.exists(path):
            raise ValidationError(f"{name}: mesh file does not exist: {path}")
        return load_mesh(path), None
    if "box" in mesh_spec:
        box_params = _box_params(mesh_spec["box"], f"{name}.mesh.box")
        return box_mesh(**box_params), box_params
    raise ValidationError(f"{name}: mesh needs either 'file' or 'box'")


def _load_soft(entry, name, base_dir):
    mesh, box_params = _load_mesh(_require(entry, "mesh", name), name, base_dir)

    material = _mapping(
        entry.get("material"), f"{name}.material",
        ("young", "poisson", "density", "rayleigh_mass", "rayleigh_stiffness"),
    )
    fixed = _array(entry.get("fixed_nodes", []), f"{name}.fixed_nodes", np.int64)
    region = entry.get("fixed_region")
    if region is not None:
        region = _mapping(region, f"{name}.fixed_region", ("axis", "min", "max"))
        axis = {"x": 0, "y": 1, "z": 2}.get(region.get("axis"), region.get("axis"))
        if axis not in (0, 1, 2):
            raise ValidationError(f"{name}: fixed_region.axis must be x, y or z")
        region = (
            axis,
            as_number(region["min"], f"{name}.fixed_region.min") if "min" in region else None,
            as_number(region["max"], f"{name}.fixed_region.max") if "max" in region else None,
        )
        fixed = np.union1d(fixed, _region_nodes(mesh, region))
    extra = entry.get("extra_force")
    return SoftSpec(
        name=name,
        mesh=mesh,
        young=as_number(material.get("young", 1e4), f"{name}.material.young"),
        poisson=as_number(material.get("poisson", 0.3), f"{name}.material.poisson"),
        density=as_number(material.get("density", 1000.0), f"{name}.material.density"),
        rayleigh_mass=as_number(material.get("rayleigh_mass", 0.1), f"{name}.material.rayleigh_mass"),
        rayleigh_stiffness=as_number(
            material.get("rayleigh_stiffness", 0.1), f"{name}.material.rayleigh_stiffness"
        ),
        fixed_nodes=fixed,
        fixed_region=region,
        velocity=_vec3(entry.get("velocity", (0, 0, 0)), name),
        node_mass=(
            as_number(entry["node_mass"], f"{name}.node_mass") if "node_mass" in entry else None
        ),
        extra_force=_vec3(entry["extra_force"], name) if extra is not None else None,
        box_params=box_params,
    )


def _plate_mesh(entry, name):
    center = np.asarray(_vec3(_require(entry, "center", name), name))
    normal = np.asarray(_vec3(_require(entry, "normal", name), name))
    nn = np.linalg.norm(normal)
    if nn == 0:
        raise ValidationError(f"{name}: plate normal must be nonzero")
    normal = normal / nn
    size = _array(entry.get("size", (0.1, 0.1)), f"{name}.plate.size")
    if size.shape != (2,):
        raise ValidationError(f"{name}: plate size needs 2 components")
    w, hgt = float(size[0]), float(size[1])
    u = np.cross(normal, [0.0, 0.0, 1.0])
    if np.linalg.norm(u) < 1e-6:
        u = np.cross(normal, [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    corners = np.array(
        [
            center - 0.5 * w * u - 0.5 * hgt * v,
            center + 0.5 * w * u - 0.5 * hgt * v,
            center + 0.5 * w * u + 0.5 * hgt * v,
            center - 0.5 * w * u + 0.5 * hgt * v,
        ]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    # enforce the requested facing
    n0 = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    if n0 @ normal < 0:
        tris = tris[:, ::-1].copy()
    return corners, tris


def _load_kinematic(entry, name, base_dir):
    if "plate" in entry:
        points, tris = _plate_mesh(
            _mapping(entry["plate"], f"{name}.plate", ("center", "normal", "size")), name
        )
    elif "mesh" in entry:
        mesh, _ = _load_mesh(entry["mesh"], name, base_dir)
        points, tris = mesh.nodes, surface_triangles(mesh)
    else:
        raise ValidationError(f"{name}: kinematic object needs 'plate' or 'mesh'")
    motion = _mapping(
        entry.get("motion"), f"{name}.motion", ("axis", "center", "angular_velocity", "velocity")
    )
    spec = MotionSpec(
        axis=_vec3(motion.get("axis", (0, 0, 1)), name),
        center=_vec3(motion.get("center", (0, 0, 0)), name),
        angular_velocity=as_number(
            motion.get("angular_velocity", 0.0), f"{name}.motion.angular_velocity"
        ),
        velocity=_vec3(motion.get("velocity", (0, 0, 0)), name),
    )
    if spec.angular_velocity != 0.0 and not np.linalg.norm(spec.axis) > 0:
        raise ValidationError(f"{name}.motion.axis: a rotating object needs a nonzero axis")
    return KinematicMeshSpec(name=name, points=points, triangles=tris, motion=spec)


def _load_rigid_sphere(entry, name):
    mass = as_number(_require(entry, "mass", name), f"{name}.mass")
    radius = as_number(_require(entry, "radius", name), f"{name}.radius")
    if radius <= 0:
        raise ValidationError(f"{name}.radius: must be positive, got {radius}")
    inertia = entry.get("inertia")
    if inertia is None:
        inertia_mat = (0.4 * mass * radius * radius) * np.eye(3)
    else:
        arr = _array(inertia, f"{name}.inertia")
        if arr.size not in (3, 9):
            raise ValidationError(f"{name}: inertia needs 3 or 9 components")
        inertia_mat = np.diag(arr) if arr.size == 3 else arr.reshape(3, 3)
    vel = _array(entry.get("velocity", np.zeros(6)), f"{name}.velocity")
    if vel.shape == (3,):
        vel = np.concatenate([vel, np.zeros(3)])
    if vel.shape != (6,):
        raise ValidationError(f"{name}: rigid velocity needs 3 or 6 components")
    return RigidSphereSpec(
        name=name,
        mass=mass,
        radius=radius,
        position=_vec3(entry.get("position", (0, 0, 0)), name),
        velocity=tuple(vel),
        inertia=inertia_mat,
    )


def load_scene(path) -> SceneConfig:
    """Parse and validate a scene file; defaults are documented in the README."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ParseError(f"{loc}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scene file must be a mapping")
    _mapping(raw, "scene", _TOP_KEYS)
    base_dir = os.path.dirname(os.path.abspath(path))

    raw_objects = raw.get("objects", [])
    if not isinstance(raw_objects, list):
        raise ValidationError(f"objects: expected a list, got {raw_objects!r}")
    objects = []
    for i, entry in enumerate(raw_objects):
        entry = _mapping(entry, f"objects[{i}]")
        name = entry.get("name", f"object{i}")
        if any(spec.name == name for spec in objects):
            raise ValidationError(f"{name}: duplicate object name")
        kind = _require(entry, "type", name)
        if kind not in _OBJECT_KEYS:
            raise ValidationError(f"{name}: unknown object type {kind!r}")
        _mapping(entry, name, _OBJECT_KEYS[kind])
        if kind == "soft":
            objects.append(_load_soft(entry, name, base_dir))
        elif kind == "plane":
            objects.append(
                PlaneSpec(
                    name=name,
                    normal=_vec3(entry.get("normal", (0, 1, 0)), name),
                    offset=as_number(entry.get("offset", 0.0), f"{name}.offset"),
                )
            )
        elif kind in ("kinematic_mesh", "static_mesh"):
            spec = _load_kinematic(entry, name, base_dir)
            if kind == "static_mesh" and spec.motion != MotionSpec():
                raise ValidationError(f"{name}: static meshes cannot carry motion")
            objects.append(spec)
        else:
            objects.append(_load_rigid_sphere(entry, name))

    pgs_raw = _mapping(raw.get("pgs"), "pgs", ("iterations", "tolerance"))
    newton_raw = _mapping(
        raw.get("newton"), "newton", ("scheme", "iterations", "penetration_tol")
    )
    out_raw = _mapping(raw.get("output"), "output", ("snapshots", "metrics", "every"))
    config = SceneConfig(
        objects=objects,
        gravity=_vec3(raw.get("gravity", DEFAULT_GRAVITY), "gravity"),
        h=as_number(raw.get("dt", DEFAULT_DT), "dt"),
        threshold=as_number(raw.get("threshold", DEFAULT_THRESHOLD), "threshold"),
        pgs=PgsConfig(
            max_iterations=as_number(pgs_raw.get("iterations", 30), "pgs.iterations", int),
            tolerance=as_number(pgs_raw.get("tolerance", 1e-6), "pgs.tolerance"),
            friction=as_number(raw.get("mu", DEFAULT_MU), "mu"),
        ),
        newton=NewtonConfig(
            scheme=str(newton_raw.get("scheme", "single")),
            max_iterations=as_number(newton_raw.get("iterations", 5), "newton.iterations", int),
            penetration_tol=as_number(
                newton_raw.get("penetration_tol", 1e-5), "newton.penetration_tol"
            ),
        ),
        output=OutputConfig(
            snapshots=bool(out_raw.get("snapshots", True)),
            metrics=bool(out_raw.get("metrics", True)),
            every=as_number(out_raw.get("every", 1), "output.every", int),
        ),
    )
    return config


def with_box_divisions(config: SceneConfig, divisions) -> SceneConfig:
    """Copy of the scene with the first procedural soft box re-meshed.

    The box's ``fixed_region`` is applied again to the new mesh. Node ids
    given in ``fixed_nodes`` name nodes of the old mesh only, so a box that
    pins any node outside its region cannot be re-meshed.
    """
    objects = list(config.objects)
    for i, spec in enumerate(objects):
        if isinstance(spec, SoftSpec) and spec.box_params is not None:
            if not np.array_equal(spec.fixed_nodes, _region_nodes(spec.mesh, spec.fixed_region)):
                raise ValidationError(
                    f"{spec.name}: fixed_nodes name nodes of the original mesh "
                    "and cannot be carried over to a re-meshed box"
                )
            params = dict(spec.box_params)
            params["divisions"] = tuple(int(d) for d in divisions)
            mesh = box_mesh(**params)
            objects[i] = replace(
                spec, mesh=mesh, box_params=params,
                fixed_nodes=_region_nodes(mesh, spec.fixed_region),
            )
            return replace(config, objects=objects)
    raise ValidationError("scene has no procedural soft box to re-mesh")


# --- runtime objects ------------------------------------------------------------


class _SoftRuntime:
    kind = "soft"
    dynamic = True

    def __init__(self, oid, spec: SoftSpec):
        self.oid = oid
        self.spec = spec
        node_masses = None
        if spec.node_mass is not None:
            node_masses = np.full(spec.mesh.n_nodes, spec.node_mass)
        self.body = SoftBody(
            spec.mesh,
            young=spec.young,
            poisson=spec.poisson,
            density=spec.density,
            rayleigh_mass=spec.rayleigh_mass,
            rayleigh_stiffness=spec.rayleigh_stiffness,
            fixed_nodes=spec.fixed_nodes,
            node_masses=node_masses,
            extra_node_force=np.asarray(spec.extra_force) if spec.extra_force else None,
        )
        self.triangles = surface_triangles(spec.mesh)
        self.vertex_ids = surface_vertices(self.triangles) if len(self.triangles) else np.arange(spec.mesh.n_nodes)
        self.state = self.body.initial_state(spec.velocity)
        self.factorization = None  # A is constant (linear material): built once

    def geometry(self, states, t):
        return MeshGeometry(
            object_id=self.oid,
            points=states[self.oid].q.reshape(-1, 3),
            triangles=self.triangles,
            vertex_ids=self.vertex_ids,
            deformable=True,
        )

    def assemble(self, state, h, gravity):
        A, b = self.body.assemble(state, h, gravity)
        if self.factorization is None:
            self.factorization = Factorization(A)
        return self.factorization, b

    def view(self, q_by_object, t):
        return q_by_object[self.oid].reshape(-1, 3)

    def commit(self, state):
        self.state = state

    def saved_state(self):
        """(q, v) as the snapshot stores them."""
        return self.state.q.copy(), self.state.v.copy()


class _RigidRuntime:
    kind = "rigid"
    dynamic = True

    def __init__(self, oid, spec: RigidSphereSpec):
        self.oid = oid
        self.spec = spec
        self.body = RigidBody(mass=spec.mass, inertia=spec.inertia, radius=spec.radius)
        self.rotation = np.eye(3)
        q = np.concatenate([np.asarray(spec.position, dtype=np.float64), np.zeros(3)])
        self.state = MechanicalState(q, np.asarray(spec.velocity, dtype=np.float64))

    def pose_at(self, q):
        rot = Rotation.from_rotvec(q[3:]).as_matrix() @ self.rotation
        return Pose(rot, q[:3])

    def geometry(self, states, t):
        pose = self.pose_at(states[self.oid].q)
        return SphereGeometry(
            object_id=self.oid,
            center=pose.position,
            radius=self.spec.radius,
            pose=pose,
        )

    def assemble(self, state, h, gravity):
        A, b = self.body.assemble(self.rotation, h, gravity)
        return Factorization(A), b

    def view(self, q_by_object, t):
        return self.pose_at(q_by_object[self.oid])

    def commit(self, state):
        """Fold the rotation increment into the pose; quaternion re-normalized."""
        rot = Rotation.from_rotvec(state.q[3:]) * Rotation.from_matrix(self.rotation)
        quat = rot.as_quat()
        self.rotation = Rotation.from_quat(quat / np.linalg.norm(quat)).as_matrix()
        self.state = MechanicalState(
            np.concatenate([state.q[:3], np.zeros(3)]), state.v
        )

    def saved_state(self):
        """Position and orientation quaternion, and the 6-DOF velocity."""
        quat = Rotation.from_matrix(self.rotation).as_quat()
        return np.concatenate([self.state.q[:3], quat]), self.state.v.copy()


class _KinematicRuntime:
    kind = "kinematic"
    dynamic = False

    def __init__(self, oid, spec: KinematicMeshSpec):
        self.oid = oid
        self.spec = spec

    def pose_at(self, t):
        m = self.spec.motion
        axis = np.asarray(m.axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0 or m.angular_velocity == 0.0:
            rot = np.eye(3)
        else:
            rot = Rotation.from_rotvec(axis / n * (m.angular_velocity * t)).as_matrix()
        center = np.asarray(m.center)
        position = center - rot @ center + np.asarray(m.velocity) * t
        return Pose(rot, position)

    def geometry(self, states, t):
        pose = self.pose_at(t)
        return MeshGeometry(
            object_id=self.oid,
            points=pose.apply(self.spec.points),
            triangles=self.spec.triangles,
            vertex_ids=np.arange(len(self.spec.points)),
            deformable=False,
            pose=pose,
        )

    def view(self, q_by_object, t):
        return self.pose_at(t)

    def saved_state(self):
        return np.zeros(0), np.zeros(0)


class _PlaneRuntime:
    kind = "plane"
    dynamic = False

    def __init__(self, oid, spec: PlaneSpec):
        self.oid = oid
        self.spec = spec

    def geometry(self, states, t):
        return PlaneGeometry(object_id=self.oid, normal=self.spec.normal, offset=self.spec.offset)

    def view(self, q_by_object, t):
        return Pose.identity()  # a plane's points are fixed world points

    def saved_state(self):
        return np.zeros(0), np.zeros(0)


# --- step report ---------------------------------------------------------------


@dataclass
class StepReport:
    step: int
    time: float
    c_groups: int
    dofs: int
    newton_exit: str  # "penetration", "rotation" or "max_iterations"
    system_solves: int  # backsolves on the step's factorizations
    pen_before: float
    pen_after: float
    lambda_n_sum: float
    lambda_n_max: float
    lambda_t_max: float
    t_detect: float
    t_assemble: float
    t_free: float
    t_constraints: float
    t_build_wg: float
    t_final_correction: float
    t_step: float
    iterations: list[IterationStats]  # one record per Newton iteration

    CSV_FIELDS = (
        "step", "time", "c_groups", "dofs", "newton_iterations", "newton_exit",
        "pgs_iterations_total", "pgs_converged", "system_solves", "pen_before",
        "pen_after", "lambda_n_sum", "lambda_n_max", "lambda_t_max", "t_detect",
        "t_assemble", "t_free", "t_constraints", "t_build_wg", "t_rebuild_w",
        "t_pgs", "t_correction", "t_final_correction", "t_step",
    )

    def csv_row(self):
        return [getattr(self, name) for name in self.CSV_FIELDS]

    @property
    def newton_iterations(self) -> int:
        return len(self.iterations)

    @property
    def pgs_iterations_total(self) -> int:
        return sum(it.pgs_iterations for it in self.iterations)

    @property
    def pgs_converged(self) -> bool:
        """Every PGS solve of the step converged."""
        return all(it.pgs_converged for it in self.iterations)

    @property
    def t_rebuild_w(self) -> float:
        return sum(it.rebuild_time for it in self.iterations)

    @property
    def t_pgs(self) -> float:
        return sum(it.pgs_time for it in self.iterations)

    @property
    def t_correction(self) -> float:
        return sum(it.correction_time for it in self.iterations)


@dataclass
class PreparedStep:
    """What :meth:`Simulation.prepare_step` hands the correction and integration."""

    ctx: StepContext
    free: dict  # FreeMotion by dynamic object id
    pen_before: float  # penetration of the detected pairs at the free positions
    solves_before: int  # backsolves the step's factorizations had run before the free motion
    timings: dict  # seconds per phase, keyed by StepReport's t_detect ... t_build_wg


# --- simulation ------------------------------------------------------------------


class Simulation:
    """Owns the runtime objects and advances them step by step (transactional)."""

    def __init__(self, config: SceneConfig):
        self.config = config
        self.objects = []
        for oid, spec in enumerate(config.objects):
            if isinstance(spec, SoftSpec):
                self.objects.append(_SoftRuntime(oid, spec))
            elif isinstance(spec, RigidSphereSpec):
                self.objects.append(_RigidRuntime(oid, spec))
            elif isinstance(spec, KinematicMeshSpec):
                self.objects.append(_KinematicRuntime(oid, spec))
            elif isinstance(spec, PlaneSpec):
                self.objects.append(_PlaneRuntime(oid, spec))
            else:
                raise ValidationError(f"unsupported object spec {type(spec)!r}")
        self.time = 0.0
        self.step_index = 0
        self.last_pairs = collision.Contacts.empty()
        self.last_frames = np.zeros((0, 3, 3))
        self.last_lam = np.zeros(0)

    @property
    def dynamic_objects(self):
        return [o for o in self.objects if o.dynamic]

    def total_dofs(self) -> int:
        return sum(o.body.n_dofs for o in self.dynamic_objects)

    def _views(self, q_by_object, t):
        return {obj.oid: obj.view(q_by_object, t) for obj in self.objects}

    def detect(self, states, t):
        """The contacts at dynamic ``states`` and time ``t``, with their detection frames."""
        pairs = collision.detect([obj.geometry(states, t) for obj in self.objects],
                                 self.config.threshold)
        return pairs, collision.build_frames(pairs)

    def penetration(self, pairs, q_by_object, t) -> float:
        """Worst penetration of ``pairs`` at positions ``q_by_object`` and time ``t``
        (0.0 without pairs): geometric, so a stale-direction scheme cannot grade itself."""
        if not len(pairs):
            return 0.0
        return float(max(0.0, -collision.signed_gaps(pairs, self._views(q_by_object, t)).min()))

    def prepare_step(self) -> PreparedStep:
        """Run the pre-correction pipeline (detect through free violation).

        Commits nothing; the correction scheme and integration consume the
        record. Exposed so the verification command can probe the exact
        operators a step would use.
        """
        cfg = self.config
        h = cfg.h
        t_next = self.time + h
        t_begin = time.perf_counter()

        states = {o.oid: o.state for o in self.dynamic_objects}
        pairs, frames = self.detect(states, self.time)
        t_detect = time.perf_counter()

        factorizations = {}
        rhs = {}
        for obj in self.dynamic_objects:
            F, b = obj.assemble(states[obj.oid], h, cfg.gravity)
            factorizations[obj.oid] = F
            rhs[obj.oid] = b
        solves_before = sum(F.solve_count for F in factorizations.values())
        t_assemble = time.perf_counter()

        free = {}
        for obj in self.dynamic_objects:
            # an overflow is caught by the check below, before it reaches PGS
            with np.errstate(over="ignore", invalid="ignore"):
                fm = compute_free_motion(
                    factorizations[obj.oid], rhs[obj.oid], states[obj.oid], h
                )
            if not (np.isfinite(fm.q_free).all() and np.isfinite(fm.dv_free).all()):
                raise NonFiniteStateError(
                    f"step {self.step_index}: object {obj.oid} has a non-finite free "
                    "motion; nothing was committed"
                )
            free[obj.oid] = fm
        t_free = time.perf_counter()

        S = {
            obj.oid: build_signed_mapping(
                pairs, obj.oid, obj.body.n_dofs, obj.body.fixed_mask
            )
            for obj in self.dynamic_objects
        }

        def refresh(dv_total):
            q_by_object = {
                oid: free[oid].q_free + h * np.asarray(dv_total.get(oid, 0.0))
                for oid in free
            }
            p_a, p_b = collision.refresh_proximity(pairs, self._views(q_by_object, t_next))
            return p_a - p_b

        r0 = refresh({})
        pen_before = self.penetration(pairs, {oid: fm.q_free for oid, fm in free.items()}, t_next)
        ctx = StepContext(
            pairs=pairs,
            detection_frames=frames,
            S_by_object=S,
            F_by_object=factorizations,
            r0=r0,
            h=h,
            refresh=refresh,
        )
        t_constraints = time.perf_counter()

        if cfg.newton.scheme == "fast":
            ctx.wg = assemble_Wg(S, factorizations, ctx.dofs_by_object)
        timings = {
            "t_detect": t_detect - t_begin,
            "t_assemble": t_assemble - t_detect,
            "t_free": t_free - t_assemble,
            "t_constraints": t_constraints - t_free,
            "t_build_wg": time.perf_counter() - t_constraints,
        }
        return PreparedStep(ctx, free, pen_before, solves_before, timings)

    def step(self) -> StepReport:
        t_begin = time.perf_counter()
        cfg = self.config
        h = cfg.h
        t_next = self.time + h
        prep = self.prepare_step()
        ctx = prep.ctx
        if cfg.newton.scheme == "fast":
            result = newton_fast(ctx, cfg.newton, cfg.pgs)
        elif cfg.newton.scheme == "standard":
            result = newton_standard(ctx, cfg.newton, cfg.pgs)
        else:  # single corrective motion: the degenerate one-iteration loop
            result = newton_standard(ctx, replace(cfg.newton, max_iterations=1), cfg.pgs)

        new_states = {}
        for obj in self.dynamic_objects:
            dv = result.dv_by_object.get(obj.oid, np.zeros(obj.body.n_dofs))
            state = integrate_correction(obj.state, prep.free[obj.oid], dv, h)
            if not (np.isfinite(state.q).all() and np.isfinite(state.v).all()):
                raise NonFiniteStateError(
                    f"step {self.step_index}: object {obj.oid} would reach a non-finite "
                    "state; nothing was committed"
                )
            new_states[obj.oid] = state

        # end-of-step interpenetration of the pairs detected at the step start
        pen_after = self.penetration(ctx.pairs, {oid: s.q for oid, s in new_states.items()}, t_next)
        t_end = time.perf_counter()
        system_solves = sum(F.solve_count for F in ctx.F_by_object.values()) - prep.solves_before

        # commit
        for obj in self.dynamic_objects:
            obj.commit(new_states[obj.oid])
        self.time = t_next
        self.step_index += 1
        self.last_pairs = ctx.pairs
        self.last_frames = result.final_frames
        self.last_lam = lam = result.lam_history[-1]

        lam_groups = lam.reshape(-1, 3) if lam.size else np.zeros((0, 3))
        lam_t = np.hypot(lam_groups[:, 1], lam_groups[:, 2]) if len(lam_groups) else np.zeros(0)
        return StepReport(
            step=self.step_index - 1,
            time=self.time,
            c_groups=len(ctx.pairs),
            dofs=self.total_dofs(),
            newton_exit=result.exit,
            system_solves=system_solves,
            pen_before=prep.pen_before,
            pen_after=pen_after,
            lambda_n_sum=float(lam_groups[:, 0].sum()) if len(lam_groups) else 0.0,
            lambda_n_max=float(lam_groups[:, 0].max()) if len(lam_groups) else 0.0,
            lambda_t_max=float(lam_t.max()) if len(lam_t) else 0.0,
            **prep.timings,
            t_final_correction=result.final_correction_time,
            t_step=t_end - t_begin,
            iterations=result.iterations,
        )


# --- persistence -----------------------------------------------------------------


@dataclass
class Snapshot:
    step: int
    time: float
    objects: list  # (oid, kind, q, v)
    pairs: list  # (object_a, object_b, p_a, p_b, frame(3x3), lam(3))


def take_snapshot(sim: Simulation) -> Snapshot:
    objects = []
    for obj in sim.objects:
        objects.append((obj.oid, obj.kind, *obj.saved_state()))
    c = sim.last_pairs
    pairs = list(zip(c.a.object_id.tolist(), c.b.object_id.tolist(), c.a.point, c.b.point,
                     sim.last_frames, sim.last_lam.reshape(-1, 3)))
    return Snapshot(sim.step_index, sim.time, objects, pairs)


def save_snapshot(snap: Snapshot, path) -> None:
    """Self-describing binary: text header, float64 little-endian payload."""
    header = io.StringIO()
    header.write(SNAPSHOT_MAGIC + "\n")
    header.write(f"step {snap.step}\n")
    header.write(f"time {snap.time!r}\n")
    header.write(f"objects {len(snap.objects)}\n")
    payload = []
    for oid, kind, q, v in snap.objects:
        header.write(f"obj {oid} {kind} {len(q)} {len(v)}\n")
        payload.append(np.asarray(q, dtype="<f8"))
        payload.append(np.asarray(v, dtype="<f8"))
    header.write(f"pairs {len(snap.pairs)}\n")
    for oa, ob, pa, pb, frame, lam in snap.pairs:
        header.write(f"pair {oa} {ob}\n")
        payload.append(np.asarray(pa, dtype="<f8"))
        payload.append(np.asarray(pb, dtype="<f8"))
        payload.append(np.asarray(frame, dtype="<f8").ravel())
        payload.append(np.asarray(lam, dtype="<f8"))
    header.write("end\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("ascii"))
        for arr in payload:
            fh.write(arr.tobytes())


def load_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        blob = fh.read()
    end_marker = b"end\n"
    pos = blob.find(end_marker)
    if pos < 0 or not blob.startswith(SNAPSHOT_MAGIC.encode("ascii")):
        raise ParseError(f"{path}: not a snapshot file")
    try:
        it = iter(blob[:pos].decode("ascii").splitlines()[1:])
        step = int(next(it).split()[1])
        t = float(next(it).split()[1])
        obj_dims = []
        for _ in range(int(next(it).split()[1])):
            _, oid, kind, nq, nv = next(it).split()
            obj_dims.append((int(oid), kind, int(nq), int(nv)))
        pair_ids = []
        for _ in range(int(next(it).split()[1])):
            _, oa, ob = next(it).split()
            pair_ids.append((int(oa), int(ob)))
    except (StopIteration, IndexError, ValueError) as exc:
        raise ParseError(f"{path}: malformed snapshot header ({exc})") from exc
    payload = blob[pos + len(end_marker):]
    expected = sum(nq + nv for _, _, nq, nv in obj_dims) + 18 * len(pair_ids)
    if len(payload) != 8 * expected:
        raise ParseError(
            f"{path}: payload is {len(payload)} bytes, the header describes {8 * expected}"
        )
    data = np.frombuffer(payload, dtype="<f8")
    cursor = 0
    objects = []
    for oid, kind, nq, nv in obj_dims:
        q = data[cursor : cursor + nq].copy()
        cursor += nq
        v = data[cursor : cursor + nv].copy()
        cursor += nv
        objects.append((oid, kind, q, v))
    pairs = []
    for oa, ob in pair_ids:
        pa = data[cursor : cursor + 3].copy(); cursor += 3
        pb = data[cursor : cursor + 3].copy(); cursor += 3
        frame = data[cursor : cursor + 9].copy().reshape(3, 3); cursor += 9
        lam = data[cursor : cursor + 3].copy(); cursor += 3
        pairs.append((oa, ob, pa, pb, frame, lam))
    return Snapshot(step, t, objects, pairs)


def run(
    sim: Simulation,
    n_steps: int,
    out_dir=None,
    on_step=None,
) -> list[StepReport]:
    """Advance ``n_steps`` steps, writing snapshots and metrics per the output config."""
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    out = sim.config.output
    writer = None
    metrics_fh = None
    snap_dir = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if out.metrics:
            metrics_fh = open(os.path.join(out_dir, "metrics.csv"), "w", newline="")
            writer = csv.writer(metrics_fh)
            writer.writerow(StepReport.CSV_FIELDS)
        if out.snapshots:
            snap_dir = os.path.join(out_dir, "snapshots")
            os.makedirs(snap_dir, exist_ok=True)
    reports = []
    try:
        for _ in range(n_steps):
            report = sim.step()
            reports.append(report)
            if writer is not None:
                writer.writerow(report.csv_row())
            if snap_dir is not None and (report.step % out.every == 0):
                save_snapshot(
                    take_snapshot(sim),
                    os.path.join(snap_dir, f"step_{report.step:06d}.bin"),
                )
            if on_step is not None:
                on_step(report)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return reports
