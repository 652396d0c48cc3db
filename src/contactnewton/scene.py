"""Scene description, the time-stepping loop, and state persistence.

A scene file is YAML with the keys documented in the README (objects[],
gravity, dt, threshold, mu, pgs.*, newton.*, output.*). Soft bodies take
their tet mesh from a file in the minimal ASCII format or from a procedural
box; colliders are static planes, static or scripted (kinematic) triangle
meshes, and rigid spheres.

Each step runs: detect -> linearize -> assemble -> free motion -> violation
at the free state -> correction scheme (single / standard / fast) ->
integrate. Detection happens once per step; the correction schemes never
re-pair. The free motion is solved only on the rows the detected pairs
read (each runtime's ``read_dofs``), and the step's final solve, one per
body, gives the whole velocity increment, free motion and correction
together. A failed step leaves the previous state untouched.

The signed mappings S, and under the fast scheme W_g and X_o, are rebuilt
only when a step's attachments differ from the previous committed step's
(each side's object ids, node ids, weights and lever arms, compared byte
for byte) or, for W_g and X_o, when its factorizations are other objects
(a rigid body factors anew each step). Otherwise the step takes that
step's arrays, read-only and bit for bit what a rebuild would compute.
Nothing that depends on the frames D crosses a step: the Newton loop builds
D, W and W's preparation for the contact solve in every step, within it.

:meth:`Simulation.detect` is the one detection path: pairs and frames of
given states at a given time. :meth:`Simulation.penetration` is the one
penetration measure: the worst geometric gap of given pairs at given
positions. A step's ``pen_before`` and ``pen_after`` are that measure at
the free and at the final positions.

The rigid and kinematic runtimes turn their poses with the float formulas
of :mod:`.rotations`: bit for bit scipy's ``Rotation``, without importing
scipy's transform subpackage (about 7 MB of resident memory). A rigid
sphere holds its orientation as one unit quaternion: a view turns it by
the state's rotation increment, a commit keeps the quaternion that view
turned to, and a snapshot writes it. A rotation vector whose angle is not
finite raises :class:`NonFiniteStateError` with the object's name.

:func:`run` writes a snapshot of the committed state as one uncompressed
``snapshots/step_NNNNNN.npz`` (see :func:`save_snapshot` for its keys); read
it back with ``np.load``.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time
from collections import deque
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np
import yaml

from . import collision, rotations
from .collision import MeshGeometry, PlaneGeometry, Pose, SphereGeometry
from .constraints import assemble_Wg, build_signed_mapping
from .dynamics import (
    MechanicalState,
    RigidBody,
    SoftBody,
    compute_free_motion,
    integrate_correction,
)
from .errors import (
    MAX_WHOLE,
    ContactNewtonError,
    NonFiniteStateError,
    ParseError,
    ValidationError,
    as_number,
)
from .linalg import Factorization
from .mesh import box_mesh, load_mesh, surface_triangles, surface_vertices
from .solver import (
    IterationStats,
    NewtonConfig,
    PgsConfig,
    StepContext,
    newton_fast,
    newton_standard,
)

# --- object specifications ------------------------------------------------------


@dataclass
class SoftSpec:
    name: str
    body: SoftBody
    fixed_region: tuple | None = None  # (axis, min or None, max or None), re-applied on re-mesh
    velocity: tuple = (0.0, 0.0, 0.0)
    box_params: dict | None = None  # procedural box origin of the mesh, if any


@dataclass
class PlaneSpec:
    name: str
    normal: tuple = (0.0, 1.0, 0.0)
    offset: float = 0.0


@dataclass
class RigidSphereSpec:
    name: str
    body: RigidBody
    position: tuple = (0.0, 0.0, 0.0)
    velocity: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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
        for key in ("snapshots", "metrics"):
            if not isinstance(getattr(self, key), bool):
                raise ValidationError(
                    f"output.{key}: expected true or false, got {getattr(self, key)!r}"
                )
        if self.every < 1:
            raise ValidationError(f"output.every must be >= 1, got {self.every}")


@dataclass
class SceneConfig:
    objects: list
    gravity: tuple = (0.0, -9.81, 0.0)
    h: float = 0.01
    threshold: float = 0.01
    pgs: PgsConfig = field(default_factory=PgsConfig)
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
#
# A section's settings are read through a table that maps each scene key to
# the dataclass field it sets and the parser of its value. Only the keys a
# file sets are passed on, so the dataclass default is the one default of
# each setting; a value the physics cannot use is refused by the dataclass
# that holds it, and the loader names the object in that error.
#
# ``require``, ``as_mapping``, ``read_settings`` and ``as_count`` are the
# public table API; the bench spec loader reads its file through them too.


def require(mapping, key, where):
    """``mapping[key]``; a missing key is a :class:`ValidationError` naming ``where``."""
    if key not in mapping:
        raise ValidationError(f"{where}: missing required key '{key}'")
    return mapping[key]


def as_mapping(value, where, keys=None):
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


def read_settings(section, where, table):
    """Keyword arguments for the keys of ``table`` that ``section`` sets.

    ``table`` maps a scene key to ``(field, parse)``; ``parse(value, path)``
    converts the value and names ``path``, ``<where>.<key>``, in its error.
    A key written with no value (YAML null) is an error.
    """
    prefix = f"{where}." if where else ""
    out = {}
    for key, (name, parse) in table.items():
        if key in section:
            if section[key] is None:
                raise ValidationError(f"{prefix}{key}: no value given")
            out[name] = parse(section[key], prefix + key)
    return out


def _as_is(value, where):
    return value


def as_count(value, where):
    """``value`` as a whole number, as :func:`~.errors.as_number` with ``kind=int``."""
    return as_number(value, where, int)


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _array(value, where, dtype=np.float64):
    """``value`` as a flat finite array; an integer ``dtype`` takes whole
    numbers of size below :data:`~.errors.MAX_WHOLE` only.

    A bool (YAML ``true``/``false``) is refused, as by
    :func:`~.errors.as_number`, though numpy reads it as 1 or 0.
    """
    if _holds_bool(value):
        raise ValidationError(f"{where}: expected a list of numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=np.float64).ravel()
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected a list of numbers, got {value!r}") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{where}: expected finite numbers, got {value!r}")
    if np.issubdtype(dtype, np.integer):
        if not (arr == np.round(arr)).all():
            raise ValidationError(f"{where}: expected whole numbers, got {value!r}")
        if (np.abs(arr) >= MAX_WHOLE).any():  # 1e308 would not even cast
            raise ValidationError(f"{where}: expected whole numbers of size below 2**53, "
                                  f"got {value!r}")
        return arr.astype(dtype)
    return arr


def _node_ids(value, where):
    return _array(value, where, np.int64)


def _vec3(value, where):
    arr = _array(value, where)
    if arr.shape != (3,):
        raise ValidationError(f"{where}: expected 3 components, got {value!r}")
    return tuple(arr)


def _scaled_vec3(value, where):
    """A 3-vector scaled by the power of two that brings its largest
    magnitude into [0.5, 1), so that its norm neither overflows nor
    underflows. The scaling is exact, so its normalization has the bits of
    the given vector's wherever that one's norm neither overflows nor
    underflows. A zero vector stays zero."""
    vec = np.array(_vec3(value, where))
    return tuple(np.ldexp(vec, -np.frexp(np.abs(vec).max())[1]))


def _direction(value, where):
    """A nonzero 3-vector, scaled as :func:`_scaled_vec3` (not normalized)."""
    vec = _scaled_vec3(value, where)
    if not any(vec):
        raise ValidationError(f"{where}: must be nonzero, got {value!r}")
    return vec


def _twist(value, where):
    """A rigid velocity: 3 linear, or 6 linear + angular components."""
    arr = _array(value, where)
    if arr.shape == (3,):
        arr = np.concatenate([arr, np.zeros(3)])
    if arr.shape != (6,):
        raise ValidationError(f"{where}: rigid velocity needs 3 or 6 components")
    return tuple(arr)


def _inertia(value, where):
    arr = _array(value, where)
    if arr.size not in (3, 9):
        raise ValidationError(f"{where}: inertia needs 3 or 9 components")
    return np.diag(arr) if arr.size == 3 else arr.reshape(3, 3)


def _named(name, build, **kwargs):
    """``build(**kwargs)``, with the object's name in front of any error it raises."""
    try:
        return build(**kwargs)
    except ContactNewtonError as exc:
        raise type(exc)(f"{name}: {exc}") from None


_TOP = {"gravity": ("gravity", _vec3), "dt": ("h", as_number),
        "threshold": ("threshold", as_number)}
_FRICTION = {"mu": ("friction", as_number)}
_PGS = {"iterations": ("max_iterations", as_count)}
_NEWTON = {"scheme": ("scheme", _as_is), "iterations": ("max_iterations", as_count),
           "penetration_tol": ("penetration_tol", as_number)}
_OUTPUT = {"snapshots": ("snapshots", _as_is), "metrics": ("metrics", _as_is),
           "every": ("every", as_count)}
_TOP_KEYS = ("objects", *_TOP, *_FRICTION, "pgs", "newton", "output")

# The largest size or plane offset, in m: a triangle's normal is a product of
# two lengths and its norm squares that; the shipped scenes are below a metre.
MAX_LENGTH = 1.0e6


def _length(value, where, read=as_number):
    """``read(value, where)``, lengths in m, if none exceeds :data:`MAX_LENGTH`."""
    value = read(value, where)
    if np.abs(value).max(initial=0.0) > MAX_LENGTH:
        raise ValidationError(f"{where}: {np.abs(value).max():g} m is above {MAX_LENGTH:g} m")
    return value


_BOX = {"center": ("center", _vec3)}
_MATERIAL = {key: (key, as_number)
             for key in ("young", "poisson", "density", "rayleigh_mass", "rayleigh_stiffness")}
_SOFT_BODY = {"fixed_nodes": ("fixed_nodes", _node_ids), "node_mass": ("node_mass", as_number)}
_SOFT = {"velocity": ("velocity", _vec3)}
_PLANE = {"normal": ("normal", _direction), "offset": ("offset", _length)}
_MOTION = {"axis": ("axis", _scaled_vec3), "center": ("center", _vec3),
           "angular_velocity": ("angular_velocity", as_number), "velocity": ("velocity", _vec3)}
_RIGID_BODY = {"mass": ("mass", as_number), "inertia": ("inertia", _inertia)}
_RIGID = {"position": ("position", _vec3), "velocity": ("velocity", _twist)}

_KINEMATIC_KEYS = ("name", "type", "plate", "mesh", "motion")
_OBJECT_KEYS = {
    "soft": ("name", "type", "mesh", "material", "fixed_region", *_SOFT_BODY, *_SOFT),
    "plane": ("name", "type", *_PLANE),
    "kinematic_mesh": _KINEMATIC_KEYS,
    "static_mesh": _KINEMATIC_KEYS,
    "rigid_sphere": ("name", "type", "radius", *_RIGID_BODY, *_RIGID),
}
_MESH_KEYS = ("file", "box")


# The most nodes a procedural box may have. Meshing a box of 10^5 nodes
# takes about 0.2 GB, one of 10^6 about 1.5 GB; the benchmark column has 3008.
# This bounds the meshing only: the factorization's band grows with the box's
# cross-section and is bounded apart (linalg.MAX_BAND_BYTES).
MAX_BOX_NODES = 100_000


def _box_divisions(divisions, where):
    """``divisions`` as 3 whole numbers; a box of more than
    :data:`MAX_BOX_NODES` nodes is refused before it is meshed."""
    divisions = _array(divisions, where, np.int64)
    if divisions.shape != (3,):
        raise ValidationError(f"{where}: expected 3 components, got {divisions.tolist()}")
    divisions = tuple(int(d) for d in divisions)
    nodes = math.prod(d + 1 for d in divisions)
    if min(divisions) >= 1 and nodes > MAX_BOX_NODES:
        raise ValidationError(
            f"{where}: {list(divisions)} make {nodes} nodes, more than {MAX_BOX_NODES}"
        )
    return divisions


def _box_params(box, where):
    box = as_mapping(box, where, ("size", "divisions", *_BOX))
    return {
        "size": _length(require(box, "size", where), f"{where}.size", _vec3),
        "divisions": _box_divisions(require(box, "divisions", where), f"{where}.divisions"),
        **read_settings(box, where, _BOX),
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
    mesh_spec = as_mapping(section, f"{name}.mesh", _MESH_KEYS)
    if "file" in mesh_spec:
        file = mesh_spec["file"]
        if not isinstance(file, str):
            raise ValidationError(f"{name}.mesh.file: expected a path, got {file!r}")
        path = os.path.join(base_dir, file)
        if not os.path.isfile(path):
            raise ValidationError(f"{name}: no mesh file at {path}")
        return load_mesh(path), None
    if "box" in mesh_spec:
        box_params = _box_params(mesh_spec["box"], f"{name}.mesh.box")
        return _named(name, box_mesh, **box_params), box_params
    raise ValidationError(f"{name}: mesh needs either 'file' or 'box'")


def _fixed_region(region, where):
    region = as_mapping(region, where, ("axis", "min", "max"))
    axis = region.get("axis")
    if axis not in ("x", "y", "z"):
        raise ValidationError(f"{where}.axis: must be x, y or z, got {axis!r}")
    axis = "xyz".index(axis)
    bounds = read_settings(region, where, {"min": ("min", as_number), "max": ("max", as_number)})
    return axis, bounds.get("min"), bounds.get("max")


def _load_soft(entry, name, base_dir):
    mesh, box_params = _load_mesh(require(entry, "mesh", name), name, base_dir)
    body = read_settings(entry, name, _SOFT_BODY)
    body.update(read_settings(
        as_mapping(entry.get("material"), f"{name}.material", _MATERIAL),
        f"{name}.material", _MATERIAL,
    ))
    region = None
    if "fixed_region" in entry:
        region = _fixed_region(entry["fixed_region"], f"{name}.fixed_region")
        nodes = _region_nodes(mesh, region)
        body["fixed_nodes"] = (
            np.union1d(body["fixed_nodes"], nodes) if "fixed_nodes" in body else nodes
        )
    return SoftSpec(
        name=name,
        body=_named(name, SoftBody, mesh=mesh, **body),
        fixed_region=region,
        box_params=box_params,
        **read_settings(entry, name, _SOFT),
    )


def _plate_mesh(plate, where):
    center = np.asarray(_vec3(require(plate, "center", where), f"{where}.center"))
    normal = np.asarray(_direction(require(plate, "normal", where), f"{where}.normal"))
    normal = normal / np.linalg.norm(normal)
    size = _length(plate.get("size", (0.1, 0.1)), f"{where}.size", _array)
    if size.shape != (2,) or not (size > 0).all():
        raise ValidationError(f"{where}.size: expected 2 positive components, got {size.tolist()}")
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
    # (c1 - c0) x (c2 - c0) = w hgt (u x v) = w hgt normal: both face the normal
    return corners, np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)


def _load_kinematic(entry, name, base_dir):
    if "plate" in entry:
        where = f"{name}.plate"
        points, tris = _plate_mesh(as_mapping(entry["plate"], where, ("center", "normal", "size")),
                                   where)
    elif "mesh" in entry:
        mesh, _ = _load_mesh(entry["mesh"], name, base_dir)
        points, tris = mesh.nodes, surface_triangles(mesh)
    else:
        raise ValidationError(f"{name}: kinematic object needs 'plate' or 'mesh'")
    where = f"{name}.motion"
    motion = MotionSpec(**read_settings(as_mapping(entry.get("motion"), where, _MOTION),
                                        where, _MOTION))
    if motion.angular_velocity != 0.0 and not any(motion.axis):
        raise ValidationError(f"{where}.axis: a rotating object needs a nonzero axis")
    return KinematicMeshSpec(name=name, points=points, triangles=tris, motion=motion)


def _load_rigid_sphere(entry, name):
    require(entry, "mass", name)
    radius = as_number(require(entry, "radius", name), f"{name}.radius")
    if radius <= 0:
        raise ValidationError(f"{name}.radius: must be positive, got {radius}")
    body = _named(name, RigidBody, radius=radius, **read_settings(entry, name, _RIGID_BODY))
    return RigidSphereSpec(name=name, body=body, **read_settings(entry, name, _RIGID))


# libyaml's parser where PyYAML was built with it (grasp_rotate.scn parses
# in 0.5 ms instead of 6 ms), else PyYAML's own; both build the values with
# the same safe constructor, and only their error wording differs
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml_mapping(path, what: str) -> dict:
    """The top-level mapping of the YAML ``what`` file at ``path``; each failure
    is a one-line :class:`ParseError` naming the path, a syntax error as ``path:line: problem``."""
    try:
        with open(path, "rb") as fh:  # PyYAML decodes, so bad bytes are a YAMLError too
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the {what} file: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ParseError(f"{loc}: {problem}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: {what} file must be a mapping")
    return raw


def load_scene(path) -> SceneConfig:
    """Parse a scene file into validated bodies; defaults are documented in the README."""
    raw = read_yaml_mapping(path, "scene")
    as_mapping(raw, "scene", _TOP_KEYS)
    base_dir = os.path.dirname(os.path.abspath(path))

    raw_objects = raw.get("objects", [])
    if not isinstance(raw_objects, list):
        raise ValidationError(f"objects: expected a list, got {raw_objects!r}")
    objects = []
    for i, entry in enumerate(raw_objects):
        entry = as_mapping(entry, f"objects[{i}]")
        name = entry.get("name", f"object{i}")
        if not isinstance(name, str):
            raise ValidationError(f"objects[{i}].name: expected a string, got {name!r}")
        if any(spec.name == name for spec in objects):
            raise ValidationError(f"{name}: duplicate object name")
        kind = require(entry, "type", name)
        if not isinstance(kind, str) or kind not in _OBJECT_KEYS:
            raise ValidationError(f"{name}.type: unknown object type {kind!r}")
        as_mapping(entry, name, _OBJECT_KEYS[kind])
        if kind == "soft":
            objects.append(_load_soft(entry, name, base_dir))
        elif kind == "plane":
            objects.append(PlaneSpec(name=name, **read_settings(entry, name, _PLANE)))
        elif kind in ("kinematic_mesh", "static_mesh"):
            spec = _load_kinematic(entry, name, base_dir)
            if kind == "static_mesh" and spec.motion != MotionSpec():
                raise ValidationError(f"{name}: static meshes cannot carry motion")
            objects.append(spec)
        else:
            objects.append(_load_rigid_sphere(entry, name))

    sections = {key: as_mapping(raw.get(key), key, table)
                for key, table in (("pgs", _PGS), ("newton", _NEWTON), ("output", _OUTPUT))}
    return SceneConfig(
        objects=objects,
        **read_settings(raw, "", _TOP),
        pgs=PgsConfig(**read_settings(sections["pgs"], "pgs", _PGS),
                      **read_settings(raw, "", _FRICTION)),
        newton=NewtonConfig(**read_settings(sections["newton"], "newton", _NEWTON)),
        output=OutputConfig(**read_settings(sections["output"], "output", _OUTPUT)),
    )


def soft_box(config: SceneConfig) -> SoftSpec:
    """The scene's first procedural soft box, the one ``bench`` scales."""
    for spec in config.objects:
        if isinstance(spec, SoftSpec) and spec.box_params is not None:
            return spec
    raise ValidationError("scene has no procedural soft box to re-mesh")


def with_box_divisions(config: SceneConfig, divisions) -> SceneConfig:
    """Copy of the scene with its :func:`soft_box` re-meshed.

    The box's ``fixed_region`` is applied again to the new mesh. Node ids
    given in ``fixed_nodes`` name nodes of the old mesh only, so a box that
    pins any node outside its region cannot be re-meshed.
    """
    spec = soft_box(config)
    body = spec.body
    if not np.array_equal(body.fixed_nodes, _region_nodes(body.mesh, spec.fixed_region)):
        raise ValidationError(
            f"{spec.name}: fixed_nodes name nodes of the original mesh "
            "and cannot be carried over to a re-meshed box"
        )
    params = dict(spec.box_params)
    params["divisions"] = _box_divisions(divisions, f"{spec.name}.mesh.box.divisions")
    mesh = box_mesh(**params)
    body = replace(body, mesh=mesh, fixed_nodes=_region_nodes(mesh, spec.fixed_region))
    remeshed = replace(spec, body=body, box_params=params)
    return replace(config, objects=[remeshed if s is spec else s for s in config.objects])


# --- runtime objects ------------------------------------------------------------


class _SoftRuntime:
    kind = "soft"
    dynamic = True

    def __init__(self, oid, spec: SoftSpec):
        self.oid = oid
        self.spec = spec
        self.body = spec.body
        self.triangles = surface_triangles(self.body.mesh)
        ids = (surface_vertices(self.triangles) if len(self.triangles)
               else np.arange(self.body.mesh.n_nodes))
        # a pinned vertex carries no DOFs, so it is never paired
        self.vertex_ids = np.setdiff1d(ids, self.body.fixed_nodes)
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
        # an error of the body's assembly (the first call builds K) names the body
        b = _named(self.spec.name, self.body.assemble, state=state, h=h, gravity=gravity)
        if self.factorization is None:
            self.factorization = _named(self.spec.name, Factorization,
                                        matrix=self.body.system_rows(h),
                                        points=self.body.mesh.nodes)
        return self.factorization, b

    def view(self, q_by_object, t):
        return q_by_object[self.oid].reshape(-1, 3)

    def read_dofs(self, pairs):
        """The DOFs of every node of this body that ``pairs`` read: its A-side
        vertices and its B-side triangle nodes, pinned ones included."""
        nodes = np.concatenate([side.nodes[side.object_id == self.oid].ravel()
                                for side in (pairs.a, pairs.b)])
        return (3 * nodes[:, None] + np.arange(3)).ravel()

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
        self.body = spec.body
        self.quat = (0.0, 0.0, 0.0, 1.0)  # unit (x, y, z, w): the committed orientation
        q = np.concatenate([np.asarray(spec.position, dtype=np.float64), np.zeros(3)])
        self.state = MechanicalState(q, np.asarray(spec.velocity, dtype=np.float64))

    def _turned(self, q):
        """The committed orientation turned by ``q``'s rotation increment."""
        turn = _named(self.spec.name, rotations.rotvec_quat, rotvec=q[3:])
        return rotations.compose(turn, self.quat)

    def pose_at(self, q):
        return Pose(rotations.quat_matrix(self._turned(q)), q[:3])

    def geometry(self, states, t):
        pose = self.pose_at(states[self.oid].q)
        return SphereGeometry(
            object_id=self.oid,
            center=pose.position,
            radius=self.body.radius,
            pose=pose,
        )

    def assemble(self, state, h, gravity):
        A, b = self.body.assemble(rotations.quat_matrix(self.quat), h, gravity)
        return Factorization(A), b

    def view(self, q_by_object, t):
        return self.pose_at(q_by_object[self.oid])

    def read_dofs(self, pairs):
        """All six DOFs: every view of the body reads its pose."""
        return np.arange(self.body.n_dofs)

    def commit(self, state):
        """Fold the rotation increment into the stored quaternion: the pose
        every view of the committed state took, bit for bit."""
        self.quat = self._turned(state.q)
        self.state = MechanicalState(
            np.concatenate([state.q[:3], np.zeros(3)]), state.v
        )

    def saved_state(self):
        """Position and orientation quaternion, and the 6-DOF velocity."""
        return np.concatenate([self.state.q[:3], self.quat]), self.state.v.copy()


class _KinematicRuntime:
    kind = "kinematic"
    dynamic = False

    def __init__(self, oid, spec: KinematicMeshSpec):
        self.oid = oid
        self.spec = spec
        # a step asks for the poses at its start and end time only, from
        # detection and from every view, so the last two are kept
        self._poses = deque(maxlen=2)

    def pose_at(self, t):
        """The pose at time t; its arrays are read-only, as callers share it."""
        for seen, pose in self._poses:
            if seen == t:
                return pose
        m = self.spec.motion
        axis = np.asarray(m.axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0 or m.angular_velocity == 0.0:
            rot = np.eye(3)
        else:
            rot = _named(self.spec.name, rotations.rotvec_matrix,
                         rotvec=axis / n * (m.angular_velocity * t))
        center = np.asarray(m.center)
        position = center - rot @ center + np.asarray(m.velocity) * t
        pose = Pose(rot, position)
        pose.rotation.flags.writeable = pose.position.flags.writeable = False
        self._poses.append((t, pose))
        return pose

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


_WORLD = Pose.identity()  # every plane's view, shared, so read-only
_WORLD.rotation.flags.writeable = False
_WORLD.position.flags.writeable = False


class _PlaneRuntime:
    kind = "plane"
    dynamic = False

    def __init__(self, oid, spec: PlaneSpec):
        self.oid = oid
        self.spec = spec

    def geometry(self, states, t):
        return PlaneGeometry(object_id=self.oid, normal=self.spec.normal, offset=self.spec.offset)

    def view(self, q_by_object, t):
        return _WORLD  # a plane's points are fixed world points

    def saved_state(self):
        return np.zeros(0), np.zeros(0)


# --- step report ---------------------------------------------------------------


@dataclass
class StepReport:
    step: int
    time: float
    c_groups: int
    dofs: int
    newton_exit: str  # "penetration" or "max_iterations"
    system_solves: int  # right-hand sides solved for on the step's factorizations
    mapping_reused: bool  # S (and under the fast scheme W_g, X_o) taken from the previous step
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
        "solve_iterations_total", "solve_converged", "system_solves", "mapping_reused",
        "pen_before", "pen_after", "lambda_n_sum", "lambda_n_max", "lambda_t_max", "t_detect",
        "t_assemble", "t_free", "t_constraints", "t_build_wg", "t_rebuild_w",
        "t_solve", "t_correction", "t_final_correction", "t_step",
    )

    def csv_row(self):
        return [getattr(self, name) for name in self.CSV_FIELDS]

    @property
    def newton_iterations(self) -> int:
        return len(self.iterations)

    @property
    def solve_iterations_total(self) -> int:
        return sum(it.solve_iterations for it in self.iterations)

    @property
    def solve_converged(self) -> bool:
        """Every contact solve of the step converged."""
        return all(it.solve_converged for it in self.iterations)

    @property
    def t_rebuild_w(self) -> float:
        return sum(it.rebuild_time for it in self.iterations)

    @property
    def t_solve(self) -> float:
        return sum(it.solve_time for it in self.iterations)

    @property
    def t_correction(self) -> float:
        return sum(it.correction_time for it in self.iterations)


@dataclass(frozen=True)
class _Mapping:
    """A step's signed mappings and, under the fast scheme, its read-only W_g
    and (J, X_o) by object, with what they were built from."""

    attachments: tuple  # from _attachments, compared byte for byte
    S_by_object: dict
    F_by_object: dict  # the step's factorizations, compared with `is`
    wg: np.ndarray | None = None
    X_by_object: dict | None = None


def _attachments(pairs) -> tuple:
    """What the signed mappings are built from, as bytes: each side's object
    ids, node ids, weights and lever arms."""
    return tuple(arr.tobytes() for side in (pairs.a, pairs.b)
                 for arr in (side.object_id, side.nodes, side.weights, side.lever))


def _same_objects(x: dict, y: dict) -> bool:
    return x.keys() == y.keys() and all(x[k] is y[k] for k in x)


@dataclass
class PreparedStep:
    """What :meth:`Simulation.prepare_step` hands the correction and integration."""

    ctx: StepContext
    pen_before: float  # penetration of the detected pairs at the free positions
    solves_before: int  # solve_count of the step's factorizations before the free motion
    timings: dict  # seconds per phase, keyed by StepReport's t_detect ... t_build_wg
    mapping: _Mapping  # kept for the next step once this one commits
    mapping_reused: bool  # the mapping is the previous step's


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
        self._mapping = None  # the last committed step's _Mapping, if none has missed it since

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
        return collision.penetration(collision.signed_gaps(pairs, self._views(q_by_object, t)))

    def prepare_step(self) -> PreparedStep:
        """Run the pre-correction pipeline (detect through free violation).

        Commits nothing, though a step whose attachments differ drops the
        kept mapping; the correction scheme and integration consume the
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
            # the free motion is solved only on the rows the pairs read, and
            # an overflow there is caught by the check below, before the contact solve
            read = obj.read_dofs(pairs)
            with np.errstate(over="ignore", invalid="ignore"):
                fm = compute_free_motion(
                    factorizations[obj.oid], rhs[obj.oid], states[obj.oid], h, read
                )
            if not (np.isfinite(fm.y).all() and np.isfinite(fm.q_free[read]).all()):
                raise NonFiniteStateError(
                    f"step {self.step_index}: object {obj.oid} has a non-finite free "
                    "motion; nothing was committed"
                )
            free[obj.oid] = fm
        t_free = time.perf_counter()

        previous = self._mapping
        attachments = _attachments(pairs)
        if previous is not None and previous.attachments == attachments:
            S = previous.S_by_object
        else:
            # a step that misses drops the kept mapping, which no later step
            # can match, so its arrays are freed before the new ones are built
            previous = self._mapping = None
            S = {
                obj.oid: build_signed_mapping(
                    pairs, obj.oid, obj.body.n_dofs, obj.body.fixed_mask
                )
                for obj in self.dynamic_objects
            }

        def refresh(dq):
            q_by_object = {oid: fm.q_free + dq.get(oid, 0.0) for oid, fm in free.items()}
            return collision.proximity(pairs, self._views(q_by_object, t_next))

        at_free = refresh({})
        pen_before = collision.penetration(at_free.gaps)
        ctx = StepContext(
            pairs=pairs,
            detection_frames=frames,
            S_by_object=dict(S),
            F_by_object=factorizations,
            r0=at_free.r,
            h=h,
            refresh=refresh,
            y_free={oid: fm.y for oid, fm in free.items()},
        )
        t_constraints = time.perf_counter()

        wg = X = None
        reused = previous is not None
        if cfg.newton.scheme == "fast":
            reused = (reused and previous.wg is not None
                      and _same_objects(previous.F_by_object, factorizations))
            if reused:
                wg, X = previous.wg, previous.X_by_object
            else:
                wg, X = assemble_Wg(S, factorizations)
                for array in (wg, *(a for JX in X.values() for a in JX)):
                    array.flags.writeable = False
            ctx.wg, ctx.X_by_object = wg, dict(X)
        mapping = _Mapping(attachments, S, dict(factorizations), wg, X)
        timings = {
            "t_detect": t_detect - t_begin,
            "t_assemble": t_assemble - t_detect,
            "t_free": t_free - t_assemble,
            "t_constraints": t_constraints - t_free,
            "t_build_wg": time.perf_counter() - t_constraints,
        }
        return PreparedStep(ctx, pen_before, solves_before, timings, mapping, reused)

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
            state = integrate_correction(obj.state, result.dv_by_object[obj.oid], h)
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
        self.last_frames = result.frames
        self.last_lam = lam = result.lam
        self._mapping = prep.mapping

        lam_groups = lam.reshape(-1, 3) if lam.size else np.zeros((0, 3))
        lam_t = np.hypot(lam_groups[:, 1], lam_groups[:, 2]) if len(lam_groups) else np.zeros(0)
        return StepReport(
            step=self.step_index - 1,
            time=self.time,
            c_groups=len(ctx.pairs),
            dofs=self.total_dofs(),
            newton_exit=result.exit,
            system_solves=system_solves,
            mapping_reused=prep.mapping_reused,
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


def save_snapshot(sim: Simulation, path) -> None:
    """Write the committed state to ``path`` as one uncompressed ``.npz``.

    Keys: ``step`` and ``time``; ``kind``, one string per object id;
    ``q_<oid>`` and ``v_<oid>`` per object, as ``saved_state`` gives them;
    and per proximity pair ``object_a``, ``object_b``, ``p_a``, ``p_b``,
    ``frames`` (p, 3, 3) and ``lam`` (p, 3). Read it back with ``np.load``.
    """
    arrays = {"kind": [obj.kind for obj in sim.objects]}
    for obj in sim.objects:
        arrays[f"q_{obj.oid}"], arrays[f"v_{obj.oid}"] = obj.saved_state()
    c = sim.last_pairs
    with open(path, "wb") as fh:  # an open file: numpy adds no suffix
        np.savez(fh, step=sim.step_index, time=sim.time, **arrays,
                 object_a=c.a.object_id, object_b=c.b.object_id, p_a=c.a.point,
                 p_b=c.b.point, frames=sim.last_frames, lam=sim.last_lam.reshape(-1, 3))


def run(sim: Simulation, n_steps: int, out_dir=None) -> list[StepReport]:
    """Advance ``n_steps`` steps, writing snapshots and metrics per the output config.

    The metrics, ``metrics.csv`` (per step) and ``newton.csv`` (per Newton
    iteration), are written step by step, so a failed run keeps its rows.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    out = sim.config.output
    metrics = newton = snap_dir = None
    reports = []
    with contextlib.ExitStack() as files:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            if out.metrics:
                metrics, newton = (
                    csv.writer(files.enter_context(
                        open(os.path.join(out_dir, name), "w", newline="")))
                    for name in ("metrics.csv", "newton.csv")
                )
                metrics.writerow(StepReport.CSV_FIELDS)
                newton.writerow(["step", "iteration", *(f.name for f in fields(IterationStats))])
            if out.snapshots:
                snap_dir = os.path.join(out_dir, "snapshots")
                os.makedirs(snap_dir, exist_ok=True)
        for _ in range(n_steps):
            report = sim.step()
            reports.append(report)
            if metrics is not None:
                metrics.writerow(report.csv_row())
                for k, it in enumerate(report.iterations):
                    newton.writerow([report.step, k, *astuple(it)])
            if snap_dir is not None and (report.step % out.every == 0):
                save_snapshot(sim, os.path.join(snap_dir, f"step_{report.step:06d}.npz"))
    return reports
