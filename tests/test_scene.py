import copy
import gc
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from contactnewton import cli, collision, linalg, scene, solver
from contactnewton.bench import load_bench_spec
from contactnewton.collision import Pose
from contactnewton.dynamics import MechanicalState
from contactnewton.linalg import Factorization
from contactnewton.errors import (
    NonFiniteForceError,
    NonFiniteStateError,
    ParseError,
    ValidationError,
)
from contactnewton.rotations import quat_matrix
from contactnewton.scene import (
    MotionSpec,
    Simulation,
    load_scene,
    save_snapshot,
    with_box_divisions,
)
from contactnewton.verify import prepare, run_verification

SCENES = Path(__file__).resolve().parents[1] / "scenes"

GROUND = "objects: [{name: ground, type: plane}]\n"

# one object of every runtime kind: soft box, rigid sphere, spinning plate, plane
MIXED_SCENE = """\
dt: 0.01
threshold: 0.01
pgs: {iterations: 100}
newton: {scheme: fast, iterations: 3, penetration_tol: 1.0e-7}
objects:
  - name: block
    type: soft
    mesh: {box: {size: [0.05, 0.05, 0.05], divisions: [2, 2, 2], center: [0.3, 0.0245, 0.0]}}
    velocity: [0.1, 0.0, 0.0]
  - name: ball
    type: rigid_sphere
    mass: 1.0
    radius: 0.05
    position: [0.0, 0.052, 0.0]
    velocity: [0.3, -0.5, 0.0, 0.0, 0.0, 2.0]
  - name: plate
    type: kinematic_mesh
    plate: {center: [0.0, 0.2, 0.0], normal: [0.0, -1.0, 0.0], size: [0.1, 0.1]}
    motion: {axis: [0.0, 1.0, 0.0], angular_velocity: 1.0}
  - name: ground
    type: plane
"""

# a rigid ball spinning about z as it lands on the ground: its contact point
# turns with it within the step, so its lever arm changes
SPINNING_BALL = """\
dt: 0.01
threshold: 0.01
mu: 0.5
objects:
  - name: ball
    type: rigid_sphere
    mass: 1.0
    radius: 0.05
    position: [0.0, 0.0502, 0.0]
    velocity: [0.3, -0.8, 0.0, 0.0, 0.0, 20.0]
  - name: ground
    type: plane
"""

# the spinning ball with an inertia that couples its spin about y, which no
# lever on the ground reaches (S's omega_y column is zero), to its spin about z
COUPLED_BALL = SPINNING_BALL.replace(
    "    radius: 0.05\n",
    "    radius: 0.05\n    inertia: [1.5e-3, 0, 0, 0, 1.0e-3, 5.0e-4, 0, 5.0e-4, 2.0e-3]\n")

# a 1 kg box on the ground with 5 of its 25 bottom vertices pinned
PINNED_BOX = """\
dt: 0.01
threshold: 0.01
newton: {scheme: fast}
objects:
  - name: box
    type: soft
    mesh: {box: {size: [0.1, 0.1, 0.1], divisions: [4, 4, 4], center: [0.0, 0.0498, 0.0]}}
    fixed_region: {axis: x, max: -0.049}
  - name: ground
    type: plane
"""

BOX = "mesh: {box: {size: [0.1, 0.1, 0.1], divisions: [1, 1, 1]}}"
PLATE = "plate: {center: [0, 0, 0], normal: [0, 1, 0]}"

# (scene text, the section and the key the error must name)
UNKNOWN_KEYS = {
    "top-level-key": (GROUND + "steps: 3\n", "scene: unknown key 'steps'"),
    "newton-misspelt-key": (GROUND + "newton: {penetraton_tol: 1.0}\n",
                            "newton: unknown key 'penetraton_tol'"),
    "newton-relinearize-key": (GROUND + "newton: {relinearize: false}\n",
                               "newton: unknown key 'relinearize'"),
    "pgs-key": (GROUND + "pgs: {sweeps: 3}\n", "pgs: unknown key 'sweeps'"),
    "output-key": (GROUND + "output: {snapshot: false}\n", "output: unknown key 'snapshot'"),
    "plane-misspelt-key": ("objects: [{name: ground, type: plane, ofset: 2.0}]\n",
                           "ground: unknown key 'ofset'"),
    "soft-key": (f"objects: [{{name: block, type: soft, {BOX}, youngs: 1.0}}]\n",
                 "block: unknown key 'youngs'"),
    "mesh-key": ("objects: [{name: block, type: soft, mesh: {path: a.mesh}}]\n",
                 "block.mesh: unknown key 'path'"),
    "box-key": ("objects: [{name: block, type: soft, mesh: {box: {size: [1, 1, 1], "
                "divisions: [1, 1, 1], centre: [0, 0, 0]}}}]\n",
                "block.mesh.box: unknown key 'centre'"),
    "material-key": (f"objects: [{{name: block, type: soft, {BOX}, material: {{nu: 0.3}}}}]\n",
                     "block.material: unknown key 'nu'"),
    "fixed-region-key": (f"objects: [{{name: block, type: soft, {BOX}, "
                         "fixed_region: {axis: y, maximum: 0}}]\n",
                         "block.fixed_region: unknown key 'maximum'"),
    "plate-key": ("objects: [{name: plate, type: kinematic_mesh, "
                  "plate: {center: [0, 0, 0], normal: [0, 1, 0], width: 0.1}}]\n",
                  "plate.plate: unknown key 'width'"),
    "motion-key": (f"objects: [{{name: plate, type: kinematic_mesh, {PLATE}, "
                   "motion: {omega: 1.0}}]\n",
                   "plate.motion: unknown key 'omega'"),
    "sphere-key": ("objects: [{name: ball, type: rigid_sphere, mass: 1, radius: 0.1, spin: 1}]\n",
                   "ball: unknown key 'spin'"),
}

# (scene text, the key the error must name): a count is never truncated
FRACTIONAL_COUNTS = {
    "pgs-iterations-fraction": (GROUND + "pgs: {iterations: 2.7}\n", "pgs.iterations:"),
    "newton-iterations-fraction": (GROUND + "newton: {iterations: 1.5}\n",
                                   "newton.iterations:"),
    "output-every-fraction": (GROUND + "output: {every: 2.5}\n", "output.every:"),
    "box-divisions-fraction": ("objects: [{name: block, type: soft, mesh: {box: "
                               "{size: [1, 1, 1], divisions: [7.5, 46, 7]}}}]\n",
                               "block.mesh.box.divisions:"),
    "fixed-nodes-fraction": (f"objects: [{{name: block, type: soft, {BOX}, "
                             "fixed_nodes: [0, 1.5]}]\n", "block.fixed_nodes:"),
    # whole numbers past 2**53, where a float no longer holds every one
    "pgs-iterations-huge-float": (GROUND + "pgs: {iterations: 1.0e+308}\n", "pgs.iterations:"),
    "box-divisions-huge": ("objects: [{name: block, type: soft, mesh: {box: "
                           "{size: [1, 1, 1], divisions: [1.0e+308, 1, 1]}}}]\n",
                           "block.mesh.box.divisions:"),
}

# (scene text, the key the error must name): NaN fails every comparison, so
# a range check alone would let it through
NON_FINITE = {
    "threshold-nan": (GROUND + "threshold: .nan\n", "threshold:"),
    "dt-nan": (GROUND + "dt: .nan\n", "dt:"),
    "mu-nan": (GROUND + "mu: .nan\n", "mu:"),
    # the key of PGS's relative-change stop, removed with PGS: an old scene
    # file is refused as naming an unknown key before its value is read
    "pgs-tolerance-nan": (GROUND + "pgs: {tolerance: .nan}\n", "pgs: unknown key 'tolerance'"),
    "newton-penetration-tol-nan": (GROUND + "newton: {penetration_tol: .nan}\n",
                                   "newton.penetration_tol:"),
    "gravity-inf": (GROUND + "gravity: [0, -.inf, 0]\n", "gravity:"),
    # an integer beyond the float range
    "pgs-iterations-huge": (GROUND + f"pgs: {{iterations: {'9' * 400}}}\n", "pgs.iterations:"),
}

# (scene text, the key the error must name): a key written with no value
NO_VALUE = {
    "velocity-none": (f"objects: [{{name: block, type: soft, {BOX}, velocity: }}]\n",
                      "block.velocity: no value given"),
    "dt-none": (GROUND + "dt:\n", "dt: no value given"),
}

BALL = "name: ball, type: rigid_sphere, mass: 1"

# (scene text, the key the error must name): a list, number or bool where
# the loader wants a string
NON_STRING = {
    "type-list": ("objects: [{name: block, type: [soft]}]\n", "block.type:"),
    "mesh-file-number": ("objects: [{name: block, type: soft, mesh: {file: 5}}]\n",
                         "block.mesh.file:"),
    **{f"fixed-region-axis-{name}": (f"objects: [{{name: block, type: soft, {BOX}, "
                                     f"fixed_region: {{axis: {axis}, max: 0}}}}]\n",
                                     "block.fixed_region.axis:")
       for name, axis in (("bool", "true"), ("float", "1.0"), ("list", "[1]"))},
    "name-list": ("objects: [{name: [a], type: plane}]\n", "objects[0].name:"),
    "name-mapping": ("objects: [{name: {a: 1}, type: plane}]\n", "objects[0].name:"),
    "scheme-list": (GROUND + "newton: {scheme: [fast]}\n", "newton.scheme:"),
}

# (scene text, the key the error must name): values the physics cannot use
BAD_VALUES = {
    "sphere-radius-negative": (f"objects: [{{{BALL}, radius: -0.1}}]\n", "ball.radius:"),
    "sphere-radius-zero": (f"objects: [{{{BALL}, radius: 0}}]\n", "ball.radius:"),
    "motion-axis-zero": (f"objects: [{{name: plate, type: kinematic_mesh, {PLATE}, "
                         "motion: {axis: [0, 0, 0], angular_velocity: 1.0}}]\n",
                         "plate.motion.axis:"),
    "static-mesh-motion": (f"objects: [{{name: plate, type: static_mesh, {PLATE}, "
                           "motion: {velocity: [0, 1, 0]}}]\n",
                           "plate: static meshes cannot carry motion"),
    "duplicate-name": (f"objects: [{{{BALL}, radius: 0.1}}, {{name: ball, type: plane}}]\n",
                       "ball: duplicate object name"),
    "duplicate-default-name": ("objects: [{type: plane}, {name: object0, type: plane}]\n",
                               "object0: duplicate object name"),
    "box-too-many-nodes": ("objects: [{name: block, type: soft, mesh: {box: "
                           "{size: [1, 1, 1], divisions: [1000000, 5, 5]}}}]\n",
                           "block.mesh.box.divisions: [1000000, 5, 5] make 36000036 nodes"),
    "plane-normal-zero": ("objects: [{name: ground, type: plane, normal: [0, 0, 0]}]\n",
                          "ground.normal:"),
    "plate-size-zero": ("objects: [{name: plate, type: kinematic_mesh, plate: "
                        "{center: [0, 0, 0], normal: [0, 1, 0], size: [0, 0.2]}}]\n",
                        "plate.plate.size:"),
    "plate-size-empty": ("objects: [{name: plate, type: kinematic_mesh, plate: "
                         "{center: [0, 0, 0], normal: [0, 1, 0], size: []}}]\n",
                         "plate.plate.size:"),
    "snapshots-string": (GROUND + 'output: {snapshots: "false"}\n', "output.snapshots:"),
    "metrics-number": (GROUND + "output: {metrics: 0}\n", "output.metrics:"),
    # YAML true is a Python bool, which Python counts as the integer 1
    "every-bool": (GROUND + "output: {every: true}\n", "output.every:"),
    # numpy reads a bool inside a list as 1 or 0
    "gravity-bool": (GROUND + "gravity: [true, -9.81, 0]\n", "gravity:"),
    "fixed-nodes-bool": (f"objects: [{{name: block, type: soft, {BOX}, "
                         "fixed_nodes: [true]}]\n", "block.fixed_nodes:"),
    "box-divisions-bool": ("objects: [{name: block, type: soft, mesh: {box: "
                           "{size: [1, 1, 1], divisions: [true, 1, 1]}}}]\n",
                           "block.mesh.box.divisions:"),
    "box-divisions-two": ("objects: [{name: block, type: soft, mesh: {box: "
                          "{size: [1, 1, 1], divisions: [1, 1]}}}]\n",
                          "block.mesh.box.divisions:"),
    # the bodies' own checks, run by the loader and prefixed with the object
    "young-zero": (f"objects: [{{name: block, type: soft, {BOX}, material: {{young: 0}}}}]\n",
                   "block: young modulus"),
    "young-negative": (f"objects: [{{name: block, type: soft, {BOX}, material: {{young: -1}}}}]\n",
                       "block: young modulus"),
    "poisson-half": (f"objects: [{{name: block, type: soft, {BOX}, material: {{poisson: 0.5}}}}]\n",
                     "block: poisson ratio"),
    "density-zero": (f"objects: [{{name: block, type: soft, {BOX}, material: {{density: 0}}}}]\n",
                     "block: density"),
    "node-mass-zero": (f"objects: [{{name: block, type: soft, {BOX}, node_mass: 0}}]\n",
                       "block: node_mass"),
    "node-mass-negative": (f"objects: [{{name: block, type: soft, {BOX}, node_mass: -1}}]\n",
                           "block: node_mass"),
    "fixed-node-out-of-range": (f"objects: [{{name: block, type: soft, {BOX}, "
                                "fixed_nodes: [99]}]\n", "block: fixed node ids [99]"),
    "sphere-mass-negative": ("objects: [{name: ball, type: rigid_sphere, mass: -1, radius: 0.1}]\n",
                             "ball: rigid mass"),
    "sphere-inertia-not-spd": (f"objects: [{{{BALL}, radius: 0.1, inertia: [1, 0, -1]}}]\n",
                               "ball: rigid inertia"),
    # its symmetric part is positive definite, but the factorization reads
    # only the upper triangle: a unit torque about x turned (5.26, -4.74, 0)
    "sphere-inertia-asymmetric": (f"objects: [{{{BALL}, radius: 0.1, "
                                  "inertia: [1, 0.9, 0, 0, 1, 0, 0, 0, 1]}]\n",
                                  "ball: rigid inertia must be symmetric"),
    **NON_STRING,
}

BAD_SCENES = {
    "objects-list-of-int": "objects: [1]\n",
    "objects-mapping": "objects: {a: 1}\n",
    "pgs-iterations-text": GROUND + "pgs: {iterations: abc}\n",
    "dt-text": GROUND + "dt: abc\n",
    "output-every-zero": GROUND + "output: {every: 0}\n",
    "soft-empty-mesh": "objects: [{name: block, type: soft, mesh: {}}]\n",
    "soft-mesh-directory": 'objects: [{name: block, type: soft, mesh: {file: ""}}]\n',
    "kinematic-empty-mesh": "objects: [{name: block, type: kinematic_mesh, mesh: {}}]\n",
    "box-size-zero": ("objects: [{name: block, type: soft, mesh: {box: "
                      "{size: [1, 0, 1], divisions: [1, 1, 1]}}}]\n"),
    **{name: text for name, (text, _) in UNKNOWN_KEYS.items()},
    **{name: text for name, (text, _) in FRACTIONAL_COUNTS.items()},
    **{name: text for name, (text, _) in NON_FINITE.items()},
    **{name: text for name, (text, _) in NO_VALUE.items()},
    **{name: text for name, (text, _) in BAD_VALUES.items()},
}


def write_scene(tmp_path, text, name="scene.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_bad_scene_raises_package_error(tmp_path, text):
    with pytest.raises((ParseError, ValidationError)):
        load_scene(write_scene(tmp_path, text))


@pytest.mark.parametrize("load", [load_scene, load_bench_spec], ids=["scene", "bench-spec"])
@pytest.mark.parametrize("where, problem", [("missing", "cannot read"),
                                            ("directory", "cannot read"),
                                            ("not-utf8", "unacceptable character")])
def test_unreadable_file_raises_parse_error_naming_it(tmp_path, load, where, problem):
    path = tmp_path if where == "directory" else tmp_path / "file.scn"
    if where == "not-utf8":
        path.write_bytes(b"dt: 0.01\nname: \xff\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {problem}"):
        load(path)


@pytest.mark.parametrize("text, message", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_unknown_key_names_section_and_key(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text, message", FRACTIONAL_COUNTS.values(),
                         ids=FRACTIONAL_COUNTS.keys())
def test_fractional_count_names_its_key(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text, message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_value_names_its_key(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text, message", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_names_its_key(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("text, message", NO_VALUE.values(), ids=NO_VALUE.keys())
def test_key_without_value_says_so(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value) == message


def test_empty_section_reads_as_defaults(tmp_path):
    config = load_scene(write_scene(
        tmp_path, f"pgs:\nobjects: [{{name: block, type: soft, {BOX}, material: }}]\n"))
    assert (config.pgs.max_iterations, config.objects[0].body.young) == (30, 1e4)


def test_minimal_scene_loads_the_readme_defaults(tmp_path):
    config = load_scene(write_scene(tmp_path, (
        f"objects: [{{name: block, type: soft, {BOX}}}, {{name: ball, type: rigid_sphere, "
        f"mass: 2, radius: 0.5}}, {{name: plate, type: kinematic_mesh, {PLATE}}}, "
        "{name: ground, type: plane}]\n")))
    assert (config.gravity, config.h, config.threshold) == ((0.0, -9.81, 0.0), 0.01, 0.01)
    pgs, newton, output = config.pgs, config.newton, config.output
    assert (pgs.max_iterations, pgs.friction) == (30, 0.5)
    assert (newton.scheme, newton.max_iterations, newton.penetration_tol) == ("single", 5, 1e-5)
    assert (output.snapshots, output.metrics, output.every) == (True, True, 1)
    block, ball, plate, ground = config.objects
    body = block.body
    assert (body.young, body.poisson, body.density) == (1e4, 0.3, 1000.0)
    assert (body.rayleigh_mass, body.rayleigh_stiffness) == (0.1, 0.1)
    assert (body.fixed_nodes.size, body.node_mass) == (0, None)
    assert block.velocity == (0.0, 0.0, 0.0)
    assert np.array_equal(body.mesh.nodes.min(axis=0), -body.mesh.nodes.max(axis=0))  # centered
    assert (ball.position, ball.velocity) == ((0.0, 0.0, 0.0), (0.0,) * 6)
    assert np.array_equal(ball.body.inertia, 0.2 * np.eye(3))  # solid sphere, 0.4 m r^2
    assert plate.motion == MotionSpec(axis=(0.0, 0.0, 1.0), center=(0.0, 0.0, 0.0),
                                      angular_velocity=0.0, velocity=(0.0, 0.0, 0.0))
    assert np.ptp(plate.points, axis=0) == pytest.approx([0.1, 0.0, 0.1])  # plate size
    assert (ground.normal, ground.offset) == ((0.0, 1.0, 0.0), 0.0)


def test_readme_scene_key_table_lists_every_loader_key():
    readme = (SCENES.parent / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    sections = (("pgs", scene._PGS), ("newton", scene._NEWTON), ("output", scene._OUTPUT))
    accepted = ["objects", *scene._TOP, *scene._FRICTION,
                *(f"{name}.{key}" for name, keys in sections for key in keys)]
    assert sorted(documented) == sorted(accepted)


# (vector, its twin): a finite vector whose norm overflows or underflows is
# scaled by a power of two where it is read, exactly, so its scene steps as
# its twin's, bit for bit, with no numpy warning (warnings are errors)
SCALED_VECTORS = {
    "plane-normal-huge": ("normal: [1.0e308, 1.0e308, 0]", "normal: [1, 1, 0]"),
    "plane-normal-tiny": ("normal: [0, 1.0e-200, 0]", "normal: [0, 1, 0]"),
    "motion-axis-huge": ("axis: [0, 1.0e308, 0]", "axis: [0, 1, 0]"),
}


@pytest.mark.parametrize("vector, twin", SCALED_VECTORS.values(), ids=SCALED_VECTORS.keys())
def test_huge_or_tiny_direction_steps_as_its_twin(tmp_path, vector, twin):
    def stepped(setting):
        if setting.startswith("normal"):  # the ground is MIXED_SCENE's last object
            text = MIXED_SCENE + f"    {setting}\n"
        else:  # the plate's spin axis
            text = MIXED_SCENE.replace("axis: [0.0, 1.0, 0.0]", setting)
        sim = Simulation(load_scene(write_scene(tmp_path, text)))
        return [outcome(sim, sim.step()) for _ in range(2)]

    assert stepped(vector) == stepped(twin)


# (shipped scene, {its line: the line in its place}, error, message): a huge
# finite time step or node mass overflows the system matrix and the
# right-hand side, which is reported by the right-hand side's finite check;
# a lone node with no gravity and no Rayleigh terms keeps both finite, and
# the contact solve reports the overflowed h^2; a box side of 1e-300 overflows the
# products of its tets' gradients, reported with the body's name by the
# stiffness's finite check; a huge gravity or collider motion centre gives
# a violation whose impulses' norm overflows, reported by the contact solve;
# a tiny node mass or a huge Rayleigh mass term overflows h^2 W's diagonal
# block or its inverse, reported by the solve's preparation; a huge gravity
# on soft B triangles overflows their normals, reported by element_normals;
# a huge plate spin overflows the square of its rotation vector, reported
# with the plate's name by its pose; all with no numpy warning (warnings
# are errors)
HUGE_INPUTS = {
    "dt-huge": ("block_on_plane", {"dt: 0.01": "dt: 1.0e308"},
                NonFiniteForceError, "assembled right-hand side is not finite"),
    "node-mass-huge": ("point_mass", {"node_mass: 1.0": "node_mass: 1.0e308"},
                       NonFiniteForceError, "assembled right-hand side is not finite"),
    "dt-huge-no-gravity": ("point_mass", {"dt: 0.01": "dt: 1.0e308",
                                          "gravity: [0.0, -9.81, 0.0]": "gravity: [0.0, 0.0, 0.0]"},
                           NonFiniteStateError, "time step 1e\\+308 squared is not finite"),
    "box-side-tiny": ("grasp_rotate", {"size: [0.08, 0.08, 0.08]": "size: [1.0e-300, 0.08, 0.08]"},
                      NonFiniteForceError, "^cube: stiffness is not finite"),
    "box-side-tiny-press": ("two_body_press", {"size: [0.1, 0.1, 0.1], divisions: [4, 4, 4], "
                                               "center: [0.0, 0.0499": "size: [1.0e-300, 0.1, 0.1], "
                                               "divisions: [4, 4, 4], center: [0.0, 0.0499"},
                            NonFiniteForceError, "^lower: stiffness is not finite"),
    "gravity-huge": ("block_on_plane",
                     {"gravity: [0.0, -9.81, 0.0]": "gravity: [1.0e308, 0.0, 0.0]"},
                     NonFiniteStateError, "impulses' norm is not finite"),
    "motion-center-huge": ("grasp_rotate",
                           {"[0.0, 0.0, 1.0], center: [0.0, 0.0, 0.0]":
                            "[0.0, 0.0, 1.0], center: [1.0e308, 0.0, 0.0]"},
                           NonFiniteStateError, "impulses' norm is not finite"),
    "node-mass-tiny": ("point_mass", {"node_mass: 1.0": "node_mass: 1.0e-300"},
                       NonFiniteStateError, "group 0: h\\^2 W's diagonal block or its inverse"),
    "rayleigh-mass-huge": ("point_mass", {"rayleigh_mass: 0.0": "rayleigh_mass: 1.0e308"},
                           NonFiniteStateError, "group 0: h\\^2 W's diagonal block or its inverse"),
    "angular-velocity-huge": ("grasp_rotate", {"angular_velocity: 34.90658503988659":
                                               "angular_velocity: 1.0e308"},
                              NonFiniteStateError,
                              "^plate_right: rotation vector .* has no finite angle$"),
    "gravity-huge-press": ("two_body_press",
                           {"gravity: [0.0, -9.81, 0.0]": "gravity: [1.0e308, 0.0, 0.0]"},
                           NonFiniteStateError, "object 0: a contact triangle's normal overflows"),
}


@pytest.mark.parametrize("name, lines, error, message", HUGE_INPUTS.values(),
                         ids=HUGE_INPUTS.keys())
def test_huge_time_step_or_mass_fails_the_step_cleanly(tmp_path, name, lines, error, message):
    text = (SCENES / f"{name}.scn").read_text()
    for line, huge in lines.items():
        assert line in text
        text = text.replace(line, huge)
    text = text.replace("meshes/", f"{SCENES / 'meshes'}/")
    sim = Simulation(load_scene(write_scene(tmp_path, text)))
    with pytest.raises(error, match=message):
        sim.step()
    assert sim.step_index == 0


def test_spin_without_a_finite_angle_names_the_ball(tmp_path):
    # the ball's rotation increment squares past the largest float, so its
    # pose has no finite angle: an error with its name, not a nan pose
    text = SPINNING_BALL.replace("0.0, 0.0, 20.0]", "0.0, 0.0, 1.0e200]")
    sim = Simulation(load_scene(write_scene(tmp_path, text)))
    with pytest.raises(NonFiniteStateError, match="^ball: rotation vector .* has no finite angle$"):
        sim.step()
    assert sim.step_index == 0


# (shipped scene, its line, the line in its place, the key the error must
# name): a huge size or plane offset overflowed the products of collision
# (a triangle's normal, a frame's length); the loader refuses it
HUGE_LENGTHS = {
    "plane-offset-huge": ("block_on_plane", "offset: 0.0", "offset: 1.0e308", "ground.offset:"),
    "plate-size-huge": ("grasp_rotate", "size: [0.12, 0.12]}", "size: [1.0e308, 0.12]}",
                        "plate_right.plate.size:"),
    "box-size-huge": ("grasp_rotate", "size: [0.08, 0.08, 0.08]", "size: [1.0e308, 0.08, 0.08]",
                      "cube.mesh.box.size:"),
}


@pytest.mark.parametrize("name, line, huge, key", HUGE_LENGTHS.values(), ids=HUGE_LENGTHS.keys())
def test_huge_length_is_refused_at_load(tmp_path, name, line, huge, key):
    text = (SCENES / f"{name}.scn").read_text().replace("meshes/", f"{SCENES / 'meshes'}/")
    assert line in text
    with pytest.raises(ValidationError, match=f"^{re.escape(key)} 1e\\+308 m is above 1e\\+06 m$"):
        load_scene(write_scene(tmp_path, text.replace(line, huge, 1)))
    # a length of MAX_LENGTH itself loads and steps
    Simulation(load_scene(write_scene(tmp_path, text.replace(line, huge.replace(
        "1.0e308", "1.0e6"), 1)))).step()


def test_zero_axis_without_rotation_is_valid(tmp_path):
    config = load_scene(write_scene(tmp_path, (
        f"objects: [{{name: plate, type: kinematic_mesh, {PLATE}, "
        "motion: {axis: [0, 0, 0], angular_velocity: 0, velocity: [0, 0.1, 0]}}]\n")))
    [plate] = config.objects
    assert plate.motion.axis == (0.0, 0.0, 0.0)
    assert plate.motion.velocity == (0.0, 0.1, 0.0)


def test_whole_float_counts_load_as_integers(tmp_path):
    config = load_scene(write_scene(
        tmp_path, GROUND + "pgs: {iterations: 3.0}\nnewton: {iterations: 2.0}\n"))
    assert (config.pgs.max_iterations, config.newton.max_iterations) == (3, 2)
    assert isinstance(config.pgs.max_iterations, int)


def test_box_mesh_error_names_the_object(tmp_path):
    with pytest.raises(ParseError, match="^block: invalid box mesh"):
        load_scene(write_scene(tmp_path, BAD_SCENES["box-size-zero"]))


@pytest.mark.parametrize("kind", ["soft", "kinematic"])
def test_empty_mesh_section_names_both_forms(tmp_path, kind):
    # soft bodies and triangle-mesh colliders read their mesh section alike
    with pytest.raises(ValidationError, match="block: mesh needs either 'file' or 'box'"):
        load_scene(write_scene(tmp_path, BAD_SCENES[f"{kind}-empty-mesh"]))


@pytest.mark.parametrize("text", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_cli_run_reports_bad_scene(tmp_path, capsys, text):
    path = write_scene(tmp_path, text)
    code = cli.main(["run", "--scene", str(path), "--steps", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_mixed_scene_steps_and_commits(tmp_path):
    sim = Simulation(load_scene(write_scene(tmp_path, MIXED_SCENE)))
    for _ in range(3):
        report = sim.step()
        assert np.isfinite(report.pen_after)
    assert sim.step_index == 3
    assert sim.last_pairs and sim.last_lam.size == 3 * len(sim.last_pairs)
    ball = sim.objects[1]
    assert np.array_equal(ball.state.q[3:], np.zeros(3))  # rotation folded into the pose
    assert np.linalg.norm(ball.quat) == pytest.approx(1.0, abs=1e-15)


def test_three_component_rigid_velocity_loads_as_six(tmp_path):
    config = load_scene(write_scene(
        tmp_path, f"objects: [{{{BALL}, radius: 0.1, velocity: [0.1, -0.2, 0.3]}}]\n"))
    assert config.objects[0].velocity == (0.1, -0.2, 0.3, 0.0, 0.0, 0.0)
    assert Simulation(config).objects[0].state.v.tolist() == [0.1, -0.2, 0.3, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("size", [(0.1, 0.1), (2.0, 0.5), (1e-3, 3e-3)],
                         ids=["square", "wide", "small"])
def test_plate_triangles_face_the_requested_normal(size):
    # the axes (+-z take the second reference axis) and seeded random normals
    normals = [*np.eye(3), *-np.eye(3), *np.random.default_rng(8).normal(size=(200, 3))]
    for normal in normals:
        plate = {"center": [0.1, -0.2, 0.3], "normal": normal.tolist(), "size": list(size)}
        corners, tris = scene._plate_mesh(plate, "plate")
        unit = normal / np.linalg.norm(normal)
        for tri in corners[tris]:
            facing = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            assert facing @ unit == pytest.approx(size[0] * size[1], rel=1e-9)


# a 4 cm soft cube resting on the top face of a static mesh read from a file
# by its absolute path: block_on_plane's block, posed at the identity
CUBE_ON_STATIC_BLOCK = f"""\
objects:
  - name: cube
    type: soft
    mesh: {{box: {{size: [0.04, 0.04, 0.04], divisions: [2, 2, 2], center: [0.0, 0.1198, 0.0]}}}}
  - name: block
    type: static_mesh
    mesh: {{file: {SCENES / "meshes" / "block.mesh"}}}
"""


def test_soft_cube_rests_on_a_static_mesh_file(tmp_path):
    config = load_scene(write_scene(tmp_path, CUBE_ON_STATIC_BLOCK))
    block = config.objects[1]
    assert block.motion == MotionSpec() and len(block.points) == 125
    sim = Simulation(config)
    weight = sim.objects[0].body.masses().sum() * -config.gravity[1]
    for _ in range(20):
        report = sim.step()
        assert report.c_groups == 9  # the cube's 3 x 3 bottom vertices
    assert report.lambda_n_sum == pytest.approx(weight, rel=1e-3)
    assert sim.objects[1].pose_at(sim.time).rotation.tolist() == np.eye(3).tolist()
    assert [check.passed for check in run_verification(config)] == [True, True, True]


def test_rigid_commit_keeps_the_orientation_pen_after_read(tmp_path):
    # the pose a step measures its end penetration at is the pose it commits
    sim = Simulation(load_scene(write_scene(tmp_path, COUPLED_BALL)))
    ball = next(obj for obj in sim.objects if obj.kind == "rigid")
    measured, measure = [], sim.penetration

    def recording(pairs, q_by_object, t):
        measured.append(sim._views(q_by_object, t)[ball.oid].rotation)
        return measure(pairs, q_by_object, t)

    sim.penetration = recording
    for _ in range(200):
        sim.step()
        assert quat_matrix(ball.quat).tobytes() == measured[-1].tobytes()


def test_snapshot_round_trip(tmp_path):
    sim = Simulation(load_scene(write_scene(tmp_path, MIXED_SCENE)))
    sim.step()
    path = tmp_path / "step.npz"
    save_snapshot(sim, path)
    c = sim.last_pairs
    want = {
        "step": 1, "time": sim.time, "kind": ["soft", "rigid", "kinematic", "plane"],
        "object_a": c.a.object_id, "object_b": c.b.object_id, "p_a": c.a.point,
        "p_b": c.b.point, "frames": sim.last_frames, "lam": sim.last_lam.reshape(-1, 3),
    }
    for obj in sim.objects:
        want[f"q_{obj.oid}"], want[f"v_{obj.oid}"] = obj.saved_state()
    with np.load(path) as snap:
        assert sorted(snap.files) == sorted(want)
        for key, value in want.items():
            value = np.asarray(value)
            assert (snap[key].dtype, snap[key].shape) == (value.dtype, value.shape), key
            assert snap[key].tobytes() == value.tobytes(), key  # bitwise
        assert len(snap["object_a"]) > 0 and snap["frames"].shape[1:] == (3, 3)
        # the rigid sphere's q: its position, then its orientation quaternion
        assert np.linalg.norm(snap["q_1"][3:]) == pytest.approx(1.0)


COLUMN = """\
objects:
  - name: column
    type: soft
    mesh: {box: {size: [0.07, 0.46, 0.07], divisions: [2, 4, 2], center: [0.0, 0.2298, 0.0]}}
    fixed_region: {axis: y, max: 0.0}
"""


def test_remeshed_box_keeps_its_fixed_region(tmp_path):
    remeshed = with_box_divisions(load_scene(write_scene(tmp_path, COLUMN)), (3, 7, 3))
    fresh = load_scene(write_scene(tmp_path, COLUMN.replace("[2, 4, 2]", "[3, 7, 3]")))
    [spec], [want] = remeshed.objects, fresh.objects
    assert np.array_equal(spec.body.fixed_nodes, want.body.fixed_nodes)
    assert len(spec.body.fixed_nodes) == 16  # the bottom layer of a 3 x 3 box
    assert np.all(spec.body.mesh.nodes[spec.body.fixed_nodes, 1] <= 0.0)


def test_box_node_bound_holds_at_load_and_on_remeshing(tmp_path):
    # the bound is on (nx + 1)(ny + 1)(nz + 1), checked before anything is meshed
    assert scene._box_divisions([99, 9, 99], "b") == (99, 9, 99)  # 10^5 nodes
    with pytest.raises(ValidationError, match=r"^b: \[99, 9, 100\] make 101000 nodes, more "
                       r"than 100000$"):
        scene._box_divisions([99, 9, 100], "b")
    config = load_scene(write_scene(tmp_path, COLUMN))
    with pytest.raises(ValidationError, match="^column.mesh.box.divisions: "):
        with_box_divisions(config, (1_000_000, 5, 5))


def test_remeshing_explicit_fixed_nodes_is_refused(tmp_path):
    config = load_scene(write_scene(tmp_path, COLUMN + "    fixed_nodes: [40]\n"))
    with pytest.raises(ValidationError):
        with_box_divisions(config, (3, 7, 3))


def blow_up_scene_text():
    """point_mass.scn with a step and a velocity that overflow the free motion."""
    text = (SCENES / "point_mass.scn").read_text()
    text = text.replace("dt: 0.01", "dt: 1.0e9")
    text = text.replace("velocity: [0.0, -1.0, 0.0]", "velocity: [0.0, -1.0e300, 0.0]")
    return text.replace("meshes/point.mesh", str(SCENES / "meshes" / "point.mesh"))


def test_non_finite_step_commits_nothing(tmp_path):
    sim = Simulation(load_scene(write_scene(tmp_path, blow_up_scene_text())))
    ball = sim.objects[0]
    state = ball.state
    q, v = state.q.copy(), state.v.copy()
    last = (sim.last_pairs, sim.last_frames, sim.last_lam)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError):
            sim.step()
    assert (sim.time, sim.step_index) == (0.0, 0)
    assert ball.state is state
    assert np.array_equal(state.q, q) and np.array_equal(state.v, v)
    assert (sim.last_pairs, sim.last_frames, sim.last_lam) == last


def test_cli_run_reports_non_finite_step(tmp_path, capsys):
    path = write_scene(tmp_path, blow_up_scene_text())
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--scene", str(path), "--steps", "2",
                         "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_non_finite_free_motion_stops_before_pgs(tmp_path, monkeypatch):
    def no_pgs(*args, **kwargs):
        raise AssertionError("PGS ran on a non-finite free motion")

    monkeypatch.setattr(solver, "pgs", no_pgs)
    sim = Simulation(load_scene(write_scene(tmp_path, blow_up_scene_text())))
    with pytest.raises(NonFiniteStateError, match="free motion"):
        sim.step()
    assert (sim.time, sim.step_index) == (0.0, 0)


@pytest.mark.filterwarnings("error")
def test_cli_run_prints_only_the_error_line(tmp_path, capsys):
    path = write_scene(tmp_path, blow_up_scene_text())
    code = cli.main(["run", "--scene", str(path), "--steps", "2",
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "non-finite free motion" in captured.err


def test_non_finite_correction_commits_nothing(monkeypatch):
    # a finite free motion whose correction overflows is caught before the commit
    def overflowing_correction(ctx, t):
        return {oid: np.full(S.shape[1], np.inf) for oid, S in ctx.S_by_object.items()}

    monkeypatch.setattr(solver, "_mechanical_correction", overflowing_correction)
    sim = Simulation(load_scene(SCENES / "point_mass.scn"))
    state = sim.objects[0].state
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match="would reach a non-finite state"):
            sim.step()
    assert (sim.time, sim.step_index) == (0.0, 0)
    assert sim.objects[0].state is state


def test_non_finite_forward_pass_stops_before_pgs(monkeypatch):
    # an overflow on a row the free motion's backward pass skips is still a
    # non-finite free motion: the check reads the whole forward pass
    def overflowing_forward(self, b, _fn=Factorization.forward):
        y = _fn(self, b)
        y[0] = np.inf
        return y

    def no_pgs(*args, **kwargs):
        raise AssertionError("PGS ran on a non-finite free motion")

    monkeypatch.setattr(Factorization, "forward", overflowing_forward)
    monkeypatch.setattr(solver, "pgs", no_pgs)
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (3, 6, 3))
    sim = Simulation(config)
    state = sim.objects[0].state
    with pytest.raises(NonFiniteStateError, match="object 0 has a non-finite free motion"):
        sim.step()
    assert (sim.time, sim.step_index) == (0.0, 0)
    assert sim.objects[0].state is state


@pytest.mark.parametrize("scheme", ["single", "standard", "fast"])
def test_non_finite_violation_stops_pgs_and_commits_nothing(monkeypatch, scheme):
    # a NaN violation used to read as a separated contact in PGS, and the
    # Newton loop then stopped on "penetration" with the NaN unreported
    def nan_violation(D, r, _fn=solver.compute_violation):
        delta = _fn(D, r)
        delta[3] = np.nan
        return delta

    monkeypatch.setattr(solver, "compute_violation", nan_violation)
    config = load_scene(SCENES / "block_on_plane.scn")
    sim = Simulation(replace(config, newton=replace(config.newton, scheme=scheme)))
    state = sim.objects[0].state
    with pytest.raises(NonFiniteStateError, match="group 1: non-finite violation"):
        sim.step()
    assert (sim.time, sim.step_index) == (0.0, 0)
    assert sim.objects[0].state is state


def test_step_reports_system_solves():
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (7, 4, 7))
    sim = Simulation(replace(config, newton=replace(config.newton, scheme="fast")))
    fast = [sim.step() for _ in range(4)]
    # a fast step backsolves for the free motion and the final correction;
    # step 0 also solves one unit column per contact DOF to fill the cached
    # block of A^-1, from which W_g is gathered
    contact_dofs = 3 * len(set(sim.last_pairs.a.nodes[:, 0].tolist()))
    assert fast[0].system_solves == 2 + contact_dofs
    assert [r.system_solves for r in fast[1:]] == [2, 2, 2]
    # a negative tolerance forces the scene's 5 iterations: the converged
    # contact solve leaves nothing for a second one to correct
    sim = Simulation(replace(config, newton=replace(config.newton, scheme="standard",
                                                    penetration_tol=-1.0)))
    for r in (sim.step() for _ in range(4)):
        # the free motion, one solve per row of W in each iteration that
        # rebuilds it (the plane's normals repeat, so only the first does),
        # one mechanical correction per iteration, and the final solve
        rebuilds = sum(not it.kept for it in r.iterations)
        assert rebuilds == 1 < r.newton_iterations
        assert r.system_solves == 2 + rebuilds * 3 * r.c_groups + r.newton_iterations


def test_step_reports_newton_exit_and_pgs_convergence():
    # the loop stops once the worst geometric gap after the move is within
    # the tolerance: at once at the scene's, in the second iteration at 0.0,
    # when no pair is left penetrating. A contact solve capped at one
    # iteration tests only lambda = 0 and stops unconverged on its projection,
    # each group's impulse as if it were alone, which overshoots the resting
    # block's coupled contacts out of the plane
    config = load_scene(SCENES / "block_on_plane.scn")
    cases = [
        (dict(), {}, "penetration", 1, True),
        (dict(max_iterations=5, penetration_tol=0.0), {}, "penetration", 2, True),
        (dict(max_iterations=1, penetration_tol=0.0), dict(max_iterations=1),
         "penetration", 1, False),
    ]
    for newton, pgs, exit_reason, iterations, converged in cases:
        cfg = replace(config, newton=replace(config.newton, scheme="fast", **newton),
                      pgs=replace(config.pgs, **pgs))
        report = Simulation(cfg).step()
        assert (report.newton_exit, report.newton_iterations, report.solve_converged) == (
            exit_reason, iterations, converged)
        stats = report.iterations
        assert [it.penetration <= cfg.newton.penetration_tol for it in stats] == (
            [False] * (iterations - 1) + [exit_reason == "penetration"])


# --- the step's seams: detection, penetration and the prepared context -----------


@pytest.fixture(params=["grasp_rotate", "mixed"])
def seam_config(request, tmp_path):
    # kinematic plates, and a rigid sphere on a plane
    if request.param == "mixed":
        return load_scene(write_scene(tmp_path, MIXED_SCENE))
    return load_scene(SCENES / "grasp_rotate.scn")


def committed(sim):
    return {obj.oid: obj.state for obj in sim.dynamic_objects}


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def contact_arrays(contacts):
    """Every field of a ``Contacts``, both sides included."""
    sides = [getattr(side, f.name) for side in (contacts.a, contacts.b) for f in fields(side)]
    return sides + [getattr(contacts, f.name) for f in fields(contacts) if f.name not in ("a", "b")]


def same_contacts(c, d):
    return all(same_bits(x, y) for x, y in zip(contact_arrays(c), contact_arrays(d), strict=True))


def outcome(sim, report):
    """What a step decides, for bitwise comparison: everything but timings and solve counts."""
    values = [getattr(report, name) for name in report.CSV_FIELDS
              if not name.startswith("t_") and name != "system_solves"]
    values += [(it.penetration, it.solve_iterations, it.solve_residual, it.rotation)
               for it in report.iterations]
    arrays = [sim.last_lam, sim.last_frames, *contact_arrays(sim.last_pairs)]
    arrays += [a for obj in sim.objects for a in obj.saved_state()]
    return repr(values), [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def test_detect_on_committed_states_gives_the_next_steps_pairs(seam_config):
    sim = Simulation(seam_config)
    for _ in range(4):
        pairs, frames = sim.detect(committed(sim), sim.time)
        detection_frames = sim.prepare_step().ctx.detection_frames
        sim.step()
        assert len(pairs) > 0
        assert same_contacts(pairs, sim.last_pairs)
        assert same_bits(frames, detection_frames)


@pytest.mark.parametrize("scheme", ["fast", "standard"])
def test_prepare_step_hands_on_detections_frames(scheme):
    # prepare_step compares no normals: its frames are detection's, bit for
    # bit, and nothing built from frames crosses a step, so every step's
    # first iteration builds its own W and preparation, also where the step reuses
    # the previous one's W_g
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (7, 6, 7))
    sim = Simulation(replace(config, newton=replace(config.newton, scheme=scheme)))
    for step in range(2):
        _, frames = sim.detect(committed(sim), sim.time)
        ctx = sim.prepare_step().ctx
        assert same_bits(ctx.detection_frames, frames)
        report = sim.step()
        assert report.mapping_reused is (step == 1)
        assert not report.iterations[0].kept


def test_penetration_at_committed_positions_is_pen_after(seam_config):
    sim = Simulation(seam_config)
    pen_after = []
    for _ in range(4):
        report = sim.step()
        q = {oid: state.q for oid, state in committed(sim).items()}
        assert same_bits(sim.penetration(sim.last_pairs, q, sim.time), report.pen_after)
        pen_after.append(report.pen_after)
    assert max(pen_after) > 0.0


def test_prepare_step_commits_nothing(seam_config):
    sim, fresh = Simulation(seam_config), Simulation(seam_config)
    states = committed(sim)
    saved = [obj.saved_state() for obj in sim.objects]
    for _ in range(2):
        sim.prepare_step()
    assert (sim.time, sim.step_index) == (0.0, 0)
    assert all(state is states[oid] for oid, state in committed(sim).items())
    assert all(same_bits(a, b) for old, obj in zip(saved, sim.objects)
               for a, b in zip(old, obj.saved_state()))
    # the fast scheme's W_g cache may now hold the step's columns, so only
    # the solve count can differ
    assert outcome(sim, sim.step()) == outcome(fresh, fresh.step())


def test_simulations_sharing_one_config_step_as_from_two_loads(tmp_path):
    # the loaded bodies and their caches are shared; factorizations are not
    path = write_scene(tmp_path, MIXED_SCENE)
    config = load_scene(path)
    shared = Simulation(config), Simulation(config)
    separate = Simulation(load_scene(path)), Simulation(load_scene(path))
    for _ in range(3):
        for one, other in zip(shared, separate):
            assert outcome(one, one.step()) == outcome(other, other.step())


def test_verify_prepares_the_first_steps_pairs(seam_config):
    sim = Simulation(seam_config)
    sim.step()
    assert same_contacts(prepare(seam_config).pairs, sim.last_pairs)


# --- every shipped scene under every scheme, plus the pinned box ----------------

SCHEMES = ("single", "standard", "fast")
SHIPPED = [(path.stem, scheme) for path in sorted(SCENES.glob("*.scn")) for scheme in SCHEMES]


@pytest.fixture(scope="module", params=SHIPPED + [("pinned_box", s) for s in SCHEMES],
                ids=lambda p: "-".join(p))
def recorded_steps(request, tmp_path_factory):
    """Two steps of a scene under one scheme: per step, the detection of the
    committed states before it, the context it prepared, its report and the
    penetration of its pairs at the committed positions after it; and every
    W handed to PGS."""
    name, scheme = request.param
    path = SCENES / f"{name}.scn"
    if name == "pinned_box":
        path = write_scene(tmp_path_factory.mktemp("pinned"), PINNED_BOX)
    config = load_scene(path)
    sim = Simulation(replace(config, newton=replace(config.newton, scheme=scheme)))
    prepared, handed = [], []
    prepare_now, pgs_now = sim.prepare_step, solver.pgs

    def recording_prepare():
        prepared.append(prepare_now())
        return prepared[-1]

    def recording_pgs(W, delta, h, config, prep):
        handed.append(W.copy())
        return pgs_now(W, delta, h, config, prep)

    steps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "prepare_step", recording_prepare)
        mp.setattr(solver, "pgs", recording_pgs)
        for _ in range(2):
            detected = sim.detect(committed(sim), sim.time)
            report = sim.step()
            q = {oid: state.q for oid, state in committed(sim).items()}
            pen = sim.penetration(sim.last_pairs, q, sim.time)
            steps.append((detected, prepared[-1].ctx, report, pen))
    return steps, handed


def test_every_scheme_detects_the_next_steps_pairs_from_committed_states(recorded_steps):
    for (pairs, frames), ctx, _, _ in recorded_steps[0]:
        assert len(pairs) > 0
        assert same_contacts(pairs, ctx.pairs)
        assert same_bits(frames, ctx.detection_frames)


def test_every_scheme_measures_pen_after_at_committed_positions(recorded_steps):
    for _, _, report, pen in recorded_steps[0]:
        assert same_bits(pen, report.pen_after)


def test_every_w_handed_to_pgs_has_positive_definite_blocks(recorded_steps):
    handed = recorded_steps[1]
    assert handed
    for W in handed:
        g = np.arange(len(W) // 3)
        blocks = W.reshape(len(g), 3, len(g), 3)[g, :, g, :]
        eigs = np.linalg.eigvalsh(0.5 * (blocks + blocks.transpose(0, 2, 1)))
        assert (eigs.min(axis=1) > 1e-12 * np.abs(eigs).max(axis=1)).all()


@pytest.mark.parametrize("name", [path.stem for path in sorted(SCENES.glob("*.scn"))])
def test_a_dropped_simulation_is_freed_without_the_cycle_collector(name):
    # a reference cycle through the simulation (a step's closure or record
    # kept on it, say) would hold every array it reaches until the cycle
    # collector happens to run, which raises a run's peak memory
    config = load_scene(SCENES / f"{name}.scn")
    gc.disable()
    try:
        sim = Simulation(config)
        for _ in range(2):
            sim.step()
        dropped = weakref.ref(sim)
        del sim
        assert dropped() is None
    finally:
        gc.enable()


# --- the reported force: the step's, in the final frames --------------------------


@pytest.mark.parametrize("scheme", ["standard", "fast"])
def test_forced_iterations_report_the_steps_force(scheme):
    # each forced iteration adds a small increment; the column's weight is
    # carried by their sum
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (7, 6, 7))
    newton = replace(config.newton, scheme=scheme, max_iterations=5,
                     penetration_tol=-1.0, rotation_tol=-1.0)
    sim = Simulation(replace(config, newton=newton))
    column = config.objects[0]
    weight = column.body.density * np.prod(column.box_params["size"]) * 9.81
    for _ in range(6):
        report = sim.step()
        assert report.newton_iterations == 5
        assert report.lambda_n_sum > 0.5 * weight
        assert report.lambda_n_sum == sim.last_lam[0::3].sum()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_iteration_steps_report_the_pgs_force(scheme):
    config = load_scene(SCENES / "grasp_rotate.scn")
    sim = Simulation(replace(config, newton=replace(config.newton, scheme=scheme,
                                                    max_iterations=1)))
    solved = []
    pgs_now = solver.pgs

    def recording_pgs(*args, **kwargs):
        res = pgs_now(*args, **kwargs)
        solved.append(res.lam)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "pgs", recording_pgs)
        for _ in range(3):
            report = sim.step()
            lam = solved[-1]
            assert report.newton_iterations == 1
            assert np.abs(sim.last_lam - lam).max() <= 1e-12 * np.abs(lam).max()
            assert report.lambda_n_max == sim.last_lam[0::3].max()


# --- analytic referee: a point mass on an incline ---------------------------------


def incline_scene(theta, scheme):
    """A 1 kg point resting on a plane tilted by ``theta`` about z, mu 0.5,
    no damping; the point starts on the plane at rest."""
    s, c = float(np.sin(theta)), float(np.cos(theta))
    return f"""\
dt: 0.01
mu: 0.5
newton: {{scheme: {scheme}}}
objects:
  - name: point
    type: soft
    mesh: {{file: {SCENES / "meshes" / "point.mesh"}}}
    node_mass: 1.0
    material: {{rayleigh_mass: 0.0, rayleigh_stiffness: 0.0}}
  - name: slope
    type: plane
    normal: [{s!r}, {c!r}, 0.0]
    offset: {0.004 * c!r}
"""


@pytest.mark.parametrize("forced", [False, True], ids=["shipped", "forced"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("degrees", [20, 35])
def test_point_mass_on_an_incline_follows_coulomb(tmp_path, degrees, scheme, forced):
    # below the friction angle (26.6 degrees at mu 0.5) the point sticks;
    # above it slides at g (sin - mu cos); lambda_n carries m g cos either way
    theta = np.radians(degrees)
    config = load_scene(write_scene(tmp_path, incline_scene(theta, scheme)))
    if forced:
        config = replace(config, newton=replace(config.newton, max_iterations=4,
                                                penetration_tol=-1.0, rotation_tol=-1.0))
    sim = Simulation(config)
    normal = np.array([np.sin(theta), np.cos(theta), 0.0])
    g, mu, steps = 9.81, 0.5, 50
    for _ in range(steps):
        report = sim.step()
        assert report.c_groups == 1
        assert report.lambda_n_sum == pytest.approx(g * np.cos(theta), rel=1e-9)
    v = sim.dynamic_objects[0].state.v
    slide = np.linalg.norm(v - (v @ normal) * normal)
    if degrees == 20:
        assert slide <= 1e-12
    else:
        expected = g * (np.sin(theta) - mu * np.cos(theta))
        assert expected == pytest.approx(1.60884, rel=1e-5)
        assert slide / (steps * config.h) == pytest.approx(expected, rel=1e-4)


def test_kinematic_poses_are_built_once_per_time(monkeypatch):
    # detection and every view ask a plate for its pose at the step's start
    # or end time; the end pose is the next step's start pose
    built = []

    class CountingPose(Pose):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(scene, "Pose", CountingPose)
    sim = Simulation(load_scene(SCENES / "grasp_rotate.scn"))
    plates = [obj for obj in sim.objects if obj.kind == "kinematic"]
    for per_plate in (2, 1, 1):
        built.clear()
        sim.step()
        assert len(built) == per_plate * len(plates)
    for t in (0.0, 0.03, 0.01, 0.03):
        for plate in plates:
            pose = plate.pose_at(t)
            fresh = type(plate)(plate.oid, plate.spec).pose_at(t)
            assert same_bits(pose.rotation, fresh.rotation)
            assert same_bits(pose.position, fresh.position)
            assert not (pose.rotation.flags.writeable or pose.position.flags.writeable)


# a box held only by its pinned face x = 0.05, and a 10 g point falling onto
# its top face next to that face: the box's only pairs are the point's, whose
# B triangle holds pinned nodes
CANTILEVER_WITH_POINT = """\
dt: 0.01
threshold: 0.01
newton: {scheme: fast}
objects:
  - name: box
    type: soft
    mesh: {box: {size: [0.1, 0.1, 0.1], divisions: [4, 4, 4], center: [0.0, 0.0498, 0.0]}}
    fixed_region: {axis: x, min: 0.049}
  - name: point
    type: soft
    mesh: {file: point.mesh}
    node_mass: 0.01
    velocity: [0.0, -0.5, 0.0]
"""


def cantilever_with_point(tmp_path):
    (tmp_path / "point.mesh").write_text("nodes 1\n0.045 0.1008 0.01\ntets 0\n")
    return load_scene(write_scene(tmp_path, CANTILEVER_WITH_POINT))


def use_two_solves(monkeypatch):
    """Make the step solve the free motion and the correction apart, as it
    did with two solves per body: dv_free = A^-1 b over every row, dv_cor =
    h A^-1 S^T t, committing v + dv_free + dv_cor and q_free + h dv_cor."""
    parts = {}

    def correction(ctx, t):
        dv = {}
        for oid, S in sorted(ctx.S_by_object.items()):
            F = ctx.F_by_object[oid]
            dv_free = F.backward(ctx.y_free[oid])  # F.solve(b) bit for bit
            dv_cor = ctx.h * F.solve(S.T @ t)
            dv[oid] = dv_free + dv_cor
            parts[id(dv[oid])] = dv_free, dv_cor
        return dv

    def integrate(state, dv, h):
        dv_free, dv_cor = parts.pop(id(dv))
        q_free = state.q + h * (state.v + dv_free)
        return MechanicalState(q_free + h * dv_cor, state.v + dv_free + dv_cor)

    monkeypatch.setattr(solver, "_mechanical_correction", correction)
    monkeypatch.setattr(scene, "integrate_correction", integrate)


ONE_SOLVE_CASES = {
    **{path.stem: (lambda tmp_path, path=path: load_scene(path))
       for path in sorted(SCENES.glob("*.scn"))},
    "mixed": lambda tmp_path: load_scene(write_scene(tmp_path, MIXED_SCENE)),
    "pinned": lambda tmp_path: load_scene(write_scene(tmp_path, PINNED_BOX)),
    "cantilever-with-point": cantilever_with_point,
}


@pytest.mark.parametrize("case", ONE_SOLVE_CASES.values(), ids=ONE_SOLVE_CASES.keys())
def test_one_final_solve_matches_two_solves(tmp_path, monkeypatch, case):
    # step by step along the run: rounding differences grow between steps
    # (to 7e-10 relative after 10 steps of grasp_rotate under PGS, stopped at
    # a relative lambda change of 1e-6), so each step starts both ways from the
    # same state; a state of size 0 is compared against its size at the start
    sim = Simulation(case(tmp_path))
    scales = [(np.abs(q).max(), np.abs(v).max())
              for q, v in (obj.saved_state() for obj in sim.dynamic_objects)]
    groups = 0
    for _ in range(10):
        twin = copy.deepcopy(sim)
        groups += sim.step().c_groups
        with monkeypatch.context() as m:
            use_two_solves(m)
            twin.step()
        for obj, ref, (q_scale, v_scale) in zip(sim.dynamic_objects, twin.dynamic_objects,
                                                scales):
            (q, v), (q_ref, v_ref) = obj.saved_state(), ref.saved_state()
            assert np.abs(q - q_ref).max() <= 1e-12 * max(np.abs(q_ref).max(), q_scale)
            assert np.abs(v - v_ref).max() <= 1e-12 * max(np.abs(v_ref).max(), v_scale)
    assert groups > 0


def test_pinned_nodes_of_a_b_triangle_are_read(tmp_path):
    # the box's free motion is solved on its trailing band rows only, down to
    # the earliest node of the point's B triangle, pinned nodes included
    sim = Simulation(cantilever_with_point(tmp_path))
    box, point = sim.dynamic_objects
    pairs, _ = sim.detect({o.oid: o.state for o in sim.dynamic_objects}, sim.time)
    assert (pairs.a.object_id == point.oid).all() and (pairs.b.object_id == box.oid).all()
    assert np.isin(pairs.b.nodes, box.body.fixed_nodes).any()
    read = box.read_dofs(pairs)
    assert set((3 * pairs.b.nodes[..., None] + np.arange(3)).ravel()) <= set(read)
    sim.step()
    assert box.factorization._at[read].min() > 0  # a partial backward pass
    assert np.isfinite(box.state.q).all()


def test_fast_column_step_makes_two_passes_over_the_whole_band(monkeypatch):
    # the free motion's backward pass and the final solve's forward pass run
    # on the last of the band's blocks only, where the contact DOFs are
    sim = Simulation(load_scene(SCENES / "bench_column.scn"))
    sim.step()  # fills the cached block of A^-1
    widths = []

    def dtbtrs(ab, b, _fn=linalg.dtbtrs, **kwargs):
        widths.append((kwargs.get("trans", "N"), ab.shape[1]))
        return _fn(ab, b, **kwargs)

    monkeypatch.setattr(linalg, "dtbtrs", dtbtrs)
    sim.step()
    n = sim.total_dofs()
    bw = sim.objects[0].factorization._band.shape[0] - 1
    contact = 3 * 64  # the bottom layer's 64 nodes
    assert widths == [("T", n), ("N", contact), ("T", contact + bw), ("N", n)]


# --- S, W_g and X_o reused while the attachments repeat ---------------------------


def fast_config(name, divisions=None):
    config = load_scene(SCENES / f"{name}.scn")
    if divisions is not None:
        config = with_box_divisions(config, divisions)
    return replace(config, newton=replace(config.newton, scheme="fast"))


def spinning_ball_config(tmp_path):
    config = load_scene(write_scene(tmp_path, SPINNING_BALL))
    return replace(config, newton=replace(config.newton, scheme="fast"))


def count_builds(monkeypatch):
    """Calls of the two builders the reuse skips, per kind, as the step looks them up."""
    calls = {"S": 0, "W_g": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scene, "build_signed_mapping",
                        counting("S", scene.build_signed_mapping))
    monkeypatch.setattr(scene, "assemble_Wg", counting("W_g", scene.assemble_Wg))
    return calls


def builds_per_step(sim, calls, steps):
    """(S builds, W_g builds, mapping_reused) of each of ``steps`` steps."""
    seen = []
    for _ in range(steps):
        before = dict(calls)
        report = sim.step()
        seen.append((calls["S"] - before["S"], calls["W_g"] - before["W_g"],
                     report.mapping_reused))
    return seen


@pytest.mark.parametrize("config", [fast_config("block_on_plane"),
                                    fast_config("bench_column", (7, 6, 7))],
                         ids=["block_on_plane", "bench_column"])
def test_repeated_attachments_build_nothing_after_the_first_step(monkeypatch, config):
    calls = count_builds(monkeypatch)
    sim = Simulation(config)
    objects = len(sim.dynamic_objects)
    assert builds_per_step(sim, calls, 4) == [(objects, 1, False)] + [(0, 0, True)] * 3


def step_decisions(sim, report):
    """What a step decides, bitwise: committed states, lambda, frames,
    pen_after and every Newton iteration's record but its times."""
    arrays = [sim.last_lam, sim.last_frames, np.float64(report.pen_after)]
    arrays += [a for obj in sim.objects for a in obj.saved_state()]
    stats = [(it.penetration, it.solve_iterations, it.solve_work, it.solve_residual,
              it.solve_converged, it.rotation) for it in report.iterations]
    return repr(stats), [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


@pytest.mark.parametrize("name", ["block_on_plane", "bench_column", "grasp_rotate", "ball"])
def test_reused_mapping_steps_as_a_rebuilt_one(tmp_path, name):
    if name == "ball":
        config = spinning_ball_config(tmp_path)
    else:
        config = fast_config(name, (7, 6, 7) if name == "bench_column" else None)
    config = replace(config, newton=replace(config.newton, max_iterations=3,
                                            penetration_tol=-1.0, rotation_tol=-1.0))
    reusing, rebuilding = Simulation(config), Simulation(config)
    reused = []
    for _ in range(6):
        rebuilding._mapping = None
        report = reusing.step()
        reused.append(report.mapping_reused)
        assert step_decisions(reusing, report) == step_decisions(rebuilding, rebuilding.step())
    assert any(reused) == (name != "ball")


def test_changing_attachments_rebuild_every_step(monkeypatch, tmp_path):
    # the press's barycentric weights move each step; the ball's rigid A is
    # factored anew each step, so only its S is the previous step's
    calls = count_builds(monkeypatch)
    sim = Simulation(fast_config("two_body_press"))
    assert builds_per_step(sim, calls, 4) == [(2, 1, False)] * 4
    sim = Simulation(spinning_ball_config(tmp_path))
    assert builds_per_step(sim, calls, 4) == [(1, 1, False)] + [(0, 1, False)] * 3


def test_a_vertex_leaving_and_rejoining_contact_rebuilds(monkeypatch):
    sim = Simulation(fast_config("block_on_plane"))
    detect_now = sim.detect

    def detect(states, t):
        pairs, frames = detect_now(states, t)
        if sim.step_index == 1:  # the last pair leaves for one step
            keep = np.arange(len(pairs) - 1)
            return collision._take(pairs, keep), frames[keep]
        return pairs, frames

    monkeypatch.setattr(sim, "detect", detect)
    calls = count_builds(monkeypatch)
    assert builds_per_step(sim, calls, 4) == [(1, 1, False)] * 3 + [(0, 0, True)]


def test_cached_wg_and_x_are_read_only():
    sim = Simulation(fast_config("block_on_plane"))
    sim.step()
    ctx = sim.prepare_step().ctx
    assert ctx.wg is sim._mapping.wg
    for array in (ctx.wg, *(X for _, X in ctx.X_by_object.values())):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] += 1.0


def test_mapping_reused_is_reported():
    # block_on_plane as shipped (single scheme), and the press under fast
    sim = Simulation(load_scene(SCENES / "block_on_plane.scn"))
    assert [sim.step().mapping_reused for _ in range(4)] == [False, True, True, True]
    sim = Simulation(load_scene(SCENES / "two_body_press.scn"))
    assert [sim.step().mapping_reused for _ in range(4)] == [False] * 4
