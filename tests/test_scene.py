from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactnewton import cli, solver
from contactnewton.errors import NonFiniteStateError, ParseError, ValidationError
from contactnewton.scene import (
    Simulation,
    load_scene,
    load_snapshot,
    save_snapshot,
    take_snapshot,
    with_box_divisions,
)

SCENES = Path(__file__).resolve().parents[1] / "scenes"

GROUND = "objects: [{name: ground, type: plane}]\n"

# one object of every runtime kind: soft box, rigid sphere, spinning plate, plane
MIXED_SCENE = """\
dt: 0.01
threshold: 0.01
pgs: {iterations: 100, tolerance: 1.0e-6}
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

BAD_SCENES = {
    "objects-list-of-int": "objects: [1]\n",
    "objects-mapping": "objects: {a: 1}\n",
    "pgs-iterations-text": GROUND + "pgs: {iterations: abc}\n",
    "dt-text": GROUND + "dt: abc\n",
    "output-every-zero": GROUND + "output: {every: 0}\n",
    "soft-empty-mesh": "objects: [{name: block, type: soft, mesh: {}}]\n",
    "kinematic-empty-mesh": "objects: [{name: block, type: kinematic_mesh, mesh: {}}]\n",
    **{name: text for name, (text, _) in UNKNOWN_KEYS.items()},
}


def write_scene(tmp_path, text, name="scene.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_bad_scene_raises_package_error(tmp_path, text):
    with pytest.raises((ParseError, ValidationError)):
        load_scene(write_scene(tmp_path, text))


@pytest.mark.parametrize("text, message", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_unknown_key_names_section_and_key(tmp_path, text, message):
    with pytest.raises(ValidationError) as info:
        load_scene(write_scene(tmp_path, text))
    assert str(info.value).startswith(message)


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


def test_mixed_scene_steps_and_commits(tmp_path):
    sim = Simulation(load_scene(write_scene(tmp_path, MIXED_SCENE)))
    for _ in range(3):
        report = sim.step()
        assert np.isfinite(report.pen_after)
    assert sim.step_index == 3
    assert sim.last_pairs and sim.last_lam.size == 3 * len(sim.last_pairs)
    ball = sim.objects[1]
    assert np.array_equal(ball.state.q[3:], np.zeros(3))  # rotation folded into the pose
    assert np.abs(ball.rotation @ ball.rotation.T - np.eye(3)).max() <= 1e-12


def test_snapshot_round_trip(tmp_path):
    sim = Simulation(load_scene(write_scene(tmp_path, MIXED_SCENE)))
    sim.step()
    snap = take_snapshot(sim)
    path = tmp_path / "step.bin"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert (back.step, back.time) == (snap.step, snap.time)
    kinds = [(0, "soft"), (1, "rigid"), (2, "kinematic"), (3, "plane")]
    assert [o[:2] for o in back.objects] == kinds
    for ours, theirs in zip(snap.objects, back.objects):
        assert ours[:2] == theirs[:2]
        assert np.array_equal(ours[2], theirs[2]) and np.array_equal(ours[3], theirs[3])
    assert np.linalg.norm(back.objects[1][2][3:]) == pytest.approx(1.0)  # unit quaternion
    assert len(back.pairs) == len(snap.pairs) > 0
    for ours, theirs in zip(snap.pairs, back.pairs):
        assert ours[:2] == theirs[:2]
        for a, b in zip(ours[2:], theirs[2:]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("cut", [8, 96])
def test_truncated_snapshot_raises(tmp_path, cut):
    sim = Simulation(load_scene(SCENES / "block_on_plane.scn"))
    sim.step()
    path = tmp_path / "step.bin"
    save_snapshot(take_snapshot(sim), path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ParseError):
        load_snapshot(path)


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
    assert np.array_equal(spec.fixed_nodes, want.fixed_nodes)
    assert len(spec.fixed_nodes) == 16  # the bottom layer of a 3 x 3 box
    assert np.all(spec.mesh.nodes[spec.fixed_nodes, 1] <= 0.0)


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


def test_step_reports_system_solves():
    config = with_box_divisions(load_scene(SCENES / "bench_column.scn"), (7, 4, 7))
    sim = Simulation(replace(config, newton=replace(config.newton, scheme="fast")))
    fast = [sim.step() for _ in range(4)]
    # step 0: the free motion, one unit solve per contact DOF to fill the
    # cache of A^-1 columns, and the final correction; later steps gather
    contact_dofs = 3 * len(set(sim.last_pairs.a.nodes[:, 0].tolist()))
    assert fast[0].system_solves == 2 + contact_dofs
    assert [r.system_solves for r in fast[1:]] == [2, 2, 2]
    sim = Simulation(replace(config, newton=replace(config.newton, scheme="standard")))
    for r in (sim.step() for _ in range(4)):
        # the free motion, then per iteration one solve per row of W and
        # one mechanical correction
        assert r.system_solves == 1 + r.newton_iterations * (3 * r.c_groups + 1)


def test_step_reports_newton_exit_and_pgs_convergence():
    config = load_scene(SCENES / "block_on_plane.scn")
    cases = [
        (dict(), {}, "penetration", True),
        (dict(max_iterations=3, penetration_tol=0.0), {}, "rotation", True),
        (dict(max_iterations=1, penetration_tol=0.0), dict(max_iterations=1),
         "max_iterations", False),
    ]
    for newton, pgs, exit_reason, converged in cases:
        cfg = replace(config, newton=replace(config.newton, scheme="fast", **newton),
                      pgs=replace(config.pgs, **pgs))
        report = Simulation(cfg).step()
        assert (report.newton_exit, report.pgs_converged) == (exit_reason, converged)
