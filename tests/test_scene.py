from pathlib import Path

import numpy as np
import pytest

from contactnewton import cli
from contactnewton.errors import ParseError, ValidationError
from contactnewton.scene import (
    Simulation,
    load_scene,
    load_snapshot,
    save_snapshot,
    take_snapshot,
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

BAD_SCENES = {
    "objects-list-of-int": "objects: [1]\n",
    "objects-mapping": "objects: {a: 1}\n",
    "pgs-iterations-text": GROUND + "pgs: {iterations: abc}\n",
    "dt-text": GROUND + "dt: abc\n",
    "output-every-zero": GROUND + "output: {every: 0}\n",
}


def write_scene(tmp_path, text, name="scene.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_bad_scene_raises_package_error(tmp_path, text):
    with pytest.raises((ParseError, ValidationError)):
        load_scene(write_scene(tmp_path, text))


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
