"""contactnewton.rotations against scipy's Rotation, bit for bit.

scipy stays the reference here: each helper must return the bytes of the
Rotation call it replaces, on a seeded set of rotation vectors that holds
angles at and below the 1e-3 rad switch to the Taylor series and every
angle grasp_rotate's plates turn through in 3000 steps.
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from contactnewton import rotations
from contactnewton.dynamics import MechanicalState
from contactnewton.errors import NonFiniteStateError
from contactnewton.scene import Simulation, load_scene

PLATE_SPIN = 34.90658503988659  # rad/s, scenes/grasp_rotate.scn
PLATE_DT = 0.005


def plate_rotvecs(steps=3000):
    """The plates' rotation vectors at every step end, as the kinematic runtime
    forms them: the unit axis times the spin times the step's summed time."""
    axis = np.array([0.0, 0.0, 1.0])
    axis = axis / np.linalg.norm(axis)
    t, out = 0.0, []
    for _ in range(steps):
        t = t + PLATE_DT
        out.append(axis * (PLATE_SPIN * t))
    return out


def random_rotvecs(seed, count=2000, low=-6.0, high=0.5):
    """Random directions with lengths 10**U(low, high) rad, and the angles
    around the Taylor switch: 1e-3 itself and its neighbouring floats."""
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    vecs = list(axes * 10.0 ** rng.uniform(low, high, (count, 1)))
    for angle in (0.0, 1e-3, math.nextafter(1e-3, 0.0), math.nextafter(1e-3, 1.0), 5e-4):
        vecs += [axes[0] * angle, np.array([angle, 0.0, 0.0])]
    return vecs


def same_bytes(mine, ref):
    return np.asarray(mine, dtype=np.float64).tobytes() == np.asarray(ref).tobytes()


def random_matrices(seed, count=2000):
    """Rotations of normal random quaternions, which are uniform over SO(3)."""
    return Rotation.from_quat(np.random.default_rng(seed).normal(size=(count, 4))).as_matrix()


@pytest.mark.parametrize("vecs", [plate_rotvecs(), random_rotvecs(1)], ids=["plates", "random"])
def test_rotation_vector_gives_scipys_quaternion_and_matrix(vecs):
    assert [i for i, v in enumerate(vecs)
            if not same_bytes(rotations.rotvec_quat(v), Rotation.from_rotvec(v).as_quat())] == []
    assert [i for i, v in enumerate(vecs)
            if not same_bytes(rotations.rotvec_matrix(v), Rotation.from_rotvec(v).as_matrix())] == []


def test_angles_at_the_taylor_switch_are_in_the_set():
    angles = [np.linalg.norm(v) for v in random_rotvecs(1)]
    assert sum(a <= 1e-3 for a in angles) > 100
    assert 1e-3 in angles and math.nextafter(1e-3, 1.0) in angles


def test_quaternion_gives_scipys_normalized_matrix():
    rng = np.random.default_rng(3)
    quats = rng.normal(size=(2000, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1))
    assert [i for i, q in enumerate(quats)
            if not same_bytes(rotations.quat_matrix(rotations.normalized(q)),
                              Rotation.from_quat(q).as_matrix())] == []


def test_product_gives_scipys_composed_rotation():
    # a rigid body's commit: the step's small turn after its orientation
    turns = random_rotvecs(4, low=-7.0, high=-1.0)
    matrices = random_matrices(5, len(turns))
    assert [i for i, (v, R) in enumerate(zip(turns, matrices))
            if not same_bytes(rotations.compose(rotations.rotvec_quat(v),
                                                Rotation.from_matrix(R).as_quat()),
                              (Rotation.from_rotvec(v) * Rotation.from_matrix(R)).as_quat())
            ] == []


@pytest.mark.parametrize("rotvec", [[math.inf, 0.0, 0.0], [0.0, math.nan, 0.0],
                                    [0.0, 0.0, 1.0e155]], ids=["inf", "nan", "square-overflows"])
def test_rotation_vector_without_a_finite_angle_is_refused(rotvec):
    with pytest.raises(NonFiniteStateError, match="has no finite angle"):
        rotations.rotvec_quat(rotvec)
    with pytest.raises(NonFiniteStateError, match="has no finite angle"):
        rotations.rotvec_matrix(rotvec)


def test_rigid_commit_composes_its_stored_quaternion(tmp_path):
    # each commit turns the stored quaternion by the step's increment, keeps
    # scipy's composed rotation, and the snapshot writes that quaternion
    from test_scene import SPINNING_BALL, write_scene  # beside this file

    sim = Simulation(load_scene(write_scene(tmp_path, SPINNING_BALL)))
    ball = next(obj for obj in sim.objects if obj.kind == "rigid")
    assert ball.quat == (0.0, 0.0, 0.0, 1.0)
    scipy_rotation = Rotation.identity()
    for turn in random_rotvecs(6, count=300, low=-7.0, high=-1.0):
        want = rotations.compose(rotations.rotvec_quat(turn), ball.quat)
        scipy_rotation = Rotation.from_rotvec(turn) * scipy_rotation
        ball.commit(MechanicalState(np.concatenate([ball.state.q[:3], turn]), ball.state.v))
        assert same_bytes(ball.quat, want)
        assert np.abs(rotations.quat_matrix(ball.quat) - scipy_rotation.as_matrix()).max() <= 1e-15
        assert same_bytes(ball.saved_state()[0][3:], ball.quat)
