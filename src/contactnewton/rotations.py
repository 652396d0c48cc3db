"""Rotation vectors, unit quaternions and rotation matrices, in plain floats.

Each conversion repeats the arithmetic of scipy's ``Rotation`` class
operation for operation (its compiled single-rotation paths), so every
result is bit for bit scipy's, without importing scipy's transform
subpackage and its 57 modules. Quaternions are ``(x, y, z, w)`` tuples,
scalar last, as ``Rotation.as_quat`` orders them. ``tests/test_rotations.py``
holds each function to scipy's result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteStateError


def rotvec_quat(rotvec) -> tuple[float, float, float, float]:
    """The unit quaternion of a rotation vector, as ``Rotation.from_rotvec``.

    Below 1e-3 rad, sin(a/2)/a is its Taylor series. A rotation vector
    whose angle is not finite (its square overflows, or it holds inf or nan)
    raises :class:`NonFiniteStateError`.
    """
    x, y, z = (float(c) for c in rotvec)
    angle = math.sqrt(x * x + y * y + z * z)
    if not math.isfinite(angle):
        raise NonFiniteStateError(f"rotation vector {[x, y, z]} has no finite angle")
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    return scale * x, scale * y, scale * z, math.cos(angle / 2)


def quat_matrix(quat) -> np.ndarray:
    """The rotation matrix of a unit quaternion, as ``Rotation.as_matrix``."""
    x, y, z, w = (float(c) for c in quat)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def rotvec_matrix(rotvec) -> np.ndarray:
    """The rotation matrix of a rotation vector, as ``from_rotvec(v).as_matrix()``."""
    return quat_matrix(rotvec_quat(rotvec))


def normalized(quat) -> tuple[float, float, float, float]:
    """``quat`` over its norm, as ``Rotation.from_quat`` normalizes: the
    squares summed in order, with no fused multiply-add."""
    x, y, z, w = (float(c) for c in quat)
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    return x / norm, y / norm, z / norm, w / norm


def matrix_quat(matrix) -> tuple[float, float, float, float]:
    """The unit quaternion of a rotation matrix, as ``Rotation.from_matrix``.

    The formula is set by the largest of the diagonal and the trace (the
    first of equals). ``matrix`` must be a rotation: scipy's check of the
    determinant and its projection of a matrix that is not orthogonal to
    1e-12 are not repeated.
    """
    m = np.asarray(matrix, dtype=np.float64).tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = (m[0][0], m[1][1], m[2][2], trace)
    choice = decision.index(max(decision))
    if choice == 3:
        quat = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        i = choice
        j = (i + 1) % 3
        k = (j + 1) % 3
        quat = [0.0] * 4
        quat[i] = 1 - trace + 2 * m[i][i]
        quat[j] = m[j][i] + m[i][j]
        quat[k] = m[k][i] + m[i][k]
        quat[3] = m[k][j] - m[j][k]
    return normalized(quat)


def compose(p, q) -> tuple[float, float, float, float]:
    """The rotation p after q, normalized, as ``Rotation(p) * Rotation(q)``."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    cx = py * qz - pz * qy
    cy = pz * qx - px * qz
    cz = px * qy - py * qx
    return normalized((pw * qx + qw * px + cx,
                       pw * qy + qw * py + cy,
                       pw * qz + qw * pz + cz,
                       pw * qw - px * qx - py * qy - pz * qz))
