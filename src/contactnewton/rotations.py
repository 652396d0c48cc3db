"""Rotation vectors, unit quaternions and rotation matrices, in plain floats.

Each conversion repeats the arithmetic of scipy's ``Rotation`` class
operation for operation (its compiled single-rotation paths), so every
result is bit for bit scipy's, without importing scipy's transform
subpackage and its 57 modules. Quaternions are ``(x, y, z, w)`` tuples,
scalar last, as ``Rotation.as_quat`` orders them. An orientation is kept
as a quaternion and turned by :func:`compose`; a matrix is only ever made
from one, never read back. ``tests/test_rotations.py`` holds each function
to scipy's result.
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
