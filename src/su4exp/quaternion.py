"""Quaternion algebra over machine reals.

Components are plain doubles; no unit-norm constraint is imposed anywhere.
``PureQuaternion`` is kept as a separate type so that formulas requiring a
zero real part cannot silently receive a general quaternion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """Element w + x*i + y*j + z*k of the quaternion algebra."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, scalar: float) -> "Quaternion":
        return Quaternion(self.w * scalar, self.x * scalar,
                          self.y * scalar, self.z * scalar)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def pure(self) -> "PureQuaternion":
        """Vector part along (i, j, k); the real part is discarded."""
        return PureQuaternion(self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        """R^4 coordinates in the basis (1, i, j, k)."""
        return np.array([self.w, self.x, self.y, self.z])


@dataclass(frozen=True)
class PureQuaternion:
    """Purely imaginary quaternion, identified with a vector in R^3.

    Satisfies p * p = -|p|^2 * 1 for every pure p.
    """

    x: float
    y: float
    z: float

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def norm(self) -> float:
        return math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)

    def dot(self, other: "PureQuaternion") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "PureQuaternion":
        return PureQuaternion(-self.x, -self.y, -self.z)

    @staticmethod
    def from_vector(v) -> "PureQuaternion":
        v = np.asarray(v, dtype=float)
        return PureQuaternion(float(v[0]), float(v[1]), float(v[2]))


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product with i^2 = j^2 = k^2 = -1 and ij = k."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def conj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: sign-flips the i, j, k components."""
    return q.conj()


def cross(p: PureQuaternion, q: PureQuaternion) -> PureQuaternion:
    """R^3 cross product; equals the pure part of (pq - qp)/2."""
    return PureQuaternion(
        p.y * q.z - p.z * q.y,
        p.z * q.x - p.x * q.z,
        p.x * q.y - p.y * q.x,
    )


def cross_matrix(p: PureQuaternion) -> np.ndarray:
    """[p]x, the 3x3 matrix of w -> p x w."""
    return np.array([[0.0, -p.z, p.y], [p.z, 0.0, -p.x], [-p.y, p.x, 0.0]])


def left_mult_matrix(p: Quaternion) -> np.ndarray:
    """4x4 real matrix of x -> p*x in the basis (1, i, j, k)."""
    return np.array([
        [p.w, -p.x, -p.y, -p.z],
        [p.x, p.w, -p.z, p.y],
        [p.y, p.z, p.w, -p.x],
        [p.z, -p.y, p.x, p.w],
    ])
