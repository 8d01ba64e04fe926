"""Quaternion algebra over machine reals.

Components are plain doubles; no unit-norm constraint is imposed anywhere.
``PureQuaternion`` is kept as a separate type so that formulas requiring a
zero real part cannot silently receive a general quaternion.  Both are
NamedTuples, so they unpack and convert to arrays as their components; a
``PureQuaternion`` has no arithmetic beyond negation (its + and * are the
tuple's), so convert it with ``as_quaternion`` or ``as_vector`` first.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np


class Quaternion(NamedTuple):
    """Element w + x*i + y*j + z*k of the quaternion algebra."""

    w: float
    x: float
    y: float
    z: float

    # NumPy defers to __rmul__, so np.float64(2) * q is a Quaternion, not
    # the tuple multiplied as a sequence.
    __array_ufunc__ = None

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """The Hamilton product by a Quaternion, or scaling by a real number
        (a Python or NumPy scalar); anything else is NotImplemented."""
        if isinstance(other, Quaternion):
            return qmul(self, other)
        if isinstance(other, numbers.Real):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    # Only a non-Quaternion reaches __rmul__, and a real scalar commutes.
    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def as_array(self) -> np.ndarray:
        """R^4 coordinates in the basis (1, i, j, k)."""
        return np.array([self.w, self.x, self.y, self.z])


class PureQuaternion(NamedTuple):
    """Purely imaginary quaternion, identified with a vector in R^3.

    Satisfies q * q = -|p|^2 * ONE for q = p.as_quaternion(), every pure p.
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
