"""Characteristic polynomial, minimal-polynomial type detection, normality.

Everything reads v = (p, q, vec Cmat) = ``Su4Element.coeffs`` and one
constant bilinear map of it, the square map D (``model._square_map``):
with T_k the basis matrix of slot k of v, X0 = v.T and g = v.v,

    X0^2 = -g I - i z.T,   X0 (z.T) = -(v.z) I - i D(v, z).T,   z = D(v, v),

and the T_k are orthogonal to I and to each other, with squared Frobenius
norm 4.  det(xI - X0) = x^4 + mu x^2 + nu x + pi has mu = 2g, nu = 8i (det
Cmat - p^T Cmat q) and pi = g^2 - z.z.  Three minimal-polynomial shapes
have simple exponentials, with the parameters of an exact member (spectra
i{c, c, -c, -c}, i{a, a, a, -3a}, i{0, 0, c, -c}):

    quadratic type I    x^2 + c^2                c^2 = mu / 2
    quadratic type II   x^2 + 2 beta x + gamma   gamma = mu / 2, beta = -3 nu / (4 mu)
    cubic type I        x^3 + c^2 x              c^2 = mu

Each formula interpolates e^z at the roots of its polynomial P, so on an
eigenvalue z of X0 it errs by P(z) e[roots, z] (Newton form).  On the
imaginary axis a first divided difference of e^z is at most 1, and a higher
one at most two lower ones over the spread of its farthest nodes.  So these
distances bound ||U - e^X||_F, and are compared with the gate tolerance
(for type II, X0 + beta I is anti-Hermitian and e^{-beta} unimodular):

    quadratic   ||X0^2 + 2 beta X0 + gamma I||_F / omega,  omega^2 = gamma + |beta|^2
    cubic       2 ||X0^3 + c^2 X0||_F / c^2

On v, with beta = i beta_r, they are

    quadratic type I    2 ||z|| / sqrt(g)
    quadratic type II   2 ||z - 2 beta_r v|| / sqrt(g + beta_r^2)
    cubic type I        2 sqrt((v.z)^2 + ||g v - D(v, z)||^2) / g

as X0^3 + 2g X0 = i(v.z) I + (g v - D(v, z)).T.  No 4x4 matrix is built.
g and z are read off the shared product of the element
(``Su4Element.quadratic``), which ``exp_auto``'s gates past the tridiagonal
one have formed already, and the range check reads the element's ||v||
(``Su4Element.norm``), which ``exp_auto``'s range rule has taken.
``classify`` tests the shapes in the order above, then quartic-distinct, in
one straight-line walk (``_walk``): nu is formed only once quadratic-II is
reached, D v only for cubic-I, and the one ``MinPolyClass`` built is the
shape returned.  ``shape`` is the same walk told to accept no shape before
the one it asks for.

Type II also has the paper's constructive test: a real bt with C^T p = bt q,
C q = bt p and p q^T - Co(C) = bt C, Co(C) the cofactor matrix of C = [r|s|t].
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import (
    _PURE_FLAT,
    _SQUARE_MAP,
    STRUCTURE_TOL,
    Su4Element,
    _cofactors,
    _floats,
)

# ||v|| below which 4 g^2 = mu^2 is finite: then so are pi, ||z||^2 <= 3 g^2
# (||X0^2||_F^2 = 4 g^2 + 4 ||z||^2 <= ||X0||_F^4) and every distance.
_NORM_MAX = (sys.float_info.max / 4.0) ** 0.25


class CharPolyCoeffs(NamedTuple):
    mu: float
    nu: complex
    pi: float


class MinPolyClass(NamedTuple):
    """Detected minimal-polynomial type with its parameters.

    ``tag`` is one of quadratic-I, quadratic-II, cubic-I, quartic-distinct,
    other.  ``c2`` is set for the type-I shapes; ``beta``/``gamma`` for
    quadratic type II.
    """

    tag: str
    c2: complex | None = None
    beta: complex | None = None
    gamma: float | None = None


def _invariants(X: Su4Element) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """vec K, z = D(v, v) and g = v.v, then the drop distances: the shared
    product that the structured gates read too (``Su4Element.quadratic``).
    Raises InputError, before any product, when ||v|| (``Su4Element.norm``)
    reaches _NORM_MAX."""
    if not X.norm < _NORM_MAX:
        raise InputError(f"coefficient norm {X.norm:.3e} is past {_NORM_MAX:.3e}: "
                         "the characteristic polynomial overflows")
    return X.quadratic


def _nu(v: np.ndarray) -> complex:
    """nu = 8i (det Cmat - p^T Cmat q), both expanded over v (det Cmat by
    ``model._cofactors``)."""
    p1, p2, p3, q1, q2, q3, c11, c12, c13, c21, c22, c23, c31, c32, c33 = w = v.tolist()
    pcq = (p1 * (c11 * q1 + c12 * q2 + c13 * q3) + p2 * (c21 * q1 + c22 * q2 + c23 * q3)
           + p3 * (c31 * q1 + c32 * q2 + c33 * q3))
    return 8j * (_cofactors(w[6:])[1] - pcq)


def charpoly(X: Su4Element) -> CharPolyCoeffs:
    """Coefficients (mu, nu, pi) of det(xI - X0) for the traceless part X0."""
    _, z, g, _ = _invariants(X)
    return CharPolyCoeffs(mu=2.0 * g, nu=_nu(X.coeffs), pi=g * g - float(z @ z))


def check_quadratic_II_conditions(X: Su4Element) -> float | None:
    """Real bt satisfying the three quadratic-type-II conditions, if any.

    The conditions are linear in bt, lhs = bt rhs with lhs = (C^T p, C q,
    p q^T - Co(C)) and rhs = (q, p, C), and the candidate is their
    least-squares solution, with p, q and C = Cmat read off v.  Returns None
    when X0 = 0, or when the candidate misses a condition by more than 1e-9
    times the squared scale of p, q, C.  Raises InputError past the range
    of ``_invariants``, as ``charpoly`` does: lhs @ rhs is cubic in v.
    """
    _invariants(X)
    v = X.coeffs
    p, q, C = v[:3], v[3:6], v[6:].reshape(3, 3)
    co = np.array(_cofactors(v[6:].tolist())[0]).reshape(3, 3)
    lhs = np.concatenate((C.T @ p, C @ q, (np.outer(p, q) - co).ravel()))
    rhs = np.concatenate((q, p, C.ravel()))
    denom = float(rhs @ rhs)
    if denom == 0.0:
        return None
    bt = float(lhs @ rhs) / denom
    scale2 = max(float(p @ p), float(q @ q), float((C * C).sum()), 1.0)
    return bt if np.abs(lhs - bt * rhs).max() <= 1e-9 * scale2 else None


def _walk(X: Su4Element, tol: float, tag: str = "") -> tuple[float, MinPolyClass]:
    """``classify``'s walk: the first shape whose distance is at most tol,
    or is the shape ``tag``, with that distance and its parameters (mu =
    2g); quartic-distinct at |nu| / mu, else other.  X0 = 0 (g = 0) is at
    distance 0 with zero parameters, and each formula then gives e^{ib} I
    exactly; it is other unless a tag is asked for, as it selects no
    formula.  Raises InputError past the range of ``_invariants``."""
    _, z, g, _ = _invariants(X)
    if not g:
        params = (None, 0.0, 0.0) if tag == "quadratic-II" else (0.0,)
        return 0.0, MinPolyClass(tag, *params) if tag else MinPolyClass("other")
    v = X.coeffs
    d = 2.0 * math.hypot(*z.tolist()) / math.sqrt(g)
    if d <= tol or tag == "quadratic-I":
        return d, MinPolyClass("quadratic-I", c2=g)
    nu = _nu(v)
    beta = -3.0 * nu / (8.0 * g)
    br = beta.imag
    d = 2.0 * math.hypot(*(z - 2.0 * br * v).tolist()) / math.sqrt(g + br * br)
    if d <= tol or tag == "quadratic-II":
        return d, MinPolyClass("quadratic-II", beta=beta, gamma=g)
    Dvz = _SQUARE_MAP.dot(v).reshape(15, 15).dot(z)
    d = 2.0 * math.hypot(float(v @ z), *(g * v - Dvz).tolist()) / g
    if d <= tol or tag == "cubic-I":
        return d, MinPolyClass("cubic-I", c2=2.0 * g)
    d = abs(nu) / (2.0 * g)
    return d, MinPolyClass("quartic-distinct" if d <= tol or tag else "other")


def shape(X: Su4Element, tag: str) -> tuple[float, MinPolyClass]:
    """The distance ``classify`` tests for the shape ``tag``, and the shape
    with its parameters: the walk, accepting no shape before ``tag``.  Past
    the range of ``_invariants`` the distance is inf, which no gate passes."""
    try:
        return _walk(X, -math.inf, tag)
    except InputError:
        return math.inf, MinPolyClass(tag)


def _check_tol(tol: float) -> None:
    """Raise InputError unless 0 <= tol < inf: inf admits every formula,
    and nan or a negative tol none.  A tol that is not a real number, or an
    array of several, raises it too, not the TypeError or ValueError of its
    comparison."""
    try:
        if 0.0 <= tol < math.inf:
            return
    except (TypeError, ValueError):
        pass
    raise InputError(f"tol must be finite and >= 0, got {tol!r}")


def classify(X: Su4Element, tol: float = STRUCTURE_TOL) -> MinPolyClass:
    """Minimal-polynomial type of the traceless part of X.

    The first of quadratic-I, quadratic-II and cubic-I whose distance (module
    docstring) is at most tol, so that its formula is within tol of e^X.
    Otherwise quartic-distinct when |nu| / mu <= tol (nu = 0: a spectrum
    symmetric about 0), else other; neither selects a formula.  Raises
    InputError unless 0 <= tol < inf, and past the range of ``_invariants``.
    """
    _check_tol(tol)
    return _walk(X, tol)[1]


def construct_quadratic_II_example(p: PureQuaternion) -> Su4Element:
    """Generator with quadratic type II minimal polynomial, built from p != 0.

    Uses bt = sqrt(1 + p.p), C = S diag(1, 1, -1) with S = sqrtm(I + p p^T)
    = I + p p^T / (1 + bt) (so that det C = -bt and C C^T = I + p p^T) and
    q = C^{-1}(bt p) = D p, D = diag(1, 1, -1), as S p = bt p: no solve, and
    no product of two entries of p.  Raises InputError unless p holds 3
    finite values with 0 < ||p|| < inf.
    """
    pv, = _floats(p)
    if pv.shape != (3,) or not 0.0 < math.hypot(*pv) < math.inf:  # NaN fails too
        raise InputError("p must be 3 finite values, nonzero, with a finite norm")
    D = np.array([1.0, 1.0, -1.0])
    C = (np.eye(3) + np.outer(pv, pv / (1.0 + math.hypot(1.0, *pv)))) * D
    return Su4Element.from_quintuple(pv, D * pv, *C.T)


def is_normal_type(X: Su4Element) -> tuple[bool, np.ndarray]:
    """Whether B and C commute, plus the commutator [B, C] itself.

    Both come from the cross-product identity

        [B, C] = 2 sum_ab K_ab M_{e_a (x) e_b},  K = [p]x Cmat - Cmat [q]x

    (``model.quadratic_forms``), and the verdict is the dispatch gate's
    rule, 1/2 ||[B, C]||_F = 2 ||K||_F <= STRUCTURE_TOL.  Raises InputError
    past the range of ``_invariants``, as ``charpoly`` does.
    """
    K = _invariants(X)[0]
    return (2.0 * math.sqrt(float(K @ K)) <= STRUCTURE_TOL,
            2.0 * (K @ _PURE_FLAT).reshape(4, 4))


def local_vs_interaction_commute(a, b, c) -> bool:
    """Whether the single-qubit part commutes with the interaction part.

    For Y1 = i(sum a_i I(x)sigma_i + sum b_i sigma_i(x)I) and
    Y2 = i sum c_i sigma_i(x)sigma_i, [Y1, Y2] = 0 iff for every cyclic
    triple (i, j, k): a_i c_j = b_i c_k and a_i c_k = b_i c_j.  This is the
    cross-multiplied (zero-safe) form of the ratio conditions
    c3/c2 = b1/a1, c3/c1 = b2/a2, c2/c1 = b3/a3, to 1e-10 max(1, max |coeff|^2).
    Raises InputError unless a, b and c each hold 3 finite values.
    """
    a, b, c = _floats(a, b, c)
    if not all(x.shape == (3,) and np.isfinite(x).all() for x in (a, b, c)):
        raise InputError("a, b and c must each hold 3 finite values")
    # Both sides are of degree 2, so over s = max(1, max |coeff|) the
    # tolerance reads 1e-10, and no product overflows.
    m = np.array((a, b, c))
    a, b, c = m / max(1.0, float(np.abs(m).max()))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if abs(a[i] * c[j] - b[i] * c[k]) > 1e-10:
            return False
        if abs(a[i] * c[k] - b[i] * c[j]) > 1e-10:
            return False
    return True
