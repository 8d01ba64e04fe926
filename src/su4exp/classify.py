"""Characteristic polynomial, minimal-polynomial type detection, normality.

Everything reads v = (p, q, vec Cmat) = ``Su4Element.coeffs`` and one
product X0^2.  det(xI - X0) = x^4 + mu x^2 + nu x + pi has mu = 2||v||^2,
nu = 8i (det Cmat - p^T Cmat q) and pi = 2||v||^4 - ||X0^2||_F^2 / 4.  Three
minimal-polynomial shapes have simple exponentials, with the parameters of
an exact member (spectra i{c, c, -c, -c}, i{a, a, a, -3a}, i{0, 0, c, -c}):

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

Type II also has the paper's constructive test: a real bt with C^T p = bt q,
C q = bt p and p q^T - Co(C) = bt C, Co(C) the cofactor matrix of C = [r|s|t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _PURE_FLAT, STRUCTURE_TOL, QuintupleDecomp, Su4Element
from .quaternion import PureQuaternion


@dataclass(frozen=True)
class CharPolyCoeffs:
    mu: float
    nu: complex
    pi: float

    def as_tuple(self) -> tuple[float, complex, float]:
        return (self.mu, self.nu, self.pi)


@dataclass(frozen=True)
class MinPolyClass:
    """Detected minimal-polynomial type with its parameters.

    ``tag`` is one of quadratic-I, quadratic-II, cubic-I, quartic-distinct,
    other.  ``c2`` is set for the type-I shapes; ``beta``/``gamma`` for
    quadratic type II.
    """

    tag: str
    c2: complex | None = None
    beta: complex | None = None
    gamma: float | None = None


def charpoly(X: Su4Element) -> CharPolyCoeffs:
    """Coefficients (mu, nu, pi) of det(xI - X0) for the traceless part X0."""
    v = X.coeffs
    g = float(v @ v)
    C = v[6:].reshape(3, 3)
    X2 = X.traceless @ X.traceless
    return CharPolyCoeffs(mu=2.0 * g, nu=8j * float(np.linalg.det(C) - v[:3] @ C @ v[3:6]),
                          pi=2.0 * g * g - float(np.vdot(X2, X2).real) / 4.0)


def _quadratic_distance(X: np.ndarray, X2: np.ndarray, beta: complex,
                        gamma: complex) -> float:
    """||X^2 + 2 beta X + gamma I||_F / omega, omega^2 = |gamma - beta^2|:
    the error bound of the quadratic formula (quadratic type I is beta = 0)."""
    omega = math.sqrt(abs(gamma - beta * beta))
    R = X2 + 2.0 * beta * X + gamma * np.eye(len(X))
    return float(np.linalg.norm(R)) / omega if omega else math.inf


def _cubic_distance(X: np.ndarray, X2: np.ndarray, c2: complex) -> float:
    """2 ||X^3 + c^2 X||_F / |c^2|: the error bound of the cubic formula."""
    return 2.0 * float(np.linalg.norm(X2 @ X + c2 * X)) / abs(c2) if c2 else math.inf


def charpoly_canonical(a, b, c) -> tuple[float, complex]:
    """Closed-form mu and nu for a generator in canonical form.

    mu = 2 sum(a_i^2 + b_i^2 + c_i^2); nu = 8i (sum a_i b_i c_i - c1 c2 c3),
    with the overall sign of nu calibrated once against Newton's identities
    on the fixture a = b = c = (1, 0, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    mu = 2.0 * float((a * a + b * b + c * c).sum())
    nu = 8j * (float((a * b * c).sum()) - float(np.prod(c)))
    return mu, nu


def cofactor_matrix(C: np.ndarray) -> np.ndarray:
    """Matrix of cofactors Co(C)_ij = (-1)^(i+j) minor(i, j) (no transpose).

    For 3x3 this is the cross products of the row pairs: row i of Co(C) is
    row_{i+1} x row_{i+2} (indices cyclic), since adj(C) = Co(C)^T.
    """
    C = np.asarray(C, dtype=float)
    return np.cross(np.roll(C, -1, axis=0), np.roll(C, -2, axis=0))


def check_quadratic_II_conditions(d: QuintupleDecomp,
                                  tol: float = 1e-9) -> float | None:
    """Real bt satisfying the three quadratic-type-II conditions, if any.

    The conditions are linear in bt, lhs = bt rhs with lhs = (C^T p, C q,
    p q^T - Co(C)) and rhs = (q, p, C), and the candidate is their
    least-squares solution.  Returns None when X0 = 0, or when the candidate
    misses a condition by more than tol times the squared scale of p, q, C.
    """
    p, q, C = d.p.as_vector(), d.q.as_vector(), d.Cmat
    lhs = np.concatenate((C.T @ p, C @ q, (np.outer(p, q) - cofactor_matrix(C)).ravel()))
    rhs = np.concatenate((q, p, C.ravel()))
    denom = float(rhs @ rhs)
    if denom == 0.0:
        return None
    bt = float(lhs @ rhs) / denom
    scale2 = max(float(p @ p), float(q @ q), float((C * C).sum()), 1.0)
    return bt if np.abs(lhs - bt * rhs).max() <= tol * scale2 else None


def classify(X: Su4Element, tol: float = STRUCTURE_TOL) -> MinPolyClass:
    """Minimal-polynomial type of the traceless part of X.

    The first of quadratic-I, quadratic-II and cubic-I whose distance (module
    docstring) is at most tol, so that its formula is within tol of e^X.
    Otherwise quartic-distinct when |nu| <= tol mu (nu = 0: a spectrum
    symmetric about 0), else other; neither selects a formula.
    """
    cp = charpoly(X)
    if cp.mu == 0.0:
        return MinPolyClass(tag="other")
    g = cp.mu / 2.0
    X0 = X.traceless
    X2 = X0 @ X0
    if _quadratic_distance(X0, X2, 0.0, g) <= tol:
        return MinPolyClass(tag="quadratic-I", c2=g)
    beta = -3.0 * cp.nu / (4.0 * cp.mu)
    if _quadratic_distance(X0, X2, beta, g) <= tol:
        return MinPolyClass(tag="quadratic-II", beta=beta, gamma=g)
    if _cubic_distance(X0, X2, cp.mu) <= tol:
        return MinPolyClass(tag="cubic-I", c2=cp.mu)
    if abs(cp.nu) <= tol * cp.mu:
        return MinPolyClass(tag="quartic-distinct")
    return MinPolyClass(tag="other")


def construct_quadratic_II_example(p: PureQuaternion) -> Su4Element:
    """Generator with quadratic type II minimal polynomial, built from p != 0.

    Uses bt = sqrt(1 + p.p), C = sqrtm(I + p p^T) diag(1, 1, -1) (so that
    det C = -bt and C C^T = I + p p^T) and q = C^{-1}(bt p).
    """
    pv = p.as_vector() if isinstance(p, PureQuaternion) else np.asarray(p, float)
    n = float(pv @ pv)
    if n == 0.0:
        raise ValueError("p must be nonzero")
    bt = math.sqrt(1.0 + n)
    S = np.eye(3) + ((bt - 1.0) / n) * np.outer(pv, pv)
    C = S @ np.diag([1.0, 1.0, -1.0])
    q = np.linalg.solve(C, bt * pv)
    return Su4Element.from_quintuple(pv, q, C[:, 0], C[:, 1], C[:, 2])


def _commutator_distance(K: np.ndarray) -> float:
    """1/2 ||[B, C]||_F = 2 ||K||_F, the normal gate's Trotter bound."""
    return 2.0 * math.sqrt(float((K * K).sum()))


def is_normal_type(d: QuintupleDecomp,
                   tol: float = STRUCTURE_TOL) -> tuple[bool, np.ndarray]:
    """Whether B and C commute, plus the commutator [B, C] itself.

    Decided by the dispatch gate's rule, 1/2 ||[B, C]||_F <= tol.  The
    commutator is computed both directly and through the cross-product
    identity

        [B, C] = 2 sum_ab K_ab M_{e_a (x) e_b},  K = [p]x Cmat - Cmat [q]x

    (``QuintupleDecomp.K``), and the two must agree to near machine
    precision.
    """
    B = d.B()
    C = d.C()
    K = d.K()
    direct = B @ C - C @ B
    via = 2.0 * (K.reshape(9) @ _PURE_FLAT).reshape(4, 4)
    agreement = np.abs(direct - via).max()
    scale = max(1.0, np.linalg.norm(B) * np.linalg.norm(C))
    if agreement > 1e-12 * scale:
        raise AssertionError(
            f"commutator identity mismatch ({agreement:.3e})")
    return _commutator_distance(K) <= tol, direct


def normal_type_conditions_canonical(a, b, c, tol: float = 1e-10) -> bool:
    """Normality condition sets for a generator in canonical form.

    With p = (-a2, 0, 0) and q = (0, b2, 0), [B, C] vanishes iff

      i)   a2 != 0, b2 = 0:  a1 = a3 = c1 = c3 = 0
      ii)  a2 != 0, b2 != 0: a1 = a3 = b1 = b3 = 0 and
           c3 b2 = c1 a2 and a2 c3 = c1 b2  (these force |b2/a2| = |c1/c3|
           = 1 when the c's are nonzero, with correlated signs)
      iii) a2 = 0, b2 != 0:  b1 = b3 = c1 = c3 = 0

    Evaluated in cross-multiplied form, which handles zero denominators and
    is exactly equivalent to the component equations of the commutator.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m = max(1.0, float(np.abs(np.concatenate([a, b, c])).max()) ** 2)
    eqs = [
        b[0] * b[1],
        a[0] * a[1],
        a[1] * a[2],
        b[2] * b[1],
        c[2] * b[1] - c[0] * a[1],
        a[1] * c[2] - c[0] * b[1],
    ]
    return all(abs(e) <= tol * m for e in eqs)


def local_vs_interaction_commute(a, b, c, tol: float = 1e-10) -> bool:
    """Whether the single-qubit part commutes with the interaction part.

    For Y1 = i(sum a_i I(x)sigma_i + sum b_i sigma_i(x)I) and
    Y2 = i sum c_i sigma_i(x)sigma_i, [Y1, Y2] = 0 iff for every cyclic
    triple (i, j, k): a_i c_j = b_i c_k and a_i c_k = b_i c_j.  This is the
    cross-multiplied (zero-safe) form of the ratio conditions
    c3/c2 = b1/a1, c3/c1 = b2/a2, c2/c1 = b3/a3.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m = max(1.0, float(np.abs(np.concatenate([a, b, c])).max()) ** 2)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if abs(a[i] * c[j] - b[i] * c[k]) > tol * m:
            return False
        if abs(a[i] * c[k] - b[i] * c[j]) > tol * m:
            return False
    return True
