"""Characteristic polynomial, minimal-polynomial type detection, normality.

For traceless anti-Hermitian X the characteristic polynomial is
x^4 + mu x^2 + nu x + pi with mu, pi real and nu purely imaginary.  The
coefficients are obtained from Newton's identities on tr X^2, tr X^3,
tr X^4 (monic det(xI - X) convention).

Three minimal-polynomial shapes admit particularly simple exponentials:

    quadratic type I    x^2 + c^2            (nu = 0 and mu^2 = 4 pi)
    quadratic type II   x^2 + 2 beta x + gamma, beta != 0
    cubic type I        x^3 + c^2 x          (nu = 0 = pi, mu != 0)

Type II is detected constructively through the quaternion quintuple: it holds
iff there is a real bt with C^T p = bt q, C q = bt p and
p q^T - Co(C) = bt C, where Co(C) is the cofactor matrix of C = [r|s|t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _PURE_FLAT, QuintupleDecomp, Su4Element
from .quaternion import PureQuaternion

DEFAULT_RTOL = 1e-9


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
    A = X.traceless
    A2 = A @ A
    p2 = np.trace(A2)
    p3 = np.trace(A2 @ A)
    p4 = np.trace(A2 @ A2)
    e2 = -p2 / 2.0
    e3 = p3 / 3.0
    e4 = -(p4 + e2 * p2) / 4.0
    # Anti-Hermitian spectrum forces mu, pi real and nu imaginary.
    return CharPolyCoeffs(mu=float(e2.real), nu=1j * float((-e3).imag),
                          pi=float(e4.real))


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
    Co = np.empty((3, 3))
    for i in range(3):
        a, b = C[(i + 1) % 3], C[(i + 2) % 3]
        Co[i, 0] = a[1] * b[2] - a[2] * b[1]
        Co[i, 1] = a[2] * b[0] - a[0] * b[2]
        Co[i, 2] = a[0] * b[1] - a[1] * b[0]
    return Co


def check_quadratic_II_conditions(d: QuintupleDecomp,
                                  tol: float = DEFAULT_RTOL) -> float | None:
    """Real bt satisfying the three quadratic-type-II conditions, if any.

    The candidate is extracted from the first condition when q != 0, from the
    second when p != 0, and from -Co(C) = bt C when both vanish (possible
    only when C C^T is proportional to the identity).  Returns None when no
    candidate satisfies all three conditions.
    """
    p = d.p.as_vector()
    q = d.q.as_vector()
    C = d.Cmat
    np_ = math.sqrt(float(p @ p))
    nq = math.sqrt(float(q @ q))
    scale = max(np_, nq, math.sqrt(float((C * C).sum())), 1e-300)
    atol = tol * max(scale * scale, 1.0)
    if nq > tol * scale:
        bt = float(q @ (C.T @ p)) / float(q @ q)
    elif np_ > tol * scale:
        bt = float(p @ (C @ q)) / float(p @ p)
    else:
        cc = float(np.sum(cofactor_matrix(C) * C))
        denom = float(np.sum(C * C))
        if denom <= (tol * scale) ** 2:
            return None
        bt = -cc / denom

    r1 = np.abs(C.T @ p - bt * q).max()
    r2 = np.abs(C @ q - bt * p).max()
    r3 = np.abs(np.outer(p, q) - cofactor_matrix(C) - bt * C).max()
    if max(r1, r2, r3) <= atol:
        return bt
    return None


def classify(X: Su4Element, rtol: float = DEFAULT_RTOL) -> MinPolyClass:
    """Minimal-polynomial type of the traceless part of X."""
    A = X.traceless
    s = float(np.linalg.norm(A))
    if s < 1e-300:
        return MinPolyClass(tag="other")
    cp = charpoly(X)
    nu_zero = abs(cp.nu) <= rtol * s ** 3
    if nu_zero and abs(cp.mu ** 2 - 4.0 * cp.pi) <= rtol * s ** 4:
        return MinPolyClass(tag="quadratic-I", c2=cp.mu / 2.0)
    if nu_zero and abs(cp.pi) <= rtol * s ** 4 and abs(cp.mu) > rtol * s ** 2:
        return MinPolyClass(tag="cubic-I", c2=cp.mu)
    bt = check_quadratic_II_conditions(X.quintuple, tol=rtol)
    if bt is not None and abs(bt) > rtol * s:
        # gamma = -tr(X^2)/4 = mu/2 under the Newton-identity convention.
        return MinPolyClass(tag="quadratic-II", beta=1j * bt, gamma=cp.mu / 2.0)
    if nu_zero:
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


def is_normal_type(d: QuintupleDecomp,
                   tol: float = 1e-10) -> tuple[bool, np.ndarray]:
    """Whether B and C commute, plus the commutator [B, C] itself.

    The commutator is computed both directly and through the cross-product
    identity

        [B, C] = 2 sum_ab K_ab M_{e_a (x) e_b},  K = [p]x Cmat - Cmat [q]x

    (``QuintupleDecomp.K``), and the two must agree to near machine
    precision.
    """
    B = d.B()
    C = d.C()
    direct = B @ C - C @ B
    via = 2.0 * (d.K().reshape(9) @ _PURE_FLAT).reshape(4, 4)
    agreement = np.abs(direct - via).max()
    scale = max(1.0, np.linalg.norm(B) * np.linalg.norm(C))
    if agreement > 1e-12 * scale:
        raise AssertionError(
            f"commutator identity mismatch ({agreement:.3e})")
    ok = np.abs(direct).max() <= tol * (1.0 + np.linalg.norm(B) * np.linalg.norm(C))
    return bool(ok), direct


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
