"""Closed-form exponentials for structured 4x4 anti-Hermitian matrices.

Every formula here reduces e^X to products of at most three commuting factors
of the form cos(lam) I + sinc(lam) Y with Y^2 = -lam^2 I, or to the low-degree
minimal-polynomial evaluations

    quadratic type I    e^X = cos(c) I + sinc(c) X            (X^2 = -c^2 I)
    quadratic type II   e^X = e^{-beta} exp(X + beta I)
    cubic type I        e^X = I + sinc(c) X + (1-cos c)/c^2 X^2

Each family is one row of ``FAMILY_TABLE``: its method tag, its gate and its
formula.  ``exp_auto``, the public ``exp_*`` wrappers, ``FAMILIES`` and the
CLI are all read off that table.  ``exp_auto`` tries the structured rows in
table order, then the minimal-polynomial row ``classify`` names, then a
magic-basis conjugation whose image passes a structured gate, and finally
the Taylor-series reference exponential.  All results carry a method tag and
a unitarity residual, and every U is e^X with the scalar phase included.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .classify import MinPolyClass, classify
from .errors import StructureError
from .model import (
    _PURE_FLAT,
    MAGIC_BASIS,
    Su4Element,
    _mat_1_pure,
    _mat_pure_1,
    mat_pure_pure,
)
from .oracle import expm_reference
from .eig3 import eigh3
from .qtensor import pauli_kron
from .quaternion import PureQuaternion

STRUCTURE_TOL = 1e-10

# sigma_x (x) sigma_x: the anti-identity ("exchange") matrix.
R4 = np.fliplr(np.eye(4))
# Symplectic form [[0, I2], [-I2, 0]].
J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

_EX = PureQuaternion(1.0, 0.0, 0.0)
_EY = PureQuaternion(0.0, 1.0, 0.0)
_EZ = PureQuaternion(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ExpResult:
    """Unitary U = e^X with the formula used and a numerical residual.

    ``residual`` is ||U* U - I||_F.
    """

    U: np.ndarray
    method: str
    residual: float


@dataclass(frozen=True)
class SymTriDiag:
    """Parameters of i x (real symmetric tridiagonal with zero diagonal)."""

    alpha: float
    beta: float
    gamma: float

    def matrix(self) -> np.ndarray:
        T = np.zeros((4, 4))
        for k, v in enumerate((self.alpha, self.beta, self.gamma)):
            T[k, k + 1] = T[k + 1, k] = v
        return 1j * T


def sinc(c: complex) -> complex:
    """sin(c)/c with a series fallback for small |c| (cancellation-free)."""
    if abs(c) < 1e-4:
        c2 = c * c
        return 1.0 - c2 / 6.0 * (1.0 - c2 / 20.0)
    return cmath.sin(c) / c


def cosm1_over_c2(c: complex) -> complex:
    """(1 - cos(c))/c^2 with a series fallback for small |c|.

    The direct quotient cancels catastrophically below |c| ~ 1e-4 and still
    loses a few digits up to |c| ~ 1e-2, where the truncated series is
    already exact to working precision, so the crossover sits at 1e-2.
    """
    if abs(c) < 1e-2:
        c2 = c * c
        return 0.5 - c2 / 24.0 * (1.0 - c2 / 30.0)
    return (1.0 - cmath.cos(c)) / (c * c)


def _principal_root(c2: complex) -> complex:
    """c = sqrt(r) e^{i theta/2} for c^2 = r e^{i theta}, theta in [0, 2pi)."""
    c2 = complex(c2)
    r = abs(c2)
    theta = math.atan2(c2.imag, c2.real) % (2.0 * math.pi)
    return math.sqrt(r) * cmath.exp(0.5j * theta)


_EYE4 = np.eye(4, dtype=complex)
_EYE4.setflags(write=False)


def _rotation_factor(lam: float, Y: np.ndarray) -> np.ndarray:
    """cos(lam) I + sinc(lam) Y for Y with Y^2 = -lam^2 I."""
    return math.cos(lam) * _EYE4 + sinc(lam) * Y


def _unitarity(U: np.ndarray) -> float:
    return float(np.linalg.norm(U.conj().T @ U - np.eye(4)))


# -- structure predicates -------------------------------------------------

def is_tridiagonal_type(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part equals i x (real symmetric tridiagonal, zero diagonal)."""
    A = X.traceless
    scale = max(1.0, np.abs(A).max())
    if np.abs(A.real).max() > tol * scale:
        return False
    T = A.imag
    mask = np.eye(4, dtype=bool) | np.eye(4, k=1, dtype=bool) | np.eye(4, k=-1, dtype=bool)
    off = np.abs(np.where(mask, 0.0, T)).max()
    diag = np.abs(np.diagonal(T)).max()
    return max(off, diag) <= tol * scale


def is_perskew(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X0^T R4 + R4 X0 = 0 (perskewsymmetric about the anti-diagonal)."""
    A = X.traceless
    scale = max(1.0, np.abs(A).max())
    return np.abs(A.T @ R4 + R4 @ A).max() <= tol * scale


def is_skew_hamiltonian(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X^T J4 = J4 X (the scalar part satisfies this automatically)."""
    A = X.entries
    scale = max(1.0, np.abs(A).max())
    return np.abs(A.T @ J4 - J4 @ A).max() <= tol * scale


def is_imaginary_symmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part is iC with C real symmetric (p = q = 0)."""
    A = X.traceless
    scale = max(1.0, np.abs(A).max())
    return np.abs(A.real).max() <= tol * scale


def _bisym_split(C: np.ndarray) -> tuple[float, int, int]:
    """(residual, i0, j0) of the closest 2x2 (+) 1x1 split of C.

    The split need not be aligned with the main diagonal: the 1x1 block sits
    at (i0, j0) when row i0 and column j0 vanish outside their crossing
    entry.  The residual is the largest |entry| of that row and column
    outside the crossing; ties go to the first position in row-major order.
    """
    A = np.abs(C).tolist()
    # Negative indices k - 1, k - 2 are the two other rows/columns of k.
    return min((max(A[i0][j0 - 1], A[i0][j0 - 2], A[i0 - 1][j0], A[i0 - 2][j0]), i0, j0)
               for i0 in range(3) for j0 in range(3))


def is_split_interaction(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """The interaction matrix splits as a 2x2 block plus a 1x1 block.

    The gate of the bisymmetric row, which refines imaginary symmetry.
    """
    C = X.quintuple.Cmat
    return _bisym_split(C)[0] <= tol * max(1.0, np.abs(C).max())


def is_bisymmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Imaginary symmetric with the interaction matrix 2x2 (+) 1x1 split."""
    return passes_gate(_ROWS["bisym"], X, tol)


def is_normal_element(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """[B, C] = 0 for the real/imaginary split of the traceless part."""
    d = X.quintuple
    B, C = d.B(), d.C()
    scale = max(1.0, float(np.linalg.norm(B)) * float(np.linalg.norm(C)))
    return float(np.linalg.norm(B @ C - C @ B)) <= tol * scale


# -- minimal-polynomial formulas ------------------------------------------

def exp_quadratic_I(X: np.ndarray, c2: complex) -> np.ndarray:
    """e^X = cos(c) I + sinc(c) X for X with X^2 = -c^2 I, c != 0."""
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    resid = np.linalg.norm(X @ X + c2 * np.eye(n))
    scale = max(float(np.linalg.norm(X)) ** 2, abs(c2), 1e-300)
    if resid > 1e-9 * scale:
        raise StructureError("quadratic-I minimal polynomial", float(resid))
    c = _principal_root(c2)
    return cmath.cos(c) * np.eye(n, dtype=complex) + sinc(c) * X


def exp_quadratic_II(X: np.ndarray, beta: complex, gamma: complex) -> np.ndarray:
    """e^X for X with X^2 + 2 beta X + gamma I = 0, beta != 0.

    Evaluated through (X + beta I)^2 = (beta^2 - gamma) I:
    e^X = e^{-beta} [cos(omega) I + sinc(omega)(X + beta I)] with
    omega^2 = gamma - beta^2 (real and positive for anti-Hermitian X, where
    beta is purely imaginary and gamma real).
    """
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    resid = np.linalg.norm(X @ X + 2.0 * beta * X + gamma * np.eye(n))
    scale = max(float(np.linalg.norm(X)) ** 2, abs(gamma), 1e-300)
    if resid > 1e-9 * scale:
        raise StructureError("quadratic-II minimal polynomial", float(resid))
    if beta == 0:
        raise ValueError("beta = 0 is the quadratic type I case")
    # (X + beta I)^2 = -c^2 I is already certified by the residual above, so
    # the shifted quadratic-I formula is applied directly.
    c = _principal_root(gamma - beta * beta)
    Y = X + beta * np.eye(n)
    return cmath.exp(-beta) * (cmath.cos(c) * np.eye(n, dtype=complex) + sinc(c) * Y)


def exp_cubic_I(X: np.ndarray, c2: complex) -> np.ndarray:
    """Euler-Rodrigues: e^X = I + sinc(c) X + (1-cos c)/c^2 X^2 for X^3 = -c^2 X."""
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    X2 = X @ X
    resid = np.linalg.norm(X2 @ X + c2 * X)
    scale = max(float(np.linalg.norm(X)) ** 3, 1e-300)
    if resid > 1e-9 * scale:
        raise StructureError("cubic-I minimal polynomial", float(resid))
    c = _principal_root(c2)
    return (np.eye(n, dtype=complex) + sinc(c) * X + cosm1_over_c2(c) * X2)


# -- family formulas: e^{X0} for the traceless part X0 ----------------------

def _tridiag_factors(a: float, b: float, g: float) -> np.ndarray:
    """Two commuting rotation factors for i x tridiagonal symmetric input.

    With r = (0, beta/2, 0), t = (0, (gamma-alpha)/2, 0) and
    s = (beta/2, 0, (alpha+gamma)/2):

        e^S = [cos(l1) I + i sinc(l1)(M_{r(x)i} + M_{t(x)k})]
              [cos(l2) I + i sinc(l2) M_{s(x)j}]

    l1 = sqrt(beta^2 + (gamma-alpha)^2)/2, l2 = sqrt(beta^2 + (gamma+alpha)^2)/2.
    """
    r = PureQuaternion(0.0, b / 2.0, 0.0)
    t = PureQuaternion(0.0, (g - a) / 2.0, 0.0)
    s = PureQuaternion(b / 2.0, 0.0, (a + g) / 2.0)
    l1 = 0.5 * math.hypot(b, g - a)
    l2 = 0.5 * math.hypot(b, g + a)
    F1 = _rotation_factor(l1, 1j * (mat_pure_pure(r, _EX) + mat_pure_pure(t, _EZ)))
    F2 = _rotation_factor(l2, 1j * mat_pure_pure(s, _EY))
    return F1 @ F2


def _tridiag(X: Su4Element) -> np.ndarray:
    T = X.traceless.imag
    return _tridiag_factors(float(T[0, 1]), float(T[1, 2]), float(T[2, 3]))


def _perskew(X: Su4Element) -> np.ndarray:
    """Two-factor exponential for perskewsymmetric X (X0^T R4 = -R4 X0).

    The traceless part lives in the span of i{sigma_z(x)I, sigma_x(x)sigma_z,
    sigma_y(x)sigma_z} (an anticommuting triple) and i{I(x)sigma_z,
    sigma_z(x)sigma_x, sigma_z(x)sigma_y} (another), and the two triples
    commute; each bracket exponentiates as a rotation factor with
    l1 = sqrt(p1^2 + p2^2 + a^2), l2 = sqrt(q1^2 + q2^2 + b^2).
    """
    pc = X.pauli
    p1, p2, a = pc.beta[2], pc.gamma[0, 2], pc.gamma[1, 2]
    q1, q2, b = pc.alpha[2], pc.gamma[2, 0], pc.gamma[2, 1]
    Y1 = 1j * (p1 * pauli_kron("z", "0") + p2 * pauli_kron("x", "z")
               + a * pauli_kron("y", "z"))
    Y2 = 1j * (q1 * pauli_kron("0", "z") + q2 * pauli_kron("z", "x")
               + b * pauli_kron("z", "y"))
    l1 = math.sqrt(p1 ** 2 + p2 ** 2 + a ** 2)
    l2 = math.sqrt(q1 ** 2 + q2 ** 2 + b ** 2)
    return _rotation_factor(l1, Y1) @ _rotation_factor(l2, Y2)


def _skewham(X: Su4Element) -> np.ndarray:
    """Single-rotation exponential for skew-Hamiltonian X (X^T J4 = J4 X).

    e^X0 = cos(l) I + i sinc(l)(p1 sigma_y(x)sigma_y + p2 I(x)sigma_z
    + p3 I(x)sigma_x + c sigma_z(x)sigma_y + d sigma_x(x)sigma_y) with
    l = sqrt(||p||^2 + c^2 + d^2): the five basis terms mutually anticommute.
    """
    pc = X.pauli
    p1, p2, p3 = pc.gamma[1, 1], pc.alpha[2], pc.alpha[0]
    c, d = pc.gamma[2, 1], pc.gamma[0, 1]
    Y = 1j * (p1 * pauli_kron("y", "y") + p2 * pauli_kron("0", "z")
              + p3 * pauli_kron("0", "x") + c * pauli_kron("z", "y")
              + d * pauli_kron("x", "y"))
    lam = math.sqrt(p1 ** 2 + p2 ** 2 + p3 ** 2 + c ** 2 + d ** 2)
    return _rotation_factor(lam, Y)


def _imsym_factors(Cmat: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Product of rotation factors from right singular directions V of Cmat."""
    Us = Cmat @ V
    # row i of Ms is the flattened M_{u_i (x) v_i}; one stacked product
    # replaces three separate basis contractions.
    outer = Us[:, None, :] * V[None, :, :]
    Ms = (outer.reshape(9, 3).T @ _PURE_FLAT)
    U = None
    for i in range(3):
        u = Us[:, i]
        s = math.sqrt(float(u @ u))
        F = _rotation_factor(s, 1j * Ms[i].reshape(4, 4))
        U = F if U is None else U @ F
    return U


def _imsym(X: Su4Element) -> np.ndarray:
    """Three commuting rotation factors for X0 = iC, C real symmetric.

    The right singular directions v_i of the interaction matrix give
    iC = sum_i i M_{u_i (x) v_i} with u_i = Cmat v_i pairwise orthogonal, so
    e^X0 = prod_i (cos(s_i) I + i sinc(s_i) M_{u_i (x) v_i}), s_i = ||u_i||.
    """
    Cmat = X.quintuple.Cmat
    _, V = eigh3(Cmat.T @ Cmat)
    return _imsym_factors(Cmat, V)


def _bisym(X: Su4Element) -> np.ndarray:
    """Imaginary-symmetric exponential via a closed-form 2x2 rotation angle.

    The interaction matrix splits as a 2x2 block plus a 1x1 block (in any
    row/column position).  The angle theta = atan2(2 p.q, q.q - p.p)/2
    applied to the two columns of the 2x2 block orthogonalizes their images,
    replacing the 3x3 spectral factorization.
    """
    Cmat = X.quintuple.Cmat
    _, i0, j0 = _bisym_split(Cmat)
    rows = [i for i in range(3) if i != i0]
    cols = [j for j in range(3) if j != j0]
    p = Cmat[rows, cols[0]]
    q = Cmat[rows, cols[1]]
    theta = 0.5 * math.atan2(2.0 * float(p @ q), float(q @ q) - float(p @ p))
    ct, st = math.cos(theta), math.sin(theta)
    V = np.zeros((3, 3))
    V[cols[0], 0], V[cols[1], 0] = ct, -st
    V[cols[0], 1], V[cols[1], 1] = st, ct
    V[j0, 2] = 1.0
    return _imsym_factors(Cmat, V)


def _normal_split(X: Su4Element) -> np.ndarray:
    """e^X0 = e^B e^{iC} when the real/imaginary parts commute.

    e^B is itself a product of the two commuting quaternion rotations
    M_{p(x)1} and M_{1(x)q} (each squares to a negative scalar).
    """
    d = X.quintuple
    EB = (_rotation_factor(d.p.norm(), _mat_pure_1(d.p).astype(complex))
          @ _rotation_factor(d.q.norm(), _mat_1_pure(d.q).astype(complex)))
    _, V = eigh3(d.Cmat.T @ d.Cmat)
    return EB @ _imsym_factors(d.Cmat, V)


# -- the family table -------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One row of ``FAMILY_TABLE``.

    ``method`` is the ExpResult tag and the FAMILIES key.  A structured row
    is gated by the module-level predicate named ``gate`` and shows as
    ``label`` in ``su4exp classify``; a row that ``refines`` another is
    tried right after that row's gate passes, and wins over it.  A row
    without a gate applies when ``classify`` returns the tag ``label``, and
    its formula also takes that classification.  ``formula`` gives e^{X0}
    for the traceless part X0; ``_unitary`` adds the scalar phase.
    """

    method: str
    label: str
    formula: Callable[..., np.ndarray]
    gate: str | None = None
    refines: str | None = None


FAMILY_TABLE = (
    Family("tridiag", "symmetric-tridiagonal", _tridiag, "is_tridiagonal_type"),
    Family("perskew", "perskewsymmetric", _perskew, "is_perskew"),
    Family("skewham", "skew-Hamiltonian", _skewham, "is_skew_hamiltonian"),
    Family("imsym", "imaginary-symmetric", _imsym, "is_imaginary_symmetric"),
    Family("bisym", "bisymmetric-type", _bisym, "is_split_interaction", refines="imsym"),
    Family("normal-split", "normal-type", _normal_split, "is_normal_element"),
    Family("quad-I", "quadratic-I",
           lambda X, m: exp_quadratic_I(X.traceless, m.c2)),
    Family("quad-II", "quadratic-II",
           lambda X, m: exp_quadratic_II(X.traceless, m.beta, m.gamma)),
    Family("cubic-I", "cubic-I", lambda X, m: exp_cubic_I(X.traceless, m.c2)),
)
_ROWS = {fam.method: fam for fam in FAMILY_TABLE}
_STRUCTURED = tuple(fam for fam in FAMILY_TABLE if fam.gate)
_BY_TAG = {fam.label: fam for fam in FAMILY_TABLE if not fam.gate}


def _gate(fam: Family) -> Callable[[Su4Element, float], bool]:
    # Looked up by name at call time, so that a wrapper installed on the
    # module attribute (the benchmark's tracer) sees every evaluation.
    return globals()[fam.gate]


def passes_gate(fam: Family, X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Whether X passes a structured row's gate and that of the row it refines."""
    if fam.refines and not passes_gate(_ROWS[fam.refines], X, tol):
        return False
    return _gate(fam)(X, tol)


def _structured_row(X: Su4Element, tol: float) -> Family | None:
    """The first structured row X passes, each gate evaluated at most once."""
    for fam in _STRUCTURED:
        if fam.refines is None and _gate(fam)(X, tol):
            return next((sub for sub in _STRUCTURED
                         if sub.refines == fam.method and _gate(sub)(X, tol)), fam)
    return None


def _unitary(fam: Family, X: Su4Element, *cls: MinPolyClass) -> np.ndarray:
    """e^X by the row's formula, scalar phase e^{ib} included."""
    return cmath.exp(1j * X.scalar) * fam.formula(X, *cls)


def _exp_result(U: np.ndarray, method: str) -> ExpResult:
    return ExpResult(U=U, method=method, residual=_unitarity(U))


def closed_form(method: str, X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X by the formula of the table row ``method``.

    This is the uniform family signature behind FAMILIES and the public
    ``exp_*`` wrappers.  Raises StructureError when X fails a structured
    row's gate, or when ``classify`` names a tag other than a
    minimal-polynomial row's.
    """
    fam = _ROWS[method]
    if fam.gate:
        if not passes_gate(fam, X, tol):
            raise StructureError(fam.label, math.nan,
                                 f"structure check '{fam.label}' failed")
        return _exp_result(_unitary(fam, X), method)
    cls = classify(X)
    if cls.tag != fam.label:
        raise StructureError(fam.label, math.nan,
                             f"minimal polynomial is {cls.tag}, not {fam.label}")
    return _exp_result(_unitary(fam, X, cls), method)


# -- public closed forms and the dispatcher --------------------------------

def exp_tridiag(S: SymTriDiag) -> ExpResult:
    """e^S for i x (real symmetric tridiagonal, zero diagonal) parameters.

    Takes the three parameters rather than an element, so the demo
    propagators skip element construction; see ``_tridiag_factors``.
    """
    return _exp_result(_tridiag_factors(S.alpha, S.beta, S.gamma), "tridiag")


def exp_perskew(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for perskewsymmetric X (see ``_perskew``); StructureError otherwise."""
    return closed_form("perskew", X, tol)


def exp_skewham(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for skew-Hamiltonian X (see ``_skewham``); StructureError otherwise."""
    return closed_form("skewham", X, tol)


def exp_imaginary_symmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for imaginary-symmetric X (see ``_imsym``); StructureError otherwise."""
    return closed_form("imsym", X, tol)


def exp_bisymmetric_fast(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for bisymmetric-type X (see ``_bisym``); StructureError otherwise."""
    return closed_form("bisym", X, tol)


def exp_normal_split(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for X with commuting real/imaginary parts (see ``_normal_split``);
    StructureError otherwise."""
    return closed_form("normal-split", X, tol)


def exp_auto(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """Exponential of X by the cheapest applicable closed form.

    Order: the structured rows of FAMILY_TABLE (bisymmetric before the
    imaginary-symmetric row it refines), the minimal-polynomial row
    ``classify`` names, magic-basis conjugation into a structured row, and
    finally the series reference exponential.  Never raises StructureError:
    near a minimal-polynomial boundary ``classify`` can name a row whose
    formula's residual gate then rejects X, and dispatch moves on.
    """
    fam = _structured_row(X, tol)
    if fam is not None:
        return _exp_result(_unitary(fam, X), fam.method)
    cls = classify(X)
    fam = _BY_TAG.get(cls.tag)
    if fam is not None:
        try:
            return _exp_result(_unitary(fam, X, cls), fam.method)
        except StructureError:
            pass
    for W in (MAGIC_BASIS, MAGIC_BASIS.conj().T):
        Y = Su4Element(W @ X.entries @ W.conj().T)
        fam = _structured_row(Y, tol)
        if fam is not None:
            return _exp_result(W.conj().T @ _unitary(fam, Y) @ W, "magic")
    return _exp_result(expm_reference(X.entries), "oracle")
