"""Data model for 4x4 anti-Hermitian generators.

An ``Su4Element`` is an anti-Hermitian matrix X, possibly with a scalar trace
part i*b*I4 (so u(4) inputs are accepted).  The traceless remainder splits as
X0 = B + iC with B real antisymmetric and C real symmetric, and both parts
have canonical quaternion-tensor expansions:

    B = M_{p (x) 1} + M_{1 (x) q}
    C = M_{r (x) i} + M_{s (x) j} + M_{t (x) k}

with p, q, r, s, t pure quaternions.  The decompositions are computed eagerly
at construction, so instances are immutable values safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig3 import svd3
from .errors import InputError, StructureError
from .qtensor import PAULI, expand, qt_basis_matrix
from .quaternion import PureQuaternion

ANTIHERM_TOL = 1e-12

# Magic-basis matrix: V so(4, R) V* = su(2) (x) su(2).
MAGIC_BASIS = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2.0)

_PAULI_VEC = [PAULI["x"], PAULI["y"], PAULI["z"]]


@dataclass(frozen=True)
class QuintupleDecomp:
    """Quaternion data (p, q; r, s, t) of the B + iC split.

    ``Cmat`` is the real 3x3 matrix with columns r, s, t.
    """

    p: PureQuaternion
    q: PureQuaternion
    r: PureQuaternion
    s: PureQuaternion
    t: PureQuaternion
    Cmat: np.ndarray

    def B(self) -> np.ndarray:
        return _mat_pure_1(self.p) + _mat_1_pure(self.q)

    def C(self) -> np.ndarray:
        return (self.Cmat.reshape(9) @ _PURE_FLAT).reshape(4, 4)

    def reconstruct(self) -> np.ndarray:
        return self.B() + 1j * self.C()


@dataclass(frozen=True)
class PauliCoeffs:
    """Real coefficients of H = -i(X - i b I) in the Pauli tensor basis."""

    alpha: np.ndarray  # coefficients of I (x) sigma_i
    beta: np.ndarray   # coefficients of sigma_i (x) I
    gamma: np.ndarray  # gamma[j, k] multiplies sigma_j (x) sigma_k

    def reconstruct(self) -> np.ndarray:
        H = np.zeros((4, 4), dtype=complex)
        for i in range(3):
            H += self.alpha[i] * np.kron(np.eye(2), _PAULI_VEC[i])
            H += self.beta[i] * np.kron(_PAULI_VEC[i], np.eye(2))
            for j in range(3):
                H += self.gamma[i, j] * np.kron(_PAULI_VEC[i], _PAULI_VEC[j])
        return H


@dataclass(frozen=True)
class CanonicalForm:
    """Result of diagonalizing the interaction coefficients by local unitaries.

    Conjugating the source by ``local_unitary`` (an SU(2) (x) SU(2) element)
    yields a generator whose gamma matrix is diag(c); a and b are the
    transformed single-qubit coefficients.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    local_unitary: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


def _mat_pure_1(p: PureQuaternion) -> np.ndarray:
    return (p.as_vector() @ _PURE1_FLAT).reshape(4, 4)


def _mat_1_pure(q: PureQuaternion) -> np.ndarray:
    return (q.as_vector() @ _1PURE_FLAT).reshape(4, 4)


# (3, 3, 4, 4) stack: _PURE_STACK[a, b] = M_{e_a (x) e_b} over pure labels.
_PURE_STACK = np.array([[qt_basis_matrix(x, y) for y in ("i", "j", "k")]
                        for x in ("i", "j", "k")])
_PURE_FLAT = _PURE_STACK.reshape(9, 16)
_PURE1_FLAT = np.array([qt_basis_matrix(x, "1").ravel() for x in ("i", "j", "k")])
_1PURE_FLAT = np.array([qt_basis_matrix("1", y).ravel() for y in ("i", "j", "k")])


def mat_pure_pure(u: PureQuaternion, v: PureQuaternion) -> np.ndarray:
    """M_{u (x) v} for pure quaternions u, v."""
    uv = np.outer(u.as_vector() if isinstance(u, PureQuaternion) else u,
                  v.as_vector() if isinstance(v, PureQuaternion) else v)
    return (uv.reshape(9) @ _PURE_FLAT).reshape(4, 4)


class Su4Element:
    """Anti-Hermitian 4x4 matrix with its cached decompositions.

    ``entries`` is the full matrix (scalar part included); ``scalar`` is the
    real b with trace(entries) = 4ib; ``traceless`` is entries - i b I.
    """

    __slots__ = ("entries", "scalar", "traceless", "_pauli", "_quintuple")

    def __init__(self, entries: np.ndarray, tol: float = ANTIHERM_TOL):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (4, 4):
            raise InputError("expected a 4x4 matrix")
        # Before the anti-Hermitian test: every comparison with NaN is false.
        if not np.isfinite(entries).all():
            raise InputError("matrix has non-finite entries")
        scale = max(1.0, np.abs(entries).max())
        herm_resid = np.abs(entries + entries.conj().T).max()
        if herm_resid > tol * scale:
            raise InputError(
                f"matrix is not anti-Hermitian (residual {herm_resid:.3e})")
        entries = 0.5 * (entries - entries.conj().T)
        tr = np.trace(entries)
        b = tr.imag / 4.0
        self.entries = entries
        self.scalar = float(b)
        self.traceless = entries - 1j * b * np.eye(4)
        self._pauli = self._compute_pauli()
        self._quintuple = self._compute_quintuple()

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_pauli_coeffs(cls, alpha, beta, gamma, scalar: float = 0.0) -> "Su4Element":
        pc = PauliCoeffs(np.asarray(alpha, dtype=float),
                         np.asarray(beta, dtype=float),
                         np.asarray(gamma, dtype=float))
        return cls(1j * pc.reconstruct() + 1j * scalar * np.eye(4))

    @classmethod
    def from_quintuple(cls, p, q, r, s, t, scalar: float = 0.0) -> "Su4Element":
        vecs = [v if isinstance(v, PureQuaternion) else PureQuaternion.from_vector(v)
                for v in (p, q, r, s, t)]
        d = QuintupleDecomp(*vecs, Cmat=np.column_stack(
            [v.as_vector() for v in vecs[2:]]))
        return cls(d.reconstruct() + 1j * scalar * np.eye(4))

    @classmethod
    def from_canonical(cls, a, b, c, scalar: float = 0.0) -> "Su4Element":
        return cls.from_pauli_coeffs(a, b, np.diag(np.asarray(c, dtype=float)),
                                     scalar=scalar)

    # -- cached decompositions -------------------------------------------

    def _compute_pauli(self) -> PauliCoeffs:
        H = -1j * self.traceless
        alpha = np.zeros(3)
        beta = np.zeros(3)
        gamma = np.zeros((3, 3))
        for i in range(3):
            alpha[i] = np.trace(np.kron(np.eye(2), _PAULI_VEC[i]) @ H).real / 4.0
            beta[i] = np.trace(np.kron(_PAULI_VEC[i], np.eye(2)) @ H).real / 4.0
            for j in range(3):
                gamma[i, j] = np.trace(
                    np.kron(_PAULI_VEC[i], _PAULI_VEC[j]) @ H).real / 4.0
        return PauliCoeffs(alpha=alpha, beta=beta, gamma=gamma)

    def _compute_quintuple(self) -> QuintupleDecomp:
        B = self.traceless.real
        C = self.traceless.imag
        eb = expand(B)
        ec = expand(C)
        p = PureQuaternion(eb.coeff_of("i", "1"), eb.coeff_of("j", "1"),
                           eb.coeff_of("k", "1"))
        q = PureQuaternion(eb.coeff_of("1", "i"), eb.coeff_of("1", "j"),
                           eb.coeff_of("1", "k"))
        pure = ("i", "j", "k")
        Cmat = np.array([[ec.coeff_of(x, y) for y in pure] for x in pure])
        r, s, t = (PureQuaternion.from_vector(Cmat[:, k]) for k in range(3))
        d = QuintupleDecomp(p=p, q=q, r=r, s=s, t=t, Cmat=Cmat)
        resid = np.abs(d.reconstruct() - self.traceless).max()
        scale = max(1.0, np.abs(self.traceless).max())
        if resid > 1e-10 * scale:
            raise StructureError("su4-expansion", resid,
                                 "matrix is not in su(4) + scalar")
        return d

    @property
    def pauli(self) -> PauliCoeffs:
        return self._pauli

    @property
    def quintuple(self) -> QuintupleDecomp:
        return self._quintuple

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


def pauli_coeffs(X: Su4Element) -> PauliCoeffs:
    """Pauli basis coefficients of the traceless part, by trace inner products."""
    return X.pauli


def quintuple(X: Su4Element) -> QuintupleDecomp:
    """Quaternion quintuple (p, q, r, s, t) of the traceless part."""
    return X.quintuple


# -- SU(2) lift of SO(3) rotations ---------------------------------------

def _quaternion_from_rotation(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with rotation matrix R (Shepperd's method)."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    cand = [tr, R[0, 0], R[1, 1], R[2, 2]]
    k = int(np.argmax(cand))
    if k == 0:
        w = 0.5 * math.sqrt(max(0.0, 1.0 + tr))
        x = (R[2, 1] - R[1, 2]) / (4 * w)
        y = (R[0, 2] - R[2, 0]) / (4 * w)
        z = (R[1, 0] - R[0, 1]) / (4 * w)
    else:
        i = k - 1
        j, l = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + R[i, i] - R[j, j] - R[l, l]))
        v = np.zeros(3)
        v[i] = 0.5 * s
        v[j] = (R[j, i] + R[i, j]) / (2 * s)
        v[l] = (R[l, i] + R[i, l]) / (2 * s)
        w = (R[l, j] - R[j, l]) / (2 * s)
        x, y, z = v
    quat = np.array([w, x, y, z])
    return quat / np.linalg.norm(quat)


def su2_from_so3(R: np.ndarray) -> np.ndarray:
    """2x2 special unitary U with U (v . sigma) U* = (R v) . sigma.

    Of the two preimages +-U, the one with nonnegative real trace is
    returned; at zero trace the sign makes the first nonzero vector
    component positive, so the output is deterministic.
    """
    w, x, y, z = _quaternion_from_rotation(R)
    if w < 0 or (w == 0 and next((c for c in (x, y, z) if c != 0), 1.0) < 0):
        w, x, y, z = -w, -x, -y, -z
    return w * np.eye(2, dtype=complex) - 1j * (
        x * PAULI["x"] + y * PAULI["y"] + z * PAULI["z"])


def canonicalize(X: Su4Element) -> CanonicalForm:
    """Diagonalize the interaction coefficient matrix by a local unitary.

    The 3x3 gamma matrix is factored gamma = O1^T diag(c) O2 with O1, O2 in
    SO(3) (closed-form SVD; sign flips absorbed into c, so entries of c may
    be negative), and O1, O2 are lifted through the SU(2) -> SO(3) double
    cover.  Zero gamma returns the identity transformation.
    """
    pc = X.pauli
    gamma = pc.gamma
    if np.abs(gamma).max() < 1e-300:
        return CanonicalForm(a=pc.alpha.copy(), b=pc.beta.copy(),
                             c=np.zeros(3), local_unitary=np.eye(4, dtype=complex),
                             u1=np.eye(2, dtype=complex), u2=np.eye(2, dtype=complex))
    U, _, V = svd3(gamma)
    if np.linalg.det(U) < 0:
        U[:, 2] = -U[:, 2]
    if np.linalg.det(V) < 0:
        V[:, 2] = -V[:, 2]
    O1 = U.T
    O2 = V.T
    gd = O1 @ gamma @ O2.T
    c = np.diagonal(gd).copy()
    u1 = su2_from_so3(O1)
    u2 = su2_from_so3(O2)
    local = np.kron(u1, u2)
    return CanonicalForm(a=O2 @ pc.alpha, b=O1 @ pc.beta, c=c,
                         local_unitary=local, u1=u1, u2=u2)


def magic_conjugate(X: Su4Element) -> Su4Element:
    """Conjugate by the magic-basis matrix: returns V X V*."""
    return Su4Element(MAGIC_BASIS @ X.entries @ MAGIC_BASIS.conj().T)


def embed_su3(Y: np.ndarray) -> Su4Element:
    """Embed a 3x3 anti-Hermitian traceless matrix as a principal submatrix."""
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (3, 3):
        raise InputError("expected a 3x3 matrix")
    scale = max(1.0, np.abs(Y).max())
    if np.abs(Y + Y.conj().T).max() > ANTIHERM_TOL * scale:
        raise InputError("matrix is not anti-Hermitian")
    if abs(np.trace(Y)) > ANTIHERM_TOL * scale:
        raise InputError("matrix is not traceless")
    out = np.zeros((4, 4), dtype=complex)
    out[:3, :3] = Y
    return Su4Element(out)
