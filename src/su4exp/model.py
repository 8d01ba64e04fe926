"""Data model for 4x4 anti-Hermitian generators.

An ``Su4Element`` is an anti-Hermitian matrix X, possibly with a scalar trace
part i*b*I4 (so u(4) inputs are accepted).  The traceless remainder splits as
X0 = B + iC with B real antisymmetric and C real symmetric, and both parts
have canonical quaternion-tensor expansions:

    B = M_{p (x) 1} + M_{1 (x) q}
    C = M_{r (x) i} + M_{s (x) j} + M_{t (x) k}

with p, q, r, s, t pure quaternions.  An element is its coefficient vector
v = (p, q, vec Cmat) and the scalar b.  One constant real matrix, fixed at
import, takes the real and imaginary input entries to v, b and the
Hermitian defect X + X* that the anti-Hermitian test reads; the Pauli
coefficients are a signed permutation of v, read off ``PAULI_TO_QT_TABLE``.
The matrices X0 = v @ _QT_STACK and X = X0 + i b I, and the Pauli and
quintuple views of v, are built from v on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .qtensor import (
    _BASIS_STACK_INV,
    BASIS_LABELS,
    PAULI,
    PAULI_TO_QT_TABLE,
    qt_basis_matrix,
)
from .quaternion import PureQuaternion

ANTIHERM_TOL = 1e-12

# Tolerance policy: all nine gates compare with tol, absolute, a distance on
# v that bounds the error ||U - e^X||_F of the formula they admit.
STRUCTURE_TOL = 1e-10

# Magic-basis matrix: V so(4, R) V* = su(2) (x) su(2).
MAGIC_BASIS = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2.0)

# -- the coefficient map ----------------------------------------------------
#
# Slot k of v = (p, q, vec Cmat) is the coefficient of M_{e_x (x) e_y},
# (x, y) = _QT_SLOTS[k], in B for the six p, q slots and in C for the nine
# Cmat slots (row-major, Cmat[a, b] on M_{e_a (x) e_b}).  _QT_FLAT holds the
# flattened basis matrices of the slots; _QT_STACK weights the C slots by i,
# so that X0 = v @ _QT_STACK.

_PURE = ("i", "j", "k")
_QT_SLOTS = ([(x, "1") for x in _PURE] + [("1", y) for y in _PURE]
             + [(x, y) for x in _PURE for y in _PURE])
_QT_FLAT = np.array([qt_basis_matrix(x, y).ravel() for x, y in _QT_SLOTS])
_QT_STACK = _QT_FLAT * np.array([1.0] * 6 + [1j] * 9)[:, None]
_PURE_FLAT = _QT_FLAT[6:]


def _coeff_map() -> np.ndarray:
    """(15, 32) real matrix taking X0.view(float).ravel() to v.

    The view interleaves (Re, Im) of each entry; the p, q rows read the real
    parts and the Cmat rows the imaginary parts, each through its row of the
    quaternion-tensor basis inverse.
    """
    rows = _BASIS_STACK_INV[[4 * BASIS_LABELS.index(x) + BASIS_LABELS.index(y)
                             for x, y in _QT_SLOTS]]
    L = np.zeros((15, 16, 2))
    L[:6, :, 0], L[6:, :, 1] = rows[:6], rows[6:]
    return L.reshape(15, 32)


_COEFF_MAP = _coeff_map()


def _input_map() -> np.ndarray:
    """(36, 32) real matrix taking entries.reshape(16).view(float) to
    (v, b, the upper triangle of X + X* as 10 (Re, Im) pairs).

    v needs no projection first: the B basis matrices are antisymmetric and
    the C ones symmetric and traceless, so _COEFF_MAP reads X0's part of
    any X.  b = tr(Im X)/4.  D = X + X* is Hermitian, so its upper triangle,
    diagonal included, holds every modulus; Re D_ij = Re X_ij + Re X_ji and
    Im D_ij = Im X_ij - Im X_ji, a zero row on the diagonal.
    """
    i, j = np.triu_indices(4)
    pairs = np.zeros((10, 2, 16, 2))
    pairs[np.arange(10), 0, 4 * i + j, 0] += 1.0
    pairs[np.arange(10), 0, 4 * j + i, 0] += 1.0
    pairs[np.arange(10), 1, 4 * i + j, 1] += 1.0
    pairs[np.arange(10), 1, 4 * j + i, 1] -= 1.0
    b = np.zeros((16, 2))
    b[::5, 1] = 0.25
    return np.vstack((_COEFF_MAP, b.reshape(1, 32), pairs.reshape(20, 32)))


_INPUT_MAP = _input_map()
# X0's float view: v @ _QT_VIEW is (v @ _QT_STACK).view(float).
_QT_VIEW = _QT_STACK.view(float)

# Pauli coefficient order: alpha (I (x) sigma_i), beta (sigma_i (x) I), then
# gamma row-major (sigma_j (x) sigma_k).
_PAULI_SLOTS = ([("0", s) for s in "xyz"] + [(s, "0") for s in "xyz"]
                + [(s, t) for s in "xyz" for t in "xyz"])


def _pauli_permutation() -> tuple[np.ndarray, np.ndarray]:
    """Slot of v and sign of each Pauli coefficient: c = sign * v[slot].

    With sigma_s (x) sigma_t = scale M_{e_x (x) e_y}, the term i c
    sigma_s (x) sigma_t of X0 = iH is (i scale c) M_{e_x (x) e_y}.  Its
    slot of v holds i scale c (a B slot, where scale is +-i) or scale c (a
    C slot, where scale is +-1); either weight is +-1, its own inverse.
    """
    slots, signs = [], []
    for st in _PAULI_SLOTS:
        scale, x, y = PAULI_TO_QT_TABLE[st]
        k = _QT_SLOTS.index((x, y))
        slots.append(k)
        signs.append(complex(1j * scale if k < 6 else scale).real)
    return np.array(slots), np.array(signs)


_PAULI_SLOT, _PAULI_SIGN = _pauli_permutation()
# H = c @ _PAULI_STACK: X0 = v @ _QT_STACK = iH with v[slot] = sign * c.
_PAULI_STACK = -1j * _PAULI_SIGN[:, None] * _QT_STACK[_PAULI_SLOT]
_IEYE4 = 1j * np.eye(4)

# K = [p]x Cmat - Cmat [q]x is bilinear in (p, q) and Cmat: vec K =
# _K_MAP @ vec outer((p, q), vec Cmat), and that outer product is
# v[_PQ_SLOT] * v[_C_SLOT].  With eps the Levi-Civita symbol, the coefficient
# of p_d Cmat_ce in K_ab is eps_adc delta_be, and that of q_d Cmat_ce is
# -delta_ac eps_edb; _K_MAP's axes before the reshape are (a, b, d, c, e).
_EPS = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                 [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                 [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)
_I3 = np.eye(3)
_K_MAP = np.concatenate(
    (_EPS[:, None, :, :, None] * _I3[None, :, None, None, :],
     -_I3[:, None, None, :, None] * _EPS.T[None, :, :, None, :]), axis=2).reshape(9, 54)
_PQ_SLOT = np.arange(54) // 9
_C_SLOT = np.arange(54) % 9 + 6


def commutator_coeffs(v: np.ndarray) -> np.ndarray:
    """vec K for v = (p, q, vec Cmat), so that [B, C] = 2 sum_ab K_ab M_{e_a (x) e_b}."""
    return _K_MAP @ (v[_PQ_SLOT] * v[_C_SLOT])


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
        pq = np.concatenate((self.p.as_vector(), self.q.as_vector()))
        return (pq @ _QT_FLAT[:6]).reshape(4, 4)

    def C(self) -> np.ndarray:
        return (self.Cmat.reshape(9) @ _PURE_FLAT).reshape(4, 4)

    def K(self) -> np.ndarray:
        """K = [p]x Cmat - Cmat [q]x (see ``commutator_coeffs``)."""
        v = np.concatenate((self.p.as_vector(), self.q.as_vector(),
                            self.Cmat.reshape(9)))
        return commutator_coeffs(v).reshape(3, 3)

    def reconstruct(self) -> np.ndarray:
        v = np.concatenate((self.p.as_vector(), self.q.as_vector(),
                            self.Cmat.reshape(9)))
        return (v @ _QT_STACK).reshape(4, 4)


@dataclass(frozen=True)
class PauliCoeffs:
    """Real coefficients of H = -i(X - i b I) in the Pauli tensor basis."""

    alpha: np.ndarray  # coefficients of I (x) sigma_i
    beta: np.ndarray   # coefficients of sigma_i (x) I
    gamma: np.ndarray  # gamma[j, k] multiplies sigma_j (x) sigma_k

    def reconstruct(self) -> np.ndarray:
        c = np.concatenate((self.alpha, self.beta, self.gamma.reshape(9)))
        return (c @ _PAULI_STACK).reshape(4, 4)


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


def mat_pure_pure(u: PureQuaternion, v: PureQuaternion) -> np.ndarray:
    """M_{u (x) v} for pure quaternions u, v."""
    uv = np.outer(u.as_vector() if isinstance(u, PureQuaternion) else u,
                  v.as_vector() if isinstance(v, PureQuaternion) else v)
    return (uv.reshape(9) @ _PURE_FLAT).reshape(4, 4)


class Su4Element:
    """Anti-Hermitian 4x4 matrix, held as its coefficient vector.

    ``coeffs`` is v = (p, q, vec Cmat) and ``scalar`` the real b with
    trace(X) = 4ib.  The constructor reads both, and the Hermitian defect
    it tests, off the input entries with one constant product
    (``_INPUT_MAP``); the other constructors take the coefficients.  Every
    matrix comes from v: ``traceless`` is X0 = v @ _QT_STACK and
    ``entries`` is X0 + i b I, the anti-Hermitian projection of the input.
    They and the ``pauli`` and ``quintuple`` views are built on first access.
    """

    __slots__ = ("scalar", "coeffs", "_entries", "_traceless", "_pauli", "_quintuple")

    def __init__(self, entries: np.ndarray, tol: float = ANTIHERM_TOL):
        entries = np.ascontiguousarray(entries, dtype=complex)
        if entries.shape != (4, 4):
            raise InputError("expected a 4x4 matrix")
        amax = np.abs(entries).max()
        # Before any product: every comparison with NaN is false.
        # A NaN entry makes amax NaN, an infinite one makes it inf.
        if not math.isfinite(amax):
            raise InputError("matrix has non-finite entries")
        y = _INPUT_MAP @ entries.reshape(16).view(float)
        herm_resid = np.abs(y[16:].view(complex)).max()
        if herm_resid > tol * max(1.0, amax):
            raise InputError(
                f"matrix is not anti-Hermitian (residual {herm_resid:.3e})")
        self._set(y[:15], float(y[15]))

    def _set(self, v: np.ndarray, scalar: float) -> None:
        v.setflags(write=False)
        self.coeffs = v
        self.scalar = scalar
        self._entries = self._traceless = self._pauli = self._quintuple = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_coeffs(cls, v, scalar: float = 0.0) -> "Su4Element":
        """The element with coefficient vector v and scalar part scalar."""
        v = np.array(v, dtype=float)
        scalar = float(scalar)
        if v.shape != (15,):
            raise InputError("expected 15 coefficients")
        if not (np.isfinite(v).all() and math.isfinite(scalar)):
            raise InputError("non-finite coefficients")
        X = cls.__new__(cls)
        X._set(v, scalar)
        return X

    @classmethod
    def from_pauli_coeffs(cls, alpha, beta, gamma, scalar: float = 0.0) -> "Su4Element":
        c = np.concatenate([np.asarray(x, dtype=float).reshape(-1)
                            for x in (alpha, beta, gamma)])
        v = np.empty(15)
        v[_PAULI_SLOT] = _PAULI_SIGN * c
        return cls._from_coeffs(v, scalar)

    @classmethod
    def from_quintuple(cls, p, q, r, s, t, scalar: float = 0.0) -> "Su4Element":
        p, q, r, s, t = (x.as_vector() if isinstance(x, PureQuaternion)
                         else np.asarray(x, dtype=float) for x in (p, q, r, s, t))
        return cls._from_coeffs(
            np.concatenate((p, q, np.column_stack((r, s, t)).reshape(-1))), scalar)

    @classmethod
    def from_canonical(cls, a, b, c, scalar: float = 0.0) -> "Su4Element":
        return cls.from_pauli_coeffs(a, b, np.diag(np.asarray(c, dtype=float)),
                                     scalar=scalar)

    # -- matrices and decompositions, built on first access ---------------

    @property
    def traceless(self) -> np.ndarray:
        if self._traceless is None:
            self._traceless = (self.coeffs @ _QT_VIEW).view(complex).reshape(4, 4)
        return self._traceless

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = self.traceless + self.scalar * _IEYE4
        return self._entries

    @property
    def pauli(self) -> PauliCoeffs:
        if self._pauli is None:
            c = _PAULI_SIGN * self.coeffs[_PAULI_SLOT]
            self._pauli = PauliCoeffs(alpha=c[:3], beta=c[3:6],
                                      gamma=c[6:].reshape(3, 3))
        return self._pauli

    @property
    def quintuple(self) -> QuintupleDecomp:
        if self._quintuple is None:
            v = self.coeffs
            w = v.tolist()
            self._quintuple = QuintupleDecomp(
                p=PureQuaternion(*w[0:3]), q=PureQuaternion(*w[3:6]),
                r=PureQuaternion(*w[6::3]), s=PureQuaternion(*w[7::3]),
                t=PureQuaternion(*w[8::3]), Cmat=v[6:].reshape(3, 3))
        return self._quintuple

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))


def pauli_coeffs(X: Su4Element) -> PauliCoeffs:
    """Pauli basis coefficients of the traceless part (a signed permutation
    of the quintuple coefficients)."""
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
    SO(3) by NumPy's SVD: a factor of determinant -1 has its last singular
    vector negated, and the sign goes into c, so entries of c may be
    negative.  O1, O2 are lifted through the SU(2) -> SO(3) double cover.
    Zero gamma returns the identity transformation.
    """
    pc = X.pauli
    gamma = pc.gamma
    if np.abs(gamma).max() < 1e-300:
        return CanonicalForm(a=pc.alpha.copy(), b=pc.beta.copy(),
                             c=np.zeros(3), local_unitary=np.eye(4, dtype=complex),
                             u1=np.eye(2, dtype=complex), u2=np.eye(2, dtype=complex))
    U, _, O2 = np.linalg.svd(gamma)  # gamma = U diag(s) O2
    O1 = U.T
    for O in (O1, O2):
        if np.linalg.det(O) < 0:
            O[2] = -O[2]
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
