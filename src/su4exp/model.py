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
quintuple views of v, are built from v on first access; ``traceless`` is the
one map from coefficients to matrices, and the views are data.  So is the
shared product: the 120 products v_i v_j (i <= j), formed at most once per
element (``Su4Element.quadratic``), from which one constant map reads the
commutator coefficients K of the normal-split gate, the z = D(v, v) and v.v
of ``classify``, and the squared distances of the four drop gates (perskew,
skew-Hamiltonian, bisymmetric, imaginary symmetric), v^2 on the masks of the
slots each drops, defined once here (``_DROP``).  The views are cached by a
lock-free descriptor (``_view``), and ||v||, the range of the gates and of
``classify``, is one of them.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .qtensor import (
    _BASIS_STACK,
    _BASIS_STACK_INV,
    BASIS_LABELS,
    PAULI,
    PAULI_TO_QT_TABLE,
)
from .quaternion import PureQuaternion

ANTIHERM_TOL = 1e-12

# Tolerance policy: all nine gates compare with tol, absolute, a distance on
# v that bounds the error ||U - e^X||_F of the formula they admit.
STRUCTURE_TOL = 1e-10

# Magic-basis matrix V and its adjoint V*: V so(4, R) V* = su(2) (x) su(2).
MAGIC_BASIS = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2.0)
MAGIC_ADJOINT = MAGIC_BASIS.conj().T

# -- the coefficient map ----------------------------------------------------
#
# Slot k of v = (p, q, vec Cmat) is the coefficient of M_{e_x (x) e_y},
# (x, y) = _QT_SLOTS[k], in B for the six p, q slots and in C for the nine
# Cmat slots (row-major, Cmat[a, b] on M_{e_a (x) e_b}).  _QT_INDEX is each
# slot's column of the basis stack, and _QT_FLAT holds the flattened basis
# matrices of the slots; _QT_STACK weights the C slots by i, so that
# X0 = v @ _QT_STACK.

_PURE = ("i", "j", "k")
_QT_SLOTS = ([(x, "1") for x in _PURE] + [("1", y) for y in _PURE]
             + [(x, y) for x in _PURE for y in _PURE])
_QT_INDEX = [4 * BASIS_LABELS.index(x) + BASIS_LABELS.index(y) for x, y in _QT_SLOTS]
_QT_FLAT = _BASIS_STACK.T[_QT_INDEX]
_QT_STACK = _QT_FLAT * np.array([1.0] * 6 + [1j] * 9)[:, None]
_PURE_FLAT = _QT_FLAT[6:]


def _coeff_map() -> np.ndarray:
    """(15, 32) real matrix taking X0.view(float).ravel() to v.

    The view interleaves (Re, Im) of each entry; the p, q rows read the real
    parts and the Cmat rows the imaginary parts, each through its row of the
    quaternion-tensor basis inverse.
    """
    rows = _BASIS_STACK_INV[_QT_INDEX]
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
# Each row of _INPUT_MAP has absolute sum at most 2: below this bound on the
# entries, no partial sum of its product overflows.
_ENTRY_NORM_MAX = sys.float_info.max / 4.0
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
_IEYE4 = 1j * np.eye(4)

# K = [p]x Cmat - Cmat [q]x is bilinear in (p, q) and Cmat: with eps the
# Levi-Civita symbol, the coefficient of p_d Cmat_ce in K_ab is eps_adc
# delta_be, and that of q_d Cmat_ce is -delta_ac eps_edb.  _K_FORM holds them
# with axes (vec K, slot d of (p, q), vec Cmat); before the reshape they are
# (a, b, d, c, e).
_EPS = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                 [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                 [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)
_I3 = np.eye(3)
_K_FORM = np.concatenate(
    (_EPS[:, None, :, :, None] * _I3[None, :, None, None, :],
     -_I3[:, None, None, :, None] * _EPS.T[None, :, :, None, :]), axis=2).reshape(9, 6, 9)


def _square_map() -> np.ndarray:
    """(225, 15) real D, the (15, 15, 15) square map D_kij with axes (k, i)
    joined: with T_k row k of _QT_STACK as a 4x4 matrix,

        (T_i T_j + T_j T_i) / 2 = -delta_ij I - i sum_k D_kij T_k.

    _COEFF_MAP reads the anti-Hermitian part of i T_i T_j, which is
    i/2 (T_i T_j + T_j T_i), the scalar -i delta_ij I aside; so D is
    symmetric in i, j.  Every T_i T_j is one product, rows (i, a) of the
    stacked T times columns (j, c).  So X0^2 = -(v.v) I - i z.T with z =
    D(v, v), and D(v, w) = (D v) w, D v = (D @ v).reshape(15, 15).
    """
    T = _QT_STACK.reshape(15, 4, 4)
    P = (1j * T.reshape(60, 4)) @ T.transpose(1, 0, 2).reshape(4, 60)
    P = P.reshape(15, 4, 15, 4).transpose(0, 2, 1, 3).reshape(225, 16)
    return (_COEFF_MAP @ P.view(float).T).reshape(225, 15)


_SQUARE_MAP = _square_map()
# The shared products v_i v_j, i <= j, are v[_PAIR_I] * v[_PAIR_J].
_PAIR_I, _PAIR_J = np.nonzero(np.tri(15, dtype=bool).T)


def _drop_masks() -> np.ndarray:
    """(12, 15) 0/1 masks of the slots of v that perskew, skewham, the nine
    bisymmetric splits and imaginary symmetry drop: rows 1 to 4 of
    ``expm.FAMILY_TABLE``, in that order.  Each family is the span of the
    basis matrices T it keeps: perskew those with T^T R + R T = 0, R =
    sigma_x (x) sigma_x, skew-Hamiltonian those with T^T J = J T, split k =
    3 i0 + j0 the Cmat slots (a, b) with a = i0 exactly when b = j0 (its 1x1
    block and the 2x2 block off row i0 and column j0), and imaginary
    symmetry all of Cmat.  A distance over 2 is the root of v^2 on a mask."""
    T = _QT_STACK.reshape(15, 4, 4)
    Tt, R, J = T.transpose(0, 2, 1), np.fliplr(np.eye(4)), np.kron([[0, 1], [-1, 0]], np.eye(2))
    a, b = np.divmod(np.arange(-6, 9), 3)  # Cmat's row and column of the slots past p, q
    split = ((a[6:, None] == a) == (b[6:, None] == b)) & (a >= 0)
    return 1.0 - np.vstack((~(Tt @ R + R @ T).any(axis=(1, 2)),
                            ~(Tt @ J - J @ T).any(axis=(1, 2)), split, a >= 0))


_DROP = _drop_masks()


def _quadratic_map() -> np.ndarray:
    """(37, 120) real Q taking the 120 products v_i v_j, i <= j, to (vec K,
    z, the 12 drop distances, g): the commutator coefficients K of the
    normal-split gate, v^2 on each row of ``_DROP`` for the drop gates, and
    z = D(v, v) (``_square_map``) and g = v.v of ``classify``.  Each is a
    form F(v, v) = sum_ij F_ij v_i v_j, so the column of (i, j) is F_ij +
    F_ji, and F_ii on the diagonal."""
    F = np.zeros((37, 15, 15))
    F[:9, :6, 6:] = _K_FORM
    F[9:24] = _SQUARE_MAP.reshape(15, 15, 15)
    F.reshape(37, 225)[24:, ::16] = np.vstack((_DROP, np.ones(15)))
    F += F.transpose(0, 2, 1)
    F.reshape(37, 225)[:, ::16] *= 0.5
    return F[:, _PAIR_I, _PAIR_J]


_QUADRATIC_MAP = _quadratic_map()


def quadratic_forms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """vec K, z = D(v, v), g = v.v and v^2 on the rows of ``_DROP``, read off
    the products v_i v_j by one constant map (``_quadratic_map``): [B, C] =
    2 sum_ab K_ab M_{e_a (x) e_b}, and X0^2 = -g I - i z.T."""
    q = _QUADRATIC_MAP.dot(v[_PAIR_I] * v[_PAIR_J])
    return q[:9], q[9:24], float(q[36]), q[24:36]


def _cofactors(w: list[float]) -> tuple[list[float], float]:
    """Co(C)_ij = (-1)^(i+j) minor(i, j) and det C, both over C's row-major entries w."""
    a, b, c, d, e, f, g, h, i = w
    co = [e * i - f * h, f * g - d * i, d * h - e * g,
          h * c - i * b, i * a - g * c, g * b - h * a,
          b * f - c * e, c * d - a * f, a * e - b * d]
    return co, a * co[0] + b * co[1] + c * co[2]


class QuintupleDecomp(NamedTuple):
    """Quaternion data (p, q; r, s, t) of the B + iC split, a view of v.

    ``Cmat`` is the real 3x3 matrix with columns r, s, t.  The record is
    data: B and C are ``Su4Element.traceless.real`` and ``.imag``.
    """

    p: PureQuaternion
    q: PureQuaternion
    r: PureQuaternion
    s: PureQuaternion
    t: PureQuaternion
    Cmat: np.ndarray


class PauliCoeffs(NamedTuple):
    """Real coefficients of H = -i(X - i b I) in the Pauli tensor basis."""

    alpha: np.ndarray  # coefficients of I (x) sigma_i
    beta: np.ndarray   # coefficients of sigma_i (x) I
    gamma: np.ndarray  # gamma[j, k] multiplies sigma_j (x) sigma_k


class CanonicalForm(NamedTuple):
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


class _view:
    """``functools.cached_property`` without its lock, which it takes on
    every first read before Python 3.12: a non-data descriptor whose first
    read stores the value in the instance dict, where later reads find it
    first.  Two threads racing on a first read compute the same pure value
    twice, and both return the one stored."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


def _floats(*xs) -> list[np.ndarray]:
    """Each argument as a float array, for the coefficient constructors:
    InputError where NumPy cannot convert one, as for malformed entries."""
    try:
        return [np.array(x, dtype=float) for x in xs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed coefficients: {exc}") from exc


class Su4Element:
    """Anti-Hermitian 4x4 matrix, held as its coefficient vector.

    ``coeffs`` is v = (p, q, vec Cmat) and ``scalar`` the real b with
    trace(X) = 4ib.  The constructor reads both, and the Hermitian defect
    D it tests, off the input entries with one constant product
    (``_INPUT_MAP``), and takes max |X_ij| for the exact test only when
    ||D|| exceeds ANTIHERM_TOL max(1, ||X||_F / 4); the other constructors
    take the coefficients.  Every matrix comes from v: ``traceless`` is
    X0 = v @ _QT_STACK and ``entries`` is X0 + i b I, the anti-Hermitian
    projection of the input.  They, the ``pauli`` and ``quintuple`` views,
    ``norm`` = ||v|| and the shared product (``quadratic``) are views
    (``_view``), built on first access.
    """

    def __init__(self, entries: np.ndarray):
        try:
            entries = np.ascontiguousarray(entries, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed matrix entries: {exc}") from exc
        if entries.shape != (4, 4):
            raise InputError("expected a 4x4 matrix")
        x = entries.reshape(16).view(float)
        # hypot raises no flag, and is NaN or inf on a non-finite entry.
        n = math.hypot(*x.tolist())
        y = _INPUT_MAP.dot(x) if n < _ENTRY_NORM_MAX else None
        # max |D_ij| <= ||D|| and ||X||_F <= 4 max |X_ij|: a defect within
        # this bound passes the exact test below too.
        if y is None or math.hypot(*y[16:].tolist()) > ANTIHERM_TOL * max(1.0, 0.25 * n):
            with np.errstate(all="ignore"):
                amax = np.abs(entries).max()
                # A NaN entry makes amax NaN, an infinite one makes it inf.
                if not math.isfinite(amax):
                    raise InputError("matrix has non-finite entries")
                y = _INPUT_MAP.dot(x)
                herm_resid = np.abs(y[16:].view(complex)).max()
            if herm_resid > ANTIHERM_TOL * max(1.0, amax):
                raise InputError(
                    f"matrix is not anti-Hermitian (residual {herm_resid:.3e})")
        self._set(y[:15], float(y[15]))

    def _set(self, v: np.ndarray, scalar: float) -> None:
        v.setflags(write=False)
        self.coeffs = v
        self.scalar = scalar

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_coeffs(cls, v, scalar: float = 0.0) -> "Su4Element":
        """The element with coefficient vector v and scalar part scalar."""
        v, scalar = _floats(v, scalar)
        if v.shape != (15,):
            raise InputError("expected 15 coefficients")
        if not (np.isfinite(v).all() and math.isfinite(scalar)):
            raise InputError("non-finite coefficients")
        X = cls.__new__(cls)
        X._set(v, float(scalar))
        return X

    @classmethod
    def from_pauli_coeffs(cls, alpha, beta, gamma, scalar: float = 0.0) -> "Su4Element":
        c = np.concatenate([x.reshape(-1) for x in _floats(alpha, beta, gamma)])
        if c.shape != (15,):
            raise InputError("expected 15 coefficients")
        v = np.empty(15)
        v[_PAULI_SLOT] = _PAULI_SIGN * c
        return cls._from_coeffs(v, scalar)

    @classmethod
    def from_quintuple(cls, p, q, r, s, t, scalar: float = 0.0) -> "Su4Element":
        p, q, r, s, t = _floats(p, q, r, s, t)
        if {x.shape for x in (p, q, r, s, t)} != {(3,)}:
            raise InputError("expected 15 coefficients")
        return cls._from_coeffs(np.concatenate((p, q, np.array((r, s, t)).T.reshape(9))), scalar)

    @classmethod
    def from_canonical(cls, a, b, c, scalar: float = 0.0) -> "Su4Element":
        return cls.from_pauli_coeffs(a, b, np.diag(*_floats(c)), scalar=scalar)

    # -- matrices and decompositions, built on first access ---------------

    @_view
    def traceless(self) -> np.ndarray:
        return (self.coeffs @ _QT_VIEW).view(complex).reshape(4, 4)

    @_view
    def entries(self) -> np.ndarray:
        return self.traceless + self.scalar * _IEYE4

    @_view
    def norm(self) -> float:
        """||v||, taken without overflow: the range of every gate and of
        ``classify``, and with b that of ``expm._check_norm``."""
        return math.hypot(*self.coeffs.tolist())

    @_view
    def quadratic(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """(vec K, z, v.v, the drop distances), the one shared product of v
        that every structured gate past the tridiagonal one and ``classify``
        read (``quadratic_forms``)."""
        return quadratic_forms(self.coeffs)

    @_view
    def pauli(self) -> PauliCoeffs:
        c = _PAULI_SIGN * self.coeffs[_PAULI_SLOT]
        return PauliCoeffs(alpha=c[:3], beta=c[3:6], gamma=c[6:].reshape(3, 3))

    @_view
    def quintuple(self) -> QuintupleDecomp:
        v = self.coeffs
        w = v.tolist()
        return QuintupleDecomp(
            p=PureQuaternion(*w[0:3]), q=PureQuaternion(*w[3:6]),
            r=PureQuaternion(*w[6::3]), s=PureQuaternion(*w[7::3]),
            t=PureQuaternion(*w[8::3]), Cmat=v[6:].reshape(3, 3))


# -- SU(2) lift of SO(3) rotations ---------------------------------------

def su2_from_so3(R: np.ndarray) -> np.ndarray:
    """2x2 special unitary U with U (v . sigma) U* = (R v) . sigma.

    For a unit quaternion u with rotation R, the map x -> u x ubar is
    M_{u (x) u} = diag(1, R), whose coefficients on the basis M_{e_a (x)
    e_b} are u_a u_b: so the basis inverse takes diag(1, R) to u u^T, and u
    is its row of largest diagonal over that diagonal's root.  Of the two
    preimages +-U, the one with nonnegative real trace is returned; at zero
    trace the sign makes the first nonzero vector component positive, so
    the output is deterministic.
    """
    D = np.eye(4)
    D[1:, 1:] = R
    uu = (_BASIS_STACK_INV @ D.ravel()).reshape(4, 4)
    k = int(np.argmax(np.diagonal(uu)))
    w, x, y, z = (uu[k] / math.sqrt(uu[k, k])).tolist()
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


def _magic_maps() -> np.ndarray:
    """(16, 64) real map taking (v, b) to the float views of V X V* and
    V* X V: the two conjugates of each basis matrix and of i I."""
    T = np.concatenate((_QT_STACK, _IEYE4.reshape(1, 16))).reshape(16, 1, 4, 4)
    W = np.array((MAGIC_BASIS, MAGIC_ADJOINT))
    return (W @ T @ W[::-1]).reshape(16, 32).view(float)


_MAGIC_MAPS = _magic_maps()


def _magic_entries(X: Su4Element) -> np.ndarray:
    """V X V* and V* X V as a (2, 4, 4) array: one product of (v, b)."""
    vb = np.concatenate((X.coeffs, (X.scalar,)))
    return vb.dot(_MAGIC_MAPS).view(complex).reshape(2, 4, 4)


def magic_conjugate(X: Su4Element) -> Su4Element:
    """Conjugate by the magic-basis matrix: returns V X V*."""
    return Su4Element(_magic_entries(X)[0])
