"""Closed-form exponentials for structured 4x4 anti-Hermitian matrices.

Five structured formulas are one call of ``_rotations``, the only place a
rotation factor cos|w| I + sinc|w| (w @ _QT_STACK) is built from a row w in
the coordinates v = (p, q, vec Cmat) of ``Su4Element.coeffs``.  A row is a
group of anticommuting Pauli terms of X0, declared as data in the family
table and read off v by a slot mask, or vec(u v^T) for a right singular
direction v of the interaction matrix: an eigenvector of Cmat^T Cmat from
NumPy's ``eigh``, the one spectral step of the structured formulas.  The
bisymmetric formula needs only two 2x2 rotations: on its split, a constant
involution P commutes with X0, and on each eigenspace of P the 2x2 block is
a sum of two anticommuting involutions (``_bisym``), so e^X0 is six scalar
coefficients times a constant table.  The other formulas are low-degree
minimal-polynomial evaluations:

    quadratic type I    e^X = cos(c) I + sinc(c) X            (X^2 = -c^2 I)
    quadratic type II   e^X = e^{-beta} exp(X + beta I)
    cubic type I        e^X = I + sinc(c) X + (1-cos c)/c^2 X^2

All nine rows follow one rule (``model.STRUCTURE_TOL``): a row applies when
a distance that bounds the error ||U - e^X||_F of its formula is at most
tol.  ``gate_distance`` gives any one row's distance, and ``gate_distances``
the six structured rows' from the same per-row expressions on v;
``classify`` tests the minimal-polynomial rows' distances.

Each family is one row of ``FAMILY_TABLE``: its method tag, its gate, its
factor groups and its formula.  ``exp_auto``, the public ``exp_*`` wrappers,
``FAMILIES`` and the CLI are all read off that table.  ``exp_auto`` takes
the first structured row whose gate passes, then the minimal-polynomial row
``classify`` names, then a magic-basis conjugation whose image passes a
structured gate, and finally the Taylor-series reference exponential.  All
results carry a method tag and a unitarity residual, and every U is e^X
with the scalar phase included.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .classify import (
    _cubic_distance,
    _quadratic_distance,
    classify,
    shape_distance,
)
from .errors import InputError, StructureError
from .model import (
    _COEFF_MAP,
    _PAULI_SLOT,
    _PAULI_SLOTS,
    _QT_FLAT,
    _QT_STACK,
    MAGIC_BASIS,
    STRUCTURE_TOL,
    Su4Element,
    commutator_coeffs,
)
from .oracle import expm_reference

# A module-level name, so the benchmark's tracer can wrap expm.eigh3.
eigh3 = np.linalg.eigh


@dataclass(frozen=True)
class ExpResult:
    """Unitary U = e^X with the formula used and a numerical residual.

    ``residual`` is ||U* U - I||_F, computed on first read.
    """

    U: np.ndarray
    method: str

    @cached_property
    def residual(self) -> float:
        return _unitarity(self.U)


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


def _rotations(W: np.ndarray) -> np.ndarray:
    """prod_k (cos l_k I + sinc l_k Y_k), Y_k = w_k @ _QT_STACK, l_k = ||w_k||.

    The rows of W (k, 15) must give commuting Y_k with Y_k^2 = -l_k^2 I.
    """
    lam = np.sqrt((W * W).sum(axis=1))
    F = (W * np.array([sinc(l) for l in lam.tolist()])[:, None]) @ _QT_STACK
    F[:, ::5] += np.cos(lam)[:, None]  # the diagonal of each flattened 4x4
    U = F[0].reshape(4, 4)
    for f in F[1:]:
        U = U @ f.reshape(4, 4)
    return U


def _slot_masks(groups: tuple[str, ...]) -> np.ndarray:
    """0/1 rows of the v slots of each group's Pauli labels ("xz", "0y", ...).

    masks * v is the sub-sum of X0's own expansion over a group's terms, so
    no signs are needed.
    """
    M = np.zeros((len(groups), 15))
    for k, group in enumerate(groups):
        for st in group.split():
            M[k, _PAULI_SLOT[_PAULI_SLOTS.index(tuple(st))]] = 1.0
    return M


def _unitarity(U: np.ndarray) -> float:
    G = U.conj().T @ U
    G.ravel()[::5] -= 1.0  # the diagonal of the contiguous product
    return math.sqrt(np.vdot(G, G).real)


# -- structure gates: one comparison each with ``gate_distance`` (below) ----

def is_tridiagonal_type(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part equals i x (real symmetric tridiagonal, zero diagonal)."""
    return gate_distance("tridiag", X) <= tol


def is_perskew(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X0^T R + R X0 = 0, R = sigma_x (x) sigma_x: the span of the row's groups."""
    return gate_distance("perskew", X) <= tol


def is_skew_hamiltonian(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X^T J = J X, J = [[0, I2], [-I2, 0]]: the span of the row's group."""
    return gate_distance("skewham", X) <= tol


def is_bisymmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Imaginary symmetric with the interaction matrix split as a 2x2 block
    plus a 1x1 block, in any row/column position."""
    return gate_distance("bisym", X) <= tol


def is_imaginary_symmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part is iC with C real symmetric (p = q = 0)."""
    return gate_distance("imsym", X) <= tol


def is_normal_element(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """[B, C] = 0 for the real/imaginary split of the traceless part.

    Tests 1/2 ||[B, C]||_F = 2 ||K||_F (``QuintupleDecomp.K``).
    """
    return gate_distance("normal-split", X) <= tol


# -- minimal-polynomial formulas: the table rows call them after
# ``classify``, the public wrappers after the same distance at STRUCTURE_TOL.

def _quadratic(X: np.ndarray, beta: complex, gamma: complex) -> np.ndarray:
    """e^X = e^{-beta} [cos(omega) I + sinc(omega)(X + beta I)] for
    X^2 + 2 beta X + gamma I = 0, as (X + beta I)^2 = -omega^2 I with
    omega^2 = gamma - beta^2; quadratic type I is beta = 0."""
    c = _principal_root(gamma - beta * beta)
    eye = np.eye(len(X), dtype=complex)
    return cmath.exp(-beta) * (cmath.cos(c) * eye + sinc(c) * (X + beta * eye))


def _cubic(X: np.ndarray, c2: complex) -> np.ndarray:
    """Euler-Rodrigues: e^X = I + sinc(c) X + (1-cos c)/c^2 X^2 for X^3 = -c^2 X."""
    c = _principal_root(c2)
    return np.eye(len(X), dtype=complex) + sinc(c) * X + cosm1_over_c2(c) * (X @ X)


def _checked(name: str, X, distance: Callable, formula: Callable, *params) -> np.ndarray:
    """formula(X, *params), or StructureError when the shape's distance
    (``classify``) exceeds STRUCTURE_TOL."""
    X = np.asarray(X, dtype=complex)
    d = distance(X, X @ X, *params)
    if d > STRUCTURE_TOL:
        raise StructureError(f"{name} minimal polynomial", d)
    return formula(X, *params)


def exp_quadratic_I(X: np.ndarray, c2: complex) -> np.ndarray:
    """e^X = cos(c) I + sinc(c) X for X with X^2 = -c^2 I, c != 0."""
    return _checked("quadratic-I", X, _quadratic_distance, _quadratic, 0.0, c2)


def exp_quadratic_II(X: np.ndarray, beta: complex, gamma: complex) -> np.ndarray:
    """e^X for X with X^2 + 2 beta X + gamma I = 0, beta != 0 (see ``_quadratic``)."""
    if beta == 0:
        raise ValueError("beta = 0 is the quadratic type I case")
    return _checked("quadratic-II", X, _quadratic_distance, _quadratic, beta, gamma)


def exp_cubic_I(X: np.ndarray, c2: complex) -> np.ndarray:
    """e^X for X with X^3 = -c^2 X, c != 0 (see ``_cubic``)."""
    return _checked("cubic-I", X, _cubic_distance, _cubic, c2)


# -- family formulas: e^{X0} from X and W, its groups' rows of v ------------

def _grouped(X: Su4Element, W: np.ndarray) -> np.ndarray:
    return _rotations(W)


def _interaction_rows(Cmat: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows vec(u_i v_i^T), u_i = Cmat v_i, for orthonormal columns v_i of V.

    They sum to vec Cmat, and commute when the u_i are pairwise orthogonal.
    """
    W = np.zeros((3, 15))
    W[:, 6:] = ((Cmat @ V).T[:, :, None] * V.T[:, None, :]).reshape(3, 9)
    return W


def _normal_split(X: Su4Element, W: np.ndarray) -> np.ndarray:
    """e^X0 = e^B e^{iC} when the real/imaginary parts commute.

    W holds e^B's rows p and q; the right singular directions of the
    interaction matrix, eigenvectors of Cmat^T Cmat (``eigh3``), give
    e^{iC}'s; any orthonormal eigenbasis serves, repeated or zero singular
    values included.  Imaginary symmetry is the case B = 0.
    """
    Cmat = X.coeffs[6:].reshape(3, 3)
    _, V = eigh3(Cmat.T @ Cmat)
    return _rotations(np.concatenate((W, _interaction_rows(Cmat, V))))


def _split_tables() -> tuple[np.ndarray, np.ndarray, list[float], np.ndarray]:
    """The nine bisymmetric splits as constants: slots, dropped slots, signs, rows.

    Split k = 3 i0 + j0 puts the 1x1 block of the interaction matrix at
    Cmat[i0, j0], and the 2x2 block at the other rows r1 < r2 and columns
    c1 < c2.  Row k of the slot table holds the v slots of e = Cmat[i0, j0]
    and of (a, b, c, d) = Cmat at [r1, c1], [r1, c2], [r2, c1], [r2, c2],
    whose basis matrices are M_e, M11, M12, M21, M22.  The split drops the
    other ten slots: p, q and the rest of row i0 and column j0.  M11 M22 is
    sigma_k M_e with sigma_k = +-1, and the rows are the flattened I, M_e,
    M11, M12, M21, M22.
    """
    k = np.arange(9)
    other = np.array([[1, 2], [0, 2], [0, 1]])  # row i: the indices other than i
    block = 3 * other[:, None, :, None] + other[None, :, None, :]  # (i0, j0, r, c)
    slots = 6 + np.concatenate((k[:, None], block.reshape(9, 4)), axis=1)
    off = np.ones((9, 15))
    off[k[:, None], slots] = 0.0
    M = _QT_FLAT[slots]
    P = M[:, 1].reshape(9, 4, 4) @ M[:, 4].reshape(9, 4, 4)
    sign = ((P.reshape(9, 16) * M[:, 0]).sum(axis=1) / 4.0).tolist()  # M_e: norm^2 4
    rows = np.zeros((9, 6, 16), dtype=complex)
    rows[:, 0, ::5] = 1.0  # the flattened identity
    rows[:, 1:] = M
    return slots, off, sign, rows


_SPLIT_SLOTS, _SPLIT_OFF, _SPLIT_SIGN, _SPLIT_ROWS = _split_tables()


def _bisym(X: Su4Element, k: int) -> np.ndarray:
    """Bisymmetric exponential from two 2x2 rotations (``_split_tables``).

    On the gate's split k, the nearest of the nine (ties to the first), X0 is
    i(e M_e + a M11 + b M12 + c M21 + d M22) on the five slots the gate
    keeps.  P = M11 M22 = sigma M_e squares to I and commutes with every
    term, and M22 = M11 P, M21 = -M12 P.  So on the eigenspace P = s the
    2x2 block is x_s M11 + y_s M12, two anticommuting involutions, and

        e^{X0} = sum_{s = +-1} (I + sP)/2 e^{i s sigma e}
                 [cos l_s I + i sinc(l_s) (x_s M11 + y_s M12)],

    x_s = a + s d, y_s = b - s c, l_s = hypot(x_s, y_s).  Expanded, that
    is six coefficients on I, P, M11, P M11 = M22, M12 and P M12 = -M21,
    the split's rows up to sign.
    """
    e, a, b, c, d = X.coeffs[_SPLIT_SLOTS[k]].tolist()
    sigma = _SPLIT_SIGN[k]
    cos_e, sin_e = math.cos(sigma * e), math.sin(sigma * e)
    terms = []
    for s in (1.0, -1.0):
        x, y = a + s * d, b - s * c
        lam = math.hypot(x, y)
        E = complex(cos_e, s * sin_e)
        r = 0.5j * E * sinc(lam)
        terms.append((0.5 * E * math.cos(lam), r * x, r * y))
    (c_p, x_p, y_p), (c_m, x_m, y_m) = terms
    coef = (c_p + c_m, sigma * (c_p - c_m), x_p + x_m, y_p + y_m, y_m - y_p, x_p - x_m)
    return (np.array(coef) @ _SPLIT_ROWS[k]).reshape(4, 4)


# -- the family table -------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One row of ``FAMILY_TABLE``.

    ``method`` is the ExpResult tag and the FAMILIES key.  A structured row
    is gated by its ``gate_distance``, which the public predicate named
    ``gate`` compares with tol, and shows as ``label`` in ``su4exp
    classify``.  A row without a gate applies when ``classify`` returns the
    tag ``label``, and its formula also takes that classification.
    ``groups`` holds the Pauli labels of each rotation factor read off v,
    ``masks`` their slots; the bisymmetric row has none, as its formula
    takes the split its gate found.  ``formula`` gives e^{X0};
    ``_unitary`` adds the scalar phase.
    """

    method: str
    label: str
    formula: Callable[..., np.ndarray]
    gate: str | None = None
    groups: tuple[str, ...] = ()
    masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "masks", _slot_masks(self.groups))


FAMILY_TABLE = (
    Family("tridiag", "symmetric-tridiagonal", _grouped, "is_tridiagonal_type",
           groups=("xx zx", "yy 0x")),
    Family("perskew", "perskewsymmetric", _grouped, "is_perskew",
           groups=("z0 xz yz", "0z zx zy")),
    Family("skewham", "skew-Hamiltonian", _grouped, "is_skew_hamiltonian",
           groups=("yy 0z 0x zy xy",)),
    Family("bisym", "bisymmetric-type", _bisym, "is_bisymmetric"),
    Family("imsym", "imaginary-symmetric", _normal_split, "is_imaginary_symmetric"),
    # e^B: the p slots, then the q slots of v.
    Family("normal-split", "normal-type", _normal_split, "is_normal_element",
           groups=("0y yx yz", "y0 xy zy")),
    Family("quad-I", "quadratic-I", lambda X, m: _quadratic(X.traceless, 0.0, m.c2)),
    Family("quad-II", "quadratic-II",
           lambda X, m: _quadratic(X.traceless, m.beta, m.gamma)),
    Family("cubic-I", "cubic-I", lambda X, m: _cubic(X.traceless, m.c2)),
)
_ROWS = {fam.method: fam for fam in FAMILY_TABLE}
_STRUCTURED = tuple(fam for fam in FAMILY_TABLE if fam.gate)
_BY_TAG = {fam.label: fam for fam in FAMILY_TABLE if not fam.gate}

# v of SymTriDiag(alpha, beta, gamma).matrix() is _TRIDIAG_MAP @ (alpha, beta, gamma).
_TRIDIAG_MAP = np.column_stack([_COEFF_MAP @ SymTriDiag(*e).matrix().view(float).ravel()
                                for e in np.eye(3)])

# Orthogonal projectors onto the linear families in v.  The columns of
# _TRIDIAG_MAP are orthogonal with squared norm 1/2; the other families are
# the slots of the row's groups, or of Cmat for imaginary symmetry.
_PROJECTOR = {"tridiag": 2.0 * _TRIDIAG_MAP @ _TRIDIAG_MAP.T,
              "imsym": np.diag(np.repeat([0.0, 1.0], [6, 9]))} | {
    m: np.diag(_ROWS[m].masks.sum(axis=0)) for m in ("perskew", "skewham")}

_EYE15 = np.eye(15)
_TRIDIAG_RESID = _EYE15 - _PROJECTOR["tridiag"]

# W = _GROUP_ROWS[method] @ v: the groups' rows of P v, for the projector P
# of the row's gate, or the identity for a gate that is no projector.
_GROUP_ROWS = {fam.method: fam.masks[:, :, None] * _PROJECTOR.get(fam.method, _EYE15)
               for fam in _STRUCTURED}


# -- structure gates: each row's squared distance over 4 from v and v2 = v * v,
# and what its formula takes of the gate (the bisymmetric split, else None).

def _tridiag_gate(v: np.ndarray, v2: np.ndarray) -> tuple[float, None]:
    u = _TRIDIAG_RESID @ v
    return u @ u, None


def _drop_gate(drop: np.ndarray, v: np.ndarray, v2: np.ndarray) -> tuple[float, None]:
    return drop @ v2, None


def _bisym_gate(v: np.ndarray, v2: np.ndarray) -> tuple[float, int]:
    s = _SPLIT_OFF @ v2
    k = int(s.argmin())
    return s[k], k


def _normal_gate(v: np.ndarray, v2: np.ndarray) -> tuple[float, None]:
    K = commutator_coeffs(v)
    return K @ K, None


_GATES = {"tridiag": _tridiag_gate, "bisym": _bisym_gate, "normal-split": _normal_gate} | {
    m: partial(_drop_gate, 1.0 - np.diag(_PROJECTOR[m])) for m in ("perskew", "skewham", "imsym")}


def _gate(method: str, v: np.ndarray, v2: np.ndarray) -> tuple[float, int | None]:
    """The structured row's gate distance, and its formula's split argument.

    The basis matrices of v are orthogonal with squared norm 4, so
    ||X0||_F = 2||v||.  A linear family's distance is ||X0 - X0_on||_F =
    2||v - P v|| for its projector P: for a diagonal P, and for the
    bisymmetric split (the nearest of the nine), twice the root of a sum of
    v's squared slots.  The normal split's is the Trotter bound
    1/2 ||[B, C]||_F = 2||K||_F (``model.commutator_coeffs``).
    """
    d2, arg = _GATES[method](v, v2)
    return 2.0 * math.sqrt(d2), arg


def gate_distances(X: Su4Element) -> tuple[float, ...]:
    """The six structured rows' gate distances, in ``_STRUCTURED`` order
    (see ``_gate``)."""
    v = X.coeffs
    v2 = v * v
    return tuple(_gate(fam.method, v, v2)[0] for fam in _STRUCTURED)


def gate_distance(method: str, X: Su4Element) -> float:
    """The gate distance of the row ``method``, computed alone: a structured
    row's from v (``_gate``), a minimal-polynomial row's shape distance
    (``classify.shape_distance``)."""
    fam = _ROWS[method]
    if not fam.gate:
        return shape_distance(X, fam.label)
    v = X.coeffs
    return _gate(method, v, v * v)[0]


def _structured_row(X: Su4Element, tol: float) -> tuple[Family | None, int | None]:
    """The first structured row whose gate distance is at most tol, tested
    in order up to it, and its gate's split argument."""
    v = X.coeffs
    v2 = v * v
    for fam in _STRUCTURED:
        d, arg = _gate(fam.method, v, v2)
        if d <= tol:
            return fam, arg
    return None, None


def _unitary(fam: Family, X: Su4Element, arg=None) -> np.ndarray:
    """e^X by the row's formula, scalar phase e^{ib} included.

    A structured formula takes its groups' rows of what its gate keeps of v
    (arg None), or the split its gate found; a minimal-polynomial one the
    classification.
    """
    if arg is None:
        arg = _GROUP_ROWS[fam.method] @ X.coeffs
    return cmath.exp(1j * X.scalar) * fam.formula(X, arg)


def closed_form(method: str, X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X by the formula of the table row ``method``.

    This is the uniform family signature behind FAMILIES and the public
    ``exp_*`` wrappers.  Raises StructureError with the row's
    ``gate_distance`` as its residual when X fails a structured row's gate,
    or when ``classify`` at tol names a tag other than a minimal-polynomial
    row's.
    """
    fam = _ROWS[method]
    if fam.gate:
        v = X.coeffs
        d, arg = _gate(method, v, v * v)
        if d > tol:
            raise StructureError(fam.label, d)
        return ExpResult(_unitary(fam, X, arg), method)
    cls = classify(X, tol)
    if cls.tag != fam.label:
        raise StructureError(fam.label, gate_distance(method, X),
                             f"minimal polynomial is {cls.tag}, not {fam.label}")
    return ExpResult(_unitary(fam, X, cls), method)


# -- public closed forms and the dispatcher --------------------------------

def exp_tridiag(S: SymTriDiag) -> ExpResult:
    """e^S for i x (real symmetric tridiagonal, zero diagonal) parameters.

    Takes the three parameters rather than an element, so the demo
    propagators skip element construction: v is a constant map of them.
    Raises InputError on a non-finite parameter.
    """
    params = (S.alpha, S.beta, S.gamma)
    if not all(map(math.isfinite, params)):
        raise InputError("tridiagonal parameters must be finite")
    v = _TRIDIAG_MAP @ params
    return ExpResult(_rotations(_ROWS["tridiag"].masks * v), "tridiag")


def exp_perskew(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for perskewsymmetric X (two factors, its groups); StructureError otherwise."""
    return closed_form("perskew", X, tol)


def exp_skewham(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for skew-Hamiltonian X (one factor, its group); StructureError otherwise."""
    return closed_form("skewham", X, tol)


def exp_imaginary_symmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X for imaginary-symmetric X (see ``_normal_split``); StructureError otherwise."""
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

    Order: the first structured row of FAMILY_TABLE whose gate passes, the
    minimal-polynomial row ``classify`` names, magic-basis conjugation into
    a structured row, and finally the series reference exponential.  Every
    stage tests its distance at tol, and the formula it picks is within tol
    of e^X, so exp_auto never raises StructureError.
    """
    fam, arg = _structured_row(X, tol)
    if fam is not None:
        return ExpResult(_unitary(fam, X, arg), fam.method)
    cls = classify(X, tol)
    fam = _BY_TAG.get(cls.tag)
    if fam is not None:
        return ExpResult(_unitary(fam, X, cls), fam.method)
    for W in (MAGIC_BASIS, MAGIC_BASIS.conj().T):
        Y = Su4Element(W @ X.entries @ W.conj().T)
        fam, arg = _structured_row(Y, tol)
        if fam is not None:
            return ExpResult(W.conj().T @ _unitary(fam, Y, arg) @ W, "magic")
    return ExpResult(expm_reference(X.entries), "oracle")
