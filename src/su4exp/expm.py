"""Closed-form exponentials for structured 4x4 anti-Hermitian matrices.

Every structured formula is one call of ``_rotations``, the only place a
rotation factor cos|w| I + sinc|w| (w @ _QT_STACK) is built from a row w in
the coordinates v = (p, q, vec Cmat) of ``Su4Element.coeffs``.  A row is a
group of anticommuting Pauli terms of X0, declared as data in the family
table and read off v by a slot mask, or vec(u v^T) for a right singular
direction v of the interaction matrix.  The other formulas are low-degree
minimal-polynomial evaluations:

    quadratic type I    e^X = cos(c) I + sinc(c) X            (X^2 = -c^2 I)
    quadratic type II   e^X = e^{-beta} exp(X + beta I)
    cubic type I        e^X = I + sinc(c) X + (1-cos c)/c^2 X^2

All nine rows follow one rule (``model.STRUCTURE_TOL``): a row applies when
a distance that bounds the error ||U - e^X||_F of its formula is at most
tol.  ``classify`` tests the minimal-polynomial rows' distances.

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

import numpy as np

from .classify import (
    MinPolyClass,
    _commutator_distance,
    _cubic_distance,
    _quadratic_distance,
    classify,
)
from .errors import InputError, StructureError
from .model import (
    _COEFF_MAP,
    _PAULI_SLOT,
    _PAULI_SLOTS,
    _QT_STACK,
    MAGIC_BASIS,
    STRUCTURE_TOL,
    Su4Element,
)
from .oracle import expm_reference
from .eig3 import eigh3

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


def _rotations(W: np.ndarray) -> np.ndarray:
    """prod_k (cos l_k I + sinc l_k Y_k), Y_k = w_k @ _QT_STACK, l_k = ||w_k||.

    The rows of W (k, 15) must give commuting Y_k with Y_k^2 = -l_k^2 I.
    """
    lam = np.sqrt(np.einsum("ij,ij->i", W, W))
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
    return float(np.linalg.norm(U.conj().T @ U - np.eye(4)))


# -- structure gates --------------------------------------------------------
#
# Each gate compares a distance on v with tol, with no scale factor.  The
# basis matrices of v are orthogonal with squared norm 4, so ||X0||_F = 2||v||.

def _linear_distance(method: str, v: np.ndarray) -> float:
    """||X0 - X0_on||_F = 2||v - P v|| for the projector P onto the row's family."""
    r = v - _PROJECTOR[method] @ v
    return 2.0 * math.sqrt(float(r @ r))


def _split(v: np.ndarray) -> tuple[float, int]:
    """(||X0 - X0_on||_F, k) for the nearest bisymmetric split, row k of
    ``_SPLIT_OFF``; ties go to the first position."""
    r = _SPLIT_OFF @ (v * v)
    k = int(r.argmin())
    return 2.0 * math.sqrt(float(r[k])), k


def is_tridiagonal_type(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part equals i x (real symmetric tridiagonal, zero diagonal)."""
    return _linear_distance("tridiag", X.coeffs) <= tol


def is_perskew(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X0^T R + R X0 = 0, R = sigma_x (x) sigma_x: the span of the row's groups."""
    return _linear_distance("perskew", X.coeffs) <= tol


def is_skew_hamiltonian(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """X^T J = J X, J = [[0, I2], [-I2, 0]]: the span of the row's group."""
    return _linear_distance("skewham", X.coeffs) <= tol


def is_bisymmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Imaginary symmetric with the interaction matrix split as a 2x2 block
    plus a 1x1 block, in any row/column position."""
    return _split(X.coeffs)[0] <= tol


def is_imaginary_symmetric(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Traceless part is iC with C real symmetric (p = q = 0)."""
    return _linear_distance("imsym", X.coeffs) <= tol


def is_normal_element(X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """[B, C] = 0 for the real/imaginary split of the traceless part.

    Tests 1/2 ||[B, C]||_F = 2 ||K||_F (``QuintupleDecomp.K``).
    """
    return _commutator_distance(X.quintuple.K()) <= tol


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


# -- family formulas: e^{X0} from X and W = masks * v, its groups' rows -----

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
    interaction matrix give e^{iC}'s.  Imaginary symmetry is the case B = 0.
    """
    Cmat = X.quintuple.Cmat
    _, V = eigh3(Cmat.T @ Cmat)
    return _rotations(np.concatenate((W, _interaction_rows(Cmat, V))))


def _bisym(X: Su4Element, W: np.ndarray) -> np.ndarray:
    """Imaginary-symmetric exponential via a closed-form 2x2 rotation angle.

    The interaction matrix, less the slots its gate drops, splits as a 2x2
    block plus a 1x1 block at the gate's position (i0, j0).  The angle
    theta = atan2(2 p.q, q.q - p.p)/2 applied to the two columns of the 2x2
    block orthogonalizes their images, replacing the 3x3 spectral
    factorization.
    """
    _, k = _split(X.coeffs)
    i0, j0 = divmod(k, 3)
    Cmat = (X.coeffs * (1.0 - _SPLIT_OFF[k]))[6:].reshape(3, 3)
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
    return _rotations(_interaction_rows(Cmat, V))


# -- the family table -------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One row of ``FAMILY_TABLE``.

    ``method`` is the ExpResult tag and the FAMILIES key.  A structured row
    is gated by the module-level predicate named ``gate`` and shows as
    ``label`` in ``su4exp classify``.  A row without a gate applies when
    ``classify`` returns the tag ``label``, and its formula also takes that
    classification.  ``groups`` holds the Pauli labels of each rotation
    factor read off v, ``masks`` their slots.
    ``formula`` gives e^{X0}; ``_unitary`` adds the scalar phase.
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

# Row 3 i0 + j0 marks the slots that the bisymmetric split with its 1x1 block
# at Cmat[i0, j0] drops: p, q and the rest of row i0 and column j0.
_SPLIT_OFF = np.ones((9, 15))
_SPLIT_OFF[:, 6:] = [[(a == i0) != (b == j0) for a in range(3) for b in range(3)]
                     for i0 in range(3) for j0 in range(3)]


def passes_gate(fam: Family, X: Su4Element, tol: float = STRUCTURE_TOL) -> bool:
    """Whether X passes a structured row's gate."""
    # Looked up by name at call time, so that a wrapper installed on the
    # module attribute (the benchmark's tracer) sees every evaluation.
    return globals()[fam.gate](X, tol)


def _structured_row(X: Su4Element, tol: float) -> Family | None:
    """The first structured row whose gate X passes."""
    return next((fam for fam in _STRUCTURED if passes_gate(fam, X, tol)), None)


def _unitary(fam: Family, X: Su4Element, cls: MinPolyClass | None = None) -> np.ndarray:
    """e^X by the row's formula, scalar phase e^{ib} included.

    A structured formula takes its groups' rows of what its gate keeps of v,
    a minimal-polynomial one the classification.
    """
    v = X.coeffs
    if fam.method in _PROJECTOR:
        v = _PROJECTOR[fam.method] @ v
    arg = fam.masks * v if cls is None else cls
    return cmath.exp(1j * X.scalar) * fam.formula(X, arg)


def _exp_result(U: np.ndarray, method: str) -> ExpResult:
    return ExpResult(U=U, method=method, residual=_unitarity(U))


def closed_form(method: str, X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """e^X by the formula of the table row ``method``.

    This is the uniform family signature behind FAMILIES and the public
    ``exp_*`` wrappers.  Raises StructureError when X fails a structured
    row's gate, or when ``classify`` at tol names a tag other than a
    minimal-polynomial row's.
    """
    fam = _ROWS[method]
    if fam.gate:
        if not passes_gate(fam, X, tol):
            raise StructureError(fam.label, math.nan,
                                 f"structure check '{fam.label}' failed")
        return _exp_result(_unitary(fam, X), method)
    cls = classify(X, tol)
    if cls.tag != fam.label:
        raise StructureError(fam.label, math.nan,
                             f"minimal polynomial is {cls.tag}, not {fam.label}")
    return _exp_result(_unitary(fam, X, cls), method)


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
    return _exp_result(_rotations(_ROWS["tridiag"].masks * v), "tridiag")


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
    fam = _structured_row(X, tol)
    if fam is not None:
        return _exp_result(_unitary(fam, X), fam.method)
    cls = classify(X, tol)
    fam = _BY_TAG.get(cls.tag)
    if fam is not None:
        return _exp_result(_unitary(fam, X, cls), fam.method)
    for W in (MAGIC_BASIS, MAGIC_BASIS.conj().T):
        Y = Su4Element(W @ X.entries @ W.conj().T)
        fam = _structured_row(Y, tol)
        if fam is not None:
            return _exp_result(W.conj().T @ _unitary(fam, Y) @ W, "magic")
    return _exp_result(expm_reference(X.entries), "oracle")
