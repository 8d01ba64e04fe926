"""Closed-form exponentials for structured 4x4 anti-Hermitian matrices.

Every formula of the nine rows returns coefficients and a table, in the
coordinates v = (p, q, vec Cmat) of ``Su4Element.coeffs``, and U = coef @ T
is formed in one place (``_matrix``); the tables are constants, but for
e^{iC}'s, the eigenbasis of C (below).  A group of
anticommuting Pauli terms of X0, declared as data in the family table, is
read off v by its slots and gives the vector [cos l, sinc(l) w] of a
rotation factor; the outer product of a row's vectors on the products of
its groups' basis matrices, built at import, is e^X0 (``_factors``).
e^{iC} takes the one spectral step: C = Im X0, a constant map of the nine
Cmat slots, is real symmetric, and NumPy's ``eigh`` of it, C = V diag(lam)
V^T, gives e^{iC} as the pair V diag(e^{i lam}) on the table V^T
(``_interaction``).  The normal split is e^B e^{iC}, one 4x4 product of
the two rows' matrices.  The bisymmetric formula needs two 2x2
rotations, as a constant involution P commutes with X0 on its split and
each eigenspace of P holds two anticommuting involutions (``_bisym``).
Each of these formulas takes only the coordinates it reads of v, its row's
read-out R v (``Family.read``), and the scalar part b.  The other three are
low-degree minimal-polynomial evaluations, coefficients on I, X and X^2:

    quadratic type I    e^X = cos(c) I + sinc(c) X            (X^2 = -c^2 I)
    quadratic type II   e^X = e^{-beta} exp(X + beta I)
    cubic type I        e^X = I + sinc(c) X + (1-cos c)/c^2 X^2

Their rows take the element, b and the shape: X0 is v on the basis, and
X0^2 = -(v.v) I - i z.T with z read off the element's shared product
(``Su4Element.quadratic``), so each is coefficients on [I; basis]
(``_BASES``) with no 4x4 matrix built.

All nine rows follow one rule: a row applies when a distance that bounds
the error ||U - e^X||_F of its formula is at most ``model.STRUCTURE_TOL``
(or the tol of ``exp_auto``, the one tolerance a caller sets, which must
be finite and >= 0).  The six structured distances are read, ordered and
compared in one straight-line walk (``_structured_row``): the tridiagonal
residual ||Rv||, then the element's one shared product
(``Su4Element.quadratic``), which holds v^2 on the four drop rows' masks
(``model._DROP``) and the normal split's commutator; a tridiagonal input
forms no such product.  Dispatch takes the first row of that walk within
tol.  ``_gate`` reads one row's distance, and what its formula takes of
the gate, as a walk stopped at that row: a structured row's this one, a
minimal-polynomial row's ``classify``'s (``classify.shape``).

Each family is one row of ``FAMILY_TABLE``, the one owner of its data: its
method tag, its formula, its read-out R (one per bisymmetric split), its
formula's constant table, its factor groups, and for tridiag and bisym its
spectral form and that form's table.  A minimal-polynomial row has no
read-out: its formula takes the element.  Every formula is called one way
(``_evaluate``): on the read-out R v or the element, b, the row's table,
and what its gate found, the split or the shape.  ``exp_auto``, the public
``exp_*`` wrappers, ``FAMILIES`` and the CLI are all read off that table.
Each of the eight wrappers on an element is ``closed_form`` of its row,
which reads every parameter a formula takes, a minimal-polynomial shape's
included, from the element; ``exp_tridiag``, on parameters, is the one
exception.
``exp_auto`` takes the first structured row whose gate passes, then the
minimal-polynomial row ``classify`` names, then a magic-basis conjugation
whose image passes a structured gate (both conjugates' entries are one
constant map of (v, b), ``model._magic_entries``), and finally the Taylor-series
reference exponential; an input too large for e^X to have a determined
digit raises InputError first, there and in ``closed_form``.
All results carry a method tag and a unitarity residual, and every U is e^X
with the scalar phase included: each formula puts e^{ib} into its scalar
coefficients, and no pass over U applies it.  A generator that a constant
map takes from its parameters onto one structured row needs neither element
nor gate.  ``_linear_row`` finds that row once, at import, for
``exp_tridiag`` and each demo (``demos``): the tridiagonal one or a
bisymmetric split, where every column of the map has distance exactly 0,
and StructureError otherwise; it returns the map composed with the row's
read-out, the ``Family`` row and the split.  That composed map gives the
formula's coordinates and b in one product.  ``_exp_mapped``, behind
``exp_tridiag`` and a demo propagator's first call on a Hamiltonian, is
that product at t x and the row's formula.  ``_spectral_mapped`` takes the
same product at x, without t, and the row's spectral form, called as its
formula is on the row's projectors (``_tridiag_spectral``,
``_bisym_spectral``): e^{tX} = sum_k e^{i lam_k t} P_k, four eigenvalues
and four projectors that the demos keep for the Hamiltonian's later
calls.  The callers check the parameters in ``_check_params`` and apply
the range rule of ``exp_auto``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .classify import _NORM_MAX, _check_tol, classify, shape
from .errors import InputError, StructureError
from .model import (
    _DROP,
    _INPUT_MAP,
    _PAULI_SLOT,
    _PAULI_SLOTS,
    _PURE_FLAT,
    _QT_FLAT,
    _QT_STACK,
    MAGIC_ADJOINT,
    MAGIC_BASIS,
    STRUCTURE_TOL,
    Su4Element,
    _magic_entries,
)
from .oracle import _check_range, expm_reference

# The symmetric eigensolver of e^{iC}, on the 4x4 real symmetric C = Im X0
# (``_interaction``); a module-level name, so the benchmark's tracer can wrap
# expm.eigh3.
eigh3 = np.linalg.eigh


class ExpResult(NamedTuple):
    """Unitary U = e^X with the formula used and a numerical residual.

    ``residual`` is ||U* U - I||_F, computed when read.
    """

    U: np.ndarray
    method: str

    @property
    def residual(self) -> float:
        return _unitarity(self.U)


class SymTriDiag(NamedTuple):
    """Parameters of i x (real symmetric tridiagonal with zero diagonal)."""

    alpha: float
    beta: float
    gamma: float

    def matrix(self) -> np.ndarray:
        T = np.zeros((4, 4))
        for k, v in enumerate(self):
            T[k, k + 1] = T[k + 1, k] = v
        return 1j * T


def sinc(c: complex) -> complex:
    """sin(c)/c with a series fallback for small |c| (cancellation-free);
    real for real c, where it takes one type check and one comparison."""
    if isinstance(c, complex):
        if abs(c) >= 1e-4:
            return cmath.sin(c) / c
    elif not -1e-4 < c < 1e-4:
        return math.sin(c) / c
    c2 = c * c
    return 1.0 - c2 / 6.0 * (1.0 - c2 / 20.0)


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


def _unitarity(U: np.ndarray) -> float:
    G = U.conj().T @ U
    G.ravel()[::5] -= 1.0  # the diagonal of the contiguous product
    return math.sqrt(np.vdot(G, G).real)


# -- structure gates: ``gate_distance`` (below) against STRUCTURE_TOL -------

def is_tridiagonal_type(X: Su4Element) -> bool:
    """Traceless part equals i x (real symmetric tridiagonal, zero diagonal)."""
    return gate_distance("tridiag", X) <= STRUCTURE_TOL


def is_perskew(X: Su4Element) -> bool:
    """X0^T R + R X0 = 0, R = sigma_x (x) sigma_x: the span of the row's groups."""
    return gate_distance("perskew", X) <= STRUCTURE_TOL


def is_skew_hamiltonian(X: Su4Element) -> bool:
    """X^T J = J X, J = [[0, I2], [-I2, 0]]: the span of the row's group."""
    return gate_distance("skewham", X) <= STRUCTURE_TOL


def is_bisymmetric(X: Su4Element) -> bool:
    """Imaginary symmetric with the interaction matrix split as a 2x2 block
    plus a 1x1 block, in any row/column position."""
    return gate_distance("bisym", X) <= STRUCTURE_TOL


def is_imaginary_symmetric(X: Su4Element) -> bool:
    """Traceless part is iC with C real symmetric (p = q = 0)."""
    return gate_distance("imsym", X) <= STRUCTURE_TOL


def is_normal_element(X: Su4Element) -> bool:
    """[B, C] = 0 for the real/imaginary split of the traceless part.

    Tests 1/2 ||[B, C]||_F = 2 ||K||_F (``Su4Element.quadratic``).
    """
    return gate_distance("normal-split", X) <= STRUCTURE_TOL


# -- minimal-polynomial formulas: each shape's scalar coefficients on I, X0
# and X0^2, put on [I; basis] from v, after their shape's gate.

def _quadratic(v: np.ndarray, b: float, beta: complex, gamma: complex) -> tuple:
    """e^{ib} e^X0 = [c0, c1 v] on [I; basis] for X0^2 + 2 beta X0 + gamma I = 0:
    e^{ib - beta} [cos(omega) I + sinc(omega)(X0 + beta I)], as (X0 + beta I)^2
    = -omega^2 I with omega^2 = gamma - beta^2 (either root: both terms are
    even in omega); quadratic type I is beta = 0."""
    c = cmath.sqrt(gamma - beta * beta)
    e, s = cmath.exp(1j * b - beta), sinc(c)
    return np.concatenate(([e * (cmath.cos(c) + beta * s)], e * s * v)), _BASES


def _cubic(v: np.ndarray, b: float, c2: complex, z: np.ndarray) -> tuple:
    """Euler-Rodrigues for X0^3 = -c^2 X0: e^{ib} e^X0 = e^{ib} [I + s X0 +
    k X0^2] = e^{ib} [1 - k g, s v - i k z] on [I; basis], with s = sinc(c)
    and k = (1-cos c)/c^2 (both even in c), as X0^2 = -g I - i z.T with z =
    D(v, v) (``Su4Element.quadratic``) and g = v.v = c^2 / 2."""
    c, E = cmath.sqrt(c2), cmath.exp(1j * b)
    c1, k = E * sinc(c), E * cosm1_over_c2(c)
    return np.concatenate(([E - k * (c2 / 2.0)], c1 * v - 1j * k * z)), _BASES


# -- family formulas: e^X from the row's read-out of v, the scalar part b, the
# row's table and what the gate found (the bisymmetric split).

def _factors(w: list[float], b: float, table, _=None) -> tuple:
    """e^{ib} prod_g (cos l_g I + sinc(l_g) w_g @ _QT_STACK[slots_g]), l_g =
    ||w_g||, over the row's one or two groups g, as coefficients on T.

    w = G v, the row's read-out (``Family.read``), holds the groups' slots of
    what the row's gate keeps of v.  A factor is the tuple (cos l_g,
    sinc(l_g) w_g) on I and its group's basis matrices, the first one times
    e^{ib}, and row a of the complex T is the product of the basis matrices
    that term a of the outer product of those vectors names (``_grouped``).
    sinc(l_g) takes the real branch of ``sinc`` inline and calls it only for
    its series: l_g = hypot(w_g) >= 0, so -1e-4 < l_g < 1e-4 is l_g < 1e-4.
    """
    groups, T = table
    g = w[groups[0]]
    lam = math.hypot(*g)
    E = cmath.exp(1j * b)
    s = E * (math.sin(lam) / lam if lam >= 1e-4 else sinc(lam))
    f = (E * math.cos(lam), *map(s.__mul__, g))
    if len(groups) == 2:
        g = w[groups[1]]
        lam = math.hypot(*g)
        s = math.sin(lam) / lam if lam >= 1e-4 else sinc(lam)
        h = (math.cos(lam), *map(s.__mul__, g))
        f = [a * c for a in f for c in h]
    return f, T


def _tridiag_spectral(w: list[float], b: float, table, _=None) -> tuple:
    """``_factors``' e^{ib} e^{w_1.B_1} e^{w_2.B_2} (two groups of two
    slots) as sum_k e^{i lam_k} P_k: lam_k, and r with P_k = (r @ G)[k].

    With n_g = w_g / l_g, (n_g.B_g)^2 = -I, so a factor is sum_{s = +-1}
    e^{isl_g} (I - is n_g.B_g)/2, any unit axis serving at l_g = 0; r is the
    outer product of the factors' projectors at s_g = +1 on T, and G
    (``_factor_projectors``) holds T with each projector's signs.
    """
    (g1, g2), G = table
    x1, y1 = w[g1]
    x2, y2 = w[g2]
    l1, l2 = math.hypot(x1, y1), math.hypot(x2, y2)
    u1, v1 = (-0.5j * x1 / l1, -0.5j * y1 / l1) if l1 else (-0.5j, 0.0)
    u2, v2 = (-0.5j * x2 / l2, -0.5j * y2 / l2) if l2 else (-0.5j, 0.0)
    return ([b + l1 + l2, b + l1 - l2, b - l1 + l2, b - l1 - l2],
            [0.25, 0.5 * u2, 0.5 * v2, 0.5 * u1, u1 * u2, u1 * v2, 0.5 * v1, v1 * u2, v1 * v2], G)


def _interaction(w: list[float], b: float, table=None, _=None) -> tuple:
    """e^{ib} e^{iC} as the pair (V diag(e^{i(b + lam)}), V^T), whose product
    ``_matrix`` forms, from the nine entries w of Cmat.

    C = Im X0 = w @ _PURE_FLAT is real symmetric, and ``eigh3`` gives C =
    V diag(lam) V^T with V orthogonal, so e^{iC} = V diag(e^{i lam}) V^T.
    e^{i lam} is constant on each eigenspace, so any orthonormal eigenbasis
    serves, repeated eigenvalues included, and the symmetric eigensolver is
    backward stable: the error is O(eps ||C||), with no singular value of
    Cmat read through its square and no cofactor of Cmat formed.
    """
    lam, V = eigh3(np.asarray(w, float).dot(_PURE_FLAT).reshape(4, 4))
    return V * np.exp(1j * (lam + b)), V.T


def _normal_split(w: list[float], b: float, table, _=None) -> tuple:
    """e^{ib} e^X0 = e^{ib} e^B e^{iC} when B and C commute: e^B by
    ``_factors`` on the p and q groups, the first six entries of w, then
    e^{iC} by ``_interaction`` on Cmat, the other nine, from the eigenbasis
    of C, its right factor in ``_matrix``."""
    return (*_factors(w, b, table), *_interaction(w[6:], 0.0))


def _split_tables() -> tuple[np.ndarray, list[float], np.ndarray]:
    """The nine bisymmetric splits as constants: slots, signs, rows.

    Split k = 3 i0 + j0 puts the 1x1 block of the interaction matrix at
    Cmat[i0, j0], and the 2x2 block at the other rows r1 < r2 and columns
    c1 < c2; it keeps five slots of v, the zeros of its mask (row 2 + k of
    ``model._DROP``).  Row k of the slot table holds them: e = Cmat[i0, j0],
    then (a, b, c, d) = Cmat at [r1, c1], [r1, c2], [r2, c1], [r2, c2] in
    slot order, whose basis matrices are M_e, M11, M12, M21, M22.  M11 M22
    is sigma_k M_e with sigma_k = +-1, and the rows are the flattened I,
    M_e, M11, M12, M21, M22.
    """
    e = 6 + np.arange(9)
    kept = np.nonzero(_DROP[2:11] == 0.0)[1].reshape(9, 5)
    slots = np.column_stack((e, kept[kept != e[:, None]].reshape(9, 4)))
    M = _QT_FLAT[slots]
    P = M[:, 1].reshape(9, 4, 4) @ M[:, 4].reshape(9, 4, 4)
    sign = ((P.reshape(9, 16) * M[:, 0]).sum(axis=1) / 4.0).tolist()  # M_e: norm^2 4
    rows = np.zeros((9, 6, 16), dtype=complex)
    rows[:, 0, ::5] = 1.0  # the flattened identity
    rows[:, 1:] = M
    return slots, sign, rows


_SPLIT_SLOTS, _SPLIT_SIGN, _SPLIT_ROWS = _split_tables()


def _bisym(s: list[float], b: float, table, k: int) -> tuple:
    """Bisymmetric exponential from two 2x2 rotations, on the row's table,
    (sigma, rows) of each split (``_split_tables``).

    On the gate's split k, the nearest of the nine (ties to the first), X0 is
    i(e M_e + x11 M11 + x12 M12 + x21 M21 + x22 M22), and s = (e, x11, x12,
    x21, x22) are the five slots the gate keeps.  P = M11 M22 = sigma M_e
    squares to I and commutes with every term, and M22 = M11 P, M21 =
    -M12 P.  So on the eigenspace P = +-1 the 2x2 block is x M11 + y M12,
    two anticommuting involutions, and

        e^{ib} e^{X0} = sum_{p = +-1} (I + pP)/2 e^{i(b + p sigma e)}
                        [cos l_p I + i sinc(l_p) (x_p M11 + y_p M12)],

    x_p = x11 + p x22, y_p = x12 - p x21, l_p = hypot(x_p, y_p).  Expanded,
    that is six coefficients on I, P, M11, P M11 = M22, M12 and P M12 =
    -M21, the split's rows up to sign.  The two eigenspaces run side by side
    as straight-line code, p = +1 then p = -1 in each line, and sinc(l_p)
    takes the real branch of ``sinc`` inline, as in ``_factors``.
    """
    e, x11, x12, x21, x22 = s
    sigma, rows = table[k]
    se = sigma * e
    xp, yp, xm, ym = x11 + x22, x12 - x21, x11 - x22, x12 + x21
    lp, lm = math.hypot(xp, yp), math.hypot(xm, ym)
    Ep, Em = cmath.exp(1j * (b + se)), cmath.exp(1j * (b - se))
    rp = 0.5j * Ep * (math.sin(lp) / lp if lp >= 1e-4 else sinc(lp))
    rm = 0.5j * Em * (math.sin(lm) / lm if lm >= 1e-4 else sinc(lm))
    cp, cm = 0.5 * Ep * math.cos(lp), 0.5 * Em * math.cos(lm)
    xp, yp, xm, ym = rp * xp, rp * yp, rm * xm, rm * ym
    return (cp + cm, sigma * (cp - cm), xp + xm, yp + ym, ym - yp, xp - xm), rows


def _bisym_spectral(s: list[float], b: float, table, k: int) -> tuple:
    """``_bisym``'s e^{ib} e^{X0} as sum_k e^{i lam_k} P_k: lam_k, and r
    with P_k = (r @ G)[k], from the row's projectors, (sigma, G) of each
    split, G its ``_SPLIT_PROJECTORS``.

    On P = p, X0's 2x2 block is i l_p N_p, N_p = (x_p M11 + y_p M12) / l_p
    an involution, so P_k = (I + pP)/2 (I + q N_p)/2, lam = b + p sigma e +
    q l_p, q = +-1; r holds the axes (x_p, y_p) / l_p, any at l_p = 0.
    """
    e, x11, x12, x21, x22 = s
    sigma, G = table[k]
    c = sigma * e
    lam, r = [], [1.0]
    for p, x, y in ((1.0, x11 + x22, x12 - x21), (-1.0, x11 - x22, x12 + x21)):
        l = math.hypot(x, y)
        lam += (b + p * c + l, b + p * c - l)
        r += (x / l, y / l) if l else (1.0, 0.0)
    return lam, r, G


def _split_projectors() -> np.ndarray:
    """(9, 5, 64): the four projectors of ``_bisym_spectral`` at split k,
    (p, q) = (+, +), (+, -), (-, +), (-, -), as coefficients of r.  As P =
    sigma M_e, P M11 = M22 and P M12 = -M21, each is (I + p sigma M_e + q nx
    (M11 + p M22) + q ny (M12 - p M21))/4, (nx, ny) = r[1:3] or r[3:5]."""
    I, Me, M11, M12, M21, M22 = _SPLIT_ROWS.transpose(1, 0, 2)
    sigma = np.array(_SPLIT_SIGN)[:, None]
    G = np.zeros((9, 5, 4, 16), dtype=complex)
    for j, (p, q) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
        x = 1 if p > 0 else 3
        G[:, 0, j] = I + p * sigma * Me
        G[:, x, j] = q * (M11 + p * M22)
        G[:, x + 1, j] = q * (M12 - p * M21)
    return 0.25 * G.reshape(9, 5, 64)


_SPLIT_PROJECTORS = _split_projectors()


# -- the family table -------------------------------------------------------

def _param_map(generator, n: int) -> np.ndarray:
    """(16, n) real M with (v, b) of generator(*x) equal to M @ x, for a
    generator linear in its n parameters: column j is (v, b) of the unit
    vector e_j's matrix, read by the constructor's input map."""
    return _INPUT_MAP[:16] @ np.column_stack(
        [np.ascontiguousarray(generator(*e), dtype=complex).reshape(16).view(float)
         for e in np.eye(n)])


# (v, b) of SymTriDiag(alpha, beta, gamma).matrix() is _TRIDIAG_VB @ (alpha, beta, gamma).
_TRIDIAG_VB = _param_map(lambda *e: SymTriDiag(*e).matrix(), 3)

# The orthogonal projector onto the tridiagonal family in v: the columns of
# _TRIDIAG_VB[:15] are orthogonal with squared norm 1/2.  The other linear
# families are the slots that their masks in model._DROP keep.
_EYE15 = np.eye(15)
_TRIDIAG_PROJ = 2.0 * _TRIDIAG_VB[:15] @ _TRIDIAG_VB[:15].T
_TRIDIAG_RESID = _EYE15 - _TRIDIAG_PROJ

# [I; basis]: the flattened identity, then the rows of _QT_STACK.
_BASES = np.concatenate((np.eye(4).reshape(1, 16), _QT_STACK))


def _factor_projectors(groups: list[slice], T: np.ndarray) -> np.ndarray:
    """(rows of T, 2^m 16) G of ``_tridiag_spectral`` for m groups: T with,
    at columns 16 k to 16 k + 15, projector k = (s_1, .., s_m)'s sign s_g on
    each basis term of group g, s_g = +1 then -1."""
    S = np.ones((1, 1))
    for g in groups:
        e = np.ones((2, g.stop - g.start + 1))
        e[1, 1:] = -1.0
        S = (S[:, None, :, None] * e[None, :, None, :]).reshape(2 * len(S), -1)
    return (S[:, :, None] * T).transpose(1, 0, 2).reshape(len(T), -1)


class Family(NamedTuple):
    """One row of ``FAMILY_TABLE``, the one owner of what its formula reads.

    ``method`` is the ExpResult tag and the FAMILIES key.  Every row
    applies when its ``gate_distance`` is at most the gate tolerance.  A
    structured row has a read-out ``read``, R with R v the coordinates its
    formula takes as floats (one R per split for bisym), and its ``label``
    shows in ``su4exp classify``.  A row without one is the
    minimal-polynomial shape ``label``, and its formula takes the element.
    Every formula is called one way (``_evaluate``): on the read-out or the
    element, the scalar part b, the row's constant ``table``, and what its
    gate found, the bisymmetric split or the shape's ``MinPolyClass``.
    ``groups`` holds the Pauli labels of each rotation factor read off v.
    A row with a spectral form (``_spectral_mapped``) holds it in
    ``spectral``, called the same way on its ``projectors``.  Every formula
    returns coefficients and a table whose product is e^X (``_matrix``),
    with the scalar phase e^{ib} in its coefficients: scalar coefficients
    on a constant table, but for e^{iC} (imsym, and the normal split's
    right factor), whose table is V^T of the eigenbasis of C.
    """

    method: str
    label: str
    formula: Callable[..., tuple]
    read: np.ndarray | None = None
    table: object = None
    groups: tuple[str, ...] = ()
    spectral: Callable[..., tuple] | None = None
    projectors: object = None


def _grouped(method: str, label: str, formula: Callable[..., tuple], groups: tuple[str, ...],
             P: np.ndarray = _EYE15, after: np.ndarray = _EYE15[:0], spectral=None) -> Family:
    """The row ``Family(method, label, formula, ...)`` of a grouped family,
    made from its groups' Pauli labels ("xz", "0y", ...).

    Its read-out is [G; after], G v the groups' slots of P v (of v but for
    the tridiagonal projector P): v at a group's slots is X0's own expansion
    over its terms, so no signs are needed.  Its table is (slices of w = G
    v, T), T the products B_1[a] B_2[b] of the groups' bases, rows of
    _BASES (I, then the slots' basis matrices), one broadcast product; with
    a spectral form, its projectors are the slices and
    ``_factor_projectors`` of T.
    """
    slots = [[_PAULI_SLOT[_PAULI_SLOTS.index(tuple(st))] for st in g.split()] for g in groups]
    B = [_BASES[[0] + [s + 1 for s in group]].reshape(-1, 1, 4, 4) for group in slots]
    T = (B[0] if len(B) == 1 else B[0] @ B[1].reshape(1, -1, 4, 4)).reshape(-1, 16)
    g = [slice(e - len(s), e) for s, e in zip(slots, accumulate(map(len, slots)))]
    return Family(method, label, formula, np.vstack((P[sum(slots, [])], after)), (g, T),
                  groups, spectral, spectral and (g, _factor_projectors(g, T)))


FAMILY_TABLE = (
    _grouped("tridiag", "symmetric-tridiagonal", _factors, ("xx zx", "yy 0x"),
             _TRIDIAG_PROJ, spectral=_tridiag_spectral),
    _grouped("perskew", "perskewsymmetric", _factors, ("z0 xz yz", "0z zx zy")),
    _grouped("skewham", "skew-Hamiltonian", _factors, ("yy 0z 0x zy xy",)),
    # The five kept slots of each of the nine bisymmetric splits.
    Family("bisym", "bisymmetric-type", _bisym, _EYE15[_SPLIT_SLOTS],
           [*zip(_SPLIT_SIGN, _SPLIT_ROWS)], spectral=_bisym_spectral,
           projectors=[*zip(_SPLIT_SIGN, _SPLIT_PROJECTORS)]),
    Family("imsym", "imaginary-symmetric", _interaction, _EYE15[6:]),
    # e^B: the p slots, then the q slots of v; then Cmat for e^{iC}.
    _grouped("normal-split", "normal-type", _normal_split, ("0y yx yz", "y0 xy zy"),
             after=_EYE15[6:]),
    Family("quad-I", "quadratic-I", lambda X, b, _, m: _quadratic(X.coeffs, b, 0.0, m.c2)),
    Family("quad-II", "quadratic-II",
           lambda X, b, _, m: _quadratic(X.coeffs, b, m.beta, m.gamma)),
    Family("cubic-I", "cubic-I", lambda X, b, _, m: _cubic(X.coeffs, b, m.c2, X.quadratic[1])),
)
_ROWS = {fam.method: fam for fam in FAMILY_TABLE}
_BY_TAG = {fam.label: fam for fam in FAMILY_TABLE if fam.read is None}


# -- structure gates: the six structured rows' distances, in dispatch order,
# and the bisymmetric split.

def _structured_row(X: Su4Element, tol: float,
                    stop: str = "") -> tuple[Family | None, int | None, float]:
    """The first structured row whose gate distance is at most tol, or the
    row ``stop``, with its gate's split and its distance: the one place
    where the six distances are read, ordered and compared.

    The basis matrices of v are orthogonal with squared norm 4, so
    ||X0||_F = 2||v||.  A linear family's distance is ||X0 - X0_on||_F =
    2||v - P v|| for its projector P.  The tridiagonal one, ||Rv|| with R =
    I - P, comes first, and is not read off a quadratic form, which cancels
    at eps ||v||^2, far above tol^2 / 4 near the boundary; a tridiagonal
    input forms no product of v.  The next four are the diagonal P of the
    drop masks (``model._DROP``), twice the root of v^2 on each mask, the
    bisymmetric one at its nearest split (ties to the first), found when the
    walk reaches it.  The normal split's is the Trotter bound 1/2
    ||[B, C]||_F = 2||K||_F.  The drop sums and K are read off the shared
    product (``Su4Element.quadratic``) that ``classify`` reads too.  No row
    when none is within tol and ``stop`` is empty.
    """
    u = _TRIDIAG_RESID.dot(X.coeffs)
    if (d := 2.0 * math.sqrt(u @ u)) <= tol or stop == "tridiag":
        return _ROWS["tridiag"], None, d
    K, _, _, s = X.quadratic
    s = s.tolist()
    if (d := 2.0 * math.sqrt(s[0])) <= tol or stop == "perskew":
        return _ROWS["perskew"], None, d
    if (d := 2.0 * math.sqrt(s[1])) <= tol or stop == "skewham":
        return _ROWS["skewham"], None, d
    k = s.index(min(s[2:11]), 2)
    if (d := 2.0 * math.sqrt(s[k])) <= tol or stop == "bisym":
        return _ROWS["bisym"], k - 2, d
    if (d := 2.0 * math.sqrt(s[11])) <= tol or stop == "imsym":
        return _ROWS["imsym"], None, d
    d = 2.0 * math.sqrt(K @ K)
    return (_ROWS["normal-split"] if d <= tol or stop == "normal-split" else None), None, d


def _gate(method: str, X: Su4Element) -> tuple[float, object]:
    """The row's gate distance, and what its formula takes of the gate.

    A structured row's is the dispatch walk (``_structured_row``) stopped
    at that row, with its split; a minimal-polynomial row's is its shape's
    (``classify.shape``), whose ``MinPolyClass`` the formula takes.  All
    nine share the range of ``classify``: past ||v|| (``Su4Element.norm``)
    = ``classify._NORM_MAX`` every distance is inf, before any product.
    """
    fam = _ROWS[method]
    if fam.read is None:
        return shape(X, fam.label)
    if not X.norm < _NORM_MAX:
        return math.inf, None
    _, k, d = _structured_row(X, -math.inf, method)
    return d, k


def gate_distance(method: str, X: Su4Element) -> float:
    """The gate distance of the row ``method`` (``_gate``)."""
    return _gate(method, X)[0]


def _matrix(coef, T, *right) -> np.ndarray:
    """coef @ T as a 4x4 matrix, for a formula's coefficients on its table:
    the one place where a row becomes U.  Only the normal split
    returns a second such pair, e^{iC}, whose matrix multiplies e^B's on the
    right: one 4x4 product costs less than the outer product of their
    coefficients on a table of products of their rows."""
    # ndarray.dot has less call overhead than @ on operands this small, and
    # np.dot converts a formula's list or tuple of coefficients more slowly
    # than np.asarray with the dtype given.
    U = np.asarray(coef, complex).dot(T).reshape(4, 4)
    return U.dot(_matrix(*right)) if right else U


def _evaluate(fam: Family, w, b: float, found=None) -> np.ndarray:
    """e^X by the row's formula, which applies the scalar phase (``_matrix``):
    the one call of a formula, on w, the row's read-out R v as floats or the
    element on a minimal-polynomial row, b, the row's table, and what its
    gate found, the bisymmetric split or the shape's ``MinPolyClass``."""
    return _matrix(*fam.formula(w, b, fam.table, found))


def _unitary(fam: Family, X: Su4Element, found=None) -> np.ndarray:
    """e^X by the row's formula (``_evaluate``) on the element, with what the
    row's gate found: the read-out at the split found on the bisymmetric row."""
    R = fam.read
    w = X if R is None else (R if found is None else R[found]).dot(X.coeffs).tolist()
    return _evaluate(fam, w, X.scalar, found)


def closed_form(method: str, X: Su4Element) -> ExpResult:
    """e^X by the formula of the table row ``method``.

    This is the uniform family signature behind FAMILIES and the public
    ``exp_*`` wrappers.  Raises InputError past the range rule of
    ``exp_auto`` (``_check_norm``), then StructureError with the row's
    ``gate_distance`` as its residual unless it is at most STRUCTURE_TOL.
    """
    _check_norm(X)
    d, arg = _gate(method, X)
    if not d <= STRUCTURE_TOL:
        raise StructureError(_ROWS[method].label, d)
    return ExpResult(_unitary(_ROWS[method], X, arg), method)


# -- public closed forms and the dispatcher --------------------------------

def _check_params(x, t: float = 1.0) -> float:
    """|t|, after raising InputError unless t and every parameter in x are
    real numbers and the products t x have a finite norm, before any product
    of them is formed (NumPy warns on inf times 0).  ||x|| |t| stands in for
    ||t x|| unless it overflows; an int past the float range overflows."""
    try:
        n, s = math.hypot(*x), math.hypot(t)
        if math.isfinite(n * s) or math.isfinite(math.hypot(*[t * c for c in x])):
            return s
    except TypeError as exc:
        raise InputError(f"parameters must be real numbers: {exc}") from exc
    except OverflowError:  # an int past the float range
        pass
    raise InputError("parameters must be finite")


def _linear_row(M: np.ndarray) -> tuple[np.ndarray, Family, int | None]:
    """(A, row, split) for a generator linear in its parameters x, whose
    (v, b) is M @ x for the constant (16, n) map M.

    The row is the tridiagonal one when every column's residual is exactly
    0, else the bisymmetric one at the split its gate finds on the sum of
    |columns|, whose support holds every column's, when that distance is
    exactly 0.  Both rows are linear spaces, so every M @ x stays on the row
    and no gate runs per call.  A = [R M[:15]; M[15]] for the row's read-out
    R at that split: A @ x is (R v, b).  Raises StructureError otherwise.
    """
    fam, k = _ROWS["tridiag"], None
    if _TRIDIAG_RESID.dot(M[:15]).any():
        fam = _ROWS["bisym"]
        d, k = _gate(fam.method, Su4Element._from_coeffs(np.abs(M[:15]).sum(axis=1)))
        if d != 0.0:
            raise StructureError(fam.label, d)
    return np.vstack(((fam.read if k is None else fam.read[k]) @ M[:15], M[15])), fam, k


def _exp_mapped(row: tuple, x, t: float = 1.0) -> ExpResult:
    """e^{tX} for the X with (v, b) = M @ x, by the formula of the ``Family``
    row that ``_linear_row`` found for M, (A, fam, split) = row.

    A @ (t x) gives the formula's read-out and b of tX in one product on the
    n products t x, so no element is built and no gate runs.  The caller
    checks x and t (``_check_params``) first; this raises InputError past
    the range rule of ``exp_auto`` (``_check_norm``): on both rows
    ||(R v, b)|| = ||(v, b)||.
    """
    A, fam, found = row
    y = A.dot([t * c for c in x]).tolist()
    _check_range(4.0 * math.hypot(*y))
    b = y.pop()
    return ExpResult(_evaluate(fam, y, b, found), fam.method)


def _spectral_mapped(row: tuple, x) -> tuple | None:
    """(i lam, P, ||(v, b)||) of the X with (v, b) = M @ x, for M's row as
    in ``_exp_mapped``: e^{tX} = sum_k e^{i lam_k t} P_k for every t, P a
    read-only (4, 16), from A @ x and the row's spectral form, called as
    its formula is, on the row's projectors.  None where 4 ||(v, b)||, a
    bound on each |lam_k|, overflows."""
    A, fam, found = row
    y = A.dot(x).tolist()
    n = math.hypot(*y)
    if not math.isfinite(4.0 * n):
        return None
    b = y.pop()
    lam, r, G = fam.spectral(y, b, fam.projectors, found)
    P = np.asarray(r, complex).dot(G).reshape(4, 16)
    P.flags.writeable = False
    return tuple(1j * c for c in lam), P, n


_TRIDIAG_ROW = _linear_row(_TRIDIAG_VB)


def exp_tridiag(S: SymTriDiag) -> ExpResult:
    """e^S for i x (real symmetric tridiagonal, zero diagonal) parameters.

    Takes the three parameters rather than an element: (v, b) is the
    constant map _TRIDIAG_VB of them, on the tridiagonal row
    (``_linear_row``, ``_exp_mapped``).  Raises InputError on a parameter
    that is not a finite real number, and past the range rule of
    ``exp_auto``.
    """
    _check_params(S)
    return _exp_mapped(_TRIDIAG_ROW, S)


def exp_perskew(X: Su4Element) -> ExpResult:
    """e^X for perskewsymmetric X (two factors, its groups); StructureError otherwise."""
    return closed_form("perskew", X)


def exp_skewham(X: Su4Element) -> ExpResult:
    """e^X for skew-Hamiltonian X (one factor, its group); StructureError otherwise."""
    return closed_form("skewham", X)


def exp_imaginary_symmetric(X: Su4Element) -> ExpResult:
    """e^X for imaginary-symmetric X (see ``_interaction``); StructureError otherwise."""
    return closed_form("imsym", X)


def exp_bisymmetric_fast(X: Su4Element) -> ExpResult:
    """e^X for bisymmetric-type X (see ``_bisym``); StructureError otherwise."""
    return closed_form("bisym", X)


def exp_normal_split(X: Su4Element) -> ExpResult:
    """e^X for X with commuting real/imaginary parts (see ``_normal_split``);
    StructureError otherwise."""
    return closed_form("normal-split", X)


def exp_quadratic_I(X: Su4Element) -> ExpResult:
    """e^X for X0^2 = -c^2 I (see ``_quadratic``, beta = 0); StructureError otherwise."""
    return closed_form("quad-I", X)


def exp_quadratic_II(X: Su4Element) -> ExpResult:
    """e^X for X0^2 + 2 beta X0 + gamma I = 0 (see ``_quadratic``); StructureError
    otherwise.  Quadratic type I input passes too, at beta = 0."""
    return closed_form("quad-II", X)


def exp_cubic_I(X: Su4Element) -> ExpResult:
    """e^X for X0^3 = -c^2 X0 (see ``_cubic``); StructureError otherwise."""
    return closed_form("cubic-I", X)


def _check_norm(X: Su4Element) -> None:
    """Raise InputError when eps 2||X||_F >= 1 (``oracle._check_range``),
    the range rule of ``exp_auto`` and of the ``classify`` verb:
    2||X||_F = 4 hypot(||v||, b), with the element's ||v||, bounds ||X||_1."""
    _check_range(4.0 * math.hypot(X.norm, X.scalar))


def exp_auto(X: Su4Element, tol: float = STRUCTURE_TOL) -> ExpResult:
    """Exponential of X by the cheapest applicable closed form.

    Order: the first structured row of FAMILY_TABLE whose gate passes, the
    minimal-polynomial row ``classify`` names, magic-basis conjugation into
    a structured row, and finally the series reference exponential.  Every
    stage tests its distance at tol, and the formula it picks is within tol
    of e^X, so exp_auto never raises StructureError.  It raises InputError
    before any stage (``_check_norm``), and unless 0 <= tol < inf.

    A closed form meets ||U - e^X||_F <= d + c eps ||X||_F, d the accepting
    gate's distance (at most tol) and c a small constant of the row's
    rounding.  Measured on ``families`` samples rescaled to ||X||_F = 1, 10,
    .., up to the norm where every sample still kept its row: c <= 10.4 at
    ||X||_F = 1 and <= 5.6 from 10 to 1e6 for imsym and normal-split; <= 1.74
    for the four linear rows (tridiag, perskew, skewham, bisym) up to 1e6;
    quad-I <= 2.44 and quad-II <= 2.08 up to 1e5; cubic-I <= 1.75 up to 1e4;
    the demo propagators <= 3.77 up to ||tX||_F = 1e6.  The reference
    exponential's own c is at most 3.2.
    """
    _check_tol(tol)
    _check_norm(X)
    fam, arg, _ = _structured_row(X, tol)
    if fam is not None:
        return ExpResult(_unitary(fam, X, arg), fam.method)
    cls = classify(X, tol)
    fam = _BY_TAG.get(cls.tag)
    if fam is not None:
        return ExpResult(_unitary(fam, X, cls), fam.method)
    for entries, W, Wh in zip(_magic_entries(X), (MAGIC_BASIS, MAGIC_ADJOINT),
                              (MAGIC_ADJOINT, MAGIC_BASIS)):
        Y = Su4Element(entries)
        fam, arg, _ = _structured_row(Y, tol)
        if fam is not None:
            return ExpResult(Wh @ _unitary(fam, Y, arg) @ W, "magic")
    return ExpResult(expm_reference(X.entries), "oracle")
