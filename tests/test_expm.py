"""Closed-form exponentials: every structured family and every
minimal-polynomial formula is checked against the series reference, plus the
factorization identities the formulas rest on (commuting factors, scalar
squares of anticommuting sums)."""

import cmath
import math
import warnings

import numpy as np
import pytest

from su4exp.classify import _NORM_MAX, charpoly, classify, is_normal_type, shape
from su4exp.errors import InputError, StructureError
from su4exp.expm import (
    _ROWS,
    _SPLIT_SLOTS,
    _TRIDIAG_PROJ,
    FAMILY_TABLE,
    _evaluate,
    STRUCTURE_TOL,
    SymTriDiag,
    closed_form,
    cosm1_over_c2,
    exp_auto,
    exp_bisymmetric_fast,
    exp_cubic_I,
    exp_imaginary_symmetric,
    exp_normal_split,
    exp_perskew,
    exp_quadratic_I,
    exp_quadratic_II,
    exp_skewham,
    exp_tridiag,
    gate_distance,
    is_bisymmetric,
    is_imaginary_symmetric,
    is_normal_element,
    is_perskew,
    is_skew_hamiltonian,
    is_tridiagonal_type,
    sinc,
)
from su4exp.families import FAMILIES
from su4exp.model import (
    _DROP,
    _PAULI_SLOT,
    _PAULI_SLOTS,
    _QT_STACK,
    MAGIC_BASIS,
    Su4Element,
    quadratic_forms,
)
from su4exp.oracle import expm_reference

from reference import cross_matrix, mat_pure_pure, pauli_kron

# The drop gates' masks (model._DROP): the nine bisymmetric splits, and the
# slots that the other three linear gates drop.
_SPLIT_OFF = _DROP[2:11]
_MASK = {"perskew": _DROP[0], "skewham": _DROP[1], "imsym": _DROP[11]}


def _check(U, X, tol=1e-10):
    assert np.abs(U.conj().T @ U - np.eye(4)).max() < tol
    assert np.abs(U - expm_reference(X)).max() < tol


# -- scalar helpers --------------------------------------------------------

def test_sinc_series_matches_exact():
    for c in (1e-9, 1e-5, 9.9e-5, 1.01e-4, 0.5, 2.0, 1e-5 + 1e-5j):
        exact = cmath.sin(c) / c
        assert abs(sinc(c) - exact) < 1e-15 * max(1.0, abs(exact))
    assert sinc(0.0) == 1.0


# Group norms on either side of sinc's crossover at 1e-4, and on it: the
# grouped rows and the bisymmetric formula take sinc's real branch inline.
_CROSSOVER = (0.0, 1e-9, 9.99e-5, 1e-4, 1.0001e-4, 1.0)


def _slots(fam):
    # The v slots of each of the row's groups, read off its Pauli labels.
    return [[_PAULI_SLOT[_PAULI_SLOTS.index(tuple(st))] for st in g.split()]
            for g in fam.groups]


@pytest.mark.parametrize("method", ["tridiag", "perskew", "skewham", "normal-split"])
def test_grouped_rows_at_the_sinc_crossover(method):
    # Each group's norm in turn at each crossover value, on one slot so the
    # norm is exact, then spread over the group, with the other group at
    # norm 0.7; normal-split's Cmat is 0, so its e^{iC} is I.  The formula
    # reads w as coefficients on its groups' slots of v, so e^X is the
    # exponential of ib I + w on those basis matrices.
    rng = np.random.default_rng(26)
    slots = _slots(_ROWS[method])
    for g, group in enumerate(slots):
        n = len(group)
        for lam in _CROSSOVER:
            for part in (lam * np.eye(n)[0], np.full(n, lam / math.sqrt(n))):
                w = []
                for h, other in enumerate(slots):
                    u = rng.normal(size=len(other))
                    w += (part if h == g else 0.7 * u / np.linalg.norm(u)).tolist()
                v = np.zeros(15)
                v[sum(slots, [])] = w
                X = (v @ _QT_STACK).reshape(4, 4) + 0.3j * np.eye(4)
                w += [0.0] * 9 if method == "normal-split" else []
                U = _evaluate(_ROWS[method], w, 0.3)
                assert np.abs(U - expm_reference(X)).max() <= 1e-14, (g, lam, part)


@pytest.mark.parametrize("k", range(9))
def test_bisymmetric_splits_at_the_sinc_crossover(k):
    # l_+ = hypot(x11 + x22, x12 - x21) and l_- = hypot(x11 - x22, x12 +
    # x21) each in turn at each crossover value, exactly: x11 = +-x22 =
    # lam / 2 puts lam on one and 0 on the other, and x12 = +-x21 = y / 2
    # puts y = 0.7 on the other norm alone.
    for sign in (1.0, -1.0):
        for lam in _CROSSOVER:
            s = [0.4, lam / 2, 0.35, sign * 0.35, sign * lam / 2]
            x11, x12, x21, x22 = s[1:]
            lp, lm = math.hypot(x11 + x22, x12 - x21), math.hypot(x11 - x22, x12 + x21)
            assert (lp, lm) == ((lam, 0.7) if sign > 0 else (0.7, lam))
            v = np.zeros(15)
            v[_SPLIT_SLOTS[k]] = s
            X = (v @ _QT_STACK).reshape(4, 4) - 0.2j * np.eye(4)
            U = _evaluate(_ROWS["bisym"], s, -0.2, k)
            assert np.abs(U - expm_reference(X)).max() <= 1e-14, (sign, lam)


def test_cosm1_series_matches_exact():
    # 2 sin^2(c/2) / c^2 is a cancellation-free reference on the real axis.
    for c in (1e-9, 1e-5, 9.9e-5, 1.01e-4, 9.9e-3, 1.01e-2, 0.5, 2.0):
        exact = 2.0 * math.sin(c / 2.0) ** 2 / (c * c)
        # the direct branch just above the crossover keeps ~12 digits
        assert abs(cosm1_over_c2(c) - exact) < 1e-12
    assert cosm1_over_c2(0.0) == 0.5


# -- minimal-polynomial formulas -------------------------------------------

def test_quadratic_I_diagonal():
    X = Su4Element(1j * np.diag([1.0, 1.0, -1.0, -1.0]))
    res = exp_quadratic_I(X)
    assert res.method == "quad-I"
    _check(res.U, X.entries, tol=1e-13)
    assert np.abs(res.U - np.diag(np.exp(np.diag(X.entries)))).max() < 1e-13


def test_quadratic_I_rejects_wrong_structure():
    with pytest.raises(StructureError):
        exp_quadratic_I(Su4Element(1j * np.diag([1.0, 2.0, -1.0, -2.0])))


def test_quadratic_II_shifted_rotation():
    X = Su4Element(1j * np.diag([1.0, 1.0, 1.0, -3.0]))
    # (x - i)(x + 3i) = x^2 + 2ix + 3, the parameters read from X
    m = classify(X)
    assert m.tag == "quadratic-II"
    assert abs(m.beta - 1j) < 1e-13 and abs(m.gamma - 3.0) < 1e-13
    res = exp_quadratic_II(X)
    assert res.method == "quad-II"
    _check(res.U, X.entries, tol=1e-13)
    with pytest.raises(StructureError):
        exp_quadratic_II(Su4Element(1j * np.diag([1.0, 2.0, -1.0, -2.0])))
    # Quadratic type I input is the quadratic-II row's at beta = 0.
    X = Su4Element(1j * np.diag([1.0, 1.0, -1.0, -1.0]))
    assert shape(X, "quadratic-II")[1].beta == 0.0
    _check(exp_quadratic_II(X).U, X.entries, tol=1e-13)


def test_cubic_I_rotation_formula():
    X = Su4Element(1j * np.diag([0.0, 0.0, 2.0, -2.0]))
    m = classify(X)
    assert m.tag == "cubic-I" and abs(m.c2 - 4.0) < 1e-13
    res = exp_cubic_I(X)
    assert res.method == "cubic-I"
    _check(res.U, X.entries, tol=1e-13)
    with pytest.raises(StructureError):
        exp_cubic_I(Su4Element(1j * np.diag([1.0, 2.0, -1.0, -2.0])))


# -- tridiagonal -----------------------------------------------------------

def test_tridiag_zero_is_identity():
    res = exp_tridiag(SymTriDiag(0.0, 0.0, 0.0))
    assert np.abs(res.U - np.eye(4)).max() < 1e-14


def test_tridiag_matches_oracle():
    rng = np.random.default_rng(60)
    for _ in range(200):
        S = SymTriDiag(*rng.uniform(-5, 5, 3))
        res = exp_tridiag(S)
        _check(res.U, S.matrix())
        assert res.method == "tridiag"


def test_tridiag_factors_commute():
    # The two generator pieces the formula splits into commute, and each
    # squares to a (negative) scalar, so the two rotation factors are exact.
    from su4exp.quaternion import PureQuaternion
    ex = PureQuaternion(1.0, 0.0, 0.0)
    ey = PureQuaternion(0.0, 1.0, 0.0)
    ez = PureQuaternion(0.0, 0.0, 1.0)
    rng = np.random.default_rng(61)
    for _ in range(50):
        a, b, g = rng.uniform(-3, 3, 3)
        r = PureQuaternion(0.0, b / 2.0, 0.0)
        t = PureQuaternion(0.0, (g - a) / 2.0, 0.0)
        s = PureQuaternion(b / 2.0, 0.0, (a + g) / 2.0)
        Y1 = 1j * (mat_pure_pure(r, ex) + mat_pure_pure(t, ez))
        Y2 = 1j * mat_pure_pure(s, ey)
        S = SymTriDiag(a, b, g)
        assert np.abs(Y1 + Y2 - S.matrix()).max() < 1e-12
        assert np.abs(Y1 @ Y2 - Y2 @ Y1).max() < 1e-12
        for Y in (Y1, Y2):
            sq = Y @ Y
            assert np.abs(sq - sq[0, 0] * np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", None, 1 + 2j, 10**400])
def test_tridiag_rejects_non_finite(bad):
    # A str, None or complex parameter is not a finite real number either,
    # nor an int past the float range.
    for k in range(3):
        S = [1.0, 2.0, 3.0]
        S[k] = bad
        with pytest.raises(InputError, match="^parameters must be "):
            exp_tridiag(SymTriDiag(*S))


def test_tridiag_time_scaling():
    S0 = (1.3, -0.4, 2.2)
    for t in (0.1, 1.0, 10.0):
        S = SymTriDiag(*(t * v for v in S0))
        _check(exp_tridiag(S).U, S.matrix())


# -- perskewsymmetric ------------------------------------------------------

def _perskew_element(rng):
    coeffs = rng.uniform(-5, 5, 6)
    H = (coeffs[0] * pauli_kron("z", "0") + coeffs[1] * pauli_kron("x", "z")
         + coeffs[2] * pauli_kron("y", "z") + coeffs[3] * pauli_kron("0", "z")
         + coeffs[4] * pauli_kron("z", "x") + coeffs[5] * pauli_kron("z", "y"))
    return Su4Element(1j * H + 1j * rng.uniform(-2, 2) * np.eye(4))


def test_perskew_matches_oracle():
    rng = np.random.default_rng(62)
    for _ in range(200):
        X = _perskew_element(rng)
        assert is_perskew(X)
        res = exp_perskew(X)
        _check(res.U, X.entries)


def test_perskew_diagonal_case():
    # Single sigma_z (x) I term: diagonal rotation.
    X = Su4Element(1j * pauli_kron("z", "0"))
    U = exp_perskew(X).U
    expected = np.diag(np.exp(1j * np.array([1.0, 1.0, -1.0, -1.0])))
    assert np.abs(U - expected).max() < 1e-14


def test_perskew_rejects_generic():
    rng = np.random.default_rng(63)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = Su4Element(0.5 * (A - A.conj().T))
    with pytest.raises(StructureError):
        exp_perskew(X)


# -- skew-Hamiltonian ------------------------------------------------------

def _skewham_element(rng):
    coeffs = rng.uniform(-5, 5, 5)
    H = (coeffs[0] * pauli_kron("y", "y") + coeffs[1] * pauli_kron("0", "z")
         + coeffs[2] * pauli_kron("0", "x") + coeffs[3] * pauli_kron("z", "y")
         + coeffs[4] * pauli_kron("x", "y"))
    return Su4Element(1j * H + 1j * rng.uniform(-2, 2) * np.eye(4))


def test_skewham_matches_oracle():
    rng = np.random.default_rng(64)
    for _ in range(200):
        X = _skewham_element(rng)
        assert is_skew_hamiltonian(X)
        res = exp_skewham(X)
        _check(res.U, X.entries)


def test_skewham_single_term():
    X = Su4Element(1j * pauli_kron("y", "y"))
    U = exp_skewham(X).U
    expected = math.cos(1.0) * np.eye(4) + 1j * math.sin(1.0) * pauli_kron("y", "y")
    assert np.abs(U - expected).max() < 1e-14


# -- factor groups and coordinate-subspace gates ---------------------------

def _group_terms(fam):
    return [[pauli_kron(*st) for st in g.split()] for g in fam.groups]


def test_perskew_triples_anticommute_and_commute():
    # Read off the table: in every row with factor groups (the perskew
    # triples, tridiag's pairs, normal-split's e^B triples, skewham's
    # quintuple) the terms anticommute within a group and commute across.
    grouped = [fam for fam in FAMILY_TABLE if fam.groups]
    assert {fam.method for fam in grouped} == {"tridiag", "perskew", "skewham",
                                              "normal-split"}
    for fam in grouped:
        groups = _group_terms(fam)
        for k, terms in enumerate(groups):
            for i, A in enumerate(terms):
                for B in terms[i + 1:]:
                    assert np.abs(A @ B + B @ A).max() < 1e-14, fam.method
                for other in groups[k + 1:]:
                    for B in other:
                        assert np.abs(A @ B - B @ A).max() < 1e-14, fam.method


def test_group_tables_hold_the_products_of_their_basis_matrices():
    # Row a of a grouped row's table names I or one basis matrix of each
    # group, in group order, as term a of the outer product of the groups'
    # coefficient vectors does; its row is their product.  The row's
    # read-out reads its groups' slots (of the projection, for tridiag),
    # then Cmat for the normal split's e^{iC}.
    import itertools
    from functools import reduce

    for fam in (fam for fam in FAMILY_TABLE if fam.groups):
        method, slots = fam.method, _slots(fam)
        groups, T = fam.table
        assert [len(range(15)[g]) for g in groups] == [len(s) for s in slots]
        n = sum(map(len, slots))
        P = _TRIDIAG_PROJ if method == "tridiag" else np.eye(15)
        assert np.array_equal(fam.read[:n], P[sum(slots, [])])
        assert np.array_equal(fam.read[n:], np.eye(15)[6:] if method == "normal-split"
                              else np.zeros((0, 15)))
        bases = [[np.eye(4)] + [_QT_STACK[s].reshape(4, 4) for s in group] for group in slots]
        products = [reduce(np.matmul, names) for names in itertools.product(*bases)]
        assert T.shape == (len(products), 16)
        for row, P in zip(T, products):
            assert np.array_equal(row.reshape(4, 4), P), method


def test_skewham_terms_anticommute():
    # The anticommutation makes any linear combination of one group's terms
    # square to a scalar, so each group is one exact rotation factor.
    rng = np.random.default_rng(65)
    for fam in FAMILY_TABLE:
        for terms in _group_terms(fam):
            c = rng.normal(size=len(terms))
            Y = sum(ci * ti for ci, ti in zip(c, terms))
            assert np.abs(Y @ Y - float(c @ c) * np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("name", ["perskew", "skewham", "imsym"])
def test_linear_gates_are_coordinate_subspaces(name):
    """The slots a gate tests (its off-support) complement exactly the null
    space of the family's defining map on su(4): the map vanishes on every
    other slot and is injective on the span of the off-support slots."""
    R4 = np.fliplr(np.eye(4))  # sigma_x (x) sigma_x, the exchange matrix
    J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    predicate, L, family_dim = {
        "perskew": (is_perskew, lambda A: A.T @ R4 + R4 @ A, 6),
        "skewham": (is_skew_hamiltonian, lambda A: A.T @ J4 - J4 @ A, 5),
        "imsym": (is_imaginary_symmetric, lambda A: A.real, 9),
    }[name]
    off = np.flatnonzero(_MASK[name])
    images = np.array([L((e @ _QT_STACK).reshape(4, 4)).ravel() for e in np.eye(15)])
    images = np.concatenate((images.real, images.imag), axis=1)
    on = np.setdiff1d(np.arange(15), off)
    assert np.abs(images[on]).max() == 0.0
    assert np.linalg.matrix_rank(images[off]) == len(off) == 15 - family_dim
    # The factor groups of a grouped row cover the slots its gate keeps.
    if _ROWS[name].groups:
        assert sorted(sum(_slots(_ROWS[name]), [])) == list(on)
    # The gate is the Frobenius norm of the dropped part.
    rng = np.random.default_rng(78)
    v = rng.normal(size=15)
    v_on = np.where(np.isin(np.arange(15), off), 0.0, v)
    X = Su4Element((v_on @ _QT_STACK).reshape(4, 4))
    assert predicate(X)
    dist = np.linalg.norm(((v - v_on) @ _QT_STACK))
    Y = Su4Element((v @ _QT_STACK).reshape(4, 4))
    assert abs(gate_distance(name, Y) - dist) <= 1e-12 * dist


# -- imaginary symmetric / bisymmetric -------------------------------------

def _imsym_element(rng):
    C = rng.uniform(-5, 5, (3, 3))
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3),
                                  C[:, 0], C[:, 1], C[:, 2],
                                  scalar=rng.uniform(-2, 2))
    return X


def test_imsym_matches_oracle():
    rng = np.random.default_rng(66)
    for _ in range(200):
        X = _imsym_element(rng)
        assert is_imaginary_symmetric(X)
        res = exp_imaginary_symmetric(X)
        _check(res.U, X.entries)


def _check_imsym_factors(Cmat):
    # The paper's three factors of e^{iC}, one per right singular direction
    # of Cmat (NumPy's eigh of Cmat^T Cmat), commute, and their product is
    # the row's e^{iC} from the eigenbasis of C; both match the oracle.
    from su4exp.expm import _interaction, _matrix
    _, V = np.linalg.eigh(Cmat.T @ Cmat)
    Fs = []
    for i in range(3):
        v = V[:, i]
        u = Cmat @ v
        s = math.sqrt(float(u @ u))
        M = 1j * mat_pure_pure(u, v)
        Fs.append(math.cos(s) * np.eye(4) + sinc(s) * M)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(Fs[i] @ Fs[j] - Fs[j] @ Fs[i]).max() < 1e-12
    prod = Fs[0] @ Fs[1] @ Fs[2]
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *Cmat.T)
    assert np.abs(prod - _matrix(*_interaction(X.coeffs[6:].tolist(), 0.0))).max() < 1e-12
    ref = expm_reference(X.entries)
    assert np.abs(prod - ref).max() < 1e-12
    assert np.abs(exp_imaginary_symmetric(X).U - ref).max() < 1e-12


def test_imsym_factors_commute():
    rng = np.random.default_rng(67)
    for _ in range(50):
        _check_imsym_factors(rng.uniform(-3, 3, (3, 3)))


@pytest.mark.parametrize("gap", [0.0, 1e-14, 1e-10, 1e-6, 1e-2, "rank-deficient"])
def test_imsym_factors_commute_near_degenerate(gap):
    # Cmat with two singular values a gap apart, or with one or two zero:
    # the right singular directions of a cluster are ill-determined, and
    # any orthonormal basis of it must give the same exponential.
    rng = np.random.default_rng(21)
    for k in range(40):
        sv = np.sort(rng.uniform(0, 3, 3))
        if gap == "rank-deficient":
            sv[:1 + k % 2] = 0.0
        else:
            sv[1] = sv[0] + gap * rng.random()
        Q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        _check_imsym_factors(Q1 @ np.diag(sv) @ Q2.T)


# Singular values that stress e^{iC}, by name; "1e-6" and "1e-9" are the
# smallest relative to the largest.  At "triple" Cmat is orthogonal and C
# has a triple eigenvalue, so eigh's basis of that eigenspace is arbitrary.
_SINGULAR_VALUES = {"rank 0": (0.0, 0.0, 0.0), "rank 1": (2.3, 0.0, 0.0),
                    "rank 2": (2.3, 0.7, 0.0), "repeated": (1.9, 1.9, 0.4),
                    "det < 0": (1.3, 0.4, 2.2), "1e-9": (2.3, 1.1, 1e-9),
                    "1e-6": (2.3, 1.1, 2.3e-6), "triple": (1.0, 1.0, 1.0)}


def _interaction_matrix(s, rng):
    """Q1 diag(s) Q2^T for a random rotation pair Q1, Q2."""
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
    return Q1 @ np.diag(s) @ Q2.T


@pytest.mark.parametrize("name", _SINGULAR_VALUES)
def test_interaction_matches_oracle_at_degenerate_singular_values(name):
    # Rank-deficient, repeated or tiny singular values of Cmat give zero,
    # repeated or clustered eigenvalues of C.  e^{i lam} is constant on each
    # eigenspace, so any orthonormal eigenbasis gives the same e^{iC}, and
    # eigh of C is backward stable: no singular value is read through its
    # square, which below sqrt(eps) sigma_max would cost more than 1e-9 at
    # ||X||_F = 1e4.
    from su4exp.expm import _interaction, _matrix
    s = _SINGULAR_VALUES[name]
    Cmat = _interaction_matrix(s, np.random.default_rng(92))
    if name == "det < 0" and np.linalg.det(Cmat) > 0:
        Cmat = -Cmat
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *Cmat.T, scalar=0.3)
    ref = expm_reference(X.entries)
    assert np.abs(_matrix(*_interaction(X.coeffs[6:].tolist(), X.scalar)) - ref).max() <= 1e-12
    assert np.abs(exp_imaginary_symmetric(X).U - ref).max() <= 1e-12
    rng = np.random.default_rng(95)
    for norm in (1e4, 1e5):
        for _ in range(6):
            C = _interaction_matrix(s, rng)
            X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *C.T, scalar=0.3)
            X = Su4Element(norm / np.linalg.norm(X.entries) * X.entries)
            ref = expm_reference(X.entries)
            # Cmat = 0 is a scalar, which the first row, tridiag, takes.
            res = exp_auto(X) if name != "rank 0" else exp_imaginary_symmetric(X)
            assert res.method == "imsym"
            assert np.linalg.norm(res.U - ref) <= 1e-9, (norm, np.linalg.norm(res.U - ref))


def test_normal_split_with_a_nonzero_interaction_matrix():
    # The family sampler draws Cmat = c u w^T with p = a u, q = b w: both
    # e^B and e^{iC} are exercised, at the sampled norm and rescaled to
    # ||X||_F = 1, 1e2 and 1e3, where the gate still admits every sample.
    from su4exp.families import sample_normal_split
    rng = np.random.default_rng(93)
    for _ in range(100):
        X = sample_normal_split(rng)
        assert np.abs(X.coeffs[6:]).max() > 0.0 and is_normal_element(X)
        assert np.abs(exp_normal_split(X).U - expm_reference(X.entries)).max() <= 1e-12
        for norm, tol in ((1.0, 1e-12), (1e2, 1e-9), (1e3, 1e-9)):
            Y = Su4Element(norm / np.linalg.norm(X.entries) * X.entries)
            res = exp_auto(Y)
            assert res.method == "normal-split", norm
            assert np.abs(res.U - expm_reference(Y.entries)).max() <= tol, norm


# The largest c = ||U - e^X||_F / (eps max(1, ||X||_F)) of the two e^{iC}
# rows in their accuracy table (CHANGES.md, 100 inputs per singular-value
# case and norm, 1 to 1e6): 10.4, at ||X||_F = 1.
_C_MAX = 10.5


@pytest.mark.parametrize("name", [*_SINGULAR_VALUES, "normal-split"])
def test_interaction_rows_hold_the_accuracy_contract(name):
    # ||U - e^X||_F <= max(1e-9, c eps ||X||_F) through exp_auto: imsym on
    # each singular-value case from ||X||_F = 1 to 1e6, and normal-split
    # with a nonzero Cmat from 1 to 1e3, where its gate admits every sample.
    from su4exp.families import sample_normal_split
    rng = np.random.default_rng(96)
    split = name == "normal-split"
    for norm in 10.0 ** np.arange(4 if split else 7):
        for _ in range(10):
            if split:
                X = sample_normal_split(rng)
            else:
                C = _interaction_matrix(_SINGULAR_VALUES[name], rng)
                if name == "det < 0" and np.linalg.det(C) > 0:
                    C = -C
                X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *C.T,
                                              scalar=rng.uniform(-2, 2))
            X = Su4Element(norm / np.linalg.norm(X.entries) * X.entries)
            # Cmat = 0 is a scalar, which the first row, tridiag, takes.
            res = exp_auto(X) if name != "rank 0" else exp_imaginary_symmetric(X)
            assert res.method == ("normal-split" if split else "imsym")
            err = np.linalg.norm(res.U - expm_reference(X.entries))
            assert err <= max(1e-9, _C_MAX * np.finfo(float).eps * norm), (norm, err)


# Each other row's largest c = ||U - e^X||_F / (eps max(1, ||X||_F)) against
# a 40-digit mpmath e^X (CHANGES.md table, 100 family samples per row and
# norm, 1 to 1e6), and the largest k with ||X||_F = 10^k at which exp_auto
# kept every sample on its row.
_ROW_C = {"tridiag": (1.46, 6), "perskew": (1.44, 6), "skewham": (1.34, 6),
          "bisym": (1.74, 6), "quad-I": (2.44, 5), "quad-II": (2.08, 5),
          "cubic-I": (1.75, 4)}
# expm_reference's own largest c against the same mpmath e^X, in that sweep.
_C_REF = 3.2


@pytest.mark.parametrize("name", _ROW_C)
def test_family_rows_hold_the_accuracy_contract(name):
    # Each family sample rescaled to ||X||_F = 1, 10, .. 10^k: exp_auto keeps
    # its row, within max(1e-9, C eps ||X||_F) of expm_reference, with C the
    # row's c plus the reference's.
    c, k = _ROW_C[name]
    rng = np.random.default_rng(97)
    for _ in range(10):
        X = FAMILIES[name][0](rng)
        for norm in 10.0 ** np.arange(k + 1):
            Y = Su4Element(norm / np.linalg.norm(X.entries) * X.entries)
            res = exp_auto(Y)
            assert res.method == name, norm
            err = np.linalg.norm(res.U - expm_reference(Y.entries))
            assert err <= max(1e-9, (c + _C_REF) * np.finfo(float).eps * norm), (norm, err)


def test_interaction_at_large_norm():
    rng = np.random.default_rng(94)
    for _ in range(20):
        Cmat = rng.normal(size=(3, 3))
        Cmat *= 1e3 / np.linalg.norm(Cmat)
        X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *Cmat.T)
        assert np.abs(exp_imaginary_symmetric(X).U - expm_reference(X.entries)).max() <= 1e-9


def test_bisym_matches_oracle_all_block_positions():
    rng = np.random.default_rng(68)
    for i0 in range(3):
        for j0 in range(3):
            for _ in range(20):
                C = rng.uniform(-4, 4, (3, 3))
                C[i0, :] = 0.0
                C[:, j0] = 0.0
                C[i0, j0] = rng.uniform(-4, 4)
                X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3),
                                              C[:, 0], C[:, 1], C[:, 2])
                assert is_bisymmetric(X)
                res = exp_bisymmetric_fast(X)
                assert res.method == "bisym"
                _check(res.U, X.entries)


def test_bisym_degenerate_angle():
    # Diagonal interaction matrix: b = c = 0, so each 2x2 rotation is about
    # M11 alone.
    C = np.diag([2.0, -1.0, 0.5])
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3),
                                  C[:, 0], C[:, 1], C[:, 2])
    res = exp_bisymmetric_fast(X)
    _check(res.U, X.entries, tol=1e-12)


def _split_element(k, e, a, b, c, d, scalar=0.0):
    """Bisymmetric element on split k = 3 i0 + j0: e at Cmat[i0, j0] and the
    2x2 block (a, b; c, d) on the other rows and columns."""
    i0, j0 = divmod(k, 3)
    rows = [i for i in range(3) if i != i0]
    cols = [j for j in range(3) if j != j0]
    C = np.zeros((3, 3))
    C[i0, j0] = e
    C[np.ix_(rows, cols)] = [[a, b], [c, d]]
    return Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *C.T, scalar=scalar)


def test_split_tables_match_their_definition():
    # The slot table against a per-split loop, and the identities the
    # two-rotation formula rests on.
    from su4exp.expm import _SPLIT_ROWS, _SPLIT_SIGN, _SPLIT_SLOTS
    from su4exp.model import _QT_FLAT
    eye = np.eye(4)
    for k in range(9):
        i0, j0 = divmod(k, 3)
        off = [(a == i0) != (b == j0) for a in range(3) for b in range(3)]
        assert list(_SPLIT_OFF[k]) == [1.0] * 6 + off
        kept = [6 + 3 * a + b for a in range(3) for b in range(3) if not off[3 * a + b]]
        assert list(_SPLIT_SLOTS[k]) == [6 + k] + [s for s in kept if s != 6 + k]
        Me, M11, M12, M21, M22 = (_QT_FLAT[s].reshape(4, 4) for s in _SPLIT_SLOTS[k])
        P = M11 @ M22
        assert _SPLIT_SIGN[k] in (1.0, -1.0)
        assert np.array_equal(P, _SPLIT_SIGN[k] * Me) and np.array_equal(P @ P, eye)
        assert np.array_equal(M22, M11 @ P) and np.array_equal(M21, -M12 @ P)
        assert np.array_equal(M11 @ M12, -M12 @ M11)
        rows = np.stack((eye, Me, M11, M12, M21, M22)).reshape(6, 16)
        assert np.array_equal(_SPLIT_ROWS[k], rows)


@pytest.mark.parametrize("k", range(9))
def test_bisym_degenerate_rotations(k):
    # lambda_+ = 0 (d = -a, c = b), lambda_- = 0 (d = a, c = -b), both zero
    # with e != 0, and e = 0.
    cases = [(1.3, 0.7, -0.4, 0.4, -0.7), (1.3, 0.7, -0.4, -0.4, 0.7),
             (-2.1, 0.0, 0.0, 0.0, 0.0), (0.0, 0.7, -0.4, 1.1, 0.3)]
    for args in cases:
        X = _split_element(k, *args, scalar=0.3)
        res = exp_bisymmetric_fast(X)
        assert res.method == "bisym"
        assert np.abs(res.U - expm_reference(X.entries)).max() <= 1e-12


def test_bisym_diagonal_ties_take_the_first_split():
    # Splits 0, 4 and 8 all keep a diagonal Cmat; the first is taken, and
    # any of them gives e^X.
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *np.diag([2.0, -1.0, 0.5]))
    d2 = _SPLIT_OFF @ (X.coeffs * X.coeffs)
    assert list(np.flatnonzero(d2 == 0.0)) == [0, 4, 8] and d2.argmin() == 0
    assert np.abs(exp_bisymmetric_fast(X).U - expm_reference(X.entries)).max() <= 1e-12


def test_bisym_across_scales():
    # ||X||_F from 1e-9 to 1e3, every split, with a scalar part.
    rng = np.random.default_rng(85)
    for norm in 10.0 ** np.arange(-9.0, 4.0):
        for k in range(9):
            args = rng.normal(size=5)
            X = _split_element(k, *args)
            X = Su4Element((norm / np.linalg.norm(X.entries)) * X.entries + 0.7j * np.eye(4))
            err = np.abs(exp_bisymmetric_fast(X).U - expm_reference(X.entries)).max()
            assert err <= 1e-12, (norm, k, err)


def test_bisym_agrees_with_the_normal_split():
    # The normal-split route (3x3 spectral factorization, and e^B = I for
    # p = q = 0) on the same bisymmetric inputs; _bisym takes the five slots
    # of the split the gate finds, each formula its read-out and b.
    bisym, normal = _ROWS["bisym"], _ROWS["normal-split"]
    rng = np.random.default_rng(86)
    for k in range(9):
        for _ in range(20):
            v = _split_element(k, *rng.uniform(-4, 4, 5)).coeffs
            b = rng.uniform(-3, 3)
            U = _evaluate(bisym, (bisym.read[k] @ v).tolist(), b, k)
            V = _evaluate(normal, (normal.read @ v).tolist(), b)
            assert np.linalg.norm(U - V) <= 1e-13 * np.linalg.norm(V)


def test_bisym_rejects_full_interaction():
    rng = np.random.default_rng(69)
    C = rng.uniform(1, 2, (3, 3))
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3),
                                  C[:, 0], C[:, 1], C[:, 2])
    with pytest.raises(StructureError):
        exp_bisymmetric_fast(X)


# -- commuting real/imaginary split ----------------------------------------

def test_normal_split_matches_oracle():
    rng = np.random.default_rng(70)
    sampler = FAMILIES["normal-split"][0]
    for _ in range(200):
        X = sampler(rng)
        assert is_normal_element(X)
        res = exp_normal_split(X)
        _check(res.U, X.entries)


def test_normal_split_rejects_noncommuting():
    X = Su4Element.from_quintuple([1.0, 0, 0], [0, 0, 0],
                                  [0, 1.0, 0], [1.0, 0, 0], [0, 0, 0])
    if not is_normal_element(X):
        with pytest.raises(StructureError):
            exp_normal_split(X)


# -- dispatcher ------------------------------------------------------------

def test_exp_auto_intended_methods():
    rng = np.random.default_rng(71)
    expected = {
        "tridiag": "tridiag", "perskew": "perskew", "skewham": "skewham",
        "imsym": "imsym", "bisym": "bisym", "normal-split": "normal-split",
        "quad-I": "quad-I", "quad-II": "quad-II", "cubic-I": "cubic-I",
    }
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(20):
            X = sampler(rng)
            res = exp_auto(X)
            assert res.method == expected[name], (name, res.method)
            _check(res.U, X.entries, tol=1e-9)


def test_exp_auto_magic_path():
    V = MAGIC_BASIS
    T = SymTriDiag(1.0, 2.0, 3.0).matrix()
    X = Su4Element(V.conj().T @ T @ V)
    res = exp_auto(X)
    assert res.method == "magic"
    _check(res.U, X.entries, tol=1e-12)


def test_exp_auto_oracle_fallback():
    rng = np.random.default_rng(72)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = Su4Element(0.5 * (A - A.conj().T))
    res = exp_auto(X)
    assert res.method == "oracle"
    _check(res.U, X.entries, tol=1e-12)


def test_residual_is_the_unitarity_defect_on_first_read(monkeypatch):
    # ExpResult computes ||U* U - I||_F when residual is read, not before,
    # on every path: each family's closed form and exp_auto, the magic and
    # oracle fallbacks, exp_tridiag and the demo propagators.
    from su4exp import demos, expm

    calls = []
    unitarity = expm._unitarity
    monkeypatch.setattr(expm, "_unitarity", lambda U: calls.append(1) or unitarity(U))
    rng = np.random.default_rng(89)
    results = []
    for name, (sampler, closed) in FAMILIES.items():
        for _ in range(5):
            X = sampler(rng)
            results += [(name, closed(X)), (name, exp_auto(X))]
    V, T = MAGIC_BASIS, SymTriDiag(1.0, 2.0, 3.0).matrix()
    results.append(("magic", exp_auto(Su4Element(V.conj().T @ T @ V))))
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    results.append(("oracle", exp_auto(Su4Element(0.5 * (A - A.conj().T)))))
    results.append(("tridiag", exp_tridiag(SymTriDiag(0.3, -1.2, 2.5))))
    results += [("rabi", demos.rabi_propagator(demos.RabiParams(0.3, 0.4, 0.5, 0.2, 1.5))),
                ("josephson", demos.josephson_propagator(demos.JosephsonParams())),
                ("jcoupling", demos.scalar_coupling_propagator(
                    demos.ScalarCouplingParams(1.0, 0.2, 0.3, 0.4, 0.5, 0.6)))]
    assert {"magic", "oracle"} <= {res.method for _, res in results}
    assert calls == []
    for label, res in results:
        r = res.residual
        assert calls == [1], label
        del calls[:]
        assert r == unitarity(res.U) and r <= 1e-12, (label, r)


def _perturbed(X, rng, eps):
    """X plus anti-Hermitian noise of relative size eps."""
    S = X.entries
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + H.conj().T
    return Su4Element(S + 1j * H * (eps * np.linalg.norm(S) / np.linalg.norm(H)))


def _near_quad_I(rng, eps=1e-8):
    """A quadratic-I sample plus anti-Hermitian noise of relative size eps."""
    return _perturbed(FAMILIES["quad-I"][0](rng), rng, eps)


def test_exp_auto_falls_through_a_rejected_min_poly_row():
    # classify tests the same first-order distance as the quadratic-I
    # formula's own check, so it no longer names quadratic-I for an input
    # the formula rejects; exp_auto moves on to a later stage.
    rng = np.random.default_rng(77)
    for _ in range(5):
        X = _near_quad_I(rng)
        assert classify(X).tag != "quadratic-I"
        with pytest.raises(StructureError):
            FAMILIES["quad-I"][1](X)
        res = exp_auto(X)
        assert res.method in ("magic", "oracle")
        assert np.linalg.norm(res.U - expm_reference(X.entries)) <= 1e-9


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6])
def test_exp_auto_near_family_boundaries(eps):
    # Every gate admits only inputs whose formula error stays within its
    # tolerance, so a perturbed sample either passes a gate and is still
    # accurate or falls through to a later stage; it never raises.
    rng = np.random.default_rng(79)
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(10):
            X = _perturbed(sampler(rng), rng, eps)
            res = exp_auto(X)
            err = np.linalg.norm(res.U - expm_reference(X.entries))
            assert err <= 1e-9, (name, res.method, err)


_MIN_POLY_ROWS = {fam.label: fam.method for fam in FAMILY_TABLE if fam.read is None}


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-6])
def test_classify_names_only_rows_that_accept(eps):
    # Whenever classify names a minimal-polynomial shape, that row's closed
    # form accepts the input and is within 1e-9 of the oracle.
    rng = np.random.default_rng(79)
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(10):
            X = _perturbed(sampler(rng), rng, eps)
            method = _MIN_POLY_ROWS.get(classify(X).tag)
            if method is not None:
                U = FAMILIES[method][1](X).U
                assert np.linalg.norm(U - expm_reference(X.entries)) <= 1e-9, (name, method)


def test_exp_auto_determinant_phase():
    # det e^X = e^{tr X} = e^{4ib} for traceless-plus-scalar input.
    rng = np.random.default_rng(73)
    for name, (sampler, _) in FAMILIES.items():
        X = sampler(rng)
        b = X.scalar
        U = exp_auto(X).U
        assert abs(np.linalg.det(U) - cmath.exp(4j * b)) < 1e-9


@pytest.mark.parametrize("name", FAMILIES)
def test_family_closed_form_includes_scalar_phase(name):
    # Each formula applies e^{ib} itself: the family's closed form and
    # exp_auto at b are within 1e-9 of the oracle, and within 1e-13 of e^{ib}
    # times their own result at b = 0.  The b values run inside the test, so
    # its ids stay one per family.
    sampler, closed = FAMILIES[name]
    paths = {"closed_form": closed, "exp_auto": exp_auto}
    rng = np.random.default_rng(75)
    for _ in range(5):
        A = sampler(rng).traceless
        U0 = {path: f(Su4Element(A)).U for path, f in paths.items()}
        for b in (0.7, -2.9, 40.0):
            X = Su4Element(A + 1j * b * np.eye(4))
            ref = expm_reference(X.entries)
            for path, f in paths.items():
                U = f(X).U
                assert np.linalg.norm(U - ref) <= 1e-9, (path, b)
                assert np.abs(U - cmath.exp(1j * b) * U0[path]).max() <= 1e-13, (path, b)


@pytest.mark.parametrize("b", [0.0, 0.7])
@pytest.mark.parametrize("method", ["quad-I", "quad-II", "cubic-I"])
def test_min_poly_rows_take_a_zero_traceless_part(method, b):
    # X0 = 0 satisfies every minimal-polynomial shape with zero parameters,
    # and each formula then gives e^{ib} I; classify still tags it other.
    X = Su4Element(1j * b * np.eye(4))
    assert gate_distance(method, X) == 0.0
    assert np.abs(closed_form(method, X).U - cmath.exp(1j * b) * np.eye(4)).max() <= 1e-15
    assert classify(X).tag == "other"


@pytest.mark.parametrize("b", [0.0, 0.7, -2.9])
def test_exp_auto_min_poly_rows_fold_in_the_scalar_phase(b):
    # The minimal-polynomial rows put e^{ib} into their coefficients on
    # [I; basis], as the structured rows do.
    rng = np.random.default_rng(95)
    for method in _MIN_POLY_ROWS.values():
        for _ in range(10):
            X = Su4Element(FAMILIES[method][0](rng).traceless + 1j * b * np.eye(4))
            res = exp_auto(X)
            assert res.method == method
            assert np.linalg.norm(res.U - expm_reference(X.entries)) <= 1e-9, (method, b)


def _within_gate(method):
    return lambda X: gate_distance(method, X) <= STRUCTURE_TOL


# Family -> (its predicate, its public closed form).  exp_tridiag takes
# SymTriDiag parameters, so the tridiagonal row is reached via FAMILIES; a
# minimal-polynomial row's predicate is its gate distance against the tol.
_GATED = {
    "tridiag": (is_tridiagonal_type, FAMILIES["tridiag"][1]),
    "perskew": (is_perskew, exp_perskew),
    "skewham": (is_skew_hamiltonian, exp_skewham),
    "imsym": (is_imaginary_symmetric, exp_imaginary_symmetric),
    "bisym": (is_bisymmetric, exp_bisymmetric_fast),
    "normal-split": (is_normal_element, exp_normal_split),
    "quad-I": (_within_gate("quad-I"), exp_quadratic_I),
    "quad-II": (_within_gate("quad-II"), exp_quadratic_II),
    "cubic-I": (_within_gate("cubic-I"), exp_cubic_I),
}


@pytest.mark.parametrize("name", _GATED)
def test_closed_form_raises_exactly_off_its_predicate(name):
    predicate, closed = _GATED[name]
    rng = np.random.default_rng(76)
    verdicts = set()
    for sampler, _ in FAMILIES.values():
        for _ in range(3):
            X = sampler(rng)
            verdicts.add(predicate(X))
            if predicate(X):
                assert closed(X).method == name
            else:
                with pytest.raises(StructureError):
                    closed(X)
    assert verdicts == {True, False}


_R4 = np.fliplr(np.eye(4))  # sigma_x (x) sigma_x, the exchange matrix
_J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def _gate_distance(name, X):
    """What a structured row's gate bounds, computed from X's entries.

    For a linear family, ||X0 - X0_on||_F to the nearest member X0_on, the
    fixed part of the family's defining involution or its explicit
    parameters; the bisymmetric member keeps the split of the family
    sampler, the 1x1 block at Cmat[2, 2].  For the normal split, the
    first-order Trotter bound 1/2 ||[B, C]||_F.  For a minimal-polynomial
    row, the distance ``classify`` tests.
    """
    A = X.traceless
    if name in _MIN_POLY:
        # The shape's residual over its root spread, parameters from charpoly.
        cp = charpoly(X)
        if name == "cubic-I":
            return 2.0 * np.linalg.norm(A @ A @ A + cp.mu * A) / cp.mu
        beta = 0.0 if name == "quad-I" else -3.0 * cp.nu / (4.0 * cp.mu)
        R = A @ A + 2.0 * beta * A + cp.mu / 2.0 * np.eye(4)
        return np.linalg.norm(R) / math.sqrt(cp.mu / 2.0 + abs(beta) ** 2)
    if name == "normal-split":
        B, C = A.real, A.imag
        return 0.5 * np.linalg.norm(B @ C - C @ B)
    if name == "tridiag":
        on = SymTriDiag(*((A[k, k + 1] + A[k + 1, k]).imag / 2 for k in range(3))).matrix()
    elif name == "perskew":
        on = (A - _R4 @ A.T @ _R4) / 2
    elif name == "skewham":
        on = (A - _J4 @ A.T @ _J4) / 2
    elif name == "imsym":
        on = (A + A.T) / 2
    else:
        C = X.quintuple.Cmat.copy()
        C[2, :2] = C[:2, 2] = 0.0
        on = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *C.T).traceless
    return np.linalg.norm(A - on)


def _noise(rng):
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (H - H.conj().T) / np.linalg.norm(H - H.conj().T)


@pytest.mark.parametrize("name", _GATED)
def test_gate_is_the_distance_its_formula_drops(name):
    rng = np.random.default_rng(80)
    for _ in range(20):
        X = FAMILIES[name][0](rng)
        Y = Su4Element(X.entries + 0.1 * _noise(rng))
        d = _gate_distance(name, Y)
        assert d > 1e-3
        assert abs(gate_distance(name, Y) - d) <= 1e-12 * d


_MIN_POLY = tuple(_MIN_POLY_ROWS.values())


@pytest.mark.parametrize("name", _GATED)
def test_gate_tolerance_bounds_the_formula_error(name):
    # A sample moved off its family until the gate's distance sits just
    # under tau passes the gate at tau, and its row's formula, on what the
    # gate found, stays within tau.
    from su4exp.expm import _ROWS, _gate, _unitary
    tau = 1e-6
    rng = np.random.default_rng(81)
    for _ in range(20):
        X = FAMILIES[name][0](rng)
        D = _noise(rng)
        # Linear in the step size, up to a second-order commutator term.
        step = tau * tau / _gate_distance(name, Su4Element(X.entries + tau * D))
        Y = Su4Element(X.entries + 0.999 * step * D)
        assert 0.99 * tau < _gate_distance(name, Y) < tau
        d, arg = _gate(name, Y)
        assert d <= tau
        U = _unitary(_ROWS[name], Y, arg)
        assert np.linalg.norm(U - expm_reference(Y.entries)) <= tau


def test_time_scaling_families():
    rng = np.random.default_rng(74)
    for name, (sampler, _) in FAMILIES.items():
        X = sampler(rng)
        for t in (0.1, 1.0, 10.0):
            Y = Su4Element(t * X.entries)
            res = exp_auto(Y)
            _check(res.U, Y.entries, tol=1e-9)


def test_is_tridiagonal_predicate():
    assert is_tridiagonal_type(Su4Element(SymTriDiag(1, 2, 3).matrix()))
    assert not is_tridiagonal_type(Su4Element(1j * pauli_kron("x", "x")))


# -- the stacked gate distances ---------------------------------------------

def _gate_samples():
    """Random u(4) elements from 1e-3 to 1e3 in norm, and five samples of
    every family, each also with a scalar part."""
    rng = np.random.default_rng(82)
    out = []
    for norm in 10.0 ** np.linspace(-3.0, 3.0, 25):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out.append(Su4Element(norm * (A - A.conj().T) / np.linalg.norm(A - A.conj().T)))
    for sampler, _ in FAMILIES.values():
        for _ in range(5):
            X = sampler(rng)
            out += [X, Su4Element(X.entries + 0.7j * np.eye(4))]
    return out


def _reference_distance(method, X):
    """A gate distance by its definition: the projector residual of a linear
    family, the nearest bisymmetric split, or the Trotter bound 2||K||_F,
    K = [p]x Cmat - Cmat [q]x."""
    v = X.coeffs
    if method == "bisym":
        return min(2.0 * math.sqrt(float(row @ (v * v))) for row in _SPLIT_OFF)
    if method == "normal-split":
        d = X.quintuple
        return 2.0 * float(np.linalg.norm(cross_matrix(d.p) @ d.Cmat - d.Cmat @ cross_matrix(d.q)))
    P = _TRIDIAG_PROJ if method == "tridiag" else np.diag(1.0 - _MASK[method])
    return 2.0 * float(np.linalg.norm(v - P @ v))


def test_gate_distances_match_their_definitions():
    # Relative to the distance, or to ||X0||_F = 2||v|| for an exact member,
    # whose distance is rounding.
    methods = [fam.method for fam in FAMILY_TABLE if fam.read is not None]
    for X in _gate_samples():
        scale = 2.0 * float(np.linalg.norm(X.coeffs))
        for method in methods:
            d = gate_distance(method, X)
            ref = _reference_distance(method, X)
            assert abs(d - ref) <= 1e-14 * max(ref, scale), (method, d, ref)


def test_every_element_forms_the_shared_product_at_most_once(monkeypatch):
    # A tridiagonal input never forms the shared product
    # (``model.quadratic_forms``): its gate is the residual ||Rv||.  Every
    # other row forms it exactly once per element, and the drop gates, the
    # normal gate, classify, charpoly, is_normal_element and the cubic
    # formula all read that one formation.
    import su4exp.model as model

    calls = []
    monkeypatch.setattr(model, "quadratic_forms",
                        lambda v: calls.append(1) or quadratic_forms(v))
    methods = [fam.method for fam in FAMILY_TABLE if fam.read is not None]
    rng = np.random.default_rng(90)
    X = FAMILIES["bisym"][0](rng)
    for method in methods:
        del calls[:]
        gate_distance(method, Su4Element._from_coeffs(X.coeffs, X.scalar))
        assert len(calls) == (method != "tridiag"), method
    T = FAMILIES["tridiag"][0](rng)
    del calls[:]
    assert exp_auto(T).method == "tridiag" and is_tridiagonal_type(T)
    assert closed_form("tridiag", T).method == "tridiag"
    assert calls == []
    for fam in FAMILY_TABLE[1:]:
        Y = FAMILIES[fam.method][0](rng)
        assert exp_auto(Y).method == fam.method
        assert len(calls) == 1, fam.method
        for method in methods:
            gate_distance(method, Y)
        classify(Y), charpoly(Y), is_normal_element(Y), closed_form(fam.method, Y)
        assert len(calls) == 1, fam.method
        del calls[:]
    # Off every row: the input and its two magic conjugates, once each.
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert exp_auto(Su4Element(A - A.conj().T)).method == "oracle"
    assert len(calls) == 3


def test_exp_auto_and_classify_take_a_tol_in_0_inf():
    # On the CI's seeded generic matrix, tol = inf would take the tridiagonal
    # row, and nan or a negative tol the oracle: each raises InputError, and
    # so does a tol that is not a real number, or an array of two.
    # tol = 0 is valid: only a distance of exactly 0 passes.
    z = np.random.default_rng(1).normal(size=(4, 4, 2)) @ (1, 1j)
    X = Su4Element(0.5 * (z - z.conj().T))
    for tol in (math.inf, math.nan, -1.0, -math.inf, "a", None, 1j, np.array([1e-10, 1e-10])):
        with pytest.raises(InputError, match="tol must be finite and >= 0"):
            exp_auto(X, tol)
        with pytest.raises(InputError, match="tol must be finite and >= 0"):
            classify(X, tol)
    assert exp_auto(X, 0.0).method == "oracle" and classify(X, 0.0).tag == "other"
    assert exp_auto(Su4Element(np.zeros((4, 4))), 0.0).method == "tridiag"


@pytest.mark.parametrize("name", [fam.method for fam in FAMILY_TABLE if fam.read is not None])
def test_predicate_is_its_gate_distance_against_tol(name):
    # The predicates compare with STRUCTURE_TOL; dispatch at other
    # tolerances is test_structured_row_takes_the_first_row_within_tol.
    predicate, _ = _GATED[name]
    for X in _gate_samples():
        assert predicate(X) == (gate_distance(name, X) <= STRUCTURE_TOL)


def test_structured_row_takes_the_first_row_within_tol():
    # At tol = d and d(1 +- 1e-12) for each row's distance d, dispatch takes
    # the first row whose gate_distance is at most tol, with the nearest
    # bisymmetric split, and returns that row's gate_distance.
    from su4exp.expm import _structured_row
    methods = [fam.method for fam in FAMILY_TABLE if fam.read is not None]
    for X in _gate_samples():
        dists = [gate_distance(m, X) for m in methods]
        split = int((_SPLIT_OFF @ (X.coeffs * X.coeffs)).argmin())
        for d in dists:
            for tol in (d, d * (1 + 1e-12), d * (1 - 1e-12)):
                fam, arg, dist = _structured_row(X, tol)
                first = next((m for m, dm in zip(methods, dists) if dm <= tol), None)
                assert (fam and fam.method) == first
                assert arg == (split if first == "bisym" else None)
                if fam is not None:
                    assert dist == gate_distance(fam.method, X)


@pytest.mark.parametrize("name", _GATED)
def test_structure_error_carries_the_gate_distance(name):
    _, closed = _GATED[name]
    rng = np.random.default_rng(83)
    raised = 0
    for sampler, _ in FAMILIES.values():
        X = sampler(rng)
        try:
            closed(X)
        except StructureError as err:
            raised += 1
            assert math.isfinite(err.residual) and err.residual > STRUCTURE_TOL
            assert err.residual == gate_distance(name, X)
    assert raised > 0


@pytest.mark.parametrize("name", _MIN_POLY)
def test_min_poly_structure_error_carries_its_shape_distance(name):
    # A minimal-polynomial row that classify does not name raises with its
    # own shape's distance, here recomputed from charpoly.
    _, closed = _GATED[name]
    rng = np.random.default_rng(88)
    raised = 0
    for sampler, _ in FAMILIES.values():
        X = sampler(rng)
        try:
            closed(X)
        except StructureError as err:
            raised += 1
            ref = _gate_distance(name, X)
            assert math.isfinite(err.residual)
            assert abs(err.residual - ref) <= 1e-12 * max(ref, np.linalg.norm(X.traceless))
            assert err.residual == gate_distance(name, X)
    assert raised > 0


@pytest.mark.parametrize("name", _MIN_POLY)
def test_min_poly_wrapper_reads_its_shape_off_the_element(name):
    # The public wrapper takes the element alone, scalar part included, and
    # returns its row's tag; off its shape it raises with the row's distance.
    _, closed = _GATED[name]
    rng = np.random.default_rng(96)
    X = Su4Element(FAMILIES[name][0](rng).traceless + 0.7j * np.eye(4))
    res = closed(X)
    assert res.method == name
    assert np.linalg.norm(res.U - expm_reference(X.entries)) <= 1e-9
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Y = Su4Element(0.5 * (A - A.conj().T))
    with pytest.raises(StructureError) as err:
        closed(Y)
    assert err.value.residual == gate_distance(name, Y) > STRUCTURE_TOL


def test_exp_auto_builds_no_decomposition_on_structured_samples(monkeypatch):
    import su4exp.model as model

    built = []

    def counting(new):
        def counted(cls, *args, **kwargs):
            built.append(cls.__name__)
            return new(cls, *args, **kwargs)
        return counted

    for cls in (model.PauliCoeffs, model.QuintupleDecomp):
        monkeypatch.setattr(cls, "__new__", counting(cls.__new__))
    rng = np.random.default_rng(84)
    samples = [sampler(rng) for sampler, _ in FAMILIES.values() for _ in range(10)]
    samples += [Su4Element(X.entries + 0.7j * np.eye(4)) for X in samples]
    del built[:]  # the samplers may build a quintuple to construct an element
    methods = {exp_auto(X).method for X in samples}
    assert methods == set(FAMILIES) and built == []
    assert samples[0].pauli is samples[0].pauli and built == ["PauliCoeffs"]


@pytest.mark.parametrize("method", [fam.method for fam in FAMILY_TABLE])
def test_closed_form_accepts_iff_its_gate_distance_is_within_tol(method):
    # One rule for every row.  A quadratic-I sample has nu = 0, so the
    # quadratic-II shape is its own with beta = 0, at the same distance.
    rng = np.random.default_rng(92)
    accepted = set()
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(5):
            X = Su4Element(sampler(rng).entries + 0.7j * np.eye(4))
            if gate_distance(method, X) <= STRUCTURE_TOL:
                accepted.add(name)
                U = closed_form(method, X).U
                assert np.linalg.norm(U - expm_reference(X.entries)) <= 1e-12
            else:
                with pytest.raises(StructureError):
                    closed_form(method, X)
    assert method in accepted
    assert method != "quad-II" or "quad-I" in accepted


@pytest.mark.parametrize("name", FAMILIES)
def test_exp_auto_rejects_a_norm_past_the_oracle_range(name):
    # At ||X||_F = 1e160 no digit of e^X is determined, so exp_auto raises
    # InputError before any gate, whatever the family: an exact member
    # would otherwise pass its gate and overflow in its formula.
    X = FAMILIES[name][0](np.random.default_rng(94))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="past 1/eps"):
            exp_auto(Su4Element(1e160 * X.entries / np.linalg.norm(X.entries)))


def test_every_row_rejects_a_huge_norm():
    # Past the range rule of exp_auto (eps 2||X||_F >= 1), every row raises
    # InputError before its gate, with no overflow warning: a dense input
    # at ||X||_F = 1e160, and each family's own sample at 1e17, which its
    # gate would pass.
    rng = np.random.default_rng(93)
    inputs = []
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        inputs.append(Su4Element(1e160 * (A - A.conj().T) / np.linalg.norm(A - A.conj().T)))
    for sampler, _ in FAMILIES.values():
        A = sampler(rng).entries
        inputs.append(Su4Element(1e17 / np.linalg.norm(A) * A))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X in inputs:
            for fam in FAMILY_TABLE:
                with pytest.raises(InputError, match="no determined digit"):
                    closed_form(fam.method, X)


def test_every_gate_shares_the_range_of_classify():
    # Past ||v|| = classify._NORM_MAX every gate distance is inf, before any
    # product and so with no overflow warning, and every predicate is False;
    # is_normal_type raises InputError, as charpoly does.  Just below the
    # bound every distance is finite.
    u = np.random.default_rng(94).normal(size=15)
    u /= np.linalg.norm(u)
    ones = np.full(15, 15 ** -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (np.full(15, 1e160), _NORM_MAX * ones, 1.001 * _NORM_MAX * u):
            X = Su4Element._from_coeffs(v)
            for fam in FAMILY_TABLE:
                assert gate_distance(fam.method, X) == math.inf, fam.method
            for predicate, _ in _GATED.values():
                assert not predicate(X)
            with pytest.raises(InputError, match="overflows"):
                is_normal_type(X)
        for v in (0.999 * _NORM_MAX * ones, 0.999 * _NORM_MAX * u):
            X = Su4Element._from_coeffs(v)
            for fam in FAMILY_TABLE:
                assert math.isfinite(gate_distance(fam.method, X)), fam.method
