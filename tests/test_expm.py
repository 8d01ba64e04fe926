"""Closed-form exponentials: every structured family and every
minimal-polynomial formula is checked against the series reference, plus the
factorization identities the formulas rest on (commuting factors, scalar
squares of anticommuting sums)."""

import cmath
import math

import numpy as np
import pytest

from su4exp.classify import charpoly, classify, is_normal_type
from su4exp.errors import InputError, StructureError
from su4exp.expm import (
    _PROJECTOR,
    _SPLIT_OFF,
    FAMILY_TABLE,
    STRUCTURE_TOL,
    SymTriDiag,
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
    gate_distances,
    is_bisymmetric,
    is_imaginary_symmetric,
    is_normal_element,
    is_perskew,
    is_skew_hamiltonian,
    is_tridiagonal_type,
    sinc,
)
from su4exp.families import FAMILIES
from su4exp.model import _QT_STACK, MAGIC_BASIS, Su4Element, commutator_coeffs
from su4exp.oracle import expm_reference
from su4exp.qtensor import pauli_kron


def _check(U, X, tol=1e-10):
    assert np.abs(U.conj().T @ U - np.eye(4)).max() < tol
    assert np.abs(U - expm_reference(X)).max() < tol


# -- scalar helpers --------------------------------------------------------

def test_sinc_series_matches_exact():
    for c in (1e-9, 1e-5, 9.9e-5, 1.01e-4, 0.5, 2.0, 1e-5 + 1e-5j):
        exact = cmath.sin(c) / c
        assert abs(sinc(c) - exact) < 1e-15 * max(1.0, abs(exact))
    assert sinc(0.0) == 1.0


def test_cosm1_series_matches_exact():
    # 2 sin^2(c/2) / c^2 is a cancellation-free reference on the real axis.
    for c in (1e-9, 1e-5, 9.9e-5, 1.01e-4, 9.9e-3, 1.01e-2, 0.5, 2.0):
        exact = 2.0 * math.sin(c / 2.0) ** 2 / (c * c)
        # the direct branch just above the crossover keeps ~12 digits
        assert abs(cosm1_over_c2(c) - exact) < 1e-12
    assert cosm1_over_c2(0.0) == 0.5


# -- minimal-polynomial formulas -------------------------------------------

def test_quadratic_I_diagonal():
    X = 1j * np.diag([1.0, 1.0, -1.0, -1.0])
    U = exp_quadratic_I(X, 1.0)
    _check(U, X, tol=1e-13)
    assert np.abs(U - np.diag(np.exp(np.diag(X)))).max() < 1e-13


def test_quadratic_I_rejects_wrong_structure():
    with pytest.raises(StructureError):
        exp_quadratic_I(1j * np.diag([1.0, 2.0, -1.0, -2.0]), 1.0)


def test_quadratic_II_shifted_rotation():
    X = 1j * np.diag([1.0, 1.0, 1.0, -3.0])
    # (x - i)(x + 3i) = x^2 + 2ix + 3
    U = exp_quadratic_II(X, 1j, 3.0)
    _check(U, X, tol=1e-13)
    with pytest.raises(StructureError):
        exp_quadratic_II(1j * np.diag([1.0, 2.0, -1.0, -2.0]), 1j, 3.0)
    with pytest.raises(ValueError):
        exp_quadratic_II(1j * np.diag([1.0, 1.0, -1.0, -1.0]), 0.0, 1.0)


def test_cubic_I_rotation_formula():
    X = 1j * np.diag([0.0, 0.0, 2.0, -2.0])
    U = exp_cubic_I(X, 4.0)
    _check(U, X, tol=1e-13)
    with pytest.raises(StructureError):
        exp_cubic_I(1j * np.diag([1.0, 2.0, -1.0, -2.0]), 4.0)


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
    from su4exp.model import mat_pure_pure
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tridiag_rejects_non_finite(bad):
    with pytest.raises(InputError):
        exp_tridiag(SymTriDiag(bad, 1.0, 2.0))


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
    off = np.flatnonzero(np.diag(_PROJECTOR[name]) == 0)
    images = np.array([L((e @ _QT_STACK).reshape(4, 4)).ravel() for e in np.eye(15)])
    images = np.concatenate((images.real, images.imag), axis=1)
    on = np.setdiff1d(np.arange(15), off)
    assert np.abs(images[on]).max() == 0.0
    assert np.linalg.matrix_rank(images[off]) == len(off) == 15 - family_dim
    # The gate is the Frobenius norm of the dropped part.
    rng = np.random.default_rng(78)
    v = rng.normal(size=15)
    v_on = np.where(np.isin(np.arange(15), off), 0.0, v)
    X = Su4Element((v_on @ _QT_STACK).reshape(4, 4))
    assert predicate(X)
    dist = np.linalg.norm(((v - v_on) @ _QT_STACK))
    Y = Su4Element((v @ _QT_STACK).reshape(4, 4))
    assert predicate(Y, tol=dist * (1 + 1e-12)) and not predicate(Y, tol=dist * (1 - 1e-12))


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
    # The factors of e^{iC} from NumPy's eigh of Cmat^T Cmat commute, their
    # product is the closed form's, and both match the oracle.
    from su4exp.expm import _interaction_rows, _rotations
    from su4exp.model import mat_pure_pure
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
    assert np.abs(prod - _rotations(_interaction_rows(Cmat, V))).max() < 1e-12
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3), *Cmat.T)
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
    # The imaginary-symmetric route (3x3 spectral factorization) on the same
    # bisymmetric inputs; _bisym takes the split the gate finds.
    from su4exp.expm import _bisym, _normal_split
    rng = np.random.default_rng(86)
    empty = np.zeros((0, 15))
    for k in range(9):
        for _ in range(20):
            X = _split_element(k, *rng.uniform(-4, 4, 5))
            U, V = _bisym(X, k), _normal_split(X, empty)
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


def test_residual_is_the_unitarity_defect_on_first_read():
    # ExpResult computes ||U* U - I||_F when residual is first read, on every
    # path: each family's closed form and exp_auto, the magic and oracle
    # fallbacks, exp_tridiag and the demo propagators.
    from su4exp import demos
    from su4exp.expm import _unitarity

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
    for label, res in results:
        assert "residual" not in vars(res), label
        r = res.residual
        assert r == _unitarity(res.U) and r <= 1e-12, (label, r)
        assert vars(res)["residual"] == r


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


_MIN_POLY_ROWS = {fam.label: fam.method for fam in FAMILY_TABLE if not fam.gate}


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
    sampler, closed = FAMILIES[name]
    rng = np.random.default_rng(75)
    for _ in range(5):
        X = Su4Element(sampler(rng).entries + 0.7j * np.eye(4))
        assert np.linalg.norm(closed(X).U - expm_reference(X.entries)) <= 1e-9


# Structured family -> (its predicate, its public closed form).  exp_tridiag
# takes SymTriDiag parameters, so the tridiagonal row is reached via FAMILIES.
_GATED = {
    "tridiag": (is_tridiagonal_type, FAMILIES["tridiag"][1]),
    "perskew": (is_perskew, exp_perskew),
    "skewham": (is_skew_hamiltonian, exp_skewham),
    "imsym": (is_imaginary_symmetric, exp_imaginary_symmetric),
    "bisym": (is_bisymmetric, exp_bisymmetric_fast),
    "normal-split": (is_normal_element, exp_normal_split),
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
        _, comm = is_normal_type(X.quintuple)
        return 0.5 * np.linalg.norm(comm)
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
    predicate, _ = _GATED[name]
    rng = np.random.default_rng(80)
    for _ in range(20):
        X = FAMILIES[name][0](rng)
        Y = Su4Element(X.entries + 0.1 * _noise(rng))
        d = _gate_distance(name, Y)
        assert d > 1e-3
        assert predicate(Y, tol=d * (1 + 1e-12)) and not predicate(Y, tol=d * (1 - 1e-12))


# Minimal-polynomial row -> (classify names it, its closed form).
_MIN_POLY = {method: (lambda X, tol=STRUCTURE_TOL, label=label: classify(X, tol).tag == label,
                      FAMILIES[method][1])
             for label, method in _MIN_POLY_ROWS.items()}


@pytest.mark.parametrize("name", [*_GATED, *_MIN_POLY])
def test_gate_tolerance_bounds_the_formula_error(name):
    # A sample moved off its family until the gate's distance sits just
    # under tau passes the gate at tau, and its closed form stays within tau.
    tau = 1e-6
    predicate, closed = (_GATED | _MIN_POLY)[name]
    rng = np.random.default_rng(81)
    for _ in range(20):
        X = FAMILIES[name][0](rng)
        D = _noise(rng)
        # Linear in the step size, up to a second-order commutator term.
        step = tau * tau / _gate_distance(name, Su4Element(X.entries + tau * D))
        Y = Su4Element(X.entries + 0.999 * step * D)
        assert 0.99 * tau < _gate_distance(name, Y) < tau
        assert predicate(Y, tau)
        U = closed(Y, tau).U
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
    family, the nearest bisymmetric split, or the Trotter bound 2||K||_F."""
    v = X.coeffs
    if method == "bisym":
        return min(2.0 * math.sqrt(float(row @ (v * v))) for row in _SPLIT_OFF)
    if method == "normal-split":
        return 2.0 * float(np.linalg.norm(X.quintuple.K()))
    return 2.0 * float(np.linalg.norm(v - _PROJECTOR[method] @ v))


def test_gate_distances_match_their_definitions():
    # Relative to the distance, or to ||X0||_F = 2||v|| for an exact member,
    # whose distance is rounding.
    methods = [fam.method for fam in FAMILY_TABLE if fam.gate]
    for X in _gate_samples():
        d = gate_distances(X)
        assert len(d) == len(methods)
        scale = 2.0 * float(np.linalg.norm(X.coeffs))
        for method, dk in zip(methods, d):
            ref = _reference_distance(method, X)
            assert abs(dk - ref) <= 1e-14 * max(ref, scale), (method, dk, ref)
            assert gate_distance(method, X) == dk


def test_a_gate_computes_only_its_own_row(monkeypatch):
    # Only the normal-split gate forms the commutator coefficients, and
    # dispatch stops at the first row that passes.
    import su4exp.expm as expm

    calls = []
    monkeypatch.setattr(expm, "commutator_coeffs",
                        lambda v: calls.append(1) or commutator_coeffs(v))
    rng = np.random.default_rng(90)
    X = FAMILIES["bisym"][0](rng)
    for fam in FAMILY_TABLE:
        if fam.gate:
            del calls[:]
            gate_distance(fam.method, X)
            assert len(calls) == (fam.method == "normal-split"), fam.method
    del calls[:]
    assert exp_bisymmetric_fast(X).method == "bisym"
    assert exp_auto(FAMILIES["tridiag"][0](rng)).method == "tridiag"
    assert calls == []


@pytest.mark.parametrize("name", _GATED)
def test_predicate_is_its_gate_distance_against_tol(name):
    predicate, _ = _GATED[name]
    for X in _gate_samples():
        d = gate_distance(name, X)
        for tol in (STRUCTURE_TOL, 1e-6, d, d * (1 + 1e-12), d * (1 - 1e-12)):
            assert predicate(X, tol) == (d <= tol)


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
    _, closed = _MIN_POLY[name]
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


def test_exp_auto_builds_no_decomposition_on_structured_samples(monkeypatch):
    import su4exp.model as model

    built = []

    def counting(init):
        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return counted

    for cls in (model.PauliCoeffs, model.QuintupleDecomp):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    rng = np.random.default_rng(84)
    samples = [sampler(rng) for sampler, _ in FAMILIES.values() for _ in range(10)]
    samples += [Su4Element(X.entries + 0.7j * np.eye(4)) for X in samples]
    del built[:]  # the samplers may build a quintuple to construct an element
    methods = {exp_auto(X).method for X in samples}
    assert methods == set(FAMILIES) and built == []
    assert samples[0].pauli is samples[0].pauli and built == ["PauliCoeffs"]
