"""Characteristic polynomial, minimal-polynomial typing, and normality."""

import numpy as np
import pytest

from su4exp.classify import (
    charpoly,
    charpoly_canonical,
    check_quadratic_II_conditions,
    classify,
    cofactor_matrix,
    construct_quadratic_II_example,
    is_normal_type,
    local_vs_interaction_commute,
    normal_type_conditions_canonical,
)
from su4exp.expm import is_normal_element
from su4exp.families import FAMILIES
from su4exp.model import Su4Element, quintuple
from su4exp.qtensor import pauli_kron


def _random_element(rng, scale=1.0):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return Su4Element(scale * 0.5 * (A - A.conj().T))


def test_charpoly_fixtures():
    X = Su4Element(1j * pauli_kron("z", "z"))
    cp = charpoly(X)
    assert abs(cp.mu - 2.0) < 1e-14
    assert abs(cp.nu) < 1e-14
    assert abs(cp.pi - 1.0) < 1e-14

    cp0 = charpoly(Su4Element(np.zeros((4, 4))))
    assert cp0.mu == cp0.pi == 0.0 and cp0.nu == 0.0

    Y = Su4Element.from_pauli_coeffs([1, 0, 0], [1, 0, 0], np.diag([1.0, 0, 0]))
    cp = charpoly(Y)
    assert abs(cp.mu - 6.0) < 1e-12
    assert abs(abs(cp.nu) - 8.0) < 1e-12
    assert abs(cp.pi + 3.0) < 1e-12


def test_cayley_hamilton():
    rng = np.random.default_rng(50)
    for _ in range(200):
        X = _random_element(rng, scale=rng.uniform(0.2, 4))
        A = X.traceless
        cp = charpoly(X)
        A2 = A @ A
        res = A2 @ A2 + cp.mu * A2 + cp.nu * A + cp.pi * np.eye(4)
        assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(A).max() ** 4)


def test_charpoly_matches_eigenvalue_symmetric_functions():
    rng = np.random.default_rng(51)
    for _ in range(100):
        X = _random_element(rng)
        w = np.linalg.eigvals(X.traceless)
        e2 = sum(w[i] * w[j] for i in range(4) for j in range(i + 1, 4))
        e3 = sum(w[i] * w[j] * w[k]
                 for i in range(4) for j in range(i + 1, 4)
                 for k in range(j + 1, 4))
        e4 = np.prod(w)
        cp = charpoly(X)
        assert abs(cp.mu - e2.real) < 1e-10
        assert abs(cp.nu - (-e3)) < 1e-10
        assert abs(cp.pi - e4.real) < 1e-10


def test_charpoly_canonical_cross_check():
    rng = np.random.default_rng(52)
    for _ in range(100):
        a, b, c = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        X = Su4Element.from_pauli_coeffs(a, b, np.diag(c))
        cp = charpoly(X)
        mu, nu = charpoly_canonical(a, b, c)
        assert abs(cp.mu - mu) < 1e-10
        assert abs(cp.nu - nu) < 1e-10


def test_cofactor_matrix():
    rng = np.random.default_rng(53)
    for _ in range(50):
        C = rng.normal(size=(3, 3))
        Co = cofactor_matrix(C)
        # adj(C) = Co^T, so C Co^T = det(C) I
        assert np.abs(C @ Co.T - np.linalg.det(C) * np.eye(3)).max() < 1e-10


def test_classify_quadratic_I():
    X = Su4Element(1j * pauli_kron("z", "z"))
    r = classify(X)
    assert r.tag == "quadratic-I"
    assert abs(r.c2 - 1.0) < 1e-12


def test_classify_cubic_I():
    # a = b = (1, 0, -1) with c = (0, 1, -1) interaction: nu = pi = 0, mu = 8.
    H = (pauli_kron("0", "x") + pauli_kron("x", "0")
         + pauli_kron("y", "y") - pauli_kron("z", "z"))
    X = Su4Element(1j * H)
    r = classify(X)
    assert r.tag == "cubic-I"
    assert abs(r.c2 - 8.0) < 1e-12


def test_classify_quadratic_II():
    J = 1.0
    H = J * (pauli_kron("x", "x") + pauli_kron("y", "y") + pauli_kron("z", "z"))
    X = Su4Element(-1j * H)
    r = classify(X)
    assert r.tag == "quadratic-II"
    assert r.beta is not None and abs(r.beta.real) < 1e-12
    # Eigenvalues -i{1,1,1,-3}: x^2 + 2 beta x + gamma = (x + i)(x - 3i).
    assert abs(r.beta + 1j) < 1e-10
    assert abs(r.gamma - 3.0) < 1e-10


def test_classify_quartic_distinct_and_other():
    X = Su4Element(1j * np.diag([1.0, 2.0, -1.0, -2.0]))
    assert classify(X).tag == "quartic-distinct"
    Y = Su4Element(1j * np.diag([1.0, 2.0, 4.0, -7.0]))
    assert classify(Y).tag == "other"
    assert classify(Su4Element(np.zeros((4, 4)))).tag == "other"


def test_quadratic_II_rank_one_interaction():
    # Rank-one C = u v^T with p = u, q = v gives bt = 1 for unit u, v.
    u = np.array([1.0, 0.0, 0.0])
    C = np.outer(u, u)
    X = Su4Element.from_quintuple(u, u, C[:, 0], C[:, 1], C[:, 2])
    bt = check_quadratic_II_conditions(quintuple(X))
    assert bt is not None and abs(bt - 1.0) < 1e-12


def test_quadratic_II_rejects_single_zero_vector():
    rng = np.random.default_rng(54)
    for _ in range(50):
        p = rng.normal(size=3)
        C = rng.normal(size=(3, 3))
        while abs(np.linalg.det(C)) < 0.1:
            C = rng.normal(size=(3, 3))
        X = Su4Element.from_quintuple(p, np.zeros(3), C[:, 0], C[:, 1], C[:, 2])
        assert check_quadratic_II_conditions(quintuple(X)) is None
        Y = Su4Element.from_quintuple(np.zeros(3), p, C[:, 0], C[:, 1], C[:, 2])
        assert check_quadratic_II_conditions(quintuple(Y)) is None


def test_classify_agrees_with_the_quadratic_II_conditions():
    # Where the quintuple conditions hold with bt != 0, classify says
    # quadratic-II; with bt = 0 they are quadratic-I's (X0^2 = -c^2 I).
    rng = np.random.default_rng(58)
    held = set()
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(50):
            X = sampler(rng)
            bt = check_quadratic_II_conditions(quintuple(X))
            tag = classify(X).tag
            if bt is not None:
                held.add(name)
                assert tag == ("quadratic-II" if abs(bt) > 1e-9 else "quadratic-I"), name
            else:
                assert tag != "quadratic-II", name
    assert "quad-II" in held


def test_quadratic_II_identity_interaction_no_vectors():
    # p = q = 0, C = I: Co(C) = I so bt = -1 works.
    X = Su4Element.from_quintuple(np.zeros(3), np.zeros(3),
                                  [1, 0, 0], [0, 1, 0], [0, 0, 1])
    bt = check_quadratic_II_conditions(quintuple(X))
    assert bt is not None and abs(bt + 1.0) < 1e-12
    assert classify(X).tag == "quadratic-II"


@pytest.mark.parametrize("p", [(1.0, 0, 0), (0, 0, 3.0), (1.0, 1.0, 1.0)])
def test_construct_quadratic_II_example(p):
    X = construct_quadratic_II_example(np.asarray(p))
    r = classify(X)
    assert r.tag == "quadratic-II"
    # Minimal polynomial divides the quadratic: X^2 + 2 beta X + gamma = 0.
    A = X.traceless
    res = A @ A + 2 * r.beta * A + r.gamma * np.eye(4)
    assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(A).max() ** 2)


def test_is_normal_type_agrees_with_commutator():
    rng = np.random.default_rng(55)
    for _ in range(300):
        X = _random_element(rng)
        d = quintuple(X)
        ok, comm = is_normal_type(d)
        B, C = d.B(), d.C()
        direct = B @ C - C @ B
        assert np.abs(comm - direct).max() < 1e-12
        # The dispatch gate's rule: 1/2 ||[B, C]||_F <= STRUCTURE_TOL.
        assert ok == (0.5 * np.linalg.norm(direct) <= 1e-10)


def test_is_normal_type_matches_the_dispatch_gate_at_large_norm():
    # 1/2 ||[B, C]||_F = 2.8e-7 is far above the gate's tolerance, but small
    # next to ||B||_F ||C||_F = 5.7e4, which a relative test would scale by.
    p = q = np.array([100.0, 0.0, 0.0])
    Cmat = np.diag([100.0, 0.0, 0.0])
    Cmat[1, 2] = 1e-9
    X = Su4Element.from_quintuple(p, q, *Cmat.T)
    ok, _ = is_normal_type(quintuple(X))
    assert not ok and not is_normal_element(X)


def test_normal_canonical_case_pure_single_qubit():
    # c = 0 commutes trivially.
    assert normal_type_conditions_canonical([0, 1.0, 0], [0, 2.0, 0], [0, 0, 0])
    # Case ii: a = (0, 1, 0), b = (0, 1, 0), c = (0.7, anything, 0.7).
    assert normal_type_conditions_canonical([0, 1, 0], [0, 1, 0],
                                            [0.7, 0.3, 0.7])
    # Violation: c1 != c3 while |b2| = |a2|.
    assert not normal_type_conditions_canonical([0, 1, 0], [0, 1, 0],
                                                [0.7, 0.3, 0.2])


def test_normal_canonical_matches_commutator():
    rng = np.random.default_rng(56)
    for _ in range(500):
        a = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        b = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        c = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        X = Su4Element.from_pauli_coeffs(a, b, np.diag(c))
        ok, _ = is_normal_type(quintuple(X))
        assert ok == normal_type_conditions_canonical(a, b, c)


def test_local_vs_interaction_fixtures():
    assert local_vs_interaction_commute([1, 2, 3], [1, 2, 3], [1, 1, 1])
    assert local_vs_interaction_commute([1, 0, 0], [1, 0, 0], [0.5, 0.3, 0.3])
    # The ratio conditions alone are not sufficient in naive form: this set
    # satisfies c2/c1 = b3/a3 vacuously but fails the cross-multiplied pair.
    assert not local_vs_interaction_commute([1, 0, 0], [2, 0, 0], [0, 1, 2])


def test_local_vs_interaction_matches_commutator():
    rng = np.random.default_rng(57)
    for _ in range(500):
        a = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        b = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        c = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
        Y1 = Su4Element.from_pauli_coeffs(a, b, np.zeros((3, 3))).traceless
        Y2 = Su4Element.from_pauli_coeffs(np.zeros(3), np.zeros(3),
                                          np.diag(c)).traceless
        comm = Y1 @ Y2 - Y2 @ Y1
        expected = np.abs(comm).max() < 1e-10
        assert local_vs_interaction_commute(a, b, c) == expected
