"""Characteristic polynomial, minimal-polynomial typing, and normality."""

import math
import warnings

import numpy as np
import pytest

from su4exp.classify import (
    MinPolyClass,
    charpoly,
    check_quadratic_II_conditions,
    classify,
    construct_quadratic_II_example,
    is_normal_type,
    local_vs_interaction_commute,
    shape,
)
from su4exp.errors import InputError
from su4exp.expm import is_normal_element
from su4exp.families import FAMILIES
from su4exp.model import _QT_STACK, STRUCTURE_TOL, Su4Element, _cofactors

from reference import (
    charpoly_canonical,
    cubic_distance,
    normal_type_conditions_canonical,
    pauli_kron,
    quadratic_distance,
)


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
        co, det = _cofactors(C.ravel().tolist())
        Co = np.array(co).reshape(3, 3)
        # adj(C) = Co^T, so C Co^T = det(C) I
        assert np.abs(C @ Co.T - np.linalg.det(C) * np.eye(3)).max() < 1e-10
        assert abs(det - np.linalg.det(C)) < 1e-10


@pytest.mark.parametrize("scale", [1e80, 1e160])
def test_invariants_past_their_range_raise_before_any_product(scale):
    # g^2 = (v.v)^2 overflows at these norms: charpoly and classify raise
    # InputError with no overflow warning on the way, and every
    # minimal-polynomial shape is at distance inf.
    X = _random_element(np.random.default_rng(59), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (charpoly, classify):
            with pytest.raises(InputError, match="overflows"):
                f(X)
        for tag in ("quadratic-I", "quadratic-II", "cubic-I"):
            assert shape(X, tag)[0] == math.inf


def _matrix_distances(X, tol):
    """Each shape's distance in its matrix form (``reference``), on X0 with
    classify's parameters; and the tag that classify's rule gives on those
    distances."""
    A = X.traceless
    q1, q2, c1 = (shape(X, tag)[1] for tag in ("quadratic-I", "quadratic-II", "cubic-I"))
    out = {"quadratic-I": quadratic_distance(A, 0.0, q1.c2),
           "quadratic-II": quadratic_distance(A, q2.beta, q2.gamma),
           "cubic-I": cubic_distance(A, c1.c2)}
    cp = charpoly(X)
    tag = next((t for t, d in out.items() if d <= tol), None)
    if tag is None:
        tag = "quartic-distinct" if abs(cp.nu) <= tol * cp.mu else "other"
    return out, tag


def _shape_inputs():
    """Family samples at scales 1e-8 to 1e6, with relative anti-Hermitian
    noise from 0 to 1e-9 and scalar parts 0 and 0.7, and generic inputs."""
    rng = np.random.default_rng(60)
    for sampler, _ in FAMILIES.values():
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e6):
            A = scale * sampler(rng).traceless
            for eps in (0.0, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9):
                H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                H = H + H.conj().T
                N = 1j * H * (eps * np.linalg.norm(A) / np.linalg.norm(H))
                for b in (0.0, 0.7):
                    yield Su4Element(A + N + 1j * b * np.eye(4))
    for _ in range(100):
        yield _random_element(rng, 10.0 ** rng.uniform(-3, 3))


def test_shape_distances_on_v_equal_their_matrix_forms():
    # classify and the table rows test each shape on v; the reference
    # tests it on products of X0.  The two agree to rounding, and
    # the tags agree unless rounding puts the two forms of a distance on
    # either side of tol.  It can: an exact quadratic-I sample at ||v|| =
    # 7e6 is at distance 0 on v, and at 2.2e-10 in the matrix form, whose
    # X0^2 rounds at eps ||X0||_F^2.
    tol = 1e-10
    tags, split = set(), 0
    for X in _shape_inputs():
        ref, tag = _matrix_distances(X, tol)
        on_v = {t: shape(X, t)[0] for t in ref}
        for t, d_ref in ref.items():
            assert abs(on_v[t] - d_ref) <= 1e-12 * (1.0 + X.coeffs @ X.coeffs), t
        if any((on_v[t] <= tol) != (d_ref <= tol) for t, d_ref in ref.items()):
            split += 1
        else:
            assert classify(X).tag == tag
            tags.add(tag)
    assert tags == {"quadratic-I", "quadratic-II", "cubic-I", "quartic-distinct", "other"}
    assert split <= 2


def _shared_product_inputs():
    """Family samples at ||X0||_F = 1, 1e3 and 1e5, and quadratic-I samples
    with relative anti-Hermitian noise from 1e-13 to 1e-9."""
    rng = np.random.default_rng(61)
    for sampler, _ in FAMILIES.values():
        for norm in (1.0, 1e3, 1e5):
            for _ in range(4):
                A = sampler(rng).traceless
                yield Su4Element(norm / np.linalg.norm(A) * A)
    sampler = FAMILIES["quad-I"][0]
    for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
        for _ in range(6):
            A = sampler(rng).traceless
            H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            H = H + H.conj().T
            yield Su4Element(A + 1j * H * (eps * np.linalg.norm(A) / np.linalg.norm(H)))


def test_shared_products_give_the_invariants_and_distances_of_X0_products():
    # X0^2 = -g I - i z.T, with the basis matrices orthogonal to I and to
    # each other, of squared norm 4: g and z of the shared products match
    # X0 @ X0 to 1e-14 ||X0||_F^2, and each shape's distance its matrix form
    # (``reference``) to 1e-14 max(d, ||X0||_F).
    for X in _shared_product_inputs():
        A = X.traceless
        n = float(np.linalg.norm(A))
        _, z, g, _ = X.quadratic
        A2 = A @ A
        g_ref = -np.trace(A2).real / 4.0
        z_ref = (_QT_STACK.conj() @ (1j * (A2 + g_ref * np.eye(4))).ravel()).real / 4.0
        assert abs(g - g_ref) <= 1e-14 * n * n
        assert np.abs(z - z_ref).max() <= 1e-14 * n * n
        ref, _ = _matrix_distances(X, STRUCTURE_TOL)
        for tag, d_ref in ref.items():
            assert abs(shape(X, tag)[0] - d_ref) <= 1e-14 * max(d_ref, n), (tag, d_ref)


def _walk_inputs():
    """Minimal-polynomial samples, each also with relative anti-Hermitian
    noise from 1e-13 to 1e-9."""
    rng = np.random.default_rng(62)
    for method in ("quad-I", "quad-II", "cubic-I"):
        for _ in range(6):
            A = FAMILIES[method][0](rng).traceless
            yield Su4Element(A)
            for eps in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
                H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                H = H + H.conj().T
                yield Su4Element(A + 1j * H * (eps * np.linalg.norm(A) / np.linalg.norm(H)))


def test_classify_takes_the_first_shape_within_tol():
    # At tol = d and d(1 +- 1e-12) for each shape's distance d from shape(),
    # classify returns the first shape within tol, with shape()'s
    # parameters, or other when none is.
    order = ("quadratic-I", "quadratic-II", "cubic-I", "quartic-distinct")
    tags = set()
    for X in _walk_inputs():
        shapes = [shape(X, tag) for tag in order]
        for d, _ in shapes:
            for tol in (d, d * (1 + 1e-12), d * (1 - 1e-12)):
                first = next((m for dm, m in shapes if dm <= tol), MinPolyClass("other"))
                assert classify(X, tol) == first, (tol, first)
                tags.add(first.tag)
    assert tags == {*order, "other"}


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
    bt = check_quadratic_II_conditions(X)
    assert bt is not None and abs(bt - 1.0) < 1e-12


def test_quadratic_II_rejects_single_zero_vector():
    rng = np.random.default_rng(54)
    for _ in range(50):
        p = rng.normal(size=3)
        C = rng.normal(size=(3, 3))
        while abs(np.linalg.det(C)) < 0.1:
            C = rng.normal(size=(3, 3))
        X = Su4Element.from_quintuple(p, np.zeros(3), C[:, 0], C[:, 1], C[:, 2])
        assert check_quadratic_II_conditions(X) is None
        Y = Su4Element.from_quintuple(np.zeros(3), p, C[:, 0], C[:, 1], C[:, 2])
        assert check_quadratic_II_conditions(Y) is None


def test_classify_agrees_with_the_quadratic_II_conditions():
    # Where the quintuple conditions hold with bt != 0, classify says
    # quadratic-II; with bt = 0 they are quadratic-I's (X0^2 = -c^2 I).
    rng = np.random.default_rng(58)
    held = set()
    for name, (sampler, _) in FAMILIES.items():
        for _ in range(50):
            X = sampler(rng)
            bt = check_quadratic_II_conditions(X)
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
    bt = check_quadratic_II_conditions(X)
    assert bt is not None and abs(bt + 1.0) < 1e-12
    assert classify(X).tag == "quadratic-II"


def test_quadratic_II_conditions_share_the_range_of_charpoly():
    # lhs @ rhs is cubic in v: just below _NORM_MAX the scaled exact member
    # still gives s bt, and past it the check raises InputError before any
    # product, where it once overflowed to None.
    from su4exp.classify import _NORM_MAX
    from su4exp.quaternion import PureQuaternion
    X = construct_quadratic_II_example(PureQuaternion(0.3, -0.5, 0.8))
    bt = check_quadratic_II_conditions(X)
    s = 0.99 * _NORM_MAX / X.norm
    got = check_quadratic_II_conditions(Su4Element._from_coeffs(s * X.coeffs))
    assert got is not None and abs(got - s * bt) <= 1e-12 * abs(s * bt)
    with pytest.raises(InputError, match="past"):
        check_quadratic_II_conditions(Su4Element._from_coeffs(1e110 * X.coeffs))


def test_construct_quadratic_II_example_rejects_zero():
    with pytest.raises(InputError, match="nonzero"):
        construct_quadratic_II_example(np.zeros(3))


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
        ok, comm = is_normal_type(X)
        B, C = X.traceless.real, X.traceless.imag
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
    ok, _ = is_normal_type(X)
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
        ok, _ = is_normal_type(X)
        assert ok == normal_type_conditions_canonical(a, b, c)


def test_local_vs_interaction_fixtures():
    assert local_vs_interaction_commute([1, 2, 3], [1, 2, 3], [1, 1, 1])
    assert local_vs_interaction_commute([1, 0, 0], [1, 0, 0], [0.5, 0.3, 0.3])
    # The ratio conditions alone are not sufficient in naive form: this set
    # satisfies c2/c1 = b3/a3 vacuously but fails the cross-multiplied pair.
    assert not local_vs_interaction_commute([1, 0, 0], [2, 0, 0], [0, 1, 2])


@pytest.mark.parametrize("a, b, c", [
    ([1, 2, 3, 4], [0, 0, 0, 0], [0, 0, 0, 0]),  # a 4th entry, once ignored
    ([1, 2], [1, 2], [1, 2]),                    # 2 entries, once an IndexError
    ([1, 2, 3], [1, 2, 3], 0),
    ([1, 2, 3], [1, 2, 3], [1, 1, float("nan")]),
    ([1, 2, 3], [float("inf"), 0, 0], [1, 1, 1]),
])
def test_local_vs_interaction_rejects_malformed_coefficients(a, b, c):
    with pytest.raises(InputError, match="3 finite values"):
        local_vs_interaction_commute(a, b, c)


def test_local_vs_interaction_rejects_entries_that_are_not_numbers():
    # NumPy's conversion error becomes the coefficient constructors' InputError.
    with pytest.raises(InputError, match="malformed coefficients"):
        local_vs_interaction_commute([1, 2, 3], [1, 2, 3], [1, 2, "a"])


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
