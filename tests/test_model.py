"""Decompositions of anti-Hermitian 4x4 generators: Pauli coefficients,
quaternion quintuple, canonical form, magic-basis conjugation."""

import warnings

import numpy as np
import pytest

from su4exp.errors import InputError
from su4exp.model import (
    _QT_STACK,
    ANTIHERM_TOL,
    MAGIC_BASIS,
    Su4Element,
    MAGIC_ADJOINT,
    canonicalize,
    magic_conjugate,
    quadratic_forms,
    su2_from_so3,
)
from su4exp.qtensor import PAULI, qt_basis_matrix

from reference import cross_matrix, pauli_kron, qt_coeffs, quintuple_matrices


def _random_element(rng, scale=1.0):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return Su4Element(scale * 0.5 * (A - A.conj().T))


def test_rejects_non_antihermitian():
    with pytest.raises(InputError):
        Su4Element(np.eye(4))
    with pytest.raises(InputError):
        Su4Element(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_rejects_non_finite(bad):
    A = np.zeros((4, 4), dtype=complex)
    A[0, 1] = bad
    with pytest.raises(InputError, match="non-finite"):
        Su4Element(A)


def _input_verdict(A):
    """The input test by its definition: the error message for entries A, or
    None.  Finite entries, and a Hermitian defect D = A + A* whose largest
    modulus is at most ANTIHERM_TOL max(1, max |A_ij|)."""
    with np.errstate(all="ignore"):
        amax = np.abs(A).max()
        if not np.isfinite(amax):
            return "matrix has non-finite entries"
        resid = np.abs(A + A.conj().T).max()
    if resid > ANTIHERM_TOL * max(1.0, amax):
        return f"matrix is not anti-Hermitian (residual {resid:.3e})"
    return None


def _error_path_inputs():
    """Non-finite entries, finite ones near the float maximum, and defects at
    0.2 and (1 +- 1e-6) times the tolerance."""
    zero = np.zeros((4, 4), dtype=complex)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        for entry in ((0, 0), (0, 1), (3, 2)):
            A = zero.copy()
            A[entry] = bad
            yield A
    for (i, j), value in (((0, 1), np.inf), ((0, 0), 1j * np.inf)):
        A = zero.copy()
        A[i, j], A[j + 1, i + 1] = value, -value
        yield A
    rng = np.random.default_rng(41)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = (H - H.conj().T) / np.abs(H - H.conj().T).max()
    for top in (1e300, 1.7e308 / 8.0, 1.7e308):
        yield top * X                        # anti-Hermitian
        A = top * X
        A[0, 1] *= 1.0 + 1e-6                # a defect far above the tolerance
        yield A
        A = zero.copy()
        A[0, 1] = A[1, 0] = top              # Hermitian: the defect overflows
        yield A
        A = zero.copy()
        A[0, 1], A[1, 0] = top, -top         # anti-Hermitian
        A[:2, :2] += 1j * top * np.eye(2)
        yield A
    # The defect 2 Re A_00 is exact: f tol max(1, amax).
    for amax in (1e-3, 1.0, 1e6):
        for f in (0.2, 1.0 - 1e-6, 1.0 + 1e-6):
            A = zero.copy()
            A[0, 1], A[1, 0], A[2, 3], A[3, 2] = amax, -amax, 0.5j * amax, 0.5j * amax
            A[0, 0] = 0.5 * f * ANTIHERM_TOL * max(1.0, amax)
            yield A


def test_constructor_errors_follow_the_input_test():
    # Each input raises InputError with the message of the input test's
    # definition, or passes when that test passes, and no input raises a
    # floating-point warning on the way.
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in _error_path_inputs():
            want = _input_verdict(A)
            if want is None:
                X = Su4Element(A)
                assert np.isfinite(X.coeffs).all() and np.isfinite(X.scalar)
            else:
                with pytest.raises(InputError) as err:
                    Su4Element(A)
                assert str(err.value) == want
            outcomes.add(want.split(" (")[0] if want else want)
    assert outcomes == {None, "matrix has non-finite entries", "matrix is not anti-Hermitian"}


def test_scalar_split():
    rng = np.random.default_rng(40)
    X = _random_element(rng)
    b = X.scalar
    assert abs(np.trace(X.traceless)) < 1e-12
    assert np.abs(X.entries - (X.traceless + 1j * b * np.eye(4))).max() < 1e-14


def test_pauli_round_trip():
    # H = sum c sigma_s (x) sigma_t over the Pauli record, from the Kronecker
    # products, is -i X0.
    rng = np.random.default_rng(41)
    for _ in range(100):
        X = _random_element(rng, scale=rng.uniform(0.1, 5))
        pc = X.pauli
        H = (sum(a * pauli_kron("0", s) + b * pauli_kron(s, "0")
                 for a, b, s in zip(pc.alpha, pc.beta, "xyz"))
             + sum(pc.gamma[j, k] * pauli_kron(s, t)
                   for j, s in enumerate("xyz") for k, t in enumerate("xyz")))
        assert np.abs(1j * H - X.traceless).max() < 1e-12


def test_quintuple_round_trip():
    # B and C from the quintuple record through the quaternion matrices are
    # X0's real antisymmetric and imaginary symmetric parts.
    rng = np.random.default_rng(42)
    for _ in range(100):
        X = _random_element(rng)
        d = X.quintuple
        B, C = quintuple_matrices(d.p, d.q, d.r, d.s, d.t)
        assert np.abs(B + B.T).max() < 1e-12
        assert np.abs(C - C.T).max() < 1e-12
        assert np.abs(B - X.traceless.real).max() < 1e-12
        assert np.abs(C - X.traceless.imag).max() < 1e-12


def test_from_constructors_agree():
    rng = np.random.default_rng(43)
    X = _random_element(rng)
    pc = X.pauli
    Y = Su4Element.from_pauli_coeffs(pc.alpha, pc.beta, pc.gamma, scalar=X.scalar)
    assert np.abs(X.entries - Y.entries).max() < 1e-12
    d = X.quintuple
    Z = Su4Element.from_quintuple(d.p, d.q, d.r, d.s, d.t, scalar=X.scalar)
    assert np.abs(X.entries - Z.entries).max() < 1e-12


def _u4_inputs(seed=48, n=200):
    """Seeded u(4) matrices (scalar part included), ||X|| from 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    out = []
    for norm in 10.0 ** np.linspace(-6.0, 6.0, n):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = 0.5 * (A - A.conj().T)
        out.append(norm / np.linalg.norm(A) * A)
    return out


def _close(got, want, X):
    """Entrywise agreement to 1e-12 relative to the size of X."""
    scale = np.abs(X.traceless).max()
    return np.abs(np.asarray(got) - np.asarray(want)).max() <= 1e-12 * scale


def test_pauli_map_matches_trace_definition():
    def coeff(s, t, H):
        return np.trace(np.kron(PAULI[s], PAULI[t]) @ H).real / 4.0

    for A in _u4_inputs():
        X = Su4Element(A)
        H = -1j * X.traceless
        pc = X.pauli
        assert _close(pc.alpha, [coeff("0", s, H) for s in "xyz"], X)
        assert _close(pc.beta, [coeff(s, "0", H) for s in "xyz"], X)
        assert _close(pc.gamma, [[coeff(s, t, H) for t in "xyz"] for s in "xyz"], X)


def test_quintuple_map_matches_expand():
    for A in _u4_inputs():
        X = Su4Element(A)
        eb = qt_coeffs(X.traceless.real)
        ec = qt_coeffs(X.traceless.imag)
        d = X.quintuple
        assert _close(d.p.as_vector(), eb[1:, 0], X)
        assert _close(d.q.as_vector(), eb[0, 1:], X)
        assert _close(d.Cmat, ec[1:, 1:], X)
        assert _close(np.column_stack([d.r.as_vector(), d.s.as_vector(),
                                       d.t.as_vector()]), d.Cmat, X)


def test_coefficient_constructors_round_trip():
    for A in _u4_inputs():
        X = Su4Element(A)
        pc = X.pauli
        Y = Su4Element.from_pauli_coeffs(pc.alpha, pc.beta, pc.gamma, scalar=X.scalar)
        assert _close(Y.entries, X.entries, X)
        assert _close(np.concatenate([Y.pauli.alpha, Y.pauli.beta, Y.pauli.gamma.ravel()]),
                      np.concatenate([pc.alpha, pc.beta, pc.gamma.ravel()]), X)
        d = X.quintuple
        Z = Su4Element.from_quintuple(d.p, d.q, d.r, d.s, d.t, scalar=X.scalar)
        assert _close(Z.entries, X.entries, X)
        assert _close(Z.quintuple.Cmat, d.Cmat, X)
        assert _close(np.concatenate([Z.quintuple.p.as_vector(), Z.quintuple.q.as_vector()]),
                      np.concatenate([d.p.as_vector(), d.q.as_vector()]), X)


def test_coefficients_expand_to_the_projected_input():
    # The su4 expansion X0 = v @ _QT_STACK is an identity of the input map:
    # for ||X|| from 1e-6 to 1e12, v rebuilds the traceless part of the
    # anti-Hermitian projection of the input, as do traceless and entries.
    for A in _u4_inputs(seed=49, n=50):
        for Y in (A, 1e6 * A):
            P = 0.5 * (Y - Y.conj().T)
            b = np.trace(P).imag / 4.0
            X0 = P - 1j * b * np.eye(4)
            X = Su4Element(Y)
            bound = 1e-10 * max(1.0, np.abs(X0).max())
            assert np.abs((X.coeffs @ _QT_STACK).reshape(4, 4) - X0).max() <= bound
            assert np.abs(X.traceless - X0).max() <= bound
            assert np.abs(X.entries - P).max() <= bound
            assert abs(X.scalar - b) <= bound


def _same_element(Y, X):
    """Coefficients, scalar and entries equal to 1e-12 relative."""
    scale = max(1.0, np.abs(X.entries).max())
    assert np.abs(Y.coeffs - X.coeffs).max() <= 1e-12 * scale
    assert abs(Y.scalar - X.scalar) <= 1e-12 * scale
    assert np.abs(Y.entries - X.entries).max() <= 1e-12 * scale


def test_coefficient_constructors_match_the_entry_constructor():
    for A in _u4_inputs(seed=52, n=40):
        X = Su4Element(A)
        pc, d = X.pauli, X.quintuple
        _same_element(Su4Element._from_coeffs(X.coeffs, X.scalar), X)
        _same_element(Su4Element.from_pauli_coeffs(pc.alpha, pc.beta, pc.gamma,
                                                   scalar=X.scalar), X)
        _same_element(Su4Element.from_quintuple(d.p, d.q, d.r, d.s, d.t,
                                                scalar=X.scalar), X)
    rng = np.random.default_rng(53)
    a, b, c, s = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), 0.4
    X = Su4Element.from_canonical(a, b, c, scalar=s)
    _same_element(X, Su4Element(X.entries))
    assert np.array_equal(X.pauli.gamma, np.diag(c)) and X.scalar == s


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["alpha", "beta", "gamma", "scalar"])
def test_coefficient_constructors_reject_non_finite(where, bad):
    args = {"alpha": np.ones(3), "beta": np.ones(3), "gamma": np.ones((3, 3)),
            "scalar": 0.5}
    if where == "scalar":
        args[where] = bad
    else:
        args[where] = args[where].copy()
        args[where].flat[1] = bad
    with pytest.raises(InputError, match="non-finite"):
        Su4Element.from_pauli_coeffs(**args)
    v = np.ones(15)
    with pytest.raises(InputError, match="non-finite"):
        Su4Element._from_coeffs(v, bad)
    v[4] = bad
    with pytest.raises(InputError, match="non-finite"):
        Su4Element._from_coeffs(v)


def test_coefficient_constructors_reject_a_wrong_count():
    with pytest.raises(InputError, match="expected 15 coefficients"):
        Su4Element.from_pauli_coeffs(np.ones(3), np.ones(3), np.ones((3, 2)))
    with pytest.raises(InputError, match="expected 15 coefficients"):
        Su4Element.from_pauli_coeffs(np.ones(3), np.ones(4), np.ones((3, 3)))
    with pytest.raises(InputError, match="expected 15 coefficients"):
        Su4Element.from_canonical(np.ones(3), np.ones(3), np.ones(2))
    # r, s, t of unequal lengths, and a count that adds up to 15 unevenly.
    with pytest.raises(InputError, match="expected 15 coefficients"):
        Su4Element.from_quintuple(*[np.ones(3)] * 4, np.ones(2))
    with pytest.raises(InputError, match="expected 15 coefficients"):
        Su4Element.from_quintuple(np.ones(4), np.ones(2), *[np.ones(3)] * 3)


@pytest.mark.parametrize("amax", [0.5, 5.0, 1e6])
def test_antihermitian_tolerance_is_relative_to_the_largest_entry(amax):
    # A defect X + X* of modulus f * tol * max(1, amax) passes for f = 0.9
    # and raises for f = 1.1, on the diagonal (real) or off it (complex).
    scale = max(1.0, amax)
    for f, passes in ((0.9, True), (1.1, False)):
        defect = f * ANTIHERM_TOL * scale
        for entry, value in (((2, 2), 0.5 * defect),
                             ((3, 2), defect * np.exp(0.3j))):
            A = np.zeros((4, 4), dtype=complex)
            A[0, 1], A[1, 0] = amax * np.exp(0.7j), -amax * np.exp(-0.7j)
            A[2, 3], A[3, 2] = 1e-3j, 1e-3j
            A[entry] += value
            if passes:
                Su4Element(A)
            else:
                with pytest.raises(InputError, match="not anti-Hermitian"):
                    Su4Element(A)


def test_su2_lift_covers_rotation():
    rng = np.random.default_rng(44)
    sig = [PAULI["x"], PAULI["y"], PAULI["z"]]
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        U = su2_from_so3(Q)
        assert abs(np.linalg.det(U) - 1.0) < 1e-12
        for v in np.eye(3):
            lhs = U @ sum(v[i] * sig[i] for i in range(3)) @ U.conj().T
            rv = Q @ v
            rhs = sum(rv[i] * sig[i] for i in range(3))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_su2_lift_of_identity_and_half_turns():
    # w = 0 for a half-turn: the sign rule makes the axis component positive.
    assert np.array_equal(su2_from_so3(np.eye(3)), np.eye(2))
    for k, s in enumerate("xyz"):
        R = -np.eye(3)
        R[k, k] = 1.0
        assert np.array_equal(su2_from_so3(R), -1j * PAULI[s])


def test_canonicalize_diagonalizes_interaction():
    rng = np.random.default_rng(45)
    for _ in range(100):
        X = _random_element(rng)
        cf = canonicalize(X)
        Y = Su4Element(cf.local_unitary @ X.traceless @ cf.local_unitary.conj().T)
        g = Y.pauli.gamma
        off = g - np.diag(np.diagonal(g))
        assert np.abs(off).max() < 1e-10
        assert np.abs(np.diagonal(g) - cf.c).max() < 1e-10
        # c recovers the singular values of the original gamma up to signs
        sv = np.linalg.svd(X.pauli.gamma, compute_uv=False)
        assert np.abs(np.sort(np.abs(cf.c))[::-1] - sv).max() < 1e-10
        assert np.abs(np.sort(Y.pauli.alpha) - np.sort(cf.a)).max() < 1e-10


@pytest.mark.parametrize("sv", [[5.0, 5.0, 1e-9], [1e-12, 0.0, 0.0], [4.0, 1e-7, 1e-7],
                                [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_canonicalize_diagonalizes_interaction_spectrum(sv):
    # Repeated, tiny and zero singular values of gamma: the local unitary
    # still takes X to its canonical form, which reproduces X0.
    rng = np.random.default_rng(23)
    for _ in range(50):
        Q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        X = Su4Element.from_pauli_coeffs(rng.normal(size=3), rng.normal(size=3),
                                         Q1 @ np.diag(sv) @ Q2.T)
        cf = canonicalize(X)
        L = cf.local_unitary
        Y = Su4Element(L @ X.traceless @ L.conj().T)
        assert np.abs(Y.pauli.gamma - np.diag(cf.c)).max() < 1e-12
        assert np.abs(np.sort(np.abs(cf.c))[::-1] - sv).max() < 1e-12
        Z = Su4Element.from_canonical(cf.a, cf.b, cf.c).entries
        assert np.abs(L.conj().T @ Z @ L - X.traceless).max() < 1e-12


def test_canonicalize_zero_interaction_is_identity():
    X = Su4Element.from_pauli_coeffs([1, 2, 3], [4, 5, 6], np.zeros((3, 3)))
    cf = canonicalize(X)
    assert np.allclose(cf.local_unitary, np.eye(4))
    assert np.allclose(cf.c, 0.0)


def test_magic_conjugation_kills_interaction_of_real_antisymmetric():
    rng = np.random.default_rng(46)
    for _ in range(50):
        B = rng.normal(size=(4, 4))
        X = Su4Element(B - B.T)
        Y = magic_conjugate(X)
        assert np.abs(Y.pauli.gamma).max() < 1e-12


def test_magic_basis_unitary():
    assert np.abs(MAGIC_BASIS @ MAGIC_BASIS.conj().T - np.eye(4)).max() < 1e-15


def test_commutator_coeffs_match_cross_product_definition():
    for A in _u4_inputs(seed=50, n=40):
        X = Su4Element(A)
        d = X.quintuple
        K = cross_matrix(d.p) @ d.Cmat - d.Cmat @ cross_matrix(d.q)
        # Rounding of a bilinear form: relative to ||(p, q)|| ||Cmat||.
        scale = np.linalg.norm(X.coeffs[:6]) * np.linalg.norm(X.coeffs[6:])
        assert np.abs(quadratic_forms(X.coeffs)[0] - K.ravel()).max() <= 1e-14 * scale


def test_square_map_gives_the_square_and_its_product_with_X0():
    # X0^2 = -g I - i z.T and X0 (z.T) = -(v.z) I - i D(v, z).T, with
    # z = D(v, v) and g = v.v read off the shared products, and D(v, z) =
    # (D v) z.
    from su4exp.model import _SQUARE_MAP

    def on_basis(w):
        return (w @ _QT_STACK).reshape(4, 4)

    rng = np.random.default_rng(52)
    for norm in 10.0 ** np.linspace(-3.0, 3.0, 40):
        v = rng.normal(size=15)
        v *= norm / np.linalg.norm(v)
        X0 = Su4Element.from_quintuple(v[:3], v[3:6], *v[6:].reshape(3, 3).T).traceless
        _, z, g, _ = quadratic_forms(v)
        Dv = (_SQUARE_MAP @ v).reshape(15, 15)
        tol = 1e-13 * max(1.0, g * g)
        assert abs(g - v @ v) <= 1e-15 * (v @ v)
        assert np.abs(X0 @ X0 - (-g * np.eye(4) - 1j * on_basis(z))).max() <= tol
        want = -(v @ z) * np.eye(4) - 1j * on_basis(Dv @ z)
        assert np.abs(X0 @ on_basis(z) - want).max() <= tol


def test_magic_conjugates_are_the_products_with_the_magic_basis():
    # One constant map of (v, b) gives V X V* and V* X V, equal to the 4x4
    # products to rounding; magic_conjugate builds its element from the first.
    from su4exp.model import _magic_entries
    for A in _u4_inputs(seed=49, n=40):
        X = Su4Element(A)
        E = _magic_entries(X)
        tol = 1e-14 * max(1.0, np.abs(A).max())
        for k, (W, Wh) in enumerate(((MAGIC_BASIS, MAGIC_ADJOINT), (MAGIC_ADJOINT, MAGIC_BASIS))):
            assert np.abs(E[k] - W @ X.entries @ Wh).max() <= tol
        assert np.array_equal(magic_conjugate(X).coeffs, Su4Element(E[0]).coeffs)


def test_decompositions_are_built_on_first_access():
    X = _random_element(np.random.default_rng(51))
    assert "pauli" not in vars(X) and "quintuple" not in vars(X)
    assert X.pauli is X.pauli and X.quintuple is X.quintuple
    assert np.array_equal(X.quintuple.Cmat.ravel(), X.coeffs[6:])


# The views of an element, in an order where entries is read before the
# traceless part it is built from.
_VIEWS = ("quadratic", "norm", "entries", "traceless", "pauli", "quintuple")


def _bits(x):
    """A view's bytes, through its tuples and NamedTuples."""
    return tuple(map(_bits, x)) if isinstance(x, tuple) else np.asarray(x).tobytes()


def test_views_are_computed_once_per_element(monkeypatch):
    # On the class a view is its descriptor.  On an element each runs its
    # function on the first read only, entries' read of traceless included,
    # and every later read returns the same object.
    from su4exp.model import _view
    calls = []
    for name in _VIEWS:
        view = Su4Element.__dict__[name]
        assert isinstance(view, _view) and getattr(Su4Element, name) is view
        monkeypatch.setattr(view, "func",
                            lambda X, f=view.func, name=name: calls.append(name) or f(X))
    rng = np.random.default_rng(53)
    X = _random_element(rng)
    for Y in (X, Su4Element._from_coeffs(X.coeffs, 0.4)):
        del calls[:]
        first = [getattr(Y, name) for name in _VIEWS]
        for _ in range(3):
            assert all(getattr(Y, name) is f for name, f in zip(_VIEWS, first))
        assert sorted(calls) == sorted(_VIEWS)


def test_views_raced_by_threads_return_one_object():
    # Threads (more than the cores of a small host) race on the first reads
    # of fresh elements, with a short switch interval: a race may compute a
    # view twice, but every thread gets the one object the element keeps.
    import sys
    import threading
    rng = np.random.default_rng(56)
    elements = [Su4Element._from_coeffs(rng.normal(size=15)) for _ in range(300)]
    seen = [[] for _ in range(4)]

    def read(out):
        for X in elements:
            out.append([getattr(X, name) for name in _VIEWS])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, X in enumerate(elements):
        for j, name in enumerate(_VIEWS):
            assert all(out[k][j] is getattr(X, name) for out in seen), name


def test_views_do_not_depend_on_the_constructor():
    # An element from entries and one from the same (v, b) give bitwise
    # identical views.
    rng = np.random.default_rng(54)
    for k in range(20):
        X = _random_element(rng, scale=10.0 ** (k % 5 - 2))
        X = Su4Element(X.entries + 0.3j * k * np.eye(4))
        Y = Su4Element._from_coeffs(X.coeffs, X.scalar)
        for name in _VIEWS:
            assert _bits(getattr(X, name)) == _bits(getattr(Y, name)), name


def test_drop_rows_of_the_shared_product_are_v_squared_on_the_masks():
    # The drop distances that the shared product reads off v_i v_j equal
    # _DROP @ v^2 to 1e-15 ||v||^2: on family samples, the same with
    # anti-Hermitian noise at 1e-13 to 1e-9 relative, and each of them
    # scaled to ||X||_F = 1e5.
    from su4exp.families import FAMILIES
    from su4exp.model import _DROP
    rng = np.random.default_rng(55)
    for sampler, _ in FAMILIES.values():
        for _ in range(4):
            A = sampler(rng).entries
            inputs = [A]
            for eps in (1e-13, 1e-11, 1e-9):
                H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                H = H - H.conj().T
                inputs.append(A + H * (eps * np.linalg.norm(A) / np.linalg.norm(H)))
            for B in inputs:
                for scale in (1.0, 1e5 / np.linalg.norm(B)):
                    v = Su4Element(scale * B).coeffs
                    ref = _DROP @ (v * v)
                    assert np.abs(quadratic_forms(v)[3] - ref).max() <= 1e-15 * (v @ v)


def test_entry_constructor_raises_input_error_on_malformed_entries():
    # Non-numeric, ragged and unconvertible entries raise InputError rather
    # than NumPy's ValueError or TypeError, and the other constructor errors
    # keep their messages.
    for bad in ([["a"] * 4] * 4, [[0.0] * 4] * 3 + [[0.0] * 3], [[{}] * 4] * 4,
                [[10 ** 400] * 4] * 4):
        with pytest.raises(InputError, match="^malformed matrix entries: "):
            Su4Element(bad)
    nan = np.zeros((4, 4))
    nan[1, 2] = np.nan
    cases = [
        (lambda: Su4Element(np.zeros((3, 3))), "expected a 4x4 matrix"),
        (lambda: Su4Element(nan), "matrix has non-finite entries"),
        (lambda: Su4Element(np.eye(4)), "matrix is not anti-Hermitian (residual 2.000e+00)"),
        (lambda: Su4Element._from_coeffs(np.ones(14)), "expected 15 coefficients"),
        (lambda: Su4Element._from_coeffs(np.ones(15), np.inf), "non-finite coefficients"),
        (lambda: Su4Element.from_pauli_coeffs(np.ones(3), np.ones(3), np.ones(8)),
         "expected 15 coefficients"),
        (lambda: Su4Element.from_quintuple(*[np.ones(3)] * 4, np.ones(2)),
         "expected 15 coefficients"),
    ]
    for make, message in cases:
        with pytest.raises(InputError) as err:
            make()
        assert str(err.value) == message


def test_coefficient_constructors_raise_input_error_on_malformed_input():
    # Non-numeric, ragged and unconvertible coefficients raise InputError
    # rather than NumPy's ValueError or TypeError, in every constructor that
    # takes coefficients, the scalar part included.
    z3, z33 = np.zeros(3), np.zeros((3, 3))
    for make in (lambda: Su4Element.from_pauli_coeffs(["a"] * 3, z3, z33),
                 lambda: Su4Element.from_pauli_coeffs(z3, z3, [[{}] * 3] * 3),
                 lambda: Su4Element.from_pauli_coeffs(z3, z3, z33, scalar="b"),
                 lambda: Su4Element.from_quintuple([1, [2, 3], 3], z3, z3, z3, z3),
                 lambda: Su4Element.from_quintuple(z3, z3, z3, z3, [10 ** 400] * 3),
                 lambda: Su4Element._from_coeffs(["x"] * 15),
                 lambda: Su4Element._from_coeffs(np.zeros(15), 1 + 2j),
                 lambda: Su4Element.from_canonical(z3, z3, ["q", 1, 2])):
        with pytest.raises(InputError, match="^malformed coefficients: "):
            make()


def test_pauli_stack_is_the_kronecker_products():
    # X0 = sum_k v[slot_k] T_slot = i sum_k c_k sigma_s (x) sigma_t with
    # v[slot_k] = sign_k c_k, so sigma_s (x) sigma_t = -i sign_k T_slot; T is
    # M_{e_x (x) e_y} on a p, q slot and i M_{e_x (x) e_y} on a Cmat slot.
    from su4exp.model import _PAULI_SIGN, _PAULI_SLOT, _PAULI_SLOTS, _QT_SLOTS

    for (s, t), k, sign in zip(_PAULI_SLOTS, _PAULI_SLOT, _PAULI_SIGN):
        T = qt_basis_matrix(*_QT_SLOTS[k]) * (1j if k >= 6 else 1.0)
        assert np.array_equal(-1j * sign * T, pauli_kron(s, t)), (s, t)
