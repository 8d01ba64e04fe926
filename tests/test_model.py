"""Decompositions of anti-Hermitian 4x4 generators: Pauli coefficients,
quaternion quintuple, canonical form, magic-basis conjugation."""

import numpy as np
import pytest

from su4exp.errors import InputError
from su4exp.model import (
    _QT_STACK,
    ANTIHERM_TOL,
    MAGIC_BASIS,
    Su4Element,
    canonicalize,
    embed_su3,
    magic_conjugate,
    pauli_coeffs,
    quintuple,
    su2_from_so3,
)
from su4exp.oracle import expm_reference
from su4exp.qtensor import PAULI, expand


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


def test_scalar_split():
    rng = np.random.default_rng(40)
    X = _random_element(rng)
    b = X.scalar
    assert abs(np.trace(X.traceless)) < 1e-12
    assert np.abs(X.entries - (X.traceless + 1j * b * np.eye(4))).max() < 1e-14


def test_pauli_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        X = _random_element(rng, scale=rng.uniform(0.1, 5))
        pc = pauli_coeffs(X)
        H = pc.reconstruct()
        assert np.abs(1j * H - X.traceless).max() < 1e-12


def test_quintuple_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(100):
        X = _random_element(rng)
        d = quintuple(X)
        assert np.abs(d.reconstruct() - X.traceless).max() < 1e-12
        # B real antisymmetric, C real symmetric
        B, C = d.B(), d.C()
        assert np.abs(B + B.T).max() < 1e-12
        assert np.abs(C - C.T).max() < 1e-12
        assert np.abs((B + 1j * C) - X.traceless).max() < 1e-12


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
        eb = expand(X.traceless.real).coeff
        ec = expand(X.traceless.imag).coeff
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


def test_embed_su3_block_structure():
    rng = np.random.default_rng(47)
    Y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Y = 0.5 * (Y - Y.conj().T)
    Y -= np.trace(Y) / 3.0 * np.eye(3)
    X = embed_su3(Y)
    U = expm_reference(X.entries)
    assert np.abs(U[3, :3]).max() < 1e-12
    assert np.abs(U[:3, 3]).max() < 1e-12
    assert abs(U[3, 3] - 1.0) < 1e-12
    with pytest.raises(InputError):
        embed_su3(np.eye(3))


def test_commutator_coeffs_match_cross_product_definition():
    from su4exp.model import commutator_coeffs
    from su4exp.quaternion import cross_matrix

    for A in _u4_inputs(seed=50, n=40):
        X = Su4Element(A)
        d = X.quintuple
        K = cross_matrix(d.p) @ d.Cmat - d.Cmat @ cross_matrix(d.q)
        # Rounding of a bilinear form: relative to ||(p, q)|| ||Cmat||.
        scale = np.linalg.norm(X.coeffs[:6]) * np.linalg.norm(X.coeffs[6:])
        assert np.abs(d.K() - K).max() <= 1e-14 * scale
        assert np.array_equal(commutator_coeffs(X.coeffs), d.K().ravel())


def test_decompositions_are_built_on_first_access():
    X = _random_element(np.random.default_rng(51))
    assert X._pauli is None and X._quintuple is None
    assert X.pauli is X.pauli and X.quintuple is X.quintuple
    assert np.array_equal(X.quintuple.Cmat.ravel(), X.coeffs[6:])


def test_pauli_stack_is_the_kronecker_products():
    from su4exp.model import _PAULI_SLOTS, _PAULI_STACK
    from su4exp.qtensor import pauli_kron

    ref = np.array([pauli_kron(s, t).ravel() for s, t in _PAULI_SLOTS])
    assert np.array_equal(_PAULI_STACK, ref)
