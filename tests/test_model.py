"""Decompositions of anti-Hermitian 4x4 generators: Pauli coefficients,
quaternion quintuple, canonical form, magic-basis conjugation."""

import numpy as np
import pytest

from su4exp.errors import InputError
from su4exp.model import (
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
from su4exp.qtensor import PAULI


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
