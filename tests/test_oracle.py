"""Reference exponential and Jacobi eigenvalue oracle."""

import numpy as np
import pytest

from su4exp.errors import InputError
from su4exp.families import eigh_exp
from su4exp.oracle import expm_reference

from reference import eigvals_hermitian


def _random_antihermitian(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (A - A.conj().T)


def test_zero_gives_identity():
    assert np.allclose(expm_reference(np.zeros((4, 4))), np.eye(4))


def test_diagonal_case():
    A = 1j * np.diag([1.0, 2.0, 3.0, -6.0])
    expected = np.diag(np.exp(np.diag(A)))
    assert np.abs(expm_reference(A) - expected).max() < 1e-14


def test_half_period_rotation():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    A = 1j * np.pi * np.kron(sx, np.eye(2))
    assert np.abs(expm_reference(A) + np.eye(4)).max() < 1e-12


def test_inverse_property():
    rng = np.random.default_rng(30)
    for _ in range(100):
        A = _random_antihermitian(rng) * rng.uniform(0.1, 8)
        P = expm_reference(A) @ expm_reference(-A)
        assert np.abs(P - np.eye(4)).max() < 1e-12


def test_commuting_sum_factorizes():
    rng = np.random.default_rng(31)
    for _ in range(50):
        M = _random_antihermitian(rng)
        A = 0.7 * M + 0.1 * (M @ M @ M)   # polynomials in M commute
        B = -0.3 * M + 0.2 * (M @ M)
        B = 0.5 * (B - B.conj().T)
        lhs = expm_reference(A + B)
        rhs = expm_reference(A) @ expm_reference(B)
        assert np.abs(lhs - rhs).max() < 1e-11


def test_unitarity_and_eigenphases():
    rng = np.random.default_rng(32)
    for _ in range(50):
        A = _random_antihermitian(rng) * 3.0
        U = expm_reference(A)
        assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-12
        w = eigvals_hermitian(-1j * A)
        phases = np.sort(np.angle(np.linalg.eigvals(U)))
        expected = np.sort(np.angle(np.exp(1j * w)))
        assert np.abs(phases - expected).max() < 1e-10


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        expm_reference(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        expm_reference(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_range_follows_the_norm():
    # The squarings come from the input, so the error stays a few eps
    # ||X||_F up to 1e15; past 1/eps no digit of e^X is determined.
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for norm in (1e9, 1e11, 1e12, 1e13, 1e15, 1e16):
        X = _random_antihermitian(rng)
        X *= norm / np.linalg.norm(X)
        if norm < 1e16:
            assert np.linalg.norm(expm_reference(X) - eigh_exp(X)) <= 10 * eps * norm
        else:
            with pytest.raises(InputError):
                expm_reference(X)
    assert issubclass(InputError, ValueError)


def test_jacobi_trivial_spectra():
    assert np.allclose(eigvals_hermitian(np.diag([1.0, 2, 3, 4])), [1, 2, 3, 4])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    w = eigvals_hermitian(np.kron(sx, np.eye(2)))
    assert np.allclose(w, [-1, -1, 1, 1])


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(33)
    for _ in range(100):
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = 0.5 * (H + H.conj().T)
        assert np.abs(eigvals_hermitian(H) - np.linalg.eigvalsh(H)).max() < 1e-10


def test_jacobi_zero_diagonal_tridiagonal_symmetry():
    # Spectrum of a zero-diagonal tridiagonal symmetric matrix is symmetric
    # about the origin.
    T = np.zeros((4, 4))
    T[0, 1] = T[1, 0] = 1.0
    T[1, 2] = T[2, 1] = 1.0
    T[2, 3] = T[3, 2] = 1.0
    w = eigvals_hermitian(T.astype(complex))
    assert np.abs(w + w[::-1]).max() < 1e-12
