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
    # norm1 = 0: one term, no squaring, I exactly.
    for n in (1, 4, 8):
        assert np.array_equal(expm_reference(np.zeros((n, n))), np.eye(n))


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


# Non-normal inputs against exact values.  N is the 4x4 nilpotent shift,
# so lam I + c N has 1-norm |lam| + |c| and exponential
# e^lam (I + c N + c^2 N^2 / 2 + c^3 N^3 / 6).
_SHIFT = np.eye(4, k=1)


def _jordan_exp(lam, c):
    N = c * _SHIFT
    return np.exp(lam) * (np.eye(4) + N + N @ N / 2 + N @ N @ N / 6)


def test_jordan_block():
    # e^J = I + J + J^2 / 2 + J^3 / 6 for the nilpotent 4x4 Jordan block.
    err = np.abs(expm_reference(_SHIFT) - _jordan_exp(0.0, 1.0)).max()
    assert err <= 2 * np.finfo(float).eps


def test_block_triangular_with_commuting_blocks():
    # exp [[X, E], [0, X]] = [[e^X, E e^X], [0, e^X]] when X E = E X; the
    # off-diagonal block is the derivative of e^X in the direction E.
    rng = np.random.default_rng(34)
    eps = np.finfo(float).eps
    for scale in (0.3, 1.0, 7.0, 60.0):
        x = scale * (rng.normal(size=4) * 0.1 + 1j * rng.normal(size=4))
        e = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
        A = np.zeros((8, 8), dtype=complex)
        A[:4, :4] = A[4:, 4:] = np.diag(x)
        A[:4, 4:] = np.diag(e)
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = expected[4:, 4:] = np.diag(np.exp(x))
        expected[:4, 4:] = np.diag(e * np.exp(x))
        err = np.abs(expm_reference(A) - expected).max()
        assert err <= 10 * eps * np.abs(A).sum(axis=0).max() * np.abs(expected).max(), scale


@pytest.mark.parametrize("k", [0, 1, 4, 10])
def test_norm_at_and_just_above_a_power_of_two(k):
    # At norm1 = 2^k the scaled matrix has 1-norm exactly 1, the largest
    # the series takes; just above it, one more squaring and about 1/2.
    eps = np.finfo(float).eps
    for norm1 in (2.0 ** k, 2.0 ** k * (1 + 4 * eps)):
        lam, c = 0.5j * 2.0 ** k, norm1 - 0.5 * 2.0 ** k
        A = lam * np.eye(4) + c * _SHIFT
        assert np.abs(A).sum(axis=0).max() == norm1
        expected = _jordan_exp(lam, c)
        err = np.abs(expm_reference(A) - expected).max()
        assert err <= 5 * eps * norm1 * np.abs(expected).max(), (k, norm1)


def test_rejects_bad_input():
    with pytest.raises(InputError):
        expm_reference(np.full((4, 4), np.nan))
    with pytest.raises(InputError):
        expm_reference(np.zeros((3, 4)))
    with pytest.raises(InputError, match="malformed matrix entries"):
        expm_reference([[1, "a"], [0, 1]])
    with pytest.raises(InputError, match="malformed matrix entries"):
        expm_reference([[10 ** 400]])
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
