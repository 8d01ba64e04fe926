"""Reference exponential and eigenvalue oracle.

Deliberately the slow, trusted path: plain Taylor series with scaling and
squaring for the exponential, cyclic Jacobi sweeps for Hermitian eigenvalues.
No closed-form shortcut from the rest of the library is used here, so every
structured formula can be validated against this module independently.
Its range rule (``_check_range``) is also the one ``exp_auto`` applies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

_EPS = np.finfo(float).eps


def _check_range(norm: float) -> None:
    """Raise InputError, a ValueError, when eps norm >= 1, norm a bound on
    the 1-norm of A: the rounding of A's entries alone then moves the phases
    of e^A by a radian or more, so no digit of the result is determined."""
    if _EPS * norm >= 1.0:
        raise InputError(f"1-norm bound {norm:.3e} is past 1/eps: e^A has no determined digit")


def expm_reference(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by truncated Taylor series with scaling and squaring.

    The scaling exponent is s = max(0, ceil(log2(norm1(A)))), taken from
    the input (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), and the series
    of A / 2^s is summed until the next term's 1-norm drops below 1e-14.
    Raises InputError when eps norm1(A) >= 1 (``_check_range``).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in input")

    n = A.shape[0]
    norm1 = np.abs(A).sum(axis=0).max()
    _check_range(norm1)
    s = math.ceil(math.log2(norm1)) if norm1 > 1.0 else 0
    B = A / (2.0 ** s)

    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    k = 1
    while True:
        term = term @ B / k
        result = result + term
        if np.abs(term).sum(axis=0).max() < 1e-14:
            break
        k += 1
        if k > 1000:
            raise RuntimeError("Taylor series failed to converge")
    for _ in range(s):
        result = result @ result
    return result


def _hermitian_2x2_rotation(a: float, b: float, h: complex) -> np.ndarray:
    """Unitary 2x2 G whose columns are eigenvectors of [[a, h], [conj(h), b]].

    a, b are real diagonal entries.  Returned with the eigenvector of the
    smaller eigenvalue first.
    """
    d = 0.5 * (a - b)
    r = math.hypot(abs(h), d)
    lo = 0.5 * (a + b) - r
    # Eigenvector for lo: (h, lo - a), unless that pair degenerates.
    v = np.array([h, lo - a], dtype=complex)
    if np.abs(v).max() < 1e-300:
        v = np.array([lo - b, np.conj(h)], dtype=complex)
    v = v / np.linalg.norm(v)
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)
    return np.column_stack([v, w])


def eigvals_hermitian(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, ascending.

    The input must be Hermitian to 1e-12 times its largest entry (or 1).
    Each rotation exactly diagonalizes one 2x2 principal block; sweeps stop
    when the off-diagonal Frobenius mass falls below 1e-15 * ||H||_F.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if np.abs(H - H.conj().T).max() > 1e-12 * max(1.0, np.abs(H).max()):
        raise ValueError("input is not Hermitian")
    A = 0.5 * (H + H.conj().T)
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(60):
        off = math.sqrt(max(0.0, np.linalg.norm(A) ** 2
                            - np.linalg.norm(np.diagonal(A)) ** 2))
        if off < 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = A[p, q]
                if abs(h) < 1e-18 * scale:
                    continue
                G = _hermitian_2x2_rotation(A[p, p].real, A[q, q].real, h)
                idx = [p, q]
                A[:, idx] = A[:, idx] @ G
                A[idx, :] = G.conj().T @ A[idx, :]
    return np.sort(np.diagonal(A).real)
