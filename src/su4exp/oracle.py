"""Reference exponential.

Deliberately the slow, trusted path: plain Taylor series with scaling and
squaring.  No closed-form shortcut from the rest of the library is used
here, so every structured formula can be validated against this module
independently.  The series stops on an a-priori bound of its terms'
1-norms, a scalar product, so it takes at most 17 terms and has no
convergence failure to report.  Its range rule (``_check_range``) is also
the one ``exp_auto`` applies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

_EPS = float(np.finfo(float).eps)  # a Python float, for scalar comparisons


def _check_range(norm: float) -> None:
    """Raise InputError, a ValueError, when eps norm >= 1, norm a bound on
    the 1-norm of A: the rounding of A's entries alone then moves the phases
    of e^A by a radian or more, so no digit of the result is determined."""
    if _EPS * norm >= 1.0:
        raise InputError(f"1-norm bound {norm:.3e} is past 1/eps: e^A has no determined digit")


def expm_reference(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by truncated Taylor series with scaling and squaring.

    The scaling exponent is s = max(0, ceil(log2(norm1(A)))), taken from
    the input (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), so that
    b = norm1(A) / 2^s <= 1.  The series of B = A / 2^s stops after the
    first term k whose a-priori bound b^k / k! on norm1(B^k / k!) is below
    1e-14, which happens by k = 17; then B's exponential is squared s times.
    Raises InputError on entries that are not finite numbers of a square
    matrix, and when eps norm1(A) >= 1 (``_check_range``).
    """
    try:
        A = np.asarray(A, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed matrix entries: {exc}") from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        raise InputError("expected a square matrix of finite entries")

    n = A.shape[0]
    norm1 = float(np.abs(A).sum(axis=0).max())
    _check_range(norm1)
    s = math.ceil(math.log2(norm1)) if norm1 > 1.0 else 0
    scale = 2.0 ** s
    B = A / scale
    b = norm1 / scale

    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    bound = 1.0
    k = 1
    while True:
        term = term @ B
        term /= k
        result += term
        bound *= b / k
        if bound < 1e-14:
            break
        k += 1
    for _ in range(s):
        result = result @ result
    return result
