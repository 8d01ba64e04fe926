"""The associative-algebra isomorphism between H (x) H and real 4x4 matrices.

``mat_of_product_tensor(p, q)`` is the matrix of the map x -> p x qbar in the
basis (1, i, j, k) of R^4.  The sixteen matrices obtained from quaternion
basis pairs span gl(4, R); ``expand`` recovers the unique coefficients of an
arbitrary real 4x4 matrix in that basis.

The module also carries the dictionary between this basis and the Pauli
tensor-product basis of u(4).  The composition rule, confirmed numerically
(see tests), is

    M_{p (x) q} @ M_{p' (x) q'} == M_{(p p') (x) (q q')}.

One printed source of this table lists the same image for sigma_x(x)sigma_y
and sigma_y(x)sigma_x, which cannot both hold since the sixteen images are
linearly independent.  Recomputing both rows from the definition gives

    sigma_x (x) sigma_y  ->  -i * M_{1 (x) k}
    sigma_y (x) sigma_x  ->  +i * M_{k (x) 1}

and the table below uses the recomputed entries throughout.  Every row is
verified entrywise by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quaternion import ONE, I, J, K, Quaternion, qmul

BASIS_LABELS = ("1", "i", "j", "k")
_BASIS = {"1": ONE, "i": I, "j": J, "k": K}

SIGMA0 = np.eye(2, dtype=complex)
SIGMAX = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMAY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMAZ = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"0": SIGMA0, "x": SIGMAX, "y": SIGMAY, "z": SIGMAZ}
PAULI_LABELS = ("0", "x", "y", "z")


def basis_quaternion(label: str) -> Quaternion:
    return _BASIS[label]


_PAULI_KRON_CACHE: dict[tuple[str, str], np.ndarray] = {}


def pauli_kron(s: str, t: str) -> np.ndarray:
    """Kronecker product sigma_s (x) sigma_t as a complex 4x4 matrix (cached)."""
    key = (s, t)
    M = _PAULI_KRON_CACHE.get(key)
    if M is None:
        M = np.kron(PAULI[s], PAULI[t])
        M.setflags(write=False)
        _PAULI_KRON_CACHE[key] = M
    return M


def mat_of_product_tensor(p: Quaternion, q: Quaternion) -> np.ndarray:
    """Real 4x4 matrix of the map x -> p x qbar.

    Columns are the (1, i, j, k) coordinates of p*e*qbar for e running
    through 1, i, j, k.
    """
    qc = q.conj()
    cols = [qmul(qmul(p, e), qc).as_array() for e in (ONE, I, J, K)]
    return np.column_stack(cols)


_QT_BASIS_CACHE: dict[tuple[str, str], np.ndarray] = {}


def qt_basis_matrix(x: str, y: str) -> np.ndarray:
    """M_{e_x (x) e_y} for basis labels x, y in {1, i, j, k}.

    Cached: the sixteen constant matrices are read at import, to build the
    basis and coefficient tables, and by ``QtExpansion.reconstruct`` and
    ``pauli_to_qt``; no exponential reads them per call.
    """
    key = (x, y)
    M = _QT_BASIS_CACHE.get(key)
    if M is None:
        M = mat_of_product_tensor(_BASIS[x], _BASIS[y])
        M.setflags(write=False)
        _QT_BASIS_CACHE[key] = M
    return M


def _basis_stack() -> np.ndarray:
    """16x16 matrix whose columns are the vectorized basis matrices."""
    cols = [qt_basis_matrix(x, y).ravel() for x in BASIS_LABELS for y in BASIS_LABELS]
    return np.column_stack(cols)


_BASIS_STACK = _basis_stack()
# The basis matrices are signed permutation matrices, pairwise orthogonal in
# the trace inner product with squared norm 4, so the inverse is exactly the
# transpose over 4 (no LAPACK call at import).
_BASIS_STACK_INV = _BASIS_STACK.T / 4.0


@dataclass(frozen=True)
class QtExpansion:
    """Coefficients of a real 4x4 matrix in the M_{e_x (x) e_y} basis.

    ``coeff`` is indexed in the (1, i, j, k) label order for both slots.
    """

    coeff: np.ndarray

    def coeff_of(self, x: str, y: str) -> float:
        return float(self.coeff[BASIS_LABELS.index(x), BASIS_LABELS.index(y)])

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((4, 4))
        for a, x in enumerate(BASIS_LABELS):
            for b, y in enumerate(BASIS_LABELS):
                c = self.coeff[a, b]
                if c != 0.0:
                    out += c * qt_basis_matrix(x, y)
        return out


def expand(A: np.ndarray) -> QtExpansion:
    """Unique coefficients such that A = sum coeff[x][y] M_{e_x (x) e_y}."""
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError("expected a real 4x4 matrix")
    coeff = (_BASIS_STACK_INV @ A.ravel()).reshape(4, 4)
    return QtExpansion(coeff=coeff)


# (pauli s, pauli t) -> (complex scale, quaternion label x, quaternion label y)
# meaning sigma_s (x) sigma_t == scale * M_{e_x (x) e_y}.
PAULI_TO_QT_TABLE = {
    ("0", "0"): (1, "1", "1"),
    ("x", "0"): (1, "i", "k"),
    ("y", "0"): (-1j, "1", "j"),
    ("z", "0"): (1, "i", "i"),
    ("0", "x"): (1, "k", "j"),
    ("0", "y"): (1j, "i", "1"),
    ("0", "z"): (1, "j", "j"),
    ("x", "x"): (1, "j", "i"),
    ("x", "y"): (-1j, "1", "k"),
    ("x", "z"): (-1, "k", "i"),
    ("y", "x"): (1j, "k", "1"),
    ("y", "y"): (1, "i", "j"),
    ("y", "z"): (1j, "j", "1"),
    ("z", "x"): (-1, "j", "k"),
    ("z", "y"): (-1j, "1", "i"),
    ("z", "z"): (1, "k", "k"),
}


def pauli_to_qt(s: str, t: str) -> np.ndarray:
    """Quaternion-tensor image of sigma_s (x) sigma_t as a complex matrix."""
    scale, x, y = PAULI_TO_QT_TABLE[(s, t)]
    return scale * qt_basis_matrix(x, y).astype(complex)
