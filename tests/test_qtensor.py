"""Quaternion-tensor representation of real 4x4 matrices.

The two load-bearing facts checked here: the sixteen basis matrices multiply
like the quaternion pairs they represent (same-order composition in both
slots), and the Pauli dictionary maps every two-qubit basis element onto the
right scaled basis matrix.
"""

import numpy as np
import pytest

from su4exp.qtensor import (
    BASIS_LABELS,
    PAULI_LABELS,
    PAULI_TO_QT_TABLE,
    mat_of_product_tensor,
    qt_basis_matrix,
)
from su4exp.quaternion import ONE, I, J, K, Quaternion, qmul

from reference import pauli_kron, qt_coeffs


def test_identity_pair_is_identity_matrix():
    assert np.allclose(qt_basis_matrix("1", "1"), np.eye(4))


def test_composition_same_order_in_both_slots():
    """M_{p(x)q} M_{p'(x)q'} = M_{(pp')(x)(qq')} for random quaternions."""
    rng = np.random.default_rng(10)
    for _ in range(300):
        p, q, p2, q2 = (Quaternion(*rng.normal(size=4)) for _ in range(4))
        lhs = mat_of_product_tensor(p, q) @ mat_of_product_tensor(p2, q2)
        rhs = mat_of_product_tensor(qmul(p, p2), qmul(q, q2))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_reversed_second_slot_composition_fails():
    # The opposite convention is off by a genuine amount, not a tolerance.
    p, q = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)
    p2, q2 = Quaternion(0, 0, 0, 1), Quaternion(0, 1, 0, 0)
    lhs = mat_of_product_tensor(p, q) @ mat_of_product_tensor(p2, q2)
    wrong = mat_of_product_tensor(qmul(p, p2), qmul(q2, q))
    assert np.abs(lhs - wrong).max() > 0.5


def test_basis_matrices_linearly_independent():
    cols = np.column_stack([qt_basis_matrix(x, y).ravel()
                            for x in BASIS_LABELS for y in BASIS_LABELS])
    assert np.linalg.matrix_rank(cols) == 16
    # Orthogonal with squared norm 4: the inverse is the transpose / 4.
    assert np.array_equal(cols.T @ cols, 4.0 * np.eye(16))


def test_expand_round_trip():
    # A real 4x4 matrix is the sum of its tr(M^T A)/4 coefficients times M.
    rng = np.random.default_rng(11)
    for _ in range(50):
        A = rng.normal(size=(4, 4))
        c = qt_coeffs(A)
        back = sum(c[a, b] * qt_basis_matrix(x, y)
                   for a, x in enumerate(BASIS_LABELS) for b, y in enumerate(BASIS_LABELS))
        assert np.abs(back - A).max() < 1e-12


def test_expand_picks_out_basis_coefficients():
    A = 2.5 * qt_basis_matrix("i", "k") - 0.5 * qt_basis_matrix("j", "1")
    c = qt_coeffs(A)
    assert abs(c[1, 3] - 2.5) < 1e-14
    assert abs(c[2, 0] + 0.5) < 1e-14
    assert abs(c[0, 0]) < 1e-14


@pytest.mark.parametrize("s,t", [(s, t) for s in PAULI_LABELS for t in PAULI_LABELS])
def test_pauli_dictionary_row(s, t):
    """Each sigma_s (x) sigma_t equals its tabulated scaled basis matrix."""
    scale, x, y = PAULI_TO_QT_TABLE[(s, t)]
    assert np.abs(scale * qt_basis_matrix(x, y) - pauli_kron(s, t)).max() < 1e-14


def test_pauli_dictionary_images_distinct():
    # A duplicated image would make the dictionary non-invertible.
    images = [PAULI_TO_QT_TABLE[(s, t)][1:] for s in PAULI_LABELS for t in PAULI_LABELS]
    assert len(set(images)) == 16


def test_mat_of_product_tensor_definition():
    """Columns are the coordinates of p * e * conj(q) over e in (1,i,j,k)."""
    rng = np.random.default_rng(12)
    p, q = Quaternion(*rng.normal(size=4)), Quaternion(*rng.normal(size=4))
    M = mat_of_product_tensor(p, q)
    for col, e in enumerate((ONE, I, J, K)):
        expected = qmul(qmul(p, e), q.conj()).as_array()
        assert np.allclose(M[:, col], expected)
