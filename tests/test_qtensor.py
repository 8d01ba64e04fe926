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
    basis_quaternion,
    expand,
    mat_of_product_tensor,
    pauli_kron,
    pauli_to_qt,
    qt_basis_matrix,
)
from su4exp.quaternion import Quaternion, qmul


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
    # Orthogonal with squared norm 4: expand's inverse is the transpose / 4.
    assert np.array_equal(cols.T @ cols, 4.0 * np.eye(16))


def test_expand_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        A = rng.normal(size=(4, 4))
        assert np.abs(expand(A).reconstruct() - A).max() < 1e-12


def test_expand_picks_out_basis_coefficients():
    A = 2.5 * qt_basis_matrix("i", "k") - 0.5 * qt_basis_matrix("j", "1")
    e = expand(A)
    assert abs(e.coeff_of("i", "k") - 2.5) < 1e-14
    assert abs(e.coeff_of("j", "1") + 0.5) < 1e-14
    assert abs(e.coeff_of("1", "1")) < 1e-14


@pytest.mark.parametrize("s,t", [(s, t) for s in PAULI_LABELS for t in PAULI_LABELS])
def test_pauli_dictionary_row(s, t):
    """Each sigma_s (x) sigma_t equals its tabulated scaled basis matrix."""
    assert np.abs(pauli_to_qt(s, t) - pauli_kron(s, t)).max() < 1e-14


def test_pauli_dictionary_images_distinct():
    # A duplicated image would make the dictionary non-invertible.
    images = [PAULI_TO_QT_TABLE[(s, t)][1:] for s in PAULI_LABELS for t in PAULI_LABELS]
    assert len(set(images)) == 16


def test_mat_of_product_tensor_definition():
    """Columns are the coordinates of p * e * conj(q) over e in (1,i,j,k)."""
    rng = np.random.default_rng(12)
    p, q = Quaternion(*rng.normal(size=4)), Quaternion(*rng.normal(size=4))
    M = mat_of_product_tensor(p, q)
    for col, label in enumerate(BASIS_LABELS):
        e = basis_quaternion(label)
        expected = qmul(qmul(p, e), q.conj()).as_array()
        assert np.allclose(M[:, col], expected)
