"""Hamilton algebra sanity checks."""

import numpy as np
import pytest

from su4exp.quaternion import (
    I,
    J,
    K,
    ONE,
    PureQuaternion,
    Quaternion,
    qmul,
)
from su4exp.qtensor import mat_of_product_tensor


def test_basis_multiplication_table():
    assert qmul(I, J) == K
    assert qmul(J, K) == I
    assert qmul(K, I) == J
    assert qmul(J, I) == -K
    for e in (I, J, K):
        assert qmul(e, e) == -ONE
    assert qmul(ONE, I) == I


def test_associativity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = (Quaternion(*rng.normal(size=4)) for _ in range(3))
        lhs = qmul(qmul(a, b), c).as_array()
        rhs = qmul(a, qmul(b, c)).as_array()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_norm_is_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = Quaternion(*rng.normal(size=4)), Quaternion(*rng.normal(size=4))
        assert abs(qmul(a, b).norm() - a.norm() * b.norm()) < 1e-10


def test_conjugation_reverses_products():
    rng = np.random.default_rng(2)
    a, b = Quaternion(*rng.normal(size=4)), Quaternion(*rng.normal(size=4))
    lhs = qmul(a, b).conj().as_array()
    rhs = qmul(b.conj(), a.conj()).as_array()
    assert np.allclose(lhs, rhs)
    # q qbar = |q|^2
    n2 = qmul(a, a.conj())
    assert abs(n2.w - a.norm() ** 2) < 1e-12
    assert abs(n2.x) + abs(n2.y) + abs(n2.z) < 1e-12


def test_pure_square_is_negative_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = PureQuaternion(*rng.normal(size=3))
        sq = p.as_quaternion() * p.as_quaternion()
        assert abs(sq.w + p.norm() ** 2) < 1e-12
        assert abs(sq.x) + abs(sq.y) + abs(sq.z) < 1e-12


def test_cross_matches_commutator():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = PureQuaternion(*rng.normal(size=3))
        q = PureQuaternion(*rng.normal(size=3))
        comm = (qmul(p.as_quaternion(), q.as_quaternion())
                - qmul(q.as_quaternion(), p.as_quaternion())) * 0.5
        assert np.allclose(np.cross(p.as_vector(), q.as_vector()), comm.as_array()[1:])
        assert abs(comm.w) < 1e-12


def test_left_mult_matrix_agrees_with_qmul():
    rng = np.random.default_rng(5)
    p = Quaternion(*rng.normal(size=4))
    x = Quaternion(*rng.normal(size=4))
    # x -> p x 1bar is left multiplication by p.
    assert np.allclose(mat_of_product_tensor(p, ONE) @ x.as_array(), qmul(p, x).as_array())


def test_multiplication_takes_a_quaternion_or_a_real_number():
    # A PureQuaternion, or any other non-real, is not a factor: it raises
    # rather than repeating it into the int fields as tuples or strings.
    q = Quaternion(1, -2, 0, 3)
    for other in (PureQuaternion(1, 2, 3), "a"):
        with pytest.raises(TypeError):
            q * other
    with pytest.raises(TypeError):
        PureQuaternion(1.0, 2.0, 3.0) * PureQuaternion(1.0, 2.0, 3.0)
    for s in (2, 2.5, np.float64(-1.5)):
        assert type(q * s) is Quaternion and q * s == tuple(s * q.as_array())
    assert 2 * q == q * 2 and 2.5 * q == q * 2.5


def test_numpy_scalars_scale_from_either_side():
    # A NumPy scalar on the left defers to Quaternion.__rmul__ rather than
    # multiplying the tuple as a sequence into an ndarray.
    q = Quaternion(1, 2, 3, 4)
    for s in (2, 2.0, np.float64(2), np.int64(2)):
        for r in (s * q, q * s):
            assert type(r) is Quaternion and r == (2, 4, 6, 8), (type(s), r)
