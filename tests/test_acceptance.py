"""Acceptance suite.

Eight gating criteria, one test each.  Every test prints a single
``ACCEPTANCE n (<name>): PASS|FAIL`` line directly to the terminal (outside
pytest's capture) so the run log always shows the per-criterion outcome.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from su4exp.classify import (
    charpoly,
    check_quadratic_II_conditions,
    classify,
    construct_quadratic_II_example,
    is_normal_type,
)
from su4exp.demos import (
    JosephsonParams,
    RabiParams,
    ScalarCouplingParams,
    josephson_matrix,
    josephson_propagator,
    rabi_matrix,
    rabi_propagator,
    scalar_coupling_element,
    scalar_coupling_propagator,
)
from su4exp.expm import exp_auto, exp_cubic_I, exp_quadratic_I, exp_quadratic_II
from su4exp.families import FAMILIES, time_family
from su4exp.model import Su4Element
from su4exp.oracle import expm_reference
from su4exp.qtensor import (
    PAULI_LABELS,
    PAULI_TO_QT_TABLE,
    mat_of_product_tensor,
    qt_basis_matrix,
)
from su4exp.quaternion import Quaternion, qmul

from reference import (
    charpoly_canonical,
    eigvals_hermitian,
    normal_type_conditions_canonical,
    pauli_kron,
)


@contextmanager
def _report(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): PASS")


def _random_su4(rng):
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = 0.5 * (A - A.conj().T)
    return A - np.trace(A) / 4.0 * np.eye(4)


def test_acceptance_1_basis_table_and_homomorphism(capsys):
    with _report(capsys, 1, "basis table + homomorphism"):
        t0 = time.perf_counter()
        for s in PAULI_LABELS:
            for t in PAULI_LABELS:
                scale, x, y = PAULI_TO_QT_TABLE[(s, t)]
                assert np.abs(scale * qt_basis_matrix(x, y) - pauli_kron(s, t)).max() < 1e-14
        rng = np.random.default_rng(100)
        for _ in range(1000):
            p, q, p2, q2 = (Quaternion(*rng.normal(size=4)) for _ in range(4))
            lhs = mat_of_product_tensor(p, q) @ mat_of_product_tensor(p2, q2)
            rhs = mat_of_product_tensor(qmul(p, p2), qmul(q, q2))
            assert np.abs(lhs - rhs).max() < 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_2_oracle_equivalence(capsys):
    with _report(capsys, 2, "oracle equivalence, 9 families x 1000"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for name, (sampler, _) in FAMILIES.items():
            for _ in range(1000):
                X = sampler(rng)
                res = exp_auto(X)
                assert res.method != "oracle", name
                U = res.U
                assert np.linalg.norm(U.conj().T @ U - np.eye(4)) <= 1e-10, name
                assert np.linalg.norm(U - expm_reference(X.entries)) <= 1e-9, name
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_3_cayley_hamilton_and_coefficients(capsys):
    with _report(capsys, 3, "Cayley-Hamilton + charpoly coefficients"):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            A = _random_su4(rng) * rng.uniform(0.2, 5)
            X = Su4Element(A)
            cp = charpoly(X)
            A2 = A @ A
            res = A2 @ A2 + cp.mu * A2 + cp.nu * A + cp.pi * np.eye(4)
            scale = max(1.0, float(np.linalg.norm(A)) ** 4)
            assert np.linalg.norm(res) <= 1e-9 * scale
            w = eigvals_hermitian(-1j * A)  # eigenvalues of X are i*w
            lam = 1j * w
            e2 = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
            e3 = sum(lam[i] * lam[j] * lam[k]
                     for i in range(4) for j in range(i + 1, 4)
                     for k in range(j + 1, 4))
            e4 = np.prod(lam)
            assert abs(cp.mu - e2.real) <= 1e-9 * scale
            assert abs(abs(cp.nu) - abs(e3)) <= 1e-9 * scale
            assert abs(cp.pi - e4.real) <= 1e-9 * scale
        for _ in range(200):
            a, b, c = rng.uniform(-3, 3, (3, 3))
            mu, _ = charpoly_canonical(a, b, c)
            cp = charpoly(Su4Element.from_pauli_coeffs(a, b, np.diag(c)))
            assert abs(cp.mu - mu) <= 1e-9


def test_acceptance_4_classification_fixtures(capsys):
    with _report(capsys, 4, "classification fixtures"):
        # quadratic type I: i sigma_z (x) sigma_z
        A = 1j * pauli_kron("z", "z")
        r = classify(Su4Element(A))
        assert r.tag == "quadratic-I" and abs(r.c2 - 1.0) < 1e-12
        U = exp_quadratic_I(Su4Element(A)).U
        assert np.abs(U - expm_reference(A)).max() <= 1e-9

        # cubic type I: c3 = -1 member of the rotation-formula family
        A = 1j * (pauli_kron("0", "x") + pauli_kron("x", "0")
                  + pauli_kron("y", "y") - pauli_kron("z", "z"))
        r = classify(Su4Element(A))
        assert r.tag == "cubic-I" and abs(r.c2 - 8.0) < 1e-10
        w = np.sort(eigvals_hermitian(-1j * A))
        expected = np.sort([0.0, 0.0, 2.0 * math.sqrt(2.0), -2.0 * math.sqrt(2.0)])
        assert np.abs(w - expected).max() < 1e-10
        U = exp_cubic_I(Su4Element(A)).U
        assert np.abs(U - expm_reference(A)).max() <= 1e-9

        # quadratic type II: isotropic exchange -iJ(xx + yy + zz)
        for J in (1.0, 0.7):
            A = -1j * J * (pauli_kron("x", "x") + pauli_kron("y", "y")
                           + pauli_kron("z", "z"))
            r = classify(Su4Element(A))
            assert r.tag == "quadratic-II"
            # x^2 + 2 beta x + gamma = x^2 - 2iJ x + 3J^2
            assert abs(r.beta - (-1j * J)) < 1e-10
            assert abs(r.gamma - 3.0 * J * J) < 1e-10
            U = exp_quadratic_II(Su4Element(A)).U
            assert np.abs(U - expm_reference(A)).max() <= 1e-9


def test_acceptance_5_quadratic_II_constructions(capsys):
    with _report(capsys, 5, "quadratic-II construction conditions"):
        rng = np.random.default_rng(103)
        # rank-one interaction with unit p = u, q = v
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            C = np.outer(u, v)
            X = Su4Element.from_quintuple(u, v, C[:, 0], C[:, 1], C[:, 2])
            bt = check_quadratic_II_conditions(X)
            assert bt is not None and abs(bt - 1.0) < 1e-9
        # invertible-C construction: C C^T = I + p p^T, det C = -bt
        for _ in range(100):
            p = rng.uniform(-2, 2, 3)
            while np.linalg.norm(p) < 1e-3:
                p = rng.uniform(-2, 2, 3)
            X = construct_quadratic_II_example(p)
            bt = check_quadratic_II_conditions(X)
            assert bt is not None
            assert abs(bt - math.sqrt(1.0 + float(p @ p))) < 1e-9
            C = X.quintuple.Cmat
            assert np.abs(C @ C.T - np.eye(3) - np.outer(p, p)).max() < 1e-9
            assert abs(np.linalg.det(C) + bt) < 1e-9
        # exactly one of p, q zero: conditions must fail
        for _ in range(100):
            p = rng.uniform(-2, 2, 3)
            while np.linalg.norm(p) < 0.1:
                p = rng.uniform(-2, 2, 3)
            C = rng.uniform(-2, 2, (3, 3))
            while abs(np.linalg.det(C)) < 0.1:
                C = rng.uniform(-2, 2, (3, 3))
            z = np.zeros(3)
            args = (p, z) if rng.random() < 0.5 else (z, p)
            X = Su4Element.from_quintuple(args[0], args[1],
                                          C[:, 0], C[:, 1], C[:, 2])
            assert check_quadratic_II_conditions(X) is None


def test_acceptance_6_normality(capsys):
    with _report(capsys, 6, "normality identity + canonical conditions"):
        rng = np.random.default_rng(104)
        # is_normal_type's commutator is the cross-product identity
        # [B, C] = 2 sum_ab K_ab M_{e_a (x) e_b}; it agrees with B C - C B,
        # B and C the real and imaginary parts of X0, to 1e-12.
        for _ in range(1000):
            X = Su4Element(_random_su4(rng))
            ok, comm = is_normal_type(X)
            B, C = X.traceless.real, X.traceless.imag
            assert np.abs(comm - (B @ C - C @ B)).max() < 1e-12
        # canonical-form sweeps with structured zero patterns
        for _ in range(1000):
            a = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
            b = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
            c = np.where(rng.random(3) < 0.5, 0.0, rng.normal(size=3))
            X = Su4Element.from_pauli_coeffs(a, b, np.diag(c))
            ok, _ = is_normal_type(X)
            assert ok == normal_type_conditions_canonical(a, b, c)
        # boundary |b2/a2| = 1 with matched/mismatched c1, c3
        for s in (1.0, -1.0):
            a = [0.0, 1.3, 0.0]
            b = [0.0, s * 1.3, 0.0]
            good = [0.4, 0.9, s * 0.4]
            X = Su4Element.from_pauli_coeffs(a, b, np.diag(good))
            ok, _ = is_normal_type(X)
            assert ok and normal_type_conditions_canonical(a, b, good)
            bad = [0.4, 0.9, -s * 0.4]
            Y = Su4Element.from_pauli_coeffs(a, b, np.diag(bad))
            ok, _ = is_normal_type(Y)
            assert not ok and not normal_type_conditions_canonical(a, b, bad)


def test_acceptance_7_illustrations(capsys):
    with _report(capsys, 7, "illustration propagators"):
        rng = np.random.default_rng(105)
        for _ in range(50):
            p = RabiParams(*rng.uniform(-3, 3, 3), E0=rng.uniform(-2, 2),
                           t=rng.uniform(0.1, 3))
            res = rabi_propagator(p)
            assert res.method == "tridiag"
            A = -1j * p.t * (p.E0 * np.eye(4) + rabi_matrix(p))
            assert np.abs(res.U - expm_reference(A)).max() <= 1e-10
        for _ in range(50):
            p = JosephsonParams(*rng.uniform(-2, 2, 4), t=rng.uniform(0.1, 3))
            res = josephson_propagator(p)
            assert res.method == "bisym"
            A = -1j * p.t * josephson_matrix(p)
            assert np.abs(res.U - expm_reference(A)).max() <= 1e-10
        for _ in range(50):
            p = ScalarCouplingParams(*rng.uniform(-2, 2, 6), t=rng.uniform(0.1, 3))
            res = scalar_coupling_propagator(p)
            assert res.method == "bisym"
            A = scalar_coupling_element(p).entries
            assert np.abs(res.U - expm_reference(A)).max() <= 1e-10


def test_acceptance_8_benchmark_sanity(capsys):
    with _report(capsys, 8, "benchmark sanity (informational)"):
        rng = np.random.default_rng(106)
        # Each row goes to the terminal before its asserts, so the log shows
        # the margins, and the row that failed.
        with capsys.disabled():
            print()
        for name in FAMILIES:
            mc, mo, me, max_err = time_family(name, rng, 100)
            with capsys.disabled():
                print(f"    {name:>12}: closed {mc:>8.0f} ns | oracle {mo:>8.0f} ns | "
                      f"closed/oracle {mc / mo:.2f} | eigh {me:>8.0f} ns | "
                      f"max_err {max_err:.2e}")
            assert max_err <= 1e-9, name
            assert mc < mo, (name, mc, mo)
