"""Physical propagator fixtures: each demo system must reproduce the series
reference exponential, stay unitary, and satisfy the one-parameter group
property in the evolution time."""

import cmath

import numpy as np
import pytest

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
from su4exp.oracle import expm_reference


def _replace_t(p, t):
    return type(p)(**{**p.__dict__, "t": t})


def _check_propagator(make_params, make_generator, propagate, rng, n=50):
    for _ in range(n):
        p = make_params(rng)
        res = propagate(p)
        X = make_generator(p)
        assert np.abs(res.U.conj().T @ res.U - np.eye(4)).max() < 1e-10
        assert np.abs(res.U - expm_reference(X)).max() < 1e-10
        # group property U(t1 + t2) = U(t1) U(t2)
        t1, t2 = rng.uniform(0.1, 2.0, 2)
        U12 = propagate(_replace_t(p, t1 + t2)).U
        assert np.abs(U12 - propagate(_replace_t(p, t1)).U
                      @ propagate(_replace_t(p, t2)).U).max() < 1e-9


def test_rabi_matches_reference():
    rng = np.random.default_rng(80)
    _check_propagator(
        lambda r: RabiParams(*r.uniform(-3, 3, 3), E0=r.uniform(-2, 2),
                             t=r.uniform(0.1, 3)),
        lambda p: -1j * p.t * (rabi_matrix(p) + p.E0 * np.eye(4)),
        rabi_propagator, rng)


def test_rabi_method_and_zero_field():
    res = rabi_propagator(RabiParams(1.0, 2.0, 3.0))
    assert res.method == "tridiag"
    # No driving fields: pure global phase.
    res0 = rabi_propagator(RabiParams(0.0, 0.0, 0.0, E0=1.5, t=2.0))
    assert np.abs(res0.U - cmath.exp(-3j) * np.eye(4)).max() < 1e-13


def test_josephson_matches_reference():
    rng = np.random.default_rng(81)
    _check_propagator(
        lambda r: JosephsonParams(*r.uniform(-2, 2, 4), t=r.uniform(0.1, 3)),
        lambda p: -1j * p.t * josephson_matrix(p),
        josephson_propagator, rng)


def test_josephson_method_and_uncoupled_limit():
    res = josephson_propagator(JosephsonParams())
    assert res.method == "bisym"
    # No junction couplings: diagonal phases at the bare energies.
    p = JosephsonParams(E00=1.2, E10=0.4, EJ1=0.0, EJ2=0.0, t=1.5)
    expected = np.diag(np.exp(-1j * 1.5 * np.array([1.2, 0.4, 0.4, 1.2])))
    assert np.abs(josephson_propagator(p).U - expected).max() < 1e-12


def test_scalar_coupling_matches_reference():
    rng = np.random.default_rng(82)
    _check_propagator(
        lambda r: ScalarCouplingParams(*r.uniform(-2, 2, 6), t=r.uniform(0.1, 3)),
        lambda p: scalar_coupling_element(p).entries,
        scalar_coupling_propagator, rng)


def test_scalar_coupling_method_and_pure_offset():
    res = scalar_coupling_propagator(ScalarCouplingParams(a=1, b=1, c=1, d=1))
    assert res.method == "bisym"
    # Only the scalar offset: global phase e^{iat}.
    p = ScalarCouplingParams(a=0.7, t=2.0)
    assert np.abs(scalar_coupling_propagator(p).U
                  - cmath.exp(1j * 1.4) * np.eye(4)).max() < 1e-13


@pytest.mark.parametrize("make_params, generator, propagate", [
    (lambda r: JosephsonParams(*r.uniform(-2, 2, 4)),
     lambda p: -1j * p.t * josephson_matrix(p), josephson_propagator),
    (lambda r: ScalarCouplingParams(*r.uniform(-2, 2, 6)),
     lambda p: scalar_coupling_element(p).entries, scalar_coupling_propagator),
], ids=["josephson", "jcoupling"])
def test_bisymmetric_demos_over_time(make_params, generator, propagate):
    # The bisymmetric closed form over t in (0, 10], against the oracle.
    p = make_params(np.random.default_rng(83))
    for t in np.linspace(0.0, 10.0, 101)[1:]:
        q = _replace_t(p, float(t))
        res = propagate(q)
        assert res.method == "bisym"
        assert np.abs(res.U - expm_reference(generator(q))).max() <= 1e-12, t
