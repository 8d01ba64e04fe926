"""Random instance generators for the structured matrix families.

Used by the oracle-equivalence tests and the benchmark: each row of
``FAMILY_TABLE`` pairs a sampler (coefficients uniform in [-5, 5]) with the
row's closed form, and ``time_family`` times that closed form against the
reference exponential and a NumPy ``eigh`` spectral exponential.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from typing import NamedTuple

import numpy as np

from .classify import construct_quadratic_II_example
from .expm import SymTriDiag, closed_form
from .model import Su4Element
from .oracle import expm_reference
from .quaternion import PureQuaternion

COEFF_RANGE = 5.0


def _u(rng, n):
    return rng.uniform(-COEFF_RANGE, COEFF_RANGE, n)


def _haar_unitary(rng) -> np.ndarray:
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def sample_tridiag(rng) -> Su4Element:
    a, b, g = _u(rng, 3)
    return Su4Element(SymTriDiag(a, b, g).matrix())


def sample_perskew(rng) -> Su4Element:
    p1, p2, a, q1, q2, b = _u(rng, 6)
    gamma = np.zeros((3, 3))
    gamma[0, 2], gamma[1, 2], gamma[2, 0], gamma[2, 1] = p2, a, q2, b
    return Su4Element.from_pauli_coeffs([0, 0, q1], [0, 0, p1], gamma)


def sample_skewham(rng) -> Su4Element:
    p1, p2, p3, c, d = _u(rng, 5)
    b = rng.uniform(-COEFF_RANGE, COEFF_RANGE)
    gamma = np.zeros((3, 3))
    gamma[1, 1], gamma[2, 1], gamma[0, 1] = p1, c, d
    return Su4Element.from_pauli_coeffs([p3, 0, p2], [0, 0, 0], gamma, scalar=b)


def sample_imsym(rng) -> Su4Element:
    C = _u(rng, (4, 4))
    C = 0.5 * (C + C.T)
    C -= np.trace(C) / 4.0 * np.eye(4)
    return Su4Element(1j * C)


def sample_bisym(rng) -> Su4Element:
    Cmat = np.zeros((3, 3))
    Cmat[:2, :2] = _u(rng, (2, 2))
    Cmat[2, 2] = rng.uniform(-COEFF_RANGE, COEFF_RANGE)
    return Su4Element.from_quintuple([0, 0, 0], [0, 0, 0],
                                     Cmat[:, 0], Cmat[:, 1], Cmat[:, 2])


def _unit(rng) -> np.ndarray:
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


def sample_normal_split(rng) -> Su4Element:
    """p = a u, q = b w and Cmat = c u w^T for unit u, w: then
    K = [p]x Cmat - Cmat [q]x = 0, as [u]x u = 0 and w^T [w]x = 0, so
    [B, C] = 0 with both factors of e^B and the rank-one e^{iC} exercised."""
    a, b, c = _u(rng, 3)
    u, w = _unit(rng), _unit(rng)
    Cmat = c * np.outer(u, w)
    return Su4Element.from_quintuple(a * u, b * w, Cmat[:, 0], Cmat[:, 1], Cmat[:, 2])


def sample_quad_I(rng) -> Su4Element:
    c = rng.uniform(0.1, COEFF_RANGE)
    Q = _haar_unitary(rng)
    return Su4Element(c * Q @ np.diag([1j, 1j, -1j, -1j]) @ Q.conj().T)


def sample_quad_II(rng) -> Su4Element:
    p = _u(rng, 3)
    while np.linalg.norm(p) < 0.1:
        p = _u(rng, 3)
    return construct_quadratic_II_example(PureQuaternion(*p))


def sample_cubic_I(rng) -> Su4Element:
    c = rng.uniform(0.1, COEFF_RANGE)
    Q = _haar_unitary(rng)
    A = Q @ np.diag([0.0, 0.0, 1j * c, -1j * c]) @ Q.conj().T
    return Su4Element(0.5 * (A - A.conj().T))


_SAMPLERS = {
    "tridiag": sample_tridiag,
    "perskew": sample_perskew,
    "skewham": sample_skewham,
    "imsym": sample_imsym,
    "bisym": sample_bisym,
    "normal-split": sample_normal_split,
    "quad-I": sample_quad_I,
    "quad-II": sample_quad_II,
    "cubic-I": sample_cubic_I,
}

# family method -> (sampler(rng) -> Su4Element, closed_form(Su4Element) -> ExpResult),
# in the order above, which fixes the streams of seeded samples drawn family by family.
FAMILIES = {name: (sampler, partial(closed_form, name))
            for name, sampler in _SAMPLERS.items()}


def eigh_exp(A: np.ndarray) -> np.ndarray:
    """e^A for anti-Hermitian A from the spectral decomposition of H = iA."""
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * w)) @ V.conj().T


class FamilyTiming(NamedTuple):
    """Medians over the samples of one family, in ns, and the closed form's
    largest ||U - U_reference||_F."""

    closed_ns: float  # the closed form on a built Su4Element
    oracle_ns: float  # the Taylor reference from the entries
    eigh_ns: float    # eigh_exp from the entries
    max_err: float


def time_family(name: str, rng: np.random.Generator, trials: int) -> FamilyTiming:
    """Time the closed form, the reference and ``eigh_exp`` on ``trials``
    samples of family ``name``.

    ``eigh_exp`` runs in a pass of its own after the other two, so that the
    closed form and the reference alternate as they would without it.
    """
    sampler, closed = FAMILIES[name]
    samples = [sampler(rng) for _ in range(trials)]
    # An element builds its entries on first access: outside the timings.
    entries = [X.entries for X in samples]
    t_closed, t_oracle, t_eigh, max_err = [], [], [], 0.0
    for X, A in zip(samples, entries):
        t0 = time.perf_counter_ns()
        U = closed(X).U
        t1 = time.perf_counter_ns()
        Uo = expm_reference(A)
        t2 = time.perf_counter_ns()
        t_closed.append(t1 - t0)
        t_oracle.append(t2 - t1)
        max_err = max(max_err, float(np.linalg.norm(U - Uo)))
    for A in entries:
        t0 = time.perf_counter_ns()
        eigh_exp(A)
        t_eigh.append(time.perf_counter_ns() - t0)
    return FamilyTiming(statistics.median(t_closed), statistics.median(t_oracle),
                        statistics.median(t_eigh), max_err)
