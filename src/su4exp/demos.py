"""Propagators for three physical two-qubit / four-level systems.

Each constructor builds the Hamiltonian from physical parameters and
exponentiates -iHt through the closed form its shape calls for, scalar
coefficients times a constant table: nine, from two commuting rotation
factors, for the tridiagonal four-level ladder, and six, from two 2x2
rotations, for the other two, whose interaction matrix splits 2x2 + 1x1.
These double as integration fixtures: the tests compare each propagator
against the series reference exponential.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .expm import ExpResult, SymTriDiag, exp_bisymmetric_fast, exp_tridiag
from .model import Su4Element


@dataclass(frozen=True)
class RabiParams:
    """Four-level ladder driven by three resonant fields.

    g1, g2, g3 are the field amplitudes, E0 the common energy offset, t the
    evolution time.
    """

    g1: float
    g2: float
    g3: float
    E0: float = 0.0
    t: float = 1.0


@dataclass(frozen=True)
class JosephsonParams:
    """Charge-qubit pair energies.  Defaults are arbitrary placeholders
    (the source model leaves the constants device-dependent)."""

    E00: float = 1.0
    E10: float = 0.5
    EJ1: float = 0.3
    EJ2: float = 0.2
    t: float = 1.0


@dataclass(frozen=True)
class ScalarCouplingParams:
    """NMR scalar-coupling Hamiltonian coefficients.

    H = -(a I + b sz(x)I + c I(x)sz + d sz(x)sz + e sx(x)sx + f sy(x)sy),
    i.e. the generator is X = i(a I + ... ).
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0
    t: float = 1.0


def rabi_matrix(p: RabiParams) -> np.ndarray:
    """The coupling matrix C: tridiagonal, zero diagonal, off-diagonals g_i."""
    C = np.zeros((4, 4))
    for k, g in enumerate((p.g1, p.g2, p.g3)):
        C[k, k + 1] = C[k + 1, k] = g
    return C


def rabi_propagator(p: RabiParams) -> ExpResult:
    """U(t) = e^{-i E0 t} exp(-i C t) via the tridiagonal two-factor form."""
    res = exp_tridiag(SymTriDiag(alpha=-p.g1 * p.t, beta=-p.g2 * p.t,
                                 gamma=-p.g3 * p.t))
    U = cmath.exp(-1j * p.E0 * p.t) * res.U
    return ExpResult(U=U, method=res.method)


def josephson_matrix(p: JosephsonParams) -> np.ndarray:
    """The 4x4 two-junction Hamiltonian H."""
    return np.array([
        [p.E00, -p.EJ1 / 2, -p.EJ2 / 2, 0.0],
        [-p.EJ1 / 2, p.E10, 0.0, -p.EJ2 / 2],
        [-p.EJ2 / 2, 0.0, p.E10, -p.EJ1 / 2],
        [0.0, -p.EJ2 / 2, -p.EJ1 / 2, p.E00],
    ])


def josephson_propagator(p: JosephsonParams) -> ExpResult:
    """e^{-iHt}: scalar part -(E00+E10)t/2 plus a bisymmetric remainder."""
    X = Su4Element(-1j * p.t * josephson_matrix(p))
    return exp_bisymmetric_fast(X)


def scalar_coupling_element(p: ScalarCouplingParams) -> Su4Element:
    """tX = it(a I + b sz(x)I + c I(x)sz + d sz(x)sz + e sx(x)sx + f sy(x)sy)."""
    gamma = np.zeros((3, 3))
    gamma[0, 0] = p.e * p.t
    gamma[1, 1] = p.f * p.t
    gamma[2, 2] = p.d * p.t
    return Su4Element.from_pauli_coeffs(
        alpha=[0.0, 0.0, p.c * p.t], beta=[0.0, 0.0, p.b * p.t],
        gamma=gamma, scalar=p.a * p.t)


def scalar_coupling_propagator(p: ScalarCouplingParams) -> ExpResult:
    """e^{tX} = e^{iat} e^{tX0}: in the interaction matrix, sz(x)sz is the
    1x1 block and sz(x)I, I(x)sz, sx(x)sx, sy(x)sy the 2x2 block."""
    return exp_bisymmetric_fast(scalar_coupling_element(p))
