"""Propagators for three physical two-qubit / four-level systems.

Each Hamiltonian's shape fixes its closed form, whatever its parameters:
the tridiagonal four-level ladder is two commuting rotation factors, and
the other two, whose interaction matrix splits 2x2 + 1x1, are bisymmetric
at one split.  ``DEMOS`` holds each system once, for the library and the
CLI: its parameters (ending in the time t), propagator and generator tX.
A constant map, read off the generator at t = 1 at import, takes the other
parameters to the coefficients (v, b) of ``Su4Element``, and
``expm._linear_row`` finds its row and split and composes that row's
read-out with it, so one product gives the few coordinates the row's
formula reads, and b, of X = tX / t.

Those do not depend on t, and neither does the spectral step behind the
formula: each rotation factor is a sum of two spectral projectors, so
e^{tX} = sum_k e^{i lam_k t} P_k with four eigenvalues lam_k and four
projectors P_k (Frobenius covariants, Higham, Functions of Matrices, SIAM
2008, ch. 1), which ``expm._spectral_mapped`` builds from the row's own
tables.  A propagator checks its parameters and the range rule of
``exp_auto`` on every call.  On a Hamiltonian's first call, keyed on the
demo and the parameters other than t, it takes the row's formula at t x
(``expm._exp_mapped``), as one product and scalar Python; on the second it
builds lam_k and P_k, which costs about one and a half formula calls, and
keeps them read-only; from then on a call is four phases and one (4,) by
(4, 16) product, about half a formula call.  One ``functools.lru_cache`` of
``_CACHE_SIZE`` entries holds them, about 1.8 KB per built entry, so a
Hamiltonian called once is never built, and a loop over more Hamiltonians
than the cache holds costs a lookup per call over the formula.  No element
is built and no gate runs.  These double as integration fixtures: the tests
compare each propagator against the series reference exponential.
"""

from __future__ import annotations

import cmath
import functools
from typing import NamedTuple

import numpy as np

from .expm import (
    ExpResult,
    SymTriDiag,
    _check_params,
    _exp_mapped,
    _linear_row,
    _matrix,
    _param_map,
    _spectral_mapped,
)
from .model import Su4Element
from .oracle import _check_range

# Hamiltonians ``_slot`` keeps: 3 serve propagator-grid, which interleaves
# three; 64 built entries take about 115 KB.
_CACHE_SIZE = 64


class RabiParams(NamedTuple):
    """Four-level ladder driven by three resonant fields.

    g1, g2, g3 are the field amplitudes, E0 the common energy offset, t the
    evolution time.
    """

    g1: float = 0.0
    g2: float = 0.0
    g3: float = 0.0
    E0: float = 0.0
    t: float = 1.0


class JosephsonParams(NamedTuple):
    """Charge-qubit pair energies.  Defaults are arbitrary placeholders
    (the source model leaves the constants device-dependent)."""

    E00: float = 1.0
    E10: float = 0.5
    EJ1: float = 0.3
    EJ2: float = 0.2
    t: float = 1.0


class ScalarCouplingParams(NamedTuple):
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
    return SymTriDiag(p.g1, p.g2, p.g3).matrix().imag


def rabi_propagator(p: RabiParams) -> ExpResult:
    """U(t) = e^{-i E0 t} exp(-i C t) via the tridiagonal two-factor form."""
    return _propagate("rabi", p)


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
    return _propagate("josephson", p)


def scalar_coupling_element(p: ScalarCouplingParams) -> Su4Element:
    """tX = it(a I + b sz(x)I + c I(x)sz + d sz(x)sz + e sx(x)sx + f sy(x)sy)."""
    return Su4Element.from_canonical([0.0, 0.0, p.c * p.t], [0.0, 0.0, p.b * p.t],
                                     [p.e * p.t, p.f * p.t, p.d * p.t], scalar=p.a * p.t)


def scalar_coupling_propagator(p: ScalarCouplingParams) -> ExpResult:
    """e^{tX} = e^{iat} e^{tX0}: in the interaction matrix, sz(x)sz is the
    1x1 block and sz(x)I, I(x)sz, sx(x)sx, sy(x)sy the 2x2 block."""
    return _propagate("jcoupling", p)


# name -> (parameter NamedTuple, propagator, generator tX of the parameters)
DEMOS = {
    "rabi": (RabiParams, rabi_propagator,
             lambda p: -1j * p.t * (rabi_matrix(p) + p.E0 * np.eye(4))),
    "josephson": (JosephsonParams, josephson_propagator,
                  lambda p: -1j * p.t * josephson_matrix(p)),
    "jcoupling": (ScalarCouplingParams, scalar_coupling_propagator,
                  lambda p: scalar_coupling_element(p).entries),
}


# demo -> (A, row, split) of ``expm._linear_row`` on its constant map, read
# off the generator at t = 1 from the parameters other than t.
_ROW = {name: _linear_row(_param_map(lambda *e: generator(params(*e)), len(params._fields) - 1))
        for name, (params, _, generator) in DEMOS.items()}


# -- the cache of spectral steps --------------------------------------------

@functools.lru_cache(maxsize=_CACHE_SIZE)
def _slot(demo: str, x: tuple) -> list:
    """The entry of the demo's Hamiltonian at the parameters x other than t:
    [] before its first call, [None] after it, then from its second call on
    [(i lam, P, ||(v, b)||)] of ``expm._spectral_mapped``, or [False] where
    that overflows and the row's formula serves every call (``_propagate``)."""
    return []


def _propagate(demo: str, p) -> ExpResult:
    """e^{tX} at p: the row's formula at t x on a Hamiltonian's first call
    (``expm._exp_mapped``), its kept spectral step from the second on.

    x and t are checked before any product or lookup (``expm._check_params``),
    and the range rule of ``exp_auto`` is applied to ||tX|| = |t| ||X||.
    """
    x, t = p[:-1], p[-1]
    s = _check_params(x, t)
    row = _ROW[demo]
    try:
        slot = _slot(demo, x)
    except TypeError:  # a real number that does not hash, such as a 0-d array
        slot = _slot(demo, tuple(map(float, x)))
    if not slot:
        slot.append(None)
    elif slot[0] is None:
        slot[0] = _spectral_mapped(row, x) or False
    if slot[0]:
        ilam, P, n = slot[0]
        _check_range(4.0 * s * n)
        return ExpResult(_matrix([cmath.exp(a * t) for a in ilam], P), row[1].method)
    return _exp_mapped(row, x, t)
