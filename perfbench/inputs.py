"""Workload inputs for the su4exp benchmark, built from NumPy alone.

Nothing here imports su4exp, so a change to the library's own samplers
(``su4exp.families``) cannot change what the benchmark measures.  Every
input carries the anti-Hermitian generator X that the oracle check
exponentiates, built here from the raw entries or the physical parameters.
Each pass of a run draws its own inputs from (seed, pass), so no input
repeats within a run.  The near-boundary probe of the traced run draws from
(seed, PROBE_STREAM), a stream no pass reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFF_RANGE = 5.0
FAMILIES = ("tridiag", "perskew", "skewham", "imsym", "bisym", "normal-split",
            "quad-I", "quad-II", "cubic-I")
DEMOS = ("rabi", "josephson", "jcoupling")
# log10 of the relative size of the anti-Hermitian noise on a family
# sample: off-structure's perturbed inputs, which every gate and classify
# reject by orders of magnitude, and the near-boundary probe, the band of
# the known classify-versus-formula-gate defect, where exp_auto raises or
# misses the oracle on about a fifth of the inputs.
PERTURB_LOG10 = (-3.0, -1.0)
BOUNDARY_LOG10 = (-12.0, -6.0)
PROBE_STREAM = 1 << 40
# The propagator grid covers t in (0, T_MAX].
T_MAX = 10.0

_I2 = np.eye(2, dtype=complex)
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


@dataclass(frozen=True)
class Case:
    """One input of a workload.

    ``kind`` is "matrix" (``payload``: raw complex 4x4 entries) or a demo
    name from ``DEMOS`` (``payload``: its physical parameters, ending in t).
    ``generator`` is X with U = e^X, the input of the oracle check.
    """

    kind: str
    payload: object
    generator: np.ndarray
    label: str


# -- Pauli and quaternion-tensor bases -----------------------------------

def pauli_generator(alpha, beta, gamma, scalar: float = 0.0) -> np.ndarray:
    """X = i(sum_k alpha_k I(x)s_k + beta_k s_k(x)I + gamma_jk s_j(x)s_k + scalar I)."""
    H = scalar * np.eye(4, dtype=complex)
    for j in range(3):
        H += alpha[j] * np.kron(_I2, _SIGMA[j]) + beta[j] * np.kron(_SIGMA[j], _I2)
        for k in range(3):
            H += gamma[j][k] * np.kron(_SIGMA[j], _SIGMA[k])
    return 1j * H


def _left(p) -> np.ndarray:
    """Matrix of x -> p x on quaternions (w, x, y, z)."""
    w, x, y, z = p
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def _right(q) -> np.ndarray:
    """Matrix of x -> x q on quaternions (w, x, y, z)."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


def qt_matrix(p, q) -> np.ndarray:
    """M_{p (x) q}: the real 4x4 matrix of x -> p x conj(q)."""
    return _left(p) @ _right((q[0], -q[1], -q[2], -q[3]))


def _pure(v) -> tuple:
    return (0.0, float(v[0]), float(v[1]), float(v[2]))


_ONE = (1.0, 0.0, 0.0, 0.0)
_PURE_BASIS = [_pure(e) for e in np.eye(3)]


def quintuple_generator(p, q, Cmat) -> np.ndarray:
    """X = B + iC with B = M_{p(x)1} + M_{1(x)q}, C = sum_ab Cmat[a, b] M_{e_a(x)e_b}."""
    B = qt_matrix(_pure(p), _ONE) + qt_matrix(_ONE, _pure(q))
    C = sum(Cmat[a, b] * qt_matrix(_PURE_BASIS[a], _PURE_BASIS[b])
            for a in range(3) for b in range(3))
    return B + 1j * C


# -- exact family samples -------------------------------------------------

def _u(rng, size=None):
    return rng.uniform(-COEFF_RANGE, COEFF_RANGE, size)


def _haar_unitary(rng) -> np.ndarray:
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _tridiag(rng):
    T = np.zeros((4, 4))
    for k, v in enumerate(_u(rng, 3)):
        T[k, k + 1] = T[k + 1, k] = v
    return 1j * T


def _perskew(rng):
    p1, p2, a, q1, q2, b = _u(rng, 6)
    gamma = np.zeros((3, 3))
    gamma[0, 2], gamma[1, 2], gamma[2, 0], gamma[2, 1] = p2, a, q2, b
    return pauli_generator([0, 0, q1], [0, 0, p1], gamma)


def _skewham(rng):
    p1, p2, p3, c, d, b = _u(rng, 6)
    gamma = np.zeros((3, 3))
    gamma[1, 1], gamma[2, 1], gamma[0, 1] = p1, c, d
    return pauli_generator([p3, 0, p2], [0, 0, 0], gamma, scalar=b)


def _imsym(rng):
    C = _u(rng, (4, 4))
    C = 0.5 * (C + C.T)
    return 1j * (C - np.trace(C) / 4.0 * np.eye(4))


def _bisym(rng):
    Cmat = np.zeros((3, 3))
    Cmat[:2, :2] = _u(rng, (2, 2))
    Cmat[2, 2] = _u(rng)
    return quintuple_generator(np.zeros(3), np.zeros(3), Cmat)


def _normal_split(rng):
    # C = 0 makes [B, C] = 0 while both rotation factors of e^B are generic.
    return quintuple_generator(_u(rng, 3), _u(rng, 3), np.zeros((3, 3)))


def _quad_I(rng):
    c = rng.uniform(0.1, COEFF_RANGE)
    Q = _haar_unitary(rng)
    return c * Q @ np.diag([1j, 1j, -1j, -1j]) @ Q.conj().T


def _quad_II(rng):
    # bt = sqrt(1 + |p|^2), C = sqrtm(I + p p^T) diag(1, 1, -1), q = C^-1 bt p
    # satisfy the three quadratic-type-II conditions on the quintuple.
    p = _u(rng, 3)
    while np.linalg.norm(p) < 0.1:
        p = _u(rng, 3)
    n = float(p @ p)
    bt = np.sqrt(1.0 + n)
    C = (np.eye(3) + ((bt - 1.0) / n) * np.outer(p, p)) @ np.diag([1.0, 1.0, -1.0])
    return quintuple_generator(p, np.linalg.solve(C, bt * p), C)


def _cubic_I(rng):
    c = rng.uniform(0.1, COEFF_RANGE)
    Q = _haar_unitary(rng)
    A = Q @ np.diag([0.0, 0.0, 1j * c, -1j * c]) @ Q.conj().T
    return 0.5 * (A - A.conj().T)


SAMPLERS = dict(zip(FAMILIES, (_tridiag, _perskew, _skewham, _imsym, _bisym,
                               _normal_split, _quad_I, _quad_II, _cubic_I)))


def _gue(rng) -> np.ndarray:
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (Z + Z.conj().T)


# -- physical propagators -------------------------------------------------

def rabi_generator(g1, g2, g3, E0, t) -> np.ndarray:
    """-i t (C + E0 I) for the ladder coupling C with off-diagonals g1, g2, g3."""
    C = np.diag([g1, g2, g3], 1)
    return -1j * t * (C + C.T + E0 * np.eye(4))


def josephson_generator(E00, E10, EJ1, EJ2, t) -> np.ndarray:
    """-i t H for the two-junction charge-qubit Hamiltonian."""
    a, b = -EJ1 / 2.0, -EJ2 / 2.0
    H = np.array([[E00, a, b, 0.0], [a, E10, 0.0, b],
                  [b, 0.0, E10, a], [0.0, b, a, E00]])
    return -1j * t * H


def jcoupling_generator(a, b, c, d, e, f, t) -> np.ndarray:
    """i t (a I + b sz(x)I + c I(x)sz + d sz(x)sz + e sx(x)sx + f sy(x)sy)."""
    return pauli_generator([0, 0, c * t], [0, 0, b * t],
                           np.diag([e * t, f * t, d * t]), scalar=a * t)


DEMO_GENERATORS = {"rabi": rabi_generator, "josephson": josephson_generator,
                   "jcoupling": jcoupling_generator}


# -- workloads ------------------------------------------------------------

def structured(rng, n: int) -> list[Case]:
    """n exact samples of each family, shuffled."""
    cases = [Case("matrix", X, X, fam)
             for fam in FAMILIES for X in (SAMPLERS[fam](rng) for _ in range(n))]
    return [cases[i] for i in rng.permutation(len(cases))]


def _perturbed(rng, fam: str, log10_range: tuple, label: str) -> Case:
    """A sample of ``fam`` plus anti-Hermitian noise of log-uniform relative size."""
    S = SAMPLERS[fam](rng)
    E = _gue(rng)
    eps = 10.0 ** rng.uniform(*log10_range)
    X = S + 1j * E * (eps * np.linalg.norm(S) / np.linalg.norm(E))
    return Case("matrix", X, X, label)


def off_structure(rng, n: int) -> list[Case]:
    """9n generic generators plus n perturbed samples per family, shuffled."""
    cases = []
    for _ in range(len(FAMILIES) * n):
        # Frobenius norm drawn from the family samples' own distribution.
        target = np.linalg.norm(SAMPLERS[FAMILIES[rng.integers(len(FAMILIES))]](rng))
        H = _gue(rng)
        X = 1j * H * (target / np.linalg.norm(H))
        cases.append(Case("matrix", X, X, "generic"))
    cases += [_perturbed(rng, fam, PERTURB_LOG10, "perturbed-" + fam)
              for fam in FAMILIES for _ in range(n)]
    return [cases[i] for i in rng.permutation(len(cases))]


def near_boundary(seed: int, n: int) -> list[Case]:
    """n samples per family with noise in the band of the known defect."""
    rng = np.random.default_rng([seed, PROBE_STREAM])
    return [_perturbed(rng, fam, BOUNDARY_LOG10, "near-" + fam)
            for fam in FAMILIES for _ in range(n)]


def demo_params(rng) -> dict[str, tuple]:
    """Fixed physical parameters of the three demos."""
    params = {
        "rabi": (*rng.uniform(0.2, 2.0, 3), rng.uniform(-1.0, 1.0)),
        "josephson": (rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0),
                      *rng.uniform(0.1, 0.5, 2)),
        "jcoupling": tuple(rng.uniform(-1.0, 1.0, 6)),
    }
    return {k: tuple(float(x) for x in v) for k, v in params.items()}


def propagator_grid(rng, n: int, params: dict[str, tuple]) -> list[Case]:
    """The three demos at ``params`` over n grid times each, the grid offset
    by a random fraction of its step."""
    cases = []
    for t in T_MAX * (np.arange(n) + rng.uniform(0.0, 1.0)) / n:
        for demo in DEMOS:
            payload = (*params[demo], float(t))
            cases.append(Case(demo, payload, DEMO_GENERATORS[demo](*payload), demo))
    return cases


WORKLOADS = {"structured": structured, "off-structure": off_structure,
             "propagator-grid": propagator_grid}


def build(workload: str, seed: int, n: int, pass_index: int = 0) -> list[Case]:
    """The inputs of one pass of a workload.

    The same (workload, seed, n, pass_index) gives the same inputs; another
    pass index gives fresh ones.  The demo parameters of propagator-grid
    depend on the seed alone.
    """
    rng = np.random.default_rng([seed, pass_index])
    if workload == "propagator-grid":
        return propagator_grid(rng, n, demo_params(np.random.default_rng(seed)))
    return WORKLOADS[workload](rng, n)
