"""Test-side references: matrices built from their definitions, the
paper's canonical-form formulas, and a Jacobi eigenvalue solver independent
of LAPACK, that the library is checked against.

Nothing in the library calls these; the tests compare the library's own
maps with them.
"""

import math

import numpy as np

from su4exp.qtensor import BASIS_LABELS, PAULI, mat_of_product_tensor, qt_basis_matrix
from su4exp.quaternion import ONE, PureQuaternion, Quaternion


def pauli_kron(s: str, t: str) -> np.ndarray:
    """sigma_s (x) sigma_t as a complex 4x4 matrix."""
    return np.kron(PAULI[s], PAULI[t])


def _pure(u) -> Quaternion:
    """A pure quaternion, given as such or as a 3-vector."""
    return (u if isinstance(u, PureQuaternion) else PureQuaternion.from_vector(u)).as_quaternion()


def mat_pure_pure(u, v) -> np.ndarray:
    """M_{u (x) v} for pure quaternions u, v, given as such or as 3-vectors."""
    return mat_of_product_tensor(_pure(u), _pure(v))


def quintuple_matrices(p, q, r, s, t) -> tuple[np.ndarray, np.ndarray]:
    """B = M_{p (x) 1} + M_{1 (x) q} and C = M_{r (x) i} + M_{s (x) j} +
    M_{t (x) k}, for pure quaternions given as such or as 3-vectors."""
    B = mat_of_product_tensor(_pure(p), ONE) + mat_of_product_tensor(ONE, _pure(q))
    C = sum(mat_pure_pure(x, e) for x, e in zip((r, s, t), np.eye(3)))
    return B, C


def cross_matrix(p) -> np.ndarray:
    """[p]x, the matrix of w -> p x w, for a 3-vector p."""
    x, y, z = p
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def qt_coeffs(A) -> np.ndarray:
    """Coefficients c[x, y] of a real 4x4 A = sum c[x, y] M_{e_x (x) e_y},
    indexed in the (1, i, j, k) order: tr(M^T A) / 4, as the basis matrices
    are orthogonal with squared norm 4 in the trace inner product."""
    return np.array([[np.sum(qt_basis_matrix(x, y) * A) / 4.0 for y in BASIS_LABELS]
                     for x in BASIS_LABELS])


def charpoly_canonical(a, b, c) -> tuple[float, complex]:
    """Closed-form mu and nu for a generator in canonical form.

    mu = 2 sum(a_i^2 + b_i^2 + c_i^2); nu = 8i (sum a_i b_i c_i - c1 c2 c3),
    with the overall sign of nu calibrated once against Newton's identities
    on the fixture a = b = c = (1, 0, 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    mu = 2.0 * float((a * a + b * b + c * c).sum())
    nu = 8j * (float((a * b * c).sum()) - float(np.prod(c)))
    return mu, nu


def normal_type_conditions_canonical(a, b, c, tol: float = 1e-10) -> bool:
    """Normality condition sets for a generator in canonical form.

    With p = (-a2, 0, 0) and q = (0, b2, 0), [B, C] vanishes iff

      i)   a2 != 0, b2 = 0:  a1 = a3 = c1 = c3 = 0
      ii)  a2 != 0, b2 != 0: a1 = a3 = b1 = b3 = 0 and
           c3 b2 = c1 a2 and a2 c3 = c1 b2  (these force |b2/a2| = |c1/c3|
           = 1 when the c's are nonzero, with correlated signs)
      iii) a2 = 0, b2 != 0:  b1 = b3 = c1 = c3 = 0

    Evaluated in cross-multiplied form, which handles zero denominators and
    is exactly equivalent to the component equations of the commutator.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m = max(1.0, float(np.abs(np.concatenate([a, b, c])).max()) ** 2)
    eqs = [
        b[0] * b[1],
        a[0] * a[1],
        a[1] * a[2],
        b[2] * b[1],
        c[2] * b[1] - c[0] * a[1],
        a[1] * c[2] - c[0] * b[1],
    ]
    return all(abs(e) <= tol * m for e in eqs)


def quadratic_distance(X: np.ndarray, beta: complex, gamma: complex) -> float:
    """||X^2 + 2 beta X + gamma I||_F / omega, omega^2 = |gamma - beta^2|: the
    error bound of the quadratic formula (quadratic type I is beta = 0), in
    its matrix form; inf at omega = 0."""
    omega = math.sqrt(abs(gamma - beta * beta))
    if not omega:
        return math.inf
    return float(np.linalg.norm(X @ X + gamma * np.eye(len(X)) + 2.0 * beta * X)) / omega


def cubic_distance(X: np.ndarray, c2: complex) -> float:
    """2 ||X^3 + c^2 X||_F / |c^2|: the error bound of the cubic formula, in
    its matrix form; inf at c^2 = 0."""
    if not c2:
        return math.inf
    return 2.0 * float(np.linalg.norm(X @ (X @ X + c2 * np.eye(len(X))))) / abs(c2)


def _hermitian_2x2_rotation(a: float, b: float, h: complex) -> np.ndarray:
    """Unitary 2x2 G whose columns are eigenvectors of [[a, h], [conj(h), b]].

    a, b are real diagonal entries.  Returned with the eigenvector of the
    smaller eigenvalue first.
    """
    d = 0.5 * (a - b)
    r = math.hypot(abs(h), d)
    lo = 0.5 * (a + b) - r
    # Eigenvector for lo: (h, lo - a), unless that pair degenerates.
    v = np.array([h, lo - a], dtype=complex)
    if np.abs(v).max() < 1e-300:
        v = np.array([lo - b, np.conj(h)], dtype=complex)
    v = v / np.linalg.norm(v)
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)
    return np.column_stack([v, w])


def eigvals_hermitian(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations, ascending.

    The input must be Hermitian to 1e-12 times its largest entry (or 1).
    Each rotation exactly diagonalizes one 2x2 principal block; sweeps stop
    when the off-diagonal Frobenius mass falls below 1e-15 * ||H||_F.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if np.abs(H - H.conj().T).max() > 1e-12 * max(1.0, np.abs(H).max()):
        raise ValueError("input is not Hermitian")
    A = 0.5 * (H + H.conj().T)
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(60):
        off = math.sqrt(max(0.0, np.linalg.norm(A) ** 2
                            - np.linalg.norm(np.diagonal(A)) ** 2))
        if off < 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = A[p, q]
                if abs(h) < 1e-18 * scale:
                    continue
                G = _hermitian_2x2_rotation(A[p, p].real, A[q, q].real, h)
                idx = [p, q]
                A[:, idx] = A[:, idx] @ G
                A[idx, :] = G.conj().T @ A[idx, :]
    return np.sort(np.diagonal(A).real)
