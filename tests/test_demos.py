"""Physical propagator fixtures: each demo system must reproduce the series
reference exponential, stay unitary, and satisfy the one-parameter group
property in the evolution time."""

import cmath
import warnings

import numpy as np
import pytest

from su4exp import demos, expm, families, model
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
from su4exp.errors import InputError, StructureError
from su4exp.expm import SymTriDiag, exp_auto, exp_tridiag, gate_distance
from su4exp.model import Su4Element
from su4exp.oracle import expm_reference


def _replace_t(p, t):
    return p._replace(t=t)


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


# Each demo: its parameters at a generic point, its generator -iHt, its
# propagator, its row, and the bisymmetric split the row takes.
DEMOS = {
    "rabi": (RabiParams(0.7, -1.3, 0.4, E0=0.6),
             lambda p: -1j * p.t * (rabi_matrix(p) + p.E0 * np.eye(4)),
             rabi_propagator, "tridiag", None),
    "josephson": (JosephsonParams(1.1, 0.3, 0.45, 0.2),
                  lambda p: -1j * p.t * josephson_matrix(p),
                  josephson_propagator, "bisym", 3),
    "jcoupling": (ScalarCouplingParams(0.4, -0.8, 0.3, 0.9, -0.5, 0.6),
                  lambda p: scalar_coupling_element(p).entries,
                  scalar_coupling_propagator, "bisym", 8),
}

# exp_tridiag's generic point, scaled by t in the tests that take it too.
_S0 = (1.3, -0.4, 2.2)


def _of_time(name):
    """(generator, propagator) as functions of t: the demo's at its generic
    point, or exp_tridiag's at _S0 scaled by t."""
    if name == "tridiag":
        def S(t):
            return SymTriDiag(*(t * c for c in _S0))
        return (lambda t: S(t).matrix()), (lambda t: exp_tridiag(S(t)))
    p, generator, propagate, *_ = DEMOS[name]
    return (lambda t: generator(_replace_t(p, t))), (lambda t: propagate(_replace_t(p, t)))


def _map_of(demo):
    """The demo's (16, n) map from its parameters other than t to (v, b)."""
    params, _, generator = demos.DEMOS[demo]
    return expm._param_map(lambda *e: generator(params(*e)), len(params._fields) - 1)


@pytest.mark.parametrize("demo", DEMOS)
def test_demos_over_time(demo):
    # The demo's closed form over t in (0, 10]: its row, which is also
    # exp_auto's on the generator, exp_auto's U within 1e-13, and the
    # oracle within 1e-12.  Below that grid, t = 1e-6, 1e-12 and 0 run the
    # small-angle branch of sinc, and U(0) is I.  For t < 1e-6 the whole
    # generator is within the gate tolerance of 0, so exp_auto takes the
    # first row, another formula, and is not compared.
    p, generator, propagate, method, _ = DEMOS[demo]
    for t in [0.0, 1e-12, 1e-6, *np.linspace(0.0, 10.0, 101)[1:]]:
        q = _replace_t(p, float(t))
        res = propagate(q)
        assert res.method == method, t
        assert np.abs(res.U - expm_reference(generator(q))).max() <= 1e-12, t
        if t >= 1e-6:
            auto = exp_auto(Su4Element(generator(q)))
            assert auto.method == method, t
            assert np.abs(res.U - auto.U).max() <= 1e-13, t
    assert np.abs(propagate(_replace_t(p, 0.0)).U - np.eye(4)).max() <= 1e-15


@pytest.mark.parametrize("demo", [*DEMOS, "tridiag"])
def test_demos_scale_with_time(demo):
    # Large-norm accuracy: at t ||X||_F from 1 to 1e6 the closed form and
    # the series reference each err by at most c eps ||tX||_F, with c = 2.5
    # measured against 40-digit mpmath at ||X||_F = 1e6, so they differ by
    # at most twice that, or 1e-9 where that is smaller.  exp_tridiag, the
    # fourth generator on a constant map, is held to the same bound.
    generator, propagate = _of_time(demo)
    eps = np.finfo(float).eps
    unit = np.linalg.norm(generator(1.0))
    for scale in np.logspace(0.0, 6.0, 25):
        t = float(scale / unit)
        A = generator(t)
        err = np.linalg.norm(propagate(t).U - expm_reference(A))
        assert err <= max(1e-9, 2 * 2.5 * eps * np.linalg.norm(A)), scale


@pytest.mark.parametrize("demo", DEMOS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "a", None, 1 + 2j,
                                 10**400])
def test_demo_rejects_non_finite_parameters(demo, bad):
    # Every field, the time included, is checked before any product, so
    # no RuntimeWarning precedes the InputError; a str, None or complex
    # field raises it too, and so does an int past the float range.  An
    # int time times a str field is a str.
    p, _, propagate, *_ = DEMOS[demo]
    cases = [p._replace(**{field: bad}) for field in p._fields]
    for q in cases + [p._replace(**{p._fields[0]: bad, "t": 2})]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^parameters must be "):
                propagate(q)


@pytest.mark.parametrize("demo", [*DEMOS, "tridiag"])
def test_demo_applies_the_range_rule_of_exp_auto(demo):
    # Past eps 2||tX||_F >= 1 no digit of e^{tX} is determined: the
    # propagator, or exp_tridiag, raises InputError exactly where exp_auto
    # does on the same generator, here at 2% either side of that time and
    # at t = 1e17.
    generator, propagate = _of_time(demo)
    t_max = 1.0 / (np.finfo(float).eps * 2.0 * np.linalg.norm(generator(1.0)))
    for t in (0.98 * t_max, 1.02 * t_max, 1e17):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if t < t_max:
                assert propagate(t).method == exp_auto(Su4Element(generator(t))).method
                continue
            with pytest.raises(InputError, match="past 1/eps"):
                propagate(t)
            with pytest.raises(InputError, match="past 1/eps"):
                exp_auto(Su4Element(generator(t)))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_table_holds_each_demo_once(demo):
    # demos.DEMOS pairs the parameter class and propagator with the
    # generator its map and the CLI read, which is the one written here.
    p, generator, propagate, *_ = DEMOS[demo]
    params, table_propagate, table_generator = demos.DEMOS[demo]
    assert type(p) is params and table_propagate is propagate
    for t in (0.3, 1.0, 2.5):
        q = _replace_t(p, t)
        assert np.array_equal(table_generator(q), generator(q))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_map_lies_on_its_row(demo):
    # The demo's triple of expm._linear_row names its row and split, and
    # every column of its map has gate distance exactly 0 there: the
    # tridiagonal residual for rabi, the distance at the split otherwise.
    *_, method, k = DEMOS[demo]
    _, row, split = demos._ROW[demo]
    assert (row, split) == (method, k)
    for col in _map_of(demo).T:
        if k is None:
            assert gate_distance("tridiag", Su4Element._from_coeffs(col[:15], col[15])) == 0.0
        else:
            v = col[:15]
            assert model._DROP[2 + k] @ (v * v) == 0.0


def test_a_map_off_every_linear_row_raises():
    # Perskew samples lie off both rows; the josephson and jcoupling maps
    # side by side lie on two different splits, so on neither.
    rng = np.random.default_rng(28)
    perskew = np.column_stack([np.append(families.sample_perskew(rng).coeffs, 0.0)
                               for _ in range(3)])
    both = np.hstack((_map_of("josephson"), _map_of("jcoupling")))
    for M in (perskew, both):
        with pytest.raises(StructureError):
            expm._linear_row(M)


def test_demos_build_no_element_and_run_no_gate(monkeypatch):
    # The maps are built at import; a call is one product and the row's
    # formula, with no Su4Element, no gate distance and no shared products.
    import su4exp.model as model

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Su4Element, "__init__", counted("__init__", Su4Element.__init__))
    monkeypatch.setattr(Su4Element, "_from_coeffs",
                        classmethod(counted("_from_coeffs", Su4Element._from_coeffs.__func__)))
    monkeypatch.setattr(model, "quadratic_forms",
                        counted("quadratic_forms", model.quadratic_forms))
    monkeypatch.setattr(expm, "_structured_row",
                        counted("_structured_row", expm._structured_row))
    for p, _, propagate, *_ in DEMOS.values():
        assert propagate(p).U.shape == (4, 4)
    assert calls == []
    # The counters see what they count.
    Su4Element(np.zeros((4, 4)))
    Su4Element._from_coeffs(np.zeros(15))
    expm.exp_auto(Su4Element._from_coeffs(np.zeros(15)))
    for method in ("bisym", "normal-split"):
        gate_distance(method, Su4Element._from_coeffs(np.ones(15)))
    assert {"__init__", "_from_coeffs", "_structured_row", "quadratic_forms"} <= set(calls)


# Parameters other than t at which a rotation angle of the spectral step is
# zero, so its axis is any unit vector, with the number of distinct
# eigenvalues that leaves: rabi's first and second factor are l1 = 0 at
# g2 = 0, g1 = g3 and l2 = 0 at g2 = 0, g1 = -g3; josephson's eigenspace
# P = +1 has l = 0 at E00 = E10, EJ1 = EJ2 and P = -1 at E00 = E10, EJ1 =
# -EJ2; jcoupling's at c = -b, f = e and at c = b, f = -e.
ZERO_ANGLES = {
    "rabi": [((0.0, 0.0, 0.0, 0.7), 1), ((1.0, 0.0, 1.0, 0.3), 2), ((1.0, 0.0, -1.0, -0.4), 2)],
    "josephson": [((0.8, 0.8, 0.0, 0.0), 1), ((0.8, 0.8, 0.3, 0.3), 3),
                  ((0.8, 0.8, 0.3, -0.3), 3)],
    "jcoupling": [((0.3, 0.0, 0.0, 0.9, 0.0, 0.0), 2), ((0.3, 0.5, -0.5, 0.2, 0.7, 0.7), 3),
                  ((0.3, 0.5, 0.5, 0.2, 0.7, -0.7), 3)],
}


def _both_paths(propagate, q):
    """U of a Hamiltonian's first call, its row's formula at t x, and of its
    second, the spectral step it then keeps, with the cache cleared first."""
    demos._slot.cache_clear()
    return propagate(q).U, propagate(q).U


@pytest.mark.parametrize("demo", DEMOS)
def test_demos_at_zero_rotation_angles(demo):
    # Where a rotation angle l is 0 both of its projectors take the same
    # phase, whatever the axis: each case merges eigenvalues as stated, and
    # both paths stay within max(1e-12, 5 eps ||tX||_F) of the series
    # reference from t = 0 to 1e3.
    p, generator, propagate, *_ = DEMOS[demo]
    eps = np.finfo(float).eps
    for x, distinct in ZERO_ANGLES[demo]:
        for t in (0.0, 1e-12, 1e-6, 1.0, 1e3):
            q = type(p)(*x, t)
            A = generator(q)
            for U in _both_paths(propagate, q):
                err = np.linalg.norm(U - expm_reference(A))
                assert err <= max(1e-12, 5 * eps * np.linalg.norm(A)), (x, t)
        assert len(set(demos._slot(demo, x)[0][0])) == distinct, x


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_cache_hit_equals_a_fresh_build(demo, monkeypatch):
    # A Hamiltonian's first call takes its row's formula and builds
    # nothing; its second builds the spectral step, and a later hit returns
    # the same U as that build, for another t too, within 1e-13 of the
    # formula.  The kept projectors are read-only.
    p, _, propagate, *_ = DEMOS[demo]
    builds = []
    build = demos._spectral_mapped
    monkeypatch.setattr(demos, "_spectral_mapped", lambda *a: builds.append(a) or build(*a))
    for t in (0.37, 4.2):
        q = _replace_t(p, t)
        builds.clear()
        demos._slot.cache_clear()
        first = propagate(q).U
        assert builds == []
        built = propagate(q).U
        hit = propagate(q).U
        assert len(builds) == 1
        assert np.array_equal(built, hit)
        assert np.abs(first - hit).max() <= 1e-13
    P = demos._slot(demo, p[:-1])[0][1]
    with pytest.raises(ValueError):
        P[0, 0] = 1.0


def test_demo_cache_is_bounded():
    demos._slot.cache_clear()
    for g in range(demos._CACHE_SIZE + 1):
        for _ in range(2):
            rabi_propagator(RabiParams(1.0, 0.5, float(g)))
    assert demos._slot.cache_info().currsize == demos._CACHE_SIZE


def test_demo_past_the_spectral_range_keeps_the_formula():
    # Finite parameters whose ||(v, b)|| overflows, or whose ||x|| does,
    # where |t| is small enough that ||tX|| is finite: every call, the
    # ones after the first included, returns the formula's U at t x,
    # finite and within max(1e-12, 5 eps ||tX||_F) of the series reference,
    # and I at t = 0.
    eps = np.finfo(float).eps
    for x in ((1e308, 0.0, 0.0, 1e308), (1.7e308,) * 4):
        for t in (0.0, 1e-300):
            q = RabiParams(*x, t)
            A = -1j * t * (rabi_matrix(q) + q.E0 * np.eye(4))
            demos._slot.cache_clear()
            U = [rabi_propagator(q).U for _ in range(3)]
            assert all(np.array_equal(V, U[0]) for V in U), (x, t)
            assert np.linalg.norm(U[0] - expm_reference(A)) <= max(
                1e-12, 5 * eps * np.linalg.norm(A)), (x, t)
            if t == 0.0:
                assert np.array_equal(U[0], np.eye(4))
            assert demos._slot("rabi", x) == [False]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_rejects_a_list_valued_field(demo):
    # A list does not hash, but it is rejected as a parameter before the
    # cache is asked.
    p, _, propagate, *_ = DEMOS[demo]
    for field in p._fields:
        with pytest.raises(InputError, match="^parameters must be real numbers"):
            propagate(p._replace(**{field: [1.0, 2.0]}))


def test_rabi_int_float_and_0d_array_parameters_agree():
    # Equal parameters give equal U whatever their real type, on the first
    # call and on the spectral step built at the second; a 0-d array does
    # not hash but is a real number.
    floats = (1.0, 2.0, 3.0, 0.0)
    U = [_both_paths(rabi_propagator, RabiParams(*x, 0.6))
         for x in ((1, 2, 3, 0), floats, tuple(map(np.array, floats)))]
    for first, built in U[1:]:
        assert np.array_equal(first, U[0][0]) and np.array_equal(built, U[0][1])
