"""Command-line interface: verbs, exit codes, and file round-trips.

The exit codes are a scripting contract: 0 success, 1 usage, 2 input/parse,
3 structure precondition failure.
"""

import csv
import json
import warnings

import numpy as np
import pytest

from su4exp.cli import main
from su4exp.matio import load_matrix, save_matrix
from su4exp.oracle import expm_reference

from reference import pauli_kron


@pytest.fixture
def zz_file(tmp_path):
    path = tmp_path / "zz.json"
    save_matrix(1j * pauli_kron("z", "z"), path)
    return str(path)


@pytest.fixture
def dense_file(tmp_path):
    rng = np.random.default_rng(90)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "dense.json"
    save_matrix(0.5 * (A - A.conj().T), path)
    return str(path)


@pytest.fixture
def tridiag_file(tmp_path):
    T = np.zeros((4, 4), dtype=complex)
    for k, v in enumerate((1.0, 2.0, 3.0)):
        T[k, k + 1] = T[k + 1, k] = 1j * v
    path = tmp_path / "tri.json"
    save_matrix(T, path)
    return str(path)


def test_no_verb_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_missing_file_is_parse_error(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    zeros = [[[0, 0]] * 4] * 4
    huge = 10 ** 400  # an integer past the float range
    for obj in ({"matrix": [[1, 2], [3, 4]]},
                {"matrix": [[{}] * 4] * 4},
                {"matrix": [[[huge, 0]] + zeros[0][1:]] + zeros[1:]},
                {"matrix": zeros, "scalar": huge},
                # JSON booleans are not numbers, though Python's bool is an int.
                {"matrix": [[[True, False]] + zeros[0][1:]] + zeros[1:]},
                {"matrix": zeros, "scalar": True}):
        bad.write_text(json.dumps(obj))
        for verb in ("classify", "expm"):
            assert main([verb, str(bad)]) == 2, (verb, obj)
            assert capsys.readouterr().out == ""


def test_non_antihermitian_is_parse_error(tmp_path, capsys):
    path = tmp_path / "herm.json"
    save_matrix(np.eye(4, dtype=complex), path)
    assert main(["classify", str(path)]) == 2


def test_non_finite_is_parse_error(tmp_path, capsys):
    A = np.zeros((4, 4), dtype=complex)
    A[1, 2] = np.nan
    path = tmp_path / "nan.json"
    save_matrix(A, path)
    assert main(["expm", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_classify_output(zz_file, capsys):
    assert main(["classify", zz_file]) == 0
    out = capsys.readouterr().out
    assert "imaginary-symmetric: yes" in out
    assert "min-poly: quadratic-I" in out
    assert "charpoly: mu=2" in out


def test_classify_tridiag_flag(tridiag_file, capsys):
    assert main(["classify", tridiag_file]) == 0
    out = capsys.readouterr().out
    assert "symmetric-tridiagonal: yes" in out
    assert "exp method: tridiag" in out


def test_expm_writes_unitary(tridiag_file, tmp_path, capsys):
    out_path = tmp_path / "u.json"
    assert main(["expm", tridiag_file, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "method: tridiag" in stdout
    U = load_matrix(out_path)
    assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-10
    X = load_matrix(tridiag_file)
    assert np.abs(U - expm_reference(X)).max() < 1e-10


def test_expm_method_oracle(dense_file, capsys):
    assert main(["expm", dense_file, "--method", "oracle"]) == 0
    assert "method: oracle" in capsys.readouterr().out


def test_expm_closed_fails_on_generic_matrix(dense_file, capsys):
    assert main(["expm", dense_file, "--method", "closed"]) == 3


@pytest.mark.parametrize("method", ["auto", "oracle"])
def test_expm_past_the_oracle_range_is_parse_error(dense_file, method, capsys):
    # No digit of e^X is determined once eps ||X||_1 >= 1.
    save_matrix(1e17 * load_matrix(dense_file), dense_file)
    assert main(["expm", dense_file, "--method", method]) == 2
    assert "1-norm" in capsys.readouterr().err


@pytest.fixture
def near_quad_I_file(tmp_path):
    """A quadratic-I matrix plus a 1e-8 relative perturbation."""
    rng = np.random.default_rng(91)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    S = 2.0 * Q @ np.diag([1j, 1j, -1j, -1j]) @ Q.conj().T
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = H + H.conj().T
    path = tmp_path / "near.json"
    save_matrix(S + 1j * H * (1e-8 * np.linalg.norm(S) / np.linalg.norm(H)), path)
    return str(path)


def test_expm_auto_near_min_poly_boundary_succeeds(near_quad_I_file, tmp_path, capsys):
    # classify no longer names quadratic-I at the default tolerance, since its
    # distance, which bounds the formula's error, exceeds it; auto lands on a
    # later stage.
    out_path = tmp_path / "u.json"
    assert main(["expm", near_quad_I_file, "--method", "auto", "--out", str(out_path)]) == 0
    U_ref = expm_reference(load_matrix(near_quad_I_file))
    assert np.abs(load_matrix(out_path) - U_ref).max() < 1e-9


@pytest.mark.parametrize("scale", [1e17, 1e160])
def test_classify_past_the_oracle_range_prints_nothing(tmp_path, capsys, scale):
    # exp_auto's range rule runs before the first line of the report: exit
    # 2 with an empty stdout, and no overflow warning from the gates or the
    # charpoly on the way.
    rng = np.random.default_rng(91)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "big.json"
    save_matrix(scale * (A - A.conj().T), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err


def test_classify_tolerance_reaches_the_min_poly_rule(near_quad_I_file, capsys):
    # The min-poly and exp method lines follow the same --tolerance.
    assert main(["classify", near_quad_I_file]) == 0
    assert "quadratic-I" not in capsys.readouterr().out
    assert main(["classify", near_quad_I_file, "--tolerance", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "min-poly: quadratic-I" in out
    assert "exp method: quad-I" in out


@pytest.mark.parametrize("verb", ["classify", "expm"])
def test_tolerance_must_be_finite_and_nonnegative(verb, zz_file, capsys):
    # inf would send a generic matrix to a closed form, nan and -1 every
    # matrix to the oracle: each is a usage error, printed before any result.
    for bad in ("inf", "nan", "-1"):
        assert main([verb, zz_file, "--tolerance", bad]) == 1, bad
        out = capsys.readouterr()
        assert out.out == "" and "--tolerance" in out.err
        assert "must be finite and >= 0" in out.err
    assert main([verb, zz_file, "--tolerance", "0"]) == 0


def test_expm_prints_matrix_without_out(zz_file, capsys):
    assert main(["expm", zz_file]) == 0
    out = capsys.readouterr().out
    assert "residual:" in out
    assert out.count("j") >= 16  # all sixteen entries printed


def test_charpoly_values(zz_file, capsys):
    assert main(["charpoly", zz_file]) == 0
    out = capsys.readouterr().out
    assert "mu: 2" in out
    assert "pi: 1" in out


@pytest.mark.parametrize("scale", [1e80, 1e160])
def test_charpoly_past_its_range_is_parse_error(tmp_path, capsys, scale):
    # (v.v)^2 overflows: exit 2 with an empty stdout, and no overflow
    # warning on the way.
    rng = np.random.default_rng(91)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "big.json"
    save_matrix(scale * (A - A.conj().T), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["charpoly", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "overflows" in out.err


def test_charpoly_prints_finite_values_past_the_oracle_range(tmp_path, capsys):
    # charpoly has no oracle range rule: at 1e17 it still prints three
    # finite coefficients.
    rng = np.random.default_rng(91)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "big.json"
    save_matrix(1e17 * (A - A.conj().T), path)
    assert main(["charpoly", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["mu", "nu", "pi"]
    values = [complex(line.split(": ")[1].replace("i", "j")) for line in lines]
    assert all(np.isfinite(values))


def test_demo_rabi(capsys):
    assert main(["demo", "rabi", "g=1,1,1", "t=0.5"]) == 0
    out = capsys.readouterr().out
    assert "method: tridiag" in out
    dev = float(out.split("oracle deviation:")[1].split()[0])
    assert dev < 1e-10


def test_demo_josephson_and_jcoupling(capsys):
    assert main(["demo", "josephson", "EJ1=0.4", "t=2"]) == 0
    assert "method: bisym" in capsys.readouterr().out
    assert main(["demo", "jcoupling", "a=1", "d=0.5", "e=0.2", "f=0.1"]) == 0
    assert "method: bisym" in capsys.readouterr().out


def _demo_keys(name):
    from su4exp import demos

    params = demos.DEMOS[name][0]
    # Every field at a value of its own, the time included.
    return [f"{key}={0.1 * (k + 3):g}" for k, key in enumerate(params._fields)]


@pytest.mark.parametrize("every_key", [False, True])
@pytest.mark.parametrize("name", ["rabi", "josephson", "jcoupling"])
def test_every_demo_runs_from_its_table_entry(name, every_key, capsys):
    from su4exp import demos

    assert name in demos.DEMOS and len(demos.DEMOS) == 3
    assert main(["demo", name, *(_demo_keys(name) if every_key else [])]) == 0
    out = capsys.readouterr().out
    assert "method: " in out
    assert float(out.split("oracle deviation:")[1].split()[0]) < 1e-10


def test_demo_bad_params(capsys):
    assert main(["demo", "rabi", "notakv"]) == 2
    assert main(["demo", "rabi", "zz=3"]) == 2
    assert main(["demo", "rabi", "g1=abc"]) == 2
    assert main(["demo", "nope"]) == 1


@pytest.mark.parametrize("demo, param", [
    ("rabi", "g1=1,2"), ("rabi", "g=1"), ("josephson", "EJ1=1,2"), ("jcoupling", "t=1,2")])
def test_demo_list_value_is_parse_error(demo, param, capsys):
    # Only g takes a list, of three values.
    assert main(["demo", demo, param]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["g1=nan", "g=1,inf,2", "t=-inf"])
def test_demo_non_finite_is_parse_error(param, capsys):
    assert main(["demo", "rabi", param]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_bench_csv(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", "--families", "tridiag,quad-I", "--trials", "5",
                 "--csv", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["family"] for r in rows] == ["tridiag", "quad-I"]
    for r in rows:
        assert r["trials"] == "5"
        assert float(r["max_err"]) < 1e-9
        assert int(r["t_closed_ns"]) > 0 and int(r["t_oracle_ns"]) > 0
        assert int(r["t_eigh_ns"]) > 0


def test_bench_usage_errors(capsys):
    assert main(["bench", "--families", "nosuchfamily"]) == 1
    assert main(["bench", "--trials", "0"]) == 1


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 9


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "m.json"
    save_matrix(A, path)
    data = json.loads(path.read_text())
    assert "matrix" in data and len(data["matrix"]) == 4
    assert np.abs(load_matrix(path) - A).max() == 0.0
