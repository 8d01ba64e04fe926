"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import hostspeed
import inputs
import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def su4exp():
    module = run.import_su4exp()
    assert module is not None
    return module


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b, c, d = (inputs.build(workload, seed, 2, k) for seed, k in
                  ((5, 1), (5, 1), (6, 1), (5, 2)))
    assert [x.label for x in a] == [x.label for x in b]
    assert all(np.array_equal(x.generator, y.generator) for x, y in zip(a, b))
    assert all(str(x.payload) == str(y.payload) for x, y in zip(a, b))
    for other in (c, d):
        assert not any(np.array_equal(x.generator, y.generator) for x in a for y in other)


def test_quaternion_tensor_basis_matches_library(su4exp):
    from su4exp.qtensor import mat_of_product_tensor
    from su4exp.quaternion import Quaternion
    rng = np.random.default_rng(0)
    for _ in range(4):
        p, q = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(inputs.qt_matrix(p, q),
                           mat_of_product_tensor(Quaternion(*p), Quaternion(*q)))


def test_structured_samples_are_exact_family_members(su4exp):
    for case in inputs.build("structured", 3, 2):
        res = su4exp.exp_auto(su4exp.Su4Element(case.payload))
        assert res.method == case.label


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(su4exp, workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    lines, result = run.run(workload, 1, 0.0, trace, su4exp, pool=1, setup_reps=1)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in listed:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float) and math.isfinite(value)
        assert any(line.split()[1:2] == [m["name"]] and m["unit"] in line.split()
                   for line in lines)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert json.loads(json.dumps(result)) == result
    if trace and workload == "structured":
        assert result["metrics"]["fallback.magic_attempts_per_input"]["value"] == 0
        assert result["metrics"]["oracle.calls_per_input"]["value"] == 0
    if trace and workload == "off-structure":
        assert result["metrics"]["fallback.magic_attempts_per_input"]["value"] > 0
        assert result["metrics"]["oracle.calls_per_input"]["value"] > 0
    if trace:
        assert 0.0 <= result["metrics"]["dispatch.near_boundary_fail_ratio"]["value"] <= 1.0


def test_near_boundary_probe_is_apart_from_the_workloads():
    probe = inputs.near_boundary(5, 2)
    assert probe[0].label == "near-tridiag" and len(probe) == 2 * len(inputs.FAMILIES)
    assert all(np.array_equal(x.generator, y.generator)
               for x, y in zip(probe, inputs.near_boundary(5, 2)))
    passes = [x for k in range(3) for x in inputs.build("off-structure", 5, 2, k)]
    assert not any(np.array_equal(x.generator, y.generator) for x in probe for y in passes)
    assert all(x.label == "generic" or x.label.startswith("perturbed-") for x in passes)


def test_perturbed_output_counts_as_failure(su4exp):
    api = run.public_api(su4exp)
    made = []

    def exp_auto(element):
        made.append(element)
        res = api.exp_auto(element)
        return SimpleNamespace(U=res.U + 1e-8) if len(made) == 1 else res

    perturbed = SimpleNamespace(**{**vars(api), "exp_auto": exp_auto})
    (loop,), check = run.closed_loop([(perturbed, None)], "structured", 2, 1, 0.0)
    assert check["agree"] and len(loop.ok) == 1
    assert loop.failed == 1
    (label, count), = loop.failures.items()
    assert label.endswith(": wrong-output") and count == 1
    values = run.end_to_end(loop, [0.1])
    assert values["latency_p50_us"][1] == loop.attempted - 1


def test_perturbed_outputs_make_the_run_incorrect(su4exp, monkeypatch):
    api = run.public_api(su4exp)

    def exp_auto(element):
        return SimpleNamespace(U=api.exp_auto(element).U + 1e-8)

    perturbed = SimpleNamespace(**{**vars(api), "exp_auto": exp_auto})
    monkeypatch.setattr(run, "public_api", lambda module: perturbed)
    lines, result = run.run("structured", 2, 0.0, False, su4exp, pool=1, setup_reps=1)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    row, = (line.split() for line in lines if line.split()[1:2] == ["fail_ratio"])
    assert float(row[2]) == 1.0


def test_times_are_at_reference_speed():
    loop = run.LoopResult(
        pass_s=[1.0, 4.0], scale=[2.0, 0.5],
        latency_s=[np.array([0.1, 0.9]), np.array([1.0, 3.0])],
        call_scale=[np.array([2.0, 1.0]), np.array([0.5, 4.0])],
        ok=[np.array([True, True]), np.array([True, False])])
    assert loop.throughput(scaled=False) == 3 / 5.0
    assert loop.throughput() == 3 / (1.0 * 2.0 + 4.0 * 0.5)
    assert list(loop.ok_latency_s()) == [0.2, 0.9, 0.5]
    assert list(loop.ok_latency_s(scaled=False)) == [0.1, 0.9, 1.0]


def test_host_speed_scale():
    assert hostspeed.scale([hostspeed.PROBE_REF_S] * 3) == pytest.approx(1.0)
    assert hostspeed.scale([2 * hostspeed.PROBE_REF_S]) == pytest.approx(0.5)
    ref = hostspeed.PROBE_REF_S
    assert hostspeed.call_scales([ref, 3 * ref, 2 * ref]) == pytest.approx([0.5, 0.4, 0.5])


def test_tracer_restores_names_and_reports_absent_layers(su4exp):
    originals = (su4exp.expm.is_perskew, su4exp.expm.classify, su4exp.Su4Element.__init__)
    tracer = layers.Tracer(su4exp)
    with tracer.installed():
        assert su4exp.expm.is_perskew is not originals[0]
    assert (su4exp.expm.is_perskew, su4exp.expm.classify,
            su4exp.Su4Element.__init__) == originals
    assert tracer.absent == [] and layers.absent_metrics(tracer) == []

    bare = SimpleNamespace(expm=SimpleNamespace(classify=lambda X: X), demos=None,
                           Su4Element=type("Element", (), {}))
    tracer = layers.Tracer(bare)
    with tracer.installed():
        pass
    assert tracer.absent == ["expm.expm_reference", "expm.eigh3", "expm._unitarity"]
    absent = layers.absent_metrics(tracer)
    assert "oracle.calls_per_input" in absent and "expm.predicate_hit_ratio" in absent
    assert "classify.calls_per_input" not in absent


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structured",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
