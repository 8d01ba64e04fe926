"""Layered end-to-end benchmark of su4exp: raw input in, U = e^X out.

Run from the root of a checkout; the library is imported from its src/:

    python3 perfbench/run.py --workload structured --seed 1 --seconds 10 --trace 0

One process and one thread (BLAS is pinned to one thread before NumPy
loads), a closed loop with a single caller that sends the next input when
the previous call has returned.  A timed call goes from raw complex 4x4
entries (or demo parameters) to the unitary, ``Su4Element`` construction
included.  Outside the timed region every output is checked against
``expm_reference`` at ||U - U_ref||_F <= 1e-9.  The loop makes whole passes
until ``--seconds`` have elapsed, each over its own fresh inputs drawn from
(seed, pass), so no input repeats and a result cache earns nothing.
Throughput is correct results over the wall time of whole passes, and the
latency percentiles are over every successful call.  A call's latency is
the process CPU time it took: for this CPU-bound, single-threaded call that
is its wall time less the time other programs on the shared host held the
core, which set the tail of wall times from run to run.  Work a call might
hide from its CPU time, such as waiting or sleeping, still shows in
throughput, which is wall time.  Times are reported at a reference host
speed, measured by a probe timed before every call (see hostspeed.py):
throughput by the probes of its pass, each latency by the probes on either
side of its call.  The header line gives the unscaled figures too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see layers.py) and reports the per-layer
metrics.  Each metric is printed by name with its unit and
sample count; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A call fails when it raises or
its output misses the oracle check; ``correct`` is false when any call fails
or the two references disagree.  The workloads hold no input on which the
library is known to fail.  Its known defect, the classify-versus-formula-gate
contradiction near the structure tolerance, is measured apart in the traced
run: ``dispatch.near_boundary_fail_ratio`` is the share of a fixed probe of
near-boundary inputs, drawn from the seed and run untimed, on which the
library fails.  Without ./src/su4exp the benchmark exits 2 and prints no
result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
CHECK_TOL = 1e-9
# Inputs per class and pass: per family on structured, per family and again
# x9 generic on off-structure, per demo on propagator-grid.  A pass then
# takes 70-200 ms.
POOL = {"structured": 16, "off-structure": 8, "propagator-grid": 48}
SETUP_REPS = 31
# Near-boundary probe inputs per family, in the traced run.
PROBE_PER_FAMILY = 32

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Runs in a fresh interpreter: NumPy is imported before the clock starts,
# then su4exp is imported and returns its first exp_auto result.  A generic
# input walks every dispatch stage, so set-up deferred to first use counts.
# The host speed probe runs before and after, outside the timed region.
SETUP_CHILD = """
import sys, time
import numpy as np
sys.path.insert(0, sys.argv[3])
import hostspeed
sys.path.insert(0, sys.argv[1])
Z = np.random.default_rng(int(sys.argv[2])).normal(size=(4, 4, 2)) @ (1, 1j)
A = 0.5 * (Z - Z.conj().T)

def probes(n=16):
    out = []
    for _ in range(n):
        t = time.perf_counter()
        hostspeed.probe()
        out.append(time.perf_counter() - t)
    return out

before = probes()
t0 = time.perf_counter()
import su4exp
res = su4exp.exp_auto(su4exp.Su4Element(A))
t1 = time.perf_counter()
if res.U.shape != (4, 4):
    sys.exit(1)
print(repr((t1 - t0) * hostspeed.scale(before + probes())))
"""


def import_su4exp():
    """su4exp from this checkout's src/, or None when it is not there."""
    init = SRC / "su4exp" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import su4exp
    import su4exp.demos
    if Path(su4exp.__file__).resolve() != init.resolve():
        return None
    return su4exp


def public_api(su4exp) -> SimpleNamespace:
    """The only names the untraced end-to-end path calls."""
    d = su4exp.demos
    return SimpleNamespace(
        Su4Element=su4exp.Su4Element, exp_auto=su4exp.exp_auto,
        expm_reference=su4exp.expm_reference,
        demos={"rabi": (d.RabiParams, d.rabi_propagator),
               "josephson": (d.JosephsonParams, d.josephson_propagator),
               "jcoupling": (d.ScalarCouplingParams, d.scalar_coupling_propagator)})


def _exp_entries(element, exp_auto, A):
    return exp_auto(element(A))


def make_calls(api, cases) -> list:
    """One zero-argument callable per case, returning the library's result."""
    calls = []
    for c in cases:
        if c.kind == "matrix":
            calls.append(partial(_exp_entries, api.Su4Element, api.exp_auto, c.payload))
        else:
            params, propagate = api.demos[c.kind]
            calls.append(partial(propagate, params(*c.payload)))
    return calls


def eigh_expm(X: np.ndarray) -> np.ndarray:
    """e^X for anti-Hermitian X from the spectral decomposition of H = iX."""
    w, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * w)) @ V.conj().T


def references(api, cases):
    """Oracle outputs, whether the eigh baseline agrees, and both timings (s)."""
    refs, oracle_s, eigh_s, agree = [], [], [], True
    clock = time.perf_counter
    for c in cases:
        t0 = clock()
        R = api.expm_reference(c.generator)
        t1 = clock()
        E = eigh_expm(c.generator)
        t2 = clock()
        refs.append(R)
        oracle_s.append(t1 - t0)
        eigh_s.append(t2 - t1)
        agree &= bool(np.linalg.norm(R - E) <= CHECK_TOL)
    return refs, agree, oracle_s, eigh_s


def _matches(U, ref) -> bool:
    U = np.asarray(U)
    return U.shape == (4, 4) and bool(np.linalg.norm(U - ref) <= CHECK_TOL)


@dataclass
class LoopResult:
    """The passes of one variant, each over its own fresh inputs: wall time
    (s) and reference-speed scale (see hostspeed.py) per pass, latency
    (process CPU time, s), its reference-speed scale and verdict per call,
    and the failures by input label."""

    pass_s: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    call_scale: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return sum(len(ok) for ok in self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - int(sum(ok.sum() for ok in self.ok))

    def throughput(self, scaled: bool = True) -> float:
        """Correct results per second of wall time over all passes."""
        scale = self.scale if scaled else [1.0] * len(self.scale)
        return float(sum(ok.sum() for ok in self.ok)
                     / sum(t * f for t, f in zip(self.pass_s, scale)))

    def ok_latency_s(self, scaled: bool = True) -> np.ndarray:
        """Latency of every successful call."""
        if not self.ok:
            return np.empty(0)
        return np.concatenate([lat[ok] * (f[ok] if scaled else 1.0) for lat, ok, f in
                               zip(self.latency_s, self.ok, self.call_scale)])


def closed_loop(variants, workload: str, seed: int, pool: int, seconds: float,
                first_pass: int = 0) -> tuple[list[LoopResult], dict]:
    """Whole passes, one per variant in turn, until ``seconds`` have elapsed
    after a full round; one result per variant, and the reference check.

    A variant is (api, tracer or None).  Pass k calls the variant's api on
    its own fresh inputs, ``inputs.build(workload, seed, pool, k)``, so no
    input repeats within a run.  The references are computed before the pass
    and the outputs checked after it, both outside the timed region.  Before
    each call the host speed probe runs, also outside it.  A traced
    variant's layer entry points are wrapped only during its own passes, so
    the untraced and traced passes of one run interleave under the same host
    conditions.  Each call is timed from raw input to U in process CPU time,
    and each pass as a whole in wall time, less its probes.
    """
    results = [LoopResult() for _ in variants]
    check = {"agree": True, "oracle_s": [], "eigh_s": []}
    clock, cpu = time.perf_counter, time.process_time
    k = first_pass
    gc.collect()
    start = clock()
    while True:
        for (api, tracer), res in zip(variants, results):
            cases = inputs.build(workload, seed, pool, k)
            refs, agree, oracle_s, eigh_s = references(api, cases)
            check["agree"] &= agree
            calls = make_calls(api, cases)
            n = len(calls)
            latency, probe_s, probe_cpu_s = np.empty(n), np.empty(n), np.empty(n)
            outs = [None] * n
            with tracer.installed() if tracer else nullcontext():
                t_pass = clock()
                for i, call in enumerate(calls):
                    t0 = clock()
                    q0 = cpu()
                    hostspeed.probe()
                    q1 = cpu()
                    t1 = clock()
                    if tracer:
                        tracer.begin(k * n + i)
                    c1 = cpu()
                    try:
                        out = call().U
                    except Exception as exc:  # a raising call is a failed operation
                        out = type(exc).__name__
                    c2 = cpu()
                    if tracer:
                        tracer.end(out if isinstance(out, str) else None)
                    probe_s[i] = t1 - t0
                    probe_cpu_s[i] = q1 - q0
                    latency[i] = c2 - c1
                    outs[i] = out
                res.pass_s.append(clock() - t_pass - probe_s.sum())
            res.scale.append(hostspeed.scale(probe_s))
            if tracer:
                tracer.end_pass(res.scale[-1])
            # The references were timed just before the pass, at its speed.
            # Arrays, so that peak RSS hardly grows with the calls made.
            check["oracle_s"].append(np.multiply(oracle_s, res.scale[-1]))
            check["eigh_s"].append(np.multiply(eigh_s, res.scale[-1]))
            ok = np.ones(n, dtype=bool)
            for i, out in enumerate(outs):
                failure = out if isinstance(out, str) else (
                    None if _matches(out, refs[i]) else "wrong-output")
                if failure:
                    ok[i] = False
                    res.failures[f"{cases[i].label}: {failure}"] += 1
            res.latency_s.append(latency)
            res.call_scale.append(hostspeed.call_scales(probe_cpu_s))
            res.ok.append(ok)
            k += 1
        if clock() - start >= seconds:
            return results, check


def measure_setup(seed: int, reps: int = SETUP_REPS) -> list[float]:
    """Seconds from ``import su4exp`` to the first exp_auto result, at
    reference speed, one value per fresh interpreter."""
    times = []
    for k in range(reps):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(seed + k),
                              str(Path(__file__).resolve().parent)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def near_boundary_fail_ratio(api, seed: int, n: int = PROBE_PER_FAMILY) -> tuple[float, int]:
    """Share of the near-boundary probe on which the library fails, untimed."""
    cases = inputs.near_boundary(seed, n)
    refs = references(api, cases)[0]
    failed = 0
    for call, ref in zip(make_calls(api, cases), refs):
        try:
            failed += not _matches(call().U, ref)
        except Exception:  # a raising call is a failed operation
            failed += 1
    return failed / len(cases), len(cases)


def end_to_end(loop: LoopResult, setup_s: list[float]) -> dict:
    """Metric name -> (value, samples) for the untraced run."""
    lat_us = loop.ok_latency_s() * 1e6
    p50, p99 = np.percentile(lat_us, [50, 99]) if len(lat_us) else (0.0, 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "throughput_per_s": (loop.throughput(), loop.attempted - loop.failed),
        "latency_p50_us": (float(p50), len(lat_us)),
        "latency_p99_us": (float(p99), len(lat_us)),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, su4exp,
        pool: int | None = None, setup_reps: int = SETUP_REPS) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    pool = pool or POOL[workload]
    api = public_api(su4exp)
    variants = [(api, None)]
    if trace:
        tracer = layers.Tracer(su4exp)
        variants.append((tracer.entry_api(api), tracer))
    # Warm-up round on passes 0.., not reported.
    closed_loop(variants, workload, seed, pool, 0.0)
    if trace:
        tracer.clear()
    loops, check = closed_loop(variants, workload, seed, pool, seconds,
                               first_pass=len(variants))
    lines = [f"# workload {workload}, seed {seed}, {len(loops[0].ok)} passes x "
             f"{len(loops[0].ok[0])} fresh inputs per variant, python "
             f"{platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}, "
             f"BLAS threads 1, closed loop, 1 caller"]
    raw_us = loops[0].ok_latency_s(scaled=False) * 1e6
    lines.append(f"# unscaled: throughput {loops[0].throughput(scaled=False):.6g} 1/s, "
                 f"latency p50 {np.median(raw_us) if len(raw_us) else 0.0:.6g} us; "
                 f"reference-speed scale per pass: median "
                 f"{statistics.median(loops[0].scale):.3f}")
    if not trace:
        values = end_to_end(loops[0], measure_setup(seed, setup_reps))
        units, absent = END_TO_END_UNITS, []
    else:
        values = layers.per_layer(tracer, len(loops[1].ok))
        for name, key in (("baseline.eigh_us", "eigh_s"), ("baseline.oracle_us", "oracle_s")):
            ref_s = np.concatenate(check[key])
            values[name] = (float(np.median(ref_s)) * 1e6, len(ref_s))
        values["trace.overhead_ratio"] = (loops[1].throughput() / loops[0].throughput(),
                                          len(loops[1].ok))
        values["dispatch.near_boundary_fail_ratio"] = near_boundary_fail_ratio(api, seed)
        units, absent = layers.PER_LAYER_UNITS, layers.absent_metrics(tracer)
        spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"# {len(tracer.spans)} spans written to {spans_path}; "
                     f"absent entry points: {', '.join(tracer.absent) or 'none'}")
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    failures = sum((lp.failures for lp in loops), Counter())
    lines.append("# failures: " + (", ".join(f"{k} x{v}" for k, v in sorted(failures.items()))
                                   or "none"))
    # fail_ratio is 0 when the library is correct, which a bounded metric may
    # not be: it is printed here, and the result object carries it as
    # failed / attempted.
    rows = [("fail_ratio", failed / attempted, "ratio", attempted)]
    rows += [(name, values[name][0], unit, values[name][1]) for name, unit in units.items()]
    for name, value, unit, samples in rows:
        note = "  absent" if name in absent else ""
        lines.append(f"{workload:>16} {name:<36} {value:>14.6g} {unit:<9} n={samples}{note}")
    correct = check["agree"] and failed == 0
    metrics = {name: {"value": float(values[name][0]), "unit": unit}
               for name, unit in units.items()}
    return lines, {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    su4exp = import_su4exp()
    if su4exp is None:
        print(f"error: no su4exp package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), su4exp)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
