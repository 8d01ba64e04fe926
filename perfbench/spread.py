"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload off-structure --seeds 1 2 3 4 5

It runs the end-to-end metrics (``--trace 0``); the per-layer metrics have
no bounds to check a spread against.  For each metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, beside the metric's bound from BENCHMARK.json.
``--out`` also writes the runs, the summary and the environment (Python,
NumPy, nproc) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
        s, bound = summary[name], bounds[name]
        flag = f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        print(f"{name:<36} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "nproc": os.cpu_count(), "machine": platform.machine()}
        args.out.write_text(json.dumps({"workload": args.workload, "env": env,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
