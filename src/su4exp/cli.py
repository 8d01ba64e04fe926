"""Command-line front end.

Verbs: classify, expm, charpoly, demo, bench, selftest.  Matrices travel in
the JSON format of :mod:`su4exp.matio`.  Exit codes are a stable scripting
contract: 0 success, 1 usage error, 2 input/parse error, 3 structure
precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import demos
from .classify import _check_tol
from .classify import charpoly as _charpoly
from .classify import classify as _classify
from .errors import InputError, StructureError
from .expm import FAMILY_TABLE, STRUCTURE_TOL, ExpResult, _check_norm, exp_auto, gate_distance
from .families import FAMILIES, time_family
from .matio import load_matrix, save_matrix
from .model import Su4Element
from .oracle import expm_reference

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_STRUCTURE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def tolerance(text: str) -> float:
    """A --tolerance that passes the rule of ``exp_auto``'s tol
    (``classify._check_tol``), whose InputError is a usage error here."""
    x = float(text)
    try:
        _check_tol(x)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return x


_TOL_HELP = ("gate tolerance, structure and minimal-polynomial alike; it bounds the "
             "error ||U - e^X||_F of the closed form it admits (default %(default)g)")


def _build_parser() -> _Parser:
    p = _Parser(prog="su4exp",
                description="Closed-form exponentials of structured 4x4 "
                            "anti-Hermitian matrices.")
    sub = p.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    pc = sub.add_parser("classify", help="structure flags and minimal-polynomial type")
    pc.add_argument("file")
    pc.add_argument("--tolerance", type=tolerance, default=STRUCTURE_TOL, help=_TOL_HELP)

    pe = sub.add_parser("expm", help="exponentiate a matrix from JSON")
    pe.add_argument("file")
    pe.add_argument("--method", choices=["auto", "closed", "oracle"], default="auto")
    pe.add_argument("--out", help="write the resulting unitary as JSON")
    pe.add_argument("--tolerance", type=tolerance, default=STRUCTURE_TOL, help=_TOL_HELP)

    pp = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    pp.add_argument("file")

    pd = sub.add_parser("demo", help="run a physical-system propagator")
    pd.add_argument("name", choices=list(demos.DEMOS))
    defaults = "; ".join(
        f"{name}: " + " ".join(f"{k}={v:g}" for k, v in P._field_defaults.items())
        for name, (P, _, _) in demos.DEMOS.items())
    pd.add_argument("params", nargs="*", metavar="key=value",
                    help=f"defaults {defaults}; rabi also takes g=g1,g2,g3")

    pb = sub.add_parser(
        "bench", help="closed form vs reference and eigh timing, one pass",
        description="Median latency per family of the closed form on a pre-built element, "
                    "against the series reference and a NumPy eigh exponential from the raw "
                    "entries.  One pass of --trials samples, with no host-speed scaling, so "
                    "figures move with the host's speed state.  End-to-end figures, raw "
                    "entries in and U out with construction and dispatch included, come "
                    "from perfbench/run.py in a source checkout.")
    pb.add_argument("--families", default=",".join(FAMILIES),
                    help="comma-separated subset (default: all)")
    pb.add_argument("--trials", type=int, default=200)
    pb.add_argument("--csv", help="write results as CSV")
    pb.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="quick oracle cross-check of every family")
    return p


def _load_element(path) -> Su4Element:
    return Su4Element(load_matrix(path))


def _fmt_matrix(U: np.ndarray) -> str:
    lines = []
    for row in U:
        lines.append("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return "\n".join(lines)


def cmd_classify(args) -> int:
    X = _load_element(args.file)
    _check_norm(X)  # exp_auto's range rule, before any line is printed
    tol = args.tolerance
    for fam in FAMILY_TABLE:
        if fam.gate:
            print(f"{fam.label}: {'yes' if gate_distance(fam.method, X) <= tol else 'no'}")
    cp = _charpoly(X)
    print(f"charpoly: mu={cp.mu:.12g} nu={cp.nu.imag:.12g}i pi={cp.pi:.12g}")
    mc = _classify(X, tol)
    extra = ""
    if mc.c2 is not None:
        extra = f" c2={mc.c2:.12g}"
    if mc.beta is not None:
        extra = f" beta={mc.beta.imag:.12g}i gamma={mc.gamma:.12g}"
    print(f"min-poly: {mc.tag}{extra}")
    print(f"exp method: {exp_auto(X, tol).method}")
    return EXIT_OK


def cmd_expm(args) -> int:
    X = _load_element(args.file)
    if args.method == "oracle":
        res = ExpResult(expm_reference(X.entries), "oracle")
    else:
        res = exp_auto(X, args.tolerance)
        if args.method == "closed" and res.method == "oracle":
            raise StructureError("closed-form dispatch", float("nan"),
                                 "no closed form matched this matrix")
    if args.out:
        save_matrix(res.U, args.out)
    print(f"method: {res.method}")
    print(f"residual: {res.residual:.3e}")
    if not args.out:
        print(_fmt_matrix(res.U))
    return EXIT_OK


def cmd_charpoly(args) -> int:
    X = _load_element(args.file)
    cp = _charpoly(X)
    print(f"mu: {cp.mu:.15g}")
    print(f"nu: {cp.nu.imag:.15g}i")
    print(f"pi: {cp.pi:.15g}")
    return EXIT_OK


def _parse_kv(tokens, allowed, lists=()) -> dict:
    """key=value tokens as floats; a key in ``lists`` takes comma-separated
    values, as a list."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise InputError(f"expected key=value, got '{tok}'")
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise InputError(f"unknown parameter '{key}' "
                             f"(allowed: {', '.join(allowed)})")
        try:
            vals = [float(v) for v in val.split(",")]
        except ValueError as exc:
            raise InputError(f"bad value for '{key}': {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise InputError(f"non-finite value for '{key}'")
        if key not in lists and len(vals) > 1:
            raise InputError(f"'{key}' takes one value, got {len(vals)}")
        out[key] = vals if key in lists else vals[0]
    return out


def cmd_demo(args) -> int:
    params, propagate, generator = demos.DEMOS[args.name]
    lists = ("g",) if args.name == "rabi" else ()
    kv = _parse_kv(args.params, params._fields + lists, lists)
    g = kv.pop("g", None)
    if g is not None:
        if len(g) != 3:
            raise InputError("g expects three comma-separated values")
        for key, x in zip(("g1", "g2", "g3"), g):
            kv.setdefault(key, x)
    p = params(**kv)
    res = propagate(p)
    dev = float(np.abs(res.U - expm_reference(generator(p))).max())
    print(f"method: {res.method}")
    print(f"oracle deviation: {dev:.3e}")
    print(_fmt_matrix(res.U))
    return EXIT_OK


def cmd_bench(args) -> int:
    names = [n.strip() for n in args.families.split(",") if n.strip()]
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        print(f"error: unknown families: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    rows = []
    for name in names:
        t = time_family(name, rng, args.trials)
        rows.append({
            "family": name,
            "trials": args.trials,
            "t_closed_ns": int(t.closed_ns),
            "t_oracle_ns": int(t.oracle_ns),
            "t_eigh_ns": int(t.eigh_ns),
            "speedup": t.oracle_ns / max(t.closed_ns, 1),
            "speedup_eigh": t.eigh_ns / max(t.closed_ns, 1),
            "max_err": t.max_err,
        })
    fields = ["family", "trials", "t_closed_ns", "t_oracle_ns", "t_eigh_ns", "speedup",
              "speedup_eigh", "max_err"]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)
    for r in rows:
        print(f"{r['family']:>12}: closed {r['t_closed_ns']:>9} ns | "
              f"oracle {r['t_oracle_ns']:>9} ns | eigh {r['t_eigh_ns']:>9} ns | "
              f"speedup vs oracle {r['speedup']:.1f}x, vs eigh {r['speedup_eigh']:.2f}x | "
              f"max_err {r['max_err']:.2e}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(12345)
    ok = True
    for name in FAMILIES:
        worst = time_family(name, rng, 20).max_err
        status = "ok" if worst <= 1e-9 else "FAIL"
        ok = ok and worst <= 1e-9
        print(f"{name:>12}: max deviation {worst:.2e} [{status}]")
    return EXIT_OK if ok else EXIT_STRUCTURE


_COMMANDS = {
    "classify": cmd_classify,
    "expm": cmd_expm,
    "charpoly": cmd_charpoly,
    "demo": cmd_demo,
    "bench": cmd_bench,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
