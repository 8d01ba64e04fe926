"""Span tracer for the benchmark's traced run, and the per-layer metrics.

For the traced run only, the tracer replaces the names that ``su4exp.expm``
and ``su4exp.demos`` look up at call time (``is_*``, ``exp_*``, ``classify``,
``expm_reference``, ``eigh3``, ``_unitarity``) and ``Su4Element.__init__``
on the class.  The ``Su4Element`` name itself is left alone: a plain function
in its place would break ``from_pauli_coeffs`` and the other classmethods.
The benchmark's own entry calls (``exp_auto`` and the three propagators) are
wrapped where the benchmark makes them.  An entry point that does not exist
is reported absent instead of wrapped.

A span is [name, start_ns, end_ns, parent, input, outcome, scale]; outcome
is the predicate's verdict, the result's method tag, or "raise", and scale
the reference-speed factor of the span's pass (see hostspeed.py), by which
the per-layer metrics multiply its duration.  Spans are kept in memory and
written when the run ends.  Self time is a span's duration minus its
children's.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

EXPM_NAMES = ("classify", "expm_reference", "eigh3", "_unitarity")
FORMULA_TAGS = {
    "exp_tridiag": "tridiag", "exp_perskew": "perskew", "exp_skewham": "skewham",
    "exp_imaginary_symmetric": "imsym", "exp_bisymmetric_fast": "bisym",
    "exp_normal_split": "normal-split", "exp_quadratic_I": "quad-I",
    "exp_quadratic_II": "quad-II", "exp_cubic_I": "cubic-I",
}
DEMO_ENTRIES = ("rabi", "josephson", "jcoupling")

PER_LAYER_UNITS = {
    "model.construct_us": "us",
    "model.constructs_per_input": "1/input",
    "expm.predicates_per_input": "1/input",
    "expm.predicate_hit_ratio": "ratio",
    "expm.predicate_self_us_per_input": "us/input",
    **{f"formula.{tag}_us": "us" for tag in FORMULA_TAGS.values()},
    "expm.formula_self_us_per_input": "us/input",
    "classify.calls_per_input": "1/input",
    "classify.self_us_per_input": "us/input",
    "classify.contradictions": "count",
    "fallback.magic_attempts_per_input": "1/input",
    "fallback.magic_hit_ratio": "ratio",
    "oracle.calls_per_input": "1/input",
    "oracle.self_us_per_input": "us/input",
    "residual.self_us_per_input": "us/input",
    "eig3.self_us_per_input": "us/input",
    **{f"demos.{demo}_us": "us" for demo in DEMO_ENTRIES},
    "baseline.eigh_us": "us",
    "baseline.oracle_us": "us",
    "trace.overhead_ratio": "ratio",
    # Measured by run.py on its near-boundary probe, not from spans.
    "dispatch.near_boundary_fail_ratio": "ratio",
}

# Layers whose entry points the tracer wraps; a metric of a layer that had
# none to wrap at this commit is reported absent.
WRAPPED_LAYERS = ("model", "predicate", "formula", "classify", "oracle",
                  "residual", "eig3")


def layer_of(name: str) -> str:
    """Layer of a span name such as "expm.is_perskew" or "model.construct"."""
    module, _, func = name.partition(".")
    if name == "call":
        return "call"
    if name == "model.construct":
        return "model"
    if name == "expm.exp_auto" or (module == "demos" and func in DEMO_ENTRIES):
        return "entry"
    if func.startswith("is_"):
        return "predicate"
    if func.startswith("exp_"):
        return "formula"
    return {"classify": "classify", "expm_reference": "oracle",
            "_unitarity": "residual", "eigh3": "eig3"}.get(func, "other")


def _outcome(result):
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    return getattr(result, "method", None)


class Tracer:
    """Records spans of calls made while an input is being processed."""

    def __init__(self, su4exp):
        self.su4exp = su4exp
        self.spans: list[list] = []
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._input = -1
        self._scaled = 0

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else None, self._input, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, outcome) -> None:
        span[2] = time.perf_counter_ns()
        span[5] = outcome
        self._stack.pop()

    def begin(self, input_id: int) -> None:
        """Open the root span of one timed call."""
        self._input = input_id
        self._open("call")

    def end(self, outcome) -> None:
        self._close(self.spans[self._stack[-1]], outcome)

    def end_pass(self, scale: float) -> None:
        """Give the spans of the pass that just ended its reference-speed scale."""
        for span in self.spans[self._scaled:]:
            span.append(scale)
        self._scaled = len(self.spans)

    def clear(self) -> None:
        self.spans.clear()
        self._scaled = 0

    def wrap(self, name: str, fn):
        """fn, recording a span named ``name`` whenever an input is open."""
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, "raise")
                raise
            self._close(span, _outcome(result))
            return result
        traced.__wrapped__ = fn
        return traced

    def entry_api(self, api) -> SimpleNamespace:
        """``api`` with the benchmark's own entry calls wrapped."""
        return SimpleNamespace(
            Su4Element=api.Su4Element,
            exp_auto=self.wrap("expm.exp_auto", api.exp_auto),
            expm_reference=api.expm_reference,
            demos={k: (cls, self.wrap("demos." + k, fn))
                   for k, (cls, fn) in api.demos.items()})

    @contextmanager
    def installed(self):
        """Wrap the layer entry points of su4exp for the duration of the block."""
        su4exp, patches = self.su4exp, []
        self.absent = []

        def patch(owner, name: str, label: str) -> None:
            fn = getattr(owner, name, None)
            if not callable(fn):
                self.absent.append(label)
                return
            patches.append((owner, name, fn))
            setattr(owner, name, self.wrap(label, fn))
            self.present.add(layer_of(label))

        expm = getattr(su4exp, "expm", None)
        demos = getattr(su4exp, "demos", None)
        for name in EXPM_NAMES:
            patch(expm, name, "expm." + name)
        for module, prefix in ((expm, "expm"), (demos, "demos")):
            for name, fn in sorted(vars(module).items()) if module else ():
                if (inspect.isfunction(fn) and name != "exp_auto"
                        and name.startswith(("is_", "exp_"))):
                    patch(module, name, f"{prefix}.{name}")
        patch(su4exp.Su4Element, "__init__", "model.construct")
        try:
            yield
        finally:
            for owner, name, fn in reversed(patches):
                setattr(owner, name, fn)

    def write(self, path) -> None:
        """Write the spans, one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median_us(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def per_layer(tracer: Tracer, passes: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from the recorded spans: name -> (value, samples).

    Times are at reference speed.  Ratios per input divide by the number of
    traced calls; ``classify.contradictions`` counts formulas that raised
    after ``classify`` picked them, per pass of fresh inputs.
    """
    spans = tracer.spans
    dur = [(s[2] - s[1]) * s[6] for s in spans]
    self_ns = list(dur)
    for i, s in enumerate(spans):
        if s[3] is not None:
            self_ns[s[3]] -= dur[i]
    layers = [layer_of(s[0]) for s in spans]

    def idx(layer):
        return [i for i, lay in enumerate(layers) if lay == layer]

    def self_per_input(layer):
        return (sum(self_ns[i] for i in idx(layer)) / 1e3 / n_in, n_in)

    calls = idx("call")
    n_in = max(len(calls), 1)
    model, preds, formulas = idx("model"), idx("predicate"), idx("formula")
    accepted = sum(1 for i in preds if spans[i][5] is True)

    classified_parents, contradictions = set(), 0
    attempts_by_entry: dict[int, int] = {}
    for i, s in enumerate(spans):
        if layers[i] == "classify":
            classified_parents.add(s[3])
        elif (layers[i] == "formula" and s[5] == "raise"
              and s[3] in classified_parents):
            contradictions += 1
        elif layers[i] == "model" and s[3] is not None and spans[s[3]][0] == "expm.exp_auto":
            # Inside exp_auto but outside every wrapped layer, a construction
            # can only be the magic-basis retry's conjugated element.
            attempts_by_entry[s[3]] = attempts_by_entry.get(s[3], 0) + 1
    magic_hits = sum(1 for e in attempts_by_entry if spans[e][5] == "magic")

    out = {
        "model.construct_us": (_median_us([dur[i] for i in model]), len(model)),
        "model.constructs_per_input": (len(model) / n_in, n_in),
        "expm.predicates_per_input": (len(preds) / n_in, n_in),
        "expm.predicate_hit_ratio": (accepted / len(preds) if preds else 0.0, len(preds)),
        "expm.predicate_self_us_per_input": self_per_input("predicate"),
        "expm.formula_self_us_per_input": self_per_input("formula"),
        "classify.calls_per_input": (len(idx("classify")) / n_in, n_in),
        "classify.self_us_per_input": self_per_input("classify"),
        "classify.contradictions": (contradictions / max(passes, 1), passes),
        "fallback.magic_attempts_per_input": (sum(attempts_by_entry.values()) / n_in, n_in),
        "fallback.magic_hit_ratio": (magic_hits / len(attempts_by_entry)
                                     if attempts_by_entry else 0.0, len(attempts_by_entry)),
        "oracle.calls_per_input": (len(idx("oracle")) / n_in, n_in),
        "oracle.self_us_per_input": self_per_input("oracle"),
        "residual.self_us_per_input": self_per_input("residual"),
        "eig3.self_us_per_input": self_per_input("eig3"),
    }
    for tag in FORMULA_TAGS.values():
        d = [dur[i] for i in formulas
             if FORMULA_TAGS.get(spans[i][0].partition(".")[2]) == tag]
        out[f"formula.{tag}_us"] = (_median_us(d), len(d))
    for demo in DEMO_ENTRIES:
        d = [dur[i] for i, s in enumerate(spans) if s[0] == "demos." + demo]
        out[f"demos.{demo}_us"] = (_median_us(d), len(d))
    return out


def metric_layer(name: str) -> str:
    """Layer a per-layer metric reads; the magic retry is counted in model spans."""
    head, _, tail = name.partition(".")
    if head == "expm":
        return "predicate" if tail.startswith("predicate") else "formula"
    return "model" if head == "fallback" else head


def absent_metrics(tracer: Tracer) -> list[str]:
    """Per-layer metrics whose layer had no entry point to wrap."""
    missing = set(WRAPPED_LAYERS) - tracer.present
    return [name for name in PER_LAYER_UNITS if metric_layer(name) in missing]
