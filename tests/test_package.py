"""The import path carries library code only.

Every public module-level function or class in ``src/su4exp`` is used by
other library code, exported in ``su4exp.__all__``, or read by the benchmark
in ``perfbench/``.  A helper that only tests call belongs in ``tests/``.
"""

import ast
from pathlib import Path

import su4exp

SRC = Path(su4exp.__file__).parent

# Public names that no library code calls but the benchmark reads.
_PREDICATES = "perfbench/layers.py wraps every expm.is_* function as a predicate span"
BENCHMARK_READS = {
    "is_tridiagonal_type": _PREDICATES,
    "is_perskew": _PREDICATES + ", and its self-test asserts this one is wrapped",
    "is_skew_hamiltonian": _PREDICATES,
    "is_bisymmetric": _PREDICATES,
    "is_imaginary_symmetric": _PREDICATES,
    "is_normal_element": _PREDICATES,
}


def _used_names(node: ast.AST, modules: set[str]) -> set[str]:
    """Names that node looks up, imports, or reads off a package module."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.alias):
            used.add(n.name)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            used.add(n.attr)
    return used


def _unused_public_definitions() -> list[str]:
    files = sorted(SRC.glob("*.py"))
    modules = {f.stem for f in files}
    statements = [(f.stem, stmt) for f in files for stmt in ast.parse(f.read_text()).body]
    used = [_used_names(stmt, modules) for _, stmt in statements]
    exempt = set(su4exp.__all__) | set(BENCHMARK_READS)
    unused = []
    for k, (module, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_") and stmt.name not in exempt
                and not any(stmt.name in u for j, u in enumerate(used) if j != k)):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_definition_has_a_library_reader():
    from su4exp import expm

    assert _unused_public_definitions() == []
    # An entry for a name that is gone would exempt nothing the benchmark reads.
    assert [n for n in BENCHMARK_READS if not callable(getattr(expm, n, None))] == []
