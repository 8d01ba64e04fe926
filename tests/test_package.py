"""The import path carries library code only.

Every public module-level function or class in ``src/su4exp`` is used by
other library code, exported in ``su4exp.__all__``, or read by the benchmark
in ``perfbench/``.  A helper that only tests call belongs in ``tests/``.
Every method is read by name somewhere in ``src/``, ``tests/`` or
``perfbench/``, unless it overrides a base class's.
"""

import ast
import importlib
from pathlib import Path

import su4exp

SRC = Path(su4exp.__file__).parent
READERS = (SRC, Path(__file__).parent, SRC.parent.parent / "perfbench")

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


def _names_read(tree: ast.AST) -> set[str]:
    """Every attribute, name or identifier string that tree reads."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
    return names


def _unread_methods() -> list[str]:
    read = set().union(*(_names_read(ast.parse(f.read_text()))
                         for d in READERS for f in sorted(d.glob("*.py"))))
    unread = []
    for f in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"su4exp.{f.stem}")
        for stmt in ast.parse(f.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = getattr(module, stmt.name).__mro__[1:]
            for m in stmt.body:
                if (isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                        and m.name not in read
                        and not any(hasattr(b, m.name) for b in bases)):
                    unread.append(f"{f.stem}.{stmt.name}.{m.name}")
    return unread


def test_every_method_has_a_reader():
    assert _unread_methods() == []


def test_all_lists_every_name_the_package_imports():
    # ``from su4exp import *`` gives exactly the names __init__.py imports.
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
                for a in n.names]
    assert sorted(imported) == sorted(su4exp.__all__)
