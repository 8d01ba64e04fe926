"""Count the code lines of Python modules: lines that hold a token outside
comments and docstrings.

A docstring is the string statement that opens a module, class or function
body (``ast.get_docstring``'s); every line a token spans counts, so a
multi-line string or bracket counts each of its lines once.  Blank lines,
comment lines and docstrings count for nothing.

    python3 tools/code_lines.py src            # per module, then the total
    python3 tools/code_lines.py a.py b.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token outside comments and
    docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first.lineno)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    files = []
    for arg in argv or ["src"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
