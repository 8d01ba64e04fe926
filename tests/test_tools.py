"""The code-line counter that the size figures in ROADMAP.md use."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts its line once

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """Function docstring."""
        "a second string statement is code"
        return (1 +
                2)
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, x (2 lines), def, the second string, return (2 lines).
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.code_lines("") == 0
