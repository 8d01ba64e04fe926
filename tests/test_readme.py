"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    # The ```python block under "## Library quick start", run as it stands:
    # it prints classify's tag, then exp_auto's method and residual.
    section = README.read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    tag, result = capsys.readouterr().out.splitlines()
    assert tag == "quadratic-I"
    assert result.startswith("perskew ")
