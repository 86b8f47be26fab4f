"""tools/code_lines.py: counts a package's code lines, fails loudly on any
other argument."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_counts_code_lines_only():
    source = ('"""Module doc."""\n\n# a comment\nx = (1,\n     2)\n\n\n'
              'def f():\n    """Doc."""\n    return x\n')
    assert code_lines.code_lines(source) == 4


def test_package_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("# only a comment\ny = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a", "1", "b", "2", "total", "3"]


@pytest.mark.parametrize("argv", [["--help"], ["no/such/dir"], ["EMPTY"], ["EMPTY", "EMPTY"]],
                         ids=["help-flag", "missing", "empty-dir", "two-args"])
def test_bad_path_fails_loudly(argv, tmp_path, capsys):
    argv = [str(tmp_path) if a == "EMPTY" else a for a in argv]
    assert code_lines.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is not a directory holding .py modules" in err
