"""tools/code_lines.py: its counting rule on a literal source, and its
usage errors."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# code lines: the import, the def, and the four lines of the return
SOURCE = '''"""A module docstring,
on two lines."""

import math  # a trailing comment does not drop its line

# a comment on a line of its own


def area(r):
    """A function docstring."""
    # another comment
    return (
        math.pi
        * r**2
    )
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_file_then_the_total(tmp_path, capsys):
    source = tmp_path / "area.py"
    source.write_text(SOURCE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"     6 {source}", "     6 total"]


@pytest.mark.parametrize("argv", [["--help"], ["no/such/path"]])
def test_an_option_or_a_missing_path_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        code_lines.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: code_lines.py")
