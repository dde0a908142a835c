"""scripts/code_lines.py, the size counter: blanks, comments and docstrings
are not code; every other line is."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code


# a comment-only line
class Box:
    """A class docstring."""

    size = 2

    def area(self):
        """A function
        docstring."""
        text = """a string that is
not a docstring"""
        return math.pi * self.size ** 2, text
'''


def test_blanks_comments_and_docstrings_are_not_code():
    # code: import, class, size, def, text = (two lines), return
    assert code_lines.count(SNIPPET) == (18, 7)


def test_sums_every_module_below_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{3:>6} {1:>6}  b.py", f"{18:>6} {7:>6}  pkg/a.py", f"{21:>6} {8:>6}  (sum)"]
