"""``tools/code_lines.py`` counts the lines that carry code: blank lines,
comment-only lines and docstrings do not count, and a token spanning
several lines counts each of them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment after code: the line counts


# a comment-only line does not
def f(x):
    """One-line docstring."""
    s = """a multi-line string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class
    docstring."""

    y = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def, the string's two lines, the return's two lines, class, y = 1
    assert _tool().code_lines(SNIPPET) == 8
    assert _tool().code_lines("") == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = [\n    2]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     3 a.py", "     8 b.py", "    11 total"]
