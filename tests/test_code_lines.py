import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""
import os  # a comment after code counts


# a comment alone does not
def f(a,
      b):
    """Docstring."""
    text = """a string
    over two lines"""
    return (a +
            b)


class C:
    """One line."""

    x = 1
'''


def test_counts_code_lines_but_not_blanks_comments_or_docstrings(tmp_path):
    # import, def (two lines), the string (two), return (two), class, x = 1
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["10", "total"]]
    assert code_lines.main([]) == 2
