"""tools/code_lines.py, the code-line count quoted for src/."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
x = [
    1,  # a trailing comment
    2,
]


class C:
    """A class docstring."""

    def f(self):
        """A method docstring,
        over two lines."""
        return """a string
that is not a docstring"""
'''


def test_counts_code_lines_only():
    """Docstrings, comments and blank lines do not count; every line of a
    statement spread over several lines does, a string's included."""
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
