"""tools/code_lines.py, the code-line and parser-token counts quoted for src/."""

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


def test_counts_parser_tokens():
    """Comments and the newlines inside brackets or after a comment line do
    not count; the logical line's NEWLINE and the ENDMARKER do, and a
    docstring is one token."""
    assert code_lines.parser_tokens("x = (1,\n     2)  # two\n\n# done\n") == 9
    assert code_lines.parser_tokens('"""A docstring\nover two lines."""\n') == 3
    assert code_lines.parser_tokens(SOURCE) == 34


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [["8", "34"], ["1", "5"], ["9", "39"]]
    assert out[-1].endswith("total")


def test_main_refuses_no_path_or_a_missing_one(tmp_path, capsys):
    """No path, or any path that does not exist, prints the usage line and
    returns 1, before any module is counted."""
    missing = str(tmp_path / "missing")
    for argv in ([], [missing], [str(tmp_path), missing]):
        assert code_lines.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: python tools/code_lines.py")


def test_every_module_stays_within_4096_parser_tokens():
    """Every module of src/ptring has at most 4096 parser tokens: past that
    size compiling a module peaks about 230 KB higher (see the tool's
    docstring), which a process that compiles the package without a
    bytecode cache pays."""
    src = _PATH.parent.parent / "src" / "ptring"
    modules = code_lines._modules([str(src)])
    assert modules
    for path in modules:
        source = pathlib.Path(path).read_text(encoding="utf-8")
        assert code_lines.parser_tokens(source) <= 4096, path
