import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "counted_lines.py"
_spec = importlib.util.spec_from_file_location("counted_lines", _SCRIPT)
counted_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counted_lines)


def test_counted_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # a trailing comment\n"
        '    """Docstring."""\n'
        "    y = (x +\n"
        "\n"
        "         1)\n"
        '    s = """a string\n'
        'that is a value"""\n'
        '    "a string statement"\n'
        "    return y, s\n"
    )
    # def, the two lines of y (not the blank one inside the parentheses),
    # the two lines of s, and return.
    assert counted_lines.counted_lines(source) == 6


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    assert counted_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [["2", "a.py"], ["1", "b.py"], ["3", "total"]]
    assert counted_lines.main([str(tmp_path / "none")]) == 2
