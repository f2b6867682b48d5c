import dataclasses
import importlib.util
import math
from pathlib import Path

from semrelay.penalty import PenaltyConfig, run

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    """The module of the script tools/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counted_lines = _load("counted_lines")
fingerprint = _load("fingerprint")


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


def test_fingerprint_lines_repeat_and_see_one_ulp_of_eta():
    systems = fingerprint.systems()
    assert len(systems) == 68 and list(systems)[:4] == ["W=1e5", "W=1e6", "W=1e7", "H=0"]
    # A converged system and one that stops at its first cycle.
    reports = {name: run(*systems[name], PenaltyConfig()) for name in ("W=1e5", "rng7-9")}
    lines = [fingerprint.fingerprint(name, report) for name, report in reports.items()]
    again = [fingerprint.fingerprint(name, run(*systems[name], PenaltyConfig())) for name in reports]
    assert lines == again
    assert lines[0].split()[:2] == ["W=1e5", "converged"]
    assert lines[1].split()[1:5] == ["infeasible", "1", "0", "0"]
    report = reports["W=1e5"]
    best = dataclasses.replace(report.best, eta=math.nextafter(report.best.eta, math.inf))
    moved = fingerprint.fingerprint("W=1e5", dataclasses.replace(report, best=best))
    assert moved.split()[:5] == lines[0].split()[:5] and moved != lines[0]
