"""Command line interface: outputs, exit codes, determinism."""

import pytest

from onecell.cli import main

from conftest import within_seconds


RUNNING = """\
(set-logic QF_NRA)
(declare-const u Real)
(declare-const v Real)
(assert (> (+ u (* -2 v) 1) 0))
(assert (< (+ (* u u) (* v v)) 1))
(assert (> (- u (* 2 v) 1) 0))
"""

CONFLICT = """\
(declare-const x Real)
(declare-const y Real)
(assert (< (+ (* x x) (* y y)) 1))
(assert (> (- y 1) 0))
"""


# x1*x3+x2 vanishes identically over (x, y) = (0, 0)
NULLIFIED = """\
(declare-const x Real)
(declare-const y Real)
(declare-const z Real)
(assert (> (+ (* x z) y) 0))
"""


@pytest.fixture
def nullified_file(tmp_path):
    f = tmp_path / "nullified.smt2"
    f.write_text(NULLIFIED)
    return str(f)


@pytest.fixture
def running_file(tmp_path):
    f = tmp_path / "running.smt2"
    f.write_text(RUNNING)
    return str(f)


@pytest.fixture
def conflict_file(tmp_path):
    f = tmp_path / "conflict.smt2"
    f.write_text(CONFLICT)
    return str(f)


def test_cell_subcommand(running_file, capsys):
    code = main(["cell", running_file, "--sample", "1/8,-3/4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        'level 1 sector (root "5*x1^2-2*x1-3" 1) (root "x1^2-1" 2)\n'
        'level 2 sector (root "x2^2+x1^2-1" 1) (root "2*x2-x1+1" 1)\n'
    )


def test_cell_is_deterministic(running_file, capsys):
    main(["cell", running_file, "--sample", "1/8,-3/4", "--stats"])
    first = capsys.readouterr().out
    main(["cell", running_file, "--sample", "1/8,-3/4", "--stats"])
    second = capsys.readouterr().out
    assert first == second


def test_cell_writes_trace(running_file, tmp_path, capsys):
    trace_file = tmp_path / "trace.txt"
    code = main(
        ["cell", running_file, "--sample", "1/8,-3/4", "--trace", str(trace_file)]
    )
    capsys.readouterr()
    assert code == 0
    text = trace_file.read_text()
    assert "DERIVE" in text and "VIA" in text


@pytest.mark.parametrize("command, sample", [("cell", "1/8,-3/4"), ("explain", "0")])
def test_unwritable_trace_prints_nothing(running_file, conflict_file, tmp_path, capsys,
                                         command, sample):
    """A trace path in a missing directory is an input error, exit 2,
    reported before the cell is printed: stdout stays empty."""
    problem = running_file if command == "cell" else conflict_file
    trace = tmp_path / "missing" / "trace.txt"
    code = main([command, problem, "--sample", sample, "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_cell_stats_flag(running_file, capsys):
    main(["cell", running_file, "--sample", "1/8,-3/4", "--stats"])
    out = capsys.readouterr().out
    assert "cells_constructed=1" in out
    assert "resultants_computed=" in out


def test_cell_fail_exit_code(tmp_path, capsys):
    f = tmp_path / "null.smt2"
    f.write_text(
        "(declare-const a Real)(declare-const b Real)(declare-const c Real)"
        "(assert (> (+ (* a c) b) 0))"
    )
    code = main(["cell", str(f), "--sample", "0,0,0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert main(["cell", str(f), "--sample", "1,0,0"]) == 0
    capsys.readouterr()


def test_cell_bad_sample_length(running_file, capsys):
    code = main(["cell", running_file, "--sample", "1,2,3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_explain_subcommand(conflict_file, capsys):
    code = main(["explain", conflict_file, "--sample", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("level 1 ")
    assert out.splitlines()[-1].startswith("(not ")


def test_explain_nullified_exit_code(nullified_file, capsys):
    code = main(["explain", nullified_file, "--sample", "0,0"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == "FAIL: nullified polynomial x1*x3+x2 at the assignment\n"


def test_bad_sample_coordinate_exit_code(nullified_file, capsys):
    # "٠,١,٢": Arabic-Indic digits, which Fraction would read as 0, 1, 2;
    # it also reads "1e3" as 1000 and "1_0" as 10, and spends unbounded
    # time on a large exponent
    for sample in ("0,abc,1", "\u0660,\u0661,\u0662", "1e3,0,0", "1_0,0,0",
                   "1e20000000,0,0"):
        code = within_seconds(2, lambda: main(["cell", nullified_file, "--sample", sample]))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: bad sample coordinate: ")


def test_negative_budget_exit_code(nullified_file, capsys):
    code = main(["solve", nullified_file, "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: budget must be nonnegative\n"
    assert captured.out == ""


def test_explain_with_a_zero_constraint_polynomial(tmp_path, capsys):
    """x >= x is 0 >= 0: a constant polynomial, not factored."""
    f = tmp_path / "zero.smt2"
    f.write_text("(declare-const x Real)(declare-const y Real)"
                 "(assert (< (* y y) 0))(assert (>= x x))")
    code = main(["explain", str(f), "--sample", "0"])
    assert code == 0
    assert capsys.readouterr().out == "level 1 sector -inf +inf\n(not true)\n"


def test_explain_satisfiable_is_input_error(tmp_path, capsys):
    f = tmp_path / "sat.smt2"
    f.write_text("(declare-const x Real)(declare-const y Real)(assert (> y 0))")
    code = main(["explain", str(f), "--sample", "0"])
    assert code == 2
    capsys.readouterr()


def test_solve_subcommand(conflict_file, capsys):
    code = main(["solve", conflict_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "unsat"


def test_solve_sat_prints_model(tmp_path, capsys):
    f = tmp_path / "sat.smt2"
    f.write_text("(declare-const x Real)(assert (> x 2))")
    code = main(["solve", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("x = ")


def test_solve_budget_unknown(conflict_file, capsys):
    code = main(["solve", conflict_file, "--budget", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "unknown"


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.smt2"
    f.write_text("(assert (< x undeclared))")
    code = main(["solve", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    code = main(["solve", "/nonexistent/path.smt2"])
    assert code == 2
    capsys.readouterr()


def test_heuristic_flag_accepted(running_file, capsys):
    for hid in ["eq-bc", "eq-ch", "eq-ldb", "ch-ch", "ldb-ldb", "bc", "full"]:
        code = main(["cell", running_file, "--sample", "1/8,-3/4", "--heuristic", hid])
        assert code == 0
    capsys.readouterr()


def test_removed_connectedness_flag_is_an_input_error(conflict_file, capsys):
    """Every cell is connected at every level; no subcommand takes the
    flag that used to relax the top one."""
    flag = "--relax-top-connectedness"
    for args in (["cell", "--sample", "0,2"], ["explain", "--sample", "0"], ["solve"]):
        with pytest.raises(SystemExit) as exc:
            main([args[0], conflict_file, *args[1:], flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(declare-const x Real)(assert (> x 0))"))
    code = main(["solve", "-"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "sat"


def test_deeply_nested_input_exit_code(tmp_path, capsys):
    f = tmp_path / "deep.smt2"
    f.write_text("(declare-const x Real)(assert (> " + "(+ " * 1000 + "x" + ")" * 1000 + " 0))")
    code = main(["solve", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested deeper" in err
