"""Command line front end.

Three subcommands share a problem-file argument and the heuristic
flags: `cell` builds a sign-invariant cell around a full sample,
`explain` generalizes a conflict over an assignment of all but the last
variable, and `solve` decides a conjunction.  `main` reads the problem,
builds the configuration and the statistics, and prints `--stats`, once
for all three.  Exit status is 0 on success, 1 when construction fails
or the solver gives up, and 2 on input errors, which reach `main` as
`ValueError`s (`ParseError` is one).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .cells import cell_to_text
from .config import HEURISTIC_IDS, config_from_id
from .engine import Fail, single_cell
from .explain import clause_to_text, explain_conflict
from .realalg import rational_from_text, realalg_to_text
from .smtlib import parse_problem
from .solver import SAT, UNSAT, solve_conjunction
from .stats import RunStats


def _read_problem(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    return parse_problem(text)


def _parse_sample(text: str, expected: int) -> List[Fraction]:
    """Numerals separated by commas or whitespace (`rational_from_text`)."""
    if not text.isascii():  # split() also splits at non-ASCII spaces
        raise ValueError(f"bad sample coordinate: not ASCII: {text!r}")
    try:
        coords = [rational_from_text(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad sample coordinate: {exc}") from exc
    if len(coords) != expected:
        raise ValueError(
            f"sample has {len(coords)} coordinates, expected {expected}"
        )
    return coords


def _write_trace(path: Optional[str], trace) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())
            fh.write("\n")
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _print_cell(result, trace_path: Optional[str], render) -> int:
    """Write the trace and print `render(cell)`, or print the failure; a
    trace that cannot be written fails before anything is printed."""
    if isinstance(result, Fail):
        print(f"FAIL: {result.reason}")
        return 1
    _write_trace(trace_path, result.trace)
    print(render(result.cell), end="")
    return 0


def _cmd_cell(args, problem, cfg, stats) -> int:
    coords = _parse_sample(args.sample, len(problem.variables))
    result = single_cell(problem.polynomials(), coords, cfg, stats)
    return _print_cell(result, args.trace, cell_to_text)


def _cmd_explain(args, problem, cfg, stats) -> int:
    if not problem.variables:
        raise ValueError("explain needs at least one declared variable")
    coords = _parse_sample(args.sample, len(problem.variables) - 1)
    result = explain_conflict(problem.constraints, coords, cfg, stats)
    return _print_cell(
        result, args.trace, lambda c: cell_to_text(c) + clause_to_text(c) + "\n"
    )


def _cmd_solve(args, problem, cfg, stats) -> int:
    if args.budget < 0:
        raise ValueError("budget must be nonnegative")
    result = solve_conjunction(
        problem.constraints, len(problem.variables), args.budget, cfg, stats
    )
    print(result.status)
    if result.status == SAT:
        for name, value in zip(problem.variables, result.model):
            print(f"{name} = {realalg_to_text(value)}")
    return 0 if result.status in (SAT, UNSAT) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onecell")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, summary: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(run=run)
        sub.add_argument("file", help="problem file, or - for stdin")
        sub.add_argument(
            "--heuristic",
            choices=sorted(HEURISTIC_IDS),
            default="eq-bc",
            help="section/sector root-ordering heuristic pair",
        )
        sub.add_argument("--stats", action="store_true", help="print run statistics")
        return sub

    for name, run, summary, sample_help in (
        ("cell", _cmd_cell, "build a cell around a sample point",
         "comma-separated rationals, one per variable"),
        ("explain", _cmd_explain, "generalize a conflict to a clause",
         "comma-separated rationals for all but the last variable"),
    ):
        sub = add(name, run, summary)
        sub.add_argument("--sample", required=True, help=sample_help)
        sub.add_argument("--trace", metavar="FILE", help="write the derivation trace")
    solve = add("solve", _cmd_solve, "decide a conjunction")
    solve.add_argument(
        "--budget", type=int, default=256, help="maximum number of explanations"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = _read_problem(args.file)
        cfg = config_from_id(args.heuristic)
        stats = RunStats()
        code = args.run(args, problem, cfg, stats)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        for line in stats.lines():
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
