"""Command line front end.

Three subcommands share a problem-file argument and the heuristic
flags: `cell` builds a sign-invariant cell around a full sample,
`explain` generalizes a conflict over an assignment of all but the last
variable, and `solve` decides a conjunction.  Exit status is 0 on
success, 1 when construction fails or the solver gives up, and 2 on
input errors, which reach `main` as `ValueError`s (`ParseError` is
one).
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
from .realalg import realalg_to_text
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
    if not text.isascii():
        raise ValueError(f"bad sample coordinate: not ASCII: {text!r}")
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        coords = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad sample coordinate: {exc}") from exc
    if len(coords) != expected:
        raise ValueError(
            f"sample has {len(coords)} coordinates, expected {expected}"
        )
    return coords


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="problem file, or - for stdin")
    sub.add_argument(
        "--heuristic",
        choices=sorted(HEURISTIC_IDS),
        default="eq-bc",
        help="section/sector root-ordering heuristic pair",
    )
    sub.add_argument(
        "--factor-mode", choices=("finest", "squarefree"), default="finest"
    )
    sub.add_argument("--relax-top-connectedness", action="store_true")
    sub.add_argument("--stats", action="store_true", help="print run statistics")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onecell")
    subs = parser.add_subparsers(dest="command", required=True)

    cell = subs.add_parser("cell", help="build a cell around a sample point")
    _add_common(cell)
    cell.add_argument(
        "--sample", required=True, help="comma-separated rationals, one per variable"
    )
    cell.add_argument("--trace", metavar="FILE", help="write the derivation trace")

    explain = subs.add_parser("explain", help="generalize a conflict to a clause")
    _add_common(explain)
    explain.add_argument(
        "--sample",
        required=True,
        help="comma-separated rationals for all but the last variable",
    )
    explain.add_argument("--trace", metavar="FILE", help="write the derivation trace")

    solve = subs.add_parser("solve", help="decide a conjunction")
    _add_common(solve)
    solve.add_argument(
        "--budget", type=int, default=256, help="maximum number of explanations"
    )
    return parser


def _write_trace(path: Optional[str], trace) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())
            fh.write("\n")
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _finish(args, stats: RunStats) -> None:
    if args.stats:
        for line in stats.lines():
            print(line)


def _cmd_cell(args) -> int:
    problem = _read_problem(args.file)
    cfg = config_from_id(args.heuristic, args.factor_mode, args.relax_top_connectedness)
    coords = _parse_sample(args.sample, len(problem.variables))
    stats = RunStats()
    result = single_cell(problem.polynomials(), coords, cfg, stats)
    if isinstance(result, Fail):
        print(f"FAIL: {result.reason}")
        _finish(args, stats)
        return 1
    print(cell_to_text(result.cell), end="")
    _write_trace(args.trace, result.trace)
    _finish(args, stats)
    return 0


def _cmd_explain(args) -> int:
    problem = _read_problem(args.file)
    if not problem.variables:
        raise ValueError("explain needs at least one declared variable")
    cfg = config_from_id(args.heuristic, args.factor_mode, args.relax_top_connectedness)
    coords = _parse_sample(args.sample, len(problem.variables) - 1)
    stats = RunStats()
    result = explain_conflict(problem.constraints, coords, cfg, stats)
    if isinstance(result, Fail):
        print(f"FAIL: {result.reason}")
        _finish(args, stats)
        return 1
    print(cell_to_text(result.cell), end="")
    print(clause_to_text(result.cell))
    _write_trace(args.trace, result.trace)
    _finish(args, stats)
    return 0


def _cmd_solve(args) -> int:
    problem = _read_problem(args.file)
    cfg = config_from_id(args.heuristic, args.factor_mode, args.relax_top_connectedness)
    if args.budget < 0:
        raise ValueError("budget must be nonnegative")
    stats = RunStats()
    result = solve_conjunction(
        problem.constraints, len(problem.variables), args.budget, cfg, stats
    )
    print(result.status)
    if result.status == SAT:
        for name, value in zip(problem.variables, result.model):
            print(f"{name} = {realalg_to_text(value)}")
    _finish(args, stats)
    if result.status in (SAT, UNSAT):
        return 0
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"cell": _cmd_cell, "explain": _cmd_explain, "solve": _cmd_solve}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
