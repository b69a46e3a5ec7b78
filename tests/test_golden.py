"""Golden outputs: cells, traces, statistics, clauses and solver verdicts
on a fixed corpus must stay byte-identical.

The corpus runs in a fresh interpreter with PYTHONHASHSEED=0, so that
set iteration order is the same in every run; a second run under
PYTHONHASHSEED=1 must print the same bytes.  Running the module as a
script prints the corpus output:

    PYTHONHASHSEED=0 PYTHONPATH=src:tests python tests/test_golden.py

The golden file is the output of that command.  A change that is meant
to alter outputs must say so and why; a refactor must leave it alone.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "outputs.txt"

# the conjunctions of tests/test_solver.py
SOLVER_PROBLEMS = [
    "(declare-const x Real)(assert (> x 3))",
    "(declare-const x Real)(assert (> (* x x) 0))",
    "(declare-const x Real)(assert (= (* x x) 2))(assert (> x 0))",
    "(declare-const x Real)(assert (< (* x x) 0))",
    "(declare-const x Real)(assert (< 1 0))",
    "(declare-const x Real)(declare-const y Real)"
    "(assert (< (+ (* x x) (* y y)) 1))(assert (> (- y 1) 0))",
    "(declare-const x Real)(declare-const y Real)"
    "(assert (> (- y (* x x)) 0))(assert (< (- y x) 0))",
    "(declare-const a Real)(declare-const b Real)(declare-const c Real)"
    "(assert (> (+ (* a a) (* b b) (* c c)) 4))"
    "(assert (= (+ a b) 1))",
    "(declare-const x Real)",
]


def _emit_cell(out: list, result, points: int = 0) -> None:
    from onecell import Fail, cell_to_text
    from onecell.cells import cell_pick_interior_point
    from onecell.realalg import realalg_to_text

    if isinstance(result, Fail):
        out.append(f"FAIL {result.reason}\n")
        return
    out.append(cell_to_text(result.cell))
    for seed in range(points):
        pt = cell_pick_interior_point(result.cell, seed)
        out.append("point " + " ".join(realalg_to_text(c) for c in pt) + "\n")
    out.append(result.trace.to_text())
    out.append("\n".join(result.stats.lines()) + "\n")


def _fuzz(out: list) -> None:
    from onecell import config_from_id, single_cell
    from test_acceptance import _fuzz_instances

    for k, polys, coords, hid in _fuzz_instances(40):
        out.append(f"== fuzz {k} {hid}\n")
        _emit_cell(out, single_cell(polys, coords, config_from_id(hid)), points=2)


def _sweep(out: list) -> None:
    """Ten instances at a sample whose x1 is an irrational root of one of
    the polynomials, each under all seven heuristics."""
    from onecell import HEURISTIC_IDS, config_from_id, isolate_real_roots, single_cell
    from onecell.realalg import realalg_to_text

    from conftest import random_poly, random_sample

    rng = random.Random(2212)
    for k in range(10):
        while True:
            u = random_poly(rng, 1, max_deg=rng.randint(2, 3))
            roots = [r for r in isolate_real_roots(u) if not r.is_rational()]
            if roots:
                break
        alpha = rng.choice(roots)
        polys = [u] + [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
        coords = [alpha] + random_sample(rng, 1)
        for hid in sorted(HEURISTIC_IDS):
            out.append(f"== sweep {k} {hid} at {realalg_to_text(alpha)}\n")
            _emit_cell(out, single_cell(polys, coords, config_from_id(hid)), points=2)


# roots of different polynomials with equal values, so that root orders
# and interval bounds need their tie-breaks
TIES = [
    (["x2-x1", "x2^2-x1^2", "x2^2+x1^2-2"], ["1", "1/2"]),
    (["x2-x1", "x2^2-x1^2", "x2-2*x1+1"], ["1", "1"]),
    (["x2+x1", "x2^2-x1^2", "x2^3+x1^3", "x2-3"], ["1", "-1/3"]),
    (["x1^2-2", "x2^2-2", "x2-x1", "x2^2-x1*x2"], ["(root x1^2-2 2)", "0"]),
    (["x1^2-2", "x2^2-2", "x2-x1", "x2^2-x1*x2"], ["(root x1^2-2 2)", "(root x1^2-2 2)"]),
    (["x1*x2-1", "x2-x1", "x2^2-1", "x1^2-x2-1"], ["1", "2"]),
]
TIE_CONFLICTS = [
    (["x2-x1 > 0", "x2^2-x1^2 < 0"], ["1"]),
    (["x2-x1 > 0", "x2^2-x1^2 < 0", "x2^2-1 > 0", "x2+x1 < 0"], ["1"]),
    (["x2^2-2 = 0", "x2-x1 < 0", "x2 > 0"], ["(root x1^2-2 2)"]),
]


def _ties(out: list) -> None:
    from onecell import (Constraint, Fail, HEURISTIC_IDS, clause_to_text, config_from_id,
                         explain_conflict, parse_poly, single_cell)
    from oracles import realalg_from_text

    for k, (polys, coords) in enumerate(TIES):
        for hid in sorted(HEURISTIC_IDS):
            out.append(f"== tie {k} {hid}\n")
            sample = [realalg_from_text(c) for c in coords]
            _emit_cell(out, single_cell(polys, sample, config_from_id(hid)), points=2)
    for k, (cons, coords) in enumerate(TIE_CONFLICTS):
        C = []
        for c in cons:
            poly, rel, _ = c.split()
            C.append(Constraint(parse_poly(poly), rel))
        for hid in sorted(HEURISTIC_IDS):
            out.append(f"== tie conflict {k} {hid}\n")
            sample = [realalg_from_text(c) for c in coords]
            result = explain_conflict(C, sample, config_from_id(hid))
            if not isinstance(result, Fail):
                out.append(clause_to_text(result.cell) + "\n")
            _emit_cell(out, result, points=2)


def _conflicts(out: list) -> None:
    """The first ten conflicts of the explanation-soundness criterion."""
    from onecell import Constraint, Fail, check_conflict, clause_to_text, explain_conflict
    from onecell.realalg import Sample

    from conftest import random_poly, random_sample

    rng = random.Random(77)
    built = attempts = 0
    while built < 10:
        attempts += 1
        nv = rng.randint(1, 2)
        prefix = random_sample(rng, nv - 1)
        p = random_poly(rng, nv)
        q = random_poly(rng, nv)
        if p.level != nv:
            continue
        variants = [
            [Constraint(p, "<"), Constraint(p, ">")],
            [Constraint(p, "="), Constraint(p, "!=")],
            [Constraint(p, "<="), Constraint(q, rng.choice([">", "<"])),
             Constraint(p, ">")],
        ]
        C = variants[attempts % len(variants)]
        if any(c.poly.level > nv for c in C):
            continue
        if not check_conflict(C, Sample(prefix)):
            continue
        out.append(f"== conflict {attempts} {C!r} at {prefix}\n")
        result = explain_conflict(C, prefix)
        if isinstance(result, Fail):
            out.append(f"FAIL {result.reason}\n")
            continue
        out.append(clause_to_text(result.cell) + "\n")
        _emit_cell(out, result, points=2)
        built += 1


def _solve(out: list) -> None:
    from onecell import RunStats, cell_to_text, parse_problem, solve_conjunction
    from onecell.explain import Constraint
    from onecell.realalg import realalg_to_text

    from conftest import random_poly

    problems = []
    for text in SOLVER_PROBLEMS:
        prob = parse_problem(text)
        problems.append((text, prob.constraints, len(prob.variables), 256))
    problems.append((SOLVER_PROBLEMS[5], parse_problem(SOLVER_PROBLEMS[5]).constraints,
                     2, 1))
    # the random conjunctions of test_models_verified_randomly
    rng = random.Random(20240817)
    for _ in range(25):
        nv = rng.randint(1, 2)
        cons = []
        for _ in range(rng.randint(1, 3)):
            p = random_poly(rng, nv)
            cons.append(Constraint(p, rng.choice(["<", "<=", ">", ">=", "=", "!="])))
        problems.append((repr(cons), cons, nv, 16))
    for text, cons, nvars, budget in problems:
        out.append(f"== solve budget={budget} {text}\n")
        stats = RunStats()
        r = solve_conjunction(cons, nvars, budget=budget, stats=stats)
        out.append(f"status {r.status} explanations {r.explanations}\n")
        if r.model is not None:
            out.append("model " + " ".join(realalg_to_text(c) for c in r.model) + "\n")
        for cell in r.learned:
            out.append("learned\n" + cell_to_text(cell))
        out.append("\n".join(stats.lines()) + "\n")


def render() -> str:
    out: list[str] = []
    for section in (_fuzz, _sweep, _ties, _conflicts, _solve):
        section(out)
    return "".join(out)


# The corpus rendered with every memo table bounded to one entry; the
# sizes of the tables afterwards go to the last line of stderr.
_RENDER_WITH_BOUND_ONE = """
import json, sys
from onecell import memo
memo.BOUND = 1
import test_golden
sys.stdout.write(test_golden.render())
sys.stderr.write("\\n" + json.dumps({k: len(t) for k, t in memo.TABLES.items()}))
"""


def _render(args: list[str], hash_seed: str = "0"):
    """Run the corpus in a fresh interpreter, assert that its output is
    the golden file byte for byte, and return the finished process."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    got, want = proc.stdout, GOLDEN.read_bytes()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            if g != w:
                raise AssertionError(f"golden line {n} differs:\n  got  {g!r}\n  want {w!r}")
        raise AssertionError(
            f"golden output has {len(got_lines)} lines, expected {len(want_lines)}"
        )
    return proc


def test_golden_outputs_are_byte_identical():
    _render([__file__])


def test_golden_outputs_do_not_depend_on_the_hash_seed():
    """Set iteration order moves with the hash seed; the cells, traces
    and the order properties are drained in must not."""
    _render([__file__], hash_seed="1")


def test_golden_outputs_do_not_depend_on_what_the_memo_keeps():
    """Every table holding one entry drops almost every result as soon
    as the next one arrives, and `memo.POLYS` almost every polynomial,
    so equal polynomials are nearly always distinct objects; the outputs
    must not move, and no table may grow past its bound."""
    proc = _render(["-c", _RENDER_WITH_BOUND_ONE])
    sizes = json.loads(proc.stderr.decode().splitlines()[-1])
    assert set(sizes) == {"factor", "resultant", "discriminant", "canonical", "roots",
                          "polys"}
    assert all(0 < n <= 1 for n in sizes.values()), sizes


if __name__ == "__main__":
    sys.stdout.write(render())
