"""Conjunction solving: sample selection, verdicts, budget handling."""

import random
from fractions import Fraction

import pytest

from onecell import explain, solver
from onecell.cells import cell_pick_interior_point
from onecell.config import HEURISTIC_IDS, config_from_id
from onecell.engine import Fail
from onecell.explain import Constraint, check_conflict, constraint_satisfied
from onecell.polynomial import MPoly, parse_poly
from onecell.smtlib import parse_problem
from onecell.solver import SAT, UNKNOWN, UNSAT, solve_conjunction

from conftest import random_poly, random_sample, within_seconds
from oracles import midpoint_check_conflict, simplest_between


# unsat: the cells learned at level 2 are x1 < 0 and x1 > 0, and x1 = 0
# violates the level-1 constraint -x1^2 < 0
COVERED_X1 = [Constraint(parse_poly("-x1^2"), "<"),
              Constraint(parse_poly("2*x1*x2"), "<"),
              Constraint(parse_poly("2*x1*x2-x1^2"), ">=")]


def test_simplest_between_basic():
    assert simplest_between(Fraction(-1, 2), Fraction(1, 2)) == 0
    assert simplest_between(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert simplest_between(Fraction(4), Fraction(5)) == Fraction(9, 2)
    assert simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert simplest_between(Fraction(10, 3), Fraction(100)) == 4


def test_simplest_between_is_strictly_inside_and_minimal(rng):
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = a + Fraction(rng.randint(1, 30), rng.randint(1, 20))
        r = simplest_between(a, b)
        assert a < r < b
        # no rational with a smaller denominator fits in the open interval
        for d in range(1, r.denominator):
            lo = (a * d).__floor__() + 1
            hi = (b * d).__ceil__() - 1
            for num in range(lo, hi + 1):
                assert not (a < Fraction(num, d) < b)


def test_simplest_between_rejects_empty():
    with pytest.raises(ValueError):
        simplest_between(Fraction(1), Fraction(1))


def _solve(text, **kw):
    prob = parse_problem(text)
    return solve_conjunction(prob.constraints, len(prob.variables), **kw)


def test_sat_simple():
    r = _solve("(declare-const x Real)(assert (> x 3))")
    assert r.status == SAT
    assert constraint_satisfied(Constraint(parse_poly("x1-3"), ">"), r.model)


def test_sat_prefers_simple_model():
    r = _solve("(declare-const x Real)(assert (> (* x x) 0))")
    assert r.status == SAT


def test_sat_equality_needs_algebraic_value():
    r = _solve("(declare-const x Real)(assert (= (* x x) 2))(assert (> x 0))")
    assert r.status == SAT
    assert not r.model[0].is_rational()


def test_unsat_direct_level_one():
    r = _solve("(declare-const x Real)(assert (< (* x x) 0))")
    assert r.status == UNSAT
    assert r.explanations == 1


def test_unsat_constant_constraint():
    r = _solve("(declare-const x Real)(assert (< 1 0))")
    assert r.status == UNSAT
    assert r.explanations == 0


def test_unsat_needs_learned_cover():
    r = _solve(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (< (+ (* x x) (* y y)) 1))(assert (> (- y 1) 0))"
    )
    assert r.status == UNSAT
    assert r.explanations >= 2
    assert r.learned


def test_sat_after_conflicts():
    # y > x^2 and y < x forces 0 < x < 1; many x choices conflict first
    r = _solve(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (> (- y (* x x)) 0))(assert (< (- y x) 0))"
    )
    assert r.status == SAT
    x, y = r.model
    from onecell.realalg import sign_at, Sample

    assert sign_at(parse_poly("x2-x1^2"), r.model) > 0
    assert sign_at(parse_poly("x2-x1"), r.model) < 0


def test_budget_exhaustion_gives_unknown():
    r = _solve(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (< (+ (* x x) (* y y)) 1))(assert (> (- y 1) 0))",
        budget=1,
    )
    assert r.status == UNKNOWN
    assert not r


def test_three_variable_sat():
    r = _solve(
        "(declare-const a Real)(declare-const b Real)(declare-const c Real)"
        "(assert (> (+ (* a a) (* b b) (* c c)) 4))"
        "(assert (= (+ a b) 1))"
    )
    assert r.status == SAT


def test_empty_conjunction_is_sat():
    r = _solve("(declare-const x Real)")
    assert r.status == SAT


def _random_conjunctions(rng):
    """25 random conjunctions in 1 or 2 variables, with their variable
    counts."""
    out = []
    for _ in range(25):
        nv = rng.randint(1, 2)
        cons = []
        for _ in range(rng.randint(1, 3)):
            p = random_poly(rng, nv)
            cons.append(Constraint(p, rng.choice(["<", "<=", ">", ">=", "=", "!="])))
        out.append((cons, nv))
    return out


def test_models_verified_randomly(rng):
    """Whatever verdict the search reaches, SAT models must satisfy
    every constraint exactly."""
    for cons, nv in _random_conjunctions(rng):
        r = solve_conjunction(cons, nv, budget=16)
        if r.status == SAT:
            assert all(constraint_satisfied(c, r.model) for c in cons)


def test_conflicts_match_the_midpoint_sweep(rng, monkeypatch):
    """The search decides conflicts from its own candidates.  On the
    random conjunctions and COVERED_X1, every level it explains is a
    conflict for the midpoint sweep, and every level it hands to the
    learned cells (no value chosen, none explained) is not."""
    events = []
    sweep, generalize = solver.sweep, solver._generalize

    def recording_sweep(C, cells, prefix):
        events.append(("level", len(prefix) + 1, prefix))
        return sweep(C, cells, prefix)

    def recording_generalize(C, prefix, *args):
        events.append(("explain",))
        return generalize(C, prefix, *args)

    monkeypatch.setattr(solver, "sweep", recording_sweep)
    monkeypatch.setattr(solver, "_generalize", recording_generalize)
    seen = {"explained": 0, "learned": 0}
    for cons, nv in _random_conjunctions(rng) + [(COVERED_X1, 2)]:
        events.clear()
        status = solve_conjunction(cons, nv, budget=16).status
        events.append(("end", status))
        for event, after in zip(events, events[1:]):
            if event[0] != "level":
                continue
            _, level, prefix = event
            C = [c for c in cons if c.poly.level == level]
            if after[0] == "explain":
                assert midpoint_check_conflict(C, prefix)
                seen["explained"] += 1
            elif after == ("end", UNSAT) or (after[0] == "level" and after[1] < level):
                assert not midpoint_check_conflict(C, prefix)
                seen["learned"] += 1
    assert min(seen.values()) > 0, seen


def test_conflicts_are_not_checked_twice(rng, monkeypatch):
    """The search's own sweep proves each conflict it explains, so it
    never calls the public `check_conflict`."""
    calls = []
    check = explain.check_conflict

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(explain, "check_conflict", counting_check)
    explained = 0
    for cons, nv in _random_conjunctions(rng) + [(COVERED_X1, 2)]:
        explained += solve_conjunction(cons, nv, budget=16).explanations
    assert explained > 0
    assert calls == []


def test_unsat_sums_finish_in_time():
    """Two unsat conjunctions that took 5 s and 10 s when the zero test
    at algebraic samples went through sympy's minimal polynomial; both
    together must fit in 6 s."""
    problems = [
        [("-2*x2^2-2*x1*x2-3", "<"), ("x2", "<"), ("-2*x2^2-2*x1*x2+x2-3", ">=")],
        [("3*x2-1", "<"), ("-3*x2^2+3*x1*x2+3*x1^2", "<"),
         ("-3*x2^2+3*x1*x2+3*x1^2+3*x2-1", ">=")],
    ]

    def solve_all():
        for problem in problems:
            cons = [Constraint(parse_poly(p), rel) for p, rel in problem]
            assert solve_conjunction(cons, 2).status == UNSAT

    within_seconds(6, solve_all)


def test_unsat_when_a_constraint_and_learned_cells_cover_x1():
    """Every x1 candidate is ruled out, by the level-1 constraint or a
    learned cell, which proves unsat."""
    r = solve_conjunction(COVERED_X1, 2)
    assert r.status == UNSAT
    assert len(r.learned) == 2


def test_model_does_not_depend_on_earlier_calls():
    # the single_cell call refines the cached root sqrt(2) far past its
    # isolating interval; candidate values are read off the interval itself
    from onecell.engine import single_cell

    C = [
        Constraint(parse_poly("x1^2-2"), "<"),
        Constraint(parse_poly("5*x1-7"), ">"),
    ]
    before = solve_conjunction(C, 1)
    single_cell(
        ["x1^2-2", "1000*x1-1414", "100000*x1-141422", "10000000*x1-14142136"], [2]
    )
    after = solve_conjunction(C, 1)
    assert before.status == after.status == SAT
    assert before.model[0].rational_value() == after.model[0].rational_value()
    assert after.model[0].rational_value() == Fraction(52, 37)


# square-free polynomials sharing the factor x2-2, so their resultant in
# x2 is zero: (x2-2)*(x2+2*x1-3) and (x2-2)*(x2-x1^2); sat at (-7/2, 11)
SHARED_FACTOR = [Constraint(parse_poly("x2^2+2*x1*x2-5*x2-4*x1+6"), ">"),
                 Constraint(parse_poly("-x1^2*x2+x2^2+2*x1^2-2*x2"), "<"),
                 Constraint(parse_poly("x1+2"), "<")]


def test_shared_factor_conjunction_is_sat():
    """Conflict cells must keep the roots of the factors other than the
    shared one ordered."""
    for h in HEURISTIC_IDS:
        r = solve_conjunction(SHARED_FACTOR, 2, cfg=config_from_id(h))
        assert r.status == SAT, h
        assert all(constraint_satisfied(c, r.model) for c in SHARED_FACTOR)


def _small_factor(rng):
    """A random a*x2 + b*x1 + c, a*x2 + b*x1^2 + c or
    x2^2 + b*x1*x2 + a*x1 + c with small integers."""
    x1, x2 = MPoly.var(1), MPoly.var(2)
    a, b, c = rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2), rng.randint(-3, 3)
    kind = rng.randint(0, 2)
    if kind == 0:
        return a * x2 + b * x1 + c
    if kind == 1:
        return a * x2 + b * x1 * x1 + c
    return x2 * x2 + b * x1 * x2 + a * x1 + c


def test_shared_factor_conjunctions_learn_sound_cells(rng, monkeypatch):
    """360 conjunctions of two products sharing one factor, sometimes
    with a bound on x1, under the heuristics in turn: every cell a
    search learns keeps its conflict at interior points, and every
    model satisfies the conjunction."""
    learned = []
    generalize = solver._generalize

    def recording_generalize(C, prefix, *args):
        result = generalize(C, prefix, *args)
        learned.append((C, result))
        return result

    monkeypatch.setattr(solver, "_generalize", recording_generalize)
    heuristics = list(HEURISTIC_IDS)
    cells = 0
    for k in range(360):
        shared = _small_factor(rng)
        rels = ["<", "<=", ">", ">=", "=", "!="]
        cons = [Constraint(shared * _small_factor(rng), rng.choice(rels)) for _ in range(2)]
        if rng.random() < 0.5:
            cons.append(Constraint(MPoly.var(1) + rng.randint(-3, 3), rng.choice("<>")))
        learned.clear()
        cfg = config_from_id(heuristics[k % len(heuristics)])
        r = solve_conjunction(cons, 2, budget=32, cfg=cfg)
        if r.status == SAT:
            assert all(constraint_satisfied(c, r.model) for c in cons)
        for C, result in learned:
            if isinstance(result, Fail):
                continue
            cells += 1
            for seed in range(3):
                pt = cell_pick_interior_point(result.cell, seed)
                assert check_conflict(C, pt), (cons, pt)
    assert cells > 100
