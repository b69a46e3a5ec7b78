"""Conflict checking and generalization."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from onecell import memo, solver
from onecell.cells import (
    IndexedRoot,
    cached_roots,
    cell_contains,
    cell_pick_interior_point,
    cell_to_formula,
    cell_to_text,
)
from onecell.config import HEURISTIC_IDS, config_from_id
from onecell.engine import Fail, single_cell
from onecell.explain import (
    Constraint,
    ExtendedConstraint,
    _generalize,
    check_conflict,
    clause_to_text,
    constraint_satisfied,
    explain_conflict,
    sweep,
)
from onecell.polynomial import MPoly, _upoly, parse_poly
from onecell.properties import validate_trace
from onecell.realalg import NULLIFIED, Sample, realalg_to_text
from onecell.solver import solve_conjunction
from onecell.stats import RunStats

from conftest import random_poly, random_sample
from oracles import midpoint_check_conflict, pointwise_sweep


DISK = Constraint(parse_poly("x1^2+x2^2-1"), "<")
ABOVE_ONE = Constraint(parse_poly("x2-1"), ">")


def test_check_conflict_positive():
    assert check_conflict([DISK, ABOVE_ONE], Sample([Fraction(0)]))


def test_check_conflict_negative():
    sat = Constraint(parse_poly("x2"), ">")
    assert not check_conflict([DISK, sat], Sample([Fraction(0)]))


def test_check_conflict_trivial_contradiction():
    c1 = Constraint(parse_poly("x1"), "<")
    c2 = Constraint(parse_poly("x1"), ">")
    assert check_conflict([c1, c2], Sample(()))


def test_check_conflict_equalities():
    c1 = Constraint(parse_poly("x1^2-2"), "=")
    c2 = Constraint(parse_poly("x1"), "=")
    assert check_conflict([c1, c2], Sample(()))
    assert not check_conflict([c1], Sample(()))


def test_check_conflict_rejects_deep_constraints():
    with pytest.raises(ValueError):
        check_conflict([Constraint(parse_poly("x3-1"), "<")], Sample([Fraction(0)]))


def test_check_conflict_takes_the_coordinates_of_a_sample():
    """Like `explain_conflict`, `check_conflict` turns its assignment
    into a `Sample`, which refuses a float."""
    assert check_conflict([DISK, ABOVE_ONE], [Fraction(1, 2)])
    assert not check_conflict([DISK, Constraint(parse_poly("x2"), ">")], [0])
    with pytest.raises(TypeError):
        check_conflict([DISK, ABOVE_ONE], [0.5])


# The functions that may still make, compare or hash a Fraction on
# integer input at rational samples, with the reason.
_FRACTION_CALLERS = {
    # over a sample with an irrational coordinate, the zero test
    # substitutes the rational ones by `subst_rational`, on Fractions
    "_rational_part",
}


def _fraction_calls(monkeypatch, run):
    """run() and the calls it made to Fraction's __new__, __eq__, __lt__
    and __hash__, counted by method and by the nearest function of
    `_FRACTION_CALLERS` on the stack, None when there is none."""
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in _FRACTION_CALLERS:
                frame = frame.f_back
            calls[name, frame and frame.f_code.co_name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("__new__", Fraction.__new__)))
    for name in ("__eq__", "__lt__", "__hash__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    try:
        out = run()
    finally:
        monkeypatch.undo()
    return out, calls


def test_the_sweep_over_a_rational_prefix_builds_no_fraction(monkeypatch):
    """Over the rational x1 = 1/2, where the constraints' roots in x2 are
    rational (-1, 1, 1/2) and irrational ((-1 +- sqrt(17)) / 4), roots,
    comparisons, memo keys and signs all work on the coordinates'
    integer boxes: neither the first sweep nor the repeated one, which
    reads the memoized roots, makes, compares or hashes a Fraction."""
    C = [Constraint(parse_poly("x2^2-2*x1"), "<"), Constraint(parse_poly("3*x2-x1-1"), ">"),
         Constraint(parse_poly("x2^2+x1*x2-1"), ">=")]
    s = Sample([Fraction(1, 2)])
    memo.clear()
    verdicts, calls = _fraction_calls(monkeypatch, lambda: [check_conflict(C, s) for _ in range(2)])
    assert verdicts == [False, False]
    assert not calls, calls


def test_a_cell_at_a_rational_sample_builds_no_fraction(monkeypatch):
    """On integer input at a rational sample, the projections read the
    polynomials' integer forms and scale their results by integer
    contents, and roots and signs work on integer boxes: the whole
    three-level construction makes, compares or hashes no Fraction."""
    P = [parse_poly(t) for t in ("x1^2+x2^2+x3^2-1", "x3-x1*x2", "x2^2-x1^3+x3")]
    s = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)]
    memo.clear()
    result, calls = _fraction_calls(monkeypatch, lambda: single_cell(P, s))
    assert not isinstance(result, Fail)
    assert not calls, calls


def test_the_solver_on_integer_input_builds_only_the_listed_fractions(monkeypatch):
    """The solver picks rational samples itself; on integer input its
    only Fractions are those of `_FRACTION_CALLERS`: none for the unsat
    disk and hyperbola, and for the model on sqrt(2) only the zero
    test's substitution beside that irrational coordinate."""
    cases = [([("x1^2+x2^2-1", "<"), ("x1*x2-1", ">")], "unsat", False),
             ([("x1^2-2", "="), ("x2^2-x1", "<"), ("x1*x2-1", ">")], "sat", True)]
    for atoms, status, listed in cases:
        C = [Constraint(parse_poly(t), op) for t, op in atoms]
        memo.clear()
        result, calls = _fraction_calls(monkeypatch, lambda: solve_conjunction(C, 2))
        assert result.status == status
        assert {caller for _, caller in calls} == ({"_rational_part"} if listed else set()), calls


def test_explain_requires_a_conflict():
    sat = Constraint(parse_poly("x2"), ">")
    with pytest.raises(ValueError):
        explain_conflict([sat], [Fraction(0)])


def test_explain_disk_line_conflict():
    result = explain_conflict([DISK, ABOVE_ONE], [Fraction(0)])
    assert result
    cell, clause = result
    assert cell_contains(cell, Sample([Fraction(0)])) is True
    assert validate_trace(result.trace, set(result.trace.axioms))
    # clause atoms are the exact negations of the cell formula
    atoms = cell_to_formula(cell)
    assert [a.negated() for a in atoms] == clause
    assert clause_to_text(cell).startswith("(not ")


def test_explained_cell_keeps_the_conflict():
    C = [DISK, ABOVE_ONE]
    result = explain_conflict(C, [Fraction(0)])
    for seed in range(25):
        pt = cell_pick_interior_point(result.cell, seed)
        assert check_conflict(C, pt)


def test_explain_nullified_returns_fail():
    C = [Constraint(parse_poly("x3*x1+x2"), ">")]
    result = explain_conflict(C, [Fraction(0), Fraction(0)])
    assert isinstance(result, Fail)


def test_explain_fails_when_the_construction_fails():
    """x1*x3+x2 vanishes at (0, 0) and the sample sits in a sector of x3:
    `run_levels` finds no rule, and the explanation is that `Fail`."""
    C = [Constraint(parse_poly("x4^2"), "<"), Constraint(parse_poly("x1*x3+x2"), ">")]
    for hid in sorted(HEURISTIC_IDS):
        result = explain_conflict(C, [0, 0, 1], config_from_id(hid))
        assert result == Fail("no applicable rule for sgninv(x1*x3+x2)")


def test_zero_constraint_polynomial_is_not_factored():
    """0 >= 0 holds everywhere; its polynomial is a constant and, as in
    `single_cell`, nothing to factor."""
    C = [Constraint(parse_poly("x2^2"), "<"), Constraint(parse_poly("0"), ">=")]
    result = explain_conflict(C, [0])
    assert cell_to_text(result.cell) == "level 1 sector -inf +inf\n"
    assert clause_to_text(result.cell) == "(not true)"


def test_generalize_over_the_empty_prefix_never_fails(rng):
    """Every level-1 factor is delineable over the empty prefix, so the
    explanation of any level-1 constraint set is the empty cell and the
    clause that excludes everything."""
    for k in range(70):
        hid = sorted(HEURISTIC_IDS)[k % len(HEURISTIC_IDS)]
        C = [Constraint(random_poly(rng, 1), rng.choice(["<", "=", ">"]))
             for _ in range(rng.randint(1, 4))]
        result = _generalize(C, Sample([]), config_from_id(hid), RunStats())
        assert not isinstance(result, Fail), (hid, C)
        assert len(result.cell) == 0 and result.clause == []
        assert validate_trace(result.trace, set(result.trace.axioms))


def test_explained_cell_keeps_a_shared_factor_conflict():
    """x2^2-3*x2+2 = (x2-1)*(x2-2) shares a factor with the first
    polynomial, (x2-2)*(x2-3*x1), so their resultant is zero; the cell,
    built on the irreducible factors, must still keep the root 3*x1 of
    the other factor above 1, that is x1 > 1/3."""
    C = [Constraint(parse_poly("x2^2-3*x1*x2-2*x2+6*x1"), "<"),
         Constraint(parse_poly("x2^2-3*x2+2"), "<="),
         Constraint(parse_poly("x2-1"), "<=")]
    s = [Fraction(1, 2)]
    result = explain_conflict(C, s)
    assert result
    assert validate_trace(result.trace, set(result.trace.axioms))
    for seed in range(10):
        pt = cell_pick_interior_point(result.cell, seed)
        assert check_conflict(C, pt), pt


def test_extended_constraint_satisfaction():
    bound = IndexedRoot(parse_poly("x2^2-2"), 2)  # sqrt(2)
    c = ExtendedConstraint(2, "<", bound)
    assert constraint_satisfied(c, Sample([Fraction(0), Fraction(1)]))
    assert not constraint_satisfied(c, Sample([Fraction(0), Fraction(2)]))


def test_extended_constraint_on_another_variable_than_its_bound_is_refused():
    """An indexed root is a root in its polynomial's top variable, so an
    atom compares that variable.  `explain_conflict` used to take these
    two conflicts and project each bound at its own level, which learned
    the sector (-sqrt(3), sqrt(3)) around x1 = 3/2 and the sector (-1, 1)
    around x1 = 7/10, where neither conflict holds."""
    with pytest.raises(ValueError):
        explain_conflict([
            ExtendedConstraint(2, ">", IndexedRoot(parse_poly("x1^2-3"), 2)),
            Constraint(parse_poly("x2-x1-1"), "<"),
        ], [0])
    with pytest.raises(ValueError):
        explain_conflict([
            ExtendedConstraint(1, ">", IndexedRoot(parse_poly("x2+x1^2-1"), 1)),
            Constraint(parse_poly("x2"), ">"),
        ], [0])


def _random_conflicts(rng, attempts=400):
    """The conflicts p < 0 and p > 0 that `attempts` random draws of p
    and a rational prefix give."""
    for _ in range(attempts):
        nv = rng.randint(1, 2)
        prefix = random_sample(rng, nv - 1) if nv > 1 else []
        p = random_poly(rng, nv)
        if p.level != nv:
            continue
        C = [Constraint(p, "<"), Constraint(p, ">")]
        if check_conflict(C, Sample(prefix)):
            yield C, prefix


def test_random_conflicts_generalize(rng):
    """Generated conflicts stay conflicts at interior points of the
    explained cell."""
    built = 0
    for C, prefix in _random_conflicts(rng):
        result = explain_conflict(C, prefix)
        if isinstance(result, Fail):
            continue
        built += 1
        for seed in range(10):
            pt = cell_pick_interior_point(result.cell, seed)
            assert check_conflict(C, pt)
        if built == 15:
            break
    assert built >= 10


def _poly_at(rng, level):
    while True:
        p = random_poly(rng, level, max_deg=2 if level > 2 else 3)
        if p.level == level:
            return p


def _random_prefix(rng, n, algebraic):
    """n rational coordinates or, when algebraic, an irrational x1 and
    the others rational or irrational at random."""
    coords = []
    for j in range(1, n + 1):
        if algebraic and (j == 1 or rng.random() < 0.5):
            while True:
                roots = cached_roots(_poly_at(rng, j), Sample(coords))
                if roots is NULLIFIED:
                    continue
                irrational = [r for r in roots if not r.is_rational()]
                if irrational:
                    coords.append(rng.choice(irrational))
                    break
        else:
            coords.extend(random_sample(rng, 1))
    return Sample(coords)


def test_check_conflict_matches_midpoint_sweep(rng):
    """check_conflict agrees with the midpoint sweep on random
    constraint sets over rational and algebraic prefixes, mixing
    polynomial constraints with extended ones on the last variable and
    on lower ones."""
    rels = ["<", "<=", "=", "!=", ">=", ">"]
    verdicts = {True: 0, False: 0}
    for k in range(200):
        n = rng.randint(1, 2)
        s = _random_prefix(rng, n, algebraic=k % 2 == 1)
        C = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.6:
                C.append(Constraint(_poly_at(rng, n + 1), rng.choice(rels)))
            else:
                var = n + 1 if kind < 0.9 else rng.randint(1, n)
                bound = IndexedRoot(_poly_at(rng, var), rng.randint(1, 2))
                C.append(ExtendedConstraint(var, rng.choice(rels), bound))
        verdict = check_conflict(C, s)
        assert verdict == midpoint_check_conflict(C, s), (C, s)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50


# ---------------------------------------------------------------------------
# the region sweep against the point-by-point sweep it replaced


def _sweeps_agree(C, cells, s, got=None):
    """The region sweep (its answer `got`, else computed now) and the
    point-by-point reference give the same chosen value, the same
    covered points in the same order and the same conflict verdict.  The
    uncovered points, those visited and neither covered nor chosen, then
    agree as well.  Returns the reference's answer."""
    chosen, covered, conflict = got if got is not None else sweep(C, cells, s)
    want = pointwise_sweep(C, cells, s)

    def text(t):
        return None if t is None else realalg_to_text(t)

    assert text(chosen) == text(want[0]), (C, cells, s)
    assert [text(t) for t in covered] == [text(t) for t in want[1]], (C, cells, s)
    assert conflict == want[3], (C, cells, s)
    return want


_RELS = ["<", "<=", "=", "!=", ">=", ">"]


def test_sweep_matches_the_pointwise_sweep_in_the_solver(rng, monkeypatch):
    """At every level the search visits, on random conjunctions in 1 to 3
    variables each solved under all 7 heuristics, the region sweep
    agrees with the point-by-point one over the learned cells the search
    has then, and over no cells."""
    visits = []
    recorded = solver.sweep

    def recording(C, cells, prefix):
        got = recorded(C, cells, prefix)
        visits.append((C, cells, prefix, got))
        return got

    monkeypatch.setattr(solver, "sweep", recording)
    seen = Counter()
    for k in range(24):
        nv = 1 + k % 3
        cons = [Constraint(random_poly(rng, nv, max_deg=2 if nv == 3 else 3), rng.choice(_RELS))
                for _ in range(rng.randint(2, 3))]
        for h in HEURISTIC_IDS:
            visits.clear()
            solve_conjunction(cons, nv, budget=8, cfg=config_from_id(h))
            for C, cells, prefix, got in visits:
                chosen, covered, _, conflict = _sweeps_agree(C, cells, prefix, got)
                _sweeps_agree(C, [], prefix)
                seen["covered"] += bool(covered)
                seen["chosen among cells"] += bool(cells) and chosen is not None
                seen["conflict"] += conflict
                seen["ruled out by cells"] += chosen is None and not conflict
    assert min(seen.values()) >= 10, seen


def _vanishing_factor(s, j):
    """A polynomial in x_j that vanishes at s_j: its definition, or the
    linear polynomial of a rational."""
    c = s[j - 1]
    if c.is_rational():
        r = c.rational_value()
        return r.denominator * MPoly.var(j) - r.numerator
    return _upoly(c._def, j)


def test_sweep_matches_the_pointwise_sweep_on_mixed_constraints(rng):
    """`check_conflict`'s inputs and more: polynomial constraints on the
    last variable, some nullified over the prefix, polynomial and
    extended constraints below it, extended ones on it, over rational
    and algebraic prefixes, with 0 to 2 cells of atoms on the last
    variable, whose bounds are often roots of the constraints and
    sometimes undefined."""
    seen = Counter()
    for k in range(240):
        n = rng.randint(1, 2)
        s = _random_prefix(rng, n, algebraic=k % 2 == 1)
        C, tops = [], []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.45:
                tops.append(_poly_at(rng, n + 1))
                C.append(Constraint(tops[-1], rng.choice(_RELS)))
            elif kind < 0.55:
                p = _vanishing_factor(s, rng.randint(1, n)) * _poly_at(rng, n + 1)
                assert cached_roots(p, s) is NULLIFIED
                C.append(Constraint(p, rng.choice(_RELS)))
                seen["nullified"] += 1
            elif kind < 0.65:
                C.append(Constraint(_poly_at(rng, rng.randint(1, n)), rng.choice(_RELS)))
                seen["below"] += 1
            else:
                var = n + 1 if kind < 0.9 else rng.randint(1, n)
                seen["extended below" if var <= n else "extended"] += 1
                bound = IndexedRoot(_poly_at(rng, var), rng.randint(1, 2))
                C.append(ExtendedConstraint(var, rng.choice(_RELS), bound))
        cells = []
        for _ in range(rng.randint(0, 2)):
            cell = []
            for _ in range(rng.randint(0, 2)):
                p = rng.choice(tops) if tops and rng.random() < 0.7 else _poly_at(rng, n + 1)
                bound = IndexedRoot(p, rng.randint(1, 3))
                cell.append(ExtendedConstraint(n + 1, rng.choice(["<", "=", ">"]), bound))
            cells.append(cell)
        chosen, covered, _, conflict = _sweeps_agree(C, cells, s)
        assert _sweeps_agree(C, [], s)[3] == check_conflict(C, s)
        seen["chosen"] += chosen is not None
        seen["covered"] += bool(covered)
        seen["conflict"] += conflict
    assert min(seen.values()) >= 30, seen
