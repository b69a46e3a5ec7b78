"""The exact zero test at algebraic points, `realalg._zero_bound`, and
`sign_at`'s one refinement loop around it, against sympy's minimal
polynomial on random points with one irrational coordinate and on
towers of two, and its remainder test at one irrational coordinate
against the elimination it replaces there."""

import random
from fractions import Fraction
from unittest import mock

from onecell import realalg
from onecell.polynomial import MPoly, parse_poly
from onecell.realalg import (
    RealAlg,
    Sample,
    _candidate_poly,
    _upoly,
    _zero_bound,
    isolate_real_roots,
    sign_at,
)

from conftest import random_poly, within_seconds
from oracles import is_zero_by_elimination, is_zero_by_minimal_polynomial


def _irrational_root(rng: random.Random) -> RealAlg:
    """An irrational real root of a random integer polynomial of degree
    2 or 3 in x1."""
    while True:
        c = [rng.randint(-4, 4) for _ in range(rng.randint(3, 4))]
        if c[-1] == 0:
            continue
        p = MPoly({(k,): Fraction(x) for k, x in enumerate(c)})
        roots = [r for r in isolate_real_roots(p) if not r.is_rational()]
        if roots:
            return rng.choice(roots)


def _checked(p: MPoly, s: Sample) -> bool:
    """Whether `sign_at` finds p(s) = 0, asserted equal to the oracle's
    answer; `_zero_bound`, asked first, must leave the enclosures of s
    where they were and agree wherever it settles the answer."""
    before = [c.enclosure() for c in s]
    bound = _zero_bound(p, s)
    assert [c.enclosure() for c in s] == before
    got = sign_at(p, s) == 0
    assert got == is_zero_by_minimal_polynomial(p, s), (p, s)
    if bound is None or bound == 0:
        assert got == (bound is None), (p, s)
    return got


def test_agrees_with_minimal_polynomial_at_one_irrational_coordinate():
    rng = random.Random(31)
    zeros = nonzeros = 0
    for _ in range(16):
        alpha = _irrational_root(rng)
        d = MPoly({(k,): c for k, c in enumerate(alpha._def)})
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s = Sample([alpha, r])
        x2 = MPoly.var(2) - MPoly.constant(r)
        # a planted zero: a combination of d(x1) and x2 - r
        planted = d * random_poly(rng, 2, 2, 3) + x2 * random_poly(rng, 2, 2, 3)
        for p in (planted, planted + random_poly(rng, 2, 2, 2), random_poly(rng, 2)):
            if p.is_zero():
                continue
            if _checked(p, s):
                zeros += 1
            else:
                nonzeros += 1
    assert zeros >= 10 and nonzeros >= 10


def test_agrees_with_minimal_polynomial_on_towers():
    """(alpha, r) with r a root of the resultant candidate of a
    polynomial g over alpha: g vanishes at the true roots and not at the
    roots that belong to a conjugate of alpha.  Candidates of degree
    above 6 are skipped: the oracle takes seconds on each."""
    rng = random.Random(47)
    zeros = nonzeros = towers = 0
    while towers < 8:
        alpha = _irrational_root(rng)
        g = random_poly(rng, 2, 3, 4)
        if g.degree(2) == 0:
            continue
        cand = _candidate_poly(g, Sample([alpha]))
        if cand.degree(2) > 6:
            continue
        for r in isolate_real_roots(cand)[:2]:
            s = Sample([alpha, r])
            towers += not r.is_rational()
            for p in (g, g + MPoly.var(1), g * MPoly.var(2) - MPoly.var(1)):
                if _checked(p, s):
                    zeros += 1
                else:
                    nonzeros += 1
    assert zeros >= 5 and nonzeros >= 10


def test_zero_at_every_conjugate():
    """R = c*z^m: p vanishes at all conjugates of the point."""
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    cbrt3 = isolate_real_roots(parse_poly("x1^3-3"))[0]
    assert _checked(parse_poly("x1^2-2"), Sample([sqrt2]))
    assert _checked(parse_poly("x1^4-4"), Sample([sqrt2]))
    assert _checked(parse_poly("x1^2*x2^3-6"), Sample([sqrt2, cbrt3]))


def test_zero_after_substituting_the_rational_coordinates():
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    p = parse_poly("x1*x2-x2")
    assert _checked(p, Sample([Fraction(1), sqrt2]))
    assert not _checked(p, Sample([Fraction(2), sqrt2]))


def test_irrational_coordinate_not_in_p():
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    sqrt3 = isolate_real_roots(parse_poly("x1^2-3"))[1]
    assert _checked(parse_poly("x2^2-2"), Sample([sqrt3, sqrt2]))
    assert not _checked(parse_poly("x2-1"), Sample([sqrt3, sqrt2]))
    assert not _checked(parse_poly("x2^2-3"), Sample([sqrt3, sqrt2]))


def test_zero_at_one_conjugate_only():
    """R(0) = 0 from the other root of x^2-2 only: the refinement of
    `sign_at` has to separate the value from 0."""
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    p = parse_poly("x1+x2")
    assert not _checked(p, Sample([hi, hi]))
    assert _checked(p, Sample([hi, lo]))


def test_a_zero_decided_by_the_bound_moves_only_the_coordinates_of_p():
    """x1 + x2 at (sqrt(2), -sqrt(2), cbrt(3)): R = z^2 (z^2 - 8), so the
    elimination settles nothing and gives b = 8/9, and `sign_at` returns
    0 once its interval lies inside (-8/9, 8/9).  x3 is not a variable of
    p, so its enclosure does not move."""
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    cbrt3 = isolate_real_roots(parse_poly("x1^3-3"))[0]
    s, p = Sample([hi, lo, cbrt3]), parse_poly("x1+x2")
    x3 = cbrt3.enclosure()
    answers = []

    def recorded(*args):
        answers.append(_zero_bound(*args))
        return answers[-1]

    with mock.patch.object(realalg, "_zero_bound", recorded):
        assert within_seconds(5, lambda: sign_at(p, s)) == 0
    assert answers == [Fraction(8, 9)]
    assert cbrt3.enclosure() == x3


def _without_elimination(fn, *args):
    """fn(*args), asserting that it calls `_candidate_poly` never."""
    with mock.patch.object(realalg, "_candidate_poly", side_effect=AssertionError):
        return fn(*args)


def test_remainder_agrees_with_elimination_at_one_irrational_coordinate():
    """Seeded points with one irrational coordinate, at x1 or x2, and
    planted zeros, nonzeros, and polynomials whose irrational variable
    vanishes once the rational coordinate is substituted."""
    rng = random.Random(59)
    zeros = nonzeros = vanished = 0
    for trial in range(24):
        alpha = _irrational_root(rng)
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        j, k = (1, 2) if trial % 2 else (2, 1)  # x_j irrational, x_k = r
        s = Sample([alpha, r] if j == 1 else [r, alpha])
        d = _upoly(alpha._def, j)
        xk = MPoly.var(k) - MPoly.constant(r)
        planted = d * random_poly(rng, 2, 2, 3) + xk * random_poly(rng, 2, 2, 3)
        gone = xk * MPoly.var(j) * random_poly(rng, 2, 2, 2)
        cases = [planted, planted + random_poly(rng, 2, 2, 2), random_poly(rng, 2),
                 gone, gone + MPoly.constant(rng.choice([-2, -1, 1, 2])),
                 gone + xk + MPoly.constant(1)]
        for p in cases:
            if p.is_zero() or not p.degree(j):
                continue
            before = [c.enclosure() for c in s]
            got = _without_elimination(_zero_bound, p, s)
            assert got in (None, 0), (p, s)
            assert (got is None) == is_zero_by_elimination(p, s), (p, s)
            assert [c.enclosure() for c in s] == before
            zeros += got is None
            nonzeros += got is not None
            vanished += p.subst_rational({k: r}).is_constant()
    assert zeros >= 20 and nonzeros >= 20 and vanished >= 20


def test_sign_at_decides_a_one_coordinate_zero_without_refining():
    """A zero at a point with one irrational coordinate is decided at
    the first round, by the remainder: no elimination, and no
    coordinate of s moves.  Nonzero values still get their signs."""
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    cbrt3 = isolate_real_roots(parse_poly("x1^3-3"))[0]
    s = Sample([Fraction(1, 3), sqrt2, cbrt3])
    before = [c.enclosure() for c in s]
    for text in ("x2^2-2", "x2^4-4+(3*x1-1)*x2", "x3^3*x1-1", "(x3^3-3)*(x1^2+x3)"):
        assert _without_elimination(sign_at, parse_poly(text), s) == 0
        assert [c.enclosure() for c in s] == before
    assert _without_elimination(sign_at, parse_poly("x2^2-2-x1"), s) == -1
    assert _without_elimination(sign_at, parse_poly("x3^3-3+x1"), s) == 1


def test_sign_at_eliminates_at_two_irrational_coordinates():
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    s = Sample([sqrt2, sqrt2])
    with mock.patch.object(realalg, "_candidate_poly", wraps=_candidate_poly) as cand:
        assert sign_at(parse_poly("x1*x2-2"), s) == 0
    assert cand.called
