"""The exact zero test at algebraic points, `realalg._is_zero`, and
`sign_at`'s one refinement loop around it, against sympy's minimal
polynomial on random points with one irrational coordinate and on
towers of two, its remainder test at one irrational coordinate and its
test by the roots over the prefix at two and three against the
elimination `oracles.is_zero_by_elimination`."""

import random
from fractions import Fraction
from unittest import mock

from onecell import memo, realalg
from onecell.polynomial import MPoly, parse_poly
from onecell.realalg import (
    NULLIFIED,
    RealAlg,
    Sample,
    _candidate_poly,
    _is_zero,
    _upoly,
    cached_roots,
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
    """Whether `sign_at` finds p(s) = 0, asserted equal to the answer of
    `_is_zero`, asked first, and to the oracle's."""
    zero = _is_zero(p, s)
    got = sign_at(p, s) == 0
    assert got == zero == is_zero_by_minimal_polynomial(p, s), (p, s)
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
    """p vanishes at all conjugates of the point: a multiple of the
    definition at one irrational coordinate, and at two, cbrt(3) is the
    one real root of 2*x2^3 - 6 over sqrt(2)."""
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
    """x1 + x2 vanishes at (sqrt(2), -sqrt(2)) and not at (sqrt(2),
    sqrt(2)), whose conjugate it is: the roots of x2 + sqrt(2) hold the
    one value and not the other."""
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    p = parse_poly("x1+x2")
    assert not _checked(p, Sample([hi, hi]))
    assert _checked(p, Sample([hi, lo]))


def test_a_zero_at_two_of_three_irrational_coordinates_moves_only_the_coordinates_of_p():
    """x1 + x2 at (sqrt(2), -sqrt(2), cbrt(3)): the zero test finds
    -sqrt(2) among the roots of x2 + sqrt(2) at the first straddling
    round.  x3 is not a variable of p, so its enclosure does not move."""
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    cbrt3 = isolate_real_roots(parse_poly("x1^3-3"))[0]
    s, p = Sample([hi, lo, cbrt3]), parse_poly("x1+x2")
    x3 = cbrt3.enclosure()
    answers = []

    def recorded(*args):
        answers.append(_is_zero(*args))
        return answers[-1]

    with mock.patch.object(realalg, "_is_zero", recorded):
        assert within_seconds(5, lambda: sign_at(p, s)) == 0
    assert answers == [True]
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
            got = _without_elimination(_is_zero, p, s)
            assert got == is_zero_by_elimination(p, s), (p, s)
            assert [c.enclosure() for c in s] == before
            zeros += got
            nonzeros += not got
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


def test_sign_at_reads_the_roots_over_the_prefix_at_two_irrational_coordinates():
    """x1*x2 - 2 at (sqrt(2), sqrt(2)): the zero test keeps the roots of
    sqrt(2)*x2 - 2 in `memo.ROOTS`, under the key of the prefix."""
    memo.clear()
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    p = parse_poly("x1*x2-2")
    assert sign_at(p, Sample([sqrt2, sqrt2])) == 0
    assert (p, (sqrt2.key(),)) in memo.ROOTS._entries


def test_a_zero_at_a_cached_root_takes_no_elimination():
    """The roots of g over (sqrt(2)) are found once.  At each of them,
    as a canonical copy, the zero test reads them from `memo.ROOTS` and
    compares by definition and index: no `_candidate_poly` call, and no
    coordinate moves."""
    memo.clear()
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    g = parse_poly("x2^2-x1*x2-1")
    roots = cached_roots(g, Sample([sqrt2]))
    assert len(roots) == 2 and not any(r.is_rational() for r in roots)
    for r in roots:
        s = Sample([sqrt2, r.canonical_copy()])
        before = [c.enclosure() for c in s]
        assert _without_elimination(sign_at, g, s) == 0
        assert [c.enclosure() for c in s] == before


def _differential_point(rng: random.Random, shape: str) -> Sample:
    """A point with an irrational coordinate for each "a" of shape and a
    rational one for each "r".  Each irrational coordinate after the
    first is, half the time, a root over the prefix of a random monic
    quadratic, so that the point is a tower; its definition is kept to
    degree 4, which keeps the elimination in the oracle fast."""
    coords: list = []
    for j, kind in enumerate(shape, 1):
        if kind == "r":
            coords.append(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            continue
        if coords and rng.random() < 0.5:
            g = MPoly.var(j) ** 2 + MPoly.var(j) * random_poly(rng, j - 1, 1, 2) \
                + random_poly(rng, j - 1, 1, 2)
            roots = [r for r in realalg.roots_in_extension(g, Sample(coords))
                     if not r.is_rational() and len(r._def) <= 5]
            if roots:
                coords.append(rng.choice(roots))
                continue
        coords.append(_irrational_root(rng))
    return Sample(coords)


def _vanishing(rng: random.Random, s: Sample, below: int) -> MPoly:
    """A polynomial in x1..x_below that vanishes wherever each of these
    coordinates is a conjugate of s's: a combination of the definitions
    of the irrational ones and of x_j - s_j for the rational ones."""
    h = MPoly.constant(0)
    for j, c in enumerate(s[:below], 1):
        f = MPoly.var(j) - MPoly.constant(c.rational_value()) if c.is_rational() \
            else _upoly(c._def, j)
        h = h + f * random_poly(rng, below, 1, 2)
    return h


def test_agrees_with_elimination_at_several_irrational_coordinates():
    """Seeded points with two and three irrational coordinates, some
    with a rational coordinate between two of them: planted zeros at
    every conjugate, x1 + x2 at (sqrt(2), -sqrt(2)) against its
    conjugate (sqrt(2), sqrt(2)), polynomials nullified over the prefix
    below their last variable, and random ones.  `_is_zero`, `sign_at`
    and the elimination agree on each."""
    rng = random.Random(83)
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    p = parse_poly("x1+x2")
    for s, want in ((Sample([hi, lo]), True), (Sample([hi, hi]), False)):
        assert _is_zero(p, s) == (sign_at(p, s) == 0) == is_zero_by_elimination(p, s) == want
    tally = dict.fromkeys(["zero", "nonzero", "nullified", "aa", "aaa", "ara"], 0)
    for trial in range(18):
        shape = ("aa", "aaa", "ara")[trial % 3]
        s = _differential_point(rng, shape)
        k = shape.rindex("a") + 1  # the last irrational coordinate
        planted = _vanishing(rng, s, len(s))
        nullified = _vanishing(rng, s, k - 1) * (MPoly.var(k) + random_poly(rng, k, 2, 2))
        cases = [planted, planted + random_poly(rng, len(s), 2, 2),
                 random_poly(rng, len(s), 2, 3),
                 nullified, nullified + MPoly.constant(rng.choice([-1, 1]))]
        for q in cases:
            if len([v for v in q.variables() if not s[v - 1].is_rational()]) < 2:
                continue
            got = _is_zero(q, s)
            assert got == is_zero_by_elimination(q, s), (q, s)
            assert got == (sign_at(q, s) == 0), (q, s)
            tally["zero" if got else "nonzero"] += 1
            tally["nullified"] += q.level == k and cached_roots(q, s.prefix(k - 1)) is NULLIFIED
            tally[shape] += 1
    assert all(count >= 5 for count in tally.values()), tally
