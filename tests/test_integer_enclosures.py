"""Exact reals on integers against the `Fraction` routes they replaced.

`RealAlg` keeps its enclosure as integer numerators over one positive
denominator, and `compare`, `_gap`, `_simplest` and `line_samples`
decide on integers.  The references in `oracles` keep
Fraction enclosures, halve them at the Fraction midpoint and walk the
continued fraction by recursion on Fractions.  The two must agree
exactly, enclosure by enclosure: the enclosures a computation leaves
behind decide later samples, and so cells, models and digests.  Roots
are isolated factor by factor, so no two definitions are compared
outside `within_seconds`, and a refinement that keeps the wrong half
fails here instead of hanging."""

import random
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onecell.polynomial import MPoly, factor, parse_poly
from onecell.realalg import (
    RealAlg,
    _gap,
    isolate_real_roots,
    line_samples,
)

import oracles
from conftest import within_seconds

_BIG = 2**64

# the degree-20 irreducible projection factor of the heaviest seed-1
# cell-fuzz call
_HEAVY = parse_poly(
    "512*x1^20-2048*x1^19-5120*x1^18+30720*x1^17-11648*x1^16-108992*x1^15"
    "+139968*x1^14+110912*x1^13-472920*x1^12+407368*x1^11+268296*x1^10"
    "-600784*x1^9+1108600*x1^8-644088*x1^7-1376480*x1^6-253168*x1^5"
    "-6912976*x1^4+5743320*x1^3+8162064*x1^2-1386864*x1+25782661"
)


def _irrational_roots(p: MPoly) -> list[RealAlg]:
    """The irrational roots of p, isolated factor by factor, so that no
    two roots of different definitions are compared."""
    return [r for f, _ in factor(p) if f.degree(1) > 1 for r in isolate_real_roots(f)]


@st.composite
def _definitions(draw):
    """A univariate polynomial of degree 2-20 with coefficients up to 2^64."""
    degree = draw(st.integers(2, 20))
    coeffs = draw(st.lists(st.integers(-_BIG, _BIG), min_size=degree, max_size=degree))
    lead = draw(st.integers(1, _BIG)) * draw(st.sampled_from([1, -1]))
    return MPoly({(k,): c for k, c in enumerate(coeffs + [lead]) if c})


def _check_refinements(r: RealAlg, rounds: int = 40) -> None:
    ref = oracles.FractionReal(r)
    for _ in range(rounds + 1):
        assert r.enclosure() == (ref.lo, ref.hi)
        r.refine()
        ref.refine()


def test_heavy_factor_enclosures_match_fraction_bisection():
    roots = isolate_real_roots(_HEAVY)
    assert [f for f, _ in factor(_HEAVY)] == [_HEAVY] and len(roots) == 4
    for r in roots:
        _check_refinements(r)


@settings(max_examples=30, deadline=None)
@given(_definitions())
@example(parse_poly("x1^2-2"))
@example(parse_poly("3*x1^3-5*x1+1"))
def test_enclosures_match_fraction_bisection(p):
    """After k = 0..40 refinements of a root isolated from its canonical
    interval, the enclosure is the one the Fraction bisection reaches."""
    roots = _irrational_roots(p)
    assume(roots)
    for r in roots:
        _check_refinements(r.canonical_copy())


def _values(rng: random.Random) -> list[RealAlg]:
    """Real roots of a few small polynomials, and some rationals."""
    values = []
    for _ in range(rng.randint(1, 3)):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
        values += isolate_real_roots(MPoly({(k,): x for k, x in enumerate(c) if x}))
    values += [RealAlg.rational(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
               for _ in range(rng.randint(0, 3))]
    return [v.canonical_copy() for v in values]


def test_compare_and_separate_match_fraction_enclosures():
    """Each pair compares as on Fraction enclosures, `_gap` gives the
    same gap, and both leave the same enclosures behind: `_gap` refines
    the values in place, as the reference does."""

    def check():
        rng = random.Random(27)
        for _ in range(60):
            values = _values(rng)
            refs = [oracles.FractionReal(v) for v in values]
            for i, (a, ra) in enumerate(zip(values, refs)):
                for b, rb in zip(values[i + 1:], refs[i + 1:]):
                    k = a.compare(b)
                    assert k == oracles.fraction_compare(ra, rb)
                    if k:
                        lo, hi, rlo, rhi = (a, b, ra, rb) if k < 0 else (b, a, rb, ra)
                        u, d, v, g = _gap(lo, hi)
                        assert (Fraction(u, d), Fraction(v, g)) == oracles.fraction_separate(rlo, rhi)
                    assert (a.enclosure(), b.enclosure()) == ((ra.lo, ra.hi), (rb.lo, rb.hi))

    within_seconds(20, check)


def test_line_samples_match_fraction_sweep():
    """The same sample points, and the cuts left with the same
    enclosures, as the sweep on Fraction enclosures."""

    def check():
        rng = random.Random(28)
        for _ in range(60):
            values = _values(rng)
            want, cuts = oracles.fraction_line_samples([v.canonical_copy() for v in values])
            mine = line_samples(values)[0]
            assert [t.rational_value() for t in mine[:len(want)]] == want
            assert [c.key() for c in mine[len(want):]] == [c.key for c in cuts]
            assert [c.enclosure() for c in mine[len(want):]] == [(c.lo, c.hi) for c in cuts]

    within_seconds(20, check)


_ends = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(Fraction(-40), Fraction(40), max_denominator=60),
    st.fractions(Fraction(-1), Fraction(1), max_denominator=10**12),
)


@settings(max_examples=400, deadline=None)
@given(_ends, _ends)
@example(Fraction(0), Fraction(1))
@example(Fraction(2), Fraction(5, 2))
@example(Fraction(-1), Fraction(0))
@example(Fraction(-7, 3), Fraction(-2))
@example(Fraction(-1, 3), Fraction(1, 2))
@example(Fraction(3), Fraction(4))
def test_simplest_between_matches_recursion(a, b):
    """Negative gaps, gaps that hold 0 and gaps with integer ends."""
    assume(a != b)
    a, b = min(a, b), max(a, b)
    r = oracles.simplest_between(a, b)
    assert type(r) is Fraction
    assert r == oracles.recursive_simplest_between(a, b)
