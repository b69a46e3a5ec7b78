"""Property-based invariants over randomly generated inputs."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onecell.polynomial import MPoly, factor, normalize, parse_poly, poly_to_str, resultant
from onecell.realalg import RealAlg, Sample, isolate_real_roots, sign_at

from oracles import root_between, simplest_between

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def _polys(nvars, max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    coeffs = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
    )
    return (
        st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        .map(lambda d: MPoly({k: v for k, v in d.items() if v}))
        .filter(lambda p: not p.is_zero())
    )


@settings(max_examples=150, deadline=None)
@given(rationals, rationals)
def test_simplest_between_denominator_minimal(a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    r = simplest_between(a, b)
    assert a < r < b
    for d in range(1, r.denominator):
        lo = (a * d).__floor__() + 1
        hi = (b * d).__ceil__() - 1
        assert not any(a < Fraction(n, d) < b for n in range(lo, hi + 1))


@settings(max_examples=80, deadline=None)
@given(_polys(2))
def test_parse_print_roundtrip(p):
    assert parse_poly(poly_to_str(p)) == p


@settings(max_examples=80, deadline=None)
@given(_polys(2))
def test_normalize_idempotent(p):
    assert normalize(normalize(p)) == normalize(p)


@settings(max_examples=60, deadline=None)
@given(_polys(1, max_deg=3), _polys(1, max_deg=2), _polys(1, max_deg=2))
def test_resultant_multiplicative(p, q, r):
    if p.degree(1) < 1 or q.degree(1) < 1 or r.degree(1) < 1:
        return
    assert resultant(p, q * r, 1) == resultant(p, q, 1) * resultant(p, r, 1)


@settings(max_examples=80, deadline=None)
@given(_polys(2), rationals, rationals)
def test_sign_at_agrees_with_rational_evaluation(p, a, b):
    s = Sample([a, b])
    value = p.eval_rational([a, b])
    want = 0 if value == 0 else (1 if value > 0 else -1)
    assert sign_at(p, s) == want


@st.composite
def _irrational_roots(draw):
    """(defining coefficients, root) for a real root of a random
    irreducible quadratic or cubic."""
    coeffs = draw(
        st.lists(st.integers(-6, 6), min_size=3, max_size=4).filter(lambda c: c[-1])
    )
    u = MPoly({(k,): Fraction(c) for k, c in enumerate(coeffs) if c})
    factors = factor(u)
    assume(len(factors) == 1 and factors[0][1] == 1)
    roots = isolate_real_roots(u)
    assume(roots)
    return [Fraction(c) for c in coeffs], draw(st.sampled_from(roots))


reals = st.one_of(
    rationals.map(RealAlg.rational), _irrational_roots().map(lambda cr: cr[1])
)


@settings(max_examples=150, deadline=None)
@given(reals, reals)
def test_compare_is_antisymmetric(a, b):
    assert a.compare(a) == 0
    assert a.compare(b) == -b.compare(a)
    assert (a.compare(b) == 0) == (a.key() == b.key())


@settings(max_examples=150, deadline=None)
@given(reals, reals, reals)
def test_compare_is_transitive(a, b, c):
    ab, bc, ac = a.compare(b), b.compare(c), a.compare(c)
    if ab <= 0 and bc <= 0:
        assert ac <= 0
    if ab >= 0 and bc >= 0:
        assert ac >= 0
    if ab == 0:
        assert ac == bc


@settings(max_examples=100, deadline=None)
@given(_irrational_roots(), st.integers(-5, 5).filter(bool), reals)
def test_compare_ignores_integer_multiples_of_the_definition(root, k, other):
    coeffs, a = root
    lo, hi = a.enclosure()
    b = root_between([k * c for c in coeffs], lo, hi)
    assert a.compare(b) == 0 and b.compare(a) == 0
    assert a.key() == b.key()
    assert other.compare(a) == other.compare(b)
