"""The integer evaluators against the `Fraction` routes they replaced,
and the results of the trusted `MPoly._canonical` constructor.

`realalg._interval_eval`, `realalg._usign` and `MPoly.eval_rational`
work on integer numerators over a common denominator; their references
in `oracles` work term by term on `Fraction` objects, and the two must
agree exactly: `sign_at` stops after a fixed number of refinement
rounds, so even a tighter bound would change its enclosures."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onecell.polynomial import (
    MPoly,
    coeff_info,
    derivative,
    parse_poly,
    resultant,
)
from onecell.realalg import _interval_eval, _primitive, _usign

import oracles

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)


@st.composite
def _polys(draw, nvars=None):
    """A nonzero polynomial in x1..x_nvars (1-3 variables unless given)
    with rational coefficients and degrees up to 4 in each variable."""
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4) for _ in range(n)])
    terms = draw(st.dictionaries(exps, rationals.filter(bool), min_size=1, max_size=5))
    return MPoly(terms)


@st.composite
def _box(draw):
    """An interval [lo, hi]: zero-width (a rational coordinate) or two
    independent rationals, whose denominators usually differ."""
    lo = draw(rationals)
    if draw(st.integers(0, 3)) == 0:
        return lo, lo
    hi = draw(rationals)
    return (lo, hi) if lo <= hi else (hi, lo)


@st.composite
def _poly_and_boxes(draw):
    p = draw(_polys())
    return p, [draw(_box()) for _ in range(p.level)]


@settings(max_examples=200, deadline=None)
@given(_poly_and_boxes())
@example((parse_poly("3/2*x1^2*x2-1/5*x2^3+7/3"),
          [(Fraction(-1, 3), Fraction(1, 2)), (Fraction(2, 5), Fraction(3, 4))]))
@example((parse_poly("x1^4-2/7*x1^3+x1"), [(Fraction(-5, 6), Fraction(2, 9))]))
@example((parse_poly("-x1^2*x3+1/4*x2"),
          [(Fraction(-1), Fraction(-1, 3)), (Fraction(5, 7), Fraction(5, 7)),
           (Fraction(-3, 2), Fraction(1, 5))]))
def test_interval_eval_matches_fraction_bounds(case):
    p, boxes = case
    lo, hi = _interval_eval(p, boxes)
    assert (lo, hi) == oracles.interval_eval(p, boxes)
    assert type(lo) is Fraction and type(hi) is Fraction and lo <= hi


def test_interval_eval_over_even_powers_across_zero():
    # x1^2 over [-1/2, 1/3] is [0, 1/4]; x2^3 over [-2/3, 1/5] keeps its ends
    p = parse_poly("x1^2-x2^3")
    boxes = [(Fraction(-1, 2), Fraction(1, 3)), (Fraction(-2, 3), Fraction(1, 5))]
    assert _interval_eval(p, boxes) == (Fraction(-1, 125), Fraction(1, 4) + Fraction(8, 27))
    assert _interval_eval(p, boxes) == oracles.interval_eval(p, boxes)


@st.composite
def _definition_and_point(draw):
    """An integer-primitive coefficient tuple of degree 1-6, sometimes
    with a rational root that is then the evaluation point."""
    c = [Fraction(draw(st.integers(-20, 20))) for _ in range(draw(st.integers(1, 6)))]
    c.append(Fraction(draw(st.integers(1, 20)) * draw(st.sampled_from([1, -1]))))
    x = draw(rationals)
    if draw(st.booleans()):  # multiply by (den * x - num), so x is a root
        lin = [Fraction(-x.numerator), Fraction(x.denominator)]
        c = [sum(c[i] * lin[k - i] for i in range(len(c)) if 0 <= k - i < 2)
             for k in range(len(c) + 1)]
    return _primitive(c), x


@settings(max_examples=200, deadline=None)
@given(_definition_and_point())
def test_usign_matches_fraction_horner(case):
    c, x = case
    assert _usign(c, x) == oracles.usign(list(c), x)


@st.composite
def _poly_and_point(draw):
    p = draw(_polys())
    extra = draw(st.integers(0, 1))
    return p, [draw(rationals) for _ in range(p.level + extra)]


@settings(max_examples=200, deadline=None)
@given(_poly_and_point())
def test_eval_rational_matches_fraction_sum(case):
    p, point = case
    v = p.eval_rational(point)
    assert v == oracles.eval_rational(p, point)
    assert type(v) is Fraction


def test_eval_rational_of_constants_and_zero():
    assert MPoly({}).eval_rational([]) == 0
    assert MPoly.constant(Fraction(-3, 4)).eval_rational([Fraction(1, 3)]) == Fraction(-3, 4)
    assert parse_poly("x2^2-2").eval_rational([Fraction(5), Fraction(3, 2)]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_poly("x2").eval_rational([Fraction(1)])


# ---------------------------------------------------------------------------
# results built by the trusted constructor


def _assert_canonical(r: MPoly):
    """r is what the validating constructor makes of its own terms."""
    terms = r.terms
    assert r == MPoly(dict(terms))
    for e, c in terms.items():
        assert type(c) is Fraction and c != 0, (r, e, c)
        assert not e or e[-1] != 0, (r, e)
    assert r.level == max((len(e) for e in terms), default=0)


@settings(max_examples=100, deadline=None)
@given(_polys(3), _polys(3), rationals, st.integers(1, 3), rationals)
def test_canonical_results(p, q, c, v, val):
    results = [p + q, p - q, p - p, p + (-p + q), -p, p * q, p * (-p),
               (p + q) * (p - q), p.scale(c), p.scale(0),
               p.subst_rational({v: val}), p.subst_rational({v: 0}),
               derivative(p, v), *coeff_info(p, v)[2]]
    if p.degree(v) and q.degree(v):
        results.append(resultant(p, q, v))
    for r in results:
        _assert_canonical(r)
    assert (p - p).is_zero() and p.scale(0).is_zero()


def test_cancellation_lowers_the_level():
    x1, x3 = MPoly.var(1), MPoly.var(3)
    p = x1 + x3
    for r in (p - x3, (p * (x1 - x3)) + x3 * x3, p.subst_rational({3: 0})):
        _assert_canonical(r)
        assert r.level == 1


# ---------------------------------------------------------------------------
# the public constructors validate their coefficients


@pytest.mark.parametrize("bad", [0.1, 0.5, "3", "1/2", 1j, None])
def test_public_constructors_refuse_non_rationals(bad):
    with pytest.raises(TypeError):
        MPoly({(1,): bad})
    with pytest.raises(TypeError):
        MPoly.constant(bad)
    with pytest.raises(TypeError):
        MPoly.var(1).scale(bad)


def test_public_constructors_accept_int_and_fraction():
    p = MPoly({(1,): 2, (0, 1): Fraction(1, 3), (): Fraction(0)})
    assert p == parse_poly("2*x1+1/3*x2")
    assert all(type(c) is Fraction for c in p.terms.values())
    assert MPoly.constant(3) == MPoly.constant(Fraction(3))
    assert MPoly.var(2).scale(Fraction(1, 2)) == parse_poly("1/2*x2")
