"""The integer evaluators against the `Fraction` routes they replaced,
rational `RealAlg` values, held as integer boxes, against the `Fraction`
values they stand for, and the results of the trusted `MPoly._canonical`
constructor.

`realalg._interval_eval`, `realalg._usign` and `MPoly.eval_rational`
work on integer numerators over a common denominator; their references
in `oracles` work term by term on `Fraction` objects, and the two must
agree exactly: `sign_at` refines until the interval value excludes 0,
so even a tighter bound would end it after fewer rounds and change the
enclosures it leaves behind."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onecell.polynomial import (
    MPoly,
    coeff_info,
    dense,
    discriminant,
    normalize,
    parse_poly,
    resultant,
    subresultant_coefficients,
)
from onecell.realalg import (
    RealAlg,
    Sample,
    _interval_eval,
    _usign,
    isolate_real_roots,
    line_samples,
    realalg_to_text,
    sign_at,
)

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
    lo, hi, scale = _interval_eval(p, [_integer_box(b) for b in boxes])
    assert all(type(x) is int for x in (lo, hi, scale)) and scale > 0
    assert (Fraction(lo, scale), Fraction(hi, scale)) == oracles.interval_eval(p, boxes)
    assert lo <= hi


def _integer_box(box):
    """(lo, hi) as (a, b, d) with lo = a/d and hi = b/d, over the product
    of the two denominators, not the least common one: enclosures share
    a denominator that need not be the least."""
    lo, hi = box
    d = lo.denominator * hi.denominator
    return lo.numerator * hi.denominator, hi.numerator * lo.denominator, d


def test_interval_eval_over_even_powers_across_zero():
    # x1^2 over [-1/2, 1/3] is [0, 1/4]; x2^3 over [-2/3, 1/5] keeps its ends
    p = parse_poly("x1^2-x2^3")
    boxes = [(Fraction(-1, 2), Fraction(1, 3)), (Fraction(-2, 3), Fraction(1, 5))]
    lo, hi, scale = _interval_eval(p, [_integer_box(b) for b in boxes])
    bounds = (Fraction(lo, scale), Fraction(hi, scale))
    assert bounds == (Fraction(-1, 125), Fraction(1, 4) + Fraction(8, 27))
    assert bounds == oracles.interval_eval(p, boxes)


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
    return dense(normalize(MPoly({(k,): a for k, a in enumerate(c)})), 1), x


@settings(max_examples=200, deadline=None)
@given(_definition_and_point())
def test_usign_matches_fraction_horner(case):
    c, x = case
    a, b = x.numerator, x.denominator
    assert _usign(c, a, b) == _usign(c, 3 * a, 3 * b) == oracles.usign(list(c), x)


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


def test_eval_rational_rejects_floats():
    p = parse_poly("x1^2-x2")
    assert p.eval_rational([3, Fraction(1, 2)]) == Fraction(17, 2)
    with pytest.raises(TypeError):
        p.eval_rational([0.1, Fraction(1)])


def test_subst_rational_rejects_floats():
    p = parse_poly("x1^2-x2")
    assert p.subst_rational({1: 3}) == parse_poly("9-x2")
    with pytest.raises(TypeError):
        p.subst_rational({1: 0.1})
    with pytest.raises(TypeError):
        p.subst_rational({2: "1/2"})


# ---------------------------------------------------------------------------
# rational values on their integer boxes, against Fraction


def _built(x: Fraction, way: int) -> RealAlg:
    """The rational x = n/d as a `RealAlg`, made the way the library
    makes one: 0 by `RealAlg.rational`; 1 by `_resolve` of the linear
    factor of (d*t - n)(t^2 - 200) on the box ((2n - 1)/2d, (2n + 1)/2d),
    which holds no root of t^2 - 200; 2 by `refine` of that box, whose
    midpoint 4n/4d is the root; 3 as the root of d*x1 - n
    (`isolate_real_roots`)."""
    n, d = x.numerator, x.denominator
    if way == 0:
        return RealAlg.rational(x)
    if way == 3:
        return isolate_real_roots(MPoly({(1,): d, (): -n}))[0]
    c = (200 * n, -200 * d, -n, d)
    v = RealAlg._root(c, (2 * n - 1, 2 * n + 1, 2 * d), 2, None)
    if way == 1:
        assert v.is_rational()
    else:
        v.refine()
    return v


@st.composite
def _two_rationals(draw):
    """Two rationals, equal in about half the draws, each with a way of
    building it (`_built`)."""
    x = draw(rationals)
    y = x if draw(st.booleans()) else draw(rationals)
    return x, y, draw(st.integers(0, 3)), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_two_rationals())
@example((Fraction(1, 2), Fraction(1, 3), 0, 0))
@example((Fraction(-3, 4), Fraction(-3, 4), 2, 1))
@example((Fraction(0), Fraction(0), 2, 3))
def test_rationals_compare_and_key_as_their_fractions(case):
    x, y, i, j = case
    a, b = _built(x, i), _built(y, j)
    assert a.is_rational() and b.is_rational()
    assert a.compare(b) == (x > y) - (x < y) == -b.compare(a)
    assert (a.key() == b.key()) == (x == y)
    key = a.key()
    assert key == ("rat", x.numerator, x.denominator)
    assert all(type(k) is int for k in key[1:])
    assert a.key() == RealAlg.rational(x).key() and hash(a) == hash(RealAlg.rational(x))
    assert a.rational_value() == x and type(a.rational_value()) is Fraction
    assert realalg_to_text(a) == str(x)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=5))
@example([Fraction(-1, 2), Fraction(1, 3), Fraction(1, 3)])
def test_line_samples_points_are_keyed_as_their_fractions(cuts):
    """Each point of `line_samples` over rational cuts, 0 and the
    simplest rational of each gap, has the key and hash of
    `RealAlg.rational` of its value, and each gap's point lies in it."""
    points, _, _ = line_samples([RealAlg.rational(c) for c in cuts])
    for v in points:
        x = v.rational_value()
        assert v.key() == RealAlg.rational(x).key() and hash(v) == hash(RealAlg.rational(x))
    ends = [None, *sorted(set(cuts)), None] if cuts else [None, None]
    for v, lo, hi in zip(points[1:], ends, ends[1:]):
        x = v.rational_value()
        assert (lo is None or lo < x) and (hi is None or x < hi)


@st.composite
def _poly_and_built_point(draw):
    p, point = draw(_poly_and_point())
    return p, point, [draw(st.integers(0, 3)) for _ in point]


@settings(max_examples=200, deadline=None)
@given(_poly_and_built_point())
def test_sign_at_a_rational_point_is_the_sign_of_eval_rational(case):
    p, point, ways = case
    v = p.eval_rational(point)
    s = Sample(_built(x, way) for x, way in zip(point, ways))
    assert sign_at(p, s) == (v > 0) - (v < 0)


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
               *coeff_info(p, v)[2]]
    if p.degree(v):
        results += [discriminant(p, v), *subresultant_coefficients(p, v)]
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
