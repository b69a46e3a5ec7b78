"""`polynomial.resultant` (evaluation and interpolation on integers)
against two independent routes: the subresultant PRS over `MPoly`
coefficients and the symbolic Sylvester determinant.  Its kernel on
dense rows over the eliminated variable is also checked against the
same evaluation on integer term maps, `oracles.term_map_resultant`."""

from fractions import Fraction
from functools import cache
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onecell import memo, realalg
from onecell.polynomial import (
    MPoly,
    _degree_bound,
    _ires,
    _primitive_part,
    _rows,
    _ures,
    coeff_info,
    parse_poly,
    resultant,
)
from onecell.realalg import Sample, isolate_real_roots

from oracles import (
    _term_map_bound,
    is_zero_by_elimination,
    subresultant_resultant,
    sylvester_resultant,
    term_map_resultant,
)

integers = st.integers(-4, 4).map(Fraction)
rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def _polys(nvars, max_deg=2, coeffs=rationals, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return (st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)
            .map(MPoly).filter(lambda p: not p.is_zero()))


def _with_degree(v, nvars, max_deg=2, coeffs=rationals):
    """Polynomials in x1..x_nvars of positive degree in x_v."""
    return _polys(nvars, max_deg, coeffs).filter(lambda p: p.degree(v) > 0)


def _check(p, q, v):
    """Assert the three routes agree on res_v(p, q), and return it."""
    r = resultant(p, q, v)
    assert r == subresultant_resultant(p, q, v), (p, q, v)
    assert r == sylvester_resultant(p, q, v), (p, q, v)
    return r


@st.composite
def _operands(draw, coeffs=rationals):
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(1, nvars))
    return (draw(_with_degree(v, nvars, coeffs=coeffs)),
            draw(_with_degree(v, nvars, coeffs=coeffs)), v)


@settings(max_examples=120, deadline=None)
@given(_operands())
def test_rational_coefficients_up_to_level_three(operands):
    _check(*operands)


@settings(max_examples=60, deadline=None)
@given(_operands(coeffs=integers))
def test_integer_coefficients_up_to_level_three(operands):
    _check(*operands)


@settings(max_examples=60, deadline=None)
@given(_polys(3).filter(lambda p: p.variables() == {1, 2, 3}),
       _with_degree(2, 3))
def test_middle_variable_of_level_three(p, q):
    """Eliminating x2 leaves x1 and x3, which are evaluated in turn. The
    filter on p already gives it positive degree in x2; adding x2 to it
    would cancel a drawn -x2 and leave no x2 to eliminate."""
    _check(p, q, 2)


@settings(max_examples=60, deadline=None)
@given(_with_degree(2, 2, max_deg=1), _polys(1), _polys(1))
def test_shared_factor_gives_zero(f, g, h):
    p, q = f * (g + MPoly.var(2)), f * (h - MPoly.var(2))
    assert _check(p, q, 2).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), _polys(1), _polys(1), _with_degree(2, 2))
def test_leading_coefficients_vanishing_at_the_first_points(d, t1, t0, q):
    """lc_x2(p) = x1(x1^2-1)(x1^2-4) vanishes at 0, 1, -1, 2 and -2, the
    first five evaluation points, so all of them are skipped."""
    x2 = MPoly.var(2)
    p = parse_poly("x1*(x1^2-1)*(x1^2-4)") * x2**d + t1 * x2 ** (d - 1) + t0
    _check(p, q, 2)
    _check(q * parse_poly("(x1-3)*x2+x1"), p, 2)


@settings(max_examples=60, deadline=None)
@given(_operands().filter(lambda o: o[0].degree(o[2]) == 1))
def test_degree_one_in_the_main_variable(operands):
    _check(*operands)


def test_degree_bound_is_reached():
    """res_x2(x1*x2 + 1, x2 + x1) = x1^2 - 1 has degree
    1*1 + 1*1 in x1, the bound the interpolation uses."""
    r = _check(parse_poly("x1*x2+1"), parse_poly("x2+x1"), 2)
    assert r == parse_poly("x1^2-1")


def test_total_degree_bound_is_reached():
    """res_x2(x2^2 + x1*x2 + x1^2, x2 + x1) = x1^2: the degrees in x1 give
    2*1 + 1*1 = 3, the total degrees 2*1 + 1*2 - 2*1 = 2, which is the
    result's degree."""
    p, q = parse_poly("x2^2+x1*x2+x1^2"), parse_poly("x2+x1")
    assert _check(p, q, 2) == parse_poly("x1^2")
    assert _degree_bound(_rows(p.terms, 2, 2), _rows(q.terms, 2, 1), 1, 2, 1) == 2


@settings(max_examples=150, deadline=None)
@given(_operands(coeffs=integers))
def test_degree_bound_holds(operands):
    """The interpolation bound is at least the degree of the result in
    every other variable."""
    p, q, v = operands
    r, dp, dq = sylvester_resultant(p, q, v), p.degree(v), q.degree(v)
    for j in (p * q).variables() - {v}:
        P, Q = _rows(p.terms, v, dp), _rows(q.terms, v, dq)
        assert _degree_bound(P, Q, j, dp, dq) >= r.degree(j)


# ---------------------------------------------------------------------------
# the kernel on dense rows against evaluation on integer term maps


def _check_rows(p, q, v):
    """`_ires` on the rows of p and q with the resultant leaf and the
    term-map route give the same term map, and every degree bound they
    use is the same."""
    dp, dq = p.degree(v), q.degree(v)
    (_, P), (_, Q) = _primitive_part(p), _primitive_part(q)
    Pr, Qr = _rows(P, v, dp), _rows(Q, v, dq)
    assert _ires(Pr, Qr, dp, dq, _ures) == [term_map_resultant(P, Q, v, dp, dq)], (p, q, v)
    for j in (p * q).variables() - {v}:
        assert _degree_bound(Pr, Qr, j, dp, dq) == _term_map_bound(P, Q, j, dp, dq)


@settings(max_examples=120, deadline=None)
@given(_operands(coeffs=integers))
@example((parse_poly("x1*x2+1"), parse_poly("x2+x1"), 2))  # the bound is reached
@example((parse_poly("x2^2+x1*x2+x1^2"), parse_poly("x2+x1"), 2))
def test_rows_match_term_maps(operands):
    _check_rows(*operands)


def _below(nvars, v, d):
    """Integer polynomials in x1..x_nvars of degree < d in x_v, 0 too."""
    exps = st.tuples(*[st.integers(0, d - 1 if i == v else 2) for i in range(1, nvars + 1)])
    return st.dictionaries(exps, integers, max_size=4).map(MPoly)


@st.composite
def _vanishing_leads(draw):
    """p whose leading coefficient in x_v vanishes at x_j = 0, 1 or -1
    for x_j, the highest other variable, the first one evaluated; and
    any q of positive degree in x_v."""
    nvars = draw(st.integers(2, 3))
    v = draw(st.integers(1, nvars))
    j = max(set(range(1, nvars + 1)) - {v})
    xj = MPoly.var(j)
    lead = draw(st.sampled_from([xj, xj - 1, xj + 1, xj**3 - xj]))
    d = draw(st.integers(1, 2))
    c = draw(st.integers(1, 4)) + draw(_below(nvars, v, 1))
    p = lead * c * MPoly.var(v) ** d + draw(_below(nvars, v, d))
    assume(p.degree(v) == d)
    return p, draw(_with_degree(v, nvars, coeffs=integers)), v


@settings(max_examples=80, deadline=None)
@given(_vanishing_leads())
def test_rows_match_term_maps_at_skipped_points(operands):
    p, q, v = operands
    _check_rows(p, q, v)
    _check_rows(q, p, v)


# ---------------------------------------------------------------------------
# the inputs the exact zero test and the root candidates build


@cache
def _coordinates():
    """Irrational coordinates of degree 2 and 3, and two rationals."""
    out = [Fraction(1, 2), Fraction(-2)]
    for text in ("x1^2-2", "x1^3-3*x1+1", "x1^2-x1-1"):
        out += isolate_real_roots(parse_poly(text))[:2]
    return out


def _recorded(fn, *args):
    """Run fn, checking every resultant it takes against the oracles;
    the resultants taken, and fn's value."""
    seen = []

    def checked(p, q, v):
        seen.append((p, q, v))
        return _check(p, q, v)

    with mock.patch.object(realalg, "resultant", checked):
        value = fn(*args)
    return seen, value


def _sample(picks):
    return Sample([_coordinates()[i] for i in picks])


# an irrational x1, then any x2
_picks = st.tuples(st.integers(2, 7), st.integers(0, 7))


@settings(max_examples=40, deadline=None)
@given(_polys(2), _picks)
# x2 = 1/2 makes the product zero before any elimination
@example(parse_poly("-4*x1^2*x2^2+x1^2"), (2, 0))
def test_zero_test_inputs(p, picks):
    """p at the sample, and p times a polynomial that vanishes there, by
    the zero test `_is_zero`, which takes resultants through the roots
    over x1 when x2 is irrational too, and by the reference
    `is_zero_by_elimination`, which eliminates at one irrational
    coordinate too.  The two agree.  The product is zero: a remainder
    shows it, or a specialization nullified over x1, with no resultant;
    the elimination takes one unless substituting the rational
    coordinates already leaves zero."""
    s = _sample(picks)
    pd = p * realalg._upoly(s[0]._def, 1)
    memo.clear()
    zero = _recorded(realalg._is_zero, p, s)[1]
    assert zero == _recorded(is_zero_by_elimination, p, s)[1]
    seen, zero = _recorded(realalg._is_zero, pd, s)
    assert zero is True and not seen
    seen, zero = _recorded(is_zero_by_elimination, pd, s)
    assert zero is True
    if not realalg._rational_part(pd, s).is_zero():
        assert seen


@settings(max_examples=40, deadline=None)
@given(_with_degree(3, 3), _picks)
def test_root_candidate_inputs(p, picks):
    s = _sample(picks)
    p = p + MPoly.var(1) * MPoly.var(3) ** 3
    _, _, coeffs = coeff_info(p, 3)
    if any(realalg.sign_at(c, s) for c in coeffs):
        assert _recorded(realalg._candidate_poly, p, s)[0]
