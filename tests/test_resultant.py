"""`polynomial.resultant` against two independent routes: the
subresultant PRS over `MPoly` coefficients and the symbolic Sylvester
determinant.  Its kernel on dense rows over the eliminated variable,
`_ires`, packs small input into one integer per row entry (Kronecker
substitution) and evaluates larger input at integers and interpolates
(Collins); it is checked as shipped and with every node evaluated
(`PACK_BITS` patched to 0) against the same evaluation on integer term
maps, `oracles.term_map_resultant`, and its subresultant leaf against
Sylvester minors, and its discriminant leaf against psc_0 / lc, on
operands with coefficients up to 10^9.  The bounds the packing rests on
are checked too: every minor's and discriminant's coefficients stay
below half the base, and the degree bound holds for every minor.  A
kernel of each route is checked directly: `_digits`, the balanced
digits the packed leaf's integer is read back from, and `_at`, which
sets the highest other variable of a map of rows to a value."""

import random
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from onecell import memo, polynomial, realalg
from onecell.polynomial import (
    MPoly,
    _at,
    _at_power,
    _degree_bound,
    _digits,
    _ires,
    _norm,
    _primitive_part,
    _rows,
    _udisc,
    _upsc,
    _ures,
    _with_derivative,
    coeff_info,
    exact_div,
    parse_poly,
    resultant,
)
from onecell.realalg import Sample, isolate_real_roots

from conftest import within_seconds

from oracles import (
    _term_map_bound,
    derivative,
    is_zero_by_elimination,
    subresultant_resultant,
    sylvester_minors,
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


# res_x2(10^9*x2 + x1, x2 - 10^9) = -10^18 - x1, whose constant term is
# near the bound (10^9 + 1)^2 on the coefficients
_NEAR_BOUND = (parse_poly("1000000000*x2+x1"), parse_poly("x2-1000000000"), 2)
# small operands whose resultants reach the degree bound in a remaining
# variable: a slot too narrow for it shows at once, before any shrinking
_REACHES_BOUND = (parse_poly("x1*x2+1"), parse_poly("x2+x1"), 2)
_THREE_VARIABLES = (parse_poly("x1*x3^2+x2"), parse_poly("x2*x3+x1^2"), 3)
_MIDDLE = (parse_poly("x1*x2*x3+x2^2+1"), parse_poly("x2+x3"))


@st.composite
def _operands(draw, coeffs=rationals):
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(1, nvars))
    return (draw(_with_degree(v, nvars, coeffs=coeffs)),
            draw(_with_degree(v, nvars, coeffs=coeffs)), v)


@settings(max_examples=120, deadline=None)
@given(_operands())
@example((parse_poly("x1*x2/2+1"), parse_poly("2/3*x2+x1"), 2))
@example(_THREE_VARIABLES)
def test_rational_coefficients_up_to_level_three(operands):
    _check(*operands)


@settings(max_examples=60, deadline=None)
@given(_operands(coeffs=integers))
@example(_NEAR_BOUND)
@example(_REACHES_BOUND)
@example(_THREE_VARIABLES)
def test_integer_coefficients_up_to_level_three(operands):
    _check(*operands)


@settings(max_examples=60, deadline=None)
@given(_polys(3).filter(lambda p: p.variables() == {1, 2, 3}),
       _with_degree(2, 3))
@example(*_MIDDLE)
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
@example(1, parse_poly("1"), parse_poly("1"), parse_poly("x2+x1"))
def test_leading_coefficients_vanishing_at_the_first_points(d, t1, t0, q):
    """lc_x2(p) = x1(x1^2-1)(x1^2-4) vanishes at 0, 1, -1, 2 and -2, the
    first five evaluation points, so all of them are skipped."""
    x2 = MPoly.var(2)
    p = parse_poly("x1*(x1^2-1)*(x1^2-4)") * x2**d + t1 * x2 ** (d - 1) + t0
    _check(p, q, 2)
    _check(q * parse_poly("(x1-3)*x2+x1"), p, 2)


@settings(max_examples=60, deadline=None)
@given(_operands().filter(lambda o: o[0].degree(o[2]) == 1))
@example(_REACHES_BOUND)
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
    """`_ires` on the rows of p and q with the resultant leaf, as shipped
    and with every node evaluated, and the term-map route give the same
    term map, and every degree bound they use is the same."""
    dp, dq = p.degree(v), q.degree(v)
    (_, P), (_, Q) = _primitive_part(p), _primitive_part(q)
    Pr, Qr = _rows(P, v, dp), _rows(Q, v, dq)
    want = [term_map_resultant(P, Q, v, dp, dq)]
    assert _ires(Pr, Qr, dp, dq, _ures) == want, (p, q, v)
    with mock.patch.object(polynomial, "PACK_BITS", 0):
        assert _ires(Pr, Qr, dp, dq, _ures) == want, (p, q, v)
    for j in (p * q).variables() - {v}:
        assert _degree_bound(Pr, Qr, j, dp, dq) == _term_map_bound(P, Q, j, dp, dq)


@settings(max_examples=120, deadline=None)
@given(_operands(coeffs=integers))
@example(_REACHES_BOUND)
@example((parse_poly("x2^2+x1*x2+x1^2"), parse_poly("x2+x1"), 2))
def test_rows_match_term_maps(operands):
    _check_rows(*operands)


# coefficients up to 10^9 beside small ones: a minor can then come close
# to the bound on its coefficients, which a base of half the size misses
large = st.one_of(st.integers(-2, 2), st.integers(-10**9, 10**9)).filter(bool)


@st.composite
def _large_operands(draw, nvars=st.integers(2, 4)):
    """p and q in 2-4 variables with coefficients up to 10^9, of
    positive degree in x_v, deg_v(p) >= deg_v(q)."""
    n = draw(nvars)
    v = draw(st.integers(1, n))
    p, q = (draw(_polys(n, 2, large).filter(lambda p: p.degree(v) > 0)) for _ in range(2))
    return (p, q, v) if p.degree(v) >= q.degree(v) else (q, p, v)


@settings(max_examples=60, deadline=None)
@given(_large_operands())
@example(_NEAR_BOUND)
def test_large_coefficients_match_term_maps(operands):
    _check_rows(*operands)


def _integer_rows(p, q, v):
    """The rows of the integer-primitive p and q, their degrees in x_v,
    and the psc_j of those integer polynomials as Sylvester minors."""
    dp, dq = p.degree(v), q.degree(v)
    (_, P), (_, Q) = _primitive_part(p), _primitive_part(q)
    minors = sylvester_minors(MPoly(P), MPoly(Q), v)
    return _rows(P, v, dp), _rows(Q, v, dq), dp, dq, minors


@settings(max_examples=40, deadline=None)
@given(_large_operands(nvars=st.integers(2, 3)))
@example(_NEAR_BOUND)
def test_subresultant_leaf_matches_sylvester_minors(operands):
    """`_ires` with the subresultant leaf `_upsc`, which lists every
    psc_j, as shipped and with every node evaluated."""
    P, Q, dp, dq, minors = _integer_rows(*operands)
    want = [m.terms for m in minors]
    assert _ires(P, Q, dp, dq, _upsc) == want
    with mock.patch.object(polynomial, "PACK_BITS", 0):
        assert _ires(P, Q, dp, dq, _upsc) == want


def _discriminant_rows(p, v):
    """The rows of the integer-primitive P and of dP/dx_v, d = deg_v(P),
    and disc_v(P) by the oracle: (-1)^(d(d-1)/2) psc_0(P, P') / lc_v(P),
    psc_0 a Sylvester determinant."""
    _, d, P, D = _with_derivative(p, v)
    T = MPoly(_primitive_part(p)[1])
    sign = -1 if d * (d - 1) // 2 % 2 else 1
    disc = exact_div(sylvester_minors(T, derivative(T, v), v)[0], coeff_info(T, v)[1])
    return P, D, d, disc.scale(sign)


@st.composite
def _large_discriminants(draw):
    """(p, v): p in 2-3 variables with coefficients up to 10^9, of degree
    2 or 3 in x_v."""
    n = draw(st.integers(2, 3))
    v = draw(st.integers(1, n))
    return draw(_polys(n, 3, large).filter(lambda p: p.degree(v) >= 2)), v


# lc_x2 = x1 vanishes at the first point, and the constant term is near
# the bound
_NEAR_BOUND_DISC = (parse_poly("x1*x2^2+1000000000*x2-1000000000*x1"), 2)


@settings(max_examples=40, deadline=None)
@given(_large_discriminants())
@example(_NEAR_BOUND_DISC)
def test_discriminant_leaf_matches_sylvester_minors(operands):
    """`_ires` with the discriminant leaf `_udisc` on the rows of P and
    P', as shipped and with every node evaluated."""
    P, D, d, disc = _discriminant_rows(*operands)
    want = [disc.terms]
    assert _ires(P, D, d, d - 1, _udisc) == want
    with mock.patch.object(polynomial, "PACK_BITS", 0):
        assert _ires(P, D, d, d - 1, _udisc) == want


# small integer operands, swapped when deg_v(p) < deg_v(q)
_ordered = _operands(coeffs=integers).map(
    lambda o: o if o[0].degree(o[2]) >= o[1].degree(o[2]) else (o[1], o[0], o[2]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_large_operands(nvars=st.integers(2, 3)), _ordered))
@example(_NEAR_BOUND)
def test_minor_coefficients_below_half_the_base(operands):
    """Every coefficient c of every psc_j of integer rows P and Q has
    2|c| < N = 2 |P|^dq |Q|^dp + 1, the base `_ires` packs them in; so
    has every coefficient of disc(P), in the base of P and P'."""
    P, Q, dp, dq, minors = _integer_rows(*operands)
    n = 2 * _norm(P) ** dq * _norm(Q) ** dp + 1
    assert all(2 * abs(c) < n for m in minors for c in m.terms.values())
    p, _, v = operands
    if dp > 1:
        P, D, d, disc = _discriminant_rows(p, v)
        n = 2 * _norm(P) ** (d - 1) * _norm(D) ** d + 1
        assert all(2 * abs(c) < n for c in disc.terms.values())


@settings(max_examples=80, deadline=None)
@given(_ordered)
@example(_REACHES_BOUND)
@example((parse_poly("x2^2+x1*x2+x1^2"), parse_poly("x2+x1"), 2))
def test_degree_bound_holds_for_every_minor(operands):
    """`_degree_bound` in x_k bounds deg_k psc_j for every j, not only
    for the resultant psc_0, and for x_v, where it is 0."""
    p, q, v = operands
    P, Q, dp, dq, minors = _integer_rows(p, q, v)
    for k in (p * q).variables():
        bound = _degree_bound(P, Q, k, dp, dq)
        assert all(m.degree(k) <= bound for m in minors), (k, bound)


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
@example(_REACHES_BOUND)  # lc_x2 = x1 vanishes at the first point
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
@example(parse_poly("x1*x2+1"), (2, 4))
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
@example(parse_poly("x3+x2"), (2, 4))
def test_root_candidate_inputs(p, picks):
    s = _sample(picks)
    p = p + MPoly.var(1) * MPoly.var(3) ** 3
    _, _, coeffs = coeff_info(p, 3)
    if any(realalg.sign_at(c, s) for c in coeffs):
        assert _recorded(realalg._candidate_poly, p, s)[0]


# ---------------------------------------------------------------------------
# the shared kernels: balanced digits and rows at a value


@pytest.mark.parametrize("k", [1, 2, 3, 8, 61])
def test_digits_read_back_balanced_coefficients(k):
    """`_digits(c(2^k), k)` is c for every c with coefficients in
    (-2^(k-1), 2^(k-1)] and a nonzero last entry, the extremes
    +-(2^(k-1) - 1) and 2^(k-1) and a negative leading one among them."""
    h = 1 << (k - 1)
    rng = random.Random(k)
    digits = sorted({h, h - 1, 1 - h, 1, -1, 0})
    cases = [[h], [1 - h], [-1], [h - 1, -h + 1, h], [0, 0, 1 - h], [h, 0, -1]]
    for _ in range(200):
        c = [rng.choice(digits) if rng.random() < 0.5 else rng.randint(1 - h, h)
             for _ in range(rng.randint(1, 8))]
        c[-1] = c[-1] or rng.choice([h, -1])
        cases.append(c)
    for c in cases:
        if c[-1] and all(-h < x <= h for x in c):
            assert within_seconds(2, lambda: _digits(_at_power(c, k), k)) == c, (c, k)
    assert _digits(0, k) == []


def _row_maps(rng):
    """Random rows over x_v = x1, keyed by exponents of x2..x4 with x1's
    entry 0, trimmed, and their highest variable j."""
    d, rows = rng.randint(0, 3), {}
    for _ in range(rng.randint(1, 5)):
        e = polynomial._trim((0,) + tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        rows[e] = [rng.randint(-9, 9) for _ in range(d + 1)]
    rows = {e: r for e, r in rows.items() if any(r)}
    return rows, d, max(map(len, rows), default=0)


def test_rows_at_a_value_match_substitution():
    """`_at(P, j, a)` is the rows of the polynomial of P with x_j = a by
    `MPoly.subst_rational`, zero rows dropped."""
    rng = random.Random(7)
    for _ in range(300):
        P, d, j = _row_maps(rng)
        if not j:
            continue
        p = MPoly({(i,) + e[1:]: c for e, r in P.items() for i, c in enumerate(r)})
        for a in (0, 1, -1, 2, -3, 5):
            want = _rows(p.subst_rational({j: a})._terms, 1, d)
            assert _at(P, j, a) == want, (P, j, a)
