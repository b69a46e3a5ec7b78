"""Polynomial arithmetic against independent oracles."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onecell import polynomial
from onecell.polynomial import (
    MPoly,
    _discriminant,
    _monom_key,
    _new_poly,
    _primitive_part,
    _render,
    coeff_info,
    discriminant,
    exact_div,
    factor,
    normalize,
    parse_poly,
    poly_to_str,
    resultant,
    subresultant_coefficients,
)

from conftest import random_poly
from oracles import (
    derivative,
    sylvester_resultant,
    term_coeff_info,
    term_degree,
    term_sort_key,
    term_variables,
)
from test_resultant import _vanishing_leads


def test_ring_axioms_spot():
    p = parse_poly("x1^2+2*x1*x2-1")
    q = parse_poly("x2^3-x1")
    r = parse_poly("3*x1-x2")
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == MPoly({})
    assert (p * q).degree(1) == p.degree(1) + q.degree(1)


def test_parse_print_roundtrip(rng):
    for _ in range(50):
        p = random_poly(rng, rng.randint(1, 3))
        assert parse_poly(poly_to_str(p)) == p


def test_parse_rejects_garbage():
    for bad in ["", "x0", "1 +", "x1^", "(x1", "x1**2", "y+1"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_rejects_non_ascii_digits():
    """x followed by an Arabic-Indic one is not x1, nor a superscript two
    an exponent."""
    for bad in ["x\u0661", "x1^\u00b2", "\u0663*x1", "x1+\u0661"]:
        with pytest.raises(ValueError, match="bad character"):
            parse_poly(bad)


def test_parse_nesting_limit():
    assert parse_poly("(" * 50 + "x1" + ")" * 50) == MPoly.var(1)
    with pytest.raises(ValueError, match="nested deeper"):
        parse_poly("(" * 400 + "x1" + ")" * 400)


def test_coeff_info_roundtrip(rng):
    for _ in range(30):
        p = random_poly(rng, 2)
        v = p.level if p.level else 1
        deg, lead, coeffs = coeff_info(p, v)
        back = MPoly({})
        for k, c in enumerate(coeffs):
            back = back + c * MPoly.var(v) ** k
        assert back == p
        assert coeffs[deg] == lead


def test_exact_div_inverts_product(rng):
    for _ in range(30):
        a = random_poly(rng, 2, max_deg=2)
        b = random_poly(rng, 2, max_deg=2)
        assert exact_div(a * b, b) == a


def test_resultant_matches_sylvester(rng):
    """Dual route: integer evaluation and interpolation vs symbolic
    Sylvester determinant."""
    for _ in range(60):
        nv = rng.randint(1, 2)
        p = random_poly(rng, nv, max_deg=4)
        q = random_poly(rng, nv, max_deg=4)
        v = max(p.level, q.level)
        if v == 0 or p.degree(v) == 0 or q.degree(v) == 0:
            continue
        assert resultant(p, q, v) == sylvester_resultant(p, q, v)


def test_resultant_of_shared_factor_is_zero():
    f = parse_poly("x1+x2")
    p = f * parse_poly("x2-1")
    q = f * parse_poly("x2+3")
    assert resultant(p, q, 2).is_zero()


def _check_discriminant(disc, p, v):
    """disc * lc(p) == +/- res(p, p') with the textbook sign."""
    d = p.degree(v)
    _, lead, _ = coeff_info(p, v)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    assert disc * lead == resultant(p, derivative(p, v), v).scale(sign), (p, v)


def test_discriminant_identity(rng):
    for _ in range(40):
        p = random_poly(rng, 2, max_deg=4)
        v = p.level if p.level else 1
        if p.degree(v) >= 2:
            _check_discriminant(discriminant(p, v), p, v)


@settings(max_examples=60, deadline=None)
@given(_vanishing_leads())
def test_discriminant_identity_where_the_leading_coefficient_vanishes(operands):
    """lc_v(p) vanishes at the first points `_ires` evaluates at: as
    shipped, and with every node evaluated."""
    p, _, v = operands
    assume(p.degree(v) >= 2)
    _check_discriminant(_discriminant(p, v), p, v)
    with mock.patch.object(polynomial, "PACK_BITS", 0):
        _check_discriminant(_discriminant(p, v), p, v)


def test_discriminant_of_linear_is_one():
    assert discriminant(parse_poly("3*x1+1"), 1) == MPoly.constant(1)


def test_normalize_idempotent_and_positive(rng):
    for _ in range(40):
        p = random_poly(rng, 3)
        n = normalize(p)
        assert normalize(n) == n
        assert _primitive_part(n)[0] == (1, 1)  # content 1
        if not p.is_constant():
            # normalization only rescales
            assert normalize(p.scale(Fraction(-7, 3))) == n


def test_factor_product_reconstitutes(rng):
    for _ in range(40):
        p = random_poly(rng, 2, max_deg=2)
        if p.is_constant():
            continue
        prod = MPoly.constant(1)
        for f, mult in factor(p, "finest"):
            prod = prod * f ** mult
        # equal up to the constant the factorization pulled out
        assert normalize(prod) == normalize(p) or prod == p


def test_squarefree_part_drops_multiplicity():
    p = parse_poly("x1-1") ** 2 * parse_poly("x1+2")
    part = MPoly.constant(1)
    for f, _ in factor(p, "squarefree"):
        part = part * f
    assert normalize(part) == normalize(parse_poly("x1-1") * parse_poly("x1+2"))


_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
).map(MPoly)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys)
def test_text_is_rendered_once_and_kept(p, q):
    """Every way of building a polynomial leaves its text unset, so the
    cached text is the rendering of an equal, freshly built one."""
    built = [p, q, p + q, p - q, -p, p * q, p.scale(Fraction(-3, 2)),
             p.subst_rational({1: Fraction(1, 2)}), *coeff_info(p, 2)[2]]
    if p.degree(2):
        built += [discriminant(p, 2), *subresultant_coefficients(p, 2)]
    if p.degree(2) and q.degree(2):
        built.append(resultant(p, q, 2))
    for r in built:
        text = poly_to_str(r)
        assert text == _render(MPoly(r.terms))
        assert poly_to_str(r) is text


_polys_1_to_3 = st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * n),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=5,
).map(MPoly))


@settings(max_examples=100, deadline=None)
@given(_polys_1_to_3)
def test_kept_views_match_the_term_map(p):
    """`degree`, `variables`, `sort_key` and `coeff_info(p, p.level)` are
    computed once and kept on the value.  On p, on an equal polynomial
    built as a new object and on polynomials built from p, each agrees
    with a recomputation from the term map, however often it is asked
    and whatever a caller does to the coefficient list it gets."""
    built = [p, MPoly(p.terms), -p, p * p, *coeff_info(p, 1)[2]]
    if p.level:
        built += [discriminant(p, p.level), *subresultant_coefficients(p, p.level)]
    for r in built:
        for _ in range(2):
            assert [r.degree(v) for v in range(1, 5)] == [term_degree(r, v) for v in range(1, 5)]
            assert r.variables() == term_variables(r)
            assert r.sort_key() == term_sort_key(r)
            assert r.sort_key() is r.sort_key()
            if r.is_constant():
                continue
            got = coeff_info(r, r.level)
            assert got == term_coeff_info(r, r.level)
            assert all(a is b for a, b in zip(got[2], coeff_info(r, r.level)[2]))
            coeffs = got[2]
            coeffs.append(MPoly.var(4))
            coeffs[0] = MPoly.constant(7)
            coeffs.reverse()


def _assert_stored_form(r: MPoly):
    """r stores no zero and no integral Fraction, and hashes, renders
    and sorts like the same polynomial stored on Fractions."""
    for e, c in r._terms.items():
        assert c != 0, (r, e)
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (r, e, c)
    terms = r.terms
    assert all(type(c) is Fraction for c in terms.values())
    assert hash(r) == hash(frozenset((e, Fraction(c)) for e, c in terms.items()))
    n = r.level
    items = sorted(((_monom_key(e, n), c) for e, c in terms.items()), reverse=True)
    assert r.sort_key() == (r.total_degree(), len(items), tuple(items))
    # rendered outside memo.POLYS, which would hand back r itself
    assert poly_to_str(r) == _render(_new_poly(terms, frozenset(terms.items())))
    assert r.level == max((len(e) for e in terms), default=0)


# x1 + 3/2*x2 from halves that add up, and 2*x1 from terms that cancel
_halves = MPoly({(1,): Fraction(1, 2), (1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
_cancelled = MPoly({(0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-3, 2), (1,): 2})


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_every_construction_stores_integral_coefficients_as_int(p, q, c):
    """Every way of building a polynomial stores the same canonical form."""
    built = [p, q, MPoly(p.terms), _halves, _cancelled, _halves + _halves,
             p + q, p - q, -p, p * q, _halves * _halves,
             p.scale(c), _halves.scale(2),
             p.subst_rational({1: c}), _halves.subst_rational({2: Fraction(2, 3)}),
             discriminant(_halves * _halves + MPoly.var(2), 1),
             *subresultant_coefficients(_halves * _halves + MPoly.var(2), 1),
             *coeff_info(p, 2)[2], normalize(p), normalize(_halves)]
    for v in p.variables():
        built += [discriminant(p, v), *subresultant_coefficients(p, v)]
    if q:
        built.append(exact_div(p * q, q))
    if p.degree(2) and q.degree(2):
        built.append(resultant(p, q, 2))
    if p.degree(2):
        built.append(resultant(p, _halves, 2))
    if p and not p.is_constant():
        for mode in ("finest", "squarefree"):
            built.extend(f for f, _ in factor(p, mode))
    for r in built:
        _assert_stored_form(r)
    assert MPoly(p.terms) == p and hash(MPoly(p.terms)) == hash(p)
