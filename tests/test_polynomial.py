"""Polynomial arithmetic against independent oracles."""

import random
from fractions import Fraction

import pytest

from onecell.polynomial import (
    MPoly,
    coeff_info,
    content,
    discriminant,
    exact_div,
    factor,
    normalize,
    parse_poly,
    poly_to_str,
    resultant,
)

from conftest import random_poly
from oracles import sylvester_resultant


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


def test_discriminant_identity(rng):
    """disc(p) * lc(p) == +/- res(p, p') with the textbook sign."""
    from onecell.polynomial import derivative

    for _ in range(40):
        p = random_poly(rng, 2, max_deg=4)
        v = p.level if p.level else 1
        d = p.degree(v)
        if d < 2:
            continue
        _, lead, _ = coeff_info(p, v)
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        lhs = discriminant(p, v) * lead
        rhs = resultant(p, derivative(p, v), v).scale(sign)
        assert lhs == rhs


def test_discriminant_of_linear_is_one():
    assert discriminant(parse_poly("3*x1+1"), 1) == MPoly.constant(1)


def test_normalize_idempotent_and_positive(rng):
    for _ in range(40):
        p = random_poly(rng, 3)
        n = normalize(p)
        assert normalize(n) == n
        assert content(n) == 1
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
