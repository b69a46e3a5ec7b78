"""`polynomial.factor` (closed forms up to degree 2, the degree-pattern
irreducibility certificate, sympy's dense factorization over ZZ above)
against the `Poly`-over-QQ route it replaced, `oracles.sympy_poly_factor`:
the factor lists must agree exactly, in order, in both modes.  The
certificate is also checked against sympy alone, against `factor` with
the certificate switched off, and against the root test it replaced,
`oracles.irreducible_by_roots`."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecell import memo
from onecell import polynomial
from onecell.polynomial import MPoly, factor, normalize, parse_poly

from conftest import random_poly
from oracles import irreducible_by_roots, sympy_poly_factor

MODES = ("finest", "squarefree")

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def _polys(nvars, max_deg=2, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return (st.dictionaries(exps, rationals, min_size=1, max_size=max_terms)
            .map(MPoly).filter(lambda p: not p.is_zero()))


@st.composite
def _products(draw):
    """A rational constant times 1-3 random polynomials in x1..x_nvars,
    each raised to a multiplicity of 1-3."""
    nvars = draw(st.integers(1, 3))
    p = MPoly.constant(draw(rationals.filter(bool)))
    for _ in range(draw(st.integers(1, 3))):
        p = p * draw(_polys(nvars)) ** draw(st.integers(1, 3))
    return p


@st.composite
def _univariate(draw):
    """A polynomial of degree <= 2 in one variable x_k, k = 1..3, either
    random or a product of two linear factors."""
    x = MPoly.var(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        a, b, c = draw(rationals), draw(rationals), draw(rationals)
        return a * x * x + b * x + c
    a, b, c, d = (draw(st.integers(-6, 6)) for _ in range(4))
    return (a * x + b) * (c * x + d)


def _check(p):
    for mode in MODES:
        assert factor(p, mode) == sympy_poly_factor(p, mode), (p, mode)


@settings(max_examples=150, deadline=None)
@given(_products())
def test_factor_matches_sympy_poly(p):
    _check(p)


@settings(max_examples=200, deadline=None)
@given(_univariate().filter(bool))
def test_factor_matches_sympy_poly_up_to_degree_two(p):
    _check(p)


def _pairs(*items):
    return [(parse_poly(f), m) for f, m in items]


@pytest.mark.parametrize("text, finest, squarefree", [
    # univariate in x3 alone: the factors come back in x3
    ("(x3^2-2)*(x3+1)^2", _pairs(("x3+1", 2), ("x3^2-2", 1)),
     _pairs(("x3^2-2", 1), ("x3+1", 2))),
    ("6*x3^2+x3-2", _pairs(("2*x3-1", 1), ("3*x3+2", 1)),
     _pairs(("6*x3^2+x3-2", 1))),
    # a negative leading coefficient
    ("-2*x1^2*x2+2*x2^3", _pairs(("x2", 1), ("x2-x1", 1), ("x2+x1", 1)),
     _pairs(("x2^3-x1^2*x2", 1))),
    # a content that depends on another variable
    ("x2*(x1^2-1)", _pairs(("x1-1", 1), ("x1+1", 1), ("x2", 1)),
     _pairs(("x1^2*x2-x2", 1))),
    # quadratics: discriminant negative, not a square, 0, a nonzero square
    ("x1^2+x1+1", _pairs(("x1^2+x1+1", 1)), _pairs(("x1^2+x1+1", 1))),
    ("x1^2-2", _pairs(("x1^2-2", 1)), _pairs(("x1^2-2", 1))),
    ("4*x1^2+4*x1+1", _pairs(("2*x1+1", 2)), _pairs(("2*x1+1", 2))),
    ("-6*x1^2-x1+2", _pairs(("2*x1-1", 1), ("3*x1+2", 1)),
     _pairs(("6*x1^2+x1-2", 1))),
    ("x2^2/3-x2", _pairs(("x2", 1), ("x2-3", 1)), _pairs(("x2^2-3*x2", 1))),
    ("-5*x2^2", _pairs(("x2", 2)), _pairs(("x2", 2))),
    ("(x1-1)^2*(x1+2)^3*x2",
     _pairs(("x1-1", 2), ("x1+2", 3), ("x2", 1)),
     _pairs(("x2", 1), ("x1-1", 2), ("x1+2", 3))),
])
def test_factor_fixed_cases(text, finest, squarefree):
    p = parse_poly(text)
    assert factor(p, "finest") == sorted(finest, key=lambda fm: fm[0].sort_key())
    assert factor(p, "squarefree") == sorted(squarefree, key=lambda fm: fm[0].sort_key())
    _check(p)


def test_linear_input_is_its_own_factor():
    for text in ("-3*x2+1/2", "2*x1-x3+7"):
        p = parse_poly(text)
        for mode in MODES:
            assert factor(p, mode) == [(normalize(p), 1)]
        _check(p)


def test_constant_input_has_no_factors():
    assert factor(MPoly.constant(3)) == []
    assert factor(MPoly.constant(-3), "squarefree") == []


def test_unknown_mode_is_refused_before_the_constant_shortcut():
    for p in (MPoly.constant(3), parse_poly("x1^2-1")):
        with pytest.raises(ValueError, match="unknown factor mode"):
            factor(p, "bogus")


def test_zero_is_refused():
    with pytest.raises(ValueError):
        factor(MPoly({}))


class _Mpz:
    """An integer that is not an `int` subclass, as gmpy2's `mpz` and
    python-flint's `fmpz` are when sympy picks them for its ZZ."""

    def __init__(self, n):
        self.n = n

    def __int__(self):
        return self.n

    __index__ = __int__


def test_factor_output_has_fractions_of_ints(monkeypatch):
    """The memo is emptied after the patch, so that both modes factor
    again through it: one conversion per factor, 3 + 2 in all.  The
    package imports sympy's functions when it calls them, so the patch
    is on sympy's module, and only the package's calls are counted and
    answered with mpz-like coefficients."""
    from sympy.polys import densebasic

    p = parse_poly("(x1^3-2)*(x1*x2+3)^2*(x2^2+x1*x2+5)")
    expected = {mode: factor(p, mode) for mode in MODES}
    dense = densebasic.dmp_to_dict
    converted = []

    def as_mpz(f, u):
        if sys._getframe(1).f_globals["__name__"] != polynomial.__name__:
            return dense(f, u)
        converted.append(f)
        return {e: _Mpz(int(k)) for e, k in dense(f, u).items()}

    monkeypatch.setattr(densebasic, "dmp_to_dict", as_mpz)
    memo.clear()
    for mode in MODES:
        fs = factor(p, mode)
        assert fs == expected[mode]
        for g, _ in fs:
            for c in g.terms.values():
                assert type(c) is Fraction
                assert type(c.numerator) is int and type(c.denominator) is int
    assert len(converted) == sum(len(fs) for fs in expected.values()) == 5


# ---------------------------------------------------------------------------
# the degree-pattern irreducibility certificate


def _certified(p: MPoly) -> bool:
    _, P = polynomial._primitive_part(p)
    return polynomial._irreducible_by_degrees(P, sorted(p.variables()))


def _check_certificate(p: MPoly) -> bool:
    """Whether the certificate holds for p; when it does, sympy finds p
    irreducible.  Either way the finest factors are those found with the
    certificate switched off.  The memo is emptied first, since a
    univariate p is factored through the kernel's memo entry."""
    certified = not p.is_constant() and _certified(p)
    if certified:
        assert sympy_poly_factor(p, "finest") == [(normalize(p), 1)], p
    want = polynomial._factor(p, "finest")
    memo.clear()
    with mock.patch.object(polynomial, "_irreducible_by_degrees", return_value=False):
        assert polynomial._factor(p, "finest") == want, p
    return certified


@settings(max_examples=150, deadline=None)
@given(_products())
def test_certificate_agrees_with_sympy_on_products(p):
    _check_certificate(p)


def test_certificate_agrees_with_sympy_on_random_polynomials():
    """Random integer polynomials in 1-3 variables of total degree <= 3,
    and products of two of them; the certificate must hold on a good
    share of them, on every one the root test proves irreducible, and
    never on a reducible one."""
    rng = random.Random(16)
    certified, by_roots = 0, 0
    for k in range(300):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars)
        if k % 3 == 0:
            p = p * random_poly(rng, nvars, max_deg=2)
        holds = _check_certificate(p)
        certified += holds
        if not p.is_constant():
            _, P = polynomial._primitive_part(p)
            if irreducible_by_roots(P, sorted(p.variables())):
                by_roots += 1
                assert holds, p
    assert by_roots == 127
    assert certified >= 127


def _random_univariate(rng: random.Random, degree: int) -> MPoly:
    """A random integer polynomial in x1 of the given degree."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]))
    return MPoly({(k,): c for k, c in enumerate(coeffs) if c})


def _random_irreducible(rng: random.Random, degree: int) -> MPoly:
    while True:
        f = _random_univariate(rng, degree)
        if sympy_poly_factor(f) == [(normalize(f), 1)]:
            return f


def test_certificate_agrees_with_sympy_on_degrees_four_to_twenty():
    """Random polynomials in x1 of degree 4-20: `factor` agrees with
    sympy alone, and the certificate holds on most of the irreducible
    ones and on none of the others."""
    rng = random.Random(22)
    certified = irreducible = 0
    for degree in range(4, 21):
        for _ in range(4):
            p = _random_univariate(rng, degree)
            _check(p)
            irreducible += sympy_poly_factor(p) == [(normalize(p), 1)]
            certified += _check_certificate(p)
    assert certified >= 0.9 * irreducible


def test_certificate_refuses_products_of_two_irreducibles():
    """f*g for random irreducible f and g of degree 2-10, with small
    leading coefficients, so that some primes divide them."""
    rng = random.Random(23)
    for _ in range(40):
        f, g = (_random_irreducible(rng, rng.randint(2, 10)) for _ in range(2))
        p = f * g
        assert not _certified(p), p
        _check(p)


@pytest.mark.parametrize("text", [
    "x1^4+1",
    "x1^4-10*x1^2+1",  # the minimal polynomial of sqrt(2) + sqrt(3)
    "x1^4-x1^2+1",  # the 12th cyclotomic polynomial
])
def test_certificate_refuses_input_reducible_modulo_every_prime(text):
    """Irreducible polynomials whose every reduction modulo a prime
    splits into factors of degree <= 2: no degree is ever ruled out,
    and sympy proves them irreducible."""
    p = parse_poly(text)
    assert not _certified(p)
    assert factor(p) == [(p, 1)]
    _check(p)


@pytest.mark.parametrize("text", [
    "x1^3+x1",  # the root 0 modulo every prime
    "x2*x1^2+x2",  # the content x2 in x1, and no integer coefficient in x2
    "(2*x1-1)*(x1^2+x1+1)",  # the root 1/2 modulo every odd prime
    "(x1+x2)*(x1-x2+1)",
    "(x1^2+1)*(x1^2+2)",
    "(x1^6+x1+1)*(x1^6-2*x1^5+3)",
])
def test_certificate_refuses_reducible_input(text):
    assert not _certified(parse_poly(text))
    assert not _check_certificate(parse_poly(text))


@pytest.mark.parametrize("text", [
    "x1*x2+1",  # linear in x2 with the integer coefficient 1
    "x1^3-2",  # no root modulo 7
    "x2^2+x1",  # x2^2+1 has no root modulo 3
    "x3^3+x1*x2*x3+x1^2+1",
    "x1^20-x1-1",  # irreducible (Selmer, 1956)
])
def test_certificate_proves_irreducible_input(text):
    assert _check_certificate(parse_poly(text))


def test_tuple_order_key_is_the_polynomial_sort_key():
    """`factor_dense` orders its factor tuples by `_order_key` on their
    (exponent, coefficient) items, the key `MPoly.sort_key` computes;
    a factor has degree >= 1, so its polynomial has level 1."""
    rng = random.Random(11)
    for _ in range(500):
        c = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        c += (rng.choice([-1, 1]) * rng.randint(1, 9),)
        items = (((k,), x) for k, x in enumerate(c) if x)
        assert polynomial._order_key(items, 1) == polynomial._upoly(c, 1).sort_key(), c


@pytest.mark.parametrize("q", [2, 3, 5, 31])
def test_monic_division_modulo_a_prime(q):
    """`_divide_mod(a, b, q)` = (t, r): a = t*b + r modulo q, deg r <
    deg b, t reduced modulo q, for a monic b."""
    rng = random.Random(q)
    for _ in range(300):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
        b = [rng.randint(-50, 50) for _ in range(rng.randint(0, 5))] + [1]
        t, r = polynomial._divide_mod(a, b, q)
        assert len(r) < len(b) and all(0 <= x < q for x in t)
        tb = [0] * (len(t) + len(b) - 1)
        for i, x in enumerate(t):
            for j, y in enumerate(b):
                tb[i + j] += x * y
        n = max(len(a), len(tb), len(r))
        pad = lambda c: list(c) + [0] * (n - len(c))
        assert all((x - y - z) % q == 0 for x, y, z in zip(pad(a), pad(tb), pad(r))), (a, b)
