"""`polynomial.factor` (closed forms up to degree 2, sympy's dense
factorization over ZZ above) against the `Poly`-over-QQ route it
replaced, `oracles.sympy_poly_factor`: the factor lists must agree
exactly, in order, in both modes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecell.polynomial import MPoly, factor, normalize, parse_poly

from oracles import sympy_poly_factor

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
    import onecell.polynomial as polynomial

    p = parse_poly("(x1^3-2)*(x1*x2+3)^2*(x2^2+x1*x2+5)")
    expected = {mode: factor(p, mode) for mode in MODES}
    dense = polynomial.dmp_to_dict
    monkeypatch.setattr(polynomial, "dmp_to_dict", lambda f, u: {
        e: _Mpz(int(k)) for e, k in dense(f, u).items()})
    for mode in MODES:
        fs = factor(p, mode)
        assert fs == expected[mode]
        for g, _ in fs:
            for c in g.terms.values():
                assert type(c) is Fraction
                assert type(c.numerator) is int and type(c.denominator) is int
