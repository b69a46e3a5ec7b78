"""Deflation before factoring, in ``finest`` mode: a monomial factor is
split off before the rest is factored, h(x^d) with h reducible is
factored through the factors of h, and a binomial a*x^d + b of odd
degree with a rational root splits off its linear factor.  Both
kernels, `factor_dense` on integer tuples and `factor` on term maps,
are checked against sympy's `factor_list` and `sqf_list`
(`oracles.sympy_poly_factor`), in both modes, in either order from an
empty memo, in the order of `sort_key`.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.polys import factortools

from onecell import memo
from onecell.polynomial import (
    MPoly,
    _capelli,
    _primitive,
    _upoly,
    dense,
    factor,
    factor_dense,
    parse_poly,
)

from oracles import sympy_poly_factor

MODES = ("finest", "squarefree")

coefficients = st.integers(-6, 6)
sparse = st.one_of(st.just(0), st.just(0), coefficients)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _deflatable(draw):
    """x^k times f_i(x^d)^m_i for 1-3 random sparse integer f_i of degree
    1-4, with multiplicities 1-3, d = 1-6 and k = 0-3, of degree at most
    30; as an integer-primitive tuple with a positive leading entry."""
    d = draw(st.integers(1, 6))
    c = [draw(coefficients.filter(bool))]
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.lists(sparse, min_size=1, max_size=4)) + [draw(coefficients.filter(bool))]
        lifted = [0] * (d * len(f) - d + 1)
        lifted[::d] = f
        for _ in range(draw(st.integers(1, 3))):
            if len(c) + len(lifted) - 2 <= 30:
                c = _mul(c, lifted)
    return _primitive([0] * draw(st.integers(0, 3)) + c)


@st.composite
def _monomial_multiples(draw):
    """x1^a * x2^b * q for a random q in x1 and x2 with 1-4 terms of
    degree <= 3 in each variable, a and b in 0-3."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    q = MPoly(draw(st.dictionaries(exps, coefficients.filter(bool), min_size=1, max_size=4)))
    x1, x2 = MPoly.var(1), MPoly.var(2)
    return x1 ** draw(st.integers(0, 3)) * x2 ** draw(st.integers(0, 3)) * q


@st.composite
def _binomials(draw):
    """a*x^d + b or a*x^d - b for odd d = 3-9, with a and |b| perfect
    d-th powers (8 and 27 among them at d = 3) or not, over their
    content; as a tuple with a positive leading entry."""
    d = draw(st.sampled_from([3, 5, 7, 9]))
    powers = st.integers(1, 3).map(lambda w: w**d)
    a, b = (draw(st.one_of(powers, st.sampled_from([8, 27]), st.integers(1, 40))) for _ in range(2))
    return _primitive((draw(st.sampled_from([b, -b])),) + (0,) * (d - 1) + (a,))


@settings(max_examples=120, deadline=None)
@given(_binomials(), st.booleans())
def test_binomials_match_sympy(c, finest_first):
    """Binomials with and without a rational root, whose linear factor
    is split off before the certificate, factor as sympy factors them."""
    _check_dense(c, finest_first)


@st.composite
def _any_binomials(draw):
    """a*x^n + b for n = 3-24, a and |b| perfect powers (4 among them,
    for x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)) or not, over their
    content; as a tuple with a positive leading entry."""
    n = draw(st.integers(3, 24))
    powers = st.builds(pow, st.integers(1, 3), st.sampled_from([2, 3, 4, 5, 6, 8]))
    a, b = (draw(st.one_of(powers, st.sampled_from([1, 4, 64]), st.integers(1, 40)))
            for _ in range(2))
    return _primitive((draw(st.sampled_from([b, -b])),) + (0,) * (n - 1) + (a,))


@settings(max_examples=120, deadline=None)
@given(_any_binomials(), st.booleans())
def test_capelli_binomials_match_sympy(c, finest_first):
    """Binomials of any degree up to 24: those Capelli's criterion
    proves irreducible, and the others, which the later steps split,
    factor as sympy factors them."""
    _check_dense(c, finest_first)


@pytest.mark.parametrize("text, irreducible", [
    ("x1^4+4", False), ("x1^4+1", True), ("4*x1^4+1", False), ("x1^4-4", False),
    ("x1^12+64", False), ("x1^6+8", False), ("x1^6-8", False), ("x1^9-2", True),
    ("8*x1^12+1", False), ("x1^24+1", False), ("x1^8-2", True), ("x1^5+32", False),
])
def test_capelli_criterion(text, irreducible):
    c = dense(parse_poly(text), 1)
    assert bool(_capelli(c[0], c[-1], len(c) - 1)) == irreducible
    memo.clear()
    assert (factor_dense(c) == [(c, 1)]) == irreducible


def _tuples(pairs):
    return [(dense(f, 1), m) for f, m in pairs]


def _check_dense(c, finest_first=True):
    memo.clear()
    for mode in MODES if finest_first else reversed(MODES):
        assert factor_dense(c, mode) == _tuples(sympy_poly_factor(_upoly(c, 1), mode)), (c, mode)


def _check(p, finest_first=True):
    memo.clear()
    for mode in MODES if finest_first else reversed(MODES):
        assert factor(p, mode) == sympy_poly_factor(p, mode), (p, mode)


@settings(max_examples=200, deadline=None)
@given(_deflatable(), st.booleans())
def test_deflated_tuples_match_sympy(c, finest_first):
    _check_dense(c, finest_first)


@settings(max_examples=150, deadline=None)
@given(_monomial_multiples().filter(lambda p: not p.is_constant()), st.booleans())
def test_monomial_multiples_match_sympy(p, finest_first):
    _check(p, finest_first)


def _pairs(*items):
    return sorted(((parse_poly(f), m) for f, m in items), key=lambda fm: fm[0].sort_key())


@pytest.mark.parametrize("text, finest, sympy_calls", [
    # h = 256*x^2 - 3^18 at d = 15 splits by the closed form, and the
    # certificate proves both lifted factors irreducible
    ("256*x1^30-387420489", _pairs(("16*x1^15-19683", 1), ("16*x1^15+19683", 1)), 0),
    ("4*x1^6-9", _pairs(("2*x1^3-3", 1), ("2*x1^3+3", 1)), 0),
    # h is irreducible at d = 6, 3 and 2, and so is x1^6-2
    ("x1^6-2", _pairs(("x1^6-2", 1)), 0),
    # x1^4+4 = x1^4 - (-4*1^4) fails Capelli's criterion: sympy splits it
    ("x1^4+4", _pairs(("x1^2-2*x1+2", 1), ("x1^2+2*x1+2", 1)), 1),
    ("x1^3*(x1^2-2)^2", _pairs(("x1", 3), ("x1^2-2", 2)), 0),
    ("x1*x2^2*(x1*x2+1)", _pairs(("x1", 1), ("x2", 2), ("x1*x2+1", 1)), 0),
    # binomials of odd degree with a rational root: the linear factor and
    # a quadratic cofactor, which the closed form proves irreducible
    ("x1^3+8", _pairs(("x1+2", 1), ("x1^2-2*x1+4", 1)), 0),
    ("8*x1^3-27", _pairs(("2*x1-3", 1), ("4*x1^2+6*x1+9", 1)), 0),
    # x1^4+1, x1^8+1 and x1^16+1 split modulo every prime, so no
    # certificate proves them; Capelli's criterion does, with no sympy
    ("x1^16+1", _pairs(("x1^16+1", 1)), 0),
    ("x1^8+1", _pairs(("x1^8+1", 1)), 0),
])
def test_deflation_fixed_cases(text, finest, sympy_calls):
    p = parse_poly(text)
    memo.clear()
    spies = [mock.patch.object(factortools, name, wraps=getattr(factortools, name))
             for name in ("dup_factor_list", "dmp_factor_list")]
    with spies[0] as dup, spies[1] as dmp:
        assert factor(p) == finest
    assert dup.call_count + dmp.call_count == sympy_calls
    for finest_first in (True, False):
        _check(p, finest_first)
        if len(p.variables()) == 1:
            _check_dense(dense(p, 1), finest_first)
