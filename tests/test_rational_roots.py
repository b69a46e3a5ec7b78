"""Roots over a rational prefix from the integer coefficient tuple, and
the univariate factor kernel behind them.

`roots_in_extension` over a rational prefix builds the integer
coefficient tuple of p(s, x_i) in one pass over p's terms
(`MPoly._fiber`) and takes its roots through
`polynomial.factor_dense`.  The reference is the route it replaced
(`oracles.roots_by_substitution`): substitute into a new `MPoly`, factor
it through the term-map `factor`, and isolate.  Both must give the same
roots, root for root: the same definitions, canonical indices, rational
values and canonical enclosures (a root starts out enclosed by the
bisection of its square-free part, the reference's by that of its
irreducible factor; their canonical copies agree).  The kernel itself is checked against sympy's
`factor_list` and `sqf_list`.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onecell import memo
from onecell.polynomial import MPoly, _upoly, factor_dense, parse_poly
from onecell.realalg import (
    NULLIFIED,
    Sample,
    realalg_to_text,
    roots_in_extension,
)

from oracles import realalg_from_text, roots_by_count, roots_by_substitution

# fiber factors, coefficients from degree 0 up: x^3 - 3x + 1 is proved
# irreducible by the degree-pattern certificate, while x^4 + 1 splits
# modulo every prime and x^3 - 2 modulo some, so sympy decides them
_FACTORS = [(-2, 0, 1), (1, -3, 0, 1), (1, 0, 0, 0, 1), (-2, 0, 0, 1), (1, 1, 1)]

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _normalized(c):
    """The integer list c over its content, with a positive last entry."""
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return tuple(x // g for x in c)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _fibers(draw):
    """A nonzero rational constant times 0-3 factors, each a random
    linear or quadratic one or one of `_FACTORS`, with multiplicity 1-2,
    of degree at most 8 in all."""
    c = [draw(small.filter(bool))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            f = draw(st.sampled_from(_FACTORS))
        else:
            f = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3)
                     .filter(lambda f: f[-1]))
        for _ in range(draw(st.integers(1, 2))):
            if len(c) + len(f) - 2 <= 8:
                c = _mul(c, f)
    return c


@st.composite
def _lifted(draw):
    """(p, prefix, nullified): p in x1..xn, n = 1..3, whose fiber over
    the rational prefix is a drawn one.  Each coefficient of the fiber is
    lifted by a multiple of (x_j - s_j); a term (x_1 - s_1) m x_n^k above
    the fiber's degree drops p's degree at s; and (x_1 - s_1) times all
    of it nullifies p."""
    n = draw(st.integers(1, 3))
    prefix = [draw(small) for _ in range(n - 1)]
    xn = MPoly.var(n)
    p = MPoly({})
    fiber = draw(_fibers())

    def vanishing():
        """A random multiple of some x_j - s_j, j < n, that vanishes at s."""
        j = draw(st.integers(1, n - 1))
        m = MPoly.constant(draw(st.integers(-2, 2)))
        for v in range(1, n):
            m = m * MPoly.var(v) ** draw(st.integers(0, 1))
        return (MPoly.var(j) - prefix[j - 1]) * m

    for k, c in enumerate(fiber):
        coeff = MPoly.constant(c)
        if n > 1 and draw(st.booleans()):
            coeff = coeff + vanishing()
        p = p + coeff * xn**k
    nullified = False
    if n > 1:
        if draw(st.booleans()) or p.level < n:
            for k in range(len(fiber), len(fiber) + draw(st.integers(1, 2))):
                p = p + (MPoly.var(1) - prefix[0]) * (1 + MPoly.var(n - 1)) * xn**k
        if draw(st.integers(0, 5)) == 0:
            p, nullified = (MPoly.var(1) - prefix[0]) * p, True
    assume(p.level == n)
    return p, prefix, nullified


def _check(p, prefix):
    """The same roots as the reference, root for root; returns them."""
    memo.clear()
    s = Sample(prefix)
    got, want = roots_in_extension(p, s), roots_by_substitution(p, s)
    if want is NULLIFIED:
        assert got is NULLIFIED, (p, prefix)
        return got
    assert [r.key() for r in got] == [r.key() for r in want], (p, prefix)
    assert [r.canonical_copy().enclosure() for r in got] == [
        r.canonical_copy().enclosure() for r in want], (p, prefix)
    return got


@settings(max_examples=300, deadline=None)
@given(_lifted())
def test_roots_over_rational_prefixes_match_substitution(case):
    p, prefix, nullified = case
    roots = _check(p, prefix)
    assert (roots is NULLIFIED) == nullified, (p, prefix)


@pytest.mark.parametrize("text, prefix, want", [
    # level 1: the empty prefix
    ("x1^3-2", [], ["(root x1^3-2 1)"]),
    # a negative leading coefficient at s
    ("2-x1*x2^2", [1], ["(root x1^2-2 1)", "(root x1^2-2 2)"]),
    # the degree drops at s: the fiber is x2^2 - 2
    ("x1*x2^3+x2^2-2", [0], ["(root x1^2-2 1)", "(root x1^2-2 2)"]),
    ("x1*x2^3+x2^2-2", [Fraction(1, 2)], None),
    # nullified at s
    ("x1*x2^2-x1", [0], NULLIFIED),
    # a constant fiber
    ("x1*x2+3", [0], []),
    # a double root: (x2 - 1)^2
    ("x2^2-2*x1*x2+1", [1], ["1"]),
    # a rational root beside irrational ones
    ("(x2-x1)*(x2^2-2)", [Fraction(1, 2)], ["(root x1^2-2 1)", "1/2", "(root x1^2-2 2)"]),
    # factors of degree >= 3 that reach sympy: x^4 + 1 splits modulo
    # every prime, and a product of two quadratics is reducible
    ("x3^4+x1*x2", [1, 1], []),
    ("(x2^2-2)*(x2^2-x1)", [3], ["(root x1^2-3 1)", "(root x1^2-2 1)",
                                 "(root x1^2-2 2)", "(root x1^2-3 2)"]),
    # a linear factor and an irreducible cubic: y^4 + x*y - 2 at x = 1
    ("x2^4+x1*x2-2", [1], ["(root x1^3+x1^2+x1+2 1)", "1"]),
])
def test_roots_over_rational_prefixes_fixed_cases(text, prefix, want):
    roots = _check(parse_poly(text), prefix)
    if want is NULLIFIED:
        assert roots is NULLIFIED
    elif want is not None:
        assert [realalg_to_text(r) for r in roots] == want


# ---------------------------------------------------------------------------
# over a prefix with irrational coordinates that p does not use

_IRRATIONAL = ["(root x1^2-2 2)", "(root x1^3-3 1)", "(root x1^2-5 1)"]


@st.composite
def _spread(draw):
    """(p, prefix): a `_lifted` p in x1..xn with its variables moved up
    among 1-2 more, each with an irrational coordinate in the prefix."""
    p, prefix, _ = draw(_lifted())
    n = p.level
    extra = draw(st.integers(1, 2))
    # the new index of each of p's variables below x_n; x_n goes on top
    kept = sorted(draw(st.permutations(range(1, n + extra)))[:n - 1])
    moved = kept + [n + extra]
    terms = {}
    for e, c in p.terms.items():
        f = [0] * (n + extra)
        for v, k in enumerate(e):
            f[moved[v] - 1] = k
        terms[tuple(f)] = c
    coords = [None] * (n + extra - 1)
    for v, x in zip(kept, prefix):
        coords[v - 1] = x
    for j, x in enumerate(coords):
        if x is None:
            coords[j] = realalg_from_text(draw(st.sampled_from(_IRRATIONAL)))
    return MPoly(terms), coords


@settings(max_examples=200, deadline=None)
@given(_spread())
def test_roots_over_unused_irrational_coordinates_match_the_count(case):
    """The tuple path reads only the coordinates of p's variables: it
    gives the roots the counting route gives, root for root."""
    p, coords = case
    memo.clear()
    s = Sample(coords)
    got, want = roots_in_extension(p, s), roots_by_count(p, s)
    if want is NULLIFIED:
        assert got is NULLIFIED, (p, s)
        return
    assert [r.key() for r in got] == [r.key() for r in want], (p, s)
    assert [r.enclosure() for r in got] == [r.enclosure() for r in want], (p, s)


# ---------------------------------------------------------------------------
# the kernel against sympy


@st.composite
def _tuples(draw):
    """An integer-primitive tuple with a positive leading coefficient, of
    degree 0-8: a random one, or a product of 1-3 random factors of
    degree 1-3, each with multiplicity 1-3."""
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=9).filter(lambda c: c[-1]))
    else:
        c = [draw(st.integers(1, 6))]
        for _ in range(draw(st.integers(1, 3))):
            f = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(lambda f: f[-1]))
            for _ in range(draw(st.integers(1, 3))):
                if len(c) + len(f) - 2 <= 8:
                    c = _mul(c, f)
    return _normalized(c)


def _sympy_factors(c, mode):
    poly = sympy.Poly(list(reversed(c)), sympy.Symbol("x"), domain="ZZ")
    _, pairs = poly.factor_list() if mode == "finest" else poly.sqf_list()
    out = [(_normalized([int(k) for k in reversed(f.all_coeffs())]), int(m))
           for f, m in pairs if f.degree() > 0]
    return sorted(out, key=lambda fm: _upoly(fm[0], 1).sort_key())


@settings(max_examples=300, deadline=None)
@given(_tuples(), st.booleans())
def test_kernel_matches_sympy_factor_list(c, finest_first):
    """Both modes, in either order from an empty memo (a ``finest`` call
    records the answers of its factors), in the order of `sort_key`."""
    memo.clear()
    modes = ("finest", "squarefree") if finest_first else ("squarefree", "finest")
    for mode in modes:
        assert factor_dense(c, mode) == _sympy_factors(c, mode), (c, mode)
