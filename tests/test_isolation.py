"""Root isolation: the integer Taylor-shift kernel against the Fraction
bisection it replaced, and one isolation per square-free tuple."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onecell import memo, realalg
from onecell.polynomial import MPoly, dense, factor, normalize
from onecell.realalg import RealAlg, _upoly, isolate_real_roots

from oracles import descartes_bisection, sturm_count_all_real_roots


def _irreducible_factors(c):
    """Coefficient tuples of the irreducible factors of degree >= 2."""
    fs = [dense(f, 1) for f, _m in factor(_upoly(c, 1))]
    return [fc for fc in fs if len(fc) > 2]


def _check_against_oracle(fc):
    """fc, coefficients from degree 0 up, is isolated by the kernel as
    its integer-primitive tuple, and by the oracles as it stands; the
    kernel's boxes (a, b, d) are read as the Fractions (a/d, b/d)."""
    c = dense(normalize(MPoly({(k,): x for k, x in enumerate(fc)})), 1)
    intervals = [(Fraction(a, d), Fraction(b, d)) for a, b, d in realalg._bisect_roots(c)]
    assert intervals == descartes_bisection(fc)
    assert len(intervals) == sturm_count_all_real_roots(list(fc))
    roots = realalg._isolate(c, c)
    assert [r.enclosure() for r in roots] == intervals
    assert [r.canonical_index() for r in roots] == list(range(1, len(roots) + 1))


_BIG = 2**64


@st.composite
def _integer_polys(draw):
    degree = draw(st.integers(2, 20))
    coeffs = draw(st.lists(st.integers(-_BIG, _BIG), min_size=degree, max_size=degree))
    lead = draw(st.integers(1, _BIG)) * draw(st.sampled_from([1, -1]))
    return [Fraction(x) for x in coeffs + [lead]]


@settings(max_examples=40, deadline=None)
@given(_integer_polys())
def test_kernel_matches_fraction_bisection(c):
    factors = _irreducible_factors(c)
    assume(factors)
    for fc in factors:
        _check_against_oracle(fc)


# (coefficients, lowest degree first; each polynomial is irreducible)
_HUGE_BOUNDS = {
    # roots near 2^200 and 2^-200
    "two-scales": [1, -(2**200), 1],
    # Cauchy bound 1 + 2^300, its one real root near 2^100
    "cubic-2^300": [-(2**300), 0, 3, 1],
    # Mignotte: two roots about 2^-61 apart near 2^-20, bound 1 + 2^41
    "mignotte": [-2, 4 * 2**20, -2 * 2**40, 0, 0, 0, 0, 0, 1],
    # a leading coefficient far above the others: bound just above 1
    "wide-lead": [1, -3, 0, 2**64 + 1],
    # a rational bound with a large denominator
    "odd-lead": [7 * 2**70, -(2**80), 5, 3**45],
}


@pytest.mark.parametrize("c", _HUGE_BOUNDS.values(), ids=_HUGE_BOUNDS.keys())
def test_kernel_matches_fraction_bisection_at_huge_bounds(c):
    c = [Fraction(x) for x in c]
    assert _irreducible_factors(c) == [dense(_upoly(c, 1), 1)]
    _check_against_oracle(c)


def test_canonical_boxes_are_reduced():
    """Every box (a, b, d) that `memo.CANONICAL` keeps has gcd(a, b, d)
    = 1: the integers of a box built from its two reduced Fraction ends
    over the lcm of their denominators.  Square-free products, with a
    rational root at a midpoint, and the irreducible factors that give
    their roots' identities, are checked as well as the huge bounds."""
    memo.clear()
    polys = [_upoly([Fraction(x) for x in c], 1) for c in _HUGE_BOUNDS.values()]
    polys += [_upoly([15, -5, -3, 1], 1),  # (x - 3)(x^2 - 5)
              _upoly([1, -3, 0, 1], 1) * _upoly([-1, -3, 0, 1], 1),
              _upoly([-3, 0, 1], 1) * _upoly([1, 0, -7, 0, 2], 1)]
    for p in polys:
        for r in isolate_real_roots(p):
            hash(r)
    boxes = [box for intervals in memo.CANONICAL._entries.values() for box in intervals]
    assert len(memo.CANONICAL) > len(polys) and boxes
    assert all(math.gcd(a, b, d) == 1 and d > 0 and a <= b for a, b, d in boxes)
    for a, b, d in boxes:
        lo, hi = Fraction(a, d), Fraction(b, d)
        assert d == math.lcm(lo.denominator, hi.denominator)


def test_each_irreducible_factor_is_isolated_once(monkeypatch):
    """Roots of an irreducible tuple: sorting compares positions, and
    hashing finds the identity, the tuple itself, so the kernel runs
    once and no enclosure moves.  A product is bisected as one tuple;
    the intervals of a new factor are bisected when a root's identity
    is asked for."""
    calls = []
    bisect = realalg._bisect_roots

    def counted(c):
        calls.append(c)
        return bisect(c)

    memo.clear()
    monkeypatch.setattr(realalg, "_bisect_roots", counted)
    roots = isolate_real_roots(_upoly([1, -3, 0, 1], 1))  # x^3 - 3x + 1
    assert len(roots) == 3 and len(calls) == 1
    before = [r.enclosure() for r in roots]
    assert sorted(reversed(roots)) == roots
    assert len({hash(r) for r in roots}) == 3
    assert [r.canonical_index() for r in roots] == [1, 2, 3]
    assert [r.enclosure() for r in roots] == before
    assert len(calls) == 1
    # a second isolation of the same factor reuses its intervals
    again = isolate_real_roots(_upoly([2, -6, 0, 2], 1))
    assert [r.enclosure() for r in again] == before
    assert len(calls) == 1
    # a product of two irreducible cubics: one isolation of the product,
    # then one of the new cubic once the roots' identities are asked for
    product = isolate_real_roots(_upoly([1, -3, 0, 1], 1) * _upoly([-1, -3, 0, 1], 1))
    assert len(calls) == 2
    assert len({hash(r) for r in product}) == 6
    assert len(calls) == 3


def test_a_rootless_quadratic_is_not_bisected(monkeypatch):
    """The closed form answers an irreducible quadratic of negative
    discriminant with no roots and no bisection, alone and as a
    square-free part; one of positive discriminant is still bisected."""
    calls = []
    bisect = realalg._bisect_roots
    memo.clear()
    monkeypatch.setattr(realalg, "_bisect_roots", lambda c: calls.append(c) or bisect(c))
    assert realalg._real_roots((1, 1, 1)) == []
    assert isolate_real_roots(_upoly([5, -2, 3], 1)) == []  # 3x^2 - 2x + 5
    # (x^2 + x + 1)^2 (2x - 1): Yun's parts 2x - 1 and x^2 + x + 1
    repeated = _upoly([1, 1, 1], 1) ** 2 * _upoly([-1, 2], 1)
    assert isolate_real_roots(repeated) == [RealAlg.rational(Fraction(1, 2))]
    assert calls == []
    assert len(isolate_real_roots(_upoly([-2, 0, 1], 1))) == 2 and calls == [(-2, 0, 1)]
