"""Roots over samples whose coordinates repeat an extension, where an
intermediate resultant of `realalg._candidate_poly` vanishes and the
defining polynomial is divided out of the eliminand."""

import random
from fractions import Fraction

from onecell.cells import cell_contains
from onecell.engine import single_cell
from onecell.polynomial import MPoly, exact_div, parse_poly, resultant
from onecell.realalg import Sample, isolate_real_roots, roots_in_extension

from conftest import random_poly
from oracles import is_zero_by_minimal_polynomial, sturm_count_all_real_roots


def _univariate(c, v):
    return MPoly({(0,) * (v - 1) + (k,): Fraction(x) for k, x in enumerate(c) if x})


def test_single_cell_over_a_repeated_square_root():
    """p(-sqrt2, sqrt2, x3) is identically zero, so eliminating x1 and
    then x2 gives a zero resultant."""
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    coords = [sqrt2, sqrt2, Fraction(1)]
    result = single_cell(["(x1+x2)*x3 + x1^2 - 2"], coords)
    assert result
    assert cell_contains(result.cell, Sample(coords)) is True


def test_roots_over_repeated_extensions_agree_with_oracles():
    """p = N*A + d(x1)*B + d(x2)*C at s = (alpha, alpha), where d is
    alpha's defining polynomial, N = (d(x1) - d(x2)) / (x1 - x2) vanishes
    at (beta, alpha) for every conjugate beta != alpha but not at s, and
    A = A0(x3) + (x1 - x2)*A1.  So p(s, x3) = d'(alpha) * A0(x3): its real
    roots are counted by a Sturm sequence of A0, and each root the
    library returns is checked with sympy's minimal polynomial.  A0 has
    degree at most 2: the oracle takes seconds on cubic roots over the
    cube root of 3."""
    rng = random.Random(5)
    alphas = [
        isolate_real_roots(parse_poly("x1^2-2"))[1],
        isolate_real_roots(parse_poly("x1^3-3"))[0],
    ]
    checked = roots = 0
    for k in range(12):
        alpha = alphas[k % len(alphas)]
        _, defn, _ = alpha.key()  # ("alg", definition, canonical index)
        d1, d2 = _univariate(defn, 1), _univariate(defn, 2)
        x1, x2 = MPoly.var(1), MPoly.var(2)
        n = exact_div(d1 - d2, x1 - x2)
        a0 = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
        if not any(a0[1:]):
            a0[-1] = 1
        a = _univariate(a0, 3) + (x1 - x2) * random_poly(rng, 3, 1, 2)
        p = n * a + d1 * random_poly(rng, 3, 1, 2) + d2 * random_poly(rng, 3, 1, 2)
        assert p.level == 3
        assert resultant(resultant(p, d1, 1), d2, 2).is_zero()
        s = Sample([alpha, alpha])
        found = roots_in_extension(p, s)
        assert len(found) == sturm_count_all_real_roots(
            [Fraction(c) for c in a0]), (p, a0)
        for r in found:
            assert is_zero_by_minimal_polynomial(p, [alpha, alpha, r]), (p, r)
        checked += 1
        roots += len(found)
    assert checked == 12 and roots >= 10
