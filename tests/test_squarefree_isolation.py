"""Root isolation on square-free parts, identities on demand.

`realalg._real_roots` bisects each of Yun's square-free parts and leaves
a root's identity, the irreducible factor with its canonical index, for
the first call that asks for it.  The reference is the irreducible path
it replaced (`oracles.isolate_by_term_map_factor`): factor, then isolate
each factor with its identity known.  Both must agree on every exact
answer: order, equality, ranks, line samples, signs, zero tests,
canonical copies and text.  The count tests pin the mechanism: root
isolation itself asks no certificate and no sympy factorization.
"""

import random
from fractions import Fraction

import pytest
from sympy.polys import factortools

from onecell import HEURISTIC_IDS, config_from_id, memo, polynomial, realalg, single_cell
from onecell.explain import Constraint
from onecell.polynomial import MPoly, _upoly, parse_poly
from onecell.realalg import (
    RealAlg,
    Sample,
    _is_zero,
    isolate_real_roots,
    line_samples,
    realalg_to_text,
    sign_at,
    value_ranks,
)
from onecell.solver import solve_conjunction

from conftest import random_poly, random_sample, within_seconds
from oracles import isolate_by_term_map_factor, sorted_distinct


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(rng: random.Random, rational: bool) -> MPoly:
    """A square-free product of 1-2 random factors of degree 2-3 and,
    when `rational`, 1-2 linear ones with dyadic or other roots."""
    while True:
        c = [1]
        for _ in range(rng.randint(1, 2) if rational else 0):
            c = _mul(c, [-rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 8])])
        for _ in range(rng.randint(1, 2)):
            deg = rng.randint(2, 3)
            c = _mul(c, [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 3)])
        if polynomial._yun(polynomial._primitive(c)) == [(polynomial._primitive(c), 1)]:
            return _upoly(c, 1)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _agree(p: MPoly, ref_first: bool, rng: random.Random) -> None:
    """Fresh isolations of p agree with the reference on every answer."""
    memo.clear()
    if ref_first:
        ref = isolate_by_term_map_factor(p)
        new = isolate_real_roots(p)
    else:
        new = isolate_real_roots(p)
        ref = isolate_by_term_map_factor(p)
    assert len(new) == len(ref), p
    n = len(ref)
    for i in range(n):
        for j in range(n):
            assert new[i].compare(ref[j]) == _sign(i - j), (p, i, j)
            assert ref[j].compare(new[i]) == _sign(j - i), (p, i, j)
    new = isolate_real_roots(p)
    assert [new[i].compare(new[j]) for i in range(n) for j in range(n)] == [
        _sign(i - j) for i in range(n) for j in range(n)]

    mixed = [(v, i) for i, v in enumerate(isolate_real_roots(p))] + [
        (v, i) for i, v in enumerate(ref)]
    rng.shuffle(mixed)
    assert value_ranks([v for v, _ in mixed]) == [i for _, i in mixed], p
    distinct = sorted_distinct(isolate_real_roots(p) + ref)
    assert [realalg_to_text(v) for v in distinct] == [realalg_to_text(v) for v in ref]

    # raw line samples: 0, a point in each gap, then the cuts, as the
    # reference values cut the line: 2k below the k+1-th, 2k+1 at it;
    # those are the positions the sweep gives, 0's too, and the roots'
    points, at, pos = line_samples(isolate_real_roots(p))
    regions = [2 * sum(r < t for r in ref) + sum(r == t for r in ref) for t in points]
    assert regions[1:] == (list(range(0, 2 * n + 1, 2)) + list(range(1, 2 * n, 2)) if n else []), p
    assert at == regions and pos == list(range(1, 2 * n, 2)), p
    # canonical copies start where the reference's do, so sample alike
    copies = [v.canonical_copy() for v in isolate_real_roots(p)]
    assert [v.enclosure() for v in copies] == [r.canonical_copy().enclosure() for r in ref]
    assert [realalg_to_text(t) for t in line_samples(copies)[0]] == [
        realalg_to_text(t) for t in line_samples([r.canonical_copy() for r in ref])[0]]

    new = isolate_real_roots(p)
    assert [hash(v) for v in new] == [hash(r) for r in ref]
    assert [v.key() for v in new] == [r.key() for r in ref]
    assert [realalg_to_text(v) for v in new] == [realalg_to_text(r) for r in ref]

    # signs and zero tests at points whose x1 is each root
    vanishing = [f for f in (random_poly(rng, 1), random_poly(rng, 2)) if not f.is_zero()]
    qs = [p, p * random_poly(rng, 2)] + vanishing
    for v, r in zip(isolate_real_roots(p), ref):
        x2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s_new, s_ref = Sample([v, x2]), Sample([r, x2])
        for q in qs:
            assert sign_at(q, s_new) == sign_at(q, s_ref), (p, q, r)
            assert _is_zero(q, s_new) == _is_zero(q, s_ref), (p, q, r)


@pytest.mark.parametrize("rational", [False, True])
def test_agrees_with_the_irreducible_path(rational):
    for seed in range(60):
        rng = random.Random(seed)
        p = _product(rng, rational)
        for ref_first in (False, True):
            within_seconds(20, lambda: _agree(p, ref_first, random.Random(seed)))


def test_a_rational_root_at_a_bisection_midpoint():
    """(x - 3)(x^2 - 5): the bisection of (-B, B) meets 3 at a midpoint,
    and (x - 7)(x^2 + 1): 7 sits inside a leaf, and a refinement meets
    it.  Each becomes that rational, with no factorization."""
    memo.clear()
    roots = isolate_real_roots(parse_poly("(x1-3)*(x1^2-5)"))
    assert [r.enclosure()[0] == r.enclosure()[1] for r in roots] == [False, False, True]
    assert roots[2] == RealAlg.rational(3)
    (seven,) = isolate_real_roots(parse_poly("(x1-7)*(x1^2+1)"))
    assert seven.enclosure() == (0, 8)
    for _ in range(3):
        seven.refine()
    assert seven.enclosure() == (7, 7)
    assert within_seconds(2, lambda: seven == RealAlg.rational(7))


def test_equal_values_of_different_tuples():
    """sqrt 2 as a root of x^2 - 2 and of (x^2 - 2)(x^2 - 3): their gcd
    has a root in both boxes.  Equal, in either order, with the same
    hash and text; and distinct from sqrt 3 of the same tuple."""
    memo.clear()
    product = isolate_real_roots(parse_poly("(x1^2-2)*(x1^2-3)"))
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    assert within_seconds(2, lambda: product[2] == sqrt2 and sqrt2 == product[2])
    assert product[3] != sqrt2 and product[1] != sqrt2
    assert hash(product[2]) == hash(sqrt2)
    assert realalg_to_text(product[2]) == realalg_to_text(sqrt2) == "(root x1^2-2 2)"


def test_a_rational_root_inside_a_box():
    """1/3, a root of (3x - 1)(x^2 - 2), is no dyadic midpoint: it is
    1/3 exactly when the tuple vanishes there."""
    memo.clear()
    third = isolate_real_roots(parse_poly("(3*x1-1)*(x1^2-2)"))[1]
    assert third == RealAlg.rational(Fraction(1, 3))
    memo.clear()
    third = isolate_real_roots(parse_poly("(3*x1-1)*(x1^2-2)"))[1]
    assert realalg_to_text(third) == "1/3"
    assert third.is_rational() and third.key() == ("rat", Fraction(1, 3))


def _counting(monkeypatch):
    """Counters of the certificate and sympy calls made inside root
    isolation or identity finding, and of identities found."""
    counts = {"certificate": 0, "sympy": 0, "identities": 0}
    depth = [0]

    def inside(fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += depth[0] > 0
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(realalg, "roots_in_extension", inside(realalg.roots_in_extension))
    monkeypatch.setattr(polynomial, "_irreducible_by_degrees",
                        counted("certificate", polynomial._irreducible_by_degrees))
    monkeypatch.setattr(factortools, "dup_factor_list",
                        counted("sympy", factortools.dup_factor_list))
    resolve = RealAlg._resolve

    def found(self):
        counts["identities"] += 1
        return resolve(self)

    monkeypatch.setattr(RealAlg, "_resolve", inside(found))
    return counts


def test_isolation_factors_nothing_until_an_identity_is_asked(monkeypatch):
    """single_cell at rational samples reads only the order of roots: in
    40 random calls, root isolation asks no certificate and no sympy
    factorization, and no root's identity is found.  Asking a root of
    an irreducible cubic for its key costs one certificate."""
    memo.clear()
    counts = _counting(monkeypatch)
    rng = random.Random(7)
    for k in range(40):
        n = rng.randint(1, 3)
        polys = [random_poly(rng, n) for _ in range(rng.randint(1, 4))]
        single_cell(polys, random_sample(rng, n), config_from_id(list(HEURISTIC_IDS)[k % 7]))
    assert counts == {"certificate": 0, "sympy": 0, "identities": 0}
    memo.clear()
    cubic = realalg.roots_in_extension(parse_poly("x1^3-3*x1+1"), Sample([]))
    assert counts == {"certificate": 0, "sympy": 0, "identities": 0}
    cubic[0].key()
    assert counts == {"certificate": 1, "sympy": 0, "identities": 1}


def test_a_model_names_its_coordinates_by_irreducible_factors():
    """Over x = 1 the fiber y^4 + y - 2 is isolated as one tuple; the
    model's y is named by its factor y^3 + y^2 + y + 2."""
    x, y = MPoly.var(1), MPoly.var(2)
    result = solve_conjunction([Constraint(x - 1, "="), Constraint(y**4 + x * y - 2, "="),
                                Constraint(y, "<")], 2)
    assert result.status == "sat"
    assert [realalg_to_text(c) for c in result.model] == ["1", "(root x1^3+x1^2+x1+2 1)"]
