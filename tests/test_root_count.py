"""Roots over a sample with an irrational coordinate, counted before
they are refined: `polynomial.subresultant_coefficients` against
determinants of Sylvester submatrices, the count `realalg._root_count`
against Sturm sequences at rational points, and `roots_in_extension`
against the per-candidate zero test it replaced
(`oracles.roots_by_zero_test`), at one and at two irrational
coordinates, and whole cells at samples with two irrational
coordinates, whose root counts take the subresultant route."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from onecell import memo, polynomial, realalg
from onecell.config import HEURISTIC_IDS, config_from_id
from onecell.engine import Fail, single_cell
from onecell.explain import Constraint, check_conflict
from onecell.polynomial import (
    PACK_BITS,
    MPoly,
    coeff_info,
    dense,
    parse_poly,
    subresultant_coefficients,
)
from onecell.properties import validate_trace
from onecell.realalg import (
    NULLIFIED,
    Sample,
    _candidate_poly,
    _rational_part,
    _root_count,
    isolate_real_roots,
    roots_in_extension,
)

from conftest import check_cell_sound, random_poly, within_seconds
from oracles import (
    derivative,
    realalg_from_text,
    roots_by_zero_test,
    sturm_count_all_real_roots,
    sylvester_minors,
)


def test_subresultant_coefficients_match_sylvester_minors():
    """Random polynomials in up to three variables, with rational
    coefficients and with repeated factors, whose psc_0 vanishes; with
    small minors packed into one integer, as shipped, and with every
    other variable evaluated, under `PACK_BITS` 0."""
    for pack_bits in (PACK_BITS, 0):
        rng = random.Random(71)
        vanishing = 0
        for trial in range(40):
            p = random_poly(rng, 3, 5, 5)
            if trial % 4 == 0:
                p = p * p * random_poly(rng, 3, 2, 2)
            if trial % 3 == 0:
                p = p.scale(Fraction(rng.choice([2, -3]), rng.choice([3, 5])))
            v = p.level
            if not v or p.degree(v) > 5:
                continue
            with mock.patch.object(polynomial, "PACK_BITS", pack_bits):
                got = subresultant_coefficients(p, v)
            assert got == tuple(sylvester_minors(p, derivative(p, v), v)), (p, pack_bits)
            vanishing += got[0].is_zero()
        assert vanishing >= 5


def _specialized(rng: random.Random) -> tuple[MPoly, Sample]:
    """p in x1, x2 of degree 1-6 in x2, with a rational x1 at which p's
    leading coefficient in x2 does not vanish; repeated roots, and
    sparse polynomials whose subresultant sequence skips degrees."""
    x1, x2 = MPoly.var(1), MPoly.var(2)
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            p = random_poly(rng, 2, 6, 5)
        elif kind == 1:
            g = random_poly(rng, 2, 2, 3)
            p = g * g * random_poly(rng, 2, 2, 3)
        else:
            p = x2 ** rng.randint(2, 6) + random_poly(rng, 2, 2, 2) * x2 ** rng.randint(0, 1)
        p = p + x1 * x2 * rng.randint(-1, 1)
        s = Sample([Fraction(rng.randint(-3, 3), rng.randint(1, 2))])
        if p.level == 2 and 1 <= p.degree(2) <= 6 and realalg.sign_at(coeff_info(p, 2)[1], s):
            return p, s


def test_count_matches_sturm_at_rational_points():
    rng = random.Random(73)
    repeated = skipped = 0
    for _ in range(300):
        p, s = _specialized(rng)
        c = [Fraction(x) for x in dense(_rational_part(p, s), 2)]
        assert _root_count(p, p.degree(2), s) == sturm_count_all_real_roots(c), (p, s)
        # a zero psc_j between nonzero ones: the sign sequence has a gap
        psc = [realalg.sign_at(q, s) for q in subresultant_coefficients(p, 2)]
        nonzero = [j for j, x in enumerate(psc) if x]
        skipped += any(b - a > 1 for a, b in zip(nonzero, nonzero[1:]))
        repeated += psc[0] == 0
    assert repeated >= 30 and skipped >= 30


def test_count_over_known_polynomials():
    """x^3 + 1 skips psc_1 (an even gap), x^3 - x and x^2 have repeated
    or three roots, and x^4 + 1 none."""
    s = Sample([Fraction(1)])
    for text, k in [("x2^3+x1", 1), ("x2^3-x1*x2", 3), ("x2^3-3*x1*x2+2", 2),
                    ("x2^2", 1), ("x2^4+x1", 0), ("x2^4-x1", 2), ("x2^5-x1*x2", 3),
                    ("(x2^2-x1)^2*(x2-3)", 3), ("x2^6+x1*x2^3", 2)]:
        p = parse_poly(text)
        assert _root_count(p, p.degree(2), s) == k, text


def _irrational_root(rng: random.Random, p: MPoly, coords: list):
    """An irrational root of p over the coordinates, or None."""
    roots = roots_in_extension(p, Sample(coords))
    if roots is NULLIFIED:
        return None
    roots = [r for r in roots if not r.is_rational()]
    return rng.choice(roots) if roots else None


def _prefix(rng: random.Random, two: bool) -> tuple[Sample, list[MPoly]]:
    """A sample with an irrational x1, and with an irrational or a
    rational x2 over it, of small degrees; and the polynomials that
    define its irrational coordinates, which vanish at it."""
    x1, x2 = MPoly.var(1), MPoly.var(2)
    while True:
        d1 = x1**2 + rng.randint(-3, 3) * x1 + rng.randint(-4, 1)
        a = _irrational_root(rng, d1, [])
        if a is not None:
            break
    if not two:
        return Sample([a, Fraction(rng.randint(-2, 2), rng.randint(1, 2))]), [d1]
    while True:
        d2 = x2**2 + rng.randint(-2, 2) * x1 * x2 + rng.randint(-2, 2) * x1 + rng.randint(-2, 2)
        b = _irrational_root(rng, d2, [a])
        if b is not None and len(b._def) <= 5:
            return Sample([a, b]), [d1, d2]


def _case(rng: random.Random, zeros: list[MPoly], kind: str) -> MPoly:
    """A polynomial in x1..x3 of degree 1-5 in x3, of the given kind."""
    x3 = MPoly.var(3)
    z = rng.choice(zeros)
    while True:
        if kind == "random":
            p = random_poly(rng, 3, 4, 4)
        elif kind == "truncated":  # the leading coefficient vanishes at s
            p = z * x3 ** rng.randint(2, 3) + random_poly(rng, 3, 3, 3)
        elif kind == "repeated":  # p = g^2 h
            g = x3 + random_poly(rng, 2, 1, 2)
            p = g * g * (x3 + random_poly(rng, 2, 1, 2))
        elif kind == "nullified":
            p = z * random_poly(rng, 3, 2, 3)
        else:  # "rootless": x3^2 + a square + 1
            q = random_poly(rng, 2, 1, 2)
            p = x3 ** 2 + q * q + 1
        if p.level == 3 and 1 <= p.degree(3) <= 5:
            return p


def _check(p: MPoly, s: Sample, tally: dict) -> None:
    want = roots_by_zero_test(p, Sample([c.canonical_copy() for c in s]))
    got = roots_in_extension(p, Sample([c.canonical_copy() for c in s]))
    if want is NULLIFIED:
        assert got is NULLIFIED, (p, s)
        tally["nullified"] += 1
        return
    assert [r.key() for r in got] == [r.key() for r in want], (p, s)
    e = max(k for k, c in enumerate(coeff_info(p, 3)[2]) if realalg.sign_at(c, s))
    tally["truncated"] += e < p.degree(3)
    tally["no roots"] += not got
    cands = isolate_real_roots(_candidate_poly(p, s)) if got else None
    tally["all candidates"] += cands is not None and len(cands) == len(got)
    tally["fewer roots"] += cands is not None and len(cands) > len(got)
    tally["repeated"] += realalg.sign_at(subresultant_coefficients(p, 3)[0], s) == 0


def test_roots_match_the_per_candidate_zero_test():
    """Seeded samples at one and at two irrational coordinates, and p of
    degree 1-5 in x3: the same roots in the same order as the filter it
    replaced, over truncated, repeated, nullified and rootless cases."""
    rng = random.Random(79)
    tally = dict.fromkeys(["nullified", "truncated", "no roots", "all candidates",
                           "fewer roots", "repeated"], 0)
    kinds = ["random", "truncated", "repeated", "nullified", "rootless"]
    for trial in range(20):
        s, zeros = _prefix(rng, two=trial % 2 == 1)
        for kind in kinds:
            _check(_case(rng, zeros, kind), s, tally)
    assert all(n >= 10 for n in tally.values()), tally


def test_tower_conflict_counts_without_zero_tests():
    """The tower input: root 1 of 3*x1^3-1 and root 1 of a degree-9
    polynomial over it.  Its conflict check answers within 2 s, it finds
    roots over the whole sample, and no root lookup asks the zero test
    at an extended sample."""
    memo.clear()
    s = Sample([realalg_from_text("(root 3*x1^3-1 1)"),
                realalg_from_text("(root 729*x1^9+486*x1^6+270*x1^3+59 1)")])
    C = [Constraint(parse_poly("-x3^2+x1*x3-3*x1*x2"), ">"),
         Constraint(parse_poly("x1*x3-x1^2+1"), "!=")]
    extended = []
    lookups, recorded = [], []
    is_zero, roots = realalg._is_zero, realalg.roots_in_extension

    def recorded_roots(p, prefix):
        lookups.append(len(prefix))
        recorded.append(len(prefix))
        try:
            return roots(p, prefix)
        finally:
            lookups.pop()

    def recorded_is_zero(p, point):
        if lookups and len(point) > lookups[-1]:
            extended.append((p, point))
        return is_zero(p, point)

    with mock.patch.object(realalg, "_is_zero", recorded_is_zero), \
            mock.patch.object(realalg, "roots_in_extension", recorded_roots):
        assert within_seconds(2, lambda: check_conflict(C, s)) is False
    assert len(s) in recorded and extended == []


def _irrational(roots) -> list:
    return [] if roots is NULLIFIED else [r for r in roots if not r.is_rational()]


def _tower(rng: random.Random):
    """u(x1) with an irrational root alpha, v(x1, x2) with an irrational
    root beta over alpha, and 3-5 polynomials in x1..x3 of total degree
    <= 3; the sample (alpha, beta, c), c rational."""
    while True:
        u = random_poly(rng, 1, max_deg=3)
        alphas = _irrational(isolate_real_roots(u))
        if alphas:
            break
    alpha = rng.choice(alphas)
    while True:
        v = random_poly(rng, 2, max_deg=2)
        betas = _irrational(roots_in_extension(v, Sample([alpha]))) if v.level == 2 else []
        if betas:
            break
    polys = [u, v] + [random_poly(rng, 3, max_deg=3) for _ in range(rng.randint(3, 5))]
    return polys, [alpha, rng.choice(betas), Fraction(rng.randint(-6, 6), rng.randint(1, 4))]


@pytest.mark.parametrize("seed", [3, 5])
def test_cells_at_two_irrational_coordinates(seed):
    """Twelve towers under all seven heuristics: every call builds a cell
    whose trace validates and whose sample's sign vector holds at 3
    interior points, and some root count reads the psc's signs."""
    memo.clear()
    rng = random.Random(seed)
    counts = []
    psc = realalg.subresultant_coefficients

    def counted(p, v):
        counts.append(p)
        return psc(p, v)

    with mock.patch.object(realalg, "subresultant_coefficients", counted):
        for _ in range(12):
            polys, coords = _tower(rng)
            for hid in sorted(HEURISTIC_IDS):
                result = single_cell(polys, coords, config_from_id(hid))
                assert not isinstance(result, Fail), (polys, coords, hid, result)
                assert validate_trace(result.trace, set(result.trace.axioms))
                check_cell_sound(result.cell, polys, Sample(coords), 3)
    assert counts
