"""Root-ordering heuristics: structural validity and the containment
relations between them."""

import random
from fractions import Fraction

import pytest

from onecell import heuristics
from onecell.cells import cached_roots
from onecell.config import HEURISTIC_IDS, HeuristicConfig, config_from_id
from onecell.heuristics import choose_representation, roots_with_values
from onecell.polynomial import parse_poly
from onecell.properties import RootOrdering
from onecell.realalg import NULLIFIED, RealAlg, Sample, isolate_real_roots

import oracles
from conftest import random_poly, random_sample
from oracles import ordering_matches, representation_is_valid


def _instance(rng):
    """Non-nullified level-2 polynomials over a rational prefix, with a
    value for x2 that has at least one root around it."""
    while True:
        prefix = Sample(random_sample(rng, 1))
        polys = []
        for _ in range(rng.randint(1, 3)):
            p = random_poly(rng, 2)
            if p.level == 2 and cached_roots(p, prefix) is not NULLIFIED:
                polys.append(p)
        if not polys:
            continue
        s_val = RealAlg.rational(Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
        return polys, prefix, s_val


def _on_root(polys, prefix, rng):
    """A sample value equal to some root, to exercise sections."""
    for p in polys:
        roots = cached_roots(p, prefix)
        if roots is not NULLIFIED and roots:
            return roots[rng.randrange(len(roots))]
    return None


def test_all_heuristics_produce_valid_representations(rng):
    for _ in range(60):
        polys, prefix, s_val = _instance(rng)
        for hid in sorted(HEURISTIC_IDS):
            cfg = config_from_id(hid)
            rep = choose_representation(polys, prefix, s_val, cfg, 2)
            assert representation_is_valid(rep, polys, prefix, s_val), (
                hid,
                polys,
                prefix,
                s_val,
            )


def test_all_heuristics_valid_on_sections(rng):
    for _ in range(40):
        polys, prefix, _ = _instance(rng)
        s_val = _on_root(polys, prefix, rng)
        if s_val is None:
            continue
        for hid in sorted(HEURISTIC_IDS):
            cfg = config_from_id(hid)
            rep = choose_representation(polys, prefix, s_val, cfg, 2)
            assert rep.interval.is_section()
            assert representation_is_valid(rep, polys, prefix, s_val), hid


def test_chain_pairs_within_full_closure(rng):
    """The chain ordering never relates roots that the complete ordering
    leaves unrelated."""
    for _ in range(60):
        polys, prefix, s_val = _instance(rng)
        ch = choose_representation(
            polys, prefix, s_val, HeuristicConfig("CH", "CH"), 2
        )
        full = choose_representation(
            polys, prefix, s_val, HeuristicConfig("FULL", "FULL"), 2
        )
        closure = full.ordering.closure() | full.ordering.pairs
        for pair in ch.ordering.pairs:
            assert pair in closure


def test_full_orders_at_least_as_much_as_chain(rng):
    for _ in range(30):
        polys, prefix, s_val = _instance(rng)
        ch = choose_representation(
            polys, prefix, s_val, HeuristicConfig("CH", "CH"), 2
        )
        full = choose_representation(
            polys, prefix, s_val, HeuristicConfig("FULL", "FULL"), 2
        )
        assert len(full.ordering.pairs) >= len(ch.ordering.pairs)
        assert full.ordering.closure() >= ch.ordering.closure()


def test_eq_section_puts_all_polys_in_eq_set():
    circle = parse_poly("x2^2+x1^2-1")
    line = parse_poly("2*x2-x1+1")
    prefix = Sample([Fraction(1, 8)])
    s_val = cached_roots(circle, prefix)[0]
    rep = choose_representation(
        [circle, line], prefix, s_val, HeuristicConfig("EQ", "BC"), 2
    )
    assert rep.interval.is_section()
    assert rep.eq_set == frozenset({circle, line})
    assert rep.ordering.pairs == frozenset()


def test_sector_bound_is_lowest_degree_closest_root():
    cubic = parse_poly("x2^3-3*x2-1")  # roots near -1.53, -0.35, 1.88
    line = parse_poly("x2-2")  # also above the sample value
    prefix = Sample([Fraction(0)])
    s_val = RealAlg.rational(Fraction(0))
    rep = choose_representation(
        [cubic, line], prefix, s_val, HeuristicConfig("EQ", "BC"), 2
    )
    assert not rep.interval.is_section()
    # closest below: cubic root 2; closest above: cubic root 3
    assert rep.interval.lower.poly == cubic and rep.interval.lower.index == 2
    assert rep.interval.upper.poly == cubic and rep.interval.upper.index == 3


def test_connectedness_pair_injected_unless_relaxed():
    # bounds come from different polynomials, so the (lower, upper)
    # pair can only appear through injection
    cubic = parse_poly("x2^3-3*x2-1")  # roots near -1.53, -0.35, 1.88
    line = parse_poly("x2-1")
    prefix = Sample([Fraction(0)])
    s_val = RealAlg.rational(Fraction(0))
    cfg = HeuristicConfig("EQ", "BC")
    rep = choose_representation([cubic, line], prefix, s_val, cfg, 2)
    assert rep.interval.lower.poly != rep.interval.upper.poly
    assert (rep.interval.lower, rep.interval.upper) in rep.ordering.pairs


def test_ldb_representation_valid_on_spread_roots():
    polys = [
        parse_poly("x2^3-6*x2^2+11*x2-6"),  # roots 1, 2, 3
        parse_poly("x2^2-9*x2+20"),  # roots 4, 5
        parse_poly("x2+1"),  # root -1
    ]
    prefix = Sample([Fraction(0)])
    s_val = RealAlg.rational(Fraction(5, 2))
    rep = choose_representation(
        polys, prefix, s_val, HeuristicConfig("LDB", "LDB"), 2
    )
    assert representation_is_valid(rep, polys, prefix, s_val)


def test_orderings_match_sample(rng):
    for _ in range(30):
        polys, prefix, s_val = _instance(rng)
        for hid in sorted(HEURISTIC_IDS):
            rep = choose_representation(
                polys, prefix, s_val, config_from_id(hid), 2
            )
            assert ordering_matches(rep.ordering, prefix)


# ---------------------------------------------------------------------------
# differential: integer ranks against the pairwise comparisons they replace


def _same_as_pairwise(polys, prefix, s_val):
    """Every heuristic chooses the representation the pairwise reference
    chooses; and the barrier of every root agrees, with the interval's
    own bounds as the reference's bound roots."""
    for hid in sorted(HEURISTIC_IDS):
        cfg = config_from_id(hid)
        got, want = (
            choose(polys, prefix, s_val, cfg, 2)
            for choose in (choose_representation, oracles.choose_representation)
        )
        assert (got.interval, got.eq_set, got.ordering.pairs) == (
            want.interval,
            want.eq_set,
            want.ordering.pairs,
        ), (hid, polys, prefix, s_val)
    xi = roots_with_values(polys, prefix)
    ctx, ref = heuristics._Ctx(xi, s_val, 2), oracles._Ctx(xi, s_val, 2)
    roots = [r for r, _ in xi]
    bounds = set(ctx.interval().bound_roots())
    for r in roots:
        assert ctx.barrier(r, roots) == ref.barrier(r, roots, bounds)


def _tie_instances():
    """Roots of different polynomials that tie: through a shared factor
    over a rational prefix, through specialization at x1 = 2, and over
    the irrational prefix x1 = sqrt(2)."""
    shared = [
        parse_poly("(x2^2-2)*(x2-x1)"),
        parse_poly("(x2^2-2)*(x2+1)"),
        parse_poly("(x2-x1)*(x2^2-x1-1)"),
        parse_poly("x2^2-x1"),
        parse_poly("x2-1"),
    ]
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    over_sqrt2 = [
        parse_poly("x2^2-x1^2"),
        parse_poly("x2-x1"),
        parse_poly("x2^2-2"),
        parse_poly("x1*x2-2"),
        parse_poly("x2^3-2*x1*x2"),
        parse_poly("x2+x1"),
    ]
    for prefix, polys in (
        (Sample([Fraction(2)]), shared),
        (Sample([sqrt2]), over_sqrt2),
    ):
        values = {v for p in polys for v in cached_roots(p, prefix)}
        values |= {RealAlg.rational(Fraction(k, 2)) for k in range(-5, 6)}
        for s_val in sorted(values):
            yield polys, prefix, s_val
            yield polys[1:], prefix, s_val
            yield polys[::2], prefix, s_val


def test_ranks_choose_as_pairwise_on_random_draws(rng):
    for _ in range(40):
        polys, prefix, s_val = _instance(rng)
        _same_as_pairwise(polys, prefix, s_val)
        on_root = _on_root(polys, prefix, rng)
        if on_root is not None:
            _same_as_pairwise(polys, prefix, on_root)


def test_ranks_choose_as_pairwise_on_ties():
    count = 0
    for polys, prefix, s_val in _tie_instances():
        _same_as_pairwise(polys, prefix, s_val)
        count += 1
    assert count > 60
