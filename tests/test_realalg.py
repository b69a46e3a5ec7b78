"""Real algebraic numbers and root isolation, cross-checked with Sturm
sequences."""

import operator
import random
from fractions import Fraction

import pytest

from onecell.polynomial import MPoly, parse_poly
from onecell.realalg import (
    NULLIFIED,
    RealAlg,
    Sample,
    isolate_real_roots,
    line_samples,
    rational_from_text,
    realalg_to_text,
    roots_in_extension,
    separate,
    sign_at,
    value_ranks,
)

from conftest import random_poly, within_seconds
from oracles import (
    realalg_from_text,
    root_between,
    sorted_distinct,
    sturm_count_all_real_roots,
    sturm_count_interval,
)


def _upoly(rng, max_deg=5):
    while True:
        c = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, max_deg + 1))]
        while c and c[-1] == 0:
            c.pop()
        if len(c) >= 2:
            return c


def _to_mpoly(c):
    p = MPoly({})
    for i, x in enumerate(c):
        p = p + MPoly({(i,): x}) if x else p
    return p


def test_isolation_count_matches_sturm(rng):
    """Dual route for root counting; multiplicities collapse on both
    sides."""
    for _ in range(120):
        c = _upoly(rng)
        p = _to_mpoly(c)
        roots = isolate_real_roots(p)
        assert len(roots) == sturm_count_all_real_roots(c)


def test_isolated_roots_are_sorted_and_distinct(rng):
    for _ in range(40):
        p = _to_mpoly(_upoly(rng))
        roots = isolate_real_roots(p)
        for a, b in zip(roots, roots[1:]):
            assert a.compare(b) < 0


def test_isolated_roots_sit_in_sturm_windows(rng):
    """Each enclosure, once refined, contains exactly one root by the
    Sturm interval count."""
    for _ in range(30):
        c = _upoly(rng)
        p = _to_mpoly(c)
        for r in isolate_real_roots(p):
            for _ in range(4):
                r.refine()
            lo, hi = r.enclosure()
            if lo == hi:
                continue  # rational root pinned exactly
            pad = (hi - lo) / 1000
            assert sturm_count_interval(c, lo - pad, hi) == 1


def test_rational_arithmetic_and_compare():
    a = RealAlg.rational(Fraction(1, 3))
    b = RealAlg.rational(Fraction(2, 3))
    assert a.compare(b) < 0
    assert b.compare(a) > 0
    assert a.compare(RealAlg.rational(Fraction(1, 3))) == 0
    assert a < b <= b


def test_algebraic_compare_sqrt2():
    p = parse_poly("x1^2-2")
    lo, hi = isolate_real_roots(p)
    assert lo.compare(RealAlg.rational(Fraction(-3, 2))) > 0
    assert hi.compare(RealAlg.rational(Fraction(3, 2))) < 0
    assert lo.compare(hi) < 0
    assert hi.compare(hi) == 0


def test_value_ranks():
    """Equal values share a rank across polynomials, a rational between
    two irrationals gets its own, and the ranks are contiguous from 0."""
    m2, p2 = isolate_real_roots(parse_poly("x1^2-2"))  # -sqrt2, sqrt2
    m2b, p2b = isolate_real_roots(parse_poly("x1^4-4"))  # the same two
    half, one = RealAlg.rational(Fraction(1, 2)), RealAlg.rational(1)
    values = [p2, half, m2b, one, p2b, m2, RealAlg.rational(Fraction(2, 2))]
    assert value_ranks(values) == [3, 1, 0, 2, 3, 0, 2]
    assert value_ranks([]) == []
    assert value_ranks([half]) == [0]
    rng = random.Random(5)
    for _ in range(20):
        pool = isolate_real_roots(_to_mpoly(_upoly(rng))) + [
            RealAlg.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            for _ in range(3)
        ]
        ranks = value_ranks(pool)
        assert sorted(set(ranks)) == list(range(len(sorted_distinct(pool))))
        for a, ka in zip(pool, ranks):
            for b, kb in zip(pool, ranks):
                assert (ka > kb) - (ka < kb) == a.compare(b)


def test_sign_at_rational_and_algebraic():
    circle = parse_poly("x1^2+x2^2-1")
    assert sign_at(circle, Sample([Fraction(0), Fraction(0)])) == -1
    assert sign_at(circle, Sample([Fraction(1), Fraction(0)])) == 0
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    assert sign_at(parse_poly("x1^2-2"), Sample([sqrt2])) == 0
    assert sign_at(parse_poly("x1-1"), Sample([sqrt2])) == 1


def test_roots_in_extension_nullified():
    p = parse_poly("x1*x2+0*x2")  # x1 * x2; zero at x1 = 0 identically
    assert roots_in_extension(p, Sample([Fraction(0)])) is NULLIFIED
    roots = roots_in_extension(p, Sample([Fraction(2)]))
    assert roots is not NULLIFIED and len(roots) == 1
    assert roots[0].compare(RealAlg.rational(0)) == 0


def test_roots_in_extension_over_algebraic_prefix():
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    p = parse_poly("x2^2-x1^2")  # roots +/- sqrt(2) over x1 = sqrt(2)
    roots = roots_in_extension(p, Sample([sqrt2]))
    assert len(roots) == 2
    assert roots[0].compare(RealAlg.rational(0)) < 0 < roots[1].compare(
        RealAlg.rational(0)
    )
    assert roots[1].compare(sqrt2) == 0


def test_rationals_must_be_int_or_fraction():
    # 0.1 as a float is 3602879701896397/2**55, not 1/10
    assert RealAlg.rational(3).rational_value() == 3
    for bad in (0.1, "1/2", 1.0):
        with pytest.raises(TypeError):
            RealAlg.rational(bad)
        with pytest.raises(TypeError):
            Sample([Fraction(1), bad])


def test_sample_prefix_extend():
    s = Sample([Fraction(1), Fraction(2)])
    assert len(s.prefix(1)) == 1
    assert len(s.extend(Fraction(3))) == 3
    assert s.prefix(0) == Sample(())


def test_sample_prefix_is_the_sample_of_the_first_coordinates():
    sqrt2 = isolate_real_roots(parse_poly("x1^2-2"))[1]
    s = Sample([sqrt2, Fraction(-1, 3), 2])
    for i in range(len(s) + 1):
        p, want = s.prefix(i), Sample(list(s)[:i])
        assert type(p) is Sample and p == want and hash(p) == hash(want)
        assert all(isinstance(c, RealAlg) for c in p)


def test_realalg_text_roundtrip():
    vals = [RealAlg.rational(Fraction(-7, 3))]
    vals.extend(isolate_real_roots(parse_poly("x1^3-x1-1")))
    for v in vals:
        back = realalg_from_text(realalg_to_text(v))
        assert back.compare(v) == 0


def test_rational_from_text_reads_numerals_only():
    """An optional sign, then digits with an optional /digits, or a
    decimal; anything else is refused before any big-integer work."""
    for text, value in (("-3", -3), ("+1/2", Fraction(1, 2)), ("-.5", Fraction(-1, 2)),
                        ("3.", 3), ("0.125", Fraction(1, 8)), ("007/014", Fraction(1, 2))):
        assert rational_from_text(text) == value, text
    for text in ("1e3", "1_0", "1/0", "-1/00", "1/-2", "1.5/2", "--1", ".", "", " 1",
                 "\u0661", "inf", "0x10"):
        with pytest.raises(ValueError):
            rational_from_text(text)
    within_seconds(2, lambda: pytest.raises(ValueError, rational_from_text, "1e20000000"))


def test_repr_refines_nothing():
    """repr shows the text and the enclosure as it stands; printing a
    cached root must not narrow the shared value."""
    r = isolate_real_roots(parse_poly("x1^2-2"))[1]
    lo, hi = r.enclosure()
    assert repr(r) == f"RealAlg((root x1^2-2 2) in ({lo}, {hi}))"
    assert r.enclosure() == (lo, hi)
    assert repr(RealAlg.rational(Fraction(-7, 3))) == "RealAlg(-7/3)"


def test_text_and_hash_survive_refinement_and_copies():
    """Text and hash are kept on the value and depend only on the
    definition and the canonical index; hash(a) == hash(a.key()) is what
    keeps set order, and so traces, stable."""
    vals = [RealAlg.rational(Fraction(-7, 3)), RealAlg.rational(2)]
    vals += isolate_real_roots(parse_poly("x1^3-x1-1"))
    vals += isolate_real_roots(parse_poly("3*x1^2-5"))
    for a in vals:
        early = a.canonical_copy()  # copied before anything is kept
        text, h = realalg_to_text(a), hash(a)
        assert h == hash(a.key())
        for _ in range(32):
            a.refine()
        for _ in range(20):
            early.refine()
        for b in (a, a.canonical_copy(), early, early.canonical_copy()):
            assert realalg_to_text(b) == text
            assert hash(b) == h == hash(b.key())


def test_refine_narrows():
    r = isolate_real_roots(parse_poly("x1^2-3"))[1]
    lo0, hi0 = r.enclosure()
    r.refine()
    lo1, hi1 = r.enclosure()
    assert hi1 - lo1 < hi0 - lo0


def test_equal_roots_of_proportional_definitions_compare_equal():
    # sqrt(2) as a root of x^2-2, of 2x^2-4 and of -x^2+2
    two = [Fraction(-2), Fraction(0), Fraction(1)]
    a = root_between(two, Fraction(1), Fraction(2))
    for scale in (2, -1, Fraction(1, 3)):
        b = root_between([scale * c for c in two], Fraction(1), Fraction(3, 2))
        assert within_seconds(5, lambda: a.compare(b)) == 0
        assert a.key() == b.key()
        assert hash(a) == hash(b)


def test_separate_refuses_values_out_of_order():
    """separate(lo, hi) needs lo < hi; equal irrational values used to
    refine forever.  The gap it gives lies strictly between them."""
    lo, hi = isolate_real_roots(parse_poly("x1^2-2"))
    hi_again = isolate_real_roots(parse_poly("2*x1^2-4"))[1]
    one = RealAlg.rational(1)

    def check():
        for a, b in [(hi, lo), (hi, hi_again), (one, RealAlg.rational(1)),
                     (one, lo), (hi, one)]:
            with pytest.raises(ValueError):
                separate(a, b)
        a, b = separate(lo, hi)
        assert lo < RealAlg.rational(a) < RealAlg.rational(b) < hi

    within_seconds(5, check)


def test_separate_and_line_samples_read_canonical_copies():
    """Neither moves its arguments' enclosures, and both answer the same
    before and after the arguments were refined 20 times: open ends and
    rationals included, the gaps and the sweep's points and cuts depend
    only on the values."""
    values = sorted_distinct(
        isolate_real_roots(parse_poly("x1^3-3*x1+1"))
        + isolate_real_roots(parse_poly("x1^2-3"))
        + [RealAlg.rational(Fraction(1, 3))]
    )

    def answers():
        before = [v.enclosure() for v in values]
        ends = [None, *values, None]
        gaps = [separate(lo, hi) for lo, hi in zip(ends, ends[1:])]
        points = [t.enclosure() for t in line_samples(values)[0]]
        assert [v.enclosure() for v in values] == before
        return gaps, points

    first = within_seconds(5, answers)
    for v in values:
        for _ in range(20):
            v.refine()
    assert within_seconds(5, answers) == first


def test_line_samples_gives_each_region_its_position():
    """Cut k at 2k + 1 and the sector below it at 2k, for every point and
    every value, duplicates included: 0 a sector's point, a cut, below
    or above every cut, or inside a cut's isolating box."""
    r = RealAlg.rational
    cases = [
        [],
        [r(0)],
        [r(5)],
        [r(-5), r(-1)],
        [r(1), r(-1), r(1)],
        isolate_real_roots(parse_poly("x1^2-2")),
        isolate_real_roots(parse_poly("1000*x1^2-1")) + [r(0)],
        isolate_real_roots(parse_poly("1000*x1^2-1")) + isolate_real_roots(parse_poly("x1^3-3*x1+1")),
        isolate_real_roots(parse_poly("x1^3-3*x1+1")) + [r(Fraction(1, 3)), r(-3)],
    ]
    for values in cases:
        points, at, pos = line_samples(values)
        cuts = sorted_distinct(values)

        def position(t):
            return 2 * sum(c < t for c in cuts) + sum(c == t for c in cuts)

        assert at == [position(t) for t in points], values
        assert pos == [position(v) for v in values], values
        assert len(points) == (2 * len(cuts) + 2 if cuts else 1)


def test_order_against_another_type_raises_type_error():
    """`<` and `<=` hand an operand that is no `RealAlg` back to Python,
    as `==` does, which raises TypeError for the order."""
    one = RealAlg.rational(1)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((one, 2), (2, one), (one, Fraction(1, 2))):
            with pytest.raises(TypeError):
                op(a, b)
    assert one != 1
