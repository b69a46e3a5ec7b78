"""Property ordering, root orderings, and trace validation."""

from fractions import Fraction
from itertools import combinations

import pytest

from onecell import memo
from onecell.cells import IndexedRoot, SymbolicInterval
from onecell.polynomial import MPoly, parse_poly
from onecell.properties import (
    AnDel,
    AnSub,
    Connected,
    DerivationTrace,
    Holds,
    IrOrd,
    NonNull,
    OrdInv,
    Repr,
    RootOrdering,
    SampleProp,
    SgnInv,
    is_whole,
    order_key,
    selection_key,
    strictly_smaller,
    validate_trace,
)
from onecell.realalg import Sample

from oracles import ordering_matches


CIRCLE = parse_poly("x2^2+x1^2-1")
LINE = parse_poly("2*x2-x1+1")
S1 = Sample([Fraction(1, 8)])


def _one_of_each_kind():
    """A property of every kind, each built from new field objects (new
    polynomials too, after `memo.clear`)."""
    circle, line = parse_poly("x2^2+x1^2-1"), parse_poly("x2-x1")
    s = Sample([Fraction(1, 8)])
    iv = SymbolicInterval.section(IndexedRoot(line, 1))
    ordering = RootOrdering([(IndexedRoot(circle, 1), IndexedRoot(line, 1))])
    return [SampleProp(s), OrdInv(circle), SgnInv(circle), NonNull(circle),
            AnDel(circle), AnSub(1), Connected(1), Repr(iv, s), IrOrd(ordering, s),
            Holds(iv)]


def test_kinds_on_the_same_fields_never_compare_equal():
    for kinds, field in (((SgnInv, OrdInv, NonNull, AnDel), CIRCLE), ((AnSub, Connected), 1)):
        values = [kind(field) for kind in kinds]
        for a, b in combinations(values, 2):
            assert a != b and not a == b, (a, b)
        assert len({q: None for q in values}) == len(values)
    assert len(set(_one_of_each_kind())) == 10


def test_equal_fields_give_equal_values_with_equal_hashes():
    first = _one_of_each_kind()
    memo.clear()
    second = _one_of_each_kind()
    for a, b in zip(first, second):
        assert a is not b and a == b and not a != b and hash(a) == hash(b), a
    table = {q: k for k, q in enumerate(first)}
    assert [table[q] for q in second] == list(range(len(first)))
    # the fields read back as they were given
    sample, repr_, irord = first[0], first[7], first[8]
    assert SgnInv(CIRCLE).p is CIRCLE and AnSub(3).i == 3
    assert repr_.I is first[9].I and repr_.s is sample.s is irord.s
    assert irord.ord == second[8].ord


def test_polynomial_equality_under_the_properties():
    """Property equality compares polynomials: equal ones built apart
    (one object while `memo.POLYS` keeps it, two after `memo.clear`),
    constants against int and Fraction, and other types left to the
    other operand."""
    a, b = parse_poly("x1^2-1/2"), parse_poly("x1^2-1/2")
    assert a is b
    memo.clear()
    b = parse_poly("x1^2-1/2")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != parse_poly("x1^2+1/2") and a != parse_poly("x2^2-1/2")
    three, half = MPoly.constant(3), MPoly.constant(Fraction(1, 2))
    assert three == 3 and 3 == three and three == Fraction(3) and three != 4
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and half != 0
    assert MPoly({}) == 0 and MPoly.var(1) != 1
    for other in ("x1^2-1/2", 1.0, None, (a,), S1):
        assert a.__eq__(other) is NotImplemented and a != other, other
    assert three.__eq__(3.0) is NotImplemented


def test_level_dominates_tier():
    low = AnDel(parse_poly("x1^2-1"))  # level 0 statement about a level-1 poly
    high = SgnInv(CIRCLE)
    assert order_key(high) > order_key(low)
    assert strictly_smaller(low, high)
    assert not strictly_smaller(high, low)


def test_tier_order_within_level():
    ordering = RootOrdering([])
    p1 = parse_poly("x1^2-2")
    split = p1.scale(Fraction(2))  # not normalized: decomposition applies
    iv = SymbolicInterval(1)
    # every (kind, wholeness) case at level 1, greatest first
    props = [
        IrOrd(ordering, S1),
        AnDel(CIRCLE),  # statement about the level below the poly
        NonNull(CIRCLE),
        OrdInv(split),
        OrdInv(p1),
        SgnInv(split),
        SgnInv(p1),
        Connected(1),
        AnSub(1),
        SampleProp(S1),
        Repr(iv, Sample(())),
        Holds(iv),
    ]
    assert {q.level for q in props} == {1}
    assert [q.tier for q in props] == list(range(1, 13))
    for smaller, larger in zip(props[1:], props):
        assert strictly_smaller(smaller, larger)
        assert not strictly_smaller(larger, smaller)


def test_same_tier_incomparable():
    a = SgnInv(CIRCLE)
    b = SgnInv(parse_poly("x2^2-x1"))
    assert order_key(a) == order_key(b)
    assert not strictly_smaller(a, b) and not strictly_smaller(b, a)
    assert not strictly_smaller(a, a)


def test_whole_vs_decomposable_invariance():
    whole = parse_poly("x1^2-2")
    scaled = whole.scale(Fraction(2))
    square = whole * whole
    assert is_whole(whole)
    assert not is_whole(scaled)
    assert not is_whole(square)
    assert SgnInv(whole).tier > SgnInv(scaled).tier
    assert SgnInv(whole).tier > SgnInv(square).tier


def test_selection_key_prefers_higher_level_then_tier():
    q_top = AnDel(CIRCLE)  # level 1
    q_mid = SgnInv(parse_poly("x1^2-1"))  # level 1
    q_deep = SgnInv(CIRCLE)  # level 2
    picked = min([q_top, q_mid, q_deep], key=selection_key)
    assert picked == q_deep
    picked = min([q_top, q_mid], key=selection_key)
    assert picked == q_top


def test_root_ordering_closure_and_le():
    r1 = IndexedRoot(CIRCLE, 1)
    r2 = IndexedRoot(CIRCLE, 2)
    r3 = IndexedRoot(LINE, 1)
    o = RootOrdering([(r1, r2), (r2, r3)])
    assert (r1, r3) in o.closure()
    assert o.le(r1, r3)
    assert o.le(r1, r1)
    assert not o.le(r3, r1)


def test_root_ordering_rejects_cycles():
    r1 = IndexedRoot(CIRCLE, 1)
    r2 = IndexedRoot(CIRCLE, 2)
    with pytest.raises(ValueError):
        RootOrdering([(r1, r2), (r2, r1)])
    r3 = IndexedRoot(parse_poly("x1^2+x2-1"), 1)
    RootOrdering([(r1, r2), (r2, r3), (r1, r3)])
    with pytest.raises(ValueError):
        RootOrdering([(r1, r2), (r2, r3), (r3, r1)])


def test_root_ordering_matches_sample_values():
    r1 = IndexedRoot(CIRCLE, 1)
    r2 = IndexedRoot(CIRCLE, 2)
    good = RootOrdering([(r1, r2)])
    bad = RootOrdering([(r2, r1)])
    assert ordering_matches(good, S1)
    assert not ordering_matches(bad, S1)


def test_validate_trace_accepts_well_founded():
    trace = DerivationTrace()
    trace.derive(Connected(0), (), "triv-base")
    trace.derive(
        SgnInv(parse_poly("x1-1")),
        (SampleProp(S1), AnDel(parse_poly("x1-1"))),
        "nozero",
    )
    axioms = {SampleProp(S1), AnDel(parse_poly("x1-1"))}
    assert validate_trace(trace, axioms)


def test_validate_trace_rejects_unknown_rule():
    trace = DerivationTrace()
    trace.derive(Connected(0), (), "made-up-rule")
    assert not validate_trace(trace, set())


def test_validate_trace_rejects_missing_antecedent():
    trace = DerivationTrace()
    trace.derive(
        SgnInv(parse_poly("x1-1")),
        (SampleProp(S1), AnDel(parse_poly("x1-1"))),
        "nozero",
    )
    assert not validate_trace(trace, {SampleProp(S1)})


def test_validate_trace_rejects_circularity():
    # an antecedent at the same level and tier is not strictly smaller
    trace = DerivationTrace()
    a = SgnInv(parse_poly("x1-1"))
    b = SgnInv(parse_poly("x1-2"))
    trace.derive(a, (b,), "factors")
    trace.derive(b, (a,), "factors")
    assert not validate_trace(trace, set())


def _factors_trace(*steps):
    """A trace of `factors` steps, each (conclusion, antecedents) as
    SgnInv texts; antecedents no step concludes are derived from true
    by `const-inv` (the validator does not check that rule's side
    condition), so each step is judged by its own side condition."""
    trace = DerivationTrace()
    concluded = {c for c, _ in steps}
    for _, ants in steps:
        for a in ants:
            if a not in concluded:
                trace.derive(SgnInv(parse_poly(a)), (), "const-inv")
    for c, ants in steps:
        trace.derive(SgnInv(parse_poly(c)), tuple(SgnInv(parse_poly(a)) for a in ants),
                     "factors")
    return trace


@pytest.mark.parametrize("steps", [
    [("x1^2-1", ("x1-1", "x1+1"))],  # finest factors of smaller degree
    [("-3*x1", ("x1",))],  # normalization: the same degree
    [("(x1-1)^2*x2", ("x1-1", "x2"))],
    [("2*x1^2-2", ("x1^2-1",)), ("x1^2-1", ("x1-1", "x1+1"))],
], ids=["finest", "normalize", "squarefree", "chain"])
def test_validate_trace_accepts_factors_steps(steps):
    assert validate_trace(_factors_trace(*steps), set())


@pytest.mark.parametrize("steps", [
    [("x1^2-1", ("x1^2-1",))],  # its own conclusion
    [("-3*x1", ("-3*x1",))],
    [("x1^2-1", ("x1-2",))],  # not a divisor
    [("x1+2", ("x1+1",))],  # the same degree, and not a divisor
    [("x1", ("-x1",)), ("-x1", ("x1",))],  # a two-step cycle
    [("x1", ("-2*x1",))],  # the same degree, and not normalize(x1)
], ids=["self", "self-unnormalized", "non-divisor", "same-degree", "cycle",
        "denormalize"])
def test_validate_trace_rejects_factors_steps(steps):
    assert not validate_trace(_factors_trace(*steps), set())


def test_validate_trace_rejects_factors_step_of_another_kind():
    trace = DerivationTrace()
    trace.derive(SgnInv(parse_poly("x1-1")), (), "const-inv")
    trace.derive(OrdInv(parse_poly("x1^2-1")), (SgnInv(parse_poly("x1-1")),), "factors")
    assert not validate_trace(trace, set())
    trace = DerivationTrace()
    trace.derive(OrdInv(parse_poly("x1-1")), (), "const-inv")
    trace.derive(OrdInv(parse_poly("x1^2-1")), (OrdInv(parse_poly("x1-1")),), "factors")
    assert validate_trace(trace, set())


def test_validate_trace_rejects_wrong_shape():
    trace = DerivationTrace()
    iv = SymbolicInterval(1)
    trace.derive(
        SgnInv(parse_poly("x1-1")),
        (Repr(iv, Sample(())), AnSub(0)),
        "nozero",
    )
    assert not validate_trace(trace, {Repr(iv, Sample(())), AnSub(0)})
