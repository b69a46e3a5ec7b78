"""The rule engine's bookkeeping: the heap behind `PropertySet.greatest`
and the sole-instance pick of `apply_pre`, each against the scan and
the full ranking it replaced (`oracles.scanning_greatest`,
`oracles.ranked_apply_pre`)."""

import random

import pytest

from onecell import engine, rules
from onecell.cells import SymbolicInterval, cell_to_text
from onecell.config import HEURISTIC_IDS, config_from_id
from onecell.engine import Fail, single_cell
from onecell.explain import explain_conflict
from onecell.polynomial import parse_poly
from onecell.properties import (
    AnDel,
    AnSub,
    Connected,
    DerivationTrace,
    Holds,
    NonNull,
    OrdInv,
    SampleProp,
    SgnInv,
    is_whole,
)
from onecell.realalg import Sample, realalg_to_text
from onecell.rules import PropertySet
from onecell.solver import solve_conjunction
from onecell.stats import RunStats

from oracles import ranked_apply_pre, scanning_greatest
from test_engine import _random_instances
from test_explain import _random_conflicts
from test_solver import COVERED_X1, _random_conjunctions

SEED = 20240817  # the seed of the rng fixture the corpora are drawn with


def _result_text(result) -> str:
    if isinstance(result, Fail):
        return f"FAIL {result.reason}\n"
    return (
        cell_to_text(result.cell)
        + result.trace.to_text()
        + "\n".join(result.stats.lines())
    )


def _render_corpus() -> list[str]:
    """Cells, traces and statistics of the fuzz corpus of test_engine
    under every heuristic, of the random conflicts of test_explain, and
    the verdicts, models, learned cells and statistics of the random
    conjunctions of test_solver."""
    out = []
    hids = sorted(HEURISTIC_IDS)
    for polys, coords in _random_instances(random.Random(SEED), 150):
        for hid in hids:
            out.append(_result_text(single_cell(polys, coords, config_from_id(hid))))
    for C, prefix in _random_conflicts(random.Random(SEED)):
        for hid in hids:
            out.append(_result_text(explain_conflict(C, prefix, config_from_id(hid))))
    conjunctions = _random_conjunctions(random.Random(SEED)) + [(COVERED_X1, 2)]
    for cons, nv in conjunctions:
        stats = RunStats()
        r = solve_conjunction(cons, nv, budget=16, stats=stats)
        model = "" if r.model is None else " ".join(map(realalg_to_text, r.model))
        learned = "".join(cell_to_text(c) for c in r.learned)
        out.append(f"{r.status} {r.explanations} {model}\n{learned}"
                   + "\n".join(stats.lines()))
    return out


def test_heap_and_sole_pick_match_the_scan_and_full_ranking(monkeypatch):
    fast = _render_corpus()
    monkeypatch.setattr(PropertySet, "greatest", scanning_greatest)
    monkeypatch.setattr(rules, "apply_pre", ranked_apply_pre)
    monkeypatch.setattr(engine, "apply_pre", ranked_apply_pre)
    reference = _render_corpus()
    assert len(fast) == len(reference)
    for k, (got, want) in enumerate(zip(fast, reference)):
        assert got == want, f"output {k} differs"


def test_interval_rules_run_with_the_interval_of_their_level(monkeypatch):
    """The rules for SgnInv of a whole polynomial, Connected, AnSub and
    SampleProp read the level's interval without checking for it: over
    the three corpora each of them is reached with an interval set and at
    its own level, which the engine's `SAMPLE_ONLY_TIER` cut-off
    guarantees."""
    reached = {kind: 0 for kind in (SgnInv, Connected, AnSub, SampleProp)}

    def checked(kind, choices):
        def wrapper(q, ctx):
            if kind is not SgnInv or is_whole(q.p):
                assert ctx.interval is not None, q.text()
                assert ctx.interval.level == q.level, q.text()
                reached[kind] += 1
            return choices(q, ctx)
        return wrapper

    for kind in reached:
        monkeypatch.setitem(rules._CHOICES, kind, checked(kind, rules._CHOICES[kind]))
    _render_corpus()
    assert min(reached.values()) > 0, reached


def _pending(*props) -> PropertySet:
    Q = PropertySet(DerivationTrace())
    for q in props:
        Q.add(q)
    return Q


def _discharge(Q, q) -> None:
    """Justify the pending q by a step without antecedents."""
    Q.derive(q, (), "const-inv")


def _agree(Q, i, max_tier=None):
    got = Q.greatest(i, max_tier)
    assert got == scanning_greatest(Q, i, max_tier)
    return got


def test_greatest_skips_a_discharged_entry():
    a, b = SgnInv(parse_poly("x2-1")), SgnInv(parse_poly("x2+1"))
    Q = _pending(a, b)
    top = _agree(Q, 2)
    _discharge(Q, top)
    rest = _agree(Q, 2)
    assert rest is not None and rest != top
    _discharge(Q, rest)
    assert _agree(Q, 2) is None


def test_greatest_stops_at_max_tier():
    """A whole sgninv is tier 7: the sample-only drain (tiers up to 6)
    leaves it, and andel (tier 2) of the same level goes first."""
    sgn = SgnInv(parse_poly("x1-1"))
    Q = _pending(sgn)
    assert _agree(Q, 1, max_tier=6) is None
    assert _agree(Q, 1) == sgn
    andel = AnDel(parse_poly("x2^2-x1"))
    Q.add(andel)
    assert _agree(Q, 1, max_tier=6) == andel
    assert _agree(Q, 1) == andel


def test_greatest_breaks_a_level_and_tier_tie_by_text():
    polys = ["x2-1", "x2+1", "x2^2-x1", "x1*x2-3"]
    for order in (polys, polys[::-1]):
        Q = _pending(*(SgnInv(parse_poly(p)) for p in order))
        texts = []
        while (q := _agree(Q, 2)) is not None:
            texts.append(q.text())
            _discharge(Q, q)
        assert texts == sorted(texts) and len(texts) == 4


def test_greatest_of_a_lower_level_and_above_it():
    Q = _pending(SgnInv(parse_poly("x2-x1")), Connected(1))
    assert _agree(Q, 3) is None
    assert _agree(Q, 2) == SgnInv(parse_poly("x2-x1"))
    with pytest.raises(RuntimeError):
        Q.greatest(1)


def _state(Q):
    """What `PropertySet` shows of its state: the trace and the pending
    properties, level by level."""
    return Q.trace.to_text(), [Q.at_level(i) for i in range(4)]


def test_adding_a_known_property_is_a_no_op():
    pending, derived = SgnInv(parse_poly("x2-1")), AnDel(parse_poly("x2^2-x1"))
    Q = _pending(pending, derived)
    _discharge(Q, derived)
    axiom, trivial = Holds(SymbolicInterval(1)), Connected(0)
    Q.add(axiom)
    Q.add(trivial)
    before, heap = _state(Q), list(Q._heap)
    for q in (pending, derived, axiom, SgnInv(parse_poly("x2-1")), trivial):
        Q.add(q)
        assert _state(Q) == before and Q._heap == heap, q
    assert Q.trace.axioms == [axiom]


def test_derive_logs_once_and_adds_only_unknown_antecedents():
    x1, x2 = parse_poly("x1"), parse_poly("x2-x1")
    pending, derived, new = NonNull(x2), OrdInv(x1), SgnInv(x1)
    Q = _pending(pending, derived)
    _discharge(Q, derived)
    q = AnDel(x2)
    Q.add(q)
    entries = len(Q.trace)
    Q.derive(q, (pending, derived, new, Connected(0)), "del")
    # one entry for q, and one for the trivially true Connected(0)
    assert len(Q.trace) == entries + 2
    assert [e.conclusion for e in Q.trace.entries[-2:]] == [Connected(0), q]
    assert Q.trace.entries[-1].antecedents == (pending, derived, new, Connected(0))
    assert Q.at_level(1) == [pending, new] and Q.at_level(0) == []
    assert pending in Q and new in Q and derived not in Q and q not in Q
    assert len(Q._heap) == 4  # pending, derived, q and new, each pushed once


def test_membership_justification_and_levels_of_pending_and_derived():
    pending, derived = SgnInv(parse_poly("x1-1")), OrdInv(parse_poly("x1+1"))
    trivial, unknown = SgnInv(parse_poly("3")), NonNull(parse_poly("x2-1"))
    Q = _pending(pending, derived, trivial)
    _discharge(Q, derived)
    assert pending in Q and derived not in Q and trivial not in Q and unknown not in Q
    assert not Q.justified(pending) and not Q.justified(unknown)
    assert Q.justified(derived) and Q.justified(trivial)
    assert Q.justified(SampleProp(Sample(()))) and Q.justified(AnSub(0))
    assert Q.at_level(1) == [pending] and Q.at_level(0) == []
    _discharge(Q, pending)
    assert pending not in Q and Q.justified(pending) and Q.at_level(1) == []
