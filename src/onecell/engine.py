"""Levelwise construction of a single cell around a sample point on
which a given set of polynomials is sign-invariant.

Working from the highest variable down, each level first discharges all
properties provable from the sample alone, then fixes a symbolic
interval and root ordering for the level, and finally discharges the
remaining properties against that representation.  Every derivation is
logged by `PropertySet.derive`, so the result carries a
machine-checkable trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .cells import CellDescription, SymbolicInterval
from .config import HeuristicConfig
from .heuristics import Representation, choose_representation
from .polynomial import MPoly, factor, parse_poly
from .properties import SAMPLE_ONLY_TIER, Connected, DerivationTrace, Repr, SgnInv
from .realalg import Sample
from .rules import ConstructionFailed, PropertySet, RuleCtx, apply_pre
from .stats import RunStats


@dataclass
class Fail:
    """Construction gave up; `reason` names the property that could not
    be justified (typically a nullified polynomial over a sector)."""

    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass
class CellResult:
    cell: CellDescription
    trace: DerivationTrace
    stats: RunStats

    def __bool__(self) -> bool:
        return True


def _seed_inputs(polys: Sequence[MPoly], Q: PropertySet, stats: RunStats) -> None:
    for p in sorted(set(polys), key=MPoly.sort_key):
        stats.saw_poly(p)
        if p.is_constant():
            Q.add(SgnInv(p))
            continue
        parts = [f for f, _ in factor(p) if not f.is_constant()]
        if parts == [p]:
            Q.add(SgnInv(p))
            continue
        for f in parts:
            stats.saw_poly(f)
        Q.derive(SgnInv(p), tuple(SgnInv(f) for f in parts), "factors")


def _drain(Q: PropertySet, level: int, ctx: RuleCtx,
           max_tier: Optional[int] = None) -> None:
    while True:
        q = Q.greatest(level, max_tier=max_tier)
        if q is None:
            return
        apply_pre(Q, q, ctx)


def _close_base_level(Q: PropertySet, rep: Representation, s: Sample,
                      ctx: RuleCtx) -> None:
    """At the bottom level no rule-based elimination is needed: the
    interval was chosen so that all remaining root-related properties
    hold on it outright, given that it really is the described set."""
    repr1 = Repr(rep.interval, s.prefix(0))
    Q.add(repr1)
    apply_pre(Q, repr1, ctx)
    for q in sorted(Q.at_level(1), key=lambda q: q.text()):
        if isinstance(q, Connected):
            apply_pre(Q, q, ctx)
        else:
            Q.derive(q, (repr1,), "level-one-base")


def construct_interval(i: int, Q: PropertySet, s: Sample, cfg: HeuristicConfig,
                       stats: RunStats) -> SymbolicInterval:
    ctx0 = RuleCtx(s, stats)
    # everything provable from the sample alone
    _drain(Q, i, ctx0, max_tier=SAMPLE_ONLY_TIER)

    survivors = [q.p for q in Q.at_level(i) if isinstance(q, SgnInv)]
    rep = choose_representation(survivors, s.prefix(i - 1), s[i - 1], cfg, i)
    ctx = RuleCtx(s, stats, rep.interval, rep.ordering, rep.eq_set)
    if i > 1:
        _drain(Q, i, ctx)
    else:
        _close_base_level(Q, rep, s, ctx)
    return rep.interval


def single_cell(
    P: Iterable[Union[MPoly, str]],
    s: Iterable,
    cfg: Optional[HeuristicConfig] = None,
    stats: Optional[RunStats] = None,
) -> Union[CellResult, Fail]:
    """Construct a cell containing s on which every polynomial in P is
    sign-invariant, or return Fail."""
    cfg = cfg if cfg is not None else HeuristicConfig()
    stats = stats if stats is not None else RunStats()
    sample = Sample(s)
    polys = [parse_poly(p) if isinstance(p, str) else p for p in P]
    n = len(sample)
    for p in polys:
        if p.level > n:
            raise ValueError(
                f"polynomial {p} uses x{p.level} but the sample has {n} coordinates"
            )
    trace = DerivationTrace()
    Q = PropertySet(trace)
    _seed_inputs(polys, Q, stats)
    cell = run_levels(Q, sample, n, cfg, stats)
    return cell if isinstance(cell, Fail) else CellResult(cell, trace, stats)


def run_levels(
    Q: PropertySet,
    sample: Sample,
    n: int,
    cfg: HeuristicConfig,
    stats: RunStats,
) -> Union[CellDescription, Fail]:
    """Run the per-level construction over an already seeded property
    set, close out the base level and return the cell."""
    intervals: list[SymbolicInterval] = [None] * n  # type: ignore[list-item]
    try:
        for i in range(n, 0, -1):
            intervals[i - 1] = construct_interval(i, Q, sample, cfg, stats)
        # delineability and non-nullification of level-1 polynomials
        # hold over the zero-dimensional base
        _drain(Q, 0, RuleCtx(sample, stats))
    except ConstructionFailed as exc:
        return Fail(exc.reason)
    cell = CellDescription(intervals)
    stats.add_cell(sum(1 for iv in cell if not iv.is_section()))
    return cell
