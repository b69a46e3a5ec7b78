"""Choice of the per-level representation: the symbolic interval, the
set of polynomials earmarked for the equational projection, and the
indexed root ordering.

The interval always takes the closest roots around the sample value,
breaking ties toward lower main-variable degree.  For the ordering
several strategies are available:

- EQ: sections only; every polynomial goes through the equational
  projection, no ordering at all.
- BC: order every root against the closest interval bound, which is the
  weakest ordering and hence aims at the biggest cell.
- CH: chain all reduced roots in value order.
- LDB: order each root against the lowest-degree root between it and
  the sample ("barrier"), minimizing the degrees entering resultants.
- FULL: relate all pairs of reduced roots, mimicking a full projection.

The interval and every strategy read the value order of the level's
roots and the sample value as integer ranks, from one sort per level
(`realalg.value_ranks`); no decision compares exact values itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import IndexedRoot, SymbolicInterval, cached_roots
from .config import HeuristicConfig
from .polynomial import MPoly
from .properties import RootOrdering
from .realalg import NULLIFIED, RealAlg, Sample, value_ranks


@dataclass(frozen=True)
class Representation:
    interval: SymbolicInterval
    eq_set: frozenset  # polynomials handled by the equational projection
    ordering: RootOrdering


def roots_with_values(
    polys, s_prefix: Sample
) -> list[tuple[IndexedRoot, RealAlg]]:
    """All indexed roots of the given polynomials over the prefix with
    their values, in canonical polynomial order.  A polynomial nullified
    over the prefix has no indexed roots and is skipped."""
    out = []
    for p in sorted(set(polys), key=MPoly.sort_key):
        roots = cached_roots(p, s_prefix)
        if roots is NULLIFIED:
            continue
        for k, r in enumerate(roots):
            out.append((IndexedRoot(p, k + 1), r))
    return out


def _main_degree(xi: IndexedRoot) -> int:
    return xi.poly.degree(xi.poly.level)


class _Ctx:
    """The roots of one level in canonical order, each with its rank in
    the value order of the roots and the sample value
    (`realalg.value_ranks`) and its canonical position.  Every decision
    compares these ints."""

    def __init__(self, xi, s_val: RealAlg, level: int):
        self.roots = [r for r, _ in xi]
        *ranks, self.s_rank = value_ranks([v for _, v in xi] + [s_val])
        self.rank = dict(zip(self.roots, ranks))
        self.pos = {r: i for i, r in enumerate(self.roots)}
        self.level = level

    def side(self, r: IndexedRoot) -> int:
        """-1, 0 or 1 as r lies below, at or above the sample value."""
        k = self.rank[r]
        return (k > self.s_rank) - (k < self.s_rank)

    def interval(self) -> SymbolicInterval:
        lo = min(
            (r for r in self.roots if self.side(r) <= 0),
            key=lambda r: (-self.rank[r], _main_degree(r), self.pos[r]),
            default=None,
        )
        up = min(
            (r for r in self.roots if self.side(r) >= 0),
            key=lambda r: (self.rank[r], _main_degree(r), self.pos[r]),
            default=None,
        )
        if lo is not None and self.side(lo) == 0:
            return SymbolicInterval.section(lo)
        return SymbolicInterval(self.level, lo, up)

    def reduced(self, interval: SymbolicInterval) -> list[IndexedRoot]:
        """Per polynomial only the closest lower and upper roots, in
        value order; equal values put the interval bounds adjacent to
        the sample (upper bound first in its group, lower bound last)."""
        lower: dict[MPoly, IndexedRoot] = {}
        upper: dict[MPoly, IndexedRoot] = {}
        for r in self.roots:  # a polynomial's roots in increasing order
            if self.side(r) <= 0:
                lower[r.poly] = r
            if self.side(r) >= 0:
                upper.setdefault(r.poly, r)
        lo, up = interval.lower, interval.upper
        return sorted(
            {*lower.values(), *upper.values()},
            key=lambda r: (
                self.rank[r],
                1 if r == lo else (-1 if r == up else 0),
                self.pos[r],
            ),
        )

    def barrier(self, r: IndexedRoot, subset: list[IndexedRoot]) -> IndexedRoot:
        """The lowest-degree root between r and the sample value, ties
        broken toward the sample, then by canonical order, which puts an
        interval bound first among its ties (see `interval`).  r itself
        is a candidate."""
        a, b = sorted((self.rank[r], self.s_rank))
        toward = -1 if self.side(r) <= 0 else 1
        return min(
            (x for x in subset if a <= self.rank[x] <= b),
            key=lambda x: (
                _main_degree(x),
                toward * self.rank[x],
                self.pos[x],
            ),
        )


def _pairs_bc(ctx: _Ctx, red, interval) -> list:
    lo, up = interval.lower, interval.upper
    pairs = []
    for r in red:
        if r == lo or r == up:
            continue
        if lo is not None and ctx.rank[r] <= ctx.rank[lo]:
            pairs.append((r, lo))
        elif up is not None and ctx.rank[up] <= ctx.rank[r]:
            pairs.append((up, r))
    return pairs


def _pairs_chain(red) -> list:
    return [(red[j], red[j + 1]) for j in range(len(red) - 1)]


def _pairs_full(red) -> list:
    return [
        (red[j], red[j2])
        for j in range(len(red))
        for j2 in range(j + 1, len(red))
    ]


def _pairs_ldb(ctx: _Ctx, subset, interval) -> list:
    """Pair each root with its barrier, in value order; roots that are
    their own barrier attach to the interval bound on their side."""
    pairs = []
    for r in subset:
        side = ctx.side(r)
        bound = interval.lower if side < 0 else interval.upper
        if side and r != bound:
            b = ctx.barrier(r, subset)
            if b == r:
                b = bound
            if b is not None and b != r:
                pairs.append((r, b) if side < 0 else (b, r))
    return pairs


def _ldb_section_eq_set(ctx: _Ctx, red, interval) -> set:
    """Fixed point collecting each polynomial, other than the section
    bound's, with a root whose barrier is the section bound and which is
    no other root's barrier, among the roots of the polynomials not yet
    collected; those go through the equational projection instead."""
    b = interval.lower
    polys = sorted({r.poly for r in red}, key=MPoly.sort_key)
    eq: set[MPoly] = set()
    changed = True
    while changed:
        changed = False
        subset = [r for r in red if r.poly not in eq]
        barr = {r: ctx.barrier(r, subset) for r in subset}
        for p in polys:
            if p in eq or p == b.poly:
                continue
            for r in subset:
                if r.poly != p or barr[r] != b:
                    continue
                if any(barr[r2] == r for r2 in subset if r2 != r):
                    continue
                eq.add(p)
                changed = True
                break
    return eq


def choose_representation(
    polys,
    s_prefix: Sample,
    s_val: RealAlg,
    cfg: HeuristicConfig,
    level: int,
) -> Representation:
    """Build the representation for the roots of the given polynomials
    at level `level` over the sample prefix, with s_val the sample's
    coordinate at this level; nullified polynomials contribute none."""
    xi = roots_with_values(polys, s_prefix)
    ctx = _Ctx(xi, s_val, level)
    interval = ctx.interval()
    strategy = (
        cfg.section_heuristic if interval.is_section() else cfg.sector_heuristic
    )
    eq_polys: set[MPoly] = set()
    red = ctx.reduced(interval)
    if strategy == "EQ":
        eq_polys = {r.poly for r in ctx.roots}
        pairs = []
    elif strategy == "BC":
        pairs = _pairs_bc(ctx, red, interval)
    elif strategy == "CH":
        pairs = _pairs_chain(red)
    elif strategy == "FULL":
        pairs = _pairs_full(red)
    else:  # LDB
        if interval.is_section():
            eq_polys = _ldb_section_eq_set(ctx, red, interval)
        pairs = _pairs_ldb(ctx, [r for r in red if r.poly not in eq_polys], interval)

    # one delineable polynomial keeps its own roots ordered; record the
    # consecutive pairs so every root is covered by the ordering
    for (a, _), (b, _) in zip(xi, xi[1:]):
        if a.poly == b.poly and a.poly not in eq_polys:
            pairs.append((a, b))

    # a bounded sector keeps its bounds ordered: the cell is connected here
    if not interval.is_section() and None not in (interval.lower, interval.upper):
        pairs.append((interval.lower, interval.upper))

    return Representation(interval, frozenset(eq_polys), RootOrdering(pairs))
