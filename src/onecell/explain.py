"""Conflict generalization for a model-constructing solver.

Given constraints over x1..x_{n+1} and an assignment of x1..xn that
cannot be extended in the last variable, build a cell around the
assignment on which every constraint polynomial is sign-invariant, so
the same conflict persists everywhere in the cell.  The negated cell
description is the clause a solver can learn.

Constraints are polynomial (`Constraint`) or extended
(`cells.ExtendedConstraint`, re-exported here).  `sweep` is the one
sweep of the next variable's line, behind `check_conflict` and the
solver: it collects the cut values (the constraints' roots and bounds,
the learned cells' bounds), takes the regions' points and positions
from `realalg.line_samples`, and decides each region from its position,
with one `sign_at` per polynomial constraint and interval between its
roots.  The solver's sweep proves its conflicts, so it calls
`_generalize` without the second sweep of `explain_conflict`.
`_generalize` keeps the last variable's roots in order with
`rules.ordering_resultants`, the root-order projection of the `irord`
rule, applied to consecutive roots.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Union

from .cells import (
    RELS,
    CellDescription,
    ExtendedConstraint,
    _rel_holds,
    cached_roots,
    cell_to_formula,
    eval_indexed_root,
)
from .config import HeuristicConfig
from .engine import Fail, run_levels
from .heuristics import roots_with_values
from .polynomial import MPoly, factor, poly_to_str
from .properties import AnDel, DerivationTrace, OrdInv, SgnInv
from .realalg import (
    NULLIFIED,
    UNDEF,
    RealAlg,
    Sample,
    line_samples,
    sign_at,
    value_ranks,
)
from .rules import PropertySet, ordering_resultants
from .stats import RunStats


@dataclass(frozen=True)
class Constraint:
    """poly rel 0."""

    poly: MPoly
    rel: str

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def __repr__(self) -> str:
        return f"{poly_to_str(self.poly)} {self.rel} 0"


def constraint_satisfied(c, s: Sample) -> bool:
    """Whether s satisfies c; an extended constraint whose bound has no
    value over s is not satisfied."""
    if isinstance(c, Constraint):
        return _rel_holds(sign_at(c.poly, s), c.rel)
    return c.holds(s) is True


def _constraint_level(c) -> int:
    if isinstance(c, Constraint):
        return c.poly.level
    return c.var


def sweep(C: list, cells: list, s: Sample):
    """One pass over the regions of the next variable's line over s, cut
    at the roots of C's polynomial constraints over s, then the bounds of
    its extended constraints and of the learned cells' atoms (one list of
    atoms x_{n+1} ~ bound per cell), in that order: the points of
    `line_samples` in turn, each covered when all atoms of some cell
    hold there, else chosen when it satisfies C.  Returns the chosen
    value (None when there is none), the covered points, and whether no
    point, covered or not, satisfies C: a conflict.

    Every answer is read off the positions of the regions: an atom or
    an extended constraint compares its bound's position with the
    point's, and is false when its bound is undefined; a polynomial
    constraint has sign 0 on its roots and everywhere when nullified,
    and one sign on each interval between consecutive roots, read by
    one `sign_at` at the first rational point visited there (at a
    section, the point of the sector below it).  A constraint below the
    level has one truth value over the whole line, found once."""
    n = len(s)
    vals: list[RealAlg] = []

    def place(c):
        # the signs of (point - bound) the atom accepts, and the index of
        # its bound over s in vals, None when undefined
        v = eval_indexed_root(c.bound, s)
        if v is UNDEF:
            return RELS[c.rel][0], None
        vals.append(v)
        return RELS[c.rel][0], len(vals) - 1

    held, bounds, polys = True, [], []
    for c in C:
        if _constraint_level(c) <= n:
            held = held and constraint_satisfied(c, s)
        elif not isinstance(c, Constraint):
            bounds.append(place(c))
        elif (roots := cached_roots(c.poly, s)) is NULLIFIED:
            held = held and _rel_holds(0, c.rel)
        else:
            polys.append((c.poly, RELS[c.rel][0], len(vals), len(roots)))
            vals.extend(roots)
    cells = [[place(a) for a in cell] for cell in cells]
    points, at, pos = line_samples(vals)
    # each polynomial with its roots' positions and the sign of each
    # interval between them, once read
    polys = [(p, acc, pos[k:k + m], [None] * (m + 1)) for p, acc, k, m in polys]

    def holds(atoms, at_j):
        for acc, k in atoms:
            if k is None or (at_j > pos[k]) - (at_j < pos[k]) not in acc:
                return False
        return True

    def satisfies(j):
        at_j, ext = at[j], None
        if not (held and holds(bounds, at_j)):
            return False
        for p, acc, roots, signs in polys:
            k = bisect_left(roots, at_j)
            if k < len(roots) and roots[k] == at_j:
                sign = 0
            elif (sign := signs[k]) is None:
                ext = ext or s.extend(points[j] if at_j % 2 == 0 else points[at_j // 2 + 1])
                sign = signs[k] = sign_at(p, ext)
            if sign not in acc:
                return False
        return True

    chosen, covered = None, []
    for j, t in enumerate(points):
        if cells and any(holds(cell, at[j]) for cell in cells):
            covered.append(j)
        elif satisfies(j):
            chosen = t
            break
    conflict = chosen is None and not any(map(satisfies, covered))
    return chosen, [points[j] for j in covered], conflict


def check_conflict(C: Iterable, s: Sample) -> bool:
    """True iff no value of the next variable satisfies all constraints
    under s: every region of its line violates some constraint
    (`sweep`, with no learned cells)."""
    C = list(C)
    n = len(s)
    for c in C:
        if _constraint_level(c) > n + 1:
            raise ValueError(f"constraint {c!r} beyond level {n + 1}")
    return sweep(C, [], s)[2]


@dataclass
class ExplainResult:
    cell: CellDescription
    clause: list[ExtendedConstraint]
    trace: DerivationTrace
    stats: RunStats

    def __iter__(self):
        return iter((self.cell, self.clause))


def explain_conflict(
    C: Iterable,
    s,
    cfg: HeuristicConfig | None = None,
    stats: RunStats | None = None,
) -> Union[ExplainResult, Fail]:
    """Generalize a conflict to a cell around s and the clause excluding
    it; ValueError when `check_conflict` finds no conflict."""
    C = list(C)
    cfg = cfg if cfg is not None else HeuristicConfig()
    stats = stats if stats is not None else RunStats()
    sample = Sample(s)
    if not check_conflict(C, sample):
        raise ValueError("the constraints are satisfiable over the assignment")
    return _generalize(C, sample, cfg, stats)


def _generalize(
    C: list, sample: Sample, cfg: HeuristicConfig, stats: RunStats
) -> Union[ExplainResult, Fail]:
    """The cell around sample on which every constraint polynomial of C
    is sign-invariant, for a conflict already proven; it cannot fail
    over the empty prefix."""
    n = len(sample)

    polys: set[MPoly] = set()
    for c in C:
        polys.add(c.poly if isinstance(c, Constraint) else c.bound.poly)
    facs: list[MPoly] = []
    for p in sorted(polys, key=MPoly.sort_key):
        stats.saw_poly(p)
        if p.is_constant():
            continue
        for f, _ in factor(p):
            if not f.is_constant() and f not in facs:
                facs.append(f)

    top = [f for f in facs if f.level == n + 1]
    for f in top:
        if cached_roots(f, sample) is NULLIFIED:
            return Fail(f"nullified polynomial {poly_to_str(f)} at the assignment")

    trace = DerivationTrace()
    Q = PropertySet(trace)
    for f in facs:
        if f.level < n + 1:
            Q.add(SgnInv(f))
        else:
            Q.add(AnDel(f))

    # chain the top-level roots in value order; the root-order
    # projection of consecutive roots keeps them ordered over the cell
    xi = roots_with_values(top, sample)
    rank = value_ranks([v for _, v in xi])
    chain = [xi[j][0].poly for j in sorted(range(len(xi)), key=rank.__getitem__)]
    for r in ordering_resultants(zip(chain, chain[1:]), n + 1):
        stats.add("res", r)
        Q.add(OrdInv(r))

    cell = run_levels(Q, sample, n, cfg, stats)
    if isinstance(cell, Fail):
        return cell
    clause = [atom.negated() for atom in cell_to_formula(cell)]
    return ExplainResult(cell, clause, trace, stats)


def clause_to_text(cell: CellDescription) -> str:
    """The learnable clause as the negated conjunction of the cell's
    extended atoms."""
    atoms = cell_to_formula(cell)
    if not atoms:
        return "(not true)"
    rendered = " ".join(f"({a.rel} x{a.var} {a.bound.text()})" for a in atoms)
    return f"(not (and {rendered}))"
