"""Model-constructing search for conjunctions of polynomial constraints.

Variables are assigned in order x1..xn.  Each level tries the values of
`realalg.line_samples` cut at the roots of the level's constraint
polynomials and at the learned-cell bounds, which meet every
sign-invariant region; so the level is in conflict exactly when no
candidate, those skipped as inside a learned cell included, satisfies
its constraints.  A conflict is generalized to a cell around the current
prefix and the excluded region steers later choices.  Unsatisfiability
is reported from a conflict over the empty prefix or when every x1
candidate is ruled out: the candidates stand for every region of the x1
line on which the level-1 signs and the learned-cell membership are
constant, so ruling them all out covers the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .cells import CellDescription, cached_roots, cell_contains, eval_indexed_root
from .config import HeuristicConfig
from .engine import Fail
from .explain import Constraint, constraint_satisfied, explain_conflict
from .realalg import NULLIFIED, UNDEF, RealAlg, Sample, line_samples
from .stats import RunStats

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SolveResult:
    status: str
    model: Optional[Sample] = None
    learned: List[CellDescription] = field(default_factory=list)
    explanations: int = 0

    def __bool__(self) -> bool:
        return self.status != UNKNOWN


def _candidate_values(
    polys, learned: Sequence[CellDescription], level: int, prefix: Sample
) -> list[RealAlg]:
    """Candidates for x_level: every root of the level's constraint
    polynomials over the prefix, every applicable learned-cell bound,
    and the points `line_samples` adds around them.  Values are read off
    canonical copies, not the cached roots other calls refine, so the
    candidates depend only on the arguments."""
    vals: list[RealAlg] = []
    for p in polys:
        roots = cached_roots(p, prefix)
        if roots is not NULLIFIED:
            vals.extend(r.canonical_copy() for r in roots)
    for cell in learned:
        if len(cell) != level:
            continue
        if level > 1 and cell_contains(cell, prefix) is not True:
            continue
        iv = cell[level - 1]
        for b in iv.bound_roots():
            v = eval_indexed_root(b, prefix)
            if v is not UNDEF:
                vals.append(v.canonical_copy())
    return line_samples(vals)


def _excluded(t: RealAlg, learned, level: int, prefix: Sample) -> bool:
    point = prefix.extend(t)
    for cell in learned:
        if len(cell) == level and cell_contains(cell, point) is True:
            return True
    return False


def solve_conjunction(
    constraints: Sequence[Constraint],
    nvars: int,
    budget: int = 256,
    cfg: Optional[HeuristicConfig] = None,
    stats: Optional[RunStats] = None,
) -> SolveResult:
    """Decide the conjunction of the constraints over x1..xnvars.

    `budget` bounds the number of conflict explanations; exhausting it
    yields UNKNOWN.
    """
    cfg = cfg if cfg is not None else HeuristicConfig()
    stats = stats if stats is not None else RunStats()
    result = SolveResult(UNKNOWN)

    by_level: dict[int, list[Constraint]] = {i: [] for i in range(nvars + 1)}
    for c in constraints:
        lvl = c.poly.level
        if lvl > nvars:
            raise ValueError(f"constraint {c!r} uses an undeclared variable")
        by_level[lvl].append(c)
    for c in by_level[0]:
        if not constraint_satisfied(c, Sample(())):
            result.status = UNSAT
            return result

    assignment: list[RealAlg] = []
    steps = 0
    max_steps = 64 * (budget + 1)
    while True:
        steps += 1
        if steps > max_steps:
            return result
        i = len(assignment) + 1
        if i > nvars:
            model = Sample(assignment)
            if all(constraint_satisfied(c, model) for c in constraints):
                result.status = SAT
                result.model = model
                return result
            return result

        prefix = Sample(assignment)
        polys = [c.poly for c in by_level[i]]

        def satisfies(t: RealAlg) -> bool:
            point = prefix.extend(t)
            return all(constraint_satisfied(c, point) for c in by_level[i])

        chosen = None
        skipped: list[RealAlg] = []
        for t in _candidate_values(polys, result.learned, i, prefix):
            if _excluded(t, result.learned, i, prefix):
                skipped.append(t)
            elif satisfies(t):
                chosen = t
                break
        if chosen is not None:
            assignment.append(chosen)
            continue

        # no candidate outside the learned cells works: a conflict unless
        # one inside them does
        if not any(satisfies(t) for t in skipped):
            if result.explanations >= budget:
                return result
            result.explanations += 1
            explained = explain_conflict(by_level[i], prefix, cfg, stats)
            if isinstance(explained, Fail):
                if not assignment:
                    return result
                assignment.pop()
                continue
            if i == 1:
                result.status = UNSAT
                result.learned.append(explained.cell)
                return result
            result.learned.append(explained.cell)
            assignment.pop()
            continue

        # every admissible value is inside a learned cell
        if i == 1:
            result.status = UNSAT
            return result
        assignment.pop()
