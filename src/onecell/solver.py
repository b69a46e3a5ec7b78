"""Model-constructing search for conjunctions of polynomial constraints.

Variables are assigned in order x1..xn.  Each level is one
`explain.sweep` of its line over the prefix, cut at the roots of the
level's constraints and at the bounds of the learned cells around the
prefix: it takes the first region's point outside those cells that
satisfies the constraints.  The regions meet every sign-invariant
region, so the level is in conflict exactly when no point, those
inside a learned cell included, satisfies its constraints.  That sweep
proves the conflict, which `explain._generalize` turns into a cell
around the prefix without a second sweep; the cell steers later
choices.  Unsatisfiability is reported from a conflict over the empty
prefix or when every x1 point is ruled out: the points stand for every
region of the x1 line on which the level-1 signs and the learned-cell
membership are constant, so ruling them all out covers the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .cells import CellDescription, cell_to_formula, formula_holds
from .config import HeuristicConfig
from .engine import Fail
from .explain import Constraint, _generalize, constraint_satisfied, sweep
from .realalg import RealAlg, Sample
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

    formulas = []  # the atoms of each learned cell, built once
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

        prefix = Sample(assignment)
        # the prefix lies in each cell, so a point over it lies there
        # exactly when the cell's level-i atoms hold
        cells = [
            [a for a in F if a.var == i] for L, F in zip(result.learned, formulas)
            if len(L) == i and formula_holds(F, prefix) is True
        ]
        chosen, _, conflict = sweep(by_level[i], cells, prefix)
        if chosen is not None:
            assignment.append(chosen)
            continue

        # no value outside the learned cells works: a conflict unless
        # one inside them does
        if conflict:
            if result.explanations >= budget:
                return result
            result.explanations += 1
            explained = _generalize(by_level[i], prefix, cfg, stats)
            if not isinstance(explained, Fail):
                result.learned.append(explained.cell)
                formulas.append(cell_to_formula(explained.cell))

        # the learned cells, the new one included, rule out every value
        # here, or the explanation failed above x1: unsat at x1, else
        # backtrack
        if i == 1:
            result.status = UNSAT
            return result
        assignment.pop()
