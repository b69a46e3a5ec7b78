"""Single-cell construction for non-linear real arithmetic.

Build one cylindrical cell around a sample point on which a given set
of polynomials is sign-invariant, levelwise and with a machine-checkable
derivation trace; generalize solver conflicts to learnable clauses; and
decide small conjunctions of polynomial constraints.
"""

from .cells import (
    CellDescription,
    IndexedRoot,
    SymbolicInterval,
    cell_contains,
    cell_from_text,
    cell_to_formula,
    cell_to_text,
)
from .config import HEURISTIC_IDS, HeuristicConfig, config_from_id
from .engine import CellResult, Fail, single_cell
from .explain import (
    Constraint,
    ExplainResult,
    ExtendedConstraint,
    check_conflict,
    clause_to_text,
    explain_conflict,
)
from .polynomial import MPoly, discriminant, normalize, parse_poly, poly_to_str, resultant
from .properties import DerivationTrace, validate_trace
from .realalg import RealAlg, Sample, isolate_real_roots, sign_at
from .smtlib import ParseError, ProblemFile, parse_problem
from .solver import SAT, UNKNOWN, UNSAT, SolveResult, solve_conjunction
from .stats import RunStats

__all__ = [
    "CellDescription",
    "CellResult",
    "Constraint",
    "DerivationTrace",
    "ExplainResult",
    "ExtendedConstraint",
    "Fail",
    "HEURISTIC_IDS",
    "HeuristicConfig",
    "IndexedRoot",
    "MPoly",
    "ParseError",
    "ProblemFile",
    "RealAlg",
    "RunStats",
    "SAT",
    "Sample",
    "SolveResult",
    "SymbolicInterval",
    "UNKNOWN",
    "UNSAT",
    "cell_contains",
    "cell_from_text",
    "cell_to_formula",
    "cell_to_text",
    "check_conflict",
    "clause_to_text",
    "config_from_id",
    "discriminant",
    "explain_conflict",
    "isolate_real_roots",
    "normalize",
    "parse_poly",
    "parse_problem",
    "poly_to_str",
    "resultant",
    "sign_at",
    "single_cell",
    "solve_conjunction",
    "validate_trace",
]

__version__ = "0.1.0"
