"""Indexed root expressions, symbolic intervals, and cell descriptions.

A cell is described level by level, as a `CellDescription`: the tuple
of one `SymbolicInterval(level, lower, upper)` per level, interval i at
level i.  An interval is either a *sector* (the open interval between
two indexed root expressions, with None for an infinite end) or a
*section* (the graph of one indexed root expression, which is both of
its bounds; `SymbolicInterval.section`).  An indexed
root expression "the j-th real root of p in x_i" only gains a value
once the lower-level coordinates are fixed, which is what
`eval_indexed_root` does.  The same cell read as a formula is a
conjunction of extended constraints `x_i ~ root(p, j)`
(`cell_to_formula`); membership (`cell_contains`, or `formula_holds`
on atoms built once) evaluates those atoms.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .polynomial import MPoly, Var, parse_poly, poly_to_str
from .realalg import NULLIFIED, UNDEF, RealAlg, Sample, cached_roots, separate


@dataclass(frozen=True)
class IndexedRoot:
    """The index-th real root (1-based, in increasing order) of poly,
    viewed as a univariate polynomial in its top variable."""

    poly: MPoly
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("root indices are 1-based")
        if self.poly.is_constant():
            raise ValueError("indexed roots need a nonconstant polynomial")
        # the dataclass hash, computed once
        object.__setattr__(self, "_hash", hash((self.poly, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def level(self) -> int:
        return self.poly.level

    def __repr__(self) -> str:
        return f"root({poly_to_str(self.poly)}, {self.index})"

    def text(self) -> str:
        """The serialized form, `(root "poly" index)`."""
        return f'(root "{poly_to_str(self.poly)}" {self.index})'


@dataclass(frozen=True)
class SymbolicInterval:
    """The interval of one level: the sector between two indexed root
    expressions at `level` (None is -inf below and +inf above), or, with
    both bounds on the same root, the section on that root."""

    level: int
    lower: Optional[IndexedRoot] = None
    upper: Optional[IndexedRoot] = None

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("interval levels are 1-based")
        for b in (self.lower, self.upper):
            if b is not None and b.level != self.level:
                raise ValueError(f"bound {b!r} is not at level {self.level}")
        object.__setattr__(self, "_hash", hash((self.level, self.lower, self.upper)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def section(cls, b: IndexedRoot) -> "SymbolicInterval":
        """The section on the root b."""
        return cls(b.level, b, b)

    def is_section(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def bound_roots(self) -> list[IndexedRoot]:
        roots = [b for b in (self.lower, self.upper) if b is not None]
        return roots[:1] if self.is_section() else roots

    def __repr__(self) -> str:
        if self.is_section():
            return f"section({self.lower!r})"
        lo = "-inf" if self.lower is None else repr(self.lower)
        hi = "+inf" if self.upper is None else repr(self.upper)
        return f"sector({lo}, {hi})"


class CellDescription(tuple):
    """Triangular cell data: a tuple of one symbolic interval per level,
    interval i at level i and so only mentioning variables x1..xi."""

    def __new__(cls, intervals: Sequence[SymbolicInterval] = ()):
        cell = super().__new__(cls, intervals)
        for i, iv in enumerate(cell, start=1):
            if iv.level != i:
                raise ValueError(f"interval {i} has level {iv.level}")
        return cell

    def __repr__(self) -> str:
        return "Cell[" + "; ".join(repr(iv) for iv in self) + "]"


# ---------------------------------------------------------------------------
# evaluation

def eval_indexed_root(xi: IndexedRoot, s: Sample):
    """Value of the indexed root over the sample prefix, or UNDEF when
    the polynomial is nullified or has fewer real roots than the index."""
    roots = cached_roots(xi.poly, s)
    if roots is NULLIFIED:
        return UNDEF
    if xi.index > len(roots):
        return UNDEF
    return roots[xi.index - 1]


def cell_pick_interior_point(c: CellDescription, seed: int) -> Sample:
    """A deterministic sample inside the cell, drawn once, level by
    level: sections land exactly on the bound, bounded sectors take a
    rational strictly between the refined bound enclosures, a half-line
    one 1 to 2 past its bound and the whole line one within 1/2 of 0.  A
    sector's point is read off the gap `separate` gives at its bounds,
    which reads canonical copies, so it depends only on the cell and the
    seed.  Raises ValueError when a bound is undefined over the
    coordinates drawn so far or a sector is empty there; a constructed
    cell allows neither, as each of its levels is connected."""
    rng = random.Random(seed)
    coords: list[RealAlg] = []

    def bound_value(xi: Optional[IndexedRoot], what: str):
        if xi is None:
            return None
        val = eval_indexed_root(xi, Sample(coords))
        if val is UNDEF:
            raise ValueError(f"{what} bound undefined inside its own cell")
        return val

    for iv in c:
        if iv.is_section():
            coords.append(bound_value(iv.lower, "section"))
            continue
        lo = bound_value(iv.lower, "sector")
        hi = bound_value(iv.upper, "sector")
        t = Fraction(rng.randint(1, 15), 16)
        if lo is None and hi is None:
            coords.append(RealAlg.rational(t - Fraction(1, 2)))
            continue
        a, b = separate(lo, hi)
        if lo is None:
            coords.append(RealAlg.rational(b - 1 - t))
        elif hi is None:
            coords.append(RealAlg.rational(a + 1 + t))
        else:
            coords.append(RealAlg.rational(a + (b - a) * t))
    return Sample(coords)


# ---------------------------------------------------------------------------
# formula view: extended constraints, learned clauses and membership


# Each relation: the signs of (left side - right side) it accepts, and
# its negation.
RELS = {
    "<": ((-1,), ">="),
    "<=": ((-1, 0), ">"),
    "=": ((0,), "!="),
    "!=": ((-1, 1), "="),
    ">=": ((0, 1), "<"),
    ">": ((1,), "<="),
}


def _rel_holds(sign: int, rel: str) -> bool:
    return sign in RELS[rel][0]


@dataclass(frozen=True)
class ExtendedConstraint:
    """x_var rel (an indexed root expression): the atoms of a cell's
    formula and of learned clauses.  An indexed root is a root in its
    polynomial's top variable, so var is the bound's level."""

    var: Var
    rel: str
    bound: IndexedRoot

    def __post_init__(self):
        if self.rel not in RELS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if self.var != self.bound.level:
            raise ValueError(f"x{self.var} compared with a root in x{self.bound.level}")

    def negated(self) -> "ExtendedConstraint":
        return ExtendedConstraint(self.var, RELS[self.rel][1], self.bound)

    def holds(self, s: Sample):
        """Whether s satisfies the atom; UNDEF when the bound has no value
        over s."""
        val = eval_indexed_root(self.bound, s.prefix(self.var - 1))
        if val is UNDEF:
            return UNDEF
        return _rel_holds(s[self.var - 1].compare(val), self.rel)

    def __repr__(self) -> str:
        return f"x{self.var} {self.rel} {self.bound!r}"


def cell_to_formula(c: CellDescription) -> list[ExtendedConstraint]:
    """The cell as a conjunction of extended constraints, one or two
    atoms per level in level order, none for full-line sectors."""
    atoms: list[ExtendedConstraint] = []
    for i, iv in enumerate(c, start=1):
        if iv.is_section():
            atoms.append(ExtendedConstraint(i, "=", iv.lower))
        else:
            if iv.lower is not None:
                atoms.append(ExtendedConstraint(i, ">", iv.lower))
            if iv.upper is not None:
                atoms.append(ExtendedConstraint(i, "<", iv.upper))
    return atoms


def formula_holds(atoms: Sequence[ExtendedConstraint], r: Sample):
    """Three-valued: the conjunction of a cell's atoms, in level order,
    for the levels r has, False as soon as one fails and UNDEF as soon
    as one has no value."""
    for atom in atoms:
        if atom.var > len(r):
            break
        holds = atom.holds(r)
        if holds is not True:
            return holds
    return True


def cell_contains(c: CellDescription, r: Sample):
    """Three-valued membership: `formula_holds` of the cell's atoms."""
    return formula_holds(cell_to_formula(c), r)


# ---------------------------------------------------------------------------
# serialization

_BOUND = r'\(root\s+"([^"]*)"\s+(\d+)\)|([+-]inf)'
_ROOT_RE = re.compile(_BOUND, re.ASCII)
# one or more bounds separated by whitespace, and nothing else
_BOUNDS_RE = re.compile(rf"(?:{_BOUND})(?:\s+(?:{_BOUND}))*", re.ASCII)


def bound_text(b: Optional[IndexedRoot], sign: str) -> str:
    """An interval end: the indexed root, or `-inf`/`+inf` for None."""
    return f"{sign}inf" if b is None else b.text()


def cell_to_text(c: CellDescription) -> str:
    lines = []
    for i, iv in enumerate(c, start=1):
        if iv.is_section():
            lines.append(f"level {i} section {bound_text(iv.lower, '')}")
        else:
            lines.append(
                f"level {i} sector {bound_text(iv.lower, '-')} "
                f"{bound_text(iv.upper, '+')}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def cell_from_text(text: str) -> CellDescription:
    intervals: list[SymbolicInterval] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = re.match(r"level\s+(\d+)\s+(sector|section)\s+(.*)", line, re.ASCII)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse cell level: {raw!r}")
        level, kind, rest = int(m.group(1)), m.group(2), m.group(3)
        if level != len(intervals) + 1:
            raise ValueError(f"line {lineno}: expected level {len(intervals) + 1}")
        if not _BOUNDS_RE.fullmatch(rest):
            raise ValueError(f"line {lineno}: cannot parse cell bounds: {raw!r}")
        bounds = []
        for bm in _ROOT_RE.finditer(rest):
            if bm.group(3):
                bounds.append(None)
            else:
                bounds.append(IndexedRoot(parse_poly(bm.group(1)), int(bm.group(2))))
        if kind == "section":
            if len(bounds) != 1 or bounds[0] is None:
                raise ValueError(f"line {lineno}: a section needs one root bound")
            bounds *= 2  # both bounds on the one root
        elif len(bounds) != 2:
            raise ValueError(f"line {lineno}: a sector needs two bounds")
        elif rest.startswith("+inf") or rest.endswith("-inf"):
            raise ValueError(f"line {lineno}: a sector runs from -inf up to +inf")
        elif bounds[0] is not None and bounds[0] == bounds[1]:
            raise ValueError(f"line {lineno}: a sector needs two distinct bounds")
        intervals.append(SymbolicInterval(level, *bounds))
    return CellDescription(intervals)
