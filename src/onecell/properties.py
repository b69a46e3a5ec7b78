"""Property terms, their well-founded ordering, and derivation traces.

Properties are statements about a region of R^i ("p is sign-invariant
here", "this is an analytic submanifold", ...).  Each carries a derived
level; the construction works through properties from the greatest to
the smallest under a strict ordering (`order_key`) in which levels
dominate and, within a level, a fixed twelve-tier ranking applies.
Every rule application replaces a property by strictly smaller ones,
except that a `factors` step may cite properties of the same tier about
divisors of smaller degree or about the normalized polynomial; that is
what makes the whole construction terminate and lets a trace be
validated without re-running the search.

A property is an immutable tuple of its kind's `tag`, an int that no
other kind shares, and its fields, which read as `p`, `s`, `i`, `I`
and `ord`: properties of two kinds never compare equal, and hashing or
comparing one costs a tuple's hash or comparison, independent of the
hash seed.  A `TraceEntry` is a named tuple.

This module declares the proof system once: each property kind carries
its tier as a class attribute (`OrdInv` and `SgnInv` rank one tier
higher while `is_whole` fails; `is_whole` reads the square-free
factorization that `polynomial.factor` keeps), and `_RULE_SHAPES` is
the one list of rule names, with the kinds each rule may conclude and
cite.  Which instances of a rule apply is decided in `rules`, where
`PropertySet.derive` records every step in a `DerivationTrace`.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, NamedTuple

from .polynomial import MPoly, exact_div, factor, normalize, poly_to_str
from .realalg import Sample, realalg_to_text
from .cells import IndexedRoot, SymbolicInterval, bound_text


def is_squarefree(p: MPoly) -> bool:
    """Whether p has no repeated factor.  The library does not call it;
    the benchmark's tracer (`bench/tracer.py`) lists it as a layer."""
    return all(m == 1 for _, m in factor(p, "squarefree"))


def is_whole(p: MPoly) -> bool:
    """True when the decomposition rule has nothing left to do on p:
    constants, and normalized square-free polynomials, which are their
    own one square-free factor."""
    return p.is_constant() or factor(p, "squarefree") == [(p, 1)]


# ---------------------------------------------------------------------------
# property variants


_TAGS = itertools.count()


class Property(tuple):
    """A property kind; `tier` is its within-level rank, 1 = greatest,
    and `tag` the kind's own int, the first entry of its tuples."""

    __slots__ = ()
    tag: int
    tier: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.tag = next(_TAGS)

    def __getnewargs__(self):
        return self[1:]

    @property
    def level(self) -> int:
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.text()


def _sample_text(s: Sample) -> str:
    return "(" + ",".join(realalg_to_text(c) for c in s) + ")"


def _interval_text(iv: SymbolicInterval) -> str:
    if iv.is_section():
        return f"section[{bound_text(iv.lower, '')}]"
    return f"sector[{bound_text(iv.lower, '-')},{bound_text(iv.upper, '+')}]"


class SampleProp(Property):
    tier = 10
    s = property(itemgetter(1))

    def __new__(cls, s: Sample):
        return tuple.__new__(cls, (cls.tag, s))

    @property
    def level(self) -> int:
        return len(self.s)

    def text(self) -> str:
        return f"sample{_sample_text(self.s)}"


class PolyProperty(Property):
    """A property of one polynomial p, spelled `name(p)` in traces; it
    lives `below` levels under p's level."""

    below = 0
    p = property(itemgetter(1))

    def __new__(cls, p: MPoly):
        return tuple.__new__(cls, (cls.tag, p))

    @property
    def level(self) -> int:
        return self.p.level - self.below

    def text(self) -> str:
        return f"{self.name}({poly_to_str(self.p)})"


class OrdInv(PolyProperty):
    """Order invariance; while the decomposition rule still applies to p
    it ranks one tier above the whole case, as sign invariance does."""

    name = "ordinv"

    @property
    def tier(self) -> int:
        return 5 if is_whole(self.p) else 4


class SgnInv(PolyProperty):
    name = "sgninv"

    @property
    def tier(self) -> int:
        return 7 if is_whole(self.p) else 6


# a level proves tiers up to this one from the sample alone, and the rest
# only once its representation is chosen, so their rules may read it
SAMPLE_ONLY_TIER = 6


class NonNull(PolyProperty):
    name, below, tier = "nonnull", 1, 3


class AnDel(PolyProperty):
    """Analytic delineability of p over the region one level down."""

    name, below, tier = "andel", 1, 2


class IndexProperty(Property):
    """A property of the region at level i, spelled `name(i)`."""

    i = property(itemgetter(1))

    def __new__(cls, i: int):
        return tuple.__new__(cls, (cls.tag, i))

    @property
    def level(self) -> int:
        return self.i

    def text(self) -> str:
        return f"{self.name}({self.i})"


class AnSub(IndexProperty):
    name, tier = "ansub", 9


class Connected(IndexProperty):
    name, tier = "connected", 8


class RootOrdering:
    """A set of (xi, xi') pairs read as xi <= xi', acyclic over distinct
    roots; the reflexive-transitive closure is the partial order the
    rules consume."""

    __slots__ = ("pairs", "_closure")

    def __init__(self, pairs: Iterable[tuple[IndexedRoot, IndexedRoot]]):
        self.pairs = frozenset((a, b) for a, b in pairs if a != b)
        reach: dict[IndexedRoot, set[IndexedRoot]] = {}
        for a, b in self.pairs:
            reach.setdefault(a, set()).add(b)
        # transitive closure by Warshall's algorithm: after step k, a
        # reaches b whenever a path joins them through the first k roots
        for k, ks in reach.items():
            for bs in reach.values():
                if k in bs:
                    bs |= ks
        # the pairs relate distinct roots, so a root that reaches itself
        # lies on a cycle
        if any(a in bs for a, bs in reach.items()):
            raise ValueError("cyclic indexed root ordering")
        self._closure = frozenset((a, b) for a, bs in reach.items() for b in bs)

    def dom(self) -> frozenset:
        out = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return frozenset(out)

    def closure(self) -> frozenset:
        """Transitive (not reflexive) closure of the pair set."""
        return self._closure

    def le(self, a: IndexedRoot, b: IndexedRoot) -> bool:
        return a == b or (a, b) in self.closure()

    def text(self) -> str:
        items = sorted(f"{a.text()}<={b.text()}" for a, b in self.pairs)
        return "{" + ",".join(items) + "}"

    def __eq__(self, other):
        return isinstance(other, RootOrdering) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"RootOrdering{self.text()}"


class Repr(Property):
    """The symbolic interval refers to the same roots across the region
    below it (representation maintenance)."""

    tier = 11
    I = property(itemgetter(1))
    s = property(itemgetter(2))

    def __new__(cls, I: SymbolicInterval, s: Sample):
        return tuple.__new__(cls, (cls.tag, I, s))

    @property
    def level(self) -> int:
        return self.I.level

    def text(self) -> str:
        return f"repr({_interval_text(self.I)},{_sample_text(self.s)})"


class IrOrd(Property):
    tier = 1
    ord = property(itemgetter(1))
    s = property(itemgetter(2))

    def __new__(cls, ord: RootOrdering, s: Sample):
        return tuple.__new__(cls, (cls.tag, ord, s))

    @property
    def level(self) -> int:
        return len(self.s)

    def text(self) -> str:
        return f"irord({self.ord.text()},{_sample_text(self.s)})"


class Holds(Property):
    """The axiom: the region actually is the lift of the interval."""

    tier = 12
    I = property(itemgetter(1))

    def __new__(cls, I: SymbolicInterval):
        return tuple.__new__(cls, (cls.tag, I))

    @property
    def level(self) -> int:
        return self.I.level

    def text(self) -> str:
        return f"holds({_interval_text(self.I)})"


# ---------------------------------------------------------------------------
# the ordering


def order_key(q: Property) -> tuple[int, int]:
    """q's place in the property order: levels dominate, and within a
    level tier 1 is greatest.  Properties of one level and tier are
    incomparable, so they share a key."""
    return (q.level, -q.tier)


def strictly_smaller(q: Property, than: Property) -> bool:
    return order_key(q) < order_key(than)


def selection_key(q: Property):
    """Deterministic pick of the greatest property: the negated
    `order_key`, with ties between incomparable properties broken by
    textual order."""
    return (-q.level, q.tier, q.text())


# ---------------------------------------------------------------------------
# traces


class TraceEntry(NamedTuple):
    conclusion: Property
    antecedents: tuple[Property, ...]
    rule: str


class DerivationTrace:
    """The log of a derivation, axioms and steps in the order they were
    made; `rules.PropertySet` writes each property into it once."""

    def __init__(self):
        self.entries: list[TraceEntry] = []
        self.axioms: list[Property] = []

    def derive(self, conclusion: Property, antecedents: Iterable[Property], rule: str):
        self.entries.append(TraceEntry(conclusion, tuple(antecedents), rule))

    def axiom(self, prop: Property):
        self.axioms.append(prop)

    def conclusions(self) -> set[Property]:
        return {e.conclusion for e in self.entries}

    def to_text(self) -> str:
        lines = [f"AXIOM {a.text()}" for a in self.axioms]
        for e in self.entries:
            ants = "; ".join(a.text() for a in e.antecedents) or "true"
            lines.append(f"DERIVE {e.conclusion.text()} FROM {ants} VIA {e.rule}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self):
        return len(self.entries)


# every rule, with the conclusion kinds and the antecedent kinds it may
# cite; a structural side-condition check used by the trace validator
_RULE_SHAPES: dict[str, tuple[type, tuple[type, ...]]] = {
    "const-inv": ((OrdInv, SgnInv), ()),
    "triv-base": ((SampleProp, AnSub, Connected), ()),
    "factors": ((OrdInv, SgnInv), (OrdInv, SgnInv)),
    "del": (AnDel, (AnSub, Connected, NonNull, OrdInv, SgnInv)),
    "nonnull-const-coeff": (NonNull, ()),
    "nonnull-coeff": (NonNull, (SampleProp, SgnInv)),
    "ordinv-nonzero": (OrdInv, (SampleProp, SgnInv)),
    "ordinv-zero": (OrdInv, (SampleProp, AnSub, Connected, SgnInv, AnDel)),
    "nozero": (SgnInv, (SampleProp, AnDel)),
    "eqproj": (SgnInv, (AnSub, Connected, Repr, AnDel, OrdInv)),
    "sgninv-ord": (SgnInv, (SampleProp, Repr, IrOrd, AnDel, AnSub, Connected)),
    "irord": (IrOrd, (SampleProp, AnSub, Connected, AnDel, OrdInv)),
    "connected-base": (Connected, ()),
    "connected-sector": (Connected, (Connected, Repr, IrOrd)),
    "connected-inf": (Connected, (Connected, Repr)),
    "connected-section": (Connected, (Connected, Repr)),
    "sample-prefix": (SampleProp, (Repr, SampleProp)),
    "submanifold": (AnSub, (Repr, AnSub)),
    "repr": (Repr, (SampleProp, Holds, AnDel)),
    "level-one-base": ((SgnInv, AnSub, SampleProp), (Repr,)),
}


def validate_trace(trace: DerivationTrace, axioms: set[Property]) -> bool:
    """Check that every antecedent is an axiom or a derived conclusion,
    that each cited rule exists and its antecedent kinds fit, and that
    every derived antecedent is smaller than its conclusion (which is
    what rules out circular justification).  For every rule but
    `factors` that means strictly smaller in the property order.  A
    `factors` step may cite a property of the same tier, so there each
    derived antecedent must be of the conclusion's kind, not greater
    than it, and about a divisor f of its polynomial p of smaller total
    degree or with f = normalize(p) != p: the pair (total degree, "not
    normalized") strictly decreases along every chain of such steps."""
    derived = trace.conclusions()
    ok_axioms = set(axioms) | set(trace.axioms)
    for e in trace.entries:
        # an unknown rule concludes no kind
        ckinds, akinds = _RULE_SHAPES.get(e.rule, ((), ()))
        if not isinstance(e.conclusion, ckinds):
            return False
        if not all(isinstance(a, akinds) for a in e.antecedents):
            return False
        for a in e.antecedents:
            if a in ok_axioms:
                continue
            if a not in derived:
                return False
            if e.rule == "factors":
                if not _factor_of(a, e.conclusion):
                    return False
            elif not strictly_smaller(a, e.conclusion):
                return False
    return True


def _factor_of(a: PolyProperty, c: PolyProperty) -> bool:
    """The side condition of a `factors` step from a to c."""
    if type(a) is not type(c) or order_key(a) > order_key(c):
        return False
    f, p = a.p, c.p
    try:
        exact_div(p, f)
    except (ValueError, ZeroDivisionError):
        return False
    return f.total_degree() < p.total_degree() or f == normalize(p) != p
