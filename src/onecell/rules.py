"""Proof rules and the property replacement step.

`PropertySet` keeps one state per property in one dict, pending or
derived.  The pending properties also sit in a heap ordered by
`selection_key`, so the greatest one of the level being drained is read
off its top.  For that property this module enumerates the applicable
rule instances (each an antecedent set that would justify it) and picks
one: a sole instance is taken as it is, otherwise an instance whose
antecedents are all justified already is preferred and ties go to the
cheapest by `Choice.order_key`; a `Choice`, like the `RuleCtx` it was
made under, is a named tuple.  `PropertySet.derive` then records the
step and replaces the property by the antecedents that are not yet
justified; it is the one writer of the derivation trace.  Rule
availability depends on the construction phase: the engine reaches a
property whose tier number exceeds `properties.SAMPLE_ONLY_TIER` only
at its own level, once the level's symbolic interval and root ordering
are chosen, so its rules read both from the context without checking;
everything else only needs the sample.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, NamedTuple, Optional

from .cells import IndexedRoot, SymbolicInterval, cached_roots
from .polynomial import (
    MPoly,
    coeff_info,
    discriminant,
    factor,
    normalize,
    resultant,
)
from .properties import (
    AnDel,
    AnSub,
    Connected,
    DerivationTrace,
    Holds,
    IrOrd,
    NonNull,
    OrdInv,
    Property,
    Repr,
    RootOrdering,
    SampleProp,
    SgnInv,
    is_whole,
    selection_key,
)
from .realalg import NULLIFIED, Sample, sign_at
from .stats import RunStats


class ConstructionFailed(Exception):
    """Raised when no rule can justify a pending property; the public
    entry points convert this into a FAIL result."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _norm(p: MPoly) -> MPoly:
    return p if p.is_constant() else normalize(p)


def trivial_rule(q: Property) -> Optional[str]:
    """Rule name if q holds on any region without antecedents."""
    kind = type(q)
    if kind is SgnInv or kind is OrdInv:
        return "const-inv" if q.p.is_constant() else None
    if kind is SampleProp:
        return None if q.s else "triv-base"
    if kind is Connected or kind is AnSub:
        return None if q.i else "triv-base"
    return None


class PropertySet:
    """Pending properties plus the trace justifying everything that has
    already been discharged.  Trivially true properties and interval
    assumptions never become pending: they are logged immediately.  A
    property is logged at most once, when it is first justified.

    One dict keeps the state of every property seen: True once it is
    derived (or an axiom), False while it is pending.  Each pending
    property also sits in a heap under its `selection_key`, with an
    insertion count as tie-breaker so that two properties are never
    compared; a discharged property's entry stays in the heap until it
    reaches the top."""

    def __init__(self, trace: DerivationTrace):
        self._derived: dict[Property, bool] = {}
        self.trace = trace
        self._heap: list[tuple[tuple, int, Property]] = []
        self._count = itertools.count()

    def add(self, q: Property) -> None:
        if q in self._derived:
            return
        rule = trivial_rule(q)
        if rule is not None:
            self.derive(q, (), rule)
            return
        if type(q) is Holds:
            self.trace.axiom(q)
            self._derived[q] = True
            return
        self._derived[q] = False
        heapq.heappush(self._heap, (selection_key(q), next(self._count), q))

    def derive(self, q: Property, antecedents: tuple[Property, ...], rule: str) -> None:
        """Log the step concluding q from the antecedents by rule, make
        each antecedent not yet justified pending, and discharge q."""
        for a in antecedents:
            self.add(a)
        self.trace.derive(q, antecedents, rule)
        self._derived[q] = True

    def justified(self, q: Property) -> bool:
        return self._derived.get(q, False) or trivial_rule(q) is not None

    def __contains__(self, q: Property) -> bool:
        """Whether q is pending."""
        return self._derived.get(q) is False

    def at_level(self, i: int) -> list[Property]:
        """The pending properties of level i, in the order they were added."""
        return [q for q, done in self._derived.items() if not done and q.level == i]

    def greatest(self, i: int, max_tier: Optional[int] = None) -> Optional[Property]:
        """The pending property of level i with the least selection key
        and a tier of at most max_tier, or None.  The levels are drained
        from the top down and every antecedent is at or below its
        conclusion, so nothing pending lies above level i and the top of
        the heap is the candidate, if there is one."""
        heap, derived = self._heap, self._derived
        while heap and derived[heap[0][2]]:
            heapq.heappop(heap)
        if not heap:
            return None
        (neg_level, tier, _), _, q = heap[0]
        if -neg_level > i:
            raise RuntimeError(f"{q.text()} is pending above level {i}")
        if -neg_level < i or (max_tier is not None and tier > max_tier):
            return None
        return q


class RuleCtx(NamedTuple):
    """Everything a rule instance may depend on at its construction
    level: the sample, and (after the representation has been chosen)
    the interval, ordering, and the polynomials earmarked for the
    equational projection."""

    s: Sample
    stats: RunStats
    interval: Optional[SymbolicInterval] = None
    ordering: Optional[RootOrdering] = None
    eq_set: frozenset = frozenset()


class Choice(NamedTuple):
    rule: str
    antecedents: tuple[Property, ...]
    rank: int = 0  # smaller preferred; ranks estimated computation cost
    # (kind, poly) for RunStats.add: "res", "disc" or "coeff"
    introduced: tuple[tuple[str, MPoly], ...] = ()

    def order_key(self):
        degree = max(
            (p.total_degree() for _, p in self.introduced), default=0
        )
        return (self.rank, degree, self.rule, tuple(a.text() for a in self.antecedents))


def _dedup(props: Iterable[Property]) -> tuple[Property, ...]:
    seen: list[Property] = []
    for q in props:
        if q not in seen:
            seen.append(q)
    return tuple(seen)


# ---------------------------------------------------------------------------
# rule instances per property kind


def _factors_choice(q, wrap) -> list[Choice]:
    parts = [f for f, _ in factor(q.p, "squarefree") if not f.is_constant()]
    return [Choice("factors", _dedup(wrap(f) for f in parts))]


def _eqproj_choices(p: MPoly, ell: int, ctx: RuleCtx, rank: int) -> list[Choice]:
    interval = ctx.interval
    bound = interval.lower
    prefix = ctx.s.prefix(ell - 1)
    ants = [
        AnSub(ell - 1),
        Connected(ell - 1),
        Repr(interval, prefix),
        AnDel(bound.poly),
    ]
    introduced: tuple = ()
    if p != bound.poly:
        res = resultant(bound.poly, p, ell)
        if res.is_zero():
            # a shared factor with the section polynomial: the
            # projection gives no information, the rule does not apply
            return []
        rn = _norm(res)
        ants.append(OrdInv(rn))
        introduced = (("res", rn),)
    return [Choice("eqproj", _dedup(ants), rank, introduced)]


def _sgninv_choices(q: SgnInv, ctx: RuleCtx) -> list[Choice]:
    p = q.p
    if not is_whole(p):
        return _factors_choice(q, SgnInv)
    ell = q.level
    prefix = ctx.s.prefix(ell - 1)
    roots = cached_roots(p, prefix)
    interval = ctx.interval
    if roots is NULLIFIED:
        return _eqproj_choices(p, ell, ctx, 1) if interval.is_section() else []
    if not roots:
        return [Choice("nozero", (SampleProp(prefix), AnDel(p)))]
    choices: list[Choice] = []
    in_eq = p in ctx.eq_set
    if interval.is_section():
        choices = _eqproj_choices(
            p, ell, ctx, 0 if p == interval.lower.poly else (1 if in_eq else 2)
        )
    ordering, lo, up = ctx.ordering, interval.lower, interval.upper
    if all(
        (lo is not None and ordering.le(xi, lo))
        or (up is not None and ordering.le(up, xi))
        for xi in (IndexedRoot(p, k) for k in range(1, len(roots) + 1))
    ):
        ants = (
            SampleProp(ctx.s.prefix(ell)),
            Repr(interval, prefix),
            IrOrd(ordering, prefix),
            AnDel(p),
            AnSub(ell - 1),
            Connected(ell - 1),
        )
        choices.append(Choice("sgninv-ord", ants, 2 if in_eq else 1))
    return choices


def _ordinv_choices(q: OrdInv, ctx: RuleCtx) -> list[Choice]:
    p = q.p
    if not is_whole(p):
        return _factors_choice(q, OrdInv)
    ell = q.level
    sp = ctx.s.prefix(ell)
    if sign_at(p, sp) != 0:
        return [Choice("ordinv-nonzero", (SampleProp(sp), SgnInv(p)))]
    return [
        Choice(
            "ordinv-zero",
            (SampleProp(sp), AnSub(ell - 1), Connected(ell), SgnInv(p), AnDel(p)),
        )
    ]


def _nonnull_choices(q: NonNull, ctx: RuleCtx) -> list[Choice]:
    p = q.p
    ell = q.level
    sp = ctx.s.prefix(ell)
    _, _, coeffs = coeff_info(p, p.level)
    choices: list[Choice] = []
    if any(c.is_constant() and not c.is_zero() for c in coeffs):
        choices.append(Choice("nonnull-const-coeff", ()))
    else:
        for c in coeffs:
            if c.is_zero() or c.is_constant():
                continue
            if sign_at(c, sp) != 0:
                cn = _norm(c)
                choices.append(
                    Choice(
                        "nonnull-coeff",
                        (SampleProp(sp), SgnInv(cn)),
                        1,
                        (("coeff", cn),),
                    )
                )
    return choices


def _andel_choice(q: AnDel, ctx: RuleCtx) -> list[Choice]:
    p = q.p
    ell = q.level
    _, lc, _ = coeff_info(p, p.level)
    disc = discriminant(p, p.level)
    if disc.is_zero():
        # delineability needs a square-free polynomial
        return []
    dn = _norm(disc)
    lcn = _norm(lc)
    introduced = []
    if not dn.is_constant():
        introduced.append(("disc", dn))
    if not lcn.is_constant():
        introduced.append(("coeff", lcn))
    ants = (AnSub(ell), Connected(ell), NonNull(p), OrdInv(dn), SgnInv(lcn))
    return [Choice("del", ants, 0, tuple(introduced))]


def ordering_resultants(pairs: Iterable[tuple[MPoly, MPoly]], v: int) -> list[MPoly]:
    """The normalized resultants in x_v whose order-invariance keeps the
    roots of each pair of distinct polynomials from crossing, each pair
    handled once.  A pair with a zero resultant shares a factor; its
    distinct finest factors with roots in x_v are related pairwise
    instead, and the shared factor needs no projection as it is
    delineable itself."""
    out: list[MPoly] = []
    seen: set[frozenset] = set()
    for p, q in pairs:
        if p == q:
            # one delineable polynomial cannot reorder its own roots
            continue
        key = frozenset((p, q))
        if key in seen:
            continue
        seen.add(key)
        res = resultant(p, q, v)
        if not res.is_zero():
            out.append(_norm(res))
            continue
        fp = [f for f, _ in factor(p, "finest") if f.degree(v) > 0]
        fq = [g for g, _ in factor(q, "finest") if g.degree(v) > 0]
        for f in fp:
            for g in fq:
                fkey = frozenset((f, g))
                if f != g and fkey not in seen:
                    seen.add(fkey)
                    out.append(_norm(resultant(f, g, v)))
    return out


def _irord_choice(q: IrOrd, ctx: RuleCtx) -> list[Choice]:
    ell = len(q.s)
    ants: list[Property] = [SampleProp(q.s), AnSub(ell), Connected(ell)]
    for poly in sorted({xi.poly for xi in q.ord.dom()}, key=MPoly.sort_key):
        ants.append(AnDel(poly))
    pairs = sorted(
        q.ord.pairs,
        key=lambda ab: (ab[0].poly.sort_key(), ab[0].index, ab[1].poly.sort_key()),
    )
    res = ordering_resultants(((a.poly, b.poly) for a, b in pairs), ell + 1)
    ants.extend(OrdInv(r) for r in res)
    introduced = tuple(("res", r) for r in res)
    return [Choice("irord", _dedup(ants), 0, introduced)]


def _connected_choices(q: Connected, ctx: RuleCtx) -> list[Choice]:
    i = q.i
    if i == 1:
        return [Choice("connected-base", ())]
    interval = ctx.interval
    prefix = ctx.s.prefix(i - 1)
    base = (Connected(i - 1), Repr(interval, prefix))
    if interval.is_section():
        return [Choice("connected-section", base)]
    if interval.lower is None or interval.upper is None:
        return [Choice("connected-inf", base)]
    if not ctx.ordering.le(interval.lower, interval.upper):
        return []
    return [Choice("connected-sector", base + (IrOrd(ctx.ordering, prefix),))]


def _ansub_choices(q: AnSub, ctx: RuleCtx) -> list[Choice]:
    prefix = ctx.s.prefix(q.i - 1)
    return [Choice("submanifold", (Repr(ctx.interval, prefix), AnSub(q.i - 1)))]


def _sample_choices(q: SampleProp, ctx: RuleCtx) -> list[Choice]:
    prefix = q.s.prefix(len(q.s) - 1)
    return [Choice("sample-prefix", (Repr(ctx.interval, prefix), SampleProp(prefix)))]


def _repr_choice(q: Repr, ctx: RuleCtx) -> list[Choice]:
    ants = [SampleProp(q.s), Holds(q.I)]
    for b in q.I.bound_roots():
        ants.append(AnDel(b.poly))
    return [Choice("repr", _dedup(ants))]


# Holds is the axiom: no rule concludes it
_CHOICES = {
    SgnInv: _sgninv_choices,
    OrdInv: _ordinv_choices,
    NonNull: _nonnull_choices,
    AnDel: _andel_choice,
    IrOrd: _irord_choice,
    Connected: _connected_choices,
    AnSub: _ansub_choices,
    SampleProp: _sample_choices,
    Repr: _repr_choice,
    Holds: lambda q, ctx: [],
}


def rule_choices(q: Property, ctx: RuleCtx) -> list[Choice]:
    """All rule instances that can conclude q under ctx."""
    return _CHOICES[type(q)](q, ctx)


def apply_pre(Q: PropertySet, q: Property, ctx: RuleCtx) -> None:
    """Replace the pending property q by the antecedents of one
    applicable rule instance.  A sole instance is taken directly; among
    several, prefers those whose antecedents are all justified already,
    then ranks by estimated cost, then by the degree of the polynomial
    the instance would introduce."""
    choices = rule_choices(q, ctx)
    if len(choices) == 1:
        chosen = choices[0]
    elif not choices:
        raise ConstructionFailed(f"no applicable rule for {q.text()}")
    else:
        covered = [
            c
            for c in choices
            if all(a in Q or Q.justified(a) for a in c.antecedents)
        ]
        chosen = min(covered or choices, key=Choice.order_key)
    for kind, poly in chosen.introduced:
        ctx.stats.add(kind, poly)
    Q.derive(q, chosen.antecedents, chosen.rule)
