"""Real algebraic numbers and exact sign evaluation at sample points.

A `RealAlg` is either an exact rational or a root of a square-free
integer polynomial, its tuple, pinned down by an open isolating interval
whose rational endpoints are no roots of the tuple; it is refined and
compared by the tuple.  Its identity, the irreducible factor of the
tuple that changes sign on the interval with the root's canonical index
among that factor's roots, is found on first demand (`RealAlg._resolve`)
and kept, and a linear factor makes the value that rational.  `key`,
hash, text (`realalg_to_text`), `is_rational`, `canonical_index`,
`canonical_copy` and every coordinate of a `Sample` ask for it.  Two
values compare equal exactly when they are the same real number: roots
of one tuple by position, and otherwise by `RealAlg._meets`.  Hash and
text depend only on the identity, and `canonical_copy` passes them on.
Definitions are integer-primitive with a positive leading coefficient.
A value is built by `RealAlg.rational` or by root isolation
(`isolate_real_roots`, `roots_in_extension`), the only way to an
irrational one.  Enclosures are integer boxes (a, b, d), lo = a/d and
hi = b/d over one positive d, halved at (a + b) / 2d, from the bisection
on, and every helper below works on them; `enclosure` and `separate`
are the Fraction views.  Only `separate` and `line_samples` take
canonical copies, and read their answers off them.

This module is the one home of the exact-real helpers the rest of the
package builds on: `RealAlg.compare` (and `<`, so lists of values sort
with `sorted`), `value_ranks` for the value order of a list as integer
ranks (the one sort behind `line_samples` and the heuristics'
decisions), `_gap` for the one separation of two values, an end open
or not, and `separate` its view, `_simplest` for the simplest rational
inside such a gap (on numerators and denominators), `line_samples` for
one point of every region of the line cut at given values, with each
region's position (cut k at 2k + 1, the sector below it at 2k) and
each value's, off which `explain.sweep` reads its answers; a
definition's polynomial is `polynomial._upoly` of its coefficients,
and the other way, the integer-primitive coefficient tuple of a
polynomial comes from `polynomial.dense`.

Root isolation works on integer coefficient tuples (`_real_roots`): it
splits a tuple into Yun's square-free parts by `polynomial.factor_dense`
in ``squarefree`` mode, the package's one univariate factor kernel,
finishes a part of degree <= 2 by the closed form, and bisects each
other part driven by Descartes' rule of signs on integer coefficients:
the Cauchy-bound interval is mapped onto (0, 1) once, and each half
gets its polynomial from its parent's by a power-of-2 scaling and a
Taylor shift by 1, all additions (`_bisect_roots`).  A midpoint that is
a root of the part, in the bisection or in a later refinement, is that
rational root.  The boxes of a tuple, each divided by the gcd of its
integers, are computed once and kept in `memo.CANONICAL` (a bounded
table; a dropped entry is bisected again to the same boxes): an
isolated root starts out with its part's box, and the boxes of an
irreducible factor fix which root `canonical_index` names and start
every canonical copy.  Over a prefix whose coordinates of p's
variables are rational, the empty one too, the tuple comes from one
pass over p's terms on integers (`MPoly._fiber`): no polynomial is built.
When p involves an irrational coordinate, root finding eliminates each
algebraic coordinate through resultants with its defining polynomial,
producing a rational candidate polynomial whose roots include the roots
sought.  When a resultant vanishes, the defining polynomial, being
irreducible, divides the eliminand and is divided out first
(`_candidate_poly`).  Root finding counts, then refines: the signs at
the sample of the principal subresultant coefficients of p and its
derivative (`polynomial.subresultant_coefficients`, computed on each
count, not kept) give the number of distinct real roots
(`_root_count`), and interval evaluation drops candidates until that
many are left, with no zero test per candidate.  `cached_roots` keeps
these roots in `memo.ROOTS`, once for p and its constant multiples.

The sign test, `sign_at`, evaluates p over the coordinate enclosures
and refines them until the interval value excludes 0.  Its bounds,
the sum of the terms' ranges, are integers over one positive scale,
and over it they are the term-wise Fraction bounds (`_interval_eval`).
It is the one refinement loop of the sign, and each round moves only
the irrational coordinates of p's variables.  At the first round that
straddles 0, `_is_zero` decides p(s) = 0 exactly: by one integer
pseudo-remainder when p has one variable at an irrational coordinate,
and otherwise by finding the last one among the roots over the shorter
prefix below it (`cached_roots`).  The zero test serves `sign_at`
only: root finding never asks it at a candidate root.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from . import memo
from .polynomial import (
    MPoly,
    coeff_info,
    dense,
    discriminant,
    exact_div,
    factor_dense,
    normalize,
    poly_to_str,
    resultant,
    subresultant_coefficients,
    _gcd_heuristic,
    _prem,
    _primitive,
    _rational,
    _trim,
    _upoly,
)


class _Sentinel:
    """A named marker value compared by identity, of a fixed truth."""

    def __init__(self, name: str, truth: bool):
        self._name, self._truth = name, truth

    def __repr__(self):
        return self._name

    def __bool__(self):
        return self._truth


# a polynomial specialized to the zero polynomial
NULLIFIED = _Sentinel("NULLIFIED", True)
# an indexed root expression without a value
UNDEF = _Sentinel("UNDEF", False)


# ---------------------------------------------------------------------------
# dense univariate helpers (coefficient lists, index = degree)


def _usign(c: Sequence[int], a: int, b: int) -> int:
    """Sign of the integer c (a primitive definition) at x = a/b, b > 0:
    the sign of c(a/b) * b^n, by homogeneous Horner on integers."""
    t, w = 0, 1
    for k in reversed(c):
        t = t * a + k * w
        w *= b
    return (t > 0) - (t < 0)


def _taylor_shift1(c: Sequence[int]) -> list[int]:
    """Coefficients of c(x + 1), by additions only."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += c[k + 1]
    return c


def _variations(c: Sequence[int]) -> int:
    signs = [x > 0 for x in c if x]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


# ---------------------------------------------------------------------------
# RealAlg


class RealAlg:
    """A real algebraic number: a rational, or an isolated root of a
    square-free integer tuple `_sqf` of degree >= 2, the `_pos`-th of
    its real roots, enclosed in `_box = (a, b, d)`: lo = a/d and hi =
    b/d, d > 0, neither a root of `_sqf`.  Its identity, the
    irreducible factor `_def` of `_sqf` with a root in the box, is
    found on first demand (`_resolve`); from then on `_sqf` is `_def`
    and `_pos` the canonical index, or the value is that rational.
    Values come from `RealAlg.rational` and from root isolation only."""

    __slots__ = ("_rat", "_sqf", "_pos", "_box", "_slo", "_def", "_text", "_hash")

    def __init__(self):
        raise TypeError("use RealAlg.rational, or isolate_real_roots for an algebraic value")

    @classmethod
    def rational(cls, r) -> "RealAlg":
        """The rational r; TypeError unless r is an int or a Fraction."""
        self = object.__new__(cls)
        self._set_rational(_rational(r))
        self._def = self._text = self._hash = None
        return self

    def _set_rational(self, r: Fraction) -> None:
        self._rat, self._sqf, self._pos, self._slo = r, None, None, 0
        self._box = (r.numerator, r.numerator, r.denominator)

    @classmethod
    def _root(cls, c: tuple[int, ...], box: tuple[int, int, int], pos: int, defn) -> "RealAlg":
        """The `pos`-th real root of the square-free integer-primitive c
        with a positive leading coefficient, isolated by the box, whose
        ends are no roots of c; `defn` is c when c is irreducible."""
        self = object.__new__(cls)
        self._rat, self._sqf, self._pos, self._def, self._box = None, c, pos, defn, box
        self._slo = _usign(c, box[0], box[2])
        self._text = self._hash = None
        return self

    def _resolve(self) -> None:
        """Find the identity of a value that has none yet: the factor f
        of `_sqf` (`factor_dense`) that changes sign on the box, the one
        with a root there.  A linear f makes the value that rational.
        Otherwise its canonical index is that of the canonical interval
        of f over whose overlap with the box f changes sign, and the
        value is refined by f from then on."""
        c, (a, b, d) = self._sqf, self._box
        f = next(f for f, _ in factor_dense(c) if _usign(f, a, d) != _usign(f, b, d))
        if len(f) == 2:
            self._set_rational(Fraction(-f[0], f[1]))
            return
        if f != c:
            k = next(k for k, box in enumerate(_canonical_intervals(f), 1)
                     if _changes_sign(f, box, self._box))
            self._sqf, self._pos, self._slo = f, k, _usign(f, a, d)
        self._def = f

    # -- basic views --------------------------------------------------

    def is_rational(self) -> bool:
        """Whether the value is rational; finds its identity first."""
        if self._rat is None and self._def is None:
            self._resolve()
        return self._rat is not None

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self._rat

    def enclosure(self) -> tuple[Fraction, Fraction]:
        a, b, d = self._box
        return Fraction(a, d), Fraction(b, d)

    def refine(self) -> None:
        """Halve the box, keeping the half where `_sqf` changes sign; a
        midpoint root is the value, which becomes that rational."""
        if self._rat is not None:
            return
        a, b, d = self._box
        m = a + b
        s = _usign(self._sqf, m, d << 1)
        if s == self._slo:
            self._box = (m, b << 1, d << 1)
        elif s:
            self._box = (a << 1, m, d << 1)
        else:
            self._set_rational(Fraction(m, d << 1))

    def canonical_copy(self) -> "RealAlg":
        """The same value with an enclosure of its own that starts at its
        canonical isolating interval, so what is read off the copy does
        not depend on how far earlier work refined this one."""
        if self.is_rational():
            return self
        k, f = self._pos, self._def
        out = RealAlg._root(f, _canonical_intervals(f)[k - 1], k, f)
        out._text, out._hash = self._text, self._hash
        return out

    def key(self):
        """Canonical identity: hashable, stable under refinement."""
        if self.is_rational():
            return ("rat", self._rat)
        return ("alg", self._def, self._pos)

    def canonical_index(self) -> int | None:
        """1-based position among the real roots of the definition."""
        return None if self.is_rational() else self._pos

    # -- comparison ---------------------------------------------------

    def compare(self, other: "RealAlg") -> int:
        """-1, 0, or 1 as self <, =, > other; exact.  Roots of one tuple
        compare by position; otherwise the boxes are refined until they
        separate, once `_meets` has shown the values distinct."""
        if self._rat is not None and other._rat is not None:
            a, b = self._rat, other._rat
            return 0 if a == b else (-1 if a < b else 1)
        if self._sqf is not None and self._sqf == other._sqf:
            i, j = self._pos, other._pos
            return 0 if i == j else (-1 if i < j else 1)
        distinct = False
        while True:
            (a, b, d), (e, f, g) = self._box, other._box
            if b * g <= e * d:
                return -1
            if f * d <= a * g:
                return 1
            if not distinct:
                if self._meets(other):
                    return 0
                distinct = True
            self.refine()
            other.refine()

    def _meets(self, other: "RealAlg") -> bool:
        """Whether self = other, for overlapping boxes, not both rational
        and not on one tuple.  A rational r in the box of x is x exactly
        when `_sqf` of x vanishes at r, and x then becomes r.  Distinct
        definitions share no root.  Otherwise the values are equal
        exactly when g, the gcd of their tuples, has a root in the
        overlap of the boxes, each of which holds one root of its tuple:
        no endpoint is a root of g, so then g changes sign there."""
        x, y = (self, other) if other._rat is not None else (other, self)
        if y._rat is not None:
            r = y._rat
            if x._def is not None or _usign(x._sqf, r.numerator, r.denominator):
                return False
            x._set_rational(r)
            return True
        if x._def is not None and y._def is not None:
            return False
        g = _gcd_heuristic(x._sqf, y._sqf)[0]
        return len(g) > 1 and _changes_sign(g, x._box, y._box)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealAlg):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0 if isinstance(other, RealAlg) else NotImplemented

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0 if isinstance(other, RealAlg) else NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        """The text and the enclosure as it stands: refines nothing."""
        if self._rat is not None:
            return f"RealAlg({self._rat})"
        lo, hi = self.enclosure()
        return f"RealAlg({realalg_to_text(self)} in ({lo}, {hi}))"


def _changes_sign(c: Sequence[int], box: tuple[int, int, int],
                  other: tuple[int, int, int]) -> bool:
    """Whether c changes sign over the overlap of two boxes, whose ends
    are no roots of c: false when the overlap is empty."""
    (a, b, d), (e, f, h) = box, other
    lo = (a, d) if a * h >= e * d else (e, h)
    hi = (b, d) if b * h <= f * d else (f, h)
    return lo[0] * hi[1] < hi[0] * lo[1] and _usign(c, *lo) != _usign(c, *hi)


def separate(lo: RealAlg | None, hi: RealAlg | None) -> tuple[Fraction, Fraction]:
    """`_gap` as Fractions, on canonical copies of lo and hi (None for an
    open end): it depends only on the values, and refines neither."""
    b, d, e, g = _gap(*(None if v is None else v.canonical_copy() for v in (lo, hi)))
    return Fraction(b, d), Fraction(e, g)


def _gap(lo: RealAlg | None, hi: RealAlg | None) -> tuple[int, int, int, int]:
    """The one separation: the gap (b/d, e/g), d, g > 0, between lo < hi
    once their boxes, refined in place, are disjoint; an open end, None,
    gives a gap of width 1 next to the other box.  ValueError unless lo
    < hi, which `compare` settles first: equal values never separate."""
    if lo is None:
        a, _, d = hi._box
        return a - d, d, a, d
    if hi is None:
        _, b, d = lo._box
        return b, d, b + d, d
    if lo.compare(hi) >= 0:
        raise ValueError("no gap: the lower value is not below the upper")
    while True:
        (_, b, d), (e, _, g) = lo._box, hi._box
        if b * g < e * d:
            return b, d, e, g
        lo.refine()
        hi.refine()


def value_ranks(values: Sequence[RealAlg]) -> list[int]:
    """Each value's position among the sorted distinct values: equal
    values share a rank, and the ranks run from 0 without gaps.  Each
    value is compared with the first value of its rank group."""
    ranks = [0] * len(values)
    order = sorted(range(len(values)), key=values.__getitem__)
    rank, first = 0, order[0] if order else None
    for i in order[1:]:
        if values[first] != values[i]:
            rank, first = rank + 1, i
        ranks[i] = rank
    return ranks


def _simplest(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The smallest-denominator rational strictly between a/b and c/d,
    b, d > 0, ties broken toward the smaller magnitude, as a coprime
    numerator and denominator, by the continued fraction: in a positive
    gap with lower floor t it is t + 1, t + 1/k, or t + 1/y for y the
    simplest in the inverted gap; (p, p1, q, q1) keeps the map from y to
    the answer."""
    if a * d >= c * b:
        raise ValueError("empty interval")
    if a < 0 < c:
        return 0, 1
    if c <= 0:
        p, q = _simplest(-c, d, -a, b)
        return -p, q
    p, p1, q, q1 = 1, 0, 0, 1
    while True:
        t = a // b
        if (t + 1) * d < c:
            return p * (t + 1) + p1, q * (t + 1) + q1
        if a == t * b:
            k = d // (c - t * d) + 1
            return p * (t * k + 1) + p1 * k, q * (t * k + 1) + q1 * k
        p, p1, q, q1 = p * t + p1, p, q * t + q1, q
        a, b, c, d = d, c - t * d, b, a - t * b


def line_samples(values: Iterable[RealAlg]) -> tuple[list[RealAlg], list[int], list[int]]:
    """A point of every region of the real line cut at the values, with
    the regions' positions: cut k, the k-th of the sorted distinct
    canonical copies of the values, is at 2k + 1 and the sector below it
    at 2k.  The points are 0, the simplest rational in each `_gap` below,
    between and above the cuts, then the cuts; returns them, their
    positions and each value's position.  The gaps are taken before 0 is
    placed, so no other comparison moves the copies they are read off."""
    copies = [v.canonical_copy() for v in values]
    ranks = value_ranks(copies)
    first: dict[int, RealAlg] = {}
    for v, k in zip(copies, ranks):
        first.setdefault(k, v)
    cuts = [first[k] for k in range(len(first))]
    ends = [None, *cuts, None] if cuts else []
    gaps = [_simplest(*_gap(lo, hi)) for lo, hi in zip(ends, ends[1:])]
    zero, m = RealAlg.rational(0), len(cuts)
    # the points of k sectors are below 0 (the gaps' numerators rise):
    # 0 is in sector 0 when k = 0 and in sector m when k = m + 1, else
    # it is the point of sector k or lies between the points of sectors
    # k - 1 and k, where comparing it with cut k - 1 places it
    k = bisect_left(gaps, (0,))
    at = [2 * k - 1 + zero.compare(cuts[k - 1]) if 0 < k <= m and gaps[k][0] else 2 * min(k, m)]
    if cuts:
        at += [*range(0, 2 * m + 1, 2), *range(1, 2 * m, 2)]
    points = [zero, *(RealAlg.rational(Fraction(*g)) for g in gaps), *cuts]
    return points, at, [2 * r + 1 for r in ranks]


# ---------------------------------------------------------------------------
# isolation


def _bisect_roots(c: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Isolating boxes of the real roots of the primitive square-free c,
    in increasing order, each divided by its gcd, a rational root r at a
    midpoint as the box of (r, r): Descartes bisection of (-B, B), B = 1
    + max |c_i| / |lead| the Cauchy bound (Collins & Akritas 1976), on
    integer coefficients with Taylor shifts (Rouillier & Zimmermann 2004).

    The node of (a, b) holds q(x) = p(a + (b - a) x) times a positive
    constant, an integer polynomial whose roots in (0, 1) are those of p
    in (a, b).  The sign variations of (x + 1)^n q(1 / (x + 1)), the
    reversed q shifted by 1, bound their number: 0 drops the node, 1
    keeps (a, b) unless a or b is a root, and otherwise the halves (a,
    m) and (m, b) get 2^n q(x / 2) and that shifted by 1, whose constant
    term is 0 when m is a root.  An irreducible c has no rational root,
    and then no midpoint is one.  Left halves go first, so the boxes come
    out in order."""
    n = len(c) - 1
    den = abs(c[-1])
    num = den + max(abs(x) for x in c[:-1])
    # den^n p(num y / den) at y = 2x - 1, which maps (0, 1) onto (-1, 1); the
    # shift by -1 is a shift by 1 between two sign flips of odd terms
    q = [x * num**i * den ** (n - i) for i, x in enumerate(c)]
    q = _taylor_shift1([-x if i % 2 else x for i, x in enumerate(q)])
    q = [(-x if i % 2 else x) << i for i, x in enumerate(q)]
    g = math.gcd(*q)

    # node (k, j) is the interval -B + 2B (j, j + 1) / 2^k, (k, j, None) the
    # midpoint root -B + 2B j / 2^k; box(u, v, k) is -B + 2B (u, v) / 2^k
    def box(u: int, v: int, k: int) -> tuple[int, int, int]:
        a, b, d = num * (2 * u - (1 << k)), num * (2 * v - (1 << k)), den << k
        e = math.gcd(a, b, d)
        return a // e, b // e, d // e

    stack = [(0, 0, [x // g for x in q])]
    boxes = []
    while stack:
        k, j, q = stack.pop()
        if q is None:
            boxes.append(box(j, j, k))
            continue
        t = _taylor_shift1(q[::-1])
        v = _variations(t)
        if v == 1 and q[0] and t[0]:  # neither end, q(0) nor q(1), is a root
            boxes.append(box(j, j + 1, k))
        elif v:
            left = [x << (n - i) for i, x in enumerate(q)]
            right = _taylor_shift1(left)
            stack.append((k + 1, 2 * j + 1, right))
            if not right[0]:
                stack.append((k + 1, 2 * j + 1, None))
            stack.append((k + 1, 2 * j, left))
    return boxes


def _canonical_intervals(c: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The isolating boxes of the primitive square-free c, in increasing
    order, bisected once per tuple while it stays in `memo.CANONICAL`:
    Yun's parts that root isolation bisects, and the irreducible factors
    whose boxes fix the canonical index and start every canonical copy."""
    return memo.CANONICAL.fetch(c, _bisect_roots, c)


def _isolate(c: tuple[int, ...], defn=None) -> list[RealAlg]:
    """The real roots of the integer-primitive square-free c of degree
    >= 2 with a positive leading coefficient, in increasing order;
    `defn` is c when c is known irreducible."""
    return [
        RealAlg.rational(Fraction(a, d)) if a == b else RealAlg._root(c, (a, b, d), k, defn)
        for k, (a, b, d) in enumerate(_canonical_intervals(c), 1)
    ]


def isolate_real_roots(p: MPoly) -> list[RealAlg]:
    """Sorted distinct real roots of a univariate polynomial: those of
    its coefficient tuple (`_real_roots`)."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(p.variables()) > 1:
        raise ValueError(f"{p} is not univariate")
    if p.is_constant():
        return []
    return _real_roots(_primitive(dense(p, p.level)))


def _real_roots(c: tuple[int, ...]) -> list[RealAlg]:
    """Sorted distinct real roots of the integer-primitive c with a
    positive leading coefficient: the bisected roots of each of Yun's
    square-free parts (`factor_dense` in ``squarefree`` mode), whose
    identities wait until asked for.  A part of degree <= 2, and c when
    it is that small, is split by the closed form first: a rational for
    each linear factor, none for an irreducible quadratic of negative
    discriminant, and the bisected roots of any other, identities
    known."""
    roots: list[RealAlg] = []
    for f, _m in factor_dense(c, "squarefree") if len(c) > 3 else [(c, 1)]:
        if len(f) > 3:
            roots.extend(_isolate(f))
            continue
        for g, _ in factor_dense(f):
            if len(g) == 2:
                roots.append(RealAlg.rational(Fraction(-g[0], g[1])))
            elif g[1] ** 2 >= 4 * g[0] * g[2]:
                roots.extend(_isolate(g, g))
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# samples


class Sample(tuple):
    """A point in R^i with real algebraic coordinates (coordinate j is
    bound to x_j).  Prefixes are themselves samples.  Each coordinate
    has its identity, which memo keys, text and the zero test read."""

    def __new__(cls, coords: Iterable):
        vals = []
        for c in coords:
            if isinstance(c, RealAlg):
                if c._rat is None and c._def is None:
                    c._resolve()
                vals.append(c)
            else:
                vals.append(RealAlg.rational(c))
        return super().__new__(cls, vals)

    def prefix(self, i: int) -> "Sample":
        # the coordinates are RealAlgs already: no need to check them again
        return tuple.__new__(Sample, self[:i])

    def extend(self, coord) -> "Sample":
        # only the new coordinate needs the checks of the constructor
        return tuple.__new__(Sample, self + Sample((coord,)))

    def __repr__(self) -> str:
        return "Sample(" + ", ".join(realalg_to_text(c) for c in self) + ")"


# ---------------------------------------------------------------------------
# sign evaluation


def _interval_pow(lo: int, hi: int, k: int) -> tuple[int, int]:
    """The range of x^k, k >= 1, over lo <= x <= hi."""
    if k % 2 == 1 or lo >= 0:
        return lo**k, hi**k
    if hi <= 0:
        return hi**k, lo**k
    return 0, max(lo**k, hi**k)


def _interval_eval(p: MPoly, boxes: Sequence[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Bounds lo/scale <= p <= hi/scale, scale > 0, over the box of the
    [a_j/d_j, b_j/d_j] given as (a_j, b_j, d_j), d_j > 0: the sum of the
    terms' ranges, computed on integers.  With e_j the degree of p in
    x_j, each term's bounds times scale = lcm(coefficient denominators)
    * prod d_j^e_j are integers, and over scale they are the term-wise
    Fraction bounds."""
    terms = p._terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    scale, pows = den, []
    for j, d in enumerate(p._degree_tuple()):
        if d:
            a, b, L = boxes[j]
            pw = [(L**d, L**d)]
            for k in range(1, d + 1):
                plo, phi = _interval_pow(a, b, k)
                pw.append((plo * L ** (d - k), phi * L ** (d - k)))
            pows.append((j, pw))
            scale *= L**d
    lo_t = hi_t = 0
    for e, c in terms.items():
        tlo = thi = c.numerator * (den // c.denominator)
        for j, pw in pows:
            plo, phi = pw[e[j] if j < len(e) else 0]
            cands = (tlo * plo, tlo * phi, thi * plo, thi * phi)
            tlo, thi = min(cands), max(cands)
        lo_t += tlo
        hi_t += thi
    return lo_t, hi_t, scale


def sign_at(p: MPoly, s: Sample) -> int:
    """Exact sign of p at s.

    Rational points are evaluated exactly.  Otherwise the interval value
    of p over the coordinate enclosures decides the sign as soon as it
    excludes 0.  Each round refines the irrational coordinates of p's
    variables once, and no other coordinate of s.  At the first round
    that straddles 0, the exact test `_is_zero` is asked once, whatever
    the number of irrational coordinates: it settles p(s) = 0, or
    p(s) != 0, whose sign the rounds then show.  The test refines only
    coordinates of p's variables, through the roots over a prefix.
    """
    if p.is_constant():
        v = p._terms.get((), 0)
        return (v > 0) - (v < 0)
    if p.level > len(s):
        raise ValueError("sample has too few coordinates")
    moving = [s[v - 1] for v in p.variables() if s[v - 1]._rat is None]
    if not moving:
        v, _ = p._eval_scaled([c._rat for c in s])
        return (v > 0) - (v < 0)
    lo, hi, _ = _interval_eval(p, [c._box for c in s])
    if lo <= 0 <= hi and _is_zero(p, s):
        return 0
    while lo <= 0 <= hi:
        for c in moving:
            c.refine()
        lo, hi, _ = _interval_eval(p, [c._box for c in s])
    return 1 if lo > 0 else -1


def _rational_part(p: MPoly, s: Sample) -> MPoly:
    """p with the rational coordinates of s substituted."""
    return p.subst_rational({j + 1: c._rat for j, c in enumerate(s) if c._rat is not None})


def _is_zero(p: MPoly, s: Sample) -> bool:
    """Whether p(s) = 0, exactly.

    Let q be p with the rational coordinates substituted, so that every
    variable of q sits at an irrational coordinate, and x_k its last.
    When x_k is q's only variable, the definition d_k of s_k is
    irreducible, so it is the minimal polynomial of s_k up to a
    constant, and q(s_k) = 0 exactly when d_k divides q: one integer
    pseudo-remainder settles it.  Otherwise p(s) = 0 exactly when
    q(s_1..s_(k-1), x_k) is zero or has s_k among its real roots, which
    `cached_roots` gives over the prefix.  The membership test compares
    values exactly, equal ones without separating them
    (`RealAlg.compare`); the roots over the prefix ask this test only at
    points with fewer coordinates."""
    q = _rational_part(p, s)
    if q.is_constant():
        return q.is_zero()
    k = q.level
    if len(q.variables()) == 1:
        c, d = dense(q, k), s[k - 1]._def
        return len(c) >= len(d) and not _prem(c, d)
    roots = cached_roots(q, s.prefix(k - 1))
    return roots is NULLIFIED or s[k - 1] in roots


# ---------------------------------------------------------------------------
# roots of a polynomial over an extended sample


def cached_roots(p: MPoly, s: Sample):
    """roots_in_extension(p, s), kept in `memo.ROOTS` under p's normal
    form: for a nonzero rational c, c * p has p's roots over s and is
    nullified when p is, so p and its constant multiples share one entry,
    the roots of `normalize(p)`.  Later calls share the values and the
    refinement of their enclosures, so `separate` and `line_samples`,
    where an output depends on an enclosure, read canonical copies."""
    q = normalize(p)
    return memo.ROOTS.fetch((q, tuple(c.key() for c in s)), roots_in_extension, q, s)


def roots_in_extension(p: MPoly, s: Sample):
    """Sorted distinct real roots of p(s, x_i) where i = level(p) and s
    has length i - 1; NULLIFIED when the specialization is identically
    zero.

    When the coordinates of p's variables below x_i are rational, the
    coefficients of p(s, x_i) come from one pass over p's terms on
    integers (`MPoly._fiber`), and the irrational coordinates of the other
    variables are never read.  Otherwise p is first truncated to e, its
    degree at s, read off the signs of its coefficients in x_i from the
    top down.
    The roots are counted (`_root_count`), and the candidates
    (`_candidate_poly`) at which the interval value of p over the
    enclosures excludes 0 are dropped, refining p's irrational
    coordinates and the candidates between rounds, until that many
    remain.  A root is never dropped, so fewer
    than counted raises RuntimeError."""
    i = p.level
    if i != len(s) + 1:
        raise ValueError("level(p) must be len(s) + 1")
    point = [c._rat for c in s]  # None at an irrational coordinate
    if all(point[v - 1] is not None for v in p.variables() if v < i):
        c = _trim(p._fiber(point, i)[0])
        return _real_roots(_primitive(c)) if c else NULLIFIED
    _, _, coeffs = coeff_info(p, i)
    e = next((k for k in range(len(coeffs) - 1, -1, -1) if sign_at(coeffs[k], s)), None)
    if e is None:
        return NULLIFIED
    if e < len(coeffs) - 1:
        p = MPoly._canonical({m: c for m, c in p._terms.items()
                              if len(m) < i or m[i - 1] <= e})
    k = _root_count(p, e, s)
    if not k:
        return []
    roots = isolate_real_roots(_candidate_poly(p, s))
    moving = [s[v - 1] for v in p.variables() if v < i and s[v - 1]._rat is None]
    while len(roots) > k:
        boxes = [c._box for c in s]
        roots = [r for r in roots if _straddles(p, boxes + [r._box])]
        if len(roots) > k:
            for c in moving + roots:
                c.refine()
    if len(roots) < k:
        raise RuntimeError(f"{len(roots)} roots of {p} over {s}, counted {k}")
    return roots


def _straddles(p: MPoly, boxes: list[tuple[int, int, int]]) -> bool:
    """Whether the interval value of p over the boxes holds 0."""
    lo, hi, _ = _interval_eval(p, boxes)
    return lo <= 0 <= hi


def _root_count(p: MPoly, e: int, s: Sample) -> int:
    """The number of distinct real roots of p(s, x_i), i = len(s) + 1,
    for p of degree e in x_i whose leading coefficient is nonzero at s:
    PmV(lc, eps_1 psc_(e-1), eps_2 psc_(e-2), ..., eps_e psc_0) of the
    signs at s, with psc_j the principal subresultant coefficients
    of p and dp/dx_i, and eps_m = (-1)^(m(m-1)/2), whose products with
    the psc_j are the signed subresultant coefficients (Basu, Pollack and
    Roy, *Algorithms in Real Algebraic Geometry*, Thm. 4.31 with Q = P').
    PmV (their Def. 4.30) counts, between consecutive nonzero entries an
    odd distance d apart, eps_d times the sign of their product, and
    nothing across an even distance.  Degree e <= 1 has e roots, and
    degree 2 has 1 + sign(disc) roots, disc the memoized discriminant,
    since psc_0 = -lc * disc there."""
    if e <= 1:
        return e
    i = p.level
    if e == 2:
        return 1 + sign_at(discriminant(p, i), s)
    psc = subresultant_coefficients(p, i)
    signs = [_eps(m) * sign_at(psc[e - m], s) for m in range(1, e + 1)]
    signs.insert(0, signs[0])  # lc and psc_(e-1) = e * lc share a sign
    nonzero = [(m, x) for m, x in enumerate(signs) if x]
    return sum(_eps(b - a) * x * y for (a, x), (b, y) in zip(nonzero, nonzero[1:])
               if (b - a) % 2)


def _eps(m: int) -> int:
    """(-1)^(m(m-1)/2)."""
    return -1 if m * (m - 1) // 2 % 2 else 1


def _candidate_poly(p: MPoly, s: Sample) -> MPoly:
    """A polynomial in x_i alone whose roots include every root of
    p(s, x_i): the rational coordinates are substituted, and each
    irrational x_j is eliminated by a resultant against its defining
    polynomial d_j.

    A zero resultant Res_{x_j}(q, d_j) means that q and d_j share a
    factor; d_j is irreducible, so it divides q and is divided out until
    the resultant is nonzero or q no longer involves x_j.  Up to a
    constant, q is the product of p over the conjugates of the
    coordinates eliminated so far.  The factor at s itself is not
    divisible by x_j - s_j, since p(s, x_i) is not identically zero, so
    every power of d_j in q comes from the other factors and the
    quotient still vanishes at p(s)'s roots."""
    q = _rational_part(p, s)
    for j, c in enumerate(s, 1):
        if c._rat is not None:
            continue
        d = _upoly(c._def, j)
        while q.degree(j) > 0:
            r = resultant(q, d, j)
            if not r.is_zero():
                q = r
                break
            q = exact_div(q, d)
    return q


# ---------------------------------------------------------------------------
# text form


def realalg_to_text(a: RealAlg) -> str:
    """The text form, rendered on the first call and kept on a."""
    if a._text is None:
        a._text = _render(a)
    return a._text


def _render(a: RealAlg) -> str:
    if a.is_rational():
        return str(a.rational_value())
    return f'(root {poly_to_str(_upoly(a._def, 1))} {a._pos})'


# ASCII only: \d would match other scripts' digits, which Fraction reads
_NUMERAL = re.compile(r"[+-]?(\d+(/\d+)?|\d+\.\d*|\.\d+)", re.ASCII)


def rational_from_text(text: str) -> Fraction:
    """The value of a numeral: an optional sign, then digits with an
    optional /digits, or a decimal.  Anything else raises ValueError
    before any big-integer work, and so does a zero denominator; that
    includes the exponents and `_` separators `Fraction` reads, on which
    it can spend unbounded time (1e20000000)."""
    if not _NUMERAL.fullmatch(text):
        raise ValueError(f"not a numeral: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
