"""Real algebraic numbers and exact sign evaluation at sample points.

A `RealAlg` is either an exact rational or a root of an irreducible
integer polynomial pinned down by an open isolating interval with
rational endpoints.  The defining polynomial is stored integer-primitive
with a positive leading coefficient, and `RealAlg.algebraic` refuses a
reducible one, so a value has one definition.  Refining the interval
never changes the value, and two values compare equal exactly when they
are the same real number.

This module is the one home of the exact-real helpers the rest of the
package builds on: `RealAlg.compare` (and `<`, so lists of values sort
with `sorted`), `sorted_distinct` for sorted values without duplicates,
`separate` for the rational gap between two distinct values, and the
conversions between univariate `MPoly` and coefficient lists
(`_upoly_coeffs`, `_upoly`).

Root isolation factors through `polynomial.factor`, the package's one
boundary to sympy (closed forms up to degree 2, sympy's dense integer
factorization above), and bisects each irreducible factor driven by
Descartes' rule of signs on integer coefficients: the Cauchy-bound
interval is mapped onto (0, 1) once, and each half gets its polynomial
from its parent's by a power-of-2 scaling and a Taylor shift by 1, all
additions (`_bisect_roots`).  Factors of degree >= 2 have no rational
roots, which keeps the bisection free of midpoint corner cases.  The
intervals of a definition are computed once and kept in `_CANONICAL`:
they fix which root `canonical_index` names, and every isolated root
starts out with its own canonical interval and index.  For sample
points with irrational coordinates, root finding eliminates each
algebraic coordinate through resultants with its defining polynomial,
producing a rational candidate polynomial whose roots are then filtered
by an exact sign test.  When a resultant vanishes, the defining
polynomial, being irreducible, divides the eliminand and is divided out
first (`_candidate_poly`).

That sign test, `sign_at`, evaluates p over the coordinate enclosures
and refines them until the interval value excludes 0.  Its bounds,
the sum of the terms' ranges, are computed on integer numerators over
one common denominator and are identical to the term-wise Fraction
bounds (`_interval_eval`).  When it keeps
straddling 0, `_is_zero_algebraic` decides whether p vanishes at the
point: the same resultant elimination applied to z - p yields a
rational polynomial in z with p's value among its roots, and a lower
bound on the modulus of its nonzero roots turns interval evaluation
into an exact answer, without sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomial import (
    MPoly,
    Var,
    coeff_info,
    exact_div,
    factor,
    parse_poly,
    poly_to_str,
    resultant,
    _utrim,
)


class _Nullified:
    """Sentinel: a polynomial specialized to the zero polynomial."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NULLIFIED"


NULLIFIED = _Nullified()


class _Undef:
    """Sentinel: an indexed root expression without a value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEF"

    def __bool__(self):
        return False


UNDEF = _Undef()


# ---------------------------------------------------------------------------
# dense univariate helpers (coefficient lists over Fraction, index = degree)


def _usign(c: Sequence[Fraction], x: Fraction) -> int:
    """Sign of the integer-valued c (a primitive definition) at x = a/b:
    the sign of c(a/b) * b^n, by homogeneous Horner on integers."""
    a, b = x.numerator, x.denominator
    t, w = 0, 1
    for k in reversed(c):
        t = t * a + k.numerator * w
        w *= b
    return (t > 0) - (t < 0)


def _cauchy_bound(c: Sequence[Fraction]) -> Fraction:
    lead = abs(c[-1])
    m = max((abs(x) for x in c[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


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


def _upoly_coeffs(p: MPoly, v: Var) -> list[Fraction]:
    d, _, coeffs = coeff_info(p, v)
    out = []
    for c in coeffs:
        if not c.is_constant():
            raise ValueError(f"{p} is not univariate in x{v}")
        out.append(c.constant_value())
    return _utrim(out)


def _upoly(c: Sequence[Fraction], v: Var) -> MPoly:
    """Inverse of _upoly_coeffs: the polynomial sum c[k] * x_v^k."""
    return MPoly({(0,) * (v - 1) + (k,): x for k, x in enumerate(c)})


def _primitive(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """c scaled to integer-primitive form with a positive leading
    coefficient, so that equal roots get equal defining polynomials."""
    unit = Fraction(math.gcd(*(x.numerator for x in c)),
                    math.lcm(*(x.denominator for x in c)))
    if c[-1] < 0:
        unit = -unit
    return tuple(x / unit for x in c)


# ---------------------------------------------------------------------------
# RealAlg


_CANONICAL: dict[tuple[Fraction, ...], list[tuple[Fraction, Fraction]]] = {}


class RealAlg:
    """A real algebraic number: a rational, or an isolated root of an
    irreducible integer polynomial of degree >= 2."""

    __slots__ = ("_rat", "_def", "_lo", "_hi", "_slo", "_index")

    def __init__(self):
        raise TypeError("use RealAlg.rational or RealAlg.algebraic")

    @classmethod
    def rational(cls, r) -> "RealAlg":
        self = object.__new__(cls)
        self._rat = Fraction(r)
        self._def = None
        self._lo = self._hi = self._rat
        self._slo = 0
        self._index = None
        return self

    @classmethod
    def algebraic(
        cls, defining: Sequence[Fraction], lo: Fraction, hi: Fraction
    ) -> "RealAlg":
        """Root of `defining` isolated by the open interval (lo, hi);
        neither endpoint may be a root.  Raises ValueError unless the
        defining polynomial is irreducible over Q of degree >= 2: a
        reducible one would give a value a second definition, and values
        of different definitions are never equal, so comparing them
        would refine forever.  The defining polynomial is stored
        integer-primitive with a positive leading coefficient."""
        c = _utrim([Fraction(x) for x in defining])
        if len(c) < 3 or [m for _, m in factor(_upoly(c, 1))] != [1]:
            raise ValueError(
                "the defining polynomial must be irreducible of degree >= 2"
            )
        return cls._isolated(c, lo, hi)

    @classmethod
    def _isolated(
        cls, defining: Sequence[Fraction], lo: Fraction, hi: Fraction
    ) -> "RealAlg":
        """`algebraic` without the irreducibility check, for definitions
        that are irreducible by construction."""
        c = _primitive(defining)
        self = object.__new__(cls)
        self._rat = None
        self._def = c
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        self._slo = _usign(c, self._lo)
        if self._slo == 0 or _usign(c, self._hi) == 0:
            raise ValueError("isolating interval endpoints must not be roots")
        if self._slo == _usign(c, self._hi):
            raise ValueError("no sign change over the isolating interval")
        self._index = None
        return self

    # -- basic views --------------------------------------------------

    def is_rational(self) -> bool:
        return self._rat is not None

    def rational_value(self) -> Fraction:
        if self._rat is None:
            raise ValueError("not rational")
        return self._rat

    def enclosure(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def refine(self) -> None:
        if self._rat is not None:
            return
        m = (self._lo + self._hi) / 2
        if _usign(self._def, m) == self._slo:
            self._lo = m
        else:
            self._hi = m

    def copy(self) -> "RealAlg":
        """The same value with an enclosure of its own: refining the copy
        leaves this one where it is."""
        if self._rat is not None:
            return self
        out = RealAlg._isolated(self._def, self._lo, self._hi)
        out._index = self._index
        return out

    def canonical_copy(self) -> "RealAlg":
        """The same value with an enclosure of its own that starts at its
        canonical isolating interval, so what is read off the copy does
        not depend on how far earlier work refined this one."""
        if self._rat is not None:
            return self
        k = self.canonical_index()
        out = RealAlg._isolated(self._def, *_canonical_intervals(self._def)[k - 1])
        out._index = k
        return out

    def refine_below(self, width: Fraction) -> None:
        while self._hi - self._lo > width:
            self.refine()

    def key(self):
        """Canonical identity: hashable, stable under refinement."""
        if self._rat is not None:
            return ("rat", self._rat)
        return ("alg", self._def, self.canonical_index())

    def canonical_index(self) -> int:
        """1-based position among the real roots of the defining polynomial."""
        if self._index is not None:
            return self._index
        spots = _canonical_intervals(self._def)
        while True:
            hits = [
                k
                for k, (a, b) in enumerate(spots)
                if self._lo < b and a < self._hi
            ]
            if len(hits) == 1:
                self._index = hits[0] + 1
                return self._index
            self.refine()

    def approx(self) -> float:
        if self._rat is not None:
            return float(self._rat)
        self.refine_below(Fraction(1, 1 << 30))
        return float((self._lo + self._hi) / 2)

    # -- comparison ---------------------------------------------------

    def compare(self, other: "RealAlg") -> int:
        """-1, 0, or 1 as self <, =, > other; exact."""
        if self._rat is not None and other._rat is not None:
            a, b = self._rat, other._rat
            return 0 if a == b else (-1 if a < b else 1)
        if self._def is not None and other._def is not None:
            if self._def == other._def:
                i, j = self.canonical_index(), other.canonical_index()
                return 0 if i == j else (-1 if i < j else 1)
        elif self._rat is not None or other._rat is not None:
            pass  # one rational, one irrational: never equal
        # distinct values: refine until the enclosures separate
        while True:
            if self._hi <= other._lo:
                return -1
            if other._hi <= self._lo:
                return 1
            self.refine()
            other.refine()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealAlg):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self._rat is not None:
            return f"RealAlg({self._rat})"
        return f"RealAlg({realalg_to_text(self)}~{self.approx():.4g})"


def separate(lo: RealAlg, hi: RealAlg) -> tuple[Fraction, Fraction]:
    """Refine lo < hi until their enclosures are disjoint; returns the
    gap between them: the upper end of lo and the lower end of hi.

    Raises ValueError unless lo < hi.  Equal irrational values share a
    definition and never separate, so values of one definition are
    compared on copies first; lo and hi themselves are refined only by
    the loop, which raises once hi's enclosure lies at or below lo's."""
    if lo._def is not None and lo._def == hi._def and lo.copy() == hi.copy():
        raise ValueError("no gap between equal values")
    while not lo._hi < hi._lo:
        if hi._hi <= lo._lo:
            raise ValueError("no gap: the lower value is above the upper")
        lo.refine()
        hi.refine()
    return lo._hi, hi._lo


def sorted_distinct(values: Iterable[RealAlg]) -> list[RealAlg]:
    """The values in increasing order, duplicates dropped."""
    out: list[RealAlg] = []
    for v in sorted(values):
        if not out or out[-1] != v:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# isolation


def _bisect_roots(c: tuple[Fraction, ...]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of the primitive irreducible
    c, in increasing order: Descartes bisection of (-B, B), B the Cauchy
    bound (Collins & Akritas 1976), on integer coefficients with Taylor
    shifts (Rouillier & Zimmermann 2004).

    The node of (a, b) holds q(x) = p(a + (b - a) x) times a positive
    constant, an integer polynomial whose roots in (0, 1) are those of p
    in (a, b).  The sign variations of (x + 1)^n q(1 / (x + 1)), the
    reversed q shifted by 1, bound their number: 0 drops the node, 1
    keeps (a, b), and otherwise the halves (a, m) and (m, b) get
    2^n q(x / 2) and that shifted by 1.  Irreducibility over Q rules out
    rational roots, so no midpoint is a root."""
    n = len(c) - 1
    bound = _cauchy_bound(c)
    num, den = bound.numerator, bound.denominator
    # den^n p(num y / den) at y = 2x - 1, which maps (0, 1) onto (-1, 1); the
    # shift by -1 is a shift by 1 between two sign flips of odd terms
    q = [int(x) * num**i * den ** (n - i) for i, x in enumerate(c)]
    q = _taylor_shift1([-x if i % 2 else x for i, x in enumerate(q)])
    q = [(-x if i % 2 else x) << i for i, x in enumerate(q)]
    g = math.gcd(*q)
    # node (k, j) is the interval -B + 2B (j, j + 1) / 2^k
    stack = [(0, 0, [x // g for x in q])]
    leaves = []
    while stack:
        k, j, q = stack.pop()
        v = _variations(_taylor_shift1(q[::-1]))
        if v == 1:
            leaves.append((k, j))
        elif v > 1:
            left = [x << (n - i) for i, x in enumerate(q)]
            stack.append((k + 1, 2 * j, left))
            stack.append((k + 1, 2 * j + 1, _taylor_shift1(left)))
    return sorted(
        (bound * Fraction(2 * j - (1 << k), 1 << k),
         bound * Fraction(2 * j + 2 - (1 << k), 1 << k))
        for k, j in leaves
    )


def _canonical_intervals(defc: tuple[Fraction, ...]) -> list[tuple[Fraction, Fraction]]:
    """The isolating intervals of the primitive irreducible `defc`, in
    increasing order, bisected once per definition and kept in
    `_CANONICAL`.  The roots `_isolate_irreducible` returns start with
    these intervals as enclosures and with their index set, so neither
    `canonical_index` nor a repeated isolation bisects again."""
    spots = _CANONICAL.get(defc)
    if spots is None:
        spots = _CANONICAL[defc] = _bisect_roots(defc)
    return spots


def _isolate_irreducible(c: Sequence[Fraction]) -> list[RealAlg]:
    """The real roots of an irreducible polynomial of degree >= 2, in
    increasing order."""
    c = _primitive(c)
    out = []
    for k, (a, b) in enumerate(_canonical_intervals(c), 1):
        r = RealAlg._isolated(c, a, b)
        r._index = k
        out.append(r)
    return out


def isolate_real_roots(p: MPoly) -> list[RealAlg]:
    """Sorted distinct real roots of a univariate polynomial: a rational
    for each linear irreducible factor, and the bisected roots of the
    others."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if len(p.variables()) > 1:
        raise ValueError(f"{p} is not univariate")
    if p.is_constant():
        return []
    roots: list[RealAlg] = []
    for f, _m in factor(p):
        fc = _upoly_coeffs(f, p.level)
        if len(fc) == 2:
            roots.append(RealAlg.rational(-fc[0] / fc[1]))
        else:
            roots.extend(_isolate_irreducible(fc))
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# samples


class Sample(tuple):
    """A point in R^i with real algebraic coordinates (coordinate j is
    bound to x_j).  Prefixes are themselves samples."""

    def __new__(cls, coords: Iterable):
        vals = []
        for c in coords:
            if isinstance(c, RealAlg):
                vals.append(c)
            else:
                vals.append(RealAlg.rational(c))
        return super().__new__(cls, vals)

    def prefix(self, i: int) -> "Sample":
        return Sample(self[:i])

    def extend(self, coord) -> "Sample":
        return Sample(list(self) + [coord])

    def all_rational(self) -> bool:
        return all(c.is_rational() for c in self)

    def rationals(self) -> list[Fraction]:
        return [c.rational_value() for c in self]

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


def _interval_eval(p: MPoly, boxes: list[tuple[Fraction, Fraction]]):
    """Bounds lo <= p <= hi over the box of the [lo_j, hi_j]: the sum of
    the terms' ranges, computed on integers and identical to the
    term-wise Fraction bounds.  With L_j the lcm of box j's endpoint
    denominators and d_j the degree of p in x_j, each term's bounds times
    lcm(coefficient denominators) * prod L_j^d_j are integers."""
    terms = p.terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    scale, pows = den, []
    for j in range(p.level):
        d = p.degree(j + 1)
        if d:
            lo, hi = boxes[j]
            L = math.lcm(lo.denominator, hi.denominator)
            a, b = lo.numerator * (L // lo.denominator), hi.numerator * (L // hi.denominator)
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
    return Fraction(lo_t, scale), Fraction(hi_t, scale)


def sign_at(p: MPoly, s: Sample) -> int:
    """Exact sign of p at s.

    Rational points are evaluated exactly.  Otherwise the interval value
    of p over the coordinate enclosures decides the sign as soon as it
    excludes 0, refining every coordinate once per round; after 8 rounds
    that still straddle 0, `_is_zero_algebraic` decides once whether the
    value is exactly 0, and a nonzero value is refined until its sign
    shows.  The zero test refines its own copies of the coordinates, so
    the enclosures of s move only here, in whole rounds.
    """
    if p.is_constant():
        v = p.constant_value()
        return 0 if v == 0 else (1 if v > 0 else -1)
    if p.level > len(s):
        raise ValueError("sample has too few coordinates")
    if all(s[v - 1].is_rational() for v in p.variables()):
        v = p.eval_rational([c._lo if c.is_rational() else Fraction(0) for c in s])
        return 0 if v == 0 else (1 if v > 0 else -1)
    tested_zero = False
    rounds = 0
    while True:
        boxes = [c.enclosure() for c in s]
        lo, hi = _interval_eval(p, boxes)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if not tested_zero and rounds >= 8:
            if _is_zero_algebraic(p, s):
                return 0
            tested_zero = True
        for c in s:
            c.refine()
        rounds += 1


def _is_zero_algebraic(p: MPoly, s: Sample) -> bool:
    """Whether p(s) = 0, exactly, by resultant elimination (Loos,
    "Computing in algebraic extensions", 1982) and a root-separation
    bound.  One irrational coordinate and several are the same case.

    With the rational coordinates substituted into p, eliminating each
    irrational x_j from z - p against its defining polynomial d_j gives
    R(z) = c * prod (z - p(s')) over the conjugate points s' of s: a
    nonzero polynomial with p(s) among its roots.  So R(0) != 0 means
    p(s) != 0, and R = c*z^m means every conjugate value, p(s) too, is 0.
    Otherwise R = z^m * S with S(0) != 0, and every nonzero root of R has
    modulus at least b = |S_0| / (|S_0| + max_k |S_k|) (Cauchy's bound
    for 1/z).  The interval value of p over ever narrower copies of the
    coordinates then either excludes 0 or falls inside (-b, b), where
    the only root of R is 0.  The copies leave the enclosures of s as
    they were.  Nothing here needs the d_j to be irreducible.
    """
    q = p.subst_rational(
        {j + 1: c.rational_value() for j, c in enumerate(s) if c.is_rational()}
    )
    z = len(s) + 1
    r = MPoly.var(z) - q
    for j in sorted(q.variables()):
        if r.degree(j) > 0:
            r = resultant(r, _upoly(s[j - 1]._def, j), j)
    R = _upoly_coeffs(r, z)
    if R[0] != 0:
        return False
    m = next(k for k, c in enumerate(R) if c)
    if m == len(R) - 1:
        return True
    S = [abs(c) for c in R[m:]]
    b = S[0] / (S[0] + max(S[1:]))
    irrational = q.variables()
    point = [c.copy() for c in s]
    while True:
        lo, hi = _interval_eval(q, [c.enclosure() for c in point])
        if lo > 0 or hi < 0:
            return False
        if -b < lo and hi < b:
            return True
        for j in irrational:
            point[j - 1].refine()


# ---------------------------------------------------------------------------
# roots of a polynomial over an extended sample


def roots_in_extension(p: MPoly, s: Sample):
    """Sorted distinct real roots of p(s, x_i) where i = level(p) and s
    has length i - 1; NULLIFIED when the specialization is identically
    zero."""
    i = p.level
    if i != len(s) + 1:
        raise ValueError("level(p) must be len(s) + 1")
    _, _, coeffs = coeff_info(p, i)
    if all(sign_at(c, s) == 0 for c in coeffs):
        return NULLIFIED
    roots = isolate_real_roots(_candidate_poly(p, s))
    if s.all_rational():
        return roots
    return [r for r in roots if sign_at(p, s.extend(r)) == 0]


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
    q = p.subst_rational(
        {j + 1: c.rational_value() for j, c in enumerate(s) if c.is_rational()}
    )
    for j, c in enumerate(s, 1):
        if c.is_rational():
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
    if a.is_rational():
        return str(a.rational_value())
    return f'(root {poly_to_str(_upoly(a._def, 1))} {a.canonical_index()})'


def realalg_from_text(text: str) -> RealAlg:
    text = text.strip()
    if text.startswith("(root"):
        inner = text[5:].strip()
        if not inner.endswith(")"):
            raise ValueError(f"bad real algebraic literal: {text}")
        inner = inner[:-1].strip()
        body, _, idx = inner.rpartition(" ")
        poly = parse_poly(body)
        roots = isolate_real_roots(poly)
        k = int(idx)
        if not 1 <= k <= len(roots):
            raise ValueError(f"root index {k} out of range for {body}")
        return roots[k - 1]
    return RealAlg.rational(Fraction(text))
