"""Independent reference computations used only by the test suite.

Everything here is deliberately implemented by a different route than
the library: a polynomial's degrees, variables, sort key and
coefficients in a variable by loops over its term map on every call
(the library computes them once and keeps them on the value),
resultants via the symbolic Sylvester determinant (Laplace
expansion, no division), via the subresultant PRS over `MPoly`
coefficients, and by evaluation and interpolation on integer term maps
(the library evaluates dense rows over the eliminated variable),
factorization via sympy's `Poly` over QQ (the library factors dense
integer polynomials, with closed forms up to degree 2), irreducibility
by a root test modulo small primes (the library's degree-pattern
certificate must prove all it proves), real-root counting via Sturm
sequences, root isolation by Descartes bisection on `Fraction`
coefficients with the Moebius transform rebuilt by Taylor shifts at
every node, factor checking via numeric root recombination, sign and
interval evaluation on `Fraction` objects (the library works on integer
numerators over a common denominator), enclosures, comparison,
separation and the line's sample points on `Fraction` enclosures with
a recursive `simplest_between` (the library keeps each enclosure as
integer numerators over one denominator and walks the continued
fraction on four integers), zero tests at algebraic
points via sympy's minimal polynomials, and by elimination with a
refinement loop of its own on copies of the coordinates (the library
refines only in `sign_at`'s loop), roots over a sample by one zero test
per candidate root (the library counts the roots first), roots over a
prefix with irrational coordinates that p does not use by that count
(the library builds the fiber's integer tuple from p's terms), roots over a
rational prefix by substitution into a new `MPoly` and its
factorization through the term-map `factor` with its own quadratic
closed form (the library builds the fiber's integer tuple in one pass
over p's terms and factors it with one univariate kernel), conflict
checks by the midpoint sweep (the library samples every gap at its
simplest rational), a level's sweep point by point, each constraint
and cell atom evaluated at each point (the library decides each region
from its position), and representation choice by pairwise comparison
of exact values (the library compares the integer ranks of one sort),
and the rule engine's picks by scanning every pending property and ranking
every rule instance (the library reads the top of a heap and takes a
sole instance directly), and the SMT-LIB reader by a walk over the
characters and then a second pass over the tokens, with decimal
literals read digit by digit (the library reads the text in one pass
over one pattern, and its literals with `Fraction`).  Keeping both routes alive is what makes the
algebra tests meaningful.  The module also holds the structural checks
on a chosen representation (`representation_is_valid`,
`ordering_matches`), and helpers the library does not need:
`derivative`, `simplest_between` on Fractions, `sorted_distinct`,
`realalg_from_text`,
the reader of the coordinates `realalg_to_text` writes, and
`root_between`, a root picked by its isolating interval.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import sympy

from onecell.cells import (
    IndexedRoot,
    SymbolicInterval,
    cached_roots,
    eval_indexed_root,
)
from onecell.config import HeuristicConfig
from onecell.explain import Constraint, constraint_satisfied
from onecell.heuristics import Representation, roots_with_values
from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list
from sympy.polys.sqfreetools import dmp_sqf_list

from onecell.polynomial import (
    MPoly,
    Var,
    _interpolate,
    _irreducible_by_degrees,
    _primitive_part,
    _rows,
    _ures,
    coeff_info,
    dense,
    exact_div,
    normalize,
    parse_poly,
    resultant,
)
from onecell.polynomial import _trim as _trim_exponents
from onecell.properties import RootOrdering, selection_key
from onecell.realalg import (
    NULLIFIED,
    UNDEF,
    RealAlg,
    Sample,
    _candidate_poly,
    _isolate,
    _rational_part,
    _root_count,
    _simplest,
    _straddles,
    isolate_real_roots,
    line_samples,
    rational_from_text,
    roots_in_extension,
    separate,
    sign_at,
    value_ranks,
)
from onecell.rules import Choice, ConstructionFailed, rule_choices
from onecell.smtlib import ParseError, _Tok


# ---------------------------------------------------------------------------
# polynomial views by loops over the term map, the library's before it
# kept them on the value


def term_degree(p: MPoly, v: Var) -> int:
    d = 0
    for e in p.terms:
        if len(e) >= v:
            d = max(d, e[v - 1])
    return d


def term_variables(p: MPoly) -> set[Var]:
    out: set[Var] = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                out.add(i + 1)
    return out


def term_sort_key(p: MPoly):
    """Graded comparison of the sorted term sequences."""
    n = p.level
    items = sorted(
        (((sum(e), tuple(reversed(e + (0,) * (n - len(e))))), c)
         for e, c in p.terms.items()),
        reverse=True,
    )
    total = max((sum(e) for e in p.terms), default=0)
    return (total, len(items), tuple(items))


def term_coeff_info(p: MPoly, v: Var) -> tuple[int, MPoly, list[MPoly]]:
    """(degree, leading coefficient, coefficients from degree 0 up) of p
    as univariate in x_v."""
    d = term_degree(p, v)
    coeffs: list[dict] = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        k = e[v - 1] if len(e) >= v else 0
        rest = list(e)
        if len(rest) >= v:
            rest[v - 1] = 0
        coeffs[k][tuple(rest)] = c
    out = [MPoly(t) for t in coeffs]
    return d, out[d], out


def derivative(p: MPoly, v: Var) -> MPoly:
    """dp/dx_v, term by term (the library takes discriminants on the
    dense rows of p and its derivative)."""
    return MPoly({e[: v - 1] + (e[v - 1] - 1,) + e[v:]: c * e[v - 1]
                  for e, c in p.terms.items() if len(e) >= v and e[v - 1]})


# ---------------------------------------------------------------------------
# the Sylvester determinant


def sylvester_matrix(p: MPoly, q: MPoly, v: Var) -> list[list[MPoly]]:
    dp, _, pc = term_coeff_info(p, v)
    dq, _, qc = term_coeff_info(q, v)
    n = dp + dq
    zero = MPoly({})
    rows: list[list[MPoly]] = []
    prow = [pc[dp - i] for i in range(dp + 1)]
    qrow = [qc[dq - i] for i in range(dq + 1)]
    for i in range(dq):
        rows.append([zero] * i + prow + [zero] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + qrow + [zero] * (n - dq - 1 - i))
    return rows


def determinant(m: list[list[MPoly]]) -> MPoly:
    """Division-free determinant by Laplace expansion with memoization
    on column subsets."""
    n = len(m)
    if n == 0:
        return MPoly.constant(1)
    cache: dict[tuple[int, ...], MPoly] = {}

    def minor(row: int, cols: tuple[int, ...]) -> MPoly:
        if row == n:
            return MPoly.constant(1)
        key = cols
        if key in cache:
            return cache[key]
        total = MPoly({})
        for pos, c in enumerate(cols):
            entry = m[row][c]
            if entry.is_zero():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            total = total + (term if pos % 2 == 0 else -term)
        cache[key] = total
        return total

    return minor(0, tuple(range(n)))


def sylvester_resultant(p: MPoly, q: MPoly, v: Var) -> MPoly:
    return determinant(sylvester_matrix(p, q, v))


def sylvester_minors(p: MPoly, q: MPoly, v: Var) -> list[MPoly]:
    """psc_0, ..., psc_dq of p and q, dq = deg_v(q) <= deg_v(p): psc_j is
    the determinant of their Sylvester matrix in x_v with the last j
    rows of each polynomial and the last 2j columns struck out."""
    dp, dq = term_degree(p, v), term_degree(q, v)
    m = sylvester_matrix(p, q, v)
    return [determinant([r[: dp + dq - 2 * j] for r in m[: dq - j] + m[dq : dq + dp - j]])
            for j in range(dq + 1)]


# ---------------------------------------------------------------------------
# the subresultant PRS over MPoly coefficients, the library's resultant
# before evaluation and interpolation


def _prem(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """Pseudo-remainder of coefficient lists: lc(b)^(da-db+1) * a mod b."""
    da, db = _deg(a), _deg(b)
    lb = b[-1]
    r = list(a)
    for _ in range(da - db + 1):
        dr = _deg(r)
        if dr < db:
            r = [lb * c for c in r]
            continue
        lr = r[-1]
        shifted = [MPoly({})] * (dr - db) + [lr * c for c in b]
        r = [lb * r[i] - shifted[i] for i in range(dr)]
        _trim(r)
    return r


def subresultant_resultant(p: MPoly, q: MPoly, v: Var) -> MPoly:
    """res_v(p, q) via the subresultant polynomial remainder sequence
    with `MPoly` coefficients; both arguments of positive degree in x_v."""
    _, _, ac = term_coeff_info(p, v)
    _, _, bc = term_coeff_info(q, v)
    A, B = list(ac), list(bc)
    sign = 1
    if _deg(A) < _deg(B):
        if (_deg(A) * _deg(B)) % 2 == 1:
            sign = -sign
        A, B = B, A
    one = MPoly.constant(1)
    g, h = one, one
    while True:
        da, db = _deg(A), _deg(B)
        d = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        R = _trim(_prem(A, B))
        if not R:
            return MPoly({})  # nonconstant common factor
        denom = g * h**d
        A = B
        B = [exact_div(c, denom) for c in R]
        g = A[-1]
        if d == 0:
            pass
        elif d == 1:
            h = g
        else:
            h = exact_div(g**d, h ** (d - 1))
        if _deg(B) == 0:
            da2 = _deg(A)
            num = B[0] ** da2
            if da2 <= 1:
                res = h ** (1 - da2) * num
            else:
                res = exact_div(num, h ** (da2 - 1))
            return res if sign == 1 else -res


# ---------------------------------------------------------------------------
# evaluation and interpolation on integer term maps: the library's
# resultant kernel before it grouped each map into dense rows over x_v


def _ideg(P: dict, j: Var) -> int:
    return max((e[j - 1] for e in P if len(e) >= j), default=0)


def _ieval(P: dict, j: Var, a: int) -> dict:
    """The integer term map P with x_j = a."""
    out: dict = {}
    for e, k in P.items():
        if len(e) >= j and e[j - 1]:
            k *= a ** e[j - 1]
            e = _trim_exponents(e[: j - 1] + (0,) + e[j:])
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k}


def _term_map_bound(P: dict, Q: dict, j: Var, dp: int, dq: int) -> int:
    """The interpolation bound on deg_j res_v(P, Q), from the degrees in
    x_j or from the total degrees of the term maps."""
    tp, tq = (max(map(sum, T)) for T in (P, Q))
    return min(dp * _ideg(Q, j) + dq * _ideg(P, j), tp * dq + tq * dp - dp * dq)


def term_map_resultant(P: dict, Q: dict, v: Var, dp: int, dq: int) -> dict:
    """res_v(P, Q) for integer term maps of degrees dp, dq >= 1 in x_v:
    another x_j is set to 0, 1, -1, 2, ..., skipping values where a
    degree in x_v drops, until they outnumber the result's degree bound
    in x_j; the library's PRS `_ures` and `_interpolate` do the rest."""
    others = {i + 1 for e in (*P, *Q) for i, k in enumerate(e) if k} - {v}
    if not others:
        dense = [[T.get(_trim_exponents((0,) * (v - 1) + (k,)), 0) for k in range(d + 1)]
                 for T, d in ((P, dp), (Q, dq))]
        r, = _ures(*dense)
        return {(): r} if r else {}
    j = max(others)
    bound = _term_map_bound(P, Q, j, dp, dq)
    xs, vals, a = [], [], 0
    while len(xs) <= bound:
        Pa, Qa = _ieval(P, j, a), _ieval(Q, j, a)
        if _ideg(Pa, v) == dp and _ideg(Qa, v) == dq:
            xs.append(a)
            vals.append(term_map_resultant(Pa, Qa, v, dp, dq))
        a = -a if a > 0 else 1 - a
    out = {}
    for m in set().union(*vals):
        e = list(m) + [0] * (j - len(m))
        for k, c in enumerate(_interpolate(xs, [r.get(m, 0) for r in vals])):
            if c:
                e[j - 1] = k
                out[_trim_exponents(tuple(e))] = c
    return out


# ---------------------------------------------------------------------------
# the root test that proved small degrees irreducible before the library's
# degree-pattern certificate: the certificate must prove all it proves

# The root test's images set every other variable to one of these
# values, and are reduced modulo each of these primes.
ROOT_TEST_POINTS = (1, -1, 2, -2, 3)
ROOT_TEST_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def irreducible_by_roots(P: dict, vs: list[Var]) -> bool:
    """True when a root test proves the integer-primitive term map P in
    the variables vs irreducible over Q: for a variable v of degree
    n <= 3 with some coefficient of a power of v a nonzero integer,
    n = 1, or an image of degree n (every other variable set to a point)
    with no root modulo a prime not dividing its leading coefficient."""
    for v in reversed(vs):
        # each term as (degree in v, total degree, coefficient)
        split = [(e[v - 1] if len(e) >= v else 0, sum(e), k) for e, k in P.items()]
        n = max(d for d, _, _ in split)
        mixed = {d for d, t, _ in split if t > d}
        if n > 3 or all(d in mixed for d, _, _ in split):
            continue
        if n == 1:
            return True
        seen = set()
        for a in ROOT_TEST_POINTS:
            image = [0] * (n + 1)
            for d, t, k in split:
                image[d] += k * a ** (t - d)
            image = tuple(image)
            if not image[n] or image in seen:
                continue
            seen.add(image)
            for q in ROOT_TEST_PRIMES:
                if image[n] % q and not _has_root_mod(image, q):
                    return True
    return False


def _has_root_mod(c: tuple[int, ...], q: int) -> bool:
    """Whether sum c[k]*x^k has a root modulo q."""
    c = [k % q for k in reversed(c)]
    for r in range(q):
        y = 0
        for k in c:
            y = y * r + k
        if y % q == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# factorization through sympy's Poly over QQ, the library's factor before
# the dense integer path and its closed forms


def sympy_poly_factor(p: MPoly, mode: str = "finest") -> list[tuple[MPoly, int]]:
    """`polynomial.factor` by `Poly.factor_list` or `Poly.sqf_list` over
    QQ in all of x1..x_level: normalized factors sorted by `sort_key`."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return []
    n = p.level
    rep = {
        e + (0,) * (n - len(e)): sympy.QQ(c.numerator, c.denominator)
        for e, c in p.terms.items()
    }
    poly = sympy.Poly.from_dict(rep, sympy.symbols(f"x1:{n + 1}"), domain=sympy.QQ)
    _, pairs = poly.factor_list() if mode == "finest" else poly.sqf_list()
    out: list[tuple[MPoly, int]] = []
    for f, m in pairs:
        g = normalize(MPoly({
            e: Fraction(int(c.numerator), int(c.denominator)) for e, c in f.terms()
        }))
        if not g.is_constant():
            out.append((g, int(m)))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# roots over a rational prefix by substitution and the term-map factor:
# the library's route before it evaluated the coefficients on integers and
# factored the coefficient tuple (`polynomial.factor_dense`)


def term_map_factor(p: MPoly, mode: str = "finest") -> list[tuple[MPoly, int]]:
    """`polynomial.factor` as it was before the univariate kernel, with
    no memo: the univariate quadratic closed form on `MPoly`s, the
    degree-pattern certificate, and sympy's `dmp_factor_list` or
    `dmp_sqf_list` on the term map in the variables that occur."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return []
    if p.total_degree() == 1:
        return [(normalize(p), 1)]
    vs = sorted(p.variables())
    _, P = _primitive_part(p)
    if len(vs) == 1 and p.total_degree() == 2:
        v = vs[0]
        c, b, a = _rows(P, v, 2)[()]
        disc = b * b - 4 * a * c
        r = math.isqrt(disc) if disc >= 0 else -1
        if r * r != disc or (r and mode == "squarefree"):
            pairs = [(p, 1)]  # irreducible, or square-free as it stands
        else:
            x = MPoly.var(v).scale(2 * a)
            pairs = [(x + b, 2)] if r == 0 else [(x + (b - r), 1), (x + (b + r), 1)]
    elif mode == "finest" and _irreducible_by_degrees(P, vs):
        pairs = [(p, 1)]
    else:
        u = len(vs) - 1
        rep = {tuple(e[v - 1] if len(e) >= v else 0 for v in vs): k for e, k in P.items()}
        split = dmp_factor_list if mode == "finest" else dmp_sqf_list
        _, fs = split(dmp_from_dict(rep, u, ZZ), u, ZZ)
        pairs = []
        for f, m in fs:
            terms = {}
            for ks, k in dmp_to_dict(f, u).items():
                e = [0] * vs[-1]
                for v, d in zip(vs, ks):
                    e[v - 1] = d
                terms[tuple(e)] = int(k)
            pairs.append((MPoly(terms), m))
    out = [(normalize(g), m) for g, m in pairs if not g.is_constant()]
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def isolate_by_term_map_factor(p: MPoly) -> list[RealAlg]:
    """`realalg.isolate_real_roots` through `term_map_factor`: a rational
    for each linear factor, the bisected roots of the others, sorted."""
    if p.is_constant():
        return []
    roots: list[RealAlg] = []
    for f, _m in term_map_factor(p):
        fc = dense(f, p.level)
        if len(fc) == 2:
            roots.append(RealAlg.rational(Fraction(-fc[0], fc[1])))
        else:
            roots.extend(_isolate(fc, fc))
    roots.sort()
    return roots


def _truncated(p: MPoly, s: Sample):
    """(p truncated to e, e) for e the degree of p at s, read off the
    signs of its coefficients from the top down; None when all vanish."""
    i = p.level
    _, _, coeffs = coeff_info(p, i)
    e = next((k for k in range(len(coeffs) - 1, -1, -1) if sign_at(coeffs[k], s)), None)
    if e is None:
        return None
    if e < len(coeffs) - 1:
        p = MPoly._canonical({m: c for m, c in p._terms.items()
                              if len(m) < i or m[i - 1] <= e})
    return p, e


def roots_by_substitution(p: MPoly, s: Sample):
    """`realalg.roots_in_extension` over a rational prefix s as it was:
    p truncated to its degree at s (NULLIFIED when it has none), then
    the roots of p with s substituted (`_candidate_poly`), isolated
    through `term_map_factor`."""
    truncated = _truncated(p, s)
    if truncated is None:
        return NULLIFIED
    return isolate_by_term_map_factor(_candidate_poly(truncated[0], s))


def roots_by_count(p: MPoly, s: Sample):
    """`realalg.roots_in_extension` as it was over every prefix s with an
    irrational coordinate, p's or not: p truncated to its degree at s,
    its distinct real roots counted (`_root_count`), and the roots of
    `_candidate_poly` whose interval value over the enclosures excludes
    0 dropped, refining p's irrational coordinates and the candidates,
    until that many remain."""
    truncated = _truncated(p, s)
    if truncated is None:
        return NULLIFIED
    p, e = truncated
    k = _root_count(p, e, s)
    roots = isolate_real_roots(_candidate_poly(p, s)) if k else []
    moving = [s[v - 1] for v in p.variables() if v <= len(s) and not s[v - 1].is_rational()]
    while len(roots) > k:
        boxes = [c._box for c in s]
        roots = [r for r in roots if _straddles(p, boxes + [r._box])]
        if len(roots) > k:
            for c in moving + roots:
                c.refine()
    assert len(roots) == k, (p, s)
    return roots


# ---------------------------------------------------------------------------
# Sturm sequences on dense rational coefficient lists (index = degree)


def _deg(c: list[Fraction]) -> int:
    return len(c) - 1


def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    while _trim(r) and _deg(r) >= _deg(b):
        k = _deg(r) - _deg(b)
        f = r[-1] / b[-1]
        for i, c in enumerate(b):
            r[i + k] -= f * c
        r.pop()
        _trim(r)
    return r


def _deriv(c: list[Fraction]) -> list[Fraction]:
    return [Fraction(i) * c[i] for i in range(1, len(c))]


def sturm_sequence(c: list[Fraction]) -> list[list[Fraction]]:
    seq = [_trim(list(c)), _trim(_deriv(c))]
    while seq[-1]:
        nxt = [-x for x in _rem(seq[-2], seq[-1])]
        _trim(nxt)
        if not nxt:
            break
        seq.append(nxt)
    return [s for s in seq if s]


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at_inf(c: list[Fraction], positive: bool) -> int:
    if not c:
        return 0
    lead = c[-1]
    s = 1 if lead > 0 else -1
    if not positive and _deg(c) % 2 == 1:
        s = -s
    return s


def sturm_count_all_real_roots(c: list[Fraction]) -> int:
    """Number of distinct real roots of the (nonzero) polynomial c."""
    seq = sturm_sequence(c)
    neg = _variations([_sign_at_inf(s, False) for s in seq])
    pos = _variations([_sign_at_inf(s, True) for s in seq])
    return neg - pos


def sturm_count_interval(c: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of c
    for the open-interval reading used by the tests."""

    def ev(s: list[Fraction], x: Fraction) -> Fraction:
        total = Fraction(0)
        for coeff in reversed(s):
            total = total * x + coeff
        return total

    seq = sturm_sequence(c)
    va = _variations([(0 if ev(s, a) == 0 else (1 if ev(s, a) > 0 else -1)) for s in seq])
    vb = _variations([(0 if ev(s, b) == 0 else (1 if ev(s, b) > 0 else -1)) for s in seq])
    return va - vb


# ---------------------------------------------------------------------------
# Descartes bisection on Fraction coefficients: the isolation the library
# ran before its integer Taylor-shift kernel, kept as the reference path


def _taylor_shift(c: list[Fraction], a: Fraction) -> list[Fraction]:
    """The coefficients of c(x + a), by Horner's rule: for a = 1 on
    additions alone."""
    c = list(c)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += c[k + 1] if a == 1 else a * c[k + 1]
    return c


def _descartes_in(c: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Sign-variation bound on the number of roots in the open interval
    (a, b): 0 means none, 1 means exactly one.

    It counts the sign variations of (1+x)^n * c((a + b*x) / (1+x)),
    whose coefficients, in reverse order, are those of r(x + 1) for r
    the reversal of c(a + (b - a)*x): two Taylor shifts and a scaling."""
    h = b - a
    scaled = [ck * h**k for k, ck in enumerate(_taylor_shift(c, a))]
    acc = _taylor_shift(scaled[::-1], Fraction(1))
    return _variations([1 if x > 0 else -1 for x in acc if x != 0])


def descartes_bisection(c: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of an irreducible c of degree
    >= 2, in increasing order: bisection of (-B, B), B = 1 + max |c_i| /
    |c_n| the Cauchy bound, with the Moebius transform rebuilt from c at
    every node."""
    c = [Fraction(x) for x in c]
    bound = 1 + max(abs(x) for x in c[:-1]) / abs(c[-1])
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        v = _descartes_in(c, a, b)
        if v == 0:
            continue
        if v == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        stack.append((a, m))
        stack.append((m, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# brute-force divisor search for univariate polynomials of degree <= 4


def has_nontrivial_divisor(c: list[Fraction]) -> bool:
    """Try to find a proper rational divisor by recombining numeric roots.

    Works for degree <= 4: every subset of the complex roots is tried as
    a candidate factor; a candidate counts only if its coefficients are
    (near-)integers and exact rational division succeeds.
    """
    c = _trim([Fraction(x) for x in c])
    n = _deg(c)
    if n <= 1:
        return False
    # clear denominators so candidate factors have integer coefficients
    from math import gcd, lcm

    den = 1
    for x in c:
        den = lcm(den, x.denominator)
    ic = [int(x * den) for x in c]
    roots = np.roots(list(reversed([float(x) for x in ic])))
    lead = ic[-1]
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            prod = np.poly1d([1.0])
            for idx in combo:
                prod = prod * np.poly1d([1.0, -roots[idx]])
            # scale by divisors of the leading coefficient
            for scale in _divisors(abs(lead)):
                cand = [complex(x) * scale for x in prod.coeffs]
                if any(abs(x.imag) > 1e-6 for x in cand):
                    continue
                ints = [round(x.real) for x in cand]
                if any(abs(x.real - r) > 1e-6 for x, r in zip(cand, ints)):
                    continue
                if ints[0] == 0:
                    continue
                if _divides(ints, ic):
                    return True
    return False


def _divisors(k: int) -> list[int]:
    out = [d for d in range(1, abs(k) + 1) if k % d == 0]
    return out


def _divides(d: list[int], c: list[int]) -> bool:
    """Exact division test of coefficient lists (highest degree first in d)."""
    dd = [Fraction(x) for x in reversed(d)]
    cc = [Fraction(x) for x in c]
    _trim(dd)
    if not dd or _deg(dd) == 0 or _deg(dd) >= _deg(cc):
        return False
    r = list(cc)
    while _trim(r) and _deg(r) >= _deg(dd):
        k = _deg(r) - _deg(dd)
        f = r[-1] / dd[-1]
        for i, x in enumerate(dd):
            r[i + k] -= f * x
        _trim(r)
    return not _trim(r)


# ---------------------------------------------------------------------------
# evaluation on Fraction objects, term by term: the references for the
# library's integer evaluators (`realalg._usign`, `realalg._interval_eval`
# and `MPoly.eval_rational`), which must agree with these exactly


def ueval(c: list[Fraction], x: Fraction) -> Fraction:
    """c(x) by Horner's rule on Fractions."""
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def usign(c: list[Fraction], x: Fraction) -> int:
    v = ueval(c, x)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _interval_pow(lo: Fraction, hi: Fraction, k: int) -> tuple[Fraction, Fraction]:
    if k % 2 == 1 or lo >= 0:
        return lo**k, hi**k
    if hi <= 0:
        return hi**k, lo**k
    return Fraction(0), max(lo**k, hi**k)


def interval_eval(p: MPoly, boxes: list[tuple[Fraction, Fraction]]):
    """The sum over the terms of p of each term's range over the box,
    by interval products on Fractions."""
    lo_t, hi_t = Fraction(0), Fraction(0)
    for e, c in p.terms.items():
        tlo, thi = Fraction(c), Fraction(c)
        for i, k in enumerate(e):
            if k:
                plo, phi = _interval_pow(boxes[i][0], boxes[i][1], k)
                cands = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(cands), max(cands)
        lo_t += tlo
        hi_t += thi
    return lo_t, hi_t


def eval_rational(p: MPoly, point: list[Fraction]) -> Fraction:
    """p at a rational point, term by term on Fractions."""
    total = Fraction(0)
    for e, c in p.terms.items():
        val = c
        for i, k in enumerate(e):
            if k:
                val *= Fraction(point[i]) ** k
        total += val
    return total


# ---------------------------------------------------------------------------
# exact reals on Fraction enclosures: the references for the library's
# integer enclosures (`RealAlg.refine`, `RealAlg.compare`, `separate`),
# its continued-fraction walk (`_simplest`) and its sweep of the
# line (`line_samples`), which must agree with these exactly


class FractionReal:
    """A copy of a `RealAlg`'s value and current enclosure, with the
    enclosure kept as two Fractions and halved at the Fraction midpoint
    (lo + hi) / 2, keeping the half where the definition changes sign."""

    def __init__(self, r: RealAlg):
        self.key = r.key()
        self.defn = None if r.is_rational() else [Fraction(c) for c in r._def]
        self.index = None if r.is_rational() else r.canonical_index()
        self.lo, self.hi = r.enclosure()
        self.slo = 0 if self.defn is None else usign(self.defn, self.lo)

    def refine(self) -> None:
        if self.defn is None:
            return
        m = (self.lo + self.hi) / 2
        if usign(self.defn, m) == self.slo:
            self.lo = m
        else:
            self.hi = m


def fraction_compare(x: FractionReal, y: FractionReal) -> int:
    """-1, 0 or 1 as x <, =, > y: rationals directly, roots of one
    definition by their indices, and otherwise by refining both until the
    enclosures separate."""
    if x.defn is None and y.defn is None:
        return 0 if x.lo == y.lo else (-1 if x.lo < y.lo else 1)
    if x.defn is not None and x.defn == y.defn:
        return 0 if x.index == y.index else (-1 if x.index < y.index else 1)
    while True:
        if x.hi <= y.lo:
            return -1
        if y.hi <= x.lo:
            return 1
        x.refine()
        y.refine()


def fraction_separate(lo: FractionReal, hi: FractionReal) -> tuple[Fraction, Fraction]:
    """The gap between lo < hi once their enclosures are disjoint;
    ValueError unless lo < hi."""
    if lo.defn is not None and lo.key == hi.key:
        raise ValueError("no gap between equal values")
    while not lo.hi < hi.lo:
        if hi.hi <= lo.lo:
            raise ValueError("no gap: the lower value is above the upper")
        lo.refine()
        hi.refine()
    return lo.hi, hi.lo


def sorted_distinct(values) -> list[RealAlg]:
    """The values in increasing order, duplicates dropped: the first
    value of each rank of the library's `value_ranks`, as `line_samples`
    takes its cuts."""
    values = list(values)
    out: dict[int, RealAlg] = {}
    for v, k in zip(values, value_ranks(values)):
        out.setdefault(k, v)
    return [out[k] for k in range(len(out))]


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The library's continued-fraction walk `realalg._simplest` on Fractions."""
    a, b = Fraction(a), Fraction(b)
    return Fraction(*_simplest(a.numerator, a.denominator, b.numerator, b.denominator))


def realalg_from_text(text: str) -> RealAlg:
    """A coordinate in the form `realalg_to_text` writes: (root p k), the
    k-th real root of p, or a rational numeral."""
    if text.startswith("(root "):
        body, k = text[6:-1].rsplit(" ", 1)
        return isolate_real_roots(parse_poly(body))[int(k) - 1]
    return RealAlg.rational(rational_from_text(text))


def root_between(coeffs, lo, hi) -> RealAlg:
    """The one real root in (lo, hi) of the polynomial sum coeffs[k] *
    x1^k, among its isolated roots; ValueError unless there is exactly
    one."""
    lo, hi = RealAlg.rational(lo), RealAlg.rational(hi)
    p = MPoly({(k,): c for k, c in enumerate(coeffs)})
    inside = [r for r in isolate_real_roots(p) if lo < r < hi]
    if len(inside) != 1:
        raise ValueError(f"{len(inside)} roots of {p} in ({lo}, {hi}), not 1")
    return inside[0]


def recursive_simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The smallest-denominator rational strictly between a < b, ties
    toward the smaller magnitude, by recursion on Fractions."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("empty interval")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -recursive_simplest_between(-b, -a)
    fa = a.numerator // a.denominator
    if a < fa + 1 < b:
        return Fraction(fa + 1)
    if a == fa:
        # (fa, b] with b - fa <= 1: the simplest is fa + 1/k
        k = ((b - fa) ** -1).__floor__() + 1
        return fa + Fraction(1, k)
    return fa + 1 / recursive_simplest_between(1 / (b - fa), 1 / (a - fa))


def fraction_line_samples(values) -> tuple[list[Fraction], list[FractionReal]]:
    """The rational points of `line_samples` (0, then the simplest
    rational below, between and above the cuts) on Fraction enclosures,
    and the cuts as they are left.  The cuts are sorted by
    `sorted_distinct`, on the library's `value_ranks`, which refines the
    values it compares, and copied; the sampling runs on the copies."""
    cuts = [FractionReal(c) for c in sorted_distinct(values)]
    out = [Fraction(0)]
    if cuts:
        out.append(recursive_simplest_between(cuts[0].lo - 1, cuts[0].lo))
        for lo, hi in zip(cuts, cuts[1:]):
            out.append(recursive_simplest_between(*fraction_separate(lo, hi)))
        out.append(recursive_simplest_between(cuts[-1].hi, cuts[-1].hi + 1))
    return out, cuts


# ---------------------------------------------------------------------------
# exact zero test at an algebraic point, by sympy's minimal polynomial


def poly_to_sympy(p: MPoly):
    """p as a sympy expression in the symbols x1, x2, ..."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(f"x{i + 1}") ** k for i, k in enumerate(e)))
        for e, c in p.terms.items()
    ))


def realalg_to_sympy(a):
    """A `RealAlg` as a sympy number: a Rational, or a `CRootOf` of its
    defining polynomial."""
    if a.is_rational():
        r = a.rational_value()
        return sympy.Rational(r.numerator, r.denominator)
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k
               for k, c in enumerate(a._def))
    return sympy.CRootOf(expr, a.canonical_index() - 1)


def is_zero_by_minimal_polynomial(p: MPoly, coords) -> bool:
    """Whether p vanishes at the point of `RealAlg` coordinates (x_j is
    coordinate j): the minimal polynomial of p's value, computed by sympy
    over the coordinates as `CRootOf` objects, is z exactly when the
    value is 0."""
    expr = poly_to_sympy(p).subs(
        {sympy.Symbol(f"x{j + 1}"): realalg_to_sympy(c) for j, c in enumerate(coords)})
    z = sympy.Symbol("z")
    return sympy.minimal_polynomial(expr, z) == z


def is_zero_by_elimination(p: MPoly, s) -> bool:
    """Whether p(s) = 0, by the elimination the package's zero test used
    before it read the roots over the prefix (after Loos, "Computing in
    algebraic extensions", 1982).  `_candidate_poly` of z - p eliminates
    every irrational coordinate and gives R(z) = c * prod (z - p(s'))
    over the conjugate points s' of s, so R(z) = z^m * S(z) with
    S(0) != 0 and p(s) among its roots: R(0) != 0 means p(s) != 0, and
    S constant means p(s) = 0.  Otherwise every nonzero root has modulus
    at least b = |S_0| / (|S_0| + max_k |S_k|) (Cauchy's bound for
    1/z), and canonical copies of the coordinates are refined until the
    interval value of p with the rational coordinates substituted
    excludes 0 or lies inside (-b, b).  The enclosures of s do not
    move."""
    q = _rational_part(p, s)
    z = len(s) + 1
    R = dense(_candidate_poly(MPoly.var(z) - p, s), z)
    if R[0] != 0:
        return False
    m = next(k for k, c in enumerate(R) if c)
    if m == len(R) - 1:
        return True
    S = [abs(c) for c in R[m:]]
    b = Fraction(S[0], S[0] + max(S[1:]))
    point = [c.canonical_copy() for c in s]
    while True:
        lo, hi = interval_eval(q, [c.enclosure() for c in point])
        if lo > 0 or hi < 0:
            return False
        if -b < lo and hi < b:
            return True
        for j in q.variables():
            point[j - 1].refine()


def roots_by_zero_test(p: MPoly, s):
    """The real roots of p(s, x_i), or NULLIFIED, by the filter that
    `roots_in_extension` ran before it counted the roots: the candidates
    of `_candidate_poly` at which p vanishes by `sign_at`, one exact zero
    test per candidate."""
    _, _, coeffs = term_coeff_info(p, p.level)
    if all(sign_at(c, s) == 0 for c in coeffs):
        return NULLIFIED
    roots = isolate_real_roots(_candidate_poly(p, s))
    return [r for r in roots if sign_at(p, s.extend(r)) == 0]


# ---------------------------------------------------------------------------
# structural conditions on a chosen representation


def ordering_matches(ordering, s) -> bool:
    """Every pair of the root ordering has both roots defined at s, with
    values in pair order."""
    for a, b in ordering.pairs:
        va = eval_indexed_root(a, s)
        vb = eval_indexed_root(b, s)
        if va is UNDEF or vb is UNDEF:
            return False
        if va.compare(vb) > 0:
            return False
    return True


def representation_is_valid(rep, polys, s_prefix, s_val) -> bool:
    """The structural conditions a representation must satisfy: the
    sample lies in the interval, the equational set is only used with a
    section, the ordering matches the sample, and every root of every
    polynomial outside the equational set is ordered against a bound."""
    xi = roots_with_values(polys, s_prefix)
    val = dict(xi)
    interval = rep.interval
    lo, up = interval.lower, interval.upper
    if interval.is_section():
        if val.get(lo) is None or val[lo].compare(s_val) != 0:
            return False
    else:
        if lo is not None and val[lo].compare(s_val) >= 0:
            return False
        if up is not None and val[up].compare(s_val) <= 0:
            return False
    if rep.eq_set and not interval.is_section():
        return False
    if not ordering_matches(rep.ordering, s_prefix):
        return False
    for r, _ in xi:
        if r.poly in rep.eq_set:
            continue
        if interval.is_section() and r.poly != interval.lower.poly:
            # the equational projection against the bound polynomial can
            # stand in for the ordering unless they share a factor
            if not resultant(r.poly, interval.lower.poly, r.poly.level).is_zero():
                continue
        below = lo is not None and rep.ordering.le(r, lo)
        above = up is not None and rep.ordering.le(up, r)
        if not (below or above):
            return False
    return True


# ---------------------------------------------------------------------------
# conflict check by the midpoint sweep: the reference for
# `explain.check_conflict`, which sweeps with `realalg.line_samples`


def midpoint_check_conflict(C, s) -> bool:
    """True iff no value of the next variable satisfies all constraints
    under s, tried at the roots of the constraints over s, at the
    midpoint of each gap between them and at 1 past either end.  Roots
    of polynomial constraints are isolated afresh, not read off the
    library's root cache."""
    n = len(s)
    vals = []
    for c in C:
        if isinstance(c, Constraint):
            if c.poly.level == n + 1:
                roots = roots_in_extension(c.poly, s)
                if roots is not NULLIFIED:
                    vals.extend(roots)
        elif c.var == n + 1:
            v = eval_indexed_root(c.bound, s.prefix(c.bound.level - 1))
            if v is not UNDEF:
                vals.append(v)
    vals = sorted_distinct(vals)
    if not vals:
        candidates = [RealAlg.rational(0)]
    else:
        candidates = [RealAlg.rational(vals[0].enclosure()[0] - 1)]
        for j, v in enumerate(vals):
            candidates.append(v)
            if j + 1 < len(vals):
                a, b = separate(v, vals[j + 1])
                candidates.append(RealAlg.rational((a + b) / 2))
        candidates.append(RealAlg.rational(vals[-1].enclosure()[1] + 1))
    return not any(
        all(constraint_satisfied(c, s.extend(t)) for c in C) for t in candidates
    )


# ---------------------------------------------------------------------------
# the sweep point by point: the reference for `explain.sweep`, which
# decides each point from its region's position


def pointwise_sweep(C, cells, s):
    """(chosen, covered, uncovered, conflict) of the sweep of the next
    variable's line over s, each point of `line_samples` tried in turn:
    covered when all atoms of some cell hold there (`holds(...) is
    True`), else chosen when `constraint_satisfied` holds for every
    constraint of C there, else uncovered; a conflict when no point is
    chosen and no covered one satisfies C either.  The cut values are
    C's level-(n+1) roots and bounds, then the cells' bounds."""
    n = len(s)
    vals = []
    for c in list(C) + [a for cell in cells for a in cell]:
        if isinstance(c, Constraint):
            if c.poly.level == n + 1:
                roots = cached_roots(c.poly, s)
                if roots is not NULLIFIED:
                    vals.extend(roots)
        elif c.var == n + 1:
            v = eval_indexed_root(c.bound, s)
            if v is not UNDEF:
                vals.append(v)

    def satisfies(point):
        return all(constraint_satisfied(c, point) for c in C)

    chosen, covered, uncovered = None, [], []
    for t in line_samples(vals)[0]:
        point = s.extend(t)
        if any(all(a.holds(point) is True for a in cell) for cell in cells):
            covered.append(t)
        elif satisfies(point):
            chosen = t
            break
        else:
            uncovered.append(t)
    conflict = chosen is None and not any(satisfies(s.extend(t)) for t in covered)
    return chosen, covered, uncovered, conflict


# ---------------------------------------------------------------------------
# representation choice by pairwise comparison: the reference for
# `heuristics.choose_representation`, which compares the integer ranks of
# `realalg.value_ranks`; every decision here compares the exact values


def value_order(roots, val, tie_rank=lambda r: 0) -> list[IndexedRoot]:
    """The roots sorted by their values `val[root]`; equal values by
    tie_rank, then in canonical polynomial and index order."""

    def cmp(a: IndexedRoot, b: IndexedRoot) -> int:
        c = val[a].compare(val[b]) or tie_rank(a) - tie_rank(b)
        if c:
            return c
        ka, kb = (a.poly.sort_key(), a.index), (b.poly.sort_key(), b.index)
        return (ka > kb) - (ka < kb)

    return sorted(roots, key=functools.cmp_to_key(cmp))


def _main_degree(xi: IndexedRoot) -> int:
    return xi.poly.degree(xi.poly.level)


def _pick_min_degree(cands: list[IndexedRoot]) -> IndexedRoot:
    return min(cands, key=lambda xi: (_main_degree(xi), xi.poly.sort_key(), xi.index))


class _Ctx:
    """Shared scratch state while building one representation."""

    def __init__(self, xi, s_val: RealAlg, level: int):
        self.xi = xi
        self.val = {r: v for r, v in xi}
        self.s_val = s_val
        self.level = level

    def cmp_to_sample(self, r: IndexedRoot) -> int:
        return self.val[r].compare(self.s_val)

    def interval(self) -> SymbolicInterval:
        lower = [r for r, v in self.xi if v.compare(self.s_val) <= 0]
        upper = [r for r, v in self.xi if v.compare(self.s_val) >= 0]
        lo = up = None
        if lower:
            best = lower[0]
            for r in lower[1:]:
                if self.val[r].compare(self.val[best]) > 0:
                    best = r
            closest = [r for r in lower if self.val[r].compare(self.val[best]) == 0]
            lo = _pick_min_degree(closest)
        if upper:
            best = upper[0]
            for r in upper[1:]:
                if self.val[r].compare(self.val[best]) < 0:
                    best = r
            closest = [r for r in upper if self.val[r].compare(self.val[best]) == 0]
            up = _pick_min_degree(closest)
        if lo is not None and self.val[lo].compare(self.s_val) == 0:
            return SymbolicInterval.section(lo)
        return SymbolicInterval(self.level, lo, up)

    def reduced(self, interval: SymbolicInterval) -> list[IndexedRoot]:
        """Per polynomial only the closest lower and upper roots, in
        value order; equal values put the interval bounds adjacent to
        the sample (upper bound first in its group, lower bound last)."""
        keep: set[IndexedRoot] = set()
        by_poly: dict[MPoly, list[IndexedRoot]] = {}
        for r, _ in self.xi:
            by_poly.setdefault(r.poly, []).append(r)
        for roots in by_poly.values():
            lower = [r for r in roots if self.cmp_to_sample(r) <= 0]
            upper = [r for r in roots if self.cmp_to_sample(r) >= 0]
            if lower:
                keep.add(max(lower, key=lambda r: r.index))
            if upper:
                keep.add(min(upper, key=lambda r: r.index))

        lo, up = interval.lower, interval.upper
        return value_order(
            keep, self.val, lambda r: 1 if r == lo else (-1 if r == up else 0)
        )

    def barrier(
        self, r: IndexedRoot, subset: list[IndexedRoot], bound_roots
    ) -> IndexedRoot:
        """The lowest-degree root between r and the sample value, ties
        broken toward the sample, then boundary roots, then canonical
        order.  r itself is a candidate."""
        side = self.cmp_to_sample(r)
        if side <= 0:
            cands = [
                x
                for x in subset
                if self.val[r].compare(self.val[x]) <= 0
                and self.val[x].compare(self.s_val) <= 0
            ]
            closer_wins = 1  # larger value is closer to the sample
        else:
            cands = [
                x
                for x in subset
                if self.val[x].compare(self.val[r]) <= 0
                and self.s_val.compare(self.val[x]) <= 0
            ]
            closer_wins = -1

        def o(x: IndexedRoot):
            return (0 if x in bound_roots else 1, x.poly.sort_key(), x.index)

        best = cands[0]
        for x in cands[1:]:
            if _main_degree(x) != _main_degree(best):
                if _main_degree(x) < _main_degree(best):
                    best = x
                continue
            c = self.val[x].compare(self.val[best])
            if c:
                if c == closer_wins:
                    best = x
                continue
            if o(x) < o(best):
                best = x
        return best


def _pairs_bc(ctx: _Ctx, red, interval) -> list:
    lo, up = interval.lower, interval.upper
    pairs = []
    for r in red:
        if r == lo or r == up:
            continue
        if lo is not None and ctx.val[r].compare(ctx.val[lo]) <= 0:
            pairs.append((r, lo))
        elif up is not None and ctx.val[up].compare(ctx.val[r]) <= 0:
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
    """Pair each root with its barrier; roots that are their own
    barrier attach to the interval bound directly."""
    lo, up = interval.lower, interval.upper
    bound_roots = {b for b in (lo, up) if b is not None}
    pairs = []
    for r in subset:
        side = ctx.cmp_to_sample(r)
        if side < 0 and r != lo:
            b = ctx.barrier(r, subset, bound_roots)
            if b == r:
                b = lo
            if b is not None and b != r:
                pairs.append((r, b))
        elif side > 0 and r != up:
            b = ctx.barrier(r, subset, bound_roots)
            if b == r:
                b = up
            if b is not None and b != r:
                pairs.append((b, r))
    return pairs


def _ldb_section_eq_set(ctx: _Ctx, red, interval) -> set:
    """Fixed point collecting the polynomials whose roots only point at
    the section bound and serve as barrier for nobody else; those are
    handled by the equational projection instead of the ordering."""
    b = interval.lower
    polys = sorted({r.poly for r in red}, key=MPoly.sort_key)
    eq: set[MPoly] = set()
    changed = True
    while changed:
        changed = False
        subset = [r for r in red if r.poly not in eq]
        barr = {r: ctx.barrier(r, subset, {b}) for r in subset}
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
    """Build the representation for the given non-nullified polynomials
    at level `level` over the sample prefix, with s_val the sample's
    coordinate at this level."""
    xi = roots_with_values(polys, s_prefix)
    ctx = _Ctx(xi, s_val, level)
    interval = ctx.interval()
    if not xi:
        return Representation(interval, frozenset(), RootOrdering(()))

    strategy = (
        cfg.section_heuristic if interval.is_section() else cfg.sector_heuristic
    )
    eq_polys: set[MPoly] = set()
    red = ctx.reduced(interval)
    if strategy == "EQ":
        eq_polys = {r.poly for r, _ in xi}
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
            subset = [r for r in red if r.poly not in eq_polys]
            pairs = _pairs_ldb(ctx, subset, interval)
        else:
            pairs = _pairs_ldb(ctx, red, interval)

    # one delineable polynomial keeps its own roots ordered; record the
    # consecutive pairs so every root is covered by the ordering
    by_poly: dict[MPoly, int] = {}
    for r, _ in xi:
        by_poly[r.poly] = max(by_poly.get(r.poly, 0), r.index)
    for p, count in by_poly.items():
        if p in eq_polys:
            continue
        for k in range(1, count):
            pairs.append((IndexedRoot(p, k), IndexedRoot(p, k + 1)))

    if (
        not interval.is_section()
        and interval.lower is not None
        and interval.upper is not None
    ):
        pairs.append((interval.lower, interval.upper))

    return Representation(interval, frozenset(eq_polys), RootOrdering(pairs))


# ---------------------------------------------------------------------------
# the rule engine's picks


def scanning_greatest(Q, i: int, max_tier=None):
    """`PropertySet.greatest` by a scan of every pending property."""
    cands = [
        q
        for q in Q.at_level(i)
        if max_tier is None or q.tier <= max_tier
    ]
    return min(cands, key=selection_key) if cands else None


def ranked_apply_pre(Q, q, ctx) -> None:
    """`rules.apply_pre` ranking every rule instance, a sole one too:
    instances whose antecedents are all justified first, then by
    `Choice.order_key`."""
    choices = rule_choices(q, ctx)
    if not choices:
        raise ConstructionFailed(f"no applicable rule for {q.text()}")
    covered = [
        c for c in choices if all(a in Q or Q.justified(a) for a in c.antecedents)
    ]
    chosen = min(covered or choices, key=Choice.order_key)
    for kind, poly in chosen.introduced:
        ctx.stats.add(kind, poly)
    Q.derive(q, chosen.antecedents, chosen.rule)


# ---------------------------------------------------------------------------
# the SMT-LIB reader


def tokenize_by_characters(text: str) -> list[_Tok]:
    """The tokens of `text` by a walk over its characters, counting the
    line and the column as it goes."""
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def read_tokens(toks: list[_Tok]) -> list:
    """The top-level lists of a token stream, each starting with its
    opening parenthesis token; ParseError on an unbalanced parenthesis
    or a token outside any list."""
    nodes: list = []
    stack: list[list] = []
    for t in toks:
        if t.text == "(":
            new: list = [t]
            if stack:
                stack[-1].append(new)
            else:
                nodes.append(new)
            stack.append(new)
        elif t.text == ")":
            if not stack:
                raise ParseError("unbalanced ')'", t.line, t.col)
            stack.pop()
        else:
            if stack:
                stack[-1].append(t)
            else:
                raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)
    if stack:
        t = stack[-1][0]
        raise ParseError("unbalanced '('", t.line, t.col)
    return nodes


def decimal_literal(text: str) -> Fraction:
    """The value of -?digits[.digits] (either side of the point may be
    empty), digit by digit."""
    if "." in text:
        whole, frac = text.split(".", 1)
        sign = -1 if whole.startswith("-") else 1
        whole = whole.lstrip("-")
        num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
        return Fraction(sign * num, 10 ** len(frac))
    return Fraction(int(text))
