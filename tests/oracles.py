"""Independent reference computations used only by the test suite.

Everything here is deliberately implemented by a different route than
the library: resultants via the symbolic Sylvester determinant (Laplace
expansion, no division) and via the subresultant PRS over `MPoly`
coefficients (the library evaluates and interpolates on integers),
factorization via sympy's `Poly` over QQ (the library factors dense
integer polynomials, with closed forms up to degree 2), real-root
counting via Sturm sequences, root isolation by Descartes
bisection on `Fraction` coefficients with the Moebius transform rebuilt
at every node, factor checking via numeric root recombination, sign and
interval evaluation on `Fraction` objects (the library works on integer
numerators over a common denominator), and zero tests at algebraic
points via sympy's minimal polynomials.  Keeping both routes alive is
what makes the algebra tests meaningful.  The module also holds the structural checks
on a chosen representation (`representation_is_valid`,
`ordering_matches`), which only tests use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy

from onecell.cells import eval_indexed_root
from onecell.heuristics import roots_with_values
from onecell.polynomial import MPoly, Var, coeff_info, exact_div, normalize, resultant
from onecell.realalg import UNDEF, _cauchy_bound


def sylvester_matrix(p: MPoly, q: MPoly, v: Var) -> list[list[MPoly]]:
    dp, _, pc = coeff_info(p, v)
    dq, _, qc = coeff_info(q, v)
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
    _, _, ac = coeff_info(p, v)
    _, _, bc = coeff_info(q, v)
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


def _umul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _descartes_in(c: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Sign-variation bound on the number of roots in the open interval
    (a, b): 0 means none, 1 means exactly one."""
    n = len(c) - 1
    # coefficients of (1+x)^n * p((a + b*x) / (1+x))
    acc = [Fraction(0)] * (n + 1)
    lin1 = [a, b]          # a + b*x
    lin2 = [Fraction(1), Fraction(1)]  # 1 + x
    pow1: list[list[Fraction]] = [[Fraction(1)]]
    pow2: list[list[Fraction]] = [[Fraction(1)]]
    for _ in range(n):
        pow1.append(_umul(pow1[-1], lin1))
        pow2.append(_umul(pow2[-1], lin2))
    for k, ck in enumerate(c):
        if ck:
            term = _umul(pow1[k], pow2[n - k])
            for i, t in enumerate(term):
                acc[i] += ck * t
    return _variations([1 if x > 0 else -1 for x in acc if x != 0])


def descartes_bisection(c: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the real roots of an irreducible c of degree
    >= 2, in increasing order: bisection of (-B, B), B the library's
    Cauchy bound, with the Moebius transform rebuilt at every node."""
    c = [Fraction(x) for x in c]
    bound = _cauchy_bound(c)
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
    lo, up = interval.bounds()
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
        if interval.is_section() and r.poly != interval.bound.poly:
            # the equational projection against the bound polynomial can
            # stand in for the ordering unless they share a factor
            if not resultant(r.poly, interval.bound.poly, r.poly.level).is_zero():
                continue
        below = lo is not None and rep.ordering.le(r, lo)
        above = up is not None and rep.ordering.le(up, r)
        if not (below or above):
            return False
    return True
