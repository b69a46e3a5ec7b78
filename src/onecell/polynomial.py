"""Sparse multivariate polynomials over the rationals.

Variables are identified by 1-based integer indices under the fixed
ordering x1 < x2 < ... < xn.  A polynomial's *level* is the largest
variable index that actually occurs in it (0 for constants).  All
coefficients are exact `fractions.Fraction` values and every polynomial
is kept in a canonical form (trimmed exponent tuples, no zero
coefficients stored), so equality of term maps is equality of
polynomials.  The public `MPoly(...)` and `MPoly.constant` validate
their input (only `int` and `Fraction` coefficients, else TypeError).
Sums, negation, products, `scale`, `subst_rational`, the `coeff_info`
slices, `derivative` and `resultant` build canonical results and skip
that work through the trusted `MPoly._canonical`.

The module also provides the projection operations the cell construction
consumes: resultants by evaluation and interpolation on integers,
discriminants, and factorization (irreducible or square-free).

`factor` is the package's one boundary to sympy: linear and univariate
quadratic input has closed forms, and everything else goes to sympy's
dense factorization over ZZ (`sympy.polys` submodules only), on the
integer-primitive term map in the variables that occur.  Nothing else
in the package imports sympy; univariate root isolation factors through
`factor` too.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list
from sympy.polys.sqfreetools import dmp_sqf_list

Var = int  # 1-based variable index


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zero exponents so keys are canonical."""
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


class MPoly:
    """An immutable sparse polynomial in Q[x1, ..., xn].

    The term map sends trimmed exponent tuples to nonzero rational
    coefficients; the exponent tuple ``(2, 1)`` stands for x1^2*x2.
    """

    __slots__ = ("_terms", "_hash", "_level")

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _rational(c)
                if c != 0:
                    key = _trim(tuple(exps))
                    acc = clean.get(key, Fraction(0)) + c
                    if acc == 0:
                        clean.pop(key, None)
                    else:
                        clean[key] = acc
        self._terms = clean
        self._hash: int | None = None
        self._level = max((len(e) for e in clean), default=0)

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, terms: dict[tuple[int, ...], Fraction]) -> "MPoly":
        """Trusted constructor for terms that are already canonical."""
        self = object.__new__(cls)
        self._terms, self._hash = terms, None
        self._level = max(map(len, terms), default=0)
        return self

    @staticmethod
    def constant(c) -> "MPoly":
        return MPoly({(): c})

    @staticmethod
    def var(i: Var) -> "MPoly":
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return MPoly({tuple([0] * (i - 1) + [1]): Fraction(1)})

    # -- basic structure ----------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    @property
    def level(self) -> int:
        return self._level

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self._level == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms.get((), Fraction(0))

    def degree(self, v: Var) -> int:
        """Degree in x_v; 0 when the variable does not occur (and for 0)."""
        d = 0
        for e in self._terms:
            if len(e) >= v:
                d = max(d, e[v - 1])
        return d

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for e in self._terms:
            for i, k in enumerate(e):
                if k:
                    out.add(i + 1)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly._canonical({e: c for e, c in out.items() if c})

    def __radd__(self, other) -> "MPoly":
        return self.__add__(other)

    def __neg__(self) -> "MPoly":
        return MPoly._canonical({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        other = _coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                n = max(len(e1), len(e2))
                e = tuple(
                    (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                    for i in range(n)
                )
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly._canonical({e: c for e, c in out.items() if c})

    def __rmul__(self, other) -> "MPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = MPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "MPoly":
        c = _rational(c)
        return MPoly._canonical({e: c * k for e, k in self._terms.items()} if c else {})

    # -- evaluation / substitution ------------------------------------

    def eval_rational(self, point: Sequence[Fraction]) -> Fraction:
        """Evaluate at a fully rational point (coordinate j for x_j), on
        integer numerators over one common denominator."""
        if self._level > len(point):
            raise ValueError("point has too few coordinates")
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        scale, pows = den, []
        for i in range(self._level):
            d = self.degree(i + 1)
            if d:
                x = Fraction(point[i])
                a, b = x.numerator, x.denominator
                pows.append((i, [a**k * b ** (d - k) for k in range(d + 1)]))
                scale *= b**d
        total = 0
        for e, c in self._terms.items():
            t = c.numerator * (den // c.denominator)
            for i, pw in pows:
                t *= pw[e[i] if i < len(e) else 0]
            total += t
        return Fraction(total, scale)

    def subst_rational(self, vals: dict[Var, Fraction]) -> "MPoly":
        """Substitute rational values for some variables."""
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self._terms.items():
            coeff = c
            rest = list(e)
            for v, val in vals.items():
                if len(e) >= v and e[v - 1]:
                    coeff *= Fraction(val) ** e[v - 1]
                    rest[v - 1] = 0
            key = _trim(tuple(rest))
            out[key] = out.get(key, 0) + coeff
        return MPoly._canonical({e: c for e, c in out.items() if c})

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"MPoly({poly_to_str(self)})"

    def sort_key(self):
        """Canonical total order on polynomials, used for deterministic
        tie-breaking: graded comparison of the sorted term sequences."""
        n = self._level
        items = sorted(
            ((_monom_key(e, n), c) for e, c in self._terms.items()), reverse=True
        )
        return (self.total_degree(), len(items), tuple(items))


def _rational(c) -> Fraction:
    """c as a Fraction; TypeError unless c is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return Fraction(c)


def _coerce(x) -> MPoly:
    return x if isinstance(x, MPoly) else MPoly.constant(x)


def _monom_key(e: tuple[int, ...], n: int):
    padded = e + (0,) * (n - len(e))
    # graded lex with the highest variable most significant
    return (sum(e), tuple(reversed(padded)))


# ---------------------------------------------------------------------------
# univariate views


def coeff_info(p: MPoly, v: Var) -> tuple[int, MPoly, list[MPoly]]:
    """View p as univariate in x_v.

    Returns (degree, leading coefficient, coefficients from degree 0 up).
    A polynomial not mentioning x_v has degree 0 and is its own leading
    coefficient.
    """
    d = p.degree(v)
    coeffs: list[dict[tuple[int, ...], Fraction]] = [dict() for _ in range(d + 1)]
    for e, c in p._terms.items():
        k = e[v - 1] if len(e) >= v else 0
        rest = list(e)
        if len(rest) >= v:
            rest[v - 1] = 0
        coeffs[k][_trim(tuple(rest))] = c
    out = [MPoly._canonical(t) for t in coeffs]
    return d, out[d], out


# ---------------------------------------------------------------------------
# exact division (for quotients known to be polynomials)


def exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Divide a by b, raising ValueError unless the division is exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    if b.is_constant():
        return a.scale(Fraction(1) / b.constant_value())
    v = b.level
    db, lb, _ = coeff_info(b, v)
    xv = MPoly.var(v)
    total = MPoly({})
    rem = a
    while not rem.is_zero():
        da, la, _ = coeff_info(rem, v)
        if da < db:
            raise ValueError("inexact polynomial division")
        q = exact_div(la, lb)
        total = total + q * xv ** (da - db)
        rem = rem - q * xv ** (da - db) * b
    return total


# ---------------------------------------------------------------------------
# resultants and discriminants


def _utrim(c: list) -> list:
    """Drop trailing zero coefficients (Fraction or int) in place."""
    while c and not c[-1]:
        c.pop()
    return c


def _exact(a: int, b: int) -> int:
    """a / b, raising ArithmeticError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact integer division {a} / {b}")
    return q


def resultant(p: MPoly, q: MPoly, v: Var) -> MPoly:
    """res_v(p, q), the Sylvester determinant of p and q in x_v, which
    must both occur, by evaluation and interpolation on integers
    (Collins, "The calculation of multivariate polynomial resultants",
    JACM 1971): res_v(c*P, d*Q) = c^deg_v(q) * d^deg_v(p) * res_v(P, Q)."""
    dp, dq = p.degree(v), q.degree(v)
    if dp < 1 or dq < 1:
        raise ValueError("resultant requires positive degree in the main variable")
    c, d = content(p), content(q)
    P = {e: (k / c).numerator for e, k in p._terms.items()}
    Q = {e: (k / d).numerator for e, k in q._terms.items()}
    scale = c**dq * d**dp
    return MPoly._canonical({e: scale * k for e, k in _ires(P, Q, v, dp, dq).items()})


def _ideg(P: dict, j: Var) -> int:
    return max((e[j - 1] for e in P if len(e) >= j), default=0)


def _ieval(P: dict, j: Var, a: int) -> dict:
    """The integer term map P with x_j = a."""
    out: dict = {}
    for e, k in P.items():
        if len(e) >= j and e[j - 1]:
            k *= a ** e[j - 1]
            e = _trim(e[: j - 1] + (0,) + e[j:])
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k}


def _ires(P: dict, Q: dict, v: Var, dp: int, dq: int) -> dict:
    """res_v(P, Q) for integer term maps of degrees dp, dq >= 1 in x_v:
    another x_j is set to 0, 1, -1, 2, ..., skipping values where a
    degree in x_v drops (finitely many: the leading coefficients are
    nonzero), until they outnumber the result's degree bound in x_j."""
    others = {i + 1 for e in (*P, *Q) for i, k in enumerate(e) if k} - {v}
    if not others:
        r = _ures(P, Q, v, dp, dq)
        return {(): r} if r else {}
    j = max(others)
    bound = dp * _ideg(Q, j) + dq * _ideg(P, j)
    xs, vals, a = [], [], 0
    while len(xs) <= bound:
        Pa, Qa = _ieval(P, j, a), _ieval(Q, j, a)
        if _ideg(Pa, v) == dp and _ideg(Qa, v) == dq:
            xs.append(a)
            vals.append(_ires(Pa, Qa, v, dp, dq))
        a = -a if a > 0 else 1 - a
    out = {}
    for m in set().union(*vals):
        e = list(m) + [0] * (j - len(m))
        for k, c in enumerate(_interpolate(xs, [r.get(m, 0) for r in vals])):
            if c:
                e[j - 1] = k
                out[_trim(tuple(e))] = c
    return out


def _interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients (index = degree) of the integer polynomial of degree
    < len(xs) through the points (xs, ys), by Newton's divided
    differences, which are integers for integer coefficients."""
    c = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            c[i] = _exact(c[i] - c[i - 1], xs[i] - xs[i - k])
    out = [c[-1]]
    for k in range(len(xs) - 2, -1, -1):  # out = out * (x - xs[k]) + c[k]
        out = [a - xs[k] * b for a, b in zip([0] + out, out + [0])]
        out[0] += c[k]
    return out


def _ures(P: dict, Q: dict, v: Var, dp: int, dq: int) -> int:
    """res_v(P, Q) for integer term maps in x_v alone, by the subresultant
    PRS on dense coefficient lists (index = degree)."""
    A = [P.get(_trim((0,) * (v - 1) + (k,)), 0) for k in range(dp + 1)]
    B = [Q.get(_trim((0,) * (v - 1) + (k,)), 0) for k in range(dq + 1)]
    sign = 1
    if len(A) < len(B):
        A, B, sign = B, A, (-1) ** ((len(A) - 1) * (len(B) - 1))
    g = h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        d = da - db
        if da % 2 and db % 2:
            sign = -sign
        R, lb = list(A), B[-1]
        for k in range(d, -1, -1):  # R = lb^(d+1) * A mod B
            t = R.pop()
            R = [lb * r - (t * B[i - k] if i >= k else 0) for i, r in enumerate(R)]
        if not _utrim(R):
            return 0  # nonconstant common factor
        A, B = B, [_exact(c, g * h**d) for c in R]
        g = A[-1]
        if d:
            h = _exact(g**d, h ** (d - 1))
        if len(B) == 1:
            return sign * _exact(B[0] ** db, h ** (db - 1))


def discriminant(p: MPoly, v: Var) -> MPoly:
    """disc_v(p) = (-1)^(d(d-1)/2) res_v(p, dp/dxv) / ldcf_v(p).

    For degree 1 the empty-matrix convention yields the constant 1.
    """
    d = p.degree(v)
    if d < 1:
        raise ValueError("discriminant requires the variable to occur")
    if d == 1:
        return MPoly.constant(1)
    dp = derivative(p, v)
    r = resultant(p, dp, v)
    _, lc, _ = coeff_info(p, v)
    r = exact_div(r, lc)
    if (d * (d - 1) // 2) % 2 == 1:
        r = -r
    return r


def derivative(p: MPoly, v: Var) -> MPoly:
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p._terms.items():
        k = e[v - 1] if len(e) >= v else 0
        if k:
            rest = list(e)
            rest[v - 1] = k - 1
            out[_trim(tuple(rest))] = c * k
    return MPoly._canonical(out)


# ---------------------------------------------------------------------------
# normalization and factorization


def content(p: MPoly) -> Fraction:
    """Positive rational c with p/c integer-primitive; 0 for the zero poly."""
    if p.is_zero():
        return Fraction(0)
    nums = [c.numerator for c in p._terms.values()]
    dens = [c.denominator for c in p._terms.values()]
    g = 0
    for n in nums:
        g = math.gcd(g, abs(n))
    l = 1
    for d in dens:
        l = l * d // math.gcd(l, d)
    return Fraction(g, l)


def normalize(p: MPoly) -> MPoly:
    """Canonical representative up to nonzero constants: integer-primitive
    with positive leading coefficient under graded lex."""
    if p.is_zero():
        return p
    q = p.scale(Fraction(1) / content(p))
    n = q.level
    lead = max(q._terms, key=lambda e: _monom_key(e, n))
    if q._terms[lead] < 0:
        q = -q
    return q


def factor(p: MPoly, mode: str = "finest") -> list[tuple[MPoly, int]]:
    """Factor p into normalized irreducible (``finest``) or square-free
    pairwise-coprime (``squarefree``) factors with multiplicities.

    The product of factors^multiplicities equals p up to a nonzero
    rational constant.  Constant input yields an empty list.  A linear
    p is irreducible, and a univariate quadratic a*x^2 + b*x + c splits
    as 4a*p = (2a*x + b - r)(2a*x + b + r) exactly when its discriminant
    b^2 - 4ac is a square r^2.  Everything else goes to sympy's dense
    factorization over ZZ, on the integer-primitive p in the variables
    that occur, in their order.
    """
    if mode not in ("finest", "squarefree"):
        raise ValueError(f"unknown factor mode: {mode}")
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return []
    if p.total_degree() == 1:
        return [(normalize(p), 1)]
    vs = sorted(p.variables())
    cont = content(p)
    P = {e: (k / cont).numerator for e, k in p._terms.items()}
    if len(vs) == 1 and p.total_degree() == 2:
        v = vs[0]
        c, b, a = (P.get(_trim((0,) * (v - 1) + (k,)), 0) for k in range(3))
        disc = b * b - 4 * a * c
        r = math.isqrt(disc) if disc >= 0 else -1
        if r * r != disc or (r and mode == "squarefree"):
            pairs = [(p, 1)]  # irreducible, or square-free as it stands
        else:
            x = MPoly.var(v).scale(2 * a)
            pairs = [(x + b, 2)] if r == 0 else [(x + (b - r), 1), (x + (b + r), 1)]
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
                terms[tuple(e)] = int(k)  # ZZ may be gmpy2's mpz or flint's fmpz
            pairs.append((MPoly(terms), m))
    out = [(normalize(g), m) for g, m in pairs if not g.is_constant()]
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# text form


# Nesting depth past which both parsers (here and `smtlib`) refuse input.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(\d+|x\d+|[a-zA-Z_][a-zA-Z_0-9]*|\^|\*|/|\+|-|\(|\))")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad character at offset {pos}: {text[pos]!r}")
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.i += 1
        return tok

    def parse(self) -> MPoly:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input near {self.peek()!r}")
        return p

    def expr(self) -> MPoly:
        if self.peek() == "-":
            self.next()
            acc = -self.term()
        else:
            if self.peek() == "+":
                self.next()
            acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> MPoly:
        acc = self.power()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.next()
                rhs = self.power()
                if tok == "*":
                    acc = acc * rhs
                else:
                    if not rhs.is_constant() or rhs.constant_value() == 0:
                        raise ValueError("division only by nonzero constants")
                    acc = acc.scale(Fraction(1) / rhs.constant_value())
            elif tok is not None and (tok[0].isdigit() or tok[0].isalpha() or tok == "("):
                # implicit multiplication, e.g. "4x1^2"
                acc = acc * self.power()
            else:
                return acc

    def power(self) -> MPoly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            if self.peek() == "-":
                raise ValueError("negative exponents are not polynomials")
            k = self.next()
            if not k.isdigit():
                raise ValueError(f"expected integer exponent, got {k!r}")
            return base ** int(k)
        return base

    def atom(self) -> MPoly:
        tok = self.next()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
            p = self.expr()
            if self.next() != ")":
                raise ValueError("unbalanced parentheses")
            self.depth -= 1
            return p
        if tok.isdigit():
            return MPoly.constant(int(tok))
        m = re.fullmatch(r"x(\d+)", tok)
        if not m:
            raise ValueError(f"unknown symbol {tok!r} (variables are x1, x2, ...)")
        return MPoly.var(int(m.group(1)))


def parse_poly(text: str) -> MPoly:
    """Parse the compact infix form, e.g. ``x1^2+x2^2-1`` or ``5x1^2-2x1-3``."""
    return _Parser(text).parse()


def poly_to_str(p: MPoly) -> str:
    if p.is_zero():
        return "0"
    n = p.level
    items = sorted(p._terms.items(), key=lambda ec: _monom_key(ec[0], n), reverse=True)
    parts: list[str] = []
    for e, c in items:
        mono = "*".join(
            f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
            for i, k in enumerate(e)
            if k
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)
