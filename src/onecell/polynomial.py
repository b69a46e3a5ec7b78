"""Sparse multivariate polynomials over the rationals.

Variables are identified by 1-based integer indices under the fixed
ordering x1 < x2 < ... < xn.  A polynomial's *level* is the largest
variable index that actually occurs in it (0 for constants).  Every
coefficient is exact: an integral one is stored as an `int`, any other
as a `fractions.Fraction` with denominator > 1, never as an integral
`Fraction`.  Every polynomial is kept in this canonical form (also
trimmed exponent tuples, no zero coefficients stored), so equality of
term maps is equality of polynomials.  Since hash(n) == hash(Fraction(n))
and ints and Fractions order consistently, hashes, `sort_key` and text
are those of the same polynomial over `Fraction` coefficients; `terms`
and `constant_value` still hand out `Fraction`s.  The public
`MPoly(...)` and `MPoly.constant` validate their input (only `int` and
`Fraction` coefficients, else TypeError).  Sums, negation, products,
`scale`, `subst_rational`, the `coeff_info` slices, `normalize` and
the projections build canonical results and skip that work through the
trusted `MPoly._canonical`; those that compute new coefficients store
integral ones as `int` (`_stored`).  Every constructor ends in
`_canonical`, which returns the one live object for its term map from
`memo.POLYS`, so an equal polynomial built again is the same object
(`==` and `hash` stay value-based all the same: see `memo`).  A
polynomial is immutable, so nothing may change `_terms` after
construction; its hash is computed when it is built, and its other
derived views are computed on first use and kept on the value: the
text (`poly_to_str`), the tuple of per-variable degrees (behind
`degree` and `variables`), `sort_key`, the coefficients in the main
variable (`coeff_info(p, p.level)`), the normal form (`normalize`) and
the integer form (`_primitive_part`): the content as two ints and the
integer-primitive term map, which is p's own map when the content is
1.  Every reader of integer coefficients (the evaluators, `normalize`,
`dense`, the projection kernels and `factor`) reads the integer form,
so no other function converts a coefficient.  Each kept view is
immutable or handed out as a copy: `coeff_info` keeps a tuple and
returns a new list.

The module also provides the projection operations the cell construction
consumes: resultants, discriminants and principal subresultant
coefficients, each taken by a leaf on dense integer coefficient rows
over the eliminated variable, by one subresultant PRS on big integers
when the other variables pack into one integer of at most `PACK_BITS`
bits (Kronecker substitution), else by evaluation at integers and
interpolation (Collins 1971) down to nodes small enough to pack; and
factorization (irreducible or square-free).  Resultants, discriminants
and factors are kept in their `memo` tables.  It also provides
`dense`, the integer-primitive coefficient tuple of a univariate
polynomial that root isolation and the exact zero tests work on.

`factor` is the package's one boundary to sympy.  Linear input has a
closed form.  Univariate input goes to `factor_dense`, the one
univariate kernel, on integer coefficient tuples: one pipeline, in
which Yun's algorithm over a heuristic gcd on integers splits the tuple
into square-free parts (one evaluation gcd proves square-free input),
the ``squarefree`` answer, and in ``finest`` mode one splitter,
`_split`, factors each part: the quadratic closed form, deflation (x,
h(x^d) with h reducible, a binomial of odd degree with a rational
root), a degree-pattern certificate of irreducibility (distinct-degree
factorizations of images modulo small primes, on ints), then sympy.
Multivariate input is proved irreducible by that certificate, after its
monomial factor is split off, or square-free by such a gcd on an image;
the rest goes to sympy's dense factorization or square-free
decomposition over ZZ (`sympy.polys` submodules only).  Nothing else in
the package imports sympy; univariate root isolation calls
`factor_dense` on the tuple it works on.
"""

from __future__ import annotations

import math
import re
from array import array
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from . import memo

Var = int  # 1-based variable index


def _trim(c: Sequence) -> Sequence:
    """Drop trailing zeros: of an exponent tuple, so keys are canonical,
    or of a dense coefficient list (index = degree)."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


class MPoly:
    """An immutable sparse polynomial in Q[x1, ..., xn].

    The term map sends trimmed exponent tuples to nonzero rational
    coefficients (`int` when integral, else `Fraction`); the exponent
    tuple ``(2, 1)`` stands for x1^2*x2.  ``MPoly(terms)`` validates and
    canonicalizes a copy of `terms`; every constructor then returns the
    live object for the value from `memo.POLYS` (`_canonical`), whose
    callers give up the dict they pass.
    """

    __slots__ = ("_terms", "_hash", "_str", "_level", "_degrees", "_key", "_main", "_normal",
                 "_integer")

    def __new__(cls, terms: dict[tuple[int, ...], Fraction] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _coefficient(c)
                if c != 0:
                    key = _trim(tuple(exps))
                    clean[key] = clean.get(key, 0) + c
        return MPoly._canonical(_stored(clean))

    # -- constructors -------------------------------------------------

    @staticmethod
    def _canonical(terms: dict[tuple[int, ...], Fraction]) -> "MPoly":
        """Trusted constructor for terms that are already canonical: the
        polynomial kept in `memo.POLYS` for them, else a new one, kept
        there.  The caller gives up `terms`, which may become the new
        value's own map, and never changes it."""
        key = frozenset(terms.items())
        return memo.POLYS.fetch(key, _new_poly, terms, key)

    @staticmethod
    def constant(c) -> "MPoly":
        return MPoly({(): c})

    @staticmethod
    def var(i: Var) -> "MPoly":
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return MPoly({tuple([0] * (i - 1) + [1]): 1})

    # -- basic structure ----------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A copy of the term map, every coefficient as a `Fraction`."""
        return {e: Fraction(c) for e, c in self._terms.items()}

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
        return Fraction(self._terms.get((), 0))

    def _degree_tuple(self) -> tuple[int, ...]:
        """The degree in each of x1..x_level, computed on first use."""
        if self._degrees is None:
            self._degrees = tuple(map(max, zip_longest(*self._terms, fillvalue=0)))
        return self._degrees

    def degree(self, v: Var) -> int:
        """Degree in x_v; 0 when the variable does not occur (and for 0)."""
        degrees = self._degree_tuple()
        return degrees[v - 1] if 0 < v <= len(degrees) else 0

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def variables(self) -> set[Var]:
        return {v for v, d in enumerate(self._degree_tuple(), start=1) if d}

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly._canonical(_stored(out))

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
        return MPoly._canonical(_stored(out))

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
        c = _coefficient(c)
        return MPoly._canonical(_stored({e: c * k for e, k in self._terms.items()}))

    # -- evaluation / substitution ------------------------------------

    def eval_rational(self, point: Sequence[Fraction]) -> Fraction:
        """Evaluate at a fully rational point (coordinate j for x_j), on
        integers: each coordinate of p's variables is turned once into
        the integer pair `_fiber` reads, with `_rational`'s TypeError,
        and the value of p over its content comes back times the content
        g/l of the integer form."""
        if self._level > len(point):
            raise ValueError("point has too few coordinates")
        pairs = [_rational(x).as_integer_ratio() if d else None
                 for x, d in zip(point, self._degree_tuple())]
        (total,), scale = self._fiber(pairs, self._level + 1)
        (g, l), _ = _primitive_part(self)
        return Fraction(g * total, l * scale)

    def _fiber(self, point: Sequence[tuple[int, int] | None], v: Var) -> tuple[list[int], int]:
        """The coefficients in x_v of P, p over its content (the integer
        form, `_primitive_part`), from degree 0 up, with every other
        variable x_j of p at a/b for point[j - 1] = (a, b), b > 0, on
        integers: (c, scale), scale > 0, the coefficient of x_v^k in P
        being c[k] / scale; for v above p's level, the one entry
        P(point).  A coordinate that is not read, of x_v or of a
        variable p does not have, may be None.  One pass over P's
        terms: each x_j^k, with x_j of degree d_j in p, is a^k b^(d_j -
        k) from one table per variable, and the product goes into the
        slot of the term's degree in x_v."""
        scale, pows = 1, []
        for i, d in enumerate(self._degree_tuple()):
            if d and i != v - 1:
                a, b = point[i]
                pows.append((i, [a**k * b ** (d - k) for k in range(d + 1)]))
                scale *= b**d
        out = [0] * (self.degree(v) + 1)
        for e, t in _primitive_part(self)[1].items():
            for i, pw in pows:
                t *= pw[e[i] if i < len(e) else 0]
            out[e[v - 1] if len(e) >= v else 0] += t
        return out, scale

    def subst_rational(self, vals: dict[Var, Fraction]) -> "MPoly":
        """Substitute rational values for some variables; TypeError
        unless each value is an int or a Fraction."""
        vals = {v: _coefficient(val) for v, val in vals.items()}
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self._terms.items():
            coeff = c
            rest = list(e)
            for v, val in vals.items():
                if len(e) >= v and e[v - 1]:
                    coeff *= val ** e[v - 1]
                    rest[v - 1] = 0
            key = _trim(tuple(rest))
            out[key] = out.get(key, 0) + coeff
        return MPoly._canonical(_stored(out))

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        # the exact type first: nearly every comparison is of two MPolys,
        # and an isinstance test against (int, Fraction) goes through the
        # numbers ABCs
        if type(other) is not MPoly:
            if isinstance(other, (int, Fraction)):
                other = MPoly.constant(other)
            elif not isinstance(other, MPoly):
                return NotImplemented
        return self is other or self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default
        # protocol would get the kept zero from `MPoly()` and overwrite
        # its slots
        return MPoly, (self._terms,)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"MPoly({poly_to_str(self)})"

    def sort_key(self):
        """Canonical total order on polynomials, used for deterministic
        tie-breaking: graded comparison of the sorted term sequences."""
        if self._key is None:
            self._key = _order_key(self._terms.items(), self._level)
        return self._key


def _new_poly(terms: dict, key: frozenset) -> MPoly:
    """A new polynomial on `terms`, outside `memo.POLYS`; `key` is
    ``frozenset(terms.items())``, the source of its hash."""
    self = object.__new__(MPoly)
    self._terms = terms
    self._hash = hash(key)
    self._str = self._degrees = self._key = self._main = self._normal = self._integer = None
    self._level = max(map(len, terms), default=0)
    return self


def _rational(c) -> Fraction:
    """c as a Fraction, a Fraction as it is; TypeError unless c is an int
    or a Fraction, so a float never turns silently into its binary fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"rationals must be int or Fraction, not {type(c).__name__}")
    return c if isinstance(c, Fraction) else Fraction(c)


def _coefficient(c):
    """c in stored form, an int when integral; TypeError as `_rational`."""
    if type(c) is int:
        return c
    c = _rational(c)
    return c.numerator if c.denominator == 1 else c


def _stored(terms: dict) -> dict:
    """The nonzero terms of a term map of ints and Fractions, each
    integral coefficient as an `int`: the stored form of `MPoly`."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}


def _coerce(x) -> MPoly:
    return x if isinstance(x, MPoly) else MPoly.constant(x)


def _monom_key(e: tuple[int, ...], n: int):
    padded = e + (0,) * (n - len(e))
    # graded lex with the highest variable most significant
    return (sum(e), tuple(reversed(padded)))


def _order_key(items, n: int) -> tuple:
    """`MPoly.sort_key` of the polynomial with the (exponent,
    coefficient) items in n variables: the total degree, the number of
    terms, then the terms from the greatest monomial down."""
    items = sorted(((_monom_key(e, n), c) for e, c in items), reverse=True)
    return (items[0][0][0] if items else 0, len(items), tuple(items))


# ---------------------------------------------------------------------------
# univariate views


def coeff_info(p: MPoly, v: Var) -> tuple[int, MPoly, list[MPoly]]:
    """View p as univariate in x_v.

    Returns (degree, leading coefficient, coefficients from degree 0 up).
    A polynomial not mentioning x_v has degree 0 and is its own leading
    coefficient.  The coefficients in the main variable x_level are
    computed once and kept on p as a tuple; every call returns a new
    list.
    """
    if v != p._level:
        coeffs = _coefficients(p, v)
    elif p._main is None:
        coeffs = p._main = _coefficients(p, v)
    else:
        coeffs = p._main
    return len(coeffs) - 1, coeffs[-1], list(coeffs)


def _coefficients(p: MPoly, v: Var) -> tuple[MPoly, ...]:
    """The coefficients of p in x_v, from degree 0 up."""
    coeffs: list[dict] = [{} for _ in range(p.degree(v) + 1)]
    for e, c in p._terms.items():
        k = e[v - 1] if len(e) >= v else 0
        rest = list(e)
        if len(rest) >= v:
            rest[v - 1] = 0
        coeffs[k][_trim(tuple(rest))] = c
    return tuple(MPoly._canonical(t) for t in coeffs)


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


def _exact(a: int, b: int) -> int:
    """a / b, raising ArithmeticError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact integer division {a} / {b}")
    return q


def resultant(p: MPoly, q: MPoly, v: Var) -> MPoly:
    """res_v(p, q), the Sylvester determinant of p and q in x_v, which
    must both occur: res_v(c*P, d*Q) = c^deg_v(q) * d^deg_v(p) *
    res_v(P, Q) for the integer-primitive P and Q, whose resultant
    `_ires` computes by the integer subresultant PRS, on the other
    variables packed into one integer (Kronecker substitution) when
    that integer is small, else by evaluation at integers and
    interpolation (Collins, "The calculation of multivariate polynomial
    resultants", JACM 1971).  Results are kept in `memo.RESULTANT`."""
    return memo.RESULTANT.fetch((p, q, v), _resultant, p, q, v)


def _resultant(p: MPoly, q: MPoly, v: Var) -> MPoly:
    dp, dq = p.degree(v), q.degree(v)
    if dp < 1 or dq < 1:
        raise ValueError("resultant requires positive degree in the main variable")
    ((g, l), P), ((h, m), Q) = _primitive_part(p), _primitive_part(q)
    R, = _ires(_rows(P, v, dp), _rows(Q, v, dq), dp, dq, _ures)
    return _scaled(R, g**dq * h**dp, l**dq * m**dp)


def _scaled(R: dict, num: int, den: int) -> MPoly:
    """The polynomial R * num / den, for a kernel's integer term map R
    and positive ints num and den, with a Fraction only when den > 1."""
    if den == 1:
        return MPoly._canonical({e: num * k for e, k in R.items()})
    return MPoly._canonical(_stored({e: Fraction(num * k, den) for e, k in R.items()}))


def subresultant_coefficients(p: MPoly, v: Var) -> tuple[MPoly, ...]:
    """psc_0, ..., psc_(d-1), the principal subresultant coefficients of
    p and dp/dx_v, d = deg_v(p) >= 1: psc_j is the determinant of their
    Sylvester matrix in x_v with the last j rows of each polynomial and
    the last 2j columns struck out, so psc_0 is the resultant and
    psc_(d-1) = d * ldcf_v(p).  They are computed together by `_ires`
    around the integer subresultant PRS (`_upsc`), with the other
    variables packed into one integer (Kronecker substitution) or, for
    large input, evaluated at integers and interpolated (Collins 1971)."""
    (g, l), d, rows, drows = _with_derivative(p, v)
    # psc_j(c P, c P') = c^(2d-1-2j) psc_j(P, P'), c = g/l: the minor has
    # d-1-j rows of P and d-j rows of P'
    return tuple(_scaled(R, g ** (2 * d - 1 - 2 * j), l ** (2 * d - 1 - 2 * j))
                 for j, R in enumerate(_ires(rows, drows, d, d - 1, _upsc)))


def _with_derivative(p: MPoly, v: Var) -> tuple[tuple[int, int], int, dict, dict]:
    """p = (g/l) P for P of degree d >= 1 in x_v, the integer form of p
    (`_primitive_part`): the content as the ints (g, l), d, and the rows
    (`_rows`) of P and of dP/dx_v."""
    d = p.degree(v)
    if d < 1:
        raise ValueError(f"x{v} does not occur in {p}")
    (g, l), P = _primitive_part(p)
    rows = _rows(P, v, d)
    drows = {e: [k * x for k, x in enumerate(r)][1:] for e, r in rows.items() if any(r[1:])}
    return (g, l), d, rows, drows


def _rows(P: dict, v: Var, d: int) -> dict:
    """The term map P of degree d in x_v as dense coefficient rows over
    x_v (index = degree, length d + 1), keyed by the exponents of the
    other variables (x_v's entry 0, trimmed)."""
    out: dict = {}
    for e, k in P.items():
        i = e[v - 1] if len(e) >= v else 0
        if i:
            e = _trim(e[: v - 1] + (0,) + e[v:])
        row = out.get(e)
        if row is None:
            row = out[e] = [0] * (d + 1)
        row[i] = k
    return out


# The largest packed operand, in bits, that `_ires` hands to its leaf.
# CPython's long division is quadratic, so a PRS on one packed integer
# loses to evaluation and interpolation as the integer grows: on dense
# bivariate input they break even near 30k bits, and this keeps a margin.
PACK_BITS = 1 << 14


def _ires(P: dict, Q: dict, dp: int, dq: int, leaf) -> list[dict]:
    """The polynomials that leaf computes, as term maps, for rows
    (`_rows`) of integer polynomials of degrees dp, dq in x_v, where
    leaf(A, B) lists minors of the Sylvester matrix of two dense integer
    rows of those degrees (`_ures`, `_upsc`), or the resultant divided
    by lc(A), which keeps their bounds (`_udisc`).

    Small input is packed (Kronecker substitution): with D_k the degree
    bound `_degree_bound` in x_k, which bounds each such minor too (it
    has fewer rows of each polynomial), |T| the sum of the absolute
    values of the integer coefficients of T's rows, N = 2 |P|^dq |Q|^dp
    + 1 and b its bits, x_k is set to 2^(b (D_1+1)...(D_(k-1)+1)), and
    the leaf runs once on two integer rows.  Expanding a minor's
    determinant bounds the sum of its coefficients' absolute values by
    the product of its rows' sums, each |P| or |Q|, so every coefficient
    is below N/2 < 2^(b-1), and the minor, of degree <= D_k in each x_k,
    is read back from the balanced base-2^b digits of the leaf's integer
    (`_digits`).  The substitution keeps dp and dq, which `_upsc` needs:
    D_k >= max(deg_k P, deg_k Q), so each nonzero coefficient of a row
    maps to a nonzero integer.  Input is small when the packed integers'
    size, b (D_1+1)...(D_j+1) bits, is at most `PACK_BITS`.

    Otherwise the highest other x_j is set to 0, 1, -1, 2, ... (`_at`),
    skipping values where a degree in x_v drops (finitely many: the
    leading coefficients are nonzero), until they outnumber D_j + 1,
    each image goes through `_ires` again and the values are
    interpolated (Collins 1971)."""
    j = max(map(len, (*P, *Q)))
    if not j:
        return [{(): r} if r else {} for r in leaf(P[()], Q[()])]
    widths = [_degree_bound(P, Q, k, dp, dq) + 1 for k in range(1, j + 1)]
    n = 2 * _norm(P) ** dq * _norm(Q) ** dp + 1
    if n.bit_length() * math.prod(widths) <= PACK_BITS:
        return _packed(P, Q, dp, dq, leaf, widths, n)
    xs, vals, a = [], [], 0
    while len(xs) < widths[-1]:
        Pa, Qa = _at(P, j, a), _at(Q, j, a)
        if any(r[dp] for r in Pa.values()) and any(r[dq] for r in Qa.values()):
            xs.append(a)
            vals.append(_ires(Pa, Qa, dp, dq, leaf))
        a = -a if a > 0 else 1 - a
    outs = []
    for maps in zip(*vals):
        out = {}
        for m in set().union(*maps):
            e = list(m) + [0] * (j - len(m))
            for k, c in enumerate(_interpolate(xs, [r.get(m, 0) for r in maps])):
                if c:
                    e[j - 1] = k
                    out[_trim(tuple(e))] = c
        outs.append(out)
    return outs


def _norm(T: dict) -> int:
    """The sum of the absolute values of the integers in the rows T."""
    return sum(abs(c) for row in T.values() for c in row)


def _packed(P: dict, Q: dict, dp: int, dq: int, leaf, widths: list[int], n: int) -> list[dict]:
    """`_ires` by one leaf call, with x_k = 2^(b widths[0]...widths[k-2]),
    b the bits of n: each minor has coefficients below n/2 < 2^(b-1)
    and degree below widths[k-1] in x_k, so its balanced base-2^b digits
    (`_digits`) are its coefficients."""
    b = n.bit_length()
    steps = [b * math.prod(widths[:k]) for k in range(len(widths))]

    def pack(T: dict, d: int) -> list[int]:
        out = [0] * (d + 1)
        for e, row in T.items():
            f = sum(x * y for x, y in zip(e, steps))
            for i, c in enumerate(row):
                if c:
                    out[i] += c << f
        return out

    outs = []
    for r in leaf(pack(P, dp), pack(Q, dq)):
        out = {}
        for s, c in enumerate(_digits(r, b)):
            if c:
                e = []
                for w in widths:
                    s, x = divmod(s, w)
                    e.append(x)
                out[_trim(tuple(e))] = c
        outs.append(out)
    return outs


def _at(P: dict, j: Var, a: int) -> dict:
    """The rows P with x_j = a, x_j the highest variable of any key."""
    out: dict = {}
    for e, row in P.items():
        if len(e) == j:
            f = a ** e[-1]
            if not f:
                continue
            e, row = _trim(e[:-1]), [f * c for c in row]
        r = out.get(e)
        out[e] = row if r is None else [x + y for x, y in zip(r, row)]
    return {e: r for e, r in out.items() if any(r)}


def _degree_bound(P: dict, Q: dict, j: Var, dp: int, dq: int) -> int:
    """A bound on deg_j res_v(P, Q), for rows (`_rows`) P and Q, from the
    degrees in x_j, or from the total degrees: column c of P's r-th
    Sylvester row holds the x_v^(dp+r-c) coefficient, of total degree
    <= tdeg(P) - dp - r + c, and a term of the determinant sums these
    over all rows and columns."""
    tp, tq = (max(sum(e) + len(_trim(r)) - 1 for e, r in T.items()) for T in (P, Q))
    jp, jq = (max((e[j - 1] for e in T if len(e) >= j), default=0) for T in (P, Q))
    return min(dp * jq + dq * jp, tp * dq + tq * dp - dp * dq)


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


def _prem(A: list[int], B: list[int]) -> list[int]:
    """The pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B of dense
    integer coefficient lists (index = degree) with deg A >= deg B >= 0,
    trimmed: empty exactly when B divides A over Q."""
    R, lb = list(A), B[-1]
    for k in range(len(A) - len(B), -1, -1):
        t = R.pop()
        R = [lb * r - (t * B[i - k] if i >= k else 0) for i, r in enumerate(R)]
    return _trim(R)


def _ures(A: list[int], B: list[int]) -> list[int]:
    """[res(A, B)] for dense integer coefficient lists (index = degree)
    of positive degrees with nonzero last entries: psc_0 of `_upsc`,
    which wants deg A >= deg B, and res(B, A) = (-1)^(deg A * deg B)
    res(A, B)."""
    if len(A) >= len(B):
        return _upsc(A, B)[:1]
    r = _upsc(B, A)[0]
    return [-r if (len(A) - 1) * (len(B) - 1) % 2 else r]


def _upsc(A: list[int], B: list[int]) -> list[int]:
    """psc_0, ..., psc_n of A and B, dense integer coefficient lists
    (index = degree) with nonzero last entries and deg A >= deg B = n
    (psc_n = lc(B)^(deg A - n), or 1 when the degrees are equal), by
    the subresultant PRS (Brown, "The subresultant PRS algorithm", ACM
    TOMS 1978): each remainder is the subresultant of one degree below
    its divisor's, and psc_k is nonzero exactly at the degrees k of the
    remainders, where it follows from the leading coefficient g of the
    remainder and the previous h: h' = g^d / h^(d-1), d the drop in
    degree.  Dividing each pseudo-remainder by (-1)^(d+1) g h^d keeps
    both exact and signed as the determinants are."""
    out = [0] * len(B)
    g = h = 1
    while True:
        d = len(A) - len(B)
        b = g * h**d if d % 2 else -g * h**d
        g = B[-1]
        if d:
            h = _exact(g**d, h ** (d - 1))
        out[len(B) - 1] = h
        R = _prem(A, B) if len(B) > 1 else None
        if not R:
            return out
        A, B = B, [_exact(x, b) for x in R]


def discriminant(p: MPoly, v: Var) -> MPoly:
    """disc_v(p) = (-1)^(d(d-1)/2) res_v(p, dp/dxv) / ldcf_v(p).

    For degree 1 the empty-matrix convention yields the constant 1.
    For p = c P with P integer-primitive, disc_v(p) = c^(2d-2) disc_v(P),
    which `_ires` computes around the leaf `_udisc` on the rows of P and
    P' (`_with_derivative`).  Results are kept in `memo.DISCRIMINANT`,
    keyed on (p, v).
    """
    return memo.DISCRIMINANT.fetch((p, v), _discriminant, p, v)


def _discriminant(p: MPoly, v: Var) -> MPoly:
    if p.degree(v) == 1:
        return MPoly.constant(1)
    (g, l), d, rows, drows = _with_derivative(p, v)
    R, = _ires(rows, drows, d, d - 1, _udisc)
    return _scaled(R, g ** (2 * d - 2), l ** (2 * d - 2))


def _udisc(A: list[int], B: list[int]) -> list[int]:
    """[disc(A)] for a dense integer row A of degree d >= 2 and B = A':
    (-1)^(d(d-1)/2) res(A, B) / lc(A), an exact division.  `_ires` may
    pack or evaluate the other variables, since both are ring maps that
    keep lc(A) nonzero, and its bounds hold: disc is the Sylvester
    determinant, up to sign, with its first column divided by lc, so it
    has the resultant's row sums and degree bounds."""
    d = len(A) - 1
    r = _exact(_upsc(A, B)[0], A[-1])
    return [-r if d * (d - 1) // 2 % 2 else r]


# ---------------------------------------------------------------------------
# normalization and factorization


def _primitive_part(p: MPoly) -> tuple[tuple[int, int], dict[tuple[int, ...], int]]:
    """The integer form of p, computed on first use and kept on p: the
    content g/l of a nonzero p, the positive rational with p/(g/l)
    integer-primitive, as the ints (g, l), and the integer term map P of
    p/(g/l), in which each coefficient n/d goes to n * (l // d) // g.
    P is p's own term map when g = l = 1, as for every normal form; like
    it, P is never changed."""
    if p._integer is None:
        cs = p._terms.values()
        g = math.gcd(*(c.numerator for c in cs))
        l = math.lcm(*(c.denominator for c in cs))
        p._integer = (g, l), (p._terms if g == l == 1 else {
            e: k.numerator * (l // k.denominator) // g for e, k in p._terms.items()})
    return p._integer


def normalize(p: MPoly) -> MPoly:
    """Canonical representative up to nonzero constants: integer-primitive
    with positive leading coefficient under graded lex, computed once and
    kept on p (and on the result, its own normal form)."""
    if p._normal is None:
        if p.is_zero():
            return p
        _, P = _primitive_part(p)
        n = p.level
        if P[max(P, key=lambda e: _monom_key(e, n))] < 0:
            P = {e: -k for e, k in P.items()}
        q = p._normal = MPoly._canonical(P)
        q._normal = q
    return p._normal


def dense(p: MPoly, v: Var) -> tuple[int, ...]:
    """The coefficients of p over its content, from degree 0 up, for a
    nonzero p in x_v alone (ValueError otherwise): integer-primitive,
    with the sign of p's leading coefficient."""
    if p.is_zero() or not p.variables() <= {v}:
        raise ValueError(f"{poly_to_str(p)} is not a nonzero polynomial in x{v} alone")
    return tuple(_rows(_primitive_part(p)[1], v, p.degree(v))[()])


def _primitive(c: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer coefficient list c (index = degree) over its
    content, signed so that its leading coefficient is positive."""
    g = math.gcd(*c)
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c)


def _upoly(c: Sequence[int], v: Var) -> MPoly:
    """The polynomial sum c[k] * x_v^k of integers, unvalidated."""
    return MPoly._canonical(
        {_trim((0,) * (v - 1) + (k,)): x for k, x in enumerate(c) if x}
    )


def factor(p: MPoly, mode: str = "finest") -> list[tuple[MPoly, int]]:
    """Factor p into normalized irreducible (``finest``) or square-free
    pairwise-coprime (``squarefree``) factors with multiplicities.

    The product of factors^multiplicities equals p up to a nonzero
    rational constant.  Constant input yields an empty list.  A linear
    p is irreducible, and a univariate p goes to `factor_dense`.  In
    ``finest`` mode the monomial x1^m1 * ... * xn^mn, m_v the least
    exponent of x_v in p, is split off, and p over it is factored; then
    the degree-pattern certificate `_irreducible_by_degrees` may prove
    p irreducible.  ``squarefree`` mode, whose grouping follows sympy's
    `sqf_list`, splits nothing off, and `_squarefree_by_images` may
    prove p square-free.  Everything else goes to sympy's dense
    factorization (or square-free decomposition) over ZZ, on the
    integer-primitive p in the variables that occur, in their order;
    input the certificate refuses costs it at most `CERTIFICATE_BUDGET`
    reductions first.  Results are kept in `memo.FACTOR`, and each call
    returns a new list.  Each output f of a ``finest`` call is
    normalized and irreducible, so the call also records [(f, 1)] as
    the answer for f in both modes.
    """
    if mode not in ("finest", "squarefree"):
        raise ValueError(f"unknown factor mode: {mode}")
    return list(memo.FACTOR.fetch((p, mode), _recorded, _factor, p, mode))


def factor_dense(c: tuple[int, ...], mode: str = "finest") -> list[tuple[tuple[int, ...], int]]:
    """`factor` of the univariate integer-primitive c (index = degree)
    with a positive leading coefficient: its factors as such tuples,
    ordered as `factor` orders their polynomials.  `_yun` splits c into
    square-free parts, the answer in ``squarefree`` mode; in ``finest``
    mode `_split` factors each part into irreducibles, which keep its
    multiplicity.  Kept in `memo.FACTOR` under (c, mode) and recorded as
    `factor` records."""
    return list(memo.FACTOR.fetch((c, mode), _recorded, _factor_dense, c, mode))


def _recorded(compute, x, mode: str) -> list:
    """compute(x, mode); each factor f of a ``finest`` answer is
    irreducible, so [(f, 1)] is recorded as its answer in both modes."""
    out = compute(x, mode)
    if mode == "finest":
        for f, _ in out:
            for m in ("finest", "squarefree"):
                memo.FACTOR.fetch((f, m), list, [(f, 1)])
    return out


def _factor_dense(c: tuple[int, ...], mode: str) -> list[tuple[tuple[int, ...], int]]:
    pairs = _yun(c) if len(c) > 1 else []
    if mode == "finest":
        pairs = [(f, m) for g, m in pairs for f in _split(g)]
    if len(pairs) > 1:
        pairs.sort(key=lambda fm: _order_key((((k,), x) for k, x in enumerate(fm[0]) if x), 1))
    return pairs


def _split(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The irreducible factors of the square-free c, integer-primitive
    with a positive leading coefficient, as such tuples, by the first
    step that applies.  A quadratic a*x^2 + b*x + k splits as
    4a*c = (2a*x + b - r)(2a*x + b + r) exactly when b^2 - 4ak = r^2.
    x is split off when it divides c.  A binomial a*x^n + b that
    Capelli's criterion proves irreducible (`_capelli`) is one factor.
    With c = h(x^d) for the largest d > 1 at which h is reducible, the
    factors are those of each f(x^d), f an irreducible factor of h.  A binomial a*x^d + b of odd degree d
    with a = w^d and |b| = s^d has the root u/w, u = -sign(b)*s:
    a*x^d + b = (w*x)^d - u^d is w*x - u, primitive as gcd(w, s) = 1,
    times sum w^i u^(d-1-i) x^i.  (Even d is split by the quadratic
    closed form at d/2.)  Then the degree-pattern certificate may prove
    c irreducible, and sympy's `dup_factor_list` answers the rest.
    Smaller input, square-free as c is, goes through `factor_dense`
    (`_finest`), which keeps its answer."""
    n = len(c) - 1
    if n == 2:
        k, b, a = c
        disc = b * b - 4 * a * k
        r = math.isqrt(disc) if disc >= 0 else -1
        return [c] if r * r != disc else [_primitive((b - r, 2 * a)), _primitive((b + r, 2 * a))]
    if n < 2:
        return [c]
    if not c[0]:
        return [(0, 1)] + _finest(c[1:])
    g = math.gcd(*(i for i, x in enumerate(c) if x))
    if g == n and _capelli(c[0], c[-1], n):
        return [c]
    for d in range(g, 1, -1):
        h = c[::d]
        if g % d or len(fs := _finest(h)) == 1:
            continue
        out = []
        for f in fs:
            lifted = [0] * (d * len(f) - d + 1)
            lifted[::d] = f
            out += _finest(tuple(lifted))
        return out
    if g == n and n % 2 and (w := _exact_root(c[-1], n)) and (s := _exact_root(abs(c[0]), n)):
        u = -s if c[0] > 0 else s
        return [(-u, w)] + _finest(tuple(w**i * u ** (n - 1 - i) for i in range(n)))
    if _irreducible_by_degrees({(k,): x for k, x in enumerate(c) if x}, [1]):
        return [c]
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, fs = dup_factor_list(list(reversed(c)), ZZ)
    # ZZ may be gmpy2's mpz or flint's fmpz
    return [_primitive([int(k) for k in reversed(f)]) for f, _ in fs if len(f) > 1]


def _finest(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The irreducible factors of the square-free c, by `factor_dense`."""
    return [f for f, _ in factor_dense(c)]


def _capelli(b: int, a: int, n: int) -> bool:
    """Whether a*x^n + b, a > 0 and b != 0 coprime, is irreducible over
    Q, by Capelli's criterion (Lang, *Algebra*, VI, Thm. 9.1): exactly
    when r = -b/a is no p-th power in Q for a prime p | n and, when 4 |
    n, r is not in -4*Q^4, that is b/(4a) is not a fourth power."""
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            if (p > 2 or b < 0) and _exact_root(abs(b), p) and _exact_root(a, p):
                return False
    if n % 4 or b < 0:
        return True
    q = Fraction(b, 4 * a)
    return not (_exact_root(q.numerator, 4) and _exact_root(q.denominator, 4))


def _exact_root(k: int, d: int) -> int | None:
    """The integer r with r^d = k, for integers k >= 1 and d >= 2, or
    None: Newton's iteration on integers, from above, ends at the floor
    of the d-th root."""
    r = 1 << -(-k.bit_length() // d)
    while (t := ((d - 1) * r + k // r ** (d - 1)) // d) < r:
        r = t
    return r if r**d == k else None


def _yun(c: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The ``squarefree`` factors of c, integer-primitive with a positive
    leading coefficient, by Yun's algorithm (Yun 1976): with b = c /
    gcd(c, c') and d = c' / gcd(c, c') - b', each a = gcd(b, d) is the
    product of the factors of multiplicity i = 1, 2, ..., and b and d go
    on as b / a and d / a - (b / a)'.  Each gcd is taken by
    `_gcd_heuristic`, whose cofactors are the divisions, so a
    square-free c costs one evaluation gcd (the certificate)."""
    dc = [k * x for k, x in enumerate(c)][1:]
    g, b, d = _gcd_heuristic(c, dc)
    if len(g) == 1:
        return [(c, 1)]
    pairs, i = [], 1
    while len(b) > 1 and i < len(c):  # no multiplicity exceeds deg c
        d = _trim([x - k * y for k, (x, y) in enumerate(zip_longest(d, b[1:], fillvalue=0), 1)])
        a, b, d = _gcd_heuristic(b, d)
        if len(a) > 1:
            pairs.append((tuple(a), i))
        i += 1
    return pairs


# The bits the first point of `_gcd_heuristic` has beyond its bound: a
# margin, so that a common factor of a(x) and b(x) that is not a value
# of the gcd rarely spoils it.
GCD_MARGIN = 8


def _gcd_heuristic(a: Sequence[int], b: Sequence[int]) -> tuple[Sequence[int], ...]:
    """(g, a / g, b / g) for trimmed integer coefficient lists (index =
    degree) a != 0 and b, g their gcd over Q, integer-primitive with a
    positive leading coefficient: the heuristic gcd (Char, Geddes and
    Gonnet, "GCDHEU", 1989).  At x = 2^k, gamma = gcd(a(x), b(x)) has the
    balanced base-x digits (`_digits`) of some H with H(x) = gamma, and
    the primitive part G of H is taken when it divides a and b exactly.
    Then G is the gcd: it divides g, and with g = G * q, g(x) divides
    gamma = cont(H) * G(x), so q(x) divides cont(H), of absolute value
    at most x/2.  Each root r of q is a root of a and of b, so |r| < 1 +
    m, m the lesser of |a|/|lc(a)| and |b|/|lc(b)| in the max norm
    (Cauchy), and 2^k >= 2 + 2m makes each |x - r| > x/2: a nonconstant
    q has |q(x)| > x/2.  So gamma <= x/2 proves a and b coprime with no
    division: the certificate.

    Otherwise k is doubled until G divides both, which ends: with a =
    g*a1 and b = g*b1, gamma = g(x)*delta, delta a divisor of N =
    res(a1, b1) != 0, or of N = a1 if it is constant, so every 2^k >
    2|N| |g| (max norm) reads delta*g, whose primitive part is g, and
    the bound that makes an accepted G sound holds at every larger k."""
    if not b:
        g = _primitive(a)
        return g, [a[-1] // g[-1]], []
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    m = min(-(-max(map(abs, a)) // abs(a[-1])), -(-max(map(abs, b)) // abs(b[-1])))
    k = (2 * m + 1).bit_length() + GCD_MARGIN
    while True:
        gamma = math.gcd(_at_power(a, k), _at_power(b, k))
        if 2 * gamma <= 1 << k:
            return (1,), a, b
        G = _primitive(_digits(gamma, k))
        if (qa := _quotient(a, G)) is not None and (qb := _quotient(b, G)) is not None:
            return G, qa, qb
        k *= 2


def _at_power(c: Sequence[int], k: int) -> int:
    """c(2^k), by Horner's rule on shifts."""
    out = 0
    for x in reversed(c):
        out = (out << k) + x
    return out


def _digits(x: int, k: int) -> list[int]:
    """The balanced base-2^k digits of x, lowest first, each in
    (-2^(k-1), 2^(k-1)]: x = sum d_i 2^(ik)."""
    base, out = 1 << k, []
    while x:
        d = x & (base - 1)
        if 2 * d > base:  # the balanced digit d - 2^k
            d -= base
        out.append(d)
        x = (x - d) >> k
    return out


def _quotient(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """a / b for integer coefficient lists (index = degree, b trimmed)
    when b divides a over ZZ, else None."""
    m = len(b) - 1
    if len(a) <= m:
        return None
    a, lb = list(a), b[-1]
    out = [0] * (len(a) - m)
    for k in range(len(a) - 1, m - 1, -1):
        t, r = divmod(a[k], lb)
        if r:
            return None
        if t:
            out[k - m] = t
            a[k - m:k] = [x - t * y for x, y in zip(a[k - m:k], b)]
    return None if any(a[:m]) else out


def _factor(p: MPoly, mode: str) -> list[tuple[MPoly, int]]:
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return []
    if p.total_degree() == 1:
        return [(normalize(p), 1)]
    vs = sorted(p.variables())
    if len(vs) == 1:
        v = vs[0]
        return [(_upoly(f, v), m) for f, m in factor_dense(_primitive(dense(p, v)), mode)]
    _, P = _primitive_part(p)
    low = ()  # in ``finest`` mode: x_v^low[v - 1] divides p
    if mode == "finest":
        low = [min(e[j] if j < len(e) else 0 for e in P) for j in range(vs[-1])]
    if any(low):
        rest = {_trim(tuple(x - y for x, y in zip(e, low))): k for e, k in P.items()}
        pairs = [(MPoly.var(v), m) for v, m in enumerate(low, 1) if m]
        pairs += factor(MPoly._canonical(rest))
    elif (_irreducible_by_degrees if mode == "finest" else _squarefree_by_images)(P, vs):
        pairs = [(p, 1)]
    else:
        from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
        from sympy.polys.domains import ZZ
        from sympy.polys.factortools import dmp_factor_list
        from sympy.polys.sqfreetools import dmp_sqf_list

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


# The degree-pattern certificate sets every other variable to each of
# these values, and reduces the images modulo each of these primes, at
# most CERTIFICATE_BUDGET times in all for one input.
CERTIFICATE_POINTS = (1, -1, 2, -2, 3)
CERTIFICATE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
CERTIFICATE_BUDGET = 32


def _irreducible_by_degrees(P: dict, vs: list[Var]) -> bool:
    """True when a degree-pattern test (Musser, "On the efficiency of a
    polynomial irreducibility test", JACM 1978) proves the
    integer-primitive term map P in the variables vs irreducible over
    Q; False proves nothing.  `factor` splits monomial factors off
    before it asks, and the test refuses them by itself: x_v gives every
    reduction of an image in v the root 0, a factor of degree 1, and
    leaves no coefficient of a power of another variable an integer.

    The test takes each variable v, highest first, in which P has degree
    n >= 1 and some coefficient of a power of v is a nonzero integer.
    For n = 1 that is the proof.  Otherwise every other variable is set
    to a in `CERTIFICATE_POINTS`, and each image that keeps degree n is
    reduced modulo the primes q in `CERTIFICATE_PRIMES` that do not
    divide its leading coefficient, each prime in turn meeting every
    image of every variable, at most `CERTIFICATE_BUDGET` times.  Where
    a reduction is square-free, its distinct-degree factorization gives
    the degrees of its irreducible factors (`_narrowed`).  The proof is
    that for some v no degree 0 < k < n is a sum of some of them for
    every such reduction of an image in v.

    Why it is sound: suppose P = f*g with neither a unit; by Gauss's
    lemma f and g may be taken over ZZ.  If f is free of v, it divides
    every coefficient of a power of v, the integer one too, so f is an
    integer; it divides the content of P, which is 1, so f is a unit.
    Hence k = deg_v f is in 0 < k < n, which n = 1 forbids.  An image
    that keeps degree n keeps the degrees of f and g, as the leading
    coefficient of P is that of f times that of g, and so does its
    reduction modulo a prime q that does not divide that coefficient.
    Then the reduction of f is a product of some of the reduction's
    irreducible factors, which are distinct when it is square-free, so
    k is a sum of some of their degrees.
    """
    images, left = {}, {}  # per variable v: its images, the degrees k left
    for v, n, vimages in _images(P, vs):
        if n == 1:
            return True
        images[v], left[v] = vimages, (1 << n) - 2  # bit k set: 0 < k < n is left
    budget = CERTIFICATE_BUDGET
    for q in CERTIFICATE_PRIMES:
        for v, vimages in images.items():
            for image in vimages:
                if image[-1] % q == 0:
                    continue
                left[v] = _narrowed(image, q, left[v])
                if not left[v]:
                    return True
                budget -= 1
                if not budget:
                    return False
    return False


def _images(P: dict, vs: list[Var]):
    """For each variable v of vs, highest first, in which the term map P
    has degree n >= 1 and some coefficient of a power of v is a nonzero
    integer: (v, n, the distinct images of P in v of degree n, with
    every other variable set to a in `CERTIFICATE_POINTS`, as integer
    coefficient lists, index = degree)."""
    for v in reversed(vs):
        # each term as (degree in v, total degree, coefficient)
        split = [(e[v - 1] if len(e) >= v else 0, sum(e), k) for e, k in P.items()]
        n = max(d for d, _, _ in split)
        mixed = {d for d, t, _ in split if t > d}
        if all(d in mixed for d, _, _ in split):
            continue
        images = []
        for a in CERTIFICATE_POINTS:
            image = [0] * (n + 1)
            for d, t, k in split:
                image[d] += k * a ** (t - d)
            if image[n] and image not in images:
                images.append(image)
        yield v, n, images


def _squarefree_by_images(P: dict, vs: list[Var]) -> bool:
    """True when an image proves the integer-primitive term map P in
    the variables vs square-free; False proves nothing.  For a variable
    v of `_images` with degree n, n = 1 is the proof, else the first
    image in v, when its gcd with its derivative (`_gcd_heuristic`) is
    1.

    Why it is sound: suppose f^2 divides P, f not a unit.  As in
    `_irreducible_by_degrees`, f is not free of v, since it would divide
    the integer coefficient and the content of P, which is 1; so
    deg_v f >= 1, and n >= 2.  An image that keeps degree n keeps the
    degree of f, as the leading coefficient of P is a multiple of that
    of f, so the image of f^2, of positive degree, divides the image."""
    for _, n, images in _images(P, vs):
        if n == 1:
            return True
        if images:
            c = images[0]
            if len(_gcd_heuristic(c, [k * x for k, x in enumerate(c)][1:])[0]) == 1:
                return True
    return False


def _narrowed(c: list[int], q: int, left: int) -> int:
    """`left`, a set of degrees as bits, less each degree that is not a
    sum of degrees of the irreducible factors modulo the prime q of
    sum c[k]*x^k, whose leading coefficient q does not divide.  `left`
    comes back whole unless c is square-free modulo q, and as soon as
    the factors found cannot remove a degree: with `found` the sums of
    their degrees and r the degree of the rest, every degree in found
    and in found + r stays.

    A distinct-degree factorization on ints.  The linear factors come
    from the roots, found by evaluating at every residue, and are
    divided out.  What is left, g of degree m, is irreducible for
    m <= 3, so c needs no test for square factors when it has neither
    roots nor m >= 4.  For m >= 4, x -> x^q is linear on F_q[x]/(g):
    its rows x^(iq) mod g are computed once, as Kronecker-packed ints,
    x^(q^d) follows from x^(q^(d-1)) by one combination of them, and
    gcd(g, x^(q^d) - x) is the product of g's factors of degree d.
    """
    f = _monic_mod(c, q)
    residues = range(q)
    values = [1] * q
    for k in reversed(f[:-1]):
        values = [y * r + k for y, r in zip(values, residues)]
    roots = [r for r, y in zip(residues, values) if not y % q]
    found = (2 << len(roots)) - 1  # the sums of the linear factors
    m = len(f) - 1 - len(roots)
    if not left & ~(found | found << m):
        return left
    if roots or m >= 4:  # else c is irreducible modulo q
        if len(_gcd_mod(f, [k * i for i, k in enumerate(f)][1:], q)) > 1:
            return left  # not square-free
    g = f
    for r in roots:
        g = _divide_mod(g, [-r % q, 1], q)[0]
    if m >= 4:
        mul = _mulmod(g, q)
        if q < m:
            xq = 1 << (q * _SLOT)
        else:  # x^q by squaring
            xq = 1
            for bit in bin(q)[2:]:
                xq = mul(xq, xq)
                if bit == "1":
                    xq = mul(xq, 1 << _SLOT)
        frobenius = [1, xq]
        while len(frobenius) < m:
            frobenius.append(mul(frobenius[-1], xq))
        h, d = _unpack(xq, m, q), 1
        while 2 * (d + 1) < len(g):
            d += 1
            h = _unpack(sum(k * R for k, R in zip(h, frobenius) if k), m, q)
            hx = list(h)
            hx[1] -= 1
            u = _gcd_mod(g, hx, q)
            if len(u) > 1:
                for _ in range((len(u) - 1) // d):
                    found |= found << d
                g = _divide_mod(g, u, q)[0]
                if not left & ~(found | found << (len(g) - 1)):
                    return left
    return left & (found | found << (len(g) - 1))


_SLOT = 8 * array("Q").itemsize  # bits per packed coefficient, 64 or more


def _pack(c: list[int]) -> int:
    """The Kronecker substitution x = 2^_SLOT of c, whose coefficients
    are in [0, 2^_SLOT)."""
    return int.from_bytes(array("Q", c).tobytes(), "little")


def _unpack(x: int, m: int, q: int) -> list[int]:
    """The m coefficients of the packed x, modulo q."""
    return [k % q for k in array("Q", x.to_bytes(m * _SLOT // 8, "little"))]


def _mulmod(g: list[int], q: int):
    """Multiplication in F_q[x]/(g), g monic of degree m >= 2, on packed
    residues: the product's coefficients of x^(m+j) are folded back with
    the packed x^(m+j) mod g.  A slot stays below 2*m*q^2, far below
    2^64 for the primes of the certificate, so slots never carry."""
    m = len(g) - 1
    row, fold = [-k % q for k in g[:m]], []
    for _ in range(m - 1):
        fold.append(_pack(row))
        top = row[-1]
        row = [(x - top * y) % q for x, y in zip([0] + row[:-1], g)]
    low = (1 << (m * _SLOT)) - 1

    def mul(a: int, b: int) -> int:
        ab = a * b
        r = ab & low
        for k, X in zip(_unpack(ab >> (m * _SLOT), m - 1, q), fold):
            if k:
                r += k * X
        return _pack(_unpack(r, m, q))

    return mul


def _monic_mod(c: list[int], q: int) -> list[int]:
    """c modulo q, divided by its last entry, which q does not divide."""
    inv = pow(c[-1], -1, q)
    return [k * inv % q for k in c]


def _divide_mod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """(t, r) with a = t*b + r modulo q and deg r < deg b, for a monic
    b: t reduced modulo q, r not."""
    m, a = len(b) - 1, list(a)
    out = [0] * (len(a) - m)
    for k in range(len(a) - 1, m - 1, -1):
        t = out[k - m] = a[k] % q
        if t:
            a[k - m:k] = [x - t * y for x, y in zip(a[k - m:k], b)]
    return out, a[:m]


def _gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd modulo q of the monic a and any b, which it
    consumes, by Euclid's algorithm on remainders kept monic."""
    while True:
        while b and not b[-1] % q:
            b.pop()
        if not b:
            return a
        b = _monic_mod(b, q)
        a, b = b, _divide_mod(a, b, q)[1]


# ---------------------------------------------------------------------------
# text form


# Nesting depth past which both parsers (here and `smtlib`) refuse input.
MAX_NESTING = 100

# ASCII only: \d would match other scripts' digits, which int() reads
_TOKEN = re.compile(r"\s*(\d+|x\d+|[a-zA-Z_][a-zA-Z_0-9]*|\^|\*|/|\+|-|\(|\))", re.ASCII)


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
    """The text form, rendered on the first call and kept on p."""
    if p._str is None:
        p._str = _render(p)
    return p._str


def _render(p: MPoly) -> str:
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
