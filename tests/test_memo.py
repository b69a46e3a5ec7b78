"""The memo tables of `onecell.memo`: repeated `factor`, `resultant` and
`discriminant` calls against the uncached kernels and the oracles, the
entries a ``finest`` factorization records for its outputs, results
that callers cannot change, the least-recently-used bound, one object
per polynomial value (`memo.POLYS`) with its kept normal form, and one
`memo.ROOTS` entry for a polynomial and its constant multiples."""

import copy
import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecell import memo, polynomial, realalg
from onecell.polynomial import (
    MPoly,
    _factor,
    _primitive_part,
    _resultant,
    _upoly,
    coeff_info,
    discriminant,
    factor,
    normalize,
    parse_poly,
    resultant,
)
from onecell.properties import is_whole
from onecell.realalg import NULLIFIED, Sample, cached_roots

from oracles import (
    derivative,
    realalg_from_text,
    roots_by_count,
    roots_by_substitution,
    subresultant_resultant,
    sylvester_resultant,
    sympy_poly_factor,
    term_coeff_info,
)

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def _polys(nvars, max_deg=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return (st.dictionaries(exps, rationals, min_size=1, max_size=max_terms)
            .map(MPoly).filter(lambda p: not p.is_zero()))


@st.composite
def _operands(draw):
    nvars = draw(st.integers(1, 3))
    v = draw(st.integers(1, nvars))
    with_v = _polys(nvars).filter(lambda p: p.degree(v) > 0)
    return draw(with_v), draw(with_v), v


@settings(max_examples=60, deadline=None)
@given(_polys(3))
def test_repeated_factor_matches_kernel_and_oracle(p):
    want = {mode: _factor(p, mode) for mode in ("finest", "squarefree")}
    for mode, fs in want.items():
        assert fs == sympy_poly_factor(p, mode)
    for _ in range(3):
        for mode, fs in want.items():
            assert factor(p, mode) == fs
            # an equal polynomial built separately finds the same entry
            assert factor(MPoly(p.terms), mode) == fs
    assert factor(p) == want["finest"]


@settings(max_examples=60, deadline=None)
@given(_polys(3))
def test_finest_outputs_are_recorded_as_their_own_factors(p):
    """Each output f of a finest factorization gets an entry in both
    modes equal to what the kernel returns for f; `factor` and
    `is_whole` then answer for f without the kernel."""
    memo.clear()
    outputs = [f for f, _ in factor(p)]
    for f in outputs:
        for mode in ("finest", "squarefree"):
            assert memo.FACTOR._entries[(f, mode)] == _factor(f, mode) == [(f, 1)]
    with mock.patch.object(polynomial, "_factor", side_effect=AssertionError):
        for f in outputs:
            assert is_whole(f)
            assert factor(f) == factor(f, "squarefree") == [(f, 1)]


@settings(max_examples=60, deadline=None)
@given(_operands())
def test_repeated_resultant_matches_kernel_and_oracles(operands):
    p, q, v = operands
    want = _resultant(p, q, v)
    assert want == sylvester_resultant(p, q, v) == subresultant_resultant(p, q, v)
    for _ in range(3):
        assert resultant(p, q, v) == want
    # the swapped arguments have their own entry, with the sign of the swap
    sign = -1 if p.degree(v) * q.degree(v) % 2 else 1
    assert resultant(q, p, v) == want.scale(sign)
    assert resultant(p, q, v) == want


@settings(max_examples=60, deadline=None)
@given(_operands())
def test_repeated_discriminant_matches_oracle_and_is_kept(operands):
    """disc_v(p) * lc_v(p) = (-1)^(d(d-1)/2) res_v(p, p'), and 1 for d = 1;
    a second call, also for an equal polynomial built anew, returns the
    stored object, and `memo.clear` empties the table.  The resultant
    behind it is not kept: only `memo.DISCRIMINANT` is read again."""
    p, _, v = operands
    d, lc, _ = term_coeff_info(p, v)
    first = discriminant(p, v)
    if d == 1:
        assert first == MPoly.constant(1)
    else:
        sign = -1 if d * (d - 1) // 2 % 2 else 1
        assert first * lc == sylvester_resultant(p, derivative(p, v), v).scale(sign)
    assert discriminant(p, v) is first
    assert discriminant(MPoly(p.terms), v) is first
    memo.clear()
    assert len(memo.DISCRIMINANT) == 0
    again = discriminant(p, v)
    assert again == first and again is not first
    assert len(memo.DISCRIMINANT) == 1 and len(memo.RESULTANT) == 0


def test_equal_polynomials_built_by_different_paths_are_one_object():
    p = parse_poly("3*x1^2*x2-x2/2+1")
    q = parse_poly("x2-x1+2")
    assert MPoly({(2, 1): 3, (0, 1): Fraction(-1, 2), (): 1}) is p
    assert MPoly({(): Fraction(1), (0, 1): Fraction(-2, 4), (2, 1, 0): Fraction(3)}) is p
    assert parse_poly("1-1/2*x2+3*x2*x1^2") is p
    assert p * q is q * p
    assert (p + q) - q is p
    assert normalize(3 * p) is normalize(p) is normalize(-p)
    assert _upoly([-2, 0, 1], 1) is parse_poly("x1^2-2")
    _, lc, coeffs = coeff_info(p, 2)
    assert lc is parse_poly("3*x1^2-1/2") and coeffs[0] is MPoly.constant(1)
    # other coefficients on the same monomials make another value
    plus, minus = parse_poly("x1+1"), parse_poly("x1-1")
    assert plus is not minus and plus != minus


def test_after_clear_an_equal_polynomial_is_a_new_object():
    p = parse_poly("x1^2*x2-1/3")
    text, h = str(p), hash(p)
    memo.clear()
    assert len(memo.POLYS) == 0
    q = parse_poly("x1^2*x2-1/3")
    assert q is not p and q == p and not q != p
    assert hash(q) == h and str(q) == text
    assert parse_poly("x1^2*x2-1/3") is q


def test_copies_and_pickles_rebuild_the_value():
    """Copying or unpickling a polynomial builds it anew through the
    constructor and leaves every other value, the zero too, intact."""
    p = parse_poly("x1^2-x2/3")
    form = _primitive_part(p)
    assert copy.copy(p) is p and copy.deepcopy(p) is p
    assert pickle.loads(pickle.dumps(p)) is p
    for rebuild in (lambda: pickle.loads(pickle.dumps(p)), lambda: copy.copy(p)):
        memo.clear()
        q = rebuild()
        # a new value, whose views are computed anew, not copied slots
        assert q == p and q is not p and q._integer is None
        assert _primitive_part(q) == form
    assert MPoly({}).is_zero() and str(MPoly({})) == "0"


@settings(max_examples=60, deadline=None)
@given(_polys(3), rationals.filter(bool))
def test_kept_normal_form_matches_a_recomputation(p, c):
    """normalize(p) is kept on p and is its own normal form, and the
    integer form ((g, l), P) is kept on p, with P p's own term map
    exactly when the content g/l is 1; after `memo.clear` an equal
    polynomial built anew recomputes equal ones."""
    q = p.scale(c)
    kept = normalize(q)
    assert normalize(kept) is kept and normalize(p.scale(c)) is kept
    form = _primitive_part(q)
    assert _primitive_part(q) is form and _primitive_part(kept)[1] is kept._terms
    (g, l), P = form
    assert (P is q._terms) == (g == l == 1)
    terms = q.terms
    assert g > 0 and l > 0 and math.gcd(*P.values()) == 1
    assert all(type(k) is int and Fraction(g * k, l) == terms[e] for e, k in P.items())
    assert P.keys() == terms.keys()
    memo.clear()
    fresh = normalize(MPoly(p.terms))
    assert fresh is not kept and fresh == kept and hash(fresh) == hash(kept)
    assert normalize(fresh) is fresh
    again = MPoly(q.terms)
    assert again is not q and _primitive_part(again) is not form
    assert _primitive_part(again) == form


def test_callers_cannot_change_a_memoized_factor_list():
    p = parse_poly("(x1-1)*(x1+2)*(x2^2-3)")
    first = factor(p)
    want = list(first)
    first.append((parse_poly("x1"), 7))
    first.pop(0)
    assert factor(p) == want
    assert factor(p) is not factor(p)


def test_a_miss_after_clear_recomputes_the_same_results():
    p, q = parse_poly("x1*x2^2-3*x2+x1^3"), parse_poly("x2^3-x1")
    f, r = factor(p * q, "squarefree"), resultant(p, q, 2)
    memo.clear()
    assert all(len(t) == 0 for t in memo.TABLES.values())
    assert factor(p * q, "squarefree") == f and resultant(p, q, 2) == r
    assert len(memo.FACTOR) >= 1 and len(memo.RESULTANT) >= 1


def test_table_drops_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(memo, "BOUND", 2)
    t, computed = memo.Table(), []

    def fetch(key):
        return t.fetch(key, lambda: computed.append(key) or key.upper())

    assert [fetch(k) for k in "abab"] == ["A", "B", "A", "B"]
    assert computed == ["a", "b"]
    fetch("a")  # now "b" is the least recently used
    fetch("c")
    assert len(t) == 2 and computed == ["a", "b", "c"]
    fetch("a"), fetch("c")
    assert computed == ["a", "b", "c"]
    fetch("b")  # "a" was used before "c"
    fetch("c")
    fetch("a")
    assert computed == ["a", "b", "c", "b", "a"] and len(t) == 2


def test_table_keeps_no_result_of_a_raising_computation():
    t = memo.Table()

    def fail():
        raise ValueError("no result")

    for _ in range(2):
        with pytest.raises(ValueError):
            t.fetch("k", fail)
    assert len(t) == 0
    assert t.fetch("k", lambda: None) is None and len(t) == 1
    assert t.fetch("k", fail) is None


@pytest.mark.parametrize("text, coords, oracle", [
    # a rational prefix: two irrational roots and a rational one
    ("(x2-x1)*(x2^2-x1)", ["1/2"], roots_by_substitution),
    # over sqrt(2): the reference is the counting route
    ("x2^2-x1*x2-1", ["(root x1^2-2 2)"], roots_by_count),
    # nullified at the prefix
    ("x1*x2^2-x1", ["0"], roots_by_substitution),
], ids=["rational", "sqrt2", "nullified"])
def test_constant_multiples_share_one_roots_entry(monkeypatch, text, coords, oracle):
    """p, -3*p and p/2 have the same roots over any prefix and are
    nullified together: one `roots_in_extension` call answers all three,
    with one shared list (or NULLIFIED) equal to the reference's."""
    p = parse_poly(text)
    memo.clear()
    s = Sample([realalg_from_text(c) for c in coords])
    calls = []
    find = realalg.roots_in_extension
    monkeypatch.setattr(realalg, "roots_in_extension",
                        lambda q, t: calls.append(q) or find(q, t))
    got = [cached_roots(q, s) for q in (p, p.scale(-3), p.scale(Fraction(1, 2)))]
    assert len(calls) == 1
    assert got[0] is got[1] is got[2]
    want = oracle(p, s)
    if want is NULLIFIED:
        assert got[0] is NULLIFIED
    else:
        assert want and [r.key() for r in got[0]] == [r.key() for r in want]
