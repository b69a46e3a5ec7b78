"""The memo tables of `onecell.memo`: repeated `factor`, `resultant` and
`discriminant` calls against the uncached kernels and the oracles, the
entries a ``finest`` factorization records for its outputs, results
that callers cannot change, and the least-recently-used bound."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecell import memo, polynomial
from onecell.polynomial import (
    MPoly,
    _factor,
    _resultant,
    discriminant,
    factor,
    parse_poly,
    resultant,
)
from onecell.properties import is_whole

from oracles import (
    derivative,
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
