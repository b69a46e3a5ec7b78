"""SMT-LIB subset parsing and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onecell.polynomial import parse_poly
from onecell.smtlib import ParseError, _is_rational, _read_all, parse_problem

from oracles import decimal_literal, read_tokens, tokenize_by_characters


GOOD = """\
(set-logic QF_NRA)
(declare-const a Real)
(declare-const b Real)
(assert (< (+ (* a a) (* b b)) 1))
(assert (>= (- b (/ a 2)) 0))
(check-sat)
(exit)
"""


def test_parse_basic_problem():
    prob = parse_problem(GOOD)
    assert prob.logic == "QF_NRA"
    assert prob.variables == ["a", "b"]
    assert len(prob.constraints) == 2
    assert prob.constraints[0].poly == parse_poly("x1^2+x2^2-1")
    assert prob.constraints[0].rel == "<"
    assert prob.constraints[1].poly == parse_poly("x2-1/2*x1")
    assert prob.constraints[1].rel == ">="


def test_declaration_order_fixes_variable_order():
    prob = parse_problem(
        "(declare-const z Real)(declare-const y Real)(assert (> (- z y) 0))"
    )
    # z is x1, y is x2
    assert prob.constraints[0].poly == parse_poly("x1-x2")


def test_comments_and_whitespace():
    prob = parse_problem("; header\n(declare-const x Real) ; trailing\n(assert (= x 0))\n")
    assert prob.variables == ["x"]


def test_decimal_and_negative_literals():
    prob = parse_problem(
        "(declare-const x Real)(assert (< x 0.25))(assert (> x -2))"
    )
    assert prob.constraints[0].poly == parse_poly("x1-1/4")
    assert prob.constraints[1].poly == parse_poly("x1+2")


def test_unary_minus_and_nary_ops():
    prob = parse_problem(
        "(declare-const x Real)(assert (= (- x) (* 2 x x)))"
    )
    assert prob.constraints[0].poly == parse_poly("-x1-2*x1^2")


@pytest.mark.parametrize("divisor, expected", [
    ("2", "1/2*x1+1/2"), ("(- 3)", "-1/3*x1-1/3"), ("(/ 1 2)", "2*x1+2"),
])
def test_division_by_constants_is_exact(divisor, expected):
    prob = parse_problem(f"(declare-const x Real)(assert (> (/ (+ x 1) {divisor}) 0))")
    poly = prob.constraints[0].poly
    assert poly == parse_poly(expected)
    assert all(type(c) in (int, Fraction) for c in poly._terms.values())


def test_nary_operators_fold_from_the_left():
    prob = parse_problem(
        "(declare-const x Real)(declare-const y Real)"
        "(assert (< (- x y 3 x) (* x y 2 y)))(assert (< (+ x) (+ 1 x x x)))"
    )
    assert prob.constraints[0].poly == parse_poly("-2*x1*x2^2-x2-3")
    assert prob.constraints[1].poly == parse_poly("-2*x1-1")


@pytest.mark.parametrize("text, op, line, col", [
    ("(declare-const x Real)(assert (< (+) 0))", "+", 1, 35),
    ("(declare-const x Real)\n(assert (<  (-) 0))", "-", 2, 14),
    ("(declare-const x Real)(assert (< 0 ( * )))", "*", 1, 38),
])
def test_nary_operators_need_arguments(text, op, line, col):
    err = _err(text)
    assert (err.line, err.col) == (line, col)
    assert str(err) == f"line {line}, column {col}: '{op}' needs arguments"


def test_polynomials_deduplicated():
    prob = parse_problem(
        "(declare-const x Real)(assert (< x 0))(assert (> x 0))"
    )
    assert len(prob.polynomials()) == 1


def _err(text):
    with pytest.raises(ParseError) as ei:
        parse_problem(text)
    return ei.value


def test_undeclared_variable_position():
    err = _err("(declare-const x Real)\n(assert (< y 0))")
    assert err.line == 2
    assert "y" in str(err)


def test_unbalanced_parens():
    assert _err("(assert (< x 0)").line == 1
    assert _err(")").col == 1


def test_rejects_quantifiers_and_let():
    err = _err("(assert (forall ((x Real)) (< x 0)))")
    assert "forall" in str(err) or "unsupported" in str(err)
    err = _err("(declare-const x Real)(assert (let ((y x)) (< y 0)))")
    assert "let" in str(err) or "unsupported" in str(err)


def test_rejects_nonpolynomial_functions():
    err = _err("(declare-const x Real)(assert (< (sin x) 0))")
    assert "sin" in str(err)
    err = _err("(declare-const x Real)(assert (< (/ 1 x) 0))")
    assert "constant" in str(err)


def test_rejects_bad_declarations():
    assert _err("(declare-const x Int)") is not None
    assert _err("(declare-const x Real)(declare-const x Real)") is not None
    assert _err("(declare-fun f (Real) Real)") is not None


def test_rejects_malformed_assert():
    assert _err("(assert)") is not None
    assert _err("(declare-const x Real)(assert (< x))") is not None
    assert _err("(declare-const x Real)(assert x)") is not None


def test_rejects_non_ascii_digits():
    """Other scripts' digits are not numerals: an Arabic-Indic one and
    a superscript two get a positioned error, not x1 - 1 > 0 or an
    unpositioned error from int()."""
    for digit in ("\u0661", "\u00b2", "1.\u0665"):
        err = _err(f"(declare-const x Real)\n(assert (> x {digit}))")
        assert (err.line, err.col) == (2, 14), digit


def test_error_column_points_at_token():
    err = _err("(declare-const x Real)\n(assert (< x zz))")
    assert err.line == 2 and err.col == 14


def _nested_sum(depth: int) -> str:
    return ("(declare-const x Real)(assert (> "
            + "(+ " * depth + "x" + ")" * depth + " 0))")


def test_nesting_limit():
    assert parse_problem(_nested_sum(50)).constraints[0].poly == parse_poly("x1")
    err = _err(_nested_sum(1000))
    assert "nested deeper" in str(err)


# parentheses, comments, separators, other whitespace and non-ASCII
# characters, which the reader keeps inside tokens, and problem words
_PIECES = ["(", ")", "(", ")", ";", "; c", " ", "  ", "\t", "\r", "\n", "\r\n", "\f",
           "\v", "\u00a0", "\u0661", "\u00e9", "x", "-", ".", "1", "2.5", "-3",
           "assert", "declare-const", "Real", "+", "*", "/"]


def _outcome(read):
    """The nodes as nested (text, line, column), or the ParseError."""
    def view(nodes):
        return [view(n) if isinstance(n, list) else (n.text, n.line, n.col) for n in nodes]

    try:
        return view(read())
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.col)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_reader_matches_the_two_pass_reference(text):
    assert _outcome(lambda: _read_all(text)) == _outcome(
        lambda: read_tokens(tokenize_by_characters(text)))


@pytest.mark.parametrize("text", [
    "(a\r(b)\tc)\n  (d\r\n e) ; (\n(f)",
    "(x\fy \u00e9)\n)",
    "\n\n  ((a) b",
    "(a) tok",
])
def test_reader_keeps_positions(text):
    assert _outcome(lambda: _read_all(text)) == _outcome(
        lambda: read_tokens(tokenize_by_characters(text)))


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?[0-9]{0,6}\.?[0-9]{0,6}", fullmatch=True)
       | st.text(alphabet="0123456789.-+_e/ \u0661", max_size=12))
def test_literals_read_by_fraction_match_digit_by_digit(text):
    if _is_rational(text):
        assert Fraction(text) == decimal_literal(text)
