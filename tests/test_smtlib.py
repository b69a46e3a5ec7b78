"""SMT-LIB subset parsing and error reporting."""

from fractions import Fraction

import pytest

from onecell.polynomial import parse_poly
from onecell.smtlib import ParseError, parse_problem


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
