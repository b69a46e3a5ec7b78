"""Parser for the supported SMT-LIB subset.

Accepted commands: `(set-logic QF_NRA)`, `(declare-const <v> Real)`,
and `(assert (<rel> <term> <term>))` with terms built from `+ - * /`,
rational literals, and declared variables.  `(check-sat)` and `(exit)`
are tolerated and ignored.  Everything else is rejected with a
positioned error.

The text is read in one pass over one pattern: each lexeme is a
newline, a `;` comment, a parenthesis, or a run of characters other
than space, tab, carriage return, newline, parentheses and `;`.  The
reader builds the nested lists as it goes; a token keeps its line and
its column, counted from 1 within the line.  Characters outside that
separator set, such as a form feed or a non-ASCII letter, are part of a
token.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Union

from .cells import RELS
from .explain import Constraint
from .polynomial import MAX_NESTING, MPoly


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class ProblemFile:
    """Variables in declaration order (variable j maps to x_{j+1}) and
    the asserted constraints."""

    variables: List[str] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    logic: Optional[str] = None

    def polynomials(self) -> List[MPoly]:
        out = []
        for c in self.constraints:
            if c.poly not in out:
                out.append(c.poly)
        return out


@dataclass
class _Tok:
    text: str
    line: int
    col: int


_Node = Union[_Tok, list]

_LEXEME = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


def _read_all(text: str) -> List[list]:
    """The top-level lists of `text`, each starting with its opening
    parenthesis token; ParseError on an unbalanced parenthesis or a
    token outside any list."""
    stack: List[list] = [[]]
    line, start = 1, 0
    for m in _LEXEME.finditer(text):
        lex = m.group()
        if lex == "\n":
            line, start = line + 1, m.end()
        elif lex[0] != ";":
            t = _Tok(lex, line, m.start() - start + 1)
            if lex == "(":
                stack[-1].append([t])
                stack.append(stack[-1][-1])
            elif len(stack) == 1:
                msg = "unbalanced ')'" if lex == ")" else f"unexpected token {lex!r}"
                raise ParseError(msg, t.line, t.col)
            elif lex == ")":
                stack.pop()
            else:
                stack[-1].append(t)
    if len(stack) > 1:
        t = stack[-1][0]
        raise ParseError("unbalanced '('", t.line, t.col)
    return stack[0]


# SMT-LIB names of the relations; "!=" is spelled "distinct"
_RELS = {r: r for r in RELS if r != "!="} | {"distinct": "!="}
# the n-ary arithmetic operators, folded from the left
_FOLDS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _is_rational(text: str) -> bool:
    """A decimal numeral in ASCII digits (isdigit takes any script's)."""
    t = text[1:] if text[:1] == "-" else text
    return t.replace(".", "", 1).isdigit() and t.isascii()


def _term(node: _Node, var_index: dict[str, int], depth: int = 0) -> MPoly:
    if isinstance(node, _Tok):
        if _is_rational(node.text):
            return MPoly.constant(Fraction(node.text))
        if node.text in var_index:
            return MPoly.var(var_index[node.text])
        raise ParseError(f"undeclared symbol {node.text!r}", node.line, node.col)
    head = node[1] if len(node) > 1 else node[0]
    if isinstance(head, list) or len(node) < 2:
        raise ParseError("expected an operator", node[0].line, node[0].col)
    if depth >= MAX_NESTING:
        raise ParseError(f"nested deeper than {MAX_NESTING}", node[0].line, node[0].col)
    op = head.text
    args = [_term(a, var_index, depth + 1) for a in node[2:]]
    if op in _FOLDS:
        if not args:
            raise ParseError(f"'{op}' needs arguments", head.line, head.col)
        if op == "-" and len(args) == 1:
            return -args[0]
        return functools.reduce(_FOLDS[op], args)
    if op == "/":
        if len(args) != 2:
            raise ParseError("'/' needs two arguments", head.line, head.col)
        if not args[1].is_constant() or args[1].is_zero():
            raise ParseError("division only by nonzero constants", head.line, head.col)
        return args[0].scale(Fraction(1) / args[1].constant_value())
    raise ParseError(f"unsupported function {op!r}", head.line, head.col)


def parse_problem(text: str) -> ProblemFile:
    problem = ProblemFile()
    var_index: dict[str, int] = {}
    for node in _read_all(text):
        items = node[1:]
        if not items or isinstance(items[0], list):
            raise ParseError("expected a command", node[0].line, node[0].col)
        cmd = items[0]
        if cmd.text == "set-logic":
            if len(items) != 2 or isinstance(items[1], list):
                raise ParseError("set-logic needs one symbol", cmd.line, cmd.col)
            problem.logic = items[1].text
        elif cmd.text == "declare-const":
            if (
                len(items) != 3
                or isinstance(items[1], list)
                or isinstance(items[2], list)
                or items[2].text != "Real"
            ):
                raise ParseError("declare-const needs a name and sort Real", cmd.line, cmd.col)
            name = items[1].text
            if name in var_index:
                raise ParseError(f"duplicate variable {name!r}", items[1].line, items[1].col)
            problem.variables.append(name)
            var_index[name] = len(problem.variables)
        elif cmd.text == "assert":
            if len(items) != 2 or isinstance(items[1], _Tok):
                raise ParseError("assert needs one relational term", cmd.line, cmd.col)
            rel_node = items[1]
            head = rel_node[1] if len(rel_node) > 1 else rel_node[0]
            if isinstance(head, _Tok) and head.text in ("forall", "exists", "let"):
                raise ParseError(f"unsupported construct {head.text!r}", head.line, head.col)
            if isinstance(head, list) or head.text not in _RELS or len(rel_node) != 4:
                tok = head if isinstance(head, _Tok) else rel_node[0]
                raise ParseError("assertion must be (<rel> <term> <term>)", tok.line, tok.col)
            lhs = _term(rel_node[2], var_index)
            rhs = _term(rel_node[3], var_index)
            problem.constraints.append(Constraint(lhs - rhs, _RELS[head.text]))
        elif cmd.text not in ("check-sat", "exit"):
            raise ParseError(f"unsupported command {cmd.text!r}", cmd.line, cmd.col)
    return problem
