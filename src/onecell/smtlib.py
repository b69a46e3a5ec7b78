"""Parser for the supported SMT-LIB subset.

Accepted commands: `(set-logic QF_NRA)`, `(declare-const <v> Real)`,
and `(assert (<rel> <term> <term>))` with terms built from `+ - * /`,
rational literals, and declared variables.  `(check-sat)` and `(exit)`
are tolerated and ignored.  Everything else is rejected with a
positioned error.
"""

from __future__ import annotations

import functools
import operator
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


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
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


def _read_all(toks: List[_Tok]) -> List[_Node]:
    nodes: List[_Node] = []
    stack: List[list] = []
    for t in toks:
        if t.text == "(":
            new: list = [t]  # keep the opening token for positions
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


# SMT-LIB names of the relations; "!=" is spelled "distinct"
_RELS = {r: r for r in RELS if r != "!="} | {"distinct": "!="}
# the n-ary arithmetic operators, folded from the left
_FOLDS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _is_rational(text: str) -> bool:
    """A decimal numeral in ASCII digits (isdigit takes any script's)."""
    t = text[1:] if text[:1] == "-" else text
    return t.replace(".", "", 1).isdigit() and t.isascii()


def _literal(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".", 1)
        sign = -1 if whole.startswith("-") else 1
        whole = whole.lstrip("-")
        num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
        return Fraction(sign * num, 10 ** len(frac))
    return Fraction(int(text))


class _TermParser:
    def __init__(self, var_index: dict[str, int]):
        self.var_index = var_index

    def parse(self, node: _Node, depth: int = 0) -> MPoly:
        if isinstance(node, _Tok):
            if _is_rational(node.text):
                return MPoly.constant(_literal(node.text))
            if node.text in self.var_index:
                return MPoly.var(self.var_index[node.text])
            raise ParseError(
                f"undeclared symbol {node.text!r}", node.line, node.col
            )
        head = node[1] if len(node) > 1 else node[0]
        if isinstance(head, list) or len(node) < 2:
            raise ParseError("expected an operator", node[0].line, node[0].col)
        if depth >= MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING}", node[0].line, node[0].col)
        op = head.text
        args = [self.parse(a, depth + 1) for a in node[2:]]
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
                raise ParseError(
                    "division only by nonzero constants", head.line, head.col
                )
            return args[0].scale(Fraction(1) / args[1].constant_value())
        raise ParseError(f"unsupported function {op!r}", head.line, head.col)


def parse_problem(text: str) -> ProblemFile:
    problem = ProblemFile()
    var_index: dict[str, int] = {}
    terms = _TermParser(var_index)
    for node in _read_all(_tokenize(text)):
        if isinstance(node, _Tok):
            raise ParseError(f"unexpected token {node.text!r}", node.line, node.col)
        open_tok = node[0]
        items = node[1:]
        if not items or isinstance(items[0], list):
            raise ParseError("expected a command", open_tok.line, open_tok.col)
        cmd = items[0].text
        if cmd == "set-logic":
            if len(items) != 2 or isinstance(items[1], list):
                raise ParseError("set-logic needs one symbol", items[0].line, items[0].col)
            problem.logic = items[1].text
        elif cmd == "declare-const":
            if (
                len(items) != 3
                or isinstance(items[1], list)
                or isinstance(items[2], list)
                or items[2].text != "Real"
            ):
                raise ParseError(
                    "declare-const needs a name and sort Real",
                    items[0].line,
                    items[0].col,
                )
            name = items[1].text
            if name in var_index:
                raise ParseError(f"duplicate variable {name!r}", items[1].line, items[1].col)
            problem.variables.append(name)
            var_index[name] = len(problem.variables)
        elif cmd == "assert":
            if len(items) != 2 or isinstance(items[1], _Tok):
                raise ParseError(
                    "assert needs one relational term", items[0].line, items[0].col
                )
            rel_node = items[1]
            head = rel_node[1] if len(rel_node) > 1 else rel_node[0]
            if isinstance(head, _Tok) and head.text in ("forall", "exists", "let"):
                raise ParseError(
                    f"unsupported construct {head.text!r}", head.line, head.col
                )
            if isinstance(head, list) or head.text not in _RELS or len(rel_node) != 4:
                tok = head if isinstance(head, _Tok) else rel_node[0]
                raise ParseError(
                    "assertion must be (<rel> <term> <term>)", tok.line, tok.col
                )
            lhs = terms.parse(rel_node[2])
            rhs = terms.parse(rel_node[3])
            problem.constraints.append(Constraint(lhs - rhs, _RELS[head.text]))
        elif cmd in ("check-sat", "exit"):
            continue
        else:
            raise ParseError(f"unsupported command {cmd!r}", items[0].line, items[0].col)
    return problem
