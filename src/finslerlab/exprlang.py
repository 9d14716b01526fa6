"""Tiny expression language for the conformal factor f(x^1).

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | 'x1' | fn '(' expr ')' | '(' expr ')'
    fn     := 'exp' | 'ln' | 'sqrt' | 'sin' | 'cos'

'+', '-', '*', '/' are left-associative, '^' right-associative.  The
grammar deliberately has no piecewise or non-smooth constructs, so any
parse is smooth by construction and differentiable through jets (f' is
always obtained by evaluating the tree on a TaylorValue, never by
symbolic differentiation).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import jets

__all__ = [
    "ExprSyntaxError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
    "pretty_print",
    "evaluate",
    "compile_expr",
]

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")


class ExprSyntaxError(ValueError):
    """Parse failure; ``offset`` is the 1-based byte position."""

    def __init__(self, message, offset, expected=()):
        offset = offset + 1
        loc = f" at offset {offset}"
        if expected:
            loc += f", expected one of {sorted(expected)}"
        super().__init__(message + loc)
        self.offset = offset
        self.expected = tuple(sorted(expected))


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            off = len(src) - len(rest)
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", off)
        if m.group("num") is not None:
            val = float(m.group(0))
            if not math.isfinite(val):
                raise ExprSyntaxError(
                    f"number {m.group(0).strip()!r} is not finite",
                    m.start("num"),
                )
            tokens.append(("num", val, m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(
                f"syntax error near {val!r}" if kind != "end" else "unexpected end",
                off, expected=(op,),
            )
        self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(
                f"trailing input {val!r}", off, expected=("end of input",)
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = BinOp("^", node, self.factor())  # right-associative
        return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "name":
            if val == "x1":
                return Var()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise ExprSyntaxError(
                f"unknown identifier {val!r}", off,
                expected=("x1",) + FUNCTIONS,
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "unexpected end of input" if kind == "end" else f"unexpected {val!r}",
            off, expected=("number", "x1", "function", "("),
        )


def parse_expr(src):
    """Parse into an AST; errors carry the byte offset and expected set."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, expected=("expression",))
    return _Parser(src).parse()


# Levels for minimal re-parenthesization: a node may appear un-wrapped in
# any context whose level is at most its own.
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}
_LVL_NEG = 3
_LVL_ATOM = 4


def _render(node):
    if isinstance(node, Num):
        return repr(node.value), _LVL_ATOM
    if isinstance(node, Var):
        return "x1", _LVL_ATOM
    if isinstance(node, Call):
        inner, _ = _render(node.arg)
        return f"{node.fn}({inner})", _LVL_ATOM
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _LVL_NEG)}", _LVL_NEG
    lvl = _LEVEL[node.op]
    if node.op == "^":
        left = _wrap(node.left, _LVL_NEG)  # base must be a unary
        right = _wrap(node.right, lvl)
    else:
        left = _wrap(node.left, lvl)
        right = _wrap(node.right, lvl + 1)
    return f"{left} {node.op} {right}", lvl


def _wrap(node, required):
    text, lvl = _render(node)
    return f"({text})" if lvl < required else text


def pretty_print(node):
    """Inverse of parse_expr up to whitespace: parse(pretty(t)) == t."""
    return _render(node)[0]


def evaluate(node, x1):
    """Evaluate on a TaylorValue (or anything with jet arithmetic)."""
    if isinstance(node, Num):
        return x1.space.constant(node.value)
    if isinstance(node, Var):
        return x1
    if isinstance(node, Neg):
        return -evaluate(node.operand, x1)
    if isinstance(node, Call):
        return getattr(jets, node.fn)(evaluate(node.arg, x1))
    a = evaluate(node.left, x1)
    b = evaluate(node.right, x1)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return jets.power(a, b)


def compile_expr(src):
    """Parse once, return a jet-to-jet callable (for RiemannSetup.f)."""
    ast = parse_expr(src)
    return lambda x1: evaluate(ast, x1)
