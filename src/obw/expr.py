"""Tiny arithmetic expression language for user-supplied functions.

Grammar: numeric literals, the variable t, + - * / ^, unary minus,
single-argument calls (sin cos exp log abs sqrt), parentheses. ^ is
right-associative and binds tighter than unary minus; no implicit
multiplication. ^ is math.pow, so a value is always a real number: a power
with no real value (a negative base to a fractional exponent, zero to a
negative one) raises ValueError, like log and sqrt outside their domain.
A parsed tree is compiled once, by one walk that emits a Python function of
t for its value and one for its derivative in forward mode; compile_expr
keeps the first, as_fn1d both. The derivative's code, run on numpy's
functions, evaluates it on a whole array of t at once.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from types import CodeType
from typing import Callable, NamedTuple, Union

import numpy as np

from .quadrature import Fn1D

__all__ = ["ParseError", "Expr", "parse", "compile_expr", "as_fn1d"]


class ParseError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
    "sqrt": math.sqrt,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}


# --- tokenizer -----------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "num", "ident", "op", "lparen", "rparen", "end"
    text: str
    offset: int


# One token after optional whitespace, its kind the name of its group. \d is
# a Unicode decimal digit, exactly what float reads; `bad` is any other
# character.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>\w+)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<bad>\S))"
)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, offset = m[kind], m.start(kind)
        if kind == "bad" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            if text == ".":
                raise ParseError("a number needs a digit, found a lone '.'", offset)
            raise ParseError(f"unexpected character {text[0]!r}", offset)
        tokens.append(_Token(kind, text, offset))
    tokens.append(_Token("end", "", len(source)))
    return tokens


# --- Pratt parser --------------------------------------------------------

# Binding powers: ^ > unary minus > * / > + -
_LEFT_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30
# Levels of nesting (parentheses, calls, unary signs, right operands of ^)
# one expression may have. The parser recurses once or twice per level, so
# this keeps it inside Python's default recursion limit; + - * / chains are
# built in a loop, and the compiler does not recurse.
_MAX_PARSE_DEPTH = 400


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = -1

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'}", tok.offset)
        return self.advance()

    def parse_expr(self, min_bp: int = 0) -> Expr:
        # depth is not restored when a ParseError ends the parse
        if self.depth == _MAX_PARSE_DEPTH:
            raise ParseError(
                f"expression nested more than {_MAX_PARSE_DEPTH} levels deep",
                self.peek().offset,
            )
        self.depth += 1
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _LEFT_BP[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # right-associative ^ re-enters at its own binding power
            next_bp = bp if tok.text == "^" else bp + 1
            right = self.parse_expr(next_bp)
            left = BinOp(op=tok.text, left=left, right=right)
        self.depth -= 1
        return left

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "t":
                return Var()
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                if self.peek().kind != "lparen":
                    raise ParseError(f"{tok.text} requires a parenthesized argument", self.peek().offset)
                self.advance()
                arg = self.parse_expr(0)
                self.expect("rparen")
                return Call(fn=tok.text, arg=arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expr(_UNARY_BP))
        if tok.kind == "op" and tok.text == "+":
            return self.parse_expr(_UNARY_BP)
        if tok.kind == "lparen":
            inner = self.parse_expr(0)
            self.expect("rparen")
            return inner
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.offset)


def parse(source: str) -> Expr:
    if not source.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(source)
    expr = p.parse_expr(0)
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.offset)
    return expr


# --- compilation -----------------------------------------------------------

# Each operation of the generated code: its source template, and its value
# on floats, with which constants are folded.
_OPS: dict[str, tuple[str, Callable]] = {
    "+": ("({} + {})", operator.add), "-": ("({} - {})", operator.sub),
    "*": ("({} * {})", operator.mul), "/": ("({} / {})", operator.truediv),
    "^": ("pow({}, {})", math.pow), "neg": ("(-{})", operator.neg),
    **{fn: (fn + "({})", f) for fn, f in _FUNCTIONS.items()},
}
# Names the generated code may use: nothing else is reachable from it.
_NAMESPACE = {**_FUNCTIONS, "pow": math.pow, "inf": math.inf, "nan": math.nan,
              "__builtins__": {}}
# The same names over numpy arrays of t.
_NP_NAMESPACE = {**_NAMESPACE, **{name: getattr(np, name) for name in _FUNCTIONS},
                 "pow": np.power}
# Opening parentheses one generated expression may hold, a bound on how deep
# it nests; CPython's parser stops at 200 levels.
_MAX_NESTING = 50

# A node's value or derivative in `_d`: a float folded when the code is
# emitted, or source text.
_Value = Union[float, str]


def _literal(v: float) -> str:
    v = float(v)
    mag = repr(abs(v)) if math.isfinite(v) else ("nan" if math.isnan(v) else "inf")
    return f"(-{mag})" if math.copysign(1.0, v) < 0 else mag


def compile_expr(e: Expr) -> Callable[[float], float]:
    """One Python function of t that computes e, built once per tree: the
    `_f` of `_code`.

    The source is generated from the tree alone (float literals, + - * /,
    pow for ^, the names in _FUNCTIONS) and runs without builtins. Every
    node is evaluated children first, left before right, with the same
    float operations, so values and raised exceptions are those of a
    direct walk of the tree.
    """
    return _bind(_code(e, derivative=False), _NAMESPACE)["_f"]


def _bind(code: CodeType, namespace: dict) -> dict:
    """The functions of `_code`, `_f` and `_d`, by name, their names read
    from namespace: _NAMESPACE for a float t, _NP_NAMESPACE for a numpy
    array of t."""
    namespace = dict(namespace)
    exec(code, namespace)
    return namespace


def _code(e: Expr, derivative: bool = True) -> CodeType:
    """Functions of t from one post-order walk of e, without recursion,
    compiled together once: `_f`, e's value, and with `derivative` `_d`,
    its derivative.

    `_f` nests as e does, with no folding. It binds a local only where a
    text would nest too deep, so every tree compiles, and for a left
    operand whose right operand needs such locals, so it is still evaluated
    first.

    `_d` is forward mode (Griewank & Walther, Evaluating Derivatives, SIAM
    2008, ch. 3): each node carries its value and its derivative, each a
    float folded here or source text. A constant operation that raises is
    left as text, for evaluation to meet. `_d` reads only the values its
    rules read, and binds a local for a value a rule reads a second time.
    """
    f_lines: list[str] = []
    d_lines: list[str] = []

    def local(lines: list[str], text: str, at: int) -> str:
        name = f"_{len(lines)}"
        lines.insert(at, f"    {name} = {text}")
        return name

    def bind(x: _Value) -> _Value:
        if x.__class__ is float or x.isidentifier():
            return x
        return local(d_lines, x, len(d_lines))

    def op(key: str, *args: _Value) -> _Value:
        template, fold = _OPS[key]
        if str not in map(type, args):
            try:
                return fold(*args)
            except (ArithmeticError, ValueError):
                pass
        text = template.format(*[a if a.__class__ is str else _literal(a) for a in args])
        return text if text.count("(") < _MAX_NESTING else bind(text)

    def forward(node: Expr, u: _Value, du: _Value, v: _Value, dv: _Value) -> tuple:
        """The node's value and derivative from its operands'."""
        if isinstance(node, Neg):
            return op("neg", u), op("neg", du)
        if isinstance(node, BinOp):
            if node.op in ("+", "-"):
                return op(node.op, u, v), op(node.op, du, dv)
            if node.op == "*":
                u, v = bind(u), bind(v)
                return op("*", u, v), op("+", op("*", du, v), op("*", u, dv))
            if node.op == "/":
                u, v = bind(u), bind(v)
                d = op("/", op("-", op("*", du, v), op("*", u, dv)), op("^", v, 2.0))
                return op("/", u, v), d
            if isinstance(node.right, Num):  # power rule
                u = bind(u)
                return op("^", u, v), op("*", op("*", v, op("^", u, v - 1.0)), du)
            u, v = bind(u), bind(v)  # logarithmic rule
            val = bind(op("^", u, v))
            return val, op("*", val, op("+", op("*", dv, op("log", u)),
                                        op("/", op("*", v, du), u)))
        # chain rule; exp, sqrt and abs reuse their own value
        if node.fn in ("exp", "sqrt"):
            val = bind(op(node.fn, u))
            outer = val if node.fn == "exp" else op("/", 0.5, val)
        else:
            u = bind(u)
            val = op(node.fn, u)
            if node.fn == "sin":
                outer = op("cos", u)
            elif node.fn == "cos":
                outer = op("neg", op("sin", u))
            elif node.fn == "log":
                outer = op("/", 1.0, u)
            else:  # abs: 0/0 at zero, where evaluation falls back to differences
                val = bind(val)
                outer = op("/", u, val)
        return val, op("*", outer, du)

    # Each result is (_f's text, the value, the derivative), the last two
    # None without `derivative`. A BinOp notes where the lines of its right
    # operand start.
    results: list[tuple] = []
    marks: list[int] = []
    todo: list[tuple[int, Expr]] = [(0, e)]
    while todo:
        step, node = todo.pop()
        if step == 0:
            if isinstance(node, Num):
                results.append((_literal(node.value), float(node.value), 0.0))
            elif isinstance(node, Var):
                results.append(("t", "t", 1.0))
            elif isinstance(node, Call) and node.fn not in _FUNCTIONS:
                raise ValueError(f"unknown function {node.fn!r}")
            elif isinstance(node, BinOp):
                todo += [(2, node), (0, node.right), (1, node), (0, node.left)]
            else:
                todo += [(2, node), (0, node.operand if isinstance(node, Neg) else node.arg)]
            continue
        if step == 1:
            marks.append(len(f_lines))
            continue
        if isinstance(node, BinOp):
            (left, u, du), (right, v, dv) = results[-2:]
            del results[-2:]
            mark = marks.pop()
            if not left.isidentifier() and len(f_lines) > mark:
                left = local(f_lines, left, mark)
            text = _OPS[node.op][0].format(left, right)
        else:
            (arg, u, du), v, dv = results.pop(), None, None
            text = _OPS["neg" if isinstance(node, Neg) else node.fn][0].format(arg)
        if text.count("(") >= _MAX_NESTING:
            text = local(f_lines, text, len(f_lines))
        results.append((text, *forward(node, u, du, v, dv)) if derivative else (text, None, None))

    text, _, der = results[0]
    source = "def _f(t):\n" + "".join(line + "\n" for line in f_lines) + f"    return {text}\n"
    if derivative:
        source += "def _d(t):\n" + "".join(line + "\n" for line in d_lines)
        source += f"    return {der if der.__class__ is str else _literal(der)}\n"
    return compile(source, "<obw.expr>", "exec")


# Finite-difference step: the cube root of machine epsilon, the optimum for
# second-order stencils, scaled by max(1, |t|).
_FD_STEP = (2.0 ** -52) ** (1.0 / 3.0)


def as_fn1d(source: str, name: str = "") -> Fn1D:
    """Parse source into an evaluable function with its derivative in
    forward mode.

    The function and its derivative are `_code`'s `_f` and `_d`, emitted
    from one walk of the tree and compiled together once. Points where the
    derivative fails to evaluate (abs at zero, sqrt at zero) fall back to
    second-order finite differences: central ones, else forward ones where
    the central stencil leaves the expression's real domain. Where the
    forward stencil fails too (log at zero), a ValueError names t.

    The derivative also has `grid(ts)`: `_d` on a numpy array of t in one
    call, the same code run on numpy's functions, with IEEE values (inf,
    nan) where the scalar derivative raises or falls back; the caller sets
    numpy's floating-point error policy (`norms._scan` ignores its flags
    and reads those samples again through the scalar derivative). numpy's
    exp, log and pow may differ from math's in the last bit.
    """
    code = _code(parse(source))
    scalar = _bind(code, _NAMESPACE)
    fn, dfn = scalar["_f"], scalar["_d"]
    dgrid = _bind(code, _NP_NAMESPACE)["_d"]

    def deriv(t: float) -> float:
        try:
            v = dfn(t)
        except (ZeroDivisionError, ValueError, OverflowError):
            v = math.nan
        if math.isfinite(v):
            return v
        h = _FD_STEP * max(1.0, abs(t))
        try:
            try:
                return (fn(t + h) - fn(t - h)) / (2 * h)
            except ValueError:
                return (-3.0 * fn(t) + 4.0 * fn(t + h) - fn(t + 2 * h)) / (2 * h)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"f' fails at t={t:.9g}: {type(exc).__name__}: {exc}") from None

    # a derivative that does not depend on t returns one number
    deriv.grid = lambda ts: np.broadcast_to(dgrid(ts), ts.shape)
    return Fn1D(fn=fn, derivative=deriv, name=name or source)
