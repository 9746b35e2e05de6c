"""Tiny arithmetic expression language for user-supplied functions.

Grammar: numeric literals, the variable t, + - * / ^, unary minus,
single-argument calls (sin cos exp log abs sqrt), parentheses. ^ is
right-associative and binds tighter than unary minus; no implicit
multiplication. ^ is math.pow, so a value is always a real number: a power
with no real value (a negative base to a fractional exponent, zero to a
negative one) raises ValueError, like log and sqrt outside their domain.
A parsed tree is evaluated through compile_expr, which turns it into one
Python function of t, once. The same compiled source, run on numpy's
functions, evaluates a derivative on a whole array of t at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Union

import numpy as np

from .quadrature import Fn1D

__all__ = [
    "ParseError", "Expr", "parse", "compile_expr", "differentiate", "as_fn1d",
]


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


# --- tokenizer -----------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "lparen", "rparen", "end"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j == i + 1 and ch == ".":
                raise ParseError("a number needs a digit, found a lone '.'", i)
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --- Pratt parser --------------------------------------------------------

# Binding powers: ^ > unary minus > * / > + -
_LEFT_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30
# Levels of nesting (parentheses, calls, unary signs, right operands of ^)
# one expression may have. The parser and `_diff` recurse once or twice per
# level, so this keeps them inside Python's default recursion limit.
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
            if tok.text == "pi":
                return Num(math.pi)
            if tok.text == "e":
                return Num(math.e)
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


# --- compilation / printing ----------------------------------------------

_OPERATORS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}
_PY_OPERATORS = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "/": "({} / {})",
                 "^": "pow({}, {})"}
# Names the generated code may use: nothing else is reachable from it.
_NAMESPACE = {**_FUNCTIONS, "pow": math.pow, "inf": math.inf, "nan": math.nan,
              "__builtins__": {}}
# The same names over numpy arrays of t.
_NP_NAMESPACE = {**_NAMESPACE, **{name: getattr(np, name) for name in _FUNCTIONS},
                 "pow": np.power}
# Parentheses one generated expression may nest; CPython's parser stops at 200.
_MAX_NESTING = 50


def _literal(v: float) -> str:
    v = float(v)
    mag = repr(abs(v)) if math.isfinite(v) else ("nan" if math.isnan(v) else "inf")
    return f"(-{mag})" if math.copysign(1.0, v) < 0 else mag


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def compile_expr(e: Expr) -> Callable[[float], float]:
    """One Python function of t that computes e, built once per tree.

    The source is generated from the tree alone (float literals, + - * /,
    pow for ^, the names in _FUNCTIONS) and runs without builtins. Every
    node is evaluated children first, left before right, with the same
    float operations, so values and raised exceptions are those of a
    direct walk of the tree. A subtree shared within the tree (derivatives
    share them) is computed once into a local, and so is any subtree
    nested deeper than _MAX_NESTING, so every tree compiles.
    """
    return _bind(_code(e), _NAMESPACE)


def _bind(code: CodeType, namespace: dict) -> Callable:
    """The function `_code` compiled, its names read from namespace:
    _NAMESPACE for a float t, _NP_NAMESPACE for a numpy array of t."""
    namespace = dict(namespace)
    exec(code, namespace)
    return namespace["_f"]


def _code(e: Expr) -> CodeType:
    """compile_expr's source for e, compiled once, for _bind."""
    uses: dict[int, int] = {}
    stack = [e]
    while stack:
        for child in _children(stack.pop()):
            uses[id(child)] = uses.get(id(child), 0) + 1
            if uses[id(child)] == 1:
                stack.append(child)

    lines: list[str] = []
    names: dict[int, str] = {}
    n_locals = 0

    def local(text: str, at: int) -> str:
        nonlocal n_locals
        name = f"_{n_locals}"
        n_locals += 1
        lines.insert(at, f"    {name} = {text}")
        return name

    # Post-order walk; each result is (source, nesting depth), depth 0
    # meaning a name or literal. A BinOp notes where the lines of its right
    # operand start: if there are any, its left operand is bound before
    # them, so that it is still evaluated first.
    results: list[tuple[str, int]] = []
    marks: list[int] = []
    todo: list[tuple[int, Expr]] = [(0, e)]
    while todo:
        step, node = todo.pop()
        if step == 0:
            if id(node) in names:
                results.append((names[id(node)], 0))
            elif isinstance(node, Num):
                results.append((_literal(node.value), 0))
            elif isinstance(node, Var):
                results.append(("t", 0))
            elif isinstance(node, Call) and node.fn not in _FUNCTIONS:
                raise ValueError(f"unknown function {node.fn!r}")
            else:
                todo.append((2, node))
                if isinstance(node, BinOp):
                    todo += [(0, node.right), (1, node), (0, node.left)]
                else:
                    todo.append((0, _children(node)[0]))
            continue
        if step == 1:
            marks.append(len(lines))
            continue
        if isinstance(node, BinOp):
            (left, ldepth), (right, rdepth) = results[-2:]
            del results[-2:]
            mark = marks.pop()
            if ldepth and len(lines) > mark:
                left, ldepth = local(left, mark), 0
            text = _PY_OPERATORS[node.op].format(left, right)
            depth = max(ldepth, rdepth) + 1
        else:
            arg, depth = results.pop()
            text = f"(-{arg})" if isinstance(node, Neg) else f"{node.fn}({arg})"
            depth += 1
        if depth >= _MAX_NESTING or uses.get(id(node), 0) > 1:
            text = names[id(node)] = local(text, len(lines))
            depth = 0
        results.append((text, depth))

    source = "def _f(t):\n" + "".join(line + "\n" for line in lines)
    source += f"    return {results[0][0]}\n"
    return compile(source, "<obw.expr>", "exec")


# --- symbolic differentiation --------------------------------------------

def _num(v: float) -> Num:
    return Num(float(v))


def _fold_node(e: Expr, kids: list[Expr]) -> Expr:
    """e with its children replaced by their folded forms `kids`, folded.

    A power of constants with no real value (math.pow's ValueError) stays
    unfolded; evaluation meets it instead.
    """
    if isinstance(e, Neg):
        (inner,) = kids
        return _num(-inner.value) if isinstance(inner, Num) else Neg(inner)
    if isinstance(e, BinOp):
        left, right = kids
        if isinstance(left, Num) and isinstance(right, Num):
            try:
                return _num(_OPERATORS[e.op](left.value, right.value))
            except ValueError:
                pass
        return BinOp(e.op, left, right)
    if isinstance(e, Call):
        (arg,) = kids
        return _num(_FUNCTIONS[e.fn](arg.value)) if isinstance(arg, Num) else Call(e.fn, arg)
    return e


def _fold(e: Expr) -> Expr:
    """Constant folding only; no further simplification.

    Children first, without recursion, so trees of any depth fold. Each
    node is folded once and its result reused, so a subtree shared within
    e stays shared.
    """
    memo: dict[int, Expr] = {}
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        kids = _children(node)
        if ready or not kids:
            memo[id(node)] = _fold_node(node, [memo[id(k)] for k in kids])
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return memo[id(e)]


def differentiate(e: Expr) -> Expr:
    return _fold(_diff(e))


def _diff(e: Expr) -> Expr:
    if isinstance(e, Num):
        return _num(0.0)
    if isinstance(e, Var):
        return _num(1.0)
    if isinstance(e, Neg):
        return Neg(_diff(e.operand))
    if isinstance(e, BinOp):
        u, v = e.left, e.right
        du, dv = _diff(u), _diff(v)
        if e.op == "+":
            return BinOp("+", du, dv)
        if e.op == "-":
            return BinOp("-", du, dv)
        if e.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if e.op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, _num(2.0)))
        # power rule for constant exponents, full logarithmic rule otherwise
        if isinstance(v, Num):
            return BinOp(
                "*",
                BinOp("*", v, BinOp("^", u, _num(v.value - 1.0))),
                du,
            )
        log_term = BinOp("*", dv, Call("log", u))
        frac_term = BinOp("/", BinOp("*", v, du), u)
        return BinOp("*", e, BinOp("+", log_term, frac_term))
    u, du = e.arg, _diff(e.arg)
    if e.fn == "sin":
        outer: Expr = Call("cos", u)
    elif e.fn == "cos":
        outer = Neg(Call("sin", u))
    elif e.fn == "exp":
        outer = Call("exp", u)
    elif e.fn == "log":
        outer = BinOp("/", _num(1.0), u)
    elif e.fn == "sqrt":
        outer = BinOp("/", _num(0.5), Call("sqrt", u))
    else:  # abs: undefined at zero; evaluation there falls back to differences
        outer = BinOp("/", u, Call("abs", u))
    return BinOp("*", outer, du)


# Finite-difference step: the cube root of machine epsilon, the optimum for
# second-order stencils, scaled by max(1, |t|).
_FD_STEP = (2.0 ** -52) ** (1.0 / 3.0)


def as_fn1d(source: str, name: str = "") -> Fn1D:
    """Parse source into an evaluable function with a symbolic derivative.

    The tree and its derivative are each compiled once. Points where the
    symbolic derivative fails to evaluate (abs at zero, sqrt at zero) fall
    back to second-order finite differences: central ones, else forward
    ones where the central stencil leaves the expression's real domain.

    The derivative also has `grid(ts)`: the symbolic derivative on a numpy
    array of t in one call, from the same compiled source run on numpy's
    functions, with IEEE values (inf, nan) where the scalar derivative
    raises or falls back, and numpy's floating-point error handling.
    numpy's exp, log and pow may differ from math's in the last bit.
    """
    tree = parse(source)
    fn = compile_expr(tree)
    dcode = _code(differentiate(tree))
    dfn = _bind(dcode, _NAMESPACE)
    dgrid = _bind(dcode, _NP_NAMESPACE)

    def deriv(t: float) -> float:
        try:
            v = dfn(t)
        except (ZeroDivisionError, ValueError, OverflowError):
            v = math.nan
        if math.isfinite(v):
            return v
        h = _FD_STEP * max(1.0, abs(t))
        try:
            return (fn(t + h) - fn(t - h)) / (2 * h)
        except ValueError:
            return (-3.0 * fn(t) + 4.0 * fn(t + h) - fn(t + 2 * h)) / (2 * h)

    # a derivative that does not depend on t returns one number
    deriv.grid = lambda ts: np.broadcast_to(dgrid(ts), ts.shape)
    return Fn1D(fn=fn, derivative=deriv, name=name or source)
