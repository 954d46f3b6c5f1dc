"""Scalar expressions over chart coordinates and named parameters.

A small arithmetic language with parsing, evaluation and exact symbolic
partial differentiation.  Grammar (whitespace insignificant)::

    expr    := term { ("+"|"-") term }
    term    := factor { ("*"|"/") factor }
    factor  := ["-"] power
    power   := atom [ "^" factor ]
    atom    := number | ident | ident "(" expr ")" | "(" expr ")"

``^`` binds tightest and is right-associative.  Reserved idents:
``pi``, ``e`` (constants) and the one-argument functions ``sin``,
``cos``, ``exp``, ``ln``, ``sqrt``.  Every other ident is a free
variable; whether it names a chart coordinate or a declared parameter
is checked when the expression is bound to a model, not here.

Expression nodes are immutable, so evaluation and differentiation are
pure.  ``compile`` turns a node into a function over NumPy arrays for
grid sweeps; ``evaluate`` is its scalar reference.  Compiled functions
and partial derivatives are built once per node and kept on it.  No
simplification is attempted beyond folding literal zeros and ones out of
derivative terms; correctness is always checked pointwise, never by
canonical form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np


class ExprError(Exception):
    """Base class for expression-language failures."""

    #: The point of a grid sweep at which the failure happened, when a
    #: sweep raised it.
    point: tuple | None = None


class ParseError(ExprError):
    """Malformed input text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """An ident is applied like a function but is not a known one."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown function '{name}'", offset)
        self.name = name


class EvalError(ExprError):
    """Evaluation failure; carries the offending node, if any."""

    def __init__(self, message: str, node: "Expr | None" = None):
        super().__init__(message if node is None else f"{message} in '{to_string(node)}'")
        self.node = node


class UnboundVariableError(EvalError):
    def __init__(self, name: str, node: "Expr"):
        super().__init__(f"unbound variable '{name}'", node)
        self.name = name


class DomainError(EvalError):
    """ln of a non-positive value, sqrt of a negative, division by zero,
    or a value that is not finite."""


class DifferentiationError(ExprError):
    """Requested derivative is outside the supported fragment."""


# --- AST -------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Literal(Expr):
    value: float


@dataclass(frozen=True)
class Constant(Expr):
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Variable(Expr):
    name: str


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    argument: Expr


ZERO = Literal(0.0)
ONE = Literal(1.0)
TWO = Literal(2.0)

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "sqrt")
RESERVED = frozenset(CONSTANTS) | frozenset(FUNCTION_NAMES)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
      | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def expect_op(self, op: str, context: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}' {context}", pos)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while (op := self.accept_op("+", "-")) is not None:
            node = BinaryOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while (op := self.accept_op("*", "/")) is not None:
            node = BinaryOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.accept_op("-"):
            return Negate(self.parse_power())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        if self.accept_op("^"):
            return BinaryOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Literal(float(text))
        if kind == "ident":
            if self.accept_op("("):
                if text not in FUNCTION_NAMES:
                    raise UnknownFunctionError(text, pos)
                arg = self.parse_expr()
                self.expect_op(")", f"closing the argument of {text}()")
                return FunctionCall(text, arg)
            if text in CONSTANTS:
                return Constant(text)
            if text in FUNCTION_NAMES:
                raise ParseError(f"expected '(' after function name '{text}'", pos)
            return Variable(text)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")", "closing a parenthesized expression")
            return node
        raise ParseError(
            "expected a number, name, function call, or '(' expression ')'", pos
        )


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with the byte offset and what was expected) on
    malformed input, UnknownFunctionError on an unknown function name.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, text_left, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text_left!r}", pos)
    return node


# --- evaluation ------------------------------------------------------------

def _checked(value: float, node: Expr) -> float:
    if math.isfinite(value):
        return value
    raise DomainError(f"non-finite result {value!r}", node)


def _binary(op: str, left: float, right: float, node: Expr) -> float:
    """One scalar operator application, with the domain checks."""
    if op == "+":
        return _checked(left + right, node)
    if op == "-":
        return _checked(left - right, node)
    if op == "*":
        return _checked(left * right, node)
    if op == "/":
        if right == 0.0:
            raise DomainError("division by zero", node)
        return _checked(left / right, node)
    if op == "^":
        try:
            return _checked(math.pow(left, right), node)
        except (ValueError, OverflowError):
            raise DomainError(
                f"power {left!r}^{right!r} outside the real domain", node
            ) from None
    raise AssertionError(f"unreachable operator {op!r}")


def _call(name: str, arg: float, node: Expr) -> float:
    """One scalar function application, with the domain checks."""
    if name in ("sin", "cos"):
        try:
            return math.sin(arg) if name == "sin" else math.cos(arg)
        except ValueError:
            raise DomainError(f"{name} of non-finite value {arg!r}", node) from None
    if name == "exp":
        try:
            return math.exp(arg)
        except OverflowError:
            raise DomainError(f"exp({arg!r}) overflows", node) from None
    if name == "ln":
        if arg <= 0.0:
            raise DomainError(f"ln of non-positive value {arg!r}", node)
        return math.log(arg)
    if name == "sqrt":
        if arg < 0.0:
            raise DomainError(f"sqrt of negative value {arg!r}", node)
        return math.sqrt(arg)
    raise AssertionError(f"unreachable function {name!r}")


def evaluate(node: Expr, env: Mapping[str, float]) -> float:
    """Evaluate ``node`` with variables bound by ``env`` (IEEE doubles).

    Raises UnboundVariableError for a free variable missing from the
    environment and DomainError for ln(x <= 0), sqrt(x < 0), division
    by zero, a power outside the real domain, exp overflow, or any
    non-finite value (a literal, a variable or an intermediate result).

    This tree walk is the reference for ``compile``, which the grid
    sweeps use.
    """
    if isinstance(node, Literal):
        return _checked(node.value, node)
    if isinstance(node, Constant):
        return CONSTANTS[node.name]
    if isinstance(node, Variable):
        try:
            return _checked(float(env[node.name]), node)
        except KeyError:
            raise UnboundVariableError(node.name, node) from None
    if isinstance(node, Negate):
        return -evaluate(node.operand, env)
    if isinstance(node, BinaryOp):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        return _binary(node.op, left, right, node)
    if isinstance(node, FunctionCall):
        return _call(node.name, evaluate(node.argument, env), node)
    raise TypeError(f"not an expression node: {node!r}")


# --- compiled evaluation ---------------------------------------------------

def _memo(node: Expr) -> dict:
    """Data derived from ``node``, kept on the node itself: nodes are
    immutable, so it never goes stale, and lookups go by identity rather
    than by the (recursive) structural hash."""
    return node.__dict__.setdefault("_memo", {})


def _first(values, mask) -> float:
    """The first element of ``values`` (a float or an array) under ``mask``."""
    return float(np.broadcast_to(values, np.shape(mask))[mask].flat[0])


def _finite(value, node: Expr):
    """``value`` (a float or an array) if every element is finite."""
    if np.isfinite(value).all():
        return value
    raise DomainError(f"non-finite result {_first(value, ~np.isfinite(value))!r}", node)


def compile(node: Expr) -> Callable[[Mapping[str, Any]], Any]:
    """Compile ``node`` into a function of an environment whose values are
    floats or NumPy arrays of one shape.  The function returns a float or
    an array of that shape, computed elementwise with NumPy ufuncs.

    The function is built once per node and kept on it.  It raises what
    ``evaluate`` raises: UnboundVariableError for a missing variable and
    DomainError for ln(x <= 0), sqrt(x < 0), division by zero, a power
    outside the real domain, exp overflow, or any non-finite value; the
    message names the first offending element.  Subtrees without
    variables are folded once, by the scalar rules of ``evaluate``.
    Callers silence NumPy's floating-point warnings with ``np.errstate``.
    """
    memo = _memo(node)
    function = memo.get("compiled")
    if function is None:
        function = memo["compiled"] = _compile(node)
    return function


def _constant(value: float) -> Callable:
    def constant(env):
        return value

    constant.value = value
    return constant


def _folded(node: Expr, fold: Callable[[], float]) -> Callable:
    """A constant subtree: folded now, or re-raising its domain error at
    every call, as ``evaluate`` would."""
    try:
        return _constant(fold())
    except DomainError:
        return lambda env: fold()


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}


def _compile(node: Expr) -> Callable:
    if isinstance(node, Literal):
        return _folded(node, lambda: _checked(node.value, node))
    if isinstance(node, Constant):
        return _constant(CONSTANTS[node.name])
    if isinstance(node, Variable):
        name = node.name

        def variable(env):
            try:
                value = env[name]
            except KeyError:
                raise UnboundVariableError(name, node) from None
            return _finite(value, node)

        return variable
    if isinstance(node, Negate):
        operand = compile(node.operand)
        if hasattr(operand, "value"):
            return _constant(-operand.value)
        return lambda env: -operand(env)
    if isinstance(node, BinaryOp):
        return _compile_binary(node, compile(node.left), compile(node.right))
    if isinstance(node, FunctionCall):
        return _compile_call(node, compile(node.argument))
    raise TypeError(f"not an expression node: {node!r}")


def _compile_binary(node: BinaryOp, left: Callable, right: Callable) -> Callable:
    op = node.op
    if hasattr(left, "value") and hasattr(right, "value"):
        return _folded(node, lambda: _binary(op, left.value, right.value, node))
    if op == "+":
        return lambda env: _finite(left(env) + right(env), node)
    if op == "-":
        return lambda env: _finite(left(env) - right(env), node)
    if op == "*":
        return lambda env: _finite(left(env) * right(env), node)
    if op == "/":
        def divide(env):
            numerator, denominator = left(env), right(env)
            if (np.asarray(denominator) == 0.0).any():
                raise DomainError("division by zero", node)
            return _finite(numerator / denominator, node)

        return divide
    if op == "^":
        def power(env):
            base, exponent = left(env), right(env)
            value = np.power(base, exponent)
            bad = ~np.isfinite(value)
            if bad.any():
                raise DomainError(
                    f"power {_first(base, bad)!r}^{_first(exponent, bad)!r} "
                    "outside the real domain",
                    node,
                )
            return value

        return power
    raise AssertionError(f"unreachable operator {op!r}")


def _compile_call(node: FunctionCall, argument: Callable) -> Callable:
    name = node.name
    if hasattr(argument, "value"):
        return _folded(node, lambda: _call(name, argument.value, node))
    ufunc = _UFUNCS[name]
    if name in ("sin", "cos"):  # finite on finite arguments
        return lambda env: ufunc(argument(env))
    if name == "exp":
        def exp(env):
            arg = argument(env)
            value = ufunc(arg)
            bad = ~np.isfinite(value)
            if bad.any():
                raise DomainError(f"exp({_first(arg, bad)!r}) overflows", node)
            return value

        return exp
    if name == "ln":
        def ln(env):
            arg = argument(env)
            bad = np.asarray(arg) <= 0.0
            if bad.any():
                raise DomainError(f"ln of non-positive value {_first(arg, bad)!r}", node)
            return ufunc(arg)

        return ln
    if name == "sqrt":
        def sqrt(env):
            arg = argument(env)
            bad = np.asarray(arg) < 0.0
            if bad.any():
                raise DomainError(f"sqrt of negative value {_first(arg, bad)!r}", node)
            return ufunc(arg)

        return sqrt
    raise AssertionError(f"unreachable function {name!r}")


def variables(node: Expr) -> frozenset[str]:
    """Names of all free variables referenced by ``node``."""
    if isinstance(node, Variable):
        return frozenset((node.name,))
    if isinstance(node, Negate):
        return variables(node.operand)
    if isinstance(node, BinaryOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, FunctionCall):
        return variables(node.argument)
    return frozenset()


def is_constant(node: Expr) -> bool:
    """True when the expression references no variables at all."""
    return not variables(node)


# --- differentiation -------------------------------------------------------

def _is_literal(node: Expr, value: float) -> bool:
    return isinstance(node, Literal) and node.value == value


def _fold_ok(value: float) -> bool:
    return math.isfinite(value)


def neg(node: Expr) -> Expr:
    if isinstance(node, Literal) and _fold_ok(-node.value):
        return Literal(-node.value)
    if isinstance(node, Negate):
        return node.operand
    return Negate(node)


def add(a: Expr, b: Expr) -> Expr:
    if _is_literal(a, 0.0):
        return b
    if _is_literal(b, 0.0):
        return a
    if isinstance(a, Literal) and isinstance(b, Literal) and _fold_ok(a.value + b.value):
        return Literal(a.value + b.value)
    return BinaryOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_literal(b, 0.0):
        return a
    if _is_literal(a, 0.0):
        return neg(b)
    if isinstance(a, Literal) and isinstance(b, Literal) and _fold_ok(a.value - b.value):
        return Literal(a.value - b.value)
    return BinaryOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_literal(a, 0.0) or _is_literal(b, 0.0):
        return ZERO
    if _is_literal(a, 1.0):
        return b
    if _is_literal(b, 1.0):
        return a
    if isinstance(a, Literal) and isinstance(b, Literal) and _fold_ok(a.value * b.value):
        return Literal(a.value * b.value)
    return BinaryOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_literal(a, 0.0):
        return ZERO
    if _is_literal(b, 1.0):
        return a
    return BinaryOp("/", a, b)


def differentiate(node: Expr, var: str) -> Expr:
    """Exact partial derivative of ``node`` with respect to ``var``.

    No canonical form is guaranteed; the result is only promised to
    evaluate to the derivative pointwise.  Powers require an exponent
    free of ``var`` (the power rule); general f^g is rejected.
    """
    if isinstance(node, (Literal, Constant)):
        return ZERO
    if isinstance(node, Variable):
        return ONE if node.name == var else ZERO
    if isinstance(node, Negate):
        return neg(differentiate(node.operand, var))
    if isinstance(node, BinaryOp):
        if node.op in ("+", "-"):
            dl = differentiate(node.left, var)
            dr = differentiate(node.right, var)
            return add(dl, dr) if node.op == "+" else sub(dl, dr)
        if node.op == "*":
            dl = differentiate(node.left, var)
            dr = differentiate(node.right, var)
            return add(mul(dl, node.right), mul(node.left, dr))
        if node.op == "/":
            dl = differentiate(node.left, var)
            dr = differentiate(node.right, var)
            numerator = sub(mul(dl, node.right), mul(node.left, dr))
            return div(numerator, mul(node.right, node.right))
        if node.op == "^":
            if var in variables(node.right):
                raise DifferentiationError(
                    f"cannot differentiate '{to_string(node)}' with respect to "
                    f"'{var}': the exponent must not depend on '{var}' "
                    "(general f^g is unsupported; use exp and ln)"
                )
            dbase = differentiate(node.left, var)
            lowered = BinaryOp("^", node.left, sub(node.right, ONE))
            return mul(mul(node.right, lowered), dbase)
        raise AssertionError(f"unreachable operator {node.op!r}")
    if isinstance(node, FunctionCall):
        inner = differentiate(node.argument, var)
        if node.name == "sin":
            return mul(FunctionCall("cos", node.argument), inner)
        if node.name == "cos":
            return neg(mul(FunctionCall("sin", node.argument), inner))
        if node.name == "exp":
            return mul(node, inner)
        if node.name == "ln":
            return div(inner, node.argument)
        if node.name == "sqrt":
            return div(inner, mul(TWO, node))
        raise AssertionError(f"unreachable function {node.name!r}")
    raise TypeError(f"not an expression node: {node!r}")


def gradient(node: Expr, names: tuple[str, ...]) -> tuple[Expr, ...]:
    """Partial derivatives of ``node`` with respect to each of ``names``,
    differentiated once per node and kept on it."""
    memo = _memo(node).setdefault("gradient", {})
    found = memo.get(names)
    if found is None:
        found = memo[names] = tuple(differentiate(node, name) for name in names)
    return found


# --- printing --------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Expr) -> int:
    if isinstance(node, Literal):
        return _PREC_ATOM if node.value >= 0 else _PREC_UNARY
    if isinstance(node, Negate):
        return _PREC_UNARY
    if isinstance(node, BinaryOp):
        if node.op in ("+", "-"):
            return _PREC_ADD
        if node.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    return _PREC_ATOM


def _wrap(node: Expr, minimum: int) -> str:
    text = to_string(node)
    return f"({text})" if _precedence(node) < minimum else text


def to_string(node: Expr) -> str:
    """Render ``node`` in the input grammar.

    Right operands of +,-,*,/ are parenthesized at equal precedence, so
    re-parsing rebuilds the same tree and evaluates bit-identically.
    """
    if isinstance(node, Literal):
        return repr(node.value)
    if isinstance(node, (Constant, Variable)):
        return node.name
    if isinstance(node, Negate):
        return "-" + _wrap(node.operand, _PREC_POW)
    if isinstance(node, FunctionCall):
        return f"{node.name}({to_string(node.argument)})"
    if isinstance(node, BinaryOp):
        if node.op in ("+", "-"):
            left = _wrap(node.left, _PREC_ADD)
            right = _wrap(node.right, _PREC_ADD + 1)
        elif node.op in ("*", "/"):
            left = _wrap(node.left, _PREC_MUL)
            right = _wrap(node.right, _PREC_MUL + 1)
        else:  # ^ is right-associative and its base must be an atom
            left = _wrap(node.left, _PREC_ATOM)
            right = _wrap(node.right, _PREC_UNARY)
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def as_expr(value: "Expr | float | int | str") -> Expr:
    """Coerce a number, source string, or node to an expression node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")
