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
pure.  A ``Plan`` evaluates groups of expressions over NumPy arrays for
grid sweeps: it hash-conses their subtrees into the DAG of distinct
subexpressions, and each evaluation computes every distinct
subexpression once.  A model keeps the plan of its frame and det A,
and its last grid sweep's with structure, built as an extension of it
(``Plan.extended``).  ``Plan`` is the only array evaluator, and
``evaluate``, a tree walk over floats, is its scalar reference.
Partial derivatives are built once per node and variable and kept on
the node.  No simplification is attempted beyond folding literal zeros
and ones out of derivative terms; correctness is always checked
pointwise, never by canonical form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .records import (
    DifferentiationError,
    DomainError,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
)


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

_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z][A-Za-z0-9_]*|\s+|.", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token (a number, a name, whitespace or
    one other character), then ("end", "", len(text)).  A token's first
    character gives its kind in one branch: an operator's kind is its
    own text, a digit (``\\d``, ``str.isdecimal``) starts a number, an
    ASCII letter a name; whitespace is dropped."""
    tokens = []
    pos = 0
    for token in _TOKEN_RE.findall(text):
        first = token[0]
        if first in "+-*/^()":
            tokens.append((token, token, pos))
        elif first.isdecimal():
            tokens.append(("number", token, pos))
        elif first.isascii() and first.isalpha():
            tokens.append(("ident", token, pos))
        elif not first.isspace():
            raise ParseError(f"unexpected character {token!r}", pos)
        pos += len(token)
    tokens.append(("end", "", len(text)))
    return tokens


#: Deepest nesting ``parse`` accepts, counted both as the height of the
#: tree and as the parser's own nesting of parentheses, function
#: arguments and powers.  Parsing, evaluation, the build of a ``Plan``
#: and differentiation all recurse on the tree, and differentiation and the
#: mean-curvature candidate build trees deeper than their input, so the
#: bound keeps all of them well inside Python's recursion limit.
MAX_DEPTH = 64


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def nested(self, parse: Callable[[], Expr], pos: int) -> Expr:
        """``parse()`` one nesting level down, refused beyond MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(pos)
        node = parse()
        self.depth -= 1
        return node

    def kind(self) -> str:  # of the next token
        return self.tokens[self.index][0]

    def expect_op(self, op: str, context: str) -> None:
        if self.kind() != op:
            raise ParseError(f"expected '{op}' {context}", self.tokens[self.index][2])
        self.index += 1

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while (op := self.kind()) == "+" or op == "-":
            self.index += 1
            node = BinaryOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while (op := self.kind()) == "*" or op == "/":
            self.index += 1
            node = BinaryOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        """factor := ["-"] power, with power := atom ["^" factor]."""
        negated = self.kind() == "-"
        if negated:
            self.index += 1
        node = self.parse_atom()
        if self.kind() == "^":
            self.index += 1
            node = BinaryOp("^", node, self.nested(self.parse_factor, self.tokens[self.index][2]))
        return Negate(node) if negated else node

    def parse_atom(self) -> Expr:
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "number":
            return Literal(float(text))
        if kind == "ident":
            if self.kind() == "(":
                self.index += 1
                if text not in FUNCTION_NAMES:
                    raise UnknownFunctionError(text, pos)
                arg = self.nested(self.parse_expr, pos)
                self.expect_op(")", f"closing the argument of {text}()")
                return FunctionCall(text, arg)
            if text in CONSTANTS:
                return Constant(text)
            if text in FUNCTION_NAMES:
                raise ParseError(f"expected '(' after function name '{text}'", pos)
            return Variable(text)
        if kind == "(":
            node = self.nested(self.parse_expr, pos)
            self.expect_op(")", "closing a parenthesized expression")
            return node
        raise ParseError(
            "expected a number, name, function call, or '(' expression ')'", pos
        )


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with the byte offset and what was expected) on
    malformed input or nesting deeper than MAX_DEPTH, and
    UnknownFunctionError on an unknown function name.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, text_left, pos = parser.tokens[parser.index]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text_left!r}", pos)
    if _height(node) > MAX_DEPTH:
        raise _too_deep(0)
    return node


def _height(node: Expr) -> int:
    """Levels of nodes in the tree, counted without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [child for parent in level for child in _children(parent)]
    return height


def _children(node: Expr) -> tuple[Expr, ...]:
    kind = type(node)
    if kind is BinaryOp:
        return (node.left, node.right)
    if kind is FunctionCall:
        return (node.argument,)
    if kind is Negate:
        return (node.operand,)
    return ()


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

    This tree walk is the reference for ``Plan``, which the grid sweeps
    use.
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


# --- evaluation plans ------------------------------------------------------

def _first(values, mask) -> float:
    """The first element of ``values`` (a float or an array) under ``mask``."""
    return float(np.broadcast_to(values, np.shape(mask))[mask].flat[0])


def _finite(value, node: Expr):
    """``value`` (a float, checked without NumPy, or an array) if finite."""
    if (math.isfinite(value) if type(value) is float else np.isfinite(value).all()):
        return value
    raise DomainError(f"non-finite result {_first(value, ~np.isfinite(value))!r}", node)


def _variable(env: Mapping[str, Any], node: Variable):
    """The value ``env`` binds to ``node``, if every element is finite."""
    try:
        value = env[node.name]
    except KeyError:
        raise UnboundVariableError(node.name, node) from None
    return _finite(value, node)


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}


def _array_binary(op: str, left, right, node: Expr):
    """One elementwise operator application over floats or arrays, with
    the domain checks of ``_binary``."""
    if op == "+":
        return _finite(left + right, node)
    if op == "-":
        return _finite(left - right, node)
    if op == "*":
        return _finite(left * right, node)
    if op == "/":
        if (np.asarray(right) == 0.0).any():
            raise DomainError("division by zero", node)
        return _finite(left / right, node)
    if op == "^":
        value = np.power(left, right)
        bad = ~np.isfinite(value)
        if bad.any():
            raise DomainError(
                f"power {_first(left, bad)!r}^{_first(right, bad)!r} outside the real domain",
                node,
            )
        return value
    raise AssertionError(f"unreachable operator {op!r}")


def _array_call(name: str, arg, node: Expr):
    """One elementwise function application over floats or arrays, with
    the domain checks of ``_call``."""
    ufunc = _UFUNCS[name]
    if name in ("sin", "cos"):  # finite on finite arguments
        return ufunc(arg)
    if name == "exp":
        value = ufunc(arg)
        bad = ~np.isfinite(value)
        if bad.any():
            raise DomainError(f"exp({_first(arg, bad)!r}) overflows", node)
        return value
    if name == "ln":
        bad = np.asarray(arg) <= 0.0
        if bad.any():
            raise DomainError(f"ln of non-positive value {_first(arg, bad)!r}", node)
        return ufunc(arg)
    if name == "sqrt":
        bad = np.asarray(arg) < 0.0
        if bad.any():
            raise DomainError(f"sqrt of negative value {_first(arg, bad)!r}", node)
        return ufunc(arg)
    raise AssertionError(f"unreachable function {name!r}")


def _operation(kind: type, node: Expr, children: tuple[int, ...]) -> Callable:
    """The function of (value table, env) that applies the operation of
    ``node``, of type ``kind``, to its children's values (the table entries
    at the slots ``children``), with the domain checks of
    ``_array_binary``, ``_array_call`` and ``_variable``."""
    if kind is BinaryOp:
        op, (left, right) = node.op, children
        return lambda table, env: _array_binary(op, table[left], table[right], node)
    if kind is FunctionCall:
        name, (argument,) = node.name, children
        return lambda table, env: _array_call(name, table[argument], node)
    if kind is Negate:
        (operand,) = children
        return lambda table, env: -table[operand]
    if kind is Variable:
        return lambda table, env: _variable(env, node)
    if kind is Literal:
        return lambda table, env: _finite(node.value, node)
    value = CONSTANTS[node.name]
    return lambda table, env: value


class Plan:
    """An evaluation plan for groups of expressions over NumPy arrays.

    The subexpressions of every root are hash-consed: structurally equal
    subtrees share one slot, so the plan is the DAG of the roots' distinct
    subexpressions (``len(plan)`` of them), kept as one step per slot in
    first-occurrence post-order.  ``run(env)`` evaluates the groups in
    order into a value table that lasts as long as the run, each distinct
    subexpression once.  Steps of a later group that an earlier group
    already computed are not run again, so a group raises exactly what
    evaluating its roots one by one after the earlier groups would raise.

    The plan holds steps, not values: building it runs none of them.  A
    subexpression without variables is a step like any other, run once
    per run, and one that fails (``ln(0)``, ``1/0``) raises its
    DomainError when a run reaches it.

    Each node visit is one branch on the node's type, which takes its
    children's slots and its key: kind, own data (a literal's type and
    bits, as ``==`` would merge -0.0 into 0.0) and children's slots.  A
    new key gets the next slot and its step (``_operation``); the keys
    are kept, so that ``extended`` builds none of the plan's steps again.
    """

    def __init__(self, groups: Sequence[Sequence[Expr]]):
        # the steps, each group's (first step, end step, root slots), each key's slot
        self._steps, self._groups, self._keys = [], [], {}
        self._append(groups)

    def extended(self, groups: Sequence[Sequence[Expr]]) -> Plan:
        """``Plan([*this plan's groups, *groups])``, its steps shared with
        this plan, which is left as it is."""
        plan = object.__new__(Plan)
        plan._steps, plan._groups, plan._keys = [*self._steps], [*self._groups], dict(self._keys)
        plan._append(groups)
        return plan

    def _append(self, groups: Sequence[Sequence[Expr]]) -> None:
        steps, keys = self._steps, self._keys
        seen: dict[int, int] = {}  # id(node) -> slot; the roots keep every node alive

        def visit(node: Expr) -> int:
            slot = seen.get(id(node))
            if slot is not None:
                return slot
            kind = type(node)
            if kind is BinaryOp:
                children = (visit(node.left), visit(node.right))
                key = (kind, node.op, children)
            elif kind is FunctionCall:
                children = (visit(node.argument),)
                key = (kind, node.name, children)
            elif kind is Negate:
                children = (visit(node.operand),)
                key = (kind, children)
            elif kind is Literal:
                children, key = (), (kind, type(node.value), float(node.value).hex())
            elif kind is Variable or kind is Constant:
                children, key = (), (kind, node.name)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            slot = keys.get(key)
            if slot is None:
                slot = keys[key] = len(steps)
                steps.append(_operation(kind, node, children))
            seen[id(node)] = slot
            return slot

        for group in groups:
            start = len(steps)
            roots = tuple(map(visit, group))
            self._groups.append((start, len(steps), roots))
        del visit  # it refers to itself: unbound, it and ``seen`` die now, not in a collection

    def __len__(self) -> int:
        return len(self._steps)

    def run(self, env: Mapping[str, Any]) -> Iterator[list]:
        """For each group in turn, the values of its roots at ``env``, as a
        list.  ``env`` binds each variable to a float or a NumPy array,
        the arrays of shapes that broadcast together; each value is a
        float or an array of the broadcast shape of the variables it
        reads (with each coordinate of a lattice bound along its own
        axis, a value lies on the sub-lattice of the coordinates it
        reads).

        Raises what ``evaluate`` raises: UnboundVariableError for a
        missing variable and DomainError for ln(x <= 0), sqrt(x < 0),
        division by zero, a power outside the real domain, exp overflow,
        or any non-finite value; the message names the first offending
        element.  ``model.sweep`` runs plans, and the reads of their
        values, with NumPy's floating-point warnings off (``np.errstate``).
        """
        table: list = []
        for start, stop, roots in self._groups:
            for step in self._steps[start:stop]:
                table.append(step(table, env))
            yield [table[slot] for slot in roots]


def variables(node: Expr) -> frozenset[str]:
    """Names of all free variables referenced by ``node``, collected
    without recursion, with one type branch per node."""
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is BinaryOp:
            stack += (node.left, node.right)
        elif kind is Variable:
            names.add(node.name)
        else:
            stack += _children(node)
    return frozenset(names)


# --- differentiation -------------------------------------------------------

# The folding constructors read each operand's type once: x and y are
# the values of literal operands, else None, which equals no number.

def neg(node: Expr) -> Expr:
    kind = type(node)
    if kind is Literal and math.isfinite(-node.value):
        return Literal(-node.value)
    if kind is Negate:
        return node.operand
    return Negate(node)


def add(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Literal else None
    y = b.value if type(b) is Literal else None
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    if x is not None and y is not None and math.isfinite(x + y):
        return Literal(x + y)
    return BinaryOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Literal else None
    y = b.value if type(b) is Literal else None
    if y == 0.0:
        return a
    if x == 0.0:
        return neg(b)
    if x is not None and y is not None and math.isfinite(x - y):
        return Literal(x - y)
    return BinaryOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Literal else None
    y = b.value if type(b) is Literal else None
    if x == 0.0 or y == 0.0:
        return ZERO
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    if x is not None and y is not None and math.isfinite(x * y):
        return Literal(x * y)
    return BinaryOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(a) is Literal and a.value == 0.0:
        return ZERO
    if type(b) is Literal and b.value == 1.0:
        return a
    return BinaryOp("/", a, b)


def differentiate(node: Expr, var: str) -> Expr:
    """Exact partial derivative of ``node`` with respect to ``var``.

    No canonical form is guaranteed; the result is only promised to
    evaluate to the derivative pointwise.  Powers require an exponent
    free of ``var`` (the power rule); general f^g is rejected.

    Built once per node and variable and kept on the node, so a subtree
    that many roots share (det A in every Cramer quotient) is
    differentiated once, and its derivative is one shared node.
    """
    kind = type(node)
    if kind is BinaryOp or kind is FunctionCall or kind is Negate:
        memo = _memo(node)
        found = memo.get(("derivative", var))
        if found is None:
            found = memo["derivative", var] = _derivative(node, var)
        return found
    if kind is Variable:
        return ONE if node.name == var else ZERO
    if kind is Literal or kind is Constant:
        return ZERO
    raise TypeError(f"not an expression node: {node!r}")


def _derivative(node: Expr, var: str) -> Expr:
    """``differentiate`` of a node with children, by the rule of its own
    operation."""
    kind = type(node)
    if kind is BinaryOp:
        op = node.op
        if op == "^":
            if var in variables(node.right):
                raise DifferentiationError(
                    f"cannot differentiate '{to_string(node)}' with respect to "
                    f"'{var}': the exponent must not depend on '{var}' "
                    "(general f^g is unsupported; use exp and ln)"
                )
            dbase = differentiate(node.left, var)
            if _is_zero(dbase):
                return ZERO
            lowered = BinaryOp("^", node.left, sub(node.right, ONE))
            return mul(mul(node.right, lowered), dbase)
        dl = differentiate(node.left, var)
        dr = differentiate(node.right, var)
        if op == "+":
            return add(dl, dr)
        if op == "-":
            return sub(dl, dr)
        if op == "*":
            return add(mul(dl, node.right), mul(node.left, dr))
        if op == "/":
            numerator = sub(mul(dl, node.right), mul(node.left, dr))
            if _is_zero(numerator):
                return ZERO
            return div(numerator, mul(node.right, node.right))
        raise AssertionError(f"unreachable operator {op!r}")
    if kind is FunctionCall:
        inner = differentiate(node.argument, var)
        name = node.name
        if _is_zero(inner):
            # what each rule below folds to, without building its factor
            return Literal(-0.0) if name == "cos" else ZERO
        # exp(u) and sqrt(u) are built afresh, not taken from ``node``: the
        # derivative is kept on the node, and must not refer back to it
        if name == "sin":
            return mul(FunctionCall("cos", node.argument), inner)
        if name == "cos":
            return neg(mul(FunctionCall("sin", node.argument), inner))
        if name == "exp":
            return mul(FunctionCall("exp", node.argument), inner)
        if name == "ln":
            return div(inner, node.argument)
        if name == "sqrt":
            return div(inner, mul(TWO, FunctionCall("sqrt", node.argument)))
        raise AssertionError(f"unreachable function {name!r}")
    return neg(differentiate(node.operand, var))


def _is_zero(node: Expr) -> bool:
    """Whether ``node`` is a literal zero, which ``mul`` and ``div`` fold
    a product or quotient with to ZERO."""
    return type(node) is Literal and node.value == 0.0


def _memo(node) -> dict:
    """Data derived from ``node``, an immutable object, kept on the
    object itself: it never goes stale, it dies with the object, and
    lookups go by identity rather than by the (recursive) structural
    hash."""
    return node.__dict__.setdefault("_memo", {})


def gradient(node: Expr, names: tuple[str, ...]) -> tuple[Expr, ...]:
    """Partial derivatives of ``node`` with respect to each of ``names``,
    each kept on the node by ``differentiate``."""
    return tuple(differentiate(node, name) for name in names)


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
