"""Expression language: grammar, evaluation, symbolic differentiation."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transdiv import expr
from transdiv.expr import (
    BinaryOp,
    Constant,
    DifferentiationError,
    DomainError,
    FunctionCall,
    Literal,
    Negate,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
    Variable,
    differentiate,
    evaluate,
    parse,
    to_string,
)

from generators import CountingEnv, plan_steps, random_env, random_expression
from test_blocks import ULP_BOUND


def plan_value(node, env):
    (value,) = next(expr.Plan([[node]]).run(env))
    return value


def central_difference(node, var, env, h=1e-5):
    plus = dict(env)
    minus = dict(env)
    plus[var] = env[var] + h
    minus[var] = env[var] - h
    return (evaluate(node, plus) - evaluate(node, minus)) / (2 * h)


# --- parsing ----------------------------------------------------------------

def test_parse_product_tree():
    node = parse("2*pi*x2")
    assert node == BinaryOp(
        "*", BinaryOp("*", Literal(2.0), Constant("pi")), Variable("x2")
    )


def test_parse_function_call():
    node = parse("cos(2*pi*x2)")
    assert isinstance(node, FunctionCall)
    assert node.name == "cos"
    assert node.argument == parse("2*pi*x2")


def test_parse_error_offset():
    with pytest.raises(ParseError) as info:
        parse("1+*2")
    assert info.value.offset == 2
    assert "expected" in str(info.value)


@pytest.mark.parametrize(
    "text, value",
    [
        ("2^3^2", 512.0),  # right-associative
        ("-2^2", -4.0),  # unary minus binds below ^
        ("(-2)^2", 4.0),
        ("2*-3", -6.0),
        ("2^-1", 0.5),
        ("1-2-3", -4.0),
        ("8/4/2", 1.0),
        ("1 + 2 * 3", 7.0),
        ("(1 + 2) * 3", 9.0),
        ("1.5e+2", 150.0),
        ("1e-3", 0.001),
        ("pi/pi", 1.0),
        ("ln(e)", 1.0),
        ("sqrt(4)", 2.0),
    ],
)
def test_precedence_and_numbers(text, value):
    assert evaluate(parse(text), {}) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("text", ["1.", ".5", "x1 +", "(1+2", "1)*2", "", "foo bar"])
def test_malformed_inputs(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "build, deepest",
    [
        (lambda k: "(" * k + "x1" + ")" * k, expr.MAX_DEPTH),  # parser nesting k
        (lambda k: "+".join(["x1"] * k), expr.MAX_DEPTH),  # tree height k
        (lambda k: "1^" * k + "x1", expr.MAX_DEPTH - 1),  # height k + 1
        (lambda k: "sin(" * k + "x1" + ")" * k, expr.MAX_DEPTH - 1),
        (lambda k: "-(" * k + "x1" + ")" * k, expr.MAX_DEPTH - 1),
    ],
    ids=["parentheses", "sum", "power", "functions", "negations"],
)
def test_nesting_bound(build, deepest):
    env = {"x1": 0.5}
    assert math.isfinite(evaluate(parse(build(deepest)), env))
    for too_deep in (deepest + 1, 5000):  # refused before the parser recurses far
        with pytest.raises(ParseError, match=f"nested deeper than {expr.MAX_DEPTH} levels"):
            parse(build(too_deep))


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("foo(x1)")
    with pytest.raises(ParseError):
        parse("sin + 1")  # function name without arguments


# --- evaluation ---------------------------------------------------------------

def test_eval_scalar_example():
    node = parse("exp(0.3*sin(2*pi*x2))")
    assert abs(evaluate(node, {"x2": 0.25}) - math.exp(0.3)) < 1e-12


def test_eval_identity():
    assert evaluate(parse("x1"), {"x1": 7}) == 7.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("ln(x1)"), {"x1": 0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(0-x1)"), {"x1": 4})
    with pytest.raises(DomainError):
        evaluate(parse("1/(x1-x1)"), {"x1": 3})
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x1+x2"), {"x1": 1})


def test_domain_error_names_offending_node():
    with pytest.raises(DomainError) as info:
        evaluate(parse("1 + ln(0-2)"), {})
    assert "ln" in str(info.value)


# --- non-finite values and the compiled evaluator ---------------------------------

NON_FINITE_CASES = [
    ("sin(x1)", {"x1": math.inf}),  # math.sin raises ValueError on inf
    ("cos(x1)", {"x1": -math.inf}),
    ("x1 + 1", {"x1": math.nan}),
    ("1e200*1e200*x1", {"x1": 1.0}),  # overflow in *
    ("1e308 + 1e308", {}),  # overflow in +
    ("0 - 1e308 - 1e308", {}),  # overflow in -
    ("x1/1e-300", {"x1": 1e10}),  # overflow in /
    ("1e200*1e200*x2 - 1e200*1e200*x2", {"x2": 0.5}),  # inf - inf = NaN
    ("sin(1e200*1e200)", {}),
    ("1e400", {}),  # parses to an infinite literal
]


@pytest.mark.parametrize("text, env", NON_FINITE_CASES)
def test_non_finite_values_raise_domain_error(text, env):
    node = parse(text)
    with pytest.raises(DomainError):
        evaluate(node, env)
    with pytest.raises(DomainError), np.errstate(all="ignore"):
        plan_value(node, {name: np.array([value, 0.5]) for name, value in env.items()})


@pytest.mark.parametrize(
    "text, value",
    [("ln(x1)", 0.0), ("sqrt(x1)", -1.0), ("1/(x1-x1)", 2.0), ("x1^0.5", -2.0),
     ("exp(x1)", 800.0), ("(x1-x1)^(0-1)", 3.0)],
)
def test_compiled_domain_errors_match_evaluate(text, value):
    node = parse(text)
    with pytest.raises(DomainError) as scalar:
        evaluate(node, {"x1": value})
    with pytest.raises(DomainError) as compiled, np.errstate(all="ignore"):
        plan_value(node, {"x1": np.array([1.0, value, 1.5])})
    assert str(compiled.value) == str(scalar.value)  # names the first bad element
    with pytest.raises(UnboundVariableError):
        plan_value(parse("x1 + x9"), {"x1": np.ones(2)})


def test_compiled_matches_evaluate_on_random_expressions():
    rng = random.Random(77)
    names = ("x1", "x2")
    for _ in range(300):
        node = random_expression(rng, names)
        envs = [random_env(rng, names) for _ in range(8)]
        arrays = {name: np.array([env[name] for env in envs]) for name in names}
        try:
            expected = [evaluate(node, env) for env in envs]
        except DomainError:
            with pytest.raises(DomainError), np.errstate(all="ignore"):
                plan_value(node, arrays)
            continue
        with np.errstate(all="ignore"):
            got = np.broadcast_to(plan_value(node, arrays), (len(envs),))
        scale = max(1.0, max(abs(x) for x in expected))
        assert np.max(np.abs(got - np.array(expected))) <= 64 * np.spacing(scale)


# --- evaluation plans ----------------------------------------------------------

def subexpressions(node):
    """Every subtree of ``node``, shared ones at each occurrence."""
    yield node
    for child in expr._children(node):
        yield from subexpressions(child)


def test_plan_holds_each_distinct_subexpression_once():
    # sin(x1) three times, twice as one object: x1, sin(x1), the product
    # and the sum are the distinct subexpressions
    shared = parse("sin(x1)")
    node = BinaryOp("+", BinaryOp("*", shared, shared), parse("sin(x1)"))
    assert len(expr.Plan([[node]])) == 4
    env = CountingEnv(x1=np.array([0.25, 1.5]))
    value = plan_value(node, env)
    assert env.reads == {"x1": 1}
    assert list(value) == [evaluate(node, {"x1": x}) for x in (0.25, 1.5)]
    # nothing is kept on the node; a constant subtree is a step of its own
    assert "_memo" not in vars(node)
    assert plan_value(parse("2*pi + 1"), {}) == 2 * math.pi + 1
    roots = [parse("2*pi + sin(x1)"), parse("x2*(2*pi) + 1"), parse("sin(x1)")]
    distinct = {repr(sub) for root in roots for sub in subexpressions(root)}
    assert len(expr.Plan([roots[:1], roots[1:]])) == len(distinct)


def test_plan_steps_counts_the_steps_a_run_computes():
    # a run computes a group's steps only when the group is drawn; steps
    # an earlier group computed are not run again
    plan = expr.Plan([[parse("sin(x1)")], [parse("sin(x1) + x2")], [parse("x2*x2")]])
    computed = []
    plan._steps = [
        lambda table, env, step=step: computed.append(step) or step(table, env)
        for step in plan._steps
    ]
    run = plan.run({"x1": 0.5, "x2": 2.0})
    assert plan_steps(plan, 0) == 0
    for groups in (1, 2, 3):
        next(run)
        assert len(computed) == plan_steps(plan, groups)
    assert plan_steps(plan, 1) < plan_steps(plan, 2) < plan_steps(plan, 3) == len(plan) == 5


def test_plan_keeps_literals_apart_by_bit_pattern():
    # -0.0 == 0.0, but the two literals are different subexpressions
    x1 = Variable("x1")
    roots = [BinaryOp("*", x1, Literal(0.0)), BinaryOp("*", x1, Literal(-0.0))]
    got = next(expr.Plan([roots]).run({"x1": np.array([1.0, 2.0])}))
    for node, values in zip(roots, got):
        expected = [evaluate(node, {"x1": x}) for x in (1.0, 2.0)]
        assert [math.copysign(1.0, v) for v in values] == [math.copysign(1.0, v) for v in expected]
    assert list(np.signbit(got[1])) == [True, True]
    # a domain error names the literal it was built from
    failing = FunctionCall("ln", roots[1])
    with pytest.raises(DomainError) as scalar:
        evaluate(failing, {"x1": 1.0})
    with pytest.raises(DomainError) as planned, np.errstate(all="ignore"):
        for _ in expr.Plan([roots[:1], [failing]]).run({"x1": np.array([1.0])}):
            pass
    assert str(planned.value) == str(scalar.value) == "ln of non-positive value -0.0 in 'ln(x1*-0.0)'"


def test_domain_error_through_a_shared_subtree_names_the_evaluate_node():
    # the failing ln(x2 - 0.5) is also a subtree of the second root, as a
    # structurally equal copy; the plan evaluates it once and names it as
    # evaluate does
    roots = [parse("x1 + ln(x2 - 0.5)"), parse("ln(x2 - 0.5)*3")]
    env = {"x1": 0.25, "x2": 0.5}
    with pytest.raises(DomainError) as scalar:
        evaluate(roots[0], env)
    arrays = {name: np.array([0.75, value]) for name, value in env.items()}
    with pytest.raises(DomainError) as planned, np.errstate(all="ignore"):
        next(expr.Plan([roots]).run(arrays))
    assert str(planned.value) == str(scalar.value)
    assert "'ln(x2-0.5)'" in str(planned.value)


def test_groups_run_only_when_asked_for():
    # the second group divides by zero; taking only the first group
    # never evaluates it
    values = expr.Plan([[parse("x1 + 1")], [parse("1/(x1 - x1)")]]).run({"x1": np.ones(3)})
    assert list(next(values)[0]) == [2.0, 2.0, 2.0]
    with pytest.raises(DomainError, match="division by zero"), np.errstate(all="ignore"):
        next(values)


@pytest.mark.parametrize(
    "folded, over_x1, x1",
    [
        ("exp(0.019)", "exp(x1)", 0.019),
        ("exp(0.033)", "exp(x1)", 0.033),
        ("ln(1.009)", "ln(x1)", 1.009),
        ("3.82^3.96", "x1^3.96", 3.82),
        ("sin(pi/8)*exp(0.45)", "sin(pi/8)*exp(x1)", 0.45),
    ],
)
def test_a_folded_constant_has_the_value_a_run_gives(folded, over_x1, x1):
    # math.exp(0.019) is 1.0191816486174081 but NumPy's exp gives
    # 1.019181648617408: a variable-free subexpression runs its node's
    # own array step, so a constant has one value with or without variables
    constant = plan_value(parse(folded), {})
    for env in ({"x1": x1}, {"x1": np.full(5, x1)}):
        values = np.broadcast_to(plan_value(parse(over_x1), env), (5,))
        assert [value.hex() for value in values.tolist()] == [float(constant).hex()] * 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("ln(0)", "ln of non-positive value 0.0 in 'ln(0.0)'"),
        ("1/0", "division by zero in '1.0/0.0'"),
        ("sqrt(-1)", "sqrt of negative value -1.0 in 'sqrt(-1.0)'"),
        ("exp(1000)", "exp(1000.0) overflows in 'exp(1000.0)'"),
        ("(-1)^0.5", "power -1.0^0.5 outside the real domain in '(-1.0)^0.5'"),
        ("1e999", "non-finite result inf in 'inf'"),
    ],
)
def test_a_failing_fold_raises_when_a_run_reaches_it(text, message):
    node = parse(f"x1 + 2*({text})")
    with pytest.raises(DomainError) as scalar:
        evaluate(node, {"x1": 1.0})
    plan = expr.Plan([[parse("x1")], [node]])  # built outside np.errstate: a build runs no step
    values = plan.run({"x1": np.ones(3)})
    assert list(next(values)[0]) == [1.0, 1.0, 1.0]
    with pytest.raises(DomainError) as planned, np.errstate(all="ignore"):
        next(values)
    assert str(planned.value) == str(scalar.value) == message


_LEAVES = ("x1", "x2", "pi", 0.0, -0.0, 0.5, 2.0)


def _build(recipe):
    """A fresh tree from a nested-tuple recipe."""
    if isinstance(recipe, float):
        return Literal(recipe)
    if recipe == "pi":
        return Constant("pi")
    if isinstance(recipe, str):
        return Variable(recipe)
    if len(recipe) == 2:
        name, argument = recipe
        argument = _build(argument)
        return Negate(argument) if name == "neg" else FunctionCall(name, argument)
    op, left, right = recipe
    return BinaryOp(op, _build(left), _build(right))


_RECIPES = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("neg", "sin", "cos", "exp", "ln", "sqrt")), inner),
        st.tuples(st.sampled_from(("+", "-", "*", "/", "^")), inner, inner),
    ),
    max_leaves=6,
)


@st.composite
def shared_forests(draw):
    """Roots over a pool of subtrees, each use of a pool entry either the
    pool's own object or a structurally equal copy."""
    pool = draw(st.lists(_RECIPES, min_size=1, max_size=4))
    nodes = [_build(recipe) for recipe in pool]

    def use(index):
        return nodes[index] if draw(st.booleans()) else _build(pool[index])

    indices = st.integers(0, len(pool) - 1)
    roots = [use(draw(indices)) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("+", "-", "*", "/")))
        roots.append(BinaryOp(op, use(draw(indices)), use(draw(indices))))
    return roots


def rounding_bound(node, env) -> float:
    """A first-order bound on how far ``node`` at ``env``, computed with
    every operation rounded to within one unit in the last place, may
    stray from the exact value: each operation's own unit plus its
    operands' bounds through its partial derivatives (running error
    analysis)."""
    if isinstance(node, (Literal, Constant, Variable)):
        return 0.0
    value = evaluate(node, env)
    children = expr._children(node)
    args = [evaluate(child, env) for child in children]
    bounds = [rounding_bound(child, env) for child in children]
    if math.inf in bounds:
        return math.inf
    if isinstance(node, Negate) or isinstance(node, FunctionCall) and node.name in ("sin", "cos"):
        propagated = bounds[0]
    elif isinstance(node, FunctionCall):
        (arg,), (bound,) = args, bounds
        if node.name == "exp":
            propagated = abs(value) * bound
        elif node.name == "ln":
            propagated = bound / abs(arg)
        else:  # sqrt
            propagated = 0.5 * bound / value if value else math.inf
    else:
        (left, right), (left_bound, right_bound) = args, bounds
        if node.op in ("+", "-"):
            propagated = left_bound + right_bound
        elif node.op == "*":
            propagated = abs(right) * left_bound + abs(left) * right_bound
        elif node.op == "/":
            propagated = (left_bound + abs(value) * right_bound) / abs(right)
        elif left == 0.0:
            propagated = math.inf if left_bound or right_bound else 0.0
        else:
            propagated = abs(value) * (
                abs(right / left) * left_bound + abs(math.log(abs(left))) * right_bound
            )
    return propagated + float(np.spacing(abs(value)))


def _outcome(run):
    """The values ``run()`` returns as bit patterns, or its error."""
    try:
        with np.errstate(all="ignore"):
            return [np.broadcast_to(value, (3,)).tobytes() for value in run()]
    except DomainError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(shared_forests(), st.lists(st.floats(0.1, 2.0), min_size=6, max_size=6))
def test_plan_of_many_roots_matches_one_root_plans_and_evaluate(roots, coordinates):
    arrays = {"x1": np.array(coordinates[:3]), "x2": np.array(coordinates[3:])}
    together = _outcome(lambda: next(expr.Plan([roots]).run(arrays)))
    apart = []
    for root in roots:
        one = _outcome(lambda: [plan_value(root, arrays)])
        if isinstance(one, str):
            apart = one  # the first root to fail decides
            break
        apart += one
    assert together == apart
    if isinstance(together, str):
        return
    with np.errstate(all="ignore"):
        values = next(expr.Plan([roots]).run(arrays))
    assert all(np.isfinite(value).all() for value in values)
    for index in range(3):
        env = {name: float(column[index]) for name, column in arrays.items()}
        for root, value in zip(roots, values):
            try:
                expected = evaluate(root, env)
            except DomainError:
                continue  # NumPy's exp and log may round differently from math's
            got = float(np.broadcast_to(value, (3,))[index])
            assert abs(got - expected) <= ULP_BOUND * rounding_bound(root, env)


# --- differentiation ---------------------------------------------------------

def test_derivative_chain_rule_pointwise():
    node = parse("cos(2*pi*x2)")
    derivative = differentiate(node, "x2")
    for y in (0.0, 0.1, 0.37, 0.8):
        expected = -2 * math.pi * math.sin(2 * math.pi * y)
        assert abs(evaluate(derivative, {"x2": y}) - expected) < 1e-12


def test_derivative_independent_variable_is_zero():
    derivative = differentiate(parse("cos(2*pi*x2)"), "x1")
    assert expr.variables(derivative) == frozenset()
    assert evaluate(derivative, {"x2": 0.3}) == 0.0


def test_derivative_of_exp_composition():
    node = parse("exp(0.3*sin(2*pi*x2))")
    derivative = differentiate(node, "x2")
    value = evaluate(derivative, {"x2": 0.0})
    assert abs(value - 0.6 * math.pi) < 1e-12
    oracle = central_difference(node, "x2", {"x2": 0.0})
    assert abs(value - oracle) <= 1e-6 * (1 + abs(value))


def test_derivative_power_rule():
    derivative = differentiate(parse("x1^3"), "x1")
    for x in (0.5, 1.0, 2.5):
        assert abs(evaluate(derivative, {"x1": x}) - 3 * x * x) < 1e-12
    fractional = differentiate(parse("(1+x1)^2.5"), "x1")
    oracle = central_difference(parse("(1+x1)^2.5"), "x1", {"x1": 1.3})
    value = evaluate(fractional, {"x1": 1.3})
    assert abs(value - oracle) <= 1e-6 * (1 + abs(value))


def test_general_power_rejected():
    with pytest.raises(DifferentiationError):
        differentiate(parse("x1^x2"), "x2")
    with pytest.raises(DifferentiationError):
        differentiate(parse("e^x1"), "x1")
    # exponent free of the variable is the power rule, still fine
    derivative = differentiate(parse("x1^x2"), "x1")
    assert abs(evaluate(derivative, {"x1": 2.0, "x2": 3.0}) - 3 * 4.0) < 1e-12


def test_derivative_vs_central_difference_random():
    rng = random.Random(20260810)
    names = ("x1", "x2")
    checked = 0
    while checked < 50:
        node = random_expression(rng, names)
        env = random_env(rng, names)
        try:
            derivative = differentiate(node, "x1")
            value = evaluate(derivative, env)
            oracle = central_difference(node, "x1", env)
        except (DomainError, DifferentiationError):
            continue
        if not (math.isfinite(value) and math.isfinite(oracle)):
            continue
        assert abs(value - oracle) <= 1e-6 * (1 + abs(value)), to_string(node)
        checked += 1


def test_derivative_linearity():
    rng = random.Random(7)
    names = ("x1", "x2")
    for _ in range(25):
        e1 = random_expression(rng, names)
        e2 = random_expression(rng, names)
        a = round(rng.uniform(-3, 3), 3)
        combined = expr.add(expr.mul(Literal(a), e1), e2)
        try:
            left = differentiate(combined, "x2")
            d1 = differentiate(e1, "x2")
            d2 = differentiate(e2, "x2")
        except DifferentiationError:
            continue
        env = random_env(rng, names)
        try:
            lhs = evaluate(left, env)
            rhs = a * evaluate(d1, env) + evaluate(d2, env)
        except DomainError:
            continue
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def unshortcut_derivative(node, var):
    """The derivative rules of ``expr.differentiate`` as they read without
    the shortcut on a literal zero inner derivative: every factor is
    built, and the folding constructors fold it away."""
    kind = type(node)
    if kind is Variable:
        return expr.ONE if node.name == var else expr.ZERO
    if kind in (Literal, Constant):
        return expr.ZERO
    if kind is Negate:
        return expr.neg(unshortcut_derivative(node.operand, var))
    if kind is BinaryOp:
        if node.op == "^":
            if var in expr.variables(node.right):
                raise DifferentiationError("exponent depends on the variable")
            lowered = BinaryOp("^", node.left, expr.sub(node.right, expr.ONE))
            return expr.mul(expr.mul(node.right, lowered), unshortcut_derivative(node.left, var))
        dl, dr = unshortcut_derivative(node.left, var), unshortcut_derivative(node.right, var)
        if node.op == "+":
            return expr.add(dl, dr)
        if node.op == "-":
            return expr.sub(dl, dr)
        if node.op == "*":
            return expr.add(expr.mul(dl, node.right), expr.mul(node.left, dr))
        numerator = expr.sub(expr.mul(dl, node.right), expr.mul(node.left, dr))
        return expr.div(numerator, expr.mul(node.right, node.right))
    inner, u = unshortcut_derivative(node.argument, var), node.argument
    return {
        "sin": lambda: expr.mul(FunctionCall("cos", u), inner),
        "cos": lambda: expr.neg(expr.mul(FunctionCall("sin", u), inner)),
        "exp": lambda: expr.mul(FunctionCall("exp", u), inner),
        "ln": lambda: expr.div(inner, u),
        "sqrt": lambda: expr.div(inner, expr.mul(expr.TWO, FunctionCall("sqrt", u))),
    }[node.name]()


def tree_key(node):
    """``node`` as nested tuples, each literal by its type and bits, so
    that -0.0 and 0.0 differ."""
    kind = type(node)
    if kind is Literal:
        return (kind.__name__, type(node.value).__name__, float(node.value).hex())
    children = [getattr(node, name) for name in ("operand", "left", "right", "argument") if hasattr(node, name)]
    own = [getattr(node, name) for name in ("name", "op") if hasattr(node, name)]
    return (kind.__name__, *own, *map(tree_key, children))


def wrapped_expression(rng, names):
    """A ``random_expression``, some of its subtrees under ln, sqrt or a
    power whose base is free of a variable."""
    node = random_expression(rng, names)
    for _ in range(rng.randint(0, 3)):
        choice = rng.random()
        if choice < 0.3:
            node = FunctionCall(rng.choice(("ln", "sqrt")), node)
        elif choice < 0.5:
            node = BinaryOp("^", FunctionCall("cos", Literal(rng.choice((0.5, 2.0)))), node)
        elif choice < 0.8:
            node = BinaryOp(rng.choice(("*", "/", "+")), node, random_expression(rng, names))
        else:
            node = FunctionCall(rng.choice(("sin", "cos", "exp")), node)
    return node


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("x1", "x2", "x3")))
def test_a_zero_inner_derivative_folds_as_the_rules_do(seed, var):
    # x3 appears in no drawn tree, so every inner derivative is zero
    node = wrapped_expression(random.Random(seed), ("x1", "x2"))
    try:
        expected = unshortcut_derivative(node, var)
    except DifferentiationError:
        with pytest.raises(DifferentiationError):
            differentiate(node, var)
        return
    assert tree_key(differentiate(node, var)) == tree_key(expected)


def test_a_zero_inner_derivative_builds_no_factor(monkeypatch):
    built = []
    for kind in (BinaryOp, FunctionCall):
        monkeypatch.setattr(kind, "__init__", lambda self, *args, build=kind.__init__: (
            built.append(type(self)), build(self, *args))[1])
    for text, folded in [("sin(x2)", "0x0.0p+0"), ("cos(x2)", "-0x0.0p+0"), ("exp(x2)", "0x0.0p+0"),
                         ("ln(x2)", "0x0.0p+0"), ("sqrt(x2)", "0x0.0p+0"), ("x2^3", "0x0.0p+0"),
                         ("1/x2", "0x0.0p+0"), ("cos(2)", "-0x0.0p+0")]:
        node = parse(text)
        built.clear()
        derivative = differentiate(node, "x1")
        assert type(derivative) is Literal and derivative.value.hex() == folded, text
        assert built == [], text
    # x1^x2 still refuses the exponent before looking at the base
    with pytest.raises(DifferentiationError):
        differentiate(parse("x1^x2"), "x2")


# --- printing / round-trip -----------------------------------------------------

@st.composite
def expressions(draw, depth=0):
    if depth >= 4:
        branch = draw(st.integers(0, 2))
    else:
        branch = draw(st.integers(0, 6))
    if branch == 0:
        return Literal(draw(st.floats(0.0, 100.0, allow_nan=False)))
    if branch == 1:
        return Variable(draw(st.sampled_from(("x1", "x2", "a_param"))))
    if branch == 2:
        return Constant(draw(st.sampled_from(("pi", "e"))))
    if branch == 3:
        return Negate(draw(expressions(depth=depth + 1)))
    if branch == 4:
        return BinaryOp(
            draw(st.sampled_from(("+", "-", "*", "/", "^"))),
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)),
        )
    return FunctionCall(
        draw(st.sampled_from(("sin", "cos", "exp", "ln", "sqrt"))),
        draw(expressions(depth=depth + 1)),
    )


@settings(max_examples=150, deadline=None)
@given(expressions(), st.integers(0, 10**6))
def test_print_parse_round_trip(node, env_seed):
    reparsed = parse(to_string(node))
    rng = random.Random(env_seed)
    env = {name: rng.uniform(0.1, 3.0) for name in ("x1", "x2", "a_param")}
    try:
        original = evaluate(node, env)
    except DomainError:
        assume(False)
    assume(math.isfinite(original))
    # identical tree modulo negative-literal spelling, so evaluation is
    # bit-identical, well inside the documented 1e-12 relative bound
    assert evaluate(reparsed, env) == original


def test_round_trip_batch_of_200():
    rng = random.Random(13)
    names = ("x1", "x2", "y")
    count = 0
    while count < 200:
        node = random_expression(rng, names)
        reparsed = parse(to_string(node))
        agreed = 0
        for _ in range(5):
            env = random_env(rng, names)
            try:
                original = evaluate(node, env)
                again = evaluate(reparsed, env)
            except DomainError:
                continue
            assert abs(again - original) <= 1e-12 * (1 + abs(original))
            agreed += 1
        if agreed:
            count += 1


def test_to_string_examples():
    assert to_string(parse("1+2*3")) == "1.0+2.0*3.0"
    assert to_string(parse("-(x1+1)^2")) == "-(x1+1.0)^2.0"
    assert to_string(parse("cos(2*pi*x2)")) == "cos(2.0*pi*x2)"
