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

from generators import random_env, random_expression


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
        expr.compile(node)({name: np.array([value, 0.5]) for name, value in env.items()})


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
        expr.compile(node)({"x1": np.array([1.0, value, 1.5])})
    assert str(compiled.value) == str(scalar.value)  # names the first bad element
    with pytest.raises(UnboundVariableError):
        expr.compile(parse("x1 + x9"))({"x1": np.ones(2)})


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
                expr.compile(node)(arrays)
            continue
        with np.errstate(all="ignore"):
            got = np.broadcast_to(expr.compile(node)(arrays), (len(envs),))
        scale = max(1.0, max(abs(x) for x in expected))
        assert np.max(np.abs(got - np.array(expected))) <= 64 * np.spacing(scale)


def test_compile_is_built_once_per_node():
    node = parse("sin(x1) + 2*pi")
    assert expr.compile(node) is expr.compile(node)
    assert expr.compile(parse("2*pi + 1")).value == 2 * math.pi + 1  # folded


# --- differentiation ---------------------------------------------------------

def test_derivative_chain_rule_pointwise():
    node = parse("cos(2*pi*x2)")
    derivative = differentiate(node, "x2")
    for y in (0.0, 0.1, 0.37, 0.8):
        expected = -2 * math.pi * math.sin(2 * math.pi * y)
        assert abs(evaluate(derivative, {"x2": y}) - expected) < 1e-12


def test_derivative_independent_variable_is_zero():
    derivative = differentiate(parse("cos(2*pi*x2)"), "x1")
    assert expr.is_constant(derivative)
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
