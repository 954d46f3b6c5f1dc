"""Acceptance suite: the three worked examples and the identity suites.

Every criterion asserts its stated tolerance and prints one pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

import transdiv as td
from transdiv import expr
from transdiv.tautness import TautnessClass

from generators import (
    at, grid_points, identity_cases, point_env, point_tuples, projected, random_field,
)
from test_expr import central_difference
from test_tautness import substitute

LAMBDA_SMALL = (3 - math.sqrt(5)) / 2
LAMBDA_BIG = (3 + math.sqrt(5)) / 2
LOG_SMALL = math.log(LAMBDA_SMALL)
LOG_BIG = math.log(LAMBDA_BIG)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_hyperbolic_torus_flow():
    started = time.perf_counter()
    model, split = td.load_model(td.build_suspension(((2, 1), (1, 1)), leaf_index=2))
    gamma = td.christoffel(model, ())
    checks = [
        abs(gamma[2, 2, 0] - LOG_BIG) <= 1e-12,
        abs(gamma[1, 0, 1] - (-LOG_SMALL)) <= 1e-12,
        abs(gamma[0, 0, 0]) <= 1e-12,
        abs(gamma[2, 2, 1]) <= 1e-12,
        abs(gamma[0, 1, 0]) <= 1e-12,
    ]
    tau = td.alvarez_candidate(model, split)
    env = dict(model.parameters)
    tau_values = [td.evaluate(c, env) for c in tau.components]
    checks.append(abs(tau_values[0] - LOG_BIG) <= 1e-12)
    checks.append(tau_values[1] == 0.0 and tau_values[2] == 0.0)
    divergence = td.transverse_divergence(model, split, tau, ())
    norm_squared = sum(v * v for v in tau_values)
    checks.append(abs(divergence - LOG_SMALL**2) <= 1e-12)
    checks.append(abs(divergence - norm_squared) <= 1e-12)
    verdict = td.classify_divergence(model, split, tau, td.sample_grid(model, 1))
    checks.append(verdict.classification is TautnessClass.NON_TAUT_WITNESS)
    elapsed = time.perf_counter() - started
    checks.append(elapsed < 1.0)
    _report(
        1,
        all(checks),
        f"connection table, tau and div^Q tau = (ln lambda_1)^2 = "
        f"{divergence:.12g} reproduced in {elapsed:.3f}s",
    )


def test_criterion_2_zero_divergence_field():
    model, split = td.load_model(td.build_suspension(((2, 1), (1, 1)), leaf_index=2))
    field = td.vector_field([0, 1, 0], model)
    value = td.transverse_divergence(model, split, field, ())
    verdict = td.classify_divergence(model, split, field, td.sample_grid(model, 1))
    passed = value == 0.0 and verdict.classification is TautnessClass.IDENTICALLY_ZERO
    _report(2, passed, f"div^Q E2 = {value!r} exactly, verdict IdenticallyZero")


def test_criterion_3_codimension_three_suspension():
    started = time.perf_counter()
    matrix = ((2, 0, -1), (0, 3, -1), (-1, -1, 1))
    coefficients = td.char_poly(matrix)
    checks = [coefficients == (-1, 6, -9, 1)]
    roots = td.validate_suspension_matrix(matrix).roots
    checks.append(tuple(root.enclosure for root in roots) == ((0, 1), (2, 3), (3, 4)))
    product = 1.0
    for root in roots:
        product *= root.value
    checks.append(abs(product - 1.0) <= 1e-12)
    model, split = td.load_model(td.build_suspension(matrix, leaf_index=2))
    tau = td.alvarez_candidate(model, split)
    divergence = td.transverse_divergence(model, split, tau, ())
    l1, l2, l3 = (math.log(root.value) for root in roots)
    checks.append(abs(divergence - (-l2 * (l1 + l3))) <= 1e-10)
    checks.append(abs(divergence - l2**2) <= 1e-10)
    checks.append(abs((-l2 * (l1 + l3)) - l2**2) <= 1e-10)
    verdict = td.classify_divergence(model, split, tau, td.sample_grid(model, 1))
    checks.append(verdict.classification is TautnessClass.NON_TAUT_WITNESS)
    elapsed = time.perf_counter() - started
    checks.append(elapsed < 1.0)
    _report(
        3,
        all(checks),
        f"char poly -x^3+6x^2-9x+1, enclosures (0,1),(2,3),(3,4), "
        f"div^Q tau = (ln lambda_2)^2 = {divergence:.12g} in {elapsed:.3f}s",
    )


def test_criterion_4_warped_torus():
    started = time.perf_counter()
    model, split = td.builtin_model("torus-warped")
    grid = td.sample_grid(model, (1, 64))
    constant = td.vector_field(["0", "0.7"], model)
    verdict_constant = td.classify_divergence(model, split, constant, grid)
    checks = [verdict_constant.classification is TautnessClass.IDENTICALLY_ZERO]

    cosine = td.vector_field(["0", "cos(2*pi*x2)"], model)
    verdict_cosine = td.classify_divergence(model, split, cosine, grid)
    checks.append(verdict_cosine.classification is TautnessClass.MIXED_SIGN)
    worst = max(
        abs(
            td.transverse_divergence(model, split, cosine, point)
            - (-2 * math.pi * math.sin(2 * math.pi * point[1]))
        )
        for point in point_tuples(grid)
    )
    checks.append(worst <= 1e-10)

    quadrature = td.green_check(model, split, cosine, (16, 256))
    checks.append(quadrature.abs_error <= 1e-10)
    elapsed = time.perf_counter() - started
    checks.append(elapsed < 5.0)
    _report(
        4,
        all(checks),
        f"constant phi IdenticallyZero, cosine MixedSign "
        f"(pointwise defect {worst:.2e}), Green error "
        f"{quadrature.abs_error:.2e} at 16x256, in {elapsed:.3f}s",
    )


def test_criterion_5_identity_suites():
    cases = identity_cases(seed=505, count=20)
    worst_skew = worst_torsion = worst_eq4 = worst_eq3 = worst_jacobi = 0.0
    for index, (model, split) in enumerate(cases):
        rng = random.Random(9000 + index)
        field = random_field(rng, model, split, transverse_only=True)
        for point in grid_points(model, count=20):
            table = td.structure_functions(model, point)
            gamma = td.christoffel(model, point)
            worst_skew = max(
                worst_skew, float(np.max(np.abs(gamma + gamma.transpose((0, 2, 1)))))
            )
            worst_torsion = max(
                worst_torsion,
                float(np.max(np.abs(gamma - gamma.transpose((1, 0, 2)) - table))),
            )
            env = point_env(model, point)
            comps = np.array([td.evaluate(c, env) for c in field.components])
            kappa = td.mean_curvature(model, split.leaf_ordered, point)
            div_q = td.transverse_divergence(model, split, field, point)
            div_full = at(model, point, lambda block: block.divergence(range(model.dim)), field)
            div_leaf = at(model, point, lambda block: block.divergence(split.leaf_ordered), field)
            worst_eq4 = max(
                worst_eq4, abs(div_q - (div_full + float(comps @ kappa)))
            )
            worst_eq3 = max(worst_eq3, abs(div_leaf + float(comps @ kappa)))
        if not model.is_chart:
            report = td.validate_model(model, split, td.sample_grid(model, 1))
            jacobi = [c for c in report if c.name == "jacobi_identity"][0]
            worst_jacobi = max(worst_jacobi, jacobi.worst)
    passed = (
        worst_skew <= 1e-12
        and worst_torsion <= 1e-12
        and worst_eq4 <= 1e-10
        and worst_eq3 <= 1e-10
        and worst_jacobi <= 1e-12
    )
    _report(
        5,
        passed,
        f"20 models x 20 points: skew {worst_skew:.2e}, torsion "
        f"{worst_torsion:.2e}, divergence decomposition {worst_eq4:.2e}, "
        f"perpendicular identity {worst_eq3:.2e}, Jacobi {worst_jacobi:.2e}",
    )


def test_criterion_6_covering_suite():
    model, split = td.builtin_model("torus-warped")
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    worst = 0.0
    for fold in (1, 2, 3):
        lifted = td.lift_to_cover(model, 1, fold)
        grid = td.sample_grid(lifted, (2, 16 * fold))
        for point in point_tuples(grid):
            down = projected(point, 1, model.periods[1])
            worst = max(
                worst,
                abs(
                    td.transverse_divergence(lifted, split, field, point)
                    - td.transverse_divergence(model, split, field, down)
                ),
            )
    # deck-summed field, projected down: explicit finite-sum construction
    fold = 3
    averaged = td.vector_field(
        [
            expr.div(
                expr.add(
                    expr.add(
                        substitute(c, "x2", expr.add(expr.Variable("x2"), expr.Literal(0.0))),
                        substitute(c, "x2", expr.add(expr.Variable("x2"), expr.Literal(1.0))),
                    ),
                    substitute(c, "x2", expr.add(expr.Variable("x2"), expr.Literal(2.0))),
                ),
                expr.Literal(3.0),
            )
            for c in field.components
        ],
        model,
    )
    grid = td.sample_grid(model, (1, 48))
    base_verdict = td.classify_divergence(model, split, field, grid)
    averaged_verdict = td.classify_divergence(model, split, averaged, grid)
    same_class = averaged_verdict.classification is base_verdict.classification
    passed = worst <= 1e-12 and same_class
    _report(
        6,
        passed,
        f"cover equivariance for k in (1,2,3): max defect {worst:.2e}; "
        f"deck-summed field keeps verdict {base_verdict.classification.value}",
    )


def test_criterion_7_dense_leaves_suite():
    model, split = td.builtin_model("flat-kronecker")
    grid = td.sample_grid(model, 8)
    results = []
    for components in (["0", "1"], ["0", "5"], ["0", "-2.5"], ["1", "3"]):
        field = td.vector_field(components, model)
        report = td.volume_preservation_check(model, split, field, grid)
        results.append(report.preserved and report.applicable)
    _report(
        7,
        all(results),
        "flat dense-leaved flow preserves the transverse volume form for "
        "constant basic fields and their scalings",
    )


def test_criterion_8_parser_suite():
    from generators import random_env, random_expression

    rng = random.Random(808)
    names = ("x1", "x2", "t")
    round_trip_count = 0
    worst_relative = 0.0
    while round_trip_count < 200:
        node = random_expression(rng, names)
        reparsed = td.parse(td.to_string(node))
        compared = 0
        for _ in range(5):
            env = random_env(rng, names)
            try:
                original = td.evaluate(node, env)
                again = td.evaluate(reparsed, env)
            except expr.DomainError:
                continue
            relative = abs(again - original) / (1 + abs(original))
            worst_relative = max(worst_relative, relative)
            compared += 1
        if compared:
            round_trip_count += 1
    round_trip_ok = worst_relative <= 1e-12

    # symbolic vs central difference on every expression the builtins use
    nodes: list[expr.Expr] = []
    for name in td.BUILTIN_NAMES:
        model, split = td.builtin_model(name)
        if model.is_chart:
            nodes.extend(entry for row in model.frame for entry in row)
            nodes.extend(td.alvarez_candidate(model, split).components)
    worst_derivative = 0.0
    for node in nodes:
        for var in ("x1", "x2"):
            derivative = td.differentiate(node, var)
            for _ in range(10):
                env = {"x1": rng.uniform(0.05, 0.95), "x2": rng.uniform(0.05, 0.95)}
                value = td.evaluate(derivative, env)
                oracle = central_difference(node, var, env)
                worst_derivative = max(
                    worst_derivative, abs(value - oracle) / (1 + abs(value))
                )
    derivative_ok = worst_derivative <= 1e-6
    _report(
        8,
        round_trip_ok and derivative_ok,
        f"200 round-trips (worst relative defect {worst_relative:.2e}); "
        f"builtin-expression derivatives vs central differences "
        f"(worst {worst_derivative:.2e})",
    )
