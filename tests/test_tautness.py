"""Verdict classification, candidate fields, quadrature, covers."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.tautness import TautnessClass

from generators import random_admissible_matrix

LOG_BIG = math.log((3 + math.sqrt(5)) / 2)


@pytest.fixture(scope="module")
def t3a():
    return td.builtin_model("t3a")


@pytest.fixture(scope="module")
def torus():
    return td.builtin_model("torus-warped")


@pytest.fixture(scope="module")
def kronecker():
    return td.builtin_model("flat-kronecker")


def scale_field(field, factor):
    return td.VectorFieldSpec(
        components=tuple(expr.mul(expr.Literal(factor), c) for c in field.components)
    )


def substitute(node, name, replacement):
    """Replace a variable by an expression (test-local helper)."""
    if isinstance(node, expr.Variable) and node.name == name:
        return replacement
    if isinstance(node, expr.Negate):
        return expr.Negate(substitute(node.operand, name, replacement))
    if isinstance(node, expr.BinaryOp):
        return expr.BinaryOp(
            node.op,
            substitute(node.left, name, replacement),
            substitute(node.right, name, replacement),
        )
    if isinstance(node, expr.FunctionCall):
        return expr.FunctionCall(node.name, substitute(node.argument, name, replacement))
    return node


# --- classification ---------------------------------------------------------------

def test_classify_t3a_witness(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    verdict = td.classify_divergence(model, split, tau, td.sample_grid(model, 1))
    assert verdict.classification is TautnessClass.NON_TAUT_WITNESS
    assert abs(verdict.max_value - LOG_BIG**2) < 1e-12
    assert abs(verdict.min_value - verdict.max_value) < 1e-15
    assert "not proof" in verdict.epistemic_status


def test_classify_torus_mixed(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    grid = td.sample_grid(model, (1, 64))
    verdict = td.classify_divergence(model, split, field, grid)
    assert verdict.classification is TautnessClass.MIXED_SIGN
    for point in grid.points:
        value = td.transverse_divergence(model, split, field, point)
        assert abs(value - (-2 * math.pi * math.sin(2 * math.pi * point[1]))) <= 1e-10
    assert "consistent with tautness" in verdict.epistemic_status


def test_classify_torus_constant_zero(torus):
    model, split = torus
    field = td.vector_field(["0", "0.75"], model)
    verdict = td.classify_divergence(model, split, field, td.sample_grid(model, (1, 64)))
    assert verdict.classification is TautnessClass.IDENTICALLY_ZERO


def test_classify_t3a_e2_zero(t3a):
    model, split = t3a
    field = td.vector_field([0, 1, 0], model)
    verdict = td.classify_divergence(model, split, field, td.sample_grid(model, 1))
    assert verdict.classification is TautnessClass.IDENTICALLY_ZERO
    assert td.transverse_divergence(model, split, field, ()) == 0.0


def test_classify_rejects_non_basic(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x1)"], model)
    with pytest.raises(td.NotBasicError) as info:
        td.classify_divergence(model, split, field, td.sample_grid(model, 16))
    assert info.value.check.max_residual > 0


def test_non_finite_values_are_refused():
    # finite structure constants and field, but v^j Gamma_ij^k overflows
    model = td.constant_structure_model("huge", 3, [(0, 1, 2, 1e300)])
    split = td.foliation_split(3, {2})
    field = td.vector_field([1e300, 1e300, 0], model)
    grid = td.sample_grid(model, 1)
    with pytest.raises(td.DomainError, match="non-finite"):
        td.classify_divergence(model, split, field, grid)
    with pytest.raises(td.DomainError, match="non-finite"):
        td.check_basic(model, split, field, grid)
    with pytest.raises(td.DomainError, match="non-finite"):
        td.model.basic_field_check(np.array([0.0, math.nan]), grid.points * 2)


def test_nan_field_is_refused_not_classified(torus):
    # inf - inf: once classified MixedSign with min inf and max -inf
    model, split = torus
    field = td.vector_field(["0", "1e200*1e200*x2 - 1e200*1e200*x2"], model)
    with pytest.raises(td.DomainError):
        td.classify_divergence(model, split, field, td.sample_grid(model, 4))


def test_classify_empty_grid_inconclusive(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    empty = td.Grid(resolution=(), points=())
    verdict = td.classify_divergence(model, split, tau, empty)
    assert verdict.classification is TautnessClass.INCONCLUSIVE


def test_negated_witness(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    verdict = td.classify_divergence(
        model, split, scale_field(tau, -1.0), td.sample_grid(model, 1)
    )
    assert verdict.classification is TautnessClass.NEGATED_NON_TAUT_WITNESS


@pytest.mark.parametrize("factor", [2.5, 0.1, -1.0, -3.0])
def test_verdict_scale_invariance(t3a, torus, factor):
    grids = {}
    cases = []
    model, split = t3a
    cases.append((model, split, td.alvarez_candidate(model, split)))
    cases.append((model, split, td.vector_field([0, 1, 0], model)))
    model2, split2 = torus
    cases.append((model2, split2, td.vector_field(["0", "cos(2*pi*x2)"], model2)))
    for model, split, field in cases:
        grid = grids.setdefault(
            model.name,
            td.sample_grid(model, 1 if not model.is_chart else (1, 32)),
        )
        base = td.classify_divergence(model, split, field, grid)
        scaled = td.classify_divergence(model, split, scale_field(field, factor), grid)
        if factor > 0:
            assert scaled.classification is base.classification
            assert abs(scaled.max_value - factor * base.max_value) < 1e-9
        else:
            flips = {
                TautnessClass.NON_TAUT_WITNESS: TautnessClass.NEGATED_NON_TAUT_WITNESS,
                TautnessClass.NEGATED_NON_TAUT_WITNESS: TautnessClass.NON_TAUT_WITNESS,
            }
            expected = flips.get(base.classification, base.classification)
            assert scaled.classification is expected


# --- the mean-curvature candidate ----------------------------------------------------

def test_alvarez_candidate_t3a(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    env = dict(model.parameters)
    values = [td.evaluate(c, env) for c in tau.components]
    assert abs(values[0] - LOG_BIG) < 1e-12
    assert values[1] == values[2] == 0.0


def test_alvarez_candidate_torus(torus):
    model, split = torus
    candidate = td.alvarez_candidate(model, split)
    for y in (0.0, 0.25, 0.8):
        env = {"x1": 0.5, "x2": y}
        slope = 0.3 * 2 * math.pi * math.cos(2 * math.pi * y)
        assert td.evaluate(candidate.components[0], env) == 0.0
        assert abs(td.evaluate(candidate.components[1], env) - (-slope)) < 1e-12


def test_alvarez_candidate_flat_zero(kronecker):
    model, split = kronecker
    candidate = td.alvarez_candidate(model, split)
    env = {"x1": 0.3, "x2": 0.6}
    assert all(td.evaluate(c, env) == 0.0 for c in candidate.components)


def test_alvarez_rejects_nonbasic_mean_curvature():
    # a warp varying along the leaves makes kappa# = -f_y(x, y) E2
    # leafwise-dependent, so the candidate must be refused
    model = td.chart_model(
        "leafwise-warp",
        (1.0, 1.0),
        [["exp(-(0.3*sin(2*pi*x1)*sin(2*pi*x2)))", "0"], ["0", "1"]],
    )
    split = td.foliation_split(2, {0})
    with pytest.raises(td.NotBasicError, match="mean curvature not basic"):
        td.alvarez_candidate(model, split)


# --- Green-formula quadrature ---------------------------------------------------------

def test_green_torus_cosine(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    report = td.green_check(model, split, field, (16, 256))
    assert report.abs_error <= 1e-10


def test_green_zero_field(torus):
    model, split = torus
    report = td.green_check(model, split, td.vector_field(["0", "0"], model), (4, 16))
    assert report.lhs == 0.0
    assert report.rhs == 0.0


def test_green_flat_constant(kronecker):
    model, split = kronecker
    report = td.green_check(model, split, td.vector_field(["0", "2"], model), (8, 8))
    assert abs(report.lhs) < 1e-14
    assert abs(report.rhs) < 1e-14


def test_green_density_closed_form(torus):
    model, _ = torus
    for y in (0.1, 0.35, 0.9):
        a = td.model.frame_matrix(model, (0.2, y))
        det = abs(float(np.linalg.det(a)))
        warp = 0.3 * math.sin(2 * math.pi * y)
        assert abs(1.0 / det - math.exp(warp)) < 1e-12


def test_green_spectral_convergence(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    errors = []
    for resolution in (32, 64, 256):
        report = td.green_check(model, split, field, (2, resolution))
        errors.append(report.abs_error)
    assert errors[-1] <= 1e-10
    assert errors[-1] <= errors[0] + 1e-15


def test_green_needs_chart(t3a):
    model, split = t3a
    with pytest.raises(td.ModelError):
        td.green_check(model, split, td.vector_field([1, 0, 0], model), 4)


def test_green_rejects_non_basic(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x1)"], model)
    with pytest.raises(td.NotBasicError):
        td.green_check(model, split, field, (8, 8))


# --- volume preservation ---------------------------------------------------------------

def test_volume_flat_constant(kronecker):
    model, split = kronecker
    grid = td.sample_grid(model, 8)
    field = td.vector_field(["0", "1"], model)
    report = td.volume_preservation_check(model, split, field, grid)
    assert report.preserved
    assert report.applicable


def test_volume_flat_scaled(kronecker):
    model, split = kronecker
    grid = td.sample_grid(model, 8)
    field = td.vector_field(["0", "5"], model)
    report = td.volume_preservation_check(model, split, field, grid)
    assert report.preserved


def test_volume_torus_inapplicable(torus):
    model, split = torus
    grid = td.sample_grid(model, (1, 64))
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    report = td.volume_preservation_check(model, split, field, grid)
    assert not report.preserved
    assert not report.applicable
    assert "not asserted" in report.note


# --- finite covers ----------------------------------------------------------------------

def test_lift_pointwise_match(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    lifted, lifted_split, lifted_field = td.lift_to_cover(model, split, field, 1, 3)
    up = td.transverse_divergence(lifted, lifted_split, lifted_field, (0.2, 1.25))
    down = td.transverse_divergence(model, split, field, (0.2, 0.25))
    assert abs(up - down) <= 1e-12


def test_identity_cover_unchanged(torus):
    model, split = torus
    field = td.vector_field(["0", "1"], model)
    same_model, same_split, same_field = td.lift_to_cover(model, split, field, 1, 1)
    assert same_model is model
    assert same_split is split
    assert same_field is field


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_cover_equivariance(torus, fold):
    model, split = torus
    fields = [
        td.vector_field(["0", "cos(2*pi*x2)"], model),
        td.vector_field(["0", "0.6"], model),
        td.alvarez_candidate(model, split),
    ]
    for field in fields:
        lifted, lsplit, lfield = td.lift_to_cover(model, split, field, 1, fold)
        grid = td.sample_grid(lifted, (2, 16 * fold))
        for point in grid.points:
            down = td.covering_projection(lifted, point)
            difference = abs(
                td.transverse_divergence(lifted, lsplit, lfield, point)
                - td.transverse_divergence(model, split, field, down)
            )
            assert difference <= 1e-12


def test_deck_average_projects_to_same_verdict(torus):
    # averaging the lifted field over the deck translates and projecting
    # down: a finite-sum oracle built by explicit substitution
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    fold = 3
    base_period = model.periods[1]
    averaged_components = []
    for component in field.components:
        terms = []
        for sheet in range(fold):
            shifted = substitute(
                component,
                "x2",
                expr.add(expr.Variable("x2"), expr.Literal(sheet * base_period)),
            )
            terms.append(shifted)
        total = terms[0]
        for term in terms[1:]:
            total = expr.add(total, term)
        averaged_components.append(
            expr.div(total, expr.Literal(float(fold)))
        )
    averaged = td.vector_field(averaged_components, model)
    grid = td.sample_grid(model, (1, 48))
    base_verdict = td.classify_divergence(model, split, field, grid)
    averaged_verdict = td.classify_divergence(model, split, averaged, grid)
    assert averaged_verdict.classification is base_verdict.classification
    for point in grid.points:
        difference = abs(
            td.transverse_divergence(model, split, averaged, point)
            - td.transverse_divergence(model, split, field, point)
        )
        assert difference <= 1e-12


def test_lift_requires_chart(t3a):
    model, split = t3a
    field = td.vector_field([1, 0, 0], model)
    with pytest.raises(td.ModelError):
        td.lift_to_cover(model, split, field, 0, 2)


def test_lift_of_lift_wraps_to_base(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    lifted, ls, lf = td.lift_to_cover(model, split, field, 1, 2)
    again, als, alf = td.lift_to_cover(lifted, ls, lf, 1, 2)
    assert again.periods[1] == 4.0
    assert again.coordinate_wraps[1] == 1.0
    up = td.transverse_divergence(again, als, alf, (0.1, 3.25))
    down = td.transverse_divergence(model, split, field, (0.1, 0.25))
    assert abs(up - down) <= 1e-12


# --- witness consistency on suspensions ---------------------------------------------------

def test_witness_consistency_random_suspensions():
    rng = random.Random(29)
    for n in (2, 3):
        matrix = random_admissible_matrix(rng, n)
        for leaf_index in range(1, n + 1):
            model, split = td.build_suspension(matrix, leaf_index)
            tau = td.alvarez_candidate(model, split)
            verdict = td.classify_divergence(model, split, tau, td.sample_grid(model, 1))
            assert verdict.classification is TautnessClass.NON_TAUT_WITNESS
            comps = np.array(
                [td.evaluate(c, dict(model.parameters)) for c in tau.components]
            )
            assert abs(verdict.max_value - float(comps @ comps)) <= 1e-12
            assert abs(verdict.max_value - verdict.min_value) <= 1e-12
