"""Connection coefficients, divergences, mean curvature, frame identities."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import transdiv as td

from generators import (
    at,
    grid_points,
    identity_cases,
    point_env,
    random_admissible_matrix,
    random_field,
)

LAMBDA_SMALL = (3 - math.sqrt(5)) / 2
LAMBDA_BIG = (3 + math.sqrt(5)) / 2
LOG_SMALL = math.log(LAMBDA_SMALL)
LOG_BIG = math.log(LAMBDA_BIG)


@pytest.fixture(scope="module")
def t3a():
    return td.builtin_model("t3a")


@pytest.fixture(scope="module")
def torus():
    return td.builtin_model("torus-warped")


def warp_slope(y):
    return 0.3 * 2 * math.pi * math.cos(2 * math.pi * y)


# --- Christoffel tables --------------------------------------------------------

def test_christoffel_t3a_values(t3a):
    model, _ = t3a
    gamma = td.christoffel(model, ())
    assert abs(gamma[2, 2, 0] - LOG_BIG) < 1e-12
    assert abs(gamma[1, 0, 1] - (-LOG_SMALL)) < 1e-12
    assert gamma[0, 0, 0] == 0.0
    assert gamma[2, 2, 1] == 0.0
    assert gamma[0, 1, 0] == 0.0


def test_christoffel_flat_zero():
    model, _ = td.builtin_model("flat-kronecker")
    gamma = td.christoffel(model, (0.2, 0.7))
    assert np.max(np.abs(gamma)) < 1e-15


def test_christoffel_torus_pair(torus):
    # Koszul with C_21^1 = -f': Gamma_11^2 = C_21^1 = -f'(y), and the
    # skew pair Gamma_11^2 = -Gamma_12^1
    model, _ = torus
    for y in (0.0, 0.31):
        gamma = td.christoffel(model, (0.5, y))
        assert abs(gamma[0, 0, 1] - (-warp_slope(y))) < 1e-12
        assert abs(gamma[0, 0, 1] + gamma[0, 1, 0]) < 1e-15


# --- covariant derivatives -------------------------------------------------------

def test_covariant_derivative_tau_direction(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    # component along E2 of nabla_{E_2} tau is ln(l2) * Gamma_21^2
    row = at(model, (), lambda block: block.rows, tau)[1]
    assert abs(row[1] - (-LOG_BIG * LOG_SMALL)) < 1e-12


def test_covariant_derivative_zero_field(t3a, torus):
    for model, _ in (t3a, torus):
        zero = td.vector_field([0] * model.dim, model)
        point = () if not model.is_chart else (0.3, 0.4)
        for i in range(model.dim):
            assert np.all(at(model, point, lambda block: block.rows, zero)[i] == 0)


def test_covariant_derivative_transverse_slope(torus):
    model, _ = torus
    field = td.vector_field(["0", "sin(2*pi*x2)"], model)
    for y in (0.1, 0.45):
        row = at(model, (0.2, y), lambda block: block.rows, field)[1]
        expected = 2 * math.pi * math.cos(2 * math.pi * y)
        assert abs(row[1] - expected) < 1e-12


# --- divergences -----------------------------------------------------------------

def test_transverse_divergence_tau(t3a):
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    value = at(model, (), lambda block: block.divergence((0, 1)), tau)
    assert abs(value - LOG_SMALL**2) < 1e-12
    assert abs(td.transverse_divergence(model, split, tau, ()) - value) == 0.0


def test_transverse_divergence_torus_slope(torus):
    model, split = torus
    field = td.vector_field(["0", "exp(cos(2*pi*x2))"], model)
    for y in (0.12, 0.77):
        value = at(model, (0.6, y), lambda block: block.divergence((1,)), field)
        expected = -2 * math.pi * math.sin(2 * math.pi * y) * math.exp(
            math.cos(2 * math.pi * y)
        )
        assert abs(value - expected) < 1e-10


def test_divergence_zero_field(t3a):
    model, _ = t3a
    zero = td.vector_field([0, 0, 0], model)
    assert at(model, (), lambda block: block.divergence((0, 1, 2)), zero) == 0.0


# --- mean curvature ---------------------------------------------------------------

def test_mean_curvature_t3a(t3a):
    model, _ = t3a
    kappa = td.mean_curvature(model, (2,), ())
    assert abs(kappa[0] - LOG_BIG) < 1e-12
    assert kappa[1] == 0.0
    assert kappa[2] == 0.0  # vanishes on D


def test_mean_curvature_torus(torus):
    model, _ = torus
    for y in (0.0, 0.25, 0.6):
        kappa = td.mean_curvature(model, (0,), (0.2, y))
        assert kappa[0] == 0.0
        assert abs(kappa[1] - (-warp_slope(y))) < 1e-12
    at_quarter = td.mean_curvature(model, (0,), (0.2, 0.25))
    assert abs(at_quarter[1]) < 1e-12


def test_mean_curvature_flat_zero():
    model, _ = td.builtin_model("flat-kronecker")
    kappa = td.mean_curvature(model, (0,), (0.4, 0.9))
    assert np.max(np.abs(kappa)) < 1e-15


def test_mean_curvature_rejects_full_set(t3a):
    model, _ = t3a
    with pytest.raises(td.ModelError):
        td.mean_curvature(model, (0, 1, 2), ())


# --- frame identities over random models -----------------------------------------

CASES = identity_cases(seed=20260810, count=20)


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_koszul_identities(case_index):
    model, _ = CASES[case_index]
    for point in grid_points(model):
        table = td.structure_functions(model, point)
        gamma = td.christoffel(model, point)
        skew = np.max(np.abs(gamma + gamma.transpose((0, 2, 1))))
        torsion = np.max(np.abs(gamma - gamma.transpose((1, 0, 2)) - table))
        assert skew <= 1e-12
        assert torsion <= 1e-12


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_divergence_decomposition(case_index):
    """div^Q v = div v + <v, kappa#> for fields perpendicular to the leaves."""
    model, split = CASES[case_index]
    rng = random.Random(1000 + case_index)
    field = random_field(rng, model, split, transverse_only=True)
    for point in grid_points(model):
        div_q = td.transverse_divergence(model, split, field, point)
        div_full = at(model, point, lambda block: block.divergence(range(model.dim)), field)
        kappa = td.mean_curvature(model, split.leaf_ordered, point)
        env = point_env(model, point)
        comps = np.array(
            [td.evaluate(c, env) for c in field.components]
        )
        assert abs(div_q - (div_full + float(comps @ kappa))) <= 1e-10


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_perpendicular_identity(case_index):
    """div^{TF} v = -<v, kappa#> for fields supported on transverse indices."""
    model, split = CASES[case_index]
    rng = random.Random(2000 + case_index)
    field = random_field(rng, model, split, transverse_only=True)
    for point in grid_points(model):
        div_leafwise = at(model, point, lambda block: block.divergence(split.leaf_ordered), field)
        kappa = td.mean_curvature(model, split.leaf_ordered, point)
        env = point_env(model, point)
        comps = np.array([td.evaluate(c, env) for c in field.components])
        assert abs(div_leafwise + float(comps @ kappa)) <= 1e-10


CONSTANT_CASE_INDICES = [
    index for index, (model, _) in enumerate(CASES) if not model.is_chart
]


@pytest.mark.parametrize("case_index", CONSTANT_CASE_INDICES)
def test_jacobi_every_constant_model(case_index):
    model, split = CASES[case_index]
    report = td.validate_model(model, split, td.sample_grid(model, 1))
    jacobi = [c for c in report if c.name == "jacobi_identity"][0]
    assert jacobi.passed
    assert jacobi.worst <= 1e-12


def test_decomposition_constant_fields_on_suspensions():
    # with one-dimensional leaves and constant components the full
    # decomposition holds for arbitrary (not only transverse) fields
    rng = random.Random(31)
    for n in (2, 3, 2):
        matrix = random_admissible_matrix(rng, n)
        model, split = td.load_model(td.build_suspension(matrix, rng.randint(1, n)))
        field = random_field(rng, model, split)
        div_q = td.transverse_divergence(model, split, field, ())
        div_full = at(model, (), lambda block: block.divergence(range(model.dim)), field)
        kappa = td.mean_curvature(model, split.leaf_ordered, ())
        comps = np.array(
            [td.evaluate(c, dict(model.parameters)) for c in field.components]
        )
        assert abs(div_q - (div_full + float(comps @ kappa))) <= 1e-10


def test_suspension_harmonicity_random_matrices():
    """div^Q tau = |tau|^2 on every suspension, for every leaf choice."""
    rng = random.Random(17)
    for n in (2, 2, 3, 3):
        matrix = random_admissible_matrix(rng, n)
        for leaf_index in range(1, n + 1):
            model, split = td.load_model(td.build_suspension(matrix, leaf_index))
            tau = td.alvarez_candidate(model, split)
            comps = np.array(
                [td.evaluate(c, dict(model.parameters)) for c in tau.components]
            )
            norm_squared = float(comps @ comps)
            value = td.transverse_divergence(model, split, tau, ())
            assert abs(value - norm_squared) <= 1e-12
            logs = sorted(model.parameters.values())
            assert any(
                abs(norm_squared - log_value**2) <= 1e-10 for log_value in logs
            )
