"""Models, splits, grids, structure functions, basic-field test, documents."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.model import PROBE_RESOLUTION, _corner_points

from generators import identity_cases

LAMBDA_SMALL = (3 - math.sqrt(5)) / 2  # eigenvalues of [[2,1],[1,1]]
LAMBDA_BIG = (3 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def t3a():
    return td.builtin_model("t3a")


@pytest.fixture(scope="module")
def torus():
    return td.builtin_model("torus-warped")


@pytest.fixture(scope="module")
def kronecker():
    return td.builtin_model("flat-kronecker")


def warp_slope(y):  # f'(y) for the default warp 0.3 sin(2 pi y)
    return 0.3 * 2 * math.pi * math.cos(2 * math.pi * y)


# --- loading and builtins ----------------------------------------------------

def test_builtin_torus(torus):
    model, split = torus
    assert model.kind == "chart"
    assert model.dim == 2
    assert split.leaf_ordered == (0,)
    assert split.transverse_ordered == (1,)


def test_builtin_t3a(t3a):
    model, split = t3a
    assert model.kind == "constant_structure"
    assert model.dim == 3
    assert split.leaf_ordered == (2,)  # frame index 3 in reports


def test_builtin_suspension3():
    model, split = td.builtin_model("suspension-3")
    assert model.dim == 4
    assert split.leaf_ordered == (2,)


def test_unknown_builtin():
    with pytest.raises(td.ModelError):
        td.builtin_model("klein-bottle")


def test_builtin_t3a_configurable_matrix():
    model, split = td.builtin_model("t3a", matrix=((3, 2), (1, 1)))
    table = td.structure_functions(model, ())
    # trace 4, det 1: eigenvalues (4 +/- sqrt(12)) / 2
    big = (4 + math.sqrt(12)) / 2
    assert abs(table[0, 2, 2] - math.log(big)) < 1e-12
    assert split.leaf_ordered == (2,)
    with pytest.raises(td.InadmissibleMatrixError):
        td.builtin_model("t3a", matrix=((0, -1), (1, 0)))


def test_builtin_torus_configurable_warp():
    model, split = td.builtin_model("torus-warped", warp="0.1*cos(2*pi*x2)")
    kappa = td.mean_curvature(model, split.leaf_ordered, (0.5, 0.25))
    slope = -0.1 * 2 * math.pi * math.sin(2 * math.pi * 0.25)
    assert abs(kappa.components[1] - (-slope)) < 1e-12
    with pytest.raises(td.ModelError, match="x2 only"):
        td.builtin_model("torus-warped", warp="sin(2*pi*x1)")


def test_empty_leaf_set_rejected():
    document = td.builtin_document("torus-warped")
    document["leaf_indices"] = []
    with pytest.raises(td.SchemaError, match="empty leaf set"):
        td.load_model(document)


def test_full_leaf_set_rejected():
    document = td.builtin_document("torus-warped")
    document["leaf_indices"] = [1, 2]
    with pytest.raises(td.SchemaError, match="empty transverse set"):
        td.load_model(document)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown key"),
        (lambda d: d.update(kind="sheaf"), "unknown kind"),
        (lambda d: d.update(dim="two"), "wrong type"),
        (lambda d: d.update(leaf_indices=[0]), "out of range"),
        (lambda d: d.pop("frame"), "missing required key"),
        (lambda d: d.update(frame=["1", "0", "0"]), "row-major"),
        (lambda d: d.update(frame=["1", "0", "0", "zeta"]), "unknown variable"),
        (lambda d: d.update(periods=[1.0, -1.0]), "positive"),
    ],
)
def test_schema_violations(mutate, message):
    document = td.builtin_document("torus-warped")
    mutate(document)
    with pytest.raises(td.SchemaError, match=message):
        td.load_model(document)


def test_constant_structure_schema_violations():
    document = td.builtin_document("t3a")
    bad = dict(document)
    bad["structure_constants"] = [{"i": 2, "j": 1, "k": 2, "value": 1.0}]
    with pytest.raises(td.SchemaError, match="i < j"):
        td.load_model(bad)
    bad = dict(document)
    bad["structure_constants"] = [{"i": 1, "j": 2, "k": 9, "value": 1.0}]
    with pytest.raises(td.SchemaError, match="out of range"):
        td.load_model(bad)


def test_structure_constant_values_may_reference_parameters(t3a):
    model, _ = t3a
    document = td.builtin_document("t3a")
    document["structure_constants"] = [
        {"i": 1, "j": 2, "k": 2, "value": "log_lambda_1"},
        {"i": 1, "j": 3, "k": 3, "value": "log_lambda_2"},
    ]
    loaded, _ = td.load_model(document)
    assert np.allclose(
        td.structure_functions(loaded, ()), td.structure_functions(model, ())
    )


def test_singular_frame_rejected_at_load():
    document = {
        "name": "pinched",
        "kind": "chart",
        "dim": 2,
        "leaf_indices": [1],
        "periods": [1.0, 1.0],
        "frame": ["x1", "0", "0", "1"],
    }
    with pytest.raises(td.SingularFrameError):
        td.load_model(document)


def test_document_round_trip(t3a, torus):
    for model, split in (t3a, torus):
        document = td.model_to_document(model, split)
        again, split_again = td.load_model(document)
        assert split_again == split
        assert again.dim == model.dim
        point = () if not model.is_chart else (0.3, 0.7)
        assert np.allclose(
            td.structure_functions(again, point),
            td.structure_functions(model, point),
            atol=1e-15,
        )


def test_cover_models_refuse_serialization(torus):
    model, split = torus
    lifted, _, _ = td.lift_to_cover(
        model, split, td.vector_field(["0", "1"], model), 1, 2
    )
    with pytest.raises(td.ModelError, match="covering"):
        td.model_to_document(lifted, split)


# --- grids -------------------------------------------------------------------

def test_sample_grid_cell_centers(torus):
    model, _ = torus
    grid = td.sample_grid(model, (4, 4))
    assert len(grid.points) == 16
    expected = {((j + 0.5) / 4, (k + 0.5) / 4) for j in range(4) for k in range(4)}
    assert set(grid.points) == expected


def test_sample_grid_constant_model(t3a):
    model, _ = t3a
    grid = td.sample_grid(model, 99)
    assert grid.points == ((),)


def test_sample_grid_line(torus):
    model, _ = torus
    grid = td.sample_grid(model, (1, 256))
    assert len(grid.points) == 256
    assert all(point[0] == 0.5 for point in grid.points)


def test_sample_grid_validation(torus):
    model, _ = torus
    with pytest.raises(td.ModelError):
        td.sample_grid(model, (0, 4))
    with pytest.raises(td.ModelError):
        td.sample_grid(model, (4,))


# --- structure functions -------------------------------------------------------

def test_structure_functions_t3a(t3a):
    model, _ = t3a
    table = td.structure_functions(model, ())
    assert abs(table[0, 1, 1] - math.log(LAMBDA_SMALL)) < 1e-12
    assert abs(table[0, 2, 2] - math.log(LAMBDA_BIG)) < 1e-12
    assert np.all(table[1, 2, :] == 0)


def test_structure_functions_torus(torus):
    model, _ = torus
    # hand bracket: [d_y, e^{-f} d_x] = -f' e^{-f} d_x, so C_21^1 = -f'(y)
    for y in (0.0, 0.2, 0.65):
        table = td.structure_functions(model, (0.4, y))
        assert abs(table[1, 0, 0] + warp_slope(y)) < 1e-12
        assert abs(table[0, 1, 0] - warp_slope(y)) < 1e-12
        assert abs(table[0, 1, 1]) < 1e-12


def test_structure_functions_flat(kronecker):
    model, _ = kronecker
    table = td.structure_functions(model, (0.3, 0.9))
    assert np.max(np.abs(table)) == 0.0


def finite_difference_bracket(model, point, h=1e-5):
    """Independent oracle: brackets from finite differences of the frame."""
    n = model.dim
    a = td.model.frame_matrix(model, point)

    def partial(c):
        plus = list(point)
        minus = list(point)
        plus[c] += h
        minus[c] -= h
        return (
            td.model.frame_matrix(model, tuple(plus))
            - td.model.frame_matrix(model, tuple(minus))
        ) / (2 * h)

    grads = [partial(c) for c in range(n)]  # grads[c][j, m] = d a_j^m / d x_c
    table = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            w = np.zeros(n)
            for m in range(n):
                w[m] = sum(
                    a[i, c] * grads[c][j, m] - a[j, c] * grads[c][i, m]
                    for c in range(n)
                )
            table[i, j, :] = np.linalg.solve(a.T, w)
    return table


def test_structure_functions_match_finite_difference_oracle():
    rng = random.Random(42)
    for model, _ in identity_cases(seed=99, count=6):
        if not model.is_chart:
            continue
        for _ in range(20):
            point = tuple(rng.uniform(0.05, 0.95) for _ in range(model.dim))
            symbolic = td.structure_functions(model, point)
            oracle = finite_difference_bracket(model, point)
            assert np.max(np.abs(symbolic - oracle)) < 1e-6


def test_structure_functions_antisymmetry():
    rng = random.Random(5)
    for model, _ in identity_cases(seed=3, count=8):
        points = (
            [()]
            if not model.is_chart
            else [tuple(rng.random() for _ in range(model.dim)) for _ in range(5)]
        )
        for point in points:
            table = td.structure_functions(model, point)
            defect = np.max(np.abs(table + table.transpose((1, 0, 2))))
            assert defect <= 1e-12


def test_symbolic_structure_functions_match_numeric(torus):
    model, _ = torus
    symbolic = td.model.structure_functions_symbolic(model)
    for point in [(0.1, 0.3), (0.8, 0.62)]:
        numeric = td.structure_functions(model, point)
        env = td.model.point_env(model, point)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    value = expr.evaluate(symbolic[i][j][k], env)
                    assert abs(value - numeric[i, j, k]) < 1e-12


# --- validation ----------------------------------------------------------------

def test_validate_t3a(t3a):
    model, _ = t3a
    report = td.validate_model(model, td.sample_grid(model, 1))
    assert report.passed
    names = {check.name for check in report.checks}
    assert {"structure_antisymmetry", "jacobi_identity"} <= names


def test_validate_so3_jacobi():
    model = td.constant_structure_model(
        "so3", 3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]
    )
    report = td.validate_model(model, td.sample_grid(model, 1))
    assert report.passed


def test_validate_broken_jacobi():
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1: the cyclic sum equals 2 e1 on
    # (e1,e2,e3), so this is not a Lie algebra
    model = td.constant_structure_model(
        "not-a-lie-algebra", 3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0)]
    )
    report = td.validate_model(model, td.sample_grid(model, 1))
    jacobi = [c for c in report.checks if c.name == "jacobi_identity"][0]
    assert not jacobi.passed


def test_validate_singular_frame_near_zero():
    model = td.chart_model("pinched", (1.0, 1.0), [["x1", "0"], ["0", "1"]])
    report = td.validate_model(model, td.sample_grid(model, 8))
    invertibility = [c for c in report.checks if c.name == "frame_invertibility"][0]
    assert not invertibility.passed
    assert invertibility.worst_point[0] == 0.0  # the corner probe at x1 = 0


def test_validate_reports_first_failing_probe():
    # ln(x1) is fine at every cell centre and fails at the corner x1 = 0
    model = td.chart_model("log-frame", (1.0, 1.0), [["2 + ln(x1)", "0"], ["0", "1"]])
    report = td.validate_model(model, td.sample_grid(model, 8))
    invertibility = [c for c in report.checks if c.name == "frame_invertibility"][0]
    assert not invertibility.passed
    assert invertibility.worst_point == (0.0, 0.0)
    assert "frame evaluation failed" in invertibility.detail


def test_corner_probe_includes_origin(torus):
    model, _ = torus
    corners = _corner_points(model, (PROBE_RESOLUTION,) * 2)
    assert (0.0, 0.0) in corners


# --- basic-field test -----------------------------------------------------------

def test_check_basic_t3a_e1(t3a):
    model, split = t3a
    grid = td.sample_grid(model, 1)
    field = td.vector_field([1, 0, 0], model)
    report = td.check_basic(model, split, field, grid)
    assert report.passed
    assert report.max_residual == 0.0


def test_check_basic_torus(torus):
    model, split = torus
    grid = td.sample_grid(model, 12)
    basic = td.vector_field(["0", "exp(sin(2*pi*x2))"], model)
    assert td.check_basic(model, split, basic, grid).passed
    leafwise_varying = td.vector_field(["0", "cos(2*pi*x1)"], model)
    report = td.check_basic(model, split, leafwise_varying, grid)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_check_basic_additivity(torus):
    model, split = torus
    grid = td.sample_grid(model, 8)
    v = td.vector_field(["0", "cos(2*pi*x2)"], model)
    w = td.vector_field(["x2", "1"], model)  # leafwise part varies transversally
    assert td.check_basic(model, split, v, grid).passed
    report_w = td.check_basic(model, split, w, grid)
    total = td.vector_field(
        [expr.add(a, b) for a, b in zip(v.components, w.components)], model
    )
    report_sum = td.check_basic(model, split, total, grid)
    assert report_sum.max_residual <= (
        td.check_basic(model, split, v, grid).max_residual
        + report_w.max_residual
        + 1e-12
    )
    assert report_w.passed == report_sum.passed


def test_constant_model_rejects_positional_components(t3a):
    model, _ = t3a
    with pytest.raises(td.ModelError):
        td.vector_field(["x1", 0, 0], model)


def test_field_component_count(t3a):
    model, _ = t3a
    with pytest.raises(td.ModelError):
        td.vector_field([1, 0], model)


def test_random_basic_fields_add(torus):
    # transverse fields with x2-only coefficients are basic on the warped
    # torus; their sums must stay basic with additive residuals
    model, split = torus
    rng = random.Random(11)
    grid = td.sample_grid(model, 6)
    for _ in range(5):
        amp1, amp2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        v = td.vector_field(["0", f"{amp1}+0.25*sin(2*pi*x2)"], model)
        w = td.vector_field(["0", f"{amp2}*cos(2*pi*x2)"], model)
        rv = td.check_basic(model, split, v, grid)
        rw = td.check_basic(model, split, w, grid)
        total = td.vector_field(
            [expr.add(a, b) for a, b in zip(v.components, w.components)], model
        )
        rt = td.check_basic(model, split, total, grid)
        assert rv.passed and rw.passed
        assert rt.max_residual <= rv.max_residual + rw.max_residual + 1e-12
        assert rt.passed
