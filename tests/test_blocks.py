"""The block path (``model.FrameData`` over compiled expressions) against a
point-by-point scalar reference built on ``expr.evaluate``.

Verdict classifications must be identical.  Values may differ in the
last places: NumPy's ``exp`` and ``log`` are not always correctly
rounded the same way as the ``math`` module's (``sin``, ``cos`` and
``sqrt`` agree bit for bit), and batched sums may associate differently.
The bound is ULP_BOUND units in the last place of the largest magnitude
of the compared quantity over the grid (``np.spacing`` of that scale).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.model import BLOCK_POINTS, point_env, sweep

from generators import random_chart_case, random_constant_case, random_field

#: Units in the last place of the grid-wide scale of each quantity; the
#: largest difference seen over these cases and 30 more random ones is 4.
ULP_BOUND = 16


# --- scalar reference --------------------------------------------------------

def ref_frame(model, env):
    return np.array([[expr.evaluate(e, env) for e in row] for row in model.frame])


def ref_point(model, field, point):
    """(C, Gamma, v, rows, E_i(v^k)) at one point, by expr.evaluate."""
    n = model.dim
    env = point_env(model, point)
    coords = model.coordinate_names()
    if model.is_chart:
        a = ref_frame(model, env)
        det = float(np.linalg.det(a))
        if abs(det) < td.model.DET_TOLERANCE:
            raise td.SingularFrameError(point, det)
        da = np.array(
            [[[expr.evaluate(expr.differentiate(e, c), env) for c in coords] for e in row]
             for row in model.frame]
        )
        directional = np.einsum("ic,jmc->ijm", a, da)
        bracket = directional - directional.transpose((1, 0, 2))
        table = np.linalg.solve(a.T, bracket.reshape(n * n, n).T).T.reshape(n, n, n)
        c = 0.5 * (table - table.transpose((1, 0, 2)))
    else:
        c = td.model._constant_table(model)
    gamma = 0.5 * (c + np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c))
    v = np.array([expr.evaluate(comp, env) for comp in field.components])
    if model.is_chart:
        dv = np.array(
            [[expr.evaluate(expr.differentiate(comp, x), env) for x in coords]
             for comp in field.components]
        )
        ev = a @ dv.T
    else:
        ev = np.zeros((n, n))
    rows = np.einsum("j,ijk->ik", v, gamma) + ev
    return c, gamma, v, rows, ev


def ref_sweep(model, split, field, points):
    """Per-point reference values, or the first error and its point."""
    out = {"c": [], "gamma": [], "div": [], "residual": []}
    for point in points:
        c, gamma, v, rows, ev = ref_point(model, field, point)
        out["c"].append(c)
        out["gamma"].append(gamma)
        out["div"].append(sum(rows[i, i] for i in split.transverse_ordered))
        out["residual"].append(
            max(
                abs(ev[a, t] + float(v @ c[a, :, t]))
                for a in split.leaf_ordered
                for t in split.transverse_ordered
            )
        )
    return {key: np.array(value) for key, value in out.items()}


def ref_classify(values, tol):
    low, high = float(np.min(values)), float(np.max(values))
    if max(abs(low), abs(high)) <= tol:
        return "IdenticallyZero"
    if low >= -tol and high > tol:
        return "NonTautWitness"
    if high <= tol and low < -tol:
        return "NegatedNonTautWitness"
    return "MixedSign"


def ref_first_error(model, field, points):
    for point in points:
        try:
            ref_point(model, field, point)
        except (expr.ExprError, td.SingularFrameError) as exc:
            return type(exc), point
    return None


def assert_close(block, reference, what, scale=None):
    if scale is None:
        scale = float(np.max(np.abs(reference), initial=0.0))
    bound = ULP_BOUND * np.spacing(scale)
    worst = float(np.max(np.abs(block - reference), initial=0.0))
    assert worst <= bound, f"{what}: differs by {worst!r} > {bound!r} (scale {scale!r})"


# --- cases -------------------------------------------------------------------

def builtin_cases():
    cases = []
    for name in td.BUILTIN_NAMES:
        model, split = td.builtin_model(name)
        cases.append((name, model, split, td.alvarez_candidate(model, split)))
    return cases


def random_cases(seed, count):
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        model, split = random_chart_case(rng) if index % 3 else random_constant_case(rng)
        field = random_field(rng, model, split, transverse_only=True)
        cases.append((f"random-{index}-{model.name}", model, split, field))
    return cases


def grids(model):
    """A grid larger than one block whose size is not a multiple of it,
    one smaller than a block, and a one-point grid."""
    if not model.is_chart:
        return [td.sample_grid(model, 1)]
    if model.dim == 2:
        shapes = [(23, 29), (5, 4), (1, 1)]
    else:
        shapes = [(9, 9, 8), (3, 2, 2), (1, 1, 1)]
    return [td.sample_grid(model, shape) for shape in shapes]


CASES = builtin_cases() + random_cases(seed=424242, count=9)


def test_grid_sizes_straddle_the_block():
    sizes = {len(grid.points) for _, model, _, _ in CASES for grid in grids(model)}
    assert any(size > BLOCK_POINTS and size % BLOCK_POINTS for size in sizes)
    assert 1 in sizes
    assert any(1 < size < BLOCK_POINTS for size in sizes)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_block_path_matches_scalar_reference(case):
    _, model, split, field = case
    for grid in grids(model):
        reference = ref_sweep(model, split, field, grid.points)
        blocks = list(sweep(model, grid.points, field))
        assert sum(len(block.points) for block in blocks) == len(grid.points)
        assert all(len(block.points) <= BLOCK_POINTS for block in blocks)
        c = np.concatenate([block.c for block in blocks])
        gamma = np.concatenate([block.gamma for block in blocks])
        div = np.concatenate([block.divergence(split.transverse_ordered) for block in blocks])
        assert_close(c, reference["c"], "C")
        assert_close(gamma, reference["gamma"], "Gamma")
        assert_close(div, reference["div"], "div^Q")

        check = td.check_basic(model, split, field, grid)
        assert check.passed == (float(np.max(reference["residual"])) <= 1e-9)
        if not check.passed:
            assert_close(
                np.array([check.max_residual]), np.array([np.max(reference["residual"])]),
                "max residual",
            )
            continue
        verdict = td.classify_divergence(model, split, field, grid)
        assert verdict.classification.value == ref_classify(reference["div"], 1e-9)
        # min/max, and the reference at the reported points, are the
        # reference extremes (near-ties may pick either point)
        index = grid.points.index
        extremes = np.array([reference["div"].min(), reference["div"].max()])
        scale = float(np.max(np.abs(reference["div"])))
        assert_close(np.array([verdict.min_value, verdict.max_value]), extremes, "min/max", scale)
        assert_close(
            reference["div"][[index(verdict.argmin), index(verdict.argmax)]],
            extremes,
            "div^Q at argmin/argmax",
            scale,
        )


def test_one_point_functions_match_the_reference():
    for _, model, split, field in CASES:
        point = td.sample_grid(model, 3).points[-1]
        c, gamma, _, rows, _ = ref_point(model, field, point)
        assert_close(td.structure_functions(model, point), c, "C")
        assert_close(td.christoffel(model, point).values, gamma, "Gamma")
        assert_close(td.model.frame_data(model, (point,), field).rows[0], rows, "rows")
        assert_close(
            np.array([td.transverse_divergence(model, split, field, point)]),
            np.array([sum(rows[i, i] for i in split.transverse_ordered)]),
            "div^Q",
        )


# --- errors are reported at the scalar reference's point -----------------------

def pinched_model(x1_zero):
    """Frame diag(x1 - x1_zero, 1): singular on the line x1 = x1_zero."""
    return td.chart_model("pinched", (1.0, 1.0), [[f"x1-{x1_zero!r}", "0"], ["0", "1"]])


def test_singular_frame_reported_at_first_singular_point():
    # 40x20 lattice: the line x1 = 30.5/40 starts at point 600, in the
    # second block
    model = pinched_model(30.5 / 40)
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "1"], model)
    grid = td.sample_grid(model, (40, 20))
    expected = ref_first_error(model, field, grid.points)
    assert expected == (td.SingularFrameError, grid.points[600])
    for call in (td.check_basic, td.classify_divergence):
        with pytest.raises(td.SingularFrameError) as info:
            call(model, split, field, grid)
        assert info.value.point == grid.points[600]


def test_domain_error_reported_at_first_failing_point():
    # singular at point 600, but the field fails earlier: sqrt of a
    # negative value wherever x1 < 0.3 and x2 > 0.6
    model = pinched_model(30.5 / 40)
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "sqrt(1 - (0.3 - x1)*(x2 - 0.6)*1000)"], model)
    grid = td.sample_grid(model, (40, 20))
    kind, point = ref_first_error(model, field, grid.points)
    assert kind is td.DomainError
    with pytest.raises(td.DomainError) as info:
        td.check_basic(model, split, field, grid)
    assert info.value.point == point


def test_not_basic_reported_at_the_reference_worst_point():
    model, split = td.builtin_model("torus-warped")
    # residual 3 x1^2 e^{-f(x2)}: largest at the last x1 and x2 = 0.75,
    # where f = 0.3 sin(2 pi x2) is smallest
    field = td.vector_field(["0", "x1*x1*x1"], model)
    grid = td.sample_grid(model, (30, 22))
    residuals = ref_sweep(model, split, field, grid.points)["residual"]
    worst = grid.points[int(np.argmax(residuals))]
    assert worst[1] == 0.75
    with pytest.raises(td.NotBasicError) as info:
        td.classify_divergence(model, split, field, grid)
    assert info.value.check.worst_point == worst
    assert_close(
        np.array([info.value.check.max_residual]), np.array([residuals.max()]), "residual"
    )


def test_tied_residuals_report_the_first_point():
    model, split = td.builtin_model("flat-kronecker")
    field = td.vector_field(["0", "x1"], model)  # E_1(x1) = cos(pi/8) everywhere
    grid = td.sample_grid(model, (25, 25))
    check = td.check_basic(model, split, field, grid)
    assert check.worst_point == grid.points[0]
    assert check.max_residual == math.cos(math.pi / 8)
