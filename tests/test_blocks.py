"""The block path (``model.FrameData`` over expression plans) against a
point-by-point scalar reference built on ``expr.evaluate``.

Verdict classifications must be identical.  Values may differ in the
last places: NumPy's ``exp`` and ``log`` are not always correctly
rounded the same way as the ``math`` module's (``sin``, ``cos`` and
``sqrt`` agree bit for bit), batched sums may associate differently, and
the reference takes det A and C from LAPACK (``np.linalg.det`` and
``solve``), the block path from the plan's cofactor expressions.
The bound is ULP_BOUND units in the last place of the largest magnitude
of the compared quantity over the grid (``np.spacing`` of that scale).
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.model import _block_plan, _lattice, _lattice_blocks

from generators import (
    CountingEnv,
    at,
    bench_torus_case,
    block_runs,
    dense_chart_case,
    point_env,
    point_tuples,
    random_chart_case,
    random_constant_case,
    random_field,
    swept_rows,
)

#: Points in a block in the tests that set the budget of plan values
#: (``model.BLOCK_VALUES``) to this many points' worth of their plan
BLOCK = 128

#: Units in the last place of the grid-wide scale of each quantity; the
#: largest difference seen over these cases and 34 more random ones is
#: 8.25 for C and Gamma (the plan's Cramer rule against LAPACK's solve),
#: 5 for det A and 4 for div^Q.
ULP_BOUND = 16


# --- scalar reference --------------------------------------------------------

def ref_frame(model, env):
    return np.array([[expr.evaluate(e, env) for e in row] for row in model.frame])


def ref_point(model, field, point):
    """(C, Gamma, v, rows, E_i(v^k), det A) at one point, by expr.evaluate
    and LAPACK's solve and det (NaN for det A of a constant-structure
    model)."""
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
        det = math.nan
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
    return c, gamma, v, rows, ev, det


def ref_sweep(model, split, field, points):
    """Per-point reference values, or the first error and its point."""
    out = {"c": [], "gamma": [], "div": [], "residual": [], "det": []}
    for point in points:
        c, gamma, v, rows, ev, det = ref_point(model, field, point)
        out["det"].append(det)
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


def random_cases(seed, count, draw=None):
    """``count`` random cases; by default every third a constant-structure
    model and the others sparse charts, else each drawn by ``draw(rng)``."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        if draw is not None:
            model, split = draw(rng)
        else:
            model, split = random_chart_case(rng) if index % 3 else random_constant_case(rng)
        field = random_field(rng, model, split, transverse_only=True)
        cases.append((f"random-{index}-{model.name}", model, split, field))
    return cases


def grids(model):
    """A grid larger than one block whose size is not a multiple of it,
    one smaller than a block, and a one-point grid."""
    if not model.is_chart:
        return [td.sample_grid(model, 1)]
    shapes = {
        2: [(23, 29), (5, 4), (1, 1)],
        3: [(9, 9, 8), (3, 2, 2), (1, 1, 1)],
        4: [(6, 5, 5, 4), (2, 2, 1, 2), (1, 1, 1, 1)],
    }[model.dim]
    return [td.sample_grid(model, shape) for shape in shapes]


# dense 4-D frames: no entry of A is a literal zero, so no term of a
# cofactor or of a Cramer sum folds away
CASES = (
    builtin_cases()
    + random_cases(seed=424242, count=9)
    + random_cases(seed=31337, count=2, draw=lambda rng: dense_chart_case(rng, 4))
)


def test_grid_sizes_straddle_the_block():
    sizes = {len(grid) for _, model, _, _ in CASES for grid in grids(model)}
    assert any(size > BLOCK and size % BLOCK for size in sizes)
    assert 1 in sizes
    assert any(1 < size < BLOCK for size in sizes)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_block_path_matches_scalar_reference(case, monkeypatch):
    _, model, split, field = case
    built = block_runs(monkeypatch)
    monkeypatch.setattr(td.model, "BLOCK_VALUES", BLOCK * len(_block_plan(model, field, True)))
    for grid in grids(model):
        reference = ref_sweep(model, split, field, point_tuples(grid))
        built.clear()
        reads = [
            lambda block: block.c,
            lambda block: block.gamma,
            lambda block: block.divergence(split.transverse_ordered),
        ]
        if model.is_chart:
            reads.append(lambda block: block.det)
        c, gamma, div, *det = swept_rows(model, grid, *reads, field_spec=field)
        # one build per lattice block of at most BLOCK points, none for a
        # bisection
        assert [len(run.block) for run in built] == [len(block) for block in _lattice_blocks(grid, BLOCK)]
        assert_close(c, reference["c"], "C")
        assert_close(gamma, reference["gamma"], "Gamma")
        assert_close(div, reference["div"], "div^Q")
        if model.is_chart:
            assert_close(det[0], reference["det"], "det")

        check = td.check_basic(model, split, field, grid)
        assert check.passed == (float(np.max(reference["residual"])) <= 1e-9)
        if not check.passed:
            assert_close(
                np.array([check.worst]), np.array([np.max(reference["residual"])]),
                "max residual",
            )
            continue
        verdict = td.classify_divergence(model, split, field, grid)
        assert verdict.classification.value == ref_classify(reference["div"], 1e-9)
        # min/max, and the reference at the reported points, are the
        # reference extremes (near-ties may pick either point)
        index = point_tuples(grid).index
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
        point = point_tuples(td.sample_grid(model, 3))[-1]
        c, gamma, _, rows, _, _ = ref_point(model, field, point)
        assert_close(td.structure_functions(model, point), c, "C")
        assert_close(td.christoffel(model, point), gamma, "Gamma")
        assert_close(at(model, point, lambda block: block.rows, field), rows, "rows")
        assert_close(
            np.array([td.transverse_divergence(model, split, field, point)]),
            np.array([sum(rows[i, i] for i in split.transverse_ordered)]),
            "div^Q",
        )


@pytest.mark.parametrize("name", ["torus-warped", "warped-3d"])
def test_each_block_reads_each_variable_once(name, monkeypatch):
    # the Alvarez candidate's field partials repeat the frame's subtrees
    # many times over; a block still reads each coordinate once
    if name == "warped-3d":
        model = td.chart_model(
            name, (1.0, 1.0, 1.0),
            [["exp(-0.3*sin(2*pi*x3))", "0", "0"],
             ["0", "exp(-(0.2*cos(2*pi*2*x3)))", "0"],
             ["0", "0", "1"]],
        )
        split = td.foliation_split(3, {0})
    else:
        model, split = td.builtin_model(name)
    field = td.alvarez_candidate(model, split)
    envs = []
    block_env = td.model._block_env

    def counting(model, block):
        envs.append(CountingEnv(block_env(model, block)))
        return envs[-1]

    monkeypatch.setattr(td.model, "_block_env", counting)
    monkeypatch.setattr(td.model, "BLOCK_VALUES", BLOCK * len(_block_plan(model, field, True)))
    runs = block_runs(monkeypatch)
    grid = td.sample_grid(model, (23, 29) if model.dim == 2 else (9, 9, 8))
    td.classify_divergence(model, split, field, grid)
    # the verdict's sweep in lattice blocks of at most BLOCK points, then
    # its gate's det-only sweep of as many lattice corners, which runs the
    # frame plan in blocks sized by that plan
    corners = _lattice(model, grid.resolution, 0.0)
    verdict = list(_lattice_blocks(grid, BLOCK))
    frame_plan = _block_plan(model, None, False)
    (det_steps,) = {run.steps for run in runs[len(verdict):]}
    assert det_steps == len(frame_plan) < len(_block_plan(model, field, True))
    corner_block = td.model.BLOCK_VALUES // len(frame_plan)
    assert corner_block > BLOCK
    blocks = [*verdict, *_lattice_blocks(corners, corner_block)]
    assert [run.block.resolution for run in runs] == [block.resolution for block in blocks]
    assert len(envs) == len(blocks) > 2
    coords = model.coordinate_names()
    partials = [d for comp in field.components for d in expr.gradient(comp, coords)]
    read = set().union(*map(expr.variables, partials))
    assert read
    for env in envs:
        assert env.reads == {name: 1 for name in env.reads}
        assert read <= set(env.reads)


def test_det_only_blocks_are_sized_by_the_frame_plan(monkeypatch):
    # a det-only sweep runs the model's frame plan, in blocks of
    # BLOCK_VALUES // len(frame plan) points whatever ran before it: at
    # 2048^2 on warped-both the gate's corner probe takes 64 285 points a
    # block, where the 43 steps of the Alvarez candidate's plan would give
    # 20 930
    model, split, _ = bench_torus_case(random.Random(3), "warped-both")
    field = td.alvarez_candidate(model, split)
    frame_plan = _block_plan(model, None, False)
    assert (len(frame_plan), len(_block_plan(model, field, True))) == (14, 43)
    assert [td.model.BLOCK_VALUES // steps for steps in (14, 43)] == [64285, 20930]
    # 56 points of the field plan a block, 172 of the frame plan
    monkeypatch.setattr(td.model, "BLOCK_VALUES", 4 * 14 * 43)
    runs = block_runs(monkeypatch)
    grid = td.sample_grid(model, (24, 24))
    corners = _lattice(model, grid.resolution, 0.0)

    def shapes(*blocks):
        return [(block.resolution, steps) for blocks, steps in blocks for block in blocks]

    def ran(call, *args):
        runs.clear()
        call(*args)
        return [(run.block.resolution, run.steps) for run in runs]

    det_only = shapes((_lattice_blocks(grid, 172), 14), (_lattice_blocks(corners, 172), 14))
    assert ran(td.validate_model, model, split, grid) == det_only
    field_sweep = shapes((_lattice_blocks(grid, 56), 43), (_lattice_blocks(corners, 172), 14))
    assert ran(td.classify_divergence, model, split, field, grid) == field_sweep
    assert ran(td.validate_model, model, split, grid) == det_only


# --- the points-last layout against in-order formulas ------------------------

def ascending_sum(products):
    """The sum of ``products`` added in the order given, from +0.0."""
    return functools.reduce(np.add, products, 0.0)


def in_order_formulas(a, c, v, dv, det, split, cell):
    """Gamma, the covariant rows, div^Q, kappa, the basic residuals and the
    Green terms by point-first formulas (a leading point axis, einsums
    over (P, n, n, n) arrays), with E_i(v^k) and g(v, kappa) written out
    as products added in ascending index; ``a``, ``dv`` and ``det`` are
    None for a constant-structure model."""
    leaf, transverse = list(split.leaf_ordered), list(split.transverse_ordered)
    n = c.shape[1]
    gamma = 0.5 * (c + c.transpose((0, 2, 3, 1)) + c.transpose((0, 3, 2, 1)))
    if a is None:
        ev = np.zeros(c.shape[:3])
    else:  # E_i(v^k) = sum_m a_i^m d v^k / d x_m
        ev = ascending_sum(np.multiply(a[:, :, None, m], dv[:, None, :, m]) for m in range(n))
    rows = np.einsum("pj,pijk->pik", v, gamma) + ev
    div = sum(rows[:, i, i] for i in transverse)
    kappa = sum(gamma[:, i, i, :] for i in leaf)
    kappa[:, leaf] = 0.0
    bracket = ev + np.einsum("pj,pijk->pik", v, c)
    residuals = np.abs(bracket[:, leaf][:, :, transverse]).reshape(len(c), -1).max(axis=1)
    quantities = {
        "gamma": gamma, "rows": rows, "divergence": div, "mean_curvature": kappa,
        "basic_residuals": residuals,
    }
    if det is not None:
        quantities["green_lhs"] = div * (cell / np.abs(det))
        inner = ascending_sum(np.multiply(v[:, k], kappa[:, k]) for k in range(n))
        quantities["green_rhs"] = inner * (cell / np.abs(det))
    return quantities


def layout_cases():
    """Three cases from each generator; the dense 4-D charts with 1, 2 and
    3 leaf directions, so that g(v, kappa#) sums up to three nonzero
    terms."""
    rng = random.Random(20261018)
    cases = []
    for draw in (random_chart_case, random_constant_case):
        for _ in range(3):
            cases.append(draw(rng))
    for size in (1, 2, 3):
        model, _ = dense_chart_case(rng, 4)
        cases.append((model, td.foliation_split(4, range(size))))
    return [
        (model, split, random_field(rng, model, split, transverse_only=True))
        for model, split in cases
    ]


#: Lattices of each size and dimension: 511 = 7 * 73 and 513 = 3^3 * 19
#: points, so that blocks of at most 512 points cut an axis
LAYOUT_SHAPES = {
    1: {2: (1, 1), 3: (1, 1, 1), 4: (1, 1, 1, 1)},
    511: {2: (7, 73), 3: (7, 73, 1), 4: (7, 1, 73, 1)},
    512: {2: (16, 32), 3: (8, 8, 8), 4: (4, 4, 4, 8)},
    513: {2: (19, 27), 3: (3, 9, 19), 4: (3, 3, 3, 19)},
}


@pytest.mark.parametrize("size", [1, 511, 512, 513])
def test_points_last_blocks_match_the_in_order_formulas_bit_for_bit(size, monkeypatch):
    cell = 0.37
    for model, split, field in layout_cases():
        # blocks of at most 512 points, so that 513 points take two
        monkeypatch.setattr(td.model, "BLOCK_VALUES", 512 * len(_block_plan(model, field, True)))
        # a constant-structure model has its one abstract point at every size
        grid = td.sample_grid(model, LAYOUT_SHAPES[size].get(model.dim, ()))
        reads = {
            "c": lambda block: block.c,
            "v": lambda block: block.v,
            "gamma": lambda block: block.gamma,
            "rows": lambda block: block.rows,
            "divergence": lambda block: block.divergence(split.transverse_ordered),
            "mean_curvature": lambda block: block.mean_curvature(split.leaf_ordered),
            "basic_residuals": lambda block: block.basic_residuals(split),
        }
        if model.is_chart:
            reads.update(a=lambda block: block.a, dv=lambda block: block.dv,
                         det=lambda block: block.det)
            reads["green_lhs"], reads["green_rhs"] = td.tautness._green_terms(split, cell)
        swept = dict(zip(reads, swept_rows(model, grid, *reads.values(), field_spec=field)))
        assert all(len(values) == len(grid) for values in swept.values())
        assert len(grid) == (size if model.is_chart else 1)
        expected = in_order_formulas(
            swept.get("a"), swept["c"], swept["v"], swept.get("dv"), swept.get("det"), split, cell
        )
        for name, reference in expected.items():
            got = swept[name]
            assert got.shape == reference.shape, name
            # bit for bit, the sign of zero included
            assert np.array_equal(got.view(np.int64), reference.view(np.int64)), (model.name, name)


# --- errors are reported at the scalar reference's point -----------------------

def pinched_model(x1_zero):
    """Frame diag(x1 - x1_zero, 1): singular on the line x1 = x1_zero."""
    return td.chart_model("pinched", (1.0, 1.0), [[f"x1-{x1_zero!r}", "0"], ["0", "1"]])


def test_singular_frame_reported_at_first_singular_point():
    # 40x20 lattice: the line x1 = 30.5/40 starts at point 600
    model = pinched_model(30.5 / 40)
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "1"], model)
    grid = td.sample_grid(model, (40, 20))
    points = point_tuples(grid)
    expected = ref_first_error(model, field, points)
    assert expected == (td.SingularFrameError, points[600])
    for call in (td.check_basic, td.classify_divergence):
        with pytest.raises(td.SingularFrameError) as info:
            call(model, split, field, grid)
        assert info.value.point == points[600]


def test_singular_frame_is_raised_before_a_failing_field_partial():
    # on the line x1 = z the frame is singular and the x1-partial of
    # sqrt((x1-z)*(x1-z)) divides by zero; the partial shares x1-z with
    # the frame, but the frame is checked before any partial is evaluated
    z = 30.5 / 40
    model = pinched_model(z)
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", f"sqrt((x1-{z!r})*(x1-{z!r}))"], model)
    grid = td.sample_grid(model, (40, 20))
    points = point_tuples(grid)
    assert ref_first_error(model, field, points) == (td.SingularFrameError, points[600])
    partial = expr.differentiate(field.components[1], "x1")
    with pytest.raises(td.DomainError, match="division by zero"):
        expr.evaluate(partial, point_env(model, points[600]))
    for call in (td.check_basic, td.classify_divergence):
        with pytest.raises(td.SingularFrameError) as info:
            call(model, split, field, grid)
        assert info.value.point == points[600]


def test_domain_error_reported_at_first_failing_point():
    # singular at point 600, but the field fails earlier: sqrt of a
    # negative value wherever x1 < 0.3 and x2 > 0.6
    model = pinched_model(30.5 / 40)
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "sqrt(1 - (0.3 - x1)*(x2 - 0.6)*1000)"], model)
    grid = td.sample_grid(model, (40, 20))
    kind, point = ref_first_error(model, field, point_tuples(grid))
    assert kind is td.DomainError
    with pytest.raises(td.DomainError) as info:
        td.check_basic(model, split, field, grid)
    assert info.value.point == point


def test_require_finite_locates_the_first_point_on_points_last_arrays():
    # point 3 fails at an earlier tensor entry than point 2
    values = np.zeros((2, 2, 5, 1))
    values[1, 1, 2] = math.nan
    values[0, 0, 3] = math.inf
    grid = td.Grid([np.arange(0.0, 10.0, 2.0), [5.0]])
    found = td.model._first_non_finite(None, grid, values)
    with pytest.raises(td.DomainError, match=r"^non-finite Gamma at \(4\.0, 5\.0\)$"):
        td.model.require_finite(found, "Gamma")
    # a later block's NaN does not displace the first one found
    assert td.model._first_non_finite(found, grid, np.full((1, 1), math.nan)) is found
    grid = td.Grid([grid.axes[0][:2], [5.0]])
    td.model.require_finite(td.model._first_non_finite(None, grid, values[:, :, :2]), "Gamma")


# 40 x 32 lattice: x1 > 0.5992 first at point 24 * 32 = 768, where
# 1.5e308 * x1 > 8.99e307 and so twice it overflows; every value of the
# plan (A, det A, C, v, dv) stays finite
OVERFLOW_SHAPE = (40, 32)
OVERFLOW_POINT = (0.6125, 0.015625)


def test_non_finite_gamma_reported_at_its_first_point():
    # E1 = d1, E2 = 7.5e307 x1^2 d1 + d2: C_12^1 = 1.5e308 x1, finite,
    # and Gamma_11^2 = (0 + C_21^1 + C_21^1) / 2 overflows
    model = td.chart_model("steep-shear", (1.0, 1.0), [["1", "0"], ["7.5e307*x1*x1", "1"]])
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "1"], model)
    grid = td.sample_grid(model, OVERFLOW_SHAPE)
    assert point_tuples(grid)[768] == OVERFLOW_POINT
    c21 = td.model.structure_functions_symbolic(model)[1][0][0]
    value = expr.evaluate(c21, point_env(model, OVERFLOW_POINT))
    assert math.isfinite(value) and abs(value) > np.finfo(float).max / 2
    for call in (td.check_basic, td.classify_divergence):
        with pytest.raises(td.DomainError) as info:
            call(model, split, field, grid)
        assert str(info.value) == f"non-finite connection coefficients at {OVERFLOW_POINT}"
        assert info.value.point == OVERFLOW_POINT


def test_non_finite_covariant_derivative_reported_at_its_first_point():
    # frame 2 I, so Gamma = 0; v = (0, 7.5e307 x1^2) and its x1-partial
    # 1.5e308 x1 are finite, E_1(v^2) = 2 * 1.5e308 x1 overflows
    model = td.chart_model("doubled", (1.0, 1.0), [["2", "0"], ["0", "2"]])
    split = td.foliation_split(2, {0})
    field = td.vector_field(["0", "7.5e307*x1*x1"], model)
    grid = td.sample_grid(model, OVERFLOW_SHAPE)
    for call in (td.check_basic, td.classify_divergence):
        with pytest.raises(td.DomainError) as info:
            call(model, split, field, grid)
        assert str(info.value) == f"non-finite covariant derivative at {OVERFLOW_POINT}"
        assert info.value.point == OVERFLOW_POINT


def test_not_basic_reported_at_the_reference_worst_point():
    model, split = td.builtin_model("torus-warped")
    # residual 3 x1^2 e^{-f(x2)}: largest at the last x1 and x2 = 0.75,
    # where f = 0.3 sin(2 pi x2) is smallest
    field = td.vector_field(["0", "x1*x1*x1"], model)
    grid = td.sample_grid(model, (30, 22))
    residuals = ref_sweep(model, split, field, point_tuples(grid))["residual"]
    worst = point_tuples(grid)[int(np.argmax(residuals))]
    assert worst[1] == 0.75
    with pytest.raises(td.NotBasicError) as info:
        td.classify_divergence(model, split, field, grid)
    assert info.value.check.worst_point == worst
    assert_close(
        np.array([info.value.check.worst]), np.array([residuals.max()]), "residual"
    )


def test_tied_residuals_report_the_first_point():
    model, split = td.builtin_model("flat-kronecker")
    field = td.vector_field(["0", "x1"], model)  # E_1(x1) = cos(pi/8) everywhere
    grid = td.sample_grid(model, (25, 25))
    check = td.check_basic(model, split, field, grid)
    assert check.worst_point == point_tuples(grid)[0]
    assert check.worst == math.cos(math.pi / 8)
