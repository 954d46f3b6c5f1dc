"""Verdict classification, candidate fields, quadrature, covers."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.tautness import TautnessClass, compare_with_cover

from generators import (
    BENCH_TORI, bench_torus_case, lattice_rows, point_tuples, projected, random_admissible_matrix,
    swept_rows,
)

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
    for point in point_tuples(grid):
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
    assert info.value.check.worst > 0


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
        grid = td.Grid([[0.25, 0.75]])
        residuals = np.array([0.0, math.nan])
        found = td.model._first_non_finite(None, grid, residuals)
        td.model.basic_field_check(found, td.model._greatest(None, grid, residuals), len(grid))


JACOBI_OVERFLOWS = "non-finite Jacobi residual |cyclic sum C_ij^m C_mk^l| at ()"


def test_library_calls_refuse_overflow_without_numpy_warnings():
    # each call silences NumPy's floating-point warnings around its own
    # arithmetic, so with every warning an error an overflow is still the
    # DomainError, and the message, that the CLI reports
    flat = td.chart_model("flat", (1.0,) * 3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    split = td.foliation_split(3, {0})
    field = td.vector_field(["0", "1.5e308*x2", "1.5e308*x3"], flat)
    big = td.constant_structure_model("big", 3, [(0, 1, 2, 1e200), (0, 2, 1, 1e200), (1, 2, 0, 1e200)])
    point = td.sample_grid(big, 1)
    calls = [
        (lambda: td.classify_divergence(flat, split, field, td.sample_grid(flat, 4)),
         "non-finite div^Q v at (0.125, 0.125, 0.125)"),
        (lambda: td.green_check(flat, split, field, 4),
         "non-finite term of the integral of div^Q v dmu at (0.125, 0.125, 0.125)"),
        (lambda: td.validate_model(big, split, point), JACOBI_OVERFLOWS),
        (lambda: td.classify_divergence(big, split, td.alvarez_candidate(big, split), point),
         JACOBI_OVERFLOWS),
    ]
    # the cover's lattice passes the float range, as Python's floats do,
    # and is refused, with no warning either
    wide = td.chart_model("wide", (1.0, 5e307), [["1", "0"], ["0", "1"]])
    wide_split = td.foliation_split(2, {0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in calls:
            with pytest.raises(td.DomainError) as info:
                call()
            assert str(info.value) == message
        refusal = r"^lattice coordinates of periods \(1.0, 1e\+308\) pass the float range$"
        with pytest.raises(td.ModelError, match=refusal):
            compare_with_cover(wide, wide_split, td.vector_field(["0", "1"], wide), 1, 2, 4)


def test_nan_field_is_refused_not_classified(torus):
    # inf - inf: once classified MixedSign with min inf and max -inf
    model, split = torus
    field = td.vector_field(["0", "1e200*1e200*x2 - 1e200*1e200*x2"], model)
    with pytest.raises(td.DomainError):
        td.classify_divergence(model, split, field, td.sample_grid(model, 4))


@pytest.mark.parametrize("tol", [-5.0, -1e-9, math.nan])
def test_negative_tolerance_is_refused(t3a, kronecker, tol):
    # at tol = -5 the one-point t3a grid (value 0.926) read MIXED SIGN,
    # and flat-kronecker's identically zero divergence did at -1e-9
    for model, split in (t3a, kronecker):
        tau = td.alvarez_candidate(model, split)
        grid = td.sample_grid(model, 4)
        for call in (td.classify_divergence, td.volume_preservation_check):
            with pytest.raises(td.ModelError, match="tolerance must be a non-negative number"):
                call(model, split, tau, grid, tol)
    model, split = kronecker
    with pytest.raises(td.ModelError, match="tolerance"):
        compare_with_cover(model, split, td.alvarez_candidate(model, split), 1, 2, 4, tol)


def test_infinite_tolerance_is_refused(t3a, kronecker):
    # at tol = inf the one-point t3a grid (value 0.926) read IDENTICALLY ZERO
    model, split = t3a
    tau = td.alvarez_candidate(model, split)
    grid = td.sample_grid(model, 1)
    for call in (td.classify_divergence, td.volume_preservation_check):
        with pytest.raises(td.ModelError, match="must be a non-negative number and finite, got inf"):
            call(model, split, tau, grid, math.inf)
    model, split = kronecker
    with pytest.raises(td.ModelError, match="tolerance"):
        compare_with_cover(model, split, td.alvarez_candidate(model, split), 1, 2, 4, math.inf)


def test_classify_empty_grid_refused(torus):
    # an empty axis once reached validate_model's reduction (TypeError)
    # on a chart, and read INCONCLUSIVE on a constant-structure model
    model, split = torus
    tau = td.alvarez_candidate(model, split)
    with pytest.raises(td.ModelError, match=r"^resolution entries must be >= 1, got \(0, 4\)$"):
        td.classify_divergence(model, split, tau, td.Grid([np.array([]), np.arange(4) / 4]))
    assert [kind.value for kind in TautnessClass] == [
        "IdenticallyZero", "MixedSign", "NonTautWitness", "NegatedNonTautWitness",
    ]


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


def literal_table_candidate(model, split):
    """The candidate as folded from a full table of n^3 literals."""
    table = td.model._constant_table(model)
    literals = [[[expr.as_expr(value) for value in row] for row in plane] for plane in table]
    components = []
    for k in range(model.dim):
        total = expr.ZERO
        if k in split.transverse:
            for a in split.leaf_ordered:
                total = expr.add(total, literals[k][a][a])
        components.append(total)
    return td.VectorFieldSpec(components=tuple(components))


def constant_cases():
    yield td.builtin_model("t3a")
    yield td.builtin_model("suspension-3")
    rng = random.Random(17)
    for n in range(2, td.spectral.MAX_DIM + 1):  # suspensions of dim 3..9
        matrix = random_admissible_matrix(rng, n)
        for leaf_index in (1, n):
            yield td.load_model(td.build_suspension(matrix, leaf_index))
    # stored zeros complete to -0.0; a two-dimensional leaf folds literals
    yield (
        td.constant_structure_model("zeros", 4, [(0, 2, 0, 0.0), (1, 2, 1, 0.5), (1, 3, 1, 0.0)]),
        td.model.foliation_split(4, {0, 1}),
    )


def test_alvarez_candidate_of_constant_models_skips_the_symbolic_table(monkeypatch):
    def forbidden(model):
        raise AssertionError("symbolic structure functions built for a constant model")

    monkeypatch.setattr(td.tautness, "structure_functions_symbolic", forbidden)
    signed_zero = False
    for model, split in constant_cases():
        candidate = td.alvarez_candidate(model, split)
        # repr tells -0.0 from 0.0, where Literal equality does not
        assert repr(candidate) == repr(literal_table_candidate(model, split))
        signed_zero |= "Literal(value=-0.0)" in repr(candidate)
    assert signed_zero


def test_symbolic_structure_functions_need_a_chart(t3a):
    with pytest.raises(td.ModelError, match="chart"):
        td.model.structure_functions_symbolic(t3a[0])


@pytest.fixture(scope="module")
def leafwise_warp():
    # a warp varying along the leaves makes kappa# = -f_y(x, y) E2
    # leafwise-dependent, so every consumer must refuse the candidate
    model = td.chart_model(
        "leafwise-warp",
        (1.0, 1.0),
        [["exp(-(0.3*sin(2*pi*x1)*sin(2*pi*x2)))", "0"], ["0", "1"]],
    )
    split = td.foliation_split(2, {0})
    return model, split, td.alvarez_candidate(model, split)


def test_classify_refuses_nonbasic_mean_curvature(leafwise_warp):
    model, split, tau = leafwise_warp
    with pytest.raises(td.NotBasicError, match="field is not basic"):
        td.classify_divergence(model, split, tau, td.sample_grid(model, 8))


def test_green_refuses_nonbasic_mean_curvature(leafwise_warp):
    model, split, tau = leafwise_warp
    with pytest.raises(td.NotBasicError, match="field is not basic"):
        td.green_check(model, split, tau, (8, 8))


def test_volume_check_refuses_nonbasic_mean_curvature(leafwise_warp):
    model, split, tau = leafwise_warp
    with pytest.raises(td.NotBasicError, match="field is not basic"):
        td.volume_preservation_check(model, split, tau, td.sample_grid(model, 8))


def test_cover_refuses_nonbasic_mean_curvature(leafwise_warp):
    model, split, tau = leafwise_warp
    with pytest.raises(td.NotBasicError, match="field is not basic"):
        compare_with_cover(model, split, tau, 0, 2, 8)


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
    lifted = td.lift_to_cover(model, 1, 3)
    up = td.transverse_divergence(lifted, split, field, (0.2, 1.25))
    down = td.transverse_divergence(model, split, field, (0.2, 0.25))
    assert abs(up - down) <= 1e-12


def test_identity_cover_unchanged(torus):
    # a 1-fold lift is a chart on the base's periods, so it sweeps to the
    # base's bits
    model, split = torus
    field = td.alvarez_candidate(model, split)
    same = td.lift_to_cover(model, 1, 1)
    assert same.periods == model.periods and same.frame == model.frame

    def divergence(block):
        return block.divergence(split.transverse_ordered)

    (lifted,) = swept_rows(same, td.sample_grid(same, (4, 16)), divergence, field_spec=field)
    (base,) = swept_rows(model, td.sample_grid(model, (4, 16)), divergence, field_spec=field)
    assert np.array_equal(lifted.view(np.int64), base.view(np.int64))


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_cover_equivariance(torus, fold):
    model, split = torus
    fields = [
        td.vector_field(["0", "cos(2*pi*x2)"], model),
        td.vector_field(["0", "0.6"], model),
        td.alvarez_candidate(model, split),
    ]
    for field in fields:
        lifted = td.lift_to_cover(model, 1, fold)
        grid = td.sample_grid(lifted, (2, 16 * fold))
        for point in point_tuples(grid):
            down = projected(point, 1, model.periods[1])
            difference = abs(
                td.transverse_divergence(lifted, split, field, point)
                - td.transverse_divergence(model, split, field, down)
            )
            assert difference <= 1e-12


@pytest.mark.parametrize("coord, fold, resolution", [(0, 2, 8), (1, 3, (4, 12)), (1, 5, 16)])
def test_cover_pointwise_difference_is_rounding(torus, kronecker, coord, fold, resolution):
    # the lift evaluates the base's expressions at its own coordinates, so
    # on these periodic fields the difference is rounding, not 0 by
    # construction (it is 0 along x1 on torus-warped, where no expression
    # reads x1)
    for model, split in (torus, kronecker):
        for field in (
            td.alvarez_candidate(model, split),
            td.vector_field(["0", "0.3*sin(2*pi*x2)"] if model.name == "torus-warped" else ["0", "0.6"], model),
        ):
            comparison = compare_with_cover(model, split, field, coord, fold, resolution)
            assert comparison.max_pointwise_difference <= 1e-12


@pytest.mark.parametrize("coord", [0, 1])
@pytest.mark.parametrize("fold", [2, 3])
def test_cover_wrap_is_python_modulo_everywhere(torus, monkeypatch, coord, fold):
    # the rows compare_with_cover projects take the unrolled coordinate
    # modulo the base period, the bits of Python's %, while the cover's
    # blocks evaluate its own coordinates, past the base period unwrapped
    model, split = torus
    field = td.alvarez_candidate(model, split)
    swept = []
    sweep = td.tautness.sweep

    def spy(swept_model, grid, *reads, **options):
        swept.append((swept_model, grid))
        return sweep(swept_model, grid, *reads, **options)

    monkeypatch.setattr(td.tautness, "sweep", spy)
    period = model.periods[coord]
    for resolution in (8, (5, 7)):
        swept.clear()
        compare_with_cover(model, split, field, coord, fold, resolution)
        base_rows = lattice_rows([grid for swept_model, grid in swept if swept_model is model][-1])
        cover = td.lift_to_cover(model, coord, fold)
        grid = td.sample_grid(cover, resolution)
        # the cover's grid is one lattice block, each coordinate on its own axis
        (block,) = td.model._lattice_blocks(grid, len(grid))
        env = td.model._block_env(cover, block)
        columns = [np.broadcast_to(env[name], block.resolution).ravel() for name in cover.coordinate_names()]
        moved = 0
        for index, point in enumerate(point_tuples(grid)):
            down = projected(point, coord, period)
            moved += down != point
            assert [float(x).hex() for x in base_rows[index]] == [x.hex() for x in down]
            assert [float(column[index]).hex() for column in columns] == [x.hex() for x in point]
        assert len(base_rows) == len(point_tuples(grid)) and moved > 0
        assert grid.axes[coord].max() > period


def green_cover_cases():
    """torus-warped, flat-kronecker and the tori of the chart benchmarks,
    each with a basic field."""
    rng = random.Random(35)
    model, split = td.builtin_model("torus-warped")
    yield model, split, td.vector_field(["0", "cos(2*pi*x2)"], model)
    model, split = td.builtin_model("flat-kronecker")
    yield model, split, td.vector_field(["0", "0.6"], model)
    for kind in BENCH_TORI:
        yield bench_torus_case(rng, kind)


@pytest.mark.parametrize("coord", [0, 1])
@pytest.mark.parametrize("fold", [2, 3])
def test_the_green_sums_of_a_cover_are_fold_times_the_base_sums(coord, fold):
    # the cover's cell centres at fold * n points along coord are the
    # base's at n shifted by whole base periods, once per sheet, so on a
    # periodic chart both Green sums on the cover are fold times the base's
    n, nonzero = 6, 0
    for model, split, field in green_cover_cases():
        base = td.green_check(model, split, field, n)
        cover = td.lift_to_cover(model, coord, fold)
        resolution = [n] * model.dim
        resolution[coord] *= fold
        lifted = td.green_check(cover, split, field, tuple(resolution))
        for up, down in ((lifted.lhs, base.lhs), (lifted.rhs, base.rhs)):
            assert abs(up - fold * down) <= 1e-12 * max(1.0, abs(fold * down))
            nonzero += abs(down) > 1e-3
    assert nonzero >= 4


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
    for point in point_tuples(grid):
        difference = abs(
            td.transverse_divergence(model, split, averaged, point)
            - td.transverse_divergence(model, split, field, point)
        )
        assert difference <= 1e-12


def test_lift_requires_chart(t3a):
    model, _ = t3a
    with pytest.raises(td.ModelError):
        td.lift_to_cover(model, 0, 2)


def test_a_cover_whose_period_overflows_is_refused():
    model = td.chart_model("huge", (1e308, 1.0), [["1", "0"], ["0", "1"]])
    with pytest.raises(td.ModelError, match=r"^periods must be positive and finite, got \(inf, 1\.0\)$"):
        td.lift_to_cover(model, 0, 2)


def test_lift_of_lift_wraps_to_base(torus):
    model, split = torus
    field = td.vector_field(["0", "cos(2*pi*x2)"], model)
    again = td.lift_to_cover(td.lift_to_cover(model, 1, 2), 1, 2)
    four = td.lift_to_cover(model, 1, 4)
    assert again.periods == four.periods == (1.0, 4.0)
    up = td.transverse_divergence(again, split, field, (0.1, 3.25))
    down = td.transverse_divergence(model, split, field, (0.1, 0.25))
    assert abs(up - down) <= 1e-12

    # a 2-fold lift of a 2-fold lift sweeps to the bits of the 4-fold lift
    def divergence(block):
        return block.divergence(split.transverse_ordered)

    (twice,) = swept_rows(again, td.sample_grid(again, (4, 32)), divergence, field_spec=field)
    (once,) = swept_rows(four, td.sample_grid(four, (4, 32)), divergence, field_spec=field)
    assert np.array_equal(twice.view(np.int64), once.view(np.int64))


# --- witness consistency on suspensions ---------------------------------------------------

def test_witness_consistency_random_suspensions():
    rng = random.Random(29)
    for n in (2, 3):
        matrix = random_admissible_matrix(rng, n)
        for leaf_index in range(1, n + 1):
            model, split = td.load_model(td.build_suspension(matrix, leaf_index))
            tau = td.alvarez_candidate(model, split)
            verdict = td.classify_divergence(model, split, tau, td.sample_grid(model, 1))
            assert verdict.classification is TautnessClass.NON_TAUT_WITNESS
            comps = np.array(
                [td.evaluate(c, dict(model.parameters)) for c in tau.components]
            )
            assert abs(verdict.max_value - float(comps @ comps)) <= 1e-12
            assert abs(verdict.max_value - verdict.min_value) <= 1e-12
