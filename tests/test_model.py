"""Models, splits, grids, structure functions, basic-field test, documents."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.model import _lattice
from transdiv.records import check_line

from generators import identity_cases, kept, point_env, point_tuples, swept_rows

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
    model, split = td.load_model(td.build_suspension(((3, 2), (1, 1)), 2))
    table = td.structure_functions(model, ())
    # trace 4, det 1: eigenvalues (4 +/- sqrt(12)) / 2
    big = (4 + math.sqrt(12)) / 2
    assert abs(table[0, 2, 2] - math.log(big)) < 1e-12
    assert split.leaf_ordered == (2,)
    with pytest.raises(td.InadmissibleMatrixError):
        td.build_suspension(((0, -1), (1, 0)), 2)


def test_builtin_torus_configurable_warp():
    # torus-warped's document with the warp f = 0.1 cos(2 pi x2)
    model, split = td.load_model({
        "name": "torus-warped",
        "kind": "chart",
        "dim": 2,
        "leaf_indices": [1],
        "periods": [1.0, 1.0],
        "frame": ["exp(-(0.1*cos(2*pi*x2)))", "0", "0", "1"],
    })
    kappa = td.mean_curvature(model, split.leaf_ordered, (0.5, 0.25))
    slope = -0.1 * 2 * math.pi * math.sin(2 * math.pi * 0.25)
    assert abs(kappa[1] - (-slope)) < 1e-12


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_a_structure_constant_that_is_not_a_finite_float_is_refused(value):
    # as load_model refuses it in a document, so no sweep checks C again
    with pytest.raises(td.ModelError, match=r"structure constant \(0,1,1\) must be finite"):
        td.constant_structure_model("huge", 2, [(0, 1, 1, value)])


@pytest.fixture
def allocation_guard(monkeypatch):
    """Fail the test if NumPy is asked for an array of more than
    model.BLOCK_VALUES values."""
    def guarded(allocate):
        def allocation(shape, *args, **kwargs):
            size = math.prod(shape) if isinstance(shape, (tuple, list)) else shape
            assert size <= td.model.BLOCK_VALUES, f"NumPy asked for {size} values"
            return allocate(shape, *args, **kwargs)
        return allocation

    for name in ("zeros", "empty", "ones", "full"):
        monkeypatch.setattr(np, name, guarded(getattr(np, name)))


def test_the_dim_bound_is_the_largest_whose_table_fits_a_block():
    bound = td.model.MAX_CONSTANT_DIM
    assert bound**3 <= td.model.BLOCK_VALUES < (bound + 1) ** 3
    assert bound == 96


@pytest.mark.parametrize("dim", [97, 2000])
def test_a_constant_structure_dim_past_the_bound_is_one_schema_error(allocation_guard, dim):
    # refused before any table is made: a dim-2000 document would ask
    # NumPy for 8e9 values
    document = {
        "name": "wide", "kind": "constant_structure", "dim": dim, "leaf_indices": [1],
        "structure_constants": [{"i": 1, "j": 2, "k": 3, "value": 1.0}],
    }
    message = (
        "model document for 'wide' is invalid: 'dim' must be at most 96 for a constant-structure "
        f"model (its dim^3 table of C within BLOCK_VALUES = 900000 values), got {dim}"
    )
    with pytest.raises(td.SchemaError) as raised:
        td.load_model(document)
    # the command line prints it: test_cli.REFUSALS["document/constant-dim-*"]
    assert str(raised.value) == message


def test_a_constant_structure_model_at_the_bound_loads():
    model = td.constant_structure_model("widest", 96, [(0, 1, 95, 1.0)])
    assert model.dim == 96
    with pytest.raises(td.ModelError, match="'dim' must be at most 96"):
        td.constant_structure_model("wider", 97, [(0, 1, 95, 1.0)])


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


def test_singular_frame_loads_and_is_refused_by_the_verdict():
    # det A = x1 vanishes only at the corners x1 = 0: the load evaluates
    # nothing, and the verdict's gate refuses the model on its grid
    document = {
        "name": "pinched",
        "kind": "chart",
        "dim": 2,
        "leaf_indices": [1],
        "periods": [1.0, 1.0],
        "frame": ["x1", "0", "0", "1"],
    }
    model, split = td.load_model(document)
    grid = td.sample_grid(model, 8)
    (check,) = td.validate_model(model, split, grid)
    assert not check.passed and check.worst_point == (0.0, 0.0)
    field = td.vector_field(["0", "1"], model)
    with pytest.raises(td.ModelError) as info:
        td.classify_divergence(model, split, field, grid)
    assert str(info.value) == check_line(check)


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


def test_a_cover_round_trips_through_a_model_file(torus):
    # a cover is an ordinary chart, so its model file loads to a model
    # that sweeps to the lift's bits
    model, split = torus
    lifted = td.lift_to_cover(model, 1, 2)
    document = json.loads(json.dumps(td.model_to_document(lifted, split)))
    again, split_again = td.load_model(document)
    assert split_again == split and document["periods"] == [1.0, 2.0]
    grid = td.sample_grid(again, (6, 16))

    def divergence(block):
        return block.divergence(split.transverse_ordered)

    def bits(swept):
        tau = td.alvarez_candidate(swept, split)
        rows = swept_rows(swept, grid, lambda block: block.c, divergence, field_spec=tau)
        return [values.view(np.int64) for values in rows]

    assert all(map(np.array_equal, bits(again), bits(lifted)))


# --- grids -------------------------------------------------------------------

def test_sample_grid_cell_centers(torus):
    model, _ = torus
    grid = td.sample_grid(model, (4, 4))
    assert len(grid) == 16
    expected = {((j + 0.5) / 4, (k + 0.5) / 4) for j in range(4) for k in range(4)}
    assert set(point_tuples(grid)) == expected


def test_sample_grid_constant_model(t3a):
    model, _ = t3a
    grid = td.sample_grid(model, 99)
    assert point_tuples(grid) == ((),)


def test_sample_grid_line(torus):
    model, _ = torus
    grid = td.sample_grid(model, (1, 256))
    assert len(grid) == 256
    assert all(point[0] == 0.5 for point in point_tuples(grid))


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
            # C_ji^k is the negation of C_ij^k, exactly
            table = td.structure_functions(model, point)
            assert np.array_equal(table.transpose((1, 0, 2)), -table)


def test_symbolic_structure_functions_match_numeric(torus):
    model, _ = torus
    symbolic = td.model.structure_functions_symbolic(model)
    for point in [(0.1, 0.3), (0.8, 0.62)]:
        numeric = td.structure_functions(model, point)
        env = point_env(model, point)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    value = expr.evaluate(symbolic[i][j][k], env)
                    assert abs(value - numeric[i, j, k]) < 1e-12


# --- validation ----------------------------------------------------------------

def test_validate_t3a(t3a):
    model, split = t3a
    report = td.validate_model(model, split, td.sample_grid(model, 1))
    assert all(c.passed for c in report)
    # the table is antisymmetric by construction, so only Jacobi is checked
    assert [check.name for check in report] == ["jacobi_identity"]


def test_validate_so3_jacobi():
    model = td.constant_structure_model(
        "so3", 3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]
    )
    report = td.validate_model(model, td.foliation_split(3, {0}), td.sample_grid(model, 1))
    assert all(c.passed for c in report)


def test_validate_broken_jacobi():
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1: the cyclic sum equals 2 e1 on
    # (e1,e2,e3), so this is not a Lie algebra
    model = td.constant_structure_model(
        "not-a-lie-algebra", 3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0)]
    )
    report = td.validate_model(model, td.foliation_split(3, {0}), td.sample_grid(model, 1))
    jacobi = [c for c in report if c.name == "jacobi_identity"][0]
    assert not jacobi.passed


def whole_jacobi_residual(table):
    """The oracle: the largest |cyclic sum C_ij^m C_mk^l| from the three
    dim^4 einsums over every i at once."""
    cyclic = (
        np.einsum("ijm,mkl->ijkl", table, table)
        + np.einsum("jkm,mil->ijkl", table, table)
        + np.einsum("kim,mjl->ijkl", table, table)
    )
    return float(np.max(np.abs(cyclic)))


@pytest.mark.parametrize("dim", range(2, 13))
def test_the_jacobi_residual_in_runs_of_i_is_the_whole_tables(monkeypatch, dim):
    # the record sums runs of max(1, BLOCK_VALUES // dim^3) values of i;
    # every run length 1..dim must give the bits of the whole table's
    # residual, on dense and sparse drawn tables of magnitudes 1e-3..1e3
    rng = random.Random(dim)
    for density in (1.0, 0.3, 0.1):
        constants = [
            (i, j, k, rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-3.0, 3.0))
            for i in range(dim) for j in range(i + 1, dim) for k in range(dim)
            if rng.random() < density
        ]
        model = td.constant_structure_model("drawn", dim, constants)
        expected = whole_jacobi_residual(td.model._constant_table(model))
        (record,) = td.model.hypotheses(model, td.foliation_split(dim, {0}))
        for run in range(1, dim + 1):
            monkeypatch.setattr(td.model, "BLOCK_VALUES", run * dim**3)
            check = record.judge(td.sample_grid(model, 1), [])
            assert check.worst.hex() == expected.hex(), (density, run)


def test_validate_chart_checks_only_invertibility(torus):
    # a chart's C_ji^k is the tree that negates C_ij^k, so charts carry no
    # antisymmetry check
    model, split = torus
    report = td.validate_model(model, split, td.sample_grid(model, 8))
    assert all(c.passed for c in report)
    assert [check.name for check in report] == ["frame_invertibility"]


def test_validate_singular_frame_near_zero():
    model = td.chart_model("pinched", (1.0, 1.0), [["x1", "0"], ["0", "1"]])
    report = td.validate_model(model, td.foliation_split(2, {0}), td.sample_grid(model, 8))
    invertibility = [c for c in report if c.name == "frame_invertibility"][0]
    assert not invertibility.passed
    assert invertibility.worst_point[0] == 0.0  # the corner probe at x1 = 0


def test_validate_reports_first_failing_probe():
    # ln(x1) is fine at every cell centre and fails at the corner x1 = 0
    model = td.chart_model("log-frame", (1.0, 1.0), [["2 + ln(x1)", "0"], ["0", "1"]])
    report = td.validate_model(model, td.foliation_split(2, {0}), td.sample_grid(model, 8))
    invertibility = [c for c in report if c.name == "frame_invertibility"][0]
    assert not invertibility.passed
    assert invertibility.worst_point == (0.0, 0.0)
    assert "frame evaluation failed" in invertibility.detail


def test_corner_probe_includes_origin(torus):
    model, _ = torus
    corners = _lattice(model, td.sample_grid(model, 8).resolution, 0.0)
    assert (0.0, 0.0) in point_tuples(corners)


# --- basic-field test -----------------------------------------------------------

def test_check_basic_t3a_e1(t3a):
    model, split = t3a
    grid = td.sample_grid(model, 1)
    field = td.vector_field([1, 0, 0], model)
    report = td.check_basic(model, split, field, grid)
    assert report.passed
    assert report.worst == 0.0


def test_check_basic_torus(torus):
    model, split = torus
    grid = td.sample_grid(model, 12)
    basic = td.vector_field(["0", "exp(sin(2*pi*x2))"], model)
    assert td.check_basic(model, split, basic, grid).passed
    leafwise_varying = td.vector_field(["0", "cos(2*pi*x1)"], model)
    report = td.check_basic(model, split, leafwise_varying, grid)
    assert not report.passed
    assert report.worst > 1e-3


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
    assert report_sum.worst <= (
        td.check_basic(model, split, v, grid).worst
        + report_w.worst
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


def test_sweep_refuses_a_field_without_the_structure(torus):
    # a field's rows need Gamma, so a field sweep needs the structure
    model, split = torus
    field = td.alvarez_candidate(model, split)
    grid = td.sample_grid(model, 2)
    with pytest.raises(td.ModelError, match="needs the structure"):
        td.model.sweep(model, grid, kept(lambda block: block.rows), field_spec=field, structure=False)
    (dets,) = swept_rows(model, grid, lambda block: block.det, structure=False)
    assert dets.shape == (4,)


#: Library calls that raise ModelError, each given the builtins
#: torus-warped and t3a, with the message it raises
LIBRARY_REFUSALS = {
    "constant-dim": (lambda *_: td.constant_structure_model("c", 0, []), "dimension must be positive, got 0"),
    "constant-index": (
        lambda *_: td.constant_structure_model("c", 3, [(0, 3, 1, 1.0)]),
        "structure-constant index (0,3,1) out of range",
    ),
    "constant-order": (
        lambda *_: td.constant_structure_model("c", 3, [(1, 0, 2, 1.0)]),
        "structure constants are stored with i < j, got (1,0,2)",
    ),
    "constant-duplicate": (
        lambda *_: td.constant_structure_model("c", 3, [(0, 1, 1, 1.0), (0, 1, 1, 2.0)]),
        "duplicate structure constant (0,1,1)",
    ),
    "chart-dim": (lambda *_: td.chart_model("c", (), []), "chart model needs at least one coordinate"),
    "chart-period": (
        lambda *_: td.chart_model("c", (1.0, 0.0), [["1", "0"], ["0", "1"]]),
        "periods must be positive and finite, got (1.0, 0.0)",
    ),
    "chart-infinite-period": (
        lambda *_: td.chart_model("c", (math.inf, 1.0), [["1", "0"], ["0", "1"]]),
        "periods must be positive and finite, got (inf, 1.0)",
    ),
    "chart-frame-shape": (
        lambda *_: td.chart_model("c", (1.0, 1.0), [["1", "0"]]), "frame must be a 2x2 matrix of expressions",
    ),
    # a parameter is refused by the rule load_model applies to a document's
    "parameter-past-the-float-range": (
        lambda *_: td.chart_model("c", (1.0,), [["1"]], parameters={"p": 10**400}),
        f"parameter 'p': {10**400!r} is not a finite number",
    ),
    "parameter-string": (
        lambda *_: td.constant_structure_model("c", 2, [], parameters={"p": "abc"}),
        "parameter 'p': 'abc' is not a finite number",
    ),
    "parameter-nan": (
        lambda *_: td.chart_model("c", (1.0,), [["1"]], parameters={"p": math.nan}),
        "parameter 'p': nan is not a finite number",
    ),
    "parameter-inf": (
        lambda *_: td.constant_structure_model("c", 2, [], parameters={"p": math.inf}),
        "parameter 'p': inf is not a finite number",
    ),
    "parameter-bool": (
        lambda *_: td.chart_model("c", (1.0,), [["1"]], parameters={"p": True}),
        "parameter 'p': True is not a finite number",
    ),
    "split-index": (lambda *_: td.foliation_split(2, {2}), "leaf indices [2] out of range for dim 2"),
    "split-negative": (lambda *_: td.foliation_split(2, {-1, 0}), "leaf indices [-1, 0] out of range for dim 2"),
    "sweep-field": (
        lambda torus, _: td.model.sweep(torus[0], td.sample_grid(torus[0], 2), field_spec=td.vector_field([0] * 3)),
        "field has 3 components, model has dim 2",
    ),
    "frame-matrix": (lambda _, t3a: td.model.frame_matrix(t3a[0], ()), "frame matrix exists only for chart models"),
    "cover-coord": (lambda torus, _: td.lift_to_cover(torus[0], 2, 2), "coordinate 2 out of range for dim 2"),
    "cover-negative-coord": (
        lambda torus, _: td.lift_to_cover(torus[0], -1, 2), "coordinate -1 out of range for dim 2",
    ),
    "cover-fold": (lambda torus, _: td.lift_to_cover(torus[0], 0, 0), "fold must be a positive integer, got 0"),
    "mean-curvature-empty": (
        lambda torus, _: td.mean_curvature(torus[0], (), (0.5, 0.5)), "index set must be nonempty",
    ),
    "mean-curvature-index": (
        lambda torus, _: td.mean_curvature(torus[0], (0, 2), (0.5, 0.5)), "index set (0, 2) out of range for dim 2",
    ),
    "mean-curvature-negative": (
        lambda torus, _: td.mean_curvature(torus[0], (-1,), (0.5, 0.5)), "index set (-1,) out of range for dim 2",
    ),
}


def test_numpy_numbers_are_parameters():
    # the rule of a parameter is a real number that is not a bool, so
    # NumPy's integers and floats are parameters as Python's are
    model = td.chart_model("c", (1.0,), [["p + q"]], parameters={"p": np.int64(2), "q": np.float32(0.5)})
    assert model.parameters == {"p": 2.0, "q": 0.5}
    assert all(type(value) is float for value in model.parameters.values())


@pytest.mark.parametrize("call, message", LIBRARY_REFUSALS.values(), ids=LIBRARY_REFUSALS)
def test_a_library_refusal_raises_model_error_with_its_message(torus, t3a, call, message):
    with pytest.raises(td.ModelError) as raised:
        call(torus, t3a)
    assert str(raised.value) == message


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
        assert rt.worst <= rv.worst + rw.worst + 1e-12
        assert rt.passed
