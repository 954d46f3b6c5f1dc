"""Grids: the lattice against a reference built from Python floats, point
sets that must fit their model, and points that become tuples only
where they are reported, never one per grid point."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv.model import Grid, _lattice
from transdiv.tautness import compare_with_cover

from generators import point_tuples, run_cli


def reference_lattice(periods, resolution, offset):
    """The lattice as the Python-float product it is defined to equal."""
    axes = [
        tuple((j + offset) * length / n for j in range(n))
        for n, length in zip(resolution, periods)
    ]
    return tuple(itertools.product(*axes))


def hex_rows(rows):
    return [[float(x).hex() for x in row] for row in rows]


def box(periods):
    dim = len(periods)
    frame = [["1" if i == m else "0" for m in range(dim)] for i in range(dim)]
    return td.chart_model("box", periods, frame)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(
            st.lists(
                st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                min_size=dim,
                max_size=dim,
            ),
            st.lists(st.integers(1, 9), min_size=dim, max_size=dim),
        )
    )
)
def test_lattice_is_bit_identical_to_the_float_product(case):
    periods, resolution = case
    model = box(periods)
    grid = td.sample_grid(model, resolution)
    centers = reference_lattice(model.periods, resolution, 0.5)
    assert all(axis.dtype == np.float64 for axis in grid.axes)
    assert hex_rows(point_tuples(grid)) == hex_rows(centers)
    corners = point_tuples(_lattice(model, tuple(resolution), 0.0))
    assert hex_rows(corners) == hex_rows(reference_lattice(model.periods, resolution, 0.0))


def test_constant_model_grid_is_one_abstract_point():
    model, _ = td.builtin_model("t3a")
    grid = td.sample_grid(model, 7)
    assert grid.axes == () and grid.resolution == () and len(grid) == 1
    assert grid.point(0) == ()
    assert point_tuples(grid) == ((),)


def test_a_grid_is_its_axes():
    grid = Grid([[0.25, 0.75], np.arange(3)])
    assert grid.resolution == (2, 3) and len(grid) == 6
    assert all(axis.dtype == np.float64 for axis in grid.axes)
    assert grid.point(4) == (0.75, 1.0) and float_tuple(grid.point(4))
    assert [grid.point(p) for p in range(6)] == [
        (0.25, 0.0), (0.25, 1.0), (0.25, 2.0), (0.75, 0.0), (0.75, 1.0), (0.75, 2.0),
    ]


# --- a point set must fit its model ------------------------------------------------

def test_a_point_with_a_coordinate_too_many_is_refused():
    model, _ = td.builtin_model("torus-warped")
    with pytest.raises(td.ModelError, match="^points have 3 coordinates, model 'torus-warped' takes 2$"):
        td.model.frame_matrix(model, (0.5, 0.5, 0.5))


def test_a_point_with_a_coordinate_too_few_is_refused():
    model, split = td.builtin_model("torus-warped")
    with pytest.raises(td.ModelError, match="^points have 1 coordinates, model 'torus-warped' takes 2$"):
        td.model.frame_matrix(model, (0.5,))
    with pytest.raises(td.ModelError, match="takes 2$"):
        td.classify_divergence(model, split, td.alvarez_candidate(model, split), Grid([[0.5]]))


def test_a_constant_structure_model_takes_only_the_point_of_no_coordinates():
    model, split = td.builtin_model("t3a")
    with pytest.raises(td.ModelError, match="^points have 1 coordinates, model 't3a' takes 0$"):
        td.structure_functions(model, (0.5,))
    with pytest.raises(td.ModelError, match="takes 0$"):
        td.classify_divergence(model, split, td.alvarez_candidate(model, split), Grid([[0.5], [0.5]]))
    assert td.structure_functions(model, ()).shape == (3, 3, 3)


@pytest.mark.parametrize("axes", [[[]], [[0.5], []], [np.arange(0), np.arange(4)]])
def test_an_empty_axis_is_refused(axes):
    with pytest.raises(td.ModelError, match=r"^resolution entries must be >= 1, got \("):
        Grid(axes)


# --- no sweep consumer turns its grid into tuples ------------------------------------

#: Most points one call reports: an argmin, an argmax and a worst basic
#: residual, for a cover and for its base, and the worst probe of the
#: base's hypothesis gate.  Every chart grid here has more points than
#: that.
REPORTED = 7


@pytest.fixture
def points_unread(monkeypatch):
    """The points turned into tuples so far (``Grid.point``, which gives
    a block's first point too, and ``model._point`` in every module that
    binds it): a consumer that turned every grid point into one would
    add one per point."""
    converted = []
    point, located = Grid.point, td.model._point

    def point_spy(grid, index):
        converted.append(index)
        return point(grid, index)

    def located_spy(block, shape, index):
        converted.append(index)
        return located(block, shape, index)

    monkeypatch.setattr(Grid, "point", point_spy)
    for module in (td.model, td.tautness):
        monkeypatch.setattr(module, "_point", located_spy)
    return converted


def reported_only(converted):
    assert len(converted) <= REPORTED
    converted.clear()


def test_library_sweeps_do_not_read_grid_points(points_unread):
    for name in ("torus-warped", "flat-kronecker", "t3a"):
        model, split = td.builtin_model(name)
        tau = td.alvarez_candidate(model, split)
        grid = td.sample_grid(model, (4, 6))
        calls = [
            lambda: td.classify_divergence(model, split, tau, grid),
            lambda: td.check_basic(model, split, tau, grid),
            lambda: td.volume_preservation_check(model, split, tau, grid),
            lambda: td.validate_model(model, split, grid),
        ]
        if model.is_chart:
            calls.append(lambda: td.green_check(model, split, tau, (4, 6)))
            calls.append(lambda: compare_with_cover(model, split, tau, 1, 2, (4, 6)))
        for call in calls:
            call()
            reported_only(points_unread)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "torus-warped", "--grid", "4,6"),
        ("analyze", "t3a"),
        ("taut-check", "torus-warped", "--field", "alvarez", "--grid", "4,6"),
        ("taut-check", "t3a", "--field", "alvarez"),
        ("green-check", "torus-warped", "--field", "alvarez", "--grid", "4,6"),
        ("volume-check", "flat-kronecker", "--field", "alvarez", "--grid", "4"),
        ("volume-check", "suspension-3", "--field", "alvarez"),
        ("cover", "torus-warped", "--field", "alvarez", "--coord", "2", "--fold", "3", "--grid", "4"),
        ("spectral", "--matrix", "2,1;1,1"),
    ],
)
def test_cli_does_not_read_grid_points(points_unread, argv):
    for fmt in ("text", "json"):
        code, _, err = run_cli(*argv, "--format", fmt)
        assert code == 0, err
        reported_only(points_unread)


def test_suspend_and_its_model_do_not_read_grid_points(points_unread, tmp_path):
    path = str(tmp_path / "suspension.json")
    assert run_cli("suspend", "--matrix", "2,1;1,1", "--leaf", "1", "-o", path)[0] == 0
    reported_only(points_unread)
    assert run_cli("taut-check", path, "--field", "alvarez")[0] == 0
    reported_only(points_unread)


# --- reported points render as Python float tuples ------------------------------------

def lines_with(text, prefix):
    return [line for line in text.splitlines() if line.lstrip().startswith(prefix)]


def test_verdict_points_render_as_tuples():
    for subcommand in ("taut-check", "volume-check"):
        _, out, _ = run_cli(subcommand, "torus-warped", "--field", "alvarez", "--grid", "4")
        assert lines_with(out, "div^Q v:") == [
            "div^Q v: min -8.37463703957 at (0.125, 0.875), "
            "max 8.37463703957 at (0.125, 0.125) (tolerance 1e-09)"
        ]
        _, out, _ = run_cli(subcommand, "t3a", "--field", "alvarez")
        assert lines_with(out, "div^Q v:") == [
            "div^Q v: min 0.926259282309 at (), max 0.926259282309 at () (tolerance 1e-09)"
        ]
    _, out, _ = run_cli("taut-check", "flat-kronecker", "--field", "alvarez", "--grid", "3,5")
    assert lines_with(out, "div^Q v:") == [
        "div^Q v: min 0 at (0.16666666666666666, 0.1), "
        "max 0 at (0.16666666666666666, 0.1) (tolerance 1e-09)"
    ]
    _, out, _ = run_cli(
        "taut-check", "torus-warped", "--field", "alvarez", "--grid", "4", "--format", "json"
    )
    payload = json.loads(out)
    assert (payload["argmin"], payload["argmax"]) == ([0.125, 0.875], [0.125, 0.125])


def test_validation_points_render_as_tuples():
    _, out, _ = run_cli("analyze", "torus-warped", "--grid", "4")
    assert lines_with(out, "frame_invertibility:") == [
        "  frame_invertibility: pass (min |det(frame)| over 32 probe points "
        "(threshold 1e-10), worst 7.408e-01 at (0.0, 0.25))"
    ]
    assert lines_with(out, "report point:") == ["report point: (0.125, 0.125)"]
    _, out, _ = run_cli("analyze", "t3a")
    assert lines_with(out, "jacobi_identity:") == [
        "  jacobi_identity: pass (max |cyclic sum C_ij^m C_mk^l| "
        "(threshold 1e-12), worst 0.000e+00 at ())"
    ]
    assert lines_with(out, "report point:") == ["report point: abstract"]
    _, out, _ = run_cli("analyze", "torus-warped", "--grid", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["validation"]["checks"][0]["worst_point"] == [0.0, 0.25]
    assert payload["report_point"] == [0.125, 0.125]


def test_basic_check_worst_point_renders_as_a_tuple():
    # the command line's refusal is test_cli.REFUSALS["basic/worst-point"]
    model, split = td.builtin_model("torus-warped")
    check = td.check_basic(model, split, td.vector_field(["0", "x1*x1*x1"], model), td.sample_grid(model, 4))
    assert check.worst_point == (0.875, 0.875)
    assert all(type(x) is float for x in check.worst_point)


def float_tuple(point):
    return type(point) is tuple and all(type(x) is float for x in point)


def test_failing_points_are_float_tuples():
    # det A = (2 + ln x1)(x2 - 0.25): ln fails at x1 = 0, and the frame is
    # singular on the line x2 = 0.25
    model = td.chart_model("log-pinched", (1.0, 1.0), [["2 + ln(x1)", "0"], ["0", "x2 - 0.25"]])
    with pytest.raises(td.DomainError) as info:
        td.model.sweep(model, Grid([[0.5, 0.0], [0.5, 0.75]]))
    assert str(info.value) == "ln of non-positive value 0.0 in 'ln(x1)'"
    assert info.value.point == (0.0, 0.5) and float_tuple(info.value.point)
    with pytest.raises(td.SingularFrameError) as info:
        td.model.sweep(model, Grid([[0.5], [0.5, 0.25]]))
    assert str(info.value) == "frame matrix is singular at (0.5, 0.25) (|det| = 0.000e+00)"
    assert info.value.point == (0.5, 0.25) and float_tuple(info.value.point)
    split = td.foliation_split(2, {0})
    report = td.validate_model(model, split, td.sample_grid(model, 4))
    (check,) = report
    assert check.worst_point == (0.0, 0.0) and float_tuple(check.worst_point)
    assert check.detail == "frame evaluation failed: ln of non-positive value 0.0 in 'ln(x1)'"
    # a frame that evaluates everywhere: the worst probe is a float tuple
    model = td.chart_model("pinched", (1.0, 1.0), [["1", "0"], ["0", "x2 - 0.25"]])
    (check,) = td.validate_model(model, split, td.sample_grid(model, 4))
    assert check.worst_point == (0.0, 0.25) and float_tuple(check.worst_point)
    with pytest.raises(td.SingularFrameError) as info:
        td.classify_divergence(model, split, td.vector_field(["0", "1"], model), td.sample_grid(model, (3, 2)))
    assert str(info.value) == (
        "frame matrix is singular at (0.16666666666666666, 0.25) (|det| = 0.000e+00)"
    )
    assert float_tuple(info.value.point)


def test_non_finite_values_are_reported_at_a_float_tuple():
    # the command line's refusal at (0.125, 0.125) is
    # test_cli.REFUSALS["sweep/non-finite-covariant-derivative"]
    model = td.constant_structure_model("huge", 3, [(0, 1, 2, 1e300)])
    split = td.foliation_split(3, {2})
    field = td.vector_field([1e300, 1e300, 0], model)
    with pytest.raises(td.DomainError) as info:
        td.classify_divergence(model, split, field, td.sample_grid(model, 1))
    assert str(info.value) == "non-finite covariant derivative at ()"


def test_verdict_points_are_float_tuples():
    model, split = td.builtin_model("torus-warped")
    verdict = td.classify_divergence(model, split, td.alvarez_candidate(model, split), td.sample_grid(model, 4))
    assert float_tuple(verdict.argmin) and float_tuple(verdict.argmax)
    model, split = td.builtin_model("t3a")
    verdict = td.classify_divergence(model, split, td.alvarez_candidate(model, split), td.sample_grid(model, 4))
    assert verdict.argmin == verdict.argmax == ()
