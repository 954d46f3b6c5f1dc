"""Grid reductions, the folds of a sweep, against the full grid.

A sweep gives each fold a read's values block by block, on the
sub-lattice of the coordinates it varies over.  Each fold of the
verdicts (the extremes of ``_classify`` and their first points, the
worst basic residual, the first non-finite point of ``require_finite``,
the Green sums of ``_integral`` and the smallest |det A| of the
``frame_invertibility`` record) must give the bits and the point that
the same reduction gives on the values broadcast to every grid point:
``np.argmin`` or ``np.argmax`` over the rows in point order, the grid's
points before its corners, or the correctly rounded exact sum.  The
values are drawn as tables on a drawn subset of the axes and folded in
real lattice sweeps of a flat box, in blocks as small as
``model.BLOCK_VALUES`` is set.  A verdict holds one block's values at a
time, not the lattice's.
"""

from __future__ import annotations

import contextlib
import fractions
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv import connection, tautness
from transdiv.cli import main
from transdiv.model import Fold, _block_plan, _first_non_finite, _greatest, _lattice, _least, sweep
from transdiv.tautness import _classify, _integral, _sum_step, compare_with_cover

from generators import kept, point_tuples

#: Axis lengths: 1, primes and other lengths that are not powers of two
LENGTHS = st.sampled_from([1, 2, 3, 5, 6, 7, 12])

#: Values with many ties: a few small integers, zeros of both signs,
#: and a tiny and a huge magnitude
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 5e-324, -7.25, 1e300])


def box(dim):
    """The flat unit box of ``dim`` coordinates: det A = 1 everywhere."""
    frame = [["1" if i == m else "0" for m in range(dim)] for i in range(dim)]
    return td.chart_model("box", (1.0,) * dim, frame)


@st.composite
def lattices(draw, values=VALUES):
    """(resolution, table, points per block): a table of values on a
    drawn subset of the axes, size 1 on the others."""
    resolution = tuple(draw(st.lists(LENGTHS, min_size=1, max_size=3)))
    varies = [draw(st.booleans()) for _ in resolution]
    shape = tuple(n if v else 1 for n, v in zip(resolution, varies))
    size = math.prod(shape)
    if draw(st.booleans()):
        table = np.full(shape, draw(values))  # constant
    else:
        table = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
    return resolution, table, draw(st.integers(1, math.prod(resolution)))


def read_of(table, resolution):
    """The read of ``table`` from a block of a box lattice of
    ``resolution``: the entries at the block's points, on the axes
    ``table`` varies over."""

    def read(frame):
        return table[np.ix_(*(
            np.rint(axis * n - 0.5).astype(int) if size > 1 else np.zeros(1, int)
            for axis, n, size in zip(frame.block.axes, resolution, table.shape)
        ))]

    return read


def swept(resolution, table, points, monkeypatch, *steps):
    """The grid of ``resolution`` on a box and the states of the folds of
    ``steps``, (step, start) pairs, of ``table``'s read in its sweep, in
    blocks of at most ``points`` points."""
    model = box(len(resolution))
    grid = td.sample_grid(model, resolution)
    monkeypatch.setattr(td.model, "BLOCK_VALUES", points * len(_block_plan(model, None, False)))
    read = read_of(table, resolution)
    *states, parts = sweep(
        model, grid, *(Fold(read, step, start) for step, start in steps), kept(read), structure=False
    )
    assert all(len(block) <= points for block, _ in parts)
    return model, grid, states


def full(resolution, table):
    """The reference: ``table`` at every grid point, in point order."""
    return np.broadcast_to(table, resolution).ravel()


def bits(value):
    return float(value).hex()


settings_ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@settings_
@given(lattices())
def test_extremes_are_the_full_grid_extremes_at_their_first_points(monkeypatch, case):
    resolution, table, points = case
    model, grid, (found, least, greatest) = swept(
        resolution, table, points, monkeypatch, (_first_non_finite, None), (_least, None), (_greatest, None)
    )
    points = point_tuples(grid)
    reference = full(resolution, table)
    low, high = int(np.argmin(reference)), int(np.argmax(reference))
    verdict = _classify(found, least, greatest, 0.25)
    assert (bits(verdict.min_value), bits(verdict.max_value)) == (bits(reference[low]), bits(reference[high]))
    assert verdict.argmin == points[low]
    assert verdict.argmax == points[high]
    check = td.model.basic_field_check(found, greatest, len(grid))
    assert bits(check.worst) == bits(reference[high])
    assert check.worst_point == points[high]
    assert check.detail == f"max |pi_Q [F_a, v]| over {len(points)} points (threshold 1e-09)"


@settings_
@given(lattices(), st.data())
def test_the_first_non_finite_point_is_the_full_grid_one(monkeypatch, case, data):
    resolution, table, points = case
    table = table.copy()
    spoiled = data.draw(st.lists(st.integers(0, table.size - 1), min_size=1, max_size=3))
    table.flat[spoiled] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    model, grid, (found,) = swept(resolution, table, points, monkeypatch, (_first_non_finite, None))
    first = int(np.argmin(np.isfinite(full(resolution, table))))
    with pytest.raises(td.DomainError) as info:
        td.model.require_finite(found, "value")
    assert str(info.value) == f"non-finite value at {point_tuples(grid)[first]}"


#: Magnitudes near the top of the float range, so that a sum may pass it
#: in its exact total, or only in a running sum in point order
HUGE = st.sampled_from([1e308, -1e308, 6e307, -6e307, 1.5, -0.75, 0.0])


def exact_or_overflow(terms):
    """The correctly rounded sum of ``terms``, which is ``math.fsum``'s
    wherever that does not raise, or "overflows" where the exact sum
    rounds past the float range."""
    try:
        return float(sum(map(fractions.Fraction, terms)))
    except OverflowError:
        return "overflows"


#: The step and start of a Green sum's fold
SUM = (_sum_step, (None, 0))


def integral_or_overflow(state):
    try:
        return _integral(state, "terms")
    except td.DomainError as exc:
        assert str(exc) == "the integral of terms overflows"
        return "overflows"


@settings_
@given(st.one_of(lattices(), lattices(HUGE)))
def test_sums_with_multiplicities_are_the_full_grid_fsum(monkeypatch, case):
    resolution, table, points = case
    model, grid, (state,) = swept(resolution, table, points, monkeypatch, SUM)
    expected = exact_or_overflow(full(resolution, table).tolist())
    got = integral_or_overflow(state)
    assert got == expected and (got == "overflows" or bits(got) == bits(expected))


def test_a_sum_over_many_points_counts_each_value_by_its_multiplicity(monkeypatch):
    # 0.1 is not a power of two, so 1000 copies round differently from
    # any sum of fewer; 1e308 counted twice passes the float range, but
    # the exact total, with -1e308 twice, is 0
    model, grid, (state,) = swept((8, 125), np.full((1, 125), 0.1), 1000, monkeypatch, SUM)
    assert _integral(state, "terms") == math.fsum([0.1] * 1000) == 100.0
    table = np.array([[1e308, -1e308]])
    model, grid, (state,) = swept((2, 2), table, 4, monkeypatch, SUM)
    assert _integral(state, "terms") == 0.0
    # 1e308 once per block of two points: the first block's total is 0 too
    model, grid, (state,) = swept((2, 2), table, 2, monkeypatch, SUM)
    assert _integral(state, "terms") == 0.0
    # the running sum in point order passes the float range, the total does not
    table = np.array([[1e308], [1e308], [-1e308]])
    model, grid, (state,) = swept((3, 1), table, 1, monkeypatch, SUM)
    assert _integral(state, "terms") == 1e308


#: A chart whose frame varies along both coordinates, so each read's
#: values fill the whole block, and a basic field on it whose div^Q
#: terms are not 0
SQRT = [["1", "0"], ["0", "1 + sqrt(1.5 - x1*x2)"]]
SQRT_FIELD = ["0", "(2 + sin(2*pi*x2))/(1 + sqrt(1.5 - x1*x2))"]


@pytest.mark.parametrize("name", ["torus-warped", "sqrt"])
def test_a_sum_holds_no_array_and_blocks_keep_its_bits(monkeypatch, name):
    # a Green sum's state is its first non-finite term and an int, however
    # many blocks it takes; blocks of 7 points give the one-block bits
    if name == "sqrt":
        model, split = td.chart_model(name, (1.0, 1.0), SQRT), td.foliation_split(2, {0})
        field = td.vector_field(SQRT_FIELD, model)
    else:
        model, split = td.builtin_model(name)
        field = td.alvarez_candidate(model, split)
    states = []
    integral = tautness._integral

    def spy(state, what):
        states.append(state)
        return integral(state, what)

    monkeypatch.setattr(tautness, "_integral", spy)
    whole = td.green_check(model, split, field, (16, 32))
    assert whole.lhs != 0.0
    monkeypatch.setattr(td.model, "BLOCK_VALUES", 7 * len(_block_plan(model, field, True)))
    split_up = td.green_check(model, split, field, (16, 32))
    assert (bits(split_up.lhs), bits(split_up.rhs)) == (bits(whole.lhs), bits(whole.rhs))
    assert len(states) == 4
    assert all(found is None and type(total) is int for found, total in states)


def least_det_of(table):
    """The (step, start) of the least |det A| fold (``model._least_det``)
    for a read of ``table`` as det A."""
    return [(lambda least, block, values: _least(least, block, np.abs(values)), None)]


def frame_invertibility(model, grid, least_det):
    """The judge of the box's one record on the ``least_det`` state of
    its fold over ``grid``: the record a verdict's sweep hands it."""
    (record,) = td.model.hypotheses(model)
    return record.judge(model, grid, [least_det])


@settings_
@given(lattices(st.sampled_from([0.5, 1.0, -1.0, 2.0, -3.0, 1e-300])))
def test_the_smallest_det_is_the_grids_then_the_corners(monkeypatch, case):
    # the box's det A is 1 at every corner, so a drawn |det| of 1 ties
    # the grid with the corners and the grid's point wins
    resolution, table, points = case
    model, grid, (least_det,) = swept(resolution, table, points, monkeypatch, *least_det_of(table))
    corners = _lattice(model, grid.resolution, 0.0)
    probes = point_tuples(grid) + point_tuples(corners)
    dets = np.abs(np.concatenate((full(resolution, table), np.ones(len(corners)))))
    index = int(np.argmin(dets))
    check = frame_invertibility(model, grid, least_det)
    assert bits(check.worst) == bits(dets[index])
    assert check.worst_point == probes[index]
    assert check.detail == f"min |det(frame)| over {len(probes)} probe points (threshold 1e-10)"


def test_a_tie_of_the_grid_with_the_corners_reports_the_grid(monkeypatch):
    table = np.array([[2.0, 1.0, 1.0, 3.0]])
    model, grid, (least_det,) = swept((3, 4), table, 12, monkeypatch, *least_det_of(table))
    check = frame_invertibility(model, grid, least_det)
    assert check.worst == 1.0 and check.worst_point == grid.point(1)
    assert grid.point(1) == (1 / 6, 0.375)


# --- no rows on a lattice ------------------------------------------------------------

# A Grid is its axes and has no coordinate rows to build (the tests build
# them, ``generators.lattice_rows``): these runs read every point from the
# axes and must still give their verdicts and refusals.

def test_verdicts_build_no_coordinate_rows_on_a_lattice():
    model, split = td.builtin_model("torus-warped")
    tau = td.alvarez_candidate(model, split)
    grid = td.sample_grid(model, (64, 48))
    verdict = td.classify_divergence(model, split, tau, grid)
    report = td.green_check(model, split, tau, (16, 32))
    (check,) = td.validate_model(model, grid)
    comparison = compare_with_cover(model, split, tau, 1, 3, (8, 12))
    assert not hasattr(grid, "coordinates")
    # the reported points, read from the axes, are points of the lattices
    centres = point_tuples(grid)
    corners = point_tuples(_lattice(model, grid.resolution, 0.0))
    assert verdict.argmin in centres and verdict.argmax in centres
    assert check.worst_point in centres + corners
    assert report.abs_error < 1e-9 and comparison.max_pointwise_difference <= 1e-12


def cli(*argv):
    """``main(argv)``'s exit code, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


#: Frames that fail only on part of the box: sqrt of a negative value
#: where x1 * x2 > 0.64, ln of 0 at x1 = 0 (the corners), and a frame
#: singular on the line x2 = 0.4375
REFUSED = {
    "sqrt": [["1", "0"], ["0", "1 + sqrt(0.64 - x1*x2)"]],
    "ln": [["2 + ln(x1)", "0"], ["0", "1"]],
    "singular": [["1", "0"], ["0", "x2 - 0.4375"]],
}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "torus-warped", "--grid", "6,4"),
        ("analyze", "t3a"),
        ("taut-check", "suspension-3", "--field", "alvarez"),
        ("volume-check", "t3a", "--field", "alvarez", "--format", "json"),
        ("cover", "torus-warped", "--field", "alvarez", "--coord", "1", "--fold", "2", "--grid", "6"),
    ],
)
def test_no_command_builds_coordinate_rows(argv):
    assert cli(*argv) == 0


@pytest.mark.parametrize("name", ["torus-warped", "t3a"])
def test_no_one_point_function_builds_coordinate_rows(name):
    model, split = td.builtin_model(name)
    tau = td.alvarez_candidate(model, split)
    point = (0.3, 0.7) if model.is_chart else ()
    if model.is_chart:
        td.model.frame_matrix(model, point)
    td.structure_functions(model, point)
    connection.christoffel(model, point)
    connection.covariant_rows(model, tau, point)
    connection.transverse_divergence(model, split, tau, point)
    connection.mean_curvature(model, split.leaf_ordered, point)
    td.classify_divergence(model, split, tau, td.sample_grid(model, (5, 3)))
    td.validate_model(model, td.sample_grid(model, (5, 3)))


@pytest.mark.parametrize("name", REFUSED)
def test_no_refusal_builds_coordinate_rows(name, tmp_path):
    model = td.chart_model(name, (1.0, 1.0), REFUSED[name])
    split = td.foliation_split(2, {0})
    grid = td.sample_grid(model, (24, 8))
    with pytest.raises((td.ExprError, td.ModelError)):
        td.classify_divergence(model, split, td.vector_field(["0", "1"], model), grid)
    (check,) = td.validate_model(model, grid)
    assert not check.passed
    path = tmp_path / f"{name}.json"
    frame = [entry for row in REFUSED[name] for entry in row]
    path.write_text(json.dumps({
        "name": name, "kind": "chart", "dim": 2, "leaf_indices": [1], "periods": [1.0, 1.0],
        "frame": frame,
    }))
    assert cli("taut-check", str(path), "--field", "alvarez", "--grid", "24,8") in (2, 3)
    assert cli("analyze", str(path), "--grid", "24,8") in (2, 3)


def test_each_cover_block_sweeps_the_base_once_as_one_block(monkeypatch):
    # compare_with_cover sweeps the base on the cover's lattice, after the
    # base verdict and its det-only corner sweep, and reads the base's
    # div^Q at the projected points of each of its blocks from a sweep of
    # the base over that block's axes, the unrolled one taken modulo the
    # base period: one plan, so one block, right after the cover's, with
    # the bits of np.mod
    model, split = td.builtin_model("torus-warped")
    tau = td.alvarez_candidate(model, split)
    limit = 50
    monkeypatch.setattr(td.model, "BLOCK_VALUES", limit * len(_block_plan(model, tau, True)))
    built = []
    build = td.model.FrameData.__init__

    def spy(self, swept_model, block, field_spec, structure, plan):
        built.append((swept_model, block, structure))
        build(self, swept_model, block, field_spec, structure, plan)

    monkeypatch.setattr(td.model.FrameData, "__init__", spy)
    for coord in (0, 1):
        built.clear()
        cover = compare_with_cover(model, split, tau, coord, 2, (9, 20)).cover
        assert all(swept_model is model for swept_model, _, _ in built)
        first = 1 + max(index for index, (_, _, structure) in enumerate(built) if not structure)
        pairs = list(zip(built[first::2], built[first + 1::2]))
        lattice = list(td.model._lattice_blocks(td.sample_grid(cover, (9, 20)), limit))
        assert len(pairs) == len(lattice) > 3 and len(built) == first + 2 * len(pairs)
        for ((_, lifted, _), (_, below, _)), block in zip(pairs, lattice):
            assert [axis.tobytes() for axis in lifted.axes] == [axis.tobytes() for axis in block.axes]
            projected = list(lifted.axes)
            projected[coord] = np.mod(projected[coord], model.periods[coord])
            assert [axis.tobytes() for axis in below.axes] == [axis.tobytes() for axis in projected]


def test_a_verdict_holds_one_block_not_the_lattice(monkeypatch):
    # the folds drop each block's values once taken, so the peak traced
    # memory of a verdict and a Green check does not grow with the grid
    # beyond one block's worth of plan values
    model = td.chart_model("sqrt", (1.0, 1.0), SQRT)
    split = td.foliation_split(2, {0})
    tau = td.alvarez_candidate(model, split)
    monkeypatch.setattr(td.model, "BLOCK_VALUES", 100_000)
    peaks = []
    for n in (128, 512):
        grid = td.sample_grid(model, n)
        td.classify_divergence(model, split, tau, grid)
        tracemalloc.start()
        try:
            td.classify_divergence(model, split, tau, grid)
            td.green_check(model, split, tau, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 8 * td.model.BLOCK_VALUES, peaks
