"""Lattice sweeps against sweeps of the same points one by one.

A Grid is swept block by block as sub-lattices, each coordinate bound
along its own axis, so a subexpression is evaluated once per value of
the coordinates it reads; ``model.at_point`` sweeps the one-point
lattice of a point.  Both must give every read the same bits at every
point, and a frame that fails must fail with the same error at the
same point as the first point that fails on its own, in row-major
order.  Blocks hold at most ``model.BLOCK_VALUES`` plan values.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv.model import _block_plan, _lattice, at_point, sweep

from generators import (
    block_runs,
    dense_chart_case,
    kept,
    lattice_rows,
    point_tuples,
    pointwise_rows,
    random_chart_case,
    random_field,
    swept_parts,
    swept_rows,
)

#: Points of a block in the split runs: a run of two or three indices
#: along one axis, so blocks end in the middle of it
SPLIT = 20

SHAPES = {2: [(1, 9), (9, 1), (16, 256)], 3: [(3, 5, 7)], 4: [(2, 3, 5, 4)]}


def cover_case(rng):
    """A random chart unrolled 3-fold along x2, so x2 runs past its
    base period."""
    model, split = random_chart_case(rng)
    field = random_field(rng, model, split, transverse_only=True)
    return td.lift_to_cover(model, 1, 3), split, field


def cases():
    rng = random.Random(2026)
    drawn = [random_chart_case(rng) for _ in range(3)]
    drawn += [dense_chart_case(rng, 3), dense_chart_case(rng, 4)]
    out = [
        (model, split, random_field(rng, model, split, transverse_only=True))
        for model, split in drawn
    ]
    out.append(cover_case(rng))
    model, split = td.builtin_model("torus-warped")
    out.append((td.lift_to_cover(model, 0, 2), split, td.alvarez_candidate(model, split)))
    return out


CASES = cases()


def reads(split, cell):
    """Every read a consumer takes, by name."""
    lhs, rhs = td.tautness._green_terms(split, cell)
    return {
        "a": lambda block: block.a,
        "det": lambda block: block.det,
        "c": lambda block: block.c,
        "gamma": lambda block: block.gamma,
        "v": lambda block: block.v,
        "dv": lambda block: block.dv,
        "rows": lambda block: block.rows,
        "basic_residuals": lambda block: block.basic_residuals(split),
        "divergence": lambda block: block.divergence(split.transverse_ordered),
        "mean_curvature": lambda block: block.mean_curvature(split.leaf_ordered),
        "green_lhs": lhs,
        "green_rhs": rhs,
    }


def assert_same_bits(got, expected, what):
    assert got.shape == expected.shape, what
    assert got.flags.c_contiguous, what
    # bit for bit, the sign of zero included
    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), what


@functools.cache
def pointwise(index, shape):
    """The reads of ``reads`` at every point of the grid of ``shape`` on
    case ``index``, one ``at_point`` sweep per point, with a row per
    point: computed once for the whole and the split sweeps."""
    model, split, field = CASES[index]
    grid = td.sample_grid(model, shape)
    return pointwise_rows(model, point_tuples(grid), *reads(split, 0.37).values(), field_spec=field)


@pytest.mark.parametrize("split_blocks", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("index", range(len(CASES)), ids=[case[0].name for case in CASES])
def test_lattice_and_row_sweeps_agree_bit_for_bit(index, split_blocks, monkeypatch):
    # the reference has a row per point, each from a sweep of that point
    model, split, field = CASES[index]
    if split_blocks:
        plan = _block_plan(model, field, True)
        monkeypatch.setattr(td.model, "BLOCK_VALUES", SPLIT * len(plan))
    named = reads(split, 0.37)
    for shape in SHAPES[model.dim]:
        grid = td.sample_grid(model, shape)
        lattice = swept_rows(model, grid, *named.values(), field_spec=field)
        rows = pointwise(index, shape)
        for name, got, expected in zip(named, lattice, rows):
            assert len(got) == len(grid)
            assert_same_bits(got, expected, (model.name, shape, name))
        (dets,) = swept_rows(model, grid, named["det"], structure=False)
        assert_same_bits(dets, rows[1], (model.name, shape, "det only"))


def test_split_blocks_end_inside_an_axis(monkeypatch):
    model, split, field = CASES[0]
    monkeypatch.setattr(td.model, "BLOCK_VALUES", SPLIT * len(_block_plan(model, field, True)))
    built = block_runs(monkeypatch)
    sweep(model, td.sample_grid(model, (3, 5, 7) if model.dim == 3 else (16, 256)), field_spec=field)
    shapes = [run.block.resolution for run in built]
    # every block is at most SPLIT points, with one axis cut short
    assert all(np.prod(shape) <= SPLIT for shape in shapes)
    assert len(set(shapes)) > 1


# x1 is singular, and ln(x1) fails, on the corners x1 = 0 only; the others
# fail on the cell centres too, in a region of one or of two coordinates
FAILING = {
    "pinched": [["x1", "0"], ["0", "1"]],
    "log": [["2 + ln(x1)", "0"], ["0", "1"]],
    "exp-overflow": [["exp(800*x1)", "0"], ["0", "1"]],
    "sqrt-region": [["1", "0"], ["0", "2 + sqrt((x1 - 0.3)*(x2 - 0.6))"]],
}


def failure(call, model, points, field, structure):
    """The error type, message and point of ``call`` (``swept_parts`` of
    a grid, or ``at_point`` of a point) reading det A, if it fails, else
    None."""
    with np.errstate(all="ignore"):
        try:
            call(model, points, lambda block: block.det, field_spec=field, structure=structure)
        except (td.ExprError, td.SingularFrameError) as exc:
            return type(exc), str(exc), getattr(exc, "point", None)
    return None


def scanned(model, grid, field, structure):
    """``failure`` of ``at_point`` at the first point of ``grid``, in
    row-major order, that fails on its own, else None: the reference of
    a sweep that fails."""
    for point in point_tuples(grid):
        found = failure(at_point, model, point, field, structure)
        if found is not None:
            return found
    return None


@functools.cache
def first_failure(name, shape, offset, with_field):
    """``scanned`` on the lattice of ``shape`` and ``offset`` of model
    ``name``, computed once for the whole and the split sweeps."""
    model = td.chart_model(name, (1.0, 1.0), FAILING[name])
    field = td.alvarez_candidate(model, td.foliation_split(2, {0})) if with_field else None
    return scanned(model, _lattice(model, shape, offset), field, with_field)


@pytest.mark.parametrize("split_blocks", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("name", FAILING)
def test_failing_frames_fail_alike(name, split_blocks, monkeypatch):
    model = td.chart_model(name, (1.0, 1.0), FAILING[name])
    split = td.foliation_split(2, {0})
    candidate = td.alvarez_candidate(model, split)
    if split_blocks:
        monkeypatch.setattr(td.model, "BLOCK_VALUES", SPLIT * len(_block_plan(model, candidate, True)))
    failed = 0
    for shape in [(1, 9), (9, 1), (16, 12), (7, 5)]:
        for offset in (0.5, 0.0):
            grid = _lattice(model, shape, offset)
            for field, structure in [(None, False), (candidate, True)]:
                expected = first_failure(name, shape, offset, structure)
                assert failure(swept_parts, model, grid, field, structure) == expected
                failed += expected is not None
    assert failed


#: Axis lengths of the drawn lattices: primes and 1, so that blocks and
#: their halves end inside an axis
PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 1])


@st.composite
def refusals(draw):
    """(model, grid, structure, points per block): a diagonal frame of
    1s with one entry that fails on a region of one or two coordinates.
    ``sqrt`` and ``ln`` fail where the product of the +-(x_i - t_i) is
    negative (not positive for ln); ``det`` is singular on the lines
    x_i = t_i, which only a sweep of the structure refuses."""
    dim = draw(st.integers(2, 3))
    lengths = PRIMES if dim == 2 else st.sampled_from([2, 3, 5, 7, 1])
    shape = tuple(draw(st.lists(lengths, min_size=dim, max_size=dim)))

    def factor(i):
        # t_i is a value of the axis (an odd multiple of 1 / 2n) or a cell
        # edge between two (an even multiple), where no point is singular
        sign = draw(st.sampled_from(["-", ""]))
        threshold = draw(st.integers(1, 2 * shape[i] - 1)) / (2 * shape[i])
        return f"({sign}(x{i + 1} - {threshold!r}))"

    on = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=2, unique=True))
    product = "*".join(map(factor, on))
    kind = draw(st.sampled_from(["sqrt", "ln", "det"]))
    frame = [["1" if i == m else "0" for m in range(dim)] for i in range(dim)]
    diagonal = draw(st.integers(0, dim - 1))
    frame[diagonal][diagonal] = {"sqrt": f"1 + sqrt({product})", "ln": f"2 + ln({product})", "det": product}[kind]
    model = td.chart_model(kind, (1.0,) * dim, frame)
    grid = td.sample_grid(model, shape)
    structure = kind == "det" or draw(st.booleans())
    return model, grid, structure, draw(st.integers(1, len(grid)))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(refusals())
def test_a_refusal_names_the_first_point_that_fails_on_its_own(monkeypatch, case):
    model, grid, structure, points = case
    expected = scanned(model, grid, None, structure)
    # the plan without a field, kept here, so that a det-only sweep runs it too
    monkeypatch.setattr(td.model, "BLOCK_VALUES", points * len(_block_plan(model, None, True)))
    built = block_runs(monkeypatch)
    assert failure(swept_parts, model, grid, None, structure) == expected
    # every block, a bisection's included, is a lattice of runs of the grid's axes
    assert all(runs_of(run.block, grid) for run in built)


def runs_of(block, grid):
    """Whether each axis of ``block`` is a contiguous run of the same
    axis of ``grid`` (whose values increase), bit for bit."""

    def run(segment, axis):
        start = int(np.searchsorted(axis, segment[0]))
        return axis[start:start + len(segment)].tobytes() == segment.tobytes()

    return len(block.axes) == len(grid.axes) and all(map(run, block.axes, grid.axes))


def listed(blocks):
    """The points of ``blocks`` in order, as the bytes of their rows."""
    return np.concatenate([lattice_rows(block) for block in blocks]).tobytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(PRIMES, min_size=1, max_size=4), st.integers(1, 40), st.sampled_from([0.5, 0.0]))
def test_blocks_are_runs_that_list_the_grid_in_row_major_order(monkeypatch, resolution, points, offset):
    # the blocks of a sweep, and the halves a bisection cuts from each,
    # are lattices of runs of the grid's axes that list the points of
    # what they cut, in order, in row-major order
    dim = len(resolution)
    frame = [["1" if i == m else "0" for m in range(dim)] for i in range(dim)]
    model = td.chart_model("box", (1.0,) * dim, frame)
    grid = _lattice(model, tuple(resolution), offset)
    monkeypatch.setattr(td.model, "BLOCK_VALUES", points * len(_block_plan(model, None, False)))
    (parts,) = sweep(model, grid, kept(lambda block: block.det), structure=False)
    blocks = [block for block, _ in parts]
    assert listed(blocks) == lattice_rows(grid).tobytes()
    for block in blocks:
        assert len(block) <= points and runs_of(block, grid)
        if len(block) > 1:
            halves = list(td.model._lattice_blocks(block, len(block) // 2))
            assert listed(halves) == lattice_rows(block).tobytes()
            assert all(runs_of(half, grid) for half in halves)


WARPED_3D = {
    "name": "warped-3d",
    "kind": "chart",
    "dim": 3,
    "leaf_indices": [1],
    "periods": [1.0, 1.0, 1.0],
    "frame": [
        "exp(-(0.2*sin(4*pi*x3) + 0.1*cos(6*pi*x3)))", "0", "0",
        "0", "exp(-(0.1*sin(6*pi*x3) - 0.2*cos(4*pi*x3)))", "0",
        "0", "0", "1",
    ],
}


def test_blocks_stay_within_the_budget(monkeypatch):
    blocks = block_runs(monkeypatch)
    model, split = dense_chart_case(random.Random(7), 4)
    grid = td.sample_grid(model, 10)
    td.check_basic(model, split, td.alvarez_candidate(model, split), grid)
    td.validate_model(model, split, grid)
    sizes = [len(run.block) for run in blocks]
    assert sum(sizes) == 3 * 10 ** 4 and len(sizes) > 3
    assert all(size * run.steps <= td.model.BLOCK_VALUES for size, run in zip(sizes, blocks))

    blocks.clear()
    model, split = td.load_model(WARPED_3D)
    td.classify_divergence(model, split, td.alvarez_candidate(model, split), td.sample_grid(model, 16))
    # the verdict's sweep and its gate's sweep of the corners, each one
    # lattice block
    assert [run.block.resolution for run in blocks] == [(16, 16, 16)] * 2
    assert all(16 ** 3 * run.steps <= td.model.BLOCK_VALUES for run in blocks)
