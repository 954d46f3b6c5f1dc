"""Lattice sweeps against sweeps of the same points as coordinate rows.

A Grid is swept block by block as sub-lattices, each coordinate bound
along its own axis, so a subexpression is evaluated once per value of
the coordinates it reads; coordinate rows are swept as blocks of rows.
Both must give every read the same bits at every point, and a frame
that fails must fail with the same error at the same point.  Blocks
hold at most ``model.BLOCK_VALUES`` plan values.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import transdiv as td
from transdiv.model import _block_plan, _lattice, sweep

from generators import block_runs, dense_chart_case, random_chart_case, random_field, swept_rows

#: Points of a block in the split runs: a run of two or three indices
#: along one axis, so blocks end in the middle of it
SPLIT = 20

SHAPES = {2: [(1, 9), (9, 1), (16, 256)], 3: [(3, 5, 7)], 4: [(2, 3, 5, 4)]}


def cover_case(rng):
    """A random chart unrolled 3-fold along x2, so x2 is wrapped."""
    model, split = random_chart_case(rng)
    field = random_field(rng, model, split, transverse_only=True)
    return td.lift_to_cover(model, split, field, 1, 3)


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
    out.append(td.lift_to_cover(model, split, td.alvarez_candidate(model, split), 0, 2))
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


@pytest.mark.parametrize("split_blocks", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("case", CASES, ids=[case[0].name for case in CASES])
def test_lattice_and_row_sweeps_agree_bit_for_bit(case, split_blocks, monkeypatch):
    model, split, field = case
    if split_blocks:
        plan = _block_plan(model, field, True)
        monkeypatch.setattr(td.model, "BLOCK_VALUES", SPLIT * len(plan))
    named = reads(split, 0.37)
    for shape in SHAPES[model.dim]:
        grid = td.sample_grid(model, shape)
        lattice = swept_rows(model, grid, *named.values(), field_spec=field)
        rows = swept_rows(model, grid.coordinates, *named.values(), field_spec=field)
        for name, got, expected in zip(named, lattice, rows):
            assert len(got) == len(grid.coordinates)
            assert_same_bits(got, expected, (model.name, shape, name))
        (dets,) = swept_rows(model, grid, named["det"], structure=False)
        assert_same_bits(dets, rows[1], (model.name, shape, "det only"))


def test_split_blocks_end_inside_an_axis(monkeypatch):
    model, split, field = CASES[0]
    monkeypatch.setattr(td.model, "BLOCK_VALUES", SPLIT * len(_block_plan(model, field, True)))
    shapes = []
    build = td.model.FrameData.__init__

    def spy(self, model, block, field_spec, structure, plan):
        shapes.append(block.shape)
        build(self, model, block, field_spec, structure, plan)

    monkeypatch.setattr(td.model.FrameData, "__init__", spy)
    sweep(model, td.sample_grid(model, (3, 5, 7) if model.dim == 3 else (16, 256)), field_spec=field)
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


def failure(model, points, field, structure):
    with np.errstate(all="ignore"):
        try:
            sweep(model, points, lambda block: block.det, field_spec=field, structure=structure)
        except (td.ExprError, td.SingularFrameError) as exc:
            return type(exc), str(exc), getattr(exc, "point", None)
    return None


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
        for grid in (td.sample_grid(model, shape), _lattice(model, shape, 0.0)):
            for field, structure in [(None, False), (candidate, True)]:
                expected = failure(model, grid.coordinates, field, structure)
                assert failure(model, grid, field, structure) == expected
                failed += expected is not None
    assert failed


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


@pytest.fixture
def blocks(monkeypatch):
    """(shape, plan steps run) of every FrameData block built so far."""
    return block_runs(monkeypatch)


def test_blocks_stay_within_the_budget(blocks):
    model, split = dense_chart_case(random.Random(7), 4)
    grid = td.sample_grid(model, 10)
    td.check_basic(model, split, td.alvarez_candidate(model, split), grid)
    td.validate_model(model, grid)
    sizes = [int(np.prod(shape)) for shape, _ in blocks]
    assert sum(sizes) == 3 * 10 ** 4 and len(sizes) > 3
    assert all(size * steps <= td.model.BLOCK_VALUES for size, (_, steps) in zip(sizes, blocks))

    blocks.clear()
    model, split = td.load_model(WARPED_3D)
    td.classify_divergence(model, split, td.alvarez_candidate(model, split), td.sample_grid(model, 16))
    # the verdict's sweep and its gate's sweep of the corners, each one
    # lattice block
    assert [shape for shape, _ in blocks] == [(16, 16, 16)] * 2
    assert all(16 ** 3 * steps <= td.model.BLOCK_VALUES for _, steps in blocks)
