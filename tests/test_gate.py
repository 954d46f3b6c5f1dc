"""The hypothesis gate: every verdict subcommand refuses a model whose
hypothesis record fails, with that record's line, and the gate costs one
det-only sweep of the lattice corners.  ``model.hypotheses`` is the one
list of records: a record added to it refuses through every verdict
subcommand and ``analyze``, whether it reads the frame alone or the
structure and the split."""

from __future__ import annotations

import json

import numpy as np
import pytest

import transdiv as td
from transdiv.model import Fold, _greatest, _lattice, _point
from transdiv.records import CheckResult, check_line

from generators import lattice_rows, refused, run_cli, swept_rows, written

# the cyclic Jacobi sum is 1 at (E1, E2, E3)
NOJACOBI = {
    "name": "nojacobi",
    "kind": "constant_structure",
    "dim": 3,
    "leaf_indices": [3],
    "structure_constants": [
        {"i": 1, "j": 2, "k": 1, "value": 1},
        {"i": 1, "j": 3, "k": 2, "value": 1},
    ],
}
# det A = x1 vanishes at the corners x1 = 0 only
PINCHED = {
    "name": "pinched",
    "kind": "chart",
    "dim": 2,
    "leaf_indices": [1],
    "periods": [1.0, 1.0],
    "frame": ["x1", "0", "0", "1"],
}
# ln(x1) is fine at every cell centre and fails at the corner x1 = 0
LOG_FRAME = {**PINCHED, "name": "log-frame", "frame": ["2 + ln(x1)", "0", "0", "1"]}

GRID = ["--grid", "8"]
VERDICTS = {
    "taut-check": ["--field", "alvarez", *GRID],
    "volume-check": ["--field", "alvarez", *GRID],
    "green-check": ["--field", "alvarez", *GRID],
    "cover": ["--field", "alvarez", "--coord", "1", "--fold", "2", *GRID],
}
# the subcommands that take a constant-structure model
CONSTANT_VERDICTS = ("taut-check", "volume-check")

CASES = [
    (NOJACOBI, "jacobi_identity: FAIL (max |cyclic sum C_ij^m C_mk^l| (threshold 1e-12), "
               "worst 1.000e+00 at ())"),
    (PINCHED, "frame_invertibility: FAIL (min |det(frame)| over 128 probe points "
              "(threshold 1e-10), worst 0.000e+00 at (0.0, 0.0))"),
    (LOG_FRAME, "frame_invertibility: FAIL (frame evaluation failed: ln of non-positive "
                "value 0.0 in 'ln(x1)', worst 0.000e+00 at (0.0, 0.0))"),
]
MATRIX = [
    (document, line, subcommand)
    for document, line in CASES
    for subcommand in ("analyze", *VERDICTS)
    if document["kind"] == "chart" or subcommand in ("analyze", *CONSTANT_VERDICTS)
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "document, line, subcommand",
    MATRIX,
    ids=[f"{document['name']}-{subcommand}" for document, _, subcommand in MATRIX],
)
def test_every_verdict_refuses_a_failed_record_with_its_line(
    tmp_path, document, line, subcommand, fmt
):
    argv = written(tmp_path, (subcommand, document, *(GRID if subcommand == "analyze" else VERDICTS[subcommand])))
    code, out, err = run_cli(*argv, "--format", fmt)
    if subcommand != "analyze":
        assert refused((code, out, err), 3, line), (code, out, err)
    elif fmt == "text":
        assert code == 3 and err == "" and f"\n  {line}\n" in out
    else:
        (record,) = json.loads(out)["validation"]["checks"]
        check = CheckResult(
            record["name"], record["passed"], record["detail"],
            record["worst"], tuple(record["worst_point"]),
        )
        assert (code, err) == (3, "") and check_line(check) == line


@pytest.fixture
def sweeps(monkeypatch):
    """The (points, structure) of every ``model.sweep`` call so far, the
    points of a swept Grid as its coordinate rows."""
    calls = []
    sweep = td.model.sweep

    def spy(model, grid, *reads, structure=True, **kwargs):
        calls.append((lattice_rows(grid), structure))
        return sweep(model, grid, *reads, structure=structure, **kwargs)

    for module in (td.model, td.tautness):
        monkeypatch.setattr(module, "sweep", spy)
    return calls


def test_a_verdict_sweeps_its_grid_once_and_the_corners_once(sweeps):
    code, _, _ = run_cli("taut-check", "torus-warped", "--field", "alvarez", "--grid", "64")
    assert code == 0
    model, _ = td.builtin_model("torus-warped")
    centres = lattice_rows(td.sample_grid(model, 64))
    corners = lattice_rows(_lattice(model, (64, 64), 0.0))
    assert [(len(points), structure) for points, structure in sweeps] == [
        (4096, True), (4096, False),
    ]
    assert np.array_equal(sweeps[0][0], centres) and np.array_equal(sweeps[1][0], corners)


def test_load_model_sweeps_nothing(sweeps):
    for document in (PINCHED, LOG_FRAME, td.builtin_document("torus-warped")):
        td.load_model(document)
    assert sweeps == []


def marked(grid, states):
    """The judge of a record of this test alone: it fails at the state of
    its one fold, the first point where a_1^1 is greatest."""
    ((value, at),) = states
    return CheckResult("marked", False, "greatest a_1^1", value, _point(*at), 0.0)


@pytest.fixture
def marked_record(monkeypatch):
    """``model.hypotheses`` with the ``marked`` record last."""
    hypotheses = td.model.hypotheses
    record = td.model.Hypothesis((Fold(lambda block: block.a[0, 0], _greatest),), marked)
    for module in (td.model, td.tautness):
        monkeypatch.setattr(module, "hypotheses", lambda model, split: (*hypotheses(model, split), record))


def assert_refused_with(argv, fmt, line, first):
    """``transdiv argv`` in ``fmt`` exits 3 with the record ``line``: a
    verdict refuses with it, and ``analyze`` prints it after the model's
    passing record ``first``."""
    code, out, err = run_cli(*argv, "--format", fmt)
    if argv[0] != "analyze":
        assert refused((code, out, err), 3, line), (code, out, err)
    elif fmt == "text":
        assert code == 3 and err == "" and f"\n  {first}: pass (" in out and f"\n  {line}\n" in out
    else:
        passed, record = json.loads(out)["validation"]["checks"]
        check = CheckResult(
            record["name"], record["passed"], record["detail"], record["worst"], tuple(record["worst_point"]),
        )
        assert (code, err) == (3, "") and passed["name"] == first and passed["passed"] and check_line(check) == line


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("subcommand", ["analyze", *VERDICTS])
def test_a_record_added_to_the_list_refuses_through_every_command(marked_record, subcommand, fmt):
    model, _ = td.builtin_model("torus-warped")
    grid = td.sample_grid(model, 8)
    (values,) = swept_rows(model, grid, lambda block: block.a[0, 0], structure=False)
    index = int(np.argmax(values))
    line = check_line(CheckResult("marked", False, "greatest a_1^1", values[index], grid.point(index)))
    argv = [subcommand, "torus-warped", *(GRID if subcommand == "analyze" else VERDICTS[subcommand])]
    assert_refused_with(argv, fmt, line, "frame_invertibility")


def structured(split):
    """A record of this test alone that reads the structure and the
    split, and its read: it fails at the first point where C_ta^a is
    greatest, ``a`` the first leaf index and ``t`` the first transverse."""
    t, a = split.transverse_ordered[0], split.leaf_ordered[0]

    def read(block):
        return block.c[t, a, a]

    def judge(grid, states):
        ((value, at),) = states
        return CheckResult("structured", False, f"greatest C_{t + 1}{a + 1}^{a + 1}", value, _point(*at), 0.0)

    return td.model.Hypothesis((Fold(read, _greatest),), judge), read


@pytest.fixture
def structured_record(monkeypatch):
    """``model.hypotheses`` with the ``structured`` record last."""
    hypotheses = td.model.hypotheses
    for module in (td.model, td.tautness):
        monkeypatch.setattr(
            module, "hypotheses", lambda model, split: (*hypotheses(model, split), structured(split)[0])
        )


STRUCTURED = [
    (name, subcommand)
    for name, verdicts in [("torus-warped", VERDICTS), ("t3a", CONSTANT_VERDICTS)]
    for subcommand in ("analyze", *verdicts)
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, subcommand", STRUCTURED, ids=[f"{n}-{s}" for n, s in STRUCTURED])
def test_a_record_that_reads_the_structure_and_the_split_refuses_through_every_command(
    structured_record, name, subcommand, fmt
):
    # analyze judges it on a sweep with structure once the model's first
    # record passes; judged on the det-only sweep, it would find no C
    model, split = td.builtin_model(name)
    grid = td.sample_grid(model, 8)
    _, read = structured(split)
    (values,) = swept_rows(model, grid, read)
    index = int(np.argmax(values))
    t, a = split.transverse_ordered[0] + 1, split.leaf_ordered[0] + 1
    line = check_line(CheckResult("structured", False, f"greatest C_{t}{a}^{a}", values[index], grid.point(index)))
    argv = [subcommand, name, *(GRID if subcommand == "analyze" else VERDICTS[subcommand])]
    first = "frame_invertibility" if model.is_chart else "jacobi_identity"
    assert_refused_with(argv, fmt, line, first)
