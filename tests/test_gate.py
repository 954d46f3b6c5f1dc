"""The hypothesis gate: every verdict subcommand refuses a model whose
hypothesis record fails, with that record's line, and the gate costs one
det-only sweep of the lattice corners.  ``model.hypotheses`` is the one
list of records: a record added to it refuses through every verdict
subcommand and ``analyze``."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

import transdiv as td
from transdiv.cli import main
from transdiv.model import Fold, _greatest, _lattice, _point
from transdiv.records import CheckResult, check_line

from generators import lattice_rows, swept_rows

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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "document, line, subcommand",
    MATRIX,
    ids=[f"{document['name']}-{subcommand}" for document, _, subcommand in MATRIX],
)
def test_every_verdict_refuses_a_failed_record_with_its_line(
    tmp_path, document, line, subcommand, fmt
):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    argv = [subcommand, str(path), *(GRID if subcommand == "analyze" else VERDICTS[subcommand])]
    code, out, err = run([*argv, "--format", fmt])
    assert code == 3
    if subcommand != "analyze":
        assert (out, err) == ("", f"error: {line}\n")
    elif fmt == "text":
        assert err == "" and f"\n  {line}\n" in out
    else:
        (record,) = json.loads(out)["validation"]["checks"]
        check = CheckResult(
            record["name"], record["passed"], record["detail"],
            record["worst"], tuple(record["worst_point"]),
        )
        assert err == "" and check_line(check) == line


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
    code, _, _ = run(["taut-check", "torus-warped", "--field", "alvarez", "--grid", "64"])
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


def marked(model, grid, states):
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
        monkeypatch.setattr(module, "hypotheses", lambda model: (*hypotheses(model), record))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("subcommand", ["analyze", *VERDICTS])
def test_a_record_added_to_the_list_refuses_through_every_command(marked_record, subcommand, fmt):
    model, _ = td.builtin_model("torus-warped")
    grid = td.sample_grid(model, 8)
    (values,) = swept_rows(model, grid, lambda block: block.a[0, 0], structure=False)
    index = int(np.argmax(values))
    line = check_line(CheckResult("marked", False, "greatest a_1^1", values[index], grid.point(index)))
    argv = [subcommand, "torus-warped", *(GRID if subcommand == "analyze" else VERDICTS[subcommand])]
    code, out, err = run([*argv, "--format", fmt])
    assert code == 3
    if subcommand != "analyze":
        assert (out, err) == ("", f"error: {line}\n")
    elif fmt == "text":
        assert err == "" and "\n  frame_invertibility: pass (" in out and f"\n  {line}\n" in out
    else:
        invertibility, record = json.loads(out)["validation"]["checks"]
        check = CheckResult(
            record["name"], record["passed"], record["detail"], record["worst"], tuple(record["worst_point"]),
        )
        assert err == "" and invertibility["passed"] and check_line(check) == line
