"""A ledger of false verdicts: "hard to fool" as a count.

Each case is a model, a field and a grid, with the outcome that the
mathematics requires and the roadmap item that owns it.  A case runs
in-process through ``cli.main``, once in text and once in JSON, and
passes only when both runs show the required outcome: exit 3 for a
model or field outside the hypotheses, or the required verdict with
exit 0.  A case that the program still gets wrong is marked
``xfail(strict=True)`` with its item, so the fix that lands turns it
into an unexpected pass, which fails until the marker is dropped.

The paper's standard examples with known answers run here as ordinary
tests that must pass.
"""

from __future__ import annotations

import json
import math

import pytest

from transdiv.catalog import builtin_document
from transdiv.cli import main

LAMBDA = (3 + math.sqrt(5)) / 2  # the larger eigenvalue of [[2, 1], [1, 1]]
LOG_LAMBDA = math.log(LAMBDA)

WARPED_BOTH = ["(2 + sin(2*pi*x1))*(2 + cos(2*pi*x2))", "0", "0", "1"]

#: s(x2) = -sum_{k<32} (1 - k/32) sin(2 pi k x2) / (pi k), so that
#: s' = 1 - F_32 with F_32 the Fejer kernel: smooth and periodic, with
#: div^Q (s E2) = s' on torus-warped, which is 1 at every point of the
#: 16-point lattice along x2
FEJER = "-(" + " + ".join(f"{1 - k / 32!r}*sin(2*pi*{k}*x2)/(pi*{k})" for k in range(1, 32)) + ")"

VERDICT_TEXT = {
    "IdenticallyZero": "IDENTICALLY ZERO (consistent with taut)",
    "MixedSign": "MIXED SIGN (consistent with taut)",
    "NonTautWitness": "NON-TAUT WITNESS",
}

#: The required outcome of a model outside the hypotheses
REFUSED = "refused"


def chart(name: str, frame: list[str], leaf: list[int], dense_leaves: bool = False) -> dict:
    dim = math.isqrt(len(frame))
    return {
        "name": name, "kind": "chart", "dim": dim, "leaf_indices": leaf,
        "periods": [1.0] * dim, "frame": frame, "dense_leaves": dense_leaves,
    }


def t3a_chart(warp: str) -> dict:
    """The chart of T^3_A, A = [[2, 1], [1, 1]], on (t, x) = (x1, (x2, x3)):
    E1 = d/dt, E2 = lambda^-t u.d/dx, E3 = lambda^t e^warp w.d/dx, with u
    and w the unit eigenvectors of lambda and 1/lambda and leaf [2];
    lambda^t is written exp(ln(lambda) t).  No gluing is declared, so
    the box is a torus whose frame jumps across t = 1 ~ 0."""
    u = (1 / math.hypot(1, LAMBDA - 2), (LAMBDA - 2) / math.hypot(1, LAMBDA - 2))
    w = (-u[1], u[0])
    shrink, grow = f"exp(-{LOG_LAMBDA!r}*x1)", f"exp({LOG_LAMBDA!r}*x1{warp})"
    frame = ["1", "0", "0"]
    frame += ["0", f"{shrink}*{u[0]!r}", f"{shrink}*{u[1]!r}"]
    frame += ["0", f"{grow}*{w[0]!r}", f"{grow}*{w[1]!r}"]
    return chart("t3a-chart", frame, [2])


def scaled_t3a(factor: float) -> dict:
    """t3a with every structure constant times ``factor``: the frame
    times ``factor``, so the same foliation."""
    document = builtin_document("t3a")
    constants = [{**entry, "value": entry["value"] * factor} for entry in document["structure_constants"]]
    return {**document, "name": f"t3a-times-{factor!r}", "structure_constants": constants}


AFFINE = {
    "name": "affine", "kind": "constant_structure", "dim": 3, "leaf_indices": [2],
    "structure_constants": [{"i": 1, "j": 2, "k": 2, "value": 1.0}],
}


def outcomes(capsys, tmp_path, command: str, model, field, grid: str | None) -> list:
    """The (exit code, verdict, stdout) of ``command`` in text and in
    JSON; ``model`` is a builtin name or a document and ``field``
    'alvarez' or a list of components.  The verdict is the class named
    by the text report's verdict line or the JSON report's verdict, or
    None."""
    if isinstance(model, dict):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        model = str(path)
    if isinstance(field, list):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"components": field}))
        field = str(path)
    argv = [command, model, "--field", field, *(["--grid", grid] if grid else [])]
    found = []
    for form in ("text", "json"):
        code = main([*argv, "--format", form])
        out = capsys.readouterr().out
        if code != 0:
            verdict = None
        elif form == "json":
            report = json.loads(out)
            verdict = report.get("verdict", report.get("divergence_verdict"))
        else:
            lines = [line for line in out.splitlines() if line.startswith("verdict: ")]
            verdict = next(
                (name for name, text in VERDICT_TEXT.items() if lines == [f"verdict: {text}"]), None
            )
        found.append((code, verdict, out))
    return found


def require(found: list, required: str) -> None:
    """Both runs show ``required``: exit 3 for REFUSED, else exit 0 with
    that verdict."""
    for code, verdict, _ in found:
        if required == REFUSED:
            assert code == 3, f"exit {code}, verdict {verdict}: not refused"
        else:
            assert (code, verdict) == (0, required), f"exit {code}, verdict {verdict}"


def xfail(item: str):
    label = "items" if "," in item else "item"
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {label} {item}")


# --- the ledger ----------------------------------------------------------------------
#
# (command, model, field, grid, required outcome, owning item); today's
# outcome of each, exit 0, is in the comment.

LEDGER = {
    # IDENTICALLY ZERO: the leaf distribution [E1, E2] is not integrable
    "non-integrable-split": pytest.param(
        "taut-check", chart("non-integrable", ["1", "0", "0", "0", "1", "sin(2*pi*x1)", "0", "0", "1"], [1, 2]),
        "alvarez", "16", REFUSED, marks=xfail("1"),
    ),
    # IDENTICALLY ZERO: the transverse metric varies along the leaves
    "not-bundle-like": pytest.param(
        "taut-check", chart("not-bundle-like", ["1", "0", "0", "exp(-0.3*sin(2*pi*x1))"], [1]),
        "alvarez", "16", REFUSED, marks=xfail("1"),
    ),
    # IDENTICALLY ZERO: [E1, E2] = E2 is not unimodular, so no compact quotient
    "affine": pytest.param("taut-check", AFFINE, "alvarez", None, REFUSED, marks=xfail("1, 15")),
    # NON-TAUT WITNESS, div^Q v = 1: the field x2 E2 jumps across x2 = 1 ~ 0
    "x2-field": pytest.param(
        "taut-check", "torus-warped", ["0", "x2"], "64", REFUSED, marks=xfail("10, 15, 24"),
    ),
    # IDENTICALLY ZERO: the frame jumps across x2 = 1 ~ 0
    "non-periodic-frame": pytest.param(
        "taut-check", chart("e-half-x2", ["exp(-0.5*x2)", "0", "0", "1"], [1]),
        "alvarez", "64", REFUSED, marks=xfail("10, 15, 24"),
    ),
    # NON-TAUT WITNESS, min = max = 1, on a taut builtin: the lattice
    # aliases the Fejer kernel
    "fejer-alias": pytest.param(
        "taut-check", "torus-warped", ["0", FEJER], "16", REFUSED, marks=xfail("15, 24"),
    ),
    # IDENTICALLY ZERO: div^Q = 9.26e-11 falls under the absolute tolerance
    "t3a-times-1e-5": pytest.param(
        "taut-check", scaled_t3a(1e-5), "alvarez", None, "NonTautWitness", marks=xfail("19"),
    ),
    # MIXED SIGN, min -4.51, max 6.36, for a non-taut foliation (Carriere)
    "warped-t3a-chart": pytest.param(
        "taut-check", t3a_chart(" + 0.9*sin(2*pi*x1)"), "alvarez", "64,4,4", REFUSED,
        marks=xfail("10, 11, 2"),
    ),
    # IDENTICALLY ZERO: the grid sits on the zeros of the basic residual
    "warped-both-not-basic": pytest.param(
        "taut-check", chart("warped-both", WARPED_BOTH, [1]), ["0", "sin(2*pi*x1)"], "2,24", REFUSED,
        marks=xfail("24"),
    ),
    "flat-kronecker-not-basic": pytest.param(
        "taut-check", "flat-kronecker", ["0", "sin(2*pi*x1)"], "2,24", REFUSED, marks=xfail("24"),
    ),
    # "preserved: yes", "characterizes tautness": the leaves of slope 1/2
    # are closed, not dense
    "false-dense-leaves": pytest.param(
        "volume-check",
        chart("slope-half", ["2/sqrt(5)", "1/sqrt(5)", "-1/sqrt(5)", "2/sqrt(5)"], [1], dense_leaves=True),
        ["0", "1"], "8", REFUSED, marks=xfail("8, 23"),
    ),
}


@pytest.mark.parametrize("command, model, field, grid, required", LEDGER.values(), ids=LEDGER.keys())
def test_false_verdict(capsys, tmp_path, command, model, field, grid, required):
    require(outcomes(capsys, tmp_path, command, model, field, grid), required)


# --- the standard examples ----------------------------------------------------------------

@pytest.mark.parametrize("model", ["t3a", "suspension-3"])
def test_suspensions_are_non_taut_witnesses(capsys, tmp_path, model):
    require(outcomes(capsys, tmp_path, "taut-check", model, "alvarez", None), "NonTautWitness")


@pytest.mark.parametrize("model, verdict", [("torus-warped", "MixedSign"), ("flat-kronecker", "IdenticallyZero")])
def test_taut_tori_are_consistent_with_taut(capsys, tmp_path, model, verdict):
    require(outcomes(capsys, tmp_path, "taut-check", model, "alvarez", "16"), verdict)


def test_the_plain_t3a_chart_is_a_non_taut_witness(capsys, tmp_path):
    # div^Q kappa = (ln lambda)^2 at every point, as on t3a
    found = outcomes(capsys, tmp_path, "taut-check", t3a_chart(""), "alvarez", "64,4,4")
    require(found, "NonTautWitness")
    report = json.loads(found[1][2])
    assert "div^Q v: min 0.926259282309 at" in found[0][2]
    for value in (report["min_value"], report["max_value"]):
        assert abs(value - LOG_LAMBDA**2) <= 1e-12


def test_the_fejer_field_resolved_is_mixed_sign(capsys, tmp_path):
    # at 64 points along x2 the lattice resolves F_32, and s' takes both signs
    found = outcomes(capsys, tmp_path, "taut-check", "torus-warped", ["0", FEJER], "64")
    require(found, "MixedSign")
    assert json.loads(found[1][2])["min_value"] < -1
