"""Fuzz of ``cli.main`` with random model and field files.

Expressions mix benign terms with overflow, NaN-producing and
domain-error cases; documents may carry NaN or infinite numbers.
Whatever the input, ``main`` returns an exit code in 0..3 and never
raises, and a JSON report it writes is strict JSON (no NaN/Infinity).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transdiv.cli import main

BENIGN = ["x1", "x2", "1", "0", "0.5", "pi", "0.3*sin(2*pi*x2)", "cos(2*pi*x1)", "p"]
HAZARDS = [
    "1e200*1e200",  # overflow
    "1e200*1e200*x2 - 1e200*1e200*x2",  # inf - inf
    "sin(1e200*1e200)",
    "1e308 + 1e308",
    "exp(1000*x2)",
    "ln(x1 - x1)",
    "sqrt(0 - 1 - x2)",
    "1/(x2 - x2)",
    "(0 - 2)^0.5",
    "0^(0 - 1)",
    "1e400",
    "x1^x2",  # not differentiable in the supported fragment
    "x9",  # unbound
]
NUMBERS = [0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, float("nan"), float("inf"), float("-inf")]


def expressions(max_leaves=6):
    leaves = st.sampled_from(BENIGN + HAZARDS)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
        ),
        max_leaves=max_leaves,
    )


def frame_entry():
    # mostly a loadable frame, sometimes a hazard
    return st.one_of(st.sampled_from(["1", "0", "exp(-(0.3*sin(2*pi*x2)))"]), expressions(3))


def off_diagonal():
    return st.one_of(st.sampled_from(["0", "0.1*sin(2*pi*x2)", "x1"]), expressions(2))


chart_documents = st.fixed_dictionaries(
    {
        "name": st.just("fuzz"),
        "kind": st.just("chart"),
        "dim": st.just(2),
        "leaf_indices": st.just([1]),
        "parameters": st.fixed_dictionaries({"p": st.sampled_from(NUMBERS)}),
        "periods": st.lists(st.sampled_from([1.0, 2.0, 1e300, float("inf")]), min_size=2, max_size=2),
        "frame": st.tuples(frame_entry(), off_diagonal(), off_diagonal(), frame_entry()).map(list),
    }
)

constant_documents = st.fixed_dictionaries(
    {
        "name": st.just("fuzz"),
        "kind": st.just("constant_structure"),
        "dim": st.just(3),
        "leaf_indices": st.just([3]),
        "parameters": st.fixed_dictionaries({"p": st.sampled_from(NUMBERS)}),
        "structure_constants": st.lists(
            st.fixed_dictionaries(
                {
                    "i": st.just(1),
                    "j": st.sampled_from([2, 3]),
                    "k": st.sampled_from([1, 2, 3]),
                    "value": st.one_of(st.sampled_from(NUMBERS), st.sampled_from(["p", "p*p", "ln(p)"])),
                }
            ),
            max_size=2,
            unique_by=lambda entry: (entry["j"], entry["k"]),
        ),
    }
)


@st.composite
def invocations(draw):
    model = draw(st.one_of(chart_documents, constant_documents))
    if model["kind"] == "chart":
        components = [draw(st.one_of(st.just("0"), expressions())), draw(expressions())]
    else:
        components = draw(st.lists(st.sampled_from(NUMBERS), min_size=3, max_size=3))
    field = draw(st.sampled_from([{"components": components}, "alvarez"]))
    subcommand = draw(st.sampled_from(["taut-check", "volume-check", "green-check", "analyze", "cover"]))
    tol = draw(st.sampled_from(["1e-9", "0", "nan", "inf", "-1"]))
    coord = draw(st.sampled_from(["1", "2"]))
    return model, field, subcommand, tol, coord


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def refuse(constant):
        raise AssertionError(f"report holds {constant}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_main_always_exits_0_to_3(case):
    model, field, subcommand, tol, coord = case
    with tempfile.TemporaryDirectory() as directory:
        model_path = os.path.join(directory, "model.json")
        with open(model_path, "w") as handle:
            json.dump(model, handle)  # NaN and inf become NaN / Infinity
        argv = [subcommand, model_path, "--format", "json"]
        if subcommand != "analyze":
            if field == "alvarez":
                argv += ["--field", "alvarez"]
            else:
                field_path = os.path.join(directory, "field.json")
                with open(field_path, "w") as handle:
                    json.dump(field, handle)
                argv += ["--field", field_path]
        argv += ["--grid", "2,3" if subcommand == "green-check" else "3"]
        if subcommand in ("taut-check", "volume-check", "cover"):
            argv += ["--tol", tol]
        if subcommand == "cover":
            argv += ["--coord", coord, "--fold", "2"]
        code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    if out:  # a report: on success, or from analyze with failed validation
        assert code in (0, 3)
        strict_json(out)
    else:
        assert code != 0 and err.startswith("error: ") and err.count("\n") == 1
