"""Fuzz of ``cli.main`` with random model and field files, and of
``spectral`` and ``suspend`` with random ``--matrix`` text.

Expressions mix benign terms with overflow, NaN-producing and
domain-error cases; documents may carry NaN or infinite numbers, or
ints past the float range, and the examples add files that no JSON
reader reads (``generators.UNREADABLE``); matrices may be ragged, hold
entries far beyond the float range or entries that ``int()`` reads and
the parser refuses.
Whatever the input, ``main`` returns an exit code in 0..3 and never
raises, a JSON report it writes is strict JSON (no NaN/Infinity), a run
that writes no report is a one-line refusal (``generators.refused``),
and the text format gives the same exit code and error line as JSON.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from generators import UNREADABLE, refused, run_cli, written

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
#: JSON numbers, the ints 10**400 and -10**400 past the float range among them
NUMBERS = [0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]


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


def strict_json(text):
    def refuse(constant):
        raise AssertionError(f"report holds {constant}")

    return json.loads(text, parse_constant=refuse)


# C_12^2 C_13^3 overflows, so analyze's Jacobi residual is inf - inf = nan
HUGE_CONSTANTS = {
    "name": "fuzz",
    "kind": "constant_structure",
    "dim": 3,
    "leaf_indices": [3],
    "parameters": {"p": 1.0},
    "structure_constants": [
        {"i": 1, "j": 2, "k": 2, "value": 1e300},
        {"i": 1, "j": 3, "k": 3, "value": -1e300},
    ],
}


NOT_UTF_8, NESTED, DIGITS = (content for content, _ in UNREADABLE.values())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
@example((HUGE_CONSTANTS, "alvarez", "analyze", "1e-9", "1"))
@example((NOT_UTF_8, "alvarez", "analyze", "1e-9", "1"))
@example((NESTED, "alvarez", "taut-check", "1e-9", "1"))
@example((DIGITS, "alvarez", "cover", "1e-9", "1"))
@example((HUGE_CONSTANTS, NOT_UTF_8, "taut-check", "1e-9", "1"))
@example((HUGE_CONSTANTS, NESTED, "volume-check", "1e-9", "1"))
@example((HUGE_CONSTANTS, DIGITS, "green-check", "1e-9", "1"))
@example(({**HUGE_CONSTANTS, "parameters": {"p": 10**400}}, "alvarez", "taut-check", "1e-9", "1"))
@example(({**HUGE_CONSTANTS, "parameters": {}}, {"components": [0, 0, -(10**400)]}, "taut-check", "1e-9", "1"))
def test_main_always_exits_0_to_3(case):
    model, field, subcommand, tol, coord = case
    argv = [subcommand, model]
    if subcommand != "analyze":
        argv += ["--field", field]
    argv += ["--grid", "2,3" if subcommand == "green-check" else "3"]
    if subcommand in ("taut-check", "volume-check", "cover"):
        argv += ["--tol", tol]
    if subcommand == "cover":
        argv += ["--coord", coord, "--fold", "2"]
    with tempfile.TemporaryDirectory() as directory:
        argv = written(directory, argv)
        code, out, err = run_cli(*argv, "--format", "json")
        text_code, text_out, text_err = run_cli(*argv, "--format", "text")
    assert (text_code, text_err) == (code, err)
    assert bool(text_out) == bool(out)
    assert code in (0, 1, 2, 3)
    if out:  # a report: on success, or from analyze with failed validation
        assert code in (0, 3)
        strict_json(out)
    else:
        assert refused((code, out, err))


# --- spectral and suspend on drawn --matrix text ------------------------------

#: entries that int() reads but parse_matrix refuses, or that read as +-1 and 0
ODD_ENTRIES = ["", " ", "+1", "-0", " 3 ", "007", "1_0", "２", "٣", "1.0", "x", "--1"]


def matrix_entries():
    return st.one_of(
        st.integers(-20, 20).map(str),
        st.integers(-(10**400), 10**400).map(str),
        st.sampled_from(ODD_ENTRIES),
    )


@st.composite
def matrix_texts(draw):
    """1 to 9 rows, square or ragged."""
    rows = draw(st.integers(1, 9))
    square = draw(st.booleans())
    lengths = [rows if square else draw(st.integers(1, 9)) for _ in range(rows)]
    return ";".join(
        ",".join(draw(st.lists(matrix_entries(), min_size=length, max_size=length)))
        for length in lengths
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["spectral", "suspend"]), matrix_texts(), st.integers(-1, 10))
@example("spectral", "2,1;1,1", 1)
@example("suspend", "2,1;1,1", 2)
@example("suspend", "2,0,-1;0,3,-1;-1,-1,1", 0)
@example("spectral", str(10**400), 1)
@example("suspend", f"{10**309},1;{10**309 - 1},1", 1)
def test_spectral_and_suspend_always_exit_0_to_3(subcommand, matrix, leaf):
    with tempfile.TemporaryDirectory() as directory:
        argv = [subcommand, f"--matrix={matrix}"]
        if subcommand == "suspend":
            argv += ["--leaf", str(leaf), "-o", f"{directory}/model.json"]
        code, out, err = run_cli(*argv, "--format", "json")
        text_code, text_out, text_err = run_cli(*argv, "--format", "text")
    assert (text_code, text_err) == (code, err)
    assert bool(text_out) == bool(out)
    assert code in (0, 1, 2, 3)
    if out:
        assert code == 0
        strict_json(out)
    else:
        assert refused((code, out, err))


# --- one hypothesis gate for every verdict --------------------------------------

PAIRS = [(1, 2), (1, 3), (2, 3)]

constant_tables = st.lists(
    st.tuples(st.sampled_from(PAIRS), st.sampled_from([1, 2, 3]),
              st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 1e200, 1.7e308, -1.7e308])),
    max_size=5,
    unique_by=lambda entry: (entry[0], entry[1]),
)
ZERO_FIELD = {"components": [0, 0, 0]}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(constant_tables)
@example([((1, 2), 3, 1.0), ((2, 3), 1, 1.0), ((1, 3), 2, -1.0)])  # so(3)
@example([((1, 2), 3, 1.0)])  # Heisenberg
@example([((1, 2), 1, 1.0), ((1, 3), 2, 1.0)])  # Jacobi sum 1
# constants that overflow the connection coefficients and the Jacobi
# residual: C_12^2 = 1.7e308, and so(3) times 1e308
@example([((1, 2), 2, 1.7e308)])
@example([((1, 2), 3, 1e308), ((2, 3), 1, 1e308), ((1, 3), 2, -1e308)])
def test_analyze_and_the_verdicts_refuse_the_same_tables(table):
    # the zero field is basic with div^Q = 0 on any table, so only the
    # gate can refuse it: the verdicts exit as analyze does, refuse with
    # its line where it exits 2, and where it exits 3 with the failed
    # record that its report prints
    model = {
        "name": "fuzz",
        "kind": "constant_structure",
        "dim": 3,
        "leaf_indices": [3],
        "structure_constants": [
            {"i": i, "j": j, "k": k, "value": value} for (i, j), k, value in table
        ],
    }
    with tempfile.TemporaryDirectory() as directory:
        (code, report, line), *verdicts = [
            run_cli(*written(directory, argv))
            for argv in (
                ("analyze", model),
                ("taut-check", model, "--field", ZERO_FIELD),
                ("volume-check", model, "--field", ZERO_FIELD),
            )
        ]
    for verdict in verdicts:
        assert verdict[0] == code, (verdict, code)
        if code == 2:
            assert verdict == (code, report, line)
        elif code == 3:
            assert refused(verdict, 3) and f"\n  {verdict[2].removeprefix('error: ')}" in report
