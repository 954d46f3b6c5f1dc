"""CLI subcommands: reports, JSON round-trips, exit codes."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import transdiv as td
from transdiv import cli
from transdiv.records import CheckResult, check_line
from transdiv.tautness import _green_terms

from generators import UNREADABLE, block_runs, run_cli, swept_rows

LOG_BIG = math.log((3 + math.sqrt(5)) / 2)


def write_field(tmp_path, name, components):
    path = tmp_path / name
    path.write_text(json.dumps({"components": components}))
    return str(path)


# --- happy paths ------------------------------------------------------------------

def test_taut_check_t3a_text():
    code, out, err = run_cli("taut-check", "t3a", "--field", "alvarez")
    assert code == 0
    assert err == ""
    assert "verdict: NON-TAUT WITNESS" in out
    assert "0.926259" in out
    assert "not proof" in out


def test_taut_check_json_round_trip():
    code, out, _ = run_cli(
        "taut-check", "t3a", "--field", "alvarez", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NonTautWitness"
    # bit-exact numeric round trip against an independent library run
    model, split = td.builtin_model("t3a")
    tau = td.alvarez_candidate(model, split)
    expected = td.transverse_divergence(model, split, tau, ())
    assert payload["max_value"] == expected
    assert json.loads(json.dumps(payload)) == payload


def test_spectral_example_text():
    code, out, _ = run_cli("spectral", "--matrix", "2,0,-1;0,3,-1;-1,-1,1")
    assert code == 0
    assert "-x^3+6x^2-9x+1" in out
    assert "(0, 1)" in out and "(2, 3)" in out and "(3, 4)" in out
    assert "suspension-admissible: yes" in out


def test_spectral_json_round_trip():
    code, out, _ = run_cli(
        "spectral", "--matrix", "2,1;1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["char_poly"]["coefficients_descending"] == [1, -3, 1]
    assert payload["eigenvalues"][1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert json.loads(json.dumps(payload)) == payload


def test_spectral_and_suspend_report_equal_logs(tmp_path):
    # numpy's log and math.log differ by one ulp on the third eigenvalue here
    matrix = "1,-2,1,1,2;-2,5,-4,-2,-4;1,-4,6,3,2;1,-2,3,6,2;2,-4,2,2,5"
    code, out, _ = run_cli("spectral", "--matrix", matrix, "--format", "json")
    assert code == 0
    spectral_logs = json.loads(out)["log_eigenvalues"]
    code, out, _ = run_cli(
        "suspend", "--matrix", matrix, "--leaf", "1",
        "-o", str(tmp_path / "model.json"), "--format", "json",
    )
    assert code == 0
    suspend_logs = list(json.loads(out)["log_eigenvalues"].values())
    assert [x.hex() for x in spectral_logs] == [x.hex() for x in suspend_logs]
    assert spectral_logs[2].hex() == "0x1.309dfb46a95ddp+0"


def test_small_eigenvalue_keeps_the_product_and_the_log_sum(tmp_path):
    # eigenvalues near 1e-20 and 1e20, det 1
    matrix = f"{10**20},1;{10**20 - 1},1"
    code, out, _ = run_cli("spectral", "--matrix", matrix, "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["eigenvalue_product"] - 1.0) <= 1e-12
    code, out, _ = run_cli(
        "suspend", "--matrix", matrix, "--leaf", "1",
        "-o", str(tmp_path / "model.json"), "--format", "json",
    )
    assert code == 0
    assert abs(sum(json.loads(out)["log_eigenvalues"].values())) <= 1e-12


def test_taut_check_constant_field_file(tmp_path):
    field = write_field(tmp_path, "const.json", ["0", "0.4"])
    code, out, _ = run_cli("taut-check", "torus-warped", "--field", field)
    assert code == 0
    assert "IDENTICALLY ZERO (consistent with taut)" in out


def test_green_check_cli(tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run_cli(
        "green-check",
        "torus-warped",
        "--field",
        field,
        "--grid",
        "8,128",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_error"] <= 1e-10
    assert payload["lhs"] == pytest.approx(payload["rhs"], abs=1e-10)


def test_a_green_sum_overflows_only_where_its_exact_total_does(tmp_path):
    # the terms 2.4e307 * 2 pi cos(2 pi x2) reach about 1.4e308, so a sum
    # in point order passes the float range at its second term (math.fsum
    # raises), while the exact total is about -8e292: the report gives it
    # correctly rounded
    document = {
        "name": "wide", "kind": "chart", "dim": 2, "leaf_indices": [1],
        "periods": [8.0, 1.0], "frame": ["1", "0", "0", "1"],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document))
    field = write_field(tmp_path, "sine.json", ["0", "2.4e307*sin(2*pi*x2)"])
    code, out, err = run_cli(
        "green-check", str(path), "--field", field, "--grid", "1,8", "--format", "json",
    )
    assert (code, err) == (0, "")
    model, split = td.load_model(document)
    spec = td.vector_field(["0", "2.4e307*sin(2*pi*x2)"], model)
    lhs_term, _ = _green_terms(split, 8.0 / 1 * 1.0 / 8)
    (terms,) = swept_rows(model, td.sample_grid(model, (1, 8)), lhs_term, field_spec=spec)
    with pytest.raises(OverflowError):
        math.fsum(terms.tolist())
    lhs = json.loads(out)["lhs"]
    assert lhs == float(sum(map(Fraction, terms.tolist()))) and -1e293 < lhs < -1e292


def test_a_folded_constant_reports_as_its_parameter_does(tmp_path):
    # the constant exp(0.019) and exp(s) at s = 0.019 give one value, so the
    # two charts report the same Green terms bit for bit
    reports = []
    for parameters, factor in (({}, "exp(0.019)"), ({"s": 0.019}, "exp(s)")):
        path = tmp_path / f"chart{len(reports)}.json"
        path.write_text(json.dumps({
            "name": "warped", "kind": "chart", "dim": 2, "leaf_indices": [1],
            "periods": [1, 1], "parameters": parameters,
            "frame": [f"{factor}*exp(-(0.3*sin(2*pi*x2)))", "0", "0", "1"],
        }))
        code, out, err = run_cli(
            "green-check", str(path), "--field", "alvarez", "--grid", "8,64",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]


def test_suspend_writes_loadable_model(tmp_path):
    out_path = tmp_path / "model.json"
    code, out, _ = run_cli(
        "suspend", "--matrix", "2,1;1,1", "--leaf", "2", "-o", str(out_path)
    )
    assert code == 0
    assert "wrote model file" in out
    document = json.loads(out_path.read_text())
    model, split = td.load_model(document)
    assert model.dim == 3
    assert split.leaf_ordered == (2,)


def test_builtin_and_suspended_file_agree(tmp_path):
    out_path = tmp_path / "t3a.json"
    run_cli("suspend", "--matrix", "2,1;1,1", "--leaf", "2", "-o", str(out_path))
    code1, out1, _ = run_cli(
        "taut-check", "t3a", "--field", "alvarez", "--format", "json"
    )
    code2, out2, _ = run_cli(
        "taut-check", str(out_path), "--field", "alvarez", "--format", "json"
    )
    assert code1 == code2 == 0
    assert json.loads(out1)["max_value"] == json.loads(out2)["max_value"]


def test_analyze_t3a():
    code, out, _ = run_cli("analyze", "t3a")
    assert code == 0
    assert "validation: pass" in out
    assert "Gamma_33^1" in out
    assert f"{LOG_BIG:.12g}"[:10] in out


def test_analyze_json_round_trip():
    code, out, _ = run_cli("analyze", "torus-warped", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["passed"]
    assert payload["leaf_indices"] == [1]
    assert json.loads(json.dumps(payload)) == payload


def test_volume_check_flat(tmp_path):
    field = write_field(tmp_path, "unit.json", ["0", "1"])
    code, out, _ = run_cli("volume-check", "flat-kronecker", "--field", field)
    assert code == 0
    assert "preserved (L_v nu_Q = 0): yes" in out
    assert "dense leaves asserted by model: yes" in out


def test_volume_check_inapplicable(tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run_cli(
        "volume-check", "torus-warped", "--field", field, "--grid", "1,64"
    )
    assert code == 0
    assert "preserved (L_v nu_Q = 0): no" in out
    assert "not asserted" in out


def test_cover_cli(tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run_cli(
        "cover",
        "torus-warped",
        "--field",
        field,
        "--coord",
        "2",
        "--fold",
        "3",
        "--grid",
        "2,24",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts_agree"]
    assert payload["max_pointwise_difference"] <= 1e-12


@pytest.mark.parametrize("coord, difference", [("1", 0.0), ("2", 2.0)])
def test_cover_measures_the_seam_of_a_field_not_periodic_along_its_coordinate(
    tmp_path, coord, difference
):
    # div^Q(x2^2 E2) = 2 x2 on torus-warped: the lift reads 2 x2 on the
    # second sheet of x2, the base 2 (x2 - 1) at the projected point;
    # along x1, which no expression reads, the two agree
    field = write_field(tmp_path, "square.json", ["0", "x2*x2"])
    argv = ("cover", "torus-warped", "--field", field, "--coord", coord, "--fold", "2", "--grid", "16")
    code, out, _ = run_cli(*argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["max_pointwise_difference"] == difference


def test_cover_of_a_chart_defined_on_the_base_box_only_is_refused(tmp_path):
    # E2 = 1 + sqrt(1.5 - x1*x2) is real on the unit box, but not on its
    # 2-fold cover along x2, whose x2 runs to 2
    path = tmp_path / "sqrt-both.json"
    path.write_text(json.dumps({
        "name": "sqrt-both", "kind": "chart", "dim": 2, "leaf_indices": [1], "periods": [1.0, 1.0],
        "frame": ["1", "0", "0", "1 + sqrt(1.5 - x1*x2)"],
    }))
    argv = ("cover", str(path), "--field", "alvarez", "--coord", "2", "--fold", "2", "--grid", "16")
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: sqrt of negative value")
    assert run_cli("taut-check", str(path), "--field", "alvarez", "--grid", "16")[0] == 0


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "taut-check",
        "t3a",
        "--field",
        "alvarez",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "NonTautWitness"


# --- exit codes ---------------------------------------------------------------------

def test_usage_error_exit_1():
    code, _, err = run_cli("taut-check", "t3a")  # --field missing
    assert code == 1
    assert "field" in err


@pytest.mark.parametrize(
    "model, grid, message",
    [
        ("t3a", "0,4", "grid"),
        ("torus-warped", "4,4,4", "error: resolution (4, 4, 4) does not match model dimension 2\n"),
    ],
    ids=["entry-below-1", "entry-count"],
)
def test_bad_grid_exit_1(model, grid, message):
    code, _, err = run_cli(
        "taut-check", model, "--field", "alvarez", "--grid", grid
    )
    assert code == 1
    assert message in err


def test_unknown_model_exit_1():
    code, _, err = run_cli("analyze", "moebius")
    assert code == 1
    assert "builtin" in err


def test_bad_matrix_exit_1():
    code, _, err = run_cli("spectral", "--matrix", "2,x;1,1")
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize(
    "matrix", ["1_000,1;999,1", "\uff12,1;1,1", pytest.param("1" * 5000 + ",0;0,1", id="5000-digits")]
)
def test_matrix_entries_are_ascii_digits(matrix):
    # int() reads "1_000" as 1000 and a fullwidth digit as 2, and refuses
    # more than 4300 digits with ValueError
    code, _, err = run_cli("spectral", "--matrix", matrix)
    assert code == 1
    assert "is not an integer" in err


#: Values that int() reads but that are not integers of ASCII digits:
#: "1_6" is 16 to int(), and "\u0663" (Arabic-Indic three) and "\uff12"
#: (fullwidth two) are 3 and 2; and 5000 digits, more than int() converts
NOT_ASCII_INTEGERS = ["1_6", "\u0663", "\uff12", pytest.param("9" * 5000, id="5000-digits")]


@pytest.mark.parametrize("value", NOT_ASCII_INTEGERS)
@pytest.mark.parametrize(
    "argv, option",
    [
        (("taut-check", "torus-warped", "--field", "alvarez", "--grid", "{}"), "--grid"),
        (("taut-check", "torus-warped", "--field", "alvarez", "--grid", "4,{}"), "--grid"),
        (("cover", "torus-warped", "--field", "alvarez", "--coord", "{}", "--fold", "2", "--grid", "4"),
         "--coord"),
        (("cover", "torus-warped", "--field", "alvarez", "--coord", "2", "--fold", "{}", "--grid", "4"),
         "--fold"),
        (("suspend", "--matrix", "2,1;1,1", "--leaf", "{}", "-o", "{out}"), "--leaf"),
    ],
    ids=["grid", "grid-entry", "coord", "fold", "leaf"],
)
def test_integer_arguments_are_ascii_digits(tmp_path, argv, option, value):
    # each is refused as --matrix refuses such an entry: exit 1 with one
    # usage line naming the argument, and nothing written
    out = tmp_path / "model.json"
    code, stdout, err = run_cli(*(arg.format(value, out=out) for arg in argv))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: argument {option}: ") and err.count("\n") == 1
    assert repr(argv[argv.index(option) + 1].format(value)) in err
    assert not out.exists()


@pytest.mark.parametrize("value, grid", [("3", (3, 3)), (" 3", (3, 3)), ("+3", (3, 3)), ("4, 3", (4, 3))])
def test_grid_reads_signed_and_spaced_ascii_integers(value, grid):
    # as int() reads them, and as --matrix reads its entries
    code, out, _ = run_cli("taut-check", "torus-warped", "--field", "alvarez", "--grid", value)
    assert code == 0
    assert f"grid: {grid[0]}x{grid[1]} cell-centered lattice" in out


def test_schema_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "kind": "chart"}))
    code, _, err = run_cli("analyze", str(bad))
    assert code == 1
    assert "missing required key" in err


def test_invalid_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("analyze", str(bad))
    assert code == 1


def test_domain_error_exit_2(tmp_path):
    field = write_field(tmp_path, "log.json", ["0", "ln(x2-2)"])
    code, _, err = run_cli("taut-check", "torus-warped", "--field", field)
    assert code == 2
    assert "ln" in err


@pytest.mark.parametrize(
    "component",
    ["sin(1e200*1e200)", "1e200*1e200*x2 - 1e200*1e200*x2", "exp(1000*x2)"],
)
def test_non_finite_field_exit_2_with_one_line(tmp_path, component):
    field = write_field(tmp_path, "overflow.json", ["0", component])
    code, out, err = run_cli(
        "taut-check", "torus-warped", "--field", field, "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


CHART_2D = {
    "name": "flat",
    "kind": "chart",
    "dim": 2,
    "leaf_indices": [1],
    "periods": [1.0, 1.0],
    "frame": ["1", "0", "0", "1"],
}


@pytest.mark.parametrize(
    "model, field, message",
    [
        (
            {
                "name": "nan-constant",
                "kind": "constant_structure",
                "dim": 3,
                "leaf_indices": [3],
                "structure_constants": [{"i": 1, "j": 2, "k": 2, "value": math.nan}],
            },
            None,
            "structure-constant value must be a finite number or string, got nan",
        ),
        (CHART_2D, [0, math.nan], "field component 1 must be a finite number, got nan"),
        (CHART_2D, [math.inf, 0], "field component 0 must be a finite number, got inf"),
        (
            {**CHART_2D, "frame": [math.inf, 0, 0, 1]},
            None,
            "frame entry inf must be a string or finite number",
        ),
        # ints past the float range, which math.isfinite cannot convert
        # (each message holds the int's first digits, which name the case)
        *(
            case
            for huge, digits in ((10**400, "10000"), (-(10**400), "-1000"))
            for case in (
                ({**CHART_2D, "parameters": {"p": huge}}, None, f"parameter 'p': {digits}"),
                ({**CHART_2D, "periods": [1.0, huge]}, None, "'periods' must list 2 positive finite numbers"),
                ({**CHART_2D, "frame": [huge, 0, 0, 1]}, None, f"frame entry {digits}"),
                (
                    {
                        "name": "huge-constant",
                        "kind": "constant_structure",
                        "dim": 3,
                        "leaf_indices": [3],
                        "structure_constants": [{"i": 1, "j": 2, "k": 3, "value": huge}],
                    },
                    None,
                    f"structure-constant value must be a finite number or string, got {digits}",
                ),
                (CHART_2D, [0, huge], f"field component 1 must be a finite number, got {digits}"),
            )
        ),
    ],
)
def test_non_finite_document_number_exit_1(tmp_path, model, field, message):
    # json writes NaN and Infinity, which json.loads reads back as floats,
    # and ints of any size
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    field_path = "alvarez" if field is None else write_field(tmp_path, "field.json", field)
    code, out, err = run_cli("taut-check", str(model_path), "--field", field_path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# C_12^2 C_13^3 overflows, so the Jacobi residual is inf - inf = nan
HUGE = {
    "name": "huge",
    "kind": "constant_structure",
    "dim": 3,
    "leaf_indices": [3],
    "structure_constants": [
        {"i": 1, "j": 2, "k": 2, "value": 1e200},
        {"i": 1, "j": 3, "k": 3, "value": -1e200},
    ],
}
JACOBI_OVERFLOW = "error: non-finite Jacobi residual |cyclic sum C_ij^m C_mk^l| at ()\n"
ZERO_FIELD = {"components": [0, 0, 0]}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, error",
    [
        (("analyze", HUGE), JACOBI_OVERFLOW),
        # the zero field's sweep is finite, so the verdict's gate refuses
        (("taut-check", HUGE, "--field", ZERO_FIELD), JACOBI_OVERFLOW),
        (("volume-check", HUGE, "--field", ZERO_FIELD), JACOBI_OVERFLOW),
        # the eigenvalues are finite, their product is not
        (("spectral", "--matrix", f"{10**200},0;0,{10**200 + 1}"),
         "error: report holds a non-finite value: eigenvalue_product\n"),
    ],
    ids=["analyze-nan-jacobi", "taut-check-nan-jacobi", "volume-check-nan-jacobi",
         "spectral-inf-product"],
)
def test_non_finite_report_exit_2_in_both_formats(tmp_path, argv, error, fmt):
    argv = list(argv)
    for index, entry in enumerate(argv):
        if isinstance(entry, dict):  # a model or field document, passed as its file
            path = tmp_path / f"{index}.json"
            path.write_text(json.dumps(entry))
            argv[index] = str(path)
    code, out, err = run_cli(*argv, "--format", fmt)
    assert (code, out, err) == (2, "", error)


def test_text_reports_are_checked_by_the_json_guard(monkeypatch):
    # one non-finite guard for both formats: the payload's JSON encoding
    # decides, and a text report still writes its lines
    encodings = []
    dumps = cli.json.dumps

    def spy(*args, **kwargs):
        encodings.append(kwargs)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    code, out, err = run_cli("taut-check", "torus-warped", "--field", "alvarez", "--grid", "4")
    assert (code, err) == (0, "") and out.startswith("model: torus-warped")
    assert [kwargs["allow_nan"] for kwargs in encodings] == [False]
    args = cli._parser().parse_args(["analyze", "t3a"])
    with pytest.raises(td.DomainError, match=r"non-finite value: checks\[1\]\.worst$"):
        cli._emit({"checks": [{"worst": 1.0}, {"worst": -math.inf}]}, ["line"], args)


def _nonzero_entries_by_loop(array):
    """``cli._nonzero_entries`` as it was, one Python test per entry: the
    reference its NumPy indices must match byte for byte."""
    return [
        {"i": i + 1, "j": j + 1, "k": k + 1, "value": float(array[i, j, k])}
        for i, j, k in itertools.product(range(len(array)), repeat=3)
        if array[i, j, k] != 0.0
    ]


def test_nonzero_entries_match_the_loop_over_every_entry():
    # a drawn dim-40 constant-structure document, a third of its constants
    # nonzero, and a table holding -0.0, NaN and infinities
    rng = random.Random(40)
    constants = [
        (i, j, k, rng.uniform(-1.0, 1.0) if rng.random() < 0.3 else 0.0)
        for i in range(40) for j in range(i + 1, 40) for k in range(40)
    ]
    model = td.constant_structure_model("drawn-40", 40, constants)
    tables = td.model.at_point(model, (), lambda block: block.c, lambda block: block.gamma)
    odd = np.zeros((3, 3, 3))
    odd[0, 1, 2], odd[1, 0, 0], odd[2, 2, 1], odd[2, 2, 2] = -0.0, math.nan, math.inf, -math.inf
    for table in (*tables, odd):
        assert list(map(repr, cli._nonzero_entries(table))) == list(map(repr, _nonzero_entries_by_loop(table)))
    assert len(cli._nonzero_entries(tables[0])) > 10_000


def test_non_finite_field_is_named_in_json_order():
    report = {"ok": 1.0, "checks": [{"worst": 2.0}, {"name": "x", "worst": math.nan}],
              "later": math.inf}
    assert cli._non_finite_field(report) == "checks[1].worst"
    assert cli._non_finite_field({"values": (0.5, -math.inf)}) == "values[1]"
    assert cli._non_finite_field({"values": [0.5, "inf", None, True]}) is None


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("spectral", "--matrix", str(10**309)),
        # det = 1 and real, simple, positive eigenvalues near 10^309 and 10^-309
        ("suspend", "--matrix", f"{10**309},1;{10**309 - 1},1", "--leaf", "1", "-o", "unused"),
    ],
    ids=["spectral", "suspend"],
)
def test_eigenvalue_beyond_float_range_exit_2(tmp_path, argv, fmt):
    argv = tuple(str(tmp_path / entry) if entry == "unused" else entry for entry in argv)
    code, out, err = run_cli(*argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: an eigenvalue is beyond the float range (above 1.8e308)\n"
    assert not (tmp_path / "unused").exists()


#: SL(3, Z) companion matrices of x^3 - 3 10^165 x^2 -+ 10^330 x - 1: det 1
#: and real simple eigenvalues near 3.8e164 (or -3.0e164), 2.6e165 (or
#: 3.3e165) and +-1e-330, whose float is a zero
UNDERFLOWING = [f"0,0,1;1,0,{sign}{10**330};0,1,{3 * 10**165}" for sign in ("-", "")]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("subcommand", ["spectral", "suspend"])
@pytest.mark.parametrize("matrix", UNDERFLOWING, ids=["positive", "negative"])
def test_eigenvalue_below_float_range_exit_2(tmp_path, matrix, subcommand, fmt):
    # a nonzero eigenvalue whose float is 0 is refused: its check would
    # report a false eigenvalues_positive: FAIL and a product of 0
    out_path = tmp_path / "model.json"
    extra = ("--leaf", "2", "-o", str(out_path)) if subcommand == "suspend" else ()
    code, out, err = run_cli(subcommand, "--matrix", matrix, *extra, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: an eigenvalue is below the float range (nonzero, rounds to 0)\n"
    assert not out_path.exists()


def test_a_zero_eigenvalue_is_reported():
    # an eigenvalue that is 0 exactly, enclosure (0, 0), fails its check
    code, out, _ = run_cli("spectral", "--matrix", "0,0;0,2", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["enclosures"] == [[0, 0], [2, 2]]
    assert [check["passed"] for check in payload["checks"] if check["name"] == "eigenvalues_positive"] == [False]


def test_non_finite_tolerance_exit_1():
    code, _, err = run_cli("taut-check", "t3a", "--field", "alvarez", "--tol", "nan")
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("taut-check", "t3a", "--field", "alvarez", "--tol=-5"),
        ("taut-check", "flat-kronecker", "--field", "alvarez", "--grid", "4", "--tol=-1e-9"),
        ("volume-check", "flat-kronecker", "--field", "alvarez", "--grid", "4", "--tol=-1e-9"),
        ("cover", "torus-warped", "--field", "alvarez", "--grid", "4", "--tol=-1"),
    ],
)
def test_negative_tolerance_exit_1(argv):
    # a negative tolerance once called a one-point grid and an identically
    # zero divergence MIXED SIGN, with exit code 0
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --tol: must be >= 0, got {argv[-1].split('=')[1]!r}\n"


def test_unwritable_output_exit_1(tmp_path):
    target = tmp_path / "missing-directory" / "report.json"
    code, _, err = run_cli("taut-check", "t3a", "--field", "alvarez", "--output", str(target))
    assert code == 1
    assert err.startswith("error: ")


def test_singular_model_exit_3(tmp_path):
    bad = tmp_path / "singular.json"
    bad.write_text(
        json.dumps(
            {
                "name": "pinched",
                "kind": "chart",
                "dim": 2,
                "leaf_indices": [1],
                "periods": [1.0, 1.0],
                "frame": ["x1", "0", "0", "1"],
            }
        )
    )
    code, out, err = run_cli("analyze", str(bad))
    assert (code, err) == (3, "")
    assert "  frame_invertibility: FAIL (min |det(frame)|" in out


@pytest.mark.parametrize(
    "frame, code, message, record",
    [
        (  # det A overflows at every grid point; the first is reported, and
           # analyze reports it as the failed invertibility record
            ["1e200*(2+sin(2*pi*x2))", "0", "0", "1e200"],
            2,
            "non-finite frame determinant at (0.015625, 0.015625)",
            "frame_invertibility: FAIL (frame evaluation failed: non-finite frame determinant at "
            "(0.015625, 0.015625), worst 0.000e+00 at (0.015625, 0.015625))",
        ),
        (  # a frame partial, not an entry, divides by zero at the report
           # point, where every record passes
            ["1", "0", "0", "sqrt((x1-0.015625)*(x1-0.015625))+1"],
            2,
            "division by zero in "
            "'(x1-0.015625+(x1-0.015625))/(2.0*sqrt((x1-0.015625)*(x1-0.015625)))'",
            None,
        ),
    ],
    ids=["determinant-overflow", "failing-frame-partial"],
)
@pytest.mark.parametrize("argv", [["analyze"], ["taut-check", "--field", "alvarez"]])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_frame_refusals_name_the_failure(tmp_path, frame, code, message, record, argv, fmt):
    model = tmp_path / "refused.json"
    model.write_text(json.dumps({**CHART_2D, "name": "refused", "frame": frame}))
    result = run_cli(argv[0], str(model), *argv[1:], "--format", fmt)
    if argv[0] != "analyze" or record is None:
        assert result == (code, "", f"error: {message}\n")
    elif fmt == "text":
        assert result[0::2] == (3, "") and result[1].endswith(
            f"\n  {record}\nreport point: (0.015625, 0.015625)\n"
            f"structure not evaluated at the report point: {message}\n"
        )
    else:
        report = json.loads(result[1])
        assert result[0::2] == (3, "") and not report["validation"]["passed"]
        assert [report[key] for key in ("structure_functions", "christoffel", "mean_curvature")] == [None] * 3


#: Charts whose frame fails at one cell centre of an 8x8 grid, each with
#: its failed record, and the message that reading the structure at the
#: report point (0.0625, 0.0625) raises, None where it reads there
GATE_BEFORE_THE_REPORT_POINT = {
    "singular-at-the-report-point": (
        "x1 - 0.0625",
        "frame_invertibility: FAIL (min |det(frame)| over 128 probe points (threshold 1e-10), "
        "worst 0.000e+00 at (0.0625, 0.0625))",
        "frame matrix is singular at (0.0625, 0.0625) (|det| = 0.000e+00)",
    ),
    "singular-elsewhere": (
        "x1 - 0.1875",
        "frame_invertibility: FAIL (min |det(frame)| over 128 probe points (threshold 1e-10), "
        "worst 0.000e+00 at (0.1875, 0.0625))",
        None,
    ),
    "failing-at-the-report-point": (
        "2 + sqrt(x1 - 0.5)",
        "frame_invertibility: FAIL (frame evaluation failed: sqrt of negative value -0.4375 in "
        "'sqrt(x1-0.5)', worst 0.000e+00 at (0.0625, 0.0625))",
        "sqrt of negative value -0.4375 in 'sqrt(x1-0.5)'",
    ),
    "failing-elsewhere": (
        "2 + sqrt(0.5 - x1)",
        "frame_invertibility: FAIL (frame evaluation failed: sqrt of negative value -0.0625 in "
        "'sqrt(0.5-x1)', worst 0.000e+00 at (0.5625, 0.0625))",
        None,
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "entry, record, unevaluated", GATE_BEFORE_THE_REPORT_POINT.values(), ids=GATE_BEFORE_THE_REPORT_POINT,
)
def test_analyze_judges_the_gate_before_its_report_point(tmp_path, entry, record, unevaluated, fmt):
    # analyze exits 3 with the failed record wherever the frame fails;
    # where it fails at the report point, the structure is not evaluated
    model = tmp_path / "gated.json"
    model.write_text(json.dumps({**CHART_2D, "name": "gated", "frame": [entry, "0", "0", "1"]}))
    code, out, err = run_cli("analyze", str(model), "--grid", "8", "--format", fmt)
    assert (code, err) == (3, "")
    head = [
        "model: gated (chart, dim 2)", "split: leaf indices [1], transverse indices [2]",
        "validation: FAIL", f"  {record}", "report point: (0.0625, 0.0625)",
    ]
    if fmt == "json":
        report = json.loads(out)
        (check,) = report["validation"]["checks"]
        shown = CheckResult(check["name"], check["passed"], check["detail"], check["worst"], tuple(check["worst_point"]))
        assert check_line(shown) == record and report["report_point"] == [0.0625, 0.0625]
        structure = [report[key] for key in ("structure_functions", "christoffel", "mean_curvature")]
        assert (structure == [None] * 3) == (unevaluated is not None)
    elif unevaluated is None:
        assert out.startswith("\n".join(head) + "\nnonzero structure functions C_ij^k")
    else:
        assert out == "\n".join([*head, f"structure not evaluated at the report point: {unevaluated}"]) + "\n"


@pytest.mark.parametrize(
    "periods, argv",
    [
        ([1e308, 1.0], ["taut-check", "--field", "alvarez"]),
        ([1e308, 1.0], ["green-check", "--field", "alvarez"]),
        ([1e308, 1.0], ["volume-check", "--field", "alvarez"]),
        ([1e308, 1.0], ["analyze"]),
        ([1.0, 5e307], ["cover", "--field", "alvarez", "--coord", "2", "--fold", "2"]),
    ],
)
def test_a_lattice_past_the_float_range_is_refused(tmp_path, periods, argv):
    # (j + 0.5) * 1e308 / 4 passes the float range at j = 2 and 3, where
    # the sweep once read x1 = inf, and printed IDENTICALLY ZERO (exit 0)
    # since no expression reads x1; the cover's period is 1e308
    path = tmp_path / "wide.json"
    frame = ["1", "0", "0", "1"]
    path.write_text(json.dumps({**CHART_2D, "name": "wide", "periods": periods, "frame": frame}))
    code, out, err = run_cli(argv[0], str(path), *argv[1:], "--grid", "4")
    shown = f"({periods[0]!r}, {periods[1] * (2 if argv[0] == 'cover' else 1)!r})"
    assert (code, out) == (3, "")
    assert err == f"error: lattice coordinates of periods {shown} pass the float range\n"


@pytest.mark.parametrize(
    "periods, frame, field, resolution, cell",
    [
        # the cell volume 1e-400 underflows to 0 and zeroed every term:
        # lhs = rhs = 0 passed, where the integrals are about -9.5e-201
        (
            [1e-200, 1e-200], ["exp(-(0.3*sin(2*pi*x2*1e200)))", "0", "0", "1"],
            ["0", "cos(2*pi*x2*1e200)"], (64, 64), "0.0",
        ),
        # the cell volume 1e360/64 overflows to inf, which made every
        # finite term inf and was refused as a non-finite term
        (
            [1e120] * 3, ["exp(-(0.3*sin(2*pi*x3*1e-120)))", "0", "0", "0", "1", "0", "0", "0", "1"],
            ["0", "0", "1e-100*cos(2*pi*x3*1e-120)"], (4, 4, 64), "inf",
        ),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_green_cell_volume_past_the_float_range_is_refused(
    tmp_path, periods, frame, field, resolution, cell, fmt
):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({
        **CHART_2D, "name": "scaled", "dim": len(periods), "periods": periods, "frame": frame,
    }))
    argv = ["green-check", str(path), "--field", write_field(tmp_path, "v.json", field)]
    code, out, err = run_cli(*argv, "--grid", ",".join(map(str, resolution)), "--format", fmt)
    assert (code, out) == (3, "")
    assert err == (
        f"error: cell volume {cell} of periods {tuple(periods)} at grid {resolution} "
        "leaves the float range\n"
    )


def test_non_basic_field_exit_3(tmp_path):
    field = write_field(tmp_path, "bad.json", ["0", "cos(2*pi*x1)"])
    code, _, err = run_cli("taut-check", "torus-warped", "--field", field)
    assert code == 3
    assert "residual" in err


def test_non_basic_mean_curvature_exit_3_with_one_line(tmp_path):
    # the warp varies along the leaves, so kappa# = -f_y(x, y) E2 is not basic
    path = tmp_path / "leafwise-warp.json"
    path.write_text(
        json.dumps(
            {
                "name": "leafwise-warp",
                "kind": "chart",
                "dim": 2,
                "leaf_indices": [1],
                "periods": [1.0, 1.0],
                "frame": ["exp(-(0.3*sin(2*pi*x1)*sin(2*pi*x2)))", "0", "0", "1"],
            }
        )
    )
    code, out, err = run_cli("taut-check", str(path), "--field", "alvarez")
    assert code == 3
    assert out == ""
    assert err.startswith("error: field is not basic: ") and err.count("\n") == 1


WARPED_3D = {
    "name": "warped-3d",
    "kind": "chart",
    "dim": 3,
    "leaf_indices": [1],
    "periods": [1.0, 1.0, 1.0],
    "frame": [
        "exp(-(0.2*sin(4*pi*x3)))", "0", "0",
        "0", "exp(-(0.1*cos(6*pi*x3)))", "0",
        "0", "0", "1",
    ],
}


_SWEEPS = [
    ("taut-check", "warped-3d", "16", 16 ** 3),
    ("taut-check", "torus-warped", "64", 64 ** 2),
    ("taut-check", "t3a", "1", 1),
    ("volume-check", "warped-3d", "16", 16 ** 3),
    ("volume-check", "torus-warped", "64", 64 ** 2),
    ("volume-check", "t3a", "1", 1),
    ("green-check", "torus-warped", "16,64", 16 * 64),
    ("green-check", "warped-3d", "8", 8 ** 3),
]


def _sweep_id(subcommand, model, grid, points):
    # the taut-check cases keep the ids they had before the other subcommands
    parts = (model, grid, points)
    if subcommand != "taut-check":
        parts = (subcommand, *parts)
    return "-".join(map(str, parts))


@pytest.mark.parametrize(
    "subcommand, model, grid, points",
    [pytest.param(*case, id=_sweep_id(*case)) for case in _SWEEPS],
)
def test_each_field_sweep_covers_each_point_once(
    monkeypatch, tmp_path, subcommand, model, grid, points
):
    if model == "warped-3d":
        path = tmp_path / "warped-3d.json"
        path.write_text(json.dumps(WARPED_3D))
        model = str(path)
    built = block_runs(monkeypatch)
    code, _, err = run_cli(subcommand, model, "--field", "alvarez", "--grid", grid)
    assert (code, err) == (0, "")
    assert sum(len(run.block) for run in built if run.field_spec is not None and run.structure) == points


def test_analyze_builds_the_structure_once(monkeypatch):
    built = block_runs(monkeypatch)
    code, _, err = run_cli("analyze", "torus-warped", "--grid", "64")
    assert (code, err) == (0, "")
    assert [len(run.block) for run in built if run.structure] == [1]


def _raising(exc):
    def handler(args):
        raise exc

    return handler


_CHECK = td.CheckResult("basic_field", False, "residual", worst=1.0, worst_point=(0.5,), tolerance=1e-9)


@pytest.mark.parametrize(
    "exc, code",
    [
        (cli.UsageError("usage"), 1),
        (td.SchemaError("schema"), 1),  # a ModelError
        (td.ParseError("parse", 3), 1),  # an ExprError
        (td.UnknownFunctionError("frob", 0), 1),
        (FileNotFoundError("no such file"), 1),
        (td.ModelError("model"), 3),
        (td.SingularFrameError((0.0,), 0.0), 3),
        (td.NotBasicError(_CHECK), 3),
        (td.catalog.UnknownBuiltinError("nope"), 3),
        (td.InadmissibleMatrixError("inadmissible"), 3),  # a SpectralError
        (td.SpectralError("spectral"), 2),
        (td.ExprError("expr"), 2),
        (td.EvalError("eval"), 2),
        (td.DomainError("domain"), 2),
        (td.DifferentiationError("differentiation"), 2),
    ],
)
def test_exit_code_ladder(monkeypatch, exc, code):
    monkeypatch.setitem(cli._HANDLERS, "analyze", _raising(exc))
    assert run_cli("analyze", "t3a") == (code, "", f"error: {exc}\n")


def test_main_reuses_one_parser(monkeypatch, tmp_path):
    field = write_field(tmp_path, "log.json", ["0", "ln(x2-2)"])
    sequence = [
        ("spectral", "--matrix", "2,1;1,1"),
        ("taut-check", "t3a", "--field", "alvarez", "--grid", "0"),
        ("taut-check", "t3a", "--field", "alvarez", "--format", "json"),
        ("taut-check", "torus-warped", "--field", field, "--grid", "4"),
        ("cover", "torus-warped", "--field", "alvarez", "--fold", "2"),
        ("no-such-subcommand",),
        ("taut-check", "torus-warped", "--field", "alvarez", "--grid", "4"),
        ("spectral", "--matrix", "2,1;1,1", "--format", "json", "--tol", "1"),
        ("analyze", "t3a", "--format", "json"),
    ]
    built = []
    build = cli.build_parser

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    shared = [run_cli(*argv) for argv in sequence]
    assert len(built) <= 1
    assert [code for code, _, _ in shared] == [0, 1, 0, 2, 1, 1, 0, 1, 0]
    monkeypatch.setattr(cli, "_parser", build)  # a fresh parser for every call
    assert [run_cli(*argv) for argv in sequence] == shared


def test_inadmissible_suspend_exit_3(tmp_path):
    code, _, err = run_cli(
        "suspend",
        "--matrix",
        "0,-1;1,0",
        "--leaf",
        "1",
        "-o",
        str(tmp_path / "nope.json"),
    )
    assert code == 3
    assert "admissible" in err


def test_analyze_reports_validation_failure_exit_3(tmp_path):
    # loads fine, but the stored constants break the Jacobi identity
    bad = tmp_path / "nonjacobi.json"
    bad.write_text(
        json.dumps(
            {
                "name": "broken",
                "kind": "constant_structure",
                "dim": 3,
                "leaf_indices": [3],
                "structure_constants": [
                    {"i": 1, "j": 2, "k": 2, "value": 1.0},
                    {"i": 1, "j": 3, "k": 3, "value": 1.0},
                    {"i": 2, "j": 3, "k": 1, "value": 1.0},
                ],
            }
        )
    )
    code, out, _ = run_cli("analyze", str(bad))
    assert code == 3
    assert "jacobi_identity: FAIL" in out


# --- one-line refusals ---------------------------------------------------------------
#
# Every refusal below exits 1 with one error line and no report.

@pytest.mark.parametrize("kind, argv", [
    ("model", ("analyze", "{}")), ("field", ("taut-check", "torus-warped", "--field", "{}")),
], ids=["model", "field"])
@pytest.mark.parametrize("content, message", UNREADABLE.values(), ids=UNREADABLE)
def test_an_unreadable_file_is_refused_with_one_line_naming_it(tmp_path, kind, argv, content, message):
    path = tmp_path / "document.json"
    path.write_bytes(content)
    assert run_cli(*(arg.format(path) for arg in argv)) == (1, "", f"error: {kind} file {path} {message}\n")


OPTION_REFUSALS = {
    "tol": (("taut-check", "t3a", "--field", "alvarez", "--tol", "abc"), "argument --tol: expects a number, got 'abc'"),
    "missing-field": (
        ("taut-check", "torus-warped", "--field", "{tmp}/absent.json"),
        "field file '{tmp}/absent.json' does not exist",
    ),
    "coord": (
        ("cover", "torus-warped", "--field", "alvarez", "--coord", "0", "--fold", "2"),
        "--coord must be in 1..2",
    ),
    "fold": (("cover", "torus-warped", "--field", "alvarez", "--coord", "1", "--fold", "0"), "--fold must be >= 1"),
}


@pytest.mark.parametrize("argv, message", OPTION_REFUSALS.values(), ids=OPTION_REFUSALS)
def test_an_option_refusal_is_one_line(tmp_path, argv, message):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(*argv) == (1, "", f"error: {message.replace('{tmp}', str(tmp_path))}\n")


CONSTANT_3D = {
    "name": "heisenberg",
    "kind": "constant_structure",
    "dim": 3,
    "leaf_indices": [3],
    "structure_constants": [{"i": 1, "j": 2, "k": 3, "value": 1.0}],
}

#: Model documents that load_model refuses, each with its message
MODEL_REFUSALS = {
    "list": ([CHART_2D], "model document must be an object, got <class 'list'>"),
    "dim-true": ({**CHART_2D, "dim": True}, "'dim' must be a positive integer, got True"),
    "dim-0": ({**CHART_2D, "dim": 0}, "'dim' must be a positive integer, got 0"),
    "parameters-list": ({**CHART_2D, "parameters": [1.0]}, "'parameters' must be a mapping of name to number"),
    "parameter-pi": (
        {**CHART_2D, "parameters": {"pi": 1.0}},
        "model document for 'flat' is invalid: parameter name 'pi' is reserved",
    ),
    "parameter-x1": (
        {**CONSTANT_3D, "parameters": {"x1": 1.0}},
        "model document for 'heisenberg' is invalid: parameter name 'x1' shadows a coordinate",
    ),
    "dense-leaves": ({**CHART_2D, "dense_leaves": 1}, "'dense_leaves' must be a boolean"),
    "constant-periods": ({**CONSTANT_3D, "periods": [1.0] * 3}, "constant_structure model cannot carry 'periods'"),
    "constant-frame": ({**CONSTANT_3D, "frame": ["1"] * 9}, "constant_structure model cannot carry 'frame'"),
    "chart-constants": ({**CHART_2D, "structure_constants": []}, "chart model cannot carry 'structure_constants'"),
    "constant-keys": (
        {**CONSTANT_3D, "structure_constants": [{"i": 1, "j": 2, "k": 3}]},
        "structure constant entries need exactly the keys i, j, k, value; got {'i': 1, 'j': 2, 'k': 3}",
    ),
    "undeclared": (
        {**CONSTANT_3D, "parameters": {"p": 1.0}, "structure_constants": [{"i": 1, "j": 2, "k": 3, "value": "2*q"}]},
        "structure-constant value '2*q' references undeclared ['q']",
    ),
    # the document's 1-based indices
    "duplicate": (
        {**CONSTANT_3D, "structure_constants": [{"i": 1, "j": 2, "k": 2, "value": v} for v in (1.0, 2.0)]},
        "duplicate structure constant (1,2,2)",
    ),
}


@pytest.mark.parametrize("document, message", MODEL_REFUSALS.values(), ids=MODEL_REFUSALS)
def test_a_model_document_refusal_is_one_line(tmp_path, document, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    for argv in (("analyze", str(path)), ("taut-check", str(path), "--field", "alvarez")):
        assert run_cli(*argv) == (1, "", f"error: {message}\n")


#: Field documents that load_field refuses on a model, each with its message
FIELD_REFUSALS = {
    "list": ("torus-warped", [0, 1], "field document must be an object, got <class 'list'>"),
    "unknown-key": ("torus-warped", {"components": [0, 1], "scale": 2}, "field document has unknown key(s) ['scale']"),
    "count": ("torus-warped", {"components": [0, 1, 2]}, "field document has 3 components, model needs 2"),
    "true": ("torus-warped", {"components": [True, 1]}, "field component 0 must be a number or string"),
    "null": ("torus-warped", {"components": [0, None]}, "field component 1 must be a number or string"),
    "string-on-constant": (
        "t3a", {"components": [0, "1", 0]},
        "constant-structure field components must be plain numbers; component 1 is '1'",
    ),
}


@pytest.mark.parametrize("model, document, message", FIELD_REFUSALS.values(), ids=FIELD_REFUSALS)
def test_a_field_document_refusal_is_one_line(tmp_path, model, document, message):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(document))
    for subcommand in ("taut-check", "volume-check", "green-check"):
        assert run_cli(subcommand, model, "--field", str(path), "--grid", "4") == (1, "", f"error: {message}\n")


def test_numeric_frame_entries_load_as_their_strings(tmp_path):
    reports = []
    for frame in (["exp(-0.3*sin(2*pi*x2))", 0, 0.5, 2], ["exp(-0.3*sin(2*pi*x2))", "0", "0.5", "2"]):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**CHART_2D, "frame": frame}))
        code, out, err = run_cli("taut-check", str(path), "--field", "alvarez", "--grid", "8", "--format", "json")
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verdict"] == "MixedSign"


# --- expression nesting ------------------------------------------------------------

DEEP_SHAPES = {
    "sum": lambda k: "1+" + "+".join(["0.001*x2"] * k),
    "parentheses": lambda k: "(" * k + "1+0.1*sin(x2)" + ")" * k,
    "product": lambda k: "1" + "*(1+0.001*x2)" * k,
    "quotient": lambda k: "1" + "/(1+0.001*x2)" * k,
    "functions": lambda k: "1+" + "sin(" * k + "x2" + ")" * k,
}


def deepest_accepted(build):
    for k in range(1, 2 * td.expr.MAX_DEPTH):
        try:
            td.expr.parse(build(k + 1))
        except td.ParseError:
            return build(k)
    raise AssertionError("no nesting bound found")


@pytest.mark.parametrize(
    "component",
    ["(" * 300 + "x2" + ")" * 300, "+".join(["x2"] * 600)],
    ids=["300-parentheses", "600-term-sum"],
)
def test_over_deep_field_exit_1_with_one_line(tmp_path, component):
    field = write_field(tmp_path, "deep.json", ["0", component])
    code, out, err = run_cli("taut-check", "torus-warped", "--field", field)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested deeper than" in err


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deepest_accepted_expression_runs(tmp_path, shape):
    component = deepest_accepted(DEEP_SHAPES[shape])
    field = write_field(tmp_path, "deep.json", ["0", component])
    code, _, err = run_cli("taut-check", "torus-warped", "--field", field, "--grid", "4")
    assert (code, err) == (0, "")
    model = tmp_path / "deep-model.json"
    model.write_text(
        json.dumps(
            {
                "name": "deep",
                "kind": "chart",
                "dim": 2,
                "leaf_indices": [1],
                "periods": [1.0, 1.0],
                "frame": [component, "0", "0", "1"],
            }
        )
    )
    code, _, err = run_cli("analyze", str(model), "--grid", "4")
    assert (code, err) == (0, "")
    # the mean-curvature candidate differentiates the frame twice
    code, _, err = run_cli("taut-check", str(model), "--field", "alvarez", "--grid", "4")
    assert (code, err) == (0, "")


# --- module execution ------------------------------------------------------------------

def _child_env() -> dict:
    """The environment of a fresh interpreter that imports the package
    from where this process found it, installed or not."""
    package_root = os.path.dirname(os.path.dirname(td.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


def _child_json(code: str):
    """What a fresh interpreter running ``code`` prints, read as JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_python_dash_m_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "transdiv", "spectral", "--matrix", "2,1;1,1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert completed.returncode == 0
    assert "x^2-3x+1" in completed.stdout


@pytest.mark.parametrize(
    "io_encoding, output, report",
    [
        ("utf-8", False, "model: tore-\u00e9 (chart, dim 2)\n".encode("utf-8")),
        (None, False, b"model: tore-\\xe9 (chart, dim 2)\n"),
        (None, True, "model: tore-\u00e9 (chart, dim 2)\n".encode("utf-8")),
    ],
    ids=["stdout-utf-8", "stdout-ascii", "output"],
)
def test_model_files_are_read_as_utf_8_in_any_locale(tmp_path, io_encoding, output, report):
    # under the C locale, with its coercion and UTF-8 mode off, Python's
    # default encoding is ASCII: stdout escapes what it cannot write, as
    # stderr does, and --output is written as UTF-8, as inputs are read
    path, written = tmp_path / "model.json", tmp_path / "report.txt"
    path.write_bytes(json.dumps({**CHART_2D, "name": "tore-\u00e9"}, ensure_ascii=False).encode("utf-8"))
    env = {**_child_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    env.update({"PYTHONIOENCODING": io_encoding} if io_encoding else {})
    argv = ["analyze", str(path), "--grid", "2", *(["--output", str(written)] if output else [])]
    completed = subprocess.run([sys.executable, "-m", "transdiv", *argv], capture_output=True, env=env)
    assert (completed.returncode, completed.stderr) == (0, b"")
    if output:
        assert completed.stdout == b""
    assert (written.read_bytes() if output else completed.stdout).startswith(report)


def test_fresh_run_holds_a_run_to_its_exit_code_and_line():
    # tests/fresh_run.py, the runner of CI's large-grid runs: it passes the
    # run's report through and fails on a wrong exit code or a missing line
    argv = ["taut-check", "torus-warped", "--field", "alvarez", "--grid", "8"]

    def fresh(code, line):
        runner = os.path.join(os.path.dirname(__file__), "fresh_run.py")
        return subprocess.run(
            [sys.executable, runner, code, line, *argv], capture_output=True, text=True, env=_child_env()
        )

    passed = fresh("0", "stdout:verdict: MIXED SIGN (consistent with taut)")
    assert (passed.returncode, passed.stdout) == (0, run_cli(*argv)[1])
    summary = rf"{re.escape(' '.join(argv))}: exit 0, [0-9.]+ s, peak [0-9.]+ MB, [0-9]+ minor faults\n"
    assert re.fullmatch(summary, passed.stderr), passed.stderr
    wrong_code = fresh("3", "")
    assert wrong_code.returncode == 1
    assert wrong_code.stderr.endswith(f"error: {' '.join(argv)}: exit 0, not 3\n")
    missing = fresh("0", "stderr:verdict: MIXED SIGN")
    assert missing.returncode == 1
    assert missing.stderr.endswith(f"error: {' '.join(argv)}: no 'stderr:verdict: MIXED SIGN'\n")


def test_cli_import_loads_no_numpy_and_no_sweep_layer():
    loaded = _child_json(
        "import json, sys\n"
        "import transdiv.cli\n"
        "layers = ('numpy', 'transdiv.expr', 'transdiv.model', 'transdiv.tautness',\n"
        "          'transdiv.connection')\n"
        "print(json.dumps([name for name in layers if name in sys.modules]))\n"
    )
    assert loaded == []


def test_suspend_loads_no_numpy_and_no_model_layer(tmp_path):
    written = tmp_path / "t3a.json"
    result = _child_json(
        "import contextlib, io, json, sys\n"
        "from transdiv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['suspend', '--matrix', '2,1;1,1', '--leaf', '2', '-o', {str(written)!r}])\n"
        "print(json.dumps([code, [name for name in ('numpy', 'transdiv.model') if name in sys.modules]]))\n"
    )
    assert result == [0, []]
    # the t3a builtin is this document, renamed
    assert json.loads(written.read_text()) == {**td.builtin_document("t3a"), "name": "suspension(2,1;1,1)"}


#: 2x2, 3x3, an eigenvalue near 10^20 and one near 10^-20, and an
#: inadmissible matrix (complex eigenvalues)
SPECTRAL_MATRICES = (
    "2,1;1,1",
    "2,0,-1;0,3,-1;-1,-1,1",
    "100000000000000000000,1;99999999999999999999,1",
    "0,1;-1,0",
)


def test_spectral_runs_with_numpy_blocked():
    argvs = [
        ["spectral", "--matrix", matrix, "--format", fmt]
        for matrix in SPECTRAL_MATRICES
        for fmt in ("text", "json")
    ]
    # importing numpy raises ImportError once its sys.modules entry is None
    blocked = _child_json(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from transdiv.cli import main\n"
        "reports = []\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    reports.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(reports))\n"
    )
    assert blocked == [list(run_cli(*argv)) for argv in argvs]
    assert [code for code, _, _ in blocked] == [0] * len(argvs)


#: The module each public name was imported from before the package
#: resolved its names lazily.
PUBLIC_HOMES = {
    "catalog": "BUILTIN_NAMES builtin_document builtin_model",
    "connection": "christoffel mean_curvature transverse_divergence",
    "expr": (
        "DifferentiationError DomainError EvalError Expr ExprError ParseError "
        "UnboundVariableError UnknownFunctionError differentiate evaluate parse to_string"
    ),
    "model": (
        "CheckResult FoliationSplit FrameModel Grid ModelError SchemaError "
        "SingularFrameError VectorFieldSpec chart_model check_basic "
        "constant_structure_model foliation_split load_field load_model "
        "model_to_document sample_grid structure_functions validate_model vector_field"
    ),
    "spectral": (
        "InadmissibleMatrixError IsolatedRoot MatrixDiagnostics SpectralError "
        "build_suspension char_poly determinant parse_matrix real_eigenvalues "
        "validate_suspension_matrix"
    ),
    "tautness": (
        "NotBasicError QuadratureReport TautnessClass TautnessVerdict "
        "VolumePreservationReport alvarez_candidate classify_divergence "
        "green_check lift_to_cover volume_preservation_check"
    ),
}


def test_public_names_resolve_lazily_to_their_home_objects():
    # in a fresh interpreter, so that no other test has imported a
    # submodule first: the submodules resolve as attributes before
    # anything imports them
    result = _child_json(
        "import importlib, json\n"
        "import transdiv as td\n"
        "submodules = [td.catalog.__name__, td.spectral.__name__]\n"
        "star = {}\n"
        "exec('from transdiv import *', star)\n"
        f"homes = {PUBLIC_HOMES!r}\n"
        "moved = [name for home, names in homes.items() for name in names.split()\n"
        "         if getattr(td, name) is not getattr(importlib.import_module('transdiv.' + home), name)\n"
        "         or star[name] is not getattr(td, name)]\n"
        "print(json.dumps([submodules, td.__all__, moved]))\n"
    )
    submodules, public, moved = result
    assert submodules == ["transdiv.catalog", "transdiv.spectral"]
    assert public == sorted(name for names in PUBLIC_HOMES.values() for name in names.split())
    assert len(public) == 57
    assert moved == []
