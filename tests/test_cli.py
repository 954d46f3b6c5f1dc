"""CLI subcommands: reports, JSON round-trips, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import transdiv as td
from transdiv.cli import main

LOG_BIG = math.log((3 + math.sqrt(5)) / 2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_field(tmp_path, name, components):
    path = tmp_path / name
    path.write_text(json.dumps({"components": components}))
    return str(path)


# --- happy paths ------------------------------------------------------------------

def test_taut_check_t3a_text(capsys):
    code, out, err = run(capsys, "taut-check", "t3a", "--field", "alvarez")
    assert code == 0
    assert err == ""
    assert "verdict: NON-TAUT WITNESS" in out
    assert "0.926259" in out
    assert "not proof" in out


def test_taut_check_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "taut-check", "t3a", "--field", "alvarez", "--format", "json"
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


def test_spectral_example_text(capsys):
    code, out, _ = run(capsys, "spectral", "--matrix", "2,0,-1;0,3,-1;-1,-1,1")
    assert code == 0
    assert "-x^3+6x^2-9x+1" in out
    assert "(0, 1)" in out and "(2, 3)" in out and "(3, 4)" in out
    assert "suspension-admissible: yes" in out


def test_spectral_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "spectral", "--matrix", "2,1;1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["char_poly"]["coefficients_descending"] == [1, -3, 1]
    assert payload["eigenvalues"][1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert json.loads(json.dumps(payload)) == payload


def test_taut_check_constant_field_file(capsys, tmp_path):
    field = write_field(tmp_path, "const.json", ["0", "0.4"])
    code, out, _ = run(capsys, "taut-check", "torus-warped", "--field", field)
    assert code == 0
    assert "IDENTICALLY ZERO (consistent with taut)" in out


def test_green_check_cli(capsys, tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run(
        capsys,
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


def test_suspend_writes_loadable_model(capsys, tmp_path):
    out_path = tmp_path / "model.json"
    code, out, _ = run(
        capsys, "suspend", "--matrix", "2,1;1,1", "--leaf", "2", "-o", str(out_path)
    )
    assert code == 0
    assert "wrote model file" in out
    document = json.loads(out_path.read_text())
    model, split = td.load_model(document)
    assert model.dim == 3
    assert split.leaf_ordered == (2,)


def test_builtin_and_suspended_file_agree(capsys, tmp_path):
    out_path = tmp_path / "t3a.json"
    run(capsys, "suspend", "--matrix", "2,1;1,1", "--leaf", "2", "-o", str(out_path))
    code1, out1, _ = run(
        capsys, "taut-check", "t3a", "--field", "alvarez", "--format", "json"
    )
    code2, out2, _ = run(
        capsys, "taut-check", str(out_path), "--field", "alvarez", "--format", "json"
    )
    assert code1 == code2 == 0
    assert json.loads(out1)["max_value"] == json.loads(out2)["max_value"]


def test_analyze_t3a(capsys):
    code, out, _ = run(capsys, "analyze", "t3a")
    assert code == 0
    assert "validation: pass" in out
    assert "Gamma_33^1" in out
    assert f"{LOG_BIG:.12g}"[:10] in out


def test_analyze_json_round_trip(capsys):
    code, out, _ = run(capsys, "analyze", "torus-warped", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["passed"]
    assert payload["leaf_indices"] == [1]
    assert json.loads(json.dumps(payload)) == payload


def test_volume_check_flat(capsys, tmp_path):
    field = write_field(tmp_path, "unit.json", ["0", "1"])
    code, out, _ = run(capsys, "volume-check", "flat-kronecker", "--field", field)
    assert code == 0
    assert "preserved (L_v nu_Q = 0): yes" in out
    assert "dense leaves asserted by model: yes" in out


def test_volume_check_inapplicable(capsys, tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run(
        capsys, "volume-check", "torus-warped", "--field", field, "--grid", "1,64"
    )
    assert code == 0
    assert "preserved (L_v nu_Q = 0): no" in out
    assert "not asserted" in out


def test_cover_cli(capsys, tmp_path):
    field = write_field(tmp_path, "cos.json", ["0", "cos(2*pi*x2)"])
    code, out, _ = run(
        capsys,
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


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
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

def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "taut-check", "t3a")  # --field missing
    assert code == 1
    assert "field" in err


def test_bad_grid_exit_1(capsys):
    code, _, err = run(
        capsys, "taut-check", "t3a", "--field", "alvarez", "--grid", "0,4"
    )
    assert code == 1
    assert "grid" in err


def test_unknown_model_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "moebius")
    assert code == 1
    assert "builtin" in err


def test_bad_matrix_exit_1(capsys):
    code, _, err = run(capsys, "spectral", "--matrix", "2,x;1,1")
    assert code == 1
    assert "integer" in err


def test_schema_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "kind": "chart"}))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "missing required key" in err


def test_invalid_json_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1


def test_domain_error_exit_2(capsys, tmp_path):
    field = write_field(tmp_path, "log.json", ["0", "ln(x2-2)"])
    code, _, err = run(capsys, "taut-check", "torus-warped", "--field", field)
    assert code == 2
    assert "ln" in err


@pytest.mark.parametrize(
    "component",
    ["sin(1e200*1e200)", "1e200*1e200*x2 - 1e200*1e200*x2", "exp(1000*x2)"],
)
def test_non_finite_field_exit_2_with_one_line(capsys, tmp_path, component):
    field = write_field(tmp_path, "overflow.json", ["0", component])
    code, out, err = run(
        capsys, "taut-check", "torus-warped", "--field", field, "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_finite_tolerance_exit_1(capsys):
    code, _, err = run(capsys, "taut-check", "t3a", "--field", "alvarez", "--tol", "nan")
    assert code == 1
    assert "--tol" in err


def test_unwritable_output_exit_1(capsys, tmp_path):
    target = tmp_path / "missing-directory" / "report.json"
    code, _, err = run(capsys, "taut-check", "t3a", "--field", "alvarez", "--output", str(target))
    assert code == 1
    assert err.startswith("error: ")


def test_singular_model_exit_3(capsys, tmp_path):
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
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "singular" in err


def test_non_basic_field_exit_3(capsys, tmp_path):
    field = write_field(tmp_path, "bad.json", ["0", "cos(2*pi*x1)"])
    code, _, err = run(capsys, "taut-check", "torus-warped", "--field", field)
    assert code == 3
    assert "residual" in err


def test_inadmissible_suspend_exit_3(capsys, tmp_path):
    code, _, err = run(
        capsys,
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


def test_analyze_reports_validation_failure_exit_3(capsys, tmp_path):
    # loads fine (frame never singular on the probe lattice) but the
    # stored constants break the Jacobi identity
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
    code, out, _ = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "jacobi_identity: FAIL" in out


# --- module execution ------------------------------------------------------------------

def test_python_dash_m_entry_point():
    # the child imports the package from where this process found it,
    # installed or not
    package_root = os.path.dirname(os.path.dirname(td.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-m", "transdiv", "spectral", "--matrix", "2,1;1,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    assert "x^2-3x+1" in completed.stdout
