"""Byte-exact check blocks of ``analyze`` and ``spectral``, text and JSON.

The goldens were recorded before the check records of validation, the
basic test and matrix admissibility became one record with one
rendering; they pin what that rendering prints.
"""

from __future__ import annotations

import json

import pytest

from generators import run_cli

NON_JACOBI = {
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

# ln(x1) is fine at every cell centre and fails at the corner x1 = 0
LOG_FRAME = {
    "name": "log-frame",
    "kind": "chart",
    "dim": 2,
    "leaf_indices": [1],
    "periods": [1.0, 1.0],
    "frame": ["2 + ln(x1)", "0", "0", "1"],
}

# (start, stop) of the check block in each report; None runs to the end
MARKS = {
    ("analyze", "text"): ("validation:", "report point:"),
    ("analyze", "json"): ('  "validation": {', '  "report_point"'),
    ("spectral", "text"): ("suspension-admissible:", None),
    ("spectral", "json"): ('  "checks": [', "\n  ]"),
}

GOLDEN = [
    ('analyze', 't3a', 'text', 0, (
        'validation: pass\n'
        '  jacobi_identity: pass (max |cyclic sum C_ij^m C_mk^l| (threshold 1e-12), worst 0.000e+00 at ())\n'
    )),
    ('analyze', 't3a', 'json', 0, (
        '  "validation": {\n'
        '    "passed": true,\n'
        '    "checks": [\n'
        '      {\n'
        '        "name": "jacobi_identity",\n'
        '        "passed": true,\n'
        '        "worst": 0.0,\n'
        '        "worst_point": [],\n'
        '        "detail": "max |cyclic sum C_ij^m C_mk^l| (threshold 1e-12)"\n'
        '      }\n'
        '    ]\n'
        '  },\n'
    )),
    ('analyze', 'torus-warped', 'text', 0, (
        'validation: pass\n'
        '  frame_invertibility: pass (min |det(frame)| over 2048 probe points (threshold 1e-10), worst 7.408e-01 at (0.0, 0.25))\n'
    )),
    ('analyze', 'torus-warped', 'json', 0, (
        '  "validation": {\n'
        '    "passed": true,\n'
        '    "checks": [\n'
        '      {\n'
        '        "name": "frame_invertibility",\n'
        '        "passed": true,\n'
        '        "worst": 0.7408182206817179,\n'
        '        "worst_point": [\n'
        '          0.0,\n'
        '          0.25\n'
        '        ],\n'
        '        "detail": "min |det(frame)| over 2048 probe points (threshold 1e-10)"\n'
        '      }\n'
        '    ]\n'
        '  },\n'
    )),
    ('analyze', 'nonjacobi', 'text', 3, (
        'validation: FAIL\n'
        '  jacobi_identity: FAIL (max |cyclic sum C_ij^m C_mk^l| (threshold 1e-12), worst 2.000e+00 at ())\n'
    )),
    ('analyze', 'nonjacobi', 'json', 3, (
        '  "validation": {\n'
        '    "passed": false,\n'
        '    "checks": [\n'
        '      {\n'
        '        "name": "jacobi_identity",\n'
        '        "passed": false,\n'
        '        "worst": 2.0,\n'
        '        "worst_point": [],\n'
        '        "detail": "max |cyclic sum C_ij^m C_mk^l| (threshold 1e-12)"\n'
        '      }\n'
        '    ]\n'
        '  },\n'
    )),
    ('analyze', 'log-frame', 'text', 3, (
        'validation: FAIL\n'
        "  frame_invertibility: FAIL (frame evaluation failed: ln of non-positive value 0.0 in 'ln(x1)', worst 0.000e+00 at (0.0, 0.0))\n"
    )),
    ('analyze', 'log-frame', 'json', 3, (
        '  "validation": {\n'
        '    "passed": false,\n'
        '    "checks": [\n'
        '      {\n'
        '        "name": "frame_invertibility",\n'
        '        "passed": false,\n'
        '        "worst": 0.0,\n'
        '        "worst_point": [\n'
        '          0.0,\n'
        '          0.0\n'
        '        ],\n'
        '        "detail": "frame evaluation failed: ln of non-positive value 0.0 in \'ln(x1)\'"\n'
        '      }\n'
        '    ]\n'
        '  },\n'
    )),
    ('spectral', '2,1;1,1', 'text', 0, (
        'suspension-admissible: yes\n'
        '  square_integer: pass (2x2 integer matrix)\n'
        '  determinant_one: pass (det = 1 (exact))\n'
        '  eigenvalues_real_simple: pass (all eigenvalues real and simple (Sturm count equals degree))\n'
        '  eigenvalues_positive: pass (eigenvalues [0.38196601125010515, 2.618033988749895])\n'
        '  eigenvalues_not_one: pass (p(1) = -1 (exact))\n'
        '  trace_condition: pass (trace = 3 (admissible 2x2 matrices have trace > 2))\n'
    )),
    ('spectral', '2,1;1,1', 'json', 0, (
        '  "checks": [\n'
        '    {\n'
        '      "name": "square_integer",\n'
        '      "passed": true,\n'
        '      "detail": "2x2 integer matrix"\n'
        '    },\n'
        '    {\n'
        '      "name": "determinant_one",\n'
        '      "passed": true,\n'
        '      "detail": "det = 1 (exact)"\n'
        '    },\n'
        '    {\n'
        '      "name": "eigenvalues_real_simple",\n'
        '      "passed": true,\n'
        '      "detail": "all eigenvalues real and simple (Sturm count equals degree)"\n'
        '    },\n'
        '    {\n'
        '      "name": "eigenvalues_positive",\n'
        '      "passed": true,\n'
        '      "detail": "eigenvalues [0.38196601125010515, 2.618033988749895]"\n'
        '    },\n'
        '    {\n'
        '      "name": "eigenvalues_not_one",\n'
        '      "passed": true,\n'
        '      "detail": "p(1) = -1 (exact)"\n'
        '    },\n'
        '    {\n'
        '      "name": "trace_condition",\n'
        '      "passed": true,\n'
        '      "detail": "trace = 3 (admissible 2x2 matrices have trace > 2)"\n'
        '    }'
    )),
    ('spectral', '0,-1;1,0', 'text', 0, (
        'suspension-admissible: no\n'
        '  square_integer: pass (2x2 integer matrix)\n'
        '  determinant_one: pass (det = 1 (exact))\n'
        '  eigenvalues_real_simple: FAIL (complex or repeated roots: only 0 real roots for degree 2)\n'
        '  trace_condition: FAIL (trace = 0 (admissible 2x2 matrices have trace > 2))\n'
    )),
    ('spectral', '0,-1;1,0', 'json', 0, (
        '  "checks": [\n'
        '    {\n'
        '      "name": "square_integer",\n'
        '      "passed": true,\n'
        '      "detail": "2x2 integer matrix"\n'
        '    },\n'
        '    {\n'
        '      "name": "determinant_one",\n'
        '      "passed": true,\n'
        '      "detail": "det = 1 (exact)"\n'
        '    },\n'
        '    {\n'
        '      "name": "eigenvalues_real_simple",\n'
        '      "passed": false,\n'
        '      "detail": "complex or repeated roots: only 0 real roots for degree 2"\n'
        '    },\n'
        '    {\n'
        '      "name": "trace_condition",\n'
        '      "passed": false,\n'
        '      "detail": "trace = 0 (admissible 2x2 matrices have trace > 2)"\n'
        '    }'
    )),
    ('spectral', '2,1;1', 'text', 0, (
        'suspension-admissible: no\n'
        '  square_integer: FAIL (matrix must be square, got row of length 1)\n'
    )),
    ('spectral', '2,1;1', 'json', 0, (
        '  "checks": [\n'
        '    {\n'
        '      "name": "square_integer",\n'
        '      "passed": false,\n'
        '      "detail": "matrix must be square, got row of length 1"\n'
        '    }'
    )),
]


def check_block(out, subcommand, fmt):
    start, stop = MARKS[subcommand, fmt]
    begin = out.index(start)
    return out[begin:] if stop is None else out[begin:out.index(stop, begin)]


@pytest.mark.parametrize(
    "subcommand, argument, fmt, code, golden",
    GOLDEN,
    ids=[f"{case[0]}-{case[1]}-{case[2]}" for case in GOLDEN],
)
def test_check_block_is_byte_exact(tmp_path, subcommand, argument, fmt, code, golden):
    files = {"nonjacobi": NON_JACOBI, "log-frame": LOG_FRAME}
    if subcommand == "spectral":
        argv = ["spectral", "--matrix", argument]
    elif argument in files:
        path = tmp_path / f"{argument}.json"
        path.write_text(json.dumps(files[argument]))
        argv = ["analyze", str(path)]
    else:
        argv = ["analyze", argument]
    exit_code, out, err = run_cli(*argv, "--format", fmt)
    assert (exit_code, err) == (code, "")
    assert check_block(out, subcommand, fmt) == golden
