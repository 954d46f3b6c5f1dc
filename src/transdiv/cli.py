"""Command-line front end.

Subcommands map one-to-one onto the library operations; each emits a
human-readable text report or a JSON document (``--format json``) that
re-parses with every numeric field bit-exact.

Exit codes: 0 success, 1 usage, schema or file error, 2 math-domain error,
3 model/field validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import BUILTIN_NAMES, builtin_model, is_builtin
from .connection import christoffel, mean_curvature
from .expr import DomainError, EvalError, ExprError, ParseError
from .model import (
    FoliationSplit,
    FrameModel,
    Grid,
    ModelError,
    SchemaError,
    SingularFrameError,
    VectorFieldSpec,
    load_field,
    load_model,
    model_to_document,
    sample_grid,
    structure_functions,
    validate_model,
)
from .spectral import (
    InadmissibleMatrixError,
    SpectralError,
    build_suspension,
    format_matrix,
    format_poly,
    parse_matrix,
    validate_suspension_matrix,
)
from .tautness import (
    NotBasicError,
    TautnessVerdict,
    alvarez_candidate,
    classify_divergence,
    compare_with_cover,
    green_check,
    volume_preservation_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VALIDATION = 3

DEFAULT_RESOLUTION = 32

_VERDICT_TEXT = {
    "IdenticallyZero": "IDENTICALLY ZERO (consistent with taut)",
    "MixedSign": "MIXED SIGN (consistent with taut)",
    "NonTautWitness": "NON-TAUT WITNESS",
    "NegatedNonTautWitness": "NEGATED NON-TAUT WITNESS (-v is the witness)",
    "Inconclusive": "INCONCLUSIVE (empty grid)",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Normalized invocation: one model source, optional field source,
    grid resolution (>= 1 per coordinate), tolerance, output options."""

    subcommand: str
    model_source: str | None
    field_source: str | None
    grid: tuple[int, ...] | None
    tolerance: float
    out_format: str
    output_path: str | None
    matrix_text: str | None = None
    leaf_index: int | None = None
    coord: int | None = None
    fold: int | None = None
    model_out: str | None = None


def _parse_grid(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--grid expects comma-separated integers, got {text!r}")
    if not entries or any(n < 1 for n in entries):
        raise UsageError(f"--grid entries must be >= 1, got {text!r}")
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transdiv",
        description=(
            "Transverse-divergence tautness analysis of foliated models "
            "carried by orthonormal frames."
        ),
    )
    parser.add_argument("--version", action="version", version=f"transdiv {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, model=True, field=False, grid=True, tol=False):
        if model:
            p.add_argument(
                "model",
                help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or model-file path",
            )
        if field:
            p.add_argument(
                "--field",
                required=True,
                help="field-file path, or 'alvarez' for the mean-curvature candidate",
            )
        if grid:
            p.add_argument("--grid", help="resolution per coordinate, e.g. 16,256")
        if tol:
            p.add_argument("--tol", type=float, default=1e-9, help="sign tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="validation, structure and connection tables")
    common(p)

    p = sub.add_parser("taut-check", help="classify the sign of div^Q v over a grid")
    common(p, field=True, tol=True)

    p = sub.add_parser("green-check", help="transverse Green-formula quadrature")
    common(p, field=True, grid=False)
    p.add_argument("--grid", required=True, help="resolution per coordinate, e.g. 16,256")

    p = sub.add_parser("spectral", help="characteristic polynomial and eigenvalues")
    common(p, model=False, grid=False)
    p.add_argument("--matrix", required=True, help='rows as "2,1;1,1"')

    p = sub.add_parser("suspend", help="build a suspension model file")
    common(p, model=False, grid=False)
    p.add_argument("--matrix", required=True, help='rows as "2,1;1,1"')
    p.add_argument(
        "--leaf",
        required=True,
        type=int,
        help="eigen-direction (1-based, eigenvalues ascending) spanning the leaves",
    )
    p.add_argument("-o", "--out", required=True, help="model-file path to write")

    p = sub.add_parser("cover", help="finite periodic cover and verdict comparison")
    common(p, field=True, tol=True)
    p.add_argument("--coord", required=True, type=int, help="coordinate to unroll (1-based)")
    p.add_argument("--fold", required=True, type=int, help="number of sheets (>= 1)")

    p = sub.add_parser("volume-check", help="transverse volume preservation")
    common(p, field=True, tol=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerance = getattr(args, "tol", 1e-9)
    if not math.isfinite(tolerance):
        raise UsageError(f"--tol must be a finite number, got {tolerance!r}")
    return RunConfig(
        subcommand=args.subcommand,
        model_source=getattr(args, "model", None),
        field_source=getattr(args, "field", None),
        grid=_parse_grid(getattr(args, "grid", None)),
        tolerance=tolerance,
        out_format=args.format,
        output_path=args.output,
        matrix_text=getattr(args, "matrix", None),
        leaf_index=getattr(args, "leaf", None),
        coord=getattr(args, "coord", None),
        fold=getattr(args, "fold", None),
        model_out=getattr(args, "out", None),
    )


def _resolve_model(source: str) -> tuple[FrameModel, FoliationSplit]:
    if is_builtin(source):
        return builtin_model(source)
    path = Path(source)
    if not path.exists():
        raise UsageError(
            f"{source!r} is neither a builtin name ({', '.join(BUILTIN_NAMES)}) "
            "nor an existing model file"
        )
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file {source} is not valid JSON: {exc}") from exc
    return load_model(document)


def _resolve_field(
    config: RunConfig, model: FrameModel, split: FoliationSplit
) -> tuple[VectorFieldSpec, str]:
    source = config.field_source
    assert source is not None
    if source == "alvarez":
        return alvarez_candidate(model, split), "alvarez (mean-curvature candidate)"
    path = Path(source)
    if not path.exists():
        raise UsageError(f"field file {source!r} does not exist")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"field file {source} is not valid JSON: {exc}") from exc
    return load_field(document, model), source


def _resolution(config: RunConfig) -> int | tuple[int, ...]:
    if config.grid is None:
        return DEFAULT_RESOLUTION
    if len(config.grid) == 1:
        return config.grid[0]
    return config.grid


def _grid_for(model: FrameModel, config: RunConfig) -> Grid:
    return sample_grid(model, _resolution(config))


def _point(point: tuple[float, ...] | None) -> list[float] | None:
    return None if point is None else [float(x) for x in point]


def _verdict_payload(verdict: TautnessVerdict) -> dict:
    return {
        "verdict": verdict.classification.value,
        "min_value": verdict.min_value,
        "max_value": verdict.max_value,
        "argmin": _point(verdict.argmin),
        "argmax": _point(verdict.argmax),
        "tolerance": verdict.tolerance,
        "status": verdict.epistemic_status,
    }


def _verdict_lines(verdict: TautnessVerdict) -> list[str]:
    lines = [f"verdict: {_VERDICT_TEXT[verdict.classification.value]}"]
    if verdict.min_value is not None:
        lines.append(
            f"div^Q v: min {verdict.min_value:.12g} at {verdict.argmin}, "
            f"max {verdict.max_value:.12g} at {verdict.argmax} "
            f"(tolerance {verdict.tolerance:g})"
        )
    lines.append(f"status: {verdict.epistemic_status}")
    return lines


def _model_header(model: FrameModel, split: FoliationSplit) -> list[str]:
    leaf = [i + 1 for i in split.leaf_ordered]
    transverse = [i + 1 for i in split.transverse_ordered]
    return [
        f"model: {model.name} ({model.kind}, dim {model.dim})",
        f"split: leaf indices {leaf}, transverse indices {transverse}",
    ]


def _grid_text(model: FrameModel, grid: Grid) -> str:
    if not model.is_chart:
        return "single abstract point (position-independent model)"
    shape = "x".join(str(n) for n in grid.resolution)
    return f"{shape} cell-centered lattice ({len(grid.points)} points)"


# --- subcommand handlers -----------------------------------------------------

def _cmd_analyze(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.model_source is not None
    model, split = _resolve_model(config.model_source)
    grid = _grid_for(model, config)
    diagnostics = validate_model(model, grid)
    point = grid.points[0]
    table = structure_functions(model, point)
    gamma = christoffel(model, point).values
    kappa = mean_curvature(model, split.leaf_ordered, point)
    n = model.dim

    def entries(array: np.ndarray) -> list[dict]:
        found = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    value = float(array[i, j, k])
                    if value != 0.0:
                        found.append(
                            {"i": i + 1, "j": j + 1, "k": k + 1, "value": value}
                        )
        return found

    payload = {
        "subcommand": "analyze",
        "model": model.name,
        "kind": model.kind,
        "dim": n,
        "leaf_indices": [i + 1 for i in split.leaf_ordered],
        "transverse_indices": [i + 1 for i in split.transverse_ordered],
        "dense_leaves": model.dense_leaves,
        "validation": {
            "passed": diagnostics.passed,
            "checks": [
                {
                    "name": check.name,
                    "passed": check.passed,
                    "worst": check.worst,
                    "worst_point": _point(check.worst_point),
                    "detail": check.detail,
                }
                for check in diagnostics.checks
            ],
        },
        "report_point": _point(point),
        "structure_functions": entries(table),
        "christoffel": entries(gamma),
        "mean_curvature": {
            "components": [float(x) for x in kappa.components],
            "formula": "kappa^k = sum over leafwise a of Gamma_aa^k",
        },
    }
    lines = _model_header(model, split)
    lines.append(f"validation: {'pass' if diagnostics.passed else 'FAIL'}")
    for check in diagnostics.checks:
        state = "pass" if check.passed else "FAIL"
        worst = "" if check.worst is None else f", worst {check.worst:.3e} at {check.worst_point}"
        lines.append(f"  {check.name}: {state} ({check.detail}{worst})")
    lines.append(f"report point: {point if point else 'abstract'}")
    lines.append("nonzero structure functions C_ij^k ([E_i, E_j] = C_ij^k E_k):")
    for entry in payload["structure_functions"]:
        lines.append(
            f"  C_{entry['i']}{entry['j']}^{entry['k']} = {entry['value']:.12g}"
        )
    if not payload["structure_functions"]:
        lines.append("  (all zero)")
    lines.append(
        "nonzero connection coefficients "
        "Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i)/2:"
    )
    for entry in payload["christoffel"]:
        lines.append(
            f"  Gamma_{entry['i']}{entry['j']}^{entry['k']} = {entry['value']:.12g}"
        )
    if not payload["christoffel"]:
        lines.append("  (all zero)")
    comps = ", ".join(f"{x:.12g}" for x in kappa.components)
    lines.append(f"mean curvature of the leaves, frame components: ({comps})")
    code = EXIT_OK if diagnostics.passed else EXIT_VALIDATION
    return payload, lines, code


def _cmd_taut_check(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.model_source is not None
    model, split = _resolve_model(config.model_source)
    field_spec, label = _resolve_field(config, model, split)
    grid = _grid_for(model, config)
    verdict = classify_divergence(model, split, field_spec, grid, config.tolerance)
    payload = {
        "subcommand": "taut-check",
        "model": model.name,
        "field": label,
        "grid": list(grid.resolution),
        **_verdict_payload(verdict),
    }
    lines = _model_header(model, split)
    lines.append(f"field: {label}")
    lines.append(f"grid: {_grid_text(model, grid)}")
    lines.extend(_verdict_lines(verdict))
    return payload, lines, EXIT_OK


def _cmd_green_check(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.model_source is not None and config.grid is not None
    model, split = _resolve_model(config.model_source)
    field_spec, label = _resolve_field(config, model, split)
    resolution = config.grid if len(config.grid) > 1 else config.grid[0]
    report = green_check(model, split, field_spec, resolution)
    payload = {
        "subcommand": "green-check",
        "model": model.name,
        "field": label,
        "resolution": list(report.resolution),
        "identity": "integral of div^Q v dmu = integral of g(v, kappa#) dmu",
        "lhs": report.lhs,
        "rhs": report.rhs,
        "abs_error": report.abs_error,
        "density": report.density,
    }
    lines = _model_header(model, split)
    lines.append(f"field: {label}")
    lines.append(f"grid: {'x'.join(str(n) for n in report.resolution)} cell-centered")
    lines.append("identity: integral of div^Q v dmu = integral of g(v, kappa#) dmu")
    lines.append(f"lhs (div^Q side):  {report.lhs:+.15e}")
    lines.append(f"rhs (kappa side):  {report.rhs:+.15e}")
    lines.append(f"|lhs - rhs|:       {report.abs_error:.3e}")
    lines.append(f"density: {report.density}")
    return payload, lines, EXIT_OK


def _parse_matrix_arg(text: str):
    try:
        return parse_matrix(text)
    except SpectralError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_spectral(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.matrix_text is not None
    matrix = _parse_matrix_arg(config.matrix_text)
    diagnostics = validate_suspension_matrix(matrix)
    payload: dict = {
        "subcommand": "spectral",
        "matrix": [list(row) for row in matrix],
        "admissible": diagnostics.admissible,
        "checks": [
            {"name": check.name, "passed": check.passed, "detail": check.detail}
            for check in diagnostics.checks
        ],
    }
    lines = [f"matrix: {format_matrix(matrix)}"]
    if diagnostics.char_poly is not None:
        payload["char_poly"] = {
            "coefficients_descending": list(diagnostics.char_poly),
            "text": format_poly(diagnostics.char_poly),
        }
        lines.append(f"characteristic polynomial det(A - xI): {format_poly(diagnostics.char_poly)}")
    if diagnostics.roots is not None:
        eigenvalues = [root.value for root in diagnostics.roots]
        product = 1.0
        for value in eigenvalues:
            product *= value
        payload["eigenvalues"] = eigenvalues
        payload["enclosures"] = [list(root.enclosure) for root in diagnostics.roots]
        payload["eigenvalue_product"] = product
        for root in diagnostics.roots:
            lines.append(
                f"eigenvalue {root.value:.12g} in ({root.enclosure[0]}, {root.enclosure[1]})"
            )
        lines.append(f"product of eigenvalues: {product:.12g}")
        if all(value > 0 for value in eigenvalues):
            logs = [float(np.log(value)) for value in eigenvalues]
            payload["log_eigenvalues"] = logs
            lines.append(
                "log eigenvalues: " + ", ".join(f"{x:.12g}" for x in logs)
            )
    lines.append(f"suspension-admissible: {'yes' if diagnostics.admissible else 'no'}")
    for check in diagnostics.checks:
        state = "pass" if check.passed else "FAIL"
        lines.append(f"  {check.name}: {state} ({check.detail})")
    return payload, lines, EXIT_OK


def _cmd_suspend(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.matrix_text is not None and config.leaf_index is not None
    matrix = _parse_matrix_arg(config.matrix_text)
    if not 1 <= config.leaf_index <= len(matrix):
        raise UsageError(f"--leaf must be in 1..{len(matrix)}")
    model, split = build_suspension(matrix, config.leaf_index)
    document = model_to_document(model, split)
    out_path = Path(config.model_out) if config.model_out else None
    assert out_path is not None
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    payload = {
        "subcommand": "suspend",
        "written": str(out_path),
        "model": model.name,
        "dim": model.dim,
        "leaf_index": config.leaf_index,
        "leaf_frame_index": split.leaf_ordered[0] + 1,
        "log_eigenvalues": dict(model.parameters),
    }
    lines = [
        f"wrote model file: {out_path}",
        f"model: {model.name} ({model.kind}, dim {model.dim})",
        f"leaf eigen-direction: {config.leaf_index} "
        f"(frame index {split.leaf_ordered[0] + 1})",
    ]
    for name, value in sorted(model.parameters.items()):
        lines.append(f"  {name} = {value:.12g}")
    return payload, lines, EXIT_OK


def _cmd_cover(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.model_source is not None
    assert config.coord is not None and config.fold is not None
    model, split = _resolve_model(config.model_source)
    field_spec, label = _resolve_field(config, model, split)
    if not 1 <= config.coord <= model.dim:
        raise UsageError(f"--coord must be in 1..{model.dim}")
    if config.fold < 1:
        raise UsageError("--fold must be >= 1")
    comparison = compare_with_cover(
        model, split, field_spec, config.coord - 1, config.fold,
        _resolution(config), config.tolerance,
    )
    base_verdict, lifted_verdict = comparison.base_verdict, comparison.cover_verdict
    worst = comparison.max_pointwise_difference
    lifted = comparison.cover
    payload = {
        "subcommand": "cover",
        "model": model.name,
        "field": label,
        "coord": config.coord,
        "fold": config.fold,
        "base_verdict": base_verdict.classification.value,
        "lifted_verdict": lifted_verdict.classification.value,
        "verdicts_agree": base_verdict.classification is lifted_verdict.classification,
        "max_pointwise_difference": worst,
    }
    lines = _model_header(model, split)
    lines.append(f"field: {label}")
    lines.append(
        f"cover: {config.fold}-fold along x{config.coord} "
        f"(period {model.periods[config.coord - 1]:g} -> "
        f"{lifted.periods[config.coord - 1]:g})"
    )
    lines.append(f"base verdict:   {_VERDICT_TEXT[base_verdict.classification.value]}")
    lines.append(f"lifted verdict: {_VERDICT_TEXT[lifted_verdict.classification.value]}")
    lines.append(
        f"max |div^Q(lift v) - div^Q(v) o projection| over the cover grid: {worst:.3e}"
    )
    return payload, lines, EXIT_OK


def _cmd_volume_check(config: RunConfig) -> tuple[dict, list[str], int]:
    assert config.model_source is not None
    model, split = _resolve_model(config.model_source)
    field_spec, label = _resolve_field(config, model, split)
    grid = _grid_for(model, config)
    report = volume_preservation_check(model, split, field_spec, grid, config.tolerance)
    payload = {
        "subcommand": "volume-check",
        "model": model.name,
        "field": label,
        "grid": list(grid.resolution),
        "preserved": report.preserved,
        "dense_leaves_asserted": report.applicable,
        "note": report.note,
        **{f"divergence_{k}": v for k, v in _verdict_payload(report.verdict).items()},
    }
    lines = _model_header(model, split)
    lines.append(f"field: {label}")
    lines.append(f"grid: {_grid_text(model, grid)}")
    lines.append(
        f"transverse volume form preserved (L_v nu_Q = 0): "
        f"{'yes' if report.preserved else 'no'}"
    )
    lines.append(f"dense leaves asserted by model: {'yes' if report.applicable else 'no'}")
    lines.extend(_verdict_lines(report.verdict))
    lines.append(f"note: {report.note}")
    return payload, lines, EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "taut-check": _cmd_taut_check,
    "green-check": _cmd_green_check,
    "spectral": _cmd_spectral,
    "suspend": _cmd_suspend,
    "cover": _cmd_cover,
    "volume-check": _cmd_volume_check,
}


def _emit(payload: dict, lines: list[str], config: RunConfig) -> None:
    if config.out_format == "json":
        try:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # a NaN or infinity is not JSON
            raise DomainError(f"report holds a non-finite value: {exc}") from None
    else:
        text = "\n".join(lines) + "\n"
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        # every NaN or infinity is refused by an explicit check, so
        # NumPy's floating-point warnings would only add noise
        with np.errstate(all="ignore"):
            payload, lines, code = _HANDLERS[config.subcommand](config)
        _emit(payload, lines, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularFrameError, NotBasicError, InadmissibleMatrixError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, EvalError, ExprError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
