"""Command-line front end.

Subcommands map one-to-one onto the library operations; each emits a
human-readable text report or a JSON document (``--format json``) that
re-parses with every numeric field bit-exact.

Exit codes: 0 success, 1 usage, schema or file error, 2 math-domain error,
3 model/field validation failure.

Start-up loads only the records, the exact spectral code and argparse:
``spectral`` and ``suspend`` run without NumPy, and the subcommands that
build a model import the NumPy layers when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .records import (
    BUILTIN_NAMES,
    DEFAULT_TOLERANCE,
    CheckResult,
    DomainError,
    ExprError,
    FoliationSplit,
    InadmissibleMatrixError,
    ModelError,
    ParseError,
    SchemaError,
    SingularFrameError,
    SpectralError,
    check_line,
)
from .spectral import (
    _read_integer,
    build_suspension,
    format_matrix,
    format_poly,
    parse_matrix,
    validate_suspension_matrix,
)

if TYPE_CHECKING:
    import numpy as np

    from .model import FrameModel, Grid, VectorFieldSpec
    from .tautness import TautnessVerdict

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
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _integer(text: str) -> int:
    """``--coord``, ``--fold``, ``--leaf`` and each ``--grid`` entry: an
    integer of ASCII digits, read as ``--matrix`` reads its entries
    (``spectral._read_integer``)."""
    value = _read_integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _grid(text: str) -> tuple[int, ...]:
    """``--grid``: resolution per coordinate, each >= 1."""
    try:
        entries = tuple(_integer(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None
    if not entries or any(n < 1 for n in entries):
        raise argparse.ArgumentTypeError(f"entries must be >= 1, got {text!r}")
    return entries


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


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
            p.add_argument("--grid", type=_grid, help="resolution per coordinate, e.g. 16,256")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE, help="sign tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="validation, structure and connection tables")
    common(p)

    p = sub.add_parser("taut-check", help="classify the sign of div^Q v over a grid")
    common(p, field=True, tol=True)

    p = sub.add_parser("green-check", help="transverse Green-formula quadrature")
    common(p, field=True, grid=False)
    p.add_argument(
        "--grid", required=True, type=_grid, help="resolution per coordinate, e.g. 16,256"
    )

    p = sub.add_parser("spectral", help="characteristic polynomial and eigenvalues")
    common(p, model=False, grid=False)
    p.add_argument("--matrix", required=True, help='rows as "2,1;1,1"')

    p = sub.add_parser("suspend", help="build a suspension model file")
    common(p, model=False, grid=False)
    p.add_argument("--matrix", required=True, help='rows as "2,1;1,1"')
    p.add_argument(
        "--leaf",
        required=True,
        type=_integer,
        help="eigen-direction (1-based, eigenvalues ascending) spanning the leaves",
    )
    p.add_argument("-o", "--out", required=True, help="model-file path to write")

    p = sub.add_parser("cover", help="finite periodic cover and verdict comparison")
    common(p, field=True, tol=True)
    p.add_argument("--coord", required=True, type=_integer, help="coordinate to unroll (1-based)")
    p.add_argument("--fold", required=True, type=_integer, help="number of sheets (>= 1)")

    p = sub.add_parser("volume-check", help="transverse volume preservation")
    common(p, field=True, tol=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call: parsing leaves a
    parser unchanged, and building one costs far more than a parse."""
    return build_parser()


def _resolve_model(source: str) -> tuple[FrameModel, FoliationSplit]:
    from .catalog import builtin_model, is_builtin
    from .model import load_model

    if is_builtin(source):
        return builtin_model(source)
    if not Path(source).exists():
        raise UsageError(
            f"{source!r} is neither a builtin name ({', '.join(BUILTIN_NAMES)}) "
            "nor an existing model file"
        )
    return load_model(_read_document(source, "model"))


def _field_run(
    args: argparse.Namespace,
) -> tuple[FrameModel, FoliationSplit, VectorFieldSpec, dict, list[str]]:
    """The model and field of a field subcommand, resolved in that order,
    and the head of its report: ``subcommand``, ``model`` and ``field``
    in the payload, the model header and the ``field:`` line in the text."""
    from .model import load_field
    from .tautness import alvarez_candidate

    model, split = _resolve_model(args.model)
    source = args.field
    if source == "alvarez":
        field_spec, label = alvarez_candidate(model, split), "alvarez (mean-curvature candidate)"
    elif not Path(source).exists():
        raise UsageError(f"field file {source!r} does not exist")
    else:
        field_spec, label = load_field(_read_document(source, "field"), model), source
    payload = {"subcommand": args.subcommand, "model": model.name, "field": label}
    return model, split, field_spec, payload, [*_model_header(model, split), f"field: {label}"]


def _read_document(source: str, kind: str):
    """The parsed JSON of the UTF-8 ``kind`` file ``source``, or
    SchemaError naming the file."""
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{kind} file {source} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{kind} file {source} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{kind} file {source} nests too deeply to read") from None
    except ValueError:  # an integer literal past the digits that int() converts
        raise SchemaError(
            f"{kind} file {source} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _resolution(model: FrameModel, grid: tuple[int, ...] | None) -> int | tuple[int, ...]:
    """``--grid`` for ``model``: one entry or one per coordinate (a
    constant-structure model ignores it)."""
    if grid is None:
        return DEFAULT_RESOLUTION
    if len(grid) == 1:
        return grid[0]
    if model.is_chart and len(grid) != model.dim:
        raise UsageError(f"resolution {grid} does not match model dimension {model.dim}")
    return grid


def _grid_for(model: FrameModel, args: argparse.Namespace) -> Grid:
    from .model import sample_grid

    return sample_grid(model, _resolution(model, args.grid))


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
    return [
        f"verdict: {_VERDICT_TEXT[verdict.classification.value]}",
        f"div^Q v: min {verdict.min_value:.12g} at {verdict.argmin}, "
        f"max {verdict.max_value:.12g} at {verdict.argmax} "
        f"(tolerance {verdict.tolerance:g})",
        f"status: {verdict.epistemic_status}",
    ]


def _check_payload(check: CheckResult) -> dict:
    """A check as JSON; the worst value and point only for a measured check."""
    payload = {"name": check.name, "passed": check.passed}
    if check.worst is not None:
        payload.update(worst=check.worst, worst_point=_point(check.worst_point))
    payload["detail"] = check.detail
    return payload


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
    return f"{shape} cell-centered lattice ({len(grid)} points)"


def _nonzero_entries(array: np.ndarray) -> list[dict]:
    """The nonzero entries of a table indexed ij^k, 1-based, i then j then k."""
    indices = array.nonzero()  # in row-major order
    return [
        {"i": i + 1, "j": j + 1, "k": k + 1, "value": value}
        for i, j, k, value in zip(*(index.tolist() for index in indices), array[indices].tolist())
    ]


def _entry_lines(symbol: str, entries: list[dict]) -> list[str]:
    """Report lines of the nonzero entries of a table indexed ij^k."""
    lines = [
        f"  {symbol}_{entry['i']}{entry['j']}^{entry['k']} = {entry['value']:.12g}"
        for entry in entries
    ]
    return lines or ["  (all zero)"]


# --- subcommand handlers -----------------------------------------------------
#
# The handlers that build a model import the NumPy layers when they run,
# so that ``import transdiv.cli``, ``spectral`` and ``suspend`` load no
# NumPy.

def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .model import at_point, validate_model

    model, split = _resolve_model(args.model)
    grid = _grid_for(model, args)
    point = grid.point(0)
    checks = validate_model(model, split, grid)
    passed = all(check.passed for check in checks)
    payload = {
        "subcommand": "analyze",
        "model": model.name,
        "kind": model.kind,
        "dim": model.dim,
        "leaf_indices": [i + 1 for i in split.leaf_ordered],
        "transverse_indices": [i + 1 for i in split.transverse_ordered],
        "dense_leaves": model.dense_leaves,
        "validation": {"passed": passed, "checks": [_check_payload(check) for check in checks]},
        "report_point": _point(point),
    }
    lines = _model_header(model, split)
    lines.append(f"validation: {'pass' if passed else 'FAIL'}")
    lines.extend(f"  {check_line(check)}" for check in checks)
    lines.append(f"report point: {point if point else 'abstract'}")
    reads = (lambda block: block.c, lambda block: block.gamma,
             lambda block: block.mean_curvature(split.leaf_ordered))
    try:
        table, gamma, kappa = at_point(model, point, *reads)
    except (ExprError, SingularFrameError) as exc:
        if passed:
            raise
        payload |= dict.fromkeys(("structure_functions", "christoffel", "mean_curvature"))
        return payload, [*lines, f"structure not evaluated at the report point: {exc}"], EXIT_VALIDATION
    payload |= {
        "structure_functions": _nonzero_entries(table),
        "christoffel": _nonzero_entries(gamma),
        "mean_curvature": {
            "components": [float(x) for x in kappa],
            "formula": "kappa^k = sum over leafwise a of Gamma_aa^k",
        },
    }
    lines.append("nonzero structure functions C_ij^k ([E_i, E_j] = C_ij^k E_k):")
    lines.extend(_entry_lines("C", payload["structure_functions"]))
    lines.append(
        "nonzero connection coefficients "
        "Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i)/2:"
    )
    lines.extend(_entry_lines("Gamma", payload["christoffel"]))
    comps = ", ".join(f"{x:.12g}" for x in kappa)
    lines.append(f"mean curvature of the leaves, frame components: ({comps})")
    return payload, lines, EXIT_OK if passed else EXIT_VALIDATION


def _cmd_taut_check(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .tautness import classify_divergence

    model, split, field_spec, payload, lines = _field_run(args)
    grid = _grid_for(model, args)
    verdict = classify_divergence(model, split, field_spec, grid, args.tol)
    payload |= {"grid": list(grid.resolution), **_verdict_payload(verdict)}
    lines.append(f"grid: {_grid_text(model, grid)}")
    lines.extend(_verdict_lines(verdict))
    return payload, lines, EXIT_OK


def _cmd_green_check(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .tautness import green_check

    model, split, field_spec, payload, lines = _field_run(args)
    report = green_check(model, split, field_spec, _resolution(model, args.grid))
    payload |= {
        "resolution": list(report.resolution),
        "identity": "integral of div^Q v dmu = integral of g(v, kappa#) dmu",
        "lhs": report.lhs,
        "rhs": report.rhs,
        "abs_error": report.abs_error,
        "density": report.density,
    }
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


def _cmd_spectral(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    matrix = _parse_matrix_arg(args.matrix)
    diagnostics = validate_suspension_matrix(matrix)
    payload: dict = {
        "subcommand": "spectral",
        "matrix": [list(row) for row in matrix],
        "admissible": diagnostics.admissible,
        "checks": [_check_payload(check) for check in diagnostics.checks],
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
            logs = [math.log(value) for value in eigenvalues]
            payload["log_eigenvalues"] = logs
            lines.append(
                "log eigenvalues: " + ", ".join(f"{x:.12g}" for x in logs)
            )
    lines.append(f"suspension-admissible: {'yes' if diagnostics.admissible else 'no'}")
    lines.extend(f"  {check_line(check)}" for check in diagnostics.checks)
    return payload, lines, EXIT_OK


def _cmd_suspend(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    matrix = _parse_matrix_arg(args.matrix)
    if not 1 <= args.leaf <= len(matrix):
        raise UsageError(f"--leaf must be in 1..{len(matrix)}")
    document = build_suspension(matrix, args.leaf)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    name, dim, parameters = document["name"], document["dim"], document["parameters"]
    (leaf_frame_index,) = document["leaf_indices"]
    payload = {
        "subcommand": "suspend",
        "written": str(out_path),
        "model": name,
        "dim": dim,
        "leaf_index": args.leaf,
        "leaf_frame_index": leaf_frame_index,
        "log_eigenvalues": parameters,
    }
    lines = [
        f"wrote model file: {out_path}",
        f"model: {name} ({document['kind']}, dim {dim})",
        f"leaf eigen-direction: {args.leaf} (frame index {leaf_frame_index})",
    ]
    for key, value in sorted(parameters.items()):
        lines.append(f"  {key} = {value:.12g}")
    return payload, lines, EXIT_OK


def _cmd_cover(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .tautness import compare_with_cover

    model, split, field_spec, payload, lines = _field_run(args)
    if not 1 <= args.coord <= model.dim:
        raise UsageError(f"--coord must be in 1..{model.dim}")
    if args.fold < 1:
        raise UsageError("--fold must be >= 1")
    comparison = compare_with_cover(
        model, split, field_spec, args.coord - 1, args.fold,
        _resolution(model, args.grid), args.tol,
    )
    base_verdict, lifted_verdict = comparison.base_verdict, comparison.cover_verdict
    worst = comparison.max_pointwise_difference
    lifted = comparison.cover
    payload |= {
        "coord": args.coord,
        "fold": args.fold,
        "base_verdict": base_verdict.classification.value,
        "lifted_verdict": lifted_verdict.classification.value,
        "verdicts_agree": base_verdict.classification is lifted_verdict.classification,
        "max_pointwise_difference": worst,
    }
    lines.append(
        f"cover: {args.fold}-fold along x{args.coord} "
        f"(period {model.periods[args.coord - 1]:g} -> "
        f"{lifted.periods[args.coord - 1]:g})"
    )
    lines.append(f"base verdict:   {_VERDICT_TEXT[base_verdict.classification.value]}")
    lines.append(f"lifted verdict: {_VERDICT_TEXT[lifted_verdict.classification.value]}")
    lines.append(
        f"max |div^Q(lift v) - div^Q(v) o projection| over the cover grid: {worst:.3e}"
    )
    return payload, lines, EXIT_OK


def _cmd_volume_check(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    from .tautness import volume_preservation_check

    model, split, field_spec, payload, lines = _field_run(args)
    grid = _grid_for(model, args)
    report = volume_preservation_check(model, split, field_spec, grid, args.tol)
    payload |= {
        "grid": list(grid.resolution),
        "preserved": report.preserved,
        "dense_leaves_asserted": report.applicable,
        "note": report.note,
        **{f"divergence_{k}": v for k, v in _verdict_payload(report.verdict).items()},
    }
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


def _non_finite_field(value, path: str = "") -> str | None:
    """The name of the first NaN or infinity in the report ``value``, in
    the order JSON writes it: keys joined by '.', list indices in
    brackets."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(item, name) for name, item in items)), None)


def _emit(payload: dict, lines: list[str], args: argparse.Namespace) -> None:
    # the text lines show values of the payload, so a NaN or infinity,
    # which is not JSON, is refused in both formats by one encoding; a text
    # report's is compact, which the C encoder writes in less time and
    # far less memory than an indented one
    try:
        report = json.dumps(payload, indent=2 if args.format == "json" else None, allow_nan=False)
    except ValueError:
        raise DomainError(f"report holds a non-finite value: {_non_finite_field(payload)}") from None
    text = (report if args.format == "json" else "\n".join(lines)) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        # a character that stdout's encoding cannot write (a model name
        # under an ASCII locale) is escaped, as Python escapes it on stderr
        encoding = sys.stdout.encoding or "utf-8"
        sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))


def main(argv: list[str] | None = None) -> int:
    # first matching clause wins: SchemaError and ParseError exit 1 and
    # InadmissibleMatrixError 3; OSError is an unreadable or unwritable path
    try:
        args = _parser().parse_args(argv)
        payload, lines, code = _HANDLERS[args.subcommand](args)
        _emit(payload, lines, args)
        return code
    except (UsageError, SchemaError, ParseError, OSError) as exc:
        error, code = exc, EXIT_USAGE
    except (ModelError, InadmissibleMatrixError) as exc:
        error, code = exc, EXIT_VALIDATION
    except (ExprError, SpectralError) as exc:
        error, code = exc, EXIT_DOMAIN
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
