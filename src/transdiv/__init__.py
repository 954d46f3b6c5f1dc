"""Transverse divergence and tautness analysis for Riemannian foliations.

The toolkit represents foliated models through global orthonormal
frames (either constant structure constants on a compact quotient, or
a periodic chart with expression-valued frame coefficients), computes
connection coefficients, sub-distribution divergences and mean
curvature in that frame, and classifies the sign pattern of the
transverse divergence of basic candidate fields over sample grids as
tautness evidence.

The public names and the submodules are imported on first use (PEP
562), so ``import transdiv.cli`` loads no NumPy.
"""

import importlib

__version__ = "0.1.0"

#: The module each public name is taken from.
_HOMES = {
    "records": (
        "BUILTIN_NAMES", "CheckResult", "DifferentiationError", "DomainError",
        "EvalError", "ExprError", "FoliationSplit", "InadmissibleMatrixError",
        "ModelError", "NotBasicError", "ParseError", "SchemaError",
        "SingularFrameError", "SpectralError", "UnboundVariableError",
        "UnknownFunctionError", "foliation_split",
    ),
    "catalog": ("builtin_document", "builtin_model"),
    "connection": ("christoffel", "mean_curvature", "transverse_divergence"),
    "expr": ("Expr", "differentiate", "evaluate", "parse", "to_string"),
    "model": (
        "FrameModel", "Grid", "VectorFieldSpec", "chart_model", "check_basic",
        "constant_structure_model", "load_field", "load_model",
        "model_to_document", "sample_grid", "structure_functions",
        "validate_model", "vector_field",
    ),
    "spectral": (
        "IsolatedRoot", "MatrixDiagnostics", "build_suspension", "char_poly",
        "determinant", "parse_matrix", "real_eigenvalues", "validate_suspension_matrix",
    ),
    "tautness": (
        "QuadratureReport", "TautnessClass", "TautnessVerdict",
        "VolumePreservationReport", "alvarez_candidate", "classify_divergence",
        "green_check", "lift_to_cover", "volume_preservation_check",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("catalog", "cli", "connection", "expr", "model", "records", "spectral", "tautness")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
