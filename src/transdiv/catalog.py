"""Builtin example models.

Every builtin is materialized as a model document and run through
``load_model``, so the registry exercises exactly the same path as a
model file and resolves identically everywhere it is used.

Bundle-likeness of the chart metrics is not verified by the toolkit;
the builtins are constructed bundle-like by hand (the warp of
``torus-warped`` is restricted to the transverse coordinate for this
reason).
"""

from __future__ import annotations

from typing import Sequence

from . import expr
from .model import FrameModel, load_model, model_to_document
from .records import BUILTIN_NAMES, FoliationSplit, ModelError, UnknownBuiltinError
from .spectral import build_suspension

#: 3x3 example matrix for the codimension-3 suspension.
SUSPENSION_3_MATRIX = ((2, 0, -1), (0, 3, -1), (-1, -1, 1))

T3A_MATRIX = ((2, 1), (1, 1))

#: Default matrix of each suspension builtin.
_SUSPENSION_MATRICES = {"t3a": T3A_MATRIX, "suspension-3": SUSPENSION_3_MATRIX}

DEFAULT_WARP = "0.3*sin(2*pi*x2)"


def builtin_document(
    name: str,
    matrix: Sequence[Sequence[int]] | None = None,
    warp: str | None = None,
) -> dict:
    """Model document for a builtin, with its configurable knobs.

    ``matrix`` configures the suspension builtins (2x2 for "t3a", 3x3
    for "suspension-3"); ``warp`` configures the metric exponent of
    "torus-warped" as an expression in x2.
    """
    if name in _SUSPENSION_MATRICES:
        default = _SUSPENSION_MATRICES[name]
        n = len(default)
        rows = tuple(tuple(row) for row in (matrix or default))
        if len(rows) != n:
            raise ModelError(f"{name} takes a {n}x{n} matrix")
        # leaves along the second eigen-direction (eigenvalues ascending):
        # for t3a the larger one, as for the default hyperbolic toral flow;
        # for suspension-3 the middle one, where the transverse divergence
        # of the mean-curvature field is (ln lambda_2)^2
        model, split = build_suspension(rows, leaf_index=2)
        document = model_to_document(model, split)
        document["name"] = name
        return document
    if matrix is not None:
        raise ModelError(f"builtin {name!r} does not take a matrix")
    if name == "torus-warped":
        warp_node = expr.parse(warp if warp is not None else DEFAULT_WARP)
        if not expr.variables(warp_node) <= {"x2"}:
            raise ModelError(
                "the warp must depend on the transverse coordinate x2 only "
                "(bundle-like metric)"
            )
        leafwise = expr.FunctionCall("exp", expr.Negate(warp_node))
        return {
            "name": name,
            "kind": "chart",
            "dim": 2,
            "leaf_indices": [1],
            "parameters": {},
            "dense_leaves": False,
            "periods": [1.0, 1.0],
            "frame": [expr.to_string(leafwise), "0", "0", "1"],
        }
    if warp is not None:
        raise ModelError(f"builtin {name!r} does not take a warp")
    if name == "flat-kronecker":
        # flat T^2, leaves along (cos t, sin t) with tan t = sqrt(2) - 1,
        # i.e. t = pi/8: an irrational slope, so every leaf is dense
        return {
            "name": name,
            "kind": "chart",
            "dim": 2,
            "leaf_indices": [1],
            "parameters": {},
            "dense_leaves": True,
            "periods": [1.0, 1.0],
            "frame": ["cos(pi/8)", "sin(pi/8)", "-sin(pi/8)", "cos(pi/8)"],
        }
    raise UnknownBuiltinError(name)


def builtin_model(
    name: str,
    matrix: Sequence[Sequence[int]] | None = None,
    warp: str | None = None,
) -> tuple[FrameModel, FoliationSplit]:
    return load_model(builtin_document(name, matrix=matrix, warp=warp))


def is_builtin(name: str) -> bool:
    return name in BUILTIN_NAMES
