"""Builtin example models.

Every builtin is a model document and is run through ``load_model``, so
the registry exercises exactly the same path as a model file and
resolves identically everywhere it is used.  The suspension builtins
are ``spectral.build_suspension``'s documents, renamed.

Bundle-likeness of the chart metrics is not verified by the toolkit;
the builtins are constructed bundle-like by hand (the warp of
``torus-warped`` depends on the transverse coordinate only for this
reason).
"""

from __future__ import annotations

from .model import FrameModel, load_model
from .records import BUILTIN_NAMES, FoliationSplit, UnknownBuiltinError
from .spectral import build_suspension

#: 3x3 example matrix for the codimension-3 suspension.
SUSPENSION_3_MATRIX = ((2, 0, -1), (0, 3, -1), (-1, -1, 1))

T3A_MATRIX = ((2, 1), (1, 1))

#: The matrix of each suspension builtin.
_SUSPENSION_MATRICES = {"t3a": T3A_MATRIX, "suspension-3": SUSPENSION_3_MATRIX}


def builtin_document(name: str) -> dict:
    """The model document of a builtin."""
    if name in _SUSPENSION_MATRICES:
        # leaves along the second eigen-direction (eigenvalues ascending):
        # for t3a the larger one, as for the default hyperbolic toral flow;
        # for suspension-3 the middle one, where the transverse divergence
        # of the mean-curvature field is (ln lambda_2)^2
        return {**build_suspension(_SUSPENSION_MATRICES[name], leaf_index=2), "name": name}
    if name == "torus-warped":
        # frame {e^{-f} d_x, d_y} of the metric e^{2f(y)} dx^2 + dy^2,
        # f = 0.3 sin(2 pi x2)
        return {
            "name": name,
            "kind": "chart",
            "dim": 2,
            "leaf_indices": [1],
            "parameters": {},
            "dense_leaves": False,
            "periods": [1.0, 1.0],
            "frame": ["exp(-(0.3*sin(2.0*pi*x2)))", "0", "0", "1"],
        }
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


def builtin_model(name: str) -> tuple[FrameModel, FoliationSplit]:
    return load_model(builtin_document(name))


def is_builtin(name: str) -> bool:
    return name in BUILTIN_NAMES
