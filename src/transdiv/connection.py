"""Levi-Civita data in the orthonormal frame.

Because g(E_i, E_j) = delta_ij everywhere, the Koszul formula reduces
to a purely algebraic expression in the structure functions,

    Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i) / 2,

with Gamma_ij^k = g(nabla_{E_i} E_j, E_k).  The functions here evaluate
at a single point; each is one read of ``model.at_point``, a one-point sweep,
whose grid sweeps read the same ``model.FrameData`` block by block.
They are the library's pointwise API.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .model import (
    FoliationSplit,
    FrameModel,
    ModelError,
    VectorFieldSpec,
    at_point,
)


def christoffel(model: FrameModel, point: tuple[float, ...]) -> np.ndarray:
    """gamma[i, j, k] = Gamma_ij^k at ``point`` (0-based indices).

    Satisfies Gamma_ij^k = -Gamma_ik^j (metric skew-symmetry) and
    Gamma_ij^k - Gamma_ji^k = C_ij^k (torsion-freeness).
    """
    return at_point(model, point, lambda block: block.gamma)[0]


def _check_indices(model: FrameModel, indices: Iterable[int]) -> tuple[int, ...]:
    ordered = tuple(sorted(set(int(i) for i in indices)))
    if not ordered:
        raise ModelError("index set must be nonempty")
    if ordered[0] < 0 or ordered[-1] >= model.dim:
        raise ModelError(f"index set {ordered} out of range for dim {model.dim}")
    return ordered


def covariant_rows(
    model: FrameModel, field_spec: VectorFieldSpec, point: tuple[float, ...]
) -> np.ndarray:
    """rows[i, k] = k-th frame component of nabla_{E_i} v at ``point``,

        (nabla_{E_i} v)^k = E_i(v^k) + sum_j v^j Gamma_ij^k,

    where E_i(v^k) is a symbolic directional derivative on chart models
    and zero on constant-structure models.
    """
    return at_point(model, point, lambda block: block.rows, field_spec=field_spec)[0]


def transverse_divergence(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    point: tuple[float, ...],
) -> float:
    """div^Q v = sum_{i in Q} g(nabla_{E_i} v, E_i) at ``point``."""
    (value,) = at_point(
        model, point, lambda block: block.divergence(split.transverse_ordered),
        field_spec=field_spec,
    )
    return float(value)


def mean_curvature(
    model: FrameModel, indices: Iterable[int], point: tuple[float, ...]
) -> np.ndarray:
    """Frame components at ``point`` of the mean curvature of the
    sub-distribution D spanned by ``indices`` (0-based): component k
    equals sum_{a in D} Gamma_aa^k, and vanishes for k in D."""
    ordered = _check_indices(model, indices)
    if len(ordered) == model.dim:
        raise ModelError("mean curvature needs a proper sub-distribution")
    return at_point(model, point, lambda block: block.mean_curvature(ordered))[0]
