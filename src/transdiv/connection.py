"""Levi-Civita data in the orthonormal frame.

Because g(E_i, E_j) = delta_ij everywhere, the Koszul formula reduces
to a purely algebraic expression in the structure functions,

    Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i) / 2,

with Gamma_ij^k = g(nabla_{E_i} E_j, E_k).  The functions here evaluate
at a single point; each is a one-point block of ``model.FrameData``,
which grid sweeps read block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    FoliationSplit,
    FrameModel,
    ModelError,
    VectorFieldSpec,
    frame_data,
)


@dataclass(frozen=True)
class ChristoffelTable:
    """values[i, j, k] = Gamma_ij^k at ``point``.

    Satisfies Gamma_ij^k = -Gamma_ik^j (metric skew-symmetry) and
    Gamma_ij^k - Gamma_ji^k = C_ij^k (torsion-freeness).
    """

    values: np.ndarray
    point: tuple[float, ...]

    def coefficient(self, i: int, j: int, k: int) -> float:
        """Gamma_ij^k with 1-based indices, as printed in reports."""
        return float(self.values[i - 1, j - 1, k - 1])


@dataclass(frozen=True)
class MeanCurvatureVector:
    """Frame components of the mean curvature of the sub-distribution
    spanned by ``indices``; components vanish on those indices."""

    components: np.ndarray
    indices: frozenset[int]
    point: tuple[float, ...]


def christoffel(model: FrameModel, point: tuple[float, ...]) -> ChristoffelTable:
    """Connection coefficients at ``point`` in the orthonormal frame."""
    return ChristoffelTable(values=frame_data(model, (point,)).gamma[0], point=point)


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
    return frame_data(model, (point,), field_spec).rows[0]


def covariant_derivative(
    model: FrameModel,
    field_spec: VectorFieldSpec,
    i: int,
    point: tuple[float, ...],
) -> np.ndarray:
    """Frame components of nabla_{E_i} v at ``point``."""
    (idx,) = _check_indices(model, (i,))
    return covariant_rows(model, field_spec, point)[idx]


def divergence_sub(
    model: FrameModel,
    indices: Iterable[int],
    field_spec: VectorFieldSpec,
    point: tuple[float, ...],
) -> float:
    """div^D v = sum_{i in D} g(nabla_{E_i} v, E_i) for D = ``indices``."""
    ordered = _check_indices(model, indices)
    return float(frame_data(model, (point,), field_spec).divergence(ordered)[0])


def full_divergence(
    model: FrameModel, field_spec: VectorFieldSpec, point: tuple[float, ...]
) -> float:
    return divergence_sub(model, range(model.dim), field_spec, point)


def transverse_divergence(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    point: tuple[float, ...],
) -> float:
    """div^Q v at ``point``."""
    return divergence_sub(model, split.transverse_ordered, field_spec, point)


def mean_curvature(
    model: FrameModel, indices: Iterable[int], point: tuple[float, ...]
) -> MeanCurvatureVector:
    """Mean curvature of the sub-distribution spanned by ``indices``:
    component k (k outside D) equals sum_{a in D} Gamma_aa^k."""
    ordered = _check_indices(model, indices)
    if len(ordered) == model.dim:
        raise ModelError("mean curvature needs a proper sub-distribution")
    components = frame_data(model, (point,)).mean_curvature(ordered)[0]
    return MeanCurvatureVector(
        components=components, indices=frozenset(ordered), point=point
    )
