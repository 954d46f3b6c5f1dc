"""Divergence-based tautness evidence.

The central test classifies the sign pattern of the transverse
divergence div^Q v of a basic candidate field over a sample grid.  A
one-signed, somewhere-nonzero pattern witnesses non-tautness; a
mixed-sign or identically-zero pattern is merely consistent with
tautness for that candidate.  Every verdict records this epistemic
status: grids sample the manifold, they do not exhaust it.

Also here: the canonical mean-curvature candidate, the transverse
Green-formula quadrature, the dense-leaves volume-preservation check,
and finite periodic covers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .model import (
    CHART,
    BasicFieldCheck,
    FoliationSplit,
    FrameModel,
    Grid,
    ModelError,
    VectorFieldSpec,
    basic_field_check,
    chart_model,
    check_basic,
    gather,
    require_finite,
    sample_grid,
    structure_functions_symbolic,
    sweep,
)

DEFAULT_TOLERANCE = 1e-9

#: Grid used to verify basicness of the mean-curvature candidate when the
#: caller does not supply one.
CANDIDATE_CHECK_RESOLUTION = 16


class TautnessClass(enum.Enum):
    IDENTICALLY_ZERO = "IdenticallyZero"
    MIXED_SIGN = "MixedSign"
    NON_TAUT_WITNESS = "NonTautWitness"
    NEGATED_NON_TAUT_WITNESS = "NegatedNonTautWitness"
    INCONCLUSIVE = "Inconclusive"


_STATUS = {
    TautnessClass.NON_TAUT_WITNESS: (
        "evidence of non-tautness: div^Q v >= 0 (within tolerance) across the "
        "sample grid and > 0 at the reported point; grid sampling, not proof"
    ),
    TautnessClass.NEGATED_NON_TAUT_WITNESS: (
        "evidence of non-tautness via -v: div^Q v <= 0 (within tolerance) "
        "across the sample grid and < 0 at the reported point; grid sampling, "
        "not proof"
    ),
    TautnessClass.MIXED_SIGN: (
        "consistent with tautness for this candidate only: div^Q v takes both "
        "signs on the sample grid"
    ),
    TautnessClass.IDENTICALLY_ZERO: (
        "consistent with tautness for this candidate only: div^Q v vanishes on "
        "the sample grid to tolerance"
    ),
    TautnessClass.INCONCLUSIVE: "empty grid; no points were evaluated",
}


@dataclass(frozen=True)
class TautnessVerdict:
    """Sign classification of div^Q v over a grid, with extremal points."""

    classification: TautnessClass
    min_value: float | None
    max_value: float | None
    argmin: tuple[float, ...] | None
    argmax: tuple[float, ...] | None
    tolerance: float

    @property
    def epistemic_status(self) -> str:
        return _STATUS[self.classification]


@dataclass(frozen=True)
class QuadratureReport:
    """Both sides of the transverse Green formula on one grid."""

    lhs: float  # integral of div^Q v dmu
    rhs: float  # integral of g(v, kappa#) dmu
    abs_error: float
    resolution: tuple[int, ...]
    density: str


@dataclass(frozen=True)
class VolumePreservationReport:
    preserved: bool
    applicable: bool
    verdict: TautnessVerdict
    note: str


@dataclass(frozen=True)
class CoverComparison:
    """A field's verdicts on a base model and on a finite cover of it,
    and the largest |div^Q(lift v) - div^Q(v) o projection| over the
    cover's grid."""

    cover: FrameModel
    base_verdict: TautnessVerdict
    cover_verdict: TautnessVerdict
    max_pointwise_difference: float


class NotBasicError(ModelError):
    """A candidate field failed the basic-field test."""

    def __init__(self, check: BasicFieldCheck, message: str):
        super().__init__(
            f"{message}: worst residual {check.max_residual:.3e} "
            f"at {check.worst_point} (tolerance {check.tolerance:g})"
        )
        self.check = check


def _require_basic(check: BasicFieldCheck, message: str = "field is not basic") -> None:
    if not check.passed:
        raise NotBasicError(check, message)


def _divergence_sweep(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
) -> np.ndarray:
    """div^Q v at every grid point, after the basic test over the whole
    grid; both come from one pass over the grid's FrameData blocks."""
    residuals, values = [], []
    for block in sweep(model, grid.points, field_spec):
        residuals.append(block.basic_residuals(split))
        values.append(block.divergence(split.transverse_ordered))
    _require_basic(basic_field_check(gather(residuals), grid.points))
    values = gather(values)
    require_finite(values, grid.points, "div^Q v")
    return values


def _classify(values: np.ndarray, points: tuple, tol: float) -> TautnessVerdict:
    if not points:
        return TautnessVerdict(
            TautnessClass.INCONCLUSIVE, None, None, None, None, tol
        )
    # first index of each extreme, as a scan in point order finds them
    low, high = int(np.argmin(values)), int(np.argmax(values))
    min_value, max_value = float(values[low]), float(values[high])
    if max(abs(min_value), abs(max_value)) <= tol:
        classification = TautnessClass.IDENTICALLY_ZERO
    elif min_value >= -tol and max_value > tol:
        classification = TautnessClass.NON_TAUT_WITNESS
    elif max_value <= tol and min_value < -tol:
        classification = TautnessClass.NEGATED_NON_TAUT_WITNESS
    else:
        classification = TautnessClass.MIXED_SIGN
    return TautnessVerdict(
        classification, min_value, max_value, points[low], points[high], tol
    )


def classify_divergence(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
    tol: float = DEFAULT_TOLERANCE,
) -> TautnessVerdict:
    """Classify the sign of div^Q v over ``grid``.

    The field must pass the basic test first (NotBasicError otherwise).
    Values within +/- tol count as zero; ties break toward
    IdenticallyZero, then toward the witness classes.  A non-finite
    value raises DomainError.
    """
    values = _divergence_sweep(model, split, field_spec, grid)
    return _classify(values, grid.points, tol)


def alvarez_candidate(
    model: FrameModel,
    split: FoliationSplit,
    grid: Grid | None = None,
) -> VectorFieldSpec:
    """The canonical witness candidate: the mean-curvature field of the
    leaves, as a vector-field spec (components vanish on leaf indices).

    Only valid on models whose mean curvature is already basic; that is
    verified on ``grid`` (default: a coarse sample) and a failure raises
    NotBasicError, since modifying the metric to force basicness is out
    of scope here.
    """
    table = structure_functions_symbolic(model)
    components: list[expr.Expr] = []
    for k in range(model.dim):
        if k in split.leaf:
            components.append(expr.ZERO)
            continue
        # kappa^k = sum_{a in leaf} Gamma_aa^k, and Gamma_aa^k = C_ka^a
        total: expr.Expr = expr.ZERO
        for a in split.leaf_ordered:
            total = expr.add(total, table[k][a][a])
        components.append(total)
    candidate = VectorFieldSpec(components=tuple(components))
    if grid is None:
        grid = sample_grid(model, CANDIDATE_CHECK_RESOLUTION)
    _require_basic(
        check_basic(model, split, candidate, grid),
        "mean curvature not basic on this model",
    )
    return candidate


def green_check(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    resolution: int | tuple[int, ...],
) -> QuadratureReport:
    """Evaluate both sides of the transverse Green formula

        integral of div^Q v dmu  =  integral of g(v, kappa#) dmu

    by the cell-centered Riemann sum with density 1/|det(frame)| per
    point (the Riemannian density induced by the orthonormal frame).
    Both sums are math.fsum of the per-point terms: correctly rounded,
    so independent of the order of the points.
    """
    if model.kind != CHART:
        raise ModelError("the Green-formula quadrature needs a chart model")
    grid = sample_grid(model, resolution)
    assert model.periods is not None
    cell = 1.0
    for length, n in zip(model.periods, grid.resolution):
        cell *= length / n
    residuals, lhs_terms, rhs_terms = [], [], []
    for block in sweep(model, grid.points, field_spec):
        residuals.append(block.basic_residuals(split))
        weight = cell / np.abs(block.det)
        kappa = block.mean_curvature(split.leaf_ordered)
        lhs_terms.append(block.divergence(split.transverse_ordered) * weight)
        rhs_terms.append(np.einsum("pk,pk->p", block.v, kappa) * weight)
    _require_basic(basic_field_check(gather(residuals), grid.points))
    lhs = _integral(gather(lhs_terms), grid.points, "div^Q v dmu")
    rhs = _integral(gather(rhs_terms), grid.points, "g(v, kappa#) dmu")
    abs_error = abs(lhs - rhs)
    if not math.isfinite(abs_error):
        raise expr.DomainError(f"|lhs - rhs| overflows ({lhs!r} - {rhs!r})")
    return QuadratureReport(
        lhs=lhs,
        rhs=rhs,
        abs_error=abs_error,
        resolution=grid.resolution,
        density="1/|det(frame)| (Riemannian density of the orthonormal frame)",
    )


def _integral(terms: np.ndarray, points: tuple, what: str) -> float:
    require_finite(terms, points, f"term of the integral of {what}")
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        raise expr.DomainError(f"the integral of {what} overflows") from None


def volume_preservation_check(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
    tol: float = DEFAULT_TOLERANCE,
) -> VolumePreservationReport:
    """Check whether the basic field preserves the transverse volume form.

    For basic v the Lie derivative of the transverse volume form equals
    div^Q v times the form, so preservation is exactly the
    IdenticallyZero verdict.  The conclusion "preserved for every basic
    field iff taut" additionally needs dense leaves and transverse
    orientation; the report marks itself inapplicable when the model
    does not assert dense leaves.
    """
    verdict = classify_divergence(model, split, field_spec, grid, tol)
    preserved = verdict.classification is TautnessClass.IDENTICALLY_ZERO
    if model.dense_leaves:
        note = (
            "for a basic field, L_v nu_Q = div^Q v * nu_Q, so preservation is "
            "equivalent to div^Q v = 0; the model asserts dense leaves, where "
            "this characterizes tautness (given transverse orientation)"
        )
    else:
        note = (
            "for a basic field, L_v nu_Q = div^Q v * nu_Q, so preservation is "
            "equivalent to div^Q v = 0; dense-leaves hypothesis not asserted "
            "by this model, so the tautness conclusion is inapplicable"
        )
    return VolumePreservationReport(
        preserved=preserved,
        applicable=model.dense_leaves,
        verdict=verdict,
        note=note,
    )


def lift_to_cover(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    coord: int,
    fold: int,
) -> tuple[FrameModel, FoliationSplit, VectorFieldSpec]:
    """The fold-times periodic cover unrolled along coordinate ``coord``
    (0-based), with the pulled-back field.

    The covering model keeps every expression and evaluates it modulo
    the base period in the unrolled coordinate, so the transverse
    divergence of the lift at a covering point equals that of the base
    field at its image.
    """
    if model.kind != CHART:
        raise ModelError("only chart models can be unrolled to a cover")
    if not 0 <= coord < model.dim:
        raise ModelError(f"coordinate {coord} out of range for dim {model.dim}")
    if fold < 1:
        raise ModelError(f"fold must be a positive integer, got {fold}")
    if fold == 1:
        return model, split, field_spec
    assert model.periods is not None and model.frame is not None
    wraps = list(model.coordinate_wraps or (None,) * model.dim)
    if wraps[coord] is None:
        wraps[coord] = model.periods[coord]
    periods = list(model.periods)
    periods[coord] *= fold
    lifted = chart_model(
        name=f"{model.name}::{fold}-fold-cover(x{coord + 1})",
        periods=periods,
        frame=model.frame,
        parameters=model.parameters,
        dense_leaves=model.dense_leaves,
        coordinate_wraps=wraps,
        notes=model.notes,
    )
    return lifted, split, field_spec


def covering_projection(model: FrameModel, point: tuple[float, ...]) -> tuple[float, ...]:
    """Image of a covering-model point in the base box (wrap coordinates
    by their base periods); the identity on non-covering models."""
    wraps = model.coordinate_wraps or (None,) * model.dim
    return tuple(
        x if wrap is None else x % wrap for x, wrap in zip(point, wraps)
    )


def compare_with_cover(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    coord: int,
    fold: int,
    resolution: int | tuple[int, ...],
    tol: float = DEFAULT_TOLERANCE,
) -> CoverComparison:
    """Classify div^Q v on ``model`` and on its ``fold``-times cover along
    ``coord`` (see lift_to_cover), each on a grid of ``resolution``, and
    compare the lift pointwise with the base field at the projected
    points, reusing the values of the cover's sweep."""
    cover, cover_split, cover_field = lift_to_cover(model, split, field_spec, coord, fold)
    base_grid = sample_grid(model, resolution)
    cover_grid = sample_grid(cover, resolution)
    base_verdict = classify_divergence(model, split, field_spec, base_grid, tol)
    lifted = _divergence_sweep(cover, cover_split, cover_field, cover_grid)
    projected = tuple(covering_projection(cover, point) for point in cover_grid.points)
    below = gather(
        block.divergence(split.transverse_ordered)
        for block in sweep(model, projected, field_spec)
    )
    difference = np.abs(lifted - below)
    require_finite(difference, cover_grid.points, "pointwise difference of div^Q")
    return CoverComparison(
        cover=cover,
        base_verdict=base_verdict,
        cover_verdict=_classify(lifted, cover_grid.points, tol),
        max_pointwise_difference=float(np.max(difference, initial=0.0)),
    )
