"""Divergence-based tautness evidence.

The central test classifies the sign pattern of the transverse
divergence div^Q v of a basic candidate field over a sample grid.  A
one-signed, somewhere-nonzero pattern witnesses non-tautness; a
mixed-sign or identically-zero pattern is merely consistent with
tautness for that candidate.  Every verdict records this epistemic
status: grids sample the manifold, they do not exhaust it.

Also here: the canonical mean-curvature candidate, the transverse
Green-formula quadrature, the dense-leaves volume-preservation check,
and finite periodic covers.  Every sweep of a field here refuses a
non-basic one, the mean-curvature candidate included, with
NotBasicError, tested in the same pass over its grid that computes
div^Q v.

The sign test characterises tautness only for a model whose hypotheses
hold, so every verdict here (``classify_divergence``, and through it
the volume check and the cover comparison, and ``green_check``) ends
with one gate: ``validate_model``'s records on the verdict's grid,
after the verdict's own sweep, which supplies det A at the grid
points, so the gate sweeps only the lattice corners.  A failed record
refuses the model with ModelError, its message the record's line.

Every reduction over a grid here (``_classify``, ``_integral``, the
cover's largest difference) runs on the parts of a sweep, each block's
values on the sub-lattice of the coordinates they vary over, and gives
the value and first point of the same reduction over every grid point,
the point read from the block that holds the value (``model._point``).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .model import (
    FrameModel,
    Grid,
    VectorFieldSpec,
    _constant_table,
    _det,
    _extreme,
    _point,
    _wrapped_columns,
    basic_field_check,
    require_finite,
    sample_grid,
    structure_functions_symbolic,
    sweep,
    validate_model,
)
from .records import (
    DEFAULT_TOLERANCE, CheckResult, FoliationSplit, ModelError, NotBasicError,
    check_line,
)


class TautnessClass(enum.Enum):
    IDENTICALLY_ZERO = "IdenticallyZero"
    MIXED_SIGN = "MixedSign"
    NON_TAUT_WITNESS = "NonTautWitness"
    NEGATED_NON_TAUT_WITNESS = "NegatedNonTautWitness"


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
}


@dataclass(frozen=True)
class TautnessVerdict:
    """Sign classification of div^Q v over a grid, with extremal points."""

    classification: TautnessClass
    min_value: float
    max_value: float
    argmin: tuple[float, ...]
    argmax: tuple[float, ...]
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


def _basic_reads(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
    *reads,
) -> list[list]:
    """The ``model.sweep`` of ``reads`` over ``grid``, after the basic
    test's residuals as the sweep's first read, refusing a field that is
    not basic over all of its points with NotBasicError."""
    residuals, *arrays = sweep(
        model, grid, lambda block: block.basic_residuals(split), *reads, field_spec=field_spec
    )
    check = basic_field_check(residuals)
    if not check.passed:
        raise NotBasicError(check)
    return arrays


def _divergence_sweep(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
    *reads,
) -> list[list]:
    """div^Q v over the grid, after the basic test over the whole grid,
    then the parts of ``reads`` from the same sweep."""
    values, *arrays = _basic_reads(model, split, field_spec, grid, _divergence(split), *reads)
    require_finite(values, "div^Q v")
    return [values, *arrays]


def _require_hypotheses(model: FrameModel, grid: Grid, dets: list | None = None) -> None:
    """The gate of every verdict: raise ModelError with the line of the
    first of ``validate_model``'s records on ``grid`` that fails.
    ``dets`` is the parts of det A of the verdict's own sweep (none on a
    constant-structure model, whose blocks have no frame matrix)."""
    for check in validate_model(model, grid, dets):
        if not check.passed:
            raise ModelError(check_line(check))


def _divergence(split: FoliationSplit):
    """The read of div^Q v from a FrameData block."""
    return lambda block: block.divergence(split.transverse_ordered)


def _classify(values: list, tol: float) -> TautnessVerdict:
    """The verdict on the parts of a sweep of div^Q v, each extreme
    reported at its first point."""
    (min_value, low), (max_value, high) = (
        _extreme(values, np.argmin, float.__lt__), _extreme(values, np.argmax, float.__gt__)
    )
    if max(abs(min_value), abs(max_value)) <= tol:
        classification = TautnessClass.IDENTICALLY_ZERO
    elif min_value >= -tol and max_value > tol:
        classification = TautnessClass.NON_TAUT_WITNESS
    elif max_value <= tol and min_value < -tol:
        classification = TautnessClass.NEGATED_NON_TAUT_WITNESS
    else:
        classification = TautnessClass.MIXED_SIGN
    return TautnessVerdict(
        classification, min_value, max_value, _point(*low), _point(*high), tol
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
    IdenticallyZero, then toward the witness classes.  A ``tol`` that is
    negative or not finite raises ModelError (an infinite one would call
    every finite divergence zero), and a non-finite value DomainError.
    A model that fails a hypothesis record on ``grid`` raises ModelError
    (``_require_hypotheses``).
    """
    if not 0.0 <= tol < math.inf:
        raise ModelError(f"tolerance must be a non-negative number and finite, got {tol!r}")
    reads = (_det,) if model.is_chart else ()  # det A, for the gate
    values, *dets = _divergence_sweep(model, split, field_spec, grid, *reads)
    _require_hypotheses(model, grid, *dets)
    return _classify(values, tol)


def alvarez_candidate(model: FrameModel, split: FoliationSplit) -> VectorFieldSpec:
    """The canonical witness candidate: the mean-curvature field of the
    leaves, as a vector-field spec (components vanish on leaf indices).

    Built here, not checked: it is meaningful only where the mean
    curvature is basic, and the consumers that sweep it test that on
    their own grid and raise NotBasicError otherwise, as for any field
    (modifying the metric to force basicness is out of scope here).
    """
    # kappa^k = sum_{a in leaf} Gamma_aa^k for transverse k, and
    # Gamma_aa^k = C_ka^a
    pairs = [(k, a) for k in split.transverse for a in split.leaf]
    if model.is_chart:
        table = structure_functions_symbolic(model)
        gamma = {(k, a): table[k][a][a] for k, a in pairs}
    else:  # the entries read, not a table of n^3 literals
        constants = _constant_table(model)
        gamma = {(k, a): expr.as_expr(constants[k, a, a]) for k, a in pairs}
    components: list[expr.Expr] = []
    for k in range(model.dim):
        total: expr.Expr = expr.ZERO
        if k in split.transverse:
            for a in split.leaf_ordered:
                total = expr.add(total, gamma[k, a])
        components.append(total)
    return VectorFieldSpec(components=tuple(components))


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
    Both sums are correctly rounded sums of the per-point terms
    (``_integral``), so independent of the order of the points.  A model
    that fails a hypothesis record on the grid raises ModelError
    (``_require_hypotheses``).
    """
    if not model.is_chart:
        raise ModelError("the Green-formula quadrature needs a chart model")
    grid = sample_grid(model, resolution)
    assert model.periods is not None
    cell = 1.0
    for length, n in zip(model.periods, grid.resolution):
        cell *= length / n

    lhs_terms, rhs_terms, dets = _basic_reads(
        model, split, field_spec, grid, *_green_terms(split, cell), _det
    )
    lhs = _integral(lhs_terms, "div^Q v dmu")
    rhs = _integral(rhs_terms, "g(v, kappa#) dmu")
    abs_error = abs(lhs - rhs)
    if not math.isfinite(abs_error):
        raise expr.DomainError(f"|lhs - rhs| overflows ({lhs!r} - {rhs!r})")
    _require_hypotheses(model, grid, dets)
    return QuadratureReport(
        lhs=lhs,
        rhs=rhs,
        abs_error=abs_error,
        resolution=grid.resolution,
        density="1/|det(frame)| (Riemannian density of the orthonormal frame)",
    )


def _green_terms(split: FoliationSplit, cell: float):
    """The reads of the per-point terms of the Green formula's two sides,
    div^Q v dmu and g(v, kappa#) dmu, for cells of volume ``cell``."""

    def lhs_term(block):
        return block.divergence(split.transverse_ordered) * (cell / np.abs(block.det))

    def rhs_term(block):
        return block.inner(block.mean_curvature(split.leaf_ordered)) * (cell / np.abs(block.det))

    return lhs_term, rhs_term


def _integral(terms: list, what: str) -> float:
    """math.fsum of the per-point terms of the parts ``terms`` of a
    sweep.  A value of a block's sub-lattice stands for the count c
    of points it is broadcast to, written as one term ldexp(value, b) per
    set bit b of c: exact terms, so the correctly rounded sum is that of
    the per-point terms.  Where a scaled term or a partial sum overflows,
    the values are repeated at their points instead."""
    require_finite(terms, f"term of the integral of {what}")
    try:
        try:
            return math.fsum(itertools.chain.from_iterable(_scaled_terms(terms)))
        except OverflowError:
            return math.fsum(itertools.chain.from_iterable(
                np.broadcast_to(values, block.resolution).ravel().tolist() for block, values in terms
            ))
    except OverflowError:
        raise expr.DomainError(f"the integral of {what} overflows") from None


def _scaled_terms(terms: list):
    """The terms ldexp(value, b) of ``_integral``, a list per block and
    bit; OverflowError where one would overflow."""
    for block, values in terms:
        count, top = len(block) // values.size, float(np.abs(values).max())
        for bit in range(count.bit_length()):
            if count >> bit & 1:
                math.ldexp(top, bit)  # raises OverflowError where a term would overflow
                yield np.ldexp(values, bit).ravel().tolist()


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
    if not model.is_chart:
        raise ModelError("only chart models can be unrolled to a cover")
    if not 0 <= coord < model.dim:
        raise ModelError(f"coordinate {coord} out of range for dim {model.dim}")
    if fold < 1:
        raise ModelError(f"fold must be a positive integer, got {fold}")
    if fold == 1:
        return model, split, field_spec
    assert model.periods is not None
    wraps = list(model.coordinate_wraps or (None,) * model.dim)
    if wraps[coord] is None:
        wraps[coord] = model.periods[coord]
    periods = list(model.periods)
    periods[coord] *= fold
    if periods[coord] == math.inf:
        raise ModelError(f"periods must be positive and finite, got {tuple(periods)}")
    lifted = replace(
        model,
        name=f"{model.name}::{fold}-fold-cover(x{coord + 1})",
        periods=tuple(periods),
        coordinate_wraps=tuple(wraps),
    )
    return lifted, split, field_spec


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
    points, reusing the values of the cover's sweep.  The projected
    points are the lattice of the cover grid's axes wrapped by
    ``model._wrapped_columns``, the same function the cover's sweep
    applies to them.

    ``max_pointwise_difference`` is exactly 0 by construction, since the
    cover evaluates the base's expressions at wrapped coordinates (0 on
    torus-warped and flat-kronecker, folds 1 to 5, grids 4 to 64; up to
    6.2e-13 without the wrap).  It checks the wrapping, not the geometry,
    at the cost of a base sweep at the projected points.

    The hypothesis gate runs once, on the base model and grid, in the
    base's classification; the cover's sweep still refuses a frame that
    is singular at one of its points with SingularFrameError.
    """
    cover, cover_split, cover_field = lift_to_cover(model, split, field_spec, coord, fold)
    base_grid = sample_grid(model, resolution)
    cover_grid = sample_grid(cover, resolution)
    base_verdict = classify_divergence(model, split, field_spec, base_grid, tol)
    (lifted,) = _divergence_sweep(cover, cover_split, cover_field, cover_grid)
    # as silent as Python floats: a check refuses any non-finite value a result reads
    with np.errstate(all="ignore"):
        projected = Grid(_wrapped_columns(cover, cover_grid.axes))
        (below,) = sweep(model, projected, _divergence(split), field_spec=field_spec)
        # both sweeps run plans of the same expressions, so their blocks match
        difference = [(block, np.abs(ups - downs)) for (block, ups), (_, downs) in zip(lifted, below)]
    require_finite(difference, "pointwise difference of div^Q")
    return CoverComparison(
        cover=cover,
        base_verdict=base_verdict,
        cover_verdict=_classify(lifted, tol),
        max_pointwise_difference=_extreme(difference, np.argmax, float.__gt__)[0],
    )
