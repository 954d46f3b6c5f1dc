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
with one gate: the records of ``model.hypotheses``, whose folds the
verdict's own sweep of its grid takes (``_verdict_sweep``), each then
judged on their final states; a record with no folds (the Jacobi
identity) is judged before that sweep, as ``analyze`` judges it.  A
failed record refuses the model with ModelError, its message the
record's line.

Every reduction over a grid here (``_classify``, ``_integral``, the
cover's largest difference) is a fold of the verdict's sweep
(``model.Fold``) that takes each block's values as it is swept, so a
verdict holds one block, not the lattice, and gives the value and first
point of the same reduction over every grid point.  Each fold keeps its
first failure, raised after the sweep in one order: a non-finite basic
residual, a field that is not basic, a non-finite div^Q v or Green
term, then the gate's records with folds.  A Green sum's fold keeps its
exact total as an int, so the integral is rounded once, at the end.
"""

from __future__ import annotations

import contextlib
import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .model import (
    Fold, FrameModel, Grid, VectorFieldSpec, _basic_folds, _checked, _constant_table,
    _first_non_finite, _greatest, _least, _point, _taken, basic_field_check, hypotheses, judged_sweep,
    require_finite, sample_grid, structure_functions_symbolic, sweep,
)
from .records import (
    DEFAULT_TOLERANCE, FoliationSplit, ModelError, NotBasicError, check_line,
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
    and the largest |div^Q(lift v)(x) - div^Q(v)(x mod L)| over the
    cover's grid, L the base period along the unrolled coordinate."""

    cover: FrameModel
    base_verdict: TautnessVerdict
    cover_verdict: TautnessVerdict
    max_pointwise_difference: float


@contextlib.contextmanager
def _verdict_sweep(model: FrameModel, split: FoliationSplit, field_spec, grid: Grid, *folds, records=None):
    """The states of ``folds``, for the body of a with statement, in the
    one ``model.judged_sweep`` of ``grid`` whose first folds are the
    basic test's and whose last are those of ``records`` (by default
    ``model.hypotheses(model, split)``) with folds.  Each record with
    no folds is judged before the sweep, as ``validate_model`` judges
    it.  A field that is not basic is refused with NotBasicError before
    the body runs; after a body that raises nothing, the records with
    folds are judged.  The first failed record refuses the model with
    ModelError, its message the record's line."""
    records = hypotheses(model, split) if records is None else records
    _refuse_failed(record.judge(grid, []) for record in records if not record.folds)
    (found, worst, *states), judgements = judged_sweep(
        model, grid, [record for record in records if record.folds], *_basic_folds(split), *folds,
        field_spec=field_spec,
    )
    check = basic_field_check(found, worst, len(grid))
    if not check.passed:
        raise NotBasicError(check)
    yield states
    _refuse_failed(judgements)


def _refuse_failed(checks) -> None:
    """Raise ModelError with the line of the first failed check of ``checks``."""
    for check in checks:
        if not check.passed:
            raise ModelError(check_line(check))


def _divergence_folds(split: FoliationSplit) -> tuple[Fold, ...]:
    """The folds of a verdict's read of div^Q v: its first non-finite
    value, its least and its greatest."""
    return _checked(lambda block: block.divergence(split.transverse_ordered), _least, _greatest)


def _classify(found, low, high, tol: float) -> TautnessVerdict:
    """The verdict from the states of ``_divergence_folds``, each
    extreme reported at its first point; a non-finite div^Q v raises
    DomainError."""
    require_finite(found, "div^Q v")
    (min_value, at_min), (max_value, at_max) = low, high
    if max(abs(min_value), abs(max_value)) <= tol:
        classification = TautnessClass.IDENTICALLY_ZERO
    elif min_value >= -tol and max_value > tol:
        classification = TautnessClass.NON_TAUT_WITNESS
    elif max_value <= tol and min_value < -tol:
        classification = TautnessClass.NEGATED_NON_TAUT_WITNESS
    else:
        classification = TautnessClass.MIXED_SIGN
    return TautnessVerdict(
        classification, min_value, max_value, _point(*at_min), _point(*at_max), tol
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
    (``_verdict_sweep``).
    """
    if not 0.0 <= tol < math.inf:
        raise ModelError(f"tolerance must be a non-negative number and finite, got {tol!r}")
    folds = _divergence_folds(split)
    with _verdict_sweep(model, split, field_spec, grid, *folds) as states:
        return _classify(*states, tol)


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
    Both sums are the correctly rounded exact sums of the per-point terms
    (``_integral``), so independent of the order of the points and of the
    blocks; a sum is refused with DomainError as overflowing exactly when
    that rounding passes the float range.  A cell volume that is not a
    normal float (it underflows, which would zero every term, or
    overflows) raises ModelError, as does a model that fails a
    hypothesis record on the grid (``_verdict_sweep``).
    """
    if not model.is_chart:
        raise ModelError("the Green-formula quadrature needs a chart model")
    grid = sample_grid(model, resolution)
    assert model.periods is not None
    cell = math.prod(length / n for length, n in zip(model.periods, grid.resolution))
    if not sys.float_info.min <= cell < math.inf:
        raise ModelError(
            f"cell volume {cell!r} of periods {model.periods} at grid {grid.resolution} "
            "leaves the float range"
        )
    sums = (Fold(term, _sum_step, (None, 0)) for term in _green_terms(split, cell))
    with _verdict_sweep(model, split, field_spec, grid, *sums) as (lhs, rhs):
        lhs = _integral(lhs, "div^Q v dmu")
        rhs = _integral(rhs, "g(v, kappa#) dmu")
        abs_error = abs(lhs - rhs)
        if not math.isfinite(abs_error):
            raise expr.DomainError(f"|lhs - rhs| overflows ({lhs!r} - {rhs!r})")
    density = "1/|det(frame)| (Riemannian density of the orthonormal frame)"
    return QuadratureReport(lhs, rhs, abs_error, grid.resolution, density)


def _green_terms(split: FoliationSplit, cell: float):
    """The reads of the per-point terms of the Green formula's two sides,
    div^Q v dmu and g(v, kappa#) dmu, for cells of volume ``cell``."""

    def lhs_term(block):
        return block.divergence(split.transverse_ordered) * (cell / np.abs(block.det))

    def rhs_term(block):
        return block.inner(block.mean_curvature(split.leaf_ordered)) * (cell / np.abs(block.det))

    return lhs_term, rhs_term


#: A Green sum's total counts units of 2^-1126: np.frexp writes a finite
#: double as m * 2^(e - 53), an integer |m| < 2^53 and e >= -1073, which
#: is m * 2^(e + 1073) units
_UNIT = 1126


def _sum_step(state, block: Grid, values: np.ndarray):
    """The step of a Green sum: (its first non-finite term, the exact sum
    of its terms in units of 2^-_UNIT, an int), each value counted for
    the len(block) // values.size points it stands for.  The mantissas'
    27- and 26-bit halves are summed by exponent with np.bincount, which
    is exact for fewer than 2^26 values."""
    found, total = state
    found = _first_non_finite(found, block, values)
    if found is not None:
        return found, total
    assert values.size < 1 << 26, "per-exponent sums of the halves are exact below 2^26 values"
    mantissas, exponents = np.frexp(values.ravel())
    m = np.ldexp(mantissas, 53).astype(np.int64)
    shifts = exponents + (_UNIT - 53)
    high = np.bincount(shifts, m >> 26)
    low = np.bincount(shifts, m & ((1 << 26) - 1))
    exact = 0
    for shift in np.flatnonzero((high != 0) | (low != 0)):
        exact += ((int(high[shift]) << 26) + int(low[shift])) << int(shift)
    return found, total + len(block) // values.size * exact


def _integral(state, what: str) -> float:
    """The correctly rounded sum of the per-point terms, the exact total
    of a ``_sum_step`` state divided by 2^_UNIT (CPython's int true
    division rounds correctly); a non-finite term, then a total that
    rounds past the float range, raises DomainError."""
    found, total = state
    require_finite(found, f"term of the integral of {what}")
    try:
        return total / (1 << _UNIT)
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


def lift_to_cover(model: FrameModel, coord: int, fold: int) -> FrameModel:
    """The fold-times periodic cover of a chart unrolled along coordinate
    ``coord`` (0-based).

    The cover is an ordinary chart: the same frame expressions on a box
    whose period along ``coord`` is ``fold`` times the base's, evaluated
    at its own coordinates, so a split and a field of the base are the
    cover's as they stand.  Its div^Q agrees with the base's at the
    projected point only where the expressions are periodic along
    ``coord``, which ``compare_with_cover`` measures.  Swept, it derives
    its own frame partials, C and plan, as any chart does.  A period
    that overflows is refused with ModelError.
    """
    if not model.is_chart:
        raise ModelError("only chart models can be unrolled to a cover")
    if not 0 <= coord < model.dim:
        raise ModelError(f"coordinate {coord} out of range for dim {model.dim}")
    if fold < 1:
        raise ModelError(f"fold must be a positive integer, got {fold}")
    assert model.periods is not None
    periods = list(model.periods)
    periods[coord] = periods[coord] * fold if fold <= sys.float_info.max else math.inf
    if periods[coord] == math.inf:
        raise ModelError(f"periods must be positive and finite, got {tuple(periods)}")
    name = f"{model.name}::{fold}-fold-cover(x{coord + 1})"
    return replace(model, name=name, periods=tuple(periods))


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
    ``coord`` (see lift_to_cover), each on a grid of ``resolution`` and
    with the base's ``split`` and ``field_spec``, and compare the lift
    pointwise with the base field at the projected points in a fold of
    the cover's sweep: at each block, the base is swept at the block's
    axes with the ``coord`` axis taken modulo the base period L by np.mod
    (the bits of Python's ``%``).  The cover's sweep is the base's on
    the cover's lattice (the periods enter only the lattice): every
    sweep here is of one model, with one plan.

    ``max_pointwise_difference`` is the largest |div^Q(lift v)(x) -
    div^Q(v)(x mod L)|.  Where div^Q v is periodic along ``coord`` it is
    rounding, growing with the cover's coordinates (1.2e-14 at fold 2 and
    7.2e-12 at fold 1000 for the Alvarez candidate on torus-warped along
    x2 at grid 64); where it is not, it is the jump across the seam.

    The hypothesis gate runs once, on the base model and grid, in the
    base's classification; the cover's sweep still refuses a frame that
    is singular at one of its points with SingularFrameError, and an
    expression that fails at one of them with its ExprError.
    """
    cover = lift_to_cover(model, coord, fold)
    base_grid = sample_grid(model, resolution)
    cover_grid = sample_grid(cover, resolution)
    base_verdict = classify_divergence(model, split, field_spec, base_grid, tol)
    folds = _divergence_folds(split)
    base = folds[0].read
    assert model.periods is not None
    period = model.periods[coord]

    def difference(state, block: Grid, lifted: np.ndarray):
        # the base at the block's projected points: the same plan, so one block
        axes = list(block.axes)
        axes[coord] = np.mod(axes[coord], period)
        (below,) = sweep(model, Grid(axes), Fold(base, _taken), field_spec=field_spec)
        gap = np.abs(lifted - below)
        return _first_non_finite(state[0], block, gap), _greatest(state[1], block, gap)

    folds += (Fold(base, difference, (None, None)),)
    ungated = _verdict_sweep(model, split, field_spec, cover_grid, *folds, records=())
    with ungated as (*states, (found, largest)):
        cover_verdict = _classify(*states, tol)  # a non-finite div^Q v before the difference
        require_finite(found, "pointwise difference of div^Q")
    return CoverComparison(cover, base_verdict, cover_verdict, largest[0])
