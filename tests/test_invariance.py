"""The verdicts depend only on the transverse structure.

Tautness of a Riemannian foliation is a property of its transverse
structure (Haefliger, J. Differential Geom. 15, 1980, whose result the
paper derives).  Two changes of the frame keep the foliation, the
transverse metric and bundle-likeness, and change only the metric:
rescaling the leaf rows, E_a -> phi E_a for a positive phi
(``generators.rescaled_rows``), and shifting the normal bundle, E_j ->
E_j + sum_a c_j^a E_a (``generators.shifted_normals``).  A basic field
given by the same transverse components is the same section of the
normal bundle, so its div^Q, the divergence for the holonomy-invariant
transverse volume, must not change (to 1e-12 of the grid-wide
magnitude), nor its verdict class; the Green identity holds in every
metric.  Rescaling a transverse row instead changes the transverse
metric, and the oracle must catch it.

A gauge rotation of the two transverse rows of a 3-torus, E_2 -> cos
theta E_2 + sin theta E_3 and E_3 -> -sin theta E_2 + cos theta E_3
(``generators.rotated_rows``), keeps the metric itself; the field's
components turn the same way, so it is the same field and the same
checks hold.  Keeping its unrotated components instead makes another
field, and the oracle must catch that too.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv import expr

from generators import (
    BENCH_TORI, bench_torus_case, rescaled_rows, rotated_rows, shifted_normals, swept_rows, trig_poly,
    warped_torus_case,
)

#: The builtins, the dimensions of the warped tori drawn and the tori of
#: the chart benchmarks
KINDS = ["torus-warped", "flat-kronecker", 2, 3, *BENCH_TORI]
CASES = st.sampled_from(KINDS)
#: The cases with two transverse rows for a gauge rotation to turn
ROTATED = st.sampled_from([3, "bench-warped-3d"])

#: Points per axis: the Green sums of these smooth periodic terms are
#: then exact to about 1e-15 of their size.  The benchmark's warps and
#: fields have frequencies 2 and 3 inside exp, so their Green sums need
#: 48 (at 16 they miss by up to 1e-5 of their size, at 32 by 2e-12)
POINTS = 16
BENCH_POINTS = 48


def points(kind):
    return BENCH_POINTS if kind in BENCH_TORI else POINTS


def case(kind, rng):
    """A model, its split and a basic field with a zero leaf component.
    The leaves of flat-kronecker are dense, so its basic functions are
    constant, as are those of the Kronecker torus the benchmark draws."""
    if kind == "torus-warped":
        model, split = td.builtin_model(kind)
        return model, split, td.vector_field(["0", trig_poly(rng, 2, coords=(2,))], model)
    if kind == "flat-kronecker":
        model, split = td.builtin_model(kind)
        return model, split, td.vector_field(["0", repr(rng.uniform(0.5, 2.0))], model)
    if kind in BENCH_TORI:
        return bench_torus_case(rng, kind)
    return warped_torus_case(rng, kind)


def positive(rng, dim):
    """exp of a trig_poly of every coordinate."""
    return expr.FunctionCall("exp", trig_poly(rng, dim))


def transforms(rng, model, split):
    """The frames with the transverse structure of ``model``: its leaf rows
    rescaled, its normals shifted, and both."""
    phi = positive(rng, model.dim)
    shifts = {(j, a): trig_poly(rng, model.dim) for j in split.transverse for a in split.leaf}
    rescaled = rescaled_rows(model, split.leaf, phi)
    return [rescaled, shifted_normals(model, split, shifts), shifted_normals(rescaled, split, shifts)]


def divergences(model, split, field, resolution):
    (values,) = swept_rows(
        model, td.sample_grid(model, resolution),
        lambda block: block.divergence(split.transverse_ordered), field_spec=field,
    )
    return values


def gauge_rotated(rng, model, split, field):
    """``model`` and ``field`` with the two transverse rows turned by a
    trig_poly of every coordinate."""
    return rotated_rows(model, field, tuple(split.transverse_ordered), trig_poly(rng, model.dim))


def invariant(model, split, field, other, moved, resolution):
    """Whether ``moved`` on the frame ``other`` has the div^Q, verdict
    class and Green identity of ``field`` on ``model``, on ``resolution``
    points per axis."""
    grid = td.sample_grid(model, resolution)
    try:
        verdicts = [td.classify_divergence(m, split, f, grid) for m, f in ((model, field), (other, moved))]
    except td.NotBasicError:
        return False
    reference = divergences(model, split, field, resolution)
    values = divergences(other, split, moved, resolution)
    scale = max(float(np.max(np.abs(reference))), 1.0)
    report = td.green_check(other, split, moved, resolution)
    return (
        float(np.max(np.abs(values - reference))) <= 1e-12 * scale
        and verdicts[0].classification is verdicts[1].classification
        and report.abs_error <= 1e-12 * max(abs(report.lhs), abs(report.rhs), 1.0)
    )


@settings(max_examples=25, deadline=None)
@given(CASES, st.integers(0, 2**32 - 1))
def test_div_q_and_the_verdict_depend_only_on_the_transverse_structure(kind, seed):
    rng = random.Random(seed)
    model, split, field = case(kind, rng)
    for other in transforms(rng, model, split):
        moved = td.vector_field(field.components, other)
        assert invariant(model, split, field, other, moved, points(kind)), other.frame


@settings(max_examples=15, deadline=None)
@given(CASES, st.integers(0, 2**32 - 1))
def test_rescaling_a_transverse_row_is_caught(kind, seed):
    # psi varies along every transverse coordinate: a factor of x_j alone
    # on the row of x_j would only reparametrize x_j, which a field whose
    # x_j component does not vary along x_j cannot see
    rng = random.Random(seed)
    model, split, field = case(kind, rng)
    row = rng.choice(split.transverse_ordered)
    total = "+".join(f"x{j + 1}" for j in split.transverse_ordered)
    psi = expr.parse(f"exp(0.3*sin(2*pi*({total})))")
    other = rescaled_rows(model, {row}, psi)
    assert not invariant(model, split, field, other, td.vector_field(field.components, other), points(kind))


@settings(max_examples=20, deadline=None)
@given(ROTATED, st.integers(0, 2**32 - 1))
def test_div_q_and_the_verdict_survive_a_gauge_rotation(kind, seed):
    rng = random.Random(seed)
    model, split, field = case(kind, rng)
    other, moved = gauge_rotated(rng, model, split, field)
    assert invariant(model, split, field, other, moved, points(kind)), other.frame


@settings(max_examples=10, deadline=None)
@given(ROTATED, st.integers(0, 2**32 - 1))
def test_a_rotation_that_keeps_the_unrotated_components_is_caught(kind, seed):
    rng = random.Random(seed)
    model, split, field = case(kind, rng)
    other, _ = gauge_rotated(rng, model, split, field)
    assert not invariant(model, split, field, other, td.vector_field(field.components, other), points(kind))


@pytest.mark.parametrize("kind", KINDS)
def test_the_green_identity_holds_before_the_frame_changes(kind):
    # the bound the transformed frames are held to holds on the originals
    model, split, field = case(kind, random.Random(5))
    report = td.green_check(model, split, field, points(kind))
    assert report.abs_error <= 1e-12 * max(abs(report.lhs), abs(report.rhs), 1.0)
