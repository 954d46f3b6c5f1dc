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
field, and the oracle must catch that too.  The same holds for a
rotation of the two leaf rows of a codimension-1 3-torus
(``generators.two_leaf_torus_case``), checked one point at a time as
well; at LEAF_POINTS = 16 points per axis its Green sums hold to
7.8e-16 of their size (4.3e-13 at 12, 4.9e-7 at 8, over 40 draws with
the drawn field and the Alvarez candidate, both frames).  Turning a
leaf row with the transverse row instead moves the leaves, and the
oracle must catch it.

A diffeomorphism x = Psi(y) of the torus pulls a chart back
(``generators.pulled_back``): each frame row becomes D Psi^-1 a_i(Psi(y))
and each field component v^k(Psi(y)), so Psi is an isometry of the two
foliated tori.  For the shears x_m = y_m + eps sin(2 pi y_k) and the
SL(n, Z) maps [[2,1],[1,1]] and [[1,1,0],[0,1,1],[1,1,1]], div^Q of the
pulled-back field at y must be the base's at Psi(y) mod 1 (to 1e-12 of
the magnitude of the values read, one point at a time), its verdict
class the base's, and its Green sums the base's to 1e-12 relative.
Measured on the cases below: at PULLED_POINTS = 48 points per axis the
Green sums of every pulled-back case agree with the base's (at 16
points per axis, 48 for the benchmark tori) to within 1e-15 of their
size; at 32 the warped 3-torus of the benchmark under the SL(3, Z) map
misses by 1.8e-12, and at 16 the benchmark tori miss by up to 2.1e-4.
Dropping D Psi^-1, or composing with Psi^-1 in place of Psi, makes
another foliated torus, and the oracle must catch both where the map
moves the transverse structure.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv import expr

from generators import (
    BENCH_TORI, bench_torus_case, linear, pulled_back, rescaled_rows, rotated_rows, shear, shifted_normals,
    swept_rows, trig_poly, two_leaf_torus_case, warped_torus_case,
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


#: Points per axis of the two-leaf 3-torus (see the module docstring)
LEAF_POINTS = 16


def leaf_rotation_invariant(rng, rows):
    """Whether the drawn field and the Alvarez candidate of a drawn
    two-leaf 3-torus, with the frame ``rows`` turned by a trig_poly of
    every coordinate, keep their div^Q at 8 drawn points and their
    ``invariant`` checks."""
    model, split, drawn = two_leaf_torus_case(rng)
    theta = trig_poly(rng, model.dim)
    ys = [tuple(rng.random() for _ in range(model.dim)) for _ in range(8)]
    for field in (drawn, td.alvarez_candidate(model, split)):
        other, moved = rotated_rows(model, field, rows, theta)
        reference = [one_point_divergence(model, split, field, y) for y in ys]
        values = [one_point_divergence(other, split, moved, y) for y in ys]
        if max(abs(a - b) for a, b in zip(reference, values)) > 1e-12 * max(max(map(abs, reference)), 1.0):
            return False
        if not invariant(model, split, field, other, moved, LEAF_POINTS):
            return False
    return True


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_div_q_and_the_verdict_survive_a_rotation_of_the_leaf_rows(seed):
    assert leaf_rotation_invariant(random.Random(seed), (0, 1))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_rotation_of_a_leaf_row_with_the_transverse_row_is_caught(seed):
    assert not leaf_rotation_invariant(random.Random(seed), (0, 2))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_div_q_and_the_verdict_of_a_two_leaf_torus_depend_only_on_the_transverse_structure(seed):
    # besides ``transforms``, each leaf row rescaled by its own phi, which
    # changes kappa along both leaf rows at once
    rng = random.Random(seed)
    model, split, field = two_leaf_torus_case(rng)
    own = model
    for a in split.leaf_ordered:
        own = rescaled_rows(own, {a}, positive(rng, model.dim))
    for other in (*transforms(rng, model, split), own):
        moved = td.vector_field(field.components, other)
        assert invariant(model, split, field, other, moved, LEAF_POINTS), other.frame


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rescaling_the_transverse_row_of_a_two_leaf_torus_is_caught(seed):
    model, split, field = two_leaf_torus_case(random.Random(seed))
    other = rescaled_rows(model, {2}, expr.parse("exp(0.3*sin(2*pi*x3))"))
    assert not invariant(model, split, field, other, td.vector_field(field.components, other), LEAF_POINTS)


@pytest.mark.parametrize("kind", KINDS)
def test_the_green_identity_holds_before_the_frame_changes(kind):
    # the bound the transformed frames are held to holds on the originals
    model, split, field = case(kind, random.Random(5))
    report = td.green_check(model, split, field, points(kind))
    assert report.abs_error <= 1e-12 * max(abs(report.lhs), abs(report.rhs), 1.0)


# --- torus diffeomorphisms ------------------------------------------------------

#: The tori pulled back: the builtin warped torus, the warped tori drawn
#: and the tori of the chart benchmarks
PULLED = ["torus-warped", 2, 3, *BENCH_TORI]
#: The maps of each torus: two shears, of the last coordinate along the
#: first and of the first along the last, and an SL(n, Z) map
MAPS = ["shear-last", "shear-first", "linear"]
#: Points per axis of the pulled-back grids (see the module docstring)
PULLED_POINTS = 48
SL = {2: ((2, 1), (1, 1)), 3: ((1, 1, 0), (0, 1, 1), (1, 1, 1))}


def torus_map(name, dim, rng):
    if name == "linear":
        return linear(SL[dim])
    epsilon = round(rng.uniform(0.05, 0.2), 6)
    return shear(dim, dim - 1, 0, epsilon) if name == "shear-last" else shear(dim, 0, dim - 1, epsilon)


def one_point_divergence(model, split, field, point):
    (value,) = td.model.at_point(
        model, point, lambda block: block.divergence(split.transverse_ordered), field_spec=field
    )
    return float(value)


def pulled_back_invariant(kind, rng, psi, model, split, field, other, moved):
    """Whether ``moved`` on the chart ``other``, ``field`` on ``model``
    pulled back by ``psi`` (or a mutant of it), has the base's div^Q at 8
    drawn points y and Psi(y) mod 1, its verdict class and its Green sums."""
    ys = [tuple(rng.random() for _ in range(model.dim)) for _ in range(8)]
    reference = [one_point_divergence(model, split, field, tuple(x % 1.0 for x in psi.at(y))) for y in ys]
    values = [one_point_divergence(other, split, moved, y) for y in ys]
    scale = max(max(map(abs, reference)), 1.0)
    if max(abs(a - b) for a, b in zip(reference, values)) > 1e-12 * scale:
        return False
    try:
        verdicts = [
            td.classify_divergence(m, split, f, td.sample_grid(m, n))
            for m, f, n in ((model, field, points(kind)), (other, moved, PULLED_POINTS))
        ]
        base, pulled = td.green_check(model, split, field, points(kind)), td.green_check(other, split, moved, PULLED_POINTS)
    except td.NotBasicError:
        return False
    size = max(abs(base.lhs), abs(base.rhs), 1.0)
    return (
        verdicts[0].classification is verdicts[1].classification
        and abs(pulled.lhs - base.lhs) <= 1e-12 * size
        and abs(pulled.rhs - base.rhs) <= 1e-12 * size
    )


@pytest.mark.parametrize("kind, name", itertools.product(PULLED, MAPS))
def test_div_q_the_verdict_and_the_green_sums_survive_a_torus_diffeomorphism(kind, name):
    # the drawn field's Green sums are often 0; the Alvarez candidate's,
    # the integral of |kappa|^2, are not, but on the Kronecker torus
    rng = random.Random(f"{kind}-{name}")
    model, split, drawn = case(kind, rng)
    psi = torus_map(name, model.dim, rng)
    for field in (drawn, td.alvarez_candidate(model, split)):
        other, moved = pulled_back(model, field, psi.forward, psi.inverse_jacobian)
        assert pulled_back_invariant(kind, rng, psi, model, split, field, other, moved), psi.name


#: Tori on which a wrong pull-back by the maps that move the last
#: (transverse) coordinate shows.  A flat Kronecker torus with a constant
#: field is the same under any of these maps, and a shear of x1 alone may
#: only shift the normals along the leaves (``shifted_normals``)
MUTATED = ["torus-warped", 3, "bench-warped-3d", "warped-both"]


@pytest.mark.parametrize("kind, name", itertools.product(MUTATED, ["shear-last", "linear"]))
@pytest.mark.parametrize("mutant", ["without-inverse-jacobian", "composed-with-the-inverse"])
def test_a_wrong_pull_back_is_caught(kind, name, mutant):
    rng = random.Random(f"{kind}-{name}")
    model, split, field = case(kind, rng)
    psi = torus_map(name, model.dim, rng)
    if mutant == "without-inverse-jacobian":
        identity = [[expr.ONE if p == q else expr.ZERO for q in range(model.dim)] for p in range(model.dim)]
        other, moved = pulled_back(model, field, psi.forward, identity)
    else:
        other, moved = pulled_back(model, field, psi.inverse, psi.inverse_jacobian)
    assert not pulled_back_invariant(kind, rng, psi, model, split, field, other, moved), psi.name
