"""Families of cases with known answers: "hard to fool" as a count over
generated cases (ROADMAP item 29).

Each family draws a fixed number of cases from fixed seeds, and each
case must show the outcome the mathematics requires:

- taut tori: ``warped_torus_case`` in 2-D and 3-D, ``two_leaf_torus_case``
  and ``bench_torus_case``, each with its drawn basic field, and their
  images under a gauge rotation of two rows of one kind
  (``rotated_rows``) and under torus diffeomorphisms (``pulled_back``
  by a shear and by an SL(n, Z) map).  Tautness is a property of the
  transverse structure (Haefliger, J. Differential Geom. 15, 1980), and
  on a taut foliation no basic field has a one-signed, somewhere
  nonzero div^Q, so the verdict must be consistent with taut
  (``MixedSign`` or ``IdenticallyZero``), never a witness class;
- one-leaf suspensions of ``random_admissible_matrix`` (n = 2..4, every
  leaf): the Alvarez candidate kappa has div^Q kappa = |kappa|^2 =
  (ln lambda_leaf)^2 at the abstract point, so the verdict must be
  ``NonTautWitness`` with that value to 1e-12 relative, lambda_leaf from
  NumPy's eigenvalues of the matrix.  A homothety E_i -> c E_i keeps the
  foliation and multiplies div^Q kappa by c^2, so the same holds for
  c in {1e-3, 1e3} with c^2 (ln lambda_leaf)^2.

A case that the program gets wrong is a false verdict.  It is a strict
xfail naming the roadmap items that own it, so ``-rxX`` lists every
false verdict, and the fix that lands turns it into an unexpected pass;
``FALSE_VERDICTS`` counts them per family.  Seeds and sizes were fixed
before the first run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import transdiv as td
from transdiv.tautness import TautnessClass

from generators import (
    BENCH_TORI, bench_torus_case, linear, pulled_back, random_admissible_matrix, rotated_rows, shear,
    trig_poly, two_leaf_torus_case, warped_torus_case,
)

#: Points per axis of the taut tori's grids
POINTS = {2: 16, 3: 12}
#: Draws of each taut torus, and of the admissible matrices of each size
DRAWS = 3
MATRIX_DRAWS = 2
#: The homotheties of the suspensions
SCALES = (1.0, 1e-3, 1e3)
#: The rows that a gauge rotation turns: two transverse rows, or two leaf rows
ROTATED = {"warped-3d": (1, 2), "two-leaf": (0, 1), "bench-warped-3d": (1, 2)}
SL = {2: ((2, 1), (1, 1)), 3: ((1, 1, 0), (0, 1, 1), (1, 1, 1))}

#: False verdicts per family: the strict xfails below
FALSE_VERDICTS = {"taut-tori": 0, "one-leaf-suspensions": 0}

#: Known false verdicts: case id -> the roadmap items that own it
KNOWN: dict[str, str] = {}


def torus(kind: str, rng: random.Random):
    if kind == "warped-2d":
        return warped_torus_case(rng, 2)
    if kind == "warped-3d":
        return warped_torus_case(rng, 3)
    if kind == "two-leaf":
        return two_leaf_torus_case(rng)
    return bench_torus_case(rng, kind)


def taut_case(kind: str, draw: int, image: str):
    """The torus ``kind`` of draw ``draw`` and its field, as drawn or as
    ``image`` makes them: "rotated", "shear" or "linear"."""
    rng = random.Random(f"taut-tori:{kind}:{draw}")
    model, split, field = torus(kind, rng)
    if image == "rotated":
        model, field = rotated_rows(model, field, ROTATED[kind], trig_poly(rng, model.dim))
    elif image == "shear":
        epsilon = round(rng.uniform(0.05, 0.2), 6)
        psi = shear(model.dim, model.dim - 1, 0, epsilon)
        model, field = pulled_back(model, field, psi.forward, psi.inverse_jacobian)
    elif image == "linear":
        psi = linear(SL[model.dim])
        model, field = pulled_back(model, field, psi.forward, psi.inverse_jacobian)
    return model, split, field


def taut_outcome(kind: str, draw: int, image: str) -> str:
    model, split, field = taut_case(kind, draw, image)
    grid = td.sample_grid(model, POINTS[model.dim])
    return td.classify_divergence(model, split, field, grid).classification.value


def scaled_suspension(matrix, leaf: int, scale: float):
    """The suspension of ``matrix`` with leaves along eigen-direction
    ``leaf``, every structure constant times ``scale``: the frame times
    ``scale``, so the same foliation."""
    document = td.build_suspension(matrix, leaf)
    constants = [{**entry, "value": entry["value"] * scale} for entry in document["structure_constants"]]
    return td.load_model({**document, "structure_constants": constants})


def suspension_outcome(n: int, draw: int, leaf: int, scale: float):
    """(verdict, min and max of div^Q kappa, c^2 (ln lambda_leaf)^2)."""
    matrix = random_admissible_matrix(random.Random(f"one-leaf-suspensions:{n}:{draw}"), n)
    model, split = scaled_suspension(matrix, leaf, scale)
    verdict = td.classify_divergence(model, split, td.alvarez_candidate(model, split), td.sample_grid(model, ()))
    eigenvalues = np.sort(np.linalg.eigvals(np.array(matrix, dtype=float)).real)
    expected = (scale * np.log(eigenvalues[leaf - 1])) ** 2
    return verdict.classification.value, verdict.min_value, verdict.max_value, float(expected)


def members(family: str, cases):
    """The parameters of ``family``'s cases, each (id, arguments), the
    known false verdicts marked as strict xfails with their items."""
    params = []
    for case_id, arguments in cases:
        full = f"{family}/{case_id}"
        marks = [pytest.mark.xfail(strict=True, reason=f"ROADMAP items {KNOWN[full]}")] if full in KNOWN else []
        params.append(pytest.param(*arguments, id=full, marks=marks))
    return params


TAUT_TORI = members("taut-tori", [
    (f"{kind}-{draw}" + (f"-{image}" if image else ""), (kind, draw, image))
    for kind in ("warped-2d", "warped-3d", "two-leaf", *BENCH_TORI)
    for draw in range(DRAWS)
    for image in ("", *(("rotated",) if kind in ROTATED else ()), "shear", "linear")
])

ONE_LEAF_SUSPENSIONS = members("one-leaf-suspensions", [
    (f"n{n}-{draw}-leaf{leaf}-c{scale:g}", (n, draw, leaf, scale))
    for n in (2, 3, 4)
    for draw in range(MATRIX_DRAWS)
    for leaf in range(1, n + 1)
    for scale in SCALES
])


@pytest.mark.parametrize("kind, draw, image", TAUT_TORI)
def test_a_taut_torus_never_gives_a_witness(kind, draw, image):
    assert taut_outcome(kind, draw, image) in {TautnessClass.MIXED_SIGN.value, TautnessClass.IDENTICALLY_ZERO.value}


@pytest.mark.parametrize("n, draw, leaf, scale", ONE_LEAF_SUSPENSIONS)
def test_a_one_leaf_suspension_is_a_witness_with_div_kappa_its_log_squared(n, draw, leaf, scale):
    verdict, low, high, expected = suspension_outcome(n, draw, leaf, scale)
    assert verdict == TautnessClass.NON_TAUT_WITNESS.value
    for value in (low, high):
        assert abs(value - expected) <= 1e-12 * expected


def test_false_verdicts_are_counted_per_family():
    marked = {
        family: sum(bool(param.marks) for param in params)
        for family, params in (("taut-tori", TAUT_TORI), ("one-leaf-suspensions", ONE_LEAF_SUSPENSIONS))
    }
    assert marked == FALSE_VERDICTS
    assert (len(TAUT_TORI), len(ONE_LEAF_SUSPENSIONS)) == (72, 54)
