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
  c in {1e-3, 1e3} with c^2 (ln lambda_leaf)^2;
- models outside the hypotheses, each with the zero field: a
  non-integrable split (E1 = d/dx1, E2 = d/dx2 + a sin(2 pi k x1) d/dx3,
  E3 = d/dx3, leaf [1, 2], where [E1, E2] leaves the leaf span),
  leafwise-varying transverse rows (E1 = d/dx1, E2 = e^{-f(x1)} d/dx2,
  leaf [1], f a drawn ``trig_poly``: the transverse metric varies along
  the leaves) and non-unimodular constant-structure algebras ([E1, E_j]
  = a_j E_j for j = 2..n with sum a_j != 0, which satisfy Jacobi: ad E1
  is diagonal and the E_j commute; no such group has a compact
  quotient).  None is a Riemannian foliation with the given metric, so
  ``classify_divergence`` must refuse each with ModelError;
- seams: ``warped_torus_case`` in 2-D and 3-D, with its drawn basic
  field plus eps x_t in the component along E_t, or with the leaf row
  times exp(eps x_t), for a drawn transverse coordinate x_t and |eps|
  drawn from [0.05, 1] with either sign.  The field, or the frame, then
  jumps across the face x_t = 1 ~ 0, so it is not smooth on the closed
  torus, and ``classify_divergence`` must refuse each with ModelError;
- perfect algebras: su(3) (the Gell-Mann constants f_abc), so(3) and
  so(3)+so(3), each in the orthonormal basis of a bi-invariant metric,
  so C_ij^k is totally antisymmetric; leaves along a subalgebra (su(2),
  so(3), a Cartan subalgebra and a u(1) in su(3), u(1)+u(1) in
  so(3)+so(3), u(1) in so(3)), with the basis turned by drawn orthogonal
  matrices inside the leaf block and inside the normal block, which
  keeps the foliation Riemannian with totally geodesic leaves; and the
  homothety c in {1, 1e3}.  The Alvarez candidate kappa^k = sum_a
  C_ka^a is orthogonal to [g, g] = g, so kappa = 0 and the foliation is
  taut (the Lie-algebra form of Haefliger's "simply connected implies
  taut"): the verdict must be ``IdenticallyZero``.

A case that the program gets wrong is a false verdict.  It is a strict
xfail naming the roadmap items that own it, so ``-rxX`` lists every
false verdict, and the fix that lands turns it into an unexpected pass;
``FALSE_VERDICTS`` counts them per family.  Seeds and sizes were fixed
before the first run.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.tautness import TautnessClass

from generators import (
    BENCH_TORI, bench_torus_case, linear, pulled_back, random_admissible_matrix, rescaled_rows, rotated_rows,
    shear, trig_poly, two_leaf_torus_case, warped_torus_case,
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

#: The kinds of model outside the hypotheses, and the draws of each
OUTSIDE = ("non-integrable", "leafwise-rows", "non-unimodular-2", "non-unimodular-3", "non-unimodular-4")
OUTSIDE_DRAWS = 3

#: The kinds of seam, each what carries it and the torus's dimension,
#: and the draws of each
SEAMS = (("field", 2), ("field", 3), ("frame", 2), ("frame", 3))
SEAM_DRAWS = 3

#: The perfect algebras, as their totally antisymmetric C_ij^k, each
#: given once with i < j < k (0-based), and the leaves along a
#: subalgebra of each, as index sets of that basis
SU3 = [
    (0, 1, 2, 1.0), (0, 3, 6, 0.5), (0, 4, 5, -0.5), (1, 3, 5, 0.5), (1, 4, 6, 0.5),
    (2, 3, 4, 0.5), (2, 5, 6, -0.5), (3, 4, 7, math.sqrt(3) / 2), (5, 6, 7, math.sqrt(3) / 2),
]
SO3 = [(0, 1, 2, 1.0)]
ALGEBRAS = {"su3": (8, SU3), "so3": (3, SO3), "so3+so3": (6, SO3 + [(i + 3, j + 3, k + 3, c) for i, j, k, c in SO3])}
PERFECT_LEAVES = {
    ("su3", "su2"): (0, 1, 2), ("su3", "so3"): (1, 4, 6), ("su3", "cartan"): (2, 7), ("su3", "u1"): (7,),
    ("so3+so3", "u1+u1"): (2, 5), ("so3", "u1"): (2,),
}
PERFECT_DRAWS = 5
PERFECT_SCALES = (1.0, 1e3)

#: False verdicts per family: the strict xfails below
FALSE_VERDICTS = {
    "taut-tori": 0, "one-leaf-suspensions": 0, "outside-hypotheses": 15, "seams": 12, "perfect-algebras": 25,
}

#: Known false verdicts: case id -> the roadmap items that own it.  No
#: gate refuses a model outside the hypotheses yet (item 1), nor a
#: frame or field that jumps across a face of the torus (items 10, 15
#: and 24)
KNOWN: dict[str, str] = {
    **{f"outside-hypotheses/{kind}-{draw}": "1" for kind in OUTSIDE for draw in range(OUTSIDE_DRAWS)},
    **{f"seams/{carrier}-{dim}d-{draw}": "10, 15, 24" for carrier, dim in SEAMS for draw in range(SEAM_DRAWS)},
    # jacobi_identity's absolute tolerance (item 19) refuses the rounding
    # of the turned constants times c^2 = 1e6 (residuals 2.3e-10 to
    # 4.6e-9); the residual of so(3) with u(1) leaves is 0 at both scales
    **{
        f"perfect-algebras/{algebra}-{leaf}-{draw}-c1000": "19"
        for algebra, leaf in PERFECT_LEAVES if (algebra, leaf) != ("so3", "u1")
        for draw in range(PERFECT_DRAWS)
    },
}


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


def outside_case(kind: str, draw: int) -> tuple[td.FrameModel, td.FoliationSplit]:
    """The model outside the hypotheses of ``kind`` and draw ``draw``."""
    rng = random.Random(f"outside-hypotheses:{kind}:{draw}")
    if kind == "non-integrable":
        a, k = round(rng.uniform(0.2, 1.0), 6), rng.randint(1, 3)
        frame = [["1", "0", "0"], ["0", "1", f"{a!r}*sin(2*pi*{k}*x1)"], ["0", "0", "1"]]
        return td.chart_model(kind, (1.0,) * 3, frame), td.foliation_split(3, {0, 1})
    if kind == "leafwise-rows":
        rows = [["1", "0"], ["0", expr.FunctionCall("exp", expr.neg(trig_poly(rng, 2, coords=(1,))))]]
        return td.chart_model(kind, (1.0, 1.0), rows), td.foliation_split(2, {0})
    n = int(kind.rsplit("-", 1)[1])
    rates = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(n - 2)]
    total = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), 6)
    rates.insert(0, round(total - sum(rates), 6))
    constants = [(0, j, j, rate) for j, rate in enumerate(rates, start=1)]
    return td.constant_structure_model(kind, n, constants), td.foliation_split(n, {rng.randrange(n)})


def refusal_outcome(model: td.FrameModel, split: td.FoliationSplit, field: td.VectorFieldSpec) -> str:
    """What ``classify_divergence`` makes of the case: "refused" if it
    raises ModelError, else its verdict."""
    grid = td.sample_grid(model, POINTS[model.dim] if model.is_chart else ())
    try:
        verdict = td.classify_divergence(model, split, field, grid)
    except td.ModelError:
        return "refused"
    return verdict.classification.value


def gate_outcome(kind: str, draw: int) -> str:
    """``refusal_outcome`` of the case with the zero field."""
    model, split = outside_case(kind, draw)
    return refusal_outcome(model, split, td.vector_field(["0"] * model.dim, model))


def seam_case(carrier: str, dim: int, draw: int):
    """The warped ``dim``-torus of draw ``draw`` with a seam along a drawn
    transverse coordinate x_t: eps x_t added to the field's E_t component
    (``carrier`` "field") or the leaf row times exp(eps x_t) ("frame")."""
    rng = random.Random(f"seams:{carrier}-{dim}d:{draw}")
    model, split, field = warped_torus_case(rng, dim)
    t = rng.randint(2, dim)
    epsilon = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0), 6)
    ramp = expr.mul(expr.Literal(epsilon), expr.Variable(f"x{t}"))
    if carrier == "field":
        components = list(field.components)
        components[t - 1] = expr.add(components[t - 1], ramp)
        return model, split, td.vector_field(components, model)
    return rescaled_rows(model, split.leaf, expr.FunctionCall("exp", ramp)), split, field


def orthogonal(rng: random.Random, size: int) -> list[list[float]]:
    """A drawn orthogonal matrix: Gram-Schmidt on Gaussian rows, in
    Python floats, so the same bits on every machine."""
    rows: list[list[float]] = []
    while len(rows) < size:
        row = [rng.gauss(0.0, 1.0) for _ in range(size)]
        for done in rows:
            dot = sum(x * y for x, y in zip(row, done))
            row = [x - dot * y for x, y in zip(row, done)]
        norm = math.sqrt(sum(x * x for x in row))
        if norm > 1e-3:
            rows.append([x / norm for x in row])
    return rows


def perfect_case(algebra: str, leaf: str, draw: int, scale: float):
    """The perfect ``algebra`` with leaves along its subalgebra ``leaf``,
    the basis turned in each block by the orthogonal matrices of draw
    ``draw``, every structure constant times ``scale``.  In the turned
    basis E'_a = sum_i Q_ai E_i, C'_ab^c = sum_ijk Q_ai Q_bj Q_ck C_ij^k,
    summed one index at a time in a fixed order."""
    dim, constants = ALGEBRAS[algebra]
    indices = PERFECT_LEAVES[algebra, leaf]
    rng = random.Random(f"perfect-algebras:{algebra}:{leaf}:{draw}")
    q = np.zeros((dim, dim))
    for block in (indices, [i for i in range(dim) if i not in indices]):
        q[np.ix_(block, block)] = orthogonal(rng, len(block))
    table = np.zeros((dim, dim, dim))
    for i, j, k, value in constants:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            table[a, b, c], table[b, a, c] = value, -value

    def turned(axis: int, values: np.ndarray) -> np.ndarray:
        moved = np.moveaxis(values, axis, 0)
        terms = (np.multiply.outer(q[:, i], moved[i]) for i in range(dim))
        return np.moveaxis(functools.reduce(np.add, terms), 0, axis)

    table = turned(2, turned(1, turned(0, table)))
    entries = [
        (i, j, k, float(table[i, j, k]) * scale)
        for i in range(dim) for j in range(i + 1, dim) for k in range(dim) if table[i, j, k] != 0.0
    ]
    model = td.constant_structure_model(f"{algebra}/{leaf}", dim, entries)
    return model, td.foliation_split(dim, set(indices))


def perfect_outcome(algebra: str, leaf: str, draw: int, scale: float) -> str:
    """``refusal_outcome`` of the case with its Alvarez candidate."""
    model, split = perfect_case(algebra, leaf, draw, scale)
    return refusal_outcome(model, split, td.alvarez_candidate(model, split))


def members(family: str, cases):
    """The parameters of ``family``'s cases, each (id, arguments), the
    known false verdicts marked as strict xfails with their items."""
    params = []
    for case_id, arguments in cases:
        full = f"{family}/{case_id}"
        marks = []
        if full in KNOWN:
            label = "items" if "," in KNOWN[full] else "item"
            reason = f"ROADMAP {label} {KNOWN[full]}"
            marks.append(pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))
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


OUTSIDE_HYPOTHESES = members("outside-hypotheses", [
    (f"{kind}-{draw}", (kind, draw)) for kind in OUTSIDE for draw in range(OUTSIDE_DRAWS)
])

SEAM_CASES = members("seams", [
    (f"{carrier}-{dim}d-{draw}", (carrier, dim, draw)) for carrier, dim in SEAMS for draw in range(SEAM_DRAWS)
])


PERFECT_ALGEBRAS = members("perfect-algebras", [
    (f"{algebra}-{leaf}-{draw}-c{scale:g}", (algebra, leaf, draw, scale))
    for algebra, leaf in PERFECT_LEAVES
    for draw in range(PERFECT_DRAWS)
    for scale in PERFECT_SCALES
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


@pytest.mark.parametrize("kind, draw", OUTSIDE_HYPOTHESES)
def test_a_model_outside_the_hypotheses_is_refused(kind, draw):
    assert gate_outcome(kind, draw) == "refused"


@pytest.mark.parametrize("carrier, dim, draw", SEAM_CASES)
def test_a_seam_is_refused(carrier, dim, draw):
    assert refusal_outcome(*seam_case(carrier, dim, draw)) == "refused"


@pytest.mark.parametrize("algebra, leaf, draw, scale", PERFECT_ALGEBRAS)
def test_a_perfect_algebra_is_taut(algebra, leaf, draw, scale):
    assert perfect_outcome(algebra, leaf, draw, scale) == TautnessClass.IDENTICALLY_ZERO.value


def test_false_verdicts_are_counted_per_family():
    families = {
        "taut-tori": TAUT_TORI, "one-leaf-suspensions": ONE_LEAF_SUSPENSIONS,
        "outside-hypotheses": OUTSIDE_HYPOTHESES, "seams": SEAM_CASES, "perfect-algebras": PERFECT_ALGEBRAS,
    }
    marked = {family: sum(bool(param.marks) for param in params) for family, params in families.items()}
    assert marked == FALSE_VERDICTS
    assert [len(params) for params in families.values()] == [72, 54, 15, 12, 60]
