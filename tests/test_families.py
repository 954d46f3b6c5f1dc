"""Families of cases with known answers: "hard to fool" as a count over
families (ROADMAP item 29).

A family draws a fixed number of members from fixed seeds, or holds
fixed members: the paper's standard examples and false verdicts found
by hand.  A member is a model, a field and a grid, with the outcome the
mathematics requires:

- taut tori: ``torus-warped`` and ``flat-kronecker``, and drawn warped
  2-D and 3-D tori, two-leaf tori and bench tori with their basic
  fields, and their images under a gauge rotation of two rows of one
  kind and under torus diffeomorphisms (a shear and an SL(n, Z) map).
  Tautness is a property of the transverse structure (Haefliger, J.
  Differential Geom. 15, 1980), and on a taut foliation no basic field
  has a one-signed, somewhere nonzero div^Q: never a witness class;
- one-leaf suspensions (``t3a``, ``suspension-3`` and
  ``random_admissible_matrix``, n = 2..4, every leaf): the Alvarez
  candidate kappa has div^Q kappa = |kappa|^2 = (ln lambda_leaf)^2 at
  the abstract point, and a homothety E_i -> c E_i multiplies it by c^2:
  ``NonTautWitness`` with c^2 (ln lambda_leaf)^2 to 1e-12 relative;
- models outside the hypotheses, with the zero field or the Alvarez
  candidate: a non-integrable split (E2 = d/dx2 + a sin(2 pi k x1)
  d/dx3 with leaf [1, 2]), transverse rows that vary along the leaves
  (E2 = e^{-f(x1)} d/dx2, leaf [1]) and non-unimodular algebras ([E1,
  E_j] = a_j E_j with sum a_j != 0, which satisfy Jacobi but have no
  compact quotient).  None is a Riemannian foliation: refused;
- seams: a drawn warped torus whose field gains eps x_t along E_t, or
  whose leaf row is times exp(eps x_t), for a transverse x_t; the field
  x2 E2 and the row exp(-x2/2).  The field or the frame jumps across
  x_t = 1 ~ 0: refused;
- perfect algebras: su(3), so(3) and so(3)+so(3) in the orthonormal
  basis of a bi-invariant metric, leaves along a subalgebra, the basis
  turned by drawn orthogonal matrices inside the leaf and the normal
  blocks (or so(3) turned whole by Rz(0.3) Rx(1.1) Rz(2.3), an
  automorphism), c in {1, 1e3}.  kappa^k = sum_a C_ka^a is orthogonal
  to [g, g] = g, so kappa = 0 (the Lie-algebra form of Haefliger's
  "simply connected implies taut"): ``IdenticallyZero``;
- homotheties: the orthogonal frame E1 = c (1 + 0.5 sin 2 pi x2) d/dx1,
  E2 = c d/dx2, and each drawn taut torus with every row times c: a
  homothety multiplies div^Q v by c, so the verdict at c = 1;
- aliases: ``torus-warped`` with s(x2) E2, div^Q = s' = 1 - F_32 (the
  Fejer kernel): refused at 16 points along x2, where the lattice sees
  s' = 1; ``MixedSign`` with min below -1 at 64, which resolve F_32;
- grid-basic: the field sin(2 pi x1) E2, not basic, on a grid whose x1
  points are the zeros of its basic residual: refused;
- dense claims: a flat torus of slope 1/2 claiming dense leaves, which
  are closed: ``volume-check`` refuses it;
- t3a charts: the chart of T^3_A, div^Q kappa = (ln lambda)^2 at every
  point, as on ``t3a``; with a warp its frame jumps across t = 1 ~ 0:
  refused.

Each member runs in-process through ``generators.run_cli``, in text and
in JSON, on a builtin or a written model and field.  Refused means exit
3, an empty stdout and one ``error:`` line; a verdict means exit 0 and
the same class in the text verdict line and the JSON report.  Any other
run (exit 1 or 2, or text and JSON that disagree) fails the member
through ``pytest.fail``, even a strict xfail.

A member that the program gets wrong is a false verdict: a strict xfail
naming its roadmap items (``KNOWN``), so ``-rxX`` lists every false
verdict, and a fix turns it into an unexpected pass, which fails until
its id leaves ``KNOWN``.  ``FALSE_VERDICTS`` counts them per family.
Seeds and sizes were fixed before the first run.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import random
from typing import Callable, NamedTuple

import numpy as np
import pytest

import transdiv as td
from transdiv import expr
from transdiv.catalog import SUSPENSION_3_MATRIX, T3A_MATRIX

from generators import (
    BENCH_TORI, bench_torus_case, linear, pulled_back, random_admissible_matrix, rescaled_rows, rotated_rows,
    run_cli, shear, trig_poly, two_leaf_torus_case, warped_torus_case,
)

#: The outcomes a member can show: refused (exit 3), or a verdict class
#: as the JSON report names it
REFUSED, MIXED, ZERO, WITNESS = "refused", "MixedSign", "IdenticallyZero", "NonTautWitness"
TAUT = {MIXED, ZERO}

#: The class each text verdict line names
VERDICT_LINES = {
    "verdict: IDENTICALLY ZERO (consistent with taut)": ZERO,
    "verdict: MIXED SIGN (consistent with taut)": MIXED,
    "verdict: NON-TAUT WITNESS": WITNESS,
}


class Case(NamedTuple):
    """A member's run and the outcomes it may show.  ``model`` is a
    builtin name or a model document, ``field`` "alvarez" or the field's
    components; ``required`` is a set of outcomes, or a case whose
    outcome is required (a homothety's case at c = 1).  ``closed_form``
    is div^Q's minimum and maximum, and ``holds`` a further check of the
    text and JSON reports."""

    required: set[str] | Case
    model: str | dict
    field: str | list = "alvarez"
    grid: str | None = None
    command: str = "taut-check"
    closed_form: float | None = None
    holds: Callable[[str, dict], bool] | None = None


def shown(directory, case: Case) -> tuple[str, str, dict]:
    """The outcome ``case`` shows in text and in JSON, with the text report
    and the JSON one (volume-check's ``divergence_`` keys unprefixed)."""
    model, field = case.model, case.field
    if isinstance(model, dict):
        model = directory / "model.json"
        model.write_text(json.dumps(case.model))
    if not isinstance(field, str):
        field = directory / "field.json"
        field.write_text(json.dumps({"components": case.field}))
    argv = [case.command, str(model), "--field", str(field), *(["--grid", case.grid] if case.grid else [])]
    (code, text, err), (json_code, out, json_err) = (run_cli(*argv, "--format", form) for form in ("text", "json"))
    one_line = all(len(e.splitlines()) == 1 and e.startswith("error: ") for e in (err, json_err))
    if code == json_code == 3 and text == out == "" and one_line:
        return REFUSED, text, {}
    if code == json_code == 0:
        report = {key.removeprefix("divergence_"): value for key, value in json.loads(out).items()}
        verdicts = [VERDICT_LINES.get(line) for line in text.splitlines() if line.startswith("verdict: ")]
        if verdicts == [report["verdict"]]:
            return report["verdict"], text, report
    ran = f"{' '.join(argv)}: exit {code} in text, {json_code} in JSON"
    pytest.fail(f"{ran}\n{err}{text}{json_err}{out}", pytrace=False)


def drawn_case(required, model: td.FrameModel, split: td.FoliationSplit, field) -> Case:
    """The Case of a drawn model, written with ``model_to_document``, and
    ``field``, "alvarez", its components or a VectorFieldSpec, on
    ``POINTS`` of a chart."""
    if isinstance(field, td.VectorFieldSpec):
        field = [td.to_string(component) for component in field.components]
    grid = str(POINTS[model.dim]) if model.is_chart else None
    return Case(required, td.model_to_document(model, split), field, grid)


# --- fixed members -------------------------------------------------------------------

LAMBDA = (3 + math.sqrt(5)) / 2  # the larger eigenvalue of [[2, 1], [1, 1]]
LOG_LAMBDA = math.log(LAMBDA)

#: s(x2) = -sum_{k<32} (1 - k/32) sin(2 pi k x2) / (pi k), so that
#: s' = 1 - F_32 with F_32 the Fejer kernel: smooth and periodic, with
#: div^Q (s E2) = s' on torus-warped, which is 1 at every point of the
#: 16-point lattice along x2
FEJER = "-(" + " + ".join(f"{1 - k / 32!r}*sin(2*pi*{k}*x2)/(pi*{k})" for k in range(1, 32)) + ")"


def chart(name: str, frame: list[str], leaf: list[int], dense_leaves: bool = False) -> dict:
    dim = math.isqrt(len(frame))
    return {
        "name": name, "kind": "chart", "dim": dim, "leaf_indices": leaf,
        "periods": [1.0] * dim, "frame": frame, "dense_leaves": dense_leaves,
    }


def t3a_chart(warp: str) -> dict:
    """The chart of T^3_A, A = [[2, 1], [1, 1]], on (t, x) = (x1, (x2, x3)):
    E1 = d/dt, E2 = lambda^-t u.d/dx, E3 = lambda^t e^warp w.d/dx, with u
    and w the unit eigenvectors of lambda and 1/lambda and leaf [2];
    lambda^t is written exp(ln(lambda) t).  No gluing is declared, so
    the box is a torus whose frame jumps across t = 1 ~ 0."""
    u = (1 / math.hypot(1, LAMBDA - 2), (LAMBDA - 2) / math.hypot(1, LAMBDA - 2))
    w = (-u[1], u[0])
    shrink, grow = f"exp(-{LOG_LAMBDA!r}*x1)", f"exp({LOG_LAMBDA!r}*x1{warp})"
    frame = ["1", "0", "0"]
    frame += ["0", f"{shrink}*{u[0]!r}", f"{shrink}*{u[1]!r}"]
    frame += ["0", f"{grow}*{w[0]!r}", f"{grow}*{w[1]!r}"]
    return chart("t3a-chart", frame, [2])


def orthogonal_frame(scale: str) -> dict:
    """E1 = scale (1 + 0.5 sin 2 pi x2) d/dx1, E2 = scale d/dx2: orthogonal
    rows, a warped torus at every scale."""
    return chart(f"orthogonal-times-{scale}", [f"{scale}*(1 + 0.5*sin(2*pi*x2))", "0", "0", scale], [1])


AFFINE = {
    "name": "affine", "kind": "constant_structure", "dim": 3, "leaf_indices": [2],
    "structure_constants": [{"i": 1, "j": 2, "k": 2, "value": 1.0}],
}


# --- drawn members -------------------------------------------------------------------

#: Points per axis of the drawn tori's grids
POINTS = {2: 16, 3: 12}
#: Draws of each taut torus, and of the admissible matrices of each size
DRAWS = 3
MATRIX_DRAWS = 2
#: The homotheties of the suspensions, and of the taut tori
SCALES = (1.0, 1e-3, 1e3)
TORUS_SCALES = (1e-6, 1e-3, 1e3, 1e6)
#: The rows that a gauge rotation turns: two transverse rows, or two leaf rows
ROTATED = {"warped-3d": (1, 2), "two-leaf": (0, 1), "bench-warped-3d": (1, 2)}
SL = {2: ((2, 1), (1, 1)), 3: ((1, 1, 0), (0, 1, 1), (1, 1, 1))}
TORI = ("warped-2d", "warped-3d", "two-leaf", *BENCH_TORI)

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


def taut_case(kind: str, draw: int, image: str):
    """The torus ``kind`` of draw ``draw`` and its field, as drawn or as
    ``image`` makes them: "rotated", "shear" or "linear"."""
    rng = random.Random(f"taut-tori:{kind}:{draw}")
    if kind in ("warped-2d", "warped-3d"):
        model, split, field = warped_torus_case(rng, int(kind[-2]))
    else:
        model, split, field = two_leaf_torus_case(rng) if kind == "two-leaf" else bench_torus_case(rng, kind)
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


def taut_member(kind: str, draw: int, image: str) -> Case:
    return drawn_case(TAUT, *taut_case(kind, draw, image))


def homothety_member(kind: str, draw: int, scale: float) -> Case:
    """The torus ``kind`` of draw ``draw`` with every row times ``scale``,
    required to show what it shows at scale 1."""
    model, split, field = taut_case(kind, draw, "")
    base = drawn_case(TAUT, model, split, field)
    scaled = rescaled_rows(model, range(model.dim), expr.Literal(scale))
    return base._replace(required=base, model=td.model_to_document(scaled, split))


def log_squared(matrix, leaf: int, scale: float = 1.0) -> float:
    """c^2 (ln lambda_leaf)^2, lambda_leaf NumPy's ``leaf``-th eigenvalue
    of ``matrix`` in ascending order."""
    eigenvalues = np.sort(np.linalg.eigvals(np.array(matrix, dtype=float)).real)
    return float((scale * np.log(eigenvalues[leaf - 1])) ** 2)


def scaled_suspension(matrix, leaf: int, scale: float) -> Case:
    """The suspension of ``matrix`` with leaves along eigen-direction
    ``leaf``, every structure constant times ``scale``: the frame times
    ``scale``, so the same foliation."""
    document = td.build_suspension(matrix, leaf)
    constants = [{**entry, "value": entry["value"] * scale} for entry in document["structure_constants"]]
    model = {**document, "structure_constants": constants}
    return Case({WITNESS}, model, closed_form=log_squared(matrix, leaf, scale))


def suspension_member(n: int, draw: int, leaf: int, scale: float) -> Case:
    matrix = random_admissible_matrix(random.Random(f"one-leaf-suspensions:{n}:{draw}"), n)
    return scaled_suspension(matrix, leaf, scale)


def outside_member(kind: str, draw: int) -> Case:
    """The model outside the hypotheses of ``kind`` and draw ``draw``,
    with the zero field."""
    rng = random.Random(f"outside-hypotheses:{kind}:{draw}")
    if kind == "non-integrable":
        a, k = round(rng.uniform(0.2, 1.0), 6), rng.randint(1, 3)
        frame = [["1", "0", "0"], ["0", "1", f"{a!r}*sin(2*pi*{k}*x1)"], ["0", "0", "1"]]
        model, split = td.chart_model(kind, (1.0,) * 3, frame), td.foliation_split(3, {0, 1})
    elif kind == "leafwise-rows":
        rows = [["1", "0"], ["0", expr.FunctionCall("exp", expr.neg(trig_poly(rng, 2, coords=(1,))))]]
        model, split = td.chart_model(kind, (1.0, 1.0), rows), td.foliation_split(2, {0})
    else:
        n = int(kind.rsplit("-", 1)[1])
        rates = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(n - 2)]
        total = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), 6)
        rates.insert(0, round(total - sum(rates), 6))
        constants = [(0, j, j, rate) for j, rate in enumerate(rates, start=1)]
        model, split = td.constant_structure_model(kind, n, constants), td.foliation_split(n, {rng.randrange(n)})
    return drawn_case({REFUSED}, model, split, [0] * model.dim)


def seam_member(carrier: str, dim: int, draw: int) -> Case:
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
        field = td.vector_field(components, model)
    else:
        model = rescaled_rows(model, split.leaf, expr.FunctionCall("exp", ramp))
    return drawn_case({REFUSED}, model, split, field)


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


def rotation(axis: int, angle: float) -> np.ndarray:
    """The rotation of R^3 by ``angle`` about coordinate axis ``axis``."""
    turn, (p, q) = np.eye(3), [m for m in range(3) if m != axis]
    turn[[p, p, q, q], [p, q, p, q]] = math.cos(angle), -math.sin(angle), math.sin(angle), math.cos(angle)
    return turn


#: Rz(0.3) Rx(1.1) Rz(2.3), which turns so(3) whole
SO3_TURN = rotation(2, 0.3) @ rotation(0, 1.1) @ rotation(2, 2.3)


def perfect_case(algebra: str, indices: tuple[int, ...], q: np.ndarray, scale: float) -> Case:
    """The perfect ``algebra`` with leaves along the basis vectors
    ``indices``, the basis turned by ``q``, every structure constant
    times ``scale``.  In the turned basis E'_a = sum_i Q_ai E_i, C'_ab^c =
    sum_ijk Q_ai Q_bj Q_ck C_ij^k, summed one index at a time in a fixed
    order."""
    dim, constants = ALGEBRAS[algebra]
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
        {"i": i + 1, "j": j + 1, "k": k + 1, "value": float(table[i, j, k]) * scale}
        for i in range(dim) for j in range(i + 1, dim) for k in range(dim) if table[i, j, k] != 0.0
    ]
    model = {
        "name": algebra, "kind": "constant_structure", "dim": dim, "leaf_indices": [i + 1 for i in indices],
        "structure_constants": entries,
    }
    return Case({ZERO}, model)


def perfect_member(algebra: str, leaf: str, draw: int, scale: float) -> Case:
    """``perfect_case`` with the basis turned by drawn orthogonal matrices
    inside the leaf block and inside the normal block."""
    dim = ALGEBRAS[algebra][0]
    indices = PERFECT_LEAVES[algebra, leaf]
    rng = random.Random(f"perfect-algebras:{algebra}:{leaf}:{draw}")
    q = np.zeros((dim, dim))
    for block in (indices, [i for i in range(dim) if i not in indices]):
        q[np.ix_(block, block)] = orthogonal(rng, len(block))
    return perfect_case(algebra, indices, q, scale)


# --- the table -----------------------------------------------------------------------

#: Known false verdicts: case id -> the roadmap items that own it, with
#: what the program shows today
KNOWN: dict[str, str] = {
    # no gate refuses a model outside the hypotheses yet (item 1); the
    # fixed three show IDENTICALLY ZERO
    **{f"outside-hypotheses/{kind}-{draw}": "1" for kind in OUTSIDE for draw in range(OUTSIDE_DRAWS)},
    "outside-hypotheses/non-integrable-split": "1", "outside-hypotheses/not-bundle-like": "1",
    "outside-hypotheses/affine": "1, 15",
    # nor a frame or field that jumps across a face of the torus; x2-field
    # shows NON-TAUT WITNESS (div^Q v = 1), non-periodic-frame IDENTICALLY ZERO
    **{f"seams/{carrier}-{dim}d-{draw}": "10, 15, 24" for carrier, dim in SEAMS for draw in range(SEAM_DRAWS)},
    "seams/x2-field": "10, 15, 24", "seams/non-periodic-frame": "10, 15, 24",
    # IDENTICALLY ZERO: div^Q = 9.26e-11 falls under the absolute tolerance
    "one-leaf-suspensions/t3a-times-1e-5": "19",
    # jacobi_identity's absolute tolerance (item 19) refuses the rounding
    # of the turned constants times c^2 = 1e6 (residuals 2.3e-10 to
    # 4.6e-9), but so(3) with u(1) leaves turned in blocks has residual 0
    **{
        f"perfect-algebras/{algebra}-{leaf}-{draw}-c1000": "19"
        for algebra, leaf in PERFECT_LEAVES if (algebra, leaf) != ("so3", "u1")
        for draw in range(PERFECT_DRAWS)
    },
    "perfect-algebras/so3-turned-c1000": "19",
    # exit 3, "frame matrix is singular": |det| times c^dim (1.098e-12 on
    # the orthogonal frame) against an absolute tolerance of 1e-10
    "homotheties/orthogonal-frame-c1e-06": "19",
    **{f"homotheties/{kind}-{draw}-c1e-06": "19" for kind in TORI for draw in range(DRAWS)},
    # NON-TAUT WITNESS, min = max = 1, on a taut builtin: the lattice
    # aliases the Fejer kernel
    "aliases/fejer-alias": "15, 24",
    # IDENTICALLY ZERO: the grid sits on the zeros of the basic residual
    "grid-basic/warped-both-not-basic": "24",
    "grid-basic/flat-kronecker-not-basic": "24",
    # "preserved: yes", "characterizes tautness": the leaves of slope 1/2
    # are closed, not dense
    "dense-claims/false-dense-leaves": "8, 23",
    # MIXED SIGN, min -4.51, max 6.36, for a non-taut foliation (Carriere)
    "t3a-charts/warped-t3a-chart": "10, 11, 2",
}

#: Per family, its false verdicts (the strict xfails of KNOWN) and its members
FALSE_VERDICTS = {
    "taut-tori": (0, 74), "one-leaf-suspensions": (1, 57), "outside-hypotheses": (18, 18), "seams": (14, 14),
    "perfect-algebras": (26, 62), "homotheties": (22, 86), "aliases": (1, 2), "grid-basic": (2, 2),
    "dense-claims": (1, 1), "t3a-charts": (1, 2),
}

#: Each family's members: (id, a Case or what builds it)
FAMILIES = {
    "taut-tori": [
        ("torus-warped", Case({MIXED}, "torus-warped", grid="16")),
        ("flat-kronecker", Case({ZERO}, "flat-kronecker", grid="16")),
        *(
            (f"{kind}-{draw}" + (f"-{image}" if image else ""), functools.partial(taut_member, kind, draw, image))
            for kind in TORI
            for draw in range(DRAWS)
            for image in ("", *(("rotated",) if kind in ROTATED else ()), "shear", "linear")
        ),
    ],
    "one-leaf-suspensions": [
        ("t3a", Case({WITNESS}, "t3a", closed_form=log_squared(T3A_MATRIX, 2))),
        ("suspension-3", Case({WITNESS}, "suspension-3", closed_form=log_squared(SUSPENSION_3_MATRIX, 2))),
        ("t3a-times-1e-5", functools.partial(scaled_suspension, T3A_MATRIX, 2, 1e-5)),
        *(
            (f"n{n}-{draw}-leaf{leaf}-c{scale:g}", functools.partial(suspension_member, n, draw, leaf, scale))
            for n in (2, 3, 4)
            for draw in range(MATRIX_DRAWS)
            for leaf in range(1, n + 1)
            for scale in SCALES
        ),
    ],
    "outside-hypotheses": [
        ("non-integrable-split", Case(
            {REFUSED}, chart("non-integrable", ["1", "0", "0", "0", "1", "sin(2*pi*x1)", "0", "0", "1"], [1, 2]),
            grid="16",
        )),
        ("not-bundle-like", Case(
            {REFUSED}, chart("not-bundle-like", ["1", "0", "0", "exp(-0.3*sin(2*pi*x1))"], [1]), grid="16",
        )),
        ("affine", Case({REFUSED}, AFFINE)),
        *(
            (f"{kind}-{draw}", functools.partial(outside_member, kind, draw))
            for kind in OUTSIDE for draw in range(OUTSIDE_DRAWS)
        ),
    ],
    "seams": [
        ("x2-field", Case({REFUSED}, "torus-warped", ["0", "x2"], "64")),
        ("non-periodic-frame", Case({REFUSED}, chart("e-half-x2", ["exp(-0.5*x2)", "0", "0", "1"], [1]), grid="64")),
        *(
            (f"{carrier}-{dim}d-{draw}", functools.partial(seam_member, carrier, dim, draw))
            for carrier, dim in SEAMS for draw in range(SEAM_DRAWS)
        ),
    ],
    "perfect-algebras": [
        *(
            (f"so3-turned-c{scale:g}", functools.partial(perfect_case, "so3", (0,), SO3_TURN, scale))
            for scale in PERFECT_SCALES
        ),
        *(
            (f"{algebra}-{leaf}-{draw}-c{scale:g}", functools.partial(perfect_member, algebra, leaf, draw, scale))
            for algebra, leaf in PERFECT_LEAVES
            for draw in range(PERFECT_DRAWS)
            for scale in PERFECT_SCALES
        ),
    ],
    "homotheties": [
        *((f"orthogonal-frame-c{c}", Case({MIXED}, orthogonal_frame(c), grid="16")) for c in ("1", "1e-06")),
        *(
            (f"{kind}-{draw}-c{scale:g}", functools.partial(homothety_member, kind, draw, scale))
            for kind in TORI for draw in range(DRAWS) for scale in TORUS_SCALES
        ),
    ],
    "aliases": [
        ("fejer-alias", Case({REFUSED}, "torus-warped", ["0", FEJER], "16")),
        # at 64 points along x2 the lattice resolves F_32, and s' takes both signs
        ("fejer-resolved", Case(
            {MIXED}, "torus-warped", ["0", FEJER], "64", holds=lambda text, report: report["min_value"] < -1,
        )),
    ],
    "grid-basic": [
        ("warped-both-not-basic", Case(
            {REFUSED}, chart("warped-both", ["(2 + sin(2*pi*x1))*(2 + cos(2*pi*x2))", "0", "0", "1"], [1]),
            ["0", "sin(2*pi*x1)"], "2,24",
        )),
        ("flat-kronecker-not-basic", Case({REFUSED}, "flat-kronecker", ["0", "sin(2*pi*x1)"], "2,24")),
    ],
    "dense-claims": [
        ("false-dense-leaves", Case(
            {REFUSED}, chart("slope-half", ["2/sqrt(5)", "1/sqrt(5)", "-1/sqrt(5)", "2/sqrt(5)"], [1], True),
            ["0", "1"], "8", command="volume-check",
        )),
    ],
    "t3a-charts": [
        # div^Q kappa = (ln lambda)^2 at every point, as on t3a
        ("t3a-chart", Case(
            {WITNESS}, t3a_chart(""), grid="64,4,4", closed_form=LOG_LAMBDA**2,
            holds=lambda text, report: "div^Q v: min 0.926259282309 at" in text,
        )),
        ("warped-t3a-chart", Case({REFUSED}, t3a_chart(" + 0.9*sin(2*pi*x1)"), grid="64,4,4")),
    ],
}


def marked(full: str) -> list:
    if full not in KNOWN:
        return []
    label = "items" if "," in KNOWN[full] else "item"
    return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {label} {KNOWN[full]}")]


MEMBERS = [
    pytest.param(member, id=f"{family}/{case_id}", marks=marked(f"{family}/{case_id}"))
    for family, members in FAMILIES.items()
    for case_id, member in members
]


@pytest.mark.parametrize("member", MEMBERS)
def test_a_member_shows_its_known_answer(tmp_path, member):
    case = member if isinstance(member, Case) else member()
    required = case.required
    if isinstance(required, Case):
        required = {shown(tmp_path, required)[0]}
    outcome, text, report = shown(tmp_path, case)
    assert outcome in required, f"{outcome}, not {' or '.join(sorted(required))}"
    if case.closed_form is not None:
        for value in (report["min_value"], report["max_value"]):
            assert abs(value - case.closed_form) <= 1e-12 * case.closed_form
    if case.holds is not None:
        assert case.holds(text, report)


def test_false_verdicts_are_counted_per_family():
    assert set(KNOWN) <= {param.id for param in MEMBERS}
    marked = collections.defaultdict(list)
    for param in MEMBERS:
        marked[param.id.split("/")[0]].append(bool(param.marks))
    assert {family: (sum(marks), len(marks)) for family, marks in marked.items()} == FALSE_VERDICTS
