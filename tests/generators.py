"""Seeded random models, fields and expressions for the property suites.

Constant-structure models are built from known Lie algebras (abelian,
Heisenberg, so(3), suspension bracket tables) conjugated by random
orthogonal matrices, so the Jacobi identity genuinely holds.  Chart
models use frames of the form rotation(theta) * diag(exp g_i), or dense
diagonally dominant frames (trigonometric, or built with ln, sqrt,
powers and quotients of random expressions), all invertible everywhere
by construction.  Warped tori (``warped_torus_case``), a warped
3-torus with two leaf rows (``two_leaf_torus_case``) and the tori of
the chart benchmarks (``bench_torus_case``) come with a basic field;
``rotated_rows`` turns two frame rows and a field's components alike,
keeping the metric, and ``rescaled_rows`` and ``shifted_normals``
change the frame but not its transverse structure; ``pulled_back``
pulls a chart and a field back by a torus diffeomorphism (``shear``,
``linear``), by way of ``substituted``.
``at`` reads one point of a sweep, ``point_env`` binds one point for
the scalar evaluator, ``kept`` is the fold that keeps every value of a
read and ``swept_parts`` a sweep with it, ``pointwise_rows`` reads many
points one by one, ``CountingEnv`` counts the variable reads of an
evaluation, ``block_runs`` records every FrameData build with the plan
steps (``plan_steps``) it runs, and ``run_cli`` runs the command line
in this process; ``UNREADABLE`` holds files that no JSON reader reads.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import transdiv as td
from transdiv import expr
from transdiv.cli import main


def trig_poly(
    rng: random.Random, dim: int, amplitude: float = 0.4, coords: tuple[int, ...] | None = None
) -> expr.Expr:
    """c0 + sum of small sin/cos(2 pi x_j) terms: smooth and periodic,
    in any of x1..x_dim or, if given, in x_j for j in ``coords`` only."""
    node: expr.Expr = expr.Literal(round(rng.uniform(-1.0, 1.0), 6))
    for _ in range(rng.randint(1, 2)):
        coord = f"x{rng.choice(coords) if coords else rng.randint(1, dim)}"
        coeff = round(rng.uniform(-amplitude, amplitude), 6)
        fn = rng.choice(("sin", "cos"))
        arg = expr.mul(expr.mul(expr.Literal(2.0), expr.Constant("pi")), expr.Variable(coord))
        node = expr.add(node, expr.mul(expr.Literal(coeff), expr.FunctionCall(fn, arg)))
    return node


def random_chart_case(rng: random.Random) -> tuple[td.FrameModel, td.FoliationSplit]:
    dim = rng.choice((2, 2, 3))
    theta = trig_poly(rng, dim)
    gs = [trig_poly(rng, dim) for _ in range(dim)]
    exps = [expr.FunctionCall("exp", g) for g in gs]
    cos_t = expr.FunctionCall("cos", theta)
    sin_t = expr.FunctionCall("sin", theta)
    rows: list[list[expr.Expr]] = [
        [expr.ZERO] * dim for _ in range(dim)
    ]
    # rotate the (x1, x2) plane, stretch every axis: det = exp(sum g) != 0
    rows[0][0] = expr.mul(cos_t, exps[0])
    rows[0][1] = expr.neg(expr.mul(sin_t, exps[1]))
    rows[1][0] = expr.mul(sin_t, exps[0])
    rows[1][1] = expr.mul(cos_t, exps[1])
    for m in range(2, dim):
        rows[m][m] = exps[m]
    model = td.chart_model(
        name=f"random-chart-{dim}d",
        periods=(1.0,) * dim,
        frame=rows,
        dense_leaves=False,
    )
    split = td.foliation_split(dim, {0})
    return model, split


def dense_chart_case(rng: random.Random, dim: int) -> tuple[td.FrameModel, td.FoliationSplit]:
    """A frame with every entry a trigonometric expression: 2 on the
    diagonal plus 0.1 * trig_poly (below 0.3 in size) everywhere, so for
    dim <= 6 each row is strictly diagonally dominant and A invertible."""
    rows = [
        [
            expr.add(
                expr.Literal(2.0 if i == m else 0.0),
                expr.mul(expr.Literal(0.1), trig_poly(rng, dim, amplitude=1.0)),
            )
            for m in range(dim)
        ]
        for i in range(dim)
    ]
    model = td.chart_model(f"dense-chart-{dim}d", (1.0,) * dim, rows)
    return model, td.foliation_split(dim, set(range(rng.randint(1, dim - 1))))


def bounded_term(rng: random.Random, dim: int, kind: str) -> expr.Expr:
    """A function of a ``random_expression`` u by way of ``kind``: sin u,
    ln(2 + cos u), sqrt(2 + sin u), (1.5 + 0.5 cos u)^p with p in
    {-1.5, 0.5, 1.5}, or sin u / (2 + cos w); each lies in [-1, 2.9].
    u and w are drawn one operation deep (|u| <= 64), so sin u and cos u
    lose no more than 64 units in the last place of u to its rounding."""
    names = tuple(f"x{m + 1}" for m in range(dim))
    u = random_expression(rng, names, depth=2)
    if kind == "sin":
        return expr.FunctionCall("sin", u)
    if kind == "ln":
        return expr.FunctionCall("ln", expr.add(expr.TWO, expr.FunctionCall("cos", u)))
    if kind == "sqrt":
        return expr.FunctionCall("sqrt", expr.add(expr.TWO, expr.FunctionCall("sin", u)))
    if kind == "power":
        base = expr.add(expr.Literal(1.5), expr.mul(expr.Literal(0.5), expr.FunctionCall("cos", u)))
        return expr.BinaryOp("^", base, expr.Literal(rng.choice((-1.5, 0.5, 1.5))))
    denominator = expr.add(expr.TWO, expr.FunctionCall("cos", random_expression(rng, names, depth=2)))
    return expr.BinaryOp("/", expr.FunctionCall("sin", u), denominator)


TERM_KINDS = ("ln", "sqrt", "power", "quotient", "sin")


def transcendental_chart_case(
    rng: random.Random, dim: int
) -> tuple[td.FrameModel, td.FoliationSplit]:
    """A dense frame with entries 2 on the diagonal plus 0.2 times a
    ``bounded_term`` (below 0.6 in size), so for dim <= 3 each row is
    strictly diagonally dominant and A invertible.  The entries take the
    kinds of TERM_KINDS in a shuffled order, so every frame has an ln, a
    sqrt, a power and a quotient."""
    order = list(range(dim * dim))
    rng.shuffle(order)
    rows = [
        [
            expr.add(
                expr.Literal(2.0 if i == m else 0.0),
                expr.mul(
                    expr.Literal(0.2),
                    bounded_term(rng, dim, TERM_KINDS[order[i * dim + m] % len(TERM_KINDS)]),
                ),
            )
            for m in range(dim)
        ]
        for i in range(dim)
    ]
    model = td.chart_model(f"transcendental-chart-{dim}d", (1.0,) * dim, rows)
    return model, td.foliation_split(dim, set(range(rng.randint(1, dim - 1))))


def warped_torus_case(
    rng: random.Random, dim: int
) -> tuple[td.FrameModel, td.FoliationSplit, td.VectorFieldSpec]:
    """A warped torus with leaves along x1 and a basic field: E1 =
    exp(-f) d/dx1 with f a trig_poly of every coordinate, E_j =
    exp(-g_j) d/dx_j with g_j one of x_j+1..x_dim (E_dim = d/dx_dim), so
    the transverse metric does not depend on x1 and the metric is
    bundle-like; the field has transverse components in x2..x_dim only,
    so it is basic, and a zero leaf component."""
    transverse = tuple(range(2, dim + 1))
    rows = [[expr.ZERO] * dim for _ in range(dim)]
    rows[0][0] = expr.FunctionCall("exp", expr.neg(trig_poly(rng, dim)))
    for j in range(1, dim - 1):
        rows[j][j] = expr.FunctionCall("exp", expr.neg(trig_poly(rng, dim, coords=transverse[j:])))
    rows[dim - 1][dim - 1] = expr.ONE
    model = td.chart_model(f"warped-{dim}d", (1.0,) * dim, rows)
    field = td.vector_field([expr.ZERO, *(trig_poly(rng, dim, coords=transverse) for _ in transverse)], model)
    return model, td.foliation_split(dim, {0}), field


def two_leaf_torus_case(rng: random.Random) -> tuple[td.FrameModel, td.FoliationSplit, td.VectorFieldSpec]:
    """A warped 3-torus of codimension 1 with two leaf rows, leaves [1, 2]:
    E_a = exp(-f_a) d/dx_a for a = 1, 2, f_a a trig_poly of every
    coordinate, and E3 = d/dx3.  A trig_poly is a sum of terms in one
    coordinate each, so d f_a / dx3 depends on x3 alone: the mean
    curvature -(d f1/dx3 + d f2/dx3) E3 is basic, and so is the drawn
    field h(x3) E3, with zero leaf components."""
    rows = [[expr.ZERO] * 3 for _ in range(3)]
    for a in (0, 1):
        rows[a][a] = expr.FunctionCall("exp", expr.neg(trig_poly(rng, 3)))
    rows[2][2] = expr.ONE
    model = td.chart_model("two-leaf-3d", (1.0,) * 3, rows)
    field = td.vector_field([expr.ZERO, expr.ZERO, trig_poly(rng, 3, coords=(3,))], model)
    return model, td.foliation_split(3, {0, 1}), field


#: The tori the chart benchmarks draw, and warped-both, a periodic chart
#: whose leaf row varies along both coordinates
BENCH_TORI = ("bench-warped-2d", "bench-warped-3d", "bench-kronecker", "warped-both")


def _bench_trig(rng: random.Random, var: str, offset: bool = False) -> str:
    """c0 + a sin(2 pi k var) + b cos(2 pi m var) as the chart benchmarks
    draw their warps and fields: k and m 2 or 3, a and |b| in [0.05,
    0.3], c0 in [0.1, 1] with ``offset`` and 0 without."""
    c0 = round(rng.uniform(0.1, 1.0), 6) if offset else 0.0
    a, k = round(rng.uniform(0.05, 0.3), 6), rng.randint(2, 3)
    b, m = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3), 6), rng.randint(2, 3)
    return f"{c0!r} + {a!r}*sin(2*pi*{k}*{var}) + {b!r}*cos(2*pi*{m}*{var})"


def bench_torus_case(
    rng: random.Random, kind: str
) -> tuple[td.FrameModel, td.FoliationSplit, td.VectorFieldSpec]:
    """A torus of ``BENCH_TORI`` with leaves along E1 and a basic field
    with a zero leaf component: the warped 2-torus exp(-f(x2)) d/dx1,
    d/dx2 with s(x2) E2; the warped 3-torus diag(exp(-f(x3)),
    exp(-h(x3)), 1) with transverse components in x2 and x3; the flat
    Kronecker torus at a drawn angle, whose dense leaves leave only a
    constant c E2; warped-both, E1 = (2 + sin 2 pi x1)(2 + cos 2 pi x2)
    d/dx1, with s(x2) E2."""
    if kind == "bench-warped-2d":
        frame = [[f"exp(-({_bench_trig(rng, 'x2')}))", "0"], ["0", "1"]]
        field = ["0", _bench_trig(rng, "x2", offset=True)]
    elif kind == "bench-warped-3d":
        f, h = (f"exp(-({_bench_trig(rng, 'x3')}))" for _ in range(2))
        frame = [[f, "0", "0"], ["0", h, "0"], ["0", "0", "1"]]
        field = ["0", *(trig_poly(rng, 3, coords=(2, 3)) for _ in range(2))]
    elif kind == "bench-kronecker":
        angle = round(rng.uniform(0.1, 1.4), 9)
        c, s = f"cos({angle!r})", f"sin({angle!r})"
        frame = [[c, s], [f"-{s}", c]]
        field = ["0", repr(round(rng.uniform(0.5, 2.0), 6))]
    else:
        assert kind == "warped-both"
        frame = [["(2 + sin(2*pi*x1))*(2 + cos(2*pi*x2))", "0"], ["0", "1"]]
        field = ["0", _bench_trig(rng, "x2", offset=True)]
    model = td.chart_model(kind, (1.0,) * len(frame), frame, dense_leaves=kind == "bench-kronecker")
    return model, td.foliation_split(len(frame), {0}), td.vector_field(field, model)


def rotated_rows(
    model: td.FrameModel, field: td.VectorFieldSpec, rows: tuple[int, int], theta: expr.Expr
) -> tuple[td.FrameModel, td.VectorFieldSpec]:
    """``model`` with its frame rows j, k = ``rows`` turned by the angle
    ``theta``, E_j -> cos theta E_j + sin theta E_k and E_k -> -sin theta
    E_j + cos theta E_k, and ``field`` with its components v^j, v^k
    turned the same way, so that it is the same vector field.  A gauge
    rotation of two transverse rows (or two leaf rows) keeps the metric,
    the foliation and its splitting, so every intrinsic quantity stays."""
    cos, sin = expr.FunctionCall("cos", theta), expr.FunctionCall("sin", theta)

    def turned(x: expr.Expr, y: expr.Expr) -> tuple[expr.Expr, expr.Expr]:
        return expr.add(expr.mul(cos, x), expr.mul(sin, y)), expr.sub(expr.mul(cos, y), expr.mul(sin, x))

    j, k = rows
    frame, components = [list(row) for row in model.frame], list(field.components)
    frame[j], frame[k] = map(list, zip(*map(turned, model.frame[j], model.frame[k])))
    components[j], components[k] = turned(components[j], components[k])
    rotated = td.chart_model(f"{model.name}-rotated", model.periods, frame, dense_leaves=model.dense_leaves)
    return rotated, td.vector_field(components, rotated)


def rescaled_rows(model: td.FrameModel, rows, phi: expr.Expr) -> td.FrameModel:
    """``model`` with each frame row i in ``rows`` scaled, E_i -> phi E_i.
    Scaling the leaf rows by a positive phi keeps the foliation, its
    transverse metric and bundle-likeness, and changes only the metric
    along the leaves (Haefliger, J. Differential Geom. 15, 1980: tautness
    is a property of the transverse structure); scaling a transverse row
    changes the transverse metric."""
    frame = [
        [expr.mul(phi, entry) if i in rows else entry for entry in row] for i, row in enumerate(model.frame)
    ]
    return td.chart_model(f"{model.name}-rescaled", model.periods, frame)


def shifted_normals(model: td.FrameModel, split: td.FoliationSplit, shifts) -> td.FrameModel:
    """``model`` with its normal bundle shifted, E_j -> E_j + sum_a
    c_j^a E_a for transverse j and leaf a, c_j^a = ``shifts[j, a]``: each
    E_j keeps its class modulo the leaves, so the foliation, its
    transverse metric and bundle-likeness stay."""
    frame = [list(row) for row in model.frame]
    for j in split.transverse_ordered:
        for a in split.leaf_ordered:
            shift = shifts[j, a]
            frame[j] = [expr.add(entry, expr.mul(shift, leaf)) for entry, leaf in zip(frame[j], model.frame[a])]
    return td.chart_model(f"{model.name}-shifted", model.periods, frame)


def substituted(node: expr.Expr, images: dict) -> expr.Expr:
    """``node`` with each variable named in ``images`` replaced by its
    image, an expression, all at once; a subtree shared in ``node`` is
    shared in the result."""
    done: dict[int, expr.Expr] = {}

    def walk(node: expr.Expr) -> expr.Expr:
        if id(node) not in done:
            kind = type(node)
            if kind is expr.Variable:
                done[id(node)] = images.get(node.name, node)
            elif kind is expr.BinaryOp:
                done[id(node)] = expr.BinaryOp(node.op, walk(node.left), walk(node.right))
            elif kind is expr.FunctionCall:
                done[id(node)] = expr.FunctionCall(node.name, walk(node.argument))
            elif kind is expr.Negate:
                done[id(node)] = expr.Negate(walk(node.operand))
            else:
                done[id(node)] = node
        return done[id(node)]

    return walk(node)


@dataclass(frozen=True)
class TorusMap:
    """A diffeomorphism x = Psi(y) of the unit n-torus: the coordinate
    expressions of x in terms of y (named x1..xn, the coordinates of the
    chart pulled back), those of Psi^-1, the entries of D Psi^-1 at y, and
    ``at``, Psi on a point of Python floats."""

    name: str
    forward: tuple[expr.Expr, ...]
    inverse: tuple[expr.Expr, ...]
    inverse_jacobian: tuple[tuple[expr.Expr, ...], ...]
    at: Callable[[tuple[float, ...]], tuple[float, ...]]


def shear(dim: int, m: int, k: int, epsilon: float) -> TorusMap:
    """x_m = y_m + epsilon sin(2 pi y_k), k != m (0-based), the other
    coordinates kept: D Psi = I + epsilon s'(y_k) e_m e_k^T, whose inverse
    is I - epsilon s'(y_k) e_m e_k^T, s' = 2 pi cos(2 pi y_k), and
    Psi^-1 is y_m = x_m - epsilon sin(2 pi x_k)."""
    assert k != m
    names = [expr.Variable(f"x{j + 1}") for j in range(dim)]
    pi = expr.Constant("pi")
    angle = expr.mul(expr.mul(expr.TWO, pi), names[k])
    term = expr.mul(expr.Literal(epsilon), expr.FunctionCall("sin", angle))
    forward, inverse = list(names), list(names)
    forward[m], inverse[m] = expr.add(names[m], term), expr.sub(names[m], term)
    jacobian = [[expr.ONE if p == q else expr.ZERO for q in range(dim)] for p in range(dim)]
    jacobian[m][k] = expr.mul(expr.mul(expr.Literal(-2.0 * epsilon), pi), expr.FunctionCall("cos", angle))

    def at(point):
        return tuple(y + epsilon * math.sin(2 * math.pi * point[k]) if j == m else y for j, y in enumerate(point))

    return TorusMap(
        f"shear x{m + 1} += {epsilon!r} sin(2 pi x{k + 1})", tuple(forward), tuple(inverse),
        tuple(map(tuple, jacobian)), at,
    )


def linear(matrix) -> TorusMap:
    """x = M y for M in SL(n, Z): D Psi^-1 = M^-1, an integer matrix."""
    dim = len(matrix)
    inverse_matrix = np.rint(np.linalg.inv(np.array(matrix, dtype=float))).astype(int)
    assert round(np.linalg.det(np.array(matrix, dtype=float))) == 1
    assert (np.array(matrix) @ inverse_matrix == np.eye(dim, dtype=int)).all()

    def combination(row) -> expr.Expr:
        total: expr.Expr = expr.ZERO
        for j, c in enumerate(row):
            total = expr.add(total, expr.mul(expr.Literal(float(c)), expr.Variable(f"x{j + 1}")))
        return total

    def at(point):
        return tuple(sum(c * y for c, y in zip(row, point)) for row in matrix)

    constant = tuple(tuple(expr.Literal(float(c)) for c in row) for row in inverse_matrix.tolist())
    return TorusMap(
        f"SL(n, Z) {matrix}", tuple(map(combination, matrix)), tuple(map(combination, inverse_matrix.tolist())),
        constant, at,
    )


def pulled_back(
    model: td.FrameModel, field: td.VectorFieldSpec, images, inverse_jacobian
) -> tuple[td.FrameModel, td.VectorFieldSpec]:
    """``model`` and ``field`` pulled back by a torus map whose coordinate
    expressions are ``images`` (x_m in terms of y) and whose D Psi^-1 at y
    is ``inverse_jacobian``: each frame row becomes D Psi^-1 a_i(Psi(y))
    and each field component v^k(Psi(y)).  Psi is then an isometry of the
    two foliated tori, so every intrinsic quantity at y is the model's at
    Psi(y).  A ``TorusMap`` gives ``forward`` and ``inverse_jacobian``;
    the mutants of the tests pass ``inverse`` or the identity instead."""
    images = dict(zip(model.coordinate_names(), images))
    moved = [[substituted(entry, images) for entry in row] for row in model.frame]
    frame = [
        [
            functools.reduce(expr.add, (expr.mul(d, a) for d, a in zip(inverse_jacobian[p], row)), expr.ZERO)
            for p in range(model.dim)
        ]
        for row in moved
    ]
    other = td.chart_model(f"{model.name}-pulled-back", model.periods, frame, dense_leaves=model.dense_leaves)
    return other, td.vector_field([substituted(c, images) for c in field.components], other)


_BASE_ALGEBRAS = ("abelian", "heisenberg", "so3", "suspension")


def random_constant_case(
    rng: random.Random,
) -> tuple[td.FrameModel, td.FoliationSplit]:
    kind = rng.choice(_BASE_ALGEBRAS)
    if kind == "suspension":
        matrix = random_admissible_matrix(rng, rng.choice((2, 3)))
        return td.load_model(td.build_suspension(matrix, rng.randint(1, len(matrix))))
    dim = 3
    scale = round(rng.uniform(0.3, 2.0), 6)
    if kind == "abelian":
        base = []
    elif kind == "heisenberg":
        base = [(0, 1, 2, scale)]
    else:  # so(3) scaled: [e1,e2]=c e3, [e2,e3]=c e1, [e1,e3]=-c e2
        base = [(0, 1, 2, scale), (1, 2, 0, scale), (0, 2, 1, -scale)]
    table = np.zeros((dim, dim, dim))
    for i, j, k, value in base:
        table[i, j, k] = value
        table[j, i, k] = -value
    q, _ = np.linalg.qr(
        np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(dim)])
    )
    rotated = np.einsum("ai,bj,ck,ijk->abc", q, q, q, table)
    constants = [
        (i, j, k, float(rotated[i, j, k]))
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
    ]
    model = td.constant_structure_model(
        name=f"random-{kind}", dim=dim, constants=constants
    )
    split = td.foliation_split(dim, {rng.randrange(dim)})
    return model, split


def random_admissible_matrix(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """Hyperbolic SL(n, Z) matrices with real, simple, positive spectrum."""
    if n == 2:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        return ((1 + a * b, a), (b, 1))
    # B unitriangular => B B^T is integer, symmetric positive definite with
    # det 1: eigenvalues real and positive, generically simple and != 1
    for _ in range(200):
        lower = np.eye(n, dtype=object)
        for i in range(n):
            for j in range(i):
                lower[i][j] = rng.randint(-2, 2)
        product = lower @ lower.T
        rows = tuple(tuple(int(x) for x in row) for row in product)
        if td.validate_suspension_matrix(rows).admissible:
            return rows
    raise RuntimeError("no admissible matrix found; widen the search")


def random_field(
    rng: random.Random,
    model: td.FrameModel,
    split: td.FoliationSplit,
    transverse_only: bool = False,
) -> td.VectorFieldSpec:
    components: list[expr.Expr] = []
    for k in range(model.dim):
        if transverse_only and k in split.leaf:
            components.append(expr.ZERO)
        elif model.is_chart:
            components.append(trig_poly(rng, model.dim))
        else:
            components.append(expr.Literal(round(rng.uniform(-2.0, 2.0), 6)))
    return td.vector_field(components, model)


def identity_cases(seed: int, count: int = 20):
    """Mixed constant/chart cases for the frame-identity suites."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        if index % 2 == 0:
            cases.append(random_constant_case(rng))
        else:
            cases.append(random_chart_case(rng))
    return cases


def lattice_rows(grid: td.Grid) -> np.ndarray:
    """The coordinate rows of ``grid``, shape (N, d), one per point in
    row-major order, one row of no coordinates for no axes: the lattice
    as a table, which the package never builds."""
    rows = np.empty((len(grid), len(grid.axes)))
    for m, values in enumerate(np.meshgrid(*grid.axes, indexing="ij")):
        rows[:, m] = values.ravel()
    return rows


def point_tuples(grid: td.Grid) -> tuple[tuple[float, ...], ...]:
    """Every point of ``grid`` as a tuple of Python floats, as reports
    give a point."""
    return tuple(map(tuple, lattice_rows(grid).tolist()))


def at(model: td.FrameModel, point: tuple[float, ...], read, field=None):
    """The value of ``read`` (a function of one FrameData block, as for
    ``model.sweep``) at ``point``, with the field ``field`` if given."""
    return td.model.at_point(model, point, read, field_spec=field)[0]


def point_env(model: td.FrameModel, point: tuple[float, ...]) -> dict[str, float]:
    """The scalar evaluator's environment at ``point``: the declared
    parameters and the coordinates."""
    env = dict(model.parameters)
    env.update(zip(model.coordinate_names(), point))
    return env


def rows_of(parts) -> np.ndarray:
    """A sweep's parts of one read as one array with a row per point, in
    point order: each block's values broadcast to its points, with the
    point axis in front."""
    arrays = []
    for block, values in parts:
        lead = values.shape[:values.ndim - len(block.axes)]
        full = np.broadcast_to(values, lead + block.resolution).reshape(*lead, -1)
        arrays.append(np.moveaxis(full, -1, 0))
    return np.ascontiguousarray(np.concatenate(arrays)) if arrays else np.empty(0)


def kept(read) -> td.model.Fold:
    """The fold that keeps every value of ``read``: (block, values) pairs
    in point order, each array as the read returned it."""
    return td.model.Fold(read, lambda parts, block, values: (*parts, (block, values)), ())


def swept_parts(model: td.FrameModel, grid: td.Grid, *reads, **options) -> list:
    """``model.sweep`` of ``grid`` with the fold that keeps the values of
    each of ``reads``: its parts, (block, values) pairs in point order."""
    return td.model.sweep(model, grid, *map(kept, reads), **options)


def swept_rows(model: td.FrameModel, grid: td.Grid, *reads, **options) -> list[np.ndarray]:
    """``swept_parts`` of ``grid`` with each read's parts as ``rows_of``
    gives them."""
    return [rows_of(parts) for parts in swept_parts(model, grid, *reads, **options)]


def pointwise_rows(model: td.FrameModel, points, *reads, **options) -> list[np.ndarray]:
    """The values of ``reads`` at each of ``points`` (tuples), from one
    ``model.at_point`` sweep per point, with a row per point in the
    order given: the point-by-point reference of ``swept_rows``."""
    values = [td.model.at_point(model, point, *reads, **options) for point in points]
    return [np.array(column) for column in zip(*values)]


def projected(point: tuple[float, ...], coord: int, period: float) -> tuple[float, ...]:
    """The image of a point of a cover unrolled along ``coord`` in the base
    box: that coordinate taken modulo the base ``period`` by Python's
    ``%``, whose bits are those of the np.mod that ``compare_with_cover``
    projects with."""
    return tuple(x % period if m == coord else x for m, x in enumerate(point))


def grid_points(model: td.FrameModel, count: int = 20) -> list[tuple[float, ...]]:
    if not model.is_chart:
        return [()]
    if model.dim == 2:
        grid = td.sample_grid(model, (5, 4))
    else:
        grid = td.sample_grid(model, (3, 3, 2))
    return list(point_tuples(grid)[:count])


def random_expression(rng: random.Random, variables: tuple[str, ...], depth: int = 0) -> expr.Expr:
    """Arbitrary grammar-covering expressions with bounded magnitudes."""
    if depth >= 3 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return expr.Literal(round(rng.uniform(-8.0, 8.0), 4))
        if choice < 0.8:
            return expr.Variable(rng.choice(variables))
        return expr.Constant(rng.choice(("pi", "e")))
    choice = rng.random()
    if choice < 0.15:
        return expr.Negate(random_expression(rng, variables, depth + 1))
    if choice < 0.60:
        op = rng.choice(("+", "-", "*"))
        return expr.BinaryOp(
            op,
            random_expression(rng, variables, depth + 1),
            random_expression(rng, variables, depth + 1),
        )
    if choice < 0.70:
        # keep quotients well-conditioned: denominator bounded away from 0
        denominator = expr.add(
            expr.Literal(float(rng.randint(2, 4))),
            expr.FunctionCall("sin", random_expression(rng, variables, depth + 1)),
        )
        return expr.BinaryOp(
            "/", random_expression(rng, variables, depth + 1), denominator
        )
    if choice < 0.80:
        base = expr.add(
            expr.Literal(float(rng.randint(2, 3))),
            expr.FunctionCall("cos", random_expression(rng, variables, depth + 1)),
        )
        return expr.BinaryOp("^", base, expr.Literal(float(rng.randint(2, 3))))
    fn = rng.choice(("sin", "cos", "exp"))
    argument = random_expression(rng, variables, depth + 1)
    if fn == "exp":
        # bound the argument so magnitudes stay tame
        argument = expr.FunctionCall("sin", argument)
    return expr.FunctionCall(fn, argument)


def random_env(rng: random.Random, variables: tuple[str, ...]) -> dict[str, float]:
    return {name: rng.uniform(-2.0, 2.0) for name in variables}


class CountingEnv(dict):
    """An evaluation environment that counts the reads of each variable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads: dict[str, int] = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().__getitem__(name)


class _DrawnPlan:
    """A plan whose runs count the groups drawn from them."""

    def __init__(self, plan: expr.Plan):
        self.plan, self.groups = plan, 0

    def run(self, env):
        for values in self.plan.run(env):
            self.groups += 1
            yield values


def plan_steps(plan: expr.Plan, groups: int) -> int:
    """The steps that a run of ``plan`` computes for its first ``groups``
    groups: those of the last of them end where its own steps end."""
    return plan._groups[groups - 1][1] if groups else 0


class BlockRun(NamedTuple):
    """One FrameData build: the model, block, field spec and structure
    flag it was given, and the plan steps it ran."""

    model: td.FrameModel
    block: td.Grid
    field_spec: td.VectorFieldSpec | None
    structure: bool
    steps: int


#: FrameData's own builder, so that a second spy replaces the first
_BUILD = td.model.FrameData.__init__


def block_runs(monkeypatch) -> list[BlockRun]:
    """Every FrameData build from now on, failed ones included, in build
    order.  A run computes a group's steps only when the block draws the
    group, so a block runs the ``plan_steps`` of the groups it drew.  A
    second call replaces the first's spy."""
    runs = []

    def spy(self, model, block, field_spec, structure, plan):
        drawn = _DrawnPlan(plan)
        try:
            _BUILD(self, model, block, field_spec, structure, drawn)
        finally:
            runs.append(BlockRun(model, block, field_spec, structure, plan_steps(plan, drawn.groups)))

    monkeypatch.setattr(td.model.FrameData, "__init__", spy)
    return runs


#: Files that json.loads cannot read, each with the end of the CLI's
#: refusal: bytes that are not UTF-8, arrays nested past the recursion
#: limit, an integer past int()'s digit limit
UNREADABLE = {
    "not-utf-8": (
        b"\xff\xfe{",
        "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "nested": (b"[" * 200_000, "nests too deeply to read"),
    "digits": (b"1" * 5000, f"holds an integer of more than {sys.get_int_max_str_digits()} digits"),
}


def run_cli(*argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``transdiv argv...`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
