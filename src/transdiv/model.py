"""Foliated manifold models carried by a global orthonormal frame.

Two flavors of model exist.  A *constant-structure* model is a compact
homogeneous quotient described entirely by the structure constants
C_ij^k of its frame bracket table; every frame quantity is position
independent, so the model has a single abstract evaluation point.  A
*chart* model is a periodic box with a frame of expression-valued
coordinate coefficients, row i giving E_i = sum_m a_i^m d/dx_m.

The metric is never stored: the frame is orthonormal by definition,
g(E_i, E_j) = delta_ij, and coordinate-metric quantities are derived
from the frame matrix where needed.  Frame indices are 0-based in this
API; the file formats and CLI reports use 1-based indices.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import expr
from .expr import Expr, ExprError
from .records import (
    CheckResult,
    FoliationSplit,
    ModelError,
    SchemaError,
    SingularFrameError,
    foliation_split,
)

CONSTANT_STRUCTURE = "constant_structure"
CHART = "chart"

#: Frame determinants below this are treated as singular.
DET_TOLERANCE = 1e-10

#: Largest basic-check residual |pi_Q [F_a, v]| accepted as zero.
BASIC_TOLERANCE = 1e-9

JACOBI_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class FrameModel:
    """A foliated model; build via the factory functions below."""

    name: str
    kind: str
    dim: int
    parameters: Mapping[str, float]
    dense_leaves: bool = False
    # constant-structure payload: ((i, j, k, value), ...) with i < j,
    # antisymmetric completion implied
    structure_constants: tuple[tuple[int, int, int, float], ...] | None = None
    # chart payload
    periods: tuple[float, ...] | None = None
    frame: tuple[tuple[Expr, ...], ...] | None = None

    @property
    def is_chart(self) -> bool:
        return self.kind == CHART

    def coordinate_names(self) -> tuple[str, ...]:
        return coordinate_names(self.dim)


@dataclass(frozen=True)
class VectorFieldSpec:
    """A vector field v = sum_k v^k E_k given by frame components."""

    components: tuple[Expr, ...]

    @property
    def dim(self) -> int:
        return len(self.components)


class Grid:
    """Evaluation points: the lattice of ``axes``, the float64 values of
    each coordinate, whose product in row-major order is its points.
    ``sweep`` reads it in blocks, each a Grid whose axes are runs of its
    axes.  A point is a one-point lattice, and the single abstract point
    of a constant-structure model is the lattice of no axes,
    ``Grid(())``.  An empty axis is refused.  No coordinate rows are
    built: a reported point is read from the axes by index (``point``)."""

    def __init__(self, axes: Sequence[Sequence[float]]):
        self.axes = tuple(np.asarray(axis, dtype=float) for axis in axes)
        self.resolution = tuple(map(len, self.axes))
        if not all(self.resolution):
            raise ModelError(f"resolution entries must be >= 1, got {self.resolution}")

    def __len__(self) -> int:
        return math.prod(self.resolution)

    def point(self, index: int) -> tuple[float, ...]:
        """Point ``index`` in row-major order, as reports give it."""
        return _point(self, self.resolution, index)


def coordinate_names(dim: int) -> tuple[str, ...]:
    return tuple(f"x{m + 1}" for m in range(dim))


def _check_parameters(dim: int, parameters: Mapping[str, float]) -> dict[str, float]:
    coords = set(coordinate_names(dim))
    cleaned = {}
    for name, value in parameters.items():
        if name in expr.RESERVED:
            raise ModelError(f"parameter name '{name}' is reserved")
        if name in coords:
            raise ModelError(f"parameter name '{name}' shadows a coordinate")
        if not _is_number(value):
            raise ModelError(f"parameter {name!r}: {value!r} is not a finite number")
        cleaned[name] = float(value)
    return cleaned


def _check_bound(node: Expr, dim: int, parameters: Mapping[str, float], what: str) -> None:
    allowed = set(coordinate_names(dim)) | set(parameters)
    unknown = expr.variables(node) - allowed
    if unknown:
        raise ModelError(
            f"{what} references unknown variable(s) {sorted(unknown)}; "
            f"expected coordinates x1..x{dim} or a declared parameter"
        )


def constant_structure_model(
    name: str,
    dim: int,
    constants: Iterable[tuple[int, int, int, float]],
    parameters: Mapping[str, float] | None = None,
    dense_leaves: bool = False,
) -> FrameModel:
    """Model with finite constant structure functions, indexed 0-based with i < j."""
    if dim < 1:
        raise ModelError(f"dimension must be positive, got {dim}")
    if dim > MAX_CONSTANT_DIM:
        raise ModelError(
            f"'dim' must be at most {MAX_CONSTANT_DIM} for a constant-structure model "
            f"(its dim^3 table of C within BLOCK_VALUES = {BLOCK_VALUES} values), got {dim}"
        )
    params = _check_parameters(dim, parameters or {})
    seen = set()
    stored = []
    for i, j, k, value in constants:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ModelError(f"structure-constant index ({i},{j},{k}) out of range")
        if i >= j:
            raise ModelError(
                f"structure constants are stored with i < j, got ({i},{j},{k})"
            )
        if (i, j, k) in seen:
            raise ModelError(f"duplicate structure constant ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ModelError(f"structure constant ({i},{j},{k}) must be finite, got {value!r}")
        stored.append((i, j, k, value))
    return FrameModel(
        name=name,
        kind=CONSTANT_STRUCTURE,
        dim=dim,
        parameters=params,
        dense_leaves=dense_leaves,
        structure_constants=tuple(sorted(stored)),
    )


def chart_model(
    name: str,
    periods: Sequence[float],
    frame: Sequence[Sequence[Expr | float | int | str]],
    parameters: Mapping[str, float] | None = None,
    dense_leaves: bool = False,
) -> FrameModel:
    """Periodic-box model; frame row i holds the coefficients of E_i."""
    dim = len(periods)
    if dim < 1:
        raise ModelError("chart model needs at least one coordinate")
    if not all(0 < length < math.inf for length in periods):
        raise ModelError(f"periods must be positive and finite, got {tuple(periods)}")
    params = _check_parameters(dim, parameters or {})
    if len(frame) != dim or any(len(row) != dim for row in frame):
        raise ModelError(f"frame must be a {dim}x{dim} matrix of expressions")
    rows = []
    for i, row in enumerate(frame):
        entries = []
        for m, entry in enumerate(row):
            node = expr.as_expr(entry)
            _check_bound(node, dim, params, f"frame entry ({i},{m})")
            entries.append(node)
        rows.append(tuple(entries))
    return FrameModel(
        name=name,
        kind=CHART,
        dim=dim,
        parameters=params,
        dense_leaves=dense_leaves,
        periods=tuple(float(length) for length in periods),
        frame=tuple(rows),
    )


def vector_field(
    components: Sequence[Expr | float | int | str],
    model: FrameModel | None = None,
) -> VectorFieldSpec:
    """Build a field spec, bind-checking components against ``model`` if given.

    On constant-structure models components must be constants (possibly
    through declared parameters); position is meaningless there.
    """
    nodes = tuple(expr.as_expr(c) for c in components)
    if model is not None:
        if len(nodes) != model.dim:
            raise ModelError(
                f"field has {len(nodes)} components, model has dim {model.dim}"
            )
        for k, node in enumerate(nodes):
            _check_bound(node, model.dim, model.parameters, f"field component {k}")
            if not model.is_chart:
                free = expr.variables(node) - set(model.parameters)
                if free:
                    raise ModelError(
                        "constant-structure models take constant field components; "
                        f"component {k} references {sorted(free)}"
                    )
    return VectorFieldSpec(components=nodes)


def sample_grid(model: FrameModel, resolution: int | Sequence[int]) -> Grid:
    """Cell-centered uniform lattice (chart) or the single abstract point,
    the lattice of no axes (constant structure)."""
    if not model.is_chart:
        return Grid(())
    if isinstance(resolution, int):
        res = (resolution,) * model.dim
    else:
        res = tuple(int(n) for n in resolution)
    if len(res) != model.dim:
        raise ModelError(
            f"resolution {res} does not match model dimension {model.dim}"
        )
    if any(n < 1 for n in res):
        raise ModelError(f"resolution entries must be >= 1, got {res}")
    return _lattice(model, res, 0.5)


def _lattice(model: FrameModel, resolution: tuple[int, ...], offset: float) -> Grid:
    """The lattice of the points with coordinates (j + offset) * L / N,
    j = 0..N-1: cell centers for offset 0.5, corners for 0 (which include
    0, where constructed singularities tend to sit; the period endpoint
    is identified with 0).  The same IEEE operations as the Python
    ``(j + offset) * L / N``, so the same bits.  ModelError refuses a
    lattice of more points than a NumPy array of float64 holds, or one
    where an operation passes the float range."""
    assert model.periods is not None
    if math.prod(resolution) > np.iinfo(np.intp).max // 8:
        raise ModelError(f"a lattice of resolution {resolution} has more points than a NumPy array can hold")
    with np.errstate(all="ignore"):
        axes = [(np.arange(n) + offset) * length / n for n, length in zip(resolution, model.periods)]
    if not all(np.isfinite(axis).all() for axis in axes):
        raise ModelError(f"lattice coordinates of periods {model.periods} pass the float range")
    return Grid(axes)


# --- frame evaluation ------------------------------------------------------

#: Most plan values, points times ``len(plan)``, in one FrameData block: a
#: sweep holds the value table of one block at a time.  A dense 4-D frame
#: with its Alvarez candidate, about 1700 steps, gets blocks of about 512
#: points; a plan of under 220 steps sweeps 4096 points as one.
BLOCK_VALUES = 900_000

#: Largest dim of a constant-structure model, the largest whose dim^3
#: table of C_ij^k holds at most BLOCK_VALUES values
MAX_CONSTANT_DIM = 96


def _kept(model: FrameModel, key: str, derive: Callable[[FrameModel], object]):
    """``derive(model)``, derived once per model and kept on it
    (``expr._memo``), so it dies with the model."""
    memo = expr._memo(model)
    if key not in memo:
        memo[key] = derive(model)
    return memo[key]


def _frame_partials(model: FrameModel) -> tuple:
    """partials[i][m][c] = d a_i^m / d x_c as expression trees."""
    assert model.frame is not None
    coords = model.coordinate_names()
    return _kept(model, "partials", lambda model: tuple(
        tuple(expr.gradient(entry, coords) for entry in row) for row in model.frame
    ))


def _constant_table(model: FrameModel) -> np.ndarray:
    n = model.dim
    table = np.zeros((n, n, n))
    assert model.structure_constants is not None
    for i, j, k, value in model.structure_constants:
        table[i, j, k] = value
        table[j, i, k] = -value
    return table


def _point(block: Grid, shape: tuple[int, ...], index: int) -> tuple[float, ...]:
    """The first point of ``block`` that entry ``index`` of a read of
    trailing ``shape`` stands for (each broadcast axis at 0), as reports
    give it: the block's axes hold the swept grid's own values."""
    return tuple(float(axis[i]) for axis, i in zip(block.axes, np.unravel_index(index, shape)))


@dataclass(frozen=True)
class Fold:
    """A read of ``sweep`` (a function of one FrameData block returning an
    array whose trailing axes broadcast to the block's shape) and its
    reduction: ``step(state, block, values)`` is the state after a
    block's values, the blocks taken in point order from ``start``."""

    read: Callable
    step: Callable
    start: object = None


def _extreme(pick: Callable, better: Callable, best, block: Grid, values: np.ndarray):
    """The step of the least (``np.argmin``, ``float.__lt__``) or greatest
    value, one per point, and where it is first, the arguments of
    ``_point``: (value, (block, shape, index)); the earliest block wins a tie."""
    index = int(pick(values))
    value = float(values.flat[index])
    return (value, (block, values.shape, index)) if best is None or better(value, best[0]) else best


_least = functools.partial(_extreme, np.argmin, float.__lt__)
_greatest = functools.partial(_extreme, np.argmax, float.__gt__)


def _first_non_finite(found, block: Grid, values: np.ndarray):
    """The step of the first NaN or infinity in point order: None, or
    where it is, the arguments of ``_point``.  Each block's values are
    checked as stored; the point is looked for on failure."""
    if found is None:
        finite = np.isfinite(values)
        if not finite.all():
            shape = values.shape[values.ndim - len(block.axes):]
            found = block, shape, int(np.argmin(finite.reshape(-1, *shape).all(axis=0)))
    return found


def _taken(_, block: Grid, values: np.ndarray) -> np.ndarray:
    """The step that keeps the last block's values, a one-block sweep's."""
    return values


def _checked(read: Callable, *steps: Callable) -> tuple[Fold, ...]:
    """The folds of ``read``'s first non-finite value, then of ``steps``."""
    return tuple(Fold(read, step) for step in (_first_non_finite, *steps))


def require_finite(found, what: str) -> None:
    """Raise DomainError at ``found``, a ``_first_non_finite`` state."""
    if found is not None:
        raise expr.DomainError(f"non-finite {what} at {_point(*found)}")


def _stacked(values: Sequence, shape: tuple[int, ...], block: Grid) -> np.ndarray:
    """``values`` (floats, or arrays with as many axes as ``block`` that
    broadcast to its shape), a row-major flattening of ``shape``, as one
    array of shape (*shape, *B), each value one contiguous row.  B is the
    broadcast shape of the values, so values that depend on few
    coordinates stay on their sub-lattice."""
    shapes = [value.shape for value in values if getattr(value, "ndim", 0)]
    common = tuple(map(max, zip((1,) * len(block.axes), *shapes)))
    out = np.empty((len(values), *common))
    for index, value in enumerate(values):
        out[index] = value
    return out.reshape(shape + common)


def _frame_plan(model: FrameModel) -> expr.Plan:
    """A group of the frame entries and one of det A (none off a chart)."""
    if not model.is_chart:
        return expr.Plan(())
    every = tuple(range(model.dim))
    det = _minor(model.frame, _kept(model, "minors", lambda _: {}), every, every)
    return expr.Plan([[entry for row in model.frame for entry in row], [det]])


def _block_plan(
    model: FrameModel, field_spec: VectorFieldSpec | None, structure: bool
) -> expr.Plan:
    """The evaluation plan of FrameData blocks, kept on the model: without
    ``structure`` its frame plan (``_frame_plan``), else that extended by
    a group for each of the frame partials, C_ij^k (the table of
    ``structure_functions_symbolic`` in row-major (i, j, k) order), the
    field components and the field partials a block may compute, in that
    order.  The model keeps one field plan, that of its last sweep with
    structure, keyed by the identity of its field spec (None without a
    field); one that fails to derive extends nothing."""
    if not structure:
        return _kept(model, "frame plan", _frame_plan)
    memo = expr._memo(model)
    kept = memo.get("plan")
    if kept is not None and kept[0] is field_spec:
        return kept[1]
    groups, coords = [], model.coordinate_names()
    if model.is_chart:
        groups.append([d for row in _frame_partials(model) for entry in row for d in entry])
        groups.append([c for plane in structure_functions_symbolic(model) for row in plane for c in row])
    if field_spec is not None:
        groups.append(field_spec.components)
        if model.is_chart:
            groups.append([d for comp in field_spec.components for d in expr.gradient(comp, coords)])
    memo["plan"] = (field_spec, _kept(model, "frame plan", _frame_plan).extended(groups))
    return memo["plan"][1]


def _next_finite(values: Iterator[list], block: Grid, what: str) -> list:
    """The next group of ``values``, built by +, -, * and / from finite
    values with nonzero divisors: it fails only by overflowing, raised at
    the block's first point."""
    try:
        return next(values)
    except expr.DomainError:
        raise expr.DomainError(f"non-finite {what} at {block.point(0)}") from None


def _ascending_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """The sum of ``terms`` (arrays of shapes that broadcast together)
    added one by one in the order given, starting from +0.0: how a block
    sums over a frame or coordinate index.  Unlike ``np.einsum`` or
    ``@``, whose kernels may pair terms differently or fuse multiply-adds
    depending on the shapes, strides and NumPy build, it gives every
    point the same bits at every block size and shape."""
    return functools.reduce(np.add, terms, 0.0)


def _lattice_blocks(grid: Grid, limit: int) -> Iterator[Grid]:
    """The blocks of at most ``limit`` points that cover ``grid`` in
    point order, each a Grid whose axes are runs of ``grid``'s axes
    (views of them, so its points have the same bits), contiguous in
    row-major order: one index on each axis before a split axis, a run
    on it, later axes whole.  The split axis is the last whose later
    axes fit into ``limit``.  A grid of no axes is one block."""
    resolution, axes = grid.resolution, grid.axes
    if not axes:
        yield grid
        return
    axis = len(axes) - 1
    while axis and math.prod(resolution[axis:]) <= limit:
        axis -= 1
    run = max(1, limit // math.prod(resolution[axis + 1:]))
    for index in itertools.product(*map(range, resolution[:axis])):
        for first in range(0, resolution[axis], run):
            segments = [values[i:i + 1] for values, i in zip(axes, index)]
            yield Grid([*segments, axes[axis][first:first + run], *axes[axis + 1:]])


class FrameData:
    """Frame quantities on one block of points, ``block`` (a Grid), each
    an array whose trailing axes (S below) broadcast to the block's
    ``resolution``: stored on the sub-lattice of the coordinates it
    depends on.  Each subexpression is evaluated once per value of the
    coordinates it reads: sin(2 pi x3) takes 16 values on 16^3 points.

    - chart models: ``a[i, m, *S]`` = a_i^m and ``det[*S]`` = det A;
    - with ``structure``: ``c[i, j, k, *S]`` = C_ij^k and
      ``gamma[i, j, k, *S]`` = Gamma_ij^k, with
      Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i) / 2;
    - for a field v, which needs ``structure``: ``v[k, *S]`` = v^k,
      ``dv[k, c, *S]`` = d v^k / d x_c, ``ev[i, k, *S]`` = E_i(v^k) and
      ``rows[i, k, *S]`` = (nabla_{E_i} v)^k = E_i(v^k) + sum_j v^j Gamma_ij^k.

    Every sum over a frame or coordinate index (E_i(v^k) = sum_c a_i^c
    d v^k / d x_c, the covariant rows, the basic residuals, ``divergence``,
    ``mean_curvature`` and ``inner``) is ``_ascending_sum`` over a
    leading index of stored arrays, with the block axes innermost, so
    each point gets the bits of a one-point block.

    Built only by ``sweep`` from the groups of ``plan`` (``_block_plan``),
    each evaluated once the checks of those before it pass; without
    ``structure`` only the first two run.  det A and C are the trees of
    ``structure_functions_symbolic``, whose C_ji^k is the negation of
    C_ij^k, so every value is stored as one run of the plan gives it.
    Every value is finite: a NaN or infinity raises DomainError (in C
    where it is made, by the run or ``constant_structure_model``), and
    |det A| < DET_TOLERANCE raises SingularFrameError before C is
    evaluated.  A check raises at a point of the block, and ``_located``
    at the first point that fails on its own.
    """

    def __init__(
        self,
        model: FrameModel,
        block: Grid,
        field_spec: VectorFieldSpec | None,
        structure: bool,
        plan: expr.Plan,
    ):
        self.block = block
        n = model.dim
        values = plan.run(_block_env(model, block))
        self.a = self.det = self.c = self.gamma = None
        self.v = self.dv = self.ev = self.rows = None
        if model.is_chart:
            self.a = _stacked(next(values), (n, n), block)
            self.det = _stacked(_next_finite(values, block, "frame determinant"), (), block)
        if not structure:
            return
        if model.is_chart:
            if (np.abs(self.det) < DET_TOLERANCE).any():
                # index 0 of an array that broadcasts to the block's shape
                # is its value at the block's first point
                raise SingularFrameError(block.point(0), float(self.det.flat[0]))
            next(values)  # the frame partials, checked before C reads them
            self.c = _stacked(_next_finite(values, block, "structure functions"), (n, n, n), block)
        else:
            self.c = _constant_table(model).reshape((n, n, n) + (1,) * len(block.axes))
        block_axes = tuple(range(3, self.c.ndim))
        self.gamma = 0.5 * (
            self.c + self.c.transpose((1, 2, 0, *block_axes))
            + self.c.transpose((2, 1, 0, *block_axes))
        )
        require_finite(_first_non_finite(None, block, self.gamma), "connection coefficients")
        if field_spec is None:
            return
        self.v = _stacked(next(values), (n,), block)
        if model.is_chart:
            self.dv = _stacked(next(values), (n, n), block)
            self.ev = _ascending_sum(self.a[:, None, c] * self.dv[None, :, c] for c in range(n))
        else:
            self.dv = self.ev = np.zeros((n, n) + (1,) * len(block.axes))
        self.rows = _ascending_sum(self.v[j] * self.gamma[:, j] for j in range(n)) + self.ev
        require_finite(_first_non_finite(None, block, self.rows), "covariant derivative")

    def divergence(self, indices: Sequence[int]) -> np.ndarray:
        """div^D v = sum_{i in D} (nabla_{E_i} v)^i at each point."""
        return _ascending_sum(self.rows[i, i] for i in indices)

    def mean_curvature(self, indices: Sequence[int]) -> np.ndarray:
        """Frame components of the mean curvature of the span of
        ``indices``: sum_{a in D} Gamma_aa^k for k outside D, else 0."""
        components = _ascending_sum(self.gamma[a, a] for a in indices)
        components[list(indices)] = 0.0
        return components

    def inner(self, components: np.ndarray) -> np.ndarray:
        """g(v, X) = sum_k v^k X^k at each point, for X given by its frame
        ``components`` (an array like ``v``)."""
        return _ascending_sum(v * x for v, x in zip(self.v, components))

    def basic_residuals(self, split: FoliationSplit) -> np.ndarray:
        """max over leafwise a and transverse t of |pi_t [E_a, v]| =
        |E_a(v^t) + sum_j v^j C_aj^t| at each point."""
        return functools.reduce(np.maximum, (
            np.abs(self.ev[a, t] + _ascending_sum(v * c for v, c in zip(self.v, self.c[a, :, t])))
            for a in split.leaf_ordered
            for t in split.transverse_ordered
        ))


def _block_env(model: FrameModel, block: Grid) -> dict:
    """The evaluation environment of a block: the declared parameters,
    and each coordinate bound to its axis laid along its own array axis
    (a sparse ``np.meshgrid``), so that they broadcast to the block's
    ``resolution``."""
    columns = np.meshgrid(*block.axes, indexing="ij", sparse=True)
    env: dict = dict(model.parameters)
    env.update(zip(model.coordinate_names(), columns))
    return env


_POINT_ERRORS = (ExprError, SingularFrameError)


def _located(model, block, field_spec, structure, plan) -> FrameData:
    """The FrameData of ``block``, evaluating ``plan``.

    A failure is reported as a point-by-point sweep would report it: the
    error of the first point that fails on its own, that point stored on
    an ExprError as ``point``.  A block that fails is cut by
    ``_lattice_blocks`` into sub-lattices of at most half its points,
    and the first of them that fails (the last, if none before it does)
    is searched in turn, down to one point.
    """
    try:
        return _build(model, block, field_spec, structure, plan)
    except _POINT_ERRORS:
        if len(block) == 1:
            raise
    while len(block) > 1:
        *before, block = _lattice_blocks(block, len(block) // 2)
        for part in before:
            try:
                _build(model, part, field_spec, structure, plan)
            except _POINT_ERRORS:
                block = part
                break
    return _build(model, block, field_spec, structure, plan)


def _build(model, block, field_spec, structure, plan) -> FrameData:
    try:
        return FrameData(model, block, field_spec, structure, plan)
    except ExprError as exc:
        if len(block) == 1:
            exc.point = block.point(0)
        raise


def sweep(
    model: FrameModel,
    grid: Grid,
    *folds: Fold,
    field_spec: VectorFieldSpec | None = None,
    structure: bool = True,
) -> list:
    """The final state of each of ``folds`` over ``grid``.  ``grid`` has
    an axis per coordinate of a chart and none on a constant-structure
    model (ModelError otherwise).

    The only builder of FrameData: a one-point caller uses ``at_point``.
    The grid is swept in lattice blocks (``_lattice_blocks``) of
    BLOCK_VALUES // len(plan) points, ``plan`` that of ``_block_plan``.
    The blocks are built in point order by ``_located``; each read runs
    once, and its values are dropped once every fold of it has taken
    them.  NumPy's floating-point warnings are off: every NaN or
    infinity is refused by an explicit check.
    """
    coordinates = model.dim if model.is_chart else 0
    if len(grid.axes) != coordinates:
        raise ModelError(
            f"points have {len(grid.axes)} coordinates, model {model.name!r} takes {coordinates}"
        )
    if field_spec is not None and field_spec.dim != model.dim:
        raise ModelError(
            f"field has {field_spec.dim} components, model has dim {model.dim}"
        )
    if field_spec is not None and not structure:
        raise ModelError("a field's covariant derivative needs the structure: pass structure=True")
    plan = _block_plan(model, field_spec, structure)
    limit = max(1, BLOCK_VALUES // max(1, len(plan)))
    states = [fold.start for fold in folds]
    with np.errstate(all="ignore"):
        for block in _lattice_blocks(grid, limit):
            frame = _located(model, block, field_spec, structure, plan)
            values: dict = {}
            for index, fold in enumerate(folds):
                if fold.read not in values:
                    values[fold.read] = fold.read(frame)
                states[index] = fold.step(states[index], block, values[fold.read])
            del values
    return states


def at_point(model: FrameModel, point: tuple[float, ...], *reads, **options) -> list[np.ndarray]:
    """The values of ``reads`` at ``point``, kept by the folds of a sweep
    of the one-point lattice of ``point``, with the block's axes stripped."""
    states = sweep(model, Grid([x] for x in point), *(Fold(read, _taken) for read in reads), **options)
    return [values.reshape(values.shape[:values.ndim - len(point)]) for values in states]


def frame_matrix(model: FrameModel, point: tuple[float, ...]) -> np.ndarray:
    """Frame coefficient matrix A with A[i, m] = a_i^m evaluated at ``point``."""
    if not model.is_chart:
        raise ModelError("frame matrix exists only for chart models")
    return at_point(model, point, lambda block: block.a, structure=False)[0]


def structure_functions(model: FrameModel, point: tuple[float, ...]) -> np.ndarray:
    """The table C with [E_i, E_j] = sum_k C[i, j, k] E_k at ``point``
    (writable).  Antisymmetric in (i, j)."""
    return at_point(model, point, lambda block: block.c)[0]


def structure_functions_symbolic(model: FrameModel) -> tuple:
    """C_ij^k of a chart model as expression trees, the one route from a
    frame to C: each bracket [E_i, E_j] = sum_m w_ij^m d/dx_m is written
    in the frame by Cramer's rule on A^T c = w_ij,

        C_ij^k = (sum_m (-1)^(m+k) w_ij^m M_mk) / det A,

    the numerator expanded along the replaced column k, with M_mk the
    minors of A^T that every (i, j) shares.  C_ji^k = -C_ij^k exactly.

    FrameData blocks evaluate these trees in their plan; the
    mean-curvature candidate field is built from them.  They are never
    simplified, only checked pointwise.  Derived once per model and kept
    on it.  A constant-structure model's table is ``_constant_table``.
    """
    if not model.is_chart:
        raise ModelError("symbolic structure functions exist only for chart models")
    return _kept(model, "structure", _cramer_table)


def _cramer_table(model: FrameModel) -> tuple:
    n = model.dim
    assert model.frame is not None
    partials = _frame_partials(model)
    frame, memo = model.frame, _kept(model, "minors", lambda _: {})
    every = tuple(range(n))
    det = _minor(frame, memo, every, every)

    def directional(i: int, j: int, m: int) -> Expr:
        # E_i(a_j^m) = sum_c a_i^c * d a_j^m / d x_c
        total: Expr = expr.ZERO
        for c in range(n):
            total = expr.add(total, expr.mul(model.frame[i][c], partials[j][m][c]))
        return total

    # M_mk, the minor of A^T without row m and column k
    without = [every[:index] + every[index + 1:] for index in every]
    minors = [[_minor(frame, memo, without[m], without[k]) for k in every] for m in every]
    table: list[list[list[Expr]]] = [
        [[expr.ZERO] * n for _ in range(n)] for _ in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            w = [expr.sub(directional(i, j, m), directional(j, i, m)) for m in range(n)]
            for k in range(n):
                numerator: Expr = expr.ZERO
                for m in range(n):
                    term = expr.mul(w[m], minors[m][k])
                    numerator = (expr.add if (m + k) % 2 == 0 else expr.sub)(numerator, term)
                value = expr.div(numerator, det)
                table[i][j][k] = value
                table[j][i][k] = expr.neg(value)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _minor(frame: tuple, memo: dict, rows: tuple, cols: tuple) -> Expr:
    """The determinant of the submatrix of A^T (whose columns are the
    frame rows ``frame``) on ``rows`` and ``cols``, ascending index
    tuples of one length, by Laplace expansion along its first row.  Each
    minor is built once and kept in ``memo``, the model's "minors"
    (``_kept``), passed down the recursion: the minors that several
    expansions reach are one shared node, and die with the model."""
    found = memo.get((rows, cols))
    if found is None:
        found = expr.ONE if not rows else expr.ZERO
        for index, col in enumerate(cols):
            # entry (rows[0], col) of A^T is a_col^rows[0]
            rest = cols[:index] + cols[index + 1:]
            term = expr.mul(frame[col][rows[0]], _minor(frame, memo, rows[1:], rest))
            found = (expr.add if index % 2 == 0 else expr.sub)(found, term)
        memo[rows, cols] = found
    return found


# --- validation ------------------------------------------------------------

@dataclass(frozen=True)
class Hypothesis:
    """A record of the gate, built by ``hypotheses(model, split)`` with
    what it reads: its ``folds`` and ``judge(grid, states)``, its
    CheckResult from their final states over ``grid``.  A chart's first
    record, ``frame_invertibility``, is the precondition of a sweep with
    structure (FrameData raises SingularFrameError), so ``validate_model``
    judges it det-only, then the later records, once it passes, on one
    sweep with structure, and none when they have no folds."""

    folds: tuple[Fold, ...]
    judge: Callable


#: The fold of frame_invertibility: the least |det A| over a chart's points
_least_det = Fold(lambda block: np.abs(block.det), _least)


def _frame_invertibility(model: FrameModel, grid: Grid, states) -> CheckResult:
    """The least |det A| over the points of ``grid`` (the ``_least_det``
    state of ``states``), then over its lattice corners, swept det-only
    here: the grid wins a tie, and a frame that fails to evaluate at a
    corner fails the record there."""
    (least,) = states
    corners = _lattice(model, grid.resolution, 0.0)
    try:
        (corner,) = sweep(model, corners, _least_det, structure=False)
    except ExprError as exc:
        return _unevaluated(exc)
    worst, at = min(least, corner, key=lambda found: found[0])
    detail = f"min |det(frame)| over {2 * len(grid)} probe points (threshold {DET_TOLERANCE:g})"
    passed = worst >= DET_TOLERANCE
    return CheckResult("frame_invertibility", passed, detail, worst, _point(*at), DET_TOLERANCE)


def _unevaluated(exc: ExprError) -> CheckResult:
    """The failed frame_invertibility record of a frame that fails to
    evaluate at a probe, at that point."""
    detail = f"frame evaluation failed: {exc}"
    return CheckResult("frame_invertibility", False, detail, 0.0, exc.point, DET_TOLERANCE)


def _jacobi_identity(model: FrameModel, grid: Grid, states) -> CheckResult:
    """The largest |cyclic sum C_ij^m C_mk^l| of the constant table, in
    runs of max(1, BLOCK_VALUES // dim^3) values of ``i``, so that no array
    holds dim^4 values; a residual that is not finite raises DomainError."""
    table, n = _constant_table(model), model.dim
    run, jacobi = max(1, BLOCK_VALUES // n**3), 0.0
    with np.errstate(all="ignore"):  # a non-finite residual is refused below
        for first in range(0, n, run):
            i = slice(first, first + run)
            cyclic = (
                np.einsum("ijm,mkl->ijkl", table[i], table)
                + np.einsum("jkm,mil->ijkl", table, table[:, i])
                + np.einsum("kim,mjl->ijkl", table[:, i], table)
            )
            worst = float(np.max(np.abs(cyclic)))
            if not math.isfinite(worst):
                raise expr.DomainError("non-finite Jacobi residual |cyclic sum C_ij^m C_mk^l| at ()")
            jacobi = max(jacobi, worst)
    detail = f"max |cyclic sum C_ij^m C_mk^l| (threshold {JACOBI_TOLERANCE:g})"
    return CheckResult("jacobi_identity", jacobi <= JACOBI_TOLERANCE, detail, jacobi, (), JACOBI_TOLERANCE)


def hypotheses(model: FrameModel, split: FoliationSplit) -> tuple[Hypothesis, ...]:
    """The records of the hypotheses the sign test rests on for ``model``
    and ``split``, in gate order: frame invertibility for charts, the
    Jacobi identity for constant-structure models.  Neither needs an
    antisymmetry check: a chart's C_ji^k is the tree that negates
    C_ij^k, and a constant table's C_ji^k is filled in from C_ij^k, i < j."""
    if model.is_chart:
        return (Hypothesis((_least_det,), functools.partial(_frame_invertibility, model)),)
    return (Hypothesis((), functools.partial(_jacobi_identity, model)),)


def judged_sweep(model: FrameModel, grid: Grid, records: Sequence[Hypothesis], *folds: Fold, **options):
    """The final states of ``folds``, and each of ``records`` judged in
    order on those of its folds, lazily, from one ``sweep`` of ``grid``
    with ``options`` that takes ``folds`` then every record's folds, and
    no sweep when there are none."""
    every = (*folds, *(fold for record in records for fold in record.folds))
    states = iter(sweep(model, grid, *every, **options) if every else ())
    own = list(itertools.islice(states, len(folds)))
    return own, (record.judge(grid, list(itertools.islice(states, len(record.folds)))) for record in records)


def validate_model(model: FrameModel, split: FoliationSplit, grid: Grid) -> tuple[CheckResult, ...]:
    """The records of ``hypotheses(model, split)`` judged on ``grid``:
    the first on a det-only sweep, then, once it passes, the others on
    one sweep with structure (see ``Hypothesis``).

    A failed check is a record, not an exception: ``analyze`` reports
    the records, and the verdicts of ``tautness`` refuse a model whose
    record fails.  A frame that fails to evaluate at a probe fails the
    invertibility record at that point, and no other record is judged; a
    Jacobi residual that is not finite raises DomainError, as any
    non-finite value does.
    """
    first, *later = hypotheses(model, split)
    try:
        _, judgements = judged_sweep(model, grid, (first,), structure=False)
    except ExprError as exc:
        return (_unevaluated(exc),)
    (check,) = judgements
    return (check, *judged_sweep(model, grid, later)[1]) if check.passed else (check,)


def _basic_folds(split: FoliationSplit) -> tuple[Fold, ...]:
    """The folds of the first non-finite and the worst basic residual."""
    return _checked(lambda block: block.basic_residuals(split), _greatest)


def basic_field_check(found, worst, points: int) -> CheckResult:
    """The record of the basic test from the states of ``_basic_folds``
    over ``points`` points, against BASIC_TOLERANCE; a non-finite
    residual raises DomainError."""
    require_finite(found, "basic-check residual")
    value, at = worst
    detail = f"max |pi_Q [F_a, v]| over {points} points (threshold {BASIC_TOLERANCE:g})"
    return CheckResult(
        "basic_field", value <= BASIC_TOLERANCE, detail, value, _point(*at), BASIC_TOLERANCE
    )


def check_basic(
    model: FrameModel, split: FoliationSplit, field_spec: VectorFieldSpec, grid: Grid
) -> CheckResult:
    """Test whether v is basic: the transverse part of [F_a, v] must
    vanish, to BASIC_TOLERANCE, for every leafwise frame direction F_a at
    every grid point."""
    states = sweep(model, grid, *_basic_folds(split), field_spec=field_spec)
    return basic_field_check(*states, len(grid))


# --- model and field documents ---------------------------------------------

def _is_number(value) -> bool:
    if isinstance(value, numbers.Rational):  # exact, so an int past the float range fails
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _require(document: Mapping, key: str, kinds, what: str):
    if key not in document:
        raise SchemaError(f"{what} is missing required key '{key}'")
    value = document[key]
    if not isinstance(value, kinds):
        raise SchemaError(f"{what} key '{key}' has the wrong type: {value!r}")
    return value


_MODEL_KEYS = {
    "name", "kind", "dim", "leaf_indices", "parameters", "dense_leaves",
    "structure_constants", "periods", "frame",
}


def load_model(document: Mapping) -> tuple[FrameModel, FoliationSplit]:
    """Build a model and split from a parsed model document.

    Schema violations, and expressions that do not parse or bind, raise
    SchemaError.  Nothing is evaluated on a grid and no hypothesis is
    checked here: every verdict checks the model's (``hypotheses``)
    on the grid it sweeps, so a chart frame that is singular, or fails
    to evaluate, somewhere loads.
    """
    if not isinstance(document, Mapping):
        raise SchemaError(f"model document must be an object, got {type(document)}")
    unknown = set(document) - _MODEL_KEYS
    if unknown:
        raise SchemaError(f"model document has unknown key(s) {sorted(unknown)}")
    name = _require(document, "name", str, "model document")
    kind = _require(document, "kind", str, "model document")
    dim = _require(document, "dim", int, "model document")
    if isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"'dim' must be a positive integer, got {dim!r}")
    raw_leaf = _require(document, "leaf_indices", (list, tuple), "model document")
    parameters = document.get("parameters", {})
    if not isinstance(parameters, Mapping):
        raise SchemaError("'parameters' must be a mapping of name to number")
    for pname, pvalue in parameters.items():
        if not isinstance(pname, str) or not _is_number(pvalue):
            raise SchemaError(f"parameter {pname!r}: {pvalue!r} is not a finite number")
    dense = document.get("dense_leaves", False)
    if not isinstance(dense, bool):
        raise SchemaError("'dense_leaves' must be a boolean")
    for idx in raw_leaf:
        if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= dim:
            raise SchemaError(
                f"leaf index {idx!r} out of range (expected 1..{dim})"
            )

    try:
        if kind == CONSTANT_STRUCTURE:
            model = _load_constant_structure(document, name, dim, parameters, dense)
        elif kind == CHART:
            model = _load_chart(document, name, dim, parameters, dense)
        else:
            raise SchemaError(
                f"unknown kind {kind!r} (expected '{CONSTANT_STRUCTURE}' or '{CHART}')"
            )
        split = foliation_split(dim, (idx - 1 for idx in raw_leaf))
    except (ExprError, ModelError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"model document for '{name}' is invalid: {exc}") from exc
    return model, split


def _load_constant_structure(document, name, dim, parameters, dense) -> FrameModel:
    for key in ("periods", "frame"):
        if key in document:
            raise SchemaError(f"constant_structure model cannot carry '{key}'")
    entries = _require(document, "structure_constants", (list, tuple), "model document")
    params = _check_parameters(dim, parameters)
    constants = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, Mapping) or set(entry) != {"i", "j", "k", "value"}:
            raise SchemaError(
                f"structure constant entries need exactly the keys i, j, k, value; got {entry!r}"
            )
        i, j, k = entry["i"], entry["j"], entry["k"]
        for idx in (i, j, k):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= dim:
                raise SchemaError(f"structure-constant index {idx!r} out of range 1..{dim}")
        if not i < j:
            raise SchemaError(
                f"structure constants are stored with i < j; got i={i}, j={j}"
            )
        if (i, j, k) in seen:
            raise SchemaError(f"duplicate structure constant ({i},{j},{k})")
        seen.add((i, j, k))
        value = entry["value"]
        if isinstance(value, str):
            node = expr.parse(value)
            free = expr.variables(node) - set(params)
            if free:
                raise SchemaError(
                    f"structure-constant value {value!r} references undeclared {sorted(free)}"
                )
            with np.errstate(all="ignore"):
                ((value,),) = expr.Plan([[node]]).run(params)
        elif not _is_number(value):
            raise SchemaError(
                f"structure-constant value must be a finite number or string, got {value!r}"
            )
        constants.append((i - 1, j - 1, k - 1, float(value)))
    return constant_structure_model(
        name, dim, constants, parameters=params, dense_leaves=dense
    )


def _load_chart(document, name, dim, parameters, dense) -> FrameModel:
    if "structure_constants" in document:
        raise SchemaError("chart model cannot carry 'structure_constants'")
    periods = _require(document, "periods", (list, tuple), "model document")
    if len(periods) != dim or not all(_is_number(x) and x > 0 for x in periods):
        raise SchemaError(f"'periods' must list {dim} positive finite numbers")
    raw_frame = _require(document, "frame", (list, tuple), "model document")
    if len(raw_frame) != dim * dim:
        raise SchemaError(
            f"'frame' must be a row-major list of {dim * dim} expression strings"
        )
    rows = []
    for i in range(dim):
        row = []
        for m in range(dim):
            entry = raw_frame[i * dim + m]
            if isinstance(entry, str):
                row.append(expr.parse(entry))
            elif _is_number(entry):
                row.append(expr.as_expr(entry))
            else:
                raise SchemaError(f"frame entry {entry!r} must be a string or finite number")
        rows.append(row)
    return chart_model(name, periods, rows, parameters=parameters, dense_leaves=dense)


def load_field(document: Mapping, model: FrameModel) -> VectorFieldSpec:
    """Build a field spec from a parsed field document, bound to ``model``."""
    if not isinstance(document, Mapping):
        raise SchemaError(f"field document must be an object, got {type(document)}")
    unknown = set(document) - {"components"}
    if unknown:
        raise SchemaError(f"field document has unknown key(s) {sorted(unknown)}")
    raw = _require(document, "components", (list, tuple), "field document")
    if len(raw) != model.dim:
        raise SchemaError(
            f"field document has {len(raw)} components, model needs {model.dim}"
        )
    components: list[Expr | float | str] = []
    for k, entry in enumerate(raw):
        if isinstance(entry, bool):
            raise SchemaError(f"field component {k} must be a number or string")
        if not model.is_chart:
            if not isinstance(entry, (int, float)):
                raise SchemaError(
                    "constant-structure field components must be plain numbers; "
                    f"component {k} is {entry!r}"
                )
        elif not isinstance(entry, (int, float, str)):
            raise SchemaError(f"field component {k} must be a number or string")
        if not isinstance(entry, str) and not _is_number(entry):
            raise SchemaError(f"field component {k} must be a finite number, got {entry!r}")
        components.append(entry)
    try:
        return vector_field(components, model)
    except (ExprError, ModelError) as exc:
        raise SchemaError(f"field document is invalid: {exc}") from exc


def model_to_document(model: FrameModel, split: FoliationSplit) -> dict:
    """Serialize to the model-file schema (1-based indices)."""
    document: dict = {
        "name": model.name,
        "kind": model.kind,
        "dim": model.dim,
        "leaf_indices": [i + 1 for i in split.leaf_ordered],
        "parameters": dict(model.parameters),
        "dense_leaves": model.dense_leaves,
    }
    if not model.is_chart:
        assert model.structure_constants is not None
        document["structure_constants"] = [
            {"i": i + 1, "j": j + 1, "k": k + 1, "value": value}
            for i, j, k, value in model.structure_constants
        ]
    else:
        assert model.periods is not None and model.frame is not None
        document["periods"] = list(model.periods)
        document["frame"] = [
            expr.to_string(entry) for row in model.frame for entry in row
        ]
    return document
