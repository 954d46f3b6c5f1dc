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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import expr
from .expr import Expr, ExprError

CONSTANT_STRUCTURE = "constant_structure"
CHART = "chart"

#: Frame determinants below this are treated as singular.
DET_TOLERANCE = 1e-10

#: Per-coordinate resolution used when probing a freshly loaded chart frame.
PROBE_RESOLUTION = 8

#: Largest basic-check residual |pi_Q [F_a, v]| accepted as zero.
BASIC_TOLERANCE = 1e-9

JACOBI_TOLERANCE = 1e-12
ANTISYMMETRY_TOLERANCE = 1e-12


class ModelError(Exception):
    """Structural problem with a model, split, or field."""


class SchemaError(ModelError):
    """A model or field document violates the file schema."""


class SingularFrameError(ModelError):
    """The frame matrix fails invertibility at a probe point."""

    def __init__(self, point: tuple[float, ...], det: float):
        super().__init__(
            f"frame matrix is singular at {point} (|det| = {abs(det):.3e})"
        )
        self.point = point
        self.det = det


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
    # per-coordinate wrap period applied before evaluating any expression;
    # None entries mean no wrap.  Used by finite covers.
    coordinate_wraps: tuple[float | None, ...] | None = None
    notes: tuple[str, ...] = ()

    @property
    def is_chart(self) -> bool:
        return self.kind == CHART

    def coordinate_names(self) -> tuple[str, ...]:
        return coordinate_names(self.dim)


@dataclass(frozen=True)
class FoliationSplit:
    """Partition of frame indices into leafwise and transverse sets."""

    dim: int
    leaf: frozenset[int]
    transverse: frozenset[int]

    @property
    def leaf_ordered(self) -> tuple[int, ...]:
        return tuple(sorted(self.leaf))

    @property
    def transverse_ordered(self) -> tuple[int, ...]:
        return tuple(sorted(self.transverse))


@dataclass(frozen=True)
class VectorFieldSpec:
    """A vector field v = sum_k v^k E_k given by frame components."""

    components: tuple[Expr, ...]

    @property
    def dim(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Grid:
    """Evaluation points: a cell-centered lattice, or the single abstract
    point () of a constant-structure model."""

    resolution: tuple[int, ...]
    points: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float | None
    worst_point: tuple[float, ...] | None
    detail: str


@dataclass(frozen=True)
class ModelDiagnostics:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


@dataclass(frozen=True)
class BasicFieldCheck:
    """Outcome of testing pi_Q([F_a, v]) = 0 over a grid."""

    passed: bool
    max_residual: float
    worst_point: tuple[float, ...] | None
    tolerance: float


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
    notes: tuple[str, ...] = (),
) -> FrameModel:
    """Model with constant structure functions, indexed 0-based with i < j."""
    if dim < 1:
        raise ModelError(f"dimension must be positive, got {dim}")
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
        stored.append((i, j, k, float(value)))
    return FrameModel(
        name=name,
        kind=CONSTANT_STRUCTURE,
        dim=dim,
        parameters=params,
        dense_leaves=dense_leaves,
        structure_constants=tuple(sorted(stored)),
        notes=notes,
    )


def chart_model(
    name: str,
    periods: Sequence[float],
    frame: Sequence[Sequence[Expr | float | int | str]],
    parameters: Mapping[str, float] | None = None,
    dense_leaves: bool = False,
    coordinate_wraps: Sequence[float | None] | None = None,
    notes: tuple[str, ...] = (),
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
    wraps = None
    if coordinate_wraps is not None:
        if len(coordinate_wraps) != dim:
            raise ModelError("coordinate_wraps must give one entry per coordinate")
        wraps = tuple(None if w is None else float(w) for w in coordinate_wraps)
    return FrameModel(
        name=name,
        kind=CHART,
        dim=dim,
        parameters=params,
        dense_leaves=dense_leaves,
        periods=tuple(float(length) for length in periods),
        frame=tuple(rows),
        coordinate_wraps=wraps,
        notes=notes,
    )


def foliation_split(dim: int, leaf_indices: Iterable[int]) -> FoliationSplit:
    """Split frame indices (0-based) into leafwise and transverse sets."""
    leaf = frozenset(int(i) for i in leaf_indices)
    if any(i < 0 or i >= dim for i in leaf):
        raise ModelError(f"leaf indices {sorted(leaf)} out of range for dim {dim}")
    if not leaf:
        raise ModelError("empty leaf set")
    transverse = frozenset(range(dim)) - leaf
    if not transverse:
        raise ModelError("empty transverse set (leaf indices cover every direction)")
    return FoliationSplit(dim=dim, leaf=leaf, transverse=transverse)


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
            if model.kind == CONSTANT_STRUCTURE:
                free = expr.variables(node) - set(model.parameters)
                if free:
                    raise ModelError(
                        "constant-structure models take constant field components; "
                        f"component {k} references {sorted(free)}"
                    )
    return VectorFieldSpec(components=nodes)


def point_env(model: FrameModel, point: tuple[float, ...]) -> dict[str, float]:
    """Evaluation environment at ``point``: coordinates (wrapped if the
    model is a covering) plus declared parameters."""
    env = dict(model.parameters)
    if model.is_chart:
        wraps = model.coordinate_wraps or (None,) * model.dim
        for name, value, wrap in zip(model.coordinate_names(), point, wraps):
            env[name] = value if wrap is None else value % wrap
    return env


def sample_grid(model: FrameModel, resolution: int | Sequence[int]) -> Grid:
    """Cell-centered uniform lattice (chart) or the single abstract point."""
    if model.kind == CONSTANT_STRUCTURE:
        return Grid(resolution=(), points=((),))
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
    assert model.periods is not None
    axes = [
        tuple((j + 0.5) * length / n for j in range(n))
        for n, length in zip(res, model.periods)
    ]
    points = tuple(itertools.product(*axes))
    return Grid(resolution=res, points=points)


# --- frame evaluation ------------------------------------------------------

#: Most points in one FrameData block: a sweep holds the arrays of one
#: block at a time, which bounds its memory.
BLOCK_POINTS = 512


def _frame_partials(model: FrameModel) -> tuple:
    """partials[i][m][c] = d a_i^m / d x_c as expression trees."""
    assert model.frame is not None
    coords = model.coordinate_names()
    return tuple(tuple(expr.gradient(entry, coords) for entry in row) for row in model.frame)


def _constant_table(model: FrameModel) -> np.ndarray:
    n = model.dim
    table = np.zeros((n, n, n))
    assert model.structure_constants is not None
    for i, j, k, value in model.structure_constants:
        table[i, j, k] = value
        table[j, i, k] = -value
    return table


def require_finite(values: np.ndarray, points: Sequence, what: str) -> None:
    """Raise DomainError at the first point where ``values`` (leading axis
    over ``points``) holds a NaN or an infinity."""
    if not len(points):
        return
    finite = np.isfinite(values).reshape(len(points), -1).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise expr.DomainError(f"non-finite {what} at {points[index]}")


def _evaluate(nodes: Sequence[Expr], shape: tuple[int, ...], env: Mapping, count: int) -> np.ndarray:
    """Compiled values of ``nodes`` (a row-major flattening of ``shape``)
    at ``count`` points, as an array of shape (count, *shape)."""
    out = np.empty((count, len(nodes)))
    for index, node in enumerate(nodes):
        out[:, index] = expr.compile(node)(env)
    return out.reshape((count,) + shape)


class FrameData:
    """Frame quantities at a block of points, each an array whose leading
    axis runs over the points (P of them):

    - chart models: ``a[p, i, m]`` = a_i^m and ``det[p]`` = det A;
    - with ``structure``: ``c[p, i, j, k]`` = C_ij^k and
      ``gamma[p, i, j, k]`` = Gamma_ij^k, with
      Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i) / 2;
    - for a field v: ``v[p, k]`` = v^k, ``dv[p, k, c]`` = d v^k / d x_c,
      ``ev[p, i, k]`` = E_i(v^k) and ``rows[p, i, k]`` =
      (nabla_{E_i} v)^k = E_i(v^k) + sum_j v^j Gamma_ij^k.

    Build through ``frame_data`` or ``sweep``.  Every value is finite: a
    NaN or infinity raises DomainError, and |det A| < DET_TOLERANCE
    raises SingularFrameError when the structure is asked for.
    """

    def __init__(
        self,
        model: FrameModel,
        points: Sequence[tuple[float, ...]],
        field_spec: VectorFieldSpec | None,
        structure: bool,
    ):
        self.points = points
        count, n = len(points), model.dim
        env = _block_env(model, points)
        self.a = self.det = self.c = self.gamma = None
        self.v = self.dv = self.ev = self.rows = None
        if model.is_chart:
            assert model.frame is not None
            self.a = _evaluate([e for row in model.frame for e in row], (n, n), env, count)
            self.det = np.linalg.det(self.a)
            require_finite(self.det, points, "frame determinant")
        if not structure:
            return
        if model.is_chart:
            singular = np.abs(self.det) < DET_TOLERANCE
            if singular.any():
                index = int(np.argmax(singular))
                raise SingularFrameError(points[index], float(self.det[index]))
            partials = [d for row in _frame_partials(model) for entry in row for d in entry]
            da = _evaluate(partials, (n, n, n), env, count)  # da[p, j, m, c]
            # directional[p, i, j, m] = E_i(a_j^m)
            directional = np.einsum("pic,pjmc->pijm", self.a, da)
            bracket = directional - directional.transpose((0, 2, 1, 3))
            # express each bracket in the frame: solve A^T c = w columnwise
            flat = bracket.reshape(count, n * n, n).transpose((0, 2, 1))
            table = np.linalg.solve(self.a.transpose((0, 2, 1)), flat)
            table = table.transpose((0, 2, 1)).reshape(count, n, n, n)
            # enforce exact antisymmetry against solver roundoff
            self.c = 0.5 * (table - table.transpose((0, 2, 1, 3)))
        else:
            self.c = np.broadcast_to(_constant_table(model), (count, n, n, n))
        require_finite(self.c, points, "structure functions")
        self.gamma = 0.5 * (
            self.c + self.c.transpose((0, 2, 3, 1)) + self.c.transpose((0, 3, 2, 1))
        )
        require_finite(self.gamma, points, "connection coefficients")
        if field_spec is None:
            return
        self.v = _evaluate(field_spec.components, (n,), env, count)
        if model.is_chart:
            coords = model.coordinate_names()
            partials = [d for comp in field_spec.components for d in expr.gradient(comp, coords)]
            self.dv = _evaluate(partials, (n, n), env, count)
            self.ev = self.a @ self.dv.transpose((0, 2, 1))
        else:
            self.dv = self.ev = np.zeros((count, n, n))
        self.rows = np.einsum("pj,pijk->pik", self.v, self.gamma) + self.ev
        require_finite(self.rows, points, "covariant derivative")

    def divergence(self, indices: Sequence[int]) -> np.ndarray:
        """div^D v = sum_{i in D} (nabla_{E_i} v)^i at each point."""
        return sum(self.rows[:, i, i] for i in indices)

    def mean_curvature(self, indices: Sequence[int]) -> np.ndarray:
        """Frame components of the mean curvature of the span of
        ``indices``: sum_{a in D} Gamma_aa^k for k outside D, else 0."""
        components = sum(self.gamma[:, a, a, :] for a in indices)
        components[:, list(indices)] = 0.0
        return components

    def basic_residuals(self, split: FoliationSplit) -> np.ndarray:
        """max over leafwise a and transverse t of |pi_t [E_a, v]| =
        |E_a(v^t) + sum_j v^j C_aj^t| at each point."""
        leaf, transverse = list(split.leaf_ordered), list(split.transverse_ordered)
        bracket = self.ev + np.einsum("pj,pijk->pik", self.v, self.c)
        residuals = np.abs(bracket[:, leaf][:, :, transverse])
        return residuals.reshape(len(self.points), -1).max(axis=1)


def _block_env(model: FrameModel, points: Sequence[tuple[float, ...]]) -> dict:
    """``point_env`` for a block: one array per coordinate."""
    env: dict = dict(model.parameters)
    if model.is_chart:
        columns = np.array(points, dtype=float).reshape(len(points), -1).T
        wraps = model.coordinate_wraps or (None,) * model.dim
        for name, column, wrap in zip(model.coordinate_names(), columns, wraps):
            env[name] = column.copy() if wrap is None else np.mod(column, wrap)
    return env


_POINT_ERRORS = (ExprError, SingularFrameError)


def frame_data(
    model: FrameModel,
    points: Sequence[tuple[float, ...]],
    field_spec: VectorFieldSpec | None = None,
    structure: bool = True,
) -> FrameData:
    """FrameData at ``points`` as one block.

    A failure is reported as a point-by-point sweep would report it: the
    error of the first point that fails on its own (found by bisection),
    with that point stored on an ExprError as ``point``.
    """
    _check_field_dim(model, field_spec)
    try:
        return _build(model, points, field_spec, structure)
    except _POINT_ERRORS:
        if len(points) == 1:
            raise
    failing = points  # fails as a whole; the first half that fails holds the culprit
    while len(failing) > 1:
        half = failing[: len(failing) // 2]
        try:
            _build(model, half, field_spec, structure)
            failing = failing[len(half):]
        except _POINT_ERRORS:
            failing = half
    return _build(model, failing, field_spec, structure)


def _build(model, points, field_spec, structure) -> FrameData:
    try:
        with np.errstate(all="ignore"):
            return FrameData(model, points, field_spec, structure)
    except ExprError as exc:
        if len(points) == 1:
            exc.point = points[0]
        raise


def _check_field_dim(model: FrameModel, field_spec: VectorFieldSpec | None) -> None:
    if field_spec is not None and field_spec.dim != model.dim:
        raise ModelError(
            f"field has {field_spec.dim} components, model has dim {model.dim}"
        )


def sweep(
    model: FrameModel,
    points: Sequence[tuple[float, ...]],
    field_spec: VectorFieldSpec | None = None,
    structure: bool = True,
) -> Iterator[FrameData]:
    """FrameData for ``points`` in order, in blocks of at most BLOCK_POINTS."""
    _check_field_dim(model, field_spec)
    for start in range(0, len(points), BLOCK_POINTS):
        yield frame_data(model, points[start:start + BLOCK_POINTS], field_spec, structure)


def gather(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Per-block arrays of a sweep joined along the point axis."""
    arrays = list(blocks)
    return np.concatenate(arrays) if arrays else np.empty(0)


def frame_matrix(model: FrameModel, point: tuple[float, ...]) -> np.ndarray:
    """Frame coefficient matrix A with A[i, m] = a_i^m evaluated at ``point``."""
    if not model.is_chart:
        raise ModelError("frame matrix exists only for chart models")
    return frame_data(model, (point,), structure=False).a[0]


def structure_functions(model: FrameModel, point: tuple[float, ...]) -> np.ndarray:
    """The table C with [E_i, E_j] = sum_k C[i, j, k] E_k at ``point``.

    Chart models compute the coordinate components of the bracket from
    symbolic derivatives of the frame coefficients and express them in
    the frame by solving with the frame matrix; constant-structure
    models return their stored table.  Antisymmetric in (i, j).
    """
    if model.kind == CONSTANT_STRUCTURE:
        return _constant_table(model)
    return frame_data(model, (point,)).c[0]


def structure_functions_symbolic(model: FrameModel) -> tuple:
    """C_ij^k as expression trees (Cramer solve for chart models).

    Needed where a *field* of structure data is required rather than
    point values, e.g. to build the mean-curvature candidate field.
    Expressions can be large; they are never simplified, only checked
    pointwise.
    """
    n = model.dim
    if model.kind == CONSTANT_STRUCTURE:
        table = _constant_table(model)
        return tuple(
            tuple(
                tuple(expr.as_expr(table[i, j, k]) for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
    assert model.frame is not None
    partials = _frame_partials(model)

    def directional(i: int, j: int, m: int) -> Expr:
        # E_i(a_j^m) = sum_c a_i^c * d a_j^m / d x_c
        total: Expr = expr.ZERO
        for c in range(n):
            total = expr.add(total, expr.mul(model.frame[i][c], partials[j][m][c]))
        return total

    # columns of A^T are the frame rows
    at = [[model.frame[k][m] for k in range(n)] for m in range(n)]
    det_at = _symbolic_det(at)
    table: list[list[list[Expr]]] = [
        [[expr.ZERO] * n for _ in range(n)] for _ in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            w = [expr.sub(directional(i, j, m), directional(j, i, m)) for m in range(n)]
            for k in range(n):
                replaced = [
                    [w[m] if col == k else at[m][col] for col in range(n)]
                    for m in range(n)
                ]
                value = expr.div(_symbolic_det(replaced), det_at)
                table[i][j][k] = value
                table[j][i][k] = expr.neg(value)
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _symbolic_det(matrix: list[list[Expr]]) -> Expr:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total: Expr = expr.ZERO
    for col in range(n):
        minor = [
            [matrix[r][c] for c in range(n) if c != col] for r in range(1, n)
        ]
        term = expr.mul(matrix[0][col], _symbolic_det(minor))
        total = expr.add(total, term) if col % 2 == 0 else expr.sub(total, term)
    return total


# --- validation ------------------------------------------------------------

def _corner_points(model: FrameModel, resolution: tuple[int, ...]) -> tuple:
    """Lattice corners j*L/N (includes 0, where constructed singularities
    tend to sit; the period endpoint is identified with 0)."""
    assert model.periods is not None
    axes = [
        tuple(j * length / n for j in range(n))
        for n, length in zip(resolution, model.periods)
    ]
    return tuple(itertools.product(*axes))


def _probe_invertibility(model: FrameModel, grid: Grid) -> tuple[tuple, np.ndarray]:
    """The frame-invertibility probe points (``grid``'s points and its
    lattice corners) and det A at each."""
    resolution = grid.resolution or (PROBE_RESOLUTION,) * model.dim
    points = tuple(grid.points) + _corner_points(model, resolution)
    return points, gather(block.det for block in sweep(model, points, structure=False))


def validate_model(model: FrameModel, grid: Grid) -> ModelDiagnostics:
    """Diagnostics (never raises): frame invertibility over grid and
    corner probes for charts, antisymmetry of C, Jacobi identity for
    constant-structure models."""
    checks: list[CheckResult] = []
    if model.is_chart:
        try:
            probes, dets = _probe_invertibility(model, grid)
        except ExprError as exc:
            checks.append(
                CheckResult(
                    "frame_invertibility",
                    False,
                    0.0,
                    exc.point,
                    f"frame evaluation failed: {exc}",
                )
            )
        else:
            index = int(np.argmin(np.abs(dets)))
            worst_det = float(abs(dets[index]))
            checks.append(
                CheckResult(
                    "frame_invertibility",
                    worst_det >= DET_TOLERANCE,
                    worst_det,
                    probes[index],
                    f"min |det(frame)| over {len(probes)} probe points "
                    f"(threshold {DET_TOLERANCE:g})",
                )
            )
        if checks[-1].passed:
            defects = gather(
                np.abs(block.c + block.c.transpose((0, 2, 1, 3)))
                .reshape(len(block.points), -1)
                .max(axis=1)
                for block in sweep(model, grid.points)
            )
            index = int(np.argmax(defects)) if len(defects) else 0
            worst = float(defects[index]) if len(defects) else 0.0
            checks.append(
                CheckResult(
                    "structure_antisymmetry",
                    worst <= ANTISYMMETRY_TOLERANCE,
                    worst,
                    grid.points[index] if grid.points else None,
                    f"max |C_ij^k + C_ji^k| over the grid "
                    f"(threshold {ANTISYMMETRY_TOLERANCE:g})",
                )
            )
    else:
        table = _constant_table(model)
        defect = float(np.max(np.abs(table + table.transpose((1, 0, 2)))))
        checks.append(
            CheckResult(
                "structure_antisymmetry",
                defect <= ANTISYMMETRY_TOLERANCE,
                defect,
                (),
                "antisymmetric completion of the stored constants",
            )
        )
        term1 = np.einsum("ijm,mkl->ijkl", table, table)
        term2 = np.einsum("jkm,mil->ijkl", table, table)
        term3 = np.einsum("kim,mjl->ijkl", table, table)
        jacobi = float(np.max(np.abs(term1 + term2 + term3)))
        checks.append(
            CheckResult(
                "jacobi_identity",
                jacobi <= JACOBI_TOLERANCE,
                jacobi,
                (),
                "max |cyclic sum C_ij^m C_mk^l| "
                f"(threshold {JACOBI_TOLERANCE:g})",
            )
        )
    return ModelDiagnostics(checks=tuple(checks))


def basic_field_check(
    residuals: np.ndarray, points: Sequence[tuple[float, ...]], tol: float = BASIC_TOLERANCE
) -> BasicFieldCheck:
    """Reduce per-point residuals (``FrameData.basic_residuals``) to the
    worst one and its first point; a non-finite residual raises
    DomainError."""
    require_finite(residuals, points, "basic-check residual")
    if not len(points):
        return BasicFieldCheck(passed=True, max_residual=0.0, worst_point=None, tolerance=tol)
    index = int(np.argmax(residuals))
    max_residual = float(residuals[index])
    return BasicFieldCheck(
        passed=max_residual <= tol,
        max_residual=max_residual,
        worst_point=points[index],
        tolerance=tol,
    )


def check_basic(
    model: FrameModel,
    split: FoliationSplit,
    field_spec: VectorFieldSpec,
    grid: Grid,
    tol: float = BASIC_TOLERANCE,
) -> BasicFieldCheck:
    """Test whether v is basic: the transverse part of [F_a, v] must
    vanish for every leafwise frame direction F_a, at every grid point."""
    residuals = gather(
        block.basic_residuals(split) for block in sweep(model, grid.points, field_spec)
    )
    return basic_field_check(residuals, grid.points, tol)


# --- model and field documents ---------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
    """Build a validated model and split from a parsed model document.

    Chart frames are probed for invertibility on a coarse lattice
    (cell centers plus corners); a singular probe raises
    SingularFrameError.  Schema violations raise SchemaError.
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
    except SingularFrameError:
        raise
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
        value = entry["value"]
        if isinstance(value, str):
            node = expr.parse(value)
            free = expr.variables(node) - set(params)
            if free:
                raise SchemaError(
                    f"structure-constant value {value!r} references undeclared {sorted(free)}"
                )
            value = expr.evaluate(node, params)
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
            elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
                row.append(expr.as_expr(entry))
            else:
                raise SchemaError(f"frame entry {entry!r} must be a string or number")
        rows.append(row)
    model = chart_model(
        name, periods, rows, parameters=parameters, dense_leaves=dense
    )
    points, dets = _probe_invertibility(model, sample_grid(model, PROBE_RESOLUTION))
    singular = np.abs(dets) < DET_TOLERANCE
    if singular.any():
        index = int(np.argmax(singular))
        raise SingularFrameError(points[index], float(dets[index]))
    return model


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
        if model.kind == CONSTANT_STRUCTURE:
            if not isinstance(entry, (int, float)):
                raise SchemaError(
                    "constant-structure field components must be plain numbers; "
                    f"component {k} is {entry!r}"
                )
        elif not isinstance(entry, (int, float, str)):
            raise SchemaError(f"field component {k} must be a number or string")
        components.append(entry)
    try:
        return vector_field(components, model)
    except (ExprError, ModelError) as exc:
        raise SchemaError(f"field document is invalid: {exc}") from exc


def model_to_document(model: FrameModel, split: FoliationSplit) -> dict:
    """Serialize to the model-file schema (1-based indices)."""
    if model.coordinate_wraps is not None and any(
        w is not None for w in model.coordinate_wraps
    ):
        raise ModelError("covering models cannot be serialized to a model file")
    document: dict = {
        "name": model.name,
        "kind": model.kind,
        "dim": model.dim,
        "leaf_indices": [i + 1 for i in split.leaf_ordered],
        "parameters": dict(model.parameters),
        "dense_leaves": model.dense_leaves,
    }
    if model.kind == CONSTANT_STRUCTURE:
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
