"""Seeded inputs, invocation batches and correctness oracles.

A workload is a fixed batch of CLI invocations, repeated with fresh
inputs.  Batch ``i`` of a run is drawn from ``random.Random`` seeded by
(workload, seed, i), so the same seed always yields the same files.
The program sees only the model, field and matrix inputs written here.

No two invocations in one run share a model or field document:
``connection._field_partials`` is an ``lru_cache`` keyed by field value,
and a CLI user, who starts a fresh process per invocation, never hits
it.  Every invocation carries an oracle that checks its JSON report
against a closed form or an independent computation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("chart-sweep", "green-analyze", "chart-3d", "exact-spectral")

#: Bounds used by the repository's own tests.
TOL_VALUE = 1e-10
TOL_TIGHT = 1e-12
#: The CLI's default sign tolerance for verdicts.
SIGN_TOL = 1e-9

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """A report disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, tol: float, what: str) -> None:
    require(
        isinstance(actual, (int, float)) and abs(actual - expected) <= tol,
        f"{what}: got {actual!r}, expected {expected!r} (tol {tol:g})",
    )


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``argv`` for ``transdiv.cli.main`` (without the
    report options), the grid points its sweeps visit, and its oracle."""

    subcommand: str
    argv: tuple[str, ...]
    points: int
    check: Callable[[dict], None]


# --- periodic functions with closed-form derivatives -------------------------

@dataclass(frozen=True)
class Trig:
    """c0 + a*sin(2 pi k x) + b*cos(2 pi m x)."""

    c0: float
    a: float
    k: int
    b: float
    m: int

    def text(self, var: str) -> str:
        # signs go into the operators, so every draw parses to a tree of
        # the same shape and costs the same to evaluate
        text = f"{self.a!r}*sin(2*pi*{self.k}*{var})"
        if self.c0:
            text = f"{self.c0!r} + {text}"
        sign = "-" if self.b < 0 else "+"
        return f"{text} {sign} {abs(self.b)!r}*cos(2*pi*{self.m}*{var})"

    def d0(self, x: float) -> float:
        return (
            self.c0
            + self.a * math.sin(TWO_PI * self.k * x)
            + self.b * math.cos(TWO_PI * self.m * x)
        )

    def d1(self, x: float) -> float:
        return (
            self.a * TWO_PI * self.k * math.cos(TWO_PI * self.k * x)
            - self.b * TWO_PI * self.m * math.sin(TWO_PI * self.m * x)
        )

    def d2(self, x: float) -> float:
        return (
            -self.a * (TWO_PI * self.k) ** 2 * math.sin(TWO_PI * self.k * x)
            - self.b * (TWO_PI * self.m) ** 2 * math.cos(TWO_PI * self.m * x)
        )


def draw_trig(rng: random.Random, offset: bool = False) -> Trig:
    """Frequencies 2 or 3 (a factor 1 would be simplified away by
    differentiation, changing the tree), a > 0, b of either sign."""
    return Trig(
        c0=round(rng.uniform(0.1, 1.0), 6) if offset else 0.0,
        a=round(rng.uniform(0.05, 0.3), 6),
        k=rng.randint(2, 3),
        b=round(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3), 6),
        m=rng.randint(2, 3),
    )


def cell_centres(n: int, period: float = 1.0) -> list[float]:
    return [(j + 0.5) * period / n for j in range(n)]


# --- input files -------------------------------------------------------------

class Inputs:
    """Writes one run's input files and keeps every document distinct.

    ``digest`` hashes every file and argument list in the order written,
    so two runs with the same seed can be shown to use the same inputs.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.seen: set = set()
        self.digest = hashlib.sha256()
        self.count = 0

    def unique(self, draw: Callable[[], object]) -> object:
        for _ in range(10_000):
            value = draw()
            if value not in self.seen:
                self.seen.add(value)
                return value
        raise RuntimeError("input pool exhausted; widen the generator")

    def write(self, stem: str, document: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:05d}-{stem}.json")
        text = json.dumps(document, indent=1, sort_keys=True)
        with open(path, "w") as handle:
            handle.write(text)
        self.digest.update(text.encode())
        return path

    def record(self, argv: tuple[str, ...]) -> None:
        # the directory differs between processes, so paths are hashed
        # relative to it
        prefix = os.path.join(self.directory, "")
        self.digest.update("\0".join(arg.removeprefix(prefix) for arg in argv).encode())

    def scratch(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.directory, f"{self.count:05d}-{stem}")


def _chart(name: str, dim: int, frame: list[str], dense: bool = False) -> dict:
    return {
        "name": name,
        "kind": "chart",
        "dim": dim,
        "leaf_indices": [1],
        "parameters": {},
        "dense_leaves": dense,
        "periods": [1.0] * dim,
        "frame": frame,
    }


def warped_2d(inputs: Inputs, rng: random.Random) -> tuple[str, Trig]:
    """T^2 with frame {e^{-f(x2)} d_x1, d_x2}, leaves along E_1."""
    f = inputs.unique(lambda: ("warp2", draw_trig(rng)))[1]
    path = inputs.write("warped2", _chart("warped-2d", 2, [f"exp(-({f.text('x2')}))", "0", "0", "1"]))
    return path, f


def warped_3d(inputs: Inputs, rng: random.Random) -> tuple[str, Trig, Trig]:
    """T^3 with frame diag(e^{-f(x3)}, e^{-h(x3)}, 1), leaves along E_1."""
    _, f, h = inputs.unique(lambda: ("warp3", draw_trig(rng), draw_trig(rng)))
    frame = [
        f"exp(-({f.text('x3')}))", "0", "0",
        "0", f"exp(-({h.text('x3')}))", "0",
        "0", "0", "1",
    ]
    return inputs.write("warped3", _chart("warped-3d", 3, frame)), f, h


def kronecker(inputs: Inputs, rng: random.Random) -> str:
    """Flat T^2 with leaves along a seeded irrational-looking angle."""
    angle = inputs.unique(lambda: ("angle", round(rng.uniform(0.1, 1.4), 9)))[1]
    c, s = f"cos({angle!r})", f"sin({angle!r})"
    return inputs.write("kronecker", _chart("kronecker", 2, [c, s, f"-{s}", c], dense=True))


def basic_field(inputs: Inputs, rng: random.Random) -> tuple[str, Trig]:
    """v = s(x2) E_2, basic on every warped torus; div^Q v = s'(x2)."""
    s = inputs.unique(lambda: ("field", draw_trig(rng, offset=True)))[1]
    return inputs.write("field", {"components": ["0", s.text("x2")]}), s


# --- oracles for the chart workloads -----------------------------------------

def _classify(low: float, high: float) -> str:
    if max(abs(low), abs(high)) <= SIGN_TOL:
        return "IdenticallyZero"
    if low >= -SIGN_TOL and high > SIGN_TOL:
        return "NonTautWitness"
    if high <= SIGN_TOL and low < -SIGN_TOL:
        return "NegatedNonTautWitness"
    return "MixedSign"


def check_sweep(report: dict, closed_form: Callable[[float], float], coord: int, axis: list[float]) -> str:
    """Extremes of div^Q over the grid, and at the reported points, match
    ``closed_form`` of coordinate ``coord``; returns the verdict."""
    values = [closed_form(x) for x in axis]
    low, high = min(values), max(values)
    close(report["min_value"], low, TOL_VALUE, "min of div^Q")
    close(report["max_value"], high, TOL_VALUE, "max of div^Q")
    close(report["min_value"], closed_form(report["argmin"][coord]), TOL_VALUE, "div^Q at argmin")
    close(report["max_value"], closed_form(report["argmax"][coord]), TOL_VALUE, "div^Q at argmax")
    verdict = report["verdict"]
    require(verdict == _classify(low, high), f"verdict {verdict}, closed form gives {_classify(low, high)}")
    return verdict


def _entries(report: dict, key: str) -> dict:
    return {(e["i"], e["j"], e["k"]): e["value"] for e in report[key]}


def check_analyze(report: dict, dim: int, expected_c: dict, kappa: list[float]) -> None:
    require(report["validation"]["passed"], "model validation failed")
    scale = max([1.0] + [abs(v) for v in expected_c.values()])
    got = _entries(report, "structure_functions")
    nonzero = {key: value for key, value in expected_c.items() if value != 0.0}
    require(set(got) == set(nonzero), f"nonzero C entries {sorted(got)}, expected {sorted(nonzero)}")
    for key, value in nonzero.items():
        close(got[key], value, TOL_TIGHT * scale, f"C_{key}")
    comps = report["mean_curvature"]["components"]
    require(len(comps) == dim, "mean curvature has the wrong length")
    for k in range(dim):
        close(comps[k], kappa[k], TOL_TIGHT * scale, f"kappa^{k + 1}")


# --- exact and numeric references for the spectral workload -------------------

def bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss 1968), exact over Z."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def shifted_det(matrix: tuple[tuple[int, ...], ...], x: int) -> int:
    return bareiss_det(
        [[value - (x if i == j else 0) for j, value in enumerate(row)] for i, row in enumerate(matrix)]
    )


def _unitriangular_inverse(b: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unit lower-triangular integer matrix."""
    n = len(b)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(b[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _gram(b: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(b)
    return tuple(tuple(sum(b[i][k] * b[j][k] for k in range(n)) for j in range(n)) for i in range(n))


def reference_eigenvalues(b: list[list[int]]) -> list[float]:
    """Ascending eigenvalues of A = B B^T to near full relative precision.

    ``eigvalsh`` is accurate relative to ||A||, so eigenvalues below 1
    are taken as reciprocals of the large eigenvalues of the exact
    integer inverse A^{-1} = B^{-T} B^{-1}.
    """
    a = np.array(_gram(b), dtype=float)
    inverse = np.array(_gram([list(r) for r in zip(*_unitriangular_inverse(b))]), dtype=float)
    # the Gram of B^{-T} is B^{-T} B^{-1} = A^{-1}
    large = np.linalg.eigvalsh(a)
    small = 1.0 / np.linalg.eigvalsh(inverse)[::-1]
    return [float(s) if s < 1.0 else float(l) for s, l in zip(small, large)]


#: Off-diagonal range of B by dimension, wide enough that a run never
#: exhausts the distinct admissible matrices.
_ENTRY_RANGE = {2: 300, 3: 4}


def draw_matrix(rng: random.Random, n: int):
    """A = B B^T with B unit lower-triangular: symmetric, det 1, positive
    spectrum.  Redrawn until the spectrum is simple and avoids 1, and
    until A has no zero entry: cofactor expansion skips zero entries, so
    dense matrices make every draw of one size cost the same."""
    r = _ENTRY_RANGE.get(n, 2)
    for _ in range(10_000):
        b = [[1 if i == j else (rng.randint(-r, r) if j < i else 0) for j in range(n)] for i in range(n)]
        matrix = _gram(b)
        if any(value == 0 for row in matrix for value in row) or shifted_det(matrix, 1) == 0:
            continue
        eigenvalues = reference_eigenvalues(b)
        gaps = [hi / lo - 1.0 for lo, hi in zip(eigenvalues, eigenvalues[1:])]
        if min(gaps) > 1e-6:
            return matrix, tuple(eigenvalues)
    raise RuntimeError(f"no admissible {n}x{n} matrix found")


def _poly_at(coefficients_desc: list[int], x: int) -> int:
    value = 0
    for c in coefficients_desc:
        value = value * x + c
    return value


def check_spectral(report: dict, matrix, eigenvalues: list[float]) -> None:
    n = len(matrix)
    require(report["admissible"] is True, "matrix reported inadmissible")
    coefficients = report["char_poly"]["coefficients_descending"]
    require(len(coefficients) == n + 1, "char_poly has the wrong degree")
    for x in range(n + 1):
        require(
            _poly_at(coefficients, x) == shifted_det(matrix, x),
            f"char_poly({x}) differs from the Bareiss det(A - {x} I)",
        )
    got = report["eigenvalues"]
    require(len(got) == n, "wrong number of eigenvalues")
    for value, expected in zip(got, eigenvalues):
        close(value, expected, 1e-9 * expected, "eigenvalue")
    close(report["eigenvalue_product"], 1.0, TOL_VALUE, "eigenvalue product")


def check_suspend(report: dict, n: int, leaf: int, eigenvalues: list[float], path: str) -> None:
    require(report["dim"] == n + 1 and report["leaf_index"] == leaf, "suspension shape")
    logs = report["log_eigenvalues"]
    for i, value in enumerate(eigenvalues):
        close(logs[f"log_lambda_{i + 1}"], math.log(value), TOL_VALUE, f"log lambda_{i + 1}")
    with open(path) as handle:
        document = json.load(handle)
    require(document["kind"] == "constant_structure" and document["dim"] == n + 1, "written model")


# --- batches -----------------------------------------------------------------

def _chart_sweep(inputs: Inputs, rng: random.Random, full: bool) -> list[Invocation]:
    # A fold-2 cover at grid n samples the base at n/2 points along the
    # unrolled coordinate.  Below 4 such points, warp frequencies 2 and 3
    # alias (at 2 points the sampled -f'' can have a single sign), so the
    # base and lifted verdicts differ by sampling alone.
    n, n_cover = (64, 32) if full else (8, 8)
    axis = cell_centres(n)
    out = []

    path, f = warped_2d(inputs, rng)

    def alvarez_2d(report, f=f):
        verdict = check_sweep(report, lambda y: -f.d2(y), 1, axis)
        require(verdict == "MixedSign", f"verdict {verdict}, expected MixedSign")

    out.append(Invocation("taut-check", ("taut-check", path, "--field", "alvarez", "--grid", str(n)), n * n, alvarez_2d))

    path, _ = warped_2d(inputs, rng)
    field, s = basic_field(inputs, rng)

    def file_field(report, s=s):
        verdict = check_sweep(report, s.d1, 1, axis)
        require(verdict == "MixedSign", f"verdict {verdict}, expected MixedSign")

    out.append(Invocation("taut-check", ("taut-check", path, "--field", field, "--grid", str(n)), n * n, file_field))

    path = kronecker(inputs, rng)

    def volume(report):
        require(report["preserved"] is True, "volume form not preserved")
        require(report["divergence_verdict"] == "IdenticallyZero", "divergence not identically zero")

    out.append(Invocation("volume-check", ("volume-check", path, "--field", "alvarez", "--grid", str(n)), n * n, volume))

    path, _ = warped_2d(inputs, rng)
    coord = rng.randint(1, 2)

    def cover(report):
        require(report["verdicts_agree"] is True, "base and lifted verdicts differ")
        require(report["base_verdict"] == "MixedSign", "base verdict is not MixedSign")
        require(report["max_pointwise_difference"] <= TOL_TIGHT, "lift differs pointwise")

    # base sweep, lifted sweep, and the pointwise comparison over the lift
    out.append(Invocation(
        "cover",
        ("cover", path, "--field", "alvarez", "--coord", str(coord), "--fold", "2", "--grid", str(n_cover)),
        3 * n_cover * n_cover,
        cover,
    ))
    return out


def _green_analyze(inputs: Inputs, rng: random.Random, full: bool) -> list[Invocation]:
    nx, ny, n = (16, 256, 64) if full else (2, 128, 4)
    path, f = warped_2d(inputs, rng)
    field, s = basic_field(inputs, rng)

    def green(report, f=f, s=s):
        # cell-centred sums with density 1/|det| = e^{f}; x1 integrates to 1
        ys = cell_centres(ny)
        lhs = math.fsum(s.d1(y) * math.exp(f.d0(y)) for y in ys) / ny
        rhs = math.fsum(-s.d0(y) * f.d1(y) * math.exp(f.d0(y)) for y in ys) / ny
        require(report["abs_error"] <= TOL_VALUE, f"Green identity error {report['abs_error']!r}")
        close(report["lhs"], lhs, TOL_VALUE, "integral of div^Q v")
        close(report["rhs"], rhs, TOL_VALUE, "integral of g(v, kappa)")

    out = [Invocation("green-check", ("green-check", path, "--field", field, "--grid", f"{nx},{ny}"), nx * ny, green)]

    path, f = warped_2d(inputs, rng)
    y0 = 0.5 / n

    def analyze(report, f=f):
        slope = f.d1(y0)
        check_analyze(report, 2, {(1, 2, 1): slope, (2, 1, 1): -slope}, [0.0, -slope])

    out.append(Invocation("analyze", ("analyze", path, "--grid", str(n)), n * n, analyze))
    return out


def _chart_3d(inputs: Inputs, rng: random.Random, full: bool) -> list[Invocation]:
    n = 16 if full else 2
    axis = cell_centres(n)
    path, f, h = warped_3d(inputs, rng)

    def alvarez_3d(report, f=f, h=h):
        check_sweep(report, lambda z: -f.d2(z) - f.d1(z) * h.d1(z), 2, axis)

    out = [Invocation("taut-check", ("taut-check", path, "--field", "alvarez", "--grid", str(n)), n ** 3, alvarez_3d)]

    path, f, h = warped_3d(inputs, rng)
    z0 = 0.5 / n

    def analyze(report, f=f, h=h):
        df, dh = f.d1(z0), h.d1(z0)
        expected = {(1, 3, 1): df, (3, 1, 1): -df, (2, 3, 2): dh, (3, 2, 2): -dh}
        check_analyze(report, 3, expected, [0.0, 0.0, -df])

    out.append(Invocation("analyze", ("analyze", path, "--grid", str(n)), n ** 3, analyze))
    return out


def _exact_spectral(inputs: Inputs, rng: random.Random, full: bool) -> list[Invocation]:
    out = []
    for n in range(2, 9 if full else 4):
        matrix, eigenvalues = inputs.unique(lambda: draw_matrix(rng, n))
        text = ";".join(",".join(str(v) for v in row) for row in matrix)
        leaf = rng.randint(1, n)
        model = inputs.scratch(f"suspension{n}.json")

        def spectral(report, matrix=matrix, eigenvalues=eigenvalues):
            check_spectral(report, matrix, eigenvalues)

        def suspend(report, n=n, leaf=leaf, eigenvalues=eigenvalues, model=model):
            check_suspend(report, n, leaf, eigenvalues, model)

        def taut(report, value=math.log(eigenvalues[leaf - 1]) ** 2):
            require(report["verdict"] == "NonTautWitness", f"verdict {report['verdict']}")
            close(report["min_value"], value, TOL_VALUE, "div^Q tau, min")
            close(report["max_value"], value, TOL_VALUE, "div^Q tau, max")

        out.append(Invocation("spectral", ("spectral", "--matrix", text), 0, spectral))
        out.append(Invocation("suspend", ("suspend", "--matrix", text, "--leaf", str(leaf), "-o", model), 0, suspend))
        out.append(Invocation("taut-check", ("taut-check", model, "--field", "alvarez"), 1, taut))
    return out


_BUILDERS = {
    "chart-sweep": _chart_sweep,
    "green-analyze": _green_analyze,
    "chart-3d": _chart_3d,
    "exact-spectral": _exact_spectral,
}


def batch(workload: str, seed: int, index: int, inputs: Inputs, full: bool = True) -> list[Invocation]:
    """Invocations of batch ``index``; ``full=False`` gives the same
    subcommands on tiny inputs, used to warm code paths before timing."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    invocations = _BUILDERS[workload](inputs, rng, full)
    for invocation in invocations:
        inputs.record(invocation.argv)
    return invocations
