"""Exact analysis of integer hyperbolic matrices and the suspension models.

The characteristic polynomial is computed exactly over the integers
(Berkowitz's division-free algorithm, O(n^4) integer operations); real
roots are certified and isolated with Sturm sequences over rationals,
then refined by bisection on the sign of the polynomial.  An
admissible matrix (determinant one, all eigenvalues real, simple,
positive and different from one) yields a constant-structure model of
dimension n+1 whose frame bracket table is

    [E_0, E_i] = log(lambda_i) * E_i,   all other brackets zero,

with eigenvalues sorted ascending.  Eigen-directions are never
materialized: only the logarithms of the eigenvalues enter the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import FoliationSplit, FrameModel, constant_structure_model, foliation_split

MAX_DIM = 8


class SpectralError(Exception):
    """Root certification or exactness failure."""


class InadmissibleMatrixError(SpectralError):
    """The matrix cannot carry a suspension model."""


@dataclass(frozen=True)
class IsolatedRoot:
    value: float
    enclosure: tuple[int, int]  # integer interval containing the root


@dataclass(frozen=True)
class SpectralData:
    """Exact spectral summary of an admissible matrix."""

    char_poly: tuple[int, ...]  # descending, leading coefficient (-1)^n
    eigenvalues: tuple[float, ...]  # sorted ascending
    enclosures: tuple[tuple[int, int], ...]
    log_eigenvalues: tuple[float, ...]


@dataclass(frozen=True)
class MatrixCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class MatrixDiagnostics:
    admissible: bool
    checks: tuple[MatrixCheck, ...]
    char_poly: tuple[int, ...] | None
    roots: tuple[IsolatedRoot, ...] | None


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "2,0,-1;0,3,-1;-1,-1,1" into integer rows."""
    rows = []
    for row_text in text.split(";"):
        entries = []
        for entry in row_text.split(","):
            entry = entry.strip()
            try:
                entries.append(int(entry))
            except ValueError:
                raise SpectralError(
                    f"matrix entry {entry!r} is not an integer"
                ) from None
        rows.append(tuple(entries))
    return tuple(rows)


def format_matrix(matrix: Sequence[Sequence[int]]) -> str:
    return ";".join(",".join(str(entry) for entry in row) for row in matrix)


def _normalize(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    rows = tuple(tuple(entry for entry in row) for row in matrix)
    n = len(rows)
    if n < 1:
        raise SpectralError("matrix must be nonempty")
    if n > MAX_DIM:
        raise SpectralError(f"matrix dimension {n} exceeds the supported {MAX_DIM}")
    for row in rows:
        if len(row) != n:
            raise SpectralError(f"matrix must be square, got row of length {len(row)}")
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise SpectralError(f"matrix entry {entry!r} is not an integer")
    return rows


def char_poly(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact integer coefficients of det(A - xI), descending order.

    Berkowitz's division-free recurrence: with B the leading k x k block,
    r and c the rest of row and column k and a = A[k][k],
    det(xI - A_{k+1}) is the polynomial part of
    det(xI - B) * (x - a - sum_m r B^m c / x^(m+1)).
    The leading coefficient is (-1)^n.  Python integers are unbounded,
    so no overflow is possible.
    """
    rows = _normalize(matrix)
    n = len(rows)
    poly = [1]  # det(xI - B), descending
    for k in range(n):
        block = [r[:k] for r in rows[:k]]
        row, column = rows[k][:k], [r[k] for r in rows[:k]]
        toeplitz = [1, -rows[k][k]]  # x - a - r c / x - r B c / x^2 - ...
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(row, column)))
            column = [sum(b * c for b, c in zip(b_row, column)) for b_row in block]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    sign = (-1) ** n
    return tuple(sign * c for c in poly)


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant, as the constant term of det(A - xI)."""
    return char_poly(matrix)[-1]


def format_poly(coefficients: Sequence[int], variable: str = "x") -> str:
    """Human form of descending coefficients, e.g. -x^3+6x^2-9x+1."""
    degree = len(coefficients) - 1
    parts = []
    for offset, coeff in enumerate(coefficients):
        power = degree - offset
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        magnitude = abs(coeff)
        if power == 0:
            body = str(magnitude)
        else:
            head = "" if magnitude == 1 else str(magnitude)
            body = f"{head}{variable}" + (f"^{power}" if power > 1 else "")
        parts.append(f"{sign}{body}")
    return "".join(parts) if parts else "0"


# --- Sturm-sequence root isolation ------------------------------------------

def _frac_poly(coefficients_desc: Sequence[int]) -> list[Fraction]:
    ascending = [Fraction(c) for c in reversed(coefficients_desc)]
    while len(ascending) > 1 and ascending[-1] == 0:
        ascending.pop()
    return ascending


def _frac_eval(poly: list[Fraction], x: Fraction) -> Fraction:
    value = Fraction(0)
    for coeff in reversed(poly):
        value = value * x + coeff
    return value


def _frac_deriv(poly: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(poly)][1:] or [Fraction(0)]


def _frac_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= db and any(c != 0 for c in rem):
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        for i in range(len(b)):
            rem[shift + i] -= factor * b[i]
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
    return rem


def _sturm_chain(poly: list[Fraction]) -> list[list[Fraction]]:
    chain = [poly, _frac_deriv(poly)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        rem = _frac_rem(chain[-2], chain[-1])
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for poly in chain:
        value = _frac_eval(poly, x)
        if value != 0:
            signs.append(1 if value > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_eigenvalues(coefficients: Sequence[int]) -> tuple[IsolatedRoot, ...]:
    """Certified real roots of a polynomial with all-real simple roots.

    Roots are isolated by Sturm counts with integer-endpoint bisection,
    then refined to 1e-14 relative accuracy.  Raises SpectralError
    ("complex or repeated roots") when the real-root count falls short
    of the degree or the polynomial is not square-free.
    """
    poly = _frac_poly(coefficients)
    degree = len(poly) - 1
    if degree < 1:
        raise SpectralError("polynomial must have positive degree")
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:
        # the chain bottoms out at gcd(p, p'); nonconstant means repeated roots
        raise SpectralError("complex or repeated roots: polynomial is not square-free")
    bound = 1 + max(abs(c) for c in poly[:-1]) / abs(poly[-1])
    radius = Fraction(math.ceil(bound))
    total = _sign_variations(chain, -radius) - _sign_variations(chain, radius)
    if total < degree:
        raise SpectralError(
            f"complex or repeated roots: only {total} real roots for degree {degree}"
        )

    roots: list[Fraction | tuple[Fraction, Fraction]] = []
    queue: list[tuple[Fraction, Fraction, int]] = [(-radius, radius, total)]
    while queue:
        low, high, count = queue.pop()
        if count == 0:
            continue
        if count == 1:
            if _frac_eval(poly, high) == 0:
                roots.append(high)
            else:
                roots.append(_refine(poly, low, high))
            continue
        mid = _midpoint(low, high)
        left = _sign_variations(chain, low) - _sign_variations(chain, mid)
        queue.append((low, mid, left))
        queue.append((mid, high, count - left))

    isolated = []
    for root in sorted(roots, key=lambda r: r if isinstance(r, Fraction) else r[0]):
        if isinstance(root, Fraction):
            value = float(root)
            if root.denominator == 1:
                enclosure = (int(root), int(root))
            else:
                floor = root.numerator // root.denominator
                enclosure = (floor, floor + 1)
        else:
            low, high = root
            center = (low + high) / 2
            value = float(center)
            floor = center.numerator // center.denominator
            enclosure = (floor, floor + 1)
        isolated.append(IsolatedRoot(value=value, enclosure=enclosure))
    return tuple(isolated)


def _midpoint(low: Fraction, high: Fraction) -> Fraction:
    # prefer an integer split point to keep early enclosures integral
    floor_mid = (low + high) // 2
    if low < floor_mid < high:
        return Fraction(floor_mid)
    return (low + high) / 2


def _refine(poly: list[Fraction], low: Fraction, high: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (low, high], which holds exactly one root, a simple one,
    and has p(high) != 0, below 1e-14 relative width (in fact to the
    float resolution limit, 1e-16 relative).  p changes sign only at
    that root, so the sign of p(mid) says which half holds it."""
    positive_high = _frac_eval(poly, high) > 0
    while True:
        width = high - low
        scale = max(Fraction(1), abs(low), abs(high))
        if width <= scale * Fraction(1, 10**16):
            return low, high
        mid = (low + high) / 2
        value = _frac_eval(poly, mid)
        if value == 0:
            return mid, mid
        if (value > 0) == positive_high:
            high = mid
        else:
            low = mid


# --- admissibility and the suspension model ---------------------------------

def validate_suspension_matrix(matrix: Sequence[Sequence[int]]) -> MatrixDiagnostics:
    """Diagnostics: det = 1 exactly; eigenvalues real, simple, positive,
    distinct from 1.  For 2x2 matrices the trace condition (> 2) is also
    reported; it is equivalent to admissibility there."""
    checks: list[MatrixCheck] = []
    try:
        rows = _normalize(matrix)
    except SpectralError as exc:
        checks.append(MatrixCheck("square_integer", False, str(exc)))
        return MatrixDiagnostics(False, tuple(checks), None, None)
    checks.append(MatrixCheck("square_integer", True, f"{len(rows)}x{len(rows)} integer matrix"))
    coefficients = char_poly(rows)
    det = coefficients[-1]
    checks.append(
        MatrixCheck("determinant_one", det == 1, f"det = {det} (exact)")
    )
    roots: tuple[IsolatedRoot, ...] | None
    try:
        roots = real_eigenvalues(coefficients)
        checks.append(
            MatrixCheck(
                "eigenvalues_real_simple",
                True,
                "all eigenvalues real and simple (Sturm count equals degree)",
            )
        )
    except SpectralError as exc:
        roots = None
        checks.append(MatrixCheck("eigenvalues_real_simple", False, str(exc)))
    if roots is not None:
        positive = all(root.value > 0 for root in roots)
        checks.append(
            MatrixCheck(
                "eigenvalues_positive",
                positive,
                f"eigenvalues {[root.value for root in roots]}",
            )
        )
        # exact test: 1 is an eigenvalue iff p(1) = 0
        p_at_one = sum(coefficients)
        checks.append(
            MatrixCheck(
                "eigenvalues_not_one",
                p_at_one != 0,
                f"p(1) = {p_at_one} (exact)",
            )
        )
    if len(rows) == 2:
        trace = rows[0][0] + rows[1][1]
        checks.append(
            MatrixCheck(
                "trace_condition",
                trace > 2,
                f"trace = {trace} (admissible 2x2 matrices have trace > 2)",
            )
        )
    admissible = all(
        check.passed for check in checks if check.name != "trace_condition"
    )
    return MatrixDiagnostics(admissible, tuple(checks), coefficients, roots)


def spectral_data(matrix: Sequence[Sequence[int]]) -> SpectralData:
    """Exact spectral summary; raises InadmissibleMatrixError unless the
    matrix is suspension-admissible."""
    diagnostics = validate_suspension_matrix(matrix)
    if not diagnostics.admissible:
        reasons = "; ".join(
            f"{check.name}: {check.detail}"
            for check in diagnostics.checks
            if not check.passed
        )
        raise InadmissibleMatrixError(f"matrix is not admissible ({reasons})")
    assert diagnostics.char_poly is not None and diagnostics.roots is not None
    eigenvalues = tuple(root.value for root in diagnostics.roots)
    return SpectralData(
        char_poly=diagnostics.char_poly,
        eigenvalues=eigenvalues,
        enclosures=tuple(root.enclosure for root in diagnostics.roots),
        log_eigenvalues=tuple(math.log(value) for value in eigenvalues),
    )


def build_suspension(
    matrix: Sequence[Sequence[int]], leaf_index: int
) -> tuple[FrameModel, FoliationSplit]:
    """Suspension model of an admissible matrix, dim n+1.

    Frame index 0 is the suspension direction E_0; frame index i
    (1-based eigenvalue numbering, ascending) is the eigen-direction of
    lambda_i.  ``leaf_index`` selects which eigen-direction spans the
    one-dimensional leaves (1 <= leaf_index <= n).
    """
    data = spectral_data(matrix)
    n = len(data.eigenvalues)
    if not 1 <= leaf_index <= n:
        raise ValueError(f"leaf_index must be in 1..{n}, got {leaf_index}")
    parameters = {
        f"log_lambda_{i + 1}": value for i, value in enumerate(data.log_eigenvalues)
    }
    constants = [
        (0, i + 1, i + 1, value) for i, value in enumerate(data.log_eigenvalues)
    ]
    rows = _normalize(matrix)
    model = constant_structure_model(
        name=f"suspension({format_matrix(rows)})",
        dim=n + 1,
        constants=constants,
        parameters=parameters,
        dense_leaves=False,
        notes=(
            "models the compact quotient of the matrix suspension; "
            "compactness is a modeling assumption, not verified",
        ),
    )
    split = foliation_split(n + 1, {leaf_index})
    return model, split
