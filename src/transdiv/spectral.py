"""Exact analysis of integer hyperbolic matrices and the suspension models.

The characteristic polynomial is computed exactly over the integers
(Berkowitz's division-free algorithm, O(n^4) integer operations).  Real
roots are certified and isolated by an integer Sturm chain, built from
sign-preserving pseudo-remainders and evaluated at dyadic points
m / 2^k, then refined on the sign of the polynomial by a search over
the floats and the half-way points between them, which ends at the
correctly rounded float of each root.  A root whose float would be an
infinity is refused (SpectralError), before any isolation where the
Sturm counts at -+2^1024 show it.  Float guesses of the roots
(Laguerre's iteration, in pure Python) only choose where isolation cuts
and where the search starts; every decision is the sign of an exact
integer, so the certified roots do not depend on them.  No fractions,
no NumPy and no model layer: ``build_suspension`` writes its model as a
document, which ``model.load_model`` reads like any model file.  An
admissible matrix (determinant one, all eigenvalues real, simple,
positive and different from one) yields a constant-structure model of
dimension n+1 whose frame bracket table is

    [E_0, E_i] = log(lambda_i) * E_i,   all other brackets zero,

with eigenvalues sorted ascending.  Eigen-directions are never
materialized: only the logarithms of the eigenvalues enter the metric.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .records import CheckResult, InadmissibleMatrixError, SpectralError

MAX_DIM = 8


@dataclass(frozen=True)
class IsolatedRoot:
    value: float
    enclosure: tuple[int, int]  # integer interval containing the root; (r, r) for a root r


@dataclass(frozen=True)
class MatrixDiagnostics:
    admissible: bool
    checks: tuple[CheckResult, ...]
    char_poly: tuple[int, ...] | None
    roots: tuple[IsolatedRoot, ...] | None


# ASCII digits only: int() also reads "1_000" and non-ASCII digits
_INTEGER = re.compile("[+-]?[0-9]+")


def _read_integer(text: str) -> int | None:
    """The integer that ``text`` spells in ASCII digits (``_INTEGER``),
    signed and spaced as int() reads it, or None; also None past the
    digits that int() converts (``sys.get_int_max_str_digits()``)."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse "2,0,-1;0,3,-1;-1,-1,1" into integer rows."""
    rows = []
    for row_text in text.split(";"):
        entries = []
        for entry in row_text.split(","):
            value = _read_integer(entry)
            if value is None:
                raise SpectralError(f"matrix entry {entry.strip()!r} is not an integer")
            entries.append(value)
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
            toeplitz.append(-sum(map(operator.mul, row, column)))
            column = [sum(map(operator.mul, b_row, column)) for b_row in block]
        poly = [sum(map(operator.mul, toeplitz[i::-1], poly)) for i in range(k + 2)]
    sign = (-1) ** n
    return tuple(sign * c for c in poly)


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant, as the constant term of det(A - xI)."""
    return char_poly(matrix)[-1]


def format_poly(coefficients: Sequence[int]) -> str:
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
            body = f"{head}x" + (f"^{power}" if power > 1 else "")
        parts.append(f"{sign}{body}")
    return "".join(parts) if parts else "0"


# --- Sturm-sequence root isolation over the integers ------------------------
#
# Polynomials are ascending lists of Python integers.  Every point that
# isolation and refinement visit is a dyadic rational m / 2^k, held as
# the integer pair (m, k), so no step needs fractions (integer Sturm
# sequences as in Yap, Fundamental Problems of Algorithmic Algebra,
# OUP 2000, ch. 7).

def _int_poly(coefficients_desc: Sequence[int]) -> list[int]:
    # Python ints: a fixed-width integer would wrap in the Horner sums
    try:
        ascending = [operator.index(c) for c in reversed(coefficients_desc)]
    except TypeError:
        raise SpectralError("polynomial coefficients must be integers") from None
    while len(ascending) > 1 and ascending[-1] == 0:
        ascending.pop()
    return ascending


def _sign_at(poly: list[int], m: int, k: int) -> int:
    """Sign of p(m / 2^k), read off the integer 2^(k deg p) p(m / 2^k)
    = sum_i c_i m^i 2^(k (deg p - i)), by homogeneous Horner."""
    value = poly[-1]
    shift = 0
    for coeff in reversed(poly[:-1]):
        shift += k
        value = value * m + (coeff << shift)
    return (value > 0) - (value < 0)


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a positive integer, content removed.

    Each reduction step scales the dividend by |lc(b)|, not by lc(b),
    so the result has the signs of the remainder over the rationals."""
    rem = list(a)
    db = len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(rem) - 1 >= db and any(rem):
        shift = len(rem) - 1 - db
        factor = sign * rem[-1]
        rem = [scale * c for c in rem]
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    content = math.gcd(*rem)
    return [c // content for c in rem] if content > 1 else rem


def _sturm_chain(poly: list[int]) -> list[list[int]]:
    """p, p', then negated pseudo-remainders: each member is a positive
    multiple of the Sturm chain over the rationals, so every sign
    variation count is the same."""
    chain = [poly, [i * c for i, c in enumerate(poly)][1:]]
    while True:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if rem == [0]:
            return chain
        chain.append([-c for c in rem])


def _sign_variations(chain: list[list[int]], m: int, k: int) -> int:
    signs = [s for s in (_sign_at(poly, m, k) for poly in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


#: Cap on Laguerre steps per root; a few suffice when every root is real.
_LAGUERRE_STEPS = 60


def _float_roots(poly: list[int]) -> list[float]:
    """Float guesses of the roots of p, whose roots are all real.

    Each root in turn comes from Laguerre's iteration from 0 on the
    float coefficients and is divided out (deflation); each guess then
    takes one Newton step on the full polynomial.  When every root is
    real, Laguerre's iteration converges to a root from any start
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965, ch. 7), and
    ``real_eigenvalues`` asks for guesses only after a Sturm count has
    shown that.  Never raises: fewer than the degree when a denominator
    vanishes, and any of them may be off or not finite.

    When a coefficient overflows a float, the iteration runs on
    p(2^s y), whose roots are those of p divided by 2^s, with s from the
    coefficients' bit lengths: the slope of the Newton polygon's upper
    edge that ends at the leading term, so the largest roots of p land
    near 1 (the scaling that starts the Aberth iteration, Bini, Numer.
    Algorithms 13, 1996)."""
    try:
        coefficients = [float(c) for c in poly]
        scale = 0
    except OverflowError:
        degree, lead = len(poly) - 1, poly[-1].bit_length()
        scale = max(
            ((abs(c).bit_length() - lead) // (degree - i) for i, c in enumerate(poly[:-1]) if c),
            default=0,
        )
        # 2^(-s n) or 1 times p(2^s y), as integers; the quotient by a
        # power of two rounds each to a float of magnitude at most 1
        scaled = [c << (scale * i - min(scale, 0) * degree) for i, c in enumerate(poly)]
        top = 1 << max(abs(c).bit_length() for c in scaled)
        coefficients = [c / top for c in scaled]
    # divided by a power of two near the largest, so that p', p'' and
    # their squares overflow later; the roots are the same
    exponent = math.frexp(max(map(abs, coefficients)))[1]
    coefficients = [math.ldexp(c, -exponent) for c in coefficients]
    roots: list[float] = []
    remaining = coefficients
    try:
        while len(remaining) > 1:
            roots.append(_laguerre(remaining))
            remaining = _deflated(remaining, roots[-1])
    except ZeroDivisionError:
        pass
    return [_scaled(_polished(coefficients, root), scale) for root in roots]


def _scaled(y: float, scale: int) -> float:
    """y * 2^scale, an infinity of y's sign past the float range."""
    try:
        return math.ldexp(y, scale)
    except OverflowError:
        return math.copysign(math.inf, y)


def _horner(c: list[float], x: float) -> tuple[float, float, float]:
    """p(x), p'(x) and p''(x) / 2 of ascending float coefficients."""
    p, dp, ddp = c[-1], 0.0, 0.0
    for coeff in reversed(c[:-1]):
        ddp = ddp * x + dp
        dp = dp * x + p
        p = p * x + coeff
    return p, dp, ddp


def _laguerre(c: list[float]) -> float:
    """A root of p by Laguerre's iteration from 0, in the form
    x -= n p / (p' +- sqrt((n-1) ((n-1) p'^2 - n p p''))), which divides
    by nothing that vanishes at a simple root."""
    n = len(c) - 1
    x = 0.0
    for _ in range(_LAGUERRE_STEPS):
        p, dp, ddp = _horner(c, x)
        root = math.sqrt(max((n - 1) * ((n - 1) * dp * dp - 2 * n * p * ddp), 0.0))
        step = n * p / (dp + root if dp >= 0 else dp - root)
        x -= step
        # convergence is cubic, so after a step this small the error is
        # far below it; the Newton step on the full polynomial does the rest
        if not abs(step) > 1e-6 * abs(x):  # also stops at a NaN
            break
    return x


def _deflated(c: list[float], root: float) -> list[float]:
    """The quotient of p by (x - root), by synthetic division."""
    quotient = [0.0] * (len(c) - 1)
    carry = c[-1]
    for i in range(len(c) - 2, -1, -1):
        quotient[i] = carry
        carry = c[i] + carry * root
    return quotient


def _polished(c: list[float], x: float) -> float:
    """x after one Newton step on p, unless the step is not finite."""
    p, dp, _ = _horner(c, x)
    try:
        y = x - p / dp
    except ZeroDivisionError:
        return x
    return y if math.isfinite(y) else x


def _dyadic(x: float) -> tuple[int, int]:
    """(m, j) with j >= 0 and x = m / 2^j exactly."""
    m, d = x.as_integer_ratio()
    return m, d.bit_length() - 1


#: Every root whose float is finite lies in (-_FLOAT_BOUND, _FLOAT_BOUND].
_FLOAT_BOUND = 2**1024

_BEYOND_FLOAT_RANGE = "an eigenvalue is beyond the float range (above 1.8e308)"


def real_eigenvalues(coefficients: Sequence[int]) -> tuple[IsolatedRoot, ...]:
    """Certified real roots of an integer polynomial with all-real simple roots.

    Float guesses of the roots (``_float_roots``, the finite ones) only
    choose points: isolation first cuts (-R, R], R a root bound, at the
    midpoints between consecutive sorted guesses, and refinement starts
    its search at the guess inside a root's interval.  Every decision is
    an exact integer sign (a Sturm count or a Horner sum), so the result
    is the same bit for bit whatever the guesses are, or without any.
    Roots are isolated by integer Sturm counts, splitting at integers
    while an interval is wider than one and at dyadic half-way points
    after that.  Each isolated root is then refined (``_refine``) by a
    search over the floats and the half-way points between them, which
    hits the root or brackets it between two neighbours, and, where
    those are more than 1 apart, by the same search over the integers
    between them.  A value is the correctly rounded float of the root:
    ties go to even, and a root that rounds to zero gets a zero of its
    sign.  The enclosure of an integer root r is (r, r); any other root
    gets (m, m + 1), m its floor.  Raises SpectralError ("complex or
    repeated roots") when the real-root count falls short of the degree
    or the polynomial is not square-free, and SpectralError
    (``_BEYOND_FLOAT_RANGE``) when a root's float would be an infinity:
    where R exceeds 2^1024, two more Sturm counts at -+2^1024 decide
    that before any guess or isolation, and a root in (2^1024 - 2^970,
    2^1024], which rounds up to an infinity, is refused as it is rounded.
    """
    poly = _int_poly(coefficients)
    if len(poly) < 2:
        raise SpectralError("polynomial must have positive degree")
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:
        # the chain bottoms out at gcd(p, p'); nonconstant means repeated roots
        raise SpectralError("complex or repeated roots: polynomial is not square-free")
    radius, degree = _cauchy_radius(poly), len(poly) - 1
    low_variations, high_variations = (_sign_variations(chain, end, 0) for end in (-radius, radius))
    real = low_variations - high_variations
    if real < degree:
        raise SpectralError(
            f"complex or repeated roots: only {real} real roots for degree {degree}"
        )
    if radius > _FLOAT_BOUND:
        below, above = (_sign_variations(chain, end, 0) for end in (-_FLOAT_BOUND, _FLOAT_BOUND))
        if below - above < degree:
            raise SpectralError(_BEYOND_FLOAT_RANGE)
    guesses = sorted(g for g in _float_roots(poly) if math.isfinite(g))
    cuts = [(-radius, 0)]  # increasing dyadics (m, j), the point m / 2^j
    for a, b in zip(guesses, guesses[1:]):
        (m1, j1), (m2, j2) = _dyadic(a), _dyadic(b)
        j = max(j1, j2)
        m = (m1 << (j - j1)) + (m2 << (j - j2))  # the midpoint, over 2^(j+1)
        last, i = cuts[-1]
        if last << (j + 1) < m << i and m < radius << (j + 1):
            cuts.append((m, j + 1))
    cuts.append((radius, 0))
    inner = [_sign_variations(chain, m, j) for m, j in cuts[1:-1]]
    variations = [low_variations, *inner, high_variations]
    starts = [_place(*_dyadic(guess)) for guess in guesses]

    roots: list[IsolatedRoot] = []
    queue = []
    for (low, i), (high, j), v_low, v_high in zip(cuts, cuts[1:], variations, variations[1:]):
        k = max(i, j)
        queue.append((low << (k - i), high << (k - j), k, v_low - v_high, v_low))
    while queue:
        low, high, k, count, low_variations = queue.pop()
        if count == 0:
            continue
        if count == 1:
            # p has the sign of its leading coefficient above every root and
            # changes sign at each; by the Sturm counts, the roots above
            # this one number low_variations - 1 - high_variations
            roots_above = low_variations - 1 - high_variations
            sign_above = (1 if poly[-1] > 0 else -1) * (-1) ** roots_above
            roots.append(_refine(poly, low, high, k, sign_above, starts))
            continue
        low, mid, high, k = _midpoint(low, high, k)
        mid_variations = _sign_variations(chain, mid, k)
        left = low_variations - mid_variations
        queue.append((low, mid, k, left, low_variations))
        queue.append((mid, high, k, count - left, mid_variations))

    # the queue is a stack that pops the upper half of a split first, so
    # the roots come in descending order
    return tuple(reversed(roots))


def _cauchy_radius(poly: list[int]) -> int:
    """Cauchy's bound, an integer R: every root of p lies in (-R, R)."""
    return 1 - (-max(abs(c) for c in poly[:-1]) // abs(poly[-1]))


def _midpoint(low: int, high: int, k: int) -> tuple[int, int, int, int]:
    """Split (low / 2^k, high / 2^k] at an integer strictly inside, which
    keeps early enclosures integral, else at the half-way point.
    Returns (low, mid, high, k) over one common exponent k."""
    floor_mid = (low + high) >> (k + 1)
    if low < floor_mid << k < high:
        return low, floor_mid << k, high, k
    return 2 * low, low + high, 2 * high, k + 1


def _rounded(m: int, k: int) -> float:
    """The float nearest to m / 2^k; raises SpectralError where that is
    an infinity."""
    try:
        return m / (1 << k)
    except OverflowError:
        raise SpectralError(_BEYOND_FLOAT_RANGE) from None


def _point(place: int) -> tuple[int, int]:
    """(m, j) with j >= 0 such that m / 2^j is the point at ``place`` on
    the lattice of the floats and the half-way points between them.

    Place 2i is the float whose bit pattern, read as an integer, is i,
    place 2i + 1 is half-way from it to the next float, and place -p is
    the negative of place p.  The exponent goes on growing past the
    largest float, so 2^1024 is at the place of the bit pattern of inf
    and every real number lies between two places."""
    if place < 0:
        m, j = _point(-place)
        return -m, j
    exponent = place >> 53 or 1  # the biased exponent; 1 for subnormals
    m = place - ((exponent - 1) << 53)  # twice the significand, + 1 half-way
    j = 1076 - exponent
    return (m, j) if j > 0 else (m << -j, 0)


def _place(m: int, j: int, up: bool = False) -> int:
    """The largest place whose point is at most m / 2^j, or with ``up``
    the smallest whose point is at least m / 2^j: the inverse of
    ``_point`` where m / 2^j is a point."""
    if m <= 0:
        return -_place(-m, j, not up) if m else 0
    exponent = m.bit_length() - j + 1022
    if exponent < 1:
        exponent = 1  # subnormal
    shift = exponent + j - 1076
    if shift <= 0:
        return ((exponent - 1) << 53) + (m << -shift)
    return ((exponent - 1) << 53) + (-(-m >> shift) if up else m >> shift)


def _search(
    poly: list[int],
    sign_above: int,
    point: Callable[[int], tuple[int, int]],
    lo: int,
    hi: int,
    start: int | None,
) -> tuple[int, int]:
    """The places (lo, hi) of a lattice next to the root of p: lo == hi
    when the root is the point at that place, else hi == lo + 1 and the
    root lies strictly between their points.

    ``point`` maps a place to its point (m, j), the number m / 2^j.  The
    root lies strictly between the points of the places lo < hi given,
    p has no other root there, and above it p has the sign
    ``sign_above``.  The probes start at ``start`` and step 1, 2, 4, ...
    places from it toward the root until the side changes or a step
    leaves the bracket; halving goes on from there, and from the first
    probe when ``start`` is None."""
    probe, step, last = start, 0 if start is None else 1, 0
    while hi - lo > 1:
        if not (step and lo < probe < hi):
            probe, step = (lo + hi) >> 1, 0
        sign = _sign_at(poly, *point(probe))
        if sign == 0:
            return probe, probe
        if sign == sign_above:
            hi, side = probe, -1
        else:
            lo, side = probe, 1
        if step:
            if side == -last:
                step = 0  # the root lies between the last two probes
            else:
                last, probe, step = side, start + side * step, 2 * step
    return lo, hi


def _refine(
    poly: list[int], low: int, high: int, k: int, sign_above: int, starts: Sequence[int] = ()
) -> IsolatedRoot:
    """The root in (low / 2^k, high / 2^k], a simple one and the only
    one there, with its correctly rounded float and integer enclosure;
    p has the sign ``sign_above`` above the root.

    The sign of p at a point of the interval says on which side of it
    the root lies.  A search over the floats and the half-way points
    between them (``_point``) hits the root or brackets it between two
    neighbours.  Every point strictly between those rounds to the float
    among them, as the root does; a root that is a half-way point rounds
    to the even float beside it; past the largest float, rounding raises
    SpectralError (``_rounded``).  Where the neighbours are integers,
    |root| >= 2^53, the same search over the integers between them gives
    the root's floor or hits it.  The first search starts at the first
    of the sorted places ``starts`` (the guesses') inside the interval,
    else at the nearest one, clamped into it."""
    # the places around the interval: every place between them is inside
    lo, hi = _place(low, k), _place(high, k) + 1
    start = None
    for place in starts:
        if place > lo:
            if place < hi or start is None or place - hi < lo - start:
                start = place
            break
        start = place
    if start is not None:
        start = min(max(start, lo + 1), hi - 1)
    lo, hi = _search(poly, sign_above, _point, lo, hi, start)
    (m1, j1), (m2, j2) = _point(lo), _point(hi)
    j = max(j1, j2)
    center = (m1 << (j - j1)) + (m2 << (j - j2))  # over 2^(j + 1); the root if lo == hi
    value = _rounded(center, j + 1)
    if j == 0 and lo < hi:
        # integer neighbours, maybe more than 1 apart: search the integers
        # between them that lie in the interval, from next to an end of
        # the interval between the neighbours if there is one (the root
        # bound lies that close above a dominant root), else by halving
        floor, ceiling = max(m1, low >> k), min(m2, (high >> k) + 1)
        start = ceiling - 1 if ceiling < m2 else floor + 1 if floor > m1 else None
        center = sum(_search(poly, sign_above, lambda n: (n, 0), floor, ceiling, start))
    floor = center >> (j + 1)
    return IsolatedRoot(value, (floor, floor) if floor << (j + 1) == center else (floor, floor + 1))


# --- admissibility and the suspension model ---------------------------------

_BELOW_FLOAT_RANGE = "an eigenvalue is below the float range (nonzero, rounds to 0)"


def validate_suspension_matrix(matrix: Sequence[Sequence[int]]) -> MatrixDiagnostics:
    """Diagnostics: det = 1 exactly; eigenvalues real, simple, positive,
    distinct from 1.  For 2x2 matrices the trace condition (> 2) is also
    reported; it is equivalent to admissibility there.  Complex or
    repeated eigenvalues fail a check; an eigenvalue whose float is an
    infinity (refused by ``real_eigenvalues``) or a zero of a nonzero
    root raises SpectralError, since no check could be reported on it."""
    checks: list[CheckResult] = []
    try:
        rows = _normalize(matrix)
    except SpectralError as exc:
        checks.append(CheckResult("square_integer", False, str(exc)))
        return MatrixDiagnostics(False, tuple(checks), None, None)
    checks.append(CheckResult("square_integer", True, f"{len(rows)}x{len(rows)} integer matrix"))
    coefficients = char_poly(rows)
    det = coefficients[-1]
    checks.append(
        CheckResult("determinant_one", det == 1, f"det = {det} (exact)")
    )
    roots: tuple[IsolatedRoot, ...] | None
    try:
        roots = real_eigenvalues(coefficients)
        checks.append(
            CheckResult(
                "eigenvalues_real_simple",
                True,
                "all eigenvalues real and simple (Sturm count equals degree)",
            )
        )
    except SpectralError as exc:
        if str(exc) == _BEYOND_FLOAT_RANGE:
            raise
        roots = None
        checks.append(CheckResult("eigenvalues_real_simple", False, str(exc)))
    if roots is not None:
        if any(root.value == 0 and root.enclosure != (0, 0) for root in roots):
            raise SpectralError(_BELOW_FLOAT_RANGE)
        positive = all(root.value > 0 for root in roots)
        checks.append(
            CheckResult(
                "eigenvalues_positive",
                positive,
                f"eigenvalues {[root.value for root in roots]}",
            )
        )
        # exact test: 1 is an eigenvalue iff p(1) = 0
        p_at_one = sum(coefficients)
        checks.append(
            CheckResult(
                "eigenvalues_not_one",
                p_at_one != 0,
                f"p(1) = {p_at_one} (exact)",
            )
        )
    if len(rows) == 2:
        trace = rows[0][0] + rows[1][1]
        checks.append(
            CheckResult(
                "trace_condition",
                trace > 2,
                f"trace = {trace} (admissible 2x2 matrices have trace > 2)",
            )
        )
    admissible = all(
        check.passed for check in checks if check.name != "trace_condition"
    )
    return MatrixDiagnostics(admissible, tuple(checks), coefficients, roots)


def build_suspension(matrix: Sequence[Sequence[int]], leaf_index: int) -> dict:
    """The model document of the suspension of an admissible matrix, dim
    n+1, in the model-file schema (1-based frame indices).

    The matrix is read by ``validate_suspension_matrix``; one that is not
    admissible raises InadmissibleMatrixError naming each failed check.
    Frame index 1 is the suspension direction E_0; frame index i + 1 is
    the eigen-direction of lambda_i (eigenvalues ascending), and each
    log(lambda_i) is the parameter ``log_lambda_i``.  ``leaf_index``
    selects which eigen-direction spans the one-dimensional leaves
    (1 <= leaf_index <= n).
    """
    diagnostics = validate_suspension_matrix(matrix)
    if not diagnostics.admissible:
        reasons = "; ".join(
            f"{check.name}: {check.detail}" for check in diagnostics.checks if not check.passed
        )
        raise InadmissibleMatrixError(f"matrix is not admissible ({reasons})")
    assert diagnostics.roots is not None
    n = len(diagnostics.roots)
    if not 1 <= leaf_index <= n:
        raise ValueError(f"leaf_index must be in 1..{n}, got {leaf_index}")
    logs = [(i, math.log(root.value)) for i, root in enumerate(diagnostics.roots, 1)]
    return {
        "name": f"suspension({format_matrix(_normalize(matrix))})",
        "kind": "constant_structure",
        "dim": n + 1,
        "leaf_indices": [leaf_index + 1],
        "parameters": {f"log_lambda_{i}": value for i, value in logs},
        "dense_leaves": False,
        "structure_constants": [
            {"i": 1, "j": i + 1, "k": i + 1, "value": value} for i, value in logs
        ],
    }
