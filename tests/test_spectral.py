"""Exact characteristic polynomials, certified roots, suspension models."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transdiv as td

from generators import random_admissible_matrix

EXAMPLE_3X3 = ((2, 0, -1), (0, 3, -1), (-1, -1, 1))


def fraction_det(rows) -> Fraction:
    """Exact Gaussian elimination; independent of the Berkowitz recurrence."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    det = Fraction(sign)
    for i in range(n):
        det *= m[i][i]
    return det


def char_poly_by_interpolation(rows) -> tuple[int, ...]:
    """det(A - xI) sampled at x = 0..n and Lagrange-interpolated exactly."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = [
        fraction_det(
            [
                [rows[i][j] - (x if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        for x in xs
    ]
    # Newton's divided differences over exact rationals
    coeffs = [Fraction(0)] * (n + 1)
    table = list(ys)
    for order in range(1, n + 1):
        for i in range(n, order - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - order])
    # expand newton form sum_k table[k] * prod_{i<k} (x - xs[i])
    poly = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]
    for k in range(n + 1):
        for power, coeff in enumerate(basis):
            poly[power] += table[k] * coeff
        next_basis = [Fraction(0)] * (len(basis) + 1)
        for power, coeff in enumerate(basis):
            next_basis[power + 1] += coeff
            next_basis[power] -= coeff * xs[k]
        basis = next_basis
    descending = list(reversed(poly))
    assert all(c.denominator == 1 for c in descending)
    return tuple(int(c) for c in descending)


# --- characteristic polynomial ---------------------------------------------------

def test_char_poly_2x2_hand_expansion():
    # det([[2-x, 1], [1, 1-x]]) = x^2 - 3x + 1
    assert td.char_poly(((2, 1), (1, 1))) == (1, -3, 1)


def test_char_poly_example_3x3():
    coefficients = td.char_poly(EXAMPLE_3X3)
    assert coefficients == (-1, 6, -9, 1)
    assert coefficients == char_poly_by_interpolation(EXAMPLE_3X3)


def test_char_poly_identity():
    assert td.char_poly(((1, 0), (0, 1))) == (1, -2, 1)


def test_char_poly_matches_interpolation_oracle():
    rng = random.Random(3)
    nonzero = [k for k in range(-4, 5) if k != 0]
    entries = (
        lambda: rng.randint(-4, 4),  # dense
        lambda: rng.choice(nonzero),  # zero-free, as the benchmark draws
        lambda: rng.randint(-4, 4) if rng.random() < 0.3 else 0,  # sparse
    )
    for entry in entries:
        for n in range(1, td.spectral.MAX_DIM + 1):
            for _ in range(3):
                rows = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
                assert td.char_poly(rows) == char_poly_by_interpolation(rows)


def test_char_poly_rejects_nonsquare_and_big():
    with pytest.raises(td.SpectralError):
        td.char_poly(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(td.SpectralError):
        td.char_poly(tuple(tuple(1 if i == j else 0 for j in range(9)) for i in range(9)))
    with pytest.raises(td.SpectralError):
        td.char_poly(((1.5, 0), (0, 1)))


def test_determinant_matches_oracle():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.choice((2, 3, 4, 5))
        rows = tuple(
            tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)
        )
        assert td.determinant(rows) == fraction_det(rows)


# --- root isolation ---------------------------------------------------------------

def test_real_eigenvalues_quadratic():
    roots = td.real_eigenvalues((1, -3, 1))
    golden = ((3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2)
    assert len(roots) == 2
    for root, expected in zip(roots, golden):
        assert abs(root.value - expected) < 1e-12
    assert roots[0].enclosure == (0, 1)
    assert roots[1].enclosure == (2, 3)


def test_real_eigenvalues_example_intervals():
    roots = td.real_eigenvalues((-1, 6, -9, 1))
    assert [root.enclosure for root in roots] == [(0, 1), (2, 3), (3, 4)]


def test_real_eigenvalues_match_numpy_on_admissible_matrices():
    rng = random.Random(41)
    for n in range(2, td.spectral.MAX_DIM + 1):
        for _ in range(3):
            matrix = random_admissible_matrix(rng, n)
            roots = td.real_eigenvalues(td.char_poly(matrix))
            reference = np.sort(np.linalg.eigvals(np.array(matrix, dtype=float)).real)
            assert len(roots) == n
            for root, expected in zip(roots, reference):
                assert abs(root.value - expected) <= 1e-9 * abs(expected)
                low, high = root.enclosure
                assert low <= root.value <= high


def test_real_eigenvalues_complex_rejected():
    with pytest.raises(td.SpectralError, match="complex or repeated"):
        td.real_eigenvalues((1, 0, 1))  # x^2 + 1


def test_real_eigenvalues_repeated_rejected():
    with pytest.raises(td.SpectralError, match="complex or repeated"):
        td.real_eigenvalues((1, -2, 1))  # (x-1)^2


def test_real_eigenvalues_exact_integer_roots():
    roots = td.real_eigenvalues((1, -3, 2))  # (x-1)(x-2)
    assert [root.value for root in roots] == [1.0, 2.0]
    assert roots[0].enclosure == (1, 1)


@pytest.mark.parametrize(
    "coefficients, expected",
    [
        ((1, -3, 2), [(1.0, (1, 1)), (2.0, (2, 2))]),  # (x-1)(x-2): split points hit both
        ((1, 3, -4), [(-4.0, (-4, -4)), (1.0, (1, 1))]),  # (x-1)(x+4)
        ((1, -3), [(3.0, (3, 3))]),  # x-3: the search over the floats hits the root
        # 10^20 -+ 1 and 10^17 + 3 lie between neighbouring floats more
        # than 1 apart: the search over the integers between them hits them
        ((1, -2 * 10**20, 10**40 - 1), [(1e20, (10**20 - 1,) * 2), (1e20, (10**20 + 1,) * 2)]),
        ((1, -(10**17 + 3)), [(1e17, (10**17 + 3,) * 2)]),
    ],
)
def test_integer_roots_get_point_enclosures(coefficients, expected):
    roots = td.real_eigenvalues(coefficients)
    assert [(root.value.hex(), root.enclosure) for root in roots] == [
        (value.hex(), enclosure) for value, enclosure in expected
    ]


def _zeros_of_sign_at(patch) -> list[Fraction]:
    """Patch ``_sign_at`` to record each point where p was found to vanish."""
    sign_at, zeros = td.spectral._sign_at, []

    def spy(poly, m, k):
        sign = sign_at(poly, m, k)
        if sign == 0:
            zeros.append(Fraction(m, 2**k))
        return sign

    patch.setattr(td.spectral, "_sign_at", spy)
    return zeros


def test_refinement_hit_on_an_integer_root_is_exact(monkeypatch):
    refine, results = td.spectral._refine, []

    def spy(*args):
        results.append(refine(*args))
        return results[-1]

    monkeypatch.setattr(td.spectral, "_refine", spy)
    zeros = _zeros_of_sign_at(monkeypatch)
    (root,) = td.real_eigenvalues((1, -3))
    assert results == [td.IsolatedRoot(value=3.0, enclosure=(3, 3))]
    assert zeros == [3]  # refinement evaluated p at the root itself
    assert root == results[0]


def _contains_one_root(coefficients, enclosure):
    """Whether the open interval of ``enclosure`` (low < high) holds an odd
    number of roots of the polynomial, by the signs at its ends."""
    def value(x):
        total = 0
        for coeff in coefficients:
            total = total * x + coeff
        return total

    low, high = enclosure
    return value(low) * value(high) < 0


def test_enclosure_of_a_root_just_below_an_integer():
    # x^2 - (10^16 + 1) x + 1: the large root is 10^16 + 1 - 1e-16, just
    # below the integer 10^16 + 1 half-way between the floats 10^16 and
    # 10^16 + 2, so it rounds down and its floor is 10^16
    matrix = ((10**16, 1), (10**16 - 1, 1))
    roots = td.real_eigenvalues(td.char_poly(matrix))
    assert [root.enclosure for root in roots] == [(0, 1), (10**16, 10**16 + 1)]
    assert roots[1].value == 1e16


def _small_root(t):
    """The root of x^2 - t x + 1 in (0, 1), 2 / (t + sqrt(t^2 - 4)), as a
    Fraction good to about 60 digits."""
    return 2 / (t + Fraction(math.isqrt((t * t - 4) * 10**120), 10**60))


def test_small_root_gets_relative_precision():
    # x^2 - (10^20 + 1) x + 1: a width of 1e-16 absolute would leave the
    # root near 1e-20 no correct digit (it read 3.76e-17, and the
    # product of the eigenvalues 3761.6)
    matrix = ((10**20, 1), (10**20 - 1, 1))
    small, large = (root.value for root in td.validate_suspension_matrix(matrix).roots)
    exact = _small_root(10**20 + 1)
    assert abs(Fraction(small) - exact) <= exact / 10**15
    assert abs(small * large - 1.0) <= 1e-12
    assert abs(math.log(small) + math.log(large)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10**40))
def test_small_roots_of_large_trace_quadratics_are_relatively_precise(t):
    small, large = (root.value for root in td.real_eigenvalues((1, -t, 1)))
    exact = _small_root(t)
    assert abs(Fraction(small) - exact) <= exact / 10**15
    assert abs(small * large - 1.0) <= 1e-12


def test_refinement_of_an_interval_around_a_root_at_zero(monkeypatch):
    # 0 is a place of the lattice, and the search without guesses halves
    # the places around (-1, 2] down to it; the zero is positive
    zeros = _zeros_of_sign_at(monkeypatch)
    root = td.spectral._refine([0, 1], -1, 2, 0, 1)
    assert root == td.IsolatedRoot(value=0.0, enclosure=(0, 0))
    assert math.copysign(1.0, root.value) == 1.0
    assert zeros == [0]
    assert [(root.value, root.enclosure) for root in td.real_eigenvalues((1, -1, 0))] == [
        (0.0, (0, 0)), (1.0, (1, 1)),
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(3, 10**40),
        st.builds(lambda e, d: 10**e + d, st.integers(1, 40), st.integers(0, 3)),
    )
)
def test_enclosures_contain_the_roots_of_large_trace_quadratics(t):
    # the roots of x^2 - t x + 1 lie in (0, 1) and just below t, more
    # than 1 apart, so a sign change across a unit enclosure means the root
    coefficients = (1, -t, 1)
    roots = td.real_eigenvalues(coefficients)
    assert len(roots) == 2
    for root in roots:
        low, high = root.enclosure
        assert high == low + 1
        assert _contains_one_root(coefficients, root.enclosure)
    assert [root.enclosure[0] for root in roots] == [0, t - 1]


def _sign(coefficients, x: Fraction) -> int:
    value = Fraction(0)
    for c in coefficients:  # highest degree first
        value = value * x + c
    return (value > 0) - (value < 0)


def _rounds_to(coefficients, value: float) -> bool:
    """Whether p changes sign (or vanishes) within half an ulp of
    ``value`` on either side, so that a root rounds to it."""
    below = (Fraction(value) + Fraction(math.nextafter(value, -math.inf))) / 2
    above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return _sign(coefficients, below) * _sign(coefficients, above) <= 0


def test_roots_are_correctly_rounded():
    # x^4 + x^3 - 52x^2 + 54x + 101: the final midpoints rounded 0.51 and
    # 0.66 ulp away, to -8.07549601693779 and -0.967829224222703
    coefficients = (1, 1, -52, 54, 101)
    values = [root.value for root in td.real_eigenvalues(coefficients)]
    assert values[:2] == [-8.075496016937787, -0.9678292242227029]
    assert all(_rounds_to(coefficients, value) for value in values)
    rng = random.Random(20261018)
    for n in range(2, 9):
        for _ in range(6):
            coefficients = td.char_poly(random_admissible_matrix(rng, n))
            for root in td.real_eigenvalues(coefficients):
                assert _rounds_to(coefficients, root.value), (coefficients, root)
    # products of linear factors with rational roots of both signs from
    # about 1e-300 to 1e300; most of their coefficients overflow a float,
    # so refinement runs without guesses
    for _ in range(40):
        roots = {
            Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            * Fraction(10) ** rng.randint(-300, 300)
            * rng.choice((-1, 1))
            for _ in range(rng.randint(1, 4))
        }
        coefficients = tuple(reversed(_expand([(-r.numerator, r.denominator) for r in roots])))
        isolated = td.real_eigenvalues(coefficients)
        assert len(isolated) == len(roots)
        for root, exact in zip(isolated, sorted(roots)):
            assert _rounds_to(coefficients, root.value), (coefficients, root)
            floor = exact.numerator // exact.denominator
            assert root.enclosure == (floor, floor if floor == exact else floor + 1)
    # subnormal roots, and roots that round to a zero of their own sign;
    # -+3 / 2^1075 lies half-way between two subnormals and rounds to the
    # even one, 2^-1073, and -+1 / 2^1075 to zero
    for coefficients, expected in [
        ((2**1075, -3), [("0x0.0000000000002p-1022", (0, 1))]),
        ((2**1075, 3), [("-0x0.0000000000002p-1022", (-1, 0))]),
        ((2**1100, 1), [("-0x0.0p+0", (-1, 0))]),
        ((2**1100, -1), [("0x0.0p+0", (0, 1))]),
        ((2**1074 * 3, -(2**53 + 1)), [("0x0.aaaaaaaaaaaabp-1022", (0, 1))]),
        ((2**2150, 0, -1), [("-0x0.0p+0", (-1, 0)), ("0x0.0p+0", (0, 1))]),
        ((2**2150, 0, -9), [("-0x0.0000000000002p-1022", (-1, 0)), ("0x0.0000000000002p-1022", (0, 1))]),
    ]:
        roots = td.real_eigenvalues(coefficients)
        assert [(root.value.hex(), root.enclosure) for root in roots] == expected
        assert all(_rounds_to(coefficients, root.value) for root in roots)


def _bench_like_polys(rng, per_n):
    """Characteristic polynomials of A = B B^T, B unit lower-triangular
    with no zero entry in A, as the benchmark draws them, n = 2..8."""
    polys = []
    for n in range(2, td.spectral.MAX_DIM + 1):
        spread = 300 if n == 2 else 4 if n == 3 else 2
        count = len(polys) + per_n
        while len(polys) < count:
            b = [[1 if i == j else rng.randint(-spread, spread) if j < i else 0 for j in range(n)] for i in range(n)]
            rows = _matmul(b, [list(column) for column in zip(*b)])
            if all(all(row) for row in rows) and td.validate_suspension_matrix(rows).admissible:
                polys.append(td.char_poly(rows))
    return polys


def test_refinement_from_correctly_rounded_guesses_takes_two_signs(monkeypatch):
    # with each root's correctly rounded float as its guess, a root below
    # 2^53 that is not a float costs the sign at the guess and at the
    # half-way point on the root's side; the sign of p above the root
    # comes from the Sturm counts
    rng = random.Random(1919)
    polys = _bench_like_polys(rng, 4) + [(1, -t, 1) for t in (3, 7, 10**6 + 1, 10**15)]
    polys += [tuple(reversed(_expand([(rng.randint(-10**9, 10**9), 3), (rng.randint(-99, 99), 7)]))) for _ in range(20)]
    sign_at, refine, calls, costs = td.spectral._sign_at, td.spectral._refine, [0], []

    def counting(*args):
        calls[0] += 1
        return sign_at(*args)

    def costing(*args):
        before = calls[0]
        root = refine(*args)
        costs.append((root, calls[0] - before))
        return root

    checked = 0
    for coefficients in polys:
        values = [root.value for root in td.real_eigenvalues(coefficients)]
        with monkeypatch.context() as patch:
            patch.setattr(td.spectral, "_float_roots", lambda poly: list(values))
            patch.setattr(td.spectral, "_sign_at", counting)
            patch.setattr(td.spectral, "_refine", costing)
            del costs[:]
            td.real_eigenvalues(coefficients)
        for root, cost in costs:
            if abs(root.value) < 2**53 and _sign(coefficients, Fraction(root.value)) != 0:
                assert cost <= 2, (coefficients, root, cost)
                checked += 1
    assert checked >= 150


def test_roots_on_a_rounding_tie_round_to_even():
    # 2^53 + 1 and 2^52 + 1/2 lie halfway between two floats; the split at
    # that point finds them exactly, and they round to the even neighbour
    coefficients = td.char_poly(((2**53 + 1, 0), (0, 1)))
    assert [(root.value, root.enclosure) for root in td.real_eigenvalues(coefficients)] == [
        (1.0, (1, 1)), (float(2**53), (2**53 + 1, 2**53 + 1)),
    ]
    (root,) = td.real_eigenvalues((2, -(2**53 + 1)))
    assert root.value == float(2**52) and root.enclosure == (2**52, 2**52 + 1)
    # halfway from the largest float to 2^1024 is where rounding overflows,
    # and real_eigenvalues refuses the root there
    with pytest.raises(td.SpectralError, match=r"^an eigenvalue is beyond the float range \(above 1.8e308\)$"):
        td.real_eigenvalues((1, -(2**1024 - 2**970)))
    (root,) = td.real_eigenvalues((1, -(2**1024 - 2**970 - 1)))
    assert root.value == 1.7976931348623157e308


def test_root_beyond_float_range():
    # the correctly rounded float of 10^309 is inf: real_eigenvalues and
    # validate_suspension_matrix refuse it, below 2^1024 and past it
    for coefficients in ((1, -(10**309)), (1, 0, -(2**2048 + 1)), (1, 2**1024)):
        with pytest.raises(td.SpectralError, match="beyond the float range"):
            td.real_eigenvalues(coefficients)
    with pytest.raises(td.SpectralError, match="beyond the float range"):
        td.validate_suspension_matrix(((10**309, 1), (10**309 - 1, 1)))


def test_residual_smallness():
    for rows in (((2, 1), (1, 1)), EXAMPLE_3X3):
        coefficients = td.char_poly(rows)
        for root in td.real_eigenvalues(coefficients):
            scale = max(abs(c) for c in coefficients) * max(1.0, abs(root.value)) ** (
                len(coefficients) - 1
            )
            value = 0.0
            for coeff in coefficients:
                value = value * root.value + coeff
            assert abs(value) <= 1e-10 * scale


# --- the rational-arithmetic isolation, kept as the oracle ---------------------------
#
# The Sturm isolation as it was over Fractions.  The integer chain and
# the refinement in transdiv.spectral must give the same roots,
# bit for bit, the same enclosures and the same refusals.

def _frac_poly(coefficients_desc) -> list[Fraction]:
    ascending = [Fraction(c) for c in reversed(coefficients_desc)]
    while len(ascending) > 1 and ascending[-1] == 0:
        ascending.pop()
    return ascending


def _frac_eval(poly, x):
    value = Fraction(0)
    for coeff in reversed(poly):
        value = value * x + coeff
    return value


def _frac_rem(a, b):
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


def oracle_sturm_chain(poly):
    chain = [poly, [i * c for i, c in enumerate(poly)][1:] or [Fraction(0)]]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        rem = _frac_rem(chain[-2], chain[-1])
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append([-c for c in rem])
    return chain


def _oracle_sign_variations(chain, x):
    signs = []
    for poly in chain:
        value = _frac_eval(poly, x)
        if value != 0:
            signs.append(1 if value > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _oracle_midpoint(low, high):
    floor_mid = (low + high) // 2
    if low < floor_mid < high:
        return Fraction(floor_mid)
    return (low + high) / 2


def _nearest_float(x: Fraction) -> Fraction:
    """The float nearest to ``x``, as a Fraction; 2^1024 (with the sign
    of ``x``) beyond the overflow threshold."""
    try:
        return Fraction(float(x))
    except OverflowError:
        return Fraction(2**1024 if x > 0 else -(2**1024))


def _oracle_refine(poly, low, high):
    if low < 0 < high and poly[0] == 0:
        return Fraction(0)
    positive_high = _frac_eval(poly, high) > 0
    while True:
        width = high - low
        scale = max(abs(low), abs(high))
        inside = range(math.floor(low) + 1, math.ceil(high))
        if width <= scale * Fraction(1, 10**16) and not any(
            _frac_eval(poly, Fraction(m)) != 0 for m in inside
        ):
            # split once at the rounding boundary between the ends' floats
            ends = _nearest_float(low), _nearest_float(high)
            tie = sum(ends) / 2
            if ends[0] == ends[1] or not low < tie < high:
                return low, high
            mid = tie
        else:
            mid = (low + high) / 2
        value = _frac_eval(poly, mid)
        if value == 0:
            return mid  # found exactly, as in the isolation step
        if (value > 0) == positive_high:
            high = mid
        else:
            low = mid


def oracle_real_eigenvalues(coefficients):
    poly = _frac_poly(coefficients)
    degree = len(poly) - 1
    if degree < 1:
        raise td.SpectralError("polynomial must have positive degree")
    chain = oracle_sturm_chain(poly)
    if len(chain[-1]) > 1:
        raise td.SpectralError("complex or repeated roots: polynomial is not square-free")
    bound = 1 + max(abs(c) for c in poly[:-1]) / abs(poly[-1])
    radius = Fraction(math.ceil(bound))
    total = _oracle_sign_variations(chain, -radius) - _oracle_sign_variations(chain, radius)
    if total < degree:
        raise td.SpectralError(
            f"complex or repeated roots: only {total} real roots for degree {degree}"
        )
    roots = []
    queue = [(-radius, radius, total)]
    while queue:
        low, high, count = queue.pop()
        if count == 0:
            continue
        if count == 1:
            if _frac_eval(poly, high) == 0:
                roots.append(high)
            else:
                roots.append(_oracle_refine(poly, low, high))
            continue
        mid = _oracle_midpoint(low, high)
        left = _oracle_sign_variations(chain, low) - _oracle_sign_variations(chain, mid)
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
            for r in range(math.floor(low) + 1, math.ceil(high)):
                if _frac_eval(poly, Fraction(r)) == 0:
                    enclosure = (r, r)  # an integer root that no split point hit
        isolated.append(td.IsolatedRoot(value=value, enclosure=enclosure))
    return tuple(isolated)


def _unimodular(rng, n):
    """An upper unitriangular integer matrix: its inverse is integral too."""
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):  # back substitution, column by column
        for i in range(col - 1, -1, -1):
            inverse[i][col] = -sum(upper[i][t] * inverse[t][col] for t in range(i + 1, col + 1))
    assert _matmul(upper, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]
    return upper, inverse


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def _complex_or_repeated(rng, n):
    """A block matrix with a rotation block or a doubled block, conjugated
    by a unimodular matrix so that no entry pattern gives it away."""
    blocks: list[list[list[int]]] = []
    if n >= 2 and rng.random() < 0.5:
        a, b = rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))
        blocks.append([[a, -b], [b, a]])  # eigenvalues a +- bi
    elif n >= 2:
        size = n // 2
        block = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        blocks += [block, block]  # every eigenvalue of the block twice
    else:
        blocks.append([[rng.randint(-3, 3)]])
    while sum(len(b) for b in blocks) < n:
        blocks.append([[rng.randint(-3, 3)]])
    diagonal = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            diagonal[offset + i][offset:offset + len(row)] = row
        offset += len(block)
    upper, inverse = _unimodular(rng, n)
    return _matmul(_matmul(upper, diagonal), inverse)


def oracle_matrices(count_per_kind: int = 16):
    rng = random.Random(2024)
    nonzero = [k for k in range(-3, 4) if k != 0]

    def dense(n):
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

    def symmetric(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        return rows

    def sparse(n):
        return [[rng.randint(-4, 4) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]

    def gram(n):  # B B^T with a zero-free B, as the benchmark draws
        b = [[rng.choice(nonzero) for _ in range(n)] for _ in range(n)]
        return _matmul(b, [list(column) for column in zip(*b)])

    for kind in (dense, symmetric, sparse, gram, lambda n: _complex_or_repeated(rng, n)):
        for n in range(1, td.spectral.MAX_DIM + 1):
            for _ in range(count_per_kind):
                yield tuple(tuple(row) for row in kind(n))


def _outcome(isolate, coefficients):
    try:
        return [(root.value.hex(), root.enclosure) for root in isolate(coefficients)]
    except td.SpectralError as exc:
        return str(exc)


def test_integer_isolation_matches_fraction_oracle(monkeypatch):
    matrices = list(oracle_matrices())
    assert len(matrices) >= 600
    refused = 0
    for rows in matrices:
        coefficients = td.char_poly(rows)
        expected = _outcome(oracle_real_eigenvalues, coefficients)
        assert _outcome(td.real_eigenvalues, coefficients) == expected, rows
        refused += isinstance(expected, str)
    # both branches are exercised in quantity
    assert 100 <= refused <= len(matrices) - 100
    diagnostics = [td.validate_suspension_matrix(rows) for rows in matrices]
    monkeypatch.setattr(td.spectral, "real_eigenvalues", oracle_real_eigenvalues)
    for rows, report in zip(matrices, diagnostics):
        assert report == td.validate_suspension_matrix(rows), rows


def test_integer_chain_is_a_positive_multiple_of_the_rational_chain():
    for rows in oracle_matrices(count_per_kind=4):
        coefficients = td.char_poly(rows)
        chain = td.spectral._sturm_chain(td.spectral._int_poly(coefficients))
        expected = oracle_sturm_chain(_frac_poly(coefficients))
        assert len(chain) == len(expected)
        for member, rational in zip(chain, expected):
            assert len(member) == len(rational)
            ratio = Fraction(member[-1]) / rational[-1]
            assert ratio > 0
            assert [ratio * c for c in rational] == member


def test_isolation_edge_polynomials_match_oracle():
    for coefficients in ((), (0,), (5,), (0, 1, -3, 2), (1, 0, 1), (1, -2, 1), (-2, 1)):
        expected = _outcome(oracle_real_eigenvalues, coefficients)
        assert _outcome(td.real_eigenvalues, coefficients) == expected


# --- float guesses choose split points and nothing else ------------------------------

def _guess_sources():
    """Guess sources that each break the float guesses another way, as
    (name, source) with source(poly) -> list of floats."""
    float_roots = td.spectral._float_roots
    rng = random.Random(15)

    def equal(poly):
        guesses = float_roots(poly)
        return [sorted(guesses)[len(guesses) // 2]] * len(guesses)

    def ulps_off(poly):
        return [g + rng.randint(-300, 300) * math.ulp(g) for g in float_roots(poly)]

    def far_off(poly):
        return [g * (1 + rng.uniform(-0.1, 0.1)) + rng.uniform(-1, 1) for g in float_roots(poly)]

    def huge(poly):
        return float_roots(poly) + [1e300, -1e300]

    def not_finite(poly):
        guesses = float_roots(poly)
        for bad in (math.nan, math.inf, -math.inf):
            guesses.insert(rng.randint(0, len(guesses)), bad)
        return guesses

    return [
        ("none", lambda poly: []),
        ("equal", equal),
        ("ulps_off", ulps_off),
        ("far_off", far_off),
        ("huge", huge),
        ("not_finite", not_finite),
    ]


def test_real_eigenvalues_do_not_depend_on_the_guesses(monkeypatch):
    # every split is decided by an exact sign, so bad guesses cost time
    # and change no bit; NaN and infinities must be dropped
    polys = [td.char_poly(rows) for rows in oracle_matrices()]
    expected = [_outcome(oracle_real_eigenvalues, coefficients) for coefficients in polys]
    for name, source in _guess_sources():
        monkeypatch.setattr(td.spectral, "_float_roots", source)
        for coefficients, outcome in zip(polys, expected):
            assert _outcome(td.real_eigenvalues, coefficients) == outcome, (name, coefficients)


def _count_sign_evaluations(monkeypatch, polys) -> int:
    sign_at, calls = td.spectral._sign_at, [0]

    def counting(*args):
        calls[0] += 1
        return sign_at(*args)

    with monkeypatch.context() as patch:
        patch.setattr(td.spectral, "_sign_at", counting)
        for coefficients in polys:
            td.real_eigenvalues(coefficients)
    return calls[0]


def test_guesses_save_most_sign_evaluations(monkeypatch):
    # the benchmark's matrices; the bound is relative to the count without guesses
    drawn = _bench_like_polys(random.Random(1515), 4)
    for n in range(2, td.spectral.MAX_DIM + 1):
        polys = drawn[4 * (n - 2):4 * (n - 1)]
        guessed = _count_sign_evaluations(monkeypatch, polys)
        with monkeypatch.context() as patch:
            patch.setattr(td.spectral, "_float_roots", lambda poly: [])
            unguessed = _count_sign_evaluations(patch, polys)
        assert guessed <= 0.4 * unguessed, (n, guessed, unguessed)


def _numpy_roots(poly):
    """A reference guess source: the real parts of ``numpy.roots`` on the
    float coefficients, none when one overflows or LAPACK fails."""
    try:
        floats = [float(c) for c in reversed(poly)]
    except OverflowError:
        return []
    try:
        with np.errstate(all="ignore"):
            return np.roots(floats).real.tolist()
    except np.linalg.LinAlgError:
        return []


def test_guesses_need_no_more_sign_evaluations_than_numpy_roots(monkeypatch):
    polys = _bench_like_polys(random.Random(1616), 6)
    ours = _count_sign_evaluations(monkeypatch, polys)
    with monkeypatch.context() as patch:
        patch.setattr(td.spectral, "_float_roots", _numpy_roots)
        reference = _count_sign_evaluations(patch, polys)
    assert ours <= reference, (ours, reference)


@pytest.mark.parametrize("t", [10**30, 10**40])
def test_a_guess_past_the_root_bound_still_splits_first(monkeypatch, t):
    # the float of the larger root of x^2 - t x + 1 rounds above the
    # Cauchy bound t + 1, so it lies outside the root's interval and is
    # clamped into it; the bound t + 1 also lies between the root's
    # neighbouring floats, so the search over the integers starts there
    # and finds the floor t - 1 in three steps
    coefficients = (1, -t, 1)
    assert float(t) > t + 1
    assert _count_sign_evaluations(monkeypatch, [coefficients]) <= 30
    assert _outcome(td.real_eigenvalues, coefficients) == _outcome(oracle_real_eigenvalues, coefficients)


_ROOT_NUMERATORS = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**160, 10**160))


def _root_value(root):
    return Fraction(*root)


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(
        st.tuples(_ROOT_NUMERATORS, st.integers(1, 1000)),
        min_size=1, max_size=td.spectral.MAX_DIM, unique_by=_root_value,
    ),
    scale=st.sampled_from([1, -3, 10**150, 10**300, 10**307, -(10**308), 10**309, 10**400]),
)
def test_float_roots_never_raise(roots, scale):
    # real simple roots p/q; the scale and the large roots take the
    # coefficients near and beyond the float range
    poly = _expand([[scale], *([-p, q] for p, q in roots)])
    guesses = td.spectral._float_roots(poly)
    assert len(guesses) <= len(roots)
    assert all(type(guess) is float for guess in guesses)


@pytest.mark.parametrize(
    "coefficients",
    [
        (1, -2 * 10**20, 10**40 - 1),  # roots 10^20 -+ 1: both guesses are 1e20
        (1, 0, -1, 0),  # a root at 0
        (1, -3),  # an integer root that its guess hits
        (2, -(2**53 + 1)),  # 2^52 + 1/2, a rounding tie
        (1, -(10**17 + 3)),  # an integer root whose last interval ends on an integer
        (10**309, -(10**309 + 1), 1),  # roots 1 and 1e-309, coefficients beyond the float range
    ],
)
def test_edge_polynomials_with_and_without_guesses(monkeypatch, coefficients):
    expected = _outcome(oracle_real_eigenvalues, coefficients)
    assert _outcome(td.real_eigenvalues, coefficients) == expected
    monkeypatch.setattr(td.spectral, "_float_roots", lambda poly: [])
    assert _outcome(td.real_eigenvalues, coefficients) == expected


def _huge_gram(exponent: int) -> tuple[tuple[int, ...], ...]:
    """B B^T for a 5x5 integer B with entries drawn up to 10^exponent
    (random.Random(5)): symmetric, with real simple positive eigenvalues
    up to about 10^(2 exponent)."""
    rng = random.Random(5)
    b = [[rng.randint(-(10**exponent), 10**exponent) for _ in range(5)] for _ in range(5)]
    return tuple(tuple(sum(x * y for x, y in zip(r, s)) for s in b) for r in b)


def test_float_roots_of_overflowing_coefficients_come_from_a_scaled_polynomial(monkeypatch):
    float_roots, int_poly = td.spectral._float_roots, td.spectral._int_poly
    # roots 1e-309 and 1 under coefficients beyond the float range
    guesses = sorted(float_roots(int_poly((10**309, -(10**309 + 1), 1))))
    assert guesses == [pytest.approx(1e-309, rel=1e-6), pytest.approx(1.0, rel=1e-12)]
    # finite but huge coefficients give guesses without a warning
    assert len(float_roots(int_poly((1, -(10**308), 10**308 - 1)))) == 2
    # coefficients up to about 1e1500, roots up to about 1e300: every
    # guess is within a few units in the last place of its root, and
    # refinement takes a sixth of the signs it takes without guesses
    # (28926)
    coefficients = td.char_poly(_huge_gram(150))
    roots = [root.value for root in td.real_eigenvalues(coefficients)]
    assert max(roots) > 1e300
    assert sorted(float_roots(int_poly(coefficients))) == pytest.approx(roots, rel=1e-12)
    assert _count_sign_evaluations(monkeypatch, [coefficients]) <= 5000


def test_an_eigenvalue_beyond_the_float_range_is_refused_before_isolation(monkeypatch):
    # eigenvalues up to about 1e800: the Sturm counts at -+2^1024 show
    # them, and no guess is computed and no root isolated or refined
    sign_at, sturm_chain, calls, chains = td.spectral._sign_at, td.spectral._sturm_chain, [0], []

    def counting(*args):
        calls[0] += 1
        return sign_at(*args)

    def building(poly):
        chains.append(sturm_chain(poly))
        return chains[-1]

    def reached(*args):
        raise AssertionError("guesses or refinement reached")

    monkeypatch.setattr(td.spectral, "_sign_at", counting)
    monkeypatch.setattr(td.spectral, "_sturm_chain", building)
    monkeypatch.setattr(td.spectral, "_float_roots", reached)
    monkeypatch.setattr(td.spectral, "_refine", reached)
    with pytest.raises(td.SpectralError, match=r"^an eigenvalue is beyond the float range \(above 1.8e308\)$"):
        td.validate_suspension_matrix(_huge_gram(400))
    (chain,) = chains
    assert calls[0] == 4 * len(chain)
    # the same refusal from the library call, one chain per call
    with pytest.raises(td.SpectralError, match="beyond the float range"):
        td.real_eigenvalues(td.char_poly(_huge_gram(400)))
    assert len(chains) == 2
    monkeypatch.undo()
    # complex and repeated eigenvalues are reported first, as before
    for rows in (((0, -(10**400)), (10**400, 0)), ((10**400, 0), (0, 10**400))):
        report = td.validate_suspension_matrix(rows)
        assert [check.name for check in report.checks if not check.passed][:1] == ["determinant_one"]
        assert not report.checks[2].passed and report.checks[2].name == "eigenvalues_real_simple"
    # a root bound past 2^1024 with every root a float: isolated as before,
    # from the one chain that the counts at -+2^1024 read too
    rows = ((10**300, 0), (0, 10**300 + 1))
    coefficients = td.char_poly(rows)
    assert td.spectral._cauchy_radius(td.spectral._int_poly(coefficients)) > 2**1024
    del chains[:]
    monkeypatch.setattr(td.spectral, "_sturm_chain", building)
    report = td.validate_suspension_matrix(rows)
    assert len(chains) == 1
    assert [root.value for root in report.roots] == [1e300, float(10**300 + 1)]


def test_real_eigenvalues_coefficient_types():
    # kept as int64, the shifted Horner terms of the refinement would overflow
    as_int64 = tuple(np.array((1, -3, 1), dtype=np.int64))
    assert td.real_eigenvalues(as_int64) == td.real_eigenvalues((1, -3, 1))
    with pytest.raises(td.SpectralError, match="must be integers"):
        td.real_eigenvalues((1.0, -3.0, 1.0))


# --- exact hits: dyadic roots land on search points --------------------------------

def _expand(factors) -> list[int]:
    """Ascending coefficients of the product of ascending factors."""
    product = [1]
    for factor in factors:
        result = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                result[i + j] += a * b
        product = result
    return product


def _dyadic_value(root) -> Fraction:
    a, b = root
    return Fraction(b, 2**a)


dyadic_root = st.tuples(st.integers(0, 8), st.integers(-64, 64))  # the root b / 2^a
dyadic_roots = st.lists(
    dyadic_root,
    min_size=1,
    max_size=6,
    unique_by=_dyadic_value,
)


@settings(max_examples=200, deadline=None)
@given(dyadic_roots, st.booleans())
def test_dyadic_roots_come_back_certified(roots, negate):
    # every such root is a float, so it is its own correctly rounded value
    product = _expand([(-b, 2**a) for a, b in roots])
    sign = -1 if negate else 1
    isolated = td.real_eigenvalues(tuple(sign * c for c in reversed(product)))
    expected = sorted(map(_dyadic_value, roots))
    assert len(isolated) == len(expected)
    for root, exact in zip(isolated, expected):
        low, high = root.enclosure
        assert low <= exact <= high
        assert (low == high) == (exact.denominator == 1)
        assert root.value == exact


@settings(max_examples=200, deadline=None)
@given(dyadic_root, st.integers(1, 6), st.data())
def test_refinement_lands_exactly_on_a_dyadic_root(root, e, data):
    # start from an interval of width 2^e around the root, without
    # guesses: the root is a float, so a place of the lattice, and the
    # search cannot bracket it without evaluating p there
    a, b = root
    exact = _dyadic_value(root)
    low = math.floor(exact) - data.draw(st.integers(1, 2**e - 1))
    high = low + 2**e
    poly = _expand([(-b, 2**a), (1, 0, 1)])  # no other real root
    with pytest.MonkeyPatch.context() as patch:
        zeros = _zeros_of_sign_at(patch)
        isolated = td.spectral._refine(poly, low, high, 0, 1)
    assert zeros == [exact]
    floor = math.floor(exact)
    assert isolated == td.IsolatedRoot(
        value=float(exact), enclosure=(floor, floor if floor == exact else floor + 1)
    )


@settings(max_examples=100, deadline=None)
@given(dyadic_roots, st.data())
def test_repeated_and_complex_factors_refused(roots, data):
    factors = [(-b, 2**a) for a, b in roots]
    repeated = factors + [data.draw(st.sampled_from(factors))]
    with pytest.raises(td.SpectralError, match="not square-free"):
        td.real_eigenvalues(tuple(reversed(_expand(repeated))))
    complex_pair = factors + [(1, 0, 1)]  # x^2 + 1
    with pytest.raises(td.SpectralError, match=r"only \d+ real roots"):
        td.real_eigenvalues(tuple(reversed(_expand(complex_pair))))


# --- admissibility -----------------------------------------------------------------

def test_validate_default_matrix():
    report = td.validate_suspension_matrix(((2, 1), (1, 1)))
    assert report.admissible
    trace = [c for c in report.checks if c.name == "trace_condition"][0]
    assert trace.passed
    assert "3" in trace.detail


def test_validate_rotation_rejected():
    report = td.validate_suspension_matrix(((0, -1), (1, 0)))
    assert not report.admissible
    failed = {c.name for c in report.checks if not c.passed}
    assert "eigenvalues_real_simple" in failed


def test_validate_shear_rejected():
    report = td.validate_suspension_matrix(((1, 1), (0, 1)))
    assert not report.admissible


def test_validate_determinant():
    report = td.validate_suspension_matrix(((2, 0), (0, 1)))
    failed = {c.name for c in report.checks if not c.passed}
    assert "determinant_one" in failed


def test_product_of_eigenvalues_is_one():
    values = [root.value for root in td.validate_suspension_matrix(EXAMPLE_3X3).roots]
    product = 1.0
    for value in values:
        product *= value
    assert abs(product - 1.0) <= 1e-12
    assert abs(sum(math.log(value) for value in values)) <= 1e-12


# --- suspension construction --------------------------------------------------------

def test_build_suspension_t3a_bracket_table():
    model, split = td.load_model(td.build_suspension(((2, 1), (1, 1)), leaf_index=2))
    assert model.dim == 3
    assert split.leaf_ordered == (2,)
    table = td.structure_functions(model, ())
    log_small = math.log((3 - math.sqrt(5)) / 2)
    log_big = math.log((3 + math.sqrt(5)) / 2)
    assert abs(table[0, 1, 1] - log_small) < 1e-12
    assert abs(table[0, 2, 2] - log_big) < 1e-12


def test_build_suspension_example2_divergence():
    model, split = td.load_model(td.build_suspension(EXAMPLE_3X3, leaf_index=2))
    roots = td.validate_suspension_matrix(EXAMPLE_3X3).roots
    tau = td.alvarez_candidate(model, split)
    value = td.transverse_divergence(model, split, tau, ())
    l1, l2, l3 = (math.log(root.value) for root in roots)
    assert abs(value - (-l2 * (l1 + l3))) <= 1e-10
    assert abs(value - l2**2) <= 1e-10
    assert abs((-l2 * (l1 + l3)) - l2**2) <= 1e-10


def test_build_suspension_jacobi():
    rng = random.Random(23)
    for n in (2, 3):
        matrix = random_admissible_matrix(rng, n)
        model, split = td.load_model(td.build_suspension(matrix, 1))
        report = td.validate_model(model, split, td.sample_grid(model, 1))
        assert all(c.passed for c in report)


def test_build_suspension_document_round_trips():
    # the suspension's document is what model_to_document writes for the
    # model it loads to: same keys, order and floats
    rng = random.Random(41)
    for n in range(2, td.spectral.MAX_DIM + 1):
        matrix = random_admissible_matrix(rng, n)
        for leaf_index in range(1, n + 1):
            document = td.build_suspension(matrix, leaf_index)
            again = td.model_to_document(*td.load_model(document))
            assert json.dumps(again) == json.dumps(document)


def test_build_suspension_rejects():
    with pytest.raises(td.InadmissibleMatrixError):
        td.build_suspension(((0, -1), (1, 0)), 1)
    with pytest.raises(ValueError):
        td.build_suspension(((2, 1), (1, 1)), 3)


def test_parse_matrix_round_trip():
    text = "2,0,-1;0,3,-1;-1,-1,1"
    assert td.parse_matrix(text) == EXAMPLE_3X3
    assert td.spectral.format_matrix(EXAMPLE_3X3) == text
    with pytest.raises(td.SpectralError):
        td.parse_matrix("2,x;1,1")
    assert td.parse_matrix(" +2 , -1 ;-1,1") == ((2, -1), (-1, 1))
    # and an entry of more digits than int() converts
    for text in ("1_000,1;999,1", "\uff12,1;1,1", "0x2,1;1,1", "2.0,1;1,1", "2 0,1;1,1", ",1;1,1", "1" * 5000):
        with pytest.raises(td.SpectralError, match="is not an integer"):
            td.parse_matrix(text)


def test_an_empty_matrix_fails_its_one_check():
    assert td.validate_suspension_matrix(()) == td.MatrixDiagnostics(
        False, (td.CheckResult("square_integer", False, "matrix must be nonempty"),), None, None
    )
