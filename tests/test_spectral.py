"""Exact characteristic polynomials, certified roots, suspension models."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import transdiv as td

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
    from generators import random_admissible_matrix

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
    data = td.spectral_data(EXAMPLE_3X3)
    product = 1.0
    for value in data.eigenvalues:
        product *= value
    assert abs(product - 1.0) <= 1e-12
    assert abs(sum(data.log_eigenvalues)) <= 1e-12


# --- suspension construction --------------------------------------------------------

def test_build_suspension_t3a_bracket_table():
    model, split = td.build_suspension(((2, 1), (1, 1)), leaf_index=2)
    assert model.dim == 3
    assert split.leaf_ordered == (2,)
    table = td.structure_functions(model, ())
    log_small = math.log((3 - math.sqrt(5)) / 2)
    log_big = math.log((3 + math.sqrt(5)) / 2)
    assert abs(table[0, 1, 1] - log_small) < 1e-12
    assert abs(table[0, 2, 2] - log_big) < 1e-12


def test_build_suspension_example2_divergence():
    model, split = td.build_suspension(EXAMPLE_3X3, leaf_index=2)
    data = td.spectral_data(EXAMPLE_3X3)
    tau = td.alvarez_candidate(model, split)
    value = td.transverse_divergence(model, split, tau, ())
    l1, l2, l3 = data.log_eigenvalues
    assert abs(value - (-l2 * (l1 + l3))) <= 1e-10
    assert abs(value - l2**2) <= 1e-10
    assert abs((-l2 * (l1 + l3)) - l2**2) <= 1e-10


def test_build_suspension_jacobi():
    rng = random.Random(23)
    from generators import random_admissible_matrix

    for n in (2, 3):
        matrix = random_admissible_matrix(rng, n)
        model, _ = td.build_suspension(matrix, 1)
        report = td.validate_model(model, td.sample_grid(model, 1))
        assert report.passed


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
