"""The sweep against Taylor jets (``tests/jets.py``) at drawn points.

Every chart quantity a verdict reads is compared with an oracle that
shares no code with the symbolic layer: C from the jets of the frame
entries and ``numpy.linalg.inv``, Gamma by the Koszul formula, the
Alvarez candidate kappa and its partials from Gamma and the frame's
Hessians, and for drawn file fields the jets of their components.  A
wrong rule of ``expr.differentiate``, a wrong minor or sign of the
Cramer table, or a wrong Koszul formula in ``model.FrameData`` moves
these values far past the bound.

The bound is BOUND relative to the largest entry of each quantity's
magnitude at the point: the sum of the magnitudes of the terms that
make it (``jets.frame_quantities`` with ``magnitudes``).  Both sides
round each term, so a sum that cancels, such as the basic residual of
a basic field or E_i(v^k) of a field with large partials, is only as
accurate as its terms are large.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import transdiv as td
from transdiv import expr

import jets
from generators import (
    TERM_KINDS,
    bounded_term,
    dense_chart_case,
    pointwise_rows,
    random_chart_case,
    transcendental_chart_case,
)

BOUND = 1e-12
#: Added to every bound: below the smallest normal float (drawn points
#: near 0 give subnormal values) a float has no relative precision.
FLOOR = np.finfo(float).tiny

CASES = {
    "random-chart": random_chart_case,
    "dense-3d": lambda rng: dense_chart_case(rng, 3),
    "dense-4d": lambda rng: dense_chart_case(rng, 4),
    "transcendental-2d": lambda rng: transcendental_chart_case(rng, 2),
    "transcendental-3d": lambda rng: transcendental_chart_case(rng, 3),
}

QUANTITIES = ("c", "gamma", "v", "ev", "rows", "divergence", "residual")



def reads(split):
    """The sweep reads of QUANTITIES, in order."""
    return (
        lambda block: block.c,
        lambda block: block.gamma,
        lambda block: block.v,
        lambda block: block.ev,
        lambda block: block.rows,
        lambda block: block.divergence(split.transverse_ordered),
        lambda block: block.basic_residuals(split),
    )


def drawn_field(rng: random.Random, dim: int) -> list[expr.Expr]:
    """Components c_k * bounded_term, each of a drawn kind."""
    return [
        expr.mul(expr.Literal(round(rng.uniform(-1.0, 1.0), 3)), bounded_term(rng, dim, rng.choice(TERM_KINDS)))
        for _ in range(dim)
    ]


def points(dim: int):
    return st.lists(st.tuples(*[st.floats(0.0, 1.0)] * dim), min_size=1, max_size=3)


@pytest.mark.parametrize("field", ["alvarez", "file"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_sweep_matches_the_jets(case, field, seed, data):
    rng = random.Random(seed)
    model, split = CASES[case](rng)
    drawn = data.draw(points(model.dim))
    if field == "alvarez":
        components, spec = None, td.alvarez_candidate(model, split)
    else:
        components = drawn_field(rng, model.dim)
        document = {"components": [expr.to_string(node) for node in components]}
        spec = td.load_field(document, model)
    swept = dict(zip(QUANTITIES, pointwise_rows(model, drawn, *reads(split), field_spec=spec)))
    for index, point in enumerate(drawn):
        expected = jets.frame_quantities(model, split, point, components)
        magnitudes = jets.frame_quantities(model, split, point, components, magnitudes=True)
        for name in QUANTITIES:
            want = np.asarray(expected[name])
            got = swept[name][index]
            scale = np.max(magnitudes[name])
            error = np.max(np.abs(got - want))
            assert error <= BOUND * scale + FLOOR, f"{name} at {point}: error {error:.3g}, scale {scale:.3g}"


def test_the_jets_match_closed_forms():
    """The oracle itself on torus-warped, whose frame is diag(e^{-f(x2)}, 1)
    with f = 0.3 sin(2 pi x2): C_12^1 = f', Gamma_11^2 =
    C_21^1 = -f', kappa = (0, -f'), and div^Q kappa = -f''."""
    model, split = td.load_model(td.builtin_document("torus-warped"))
    two_pi = 2.0 * np.pi
    for y in (0.0, 0.1, 0.37, 0.8):
        df = 0.3 * two_pi * np.cos(two_pi * y)
        ddf = -0.3 * two_pi ** 2 * np.sin(two_pi * y)
        got = jets.frame_quantities(model, split, (0.25, y))
        assert got["c"][0, 1, 0] == pytest.approx(df, rel=1e-13, abs=1e-13)
        assert got["c"][1, 0, 0] == pytest.approx(-df, rel=1e-13, abs=1e-13)
        assert got["gamma"][0, 0, 1] == pytest.approx(-df, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(got["v"], [0.0, -df], rtol=1e-13, atol=1e-13)
        assert got["divergence"] == pytest.approx(-ddf, rel=1e-12, abs=1e-12)
        assert got["residual"] == pytest.approx(0.0, abs=1e-12)
