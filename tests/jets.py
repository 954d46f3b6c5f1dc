"""Second-order Taylor jets: an oracle for the symbolic layer that shares
none of its code.

A jet of a scalar function of the chart coordinates at one point is its
value, gradient and Hessian there.  Each elementary operation maps the
jets of its operands to the jet of its result by the chain and product
rules (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
2008, ch. 13), so walking a parse tree once gives the first and second
partials of the expression without differentiating it symbolically.

``frame_quantities`` builds from the jets of a chart's frame entries
what ``model.FrameData`` reads from its plan: C from the Lie brackets
and ``numpy.linalg.inv`` (no Cramer table), its partials from the
Hessians, Gamma by the Koszul formula, and for a field v its
components, E_i(v^k), the covariant rows, div^Q v and the basic
residual.  The Alvarez candidate is built from Gamma here, not read
from ``tautness``.
"""

from __future__ import annotations

import math

import numpy as np

from transdiv import expr


class Jet:
    """(value, gradient, Hessian) of a function of n coordinates."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value, self.grad, self.hess = value, grad, hess

    @classmethod
    def constant(cls, value: float, n: int) -> "Jet":
        return cls(value, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def coordinate(cls, value: float, index: int, n: int) -> "Jet":
        grad = np.zeros(n)
        grad[index] = 1.0
        return cls(value, grad, np.zeros((n, n)))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other: "Jet") -> "Jet":
        cross = np.outer(self.grad, other.grad)
        return Jet(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess + cross + cross.T,
        )

    def __truediv__(self, other: "Jet") -> "Jet":
        x = other.value
        return self * other.compose(1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3)

    def compose(self, f0: float, f1: float, f2: float) -> "Jet":
        """The jet of f(self), for f(u) = f0, f'(u) = f1, f''(u) = f2."""
        return Jet(f0, f1 * self.grad, f1 * self.hess + f2 * np.outer(self.grad, self.grad))

    def power(self, exponent: "Jet") -> "Jet":
        """self ^ exponent, for an exponent constant near the point."""
        if exponent.grad.any() or exponent.hess.any():
            raise ValueError("a power whose exponent varies has no jet here")
        u, p = self.value, exponent.value
        return self.compose(
            math.pow(u, p), p * math.pow(u, p - 1.0), p * (p - 1.0) * math.pow(u, p - 2.0)
        )


def _function(name: str, u: Jet) -> Jet:
    x = u.value
    if name == "sin":
        return u.compose(math.sin(x), math.cos(x), -math.sin(x))
    if name == "cos":
        return u.compose(math.cos(x), -math.sin(x), -math.cos(x))
    if name == "exp":
        return u.compose(math.exp(x), math.exp(x), math.exp(x))
    if name == "ln":
        return u.compose(math.log(x), 1.0 / x, -1.0 / x ** 2)
    if name == "sqrt":
        root = math.sqrt(x)
        return u.compose(root, 0.5 / root, -0.25 / (root * x))
    raise ValueError(f"no jet for function {name!r}")


_CONSTANTS = {"pi": math.pi, "e": math.e}


def jet(node: expr.Expr, coordinates: dict[str, int], env: dict[str, float]) -> Jet:
    """The jet of ``node`` at ``env``, with respect to the variables that
    ``coordinates`` maps to their gradient index; every other variable is
    a constant read from ``env``."""
    n = len(coordinates)
    if isinstance(node, expr.Literal):
        return Jet.constant(node.value, n)
    if isinstance(node, expr.Constant):
        return Jet.constant(_CONSTANTS[node.name], n)
    if isinstance(node, expr.Variable):
        if node.name in coordinates:
            return Jet.coordinate(env[node.name], coordinates[node.name], n)
        return Jet.constant(env[node.name], n)
    if isinstance(node, expr.Negate):
        return -jet(node.operand, coordinates, env)
    if isinstance(node, expr.FunctionCall):
        return _function(node.name, jet(node.argument, coordinates, env))
    if isinstance(node, expr.BinaryOp):
        left, right = jet(node.left, coordinates, env), jet(node.right, coordinates, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if node.op == "^":
            return left.power(right)
    raise ValueError(f"no jet for {node!r}")


def jets(nodes, model, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and Hessians of ``nodes`` (a nested sequence of
    expressions) at ``point`` of the chart ``model``, as arrays with the
    shape of ``nodes`` followed by () , (n,) and (n, n)."""
    names = model.coordinate_names()
    env = dict(model.parameters)
    env.update(zip(names, point))
    coordinates = {name: index for index, name in enumerate(names)}
    flat = [jet(node, coordinates, env) for node in np.ravel(np.array(nodes, dtype=object))]
    shape = np.shape(np.array(nodes, dtype=object))
    n = len(names)
    return (
        np.array([j.value for j in flat]).reshape(shape),
        np.array([j.grad for j in flat]).reshape(shape + (n,)),
        np.array([j.hess for j in flat]).reshape(shape + (n, n)),
    )


def structure(model, point, sign: float = -1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, C, dC) at ``point``: the frame matrix A[i, m] = a_i^m, the
    structure functions C[i, j, k] = C_ij^k of [E_i, E_j] = sum_k C_ij^k E_k,
    and their partials dC[i, j, k, d] = d C_ij^k / d x_d.

    With ``sign`` +1 every input is replaced by its magnitude and every
    difference by a sum: each result is then the sum of the magnitudes
    of the terms that make it, the scale of its rounding error."""
    a, da, dda = jets(model.frame, model, point)
    # sum_k C_ij^k a_k^m = w_ij^m, so C_ij = w_ij A^-1, and
    # d(A^-1) = -A^-1 dA A^-1
    inverse = np.linalg.inv(a)
    if sign > 0:
        a, da, dda, inverse = map(np.abs, (a, da, dda, inverse))
    dinverse = sign * np.einsum("ma,abd,bk->mkd", inverse, da, inverse)
    # the bracket [E_i, E_j] = sum_m w_ij^m d/dx_m, with
    # w_ij^m = E_i(a_j^m) - E_j(a_i^m) and E_i(a_j^m) = sum_c a_i^c d_c a_j^m
    e = np.einsum("ic,jmc->ijm", a, da)
    de = np.einsum("icd,jmc->ijmd", da, da) + np.einsum("ic,jmcd->ijmd", a, dda)
    w = e + sign * e.transpose(1, 0, 2)
    dw = de + sign * de.transpose(1, 0, 2, 3)
    c = np.einsum("ijm,mk->ijk", w, inverse)
    dc = np.einsum("ijmd,mk->ijkd", dw, inverse) + np.einsum("ijm,mkd->ijkd", w, dinverse)
    return a, c, dc


def koszul(c: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """Gamma[i, j, ...] = Gamma_ij^k of the Levi-Civita connection of the
    metric that makes the frame orthonormal, nabla_{E_i} E_j =
    sum_k Gamma_ij^k E_k, from the Koszul formula
    g(nabla_X Y, Z) = (g([X, Y], Z) - g([Y, Z], X) + g([Z, X], Y)) / 2.
    Trailing axes of ``c`` (partials) are carried along; ``sign`` as for
    ``structure``."""
    return 0.5 * (c + sign * np.einsum("jki...->ijk...", c) + np.einsum("kij...->ijk...", c))


def alvarez(gamma: np.ndarray, split) -> np.ndarray:
    """kappa^k = sum over leaf indices a of Gamma_aa^k for transverse k,
    0 for leaf k; trailing axes of ``gamma`` are carried along."""
    kappa = sum(gamma[a, a] for a in split.leaf_ordered)
    kappa[list(split.leaf_ordered)] = 0.0
    return kappa


def frame_quantities(model, split, point, field=None, magnitudes=False) -> dict[str, np.ndarray]:
    """C, Gamma and, for the field ``field`` (components as expressions,
    or None for the Alvarez candidate), v, E_i(v^k), the covariant rows,
    div^Q v and the basic residual at ``point`` of the chart ``model``.
    With ``magnitudes``, each is instead the sum of the magnitudes of
    its terms (``structure``), which bounds it and scales its rounding
    error where it cancels: the basic residual of a basic field, say."""
    sign = 1.0 if magnitudes else -1.0
    a, c, dc = structure(model, point, sign)
    gamma = koszul(c, sign)
    if field is None:
        v, dv = alvarez(gamma, split), alvarez(koszul(dc, sign), split)
    else:
        v, dv, _ = jets(list(field), model, point)
        if magnitudes:
            v, dv = np.abs(v), np.abs(dv)
    ev = np.einsum("ic,kc->ik", a, dv)
    rows = ev + np.einsum("j,ijk->ik", v, gamma)
    bracket = ev + np.einsum("j,ijk->ik", v, c)  # [E_i, v] = sum_k bracket[i, k] E_k
    leaf, transverse = split.leaf_ordered, split.transverse_ordered
    return {
        "c": c,
        "gamma": gamma,
        "v": v,
        "ev": ev,
        "rows": rows,
        "divergence": sum(rows[t, t] for t in transverse),
        "residual": max(abs(bracket[p, t]) for p in leaf for t in transverse),
    }
