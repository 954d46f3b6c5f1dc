"""The package's plain records: every exception class, the check record
and its reported points, the foliation split and two shared defaults.

Nothing here imports NumPy or another transdiv module at import time,
so ``cli`` and ``spectral`` can use these names without loading the
sweep layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .expr import Expr

#: Sign tolerance of the divergence verdicts.
DEFAULT_TOLERANCE = 1e-9

BUILTIN_NAMES = ("t3a", "suspension-3", "torus-warped", "flat-kronecker")


# --- expression language -----------------------------------------------------

class ExprError(Exception):
    """Base class for expression-language failures."""

    #: The point of a grid sweep at which the failure happened, when a
    #: sweep raised it.
    point: tuple | None = None


class ParseError(ExprError):
    """Malformed input text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """An ident is applied like a function but is not a known one."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown function '{name}'", offset)
        self.name = name


class EvalError(ExprError):
    """Evaluation failure; carries the offending node, if any."""

    def __init__(self, message: str, node: Expr | None = None):
        if node is not None:
            from .expr import to_string

            message = f"{message} in '{to_string(node)}'"
        super().__init__(message)
        self.node = node


class UnboundVariableError(EvalError):
    def __init__(self, name: str, node: Expr):
        super().__init__(f"unbound variable '{name}'", node)
        self.name = name


class DomainError(EvalError):
    """ln of a non-positive value, sqrt of a negative, division by zero,
    or a value that is not finite."""


class DifferentiationError(ExprError):
    """Requested derivative is outside the supported fragment."""


# --- models, fields and checks -------------------------------------------------

class ModelError(Exception):
    """Structural problem with a model, split, or field."""


class SchemaError(ModelError):
    """A model or field document violates the file schema."""


class SingularFrameError(ModelError):
    """The frame matrix is singular at a point of a sweep that needs C."""

    def __init__(self, point: tuple[float, ...], det: float):
        super().__init__(
            f"frame matrix is singular at {point} (|det| = {abs(det):.3e})"
        )
        self.point = point
        self.det = det


class UnknownBuiltinError(ModelError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check of a model, a field or a matrix.  A measured
    check also carries its worst value, the first point where it occurs
    and the tolerance that value was held to; an exact check leaves all
    three None."""

    name: str
    passed: bool
    detail: str
    worst: float | None = None
    worst_point: tuple[float, ...] | None = None
    tolerance: float | None = None


def check_line(check: CheckResult) -> str:
    """A check as one line: how every report lists a check, and the
    message of a verdict's refusal of a model whose check failed."""
    worst = "" if check.worst is None else f", worst {check.worst:.3e} at {check.worst_point}"
    return f"{check.name}: {'pass' if check.passed else 'FAIL'} ({check.detail}{worst})"


class NotBasicError(ModelError):
    """A candidate field failed the basic-field test."""

    def __init__(self, check: CheckResult):
        super().__init__(
            f"field is not basic: worst residual {check.worst:.3e} "
            f"at {check.worst_point} (tolerance {check.tolerance:g})"
        )
        self.check = check


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


# --- exact spectral code -------------------------------------------------------

class SpectralError(Exception):
    """Root certification or exactness failure."""


class InadmissibleMatrixError(SpectralError):
    """The matrix cannot carry a suspension model."""
