"""Spans around the package's layer functions, recorded from outside it.

``Tracer.install`` replaces each traced function at *every* module
binding in the package (``tautness.check_basic`` and
``connection.structure_functions`` as well as the ``model.*``
originals), because callers import these by name.  A span records its
parent, the innermost open span; a layer's self time is its span's
duration minus the durations of its child spans.

Recursive functions (``expr.differentiate``) get a span at the
outermost call only, but every call is counted.  ``expr.evaluate``
recurses through its module global for millions of calls per grid, so
it is counted without spans; its time stays in its callers' self time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

#: Traced functions, as "module.function" in ``transdiv``.
SPANS = (
    "expr.parse", "expr.differentiate",
    "model.load_model", "model.load_field", "model.validate_model", "model.sample_grid",
    "model.frame_matrix", "model.structure_functions", "model.structure_functions_symbolic",
    "model.check_basic", "model.model_to_document",
    "connection.christoffel", "connection.covariant_rows",
    "connection.transverse_divergence", "connection.mean_curvature",
    "tautness.classify_divergence", "tautness.alvarez_candidate", "tautness.green_check",
    "tautness.volume_preservation_check", "tautness.lift_to_cover",
    "spectral.parse_matrix", "spectral.char_poly", "spectral.real_eigenvalues",
    "spectral.validate_suspension_matrix", "spectral.build_suspension",
    "catalog.is_builtin",
    "cli.main",
)
COUNTED = ("expr.evaluate",)
RECURSIVE = ("expr.differentiate",)
#: Functions called once per grid point by design; reported per point.
PER_POINT = (
    "expr.evaluate", "model.frame_matrix", "model.structure_functions",
    "connection.christoffel", "connection.covariant_rows",
    "connection.transverse_divergence", "connection.mean_curvature",
)
#: Functions whose failures are reported (exceptions raised out of the
#: span; for ``cli.main``, a nonzero exit code).
ERRORS = (
    "expr.evaluate", "model.load_model", "model.load_field", "model.structure_functions",
    "model.check_basic", "tautness.alvarez_candidate", "spectral.real_eigenvalues",
    "cli.main",
)
MODULES = ("expr", "model", "connection", "tautness", "spectral", "catalog", "cli")


def metric_names() -> list[str]:
    """Per-layer metric names, in the order reported."""
    names = []
    for name in SPANS + COUNTED:
        if name not in COUNTED:
            names.append(f"{name}.self_s")
        names.append(f"{name}.calls")
        if name in PER_POINT:
            names.append(f"{name}.per_point")
        if name in ERRORS:
            names.append(f"{name}.errors")
    return names + ["expr.nodes.alvarez", "trace.overhead_s"]


def tree_size(node, memo: dict) -> int:
    """Node count of an expression tree (shared subtrees counted each
    time, as the tree-walking evaluator visits them)."""
    key = id(node)
    if key not in memo:
        children = [getattr(node, f) for f in ("operand", "left", "right", "argument") if hasattr(node, f)]
        memo[key] = 1 + sum(tree_size(child, memo) for child in children)
    return memo[key]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        #: (parent, child) -> [calls, seconds]; parent None at the root
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.alvarez_results: list = []
        self._stack: list[list] = []
        self._cells: dict[str, list[int]] = {}
        self._patched: list[tuple] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, self_s, errors, edges = self._stack, self.calls, self.self_s, self.errors, self.edges
        recursive = name in RECURSIVE
        keep = self.alvarez_results.append if name == "tautness.alvarez_candidate" else None
        main = name == "cli.main"

        def wrapper(*args, **kwargs):
            if recursive and stack and stack[-1][0] == name:
                calls[name] += 1
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if keep is not None:
                keep(result)
            if main and result != 0:
                errors[name] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        cell = self._cells.setdefault(name, [0, 0])

        def wrapper(*args):
            cell[0] += 1
            try:
                return fn(*args)
            except BaseException:
                cell[1] += 1
                raise

        return wrapper

    # --- install / remove ---------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"transdiv.{m}") for m in MODULES}
        package = importlib.import_module("transdiv")
        replacements = {}
        for name in SPANS + COUNTED:
            module, attr = name.split(".")
            original = getattr(modules[module], attr)
            make = self._counter if name in COUNTED else self._span
            replacements[id(original)] = (original, make(name, original))
        for module in list(modules.values()) + [package]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        for name, (calls, errors) in self._cells.items():
            self.calls[name] += calls
            self.errors[name] += errors
        self._cells.clear()
