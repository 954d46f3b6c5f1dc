"""The symbolic layer of a model is derived once and read by every sweep.

A model keeps its table of Cramer quotients C_ij^k, its frame plan (a
group of the frame entries and one of det A) and one field plan, that
of its last sweep with structure (``model._block_plan``), built as the
extension of its frame plan (``expr.Plan.extended``), so that no node
becomes a step twice.  Every det-only sweep runs the frame plan, which
derives neither the frame partials nor C, and gives the same bits and
errors whatever ran before it.  A cover is swept as its base.  The kept
plans die with the model, and a model swept with many field specs keeps
two.  Each plan is the hash-consed DAG of its roots, as a plain
recursive walk predicts it, and holds no values: building it runs no
step, and a run computes each step once.
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import numpy as np
import pytest

import transdiv as td
from transdiv import connection, expr
from transdiv.model import _block_env, _lattice, at_point, sweep

import generators
from generators import kept, run_cli


def spy_plans(monkeypatch, record):
    """Call ``record(plan, groups)`` with every expr.Plan built from now
    on, by the constructor or as an extension, ``groups`` all its groups."""
    groups_of: dict = {}
    build, extend = expr.Plan.__init__, expr.Plan.extended

    def built(self, groups):
        build(self, groups)
        groups_of[id(self)] = list(groups)
        record(self, list(groups))

    def extended(self, groups):
        plan = extend(self, groups)
        groups_of[id(plan)] = [*groups_of[id(self)], *groups]
        record(plan, groups_of[id(plan)])
        return plan

    monkeypatch.setattr(expr.Plan, "__init__", built)
    monkeypatch.setattr(expr.Plan, "extended", extended)


@pytest.fixture
def plans(monkeypatch):
    """Weak references to every expr.Plan built from now on."""
    built = []
    spy_plans(monkeypatch, lambda plan, groups: built.append(weakref.ref(plan)))
    return built


@pytest.fixture
def built_groups(monkeypatch):
    """(plan, all its groups) of every expr.Plan built from now on."""
    built = []
    spy_plans(monkeypatch, lambda plan, groups: built.append((plan, groups)))
    return built


@pytest.fixture
def steps(monkeypatch):
    """The nodes made a plan step from now on, one entry per step built."""
    made = []
    operation = expr._operation
    monkeypatch.setattr(expr, "_operation", lambda kind, node, children: (
        made.append(node) or operation(kind, node, children)
    ))
    return made


@pytest.fixture
def tables(monkeypatch):
    """The models whose table of C_ij^k is derived from now on, once per
    derivation."""
    derived = []
    derive = td.model._cramer_table

    def spy(model):
        derived.append(model)
        return derive(model)

    monkeypatch.setattr(td.model, "_cramer_table", spy)
    return derived


LAZY = {
    "name": "lazy",
    "kind": "chart",
    "dim": 2,
    "leaf_indices": [2],
    "periods": [1.0, 1.0],
    # d(sqrt(x1))/dx1 = 1/(2 sqrt(x1)) divides by zero at the corner x1 = 0
    "frame": ["2 + sqrt(x1)", "0", "0", "1"],
}


@pytest.mark.parametrize(
    "argv, made",
    [
        (("taut-check", "torus-warped", "--field", "alvarez", "--grid", "8"), 36),
        (("green-check", "torus-warped", "--field", "alvarez", "--grid", "8"), 36),
        (("volume-check", "torus-warped", "--field", "alvarez", "--grid", "8"), 36),
        (("analyze", "torus-warped", "--grid", "8"), 21),
        # the cover shares the base model's plans
        (("cover", "torus-warped", "--field", "alvarez", "--coord", "1", "--fold", "2",
          "--grid", "8"), 36),
        (("taut-check", "t3a", "--field", "alvarez"), 2),
    ],
    ids=["taut-check", "green-check", "volume-check", "analyze", "cover", "constant-structure"],
)
def test_each_invocation_builds_a_frame_plan_and_its_extension(built_groups, tables, steps, argv, made):
    code, _, _ = run_cli(*argv)
    assert code == 0
    (frame_plan, _), (field_plan, _) = built_groups
    # the field plan runs the frame plan's steps, not copies of them
    assert field_plan._steps[:len(frame_plan)] == frame_plan._steps
    # no node becomes a step twice: the steps built are the field plan's
    assert len(steps) == len(field_plan) == made
    assert len(frame_plan) == (0 if "t3a" in argv else 12)
    # C is derived once per chart command, the cover's included, and
    # never for t3a
    assert len(tables) == len({id(model) for model in tables}) == (0 if "t3a" in argv else 1)


def test_one_point_calls_share_the_model_plan(plans, tables):
    model, _ = td.builtin_model("torus-warped")
    points = list(generators.point_tuples(td.sample_grid(model, 8)))
    values = [connection.christoffel(model, point) for point in points]
    # the frame plan and its extension by the frame partials and C
    assert len(points) == 64 and len(plans) == 2 and len(tables) == 1
    (swept,) = generators.swept_rows(model, td.sample_grid(model, 8), lambda block: block.gamma)
    assert np.array_equal(np.stack(values).view(np.int64), swept.view(np.int64))
    assert len(plans) == 2


def test_a_shared_subtree_is_differentiated_once(monkeypatch):
    calls = []
    derivative = expr._derivative

    def spy(node, var):
        calls.append((node, var))
        return derivative(node, var)

    monkeypatch.setattr(expr, "_derivative", spy)
    shared = expr.parse("sin(x1)*x2")
    root = expr.BinaryOp("+", expr.BinaryOp("*", shared, shared), expr.BinaryOp("/", expr.ONE, shared))
    first = expr.differentiate(root, "x1")
    assert sum(node is shared for node, _ in calls) == 1
    assert expr.differentiate(root, "x1") is first and len(calls) == len({id(n) for n, _ in calls})
    # the derivative of the shared subtree is one node wherever it occurs
    d_shared = expr.differentiate(shared, "x1")
    square = first.left  # d(shared) * shared + shared * d(shared)
    assert square.left.left is d_shared and square.right.right is d_shared
    assert expr.evaluate(first, {"x1": 0.3, "x2": 2.0}) == expr.evaluate(
        expr.differentiate(expr.parse(expr.to_string(root)), "x1"), {"x1": 0.3, "x2": 2.0}
    )


# --- every det-only sweep runs the kept frame plan -----------------------------

def test_a_lazy_frame_keeps_the_cli_output(plans, tmp_path):
    # the verdict's field plan and analyze's plan both hold the frame
    # partials, which fail at the corners that the det-only sweeps probe;
    # those run the frame plan, which holds no partial
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps(LAZY))
    taut = run_cli("taut-check", str(path), "--field", "alvarez", "--grid", "8")
    analyze = run_cli("analyze", str(path), "--grid", "8")
    # each invocation loads the model: a frame plan and its extension each
    assert len(plans) == 4
    assert taut == (0, "\n".join([
        "model: lazy (chart, dim 2)",
        "split: leaf indices [2], transverse indices [1]",
        "field: alvarez (mean-curvature candidate)",
        "grid: 8x8 cell-centered lattice (64 points)",
        "verdict: IDENTICALLY ZERO (consistent with taut)",
        "div^Q v: min 0 at (0.0625, 0.0625), max 0 at (0.0625, 0.0625) (tolerance 1e-09)",
        "status: consistent with tautness for this candidate only: div^Q v vanishes on the "
        "sample grid to tolerance",
    ]) + "\n", "")
    assert analyze == (0, "\n".join([
        "model: lazy (chart, dim 2)",
        "split: leaf indices [2], transverse indices [1]",
        "validation: pass",
        "  frame_invertibility: pass (min |det(frame)| over 128 probe points (threshold 1e-10), "
        "worst 2.000e+00 at (0.0, 0.0))",
        "report point: (0.0625, 0.0625)",
        "nonzero structure functions C_ij^k ([E_i, E_j] = C_ij^k E_k):",
        "  (all zero)",
        "nonzero connection coefficients Gamma_ij^k = (C_ij^k + C_ki^j + C_kj^i)/2:",
        "  (all zero)",
        "mean curvature of the leaves, frame components: (0, 0)",
    ]) + "\n", "")


def _det(block):
    return block.det


def det_bits(model, grid):
    (dets,) = generators.swept_rows(model, grid, _det, structure=False)
    return dets.view(np.int64)


@pytest.mark.parametrize("with_field", [False, True])
def test_a_det_only_sweep_after_a_structure_sweep_gives_fresh_bits(plans, with_field):
    model, split = td.load_model(LAZY)
    corners = _lattice(model, (8, 8), 0.0)
    fresh = det_bits(td.load_model(LAZY)[0], corners)
    field = td.alvarez_candidate(model, split) if with_field else None
    sweep(model, td.sample_grid(model, 8), kept(lambda block: block.c), field_spec=field)
    built = len(plans)
    assert np.array_equal(det_bits(model, corners), fresh)
    assert len(plans) == built  # the kept frame plan, not a new one
    with pytest.raises(td.DomainError, match="division by zero"):
        sweep(model, corners, kept(lambda block: block.c), field_spec=field)


def test_a_cover_sweeps_with_its_base_plan_and_keeps_the_bits(plans):
    # the lift changes only the periods, which enter only the lattice, so
    # the base swept on the cover's lattice, from the base's plan, gives
    # the bits of the lift's own sweep, from a plan the lift builds
    model, split = td.builtin_model("torus-warped")
    field = td.alvarez_candidate(model, split)
    sweep(model, td.sample_grid(model, 8), kept(lambda block: block.c), field_spec=field)
    lifted = td.lift_to_cover(model, 1, 3)
    cover_grid = td.sample_grid(lifted, (8, 24))

    def bits(swept):
        # E_i(v^k), the frame and the field partials, and div^Q v, at the cover's coordinates
        rows = generators.swept_rows(
            swept, cover_grid, lambda block: block.ev, lambda block: block.divergence(split.transverse_ordered),
            field_spec=field,
        )
        return [values.view(np.int64) for values in rows]

    assert len(plans) == 2
    base = bits(model)
    assert len(plans) == 2
    assert all(map(np.array_equal, base, bits(lifted)))
    assert len(plans) == 4


@pytest.mark.parametrize(
    "field, coord, fold, grid, verdict, difference",
    [
        # no expression of torus-warped reads x1
        ("alvarez", "1", "3", "8", "MixedSign", 0.0),
        # div^Q(x2^2 E2) = 2 x2 jumps by 2 across the seam of x2
        ("square", "2", "2", "16", "NonTautWitness", 2.0),
    ],
)
def test_a_cover_invocation_sweeps_only_the_base_model(
    monkeypatch, tmp_path, field, coord, fold, grid, verdict, difference
):
    swept = []
    for module in (td.model, td.tautness):
        monkeypatch.setattr(module, "sweep", lambda model, *args, sweep=module.sweep, **options: (
            swept.append(model) or sweep(model, *args, **options)
        ))
    loaded = []
    load = td.catalog.builtin_model
    monkeypatch.setattr(td.catalog, "builtin_model", lambda name: loaded.append(load(name)) or loaded[-1])
    label = "alvarez (mean-curvature candidate)"
    if field == "square":
        field = label = str(tmp_path / "square.json")
        (tmp_path / "square.json").write_text(json.dumps({"components": ["0", "x2*x2"]}))
    code, out, err = run_cli(
        "cover", "torus-warped", "--field", field, "--coord", coord, "--fold", fold, "--grid", grid,
        "--format", "json",
    )
    ((model, _),) = loaded
    # the base verdict, its corners, the cover's lattice (one block) and its projection
    assert (code, err) == (0, "") and len(swept) == 4 and all(each is model for each in swept)
    assert json.loads(out) == {
        "subcommand": "cover", "model": "torus-warped", "field": label,
        "coord": int(coord), "fold": int(fold), "base_verdict": verdict, "lifted_verdict": verdict,
        "verdicts_agree": True, "max_pointwise_difference": difference,
    }


def test_a_failing_det_reports_its_point_whatever_ran_before():
    # each entry is finite, det A = exp(800 x1) is not beyond x1 = 0.887
    frame = [["exp(400*x1)", "0"], ["0", "exp(400*x1)"]]
    message = "non-finite frame determinant at (0.9375, 0.0625)"
    for keep in (False, True):
        model = td.chart_model("overflow", (1.0, 1.0), frame)
        grid = td.sample_grid(model, 8)
        if keep:
            at_point(model, (0.5, 0.5), lambda block: block.c)
        with pytest.raises(td.DomainError) as raised:
            sweep(model, grid, kept(_det), structure=False)
        assert str(raised.value) == message and raised.value.point == (0.9375, 0.0625)
        with pytest.raises(td.DomainError) as raised:
            at_point(model, (0.9375, 0.0625), _det, structure=False)
        assert str(raised.value) == message and raised.value.point == (0.9375, 0.0625)
        (check,) = td.validate_model(model, td.foliation_split(2, {0}), grid)
        assert not check.passed and check.worst_point == (0.9375, 0.0625)
        assert check.detail == f"frame evaluation failed: {message}"


def test_det_only_sweeps_run_the_kept_frame_plan(plans, steps):
    # validate_model's two det-only sweeps (the grid, its corners) and
    # frame_matrix run one frame plan, built once and kept; a sweep with
    # structure extends it, and the det-only sweeps after it run it still
    model, split = td.builtin_model("torus-warped")
    grid = td.sample_grid(model, 8)
    for _ in range(2):
        td.validate_model(model, split, grid)
    for point in [(0.5, 0.5), (0.25, 0.75), (0.0, 0.0)]:
        td.model.frame_matrix(model, point)
    assert len(plans) == 1 and "plan" not in expr._memo(model)
    (frame_plan,) = (ref() for ref in plans)
    assert expr._memo(model)["frame plan"] is frame_plan and len(steps) == len(frame_plan)
    # each field plan extends the frame plan, whose steps are not built again
    field = td.alvarez_candidate(model, split)
    for sweep_with_structure, field_spec in [
        (lambda: at_point(model, (0.5, 0.5), lambda block: block.c), None),
        (lambda: td.classify_divergence(model, split, field, grid), field),
    ]:
        made = len(steps)
        sweep_with_structure()
        assert len(steps) - made == len(td.model._block_plan(model, field_spec, True)) - len(frame_plan)
    td.validate_model(model, split, grid)
    td.model.frame_matrix(model, (0.5, 0.5))
    assert len(plans) == 3 and td.model._block_plan(model, None, False) is frame_plan
    gc.collect()
    assert [ref() is not None for ref in plans] == [True, False, True]


@pytest.mark.parametrize("case", ["torus-warped", "lazy", "dense-3d", "dense-4d"])
def test_a_det_only_sweep_derives_nothing_and_keeps_the_bits(monkeypatch, plans, case):
    # validate_model and frame_matrix read only a and det A, so they
    # derive neither the frame partials nor C; their bits are those of
    # the same sweeps after a sweep with structure
    def load():
        if case == "lazy":
            return td.load_model(LAZY)
        if case == "torus-warped":
            return td.builtin_model(case)
        return generators.dense_chart_case(random.Random(7), int(case[-2]))

    derived = []
    for name in ("_frame_partials", "_cramer_table"):
        monkeypatch.setattr(
            td.model, name,
            lambda model, derive=getattr(td.model, name), name=name: derived.append(name) or derive(model),
        )
    first, split = load()
    grid = td.sample_grid(first, 5)
    point = grid.point(7)

    def det_only(model):
        (check,) = td.validate_model(model, split, grid)
        return [np.float64(check.worst).view(np.int64), check.worst_point,
                td.model.frame_matrix(model, point).view(np.int64).tolist(),
                det_bits(model, grid).tolist(), det_bits(model, _lattice(model, grid.resolution, 0.0)).tolist()]

    fresh, _ = load()
    swept = det_only(fresh)
    assert derived == [] and expr._memo(fresh).keys() == {"minors", "frame plan"}
    # the grid and the corners of validate_model, frame_matrix and det_bits
    # all run the one frame plan
    assert len(plans) == 1 and plans[0]() is expr._memo(fresh)["frame plan"]
    structured, _ = load()
    at_point(structured, point, lambda block: block.c)
    assert set(derived) == {"_frame_partials", "_cramer_table"}
    assert det_only(structured) == swept


def test_a_frame_outside_the_differentiable_fragment_keeps_its_det(plans):
    model = td.chart_model("power", (1.0, 1.0), [["2 + x1^x2", "0"], ["0", "1"]])
    assert td.model.frame_matrix(model, (0.5, 0.5))[0, 0] == 2 + 0.5 ** 0.5
    (check,) = td.validate_model(model, td.foliation_split(2, {0}), td.sample_grid(model, 4))
    assert check.passed and check.worst == 2.0
    # the three sweeps run one frame plan
    assert len(plans) == 1
    with pytest.raises(td.DifferentiationError, match="x1\\^x2"):
        td.structure_functions(model, (0.5, 0.5))
    # a field plan that fails to derive extends nothing
    assert len(plans) == 1 and "plan" not in expr._memo(model)


def test_a_field_plan_that_fails_to_derive_builds_no_plan(plans, steps):
    # the groups of a field plan are derived before the frame plan that
    # they extend is built, so a structure sweep that fails to derive
    # them builds no plan at all
    model = td.chart_model("power", (1.0, 1.0), [["2 + x1^x2", "0"], ["0", "1"]])
    with pytest.raises(td.DifferentiationError):
        at_point(model, (0.5, 0.5), lambda block: block.c)
    assert plans == [] and steps == []


# --- the model keeps two plans, which die with it -----------------------------

def test_a_deleted_model_leaves_nothing_alive(plans, tables):
    model, split = td.builtin_model("torus-warped")
    grid = td.sample_grid(model, 8)
    td.classify_divergence(model, split, td.alvarez_candidate(model, split), grid)
    td.validate_model(model, split, grid)
    connection.christoffel(model, (0.5, 0.5))
    assert plans and tables
    alive = [weakref.ref(model), *plans]
    del model, split, tables[:]
    gc.collect()
    assert [ref() for ref in alive] == [None] * len(alive)


#: A warped 3-torus whose frame holds exp and sqrt of x3
EXP_SQRT_3D = {
    "name": "exp-sqrt-3d",
    "kind": "chart",
    "dim": 3,
    "leaf_indices": [1],
    "periods": [1.0, 1.0, 1.0],
    "frame": [
        "exp(0.2*sin(2*pi*x3))", "0", "0",
        "0", "sqrt(2 + cos(2*pi*x3))", "0",
        "0", "0", "1",
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ("taut-check", "torus-warped", "--field", "alvarez", "--grid", "16"),
        ("analyze", "torus-warped", "--grid", "8"),
        ("green-check", "torus-warped", "--field", "alvarez", "--grid", "8"),
        ("cover", "torus-warped", "--field", "alvarez", "--coord", "1", "--fold", "2", "--grid", "8"),
        ("taut-check", EXP_SQRT_3D, "--field", "alvarez", "--grid", "4"),
    ],
    ids=["taut-check", "analyze", "green-check", "cover", "exp-and-sqrt"],
)
def test_a_chart_command_leaves_no_expression_to_the_cyclic_collector(argv, tmp_path):
    # the derivatives kept on a node must not refer back to it (d exp(u)
    # and d sqrt(u) hold exp(u) and sqrt(u)), or every frame tree of a
    # model waits for the cyclic collector; the first run fills what
    # lives as long as the process
    if argv[1] is EXP_SQRT_3D:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(EXP_SQRT_3D))
        argv = (argv[0], str(path), *argv[2:])
    assert run_cli(*argv)[0] == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(*argv)[0] == 0
        gc.collect()
        nodes = [thing for thing in gc.garbage if isinstance(thing, expr.Expr)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert nodes == []


def test_many_field_specs_keep_a_bounded_number_of_plans(plans):
    model, _ = td.builtin_model("torus-warped")
    at_point(model, (0.5, 0.5), lambda block: block.c)
    for k in range(200):
        field = td.vector_field(["0", f"{k + 1}*sin(2*pi*x2)"], model)
        at_point(model, (0.5, 0.5), lambda block: block.rows, field_spec=field)
    gc.collect()
    # the frame plan and 201 extensions of it
    assert len(plans) == 202
    # the frame plan and the last field's plan
    assert [ref() is not None for ref in plans] == [True] + [False] * 200 + [True]


# --- the plan is the hash-consed DAG of its roots -----------------------------

def predicted(groups):
    """What a plan of ``groups`` holds, from a plain recursive walk: a
    node's key is its kind, its own data (a literal's by ``float.hex``)
    and its children's slots; a key seen before takes its slot, a new
    one the next slot after its children's (post-order, first occurrence
    first).  Returns the slot count after each group and each group's
    root slots."""
    slots: dict = {}

    def visit(node):
        if isinstance(node, expr.Literal):
            key = ("literal", node.value.hex())
        elif isinstance(node, (expr.Constant, expr.Variable)):
            key = (type(node).__name__, node.name)
        elif isinstance(node, expr.Negate):
            key = ("negate", visit(node.operand))
        elif isinstance(node, expr.BinaryOp):
            key = (node.op, visit(node.left), visit(node.right))
        else:
            key = (node.name, visit(node.argument))
        if key not in slots:
            slots[key] = len(slots)
        return slots[key]

    ends, roots = [], []
    for group in groups:
        roots.append(tuple(visit(node) for node in group))
        ends.append(len(slots))
    return ends, roots


def bench_warped_3d():
    warp = "0.25 + 0.3*sin(2*pi*2*x3) - 0.2*cos(2*pi*3*x3)"
    other = "0.1*sin(2*pi*3*x3) + 0.15*cos(2*pi*2*x3)"
    return td.load_model({
        "name": "warped-3d", "kind": "chart", "dim": 3, "leaf_indices": [1],
        "parameters": {}, "dense_leaves": False, "periods": [1.0, 1.0, 1.0],
        "frame": [f"exp(-({warp}))", "0", "0", "0", f"exp(-({other}))", "0", "0", "0", "1"],
    })


PINNED = {
    **{name: lambda name=name: td.builtin_model(name) for name in td.records.BUILTIN_NAMES},
    "warped-3d": bench_warped_3d,
    "random-chart": lambda: generators.random_chart_case(random.Random(11)),
    "dense-3d": lambda: generators.dense_chart_case(random.Random(12), 3),
    "dense-4d": lambda: generators.dense_chart_case(random.Random(13), 4),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_plans_are_the_hash_consed_dags_of_their_roots(built_groups, case):
    model, split = PINNED[case]()
    at_point(model, (0.5,) * model.dim if model.is_chart else (), lambda block: block.c)
    at_point(
        model, (0.25,) * model.dim if model.is_chart else (), lambda block: block.rows,
        field_spec=td.alvarez_candidate(model, split),
    )
    # the frame plan and its extension by each sweep's groups, which
    # shares its steps and leaves it as it was
    (frame_plan, _), *extensions = built_groups
    assert len(extensions) == 2
    for plan, _ in extensions:
        assert plan._steps[:len(frame_plan)] == frame_plan._steps
    for plan, groups in built_groups:
        ends, roots = predicted(groups)
        assert len(plan) == (ends[-1] if ends else 0)
        assert [generators.plan_steps(plan, g) for g in range(len(groups) + 1)] == [0, *ends]
        assert [group_roots for _, _, group_roots in plan._groups] == roots



@pytest.mark.parametrize("case", sorted(PINNED))
def test_a_plan_holds_no_values_and_a_run_computes_each_step_once(built_groups, monkeypatch, case):
    # building a plan runs none of its steps, variable-free ones such as
    # 2*pi included; a run of every group computes each step once
    model, split = PINNED[case]()
    grid = td.sample_grid(model, 3)
    sweep(model, grid, field_spec=td.alvarez_candidate(model, split))
    (_, frame_groups), (_, groups) = built_groups
    assert groups[:len(frame_groups)] == frame_groups
    calls: list[int] = []
    operation = expr._operation

    def counted(kind, node, children):
        slot, step = len(calls), operation(kind, node, children)
        calls.append(0)

        def run(table, env):
            calls[slot] += 1
            return step(table, env)

        return run

    monkeypatch.setattr(expr, "_operation", counted)
    plan = expr.Plan(groups)
    assert calls == [0] * len(plan)
    with np.errstate(all="ignore"):
        assert len(list(plan.run(_block_env(model, grid)))) == len(groups)
    assert calls == [1] * len(plan)
