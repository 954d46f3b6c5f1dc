"""Benchmark of the transdiv command line, run from outside the package.

    python3 bench/run.py --workload chart-sweep --seed 1 --seconds 20 --trace 0

One process, one client in a closed loop: each invocation of
``transdiv.cli.main(argv)`` writes ``--format json --output <file>``,
its report is checked against an oracle, and only then does its time
count.  A run repeats the workload's fixed batch of invocations, with
fresh seeded inputs each time, for ``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the details: seed, input digest, per-subcommand
latency, failures and machine metadata.

The program is imported from ``src/`` of the checkout this script sits
in; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import PER_POINT, ERRORS, SPANS, COUNTED, Tracer, metric_names, tree_size

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Every run measures at least this many batches, whatever --seconds says;
#: peak RSS is read after this many, so it covers the same work on every run.
MIN_BATCHES = 3
#: Cap on batches per run, below the number of distinct inputs per workload.
MAX_BATCHES = 150
#: Fresh-process imports timed for setup_s (after one untimed, which
#: writes the bytecode cache).
IMPORT_SAMPLES = 5
#: Reference work that measures the machine's speed: iterations per
#: chunk, the nominal time of a chunk, and the wall-clock interval at
#: which a timer signal runs one chunk in the middle of the program's run.
#: Each batch's times are scaled by nominal / mean chunk time over the
#: batch, which cancels most of the drift in CPU speed that a shared
#: machine shows over seconds.
REFERENCE_CHUNK = 200
REFERENCE_CHUNK_NOMINAL_S = 0.0015
PROBE_INTERVAL_S = 0.1
#: Standard percentiles, tried from the highest for the latency tail.
TAIL_PERCENTILES = (0.999, 0.99, 0.9)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def latency_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest standard percentile that has
    at least ten samples beyond it (None when there are too few)."""
    tail = next((p for p in TAIL_PERCENTILES if len(values) * (1 - p) >= 10), None)
    return {
        "n": len(values),
        "p50_s": statistics.median(values),
        "tail": None if tail is None else {"p": tail, "value_s": percentile(values, tail)},
    }


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports transdiv.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import transdiv.cli"],
        cwd=ROOT, env=env, check=True, timeout=120,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def metadata(transdiv) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        config = np.show_config(mode="dicts")
        build = {
            "blas": config["Build Dependencies"]["blas"].get("name"),
            "lapack": config["Build Dependencies"]["lapack"].get("name"),
            "simd_baseline": config["SIMD Extensions"].get("baseline"),
        }
    except (TypeError, KeyError):
        build = None
    sources = sorted((SRC / "transdiv").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_build": build,
        "transdiv": transdiv.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


#: A fixed expression tree of the kind the program walks per grid point.
_REFERENCE_TREE = (
    "+",
    ("*", 0.3, ("sin", ("*", 6.283185307179586, "x"))),
    ("exp", ("*", -0.2, ("cos", ("*", 12.566370614359172, "x")))),
)
_REFERENCE_MATRIX = np.array([[2.0, 0.3, 0.1], [0.1, 1.5, 0.2], [0.0, 0.4, 1.2]])


def _walk(node, x: float) -> float:
    if isinstance(node, float):
        return node
    if isinstance(node, str):
        return x
    op = node[0]
    if op == "+":
        return _walk(node[1], x) + _walk(node[2], x)
    if op == "*":
        return _walk(node[1], x) * _walk(node[2], x)
    return getattr(math, op)(_walk(node[1], x))


def reference_seconds(chunks: int) -> float:
    """Time of ``chunks`` units of fixed work like the program's:
    recursive tree walks, math calls, small numpy linear algebra and
    Fraction arithmetic."""
    start = perf_counter()
    total, q = 0.0, Fraction(0)
    for i in range(chunks * REFERENCE_CHUNK):
        x = i / REFERENCE_CHUNK
        total += _walk(_REFERENCE_TREE, x)
        if i % 8 == 0:
            total += float(np.linalg.det(_REFERENCE_MATRIX * x))
            q = (q + Fraction(1, 3 + i % 5)) % 1
    return perf_counter() - start


@dataclass
class Batch:
    """One batch: (subcommand, seconds in ``cli.main``) per invocation
    that passed its check, the grid points swept, and the factor that
    scales the batch's times to nominal machine speed."""

    times: list[tuple[str, float]]
    points: int
    scale: float

    @property
    def raw_s(self) -> float:
        return sum(raw for _, raw in self.times)

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.scale


class SpeedProbe:
    """Times one reference chunk on entry and then every PROBE_INTERVAL_S
    from a SIGALRM handler, so the samples fall inside the program's own
    run.  ``seconds`` is the time spent probing, which callers subtract
    from what they time."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, signum=None, frame=None) -> None:
        self.seconds += reference_seconds(1)
        self.chunks += 1

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        return REFERENCE_CHUNK_NOMINAL_S * self.chunks / self.seconds


class Run:
    """Executes batches and accumulates timings and failures."""

    def __init__(self, cli, workload: str, seed: int, inputs: workloads.Inputs):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.report_path = str(inputs.directory / "report.json")
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def invoke(self, invocation: workloads.Invocation, probe: SpeedProbe) -> float | None:
        """Seconds in ``cli.main`` less the probe's, or None when the
        invocation failed its check."""
        self.attempted += 1
        argv = list(invocation.argv) + ["--format", "json", "--output", self.report_path]
        start, probed = perf_counter(), probe.seconds
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            self.failures.append(f"{invocation.argv[:2]}: raised {exc!r}")
            return None
        elapsed = perf_counter() - start - (probe.seconds - probed)
        try:
            workloads.require(code == 0, f"exit code {code}")
            with open(self.report_path) as handle:
                report = json.load(handle)
            os.remove(self.report_path)
            invocation.check(report)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append(f"{invocation.argv[:2]}: {exc}")
            return None
        return elapsed

    def batch(self, invocations: list[workloads.Invocation]) -> Batch:
        gc.collect()
        times, points = [], 0
        with SpeedProbe() as probe:
            for invocation in invocations:
                elapsed = self.invoke(invocation, probe)
                if elapsed is not None:
                    times.append((invocation.subcommand, elapsed))
                    points += invocation.points
        return Batch(times, points, probe.scale)

    def make(self, index: int, full: bool = True) -> list[workloads.Invocation]:
        invocations = workloads.batch(self.workload, self.seed, index, self.inputs, full)
        if index == MIN_BATCHES - 1:
            # every run generates batch 0, the warm-up batch, then 1, 2, ...
            self.digest = self.inputs.digest.hexdigest()
        return invocations

    def loop(self, first: int, until: float, minimum: int, pending=None) -> list[Batch]:
        """Batches first, first+1, ... until ``until`` (perf_counter) has
        passed and at least ``minimum`` ran."""
        results = []
        index = first
        while len(results) < minimum or (perf_counter() < until and index < MAX_BATCHES):
            invocations = pending if pending is not None else self.make(index)
            pending = None
            results.append(self.batch(invocations))
            index += 1
        return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "transdiv" / "__init__.py").is_file():
        print(f"error: no transdiv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import transdiv
    import transdiv.cli

    directory = WORK / f"{args.workload}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, transdiv, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, transdiv, directory: Path) -> int:
    inputs = workloads.Inputs(directory)
    run = Run(transdiv.cli, args.workload, args.seed, inputs)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    metrics: dict = {}
    if not args.trace:
        fresh_import_seconds()
        imports = [fresh_import_seconds() for _ in range(IMPORT_SAMPLES)]
        start = perf_counter()
        first = run.make(0)
        generate = perf_counter() - start
        setup = statistics.median(imports) + generate
        detail["setup"] = {"import_s": imports, "generate_s": generate}
    else:
        first = run.make(0)

    run.batch(run.make(-1, full=False))  # warm code paths; checked, not timed
    started = perf_counter()
    deadline = started + args.seconds
    tracer = None
    if not args.trace:
        batches = run.loop(0, deadline, MIN_BATCHES, first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        batches += run.loop(len(batches), deadline, 0)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(b.wall_s for b in batches), "unit": "s"},
            "grid_points_per_s": {
                "value": statistics.median(b.points / b.wall_s for b in batches), "unit": "1/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail["batches"] = len(batches)
        detail["points_per_batch"] = batches[0].points
    else:
        # untraced and traced batches alternate, so the overhead compares
        # batches run under the same machine conditions
        tracer = Tracer()
        untraced, traced = [], []
        index, pending = 0, first
        while min(len(untraced), len(traced)) < 2 or (perf_counter() < deadline and index < MAX_BATCHES):
            invocations = pending if pending is not None else run.make(index)
            pending = None
            if index % 2 == 0:
                untraced.append(run.batch(invocations))
            else:
                tracer.install()
                try:
                    traced.append(run.batch(invocations))
                finally:
                    tracer.uninstall()
            index += 1
        metrics = layer_metrics(tracer, untraced, traced)
        batches = untraced
        detail["batches"] = {"untraced": len(untraced), "traced": len(traced)}
        detail["edges"] = sorted(
            ({"parent": p, "child": c, "calls": n, "seconds": s} for (p, c), (n, s) in tracer.edges.items()),
            key=lambda e: -e["seconds"],
        )

    latency: dict[str, list[float]] = {}
    for b in batches:
        for subcommand, seconds in b.times:
            latency.setdefault(subcommand, []).append(seconds * b.scale)
    detail["wall_s"] = latency_summary([b.wall_s for b in batches])
    detail["raw_wall_s"] = latency_summary([b.raw_s for b in batches])
    detail["latency"] = {name: latency_summary(values) for name, values in sorted(latency.items())}
    failed = len(run.failures)
    detail["failed_ratio"] = failed / run.attempted
    detail["failures"] = run.failures[:20]
    detail["inputs_sha256"] = run.digest
    detail["metadata"] = metadata(transdiv)
    if tracer is not None:
        detail["metadata"]["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer: Tracer, untraced: list[Batch], traced: list[Batch]) -> dict:
    """Per traced batch, times scaled to nominal speed like wall_s."""
    batches = len(traced)
    points = sum(b.points for b in traced)
    scale = statistics.median(b.scale for b in traced)
    metrics = {}
    for name in SPANS + COUNTED:
        calls = tracer.calls.get(name, 0)
        if name not in COUNTED:
            metrics[f"{name}.self_s"] = {"value": tracer.self_s.get(name, 0.0) * scale / batches, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / batches, "unit": "count"}
        if name in PER_POINT:
            metrics[f"{name}.per_point"] = {"value": calls / points if points else 0.0, "unit": "calls/point"}
        if name in ERRORS:
            metrics[f"{name}.errors"] = {"value": tracer.errors.get(name, 0), "unit": "count"}
    memo: dict = {}
    sizes = [sum(tree_size(c, memo) for c in spec.components) for spec in tracer.alvarez_results]
    metrics["expr.nodes.alvarez"] = {"value": statistics.mean(sizes) if sizes else 0, "unit": "count"}
    overhead = statistics.median(b.wall_s for b in traced) - statistics.median(b.wall_s for b in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    assert list(metrics) == metric_names()
    return metrics


if __name__ == "__main__":
    sys.exit(main())
