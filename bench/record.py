"""Run every workload over several seeds and summarise the spread.

    python3 bench/record.py --seeds 1-10 --out bench/results/baseline.json

Each (workload, seed) is one untimed-setup-plus-timed run of
``bench/run.py --trace 0`` in its own process, one after another; each
workload then gets one ``--trace 1`` run for the per-layer numbers.
For every end-to-end metric the table gives the median of the runs,
their quartiles and the spread (q3 - q1) / median next to the bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(details, result) from the last two lines of one run."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    print(f"{'workload':15s} {'metric':20s} {'unit':5s} {'median':>12s} {'spread':>7s} {'bound':>6s}")
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry: dict = {
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "runs": [
                {"seed": d["seed"], "inputs_sha256": d["inputs_sha256"], "batches": d["batches"],
                 "latency": d["latency"], "failures": d["failures"]}
                for d, _ in runs
            ],
            "metrics": {},
        }
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for _, r in runs])
            stats["unit"] = runs[0][1]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            print(f"{workload:15s} {name:20s} {stats['unit']:5s} {stats['median']:12.6g} "
                  f"{stats['spread']:7.2%} {bounds[name]['bound']:6.0%}")
        print(f"{workload:15s} {'failed_ratio':20s} {'':5s} {entry['failed_ratio']:12.6g}")
        for details, _ in runs:
            for failure in details["failures"]:
                print(f"  seed {details['seed']}: {failure}")
        if not args.no_trace:
            details, result = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
            entry["trace"] = {
                "seed": args.seeds[0],
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "edges": details["edges"],
            }
            print(f"{workload:15s} {'trace.overhead_s':20s} {'s':5s} "
                  f"{result['metrics']['trace.overhead_s']['value']:12.6g}")
        entry["metadata"] = runs[0][0]["metadata"]
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
