#!/usr/bin/env python3
"""Steadiness check: run each workload under several seeds and report
each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median; it must stay well below the metric's ``bound`` in
``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 --output perfbench/STEADINESS.json

With ``--previous FILE`` (an earlier report of this script) the new report
keeps that earlier set and adds, per workload and metric, how far the new
median moved from the earlier one, as a share of the earlier median.

Run from the repository root.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=str(ROOT))
    wall = time.perf_counter() - start
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{completed.returncode}: {completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"seed": seed, "run_s": wall, "result": result,
            "ops": {kind: timing["median"]
                    for kind, timing in detail["ops"].items()},
            "environment": detail["environment"]}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def with_previous(report: dict, previous: dict) -> None:
    """Attach an earlier set and each metric's median drift from it."""
    previous.pop("previous", None)
    report["previous"] = previous
    report["median_drift"] = {
        name: {metric: values["median"] / previous["workloads"][name][
            "metrics"][metric]["median"] - 1.0
               for metric, values in workload["metrics"].items()}
        for name, workload in report["workloads"].items()
        if name in previous["workloads"]}
    for name, drifts in report["median_drift"].items():
        for metric, drift in drifts.items():
            print(f"{name:>11} {metric:>12}: median moved {drift:+.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--previous", type=Path, default=None)
    arguments = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = arguments.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "runs": arguments.runs,
              "workloads": {}}
    worst = 0.0
    for name in names:
        runs = [one_run(name, arguments.first_seed + i,
                        bench["run_seconds"])
                for i in range(arguments.runs)]
        if not all(run["result"]["correct"] for run in runs):
            print(f"{name}: a run reported correct=false")
            return 1
        metrics = {}
        for metric in bounds:
            values = [run["result"]["metrics"][metric]["value"]
                      for run in runs]
            metrics[metric] = spread(values)
            metrics[metric]["bound"] = bounds[metric]
            if metric != "setup_s":
                worst = max(worst, metrics[metric]["spread"]
                            / bounds[metric])
            print(f"{name:>11} {metric:>12}: median "
                  f"{metrics[metric]['median']:.4f}  spread "
                  f"{metrics[metric]['spread']:.4f}  bound "
                  f"{bounds[metric]}")
        report["workloads"][name] = {
            "metrics": metrics,
            "run_s": [round(run["run_s"], 2) for run in runs],
            "op_medians": {kind: [run["ops"][kind] for run in runs]
                           for kind in runs[0]["ops"]},
            "environment": runs[0]["environment"],
        }
        print(f"{name:>11} run wall: max "
              f"{max(run['run_s'] for run in runs):.1f} s")
    if arguments.previous:
        with_previous(report, json.loads(arguments.previous.read_text()))
    if arguments.output:
        arguments.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"worst spread / bound (excluding setup_s): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
