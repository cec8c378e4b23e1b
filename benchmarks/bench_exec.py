#!/usr/bin/env python
"""Executor benchmark: thread vs process sweeps, clean and under chaos.

Evaluates the paper's Q3 property over a ``(t, r)`` grid (the Table 4
workload) with the shared-prefix sweep and then through the
partial-sweep machinery four ways:

* **shared** -- ``joint_probability_sweep``, the yardstick every
  executor leg is timed against (``--max-ratio``);
* **thread** -- the in-process executor (``executor="thread"``), the
  reference grid;
* **process** -- :class:`~repro.exec.ProcessShardExecutor`,
  crash-isolated worker processes (model shipped once per worker,
  spec-transported engines);
* **process+chaos** -- the same, with the fault-injection harness
  crashing/corrupting ~20% of first attempts: measures the price of a
  retry storm;
* **process+checkpoint** -- a cold checkpointed run, then a resume
  from the finished file: measures checkpoint overhead and the resume
  fast-path.

All grids, the shared one included, must agree **bit for bit**
(max|diff| exactly 0.0) -- the fault-tolerance layer is not allowed to
cost accuracy.  The executors run the engine's shared-work units, so
with ``--max-ratio X`` the run also fails when the thread or process
leg takes more than ``X`` times the shared sweep.  Results are merged
into ``BENCH_<YYYYMMDD>.json`` under the ``exec`` section.

Usage::

    PYTHONPATH=src python benchmarks/bench_exec.py           # 6x6 grid
    PYTHONPATH=src python benchmarks/bench_exec.py --quick   # 3x3, <60s
    PYTHONPATH=src python benchmarks/bench_exec.py --quick --max-ratio 1.5
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import DiscretizationEngine, clear_caches
from repro.exec import ProcessShardExecutor
from repro.models import adhoc

CHAOS = "rate=0.2;kinds=crash,corrupt;seed=9"

#: The executor legs ``--max-ratio`` gates against the shared sweep.
GATED = ("thread", "process")


def _grid_bounds(points: int):
    fractions = np.arange(1, points + 1) / points
    times = [float(adhoc.Q3_TIME_BOUND * f) for f in fractions]
    rewards = [float(adhoc.Q3_REWARD_BOUND * f) for f in fractions]
    return times, rewards


def _run(engine_factory, model, target, times, rewards, *,
         executor=None, checkpoint=None):
    clear_caches()
    engine = engine_factory()
    start = time.perf_counter()
    partial = engine.joint_probability_sweep_partial(
        model, times, rewards, target, executor=executor,
        checkpoint=checkpoint)
    elapsed = time.perf_counter() - start
    assert partial.complete, partial.failures
    return partial.grid, elapsed


def exec_section(quick: bool, workers: int, tmp: Path) -> dict:
    points = 3 if quick else 6
    times, rewards = _grid_bounds(points)
    reduction = adhoc.reduced_q3_model()
    model = reduction.model
    target = [reduction.goal_state]

    def factory():
        return DiscretizationEngine(step=1.0 / (32 if quick else 64))

    print(f"(t, r) grid: {points}x{points}, {workers} workers, "
          f"{model.num_states}-state reduced Q3 model")

    # One untimed warm-up pays the process's first-call costs (kernel
    # selection, imports), which no leg should carry.
    factory().joint_probability_sweep(model, times, rewards, target)
    clear_caches()
    start = time.perf_counter()
    shared = factory().joint_probability_sweep(model, times, rewards,
                                               target)
    shared_seconds = time.perf_counter() - start
    reference, thread_seconds = _run(
        factory, model, target, times, rewards, executor="thread")

    def process(**options):
        return ProcessShardExecutor(max_workers=workers, **options)

    grids = {"shared": shared}
    grids["process"], process_seconds = _run(
        factory, model, target, times, rewards, executor=process())

    chaos_executor = process(faults=CHAOS, heartbeat_timeout=1.0)
    grids["chaos"], chaos_seconds = _run(
        factory, model, target, times, rewards,
        executor=chaos_executor)

    checkpoint = tmp / "bench_exec_checkpoint.jsonl"
    if checkpoint.exists():
        checkpoint.unlink()
    grids["checkpointed"], cold_seconds = _run(
        factory, model, target, times, rewards, executor=process(),
        checkpoint=str(checkpoint))
    grids["resumed"], resume_seconds = _run(
        factory, model, target, times, rewards, executor=process(),
        checkpoint=str(checkpoint))
    checkpoint.unlink()

    diffs = {name: float(np.max(np.abs(grid - reference)))
             for name, grid in grids.items()}
    ratios = {"thread": thread_seconds / shared_seconds,
              "process": process_seconds / shared_seconds,
              "chaos": chaos_seconds / shared_seconds,
              "checkpoint_cold": cold_seconds / shared_seconds}
    row = {
        "grid": f"{points}x{points}",
        "workers": workers,
        "shared_seconds": round(shared_seconds, 4),
        "thread_seconds": round(thread_seconds, 4),
        "process_seconds": round(process_seconds, 4),
        "chaos_seconds": round(chaos_seconds, 4),
        "chaos_faults": CHAOS,
        "chaos_restarts": chaos_executor.restarts,
        "chaos_retries": chaos_executor.retries,
        "checkpoint_cold_seconds": round(cold_seconds, 4),
        "checkpoint_resume_seconds": round(resume_seconds, 4),
        "ratios_to_shared": {name: round(ratio, 3)
                             for name, ratio in ratios.items()},
        "max_abs_diffs": diffs,
    }
    print(f"  shared  {shared_seconds:6.3f}s   "
          f"thread  {thread_seconds:6.3f}s   "
          f"process {process_seconds:6.3f}s   "
          f"chaos {chaos_seconds:6.3f}s "
          f"({chaos_executor.restarts} restarts, "
          f"{chaos_executor.retries} retries)")
    print(f"  checkpoint cold {cold_seconds:6.3f}s   "
          f"resume {resume_seconds:6.3f}s   "
          f"max|diff| {max(diffs.values()):.1e}")
    print("  ratio to shared: " + "   ".join(
        f"{name} {ratio:.2f}x" for name, ratio in ratios.items()))
    return {"engine": "discretization", "runs": row}


def merge_into_bench_json(section: dict, output: Path) -> None:
    results = {}
    if output.exists():
        results = json.loads(output.read_text())
    results.setdefault("date", datetime.date.today().isoformat())
    results.setdefault("python", platform.python_version())
    results["exec"] = section
    output.write_text(json.dumps(results, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="3x3 grid for CI smoke (< 60 s)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--max-ratio", type=float, default=None,
                        help="fail when the thread or process leg "
                             "takes more than this multiple of the "
                             "shared sweep")
    arguments = parser.parse_args(argv)

    started = time.perf_counter()
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        section = exec_section(arguments.quick, arguments.workers,
                               Path(tmp))
    section["quick"] = arguments.quick
    section["total_seconds"] = round(time.perf_counter() - started, 2)

    stamp = datetime.date.today().strftime("%Y%m%d")
    output = arguments.output or (
        Path(__file__).resolve().parent / f"BENCH_{stamp}.json")
    merge_into_bench_json(section, output)
    print(f"\nwrote {output} ({section['total_seconds']}s total)")

    diffs = section["runs"]["max_abs_diffs"]
    if max(diffs.values()) != 0.0:
        print(f"FAIL: executor grids are not bit-identical: {diffs}")
        return 1
    print("all executor grids bit-identical to the threaded baseline")
    if arguments.max_ratio is not None:
        ratios = section["runs"]["ratios_to_shared"]
        slow = {leg: ratios[leg] for leg in GATED
                if ratios[leg] > arguments.max_ratio}
        if slow:
            print(f"FAIL: executor legs slower than "
                  f"{arguments.max_ratio}x the shared sweep: {slow}")
            return 1
        print(f"thread and process legs within {arguments.max_ratio}x "
              f"of the shared sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
