#!/usr/bin/env python
"""Sweep-evaluation benchmark: per-point vs shared-prefix vs threads.

Evaluates the paper's Q3 property over a whole ``(t, r)`` grid of
bounds (the workload behind Tables 2--4, where one formula is swept
over its accuracy/bound parameters) three ways per engine:

* **per-point** -- one :meth:`joint_probability_vector` call per grid
  cell, the pre-sweep baseline;
* **sweep** -- one :meth:`joint_probability_sweep` call sharing the
  propagation prefix across the grid;
* **threaded** -- the fault-tolerant partial sweep on the in-process
  thread executor (``joint_probability_sweep_partial``), which runs
  the engine's shared-work units and must stay close to the sweep.

The three must agree to 1e-10; speedups and engine counters are merged
into ``BENCH_<YYYYMMDD>.json`` next to this script (created if
missing, the ``sweep`` section replaced if present).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py            # 8x8 grid
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick    # 4x4, <60s
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick --min-speedup 1.0

``--min-speedup X`` exits non-zero when the discretisation engine's
sweep is less than ``X`` times faster than its per-point loop -- the
CI regression guard for the shared-prefix layer.
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

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.models import adhoc
from repro.obs import OBS
from repro.obs.export import engine_totals


def _grid_bounds(points: int):
    """Uniform (t, r) grids up to the Q3 bounds, ``points`` per axis."""
    fractions = np.arange(1, points + 1) / points
    times = [float(adhoc.Q3_TIME_BOUND * f) for f in fractions]
    rewards = [float(adhoc.Q3_REWARD_BOUND * f) for f in fractions]
    return times, rewards


def observed_counts(function) -> dict:
    """The engine-counter ledger of one cold run of *function* under an
    observability capture -- a re-run, so the timed runs stay
    unobserved."""
    clear_caches()
    with OBS.capture():
        function()
    return engine_totals(OBS.metrics)


def measure_engine(engine_factory, setting, times, rewards,
                   max_workers=None) -> dict:
    """Time the three evaluation strategies for one engine config.

    *engine_factory* builds a fresh engine per strategy so no engine
    state leaks between measurements; the engine counters come from an
    observed re-run of each timed strategy (:func:`observed_counts`).
    Returns one JSON row.
    """
    model, goal, _initial, _t, _r = setting
    target = [goal]

    def per_point():
        loop = np.empty((len(times), len(rewards), model.num_states))
        for i, t in enumerate(times):
            for j, r in enumerate(rewards):
                loop[i, j] = engine.joint_probability_vector(model, t, r,
                                                             target)
        return loop

    def sweep():
        return engine.joint_probability_sweep(model, times, rewards,
                                              target)

    clear_caches()
    engine = engine_factory()
    start = time.perf_counter()
    loop = per_point()
    per_point_seconds = time.perf_counter() - start
    per_point_stats = observed_counts(per_point)

    clear_caches()
    engine = engine_factory()
    start = time.perf_counter()
    swept = sweep()
    sweep_seconds = time.perf_counter() - start
    sweep_stats = observed_counts(sweep)

    clear_caches()
    engine = engine_factory()
    start = time.perf_counter()
    partial = engine.joint_probability_sweep_partial(
        model, times, rewards, target, max_workers=max_workers)
    threaded_seconds = time.perf_counter() - start

    sweep_diff = float(np.max(np.abs(swept - loop)))
    threaded_diff = float(np.max(np.abs(partial.grid - loop)))
    row = {
        "engine": engine.name,
        "grid": f"{len(times)}x{len(rewards)}",
        "per_point_seconds": round(per_point_seconds, 4),
        "sweep_seconds": round(sweep_seconds, 4),
        "threaded_seconds": round(threaded_seconds, 4),
        "sweep_speedup": round(per_point_seconds / sweep_seconds, 2),
        "threaded_speedup": round(
            per_point_seconds / threaded_seconds, 2),
        "sweep_max_abs_diff": sweep_diff,
        "threaded_max_abs_diff": threaded_diff,
        "per_point_matvecs": per_point_stats["matvec_count"],
        "sweep_matvecs": sweep_stats["matvec_count"],
        "sweep_stats": sweep_stats,
    }
    print(f"  {engine.name:>14}: per-point {per_point_seconds:6.3f}s  "
          f"sweep {sweep_seconds:6.3f}s ({row['sweep_speedup']:.1f}x)  "
          f"threads {threaded_seconds:6.3f}s "
          f"({row['threaded_speedup']:.1f}x)  "
          f"max|diff| {max(sweep_diff, threaded_diff):.2e}")
    return row


def sweep_section(quick: bool) -> dict:
    """The full ``sweep`` benchmark section (reused by run_all)."""
    points = 4 if quick else 8
    times, rewards = _grid_bounds(points)
    reduction = adhoc.reduced_q3_model()
    model = reduction.model
    initial = int(np.argmax(model.initial_distribution))
    setting = (model, reduction.goal_state, initial,
               adhoc.Q3_TIME_BOUND, adhoc.Q3_REWARD_BOUND)
    print(f"(t, r) grid: {points}x{points} up to "
          f"t={adhoc.Q3_TIME_BOUND}, r={adhoc.Q3_REWARD_BOUND}")
    engines = [
        lambda: SericolaEngine(epsilon=1e-6),
        lambda: ErlangEngine(phases=64),
        lambda: DiscretizationEngine(step=1.0 / 32),
    ]
    rows = [measure_engine(factory, setting, times, rewards)
            for factory in engines]
    return {
        "times": times,
        "reward_bounds": rewards,
        "reduced_states": model.num_states,
        "engines": rows,
    }


def merge_into_bench_json(section: dict, output: Path) -> None:
    """Write *section* under the ``sweep`` key, keeping other sections."""
    results = {}
    if output.exists():
        results = json.loads(output.read_text())
    results.setdefault("date", datetime.date.today().isoformat())
    results.setdefault("python", platform.python_version())
    results["sweep"] = section
    output.write_text(json.dumps(results, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="4x4 grid for CI smoke (< 60 s)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the discretisation sweep is less "
                             "than this many times faster than the "
                             "per-point loop")
    parser.add_argument("--output", type=Path, default=None,
                        help="output JSON path (default: "
                             "benchmarks/BENCH_<YYYYMMDD>.json)")
    arguments = parser.parse_args(argv)

    started = time.perf_counter()
    section = sweep_section(arguments.quick)
    section["quick"] = arguments.quick
    section["total_seconds"] = round(time.perf_counter() - started, 2)

    stamp = datetime.date.today().strftime("%Y%m%d")
    output = arguments.output or (
        Path(__file__).resolve().parent / f"BENCH_{stamp}.json")
    merge_into_bench_json(section, output)
    print(f"\nwrote {output} ({section['total_seconds']}s total)")

    for row in section["engines"]:
        if max(row["sweep_max_abs_diff"],
               row["threaded_max_abs_diff"]) > 1e-10:
            print(f"FAIL: {row['engine']} strategies disagree beyond "
                  f"1e-10")
            return 1
    if arguments.min_speedup is not None:
        disc = next(row for row in section["engines"]
                    if row["engine"] == "discretization")
        if disc["sweep_speedup"] < arguments.min_speedup:
            print(f"FAIL: discretization sweep speedup "
                  f"{disc['sweep_speedup']}x below required "
                  f"{arguments.min_speedup}x")
            return 1
        print(f"discretization sweep speedup {disc['sweep_speedup']}x "
              f">= required {arguments.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
