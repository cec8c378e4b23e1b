#!/usr/bin/env python
"""One-shot benchmark harness: regenerate the paper's tables as JSON.

Runs the three engines on property Q3 of the ad hoc network case study
(Section 5 of the paper) -- the Sericola epsilon sweep (Table 2), the
pseudo-Erlang phase sweep (Table 3) and the discretisation step sweep
(Table 4) -- plus measurements of this library's performance layer:
the joint-vector cache behaviour under repeated identical checks, the
shared-prefix ``(t, r)`` grid sweep against the per-point loop (see
:mod:`bench_sweep`) and the telemetry overhead.  Results (computed
values, errors against the paper's reference, wall-clock seconds,
cache counters) are written to ``BENCH_<YYYYMMDD>.json`` next to this
script.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py           # full tables
    PYTHONPATH=src python benchmarks/run_all.py --quick   # CI smoke, <60s
    PYTHONPATH=src python benchmarks/run_all.py --output out.json

Unlike the ``bench_*.py`` files this needs no pytest-benchmark; it is
plain timed Python so it can run as a CI smoke job.
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
                              SericolaEngine, cache_info, clear_caches,
                              erlang_expanded_model)
from repro.mc.checker import ModelChecker
from repro.models import adhoc
from repro.numerics.poisson import poisson_cache_info
from repro.obs import OBS, REGISTRY
from repro.obs.export import engine_totals

from bench_sweep import sweep_section

REFERENCE = adhoc.Q3_REFERENCE_VALUE

#: Output format version.  2 = per-row engine counters and timing
#: totals are read back from the ``repro.obs`` metrics registry (the
#: primary ledger) instead of per-engine counter objects,
#: and the file carries this ``schema`` marker for
#: ``benchmarks/compare.py``.  3 = table rows additionally record the
#: propagation kernel backend (``kernel_backend``, see
#: :mod:`repro.kernels`) and the throughput ``states_per_second``;
#: matvec timing histograms are keyed by ``(engine, kernel)``.  4 =
#: rows carry ``peak_rss_bytes`` (the process high-water mark sampled
#: by the engines' observability wrapper) and ``kernel_backend``
#: reports the *resolved* backend when the engine ran on ``auto``.
#: 5 = ``peak_rss_bytes`` is read from the cross-process roll-up gauge
#: ``repro_peak_rss_bytes_max`` (the per-process gauges are now
#: ``worker=``-labelled), rows gain ``worker_peak_rss_bytes`` (the
#: largest single process's high-water mark) and the file carries an
#: ``obs_overhead`` section timing an obs-on process sweep against the
#: dark run (the PR 5 overhead contract extended to the executor).
#: Files written since the library lost its forward per-state path
#: have no ``batched_speedup`` section (nothing left to time against).
SCHEMA_VERSION = 5

QUICK = {
    "epsilons": [1e-2, 1e-4, 1e-6],
    "phases": [16, 64],
    "steps": [1.0 / 32],
}
FULL = {
    "epsilons": [row[0] for row in adhoc.TABLE2_OCCUPATION_TIME],
    "phases": [row[0] for row in adhoc.TABLE3_PSEUDO_ERLANG
               if row[0] <= 256],
    "steps": [row[0] for row in adhoc.TABLE4_DISCRETIZATION[:3]],
}


def _timed(function):
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start


def _captured(function):
    """Run *function* under a fresh observability capture.

    Returns ``(value, seconds)`` like :func:`_timed`; afterwards the
    registry holds exactly this run's counters and timing histograms,
    which :func:`_registry_row` reads back into the bench row.
    """
    with OBS.capture(reset_metrics=True):
        return _timed(function)


def _registry_row(engine_name: str) -> dict:
    """One run's engine counters and timing totals, from the registry."""
    snapshot = REGISTRY.snapshot()
    row = engine_totals(REGISTRY, engine_name)
    # Since schema 3 the matvec histogram carries a kernel label next
    # to the engine label, so match by substring and sum across any
    # backends the run touched.
    needle = f'engine="{engine_name}"'
    matvec_sum, matvec_count = 0.0, 0
    for labels, summary in snapshot.get(
            "repro_matvec_block_seconds", {}).items():
        if needle in labels and summary.get("count"):
            matvec_sum += float(summary["sum"])
            matvec_count += int(summary["count"])
    if matvec_count:
        row["matvec_seconds"] = round(matvec_sum, 6)
    fox = snapshot.get("repro_fox_glynn_seconds", {}).get("")
    if fox and fox.get("count"):
        row["fox_glynn_seconds"] = round(float(fox["sum"]), 6)
    rss = snapshot.get("repro_peak_rss_bytes_max", {}).get("")
    if rss:
        row["peak_rss_bytes"] = int(rss)
    worker_rss = [int(value) for labels, value in
                  snapshot.get("repro_peak_rss_bytes", {}).items()
                  if "worker=" in labels]
    if worker_rss:
        row["worker_peak_rss_bytes"] = max(worker_rss)
    return row


def _states_rate(num_states: int, registry_row: dict,
                 seconds: float) -> float:
    """Propagation throughput: ``|S| * steps / wall-clock``."""
    steps = int(registry_row.get("propagation_steps", 0))
    if seconds <= 0.0 or not steps:
        return 0.0
    return round(num_states * steps / seconds, 1)


#: Converged self-reference (set in main); errors are measured against
#: this, the way the pytest benchmarks do, because the reconstruction's
#: converged Q3 value differs from the paper's scanned reference in the
#: third decimal (rate-table ambiguity, see bench_table2_sericola).
_CONVERGED = REFERENCE


def _row(value: float, seconds: float, **extra) -> dict:
    error = abs(value - _CONVERGED)
    row = dict(extra)
    row.update(value=round(float(value), 8),
               abs_error=float(error),
               rel_error_pct=round(100.0 * error / _CONVERGED, 4),
               seconds=round(seconds, 4))
    return row


def bench_table2(setting, epsilons) -> list:
    model, goal, initial, t, r = setting
    rows = []
    for epsilon in epsilons:
        clear_caches()
        engine = SericolaEngine(epsilon=epsilon)
        vector, seconds = _captured(
            lambda: engine.joint_probability_vector(model, t, r, [goal]))
        registry = _registry_row(engine.name)
        rows.append(_row(vector[initial], seconds, epsilon=epsilon,
                         kernel_backend=engine.last_kernel or engine.kernel,
                         states_per_second=_states_rate(
                             model.num_states, registry, seconds),
                         **registry))
        print(f"  sericola eps={epsilon:.0e}: {rows[-1]['value']:.8f} "
              f"({seconds:.3f}s)")
    return rows


def bench_table3(setting, phase_counts) -> list:
    model, goal, initial, t, r = setting
    rows = []
    for phases in phase_counts:
        clear_caches()
        engine = ErlangEngine(phases=phases)
        vector, seconds = _captured(
            lambda: engine.joint_probability_vector(model, t, r, [goal]))
        registry = _registry_row(engine.name)
        expanded_states = erlang_expanded_model(model, r,
                                                phases)[0].num_states
        rows.append(_row(vector[initial], seconds, phases=phases,
                         expanded_states=expanded_states,
                         kernel_backend=engine.last_kernel or engine.kernel,
                         states_per_second=_states_rate(
                             expanded_states, registry, seconds),
                         **registry))
        print(f"  erlang k={phases:4d}: {rows[-1]['value']:.8f} "
              f"({seconds:.3f}s)")
    return rows


def bench_table4(setting, steps) -> list:
    model, goal, initial, t, r = setting
    rows = []
    for step in steps:
        clear_caches()
        engine = DiscretizationEngine(step=step)
        vector, seconds = _captured(
            lambda: engine.joint_probability_vector(model, t, r, [goal]))
        registry = _registry_row(engine.name)
        rows.append(_row(vector[initial], seconds,
                         step=f"1/{int(round(1 / step))}",
                         kernel_backend=engine.last_kernel or engine.kernel,
                         states_per_second=_states_rate(
                             model.num_states, registry, seconds),
                         **registry))
        print(f"  discretization d=1/{int(round(1 / step)):3d}: "
              f"{rows[-1]['value']:.8f} ({seconds:.3f}s)")
    return rows


def bench_cache(setting) -> dict:
    """Repeated identical checks through the model checker."""
    clear_caches()
    checker = ModelChecker(adhoc.adhoc_model())
    formula = ("P<=0.25 [ (call_idle | doze) U[0,24][0,600] "
               "call_initiated ]")
    with OBS.capture(reset_metrics=True):
        _, first_seconds = _timed(lambda: checker.check(formula))
        checker.clear_cache()
        _, second_seconds = _timed(lambda: checker.check(formula))
    stats = _registry_row(checker.engine.name)
    print(f"  first check {first_seconds:.3f}s, repeat "
          f"{second_seconds:.4f}s, stats {stats}")
    return {
        "formula": formula,
        "first_seconds": round(first_seconds, 4),
        "repeat_seconds": round(second_seconds, 6),
        "engine_stats": stats,
        "joint_cache": cache_info()["joint"],
        "poisson_cache": poisson_cache_info(),
    }


def bench_obs_overhead(setting) -> dict:
    """Cross-process aggregation overhead: obs-on sweep vs dark run.

    Worker telemetry (metric snapshots, span segments, the flight
    recorder) piggybacks on the result pipe; this times the same
    process-executor grid with observability off and on and reports
    the overhead.  The 5% budget is the PR 5 contract extended to the
    executor -- exceeding it prints a warning and is recorded in the
    row, so regressions are visible in the BENCH diff.
    """
    from repro.exec import ProcessShardExecutor
    model, goal, _initial, time_bound, reward_bound = setting
    times = [time_bound / 2.0, time_bound]
    rewards = [reward_bound / 2.0, reward_bound]
    engine = DiscretizationEngine(step=1.0 / 32)

    def run():
        partial = engine.joint_probability_sweep_partial(
            model, times, rewards, [goal],
            executor=ProcessShardExecutor(max_workers=2))
        assert partial.complete
        return partial

    clear_caches()
    _, seconds_off = _timed(run)
    clear_caches()
    with OBS.capture(reset_metrics=True):
        _, seconds_on = _timed(run)
        snapshot = REGISTRY.snapshot()
    worker_rss = [int(value) for labels, value in
                  snapshot.get("repro_peak_rss_bytes", {}).items()
                  if "worker=" in labels]
    overhead_pct = (100.0 * (seconds_on - seconds_off) / seconds_off
                    if seconds_off > 0.0 else 0.0)
    within = overhead_pct <= 5.0
    if not within:
        print("  WARNING: cross-process observability overhead "
              f"{overhead_pct:.1f}% exceeds the 5% budget")
    print(f"  obs off {seconds_off:.3f}s | obs on {seconds_on:.3f}s "
          f"| overhead {overhead_pct:+.1f}%")
    return {
        "grid_cells": len(times) * len(rewards),
        "seconds_off": round(seconds_off, 4),
        "seconds_on": round(seconds_on, 4),
        "overhead_pct": round(overhead_pct, 2),
        "within_budget": within,
        "worker_peak_rss_bytes": max(worker_rss, default=0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sweeps for CI smoke (< 60 s)")
    parser.add_argument("--output", type=Path, default=None,
                        help="output JSON path (default: "
                             "benchmarks/BENCH_<YYYYMMDD>.json)")
    arguments = parser.parse_args(argv)
    config = QUICK if arguments.quick else FULL

    reduction = adhoc.reduced_q3_model()
    model = reduction.model
    initial = int(np.argmax(model.initial_distribution))
    setting = (model, reduction.goal_state, initial,
               adhoc.Q3_TIME_BOUND, adhoc.Q3_REWARD_BOUND)

    started = time.perf_counter()
    global _CONVERGED
    converged = SericolaEngine(epsilon=1e-10).joint_probability_vector(
        model, setting[3], setting[4], [reduction.goal_state])
    _CONVERGED = float(converged[initial])
    print(f"converged self-reference: {_CONVERGED:.8f} "
          f"(paper: {REFERENCE:.8f})")
    print("Table 2 (Sericola / occupation time):")
    table2 = bench_table2(setting, config["epsilons"])
    print("Table 3 (pseudo-Erlang):")
    table3 = bench_table3(setting, config["phases"])
    print("Table 4 (Tijms-Veldman discretisation):")
    table4 = bench_table4(setting, config["steps"])
    print("Result cache under repeated checks:")
    cache = bench_cache(setting)
    print("Shared-prefix (t, r) grid sweep:")
    sweep = sweep_section(quick=arguments.quick)
    print("Cross-process telemetry aggregation overhead:")
    obs_overhead = bench_obs_overhead(setting)

    results = {
        "schema": SCHEMA_VERSION,
        "date": datetime.date.today().isoformat(),
        "quick": arguments.quick,
        "python": platform.python_version(),
        "total_seconds": round(time.perf_counter() - started, 2),
        "model": {
            "name": "adhoc-battery-q3",
            "reduced_states": model.num_states,
            "time_bound": adhoc.Q3_TIME_BOUND,
            "reward_bound": adhoc.Q3_REWARD_BOUND,
            "paper_reference_value": REFERENCE,
            "converged_value": round(_CONVERGED, 8),
        },
        "table2_sericola": table2,
        "table3_erlang": table3,
        "table4_discretization": table4,
        "cache": cache,
        "sweep": sweep,
        "obs_overhead": obs_overhead,
    }
    stamp = datetime.date.today().strftime("%Y%m%d")
    output = arguments.output or (
        Path(__file__).resolve().parent / f"BENCH_{stamp}.json")
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {output} ({results['total_seconds']}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
