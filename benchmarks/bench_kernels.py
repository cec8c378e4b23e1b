#!/usr/bin/env python
"""Kernel-backend scaling benchmark: states/second across workloads.

Times the Tijms-Veldman discretisation propagation -- the hot loop
owned by :mod:`repro.kernels` -- on three synthetic workloads from
:mod:`repro.models.workloads`:

``grid``
    banded lattice (four neighbours per state, striped rewards) at
    |S| = 10^4 and |S| ~ 10^5 -- the apples-to-apples backend shootout;
``crowd``
    the replica-symmetric ring at |S| = 10^5 -- sparse-backend
    territory (and the lumping pre-pass's canonical workload);
``virus``
    the SIR epidemic at |S| ~ 10^5 -- irregular sparsity.

A second leg times Sericola's occupation-time series (the default
engine) on the reduced Q3 model at Table 2's accuracy and on
``grid_mrm`` at t = 10 (and t = 40 in full mode): per cell the
truncation depth N(epsilon), the microseconds per series step and the
value, plus the fitted exponent of series time against N over the
grids' horizons (full mode only: it needs two horizons per grid).

Each (workload, backend) cell reports propagation throughput in
states/second, the value computed, and the process peak RSS.  Cells
whose *dense* step operator would exceed the memory budget
(``--dense-budget-mb``, default 512) are skipped with an explicit
``oom_skipped`` status instead of thrashing or dying on allocation:
a dense |S| x |S| float64 operator at |S| = 10^5 is 80 GB.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py             # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick     # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --min-speedup 3

Exit code 0 when every pair of completed backends agrees to within
1e-12 on every cell of both legs (and, with ``--min-speedup X``, when the sparse backend is at
least ``X`` times faster than the dense baseline on every cell where
both ran); 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms import (DiscretizationEngine, SericolaEngine,
                              clear_caches)
from repro.kernels import available_backends
from repro.models.adhoc import reduced_q3_model
from repro.models.workloads import crowd_mrm, grid_mrm, virus_mrm
from repro.obs import peak_rss_bytes

#: Maximum |value| disagreement tolerated between any two backends.
TOLERANCE = 1e-12

#: Default dense-operator memory budget in MiB; a cell whose |S| x |S|
#: float64 step operator would not fit is skipped, not attempted.
DEFAULT_DENSE_BUDGET_MB = 512

#: (name, model factory, t, r, step, repeats).  The large cells use a
#: coarser discretisation so the full grid stays minutes, not hours.
FULL = [
    ("grid-10k", lambda: grid_mrm(100, 100), 2.0, 8.0, 1.0 / 16, 3),
    ("grid-100k", lambda: grid_mrm(316, 316), 1.0, 4.0, 1.0 / 8, 2),
    ("crowd-100k", lambda: crowd_mrm(200, 500), 1.0, 4.0, 1.0 / 8, 2),
    # A slow epidemic (rates / 64, max exit rate 7.91) keeps the step
    # 1/8 admissible (E004: max exit rate * d <= 1) on the same states.
    ("virus-100k", lambda: virus_mrm(450, infection_rate=2.0 / 64,
                                     recovery_rate=1.0 / 64),
     1.0, 4.0, 1.0 / 8, 2),
]
QUICK = [
    ("grid-4k", lambda: grid_mrm(64, 64), 2.0, 8.0, 1.0 / 16, 2),
    ("grid-100k", lambda: grid_mrm(316, 316), 1.0, 4.0, 1.0 / 8, 1),
    ("crowd-100k", lambda: crowd_mrm(200, 500), 1.0, 4.0, 1.0 / 8, 1),
]



def _q3():
    """The reduced Q3 model, its goal indicator and initial state."""
    reduction = reduced_q3_model()
    model = reduction.model
    indicator = np.zeros(model.num_states)
    indicator[reduction.goal_state] = 1.0
    return model, indicator, int(np.argmax(model.initial_distribution))


def _grid(side: int):
    def build():
        model = grid_mrm(side, side)
        return model, (np.asarray(model.rewards) == 0.0).astype(float), 0
    return build


#: Sericola's truncation bound: Table 2's epsilon.
SERICOLA_EPSILON = 1e-8
#: Largest model the Sericola leg runs on the dense backend: its series
#: costs |S|^2 per column, minutes at 80 x 80.
SERICOLA_DENSE_MAX_STATES = 2000
#: (name, family, model factory, t, r, repeats): the reduced Q3 model
#: at its bounds, ``grid_mrm`` with r = t.  A family's cells differ only
#: in the horizon, so their times give the exponent against N.
SERICOLA_FULL = [
    ("q3", "q3", _q3, 24.0, 600.0, 5),
    ("grid-40-t10", "grid-40", _grid(40), 10.0, 10.0, 3),
    ("grid-80-t10", "grid-80", _grid(80), 10.0, 10.0, 2),
    ("grid-40-t40", "grid-40", _grid(40), 40.0, 40.0, 2),
    ("grid-80-t40", "grid-80", _grid(80), 40.0, 40.0, 1),
]
SERICOLA_QUICK = SERICOLA_FULL[:2]


def dense_operator_bytes(num_states: int) -> int:
    """Memory the dense backend's |S| x |S| step operator needs."""
    return num_states * num_states * 8


def time_backend(backend: str, model, t: float, r: float, step: float,
                 indicator: np.ndarray, initial: int,
                 repeats: int) -> Dict[str, object]:
    """One completed BENCH cell for *backend* on *model*."""
    engine = DiscretizationEngine(step=step, kernel=backend)
    clear_caches()
    # Warm-up run: builds the cached step operators and shift plans
    # and, on the numba backend, pays the JIT compilation once outside
    # the timed region.  ``sweep_unit`` is the uncached adjoint core,
    # so the timed repeats never hit the result cache.
    def run() -> float:
        return float(engine.sweep_unit(model, [t], [r],
                                       indicator)[0, 0, initial])

    value = run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        again = run()
        best = min(best, time.perf_counter() - start)
        if abs(again - value) > TOLERANCE:
            raise AssertionError(
                f"{backend}: non-deterministic result "
                f"({again!r} vs {value!r})")
    steps = int(round(t / step))
    return {
        "kernel_backend": backend,
        "status": "ok",
        "value": float(value),
        "seconds": round(best, 4),
        "states_per_second": round(model.num_states * steps / best, 1),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_workload(name: str, factory, t: float, r: float, step: float,
                 repeats: int, backends: List[str],
                 dense_budget_bytes: int) -> List[Dict[str, object]]:
    """All backend cells for one workload (skipped cells included)."""
    model = factory()
    # Target the zero-reward states: reachable within the time bound
    # from the start state, so the computed probability is macroscopic
    # and backend disagreement shows up.
    indicator = (np.asarray(model.rewards) == 0.0).astype(float)
    if not indicator.any():
        indicator = np.ones(model.num_states)
    # Read the start state, as the Sericola cells do: state 0 may be an
    # absorbing target whose value is 1 on every backend.
    initial = int(np.argmax(model.initial_distribution))
    steps = int(round(t / step))
    print(f"{name}: {model.num_states} states, "
          f"{model.num_transitions} transitions, t={t:g}, r={r:g}, "
          f"d={step:g} ({steps} steps)")
    rows: List[Dict[str, object]] = []
    for backend in backends:
        need = dense_operator_bytes(model.num_states)
        if backend == "dense" and need > dense_budget_bytes:
            print(f"  {backend:6s} skipped: dense operator needs "
                  f"{need / 2 ** 20:,.0f} MiB "
                  f"(budget {dense_budget_bytes / 2 ** 20:,.0f} MiB)")
            rows.append({"kernel_backend": backend,
                         "status": "oom_skipped",
                         "required_bytes": need,
                         "budget_bytes": dense_budget_bytes})
            continue
        row = time_backend(backend, model, t, r, step, indicator,
                           initial, repeats)
        rows.append(row)
        print(f"  {backend:6s} {row['seconds']:8.3f}s  "
              f"{row['states_per_second']:14,.0f} states/s  "
              f"value={row['value']:.12f}  "
              f"rss={row['peak_rss_bytes'] / 2 ** 20:,.0f}MiB")
    for row in rows:
        row["workload"] = name
        row["states"] = model.num_states
    return rows


def time_sericola(backend: str, model, t: float, r: float,
                  indicator: np.ndarray, initial: int,
                  repeats: int) -> Dict[str, object]:
    """One Sericola cell: the uncached series, best of *repeats*."""
    engine = SericolaEngine(epsilon=SERICOLA_EPSILON, kernel=backend)
    clear_caches()

    def run() -> float:
        return float(engine.sweep_unit(model, [t], [r],
                                       indicator)[0, 0, initial])

    value = run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    steps = engine.last_diagnostics.truncation_steps
    return {
        "kernel_backend": backend,
        "status": "ok",
        "value": value,
        "seconds": round(best, 4),
        "steps": steps,
        "us_per_step": round(best / steps * 1e6, 1),
    }


def run_sericola(name: str, family: str, factory, t: float, r: float,
                 repeats: int, backends: List[str]
                 ) -> List[Dict[str, object]]:
    """All backend cells of one Sericola workload."""
    model, indicator, initial = factory()
    print(f"sericola {name}: {model.num_states} states, t={t:g}, r={r:g}")
    rows: List[Dict[str, object]] = []
    for backend in backends:
        if (backend == "dense"
                and model.num_states > SERICOLA_DENSE_MAX_STATES):
            print(f"  {backend:6s} skipped: more than "
                  f"{SERICOLA_DENSE_MAX_STATES} states")
            rows.append({"kernel_backend": backend, "status": "skipped"})
            continue
        row = time_sericola(backend, model, t, r, indicator, initial,
                            repeats)
        rows.append(row)
        print(f"  {backend:6s} {row['seconds']:8.3f}s  "
              f"N={row['steps']:4d}  {row['us_per_step']:10,.1f} us/step  "
              f"value={row['value']:.12f}")
    for row in rows:
        row["workload"] = name
        row["family"] = family
        row["states"] = model.num_states
        row["t"] = t
    return rows


def fit_exponent(rows: List[Dict[str, object]]) -> Optional[float]:
    """The slope of log(seconds) against log(N) on the ``numpy`` cells,
    one intercept per family; ``None`` unless some family has two
    depths."""
    points: Dict[str, List[tuple]] = {}
    for row in rows:
        if row["kernel_backend"] == "numpy" and row["status"] == "ok":
            points.setdefault(str(row["family"]), []).append(
                (np.log(float(row["steps"])), np.log(float(row["seconds"]))))
    across = along = 0.0
    for pairs in points.values():
        x, y = np.array(pairs).T
        across += float(((x - x.mean()) * (y - y.mean())).sum())
        along += float(((x - x.mean()) ** 2).sum())
    return across / along if along > 0.0 else None


def check_agreement(name: str, rows: List[Dict[str, object]]) -> bool:
    """Print and verify the cross-backend value spread for one cell."""
    completed = [row for row in rows if row["status"] == "ok"]
    if len(completed) < 2:
        return True
    values = [row["value"] for row in completed]
    spread = max(values) - min(values)
    print(f"  {name}: cross-backend max|diff| = {spread:.3e} "
          f"(tolerance {TOLERANCE:g})")
    if spread > TOLERANCE:
        print(f"  {name}: BACKENDS DISAGREE", file=sys.stderr)
        return False
    return True


def check_speedup(name: str, rows: List[Dict[str, object]],
                  min_speedup: float) -> bool:
    """Verify sparse >= min_speedup x dense where both completed."""
    by_backend = {row["kernel_backend"]: row for row in rows
                  if row["status"] == "ok"}
    sparse, dense = by_backend.get("sparse"), by_backend.get("dense")
    if sparse is None or dense is None:
        return True
    ratio = (float(sparse["states_per_second"])
             / float(dense["states_per_second"]))
    print(f"  {name}: sparse vs dense {ratio:.2f}x "
          f"(required {min_speedup:g}x)")
    if ratio < min_speedup:
        print(f"  {name}: SPARSE TOO SLOW", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid + one 10^5 sparse cell for "
                             "CI smoke (< 60 s)")
    parser.add_argument("--dense-budget-mb", type=float,
                        default=DEFAULT_DENSE_BUDGET_MB, metavar="MB",
                        help="skip dense cells whose |S|x|S| operator "
                             "exceeds this budget (default "
                             f"{DEFAULT_DENSE_BUDGET_MB} MiB)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the sparse backend is at "
                             "least X times faster (states/s) than "
                             "the dense baseline on every cell where "
                             "both ran")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the cells as JSON rows")
    arguments = parser.parse_args(argv)
    config = QUICK if arguments.quick else FULL
    budget = int(arguments.dense_budget_mb * 2 ** 20)

    backends = available_backends()
    all_rows: List[Dict[str, object]] = []
    failures = 0
    for name, factory, t, r, step, repeats in config:
        rows = run_workload(name, factory, t, r, step, repeats,
                            backends, budget)
        all_rows.extend(rows)
        if not check_agreement(name, rows):
            failures += 1
        if arguments.min_speedup is not None and not check_speedup(
                name, rows, arguments.min_speedup):
            failures += 1

    sericola_rows: List[Dict[str, object]] = []
    for name, family, factory, t, r, repeats in (
            SERICOLA_QUICK if arguments.quick else SERICOLA_FULL):
        rows = run_sericola(name, family, factory, t, r, repeats, backends)
        sericola_rows.extend(rows)
        if not check_agreement(f"sericola {name}", rows):
            failures += 1
    exponent = fit_exponent(sericola_rows)
    if exponent is None:
        print("sericola: time against N needs two horizons per grid "
              "(full mode)")
    else:
        print(f"sericola: time grows as N^{exponent:.2f} on the grids")

    skipped = [row for row in all_rows if row["status"] == "oom_skipped"]
    if skipped:
        print(f"{len(skipped)} dense cell(s) oom_skipped under the "
              f"{budget / 2 ** 20:,.0f} MiB budget")
    if arguments.output is not None:
        arguments.output.write_text(
            json.dumps({"schema": 5, "kernel_cells": all_rows,
                        "sericola_cells": sericola_rows,
                        "sericola_exponent": exponent},
                       indent=2) + "\n")
        print(f"wrote {arguments.output}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
