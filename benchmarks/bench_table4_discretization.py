"""Table 4: the Tijms--Veldman discretisation under a step-size sweep.

One benchmark per step size d; the paper halves d per row and observes
the runtime quadrupling (cost ~ t*r/d^2) while the value converges.
The d = 1/512 row of the paper takes minutes; it is included behind
the ``--run-slow-benchmarks`` flag equivalent (deselect by keyword) as
a single-round pedantic benchmark.
"""

import numpy as np
import pytest

from repro.algorithms import DiscretizationEngine
from repro.models import adhoc

from bench_sweep import observed_counts
from conftest import report

_ROWS = adhoc.TABLE4_DISCRETIZATION


@pytest.mark.parametrize(
    "step,paper_value,paper_error",
    [pytest.param(row[0], row[1], row[2],
                  id=f"d=1_{int(round(1 / row[0]))}")
     for row in _ROWS[:3]])
def bench_table4_row(benchmark, q3_setting, q3_exact, step,
                     paper_value, paper_error):
    model, goal, initial, t, r = q3_setting
    engine = DiscretizationEngine(step=step)
    indicator = np.zeros(model.num_states)
    indicator[goal] = 1.0

    def run():
        return engine.sweep_unit(model, [t], [r],
                                 indicator)[0, 0, initial]

    value = benchmark.pedantic(run, rounds=1, iterations=1)
    error_pct = 100.0 * abs(value - q3_exact) / q3_exact
    assert error_pct < 0.1
    report(benchmark,
           step=f"1/{int(round(1 / step))}",
           value=round(float(value), 8), paper_value=paper_value,
           rel_error_pct=round(float(error_pct), 4),
           paper_rel_error_pct=paper_error)


def bench_table4_quadratic_cost(benchmark, q3_setting):
    """The paper's runtime observation: halving d quadruples the cost.

    Measured on coarser steps to keep the benchmark fast; the ratio of
    consecutive runtimes must be clearly super-linear.
    """
    import time
    model, goal, initial, t, r = q3_setting
    indicator = np.zeros(model.num_states)
    indicator[goal] = 1.0

    def measure():
        timings = []
        # The coarsest admissible step: 1 - E(s) d must stay positive,
        # and E_max = 19.5/h on the case study, so d <= 1/32 here.
        for step in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            engine = DiscretizationEngine(step=step)
            start = time.perf_counter()
            engine.sweep_unit(model, [t], [r], indicator)
            timings.append(time.perf_counter() - start)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratios = [later / earlier
              for earlier, later in zip(timings, timings[1:])]
    assert all(ratio > 2.0 for ratio in ratios), (
        f"cost should grow ~4x per halving of d, got ratios {ratios}")
    report(benchmark,
           ratios=[round(float(ratio), 2) for ratio in ratios],
           paper_ratio_hint="~4x per halving (Table 4 timings)")


def bench_table4_bound_grid_sweep(benchmark, q3_setting):
    """A (t, r) bound grid through the shared-prefix sweep API.

    One adjoint propagation per reward column serves every time bound
    (the backward recurrence is time-homogeneous), and columns fan out
    over threads.  The result must match independent per-point calls
    to 1e-10 -- it is bit-identical by construction.
    """
    import time
    from repro.algorithms import clear_caches
    model, goal, initial, t, r = q3_setting
    times = [t * f for f in (0.25, 0.5, 0.75, 1.0)]
    rewards = [r * f for f in (0.25, 0.5, 0.75, 1.0)]
    engine = DiscretizationEngine(step=1.0 / 32)

    def run():
        clear_caches()
        return engine.joint_probability_sweep(model, times, rewards,
                                              [goal])

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = DiscretizationEngine(step=1.0 / 32)

    def per_point():
        for i, time_bound in enumerate(times):
            for j, reward_bound in enumerate(rewards):
                point = reference.joint_probability_vector(
                    model, time_bound, reward_bound, [goal])
                assert np.max(np.abs(grid[i, j] - point)) <= 1e-10

    clear_caches()
    start = time.perf_counter()
    per_point()
    per_point_seconds = time.perf_counter() - start
    report(benchmark, grid=f"{len(times)}x{len(rewards)}",
           value=round(float(grid[-1, -1, initial]), 8),
           per_point_seconds=round(per_point_seconds, 3),
           sweep_matvecs=observed_counts(run)["matvec_count"],
           per_point_matvecs=observed_counts(per_point)["matvec_count"])
