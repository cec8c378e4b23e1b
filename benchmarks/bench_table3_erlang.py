"""Table 3: the pseudo-Erlang approximation under a phase sweep.

One benchmark per number of phases k in {1, 2, ..., 1024}; each
reports the computed value, its relative error against the converged
value, and the paper's counterparts.  The paper's qualitative claims
are asserted: convergence is monotone from below and the error roughly
halves per doubling of k.
"""

import pytest

from repro.algorithms import ErlangEngine, erlang_expanded_model
from repro.models import adhoc

from bench_sweep import observed_counts
from conftest import report


@pytest.mark.parametrize(
    "phases,paper_value,paper_error",
    [pytest.param(row[0], row[1], row[2], id=f"k={row[0]}")
     for row in adhoc.TABLE3_PSEUDO_ERLANG])
def bench_table3_row(benchmark, q3_setting, q3_exact, phases,
                     paper_value, paper_error):
    model, goal, initial, t, r = q3_setting
    engine = ErlangEngine(phases=phases)

    def run():
        return engine.joint_probability_vector(model, t, r,
                                               [goal])[initial]

    value = benchmark(run)
    error_pct = 100.0 * (q3_exact - value) / q3_exact
    assert value < q3_exact, "pseudo-Erlang converges from below"
    report(benchmark,
           phases=phases,
           value=round(float(value), 8), paper_value=paper_value,
           rel_error_pct=round(float(error_pct), 3),
           paper_rel_error_pct=paper_error,
           expanded_states=erlang_expanded_model(
               model, r, phases)[0].num_states)


def bench_table3_error_halving(benchmark, q3_setting, q3_exact):
    """Qualitative shape: the error roughly halves per doubling of k."""
    model, goal, initial, t, r = q3_setting

    def sweep():
        errors = []
        for phases in (8, 16, 32, 64, 128):
            engine = ErlangEngine(phases=phases)
            value = engine.joint_probability_vector(
                model, t, r, [goal])[initial]
            errors.append(q3_exact - value)
        return errors

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ratios = [earlier / later
              for earlier, later in zip(errors, errors[1:])]
    for ratio in ratios:
        assert 1.5 < ratio < 2.6, (
            f"error should roughly halve per doubling, got {ratios}")
    report(benchmark, ratios=[round(float(r), 2) for r in ratios],
           paper_ratio_hint="~2 per doubling (Table 3)")


def bench_table3_bound_grid_sweep(benchmark, q3_setting):
    """A (t, r) bound grid through the shared-prefix sweep API.

    For each reward bound the expanded chain's backward iterates are
    shared across all time bounds; distinct reward bounds (distinct
    expansions) fan out over threads.  The result must match
    independent per-point calls to 1e-10.
    """
    import numpy as np
    from repro.algorithms import clear_caches
    model, goal, initial, t, r = q3_setting
    times = [t * f for f in (0.25, 0.5, 0.75, 1.0)]
    rewards = [r * f for f in (0.25, 0.5, 0.75, 1.0)]
    engine = ErlangEngine(phases=64)

    def run():
        clear_caches()
        return engine.joint_probability_sweep(model, times, rewards,
                                              [goal])

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = ErlangEngine(phases=64)

    def per_point():
        for i, time_bound in enumerate(times):
            for j, reward_bound in enumerate(rewards):
                point = reference.joint_probability_vector(
                    model, time_bound, reward_bound, [goal])
                assert np.max(np.abs(grid[i, j] - point)) <= 1e-10

    per_point_matvecs = observed_counts(per_point)["matvec_count"]
    report(benchmark, grid=f"{len(times)}x{len(rewards)}",
           value=round(float(grid[-1, -1, initial]), 8),
           sweep_matvecs=observed_counts(run)["matvec_count"],
           per_point_matvecs=per_point_matvecs)
