"""Scaling and ablation studies behind the paper's Section 5.4 notes.

The paper's "general observations" make several complexity claims that
these benchmarks measure on controlled workloads:

* the occupation-time method degrades when the time bound is large
  relative to the uniformisation rate (cost ~ N_epsilon^2 and
  N_epsilon ~ lambda t);
* the discretisation method suffers from large time bounds and state
  spaces;
* the pseudo-Erlang chain grows k-fold (cost of the expanded
  transient analysis);
* Theorem 1's amalgamation of decided states shrinks the model.
"""

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, erlang_expanded_model)
from repro.mc.transform import (amalgamated_until_reduction,
                                until_reduction)
from repro.models import adhoc
from repro.models.workloads import workstation_cluster

from conftest import report


@pytest.mark.parametrize("stations", [5, 10, 20, 40],
                         ids=lambda n: f"n={n}")
def bench_sericola_state_scaling(benchmark, stations):
    """Occupation-time engine vs state-space size (cluster models)."""
    model = workstation_cluster(stations)
    t = 10.0
    r = 0.9 * stations * t
    engine = SericolaEngine(epsilon=1e-6)

    def run():
        return engine.joint_probability_vector(
            model, t, r, range(stations // 2, stations + 1))

    value = benchmark(run)
    report(benchmark, states=model.num_states,
           reward_levels=len(model.distinct_rewards()),
           value=round(float(value[stations]), 6))


@pytest.mark.parametrize("horizon", [5.0, 10.0, 20.0, 40.0],
                         ids=lambda t: f"t={t:g}")
def bench_sericola_time_scaling(benchmark, horizon):
    """Occupation-time engine vs time bound: N ~ lambda*t, cost ~ N^2
    -- the paper's 'less attractive when the time bound is large'."""
    model = workstation_cluster(8)
    engine = SericolaEngine(epsilon=1e-6)
    r = 0.9 * 8 * horizon

    def run():
        return engine.joint_probability_vector(model, horizon, r,
                                               range(4, 9))

    benchmark(run)
    report(benchmark, lambda_t=round(model.max_exit_rate * horizon, 1),
           N=engine.last_diagnostics.truncation_steps)


@pytest.mark.parametrize("phases", [16, 64, 256],
                         ids=lambda k: f"k={k}")
def bench_erlang_phase_scaling(benchmark, q3_setting, phases):
    """Pseudo-Erlang engine: cost vs expanded chain size."""
    model, goal, initial, t, r = q3_setting
    engine = ErlangEngine(phases=phases)

    def run():
        return engine.joint_probability_vector(model, t, r,
                                               [goal])[initial]

    benchmark(run)
    expanded, _ = erlang_expanded_model(model, r, phases)
    report(benchmark, expanded_states=expanded.num_states,
           uniformization_rate=round(
               model.max_exit_rate + phases * model.max_reward / r, 2))


@pytest.mark.parametrize("stations", [4, 8, 16],
                         ids=lambda n: f"n={n}")
def bench_discretization_state_scaling(benchmark, stations):
    """Discretisation cost grows with the state space (paper note)."""
    model = workstation_cluster(stations)
    t, r = 4.0, 2.0 * stations
    engine = DiscretizationEngine(step=1.0 / 32)
    indicator = np.ones(model.num_states)

    def run():
        return engine.sweep_unit(model, [t], [r],
                                 indicator)[0, 0, stations]

    benchmark.pedantic(run, rounds=2, iterations=1)
    report(benchmark, states=model.num_states,
           reward_cells=int(r * 32) + 1)


def bench_amalgamation_ablation(benchmark):
    """Theorem 1 with vs without state amalgamation.

    The paper: "we can amalgamate all states satisfying Psi and all
    states satisfying !(Phi | Psi), thereby making the MRM considerably
    smaller."  On the case study this is 9 states vs 5; on bigger
    models the gap widens.  Both variants must agree numerically.
    """
    model = adhoc.adhoc_model()
    phi = set(model.states_with("call_idle")) | set(
        model.states_with("doze"))
    psi = set(model.states_with("call_initiated"))
    t, r = adhoc.Q3_TIME_BOUND, adhoc.Q3_REWARD_BOUND
    engine = SericolaEngine(epsilon=1e-8)

    plain = until_reduction(model, phi, psi)
    amalgamated = amalgamated_until_reduction(model, phi, psi)

    def run_both():
        full = engine.joint_probability_vector(plain, t, r, psi)[0]
        small = engine.joint_probability_vector(
            amalgamated.model, t, r, [amalgamated.goal_state])
        return full, small[amalgamated.state_map[0]]

    full_value, small_value = benchmark(run_both)
    assert full_value == pytest.approx(small_value, abs=1e-9)
    report(benchmark, plain_states=plain.num_states,
           amalgamated_states=amalgamated.model.num_states,
           value=round(float(small_value), 8))


def bench_ablation_lumping(benchmark):
    """Bisimulation minimisation as a preprocessing step.

    A replicated model (3 independent 2-state components observed only
    through the number of 'up' components) lumps 8 states to 4; the
    checking result is invariant.
    """
    from repro.ctmc import ModelBuilder
    from repro.ctmc.lumping import lump

    builder = ModelBuilder()
    for bits in range(8):
        count = bin(bits).count("1")
        builder.add_state(f"c{bits:03b}", labels=(f"up{count}",),
                          reward=float(count))
    for bits in range(8):
        for component in range(3):
            flipped = bits ^ (1 << component)
            rate = 1.0 if bits & (1 << component) else 2.0
            builder.add_transition(bits, flipped, rate)
    model = builder.build(initial_state=7)

    def run():
        result = lump(model)
        engine = SericolaEngine(epsilon=1e-8)
        quotient_value = engine.joint_probability_vector(
            result.quotient, 4.0, 8.0,
            result.quotient.states_with("up3"))
        return result, result.lift(quotient_value)

    result, lifted = benchmark(run)
    direct = SericolaEngine(epsilon=1e-8).joint_probability_vector(
        model, 4.0, 8.0, model.states_with("up3"))
    assert np.allclose(lifted, direct, atol=1e-8)
    report(benchmark, original_states=model.num_states,
           lumped_states=result.num_blocks)


def bench_ablation_sericola_steady_state_detection(benchmark):
    """The paper's Section 5.4 outlook, measured: steady-state
    detection inside the occupation-time series on a long horizon."""
    import time
    from repro.models.workloads import workstation_cluster
    model = workstation_cluster(8, failure_rate=0.5, repair_rate=5.0)
    t = 200.0
    r = 0.9 * 8 * t
    target = range(4, 9)

    def compare():
        plain_engine = SericolaEngine(epsilon=1e-8)
        start = time.perf_counter()
        plain = plain_engine.joint_probability_vector(model, t, r,
                                                      target)
        plain_time = time.perf_counter() - start
        detecting = SericolaEngine(epsilon=1e-8,
                                   steady_state_detection=True)
        start = time.perf_counter()
        detected = detecting.joint_probability_vector(model, t, r,
                                                      target)
        detect_time = time.perf_counter() - start
        return (plain, detected, plain_time, detect_time,
                plain_engine.last_diagnostics.truncation_steps,
                detecting.last_diagnostics.truncation_steps)

    plain, detected, plain_time, detect_time, full_n, used_n = \
        benchmark.pedantic(compare, rounds=1, iterations=1)
    assert np.allclose(plain, detected, atol=1e-7)
    assert used_n < full_n
    report(benchmark, full_N=full_n, detected_N=used_n,
           plain_seconds=round(plain_time, 3),
           detected_seconds=round(detect_time, 3))


def bench_ablation_sericola_matrix(benchmark, q3_setting):
    """Aggregated-vector vs full-matrix occupation-time computation.

    The paper stores full |S| x |S| matrices (space O(N^2 |S|^2)); the
    library's default aggregates target columns into one vector.  The
    matrix reconstruction costs one run per state, so the measured gap
    is ~|S|x in time (and the memory gap is |S|x by construction).
    """
    import time
    model, goal, initial, t, r = q3_setting
    engine = SericolaEngine(epsilon=1e-6)

    def compare():
        start = time.perf_counter()
        vector = engine.joint_probability_vector(model, t, r, [goal])
        vector_time = time.perf_counter() - start
        start = time.perf_counter()
        matrix = engine.joint_distribution_matrix(model, t, r)
        matrix_time = time.perf_counter() - start
        return vector[initial], matrix, vector_time, matrix_time

    value, matrix, vector_time, matrix_time = benchmark.pedantic(
        compare, rounds=1, iterations=1)
    assert matrix.shape == (model.num_states, model.num_states)
    assert matrix_time > vector_time
    report(benchmark,
           vector_seconds=round(vector_time, 4),
           matrix_seconds=round(matrix_time, 4),
           speedup=round(matrix_time / vector_time, 1))


def bench_engine_shootout(benchmark, q3_setting, q3_exact):
    """All three engines at roughly three-digit accuracy on Q3 --
    the paper's bottom-line comparison across Tables 2-4."""
    model, goal, initial, t, r = q3_setting
    indicator = np.zeros(model.num_states)
    indicator[goal] = 1.0
    engines = {
        "sericola(1e-4)": lambda: SericolaEngine(epsilon=1e-4)
        .joint_probability_vector(model, t, r, [goal])[initial],
        "erlang(k=256)": lambda: ErlangEngine(phases=256)
        .joint_probability_vector(model, t, r, [goal])[initial],
        "discretization(1/64)": lambda: DiscretizationEngine(
            step=1.0 / 64).sweep_unit(model, [t], [r],
                                      indicator)[0, 0, initial],
    }

    import time
    def shootout():
        results = {}
        for name, call in engines.items():
            start = time.perf_counter()
            value = call()
            results[name] = (float(value), time.perf_counter() - start)
        return results

    results = benchmark.pedantic(shootout, rounds=1, iterations=1)
    for name, (value, _elapsed) in results.items():
        assert value == pytest.approx(q3_exact, rel=5e-3), name
    report(benchmark, **{name: f"{value:.6f}/{elapsed:.3f}s"
                         for name, (value, elapsed) in results.items()})
