"""The engine-counter ledger, pinned.

``repro_engine_*_total{engine=...}`` in the metrics registry is the
only store of the engines' work counters.  These tests pin the summed
totals of representative runs -- the paper's Q3 on each engine, a
``(t, r)`` grid on the thread and process executors (with and without
an injected fault), and a certified check -- so any change to where or
how the engines count shows up as a changed number.  The counters count
work performed: a unit attempt the process executor throws away still
counts, and a corrupted result costs no second computation (the worker
re-sends the bytes it holds).
"""

from __future__ import annotations

import pytest

from repro import ModelChecker
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.exec import ProcessShardExecutor
from repro.models.adhoc import Q3
from repro.obs import OBS, REGISTRY
from repro.obs.export import engine_totals

GRID_TIMES = [6.0, 12.0, 24.0]
GRID_REWARDS = [200.0, 400.0, 600.0]
LEFT, RIGHT = "call_idle | doze", "call_initiated"

#: One fault-free 3x3 grid at d = 1/32: one adjoint run per reward
#: column, 2301 sparse products in all.
GRID_MATVECS = 2301

#: The ledger's families, spelled out so the pins do not lean on the
#: library's own reader.
FAMILIES = {
    "propagation_steps": "repro_engine_propagation_steps_total",
    "matvec_count": "repro_engine_matvec_total",
    "cache_hits": "repro_engine_cache_hits_total",
    "cache_misses": "repro_engine_cache_misses_total",
    "sweep_points": "repro_engine_sweep_points_total",
}


@pytest.fixture(autouse=True)
def _cold():
    clear_caches()
    REGISTRY.reset()
    yield
    clear_caches()
    REGISTRY.reset()


def _counted(run):
    """Totals over every label set of each family after *run*."""
    with OBS.capture():
        run()
    snapshot = REGISTRY.snapshot()
    return {field: int(sum(snapshot.get(name, {}).values()))
            for field, name in FAMILIES.items()}


@pytest.mark.parametrize("engine, steps, matvecs", [
    (SericolaEngine(epsilon=1e-8), 594, 1188),
    (ErlangEngine(phases=256), 2805, 2805),
    (DiscretizationEngine(step=1.0 / 64), 1535, 1535),
], ids=["sericola", "erlang", "discretization"])
def test_q3_check(adhoc, engine, steps, matvecs):
    counts = _counted(lambda: ModelChecker(adhoc, engine=engine).check(Q3))
    assert counts["propagation_steps"] == steps
    assert counts["matvec_count"] == matvecs
    assert counts["cache_misses"] == 1
    assert counts["sweep_points"] == 1
    assert counts["cache_hits"] == 0


def _grid(adhoc, executor):
    checker = ModelChecker(adhoc,
                           engine=DiscretizationEngine(step=1.0 / 32))

    def run():
        partial = checker.until_probability_sweep_partial(
            LEFT, RIGHT, GRID_TIMES, GRID_REWARDS, executor=executor)
        assert partial.complete

    return _counted(run)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_grid(adhoc, executor):
    counts = _grid(adhoc, executor)
    assert counts["matvec_count"] == GRID_MATVECS
    assert counts["propagation_steps"] == GRID_MATVECS
    assert counts["cache_misses"] == 9
    assert counts["sweep_points"] == 9
    assert counts["cache_hits"] == 0


def test_grid_counts_discarded_attempt(adhoc):
    """A corrupted result is re-sent by the worker that holds it, not
    recomputed: the faulted grid costs exactly the fault-free work."""
    executor = ProcessShardExecutor(max_workers=2, faults="corrupt@0")
    counts = _grid(adhoc, executor)
    assert executor.retries == 1 and executor.restarts == 0
    assert counts["matvec_count"] == GRID_MATVECS == 2301
    assert counts["cache_misses"] == 9
    assert counts["sweep_points"] == 9


def test_certified_check(adhoc):
    counts = _counted(lambda: ModelChecker(adhoc).check_certified(Q3))
    assert counts["propagation_steps"] == 603
    assert counts["matvec_count"] == 1206


@pytest.mark.parametrize("query", ["R<=500 [ I=24 ]", "R<=500 [ C<=24 ]"],
                         ids=["instantaneous", "cumulative"])
def test_reward_query_series_reach_the_ledger(adhoc, query):
    """``R[I=t]`` and ``R[C<=t]`` count their series under
    ``engine="reward"``: one product per step of the span."""
    with OBS.capture():
        ModelChecker(adhoc).check(query)
        series, = [s for s in OBS.tracer.spans()
                   if s.name == "uniformisation_series"]
    totals = engine_totals(REGISTRY, engine="reward")
    steps = series.attributes["steps"]
    assert steps > 0
    assert totals["matvec_count"] == steps
    assert totals["propagation_steps"] == steps


@pytest.mark.parametrize("query, steps", [
    ("P<0.5 [ (call_idle | doze) U[0,24] call_initiated ]", 630),
    ("P<0.5 [ (call_idle | doze) U[6,24] call_initiated ]", 695),
    ("P<0.5 [ (call_idle | doze) U[0,inf][0,600] call_initiated ]", 202),
], ids=["time-bounded", "time-interval", "reward-bounded"])
def test_until_series_reach_the_ledger(adhoc, query, steps):
    """P1 and P2 untils count their transient series (two for a
    ``[t1, t2]`` interval) under ``engine="transient"``: one product
    per step of their spans."""
    with OBS.capture():
        ModelChecker(adhoc).check(query)
        spans = [s for s in OBS.tracer.spans()
                 if s.name == "uniformisation_series"]
    assert sum(s.attributes["steps"] for s in spans) == steps
    assert engine_totals(REGISTRY)["matvec_count"] == steps
    assert engine_totals(REGISTRY, engine="transient")[
        "propagation_steps"] == steps


def test_obs_off_leaves_no_engine_family(adhoc):
    assert not OBS.enabled
    checker = ModelChecker(adhoc,
                           engine=DiscretizationEngine(step=1.0 / 32))
    checker.check(Q3)
    checker.until_probability_sweep_partial(
        LEFT, RIGHT, GRID_TIMES, GRID_REWARDS, executor="thread")
    assert not any(name.startswith("repro_engine_")
                   for name in REGISTRY.snapshot())
