"""Sweep evaluation and its executors.

Covers the shared-prefix ``(t, r)`` grid layer on top of the engines:

* :meth:`JointEngine.joint_probability_sweep` agrees with a per-point
  loop of scalar :meth:`joint_probability_vector` calls bit for bit
  for all three engines -- on random MRMs, on
  the reduced case-study model, on impulse models (discretisation and
  pseudo-Erlang; the occupation-time engine rejects impulses), and on
  grids containing the ``t == 0`` and ``r == 0`` edge rows;
* sweep and scalar calls share the result cache per grid point, and
  ``stats.sweep_points`` accounts the grid cells served;
* the thread executor's unit threads count into the ledger and
  return the inline run's grid bit for bit;
* every executor -- inline, threads, worker processes, and processes
  with a checkpoint and injected faults -- returns the shared sweep's
  grid bit for bit, on every engine, with impulse rewards and on the
  ``t == 0`` / ``r == 0`` edges;
* the model checker's grid API matches per-formula checks, and a
  formula batch equals a loop of single-pair sweeps bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches, joint_cache)
from repro.errors import NumericalError, ParallelExecutionError
from repro.exec import (BreakerRegistry, ProcessShardExecutor,
                        ThreadShardExecutor, breaker_key)
from repro.exec.executor import resolve_workers
from repro.mc.checker import ModelChecker
from repro.models.adhoc import Q3_REWARD_BOUND, Q3_TIME_BOUND
from repro.models.workloads import random_mrm
from repro.numerics.uniformization import (
    transient_target_probabilities, transient_target_probabilities_sweep)
from repro.obs import OBS


def engines():
    return [SericolaEngine(epsilon=1e-12),
            ErlangEngine(phases=48),
            DiscretizationEngine(step=1.0 / 16)]


TIMES = [0.0, 0.5, 1.0, 2.0]
REWARDS = [0.0, 0.5, 1.5, 3.0]


def scalar_grid(engine, model, times, rewards, target):
    grid = np.empty((len(times), len(rewards), model.num_states))
    for i, t in enumerate(times):
        for j, r in enumerate(rewards):
            grid[i, j] = engine.joint_probability_vector(
                model, t, r, target)
    return grid


# ----------------------------------------------------------------------
# sweep == per-point scalar loop
# ----------------------------------------------------------------------

class TestSweepEquivalence:
    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_random_mrm_with_edge_rows(self, engine):
        model = random_mrm(12, seed=20020623,
                           reward_levels=(0.0, 1.0, 2.0))
        target = set(model.states_with("green")) or {0}
        clear_caches()
        swept = engine.joint_probability_sweep(model, TIMES, REWARDS,
                                               target)
        clear_caches()
        loop = scalar_grid(engine, model, TIMES, REWARDS, target)
        np.testing.assert_array_equal(swept, loop)

    @pytest.mark.parametrize(
        "engine",
        [SericolaEngine(epsilon=1e-12), ErlangEngine(phases=48),
         DiscretizationEngine(step=1.0 / 32)],  # exit rates up to 19.5
        ids=lambda e: e.name)
    def test_adhoc_reduced(self, adhoc_reduced, engine):
        model = adhoc_reduced.model
        target = {adhoc_reduced.goal_state}
        times = [Q3_TIME_BOUND / 4, Q3_TIME_BOUND / 2]
        rewards = [Q3_REWARD_BOUND / 4, Q3_REWARD_BOUND]
        clear_caches()
        swept = engine.joint_probability_sweep(model, times, rewards,
                                               target)
        clear_caches()
        loop = scalar_grid(engine, model, times, rewards, target)
        np.testing.assert_array_equal(swept, loop)

    @pytest.mark.parametrize(
        "engine",
        [ErlangEngine(phases=48), DiscretizationEngine(step=1.0 / 16)],
        ids=lambda e: e.name)
    def test_impulse_model(self, impulse_model, engine):
        target = set(impulse_model.states_with("green"))
        times = [0.0, 0.5, 1.5]
        rewards = [0.0, 1.0, 2.5]
        clear_caches()
        swept = engine.joint_probability_sweep(impulse_model, times,
                                               rewards, target)
        clear_caches()
        loop = scalar_grid(engine, impulse_model, times, rewards, target)
        np.testing.assert_array_equal(swept, loop)

    def test_sericola_rejects_impulses(self, impulse_model):
        engine = SericolaEngine()
        with pytest.raises(NumericalError, match="state-based"):
            engine.joint_probability_sweep(impulse_model, [1.0], [1.0],
                                           {0})

    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_duplicate_grid_entries_collapse(self, flip_flop, engine):
        clear_caches()
        swept = engine.joint_probability_sweep(
            flip_flop, [1.0, 1.0], [2.0, 2.0], {1})
        np.testing.assert_array_equal(swept[0, 0], swept[1, 1])
        vector = engine.joint_probability_vector(flip_flop, 1.0, 2.0,
                                                 {1})
        np.testing.assert_allclose(swept[0, 0], vector, atol=1e-12)

    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_negative_bounds_rejected(self, flip_flop, engine):
        with pytest.raises(NumericalError):
            engine.joint_probability_sweep(flip_flop, [-1.0], [1.0], {1})
        with pytest.raises(NumericalError):
            engine.joint_probability_sweep(flip_flop, [1.0], [-1.0], {1})


# ----------------------------------------------------------------------
# cache interoperability and counters
# ----------------------------------------------------------------------

class TestSweepCache:
    def test_scalar_prefills_sweep(self, three_level_chain, ledger):
        engine = SericolaEngine(epsilon=1e-12)
        clear_caches()
        vector = engine.joint_probability_vector(three_level_chain,
                                                 1.0, 1.5, {2})
        hits_before = ledger()["cache_hits"]
        swept = engine.joint_probability_sweep(
            three_level_chain, [1.0, 2.0], [1.5], {2})
        assert ledger()["cache_hits"] == hits_before + 1
        np.testing.assert_array_equal(swept[0, 0], vector)

    def test_sweep_prefills_scalar(self, three_level_chain, ledger):
        engine = SericolaEngine(epsilon=1e-12)
        clear_caches()
        swept = engine.joint_probability_sweep(
            three_level_chain, [1.0, 2.0], [0.5, 1.5], {2})
        hits_before = ledger()["cache_hits"]
        vector = engine.joint_probability_vector(three_level_chain,
                                                 2.0, 0.5, {2})
        assert ledger()["cache_hits"] == hits_before + 1
        np.testing.assert_array_equal(vector, swept[1, 0])

    def test_sweep_points_counter(self, flip_flop, ledger):
        engine = DiscretizationEngine(step=1.0 / 8)
        clear_caches()
        engine.joint_probability_sweep(flip_flop, [1.0, 2.0],
                                       [1.0, 2.0, 4.0], {1})
        assert ledger()["sweep_points"] == 6
        assert ledger()["cache_misses"] == 6
        engine.joint_probability_sweep(flip_flop, [1.0, 2.0],
                                       [1.0, 2.0, 4.0], {1})
        assert ledger()["sweep_points"] == 12
        assert ledger()["cache_hits"] == 6

    def test_partial_grid_only_computes_missing(self, flip_flop, ledger):
        engine = SericolaEngine(epsilon=1e-12)
        clear_caches()
        engine.joint_probability_sweep(flip_flop, [1.0], [1.0], {1})
        misses_before = ledger()["cache_misses"]
        engine.joint_probability_sweep(flip_flop, [1.0, 2.0],
                                       [1.0, 3.0], {1})
        assert ledger()["cache_misses"] == misses_before + 3
        assert ledger()["cache_hits"] >= 1


# ----------------------------------------------------------------------
# thread executor
# ----------------------------------------------------------------------

class TestParallelFanOut:
    def test_resolve_workers(self):
        assert resolve_workers(None, 0) == 0
        assert resolve_workers(None, 3) <= 3
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(1, 100) == 1

    def test_parallel_sweeps_match_sequential(self, ledger):
        models = [random_mrm(8, seed=s, reward_levels=(0.0, 1.0, 2.0))
                  for s in (1, 2, 3)]
        queries = [(m, [0.5, 1.0], [1.0, 2.0], {0, 1}) for m in models]
        engine = SericolaEngine(epsilon=1e-12)
        clear_caches()
        sequential = [engine.joint_probability_sweep(*q)
                      for q in queries]
        clear_caches()
        before = ledger()
        partial = [ThreadShardExecutor().run(engine, *q) for q in queries]
        for seq, run in zip(sequential, partial):
            np.testing.assert_array_equal(seq, run.grid)
        # every unit's work reached the ledger
        after = ledger()
        assert after["sweep_points"] - before["sweep_points"] == (
            4 * len(queries))
        assert after["cache_misses"] - before["cache_misses"] == (
            4 * len(queries))

    def test_erlang_threaded_columns_deterministic(self):
        """Cold in-process runs give the same bytes whatever
        ``max_workers`` says: it sizes worker processes only."""
        model = random_mrm(8, seed=6, reward_levels=(0.0, 1.0, 2.0))
        grids = []
        for workers in (1, 4):
            clear_caches()
            engine = ErlangEngine(phases=32)
            partial = engine.joint_probability_sweep_partial(
                model, [0.5, 1.0], [0.0, 1.0, 2.0], {0, 2},
                max_workers=workers)
            assert partial.complete
            grids.append(partial.grid)
        assert grids[0].tobytes() == grids[1].tobytes()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_unit_spans_carry_the_kernel(self, flip_flop, executor):
        """The kernel decision travels on each ``sweep_unit`` span --
        from worker processes too, whose engines are not the caller's."""
        clear_caches()
        engine = DiscretizationEngine(step=1.0 / 16)
        with OBS.capture():
            partial = engine.joint_probability_sweep_partial(
                flip_flop, [0.5, 1.0], [1.0, 2.0], {1},
                executor=executor, max_workers=2)
            units = [span for root in OBS.tracer.roots
                     for span in root.walk() if span.name == "sweep_unit"]
        assert partial.complete
        expected = DiscretizationEngine(step=1.0 / 16)._backend_for(
            flip_flop).name
        assert [unit.attributes.get("kernel") for unit in units] == [
            expected] * 2
        if executor == "process":
            assert engine.last_kernel is None

    def test_erlang_unit_spans_carry_expanded_size(self, flip_flop):
        clear_caches()
        with OBS.capture():
            ErlangEngine(phases=8).joint_probability_sweep(
                flip_flop, [0.5, 1.0], [1.0, 2.0], {1})
            units = [span for root in OBS.tracer.roots
                     for span in root.walk() if span.name == "sweep_unit"]
        assert [unit.attributes.get("expanded_states")
                for unit in units] == [2 * 8 + 1] * 2
        assert all(unit.attributes.get("kernel") for unit in units)


# ----------------------------------------------------------------------
# executors run work units: every grid equals the shared sweep
# ----------------------------------------------------------------------

def executor_grids(engine, model, times, rewards, target, tmp_path):
    """The grid from each executor, every run cold."""
    grids = {}
    for name in ("thread", "process", "durable"):
        clear_caches()
        checkpoint = None
        if name == "thread":
            executor = ThreadShardExecutor()
        else:
            faults = None
            if name == "durable":
                faults = "crash@1;corrupt@6"
                checkpoint = str(tmp_path / f"{engine.name}.jsonl")
            executor = ProcessShardExecutor(max_workers=2,
                                            faults=faults)
        partial = engine.joint_probability_sweep_partial(
            model, times, rewards, target, executor=executor,
            checkpoint=checkpoint)
        assert partial.complete, (name, partial.failures)
        grids[name] = partial.grid
    return grids


class TestExecutorsMatchSharedSweep:
    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_random_mrm_with_edge_rows(self, engine, tmp_path):
        model = random_mrm(12, seed=20020623,
                           reward_levels=(0.0, 1.0, 2.0))
        target = set(model.states_with("green")) or {0}
        clear_caches()
        shared = engine.joint_probability_sweep(model, TIMES, REWARDS,
                                                target)
        grids = executor_grids(engine, model, TIMES, REWARDS, target,
                               tmp_path)
        for name, grid in grids.items():
            assert grid.tobytes() == shared.tobytes(), name

    @pytest.mark.parametrize(
        "engine",
        [ErlangEngine(phases=48), DiscretizationEngine(step=1.0 / 16)],
        ids=lambda e: e.name)
    def test_impulse_model(self, impulse_model, engine, tmp_path):
        target = set(impulse_model.states_with("green"))
        times, rewards = [0.0, 0.5, 1.5], [0.0, 1.0, 2.5]
        clear_caches()
        shared = engine.joint_probability_sweep(impulse_model, times,
                                                rewards, target)
        grids = executor_grids(engine, impulse_model, times, rewards,
                               target, tmp_path)
        for name, grid in grids.items():
            assert grid.tobytes() == shared.tobytes(), name


# ----------------------------------------------------------------------
# model checker routing
# ----------------------------------------------------------------------

class TestBoundValidation:
    """Every bound of a sweep is validated -- NaN fails ``>= 0`` too --
    before any propagation runs or any cell is cached."""

    NAN = float("nan")

    @pytest.mark.parametrize("times,rewards", [
        ([24.0, NAN], [600.0]),
        ([24.0], [600.0, NAN]),
        ([NAN, 24.0], [600.0]),
        ([24.0, -1.0], [600.0]),
        ([24.0], [-600.0, 600.0]),
    ], ids=["nan-time", "nan-reward", "nan-first-time", "negative-time",
            "negative-reward"])
    @pytest.mark.parametrize("engine", [
        DiscretizationEngine(step=1.0 / 32), SericolaEngine(),
        ErlangEngine(phases=8)], ids=lambda e: e.name)
    def test_rejected_before_propagation(self, adhoc_reduced, ledger,
                                         engine, times, rewards):
        clear_caches()
        with pytest.raises(NumericalError, match="must be >= 0"):
            engine.joint_probability_sweep(
                adhoc_reduced.model, times, rewards,
                [adhoc_reduced.goal_state])
        assert ledger().get("propagation_steps", 0) == 0
        assert len(joint_cache) == 0

    def test_partial_sweep_rejects_nan(self, adhoc_reduced):
        with pytest.raises(NumericalError, match="must be >= 0"):
            SericolaEngine().joint_probability_sweep_partial(
                adhoc_reduced.model, [24.0], [self.NAN],
                [adhoc_reduced.goal_state])

    def test_transient_sweep_rejects_nan(self, three_level_chain):
        with pytest.raises(NumericalError, match="must be >= 0"):
            transient_target_probabilities_sweep(
                three_level_chain, [1.0, self.NAN],
                np.array([1.0, 0.0, 0.0]))


class TestCheckerSweep:
    def test_grid_matches_per_formula_checks(self, three_level_chain):
        checker = ModelChecker(three_level_chain,
                               engine=SericolaEngine(epsilon=1e-12))
        times = [0.5, 1.0, 2.0]
        rewards = [0.5, 2.0]
        clear_caches()
        grid = checker.until_probability_sweep("busy", "halt", times,
                                               rewards)
        assert grid.shape == (3, 2, three_level_chain.num_states)
        for i, t in enumerate(times):
            for j, r in enumerate(rewards):
                clear_caches()
                vector = checker.probability_vector(
                    checker._normalize(
                        f"P>0 [ busy U[0,{t}][0,{r}] halt ]").path)
                np.testing.assert_allclose(grid[i, j], vector,
                                           atol=1e-10)

    def test_multi_pair_fan_out(self, three_level_chain):
        """A formula batch is a loop of single-pair sweeps, in pair
        order, bit for bit, on every engine."""
        times, rewards = [0.5, 1.5], [1.0, 3.0]
        pairs = [("busy", "halt"), ("true", "halt"), ("true", "busy")]
        for engine in engines():
            checker = ModelChecker(three_level_chain, engine=engine)
            clear_caches()
            grids = checker.until_probability_sweeps(pairs, times,
                                                     rewards)
            assert len(grids) == len(pairs)
            clear_caches()
            for (left, right), grid in zip(pairs, grids):
                direct = checker.until_probability_sweep(left, right,
                                                         times, rewards)
                assert np.array_equal(grid, direct), engine.name

    @pytest.mark.parametrize(
        "engine",
        [SericolaEngine(epsilon=1e-10), DiscretizationEngine(step=0.25)],
        ids=lambda e: e.name)
    def test_batch_runs_units_inline(self, three_level_chain, engine):
        """A batch runs every unit on the calling thread: each
        ``sweep_unit`` span is a direct child of its grid's
        ``joint_sweep`` span, and no ``worker`` span opens.  (The
        second pair reduces to the same chain, so the cache serves its
        whole grid.)"""
        checker = ModelChecker(three_level_chain, engine=engine)
        clear_caches()
        with OBS.capture():
            checker.until_probability_sweeps(
                [("busy", "halt"), ("true", "halt")], [0.5, 1.5],
                [1.0, 3.0])
            sweeps = [node for root in OBS.tracer.roots
                      for node in root.walk() if node.name == "joint_sweep"]
            names = {node.name for root in OBS.tracer.roots
                     for node in root.walk()}
        assert len(sweeps) == 2
        assert {child.name for child in sweeps[0].children} == {
            "sweep_unit"}
        assert not sweeps[1].children
        assert "worker" not in names

    def test_batch_raises_the_engine_error(self, adhoc):
        """A grid the engine rejects raises the engine's own error, as
        a single sweep does -- no fan-out wrapper."""
        checker = ModelChecker(adhoc,
                               engine=DiscretizationEngine(step=1.0 / 32))
        clear_caches()
        with pytest.raises(NumericalError) as excinfo:
            checker.until_probability_sweeps(
                [("true", "call_initiated")], [1.0], [2.0])
        assert not isinstance(excinfo.value, ParallelExecutionError)
        assert "max exit rate 255" in str(excinfo.value)

    def test_sweep_raises_a_cell_that_failed_for_good(
            self, three_level_chain):
        """A full grid run through an executor promises every cell: a
        cell that fails for good raises, carrying its ``WorkerError``."""

        class FlakyColumn(SericolaEngine):
            def _compute_joint_sweep(self, model, times, rewards,
                                     indicator):
                if 3.0 in rewards:
                    raise NumericalError("injected cell failure")
                return super()._compute_joint_sweep(model, times,
                                                    rewards, indicator)

        checker = ModelChecker(three_level_chain,
                               engine=FlakyColumn(epsilon=1e-10))
        clear_caches()
        with pytest.raises(ParallelExecutionError) as excinfo:
            checker.until_probability_sweep("busy", "halt", [0.5, 1.5],
                                            [1.0, 3.0], executor="thread")
        assert excinfo.value.total == 4
        failures = excinfo.value.failures
        assert [f.index for f in failures] == [1, 3]
        for failure in failures:
            assert isinstance(failure.cause, NumericalError)
            assert "r=3.0" in failure.label
            assert "injected cell failure" in str(failure)

    def test_sweep_raises_each_cell_an_open_breaker_left(
            self, three_level_chain):
        """An open breaker fails no cell, so each cell it left raises
        as not evaluated."""
        engine = SericolaEngine(epsilon=1e-10)
        registry = BreakerRegistry(failure_threshold=1)
        registry.breaker(breaker_key(engine)).record_failure()
        executor = ProcessShardExecutor(max_workers=1, breakers=registry)
        checker = ModelChecker(three_level_chain, engine=engine)
        clear_caches()
        try:
            with pytest.raises(ParallelExecutionError) as excinfo:
                checker.until_probability_sweep(
                    "busy", "halt", [0.5, 1.5], [1.0, 3.0],
                    executor=executor)
        finally:
            executor.close()
        assert excinfo.value.total == 4
        failures = excinfo.value.failures
        assert [f.label for f in failures] == [
            "cell (t=0.5, r=1.0)", "cell (t=0.5, r=3.0)",
            "cell (t=1.5, r=1.0)", "cell (t=1.5, r=3.0)"]
        assert all(str(f.cause) == "cell not evaluated"
                   for f in failures)


# ----------------------------------------------------------------------
# uniformisation-level sweep primitive
# ----------------------------------------------------------------------

class TestTransientSweep:
    def test_matches_scalar_transient(self, three_level_chain):
        indicator = np.array([0.0, 1.0, 1.0])
        times = [0.0, 0.25, 1.0, 4.0]
        swept = transient_target_probabilities_sweep(
            three_level_chain, times, indicator)
        for i, t in enumerate(times):
            single = transient_target_probabilities(
                three_level_chain, t, indicator)
            np.testing.assert_allclose(swept[i], single, atol=1e-12)

    def test_rejects_negative_times(self, three_level_chain):
        with pytest.raises(NumericalError):
            transient_target_probabilities_sweep(
                three_level_chain, [-1.0], np.array([1.0, 0.0, 0.0]))
