"""Fault injection and robustness: certified intervals, graceful
degradation, worker failure isolation, budgets and cache eviction."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches, joint_cache,
                              richardson_bracket, value_nbytes)
from repro.algorithms.base import JointEngine
from repro.algorithms.cache import LRUCache
from repro.ctmc import CTMC, ModelBuilder
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import (BudgetExhaustedError, ConvergenceError,
                          ModelError, NumericalError, RewardError,
                          UnsupportedFormulaError)
from repro.mc import (Budget, CertifiedChecker, ModelChecker, Verdict,
                      interval_verdict)
from repro.models import adhoc
from repro.srn import StochasticRewardNet, build_mrm


def _engines():
    return [SericolaEngine(epsilon=1e-8),
            ErlangEngine(phases=16),
            DiscretizationEngine(step=1.0 / 16)]


class FailingEngine(JointEngine):
    """An engine whose every computation raises (injected fault)."""

    name = "failing"

    def _compute_joint_sweep(self, model, times, rewards, indicator):
        raise ConvergenceError("injected non-convergence")

    def _a_priori_widths(self):
        return 0.0, 0.0


# ----------------------------------------------------------------------
# satellite 1: model construction hardening
# ----------------------------------------------------------------------

class TestModelHardening:
    def test_nan_rate_names_entry(self):
        with pytest.raises(ModelError, match=r"finite.*\(0, 1\).*NaN"):
            CTMC([[0.0, float("nan")], [1.0, 0.0]])

    def test_infinite_rate_names_entry(self):
        with pytest.raises(ModelError,
                           match=r"finite.*\(1, 0\).*infinite"):
            CTMC([[0.0, 1.0], [float("inf"), 0.0]])

    def test_generator_matrix_detected(self):
        # Q = R - diag(E) has negative diagonal entries only.
        with pytest.raises(ModelError, match="generator matrix Q"):
            CTMC([[-1.0, 1.0], [2.0, -2.0]])

    def test_negative_off_diagonal_names_entry(self):
        with pytest.raises(ModelError,
                           match=r"non-negative.*\(0, 1\)"):
            CTMC([[0.0, -3.0], [1.0, 0.0]])

    def test_nan_initial_distribution(self):
        with pytest.raises(ModelError, match="finite"):
            CTMC([[0.0, 1.0], [1.0, 0.0]],
                 initial_distribution=[float("nan"), 1.0])

    def test_empty_state_space(self):
        with pytest.raises(ModelError, match="at least one state"):
            CTMC(np.zeros((0, 0)))

    def test_nan_reward_names_state(self):
        with pytest.raises(RewardError, match="state 1 is NaN"):
            MarkovRewardModel([[0.0, 1.0], [1.0, 0.0]],
                              rewards=[1.0, float("nan")])

    def test_infinite_reward_names_state(self):
        with pytest.raises(RewardError, match="state 0 is infinite"):
            MarkovRewardModel([[0.0, 1.0], [1.0, 0.0]],
                              rewards=[float("inf"), 0.0])

    def test_negative_reward_names_state(self):
        with pytest.raises(RewardError, match="state 1 is -2.0"):
            MarkovRewardModel([[0.0, 1.0], [1.0, 0.0]],
                              rewards=[1.0, -2.0])

    def test_nan_impulse_names_transition(self):
        with pytest.raises(RewardError, match=r"\(0, 1\).*NaN"):
            MarkovRewardModel([[0.0, 1.0], [1.0, 0.0]],
                              impulse_rewards={(0, 1): float("nan")})

    def test_builder_rejects_nan_state_reward(self):
        builder = ModelBuilder()
        with pytest.raises(ModelError, match="'bad'.*non-finite"):
            builder.add_state("bad", reward=float("nan"))

    def test_builder_rejects_nan_rate(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        with pytest.raises(ModelError,
                           match="non-finite rate.*'a' -> 'b'"):
            builder.add_transition("a", "b", float("nan"))

    def test_builder_rejects_infinite_impulse(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        with pytest.raises(ModelError, match="non-finite impulse"):
            builder.add_transition("a", "b", 1.0,
                                   impulse=float("inf"))

    def test_builder_rejects_nan_set_reward(self):
        builder = ModelBuilder()
        builder.add_state("a")
        with pytest.raises(ModelError, match="non-finite reward"):
            builder.set_reward("a", float("nan"))

    def test_srn_rejects_nan_rate_function(self):
        net = StochasticRewardNet()
        net.add_place("p", tokens=1)
        net.add_timed_transition("t", rate=lambda m: float("nan"),
                                 inputs=["p"], outputs=["p"])
        with pytest.raises(ModelError, match="non-finite rate"):
            build_mrm(net)

    def test_srn_rejects_nan_reward_function(self):
        net = StochasticRewardNet()
        net.add_place("p", tokens=1)
        net.add_timed_transition("t", rate=1.0,
                                 inputs=["p"], outputs=["p"])
        net.set_reward(lambda m: float("nan"))
        with pytest.raises(ModelError, match="non-finite reward"):
            build_mrm(net)


# ----------------------------------------------------------------------
# tentpole: certified interval soundness
# ----------------------------------------------------------------------

class TestIntervalSoundness:
    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_interval_contains_point_value(self, flip_flop, engine):
        point = engine.joint_probability_vector(flip_flop, 1.5, 2.0, [1])
        lower, upper = engine.joint_probability_interval(
            flip_flop, 1.5, 2.0, [1])
        assert np.all(lower <= point + 1e-12)
        assert np.all(point <= upper + 1e-12)
        assert np.all(lower >= 0.0) and np.all(upper <= 1.0)

    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_interval_contains_closed_form(self, two_state_absorbing,
                                           engine):
        # Pr{Y_t <= r, X_t = b | X_0 = a} = 1 - e^{-mu r} for r < t.
        t, r, mu = 2.0, 1.0, 0.7
        exact = 1.0 - np.exp(-mu * r)
        lower, upper = engine.joint_probability_interval(
            two_state_absorbing, t, r, [1])
        assert lower[0] <= exact <= upper[0]

    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_refinement_shrinks_interval(self, three_level_chain,
                                         engine):
        lower, upper = engine.joint_probability_interval(
            three_level_chain, 1.0, 2.0, [2])
        refined = engine.refined()
        assert refined is not None
        tighter_lo, tighter_up = refined.joint_probability_interval(
            three_level_chain, 1.0, 2.0, [2])
        assert np.max(tighter_up - tighter_lo) <= \
            np.max(upper - lower) + 1e-15
        # The refined enclosure must overlap the coarse one (both are
        # sound, so both contain the exact value).
        assert np.all(np.maximum(lower, tighter_lo)
                      <= np.minimum(upper, tighter_up) + 1e-12)

    def test_richardson_bracket_contains_both_points(self):
        lower, upper = richardson_bracket(np.array([0.4]),
                                          np.array([0.45]))
        assert lower[0] <= 0.4 <= upper[0]
        assert lower[0] <= 0.45 <= upper[0]
        assert lower[0] >= 0.0 and upper[0] <= 1.0

    def test_extreme_rate_scales(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("z", reward=0.0)
        builder.add_transition("a", "z", 1e8)
        fast = builder.build()
        exact = 1.0 - np.exp(-1e8 * 0.5e-8)
        lower, upper = SericolaEngine(
            epsilon=1e-10).joint_probability_interval(
                fast, 1e-8, 0.5e-8, [1])
        assert lower[0] <= exact <= upper[0]

        builder = ModelBuilder()
        builder.add_state("a", reward=1e-8)
        builder.add_state("z", reward=0.0)
        builder.add_transition("a", "z", 1e-8)
        slow = builder.build()
        exact = 1.0 - np.exp(-1e-8 * 0.5e8)
        lower, upper = SericolaEngine(
            epsilon=1e-10).joint_probability_interval(
                slow, 1e8, 1e-8 * 0.5e8, [1])
        assert lower[0] <= exact <= upper[0]

    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_degenerate_single_absorbing_state(self, engine):
        builder = ModelBuilder()
        builder.add_state("only", reward=0.0)
        model = builder.build()
        lower, upper = engine.joint_probability_interval(
            model, 2.0, 1.0, [0])
        assert lower[0] <= 1.0 <= upper[0] + 1e-12
        assert upper[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_degenerate_all_zero_rewards(self, engine):
        builder = ModelBuilder()
        builder.add_state("u", reward=0.0)
        builder.add_state("d", reward=0.0)
        builder.add_transition("u", "d", 1.0)
        builder.add_transition("d", "u", 3.0)
        model = builder.build()
        # Y_t = 0, so the joint probability equals the transient one.
        point = engine.joint_probability_vector(model, 1.0, 0.0, [1])
        lower, upper = engine.joint_probability_interval(
            model, 1.0, 0.0, [1])
        assert np.all(lower <= point + 1e-12)
        assert np.all(point <= upper + 1e-12)


class TestReferenceIntervals:
    """Acceptance: on the Table 2--4 reference query every engine's
    certified interval contains its own point value and the three
    engines' intervals mutually overlap."""

    def test_engines_bracket_reference_query(self, adhoc_reduced):
        model = adhoc_reduced.model
        goal = [adhoc_reduced.goal_state]
        t, r = adhoc.Q3_TIME_BOUND, adhoc.Q3_REWARD_BOUND
        engines = [SericolaEngine(epsilon=1e-6),
                   ErlangEngine(phases=32),
                   DiscretizationEngine(step=1.0 / 32)]
        intervals = []
        for engine in engines:
            point = engine.joint_probability_vector(model, t, r, goal)
            lower, upper = engine.joint_probability_interval(
                model, t, r, goal)
            assert np.all(lower <= point + 1e-12), engine.name
            assert np.all(point <= upper + 1e-12), engine.name
            intervals.append((engine.name, lower, upper))
        for (n1, lo1, up1), (n2, lo2, up2) in \
                itertools.combinations(intervals, 2):
            assert np.all(np.maximum(lo1, lo2)
                          <= np.minimum(up1, up2) + 1e-12), (n1, n2)


# ----------------------------------------------------------------------
# tentpole: mid-sweep deadline with partial results
# ----------------------------------------------------------------------

class SlowSericola(SericolaEngine):
    """Sericola with an injected delay per computed cell, run as one
    work unit per reward column so a deadline can fall between
    units."""

    delay = 0.08

    def work_units(self, missing, workers=1):
        return JointEngine.work_units(self, missing, workers)

    def _compute_joint_sweep(self, model, times, rewards, indicator):
        time.sleep(self.delay * len(times) * len(rewards))
        return super()._compute_joint_sweep(model, times, rewards,
                                            indicator)


class TestPartialSweep:
    TIMES = [0.5, 1.0, 1.5]
    REWARDS = [0.5, 1.5]

    def test_deadline_returns_partial_grid(self, flip_flop):
        clear_caches()
        engine = SlowSericola(epsilon=1e-8)
        before = {t.ident for t in threading.enumerate()}
        deadline = time.monotonic() + 2.2 * SlowSericola.delay
        partial = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, [1],
            deadline=deadline, max_workers=1)
        leftover = [t for t in threading.enumerate()
                    if t.ident not in before and t.is_alive()]
        assert not leftover, "worker threads left running"
        done = int(partial.completed.sum())
        assert 0 < done < 6
        assert len(partial.unevaluated) == 6 - done
        assert not partial.complete
        assert not partial.failures
        # Completed cells hold finite values, unevaluated ones NaN.
        for i in range(len(self.TIMES)):
            for j in range(len(self.REWARDS)):
                if partial.completed[i, j]:
                    assert np.all(np.isfinite(partial.grid[i, j]))
                else:
                    assert (i, j) in partial.unevaluated
                    assert np.all(np.isnan(partial.grid[i, j]))

    def test_completed_cells_survive_in_shared_cache(self, flip_flop,
                                                     ledger):
        clear_caches()
        engine = SlowSericola(epsilon=1e-8)
        deadline = time.monotonic() + 2.2 * SlowSericola.delay
        partial = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, [1],
            deadline=deadline, max_workers=1)
        assert not partial.complete
        # A retry without deadline completes the grid; the finished
        # cells are cache hits (no recomputation) and keep their values.
        fresh = SericolaEngine(epsilon=1e-8)
        hits = ledger()["cache_hits"]
        resumed = fresh.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, [1])
        assert resumed.complete
        assert ledger()["cache_hits"] - hits >= int(
            partial.completed.sum())
        for i in range(len(self.TIMES)):
            for j in range(len(self.REWARDS)):
                if partial.completed[i, j]:
                    assert resumed.grid[i, j] == pytest.approx(
                        partial.grid[i, j], abs=1e-15)

    def test_cell_failure_is_isolated(self, flip_flop):
        clear_caches()

        class FlakyCell(SericolaEngine):
            def _compute_joint_sweep(self, model, times, rewards,
                                     indicator):
                if 1.5 in rewards:
                    raise ConvergenceError("injected cell failure")
                return super()._compute_joint_sweep(model, times,
                                                    rewards, indicator)

        partial = FlakyCell(
            epsilon=1e-8).joint_probability_sweep_partial(
                flip_flop, self.TIMES, self.REWARDS, [1],
                max_workers=2)
        assert partial.completed[:, 0].all()
        assert not partial.completed[:, 1].any()
        assert len(partial.failures) == 3
        for failure in partial.failures:
            assert "r=1.5" in str(failure)
            assert "injected cell failure" in str(failure)
        assert set(partial.unevaluated) == {(0, 1), (1, 1), (2, 1)}

    def test_process_deadline_at_unit_grain(self, flip_flop):
        """A unit running when the deadline passes drains; a unit that
        has not started lists all its cells as unevaluated."""
        from repro.exec import ProcessShardExecutor
        clear_caches()
        times, rewards = [0.5, 1.0, 1.5], [0.5, 1.0, 1.5]
        reference = ErlangEngine(phases=16).joint_probability_sweep(
            flip_flop, times, rewards, [1])
        clear_caches()
        # One worker, one reward column per unit, 3 x 0.6 s per unit:
        # the deadline falls inside the first unit.
        executor = ProcessShardExecutor(max_workers=1, faults="sleep=0.6")
        partial = ErlangEngine(phases=16).joint_probability_sweep_partial(
            flip_flop, times, rewards, [1], executor=executor,
            deadline=time.monotonic() + 1.0)
        assert not partial.failures
        done = partial.completed.all(axis=0)
        assert np.array_equal(partial.completed.any(axis=0), done)
        assert done[0] and not done.all()
        assert set(partial.unevaluated) == {
            (i, j) for i in range(3) for j in range(3) if not done[j]}
        assert partial.grid[:, done].tobytes() == \
            reference[:, done].tobytes()
        assert np.isnan(partial.grid[:, ~done]).all()


# ----------------------------------------------------------------------
# tentpole: budgets, verdicts and the fallback chain
# ----------------------------------------------------------------------

class TestBudget:
    def test_round_accounting(self):
        budget = Budget(max_rounds=2)
        assert budget.take_round() and budget.take_round()
        assert not budget.take_round()
        assert budget.rounds_used == 2
        budget.restart()
        assert budget.take_round()

    def test_deadline_expiry(self):
        budget = Budget(seconds=0.01)
        assert not budget.expired
        time.sleep(0.03)
        assert budget.expired
        assert not budget.take_round()
        assert budget.remaining_seconds() == 0.0

    def test_validation(self):
        with pytest.raises(NumericalError, match="positive"):
            Budget(seconds=-1.0)
        with pytest.raises(NumericalError, match="max_rounds"):
            Budget(max_rounds=0)
        assert Budget.unlimited().remaining_seconds() == np.inf


class TestVerdicts:
    def test_interval_verdict_matrix(self):
        assert interval_verdict(0.1, 0.2, "<", 0.5) is Verdict.TRUE
        assert interval_verdict(0.6, 0.7, "<", 0.5) is Verdict.FALSE
        assert interval_verdict(0.4, 0.6, "<", 0.5) is Verdict.UNKNOWN
        assert interval_verdict(0.6, 0.7, ">=", 0.5) is Verdict.TRUE
        assert interval_verdict(0.1, 0.2, ">", 0.5) is Verdict.FALSE
        assert interval_verdict(0.5, 0.5, "<=", 0.5) is Verdict.TRUE

    def test_only_true_is_truthy(self):
        assert Verdict.TRUE
        assert not Verdict.FALSE
        assert not Verdict.UNKNOWN


class TestCertifiedChecker:
    FORMULA = "P>0.5 [ up U[0,1][0,3] down ]"

    def test_agrees_with_exact_checker(self, flip_flop):
        exact = ModelChecker(flip_flop).check(self.FORMULA)
        result = CertifiedChecker(flip_flop).check(self.FORMULA)
        expected = (Verdict.TRUE if exact.holds_initially
                    else Verdict.FALSE)
        assert result.verdict is expected
        assert np.all(result.lower <= exact.probabilities + 1e-9)
        assert np.all(exact.probabilities <= result.upper + 1e-9)
        assert not result.degraded

    def test_unknown_near_threshold_without_refinement(self, flip_flop):
        coarse = DiscretizationEngine(step=0.5)
        point = ModelChecker(
            flip_flop, engine=coarse).check(self.FORMULA)
        bound = float(point.probabilities[0])
        formula = f"P<{bound} [ up U[0,1][0,3] down ]"
        result = CertifiedChecker(
            flip_flop, chain=(DiscretizationEngine(step=0.5),),
            budget=Budget(max_rounds=1)).check(formula)
        assert result.verdict is Verdict.UNKNOWN
        assert result.lower[0] < bound < result.upper[0]
        assert any("budget" in f.reason for f in result.failures)

    def test_adaptive_refinement_decides(self, flip_flop):
        coarse = DiscretizationEngine(step=0.5)
        point = ModelChecker(
            flip_flop, engine=coarse).check(self.FORMULA)
        bound = float(point.probabilities[0])
        formula = f"P<{bound} [ up U[0,1][0,3] down ]"
        result = CertifiedChecker(
            flip_flop, chain=(DiscretizationEngine(step=0.5),),
            budget=Budget(max_rounds=8)).check(formula)
        assert result.verdict is not Verdict.UNKNOWN
        assert result.rounds_used > 1

    def test_e2e_graceful_degradation(self, flip_flop):
        """Acceptance: primary engine forced to fail -> correct verdict
        from the fallback, failure recorded in the result."""
        exact = ModelChecker(flip_flop).check(self.FORMULA)
        expected = (Verdict.TRUE if exact.holds_initially
                    else Verdict.FALSE)
        result = CertifiedChecker(
            flip_flop,
            chain=(FailingEngine(), "sericola")).check(self.FORMULA)
        assert result.verdict is expected
        assert result.engine == "sericola"
        assert result.degraded
        assert result.failures[0].engine == "failing"
        assert "injected non-convergence" in result.failures[0].reason

    def test_every_engine_failing_reports_unknown(self, flip_flop):
        result = CertifiedChecker(
            flip_flop,
            chain=(FailingEngine(), FailingEngine())).check(self.FORMULA)
        assert result.verdict is Verdict.UNKNOWN
        assert result.engine is None
        assert np.all(result.lower == 0.0)
        assert np.all(result.upper == 1.0)
        assert len(result.failures) == 2

    def test_target_width_drives_refinement(self, flip_flop):
        result = CertifiedChecker(
            flip_flop, chain=(SericolaEngine(epsilon=1e-2),),
            target_width=1e-4,
            budget=Budget(max_rounds=12)).check(self.FORMULA)
        assert result.width <= 1e-4
        assert result.rounds_used > 1

    def test_unsupported_formulas_raise(self, flip_flop):
        with pytest.raises(UnsupportedFormulaError, match="outermost P"):
            CertifiedChecker(flip_flop).check("up")
        with pytest.raises(UnsupportedFormulaError, match="finite"):
            CertifiedChecker(flip_flop).check(
                "P>0.5 [ up U[0,3] down ]")

    def test_checker_front_end_and_budget_errors(self, flip_flop):
        checker = ModelChecker(flip_flop)
        result = checker.check_certified(self.FORMULA)
        assert result.verdict in (Verdict.TRUE, Verdict.FALSE)
        assert isinstance(BudgetExhaustedError("x"), NumericalError)


# ----------------------------------------------------------------------
# satellite 3: cache byte cap and eviction accounting
# ----------------------------------------------------------------------

class TestCacheEviction:
    def test_value_nbytes(self):
        array = np.zeros(128)
        assert value_nbytes(array) == array.nbytes
        pair = (np.zeros(4), np.zeros(4))
        assert value_nbytes(pair) >= 2 * 32
        assert value_nbytes({"a": np.zeros(2)}) >= 16

    def test_value_nbytes_counts_the_arrays_objects_hold(self):
        """Poisson weights, kernel plans (slotted) and the models in
        Erlang's matrix-cache entries count their arrays and sparse
        matrices, not just their object headers."""
        from repro.kernels.base import (build_sericola_plan,
                                        build_shift_plan)
        from repro.numerics.poisson import poisson_weights
        weights = poisson_weights(500.0)
        assert weights.weights.nbytes >= 2560
        assert value_nbytes(weights) >= 2560
        levels = np.arange(1000, dtype=float)
        assert value_nbytes(build_sericola_plan(levels)) >= 2 * 8000
        assert value_nbytes(build_shift_plan(np.arange(1000) % 3)) \
            >= 2 * 8000
        model = adhoc.adhoc_model()
        rates = model.rate_matrix
        held = (rates.data.nbytes + rates.indices.nbytes
                + rates.indptr.nbytes + 3 * 8 * model.num_states)
        assert value_nbytes((model, 0.5)) >= held

    def test_byte_cap_evicts_lru(self):
        cache = LRUCache(maxsize=100, max_bytes=3 * 800)
        for name in "abcd":
            cache.put(name, np.zeros(100))  # 800 bytes each
        assert cache.get("a") is None       # oldest evicted
        assert cache.get("d") is not None
        assert cache.evictions == 1
        assert cache.nbytes <= 3 * 800

    def test_newest_entry_always_kept(self):
        cache = LRUCache(maxsize=100, max_bytes=8)
        evicted = cache.put("huge", np.zeros(1000))
        assert cache.get("huge") is not None
        assert evicted == 0

    def test_engine_counts_evictions(self, flip_flop, ledger):
        clear_caches()
        original = joint_cache.max_bytes
        joint_cache.max_bytes = 16
        try:
            engine = SericolaEngine(epsilon=1e-8)
            for r in (0.5, 1.0, 1.5, 2.0):
                engine.joint_probability_vector(flip_flop, 1.0, r, [1])
            assert ledger("sericola")["cache_evictions"] > 0
        finally:
            joint_cache.max_bytes = original
            clear_caches()

    def test_stats_merge_carries_evictions(self, flip_flop, ledger):
        """Evictions caused by unit threads reach the ledger."""
        from repro.exec import ThreadShardExecutor
        clear_caches()
        original = joint_cache.max_bytes
        joint_cache.max_bytes = 16
        try:
            engine = SericolaEngine(epsilon=1e-8)
            # Sericola units run inline by default; force the pool.
            engine.parallel_units = True
            ThreadShardExecutor(max_workers=2).sweep(
                engine, flip_flop, [1.0], [0.5, 1.0], [1])
            assert ledger("sericola")["cache_evictions"] > 0
        finally:
            joint_cache.max_bytes = original
            clear_caches()
