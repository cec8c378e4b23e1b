"""Unit tests for the occupation-time (Sericola) engine.

The two-state fixture has closed forms for every entry of H(t, r),
which pins the recursion exactly; larger models are cross-checked in
test_engines_agree.py.
"""

import numpy as np
import pytest

from repro.algorithms import clear_caches
from repro.algorithms.sericola import SericolaEngine
from repro.ctmc import MarkovRewardModel, ModelBuilder
from repro.errors import NumericalError
from repro.mc.measures import performability_distribution
from repro.models.workloads import random_mrm
from repro.numerics.uniformization import transient_target_probabilities

MU = 0.7


class TestClosedForms:
    @pytest.mark.parametrize("t,r", [(3.0, 1.2), (1.0, 0.5), (10.0, 9.0),
                                     (5.0, 0.25)])
    def test_complementary_into_absorbing(self, two_state_absorbing, t, r):
        engine = SericolaEngine(epsilon=1e-12)
        computed = engine.complementary_vector(
            two_state_absorbing, t, r, np.array([0.0, 1.0]))[0]
        assert computed == pytest.approx(
            np.exp(-MU * r) - np.exp(-MU * t), abs=1e-10)

    @pytest.mark.parametrize("t,r", [(3.0, 1.2), (2.0, 1.999)])
    def test_complementary_staying(self, two_state_absorbing, t, r):
        engine = SericolaEngine(epsilon=1e-12)
        computed = engine.complementary_vector(
            two_state_absorbing, t, r, np.array([1.0, 0.0]))[0]
        assert computed == pytest.approx(np.exp(-MU * t), abs=1e-10)

    def test_joint_probability(self, two_state_absorbing):
        engine = SericolaEngine(epsilon=1e-12)
        t, r = 3.0, 1.2
        joint = engine.joint_probability_vector(
            two_state_absorbing, t, r, [1])
        # From a: absorbed with Y <= r  iff  T <= r.
        assert joint[0] == pytest.approx(1.0 - np.exp(-MU * r), abs=1e-10)
        # From the absorbing zero-reward state itself: certain.
        assert joint[1] == pytest.approx(1.0, abs=1e-12)

    def test_all_initial_states_in_one_run(self, three_level_chain):
        engine = SericolaEngine(epsilon=1e-10)
        vector = engine.joint_probability_vector(
            three_level_chain, 2.0, 3.0, [2])
        assert vector.shape == (3,)
        assert np.all((0.0 <= vector) & (vector <= 1.0))


class TestBoundaryCases:
    def test_time_zero(self, three_level_chain):
        engine = SericolaEngine()
        joint = engine.joint_probability_vector(
            three_level_chain, 0.0, 0.0, [0])
        # Y_0 = 0 <= 0 and X_0 = initial state.
        assert np.allclose(joint, [1.0, 0.0, 0.0])

    def test_reward_bound_above_max(self, three_level_chain):
        engine = SericolaEngine(epsilon=1e-12)
        t = 1.5
        r = three_level_chain.max_reward * t + 1.0
        joint = engine.joint_probability_vector(
            three_level_chain, t, r, [2])
        transient = transient_target_probabilities(
            three_level_chain, t, np.array([0.0, 0.0, 1.0]),
            epsilon=1e-13)
        assert np.allclose(joint, transient, atol=1e-9)

    def test_reward_bound_below_min(self):
        # All rewards strictly positive: Y_t >= rho_min * t > r.
        builder = ModelBuilder()
        builder.add_state("x", reward=2.0)
        builder.add_state("y", reward=1.0)
        builder.add_transition("x", "y", 1.0)
        builder.add_transition("y", "x", 1.0)
        model = builder.build()
        engine = SericolaEngine(epsilon=1e-12)
        joint = engine.joint_probability_vector(model, 4.0, 1.0, [0, 1])
        assert np.allclose(joint, 0.0, atol=1e-12)

    def test_uniform_rewards(self):
        # One reward level: Y_t = rho * t deterministically.
        builder = ModelBuilder()
        builder.add_state("x", reward=2.0)
        builder.add_state("y", reward=2.0)
        builder.add_transition("x", "y", 1.0)
        builder.add_transition("y", "x", 1.0)
        model = builder.build()
        engine = SericolaEngine(epsilon=1e-12)
        below = engine.joint_probability_vector(model, 3.0, 5.9, [0, 1])
        above = engine.joint_probability_vector(model, 3.0, 6.0, [0, 1])
        assert np.allclose(below, 0.0, atol=1e-12)
        assert np.allclose(above, 1.0, atol=1e-9)

    def test_no_transitions(self):
        model = MarkovRewardModel(np.zeros((2, 2)), rewards=[3.0, 0.0])
        engine = SericolaEngine()
        joint = engine.joint_probability_vector(model, 2.0, 5.0, [0, 1])
        # State 0 accumulates 6 > 5; state 1 accumulates 0 <= 5.
        assert np.allclose(joint, [0.0, 1.0])

    def test_zero_reward_bound(self, two_state_absorbing):
        engine = SericolaEngine(epsilon=1e-12)
        joint = engine.joint_probability_vector(
            two_state_absorbing, 5.0, 0.0, [1])
        # Y_t > 0 almost surely from the reward-1 state.
        assert joint[0] == pytest.approx(0.0, abs=1e-9)
        assert joint[1] == pytest.approx(1.0, abs=1e-9)


class TestInterface:
    def test_invalid_epsilon(self):
        with pytest.raises(NumericalError):
            SericolaEngine(epsilon=0.0)
        with pytest.raises(NumericalError):
            SericolaEngine(epsilon=1.5)

    def test_invalid_times(self, two_state_absorbing):
        engine = SericolaEngine()
        with pytest.raises(NumericalError):
            engine.joint_probability_vector(two_state_absorbing,
                                            -1.0, 1.0, [0])
        with pytest.raises(NumericalError):
            engine.joint_probability_vector(two_state_absorbing,
                                            1.0, -1.0, [0])

    def test_invalid_target(self, two_state_absorbing):
        with pytest.raises(NumericalError):
            SericolaEngine().joint_probability_vector(
                two_state_absorbing, 1.0, 1.0, [5])

    def test_diagnostics_populated(self, three_level_chain):
        engine = SericolaEngine(epsilon=1e-6)
        engine.joint_probability_vector(three_level_chain, 2.0, 3.0, [2])
        diagnostics = engine.last_diagnostics
        assert diagnostics is not None
        assert diagnostics.truncation_steps > 0
        assert diagnostics.uniformization_rate == pytest.approx(
            three_level_chain.max_exit_rate)
        assert 1 <= diagnostics.level_index <= diagnostics.reward_levels
        assert 0.0 <= diagnostics.normalized_bound < 1.0

    def test_joint_probability_uses_initial_distribution(
            self, two_state_absorbing):
        # Pr{Y_t <= r} over every state equals the closed form into b:
        # from a, Y_3 = min(T, 3) <= 1.2 iff T <= 1.2.
        engine = SericolaEngine(epsilon=1e-12)
        value = performability_distribution(two_state_absorbing, 3.0,
                                            1.2, engine=engine)
        assert value == pytest.approx(1.0 - np.exp(-MU * 1.2), abs=1e-10)


class TestMatrixVariant:
    def test_closed_form_matrix(self, two_state_absorbing):
        engine = SericolaEngine(epsilon=1e-12)
        t, r = 3.0, 1.2
        H = engine.joint_distribution_matrix(two_state_absorbing, t, r)
        assert H[0, 1] == pytest.approx(
            np.exp(-MU * r) - np.exp(-MU * t), abs=1e-10)
        assert H[0, 0] == pytest.approx(np.exp(-MU * t), abs=1e-10)
        assert np.allclose(H[1], 0.0)

    def test_matrix_columns_sum_to_aggregate(self, three_level_chain):
        engine = SericolaEngine(epsilon=1e-11)
        t, r = 2.0, 3.0
        H = engine.joint_distribution_matrix(three_level_chain, t, r)
        aggregated = engine.complementary_vector(
            three_level_chain, t, r, np.ones(3))
        assert np.allclose(H.sum(axis=1), aggregated, atol=1e-9)

    def test_matrix_bounded_by_transient(self, three_level_chain):
        from repro.numerics.uniformization import transient_matrix
        engine = SericolaEngine(epsilon=1e-11)
        t, r = 2.0, 3.0
        H = engine.joint_distribution_matrix(three_level_chain, t, r)
        transient = transient_matrix(three_level_chain, t,
                                     epsilon=1e-12)
        assert np.all(H <= transient + 1e-8)
        assert np.all(H >= -1e-12)


class TestConvergence:
    def test_value_converges_with_epsilon(self, adhoc_reduced):
        model = adhoc_reduced.model
        goal = adhoc_reduced.goal_state
        values = []
        for epsilon in (1e-1, 1e-3, 1e-6):
            engine = SericolaEngine(epsilon=epsilon)
            values.append(engine.joint_probability_vector(
                model, 24.0, 600.0, [goal])[0])
        # Monotone convergence from below (truncation drops positive
        # terms), as in Table 2 of the paper.
        assert values[0] < values[1] < values[2]
        assert values[2] - values[1] < values[1] - values[0]

    def test_steady_state_detection_accuracy(self):
        """The paper's outlook: detection must shorten the series on
        long horizons without exceeding the error bound."""
        from repro.models.workloads import workstation_cluster
        model = workstation_cluster(8, failure_rate=0.5,
                                    repair_rate=5.0)
        t = 200.0
        r = 0.9 * 8 * t
        target = range(4, 9)
        plain_engine = SericolaEngine(epsilon=1e-8)
        plain = plain_engine.joint_probability_vector(model, t, r,
                                                      target)
        detecting = SericolaEngine(epsilon=1e-8,
                                   steady_state_detection=True)
        detected = detecting.joint_probability_vector(model, t, r,
                                                      target)
        assert np.allclose(plain, detected, atol=1e-7)
        assert (detecting.last_diagnostics.truncation_steps
                < plain_engine.last_diagnostics.truncation_steps)

    def test_detection_same_whichever_path_runs_first(self):
        """Scalar and grid queries are one computation: a detecting
        engine's vector and truncation depth do not depend on whether
        a scalar query or a sweep filled the cache."""
        from repro.algorithms import clear_caches
        from repro.models.workloads import workstation_cluster
        model = workstation_cluster(8, failure_rate=0.5,
                                    repair_rate=5.0)
        t = 200.0
        r = 0.9 * 8 * t
        target = range(4, 9)
        clear_caches()
        scalar_first = SericolaEngine(epsilon=1e-8,
                                      steady_state_detection=True)
        vector = scalar_first.joint_probability_vector(model, t, r,
                                                       target)
        clear_caches()
        sweep_first = SericolaEngine(epsilon=1e-8,
                                     steady_state_detection=True)
        swept = sweep_first.joint_probability_sweep(model, [t], [r],
                                                    target)
        again = sweep_first.joint_probability_vector(model, t, r, target)
        np.testing.assert_array_equal(swept[0, 0], vector)
        np.testing.assert_array_equal(again, vector)
        assert (sweep_first.last_diagnostics.truncation_steps
                == scalar_first.last_diagnostics.truncation_steps)

    def test_detection_off_by_default(self, adhoc_reduced):
        engine = SericolaEngine(epsilon=1e-6)
        assert not engine.steady_state_detection

    def test_truncation_matches_table2(self, adhoc_reduced):
        engine = SericolaEngine(epsilon=1e-8)
        engine.joint_probability_vector(adhoc_reduced.model, 24.0,
                                        600.0, [adhoc_reduced.goal_state])
        assert engine.last_diagnostics.truncation_steps == 594


def _rates_scaled(model: MarkovRewardModel, factor: float
                  ) -> MarkovRewardModel:
    """A copy of *model* running *factor* times as fast."""
    return MarkovRewardModel(model.rate_matrix * factor,
                             rewards=model.rewards,
                             labels=model.labels_as_dict(),
                             initial_distribution=model.initial_distribution,
                             state_names=model.state_names)


class TestMetamorphic:
    """Relations that need no oracle, on random MRMs.  Scaling by a
    power of two changes no rounding, so the grids are bit-identical;
    a factor of 3 rounds the scaled rates, rewards and bounds."""

    TIMES = [0.5, 1.0, 2.0]
    REWARDS = [0.5, 1.5, 3.0]
    INDICATOR = np.array([0.0, 1.0, 1.0, 0.0, 1.0])

    @staticmethod
    def _grid(model, times, rewards):
        clear_caches()
        return SericolaEngine(epsilon=1e-10).sweep_unit(
            model, times, rewards, TestMetamorphic.INDICATOR)

    @staticmethod
    def _model(seed):
        return random_mrm(5, seed=seed, reward_levels=(0.0, 1.0, 2.0, 3.0))

    @staticmethod
    def _assert_close(got, want, factor):
        if factor == 3.0:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("factor", [2.0, 0.5, 3.0])
    def test_scaling_rewards_and_bound(self, seed, factor):
        """Rewards and ``r`` both times ``c``: ``Y_t`` grows by ``c``."""
        model = self._model(seed)
        base = self._grid(model, self.TIMES, self.REWARDS)
        scaled = self._grid(model.scaled_rewards(factor), self.TIMES,
                            [factor * r for r in self.REWARDS])
        self._assert_close(scaled, base, factor)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("factor", [2.0, 0.5, 3.0])
    def test_scaling_rates_against_time_and_bound(self, seed, factor):
        """Rates times ``c``, ``t`` and ``r`` over ``c``: the chain runs
        ``c`` times as fast and earns ``1/c`` of the reward by then."""
        model = self._model(seed)
        base = self._grid(model, self.TIMES, self.REWARDS)
        scaled = self._grid(_rates_scaled(model, factor),
                            [t / factor for t in self.TIMES],
                            [r / factor for r in self.REWARDS])
        self._assert_close(scaled, base, factor)
