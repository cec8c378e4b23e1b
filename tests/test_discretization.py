"""Unit tests for the Tijms--Veldman discretisation engine."""

import numpy as np
import pytest

from repro.algorithms.discretization import (DiscretizationEngine,
                                             integer_reward_scale)
from repro.ctmc import ModelBuilder
from repro.errors import NumericalError, RewardError
from tests.oracles import discretized_joint_probability

MU = 0.7


class TestIntegerRewardScale:
    def test_integers_need_no_scaling(self):
        assert integer_reward_scale([0.0, 1.0, 5.0]) == 1

    def test_halves(self):
        assert integer_reward_scale([0.5, 1.0]) == 2

    def test_mixed_fractions(self):
        assert integer_reward_scale([0.5, 1.0 / 3.0]) == 6

    def test_irrational_rejected(self):
        with pytest.raises(RewardError):
            integer_reward_scale([np.pi], max_denominator=100)


class TestParameters:
    def test_invalid_step(self):
        with pytest.raises(NumericalError):
            DiscretizationEngine(step=0.0)

    def test_invalid_underflow_mode(self):
        with pytest.raises(NumericalError):
            DiscretizationEngine(underflow="wrap")

    def test_step_must_divide_time(self, two_state_absorbing):
        engine = DiscretizationEngine(step=0.4)
        with pytest.raises(NumericalError, match="multiple"):
            engine.joint_probability_vector(two_state_absorbing, 1.0, 1.0,
                                            [1])

    def test_step_too_coarse_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b")
        builder.add_transition("a", "b", 10.0)  # E = 10 -> need d <= 0.1
        model = builder.build()
        engine = DiscretizationEngine(step=0.5)
        with pytest.raises(NumericalError, match="too coarse"):
            engine.joint_probability_vector(model, 1.0, 1.0, [1])

    def test_fractional_rewards_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.5)
        builder.add_state("b")
        builder.add_transition("a", "b", 1.0)
        model = builder.build()
        engine = DiscretizationEngine(step=0.1)
        with pytest.raises(RewardError, match="natural-number"):
            engine.joint_probability_vector(model, 1.0, 1.0, [1])

    def test_scaling_recipe_works(self):
        # The documented workaround: scale rewards and the bound.
        builder = ModelBuilder()
        builder.add_state("a", reward=0.5)
        builder.add_state("b")
        builder.add_transition("a", "b", MU)
        model = builder.build()
        scale = integer_reward_scale(model.rewards)
        scaled = model.scaled_rewards(scale)
        engine = DiscretizationEngine(step=1.0 / 128)
        t, r = 2.0, 0.6
        value = engine.joint_probability_vector(scaled, t, r * scale,
                                                [1])[0]
        exact = 1.0 - np.exp(-MU * (r / 0.5))  # T <= r / rho
        assert value == pytest.approx(exact, abs=5e-3)


class TestConvergence:
    def test_first_order_convergence(self, two_state_absorbing):
        t, r = 3.0, 1.2
        exact = 1.0 - np.exp(-MU * r)
        errors = []
        for d in (0.1, 0.05, 0.025):
            engine = DiscretizationEngine(step=d)
            value = engine.joint_probability_vector(
                two_state_absorbing, t, r, [1])[0]
            errors.append(abs(value - exact))
        # Error shrinks roughly linearly in d.
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[2] > 2.5

    def test_underflow_variants_agree_without_zero_mass(
            self, two_state_absorbing):
        # No probability mass at accumulated reward zero: the paper's
        # clamp rule and the drop rule coincide.
        t, r = 2.0, 1.0
        drop = DiscretizationEngine(step=0.025, underflow="drop")
        clamp = DiscretizationEngine(step=0.025, underflow="clamp")
        assert drop.joint_probability_vector(
            two_state_absorbing, t, r, [1])[0] == pytest.approx(
            clamp.joint_probability_vector(
                two_state_absorbing, t, r, [1])[0], abs=1e-12)

    def test_vector_api(self, two_state_absorbing):
        engine = DiscretizationEngine(step=0.05)
        vector = engine.joint_probability_vector(two_state_absorbing,
                                                 2.0, 1.0, [1])
        assert vector.shape == (2,)
        assert vector[1] == pytest.approx(1.0, abs=1e-9)

    def test_joint_probability_weights_initial_distribution(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", MU)
        model = builder.build(initial_distribution=[0.5, 0.5])
        engine = DiscretizationEngine(step=0.05)
        vector = engine.joint_probability_vector(model, 2.0, 1.0, [1])
        combined = float(model.initial_distribution @ vector)
        from_a = discretized_joint_probability(
            model, 2.0, 1.0, np.array([0.0, 1.0]), 0, step=0.05)
        assert combined == pytest.approx(0.5 * from_a + 0.5, abs=1e-9)


class TestHugeRewardBound:
    @pytest.mark.parametrize("underflow", ["drop", "clamp"])
    def test_bound_beyond_reach_equals_rho_max_t(self, adhoc_reduced,
                                                 underflow):
        """On impulse-free models ``Y_t <= rho_max t``, so the reward
        cells stop there: any larger bound gives the ``r = rho_max t``
        value bit for bit (and ``r = 1e9`` fits in memory)."""
        from repro.algorithms import clear_caches
        model = adhoc_reduced.model
        goal = [adhoc_reduced.goal_state]
        rho_max = float(model.rewards.max())
        engine = DiscretizationEngine(step=1.0 / 32, underflow=underflow)
        clear_caches()
        reference = engine.joint_probability_vector(model, 4.0,
                                                    rho_max * 4.0, goal)
        for r in (1200.0, 4800.0, 1e9):
            clear_caches()
            np.testing.assert_array_equal(
                engine.joint_probability_vector(model, 4.0, r, goal),
                reference)


class TestDensity:
    def test_density_is_a_subdensity(self, two_state_absorbing):
        # The total mass of F^T -- the read-off over every state and
        # cell -- with r >= rho_max t, so no mass is cut off: the
        # recurrence conserves it.
        engine = DiscretizationEngine(step=0.05)
        mass = engine.joint_probability_vector(two_state_absorbing, 2.0,
                                               5.0, [0, 1])[0]
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_first_interval_exceeding_bound(self):
        # Initial reward displacement beyond R: nothing to track.
        builder = ModelBuilder()
        builder.add_state("a", reward=100.0)
        builder.add_state("b")
        builder.add_transition("a", "b", 1.0)
        model = builder.build()
        engine = DiscretizationEngine(step=0.1)
        vector = engine.joint_probability_vector(model, 1.0, 0.5, [0, 1])
        assert vector[0] == 0.0

    def test_time_zero(self, two_state_absorbing):
        engine = DiscretizationEngine(step=0.1)
        assert engine.joint_probability_vector(
            two_state_absorbing, 0.0, 1.0, [0])[0] == 1.0

    def test_zero_reward_bound_exact(self, two_state_absorbing):
        engine = DiscretizationEngine(step=0.1)
        value = engine.joint_probability_vector(two_state_absorbing,
                                                2.0, 0.0, [1])[0]
        assert value == pytest.approx(0.0, abs=1e-12)
