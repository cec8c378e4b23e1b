"""Unit tests for the Tijms--Veldman discretisation engine."""

import numpy as np
import pytest

from repro.algorithms import clear_caches
from repro.algorithms.discretization import (DiscretizationEngine,
                                             integer_reward_scale,
                                             lattice_cells)
from repro.ctmc import ModelBuilder
from repro.errors import NumericalError, RewardError
from repro.models.workloads import random_mrm
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


def lattice_model():
    """Rewards {0, 2, 4} and one impulse of 2: at any step ``1/n``
    the reward lattice spacing is g = 2."""
    builder = ModelBuilder()
    builder.add_state("a", labels=("goal",), reward=4.0)
    builder.add_state("b", reward=0.0)
    builder.add_state("c", labels=("goal",), reward=2.0)
    builder.add_transition("a", "b", 1.5)
    builder.add_transition("b", "c", 1.0)
    builder.add_transition("c", "a", 2.0)
    builder.add_transition("b", "a", 0.5)
    model = builder.build(initial_state="a")
    return model.with_impulse_rewards({(0, 1): 2.0})


def random_lattice_model(seed: int, factor: int):
    """A random MRM whose rewards and impulses share the factor
    *factor* (impulses on about a third of the transitions)."""
    rng = np.random.default_rng(seed)
    model = random_mrm(4, seed=seed, max_rate=2.0,
                       reward_levels=(0.0, 1.0, 2.0, 3.0))
    coo = model.rate_matrix.tocoo()
    chosen = rng.random(coo.nnz) < 0.35
    impulses = {(int(i), int(j)): float(rng.integers(1, 3))
                for i, j in zip(coo.row[chosen], coo.col[chosen])}
    if impulses:
        model = model.with_impulse_rewards(impulses)
    return model.scaled_rewards(factor)


class TestRewardLattice:
    """Under ``underflow="drop"`` the engine steps only the reward
    cells ``0, g, 2g, ...`` the chain can reach."""

    def test_lattice_cells(self, adhoc_reduced):
        model = lattice_model()
        # rho = {4, 0, 2}, iota / d = 2 / (1/4) = 8: g = 2.
        assert lattice_cells(model, 0.25, 3.0) == (7, 2)
        assert lattice_cells(model, 0.25, 3.0, "clamp") == (13, 1)
        # The impulse displacement joins the gcd: iota / d = 1 at d = 1.
        assert lattice_cells(model.with_impulse_rewards({(0, 1): 1.0}),
                             1.0, 3.0) == (4, 1)
        # The case study's rewards {100, 0, 0, 200, 20}.
        assert lattice_cells(adhoc_reduced.model, 1.0 / 64,
                             600.0) == (1921, 20)
        # All displacements zero: g = 1.
        flat = lattice_model().with_impulse_rewards(None).with_rewards(
            [0.0, 0.0, 0.0])
        assert lattice_cells(flat, 0.25, 1.0) == (5, 1)

    def test_span_reports_the_lattice(self):
        from repro.obs import OBS
        clear_caches()
        engine = DiscretizationEngine(step=0.25)
        with OBS.capture():
            engine.sweep_unit(lattice_model(), [1.0], [3.0],
                              np.array([1.0, 0.0, 1.0]))
            column, = [s for s in OBS.tracer.spans()
                       if s.name == "adjoint_column"]
        assert column.attributes["cells"] == 7
        assert column.attributes["lattice"] == 2

    @pytest.mark.parametrize("order", [("drop", "clamp"),
                                       ("clamp", "drop")],
                             ids=["drop-first", "clamp-first"])
    def test_mixed_underflow_session_matches_fresh_caches(self, order):
        """A ``drop`` run (g = 2) and a ``clamp`` run (g = 1) share the
        step-operator cache but never each other's shift plan."""
        model = lattice_model()
        indicator = np.array([1.0, 0.0, 1.0])
        times, rewards = [0.5, 1.0, 2.0], [0.5, 1.5, 3.0]

        def run(underflow):
            return DiscretizationEngine(step=0.25, underflow=underflow) \
                .sweep_unit(model, times, rewards, indicator)

        fresh = {}
        for underflow in order:
            clear_caches()
            fresh[underflow] = run(underflow)
        clear_caches()
        for underflow in order:
            np.testing.assert_array_equal(run(underflow), fresh[underflow])
        assert not np.array_equal(fresh["drop"], fresh["clamp"])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_scaling_rewards_and_bound_is_bit_identical(self, seed,
                                                        factor):
        """Rewards, impulses and ``r`` all times ``c``: the lattice
        spacing grows by ``c`` and the run is the same arithmetic.
        (Only under ``drop``: ``clamp`` folds the off-lattice cells
        below ``c rho`` into cell 0, so it is not scale-invariant.)"""
        model = random_lattice_model(seed, 1)
        scaled = model.scaled_rewards(factor)
        indicator = np.array([0.0, 1.0, 1.0, 0.0])
        times, rewards = [1.0, 2.0], [1.0, 2.5, 4.0]
        engine = DiscretizationEngine(step=1.0 / 8)
        clear_caches()
        base = engine.sweep_unit(model, times, rewards, indicator)
        clear_caches()
        grown = engine.sweep_unit(scaled, times,
                                  [factor * r for r in rewards], indicator)
        np.testing.assert_array_equal(grown, base)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("underflow", ["drop", "clamp"])
    def test_lattice_run_matches_forward_oracle(self, seed, underflow):
        """The forward reference keeps every raw cell."""
        model = random_lattice_model(seed, 3)
        step = 1.0 / 8
        indicator = np.array([1.0, 0.0, 1.0, 1.0])
        t, r = 2.0, 10.5
        assert lattice_cells(model, step, r, underflow)[1] == (
            3 if underflow == "drop" else 1)
        clear_caches()
        vector = DiscretizationEngine(step=step, underflow=underflow) \
            .sweep_unit(model, [t], [r], indicator)[0, 0]
        for state in range(model.num_states):
            expected = discretized_joint_probability(
                model, t, r, indicator, state, step, underflow)
            assert vector[state] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("underflow", ["drop", "clamp"])
    def test_impulse_displacement_narrows_the_lattice(self, underflow):
        """Rewards {32, 0, 16} alone would give g = 16; the impulse's
        2 / d = 8 cells make it g = 8."""
        model = lattice_model().with_rewards([32.0, 0.0, 16.0])
        step, t, r = 0.25, 2.0, 9.0
        indicator = np.array([1.0, 0.0, 1.0])
        assert lattice_cells(model, step, r, underflow)[1] == (
            8 if underflow == "drop" else 1)
        clear_caches()
        vector = DiscretizationEngine(step=step, underflow=underflow) \
            .sweep_unit(model, [t], [r], indicator)[0, 0]
        for state in range(model.num_states):
            expected = discretized_joint_probability(
                model, t, r, indicator, state, step, underflow)
            assert vector[state] == pytest.approx(expected, abs=1e-12)
