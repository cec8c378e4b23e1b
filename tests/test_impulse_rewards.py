"""Tests for impulse rewards (the paper's future-work extension).

An impulse reward is earned instantaneously when a transition fires.
The simulator, the discretisation engine and the pseudo-Erlang engine
support them; the occupation-time engine and the duality transform
reject them explicitly (they are tailored to state-based rewards, as
the paper says of its algorithms).
"""

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine)
from repro.ctmc import MarkovRewardModel, ModelBuilder
from repro.errors import ModelError, NumericalError, RewardError
from repro.mc.transform import dual_model, until_reduction
from repro.sim import PathSimulator, estimate_joint_probability

LAM = 0.8


@pytest.fixture
def impulse_chain():
    """a --(rate LAM, impulse 2)--> b; no rate rewards at all.

    Y_t = 2 * 1{jumped by t}: a two-point distribution with closed
    forms for everything.
    """
    builder = ModelBuilder()
    builder.add_state("a", reward=0.0)
    builder.add_state("b", reward=0.0)
    builder.add_transition("a", "b", LAM, impulse=2.0)
    return builder.build(initial_state="a")


class TestModelLayer:
    def test_builder_records_impulses(self, impulse_chain):
        assert impulse_chain.has_impulse_rewards
        assert impulse_chain.impulse(0, 1) == 2.0
        assert impulse_chain.impulse(1, 0) == 0.0

    def test_zero_impulses_collapse_to_none(self):
        model = MarkovRewardModel([[0.0, 1.0], [0.0, 0.0]],
                                  impulse_rewards={(0, 1): 0.0})
        assert not model.has_impulse_rewards

    def test_impulse_off_transition_rejected(self):
        with pytest.raises(ModelError, match="existing transitions"):
            MarkovRewardModel([[0.0, 1.0], [0.0, 0.0]],
                              impulse_rewards={(1, 0): 1.0})

    def test_negative_impulse_rejected(self):
        with pytest.raises(RewardError):
            MarkovRewardModel([[0.0, 1.0], [0.0, 0.0]],
                              impulse_rewards={(0, 1): -1.0})

    def test_conflicting_builder_impulses_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        builder.add_transition("a", "b", 1.0, impulse=2.0)
        with pytest.raises(ModelError, match="conflicting"):
            builder.add_transition("a", "b", 1.0, impulse=3.0)

    def test_matrix_form_accepted(self):
        impulses = np.array([[0.0, 1.5], [0.0, 0.0]])
        model = MarkovRewardModel([[0.0, 1.0], [0.0, 0.0]],
                                  impulse_rewards=impulses)
        assert model.impulse(0, 1) == 1.5

    def test_scaling_scales_impulses(self, impulse_chain):
        scaled = impulse_chain.scaled_rewards(3.0)
        assert scaled.impulse(0, 1) == 6.0

    def test_derived_models_keep_impulses(self, impulse_chain):
        assert impulse_chain.with_initial_state(1).has_impulse_rewards
        assert impulse_chain.with_rewards([1.0, 1.0]) \
            .impulse(0, 1) == 2.0


class TestSimulator:
    def test_final_reward_counts_impulse(self, impulse_chain):
        simulator = PathSimulator(impulse_chain, seed=3)
        path = simulator.sample_path(50.0)
        assert path.final_reward == 2.0  # the jump surely happened

    def test_reward_at_steps_up(self, impulse_chain):
        simulator = PathSimulator(impulse_chain, seed=4)
        path = simulator.sample_path(50.0)
        jump = path.steps[1].entry_time
        rewards = impulse_chain.rewards
        assert path.reward_at(jump / 2.0, rewards) == 0.0
        assert path.reward_at(jump + 1e-9, rewards) == 2.0

    def test_mixed_rate_and_impulse(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", LAM, impulse=5.0)
        model = builder.build()
        simulator = PathSimulator(model, seed=5)
        path = simulator.sample_path(100.0)
        sojourn = path.steps[0].sojourn
        assert path.final_reward == pytest.approx(sojourn + 5.0)


class TestEngines:
    def test_erlang_closed_form(self, impulse_chain):
        # Pr{Y_t <= r}: for r < 2 it needs no jump (e^{-lam t}); for
        # r >= 2 it is 1.  With the Erlang-k bound the impulse of 2
        # crosses Poisson(2k/r) boundaries; exactness holds only in
        # the k -> inf limit, so test convergence.
        t = 1.0
        exact_below = np.exp(-LAM * t)
        values = [ErlangEngine(phases=k).joint_probability_vector(
            impulse_chain, t, 1.0, [0, 1])[0] for k in (4, 16, 128)]
        errors = [abs(v - exact_below) for v in values]
        # P{Poisson(2k) < k} decays exponentially in k: the
        # approximation error collapses very fast here.
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 1e-6

    def test_erlang_bound_above_impulse(self, impulse_chain):
        value = ErlangEngine(phases=64).joint_probability_vector(
            impulse_chain, 1.0, 4.0, [0, 1])[0]
        # Bound 4 with Erlang spread: nearly certain.
        assert value > 0.95

    def test_discretization_closed_form(self, impulse_chain):
        t = 1.0
        engine = DiscretizationEngine(step=1.0 / 128)
        below = engine.joint_probability_vector(impulse_chain, t, 1.0,
                                                [0, 1])[0]
        assert below == pytest.approx(np.exp(-LAM * t), abs=5e-3)
        above = engine.joint_probability_vector(impulse_chain, t, 3.0,
                                                [0, 1])[0]
        assert above == pytest.approx(1.0, abs=1e-9)

    def test_discretization_vs_simulation_mixed(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=2.0)
        builder.add_state("c", reward=0.0)
        builder.add_transition("a", "b", 1.0, impulse=1.0)
        builder.add_transition("b", "c", 2.0, impulse=3.0)
        model = builder.build()
        t, r = 2.0, 4.0
        engine = DiscretizationEngine(step=1.0 / 128)
        numeric = engine.joint_probability_vector(model, t, r,
                                                  [0, 1, 2])[0]
        estimate = estimate_joint_probability(model, t, r, {0, 1, 2},
                                              samples=20_000, seed=9)
        assert abs(numeric - estimate.value) < max(
            estimate.half_width + 5e-3, 0.01)

    def test_erlang_vs_discretization_mixed(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0, impulse=2.0)
        builder.add_transition("b", "a", 0.5, impulse=1.0)
        model = builder.build()
        t, r = 3.0, 5.0
        erlang = ErlangEngine(phases=1024).joint_probability_vector(
            model, t, r, [0, 1])[0]
        discretized = DiscretizationEngine(step=1.0 / 128) \
            .joint_probability_vector(model, t, r, [0, 1])[0]
        assert erlang == pytest.approx(discretized, abs=1e-2)

    def test_sericola_rejects_impulses(self, impulse_chain):
        with pytest.raises(NumericalError, match="state-based"):
            SericolaEngine().joint_probability_vector(
                impulse_chain, 1.0, 1.0, [1])

    def test_duality_rejects_impulses(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0, impulse=1.0)
        with pytest.raises(RewardError, match="duality"):
            dual_model(builder.build())

    def test_zero_bound_with_impulses(self, impulse_chain):
        # Y_t <= 0 requires the impulse transition not to have fired.
        from repro.algorithms.erlang import zero_reward_bound_sweep
        t = 1.0
        vector = zero_reward_bound_sweep(impulse_chain, [t],
                                         np.ones(2))[0]
        assert vector[0] == pytest.approx(np.exp(-LAM * t), abs=1e-9)
        assert vector[1] == pytest.approx(1.0)


class TestCheckerIntegration:
    def test_p3_until_with_impulses(self):
        """End to end: Theorem-1 reduction keeps transient impulses and
        the discretisation engine decides the until formula."""
        from repro.mc import ModelChecker
        builder = ModelBuilder()
        builder.add_state("start", labels=("go",), reward=0.0)
        builder.add_state("goal", labels=("done",), reward=0.0)
        builder.add_transition("start", "goal", LAM, impulse=2.0)
        model = builder.build()
        checker = ModelChecker(
            model, engine=DiscretizationEngine(step=1.0 / 128))
        # Reaching the goal within t=1: the jump carries impulse 2, so
        # with reward bound 3 the jump itself decides (1 - e^{-lam}),
        # while bound 1 makes success impossible.
        generous = checker.check("P>0 [ go U[0,1][0,3] done ]")
        assert generous.probability_of(0) == pytest.approx(
            1.0 - np.exp(-LAM), abs=5e-3)
        stingy = checker.check("P>0 [ go U[0,1][0,1] done ]")
        assert stingy.probability_of(0) == pytest.approx(0.0, abs=5e-3)

    def test_reduction_keeps_impulses(self, impulse_chain):
        reduced = until_reduction(impulse_chain, {0}, {1})
        assert reduced.impulse(0, 1) == 2.0
        # Absorbing rows lose their (outgoing) impulses with the rates.
        assert reduced.is_absorbing(1)
