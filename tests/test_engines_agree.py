"""Cross-engine agreement: the paper's Section 5.4 observation.

"The three computational procedures converge to the same value" -- we
check this on the canonical fixtures, on the case study, and on random
MRMs, with tolerances reflecting each engine's accuracy knob.
"""

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine)
from repro.models.workloads import random_mrm


def integerised(model):
    """Random models have integer reward levels already."""
    return model


class TestFixtures:
    def test_two_state(self, two_state_absorbing):
        t, r = 3.0, 1.2
        reference = SericolaEngine(epsilon=1e-12).joint_probability_vector(
            two_state_absorbing, t, r, [1])
        erlang = ErlangEngine(phases=1024).joint_probability_vector(
            two_state_absorbing, t, r, [1])
        assert np.allclose(erlang, reference, atol=2e-4)
        discretization = DiscretizationEngine(step=0.0125) \
            .joint_probability_vector(two_state_absorbing, t, r, [1])
        assert np.allclose(discretization, reference, atol=5e-3)

    def test_three_levels(self, three_level_chain):
        t, r = 2.0, 3.0
        reference = SericolaEngine(epsilon=1e-12).joint_probability_vector(
            three_level_chain, t, r, [2])
        erlang = ErlangEngine(phases=1024).joint_probability_vector(
            three_level_chain, t, r, [2])
        assert np.allclose(erlang, reference, atol=3e-4)
        discretization = DiscretizationEngine(step=0.0125) \
            .joint_probability_vector(three_level_chain, t, r, [2])
        assert np.allclose(discretization, reference, atol=6e-3)

    def test_case_study(self, adhoc_reduced):
        model = adhoc_reduced.model
        goal = adhoc_reduced.goal_state
        t, r = 24.0, 600.0
        init = int(np.argmax(model.initial_distribution))
        reference = SericolaEngine(epsilon=1e-10).joint_probability_vector(
            model, t, r, [goal])[init]
        erlang = ErlangEngine(phases=512).joint_probability_vector(
            model, t, r, [goal])[init]
        assert erlang == pytest.approx(reference, abs=2e-4)
        discretization = DiscretizationEngine(step=1.0 / 64) \
            .joint_probability_vector(model, t, r, [goal])[init]
        assert discretization == pytest.approx(reference, abs=2e-4)


class TestRandomModels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_sericola_vs_erlang(self, seed):
        model = random_mrm(5, seed=seed, reward_levels=(0.0, 1.0, 3.0))
        t = 1.5
        r = 0.8 * t * model.max_reward
        target = [0, 2]
        reference = SericolaEngine(epsilon=1e-11) \
            .joint_probability_vector(model, t, r, target)
        erlang = ErlangEngine(phases=2048).joint_probability_vector(
            model, t, r, target)
        assert np.allclose(erlang, reference, atol=5e-4)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_sericola_vs_discretization(self, seed):
        model = random_mrm(4, seed=seed, reward_levels=(0.0, 1.0, 2.0),
                           max_rate=2.0)
        t = 2.0
        r = 0.5 * t * model.max_reward
        target = [1, 3]
        reference = SericolaEngine(epsilon=1e-11) \
            .joint_probability_vector(model, t, r, target)
        discretization = DiscretizationEngine(step=1.0 / 256) \
            .joint_probability_vector(model, t, r, target)
        for s in range(model.num_states):
            assert discretization[s] == pytest.approx(reference[s],
                                                      abs=8e-3)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_r_large_reduces_to_transient(self, seed):
        from repro.numerics.uniformization import \
            transient_target_probabilities
        model = random_mrm(6, seed=seed)
        t = 1.0
        r = model.max_reward * t * 1.01
        indicator = np.zeros(model.num_states)
        indicator[[0, 3]] = 1.0
        joint = SericolaEngine(epsilon=1e-12).joint_probability_vector(
            model, t, r, [0, 3])
        transient = transient_target_probabilities(model, t, indicator,
                                                   epsilon=1e-13)
        assert np.allclose(joint, transient, atol=1e-9)


class TestMonotonicity:
    def test_joint_monotone_in_r(self, three_level_chain):
        engine = SericolaEngine(epsilon=1e-11)
        t = 2.0
        values = [engine.joint_probability_vector(
            three_level_chain, t, r, [0, 1, 2]) for r in
            np.linspace(0.0, three_level_chain.max_reward * t, 9)]
        for lower, higher in zip(values, values[1:]):
            assert np.all(higher >= lower - 1e-9)

    def test_joint_bounded_by_transient(self, three_level_chain):
        from repro.numerics.uniformization import \
            transient_target_probabilities
        engine = SericolaEngine(epsilon=1e-11)
        t, r = 2.0, 2.5
        indicator = np.array([0.0, 1.0, 1.0])
        joint = engine.joint_probability_vector(three_level_chain, t, r,
                                                [1, 2])
        transient = transient_target_probabilities(
            three_level_chain, t, indicator, epsilon=1e-13)
        assert np.all(joint <= transient + 1e-9)
