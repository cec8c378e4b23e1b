"""Unit tests for the uniformisation-based transient analyses."""

import numpy as np
import pytest
import scipy.linalg

from repro.ctmc import CTMC, MarkovRewardModel, ModelBuilder
from repro.errors import NumericalError
from repro.numerics.uniformization import (
    expected_accumulated_reward, expected_instantaneous_reward,
    transient_distribution, transient_matrix,
    transient_target_probabilities)


def random_ctmc(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 2.0, size=(n, n))
    rates[rng.random((n, n)) < 0.4] = 0.0
    np.fill_diagonal(rates, 0.0)
    return CTMC(rates)


def expm_reference(chain, t):
    return scipy.linalg.expm(chain.generator_matrix().toarray() * t)


class TestTransientDistribution:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.1, 1.0, 7.5])
    def test_against_matrix_exponential(self, seed, t):
        chain = random_ctmc(6, seed)
        reference = chain.initial_distribution @ expm_reference(chain, t)
        computed = transient_distribution(chain, t, epsilon=1e-13)
        assert np.allclose(computed, reference, atol=1e-10)

    def test_time_zero(self):
        chain = random_ctmc(4, 0)
        assert np.allclose(transient_distribution(chain, 0.0),
                           chain.initial_distribution)

    def test_distribution_stays_stochastic(self):
        chain = random_ctmc(5, 7)
        pi = transient_distribution(chain, 3.0)
        assert pi.min() >= -1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(NumericalError):
            transient_distribution(random_ctmc(3, 0), -1.0)

    def test_custom_initial_vector(self):
        chain = random_ctmc(4, 5)
        uniform = np.full(4, 0.25)
        pi = transient_distribution(chain, 2.0, initial=uniform)
        reference = uniform @ expm_reference(chain, 2.0)
        assert np.allclose(pi, reference, atol=1e-10)

    def test_wrong_initial_shape_rejected(self):
        with pytest.raises(NumericalError):
            transient_distribution(random_ctmc(4, 5), 1.0,
                                   initial=[1.0, 0.0])

    def test_steady_state_detection_is_consistent(self):
        # An ergodic chain at a huge horizon: with and without
        # detection the result must agree (and equal the fixed point).
        builder = ModelBuilder()
        builder.add_state("u")
        builder.add_state("d")
        builder.add_transition("u", "d", 1.0)
        builder.add_transition("d", "u", 3.0)
        chain = builder.build()
        with_detection = transient_distribution(
            chain, 500.0, steady_state_detection=True)
        without = transient_distribution(
            chain, 500.0, steady_state_detection=False)
        assert np.allclose(with_detection, without, atol=1e-8)
        assert np.allclose(with_detection, [0.75, 0.25], atol=1e-8)

    def test_absorbing_chain_converges(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        builder.add_transition("a", "b", 2.0)
        chain = builder.build()
        pi = transient_distribution(chain, 50.0)
        assert np.allclose(pi, [0.0, 1.0], atol=1e-12)

    def test_transition_free_chain(self):
        chain = CTMC(np.zeros((3, 3)),
                     initial_distribution=[0.2, 0.3, 0.5])
        assert np.allclose(transient_distribution(chain, 9.0),
                           [0.2, 0.3, 0.5])


class TestBackwardTransient:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_forward_backward_duality(self, seed):
        chain = random_ctmc(5, seed)
        t = 1.7
        indicator = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        backward = transient_target_probabilities(chain, t, indicator,
                                                  epsilon=1e-13)
        matrix = expm_reference(chain, t)
        assert np.allclose(backward, matrix @ indicator, atol=1e-10)

    def test_indicator_at_time_zero(self):
        chain = random_ctmc(3, 13)
        indicator = np.array([0.0, 1.0, 0.0])
        assert np.allclose(
            transient_target_probabilities(chain, 0.0, indicator),
            indicator)

    def test_transient_matrix(self):
        chain = random_ctmc(4, 21)
        t = 0.9
        assert np.allclose(transient_matrix(chain, t, epsilon=1e-13),
                           expm_reference(chain, t), atol=1e-10)

    def test_transient_matrix_time_zero(self):
        chain = random_ctmc(4, 22)
        assert np.allclose(transient_matrix(chain, 0.0), np.eye(4))

    def test_stats_plumbing(self, ledger):
        chain = random_ctmc(4, 23)
        transient_distribution(chain, 1.3, metrics_engine="test")
        stats = ledger("test")
        assert stats["matvec_count"] > 0
        assert stats["propagation_steps"] == stats["matvec_count"]
        before = stats["matvec_count"]
        transient_matrix(chain, 1.3, metrics_engine="test")
        assert ledger("test")["matvec_count"] > before
        model = MarkovRewardModel(chain.rate_matrix,
                                  rewards=[1.0, 0.0, 2.0, 0.5])
        before = ledger("test")["matvec_count"]
        expected_accumulated_reward(model, 1.3, metrics_engine="test")
        assert ledger("test")["matvec_count"] > before
        # Without an engine to count against, nothing is counted.
        transient_distribution(chain, 1.3)
        assert ledger() == ledger("test")


class TestExpectedRewards:
    def test_accumulated_reward_absorbing_closed_form(self):
        # State a (reward 2) -> absorbing b: E[Y_t] = 2 (1 - e^{-t}).
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0)
        model = builder.build()
        for t in (0.5, 1.5, 4.0):
            assert expected_accumulated_reward(model, t) == pytest.approx(
                2.0 * (1.0 - np.exp(-t)), rel=1e-8)

    def test_accumulated_reward_time_zero(self):
        model = MarkovRewardModel([[0.0]], rewards=[3.0])
        assert expected_accumulated_reward(model, 0.0) == 0.0

    def test_accumulated_reward_static_chain(self):
        model = MarkovRewardModel(np.zeros((2, 2)), rewards=[3.0, 1.0],
                                  initial_distribution=[0.5, 0.5])
        assert expected_accumulated_reward(model, 2.0) == pytest.approx(4.0)

    def test_instantaneous_reward(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0)
        model = builder.build()
        t = 1.3
        assert expected_instantaneous_reward(model, t) == pytest.approx(
            2.0 * np.exp(-t), rel=1e-9)

    def test_reward_override(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0)
        model = builder.build()
        value = expected_instantaneous_reward(model, 1.0,
                                              rewards=[10.0, 0.0])
        assert value == pytest.approx(10.0 * np.exp(-1.0), rel=1e-9)

    def test_accumulated_reward_linear_in_scale(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=4.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 2.0)
        model = builder.build()
        base = expected_accumulated_reward(model, 3.0)
        doubled = expected_accumulated_reward(
            model.scaled_rewards(2.0), 3.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)
