"""Unit tests for the uniformisation-based transient analyses."""

import numpy as np
import pytest
import scipy.linalg

from repro.ctmc import CTMC, MarkovRewardModel, ModelBuilder
from repro.errors import NumericalError
from repro.mc.reward_op import cumulative_reward_vector
from repro.numerics.uniformization import (
    accumulated_reward_vector, expected_accumulated_reward,
    expected_instantaneous_reward, transient_distribution,
    transient_matrix, transient_target_probabilities,
    transient_target_probabilities_sweep)


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

    def test_column_block_matches_columns_and_matrix(self):
        chain = random_ctmc(5, 24)
        t = 1.1
        block = np.zeros((5, 3))
        block[[0, 2], 0] = 1.0
        block[1, 1] = 1.0
        block[[2, 3, 4], 2] = 1.0
        together = transient_target_probabilities(chain, t, block)
        assert together.shape == (5, 3)
        for j in range(3):
            single = transient_target_probabilities(chain, t, block[:, j])
            # A block product may round differently from the vector one.
            np.testing.assert_allclose(together[:, j], single,
                                       rtol=0, atol=1e-15)
        np.testing.assert_allclose(together, transient_matrix(chain, t)
                                   @ block, rtol=0, atol=1e-13)

    def test_stats_plumbing(self, ledger):
        # Every view of the series loop counts one product per step
        # against the engine it runs for.
        chain = random_ctmc(4, 23)
        model = MarkovRewardModel(chain.rate_matrix,
                                  rewards=[1.0, 0.0, 2.0, 0.5])
        views = [
            lambda: transient_distribution(chain, 1.3,
                                           metrics_engine="test"),
            lambda: transient_matrix(chain, 1.3, metrics_engine="test"),
            lambda: transient_target_probabilities_sweep(
                chain, [0.4, 1.3], np.ones(4), metrics_engine="test"),
            lambda: accumulated_reward_vector(model, 1.3,
                                              metrics_engine="test"),
            lambda: expected_accumulated_reward(model, 1.3,
                                                metrics_engine="test"),
        ]
        before = 0
        for view in views:
            view()
            stats = ledger("test")
            assert stats["matvec_count"] > before
            assert stats["propagation_steps"] == stats["matvec_count"]
            before = stats["matvec_count"]
        # Without an engine to count against, nothing is counted.
        transient_distribution(chain, 1.3)
        expected_accumulated_reward(model, 1.3)
        assert ledger() == ledger("test")


def _static_chain():
    return MarkovRewardModel(np.zeros((2, 2)), rewards=[3.0, 1.0],
                             initial_distribution=[0.5, 0.5])


def _live_chain():
    return MarkovRewardModel(random_ctmc(3, 31).rate_matrix,
                             rewards=[1.0, 0.0, 2.0])


@pytest.mark.parametrize("chain", [_static_chain, _live_chain],
                         ids=["static", "live"])
@pytest.mark.parametrize("t", [-1.0, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("entry", [
    lambda m, t: transient_distribution(m, t),
    lambda m, t: transient_matrix(m, t),
    lambda m, t: transient_target_probabilities(m, t, np.ones(m.num_states)),
    lambda m, t: expected_accumulated_reward(m, t),
    lambda m, t: cumulative_reward_vector(m, t),
], ids=["distribution", "matrix", "target", "accumulated", "cumulative"])
def test_invalid_time_bound_rejected(entry, t, chain):
    with pytest.raises(NumericalError, match="must be >= 0"):
        entry(chain(), t)


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

    @pytest.mark.parametrize("rate", np.logspace(-15, -3, 13))
    def test_accumulated_reward_continuous_at_tiny_rates(self, rate):
        """A reward-2 state leaving at *rate* for a reward-1 sink:
        ``E[Y_1] = 1 + (1 - e^{-rate}) / rate`` from the first state, 1
        from the sink -- even when ``rate * t`` is so small that the
        Poisson window is ``{0}``."""
        model = MarkovRewardModel([[0.0, rate], [0.0, 0.0]],
                                  rewards=[2.0, 1.0])
        exact = [1.0 - np.expm1(-rate) / rate, 1.0]
        np.testing.assert_allclose(accumulated_reward_vector(model, 1.0),
                                   exact, rtol=1e-12, atol=0.0)
