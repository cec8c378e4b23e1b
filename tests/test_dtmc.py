"""Unit tests for the embedded DTMC and unbounded reachability."""

import numpy as np
import pytest

from repro.ctmc import CTMC, ModelBuilder
from repro.numerics.dtmc import embedded_dtmc, reachability_probabilities


class TestEmbedded:
    def test_rows_are_stochastic(self):
        rates = np.array([[0.0, 1.0, 3.0],
                          [2.0, 0.0, 2.0],
                          [0.0, 0.0, 0.0]])
        jump = embedded_dtmc(CTMC(rates))
        assert np.allclose(np.asarray(jump.sum(axis=1)).ravel(), 1.0)

    def test_jump_probabilities(self):
        rates = np.array([[0.0, 1.0, 3.0],
                          [0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0]])
        jump = embedded_dtmc(CTMC(rates))
        assert jump[0, 1] == pytest.approx(0.25)
        assert jump[0, 2] == pytest.approx(0.75)

    def test_absorbing_states_self_loop(self):
        rates = np.array([[0.0, 1.0], [0.0, 0.0]])
        jump = embedded_dtmc(CTMC(rates))
        assert jump[1, 1] == 1.0


class TestReachability:
    def gamblers_ruin(self, p_up):
        """Random walk on 0..4 with absorbing ends."""
        builder = ModelBuilder()
        for i in range(5):
            builder.add_state(f"n{i}")
        for i in range(1, 4):
            builder.add_transition(i, i + 1, p_up)
            builder.add_transition(i, i - 1, 1.0 - p_up)
        return builder.build(initial_state=2)

    def test_symmetric_gamblers_ruin(self):
        model = self.gamblers_ruin(0.5)
        everything = set(range(5))
        probs = reachability_probabilities(model, everything, {4})
        assert np.allclose(probs, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_biased_gamblers_ruin(self):
        p = 2.0 / 3.0
        model = self.gamblers_ruin(p)
        everything = set(range(5))
        probs = reachability_probabilities(model, everything, {4})
        # Classic formula with ratio q/p = 1/2.
        ratio = (1.0 - p) / p
        expected = [(1 - ratio ** k) / (1 - ratio ** 4) for k in range(5)]
        assert np.allclose(probs, expected)

    def test_rates_do_not_matter(self):
        # Unbounded reachability only sees the jump chain: scaling all
        # rates of a state must not change it.
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        builder.add_state("c")
        builder.add_transition("a", "b", 100.0)
        builder.add_transition("a", "c", 300.0)
        model = builder.build()
        probs = reachability_probabilities(model, {0, 1, 2}, {2})
        assert probs[0] == pytest.approx(0.75)

    def test_phi_constrains_paths(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("blocked")
        builder.add_state("goal")
        builder.add_transition("a", "blocked", 1.0)
        builder.add_transition("a", "goal", 1.0)
        builder.add_transition("blocked", "goal", 1.0)
        model = builder.build()
        # Without passing through 'blocked', only the direct jump counts.
        probs = reachability_probabilities(model, {0}, {2})
        assert probs[0] == pytest.approx(0.5)

    def test_psi_state_has_probability_one(self):
        model = self.gamblers_ruin(0.5)
        probs = reachability_probabilities(model, set(), {2})
        assert probs[2] == 1.0
        assert probs[1] == 0.0
