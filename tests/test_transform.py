"""Unit tests for the Theorem-1 reduction and the duality transform."""

import numpy as np
import pytest

from repro.ctmc import ModelBuilder
from repro.errors import RewardError
from repro.mc.transform import (amalgamated_until_reduction, dual_model,
                                until_reduction)


@pytest.fixture
def diamond():
    """a -> {goal, bad, b}; b -> goal.  phi = {a, b}, psi = {goal}."""
    builder = ModelBuilder()
    builder.add_state("a", labels=("phi",), reward=1.0)
    builder.add_state("b", labels=("phi",), reward=2.0)
    builder.add_state("goal", labels=("psi",), reward=3.0)
    builder.add_state("bad", reward=4.0)
    builder.add_transition("a", "b", 1.0)
    builder.add_transition("a", "goal", 2.0)
    builder.add_transition("a", "bad", 1.0)
    builder.add_transition("b", "goal", 5.0)
    builder.add_transition("goal", "a", 7.0)
    builder.add_transition("bad", "a", 7.0)
    return builder.build(initial_state="a")


class TestUntilReduction:
    def test_decided_states_become_absorbing(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.is_absorbing(2)
        assert reduced.is_absorbing(3)
        assert not reduced.is_absorbing(0)

    def test_decided_states_lose_reward(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.reward(2) == 0.0
        assert reduced.reward(3) == 0.0
        assert reduced.reward(0) == 1.0
        assert reduced.reward(1) == 2.0

    def test_transient_transitions_preserved(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.rate(0, 1) == 1.0
        assert reduced.rate(1, 2) == 5.0

    def test_indices_and_labels_preserved(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.num_states == diamond.num_states
        assert reduced.states_with("psi") == frozenset({2})

    def test_original_untouched(self, diamond):
        until_reduction(diamond, {0, 1}, {2})
        assert not diamond.is_absorbing(2)
        assert diamond.reward(2) == 3.0

    def test_phi_and_psi_overlap(self, diamond):
        # States in both phi and psi are still absorbed (psi wins).
        reduced = until_reduction(diamond, {0, 1, 2}, {2})
        assert reduced.is_absorbing(2)


class TestAmalgamation:
    def test_case_study_shape(self, adhoc_reduced):
        # "three transient and two absorbing states" (Section 5.4).
        model = adhoc_reduced.model
        assert model.num_states == 5
        absorbing = [s for s in range(5) if model.is_absorbing(s)]
        assert len(absorbing) == 2
        assert adhoc_reduced.goal_state in absorbing

    def test_case_study_uniformization_rate(self, adhoc_reduced):
        # lambda * t = 19.5 * 24 = 468 reproduces Table 2's N column.
        assert adhoc_reduced.model.max_exit_rate == pytest.approx(19.5)

    def test_rates_into_amalgamated_states_accumulate(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        model = reduction.model
        goal = reduction.goal_state
        source = reduction.state_map[0]
        assert model.rate(source, goal) == 2.0

    def test_probabilities_match_unamalgamated(self, diamond):
        from repro.algorithms import SericolaEngine
        engine = SericolaEngine(epsilon=1e-11)
        t, r = 1.5, 2.0
        plain = until_reduction(diamond, {0, 1}, {2})
        full = engine.joint_probability_vector(plain, t, r, [2])
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        small = engine.joint_probability_vector(
            reduction.model, t, r, [reduction.goal_state])
        lifted = reduction.lift(small, diamond.num_states)
        assert np.allclose(lifted[[0, 1]], full[[0, 1]], atol=1e-9)

    def test_lift_roundtrip(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        vector = np.arange(reduction.model.num_states, dtype=float)
        lifted = reduction.lift(vector, diamond.num_states)
        for original, reduced in reduction.state_map.items():
            assert lifted[original] == vector[reduced]

    def test_empty_psi(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, set())
        assert reduction.goal_state is None

    def test_initial_distribution_mapped(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        alpha = reduction.model.initial_distribution
        assert alpha[reduction.state_map[0]] == 1.0


class TestDuality:
    def test_rates_divided_by_reward(self, diamond):
        dual = dual_model(diamond)
        assert dual.rate(0, 1) == pytest.approx(1.0 / 1.0)
        assert dual.rate(1, 2) == pytest.approx(5.0 / 2.0)
        assert dual.rate(3, 0) == pytest.approx(7.0 / 4.0)

    def test_rewards_inverted(self, diamond):
        dual = dual_model(diamond)
        assert dual.reward(1) == pytest.approx(0.5)
        assert dual.reward(3) == pytest.approx(0.25)

    def test_involution(self, diamond):
        double = dual_model(dual_model(diamond))
        assert np.allclose(double.rate_matrix.toarray(),
                           diamond.rate_matrix.toarray())
        assert np.allclose(double.rewards, diamond.rewards)

    def test_zero_reward_transient_state_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0)
        with pytest.raises(RewardError, match="positive rewards"):
            dual_model(builder.build())

    def test_zero_reward_absorbing_state_allowed(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("sink", reward=0.0)
        builder.add_transition("a", "sink", 1.0)
        dual = dual_model(builder.build())
        assert dual.rate(0, 1) == pytest.approx(0.5)
        assert dual.reward(1) == 0.0

    def test_duality_swaps_time_and_reward(self, diamond):
        """P(phi U^{<=t}_{<=r} psi) on M == P(phi U^{<=r}_{<=t} psi)
        on the dual -- the theorem the P2 procedure rests on."""
        from repro.algorithms import SericolaEngine
        engine = SericolaEngine(epsilon=1e-11)
        reduced = until_reduction(diamond, {0, 1}, {2})
        dual = dual_model(reduced)
        t, r = 1.3, 2.1
        original = engine.joint_probability_vector(reduced, t, r, [2])
        swapped = engine.joint_probability_vector(dual, r, t, [2])
        assert np.allclose(original[[0, 1]], swapped[[0, 1]], atol=1e-9)


# ----------------------------------------------------------------------
# absorbing rows on CSR arrays, against dense NumPy
# ----------------------------------------------------------------------

def _impulse_chain():
    """Impulses on two rows, one of them rewarded (absorbed first)."""
    builder = ModelBuilder()
    builder.add_state("a", labels=("phi",), reward=0.0)
    builder.add_state("b", labels=("phi",), reward=1.0)
    builder.add_state("c", labels=("psi",), reward=2.0)
    builder.add_state("d", labels=("phi",), reward=0.0)
    builder.add_transition("a", "b", 0.8, impulse=1.0)
    builder.add_transition("a", "d", 0.3, impulse=2.0)
    builder.add_transition("a", "c", 0.1)
    builder.add_transition("b", "c", 1.2, impulse=1.0)
    builder.add_transition("c", "a", 0.5, impulse=2.0)
    builder.add_transition("d", "a", 0.7, impulse=3.0)
    builder.add_transition("d", "c", 0.4)
    return builder.build(initial_state="a")


def _absorb_cases():
    from repro.models.adhoc import adhoc_model
    from repro.models.workloads import grid_mrm
    adhoc = adhoc_model()
    grid = grid_mrm(12, 12)
    return [
        pytest.param(adhoc,
                     adhoc.states_with("call_idle")
                     | adhoc.states_with("doze"),
                     adhoc.states_with("call_initiated"), id="q3"),
        pytest.param(grid, set(range(0, grid.num_states, 3)), {5, 17},
                     id="grid"),
        pytest.param(_impulse_chain(), {0, 1, 3}, {2}, id="impulse"),
    ]


@pytest.mark.parametrize("model, phi, psi", _absorb_cases())
class TestAbsorbRows:
    """Theorem 1 and the ``r = 0`` restriction zero rows by array
    masks; both must equal the dense construction entry for entry and
    stay canonical CSR (the model fingerprint hashes the arrays)."""

    def test_absorb_rows_matches_dense(self, model, phi, psi):
        from repro.ctmc.ctmc import absorb_rows
        rows = np.zeros(model.num_states, dtype=bool)
        rows[sorted(psi)] = True
        absorbed = absorb_rows(model.rate_matrix, rows)
        dense = model.rate_matrix.toarray()
        dense[rows] = 0.0
        np.testing.assert_array_equal(absorbed.toarray(), dense)
        assert absorbed.has_canonical_format

    def test_until_reduction_matches_dense(self, model, phi, psi):
        reduced = until_reduction(model, phi, psi)
        absorbing = np.array([s in psi or s not in phi
                              for s in range(model.num_states)])
        rates = model.rate_matrix.toarray()
        rates[absorbing] = 0.0
        impulses = model.impulse_matrix.toarray()
        impulses[absorbing] = 0.0
        np.testing.assert_array_equal(reduced.rate_matrix.toarray(),
                                      rates)
        np.testing.assert_array_equal(reduced.impulse_matrix.toarray(),
                                      impulses)
        np.testing.assert_array_equal(
            reduced.rewards, np.where(absorbing, 0.0, model.rewards))
        assert reduced.rate_matrix.has_canonical_format

    def test_zero_reward_restriction_matches_dense(self, model, phi,
                                                   psi):
        from repro.algorithms.erlang import _zero_reward_restriction
        n = model.num_states
        indicator = np.zeros(n)
        indicator[sorted(psi)] = 1.0
        chain, masked = _zero_reward_restriction(model, indicator)
        positive = model.rewards > 0.0
        rates = model.rate_matrix.toarray()
        rates[positive] = 0.0
        expected_mask = np.where(positive, 0.0, indicator)
        if model.has_impulse_rewards:
            moved = model.impulse_matrix.toarray() > 0.0
            grown = np.zeros((n + 1, n + 1))
            grown[:n, :n] = np.where(moved, 0.0, rates)
            grown[:n, n] = np.where(moved, rates, 0.0).sum(axis=1)
            rates = grown
            expected_mask = np.append(expected_mask, 0.0)
        np.testing.assert_array_equal(chain.rate_matrix.toarray(), rates)
        np.testing.assert_array_equal(masked, expected_mask)
        assert chain.rate_matrix.has_canonical_format
