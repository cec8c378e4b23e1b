"""Tests for the M/M/1/K-with-breakdowns SRN model (impulse rewards
through the whole SRN -> MRM -> engines pipeline)."""

import numpy as np
import pytest

from repro.algorithms import DiscretizationEngine
from repro.mc import ModelChecker
from repro.models.queueing import mm1_breakdown_model
from repro.sim import estimate_joint_probability


@pytest.fixture(scope="module")
def queue():
    return mm1_breakdown_model(capacity=3, repair_cost=10.0)


class TestStructure:
    def test_state_count(self, queue):
        assert queue.num_states == 2 * 4

    def test_impulses_present(self, queue):
        assert queue.has_impulse_rewards
        # Every repair transition carries cost 10.
        impulses = queue.impulse_matrix
        assert impulses.nnz == 4  # one repair per queue length
        assert np.allclose(impulses.data, 10.0)

    def test_rewards(self, queue):
        busy = queue.states_with("busy")
        for s in range(queue.num_states):
            expected = 3.0 if s in busy else 0.0
            assert queue.reward(s) == expected

    def test_capacity_inhibitor(self, queue):
        # The arrival transition (rate 1.0) is inhibited in full
        # states: their exit rates are exactly serve+fail (up) and
        # repair (down).
        full = queue.states_with("full")
        assert len(full) == 2  # up and down variants
        up = queue.states_with("up")
        for s in full & up:
            assert queue.exit_rates[s] == pytest.approx(2.0 + 0.05)
        for s in full - up:
            assert queue.exit_rates[s] == pytest.approx(0.5)

    def test_service_requires_up(self, queue):
        # A down state with jobs can only be left by repair or
        # arrival: never directly to a state with fewer jobs.
        down = queue.states_with("down")
        idle = queue.states_with("idle")
        up = queue.states_with("up")
        for s in down - idle:
            for target in queue.successors(s):
                if target in down:
                    continue  # arrival while down
                assert target in up  # repair keeps the queue length


class TestAnalysis:
    def test_cost_bounded_service_outage(self, queue):
        """P3-type query on an impulse model: reach 'full' within
        t = 10 with total cost (energy + repairs) below 20."""
        checker = ModelChecker(
            queue, engine=DiscretizationEngine(step=1.0 / 64))
        result = checker.check("P>=0 [ true U[0,10][0,20] full ]")
        initial = int(np.argmax(queue.initial_distribution))
        value = result.probability_of(initial)
        assert 0.0 < value < 1.0

    def test_numeric_vs_simulation(self, queue):
        t, r = 6.0, 15.0
        target = set(queue.states_with("busy"))
        engine = DiscretizationEngine(step=1.0 / 64)
        initial = int(np.argmax(queue.initial_distribution))
        numeric = engine.joint_probability_vector(queue, t, r,
                                                  target)[initial]
        estimate = estimate_joint_probability(
            queue, t, r, target, samples=20_000, seed=5,
            initial_state=initial)
        assert abs(numeric - estimate.value) <= \
            estimate.half_width + 0.01

    def test_long_run_energy(self, queue):
        from repro.mc.measures import long_run_reward_rate
        rates = long_run_reward_rate(queue)
        # Busy some of the time: strictly between 0 and 3.
        assert np.all(rates > 0.0)
        assert np.all(rates < 3.0)
