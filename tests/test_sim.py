"""Unit and statistical tests for the Monte-Carlo simulator."""

import numpy as np
import pytest

from repro.errors import NumericalError
from repro.logic.intervals import Interval
from repro.sim import (PathSimulator, estimate_joint_probability,
                       estimate_until_probability,
                       estimate_accumulated_reward_cdf)
from repro.sim.estimate import Estimate

MU = 0.7


class TestPaths:
    def test_path_structure(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=1)
        path = simulator.sample_path(5.0)
        assert path.steps[0].state == 0
        assert path.steps[0].entry_time == 0.0
        for earlier, later in zip(path.steps, path.steps[1:]):
            assert later.entry_time == pytest.approx(earlier.exit_time)
        assert path.steps[-1].exit_time == pytest.approx(5.0)

    def test_rewards_accumulate_along_path(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=2)
        path = simulator.sample_path(3.0)
        manual = sum(step.sojourn * flip_flop.reward(step.state)
                     for step in path.steps)
        assert path.final_reward == pytest.approx(manual)

    def test_reward_before_is_prefix_sum(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=3)
        path = simulator.sample_path(3.0)
        running = 0.0
        for step in path.steps:
            assert step.reward_before == pytest.approx(running)
            running += step.sojourn * flip_flop.reward(step.state)

    def test_state_at(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=4)
        path = simulator.sample_path(4.0)
        step = path.steps[0]
        assert path.state_at(step.entry_time) == step.state
        assert path.state_at(4.0) == path.steps[-1].state

    def test_reward_at(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=5)
        path = simulator.sample_path(4.0)
        assert path.reward_at(4.0, flip_flop.rewards) == pytest.approx(
            path.final_reward)
        assert path.reward_at(0.0, flip_flop.rewards) == 0.0

    def test_absorbing_path_ends(self, two_state_absorbing):
        simulator = PathSimulator(two_state_absorbing, seed=6)
        path = simulator.sample_path(1000.0)
        assert len(path.steps) <= 2

    def test_reproducibility(self, flip_flop):
        first = PathSimulator(flip_flop, seed=7).sample_path(3.0)
        second = PathSimulator(flip_flop, seed=7).sample_path(3.0)
        assert [s.state for s in first.steps] == \
            [s.state for s in second.steps]

    def test_negative_horizon_rejected(self, flip_flop):
        with pytest.raises(NumericalError):
            PathSimulator(flip_flop, seed=0).sample_path(-1.0)

    def test_initial_state_override(self, flip_flop):
        simulator = PathSimulator(flip_flop, seed=8)
        path = simulator.sample_path(1.0, initial_state=1)
        assert path.steps[0].state == 1

    def test_first_hit(self, two_state_absorbing):
        simulator = PathSimulator(two_state_absorbing, seed=9)
        path = simulator.sample_path(100.0)
        hit = path.first_hit({1})
        assert hit is not None and hit.state == 1
        assert path.first_hit({17}) is None


class TestEstimate:
    def test_interval_arithmetic(self):
        estimate = Estimate(value=0.5, half_width=0.1, samples=100)
        assert estimate.lower == 0.4
        assert estimate.upper == 0.6
        assert estimate.covers(0.45)
        assert not estimate.covers(0.7)

    def test_clamps_to_unit_interval(self):
        estimate = Estimate(value=0.01, half_width=0.1, samples=10)
        assert estimate.lower == 0.0

    def test_str(self):
        text = str(Estimate(value=0.5, half_width=0.01, samples=42))
        assert "42" in text


class TestStatisticalAgreement:
    def test_joint_probability_covers_exact(self, two_state_absorbing):
        t, r = 3.0, 1.2
        exact = 1.0 - np.exp(-MU * r)
        estimate = estimate_joint_probability(
            two_state_absorbing, t, r, {1}, samples=20_000, seed=11)
        assert estimate.covers(exact)

    def test_until_estimate_covers_exact(self, two_state_absorbing):
        t = 2.0
        exact = 1.0 - np.exp(-MU * t)
        estimate = estimate_until_probability(
            two_state_absorbing, {0}, {1}, Interval.upto(t),
            Interval.unbounded(), samples=20_000, seed=12)
        assert estimate.covers(exact)

    def test_until_with_reward_bound(self, two_state_absorbing):
        t, r = 3.0, 1.2
        exact = 1.0 - np.exp(-MU * r)
        estimate = estimate_until_probability(
            two_state_absorbing, {0}, {1}, Interval.upto(t),
            Interval.upto(r), samples=20_000, seed=13)
        assert estimate.covers(exact)

    def test_reward_cdf_covers_sericola(self, three_level_chain):
        from repro.algorithms import SericolaEngine
        from repro.mc.measures import performability_distribution
        t, r = 2.0, 3.0
        exact = performability_distribution(
            three_level_chain, t, r, engine=SericolaEngine(epsilon=1e-11))
        estimate = estimate_accumulated_reward_cdf(
            three_level_chain, t, r, samples=20_000, seed=14)
        assert estimate.covers(exact)

    def test_case_study_q3_by_simulation(self, adhoc):
        """End-to-end: simulate the *original* 9-state station model
        and check the Q3 path formula directly on sampled paths."""
        phi = set(adhoc.states_with("call_idle")) \
            | set(adhoc.states_with("doze"))
        psi = set(adhoc.states_with("call_initiated"))
        estimate = estimate_until_probability(
            adhoc, phi, psi, Interval.upto(24.0), Interval.upto(600.0),
            samples=4_000, seed=15)
        from repro.algorithms import SericolaEngine
        from repro.mc.transform import until_reduction
        reduced = until_reduction(adhoc, phi, psi)
        exact = SericolaEngine(epsilon=1e-9).joint_probability_vector(
            reduced, 24.0, 600.0, psi)[0]
        assert estimate.covers(exact)

    def test_unbounded_until_needs_horizon(self, flip_flop):
        with pytest.raises(ValueError, match="horizon"):
            estimate_until_probability(
                flip_flop, {0}, {1}, Interval.unbounded(),
                Interval.unbounded(), samples=10)
