"""Unit tests for the pseudo-Erlang engine."""

import numpy as np
import pytest

from repro.algorithms import clear_caches
from repro.algorithms.erlang import (ErlangEngine, erlang_expanded_model,
                                     zero_reward_bound_sweep)
from repro.ctmc import ModelBuilder
from repro.errors import NumericalError
from repro.obs import OBS

MU = 0.7


class TestExpansion:
    def test_size(self, two_state_absorbing):
        expanded, barrier = erlang_expanded_model(two_state_absorbing,
                                                  r=2.0, phases=4)
        assert expanded.num_states == 2 * 4 + 1
        assert barrier == 8

    def test_phase_rates(self, two_state_absorbing):
        r, k = 2.0, 4
        expanded, barrier = erlang_expanded_model(two_state_absorbing,
                                                  r=r, phases=k)
        # State a (index 0, reward 1): phase advance at rate k/r = 2.
        assert expanded.rate(0, 1) == pytest.approx(k / r)
        # Last phase of a feeds the barrier.
        assert expanded.rate(k - 1, barrier) == pytest.approx(k / r)
        # Zero-reward state b never advances phases.
        assert expanded.rate(k, k + 1) == 0.0

    def test_original_transitions_copied_per_phase(
            self, two_state_absorbing):
        expanded, _ = erlang_expanded_model(two_state_absorbing,
                                            r=2.0, phases=3)
        for phase in range(3):
            assert expanded.rate(phase, 3 + phase) == pytest.approx(MU)

    def test_barrier_absorbing(self, two_state_absorbing):
        expanded, barrier = erlang_expanded_model(two_state_absorbing,
                                                  r=2.0, phases=2)
        assert expanded.is_absorbing(barrier)

    def test_max_exit_rate_growth(self, two_state_absorbing):
        # The paper: the uniformisation rate grows additively with
        # k * max(rho) / r.
        r, k = 2.0, 16
        expanded, _ = erlang_expanded_model(two_state_absorbing, r, k)
        assert expanded.max_exit_rate == pytest.approx(MU + k / r)

    def test_invalid_parameters(self, two_state_absorbing):
        with pytest.raises(NumericalError):
            erlang_expanded_model(two_state_absorbing, r=2.0, phases=0)
        with pytest.raises(NumericalError):
            erlang_expanded_model(two_state_absorbing, r=0.0, phases=4)


class TestApproximation:
    def test_k1_closed_form(self, two_state_absorbing):
        # k = 1: the bound is Exp(1/r); from state a the goal is hit
        # before the bound and before t iff T < min(Exp(1/r), t) with
        # the reward clock running at rate 1/r while in a:
        # P = mu/(mu + 1/r) * (1 - e^{-(mu + 1/r) t}).
        t, r = 3.0, 1.2
        engine = ErlangEngine(phases=1, epsilon=1e-13)
        computed = engine.joint_probability_vector(
            two_state_absorbing, t, r, [1])[0]
        rate = MU + 1.0 / r
        expected = (MU / rate) * (1.0 - np.exp(-rate * t))
        assert computed == pytest.approx(expected, abs=1e-10)

    def test_monotone_convergence_from_below(self, two_state_absorbing):
        # Table 3 of the paper: values increase towards the exact one.
        t, r = 3.0, 1.2
        exact = 1.0 - np.exp(-MU * r)
        values = [ErlangEngine(phases=k).joint_probability_vector(
            two_state_absorbing, t, r, [1])[0]
            for k in (1, 4, 16, 64, 256)]
        assert all(np.diff(values) > 0.0)
        assert all(value < exact for value in values)
        assert values[-1] == pytest.approx(exact, abs=2e-3)

    def test_error_roughly_halves_per_doubling(self, two_state_absorbing):
        t, r = 3.0, 1.2
        exact = 1.0 - np.exp(-MU * r)
        errors = [exact - ErlangEngine(phases=k).joint_probability_vector(
            two_state_absorbing, t, r, [1])[0]
            for k in (16, 32, 64)]
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.35)
        assert errors[1] / errors[2] == pytest.approx(2.0, abs=0.35)

    def test_zero_reward_model_is_exact(self):
        builder = ModelBuilder()
        builder.add_state("x")
        builder.add_state("y")
        builder.add_transition("x", "y", 2.0)
        model = builder.build()
        engine = ErlangEngine(phases=4, epsilon=1e-13)
        joint = engine.joint_probability_vector(model, 1.0, 0.5, [1])
        assert joint[0] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-10)

    def test_expanded_size_recorded(self, two_state_absorbing):
        clear_caches()
        with OBS.capture():
            ErlangEngine(phases=8).joint_probability_vector(
                two_state_absorbing, 1.0, 1.0, [1])
            sizes = [span.attributes.get("expanded_states")
                     for root in OBS.tracer.roots for span in root.walk()
                     if span.name == "sweep_unit"]
        assert sizes == [17]
        expanded, _ = erlang_expanded_model(two_state_absorbing, 1.0, 8)
        assert expanded.num_states == 17

    def test_invalid_phases(self):
        with pytest.raises(NumericalError):
            ErlangEngine(phases=0)


class TestZeroRewardBound:
    def test_pure_zero_reward_path(self):
        # x(0) -> y(0) -> z(1): Y_t = 0 while in {x, y}.
        builder = ModelBuilder()
        builder.add_state("x", reward=0.0)
        builder.add_state("y", reward=0.0)
        builder.add_state("z", reward=1.0)
        builder.add_transition("x", "y", 1.0)
        builder.add_transition("y", "z", 1.0)
        model = builder.build()
        t = 2.0
        vector = zero_reward_bound_sweep(model, [t],
                                         np.array([0.0, 1.0, 0.0]))[0]
        # In y at t without having reached z: exactly one Poisson(t)
        # event in a 2-phase Erlang race = t e^{-t}.
        assert vector[0] == pytest.approx(t * np.exp(-t), abs=1e-10)

    def test_engine_uses_exact_zero_bound(self, two_state_absorbing):
        engine = ErlangEngine(phases=2)
        joint = engine.joint_probability_vector(two_state_absorbing,
                                                4.0, 0.0, [1])
        assert joint[0] == pytest.approx(0.0, abs=1e-12)
        assert joint[1] == pytest.approx(1.0, abs=1e-12)
