"""Tests for the expected-reward operator ``R <|b [ . ]``."""

import numpy as np
import pytest
import scipy.linalg

from repro.ctmc import ModelBuilder
from repro.errors import FormulaError, ParseError
from repro.logic import ast, parse_formula
from repro.mc import ModelChecker
from repro.obs import OBS
from repro.mc.reward_op import (cumulative_reward_vector,
                                instantaneous_reward_vector,
                                reachability_reward_vector)

MU = 0.7


class TestParsing:
    def test_instantaneous(self):
        formula = parse_formula("R<=5 [ I=2.5 ]")
        assert formula == ast.Reward(
            "<=", 5.0, ast.InstantaneousReward(2.5))

    def test_cumulative(self):
        formula = parse_formula("R>0.5 [ C<=10 ]")
        assert formula == ast.Reward(">", 0.5, ast.CumulativeReward(10.0))

    def test_reachability(self):
        formula = parse_formula("R<3 [ F failed & !up ]")
        query = formula.query
        assert isinstance(query, ast.ReachabilityReward)
        assert query.operand == ast.And(ast.Atomic("failed"),
                                        ast.Not(ast.Atomic("up")))

    @pytest.mark.parametrize("text", [
        "R<=5 [ I=2.5 ]", "R>0.5 [ C<=10 ]", "R<3 [ F failed ]",
        "R>=100 [ C<=24 ]",
    ])
    def test_round_trip(self, text):
        formula = parse_formula(text)
        assert parse_formula(str(formula)) == formula

    def test_bound_above_one_allowed(self):
        # Reward bounds are not probabilities.
        formula = parse_formula("R<=600 [ C<=24 ]")
        assert formula.bound == 600.0

    def test_negative_bound_rejected(self):
        with pytest.raises(FormulaError):
            ast.Reward("<=", -1.0, ast.CumulativeReward(1.0))

    def test_malformed_query_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("R<=5 [ X a ]")
        with pytest.raises(ParseError):
            parse_formula("R<=5 [ C=3 ]")


class TestInstantaneous:
    def test_closed_form(self, two_state_absorbing):
        t = 1.3
        vector = instantaneous_reward_vector(two_state_absorbing, t)
        assert vector[0] == pytest.approx(np.exp(-MU * t), abs=1e-10)
        assert vector[1] == 0.0

    def test_time_zero_is_reward_vector(self, three_level_chain):
        vector = instantaneous_reward_vector(three_level_chain, 0.0)
        assert np.allclose(vector, three_level_chain.rewards)


class TestCumulative:
    def test_closed_form(self, two_state_absorbing):
        t = 2.0
        vector = cumulative_reward_vector(two_state_absorbing, t)
        assert vector[0] == pytest.approx((1.0 - np.exp(-MU * t)) / MU,
                                          rel=1e-8)
        assert vector[1] == 0.0

    def test_matches_van_loan_integral(self, three_level_chain):
        # Van Loan: expm([[Q, rho], [0, 0]] t) holds
        # int_0^t e^{Qu} rho du in its last column.
        t = 1.7
        n = three_level_chain.num_states
        augmented = np.zeros((n + 1, n + 1))
        augmented[:n, :n] = three_level_chain.generator_matrix().toarray()
        augmented[:n, n] = three_level_chain.rewards
        reference = scipy.linalg.expm(augmented * t)[:n, n]
        vector = cumulative_reward_vector(three_level_chain, t)
        np.testing.assert_allclose(vector, reference, rtol=0, atol=1e-10)

    def test_series_span(self, three_level_chain):
        checker = ModelChecker(three_level_chain)
        with OBS.capture():
            checker.check("R<=5 [ C<=1.7 ]")
            series = [s for s in OBS.tracer.spans()
                      if s.name == "uniformisation_series"]
        span, = series
        attrs = span.attributes
        assert attrs["kind"] == "accumulated_reward"
        assert 0 < attrs["steps"] <= attrs["depth"]
        assert attrs["residual"] == 0.0

    def test_static_chain(self):
        from repro.ctmc import MarkovRewardModel
        model = MarkovRewardModel(np.zeros((2, 2)), rewards=[3.0, 1.0])
        assert np.allclose(cumulative_reward_vector(model, 2.0),
                           [6.0, 2.0])


class TestReachability:
    def test_closed_form(self, two_state_absorbing):
        # Expected reward until absorption: E[T] * rho = 1/mu.
        vector = reachability_reward_vector(two_state_absorbing, {1})
        assert vector[0] == pytest.approx(1.0 / MU, rel=1e-10)
        assert vector[1] == 0.0

    def test_unreachable_target_is_infinite(self, two_state_absorbing):
        vector = reachability_reward_vector(two_state_absorbing, {0})
        # From the absorbing state b, 'a' is never reached.
        assert np.isinf(vector[1])
        assert vector[0] == 0.0

    def test_probabilistic_miss_is_infinite(self):
        builder = ModelBuilder()
        builder.add_state("start", reward=2.0)
        builder.add_state("goal", reward=0.0)
        builder.add_state("trap", reward=0.0)
        builder.add_transition("start", "goal", 1.0)
        builder.add_transition("start", "trap", 1.0)
        model = builder.build()
        vector = reachability_reward_vector(model, {1})
        assert np.isinf(vector[0])

    def test_chain_accumulates(self):
        # a(rho=2, rate 1) -> b(rho=4, rate 2) -> c: expected
        # 2*1 + 4*0.5 = 4.
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("b", reward=4.0)
        builder.add_state("c", labels=("goal",))
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "c", 2.0)
        model = builder.build()
        vector = reachability_reward_vector(model, {2})
        assert vector[0] == pytest.approx(4.0, rel=1e-10)
        assert vector[1] == pytest.approx(2.0, rel=1e-10)


class TestSteadyStateReward:
    def test_parse_and_round_trip(self):
        formula = parse_formula("R<=1.5 [ S ]")
        assert isinstance(formula.query, ast.SteadyStateReward)
        assert parse_formula(str(formula)) == formula

    def test_long_run_rate(self, flip_flop):
        checker = ModelChecker(flip_flop)
        # pi = (0.75, 0.25), rewards (2, 0): long-run rate 1.5.
        result = checker.check("R<=1.5 [ S ]")
        assert result.states == frozenset({0, 1})
        assert result.probability_of(0) == pytest.approx(1.5)
        strict = checker.check("R<1.5 [ S ]")
        assert strict.states == frozenset()


class TestThroughChecker:
    def test_cumulative_through_checker(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing)
        t = 2.0
        expected = (1.0 - np.exp(-MU * t)) / MU
        result = checker.check(f"R<={expected + 0.01} [ C<={t} ]")
        assert 0 in result.states
        assert result.probability_of(0) == pytest.approx(expected,
                                                         rel=1e-8)

    def test_reachability_through_checker(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing)
        result = checker.check("R<2 [ F red ]")
        assert 0 in result.states  # 1/0.7 = 1.43 < 2

    def test_infinite_fails_upper_bounds(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", labels=("goal",))
        builder.add_state("trap")
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("a", "trap", 1.0)
        checker = ModelChecker(builder.build())
        result = checker.check("R<=1000000 [ F goal ]")
        assert 0 not in result.states
        assert 1 in result.states

    def test_nested_in_boolean_formula(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing)
        result = checker.check("green & R<2 [ F red ]")
        assert result.states == frozenset({0})

    def test_case_study_power_budget(self, adhoc):
        """Expected power drawn in 24 h: must lie between the doze
        floor (20 mA) and the all-active ceiling (350 mA)."""
        checker = ModelChecker(adhoc)
        vector = checker.expected_reward_vector(
            ast.CumulativeReward(24.0))
        assert np.all(vector > 20.0 * 24.0)
        assert np.all(vector < 350.0 * 24.0)
        # The battery (750 mAh) does not last the day on average.
        assert np.all(vector > 750.0)
