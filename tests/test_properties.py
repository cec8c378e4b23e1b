"""Property-based tests (hypothesis) for core invariants.

These fuzz the numerical substrate and the logic layer with random
inputs, checking the mathematical invariants that must hold for *any*
model or formula:

* Poisson weights are a probability distribution matching scipy;
* transient distributions remain stochastic and match `expm`;
* the joint distribution is a CDF in r, bounded by the transient
  probability, and consistent across engines;
* the duality transform is an involution and swaps time/reward;
* formulas round-trip through the printer and parser.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from repro.algorithms import ErlangEngine, SericolaEngine
from repro.ctmc import CTMC, MarkovRewardModel
from repro.logic import ast, parse_formula
from repro.logic.intervals import Interval
from repro.mc.transform import dual_model
from repro.numerics.poisson import poisson_weights, right_truncation_point
from repro.numerics.uniformization import (transient_distribution,
                                           transient_target_probabilities)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

rates_strategy = st.floats(min_value=0.05, max_value=20.0,
                           allow_nan=False)


@st.composite
def small_mrms(draw, max_states=5, reward_levels=(0.0, 1.0, 2.5)):
    """Random small MRMs with a decent mix of structure."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                matrix[i, j] = draw(rates_strategy)
    rewards = [draw(st.sampled_from(reward_levels)) for _ in range(n)]
    return MarkovRewardModel(matrix, rewards=rewards)


ap_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("true", "false", "inf"))


@st.composite
def state_formulas(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.builds(ast.Atomic, ap_names),
            st.just(ast.TRUE), st.just(ast.FALSE)))
    choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 0:
        return ast.Not(draw(state_formulas(depth=depth - 1)))
    if choice == 1:
        return ast.And(draw(state_formulas(depth=depth - 1)),
                       draw(state_formulas(depth=depth - 1)))
    if choice == 2:
        return ast.Or(draw(state_formulas(depth=depth - 1)),
                      draw(state_formulas(depth=depth - 1)))
    if choice == 3:
        return ast.Implies(draw(state_formulas(depth=depth - 1)),
                           draw(state_formulas(depth=depth - 1)))
    if choice == 4:
        return draw(st.one_of(
            st.builds(ast.Atomic, ap_names),
            st.just(ast.TRUE)))
    comparison = draw(st.sampled_from(("<", "<=", ">", ">=")))
    bound = draw(st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False))
    if choice == 5:
        return ast.SteadyState(comparison, bound,
                               draw(state_formulas(depth=depth - 1)))
    return ast.Prob(comparison, bound, draw(path_formulas(depth - 1)))


@st.composite
def intervals(draw):
    if draw(st.booleans()):
        return Interval.unbounded()
    lower = draw(st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False))
    width = draw(st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False))
    return Interval(lower, lower + width)


@st.composite
def path_formulas(draw, depth=1):
    time = draw(intervals())
    reward = draw(intervals())
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return ast.Next(draw(state_formulas(depth=depth)), time, reward)
    if kind == 1:
        return ast.Eventually(draw(state_formulas(depth=depth)), time,
                              reward)
    if kind == 2:
        return ast.Globally(draw(state_formulas(depth=depth)), time,
                            reward)
    return ast.Until(draw(state_formulas(depth=depth)),
                     draw(state_formulas(depth=depth)), time, reward)


# ----------------------------------------------------------------------
# numeric properties
# ----------------------------------------------------------------------

class TestPoissonProperties:
    @given(rate=st.floats(min_value=0.0, max_value=3000.0,
                          allow_nan=False),
           epsilon=st.floats(min_value=1e-12, max_value=1e-2))
    @settings(max_examples=60, deadline=None)
    def test_weights_match_scipy(self, rate, epsilon):
        weights = poisson_weights(rate, epsilon=epsilon)
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-9)
        ks = np.arange(weights.left, weights.right + 1)
        # Renormalisation after trimming inflates each weight by at
        # most the discarded tail mass (<= epsilon).
        assert np.allclose(weights.weights,
                           stats.poisson.pmf(ks, rate),
                           atol=max(1e-9, epsilon))

    @given(rate=st.floats(min_value=0.1, max_value=2000.0),
           epsilon=st.floats(min_value=1e-10, max_value=1e-2))
    @settings(max_examples=40, deadline=None)
    def test_truncation_point_definition(self, rate, epsilon):
        n = right_truncation_point(rate, epsilon)
        assert stats.poisson.cdf(n, rate) > 1.0 - epsilon - 1e-12


class TestTransientProperties:
    @given(model=small_mrms(), t=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_distribution_stays_stochastic(self, model, t):
        pi = transient_distribution(model, t, epsilon=1e-12)
        assert pi.min() >= -1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-8)

    @given(model=small_mrms(), t=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_forward_equals_backward(self, model, t):
        indicator = np.zeros(model.num_states)
        indicator[0] = 1.0
        forward = transient_distribution(model, t, epsilon=1e-12)[0]
        backward = transient_target_probabilities(model, t, indicator,
                                                  epsilon=1e-12)
        alpha = model.initial_distribution
        assert float(alpha @ backward) == pytest.approx(forward,
                                                        abs=1e-8)


class TestJointDistributionProperties:
    @given(model=small_mrms(),
           t=st.floats(min_value=0.1, max_value=3.0),
           fraction=st.floats(min_value=0.0, max_value=1.2))
    @settings(max_examples=30, deadline=None)
    def test_joint_is_bounded_and_consistent(self, model, t, fraction):
        r = fraction * model.max_reward * t
        target = set(range(0, model.num_states, 2))
        engine = SericolaEngine(epsilon=1e-10)
        joint = engine.joint_probability_vector(model, t, r, target)
        indicator = np.zeros(model.num_states)
        for s in target:
            indicator[s] = 1.0
        transient = transient_target_probabilities(model, t, indicator,
                                                   epsilon=1e-12)
        assert np.all(joint >= -1e-9)
        assert np.all(joint <= transient + 1e-7)

    @given(model=small_mrms(),
           t=st.floats(min_value=0.1, max_value=2.0),
           fractions=st.tuples(
               st.floats(min_value=0.0, max_value=1.0),
               st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=25, deadline=None)
    def test_joint_monotone_in_r(self, model, t, fractions):
        low = min(fractions) * model.max_reward * t
        high = max(fractions) * model.max_reward * t
        engine = SericolaEngine(epsilon=1e-10)
        target = set(range(model.num_states))
        small = engine.joint_probability_vector(model, t, low, target)
        large = engine.joint_probability_vector(model, t, high, target)
        assert np.all(large >= small - 1e-7)

    @given(model=small_mrms(max_states=4),
           t=st.floats(min_value=0.2, max_value=2.0),
           fraction=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=15, deadline=None)
    def test_sericola_agrees_with_erlang(self, model, t, fraction):
        r = fraction * model.max_reward * t
        assume(r > 0.0)
        # The random Erlang bound has standard deviation r/sqrt(k), so
        # near an *atom* of Y_t (a no-jump trajectory accumulates
        # exactly rho(s) * t, with probability e^{-E(s) t} > 0) the
        # approximation converges only as O(k^{-1/2}) -- e.g. three
        # absorbing states with rho(0) t just above r give an exact
        # Gamma tail of ~0.018 at k = 1024.  The O(1/k) tolerance
        # below is valid at continuity points only, so keep r clear
        # of every atom by several standard deviations.
        sigma = r / 32.0  # k = 1024
        assume(all(abs(r - model.reward(s) * t) > 6.0 * sigma
                   for s in range(model.num_states)))
        target = {0}
        sericola = SericolaEngine(epsilon=1e-10) \
            .joint_probability_vector(model, t, r, target)
        erlang = ErlangEngine(phases=1024) \
            .joint_probability_vector(model, t, r, target)
        # The Erlang error is O(1/k) with a model-dependent constant:
        # away from atoms the observed error halves with every
        # doubling of k, but the constant varies with the rate/reward
        # structure and reaches ~1e-2 at k = 1024 on some generated
        # models.
        assert np.allclose(sericola, erlang, atol=2e-2)


class TestDualityProperties:
    @given(model=small_mrms(reward_levels=(0.5, 1.0, 2.0, 4.0)))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, model):
        double = dual_model(dual_model(model))
        assert np.allclose(double.rate_matrix.toarray(),
                           model.rate_matrix.toarray(), atol=1e-12)
        assert np.allclose(double.rewards, model.rewards, atol=1e-12)

    @given(model=small_mrms(reward_levels=(0.5, 1.0, 3.0)),
           t=st.floats(min_value=0.2, max_value=2.0),
           r=st.floats(min_value=0.2, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_time_reward_swap(self, model, t, r):
        """The duality theorem concerns *hitting* events: on a model
        whose target is absorbing with reward zero (the shape every
        Theorem-1 reduction has), ``Pr{Y_t <= r, X_t = goal}`` is the
        probability of absorption within time t and reward r, and the
        dual swaps the two bounds.  (On arbitrary models the
        instant-of-time joint is *not* duality-invariant.)"""
        rates = model.rate_matrix.tolil(copy=True)
        rates.rows[0] = []
        rates.data[0] = []
        rewards = model.rewards.copy()
        rewards[0] = 0.0
        reduced = MarkovRewardModel(rates.tocsr(), rewards=rewards)
        assume(reduced.max_exit_rate > 0.0)
        engine = SericolaEngine(epsilon=1e-10)
        original = engine.joint_probability_vector(reduced, t, r, {0})
        dual = engine.joint_probability_vector(dual_model(reduced), r,
                                               t, {0})
        assert np.allclose(original, dual, atol=1e-6)


class TestLumpingProperties:
    @given(model=small_mrms())
    @settings(max_examples=25, deadline=None)
    def test_lumping_preserves_transient_probabilities(self, model):
        """For any model, any labelled set's transient probability is
        invariant under the coarsest ordinary lumping."""
        from repro.ctmc.lumping import lump
        result = lump(model)
        t = 1.3
        # Pick a label-respecting target: states labelled 'green'.
        target = model.states_with("green")
        if not target:
            return
        indicator = np.zeros(model.num_states)
        for s in target:
            indicator[s] = 1.0
        direct = transient_target_probabilities(model, t, indicator,
                                                epsilon=1e-12)
        quotient_indicator = np.zeros(result.num_blocks)
        for block in result.quotient.states_with("green"):
            quotient_indicator[block] = 1.0
        quotient = transient_target_probabilities(
            result.quotient, t, quotient_indicator, epsilon=1e-12)
        assert np.allclose(result.lift(quotient), direct, atol=1e-8)

    @given(model=small_mrms())
    @settings(max_examples=25, deadline=None)
    def test_lumping_is_idempotent(self, model):
        from repro.ctmc.lumping import lump
        once = lump(model)
        twice = lump(once.quotient)
        assert twice.num_blocks == once.num_blocks


class TestImpulseProperties:
    @given(model=small_mrms(max_states=3,
                            reward_levels=(0.0, 1.0)),
           t=st.floats(min_value=0.25, max_value=1.5),
           impulse=st.integers(min_value=1, max_value=3))
    # Every path collects reward t from its states plus 3 per jump, so
    # the earlier bound r = 6.375 = 2 * 3 + t sat on an atom (pseudo-
    # Erlang 0.7436 against discretisation 0.8039 from state 0).
    @example(model=MarkovRewardModel(np.array([[0.0, 1.0], [3.0, 0.0]]),
                                     rewards=[1.0, 1.0]),
             t=0.375, impulse=3)
    @settings(max_examples=10, deadline=None)
    def test_discretization_vs_erlang_with_impulses(self, model, t,
                                                    impulse):
        """The two impulse-capable engines agree on random models with
        a uniform impulse on every transition."""
        from repro.algorithms import DiscretizationEngine
        matrix = model.rate_matrix.copy()
        if matrix.nnz == 0:
            return
        impulses = matrix.copy()
        impulses.data = np.full_like(impulses.data, float(impulse))
        spiked = model.with_impulse_rewards(impulses)
        step = 1.0 / 64
        aligned = max(step, round(t / step) * step)
        # The engines agree only at continuity points of the
        # accumulated-reward CDF: the pseudo-Erlang expansion converges
        # in distribution, so an atom at the bound splits its mass
        # across the bound however many phases are used.  With rates
        # in {0, 1} the atoms are k * impulse + {0, aligned}: paths
        # that stay in reward-0 or in reward-1 states.  r sits on the
        # discretisation grid, stepped in eighths until it is at least
        # 1/8 from every atom.  Even off the atoms the phase
        # approximation converges only at O(1/k) with a model-dependent
        # constant; 2048 phases has been observed to leave a gap just
        # over the 0.05 tolerance (0.051 on a 2-state chain at
        # t=0.375), 4096 halves it to safely within.
        def near_atom(r):
            return any(abs(r - k * impulse - offset) < 0.125
                       for k in range(int(r // impulse) + 2)
                       for offset in (0.0, aligned))

        r = round(((impulse + model.max_reward) * max(1.0, aligned) * 1.5
                   + 0.375) / step) * step
        while near_atom(r):
            r += 0.125
        erlang = ErlangEngine(phases=4096).joint_probability_vector(
            spiked, aligned, r, {0})
        discretized = DiscretizationEngine(step=step) \
            .joint_probability_vector(spiked, aligned, r, {0})
        for s in range(spiked.num_states):
            assert erlang[s] == pytest.approx(discretized[s], abs=0.05)


# ----------------------------------------------------------------------
# logic properties
# ----------------------------------------------------------------------

class TestFormulaProperties:
    @given(formula=state_formulas())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_roundtrip(self, formula):
        assert parse_formula(str(formula)) == formula

    @given(formula=state_formulas())
    @settings(max_examples=80, deadline=None)
    def test_subformula_count_at_least_ap_count(self, formula):
        subformulas = list(formula.subformulas())
        assert len(subformulas) >= len(formula.atomic_propositions())

    @given(formula=state_formulas(depth=2), model=small_mrms())
    @settings(max_examples=30, deadline=None)
    def test_checker_boolean_consistency(self, model, formula):
        """Sat(!phi) is the complement of Sat(phi) for any phi that the
        checker can handle; skip formulas outside the decidable
        fragment (non-downward-closed bounds)."""
        from repro.errors import ReproError
        from repro.mc import ModelChecker
        checker = ModelChecker(model, epsilon=1e-8)
        try:
            positive = checker.satisfaction_set(formula)
            negative = checker.satisfaction_set(ast.Not(formula))
        except ReproError:
            assume(False)
        assert positive | negative == frozenset(range(model.num_states))
        assert positive & negative == frozenset()
