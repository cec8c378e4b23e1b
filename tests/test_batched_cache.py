"""Batched all-initial-states propagation and the engine caches.

Covers the performance layer added on top of the three engines:

* the batched :meth:`JointEngine.joint_probability_vector` agrees with
  the per-state forward references of :mod:`tests.oracles` on the ad
  hoc case study and on a random 20-state MRM;
* repeated identical queries are served from the shared joint-vector
  LRU (hit counters move, results are identical and isolated copies),
  including through the :class:`ModelChecker`, which rebuilds the
  reduced model object on every check;
* model fingerprints depend on content (rates, rewards, impulses) and
  nothing else;
* Fox--Glynn weights are memoised per ``(rate, epsilon)``;
* a deterministic regression pinning the exact closed-form values of
  the 2-state impulse model on which the Erlang engine's randomised
  phase advance used to be off by ~0.05 however many phases were used.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches, joint_cache)
from repro.ctmc import ModelBuilder
from repro.ctmc.mrm import MarkovRewardModel
from repro.mc.checker import ModelChecker
from repro.models.adhoc import Q3_REWARD_BOUND, Q3_TIME_BOUND
from repro.models.workloads import random_mrm
from repro.numerics.poisson import (clear_poisson_cache,
                                    poisson_cache_info, poisson_weights)
from tests.oracles import discretized_density, joint_probability_from


def engines():
    return [SericolaEngine(epsilon=1e-12),
            ErlangEngine(phases=64),
            DiscretizationEngine(step=1.0 / 32)]


# ----------------------------------------------------------------------
# batched vector == per-state forward reference
# ----------------------------------------------------------------------

class TestBatchedEquivalence:
    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_adhoc_reduced(self, adhoc_reduced, engine):
        model = adhoc_reduced.model
        goal = adhoc_reduced.goal_state
        t, r = Q3_TIME_BOUND, Q3_REWARD_BOUND
        clear_caches()
        vector = engine.joint_probability_vector(model, t, r, {goal})
        indicator = np.zeros(model.num_states)
        indicator[goal] = 1.0
        loop = np.array([
            joint_probability_from(engine, model, t, r, indicator, s)
            for s in range(model.num_states)])
        np.testing.assert_allclose(vector, loop, atol=1e-10)

    @pytest.mark.parametrize("engine", engines(), ids=lambda e: e.name)
    def test_random_twenty_state(self, engine):
        model = random_mrm(20, seed=20020623,
                           reward_levels=(0.0, 1.0, 2.0))
        t, r = 0.75, 1.0
        target = set(model.states_with("green")) or {0}
        clear_caches()
        vector = engine.joint_probability_vector(model, t, r, target)
        indicator = np.zeros(model.num_states)
        for s in target:
            indicator[s] = 1.0
        loop = np.array([
            joint_probability_from(engine, model, t, r, indicator, s)
            for s in range(model.num_states)])
        np.testing.assert_allclose(vector, loop, atol=1e-10)

    def test_discretization_impulses_and_underflow_rules(self):
        """Impulse displacements and both underflow rules.  From the
        zero-reward state ``a`` mass enters ``b`` at reward zero, where
        the paper's clamp rule duplicates it, so the rules differ."""
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=2.0)
        builder.add_state("c", reward=1.0)
        builder.add_transition("a", "b", 0.2)
        builder.add_transition("b", "c", 1.2, impulse=1.0)
        builder.add_transition("c", "a", 0.5, impulse=2.0)
        model = builder.build(initial_state="a")
        t, r = 1.0, 3.0
        indicator = np.array([0.0, 1.0, 1.0])
        vectors = {}
        for underflow in ("drop", "clamp"):
            engine = DiscretizationEngine(step=1.0 / 8,
                                          underflow=underflow)
            clear_caches()
            vector = engine.joint_probability_vector(model, t, r, {1, 2})
            loop = np.array([
                joint_probability_from(engine, model, t, r, indicator, s)
                for s in range(model.num_states)])
            np.testing.assert_allclose(vector, loop, atol=1e-10)
            vectors[underflow] = vector
        assert vectors["clamp"][0] > vectors["drop"][0] + 0.5

    def test_discretization_batch_density_matches_scalar(self,
                                                         adhoc_reduced):
        """Every target-state, in-bound reward cell of the forward
        density carries weight one in the adjoint read-out: the batched
        column equals the per-state densities' accepted mass."""
        engine = DiscretizationEngine(step=1.0 / 32)
        model = adhoc_reduced.model
        t, r = 2.0, 40.0
        target = [adhoc_reduced.goal_state, 0]
        clear_caches()
        column = engine.sweep_unit(model, [t], [r], np.isin(
            np.arange(model.num_states), target).astype(float))[0, 0]
        for s in range(model.num_states):
            density = discretized_density(model, t, r, engine.step, s)
            accepted = density[target].sum() * engine.step
            np.testing.assert_allclose(column[s], min(1.0, accepted),
                                       atol=1e-12)


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

class TestJointVectorCache:
    def test_second_identical_call_hits(self, flip_flop, ledger):
        clear_caches()
        engine = SericolaEngine()
        first = engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        assert ledger()["cache_misses"] == 1
        assert ledger()["cache_hits"] == 0
        steps = ledger()["propagation_steps"]
        second = engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        assert ledger()["cache_hits"] == 1
        # no extra propagation work was done for the cached call
        assert ledger()["propagation_steps"] == steps
        np.testing.assert_array_equal(first, second)

    def test_returned_vector_is_a_copy(self, flip_flop):
        clear_caches()
        engine = DiscretizationEngine(step=0.25)
        first = engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        first[:] = -1.0
        second = engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        assert np.all(second >= 0.0)

    def test_different_parameters_miss(self, flip_flop, ledger):
        clear_caches()
        engine = ErlangEngine(phases=16)
        engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        engine.joint_probability_vector(flip_flop, 1.0, 2.0, {1})
        engine.joint_probability_vector(flip_flop, 2.0, 1.0, {1})
        engine.joint_probability_vector(flip_flop, 1.0, 1.0, {0})
        assert ledger()["cache_misses"] == 4
        assert ledger()["cache_hits"] == 0
        # a differently-parameterised engine must not share entries
        other = ErlangEngine(phases=32)
        other.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        assert ledger()["cache_misses"] - 4 == 1

    def test_content_identical_model_hits(self, flip_flop, ledger):
        """A rebuilt model with identical content is a cache hit."""
        clear_caches()
        engine = SericolaEngine()
        engine.joint_probability_vector(flip_flop, 1.0, 1.0, {1})
        clone = MarkovRewardModel(flip_flop.rate_matrix.copy(),
                                  rewards=flip_flop.rewards.copy())
        engine.joint_probability_vector(clone, 1.0, 1.0, {1})
        assert ledger()["cache_hits"] == 1

    def test_checker_repeated_until_checks_hit(self, flip_flop, ledger):
        clear_caches()
        checker = ModelChecker(flip_flop)
        formula = "P>=0.1 [ up U[0,2][0,1] down ]"
        checker.check(formula)
        stats = ledger()
        assert stats["cache_misses"] >= 1
        assert stats["cache_hits"] == 0
        checker.clear_cache()          # drop the Sat-set memo ...
        checker.check(formula)         # ... so the engine is re-asked
        stats = ledger()
        assert stats["cache_hits"] >= 1
        # a fresh checker over an equal model also hits: the key is the
        # reduced model's content fingerprint, not object identity
        fresh = ModelChecker(flip_flop)
        fresh.check(formula)
        assert ledger()["cache_hits"] - stats["cache_hits"] >= 1
        assert joint_cache.info()["hits"] >= 2


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_content_equality(self):
        a = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                              rewards=[0.0, 1.0])
        b = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                              rewards=[0.0, 1.0])
        assert a.fingerprint == b.fingerprint

    def test_labels_do_not_matter(self):
        a = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                              rewards=[0.0, 1.0],
                              labels={"up": [0]})
        b = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                              rewards=[0.0, 1.0],
                              labels={"down": [1]})
        assert a.fingerprint == b.fingerprint

    def test_content_changes_matter(self):
        base = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                                 rewards=[0.0, 1.0])
        rate = MarkovRewardModel([[0.0, 1.5], [2.0, 0.0]],
                                 rewards=[0.0, 1.0])
        reward = MarkovRewardModel([[0.0, 1.0], [2.0, 0.0]],
                                   rewards=[0.0, 2.0])
        impulses = base.rate_matrix.copy()
        impulses.data = np.full_like(impulses.data, 1.0)
        spiked = base.with_impulse_rewards(impulses)
        prints = {base.fingerprint, rate.fingerprint,
                  reward.fingerprint, spiked.fingerprint}
        assert len(prints) == 4


# ----------------------------------------------------------------------
# Fox--Glynn weight cache
# ----------------------------------------------------------------------

class TestPoissonCache:
    def test_repeat_is_a_hit(self):
        clear_poisson_cache()
        first = poisson_weights(12.5, 1e-12)
        info = poisson_cache_info()
        assert info["misses"] == 1 and info["hits"] == 0
        second = poisson_weights(12.5, 1e-12)
        info = poisson_cache_info()
        assert info["hits"] == 1
        np.testing.assert_array_equal(first.weights, second.weights)
        assert second.left == first.left
        assert second.right == first.right

    def test_cached_weights_are_frozen(self):
        clear_poisson_cache()
        poisson_weights(8.0, 1e-10)
        again = poisson_weights(8.0, 1e-10)
        assert not again.weights.flags.writeable


# ----------------------------------------------------------------------
# deterministic impulse regression (was: failing hypothesis test)
# ----------------------------------------------------------------------

class TestImpulseRegression:
    """2-state model, rho = [0, 1], rates 0->1 at a=1 and 1->0 at b=2,
    impulse iota = 3 on every transition, t = 1, r = 6.

    ``Y_1 = 3 N_1 + T_1`` with ``N_1`` the number of transitions and
    ``T_1`` the occupation time of state 1, so ``Y_1 <= 6`` iff
    ``N_1 <= 1`` (two jumps already cost 6 plus an a.s. positive
    sojourn in state 1).  With target {0}:

      from 0:  stay put,   Pr = e^{-a}
      from 1:  jump once,  Pr = b e^{-a} (1 - e^{-(b-a)}) / (b - a)

    The Erlang engine's old Poisson-randomised impulse advance was off
    by ~0.05 here for *every* phase count (an O(k^{-1/2}) bias at the
    distribution's discontinuity); the deterministic mean-preserving
    advance is exact because iota * k / r is an integer.
    """

    A, B, IOTA, T, R = 1.0, 2.0, 3.0, 1.0, 6.0

    @pytest.fixture()
    def spiked(self):
        model = MarkovRewardModel([[0.0, self.A], [self.B, 0.0]],
                                  rewards=[0.0, 1.0])
        impulses = model.rate_matrix.copy()
        impulses.data = np.full_like(impulses.data, self.IOTA)
        return model.with_impulse_rewards(impulses)

    @property
    def exact(self):
        from_zero = math.exp(-self.A)
        from_one = (self.B * math.exp(-self.A)
                    * (1.0 - math.exp(-(self.B - self.A)))
                    / (self.B - self.A))
        return np.array([from_zero, from_one])

    def test_erlang_matches_closed_form(self, spiked):
        clear_caches()
        for phases in (128, 512):
            engine = ErlangEngine(phases=phases)
            vector = engine.joint_probability_vector(
                spiked, self.T, self.R, {0})
            np.testing.assert_allclose(vector, self.exact, atol=1e-9)

    def test_discretization_matches_closed_form(self, spiked):
        clear_caches()
        engine = DiscretizationEngine(step=1.0 / 256)
        vector = engine.joint_probability_vector(
            spiked, self.T, self.R, {0})
        np.testing.assert_allclose(vector, self.exact, atol=5e-3)

    def test_engines_agree_tightly(self, spiked):
        clear_caches()
        erlang = ErlangEngine(phases=512).joint_probability_vector(
            spiked, self.T, self.R, {0})
        disc = DiscretizationEngine(step=1.0 / 128)
        vector = disc.joint_probability_vector(
            spiked, self.T, self.R, {0})
        np.testing.assert_allclose(erlang, vector, atol=0.01)
