"""The pseudo-Erlang approximation (Section 4.2 of the paper).

The deterministic reward bound ``r`` is replaced by a random bound that
is Erlang-``k`` distributed with mean ``r``: the accumulated reward
``Y_t`` crosses such a bound exactly when a Poisson process, driven at
rate ``(k / r) * rho(X_u)`` by the momentary reward rate, has fired
``k`` times.  This yields a plain CTMC on the product space

    S x {0, ..., k-1}   +   one absorbing "bound exceeded" state

with, for every original transition, a copy per phase, plus phase
advancement ``(s, i) -> (s, i+1)`` at rate ``rho(s) k / r`` (the last
phase feeding the absorbing barrier).  Standard transient analysis
(uniformisation) of the expanded chain approximates

    Pr{Y_t <= r, X_t in S'}  ~~  Pr{X^exp_t in S' x {0..k-1}}.

As ``k`` grows the Erlang distribution concentrates on ``r`` and the
approximation converges; the paper's Table 3 sweeps ``k`` from 1 to
1024 and observes convergence from below on its case study.  The price
is a ``k``-fold larger chain whose uniformisation rate grows by
``k * max(rho) / r``.

**Impulse rewards** (this library's extension of the paper's
future-work item) displace the reward instantaneously by a *fixed*
amount ``iota`` when their transition fires, so the phase counter must
advance by the *deterministic* equivalent ``iota * k / r`` of that
displacement.  When that quantity is not an integer, the advance is
split mean-preservingly over the two neighbouring integers
(``floor``/``ceil``).  Randomising the advance instead -- e.g. by the
Poisson number of reward-clock ticks inside the impulse, which an
earlier revision did -- biases the result near discontinuities of the
joint distribution: an impulse atom sitting exactly at the bound is
then counted with probability about one half however large ``k`` is
(an ``O(k^{-1/2})`` error), which is what the seed's failing
discretisation-vs-Erlang comparison detected.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.algorithms.base import (Finding, JointEngine,
                                   register_engine)
from repro.algorithms.cache import matrix_cache
from repro.ctmc.ctmc import CTMC, absorb_rows
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError
from repro.obs import annotate
from repro.obs import span as obs_span
from repro.numerics.poisson import right_truncation_point
from repro.numerics.uniformization import (
    Kernel, transient_target_probabilities_sweep)

#: Expanded pseudo-Erlang state count beyond which E002 warns.
ERLANG_STATE_WARNING = 100_000


def erlang_expanded_model(model: MarkovRewardModel,
                          r: float,
                          phases: int) -> Tuple[CTMC, int]:
    """The phase-expanded CTMC of the pseudo-Erlang construction.

    Returns ``(chain, barrier)`` where expanded state ``s * phases + i``
    represents original state ``s`` in Erlang phase ``i`` and *barrier*
    is the index of the absorbing "reward bound exceeded" state.

    The expanded rate matrix has the tensor structure
    ``R (x) I_k + diag(rho) (x) (k/r) * shift`` that the paper mentions
    can be exploited for storage; we materialise it sparsely, which for
    CSR storage is equally compact.  The construction is cached per
    ``(model, r, phases)`` -- sweeps over the time bound rebuild
    nothing.
    """
    if phases < 1:
        raise NumericalError(f"need at least one phase, got {phases}")
    if r <= 0.0:
        raise NumericalError(
            f"the Erlang construction needs a positive reward bound, "
            f"got {r}")
    key = ("erlang-expanded", model.fingerprint, float(r), int(phases))
    cached = matrix_cache.get(key)
    if cached is not None:
        return cached
    with obs_span("expand_chain", phases=int(phases), r=float(r),
                  states=model.num_states):
        result = _build_expanded_model(model, r, phases)
    matrix_cache.put(key, result)
    return result


def _build_expanded_model(model: MarkovRewardModel,
                          r: float,
                          phases: int) -> Tuple[CTMC, int]:
    """The uncached construction behind :func:`erlang_expanded_model`."""
    n = model.num_states
    k = phases
    barrier = n * k
    phase_rate = k / r

    rates = model.rate_matrix.tocoo()
    impulses = (model.impulse_matrix if model.has_impulse_rewards
                else None)
    rows = []
    cols = []
    vals = []
    # Original transitions, copied into every phase.  A transition with
    # an impulse reward iota displaces the reward clock by the fixed
    # amount iota, i.e. advances the phase counter by the deterministic
    # equivalent iota * k / r, split mean-preservingly over the two
    # neighbouring integers when fractional (see module docstring).
    for src, dst, rate in zip(rates.row, rates.col, rates.data):
        base_src = src * k
        base_dst = dst * k
        iota = (float(impulses[src, dst]) if impulses is not None
                else 0.0)
        if iota == 0.0:
            for i in range(k):
                rows.append(base_src + i)
                cols.append(base_dst + i)
                vals.append(rate)
            continue
        advance = iota * phase_rate
        low = int(math.floor(advance + 1e-12))
        fraction = advance - low
        outcomes = [(low, 1.0 - fraction)]
        if fraction > 1e-12:
            outcomes.append((low + 1, fraction))
        for i in range(k):
            for jump, probability in outcomes:
                if probability <= 0.0:
                    continue
                if i + jump < k:
                    rows.append(base_src + i)
                    cols.append(base_dst + i + jump)
                else:
                    rows.append(base_src + i)
                    cols.append(barrier)
                vals.append(rate * probability)
    # Phase advancement at rate rho(s) * k / r.
    for s in range(n):
        advance = model.reward(s) * phase_rate
        if advance == 0.0:
            continue
        for i in range(k - 1):
            rows.append(s * k + i)
            cols.append(s * k + i + 1)
            vals.append(advance)
        rows.append(s * k + (k - 1))
        cols.append(barrier)
        vals.append(advance)
    expanded = sp.coo_matrix((vals, (rows, cols)),
                             shape=(barrier + 1, barrier + 1)).tocsr()
    return (CTMC(expanded), barrier)


@register_engine
class ErlangEngine(JointEngine):
    """Pseudo-Erlang engine with *phases* Erlang stages.

    Parameters
    ----------
    phases:
        Number ``k`` of Erlang phases approximating the reward bound
        (the accuracy knob, Table 3 of the paper).
    epsilon:
        Truncation error bound of the transient analysis on the
        expanded chain (this part of the computation is "exact" up to
        epsilon; the model-level Erlang error dominates).
    kernel:
        Kernel backend labelling and running the propagation loops
        (see ``docs/KERNELS.md``); backends agree to ``<= 1e-12``.
    """

    name = "erlang"
    knobs = ("phases", "epsilon")
    #: Threads lose here: on the Q3 grid the expanded chains are small
    #: enough that GIL contention outweighs the overlap (measurements
    #: in docs/EXECUTION.md), so the thread executor runs columns
    #: inline.
    parallel_units = False

    def findings(self, model, t=None, r=None):
        """E002: the expanded chain of ``n*k+1`` states is large."""
        expanded = model.num_states * self.phases + 1
        if expanded < ERLANG_STATE_WARNING:
            return
        detail = ""
        if r is not None and r > 0.0 and t is not None:
            expanded_rate = (model.max_exit_rate
                             + self.phases * model.max_reward / r)
            depth = right_truncation_point(expanded_rate * t, 1e-12)
            detail = (f"; its uniformisation rate grows to "
                      f"~{expanded_rate:.3g} (phase rate k/r), a "
                      f"predicted truncation depth of ~{depth} terms")
        yield Finding(
            "E002",
            f"the pseudo-Erlang expansion with k={self.phases} phases "
            f"creates a chain of n*k+1 = {expanded} states{detail}",
            "reduce the phase count (accuracy degrades as 1/k), or use "
            "the Sericola or discretisation engine")

    def __init__(self, phases: int = 64, epsilon: float = 1e-12,
                 kernel: Kernel = None):
        if phases < 1:
            raise NumericalError(f"need at least one phase, got {phases}")
        self.phases = int(phases)
        self.epsilon = float(epsilon)
        super().__init__(kernel)

    def _expanded_indicator(self, expanded: CTMC,
                            indicator: np.ndarray) -> np.ndarray:
        """Target mask on the expanded chain: any phase of a target
        state (phase < k means the Erlang bound is not yet exceeded)."""
        expanded_indicator = np.zeros(expanded.num_states)
        expanded_indicator[:-1] = np.repeat(indicator, self.phases)
        return expanded_indicator

    def _compute_joint_sweep(self,
                             model: MarkovRewardModel,
                             times: Sequence[float],
                             rewards: Sequence[float],
                             indicator: np.ndarray) -> np.ndarray:
        """Shared-iterate sweep, one expanded chain per reward bound.

        The expanded chain depends on ``r`` only, and on it the
        backward iterates ``P^k w`` are shared by every time bound --
        so each reward bound costs **one** series to the largest
        truncation point (re-weighted per ``t``) instead of
        ``len(times)`` runs.  Each reward column is one work unit
        (:meth:`~repro.algorithms.base.JointEngine.work_units`); this
        method runs its columns in order.
        """
        times = [float(t) for t in times]
        grid = np.empty((len(times), len(rewards), model.num_states))
        for j, reward in enumerate(rewards):
            if reward == 0.0:
                grid[:, j, :] = zero_reward_bound_sweep(
                    model, times, indicator, epsilon=self.epsilon,
                    kernel=self._backend_for(model),
                    metrics_engine=self.name)
                continue
            expanded, barrier = erlang_expanded_model(model, float(reward),
                                                      self.phases)
            annotate(expanded_states=expanded.num_states)
            # Auto-selection keys on the *expanded* chain -- that is
            # the chain being propagated, and its dimensions are a
            # function of (model, r, phases), all in the cache key.
            backend = self._backend_for(expanded)
            rows = transient_target_probabilities_sweep(
                expanded, times,
                self._expanded_indicator(expanded, indicator),
                epsilon=self.epsilon, kernel=backend,
                metrics_engine=self.name)
            grid[:, j, :] = np.clip(rows[:, 0:barrier:self.phases],
                                    0.0, 1.0)
        return grid

    # ------------------------------------------------------------------
    # certified intervals: the k vs 2k bracket
    # ------------------------------------------------------------------

    #: Largest phase count the refinement loop will request (the
    #: expanded chain grows linearly in ``k`` and its uniformisation
    #: rate grows with ``k max(rho) / r``).
    MAX_PHASES = 65536

    def _bracket_companion(self) -> "ErlangEngine":
        """The ``2k`` companion of the certified interval.

        Doubling the phase count halves the variance ``r^2 / k`` of
        the Erlang bound, and on the stochastic-ordering argument of
        Section 4.2 the approximation error contracts at least as fast
        (Table 3 observes clean halving per doubling at smooth points);
        :func:`~repro.algorithms.base.richardson_bracket` turns the
        ``k`` and ``2k`` runs into an interval containing the exact
        value and the engine's own ``k``-phase point value.
        """
        return self._with(phases=self.phases * 2)

    def refined(self):
        """Double the phase count ``k`` (the Table 3 knob)."""
        if self.phases * 2 > self.MAX_PHASES:
            return None
        return self._bracket_companion()


def _zero_reward_restriction(model: MarkovRewardModel,
                             indicator: np.ndarray
                             ) -> Tuple[CTMC, np.ndarray]:
    """The restricted chain behind the ``r = 0`` special case.

    ``Y_t = 0`` holds exactly when the path spends no time in a state
    with positive reward and takes no transition with a positive
    impulse, i.e. (almost surely) never does either before time ``t``.
    We therefore make every positive-reward state absorbing, redirect
    every positive-impulse transition into a fresh dead state, and
    drop such states from the target; returns the restricted chain and
    the masked target indicator on it (the original states come
    first).
    """
    n = model.num_states
    positive = model.rewards > 0.0
    rates = absorb_rows(model.rate_matrix, positive)
    masked = np.where(positive, 0.0, indicator)
    if not model.has_impulse_rewards:
        return CTMC(rates), masked
    # Append a dead state n and reroute positive-impulse transitions
    # into it; bincount sums each row's rerouted rates in entry order.
    coo = rates.tocoo()
    moved = np.asarray(
        model.impulse_matrix[coo.row, coo.col]).ravel() > 0.0
    dead = np.bincount(coo.row[moved], weights=coo.data[moved],
                       minlength=n)
    into = np.flatnonzero(dead)
    rerouted = sp.csr_matrix(
        (np.concatenate([coo.data[~moved], dead[into]]),
         (np.concatenate([coo.row[~moved], into]),
          np.concatenate([coo.col[~moved], np.full(into.size, n)]))),
        shape=(n + 1, n + 1))
    return CTMC(rerouted), np.append(masked, 0.0)


def zero_reward_bound_sweep(model: MarkovRewardModel,
                            times: Sequence[float],
                            indicator: np.ndarray,
                            epsilon: float = 1e-12,
                            kernel: Kernel = None,
                            metrics_engine: Optional[str] = None
                            ) -> np.ndarray:
    """Exact ``Pr{Y_t <= 0, X_t in S'}`` for many time bounds at once.

    Transient analysis of the restricted chain of
    :func:`_zero_reward_restriction`; one shared backward series covers
    every time bound (see
    :func:`~repro.numerics.uniformization.\
transient_target_probabilities_sweep`); returns the ``(len(times),
    |S|)`` array of per-initial-state values.  *metrics_engine* counts
    the series' steps against that engine.
    """
    times = [float(t) for t in times]
    restricted, masked = _zero_reward_restriction(model, indicator)
    rows = transient_target_probabilities_sweep(
        restricted, times, masked, epsilon=epsilon,
        kernel=kernel,
        metrics_engine=metrics_engine)[:, :model.num_states]
    for i, t in enumerate(times):
        if t == 0.0:
            rows[i] = np.asarray(indicator, dtype=float)
    return rows
