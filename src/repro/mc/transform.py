"""Model transformations used by the until procedures.

Two transformations from the paper and its companion [Baier et al.,
"On the logical specification of performability properties", 2000]:

* :func:`until_reduction` -- Theorem 1 of the paper: for checking
  ``Phi U_I^J Psi`` it suffices to make all ``Psi``-states and all
  ``!(Phi | Psi)``-states absorbing, set their reward to zero, and
  compute reward-bounded instant-of-time reachability of the
  ``Psi``-states on the result.
* :func:`amalgamated_until_reduction` -- the same, but additionally
  collapsing the two absorbing families into a single "goal" and a
  single "fail" state ("we can amalgamate all states satisfying Psi
  and all states satisfying !(Phi | Psi), thereby making the MRM
  considerably smaller").
* :func:`dual_model` -- the time/reward duality: in the dual MRM,
  spending ``r`` reward units corresponds to spending ``r`` time units
  in the original, so a reward-bounded until becomes a time-bounded
  one.  Requires strictly positive rewards on non-absorbing states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np
import scipy.sparse as sp

from repro.ctmc.ctmc import absorb_rows
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import RewardError


def until_reduction(model: MarkovRewardModel,
                    phi: Set[int],
                    psi: Set[int]) -> MarkovRewardModel:
    """Theorem 1: absorb decided states and zero their rewards.

    States in *psi* (the until already holds: trap the path without
    earning further reward) and states outside ``phi | psi`` (the
    until can never hold anymore) lose their outgoing transitions and
    get reward zero.  State indices are preserved, so probabilities
    computed on the result map back one-to-one.
    """
    absorbing = np.ones(model.num_states, dtype=bool)
    absorbing[list(set(phi) - set(psi))] = False
    return MarkovRewardModel(absorb_rows(model.rate_matrix, absorbing),
                             rewards=np.where(absorbing, 0.0, model.rewards),
                             labels=model.labels_as_dict(),
                             initial_distribution=model.initial_distribution,
                             state_names=model.state_names,
                             impulse_rewards=(
                                 absorb_rows(model.impulse_matrix, absorbing)
                                 if model.has_impulse_rewards else None))


@dataclass(frozen=True)
class AmalgamatedReduction:
    """Result of :func:`amalgamated_until_reduction`.

    Attributes
    ----------
    model:
        The reduced MRM; its last two states are the amalgamated goal
        and fail states (in that order) -- unless the respective family
        was empty, in which case it is omitted.
    state_map:
        Original state index -> reduced state index.
    goal_state:
        Index of the amalgamated goal state in the reduced model, or
        ``None`` when ``psi`` was empty.
    """
    model: MarkovRewardModel
    state_map: Dict[int, int]
    goal_state: Optional[int]

    def lift(self, reduced_vector: np.ndarray,
             num_original_states: int) -> np.ndarray:
        """Map a per-state vector on the reduced model back to original
        state indices."""
        lifted = np.zeros(num_original_states)
        for original, reduced in self.state_map.items():
            lifted[original] = reduced_vector[reduced]
        return lifted


def amalgamated_until_reduction(model: MarkovRewardModel,
                                phi: Set[int],
                                psi: Set[int]) -> AmalgamatedReduction:
    """Theorem 1 with state amalgamation.

    All goal states collapse into one absorbing goal state, all fail
    states into one absorbing fail state; transient states keep their
    identity (re-indexed).  This is the variant the paper uses on the
    case study (9 states become 3 transient + 2 absorbing).
    """
    n = model.num_states
    psi = set(psi)
    fail = set(range(n)) - set(phi) - psi
    transient = [s for s in range(n) if s not in psi and s not in fail]

    state_map: Dict[int, int] = {}
    for i, s in enumerate(transient):
        state_map[s] = i
    goal_index: Optional[int] = None
    next_index = len(transient)
    if psi:
        goal_index = next_index
        next_index += 1
        for s in psi:
            state_map[s] = goal_index
    fail_index: Optional[int] = None
    if fail:
        fail_index = next_index
        next_index += 1
        for s in fail:
            state_map[s] = fail_index

    size = next_index
    rates = model.rate_matrix.tocoo()
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    transient_set = set(transient)
    for src, dst, rate in zip(rates.row, rates.col, rates.data):
        if int(src) not in transient_set:
            continue  # absorbing in the reduction
        rows.append(state_map[int(src)])
        cols.append(state_map[int(dst)])
        vals.append(float(rate))
    reduced_rates = sp.coo_matrix((vals, (rows, cols)),
                                  shape=(size, size)).tocsr()
    reduced_rates.sum_duplicates()

    rewards = np.zeros(size)
    for s in transient:
        rewards[state_map[s]] = model.reward(s)

    alpha = np.zeros(size)
    for s, mass in enumerate(model.initial_distribution):
        alpha[state_map[s]] += mass

    names = None
    if model.state_names is not None:
        names = [model.state_names[s] for s in transient]
        if goal_index is not None:
            names.append("__goal__")
        if fail_index is not None:
            names.append("__fail__")

    labels: Dict[str, Set[int]] = {}
    if goal_index is not None:
        labels["__goal__"] = {goal_index}

    reduced = MarkovRewardModel(reduced_rates,
                                rewards=rewards,
                                labels=labels,
                                initial_distribution=alpha,
                                state_names=names)
    return AmalgamatedReduction(model=reduced,
                                state_map=state_map,
                                goal_state=goal_index)


@dataclass(frozen=True)
class ZeroRewardElimination:
    """Result of :func:`eliminate_zero_reward_states`.

    Attributes
    ----------
    model:
        The MRM on the kept states (positive reward or absorbing).
    kept:
        Original indices of the kept states, in quotient order.
    eliminated:
        Original indices of the removed zero-reward states.
    exit_distribution:
        Matrix ``B`` with ``B[i, j]`` the probability that the
        ``i``-th eliminated state eventually leaves the zero-reward
        region into the ``j``-th kept state (rows may be substochastic
        when the region can trap the path forever).
    """
    model: MarkovRewardModel
    kept: "list[int]"
    eliminated: "list[int]"
    exit_distribution: np.ndarray

    def lift(self, kept_values: np.ndarray,
             num_original_states: int) -> np.ndarray:
        """Expand per-kept-state values to all original states.

        An eliminated state inherits the exit-weighted average of the
        kept values (paths leave it without accumulating reward, so
        for reward-bounded measures its value is exactly that mixture).
        """
        lifted = np.zeros(num_original_states)
        for position, original in enumerate(self.kept):
            lifted[original] = kept_values[position]
        mixed = self.exit_distribution @ kept_values
        for position, original in enumerate(self.eliminated):
            lifted[original] = mixed[position]
        return lifted


def eliminate_zero_reward_states(model: MarkovRewardModel
                                 ) -> ZeroRewardElimination:
    """Remove non-absorbing zero-reward states (time-abstractly).

    For *reward-bounded* measures, sojourns in zero-reward states cost
    nothing: the accumulated reward does not advance.  Such states can
    therefore be short-circuited through their embedded jump
    probabilities, yielding an all-positive-reward model on which the
    duality transformation (:func:`dual_model`) is applicable.  This
    removes the positive-reward precondition of the paper's P2
    procedure (a genuine extension -- with zero-reward states the
    eliminated model's *timing* differs, but reward-bounded
    reachability is timing-insensitive).

    Not applicable to impulse-reward models (the eliminated jumps
    could carry reward).
    """
    if model.has_impulse_rewards:
        raise RewardError(
            "zero-reward-state elimination would drop impulse rewards")
    n = model.num_states
    exit_rates = model.exit_rates
    removable = [s for s in range(n)
                 if model.reward(s) == 0.0 and exit_rates[s] > 0.0]
    kept = [s for s in range(n) if s not in set(removable)]
    if not removable:
        return ZeroRewardElimination(model=model, kept=kept,
                                     eliminated=[],
                                     exit_distribution=np.zeros((0, n)))

    inverse_exit = np.where(exit_rates > 0.0,
                            1.0 / np.where(exit_rates > 0.0,
                                           exit_rates, 1.0),
                            0.0)
    jump = (sp.diags(inverse_exit, format="csr")
            @ model.rate_matrix).tocsr()
    # States trapped in a closed zero-reward region never exit; their
    # exit distribution is the zero row (and including them would make
    # the linear system singular).
    from repro.ctmc import graph
    escaping = sorted(graph.backward_reachable(
        model, kept, through=set(removable)) & set(removable))
    exit_distribution = np.zeros((len(removable), len(kept)))
    if escaping:
        positions = {s: i for i, s in enumerate(removable)}
        inner = jump[escaping, :][:, escaping]
        outward = jump[escaping, :][:, kept]
        system = sp.identity(len(escaping), format="csc") \
            - inner.tocsc()
        import scipy.sparse.linalg as spla
        solved = np.asarray(spla.spsolve(system, outward.toarray()))
        solved = solved.reshape(len(escaping), len(kept))
        for row, state in enumerate(escaping):
            exit_distribution[positions[state]] = solved[row]
    exit_distribution = np.clip(exit_distribution, 0.0, 1.0)

    rates = model.rate_matrix
    direct = rates[kept, :][:, kept].toarray()
    via = rates[kept, :][:, removable].toarray() @ exit_distribution
    new_rates = direct + via

    alpha = model.initial_distribution
    new_alpha = alpha[kept] + alpha[removable] @ exit_distribution
    total = new_alpha.sum()
    if total >= 1.0 - 1e-9:
        # Tiny numerical drift only: renormalise.
        new_alpha = new_alpha / total
    else:
        # Initial mass can be trapped forever in the zero-reward
        # region; the quotient then has no faithful initial
        # distribution (per-state results remain exact via lift()).
        new_alpha = None

    labels = {ap: {kept.index(s) for s in model.states_with(ap)
                   if s in set(kept)}
              for ap in model.atomic_propositions}
    names = None
    if model.state_names is not None:
        names = [model.state_names[s] for s in kept]

    reduced = MarkovRewardModel(
        sp.csr_matrix(new_rates),
        rewards=[model.reward(s) for s in kept],
        labels=labels,
        initial_distribution=new_alpha,
        state_names=names)
    return ZeroRewardElimination(model=reduced, kept=kept,
                                 eliminated=removable,
                                 exit_distribution=exit_distribution)


def dual_model(model: MarkovRewardModel) -> MarkovRewardModel:
    """The time/reward-dual MRM of [Baier et al. 2000, Theorem 1].

    Rates are divided by the local reward rate and rewards are
    inverted (``rho'(s) = 1 / rho(s)``): a sojourn earning ``r`` reward
    units in the original corresponds to a sojourn of ``r`` *time*
    units in the dual and vice versa.  Consequently
    ``Phi U^{<=t}_{<=r} Psi`` on the original coincides with
    ``Phi U^{<=r}_{<=t} Psi`` on the dual, and a pure reward bound
    ("P2") becomes a pure time bound ("P1").

    Absorbing states may carry any reward (they are never left, so the
    transformation gives them reward 0); every non-absorbing state
    must have a strictly positive reward, otherwise the dual is
    undefined and :class:`~repro.errors.RewardError` is raised.
    """
    if model.has_impulse_rewards:
        raise RewardError(
            "the duality transformation is undefined for impulse "
            "rewards (a jump cannot be swapped with a sojourn)")
    exit_rates = model.exit_rates
    rewards = model.rewards
    blocked = (rewards == 0.0) & (exit_rates > 0.0)
    if np.any(blocked):
        offenders = ", ".join(model.name_of(int(s))
                              for s in np.flatnonzero(blocked)[:5])
        raise RewardError(
            "the duality transformation requires positive rewards on "
            f"non-absorbing states; zero-reward states: {offenders}")
    scale = np.where(rewards > 0.0, 1.0 / np.where(rewards > 0.0,
                                                   rewards, 1.0), 0.0)
    dual_rates = sp.diags(scale, format="csr") @ model.rate_matrix
    dual_rewards = np.where(rewards > 0.0, scale, 0.0)
    return MarkovRewardModel(dual_rates,
                             rewards=dual_rewards,
                             labels=model.labels_as_dict(),
                             initial_distribution=model.initial_distribution,
                             state_names=model.state_names)
