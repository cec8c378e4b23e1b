"""Procedures behind the expected-reward operator ``R <|b [ . ]``.

Three query forms, each returning a per-initial-state vector of
expected values:

* instantaneous (``I=t``): ``E[rho(X_t) | X_0 = s]``, one backward
  uniformisation run with the reward vector as terminal weight;
* cumulative (``C<=t``): ``E[Y_t | X_0 = s]``, one backward run of the
  Poisson-tail integrated uniformisation series;
* reachability (``F Phi``): the expected reward accumulated until the
  first Phi-state, by one sparse linear solve -- infinite (numpy
  ``inf``) for states that do not reach Phi almost surely, following
  the usual convention.
"""

from __future__ import annotations

from typing import Set

import numpy as np
import scipy.sparse as sp

from repro.ctmc import graph
from repro.ctmc.mrm import MarkovRewardModel
from repro.numerics.linear import solve_linear_system
from repro.numerics.uniformization import (accumulated_reward_vector,
                                           transient_target_probabilities)


def instantaneous_reward_vector(model: MarkovRewardModel,
                                t: float,
                                epsilon: float = 1e-12) -> np.ndarray:
    """``E[rho(X_t) | X_0 = s]`` for every state ``s``; the series'
    steps count under ``engine="reward"``."""
    return transient_target_probabilities(model, t, model.rewards,
                                          epsilon=epsilon,
                                          metrics_engine="reward")


def cumulative_reward_vector(model: MarkovRewardModel,
                             t: float,
                             epsilon: float = 1e-12) -> np.ndarray:
    """``E[Y_t | X_0 = s]`` for every state ``s``.

    Uses ``int_0^t P^(u) rho du = (1/lambda) sum_k T_{k+1} P^k rho``
    with ``T_k`` the Poisson tail mass beyond ``k``; the series' steps
    count under ``engine="reward"``.
    """
    return accumulated_reward_vector(model, t, epsilon=epsilon,
                                     metrics_engine="reward")


def reachability_reward_vector(model: MarkovRewardModel,
                               phi: Set[int]) -> np.ndarray:
    """Expected reward until first reaching *phi*, per initial state.

    For a non-*phi* state ``s`` the expectation satisfies

        x_s = rho(s) / E(s) + sum_{s'} P_jump(s, s') x_{s'}

    (``rho(s)/E(s)`` is the expected sojourn reward).  States from
    which *phi* is not reached with probability one get ``inf``.
    """
    n = model.num_states
    certain = graph.prob1_states(model, set(range(n)), set(phi))
    result = np.full(n, np.inf)
    for s in phi:
        result[s] = 0.0
    solve_states = sorted(certain - set(phi))
    if not solve_states:
        return result
    index = {s: i for i, s in enumerate(solve_states)}

    exit_rates = model.exit_rates
    rows = []
    cols = []
    vals = []
    rhs = np.zeros(len(solve_states))
    matrix = model.rate_matrix
    for s in solve_states:
        i = index[s]
        rate = exit_rates[s]
        # rate > 0 is guaranteed: an absorbing non-phi state cannot
        # reach phi with probability one.
        rhs[i] = model.reward(s) / rate
        rows.append(i)
        cols.append(i)
        vals.append(1.0)
        row = matrix.getrow(s)
        for target, transition_rate in zip(row.indices, row.data):
            target = int(target)
            if target in index:
                rows.append(i)
                cols.append(index[target])
                vals.append(-float(transition_rate) / rate)
    system = sp.coo_matrix((vals, (rows, cols)),
                           shape=(len(solve_states),) * 2).tocsr()
    system.sum_duplicates()
    solution = solve_linear_system(system, rhs)
    for s, i in index.items():
        result[s] = max(0.0, float(solution[i]))
    return result
