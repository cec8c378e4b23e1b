"""Discrete-time auxiliaries: embedded chains and reachability.

The embedded (jump) DTMC of a CTMC has transition probabilities
``P[s, s'] = R[s, s'] / E(s)`` for non-absorbing ``s``; absorbing
states self-loop.  Unbounded until probabilities of the CTMC coincide
with reachability probabilities of the embedded DTMC, which reduces to
a sparse linear system after the Prob0/Prob1 precomputation.
"""

from __future__ import annotations

from typing import Set

import numpy as np
import scipy.sparse as sp

from repro.ctmc.ctmc import CTMC
from repro.ctmc import graph
from repro.numerics.linear import solve_linear_system


def embedded_dtmc(model: CTMC) -> sp.csr_matrix:
    """The jump-chain matrix of *model* (absorbing states self-loop)."""
    exit_rates = model.exit_rates
    inverse = np.where(exit_rates > 0.0, 1.0 / np.where(exit_rates > 0.0,
                                                        exit_rates, 1.0), 0.0)
    jump = sp.diags(inverse, format="csr") @ model.rate_matrix
    absorbing = np.flatnonzero(exit_rates == 0.0)
    if absorbing.size:
        loops = sp.coo_matrix(
            (np.ones(absorbing.size), (absorbing, absorbing)),
            shape=jump.shape)
        jump = (jump + loops.tocsr()).tocsr()
    return jump.tocsr()


def reachability_probabilities(model: CTMC,
                               phi: Set[int],
                               psi: Set[int],
                               method: str = "direct",
                               tolerance: float = 1e-12) -> np.ndarray:
    """Per-state probability of ``phi U psi`` (no time/reward bounds).

    Implements the Hansson--Jonsson procedure referenced by the paper
    for P0-type properties: Prob0/Prob1 graph precomputation followed
    by one sparse linear solve over the remaining "maybe" states.
    """
    n = model.num_states
    prob0 = graph.prob0_states(model, phi, psi)
    prob1 = graph.prob1_states(model, phi, psi)
    result = np.zeros(n)
    for s in prob1:
        result[s] = 1.0
    maybe = sorted(set(range(n)) - prob0 - prob1)
    if not maybe:
        return result

    jump = embedded_dtmc(model)
    index = {s: i for i, s in enumerate(maybe)}
    sub = jump[maybe, :][:, maybe]
    # x = P_maybe x + b,   b[s] = sum_{s' in prob1} P[s, s']
    prob1_list = sorted(prob1)
    if prob1_list:
        b = np.asarray(
            jump[maybe, :][:, prob1_list].sum(axis=1)).ravel()
    else:
        b = np.zeros(len(maybe))
    system = sp.identity(len(maybe), format="csr") - sub
    solution = solve_linear_system(system, b, method=method,
                                   tolerance=tolerance)
    for s, i in index.items():
        result[s] = min(1.0, max(0.0, float(solution[i])))
    return result
