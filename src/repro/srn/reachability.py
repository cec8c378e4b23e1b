"""Reachability-graph generation: from an SRN to its underlying MRM.

Markings enabling an immediate transition are *vanishing* -- the net
leaves them in zero time -- and never become CTMC states.  During the
breadth-first exploration every timed firing into a vanishing marking
is resolved on the fly into a probability distribution over tangible
markings (following chains of immediate firings, with memoisation;
cyclic vanishing behaviour is rejected).

The resulting :class:`~repro.ctmc.mrm.MarkovRewardModel` has

* one state per reachable tangible marking,
* rate ``R(s, s') = sum over timed transitions and vanishing paths``,
* reward ``rho(s)`` from the net's reward function,
* one atomic proposition per place, holding when the place is
  non-empty (the labelling convention of the paper's Section 5.3),
  plus any custom labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import StateSpaceError
from repro.srn.marking import Marking
from repro.srn.net import StochasticRewardNet, Transition


@dataclass
class ReachabilityGraph:
    """The tangible reachability graph of a net.

    Attributes
    ----------
    markings:
        The reachable tangible markings; index = CTMC state.
    transitions:
        Sparse list of ``(source, target, rate, transition_name,
        impulse)`` records (vanishing paths keep the name and impulse
        of the timed transition that started them).
    initial_index:
        Index of the (tangible resolution of the) initial marking.
    """
    markings: List[Marking]
    transitions: List[Tuple[int, int, float, str]]
    initial_index: int = 0
    initial_distribution: Optional[np.ndarray] = None


def _enabled(net: StochasticRewardNet, marking: Marking,
             immediate: bool) -> List[Transition]:
    chosen = [t for t in net.transitions
              if t.is_immediate == immediate and t.is_enabled(marking)]
    if immediate and chosen:
        top = max(t.priority for t in chosen)
        chosen = [t for t in chosen if t.priority == top]
    return chosen


def _resolve_vanishing(net: StochasticRewardNet,
                       marking: Marking,
                       cache: Dict[Marking, Dict[Marking, float]],
                       trail: "set[Marking]",
                       ) -> Dict[Marking, float]:
    """Distribution over tangible markings reached from *marking* in
    zero time.  *trail* detects cycles of vanishing markings."""
    immediates = _enabled(net, marking, immediate=True)
    if not immediates:
        return {marking: 1.0}
    cached = cache.get(marking)
    if cached is not None:
        return cached
    if marking in trail:
        raise StateSpaceError(
            f"cycle of vanishing markings through {marking!r}; "
            f"the net has a zero-time loop")
    trail.add(marking)
    total_weight = sum(t.weight for t in immediates)
    distribution: Dict[Marking, float] = {}
    for transition in immediates:
        probability = transition.weight / total_weight
        successor = transition.fire(marking)
        for tangible, p in _resolve_vanishing(net, successor, cache,
                                              trail).items():
            distribution[tangible] = (distribution.get(tangible, 0.0)
                                      + probability * p)
    trail.discard(marking)
    cache[marking] = distribution
    return distribution


def explore(net: StochasticRewardNet,
            max_states: int = 1_000_000) -> ReachabilityGraph:
    """Generate the tangible reachability graph of *net*.

    Raises :class:`~repro.errors.StateSpaceError` when more than
    *max_states* tangible markings are found (unbounded or huge nets).
    """
    vanishing_cache: Dict[Marking, Dict[Marking, float]] = {}
    initial = net.initial_marking()
    initial_distribution = _resolve_vanishing(net, initial,
                                              vanishing_cache, set())

    index: Dict[Marking, int] = {}
    markings: List[Marking] = []
    queue: "deque[Marking]" = deque()

    def intern(marking: Marking) -> int:
        position = index.get(marking)
        if position is None:
            if len(markings) >= max_states:
                raise StateSpaceError(
                    f"more than {max_states} tangible markings; "
                    f"increase max_states if the net is really this big")
            position = len(markings)
            index[marking] = position
            markings.append(marking)
            queue.append(marking)
        return position

    for tangible in initial_distribution:
        intern(tangible)

    records: List[Tuple[int, int, float, str, float]] = []
    while queue:
        marking = queue.popleft()
        source = index[marking]
        for transition in _enabled(net, marking, immediate=False):
            rate = transition.rate_in(marking)
            if rate == 0.0:
                continue
            impulse = transition.impulse_in(marking)
            fired = transition.fire(marking)
            for tangible, probability in _resolve_vanishing(
                    net, fired, vanishing_cache, set()).items():
                target = intern(tangible)
                records.append((source, target, rate * probability,
                                transition.name, impulse))

    alpha = np.zeros(len(markings))
    for tangible, probability in initial_distribution.items():
        alpha[index[tangible]] = probability
    graph = ReachabilityGraph(markings=markings, transitions=records,
                              initial_distribution=alpha)
    best = int(np.argmax(alpha))
    graph.initial_index = best
    return graph


def build_mrm(net: StochasticRewardNet,
              max_states: int = 1_000_000) -> MarkovRewardModel:
    """Generate the Markov reward model underlying *net*.

    Labelling: every place name is an atomic proposition holding in
    the states whose marking puts at least one token on it; custom
    labels from :meth:`StochasticRewardNet.add_label` are evaluated on
    each tangible marking.
    """
    graph = explore(net, max_states=max_states)
    n = len(graph.markings)
    impulse_matrix = None
    if graph.transitions:
        rows, cols, vals = zip(*[(s, t, r)
                                 for s, t, r, _, _ in graph.transitions])
        rates = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        rates.sum_duplicates()
        # Self-loops are probabilistically meaningless in a CTMC.
        rates.setdiag(0.0)
        rates.eliminate_zeros()
        # Transitions merged between the same pair of tangible
        # markings carry the rate-weighted average of their impulses
        # (the standard SRN-to-MRM flattening of transition rewards).
        if any(impulse > 0.0 for *_rest, impulse in graph.transitions):
            weighted = sp.coo_matrix(
                ([r * i for s, t, r, _, i in graph.transitions],
                 (rows, cols)), shape=(n, n)).tocsr()
            weighted.sum_duplicates()
            weighted.setdiag(0.0)
            weighted.eliminate_zeros()
            average = weighted.tocoo()
            data = [average.data[k] / rates[average.row[k],
                                            average.col[k]]
                    for k in range(average.nnz)]
            impulse_matrix = sp.coo_matrix(
                (data, (average.row, average.col)), shape=(n, n)).tocsr()
    else:
        rates = sp.csr_matrix((n, n))

    rewards = [net.reward_of(marking) for marking in graph.markings]

    labels: Dict[str, set] = {name: set() for name in net.place_names}
    for state, marking in enumerate(graph.markings):
        for place in marking.nonempty_places():
            labels[place].add(state)
    for name, predicate in net.extra_labels:
        labels[name] = {state for state, marking
                        in enumerate(graph.markings)
                        if predicate(marking)}

    names = [marking.label() for marking in graph.markings]
    # Guard against duplicate labels (multisets can collide only if
    # two distinct markings print identically, which label() prevents).
    if len(set(names)) != len(names):
        names = [f"{label}#{i}" for i, label in enumerate(names)]

    return MarkovRewardModel(rates,
                             rewards=rewards,
                             labels=labels,
                             initial_distribution=(
                                 graph.initial_distribution),
                             state_names=names,
                             impulse_rewards=impulse_matrix)
