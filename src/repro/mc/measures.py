"""Classic performability measures on top of the CSRL machinery.

CSRL subsumes the well-known performability measures; this module
gives them first-class names:

* :func:`performability_distribution` -- Meyer's performability
  distribution ``Pr{Y_t <= r}`` of the accumulated reward (Meyer
  1980/1982), computed with any of the joint-distribution engines by
  taking the whole state space as target;
* :func:`expected_reward_rate` / :func:`expected_accumulated_reward`
  -- first moments, via uniformisation;
* :func:`long_run_reward_rate` -- the steady-state expected reward
  rate ``sum_s pi(s) rho(s)`` (per initial state when the chain is
  reducible).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.base import JointEngine, get_engine
from repro.ctmc.mrm import MarkovRewardModel
from repro.numerics.dtmc import reachability_probabilities
from repro.numerics.linear import bscc_stationary_distributions
from repro.numerics.uniformization import (
    expected_accumulated_reward as _expected_accumulated_reward,
    expected_instantaneous_reward as _expected_instantaneous_reward,
)

EngineLike = Union[None, str, JointEngine]


def _resolve_engine(engine: EngineLike) -> JointEngine:
    if engine is None:
        return get_engine("sericola")
    if isinstance(engine, str):
        return get_engine(engine)
    return engine


def performability_distribution(model: MarkovRewardModel,
                                t: float,
                                r: float,
                                engine: EngineLike = None,
                                initial: Optional[Sequence[float]] = None
                                ) -> float:
    """Meyer's performability distribution ``Pr{Y_t <= r}``.

    The accumulated reward over ``[0, t]`` is the "performability"
    variable of Meyer's framework; its distribution is the special
    case of the joint measure with the full state space as target.
    """
    vector = performability_distribution_vector(model, t, r, engine)
    alpha = (model.initial_distribution if initial is None
             else np.asarray(initial, dtype=float))
    return float(alpha @ vector)


def performability_distribution_vector(model: MarkovRewardModel,
                                       t: float,
                                       r: float,
                                       engine: EngineLike = None
                                       ) -> np.ndarray:
    """``Pr{Y_t <= r | X_0 = s}`` for every state ``s``."""
    resolved = _resolve_engine(engine)
    return resolved.joint_probability_vector(model, t, r,
                                             range(model.num_states))


def expected_reward_rate(model: MarkovRewardModel, t: float,
                         epsilon: float = 1e-12) -> float:
    """``E[rho(X_t)]`` -- the expected instantaneous reward rate."""
    return _expected_instantaneous_reward(model, t, epsilon=epsilon)


def expected_accumulated_reward(model: MarkovRewardModel, t: float,
                                epsilon: float = 1e-12) -> float:
    """``E[Y_t]`` -- the expected accumulated reward up to time ``t``."""
    return _expected_accumulated_reward(model, t, epsilon=epsilon)


def long_run_reward_rate(model: MarkovRewardModel) -> np.ndarray:
    """Per-initial-state long-run expected reward rate.

    ``lim_{t->inf} E[rho(X_t) | X_0 = s]``, computed from the BSCC
    stationary distributions weighted by their reachability
    probabilities.
    """
    n = model.num_states
    everything = set(range(n))
    result = np.zeros(n)
    for members, distribution in bscc_stationary_distributions(model):
        rate = sum(p * model.reward(s)
                   for s, p in zip(members, distribution))
        if rate == 0.0:
            continue
        reach = reachability_probabilities(model, everything, set(members))
        result += rate * reach
    return result
