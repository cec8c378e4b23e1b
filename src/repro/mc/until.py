"""Numerical procedures for the four until variants (P0--P3).

Each function returns the per-state probability vector of the path
formula ``Phi U_I^J Psi`` -- entry ``s`` is the probability measure of
the satisfying paths starting in ``s``.  The caller (the model
checker) compares against the probability bound.

* :func:`unbounded_until` -- "P0", no bounds: Prob0/Prob1 graph
  precomputation plus one sparse linear solve on the embedded DTMC
  (the procedure of Hansson & Jonsson cited by the paper).
* :func:`time_bounded_until` -- "P1", ``I = [0, t]``: make decided
  states absorbing and read the probability mass in ``Sat(Psi)`` off a
  transient analysis at ``t`` (Baier et al. 2000).  A general interval
  ``I = [t1, t2]`` is supported through the standard two-phase scheme.
* :func:`reward_bounded_until` -- "P2", ``J = [0, r]``: swap the
  reward bound into a time bound via the duality transformation and
  run the P1 procedure on the dual model.
* :func:`time_reward_bounded_until` -- "P3", both bounds: Theorem 1
  reduction followed by a joint-distribution engine (Section 4).
"""

from __future__ import annotations

import math
from typing import Sequence, Set

import numpy as np

from repro.algorithms.base import JointEngine
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError, UnsupportedFormulaError
from repro.logic.intervals import Interval
from repro.mc import prepass
from repro.mc.transform import (until_reduction, dual_model,
                                eliminate_zero_reward_states)
from repro.numerics.dtmc import reachability_probabilities
from repro.numerics.uniformization import transient_target_probabilities


def _indicator(num_states: int, members: Set[int]) -> np.ndarray:
    vector = np.zeros(num_states)
    for s in members:
        vector[s] = 1.0
    return vector


def unbounded_until(model: MarkovRewardModel,
                    phi: Set[int],
                    psi: Set[int],
                    solver: str = "direct") -> np.ndarray:
    """Per-state probability of ``Phi U Psi`` (property class P0)."""
    return reachability_probabilities(model, phi, psi, method=solver)


def time_bounded_until(model: MarkovRewardModel,
                       phi: Set[int],
                       psi: Set[int],
                       time: Interval,
                       epsilon: float = 1e-12) -> np.ndarray:
    """Per-state probability of ``Phi U^I Psi`` (property class P1).

    ``I = [0, t]`` uses one transient analysis on the reduced chain;
    ``I = [t1, t2]`` with ``t1 > 0`` uses the two-phase scheme: the
    path must stay in ``Phi`` throughout ``[0, t1]`` and then satisfy
    a ``[0, t2 - t1]``-bounded until from wherever it is at ``t1``.
    The series' steps count under ``engine="transient"``.
    """
    if math.isinf(time.upper):
        if time.lower == 0.0:
            return unbounded_until(model, phi, psi)
        raise UnsupportedFormulaError(
            f"time interval {time} with an infinite upper and positive "
            f"lower bound is not supported")
    horizon = time.upper - time.lower
    reduced = until_reduction(model, phi, psi)
    probabilities = transient_target_probabilities(
        reduced, horizon, _indicator(model.num_states, psi),
        epsilon=epsilon, metrics_engine="transient")
    if time.lower == 0.0:
        return np.clip(probabilities, 0.0, 1.0)
    # Phase 1: survive in Phi until t1.  Outside Phi the path is dead,
    # so make non-Phi states absorbing and zero their contribution.
    phi_indicator = _indicator(model.num_states, phi)
    survivor = until_reduction(model, phi, set())  # absorb !Phi states
    staged = transient_target_probabilities(
        survivor, time.lower, probabilities * phi_indicator,
        epsilon=epsilon, metrics_engine="transient")
    return np.clip(staged, 0.0, 1.0)


def reward_bounded_until(model: MarkovRewardModel,
                         phi: Set[int],
                         psi: Set[int],
                         reward: Interval,
                         epsilon: float = 1e-12) -> np.ndarray:
    """Per-state probability of ``Phi U_J Psi`` (property class P2).

    The reduction is applied first (which also zeroes the rewards of
    the decided states, keeping the duality well defined there), then
    the dual model turns the reward bound into a time bound.  The
    dual chain's series counts under ``engine="transient"``.
    """
    if reward.lower != 0.0:
        raise UnsupportedFormulaError(
            f"reward interval {reward} does not start at 0; no "
            f"computational procedure is available (see Section 6)")
    if math.isinf(reward.upper):
        return unbounded_until(model, phi, psi)
    reduced = until_reduction(model, phi, psi)
    if np.any((reduced.rewards == 0.0) & (reduced.exit_rates > 0.0)):
        # The duality needs positive rewards on non-absorbing states;
        # zero-reward states are time-abstractly eliminable first
        # (sojourns there are free in the reward dimension).
        elimination = eliminate_zero_reward_states(reduced)
        kept_psi = [elimination.kept.index(s) for s in psi
                    if s in set(elimination.kept)]
        dual = dual_model(elimination.model)
        kept_values = transient_target_probabilities(
            dual, reward.upper,
            _indicator(elimination.model.num_states, set(kept_psi)),
            epsilon=epsilon, metrics_engine="transient")
        probabilities = elimination.lift(kept_values,
                                         model.num_states)
        return np.clip(probabilities, 0.0, 1.0)
    dual = dual_model(reduced)
    probabilities = transient_target_probabilities(
        dual, reward.upper, _indicator(model.num_states, psi),
        epsilon=epsilon, metrics_engine="transient")
    return np.clip(probabilities, 0.0, 1.0)


def require_p3_bounds(time: Interval, reward: Interval) -> None:
    """Raise unless the P3 intervals start at 0 (Section 6)."""
    if time.lower != 0.0 or reward.lower != 0.0:
        raise UnsupportedFormulaError(
            f"intervals {time}/{reward} do not start at 0; no "
            f"computational procedure is available (see Section 6)")


def require_interval_bounds(time: Interval, reward: Interval) -> None:
    """Raise unless certified intervals can enclose the P3 query."""
    require_p3_bounds(time, reward)
    if math.isinf(time.upper) or math.isinf(reward.upper):
        raise UnsupportedFormulaError(
            "certified intervals need finite time and reward bounds; "
            "check unbounded formulas with the exact P0-P2 procedures")


def require_grid_bounds(times: Sequence[float],
                        rewards: Sequence[float]) -> None:
    """Raise unless every bound of a ``(t, r)`` sweep grid is finite."""
    for axis, bounds in (("time", times), ("reward", rewards)):
        if any(math.isinf(bound) for bound in bounds):
            raise UnsupportedFormulaError(
                f"sweep grids need finite {axis} bounds; check an "
                f"unbounded formula separately")


def _work(model: MarkovRewardModel, phi: Set[int], psi: Set[int],
          lump: prepass.LumpMode) -> prepass.P3Work:
    return prepass.P3Work.of(until_reduction(model, phi, psi), psi, lump)


def time_reward_bounded_until(model: MarkovRewardModel,
                              phi: Set[int],
                              psi: Set[int],
                              time: Interval,
                              reward: Interval,
                              engine: JointEngine,
                              lump: prepass.LumpMode = "auto"
                              ) -> np.ndarray:
    """Per-state probability of ``Phi U_I^J Psi`` (property class P3).

    Theorem 1 reduces the problem to the joint probability
    ``Pr{Y_t <= r, X_t in Sat(Psi)}`` on the transformed model, which
    *engine* computes (Theorem 2).  When the reduced model admits a
    non-trivial ordinary lumping the engine runs on the quotient and
    the per-block answers are read back through ``block_of`` -- an
    exact rewrite, see :mod:`repro.mc.prepass` (*lump* = ``False``
    disables it).

    A single batched :meth:`JointEngine.joint_probability_vector` call
    covers **all** initial states in one propagation (no per-state
    loop), and its result is memoised in the shared joint-vector cache
    keyed by the reduced model's content fingerprint, so repeating an
    identical check is a cache hit.
    """
    require_p3_bounds(time, reward)
    if math.isinf(time.upper):
        return reward_bounded_until(model, phi, psi, reward)
    if math.isinf(reward.upper):
        return time_bounded_until(model, phi, psi, time)
    return joint_vector(_work(model, phi, psi, lump), time, reward, engine)


def joint_vector(work: prepass.P3Work, time: Interval, reward: Interval,
                 engine: JointEngine) -> np.ndarray:
    """:func:`time_reward_bounded_until` on a prepared query."""
    return work.lift(engine.joint_probability_vector(
        work.model, time.upper, reward.upper, work.target))


def time_reward_bounded_until_interval(model: MarkovRewardModel,
                                       phi: Set[int],
                                       psi: Set[int],
                                       time: Interval,
                                       reward: Interval,
                                       engine: JointEngine,
                                       lump: prepass.LumpMode = "auto"
                                       ) -> "tuple[np.ndarray, np.ndarray]":
    """Certified per-state bounds on ``Phi U_I^J Psi`` (class P3).

    The Theorem 1 reduction is exact, so a sound enclosure of the
    joint probability on the reduced model (the engine's
    :meth:`~repro.algorithms.base.JointEngine.\
joint_probability_interval`) is a sound enclosure of the until
    probability; returns ``(lower, upper)`` vectors with
    ``lower[s] <= Pr{s |= Phi U_I^J Psi} <= upper[s]``.  The lumping
    pre-pass (:mod:`repro.mc.prepass`) composes soundly: the quotient
    is exactly equivalent, so its enclosure lifts per block.
    """
    require_interval_bounds(time, reward)
    return joint_interval(_work(model, phi, psi, lump), time, reward,
                          engine)


def joint_interval(work: prepass.P3Work, time: Interval, reward: Interval,
                   engine: JointEngine
                   ) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`time_reward_bounded_until_interval` on a prepared query."""
    lower, upper = engine.joint_probability_interval(
        work.model, time.upper, reward.upper, work.target)
    return work.lift(lower), work.lift(upper)


def time_reward_bounded_until_sweep(model: MarkovRewardModel,
                                    phi: Set[int],
                                    psi: Set[int],
                                    times: Sequence[float],
                                    rewards: Sequence[float],
                                    engine: JointEngine,
                                    lump: prepass.LumpMode = "auto",
                                    executor=None,
                                    checkpoint=None) -> np.ndarray:
    """P3 probabilities for a whole ``(t, r)`` grid of bounds.

    Returns the ``(len(times), len(rewards), |S|)`` array whose cell
    ``[i, j]`` equals :func:`time_reward_bounded_until` with
    ``I = [0, times[i]]`` and ``J = [0, rewards[j]]``.  The Theorem 1
    reduction is performed **once** -- it only depends on the
    satisfaction sets, not on the bounds -- and the engine evaluates
    the grid with its shared-prefix sweep
    (:meth:`JointEngine.joint_probability_sweep`) instead of one
    propagation per bound pair.  All bounds must be finite; unbounded
    rows or columns belong to the cheaper P0--P2 procedures.

    With *executor* (``"process"`` or a
    :class:`~repro.exec.ProcessShardExecutor`) and/or *checkpoint*
    (a path) the grid's shared-work units run through the
    fault-tolerant partial-sweep machinery instead of the all-or-
    nothing run, with durable per-unit progress; values are
    bit-identical.  This full-grid entry point still promises a
    complete grid, so cells that permanently failed raise a
    :class:`~repro.errors.ParallelExecutionError` carrying every
    per-cell failure (resuming from the checkpoint retries only the
    missing cells).
    """
    require_grid_bounds(times, rewards)
    return joint_sweep(_work(model, phi, psi, lump), times, rewards,
                       engine, executor=executor, checkpoint=checkpoint)


def joint_sweep(work: prepass.P3Work,
                times: Sequence[float],
                rewards: Sequence[float],
                engine: JointEngine,
                executor=None,
                checkpoint=None) -> np.ndarray:
    """:func:`time_reward_bounded_until_sweep` on a prepared query."""
    if executor is not None or checkpoint is not None:
        partial = engine.joint_probability_sweep_partial(
            work.model, times, rewards, work.target,
            executor=executor, checkpoint=checkpoint)
        if not partial.complete:
            from repro.errors import ParallelExecutionError, WorkerError
            failures = list(partial.failures)
            if not failures:
                failures = [
                    WorkerError(pos, NumericalError("cell not evaluated"),
                                f"cell (t={times[i]}, r={rewards[j]})")
                    for pos, (i, j) in enumerate(partial.unevaluated)]
            raise ParallelExecutionError(
                failures, len(times) * len(rewards))
        grid = partial.grid
    else:
        grid = engine.joint_probability_sweep(
            work.model, times, rewards, work.target)
    return work.lift(grid)
