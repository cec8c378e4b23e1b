"""Markov reward models: CTMCs with a state-based reward structure.

An MRM is a tuple ``(S, R, rho)`` where ``(S, R)`` is a CTMC and
``rho : S -> R_{>=0}`` assigns a reward *rate* to each state: a sojourn
of ``t`` time units in state ``s`` earns reward ``rho(s) * t``.  Rewards
can be read as gain/bonus or, dually, as cost (e.g. power consumption in
the paper's case study).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.ctmc.ctmc import CTMC, MatrixLike
from repro.errors import ModelError, RewardError

ImpulseLike = Union[Mapping[Tuple[int, int], float], MatrixLike, None]


class MarkovRewardModel(CTMC):
    """A CTMC extended with a non-negative state reward structure.

    Parameters
    ----------
    rates, labels, initial_distribution, state_names:
        As for :class:`~repro.ctmc.ctmc.CTMC`.
    rewards:
        Vector of reward rates, one non-negative number per state.
        Defaults to all zeros.
    impulse_rewards:
        Optional *impulse* rewards earned instantaneously when a
        transition fires: a mapping ``(source, target) -> value`` or a
        matrix.  Impulses may only sit on existing transitions.  (The
        paper's algorithms are "tailored to state-based rewards only";
        impulses are this library's implementation of its future-work
        item -- supported by the simulator, the discretisation engine
        and the pseudo-Erlang engine, rejected by the occupation-time
        engine and the duality transformation.)
    """

    def __init__(self,
                 rates: MatrixLike,
                 rewards: Optional[Sequence[float]] = None,
                 labels: Optional[Mapping[str, Iterable[int]]] = None,
                 initial_distribution: Optional[Sequence[float]] = None,
                 state_names: Optional[Sequence[str]] = None,
                 impulse_rewards: ImpulseLike = None):
        super().__init__(rates, labels=labels,
                         initial_distribution=initial_distribution,
                         state_names=state_names)
        n = self.num_states
        if rewards is None:
            rho = np.zeros(n)
        else:
            rho = np.asarray(rewards, dtype=float)
            if rho.shape != (n,):
                raise ModelError(
                    f"reward vector has shape {rho.shape}, expected ({n},)")
            if not np.all(np.isfinite(rho)):
                first = int(np.flatnonzero(~np.isfinite(rho))[0])
                kind = "NaN" if np.isnan(rho[first]) else "infinite"
                raise RewardError(
                    f"reward rates must be finite: the reward of state "
                    f"{first} is {kind}")
            if np.any(rho < 0.0):
                first = int(np.flatnonzero(rho < 0.0)[0])
                raise RewardError(
                    f"reward rates must be non-negative: the reward of "
                    f"state {first} is {rho[first]}")
        self._rewards = rho
        self._impulses = self._normalize_impulses(impulse_rewards)

    def _normalize_impulses(self, impulses: ImpulseLike
                            ) -> Optional[sp.csr_matrix]:
        if impulses is None:
            return None
        n = self.num_states
        if isinstance(impulses, Mapping):
            if not impulses:
                return None
            rows, cols, vals = [], [], []
            for (source, target), value in impulses.items():
                rows.append(int(source))
                cols.append(int(target))
                vals.append(float(value))
            matrix = sp.coo_matrix((vals, (rows, cols)),
                                   shape=(n, n)).tocsr()
        elif sp.issparse(impulses):
            matrix = impulses.tocsr().astype(float)
        else:
            matrix = sp.csr_matrix(np.asarray(impulses, dtype=float))
        if matrix.shape != (n, n):
            raise ModelError(
                f"impulse matrix has shape {matrix.shape}, "
                f"expected ({n}, {n})")
        matrix.eliminate_zeros()
        if matrix.nnz == 0:
            return None
        if not np.all(np.isfinite(matrix.data)):
            coo = matrix.tocoo()
            bad = ~np.isfinite(coo.data)
            first = int(np.flatnonzero(bad)[0])
            kind = "NaN" if np.isnan(coo.data[first]) else "infinite"
            raise RewardError(
                f"impulse rewards must be finite: the impulse on "
                f"transition ({coo.row[first]}, {coo.col[first]}) "
                f"is {kind}")
        if matrix.data.min() < 0.0:
            coo = matrix.tocoo()
            first = int(np.flatnonzero(coo.data < 0.0)[0])
            raise RewardError(
                f"impulse rewards must be non-negative: the impulse on "
                f"transition ({coo.row[first]}, {coo.col[first]}) is "
                f"{coo.data[first]}")
        # Impulses only make sense on existing transitions.
        structure = self.rate_matrix.copy()
        structure.data = np.ones_like(structure.data)
        orphaned = matrix.copy()
        orphaned.data = np.ones_like(orphaned.data)
        if (orphaned - orphaned.multiply(structure)).nnz:
            raise ModelError(
                "impulse rewards must sit on existing transitions")
        return matrix

    def _fingerprint_parts(self):
        """Extend the CTMC content hash with the reward structure."""
        yield from super()._fingerprint_parts()
        yield self._rewards.tobytes()
        if self._impulses is not None:
            yield self._impulses.indptr.tobytes()
            yield self._impulses.indices.tobytes()
            yield np.ascontiguousarray(self._impulses.data).tobytes()

    # ------------------------------------------------------------------

    @property
    def rewards(self) -> np.ndarray:
        """The reward-rate vector ``rho`` (do not mutate)."""
        return self._rewards

    def reward(self, state: int) -> float:
        """The reward rate ``rho(state)``."""
        return float(self._rewards[state])

    @property
    def max_reward(self) -> float:
        """The largest reward rate assigned to any state."""
        return float(self._rewards.max())

    def distinct_rewards(self) -> np.ndarray:
        """Sorted array of the distinct reward rates occurring in the model."""
        return np.unique(self._rewards)

    def reward_partition(self) -> "list[np.ndarray]":
        """Partition of the state space by reward level.

        Returns a list ``[B_0, ..., B_m]`` of index arrays where ``B_j``
        holds the states whose reward equals the ``j``-th smallest
        distinct reward (Sericola's notation).
        """
        levels = self.distinct_rewards()
        return [np.flatnonzero(self._rewards == level) for level in levels]

    def has_integer_rewards(self, tolerance: float = 1e-12) -> bool:
        """True when every reward rate is (numerically) a natural number."""
        return bool(np.all(np.abs(self._rewards
                                  - np.round(self._rewards)) <= tolerance))

    # ------------------------------------------------------------------
    # impulse rewards
    # ------------------------------------------------------------------

    @property
    def has_impulse_rewards(self) -> bool:
        """Whether any transition carries an impulse reward."""
        return self._impulses is not None

    @property
    def impulse_matrix(self) -> sp.csr_matrix:
        """The impulse-reward matrix (all zeros when none were set)."""
        if self._impulses is None:
            return sp.csr_matrix((self.num_states, self.num_states))
        return self._impulses

    def impulse(self, source: int, target: int) -> float:
        """The impulse reward of the transition ``source -> target``."""
        if self._impulses is None:
            return 0.0
        return float(self._impulses[source, target])

    def with_impulse_rewards(self, impulses: ImpulseLike
                             ) -> "MarkovRewardModel":
        """A copy of this model with the given impulse rewards."""
        return MarkovRewardModel(self.rate_matrix,
                                 rewards=self._rewards,
                                 labels=self.labels_as_dict(),
                                 initial_distribution=(
                                     self.initial_distribution),
                                 state_names=self.state_names,
                                 impulse_rewards=impulses)

    # ------------------------------------------------------------------
    # derived models
    # ------------------------------------------------------------------

    def as_ctmc(self) -> CTMC:
        """The underlying CTMC with the reward structure dropped."""
        return CTMC(self.rate_matrix,
                    labels=self.labels_as_dict(),
                    initial_distribution=self.initial_distribution,
                    state_names=self.state_names)

    def with_rewards(self, rewards: Sequence[float]) -> "MarkovRewardModel":
        """A copy of this model with a different rate-reward structure
        (impulse rewards are preserved)."""
        return MarkovRewardModel(self.rate_matrix,
                                 rewards=rewards,
                                 labels=self.labels_as_dict(),
                                 initial_distribution=self.initial_distribution,
                                 state_names=self.state_names,
                                 impulse_rewards=self._impulses)

    def with_initial_state(self, state: int) -> "MarkovRewardModel":
        """A copy of this model started deterministically in *state*."""
        if not 0 <= state < self.num_states:
            raise ModelError(f"state {state} out of range")
        alpha = np.zeros(self.num_states)
        alpha[state] = 1.0
        return MarkovRewardModel(self.rate_matrix,
                                 rewards=self._rewards,
                                 labels=self.labels_as_dict(),
                                 initial_distribution=alpha,
                                 state_names=self.state_names,
                                 impulse_rewards=self._impulses)

    def scaled_rewards(self, factor: float) -> "MarkovRewardModel":
        """A copy with every reward multiplied by *factor* (> 0).

        Scaling rewards by ``c`` scales accumulated reward by ``c``:
        checking a reward bound ``r`` on the original model is the same
        as checking ``c * r`` on the scaled model.  This is the standard
        trick to turn rational rewards into the natural numbers required
        by the discretisation engine.
        """
        if factor <= 0.0:
            raise RewardError("reward scale factor must be positive")
        scaled_impulses = (None if self._impulses is None
                           else self._impulses * factor)
        return MarkovRewardModel(self.rate_matrix,
                                 rewards=self._rewards * factor,
                                 labels=self.labels_as_dict(),
                                 initial_distribution=self.initial_distribution,
                                 state_names=self.state_names,
                                 impulse_rewards=scaled_impulses)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(states={self.num_states}, "
                f"transitions={self.num_transitions}, "
                f"reward_levels={len(self.distinct_rewards())})")


def as_mrm(model: CTMC) -> MarkovRewardModel:
    """*model* as an MRM: itself when it is one, else the same chain
    with every reward zero (a plain CTMC earns nothing, so any
    downward-closed reward bound is trivially met)."""
    if isinstance(model, MarkovRewardModel):
        return model
    return MarkovRewardModel(model.rate_matrix,
                             labels=model.labels_as_dict(),
                             initial_distribution=model.initial_distribution,
                             state_names=model.state_names)
