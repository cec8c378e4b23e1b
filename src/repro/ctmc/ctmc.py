"""Labelled continuous-time Markov chains.

A CTMC is given by a finite state space ``{0, ..., n-1}``, a rate matrix
``R`` with non-negative off-diagonal entries (``R[s, s']`` is the rate of
moving from ``s`` to ``s'``), a labelling of states with atomic
propositions, and an initial probability distribution.

Following the paper, we work with the rate matrix ``R`` and exit-rate
vector ``E(s) = sum_{s'} R(s, s')`` rather than with the infinitesimal
generator ``Q``; the two are related by ``Q = R - diag(E)``.  Self-loops
are permitted in ``R`` (they are meaningful for the logic's NEXT
operator and for uniformisation) although most models have none.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError

MatrixLike = Union[np.ndarray, sp.spmatrix, Sequence[Sequence[float]]]


def _as_csr(rates: MatrixLike) -> sp.csr_matrix:
    """Convert *rates* to a validated CSR matrix with explicit zeros pruned."""
    if sp.issparse(rates):
        matrix = rates.tocsr().astype(float)
    else:
        matrix = sp.csr_matrix(np.asarray(rates, dtype=float))
    if matrix.shape[0] != matrix.shape[1]:
        raise ModelError(
            f"rate matrix must be square, got shape {matrix.shape}")
    matrix.eliminate_zeros()
    if matrix.nnz:
        data = matrix.data
        if not np.all(np.isfinite(data)):
            coo = matrix.tocoo()
            bad = ~np.isfinite(coo.data)
            first = int(np.flatnonzero(bad)[0])
            kind = "NaN" if np.isnan(coo.data[first]) else "infinite"
            count = int(bad.sum())
            extra = (f" ({count} non-finite entries in total)"
                     if count > 1 else "")
            raise ModelError(
                f"rate matrix entries must be finite: entry "
                f"({coo.row[first]}, {coo.col[first]}) is {kind}{extra}")
        if data.min() < 0.0:
            coo = matrix.tocoo()
            negative = coo.data < 0.0
            if np.all(coo.row[negative] == coo.col[negative]):
                raise ModelError(
                    "rate matrix entries must be non-negative; the "
                    "negative entries all sit on the diagonal, which "
                    "suggests a generator matrix Q was passed -- pass "
                    "the rate matrix R (Q = R - diag(E)) instead")
            first = int(np.flatnonzero(negative)[0])
            raise ModelError(
                f"rate matrix entries must be non-negative: entry "
                f"({coo.row[first]}, {coo.col[first]}) is "
                f"{coo.data[first]}")
    return matrix


def absorb_rows(matrix: sp.csr_matrix,
                rows: np.ndarray) -> sp.csr_matrix:
    """A copy of the CSR *matrix* whose rows selected by the boolean
    mask *rows* are empty: those states become absorbing.  The kept
    entries stay in their order, so a canonical input gives a
    canonical output."""
    counts = np.diff(matrix.indptr)
    keep = np.repeat(~rows, counts)
    indptr = np.zeros_like(matrix.indptr)
    np.cumsum(np.where(rows, 0, counts), out=indptr[1:])
    return sp.csr_matrix((matrix.data[keep], matrix.indices[keep], indptr),
                         shape=matrix.shape)


class CTMC:
    """A finite, labelled continuous-time Markov chain.

    Parameters
    ----------
    rates:
        Square matrix of transition rates; entry ``(s, s')`` is the rate
        of the transition from state ``s`` to state ``s'``.  Dense
        arrays, nested sequences and scipy sparse matrices are accepted.
    labels:
        Mapping from atomic proposition name to the collection of state
        indices in which the proposition holds.
    initial_distribution:
        Initial probability vector ``alpha``; defaults to a point mass
        on state 0.
    state_names:
        Optional human-readable names, one per state.
    """

    def __init__(self,
                 rates: MatrixLike,
                 labels: Optional[Mapping[str, Iterable[int]]] = None,
                 initial_distribution: Optional[Sequence[float]] = None,
                 state_names: Optional[Sequence[str]] = None):
        self._rates = _as_csr(rates)
        n = self._rates.shape[0]
        if n == 0:
            raise ModelError("a CTMC needs at least one state")

        self._labels: Dict[str, FrozenSet[int]] = {}
        for ap, states in (labels or {}).items():
            state_set = frozenset(int(s) for s in states)
            for s in state_set:
                if not 0 <= s < n:
                    raise ModelError(
                        f"label {ap!r} refers to state {s}, "
                        f"but the chain has {n} states")
            self._labels[str(ap)] = state_set

        if initial_distribution is None:
            alpha = np.zeros(n)
            alpha[0] = 1.0
        else:
            alpha = np.asarray(initial_distribution, dtype=float)
            if alpha.shape != (n,):
                raise ModelError(
                    f"initial distribution has shape {alpha.shape}, "
                    f"expected ({n},)")
            if not np.all(np.isfinite(alpha)):
                raise ModelError(
                    "initial distribution must be finite "
                    "(it contains NaN or infinite entries)")
            if np.any(alpha < 0.0):
                raise ModelError("initial distribution must be non-negative")
            total = alpha.sum()
            if not np.isclose(total, 1.0, atol=1e-9):
                raise ModelError(
                    f"initial distribution sums to {total}, expected 1")
        self._alpha = alpha

        if state_names is not None:
            names = [str(name) for name in state_names]
            if len(names) != n:
                raise ModelError(
                    f"{len(names)} state names given for {n} states")
            if len(set(names)) != len(names):
                raise ModelError("state names must be unique")
            self._state_names: Optional[List[str]] = names
            self._name_index = {name: i for i, name in enumerate(names)}
        else:
            self._state_names = None
            self._name_index = {}

        self._exit_rates = np.asarray(
            self._rates.sum(axis=1)).ravel()
        # Lazily computed content hash and derived-matrix cache; both
        # are per-instance and rely on the documented immutability of
        # the model (every "mutator" returns a fresh copy).
        self._fingerprint: Optional[str] = None
        self._derived: Dict = {}

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return self._rates.shape[0]

    @property
    def num_transitions(self) -> int:
        """Number of transitions (non-zero rate entries)."""
        return self._rates.nnz

    @property
    def rate_matrix(self) -> sp.csr_matrix:
        """The rate matrix ``R`` as a CSR matrix (do not mutate)."""
        return self._rates

    @property
    def exit_rates(self) -> np.ndarray:
        """Vector ``E`` with ``E[s] = sum_{s'} R[s, s']``."""
        return self._exit_rates

    @property
    def max_exit_rate(self) -> float:
        """The largest exit rate, a valid uniformisation rate."""
        return float(self._exit_rates.max())

    @property
    def initial_distribution(self) -> np.ndarray:
        """The initial probability vector ``alpha`` (do not mutate)."""
        return self._alpha

    @property
    def state_names(self) -> Optional[List[str]]:
        """Optional list of state names (``None`` when unnamed)."""
        return list(self._state_names) if self._state_names else None

    def name_of(self, state: int) -> str:
        """Return the name of *state* (its index as a string if unnamed)."""
        if self._state_names is not None:
            return self._state_names[state]
        return str(state)

    def state_index(self, name: str) -> int:
        """Return the index of the state called *name*.

        Raises :class:`~repro.errors.ModelError` if no such state exists.
        """
        try:
            return self._name_index[name]
        except KeyError:
            raise ModelError(f"no state named {name!r}") from None

    def rate(self, source: int, target: int) -> float:
        """The transition rate ``R[source, target]``."""
        return float(self._rates[source, target])

    def successors(self, state: int) -> List[int]:
        """Indices of states reachable from *state* in one transition."""
        row = self._rates.getrow(state)
        return list(row.indices)

    def is_absorbing(self, state: int) -> bool:
        """True when *state* has no outgoing transitions."""
        return bool(self._exit_rates[state] == 0.0)

    # ------------------------------------------------------------------
    # content identity and derived-matrix caches
    # ------------------------------------------------------------------

    def _fingerprint_parts(self) -> Iterator[bytes]:
        """Byte chunks feeding the content hash (extended by subclasses).

        Covers everything the numerical procedures read: the rate
        matrix and the initial distribution.  Labels and state names
        are deliberately excluded -- they never influence a numerical
        result, so models differing only in labelling share caches.
        """
        yield np.int64(self._rates.shape[0]).tobytes()
        yield self._rates.indptr.tobytes()
        yield self._rates.indices.tobytes()
        yield np.ascontiguousarray(self._rates.data).tobytes()
        yield self._alpha.tobytes()

    @property
    def fingerprint(self) -> str:
        """A cheap content hash identifying this model for caching.

        Two models with identical rates, initial distribution and (for
        MRMs) reward structure share the fingerprint, however they were
        constructed.  The model classes are immutable value objects --
        every transformation (:meth:`~repro.ctmc.mrm.MarkovRewardModel.\
with_rewards`, reductions, ...) returns a *new* instance, which gets a
        new fingerprint -- so a fingerprint, once computed, stays valid
        for the object's lifetime.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for part in self._fingerprint_parts():
                digest.update(part)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def generator_matrix(self) -> sp.csr_matrix:
        """The infinitesimal generator ``Q = R - diag(E)`` (cached)."""
        cached = self._derived.get("Q")
        if cached is None:
            cached = (self._rates
                      - sp.diags(self._exit_rates, format="csr")).tocsr()
            self._derived["Q"] = cached
        return cached

    def uniformized_dtmc_matrix(self, rate: Optional[float] = None
                                ) -> sp.csr_matrix:
        """The uniformised DTMC matrix ``P = I + Q / rate``.

        Parameters
        ----------
        rate:
            Uniformisation rate; must be at least :attr:`max_exit_rate`.
            Defaults to :attr:`max_exit_rate` itself (or 1.0 for a chain
            with no transitions, where any positive rate yields ``P = I``).
        """
        if rate is None:
            rate = self.max_exit_rate or 1.0
        if rate <= 0.0:
            raise ModelError("uniformisation rate must be positive")
        if rate < self.max_exit_rate - 1e-12 * max(1.0, self.max_exit_rate):
            raise ModelError(
                f"uniformisation rate {rate} is below the maximal exit "
                f"rate {self.max_exit_rate}")
        cached = self._derived.get(("P", float(rate)))
        if cached is not None:
            return cached
        probs = self._rates / rate
        stay = 1.0 - self._exit_rates / rate
        # Clamp tiny negative values caused by rounding.
        stay = np.where(np.abs(stay) < 1e-14, 0.0, stay)
        matrix = (probs + sp.diags(stay, format="csr")).tocsr()
        self._derived[("P", float(rate))] = matrix
        return matrix

    # ------------------------------------------------------------------
    # labelling
    # ------------------------------------------------------------------

    @property
    def atomic_propositions(self) -> List[str]:
        """Sorted list of atomic propositions used in the labelling."""
        return sorted(self._labels)

    def states_with(self, ap: str) -> FrozenSet[int]:
        """The set of states labelled with atomic proposition *ap*.

        An unknown proposition denotes the empty set (it holds nowhere),
        which matches the logic's semantics.
        """
        return self._labels.get(ap, frozenset())

    def labels_of(self, state: int) -> Set[str]:
        """The set of atomic propositions holding in *state*."""
        return {ap for ap, states in self._labels.items() if state in states}

    def labels_as_dict(self) -> Dict[str, FrozenSet[int]]:
        """A copy of the full labelling (proposition -> state set)."""
        return dict(self._labels)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(states={self.num_states}, "
                f"transitions={self.num_transitions}, "
                f"propositions={len(self._labels)})")
