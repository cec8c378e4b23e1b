"""Shared memoisation layer of the joint-distribution engines.

Checking a P3-type until formula needs ``Pr{Y_t <= r, X_t in S'}`` for
*every* state; sweeps (the paper's Tables 2--4) and nested formulas
re-ask the same question with identical parameters many times.  This
module provides the process-wide caches that make those repeats free:

* :data:`joint_cache` -- an LRU of joint-probability *vectors*, keyed
  on ``(model fingerprint, engine parameters, t, r, target mask)``.
  :class:`~repro.algorithms.base.JointEngine` consults it before every
  computation, so any engine instance with equal parameters shares
  results for content-identical models (the fingerprint, see
  :attr:`repro.ctmc.ctmc.CTMC.fingerprint`, is a content hash --
  models are immutable value objects, so content identity is cache
  validity).
* :data:`matrix_cache` -- an LRU of *transformed sparse matrices* that
  are expensive to rebuild per call: the discretisation's reward-step
  matrices grouped by impulse displacement, and the pseudo-Erlang
  phase-expanded chains.
* :data:`poisson_cache` -- an LRU of Fox--Glynn Poisson weights, keyed
  on ``(rate, epsilon)``.

The caches store only derived, immutable data; entries are evicted in
least-recently-used order, never invalidated (a mutated model would be
a new object with a new fingerprint).  :func:`clear_caches` empties
everything, which the benchmarks use to measure cold-cache timings.
Every cache operation holds a per-cache lock, so concurrent threads
can share the caches safely.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional

import numpy as np
import scipy.sparse as sp


def value_nbytes(value: Any) -> int:
    """Approximate in-memory footprint of a cached value, in bytes.

    Understands the shapes the caches actually store: numpy arrays,
    scipy sparse matrices, tuples/lists/dicts thereof, and objects
    holding them (``PoissonWeights``, the kernel plans and step
    operators, the models in Erlang's entries), which count their
    ``sys.getsizeof`` header plus every such attribute -- instance
    ``__dict__`` and ``__slots__`` alike.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if sp.issparse(value):
        total = int(value.data.nbytes)
        for attr in ("indices", "indptr", "row", "col", "offsets"):
            part = getattr(value, attr, None)
            if part is not None:
                total += int(part.nbytes)
        return total
    if isinstance(value, (tuple, list)):
        return sum(value_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(value_nbytes(item) for item in value.values())
    return int(sys.getsizeof(value)) + sum(
        value_nbytes(part) for part in _attributes(value)
        if isinstance(part, (np.ndarray, tuple, list, dict))
        or sp.issparse(part))


def _attributes(value: Any) -> List[Any]:
    """The attribute values of *value*: its ``__dict__`` and slots."""
    parts = list(getattr(value, "__dict__", {}).values())
    for klass in type(value).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if hasattr(value, name) and name != "__weakref__":
                parts.append(getattr(value, name))
    return parts


class LRUCache:
    """A small, generic, thread-safe least-recently-used mapping.

    Entries are bounded both by count (*maxsize*) and, optionally, by
    total byte footprint (*max_bytes*, measured with
    :func:`value_nbytes`): inserting beyond either cap evicts in
    least-recently-used order.  The most recent entry is never evicted
    by the byte cap -- a single oversized value is admitted (and
    counted) rather than thrashing.

    All operations hold an internal lock: several threads may consult
    and fill the shared caches concurrently, and ``OrderedDict``
    reordering is not atomic under free threading.

    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    (0, 1, 1)
    >>> cache.get("a") is None   # evicted
    True
    >>> cache.get("c")
    3
    """

    def __init__(self, maxsize: int = 256,
                 max_bytes: Optional[int] = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.maxsize = int(maxsize)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most recent; None on a miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Insert (or refresh) an entry, evicting the oldest if either
        the count or the byte cap is exceeded; returns the number of
        entries evicted by this insertion."""
        size = value_nbytes(value)
        with self._lock:
            if key in self._data:
                self._bytes -= self._sizes.get(key, 0)
            self._data[key] = value
            self._sizes[key] = size
            self._bytes += size
            self._data.move_to_end(key)
            evicted = 0
            while len(self._data) > 1 and (
                    len(self._data) > self.maxsize
                    or (self.max_bytes is not None
                        and self._bytes > self.max_bytes)):
                old_key, _ = self._data.popitem(last=False)
                self._bytes -= self._sizes.pop(old_key, 0)
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def nbytes(self) -> int:
        """Total byte footprint of the currently cached values."""
        with self._lock:
            return self._bytes

    def info(self) -> Dict[str, int]:
        """Current size, byte footprint and lifetime hit/miss counts."""
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "bytes": self._bytes,
                    "max_bytes": (-1 if self.max_bytes is None
                                  else self.max_bytes),
                    "evictions": self.evictions}


#: Joint-probability vectors, one per grid cell, keyed on
#: ``(model fingerprint, engine token, t, r, target-mask bytes)``.
#: Bounded both in entry count and total bytes: sweeps over large grids
#: stay within a fixed memory budget, with LRU eviction reported via
#: ``repro_engine_cache_evictions_total``.
joint_cache = LRUCache(maxsize=4096, max_bytes=128 * 2 ** 20)

#: Transformed sparse matrices (reward-step groups, expanded chains),
#: keyed on ``(kind, model fingerprint, parameters...)``.
matrix_cache = LRUCache(maxsize=64)

#: Fox--Glynn Poisson weights (:func:`repro.numerics.poisson.\
#: poisson_weights`), keyed on ``(rate, epsilon)``.
poisson_cache = LRUCache(maxsize=512)


def clear_caches() -> None:
    """Empty every module-level cache (joint vectors, matrices, and
    the Fox--Glynn Poisson weights)."""
    joint_cache.clear()
    matrix_cache.clear()
    poisson_cache.clear()


def cache_info() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size summary of all module-level caches."""
    return {"joint": joint_cache.info(),
            "matrix": matrix_cache.info(),
            "poisson": poisson_cache.info()}
