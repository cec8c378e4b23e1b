"""Retry policies and circuit breakers for the process executor.

Two small, independently testable pieces of fault-tolerance policy:

* :class:`RetryPolicy` -- bounded retries, the first one at once and
  later ones with exponential backoff and *deterministic* jitter: the
  jitter for attempt ``a`` of task key
  ``k`` is a pure function of ``(seed, k, a)`` (a BLAKE2b hash mapped
  to ``[0, 1)``), so two runs of the same sweep space their retries
  identically and tests can assert exact delays.  Jitter affects only
  *when* a retry runs, never *what* it computes, so the bit-identical
  results contract is untouched.
* :class:`CircuitBreaker` -- a per-key (engine/backend) failure gate:
  after ``failure_threshold`` consecutive failures it *opens* and
  vetoes further work for ``cooldown`` seconds, then *half-opens* to
  let one probe through.  The process executor records worker
  failures per engine here, and the
  :class:`~repro.mc.certified.CertifiedChecker` consults the shared
  :data:`BREAKERS` registry before invoking an engine -- a repeatedly
  crashing engine/backend is skipped exactly like a statically vetoed
  one, feeding the existing fallback chain.

Breaker state transitions are counted in the always-on metrics
registry (``repro_breaker_open_total{key=...}``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import NumericalError
from repro.exec.faultinject import _unit_hash
from repro.obs import REGISTRY


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries: the first at once, later ones with exponential
    backoff and deterministic jitter.

    The first retry runs on a fresh worker (or re-sends a result that
    arrived corrupt), so waiting would only lengthen the sweep; a fault
    that keeps recurring is spaced out from the second retry on.

    Attributes
    ----------
    max_retries:
        Retries *after* the first attempt; a task is given up on (and
        surfaces as a :class:`~repro.errors.WorkerError`) once it has
        failed ``max_retries + 1`` times.
    base_delay:
        Backoff before the second retry, in seconds: retry 1 waits 0,
        retry ``a >= 2`` waits ``base_delay * 2**(a-2)`` (capped at
        :attr:`max_delay`) plus jitter.
    max_delay:
        Upper bound on the un-jittered backoff.
    jitter:
        Fraction of the backoff added as deterministic jitter:
        the actual delay is ``backoff * (1 + jitter * u)`` with
        ``u = hash(seed, key, attempt) in [0, 1)``.
    seed:
        Jitter seed -- fixed so repeated runs schedule identically.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise NumericalError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise NumericalError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise NumericalError(
                f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, key, attempt: int) -> float:
        """Seconds to wait before retry *attempt* (1-based) of *key*."""
        if attempt <= 1:
            return 0.0
        backoff = min(self.base_delay * 2.0 ** (attempt - 2),
                      self.max_delay)
        return backoff * (1.0 + self.jitter
                          * _unit_hash(self.seed, key, attempt))

    def gives_up(self, failures: int) -> bool:
        """Whether a task that failed *failures* times is abandoned."""
        return failures > self.max_retries


class CircuitBreaker:
    """Consecutive-failure gate with open/half-open/closed states.

    All mutation is lock-protected; :meth:`allow` is the single entry
    point callers use before dispatching work.
    """

    def __init__(self, key: str, failure_threshold: int = 5,
                 cooldown: float = 30.0):
        if failure_threshold < 1:
            raise NumericalError(
                f"failure_threshold must be >= 1, got "
                f"{failure_threshold}")
        self.key = key
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._half_open_probe = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if time.monotonic() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether new work may be dispatched behind this breaker.

        Closed: always.  Open: never.  Half-open: exactly one probe is
        let through per cooldown window; its outcome (via
        :meth:`record_success` / :meth:`record_failure`) closes or
        re-opens the breaker.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._half_open_probe:
                return False
            self._half_open_probe = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._half_open_probe = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            was_open = self._opened_at is not None
            if self._half_open_probe:
                # The probe failed: restart the cooldown window.
                self._opened_at = time.monotonic()
                self._half_open_probe = False
                return
            if (not was_open and self._consecutive_failures
                    >= self.failure_threshold):
                self._opened_at = time.monotonic()
                REGISTRY.counter("repro_breaker_open_total",
                                 key=self.key).inc()

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.key!r}, state={self.state}, "
                f"failures={self.consecutive_failures}/"
                f"{self.failure_threshold})")


class BreakerRegistry:
    """Process-wide map of circuit breakers, keyed by engine/backend.

    The process executor records per-engine worker failures here and
    the certified checker's fallback chain reads it -- one shared
    ledger, so a breaker opened by a crashing sweep also protects
    subsequent certified queries.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 30.0):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, key: str) -> CircuitBreaker:
        """The breaker for *key*, created closed on first use."""
        with self._lock:
            existing = self._breakers.get(key)
            if existing is None:
                existing = CircuitBreaker(
                    key, failure_threshold=self.failure_threshold,
                    cooldown=self.cooldown)
                self._breakers[key] = existing
            return existing

    def get(self, key: str) -> Optional[CircuitBreaker]:
        """The breaker for *key* if one exists (no creation)."""
        with self._lock:
            return self._breakers.get(key)

    def is_open(self, key: str) -> bool:
        """Whether dispatch behind *key* is currently vetoed."""
        breaker = self.get(key)
        return breaker is not None and not breaker.allow()

    def reset(self) -> None:
        """Drop every breaker (tests and long-running daemons)."""
        with self._lock:
            self._breakers.clear()

    def open_keys(self) -> "list[str]":
        """Keys whose breakers are not closed (open or half-open).

        The process executor's progress line and ``repro check -v``
        use this to show which engine/backend combinations are
        currently being vetoed.
        """
        return [breaker.key for breaker in self
                if breaker.state != "closed"]

    def __iter__(self) -> Iterator[CircuitBreaker]:
        with self._lock:
            return iter(list(self._breakers.values()))


#: The process-wide breaker registry shared by the process executor
#: (writer) and the certified checker's fallback chain (reader).
BREAKERS = BreakerRegistry()
