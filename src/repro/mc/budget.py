"""Per-query resource budgets for certified checking.

A :class:`Budget` bounds one certified query along two axes: a
wall-clock *deadline* and a maximum number of *refinement rounds*
(each evaluation of one engine at one accuracy setting is a round).
The :class:`~repro.mc.certified.CertifiedChecker` consumes rounds
before every engine run and stops refining -- degrading to the next
engine, or reporting UNKNOWN -- once either axis is exhausted, so a
query near a probability threshold can never refine forever.

Budgets are *per query*: :meth:`Budget.restart` rewinds both axes, and
the checker restarts the budget at the beginning of every ``check``
call, so one Budget object can be attached to a checker and reused.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.errors import NumericalError


class Budget:
    """Wall-clock and refinement-round budget of one certified query.

    Parameters
    ----------
    seconds:
        Wall-clock allowance; ``None`` means unlimited.  Measured with
        ``time.monotonic`` from the most recent :meth:`restart`.
    max_rounds:
        Total number of engine evaluations (initial runs *and*
        refinements, across the whole fallback chain) the query may
        spend; ``None`` means unlimited.

    >>> budget = Budget(max_rounds=2)
    >>> budget.take_round(), budget.take_round(), budget.take_round()
    (True, True, False)
    """

    def __init__(self, seconds: Optional[float] = None,
                 max_rounds: Optional[int] = None):
        if seconds is not None and (
                not math.isfinite(seconds) or seconds <= 0.0):
            raise NumericalError(
                f"budget seconds must be positive and finite, "
                f"got {seconds}")
        if max_rounds is not None and max_rounds < 1:
            raise NumericalError(
                f"budget max_rounds must be >= 1, got {max_rounds}")
        self.seconds = None if seconds is None else float(seconds)
        self.max_rounds = (None if max_rounds is None
                           else int(max_rounds))
        self.rounds_used = 0
        self._start = time.monotonic()

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never expires."""
        return cls()

    def restart(self) -> "Budget":
        """Rewind both axes (new query); returns self for chaining."""
        self.rounds_used = 0
        self._start = time.monotonic()
        return self

    def remaining_seconds(self) -> float:
        """Wall-clock time left (``inf`` when unlimited)."""
        if self.seconds is None:
            return math.inf
        return max(0.0, self._start + self.seconds - time.monotonic())

    @property
    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed."""
        return self.remaining_seconds() <= 0.0

    @property
    def rounds_exhausted(self) -> bool:
        """Whether every refinement round has been spent."""
        return (self.max_rounds is not None
                and self.rounds_used >= self.max_rounds)

    def take_round(self) -> bool:
        """Consume one refinement round if any resource remains.

        Returns ``False`` -- without consuming -- when the deadline
        has passed or all rounds are spent; the caller then stops
        computing and reports with what it has.
        """
        if self.expired or self.rounds_exhausted:
            return False
        self.rounds_used += 1
        return True

    def __repr__(self) -> str:
        return (f"Budget(seconds={self.seconds}, "
                f"max_rounds={self.max_rounds}, "
                f"rounds_used={self.rounds_used})")
