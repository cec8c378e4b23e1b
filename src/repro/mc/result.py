"""Results of model-checking runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from repro.ctmc.ctmc import CTMC
from repro.logic.ast import StateFormula, compare


class Verdict(enum.Enum):
    """Three-valued outcome of a certified threshold comparison.

    ``TRUE``/``FALSE`` are *sound*: every probability inside the
    certified interval is on the same side of the threshold.
    ``UNKNOWN`` means the interval straddles the threshold (or the
    budget ran out before it could be tightened past it) -- the honest
    answer, never a silent guess.
    """

    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    def __bool__(self) -> bool:
        """Truthiness is *conservative*: only ``TRUE`` is truthy."""
        return self is Verdict.TRUE

    def __str__(self) -> str:
        return self.value


def interval_verdict(lower: float, upper: float, comparison: str,
                     bound: float) -> Verdict:
    """Sound three-valued comparison of ``[lower, upper]`` against a
    ``P <|<=|>|>= bound`` threshold.

    Returns ``TRUE`` when every value in the interval satisfies the
    comparison, ``FALSE`` when none does, ``UNKNOWN`` otherwise.

    >>> interval_verdict(0.4, 0.45, "<", 0.5)
    <Verdict.TRUE: 'TRUE'>
    >>> interval_verdict(0.4, 0.6, "<", 0.5)
    <Verdict.UNKNOWN: 'UNKNOWN'>
    >>> interval_verdict(0.6, 0.7, ">=", 0.5)
    <Verdict.TRUE: 'TRUE'>
    """
    lower, upper = float(lower), float(upper)
    if comparison in ("<", "<="):
        if compare(upper, comparison, bound):
            return Verdict.TRUE
        if not compare(lower, comparison, bound):
            return Verdict.FALSE
    elif comparison in (">", ">="):
        if compare(lower, comparison, bound):
            return Verdict.TRUE
        if not compare(upper, comparison, bound):
            return Verdict.FALSE
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return Verdict.UNKNOWN


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking a state formula on a model.

    Attributes
    ----------
    formula:
        The checked state formula.
    states:
        The satisfaction set ``Sat(formula)`` as a frozen set of state
        indices.
    probabilities:
        When the outermost operator is ``P<|p`` or ``S<|p``, the
        per-state numerical values that were compared against the
        bound; ``None`` for purely boolean formulas.
    model:
        The model the formula was checked on (used for pretty
        printing with state names).
    """

    formula: StateFormula
    states: FrozenSet[int]
    model: CTMC
    probabilities: Optional[np.ndarray] = None

    def __contains__(self, state: int) -> bool:
        return state in self.states

    @property
    def holds_initially(self) -> bool:
        """Whether the formula holds under the model's initial distribution.

        For a point-mass initial distribution this is satisfaction in
        the initial state; for a general distribution we require that
        every state carrying initial mass satisfies the formula.
        """
        alpha = self.model.initial_distribution
        return all(int(s) in self.states for s in np.flatnonzero(alpha))

    def probability_of(self, state: int) -> float:
        """The numerical value computed for *state* (if available)."""
        if self.probabilities is None:
            raise ValueError(
                "no probabilities available: the outermost operator of "
                f"{self.formula} is boolean")
        return float(self.probabilities[state])

    def state_names(self) -> "list[str]":
        """Names of the satisfying states, sorted by index."""
        return [self.model.name_of(s) for s in sorted(self.states)]

    def __str__(self) -> str:
        names = ", ".join(self.state_names())
        return f"Sat({self.formula}) = {{{names}}}"
