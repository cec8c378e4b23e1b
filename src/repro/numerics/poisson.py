"""Poisson probabilities for uniformisation (Fox--Glynn style).

Uniformisation expresses the transient behaviour of a CTMC as a Poisson
mixture of the powers of a DTMC matrix.  The numerically delicate part
is the computation of the Poisson probabilities

    psi_k(q) = e^{-q} q^k / k!

for large ``q`` without underflow (``e^{-q}`` underflows for
``q > 745``) and with a certified truncation error.  We follow the
strategy of Fox and Glynn: anchor the recurrence at the mode of the
distribution, extend left and right until the terms are negligible
relative to the requested accuracy, and normalise by the accumulated
total weight.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.algorithms.cache import poisson_cache
from repro.errors import NumericalError
from repro.obs import OBS

# Weight arrays are pure functions of (rate, epsilon) and every
# uniformisation-based procedure recomputes them per call; sweeps over
# t or over models with equal uniformisation rates hit the same pairs
# over and over, so the arrays are memoised process-wide in
# ``repro.algorithms.cache.poisson_cache``.  Entries are frozen
# dataclasses holding read-only arrays -- safe to share.


def clear_poisson_cache() -> None:
    """Empty the module-level Fox--Glynn weight cache."""
    poisson_cache.clear()


def poisson_cache_info() -> Dict[str, int]:
    """Size and lifetime hit/miss counts of the weight cache."""
    info = poisson_cache.info()
    return {key: info[key] for key in ("size", "maxsize", "hits",
                                       "misses")}


@dataclass(frozen=True)
class PoissonWeights:
    """Truncated, normalised Poisson probabilities.

    Attributes
    ----------
    rate:
        The Poisson rate ``q`` (for uniformisation, ``lambda * t``).
    left, right:
        The truncation window; ``weights[i]`` approximates the Poisson
        probability of ``left + i``.
    weights:
        Normalised probabilities over the window (they sum to 1, hence
        slightly over-estimate each true probability by the discarded
        tail mass, which is below the requested epsilon).
    epsilon:
        The bound on the total discarded tail mass.
    """

    rate: float
    left: int
    right: int
    weights: np.ndarray
    epsilon: float

    def __len__(self) -> int:
        return self.right - self.left + 1

    def probability(self, k: int) -> float:
        """The (normalised) Poisson probability of *k* (0 outside window)."""
        if self.left <= k <= self.right:
            return float(self.weights[k - self.left])
        return 0.0

    def tail_from(self) -> np.ndarray:
        """Array ``T`` with ``T[i] = sum_{j >= i} weights[j]``.

        Useful for integrating uniformisation series, where the
        coefficient of the ``k``-th DTMC power in ``int_0^t pi(u) du``
        is the Poisson *tail* beyond ``k`` divided by the rate.
        """
        return np.cumsum(self.weights[::-1])[::-1]

    def remaining_after(self, n: int) -> float:
        """Normalised mass beyond term *n*: ``sum_{k > n} weights[k]``.

        This is the truncation error still outstanding after iteration
        *n* of a uniformisation series whose inner terms are bounded by
        one -- the ``residual`` a series span carries once its loop
        ends.
        """
        index = n + 1 - self.left
        if index <= 0:
            return 1.0
        return float(self.weights[index:].sum())


def poisson_weights(rate: float, epsilon: float = 1e-12) -> PoissonWeights:
    """Compute truncated Poisson probabilities with tail mass <= *epsilon*.

    Parameters
    ----------
    rate:
        Poisson rate ``q >= 0``.
    epsilon:
        Bound on the discarded probability mass (left and right tails
        together).

    Notes
    -----
    The recurrence ``psi_{k+1} = psi_k * q / (k+1)`` is anchored with
    weight 1 at the mode ``floor(q)``, so no intermediate value can
    overflow and underflow only affects terms that are at least thirty
    orders of magnitude below the requested accuracy.
    """
    if rate < 0.0 or not math.isfinite(rate):
        raise NumericalError(f"Poisson rate must be finite and >= 0, "
                             f"got {rate}")
    if not 0.0 < epsilon < 1.0:
        raise NumericalError(f"epsilon must be in (0, 1), got {epsilon}")

    key = (float(rate), float(epsilon))
    cached = poisson_cache.get(key)
    if cached is not None:
        return cached

    start = time.perf_counter() if OBS.enabled else None
    computed = _compute_weights(rate, epsilon)
    if start is not None:
        OBS.metrics.histogram("repro_fox_glynn_seconds").observe(
            time.perf_counter() - start)
        OBS.metrics.gauge(
            "repro_fox_glynn_right_point").update_max(computed.right)
    computed.weights.flags.writeable = False
    poisson_cache.put(key, computed)
    return computed


def _compute_weights(rate: float, epsilon: float) -> PoissonWeights:
    """The uncached Fox--Glynn computation behind :func:`poisson_weights`."""
    if rate == 0.0:
        return PoissonWeights(rate=0.0, left=0, right=0,
                              weights=np.array([1.0]), epsilon=epsilon)

    mode = int(math.floor(rate))
    # Terms this far below the mode weight are irrelevant even after
    # summing over the whole window.
    window_hint = 4.0 * math.sqrt(rate) + 20.0
    cutoff = (epsilon / window_hint) * 1e-6

    # Extend right from the mode.
    right_weights = [1.0]
    weight = 1.0
    k = mode
    while weight >= cutoff:
        k += 1
        weight *= rate / k
        right_weights.append(weight)
        if k > mode + 100 and k > 10 * rate:
            break
    right = k

    # Extend left from the mode.
    left_weights = []
    weight = 1.0
    k = mode
    while k > 0:
        weight *= k / rate
        k -= 1
        if weight < cutoff:
            break
        left_weights.append(weight)

    weights = np.array(left_weights[::-1] + right_weights)
    left = mode - len(left_weights)
    total = weights.sum()
    weights /= total

    # Now trim the window so that the *represented* tails outside
    # [left', right'] stay below epsilon (split between both sides).
    cumulative = np.cumsum(weights)
    half = epsilon / 2.0
    trim_left = int(np.searchsorted(cumulative, half, side="right"))
    # keep indices trim_left .. trim_right
    upper = 1.0 - half
    trim_right = int(np.searchsorted(cumulative, upper, side="left"))
    trim_right = min(trim_right, len(weights) - 1)
    trimmed = weights[trim_left:trim_right + 1].copy()
    trimmed /= trimmed.sum()
    return PoissonWeights(rate=rate,
                          left=left + trim_left,
                          right=left + trim_right,
                          weights=trimmed,
                          epsilon=epsilon)


def right_truncation_point(rate: float, epsilon: float) -> int:
    """Smallest ``N`` with ``sum_{n=0}^{N} e^{-q} q^n / n! > 1 - epsilon``.

    This is the a-priori step bound used by the occupation-time
    algorithm (Section 4.4 of the paper): with ``q = lambda * t``,
    truncating the uniformisation series after ``N`` steps keeps the
    error below *epsilon* because every inner sum is bounded by one.
    """
    if rate < 0.0 or not math.isfinite(rate):
        raise NumericalError(f"Poisson rate must be finite and >= 0, "
                             f"got {rate}")
    if not 0.0 < epsilon < 1.0:
        raise NumericalError(f"epsilon must be in (0, 1), got {epsilon}")
    if rate == 0.0:
        return 0

    # Work with unnormalised weights anchored at the mode, accumulate
    # until the remaining (represented) mass drops below epsilon.
    full = poisson_weights(rate, epsilon=min(epsilon * 1e-6, 1e-13))
    cumulative = np.cumsum(full.weights)
    # Probability mass of 0..left-1 is below the tiny internal epsilon,
    # so cumulative[i] is (up to that) the CDF at full.left + i.
    index = int(np.searchsorted(cumulative, 1.0 - epsilon, side="left"))
    if index >= len(cumulative):
        raise NumericalError("failed to locate truncation point")
    return full.left + index
