"""Transient analysis of CTMCs by uniformisation (randomisation).

Uniformisation (Jensen 1953, Gross/Miller 1984) turns the matrix
exponential into a Poisson mixture of DTMC powers:

    pi(t) = alpha e^{Q t} = sum_{k>=0} psi_k(lambda t) * alpha P^k

with ``P = I + Q / lambda`` for any ``lambda >= max_s E(s)`` and
``psi_k`` the Poisson probabilities.  Each step is a sparse
vector--matrix product, and the truncation error is controlled a priori
through the Poisson tail (see :mod:`repro.numerics.poisson`).

The module also provides Poisson-integrated quantities needed for
reward measures: the expected accumulated reward ``E[Y_t]`` uses

    int_0^t alpha e^{Q u} du = (1/lambda) sum_k T_{k+1} * alpha P^k

where ``T_k`` is the Poisson tail ``sum_{j>=k} psi_j(lambda t)``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.ctmc.ctmc import CTMC
from repro.errors import NumericalError
from repro.kernels import KernelBackend, get_backend
from repro.kernels.base import StepOperator, make_operator
from repro.numerics.poisson import poisson_weights
from repro.obs import OBS, count_engine
from repro.obs import span as obs_span

Kernel = Union[str, KernelBackend, None]


def uniformized_operator(model: CTMC, rate: float,
                         transposed: bool = False,
                         policy: str = "auto") -> StepOperator:
    """The uniformised DTMC matrix wrapped as a cached step operator.

    Under the default ``"auto"`` policy small chains go dense (one
    BLAS call per series term) and large ones stay CSR -- see
    :func:`repro.kernels.make_operator`; the sparse/dense backends
    pin the representation through their
    :attr:`~repro.kernels.KernelBackend.operator_policy` instead.
    Cached per ``(model, rate, orientation)`` in the shared matrix
    cache; non-default policies get their own key element, since the
    representation then depends on the requesting backend.
    """
    # Imported lazily: repro.algorithms imports this module during its
    # own package initialisation.
    from repro.algorithms.cache import matrix_cache
    tag = "uniform-op-T" if transposed else "uniform-op"
    key = ((tag, model.fingerprint, float(rate)) if policy == "auto"
           else (tag, model.fingerprint, float(rate), policy))
    operator = matrix_cache.get(key)
    if operator is None:
        matrix = model.uniformized_dtmc_matrix(rate)
        if transposed:
            matrix = matrix.transpose().tocsr()
        operator = make_operator(matrix, policy=policy)
        matrix_cache.put(key, operator)
    return operator


def _step_histogram(backend: KernelBackend,
                    metrics_engine: Optional[str]):
    """The kernel-labelled per-step histogram, or ``None``."""
    if not OBS.enabled or metrics_engine is None:
        return None
    return OBS.metrics.histogram("repro_matvec_block_seconds",
                                 engine=metrics_engine,
                                 kernel=backend.name)


def _count_series(metrics_engine: Optional[str], steps: int) -> None:
    """Count a finished series of *steps* sparse products (one per
    step) against *metrics_engine*, if any."""
    if metrics_engine is not None:
        count_engine(metrics_engine, propagation_steps=steps,
                     matvec_count=steps)


def _end_series(span, weights, steps: int) -> None:
    """Set what a finished uniformisation loop reached on its *span*:
    the *steps* (products) it ran and the Poisson mass left beyond
    them -- the truncation error not covered by computed terms."""
    if OBS.enabled:
        span.set(steps=steps, residual=weights.remaining_after(steps))

# Maximum-norm threshold under which two successive uniformised vectors
# are considered equal for steady-state detection.
_STEADY_STATE_TOLERANCE_FACTOR = 1e-3


def _initial_vector(model: CTMC,
                    initial: Optional[Sequence[float]]) -> np.ndarray:
    if initial is None:
        return model.initial_distribution.copy()
    vector = np.asarray(initial, dtype=float)
    if vector.shape != (model.num_states,):
        raise NumericalError(
            f"initial vector has shape {vector.shape}, expected "
            f"({model.num_states},)")
    return vector.copy()


def transient_distribution(model: CTMC,
                           t: float,
                           initial: Optional[Sequence[float]] = None,
                           epsilon: float = 1e-12,
                           uniformization_rate: Optional[float] = None,
                           steady_state_detection: bool = True,
                           kernel: Kernel = None,
                           metrics_engine: Optional[str] = None
                           ) -> np.ndarray:
    """The state distribution ``pi(t)`` of *model* at time *t*.

    Parameters
    ----------
    model:
        The CTMC to analyse.
    t:
        Non-negative time horizon.
    initial:
        Initial distribution (defaults to the model's own); any
        non-negative vector is accepted, so sub-distributions can be
        propagated as well.
    epsilon:
        Bound on the truncation error (in total variation, per unit of
        initial mass).
    uniformization_rate:
        Override for the uniformisation rate ``lambda``; must be at
        least the maximal exit rate.
    steady_state_detection:
        Stop the series early once the uniformised vector has converged
        (the remaining Poisson mass then multiplies a fixed vector).
    metrics_engine:
        Engine the series is run for: with observability on, its steps
        are timed into ``repro_matvec_block_seconds`` and counted into
        ``repro_engine_propagation_steps_total`` and
        ``repro_engine_matvec_total`` under ``engine=metrics_engine``.
    """
    if t < 0.0:
        raise NumericalError(f"time must be >= 0, got {t}")
    vector = _initial_vector(model, initial)
    if t == 0.0 or model.num_states == 0:
        return vector
    rate = (model.max_exit_rate if uniformization_rate is None
            else float(uniformization_rate))
    if rate == 0.0:
        return vector  # no transitions at all
    backend = get_backend(kernel)
    operator = uniformized_operator(model, rate,
                                    policy=backend.operator_policy)
    hist = _step_histogram(backend, metrics_engine)
    weights = poisson_weights(rate * t, epsilon=epsilon)

    result = np.zeros_like(vector)
    tolerance = (epsilon * _STEADY_STATE_TOLERANCE_FACTOR
                 / max(1.0, float(len(weights))))
    with obs_span("uniformisation_series", depth=weights.right,
                  kind="forward", rate=rate) as span:
        for k in range(weights.right + 1):
            if k >= weights.left:
                result += weights.weights[k - weights.left] * vector
            if k == weights.right:
                break
            if hist is not None:
                block_start = time.perf_counter()
            next_vector = operator.rmatvec(vector)
            if hist is not None:
                hist.observe(time.perf_counter() - block_start)
            if steady_state_detection and k >= weights.left:
                if np.max(np.abs(next_vector - vector)) < tolerance:
                    # Steady state reached: the remaining Poisson mass
                    # all multiplies (approximately) the same vector.
                    remaining = weights.weights[
                        k + 1 - weights.left:].sum()
                    result += remaining * next_vector
                    _end_series(span, weights, k + 1)
                    _count_series(metrics_engine, k + 1)
                    return result
            vector = next_vector
        _end_series(span, weights, weights.right)
    _count_series(metrics_engine, weights.right)
    return result


def transient_target_probabilities(model: CTMC,
                                   t: float,
                                   indicator: Sequence[float],
                                   epsilon: float = 1e-12,
                                   uniformization_rate: Optional[float] = None,
                                   kernel: Kernel = None,
                                   metrics_engine: Optional[str] = None
                                   ) -> np.ndarray:
    """Per-initial-state probability of being in a target set at time *t*.

    Returns the vector ``v`` with ``v[i] = Pr{X_t in S' | X_0 = i}``
    where ``S'`` is described by its 0/1 *indicator* vector.  Computed
    with the *backward* uniformisation series ``sum_k psi_k P^k 1_{S'}``
    -- one run covers every initial state, the dual of
    :func:`transient_distribution`.  Any real-valued vector is accepted,
    so this also evaluates ``E[f(X_t) | X_0 = i]`` for bounded ``f``.

    The one-row view of :func:`transient_target_probabilities_sweep`;
    *metrics_engine* attributes the series' steps in the metrics
    registry, as for :func:`transient_distribution`.
    """
    return transient_target_probabilities_sweep(
        model, [t], indicator, epsilon=epsilon,
        uniformization_rate=uniformization_rate, kernel=kernel,
        metrics_engine=metrics_engine)[0]


def transient_target_probabilities_sweep(model: CTMC,
                                         times: Sequence[float],
                                         indicator: Sequence[float],
                                         epsilon: float = 1e-12,
                                         uniformization_rate:
                                         Optional[float] = None,
                                         kernel: Kernel = None,
                                         metrics_engine: Optional[str]
                                         = None) -> np.ndarray:
    """Per-initial-state target probabilities for a whole list of
    time bounds from **one** shared backward series.

    The iterates ``P^k 1_{S'}`` of the backward uniformisation series
    do not depend on ``t`` -- only the Poisson weights do -- so a sweep
    over *times* runs the series once to the largest truncation point
    and re-weights every iterate per time bound.  Returns the
    ``(len(times), |S|)`` array whose row ``i`` is the answer for
    ``times[i]`` alone (same weights, same iterates);
    :func:`transient_target_probabilities` is the one-row view.
    """
    vector = np.asarray(indicator, dtype=float)
    if vector.shape != (model.num_states,):
        raise NumericalError(
            f"indicator has shape {vector.shape}, expected "
            f"({model.num_states},)")
    times = [float(t) for t in times]
    for t in times:
        if not t >= 0.0:
            raise NumericalError(f"time must be >= 0, got {t}")
    vector = vector.copy()
    results = np.zeros((len(times), model.num_states))
    rate = (model.max_exit_rate if uniformization_rate is None
            else float(uniformization_rate))
    if rate == 0.0:
        results[:] = vector
        return results
    weight_rows = []
    for i, t in enumerate(times):
        if t == 0.0:
            results[i] = vector
            weight_rows.append(None)
        else:
            weight_rows.append(poisson_weights(rate * t, epsilon=epsilon))
    deepest = max((w for w in weight_rows if w is not None),
                  key=lambda w: w.right, default=None)
    if deepest is None:
        return results
    depth = deepest.right
    backend = get_backend(kernel)
    operator = uniformized_operator(model, rate,
                                    policy=backend.operator_policy)
    hist = _step_histogram(backend, metrics_engine)
    with obs_span("uniformisation_series", depth=depth,
                  kind="backward_sweep", points=len(times),
                  rate=rate) as span:
        for k in range(depth + 1):
            for i, weights in enumerate(weight_rows):
                if weights is not None \
                        and weights.left <= k <= weights.right:
                    results[i] += (weights.weights[k - weights.left]
                                   * vector)
            if k == depth:
                break
            if hist is not None:
                block_start = time.perf_counter()
            vector = operator.matvec(vector)
            if hist is not None:
                hist.observe(time.perf_counter() - block_start)
        _end_series(span, deepest, depth)
    _count_series(metrics_engine, depth)
    return results


def transient_matrix(model: CTMC,
                     t: float,
                     epsilon: float = 1e-12,
                     uniformization_rate: Optional[float] = None,
                     metrics_engine: Optional[str] = None) -> np.ndarray:
    """All-pairs transient probabilities ``Pi(t)[i, j] = Pr{X_t = j | X_0 = i}``.

    Computed in a **single** uniformisation pass over a dense identity
    block: the iterates ``P^k`` applied to ``I`` are accumulated with
    the Poisson weights, so every initial state advances through one
    sparse x dense product per series term instead of ``|S|``
    independent vector runs.  Dense output of shape ``(n, n)``;
    *metrics_engine* counts the series' steps as for
    :func:`transient_distribution`.
    """
    if t < 0.0:
        raise NumericalError(f"time must be >= 0, got {t}")
    n = model.num_states
    rate = (model.max_exit_rate if uniformization_rate is None
            else float(uniformization_rate))
    if t == 0.0 or n == 0 or rate == 0.0:
        return np.eye(n)
    # Propagate the transposed block: column i holds the distribution
    # from initial state i, and pi' = pi P transposes to P^T pi^T.
    operator = uniformized_operator(model, rate, transposed=True)
    weights = poisson_weights(rate * t, epsilon=epsilon)
    block = np.eye(n)
    result = np.zeros((n, n))
    with obs_span("uniformisation_series", depth=weights.right,
                  kind="matrix", rate=rate) as span:
        for k in range(weights.right + 1):
            if k >= weights.left:
                result += weights.weights[k - weights.left] * block
            if k == weights.right:
                break
            block = operator.matmat(block)
        _end_series(span, weights, weights.right)
    _count_series(metrics_engine, weights.right)
    return result.T


def expected_instantaneous_reward(model,
                                  t: float,
                                  rewards: Optional[Sequence[float]] = None,
                                  epsilon: float = 1e-12) -> float:
    """Expected reward rate at time *t*: ``E[rho(X_t)]``.

    *model* is an MRM (its reward vector is used) unless *rewards*
    overrides the reward structure.
    """
    rho = (np.asarray(rewards, dtype=float)
           if rewards is not None else model.rewards)
    pi = transient_distribution(model, t, epsilon=epsilon)
    return float(pi @ rho)


def expected_accumulated_reward(model,
                                t: float,
                                rewards: Optional[Sequence[float]] = None,
                                epsilon: float = 1e-12,
                                metrics_engine: Optional[str] = None
                                ) -> float:
    """Expected accumulated reward ``E[Y_t] = int_0^t E[rho(X_u)] du``.

    Uses the Poisson-tail formulation of the integral of the transient
    distribution, so the cost is one uniformisation run.
    *metrics_engine* counts its steps as for
    :func:`transient_distribution`.
    """
    if t < 0.0:
        raise NumericalError(f"time must be >= 0, got {t}")
    rho = (np.asarray(rewards, dtype=float)
           if rewards is not None else model.rewards)
    if t == 0.0:
        return 0.0
    rate = model.max_exit_rate
    if rate == 0.0:
        # No transitions: the chain sits in its initial distribution.
        return float(model.initial_distribution @ rho) * t

    operator = uniformized_operator(model, rate)
    # Make the relative error of the integral match epsilon: the
    # integral is <= t * max(rho), and each tail coefficient errs by at
    # most the Poisson tail mass.
    weights = poisson_weights(rate * t, epsilon=epsilon)
    tails = weights.tail_from()

    vector = model.initial_distribution.copy()
    total = 0.0
    # Coefficient of alpha P^k is tail(k+1) / lambda; for k < left the
    # tail is 1.
    with obs_span("uniformisation_series", depth=weights.right,
                  kind="accumulated_reward", rate=rate) as span:
        for k in range(weights.right + 1):
            if k + 1 <= weights.left:
                tail = 1.0
            else:
                idx = k + 1 - weights.left
                tail = float(tails[idx]) if idx < len(tails) else 0.0
            total += tail * float(vector @ rho)
            if k < weights.right:
                vector = operator.rmatvec(vector)
        _end_series(span, weights, weights.right)
    _count_series(metrics_engine, weights.right)
    # Account for the (up to `left`) leading terms whose tail is 1 but
    # which the loop already covers, and normalise by the rate.
    return total / rate
