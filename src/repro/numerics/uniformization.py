"""Transient analysis of CTMCs by uniformisation (randomisation).

Uniformisation (Jensen 1953, Gross/Miller 1984) turns the matrix
exponential into a Poisson mixture of DTMC powers:

    e^{Q t} v = sum_{k>=0} psi_k(lambda t) * P^k v

with ``P = I + Q / lambda`` for any ``lambda >= max_s E(s)`` and
``psi_k`` the Poisson probabilities.  Each step is a sparse
matrix--vector product, and the truncation error is controlled a priori
through the Poisson tail (see :mod:`repro.numerics.poisson`).

Every public function here is a view of **one** series loop,
:func:`_series`, which returns ``sum_k c_i[k] M^k start`` for each
coefficient row ``c_i``.  The Poisson rows ``psi_k(lambda t)`` give the
transient probabilities; the tail rows ``T_{k+1} / lambda`` give the
integral

    int_0^t e^{Q u} v du = (1/lambda) sum_k T_{k+1} * P^k v

with ``T_k`` the Poisson tail ``sum_{j>=k} psi_j(lambda t)``, behind the
expected accumulated reward.  ``M`` is ``P`` (backward: one run covers
every initial state) except in :func:`transient_distribution`, which
runs the same loop on ``P^T`` from the initial distribution.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ctmc.ctmc import CTMC
from repro.errors import NumericalError
from repro.kernels import KernelBackend, get_backend
from repro.kernels.base import StepOperator, make_operator
from repro.numerics.poisson import poisson_weights
from repro.obs import OBS, count_engine
from repro.obs import span as obs_span

Kernel = Union[str, KernelBackend, None]
#: ``(first, coefficients)``: ``coefficients[j]`` weighs term ``first + j``.
Row = Tuple[int, np.ndarray]

# Maximum-norm threshold under which two successive uniformised vectors
# are considered equal for steady-state detection.
_STEADY_STATE_TOLERANCE_FACTOR = 1e-3


def uniformized_operator(model: CTMC, rate: float,
                         policy: str = "auto") -> StepOperator:
    """The uniformised DTMC matrix wrapped as a cached step operator.

    Under the default ``"auto"`` policy small chains go dense (one
    BLAS call per series term) and large ones stay CSR -- see
    :func:`repro.kernels.make_operator`; the sparse/dense backends
    pin the representation through their
    :attr:`~repro.kernels.KernelBackend.operator_policy` instead.
    Cached per ``(model, rate)`` in the shared matrix cache;
    non-default policies get their own key element, since the
    representation then depends on the requesting backend.
    """
    # Imported lazily: repro.algorithms imports this module during its
    # own package initialisation.
    from repro.algorithms.cache import matrix_cache
    key = (("uniform-op", model.fingerprint, float(rate))
           if policy == "auto"
           else ("uniform-op", model.fingerprint, float(rate), policy))
    operator = matrix_cache.get(key)
    if operator is None:
        operator = make_operator(model.uniformized_dtmc_matrix(rate),
                                 policy=policy)
        matrix_cache.put(key, operator)
    return operator


def _transposed_operator(model: CTMC, rate: float,
                         policy: str = "auto") -> StepOperator:
    """``P^T`` for the forward series (uncached: no engine runs it)."""
    matrix = model.uniformized_dtmc_matrix(rate).transpose().tocsr()
    return make_operator(matrix, policy=policy)


def _poisson_row(rate: float, t: float, epsilon: float) -> Row:
    """Coefficients ``psi_k(rate t)`` of the transient series."""
    if t == 0.0 or rate == 0.0:
        return 0, np.ones(1)
    weights = poisson_weights(rate * t, epsilon=epsilon)
    return weights.left, weights.weights


def _tail_row(rate: float, t: float, epsilon: float) -> Row:
    """Coefficients ``T_{k+1}(rate t) / rate`` of the integrated series.

    Below the Poisson window's left end ``T_{k+1} = 1``.  A window that
    starts at 0 takes its tails from the unnormalised Poisson mass --
    ``T_1 = 1 - e^{-q}`` by ``expm1``, then ``T_{k+1} = T_k - psi_k`` --
    because the normalised weights credit the window with all the mass:
    for ``q = rate t`` below epsilon the window is ``{0}`` and every
    normalised tail is 0, though the integral is ``~t``.
    """
    if t == 0.0 or rate == 0.0:
        return 0, np.array([t])   # no transitions: the integral is t v
    q = rate * t
    weights = poisson_weights(q, epsilon=epsilon)
    if weights.left > 0:
        tails = weights.tail_from()
        return 0, np.concatenate((np.ones(weights.left), tails[1:])) / rate
    psi = weights.weights * (math.exp(-q) / weights.weights[0])
    tails = -math.expm1(-q) - np.concatenate(([0.0], np.cumsum(psi[1:])))
    return 0, np.maximum(tails, 0.0) / rate


def _series(model: CTMC,
            start: np.ndarray,
            times: Sequence[float],
            row_for: Callable[[float, float, float], Row],
            epsilon: float,
            kind: str,
            kernel: Kernel = None,
            metrics_engine: Optional[str] = None,
            operator_for: Callable[..., StepOperator] = uniformized_operator,
            steady_state_detection: bool = False) -> np.ndarray:
    """The uniformisation series loop: ``sum_k c_i[k] M^k start`` for
    the coefficient row ``c_i = row_for(lambda, times[i], epsilon)`` of
    every time bound, from one run of the iterates ``M^k start``.

    *start* is a vector or a column block; the result stacks one such
    array per time bound.  ``M = operator_for(model, lambda)`` is
    applied with ``matvec`` only.  With *steady_state_detection* the
    loop stops once two successive iterates agree to a tolerance tied
    to *epsilon*, handing each row its remaining coefficient mass.

    The series runs under one ``uniformisation_series`` span (``kind``,
    ``depth``, ``points``, ``rate``, ``steps`` and ``residual``: the
    largest coefficient mass any row left beyond ``steps``).  With
    observability on, *metrics_engine* times each step into
    ``repro_matvec_block_seconds`` and counts the steps into
    ``repro_engine_propagation_steps_total`` and
    ``repro_engine_matvec_total``.
    """
    times = [float(t) for t in times]
    for t in times:
        if not t >= 0.0:
            raise NumericalError(f"time must be >= 0, got {t}")
    rate = model.max_exit_rate
    rows = [row_for(rate, t, epsilon) for t in times]
    results = np.zeros((len(rows),) + start.shape)
    depth = max((first + len(c) - 1 for first, c in rows), default=0)
    if depth <= 0:
        # t = 0 or no transitions: only the k = 0 term is left.
        for i, (_, c) in enumerate(rows):
            results[i] += c[:1].sum() * start
        return results
    backend = get_backend(kernel)
    operator = operator_for(model, rate, policy=backend.operator_policy)
    hist = (OBS.metrics.histogram("repro_matvec_block_seconds",
                                  engine=metrics_engine,
                                  kernel=backend.name)
            if OBS.enabled and metrics_engine is not None else None)
    tolerance = (epsilon * _STEADY_STATE_TOLERANCE_FACTOR
                 / max(1.0, float(max(len(c) for _, c in rows))))
    settled_from = max(first for first, _ in rows)
    vector = start
    steps = depth
    with obs_span("uniformisation_series", kind=kind, depth=depth,
                  points=len(rows), rate=rate) as span:
        for k in range(depth + 1):
            for i, (first, c) in enumerate(rows):
                if first <= k < first + len(c):
                    results[i] += c[k - first] * vector
            if k == depth:
                break
            if hist is not None:
                block_start = time.perf_counter()
            next_vector = operator.matvec(vector)
            if hist is not None:
                hist.observe(time.perf_counter() - block_start)
            if (steady_state_detection and k >= settled_from
                    and np.max(np.abs(next_vector - vector)) < tolerance):
                # Steady state reached: every remaining term multiplies
                # (approximately) the same vector.
                for i, (first, c) in enumerate(rows):
                    results[i] += c[k + 1 - first:].sum() * next_vector
                steps = k + 1
                break
            vector = next_vector
        if OBS.enabled:
            span.set(steps=steps, residual=max(
                float(c[max(0, steps + 1 - first):].sum())
                for first, c in rows))
    if metrics_engine is not None:
        count_engine(metrics_engine, propagation_steps=steps,
                     matvec_count=steps)
    return results


def _start(model: CTMC, values: Sequence[float], what: str) -> np.ndarray:
    """*values* as a float vector or column block of ``|S|`` rows."""
    array = np.asarray(values, dtype=float)
    if array.ndim not in (1, 2) or array.shape[0] != model.num_states:
        raise NumericalError(
            f"{what} has shape {array.shape}, expected {model.num_states} "
            f"rows (a vector or a column block)")
    return array


def transient_distribution(model: CTMC,
                           t: float,
                           initial: Optional[Sequence[float]] = None,
                           epsilon: float = 1e-12,
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
    steady_state_detection:
        Stop the series early once the uniformised vector has converged
        (the remaining Poisson mass then multiplies a fixed vector).
    metrics_engine:
        Engine the series is run for (see :func:`_series`).

    The forward view of the series loop: the Poisson series of ``P^T``
    applied to the initial vector.
    """
    alpha = (model.initial_distribution if initial is None
             else _start(model, initial, "initial vector"))
    return _series(model, alpha, [t], _poisson_row, epsilon, "forward",
                   kernel=kernel, metrics_engine=metrics_engine,
                   operator_for=_transposed_operator,
                   steady_state_detection=steady_state_detection)[0]


def transient_target_probabilities(model: CTMC,
                                   t: float,
                                   indicator: Sequence[float],
                                   epsilon: float = 1e-12,
                                   kernel: Kernel = None,
                                   metrics_engine: Optional[str] = None
                                   ) -> np.ndarray:
    """Per-initial-state probability of being in a target set at time *t*.

    Returns the vector ``v`` with ``v[i] = Pr{X_t in S' | X_0 = i}``
    where ``S'`` is described by its 0/1 *indicator* vector.  Computed
    with the *backward* uniformisation series ``sum_k psi_k P^k 1_{S'}``
    -- one run covers every initial state, the dual of
    :func:`transient_distribution`.  Any real-valued vector is accepted,
    so this also evaluates ``E[f(X_t) | X_0 = i]`` for bounded ``f``;
    an ``(|S|, m)`` column block gets the ``m`` columns in one run.

    The one-row view of :func:`transient_target_probabilities_sweep`.
    """
    return transient_target_probabilities_sweep(
        model, [t], indicator, epsilon=epsilon, kernel=kernel,
        metrics_engine=metrics_engine)[0]


def transient_target_probabilities_sweep(model: CTMC,
                                         times: Sequence[float],
                                         indicator: Sequence[float],
                                         epsilon: float = 1e-12,
                                         kernel: Kernel = None,
                                         metrics_engine: Optional[str]
                                         = None) -> np.ndarray:
    """Per-initial-state target probabilities for a whole list of
    time bounds from **one** shared backward series.

    The iterates ``P^k 1_{S'}`` of the backward uniformisation series
    do not depend on ``t`` -- only the Poisson weights do -- so a sweep
    over *times* runs the series once to the largest truncation point
    and re-weights every iterate per time bound.  Returns the
    ``(len(times), |S|)`` array (``(len(times), |S|, m)`` for a column
    block) whose row ``i`` is the answer for ``times[i]`` alone (same
    weights, same iterates);
    :func:`transient_target_probabilities` is the one-row view.
    """
    return _series(model, _start(model, indicator, "indicator"),
                   times, _poisson_row, epsilon, "backward_sweep",
                   kernel=kernel, metrics_engine=metrics_engine)


def transient_matrix(model: CTMC,
                     t: float,
                     epsilon: float = 1e-12,
                     metrics_engine: Optional[str] = None) -> np.ndarray:
    """All-pairs transient probabilities ``Pi(t)[i, j] = Pr{X_t = j | X_0 = i}``.

    The backward series on the identity block: column ``j`` is the
    target-probability vector of state ``j``, and every column advances
    through one product per series term.  Dense output of shape
    ``(n, n)``.
    """
    return _series(model, np.eye(model.num_states), [t], _poisson_row,
                   epsilon, "matrix", metrics_engine=metrics_engine)[0]


def accumulated_reward_vector(model,
                              t: float,
                              rewards: Optional[Sequence[float]] = None,
                              epsilon: float = 1e-12,
                              metrics_engine: Optional[str] = None
                              ) -> np.ndarray:
    """``E[Y_t | X_0 = s]`` for every state ``s``: the backward series
    with the tail coefficients ``T_{k+1} / lambda`` applied to the
    reward vector.

    *model* is an MRM (its reward vector is used) unless *rewards*
    overrides the reward structure.
    """
    rho = (model.rewards if rewards is None
           else _start(model, rewards, "reward vector"))
    return _series(model, rho, [t], _tail_row, epsilon,
                   "accumulated_reward", metrics_engine=metrics_engine)[0]


def expected_instantaneous_reward(model,
                                  t: float,
                                  rewards: Optional[Sequence[float]] = None,
                                  epsilon: float = 1e-12) -> float:
    """Expected reward rate at time *t*: ``E[rho(X_t)]``, the initial
    distribution weighting the backward series of the reward vector.

    *model* is an MRM (its reward vector is used) unless *rewards*
    overrides the reward structure.
    """
    rho = model.rewards if rewards is None else rewards
    return float(model.initial_distribution
                 @ transient_target_probabilities(model, t, rho,
                                                  epsilon=epsilon))


def expected_accumulated_reward(model,
                                t: float,
                                rewards: Optional[Sequence[float]] = None,
                                epsilon: float = 1e-12,
                                metrics_engine: Optional[str] = None
                                ) -> float:
    """Expected accumulated reward ``E[Y_t] = int_0^t E[rho(X_u)] du``:
    the initial distribution weighting
    :func:`accumulated_reward_vector`."""
    return float(model.initial_distribution
                 @ accumulated_reward_vector(
                     model, t, rewards, epsilon=epsilon,
                     metrics_engine=metrics_engine))
