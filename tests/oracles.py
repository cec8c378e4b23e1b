"""Independent forward references for the engines' backward cores.

Every engine computes ``Pr{Y_t <= r, X_t in S' | X_0 = s}`` for all
initial states at once by running *backwards* from the target.  The
functions here compute the same numbers *forwards*, one initial state
at a time, straight from the paper's formulas:

* :func:`discretized_density` / :func:`discretized_joint_probability`
  -- the Tijms--Veldman recurrence of Section 4.3 (the formula in the
  :mod:`repro.algorithms.discretization` docstring), including impulse
  rewards and both underflow rules, written with dense NumPy arrays;
* :func:`erlang_joint_probability` -- a forward transient distribution
  of the pseudo-Erlang expanded chain of Section 4.2;
* :func:`sericola_triangular` -- one step of Sericola's ``b(h,n,k)``
  triangular update as plain per-row Python loops (the kernels'
  batched scan is checked against it).

The discretisation reference deliberately imports nothing from
:mod:`repro.kernels` or :mod:`repro.algorithms.discretization`, so it
shares no operator or shift code with the engine it checks.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.erlang import erlang_expanded_model
from repro.ctmc.mrm import MarkovRewardModel
from repro.numerics.uniformization import transient_distribution


def discretized_density(model: MarkovRewardModel, t: float, r: float,
                        step: float, initial_state: int,
                        underflow: str = "drop") -> np.ndarray:
    """The forward density ``F^T`` as a ``(|S|, R+1)`` array.

    ``F^1(s0, rho(s0)) = 1/d``, and each step

        F^{j+1}(s, k) = (1 - E(s) d) G(s, k)
                      + sum_{s'} R(s', s) d G(s', k - iota(s', s)/d)

    with ``G(s, m) = F^j(s, m - rho(s))``.  Below cell 0 the impulse
    term is zero; the reward term is zero under ``"drop"`` and reads
    cell 0 under ``"clamp"`` (the paper's "set the index to 0").
    Mass beyond ``R = r/d`` is discarded; on impulse-free models the
    cells stop at ``rho_max t / d`` since ``Y_t <= rho_max t``.
    """
    d = float(step)
    num_steps = int(round(t / d))
    rho = np.round(model.rewards).astype(np.int64)
    if not model.has_impulse_rewards:
        r = min(r, float(rho.max()) * t)
    cells = int(np.floor(r / d + 1e-9)) + 1
    n = model.num_states
    rates = model.rate_matrix.toarray()
    impulses = (model.impulse_matrix.toarray() if model.has_impulse_rewards
                else np.zeros((n, n)))
    jumps = np.rint(impulses / d).astype(np.int64)
    # One dense (target, source) block of d-scaled rates per impulse
    # displacement, so ``block @ shifted`` sums over the sources.
    moves = [(int(jump), np.where((jumps == jump) & (rates > 0.0),
                                  rates * d, 0.0).T)
             for jump in np.unique(jumps[rates > 0.0]) if jump < cells]
    stay = 1.0 - model.exit_rates * d
    source = np.arange(cells)[None, :] - rho[:, None]
    below = source < 0
    source[below] = 0

    density = np.zeros((n, cells))
    if rho[initial_state] < cells:
        density[initial_state, rho[initial_state]] = 1.0 / d
    for _ in range(num_steps - 1):
        shifted = np.take_along_axis(density, source, axis=1)
        if underflow != "clamp":
            shifted[below] = 0.0
        nxt = stay[:, None] * shifted
        for jump, block in moves:
            nxt[:, jump:] += block @ shifted[:, :cells - jump]
        density = nxt
    return density


def discretized_joint_probability(model: MarkovRewardModel, t: float,
                                  r: float, indicator: np.ndarray,
                                  initial_state: int, step: float,
                                  underflow: str = "drop") -> float:
    """``sum_{s in S'} sum_{k <= R} F^T(s, k) d`` from one initial
    state (``t > 0``, ``r > 0``)."""
    density = discretized_density(model, t, r, step, initial_state,
                                  underflow)
    mass = density.sum(axis=1) * step
    return float(min(1.0, mass @ np.asarray(indicator, dtype=float)))


def erlang_joint_probability(model: MarkovRewardModel, t: float,
                             r: float, indicator: np.ndarray,
                             initial_state: int, phases: int,
                             epsilon: float = 1e-12) -> float:
    """Probability mass on the target's non-absorbed phases of the
    expanded chain at time *t*, started in phase 0 of one initial state
    (``r > 0``)."""
    expanded, _ = erlang_expanded_model(model, r, phases)
    alpha = np.zeros(expanded.num_states)
    alpha[int(initial_state) * phases] = 1.0
    distribution = transient_distribution(
        expanded, t, initial=alpha, epsilon=epsilon,
        steady_state_detection=False)
    per_state = distribution[:-1].reshape(model.num_states, phases)
    mass = per_state.sum(axis=1) @ np.asarray(indicator, dtype=float)
    return float(np.clip(mass, 0.0, 1.0))


def joint_probability_from(engine, model: MarkovRewardModel, t: float,
                           r: float, indicator: np.ndarray,
                           initial_state: int) -> float:
    """*engine*'s value from one initial state (``t > 0``, ``r > 0``).

    The discretisation and pseudo-Erlang engines get the forward
    references above, with the engine's own accuracy knobs.  Sericola
    has no forward formulation here, so it gets one entry of its
    uncached core (:meth:`~repro.algorithms.base.JointEngine.\
sweep_unit`), which checks the cache path.
    """
    indicator = np.asarray(indicator, dtype=float)
    if engine.name == "discretization":
        return discretized_joint_probability(
            model, t, r, indicator, initial_state, engine.step,
            engine.underflow)
    if engine.name == "erlang":
        return erlang_joint_probability(
            model, t, r, indicator, initial_state, engine.phases,
            engine.epsilon)
    return float(engine.sweep_unit(model, [t], [r],
                                   indicator)[0, 0, initial_state])


def sericola_triangular(pb: np.ndarray, new_b: np.ndarray,
                        u_next: np.ndarray, levels: np.ndarray,
                        cls: np.ndarray, n: int) -> None:
    """One step ``n-1 -> n`` of the ``b(h,n,k)`` update, row by row.

    The kernel contract's ``sericola_triangular`` (see
    :mod:`repro.kernels.base`) with the reward structure given as the
    ascending *levels* and the per-state level index *cls*: a state of
    level ``j`` runs the ascending-``k`` recursion for ``g = 1..j``
    (seeded with ``u_next`` at ``g = 1``, else with the previous
    level's last element) and the descending one for ``g = m..j+1``
    (seeded with 0 at ``g = m``, else with the next level's first).
    """
    m = len(levels) - 1
    for s in range(pb.shape[0]):
        value = levels[cls[s]]
        for g in range(1, cls[s] + 1):
            lo, hi = levels[g - 1], levels[g]
            stay = (value - hi) / (value - lo)
            move = (hi - lo) / (value - lo)
            y = u_next[s] if g == 1 else new_b[s, n, g - 2]
            new_b[s, 0, g - 1] = y
            for k in range(n):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k + 1, g - 1] = y
        for g in range(m, cls[s], -1):
            lo, hi = levels[g - 1], levels[g]
            stay = (lo - value) / (hi - value)
            move = (hi - lo) / (hi - value)
            y = 0.0 if g == m else new_b[s, 0, g]
            new_b[s, n, g - 1] = y
            for k in range(n - 1, -1, -1):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k, g - 1] = y
