"""Sericola's occupation-time algorithm (Section 4.4 of the paper).

Computes the complementary joint distribution

    H_{ij}(t, r) = Pr{ Y_t > r, X_t = j | X_0 = i }

through the uniformisation series

    H(t, r) = sum_{n>=0} psi_n(lambda t)
              sum_{k=0}^{n} binom(n, k) x_h^k (1 - x_h)^{n-k} C(h, n, k)

where ``rho_0 < rho_1 < ... < rho_m`` are the distinct reward rates,
``h`` is the reward level with ``rho_{h-1} t <= r < rho_h t`` and
``x_h = (r - rho_{h-1} t) / ((rho_h - rho_{h-1}) t)`` normalises ``r``
inside that level [Sericola 2000, Theorem 5.6].

The matrices ``C(h, n, k)`` satisfy, with ``P`` the uniformised DTMC
matrix and ``rho(i)`` the reward of the *row* state:

* rows with ``rho(i) >= rho_h`` (ascending in ``k``)::

      C(h,n,0) = C(h-1,n,n),                      C(0,n,n) := P^n
      C(h,n,k) = [ (rho(i) - rho_h)   C(h,n,k-1)
                 + (rho_h - rho_{h-1}) (P C(h,n-1,k-1)) ]
                 / (rho(i) - rho_{h-1})

* rows with ``rho(i) <= rho_{h-1}`` (descending in ``k``)::

      C(h,n,n) = C(h+1,n,0),                      C(m+1,n,0) := 0
      C(h,n,k) = [ (rho_{h-1} - rho(i)) C(h,n,k+1)
                 + (rho_h - rho_{h-1})  (P C(h,n-1,k)) ]
                 / (rho_h - rho(i))

Both recursions are convex combinations, which gives the paper's
stability statement ``0 <= C(h,n,k) <= P^n`` entrywise, and a clean
a-priori stopping criterion: truncating the outer sum after ``N``
steps with ``sum_{n<=N} psi_n >= 1 - epsilon`` bounds the error by
``epsilon`` because every inner sum lies in ``[0, 1]``.

We propagate, instead of the full matrices, the *column aggregate*
``b(h,n,k) = C(h,n,k) 1_{S'}`` -- the recursion is linear in columns --
which reduces memory from ``O(N^2 |S|^2)`` (paper) to ``O(N m |S|)``
and yields the joint probability **for every initial state at once**.
The special cases reproduce known algorithms: two reward levels {0, 1}
give the Rubino--Sericola interval-availability scheme.

The recursion does not depend on the bounds, so the engine's one
computational core, :meth:`SericolaEngine._compute_joint_sweep`, runs
it once for a whole ``(t, r)`` grid; a scalar query is its ``1 x 1``
cell, and the certified interval is the a-priori bound above around
the cached point value.  The complementary probability ``H`` is the
transient probability minus the joint one.

Unlike the paper (which requires ``rho_0 = 0``), the implementation
supports any minimal reward: the level-0 boundary ``C(0,n,n) = P^n``
expresses that a path starting in a state with ``rho(i) > rho_0``
accumulates more than ``rho_0 t`` with probability one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.algorithms.base import (Finding, JointEngine,
                                   WorkUnit, register_engine)
from repro.algorithms.cache import matrix_cache
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError
from repro.kernels.base import (SericolaPlan, SericolaSeries,
                                build_sericola_plan)
from repro.numerics.poisson import poisson_weights, right_truncation_point
from repro.numerics.uniformization import (
    Kernel, transient_target_probabilities, uniformized_operator)
from repro.obs import OBS, count_engine
from repro.obs import span as obs_span

#: Distinct reward levels beyond which the series' per-level cost is
#: worth a warning (E007).
SERICOLA_LEVEL_WARNING = 32


@dataclass(frozen=True)
class SericolaDiagnostics:
    """Run statistics of the last computation (exposed for benchmarks)."""
    truncation_steps: int
    uniformization_rate: float
    reward_levels: int
    level_index: int
    normalized_bound: float


@register_engine
class SericolaEngine(JointEngine):
    """Occupation-time engine with an a-priori error bound *epsilon*.

    Parameters
    ----------
    epsilon:
        A-priori bound on the truncation error of the outer
        uniformisation series (Table 2 of the paper sweeps this knob).
    steady_state_detection:
        Stop the outer series early, per grid point, once the per-step
        inner terms have converged (the remaining Poisson mass then
        multiplies a fixed vector).  This implements the paper's
        Section 5.4 outlook -- "whether some kind of steady-state
        detection can be employed to shorten the series" -- and pays
        off when the time bound is large relative to the mixing time.
        The detection threshold is tied to ``epsilon``, so the overall
        accuracy is preserved.
    kernel:
        Kernel backend running the triangular ``b(h,n,k)`` update (see
        ``docs/KERNELS.md``); backends agree to ``<= 1e-12``.
    """

    name = "sericola"
    knobs = ("epsilon", "steady_state_detection")
    #: The series loop holds the GIL on the small operands of the
    #: paper's models: two column groups on two threads measured 3.7x
    #: slower than one group inline (docs/EXECUTION.md).
    parallel_units = False

    def findings(self, model, t=None, r=None):
        """E001 (impulse rewards) and E007 (many reward levels)."""
        if model.has_impulse_rewards:
            yield Finding(
                "E001",
                f"the {self.name} engine handles state-based rewards "
                f"only (paper, Section 2.1), but the model carries "
                f"{model.impulse_matrix.nnz} impulse reward(s)",
                "use the discretisation or pseudo-Erlang engine "
                "(--engine discretization|erlang), or drop the impulse "
                "rewards",
                NumericalError)
        levels = len(model.distinct_rewards())
        if levels > SERICOLA_LEVEL_WARNING:
            yield Finding(
                "E007",
                f"the model has {levels} distinct reward levels; the "
                f"occupation-time series propagates one column block "
                f"per level, so memory and work scale with levels * "
                f"truncation depth * |S|",
                "round rewards to fewer distinct levels, or use the "
                "discretisation engine whose cost depends on the bound "
                "r rather than the level count")

    def __init__(self,
                 epsilon: float = 1e-9,
                 steady_state_detection: bool = False,
                 kernel: Kernel = None):
        if not 0.0 < epsilon < 1.0:
            raise NumericalError(
                f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = float(epsilon)
        self.steady_state_detection = bool(steady_state_detection)
        self.last_diagnostics: Optional[SericolaDiagnostics] = None
        super().__init__(kernel)

    def _cache_token(self):
        # The literal None fills the slot of the removed
        # ``uniformization_rate`` knob: checkpoint headers hold
        # ``repr(token)``, so older files still resume.
        return (self.name, self.epsilon, None,
                self.steady_state_detection, self.kernel)

    # ------------------------------------------------------------------

    def _a_priori_widths(self):
        """The a-priori truncation bound as an interval.

        Every term of the truncated series is non-negative (``0 <=
        C(h,n,k) <= P^n`` entrywise), so the computed value converges
        to the exact one *from below*, and the truncation rule ``sum_
        {n<=N} psi_n >= 1 - epsilon`` caps the discarded mass: the
        exact value lies in ``[value, value + epsilon]`` -- a sound
        interval from a single series run, no second resolution needed.
        The one wrinkle: the Fox--Glynn Poisson weights are normalised
        over their truncation window (they sum to one), which can
        inflate the computed value above the exact series by the
        window's missing mass -- at most ``epsilon * 1e-3``, the
        accuracy the weights are computed with -- so the lower end is
        widened by exactly that slack.
        """
        return self.epsilon * 1e-3, self.epsilon

    #: Tightest epsilon the refinement loop will request; below this
    #: the truncated-series arithmetic itself is the accuracy limit.
    MIN_EPSILON = 1e-13

    def refined(self):
        """Tighten ``epsilon`` a hundredfold (the Table 2 knob)."""
        if self.epsilon <= self.MIN_EPSILON:
            return None
        return self._with(
            epsilon=max(self.epsilon * 1e-2, self.MIN_EPSILON))

    def complementary_vector(self,
                             model: MarkovRewardModel,
                             t: float,
                             r: float,
                             indicator: np.ndarray) -> np.ndarray:
        """``Pr{Y_t > r, X_t in S' | X_0 = i}`` for every i.

        *indicator* is the 0/1 vector of the target set ``S'``; the
        value is the transient probability ``Pr{X_t in S'}`` minus the
        joint one.
        """
        indicator = np.asarray(indicator, dtype=float)
        joint = self._compute_joint_sweep(model, [float(t)], [float(r)],
                                          indicator)[0, 0]
        transient = transient_target_probabilities(
            model, t, indicator, epsilon=min(self.epsilon * 1e-3, 1e-14),
            kernel=self._backend_for(model), metrics_engine=self.name)
        return np.clip(transient - joint, 0.0, 1.0)

    def joint_distribution_matrix(self,
                                  model: MarkovRewardModel,
                                  t: float,
                                  r: float) -> np.ndarray:
        """The full matrix ``H(t, r)`` of the paper's Theorem 5.6.

        ``H[i, j] = Pr{Y_t > r, X_t = j | X_0 = i}``, reconstructed
        column by column from the aggregated-vector recursion (each
        column is one run with a singleton target).  The total cost
        matches the paper's matrix formulation, O(N^2 m |S|^2); use
        the vector API whenever only a target *set* matters -- that is
        the ablation measured in ``bench_ablation_sericola_matrix``.
        """
        n = model.num_states
        columns = []
        for j in range(n):
            indicator = np.zeros(n)
            indicator[j] = 1.0
            columns.append(self.complementary_vector(model, t, r,
                                                     indicator))
        return np.column_stack(columns)

    @staticmethod
    def _sericola_plan(model: MarkovRewardModel) -> SericolaPlan:
        """The reward-level structure (levels, per-level state classes),
        cached per model fingerprint -- the former per-call
        ``np.unique(rho)`` + ``np.flatnonzero`` scans."""
        key = ("sericola-plan", model.fingerprint)
        plan = matrix_cache.get(key)
        if plan is None:
            plan = build_sericola_plan(model.rewards)
            matrix_cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------
    # shared-prefix (t, r) grid path
    # ------------------------------------------------------------------

    def work_units(self, missing: np.ndarray,
                   workers: int = 1) -> List[WorkUnit]:
        """At most *workers* column groups over the full series depth.

        The ``b(g, n, k)`` series does not depend on the bounds, so
        every group pays for one whole series: more groups than
        parallel workers would only repeat it.
        """
        columns = np.flatnonzero(missing.any(axis=0))
        groups = np.array_split(columns,
                                max(1, min(workers, len(columns))))
        return [WorkUnit(
                    tuple(np.flatnonzero(missing[:, group].any(axis=1))
                          .tolist()),
                    tuple(group.tolist()))
                for group in groups if len(group)]

    def _compute_joint_sweep(self,
                             model: MarkovRewardModel,
                             times,
                             rewards,
                             indicator: np.ndarray) -> np.ndarray:
        """The whole grid from **one** run of the series.

        The expensive part of the algorithm -- the ``b(g, n, k)``
        recursion (:class:`~repro.kernels.base.SericolaSeries`) -- does
        not depend on the bounds at all: ``(t, r)`` only enter through
        the Poisson weights ``psi_n(lambda t)``, the level index ``h``,
        the normalised bound ``x`` and the truncation depth.  So one
        series advanced to the *deepest* truncation serves every grid
        point: each point keeps its own binomial mixture (points sharing
        ``x`` share it), reads ``inner_n = mix @ b[h-1]`` at each step
        and accumulates ``psi_n (u_n - inner_n)`` up to its own depth.
        All terms are non-negative because ``0 <= C(h,n,k) <= P^n``, so
        truncation converges from *below*, exactly as in Table 2 of the
        paper.  Points whose bound never binds ride the same ``u_n =
        P^n 1_{S'}`` iterates as a plain transient accumulation.

        With ``steady_state_detection`` a point finishes early once its
        ``inner_n`` and ``u_n`` have drifted less than ``epsilon *
        1e-2`` for three consecutive steps: the remaining Poisson mass
        then multiplies (essentially) the same vector.  The series
        stops as soon as no point needs it.
        """
        n_states = model.num_states
        rho = model.rewards
        self._require(model)
        backend = self._backend_for(model)
        plan = self._sericola_plan(model)
        levels = plan.levels
        m = len(levels) - 1
        rate = model.max_exit_rate
        weight_epsilon = min(self.epsilon * 1e-3, 1e-14)
        grid = np.empty((len(times), len(rewards), n_states))
        trans = []              # (i, j, psi): the bound never binds
        normal_points = []      # dicts: genuine series points
        for i, t in enumerate(times):
            for j, r in enumerate(rewards):
                if r >= levels[-1] * t:
                    # Y_t <= rho_max * t surely: the bound never binds.
                    if rate == 0.0:
                        grid[i, j] = indicator
                    else:
                        grid[i, j] = 0.0
                        trans.append((i, j, poisson_weights(
                            rate * t, epsilon=weight_epsilon)))
                elif m == 0 or r < levels[0] * t:
                    # Deterministic accumulation above r (single level),
                    # or Y_t >= rho_min * t > r: exceeding is sure.
                    grid[i, j] = 0.0
                elif rate == 0.0:
                    # No transitions: Y_t = rho(i) * t deterministically.
                    exceeding = indicator * (rho * t > r).astype(float)
                    grid[i, j] = indicator - exceeding
                else:
                    # Level h with rho_{h-1} t <= r < rho_h t, and the
                    # normalised bound x inside it.
                    h = int(np.searchsorted(levels * t, r,
                                            side="right"))
                    x = ((r - levels[h - 1] * t)
                         / ((levels[h] - levels[h - 1]) * t))
                    q = rate * t
                    depth = right_truncation_point(q, self.epsilon)
                    normal_points.append({
                        "i": i, "j": j, "h": h, "x": x, "depth": depth,
                        "steps": depth, "stable": 0,
                        "psi": poisson_weights(q, epsilon=weight_epsilon),
                    })
        if not trans and not normal_points:
            return grid
        operator = uniformized_operator(model, rate,
                                        policy=backend.operator_policy)
        depth_t = max((psi.right for _, _, psi in trans), default=0)
        depth_u = max([depth_t] + [p["depth"] for p in normal_points])

        if normal_points:
            # The preallocated series state: one (|S|, depth+1, m)
            # buffer pair whose n*m-column prefix feeds a single block
            # product per step (see repro.kernels.base.SericolaSeries).
            series = SericolaSeries(
                backend, operator, indicator.astype(float), plan,
                max(p["depth"] for p in normal_points))
            u = series.u
            # Binomial mixture weights w[k] = binom(n,k) x^k (1-x)^{n-k}.
            mixes = {p["x"]: np.array([1.0]) for p in normal_points}
            for p in normal_points:
                p["inner"] = series.inner(p["h"], mixes[p["x"]])
                p["joint"] = p["psi"].probability(0) * (u - p["inner"])
        else:
            u = indicator.astype(float).copy()
        matvec_hist = (OBS.metrics.histogram("repro_matvec_block_seconds",
                                             engine=self.name,
                                             kernel=backend.name)
                       if OBS.enabled else None)
        for i, j, psi in trans:
            if psi.left == 0:
                grid[i, j] += psi.weights[0] * u

        tolerance = self.epsilon * 1e-2
        active = list(normal_points)
        steps = matvecs = 0
        with obs_span("series_sweep", depth=depth_u,
                      points=len(normal_points) + len(trans)) as span:
            for n in range(1, depth_u + 1):
                if not active and n > depth_t:
                    break
                steps = n
                previous_u = u
                if active:
                    if matvec_hist is not None:
                        block_start = time.perf_counter()
                    series.advance()
                    if matvec_hist is not None:
                        matvec_hist.observe(
                            time.perf_counter() - block_start)
                    # Two operator applications per step: the u matvec
                    # and the one stacked-levels block product.
                    matvecs += 2
                    u = series.u
                    # w(n,k) = (1-x) w(n-1,k) + x w(n-1,k-1).
                    for x, mix in mixes.items():
                        new_mix = np.zeros(n + 1)
                        new_mix[:n] = (1.0 - x) * mix
                        new_mix[1:] += x * mix
                        mixes[x] = new_mix
                    for p in active:
                        inner = series.inner(p["h"], mixes[p["x"]])
                        weight = p["psi"].probability(n)
                        if weight > 0.0:
                            p["joint"] += weight * (u - inner)
                        if self.steady_state_detection:
                            self._detect(p, n, u, previous_u, inner,
                                         tolerance)
                    active = [p for p in active if p["steps"] > n]
                else:
                    # Past every series depth only the transient
                    # accumulations remain: advance u alone.
                    u = operator.matvec(u)
                    matvecs += 1
                for i, j, psi in trans:
                    if psi.left <= n <= psi.right:
                        grid[i, j] += psi.weights[n - psi.left] * u
            span.set(steps=steps, rate=rate)
            if OBS.enabled and normal_points:
                # The a-priori error bound: the Poisson mass the
                # deepest series point left beyond the last step.
                deepest = max(normal_points, key=lambda p: p["depth"])
                span.set(residual=deepest["psi"].remaining_after(steps))
        count_engine(self.name, propagation_steps=steps,
                     matvec_count=matvecs)

        for p in normal_points:
            grid[p["i"], p["j"]] = np.clip(p["joint"], 0.0, 1.0)
        if normal_points:
            deepest = max(normal_points, key=lambda p: p["steps"])
            self.last_diagnostics = SericolaDiagnostics(
                truncation_steps=deepest["steps"],
                uniformization_rate=rate,
                reward_levels=m + 1,
                level_index=deepest["h"],
                normalized_bound=deepest["x"])
            if OBS.enabled:
                OBS.metrics.gauge(
                    "repro_sericola_truncation_depth").update_max(
                        deepest["steps"])
        return grid

    @staticmethod
    def _detect(point, n, u, previous_u, inner, tolerance) -> None:
        """Steady-state detection for one series point at step *n*.

        Once ``inner_n`` and ``u_n`` have drifted less than *tolerance*
        for three consecutive steps, the remaining Poisson mass is
        added against the current term and the point finishes at *n*.
        """
        drift = max(float(np.max(np.abs(inner - point["inner"]))),
                    float(np.max(np.abs(u - previous_u))))
        point["stable"] = point["stable"] + 1 if drift < tolerance else 0
        point["inner"] = inner
        if point["stable"] >= 3:
            psi = point["psi"]
            mass = (float(psi.weights[n + 1 - psi.left:].sum())
                    if n >= psi.left else 1.0)
            point["joint"] += mass * (u - inner)
            point["steps"] = n
