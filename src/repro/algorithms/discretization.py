"""The Tijms--Veldman discretisation (Section 4.3 of the paper).

Time and accumulated reward are discretised with a common step size
``d``; the step must be small enough that more than one transition per
interval is negligible (we require at least ``max_s E(s) * d <= 1``).
Rewards must be natural numbers -- rational rewards can always be
scaled, see :func:`integer_reward_scale`.

The scheme propagates the discretised joint density ``F^j(s, k)`` of
being in state ``s`` at time ``j * d`` with accumulated reward
``k * d``:

    F^1(s0, rho(s0)) = 1 / d
    F^{j+1}(s, k) = F^j(s, k - rho(s)) (1 - E(s) d)
                  + sum_{s'} F^j(s', k - rho(s')) R(s', s) d

(the displacement uses the reward rate of the state occupied during
the interval, as in Tijms & Veldman's original formulation).  A
transition carrying an impulse reward ``iota(s', s)`` displaces its
term by ``c = iota(s', s) / d`` further cells: it reads ``G(s', k -
c)``, with ``G(s', m) = F^j(s', m - rho(s'))`` and zero for ``k < c``.
After
``T = t / d`` steps,

    Pr{Y_t <= r, X_t in S'} ~~ sum_{s in S'} sum_{k<=R} F^T(s, k) d

with ``R = r / d``.  For out-of-range displacements (``rho(s) > k``)
the paper sets the index to zero; physically the density at negative
accumulated reward is zero, so dropping the term is the cleaner
reading.  Both variants are implemented (``underflow="drop"`` is the
default, ``"clamp"`` reproduces the paper's literal rule); they agree
whenever no probability mass sits at accumulated reward zero, in
particular on the paper's case study.

The whole per-step update is two sparse-matrix/dense-matrix products,
so the cost is ``O(T * nnz(R) * r / (g d))`` -- quadratic in ``1/d``,
matching the paper's observation that halving ``d`` quadruples the
runtime (Table 4).

**The reward lattice.**  Under ``underflow="drop"`` the engine steps
only the cells the chain can reach.  Let ``g`` be the gcd of every
reward displacement ``rho(s)`` and impulse displacement ``iota / d``
(:func:`lattice_cells`).  Every reachable cell is then a multiple of
``g``, and off-lattice cells never feed on-lattice ones, so the run
keeps cells ``0, g, 2g, ...`` only and divides every displacement and
the read-out cell by ``g``: the same arithmetic, column by column, on
a ``g``-times smaller array (the paper's case study has rewards
{100, 0, 0, 200, 20}, so ``g = 20``).  ``"clamp"`` folds off-lattice
cells into cell 0 and keeps ``g = 1``.

**One backward run for all initial states.**  The recurrence above
is a linear map ``L`` on the ``(state, reward cell)`` density array,
and the model checker needs ``v[s0] = <w, L^{T-1} F^1_{s0}>`` for
*every* initial state ``s0``, where ``w`` is the indicator of the
accepting cells (target states, reward within bound, cell 0
included).  The engine never runs the recurrence forwards: it
propagates ``G^T = w`` backwards through the adjoint recurrence
``G^{j} = shift_rho^T( (1 - E d) G^{j+1} + R d G^{j+1} )`` and reads
off ``v[s0] = G^1(s0, rho(s0))`` -- one ``(|S|, R+1)`` array and one
fused product per step (plus one per impulse value) cover all initial
states at once, an ``|S|``-fold saving over ``|S|`` forward runs.  It
is the same linear operator applied backwards, so it agrees with the
forward recurrence to floating-point accuracy; the test suite checks
it against an independent forward implementation.

**Grid sweeps.**  For a whole ``(t, r)`` grid of bounds
(:meth:`~repro.algorithms.base.JointEngine.joint_probability_sweep`)
the adjoint recurrence's time-homogeneity pays once more: one backward
run per reward bound serves *every* time bound of that column
bit-identically, because the weight array after ``k`` applications is
the per-point answer for horizon ``(k + 1) d``.  Columns are
independent (the operator truncates at ``r / d`` cells), so each is
one shared-work unit; the executors of :mod:`repro.exec` run them on
GIL-releasing threads or worker processes.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import ceil, gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.algorithms.base import (Finding, JointEngine,
                                   register_engine)
from repro.algorithms.cache import matrix_cache
from repro.algorithms.erlang import zero_reward_bound_sweep
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError, RewardError
from repro.kernels import KernelBackend
from repro.kernels.base import (DiscretizationPropagator, ShiftPlan,
                                StepOperator, build_shift_plan,
                                make_operator)
from repro.obs import OBS, count_engine
from repro.obs import span as obs_span

#: Estimated grid working-set bytes beyond which E003 warns.
DGRID_MEMORY_WARNING = 512 * 2**20


def lattice_cells(model: MarkovRewardModel, step: float, r: float,
                  underflow: str = "drop") -> Tuple[int, int]:
    """``(cells, g)``: the reward lattice of a run to the bound *r*.

    ``g`` is the gcd of every reward displacement ``rho(s)`` and every
    impulse displacement ``iota / d`` (1 when all are zero).  Mass
    starts in cell ``rho(s0)`` and only ever moves by these
    displacements, so every reachable cell is a multiple of ``g``;
    in the adjoint, off-lattice cells never feed on-lattice ones.  The
    run therefore keeps only cells ``0, g, 2g, ...`` up to ``r / d``:
    ``cells`` counts them, and every displacement is divided by
    ``g``.  Under ``"clamp"`` (cells ``0 .. rho - 1``, off-lattice ones
    included, fold into cell 0) and without natural-number rewards
    ``g`` is 1.  The engine and the E003 lint both size the grid here.
    """
    g = 0
    if underflow == "drop" and model.has_integer_rewards():
        g = int(np.gcd.reduce(np.round(model.rewards).astype(np.int64)))
        if model.has_impulse_rewards:
            impulses = np.rint(model.impulse_matrix.data * (1.0 / step))
            g = int(np.gcd.reduce(impulses.astype(np.int64), initial=g))
    g = max(g, 1)
    return int(np.floor(r / step + 1e-9)) // g + 1, g


def integer_reward_scale(rewards: Iterable[float],
                         max_denominator: int = 10 ** 6) -> int:
    """Smallest integer ``c`` making every reward in *rewards* integral.

    Raises :class:`~repro.errors.RewardError` when a reward is not
    (recognisably) rational with denominator up to *max_denominator*.
    """
    scale = 1
    for reward in rewards:
        fraction = Fraction(float(reward)).limit_denominator(max_denominator)
        if abs(float(fraction) - float(reward)) > 1e-9 * max(1.0, reward):
            raise RewardError(
                f"reward {reward} is not a small rational; "
                f"scale rewards manually")
        denominator = fraction.denominator
        scale = scale * denominator // gcd(scale, denominator)
    return scale


@register_engine
class DiscretizationEngine(JointEngine):
    """Tijms--Veldman engine with step size *step*.

    Parameters
    ----------
    step:
        The discretisation step ``d`` for both time and reward (the
        accuracy knob, Table 4 of the paper).  ``t/d`` must be an
        integer and ``max_s E(s) * d <= 1`` must hold.
    underflow:
        ``"drop"`` (density at negative accumulated reward is zero) or
        ``"clamp"`` (the paper's literal "set the index to 0" rule).
    kernel:
        Kernel backend running the propagation loops (a name, a
        :class:`~repro.kernels.KernelBackend` instance, or ``None``
        for the default selection order -- see ``docs/KERNELS.md``).
        Backends agree to ``<= 1e-12``.
    """

    name = "discretization"
    knobs = ("step", "underflow")

    def findings(self, model, t=None, r=None):
        """E005 (natural numbers), E008 (impulse step), E004 (step too
        coarse), E006 (off-grid time bound) and E003 (grid memory)."""
        d = self.step
        impulses = (model.impulse_matrix.data if model.has_impulse_rewards
                    else np.empty(0))
        if not (model.has_integer_rewards() and np.all(
                np.abs(impulses - np.round(impulses)) <= 1e-12)):
            yield Finding(
                "E005",
                f"the {self.name} engine needs natural-number reward "
                f"rates and impulse rewards, but the model's are not "
                f"integers",
                "rescale with model.scaled_rewards(integer_reward_"
                "scale(model.rewards)) and scale the reward bound by "
                "the same factor",
                RewardError)
        if impulses.size and abs(1.0 / d - round(1.0 / d)) > 1e-9:
            yield Finding(
                "E008",
                f"impulse rewards need a step of the form 1/n so the "
                f"impulse displacement is an integer number of cells, "
                f"but d={d:g}",
                f"use d=1/{max(1, ceil(1.0 / d))}",
                NumericalError)
        max_exit = model.max_exit_rate
        if max_exit * d > 1.0 + 1e-12:
            yield Finding(
                "E004",
                f"discretisation step d={d:g} is too coarse: max exit "
                f"rate {max_exit:g} * d = {max_exit * d:.3g} > 1 "
                f"breaks the first-order scheme's probability "
                f"interpretation",
                f"use a step of at most {1.0 / max_exit:.6g}",
                NumericalError)
        if t is not None:
            steps = t / d
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                yield Finding(
                    "E006",
                    f"the time bound {t:g} is not a multiple of the "
                    f"discretisation step d={d:g}; the scheme only "
                    f"evaluates the joint distribution on the d-grid",
                    f"choose a step dividing the time bound (e.g. "
                    f"d={t:g}/{max(1, ceil(steps)):d}) or round "
                    f"the bound to the grid",
                    NumericalError)
        if r is None:
            return
        cells, lattice = self._grid(model, t, r)
        estimated_bytes = 16.0 * model.num_states * cells
        if estimated_bytes > DGRID_MEMORY_WARNING:
            yield Finding(
                "E003",
                f"the discretisation grid needs {cells:,} reward cells "
                f"per state (r/(g d) + 1, r capped at rho_max * t "
                f"without impulses, lattice spacing g = {lattice}), "
                f"an estimated working set of "
                f"~{estimated_bytes / 2**20:.0f} MiB for "
                f"{model.num_states} states",
                "increase the step d, lower the reward bound, or use "
                "the Sericola/pseudo-Erlang engine")

    def __init__(self,
                 step: float = 1.0 / 64,
                 underflow: str = "drop",
                 kernel: Union[str, KernelBackend, None] = None):
        if step <= 0.0:
            raise NumericalError(f"step must be positive, got {step}")
        if underflow not in ("drop", "clamp"):
            raise NumericalError(
                f"underflow must be 'drop' or 'clamp', got {underflow!r}")
        self.step = float(step)
        self.underflow = underflow
        super().__init__(kernel)

    def _cache_token(self) -> Tuple:
        # Backends agree only to <= 1e-12, so the backend name keys the
        # result cache alongside the numeric knobs.  The "auto"
        # sentinel is sound: the per-model resolution is deterministic
        # given the model content already in the key.  The literal True
        # fills the slot of the removed ``include_zero`` knob (cell 0 is
        # always summed): checkpoint headers hold ``repr(token)``, so
        # the token must stay byte-identical for older files to resume.
        return (self.name, self.step, self.underflow, True, self.kernel)

    # ------------------------------------------------------------------
    # certified intervals: the d vs d/2 Richardson-style bracket
    # ------------------------------------------------------------------

    #: Finest step the refinement loop will request (the cost is
    #: quadratic in ``1/d``; below this a different engine is cheaper).
    MIN_STEP = 1.0 / 4096

    def _bracket_companion(self) -> "DiscretizationEngine":
        """The ``d/2`` companion of the certified interval.

        The scheme converges at rate O(d) (Table 4 of the paper), so
        the run at half the step carries at most half the error and
        :func:`~repro.algorithms.base.richardson_bracket` turns the two
        resolutions into a sound interval that contains both the exact
        value and this engine's own point value (the ``d`` run).
        """
        return self._with(step=self.step / 2.0)

    def refined(self):
        """Halve the step ``d`` (the Table 4 knob)."""
        if self.step / 2.0 < self.MIN_STEP:
            return None
        return self._bracket_companion()

    # ------------------------------------------------------------------
    # shared-prefix (t, r) grid path
    # ------------------------------------------------------------------

    def _compute_joint_sweep(self,
                             model: MarkovRewardModel,
                             times: Sequence[float],
                             rewards: Sequence[float],
                             indicator: np.ndarray) -> np.ndarray:
        """One adjoint propagation per reward bound covers every time.

        The adjoint recurrence is time-homogeneous: after ``k``
        applications the weight array holds the per-initial-state
        values for the horizon ``(k + 1) d``, so a single backward run
        to ``max(times)`` serves **all** requested time bounds of one
        reward column, bit-identically to the per-point runs (same
        operator, same application sequence, snapshots read mid-run).
        Cost per column: ``O(T_max * nnz * r/(g d))`` instead of
        ``O((sum_i T_i) * nnz * r/(g d))``.

        Columns are genuinely independent -- the operator's reward
        truncation depends on ``r`` -- so each column is one work unit
        (:meth:`~repro.algorithms.base.JointEngine.work_units`); this
        method runs its columns in order.
        """
        times = [float(t) for t in times]
        backend = self._backend_for(model)
        grid = np.empty((len(times), len(rewards), model.num_states))
        for j, reward in enumerate(rewards):
            if reward == 0.0:
                grid[:, j] = zero_reward_bound_sweep(
                    model, times, indicator, kernel=backend,
                    metrics_engine=self.name)
            else:
                grid[:, j] = self._adjoint_column(
                    model, times, float(reward), indicator, backend)
        return grid

    def _adjoint_column(self,
                        model: MarkovRewardModel,
                        times: Sequence[float],
                        r: float,
                        indicator: np.ndarray,
                        backend: KernelBackend) -> np.ndarray:
        """Backward values for a fixed bound *r* at several times.

        Returns the ``(len(times), |S|)`` array of joint-probability
        vectors; *times* must be positive multiples of the step.  One
        adjoint run to the largest horizon, with the weight array read
        off at every requested horizon on the way.
        """
        steps, num_cells, rho, lattice = self._setup(model, times, r)
        num_steps = max(steps)
        n = model.num_states
        snapshots: Dict[int, List[int]] = {}
        for index, count in enumerate(steps):
            snapshots.setdefault(count, []).append(index)

        in_range = rho < num_cells

        weight = np.empty((n, num_cells))
        weight[:] = indicator[:, None]

        stepper = self._propagator(model, num_cells, lattice, weight,
                                   backend)
        out = np.empty((len(times), n))
        matvec_hist = (OBS.metrics.histogram("repro_matvec_block_seconds",
                                             engine=self.name,
                                             kernel=backend.name)
                       if OBS.enabled else None)
        with obs_span("adjoint_column", r=float(r), steps=num_steps,
                      points=len(times), cells=num_cells, lattice=lattice):
            for advances in range(num_steps):
                # `advances` applications done: the weight array holds
                # the values for the horizon (advances + 1) * d.
                for index in snapshots.get(advances + 1, ()):
                    result = np.zeros(n)
                    result[in_range] = weight[in_range, rho[in_range]]
                    out[index] = np.clip(result, 0.0, 1.0)
                if advances == num_steps - 1:
                    break
                if matvec_hist is not None:
                    block_start = time.perf_counter()
                weight = stepper.step()
                if matvec_hist is not None:
                    matvec_hist.observe(time.perf_counter() - block_start)
        self._count_steps(stepper, num_steps - 1)
        return out

    def _count_steps(self, stepper, steps: int) -> None:
        """Count one finished run of *steps* propagation steps."""
        steps = max(steps, 0)
        count_engine(self.name, propagation_steps=steps,
                     matvec_count=steps * stepper.products_per_step)

    # ------------------------------------------------------------------
    # shared setup and cached step matrices
    # ------------------------------------------------------------------

    def _propagator(self, model: MarkovRewardModel, num_cells: int,
                    lattice: int, state: np.ndarray,
                    backend: KernelBackend) -> DiscretizationPropagator:
        """An adjoint kernel stepper over the caller-seeded *state*,
        whose *num_cells* columns are reward cells ``0, g, 2g, ...``
        (``g`` = *lattice*).  The cached impulse operators keep raw
        cell displacements; they are divided by ``g`` here."""
        operator, impulses = self._step_operators(
            model, backend.operator_policy)
        live = [(cells // lattice, op) for cells, op in impulses
                if cells // lattice < num_cells]
        return DiscretizationPropagator(
            backend, operator, live, self._shift_plan(model, lattice),
            self.underflow == "clamp", state)

    def _shift_plan(self, model: MarkovRewardModel,
                    lattice: int) -> ShiftPlan:
        """The per-state displacement plan in lattice units
        (``rho / g``), cached per ``(model, step, g)``: a ``drop`` and a
        ``clamp`` run of one model may differ in ``g``."""
        key = ("disc-shift-plan", model.fingerprint, self.step, lattice)
        plan = matrix_cache.get(key)
        if plan is None:
            plan = build_shift_plan(
                np.round(model.rewards).astype(np.int64) // lattice)
            matrix_cache.put(key, plan)
        return plan

    def _step_operators(self, model: MarkovRewardModel,
                        policy: str = "auto"
                        ) -> Tuple[StepOperator,
                                   Tuple[Tuple[int, StepOperator], ...]]:
        """The fused per-step operator plus the impulse operators.

        ``diag(1 - E d)`` folds into the ``d``-scaled rate matrix, so
        the former ``stay[:, None] * W + base @ W`` pair becomes one
        product per step.  Cached per ``(model, step)``; under the
        default ``"auto"`` policy the representation (dense vs CSR)
        never depends on the kernel backend, so that cache entry is
        backend-neutral.  The sparse/dense backends pin the
        representation instead and get their own key element.
        """
        key = (("disc-step-op", model.fingerprint, self.step)
               if policy == "auto"
               else ("disc-step-op", model.fingerprint, self.step, policy))
        cached = matrix_cache.get(key)
        if cached is None:
            groups = self._build_step_groups(model, self.step)
            n = model.num_states
            base = groups.pop(0, sp.csr_matrix((n, n)))
            stay = 1.0 - model.exit_rates * self.step
            fused = (base + sp.diags(stay, 0, format="csr")).tocsr()
            operator = make_operator(fused, policy=policy)
            impulses = tuple(
                (int(cells), make_operator(matrix, policy=policy))
                for cells, matrix in sorted(groups.items()))
            cached = (operator, impulses)
            matrix_cache.put(key, cached)
        return cached

    def _grid(self, model: MarkovRewardModel, t: Optional[float],
              r: float) -> Tuple[int, int]:
        """``(cells, g)`` of a run to ``(t, r)`` (:func:`lattice_cells`).

        On impulse-free models ``Y_t <= rho_max * t``, so the reward
        cells stop there whatever *r* is.
        """
        if t is not None and not model.has_impulse_rewards:
            r = min(r, float(np.round(model.rewards).max()) * t)
        return lattice_cells(model, self.step, r, self.underflow)

    def _setup(self, model: MarkovRewardModel, times: Sequence[float],
               r: float) -> Tuple[List[int], int, np.ndarray, int]:
        """Validated ``(steps, num_cells, rho, g)`` of a run to the
        horizons *times*: ``t / d`` per horizon, and ``num_cells`` and
        ``rho`` in units of the lattice spacing ``g`` (:meth:`_grid`).
        """
        self._require(model, times)
        num_cells, lattice = self._grid(model, max(times), r)
        rho = np.round(model.rewards).astype(np.int64)
        return ([int(round(t / self.step)) for t in times], num_cells,
                rho // lattice, lattice)

    @staticmethod
    def _build_step_groups(model: MarkovRewardModel, d: float
                           ) -> Dict[int, sp.csr_matrix]:
        """``d``-scaled rate matrices (row = source) grouped by the
        number of reward cells their impulse displaces (0 for no
        impulse)."""
        base = (model.rate_matrix * d).tocsr()
        if not model.has_impulse_rewards:
            return {0: base}
        coo = base.tocoo()
        iota = np.asarray(model.impulse_matrix[coo.row, coo.col]).ravel()
        shift_cells = np.rint(iota * (1.0 / d)).astype(np.int64)
        groups = {}
        for cells in np.unique(shift_cells):
            mask = shift_cells == cells
            groups[int(cells)] = sp.coo_matrix(
                (coo.data[mask], (coo.row[mask], coo.col[mask])),
                shape=base.shape).tocsr()
        return groups
