"""Common interface of the joint-distribution engines.

Every engine computes, for an MRM with accumulated reward ``Y_t``, the
*joint* probability

    Pr{ Y_t <= r, X_t in target | X_0 = s }        for every state s,

the quantity that Theorem 2 of the paper reduces time- and
reward-bounded until checking to.  Engines are value objects holding
their accuracy parameters: a run writes back only the ``last_*``
read-outs (:attr:`JointEngine.last_kernel`, Sericola's
``last_diagnostics``), so one engine instance serves every model, query
and thread of a sweep.  What a run decided also goes on its span.

Each engine declares its accuracy knobs once, in :attr:`JointEngine.knobs`
(constructor order, ``kernel`` excluded); the base class derives from
that one declaration what must agree everywhere: the process-transport
:meth:`JointEngine.spec`, the default cache token, the refinement and
bracket copies (:meth:`JointEngine._with`) and ``repr``.  The
``kernel`` request is resolved once, in :meth:`JointEngine.__init__`.

Each engine has **one** computational core,
:meth:`JointEngine._compute_joint_sweep`: the per-initial-state values
over a whole ``(t, r)`` grid, sharing the propagation prefix across the
grid (one discretisation adjoint run or Erlang expanded chain per
reward column, one Sericola series per column group).  Every public
entry point is a view of it:

* :meth:`JointEngine.joint_probability_sweep` consults the shared
  least-recently-used result cache (:mod:`repro.algorithms.cache`)
  *per grid point*, keyed on ``(model fingerprint, engine parameters,
  t, r, target mask)``, and splits the missing cells into the engine's
  shared-work units (:meth:`JointEngine.work_units`), each one core
  run; the executors of :mod:`repro.exec` schedule, retry and
  checkpoint those units -- in-process, on threads or on worker
  processes -- and never see single cells;
* :meth:`JointEngine.joint_probability_vector` is its ``1 x 1`` cell;
* :meth:`JointEngine.joint_probability_interval_sweep` combines cached
  point sweeps with the engine's error accounting, which each engine
  declares as exactly one of an a-priori bound
  (:meth:`JointEngine._a_priori_widths`) or a bracket companion
  (:meth:`JointEngine._bracket_companion`), and
  :meth:`JointEngine.joint_probability_interval` is its ``1 x 1`` cell.

Every ``t = 0`` row is answered in :meth:`JointEngine.sweep_unit` --
``Y_0 = 0 <= r``, so it is the target indicator -- and the core only
ever sees positive time bounds.

The core runs in one direction, backwards from the target: one run
covers every initial state, and the value from a single state (or an
initial distribution ``alpha``) is a read-off of the vector (``v[s]``,
``alpha @ v``).  The forward per-state recurrences that check it are
independent code in ``tests/oracles.py``.

The engines' work counters (cache hits/misses, propagation steps,
sparse products, sweep points) go straight into the metrics registry as
``repro_engine_*_total{engine=...}`` (:func:`repro.obs.count_engine`)
while observability is on.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Type, Union)

import numpy as np

from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError, ReproError, WorkerError
from repro.kernels import KernelBackend, resolve_static
from repro.obs import OBS, annotate, peak_rss_bytes
from repro.obs import span as obs_span


def richardson_bracket(coarse: np.ndarray, fine: np.ndarray,
                       padding: float = 1e-12,
                       safety: float = 2.0
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """A certified interval from two resolutions of a convergent scheme.

    For a scheme whose error shrinks by a factor ``rho`` per refinement
    (O(d) discretisation with halved step, the pseudo-Erlang bracket
    with doubled phases -- both have ``rho ~ 2``), the distance
    ``|fine - coarse| = |err(coarse) - err(fine)| = (rho - 1) *
    |err(fine)|`` measures the remaining error of *fine*: the interval
    ``fine -+ safety * |fine - coarse|`` contains the exact value
    whenever ``rho >= 1 + 1/safety``.  The default ``safety = 2``
    tolerates convergence ratios down to 1.5, covering the fluctuation
    around the asymptotic factor 2 observed in the paper's Tables 3
    and 4.  The interval always contains both computed points
    (*coarse* is at most ``|fine - coarse|`` from the centre), clipped
    to ``[0, 1]``.
    """
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    spread = safety * np.abs(fine - coarse) + padding
    lower = np.clip(fine - spread, 0.0, 1.0)
    upper = np.clip(fine + spread, 0.0, 1.0)
    return lower, upper


@dataclass(frozen=True)
class Finding:
    """One statement an engine makes about a workload.

    ``code`` is the diagnostic code (``E001``--``E008``, catalogued in
    ``docs/DIAGNOSTICS.md``).  A finding with an ``error`` class is a
    hard requirement the workload breaks: a run raises ``error`` and
    the lint reports it as an error when the query needs the joint
    distribution.  Without one it is a cost estimate, only ever a
    warning.
    """

    code: str
    message: str
    hint: str
    error: Optional[Type[ReproError]] = None


@dataclass(frozen=True)
class WorkUnit:
    """One shared-work unit of a ``(t, r)`` sweep grid.

    The cells ``rows x columns`` (indices into the sweep's times and
    reward bounds) that one engine-native run serves -- a reward
    column, or a Sericola column group (see
    :meth:`JointEngine.work_units`).
    """

    rows: Tuple[int, ...]
    columns: Tuple[int, ...]

    @property
    def cells(self) -> List[Tuple[int, int]]:
        """The unit's ``(i, j)`` cells in grid order."""
        return [(i, j) for i in self.rows for j in self.columns]


@dataclass(frozen=True)
class PartialSweep:
    """Outcome of a deadline-bounded ``(t, r)`` grid evaluation.

    Attributes
    ----------
    grid:
        ``(len(times), len(rewards), |S|)`` array; cells that were not
        evaluated hold ``NaN``.
    completed:
        Boolean ``(len(times), len(rewards))`` mask of evaluated cells.
    unevaluated:
        The ``(i, j)`` index pairs of cells that were *not* evaluated
        (the deadline passed before their unit started, or they failed
        for good), in grid order -- the explicit work-list a caller can
        resume from.
    failures:
        One :class:`~repro.errors.WorkerError` per cell that failed for
        good (task context attached); deadline-skipped cells are not
        failures, they simply appear in :attr:`unevaluated`.
    """

    grid: np.ndarray
    completed: np.ndarray
    unevaluated: Tuple[Tuple[int, int], ...]
    failures: Tuple[WorkerError, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every grid cell was evaluated."""
        return not self.unevaluated


class JointEngine(ABC):
    """Computes ``Pr{Y_t <= r, X_t in target}`` on an MRM."""

    #: Short identifier used by :func:`get_engine` and the CLI.
    name: str = "abstract"

    #: The accuracy knobs in constructor order, ``kernel`` excluded:
    #: the one statement of the engine's identity.  :meth:`spec`, the
    #: default :meth:`_cache_token`, :meth:`_with` and ``repr`` read
    #: the attributes of these names.
    knobs: Tuple[str, ...] = ()

    #: Name of the kernel backend the most recent in-process
    #: computation resolved to.  Engines whose ``kernel`` knob is the
    #: ``"auto"`` sentinel pick a backend per model
    #: (:func:`repro.kernels.select_for_model`) at their entry points;
    #: this read-out serves ``repro check -v`` and benchmark rows.
    #: Units run by worker processes never set it: their decisions
    #: arrive as the ``kernel=`` attribute of their spans.
    last_kernel: Optional[str] = None

    def __init__(self, kernel: Union[str, KernelBackend, None] = None):
        """Resolve the ``kernel`` request: a name or a
        :class:`~repro.kernels.KernelBackend` pins a backend now (as
        does ``REPRO_KERNEL``), ``None`` leaves the choice to
        :meth:`_backend_for`, per model, and :attr:`kernel` reads
        ``"auto"``."""
        self._kernel_request = kernel
        self._backend = resolve_static(kernel)
        self.kernel = ("auto" if self._backend is None
                       else self._backend.name)

    def _backend_for(self, model: MarkovRewardModel):
        """The kernel backend to run *model* with.

        A statically pinned backend (explicit ``kernel=`` knob or the
        ``REPRO_KERNEL`` environment variable, resolved at engine
        construction into ``self._backend``) wins; otherwise the
        model-aware auto-selection picks per model.  The choice is a
        deterministic function of the model's dimensions, so cache
        entries stored under the engine's ``"auto"`` token never mix
        backends for the same model fingerprint.

        This is the one place a kernel choice is recorded: in
        :attr:`last_kernel`, in the ``repro_kernel_selected`` gauge and
        as ``kernel=`` on the current span.
        """
        backend = self._backend
        if backend is None:
            from repro.kernels import select_for_model
            backend = select_for_model(model.num_states,
                                       model.num_transitions)
        self.last_kernel = backend.name
        if OBS.enabled:
            OBS.metrics.gauge("repro_kernel_selected", engine=self.name,
                              kernel=backend.name).set(1.0)
            annotate(kernel=backend.name)
        return backend

    def findings(self, model: MarkovRewardModel,
                 t: Optional[float] = None,
                 r: Optional[float] = None) -> Iterator[Finding]:
        """The engine's requirements of, and costs on, ``(model, t,
        r)``: the one place each engine states its preconditions.

        The lint (:func:`repro.analysis.engine_passes.\
engine_compatibility`) reports every finding and the runtime guard
        (:meth:`_require`) raises the hard ones.  A ``None`` bound
        skips the findings that need it; no hard finding needs *r*, so
        the guard passes none and skips the grid-size estimate.  The
        default engine requires nothing.
        """
        return iter(())

    def _require(self, model: MarkovRewardModel,
                 times: Iterable[float] = ()) -> None:
        """Raise the first hard :meth:`findings` entry of *model* at
        any of the time bounds *times* (none: the model alone)."""
        for t in sorted(set(times)) or [None]:
            for finding in self.findings(model, t):
                if finding.error is not None:
                    raise finding.error(f"[{finding.code}] "
                                        f"{finding.message}; "
                                        f"{finding.hint}")

    @contextmanager
    def _observed(self, name: str, histogram: Optional[str] = None,
                  **attributes) -> Iterator:
        """Observability wrapper shared by the engine entry points.

        With :mod:`repro.obs` disabled this degrades to yielding the
        inert no-op span (one flag check).  Enabled, it opens a tracer
        span named *name* carrying ``engine=`` plus *attributes*,
        samples the peak RSS when the body ends, and -- when
        *histogram* is given -- records the wall duration there.  The
        work counters are not its business: the code doing the work
        counts it (:func:`repro.obs.count_engine`).
        """
        if not OBS.enabled:
            with obs_span(name) as null_span:
                yield null_span
            return
        start = time.perf_counter()
        with OBS.tracer.span(name, engine=self.name,
                             **attributes) as span:
            try:
                yield span
            finally:
                elapsed = time.perf_counter() - start
                rss = peak_rss_bytes()
                if rss:
                    # This process's sample plus the derived roll-up
                    # (the BENCH rows and thread/process parity both
                    # read the ``_max`` roll-up; see repro.obs.remote).
                    OBS.metrics.gauge("repro_peak_rss_bytes",
                                      worker="main").update_max(rss)
                    OBS.metrics.gauge(
                        "repro_peak_rss_bytes_max").update_max(rss)
                if histogram is not None:
                    OBS.metrics.histogram(
                        histogram, engine=self.name).observe(elapsed)

    def joint_probability_vector(self,
                                 model: MarkovRewardModel,
                                 t: float,
                                 r: float,
                                 target: Iterable[int]) -> np.ndarray:
        """Per-initial-state joint probabilities, batched and cached.

        Returns the vector ``v`` with
        ``v[s] = Pr{Y_t <= r, X_t in target | X_0 = s}``, computed for
        every initial state in a single propagation.  It is the ``1 x
        1`` cell of :meth:`joint_probability_sweep`, so scalar and grid
        queries share one computation and one cache path; the
        ``repro_engine_cache_*_total`` counters record hits and
        misses.
        """
        with self._observed("joint_vector",
                            histogram="repro_engine_joint_vector_seconds",
                            t=float(t), r=float(r)):
            return self.joint_probability_sweep(model, [t], [r],
                                                target)[0, 0]

    def joint_probability_interval(self,
                                   model: MarkovRewardModel,
                                   t: float,
                                   r: float,
                                   target: Iterable[int]
                                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Certified ``(lower, upper)`` interval vectors.

        Returns two vectors with ``lower[s] <= Pr{Y_t <= r, X_t in
        target | X_0 = s} <= upper[s]`` -- a *sound* enclosure of the
        exact joint probability derived from the engine's own error
        accounting (see :meth:`joint_probability_interval_sweep`, of
        which this is the ``1 x 1`` cell).  The engine's point value
        :meth:`joint_probability_vector` always lies inside the
        interval.
        """
        with self._observed("joint_interval", t=float(t), r=float(r)):
            lower, upper = self.joint_probability_interval_sweep(
                model, [t], [r], target)
            return lower[0, 0], upper[0, 0]

    def joint_probability_interval_sweep(
            self,
            model: MarkovRewardModel,
            times: Sequence[float],
            reward_bounds: Sequence[float],
            target: Iterable[int]
            ) -> Tuple[np.ndarray, np.ndarray]:
        """Certified interval grids over a whole ``(t, r)`` grid.

        Returns ``(lower, upper)`` arrays of shape ``(len(times),
        len(reward_bounds), |S|)``, built from cached point sweeps and
        the engine's declared error accounting -- exactly one of

        * an a-priori bound (:meth:`_a_priori_widths`): the interval is
          the point grid widened by the declared amounts, clipped to
          ``[0, 1]``;
        * a bracket companion (:meth:`_bracket_companion`): the
          interval is :func:`richardson_bracket` of the point grid and
          the companion's grid.

        Both grids go through the shared result cache, so an interval
        after a point query computes only the companion's cells, and a
        later refinement to the companion starts warm.
        """
        widths = self._a_priori_widths()
        companion = (self._bracket_companion() if widths is None
                     else None)
        if widths is None and companion is None:
            raise NumericalError(
                f"engine {self.name!r} does not support certified "
                f"intervals")
        with self._observed("joint_interval_sweep",
                            points=len(times) * len(reward_bounds)):
            point = self.joint_probability_sweep(model, times,
                                                 reward_bounds, target)
            if widths is not None:
                below, above = widths
                return (np.maximum(point - below, 0.0),
                        np.minimum(point + above, 1.0))
            fine = companion.joint_probability_sweep(
                model, times, reward_bounds, target)
            return richardson_bracket(point, fine)

    def _a_priori_widths(self) -> Optional[Tuple[float, float]]:
        """``(below, above)``: the exact value lies in ``[value -
        below, value + above]`` of every computed value, or ``None``
        when the engine has no a-priori error bound."""
        return None

    def _bracket_companion(self) -> "Optional[JointEngine]":
        """A more accurate engine whose error is at most half this
        one's (the premise of :func:`richardson_bracket`), or ``None``
        when the engine brackets nothing."""
        return None

    def _options(self) -> Dict:
        """The knob values by name, in :attr:`knobs` order."""
        return {knob: getattr(self, knob) for knob in self.knobs}

    def spec(self) -> Dict:
        """Transportable identity: the constructor arguments that
        rebuild an equivalent engine in another process.

        Returns ``{"engine": <registry name>, "options": {...}}`` such
        that ``get_engine(spec["engine"], **spec["options"])`` yields
        an engine with an *equal cache token* -- the process executor
        (:mod:`repro.exec`) ships this instead of pickling engine
        instances (backends may hold unpicklable jitted state), and
        the equal token is what guarantees worker results are
        bit-identical to in-process ones.  The options are the
        :attr:`knobs` plus ``kernel``: ``None`` keeps per-model
        auto-selection (deterministic in the model's dimensions, so
        workers choose identically), a resolved backend travels by
        name, which also pins workers whose ``REPRO_KERNEL`` differs.
        """
        options = self._options()
        options["kernel"] = None if self.kernel == "auto" else self.kernel
        return {"engine": self.name, "options": options}

    def _with(self, **changes) -> "JointEngine":
        """A copy of this engine with *changes* to its knobs, on the
        same ``kernel`` request (a backend instance stays one)."""
        return type(self)(**{**self._options(), **changes},
                          kernel=self._kernel_request)

    def refined(self) -> "Optional[JointEngine]":
        """A copy of this engine with a tightened accuracy knob.

        One refinement step of the certified checker's adaptive loop:
        Sericola tightens ``epsilon``, the discretisation halves ``d``,
        the pseudo-Erlang engine doubles ``k``.  Returns ``None`` when
        the engine cannot (usefully) refine further -- the checker then
        degrades to the next engine in its fallback chain.
        """
        return None

    def joint_probability_sweep_partial(
            self,
            model: MarkovRewardModel,
            times: Sequence[float],
            reward_bounds: Sequence[float],
            target: Iterable[int],
            deadline: Optional[float] = None,
            max_workers: Optional[int] = None,
            executor=None,
            checkpoint=None) -> PartialSweep:
        """A ``(t, r)`` grid evaluation that survives a mid-grid
        deadline, a worker crash, or the death of this process.

        The grid is split into the engine's shared-work units
        (:meth:`work_units`: a reward column, or a Sericola column
        group) and *executor* runs them: ``None``/``"thread"`` one
        after another on the calling thread, ``"process"`` (or a
        :class:`~repro.exec.ProcessShardExecutor`) on *max_workers*
        crash-isolated worker processes with retry/backoff and hang
        detection; *max_workers* sizes worker processes only.  Each
        unit is one :meth:`sweep_unit` run, so the shared propagation
        prefix survives; values are bit-identical to
        :meth:`joint_probability_sweep` whatever the executor.

        *deadline* is an absolute ``time.monotonic()`` timestamp: a
        unit that has not started when it passes lists all its cells in
        :attr:`PartialSweep.unevaluated`, a running unit drains.  A
        unit that fails for good is retried cell by cell, so a fault
        that follows one cell costs only that cell.  Completed cells go
        through the shared result cache, so a later retry reuses all
        finished work.

        *checkpoint* (the path of a :class:`~repro.exec.SweepCheckpoint`
        file) makes progress durable:
        each finished unit's cells are flushed to the file in one
        write, cells already present are served without computing, and
        an interrupted run resumes from the file -- under any executor.
        """
        from repro.exec.executor import resolve_executor
        resolved = resolve_executor(executor, max_workers)
        try:
            return resolved.run(self, model, times, reward_bounds,
                                target, deadline=deadline,
                                checkpoint=checkpoint)
        finally:
            if resolved is not executor:
                resolved.close()

    def joint_probability_sweep(self,
                                model: MarkovRewardModel,
                                times: Sequence[float],
                                reward_bounds: Sequence[float],
                                target: Iterable[int]) -> np.ndarray:
        """Joint probabilities over a whole ``(t, r)`` grid, shared.

        Returns the array ``grid`` of shape ``(len(times),
        len(reward_bounds), |S|)`` with ``grid[i, j, s] =
        Pr{Y_{t_i} <= r_j, X_{t_i} in target | X_0 = s}`` -- every cell
        equals the same cell of a ``1 x 1`` grid (a
        :meth:`joint_probability_vector` call) bit for bit, but the
        engine shares the propagation prefix across the grid (see
        :meth:`_compute_joint_sweep`) instead of re-running per point.

        Caching is per grid point: already-cached cells (from earlier
        grids or scalar queries) are filled from the LRU (a per-point
        ``cache_hits`` increment), the remaining cells are computed by
        the engine's work units (:meth:`work_units`, run by the
        in-process :class:`~repro.exec.ThreadShardExecutor`) and then
        cached individually, so later scalar queries hit.
        ``repro_engine_sweep_points_total`` counts the grid cells
        served.  An engine error propagates unchanged.
        """
        from repro.exec.executor import ThreadShardExecutor
        return ThreadShardExecutor().sweep(self, model, times,
                                           reward_bounds, target)

    def work_units(self, missing: np.ndarray,
                   workers: int = 1) -> List["WorkUnit"]:
        """The shared-work units covering the *missing* grid cells.

        *missing* is the boolean ``(len(times), len(rewards))`` mask of
        cells still to compute and *workers* the parallelism the
        executor runs the units with.  The default is one unit per
        reward column: one run per reward bound serves every time bound
        of that column (the discretisation's adjoint run, the
        pseudo-Erlang expanded chain).  Executors schedule, retry and
        checkpoint these units; they never see single cells.
        """
        return [WorkUnit(tuple(np.flatnonzero(missing[:, j]).tolist()),
                         (int(j),))
                for j in np.flatnonzero(missing.any(axis=0))]

    def sweep_unit(self, model: MarkovRewardModel,
                   times: Sequence[float], rewards: Sequence[float],
                   indicator: np.ndarray) -> np.ndarray:
        """The ``(len(times), len(rewards), |S|)`` block of one work
        unit: one uncached :meth:`_compute_joint_sweep` run over the
        unit's distinct positive time bounds, with no engine-internal
        fan-out."""
        with self._observed("sweep_unit",
                            points=len(times) * len(rewards)):
            need_times = sorted(set(times))
            need_rewards = sorted(set(rewards))
            zeros = need_times.count(0.0)
            block = np.empty((len(need_times), len(need_rewards),
                              len(indicator)))
            # Y_0 = 0 <= r: every t = 0 row is the target indicator.
            block[:zeros] = indicator
            if zeros < len(need_times):
                block[zeros:] = self._compute_joint_sweep(
                    model, need_times[zeros:], need_rewards, indicator)
            return block[np.ix_([need_times.index(t) for t in times],
                                [need_rewards.index(r) for r in rewards])]

    @abstractmethod
    def _compute_joint_sweep(self,
                             model: MarkovRewardModel,
                             times: Sequence[float],
                             rewards: Sequence[float],
                             indicator: np.ndarray) -> np.ndarray:
        """The engine's one computational core (uncached).

        Returns the ``(len(times), len(rewards), |S|)`` grid of
        per-initial-state joint probabilities for the validated 0/1
        target *indicator* and positive time bounds *times* (the
        ``t = 0`` rows are :meth:`sweep_unit`'s), sharing the
        propagation prefix across the grid.  Every public entry point
        -- scalar vector, grid, unit, interval -- is a view of it.  Implementations must not read or
        write the result cache, and each cell must equal the same
        cell computed in a ``1 x 1`` grid bit for bit.
        """

    # ------------------------------------------------------------------

    def _cache_token(self) -> Tuple:
        """Hashable identity of the engine's accuracy parameters:
        ``(name, *knob values, kernel)``.

        Two engine instances with equal tokens must compute identical
        results, so they may share cache entries; checkpoint headers
        store ``repr(token)``, so a token stays byte-identical across
        releases.
        """
        return (self.name, *self._options().values(), self.kernel)

    def _validate(self, model: MarkovRewardModel,
                  times: Sequence[float], rewards: Sequence[float],
                  target: Iterable[int]) -> np.ndarray:
        """Shared argument validation; returns the target indicator.

        Every bound of the sweep must be ``>= 0`` -- written so that
        ``NaN`` fails too -- and the workload must meet the engine's
        hard :meth:`findings` (e.g. impulse rewards vs. the
        occupation-time algorithm).
        """
        for t in times:
            if not t >= 0.0:
                raise NumericalError(f"time bound must be >= 0, got {t}")
        for r in rewards:
            if not r >= 0.0:
                raise NumericalError(
                    f"reward bound must be >= 0, got {r}")
        self._require(model, times)
        indicator = np.zeros(model.num_states)
        states = np.fromiter((int(s) for s in target), dtype=np.int64)
        if states.size:
            bad = (states < 0) | (states >= model.num_states)
            if bad.any():
                s = int(states[np.argmax(bad)])
                raise NumericalError(
                    f"target state {s} outside the state space")
            indicator[states] = 1.0
        return indicator

    def __repr__(self) -> str:
        knobs = ", ".join(f"{knob}={value!r}"
                          for knob, value in self._options().items())
        return f"{type(self).__name__}({knobs})"


_REGISTRY: Dict[str, Type[JointEngine]] = {}


def register_engine(cls: Type[JointEngine]) -> Type[JointEngine]:
    """Class decorator adding an engine to the name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_engines() -> "list[str]":
    """Names of all registered engines."""
    return sorted(_REGISTRY)


def get_engine(name: str, **options) -> JointEngine:
    """Instantiate a registered engine by name.

    >>> get_engine("sericola").name
    'sericola'
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise NumericalError(
            f"unknown engine {name!r}; available: "
            f"{', '.join(available_engines())}") from None
    return cls(**options)
