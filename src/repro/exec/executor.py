"""Sweep executors: in-process and crash-isolated multi-process.

Every executor runs an engine's shared-work units
(:meth:`~repro.algorithms.base.JointEngine.work_units`), one
:meth:`~repro.algorithms.base.JointEngine.sweep_unit` call each.
:class:`SweepGrid` holds everything that does not depend on *where*
units run -- validation, cache and checkpoint prefill, the merge of
finished unit blocks, failure isolation -- so
:class:`ThreadShardExecutor` (in this process, behind
``joint_probability_sweep``) and :class:`ProcessShardExecutor` only
schedule.

:class:`ProcessShardExecutor` shards the shared-work units of a
``(t, r)`` sweep grid (:meth:`~repro.algorithms.base.JointEngine.\
work_units`: a reward column, a Sericola column group) across worker
*processes* (see :mod:`repro.exec.worker` for the worker side and the
wire protocol), so a crashing, hanging or OOM-killed computation takes
down one task attempt, never the sweep.  One task is one unit; the
executor never sees single cells, except that a unit which fails for
good is retried cell by cell so the fault costs only its own cell:

* **Crash isolation** -- a dead worker is detected (pipe EOF / process
  sentinel), its in-flight unit is retried on a respawned worker, and
  the restart is counted (``repro_worker_restart_total{reason=...}``).
* **Hang detection** -- workers heartbeat on a background thread; a
  busy worker whose heartbeat goes stale is killed and replaced.
* **Bounded retries** -- infrastructure failures (crash, kill, hang,
  checksum-corrupt result) are retried under the
  :class:`~repro.exec.retry.RetryPolicy`: the first retry at once,
  later ones after exponential backoff with deterministic jitter.  A
  corrupt result is re-sent by the worker that computed it (it holds
  the good bytes), so recovery recomputes only what a dead worker
  took with it.  Exceptions raised *by the engine* are
  deterministic and therefore not retried -- they surface as
  :class:`~repro.errors.WorkerError` failures exactly like the
  threaded path's.
* **Circuit breaker** -- every failure/success is recorded against the
  engine/backend's breaker in the shared
  :data:`~repro.exec.retry.BREAKERS` registry; when it opens, the
  sweep stops dispatching (remaining cells come back unevaluated) and
  the :class:`~repro.mc.certified.CertifiedChecker` fallback chain
  skips the engine until the cooldown expires.
* **Checkpointed resume** -- with a checkpoint path (a
  :class:`~repro.exec.checkpoint.SweepCheckpoint` file), every
  finished unit's cells are durably appended in one write the moment
  it arrives, cells already in the file are served without computing,
  and both are seeded into the shared joint-vector cache -- so an
  interrupted run (``SIGINT``, crash, ``kill -9``) resumes exactly
  where it stopped, re-running only units with missing cells.
* **Fault injection** -- the scheduler applies the
  :class:`~repro.exec.faultinject.FaultPlan` (``faults=`` or
  ``REPRO_FAULTS``): an attempt of a unit faults when one of its cells
  still has a scheduled fault, which that attempt consumes, so each
  scheduled cell fault fires exactly once per its cell attempt.

Determinism: the engines are deterministic functions of (model
content, engine parameters), results travel as raw float64 bytes with
BLAKE2b checksums, and retry jitter only schedules *when* work runs --
so a sweep's grid is **bit-identical** whatever the executor, worker
count, fault history or resume pattern.  The chaos suite
(``tests/test_exec_chaos.py``) asserts exactly that.

The executor returns the same :class:`~repro.algorithms.base.\
PartialSweep` the threaded path does, through the same
:class:`SweepGrid` bookkeeping, so callers switch with one
``executor="process"`` argument.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing as mp
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ThreadPoolExecutor, wait)
from contextlib import nullcontext
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.algorithms.base import PartialSweep, WorkUnit
from repro.algorithms.cache import joint_cache
from repro.errors import (NumericalError, RemoteTaskError,
                          WorkerCrashError, WorkerError)
from repro.exec.checkpoint import SweepCheckpoint, _checksum
from repro.exec.faultinject import FaultPlan
from repro.exec.retry import BREAKERS, BreakerRegistry, RetryPolicy
from repro.exec.worker import worker_main
from repro.kernels import KernelBackend
from repro.obs import OBS, REGISTRY, count_engine
from repro.obs import span as obs_span
from repro.obs.recorder import FlightRecorder, ResourceSampler
from repro.obs.remote import merge_telemetry

#: How long a worker gets to exit after a ``("stop",)`` before it is
#: terminated (and then killed) during shutdown.
_SHUTDOWN_GRACE = 2.0

#: Minimum seconds between two ``progress`` callbacks of a run (the
#: final snapshot always fires).
_PROGRESS_INTERVAL = 0.5

#: Upper bound on the default worker count; sweep units are
#: memory-bound sparse kernels, so more workers than this rarely help.
_WORKER_CAP = 8


def remaining(deadline: Optional[float]) -> float:
    """Seconds left until *deadline* (an absolute ``time.monotonic()``
    timestamp); ``math.inf`` when there is no deadline.

    Every deadline comparison is ``remaining(deadline) <= 0.0`` and
    every wait timeout is derived from the same value, so the slack
    cannot drift between call sites.
    """
    if deadline is None:
        return math.inf
    return deadline - time.monotonic()


def resolve_workers(max_workers: Optional[int], num_tasks: int) -> int:
    """The effective worker count for *num_tasks* tasks.

    ``None`` means ``min(cpu_count, 8, num_tasks)``; explicit values
    are clipped to the task count (workers without work are never
    started).
    """
    if num_tasks <= 0:
        return 0
    if max_workers is None:
        available = os.cpu_count() or 1
        return max(1, min(available, _WORKER_CAP, num_tasks))
    return max(1, min(int(max_workers), num_tasks))


def _record_deadline_missed(count: int) -> None:
    """Count units abandoned because the sweep's deadline passed.

    Recorded unconditionally (the registry is always on): a silent
    timeout is precisely the situation observability must not lose.
    """
    if count > 0:
        REGISTRY.counter("repro_deadline_missed_total").inc(count)


def breaker_key(engine) -> str:
    """The circuit-breaker key of *engine*: ``"<engine>/<request>"``,
    the ``kernel`` request by name, or ``auto`` without one.

    One breaker per engine/backend combination, shared between the
    process executor (writer) and the certified checker's fallback
    chain (reader).
    """
    kernel = engine._kernel_request
    if isinstance(kernel, KernelBackend):
        kernel = kernel.name
    return f"{engine.name}/{kernel or 'auto'}"


class SweepGrid:
    """One sweep's grid, cache and checkpoint side.

    Construction validates the sweep, counts ``sweep_points`` and
    serves cells from *checkpoint* (seeding the shared cache) and from
    the shared cache (one ``cache_hits`` each, every other cell one
    ``cache_misses``); :meth:`units` hands out the work for the rest.
    The counters go to the engine-counter ledger
    (:func:`repro.obs.count_engine`), as do the cache evictions of
    every cell this grid stores.
    """

    def __init__(self, engine, model, times, rewards, target,
                 checkpoint: Optional[str] = None):
        self.engine = engine
        self.model = model
        self.times = [float(t) for t in times]
        self.rewards = [float(r) for r in rewards]
        self.indicator = engine._validate(model, self.times,
                                          self.rewards, target)
        self.token = engine._cache_token()
        self.mask = self.indicator.tobytes()
        shape = (len(self.times), len(self.rewards), model.num_states)
        self.grid = np.full(shape, np.nan)
        self.completed = np.zeros(shape[:2], dtype=bool)
        self.failures: Dict[int, WorkerError] = {}
        self.checkpoint: Optional[SweepCheckpoint] = None
        self.resumed = 0
        if checkpoint is not None:
            self.checkpoint = SweepCheckpoint.open(
                os.fspath(checkpoint), model.fingerprint, self.token,
                self.times, self.rewards, self.indicator)
            self.resumed = len(self.checkpoint.load_into(self.grid,
                                                         self.completed))
        from_cache = []
        misses = 0
        for i, j in np.ndindex(*shape[:2]):
            key = self._key(i, j)
            if self.completed[i, j]:
                # Resumed from the checkpoint: seed the cache so later
                # scalar queries (and the certified checker) hit.
                if joint_cache.get(key) is None:
                    self._cache(key, self.grid[i, j])
                continue
            cached = joint_cache.get(key)
            if cached is None:
                misses += 1
                continue
            self.grid[i, j] = cached
            self.completed[i, j] = True
            from_cache.append(((i, j), self.grid[i, j]))
        count_engine(engine.name, sweep_points=self.completed.size,
                     cache_hits=len(from_cache), cache_misses=misses)
        if self.checkpoint is not None and from_cache:
            self.checkpoint.extend(from_cache)

    # ------------------------------------------------------------------

    def _key(self, i: int, j: int) -> Tuple:
        return (self.model.fingerprint, self.token, self.times[i],
                self.rewards[j], self.mask)

    def _cache(self, key: Tuple, vector: np.ndarray) -> None:
        frozen = np.array(vector, dtype=float)
        frozen.flags.writeable = False
        count_engine(self.engine.name,
                     cache_evictions=joint_cache.put(key, frozen))

    def label(self, i: int, j: int) -> str:
        return f"cell (t={self.times[i]}, r={self.rewards[j]})"

    def linear(self, i: int, j: int) -> int:
        """The cell's linear index (the fault plan's cell numbering)."""
        return i * len(self.rewards) + j

    @property
    def missing_columns(self) -> int:
        return int(np.count_nonzero((~self.completed).any(axis=0)))

    def units(self, workers: int) -> List[WorkUnit]:
        """The engine's work units for every cell still missing."""
        return self.engine.work_units(~self.completed, workers)

    def bounds(self, unit: WorkUnit) -> Tuple[List[float], List[float]]:
        """The unit's time and reward bounds."""
        return ([self.times[i] for i in unit.rows],
                [self.rewards[j] for j in unit.columns])

    def complete(self, unit: WorkUnit, block: np.ndarray) -> None:
        """Merge a finished unit: grid, cache, then one checkpoint
        write for all its cells."""
        rows = []
        for a, i in enumerate(unit.rows):
            for b, j in enumerate(unit.columns):
                if self.completed[i, j]:
                    continue
                self.grid[i, j] = block[a, b]
                self.completed[i, j] = True
                self._cache(self._key(i, j), block[a, b])
                rows.append(((i, j), self.grid[i, j]))
        if self.checkpoint is not None and rows:
            self.checkpoint.extend(rows)

    def fail(self, unit: WorkUnit, cause: BaseException,
             flight_tail=()) -> List[WorkUnit]:
        """A unit that failed for good.

        A multi-cell unit comes back split into single-cell units for
        the caller to run, so a fault that follows one cell costs only
        that cell; a single cell is recorded as a
        :class:`~repro.errors.WorkerError`.
        """
        cells = [(i, j) for i, j in unit.cells
                 if not self.completed[i, j]]
        if len(cells) > 1:
            return [WorkUnit((i,), (j,)) for i, j in cells]
        for i, j in cells:
            pos = self.linear(i, j)
            self.failures[pos] = WorkerError(pos, cause,
                                             self.label(i, j),
                                             flight_tail=flight_tail)
        return []

    def result(self) -> PartialSweep:
        return PartialSweep(
            grid=self.grid, completed=self.completed,
            unevaluated=tuple(map(tuple, np.argwhere(
                ~self.completed).tolist())),
            failures=tuple(self.failures[pos]
                           for pos in sorted(self.failures)))

    def close(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.close()


class _InlinePool:
    """Runs each task at submission, on the calling thread."""

    def submit(self, function, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(function(*args))
        except Exception as exc:  # noqa: BLE001 - delivered via future
            future.set_exception(exc)
        return future


class ThreadShardExecutor:
    """Runs a sweep's work units in this process.

    Units go to a thread pool of ``max_workers`` (``None``: one per
    CPU, capped by the unit count) when the engine's
    :attr:`~repro.algorithms.base.JointEngine.parallel_units` says
    threads pay, else inline on the calling thread.  Every unit runs on
    the caller's one engine: engines write no per-call state but their
    ``last_*`` read-outs.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def run(self, engine, model, times, reward_bounds, target,
            deadline: Optional[float] = None,
            checkpoint: Optional[str] = None) -> PartialSweep:
        """The fault-isolating, deadline-bounded run behind
        :meth:`~repro.algorithms.base.JointEngine.\
joint_probability_sweep_partial`."""
        return self._run("joint_sweep_partial", engine, model, times,
                         reward_bounds, target, deadline, checkpoint)

    def sweep(self, engine, model, times, reward_bounds,
              target) -> np.ndarray:
        """The all-or-nothing run behind :meth:`~repro.algorithms.base.\
JointEngine.joint_probability_sweep`: the first engine error
        propagates unchanged."""
        return self._run("joint_sweep", engine, model, times,
                         reward_bounds, target, None, None).grid

    def _run(self, name: str, engine, model, times, reward_bounds,
             target, deadline, checkpoint) -> PartialSweep:
        with engine._observed(name,
                              points=len(times) * len(reward_bounds)
                              ) as span:
            sweep = SweepGrid(engine, model, times, reward_bounds,
                              target, checkpoint)
            span.set(missing=int((~sweep.completed).sum()),
                     resumed=sweep.resumed)
            try:
                self._drive(sweep, deadline,
                            isolate=name == "joint_sweep_partial")
            finally:
                sweep.close()
            result = sweep.result()
            span.set(unevaluated=len(result.unevaluated))
            return result

    def _drive(self, sweep: SweepGrid, deadline: Optional[float],
               isolate: bool) -> None:
        engine = sweep.engine
        workers = (resolve_workers(self.max_workers,
                                   sweep.missing_columns)
                   if engine.parallel_units else 1)
        queue = deque(sweep.units(workers))
        parent = OBS.tracer.current() if OBS.enabled else None

        def compute(unit: WorkUnit, label: str) -> np.ndarray:
            start = time.perf_counter()
            # Pool threads do not inherit the caller's span: attach.
            scope = (nullcontext() if workers == 1 or parent is None
                     else OBS.tracer.span("worker", parent=parent,
                                          worker=label))
            try:
                with scope:
                    return engine.sweep_unit(sweep.model,
                                             *sweep.bounds(unit),
                                             sweep.indicator)
            finally:
                if OBS.enabled and isolate:
                    OBS.metrics.histogram(
                        "repro_sweep_cell_seconds",
                        engine=engine.name).observe(
                            time.perf_counter() - start)

        running: Dict[Future, WorkUnit] = {}
        started = 0
        with (ThreadPoolExecutor(workers) if workers > 1
              else nullcontext(_InlinePool())) as pool:
            while queue or running:
                while (queue and len(running) < workers
                       and remaining(deadline) > 0.0):
                    unit = queue.popleft()
                    running[pool.submit(compute, unit,
                                        f"thread-{started}")] = unit
                    started += 1
                if not running:
                    break  # the deadline passed; the queue stays undone
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    unit = running.pop(future)
                    error = future.exception()
                    if error is None:
                        sweep.complete(unit, future.result())
                    elif not isolate:
                        raise error
                    else:
                        queue.extend(sweep.fail(unit, error))
        _record_deadline_missed(len(queue))

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"ThreadShardExecutor(max_workers={self.max_workers})"


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "conn", "id", "acked", "last_heartbeat",
                 "task", "dead", "last_span")

    def __init__(self, process, conn, worker_id: int):
        self.process = process
        self.conn = conn
        self.id = worker_id
        self.acked = False
        self.last_heartbeat = time.monotonic()
        self.task: Optional[_Assignment] = None
        self.dead = False
        #: The parent-side "worker" span of this worker's most recent
        #: result; the telemetry delta that follows on the same pipe is
        #: re-parented under it.
        self.last_span: Optional[Any] = None

    @property
    def idle(self) -> bool:
        return self.acked and self.task is None and not self.dead


class _Assignment(NamedTuple):
    """One in-flight task: which unit, since when."""

    seq: int
    key: int
    started: float


class SweepProgress:
    """A point-in-time snapshot of a running process sweep.

    Handed to the executor's ``progress`` callback (at most every
    0.5 s, plus once at the end); :meth:`render` formats the ``repro top``
    style one-liner the CLI prints behind ``--progress``.
    """

    __slots__ = ("done", "total", "failed", "pending", "elapsed",
                 "rate", "eta_seconds", "workers", "open_breakers",
                 "rss_bytes")

    def __init__(self, done: int, total: int, failed: int,
                 pending: int, elapsed: float, rate: float,
                 eta_seconds: Optional[float],
                 workers: Dict[int, str],
                 open_breakers: Tuple[str, ...],
                 rss_bytes: Dict[str, int]):
        self.done = done
        self.total = total
        self.failed = failed
        self.pending = pending
        self.elapsed = elapsed
        self.rate = rate
        self.eta_seconds = eta_seconds
        self.workers = workers
        self.open_breakers = open_breakers
        self.rss_bytes = rss_bytes

    def render(self) -> str:
        pct = (100.0 * self.done / self.total if self.total else 100.0)
        bits = [f"{self.done}/{self.total} cells ({pct:.0f}%)"]
        if self.failed:
            bits.append(f"{self.failed} failed")
        bits.append(f"{self.rate:.2f} cells/s")
        bits.append("eta --" if self.eta_seconds is None
                    else f"eta {self.eta_seconds:.0f}s")
        if self.workers:
            bits.append(" ".join(
                f"w{wid}:{state}"
                for wid, state in sorted(self.workers.items())))
        if self.open_breakers:
            bits.append("breakers open: "
                        + ",".join(self.open_breakers))
        if self.rss_bytes:
            bits.append(
                f"rss {max(self.rss_bytes.values()) / 1e6:.0f}MB")
        return " | ".join(bits)

    def __repr__(self) -> str:
        return f"SweepProgress({self.render()!r})"


class ProcessShardExecutor:
    """Shards sweep work units over crash-isolated worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count; ``None`` resolves like the threaded
        executor (``min(cpu_count, 8, reward columns)``).
    heartbeat_timeout:
        A busy worker silent for this many seconds (default 2.0) is
        declared hung, killed and replaced; workers beat ten times per
        timeout.  Must be positive and finite.
    retry:
        The :class:`~repro.exec.retry.RetryPolicy` for infrastructure
        failures (default policy: 3 retries, the first at once, then
        exponential backoff with deterministic jitter).
    breakers:
        The :class:`~repro.exec.retry.BreakerRegistry` failures are
        recorded in (default: the shared :data:`~repro.exec.retry.\
BREAKERS` the certified checker reads).
    faults:
        Fault-injection spec string (:mod:`repro.exec.faultinject`)
        the scheduler applies to unit attempts; ``None`` reads
        ``REPRO_FAULTS`` from the environment.
    recorder_dir:
        Directory for the per-worker flight-recorder sidecars
        (``worker-<id>.jsonl``, see
        :class:`~repro.obs.recorder.FlightRecorder`).  ``None``
        (default) records into a temporary directory that is removed
        when the run finishes -- tails are read *before* cleanup, so
        failures still carry them; an explicit path is kept for
        post-mortem inspection.
    progress:
        Optional callback receiving a :class:`SweepProgress` snapshot
        at most every 0.5 s (and once at the end) while a run drives
        -- the CLI's ``--progress`` live line.

    Workers are started per :meth:`run` call -- forked where the
    platform offers ``fork``, else spawned -- with the sweep in their
    arguments, and always torn down before it returns: no worker
    outlives its sweep, and a worker whose parent dies uncleanly
    (``kill -9``) notices the reparenting through its heartbeat thread
    and exits on its own.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None,
                 heartbeat_timeout: float = 2.0,
                 retry: Optional[RetryPolicy] = None,
                 breakers: Optional[BreakerRegistry] = None,
                 faults: Optional[str] = None,
                 recorder_dir: Optional[str] = None,
                 progress: Optional[
                     Callable[[SweepProgress], None]] = None):
        heartbeat_timeout = float(heartbeat_timeout)
        if not 0.0 < heartbeat_timeout < math.inf:
            raise NumericalError(
                f"heartbeat_timeout must be positive and finite, got "
                f"{heartbeat_timeout}")
        self.max_workers = max_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breakers = breakers if breakers is not None else BREAKERS
        self.faults = faults
        self.recorder_dir = recorder_dir
        self.progress = progress
        self._context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._closed = False
        #: Lifetime counters (across runs) for tests and diagnostics.
        self.restarts = 0
        self.retries = 0
        #: Resource timelines of the most recent run:
        #: ``{label: [(monotonic_ts, rss_bytes, cpu_seconds), ...]}``.
        self.last_timelines: Dict[str, List[Tuple[float, int, float]]] = {}

    # ------------------------------------------------------------------

    def run(self, engine, model, times: Sequence[float],
            reward_bounds: Sequence[float], target: Iterable[int],
            deadline: Optional[float] = None,
            checkpoint: Optional[str] = None):
        """Evaluate the sweep grid; returns a
        :class:`~repro.algorithms.base.PartialSweep`.

        The semantics mirror ``engine.joint_probability_sweep_partial``:
        *deadline* is an absolute ``time.monotonic()`` timestamp after
        which no unit starts (running units drain) and undone cells
        come back unevaluated; permanently failed cells appear in both
        ``unevaluated`` and ``failures``.
        """
        if self._closed:
            raise NumericalError("executor is closed")
        return _Run(self, engine, model, times, reward_bounds, target,
                    deadline, checkpoint).drive()

    def close(self) -> None:
        """Mark the executor closed (workers are per-run; none linger)."""
        self._closed = True

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ProcessShardExecutor(max_workers={self.max_workers}, "
                f"heartbeat_timeout={self.heartbeat_timeout})")


class _Run:
    """State and scheduler loop of one :meth:`ProcessShardExecutor.run`."""

    def __init__(self, executor: ProcessShardExecutor, engine, model,
                 times, reward_bounds, target, deadline, checkpoint):
        self.executor = executor
        self.engine = engine
        self.model = model
        self.deadline = deadline
        self.sweep = SweepGrid(engine, model, times, reward_bounds,
                               target, checkpoint)
        #: What every worker of this run is started with (see
        #: :func:`~repro.exec.worker.worker_main`).
        self.worker_sweep = (
            engine.spec(), model, self.sweep.times, self.sweep.rewards,
            [int(s) for s in np.flatnonzero(self.sweep.indicator)])
        self.breaker = executor.breakers.breaker(breaker_key(engine))
        self.plan = (FaultPlan.parse(executor.faults)
                     if executor.faults is not None
                     else FaultPlan.from_env())
        #: Per linear cell: scheduled faults already fired.
        self.fault_attempts: Dict[int, int] = {}
        # Scheduling state: units by key, a heap of (ready, key,
        # attempt) for the ones waiting to run.
        self.units: Dict[int, WorkUnit] = {}
        self.workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._next_seq = 0
        self.pending: List[Tuple[float, int, int]] = []  # heap
        self.attempts_failed: Dict[int, int] = {}
        self.aborted: Optional[str] = None
        # Observability state (tentpole wiring).  The enabled flag is
        # latched here so a mid-run toggle cannot desynchronise the
        # parent's merge side from what the workers were spawned with.
        self.obs_enabled = bool(OBS.enabled)
        self.sweep_span: Optional[Any] = None
        self.sampler: Optional[ResourceSampler] = None
        self._started = time.monotonic()
        self._last_progress = 0.0
        if executor.recorder_dir is not None:
            self.recorder_dir: Optional[str] = executor.recorder_dir
            self._own_recorder_dir = False
            os.makedirs(self.recorder_dir, exist_ok=True)
        else:
            self.recorder_dir = tempfile.mkdtemp(
                prefix="repro-flight-")
            self._own_recorder_dir = True

    # -- identity helpers ----------------------------------------------

    def _label(self, key: int) -> str:
        times, rewards = self.sweep.bounds(self.units[key])
        return f"unit (t={times}, r={rewards})"

    def _schedule(self, unit: WorkUnit, ready: float) -> None:
        key = len(self.units)
        self.units[key] = unit
        heapq.heappush(self.pending, (ready, key, 0))

    # -- the drive loop ------------------------------------------------

    def drive(self):
        engine = self.engine
        workers = resolve_workers(self.executor.max_workers,
                                  self.sweep.missing_columns)
        for unit in self.sweep.units(workers):
            self._schedule(unit, 0.0)
        self._start_sampler()
        with obs_span("process_sweep", engine=engine.name,
                      points=self.sweep.completed.size,
                      workers=resolve_workers(
                          self.executor.max_workers,
                          len(self.pending))) as span:
            self.sweep_span = span if self.obs_enabled else None
            # The breaker gates whole runs, not individual units: an
            # open breaker (repeated failures in earlier runs) vetoes
            # up front, while failures *within* this run are bounded
            # by the retry policy -- aborting mid-sweep would make
            # completion depend on failure arrival order.  In the
            # half-open state this run is the probe.
            if self.pending and not self.breaker.allow():
                self.aborted = (f"circuit breaker "
                                f"{self.breaker.key!r} is open")
                self.pending.clear()
            try:
                self._loop()
            finally:
                self._shutdown()
                self._stop_sampler()
                self._cleanup_recorders()
                self.sweep.close()
            self._report_progress(time.monotonic(), force=True)
            result = self.sweep.result()
            span.set(unevaluated=len(result.unevaluated),
                     resumed=self.sweep.resumed,
                     restarts=self.executor.restarts,
                     retries=self.executor.retries)
            if self.aborted:
                span.set(aborted=self.aborted)
            return result

    # -- observability plumbing ----------------------------------------

    def _start_sampler(self) -> None:
        """Start the parent-side resource-timeline sampler.

        Runs when a progress callback wants RSS figures or when
        observability is on; the registry is only wired in the latter
        case so an obs-off run's registry stays byte-identical.
        """
        if self.executor.progress is None and not self.obs_enabled:
            return
        registry = OBS.metrics if self.obs_enabled else None
        self.sampler = ResourceSampler(registry=registry)
        self.sampler.watch("main", os.getpid())
        self.sampler.start()

    def _stop_sampler(self) -> None:
        if self.sampler is None:
            return
        self.sampler.stop()
        self.executor.last_timelines = self.sampler.timelines()
        self.sampler = None

    def _recorder_path(self, worker_id: int) -> str:
        assert self.recorder_dir is not None
        return os.path.join(self.recorder_dir,
                            f"worker-{worker_id}.jsonl")

    def _flight_tail(self, worker_id: int) -> Tuple[Dict[str, Any], ...]:
        """The victim's last recorded activity, straight off disk."""
        return FlightRecorder.read_tail(self._recorder_path(worker_id))

    def _cleanup_recorders(self) -> None:
        if self._own_recorder_dir and self.recorder_dir is not None:
            shutil.rmtree(self.recorder_dir, ignore_errors=True)
            self.recorder_dir = None

    def _merge_telemetry(self, worker: _Worker,
                         payload: Dict[str, Any]) -> None:
        """Fold one worker's observability delta into the parent."""
        if not self.obs_enabled:
            return
        parent = worker.last_span or self.sweep_span
        worker.last_span = None
        merge_telemetry(payload, OBS.metrics, tracer=OBS.tracer,
                        parent_span=parent,
                        worker=f"process-{worker.id}")

    def _progress_snapshot(self, now: float) -> SweepProgress:
        done = int(self.sweep.completed.sum())
        total = self.sweep.completed.size
        elapsed = max(now - self._started, 1e-9)
        rate = done / elapsed
        left = total - done
        eta = (left / rate) if rate > 0.0 and left else None
        states: Dict[int, str] = {}
        for worker in self.workers.values():
            if worker.dead:
                states[worker.id] = "dead"
            elif worker.task is not None:
                states[worker.id] = self._label(worker.task.key)
            elif worker.acked:
                states[worker.id] = "idle"
            else:
                states[worker.id] = "starting"
        open_breakers = tuple(self.executor.breakers.open_keys())
        rss: Dict[str, int] = {}
        if self.sampler is not None:
            rss = {label: sample[1] for label, sample
                   in self.sampler.latest().items()}
        return SweepProgress(done=done, total=total,
                             failed=len(self.sweep.failures),
                             pending=len(self.pending),
                             elapsed=elapsed, rate=rate,
                             eta_seconds=eta, workers=states,
                             open_breakers=open_breakers,
                             rss_bytes=rss)

    def _report_progress(self, now: float, force: bool = False) -> None:
        callback = self.executor.progress
        if callback is None:
            return
        if (not force and now - self._last_progress
                < _PROGRESS_INTERVAL):
            return
        self._last_progress = now
        try:
            callback(self._progress_snapshot(now))
        except Exception:  # noqa: BLE001 - progress must not kill a run
            pass

    def _in_flight(self) -> List[_Worker]:
        return [w for w in self.workers.values() if w.task is not None]

    def _loop(self) -> None:
        executor = self.executor
        while (self.pending or self._in_flight()) and not self.aborted:
            now = time.monotonic()
            if self.pending and remaining(self.deadline) <= 0.0:
                # Units that have not started stay undone; running
                # units drain.
                _record_deadline_missed(len(self.pending))
                self.pending.clear()
                continue
            want = resolve_workers(
                executor.max_workers,
                len(self.pending) + len(self._in_flight()))
            while len(self.workers) < want:
                self._spawn()
            self._dispatch(now)
            self._wait(now)
            self._reap()
            now = time.monotonic()
            self._check_liveness(now)
            self._report_progress(now)

    def _dispatch(self, now: float) -> None:
        idle = [w for w in self.workers.values() if w.idle]
        while idle and self.pending and self.pending[0][0] <= now:
            _, key, attempt = heapq.heappop(self.pending)
            worker = idle.pop()
            seq = self._next_seq
            self._next_seq += 1
            unit = self.units[key]
            try:
                worker.conn.send(("task", seq, unit.rows, unit.columns,
                                  attempt, self._fault_for(unit),
                                  self.plan.sleep * len(unit.cells)))
            except (BrokenPipeError, OSError):
                worker.dead = True
                heapq.heappush(self.pending, (now, key, attempt))
                continue
            worker.task = _Assignment(seq, key, now)
            worker.last_heartbeat = now

    def _fault_for(self, unit: WorkUnit) -> Optional[str]:
        """The injected fault of this attempt of *unit*, if any.

        The first of the unit's cells whose next attempt the plan
        faults fires, and that counts as the cell's attempt -- so
        ``crash@3`` crashes the unit holding cell 3, and every
        scheduled cell fault fires exactly once.
        """
        for i, j in unit.cells:
            cell = self.sweep.linear(i, j)
            fired = self.fault_attempts.get(cell, 0)
            fault = self.plan.fault_for(cell, fired)
            if fault is not None:
                self.fault_attempts[cell] = fired + 1
                return fault
        return None

    def _wait_timeout(self, now: float) -> float:
        wake = [0.5]
        if self.pending:
            wake.append(self.pending[0][0] - now)
        for worker in self.workers.values():
            if worker.task is not None:
                wake.append(worker.last_heartbeat
                            + self.executor.heartbeat_timeout - now)
        left = remaining(self.deadline)
        if self.pending and left != float("inf"):
            wake.append(left)
        return max(0.01, min(wake))

    def _wait(self, now: float) -> None:
        handles = []
        for worker in self.workers.values():
            if not worker.dead:
                handles.append(worker.conn)
                handles.append(worker.process.sentinel)
        if not handles:
            return
        try:
            ready = mp.connection.wait(handles,
                                       self._wait_timeout(now))
        except OSError:  # pragma: no cover - raced with a dying worker
            ready = []
        by_conn = {w.conn: w for w in self.workers.values()}
        for handle in ready:
            worker = by_conn.get(handle)
            if worker is not None:
                self._drain(worker)
        # Sentinel readiness (process exit) is handled by _reap().

    def _drain(self, worker: _Worker) -> None:
        while not worker.dead:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                worker.dead = True
                return
            self._handle(worker, message)

    def _handle(self, worker: _Worker, message: Tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.acked = True
            worker.last_heartbeat = time.monotonic()
        elif kind == "heartbeat":
            worker.last_heartbeat = time.monotonic()
        elif kind == "telemetry":
            self._merge_telemetry(worker, message[2])
        elif kind == "result":
            self._handle_result(worker, message)
        elif kind == "error":
            _, seq, exc_type, text, tb = message
            task = worker.task
            if task is None or task.seq != seq:
                return
            worker.task = None
            cause = RemoteTaskError(exc_type, text, tb)
            # Engine exceptions are deterministic: retrying replays
            # the same failure, so give up immediately (the threaded
            # path's semantics).
            self._give_up(task.key, cause)
            self.breaker.record_failure()

    def _handle_result(self, worker: _Worker, message: Tuple) -> None:
        _, seq, data, checksum = message
        task = worker.task
        if task is None or task.seq != seq:
            worker.last_span = None
            return  # stale result of a task already retried elsewhere
        worker.task = None
        elapsed = time.monotonic() - task.started
        if _checksum(data) != checksum:
            worker.last_span = None
            cause = WorkerCrashError("corrupt", worker.id,
                                     flight_tail=self._flight_tail(
                                         worker.id))
            if self._retry_allowed(task.key, "corrupt", cause):
                self._resend(worker, task)
            return
        unit = self.units[task.key]
        block = np.frombuffer(data, dtype="<f8").reshape(
            len(unit.rows), len(unit.columns), self.model.num_states)
        self.sweep.complete(unit, block)
        self.breaker.record_success()
        if self.obs_enabled:
            OBS.metrics.histogram(
                "repro_sweep_cell_seconds",
                engine=self.engine.name).observe(elapsed)
            with OBS.tracer.span("worker",
                                 worker=f"process-{worker.id}",
                                 unit=self._label(task.key),
                                 cells=len(unit.cells),
                                 seconds=round(elapsed, 6)) as wspan:
                pass
            # The telemetry delta for this unit follows on the same
            # pipe; its spans re-parent under this "worker" span.
            worker.last_span = wspan

    # -- failure machinery ---------------------------------------------

    def _give_up(self, key: int, cause: BaseException) -> None:
        """The unit failed for good: retry its cells one by one (when
        there is still time), or record the single cell's failure."""
        cells = self.sweep.fail(self.units[key], cause,
                                getattr(cause, "flight_tail", ()))
        if not cells:
            return
        if remaining(self.deadline) <= 0.0:
            _record_deadline_missed(len(cells))
            return
        REGISTRY.counter("repro_retry_total", reason="split").inc()
        self.executor.retries += 1
        for unit in cells:
            self._schedule(unit, time.monotonic())

    def _retry_allowed(self, key: int, reason: str,
                       cause: BaseException) -> bool:
        """Record a failed attempt of unit *key*; whether it may be
        retried (else it was given up on, or the deadline passed)."""
        self.breaker.record_failure()
        count = self.attempts_failed.get(key, 0) + 1
        self.attempts_failed[key] = count
        if self.executor.retry.gives_up(count):
            self._give_up(key, cause)
            return False
        if remaining(self.deadline) <= 0.0:
            # No retry starts after the deadline: the unit is missed.
            _record_deadline_missed(1)
            return False
        REGISTRY.counter("repro_retry_total", reason=reason).inc()
        self.executor.retries += 1
        return True

    def _task_failed(self, key: int, reason: str,
                     cause: BaseException) -> None:
        """Retry unit *key* on any worker, after the policy's delay."""
        if self._retry_allowed(key, reason, cause):
            count = self.attempts_failed[key]
            delay = self.executor.retry.delay(key, count)
            heapq.heappush(self.pending,
                           (time.monotonic() + delay, key, count))

    def _resend(self, worker: _Worker, task: _Assignment) -> None:
        """Retry a corrupt result: the worker still holds the good
        bytes, so it sends them again, under the unit's next scheduled
        fault.  The task stays assigned to it; if the worker dies, the
        crash path retries the unit."""
        fault = self._fault_for(self.units[task.key])
        try:
            worker.conn.send(("resend", task.seq, fault))
        except (BrokenPipeError, OSError):
            worker.dead = True
            heapq.heappush(self.pending, (time.monotonic(), task.key,
                                          self.attempts_failed[task.key]))
            return
        worker.task = task

    def _worker_failed(self, worker: _Worker, reason: str,
                       exitcode: Optional[int]) -> None:
        """Count the restart and retry the worker's in-flight task."""
        REGISTRY.counter("repro_worker_restart_total",
                         reason=reason).inc()
        self.executor.restarts += 1
        task = worker.task
        worker.task = None
        if task is not None:
            self._task_failed(
                task.key, reason,
                WorkerCrashError(reason, worker.id, exitcode,
                                 flight_tail=self._flight_tail(
                                     worker.id)))

    def _reap(self) -> None:
        """Remove workers that died on their own (crash, OOM kill)."""
        for worker in list(self.workers.values()):
            if not worker.dead and worker.process.is_alive():
                continue
            self._drain(worker)  # keep results sent before death
            worker.process.join(timeout=0.5)
            exitcode = worker.process.exitcode
            reason = ("killed" if exitcode is not None and exitcode < 0
                      else "crash")
            self._discard(worker)
            self._worker_failed(worker, reason, exitcode)

    def _check_liveness(self, now: float) -> None:
        """Kill busy workers that stopped heartbeating."""
        for worker in list(self.workers.values()):
            if (worker.task is not None and now - worker.last_heartbeat
                    > self.executor.heartbeat_timeout):
                self._kill(worker, "hang")

    def _kill(self, worker: _Worker, reason: str) -> None:
        self._terminate(worker)
        self._discard(worker)
        self._worker_failed(worker, reason, None)

    @staticmethod
    def _terminate(worker: _Worker) -> None:
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=1.0)

    def _discard(self, worker: _Worker) -> None:
        self.workers.pop(worker.id, None)
        if self.sampler is not None:
            self.sampler.unwatch(f"process-{worker.id}")
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> None:
        context = self.executor._context
        parent_conn, child_conn = context.Pipe()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = context.Process(
            target=worker_main,
            args=(child_conn, worker_id,
                  self.executor.heartbeat_timeout / 10.0,
                  self.obs_enabled, self._recorder_path(worker_id),
                  self.worker_sweep),
            name=f"repro-exec-{worker_id}",
            daemon=True)
        process.start()
        child_conn.close()
        self.workers[worker_id] = _Worker(process, parent_conn,
                                          worker_id)
        if self.sampler is not None and process.pid is not None:
            self.sampler.watch(f"process-{worker_id}", process.pid)

    def _shutdown(self) -> None:
        """Stop every worker; none may outlive the run."""
        for worker in self.workers.values():
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        grace = time.monotonic() + _SHUTDOWN_GRACE
        if self.obs_enabled:
            self._drain_final_telemetry(grace)
        for worker in self.workers.values():
            worker.process.join(
                timeout=max(0.0, grace - time.monotonic()))
        for worker in list(self.workers.values()):
            self._terminate(worker)
            self._discard(worker)
        self.workers.clear()

    def _drain_final_telemetry(self, deadline: float) -> None:
        """Collect each worker's final telemetry drain before teardown.

        Workers send one last ``("telemetry", ...)`` before honouring
        the stop (pipe FIFO guarantees it precedes their exit), so
        polling until the grace deadline loses nothing from workers
        that die mid-drain -- their pipes just EOF.
        """
        # A worker's last per-unit telemetry may still be in flight
        # when the loop exits; its ``last_span`` is intact, so that
        # payload still lands under the right worker span, while the
        # final drain proper (sent after it) re-parents to the sweep
        # span because ``_merge_telemetry`` consumes the span once.
        waiting = [w for w in self.workers.values() if not w.dead]
        while waiting and time.monotonic() < deadline:
            still = []
            for worker in waiting:
                got_final = False
                try:
                    while worker.conn.poll(0.05):
                        message = worker.conn.recv()
                        if message[0] == "telemetry":
                            self._merge_telemetry(worker, message[2])
                            got_final = True
                except (EOFError, OSError):
                    worker.dead = True
                    continue
                if not got_final and worker.process.is_alive():
                    still.append(worker)
            waiting = still


#: The executor names ``resolve_executor`` accepts.
EXECUTOR_NAMES: Tuple[str, ...] = ("thread", "process")


def resolve_executor(executor: Union[None, str, Any],
                     max_workers: Optional[int] = None):
    """An executor object from a name, an instance, or ``None``.

    ``None`` and ``"thread"`` give the in-process
    :class:`ThreadShardExecutor`; ``"process"`` a fresh
    :class:`ProcessShardExecutor`; an object with a ``run`` method
    passes through unchanged (its own worker settings win).
    """
    if executor is None or executor == "thread":
        return ThreadShardExecutor(max_workers=max_workers)
    if executor == "process":
        return ProcessShardExecutor(max_workers=max_workers)
    if hasattr(executor, "run"):
        return executor
    raise NumericalError(
        f"unknown executor {executor!r}; expected "
        f"{', '.join(EXECUTOR_NAMES)}, or an executor object")
