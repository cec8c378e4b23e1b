"""GIL-releasing threaded fan-out for independent engine queries.

The sweep API (:meth:`~repro.algorithms.base.JointEngine.\
joint_probability_sweep`) removes the redundancy *within* one
``(t, r)`` grid -- its work units run on the executors of
:mod:`repro.exec` -- but a workload still contains genuinely
independent computations: the distinct reduced models produced by
``until_reduction`` for different formulas.  Those are embarrassingly
parallel, and the heavy inner loops -- scipy's sparse matrix x dense
block products and :func:`scipy.signal.lfilter` -- release the GIL, so
plain threads give real wall-clock parallelism without pickling models
across processes.

Design rules, enforced here so callers do not have to think about
them:

* **Deterministic ordering** -- results come back in task order
  whatever the completion order, so repeated runs are bit-identical.
* **Per-worker clones** -- every task runs on a shallow *clone* of
  the engine; the clones share the accuracy parameters (hence the
  result cache entries, the caches are lock-protected) but never race
  on the ``last_*`` diagnostics.  After the join, the clones are
  folded back into the engine (``JointEngine._absorb``).  Work
  counters need no folding: every clone counts straight into the
  metrics registry (:func:`repro.obs.count_engine`).
* **Failure isolation** -- a raising worker does not poison the pool:
  its exception is wrapped in a :class:`~repro.errors.WorkerError`
  carrying the task index and label, not-yet-started tasks are
  cancelled, and one :class:`~repro.errors.ParallelExecutionError`
  with *every* failure attached is raised after the pool has drained
  (no thread is left running).
* **`max_workers` knob** -- ``None`` picks ``min(cpu_count, 8,
  len(tasks))``; ``1`` (or a single task) degrades to a plain
  sequential loop with zero threading overhead.

The deadline helpers (:func:`remaining`, the missed-deadline counter)
and :func:`resolve_workers` are shared with the sweep executors in
:mod:`repro.exec`; see ``docs/EXECUTION.md``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (FIRST_EXCEPTION, ThreadPoolExecutor,
                                wait)
from typing import (Callable, Iterable, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from repro.errors import ParallelExecutionError, WorkerError
from repro.obs import OBS, REGISTRY

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Upper bound on the default worker count; fan-outs are memory-bound
#: sparse kernels, so more threads than this rarely help.
DEFAULT_WORKER_CAP = 8


def remaining(deadline: Optional[float]) -> float:
    """Seconds left until *deadline* (an absolute ``time.monotonic()``
    timestamp); ``math.inf`` when there is no deadline.

    The single time-arithmetic point of the module: every deadline
    comparison is ``remaining(deadline) <= 0.0`` and every pool wait
    timeout is derived from the same value, so the slack cannot drift
    between call sites.
    """
    if deadline is None:
        return math.inf
    return deadline - time.monotonic()


def _record_deadline_missed(count: int) -> None:
    """Count tasks abandoned because their deadline passed.

    Recorded unconditionally (the registry is always on): a silent
    timeout is precisely the situation observability must not lose.
    """
    if count > 0:
        REGISTRY.counter("repro_deadline_missed_total").inc(count)


def _traced(function: Callable[[_T], _R],
            labels: Optional[Sequence[str]]
            ) -> Callable[[int, _T], _R]:
    """Wrap *function* for the fan-out: with observability enabled,
    each task runs inside a worker-labelled child span attached to the
    *calling* thread's current span (captured here, before any worker
    starts), so a sweep's tasks appear under the sweep span instead of
    as detached roots."""
    if not OBS.enabled:
        return lambda index, item: function(item)
    parent = OBS.tracer.current()

    def run(index: int, item: _T) -> _R:
        label = _label_of(labels, index) or f"task {index}"
        with OBS.tracer.span("worker", parent=parent, worker=label):
            return function(item)

    return run


def resolve_workers(max_workers: Optional[int], num_tasks: int) -> int:
    """The effective worker count for *num_tasks* tasks.

    ``None`` means ``min(cpu_count, DEFAULT_WORKER_CAP, num_tasks)``;
    explicit values are clipped to the task count (threads without
    work are never spawned).
    """
    if num_tasks <= 0:
        return 0
    if max_workers is None:
        available = os.cpu_count() or 1
        return max(1, min(available, DEFAULT_WORKER_CAP, num_tasks))
    return max(1, min(int(max_workers), num_tasks))


def _label_of(labels: Optional[Sequence[str]], index: int
              ) -> Optional[str]:
    if labels is None:
        return None
    try:
        return labels[index]
    except IndexError:
        return None


def threaded_map(function: Callable[[_T], _R],
                 items: Sequence[_T],
                 max_workers: Optional[int] = None,
                 labels: Optional[Sequence[str]] = None) -> List[_R]:
    """``[function(x) for x in items]`` on a thread pool, order kept.

    Falls back to a sequential loop when only one worker (or one item)
    is effective.  A raising task aborts the fan-out *cleanly*: tasks
    that have not started yet are cancelled, already-running tasks
    drain, and a single :class:`~repro.errors.ParallelExecutionError`
    is raised whose ``failures`` list holds one
    :class:`~repro.errors.WorkerError` (task index, optional *labels*
    entry, original exception) per failing task.  The sequential path
    raises the same wrapper so callers handle one exception shape.
    """
    items = list(items)
    workers = resolve_workers(max_workers, len(items))
    task = _traced(function, labels)
    if workers <= 1:
        results: List[_R] = []
        for index, item in enumerate(items):
            try:
                results.append(task(index, item))
            except Exception as exc:
                failure = WorkerError(index, exc,
                                      _label_of(labels, index))
                error = ParallelExecutionError([failure], len(items))
                raise error from exc
        return results
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, index, item)
                   for index, item in enumerate(items)]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        if any(f.exception() is not None for f in done):
            # Cancel everything that has not started; running tasks
            # drain when the pool context exits.
            for future in pending:
                future.cancel()
    failures = [WorkerError(index, future.exception(),
                            _label_of(labels, index))
                for index, future in enumerate(futures)
                if not future.cancelled()
                and future.exception() is not None]
    if failures:
        error = ParallelExecutionError(failures, len(items))
        raise error from failures[0].cause
    return [future.result() for future in futures]


def parallel_joint_sweeps(engine,
                          queries: Iterable[Tuple],
                          max_workers: Optional[int] = None
                          ) -> List[np.ndarray]:
    """Fan independent ``joint_probability_sweep`` grids over threads.

    *queries* is a sequence of ``(model, times, reward_bounds,
    target)`` tuples; each yields a ``(len(times), len(reward_bounds),
    |S|)`` grid.  This is the "distinct models" axis of parallelism --
    each model's grid is itself evaluated with the shared-prefix sweep,
    so the two reuse layers compose.
    """
    queries = list(queries)
    clones = [engine._worker_clone() for _ in queries]

    def run(task):
        clone, (model, times, rewards, target) = task
        return clone.joint_probability_sweep(model, times, rewards,
                                             target)

    labels = [f"sweep {i}" for i in range(len(queries))]
    try:
        return threaded_map(run, list(zip(clones, queries)),
                            max_workers, labels=labels)
    finally:
        for clone in clones:
            engine._absorb(clone)
