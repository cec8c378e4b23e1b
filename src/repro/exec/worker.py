"""The worker-process side of the process shard executor.

One worker is one OS process running :func:`worker_main` over a duplex
pipe to the parent.  Workers live for one sweep: the parent hands each
its sweep -- ``(engine_spec, model, times, rewards, target)`` -- in the
``Process`` arguments, so the pipe carries only tasks and their
answers.

Parent -> worker::

    ("task", seq, rows, columns, attempt,  evaluate one work unit (the
              fault, sleep)                cells rows x columns), after
                                           the injected fault / sleep
                                           the scheduler chose
    ("resend", seq, fault)                 send the held result of task
                                           seq again (it arrived
                                           corrupt), after the
                                           injected fault
    ("stop",)                              exit cleanly

Worker -> parent::

    ("ready", worker_id)                   engine built, send tasks
    ("heartbeat", monotonic_ts)            liveness (background thread)
    ("result", seq, data, checksum)        unit block, raw float64
                                           bytes + BLAKE2b checksum
    ("error", seq, type, message, tb)      the engine raised
    ("telemetry", worker_id, payload)      observability delta (obs
                                           runs only): piggybacked
                                           after each result/error
                                           and drained once more on a
                                           clean stop -- see
                                           :mod:`repro.obs.remote`

Design notes:

* **Sweep at start** -- under ``fork`` the worker inherits the model;
  under ``spawn`` multiprocessing serialises it once per worker.
  Engines are rebuilt from their
  :meth:`~repro.algorithms.base.JointEngine.spec` (accuracy knobs +
  kernel request), never shipped as instances -- backends may hold
  jitted state that cannot be serialised.
* **Heartbeats** -- a daemon thread beats every ``interval`` seconds
  whatever the compute thread is doing (the kernels release the GIL),
  so the parent can tell "still crunching" from "frozen".  The same
  thread watches the parent pid: if the parent dies -- including
  ``kill -9``, where no cleanup ever runs -- the worker notices its
  reparenting and exits immediately, so no orphan can outlive the
  parent.
* **Checksummed results** -- the result bytes are hashed *before* the
  send, so any corruption in transport (or injected by the fault
  harness after hashing) is detected by the parent rather than
  silently merged into the grid.  The worker holds the good bytes and
  their checksum until its next task, so the parent's retry of a
  corrupt result is a ``resend``, not a recomputation.
* **Fault injection** -- the parent's scheduler evaluates the
  :class:`~repro.exec.faultinject.FaultPlan` per unit attempt and
  ships the chosen fault (and the throttle sleep) with the task; the
  worker applies it right before computing.  See
  :mod:`repro.exec.faultinject` for the kinds.
* **Flight recorder** -- every task-level event (start with the
  unit's cells, injected fault, completion with its wall time,
  engine error, resend) is appended to an fsynced per-worker JSONL
  sidecar (:class:`~repro.obs.recorder.FlightRecorder`) *before* the
  risky step runs, so after a crash or hang kill the parent can read
  what this worker was doing when it died.
* **Telemetry** -- when the parent captured observability
  (``obs_enabled``), the worker enables its own :data:`repro.obs.OBS`
  from a clean slate and ships a plain-data delta of registry state
  and spans (the series spans carry their depths and residuals) after
  each task and once more on a clean stop
  (:func:`repro.obs.remote.export_telemetry`); the parent merges and
  re-parents them.  This is the only way a worker's engine
  counters reach the parent.  Disabled, no telemetry message is ever
  sent -- the wire traffic is byte-identical to an unobserved run.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exec.checkpoint import _checksum
from repro.obs import OBS, REGISTRY
from repro.obs.recorder import FlightRecorder
from repro.obs.remote import export_telemetry

#: Injected hangs sleep this long; the parent's heartbeat-staleness
#: kill always fires first.
HANG_SECONDS = 3600.0

#: A sent result the worker holds until its next task:
#: ``(seq, float64 bytes, checksum)``.
_Held = Tuple[int, bytes, str]


class _Heartbeat(threading.Thread):
    """Beats on the pipe and watches the parent process.

    ``pause()`` silences the beat (the injected-hang fault uses it so
    the parent's staleness detector, not a timeout, finds the hang).
    The parent-death watch always runs: when ``os.getppid()`` changes,
    the parent is gone and the worker hard-exits -- this is what keeps
    ``kill -9`` of the parent from leaving orphans.
    """

    def __init__(self, conn, send_lock: threading.Lock,
                 interval: float):
        super().__init__(daemon=True)
        self.conn = conn
        self.send_lock = send_lock
        self.interval = interval
        self.parent = os.getppid()
        self._paused = threading.Event()
        self._stopped = threading.Event()

    def pause(self) -> None:
        self._paused.set()

    def stop(self) -> None:
        self._stopped.set()

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            if os.getppid() != self.parent:
                os._exit(2)
            if self._paused.is_set():
                continue
            try:
                with self.send_lock:
                    self.conn.send(("heartbeat", time.monotonic()))
            except (BrokenPipeError, OSError):
                os._exit(2)


class _SweepContext:
    """This worker's sweep: model, rebuilt engine, grid axes, target."""

    def __init__(self, engine_spec: Dict[str, Any], model, times,
                 rewards, target):
        from repro.algorithms.base import get_engine
        self.model = model
        self.times = list(times)
        self.rewards = list(rewards)
        self.target = list(target)
        options = dict(engine_spec.get("options", {}))
        self.engine = get_engine(engine_spec["engine"], **options)


def _apply_pre_fault(fault: Optional[str],
                     heartbeat: _Heartbeat) -> None:
    """Faults that fire before the engine runs."""
    if fault == "crash":
        os._exit(13)
    if fault == "oom":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault == "hang":
        heartbeat.pause()
        time.sleep(HANG_SECONDS)
        os._exit(3)  # pragma: no cover - the parent kills us first


def _corrupt(data: bytes) -> bytes:
    """Flip one byte -- guaranteed to fail the checksum."""
    flipped = bytearray(data)
    flipped[0] ^= 0xFF
    return bytes(flipped)


def _send_telemetry(conn, send_lock: threading.Lock,
                    worker_id: int) -> None:
    """Ship (and reset) this worker's observability delta."""
    payload = export_telemetry(REGISTRY, OBS.tracer)
    try:
        with send_lock:
            conn.send(("telemetry", worker_id, payload))
    except (BrokenPipeError, OSError):
        pass  # parent is gone; the heartbeat watch will exit us


def _send_result(conn, send_lock: threading.Lock, held: _Held,
                 fault: Optional[str], worker_id: int,
                 obs_enabled: bool) -> None:
    """Ship a held result (corrupted in transport by a ``corrupt``
    fault) and, in observed runs, the telemetry that follows it."""
    seq, data, checksum = held
    if fault == "corrupt":
        data = _corrupt(data)
    with send_lock:
        conn.send(("result", seq, data, checksum))
    if obs_enabled:
        _send_telemetry(conn, send_lock, worker_id)


def _run_task(context: _SweepContext, message: Tuple,
              heartbeat: _Heartbeat,
              conn, send_lock: threading.Lock,
              recorder: Optional[FlightRecorder] = None,
              worker_id: int = 0,
              obs_enabled: bool = False) -> Optional[_Held]:
    """Run one task; returns the result it sent, which the worker
    holds for a ``resend`` (``None`` when the engine raised)."""
    _, seq, rows, columns, attempt, fault, sleep = message
    cells = [[int(i), int(j)] for i in rows for j in columns]
    times = [context.times[i] for i in rows]
    rewards = [context.rewards[j] for j in columns]
    started = time.monotonic()
    if recorder is not None:
        recorder.record("task_start", seq=int(seq), cell=cells[0],
                        cells=cells, t=times, r=rewards,
                        attempt=int(attempt))
        if fault is not None:
            recorder.record("fault", seq=int(seq), fault=fault)
    if sleep > 0.0:
        time.sleep(sleep)
    _apply_pre_fault(fault, heartbeat)
    engine = context.engine
    try:
        indicator = engine._validate(context.model, (), (),
                                     context.target)
        block = engine.sweep_unit(context.model, times, rewards,
                                  indicator)
    except BaseException as exc:  # noqa: BLE001 - shipped to parent
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        if recorder is not None:
            recorder.record("task_error", seq=int(seq),
                            error=type(exc).__name__,
                            message=str(exc))
        with send_lock:
            conn.send(("error", seq, type(exc).__name__, str(exc),
                       traceback.format_exc()))
        if obs_enabled:
            _send_telemetry(conn, send_lock, worker_id)
        return None
    if recorder is not None:
        recorder.record("task_done", seq=int(seq),
                        seconds=round(time.monotonic() - started, 6))
    data = np.ascontiguousarray(block, dtype="<f8").tobytes()
    held = (seq, data, _checksum(data))
    _send_result(conn, send_lock, held, fault, worker_id, obs_enabled)
    return held


def _resend(held: _Held, message: Tuple, heartbeat: _Heartbeat,
            conn, send_lock: threading.Lock,
            recorder: Optional[FlightRecorder], worker_id: int,
            obs_enabled: bool) -> None:
    """Send the held result again: the parent saw it arrive corrupt.
    A resend is an attempt, so it takes the fault the scheduler chose
    for it like a task does."""
    _, seq, fault = message
    if recorder is not None:
        recorder.record("resend", seq=int(seq))
        if fault is not None:
            recorder.record("fault", seq=int(seq), fault=fault)
    _apply_pre_fault(fault, heartbeat)
    _send_result(conn, send_lock, held, fault, worker_id, obs_enabled)


def worker_main(conn, worker_id: int, heartbeat_interval: float,
                obs_enabled: bool, recorder_path: Optional[str],
                sweep: Tuple) -> None:
    """Entry point of one worker process (see the module docstring);
    *sweep* is ``(engine_spec, model, times, rewards, target)``."""
    if obs_enabled:
        # Start from a clean slate: under the fork start method this
        # process inherited the parent's registry and spans, which the
        # parent already owns -- shipping them back would double-count.
        REGISTRY.reset()
        OBS.reset()
        OBS.enable()
    else:
        OBS.disable()
    recorder = (FlightRecorder(recorder_path)
                if recorder_path else None)
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(conn, send_lock, heartbeat_interval)
    heartbeat.start()
    try:
        context = _SweepContext(*sweep)
        with send_lock:
            conn.send(("ready", worker_id))
        held: Optional[_Held] = None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone
            if message[0] == "stop":
                if obs_enabled:
                    # Final drain: whatever accumulated since the last
                    # task (idle spans, stragglers) goes home before
                    # the pipe closes.
                    _send_telemetry(conn, send_lock, worker_id)
                break
            if message[0] == "resend":
                # The parent asks only for the result this worker
                # sent last, before it gives this worker a new task.
                assert held is not None and held[0] == message[1]
                _resend(held, message, heartbeat, conn, send_lock,
                        recorder, worker_id, obs_enabled)
                continue
            held = None  # a new task: the last result is settled
            held = _run_task(context, message, heartbeat, conn,
                             send_lock, recorder=recorder,
                             worker_id=worker_id,
                             obs_enabled=obs_enabled)
    finally:
        heartbeat.stop()
        if recorder is not None:
            recorder.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
