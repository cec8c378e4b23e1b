"""Durable JSON-lines records, crash flight recorder, resource timelines.

Standard library only:

* :class:`RecordLog` -- the one durable-record writer: it appends a
  batch of dicts as JSON lines under a lock with one write, one flush
  and one ``os.fsync``, so the batch is on disk when the call returns.
  Sweep checkpoints (:class:`repro.exec.checkpoint.SweepCheckpoint`),
  flight-recorder sidecars and trace files
  (:func:`repro.obs.export.write_jsonl`) all write through it.
  :func:`read_records` is its tolerant reader: blank, truncated and
  non-object lines (a process killed mid-write) are skipped, never
  raised.
* :class:`FlightRecorder` -- a per-worker activity log in the style of
  a cockpit flight recorder: every event (task start, injected fault,
  task completion with its wall time, engine error) is one fsynced
  record in a sidecar file, so when the worker dies *without warning*
  (``os._exit``, ``SIGKILL``, a hang kill) the parent reads the
  victim's last recorded activity back with
  :meth:`FlightRecorder.read_tail` and attaches it to the
  :class:`~repro.errors.WorkerError`.
* :class:`ResourceSampler` -- a daemon thread sampling RSS and CPU
  time of a set of processes (``/proc/<pid>/stat`` where available)
  into bounded per-process time series: the gauge *history* behind the
  ``--progress`` live line, complementing the high-water
  ``repro_peak_rss_bytes`` gauge.  When given a registry, each sample
  also raises the per-worker ``repro_peak_rss_bytes{worker=...}``
  gauge.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry, peak_rss_bytes

#: Default number of events read back as a sidecar's tail.
DEFAULT_TAIL_EVENTS = 32


class RecordLog:
    """An append-only JSON-lines file, durable per batch.

    Each :meth:`append` writes its records (one ``json.dumps`` line
    each, keys in insertion order) with one write, one flush and one
    fsync under a lock, so concurrent threads may append and every
    batch is complete on disk when the call returns.  *mode* ``"w"``
    starts a fresh file instead of appending to an existing one.
    """

    def __init__(self, path: str, mode: str = "a"):
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, mode, encoding="utf-8")

    def append(self, records: Iterable[Dict[str, Any]]) -> int:
        """Write *records* as one durable batch; returns their count."""
        lines = [json.dumps(record) + "\n" for record in records]
        if lines:
            with self._lock:
                self._handle.write("".join(lines))
                self._handle.flush()
                os.fsync(self._handle.fileno())
        return len(lines)

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"


def read_records(path: str) -> List[Dict[str, Any]]:
    """The JSON-object lines of *path*, in file order.

    Blank, truncated (a mid-write kill) and non-object lines are
    skipped; a missing or unreadable file reads as empty.
    """
    try:
        with open(path, "r", encoding="utf-8",
                  errors="replace") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


class FlightRecorder(RecordLog):
    """A worker's activity sidecar: one fsynced record per event.

    Each :meth:`record` call appends one ``{"ts": ..., "kind": ...,
    ...}`` record, so the file is complete up to the last event
    *whatever* kills the process next.  The write cost is paid per
    task-level event (a handful per sweep cell), not per engine
    iteration, keeping it negligible next to the cell computation.
    """

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event (and fsync it) -- never raises."""
        event = {"ts": round(time.time(), 6), "kind": str(kind)}
        event.update(fields)
        try:
            self.append([event])
        except (OSError, ValueError):  # pragma: no cover - disk
            pass

    def close(self) -> None:
        try:
            super().close()
        except OSError:  # pragma: no cover - disk
            pass

    @staticmethod
    def read_tail(path: str, limit: int = DEFAULT_TAIL_EVENTS
                  ) -> Tuple[Dict[str, Any], ...]:
        """The last *limit* valid events of a sidecar file -- possibly
        none, never an error: the caller is already handling a dead
        worker."""
        return tuple(read_records(path)[-limit:])


def _read_proc_stat(pid: int) -> Optional[Tuple[int, float]]:
    """``(rss_bytes, cpu_seconds)`` of *pid* from ``/proc``, or
    ``None`` where unavailable (non-Linux, vanished process)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read().decode("ascii", "replace")
        # Split after the parenthesised comm field; the remainder is
        # purely numeric: state utime=field 12, stime=13, rss=22
        # (0-based within the remainder).
        rest = data.rsplit(")", 1)[1].split()
        ticks = int(rest[11]) + int(rest[12])
        pages = int(rest[21])
        page_size = os.sysconf("SC_PAGE_SIZE")
        clk_tck = os.sysconf("SC_CLK_TCK") or 100
        return pages * page_size, ticks / float(clk_tck)
    except (OSError, IndexError, ValueError, AttributeError):
        return None


class ResourceSampler(threading.Thread):
    """Daemon thread recording RSS/CPU time series per process.

    ``watch(label, pid)`` registers a process under a stable label
    (``"main"``, ``"process-0"``, ...); every *interval* seconds one
    ``(monotonic_ts, rss_bytes, cpu_seconds)`` sample is appended to
    that label's bounded series.  A vanished pid simply stops
    producing samples.  With a *registry*, samples also raise the
    worker-labelled ``repro_peak_rss_bytes`` gauge and the unlabelled
    ``repro_peak_rss_bytes_max`` roll-up.
    """

    def __init__(self, interval: float = 0.5,
                 registry: Optional[MetricsRegistry] = None,
                 maxlen: int = 2048):
        super().__init__(daemon=True, name="repro-resource-sampler")
        self.interval = float(interval)
        self.registry = registry
        self.maxlen = int(maxlen)
        self._lock = threading.Lock()
        self._pids: Dict[str, int] = {}
        self._series: Dict[str,
                           Deque[Tuple[float, int, float]]] = {}
        self._stopped = threading.Event()

    def watch(self, label: str, pid: int) -> None:
        """Start sampling *pid* under *label* (replaces a prior pid)."""
        with self._lock:
            self._pids[str(label)] = int(pid)
            self._series.setdefault(
                str(label), collections.deque(maxlen=self.maxlen))

    def unwatch(self, label: str) -> None:
        """Stop sampling *label* (its recorded series is kept)."""
        with self._lock:
            self._pids.pop(str(label), None)

    def sample_once(self) -> Dict[str, Tuple[float, int, float]]:
        """Take one sample of every watched process; returns the new
        ``{label: (ts, rss_bytes, cpu_seconds)}`` points."""
        with self._lock:
            pids = dict(self._pids)
        now = time.monotonic()
        taken: Dict[str, Tuple[float, int, float]] = {}
        self_pid = os.getpid()
        for label, pid in pids.items():
            stat = _read_proc_stat(pid)
            if stat is None:
                if pid != self_pid:
                    continue
                # Fallback without /proc: the high-water RSS and this
                # process's CPU clock still give a usable series.
                stat = (peak_rss_bytes(), time.process_time())
            rss, cpu = stat
            point = (now, rss, cpu)
            taken[label] = point
            with self._lock:
                series = self._series.get(label)
                if series is not None:
                    series.append(point)
            if self.registry is not None and rss > 0:
                self.registry.gauge("repro_peak_rss_bytes",
                                    worker=label).update_max(rss)
                self.registry.gauge(
                    "repro_peak_rss_bytes_max").update_max(rss)
        return taken

    def latest(self) -> Dict[str, Tuple[float, int, float]]:
        """The most recent sample per label (empty series omitted)."""
        with self._lock:
            return {label: series[-1]
                    for label, series in self._series.items()
                    if series}

    def timelines(self) -> Dict[str, List[Tuple[float, int, float]]]:
        """A copy of every recorded series."""
        with self._lock:
            return {label: list(series)
                    for label, series in self._series.items()}

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            self.sample_once()

    def stop(self, join: bool = True) -> None:
        self._stopped.set()
        if join and self.is_alive():
            self.join(timeout=2.0)

    def __repr__(self) -> str:
        with self._lock:
            return (f"ResourceSampler(interval={self.interval}, "
                    f"watching={sorted(self._pids)})")
