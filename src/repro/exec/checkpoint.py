"""Durable JSONL checkpoints for ``(t, r)`` sweep grids.

A checkpoint file makes a long sweep restartable across process death:
the cells of every finished work unit are appended (and flushed) the
moment it finishes, so a crash -- including ``kill -9`` of the driving
process -- loses at most the units in flight.  Re-running the same sweep with the same
checkpoint path resumes exactly where the previous run stopped: loaded
cells are served from the file, only the remainder is dispatched.

File format: one JSON object per line.

* Line 1 is the **header** identifying the sweep the file belongs to::

      {"schema": 1, "kind": "repro-sweep-checkpoint",
       "fingerprint": "<model BLAKE2b>", "engine": "<cache token>",
       "times": [...], "rewards": [...], "target": "<indicator hash>",
       "num_states": n}

  A checkpoint is only ever merged into the *identical* sweep: model
  content fingerprint, engine accuracy parameters (the cache token),
  grid axes and target set must all match, otherwise
  :class:`~repro.errors.CheckpointError` is raised.  This is the same
  content-identity contract the joint-vector cache uses.

* Every further line is one completed **cell**::

      {"cell": [i, j], "data": "<base64 float64 LE bytes>",
       "checksum": "<BLAKE2b of the raw bytes>"}

  Values are stored as raw little-endian float64 bytes (base64), so a
  resumed grid is **bit-identical** to an uninterrupted run -- no
  decimal round-trip.  Rows failing their checksum, truncated by a
  crash mid-write, or duplicated are skipped/deduplicated on load; the
  affected cells are simply recomputed.

Rows are written through :class:`~repro.obs.recorder.RecordLog`
(:meth:`SweepCheckpoint.extend` writes a whole unit's rows as one
durable batch), so concurrent worker threads may append and the rows
are on disk when the call returns.  The row format is per cell
whatever the unit size, so files written one cell per batch resume
unchanged.
"""

from __future__ import annotations

import base64
import hashlib
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.obs.recorder import RecordLog, read_records

SCHEMA = 1
KIND = "repro-sweep-checkpoint"


def _checksum(data: bytes) -> str:
    """BLAKE2b-128 hex digest of *data*: checkpoint rows here, result
    messages in :mod:`repro.exec.worker` and the executor."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _indicator_hash(indicator: np.ndarray) -> str:
    return _checksum(np.ascontiguousarray(indicator, dtype=float)
                     .tobytes())


def sweep_header(fingerprint: str, engine_token: Tuple,
                 times: Sequence[float], rewards: Sequence[float],
                 indicator: np.ndarray) -> Dict:
    """The header object identifying one sweep's checkpoint."""
    return {
        "schema": SCHEMA,
        "kind": KIND,
        "fingerprint": fingerprint,
        "engine": repr(engine_token),
        "times": [float(t) for t in times],
        "rewards": [float(r) for r in rewards],
        "target": _indicator_hash(indicator),
        "num_states": int(indicator.shape[0]),
    }


class SweepCheckpoint:
    """One sweep's append-only JSONL checkpoint file.

    Use :meth:`open` with the sweep's identity; it validates an
    existing file's header (raising
    :class:`~repro.errors.CheckpointError` on mismatch) or writes a
    fresh header, and pre-loads every valid completed cell.
    """

    def __init__(self, path: str, header: Dict,
                 cells: Dict[Tuple[int, int], np.ndarray]):
        self.path = path
        self.header = header
        self._cells = cells
        self._lock = threading.Lock()
        self._log = RecordLog(path)

    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str, fingerprint: str, engine_token: Tuple,
             times: Sequence[float], rewards: Sequence[float],
             indicator: np.ndarray) -> "SweepCheckpoint":
        """Open (resuming) or create the checkpoint for this sweep."""
        header = sweep_header(fingerprint, engine_token, times,
                              rewards, indicator)
        fresh = not (os.path.exists(path) and os.path.getsize(path) > 0)
        cells = {} if fresh else cls._load(
            path, header, (len(times), len(rewards)),
            int(indicator.shape[0]))
        checkpoint = cls(path, header, cells)
        if fresh:
            checkpoint._log.append([header])
        return checkpoint

    @staticmethod
    def _load(path: str, header: Dict, shape: Tuple[int, int],
              num_states: int) -> Dict[Tuple[int, int], np.ndarray]:
        records = read_records(path)
        if not records or records[0].get("kind") != KIND:
            raise CheckpointError(f"{path} is not a sweep checkpoint")
        existing = records[0]
        for field in ("schema", "fingerprint", "engine", "times",
                      "rewards", "target", "num_states"):
            if existing.get(field) != header[field]:
                raise CheckpointError(
                    f"checkpoint {path} was written for a different "
                    f"sweep: field {field!r} is "
                    f"{existing.get(field)!r}, this sweep needs "
                    f"{header[field]!r}")
        cells: Dict[Tuple[int, int], np.ndarray] = {}
        for record in records[1:]:
            row = SweepCheckpoint._parse_row(record, shape, num_states)
            if row is not None:
                cells[row[0]] = row[1]
        return cells

    @staticmethod
    def _parse_row(row: Dict[str, Any], shape: Tuple[int, int],
                   num_states: int
                   ) -> Optional[Tuple[Tuple[int, int], np.ndarray]]:
        """One cell from a data row, or ``None`` when the row is
        corrupt or out of range (the cell recomputes)."""
        try:
            i, j = (int(row["cell"][0]), int(row["cell"][1]))
            data = base64.b64decode(row["data"], validate=True)
        except (KeyError, ValueError, TypeError, IndexError):
            return None
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            return None
        if row.get("checksum") != _checksum(data):
            return None
        vector = np.frombuffer(data, dtype="<f8")
        if vector.shape != (num_states,):
            return None
        return (i, j), vector.astype(float, copy=True)

    # ------------------------------------------------------------------

    def __contains__(self, cell: Tuple[int, int]) -> bool:
        with self._lock:
            return tuple(cell) in self._cells

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def append(self, cell: Tuple[int, int], vector: np.ndarray) -> None:
        """Record one completed cell, durably."""
        self.extend([(cell, vector)])

    def extend(self, cells: Iterable[Tuple[Tuple[int, int],
                                           np.ndarray]]) -> None:
        """Record completed ``(cell, vector)`` pairs -- a finished work
        unit -- as one durable batch; cells already recorded are
        skipped."""
        rows = []
        with self._lock:
            for cell, vector in cells:
                i, j = int(cell[0]), int(cell[1])
                if (i, j) in self._cells:
                    continue
                data = np.ascontiguousarray(vector, dtype="<f8").tobytes()
                self._cells[(i, j)] = np.asarray(vector,
                                                 dtype=float).copy()
                rows.append({"cell": [i, j],
                             "data": base64.b64encode(data).decode("ascii"),
                             "checksum": _checksum(data)})
            self._log.append(rows)

    def load_into(self, grid: np.ndarray,
                  completed: np.ndarray) -> List[Tuple[int, int]]:
        """Fill *grid*/*completed* from the stored cells.

        Returns the list of cells that were served from the file, in
        grid order -- the resume merge point of the partial-sweep path.
        """
        served = []
        with self._lock:
            for (i, j), vector in sorted(self._cells.items()):
                grid[i, j] = vector
                completed[i, j] = True
                served.append((i, j))
        return served

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SweepCheckpoint({self.path!r}, "
                f"cells={len(self)})")
