"""Deterministic fault injection for the process executor's workers.

The chaos test suite (and the CI chaos leg) needs workers that fail on
purpose -- crash, hang, return corrupted bytes, get OOM-killed -- at
*chosen, reproducible* points, so a faulty run can be compared
bit-for-bit against a fault-free one.  This module is that harness:

* A :class:`FaultPlan` decides, purely as a function of ``(seed, cell
  index, attempt)``, whether a fault fires and which kind.  Nothing is
  random at run time; two runs of the same plan inject identically.
* Faults fire on early *attempts* only (``attempts=1`` by default:
  first attempt faults, the retry succeeds), so a chaos run always
  converges to the fault-free grid -- the executor's retry machinery,
  not luck, is what completes the sweep.
* Plans are parsed from a spec string, supplied either programmatically
  (``ProcessShardExecutor(faults=...)``) or through the
  ``REPRO_FAULTS`` environment variable -- so the CI leg can
  chaos-test any workload without code changes.
* Specs keep their *cell* meaning although the executor runs work
  units (a reward column, a Sericola column group): the scheduler
  faults an attempt of a unit when one of its cells has a scheduled
  fault left, and that attempt counts as the cell's attempt.  So
  ``crash@3`` crashes the unit holding cell 3, and every scheduled
  ``(cell, attempt)`` fault fires exactly once; the worker applies
  the fault the scheduler shipped with the task.

Spec grammar (``;``-separated clauses)::

    rate=0.2              fraction of cells faulted (hash-selected)
    kinds=crash,hang      fault kinds to rotate through (default all)
    seed=42               selection hash seed (default 0)
    attempts=1            fault while attempt < this (default 1)
    crash@3,7             explicit linear cell indices per kind
    hang@5                (override/augment the rate-based selection)
    corrupt@0 oom@2       ...
    sleep=0.25            throttle: sleep this long per cell before
                          every unit (not a fault; slows units down so
                          tests can interrupt mid-sweep
                          deterministically)

Fault kinds (applied inside the worker, see
:mod:`repro.exec.worker`):

``crash``
    ``os._exit(13)`` -- the process dies without cleanup.
``oom``
    ``SIGKILL`` to itself -- simulates the kernel OOM killer.
``hang``
    stops heartbeating and sleeps forever -- exercises the executor's
    heartbeat staleness detection and kill-and-respawn path.
``corrupt``
    flips a byte of the result payload *after* the checksum was
    computed -- simulates transport corruption; the parent detects the
    checksum mismatch and asks the same worker to re-send the result
    it holds (a ``resend``, which takes the unit's next scheduled
    fault like any other attempt).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import NumericalError

#: Environment variable worker processes read their plan from.
FAULTS_ENV = "REPRO_FAULTS"

KINDS: Tuple[str, ...] = ("crash", "hang", "corrupt", "oom")


def _unit_hash(*parts) -> float:
    """A deterministic uniform-ish sample in ``[0, 1)`` from *parts*
    (fault selection here, retry jitter in :mod:`repro.exec.retry`)."""
    digest = hashlib.blake2b(
        ":".join(str(part) for part in parts).encode("utf-8"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected worker faults.

    ``fault_for(cell, attempt)`` is the single decision point: it
    returns the fault kind to inject for that attempt of that cell, or
    ``None``.  Explicit per-kind cell sets win over the rate-based
    selection.
    """

    rate: float = 0.0
    kinds: Tuple[str, ...] = KINDS
    seed: int = 0
    attempts: int = 1
    sleep: float = 0.0
    explicit: Dict[str, FrozenSet[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise NumericalError(
                f"fault rate must be in [0, 1], got {self.rate}")
        for kind in self.kinds:
            if kind not in KINDS:
                raise NumericalError(
                    f"unknown fault kind {kind!r}; known: "
                    f"{', '.join(KINDS)}")
        for kind in self.explicit:
            if kind not in KINDS:
                raise NumericalError(
                    f"unknown fault kind {kind!r}; known: "
                    f"{', '.join(KINDS)}")

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """A plan from the spec grammar (``None``/empty = no faults)."""
        if not spec or not spec.strip():
            return cls()
        rate, seed, attempts, sleep = 0.0, 0, 1, 0.0
        kinds: Tuple[str, ...] = KINDS
        explicit: Dict[str, FrozenSet[int]] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if "@" in clause:
                kind, _, cells = clause.partition("@")
                kind = kind.strip()
                try:
                    indices = frozenset(
                        int(piece) for piece in cells.split(",")
                        if piece.strip())
                except ValueError:
                    raise NumericalError(
                        f"bad fault clause {clause!r}: cell indices "
                        f"must be integers") from None
                explicit[kind] = explicit.get(kind,
                                              frozenset()) | indices
                continue
            key, sep, value = clause.partition("=")
            if not sep:
                raise NumericalError(
                    f"bad fault clause {clause!r}: expected key=value "
                    f"or kind@cells")
            key, value = key.strip(), value.strip()
            try:
                if key == "rate":
                    rate = float(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "attempts":
                    attempts = int(value)
                elif key == "sleep":
                    sleep = float(value)
                elif key == "kinds":
                    kinds = tuple(k.strip()
                                  for k in value.replace("|", ",")
                                  .split(",") if k.strip())
                else:
                    raise NumericalError(
                        f"unknown fault knob {key!r}")
            except ValueError:
                raise NumericalError(
                    f"bad fault clause {clause!r}: cannot parse "
                    f"{value!r}") from None
        return cls(rate=rate, kinds=kinds, seed=seed,
                   attempts=attempts, sleep=sleep, explicit=explicit)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan named by ``REPRO_FAULTS`` (empty plan when unset)."""
        environ = os.environ if environ is None else environ
        return cls.parse(environ.get(FAULTS_ENV))

    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return (self.rate > 0.0 or bool(self.explicit)
                or self.sleep > 0.0)

    def fault_for(self, cell: int, attempt: int) -> Optional[str]:
        """The fault kind to inject for *attempt* of linear *cell*.

        Explicit ``kind@cell`` clauses always fire (on eligible
        attempts); otherwise the rate-based hash selection applies.
        """
        if attempt >= self.attempts:
            return None
        for kind, cells in self.explicit.items():
            if cell in cells:
                return kind
        if self.rate <= 0.0 or not self.kinds:
            return None
        if _unit_hash(self.seed, "select", cell) >= self.rate:
            return None
        pick = _unit_hash(self.seed, "kind", cell)
        return self.kinds[int(pick * len(self.kinds)) % len(self.kinds)]

    def faulted_cells(self, num_cells: int) -> Dict[int, str]:
        """The full schedule for first attempts over *num_cells* cells
        (what the chaos tests assert the injection rate with)."""
        schedule = {}
        for cell in range(num_cells):
            kind = self.fault_for(cell, 0)
            if kind is not None:
                schedule[cell] = kind
        return schedule

    def __repr__(self) -> str:
        parts = []
        if self.rate:
            parts.append(f"rate={self.rate}")
            parts.append(f"kinds={','.join(self.kinds)}")
            parts.append(f"seed={self.seed}")
        for kind, cells in sorted(self.explicit.items()):
            parts.append(
                f"{kind}@{','.join(str(c) for c in sorted(cells))}")
        if self.sleep:
            parts.append(f"sleep={self.sleep}")
        if self.attempts != 1:
            parts.append(f"attempts={self.attempts}")
        return f"FaultPlan({'; '.join(parts) or 'inactive'})"
