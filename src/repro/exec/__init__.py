"""Fault-tolerant sweep execution across worker processes.

The executors that run a sweep's shared-work units
(:mod:`repro.exec.executor`): in-process, behind
``joint_probability_sweep`` and ``executor="thread"``, and, behind
``executor="process"``, crash-isolated worker processes with
heartbeat hang detection (:mod:`repro.exec.worker`), bounded retries
and per-engine circuit breakers (:mod:`repro.exec.retry`), durable
JSONL sweep checkpoints (:mod:`repro.exec.checkpoint`), and a
deterministic fault-injection harness for chaos testing
(:mod:`repro.exec.faultinject`).

See ``docs/EXECUTION.md`` for the execution model and guarantees.
"""

from repro.exec.checkpoint import SweepCheckpoint, sweep_header
from repro.exec.executor import (EXECUTOR_NAMES, ProcessShardExecutor,
                                 SweepGrid, ThreadShardExecutor,
                                 breaker_key, resolve_executor)
from repro.exec.faultinject import FAULTS_ENV, FaultPlan
from repro.exec.retry import (BREAKERS, BreakerRegistry,
                              CircuitBreaker, RetryPolicy)

__all__ = [
    "BREAKERS",
    "BreakerRegistry",
    "CircuitBreaker",
    "EXECUTOR_NAMES",
    "FAULTS_ENV",
    "FaultPlan",
    "ProcessShardExecutor",
    "RetryPolicy",
    "SweepCheckpoint",
    "SweepGrid",
    "ThreadShardExecutor",
    "breaker_key",
    "resolve_executor",
    "sweep_header",
]
