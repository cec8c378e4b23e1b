"""Subprocess helper for the chaos tests: drive one checkpointed sweep.

Runs a process-executor sweep of a fixed, deterministically built model
and prints machine-readable progress facts::

    resumed=<cells served from the checkpoint before computing>
    computed=<cells evaluated by this run>
    checksum=<BLAKE2b of the final grid's raw float64 bytes>

The chaos tests launch this script, ``kill -9`` it mid-sweep, assert
the worker processes it spawned do not linger, then re-run it and
compare ``checksum`` against an in-process fault-free reference --
proving checkpointed resume is exact across hard parent death.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from repro.algorithms.base import get_engine
from repro.ctmc import ModelBuilder
from repro.exec import ProcessShardExecutor

#: The (t, r) grid every driver invocation sweeps.
TIMES = [0.5, 1.0, 1.5, 2.0]
REWARDS = [0.4, 0.8, 1.6]
TARGET = {2}


def build_model():
    """A three-level reward chain, bit-for-bit reproducible."""
    builder = ModelBuilder()
    builder.add_state("fast", labels=("busy",), reward=3.0)
    builder.add_state("slow", labels=("busy",), reward=1.0)
    builder.add_state("stopped", labels=("halt",), reward=0.0)
    builder.add_transition("fast", "slow", 2.0)
    builder.add_transition("slow", "fast", 1.0)
    builder.add_transition("slow", "stopped", 0.5)
    return builder.build(initial_state="fast")


def grid_checksum(grid: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(grid, dtype="<f8").tobytes(),
        digest_size=16).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--faults", default=None)
    parser.add_argument("--max-workers", type=int, default=2)
    args = parser.parse_args(argv)

    import os
    resumed = 0
    if os.path.exists(args.checkpoint):
        with open(args.checkpoint, "r", encoding="utf-8") as handle:
            resumed = max(0, sum(1 for _ in handle) - 1)  # sans header

    model = build_model()
    engine = get_engine("sericola")
    executor = ProcessShardExecutor(
        max_workers=args.max_workers,
        heartbeat_timeout=1.0, faults=args.faults)
    try:
        partial = engine.joint_probability_sweep_partial(
            model, TIMES, REWARDS, TARGET, executor=executor,
            checkpoint=args.checkpoint)
    finally:
        executor.close()
    if not partial.complete:
        print(f"incomplete={len(partial.unevaluated)}", flush=True)
        return 1
    total = len(TIMES) * len(REWARDS)
    print(f"resumed={resumed}", flush=True)
    print(f"computed={total - resumed}", flush=True)
    print(f"checksum={grid_checksum(partial.grid)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
