"""Chaos suite: injected worker faults must never change the numbers.

Every scenario runs a Table-4-style ``(t, r)`` sweep grid through the
process executor while the fault-injection harness
(:mod:`repro.exec.faultinject`) crashes, hangs, corrupts or OOM-kills
workers on schedule, and asserts the surviving grid is **bit-identical**
to a fault-free threaded run -- fault tolerance that changed the
answer would be worse than a crash.  The subprocess scenarios
additionally prove the no-orphans contract (``kill -9`` of the parent
leaves no worker behind) and exact checkpointed resume across hard
parent death, plus the CLI's SIGINT behaviour (flush + exit 130).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.algorithms.base import get_engine
from repro.algorithms.cache import clear_caches
from repro.exec import (BREAKERS, FaultPlan, ProcessShardExecutor,
                        breaker_key)
from tests.exec_sweep_driver import (REWARDS, TARGET, TIMES,
                                     build_model, grid_checksum)

DRIVER = os.path.join(os.path.dirname(__file__),
                      "exec_sweep_driver.py")
TOTAL_CELLS = len(TIMES) * len(REWARDS)


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_caches()
    BREAKERS.reset()
    yield
    clear_caches()
    BREAKERS.reset()


@pytest.fixture(scope="module")
def reference():
    """Fault-free threaded grid of the shared chaos workload."""
    clear_caches()
    engine = get_engine("sericola")
    partial = engine.joint_probability_sweep_partial(
        build_model(), TIMES, REWARDS, TARGET)
    assert partial.complete
    clear_caches()
    return partial.grid.copy()


def _run_chaos(faults: str, checkpoint=None):
    engine = get_engine("sericola")
    executor = ProcessShardExecutor(
        max_workers=2, heartbeat_timeout=0.5, faults=faults)
    partial = engine.joint_probability_sweep_partial(
        build_model(), TIMES, REWARDS, TARGET, executor=executor,
        checkpoint=checkpoint)
    return partial, executor


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not mp.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"worker processes outlived the sweep: {mp.active_children()}")


# ----------------------------------------------------------------------
# in-process chaos: rate-selected and explicit fault schedules
# ----------------------------------------------------------------------

def test_rate_chaos_grid_is_bit_identical(reference):
    """>= 20% of cells fault on first attempt; the grid still matches
    the fault-free run bit for bit and no worker lingers."""
    spec = "rate=0.3;seed=4"
    schedule = FaultPlan.parse(spec).faulted_cells(TOTAL_CELLS)
    assert len(schedule) >= math.ceil(0.2 * TOTAL_CELLS)

    partial, executor = _run_chaos(spec)
    assert partial.complete
    assert not partial.failures
    assert partial.grid.tobytes() == reference.tobytes()
    # Every crash/oom fault kills a worker; every fault costs a retry.
    fatal = sum(1 for kind in schedule.values()
                if kind in ("crash", "oom", "hang"))
    assert executor.restarts >= fatal
    assert executor.retries >= len(schedule)
    _assert_no_orphans()


def test_every_fault_kind_recovers(reference):
    """One of each: crash, hang, corrupt result, OOM kill."""
    partial, executor = _run_chaos("crash@0;hang@2;corrupt@4;oom@5")
    assert partial.complete
    assert partial.grid.tobytes() == reference.tobytes()
    assert executor.restarts >= 3  # crash, hang, oom killed workers
    assert executor.retries >= 4
    _assert_no_orphans()


def test_double_fault_exhausts_then_retries_succeed(reference):
    """Cells faulting on the first *two* attempts still complete under
    the default three-retry policy."""
    partial, executor = _run_chaos("crash@1,7;attempts=2")
    assert partial.complete
    assert partial.grid.tobytes() == reference.tobytes()
    assert executor.retries >= 4  # two cells x two faulted attempts
    _assert_no_orphans()


def _erlang_grid(faults: str, recorder_dir, deadline=None, retry=None):
    """The 3 x 3 pseudo-Erlang grid (one unit per reward column) under
    *faults*, with its flight-recorder events and the fault-free grid."""
    from repro.obs.recorder import FlightRecorder
    times = TIMES[:3]
    reference = get_engine("erlang", phases=16).joint_probability_sweep(
        build_model(), times, REWARDS, TARGET)
    clear_caches()
    executor = ProcessShardExecutor(
        max_workers=2, heartbeat_timeout=0.5, faults=faults,
        recorder_dir=str(recorder_dir), retry=retry)
    partial = get_engine("erlang", phases=16).joint_probability_sweep_partial(
        build_model(), times, REWARDS, TARGET, executor=executor,
        deadline=deadline)
    events = [event for sidecar in sorted(recorder_dir.iterdir())
              for event in FlightRecorder.read_tail(str(sidecar), 1000)]
    return partial, executor, events, reference


def _kinds(events, kind):
    return [event for event in events if event["kind"] == kind]


def test_crash_restarts_exactly_the_unit_holding_the_cell(tmp_path):
    """``crash@4`` on a 3 x 3 grid kills the attempt of the work unit
    holding cell 4 -- reward column 1 for the pseudo-Erlang engine --
    and only that unit runs twice; the grid still equals the shared
    sweep bit for bit."""
    partial, executor, events, reference = _erlang_grid(
        "crash@4", tmp_path / "flight")
    assert partial.complete
    assert partial.grid.tobytes() == reference.tobytes()
    assert executor.restarts == 1 and executor.retries == 1
    runs = {}
    for event in _kinds(events, "task_start"):
        column = {j for _, j in event["cells"]}
        assert len(event["cells"]) == 3 and len(column) == 1
        runs.setdefault(column.pop(), []).append(event["attempt"])
    assert {j: sorted(attempts) for j, attempts in runs.items()} == \
        {0: [0], 1: [0, 1], 2: [0]}
    _assert_no_orphans()


def test_corrupt_result_is_resent_not_recomputed(tmp_path):
    """``corrupt@4`` spoils the result of reward column 1; the worker
    that computed it re-sends the bytes it holds.  Every unit starts
    once, no worker dies, and the grid is bit-identical."""
    partial, executor, events, reference = _erlang_grid(
        "corrupt@4", tmp_path / "flight")
    assert partial.complete
    assert partial.grid.tobytes() == reference.tobytes()
    assert executor.restarts == 0 and executor.retries == 1
    starts = _kinds(events, "task_start")
    assert sorted(event["cells"][0][1] for event in starts) == [0, 1, 2]
    resend, = _kinds(events, "resend")
    column_1, = [event for event in starts
                 if event["cells"][0][1] == 1]
    assert resend["seq"] == column_1["seq"]
    assert [event["fault"] for event in _kinds(events, "fault")] == \
        ["corrupt"]
    _assert_no_orphans()


def test_resend_takes_the_units_next_fault(tmp_path):
    """Column 2 holds ``corrupt@2`` before ``crash@5``: the resend of
    the corrupt result takes the crash, so both faults fire, one
    worker restarts, and the grid is still bit-identical."""
    partial, executor, events, reference = _erlang_grid(
        "corrupt@2;crash@5", tmp_path / "flight")
    assert partial.complete
    assert partial.grid.tobytes() == reference.tobytes()
    assert executor.restarts == 1 and executor.retries == 2
    assert sorted(event["fault"] for event in _kinds(events, "fault")) \
        == ["corrupt", "crash"]
    assert len(_kinds(events, "resend")) == 1
    column_2 = sorted(event["attempt"]
                      for event in _kinds(events, "task_start")
                      if event["cells"][0][1] == 2)
    assert column_2 == [0, 2]  # first run, then the re-run after the crash
    _assert_no_orphans()


def test_repeated_corruption_falls_back_to_the_cell_split(tmp_path):
    """A result that arrives corrupt on every resend exhausts the
    budget; the unit is split into single cells, which run and finish,
    except cell 0, whose every result is corrupt: it alone is a
    ``WorkerError``, and no worker ever restarts."""
    from repro.exec import RetryPolicy
    partial, executor, events, reference = _erlang_grid(
        "corrupt@0;attempts=9", tmp_path / "flight",
        retry=RetryPolicy(max_retries=2, base_delay=0.01))
    assert partial.unevaluated == ((0, 0),)
    failure, = partial.failures
    assert "corrupt" in str(failure)
    mask = ~np.isnan(partial.grid)
    assert np.array_equal(partial.grid[mask], reference[mask])
    assert executor.restarts == 0
    # Column 0: two resends, the split, then two resends of cell 0.
    assert executor.retries == 5
    assert len(_kinds(events, "resend")) == 4
    singles = sorted(tuple(event["cells"][0])
                     for event in _kinds(events, "task_start")
                     if len(event["cells"]) == 1)
    assert singles == [(0, 0), (1, 0), (2, 0)]
    _assert_no_orphans()


def test_corrupt_result_after_the_deadline_is_not_resent(tmp_path):
    """A corrupt result that arrives once the deadline has passed is
    not re-sent: its unit comes back unevaluated and counts as a
    missed deadline."""
    from repro.obs import REGISTRY
    missed = REGISTRY.counter("repro_deadline_missed_total")
    before = missed.value
    partial, executor, events, reference = _erlang_grid(
        "corrupt@0;sleep=0.8", tmp_path / "flight",
        deadline=time.monotonic() + 1.0)
    # Column 0 started in time (its fault fired) but was not re-sent.
    assert [event["fault"] for event in _kinds(events, "fault")] == \
        ["corrupt"]
    assert not _kinds(events, "resend")
    assert executor.retries == 0 and executor.restarts == 0
    assert {(0, 0), (1, 0), (2, 0)} <= set(partial.unevaluated)
    assert not partial.failures
    assert missed.value >= before + 1
    mask = ~np.isnan(partial.grid)
    assert np.array_equal(partial.grid[mask], reference[mask])
    _assert_no_orphans()


def _run_give_up(faults: str, recorder_dir=None):
    """A sweep whose cell-0 faults outlast the retry budget."""
    from repro.exec import RetryPolicy
    from repro.exec.retry import BreakerRegistry
    engine = get_engine("sericola")
    executor = ProcessShardExecutor(
        max_workers=2, heartbeat_timeout=0.5, faults=faults,
        retry=RetryPolicy(max_retries=2, base_delay=0.01),
        breakers=BreakerRegistry(failure_threshold=100),
        recorder_dir=recorder_dir)
    partial = engine.joint_probability_sweep_partial(
        build_model(), TIMES, REWARDS, TARGET, executor=executor)
    return partial


def test_give_up_carries_flight_recorder_tail(reference):
    """A cell that crashes its worker on every attempt surfaces as a
    ``WorkerError`` carrying the victim's final recorded activity:
    the ``task_start`` for the doomed cell and the injected fault."""
    partial = _run_give_up("crash@0;attempts=9")
    assert not partial.complete
    failure, = partial.failures
    assert failure.flight_tail, "WorkerError lost the flight tail"
    kinds = [event["kind"] for event in failure.flight_tail]
    assert "task_start" in kinds
    starts = [event for event in failure.flight_tail
              if event["kind"] == "task_start"]
    assert starts[-1]["cell"] == [0, 0]
    # Exactly the doomed cell is missing (NaN); every surviving cell
    # still matches the fault-free reference bit for bit.
    assert partial.unevaluated == ((0, 0),)
    mask = ~np.isnan(partial.grid)
    assert np.array_equal(partial.grid[mask], reference[mask])
    _assert_no_orphans()


def test_hang_give_up_carries_flight_tail(reference, tmp_path):
    """Hang faults (heartbeat-timeout kills) keep the tail too, and an
    explicit ``recorder_dir`` preserves the sidecars after the run."""
    recorder_dir = str(tmp_path / "flight")
    partial = _run_give_up("hang@0;attempts=9",
                           recorder_dir=recorder_dir)
    assert not partial.complete
    failure, = partial.failures
    assert failure.flight_tail
    assert any(event["kind"] == "task_start"
               and event["cell"] == [0, 0]
               for event in failure.flight_tail)
    sidecars = [name for name in os.listdir(recorder_dir)
                if name.startswith("worker-")
                and name.endswith(".jsonl")]
    assert sidecars, "explicit recorder_dir lost its sidecars"
    _assert_no_orphans()


def test_chaos_with_checkpoint_resume(reference, tmp_path):
    """A faulted, checkpointed run resumes into a clean run exactly."""
    path = str(tmp_path / "chaos.jsonl")
    first, _ = _run_chaos("rate=0.3;seed=4", checkpoint=path)
    assert first.complete

    clear_caches()
    engine = get_engine("sericola")
    resumed = engine.joint_probability_sweep_partial(
        build_model(), TIMES, REWARDS, TARGET,
        executor=ProcessShardExecutor(max_workers=2), checkpoint=path)
    assert resumed.complete
    assert resumed.grid.tobytes() == reference.tobytes()
    _assert_no_orphans()


def test_breaker_open_skips_certified_engine(flip_flop):
    """An open breaker degrades the certified chain, visibly."""
    from repro.mc.certified import CertifiedChecker
    engine = get_engine("sericola")
    breaker = BREAKERS.breaker(breaker_key(engine))
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    result = CertifiedChecker(flip_flop).check(
        "P>0.5 [ up U[0,1][0,2] down ]")
    skips = [f for f in result.failures if f.skipped_breaker]
    assert skips and skips[0].engine == "sericola"
    assert result.engine != "sericola"
    assert result.verdict is not None


# ----------------------------------------------------------------------
# subprocess chaos: hard parent death and SIGINT
# ----------------------------------------------------------------------

def _driver_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(DRIVER), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def _surviving_driver_pids():
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if "exec_sweep_driver" in cmdline:
            pids.append(int(pid))
    return pids


def _wait_for_checkpoint_rows(path: str, rows: int,
                              timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                if sum(1 for _ in handle) >= rows + 1:  # + header
                    return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError(
        f"checkpoint {path} never reached {rows} data rows")


def test_kill9_parent_resumes_exactly_with_no_orphans(reference,
                                                      tmp_path):
    """``kill -9`` of the driving process mid-sweep: the orphaned
    workers exit on their own, and a re-run resumes from the
    checkpoint to the exact fault-free grid."""
    path = str(tmp_path / "kill9.jsonl")
    proc = subprocess.Popen(
        [sys.executable, DRIVER, "--checkpoint", path,
         "--faults", "sleep=0.25", "--max-workers", "2"],
        env=_driver_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        _wait_for_checkpoint_rows(path, rows=2, timeout=30.0)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup only
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL

    # The orphaned workers notice the reparenting and exit by
    # themselves -- nothing is left to send them signals.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not _surviving_driver_pids():
            break
        time.sleep(0.1)
    assert not _surviving_driver_pids()

    done = subprocess.run(
        [sys.executable, DRIVER, "--checkpoint", path,
         "--max-workers", "2"],
        env=_driver_env(), capture_output=True, text=True,
        timeout=120.0)
    assert done.returncode == 0, done.stderr
    facts = dict(line.split("=", 1)
                 for line in done.stdout.strip().splitlines())
    assert int(facts["resumed"]) >= 2
    assert int(facts["computed"]) <= TOTAL_CELLS - 2
    assert facts["checksum"] == grid_checksum(reference)
    assert not _surviving_driver_pids()


def test_cli_sigint_flushes_checkpoint_and_exits_130(tmp_path):
    path = str(tmp_path / "sigint.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "check", "--model",
         "adhoc", "--formula", "Q3", "--sweep-times", "6,12,24,36",
         "--sweep-rewards", "150,300,600", "--executor", "process",
         "--max-workers", "2", "--checkpoint", path],
        env=dict(_driver_env(), REPRO_FAULTS="sleep=0.8"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _wait_for_checkpoint_rows(path, rows=1, timeout=60.0)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup only
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130
    assert "interrupted" in err
    assert path in err  # the resume hint names the checkpoint
    with open(path, "r", encoding="utf-8") as handle:
        assert sum(1 for _ in handle) >= 2  # header + flushed cells
