"""Unit tests of the fault-tolerant execution layer (:mod:`repro.exec`).

Covers the policy pieces in isolation (retry backoff, circuit breaker,
fault plans, checkpoint files, error pickling) plus the executor
contracts: thread/process result equality, checkpoint resume, and the
engine ``spec()`` transport round-trip.  The chaos scenarios (injected
crashes, hangs, kills) live in ``test_exec_chaos.py``.
"""

from __future__ import annotations

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.algorithms import DiscretizationEngine
from repro.algorithms.base import PartialSweep, get_engine
from repro.algorithms.cache import clear_caches, joint_cache
from repro.errors import (CheckpointError, NumericalError,
                          ParallelExecutionError, RemoteTaskError,
                          WorkerCrashError, WorkerError)
from repro.exec import (BREAKERS, BreakerRegistry, CircuitBreaker,
                        FaultPlan, ProcessShardExecutor, RetryPolicy,
                        SweepCheckpoint, ThreadShardExecutor,
                        breaker_key, resolve_executor)
from repro.mc.certified import EngineFailure


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_caches()
    BREAKERS.reset()
    yield
    clear_caches()
    BREAKERS.reset()


# ----------------------------------------------------------------------
# error transport: everything the process boundary ships must pickle
# ----------------------------------------------------------------------

class TestErrorPickling:

    def _round_trip(self, obj):
        return pickle.loads(pickle.dumps(obj))

    def test_worker_error(self):
        err = WorkerError(7, NumericalError("boom"), "cell (t=1, r=2)")
        back = self._round_trip(err)
        assert back.index == 7
        assert back.label == "cell (t=1, r=2)"
        assert isinstance(back.cause, NumericalError)
        assert str(back) == str(err)

    def test_worker_error_without_label(self):
        back = self._round_trip(WorkerError(0, ValueError("x")))
        assert back.index == 0 and back.label is None

    def test_parallel_execution_error(self):
        failures = [WorkerError(1, NumericalError("a"), "one"),
                    WorkerError(3, NumericalError("b"), "two")]
        err = ParallelExecutionError(failures, total=8)
        back = self._round_trip(err)
        assert back.total == 8
        assert [f.index for f in back.failures] == [1, 3]
        assert str(back) == str(err)

    def test_worker_crash_error(self):
        back = self._round_trip(WorkerCrashError("hang", 3, -9))
        assert (back.reason, back.worker_id, back.exitcode) == \
            ("hang", 3, -9)

    def test_remote_task_error(self):
        err = RemoteTaskError("ValueError", "negative rate",
                              "Traceback ...")
        back = self._round_trip(err)
        assert back.exc_type == "ValueError"
        assert back.traceback_text == "Traceback ..."

    def test_engine_failure(self):
        failure = EngineFailure("sericola", "breaker open",
                                skipped_breaker=True)
        back = self._round_trip(failure)
        assert back == failure
        assert "skipped (breaker)" in str(back)

    def test_partial_sweep(self):
        grid = np.full((1, 2, 3), np.nan)
        grid[0, 0] = [0.1, 0.2, 0.3]
        completed = np.array([[True, False]])
        failure = WorkerError(1, WorkerCrashError("crash", 0, 13),
                              "cell (t=1.0, r=2.0)")
        partial = PartialSweep(grid=grid, completed=completed,
                               unevaluated=((0, 1),),
                               failures=(failure,))
        back = self._round_trip(partial)
        assert not back.complete
        assert back.unevaluated == ((0, 1),)
        np.testing.assert_array_equal(back.completed, completed)
        assert isinstance(back.failures[0].cause, WorkerCrashError)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------

class TestRetryPolicy:

    def test_delays_are_deterministic(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.delay(5, k) for k in range(1, 5)] == \
            [b.delay(5, k) for k in range(1, 5)]

    def test_exponential_growth_and_cap(self):
        """The first retry runs at once; backoff starts at the second."""
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        assert policy.delay("cell", 1) == 0.0
        assert policy.delay("cell", 2) == pytest.approx(0.1)
        assert policy.delay("cell", 3) == pytest.approx(0.2)
        assert policy.delay("cell", 4) == pytest.approx(0.4)
        assert policy.delay("cell", 9) == pytest.approx(0.4)  # capped

    def test_jitter_bounded_and_key_dependent(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.5)
        delays = {policy.delay(key, 2) for key in range(20)}
        assert len(delays) > 1  # jitter actually varies by key
        assert all(1.0 <= d <= 1.5 for d in delays)

    def test_gives_up(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.gives_up(1)
        assert not policy.gives_up(2)
        assert policy.gives_up(3)

    def test_zero_attempt_has_no_delay(self):
        assert RetryPolicy().delay("k", 0) == 0.0

    def test_validation(self):
        with pytest.raises(NumericalError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(NumericalError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(NumericalError):
            RetryPolicy(base_delay=-0.1)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker("eng/np", failure_threshold=3,
                                 cooldown=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("eng/np", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        breaker = CircuitBreaker("eng/np", failure_threshold=1,
                                 cooldown=0.0)
        breaker.record_failure()
        assert breaker.state == "half-open"  # cooldown already over
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # second caller still vetoed
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("eng/np", failure_threshold=1,
                                 cooldown=1000.0)
        breaker.record_failure()
        breaker._opened_at -= 2000.0  # age past the cooldown
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_threshold_validation(self):
        with pytest.raises(NumericalError):
            CircuitBreaker("k", failure_threshold=0)


class TestBreakerRegistry:

    def test_breaker_is_created_once(self):
        registry = BreakerRegistry()
        assert registry.breaker("a") is registry.breaker("a")
        assert registry.breaker("a") is not registry.breaker("b")

    def test_get_never_creates(self):
        registry = BreakerRegistry()
        assert registry.get("missing") is None
        registry.breaker("present")
        assert registry.get("present") is not None

    def test_is_open_and_reset(self):
        registry = BreakerRegistry(failure_threshold=1, cooldown=60.0)
        assert not registry.is_open("k")  # no breaker -> not open
        registry.breaker("k").record_failure()
        assert registry.is_open("k")
        registry.reset()
        assert registry.get("k") is None


def test_breaker_key_includes_engine_and_kernel():
    assert breaker_key(get_engine("sericola")) == "sericola/auto"
    pinned = get_engine("sericola", kernel="numpy")
    assert breaker_key(pinned) == "sericola/numpy"


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:

    def test_empty_spec_is_inactive(self):
        plan = FaultPlan.parse(None)
        assert not plan.active
        assert plan.fault_for(0, 0) is None

    def test_rate_selection_is_deterministic(self):
        plan = FaultPlan.parse("rate=0.5;seed=11;kinds=crash,hang")
        again = FaultPlan.parse("rate=0.5;seed=11;kinds=crash,hang")
        assert plan.faulted_cells(64) == again.faulted_cells(64)
        kinds = set(plan.faulted_cells(64).values())
        assert kinds <= {"crash", "hang"}

    def test_rate_roughly_respected(self):
        plan = FaultPlan.parse("rate=0.25;seed=0")
        n = 400
        count = len(plan.faulted_cells(n))
        assert 0.15 * n <= count <= 0.35 * n

    def test_explicit_cells_override(self):
        plan = FaultPlan.parse("crash@3,7;hang@5")
        assert plan.fault_for(3, 0) == "crash"
        assert plan.fault_for(7, 0) == "crash"
        assert plan.fault_for(5, 0) == "hang"
        assert plan.fault_for(4, 0) is None

    def test_attempts_gate(self):
        plan = FaultPlan.parse("crash@0;attempts=2")
        assert plan.fault_for(0, 0) == "crash"
        assert plan.fault_for(0, 1) == "crash"
        assert plan.fault_for(0, 2) is None  # third attempt succeeds

    def test_sleep_only_plan_is_active_but_faultless(self):
        plan = FaultPlan.parse("sleep=0.5")
        assert plan.active and plan.sleep == 0.5
        assert plan.fault_for(0, 0) is None

    def test_parse_errors(self):
        with pytest.raises(NumericalError):
            FaultPlan.parse("rate=2.0")
        with pytest.raises(NumericalError):
            FaultPlan.parse("kinds=meteor")
        with pytest.raises(NumericalError):
            FaultPlan.parse("meteor@3")
        with pytest.raises(NumericalError):
            FaultPlan.parse("crash@x")
        with pytest.raises(NumericalError):
            FaultPlan.parse("bogus")
        with pytest.raises(NumericalError):
            FaultPlan.parse("rate=abc")

    def test_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "rate=0.1;seed=3"})
        assert plan.rate == 0.1 and plan.seed == 3
        assert not FaultPlan.from_env({}).active


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------

class TestSweepCheckpoint:

    def _open(self, path, fingerprint="fp", token=("eng", 1e-9),
              times=(1.0, 2.0), rewards=(0.5,), n=3):
        indicator = np.zeros(n)
        indicator[-1] = 1.0
        return SweepCheckpoint.open(str(path), fingerprint, token,
                                    list(times), list(rewards),
                                    indicator)

    def test_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        vector = np.array([0.1, 1.0 / 3.0, np.pi * 1e-7])
        with self._open(path) as cp:
            cp.append((0, 0), vector)
        with self._open(path) as cp:
            assert (0, 0) in cp and len(cp) == 1
            grid = np.full((2, 1, 3), np.nan)
            completed = np.zeros((2, 1), dtype=bool)
            assert cp.load_into(grid, completed) == [(0, 0)]
            assert grid[0, 0].tobytes() == vector.tobytes()
            assert completed[0, 0] and not completed[1, 0]

    def test_append_deduplicates(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with self._open(path) as cp:
            cp.append((0, 0), np.zeros(3))
            cp.append((0, 0), np.ones(3))
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 2  # header + one cell

    def test_unit_rows_share_one_fsync(self, tmp_path, monkeypatch):
        import repro.exec.checkpoint as checkpoint_module
        path = tmp_path / "sweep.jsonl"
        with self._open(path) as cp:
            synced = []
            monkeypatch.setattr(checkpoint_module.os, "fsync",
                                synced.append)
            cp.extend([((0, 0), np.zeros(3)), ((1, 0), np.ones(3))])
            assert len(synced) == 1 and len(cp) == 2
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + one row per cell

    def test_cell_by_cell_file_resumes_by_unit(self, flip_flop,
                                               tmp_path, ledger):
        """A file written one cell per append (the per-cell format)
        resumes: recorded cells are served, and only units with a
        missing cell run again."""
        times, rewards = [0.5, 1.0], [0.4, 0.8, 1.2]
        engine = DiscretizationEngine(step=1.0 / 16)
        reference = engine.joint_probability_sweep(flip_flop, times,
                                                   rewards, {1})
        path = tmp_path / "cp.jsonl"
        indicator = np.array([0.0, 1.0])
        with SweepCheckpoint.open(str(path), flip_flop.fingerprint,
                                  engine._cache_token(), times, rewards,
                                  indicator) as cp:
            for cell in [(0, 0), (1, 0), (0, 1)]:
                cp.append(cell, reference[cell])
        clear_caches()
        resumed = DiscretizationEngine(step=1.0 / 16)
        misses = ledger()["cache_misses"]
        partial = resumed.joint_probability_sweep_partial(
            flip_flop, times, rewards, {1}, checkpoint=str(path))
        assert partial.complete
        assert partial.grid.tobytes() == reference.tobytes()
        # Column 0 came from the file; columns 1 and 2 ran as units.
        assert ledger()["cache_misses"] - misses == 3
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + len(times) * len(rewards)

    def test_cache_served_cells_reach_a_new_file(self, flip_flop,
                                                  tmp_path):
        """A warm sweep writes its cache-served cells to a fresh
        checkpoint, so a cold resume from that file computes nothing."""
        from repro.obs import OBS
        from repro.obs.export import engine_totals
        times, rewards = [0.5, 1.0], [0.4, 0.8, 1.2]
        engine = DiscretizationEngine(step=1.0 / 16)
        clear_caches()
        warm = engine.joint_probability_sweep(flip_flop, times, rewards,
                                              {1})
        path = str(tmp_path / "cp.jsonl")
        assert engine.joint_probability_sweep_partial(
            flip_flop, times, rewards, {1}, checkpoint=path).complete
        clear_caches()
        with OBS.capture():
            partial = DiscretizationEngine(
                step=1.0 / 16).joint_probability_sweep_partial(
                    flip_flop, times, rewards, {1}, checkpoint=path)
            misses = engine_totals(OBS.metrics)["cache_misses"]
            names = {span.name for root in OBS.tracer.roots
                     for span in root.walk()}
        assert partial.complete
        assert partial.grid.tobytes() == warm.tobytes()
        assert misses == 0
        assert "sweep_unit" not in names

    def test_identity_mismatch_raises(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._open(path).close()
        with pytest.raises(CheckpointError, match="fingerprint"):
            self._open(path, fingerprint="other")
        with pytest.raises(CheckpointError, match="engine"):
            self._open(path, token=("eng", 1e-3))
        with pytest.raises(CheckpointError, match="times"):
            self._open(path, times=(1.0, 3.0))

    def test_non_checkpoint_file_raises(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CheckpointError):
            self._open(path)
        # A cell row must never pass for the header: neither behind a
        # torn header line nor as the file's first record.
        source = tmp_path / "sweep.jsonl"
        with self._open(source) as cp:
            cp.append((0, 0), np.zeros(3))
        header, row = source.read_text().splitlines()
        for name, text in (("torn.jsonl", header[:len(header) // 2]
                            + "\n" + row + "\n"),
                           ("rows.jsonl", row + "\n" + row + "\n")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(CheckpointError):
                self._open(path)

    def test_file_bytes_are_pinned(self, tmp_path):
        """Resuming files written by earlier versions depends on these
        exact bytes."""
        path = tmp_path / "sweep.jsonl"
        with SweepCheckpoint.open(str(path), "fp", ("eng", 1e-9),
                                  [1.0, 2.0], [0.5, 0.7],
                                  np.array([0.0, 0.0, 1.0])) as cp:
            cp.extend([((0, 0), np.array([0.1, 1 / 3, math.pi])),
                       ((1, 1), np.array([1e-300, 0.0, 2.0]))])
            cp.append((0, 1), np.array([5.0, 6.0, 7.0]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ea345abb4aa1ae86e92bc65dd7ad9f8b7014734530f3e88b1dc79ae519182ff8")

    def test_open_checkpoint_is_refused(self, tmp_path):
        """Only a path is accepted: an open checkpoint would skip the
        identity check and serve another sweep's cells."""
        from repro.models import adhoc
        model = adhoc.adhoc_model()
        target = model.labels_as_dict()["call_initiated"]
        engine = get_engine("sericola", epsilon=1e-6)
        indicator = np.zeros(model.num_states)
        indicator[sorted(target)] = 1.0
        with SweepCheckpoint.open(str(tmp_path / "other.jsonl"),
                                  model.fingerprint,
                                  engine._cache_token(), [1.0, 2.0],
                                  [10.0], indicator) as other:
            other.append((0, 0), np.full(model.num_states, 0.123))
            other.append((1, 0), np.full(model.num_states, 0.456))
            with pytest.raises(TypeError):
                engine.joint_probability_sweep_partial(
                    model, [5.0, 9.0], [300.0], target,
                    checkpoint=other)
        assert len(joint_cache) == 0
        grid = engine.joint_probability_sweep(model, [5.0, 9.0],
                                              [300.0], target)
        assert not np.isin(grid, [0.123, 0.456]).any()

    def test_corrupt_and_truncated_rows_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with self._open(path) as cp:
            cp.append((0, 0), np.array([1.0, 2.0, 3.0]))
            cp.append((1, 0), np.array([4.0, 5.0, 6.0]))
        lines = path.read_text().splitlines()
        # Flip a character of the first cell's payload and truncate the
        # second mid-write, as a crash would.
        lines[1] = lines[1].replace('"data": "', '"data": "A', 1)
        lines[2] = lines[2][:len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with self._open(path) as cp:
            assert len(cp) == 0  # both rows rejected, cells recompute

    def test_out_of_range_cells_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with self._open(path) as cp:
            cp.append((1, 0), np.zeros(3))
        # Same identity except a shorter time axis: row (1, 0) is now
        # out of range -> identity mismatch is detected first, so craft
        # the row into an otherwise matching file instead.
        data_row = path.read_text().splitlines()[1]
        path2 = tmp_path / "other.jsonl"
        self._open(path2).close()
        with open(path2, "a", encoding="utf-8") as handle:
            row = data_row.replace('"cell": [1, 0]', '"cell": [9, 0]')
            handle.write(row + "\n")
        with self._open(path2) as cp:
            assert len(cp) == 0


# ----------------------------------------------------------------------
# engine spec transport
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sericola", "erlang",
                                  "discretization"])
def test_engine_spec_round_trip(name):
    """``spec()`` must rebuild an engine with the same cache identity
    -- that is what makes worker-computed cells valid cache entries."""
    engine = get_engine(name)
    spec = engine.spec()
    assert spec["engine"] == name
    rebuilt = get_engine(spec["engine"], **spec["options"])
    assert rebuilt._cache_token() == engine._cache_token()


def test_spec_survives_pickle():
    spec = get_engine("sericola", kernel="numpy").spec()
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec


# ----------------------------------------------------------------------
# executor resolution and the thread/process contract
# ----------------------------------------------------------------------

class TestResolveExecutor:

    def test_none_and_thread(self):
        assert isinstance(resolve_executor(None), ThreadShardExecutor)
        # max_workers sizes worker processes; "thread" accepts it.
        resolved = resolve_executor("thread", max_workers=2)
        assert isinstance(resolved, ThreadShardExecutor)

    def test_process(self):
        resolved = resolve_executor("process", max_workers=2)
        assert isinstance(resolved, ProcessShardExecutor)
        assert resolved.max_workers == 2

    def test_instance_passes_through(self):
        executor = ThreadShardExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_raises(self):
        with pytest.raises(NumericalError, match="unknown executor"):
            resolve_executor("carrier-pigeon")


class TestProcessExecutor:

    TIMES = [0.5, 1.0, 2.0]
    REWARDS = [0.4, 1.2]

    def _reference(self, model):
        engine = get_engine("sericola")
        partial = engine.joint_probability_sweep_partial(
            model, self.TIMES, self.REWARDS, {1})
        assert partial.complete
        return partial.grid

    def test_bit_identical_to_thread_path(self, flip_flop):
        reference = self._reference(flip_flop)
        clear_caches()
        engine = get_engine("sericola")
        partial = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1},
            executor="process")
        assert partial.complete
        assert partial.grid.tobytes() == reference.tobytes()

    def test_results_populate_the_shared_cache(self, flip_flop, ledger):
        engine = get_engine("sericola")
        engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1},
            executor="process")
        before = ledger()
        vector = engine.joint_probability_vector(
            flip_flop, self.TIMES[0], self.REWARDS[0], {1})
        assert vector is not None
        assert ledger()["cache_hits"] == before["cache_hits"] + 1

    def test_checkpoint_resume_skips_computation(self, flip_flop,
                                                 tmp_path):
        path = str(tmp_path / "cp.jsonl")
        engine = get_engine("sericola")
        first = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1},
            executor="process", checkpoint=path)
        assert first.complete
        clear_caches()
        executor = ProcessShardExecutor()
        second = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1},
            executor=executor, checkpoint=path)
        assert second.complete
        assert second.grid.tobytes() == first.grid.tobytes()
        assert executor.restarts == 0 and executor.retries == 0

    def test_thread_path_checkpoint(self, flip_flop, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        engine = get_engine("sericola")
        first = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1}, checkpoint=path)
        assert first.complete
        clear_caches()
        second = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1}, checkpoint=path)
        assert second.complete
        assert second.grid.tobytes() == first.grid.tobytes()

    def test_closed_executor_refuses_work(self, flip_flop):
        executor = ProcessShardExecutor()
        executor.close()
        engine = get_engine("sericola")
        with pytest.raises(NumericalError, match="closed"):
            engine.joint_probability_sweep_partial(
                flip_flop, self.TIMES, self.REWARDS, {1},
                executor=executor)

    def test_open_breaker_vetoes_the_run(self, flip_flop):
        engine = get_engine("sericola")
        breaker = BREAKERS.breaker(breaker_key(engine))
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        partial = engine.joint_probability_sweep_partial(
            flip_flop, self.TIMES, self.REWARDS, {1},
            executor="process")
        assert not partial.complete
        assert len(partial.unevaluated) == \
            len(self.TIMES) * len(self.REWARDS)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
    def test_heartbeat_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(NumericalError, match="heartbeat_timeout"):
            ProcessShardExecutor(heartbeat_timeout=timeout)

    def test_spawned_workers_match_the_shared_sweep(self, monkeypatch):
        """Where ``fork`` is unavailable workers are spawned, so the
        sweep reaches them pickled in their ``Process`` arguments."""
        import multiprocessing

        from tests.exec_sweep_driver import (REWARDS, TARGET, TIMES,
                                             build_model)
        engine = get_engine("sericola")
        reference = engine.joint_probability_sweep(
            build_model(), TIMES, REWARDS, TARGET)
        clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_all_start_methods",
                          lambda: ["spawn"])
            executor = ProcessShardExecutor(max_workers=2)
        assert executor._context.get_start_method() == "spawn"
        partial = engine.joint_probability_sweep_partial(
            build_model(), TIMES, REWARDS, TARGET, executor=executor)
        assert partial.complete
        assert partial.grid.tobytes() == reference.tobytes()


def test_checker_sweep_executor_pass_through(flip_flop):
    """The mc layer reaches the executor: grids agree bit for bit."""
    from repro.mc.checker import ModelChecker
    checker = ModelChecker(flip_flop)
    reference = checker.until_probability_sweep(
        "up", "down", [0.5, 1.0], [0.3, 0.9])
    clear_caches()
    via_process = checker.until_probability_sweep(
        "up", "down", [0.5, 1.0], [0.3, 0.9], executor="process")
    assert via_process.tobytes() == reference.tobytes()
