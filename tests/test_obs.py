"""Tests for the :mod:`repro.obs` observability layer.

Covers the tracer/metrics units, the series facts on their spans, the
JSON-lines round-trip, the worker-span attachment of the thread
executor, both executors' deadline-missed counter, the engine-counter
ledger
-- and the two bit-identity guarantees: observability on vs off never
changes engine outputs, and the disabled instrumentation path stays
within noise on the Table-4 reference query.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.exec import ProcessShardExecutor, ThreadShardExecutor
from repro.exec.executor import remaining
from repro.mc.checker import ModelChecker
from repro.obs import OBS, REGISTRY, count_engine, span
from repro.obs.export import (build_tree, cache_hit_ratios, parse_jsonl,
                              record_shape, render_profile, span_shape,
                              write_jsonl)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with observability off and empty."""
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()
    yield
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()


# ----------------------------------------------------------------------
# tracer


class TestTracer:
    def test_nesting_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        roots = list(tracer.roots)
        assert [s.name for s in roots] == ["outer"]
        child, = roots[0].children
        assert child.name == "inner"
        assert child.parent_id == roots[0].span_id
        assert roots[0].wall_seconds >= child.wall_seconds >= 0.0

    def test_cross_thread_parent(self):
        tracer = Tracer()
        with tracer.span("sweep") as parent:
            def work():
                with tracer.span("worker", parent=parent):
                    pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        root, = tracer.roots
        assert [c.name for c in root.children] == ["worker"]

    def test_exception_recorded(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        root, = tracer.roots
        assert "error" in root.attributes
        assert root.wall_seconds is not None

    def test_span_helper_disabled_is_noop(self):
        assert not OBS.enabled
        with span("ignored") as handle:
            handle.set(key="value")
        assert list(OBS.tracer.roots) == []


# ----------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", engine="x")
        counter.inc()
        counter.inc(4)
        assert registry.counter("hits_total", engine="x").value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_update_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.update_max(10)
        gauge.update_max(3)
        assert gauge.value == 10

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds")
        for value in (1e-4, 2e-4, 0.5):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["max"] == 0.5
        assert summary["sum"] == pytest.approx(0.5003)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", engine="e").inc(2)
        registry.histogram("h_seconds").observe(0.01)
        text = registry.render_prometheus()
        assert '# TYPE c_total counter' in text
        assert 'c_total{engine="e"} 2' in text
        assert 'le="+Inf"' in text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total",
                         path='a\\b"c\nd').inc()
        text = registry.render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\nd" not in text.replace('\\nd', '')

    def test_prometheus_histogram_invariants(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 50.0):  # one beyond every bound
            histogram.observe(value)
        text = registry.render_prometheus()
        lines = text.splitlines()
        buckets = [line for line in lines
                   if line.startswith("h_seconds_bucket")]
        # Cumulative buckets end at +Inf == _count; _sum is exact.
        assert buckets[-1] == 'h_seconds_bucket{le="+Inf"} 3'
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert "h_seconds_count 3" in lines
        sum_line, = [line for line in lines
                     if line.startswith("h_seconds_sum")]
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(
            50.55)

    def test_type_conflict_across_merge(self):
        registry = MetricsRegistry()
        registry.counter("thing").inc()
        foreign = MetricsRegistry()
        foreign.gauge("thing").update_max(3)
        with pytest.raises(ValueError):
            registry.merge(foreign.export_state())
        with pytest.raises(ValueError):
            registry.merge([{"name": "thing", "type": "sundial",
                             "labels": [], "value": 1.0}])

    def test_count_engine(self):
        count_engine("sericola", cache_hits=2, matvec_count=7)
        assert REGISTRY.snapshot() == {}  # observability off: no-op
        with OBS.capture():
            count_engine("sericola", cache_hits=2, matvec_count=7,
                         cache_misses=0)
        snapshot = REGISTRY.snapshot()
        label = '{engine="sericola"}'
        assert snapshot["repro_engine_cache_hits_total"][label] == 2
        assert snapshot["repro_engine_matvec_total"][label] == 7
        assert "repro_engine_cache_misses_total" not in snapshot
        assert cache_hit_ratios(REGISTRY) == {"sericola": (2, 0)}


class TestSeriesSpans:
    """What a series loop reached is set on its span when it ends."""

    def test_sericola_series_sweep_carries_residual(self, flip_flop):
        clear_caches()
        engine = SericolaEngine()
        with OBS.capture():
            ModelChecker(flip_flop, engine=engine).check(
                "P>0.5 [ up U[0,1][0,1] down ]")
            sweeps = [s for s in OBS.tracer.spans()
                      if s.name == "series_sweep"]
        assert sweeps
        for sweep in sweeps:
            attrs = sweep.attributes
            assert 0.0 <= attrs["residual"] <= engine.epsilon
            # The checker made ``down`` absorbing: only ``up`` exits.
            assert attrs["rate"] == 1.0
            assert attrs["steps"] <= attrs["depth"]

    @pytest.mark.parametrize("detection", [True, False])
    def test_uniformisation_steps_stop_at_steady_state(self, flip_flop,
                                                       detection):
        from repro.numerics.uniformization import transient_distribution
        with OBS.capture():
            transient_distribution(flip_flop, 200.0,
                                   steady_state_detection=detection)
            series, = [s for s in OBS.tracer.spans()
                       if s.name == "uniformisation_series"]
        attrs = series.attributes
        assert attrs["rate"] == flip_flop.max_exit_rate
        assert 0.0 <= attrs["residual"] <= 1.0
        if detection:
            assert attrs["steps"] < attrs["depth"]
        else:
            assert attrs["steps"] == attrs["depth"]
            assert attrs["residual"] == 0.0


class TestColdImport:
    def test_cli_import_leaves_http_server_out(self):
        # A fresh interpreter: this test process has long loaded it.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import sys, repro.cli; "
                "sys.exit('http.server' in sys.modules)")
        completed = subprocess.run([sys.executable, "-c", code],
                                   env=env, capture_output=True,
                                   text=True)
        assert completed.returncode == 0, completed.stderr


# ----------------------------------------------------------------------
# JSON-lines round trip


class TestJsonlRoundTrip:
    def test_shape_survives_disk(self, flip_flop, tmp_path):
        clear_caches()
        with OBS.capture():
            checker = ModelChecker(flip_flop)
            checker.check("P>0.5 [ up U[0,1][0,3] down ]")
        path = tmp_path / "trace.jsonl"
        write_jsonl(OBS.tracer.spans(), str(path))
        records = parse_jsonl(path.read_text())
        assert records, "capture produced no spans"
        live_shape = span_shape(list(OBS.tracer.roots))
        disk_shape = record_shape(build_tree(records))
        assert disk_shape == live_shape
        names = {record["name"] for record in records}
        assert "check" in names
        assert "joint_vector" in names

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_jsonl("not json at all")
        with pytest.raises(ValueError):
            parse_jsonl(json.dumps({"no": "span fields"}))


# ----------------------------------------------------------------------
# bit-identity: observability must never change results


def _engines():
    return [SericolaEngine(epsilon=1e-8),
            ErlangEngine(phases=32),
            DiscretizationEngine(step=1.0 / 16)]


class TestBitIdentical:
    @pytest.mark.parametrize("engine", _engines(),
                             ids=lambda e: e.name)
    def test_vector_and_sweep(self, flip_flop, engine):
        clear_caches()
        baseline = engine.joint_probability_vector(
            flip_flop, 2.0, 3.0, [1])
        grid_baseline = engine.joint_probability_sweep(
            flip_flop, [1.0, 2.0], [1.0, 3.0], [1])
        clear_caches()
        with OBS.capture():
            observed = engine.joint_probability_vector(
                flip_flop, 2.0, 3.0, [1])
            grid_observed = engine.joint_probability_sweep(
                flip_flop, [1.0, 2.0], [1.0, 3.0], [1])
        assert np.array_equal(baseline, observed)
        assert np.array_equal(np.asarray(grid_baseline),
                              np.asarray(grid_observed))

    @settings(max_examples=10, deadline=None)
    @given(t=st.floats(min_value=0.25, max_value=4.0),
           r=st.floats(min_value=0.25, max_value=6.0))
    def test_property_sericola(self, t, r):
        from repro.ctmc import ModelBuilder
        builder = ModelBuilder()
        builder.add_state("up", labels=("up",), reward=2.0)
        builder.add_state("down", labels=("down",), reward=0.0)
        builder.add_transition("up", "down", 1.0)
        builder.add_transition("down", "up", 3.0)
        model = builder.build(initial_state="up")
        engine = SericolaEngine(epsilon=1e-8)
        clear_caches()
        baseline = engine.joint_probability_vector(model, t, r, [1])
        clear_caches()
        with OBS.capture():
            observed = engine.joint_probability_vector(model, t, r, [1])
        OBS.disable()
        OBS.reset()
        REGISTRY.reset()
        assert np.array_equal(baseline, observed)


class TestOverheadGuard:
    def test_disabled_span_helper_is_cheap(self):
        assert not OBS.enabled
        start = time.perf_counter()
        for _ in range(200_000):
            with span("x"):
                pass
        elapsed = time.perf_counter() - start
        # One flag check and a shared no-op context: generous CI bound.
        assert elapsed < 1.0, f"disabled span() too slow: {elapsed:.3f}s"

    def test_table4_reference_query(self, adhoc_reduced):
        """Disabled-path cost within noise on the Table-4 query."""
        from repro.models.adhoc import Q3_REWARD_BOUND, Q3_TIME_BOUND
        engine = DiscretizationEngine(step=1.0 / 32)
        goal = [adhoc_reduced.goal_state]
        model = adhoc_reduced.model

        def run():
            clear_caches()
            start = time.perf_counter()
            value = engine.joint_probability_vector(
                model, Q3_TIME_BOUND, Q3_REWARD_BOUND, goal)
            return value, time.perf_counter() - start

        run()  # warm-up: imports, sparse-group construction paths
        baseline, disabled_seconds = run()
        with OBS.capture():
            observed, enabled_seconds = run()
        assert np.array_equal(baseline, observed)
        # The disabled path must not cost more than the fully-enabled
        # one (plus scheduling noise) -- it does strictly less work.
        assert disabled_seconds <= enabled_seconds * 1.5 + 0.05, (
            f"disabled {disabled_seconds:.3f}s vs "
            f"enabled {enabled_seconds:.3f}s")


# ----------------------------------------------------------------------
# executor integration


class TestParallelObservability:
    def test_remaining(self):
        assert remaining(None) == math.inf
        assert remaining(time.monotonic() + 5.0) == pytest.approx(
            5.0, abs=0.5)
        assert remaining(time.monotonic() - 1.0) <= 0.0

    @staticmethod
    def _expired_sweep(flip_flop):
        """A three-column (three-unit) sweep whose deadline passed."""
        return ThreadShardExecutor().run(
            DiscretizationEngine(step=1.0 / 8), flip_flop, [1.0],
            [1.0, 2.0, 4.0], {1}, deadline=time.monotonic() - 1.0)

    @staticmethod
    def _faulted_process_sweep(flip_flop):
        """The same three units on one worker process whose first
        attempt returns a corrupt result 0.4 s in, after the 0.2 s
        deadline: the unit can neither be retried nor finished."""
        return ProcessShardExecutor(
            max_workers=1, faults="corrupt@0;sleep=0.4").run(
            DiscretizationEngine(step=1.0 / 8), flip_flop, [1.0],
            [1.0, 2.0, 4.0], {1}, deadline=time.monotonic() + 0.2)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_deadline_missed_counter(self, executor, flip_flop):
        REGISTRY.reset()
        clear_caches()
        if executor == "process":
            partial = self._faulted_process_sweep(flip_flop)
        else:
            partial = self._expired_sweep(flip_flop)
        missed = REGISTRY.snapshot().get(
            "repro_deadline_missed_total", {}).get("", 0)
        done = int(partial.completed.any(axis=0).sum())
        assert done + len(partial.failures) + missed == 3
        assert missed > 0 or done == 3  # at least recorded when skipped

    def test_sequential_deadline_counts_all_skipped(self, flip_flop):
        REGISTRY.reset()
        clear_caches()
        self._expired_sweep(flip_flop)
        missed = REGISTRY.snapshot()["repro_deadline_missed_total"][""]
        assert missed == 3


# ----------------------------------------------------------------------
# profile rendering


class TestRenderProfile:
    def test_sections_present(self, flip_flop):
        clear_caches()
        with OBS.capture():
            checker = ModelChecker(flip_flop)
            # r < t * max reward keeps the reward bound binding, so the
            # Sericola series (and its series_sweep span) actually runs.
            checker.check("P>0.5 [ up U[0,1][0,1] down ]")
        report = render_profile(OBS.tracer, OBS.metrics)
        assert "== span tree ==" in report
        assert "check" in report
        assert "== cache ==" in report
        assert "== counters & gauges ==" in report
        sweep_line, = [line for line in report.splitlines()
                       if "series_sweep [" in line]
        assert "residual=" in sweep_line
