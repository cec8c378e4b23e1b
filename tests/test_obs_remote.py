"""Cross-process observability: snapshot/merge, flight recorder, HTTP.

Exercises the PR's wire layer end to end: the picklable
``export_state``/``merge`` pair on :class:`MetricsRegistry`, the span
``export_segments``/``adopt_segments`` round trip, the assembled
telemetry payloads of :mod:`repro.obs.remote`, the fsynced
:class:`FlightRecorder` sidecars, the :class:`ResourceSampler`
timelines, the ``/metrics`` endpoint -- and the two system-level
contracts: a process-executor sweep merges to the *same* engine
counters as a threaded run of the same grid, and observability
on/off never changes the grid bit-for-bit.
"""

from __future__ import annotations

import json
import os
import urllib.request

import numpy as np
import pytest

from repro.algorithms import DiscretizationEngine, clear_caches
from repro.ctmc import MarkovRewardModel
from repro.exec import ProcessShardExecutor
from repro.exec.executor import SweepProgress
from repro.obs import OBS, REGISTRY
from repro.obs.httpd import CONTENT_TYPE, serve_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, ResourceSampler
from repro.obs.remote import (ROLLUP_METRICS, export_telemetry,
                              merge_telemetry)
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def clean_observability():
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()
    clear_caches()
    yield
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()
    clear_caches()


def two_state_model() -> MarkovRewardModel:
    rates = np.array([[0.0, 1.0], [2.0, 0.0]])
    return MarkovRewardModel(rates, rewards=[1.0, 0.0])


# ----------------------------------------------------------------------
# registry export/merge


class TestExportMerge:
    def test_round_trip_counters_gauges(self):
        source = MetricsRegistry()
        source.counter("a_total", engine="x").inc(3)
        source.gauge("depth").update_max(7)
        target = MetricsRegistry()
        target.counter("a_total", engine="x").inc(2)
        target.merge(source.export_state())
        assert target.counter("a_total", engine="x").value == 5
        assert target.gauge("depth").value == 7

    def test_extra_labels_override(self):
        source = MetricsRegistry()
        source.gauge("rss", worker="main").update_max(100)
        target = MetricsRegistry()
        target.merge(source.export_state(),
                     extra_labels={"worker": "process-3"})
        assert target.gauge("rss", worker="process-3").value == 100
        snapshot = target.snapshot()
        assert list(snapshot["rss"]) == ['{worker="process-3"}']

    def test_gauge_merge_keeps_maximum(self):
        source = MetricsRegistry()
        source.gauge("rss").update_max(10)
        target = MetricsRegistry()
        target.gauge("rss").update_max(50)
        target.merge(source.export_state())
        assert target.gauge("rss").value == 50

    def test_histogram_merge_adds_buckets(self):
        source = MetricsRegistry()
        source.histogram("lat_seconds").observe(0.01)
        source.histogram("lat_seconds").observe(3.0)
        target = MetricsRegistry()
        target.histogram("lat_seconds").observe(0.02)
        target.merge(source.export_state())
        merged = target.histogram("lat_seconds")
        assert merged.count == 3
        assert merged.sum == pytest.approx(3.03)
        assert merged.min == pytest.approx(0.01)
        assert merged.max == pytest.approx(3.0)
        # Bucket invariant: totals across buckets equal the count.
        assert sum(merged.counts) == merged.count

    def test_histogram_bounds_mismatch_rejected(self):
        source = MetricsRegistry()
        source.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        target = MetricsRegistry()
        target.histogram("h", bounds=(0.5, 5.0)).observe(1.0)
        with pytest.raises(ValueError):
            target.merge(source.export_state())

    def test_type_conflict_across_merge_rejected(self):
        source = MetricsRegistry()
        source.counter("thing").inc()
        target = MetricsRegistry()
        target.gauge("thing").update_max(1)
        with pytest.raises(ValueError):
            target.merge(source.export_state())


# ----------------------------------------------------------------------
# span segment export / adoption


class TestSegments:
    def test_adopt_reparents_under_given_span(self):
        worker = Tracer()
        with worker.span("joint_vector", engine="disc"):
            with worker.span("series"):
                pass
        segments = worker.export_segments(clear=True)
        assert not worker.roots

        parent = Tracer()
        with parent.span("process_sweep") as sweep:
            pass
        tops = parent.adopt_segments(segments, parent=sweep)
        assert [top.name for top in tops] == ["joint_vector"]
        assert tops[0].parent_id == sweep.span_id
        assert [c.name for c in tops[0].children] == ["series"]
        # Foreign ids never leak into the adopting tracer.
        adopted_ids = {s.span_id for s in tops[0].walk()}
        assert sweep.span_id not in adopted_ids

    def test_export_limit_prunes_not_corrupts(self):
        worker = Tracer()
        for index in range(6):
            with worker.span("cell", index=index):
                with worker.span("inner"):
                    pass
        segments = worker.export_segments(limit=3)
        parent = Tracer()
        tops = parent.adopt_segments(segments)
        # Truncated records with a dropped parent become roots, and
        # every surviving parent/child edge is intact.
        assert len(segments) == 3
        for top in tops:
            for span in top.walk():
                for child in span.children:
                    assert child.parent_id == span.span_id

    def test_export_without_clear_is_repeatable(self):
        worker = Tracer()
        with worker.span("a"):
            pass
        first = worker.export_segments(clear=False)
        second = worker.export_segments(clear=False)
        assert [r["name"] for r in first] == ["a"]
        assert first == second


# ----------------------------------------------------------------------
# assembled telemetry payloads


class TestTelemetryPayload:
    def test_export_resets_sources_and_drops_rollups(self):
        registry = MetricsRegistry()
        registry.counter("repro_engine_matvec_total",
                         engine="disc").inc(4)
        registry.gauge("repro_peak_rss_bytes_max").update_max(123)
        tracer = Tracer()
        with tracer.span("joint_vector"):
            pass
        payload = export_telemetry(registry, tracer=tracer)
        names = {entry["name"] for entry in payload["metrics"]}
        assert "repro_engine_matvec_total" in names
        assert not names & ROLLUP_METRICS
        assert [s["name"] for s in payload["segments"]] == [
            "joint_vector"]
        # reset=True: the next export is a pure delta (empty here).
        empty = export_telemetry(registry, tracer=tracer)
        assert empty["metrics"] == [] and empty["segments"] == []

    def test_payload_holds_metrics_and_spans_only(self):
        payload = export_telemetry(MetricsRegistry(), tracer=Tracer())
        assert set(payload) == {"metrics", "segments"}

    def test_merge_labels_and_rollup(self):
        worker = MetricsRegistry()
        worker.counter("repro_engine_matvec_total",
                       engine="disc").inc(4)
        worker.gauge("repro_peak_rss_bytes",
                     worker="main").update_max(2048)
        payload = export_telemetry(worker)
        parent = MetricsRegistry()
        merge_telemetry(payload, parent, worker="process-0")
        assert parent.counter("repro_engine_matvec_total",
                              engine="disc",
                              worker="process-0").value == 4
        # The worker's self-label is overridden; the roll-up gauge is
        # derived on the parent side, never shipped.
        assert parent.gauge("repro_peak_rss_bytes",
                            worker="process-0").value == 2048
        assert parent.gauge("repro_peak_rss_bytes_max").value == 2048


# ----------------------------------------------------------------------
# flight recorder


class TestFlightRecorder:
    def test_record_and_read_tail(self, tmp_path):
        path = str(tmp_path / "worker-0.jsonl")
        with FlightRecorder(path) as recorder:
            for index in range(5):
                recorder.record("task_start", cell=index)
        tail = FlightRecorder.read_tail(path, limit=3)
        assert [event["cell"] for event in tail] == [2, 3, 4]
        assert all(event["kind"] == "task_start" for event in tail)
        assert all("ts" in event for event in tail)

    def test_read_tail_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "worker-1.jsonl"
        path.write_text('{"kind": "a", "ts": 1}\n'
                        '{"kind": "b", "ts"\n'      # mid-write kill
                        '[1, 2]\n'                  # not an event
                        '{"kind": "c", "ts": 3}\n')
        tail = FlightRecorder.read_tail(str(path))
        assert [event["kind"] for event in tail] == ["a", "c"]

    def test_read_tail_missing_file_is_empty(self, tmp_path):
        assert FlightRecorder.read_tail(
            str(tmp_path / "nope.jsonl")) == ()


# ----------------------------------------------------------------------
# resource sampler


class TestResourceSampler:
    def test_sample_once_and_timelines(self):
        registry = MetricsRegistry()
        sampler = ResourceSampler(interval=10.0, registry=registry)
        sampler.watch("main", os.getpid())
        sampler.watch("ghost", 2 ** 22 + 12345)  # vanished pid
        samples = sampler.sample_once()
        assert "main" in samples
        _, rss, cpu = samples["main"]
        assert rss > 0 and cpu >= 0.0
        assert "ghost" not in samples
        assert len(sampler.timelines()["main"]) == 1
        assert sampler.latest()["main"][1] == rss
        assert registry.gauge("repro_peak_rss_bytes",
                              worker="main").value >= rss
        sampler.unwatch("main")
        assert "main" not in sampler.sample_once()


# ----------------------------------------------------------------------
# /metrics endpoint


class TestMetricsEndpoint:
    def test_scrape_serves_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("repro_engine_matvec_total",
                         engine="disc").inc(7)
        with serve_metrics(registry) as server:
            for path in ("/metrics", "/"):
                with urllib.request.urlopen(
                        server.url.rsplit("/metrics", 1)[0] + path,
                        timeout=5) as response:
                    assert response.status == 200
                    content_type = response.headers["Content-Type"]
                    body = response.read().decode("utf-8")
                assert content_type == CONTENT_TYPE
                assert ("repro_engine_matvec_total"
                        '{engine="disc"} 7') in body
                assert "# TYPE repro_engine_matvec_total counter" in body

    def test_scrape_is_live(self):
        registry = MetricsRegistry()
        with serve_metrics(registry) as server:
            registry.counter("late_total").inc()

            with urllib.request.urlopen(server.url, timeout=5) as r:
                assert b"late_total 1" in r.read()

    def test_unknown_path_is_404(self):
        with serve_metrics(MetricsRegistry()) as server:
            request = urllib.request.Request(
                server.url.replace("/metrics", "/nope"))
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=5)
            assert info.value.code == 404


# ----------------------------------------------------------------------
# progress snapshot rendering


class TestSweepProgress:
    def test_render(self):
        snapshot = SweepProgress(
            done=12, total=20, failed=1, pending=2, elapsed=9.23,
            rate=1.3, eta_seconds=6.2,
            workers={0: "idle", 1: "cell(1,2)"},
            open_breakers=("sweep:sericola",),
            rss_bytes={"main": 113_000_000})
        line = snapshot.render()
        assert "12/20 cells (60%)" in line
        assert "1 failed" in line
        assert "1.30 cells/s" in line
        assert "eta 6s" in line
        assert "w0:idle" in line and "w1:cell(1,2)" in line
        assert "breakers open: sweep:sericola" in line
        assert "rss 113MB" in line

    def test_render_degenerate(self):
        line = SweepProgress(done=0, total=0, failed=0, pending=0,
                             elapsed=0.0, rate=0.0, eta_seconds=None,
                             workers={}, open_breakers=(),
                             rss_bytes={}).render()
        assert "0/0 cells" in line
        assert "eta --" in line


# ----------------------------------------------------------------------
# system-level contracts through the process executor


GRID_TIMES = [0.5, 1.0]
GRID_REWARDS = [0.2, 0.4]
GRID_TARGET = [0]


def _engine():
    return DiscretizationEngine(step=1.0 / 16)


def _counter_sums(registry) -> dict:
    """Per-name counter totals summed over all label sets."""
    sums: dict = {}
    for name, family in registry.snapshot().items():
        if not name.startswith("repro_engine_") or not \
                name.endswith("_total"):
            continue
        sums[name] = sum(family.values())
    return sums


class TestProcessAggregation:
    def test_thread_and_process_counters_agree(self):
        model = two_state_model()
        clear_caches()
        with OBS.capture():
            threaded = _engine().joint_probability_sweep_partial(
                model, GRID_TIMES, GRID_REWARDS, GRID_TARGET)
            assert threaded.complete
            thread_sums = _counter_sums(OBS.metrics)
        OBS.reset()
        REGISTRY.reset()
        clear_caches()
        with OBS.capture():
            executor = ProcessShardExecutor(max_workers=2)
            process = _engine().joint_probability_sweep_partial(
                model, GRID_TIMES, GRID_REWARDS, GRID_TARGET,
                executor=executor)
            assert process.complete
            process_sums = _counter_sums(OBS.metrics)
            snapshot = OBS.metrics.snapshot()
            roots = list(OBS.tracer.roots)
        assert np.array_equal(np.asarray(threaded.grid),
                              np.asarray(process.grid))
        assert thread_sums and process_sums == thread_sums
        # Worker-labelled RSS gauges plus the unlabelled roll-up.
        rss = snapshot["repro_peak_rss_bytes"]
        assert any('worker="process-' in label for label in rss)
        assert snapshot["repro_peak_rss_bytes_max"][""] >= max(
            rss.values())
        # A single coherent span tree: workers under process_sweep.
        sweeps = [r for r in roots if r.name == "process_sweep"]
        assert len(sweeps) == 1
        worker_spans = [c for c in sweeps[0].children
                        if c.name == "worker"]
        assert worker_spans
        assert any(c.name == "sweep_unit"
                   for w in worker_spans for c in w.children)

    def test_process_series_spans_keep_residuals(self):
        from repro.algorithms import SericolaEngine
        from tests.exec_sweep_driver import (REWARDS, TARGET, TIMES,
                                             build_model)
        clear_caches()
        with OBS.capture():
            partial = SericolaEngine().joint_probability_sweep_partial(
                build_model(), TIMES, REWARDS, TARGET,
                executor=ProcessShardExecutor(max_workers=2))
            assert partial.complete
            roots = list(OBS.tracer.roots)
        sweep, = [r for r in roots if r.name == "process_sweep"]
        series = [s for w in sweep.children if w.name == "worker"
                  for s in w.walk() if s.name == "series_sweep"]
        assert series
        assert all("residual" in s.attributes for s in series)

    def test_obs_off_grid_bit_identical(self):
        model = two_state_model()
        clear_caches()
        baseline = _engine().joint_probability_sweep_partial(
            model, GRID_TIMES, GRID_REWARDS, GRID_TARGET)
        clear_caches()
        through_executor = _engine().joint_probability_sweep_partial(
            model, GRID_TIMES, GRID_REWARDS, GRID_TARGET,
            executor=ProcessShardExecutor(max_workers=2))
        assert np.array_equal(np.asarray(baseline.grid),
                              np.asarray(through_executor.grid))
        # Observability stayed off: no spans, no merged registry.
        assert not OBS.tracer.roots
        assert REGISTRY.snapshot().get("repro_engine_matvec_total",
                                       {}) == {}

    def test_process_span_shape_matches_golden(self):
        """The re-parented process-sweep span tree has a pinned shape.

        Regenerate the golden after an intentional instrumentation
        change with::

            PYTHONPATH=src:. python - <<'PY'
            import json
            from repro.algorithms import DiscretizationEngine
            from repro.exec import ProcessShardExecutor
            from repro.obs import OBS
            from repro.obs.export import span_shape
            from tests.exec_sweep_driver import (REWARDS, TARGET,
                                                 TIMES, build_model)
            with OBS.capture():
                DiscretizationEngine(
                    step=1.0 / 16).joint_probability_sweep_partial(
                    build_model(), TIMES, REWARDS, TARGET,
                    executor=ProcessShardExecutor(max_workers=2))
                shape = span_shape(list(OBS.tracer.roots))
            with open("tests/golden/profile_shape_process.json",
                      "w") as fh:
                json.dump(shape, fh, indent=2)
                fh.write("\\n")
            PY
        """
        from pathlib import Path

        from repro.obs.export import span_shape
        from tests.exec_sweep_driver import (REWARDS, TARGET, TIMES,
                                             build_model)
        golden = Path(__file__).resolve().parent / "golden" / \
            "profile_shape_process.json"
        clear_caches()
        with OBS.capture():
            partial = DiscretizationEngine(
                step=1.0 / 16).joint_probability_sweep_partial(
                build_model(), TIMES, REWARDS, TARGET,
                executor=ProcessShardExecutor(max_workers=2))
            assert partial.complete
            shape = span_shape(list(OBS.tracer.roots))
        assert shape == json.loads(golden.read_text())

    def test_progress_callback_fires(self):
        model = two_state_model()
        clear_caches()
        snapshots = []
        executor = ProcessShardExecutor(
            max_workers=2, progress=snapshots.append)
        partial = _engine().joint_probability_sweep_partial(
            model, GRID_TIMES, GRID_REWARDS, GRID_TARGET,
            executor=executor)
        assert partial.complete
        assert snapshots
        final = snapshots[-1]
        assert final.done == final.total == len(GRID_TIMES) * len(
            GRID_REWARDS)
        assert final.render()
        # The parent's own timeline was kept for post-run inspection.
        assert "main" in executor.last_timelines
