"""``repro.obs`` -- zero-dependency observability for the checker.

The package is standard library only and imports nothing from the rest
of :mod:`repro`, so every layer (algorithms, numerics, mc, cli,
benchmarks) can depend on it without cycles.

Two module-level objects carry all state:

``REGISTRY``
    The process-wide :class:`~repro.obs.metrics.MetricsRegistry`.
    *Always on*: recording a counter is cheap enough that operational
    facts (``repro_deadline_missed_total``) are never silently lost,
    even with tracing disabled.

``OBS``
    The :class:`Observability` switchboard: an :attr:`enabled` flag,
    a :class:`~repro.obs.trace.Tracer` and a reference to
    ``REGISTRY``.  The flag gates everything *expensive* -- spans,
    timing histograms, the engine work counters -- so the disabled
    path costs one attribute load at each instrumentation point.

Those are the two stores: what a run decided or reached (a kernel, a
series' depth and leftover Poisson mass) is an attribute of the span
that did the work, and what it counted is a metric.

Instrumented code uses the two helpers::

    from repro.obs import OBS, span

    with span("joint_vector", engine=self.name) as sp:
        ...
        sp.set(cache_hit=True)

:func:`span` returns a real tracer span when enabled and a shared
no-op context otherwise, so call sites stay branch-free.  Whole-run
capture (CLI ``--profile``, tests) uses :meth:`Observability.capture`.
The live ``/metrics`` endpoint lives in :mod:`repro.obs.httpd` and is
imported from there, so a plain ``import repro.obs`` does not load
``http.server``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .metrics import (DEFAULT_BUCKETS, ENGINE_COUNTERS, Counter, Gauge,
                      Histogram, MetricsRegistry, peak_rss_bytes)
from .recorder import FlightRecorder, ResourceSampler
from .remote import export_telemetry, merge_telemetry
from .trace import _CURRENT, Span, Tracer

__all__ = [
    "OBS", "REGISTRY", "Observability", "span", "annotate",
    "Tracer", "Span", "MetricsRegistry", "Counter", "Gauge",
    "Histogram", "DEFAULT_BUCKETS", "ENGINE_COUNTERS", "count_engine",
    "peak_rss_bytes", "FlightRecorder", "ResourceSampler",
    "export_telemetry", "merge_telemetry",
]

#: Process-wide metrics registry -- always on (see module docstring).
REGISTRY = MetricsRegistry()


class _NullSpan:
    """Inert stand-in handed out while observability is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Observability:
    """The switchboard: one flag, one tracer, the registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        #: Master switch read (unlocked) on every hot path.
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = registry if registry is not None else REGISTRY
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded spans (metrics stay -- the registry has its
        own :meth:`~MetricsRegistry.reset`)."""
        self.tracer.clear()

    @contextmanager
    def capture(self, reset_metrics: bool = True) -> Iterator["Observability"]:
        """Enable observability for a block, starting from a clean slate.

        Used by the CLI ``--profile`` path and the tests: clears the
        tracer (and, by default, the metrics registry),
        flips :attr:`enabled` on, and restores the previous flag on
        exit -- the captured spans/metrics stay readable afterwards.
        Serialised by a lock so two captures cannot interleave.
        """
        with self._lock:
            previous = self.enabled
            self.reset()
            if reset_metrics:
                self.metrics.reset()
            self.enabled = True
            try:
                yield self
            finally:
                self.enabled = previous


#: The process-wide switchboard used by all instrumentation points.
OBS = Observability()


def span(name: str, parent: Any = _CURRENT, **attributes: Any) -> Any:
    """A tracer span when :attr:`OBS.enabled`, else a shared no-op.

    Call sites use this unconditionally -- the disabled path costs one
    flag check and returns a singleton whose ``__enter__``/``set`` are
    inert, keeping hot loops branch-free and allocation-free.
    """
    if OBS.enabled:
        return OBS.tracer.span(name, parent=parent, **attributes)
    return _NULL_SPAN


def annotate(**attributes: Any) -> None:
    """Set *attributes* on the calling thread's current span -- how a
    layer reports a decision (kernel, expanded size) to whoever traces
    it.  A no-op while disabled or outside any span."""
    if OBS.enabled:
        current = OBS.tracer.current()
        if current is not None:
            current.set(**attributes)


def count_engine(engine: str, **amounts: float) -> None:
    """Add *amounts* to the engine-counter ledger of *engine*.

    Keys are :data:`~repro.obs.metrics.ENGINE_COUNTERS` fields
    (``matvec_count=...``); each non-zero amount is added to its
    ``repro_engine_*_total{engine=<engine>}`` counter.  The counters
    count work performed -- including attempts an executor later
    throws away -- and exist only while observability is on: disabled,
    this is one flag check.  Hot loops count in local integers and
    call this once per run.
    """
    if not OBS.enabled:
        return
    for field, amount in amounts.items():
        if amount:
            OBS.metrics.counter(ENGINE_COUNTERS[field],
                                engine=engine).inc(amount)
