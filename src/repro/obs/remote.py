"""Cross-process telemetry: export a worker's observability state,
merge it into the parent's.

The process executor (:mod:`repro.exec`) runs engines in worker
*processes*, so everything :mod:`repro.obs` records inside a worker --
engine counters, matvec histograms, spans (the series spans with their
depths and residuals), peak RSS -- would die with the worker.  This
module defines the payload that rides home over the existing result
pipe:

* :func:`export_telemetry` -- called in the worker after each task
  (and once more on clean shutdown): bundles the registry's
  :meth:`~repro.obs.metrics.MetricsRegistry.export_state` and the
  tracer's bounded :meth:`~repro.obs.trace.Tracer.export_segments`
  into one picklable dict, then resets both so the next export ships
  a pure delta.  The parent and its workers run the same code, so
  the payload carries no version.
* :func:`merge_telemetry` -- called in the parent: folds the metrics
  into the parent registry with a ``worker="process-i"`` label
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge`) and re-parents
  the exported spans under the parent's live sweep span
  (:meth:`~repro.obs.trace.Tracer.adopt_segments`) -- so ``repro
  check --profile`` shows one coherent tree and
  ``repro_engine_*_total`` are complete whether the sweep ran on
  threads or processes.

Roll-up convention: derived roll-up gauges (currently
``repro_peak_rss_bytes_max``) are *not* shipped -- the merging side
recomputes them from the worker-labelled samples, so a roll-up never
acquires a spurious ``worker=`` label.

Everything here is standard library only, like the rest of the
package.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import Span, Tracer

#: Metric names recomputed by the merging side instead of shipped
#: (see the module docstring).
ROLLUP_METRICS = frozenset({"repro_peak_rss_bytes_max"})

#: Default bound on exported span records per payload.
SEGMENT_LIMIT = 512


def export_telemetry(registry: MetricsRegistry,
                     tracer: Optional[Tracer] = None,
                     segment_limit: Optional[int] = SEGMENT_LIMIT,
                     reset: bool = True) -> Dict[str, Any]:
    """One picklable telemetry payload; resets the sources by default.

    With *reset* (the default) the registry and tracer are cleared
    after the export, so repeated exports ship disjoint deltas and the
    parent can merge them blindly.
    """
    metrics = [entry for entry in registry.export_state()
               if entry["name"] not in ROLLUP_METRICS]
    segments: List[Dict[str, Any]] = []
    if tracer is not None:
        segments = tracer.export_segments(limit=segment_limit,
                                          clear=reset)
    if reset:
        registry.reset()
    return {"metrics": metrics, "segments": segments}


def merge_telemetry(payload: Dict[str, Any],
                    registry: MetricsRegistry,
                    tracer: Optional[Tracer] = None,
                    parent_span: Optional[Span] = None,
                    worker: Optional[str] = None) -> None:
    """Fold one :func:`export_telemetry` payload into parent state.

    *worker* (e.g. ``"process-3"``) is attached as an extra label to
    every merged metric, overriding a worker label the snapshot may
    already carry (a worker records its own RSS under
    ``worker="main"``).  Spans attach under *parent_span* when a
    tracer is given.
    """
    extra = {"worker": worker} if worker is not None else None
    metrics = payload.get("metrics", ())
    registry.merge(metrics, extra_labels=extra)
    peak = max((float(entry.get("value", 0.0)) for entry in metrics
                if entry.get("name") == "repro_peak_rss_bytes"),
               default=0.0)
    if peak > 0.0:
        registry.gauge("repro_peak_rss_bytes_max").update_max(peak)
    if tracer is not None:
        segments = payload.get("segments", ())
        if segments:
            tracer.adopt_segments(list(segments), parent=parent_span)
