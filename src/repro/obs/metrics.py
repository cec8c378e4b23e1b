"""Counters, gauges and log-scale histograms behind stable names.

The registry is the library's single quantitative ledger: the engines
count their work here (:data:`ENGINE_COUNTERS`), the numerics layer
adds timing histograms (matvec blocks,
Fox--Glynn weight computation, per-grid-cell sweep latency), and the
benchmark harness derives its ``BENCH_*.json`` rows from a registry
snapshot instead of re-implementing timing.

Metric names are part of the public interface -- the catalogue lives
in ``docs/OBSERVABILITY.md`` -- and follow the Prometheus conventions:
``repro_<what>_total`` for counters, ``repro_<what>_seconds`` for
timing histograms, labels for the engine dimension.  Histograms use
*fixed* log-scale buckets (half-decade steps from one microsecond to
1000 s) so two runs' distributions are always comparable bucket by
bucket.

Everything is standard library only; all mutation is lock-protected so
the thread executor's unit threads can record concurrently.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

LabelKey = Tuple[Tuple[str, str], ...]

#: Fixed log-scale histogram bounds: half-decade steps covering one
#: microsecond to 1000 seconds.  Observations beyond the last bound
#: land in the implicit +Inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (-6 + 0.5 * k) for k in range(19))


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Reads ``ru_maxrss`` from :func:`resource.getrusage`; the kernel
    reports the high-water mark, so a single sample at any point
    captures the maximum over the whole process lifetime.  Linux
    reports KiB, macOS bytes; returns 0 where :mod:`resource` is
    unavailable (non-POSIX).
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(rss)
    return int(rss) * 1024


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping (backslash, quote, LF)."""
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (lock-protected)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}{_render_labels(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (last write wins; ``update_max`` keeps
    the running maximum instead)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def update_max(self, value: float) -> None:
        """Keep the largest value seen (deepest truncation, ...)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{_render_labels(self.labels)}={self.value})"


class Histogram:
    """Fixed-bucket log-scale histogram of non-negative observations.

    ``counts[i]`` counts observations ``<= bounds[i]`` (cumulative-free
    per-bucket counts; the Prometheus rendering accumulates).  The last
    implicit bucket is ``+Inf``.  ``sum``/``count``/``min``/``max``
    ride along so means and extremes need no bucket arithmetic.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count",
                 "min", "max", "_lock")

    def __init__(self, name: str, labels: LabelKey = (),
                 bounds: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must ascend: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (clamped at 0 from below)."""
        value = max(0.0, float(value))
        index = 0
        for index, bound in enumerate(self.bounds):  # noqa: B007
            if value <= bound:
                break
        else:
            index = len(self.bounds)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max as a plain dict."""
        with self._lock:
            count = self.count
            total = self.sum
            return {"count": float(count), "sum": total,
                    "mean": total / count if count else 0.0,
                    "min": self.min if self.min is not None else 0.0,
                    "max": self.max if self.max is not None else 0.0}

    def __repr__(self) -> str:
        return (f"Histogram({self.name}"
                f"{_render_labels(self.labels)}, n={self.count})")


#: Wire names of the metric types (export/merge and Prometheus TYPE).
_TYPE_NAMES: Dict[type, str] = {Counter: "counter", Gauge: "gauge",
                                Histogram: "histogram"}


class MetricsRegistry:
    """Name- and label-addressed home of every metric.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same object afterwards, so call sites never declare metrics up
    front.  A *name* must keep one metric type for the registry's
    lifetime (mixing types under one name raises).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._types: Dict[str, type] = {}

    # ------------------------------------------------------------------

    def _get(self, cls: type, name: str, labels: Dict[str, Any],
             **extra: Any) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is a "
                        f"{type(existing).__name__}, not a "
                        f"{cls.__name__}")
                return existing
            registered = self._types.setdefault(name, cls)
            if registered is not cls:
                raise ValueError(
                    f"metric {name!r} is a {registered.__name__}, "
                    f"not a {cls.__name__}")
            metric = cls(name, key[1], **extra)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter *name* with *labels* (created on first use)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge *name* with *labels* (created on first use)."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram *name* with *labels* (created on first use)."""
        return self._get(Histogram, name, labels, bounds=bounds)

    # ------------------------------------------------------------------

    def collect(self) -> List[Any]:
        """Every registered metric, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [metric for _, metric in items]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready state: ``{name: {label-string: value-or-summary}}``.

        Counters and gauges map to their value; histograms to their
        :meth:`Histogram.summary` dict.  The label string is the
        Prometheus-style ``{k="v",...}`` rendering (empty for
        unlabelled metrics).
        """
        out: Dict[str, Dict[str, Any]] = {}
        for metric in self.collect():
            family = out.setdefault(metric.name, {})
            label = _render_labels(metric.labels)
            if isinstance(metric, Histogram):
                family[label] = metric.summary()
            else:
                family[label] = metric.value
        return out

    def export_state(self) -> List[Dict[str, Any]]:
        """The registry's full state as picklable plain data.

        This is the lossless companion of :meth:`snapshot` (which is
        render-oriented): one dict per metric carrying the type, the
        raw label pairs, and -- for histograms -- the complete bucket
        state, so :meth:`merge` can rebuild every metric exactly.  The
        worker side of the process executor ships this over the result
        pipe (:mod:`repro.obs.remote`).
        """
        out: List[Dict[str, Any]] = []
        for metric in self.collect():
            entry: Dict[str, Any] = {
                "name": metric.name,
                "type": _TYPE_NAMES[type(metric)],
                "labels": [[name, value] for name, value
                           in metric.labels],
            }
            if isinstance(metric, Histogram):
                with metric._lock:
                    entry.update(bounds=list(metric.bounds),
                                 counts=list(metric.counts),
                                 sum=metric.sum, count=metric.count,
                                 min=metric.min, max=metric.max)
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    def merge(self, state: Iterable[Dict[str, Any]],
              extra_labels: Optional[Dict[str, Any]] = None) -> None:
        """Fold an :meth:`export_state` snapshot into this registry.

        *extra_labels* are added to every merged metric (overriding
        same-named labels from the snapshot) -- the process executor
        merges worker snapshots with ``{"worker": "process-i"}``.
        Merge semantics per type: counters add, gauges keep the
        maximum (every gauge merged across workers is a high-water
        mark), histograms add bucket by bucket.  A name registered
        here under a different metric type, or a histogram with
        different bucket bounds, raises ``ValueError`` -- merging
        never silently coerces.
        """
        extra = {str(k): str(v)
                 for k, v in (extra_labels or {}).items()}
        for entry in state:
            name = str(entry["name"])
            kind = str(entry["type"])
            labels = {str(k): str(v)
                      for k, v in entry.get("labels", ())}
            labels.update(extra)
            if kind == "counter":
                self.counter(name, **labels).inc(
                    float(entry.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name, **labels).update_max(
                    float(entry.get("value", 0.0)))
            elif kind == "histogram":
                bounds = tuple(float(b) for b in entry["bounds"])
                histogram = self.histogram(name, bounds=bounds,
                                           **labels)
                if histogram.bounds != bounds:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ "
                        f"from the snapshot's; cannot merge")
                counts = [int(c) for c in entry["counts"]]
                if len(counts) != len(histogram.counts):
                    raise ValueError(
                        f"histogram {name!r} bucket count mismatch")
                lo, hi = entry.get("min"), entry.get("max")
                with histogram._lock:
                    for index, count in enumerate(counts):
                        histogram.counts[index] += count
                    histogram.sum += float(entry.get("sum", 0.0))
                    histogram.count += int(entry.get("count", 0))
                    if lo is not None and (histogram.min is None
                                           or lo < histogram.min):
                        histogram.min = float(lo)
                    if hi is not None and (histogram.max is None
                                           or hi > histogram.max):
                        histogram.max = float(hi)
            else:
                raise ValueError(
                    f"unknown metric type {kind!r} for {name!r}")

    def reset(self) -> None:
        """Drop every metric (benchmarks isolate rows this way)."""
        with self._lock:
            self._metrics.clear()
            self._types.clear()

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry's state."""
        lines: List[str] = []
        last_name = None
        for metric in self.collect():
            if metric.name != last_name:
                kind = _TYPE_NAMES[type(metric)]
                lines.append(f"# TYPE {metric.name} {kind}")
                last_name = metric.name
            labels = _render_labels(metric.labels)
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    bucket = _render_labels(
                        metric.labels + (("le", f"{bound:g}"),))
                    lines.append(
                        f"{metric.name}_bucket{bucket} {cumulative}")
                cumulative += metric.counts[-1]
                bucket = _render_labels(metric.labels + (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{bucket} {cumulative}")
                lines.append(f"{metric.name}_sum{labels} {metric.sum:g}")
                lines.append(f"{metric.name}_count{labels} {metric.count}")
            else:
                lines.append(f"{metric.name}{labels} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry({len(self._metrics)} metrics)"


#: The engine-counter ledger: counter field -> registry counter name.
#: The engines, the numerics helpers and the sweep executors add to
#: these ``repro_engine_*_total{engine=...}`` counters directly (see
#: :func:`repro.obs.count_engine`); they are the only store of the
#: engines' work counters.
ENGINE_COUNTERS: Dict[str, str] = {
    "cache_hits": "repro_engine_cache_hits_total",
    "cache_misses": "repro_engine_cache_misses_total",
    "propagation_steps": "repro_engine_propagation_steps_total",
    "matvec_count": "repro_engine_matvec_total",
    "sweep_points": "repro_engine_sweep_points_total",
    "cache_evictions": "repro_engine_cache_evictions_total",
}
