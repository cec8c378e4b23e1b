"""Exporters: JSON-lines traces, Prometheus text, human profiles.

Three audiences, three formats:

* machines replaying a run read the **JSON-lines trace**
  (:func:`write_jsonl` / :func:`parse_jsonl`, one flat span dict per
  line, tree recoverable from ``parent_id``);
* scrapers read the **Prometheus text exposition**
  (:func:`render_prometheus`, a thin veneer over
  :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`);
* humans read the **profile** (:func:`render_profile`): the span tree
  with per-phase wall/CPU time, cache hit ratios derived from the
  ``repro_engine_cache_*_total`` counters, and the timing histograms;
  the tree labels each span with its decisions and outcomes (kernel,
  expanded size, series depth, steps run, residual Poisson mass);
* benchmarks and tests read the engine-counter ledger as plain
  integers (:func:`engine_totals`).

:func:`span_shape` strips a tree down to names and nesting only --
the CI golden test compares that shape across runs, which is why span
*names* carry no parameters.
"""

from __future__ import annotations

import json
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from .metrics import ENGINE_COUNTERS, MetricsRegistry
from .recorder import RecordLog
from .trace import Span, Tracer

# ----------------------------------------------------------------------
# JSON lines


def write_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write one flat JSON object per span to a fresh file at *path*,
    as one :class:`~repro.obs.recorder.RecordLog` batch; returns the
    line count."""
    with RecordLog(path, mode="w") as log:
        return log.append(span.to_dict() for span in spans)


def parse_jsonl(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace back into flat span dicts.

    Accepts a whole string or an iterable of lines (an open file).
    Blank lines are skipped; anything else must be a JSON object with
    at least ``span_id`` and ``name`` -- malformed input raises
    ``ValueError`` so round-trip tests fail loudly.
    """
    if isinstance(source, str):
        source = source.splitlines()
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not JSON: {exc}") from exc
        if not isinstance(record, dict) or "span_id" not in record \
                or "name" not in record:
            raise ValueError(f"trace line {lineno} is not a span record")
        records.append(record)
    return records


def build_tree(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reassemble parsed span dicts into root trees.

    Each returned dict gains a ``children`` list (ordered as in the
    input, i.e. completion order).  Orphans -- spans whose parent is
    not in the trace -- become roots rather than being dropped.
    """
    by_id: Dict[int, Dict[str, Any]] = {}
    for record in records:
        node = dict(record)
        node["children"] = []
        by_id[int(node["span_id"])] = node
    roots: List[Dict[str, Any]] = []
    for record in records:
        node = by_id[int(record["span_id"])]
        parent_id = record.get("parent_id")
        parent = by_id.get(int(parent_id)) if parent_id is not None else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


# ----------------------------------------------------------------------
# Shape (for golden comparisons)


def _shape(name: str, children: Iterable[Dict[str, Any]]
           ) -> Dict[str, Any]:
    """One shape node: *children* sorted, then runs of equal ones
    collapsed into one."""
    collapsed: List[Dict[str, Any]] = []
    for child in sorted(children,
                        key=lambda s: json.dumps(s, sort_keys=True)):
        if not collapsed or collapsed[-1] != child:
            collapsed.append(child)
    return {"name": name, "children": collapsed}


def span_shape(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Names and nesting only -- no ids, no timings, no attributes.

    Children are sorted by name (completion order of threaded workers
    is nondeterministic) and *collapsed*: repeated identical child
    shapes are folded into one entry so a sweep over 11 grid cells and
    one over 7 produce the same shape.  This is the structure the CI
    golden test pins down.
    """

    def shape(span: Span) -> Dict[str, Any]:
        return _shape(span.name, map(shape, span.children))

    return [shape(span) for span in spans]


def record_shape(roots: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """:func:`span_shape` over parsed trace dicts.

    Operates on :func:`build_tree` output (``name`` + ``children``
    keys) with the same sorting and collapsing rules, so a shape
    computed from a JSON-lines trace on disk compares equal to one
    taken from the live tracer.
    """

    def shape(node: Dict[str, Any]) -> Dict[str, Any]:
        return _shape(node["name"], map(shape, node.get("children", ())))

    return [shape(node) for node in roots]


# ----------------------------------------------------------------------
# Human profile


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "   open"
    if value >= 1.0:
        return f"{value:7.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:6.2f}ms"
    return f"{value * 1e6:6.1f}us"


def _span_label(span: Span) -> str:
    interesting = {k: v for k, v in sorted(span.attributes.items())
                   if k in _LABEL_ATTRIBUTES}
    if not interesting:
        return span.name
    inner = ", ".join(f"{k}={v:.3g}" if k == "residual" else f"{k}={v}"
                      for k, v in interesting.items())
    return f"{span.name} [{inner}]"

#: Attributes worth showing inline in the tree rendering.
_LABEL_ATTRIBUTES = frozenset({
    "engine", "formula", "t", "r", "phases", "step", "depth", "worker",
    "round", "cache_hit", "points", "error", "kernel", "expanded_states",
    "steps", "residual", "rate"})


def render_span_tree(roots: Sequence[Span]) -> str:
    """The classic profiler tree: wall / CPU / name per line."""
    lines = ["    wall      cpu  span"]
    for root in roots:
        _render_span(root, 0, lines)
    return "\n".join(lines) + "\n"


def _render_span(span: Span, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    lines.append(f"{_format_seconds(span.wall_seconds)} "
                 f"{_format_seconds(span.cpu_seconds)}  "
                 f"{indent}{_span_label(span)}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def cache_hit_ratios(registry: MetricsRegistry) -> Dict[str, Tuple[int, int]]:
    """Per-engine ``(hits, misses)`` from the stable counters."""
    snapshot = registry.snapshot()
    ratios: Dict[str, Tuple[int, int]] = {}
    for name, field in (("repro_engine_cache_hits_total", 0),
                        ("repro_engine_cache_misses_total", 1)):
        for label, value in snapshot.get(name, {}).items():
            engine = _engine_from_label(label)
            hits, misses = ratios.get(engine, (0, 0))
            if field == 0:
                hits += int(value)
            else:
                misses += int(value)
            ratios[engine] = (hits, misses)
    return ratios


def engine_totals(registry: MetricsRegistry,
                  engine: Optional[str] = None) -> Dict[str, int]:
    """The engine-counter ledger as plain integers.

    Each :data:`~repro.obs.metrics.ENGINE_COUNTERS` family summed over
    its label sets (worker labels included), keyed by counter field
    (``matvec_count``, ``cache_hits``, ...); *engine* keeps only the
    series labelled ``engine=<engine>``.
    """
    fields = {name: field for field, name in ENGINE_COUNTERS.items()}
    totals = dict.fromkeys(ENGINE_COUNTERS, 0)
    for metric in registry.collect():
        field = fields.get(metric.name)
        if field is not None and (
                engine is None
                or dict(metric.labels).get("engine") == engine):
            totals[field] += int(metric.value)
    return totals


def _engine_from_label(label: str) -> str:
    for part in label.strip("{}").split(","):
        if part.startswith("engine="):
            return part.split("=", 1)[1].strip('"')
    return "unknown"


def render_profile(tracer: Tracer, registry: MetricsRegistry) -> str:
    """The human report: span tree, cache ratios, counters, timings."""
    sections: List[str] = []

    roots = list(tracer.roots)
    if roots:
        sections.append("== span tree ==")
        sections.append(render_span_tree(roots).rstrip("\n"))

    ratios = cache_hit_ratios(registry)
    if ratios:
        sections.append("")
        sections.append("== cache ==")
        for engine in sorted(ratios):
            hits, misses = ratios[engine]
            total = hits + misses
            pct = 100.0 * hits / total if total else 0.0
            sections.append(f"{engine:>16}: {hits}/{total} hits "
                            f"({pct:.1f}%)")

    snapshot = registry.snapshot()
    scalars: List[Tuple[str, float]] = []
    for name, family in sorted(snapshot.items()):
        if name.startswith("repro_engine_cache_"):
            continue  # already shown as hit ratios
        for label, value in sorted(family.items()):
            if isinstance(value, dict):
                continue  # histograms go to the timings section
            scalars.append((f"{name}{label}", value))
    if scalars:
        sections.append("")
        sections.append("== counters & gauges ==")
        for key, value in scalars:
            rendered = (f"{int(value)}" if float(value).is_integer()
                        else f"{value:g}")
            sections.append(f"{key}: {rendered}")

    histograms = {name: family for name, family in snapshot.items()
                  if name.endswith("_seconds")}
    if histograms:
        sections.append("")
        sections.append("== timings ==")
        for name in sorted(histograms):
            for label, summary in sorted(histograms[name].items()):
                count = int(summary["count"])
                if not count:
                    continue
                sections.append(
                    f"{name}{label}: n={count} "
                    f"total={summary['sum']:.6f}s "
                    f"mean={summary['mean'] * 1e3:.3f}ms "
                    f"max={summary['max'] * 1e3:.3f}ms")

    return "\n".join(sections) + ("\n" if sections else "")
