"""Span-based tracing of the model-checking pipeline.

A *span* is one timed phase of a computation -- an engine entry point,
a uniformisation series, a refinement round -- with monotonic wall and
CPU timings, free-form attributes, and a parent/child relation that
turns one query into a tree: the span tree is the runtime twin of the
paper's evaluation tables, showing *where* the seconds of Tables 2--4
actually go.

Spans are created through :meth:`Tracer.span`, a context manager::

    with tracer.span("joint_vector", engine="sericola", t=24.0) as span:
        ...
        span.set(cache_hit=False)

Nesting is tracked per thread (a thread-local stack), so concurrent
queries trace independently.  Attribution from elsewhere is explicit:
``tracer.span(..., parent=p)`` opens a child of a given span, and the
process executor re-parents its workers' exported spans under the
sweep (:meth:`Tracer.adopt_segments`), so a sweep's work units appear
as children of the sweep span, not as detached roots.

The tracer is deliberately dumb about output: finished root spans
accumulate on :attr:`Tracer.roots` and the exporters
(:mod:`repro.obs.export`) turn them into JSON lines, or a human tree.
Everything here is standard library only and thread-safe.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Sentinel meaning "use the calling thread's current span as parent".
_CURRENT = object()


class Span:
    """One timed, attributed phase of a computation.

    Attributes
    ----------
    name:
        Stable phase identifier (``"joint_vector"``, ``"series"``,
        ...).  Names carry no parameters -- those go into
        :attr:`attributes` -- so span-tree *shapes* can be compared
        across runs (the CI golden test does exactly that).
    span_id, parent_id:
        Process-unique integers; ``parent_id`` is ``None`` for roots.
    start_wall:
        ``time.time()`` at entry (for log correlation only; durations
        use the monotonic clock).
    wall_seconds, cpu_seconds:
        Monotonic wall-clock and process-CPU duration, filled in when
        the span closes (``None`` while open).
    attributes:
        Free-form ``str -> scalar`` details (bounds, depths, hit
        flags).
    children:
        Finished child spans, in completion order.
    thread:
        Name of the thread the span ran on.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_wall",
                 "wall_seconds", "cpu_seconds", "attributes",
                 "children", "thread", "_start_monotonic",
                 "_start_cpu")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int],
                 attributes: Optional[Dict[str, Any]] = None):
        self.name = str(name)
        self.span_id = int(span_id)
        self.parent_id = parent_id
        self.start_wall = time.time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self.thread = threading.current_thread().name
        self._start_monotonic = time.perf_counter()
        self._start_cpu = time.process_time()

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def close(self) -> None:
        """Record the durations (idempotent -- first close wins)."""
        if self.wall_seconds is None:
            self.wall_seconds = time.perf_counter() - self._start_monotonic
            self.cpu_seconds = time.process_time() - self._start_cpu

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready flat representation (children by parent_id)."""
        return {"span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start_wall": self.start_wall,
                "wall_seconds": self.wall_seconds,
                "cpu_seconds": self.cpu_seconds,
                "thread": self.thread,
                "attributes": dict(self.attributes)}

    def __repr__(self) -> str:
        wall = ("open" if self.wall_seconds is None
                else f"{self.wall_seconds:.6f}s")
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {wall}, "
                f"{len(self.children)} children)")


class Tracer:
    """Thread-safe collector of span trees.

    One tracer serves a whole process (or one profiled query -- the
    CLI creates a fresh tracer per run so trees never mix).  Opening a
    span pushes it on the *calling thread's* stack; closing pops it and
    attaches it to its parent (or to :attr:`roots`).  Attachment is
    serialised by an internal lock because a worker thread's span may
    close concurrently with its parent thread's.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: Dict[int, Span] = {}
        #: Finished top-level spans, in completion order.
        self.roots: List[Span] = []

    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span (``None`` outside
        any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, parent: Any = _CURRENT,
             **attributes: Any) -> "_SpanContext":
        """Open a child span of *parent* as a context manager.

        *parent* defaults to the calling thread's current span; pass an
        explicit :class:`Span` to attach elsewhere or ``None`` to force a new root.
        """
        if parent is _CURRENT:
            parent_span = self.current()
        else:
            parent_span = parent
        parent_id = parent_span.span_id if parent_span is not None else None
        span = Span(name, next(self._ids), parent_id, attributes)
        return _SpanContext(self, span, parent_span)

    def _finish(self, span: Span, parent: Optional[Span]) -> None:
        span.close()
        with self._lock:
            self._spans[span.span_id] = span
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    # ------------------------------------------------------------------

    def spans(self) -> List[Span]:
        """Every finished span (all trees, depth first)."""
        with self._lock:
            roots = list(self.roots)
        collected: List[Span] = []
        for root in roots:
            collected.extend(root.walk())
        return collected

    def export_segments(self, limit: Optional[int] = 512,
                        clear: bool = False) -> List[Dict[str, Any]]:
        """Finished spans as flat, picklable dicts, bounded to *limit*.

        The worker side of the process executor ships these over the
        result pipe after each task (:mod:`repro.obs.remote`).  When
        more than *limit* spans have finished, only the most recent
        *limit* are exported -- a truncated record whose parent was
        dropped is re-parented at adoption time, so the bound never
        corrupts the tree, it only prunes it.  *clear* drops the
        exported spans afterwards, turning repeated exports into
        deltas.
        """
        spans = self.spans()
        if limit is not None and len(spans) > limit:
            spans = spans[-limit:]
        records = [span.to_dict() for span in spans]
        if clear:
            self.clear()
        return records

    def adopt_segments(self, records: List[Dict[str, Any]],
                       parent: Optional[Span] = None) -> List[Span]:
        """Rebuild exported segments as spans of *this* tracer.

        The inverse of :meth:`export_segments` on the parent side:
        every record becomes a closed :class:`Span` with a fresh id
        from this tracer's counter (foreign ids never leak in), the
        recorded parent/child structure is restored, and records whose
        parent is not in the batch attach under *parent* (or become
        roots) -- this is how a worker's ``joint_vector`` trees are
        re-parented under the parent process's ``process_sweep`` span.
        Returns the adopted top-level spans.
        """
        pairs: List[Tuple[Span, Optional[int]]] = []
        id_map: Dict[int, Span] = {}
        for record in records:
            span = Span(str(record.get("name", "span")),
                        next(self._ids), None,
                        record.get("attributes"))
            start_wall = record.get("start_wall")
            if start_wall is not None:
                span.start_wall = float(start_wall)
            span.wall_seconds = float(record.get("wall_seconds")
                                      or 0.0)
            span.cpu_seconds = float(record.get("cpu_seconds") or 0.0)
            thread = record.get("thread")
            if thread is not None:
                span.thread = str(thread)
            old_id = record.get("span_id")
            if old_id is not None:
                id_map[int(old_id)] = span
            pairs.append((span, record.get("parent_id")))
        tops: List[Span] = []
        with self._lock:
            for span, old_parent in pairs:
                target = (id_map.get(int(old_parent))
                          if old_parent is not None else None)
                if target is not None and target is not span:
                    span.parent_id = target.span_id
                    target.children.append(span)
                else:
                    span.parent_id = (parent.span_id
                                      if parent is not None else None)
                    if parent is not None:
                        parent.children.append(span)
                    else:
                        self.roots.append(span)
                    tops.append(span)
                self._spans[span.span_id] = span
        return tops

    def clear(self) -> None:
        """Drop all finished spans and every thread's span stack.

        Dropping the stacks matters for forked worker processes: the
        child's main thread inherits the parent's thread-local stack,
        so without this a worker's spans would silently attach to the
        parent's (stale, never-finishing) open span instead of
        becoming roots -- and never show up in an export.
        """
        with self._lock:
            self.roots.clear()
            self._spans.clear()
            self._local = threading.local()

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)})"


class _SpanContext:
    """Context manager pairing a span with its tracer bookkeeping."""

    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: Tracer, span: Span,
                 parent: Optional[Span]):
        self._tracer = tracer
        self._span = span
        self._parent = parent

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        else:  # pragma: no cover - defensive: unbalanced exits
            try:
                stack.remove(self._span)
            except ValueError:
                pass
        if exc_type is not None:
            self._span.set(error=f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self._span, self._parent)
