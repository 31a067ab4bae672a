"""Hierarchical tracing: one span tree per top-level operation.

Metrics say *what* happened and events say *when*; spans say *why it
took that long and under which operation*.  Every top-level operation
(``integrate_many``, ``add_source``, ``Aladin.open``, a search, a
checkpoint, a compaction) opens a **root span**; the layers below it —
task-graph nodes, executor fan-outs, per-task bodies, hydration
faults, pushdown decisions — open child spans, producing one connected
tree per operation:

``trace_id``
    Shared by every span of one top-level operation.
``span_id`` / ``parent_id``
    Tree edges.  Root spans have ``parent_id = None``.
``name`` + ``attributes``
    ``op.integrate_many``, ``fanout.link``, ``task``, … with structured
    attributes (source, stage kind, task index and label).
``wall_time`` + ``duration``
    Start is wall-clock for humans; the duration is measured with
    ``perf_counter`` per the repo's timing policy.  ``finish`` leaves
    ``started`` and ``duration`` on the handle, so the code that opened
    the span reads the very value the span records.
``status``
    ``"ok"`` or ``"error"`` (with the exception type name).

**Context propagation.**  A module-level :data:`contextvars.ContextVar`
carries the active span through the calling thread.  Another thread
joins a tree with :meth:`Tracer.activate` on a context captured by
:meth:`Tracer.current` (``ThreadPoolExecutor`` does *not* copy context
into reused worker threads).

**One clock per stage.**  A stage is timed once, by its span handle:
report step seconds, histograms and event payloads all read the
handle's ``duration``.  With tracing disabled :data:`NULL_TRACER` is
the durations-only recorder — its handles keep a start and a duration
and nothing else (no ids, ring, context or sinks).  Hot paths receive
``None`` and substitute it (``tracer or NULL_TRACER``); the seam is
held under 1% by ``benchmarks/bench_obs.py``.

Finished spans land in a bounded ring plus a separate bounded
**slow-span log** (spans whose duration crosses
``ObsConfig.slow_span_seconds``), so tail offenders survive ring
eviction; ``repro trace --slow`` reads the latter.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter, time as wall_clock
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "render_spans",
]

#: Finished spans kept in the in-memory ring.
SPAN_HISTORY = 4096
#: Spans kept in the slow-span log (they also live in the ring until
#: evicted; the slow log is what survives churn).
SLOW_LOG_LIMIT = 256
#: Default duration threshold for the slow-span log, seconds.
SLOW_SPAN_SECONDS = 1.0

#: The active span, as ``(tracer, trace_id, span_id)``.  One module-level
#: contextvar (per the contextvars documentation) — the tracer identity
#: is part of the value so two live ``Aladin`` instances never take
#: each other's spans as parents.
_ACTIVE: ContextVar[Optional[Tuple["Tracer", str, str]]] = ContextVar(
    "repro_obs_active_span", default=None
)


class Span:
    """One finished span.  Immutable once recorded."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "wall_time",
        "duration",
        "attributes",
        "status",
        "error",
        "order",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        wall_time: float,
        duration: float,
        attributes: Dict[str, Any],
        status: str = "ok",
        error: Optional[str] = None,
        order: int = 0,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.wall_time = wall_time
        self.duration = duration
        self.attributes = attributes
        self.status = status
        self.error = error
        #: Ring insertion index; renderers use it to order siblings
        #: deterministically (children in completion order).
        self.order = order

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "wall_time": self.wall_time,
            "duration": self.duration,
            "attributes": self.attributes,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


class _SpanHandle:
    """A span in flight.  Handed out by :meth:`Tracer.span` /
    :meth:`Tracer.start_span`; mutate attributes freely until finish."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "wall_time",
        "started",
        "duration",
        "_token",
    )

    def __init__(self, tracer, trace_id, span_id, parent_id, name, attributes):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.wall_time = wall_clock()
        self.started = perf_counter()
        self.duration = 0.0  # set by Tracer.finish
        self._token = None

    def set(self, **attributes: Any) -> None:
        self.attributes.update(attributes)


class _TimedHandle:
    """The null tracer's handle: a start and, once finished, a duration."""

    __slots__ = ("started", "duration")
    trace_id = ""
    span_id = ""
    parent_id = None

    def __init__(self) -> None:
        self.started = perf_counter()
        self.duration = 0.0

    def set(self, **attributes: Any) -> None:
        pass


class Tracer:
    """Per-``Aladin`` span recorder with bounded history and sinks."""

    def __init__(
        self,
        history_limit: int = SPAN_HISTORY,
        slow_seconds: float = SLOW_SPAN_SECONDS,
        slow_log_limit: int = SLOW_LOG_LIMIT,
    ) -> None:
        self._lock = threading.RLock()
        self._spans: deque = deque(maxlen=history_limit)
        self._slow: deque = deque(maxlen=slow_log_limit)
        self.slow_seconds = slow_seconds
        self._next = 0
        self._order = 0
        self._sinks: List[Any] = []

    @property
    def enabled(self) -> bool:
        return True

    # -- id + context plumbing ------------------------------------------

    def _new_id(self, prefix: str) -> str:
        with self._lock:
            self._next += 1
            return f"{prefix}{self._next:x}"

    def current(self) -> Optional[Tuple[str, str]]:
        """The active ``(trace_id, span_id)`` in this context, if it
        belongs to *this* tracer."""
        active = _ACTIVE.get()
        if active is not None and active[0] is self:
            return (active[1], active[2])
        return None

    @contextmanager
    def activate(self, context: Optional[Tuple[str, str]]) -> Iterator[None]:
        """Re-activate a captured span context in another thread, so
        spans opened there become its children."""
        if context is None:
            yield
            return
        token = _ACTIVE.set((self, context[0], context[1]))
        try:
            yield
        finally:
            _ACTIVE.reset(token)

    # -- recording ------------------------------------------------------

    def start_span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a span under the active context (or a fresh trace) and
        make it the active context until :meth:`finish`."""
        parent = self.current()
        if parent is None:
            trace_id = self._new_id("t")
            parent_id: Optional[str] = None
        else:
            trace_id, parent_id = parent
        handle = _SpanHandle(
            self, trace_id, self._new_id("s"), parent_id, name, attributes
        )
        handle._token = _ACTIVE.set((self, trace_id, handle.span_id))
        return handle

    def finish(self, handle: _SpanHandle, error: Optional[BaseException] = None) -> None:
        handle.duration = perf_counter() - handle.started
        if handle._token is not None:
            try:
                _ACTIVE.reset(handle._token)
            except ValueError:
                pass  # finished in a different context; parentage still holds
            handle._token = None
        self._record(
            Span(
                handle.trace_id,
                handle.span_id,
                handle.parent_id,
                handle.name,
                handle.wall_time,
                handle.duration,
                handle.attributes,
                status="ok" if error is None else "error",
                error=None if error is None else type(error).__name__,
            )
        )

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_SpanHandle]:
        handle = self.start_span(name, **attributes)
        try:
            yield handle
        except BaseException as exc:
            self.finish(handle, error=exc)
            raise
        self.finish(handle)

    def record_complete(
        self,
        name: str,
        wall_time: float,
        duration: float,
        error: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        """Record an already-measured root span (used by ``Aladin.open``,
        whose timing starts before the tracer exists)."""
        self._record(
            Span(
                self._new_id("t"),
                self._new_id("s"),
                None,
                name,
                wall_time,
                duration,
                attributes,
                status="ok" if error is None else "error",
                error=error,
            )
        )

    def _record(self, span: Span) -> None:
        with self._lock:
            self._order += 1
            span.order = self._order
            self._spans.append(span)
            if span.duration >= self.slow_seconds:
                self._slow.append(span)
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(span)
            except Exception:  # noqa: BLE001 - a broken sink must not break the traced operation
                pass

    def add_sink(self, sink) -> None:
        """Register a callable invoked with every finished :class:`Span`
        (the JSONL exporter interleaves them as ``"type": "span"``)."""
        with self._lock:
            self._sinks.append(sink)

    # -- reading --------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [span for span in spans if span.trace_id == trace_id]

    def traces(self) -> List[Dict[str, Any]]:
        """All retained spans grouped per trace, in first-span order:
        ``[{"trace_id": ..., "root": name-or-None, "spans": [dict, ...]}]``."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        traces = []
        for trace_id, spans in grouped.items():
            root = next((s for s in spans if s.parent_id is None), None)
            traces.append(
                {
                    "trace_id": trace_id,
                    "root": root.name if root is not None else None,
                    "spans": [span.to_dict() for span in spans],
                }
            )
        return traces

    def slow_spans(self, threshold: Optional[float] = None) -> List[Span]:
        """The bounded slow-span log, optionally re-filtered to an even
        higher threshold (the CLI's ``--slow <seconds>``)."""
        with self._lock:
            spans = list(self._slow)
        if threshold is None:
            return spans
        return [span for span in spans if span.duration >= threshold]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._slow.clear()


class NullTracer:
    """The disabled tracer: the durations-only recorder.

    Its handles time the span and nothing else — spans are never
    recorded, context never propagates.
    """

    __slots__ = ()
    enabled = False
    slow_seconds = SLOW_SPAN_SECONDS

    def current(self) -> None:
        return None

    @contextmanager
    def activate(self, context) -> Iterator[None]:
        yield

    def start_span(self, name: str, **attributes: Any) -> _TimedHandle:
        return _TimedHandle()

    def finish(self, handle: _TimedHandle, error: Optional[BaseException] = None) -> None:
        handle.duration = perf_counter() - handle.started

    span = Tracer.span

    def record_complete(self, name, wall_time, duration, error=None, **attributes):
        pass

    def add_sink(self, sink) -> None:
        pass

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        return []

    def traces(self) -> List[Dict[str, Any]]:
        return []

    def slow_spans(self, threshold: Optional[float] = None) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


def render_spans(
    spans: List[Any], slow_threshold: Optional[float] = None
) -> str:
    """Render span trees as indented text with durations.

    Accepts :class:`Span` objects or their ``to_dict`` form.  Spans are
    grouped by ``trace_id``; within a trace, children render under
    their parent ordered by ring insertion (deterministic: completion
    order).  ``slow_threshold`` prunes spans
    (and their subtrees) faster than the given seconds, keeping any
    ancestor chain that leads to a slow span.
    """
    dicts = [span.to_dict() if hasattr(span, "to_dict") else dict(span) for span in spans]
    for position, record in enumerate(dicts):
        record.setdefault("_order", position)
    lines: List[str] = []
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for record in dicts:
        by_trace.setdefault(record["trace_id"], []).append(record)

    def keeps(record, children_of):
        if slow_threshold is None or record["duration"] >= slow_threshold:
            return True
        return any(keeps(child, children_of) for child in children_of.get(record["span_id"], ()))

    for trace_id, records in by_trace.items():
        children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        ids = {record["span_id"] for record in records}
        for record in records:
            parent = record["parent_id"]
            if parent not in ids:
                parent = None  # orphaned (ring-evicted ancestor): render at root
            children.setdefault(parent, []).append(record)
        for siblings in children.values():
            siblings.sort(key=lambda r: r["_order"])
        roots = [r for r in children.get(None, ()) if keeps(r, children)]
        if not roots:
            continue
        lines.append(f"trace {trace_id}")

        def walk(record, depth):
            marker = "" if record["status"] == "ok" else f"  !{record.get('error', 'error')}"
            attributes = record.get("attributes") or {}
            rendered = ""
            if attributes:
                pairs = ", ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
                rendered = f"  [{pairs}]"
            lines.append(
                f"{'  ' * depth}- {record['name']}  "
                f"{record['duration'] * 1000:.2f} ms{rendered}{marker}"
            )
            for child in children.get(record["span_id"], ()):
                if keeps(child, children):
                    walk(child, depth + 1)

        for root in roots:
            walk(root, 1)
    return "\n".join(lines)
