"""Synchronous lifecycle event bus with typed event constants.

Every state transition the warehouse goes through emits exactly one
event on its owning :class:`~repro.core.aladin.Aladin`'s bus:

========================  =====================================================
constant                  emitted when
========================  =====================================================
``SOURCE_ADDED``          a source's five-step integration fully completes
                          (links, duplicates, index, and checkpoint included)
``SOURCE_UPDATED``        ``update_source`` finishes (payload says whether the
                          change stayed below threshold or forced re-analysis)
``SOURCE_REMOVED``        ``remove_source`` finishes unlinking a source
``CHECKPOINT_COMMITTED``  a per-source checkpoint (write or remove) lands in
                          the attached snapshot
``COMPACTION_RAN``        online compaction rewrote the snapshot
``SNAPSHOT_OPENED``       ``Aladin.open`` produced a warm-started system
                          (``index_rebuilt`` if the file had no index)
``HYDRATION_FAULTED``     a lazy stub's rows were materialized on first touch
========================  =====================================================

The bus is synchronous and thread-safe: ``emit`` assigns a monotonically
increasing sequence number under the lock, appends to a bounded history,
and invokes subscribers in subscription order before returning.  Events
carry a wall-clock timestamp *and* a ``perf_counter`` reference — the
former for humans reading an export, the latter for ordering arithmetic
that must survive clock steps (the same dual-stamp rule the snapshot
lock sidecar follows).

Like the metrics registry, the bus has a null twin for the disabled
path: :data:`NULL_BUS` swallows everything and reports empty history.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SOURCE_ADDED",
    "SOURCE_UPDATED",
    "SOURCE_REMOVED",
    "CHECKPOINT_COMMITTED",
    "COMPACTION_RAN",
    "SNAPSHOT_OPENED",
    "HYDRATION_FAULTED",
    "SERVE_STARTED",
    "SERVE_GENERATION_SWAPPED",
    "SERVE_DRAINED",
    "LIFECYCLE_EVENTS",
    "Event",
    "EventBus",
    "NullEventBus",
    "NULL_BUS",
    "JsonlExporter",
]

SOURCE_ADDED = "source.added"
SOURCE_UPDATED = "source.updated"
SOURCE_REMOVED = "source.removed"
CHECKPOINT_COMMITTED = "checkpoint.committed"
COMPACTION_RAN = "compaction.ran"
SNAPSHOT_OPENED = "snapshot.opened"
HYDRATION_FAULTED = "hydration.faulted"
SERVE_STARTED = "serve.started"
SERVE_GENERATION_SWAPPED = "serve.generation_swapped"
SERVE_DRAINED = "serve.drained"

LIFECYCLE_EVENTS = (
    SOURCE_ADDED,
    SOURCE_UPDATED,
    SOURCE_REMOVED,
    CHECKPOINT_COMMITTED,
    COMPACTION_RAN,
    SNAPSHOT_OPENED,
    HYDRATION_FAULTED,
    SERVE_STARTED,
    SERVE_GENERATION_SWAPPED,
    SERVE_DRAINED,
)

#: Events kept in the in-memory history ring.
HISTORY_LIMIT = 4096


@dataclass(frozen=True)
class Event:
    """One lifecycle transition with its structured payload."""

    seq: int
    kind: str
    wall_time: float
    monotonic: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "seq": self.seq,
            "kind": self.kind,
            "wall_time": self.wall_time,
            "monotonic": self.monotonic,
            "payload": self.payload,
        }


class EventBus:
    """Synchronous, thread-safe publish/subscribe with bounded history."""

    def __init__(self, history_limit: int = HISTORY_LIMIT) -> None:
        self._lock = threading.RLock()
        self._seq = 0
        self._history: deque = deque(maxlen=history_limit)
        self._subscribers: List[Callable[[Event], None]] = []
        self._kind_subscribers: Dict[str, List[Callable[[Event], None]]] = {}

    @property
    def enabled(self) -> bool:
        return True

    def subscribe(
        self, handler: Callable[[Event], None], kind: Optional[str] = None
    ) -> Callable[[Event], None]:
        """Register ``handler`` for every event (or only ``kind``).
        Returns the handler so it can be passed to :meth:`unsubscribe`."""
        with self._lock:
            if kind is None:
                self._subscribers.append(handler)
            else:
                self._kind_subscribers.setdefault(kind, []).append(handler)
        return handler

    def unsubscribe(self, handler: Callable[[Event], None]) -> None:
        with self._lock:
            if handler in self._subscribers:
                self._subscribers.remove(handler)
            for handlers in self._kind_subscribers.values():
                if handler in handlers:
                    handlers.remove(handler)

    def emit(self, kind: str, **payload: Any) -> Event:
        """Record one event and deliver it to subscribers synchronously.

        Emission order *is* lifecycle order: the sequence number is
        assigned under the bus lock, so concurrent emitters (hydrating
        reader threads, serve's watcher) serialize here.
        """
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                kind=kind,
                wall_time=time.time(),
                monotonic=time.perf_counter(),
                payload=payload,
            )
            self._history.append(event)
            handlers = list(self._subscribers)
            handlers.extend(self._kind_subscribers.get(kind, ()))
        for handler in handlers:
            handler(event)
        return event

    def history(self, kind: Optional[str] = None) -> List[Event]:
        with self._lock:
            events = list(self._history)
        if kind is None:
            return events
        return [event for event in events if event.kind == kind]

    def kinds(self) -> List[str]:
        """Distinct event kinds seen, in first-occurrence order."""
        seen: Dict[str, None] = {}
        for event in self.history():
            seen.setdefault(event.kind, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._history.clear()


class NullEventBus:
    """The disabled bus: emits vanish, history is empty."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def subscribe(self, handler, kind=None):
        return handler

    def unsubscribe(self, handler) -> None:
        pass

    def emit(self, kind: str, **payload: Any) -> None:
        return None

    def history(self, kind: Optional[str] = None) -> List[Event]:
        return []

    def kinds(self) -> List[str]:
        return []

    def clear(self) -> None:
        pass


NULL_BUS = NullEventBus()


#: Records buffered between exporter flushes.  One syscall per batch
#: instead of one per lifecycle event; ``write_metrics`` and ``close()``
#: always flush, so a finished run never loses tail records.
EXPORT_FLUSH_EVERY = 64


class JsonlExporter:
    """Append-only JSON-lines sink for events, spans, and a final
    metrics line.

    Subscribed to a bus it writes each event (``"type": "event"``);
    registered as a tracer sink (:meth:`write_span`) it interleaves
    finished spans (``"type": "span"``) into the same stream;
    ``write_metrics`` appends the final registry snapshot
    (``"type": "metrics"``) — ``Aladin.close()`` calls it so an exported
    run always ends with its totals.  Writes are buffered and flushed
    every :data:`EXPORT_FLUSH_EVERY` records plus on ``write_metrics``
    and ``close()``.  IO failures disable the exporter rather than
    break the pipeline.
    """

    def __init__(self, path: str, flush_every: int = EXPORT_FLUSH_EVERY) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self._closed = False
        self._flush_every = max(1, flush_every)
        self._pending = 0

    def __call__(self, event: Event) -> None:
        self._write(event.to_dict())

    def write_span(self, span) -> None:
        """Tracer sink: interleave one finished span into the stream."""
        self._write(span.to_dict())

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        self._write({"type": "metrics", "metrics": snapshot}, flush=True)

    def _write(self, record: Dict[str, Any], flush: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                # repro-lint: allow[raw-json-dumps] obs is a leaf and cannot import persist; export lines are not content-hashed
                self._fh.write(json.dumps(record) + "\n")
                self._pending += 1
                if flush or self._pending >= self._flush_every:
                    self._fh.flush()
                    self._pending = 0
            except (OSError, ValueError):
                self._closed = True

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                try:
                    self._fh.close()  # closing flushes buffered records
                except OSError:
                    pass
