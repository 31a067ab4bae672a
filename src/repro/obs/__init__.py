"""repro.obs — the unified telemetry layer.

A deliberate leaf package: it imports nothing from the rest of
``repro``, so every other layer (exec, persist, relational, core, CLI)
can depend on it without cycles.  Three modules:

``metrics``
    Thread-safe registry of counters, gauges, and duration histograms,
    with a no-op twin for the disabled path and a Prometheus
    text-format renderer for external scrapers.
``events``
    Synchronous lifecycle event bus with typed constants and a
    JSON-lines exporter (events, spans, and a final metrics line).
``trace``
    Hierarchical span trees per top-level operation, with a bounded
    slow-span log.

:class:`Observability` bundles one registry + one bus + one tracer per
``Aladin`` and owns the optional export sinks.  Enablement is decided
once at construction from :class:`ObsConfig` — default **on**, switched
off by ``REPRO_OBS=0`` (or ``false``/``no``/``off``) or per-instance
via ``AladinConfig.observability.enabled = False``.  Disabled, all
three handles are the shared null singletons and hot paths receive
``None`` instead; stages are still timed, once each, through the
durations-only null tracer, so reports carry real seconds either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.events import (
    EventBus,
    JsonlExporter,
    NULL_BUS,
    LIFECYCLE_EVENTS,
)
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import NULL_TRACER, SLOW_SPAN_SECONDS, Tracer, render_spans

__all__ = [
    "ObsConfig",
    "Observability",
    "MetricsRegistry",
    "EventBus",
    "Tracer",
    "LIFECYCLE_EVENTS",
    "render_spans",
]

_FALSY = ("0", "false", "no", "off")


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "1").strip().lower() not in _FALSY


def _env_export_path() -> Optional[str]:
    return os.environ.get("REPRO_OBS_EXPORT") or None


def _env_prometheus_path() -> Optional[str]:
    return os.environ.get("REPRO_OBS_PROMETHEUS") or None


def _env_slow_seconds() -> float:
    raw = os.environ.get("REPRO_OBS_SLOW_SECONDS")
    if not raw:
        return SLOW_SPAN_SECONDS
    try:
        return float(raw)
    except ValueError:
        return SLOW_SPAN_SECONDS


@dataclass
class ObsConfig:
    """Host-local observability policy (never persisted in snapshots)."""

    enabled: bool = field(default_factory=_env_enabled)
    #: Optional JSON-lines sink: every event and finished span is
    #: appended (batched flushes), the final metrics snapshot on close.
    export_path: Optional[str] = field(default_factory=_env_export_path)
    #: Optional Prometheus text-format target: the full registry is
    #: rendered to this file on ``close()`` (atomically), ready for a
    #: node-exporter textfile collector.
    prometheus_path: Optional[str] = field(default_factory=_env_prometheus_path)
    #: Spans at least this slow enter the tracer's bounded slow-span
    #: log (``repro trace --slow`` reads it).
    slow_span_seconds: float = field(default_factory=_env_slow_seconds)


class Observability:
    """One registry + one bus + one tracer, wired per ``Aladin``."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.enabled = self.config.enabled
        if self.enabled:
            self.metrics = MetricsRegistry()
            self.events = EventBus()
            self.trace = Tracer(slow_seconds=self.config.slow_span_seconds)
        else:
            self.metrics = NULL_REGISTRY
            self.events = NULL_BUS
            self.trace = NULL_TRACER
        self._exporter: Optional[JsonlExporter] = None
        if self.enabled and self.config.export_path:
            self._exporter = JsonlExporter(self.config.export_path)
            self.events.subscribe(self._exporter)
            self.trace.add_sink(self._exporter.write_span)

    @property
    def metrics_or_none(self):
        """The registry for hot paths: ``None`` when disabled, so
        instrumentation costs one identity check."""
        return self.metrics if self.enabled else None

    @property
    def events_or_none(self):
        return self.events if self.enabled else None

    @property
    def trace_or_none(self):
        """The tracer for hot paths: ``None`` when disabled."""
        return self.trace if self.enabled else None

    def close(self) -> None:
        """Flush the final metrics line, write the Prometheus target,
        and release the export sink.  Idempotent."""
        exporter = self._exporter
        if exporter is not None:
            exporter.write_metrics(self.metrics.snapshot())
            exporter.close()
            self._exporter = None
        path = self.config.prometheus_path
        if self.enabled and path:
            self._write_prometheus(path)

    def _write_prometheus(self, path: str) -> None:
        """Atomic write so a concurrent scraper never reads a torn file."""
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.metrics.render_prometheus())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
