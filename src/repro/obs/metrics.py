"""Thread-safe metrics registry: counters, gauges, duration histograms.

One registry per :class:`~repro.core.aladin.Aladin` instance holds every
counter the system used to scatter across layers.  Three metric kinds:

``Counter``
    Monotonically increasing integer (``pool.fanouts``, ``auto.link.serial``).
``Gauge``
    A point-in-time value.  Either set explicitly or registered with a
    provider callable that is resolved at snapshot time — the provider
    form is how the pre-existing ad-hoc counters
    (``Database.column_cache_stats()``, ``Aladin.hydration_stats()``,
    ``BoundedRecordScorer.cache_hits``) become registry views without
    double bookkeeping.
``Histogram``
    Duration distribution: count/sum/min/max plus p50/p95/p99 over a
    bounded reservoir of the most recent observations.

Disabled observability must be zero-cost, so the registry has a null
twin: :data:`NULL_REGISTRY` hands out shared no-op metric objects whose
methods are empty and whose ``snapshot()`` is ``{}``.  Hot paths
(executor fan-outs, graph nodes) skip even that by receiving ``None``
instead of a registry.

Durations observed here are ``perf_counter`` seconds — never
wall-clock — per the repo's timing policy; a stage's is read from the
span handle that timed it (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import Any, Callable, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
]

#: Observations kept per histogram for percentile estimation.  Count,
#: sum, min, and max remain exact over the full stream; p50/p95/p99 are
#: over the most recent window, which is what a "where is time going
#: *now*" question wants anyway.
HISTOGRAM_RESERVOIR = 1024


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value; explicit ``set`` or provider-resolved."""

    __slots__ = ("_lock", "_value", "_provider", "_on_error")

    def __init__(
        self,
        lock: threading.RLock,
        provider: Optional[Callable[[], Any]] = None,
        on_error: Optional[Callable[[], None]] = None,
    ) -> None:
        self._lock = lock
        self._value: Any = 0
        self._provider = provider
        self._on_error = on_error

    def set(self, value: Any) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Any:
        provider = self._provider
        if provider is not None:
            try:
                return provider()
            except Exception:  # noqa: BLE001 - a broken provider must not break snapshot()
                on_error = self._on_error
                if on_error is not None:
                    on_error()
                return None
        return self._value


class Histogram:
    """Duration distribution with exact count/sum/min/max and
    reservoir-estimated p50/p95/p99."""

    __slots__ = ("_lock", "_count", "_sum", "_min", "_max", "_recent")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._recent: deque = deque(maxlen=HISTOGRAM_RESERVOIR)

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def stats(self) -> Dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
            ordered = sorted(self._recent)
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                "p99": _percentile(ordered, 0.99),
            }


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _prometheus_name(name: str) -> str:
    """Map a dot-separated family to a legal Prometheus metric name."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"repro_{safe}"


def _prometheus_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class MetricsRegistry:
    """Name -> metric map with get-or-create accessors.

    Metric names are dot-separated families (``pool.fanout.link``,
    ``persist.checkpoint_seconds``); the README's observability section
    documents the catalog.  One shared re-entrant lock guards every
    mutation — metric updates are tiny, contention is not a concern at
    this fan-out granularity, and a single lock keeps ``snapshot()``
    coherent.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(self._lock)
            return metric

    def gauge(self, name: str, provider: Optional[Callable[[], Any]] = None) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(
                    self._lock, provider, on_error=self._count_provider_error
                )
            elif provider is not None:
                metric._provider = provider
            return metric

    def _count_provider_error(self) -> None:
        """A gauge provider raised during resolution: the gauge degrades
        to ``None`` (documented), but the failure is counted so broken
        providers are visible instead of invisible."""
        self.counter("obs.provider_errors").inc()

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(self._lock)
            return metric

    def snapshot(self) -> Dict[str, Any]:
        """One coherent dict of everything: counters, resolved gauges,
        histogram stats.  Safe to ``json.dumps`` directly."""
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            gauges = {name: g.value for name, g in sorted(self._gauges.items())}
            histograms = {
                name: h.stats() for name, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def export_jsonl(self, path: str) -> None:
        """Append the current snapshot as one JSON line."""
        with open(path, "a", encoding="utf-8") as fh:
            # repro-lint: allow[raw-json-dumps] obs is a leaf and cannot import persist; export lines are not content-hashed
            fh.write(json.dumps({"type": "metrics", "metrics": self.snapshot()}) + "\n")

    def render_prometheus(self) -> str:
        """Render the whole registry in Prometheus text exposition format.

        One family per metric, names prefixed ``repro_`` with dots
        mapped to underscores.  Counters get the conventional ``_total``
        suffix; gauges expose only numeric values (a provider that
        degraded to ``None`` is skipped — and counted in
        ``obs.provider_errors``); histograms render as summaries:
        ``{quantile="0.5|0.95|0.99"}`` sample lines plus ``_sum`` and
        ``_count``.  Families are emitted once each (a sanitization
        collision drops the later family rather than corrupting the
        exposition), so scrapers always see well-formed output.
        """
        snapshot = self.snapshot()
        lines: list = []
        seen: set = set()

        def family(name: str, kind: str) -> Optional[str]:
            fam = _prometheus_name(name)
            if kind == "counter":
                fam += "_total"
            if fam in seen:
                return None
            seen.add(fam)
            lines.append(f"# TYPE {fam} {kind}")
            return fam

        for name, value in snapshot["counters"].items():
            fam = family(name, "counter")
            if fam is not None:
                lines.append(f"{fam} {_prometheus_value(value)}")
        for name, value in snapshot["gauges"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            fam = family(name, "gauge")
            if fam is not None:
                lines.append(f"{fam} {_prometheus_value(value)}")
        for name, stats in snapshot["histograms"].items():
            fam = family(name, "summary")
            if fam is None:
                continue
            for quantile in ("p50", "p95", "p99"):
                if quantile in stats:
                    lines.append(
                        f'{fam}{{quantile="0.{quantile[1:]}"}} '
                        f"{_prometheus_value(stats[quantile])}"
                    )
            lines.append(f"{fam}_sum {_prometheus_value(stats['sum'])}")
            lines.append(f"{fam}_count {_prometheus_value(stats['count'])}")
        return "\n".join(lines) + "\n" if lines else ""


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value: Any) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def stats(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """The disabled registry: every accessor returns a shared no-op
    metric, nothing is ever stored, ``snapshot()`` is empty."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, provider: Optional[Callable[[], Any]] = None) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def export_jsonl(self, path: str) -> None:
        pass

    def render_prometheus(self) -> str:
        return ""


NULL_REGISTRY = NullMetricsRegistry()
