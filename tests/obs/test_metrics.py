"""The metrics registry: counters, gauges, histograms, and the null twin."""

import json
import re
import threading

import pytest

from repro.obs.metrics import (
    HISTOGRAM_RESERVOIR,
    MetricsRegistry,
    NULL_REGISTRY,
    _percentile,
)


class TestCountersAndGauges:
    def test_counter_get_or_create_and_increment(self):
        registry = MetricsRegistry()
        registry.counter("pool.fanouts").inc()
        registry.counter("pool.fanouts").inc(3)
        assert registry.counter("pool.fanouts").value == 4
        assert registry.snapshot()["counters"] == {"pool.fanouts": 4}

    def test_gauge_explicit_set(self):
        registry = MetricsRegistry()
        registry.gauge("resident.bytes").set(1234)
        assert registry.snapshot()["gauges"]["resident.bytes"] == 1234

    def test_gauge_provider_resolves_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.gauge("cache.hits", provider=lambda: state["hits"])
        state["hits"] = 7
        assert registry.snapshot()["gauges"]["cache.hits"] == 7

    def test_broken_provider_degrades_to_none(self):
        registry = MetricsRegistry()
        registry.gauge("bad", provider=lambda: 1 / 0)
        assert registry.snapshot()["gauges"]["bad"] is None

    def test_broken_provider_is_counted(self):
        registry = MetricsRegistry()
        registry.gauge("bad", provider=lambda: 1 / 0)
        registry.gauge("good", provider=lambda: 7)
        # The counter is created lazily: absent until the first error.
        assert "obs.provider_errors" not in registry.snapshot()["counters"]
        first = registry.snapshot()
        second = registry.snapshot()
        assert first["counters"]["obs.provider_errors"] == 1
        assert second["counters"]["obs.provider_errors"] == 2
        assert second["gauges"] == {"bad": None, "good": 7}

    def test_direct_value_reads_also_count(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("bad", provider=lambda: 1 / 0)
        assert gauge.value is None
        assert registry.counter("obs.provider_errors").value == 1


class TestHistograms:
    def test_stats_over_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("stage.link")
        for value in (0.1, 0.2, 0.3, 0.4):
            hist.observe(value)
        stats = registry.snapshot()["histograms"]["stage.link"]
        assert stats["count"] == 4
        assert stats["sum"] == pytest.approx(1.0)
        assert stats["min"] == pytest.approx(0.1)
        assert stats["max"] == pytest.approx(0.4)
        assert stats["mean"] == pytest.approx(0.25)
        assert stats["p50"] == pytest.approx(0.2)
        assert stats["p95"] == pytest.approx(0.4)
        assert stats["p99"] == pytest.approx(0.4)

    def test_p99_separates_from_p95_on_long_tails(self):
        registry = MetricsRegistry()
        hist = registry.histogram("tail")
        for n in range(100):
            hist.observe(1.0 if n < 98 else 50.0)
        stats = hist.stats()
        assert stats["p95"] == pytest.approx(1.0)
        assert stats["p99"] == pytest.approx(50.0)

    def test_empty_histogram_stats(self):
        registry = MetricsRegistry()
        registry.histogram("never.observed")
        assert registry.snapshot()["histograms"]["never.observed"] == {
            "count": 0,
            "sum": 0.0,
        }

    def test_count_and_sum_exact_beyond_reservoir(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for _ in range(HISTOGRAM_RESERVOIR + 100):
            hist.observe(1.0)
        stats = hist.stats()
        assert stats["count"] == HISTOGRAM_RESERVOIR + 100
        assert stats["sum"] == pytest.approx(HISTOGRAM_RESERVOIR + 100)

    def test_nearest_rank_percentile(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([5.0], 0.95) == 5.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class TestThreadSafety:
    def test_concurrent_increments_are_lost_update_free(self):
        registry = MetricsRegistry()

        def spin():
            for _ in range(1000):
                registry.counter("n").inc()
                registry.histogram("h").observe(0.001)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("n").value == 8000
        assert registry.histogram("h").count == 8000


class TestSnapshotAndExport:
    def test_snapshot_is_json_safe_and_sorted(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must not raise
        path = tmp_path / "metrics.jsonl"
        registry.export_jsonl(str(path))
        registry.export_jsonl(str(path))  # appends
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["metrics", "metrics"]
        assert lines[0]["metrics"]["counters"] == {"a": 1, "b": 1}


#: ``family{labels} value`` — the grammar every sample line must match.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"          # metric name
    r'(\{[a-zA-Z_]+="[^"]*"\})?'        # optional single label
    r" (-?[0-9.e+-]+|NaN|[+-]Inf)$"     # value
)
TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_][a-zA-Z0-9_]*" r" (counter|gauge|summary)$"
)


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("pool.fanouts").inc(3)
    registry.counter("auto.link.serial").inc()
    registry.gauge("resident.bytes").set(4096)
    registry.gauge("cache.ratio").set(0.75)
    registry.gauge("backend.name").set("thread")  # non-numeric: skipped
    registry.gauge("bad", provider=lambda: 1 / 0)  # None: skipped
    for value in (0.1, 0.2, 0.3, 0.4):
        registry.histogram("stage.link_seconds").observe(value)
    return registry


class TestPrometheusRendering:
    def test_every_line_is_well_formed(self):
        text = populated_registry().render_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            if line.startswith("#"):
                assert TYPE_LINE.match(line), f"bad TYPE line: {line!r}"
            else:
                assert SAMPLE_LINE.match(line), f"bad sample line: {line!r}"

    def test_no_duplicate_families_and_all_prefixed(self):
        text = populated_registry().render_prometheus()
        families = [
            line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(families) == len(set(families))
        assert all(f.startswith("repro_") for f in families)

    def test_counters_get_total_suffix(self):
        text = populated_registry().render_prometheus()
        assert "# TYPE repro_pool_fanouts_total counter" in text
        assert "\nrepro_pool_fanouts_total 3\n" in text
        assert "repro_auto_link_serial_total 1" in text

    def test_gauges_numeric_only(self):
        text = populated_registry().render_prometheus()
        assert "repro_resident_bytes 4096" in text
        assert "repro_cache_ratio 0.75" in text
        # Non-numeric and degraded-to-None gauges never reach the scrape.
        assert "backend_name" not in text
        assert "repro_bad" not in text

    def test_histograms_render_as_summaries(self):
        text = populated_registry().render_prometheus()
        assert "# TYPE repro_stage_link_seconds summary" in text
        assert 'repro_stage_link_seconds{quantile="0.50"} 0.2' in text
        assert 'repro_stage_link_seconds{quantile="0.95"} 0.4' in text
        assert 'repro_stage_link_seconds{quantile="0.99"} 0.4' in text
        assert "repro_stage_link_seconds_sum 1.0" in text
        assert "repro_stage_link_seconds_count 4" in text

    def test_empty_histogram_has_count_and_sum_but_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("quiet")
        text = registry.render_prometheus()
        assert "repro_quiet_count 0" in text
        assert "repro_quiet_sum 0.0" in text
        assert "quantile" not in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert NULL_REGISTRY.render_prometheus() == ""


class TestNullRegistry:
    def test_everything_is_a_shared_noop(self):
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.gauge("y").set(5)
        NULL_REGISTRY.histogram("z").observe(1.0)
        assert NULL_REGISTRY.counter("x").value == 0
        assert NULL_REGISTRY.histogram("z").count == 0
        assert NULL_REGISTRY.snapshot() == {}
        assert not NULL_REGISTRY.enabled
        assert MetricsRegistry().enabled

    def test_null_export_writes_nothing(self, tmp_path):
        path = tmp_path / "never.jsonl"
        NULL_REGISTRY.export_jsonl(str(path))
        assert not path.exists()
