"""The executor's and the task graph's telemetry.

A fan-out with a metrics registry records ``pool.fanouts`` /
``pool.tasks`` and a ``pool.fanout.{stage}`` histogram, or on failure
``pool.failures`` / ``pool.failures.{stage}``; with a tracer it records
one ``fanout.{stage}`` span. A task graph records per-node wall time and
one ``graph.{node}`` span per node it runs. Each of
these reads the one duration its span handle measured, with or without
telemetry.
"""

import pytest

from repro.dataimport import registry
from repro.discovery import discover_structure
from repro.exec import ExecError, Executor, TaskGraph
from repro.linking.engine import LinkDiscoveryEngine, _pair_task
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer


def _identity(state, item):
    return item


def _boom_on_two(state, item):
    if item == 2:
        raise KeyError(f"item {item}")
    return item


def labelled(stage, count):
    return [f"{stage}:{i}" for i in range(count)]


class CountingNullTracer(NullTracer):
    """The durations-only recorder, keeping every handle it starts."""

    def __init__(self):
        self.handles = []

    def start_span(self, name, **attributes):
        handle = super().start_span(name, **attributes)
        self.handles.append((name, handle))
        return handle

    def task_durations(self):
        return [handle.duration for name, handle in self.handles if name == "task"]


def instrumented(metrics=True, tracer=True):
    executor = Executor()
    if metrics:
        executor.metrics = MetricsRegistry()
    if tracer:
        executor.tracer = Tracer()
    return executor


def observations(registry, name):
    return list(registry.histogram(name)._recent)


def counters(registry):
    return registry.snapshot()["counters"]


def histogram_counts(registry):
    return {
        name: stats["count"]
        for name, stats in registry.snapshot()["histograms"].items()
    }


class TestFanoutMetrics:
    @pytest.mark.parametrize(
        "kwargs,stage",
        [
            ({"labels": ["link:a->b", "link:b->a", "link:a->c"]}, "link"),
            ({}, "identity"),
        ],
        ids=["from-labels", "from-function-name"],
    )
    def test_success_records_counts_and_one_timing(self, kwargs, stage):
        executor = instrumented(tracer=False)
        assert executor.map_ordered(_identity, [0, 1, 2], **kwargs) == [0, 1, 2]
        assert counters(executor.metrics) == {"pool.fanouts": 1, "pool.tasks": 3}
        assert histogram_counts(executor.metrics) == {f"pool.fanout.{stage}": 1}

    def test_counts_accumulate_over_fanouts(self):
        executor = instrumented(tracer=False)
        executor.map_ordered(_identity, range(4), labels=labelled("scan", 4))
        executor.map_ordered(_identity, range(3), labels=labelled("scan", 3))
        executor.map_ordered(_identity, range(2), labels=labelled("dup", 2))
        assert counters(executor.metrics) == {"pool.fanouts": 3, "pool.tasks": 9}
        assert histogram_counts(executor.metrics) == {
            "pool.fanout.dup": 1,
            "pool.fanout.scan": 2,
        }

    def test_failure_counts_per_stage_and_no_fanout(self):
        executor = instrumented(tracer=False)
        with pytest.raises(ExecError):
            executor.map_ordered(_boom_on_two, range(4), labels=[f"dup:{i}" for i in range(4)])
        assert counters(executor.metrics) == {
            "pool.failures": 1,
            "pool.failures.dup": 1,
        }
        assert histogram_counts(executor.metrics) == {}

    def test_interrupt_is_counted_and_traced(self):
        executor = instrumented()

        def interrupt(state, item):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            executor.map_ordered(interrupt, [0], labels=labelled("scan", 1))
        assert counters(executor.metrics)["pool.failures.scan"] == 1
        (fanout,) = [s for s in executor.tracer.spans() if s.name == "fanout.scan"]
        assert (fanout.status, fanout.error) == ("error", "KeyboardInterrupt")
        # The active span context was restored: the next span is a root.
        with executor.tracer.span("op.after") as handle:
            assert handle.parent_id is None

    def test_empty_fanout(self):
        executor = instrumented()
        assert executor.map_ordered(_identity, []) == []
        assert counters(executor.metrics) == {"pool.fanouts": 1, "pool.tasks": 0}
        spans = executor.tracer.spans()
        assert [(s.name, s.attributes) for s in spans] == [
            ("fanout.identity", {"items": 0})
        ]

    def test_metrics_only_records_no_spans(self):
        executor = instrumented(tracer=False)
        executor.map_ordered(_identity, range(3))
        assert executor.tracer is None
        assert counters(executor.metrics)["pool.tasks"] == 3

    def test_tracer_only_records_spans(self):
        executor = instrumented(metrics=False)
        executor.map_ordered(_identity, range(3), labels=labelled("scan", 3))
        names = [s.name for s in executor.tracer.spans()]
        assert names == ["task", "task", "task", "fanout.scan"]

    def test_results_are_the_same_with_and_without_telemetry(self):
        items = list(range(20))
        labels = [f"link:{i}" for i in items]
        plain = Executor().map_ordered(_identity, items, labels=labels)
        assert instrumented().map_ordered(_identity, items, labels=labels) == plain


class TestGraphTelemetry:
    def test_every_node_records_its_time(self):
        registry = MetricsRegistry()
        graph = TaskGraph()
        graph.add("import", lambda results: 1)
        graph.add("statistics", lambda results: 2, deps=("import",))
        graph.add("linking", lambda results: 3, deps=("import",))
        graph.run(metrics=registry)
        counts = histogram_counts(registry)
        assert counts == {
            f"graph.{node}.seconds": 1
            for node in ("import", "statistics", "linking")
        }

    def test_node_spans_hang_under_the_caller_and_fanouts_under_nodes(self):
        tracer = Tracer()
        executor = Executor()
        executor.tracer = tracer
        graph = TaskGraph()
        graph.add("link_discovery",
                  lambda results: executor.map_ordered(
                      _identity, [0, 1], labels=labelled("link", 2)))
        graph.add("register", lambda results: None, deps=("link_discovery",))
        with tracer.span("op.add_source"):
            graph.run(tracer=tracer)
        by_name = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, []).append(span)
        (root,) = by_name["op.add_source"]
        (link,) = by_name["graph.link_discovery"]
        (register,) = by_name["graph.register"]
        (fanout,) = by_name["fanout.link"]
        assert link.parent_id == root.span_id
        assert register.parent_id == root.span_id
        assert fanout.parent_id == link.span_id
        assert all(task.parent_id == fanout.span_id for task in by_name["task"])

    def test_failed_node_span_and_no_downstream_spans(self):
        tracer = Tracer()
        graph = TaskGraph()
        graph.add("ok", lambda results: None)
        graph.add("bad", lambda results: 1 / 0, deps=("ok",))
        graph.add("downstream", lambda results: None, deps=("bad",))
        with pytest.raises(ExecError):
            graph.run(tracer=tracer)
        assert [(s.name, s.status, s.error) for s in tracer.spans()] == [
            ("graph.ok", "ok", None),
            ("graph.bad", "error", "ExecError"),
        ]


class TestOneClock:
    def test_the_fanout_observation_is_its_span_duration(self):
        executor = instrumented()
        results = executor.map_ordered(_identity, range(3), labels=labelled("scan", 3))
        assert results == [0, 1, 2]
        (fanout,) = [s for s in executor.tracer.spans() if s.name == "fanout.scan"]
        assert observations(executor.metrics, "pool.fanout.scan") == [fanout.duration]

    @pytest.mark.parametrize(
        "metrics,tracer",
        [(False, False), (True, False), (False, True)],
        ids=["no-telemetry", "metrics-only", "tracer-only"],
    )
    def test_every_item_is_timed_on_every_wiring(self, monkeypatch, metrics, tracer):
        null_tracer = CountingNullTracer()
        monkeypatch.setattr("repro.exec.pool.NULL_TRACER", null_tracer)
        executor = instrumented(metrics, tracer)
        assert executor.map_ordered(_identity, range(5)) == list(range(5))
        if tracer:
            durations = [s.duration for s in executor.tracer.spans() if s.name == "task"]
        else:
            durations = null_tracer.task_durations()
        assert len(durations) == 5
        assert all(type(s) is float and s > 0.0 for s in durations)

    def test_the_inner_loop_keeps_its_four_argument_call(self):
        results = Executor._run(_identity, [1, 2], None, None)
        assert type(results) is list
        assert results == [1, 2]

    def test_graph_seconds_are_the_node_span_durations(self):
        tracer, registry = Tracer(), MetricsRegistry()
        graph = TaskGraph()
        graph.add("import", lambda results: 1)
        graph.add("linking", lambda results: 2, deps=("import",))
        graph.run(metrics=registry, tracer=tracer)
        spans = {s.name: s.duration for s in tracer.spans()}
        for node in ("import", "linking"):
            assert graph.seconds[node] == spans[f"graph.{node}"]
            assert observations(registry, f"graph.{node}.seconds") == [
                graph.seconds[node]
            ]

    def test_graph_seconds_without_telemetry(self):
        graph = TaskGraph()
        graph.add("a", lambda results: 1)
        graph.add("b", lambda results: 2, deps=("a",))
        graph.run()
        assert sorted(graph.seconds) == ["a", "b"]
        assert all(type(s) is float and s > 0.0 for s in graph.seconds.values())


def _source(name, tag):
    rows = "\n".join(f"ACC{tag}{i:03d}\tname{i}" for i in range(8))
    database = registry.create("delimited", name).import_text(
        "accession\tname\n" + rows
    ).database
    return database, discover_structure(database)


class TestPairScans:
    def test_an_engine_without_an_executor_fans_out_inline(self):
        engine = LinkDiscoveryEngine()
        assert isinstance(engine.executor, Executor)
        for name, tag in (("a", "x"), ("b", "y")):
            engine.register_source(*_source(name, tag))
        specs = engine.pair_specs("b")
        results = engine.run_pair_specs(specs)
        assert len(results) == len(specs)
        assert results == [_pair_task(engine, spec) for spec in specs]

    def test_a_first_source_files_its_empty_fanout_under_link(self):
        # No counterparts, no specs: the fan-out still runs, is counted,
        # and is named after its stage rather than its task function.
        engine = LinkDiscoveryEngine(executor=instrumented())
        engine.register_source(*_source("a", "x"))
        links = engine.discover_for("a")
        assert (links.attribute_links, links.object_links) == ([], [])
        metrics = engine.executor.metrics
        assert counters(metrics) == {"pool.fanouts": 1, "pool.tasks": 0}
        assert len(observations(metrics, "pool.fanout.link")) == 1
        assert [(s.name, s.attributes) for s in engine.executor.tracer.spans()] == [
            ("fanout.link", {"items": 0})
        ]

    def test_pair_task_returns_links_and_comparisons(self):
        engine = LinkDiscoveryEngine()
        for name, tag in (("a", "x"), ("b", "y")):
            engine.register_source(*_source(name, tag))
        links, comparisons = _pair_task(engine, ("pair", "b", "a"))
        assert type(comparisons) is int and comparisons > 0
