"""Unit tests for the tracing core: spans, context, fan-outs, rendering.

The integration story (span trees over real pipelines) lives in
``test_trace_pipeline.py``; this file pins the building blocks: id
allocation, contextvar propagation, the executor's per-task spans, the
slow log, the null twin, and the text renderer.
"""

import threading

import pytest

from repro.exec import ExecError, Executor
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    render_spans,
)


class TestTracerBasics:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer()
        with tracer.span("op.outer", source="s1") as outer:
            with tracer.span("inner.a") as a:
                pass
            with tracer.span("inner.b") as b:
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner.a", "inner.b", "op.outer"]
        assert len({s.trace_id for s in spans}) == 1
        by_name = {s.name: s for s in spans}
        assert by_name["op.outer"].parent_id is None
        assert by_name["inner.a"].parent_id == by_name["op.outer"].span_id
        assert by_name["inner.b"].parent_id == by_name["op.outer"].span_id
        assert outer.span_id == by_name["op.outer"].span_id
        assert a.span_id != b.span_id
        assert by_name["op.outer"].attributes == {"source": "s1"}

    def test_finish_leaves_start_and_duration_on_the_handle(self):
        tracer = Tracer()
        with tracer.span("op.x") as handle:
            pass
        (span,) = tracer.spans()
        assert handle.duration == span.duration > 0.0
        assert handle.started > 0.0

    def test_sequential_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("op.first"):
            pass
        with tracer.span("op.second"):
            pass
        assert len({s.trace_id for s in tracer.spans()}) == 2
        assert [t["root"] for t in tracer.traces()] == ["op.first", "op.second"]

    def test_error_status_records_exception_type(self):
        tracer = Tracer()
        try:
            with tracer.span("op.boom"):
                raise ValueError("no")
        except ValueError:
            pass
        (span,) = tracer.spans()
        assert span.status == "error"
        assert span.error == "ValueError"
        assert span.to_dict()["error"] == "ValueError"

    def test_set_mutates_attributes_until_finish(self):
        tracer = Tracer()
        with tracer.span("op.x") as span:
            span.set(hits=3)
        assert tracer.spans()[0].attributes == {"hits": 3}

    def test_record_complete_is_a_root_span(self):
        tracer = Tracer()
        tracer.record_complete("op.open", 123.0, 0.25, path="wh.snap")
        (span,) = tracer.spans()
        assert span.parent_id is None
        assert span.name == "op.open"
        assert span.wall_time == 123.0
        assert span.duration == 0.25
        assert span.attributes == {"path": "wh.snap"}

    def test_two_tracers_never_cross_parent(self):
        # The contextvar carries the tracer identity: a span opened on
        # tracer B while tracer A has an active span starts a fresh trace.
        a, b = Tracer(), Tracer()
        with a.span("op.a"):
            with b.span("op.b"):
                pass
        assert b.spans()[0].parent_id is None
        assert a.spans() == [] or a.spans()[0].name != "op.b"

    def test_history_ring_is_bounded(self):
        tracer = Tracer(history_limit=4)
        for n in range(10):
            with tracer.span(f"op.{n}"):
                pass
        assert [s.name for s in tracer.spans()] == [
            "op.6", "op.7", "op.8", "op.9",
        ]

    def test_sink_sees_every_finished_span_and_may_break(self):
        tracer = Tracer()
        seen = []
        tracer.add_sink(lambda s: seen.append(s.name))
        tracer.add_sink(lambda s: 1 / 0)  # must not break the operation
        with tracer.span("op.a"):
            pass
        assert seen == ["op.a"]


class TestThreadPropagation:
    def test_activate_reparents_across_threads(self):
        tracer = Tracer()
        with tracer.span("op.root") as root:
            context = tracer.current()
            assert context == (root.trace_id, root.span_id)

            def worker():
                with tracer.activate(context):
                    with tracer.span("graph.node"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["graph.node"].trace_id == by_name["op.root"].trace_id
        assert by_name["graph.node"].parent_id == by_name["op.root"].span_id

    def test_activate_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.activate(None):
            with tracer.span("op.alone"):
                pass
        assert tracer.spans()[0].parent_id is None


def _boom_on_two(_state, item):
    if item == 2:
        raise KeyError(f"item {item}")
    return item


class TestFanoutSpans:
    def traced_executor(self):
        executor = Executor()
        executor.tracer = Tracer()
        return executor

    def test_tasks_hang_under_the_fanout_in_item_order_with_labels(self):
        executor = self.traced_executor()
        labels = ["link:a->b", "link:b->a"]
        with executor.tracer.span("op.root"):
            assert executor.map_ordered(_boom_on_two, [0, 1], labels=labels) == [0, 1]
        spans = executor.tracer.spans()
        fanout = next(s for s in spans if s.name == "fanout.link")
        tasks = [s for s in spans if s.name == "task"]
        assert fanout.attributes == {"items": 2}
        assert all(s.parent_id == fanout.span_id for s in tasks)
        assert all(s.trace_id == fanout.trace_id for s in tasks)
        assert [s.attributes for s in tasks] == [
            {"index": 0, "label": "link:a->b"},
            {"index": 1, "label": "link:b->a"},
        ]
        assert tasks[0].order < tasks[1].order

    def test_unlabelled_tasks_carry_their_index(self):
        executor = self.traced_executor()
        executor.map_ordered(_boom_on_two, [0, 1])
        tasks = [s for s in executor.tracer.spans() if s.name == "task"]
        assert [s.attributes for s in tasks] == [{"index": 0}, {"index": 1}]

    def test_failed_fanout_keeps_every_attempted_task(self):
        """The finished tasks and the failing one all stay in the trace;
        the task after the failure never ran, so it has no span."""
        executor = self.traced_executor()
        labels = [f"a:{i}" for i in range(4)]
        with pytest.raises(ExecError) as excinfo:
            executor.map_ordered(_boom_on_two, range(4), labels=labels)
        assert excinfo.value.task == "a:2"
        spans = executor.tracer.spans()
        fanout = next(s for s in spans if s.name == "fanout.a")
        assert (fanout.status, fanout.error) == ("error", "ExecError")
        tasks = [s for s in spans if s.name == "task"]
        assert all(s.parent_id == fanout.span_id for s in tasks)
        assert [
            (s.attributes["index"], s.attributes["label"], s.status, s.error)
            for s in tasks
        ] == [
            (0, "a:0", "ok", None),
            (1, "a:1", "ok", None),
            (2, "a:2", "error", "KeyError"),
        ]


class TestSlowLog:
    def test_slow_spans_survive_ring_eviction(self):
        tracer = Tracer(history_limit=2, slow_seconds=0.0)
        for n in range(5):
            tracer.record_complete(f"op.{n}", 0.0, 1.0 + n)
        assert len(tracer.spans()) == 2  # ring evicted the rest
        assert [s.name for s in tracer.slow_spans()] == [
            f"op.{n}" for n in range(5)
        ]

    def test_threshold_refilters_the_log(self):
        tracer = Tracer(slow_seconds=0.5)
        tracer.record_complete("op.fast", 0.0, 0.1)
        tracer.record_complete("op.slow", 0.0, 0.9)
        tracer.record_complete("op.slower", 0.0, 2.0)
        assert [s.name for s in tracer.slow_spans()] == ["op.slow", "op.slower"]
        assert [s.name for s in tracer.slow_spans(1.5)] == ["op.slower"]

    def test_clear_empties_both(self):
        tracer = Tracer(slow_seconds=0.0)
        tracer.record_complete("op.x", 0.0, 1.0)
        tracer.clear()
        assert tracer.spans() == [] and tracer.slow_spans() == []


class TestNullTracer:
    def test_everything_is_a_noop(self):
        with NULL_TRACER.span("op.x", a=1) as handle:
            handle.set(b=2)
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.traces() == []
        assert NULL_TRACER.slow_spans() == []
        assert not NULL_TRACER.enabled
        NULL_TRACER.record_complete("op.y", 0.0, 0.0)
        NULL_TRACER.finish(NULL_TRACER.start_span("z"))
        NULL_TRACER.clear()

    def test_handles_record_only_a_start_and_a_duration(self):
        with NULL_TRACER.span("op.outer") as outer:
            with NULL_TRACER.span("op.inner") as inner:
                pass
        assert outer is not inner
        assert outer.started <= inner.started
        assert outer.duration >= inner.duration > 0.0
        handle = NULL_TRACER.start_span("task", index=0)
        NULL_TRACER.finish(handle)
        assert handle.duration > 0.0
        assert (handle.trace_id, handle.span_id, handle.parent_id) == ("", "", None)
        assert NULL_TRACER.spans() == []

    def test_a_failing_span_is_timed_and_reraised(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("op.boom") as handle:
                raise ValueError("no")
        assert handle.duration > 0.0


class TestRenderSpans:
    def test_renders_an_indented_tree(self):
        tracer = Tracer()
        with tracer.span("op.add_source", source="s1"):
            with tracer.span("graph.link_discovery"):
                with tracer.span("fanout.link", items=2):
                    pass
        text = render_spans(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "- op.add_source" in lines[1]
        assert "[source=s1]" in lines[1]
        assert lines[2].startswith("    - graph.link_discovery")
        assert lines[3].startswith("      - fanout.link")
        assert "ms" in lines[3]

    def test_error_marker(self):
        tracer = Tracer()
        try:
            with tracer.span("op.x"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "!RuntimeError" in render_spans(tracer.spans())

    def test_slow_threshold_keeps_ancestor_chains(self):
        tracer = Tracer()
        tracer.record_complete("op.lonely", 0.0, 0.001)
        with tracer.span("op.root"):
            with tracer.span("mid.fast"):
                pass
        spans = tracer.spans()
        # Fake one deep slow span under mid.fast for the pruning check.
        mid = next(s for s in spans if s.name == "mid.fast")
        slow = type(mid)(
            mid.trace_id, "sX", mid.span_id, "deep.slow", 0.0, 5.0, {},
        )
        text = render_spans(spans + [slow], slow_threshold=2.0)
        assert "deep.slow" in text
        assert "op.root" in text and "mid.fast" in text  # ancestors kept
        assert "op.lonely" not in text  # fast root pruned

    def test_orphans_render_at_root_and_dicts_accepted(self):
        records = [
            {
                "trace_id": "t1", "span_id": "s2", "parent_id": "gone",
                "name": "orphan", "wall_time": 0.0, "duration": 0.5,
                "attributes": {}, "status": "ok",
            }
        ]
        text = render_spans(records)
        assert "- orphan" in text

    def test_empty_input_renders_empty(self):
        assert render_spans([]) == ""
