"""The lifecycle event bus: ordering, subscription, history, export."""

import json
import threading

from repro.obs.events import (
    EventBus,
    JsonlExporter,
    LIFECYCLE_EVENTS,
    NULL_BUS,
    SOURCE_ADDED,
    SOURCE_REMOVED,
)


class TestEmitAndHistory:
    def test_sequence_numbers_are_emission_order(self):
        bus = EventBus()
        bus.emit(SOURCE_ADDED, source="a")
        bus.emit(SOURCE_REMOVED, source="a")
        history = bus.history()
        assert [e.seq for e in history] == [1, 2]
        assert [e.kind for e in history] == [SOURCE_ADDED, SOURCE_REMOVED]
        assert history[0].payload == {"source": "a"}
        # Dual stamp: wall time for humans, perf_counter for arithmetic.
        assert history[0].monotonic <= history[1].monotonic

    def test_history_filter_and_kinds(self):
        bus = EventBus()
        bus.emit(SOURCE_ADDED, source="a")
        bus.emit(SOURCE_ADDED, source="b")
        bus.emit(SOURCE_REMOVED, source="a")
        assert len(bus.history(SOURCE_ADDED)) == 2
        assert bus.kinds() == [SOURCE_ADDED, SOURCE_REMOVED]
        bus.clear()
        assert bus.history() == []

    def test_history_is_bounded(self):
        bus = EventBus(history_limit=4)
        for i in range(10):
            bus.emit(SOURCE_ADDED, i=i)
        history = bus.history()
        assert len(history) == 4
        assert [e.seq for e in history] == [7, 8, 9, 10]  # seq keeps counting

    def test_concurrent_emitters_get_unique_sequences(self):
        bus = EventBus()

        def spin():
            for _ in range(200):
                bus.emit(SOURCE_ADDED)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in bus.history()]
        assert len(seqs) == len(set(seqs)) == 800


class TestSubscription:
    def test_global_and_kind_scoped_handlers(self):
        bus = EventBus()
        seen_all, seen_removed = [], []
        bus.subscribe(lambda e: seen_all.append(e.kind))
        bus.subscribe(lambda e: seen_removed.append(e.kind), kind=SOURCE_REMOVED)
        bus.emit(SOURCE_ADDED)
        bus.emit(SOURCE_REMOVED)
        assert seen_all == [SOURCE_ADDED, SOURCE_REMOVED]
        assert seen_removed == [SOURCE_REMOVED]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(seen.append)
        bus.emit(SOURCE_ADDED)
        bus.unsubscribe(handler)
        bus.emit(SOURCE_ADDED)
        assert len(seen) == 1


class TestSubscriptionConcurrency:
    def test_subscribe_unsubscribe_racing_emit(self):
        """Handlers churn from four threads while four more emit.

        The bus snapshots the handler list under its lock before
        delivering, so emission never trips over concurrent list
        mutation, and a handler registered for the whole run sees every
        event exactly once.
        """
        bus = EventBus(history_limit=10_000)
        stop = threading.Event()
        seen = []
        bus.subscribe(seen.append)  # the stable witness
        errors = []

        def churn():
            while not stop.is_set():
                handler = bus.subscribe(lambda e: None)
                bus.unsubscribe(handler)

        def emit():
            try:
                for _ in range(500):
                    bus.emit(SOURCE_ADDED)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        churners = [threading.Thread(target=churn) for _ in range(4)]
        emitters = [threading.Thread(target=emit) for _ in range(4)]
        for t in churners + emitters:
            t.start()
        for t in emitters:
            t.join()
        stop.set()
        for t in churners:
            t.join()
        assert errors == []
        assert len(seen) == 2000
        assert sorted(e.seq for e in seen) == list(range(1, 2001))

    def test_kind_scoped_churn_does_not_drop_global_delivery(self):
        bus = EventBus()
        stop = threading.Event()
        removed_seen = []
        bus.subscribe(removed_seen.append, kind=SOURCE_REMOVED)

        def churn():
            while not stop.is_set():
                handler = bus.subscribe(lambda e: None, kind=SOURCE_REMOVED)
                bus.unsubscribe(handler)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(300):
                bus.emit(SOURCE_REMOVED, source="x")
        finally:
            stop.set()
            churner.join()
        assert len(removed_seen) == 300


class TestEventShape:
    def test_to_dict_round_trips_through_json(self):
        bus = EventBus()
        event = bus.emit(SOURCE_ADDED, source="sp", links=3)
        record = json.loads(json.dumps(event.to_dict()))
        assert record["type"] == "event"
        assert record["kind"] == SOURCE_ADDED
        assert record["payload"] == {"source": "sp", "links": 3}

    def test_lifecycle_catalog_is_complete(self):
        assert len(LIFECYCLE_EVENTS) == 10  # 7 core + 3 serve.*
        assert len(set(LIFECYCLE_EVENTS)) == 10
        for kind in LIFECYCLE_EVENTS:
            assert "." in kind  # family.transition naming


class TestNullBus:
    def test_emits_vanish(self):
        assert NULL_BUS.emit(SOURCE_ADDED, source="x") is None
        assert NULL_BUS.history() == []
        assert NULL_BUS.kinds() == []
        assert not NULL_BUS.enabled
        NULL_BUS.unsubscribe(NULL_BUS.subscribe(lambda e: None))  # no-ops


class TestJsonlExporter:
    def test_events_batched_and_metrics_final(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        bus = EventBus()
        exporter = JsonlExporter(str(path))
        bus.subscribe(exporter)
        bus.emit(SOURCE_ADDED, source="a")
        # Batched: the event may still sit in the buffer, but
        # write_metrics forces a flush of everything before it.
        exporter.write_metrics({"counters": {"n": 1}})
        assert json.loads(path.read_text().splitlines()[0])["kind"] == SOURCE_ADDED
        exporter.close()
        exporter.close()  # idempotent
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["event", "metrics"]

    def test_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        bus = EventBus()
        exporter = JsonlExporter(str(path), flush_every=3)
        bus.subscribe(exporter)
        bus.emit(SOURCE_ADDED, source="a")
        bus.emit(SOURCE_ADDED, source="b")
        # Below the batch size nothing has hit the disk yet...
        assert path.read_text() == ""
        bus.emit(SOURCE_ADDED, source="c")
        # ...and the Nth record flushes the whole batch.
        assert len(path.read_text().splitlines()) == 3

    def test_no_records_lost_across_close(self, tmp_path):
        # Regression: buffered tail records must survive close().
        path = tmp_path / "obs.jsonl"
        bus = EventBus()
        exporter = JsonlExporter(str(path), flush_every=1000)
        bus.subscribe(exporter)
        total = 157  # not a multiple of any flush interval
        for n in range(total):
            bus.emit(SOURCE_ADDED, source=f"s{n}")
        exporter.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == total
        assert [line["payload"]["source"] for line in lines] == [
            f"s{n}" for n in range(total)
        ]

    def test_writes_after_close_are_swallowed(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        bus = EventBus()
        exporter = JsonlExporter(str(path))
        bus.subscribe(exporter)
        exporter.close()
        bus.emit(SOURCE_ADDED)  # must not raise through the pipeline
        assert path.read_text() == ""
