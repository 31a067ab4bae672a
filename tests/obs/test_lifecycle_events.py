"""Lifecycle events fire exactly once per transition.

One full maintenance story — adds, a snapshot save, a checkpointed add,
a below-threshold update, an above-threshold update, a removal — is
replayed, and the event counts must match the documented lifecycle
exactly: no operation may emit an extra (or swallow a) transition.
"""

import threading

from repro.core import Aladin, AladinConfig
from repro.obs.events import (
    CHECKPOINT_COMMITTED,
    HYDRATION_FAULTED,
    SNAPSHOT_OPENED,
    SOURCE_ADDED,
    SOURCE_REMOVED,
    SOURCE_UPDATED,
)

def tsv(rows, tag=""):
    body = "\n".join(f"ACC{tag}{i:03d}\tname{i}\tdescription {tag} {i}"
                     for i in range(rows))
    return "accession\tname\tdescription\n" + body


def make_aladin():
    config = AladinConfig()
    # Pin enablement: this suite tests the *enabled* semantics and must
    # pass under REPRO_OBS=0 too (CI runs tier-1 both ways).
    config.observability.enabled = True
    return Aladin(config)


def test_exactly_one_event_per_transition(tmp_path):
    aladin = make_aladin()
    try:
        aladin.add_source("s1", "delimited", tsv(10, "a"))
        aladin.add_source("s2", "delimited", tsv(10, "b"))
        aladin.save(str(tmp_path / "wh.snap"))
        aladin.add_source("s3", "delimited", tsv(10, "c"))
        # Below threshold: same row count, data swapped in place.
        aladin.update_source("s1", tsv(10, "a2"))
        # Above threshold: row count doubles -> full re-analysis.
        aladin.update_source("s2", tsv(20, "b2"))
        aladin.remove_source("s3")

        events = aladin.obs.events.history()
        counts = {}
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        # 2 plain adds + the checkpointed add + the re-analysis re-add.
        assert counts[SOURCE_ADDED] == 4
        assert counts[SOURCE_UPDATED] == 2
        # The re-analysis removal + the explicit removal.
        assert counts[SOURCE_REMOVED] == 2
        # Writes: s3 add, s1 in-place update, s2 re-add. Removes: s2
        # re-analysis, s3 removal.
        checkpoints = aladin.obs.events.history(CHECKPOINT_COMMITTED)
        assert [e.payload["op"] for e in checkpoints].count("write") == 3
        assert [e.payload["op"] for e in checkpoints].count("remove") == 2

        # Payload shape of the update pair.
        updated = aladin.obs.events.history(SOURCE_UPDATED)
        assert updated[0].payload["source"] == "s1"
        assert updated[0].payload["reanalyzed"] is False
        assert updated[1].payload["source"] == "s2"
        assert updated[1].payload["reanalyzed"] is True

        # Emission order is lifecycle order: a source's checkpoint
        # commits before its source.added completes the integration.
        kinds = [e.kind for e in events]
        first_checkpoint = kinds.index(CHECKPOINT_COMMITTED)
        assert kinds[first_checkpoint + 1] == SOURCE_ADDED

        # Sequence numbers are strictly increasing.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    finally:
        aladin.close()


def test_open_and_hydration_events(tmp_path):
    snap = tmp_path / "wh.snap"
    writer = Aladin(AladinConfig())
    writer.add_source("s1", "delimited", tsv(10, "a"))
    writer.add_source("s2", "delimited", tsv(10, "b"))
    writer.save(str(snap))
    writer.close()

    config = AladinConfig()
    config.observability.enabled = True
    reader = Aladin.open(str(snap), config=config, read_only=True, lazy=True)
    try:
        assert [e.kind for e in reader.obs.events.history()] == [SNAPSHOT_OPENED]
        opened = reader.obs.events.history(SNAPSHOT_OPENED)[0].payload
        assert opened["lazy"] is True
        assert opened["read_only"] is True
        assert opened["sources"] == 2
        reader.database("s2")
        faults = reader.obs.events.history(HYDRATION_FAULTED)
        assert [e.payload["source"] for e in faults] == ["s2"]
        assert faults[0].payload["payload_bytes"] > 0
        reader.database("s2")  # already resident: no second fault
        assert len(reader.obs.events.history(HYDRATION_FAULTED)) == 1
    finally:
        reader.close()


def test_concurrent_faults_emit_exactly_once(tmp_path):
    """Two threads touching the same stub race to hydrate it; the
    double-checked hydrate lock makes one of them win, so exactly one
    HYDRATION_FAULTED is emitted — never two."""
    snap = tmp_path / "wh.snap"
    writer = Aladin(AladinConfig())
    writer.add_source("s1", "delimited", tsv(10, "a"))
    writer.add_source("s2", "delimited", tsv(10, "b"))
    writer.save(str(snap))
    writer.close()

    config = AladinConfig()
    config.observability.enabled = True
    reader = Aladin.open(str(snap), config=config, read_only=True, lazy=True)
    try:
        barrier = threading.Barrier(2)
        errors = []

        def fault():
            try:
                barrier.wait()
                reader.database("s1")
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=fault) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        faults = reader.obs.events.history(HYDRATION_FAULTED)
        assert [e.payload["source"] for e in faults] == ["s1"]
    finally:
        reader.close()


def test_disabled_observability_is_a_noop():
    config = AladinConfig()
    config.observability.enabled = False
    aladin = Aladin(config)
    try:
        aladin.add_source("s1", "delimited", tsv(8, "a"))
        aladin.add_source("s2", "delimited", tsv(8, "b"))
        assert aladin.metrics() == {}
        assert aladin.obs.events.history() == []
        # Hot paths get None, not even the null registry.
        assert aladin.executor.metrics is None
        assert aladin.executor.tracer is None
        # The legacy ad-hoc counters keep working regardless.
        assert aladin.hydration_stats()["sources"] == 2
    finally:
        aladin.close()
