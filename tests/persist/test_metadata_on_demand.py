"""A lazy open decodes a source's metadata only when a session touches it.

The open reads one short manifest row per source. A source's structure,
samples and ColumnProfiles (and the statistics built from them) are
decoded on the first read of its repository record, with keyed SQLite
reads on the session's connection. These tests pin how many sources each
kind of session decodes, that concurrent first touches decode once, that
a hydration decodes in the same read transaction as its rows, and that a
corrupt metadata row fails at first touch, naming the source.
"""

import os
import shutil
import sqlite3
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core import Aladin, AladinConfig
from repro.obs.events import HYDRATION_FAULTED
from repro.persist import SnapshotError, SnapshotStore
from repro.persist import snapshot as snapshot_module
from repro.persist.lock import SnapshotLock
from repro.serve import serialize_view

N_THREADS = 8
BROWSED = "swissprot"
PUSHED = "pdb"


@pytest.fixture(scope="module")
def snapshot(integrated_world, tmp_path_factory):
    _scenario, aladin = integrated_world
    path = tmp_path_factory.mktemp("on_demand") / "world.snapshot"
    aladin.save(path)
    aladin.detach_store()
    return path


@pytest.fixture(scope="module")
def eager(snapshot):
    system = Aladin.open(snapshot, read_only=True, lazy=False)
    yield system
    system.close()


def copy_snapshot(source, target):
    for ext in ("", "-wal", "-shm"):
        if os.path.exists(f"{source}{ext}"):
            shutil.copy(f"{source}{ext}", f"{target}{ext}")
    return target


def open_lazy(path):
    return Aladin.open(path, read_only=True, lazy=True)


def decoded(aladin):
    return aladin.hydration_stats()["decoded"]


def accession_of(eager, source):
    return eager.web.accessions(source)[0]


def equality_select(eager, source):
    attr = eager.repository.structure(source).primary_accession()
    value = accession_of(eager, source)
    return f"SELECT * FROM {attr.table} WHERE {attr.column} = '{value}'"


def count_reads(monkeypatch, method):
    """Count (and describe) every call of one store read method."""
    calls = []
    original = getattr(SnapshotStore, method)

    def counting(self, conn, name, *args):
        calls.append((name, conn, conn.in_transaction))
        return original(self, conn, name, *args)

    monkeypatch.setattr(SnapshotStore, method, counting)
    return calls


def count_metadata_reads(monkeypatch):
    """Every structure decode, and every profiles-and-samples decode."""
    return (
        count_reads(monkeypatch, "_read_source_structure"),
        count_reads(monkeypatch, "_read_source_profiles"),
    )


# ----------------------------------------------------------------------
# decode counts per session kind
# ----------------------------------------------------------------------
class TestDecodeCounts:
    def test_open_decodes_nothing(self, snapshot):
        lazy = open_lazy(snapshot)
        try:
            assert decoded(lazy) == []
            assert lazy.source_names()  # names come from the manifest
            assert all(lazy.repository.has_source(n) for n in lazy.source_names())
            assert decoded(lazy) == []
        finally:
            lazy.close()

    def test_search_decodes_nothing(self, snapshot, eager):
        lazy = open_lazy(snapshot)
        try:
            hits = lazy.search_engine().search("kinase protein", top_k=10)
            assert hits == eager.search_engine().search("kinase protein", top_k=10)
            assert decoded(lazy) == []
        finally:
            lazy.close()

    def test_pushed_down_select_decodes_nothing(self, snapshot, eager):
        statement = equality_select(eager, PUSHED)
        lazy = open_lazy(snapshot)
        try:
            got = lazy.query_engine().sql(PUSHED, statement)
            want = eager.query_engine().sql(PUSHED, statement)
            assert (got.columns, got.rows) == (want.columns, want.rows)
            stats = lazy.hydration_stats()
            assert stats["pushdown_hits"] >= 1
            assert stats["hydrated"] == []
            assert stats["decoded"] == []
        finally:
            lazy.close()

    def test_browse_decodes_exactly_one_structure(self, snapshot, eager, monkeypatch):
        structures, profiles = count_metadata_reads(monkeypatch)
        accession = accession_of(eager, BROWSED)
        lazy = open_lazy(snapshot)
        try:
            view = lazy.browser().visit(BROWSED, accession)
            assert serialize_view(view) == serialize_view(
                eager.browser().visit(BROWSED, accession)
            )
            assert decoded(lazy) == [BROWSED]
            # The page is read from the snapshot: nothing hydrates, and
            # the browsed source's profiles and samples stay encoded.
            assert lazy.hydration_stats()["hydrated"] == []
            assert [name for name, _c, _t in structures] == [BROWSED]
            assert profiles == []
        finally:
            lazy.close()

    def test_structure_read_decodes_without_hydrating(self, snapshot, eager):
        lazy = open_lazy(snapshot)
        try:
            assert lazy.repository.structure(PUSHED) == eager.repository.structure(PUSHED)
            assert decoded(lazy) == [PUSHED]
            assert lazy.hydration_stats()["hydrated"] == []
        finally:
            lazy.close()

    def test_eager_open_decodes_everything(self, snapshot, eager):
        full = Aladin.open(snapshot, read_only=True, lazy=False)
        try:
            assert decoded(full) == eager.source_names()
        finally:
            full.close()

    def test_first_maintenance_decodes_everything(self, snapshot, tmp_path):
        path = copy_snapshot(snapshot, tmp_path / "maintained.snapshot")
        writer = Aladin.open(path, lazy=True)
        try:
            assert decoded(writer) == []
            names = writer.source_names()
            writer.remove_source(names[-1])
            assert decoded(writer) == names[:-1]
        finally:
            writer.close()

    def test_in_memory_systems_report_no_decodes(self, integrated_world):
        _scenario, aladin = integrated_world
        assert aladin.hydration_stats()["decoded"] == []


# ----------------------------------------------------------------------
# one decode, one statistics build, one transaction
# ----------------------------------------------------------------------
class TestOneDecode:
    def test_hydration_decodes_in_the_rows_transaction(self, snapshot, monkeypatch):
        structures, profiles = count_metadata_reads(monkeypatch)
        body_conns = []
        original = SnapshotStore._load_tables

        def recording(self, conn, name, content_hash):
            body_conns.append((conn, conn.in_transaction))
            return original(self, conn, name, content_hash)

        transactions = []
        original_transaction = snapshot_module._read_transaction

        @contextmanager
        def counting_transaction(conn):
            transactions.append(conn)
            with original_transaction(conn):
                yield

        monkeypatch.setattr(SnapshotStore, "_load_tables", recording)
        monkeypatch.setattr(snapshot_module, "_read_transaction", counting_transaction)
        lazy = open_lazy(snapshot)
        try:
            lazy.database(BROWSED)
            assert [name for name, _conn, _txn in structures] == [BROWSED]
            assert [name for name, _conn, _txn in profiles] == [BROWSED]
            (_name, structure_conn, structure_txn), = structures
            (_name, meta_conn, meta_txn), = profiles
            (body_conn, body_txn), = body_conns
            # One read transaction on the session's connection served the
            # metadata and the rows alike.
            assert transactions == [body_conn]
            assert meta_conn is body_conn and structure_conn is body_conn
            assert meta_txn and structure_txn and body_txn
            assert not body_conn.in_transaction  # rolled back afterwards
        finally:
            lazy.close()

    def test_decode_before_hydration_is_not_repeated(self, snapshot, monkeypatch):
        structures, profiles = count_metadata_reads(monkeypatch)
        lazy = open_lazy(snapshot)
        try:
            lazy.repository.structure(BROWSED)
            (_name, conn, in_transaction), = structures
            assert in_transaction and not conn.in_transaction
            assert profiles == []
            lazy.repository.source(BROWSED)
            (_name, conn, in_transaction), = profiles
            assert in_transaction and not conn.in_transaction
            lazy.database(BROWSED)
            lazy.release_source(BROWSED)
            lazy.database(BROWSED)
            assert len(structures) == 1 and len(profiles) == 1
        finally:
            lazy.close()

    def test_engine_shares_the_record_statistics(self, snapshot):
        lazy = open_lazy(snapshot)
        try:
            lazy.database(BROWSED)
            record = lazy.repository.source(BROWSED)
            engine_stats = lazy._engine.statistics_for(BROWSED)
            assert engine_stats == record.statistics
            for attr, stats in record.statistics.items():
                assert engine_stats[attr] is stats
        finally:
            lazy.close()

    def test_profiles_decode_in_table_column_order(self, snapshot, eager):
        lazy = open_lazy(snapshot)
        try:
            for name in lazy.source_names():
                attrs = list(lazy.repository.source(name).profiles)
                assert attrs == sorted(attrs, key=lambda a: (a.table, a.column))
                assert attrs == list(eager.repository.source(name).profiles)
        finally:
            lazy.close()

    def test_concurrent_first_touches_decode_once(self, snapshot, monkeypatch, eager):
        """8 threads (more than cores) race the first touch of one stub.

        Half read the structure first (the repository path), all browse
        (the page read from the snapshot), half then fault the source in
        (the hydration path); a short switch interval makes the threads
        interleave inside the double-checked decodes, the slice
        verification and the fault-in.
        """
        structures, profiles = count_metadata_reads(monkeypatch)
        verifications = count_reads(monkeypatch, "verify_source_slice")
        accession = accession_of(eager, BROWSED)
        want = serialize_view(eager.browser().visit(BROWSED, accession))
        rounds = 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(rounds):
                # The fault count is read off the event bus: pin it on,
                # whatever REPRO_OBS says.
                config = AladinConfig()
                config.observability.enabled = True
                lazy = Aladin.open(snapshot, config=config, read_only=True, lazy=True)
                try:
                    faults = []
                    lazy.obs.events.subscribe(faults.append, kind=HYDRATION_FAULTED)
                    barrier = threading.Barrier(N_THREADS)
                    errors = []
                    views = []

                    def touch(index):
                        try:
                            barrier.wait(timeout=10)
                            if index % 2:
                                lazy.repository.structure(BROWSED)
                            view = lazy.browser().visit(BROWSED, accession)
                            views.append(serialize_view(view))
                            if index % 2 == 0:
                                lazy.database(BROWSED)
                        except Exception as exc:  # noqa: BLE001 - surfaced below
                            errors.append(exc)

                    threads = [
                        threading.Thread(target=touch, args=(i,))
                        for i in range(N_THREADS)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                    assert not any(thread.is_alive() for thread in threads)
                    assert not errors, errors
                    assert views == [want] * N_THREADS
                    rounds_so_far = [BROWSED] * (round_index + 1)
                    assert [name for name, _c, _t in structures] == rounds_so_far
                    assert [name for name, _c, _t in profiles] == rounds_so_far
                    assert [name for name, _c, _t in verifications] == rounds_so_far
                    assert [event.payload["source"] for event in faults] == [BROWSED]
                    assert decoded(lazy) == [BROWSED]
                finally:
                    lazy.close()
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# corrupt metadata fails at first touch, naming the source
# ----------------------------------------------------------------------
CORRUPTIONS = {
    "structure": "UPDATE sources SET structure = '{\"broken\": ' WHERE name = ?",
    "profile": (
        "UPDATE profiles SET profile = 'not json' WHERE rowid = "
        "(SELECT rowid FROM profiles WHERE source = ? "
        "ORDER BY table_name, column_name LIMIT 1)"
    ),
    "samples": "UPDATE sources SET samples = '[1, 2' WHERE name = ?",
}


def corrupt(snapshot, tmp_path, kind):
    path = copy_snapshot(snapshot, tmp_path / f"{kind}.snapshot")
    conn = sqlite3.connect(path)
    cursor = conn.execute(CORRUPTIONS[kind], (PUSHED,))
    assert cursor.rowcount == 1
    conn.commit()
    conn.close()
    return path


@pytest.fixture(params=sorted(CORRUPTIONS))
def corrupted(request, snapshot, tmp_path):
    return corrupt(snapshot, tmp_path, request.param)


class TestCorruptMetadata:
    def test_lazy_open_succeeds_and_others_still_work(self, corrupted, eager):
        accession = accession_of(eager, BROWSED)
        lazy = open_lazy(corrupted)
        try:
            assert lazy.source_names() == eager.source_names()
            hits = lazy.search_engine().search("kinase protein", top_k=10)
            assert hits == eager.search_engine().search("kinase protein", top_k=10)
            assert serialize_view(lazy.browser().visit(BROWSED, accession)) == (
                serialize_view(eager.browser().visit(BROWSED, accession))
            )
            assert PUSHED not in decoded(lazy)
        finally:
            lazy.close()

    def assert_names_the_source(self, touch, path):
        with pytest.raises(SnapshotError) as info:
            touch()
        assert repr(PUSHED) in str(info.value)
        assert str(path) in str(info.value)

    def test_corrupt_structure_raises_at_every_first_touch(
        self, snapshot, tmp_path, eager
    ):
        path = corrupt(snapshot, tmp_path, "structure")
        accession = accession_of(eager, PUSHED)
        lazy = open_lazy(path)
        try:
            for touch in (
                lambda: lazy.repository.structure(PUSHED),
                lambda: lazy.database(PUSHED),
                lambda: lazy.browser().visit(PUSHED, accession),
            ):
                self.assert_names_the_source(touch, path)
            assert PUSHED not in decoded(lazy)
            assert PUSHED not in lazy.hydration_stats()["hydrated"]
        finally:
            lazy.close()

    @pytest.mark.parametrize("kind", ["profile", "samples"])
    def test_corrupt_profiles_raise_at_the_first_record_read(
        self, snapshot, tmp_path, eager, kind
    ):
        """A browse reads the structure alone, so it still answers; the
        first read of the whole record — or a hydration — raises."""
        path = corrupt(snapshot, tmp_path, kind)
        accession = accession_of(eager, PUSHED)
        lazy = open_lazy(path)
        try:
            assert serialize_view(lazy.browser().visit(PUSHED, accession)) == (
                serialize_view(eager.browser().visit(PUSHED, accession))
            )
            for touch in (
                lambda: lazy.repository.source(PUSHED),
                lambda: lazy.database(PUSHED),
            ):
                self.assert_names_the_source(touch, path)
            assert decoded(lazy) == [PUSHED]  # the structure decoded fine
            assert PUSHED not in lazy.hydration_stats()["hydrated"]
        finally:
            lazy.close()

    def test_eager_open_fails_without_leaking_the_lock(self, corrupted):
        with pytest.raises(SnapshotError, match=repr(PUSHED)):
            Aladin.open(corrupted, lazy=False)
        assert not SnapshotLock(corrupted).held
        survivor = Aladin.open(corrupted, lazy=True)
        try:
            assert PUSHED in survivor.source_names()
        finally:
            survivor.close()
