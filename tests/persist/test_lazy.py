"""Lazy hydration is a when-to-load decision, never a what-you-see one.

The differential contract of the lazy open: a system opened with
``Aladin.open(lazy=True)`` must be observably identical to the freshly
integrated in-memory system that wrote the snapshot — rows, column
profiles, link webs, duplicate sets, exported postings, and BM25 rankings
byte for byte — while reading only the manifest up front and faulting
each source in on first touch. The suite pins both halves:

* equality — every access path produces the writer's answer, and after
  maintenance (add/update) a lazy open matches a ``lazy=False`` open
  (every source faulted in at open), and
* laziness — the open hydrates nothing, a BM25 search hydrates nothing
  (the lazy index serves postings from SQL), a single-table SELECT with
  an equality filter is answered by pushdown without hydration, and a
  browse faults in exactly the one source it touches.

Error shapes must not change either: bad SQL, unknown tables, and
unknown sources raise exactly what the in-memory path raises.

The final test is the writer/reader race: a parent checkpoints a source
in a loop while a forked child lazily opens read-only and faults sources
in. ``load_source_body`` re-fetches the content hash inside one read
transaction, so the child must always see a consistent slice — old or
new, never torn; a cross-object mismatch may only surface as the
designed "changed under a lazy reader" error, never as corruption.
"""

import json
import os
import shutil
import sqlite3

import pytest

from repro.core import Aladin, AladinConfig
from repro.core.config import config_from_dict, config_to_dict
from repro.persist import SnapshotError
from repro.persist.snapshot import read_index_generation
from repro.relational.schema import SchemaError
from repro.relational.sql import SqlError
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

QUERIES = ("kinase", "protein structure", "binding domain")


# ----------------------------------------------------------------------
# fixtures: one saved world, its writer as the reference, fresh lazy opens
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snapshot(integrated_world, tmp_path_factory):
    scenario, aladin = integrated_world
    path = tmp_path_factory.mktemp("lazy") / "world.snapshot"
    aladin.save(path)
    aladin.detach_store()
    return path


@pytest.fixture(scope="module")
def eager(integrated_world, snapshot):
    """The in-memory system that wrote the snapshot (read, never mutated)."""
    _scenario, aladin = integrated_world
    return aladin


@pytest.fixture()
def lazy(snapshot):
    aladin = Aladin.open(snapshot, read_only=True, lazy=True)
    yield aladin
    aladin.close()


def copy_snapshot(src, dst):
    shutil.copy(src, dst)
    for ext in ("-wal", "-shm"):
        sidecar = str(src) + ext
        if os.path.exists(sidecar):
            shutil.copy(sidecar, str(dst) + ext)
    return dst


# ----------------------------------------------------------------------
# comparison helpers (the test_incremental_vs_batch shapes, made exact:
# the lazy index restores the writer's documents in order, so even doc
# ids must agree)
# ----------------------------------------------------------------------
def link_web(aladin):
    return (
        [
            (l.source_a, l.accession_a, l.source_b, l.accession_b,
             l.kind, l.certainty, l.evidence)
            for l in aladin.repository.object_links()
        ],
        [(l.key(), l.score, l.kind, l.encoded)
         for l in aladin.repository.attribute_links()],
    )


def duplicate_set(aladin):
    return [
        (l.source_a, l.accession_a, l.source_b, l.accession_b, l.certainty)
        for l in aladin.repository.object_links()
        if l.kind == "duplicate"
    ]


def all_rows(aladin):
    return {
        name: {
            table.name: list(table.rows())
            for table in aladin.database(name).tables()
        }
        for name in aladin.source_names()
    }


def rankings(aladin):
    engine = aladin.search_engine()
    return {
        query: [
            (h.source, h.accession, h.score, tuple(sorted(h.matched_fields)))
            for h in engine.search(query, top_k=50)
        ]
        for query in QUERIES
    }


def primary_lookup(eager, source):
    """(table, column, first value) of the source's accession column."""
    attr = eager.repository.structure(source).primary_accession()
    table = eager.database(source).table(attr.table)
    return attr.table, attr.column, table.non_null_values(attr.column)[0]


# ----------------------------------------------------------------------
# the open itself: manifest only, knobs respected
# ----------------------------------------------------------------------
class TestManifestOnlyOpen:
    def test_open_hydrates_nothing(self, lazy, eager):
        stats = lazy.hydration_stats()
        assert stats["lazy"] is True
        assert stats["hydrated"] == []
        assert stats["resident_bytes"] == 0
        assert lazy.source_names() == eager.source_names()
        # The manifest carries the catalog: structure, profiles, samples,
        # and row counts are all readable without touching a single row.
        for name in eager.source_names():
            lazy_record = lazy.repository.source(name)
            eager_record = eager.repository.source(name)
            assert lazy_record.row_counts == eager_record.row_counts
            assert lazy_record.profiles == eager_record.profiles
            assert lazy_record.sample_rows == eager_record.sample_rows
        assert lazy.hydration_stats()["hydrated"] == []

    def test_eager_stats_shape(self, snapshot, eager):
        """``lazy=False`` is the lazy open with every source faulted in."""
        full = Aladin.open(snapshot, read_only=True, lazy=False)
        try:
            stats = full.hydration_stats()
            assert stats["hydrated"] == sorted(eager.source_names())
            assert all(entry["hydrated"] for entry in stats["per_source"].values())
            assert stats["resident_bytes"] > 0
            assert stats["pushdown_hits"] == 0
            assert all_rows(full) == all_rows(eager)
        finally:
            full.close()

    def test_env_and_flag_control(self, snapshot, monkeypatch):
        # The retired REPRO_PERSIST_LAZY knob selects nothing any more:
        # only the explicit argument decides what is faulted in at open.
        monkeypatch.setenv("REPRO_PERSIST_LAZY", "0")
        by_default = Aladin.open(snapshot, read_only=True)
        assert by_default.hydration_stats()["hydrated"] == []
        by_default.close()
        full = Aladin.open(snapshot, read_only=True, lazy=False)
        assert full.hydration_stats()["hydrated"] == sorted(full.source_names())
        full.close()


# ----------------------------------------------------------------------
# differential equality: lazy == writer, byte for byte
# ----------------------------------------------------------------------
class TestDifferentialEquality:
    def test_rows_identical_after_full_hydration(self, lazy, eager):
        assert all_rows(lazy) == all_rows(eager)
        assert lazy.hydration_stats()["hydrated"] == eager.source_names()
        assert lazy.hydration_stats()["resident_bytes"] > 0

    def test_links_identical_without_hydration(self, lazy, eager):
        assert link_web(lazy) == link_web(eager)
        assert duplicate_set(lazy) == duplicate_set(eager)
        assert duplicate_set(eager), "corpus produced no duplicates to compare"
        # The link web loads from its own snapshot slice, not the rows.
        assert lazy.hydration_stats()["hydrated"] == []

    def test_search_identical_and_hydrates_zero(self, lazy, eager):
        assert rankings(lazy) == rankings(eager)
        assert any(rankings(eager).values()), "no query returned hits"
        # Postings stream from index_postings by token; no source faulted.
        assert lazy.hydration_stats()["hydrated"] == []

    def test_exported_postings_identical(self, lazy, eager):
        assert (
            list(lazy._index.export_documents())
            == list(eager._index.export_documents())
        )


# ----------------------------------------------------------------------
# SQL pushdown: answered on the snapshot, declined identically
# ----------------------------------------------------------------------
class TestSqlPushdown:
    def test_equality_filter_runs_without_hydration(self, lazy, eager):
        source = eager.source_names()[0]
        table, column, value = primary_lookup(eager, source)
        statement = f"SELECT * FROM {table} WHERE {column} = '{value}'"
        got = lazy.query_engine().sql(source, statement)
        want = eager.query_engine().sql(source, statement)
        assert got.columns == want.columns
        assert got.rows == want.rows
        assert want.rows, "probe query matched nothing"
        stats = lazy.hydration_stats()
        assert stats["hydrated"] == []
        assert stats["per_source"][source]["pushdown_hits"] >= 1

    @pytest.mark.parametrize(
        "shape",
        [
            "SELECT {column} FROM {table} ORDER BY {column} LIMIT 3",
            "SELECT DISTINCT {column} FROM {table}",
            "SELECT * FROM {table}",
        ],
    )
    def test_scan_shapes_match_eager(self, lazy, eager, shape):
        source = eager.source_names()[0]
        table, column, _value = primary_lookup(eager, source)
        statement = shape.format(table=table, column=column)
        got = lazy.query_engine().sql(source, statement)
        want = eager.query_engine().sql(source, statement)
        assert got.columns == want.columns
        assert got.rows == want.rows
        assert lazy.hydration_stats()["hydrated"] == []

    def test_bad_sql_raises_sqlerror_before_hydration(self, lazy, eager):
        source = eager.source_names()[0]
        with pytest.raises(SqlError):
            eager.query_engine().sql(source, "SELEC nonsense")
        with pytest.raises(SqlError):
            lazy.query_engine().sql(source, "SELEC nonsense")
        assert lazy.hydration_stats()["hydrated"] == []

    def test_unknown_table_raises_schemaerror(self, lazy, eager):
        source = eager.source_names()[0]
        with pytest.raises(SchemaError):
            eager.query_engine().sql(source, "SELECT * FROM no_such_table")
        # The pushdown declines (no schema row), the source hydrates, and
        # the in-memory executor raises the same error as before the PR.
        with pytest.raises(SchemaError):
            lazy.query_engine().sql(source, "SELECT * FROM no_such_table")
        assert lazy.hydration_stats()["hydrated"] == [source]

    def test_unknown_source_raises_keyerror(self, lazy, eager):
        with pytest.raises(KeyError):
            eager.query_engine().sql("no_such_source", "SELECT * FROM t")
        with pytest.raises(KeyError):
            lazy.query_engine().sql("no_such_source", "SELECT * FROM t")

    def test_aggregate_pushdown(self, lazy, eager):
        source = eager.source_names()[0]
        table, column, _value = primary_lookup(eager, source)
        values = eager.database(source).table(table).non_null_values(column)
        session = lazy._lazy
        assert session.aggregate(source, table, column, "count") == len(values)
        assert session.aggregate(source, table, column, "distinct") == len(set(values))
        assert session.aggregate(source, table, column, "min") == min(values)
        assert session.aggregate(source, table, column, "max") == max(values)
        with pytest.raises(ValueError):
            session.aggregate(source, table, column, "median")
        assert lazy.hydration_stats()["hydrated"] == []

    def test_point_lookups_use_the_snapshot_index(self, lazy, eager):
        """A hydrated source's ColumnStore lookups push down to `cells`."""
        source = eager.source_names()[0]
        table, column, value = primary_lookup(eager, source)
        database = lazy.database(source)  # fault this one source in
        got = database.table(table).find_where(column, value)
        want = eager.database(source).table(table).find_where(column, value)
        assert got == want and want
        stats = database.column_cache_stats()
        assert stats["pushdown_hits"] >= 1
        # The pristine-backing rule: rehydration builds are not misses.
        assert stats["misses"] == 0


# ----------------------------------------------------------------------
# exact hydration counts on the browse path
# ----------------------------------------------------------------------
class TestExactHydration:
    def test_browse_reads_one_page_and_hydrates_nothing(self, lazy, eager):
        source = eager.source_names()[0]
        _table, _column, accession = primary_lookup(eager, source)
        want = eager.web.page(source, accession)
        assert want is not None
        assert lazy.web.page(source, accession) == want
        stats = lazy.hydration_stats()
        assert stats["hydrated"] == []
        assert stats["per_source"][source]["pushdown_hits"] == 1

    def test_search_then_browse(self, lazy, eager):
        hits = lazy.search_engine().search(QUERIES[0], top_k=5)
        assert hits and lazy.hydration_stats()["hydrated"] == []
        top = hits[0]
        page = lazy.web.page(top.source, top.accession)
        assert page == eager.web.page(top.source, top.accession)
        assert lazy.hydration_stats()["hydrated"] == []
        # Touching the source's database still faults exactly it in.
        assert lazy.database(top.source) is not None
        assert lazy.hydration_stats()["hydrated"] == [top.source]

    def test_search_reads_only_the_documents_it_scores(self, lazy, eager, monkeypatch):
        def whole_index_read():
            raise AssertionError("a query must not read the whole index")

        monkeypatch.setattr(lazy._lazy, "fetch_index", whole_index_read)
        assert len(lazy._index) == len(eager._index)
        assert lazy._index.average_length == eager._index.average_length
        for query in QUERIES:
            assert lazy.search_engine().search(query, top_k=10) == (
                eager.search_engine().search(query, top_k=10)
            )
        reader = lazy._index.reader()
        scored = {
            posting.doc_id
            for query in QUERIES
            for token in query.split()
            for posting in reader.postings(token)
        }
        assert set(reader._documents) == scored
        assert not lazy._index._all_loaded

    def test_reads_naming_a_document_use_one_id_space(self, lazy, eager):
        """Outside a pinned reader, a posting's id resolves positionally:
        such reads fault the whole index in first."""
        token = QUERIES[0].split()[0]
        index = lazy._index
        postings = index.postings(token)
        assert index._all_loaded
        assert postings == eager._index.postings(token)
        assert [index.document(p.doc_id) for p in postings] == [
            eager._index.document(p.doc_id) for p in postings
        ]


# ----------------------------------------------------------------------
# release_source: evict, re-fault, and the refusal cases
# ----------------------------------------------------------------------
class TestReleaseSource:
    def test_release_and_refault_round_trip(self, lazy, eager):
        source = eager.source_names()[0]
        before = {
            t.name: list(t.rows()) for t in lazy.database(source).tables()
        }
        assert lazy.release_source(source) is True
        stats = lazy.hydration_stats()
        assert stats["hydrated"] == []
        assert stats["resident_bytes"] == 0
        after = {
            t.name: list(t.rows()) for t in lazy.database(source).tables()
        }
        assert after == before

    def test_release_not_hydrated_returns_false(self, lazy):
        assert lazy.release_source(lazy.source_names()[0]) is False
        assert lazy.release_source("no_such_source") is False

    def test_release_requires_lazy_open(self, eager):
        # Never opened from a snapshot: memory is the only copy.
        with pytest.raises(SnapshotError):
            eager.release_source(eager.source_names()[0])


# ----------------------------------------------------------------------
# maintenance differential: mutate after a lazy open, match lazy=False
# ----------------------------------------------------------------------
def extra_source():
    scenario = build_scenario(
        ScenarioConfig(
            seed=91,
            include=("swissprot",),
            universe=UniverseConfig(
                n_families=2, members_per_family=2, n_go_terms=6,
                n_diseases=3, n_interactions=3, seed=91,
            ),
        )
    )
    return scenario.sources[0]


class TestMaintenanceDifferential:
    def test_maintenance_after_lazy_open_matches_eager(self, snapshot, tmp_path):
        def opened(copy_name, lazy_flag):
            path = copy_snapshot(snapshot, tmp_path / copy_name)
            return Aladin.open(path, config=AladinConfig(), lazy=lazy_flag)

        extra = extra_source()
        systems = []
        for copy_name, lazy_flag in (("lazy.snap", True), ("eager.snap", False)):
            aladin = opened(copy_name, lazy_flag)
            if not lazy_flag:
                # lazy=False faults every source in at open, and a warm
                # open never re-integrates.
                assert (
                    aladin.hydration_stats()["hydrated"] == aladin.source_names()
                )
                assert aladin._engine.registrations == 0
            first = aladin.source_names()[0]
            aladin.add_source(
                "late_extra",
                extra.facts.format_name,
                extra.text,
                **extra.facts.import_options,
            )
            aladin.update_source(first, aladin._raw_inputs[first][1])
            systems.append(aladin)
        lazy_sys, eager_sys = systems

        assert "late_extra" in lazy_sys.source_names()
        assert all_rows(lazy_sys) == all_rows(eager_sys)
        assert link_web(lazy_sys) == link_web(eager_sys)
        assert duplicate_set(lazy_sys) == duplicate_set(eager_sys)
        assert (
            list(lazy_sys._index.export_documents())
            == list(eager_sys._index.export_documents())
        )
        assert rankings(lazy_sys) == rankings(eager_sys)
        # Maintenance faulted everything in and pinned it there: the
        # in-memory state may now be ahead of unwritten caches, so
        # eviction is refused.
        assert lazy_sys.hydration_stats()["hydrated"] == lazy_sys.source_names()
        with pytest.raises(SnapshotError):
            lazy_sys.release_source(lazy_sys.source_names()[0])
        for aladin in systems:
            aladin.close()

    def test_removed_source_is_forgotten(self, snapshot, tmp_path):
        path = copy_snapshot(snapshot, tmp_path / "remove.snap")
        aladin = Aladin.open(path, lazy=True)
        victim = aladin.source_names()[-1]
        aladin.remove_source(victim)
        assert victim not in aladin.source_names()
        assert victim not in aladin.hydration_stats()["per_source"]
        aladin.close()
        reopened = Aladin.open(path, read_only=True, lazy=True)
        assert victim not in reopened.source_names()
        reopened.close()


# ----------------------------------------------------------------------
# the writer/reader race: checkpoints land while a lazy reader faults
# ----------------------------------------------------------------------
def config_row(path):
    conn = sqlite3.connect(path)
    try:
        (config_json,) = conn.execute(
            "SELECT value FROM manifest WHERE key = 'config'"
        ).fetchone()
    finally:
        conn.close()
    return json.loads(config_json)


class TestSnapshotsWithAnExecutionEntry:
    """Snapshots written while the execution backend was configurable
    carry an ``"execution"`` entry in their config row. They still open,
    answer like the writer, and lose the entry at the next checkpoint.

    The entry grew over time: ``backend``/``workers`` first, then the
    resident-pool fields, then the auto backend's parallel arm. Every
    shape that was ever written is checked."""

    OLD_ENTRIES = {
        "serial": {"backend": "serial", "workers": 1},
        "process": {"backend": "process", "workers": 4},
        "thread-resident": {
            "backend": "thread",
            "workers": 8,
            "resident": True,
            "idle_seconds": 30.0,
        },
        "process-resident": {
            "backend": "process",
            "workers": 16,
            "resident": True,
            "idle_seconds": 30.0,
            "auto_parallel": "process",
        },
        "auto": {
            "backend": "auto",
            "workers": 2,
            "resident": False,
            "idle_seconds": 5.0,
            "auto_parallel": "thread",
        },
    }

    @pytest.fixture(params=sorted(OLD_ENTRIES))
    def old_entry(self, request):
        return dict(self.OLD_ENTRIES[request.param])

    def old_snapshot(self, snapshot, path, entry):
        path = copy_snapshot(snapshot, path)
        persisted = config_row(path)
        assert "execution" not in persisted
        persisted["execution"] = entry
        conn = sqlite3.connect(path)
        try:
            conn.execute(
                "UPDATE manifest SET value = ? WHERE key = 'config'",
                (json.dumps(persisted),),
            )
            conn.commit()
        finally:
            conn.close()
        return path

    @pytest.mark.parametrize("lazy_flag", [True, False], ids=["lazy", "eager"])
    def test_opens_and_answers_like_the_writer(
        self, snapshot, eager, tmp_path, lazy_flag, old_entry
    ):
        path = self.old_snapshot(snapshot, tmp_path / "old.snapshot", old_entry)
        aladin = Aladin.open(path, read_only=True, lazy=lazy_flag)
        try:
            assert not hasattr(aladin.config, "execution")
            assert aladin.source_names() == eager.source_names()
            assert rankings(aladin) == rankings(eager)
            assert link_web(aladin) == link_web(eager)
            assert duplicate_set(aladin) == duplicate_set(eager)
            assert all_rows(aladin) == all_rows(eager)
        finally:
            aladin.close()

    def test_next_checkpoint_drops_the_entry(
        self, snapshot, eager, tmp_path, old_entry
    ):
        written = config_row(snapshot)
        path = self.old_snapshot(snapshot, tmp_path / "old.snapshot", old_entry)
        aladin = Aladin.open(path)
        try:
            first = aladin.source_names()[0]
            aladin.update_source(first, eager._raw_inputs[first][1])
        finally:
            aladin.close()
        assert config_row(path) == written

    def test_config_from_dict_drops_the_entry(self, old_entry):
        payload = config_to_dict(AladinConfig())
        payload["execution"] = old_entry
        restored = config_from_dict(payload)
        assert not hasattr(restored, "execution")
        assert config_to_dict(restored) == config_to_dict(AladinConfig())


def _reader_rounds(path, expected_sources, rounds):
    """Child body: lazily open, fault, search, release — repeatedly.

    A checkpoint may land between any two reads. Every hydration must
    still hand back a hash-verified consistent slice; a cross-object
    mismatch (index rewritten between the docs read and a postings read)
    may only surface as the designed "changed under a lazy reader"
    SnapshotError, which a reopen resolves.
    """
    completed = 0
    retried = 0
    for _ in range(rounds):
        reader = Aladin.open(path, read_only=True, lazy=True)
        try:
            assert reader.source_names() == expected_sources
            for name in expected_sources:
                database = reader.database(name)
                assert database.total_rows() > 0
                assert reader.release_source(name) is True
                reader.database(name)  # and fault it straight back in
            reader.search_engine().search("kinase", top_k=5)
            completed += 1
        except SnapshotError as exc:
            if "changed under a lazy reader" not in str(exc):
                raise
            retried += 1
        finally:
            reader.close()
    return {"completed": completed, "retried": retried}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_writer_checkpoints_while_lazy_reader_faults(tmp_path):
    scenario = build_scenario(
        ScenarioConfig(
            seed=92,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=92,
            ),
        )
    )
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name,
            source.facts.format_name,
            source.text,
            **source.facts.import_options,
        )
    aladin.search_engine()
    path = tmp_path / "race.snapshot"
    aladin.save(path)
    names = aladin.source_names()
    first = names[0]
    first_text = aladin._raw_inputs[first][1]
    typo_text = first_text.replace("The process", "The prqcess", 1)
    assert typo_text != first_text

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: the lazy reader
        os.close(read_fd)
        try:
            payload = {"ok": _reader_rounds(path, names, rounds=5)}
        except BaseException as exc:  # noqa: BLE001 - report, don't die silent
            payload = {"error": type(exc).__name__, "message": str(exc)}
        os.write(write_fd, json.dumps(payload).encode("utf-8"))
        os.close(write_fd)
        os._exit(0)

    os.close(write_fd)
    try:
        # Parent: below-threshold updates alternate a one-letter typo with
        # the original text, so every checkpoint rewrites a row and its
        # index document while the child is mid-fault.
        for i in range(8):
            aladin.update_source(first, typo_text if i % 2 == 0 else first_text)
    finally:
        chunks = []
        while True:
            chunk = os.read(read_fd, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        os.waitpid(pid, 0)
    result = json.loads(b"".join(chunks).decode("utf-8"))
    assert "error" not in result, result
    assert result["ok"]["completed"] + result["ok"]["retried"] == 5
    assert result["ok"]["completed"] >= 1, result
    conn = sqlite3.connect(path)
    try:
        assert read_index_generation(conn) == "8"  # eight document deltas
    finally:
        conn.close()
    aladin.close()
