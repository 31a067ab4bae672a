"""Per-source incremental checkpoints keep an attached snapshot current.

After ``save``, every maintenance operation rewrites only the affected
source's slice of the snapshot; reopening at any point must reproduce the
live system exactly.
"""

import sqlite3

import pytest

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def small_scenario(include, seed):
    return build_scenario(
        ScenarioConfig(
            seed=seed,
            include=include,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=seed,
            ),
        )
    )


def integrate(scenario, names=None):
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        if names is not None and source.name not in names:
            continue
        aladin.add_source(
            source.name,
            source.facts.format_name,
            source.text,
            **source.facts.import_options,
        )
    return aladin


def fingerprint(aladin):
    rows = {
        name: {
            table: list(aladin.database(name).table(table).raw_rows())
            for table in aladin.database(name).table_names()
        }
        for name in aladin.source_names()
    }
    links = sorted(
        (
            link.kind,
            *sorted(
                [
                    (link.source_a, link.accession_a),
                    (link.source_b, link.accession_b),
                ]
            ),
        )
        for link in aladin.repository.object_links()
    )
    return aladin.source_names(), rows, links


def source_args(scenario, name):
    source = scenario.source(name)
    return (name, source.facts.format_name, source.text)


@pytest.fixture()
def saved(tmp_path):
    scenario = small_scenario(include=("swissprot", "pdb", "go"), seed=78)
    aladin = integrate(scenario, names=("swissprot", "pdb"))
    aladin.search_engine()
    path = tmp_path / "live.snapshot"
    aladin.save(path)
    return scenario, aladin, path


class TestCheckpointAfterMaintenance:
    def test_add_source_checkpoints_only_that_source(self, saved):
        scenario, aladin, path = saved
        before = {
            name: row_slice(path, name) for name in ("swissprot", "pdb")
        }
        name, format_name, text = source_args(scenario, "go")
        aladin.add_source(name, format_name, text)
        assert fingerprint(Aladin.open(path)) == fingerprint(aladin)
        # The other sources' persisted slices were not rewritten.
        for other in ("swissprot", "pdb"):
            assert row_slice(path, other) == before[other]

    def test_remove_source_checkpoints(self, saved):
        scenario, aladin, path = saved
        aladin.remove_source("pdb")
        reopened = Aladin.open(path)
        assert reopened.source_names() == ["swissprot"]
        assert fingerprint(reopened) == fingerprint(aladin)

    def test_update_source_below_threshold_checkpoints(self, saved):
        scenario, aladin, path = saved
        report = aladin.update_source("swissprot", scenario.source("swissprot").text)
        assert report is None
        assert fingerprint(Aladin.open(path)) == fingerprint(aladin)

    def test_below_threshold_update_keeps_link_rows_in_place(self, saved):
        """A data-only checkpoint: the update keeps structure and links by
        contract, so every link row keeps its rowid and payload while the
        source's rows are rewritten."""
        scenario, aladin, path = saved
        # go's links land after pdb's, so a rewrite of pdb's links would
        # move them to new rowids.
        aladin.add_source(*source_args(scenario, "go"))
        links_before = link_rows(path)
        rows_before = row_slice(path, "pdb")
        assert links_before["attribute_links"] and links_before["object_links"]
        text = scenario.source("pdb").text
        changed = text.replace("CRYSTAL STRUCTURE OF", "CRYSTAL STRUCTURE FOR")
        assert changed != text
        assert aladin.update_source("pdb", changed) is None
        assert row_slice(path, "pdb") != rows_before
        assert link_rows(path) == links_before
        assert fingerprint(Aladin.open(path)) == fingerprint(aladin)

    def test_update_source_above_threshold_checkpoints(self, saved):
        scenario, aladin, path = saved
        # A much larger flat file pushes the row delta over the threshold:
        # the source is dropped and re-integrated, both of which checkpoint.
        bigger = build_scenario(
            ScenarioConfig(
                seed=79,
                include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=8, members_per_family=3, seed=79),
            )
        )
        report = aladin.update_source("swissprot", bigger.source("swissprot").text)
        assert report is not None
        assert fingerprint(Aladin.open(path)) == fingerprint(aladin)

    def test_reopened_system_keeps_checkpointing(self, saved):
        scenario, aladin, path = saved
        reopened = Aladin.open(path)
        name, format_name, text = source_args(scenario, "go")
        reopened.add_source(name, format_name, text)
        third = Aladin.open(path)
        assert fingerprint(third) == fingerprint(reopened)

    def test_remove_link_rewrites_links(self, saved):
        _, aladin, path = saved
        link = aladin.repository.object_links(kind="crossref")[0]
        assert aladin.remove_link(link)
        assert fingerprint(Aladin.open(path)) == fingerprint(aladin)

    def test_search_results_track_checkpoints(self, saved):
        scenario, aladin, path = saved
        name, format_name, text = source_args(scenario, "go")
        aladin.add_source(name, format_name, text)
        aladin.remove_source("pdb")
        reopened = Aladin.open(path)
        for query in ("kinase", "binding"):
            live = {
                (h.source, h.accession, round(h.score, 9))
                for h in aladin.search_engine().search(query, top_k=50)
            }
            warm = {
                (h.source, h.accession, round(h.score, 9))
                for h in reopened.search_engine().search(query, top_k=50)
            }
            assert warm == live

    def test_save_writes_the_index(self, tmp_path):
        scenario = small_scenario(include=("swissprot", "pdb"), seed=80)
        aladin = integrate(scenario)
        path = tmp_path / "indexed.snapshot"
        aladin.save(path)  # no search ran: the index is kept all the same
        reopened = Aladin.open(path, read_only=True)
        assert reopened.hydration_stats()["index_rebuilt"] is False
        assert reopened._index.pages_indexed == 0
        assert len(reopened._index) == len(aladin._index)
        assert manifest_value(path, "index_built") == "1"

    def test_detach_store_stops_checkpointing(self, saved):
        scenario, aladin, path = saved
        aladin.detach_store()
        aladin.remove_source("pdb")
        assert "pdb" in Aladin.open(path).source_names()


def manifest_value(path, key):
    conn = sqlite3.connect(path)
    try:
        (value,) = conn.execute(
            "SELECT value FROM manifest WHERE key = ?", (key,)
        ).fetchone()
        return value
    finally:
        conn.close()


def index_rows(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT COUNT(*) FROM index_documents").fetchone()[0]
    finally:
        conn.close()


def hits(aladin, query):
    return [
        (hit.source, hit.accession, hit.score, hit.matched_fields)
        for hit in aladin.search_engine().search(query, top_k=50)
    ]


class TestSnapshotsWithoutAnIndex:
    """Files written before every snapshot carried its search index: the
    manifest says ``index_built = "0"`` and no index rows exist. The open
    builds the index by one crawl and reports it; a writer stores it."""

    QUERIES = ("kinase", "binding domain", "protein structure")

    @pytest.fixture
    def legacy(self, tmp_path):
        scenario = small_scenario(include=("swissprot", "pdb"), seed=80)
        writer = integrate(scenario)
        path = tmp_path / "legacy.snapshot"
        writer.save(path)
        writer.close()  # folds the WAL: the main file holds everything
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("DELETE FROM index_postings")
            conn.execute("DELETE FROM index_documents")
            conn.execute("UPDATE manifest SET value = '0' WHERE key = 'index_built'")
        conn.close()
        return writer, path

    def test_a_read_only_open_rebuilds_reports_and_ranks_like_the_writer(
        self, legacy
    ):
        writer, path = legacy
        config = AladinConfig()
        config.observability.enabled = True
        reader = Aladin.open(path, config=config, read_only=True)
        try:
            stats = reader.hydration_stats()
            assert stats["index_rebuilt"] is True
            assert stats["hydrated"] == ["pdb", "swissprot"]  # one crawl
            (opened,) = reader.obs.events.history("snapshot.opened")
            assert opened.payload["index_rebuilt"] is True
            for query in self.QUERIES:
                assert hits(reader, query) == hits(writer, query)
        finally:
            reader.close()
        assert index_rows(path) == 0  # a reader writes nothing
        assert manifest_value(path, "index_built") == "0"

    def test_a_writer_open_stores_the_index_for_later_sessions(self, legacy):
        writer, path = legacy
        rows_before = {name: row_slice(path, name) for name in ("pdb", "swissprot")}
        attached = Aladin.open(path)
        try:
            assert attached.hydration_stats()["index_rebuilt"] is True
            assert manifest_value(path, "index_built") == "1"
        finally:
            attached.close()
        assert index_rows(path) == len(writer._index)
        # The file is rewritten whole, as a save would: rows unchanged.
        assert {name: row_slice(path, name) for name in rows_before} == rows_before
        reader = Aladin.open(path, read_only=True)
        try:
            for query in self.QUERIES:
                assert hits(reader, query) == hits(writer, query)
            stats = reader.hydration_stats()
            assert stats["index_rebuilt"] is False
            assert stats["hydrated"] == []
            assert stats["decoded"] == []
        finally:
            reader.close()


def row_slice(path, source):
    """The persisted (table, row_id, data) slice of one source."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT table_name, row_id, data FROM rows WHERE source = ? "
            "ORDER BY table_name, row_id",
            (source,),
        ).fetchall()
    finally:
        conn.close()


def link_rows(path):
    """Every persisted link row as (rowid, payload), per link table."""
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(
                f"SELECT rowid, payload FROM {table} ORDER BY rowid"
            ).fetchall()
            for table in ("attribute_links", "object_links")
        }
    finally:
        conn.close()
