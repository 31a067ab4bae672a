"""Per-object link reads push down to the snapshot; walks replay once.

While a lazy session's link web is still deferred, ``links_of`` (and so
a browse) answers from one indexed SQLite statement instead of replaying
every link in the file. The statement is a point read over the two
``(source, accession)`` expression indexes; a file written before they
joined the schema answers the same statement by a scan, and gains them
at its next writer open. The contract is the replay's own answer, order
included, on any snapshot — one written in one go and one whose link
rows were rewritten by in-place checkpoints, so rowid order no longer
follows the writer's in-memory order. A lookup that SQLite cannot run
declines, and the replay answers instead.
"""

import os
import shutil
import sqlite3

import pytest

from repro.access.crawler import Crawler
from repro.core import Aladin
from repro.persist import SnapshotStore
from repro.persist.lazy import LazySnapshotSession
from repro.persist.snapshot import LINK_LOOKUP_SQL

KINDS = (None, "duplicate", "crossref")
# Each accession index, and the plan line that shows it answering both
# of its key columns rather than the source prefix alone.
ACCESSION_INDEXES = {
    "idx_object_links_a_accession": "(source_a=? AND <expr>=?)",
    "idx_object_links_b_accession": "(source_b=? AND <expr>=?)",
}


@pytest.fixture(scope="module")
def snapshot(integrated_world, tmp_path_factory):
    """The full source set, integrated with duplicate detection."""
    _scenario, aladin = integrated_world
    path = tmp_path_factory.mktemp("links") / "world.snapshot"
    aladin.save(path)
    aladin.detach_store()
    return path


@pytest.fixture(scope="module")
def maintained_snapshot(snapshot, tmp_path_factory):
    """The same world after in-place update/remove/add checkpoints."""
    path = copy_snapshot(snapshot, tmp_path_factory.mktemp("maintained") / "m.snap")
    aladin = Aladin.open(path, lazy=True)
    names = aladin.source_names()
    for name in names:
        aladin.database(name)  # fault in: raw inputs come with the body
    aladin.update_source(names[0], aladin._raw_inputs[names[0]][1])
    # A below-threshold update keeps its link rows in place; cycling the
    # first source moves its links to the end of the rowid order.
    removed = names[0]
    fmt, text, options = aladin._raw_inputs[removed]
    aladin.remove_source(removed)
    aladin.add_source(removed, fmt, text, **options)
    aladin.close()
    return path


def open_lazy(path):
    return Aladin.open(path, read_only=True, lazy=True)


def copy_snapshot(source, path):
    for ext in ("", "-wal", "-shm"):
        if os.path.exists(f"{source}{ext}"):
            shutil.copy(f"{source}{ext}", f"{path}{ext}")
    return path


def read_only_connection(path):
    return sqlite3.connect(f"file:{path}?mode=ro", uri=True)


def index_names(path):
    conn = read_only_connection(path)
    try:
        return {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
    finally:
        conn.close()


def identities(aladin):
    """Every object a link touches or a page shows, plus one unknown."""
    out = set()
    for link in aladin.repository.object_links():
        out.update(link.endpoints())
    for source in aladin.source_names():
        out.update((source, accession) for accession in aladin.web.accessions(source))
    out.add(("swissprot", "NO-SUCH-ACCESSION"))
    return sorted(out)


@pytest.mark.parametrize("which", ["snapshot", "maintained_snapshot"])
def test_pushdown_equals_replay_for_every_object(which, request):
    path = request.getfixturevalue(which)
    reference = open_lazy(path)
    pushed = open_lazy(path)
    try:
        reference.repository.load_links()
        kinds = reference.repository.link_counts_by_kind()
        assert kinds.get("duplicate", 0) > 0 and kinds.get("crossref", 0) > 0
        objects = identities(reference)
        linked = 0
        for source, accession in objects:
            for kind in KINDS:
                want = reference.repository.links_of(source, accession, kind)
                got = pushed.repository.links_of(source, accession, kind)
                assert got == want, (source, accession, kind)
                linked += bool(want)
            assert (
                pushed.repository.neighbors_of(source, accession)
                == reference.repository.neighbors_of(source, accession)
            )
        assert linked > 0
        stats = pushed.hydration_stats()
        assert stats["links_loaded"] is False
        assert stats["link_lookups"] == len(objects) * (len(KINDS) + 1)
    finally:
        reference.close()
        pushed.close()


def test_lookup_is_a_point_read_over_both_accession_indexes(snapshot):
    """An edit to either index expression that stops the match fails."""
    conn = read_only_connection(snapshot)
    try:
        plan = [
            row[-1]
            for row in conn.execute(
                "EXPLAIN QUERY PLAN " + LINK_LOOKUP_SQL, ("swissprot", "P1")
            )
        ]
    finally:
        conn.close()
    assert "MULTI-INDEX OR" in plan, plan
    for index, keys in ACCESSION_INDEXES.items():
        assert f"SEARCH object_links USING INDEX {index} {keys}" in plan, plan


def test_file_without_the_accession_indexes(snapshot, tmp_path):
    """A file saved before the indexes: same answers, a writer adds them."""
    path = copy_snapshot(snapshot, tmp_path / "unindexed.snap")
    conn = sqlite3.connect(path)
    for index in ACCESSION_INDEXES:
        conn.execute(f"DROP INDEX {index}")
    conn.commit()
    conn.close()
    fingerprint = SnapshotStore(path).content_fingerprint()

    reference = open_lazy(snapshot)
    old = open_lazy(path)
    try:
        reference.repository.load_links()
        objects = identities(reference)
        for source, accession in objects:
            assert old.repository.links_of(source, accession) == (
                reference.repository.links_of(source, accession)
            ), (source, accession)
        stats = old.hydration_stats()
        assert stats["links_loaded"] is False
        assert stats["link_lookups"] == len(objects)
    finally:
        reference.close()
        old.close()
    assert not ACCESSION_INDEXES.keys() & index_names(path)  # a reader wrote nothing

    Aladin.open(path, lazy=True).close()
    assert ACCESSION_INDEXES.keys() <= index_names(path)
    assert SnapshotStore(path).content_fingerprint() == fingerprint


def test_maintained_snapshot_reorders_link_rows(snapshot, maintained_snapshot):
    """The second equivalence run really sees a different rowid order."""
    def link_keys(path):
        aladin = open_lazy(path)
        try:
            return [l.key() for l in aladin.repository.object_links()]
        finally:
            aladin.close()

    written, maintained = link_keys(snapshot), link_keys(maintained_snapshot)
    assert sorted(written) == sorted(maintained)
    assert written != maintained


def test_browse_reads_one_object_without_loading_the_web(snapshot):
    reference = open_lazy(snapshot)
    lazy = open_lazy(snapshot)
    try:
        reference.repository.load_links()
        source, accession = next(
            identity
            for link in reference.repository.object_links("crossref")
            for identity in link.endpoints()
            if not reference.repository.links_of(*identity, kind="duplicate")
        )
        view = lazy.browser().visit(source, accession)
        assert view == reference.browser().visit(source, accession)
        assert view.linked
        stats = lazy.hydration_stats()
        assert stats["links_loaded"] is False
        assert stats["link_lookups"] == 1
        assert stats["hydrated"] == []
    finally:
        reference.close()
        lazy.close()


def test_browse_with_duplicates_matches_replay(snapshot):
    reference = open_lazy(snapshot)
    lazy = open_lazy(snapshot)
    try:
        link = reference.repository.object_links("duplicate")[0]
        identity = link.endpoints()[0]
        view = lazy.browser().visit(*identity)
        want = reference.browser().visit(*identity)
        assert view.duplicates and view == want
        assert lazy.hydration_stats()["links_loaded"] is False
    finally:
        reference.close()
        lazy.close()


@pytest.mark.parametrize("walk", ["crawl", "paths", "link_join"])
def test_walks_load_the_web_once(snapshot, walk):
    """Multi-object walks replay the web up front, never query per object."""
    aladin = open_lazy(snapshot)
    try:
        if walk == "crawl":
            seed = crossref_endpoints(snapshot)[0]
            assert list(Crawler(aladin.web).crawl(seeds=[seed], follow_links=True))
        elif walk == "paths":
            assert aladin.ranker().paths_between(*crossref_endpoints(snapshot))
        else:
            engine = aladin.query_engine()
            rows = engine.select_objects("swissprot", "SELECT * FROM entry")
            assert engine.link_join(rows, "pdb")
        stats = aladin.hydration_stats()
        assert stats["links_loaded"] is True
        assert stats["link_lookups"] == 0
    finally:
        aladin.close()


def test_crawl_without_links_leaves_the_web_deferred(snapshot):
    aladin = open_lazy(snapshot)
    try:
        seed = crossref_endpoints(snapshot)[0]
        assert list(Crawler(aladin.web).crawl(seeds=[seed], follow_links=False))
        assert aladin.hydration_stats()["links_loaded"] is False
    finally:
        aladin.close()


def crossref_endpoints(path):
    reference = open_lazy(path)
    try:
        return reference.repository.object_links("crossref")[0].endpoints()
    finally:
        reference.close()


class _NoJsonConnection:
    """A connection whose SQLite lacks JSON1: json_extract is unknown."""

    def __init__(self, conn):
        self._conn = conn

    def execute(self, sql, *params):
        if "json_extract" in sql:
            raise sqlite3.OperationalError("no such function: json_extract")
        return self._conn.execute(sql, *params)


def test_failing_lookup_falls_back_to_the_replay(snapshot, monkeypatch):
    reference = open_lazy(snapshot)
    try:
        reference.repository.load_links()
        source, accession = reference.repository.object_links()[0].endpoints()[0]
        want = reference.repository.links_of(source, accession)
    finally:
        reference.close()

    original = LazySnapshotSession._connection
    monkeypatch.setattr(
        LazySnapshotSession,
        "_connection",
        lambda self: _NoJsonConnection(original(self)),
    )
    aladin = open_lazy(snapshot)
    try:
        assert aladin.repository.links_of(source, accession) == want
        stats = aladin.hydration_stats()
        assert stats["links_loaded"] is True
        assert stats["link_lookups"] == 0
        counters = aladin.metrics().get("counters")
        if counters is not None:  # telemetry may be switched off
            assert counters["persist.pushdown.links.declined"] == 1
            assert "persist.pushdown.links.accepted" not in counters
    finally:
        aladin.close()
