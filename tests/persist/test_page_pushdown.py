"""Object pages read straight from a lazy snapshot.

A browse of a source that is not resident reads the object's rows from
the snapshot: its primary rows through the ``cells`` value index, each
secondary table's rows by walking the table's shortest path forward
over the join columns, all in one read transaction whose content hash
the session has verified over the stored slice. Nothing hydrates. Only
a source's first page in a session is read so; a second one hydrates
the source. These tests pin that every page, sibling list and browse
view equals an eager open's, that a forged row fails the verification,
and that what the reader cannot answer exactly — a second page, an
unbounded accession list, a cells index missing an entry — declines to
a hydration.

Every page, read from the snapshot or from resident rows, is checked
against an independent reference: the backward walk of
``ObjectResolver.owners_of_row``, which maps each secondary row to its
owners instead of walking forward from the object.
"""

import copy
import os
import shutil
import sqlite3
from collections import Counter

import pytest

from repro.access.crawler import Crawler
from repro.access.objects import DECLINED
from repro.core import Aladin, AladinConfig
from repro.linking.resolve import ObjectResolver
from repro.persist import SnapshotError, codec
from repro.serve import serialize_view

UNKNOWN = "NO-SUCH-OBJECT"


@pytest.fixture(scope="module")
def snapshot(integrated_world, tmp_path_factory):
    _scenario, aladin = integrated_world
    path = tmp_path_factory.mktemp("page_pushdown") / "world.snapshot"
    aladin.save(path)
    aladin.detach_store()
    return path


@pytest.fixture(scope="module")
def eager(snapshot):
    system = Aladin.open(snapshot, read_only=True, lazy=False)
    yield system
    system.close()


def open_lazy(path):
    config = AladinConfig()
    config.observability.enabled = True  # the tests read the counters
    return Aladin.open(path, config=config, read_only=True, lazy=True)


def copy_snapshot(source, target):
    for ext in ("", "-wal", "-shm"):
        if os.path.exists(f"{source}{ext}"):
            shutil.copy(f"{source}{ext}", f"{target}{ext}")
    return target


def edit(snapshot, target, statement, params=()):
    path = copy_snapshot(snapshot, target)
    conn = sqlite3.connect(path)
    assert conn.execute(statement, params).rowcount >= 1
    conn.commit()
    conn.close()
    return path


def counters(aladin):
    return aladin.metrics()["counters"]


def visit(aladin, source, accession):
    try:
        return serialize_view(aladin.browser().visit(source, accession))
    except KeyError as exc:
        return ("KeyError", str(exc))


def browsed_source(eager):
    """A source with pages, two-step paths and a page showing one."""
    for name in eager.source_names():
        structure = eager.repository.structure(name)
        deep = {
            table for table, paths in structure.secondary_paths.items()
            if min(path.length for path in paths) >= 2
        }
        for accession in eager.web.accessions(name):
            if deep & set(eager.web.page(name, accession).annotations):
                return name, accession
    raise AssertionError("the world has no page showing a two-step path")


def paged_twice(eager, name, accession):
    """The sources a browse of ``name/accession`` reads two pages of."""
    if eager.web.page(name, accession) is None:
        return set()
    paged = Counter([name])
    for link in eager.web.duplicates(name, accession):
        paged.update(
            source for source, other in link.endpoints()
            if (source, other) != (name, accession)
        )
    return {source for source, count in paged.items() if count > 1}


def owned_rows(aladin, source, accession):
    """Per secondary table, the rows whose owners include ``accession``,
    in row order: a page's annotations by the backward walk."""
    database = aladin.database(source)
    structure = aladin.repository.structure(source)
    resolver = ObjectResolver(database, structure)
    annotations = {}
    for table_name in structure.secondary_paths:
        rows = [
            dict(row) for row in database.table(table_name).rows()
            if accession in resolver.owners_of_row(table_name, row)
        ]
        if rows:
            annotations[table_name] = rows
    return annotations


class TestEqualsEager:
    def test_every_object_of_every_source(self, snapshot, eager):
        """Each object's page, and its browse view, read in a fresh
        session, equal the eager open's. The page hydrates nothing; the
        view hydrates only a source it reads a second page of (its
        conflicts panel reads the page of every duplicate)."""

        def first_read(read, hydrated=()):
            lazy = open_lazy(snapshot)
            try:
                got = read(lazy)
                assert lazy.hydration_stats()["hydrated"] == sorted(hydrated)
                assert counters(lazy).get(
                    "persist.pushdown.page.declined", 0
                ) == len(hydrated)
            finally:
                lazy.close()
            return got

        cases = set()
        for name in eager.source_names():
            structure = eager.repository.structure(name)
            if structure.primary_relation is None:
                cases.add("no primary relation")
            for accession in eager.web.accessions(name) + [UNKNOWN]:
                want = eager.web.page(name, accession)
                assert first_read(lambda s: s.web.page(name, accession)) == want
                assert first_read(
                    lambda s: visit(s, name, accession),
                    paged_twice(eager, name, accession),
                ) == visit(eager, name, accession)
                if want is None:
                    cases.add("unknown accession")
                    continue
                if not want.annotations and structure.secondary_paths:
                    cases.add("no annotations")
                for table in want.annotations:
                    if min(p.length for p in structure.secondary_paths[table]) >= 2:
                        cases.add("path of two or more steps")
        assert cases == {
            "no primary relation", "unknown accession",
            "no annotations", "path of two or more steps",
        }

    def test_siblings_are_read_without_the_whole_relation(self, snapshot, eager):
        name, accession = browsed_source(eager)
        lazy = open_lazy(snapshot)
        try:
            for limit in (0, 1, 3, 10, 10_000):
                assert lazy.web.same_relation(name, accession, limit) == (
                    eager.web.same_relation(name, accession, limit)
                )
            assert lazy.hydration_stats()["hydrated"] == []
        finally:
            lazy.close()

    def test_a_page_read_counts_as_a_pushdown_hit(self, snapshot, eager):
        name, accession = browsed_source(eager)
        lazy = open_lazy(snapshot)
        try:
            assert lazy.web.page(name, accession) == eager.web.page(name, accession)
            stats = lazy.hydration_stats()
            assert stats["per_source"][name]["pushdown_hits"] == 1
            assert counters(lazy)["persist.pushdown.page.accepted"] == 1
        finally:
            lazy.close()

    def test_second_page_of_a_source_hydrates_it(self, snapshot, eager):
        """A session walking a source reads it from the snapshot once."""
        name, accession = browsed_source(eager)
        other = next(a for a in eager.web.accessions(name) if a != accession)
        lazy = open_lazy(snapshot)
        try:
            assert lazy.web.page(name, accession) == eager.web.page(name, accession)
            assert lazy.hydration_stats()["hydrated"] == []
            for again in (other, accession, other):
                assert lazy.web.page(name, again) == eager.web.page(name, again)
            assert lazy.hydration_stats()["hydrated"] == [name]
            assert counters(lazy)["persist.pushdown.page.accepted"] == 1
            assert counters(lazy)["persist.pushdown.page.declined"] == 1
        finally:
            lazy.close()

    def test_every_accession_hydrates(self, snapshot, eager):
        """The unbounded accession list is a crawl's seed: it hydrates."""
        name, _accession = browsed_source(eager)
        lazy = open_lazy(snapshot)
        try:
            assert lazy.web.accessions(name) == eager.web.accessions(name)
            assert lazy.hydration_stats()["hydrated"] == [name]
        finally:
            lazy.close()

    def test_resident_sources_answer_from_memory(self, snapshot, eager):
        name, accession = browsed_source(eager)
        lazy = open_lazy(snapshot)
        try:
            lazy.database(name)
            assert lazy.web.page(name, accession) == eager.web.page(name, accession)
            assert "persist.pushdown.page.accepted" not in counters(lazy)
        finally:
            lazy.close()


class TestOwnerOracle:
    def test_snapshot_and_hydrated_pages_equal_the_backward_walk(
        self, snapshot, eager
    ):
        """Every object's page read from the snapshot (its source's first
        page in a fresh session) and read again once the source is
        resident holds the rows the backward walk assigns it."""
        checked = 0
        for name in eager.web.sources_with_pages():
            hydrated = open_lazy(snapshot)
            try:
                hydrated.database(name)
                for accession in eager.web.accessions(name):
                    want = owned_rows(eager, name, accession)
                    lazy = open_lazy(snapshot)
                    try:
                        read = lazy.web.page(name, accession)
                        assert lazy.hydration_stats()["hydrated"] == []
                    finally:
                        lazy.close()
                    assert read.annotations == want
                    assert hydrated.web.page(name, accession).annotations == want
                    checked += bool(want)
            finally:
                hydrated.close()
        assert checked


class TestPagesBelongToTheirCaller:
    def test_editing_a_page_changes_no_later_page(self, snapshot, eager):
        """A page's fields, annotation lists and rows are the caller's:
        editing them changes no later page, crawl or lazy read."""
        name, accession = browsed_source(eager)
        resident = Aladin.open(snapshot, read_only=True, lazy=False)
        lazy = open_lazy(snapshot)
        try:
            want = copy.deepcopy(resident.web.page(name, accession))
            edited = resident.web.page(name, accession)
            rows = next(iter(edited.annotations.values()))
            rows[0]["edited"] = True
            rows.append({"edited": True})
            edited.fields["edited"] = True
            again = resident.web.page(name, accession)
            (crawled,) = Crawler(resident.web).crawl(
                seeds=[(name, accession)], follow_links=False
            )
            assert again == crawled == lazy.web.page(name, accession) == want
            assert lazy.hydration_stats()["hydrated"] == []
        finally:
            lazy.close()
            resident.close()


class TestIntegrity:
    def test_forged_row_fails_verification(self, snapshot, eager, tmp_path):
        """A payload rewritten under the old content hash never reaches a page."""
        name, accession = browsed_source(eager)
        table = eager.repository.structure(name).primary_relation
        conn = sqlite3.connect(snapshot)
        rows = conn.execute(
            "SELECT row_id, data FROM rows WHERE source = ? AND table_name = ? "
            "ORDER BY row_id",
            (name, table),
        ).fetchall()
        conn.close()
        row_id, values = next(
            (row_id, codec.canonical_loads(data))
            for row_id, data in rows
            if accession in codec.canonical_loads(data)
        )
        # Forge one text field the page shows, leaving the accession (and
        # so the cells index entry) alone.
        position = next(
            i for i, value in enumerate(values)
            if isinstance(value, str) and value != accession
        )
        values[position] += " (forged)"
        path = edit(
            snapshot, tmp_path / "forged.snapshot",
            "UPDATE rows SET data = ? WHERE source = ? AND table_name = ? "
            "AND row_id = ?",
            (codec.canonical_json(values), name, table, row_id),
        )
        lazy = open_lazy(path)
        try:
            with pytest.raises(SnapshotError) as info:
                lazy.browser().visit(name, accession)
            assert repr(name) in str(info.value)
            assert str(path) in str(info.value)
            assert lazy.hydration_stats()["hydrated"] == []
        finally:
            lazy.close()


class TestDecline:
    def test_source_without_cells_hydrates(self, snapshot, eager, tmp_path):
        name, accession = browsed_source(eager)
        path = edit(
            snapshot, tmp_path / "no_cells.snapshot",
            "DELETE FROM cells WHERE source = ?", (name,),
        )
        lazy = open_lazy(path)
        try:
            assert visit(lazy, name, accession) == visit(eager, name, accession)
            assert lazy.hydration_stats()["hydrated"] == [name]
            assert counters(lazy)["persist.pushdown.page.declined"] >= 1
        finally:
            lazy.close()

    @staticmethod
    def drop_cells_entry(snapshot, target, name, table, column, value):
        return edit(
            snapshot, target,
            "DELETE FROM cells WHERE source = ? AND table_name = ? "
            "AND column_name = ? AND value = ?",
            (name, table.lower(), column.lower(), value),
        )

    def test_cells_missing_a_join_entry_hydrates(self, snapshot, eager, tmp_path):
        """The content hash does not cover ``cells``: a lost entry of a
        secondary join column the page walks must decline, not drop the
        row it indexed from the page."""
        name, accession = browsed_source(eager)
        structure = eager.repository.structure(name)
        want = eager.web.page(name, accession)
        table_name = next(
            t for t in want.annotations
            if min(p.length for p in structure.secondary_paths[t]) >= 2
        )
        _from_table, _from_column, table, column = (
            ObjectResolver(None, structure).forward_steps(table_name)[-1]
        )
        # The entry of a row the page shows, under the column the walk probes.
        value = want.annotations[table_name][0][column.lower()]
        path = self.drop_cells_entry(
            snapshot, tmp_path / "cells_gap.snapshot", name, table, column, value
        )
        lazy = open_lazy(path)
        try:
            assert visit(lazy, name, accession) == visit(eager, name, accession)
            assert lazy.hydration_stats()["hydrated"] == [name]
            assert counters(lazy)["persist.pushdown.page.declined"] == 1
            assert "persist.pushdown.page.accepted" not in counters(lazy)
        finally:
            lazy.close()

    def test_cells_missing_the_accession_entry_declines(self, snapshot, eager, tmp_path):
        """A lost entry of the accession column declines the page read
        instead of answering "no such object"."""
        name, accession = browsed_source(eager)
        resolver = ObjectResolver(None, eager.repository.structure(name))
        path = self.drop_cells_entry(
            snapshot, tmp_path / "cells_gap.snapshot", name,
            resolver.primary_relation, resolver.accession_column, accession,
        )
        lazy = open_lazy(path)
        try:
            assert lazy._lazy.read_page(name, accession) is DECLINED
            assert counters(lazy)["persist.pushdown.page.declined"] == 1
            assert lazy.hydration_stats()["hydrated"] == []
        finally:
            lazy.close()

    def test_unbindable_accession_hydrates(self, snapshot, eager):
        name, _accession = browsed_source(eager)
        probe = 2 ** 64  # beyond a SQLite integer: the cells probe is refused
        lazy = open_lazy(snapshot)
        try:
            assert lazy.web.page(name, probe) == eager.web.page(name, probe)
            assert visit(lazy, name, probe) == visit(eager, name, probe)
            assert lazy.hydration_stats()["hydrated"] == [name]
            assert counters(lazy)["persist.pushdown.page.declined"] == 1
        finally:
            lazy.close()
