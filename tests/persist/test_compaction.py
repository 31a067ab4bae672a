"""Online snapshot compaction: reclaim churn, preserve state exactly.

The two halves of the compaction contract:

* the *space* half — after a maintenance churn loop (sources added,
  updated, removed), ``compact()`` reclaims at least half of the bloat
  the DELETE-then-rewrite checkpoints left behind;
* the *fidelity* half — a warm open of the compacted snapshot is
  indistinguishable from one of the pre-compaction snapshot: rows,
  structures, link webs, duplicate sets, postings, and BM25 rankings all
  byte-identical, pinned with the same fingerprints the checkpoint suite
  uses.
"""

import os
import sqlite3
import threading
import time

import pytest

from repro.core import Aladin, AladinConfig
from repro.persist import CompactionStats, SnapshotError, SnapshotStore
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def small_scenario(seed=84):
    return build_scenario(
        ScenarioConfig(
            seed=seed,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=seed,
            ),
        )
    )


def integrate(scenario, names):
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        if source.name not in names:
            continue
        aladin.add_source(
            source.name,
            source.facts.format_name,
            source.text,
            **source.facts.import_options,
        )
    return aladin


def fingerprint(aladin):
    """Rows, object links (duplicates included), and attribute links."""
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
            link.certainty,
            *sorted(
                [
                    (link.source_a, link.accession_a),
                    (link.source_b, link.accession_b),
                ]
            ),
        )
        for link in aladin.repository.object_links()
    )
    attribute_links = sorted(l.key() for l in aladin.repository.attribute_links())
    return aladin.source_names(), rows, links, attribute_links


def rankings(aladin, queries=("kinase", "binding", "protein")):
    return {
        query: [
            (h.source, h.accession, round(h.score, 12))
            for h in aladin.search_engine().search(query, top_k=50)
        ]
        for query in queries
    }


def churn(aladin, scenario, cycles=3):
    """A maintenance burst: add/update/remove against the attached store."""
    go = scenario.source("go")
    swissprot = scenario.source("swissprot")
    for _ in range(cycles):
        aladin.add_source(
            "extra", go.facts.format_name, go.text, **go.facts.import_options
        )
        aladin.update_source("swissprot", swissprot.text)  # below threshold
        aladin.remove_source("extra")


@pytest.fixture()
def saved(tmp_path):
    scenario = small_scenario()
    aladin = integrate(scenario, names=("swissprot", "pdb", "pir", "go"))
    aladin.search_engine()
    # Manual-compaction world: the policy must not kick in mid-test.
    aladin.config.persist.auto_compact = False
    path = tmp_path / "live.snapshot"
    aladin.save(path)
    yield scenario, aladin, path
    aladin.close()


class TestCompactionReclaimsChurn:
    def test_compact_reclaims_at_least_half_the_bloat(self, saved):
        scenario, aladin, path = saved
        store = aladin._store
        baseline = store.file_stats()["total_bytes"]
        churn(aladin, scenario)
        bloated = store.file_stats()["total_bytes"]
        bloat = bloated - baseline
        assert bloat > 0, "the churn loop must actually grow the file"
        stats = aladin.compact()
        compacted = store.file_stats()["total_bytes"]
        assert stats.bytes_before == bloated
        assert stats.bytes_after == compacted
        assert stats.reclaimed_bytes == bloated - compacted
        assert bloated - compacted >= 0.5 * bloat, (
            f"compaction reclaimed {bloated - compacted} of {bloat} churn bytes"
        )

    def test_file_stats_track_churn(self, saved):
        scenario, aladin, path = saved
        store = aladin._store
        assert store.file_stats()["reclaimable_bytes"] >= 0
        churn(aladin, scenario)
        assert store.file_stats()["reclaimable_bytes"] > 0
        aladin.compact()
        after = store.file_stats()
        assert after["reclaimable_bytes"] == 0
        assert after["churn_ratio"] == 0.0

    def test_compact_stats_render(self, saved):
        _, aladin, _ = saved
        stats = aladin.compact()
        assert isinstance(stats, CompactionStats)
        assert "sources verified" in stats.render()
        assert stats.sources_verified == len(aladin.source_names())


class TestCompactionPreservesState:
    def test_warm_open_identical_after_compact(self, saved):
        """The fidelity half: webs, duplicate sets, postings, and BM25
        rankings of a post-compaction warm open match the pre-compaction
        open byte for byte."""
        scenario, aladin, path = saved
        churn(aladin, scenario)
        before = Aladin.open(path)
        before_fp = fingerprint(before)
        before_rankings = rankings(before)
        before_vocabulary = before._index.vocabulary_size()
        before.detach_store()
        assert any(kind == "duplicate" for (kind, *_rest) in before_fp[2])

        aladin.compact()

        after = Aladin.open(path)
        assert fingerprint(after) == before_fp == fingerprint(aladin)
        assert rankings(after) == before_rankings
        assert after._index.vocabulary_size() == before_vocabulary
        assert len(after._index) == len(before._index)
        # Warm open off the compacted file is still zero-work.
        assert after._engine.registrations == 0
        assert after._index.pages_indexed == 0
        for name in after.source_names():
            assert after.database(name).column_cache_stats()["misses"] == 0
        after.detach_store()

    def test_checkpoints_keep_working_after_compact(self, saved):
        scenario, aladin, path = saved
        aladin.compact()
        go = scenario.source("go")
        aladin.add_source(
            "extra", go.facts.format_name, go.text, **go.facts.import_options
        )
        reopened = Aladin.open(path)
        assert fingerprint(reopened) == fingerprint(aladin)
        reopened.detach_store()

    def test_leftover_tmp_from_a_crashed_run_is_ignored(self, saved):
        _, aladin, path = saved
        leftover = str(path) + ".compact"
        with open(leftover, "w", encoding="utf-8") as fh:
            fh.write("garbage from a compaction that died mid-write")
        aladin.compact()
        assert not os.path.exists(leftover)


class TestCompactionVerification:
    def test_memory_mismatch_refuses_the_swap(self, saved):
        """A compacted file that does not hash to the in-memory state
        must never replace the snapshot."""
        scenario, aladin, path = saved
        other = integrate(small_scenario(seed=85), names=("swissprot", "pdb"))
        before = fingerprint(Aladin.open(path, read_only=True))
        with pytest.raises(SnapshotError, match="in-memory state"):
            aladin._store.compact(other)
        # The original snapshot is untouched and still opens.
        assert fingerprint(Aladin.open(path, read_only=True)) == before
        assert not os.path.exists(str(path) + ".compact")

    def test_legacy_nonfinite_rows_refused_by_compaction(
        self, tmp_path, monkeypatch
    ):
        """An old build stored non-finite row cells as bare NaN tokens.
        Such a file still opens, but its slice no longer hashes like the
        in-memory state, so compaction refuses the swap and leaves the
        original in place."""
        import json as json_module
        import math

        import repro.persist.snapshot as snapshot_module
        from repro.relational.database import Database as RelDatabase
        from repro.relational.schema import Column, TableSchema
        from repro.relational.types import DataType

        database = RelDatabase("legacy")
        table = database.create_table(
            TableSchema(
                name="m",
                columns=[
                    Column("id", DataType.TEXT, nullable=False),
                    Column("score", DataType.FLOAT, nullable=True),
                ],
            )
        )
        table.bulk_load([("A1", math.nan), ("A2", 2.0)])
        aladin = Aladin(AladinConfig())
        aladin.config.persist.auto_compact = False
        aladin.add_database(database)
        path = tmp_path / "legacy.snapshot"
        with monkeypatch.context() as patched:
            # Write exactly what an old build wrote: bare-NaN row tokens.
            patched.setattr(
                snapshot_module,
                "_encode_row",
                lambda tup: json_module.dumps(
                    list(tup), separators=(",", ":")
                ),
            )
            aladin.save(path)
        aladin.close()

        def legacy_rows():
            reader = Aladin.open(path, read_only=True)
            try:
                return sorted(reader.database("legacy").table("m").raw_rows())
            finally:
                reader.close()

        rows = legacy_rows()
        assert rows[0][0] == "A1" and math.isnan(rows[0][1])
        assert list(rows[1]) == ["A2", 2.0]
        with open(path, "rb") as handle:
            before = handle.read()
        warm = Aladin.open(path)
        with pytest.raises(SnapshotError, match="content hash differs"):
            warm.compact()
        warm.close()
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert not os.path.exists(str(path) + ".compact")
        rows = legacy_rows()
        assert rows[0][0] == "A1" and math.isnan(rows[0][1])

    def test_foreign_sqlite_is_refused(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(SnapshotError, match="not an ALADIN snapshot"):
            SnapshotStore(path).compact()

    def test_compact_requires_an_attached_store(self):
        aladin = Aladin(AladinConfig())
        with pytest.raises(SnapshotError, match="no snapshot attached"):
            aladin.compact()

    def test_in_process_writers_serialize_against_compaction(self, saved):
        """Regression: the advisory lock is reentrant within a process,
        so a sibling store's checkpoint could land between compaction's
        rewrite and its swap — and be thrown away. All write operations
        on one file now share a per-path mutex; while any in-process
        writer holds it, compaction waits."""
        from repro.persist.snapshot import _WRITE_MUTEXES, _write_mutex

        _, aladin, path = saved
        holder = _write_mutex(str(path))
        holder.__enter__()
        compacted = []
        worker = threading.Thread(
            target=lambda: compacted.append(aladin.compact())
        )
        try:
            worker.start()
            time.sleep(0.3)
            assert not compacted  # compaction is waiting on the writer
        finally:
            holder.__exit__(None, None, None)
        worker.join(timeout=10)
        assert len(compacted) == 1
        assert compacted[0].sources_verified == len(aladin.source_names())
        # The refcounted registry drains: no per-path entry outlives its
        # holders (the bound that keeps long-lived processes leak-free).
        assert not _WRITE_MUTEXES


class TestAutoCompaction:
    def test_policy_triggers_after_churn(self, tmp_path):
        scenario = small_scenario(seed=86)
        config = AladinConfig()
        config.persist.compact_after_bytes = 1  # any size qualifies
        config.persist.compact_churn_ratio = 0.02
        aladin = integrate(scenario, names=("swissprot", "pdb"))
        aladin.config = config  # policy only matters post-save
        aladin.save(tmp_path / "auto.snapshot")
        churn(aladin, scenario, cycles=2)
        stats = aladin._store.file_stats()
        # The remove-churn pushed the ratio over 0.02, so the policy
        # compacted behind the last checkpoint: nothing left to reclaim.
        assert stats["churn_ratio"] < 0.02
        assert fingerprint(Aladin.open(aladin._store.path)) == fingerprint(aladin)
        aladin.close()

    def test_policy_respects_thresholds(self, saved):
        scenario, aladin, path = saved
        aladin.config.persist.auto_compact = True
        aladin.config.persist.compact_after_bytes = 1 << 40  # never
        churn(aladin, scenario, cycles=1)
        assert aladin._store.file_stats()["reclaimable_bytes"] > 0

    def test_maybe_compact_disabled(self, saved):
        _, aladin, _ = saved
        policy = aladin.config.persist
        policy.auto_compact = False
        assert aladin._store.maybe_compact(aladin, policy) is None

    def test_auto_compaction_failure_does_not_fail_maintenance(self, saved):
        """A housekeeping failure behind a committed checkpoint must be a
        warning, not an error out of the already-successful operation."""
        scenario, aladin, path = saved

        def exploding_maybe_compact(_aladin, _policy):
            raise SnapshotError("disk full during VACUUM INTO")

        aladin._store.maybe_compact = exploding_maybe_compact
        go = scenario.source("go")
        try:
            with pytest.warns(RuntimeWarning, match="auto-compaction"):
                aladin.add_source(
                    "extra", go.facts.format_name, go.text,
                    **go.facts.import_options,
                )
        finally:
            del aladin._store.maybe_compact  # restore the class method
        # The maintenance op committed despite the housekeeping failure.
        reopened = Aladin.open(path, read_only=True)
        assert "extra" in reopened.source_names()
        assert fingerprint(reopened) == fingerprint(aladin)

    def test_maybe_compact_runs_when_due(self, saved):
        scenario, aladin, _ = saved
        churn(aladin, scenario, cycles=1)
        policy = aladin.config.persist
        policy.auto_compact = True
        policy.compact_after_bytes = 1
        policy.compact_churn_ratio = 0.0
        stats = aladin._store.maybe_compact(aladin, policy)
        assert isinstance(stats, CompactionStats)
