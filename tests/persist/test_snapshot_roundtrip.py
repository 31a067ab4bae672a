"""Full round-trip: a reopened system is indistinguishable from the saved one.

The warm-start contract: ``Aladin.open`` rehydrates sources, profiles,
links, duplicates, and search state exactly, and does so without running
a single discovery, linking, or index-build step (checked through the
engine, cache, and index counters).
"""

import dataclasses
import json
import math
import sqlite3

import pytest

from repro.core import Aladin, AladinConfig
from repro.persist import FORMAT_VERSION, SnapshotError, SnapshotLock
from repro.persist import codec
from repro.persist.snapshot import _hash_stored_source
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def link_fingerprint(aladin, kind=None):
    return sorted(
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
        for link in aladin.repository.object_links(kind)
    )


@pytest.fixture(scope="module")
def reopened(integrated_world, tmp_path_factory):
    scenario, aladin = integrated_world
    path = tmp_path_factory.mktemp("snap") / "world.snapshot"
    aladin.save(path)
    aladin.detach_store()  # later tests mutate `aladin` without checkpoints
    return scenario, aladin, Aladin.open(path)


class TestRoundTripEquality:
    def test_sources_and_rows_match(self, reopened):
        _, original, warm = reopened
        assert warm.source_names() == original.source_names()
        for name in original.source_names():
            cold_db = original.database(name)
            warm_db = warm.database(name)
            assert warm_db.table_names() == cold_db.table_names()
            for table_name in cold_db.table_names():
                assert (
                    list(warm_db.table(table_name).raw_rows())
                    == list(cold_db.table(table_name).raw_rows())
                )

    def test_structures_match(self, reopened):
        _, original, warm = reopened
        for name in original.source_names():
            assert warm.repository.structure(name) == original.repository.structure(name)

    def test_profiles_match_and_are_the_cached_objects(self, reopened):
        _, original, warm = reopened
        for name in original.source_names():
            cold_record = original.repository.source(name)
            warm_record = warm.repository.source(name)
            assert warm_record.profiles == cold_record.profiles
            assert warm_record.row_counts == cold_record.row_counts
            # The identity invariant of the metadata repository survives
            # rehydration: the record's profiles ARE the ColumnStore caches.
            database = warm.database(name)
            for attr, profile in warm_record.profiles.items():
                assert profile is database.table(attr.table).column_profile(attr.column)

    def test_engine_statistics_match(self, reopened):
        _, original, warm = reopened
        for name in original.source_names():
            assert (
                warm._engine.statistics_for(name)
                == original._engine.statistics_for(name)
            )

    def test_links_and_duplicates_match(self, reopened):
        _, original, warm = reopened
        assert link_fingerprint(warm) == link_fingerprint(original)
        duplicates = link_fingerprint(original, kind="duplicate")
        assert duplicates  # the scenario must actually exercise step 5
        assert link_fingerprint(warm, kind="duplicate") == duplicates
        assert sorted(
            l.key() for l in warm.repository.attribute_links()
        ) == sorted(l.key() for l in original.repository.attribute_links())

    def test_search_results_match(self, reopened):
        scenario, original, warm = reopened
        queries = [p.name for p in scenario.universe.proteins[:5]] + ["kinase"]
        for query in queries:
            cold_hits = {
                (h.source, h.accession, round(h.score, 9))
                for h in original.search_engine().search(query, top_k=50)
            }
            warm_hits = {
                (h.source, h.accession, round(h.score, 9))
                for h in warm.search_engine().search(query, top_k=50)
            }
            assert warm_hits == cold_hits


class TestWarmStartDoesNoIntegrationWork:
    def test_zero_engine_and_cache_counters(self, reopened):
        _, _, warm = reopened
        assert warm._engine.registrations == 0
        assert warm._engine.comparisons_made == 0
        for name in warm.source_names():
            assert warm.database(name).column_cache_stats()["misses"] == 0
        assert warm.reports == []  # no pipeline step ran

    def test_index_restored_without_crawling(self, reopened):
        _, original, warm = reopened
        assert warm._index is not None
        assert warm._index.pages_indexed == 0
        assert len(warm._index) == len(original._index)
        assert warm._index.vocabulary_size() == original._index.vocabulary_size()

    def test_raw_inputs_survive_for_update_source(self, reopened):
        scenario, _, warm = reopened
        # Below-threshold update works on a reopened system: the raw text
        # and import options were persisted with the source.
        report = warm.update_source("swissprot", scenario.source("swissprot").text)
        assert report is None

    def test_config_round_trips(self, tmp_path):
        scenario = build_scenario(
            ScenarioConfig(
                seed=81,
                include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=3, members_per_family=2, seed=81),
            )
        )
        config = AladinConfig()
        config.detect_duplicates = False
        config.reanalysis_change_threshold = 0.5
        config.linking.min_match_fraction = 0.25
        config.channels.sequence = False
        aladin = Aladin(config)
        for source in scenario.sources:
            aladin.add_source(source.name, source.facts.format_name, source.text)
        path = tmp_path / "configured.snapshot"
        aladin.save(path)
        # The snapshot carries the knobs it was integrated with...
        warm = Aladin.open(path)
        assert warm.config == config
        # ...unless the caller explicitly overrides them.
        override = AladinConfig()
        assert Aladin.open(path, config=override).config is override


def _reject_constant(_value):
    raise ValueError("bare non-finite constant in supposedly strict JSON")


def strict_loads(text):
    """Parse as a strict JSON consumer would: NaN/Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class TestNonFiniteStatsRoundTrip:
    """Regression: ``canonical_json`` emitted bare ``NaN``/``Infinity``
    for non-finite ColumnProfile statistics — invalid JSON that broke
    strict reparsing and content-hash portability. Non-finite floats are
    now encoded explicitly and round-trip exactly."""

    WEIRD = {
        "avg_length": math.nan,
        "numeric_fraction": math.inf,
        "alpha_fraction": -math.inf,
    }

    def _weird_profile(self, profile):
        return dataclasses.replace(profile, **self.WEIRD)

    def test_canonical_json_is_strict_json(self, integrated_world):
        _, aladin = integrated_world
        name = aladin.source_names()[0]
        record = aladin.repository.source(name)
        attr, profile = next(iter(sorted(
            record.profiles.items(), key=lambda item: item[0].qualified
        )))
        payload = codec.canonical_json(
            codec.profile_to_dict(self._weird_profile(profile))
        )
        for bare in ("NaN", "Infinity"):
            assert bare not in payload
        strict_loads(payload)  # a strict parser accepts the text

    def test_canonical_loads_restores_non_finite_floats(self, integrated_world):
        _, aladin = integrated_world
        name = aladin.source_names()[0]
        record = aladin.repository.source(name)
        _attr, profile = next(iter(record.profiles.items()))
        weird = self._weird_profile(profile)
        restored = codec.profile_from_dict(
            codec.canonical_loads(
                codec.canonical_json(codec.profile_to_dict(weird))
            )
        )
        assert math.isnan(restored.avg_length)
        assert restored.numeric_fraction == math.inf
        assert restored.alpha_fraction == -math.inf
        assert restored.column == weird.column
        assert restored.row_count == weird.row_count

    def test_canonical_json_rejects_unencoded_nan(self):
        # allow_nan=False backstops the encoder: a payload shape the
        # wrapper does not reach can never silently emit invalid JSON.
        class Opaque:
            pass

        with pytest.raises(TypeError):
            codec.canonical_json({"x": Opaque()})

    def test_row_cells_with_non_finite_floats_are_strict_json(self, tmp_path):
        # The same defect existed one layer down: a FLOAT *cell* holding
        # a non-finite value reached the rows table as a bare NaN token
        # through the row encoder. ``insert`` coerces NaN to NULL, but
        # ``bulk_load`` documents itself as coercion-free, so a
        # programmatically built database can carry the hostile value —
        # the persist layer must serialize it strictly regardless.
        from repro.relational.database import Database
        from repro.relational.schema import Column, TableSchema
        from repro.relational.types import DataType

        database = Database("hostile")
        table = database.create_table(
            TableSchema(
                name="m",
                columns=[
                    Column("id", DataType.TEXT, nullable=False),
                    Column("score", DataType.FLOAT, nullable=True),
                ],
            )
        )
        table.bulk_load([("A1", math.nan), ("A2", math.inf), ("A3", 1.5)])
        aladin = Aladin(AladinConfig())
        aladin.add_database(database)
        path = tmp_path / "hostile-rows.snapshot"
        aladin.save(path)
        aladin.detach_store()

        conn = sqlite3.connect(path)
        payloads = [
            row[0]
            for row in conn.execute(
                "SELECT data FROM rows WHERE source = 'hostile' ORDER BY row_id"
            )
        ]
        samples = conn.execute(
            "SELECT samples FROM sources WHERE name = 'hostile'"
        ).fetchone()[0]
        conn.close()
        for payload in payloads + [samples]:
            strict_loads(payload)  # no bare NaN/Infinity anywhere

        warm = Aladin.open(path)
        rows = sorted(warm.database("hostile").table("m").raw_rows())
        assert rows[0][0] == "A1" and math.isnan(rows[0][1])
        assert rows[1][0] == "A2" and rows[1][1] == math.inf
        assert rows[2] == ("A3", 1.5) or list(rows[2]) == ["A3", 1.5]
        warm.detach_store()

    def test_profile_with_non_finite_stats_survives_save_open(self, tmp_path):
        scenario = build_scenario(
            ScenarioConfig(
                seed=83,
                include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=3, members_per_family=2, seed=83),
            )
        )
        aladin = Aladin(AladinConfig())
        for source in scenario.sources:
            aladin.add_source(source.name, source.facts.format_name, source.text)
        name = aladin.source_names()[0]
        record = aladin.repository.source(name)
        attr = sorted(record.profiles, key=lambda a: a.qualified)[0]
        weird = self._weird_profile(record.profiles[attr])
        # Keep the repository/ColumnStore identity invariant while
        # planting the hostile statistics.
        record.profiles[attr] = weird
        aladin.database(name).table(attr.table).columns.restore_profile(
            attr.column, weird
        )
        path = tmp_path / "nonfinite.snapshot"
        aladin.save(path)
        aladin.detach_store()

        conn = sqlite3.connect(path)
        stored = conn.execute(
            "SELECT profile FROM profiles WHERE source = ? AND table_name = ? "
            "AND column_name = ?",
            (name, attr.table, attr.column),
        ).fetchone()[0]
        conn.close()
        strict_loads(stored)  # the persisted payload is valid JSON

        warm = Aladin.open(path)
        restored = warm.repository.source(name).profiles[attr]
        assert math.isnan(restored.avg_length)
        assert restored.numeric_fraction == math.inf
        assert restored.alpha_fraction == -math.inf
        warm.detach_store()


class TestSnapshotValidation:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            Aladin.open(tmp_path / "nope.snapshot")

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "garbage.snapshot"
        path.write_text("this is not a snapshot at all")
        with pytest.raises(SnapshotError, match="not a readable snapshot"):
            Aladin.open(path)

    def test_foreign_sqlite_file_raises(self, tmp_path):
        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(SnapshotError, match="not an ALADIN snapshot"):
            Aladin.open(path)

    def test_save_refuses_to_overwrite_foreign_sqlite(self, integrated_world, tmp_path):
        _, aladin = integrated_world
        path = tmp_path / "app.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE precious (x INTEGER)")
        conn.execute("INSERT INTO precious VALUES (42)")
        conn.commit()
        conn.close()
        with pytest.raises(SnapshotError, match="refusing to overwrite"):
            aladin.save(path)
        # The foreign database was left untouched.
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT x FROM precious").fetchall() == [(42,)]
        conn.close()

    @staticmethod
    def _refused_version(aladin, path, version):
        aladin.save(path)
        aladin.detach_store()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE manifest SET value = ? WHERE key = 'format_version'",
            (str(version),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(SnapshotError, match="format version"):
            Aladin.open(path)
        assert not SnapshotLock(path).held

    def test_version_mismatch_raises(self, integrated_world, tmp_path):
        _, aladin = integrated_world
        self._refused_version(
            aladin, tmp_path / "versioned.snapshot", FORMAT_VERSION + 1
        )

    # The pre-v3 layouts lack the pushdown value index: this build reads
    # v3 only.
    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_previous_format_version_refused(
        self, integrated_world, tmp_path, version
    ):
        _, aladin = integrated_world
        self._refused_version(aladin, tmp_path / "old.snapshot", version)

    def test_tampered_rows_fail_the_content_hash(self, integrated_world, tmp_path):
        _, aladin = integrated_world
        path = tmp_path / "tampered.snapshot"
        aladin.save(path)
        aladin.detach_store()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE rows SET data = '[\"corrupted\"]' WHERE rowid = "
            "(SELECT rowid FROM rows LIMIT 1)"
        )
        conn.commit()
        conn.close()
        with pytest.raises(SnapshotError):
            Aladin.open(path, lazy=False)
        # The faulting-in failed after the writer attach: the lock must
        # not leak.
        assert not SnapshotLock(path).held
        # A lazy open reads no rows up front, so the tampered slice is
        # caught at first touch instead of at open time.
        reopened = Aladin.open(path, read_only=True, lazy=True)
        with pytest.raises(SnapshotError):
            for name in reopened.source_names():
                reopened.database(name)
        reopened.close()

    def test_row_holding_two_values_fails_hydration(
        self, integrated_world, tmp_path
    ):
        """A payload that is two rows under a matching content hash.

        The forged second row has the table's width and only NULLs, so
        neither the hash check nor the table's width and unique checks
        see it: only the batch decode's count check can.
        """
        _, aladin = integrated_world
        path = tmp_path / "forged.snapshot"
        aladin.save(path)
        aladin.detach_store()
        conn = sqlite3.connect(path)
        rowid, name, data = conn.execute(
            "SELECT rowid, source, data FROM rows LIMIT 1"
        ).fetchone()
        forged = data + "," + json.dumps([None] * len(json.loads(data)))
        conn.execute("UPDATE rows SET data = ? WHERE rowid = ?", (forged, rowid))
        conn.execute(
            "UPDATE sources SET content_hash = ? WHERE name = ?",
            (_hash_stored_source(conn, name), name),
        )
        conn.commit()
        conn.close()
        reopened = Aladin.open(path, read_only=True, lazy=True)
        try:
            with pytest.raises(SnapshotError, match="forged.snapshot"):
                reopened.database(name)
        finally:
            reopened.close()
