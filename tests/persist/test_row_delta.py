"""Differential test of the below-threshold update path.

A below-threshold ``update_source`` swaps in the re-import's tables
whole and re-indexes and checkpoints only the documents that changed.
Seeded random re-renders of a snapshot-attached system — identical text,
whitespace-only changes, typos in text fields, a value that flips a
column's inferred type, and rows added or dropped within the threshold —
must each leave a system equal to what a full swap would have built:

* the tables equal a fresh import of the text, and the link web is
  unchanged;
* search rankings equal those of an index rebuilt from a crawl of the
  live tables (through a fresh object web, so no stale page cache hides);
* a lazy reopen equals the live writer (rows, documents in order,
  rankings);
* the source's slice of the snapshot equals a fresh save of the live
  system (content hash, rows, cells, profiles, postings per accession).

An update that changes no page leaves every index row untouched.
"""

import dataclasses
import json
import random
import sqlite3
from types import SimpleNamespace

import pytest

from repro.access.crawler import Crawler
from repro.access.index import InvertedIndex
from repro.access.objects import ObjectWeb
from repro.access.search import SearchEngine
from repro.core import Aladin, AladinConfig
from repro.core.aladin import _import_task
from repro.linking.textlinks import tokenize
from repro.obs.events import CHECKPOINT_COMMITTED, SOURCE_UPDATED
from repro.persist import SnapshotError
from repro.persist.snapshot import SnapshotStore
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

STEPS = 10
SEEDS = (3, 11)
INDEX_TABLES = ("index_documents", "index_postings")


def genes_text(rows, extra=()):
    """A one-table delimited source with a numeric column to flip."""
    lines = ["accession\tname\tlength\tdescription"]
    lines += [
        f"GEN{i:03d}\tgene{i}\t{100 + i}\tputative kinase {i} of the golgi"
        for i in range(rows)
    ]
    lines += list(extra)
    return "\n".join(lines) + "\n"


def make_config():
    config = AladinConfig()
    config.observability.enabled = True
    config.persist.auto_compact = False
    return config


@pytest.fixture(scope="module")
def originals():
    scenario = build_scenario(ScenarioConfig(
        seed=77,
        include=("swissprot", "pdb", "go"),
        universe=UniverseConfig(
            n_families=4, members_per_family=2, n_go_terms=10, seed=77,
        ),
    ))
    texts = {
        source.name: (source.facts.format_name, source.text,
                      source.facts.import_options)
        for source in scenario.sources
    }
    texts["genes"] = ("delimited", genes_text(40), {})
    return texts


def build(originals, path):
    aladin = Aladin(make_config())
    for name, (format_name, text, options) in originals.items():
        aladin.add_source(name, format_name, text, **options)
    aladin.search_engine()
    aladin.save(path)
    return aladin


# ----------------------------------------------------------------------
# the re-renders
# ----------------------------------------------------------------------
def typo(rng, text, prefix):
    """Substitute one letter inside a random line starting with ``prefix``."""
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    index = rng.choice(candidates)
    line = lines[index]
    positions = [i for i in range(len(prefix), len(line)) if line[i].isalpha()]
    position = rng.choice(positions)
    replacement = "q" if line[position] != "q" else "z"
    lines[index] = line[:position] + replacement + line[position + 1:]
    return "\n".join(lines)


def render(rng, originals, name, kind):
    _format, text, _options = originals[name]
    if kind == "identical":
        return text
    if kind == "whitespace":
        return text + "\n\n" if name == "swissprot" else text.replace("\n", "\n\n", 3)
    if kind == "typo":
        return typo(rng, text, "DE   " if name == "swissprot" else "GEN")
    if kind == "type_flip":
        # One non-numeric length turns the column from INTEGER to TEXT.
        victim = rng.randrange(40)
        return text.replace(f"\t{100 + victim}\t", f"\t{100 + victim}aa\t")
    if kind == "row_added":
        if name == "swissprot":  # one more keyword row of one entry
            return text.replace("KW   ", "KW   Glycoprotein; ", 1)
        return genes_text(40, [f"GEN{900 + rng.randrange(50)}\tnewgene\t7\tnovel kinase"])
    if kind == "row_dropped":
        if name == "swissprot":  # one cross-reference row fewer
            lines = text.split("\n")
            drs = [i for i, line in enumerate(lines) if line.startswith("DR   MIM")]
            del lines[rng.choice(drs)]
            return "\n".join(lines)
        lines = text.split("\n")
        del lines[1 + rng.randrange(40)]
        return "\n".join(lines)
    raise AssertionError(kind)


KINDS = ("identical", "whitespace", "typo", "type_flip", "row_added", "row_dropped")


def schedule(seed):
    rng = random.Random(seed)
    steps = []
    for _ in range(STEPS):
        kind = rng.choice(KINDS)
        name = "genes" if kind == "type_flip" else rng.choice(("swissprot", "genes"))
        steps.append((name, kind))
    # Every kind runs at least once per seed.
    steps += [("genes", kind) for kind in KINDS if kind not in {k for _, k in steps}]
    return rng, steps


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------
def tables(database):
    return {
        name: (database.table(name).schema, list(database.table(name).raw_rows()))
        for name in database.table_names()
    }


def link_web(aladin):
    repository = aladin.repository
    return (
        [link.key() for link in repository.object_links()],
        [(link.source, link.target, repr(link)) for link in repository.attribute_links()],
    )


def fresh_web(aladin):
    """A new object web over the live tables: no cache survives into it."""
    web = ObjectWeb(aladin.repository)
    for name in aladin.source_names():
        web.attach_database(name, aladin.database(name))
    return web


def queries(originals):
    words = sorted({
        token
        for _format, text, _options in originals.values()
        for token in tokenize(text)
        if len(token) > 3
    })
    return words[::max(1, len(words) // 25)] + ["qinase", "golgi", "aa"]


def rankings(index, words):
    engine = SearchEngine(index)
    return [
        [(hit.source, hit.accession, hit.score, hit.matched_fields)
         for hit in engine.search(word, top_k=1000)]
        for word in words
    ]


def documents(index):
    """Documents in doc-id order, each document's postings as a multiset."""
    return [
        (source, accession, length, is_primary, sorted(postings))
        for source, accession, length, is_primary, postings
        in index.export_documents()
    ]


def all_rows(aladin):
    return {name: tables(aladin.database(name)) for name in aladin.source_names()}


def source_slice(path, name):
    conn = sqlite3.connect(path)
    try:
        source_row = conn.execute(
            "SELECT content_hash, format_name, raw_text, import_options, "
            "structure, samples, row_counts FROM sources WHERE name = ?",
            (name,),
        ).fetchone()
        postings = {}
        for doc, accession, length, is_primary in conn.execute(
            "SELECT id, accession, length, is_primary FROM index_documents "
            "WHERE source = ? ORDER BY id",
            (name,),
        ).fetchall():
            postings[accession] = (length, is_primary, sorted(conn.execute(
                "SELECT token, field, frequency FROM index_postings WHERE doc = ?",
                (doc,),
            ).fetchall()))
        return {
            "source": source_row,
            "schemas": conn.execute(
                "SELECT table_name, schema FROM table_schemas WHERE source = ? "
                "ORDER BY table_name", (name,)).fetchall(),
            "rows": conn.execute(
                "SELECT table_name, row_id, data FROM rows WHERE source = ? "
                "ORDER BY table_name, row_id", (name,)).fetchall(),
            "cells": conn.execute(
                "SELECT table_name, column_name, row_id, value, typeof(value) "
                "FROM cells WHERE source = ? "
                "ORDER BY table_name, column_name, row_id", (name,)).fetchall(),
            "profiles": conn.execute(
                "SELECT table_name, column_name, profile FROM profiles "
                "WHERE source = ? ORDER BY table_name, column_name", (name,)).fetchall(),
            "document_order": list(postings),
            "postings": postings,
        }
    finally:
        conn.close()


def index_rows(path):
    """Every rowid and payload of the index tables."""
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(f"SELECT rowid, * FROM {table} ORDER BY rowid").fetchall()
            for table in INDEX_TABLES
        }
    finally:
        conn.close()


def event_counts(aladin):
    return (
        [e.payload["op"] for e in aladin.obs.events.history(CHECKPOINT_COMMITTED)],
        len(aladin.obs.events.history(SOURCE_UPDATED)),
    )


# ----------------------------------------------------------------------
# the differential run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("writer", ["saved", "reopened"])
def test_random_rerenders_match_a_full_swap(originals, tmp_path, seed, writer):
    path = str(tmp_path / "delta.snapshot")
    aladin = build(originals, path)
    if writer == "reopened":
        aladin.close()
        aladin = Aladin.open(path, config=make_config())
    words = queries(originals)
    web = link_web(aladin)
    rng, steps = schedule(seed)
    try:
        for step, (name, kind) in enumerate(steps):
            text = render(rng, originals, name, kind)
            format_name, _text, options = originals[name]
            before_rows = tables(aladin.database(name))
            before_index = index_rows(path)
            before_events = event_counts(aladin)

            assert aladin.update_source(name, text) is None, (step, kind)

            fresh = _import_task(False, (name, format_name, text, options)).database
            assert tables(aladin.database(name)) == tables(fresh), (step, kind)
            assert link_web(aladin) == web
            rebuilt = InvertedIndex()
            rebuilt.add_pages(Crawler(fresh_web(aladin)).crawl(follow_links=False))
            assert rankings(aladin._index, words) == rankings(rebuilt, words)
            assert sorted(documents(aladin._index)) == sorted(documents(rebuilt))

            ops, updated = event_counts(aladin)
            assert ops[len(before_events[0]):] == ["write"], (step, kind)
            assert updated == before_events[1] + 1
            if before_rows == tables(fresh):
                assert index_rows(path) == before_index, (step, kind)

            fresh_save = str(tmp_path / f"fresh-{step}.snapshot")
            SnapshotStore(fresh_save).write_full(aladin)
            assert source_slice(path, name) == source_slice(fresh_save, name), (
                step, kind,
            )

            reader = Aladin.open(path, read_only=True)
            try:
                assert rankings(reader._index, words) == rankings(aladin._index, words)
                assert documents(reader._index) == documents(aladin._index)
                assert all_rows(reader) == all_rows(aladin)
            finally:
                reader.close()
    finally:
        aladin.close()


def test_update_swaps_every_table_and_rewrites_only_changed_documents(
    originals, tmp_path
):
    path = str(tmp_path / "swap.snapshot")
    aladin = build(originals, path)
    try:
        _format, text, _options = originals["swissprot"]
        for new_text, pages_changed in ((text + "\n\n", 0),
                                        (typo(random.Random(5), text, "DE   "), 1)):
            database = aladin.database("swissprot")
            pages_indexed = aladin._index.pages_indexed
            before = documents(aladin._index)
            before_index = index_rows(path)

            assert aladin.update_source("swissprot", new_text) is None

            swapped = aladin.database("swissprot")
            assert swapped is not database
            assert not {id(swapped.table(n)) for n in swapped.table_names()} & {
                id(database.table(n)) for n in database.table_names()
            }
            record = aladin.repository.source("swissprot")
            for attr, profile in record.profiles.items():
                assert profile is swapped.table(attr.table).column_profile(attr.column)
            assert aladin._index.pages_indexed == pages_indexed + pages_changed
            after = documents(aladin._index)
            assert sum(a != b for a, b in zip(before, after)) == pages_changed
            conn = sqlite3.connect(path)
            try:
                (raw_text,) = conn.execute(
                    "SELECT raw_text FROM sources WHERE name = 'swissprot'"
                ).fetchone()
            finally:
                conn.close()
            assert raw_text == new_text
            if not pages_changed:
                assert index_rows(path) == before_index
    finally:
        aladin.close()


def test_lazy_reader_refuses_postings_a_delta_rewrote(originals, tmp_path):
    """A rewritten document keeps its ``index_documents.id``: a lazy reader
    that loaded the document metadata before the delta must not page in
    the new postings under the old lengths, but raise the designed error."""
    path = str(tmp_path / "reader.snapshot")
    aladin = build(originals, path)
    reader = Aladin.open(path, read_only=True, lazy=True)
    try:
        reader.search_engine().search("kinase")  # documents loaded
        def postings_by_accession():
            return {
                accession: {token for token, _field, _frequency in postings}
                for _source, accession, _length, _primary, postings
                in aladin._index.export_documents("swissprot")
            }

        before = postings_by_accession()
        _format, text, _options = originals["swissprot"]
        aladin.update_source("swissprot", typo(random.Random(5), text, "DE   "))
        after = postings_by_accession()
        (changed,) = [a for a, tokens in after.items() if tokens != before[a]]
        token = min((before[changed] & after[changed]) - {"kinase"})

        with pytest.raises(SnapshotError, match="changed under a lazy reader"):
            reader.search_engine().search(token)

        reader.close()
        reader = Aladin.open(path, read_only=True, lazy=True)
        assert rankings(reader._index, [token]) == rankings(aladin._index, [token])
    finally:
        reader.close()
        aladin.close()


def test_unchanged_config_is_not_re_encoded(originals, tmp_path, monkeypatch):
    """The store remembers the config it last wrote or found: an equal
    config skips ``asdict`` + JSON; a changed one, or a manifest another
    store rewrote, is written again."""
    from repro.persist import snapshot as snapshot_module

    encoded = []

    def counting_asdict(config):
        encoded.append(config)
        return dataclasses.asdict(config)

    monkeypatch.setattr(
        snapshot_module, "dataclasses", SimpleNamespace(asdict=counting_asdict)
    )
    path = str(tmp_path / "config.snapshot")
    aladin = build(originals, path)
    try:
        _format, text, _options = originals["genes"]
        assert len(encoded) == 1  # the save
        aladin.update_source("genes", text)
        aladin.update_source("genes", text)
        assert len(encoded) == 1

        aladin.config.sample_rows_per_table = 4
        aladin.update_source("genes", text)
        assert len(encoded) == 2
        assert manifest_config(path)["sample_rows_per_table"] == 4

        # Another store of this process rewrites the manifest's config.
        other = SnapshotStore(path)
        conn = other._connect()
        with conn:
            other._set_manifest(conn, "config", "{}")
        conn.close()
        aladin.update_source("genes", text)
        assert len(encoded) == 3
        assert manifest_config(path)["sample_rows_per_table"] == 4
    finally:
        aladin.close()


def manifest_config(path):
    conn = sqlite3.connect(path)
    try:
        (config,) = conn.execute(
            "SELECT value FROM manifest WHERE key = 'config'"
        ).fetchone()
    finally:
        conn.close()
    return json.loads(config)
