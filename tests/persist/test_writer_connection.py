"""The attached writer's long-lived connection.

An attached store writes every checkpoint through one SQLite connection
that lives from ``attach_writer`` to ``detach_writer``. These tests pin
what that connection must not change: a compaction swaps the file under
it, readers see every commit, detaching folds the WAL away, and a forked
child never closes the parent's connection.
"""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro.core import Aladin, AladinConfig
from repro.persist.snapshot import _hash_stored_source
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

def revised(text):
    """A below-threshold change: one phrase reworded, row counts kept."""
    changed = text.replace("Involved in", "Involved with").replace(
        "CRYSTAL STRUCTURE OF", "CRYSTAL STRUCTURE FOR"
    )
    assert changed != text
    return changed


def rows(aladin, name):
    database = aladin.database(name)
    return {
        table: list(database.table(table).raw_rows())
        for table in database.table_names()
    }


def state(aladin):
    """Everything a reopen must reproduce: rows, links, index, ranking."""
    return (
        aladin.source_names(),
        {name: rows(aladin, name) for name in aladin.source_names()},
        sorted(link.key() for link in aladin.repository.object_links()),
        sorted(
            (link.source, link.target, repr(link))
            for link in aladin.repository.attribute_links()
        ),
        sorted(
            (source, accession, length, is_primary, sorted(postings))
            for source, accession, length, is_primary, postings
            in aladin._index.export_documents()
        ),
        [
            (hit.source, hit.accession, round(hit.score, 9))
            for hit in aladin.search_engine().search("kinase", top_k=10)
        ],
    )


def reopened_state(path):
    """State of a lazy reopen; faulting each source in verifies its hash."""
    reader = Aladin.open(path, read_only=True)
    try:
        return state(reader)
    finally:
        reader.close()


def assert_hashes_verify(path):
    """Every manifest content hash matches the rows stored with it."""
    conn = sqlite3.connect(path)
    try:
        stored = conn.execute("SELECT name, content_hash FROM sources").fetchall()
        assert stored
        for name, content_hash in stored:
            assert _hash_stored_source(conn, name) == content_hash
    finally:
        conn.close()


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    scenario = build_scenario(ScenarioConfig(
        seed=77,
        include=("swissprot", "pdb", "go"),
        universe=UniverseConfig(
            n_families=4, members_per_family=2, n_go_terms=10, seed=77
        ),
    ))
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name, source.facts.format_name, source.text,
            **source.facts.import_options,
        )
    aladin.search_engine()
    path = tmp_path_factory.mktemp("writer") / "template.snap"
    aladin.save(path)
    aladin.close()
    assert not os.path.exists(f"{path}-wal")
    return scenario, path


@pytest.fixture()
def world(template, tmp_path):
    """A fresh copy of the template snapshot."""
    scenario, source = template
    path = tmp_path / "world.snap"
    shutil.copy(source, path)
    return scenario, str(path)


def open_writer(path):
    writer = Aladin.open(path, config=AladinConfig())
    writer.database("swissprot")  # fault in: the raw inputs come with it
    return writer


def cycle(writer, scenario, name="go"):
    """Remove and re-add a source: a removal and a full-link checkpoint."""
    source = scenario.source(name)
    writer.remove_source(name)
    writer.add_source(
        name, source.facts.format_name, source.text, **source.facts.import_options
    )


def test_update_compact_update_close_reopens_both_updates(world):
    scenario, path = world
    writer = open_writer(path)
    try:
        text = revised(scenario.source("swissprot").text)
        assert writer.update_source("swissprot", text) is None
        cycle(writer, scenario)
        stats = writer.compact()
        assert stats.sources_verified == len(writer.source_names())
        # The next write must reach the compacted file, not the inode
        # the compaction replaced.
        assert writer.update_source("pdb", revised(scenario.source("pdb").text)) is None
        live = state(writer)
    finally:
        writer.close()
    assert_hashes_verify(path)
    assert reopened_state(path) == live


def test_reader_opened_while_attached_sees_each_checkpoint(world):
    scenario, path = world
    original = scenario.source("swissprot").text
    writer = open_writer(path)
    try:
        for step, text in enumerate(
            [revised(original), original, revised(original), original]
        ):
            assert writer.update_source("swissprot", text) is None
            if step == 1:
                cycle(writer, scenario)
            if step == 2:
                writer.compact()
            reader = Aladin.open(path, read_only=True)
            try:
                assert rows(reader, "swissprot") == rows(writer, "swissprot")
                assert reader.source_names() == writer.source_names()
            finally:
                reader.close()
    finally:
        writer.close()


def test_close_folds_the_wal_into_the_main_file(world, tmp_path):
    scenario, path = world
    writer = open_writer(path)
    try:
        writer.update_source("swissprot", revised(scenario.source("swissprot").text))
        cycle(writer, scenario)
        # While attached, committed pages may live in the WAL only.
        assert os.path.exists(f"{path}-wal")
        live = state(writer)
    finally:
        writer.close()
    assert not os.path.exists(f"{path}-wal")
    assert not os.path.exists(f"{path}-shm")
    alone = tmp_path / "alone" / "main-only.snap"
    alone.parent.mkdir()
    shutil.copy(path, alone)
    assert reopened_state(alone) == live


# Runs in a fresh interpreter: a child forked from it can exit the normal
# way — atexit handlers, module teardown and every finalizer run — which
# a child forked from the test runner itself cannot do.
FORK_SCRIPT = textwrap.dedent(
    """
    import json, os, sys

    from repro.core import Aladin, AladinConfig

    path = sys.argv[1]
    config = AladinConfig()


    def fingerprint(aladin):
        return [
            aladin.source_names(),
            {
                name: {
                    table: [list(row) for row in
                            aladin.database(name).table(table).raw_rows()]
                    for table in aladin.database(name).table_names()
                }
                for name in aladin.source_names()
            },
            sorted(list(link.key()) for link in aladin.repository.object_links()),
        ]


    def fork_child(wait_fd=None):
        pid = os.fork()
        if pid == 0:
            if wait_fd is not None:
                os.read(wait_fd, 1)
            sys.exit(0)  # the normal way out: finalizers run
        return pid


    writer = Aladin.open(path, config=config)
    name = "swissprot"
    writer.database(name)
    text = writer._raw_inputs[name][1]
    assert writer.update_source(name, text.replace("Involved in", "Involved with")) is None
    go = writer._raw_inputs["go"]  # the update faulted every source in
    writer.remove_source("go")
    writer.add_source("go", go[0], go[1], **go[2])

    codes = []
    # A child exits while the parent's writer connection is open ...
    early = fork_child()
    codes.append(os.waitstatus_to_exitcode(os.waitpid(early, 0)[1]))
    assert writer.update_source(name, text) is None  # ... the next checkpoint
    # ... and one exits after the parent closed its writer and readers.
    read_fd, write_fd = os.pipe()
    late = fork_child(read_fd)
    live = fingerprint(writer)
    writer.close()
    os.write(write_fd, b"x")
    codes.append(os.waitstatus_to_exitcode(os.waitpid(late, 0)[1]))
    wal_left = os.path.exists(path + "-wal")

    reopened = Aladin.open(path, read_only=True, lazy=False)  # hash-verified
    intact = fingerprint(reopened) == live
    reopened.close()
    print(json.dumps({"codes": codes, "intact": intact,
                      "wal_left": wal_left}))
    """
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_exit_leaves_the_parent_writer_intact(world, tmp_path):
    _scenario, path = world
    script = tmp_path / "fork_writer.py"
    script.write_text(FORK_SCRIPT, encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, str(script), path],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "intact": True, "wal_left": False}


def test_sibling_writer_follows_a_compaction(world):
    """Two attached stores of one process share the file: when one
    compacts, the other's next checkpoint must land in the new file."""
    scenario, path = world
    first, second = open_writer(path), open_writer(path)
    try:
        second.database("pdb")
        assert second.update_source("pdb", scenario.source("pdb").text) is None
        first.compact()
        text = revised(scenario.source("swissprot").text)
        assert second.update_source("swissprot", text) is None
        live = state(second)
    finally:
        first.close()
        second.close()
    assert reopened_state(path) == live
