"""Concurrency regressions for the lazy read path.

A lazy session is driven from many threads at once by the serving layer
(``repro.serve``), which exposed three races in code written for
single-threaded faults:

* ``release_source`` could tear down a source *while* another thread's
  hydration fault was still attaching it, leaving the system half
  attached (database resident, session bookkeeping empty) — eviction now
  takes ``_hydrate_lock``;
* two threads racing the same cold token (or the cold document table)
  in :class:`LazyInvertedIndex` could both run the restore pass, doubling
  document lengths and silently corrupting every BM25 score after —
  page-ins are now double-checked under a load lock;
* the session kept one sqlite3 connection for all threads, which sqlite3
  refuses across threads — connections are now per-thread.

Each test reconstructs its race deterministically with events/barriers
instead of hoping a scheduler hiccup shows up.
"""

import threading
import time

import pytest

from repro.core import Aladin, AladinConfig
from repro.persist.lazy import LazyInvertedIndex
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

N_THREADS = 8


def _build_world(seed=91):
    scenario = build_scenario(
        ScenarioConfig(
            seed=seed,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=seed,
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
    return aladin


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    aladin = _build_world()
    path = str(tmp_path_factory.mktemp("lazy_concurrency") / "world.snapshot")
    aladin.save(path)
    aladin.close()
    return path


def open_lazy(path):
    return Aladin.open(path, read_only=True, lazy=True)


# ----------------------------------------------------------------------
# release vs. in-flight hydration fault
# ----------------------------------------------------------------------

def test_release_blocks_until_inflight_fault_finishes(snapshot_path):
    """An eviction racing a fault-in must wait for the attach to finish.

    The fault is held open at its narrowest point — inside
    ``restore_source``, after the session has already recorded the source
    as hydrated but before the system has attached it. Without the lock
    in ``release`` the eviction ran right through that window and the
    source ended up attached-but-forgotten: resident in ``_databases``
    yet absent from the session's books, so it could never be evicted
    again.
    """
    aladin = open_lazy(snapshot_path)
    try:
        session = aladin._lazy
        name = sorted(session._stubs)[0]
        engine = aladin._engine

        entered = threading.Event()
        proceed = threading.Event()
        original_restore = engine.restore_source

        def blocking_restore(database, structure, statistics):
            entered.set()
            assert proceed.wait(timeout=10), "release never let the fault resume"
            return original_restore(database, structure, statistics)

        engine.restore_source = blocking_restore
        try:
            fault = threading.Thread(target=session.hydrate, args=(name,))
            fault.start()
            assert entered.wait(timeout=10), "hydration fault never started"

            released = []
            releaser = threading.Thread(
                target=lambda: released.append(session.release(name))
            )
            releaser.start()
            time.sleep(0.2)  # give the releaser time to reach the lock
            # The regression: pre-fix the releaser sailed through mid-fault.
            assert releaser.is_alive(), (
                "release() completed while the hydration fault was still "
                "attaching the source"
            )

            proceed.set()
            fault.join(timeout=10)
            releaser.join(timeout=10)
            assert not fault.is_alive() and not releaser.is_alive()
        finally:
            engine.restore_source = original_restore

        # The eviction ran after the fault completed, and cleanly.
        assert released == [True]
        assert name not in session._hydrated
        assert name not in aladin._databases

        # The source is still re-faultable: state never tore.
        session.hydrate(name)
        assert name in session._hydrated
        assert name in aladin._databases
    finally:
        aladin.close()


# ----------------------------------------------------------------------
# lazy index: concurrent cold page-ins
# ----------------------------------------------------------------------

def test_cold_index_concurrent_searches_rank_identically(snapshot_path):
    """N threads searching a cold lazy index get byte-identical rankings.

    The query token's page-in is slowed down so every thread arrives
    while it is still cold; it must be read once, and every ranking must
    equal a single-threaded session's.
    """
    reference = open_lazy(snapshot_path)
    try:
        expected = reference.search_engine().search("protein", top_k=10)
        expected_len = len(reference._index)
    finally:
        reference.close()
    assert expected, "query must match something for the test to mean anything"

    aladin = open_lazy(snapshot_path)
    try:
        session = aladin._lazy
        index = aladin._index
        assert isinstance(index, LazyInvertedIndex)
        engine = aladin.search_engine()

        original_fetch = session.fetch_token_postings
        fetch_calls = []

        def slow_fetch(token):
            fetch_calls.append(token)
            time.sleep(0.2)  # hold the cold window open for every thread
            return original_fetch(token)

        session.fetch_token_postings = slow_fetch

        barrier = threading.Barrier(N_THREADS)
        results = [None] * N_THREADS
        errors = []

        def worker(i):
            try:
                barrier.wait(timeout=10)
                results[i] = engine.search("protein", top_k=10)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        session.fetch_token_postings = original_fetch

        assert not errors, errors
        # Read exactly once despite N concurrent cold readers.
        assert fetch_calls == ["protein"]
        assert len(aladin._index) == expected_len
        for result in results:
            assert result == expected
        # And the index stayed sane for later queries.
        assert engine.search("protein", top_k=10) == expected
    finally:
        aladin.close()


def test_same_token_pages_in_exactly_once(snapshot_path):
    """Two threads racing one cold token's postings load it once."""
    aladin = open_lazy(snapshot_path)
    try:
        session = aladin._lazy
        assert isinstance(aladin._index, LazyInvertedIndex)
        index = aladin._index.reader()
        len(index)  # read the document totals first: isolate the token race

        original_fetch = session.fetch_token_postings
        calls = []

        def slow_fetch(token):
            calls.append(token)
            time.sleep(0.2)
            return original_fetch(token)

        session.fetch_token_postings = slow_fetch

        barrier = threading.Barrier(2)
        results = [None, None]

        def worker(i):
            barrier.wait(timeout=10)
            results[i] = list(index.postings("protein"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        session.fetch_token_postings = original_fetch

        assert calls == ["protein"]
        assert results[0] == results[1]
        assert results[0] == list(index.postings("protein"))
    finally:
        aladin.close()


# ----------------------------------------------------------------------
# object pages: concurrent first browses of one unhydrated source
# ----------------------------------------------------------------------

def test_concurrent_first_browses_verify_once(snapshot_path, monkeypatch):
    """N threads browsing one cold source see equal pages: one reads its
    page from the snapshot, verifying the slice once, and the others find
    that read taken and hydrate the source once; its structure is
    decoded once for both."""
    from repro.persist import SnapshotStore
    from repro.serve import serialize_view

    calls = {"verify": 0, "structure": 0}
    for method, key in (
        ("verify_source_slice", "verify"),
        ("_read_source_structure", "structure"),
    ):
        original = getattr(SnapshotStore, method)

        def counting(self, *args, _original=original, _key=key):
            calls[_key] += 1
            if _key == "verify":
                time.sleep(0.1)  # hold the cold window open for every thread
            return _original(self, *args)

        monkeypatch.setattr(SnapshotStore, method, counting)

    reference = Aladin.open(snapshot_path, read_only=True, lazy=False)
    try:
        source = next(
            name for name in reference.source_names()
            if reference.web.accessions(name)
        )
        accession = reference.web.accessions(source)[0]
        want = serialize_view(reference.browser().visit(source, accession))
    finally:
        reference.close()
    calls.update(verify=0, structure=0)

    aladin = open_lazy(snapshot_path)
    try:
        barrier = threading.Barrier(N_THREADS)
        views, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10)
                views.append(
                    serialize_view(aladin.browser().visit(source, accession))
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert views == [want] * N_THREADS
        assert calls == {"verify": 1, "structure": 1}
        assert aladin.hydration_stats()["hydrated"] == [source]
    finally:
        aladin.close()


# ----------------------------------------------------------------------
# per-thread connections
# ----------------------------------------------------------------------

def test_session_connections_are_per_thread(snapshot_path):
    """Pushdown reads from many threads never trip sqlite3's thread check.

    Pre-fix the session cached a single connection created by whichever
    thread touched it first; every other thread then died with
    ``sqlite3.ProgrammingError``. The close path must also work from a
    thread that never ran a query (the event loop closes generations from
    an executor thread).
    """
    aladin = open_lazy(snapshot_path)
    try:
        engine = aladin.search_engine()
        errors = []
        barrier = threading.Barrier(N_THREADS)

        def worker():
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    assert engine.search("kinase", top_k=5) is not None
                    aladin.repository.object_links()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
    finally:
        closer = threading.Thread(target=aladin.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive()


def test_deferred_links_replay_exactly_once(snapshot_path):
    """Concurrent first link reads replay the link web exactly once.

    Attribute links are appended without dedup, so a doubled loader pass
    shows up as a doubled ``attribute_links()`` — the regression this
    pins is the unlocked loader pop in ``load_links``.
    """
    reference = open_lazy(snapshot_path)
    try:
        expected_attr = len(reference.repository.attribute_links())
        expected_obj = len(reference.repository.object_links())
    finally:
        reference.close()

    aladin = open_lazy(snapshot_path)
    try:
        session = aladin._lazy
        repository = aladin.repository
        original_load = session._load_links

        def slow_load(repo):
            time.sleep(0.2)  # hold the cold window open for every thread
            return original_load(repo)

        repository.set_deferred_links(slow_load)

        barrier = threading.Barrier(N_THREADS)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10)
                repository.object_links()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors, errors
        assert len(repository.attribute_links()) == expected_attr
        assert len(repository.object_links()) == expected_obj
    finally:
        aladin.close()


# ----------------------------------------------------------------------
# pushed-down per-object link reads vs. the whole-web replay
# ----------------------------------------------------------------------
def test_pushed_down_links_race_the_replay(snapshot_path):
    """Per-object reads stay exact while another thread replays the web.

    Readers answer from SQLite until the replay publishes, then from
    memory; either way every answer equals the fully loaded reference,
    and the replay itself still runs exactly once.
    """
    reference = open_lazy(snapshot_path)
    try:
        reference.repository.load_links()
        objects = sorted(
            {e for l in reference.repository.object_links() for e in l.endpoints()}
        )[:40]
        expected = {o: reference.repository.links_of(*o) for o in objects}
        expected_attr = len(reference.repository.attribute_links())
    finally:
        reference.close()

    aladin = open_lazy(snapshot_path)
    try:
        session = aladin._lazy
        repository = aladin.repository
        replays = []
        replay_started = threading.Event()

        def slow_load(repo):
            replays.append(threading.current_thread().name)
            replay_started.set()
            time.sleep(0.2)  # readers keep querying while the replay runs
            return session._load_links(repo)

        repository.set_deferred_links(slow_load, session.lookup_links)
        barrier = threading.Barrier(N_THREADS + 1)
        errors = []
        mismatches = []

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    for obj in objects:
                        if repository.links_of(*obj) != expected[obj]:
                            mismatches.append(obj)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def replayer():
            try:
                barrier.wait(timeout=10)
                repository.object_links()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(N_THREADS)]
        threads.append(threading.Thread(target=replayer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert not errors, errors
        assert not mismatches, mismatches[:5]
        assert replay_started.is_set() and len(replays) == 1
        assert repository.links_loaded
        assert aladin.hydration_stats()["link_lookups"] > 0
        assert len(repository.attribute_links()) == expected_attr
    finally:
        aladin.close()
