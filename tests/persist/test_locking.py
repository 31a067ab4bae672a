"""Advisory multi-process writer locking on snapshot files.

The contract: exactly one *process* may attach to a snapshot as a writer
at a time; a second process fails fast with ``SnapshotLockedError``,
blocks up to a timeout, or opens read-only — while attaches *within* one
process stay reentrant (the pre-lock status quo, serialized by SQLite's
WAL + busy timeout). Cross-process behavior is tested with real forks.
"""

import json
import os
import socket
import sqlite3
import threading
import time

import pytest

from repro.core import Aladin, AladinConfig
from repro.persist import SnapshotLock, SnapshotLockedError
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def small_world(include, seed):
    scenario = build_scenario(
        ScenarioConfig(
            seed=seed,
            include=include,
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
    return scenario, aladin

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="locking tests fork real processes"
)


def run_in_child(fn):
    """Run ``fn`` in a forked child; return its JSON-serializable result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            payload = {"ok": fn()}
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = {"error": type(exc).__name__, "message": str(exc)}
        os.write(write_fd, json.dumps(payload).encode("utf-8"))
        os.close(write_fd)
        os._exit(0)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks).decode("utf-8"))


@pytest.fixture(params=["flock", "excl"])
def backend(request):
    return request.param


class TestSnapshotLockUnit:
    def test_acquire_release_cycle(self, tmp_path, backend):
        lock = SnapshotLock(tmp_path / "s.snapshot", backend=backend)
        lock.acquire()
        assert lock.held
        holder = lock.holder_info()
        assert holder["pid"] == os.getpid()
        assert holder["host"] == socket.gethostname()
        lock.release()
        assert not lock.held
        assert not os.path.exists(lock.lock_path)
        lock.acquire()  # a released lock is acquirable again
        lock.release()

    def test_reentrant_within_process(self, tmp_path, backend):
        path = tmp_path / "s.snapshot"
        first = SnapshotLock(path, backend=backend)
        second = SnapshotLock(path, backend=backend)
        first.acquire()
        second.acquire()  # same process: refcounted, not refused
        assert first.held and second.held
        second.release()
        assert first.held  # one hold remains
        first.release()
        assert not first.held

    def test_concurrent_thread_acquires_stay_reentrant(self, tmp_path, backend):
        # Regression: two threads of one process racing acquire() must
        # both succeed (one wins the OS lock, the other reenters) — the
        # registry check and the OS acquire are one atomic step.
        path = tmp_path / "s.snapshot"
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            lock = SnapshotLock(path, backend=backend)
            barrier.wait()
            try:
                lock.acquire(timeout=0.0)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        for _ in range(10):
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for _ in range(2):  # drop both refcounted holds
                SnapshotLock(path, backend=backend).release()
        assert errors == []

    def test_second_process_is_refused_fast(self, tmp_path, backend):
        path = tmp_path / "s.snapshot"
        lock = SnapshotLock(path, backend=backend)
        lock.acquire()
        try:
            result = run_in_child(
                lambda: _child_try_acquire(path, backend, timeout=0.0)
            )
        finally:
            lock.release()
        assert result.get("error") == "SnapshotLockedError"
        assert str(os.getpid()) in result["message"]  # names the holder

    def test_blocking_acquire_succeeds_after_release(self, tmp_path, backend):
        path = tmp_path / "s.snapshot"
        lock = SnapshotLock(path, backend=backend)
        lock.acquire()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: block up to 10s; parent releases mid-wait
            os.close(read_fd)
            try:
                child_lock = SnapshotLock(path, backend=backend)
                child_lock.acquire(timeout=10.0)
                child_lock.release()
                os.write(write_fd, b"acquired")
            except BaseException:  # noqa: BLE001
                os.write(write_fd, b"failed")
            os.close(write_fd)
            os._exit(0)
        os.close(write_fd)
        time.sleep(0.3)
        lock.release()
        outcome = os.read(read_fd, 64)
        os.close(read_fd)
        os.waitpid(pid, 0)
        assert outcome == b"acquired"

    def test_two_processes_race_exactly_one_wins(self, tmp_path, backend):
        """A real writer race: both processes attempt the free lock at
        once; exactly one may hold it."""
        path = tmp_path / "s.snapshot"
        go_read, go_write = os.pipe()
        result_read, result_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: wait for go, race for the lock, report
            os.close(go_write)
            os.close(result_read)
            os.read(go_read, 1)
            won = SnapshotLock(path, backend=backend)._try_acquire()
            os.write(result_write, b"1" if won else b"0")
            os.read(go_read, 1)  # hold (if winner) until the parent tallied
            os.close(result_write)
            os._exit(0)
        os.close(go_read)
        os.close(result_write)
        os.write(go_write, b"g")
        parent_won = SnapshotLock(path, backend=backend)._try_acquire()
        child_won = os.read(result_read, 1) == b"1"
        assert int(parent_won) + int(child_won) == 1
        os.write(go_write, b"d")
        os.close(go_write)
        os.close(result_read)
        os.waitpid(pid, 0)


class TestStaleAndForce:
    def test_stale_dead_pid_lock_is_broken(self, tmp_path):
        # A crashed O_EXCL holder leaves its lock file behind; a dead,
        # same-host PID must be detected and the lock reclaimed.
        path = tmp_path / "s.snapshot"
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)  # reaped: the PID is provably dead
        lock_path = str(path) + ".lock"
        with open(lock_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"pid": pid, "host": socket.gethostname(), "since": 0}
            ))
        lock = SnapshotLock(path, backend="excl")
        lock.acquire(timeout=0.0)  # no SnapshotLockedError
        assert lock.holder_info()["pid"] == os.getpid()
        lock.release()

    def test_live_holder_is_not_stale(self, tmp_path):
        path = tmp_path / "s.snapshot"
        lock_path = str(path) + ".lock"
        with open(lock_path, "w", encoding="utf-8") as fh:
            # Our own PID doubles as a provably live process that is not
            # in this process's reentrancy registry.
            fh.write(json.dumps(
                {"pid": os.getpid(), "host": socket.gethostname(), "since": 0}
            ))
        with pytest.raises(SnapshotLockedError) as excinfo:
            SnapshotLock(path, backend="excl").acquire(timeout=0.0)
        assert excinfo.value.holder["pid"] == os.getpid()

    def test_force_reenters_instead_of_breaking_own_lock(self, tmp_path, backend):
        # Regression: force must never unlink a lock this process
        # already holds — reentry wins, and the exclusion survives.
        path = tmp_path / "s.snapshot"
        lock = SnapshotLock(path, backend=backend)
        lock.acquire()
        again = SnapshotLock(path, backend=backend)
        again.acquire(force=True)  # reenters; the lock file stays ours
        assert os.path.exists(lock.lock_path)
        refused = run_in_child(
            lambda: _child_try_acquire(path, backend, timeout=0.0)
        )
        assert refused.get("error") == "SnapshotLockedError"
        again.release()
        lock.release()

    def test_force_breaks_a_live_lock(self, tmp_path):
        path = tmp_path / "s.snapshot"
        lock_path = str(path) + ".lock"
        with open(lock_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"pid": os.getpid(), "host": socket.gethostname(), "since": 0}
            ))
        lock = SnapshotLock(path, backend="excl")
        lock.acquire(timeout=0.0, force=True)
        lock.release()

    def test_crashed_breaker_sidecar_is_cleared(self, tmp_path):
        # Stale-lock breaking serializes on a `.break` sidecar; a breaker
        # that crashed mid-break leaves it behind with its dead PID. A
        # later acquire must clear the sidecar and still win the lock.
        path = tmp_path / "s.snapshot"
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)  # provably dead
        for suffix, dead in ((".lock", pid), (".lock.break", pid)):
            with open(str(path) + suffix, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"pid": dead, "host": socket.gethostname(), "since": 0}
                ))
        lock = SnapshotLock(path, backend="excl")
        lock.acquire(timeout=2.0)
        assert lock.holder_info()["pid"] == os.getpid()
        assert not os.path.exists(str(path) + ".lock.break")
        lock.release()

    def test_live_breaker_blocks_stale_break(self, tmp_path):
        # While another process is mid-break (live sidecar), a stale lock
        # must not be broken concurrently — the second breaker backs off.
        path = tmp_path / "s.snapshot"
        dead_pid = os.fork()
        if dead_pid == 0:
            os._exit(0)
        os.waitpid(dead_pid, 0)
        with open(str(path) + ".lock", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"pid": dead_pid, "host": socket.gethostname(), "since": 0}
            ))
        with open(str(path) + ".lock.break", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"pid": os.getpid(), "host": socket.gethostname(), "since": 0}
            ))
        with pytest.raises(SnapshotLockedError):
            SnapshotLock(path, backend="excl").acquire(timeout=0.0)
        os.unlink(str(path) + ".lock.break")
        os.unlink(str(path) + ".lock")

    def test_release_does_not_delete_a_force_retaken_lock(self, tmp_path):
        # Regression: a hung holder whose lock was force-broken and
        # retaken must not, on waking up and releasing, delete the *new*
        # holder's lock file (which would let a third writer in).
        path = tmp_path / "s.snapshot"
        old = SnapshotLock(path, backend="excl")
        old.acquire()
        with open(old.lock_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"pid": os.getpid() + 4242, "host": socket.gethostname(),
                 "since": 0}
            ))
        old.release()
        assert os.path.exists(old.lock_path)  # the new holder keeps it
        with open(old.lock_path, encoding="utf-8") as fh:
            assert json.load(fh)["pid"] == os.getpid() + 4242
        os.unlink(old.lock_path)

    def test_unreadable_lock_file_is_not_stale(self, tmp_path):
        path = tmp_path / "s.snapshot"
        with open(str(path) + ".lock", "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        with pytest.raises(SnapshotLockedError):
            SnapshotLock(path, backend="excl").acquire(timeout=0.0)


def _child_try_acquire(path, backend, timeout):
    lock = SnapshotLock(path, backend=backend)
    lock.acquire(timeout=timeout)  # the at-fork hook cleared inherited holds
    lock.release()
    return "acquired"


def _child_open_modes(path):
    """What a second process sees while the parent holds the writer lock.

    No registry scrubbing needed: the ``os.register_at_fork`` hook wipes
    the inherited holds, which is exactly what this asserts.
    """
    outcome = {}
    try:
        Aladin.open(path)
        outcome["attach"] = "succeeded"
    except SnapshotLockedError:
        outcome["attach"] = "locked"
    read_only = Aladin.open(path, read_only=True)
    outcome["read_only_sources"] = read_only.source_names()
    outcome["read_only_flag"] = read_only.read_only
    degrade_config = AladinConfig()
    degrade_config.persist.lock_policy = "readonly"
    degraded = Aladin.open(path, config=degrade_config)
    outcome["degraded_read_only"] = degraded.read_only
    outcome["degraded_store_attached"] = degraded._store is not None
    try:
        degraded.save(str(path) + ".other")  # a different file: allowed
        outcome["save_elsewhere"] = "succeeded"
    except SnapshotLockedError:
        outcome["save_elsewhere"] = "locked"
    try:
        fresh = Aladin(AladinConfig())
        fresh.save(path)  # the locked file: refused
        outcome["save_locked_path"] = "succeeded"
    except SnapshotLockedError:
        outcome["save_locked_path"] = "locked"
    return outcome


class TestAladinLocking:
    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        scenario, aladin = small_world(include=("swissprot", "pdb"), seed=91)
        path = tmp_path_factory.mktemp("lock") / "world.snapshot"
        aladin.save(path)
        yield scenario, aladin, path
        aladin.close()

    def test_save_attaches_as_writer(self, world):
        _, aladin, path = world
        assert aladin._store.write_locked
        assert os.path.exists(str(path) + ".lock")

    def test_second_process_policies(self, world):
        """The acceptance matrix, through a real fork: a second writer
        process cannot attach (fail-fast default), read-only open works,
        and the "readonly" policy degrades instead of raising."""
        _, _, path = world
        result = run_in_child(lambda: _child_open_modes(str(path)))
        assert "error" not in result, result
        outcome = result["ok"]
        assert outcome["attach"] == "locked"
        assert outcome["read_only_sources"] == ["pdb", "swissprot"]
        assert outcome["read_only_flag"] is True
        assert outcome["degraded_read_only"] is True
        assert outcome["degraded_store_attached"] is False
        assert outcome["save_elsewhere"] == "succeeded"
        assert outcome["save_locked_path"] == "locked"

    def test_same_process_reopen_stays_reentrant(self, world):
        # The pre-lock workflow — save, then open the same file in the
        # same process — keeps working (refcounted in-process holds).
        _, aladin, path = world
        warm = Aladin.open(path)
        assert warm.source_names() == aladin.source_names()
        assert not warm.read_only
        warm.detach_store()  # drops one hold; the fixture system keeps its own
        assert aladin._store.write_locked

    def test_detach_store_releases_for_other_processes(self, tmp_path):
        _scenario, aladin = small_world(include=("swissprot",), seed=92)
        path = tmp_path / "release.snapshot"
        aladin.save(path)
        refused = run_in_child(
            lambda: _child_try_acquire(str(path), "flock", timeout=0.0)
        )
        assert refused.get("error") == "SnapshotLockedError"
        aladin.detach_store()
        granted = run_in_child(
            lambda: _child_try_acquire(str(path), "flock", timeout=0.0)
        )
        assert granted.get("ok") == "acquired"

    def test_read_only_open_never_checkpoints(self, tmp_path):
        _scenario, aladin = small_world(include=("swissprot", "pdb"), seed=93)
        path = tmp_path / "ro.snapshot"
        aladin.save(path)
        aladin.close()
        viewer = Aladin.open(path, read_only=True)
        viewer.remove_source("pdb")  # in memory only
        assert Aladin.open(path, read_only=True).source_names() == [
            "pdb", "swissprot",
        ]

    def test_forked_child_does_not_inherit_writer_status(self, world):
        """Fork hygiene reaches the store layer too: a child's inherited
        store must not claim `write_locked` for a lock its process does
        not hold, and its attach must go through real acquisition
        (refused here, since the parent holds the lock)."""
        _, aladin, _path = world
        assert aladin._store.write_locked

        def child_view():
            store = aladin._store  # the inherited attachment
            outcome = {"write_locked": store.write_locked}
            try:
                store.attach_writer(timeout=0.0)
                outcome["attach"] = "succeeded"
            except SnapshotLockedError:
                outcome["attach"] = "locked"
            return outcome

        result = run_in_child(child_view)
        assert "error" not in result, result
        assert result["ok"] == {"write_locked": False, "attach": "locked"}
        assert aladin._store.write_locked  # the parent's hold is untouched

    def test_failed_open_releases_the_lock(self, tmp_path):
        # Regression: a failure *after* load_manifest (e.g. a malformed
        # persisted config) must not leak the writer lock — nothing
        # would survive to release it.
        _scenario, aladin = small_world(include=("swissprot",), seed=94)
        path = tmp_path / "leak.snapshot"
        aladin.save(path)
        aladin.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE manifest SET value = '{}' WHERE key = 'config'")
        conn.commit()
        conn.close()
        with pytest.raises(Exception):
            Aladin.open(path)  # config_from_dict dies on the empty payload
        assert not SnapshotLock(path).held
        # A fresh attach (with an explicit config) works immediately.
        survivor = Aladin.open(path, config=AladinConfig())
        assert survivor.source_names() == ["swissprot"]
        survivor.close()

    def test_lock_timeout_flag_blocks_then_raises(self, world):
        _, _, path = world
        started = time.monotonic()
        result = run_in_child(
            lambda: _child_try_acquire(str(path), "flock", timeout=0.5)
        )
        assert result.get("error") == "SnapshotLockedError"
        assert time.monotonic() - started >= 0.5
