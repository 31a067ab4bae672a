"""Unit tests for the execution subsystem: ordering, graphs, errors."""

import asyncio
import concurrent.futures
import functools
import threading

import pytest

from repro.exec import ExecError, Executor, TaskGraph
from repro.exec import pool as pool_module


def _double(state, item):
    base = state or 0
    return (item + base) * 2


def _boom_on_three(state, item):
    if item == 3:
        raise ValueError(f"bad item {item}")
    return item


class TestMapOrdered:
    def test_results_in_item_order(self):
        assert Executor().map_ordered(_double, range(10)) == [i * 2 for i in range(10)]

    def test_state_reaches_tasks(self):
        assert Executor().map_ordered(_double, [1, 2], state=100) == [202, 204]

    def test_failure_raises_exec_error_naming_the_task(self):
        with pytest.raises(ExecError) as excinfo:
            Executor().map_ordered(
                _boom_on_three,
                range(6),
                labels=[f"scan:{i}" for i in range(6)],
            )
        assert excinfo.value.task == "scan:3"
        assert "scan:3" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_items_after_a_failure_never_run(self):
        ran = []

        def record(state, item):
            ran.append(item)
            return _boom_on_three(state, item)

        with pytest.raises(ExecError):
            Executor().map_ordered(record, range(6))
        assert ran == [0, 1, 2, 3]

    def test_default_labels(self):
        with pytest.raises(ExecError) as excinfo:
            Executor().map_ordered(_boom_on_three, [3])
        assert excinfo.value.task == "task[0]"

    @pytest.mark.parametrize("size", [0, 1, 2, 17])
    def test_results_in_item_order_for_every_size(self, size):
        items = list(range(size, 0, -1))
        assert Executor().map_ordered(_double, items) == [i * 2 for i in items]

    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    def test_failure_at_any_position(self, position, labelled):
        ran = []

        def fail_at_position(state, item):
            ran.append(item)
            if item == position:
                raise ValueError(f"bad item {item}")
            return item

        labels = [f"scan:{i}" for i in range(5)] if labelled else None
        with pytest.raises(ExecError) as excinfo:
            Executor().map_ordered(fail_at_position, range(5), labels=labels)
        expected = f"scan:{position}" if labelled else f"task[{position}]"
        assert excinfo.value.task == expected
        assert repr(expected) in str(excinfo.value)
        assert f"bad item {position}" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert ran == list(range(position + 1))

    @pytest.mark.parametrize(
        "make_items",
        [
            lambda: [1, 2, 3],
            lambda: (1, 2, 3),
            lambda: range(1, 4),
            lambda: (n for n in (1, 2, 3)),
        ],
        ids=["list", "tuple", "range", "generator"],
    )
    def test_accepts_any_iterable(self, make_items):
        assert Executor().map_ordered(_double, make_items()) == [2, 4, 6]

    def test_labels_shorter_than_items_fall_back_to_the_index(self):
        with pytest.raises(ExecError) as excinfo:
            Executor().map_ordered(_boom_on_three, range(5), labels=["a:0", "a:1"])
        assert excinfo.value.task == "task[3]"

    def test_nested_exec_error_is_not_rewrapped(self):
        inner = ExecError("inner failed", task="inner:7")

        def reraise(state, item):
            raise inner

        with pytest.raises(ExecError) as excinfo:
            Executor().map_ordered(reraise, [0], labels=["outer:0"])
        assert excinfo.value is inner
        assert excinfo.value.task == "inner:7"

    @pytest.mark.parametrize("kind", [KeyboardInterrupt, SystemExit])
    def test_base_exceptions_propagate_unwrapped(self, kind):
        ran = []

        def interrupt(state, item):
            ran.append(item)
            if item == 1:
                raise kind()
            return item

        with pytest.raises(kind):
            Executor().map_ordered(interrupt, range(4))
        assert ran == [0, 1]

    def test_tasks_run_inline_on_the_calling_thread(self):
        caller = threading.get_ident()
        idents = Executor().map_ordered(lambda state, item: threading.get_ident(), range(3))
        assert idents == [caller] * 3

    def test_state_is_shared_by_reference(self):
        seen = []

        def append(state, item):
            state.append(item)
            return len(state)

        assert Executor().map_ordered(append, "abc", state=seen) == [1, 2, 3]
        assert seen == ["a", "b", "c"]

    def test_fan_out_never_starts_the_query_thread(self):
        executor = Executor()
        executor.map_ordered(_double, range(3))
        assert executor._submit_pool is None


def _named_task(state, item):
    return item


def __(state, item):
    return item


class TestStageKind:
    """The stage family a fan-out's metrics and span are filed under."""

    @pytest.mark.parametrize(
        "labels,fn,expected",
        [
            (["link:pair:a->b", "link:pair:b->a"], _named_task, "link"),
            (["dup:chunk:0"], _named_task, "dup"),
            (["scan"], _named_task, "scan"),
            (None, _named_task, "named_task"),
            ([], _named_task, "named_task"),
            (None, __, "task"),
            (None, functools.partial(_named_task, None), "task"),
        ],
        ids=["prefix", "other-prefix", "bare-label", "fn-name", "empty-labels",
             "underscores-only", "nameless-callable"],
    )
    def test_stage_kind(self, labels, fn, expected):
        assert pool_module._stage_kind(fn, labels) == expected


class TestSubmit:
    def test_submit_runs_on_one_query_thread(self):
        executor = Executor()
        try:
            futures = [
                executor.submit(lambda: threading.current_thread().name)
                for _ in range(8)
            ]
            names = {future.result(timeout=10) for future in futures}
            assert len(names) == pool_module.SUBMIT_THREADS == 1
            assert isinstance(futures[0], concurrent.futures.Future)
        finally:
            executor.shutdown()

    def test_shutdown_is_idempotent_and_submit_recreates_the_thread(self):
        executor = Executor()
        assert executor.submit(lambda: 41 + 1).result(timeout=10) == 42
        executor.shutdown()
        executor.shutdown()
        assert executor.submit(lambda: 7).result(timeout=10) == 7
        executor.shutdown()

    def test_arguments_reach_the_callable(self):
        executor = Executor()
        try:
            assert executor.submit(divmod, 17, 5).result(timeout=10) == (3, 2)
        finally:
            executor.shutdown()

    def test_exceptions_surface_through_the_future(self):
        executor = Executor()
        try:
            future = executor.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=10)
        finally:
            executor.shutdown()

    def test_queries_run_one_at_a_time_in_submission_order(self):
        executor = Executor()
        lock = threading.Lock()
        running = [0]
        peak = [0]
        order = []

        def query(n):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            threading.Event().wait(0.002)
            with lock:
                running[0] -= 1
                order.append(n)
            return n

        try:
            futures = [executor.submit(query, n) for n in range(6)]
            assert [f.result(timeout=10) for f in futures] == list(range(6))
        finally:
            executor.shutdown()
        assert peak[0] == 1
        assert order == list(range(6))

    def test_racing_first_submits_share_one_thread(self):
        executor = Executor()
        barrier = threading.Barrier(6)
        futures = []
        futures_lock = threading.Lock()

        def first_submit():
            barrier.wait()
            future = executor.submit(lambda: threading.current_thread().name)
            with futures_lock:
                futures.append(future)

        threads = [threading.Thread(target=first_submit) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            names = {future.result(timeout=10) for future in futures}
        finally:
            executor.shutdown()
        assert len(futures) == 6
        assert len(names) == 1
        assert names.pop().startswith("repro-submit")

    def test_shutdown_before_any_submit_is_a_noop(self):
        executor = Executor()
        executor.shutdown()
        assert executor._submit_pool is None

    def test_serves_as_an_asyncio_executor(self):
        executor = Executor()

        async def main():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(executor, pow, 2, 10)

        try:
            assert asyncio.run(main()) == 1024
        finally:
            executor.shutdown()


class TestTaskGraph:
    def _linear_graph(self, log):
        graph = TaskGraph()
        graph.add("a", lambda results: log.append("a") or 1)
        graph.add("b", lambda results: log.append("b") or results["a"] + 1, deps=("a",))
        graph.add("c", lambda results: log.append("c") or results["b"] + 1, deps=("b",))
        return graph

    def test_topological_order(self):
        log = []
        results = self._linear_graph(log).run()
        assert log == ["a", "b", "c"]
        assert results == {"a": 1, "b": 2, "c": 3}

    def test_insertion_order_among_ready_tasks(self):
        log = []
        graph = TaskGraph()
        graph.add("root", lambda results: log.append("root"))
        for name in ("z", "m", "a"):
            graph.add(name, lambda results, n=name: log.append(n), deps=("root",))
        graph.run()
        assert log == ["root", "z", "m", "a"]

    def test_unknown_dependency(self):
        graph = TaskGraph()
        graph.add("a", lambda results: 1, deps=("ghost",))
        with pytest.raises(ValueError, match="unknown task"):
            graph.run()

    def test_cycle_detection(self):
        graph = TaskGraph()
        graph.add("a", lambda results: 1, deps=("b",))
        graph.add("b", lambda results: 1, deps=("a",))
        with pytest.raises(ValueError, match="cycle"):
            graph.run()

    def test_duplicate_task_name(self):
        graph = TaskGraph()
        graph.add("a", lambda results: 1)
        with pytest.raises(ValueError, match="already"):
            graph.add("a", lambda results: 2)

    def test_failure_names_task_and_skips_dependents(self):
        ran = []
        graph = TaskGraph()
        graph.add("ok", lambda results: ran.append("ok"))
        graph.add("bad", lambda results: 1 / 0, deps=("ok",))
        graph.add("downstream", lambda results: ran.append("downstream"), deps=("bad",))
        with pytest.raises(ExecError) as excinfo:
            graph.run()
        assert excinfo.value.task == "bad"
        assert "downstream" not in ran

    def test_diamond(self):
        log = []
        graph = TaskGraph()
        graph.add("top", lambda results: log.append("top") or 1)
        graph.add("left", lambda results: log.append("left") or results["top"] + 1,
                  deps=("top",))
        graph.add("right", lambda results: log.append("right") or results["top"] * 10,
                  deps=("top",))
        graph.add("bottom",
                  lambda results: log.append("bottom") or results["left"] + results["right"],
                  deps=("left", "right"))
        assert graph.run() == {"top": 1, "left": 2, "right": 10, "bottom": 12}
        assert log == ["top", "left", "right", "bottom"]

    def test_dependency_added_after_its_dependent(self):
        log = []
        graph = TaskGraph()
        graph.add("late", lambda results: log.append("late") or results["early"] + 1,
                  deps=("early",))
        graph.add("early", lambda results: log.append("early") or 1)
        assert graph.run() == {"late": 2, "early": 1}
        assert log == ["early", "late"]

    def test_empty_graph(self):
        graph = TaskGraph()
        assert len(graph) == 0
        assert graph.run() == {}

    def test_len_and_names_in_insertion_order(self):
        graph = TaskGraph()
        for name in ("import", "statistics", "linking"):
            graph.add(name, lambda results: None)
        assert len(graph) == 3
        assert graph.names() == ["import", "statistics", "linking"]

    def test_self_dependency_is_a_cycle(self):
        graph = TaskGraph()
        graph.add("loop", lambda results: 1, deps=("loop",))
        with pytest.raises(ValueError, match="cycle through loop"):
            graph.run()

    def test_cycle_error_names_exactly_the_tasks_on_it(self):
        graph = TaskGraph()
        graph.add("root", lambda results: 0)
        graph.add("a", lambda results: 1, deps=("root", "c"))
        graph.add("b", lambda results: 1, deps=("a",))
        graph.add("c", lambda results: 1, deps=("b",))
        with pytest.raises(ValueError) as excinfo:
            graph.run()
        assert str(excinfo.value).endswith("cycle through a, b, c")

    def test_validation_runs_before_any_task(self):
        ran = []
        graph = TaskGraph()
        graph.add("fine", lambda results: ran.append("fine"))
        graph.add("broken", lambda results: 1, deps=("ghost",))
        with pytest.raises(ValueError, match="'broken' depends on unknown task 'ghost'"):
            graph.run()
        assert ran == []

    def test_nested_exec_error_keeps_the_inner_task(self):
        def fan_out(results):
            return Executor().map_ordered(_boom_on_three, range(5), labels=[
                f"link:{i}" for i in range(5)
            ])

        graph = TaskGraph()
        graph.add("link_discovery", fan_out)
        with pytest.raises(ExecError) as excinfo:
            graph.run()
        assert excinfo.value.task == "link:3"

    def test_ready_tasks_after_a_failure_never_run(self):
        ran = []
        graph = TaskGraph()
        graph.add("bad", lambda results: 1 / 0)
        graph.add("independent", lambda results: ran.append("independent"))
        with pytest.raises(ExecError) as excinfo:
            graph.run()
        assert excinfo.value.task == "bad"
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
        assert ran == []

    def test_base_exceptions_propagate_unwrapped(self):
        def interrupt(results):
            raise KeyboardInterrupt

        graph = TaskGraph()
        graph.add("interrupted", interrupt)
        with pytest.raises(KeyboardInterrupt):
            graph.run()

    def test_a_graph_runs_again(self):
        calls = []
        graph = TaskGraph()
        graph.add("a", lambda results: calls.append("a") or len(calls))
        graph.add("b", lambda results: results["a"] * 10, deps=("a",))
        assert graph.run() == {"a": 1, "b": 10}
        assert graph.run() == {"a": 2, "b": 20}
