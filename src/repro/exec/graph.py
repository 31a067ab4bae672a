"""Deterministic task graphs: dependencies, topological dispatch, error capture.

The execution subsystem's upper half. A :class:`TaskGraph` names the
stages of one pipeline run (``import -> statistics -> linking -> ...``),
declares who waits on whom, and runs the tasks inline in deterministic
topological order (insertion order among ready tasks).

A failing task raises :class:`~repro.exec.pool.ExecError` naming it;
tasks downstream of a failure are never started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.exec.pool import ExecError
from repro.obs.trace import NULL_TRACER

# A task body receives the results-so-far dict; its declared dependencies
# are guaranteed to be present, nothing else may be read.
TaskFn = Callable[[Dict[str, Any]], Any]


@dataclass
class Task:
    """One named unit of work with declared dependencies."""

    name: str
    fn: TaskFn
    deps: Tuple[str, ...] = ()


class TaskGraph:
    """A small DAG of named tasks dispatched in dependency order."""

    def __init__(self) -> None:
        self._tasks: List[Task] = []
        self._by_name: Dict[str, Task] = {}
        #: ``{task name: seconds}`` of the last :meth:`run` — each node's
        #: ``graph.{node}`` span duration.
        self.seconds: Dict[str, float] = {}

    def add(self, name: str, fn: TaskFn, deps: Sequence[str] = ()) -> None:
        if name in self._by_name:
            raise ValueError(f"task {name!r} already in the graph")
        task = Task(name=name, fn=fn, deps=tuple(deps))
        self._tasks.append(task)
        self._by_name[name] = task

    def __len__(self) -> int:
        return len(self._tasks)

    def names(self) -> List[str]:
        return [task.name for task in self._tasks]

    # ------------------------------------------------------------------
    def run(self, metrics=None, tracer=None) -> Dict[str, Any]:
        """Execute every task; returns ``{task name: result}``.

        Each node runs under one ``graph.{node}`` span of ``tracer`` (a
        :class:`~repro.obs.trace.Tracer`, or ``None`` for the
        durations-only :data:`~repro.obs.trace.NULL_TRACER`), opened
        under the caller's active span so fan-out spans opened inside a
        node body hang off that node. The span's duration becomes
        :attr:`seconds` and, with a ``metrics`` registry, the
        ``graph.{node}.seconds`` observation.
        """
        self._validate()
        tracer = tracer or NULL_TRACER
        results: Dict[str, Any] = {}
        self.seconds = {}
        remaining = list(self._tasks)
        while remaining:
            progressed = False
            for task in list(remaining):
                if any(dep not in results for dep in task.deps):
                    continue
                with tracer.span(f"graph.{task.name}") as handle:
                    results[task.name] = self._invoke(task, results)
                self.seconds[task.name] = handle.duration
                if metrics is not None:
                    metrics.histogram(f"graph.{task.name}.seconds").observe(
                        handle.duration
                    )
                remaining.remove(task)
                progressed = True
            if not progressed:  # pragma: no cover - _validate rules this out
                raise ExecError(
                    "task graph stalled (cycle?) with "
                    + ", ".join(t.name for t in remaining)
                )
        return results

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for task in self._tasks:
            for dep in task.deps:
                if dep not in self._by_name:
                    raise ValueError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
        # Kahn's algorithm; anything left over sits on a cycle.
        pending = {task.name: len(task.deps) for task in self._tasks}
        children = self._children()
        ready = [task.name for task in self._tasks if not task.deps]
        seen = 0
        while ready:
            name = ready.pop()
            seen += 1
            for child in children.get(name, ()):
                pending[child] -= 1
                if pending[child] == 0:
                    ready.append(child)
        if seen != len(self._tasks):
            cyclic = sorted(name for name, count in pending.items() if count > 0)
            raise ValueError(f"task graph has a cycle through {', '.join(cyclic)}")

    def _children(self) -> Dict[str, List[str]]:
        children: Dict[str, List[str]] = {}
        for task in self._tasks:
            for dep in task.deps:
                children.setdefault(dep, []).append(task.name)
        return children

    def _invoke(self, task: Task, results: Dict[str, Any]) -> Any:
        try:
            return task.fn(results)
        except ExecError:
            raise
        except Exception as exc:
            raise ExecError(
                f"task {task.name!r} failed: {exc!r}", task=task.name
            ) from exc
