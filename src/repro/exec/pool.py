"""The in-process ``Executor``: ordered fan-out, one query thread.

The execution subsystem's lower half. Every caller (link discovery,
duplicate detection, bulk import) hands its work to one *ordered
fan-out*: :meth:`Executor.map_ordered` calls ``fn(state, item)`` for
every item, inline and in item order, and returns the results in that
order. A failing item raises :class:`ExecError` naming it (its label);
later items never run.

Everything runs inline: thread and fork-process pools lost to inline
execution on every benchmark workload. The fan-out seam stays because it
names each stage for the telemetry below.

Observability: an executor carries optional ``metrics`` / ``tracer``
handles (both ``None`` by default — the owning ``Aladin`` wires them).
With either set, a fan-out derives its *stage kind* from its labels
(``link:...`` -> ``link``) and records the ``pool.fanouts`` /
``pool.tasks`` counters, a ``pool.fanout.{stage}`` histogram and, on
failure, ``pool.failures`` / ``pool.failures.{stage}``. The tracer gets
one ``fanout.{stage}`` span and, under it, one ``task`` span per
attempted item (``index`` and, when labelled, ``label`` attributes), the
failing one included. With both unset the wrapper is two ``is None``
checks — the disabled path stays zero-cost.
"""

from __future__ import annotations

import concurrent.futures
import threading
from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional, Sequence

#: Threads behind :meth:`Executor.submit`: serve runs one query at a time.
SUBMIT_THREADS = 1


class ExecError(RuntimeError):
    """One task of a fan-out or task graph failed.

    ``task`` names the failed unit (its label); the original exception is
    chained as ``__cause__``.
    """

    def __init__(self, message: str, task: Optional[str] = None):
        super().__init__(message)
        self.task = task


def _stage_kind(fn: Callable, labels: Optional[Sequence[str]]) -> str:
    """The fan-out's stage family, e.g. ``link:pair:a->b`` -> ``link``.

    Callers that pass no labels are classified by the task function's
    name — good enough to keep their timings in their own bucket.
    """
    if labels:
        first = labels[0]
        return first.split(":", 1)[0] if ":" in first else first
    return getattr(fn, "__name__", "task").strip("_") or "task"


def _label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None and index < len(labels):
        return labels[index]
    return f"task[{index}]"


class Executor:
    """Inline ordered fan-out plus the serving layer's query thread."""

    # Observability handles, wired by the owning Aladin. None means the
    # instrumented wrapper short-circuits to the raw loop.
    metrics = None
    tracer = None

    def __init__(self) -> None:
        self._submit_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._submit_lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], *args: Any) -> "concurrent.futures.Future":
        """Run one callable on the query thread; returns a real Future.

        The serving layer's bridge into asyncio: ``loop.run_in_executor``
        accepts any object with a ``submit`` returning a
        :class:`concurrent.futures.Future`. The pool is created lazily
        with :data:`SUBMIT_THREADS` threads and released by
        :meth:`shutdown`; a later submit transparently re-creates it.
        """
        pool = self._submit_pool
        if pool is None:
            with self._submit_lock:
                pool = self._submit_pool
                if pool is None:
                    pool = concurrent.futures.ThreadPoolExecutor(
                        max_workers=SUBMIT_THREADS,
                        thread_name_prefix="repro-submit",
                    )
                    self._submit_pool = pool
        return pool.submit(fn, *args)

    def shutdown(self) -> None:
        """Release the query thread, if one was started."""
        with self._submit_lock:
            pool, self._submit_pool = self._submit_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def map_ordered(
        self,
        fn: Callable[[Any, Any], Any],
        items: Iterable[Any],
        state: Any = None,
        labels: Optional[Sequence[str]] = None,
        stage: Optional[str] = None,
    ) -> List[Any]:
        """``[fn(state, item) for item in items]``, instrumented.

        ``stage`` overrides the stage kind derived from ``labels``.
        """
        items = list(items)
        metrics = self.metrics
        tracer = self.tracer
        if metrics is None and tracer is None:
            return self._run(fn, items, state, labels)
        stage = stage or _stage_kind(fn, labels)
        handle = None
        if tracer is not None:
            handle = tracer.start_span(f"fanout.{stage}", items=len(items))
        started = perf_counter()
        try:
            results = self._run(fn, items, state, labels, tracer)
        except BaseException as exc:  # counted and traced, then re-raised
            if metrics is not None:
                metrics.counter("pool.failures").inc()
                metrics.counter(f"pool.failures.{stage}").inc()
            if handle is not None:
                tracer.finish(handle, error=exc)
            raise
        if metrics is not None:
            metrics.counter("pool.fanouts").inc()
            metrics.counter("pool.tasks").inc(len(items))
            metrics.histogram(f"pool.fanout.{stage}").observe(
                perf_counter() - started
            )
        if handle is not None:
            tracer.finish(handle)
        return results

    @staticmethod
    def _run(
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        state: Any,
        labels: Optional[Sequence[str]],
        tracer=None,
    ) -> List[Any]:
        """The raw loop; with a tracer, one ``task`` span per item."""
        results: List[Any] = []
        for index, item in enumerate(items):
            try:
                if tracer is None:
                    results.append(fn(state, item))
                else:
                    attributes = {"index": index}
                    if labels is not None and index < len(labels):
                        attributes["label"] = labels[index]
                    with tracer.span("task", **attributes):
                        results.append(fn(state, item))
            except ExecError:
                raise
            except Exception as exc:
                label = _label(labels, index)
                raise ExecError(
                    f"task {label!r} failed: {exc!r}", task=label
                ) from exc
        return results
