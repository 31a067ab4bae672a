"""The in-process ``Executor``: ordered fan-out, one query thread.

The execution subsystem's lower half. Every fan-out (the link pair
scans and the duplicate chunk of each integrated source) goes through
:meth:`Executor.map_ordered`: it calls ``fn(state, item)`` for every
item, inline and in item order, and returns the results as a list in
that order. A failing item raises :class:`ExecError` naming it (its
label); later items never run.

Everything runs inline: thread and fork-process pools lost to inline
execution on every benchmark workload. The fan-out seam stays because it
names each stage for the telemetry below.

Observability: an executor carries optional ``metrics`` / ``tracer``
handles (both ``None`` by default — the owning ``Aladin`` wires them).
Every item is timed on one path, through ``tracer or NULL_TRACER``: one
``task`` span per attempted item (``index`` and, when labelled,
``label`` attributes), the failing one included. With either handle set
they sit under one ``fanout.{stage}`` span; with neither, nothing reads
the fan-out's own duration, so it is not timed. The stage kind comes
from the labels (``link:...`` -> ``link``). With a registry the fan-out
records the ``pool.fanouts`` / ``pool.tasks`` counters and the fan-out
span's duration as ``pool.fanout.{stage}``, or on failure
``pool.failures`` / ``pool.failures.{stage}``.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.obs.trace import NULL_TRACER

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

    # Observability handles, wired by the owning Aladin; None when
    # observability is off.
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
    ) -> List[Any]:
        """``[fn(state, item) for item in items]``, timed per item."""
        items = list(items)
        metrics = self.metrics
        if metrics is None and self.tracer is None:
            # Nothing reads the fan-out's own duration: time its items only.
            return self._run(fn, items, state, labels, NULL_TRACER)
        tracer = self.tracer or NULL_TRACER
        stage = _stage_kind(fn, labels)
        handle = tracer.start_span(f"fanout.{stage}", items=len(items))
        try:
            results = self._run(fn, items, state, labels, tracer)
        except BaseException as exc:  # counted and traced, then re-raised
            tracer.finish(handle, error=exc)
            if metrics is not None:
                metrics.counter("pool.failures").inc()
                metrics.counter(f"pool.failures.{stage}").inc()
            raise
        tracer.finish(handle)
        if metrics is not None:
            metrics.counter("pool.fanouts").inc()
            metrics.counter("pool.tasks").inc(len(items))
            metrics.histogram(f"pool.fanout.{stage}").observe(handle.duration)
        return results

    @staticmethod
    def _run(
        fn: Callable[[Any, Any], Any],
        items: List[Any],
        state: Any,
        labels: Optional[Sequence[str]],
        tracer=NULL_TRACER,
    ) -> List[Any]:
        """The loop: one ``task`` span per item."""
        results = []
        for index, item in enumerate(items):
            attributes = {"index": index}
            if labels is not None and index < len(labels):
                attributes["label"] = labels[index]
            handle = tracer.start_span("task", **attributes)
            try:
                result = fn(state, item)
            except BaseException as exc:
                tracer.finish(handle, error=exc)
                if isinstance(exc, ExecError) or not isinstance(exc, Exception):
                    raise
                label = _label(labels, index)
                raise ExecError(
                    f"task {label!r} failed: {exc!r}", task=label
                ) from exc
            tracer.finish(handle)
            results.append(result)
        return results
