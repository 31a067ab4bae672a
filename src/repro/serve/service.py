"""The asyncio query service over a read-only snapshot.

:class:`AsyncQueryService` attaches to a snapshot the way ``repro
stats`` does — read-only, lazy, never taking the writer lock — and
exposes the four read access modes over a small HTTP/JSON front-end
built on the stdlib ``asyncio`` server:

* ``/search?q=...&top_k=...&sources=a,b`` — ranked BM25 full-text search;
* ``/browse?source=...&accession=...`` — one object page with all four
  link types resolved;
* ``/crawl?seeds=src:acc,...&follow_links=1&max_pages=N`` — the BFS
  frontier over the object web;
* ``/walk?source=...&statement=...&target=...&kinds=...`` — a per-source
  SQL query expanded over discovered links (the link join of Section 6);
* ``/healthz`` and ``/statz`` — liveness and the full serving picture
  (request counters, cache stats, hydration, the obs metrics snapshot).

Concurrency model: the event loop only parses requests and shuttles
bytes. Every cache-missing query executes on the owning system's
one-thread query pool via ``loop.run_in_executor`` (the executor's
``submit`` seam), so queries run one at a time; a ``max_concurrency``
semaphore bounds how many are handed to that pool at once (one running,
the rest queued inside it). Admission itself is bounded by
``max_pending`` — beyond it the service answers 503 immediately instead
of queueing without limit.

Writer interplay: queries run against one *generation* — an ``Aladin``
opened read-only at a known content fingerprint. A background watcher
re-reads the fingerprint every ``refresh_interval`` seconds; when a
writer's checkpoint changes it, a fresh generation is opened, swapped in
atomically, and the result cache drops every stale entry
(:meth:`QueryResultCache.retain`). In-flight requests keep the old
generation referenced until they finish — responses are always
old-snapshot-or-new, never torn — and the drained generation closes in
the background.

Shutdown is drain-then-stop: :meth:`stop` refuses new work (503), stops
accepting, waits for in-flight requests up to a deadline, then closes
the generations. Every request gets a ``serve.request`` span and feeds
``serve.*`` counters/histograms in the generation's ``repro.obs``
registry.
"""

from __future__ import annotations

import asyncio
import copy
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.access.crawler import Crawler
from repro.core import Aladin, AladinConfig
from repro.obs.events import (
    SERVE_DRAINED,
    SERVE_GENERATION_SWAPPED,
    SERVE_STARTED,
)
from repro.persist import SnapshotError, SnapshotStore
from repro.persist.codec import canonical_json
from repro.serve.cache import QueryResultCache

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_READ_TIMEOUT = 10.0  # seconds to receive one request's head


class ServeError(Exception):
    """A request-shaped failure with an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class ServeConfig:
    """The serving knobs.

    ``max_concurrency`` bounds cache-missing queries handed to the
    system's query pool at once. That pool has one thread, so one query
    executes while the others wait in its queue: the semaphore bounds
    that queue, not parallelism. ``max_pending`` bounds *admitted*
    requests (in the pool + waiting on the semaphore) — beyond it the
    accept path answers 503 instead of queueing unboundedly. ``refresh_interval`` is how often the content
    fingerprint is re-read to notice a writer's checkpoint;
    ``drain_deadline`` is how long :meth:`AsyncQueryService.stop` waits
    for in-flight requests before giving up on a clean drain.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_concurrency: int = 64
    max_pending: int = 1024
    cache_entries: int = 1024
    refresh_interval: float = 0.5
    drain_deadline: float = 10.0


# ----------------------------------------------------------------------
# deterministic serialization (cache hits are byte-identical by design)
# ----------------------------------------------------------------------

_JSON_SAFE = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, _JSON_SAFE):
        return value
    return str(value)


def encode_body(payload: Dict[str, Any]) -> bytes:
    """Canonical response bytes: the codec's canonical encoding + one LF.

    ``_jsonable`` has already stringified anything exotic, so the
    payload is finite and the codec emits exactly the sorted-key,
    tight-separator bytes this function always produced.
    """
    return (canonical_json(_jsonable(payload)) + "\n").encode("utf-8")


def serialize_hits(hits) -> List[Dict[str, Any]]:
    return [
        {
            "source": hit.source,
            "accession": hit.accession,
            "score": hit.score,
            "matched_fields": list(hit.matched_fields),
        }
        for hit in hits
    ]


def serialize_link(link) -> Dict[str, Any]:
    return {
        "source_a": link.source_a,
        "accession_a": link.accession_a,
        "source_b": link.source_b,
        "accession_b": link.accession_b,
        "kind": link.kind,
        "certainty": link.certainty,
        "evidence": link.evidence,
    }


def serialize_view(view) -> Dict[str, Any]:
    return {
        "page": {
            "source": view.page.source,
            "accession": view.page.accession,
            "fields": view.page.fields,
            "annotations": view.page.annotations,
        },
        "same_relation": list(view.same_relation),
        "duplicates": [serialize_link(link) for link in view.duplicates],
        "linked": [serialize_link(link) for link in view.linked],
        "conflicts": [
            {
                "source_a": c.source_a,
                "accession_a": c.accession_a,
                "value_a": c.value_a,
                "source_b": c.source_b,
                "accession_b": c.accession_b,
                "value_b": c.value_b,
                "similarity": c.similarity,
            }
            for c in view.conflicts
        ],
    }


def serialize_ranked(rows) -> List[Dict[str, Any]]:
    return [
        {
            "source": row.source,
            "accession": row.accession,
            "row": row.row,
            "certainty": row.certainty,
            "path": list(row.path),
        }
        for row in rows
    ]


# ----------------------------------------------------------------------
# parameter helpers
# ----------------------------------------------------------------------

def _require(params: Dict[str, str], name: str) -> str:
    value = params.get(name, "").strip()
    if not value:
        raise ServeError(400, f"missing required parameter {name!r}")
    return value


def _int_param(
    params: Dict[str, str], name: str, default: int, minimum: int = 1
) -> int:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ServeError(400, f"parameter {name!r} must be an integer") from None
    if value < minimum:
        raise ServeError(400, f"parameter {name!r} must be >= {minimum}")
    return value


def _float_param(params: Dict[str, str], name: str, default: float) -> float:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ServeError(400, f"parameter {name!r} must be a number") from None


def _bool_param(params: Dict[str, str], name: str, default: bool) -> bool:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _list_param(params: Dict[str, str], name: str) -> Optional[List[str]]:
    raw = params.get(name, "").strip()
    if not raw:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


# ----------------------------------------------------------------------
# endpoint handlers (run on pool threads; must only *read* the system)
# ----------------------------------------------------------------------

def _handle_search(aladin: Aladin, params: Dict[str, str]) -> Dict[str, Any]:
    query = _require(params, "q")
    top_k = _int_param(params, "top_k", 10)
    sources = _list_param(params, "sources")
    hits = aladin.search_engine().search(query, top_k=top_k, sources=sources)
    return {"query": query, "hits": serialize_hits(hits)}


def _handle_browse(aladin: Aladin, params: Dict[str, str]) -> Dict[str, Any]:
    source = _require(params, "source")
    accession = _require(params, "accession")
    try:
        view = aladin.browser().visit(source, accession)
    except KeyError as exc:
        raise ServeError(404, str(exc).strip("'\"")) from None
    return serialize_view(view)


def _parse_seeds(raw: Optional[str]) -> Optional[List[Tuple[str, str]]]:
    if raw is None or not raw.strip():
        return None
    seeds = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ServeError(400, "seeds must be source:accession pairs")
        source, accession = part.split(":", 1)
        seeds.append((source, accession))
    return seeds or None


def _handle_crawl(aladin: Aladin, params: Dict[str, str]) -> Dict[str, Any]:
    seeds = _parse_seeds(params.get("seeds"))
    follow_links = _bool_param(params, "follow_links", True)
    max_pages = _int_param(params, "max_pages", 100)
    pages = [
        {"source": page.source, "accession": page.accession}
        for page in Crawler(aladin.web).crawl(
            seeds=seeds, follow_links=follow_links, max_pages=max_pages
        )
    ]
    return {"pages": pages, "count": len(pages)}


def _handle_walk(aladin: Aladin, params: Dict[str, str]) -> Dict[str, Any]:
    source = _require(params, "source")
    statement = _require(params, "statement")
    target = _require(params, "target")
    kinds = _list_param(params, "kinds")
    min_certainty = _float_param(params, "min_certainty", 0.0)
    collapse = _bool_param(params, "collapse", False)
    engine = aladin.query_engine()
    try:
        rows = engine.select_objects(source, statement)
        ranked = engine.link_join(
            rows, target, kinds=kinds, min_certainty=min_certainty
        )
        if collapse:
            ranked = engine.collapse_duplicates(ranked)
    except (ValueError, KeyError) as exc:  # SqlError/SchemaError included
        raise ServeError(400, str(exc)) from None
    return {"rows": serialize_ranked(ranked), "count": len(ranked)}


ENDPOINTS = {
    "search": _handle_search,
    "browse": _handle_browse,
    "crawl": _handle_crawl,
    "walk": _handle_walk,
}


def _execute(aladin: Aladin, endpoint: str, handler, params) -> bytes:
    """One query on a pool thread: traced, then canonically serialized."""
    tracer = aladin.obs.trace_or_none
    if tracer is None:
        return encode_body(handler(aladin, params))
    with tracer.span("serve.request", endpoint=endpoint):
        return encode_body(handler(aladin, params))


# ----------------------------------------------------------------------
# generations: one read-only Aladin per observed content fingerprint
# ----------------------------------------------------------------------

class _Generation:
    """One read-only open of the snapshot, refcounted by in-flight work.

    ``refs``/``retired`` are only touched from the event loop thread, so
    they need no lock; the Aladin inside is driven from pool threads,
    which the read path's own locks make safe.
    """

    __slots__ = ("aladin", "fingerprint", "refs", "retired", "closed")

    def __init__(self, aladin: Aladin, fingerprint: str):
        self.aladin = aladin
        self.fingerprint = fingerprint
        self.refs = 0
        self.retired = False
        self.closed = False


class AsyncQueryService:
    """Serve search/browse/crawl/walk from a snapshot, read-only."""

    def __init__(
        self,
        snapshot_path: str,
        config: Optional[ServeConfig] = None,
        aladin_config: Optional[AladinConfig] = None,
    ):
        self.path = str(snapshot_path)
        self.config = config or ServeConfig()
        self._aladin_config = aladin_config
        self._store = SnapshotStore(self.path)
        self.cache = QueryResultCache(self.config.cache_entries)
        self._gen: Optional[_Generation] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._watcher: Optional[asyncio.Task] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._closers: set = set()
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._requests = 0
        self._rejected = 0
        self._errors = 0
        self._swaps = 0

    # -- public state ----------------------------------------------------
    @property
    def fingerprint(self) -> Optional[str]:
        return None if self._gen is None else self._gen.fingerprint

    @property
    def requests_served(self) -> int:
        return self._requests

    @property
    def requests_rejected(self) -> int:
        return self._rejected

    @property
    def generation_swaps(self) -> int:
        return self._swaps

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        if self._server is None or not self._server.sockets:
            return None
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def port(self) -> Optional[int]:
        address = self.address
        return None if address is None else address[1]

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(max(1, self.config.max_concurrency))
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._gen = await loop.run_in_executor(None, self._open_generation)
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        events = self._gen.aladin.obs.events_or_none
        if events is not None:
            events.emit(
                SERVE_STARTED,
                host=self.config.host,
                port=self.port,
                fingerprint=self._gen.fingerprint,
            )
        self._watcher = asyncio.create_task(self._watch_fingerprint())

    async def stop(self, deadline: Optional[float] = None) -> bool:
        """Drain-then-stop; True if every in-flight request finished.

        New requests are refused (503) immediately; the listener closes;
        in-flight work gets up to ``deadline`` seconds (the config's
        ``drain_deadline`` by default) to finish before the generations
        are torn down regardless.
        """
        deadline = self.config.drain_deadline if deadline is None else deadline
        self._draining = True
        if self._watcher is not None:
            self._watcher.cancel()
            await asyncio.gather(self._watcher, return_exceptions=True)
            self._watcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = True
        if self._inflight and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=deadline)
            except asyncio.TimeoutError:
                drained = False
        gen, self._gen = self._gen, None
        if gen is not None:
            events = gen.aladin.obs.events_or_none
            if events is not None:
                events.emit(
                    SERVE_DRAINED,
                    clean=drained,
                    served=self._requests,
                    rejected=self._rejected,
                )
            gen.retired = True
            self._maybe_close(gen)
        if self._closers:
            await asyncio.gather(*list(self._closers), return_exceptions=True)
        return drained

    # -- generations -----------------------------------------------------
    def _open_generation(self) -> _Generation:
        """Open one read-only generation (runs on a pool thread).

        The fingerprint is read *before* the open: a checkpoint racing
        the open can only make the generation newer than its fingerprint
        claims, so cache entries are never fresher than the data that
        produced them — the next watcher tick re-converges.
        """
        fingerprint = self._store.content_fingerprint()
        config = (
            None
            if self._aladin_config is None
            else copy.deepcopy(self._aladin_config)
        )
        aladin = Aladin.open(self.path, config=config, read_only=True, lazy=True)
        return _Generation(aladin, fingerprint)

    def _acquire_gen(self) -> _Generation:
        gen = self._gen
        if gen is None:
            raise ServeError(503, "service is shutting down")
        gen.refs += 1
        return gen

    def _release_gen(self, gen: _Generation) -> None:
        gen.refs -= 1
        self._maybe_close(gen)

    def _maybe_close(self, gen: _Generation) -> None:
        if not gen.retired or gen.refs > 0 or gen.closed:
            return
        gen.closed = True
        task = asyncio.get_running_loop().run_in_executor(
            None, gen.aladin.close
        )
        self._closers.add(task)
        task.add_done_callback(self._closers.discard)

    async def _watch_fingerprint(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.refresh_interval)
            try:
                fingerprint = await loop.run_in_executor(
                    None, self._store.content_fingerprint
                )
            except SnapshotError:
                continue  # writer mid-swap (compact): retry next tick
            gen = self._gen
            if gen is not None and fingerprint != gen.fingerprint:
                await self._swap_generation()

    async def _swap_generation(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            new_gen = await loop.run_in_executor(None, self._open_generation)
        except SnapshotError:
            return  # transient (writer mid-commit): keep serving the old
        old, self._gen = self._gen, new_gen
        self._swaps += 1
        dropped = self.cache.retain(new_gen.fingerprint)
        events = new_gen.aladin.obs.events_or_none
        if events is not None:
            events.emit(
                SERVE_GENERATION_SWAPPED,
                fingerprint=new_gen.fingerprint,
                dropped_cache_entries=dropped,
            )
        if old is not None:
            old.retired = True
            self._maybe_close(old)

    # -- request path ----------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=_READ_TIMEOUT
                )
            except (asyncio.TimeoutError, ConnectionError):
                return
            if request is None:
                return
            method, target = request
            status, body = await self._respond(method, target)
            await self._write_response(writer, status, body)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1", "replace").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        while True:  # drain headers; bodies are not part of the protocol
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        return method.upper(), target

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, body: bytes
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the client went away; nothing to salvage

    async def _respond(self, method: str, target: str) -> Tuple[int, bytes]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = dict(parse_qsl(split.query, keep_blank_values=True))
        if method != "GET":
            return 405, encode_body({"error": "only GET is supported"})
        if path == "/healthz":
            return 200, encode_body(self._health_payload())
        if path == "/statz":
            return 200, encode_body(self._stats_payload())
        handler = ENDPOINTS.get(path.lstrip("/"))
        if handler is None:
            return 404, encode_body({"error": f"unknown endpoint {path!r}"})
        if self._draining:
            self._rejected += 1
            return 503, encode_body({"error": "draining"})
        if self._inflight >= self.config.max_pending:
            self._rejected += 1
            metrics = self._metrics_or_none()
            if metrics is not None:
                metrics.counter("serve.rejected").inc()
            return 503, encode_body({"error": "too many pending requests"})
        return await self._run_query(path.lstrip("/"), handler, params)

    async def _run_query(
        self, endpoint: str, handler, params: Dict[str, str]
    ) -> Tuple[int, bytes]:
        loop = asyncio.get_running_loop()
        try:
            gen = self._acquire_gen()
        except ServeError as exc:
            return exc.status, encode_body({"error": exc.message})
        self._inflight += 1
        self._idle.clear()
        metrics = gen.aladin.obs.metrics_or_none
        try:
            if metrics is not None:
                metrics.counter("serve.requests").inc()
                metrics.counter(f"serve.requests.{endpoint}").inc()
            key = self.cache.key(gen.fingerprint, endpoint, params)
            body = self.cache.get(key)
            if body is not None:
                if metrics is not None:
                    metrics.counter("serve.cache.hits").inc()
                self._requests += 1
                return 200, body
            if metrics is not None:
                metrics.counter("serve.cache.misses").inc()
            async with self._semaphore:
                started = perf_counter()
                body = await loop.run_in_executor(
                    gen.aladin.executor, _execute, gen.aladin, endpoint,
                    handler, params,
                )
            if metrics is not None:
                metrics.histogram("serve.request_seconds").observe(
                    perf_counter() - started
                )
            self.cache.put(key, body)
            self._requests += 1
            return 200, body
        except ServeError as exc:
            self._requests += 1
            return exc.status, encode_body({"error": exc.message})
        except Exception as exc:  # noqa: BLE001 - a query must not kill the loop
            self._errors += 1
            if metrics is not None:
                metrics.counter("serve.errors").inc()
            return 500, encode_body({"error": repr(exc)})
        finally:
            self._release_gen(gen)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # -- introspection ---------------------------------------------------
    def _metrics_or_none(self):
        gen = self._gen
        return None if gen is None else gen.aladin.obs.metrics_or_none

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "fingerprint": self.fingerprint,
            "inflight": self._inflight,
        }

    def _stats_payload(self) -> Dict[str, Any]:
        gen = self._gen
        payload: Dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "fingerprint": self.fingerprint,
            "inflight": self._inflight,
            "requests": self._requests,
            "rejected": self._rejected,
            "errors": self._errors,
            "generation_swaps": self._swaps,
            "cache": self.cache.stats(),
            "config": {
                "max_concurrency": self.config.max_concurrency,
                "max_pending": self.config.max_pending,
                "refresh_interval": self.config.refresh_interval,
            },
        }
        if gen is not None:
            payload["hydration"] = gen.aladin.hydration_stats()
            payload["metrics"] = gen.aladin.metrics()
        return payload
