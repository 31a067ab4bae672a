"""The asyncio serving layer against its byte-identity oracle.

Every query endpoint must return exactly the bytes a direct ``Aladin``
call produces through the shared serializers — under a single request,
under 500 concurrent in-flight requests, and from the cache. The
lifecycle half covers admission control (503 past ``max_pending``),
drain-then-stop (in-flight work finishes, late work is refused), and
generation swaps when a writer checkpoints the file under the service.
"""

import asyncio
import json
import resource
import shutil
import threading
from urllib.parse import quote

import pytest

from repro.core import Aladin
from repro.persist import SnapshotStore
from repro.serve import (
    AsyncQueryService,
    ServeConfig,
    encode_body,
    serialize_hits,
    serialize_ranked,
    serialize_view,
)
from repro.serve import service as service_mod

CONCURRENT_REQUESTS = 500


def _raise_nofile_limit(wanted):
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= wanted:
        return
    if hard != resource.RLIM_INFINITY and hard < wanted:
        pytest.skip(f"needs {wanted} fds, hard limit is {hard}")
    resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))


def run_service(test_body, snapshot_path, config=None):
    """Start a service on an ephemeral port, run ``test_body``, stop."""

    async def main():
        service = AsyncQueryService(
            snapshot_path, config or ServeConfig(port=0)
        )
        await service.start()
        try:
            return await test_body(service)
        finally:
            await service.stop()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# byte-identity: every endpoint against direct Aladin calls
# ----------------------------------------------------------------------

def test_search_browse_walk_crawl_are_byte_identical(
    snapshot_path, direct, client
):
    engine = direct.search_engine()
    hits = engine.search("protein", top_k=5)
    assert hits, "oracle query must match something"
    expected_search = encode_body(
        {"query": "protein", "hits": serialize_hits(hits)}
    )

    source, accession = hits[0].source, hits[0].accession
    expected_browse = encode_body(
        serialize_view(direct.browser().visit(source, accession))
    )

    query = direct.query_engine()
    rows = query.select_objects("swissprot", "SELECT * FROM entry")
    ranked = query.link_join(rows, "pdb")
    expected_walk = encode_body(
        {"rows": serialize_ranked(ranked), "count": len(ranked)}
    )

    async def body(service):
        port = service.port
        got_search = await client(port, "/search?q=protein&top_k=5")
        got_browse = await client(
            port, f"/browse?source={quote(source)}&accession={quote(accession)}"
        )
        statement = quote("SELECT * FROM entry")
        got_walk = await client(
            port,
            f"/walk?source=swissprot&statement={statement}&target=pdb",
        )
        got_crawl = await client(port, "/crawl?max_pages=10")
        return got_search, got_browse, got_walk, got_crawl

    got_search, got_browse, got_walk, got_crawl = run_service(
        body, snapshot_path
    )
    assert got_search == (200, expected_search)
    assert got_browse == (200, expected_browse)
    assert got_walk == (200, expected_walk)
    status, crawl_body = got_crawl
    assert status == 200
    crawled = json.loads(crawl_body)
    assert crawled["count"] == len(crawled["pages"]) == 10


def test_browse_pushes_links_down_and_walks_load_the_web(
    snapshot_path, direct, client
):
    """A browse reads one object's links; /crawl and /walk never do."""
    hits = direct.search_engine().search("protein", top_k=1)
    source, accession = hits[0].source, hits[0].accession

    async def body(service):
        port = service.port
        await client(
            port, f"/browse?source={quote(source)}&accession={quote(accession)}"
        )
        after_browse = json.loads((await client(port, "/statz"))[1])
        crawl = await client(
            port, f"/crawl?seeds={quote(f'{source}:{accession}')}&max_pages=20"
        )
        statement = quote("SELECT * FROM entry")
        walk = await client(
            port, f"/walk?source=swissprot&statement={statement}&target=pdb"
        )
        after_walks = json.loads((await client(port, "/statz"))[1])
        return after_browse, crawl, walk, after_walks

    after_browse, crawl, walk, after_walks = run_service(body, snapshot_path)
    assert crawl[0] == 200 and walk[0] == 200
    assert after_browse["hydration"]["link_lookups"] == 1
    assert after_browse["hydration"]["links_loaded"] is False
    assert after_walks["hydration"]["link_lookups"] == 1
    assert after_walks["hydration"]["links_loaded"] is True


def test_a_search_hydrates_and_decodes_no_source(snapshot_path, client):
    """The snapshot carries its index: a generation builds nothing, and
    a search reads postings only."""

    async def body(service):
        port = service.port
        search = await client(port, "/search?q=protein&top_k=5")
        return search, json.loads((await client(port, "/statz"))[1])

    search, stats = run_service(body, snapshot_path)
    assert search[0] == 200 and json.loads(search[1])["hits"]
    assert stats["hydration"]["hydrated"] == []
    assert stats["hydration"]["decoded"] == []
    assert stats["hydration"]["index_rebuilt"] is False


def test_error_shapes_and_health(snapshot_path, client):
    expected_fingerprint = SnapshotStore(snapshot_path).content_fingerprint()

    async def body(service):
        port = service.port
        missing_q = await client(port, "/search")
        bad_top_k = await client(port, "/search?q=x&top_k=zero")
        unknown_path = await client(port, "/nope")
        unknown_object = await client(
            port, "/browse?source=swissprot&accession=NOPE-1"
        )
        bad_sql = await client(
            port,
            f"/walk?source=swissprot&statement={quote('SELEC nonsense')}"
            "&target=pdb",
        )
        health = await client(port, "/healthz")
        statz = await client(port, "/statz")
        post = await post_request(port)
        return (
            missing_q, bad_top_k, unknown_path, unknown_object, bad_sql,
            health, statz, post,
        )

    async def post_request(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(b"POST /search HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
        return int(raw.split(b" ", 2)[1])

    (missing_q, bad_top_k, unknown_path, unknown_object, bad_sql, health,
     statz, post_status) = run_service(body, snapshot_path)

    assert missing_q[0] == 400
    assert b"missing required parameter" in missing_q[1]
    assert bad_top_k[0] == 400
    assert unknown_path[0] == 404
    assert unknown_object[0] == 404
    assert bad_sql[0] == 400
    assert post_status == 405

    assert health[0] == 200
    payload = json.loads(health[1])
    assert payload["status"] == "ok"
    assert payload["fingerprint"] == expected_fingerprint

    assert statz[0] == 200
    stats = json.loads(statz[1])
    assert stats["fingerprint"] == expected_fingerprint
    assert stats["cache"]["max_entries"] == 1024
    assert stats["hydration"]["lazy"] is True


def test_cache_hit_returns_the_same_bytes(snapshot_path, client):
    async def body(service):
        port = service.port
        first = await client(port, "/search?q=protein&top_k=3")
        second = await client(port, "/search?q=protein&top_k=3")
        # Same params, different order: the key is normalized.
        third = await client(port, "/search?top_k=3&q=protein")
        stats = service.cache.stats()
        return first, second, third, stats

    first, second, third, stats = run_service(body, snapshot_path)
    assert first[0] == second[0] == 200
    assert first[1] == second[1]
    assert stats["hits"] >= 1
    assert stats["entries"] >= 1
    assert third[1] == first[1]


# ----------------------------------------------------------------------
# concurrency: 500 in-flight requests, all byte-identical
# ----------------------------------------------------------------------

def test_500_concurrent_inflight_requests_byte_identical(
    snapshot_path, direct, client, monkeypatch
):
    _raise_nofile_limit(4096)
    engine = direct.search_engine()
    hits = engine.search("protein", top_k=20)
    assert len(hits) >= 5

    expected = {}
    for k in range(1, 21):
        target = f"/search?q=protein&top_k={k}"
        expected[target] = encode_body(
            {
                "query": "protein",
                "hits": serialize_hits(engine.search("protein", top_k=k)),
            }
        )
    for hit in hits[:5]:
        target = (
            f"/browse?source={quote(hit.source)}"
            f"&accession={quote(hit.accession)}"
        )
        expected[target] = encode_body(
            serialize_view(direct.browser().visit(hit.source, hit.accession))
        )
    targets = [
        sorted(expected)[i % len(expected)] for i in range(CONCURRENT_REQUESTS)
    ]

    # Hold every handler at the door until the service has admitted all
    # 500 requests: the peak-in-flight observation is deterministic, not
    # a scheduling accident. The cache is off so every request really
    # crosses the executor.
    gate = threading.Event()

    def gated(handler):
        def wrapper(aladin, params):
            assert gate.wait(timeout=60), "gate never opened"
            return handler(aladin, params)
        return wrapper

    for name, handler in list(service_mod.ENDPOINTS.items()):
        monkeypatch.setitem(service_mod.ENDPOINTS, name, gated(handler))

    config = ServeConfig(
        port=0,
        max_concurrency=CONCURRENT_REQUESTS + 16,
        max_pending=CONCURRENT_REQUESTS + 16,
        cache_entries=0,
    )

    async def body(service):
        port = service.port
        tasks = [
            asyncio.create_task(client(port, target)) for target in targets
        ]
        deadline = asyncio.get_running_loop().time() + 60
        while service._inflight < CONCURRENT_REQUESTS:
            assert asyncio.get_running_loop().time() < deadline, (
                f"only {service._inflight} requests ever in flight"
            )
            await asyncio.sleep(0.01)
        peak = service._inflight
        gate.set()
        results = await asyncio.gather(*tasks)
        return peak, results, service.requests_served

    peak, results, served = run_service(body, snapshot_path, config)
    assert peak >= CONCURRENT_REQUESTS
    assert served >= CONCURRENT_REQUESTS
    for target, (status, body_bytes) in zip(targets, results):
        assert status == 200, body_bytes
        assert body_bytes == expected[target]


def test_admission_bound_rejects_with_503(snapshot_path, client, monkeypatch):
    gate = threading.Event()
    original = service_mod.ENDPOINTS["search"]

    def gated(aladin, params):
        assert gate.wait(timeout=60)
        return original(aladin, params)

    monkeypatch.setitem(service_mod.ENDPOINTS, "search", gated)
    config = ServeConfig(
        port=0, max_concurrency=1, max_pending=2, cache_entries=0
    )

    async def body(service):
        port = service.port
        tasks = [
            asyncio.create_task(client(port, f"/search?q=protein&top_k={k}"))
            for k in range(1, 7)
        ]
        deadline = asyncio.get_running_loop().time() + 60
        while service.requests_rejected < 4:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        gate.set()
        results = await asyncio.gather(*tasks)
        return results, service.requests_rejected

    results, rejected = run_service(body, snapshot_path, config)
    statuses = sorted(status for status, _ in results)
    assert statuses == [200, 200, 503, 503, 503, 503]
    assert rejected == 4
    for status, body_bytes in results:
        if status == 503:
            assert json.loads(body_bytes) == {
                "error": "too many pending requests"
            }


# ----------------------------------------------------------------------
# lifecycle: drain-then-stop
# ----------------------------------------------------------------------

def test_stop_drains_inflight_work_then_refuses(
    snapshot_path, client, monkeypatch
):
    started = threading.Event()
    release = threading.Event()
    original = service_mod.ENDPOINTS["search"]

    def slow(aladin, params):
        started.set()
        assert release.wait(timeout=60)
        return original(aladin, params)

    monkeypatch.setitem(service_mod.ENDPOINTS, "search", slow)

    async def flow():
        service = AsyncQueryService(
            snapshot_path, ServeConfig(port=0, cache_entries=0)
        )
        await service.start()
        port = service.port
        inflight = asyncio.create_task(client(port, "/search?q=protein"))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, started.wait, 60)

        stop_task = asyncio.create_task(service.stop())
        await asyncio.sleep(0.2)
        assert not stop_task.done(), "stop() must wait for in-flight work"

        release.set()
        drained = await stop_task
        status, body = await inflight
        late_error = None
        try:
            await client(port, "/search?q=protein")
        except OSError as exc:
            late_error = exc
        return drained, status, body, late_error

    drained, status, body, late_error = asyncio.run(flow())
    assert drained is True
    assert status == 200
    assert b"hits" in body
    assert late_error is not None, "listener must be closed after stop()"


def test_draining_flag_refuses_new_queries(snapshot_path, client):
    async def body(service):
        port = service.port
        service._draining = True
        refused = await client(port, "/search?q=protein")
        health = await client(port, "/healthz")
        service._draining = False
        return refused, health

    refused, health = run_service(body, snapshot_path)
    assert refused[0] == 503
    assert json.loads(refused[1]) == {"error": "draining"}
    assert json.loads(health[1])["status"] == "draining"


def test_stop_reports_unclean_drain_past_deadline(
    snapshot_path, client, monkeypatch
):
    release = threading.Event()
    started = threading.Event()
    original = service_mod.ENDPOINTS["search"]

    def stuck(aladin, params):
        started.set()
        assert release.wait(timeout=60)
        return original(aladin, params)

    monkeypatch.setitem(service_mod.ENDPOINTS, "search", stuck)

    async def flow():
        service = AsyncQueryService(
            snapshot_path, ServeConfig(port=0, cache_entries=0)
        )
        await service.start()
        inflight = asyncio.create_task(
            client(service.port, "/search?q=protein")
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, started.wait, 60)
        drained = await service.stop(deadline=0.1)
        release.set()
        status, _body = await inflight
        # Let the deferred generation close land before the loop goes away.
        await asyncio.gather(*list(service._closers), return_exceptions=True)
        return drained, status

    drained, status = asyncio.run(flow())
    assert drained is False
    assert status == 200  # the straggler still finished, just late


# ----------------------------------------------------------------------
# generation swap: a writer checkpoints under the running service
# ----------------------------------------------------------------------

def test_writer_checkpoint_swaps_generation_and_drops_cache(
    snapshot_path, alt_swissprot_text, client, tmp_path
):
    path = str(tmp_path / "served.snapshot")
    shutil.copy(snapshot_path, path)
    config = ServeConfig(port=0, refresh_interval=0.1)

    async def body(service):
        port = service.port
        fp0 = service.fingerprint
        before = await client(port, "/search?q=protein&top_k=5&sources=swissprot")
        assert before[0] == 200

        def write():
            writer = Aladin.open(path)
            try:
                writer.update_source("swissprot", alt_swissprot_text)
            finally:
                writer.close()

        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, write)

        deadline = loop.time() + 30
        while service.fingerprint == fp0:
            assert loop.time() < deadline, "generation swap never happened"
            await asyncio.sleep(0.1)

        after = await client(port, "/search?q=protein&top_k=5&sources=swissprot")
        return fp0, before, after, service.generation_swaps, service.cache.stats()

    fp0, before, after, swaps, cache_stats = run_service(body, path, config)
    assert swaps >= 1
    assert cache_stats["invalidations"] >= 1, "stale entries must be dropped"
    assert after[0] == 200
    # The updated swissprot carries different accessions: the service is
    # genuinely serving the new generation, not a stale cache entry.
    assert after[1] != before[1]

    final = SnapshotStore(path).content_fingerprint()
    assert final != fp0
