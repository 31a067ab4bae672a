"""Serving: an asyncio query service over a read-only snapshot.

``repro.serve.AsyncQueryService`` attaches to a snapshot lazily and
read-only, and answers search / browse / crawl / link-walk queries over
plain HTTP/JSON — stdlib asyncio only, no framework. CPU-bound query
work runs on the system's executor pools behind a bounded semaphore, a
small LRU caches serialized responses keyed on the snapshot's content
fingerprint, and a watcher swaps in a fresh generation (and drops the
stale cache) whenever a writer checkpoints the file underneath us.

This script starts a service on an ephemeral port, queries it with raw
sockets, lets a writer update a source mid-serve to show the generation
swap, then drains and stops. The same service is available from the
command line as ``python -m repro serve <snapshot>``.

    python examples/serve_snapshot.py
"""

import asyncio
import json
import os
import tempfile

from repro.core import Aladin, AladinConfig
from repro.serve import AsyncQueryService, ServeConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

SEED = 77


async def get(port: int, target: str):
    """One raw GET; returns (status, decoded JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def build_snapshot() -> str:
    scenario = build_scenario(
        ScenarioConfig(
            seed=SEED,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, seed=SEED
            ),
        )
    )
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name, source.facts.format_name, source.text,
            **source.facts.import_options,
        )
    path = os.path.join(tempfile.mkdtemp(), "served.snapshot")
    aladin.save(path)
    aladin.close()
    return path


async def main() -> None:
    path = build_snapshot()
    print(f"snapshot: {path}")

    service = AsyncQueryService(
        path,
        ServeConfig(
            port=0,                # ephemeral; read it back from service.port
            max_concurrency=16,    # simultaneous queries on the pool
            max_pending=128,       # admission bound; beyond it -> 503
            refresh_interval=0.2,  # how often the watcher polls the file
        ),
    )
    await service.start()
    try:
        port = service.port
        print(f"serving on 127.0.0.1:{port}  fingerprint={service.fingerprint[:12]}…")

        # --- search ----------------------------------------------------
        status, body = await get(port, "/search?q=protein&top_k=3")
        print(f"\nGET /search?q=protein&top_k=3 -> {status}")
        for hit in body["hits"]:
            print(f"    {hit['score']:.2f}  {hit['source']}/{hit['accession']}")

        # --- browse the top hit ---------------------------------------
        top = body["hits"][0]
        target = f"/browse?source={top['source']}&accession={top['accession']}"
        status, view = await get(port, target)
        print(f"GET {target} -> {status}: "
              f"{len(view['page']['fields'])} fields, "
              f"{len(view['linked'])} linked pages, "
              f"{len(view['conflicts'])} conflicts")

        # --- link-walk: SQL select joined through the link graph ------
        status, walked = await get(
            port,
            "/walk?source=swissprot"
            "&statement=SELECT%20*%20FROM%20entry%20LIMIT%202&target=pdb",
        )
        print(f"GET /walk?... -> {status}: {walked['count']} linked rows")

        # --- a repeat query is a cache hit (same bytes, no pool work) --
        await get(port, "/search?q=protein&top_k=3")
        print(f"cache after repeat: {service.cache.stats()}")

        # --- a writer checkpoints the file; the watcher swaps ---------
        writer = Aladin.open(path)
        scenario = build_scenario(
            ScenarioConfig(
                seed=SEED,
                universe=UniverseConfig(
                    n_families=4, members_per_family=2, seed=SEED
                ),
            )
        )
        new_text = scenario.source("swissprot").text.replace(
            "protein", "peptide", 4
        )
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: writer.update_source("swissprot", new_text)
        )
        writer.close()
        while service.generation_swaps == 0:
            await asyncio.sleep(0.05)
        print(f"\nwriter checkpointed -> generation swapped "
              f"(fingerprint={service.fingerprint[:12]}…), "
              f"cache invalidations={service.cache.stats()['invalidations']}")

        status, health = await get(port, "/healthz")
        print(f"GET /healthz -> {status}: {health['status']}, "
              f"inflight={health['inflight']}")
    finally:
        drained = await service.stop()
        print(f"\nstopped; drained cleanly: {drained}")


if __name__ == "__main__":
    asyncio.run(main())
