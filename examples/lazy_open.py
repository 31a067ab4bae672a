"""Lazy open: read the manifest, page sources in on first touch.

``Aladin.open`` is lazy by default — only the snapshot's manifest
(version, config, per-source names, hashes and row counts) loads up
front, and each source's tables fault in the first time something needs
them resident. A BM25 search streams postings straight from the
snapshot, a single-table SQL filter is pushed down to the snapshot's
value index, and a browsed page is read from the snapshot's rows, so all
three answer with *zero* sources resident. This script walks the access
modes and prints the hydration counters after each one, then faults one
source in and evicts it again with ``release_source``.

    python examples/lazy_open.py
"""

import os
import tempfile
import time

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def hydration(aladin: Aladin, label: str) -> None:
    stats = aladin.hydration_stats()
    names = ", ".join(stats["hydrated"]) or "none"
    print(
        f"  after {label}: {len(stats['hydrated'])}/{stats['sources']} "
        f"sources hydrated ({names}); resident {stats['resident_bytes']} "
        f"bytes; pushdown hits {stats['pushdown_hits']}"
    )


def main() -> None:
    scenario = build_scenario(
        ScenarioConfig(
            seed=42,
            universe=UniverseConfig(n_families=5, members_per_family=3, seed=42),
        )
    )
    snapshot_path = os.path.join(tempfile.mkdtemp(), "warehouse.snapshot")

    # --- process 1: integrate once, save -------------------------------
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name, source.facts.format_name, source.text,
            **source.facts.import_options,
        )
    aladin.save(snapshot_path)
    aladin.detach_store()
    print(f"saved {len(aladin.source_names())} sources -> {snapshot_path}")

    # --- process 2 (simulated restart): manifest-only open -------------
    started = time.perf_counter()
    lazy = Aladin.open(snapshot_path, read_only=True)  # lazy by default
    open_ms = (time.perf_counter() - started) * 1000
    print()
    print(f"lazy open: {open_ms:.1f} ms — {lazy.summary()}")
    hydration(lazy, "open")

    # A search touches only the index slice: no source hydrates.
    hits = lazy.search_engine().search("kinase", top_k=3)
    for hit in hits:
        print(f"    {hit.score:.2f}  {hit.source}/{hit.accession}")
    hydration(lazy, "search")

    # A single-table equality filter is pushed down to the snapshot's
    # value index: answered by SQL, still no source resident.
    probe = lazy.source_names()[0]
    attr = lazy.repository.structure(probe).primary_accession()
    result = lazy.query_engine().sql(
        probe, f"SELECT * FROM {attr.table} LIMIT 2"
    )
    print(f"    SQL on {probe!r}: {len(result.rows)} rows, no hydration")
    hydration(lazy, "pushed-down SQL")

    # Browsing a page reads that one object from the snapshot.
    top = hits[0]
    lazy.browser().visit(top.source, top.accession)
    hydration(lazy, f"browsing {top.source}/{top.accession}")

    # Anything that needs a source's rows resident faults exactly it in.
    lazy.database(top.source)
    hydration(lazy, f"touching {top.source}'s database")

    # Long-lived readers can evict cold sources back to their stubs.
    lazy.release_source(top.source)
    hydration(lazy, "release_source")
    lazy.close()

    # ``lazy=False`` means "fault every source in at open" — the same
    # byte-identical state, paid up front.
    started = time.perf_counter()
    eager = Aladin.open(snapshot_path, read_only=True, lazy=False)
    eager_ms = (time.perf_counter() - started) * 1000
    print()
    print(f"eager open: {eager_ms:.1f} ms ({eager_ms / max(open_ms, 1e-9):.0f}x "
          "the lazy open on this tiny corpus; the gap grows with rows)")
    eager.close()


if __name__ == "__main__":
    main()
