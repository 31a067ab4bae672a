"""Warm start: integrate once, save a snapshot, reopen without re-import.

The five-step pipeline (import, discovery, linking, duplicate detection,
indexing) runs exactly once; the snapshot then serves every later process
start. Reopening rehydrates the relational tables, the one-time column
statistics, the link web, and the search index directly — no discovery,
linking, or crawling happens the second time, which this script verifies
through the engine and cache counters.

    python examples/warm_start.py
"""

import os
import tempfile
import time

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def main() -> None:
    scenario = build_scenario(
        ScenarioConfig(
            seed=42,
            include=("swissprot", "pdb", "go"),
            universe=UniverseConfig(n_families=5, members_per_family=3, seed=42),
        )
    )
    snapshot_path = os.path.join(tempfile.mkdtemp(), "warehouse.snapshot")

    # --- process 1: cold integration, then save ------------------------
    started = time.perf_counter()
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name, source.facts.format_name, source.text,
            **source.facts.import_options,
        )
    cold_seconds = time.perf_counter() - started
    aladin.save(snapshot_path)
    print(f"cold integration: {cold_seconds * 1000:.0f} ms — {aladin.summary()}")
    print(f"snapshot: {snapshot_path} ({os.path.getsize(snapshot_path)} bytes)")

    # --- process 2 (simulated restart): warm open ----------------------
    started = time.perf_counter()
    reopened = Aladin.open(snapshot_path)
    warm_seconds = time.perf_counter() - started
    print()
    print(f"warm open: {warm_seconds * 1000:.1f} ms — {reopened.summary()}")
    print(f"speedup: {cold_seconds / warm_seconds:.0f}x")

    # Nothing was re-analyzed: the counters prove it.
    assert reopened._engine.registrations == 0
    assert reopened._engine.comparisons_made == 0
    assert reopened._index.pages_indexed == 0
    assert not reopened.hydration_stats()["index_rebuilt"]  # read, not built
    for name in reopened.source_names():
        assert reopened.database(name).column_cache_stats()["misses"] == 0
    print("verified: zero discovery / linking / index-build work on open")

    # The reopened warehouse answers queries immediately.
    print()
    print("search 'kinase' (served from the rehydrated index):")
    for hit in reopened.search_engine().search("kinase", top_k=5):
        print(f"  {hit.score:6.2f}  {hit.source}/{hit.accession}")

    protein = reopened.query_engine().sql(
        "swissprot", "SELECT accession, name FROM entry LIMIT 3"
    )
    print()
    print("SQL on the rehydrated schema:")
    for row in protein.rows:
        print(f"  {row['accession']}  {row['name']}")

    # Maintenance keeps checkpointing into the attached snapshot.
    reopened.remove_source("go")
    third = Aladin.open(snapshot_path)
    print()
    print(f"after remove_source('go') + reopen: {third.summary()}")


if __name__ == "__main__":
    main()
