"""Incremental maintenance — the session scorer and resident pools.

The workload the paper cares about most: sources keep *arriving*, so the
system integrates them one ``add_source`` at a time. The incremental
duplicate pass runs one chunk per new source on a session-wide
:class:`~repro.duplicates.batch.BoundedRecordScorer` (value-pair cache +
exact best-match pruning, carried across the whole maintenance session)
and resident executors reuse one long-lived pool across fan-outs.

Measured on a 6-source sequential ``add_source`` run:

* **session scorer**: the serial backend;
* **session scorer + resident**: a resident thread pool;
* **discover_for sweep**: re-discovering every source's links on the
  process backend, per-fanout pools vs. one resident pool — the pure
  fork-overhead comparison.

Link webs must be *identical* across the variants before any timing is
printed. The committed ``BENCH_incremental.json`` records the answer to
the retired comparison against the per-pair path this scorer replaced
(2.08x on the full corpus); this script prints its table and writes no
file. ``REPRO_BENCH_INCREMENTAL_SMALL=1`` runs a smoke-sized corpus.
"""

import os
import time

from repro.core import Aladin, AladinConfig
from repro.eval import format_table
from repro.exec import ExecConfig, ProcessExecutor, ResidentProcessExecutor
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

SMALL = bool(os.environ.get("REPRO_BENCH_INCREMENTAL_SMALL"))
WORKERS = 4


def corpus():
    if SMALL:
        return build_scenario(
            ScenarioConfig(
                seed=450,
                include=("swissprot", "pdb", "go"),
                universe=UniverseConfig(n_families=3, members_per_family=2, seed=450),
            )
        )
    # Six sources over the E6 universe: the N-sequential-adds workload.
    return build_scenario(
        ScenarioConfig(
            seed=450,
            include=("swissprot", "pir", "pdb", "scop", "go", "omim"),
            universe=UniverseConfig(
                n_families=8, members_per_family=3, n_go_terms=24,
                n_diseases=10, n_interactions=15, seed=450,
            ),
        )
    )


def source_specs(scenario):
    return [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]


def link_web(aladin):
    return [
        (l.source_a, l.accession_a, l.source_b, l.accession_b,
         l.kind, l.certainty, l.evidence)
        for l in aladin.repository.object_links()
    ]


def run_incremental(specs, execution=None):
    config = AladinConfig()
    if execution is not None:
        config.execution = execution
    aladin = Aladin(config)
    started = time.perf_counter()
    for name, format_name, text, options in specs:
        aladin.add_source(name, format_name, text, **options)
    seconds = time.perf_counter() - started
    return aladin, seconds


def sweep(aladin, executor):
    """Re-run discover_for for every source on ``executor``."""
    previous = aladin._engine.executor
    aladin._engine.executor = executor
    started = time.perf_counter()
    links = {
        name: aladin._engine.discover_for(name) for name in aladin.source_names()
    }
    seconds = time.perf_counter() - started
    aladin._engine.executor = previous
    return seconds, {
        name: ([l for l in ls.attribute_links], [l for l in ls.object_links])
        for name, ls in links.items()
    }


def test_incremental_speedup(benchmark):
    scenario = corpus()
    specs = source_specs(scenario)

    new, new_seconds = run_incremental(specs)
    resident_exec = ExecConfig(backend="thread", workers=WORKERS, resident=True)
    resident, resident_seconds = run_incremental(specs, execution=resident_exec)

    # Identity before timing claims: both paths, the same web.
    assert link_web(resident) == link_web(new)

    # The refresh workload: per-fanout process pools fork once per sweep
    # call; the resident pool forks once for the whole sweep.
    per_call = ProcessExecutor(2)
    per_call_seconds, per_call_links = sweep(new, per_call)
    resident_pool = ResidentProcessExecutor(2)
    resident_sweep_seconds, resident_links = sweep(new, resident_pool)
    forks = resident_pool.pools_forked
    resident_pool.shutdown()
    assert resident_links == per_call_links

    resident_speedup = new_seconds / resident_seconds
    sweep_speedup = per_call_seconds / resident_sweep_seconds
    scorer = new._dup_scorer
    rows = [
        [f"integrate ({len(specs)} sources, session scorer)",
         f"{new_seconds:.2f}", "1.00x"],
        ["integrate (scorer + resident thread)",
         f"{resident_seconds:.2f}", f"{resident_speedup:.2f}x"],
        [f"discover_for sweep (process x2, {len(specs)} pools)",
         f"{per_call_seconds:.2f}", "1.00x"],
        [f"discover_for sweep (resident, {forks} pool)",
         f"{resident_sweep_seconds:.2f}", f"{sweep_speedup:.2f}x"],
    ]
    print()
    print(f"Incremental maintenance ({os.cpu_count()} core(s))")
    print(format_table(["phase", "seconds", "speedup"], rows))
    print(
        f"session scorer: {scorer.exact_scores} exact, {scorer.pruned} pruned, "
        f"{scorer.cache_hits} cache hits, {len(scorer.cache)} cached pairs"
    )

    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
