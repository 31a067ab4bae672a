"""Incremental maintenance — the session scorer.

The workload the paper cares about most: sources keep *arriving*, so the
system integrates them one ``add_source`` at a time. The incremental
duplicate pass runs one chunk per new source on a session-wide
:class:`~repro.duplicates.batch.BoundedRecordScorer` (value-pair cache +
exact best-match pruning, carried across the whole maintenance session).

Measured on a 6-source sequential ``add_source`` run. The committed
``BENCH_incremental.json`` records the answer to the retired comparison
against the per-pair path this scorer replaced (2.08x on the full
corpus); this script prints its table and writes no file.
``REPRO_BENCH_INCREMENTAL_SMALL=1`` runs a smoke-sized corpus.
"""

import os
import time

from repro.core import Aladin, AladinConfig
from repro.eval import format_table
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

SMALL = bool(os.environ.get("REPRO_BENCH_INCREMENTAL_SMALL"))


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


def run_incremental(specs):
    aladin = Aladin(AladinConfig())
    started = time.perf_counter()
    for name, format_name, text, options in specs:
        aladin.add_source(name, format_name, text, **options)
    seconds = time.perf_counter() - started
    return aladin, seconds


def test_incremental_speedup(benchmark):
    scenario = corpus()
    specs = source_specs(scenario)

    new, new_seconds = run_incremental(specs)
    scorer = new._dup_scorer
    rows = [
        [f"integrate ({len(specs)} sources, session scorer)",
         f"{new_seconds:.2f}"],
    ]
    print()
    print(f"Incremental maintenance ({os.cpu_count()} core(s))")
    print(format_table(["phase", "seconds"], rows))
    print(
        f"session scorer: {scorer.exact_scores} exact, {scorer.pruned} pruned, "
        f"{scorer.cache_hits} cache hits, {len(scorer.cache)} cached pairs"
    )

    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
