"""Bulk integration: ``integrate_many`` against the ``add_source`` loop.

Integrates the same batch of sources twice — the classic sequential
``add_source`` loop and ``Aladin.integrate_many`` — and verifies that
the resulting link webs are *identical*. Both go through one path: a
batch imports every source first, then runs each through the same
per-source task graph as ``add_source``, scoring duplicates on the
session-wide scorer whose value-pair cache persists across calls. Both
calls are all or nothing: if any source of a batch fails, every source
of the batch is unwound.

    python examples/batch_integration.py
"""

import time

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def build_corpus():
    return build_scenario(
        ScenarioConfig(
            seed=42,
            universe=UniverseConfig(
                n_families=6, members_per_family=3, n_go_terms=20,
                n_diseases=8, n_interactions=12, seed=42,
            ),
        )
    )


def main() -> None:
    scenario = build_corpus()
    specs = [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]
    print(f"corpus: {len(specs)} sources")

    # --- one source at a time ------------------------------------------
    loop = Aladin(AladinConfig())
    started = time.perf_counter()
    for name, format_name, text, options in specs:
        loop.add_source(name, format_name, text, **options)
    loop_seconds = time.perf_counter() - started
    scorer = loop._dup_scorer
    print(f"sequential add_source loop: {loop_seconds * 1000:.0f} ms")
    print(f"  session scorer: {scorer.exact_scores} exact scores, "
          f"{scorer.pruned} pruned, {scorer.cache_hits} cache hits")

    # --- the whole batch in one call -----------------------------------
    batch = Aladin(AladinConfig())
    started = time.perf_counter()
    reports = batch.integrate_many(specs)
    batch_seconds = time.perf_counter() - started
    print(f"integrate_many: {batch_seconds * 1000:.0f} ms")
    print()
    for report in reports:
        steps = {step.step: f"{step.seconds * 1000:.0f}ms" for step in report.steps}
        print(f"  {report.source_name:14s} {steps}")

    # --- same answers, to the byte ------------------------------------
    def web(aladin):
        return [
            (l.source_a, l.accession_a, l.source_b, l.accession_b,
             l.kind, l.certainty, l.evidence)
            for l in aladin.repository.object_links()
        ]

    assert web(batch) == web(loop)
    assert batch.summary() == loop.summary()
    print()
    print(f"verified identical link webs: {batch.summary()}")
    loop.close()
    batch.close()


if __name__ == "__main__":
    main()
