"""The ``scorer.*`` gauges cover every integration path.

Duplicates are scored on the system's session scorer whichever entry
point integrated the sources, so a batch reads the same gauges as the
same sources added one at a time.
"""

import pytest

from repro.core import Aladin, AladinConfig
from repro.exec import ExecError
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

GAUGES = (
    "scorer.exact_scores",
    "scorer.pruned",
    "scorer.early_exits",
    "scorer.cache_hits",
    "scorer.evictions",
)


def specs():
    scenario = build_scenario(
        ScenarioConfig(
            seed=450,
            universe=UniverseConfig(
                n_families=2, members_per_family=2, n_go_terms=4,
                n_diseases=2, n_interactions=2, seed=450,
            ),
        )
    )
    return [
        (s.name, s.facts.format_name, s.text, dict(s.facts.import_options))
        for s in scenario.sources
    ]


def scorer_gauges(ingest):
    config = AladinConfig()
    config.observability.enabled = True
    aladin = Aladin(config)
    try:
        ingest(aladin)
        gauges = aladin.metrics()["gauges"]
        return {name: gauges[name] for name in GAUGES}
    finally:
        aladin.close()


def test_integrate_many_reads_the_add_source_gauges():
    source_specs = specs()

    def one_at_a_time(aladin):
        for name, format_name, text, options in source_specs:
            aladin.add_source(name, format_name, text, **options)

    batch = scorer_gauges(lambda aladin: aladin.integrate_many(source_specs))
    assert batch == scorer_gauges(one_at_a_time)
    assert batch["scorer.exact_scores"] > 0


def test_a_failed_call_counts_its_work_and_keeps_the_cache_warm(
    tmp_path, monkeypatch
):
    """Counters count work performed, the unwound work of a failed call
    included; the value-pair cache is a pure accelerator and stays warm.

    The last source's checkpoint raises once, after every source was
    scored, so the failed attempt does a clean run's whole work. The
    retry then builds the clean run's web, duplicate sets and postings;
    its cache-independent counters read the clean run's plus the failed
    attempt's, and its scorer counters read those of a system that
    re-integrates the same sources on a warm cache.
    """
    from repro.persist.snapshot import SnapshotStore

    source_specs = specs()

    def integrated(path, ingest):
        aladin = Aladin(AladinConfig())
        aladin.save(tmp_path / path)
        ingest(aladin)
        return aladin

    def state(aladin):
        return (
            [
                (link.source_a, link.accession_a, link.source_b,
                 link.accession_b, link.kind, link.certainty)
                for link in aladin.repository.object_links()
            ],
            sorted(
                (link.source_a, link.accession_a, link.source_b,
                 link.accession_b, link.certainty)
                for link in aladin.repository.object_links(kind="duplicate")
            ),
            list(aladin._index.export_documents()),
        )

    def counters(aladin):
        stats = aladin._dup_scorer.stats()
        del stats["cache_entries"]
        return stats, aladin._engine.registrations, aladin._engine.comparisons_made

    def rerun(aladin):
        aladin.integrate_many(source_specs)
        for name, *_rest in source_specs:
            aladin.remove_source(name)
        aladin.integrate_many(source_specs)

    clean = integrated("clean.snapshot", lambda a: a.integrate_many(source_specs))
    warm = integrated("warm.snapshot", rerun)
    original = SnapshotStore.checkpoint_source
    armed = [source_specs[-1][0]]

    def failing_checkpoint(self, aladin, name, *args, **kwargs):
        if name in armed:
            armed.remove(name)
            raise RuntimeError("disk full at the last checkpoint")
        return original(self, aladin, name, *args, **kwargs)

    monkeypatch.setattr(SnapshotStore, "checkpoint_source", failing_checkpoint)
    retried = integrated("retried.snapshot", lambda a: None)
    try:
        with pytest.raises(ExecError, match="disk full"):
            retried.integrate_many(source_specs)
        assert retried.source_names() == []
        failed = counters(retried)
        assert failed == counters(clean), "the failed attempt did the clean work"
        retried.integrate_many(source_specs)
        assert state(retried) == state(clean)
        scorer, registrations, comparisons = counters(retried)
        assert registrations == failed[1] + clean._engine.registrations
        assert comparisons == failed[2] + clean._engine.comparisons_made
        assert counters(retried) == counters(warm)
        # Every value pair was cached by the failed attempt.
        assert scorer["exact_scores"] == failed[0]["exact_scores"]
    finally:
        for aladin in (clean, warm, retried):
            aladin.close()
