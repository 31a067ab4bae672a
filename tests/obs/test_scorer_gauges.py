"""The ``scorer.*`` gauges cover every integration path.

Duplicates are scored on the system's session scorer whichever entry
point integrated the sources, so a batch reads the same gauges as the
same sources added one at a time.
"""

from repro.core import Aladin, AladinConfig
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
