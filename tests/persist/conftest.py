"""Shared fixtures for the persistence tests: one integrated system."""

import pytest

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def small_scenario(include=None, seed=77):
    config = ScenarioConfig(
        seed=seed,
        universe=UniverseConfig(
            n_families=4, members_per_family=2, n_go_terms=10,
            n_diseases=4, n_interactions=5, seed=seed,
        ),
    )
    if include is not None:
        config.include = include
    return build_scenario(config)


def integrate(scenario, names=None):
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        if names is not None and source.name not in names:
            continue
        aladin.add_source(
            source.name,
            source.facts.format_name,
            source.text,
            **source.facts.import_options,
        )
    return aladin


@pytest.fixture(scope="module")
def integrated_world():
    """The full source set (including duplicate-producing pir) + index."""
    scenario = small_scenario()
    aladin = integrate(scenario)
    return scenario, aladin
