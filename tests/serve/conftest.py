"""Shared fixtures for the serving-layer tests: a snapshot and a client.

The client is deliberately primitive — a raw socket, one GET, read to
EOF — because the acceptance bar for the service is byte-identity
against direct ``Aladin`` calls, and any clever client-side decoding
would blur exactly the bytes under test.
"""

import asyncio

import pytest

from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def build_world(seed=130):
    """One integrated system over the full synth source set."""
    scenario = build_scenario(
        ScenarioConfig(
            seed=seed,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=seed,
            ),
        )
    )
    aladin = Aladin(AladinConfig())
    for source in scenario.sources:
        aladin.add_source(
            source.name,
            source.facts.format_name,
            source.text,
            **source.facts.import_options,
        )
    return scenario, aladin


@pytest.fixture(scope="session")
def snapshot_path(tmp_path_factory):
    _scenario, aladin = build_world()
    path = str(tmp_path_factory.mktemp("serve") / "world.snapshot")
    aladin.save(path)
    aladin.close()
    return path


@pytest.fixture(scope="session")
def alt_swissprot_text():
    """A same-shaped but different-content swissprot: the writer's update.

    The edit swaps a word inside description/comment values, so the row
    count is identical and ``update_source`` stays below the re-analysis
    threshold: data swapped in place, exactly one checkpoint, exactly
    one new content fingerprint. (An above-threshold update would
    remove+re-add the source — two checkpoints, and a legitimate
    intermediate generation without swissprot at all — which is a
    different scenario than the single-swap seam these tests pin.)
    The swapped word also changes which documents match ``protein``, so
    the search answer provably moves across the swap.
    """
    scenario = build_scenario(
        ScenarioConfig(
            seed=130,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=10,
                n_diseases=4, n_interactions=5, seed=130,
            ),
        )
    )
    return scenario.source("swissprot").text.replace("protein", "peptide", 8)


@pytest.fixture(scope="session")
def direct(snapshot_path):
    """A read-only lazy open of the same file: the byte-identity oracle."""
    aladin = Aladin.open(snapshot_path, read_only=True, lazy=True)
    yield aladin
    aladin.close()


@pytest.fixture(scope="session")
def client():
    """The raw-GET helper as a fixture (test dirs are not packages)."""
    return http_get


async def http_get(port, target, host="127.0.0.1"):
    """One GET against the service; returns ``(status, body_bytes)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()  # Connection: close — EOF ends the body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body
