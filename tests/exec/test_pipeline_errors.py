"""Pipeline failures: atomic batches and fan-out errors that name the task.

``integrate_many`` either integrates the whole batch or leaves the system
exactly as before the call, and a failing pair scan surfaces as a clean
:class:`ExecError` naming the failed task. The execution variables that
once chose a worker pool are ignored: every pipeline runs inline.
"""

import os
import threading

import pytest

from repro.core import Aladin, AladinConfig
from repro.exec import ExecError
from repro.obs.events import SOURCE_ADDED
from repro.persist.snapshot import SnapshotStore
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def source_specs(scenario):
    return [
        (source.name, source.facts.format_name, source.text,
         source.facts.import_options)
        for source in scenario.sources
    ]


def link_web(aladin):
    """The exact object/attribute link lists, order included."""
    return (
        [
            (l.source_a, l.accession_a, l.source_b, l.accession_b,
             l.kind, l.certainty, l.evidence)
            for l in aladin.repository.object_links()
        ],
        [(l.key(), l.score, l.kind, l.encoded)
         for l in aladin.repository.attribute_links()],
    )


QUERIES = ("kinase", "protein", "structure")


def rankings(aladin):
    engine = aladin.search_engine()
    return {
        query: [(h.source, h.accession, h.score) for h in engine.search(query, top_k=20)]
        for query in QUERIES
    }


class TestBatchAtomicity:
    def test_failed_batch_unwinds_and_is_retryable(self, monkeypatch):
        scenario = build_scenario(
            ScenarioConfig(
                seed=12, include=("swissprot", "pdb", "go"),
                universe=UniverseConfig(n_families=2, members_per_family=2, seed=12),
            )
        )
        aladin = Aladin(AladinConfig())
        specs = source_specs(scenario)
        aladin.add_source(*specs[0][:3], **specs[0][3])
        before = (aladin.source_names(), link_web(aladin), len(aladin.reports))

        def broken_channel(*args, **kwargs):
            raise RuntimeError("channel blew up mid-batch")

        monkeypatch.setattr(
            "repro.linking.engine.discover_crossref_links", broken_channel
        )
        with pytest.raises(ExecError):
            aladin.integrate_many(specs[1:])
        # Nothing half-integrated: state is exactly the pre-batch state.
        assert (aladin.source_names(), link_web(aladin), len(aladin.reports)) == before
        monkeypatch.undo()
        # And the batch is retryable as-is.
        reports = aladin.integrate_many(specs[1:])
        assert [r.source_name for r in reports] == [s[0] for s in specs[1:]]
        assert sorted(aladin.source_names()) == sorted(s[0] for s in specs)


    def test_partial_registration_unwinds_engine_state(self, monkeypatch):
        """A failure *inside* registration must not leak engine entries."""
        scenario = build_scenario(
            ScenarioConfig(
                seed=13, include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=2, members_per_family=2, seed=13),
            )
        )
        aladin = Aladin(AladinConfig())
        specs = source_specs(scenario)
        from repro.metadata.repository import MetadataRepository

        original = MetadataRepository.register_source
        second_name = specs[1][0]

        def failing_register(self, structure, *args, **kwargs):
            if structure.source_name == second_name:
                raise RuntimeError("repository exploded mid-registration")
            return original(self, structure, *args, **kwargs)

        monkeypatch.setattr(MetadataRepository, "register_source", failing_register)
        with pytest.raises(RuntimeError, match="mid-registration"):
            aladin.integrate_many(specs)
        # The first source fully unwound, the second's half-registered
        # engine/web entries scrubbed: nothing of the batch remains.
        assert aladin.source_names() == []
        assert aladin._engine.source_names() == []
        assert aladin._databases == {}
        monkeypatch.undo()
        reports = aladin.integrate_many(specs)
        assert [r.source_name for r in reports] == [s[0] for s in specs]


    def test_failed_batch_emits_no_source_added(self, monkeypatch):
        """The batch's first source is fully integrated before its second
        fails, yet no ``source.added`` reaches a subscriber."""
        config = AladinConfig()
        config.observability.enabled = True
        aladin = Aladin(config)
        specs = source_specs(_batch_scenario())
        delivered = []
        aladin.obs.events.subscribe(delivered.append, kind=SOURCE_ADDED)
        original = Aladin._index_add_source

        def failing_index(self, name):
            if name == specs[1][0]:
                raise RuntimeError("index update blew up")
            return original(self, name)

        monkeypatch.setattr(Aladin, "_index_add_source", failing_index)
        try:
            with pytest.raises(RuntimeError, match="index update blew up"):
                aladin.integrate_many(specs)
            assert delivered == []
            assert aladin.obs.events.history(SOURCE_ADDED) == []
            assert aladin.source_names() == []
            assert aladin.reports == []
        finally:
            aladin.close()

    def test_failed_batch_leaves_the_attached_snapshot_as_before(
        self, monkeypatch, tmp_path
    ):
        """The batch's first source is checkpointed before its second
        fails; the unwind removes that written slice again, so a lazy
        reopen equals the writer before the call."""
        specs = source_specs(_batch_scenario())
        path = str(tmp_path / "wh.snapshot")
        writer = Aladin(AladinConfig())
        reader = None
        try:
            writer.add_source(*specs[0][:3], **specs[0][3])
            writer.save(path)
            before = (writer.source_names(), link_web(writer), rankings(writer))
            assert all(before[2].values()), "a query with no hits checks nothing"
            original = SnapshotStore.checkpoint_source
            checkpointed = []

            def failing_checkpoint(self, aladin, name, *args, **kwargs):
                if name == specs[2][0]:
                    raise RuntimeError("disk full mid-batch")
                checkpointed.append(name)
                return original(self, aladin, name, *args, **kwargs)

            monkeypatch.setattr(SnapshotStore, "checkpoint_source", failing_checkpoint)
            with pytest.raises(RuntimeError, match="disk full mid-batch"):
                writer.integrate_many(specs[1:])
            assert checkpointed == [specs[1][0]]
            monkeypatch.undo()
            assert (
                writer.source_names(), link_web(writer), rankings(writer)
            ) == before
            reader = Aladin.open(path, read_only=True)
            assert (
                reader.source_names(), link_web(reader), rankings(reader)
            ) == before
        finally:
            if reader is not None:
                reader.close()
            writer.close()


class TestAddSourceAtomicity:
    def test_failed_add_unwinds_and_is_retryable(self, monkeypatch):
        scenario = build_scenario(
            ScenarioConfig(
                seed=11, include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=2, members_per_family=2, seed=11),
            )
        )
        aladin = Aladin(AladinConfig())
        first, second = source_specs(scenario)
        aladin.add_source(first[0], first[1], first[2], **first[3])

        def state():
            return (
                aladin.source_names(),
                aladin._engine.source_names(),
                dict(aladin._raw_inputs),
                list(aladin.reports),
                link_web(aladin),
            )

        before = state()

        def broken_channel(*args, **kwargs):
            raise RuntimeError("channel blew up")

        monkeypatch.setattr(
            "repro.linking.engine.discover_crossref_links", broken_channel
        )
        with pytest.raises(ExecError, match="channel blew up"):
            aladin.add_source(second[0], second[1], second[2], **second[3])
        assert state() == before
        monkeypatch.undo()
        report = aladin.add_source(second[0], second[1], second[2], **second[3])
        assert report.source_name == second[0]
        assert aladin.source_names() == sorted([first[0], second[0]])
        assert link_web(aladin)[0], "the retried add found no links"

    def test_re_adding_a_live_name_is_rejected_untouched(self, tmp_path):
        scenario = build_scenario(
            ScenarioConfig(
                seed=11, include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=2, members_per_family=2, seed=11),
            )
        )
        specs = source_specs(scenario)
        other = source_specs(
            build_scenario(
                ScenarioConfig(
                    seed=12, include=("swissprot", "pdb"),
                    universe=UniverseConfig(
                        n_families=2, members_per_family=2, seed=12
                    ),
                )
            )
        )
        path = str(tmp_path / "wh.snapshot")
        writer = Aladin(AladinConfig())
        reader = None
        try:
            for name, format_name, text, options in specs:
                writer.add_source(name, format_name, text, **options)
            writer.save(path)
            name, format_name, new_text, options = other[1]
            assert name == specs[1][0] and new_text != specs[1][2]
            raw_before = dict(writer._raw_inputs)
            before = (writer.source_names(), link_web(writer), len(writer.reports))
            with pytest.raises(ValueError, match=repr(name)):
                writer.add_source(name, format_name, new_text, **options)
            assert writer._raw_inputs == raw_before
            assert (
                writer.source_names(), link_web(writer), len(writer.reports)
            ) == before
            reader = Aladin.open(path, read_only=True, lazy=False)
            assert reader._raw_inputs[name][1] == specs[1][2]
            assert (reader.source_names(), link_web(reader)) == before[:2]
        finally:
            if reader is not None:
                reader.close()
            writer.close()


class TestTaskErrors:
    def test_channel_failure_surfaces_as_exec_error(self, monkeypatch):
        scenario = build_scenario(
            ScenarioConfig(
                seed=11, include=("swissprot", "pdb"),
                universe=UniverseConfig(n_families=2, members_per_family=2, seed=11),
            )
        )
        aladin = Aladin(AladinConfig())
        first, second = source_specs(scenario)
        aladin.add_source(first[0], first[1], first[2], **first[3])

        def broken_channel(*args, **kwargs):
            raise RuntimeError("channel blew up")

        monkeypatch.setattr(
            "repro.linking.engine.discover_crossref_links", broken_channel
        )
        with pytest.raises(ExecError) as excinfo:
            aladin.add_source(second[0], second[1], second[2], **second[3])
        assert excinfo.value.task is not None
        assert excinfo.value.task.startswith("link:")
        assert "channel blew up" in str(excinfo.value)


def _batch_scenario():
    return build_scenario(
        ScenarioConfig(
            seed=12, include=("swissprot", "pdb", "go"),
            universe=UniverseConfig(n_families=2, members_per_family=2, seed=12),
        )
    )


@pytest.fixture(scope="module")
def inline_reference():
    aladin = Aladin(AladinConfig())
    try:
        aladin.integrate_many(source_specs(_batch_scenario()))
        web = link_web(aladin)
    finally:
        aladin.close()
    assert web[0], "reference batch produced no object links"
    return web


class TestRetiredExecutionVariables:
    """Each variable is set to a value the removed backends acted on."""

    @pytest.mark.parametrize(
        "variable,value",
        [
            ("REPRO_EXEC_BACKEND", "process"),
            ("REPRO_EXEC_WORKERS", "4"),
            ("REPRO_EXEC_RESIDENT", "1"),
            ("REPRO_EXEC_IDLE_SECONDS", "0.01"),
            ("REPRO_EXEC_AUTO_PARALLEL", "thread"),
        ],
    )
    def test_variable_is_ignored(self, monkeypatch, inline_reference, variable, value):
        monkeypatch.setenv(variable, value)

        def no_fork():
            raise AssertionError("the pipeline forked a worker")

        started = []
        original_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return original_start(thread)

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        aladin = Aladin(AladinConfig())
        try:
            aladin.integrate_many(source_specs(_batch_scenario()))
            assert link_web(aladin) == inline_reference
        finally:
            aladin.close()
        assert started == []
