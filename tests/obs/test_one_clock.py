"""One clock per stage: every view of a stage reads the same duration.

Each stage is timed once, by its span handle. The report's step seconds,
the ``stage.*`` / ``graph.*`` / ``pool.fanout.*`` /
``persist.checkpoint_seconds`` observations, the span durations and the
``checkpoint.committed`` event's ``seconds`` must therefore agree
exactly (``==``, no tolerance). With observability off the null tracer
still times every stage, so reports carry real float seconds either way.
"""

import pytest

from repro.core import Aladin, AladinConfig
from repro.dataimport import registry
from repro.obs.events import CHECKPOINT_COMMITTED

MEASURED = ("discover_structure", "link_discovery", "duplicate_detection")


def tsv(rows, tag=""):
    body = "\n".join(f"ACC{tag}{i:03d}\tname{i}\tdescription {tag} {i}"
                     for i in range(rows))
    return "accession\tname\tdescription\n" + body


def specs():
    return [(f"s{n}", "delimited", tsv(12, chr(ord("a") + n))) for n in range(4)]


def make_aladin(enabled=True):
    config = AladinConfig()
    config.observability.enabled = enabled
    return Aladin(config)


def observations(aladin, name):
    """Every value observed into histogram ``name``, in order."""
    return list(aladin.obs.metrics.histogram(name)._recent)


def spans(aladin, root):
    """The spans of the latest trace rooted at ``root``."""
    return [t for t in aladin.traces() if t["root"] == root][-1]["spans"]


class TestAddSource:
    def test_report_histograms_and_graph_spans_agree(self):
        aladin = make_aladin()
        try:
            aladin.add_source("s1", "delimited", tsv(10, "a"))
            report = aladin.add_source("s2", "delimited", tsv(10, "b"))
            node_spans = {
                span["name"]: span["duration"]
                for span in spans(aladin, "op.add_source")
                if span["name"].startswith("graph.")
            }
            for step in MEASURED:
                seconds = report.step(step).seconds
                assert observations(aladin, f"stage.{step}")[-1] == seconds
                assert node_spans[f"graph.{step}"] == seconds
                assert observations(aladin, f"graph.{step}.seconds")[-1] == seconds
        finally:
            aladin.close()

        # A batch runs each source through the same graph: each report's
        # steps are its own source's graph.* spans, in batch order.
        aladin = make_aladin()
        try:
            reports = aladin.integrate_many(specs())
            node_spans = {}
            for span in spans(aladin, "op.integrate_many"):
                if span["name"].startswith("graph."):
                    node_spans.setdefault(span["name"], []).append(span["duration"])
            for step in MEASURED:
                seconds = [report.step(step).seconds for report in reports]
                assert observations(aladin, f"stage.{step}") == seconds
                assert node_spans[f"graph.{step}"] == seconds
                assert observations(aladin, f"graph.{step}.seconds") == seconds
        finally:
            aladin.close()


def test_every_fanout_span_is_its_pool_observation():
    aladin = make_aladin()
    try:
        aladin.integrate_many(specs()[:2])
        aladin.add_source(*specs()[2])
        per_stage = {}
        for trace in aladin.traces():
            for span in trace["spans"]:
                if span["name"].startswith("fanout."):
                    stage = span["name"][len("fanout."):]
                    per_stage.setdefault(stage, []).append(span["duration"])
        assert set(per_stage) == {"link", "duplicates"}
        for stage, durations in per_stage.items():
            assert observations(aladin, f"pool.fanout.{stage}") == durations
    finally:
        aladin.close()


def test_every_checkpoint_span_is_its_histogram_and_event(tmp_path):
    aladin = make_aladin()
    try:
        aladin.add_source(*specs()[0])
        aladin.save(tmp_path / "wh.snapshot")
        aladin.add_source(*specs()[1])
        aladin.integrate_many(specs()[2:])
        _name, _format, text = specs()[1]
        aladin.update_source("s1", text.replace("name1\t", "renamed\t"))
        aladin.remove_source("s0")
        checkpoint_spans = [
            (span["attributes"]["source"], span["attributes"]["op"], span["duration"])
            for trace in aladin.traces()
            for span in trace["spans"]
            if span["name"] == "persist.checkpoint"
        ]
        events = [
            (event.payload["source"], event.payload["op"], event.payload["seconds"])
            for event in aladin.obs.events.history(CHECKPOINT_COMMITTED)
        ]
        assert [op for _source, op, _seconds in checkpoint_spans] == [
            "write", "write", "write", "write", "remove",
        ]
        assert checkpoint_spans == events
        assert observations(aladin, "persist.checkpoint_seconds") == [
            seconds for _source, _op, seconds in checkpoint_spans
        ]
    finally:
        aladin.close()


@pytest.mark.parametrize("enabled", [True, False], ids=["obs-on", "obs-off"])
@pytest.mark.parametrize("path", ["add_source", "integrate_many"])
def test_step_seconds_are_measured_floats(path, enabled):
    """Both paths report float seconds; with observability off the null
    tracer still times every step. The only unmeasured step is
    ``add_database``'s import (no import ran): exactly 0.0."""
    aladin = make_aladin(enabled)
    try:
        if path == "add_source":
            reports = [aladin.add_source(*spec) for spec in specs()]
        else:
            reports = aladin.integrate_many(specs())
        database = registry.create("delimited", "s9").import_text(tsv(6, "z")).database
        reports.append(aladin.add_database(database))
        for report in reports:
            for step in report.steps:
                assert type(step.seconds) is float, (report.source_name, step)
                if report.source_name == "s9" and step.step == "import":
                    assert step.seconds == 0.0
                elif not enabled:
                    assert step.seconds > 0.0, (report.source_name, step)
    finally:
        aladin.close()
