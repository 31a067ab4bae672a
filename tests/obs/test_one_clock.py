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


def task_seconds(trace_spans):
    """``{label: duration}`` of every labelled ``task`` span."""
    return {
        span["attributes"]["label"]: span["duration"]
        for span in trace_spans
        if span["name"] == "task" and "label" in span["attributes"]
    }


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


class TestIntegrateMany:
    def test_report_steps_are_task_span_durations(self):
        aladin = make_aladin()
        try:
            reports = aladin.integrate_many(specs())
            tasks = task_seconds(spans(aladin, "op.integrate_many"))
            names = [report.source_name for report in reports]
            for position, report in enumerate(reports):
                name = names[position]
                assert report.step("import").seconds == tasks[f"import:{name}"]
                assert (report.step("discover_structure").seconds
                        == tasks[f"discover:{name}"])
                assert (report.step("duplicate_detection").seconds
                        == tasks[f"duplicates:{name}"])
                link_seconds = 0.0
                for other in sorted(names[:position]):
                    link_seconds += tasks[f"link:pair:{name}->{other}"]
                    link_seconds += tasks[f"link:directional:{other}->{name}"]
                assert report.step("link_discovery").seconds == link_seconds
                for step in report.steps:
                    assert (observations(aladin, f"stage.{step.step}")[position]
                            == step.seconds)
        finally:
            aladin.close()

    def test_the_batch_imports_then_discovers_in_two_fanouts(self):
        aladin = make_aladin()
        try:
            aladin.integrate_many(specs())
            fanouts = [
                span["name"] for span in spans(aladin, "op.integrate_many")
                if span["name"].startswith("fanout.")
            ]
            assert fanouts[:2] == ["fanout.import", "fanout.discover"]
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
        assert {"import", "discover", "batch_scan", "link", "duplicates"} <= set(per_stage)
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
    tracer still times every step. The only unmeasured steps are a batch
    source's link discovery with no counterpart yet (no link tasks ran)
    and ``add_database``'s import (no import ran): both exactly 0.0."""
    aladin = make_aladin(enabled)
    try:
        if path == "add_source":
            reports = [aladin.add_source(*spec) for spec in specs()]
        else:
            reports = aladin.integrate_many(specs())
        database = registry.create("delimited", "s9").import_text(tsv(6, "z")).database
        reports.append(aladin.add_database(database))
        for position, report in enumerate(reports):
            for step in report.steps:
                assert type(step.seconds) is float, (report.source_name, step)
                unmeasured = (
                    (path == "integrate_many" and position == 0
                     and step.step == "link_discovery")
                    or (report.source_name == "s9" and step.step == "import")
                )
                if unmeasured:
                    assert step.seconds == 0.0
                elif not enabled:
                    assert step.seconds > 0.0, (report.source_name, step)
    finally:
        aladin.close()
