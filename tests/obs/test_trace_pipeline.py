"""Span trees over real pipelines.

The acceptance story for hierarchical tracing: one *connected* span tree
per top-level operation — per-task spans under their fan-out span in
item order — plus the differential guarantee that tracing never changes
a result: the traced system's link web, object web, and BM25 rankings
are byte-identical to the untraced one.
"""

import json
import re

import pytest

from repro.cli import run as cli_run
from repro.core import Aladin, AladinConfig

QUERIES = ("name3", "description b", "name1")


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


def spans_by_trace(aladin):
    grouped = {}
    for trace in aladin.traces():
        grouped[trace["root"]] = trace["spans"]
    return grouped


def assert_connected(spans):
    """Every span hangs off exactly one root through in-trace parents."""
    ids = {span["span_id"] for span in spans}
    roots = [span for span in spans if span["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {roots}"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids, f"dangling parent in {span}"
    assert len({span["trace_id"] for span in spans}) == 1


def test_integrate_many_yields_one_connected_tree():
    aladin = make_aladin()
    try:
        aladin.integrate_many(specs())
        trees = spans_by_trace(aladin)
        spans = trees["op.integrate_many"]
        assert_connected(spans)
        root = next(s for s in spans if s["parent_id"] is None)
        assert root["attributes"]["sources"] == 4
        assert root["status"] == "ok"
        assert all(span["status"] == "ok" for span in spans)

        # The batch stages fan out; each fan-out span carries its
        # per-task spans as direct children.
        fanouts = [s for s in spans if s["name"].startswith("fanout.")]
        assert fanouts, "no fan-out spans under the batch"
        for fanout in fanouts:
            tasks = [
                s for s in spans
                if s["name"] == "task" and s["parent_id"] == fanout["span_id"]
            ]
            assert len(tasks) == fanout["attributes"]["items"]
            for task in tasks:
                assert task["duration"] > 0.0
                assert "index" in task["attributes"]
            # Item order.
            assert [t["attributes"]["index"] for t in tasks] == sorted(
                t["attributes"]["index"] for t in tasks
            )
    finally:
        aladin.close()


def test_add_source_tree_spans_graph_nodes():
    aladin = make_aladin()
    try:
        aladin.add_source("s1", "delimited", tsv(10, "a"))
        aladin.add_source("s2", "delimited", tsv(10, "b"))
        trees = [t for t in aladin.traces() if t["root"] == "op.add_source"]
        assert len(trees) == 2
        spans = trees[1]["spans"]  # s2: links + duplicates against s1
        assert_connected(spans)
        names = {span["name"] for span in spans}
        # The five-step graph's nodes hang under the op span.
        assert {"graph.link_discovery", "graph.register",
                "graph.checkpoint"} <= names
        root = next(s for s in spans if s["parent_id"] is None)
        assert root["attributes"]["source"] == "s2"
    finally:
        aladin.close()


def test_task_spans_carry_labels_from_fanout():
    aladin = make_aladin()
    try:
        aladin.add_source("s1", "delimited", tsv(10, "a"))
        aladin.add_source("s2", "delimited", tsv(10, "b"))
        labeled = [
            span
            for trace in aladin.traces()
            for span in trace["spans"]
            if span["name"] == "task" and "label" in span["attributes"]
        ]
        assert any(
            span["attributes"]["label"].startswith("link:")
            for span in labeled
        ), f"no labeled link-scan task spans in {labeled}"
    finally:
        aladin.close()


def test_operations_get_separate_traces():
    aladin = make_aladin()
    try:
        aladin.add_source("s1", "delimited", tsv(8, "a"))
        aladin.add_source("s2", "delimited", tsv(8, "b"))
        aladin.remove_source("s2")
        roots = [t["root"] for t in aladin.traces()]
        assert roots == ["op.add_source", "op.add_source", "op.remove_source"]
        for trace in aladin.traces():
            assert_connected(trace["spans"])
    finally:
        aladin.close()


def test_search_and_browse_record_root_spans():
    aladin = make_aladin()
    try:
        aladin.add_source("s1", "delimited", tsv(8, "a"))
        hits = aladin.search_engine().search("name1")
        assert hits
        accession = aladin.web.accessions("s1")[0]
        aladin.browser().visit("s1", accession)
        roots = [t["root"] for t in aladin.traces()]
        assert "op.search" in roots and "op.browse" in roots
        search = next(t for t in aladin.traces() if t["root"] == "op.search")
        root = next(s for s in search["spans"] if s["parent_id"] is None)
        assert root["attributes"]["query"] == "name1"
        assert root["attributes"]["hits"] == len(hits)
    finally:
        aladin.close()


def test_open_records_a_root_span(tmp_path):
    snap = tmp_path / "wh.snap"
    writer = make_aladin()
    writer.add_source("s1", "delimited", tsv(8, "a"))
    writer.save(str(snap))
    # With a store attached, the add's checkpoint is a span of the op.
    writer.add_source("s2", "delimited", tsv(8, "b"))
    writer.close()
    # op.save wraps the full write.
    save_trace = next(t for t in writer.traces() if t["root"] == "op.save")
    assert "persist.write_full" in {s["name"] for s in save_trace["spans"]}
    checkpointed = [t for t in writer.traces() if t["root"] == "op.add_source"][-1]
    names = {s["name"] for s in checkpointed["spans"]}
    assert "persist.checkpoint" in names
    assert "persist.compaction" in names  # the auto-compaction check ran

    config = AladinConfig()
    config.observability.enabled = True
    reader = Aladin.open(str(snap), config=config, read_only=True, lazy=True)
    try:
        opened = next(t for t in reader.traces() if t["root"] == "op.open")
        (root,) = opened["spans"]
        assert root["attributes"]["lazy"] is True
        assert root["duration"] > 0.0
        # First touch of a stub records the hydration fault as a span.
        reader.database("s1")
        names = [t["root"] for t in reader.traces()]
        assert "persist.hydration_fault" in names
    finally:
        reader.close()


# ----------------------------------------------------------------------
# the differential guarantee: tracing changes nothing
# ----------------------------------------------------------------------
def fingerprint(aladin):
    links = [
        (l.source_a, l.accession_a, l.source_b, l.accession_b,
         l.kind, l.certainty, l.evidence)
        for l in aladin.repository.object_links()
    ]
    attribute_links = [
        (l.key(), l.score, l.kind) for l in aladin.repository.attribute_links()
    ]
    engine = aladin.search_engine()
    rankings = {
        query: [(h.source, h.accession, h.score, h.matched_fields)
                for h in engine.search(query, top_k=50)]
        for query in QUERIES
    }
    pages = {}
    for source in aladin.web.sources_with_pages():
        for accession in aladin.web.accessions(source):
            page = aladin.web.page(source, accession)
            pages[(source, accession)] = (page.fields, page.annotations)
    return links, attribute_links, rankings, pages


def test_traced_run_is_byte_identical_to_untraced():
    traced = make_aladin(enabled=True)
    untraced = make_aladin(enabled=False)
    try:
        traced.integrate_many(specs())
        untraced.integrate_many(specs())
        assert traced.traces(), "traced run recorded no spans"
        assert untraced.traces() == []
        assert fingerprint(traced) == fingerprint(untraced)
    finally:
        traced.close()
        untraced.close()


def add_one_by_one(aladin):
    for name, format_name, text in specs():
        aladin.add_source(name, format_name, text)


def maintain(aladin):
    add_one_by_one(aladin)
    aladin.update_source("s0", tsv(12, "a2"))  # below threshold: in place
    aladin.update_source("s1", tsv(24, "b2"))  # above: re-analysed
    aladin.remove_source("s3")


def batch_then_add(aladin):
    aladin.integrate_many(specs()[:3])
    name, format_name, text = specs()[3]
    aladin.add_source(name, format_name, text)


@pytest.mark.parametrize(
    "pipeline",
    [add_one_by_one, maintain, batch_then_add],
    ids=["add_source", "maintenance", "batch-then-add"],
)
def test_traced_pipeline_is_byte_identical_to_untraced(pipeline):
    traced = make_aladin(enabled=True)
    untraced = make_aladin(enabled=False)
    try:
        pipeline(traced)
        pipeline(untraced)
        roots = {trace["root"] for trace in traced.traces()}
        assert "op.add_source" in roots
        assert untraced.traces() == []
        assert fingerprint(traced) == fingerprint(untraced)
    finally:
        traced.close()
        untraced.close()


# ----------------------------------------------------------------------
# the CLI exposition path
# ----------------------------------------------------------------------
def test_cli_trace_renders_span_trees(tmp_path, capsys):
    snap = tmp_path / "wh.snap"
    writer = make_aladin()
    writer.add_source("s1", "delimited", tsv(8, "a"))
    writer.save(str(snap))
    writer.close()

    assert cli_run(["trace", str(snap), "--search", "name1"]) == 0
    out = capsys.readouterr().out
    assert "trace t" in out
    assert "- op.open" in out
    assert "- op.search" in out
    assert "ms" in out

    # --slow with an absurd threshold prunes everything.
    assert cli_run(["trace", str(snap), "--slow", "9999"]) == 0
    assert "no spans recorded" in capsys.readouterr().out


def test_cli_metrics_prometheus_is_pure_and_parses(tmp_path, capsys):
    """--prometheus output is *only* the exposition: every line is a
    well-formed TYPE comment or sample, families unique, so a scraper
    can consume stdout directly even with access flags on."""
    snap = tmp_path / "wh.snap"
    writer = make_aladin()
    writer.add_source("s1", "delimited", tsv(8, "a"))
    writer.save(str(snap))
    writer.close()

    assert cli_run(["metrics", str(snap), "--search", "name1",
                    "--prometheus"]) == 0
    out = capsys.readouterr().out
    sample = re.compile(
        r'^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_]+="[^"]*"\})?'
        r" (-?[0-9.e+-]+|NaN|[+-]Inf)$"
    )
    families = []
    for line in out.rstrip("\n").splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            assert kind in ("counter", "gauge", "summary"), line
            families.append(family)
        else:
            assert sample.match(line), f"bad exposition line: {line!r}"
    assert families, "no metric families rendered"
    assert len(families) == len(set(families))
    assert all(f.startswith("repro_") for f in families)


def test_prometheus_file_knob_writes_on_close(tmp_path):
    """``AladinConfig.observability.prometheus_path`` (the
    REPRO_OBS_PROMETHEUS knob) writes the exposition atomically when
    the system closes — no leftover temp file, scrapeable content."""
    target = tmp_path / "metrics.prom"
    config = AladinConfig()
    config.observability.enabled = True
    config.observability.prometheus_path = str(target)
    aladin = Aladin(config)
    aladin.add_source("s1", "delimited", tsv(8, "a"))
    assert not target.exists()  # written on close, not incrementally
    aladin.close()
    text = target.read_text()
    assert "# TYPE repro_pool_fanouts_total counter" in text
    assert "repro_stage_" in text  # per-stage histograms made it out
    assert not list(tmp_path.glob("metrics.prom.tmp.*"))


def test_jsonl_export_interleaves_spans(tmp_path):
    """The export stream carries events AND finished spans, ending with
    the final metrics line that close() flushes."""
    export = tmp_path / "obs.jsonl"
    config = AladinConfig()
    config.observability.enabled = True
    config.observability.export_path = str(export)
    aladin = Aladin(config)
    aladin.add_source("s1", "delimited", tsv(8, "a"))
    aladin.close()

    lines = [json.loads(line) for line in export.read_text().splitlines()]
    kinds = [line["type"] for line in lines]
    assert "event" in kinds and "span" in kinds
    assert kinds[-1] == "metrics"
    spans = [line for line in lines if line["type"] == "span"]
    assert any(s["name"] == "op.add_source" for s in spans)
    # Children finish (and export) before their parent: the op root is
    # the last span of its trace in stream order.
    root = next(s for s in spans if s["name"] == "op.add_source")
    same_trace = [s for s in spans if s["trace_id"] == root["trace_id"]]
    assert same_trace[-1]["name"] == "op.add_source"
    event_kinds = [l["kind"] for l in lines if l["type"] == "event"]
    assert "source.added" in event_kinds
