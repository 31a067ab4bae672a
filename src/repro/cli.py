"""Command-line front-end: integrate raw source files and explore them.

Usage::

    python -m repro integrate swissprot=flatfile:sp.dat pdb=pdb:pdb.txt \
        --search "kinase" --sql "swissprot:SELECT * FROM entry LIMIT 5" \
        --browse swissprot:P12345

Each positional argument names one source as ``name=format:path``; the
five-step pipeline runs in order. Optional flags exercise the three
access modes on the integrated warehouse (Section 4.6).

Integration happens once; ``save`` persists the integrated state to a
snapshot file and ``open`` warm-starts from one without re-importing::

    python -m repro save warehouse.snapshot swissprot=flatfile:sp.dat
    python -m repro open warehouse.snapshot --search "kinase"

Writers hold an advisory sidecar lock (``<snapshot>.lock``); a second
process opens read-only (``--read-only``), waits (``--lock-timeout``),
or breaks a dead holder's lock (``--force-lock``). ``compact`` reclaims
the space that per-source checkpoints leave behind::

    python -m repro compact warehouse.snapshot

Opens are lazy by default — only the manifest is read up front and each
source's rows fault in on first touch (``--eager`` faults every source
in at open). ``stats`` opens lazily read-only and reports what a query
actually faulted in::

    python -m repro stats warehouse.snapshot --search "kinase"

``metrics`` dumps the full telemetry snapshot of one read-only session —
every counter, gauge, and duration histogram, plus (``--events``) the
lifecycle event log, or (``--prometheus``) the whole registry in
Prometheus text exposition format::

    python -m repro metrics warehouse.snapshot --search "kinase" --events
    python -m repro metrics warehouse.snapshot --search "kinase" --prometheus

``trace`` renders the session's hierarchical span trees — one tree per
top-level operation, per-task spans under their fan-out — with ``--slow SECONDS`` keeping only the slow offenders (plus their
ancestor chains)::

    python -m repro trace warehouse.snapshot --search "kinase" --slow 0.5
"""

from __future__ import annotations

import argparse
import asyncio
import io
import os
import signal
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core import Aladin, AladinConfig
from repro.dataimport import registry
from repro.obs import render_spans
from repro.persist import SnapshotError, SnapshotStore
from repro.persist.codec import canonical_json, display_json


def _parse_source(spec: str) -> Tuple[str, str, str]:
    if "=" not in spec or ":" not in spec.split("=", 1)[1]:
        raise argparse.ArgumentTypeError(
            f"source must be name=format:path, got {spec!r}"
        )
    name, rest = spec.split("=", 1)
    format_name, path = rest.split(":", 1)
    if format_name.lower() not in registry.formats():
        raise argparse.ArgumentTypeError(
            f"unknown format {format_name!r}; known: {', '.join(registry.formats())}"
        )
    return name, format_name, path


def _add_access_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--search", metavar="QUERY", help="ranked full-text search after integration"
    )
    subparser.add_argument(
        "--sql",
        metavar="SOURCE:STATEMENT",
        help="run one SQL statement against one source's imported schema",
    )
    subparser.add_argument(
        "--browse",
        metavar="SOURCE:ACCESSION",
        help="render one object page with all four link types",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ALADIN: (almost) hands-off integration of life-science sources",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    integrate = subparsers.add_parser(
        "integrate", help="run the five-step pipeline over raw source files"
    )
    integrate.add_argument(
        "sources",
        nargs="+",
        type=_parse_source,
        help="one or more name=format:path source specifications",
    )
    _add_access_flags(integrate)
    integrate.add_argument(
        "--declare-constraints",
        action="store_true",
        help="let importers declare PK/FK constraints (default: guess everything)",
    )
    save = subparsers.add_parser(
        "save", help="integrate raw sources, then persist a snapshot"
    )
    save.add_argument("snapshot", help="path of the snapshot file to write")
    save.add_argument(
        "sources",
        nargs="+",
        type=_parse_source,
        help="one or more name=format:path source specifications",
    )
    _add_access_flags(save)
    save.add_argument(
        "--declare-constraints",
        action="store_true",
        help="let importers declare PK/FK constraints (default: guess everything)",
    )
    open_cmd = subparsers.add_parser(
        "open", help="warm-start from a snapshot (no re-import, no re-analysis)"
    )
    open_cmd.add_argument("snapshot", help="path of the snapshot file to read")
    open_cmd.add_argument(
        "--read-only",
        action="store_true",
        help="open without taking the writer lock; maintenance stays "
        "in memory and never checkpoints to the file",
    )
    open_cmd.add_argument(
        "--lock-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wait this long for another process to release the snapshot's "
        "writer lock before giving up (default: fail fast)",
    )
    open_cmd.add_argument(
        "--force-lock",
        action="store_true",
        help="break an existing writer lock (only when its holder is known "
        "dead; stale same-host locks are detected automatically)",
    )
    open_cmd.add_argument(
        "--eager",
        action="store_true",
        help="fault every source in at open (default: read the manifest "
        "only and fault each source in on first touch)",
    )
    _add_access_flags(open_cmd)
    stats_cmd = subparsers.add_parser(
        "stats",
        help="open a snapshot lazily (read-only), optionally exercise the "
        "access modes, and report hydration + pushdown counters",
    )
    stats_cmd.add_argument("snapshot", help="path of the snapshot file to read")
    _add_access_flags(stats_cmd)
    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="open a snapshot read-only, optionally exercise the access "
        "modes, and dump the session's telemetry snapshot as JSON",
    )
    metrics_cmd.add_argument("snapshot", help="path of the snapshot file to read")
    _add_access_flags(metrics_cmd)
    metrics_cmd.add_argument(
        "--events",
        action="store_true",
        help="append the lifecycle event log (one JSON object per line) "
        "after the metrics snapshot",
    )
    metrics_cmd.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="also write the JSON-lines telemetry export (every event "
        "eagerly, the final metrics snapshot on close) to FILE",
    )
    metrics_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="print the registry in Prometheus text exposition format "
        "instead of JSON (counters as _total, histograms as summaries "
        "with p50/p95/p99 quantiles)",
    )
    trace_cmd = subparsers.add_parser(
        "trace",
        help="open a snapshot read-only, optionally exercise the access "
        "modes, and render the session's span trees (one tree per "
        "operation)",
    )
    trace_cmd.add_argument("snapshot", help="path of the snapshot file to read")
    _add_access_flags(trace_cmd)
    trace_cmd.add_argument(
        "--slow",
        type=float,
        default=None,
        metavar="SECONDS",
        help="only show spans at least this slow (backed by the bounded "
        "slow-span log, so tail offenders survive ring eviction; the "
        "ancestor chain of a slow span is kept for context)",
    )
    compact = subparsers.add_parser(
        "compact",
        help="rewrite a snapshot's live content into a fresh file, "
        "reclaiming checkpoint churn (content hashes re-verified before "
        "the atomic swap)",
    )
    compact.add_argument("snapshot", help="path of the snapshot file to compact")
    compact.add_argument(
        "--lock-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wait this long for the snapshot's writer lock "
        "(default: fail fast)",
    )
    compact.add_argument(
        "--force-lock",
        action="store_true",
        help="break an existing writer lock (only when its holder is known dead)",
    )
    serve_cmd = subparsers.add_parser(
        "serve",
        help="serve search/browse/crawl/walk over HTTP from a snapshot "
        "(read-only lazy open; keeps serving while a writer checkpoints)",
    )
    serve_cmd.add_argument("snapshot", help="path of the snapshot file to serve")
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral port (default: 8080)",
    )
    serve_cmd.add_argument(
        "--max-concurrency",
        type=int,
        default=64,
        metavar="N",
        help="cache-missing queries handed to the one-thread query pool "
        "at once: one runs, the rest wait in its queue (default: 64)",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="admitted requests before the accept path answers 503 "
        "(default: 1024)",
    )
    serve_cmd.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        metavar="N",
        help="bounded per-query result cache size; 0 disables caching "
        "(default: 1024)",
    )
    serve_cmd.add_argument(
        "--refresh-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often the snapshot's content fingerprint is re-read to "
        "notice a writer's checkpoint (default: 0.5)",
    )
    serve_cmd.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests (default: 10)",
    )
    lint_cmd = subparsers.add_parser(
        "lint",
        help="run the project's static-analysis battery (layering, "
        "lock-order, fork-safety, determinism, canonical-JSON, obs-seam, "
        "broad-except) over the source tree",
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: the installed "
        "repro package source)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="findings as human-readable text or one JSON document "
        "(default: text)",
    )
    lint_cmd.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: ./analysis-baseline.json when present)",
    )
    lint_cmd.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding counts",
    )
    lint_cmd.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file (each entry "
        "gets a placeholder justification to replace) and exit 0",
    )
    lint_cmd.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined findings in text output",
    )
    formats = subparsers.add_parser("formats", help="list registered import formats")
    del formats  # no extra arguments
    return parser


def _hydration_line(stats: dict) -> str:
    """One-line hydration report, e.g. for ``repro stats``."""
    hydrated = stats["hydrated"]
    names = ", ".join(hydrated) if hydrated else "none"
    decoded = stats["decoded"]
    decoded_names = ", ".join(decoded) if decoded else "none"
    resident = stats["resident_bytes"]
    resident_text = "untracked" if resident is None else f"~{resident} bytes"
    return (
        f"hydration: {len(hydrated)}/{stats['sources']} sources hydrated "
        f"({names}); {len(decoded)}/{stats['sources']} sources decoded "
        f"({decoded_names}); resident {resident_text}; "
        f"pushdown hits {stats['pushdown_hits']}; "
        f"link lookups {stats['link_lookups']}; "
        f"links {'loaded' if stats['links_loaded'] else 'deferred'}; "
        f"index {'rebuilt at open' if stats['index_rebuilt'] else 'from snapshot'}"
    )


def _telemetry_line(aladin: Aladin) -> str:
    """One-line telemetry summary, e.g. for ``repro stats``."""
    if not aladin.obs.enabled:
        return "telemetry: disabled (REPRO_OBS=0)"
    snapshot = aladin.metrics()
    events = len(aladin.obs.events.history())
    fanouts = snapshot["counters"].get("pool.fanouts", 0)
    series = len(snapshot["histograms"])
    return (
        f"telemetry: {events} lifecycle events; {fanouts} pool fan-outs; "
        f"{series} timing series (`repro metrics` for the full dump)"
    )


def _run_access_modes(aladin: Aladin, args, out) -> int:
    """Exercise the three access modes requested by the shared flags."""
    if args.search:
        print(file=out)
        print(f"search {args.search!r}:", file=out)
        for hit in aladin.search_engine().search(args.search, top_k=10):
            print(f"  {hit.score:8.2f}  {hit.source}/{hit.accession}", file=out)
    if args.sql:
        if ":" not in args.sql:
            print("error: --sql expects SOURCE:STATEMENT", file=out)
            return 2
        source, statement = args.sql.split(":", 1)
        result = aladin.query_engine().sql(source, statement)
        print(file=out)
        print("  ".join(result.columns), file=out)
        for row in result.rows:
            print("  ".join(str(row[c]) for c in result.columns), file=out)
    if args.browse:
        if ":" not in args.browse:
            print("error: --browse expects SOURCE:ACCESSION", file=out)
            return 2
        source, accession = args.browse.split(":", 1)
        try:
            view = aladin.browser().visit(source, accession)
        except KeyError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(file=out)
        print(view.render(), file=out)
    return 0


def _integrate_sources(aladin: Aladin, sources, out) -> int:
    for name, format_name, path in sources:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=out)
            return 2
        report = aladin.add_source(name, format_name, text)
        print(report.render(), file=out)
        print(file=out)
    return 0


def _run_serve(args, out) -> int:
    from repro.serve import AsyncQueryService, ServeConfig

    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
        cache_entries=args.cache_entries,
        refresh_interval=args.refresh_interval,
        drain_deadline=args.drain_deadline,
    )
    aladin_config = AladinConfig()

    async def serve_main() -> int:
        service = AsyncQueryService(
            args.snapshot, config=serve_config, aladin_config=aladin_config
        )
        try:
            await service.start()
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        host, port = service.address
        print(
            f"serving {args.snapshot} on http://{host}:{port} "
            "(/search /browse /crawl /walk /healthz /statz)",
            file=out,
        )
        out.flush()
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        await stop_requested.wait()
        drained = await service.stop()
        print(
            f"stopped: {service.requests_served} served, "
            f"{service.requests_rejected} rejected, "
            f"{service.generation_swaps} generation swaps, "
            f"drain {'clean' if drained else 'timed out'}",
            file=out,
        )
        return 0 if drained else 1

    try:
        return asyncio.run(serve_main())
    except KeyboardInterrupt:  # signal handler unavailable: plain ctrl-C
        return 0


def _run_lint(args, out) -> int:
    from repro.analysis import AnalysisEngine, Baseline, BaselineError
    from repro.analysis.baseline import DEFAULT_BASELINE
    from repro.analysis.checkers import build_checkers

    paths = list(args.paths)
    if not paths:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    baseline_path = args.baseline or (
        DEFAULT_BASELINE if os.path.exists(DEFAULT_BASELINE) else None
    )
    baseline = Baseline()
    if baseline_path and not args.no_baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=out)
            return 2
    engine = AnalysisEngine(build_checkers(), baseline=baseline)
    report = engine.run(paths)
    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE
        fresh = Baseline()
        for finding in report.findings:
            fresh.add(
                finding,
                "(added by repro lint --write-baseline; replace with a "
                "real justification)",
            )
        fresh.save(target)
        print(
            f"baseline written: {target} ({len(report.findings)} entr(ies))",
            file=out,
        )
        return 0
    if args.output_format == "json":
        print(display_json(report.to_dict()), file=out)
    else:
        print(report.render(verbose=args.verbose), file=out)
        for fingerprint in report.stale_baseline:
            print(
                f"stale baseline entry {fingerprint}: matched no finding "
                "(remove it or re-run --write-baseline)",
                file=out,
            )
    return 0 if report.clean else 1


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args, out)
    if args.command == "serve":
        return _run_serve(args, out)
    if args.command == "formats":
        for format_name in registry.formats():
            print(format_name, file=out)
        return 0
    if args.command == "compact":
        store = SnapshotStore(args.snapshot)
        try:
            store.attach_writer(
                timeout=args.lock_timeout or 0.0, force=args.force_lock
            )
            try:
                stats = store.compact()
            finally:
                store.detach_writer()
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(f"{args.snapshot}: {stats.render()}", file=out)
        return 0
    if args.command == "stats":
        try:
            aladin = Aladin.open(args.snapshot, read_only=True, lazy=True)
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        try:
            print(f"warehouse (read-only): {aladin.summary()}", file=out)
            code = _run_access_modes(aladin, args, out)
            print(file=out)
            print(_hydration_line(aladin.hydration_stats()), file=out)
            print(_telemetry_line(aladin), file=out)
        finally:
            aladin.close()
        return code
    if args.command == "metrics":
        config = AladinConfig()
        # The whole point of the command is telemetry, so enablement is
        # forced on even under REPRO_OBS=0.
        config.observability.enabled = True
        if args.export:
            config.observability.export_path = args.export
        try:
            aladin = Aladin.open(args.snapshot, config=config, read_only=True, lazy=True)
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        try:
            # Under --prometheus the exposition must be the *only*
            # output (scrapers read stdout), so the access modes run
            # against a discarded stream.
            access_out = io.StringIO() if args.prometheus else out
            code = _run_access_modes(aladin, args, access_out)
            if args.prometheus:
                print(aladin.obs.metrics.render_prometheus(), end="", file=out)
            else:
                print(display_json(aladin.metrics()), file=out)
            if args.events:
                for event in aladin.obs.events.history():
                    print(canonical_json(event.to_dict()), file=out)
        finally:
            aladin.close()  # flushes the --export sink's final metrics line
        return code
    if args.command == "trace":
        config = AladinConfig()
        # Like `metrics`: the whole point is telemetry, so enablement is
        # forced on even under REPRO_OBS=0 — and the slow-span log's
        # threshold tracks the filter the user asked for.
        config.observability.enabled = True
        if args.slow is not None:
            config.observability.slow_span_seconds = args.slow
        try:
            aladin = Aladin.open(args.snapshot, config=config, read_only=True, lazy=True)
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        try:
            code = _run_access_modes(aladin, args, out)
            spans = aladin.obs.trace.spans()
            if args.slow is not None:
                # Ring-evicted slow spans still render, from the slow log.
                seen = {span.span_id for span in spans}
                spans += [
                    span
                    for span in aladin.obs.trace.slow_spans(args.slow)
                    if span.span_id not in seen
                ]
            rendered = render_spans(spans, slow_threshold=args.slow)
            print(file=out)
            print(rendered if rendered else "no spans recorded", file=out)
        finally:
            aladin.close()
        return code
    if args.command == "open":
        try:
            aladin = Aladin.open(
                args.snapshot,
                read_only=args.read_only,
                lock_timeout=args.lock_timeout,
                force_lock=args.force_lock,
                lazy=not args.eager,
            )
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        mode = "read-only" if aladin.read_only else "warm-start"
        print(f"warehouse ({mode}): {aladin.summary()}", file=out)
        try:
            return _run_access_modes(aladin, args, out)
        finally:
            # Releases the writer lock and flushes any telemetry export.
            aladin.close()
    config = AladinConfig()
    config.declare_constraints = args.declare_constraints
    aladin = Aladin(config)
    code = _integrate_sources(aladin, args.sources, out)
    if code:
        return code
    print(f"warehouse: {aladin.summary()}", file=out)
    if args.command == "save":
        try:
            aladin.save(args.snapshot)
        except SnapshotError as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(f"snapshot written: {args.snapshot}", file=out)
    try:
        return _run_access_modes(aladin, args, out)
    finally:
        # Releases any writer lock and flushes any telemetry export.
        aladin.close()


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The consumer of a pipeline stopped reading (`repro trace ... |
        # head`): that is the default SIGPIPE outcome, not an error.
        # Point stdout at devnull so the interpreter's final implicit
        # flush cannot raise again, and exit 0 like any well-behaved
        # filter.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
