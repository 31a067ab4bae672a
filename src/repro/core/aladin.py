"""The ALADIN integration system (Figure 1 / Figure 2).

``add_source`` runs the five steps of Section 3 for one new source:

1. data import — a registered parser shreds the raw text into relations;
2. discovery of primary objects and 3. secondary objects — per-source,
   no other source touched (cheap incremental addition);
4. link discovery — the new source against all previously added sources,
   reusing their cached statistics;
5. duplicate detection — the new source's primary objects against every
   existing source's primary objects; duplicates are flagged links.

Everything discovered lands in the metadata repository; browsing,
searching, and querying run on top of it.

There is one integration path. ``add_source``, ``add_database`` and
``integrate_many`` all hand an ordered list of sources to
:meth:`Aladin._integrate`: it checks every name, imports every source,
then runs each source in turn through one task graph on the execution
subsystem (:mod:`repro.exec`): structure discovery → registration →
{link fan-out, duplicate fan-out, index update} → checkpoint. A batch of
N sources therefore builds exactly what N ``add_source`` calls build,
and a failing call of any size unwinds every source it started.

Duplicate detection scores each new source's chunk of counterparts on
one *session-wide* :class:`~repro.duplicates.batch.BoundedRecordScorer`
whose value-pair cache persists across calls, and reads each source's
duplicate features (record views, n-gram index) from one per-system map,
so every source's features are built once, not once per chunk.
"""

from __future__ import annotations

import time
import warnings
import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.access.browser import Browser
from repro.access.crawler import Crawler
from repro.access.index import DocumentDelta, InvertedIndex
from repro.access.objects import ObjectPage, ObjectWeb
from repro.access.queries import QueryEngine
from repro.access.ranking import PathRanker
from repro.access.search import SearchEngine
from repro.core.config import AladinConfig, config_from_dict
from repro.core.report import IntegrationReport, StepTiming
from repro.dataimport.base import ImportResult
from repro.dataimport import registry
from repro.discovery.pipeline import discover_structure
from repro.duplicates.batch import BoundedRecordScorer
from repro.duplicates.detector import DuplicateConfig, DuplicateDetector, FeatureMap
from repro.exec.graph import TaskGraph
from repro.exec.pool import Executor
# _pair_task is unused here: benchmarks/harness/layers.py wraps it by this name.
from repro.linking.engine import LinkDiscoveryEngine, _pair_task
from repro.linking.model import ObjectLink
from repro.linking.stats import collect_profiles
from repro.metadata.repository import MetadataRepository
from repro.obs import Observability
from repro.obs.events import (
    CHECKPOINT_COMMITTED,
    COMPACTION_RAN,
    SNAPSHOT_OPENED,
    SOURCE_ADDED,
    SOURCE_REMOVED,
    SOURCE_UPDATED,
)
from repro.persist.lazy import LazyInvertedIndex, LazySnapshotSession
from repro.persist.lock import SnapshotLockedError
from repro.persist.snapshot import CompactionStats, SnapshotError, SnapshotStore
from repro.relational.database import Database

#: A source to integrate: ``(name, format_name, text, import_options)``
#: raw text, or a prebuilt database.
SourceSpec = Union[Tuple[str, str, str, Dict[str, Any]], Database]


def _import_task(declare_constraints: bool, spec: Tuple) -> ImportResult:
    """Step 1 for one source: a registered parser shreds the raw text."""
    name, format_name, text, options = spec
    importer = registry.create(
        format_name, name, declare_constraints=declare_constraints
    )
    for key, value in options.items():
        setattr(importer, key, value)
    return importer.import_text(text)


def _run_dup_chunk(
    state: Tuple[LinkDiscoveryEngine, BoundedRecordScorer, FeatureMap],
    spec: Tuple[str, Tuple[str, ...], DuplicateConfig],
) -> List[List[ObjectLink]]:
    """Step 5 for one new source against an ordered list of counterparts.

    The duplicate fan-out's task body. Every pair of the chunk is scored
    on the system's session :class:`BoundedRecordScorer` (value-pair
    cache, exact best-match pruning and the threshold cut), whose cache
    survives across calls, so the Nth addition reuses every similarity
    the first N-1 already paid for. Every source's record views and
    n-gram index come from ``features``, the system's map, built there
    once per source.
    """
    engine, scorer, features = state
    name, others, config = spec
    detector = DuplicateDetector(config, scorer=scorer, features=features)
    return detector.detect_chunk(
        engine.database_for(name),
        engine.structure_for(name),
        [(engine.database_for(other), engine.structure_for(other)) for other in others],
    )


class Aladin:
    """Almost automatic data integration."""

    def __init__(self, config: Optional[AladinConfig] = None):
        self.config = config or AladinConfig()
        # Telemetry first: every other subsystem this constructor builds
        # gets handed the (possibly null) registry/bus handles.
        self.obs = Observability(self.config.observability)
        self.repository = MetadataRepository()
        self.web = ObjectWeb(self.repository)
        self._executor = Executor()
        # Telemetry handles: None when disabled, so the fan-out wrapper
        # short-circuits at one identity check.
        self._executor.metrics = self.obs.metrics_or_none
        self._executor.tracer = self.obs.trace_or_none
        self._engine = LinkDiscoveryEngine(
            config=self.config.linking,
            channels=self.config.channels,
            executor=self._executor,
        )
        self._databases: Dict[str, Database] = {}
        self._raw_inputs: Dict[str, tuple] = {}  # name -> (format, text, options)
        # Every source is indexed as it is integrated (the index_update
        # graph node), so the index always covers every source.
        self._index = InvertedIndex()
        self._store: Optional[SnapshotStore] = None
        self._lazy: Optional[LazySnapshotSession] = None  # set by lazy opens
        self.read_only = False  # True on a lock-degraded read-only open
        # The maintenance session's duplicate scorer: one value-pair cache
        # shared by every incremental add_source of this system's
        # lifetime — LRU-bounded (config.scorer_cache_entries) so a
        # week-long maintenance session holds steady memory.
        self._dup_scorer = BoundedRecordScorer(
            max_entries=self.config.scorer_cache_entries
        )
        # Each source's duplicate features (record views, n-gram index),
        # built once and read by every later duplicate chunk. Keyed by
        # the source's Database object, weakly: an update swap, a removal
        # or a re-add brings a new object, so no entry can go stale.
        self._dup_features: FeatureMap = weakref.WeakKeyDictionary()
        self.reports: List[IntegrationReport] = []
        if self.obs.enabled:
            self._register_gauges()

    @property
    def executor(self) -> Executor:
        return self._executor

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        """Registry views over the pre-existing ad-hoc counters.

        Provider gauges resolve at snapshot time from the live objects,
        so ``Database.column_cache_stats()``, :meth:`hydration_stats`,
        and the session scorer's counters stay the single source of
        truth — the registry adds no double bookkeeping, and the old
        methods keep working unchanged as thin views of the same data.
        """
        reg = self.obs.metrics

        def column_totals() -> Dict[str, int]:
            totals = {"hits": 0, "misses": 0, "pushdown_hits": 0}
            for database in list(self._databases.values()):
                stats = database.column_cache_stats()
                for key in totals:
                    totals[key] += stats.get(key, 0)
            return totals

        reg.gauge("column_cache.hits", provider=lambda: column_totals()["hits"])
        reg.gauge("column_cache.misses", provider=lambda: column_totals()["misses"])
        reg.gauge(
            "column_cache.pushdown_hits",
            provider=lambda: column_totals()["pushdown_hits"],
        )
        reg.gauge("scorer.exact_scores", provider=lambda: self._dup_scorer.exact_scores)
        reg.gauge("scorer.pruned", provider=lambda: self._dup_scorer.pruned)
        reg.gauge(
            "scorer.early_exits", provider=lambda: self._dup_scorer.early_exits
        )
        reg.gauge("scorer.cache_hits", provider=lambda: self._dup_scorer.cache_hits)
        reg.gauge("scorer.evictions", provider=lambda: self._dup_scorer.evictions)
        reg.gauge(
            "hydration.sources",
            provider=lambda: self.hydration_stats()["sources"],
        )
        reg.gauge(
            "hydration.hydrated_sources",
            provider=lambda: len(self.hydration_stats()["hydrated"]),
        )
        reg.gauge(
            "hydration.resident_bytes",
            provider=lambda: self.hydration_stats()["resident_bytes"] or 0,
        )
        reg.gauge(
            "hydration.pushdown_hits",
            provider=lambda: self.hydration_stats()["pushdown_hits"],
        )

    def metrics(self) -> Dict[str, Any]:
        """One structured snapshot of every counter, gauge, and histogram.

        ``{"counters": ..., "gauges": ..., "histograms": ...}`` — stage
        durations (``stage.*``), graph node timings (``graph.*``), fan-out
        counts and timings (``pool.*``), persistence latencies
        (``persist.*``), and cache/scorer/hydration views. Empty when
        observability is disabled. JSON-safe; the README documents the
        catalog.
        """
        return self.obs.metrics.snapshot()

    def traces(self) -> List[Dict[str, Any]]:
        """The retained span trees, one entry per top-level operation.

        ``[{"trace_id": ..., "root": op-name, "spans": [span dicts]}]``
        in operation order — every ``add_source``/``integrate_many``/
        ``open``/search/checkpoint of this session as a connected tree
        of ``graph.*``/``fanout.*``/``task`` spans.  Empty when
        observability is disabled.  ``repro trace`` renders this via
        :func:`repro.obs.trace.render_spans`.
        """
        return self.obs.trace.traces()

    def _record_report(self, report: IntegrationReport) -> None:
        """Fold one integration report's step timings into the registry."""
        metrics = self.obs.metrics_or_none
        if metrics is None:
            return
        for step in report.steps:
            metrics.histogram(f"stage.{step.step}").observe(step.seconds)

    def _finish_integration(self, report: IntegrationReport) -> None:
        """Telemetry tail of one integrated source, once its call succeeded."""
        self._record_report(report)
        self.obs.events.emit(
            SOURCE_ADDED,
            source=report.source_name,
            links=report.step("link_discovery").counts["object_links"],
            duplicates=report.step("duplicate_detection").counts[
                "duplicates_flagged"
            ],
            seconds=report.total_seconds,
        )

    # ------------------------------------------------------------------
    # the five-step pipeline
    # ------------------------------------------------------------------
    def add_source(
        self, name: str, format_name: str, text: str, **import_options
    ) -> IntegrationReport:
        """Integrate one new source from raw text (steps 1-5).

        Atomic: a name already integrated raises ``ValueError`` before
        anything changes, and a failure leaves the system as before.
        """
        with self.obs.trace.span("op.add_source", source=name, format=format_name):
            return self._integrate([(name, format_name, text, import_options)])[0]

    def add_database(self, database: Database) -> IntegrationReport:
        """Integrate a source already available as a relational database."""
        with self.obs.trace.span("op.add_database", source=database.name):
            return self._integrate([database])[0]

    def integrate_many(self, sources: Iterable[Tuple]) -> List[IntegrationReport]:
        """Integrate a batch of sources, in order, all or nothing.

        ``sources`` is an iterable of ``(name, format_name, text)`` or
        ``(name, format_name, text, import_options)`` tuples. Each source
        runs through the same per-source pipeline as :meth:`add_source`,
        so the repository, object web, and index are byte-identical to
        calling :meth:`add_source` once per tuple in the same order, and
        each report's step seconds are its ``graph.*`` span durations.

        The batch is atomic: duplicate or already-integrated names raise
        ``ValueError`` before anything changes, and if any source fails,
        every source of the batch is unwound before the error propagates,
        so the system is left exactly as before the call and the batch
        can be retried.
        """
        specs = []
        for item in sources:
            name, format_name, text, *options = item
            specs.append((name, format_name, text, dict(*options)))
        with self.obs.trace.span("op.integrate_many", sources=len(specs)):
            return self._integrate(specs)

    def _integrate(self, sources: List[SourceSpec]) -> List[IntegrationReport]:
        """The one integration path: ``sources`` in order, all or nothing.

        Every name is checked before any state changes, every source is
        imported (step 1), then each runs in order through the
        per-source task graph (steps 2-5). If anything raises, every
        source the call started is unwound, newest first — a
        half-registered one and its written snapshot slice included — and
        the error propagates. ``source.added`` and the ``stage.*``
        observations follow only once the whole call has succeeded.
        """
        self._fault_all_sources()
        names = [
            source.name if isinstance(source, Database) else source[0]
            for source in sources
        ]
        if len(set(names)) != len(names):
            raise ValueError("integrate_many got duplicate source names")
        for name in names:
            if self.repository.has_source(name):
                raise ValueError(f"source {name!r} already integrated")
        imported = [self._import(source) for source in sources]
        started: List[str] = []
        try:
            for database, report, raw in imported:
                started.append(database.name)
                if raw is not None:
                    self._raw_inputs[database.name] = raw
                self._integrate_database(database, report)
        except BaseException:
            # Each cleanup is independent and swallows its own errors, so
            # the original failure propagates and the system (and an
            # attached snapshot, unless the store itself is what failed)
            # is left as before the call, retryable as-is.
            for name in reversed(started):
                self._unregister_source_state(name)
            raise
        reports = [report for _database, report, _raw in imported]
        self.reports.extend(reports)
        for report in reports:
            self._finish_integration(report)
        return reports

    def _import(
        self, source: SourceSpec
    ) -> Tuple[Database, IntegrationReport, Optional[Tuple]]:
        """Step 1 for one source: its database, its report, its raw input.

        A prebuilt database imports nothing: its import step reads 0.0 s
        and it has no raw input.
        """
        if isinstance(source, Database):
            report = IntegrationReport(source_name=source.name)
            counts = {
                "tables": len(source.table_names()),
                "records": source.total_rows(),
            }
            report.steps.append(StepTiming("import", 0.0, counts))
            return source, report, None
        name, format_name, text, options = source
        report = IntegrationReport(source_name=name)
        started = time.perf_counter()
        result = _import_task(self.config.declare_constraints, source)
        report.warnings.extend(result.warnings)
        report.steps.append(
            StepTiming(
                "import",
                time.perf_counter() - started,
                {"tables": result.tables_created, "records": result.records_read},
            )
        )
        return result.database, report, (format_name, text, options)

    def _register_source_state(self, database: Database, structure) -> None:
        """Install one discovered source into every shared structure.

        Statistics are computed once here and reused for every later
        source addition (Section 4.4); the repository additionally keeps
        the storage-level ColumnProfile objects, so no later step
        re-derives per-column aggregates from raw rows.
        """
        statistics = self._engine.register_source(database, structure)
        samples, row_counts = self._data_snapshot(database)
        self.repository.register_source(
            structure, statistics, samples, row_counts,
            profiles=collect_profiles(database),
        )
        self._databases[database.name] = database
        self.web.attach_database(database.name, database)

    def _unregister_source_state(self, name: str) -> None:
        """Best-effort unwind of one (possibly partially) registered source.

        Used by the failure path of :meth:`_integrate`: each subsystem is
        scrubbed independently and cleanup errors are swallowed so the
        *original* failure propagates and the unwind always reaches every
        source.

        State is unwound; counters are not. ``registrations``,
        ``comparisons_made`` and the ``scorer.*`` counters count work
        performed, the unwound work included, and the session scorer's
        value-pair cache, a pure accelerator, stays warm for the retry.
        """
        for cleanup in (
            lambda: self.repository.has_source(name)
            and self.repository.remove_source(name),
            lambda: name in self._engine.source_names()
            and self._engine.deregister_source(name),
            lambda: self._databases.pop(name, None),
            lambda: self._raw_inputs.pop(name, None),
            lambda: self.web.detach_database(name),
            lambda: self._index.remove_source(name),
            lambda: self._store is not None and self._store.checkpoint_remove(name),
        ):
            try:
                cleanup()
            except Exception:  # noqa: BLE001 - the original error must win
                continue

    @staticmethod
    def _describe_structure(report: IntegrationReport, structure, seconds: float) -> None:
        """The discover-step report entry."""
        report.primary_relation = structure.primary_relation
        report.steps.append(
            StepTiming(
                "discover_structure",
                seconds,
                {
                    "unique_attributes": len(structure.unique_attributes),
                    "accession_candidates": len(structure.accession_candidates),
                    "relationships": len(structure.relationships),
                    "paths": sum(len(p) for p in structure.secondary_paths.values()),
                },
            )
        )
        if structure.primary_relation is None:
            report.warnings.append(
                f"no primary relation found for {report.source_name!r}; objects "
                "of this source cannot anchor links"
            )

    def _data_snapshot(self, database: Database):
        """(sample rows, row counts) stored alongside a source's record."""
        samples = {
            table: [database.table(table).row_at(i)
                    for i in range(min(self.config.sample_rows_per_table,
                                       len(database.table(table))))]
            for table in database.table_names()
        }
        row_counts = {t: len(database.table(t)) for t in database.table_names()}
        return samples, row_counts

    def _integrate_database(self, database: Database, report: IntegrationReport) -> None:
        """Steps 2-5 for one imported source, as a task graph.

        Stage order (and therefore every repository write) is fixed by the
        dependency edges; the two fan-outs (pair scans, the duplicate
        chunk) run through the executor. The report's steps read the
        graph-node spans' durations.
        """
        name = database.name
        graph = TaskGraph()

        def run_discover(_results):
            # Steps 2+3: primary and secondary discovery (single
            # processing step, Section 3); per-source, nothing else read.
            return discover_structure(database, self.config.discovery)

        def run_register(results):
            self._register_source_state(database, results["discover_structure"])

        def run_links(_results):
            # Step 4: link discovery against all existing sources, one
            # fan-out in fixed pair order.
            return self._engine.discover_for(name)

        def run_store_links(results):
            links = results["link_discovery"]
            for attribute_link in links.attribute_links:
                self.repository.add_attribute_link(attribute_link)
            return self.repository.add_object_links(links.object_links)

        def run_duplicates(_results):
            # Step 5: duplicate detection against every existing source,
            # one chunk on the session scorer.
            return self._detect_duplicates_for(name)

        def run_store_duplicates(results):
            return sum(
                self.repository.add_object_links(links)
                for links in results["duplicate_detection"]
            )

        def run_index(_results):
            # Incremental index maintenance: existing pages are untouched
            # by a new source (links live in the repository, not in page
            # text), so only the new source's pages are crawled/indexed.
            self._index_add_source(name)

        def run_checkpoint(_results):
            self._checkpoint(name)

        graph.add("discover_structure", run_discover)
        graph.add("register", run_register, deps=("discover_structure",))
        graph.add("link_discovery", run_links, deps=("register",))
        graph.add("store_links", run_store_links, deps=("link_discovery",))
        graph.add("duplicate_detection", run_duplicates, deps=("register",))
        # Duplicates land after the discovered links.
        graph.add(
            "store_duplicates",
            run_store_duplicates,
            deps=("store_links", "duplicate_detection"),
        )
        graph.add("index_update", run_index, deps=("register",))
        graph.add(
            "checkpoint", run_checkpoint, deps=("store_duplicates", "index_update")
        )
        results = graph.run(
            metrics=self.obs.metrics_or_none,
            tracer=self.obs.trace_or_none,
        )

        seconds = graph.seconds
        self._describe_structure(
            report, results["discover_structure"], seconds["discover_structure"]
        )
        report.steps.append(
            StepTiming(
                "link_discovery",
                seconds["link_discovery"],
                {
                    "attribute_links": len(results["link_discovery"].attribute_links),
                    "object_links": results["store_links"],
                },
            )
        )
        report.steps.append(
            StepTiming(
                "duplicate_detection",
                seconds["duplicate_detection"],
                {"duplicates_flagged": results["store_duplicates"]},
            )
        )

    def _detect_duplicates_for(self, name: str) -> List[List[ObjectLink]]:
        """Step 5 for one new source against every existing source.

        Returns one link list per counterpart in repository order; the
        caller stores them in that order. The whole counterpart chunk is
        scored on the session-wide :class:`BoundedRecordScorer`, so the
        Nth addition does bounded work instead of re-scoring every
        candidate pair from scratch.
        """
        if not self.config.detect_duplicates:
            return []
        others = [o for o in self.repository.source_names() if o != name]
        if not others:
            return []
        spec = (name, tuple(others), self.config.duplicates)
        return self._executor.map_ordered(
            _run_dup_chunk,
            [spec],
            state=(self._engine, self._dup_scorer, self._dup_features),
            labels=[f"duplicates:{name}"],
        )[0]

    # ------------------------------------------------------------------
    # data changes and feedback (Section 6.2)
    # ------------------------------------------------------------------
    def update_source(self, name: str, text: str) -> Optional[IntegrationReport]:
        """Re-import a changed source; re-analyze only past the threshold.

        "In principle, all links must be recomputed even if only a small
        fraction of the data ... changes. This re-computation is clearly
        infeasible. We envisage a threshold on the number of changes."
        Below the threshold the data is swapped in place and existing
        links are kept; above it the source is dropped and re-integrated.

        A below-threshold update swaps in the re-import's tables whole,
        whatever changed. Ordering rule: every table then holds exactly
        the re-import's rows in the re-import's order, so a row id is
        still the row's position. Profiles, statistics, samples, and the
        object web are re-derived from one profile walk; only pages that
        differ are re-indexed, in place (see
        :meth:`~repro.access.index.InvertedIndex.update_source`); the
        checkpoint rewrites the source's tables and only the changed
        documents.
        """
        with self.obs.trace.span("op.update_source", source=name):
            return self._update_source_impl(name, text)

    def _update_source_impl(self, name: str, text: str) -> Optional[IntegrationReport]:
        self._fault_all_sources()
        if name not in self._raw_inputs:
            raise KeyError(f"source {name!r} was not added from raw text")
        format_name, _old_text, options = self._raw_inputs[name]
        new_result = _import_task(
            self.config.declare_constraints, (name, format_name, text, options)
        )
        old_rows = self._databases[name].total_rows()
        new_rows = new_result.database.total_rows()
        change_fraction = abs(new_rows - old_rows) / max(old_rows, 1)
        if change_fraction <= self.config.reanalysis_change_threshold:
            # Swap data, keep structure and links (documented approximation).
            self._raw_inputs[name] = (format_name, text, options)
            documents = self._swap_data(name, new_result.database)
            if self._store is not None:
                self._commit_checkpoint(
                    name,
                    "write",
                    lambda: self._store.checkpoint_source(self, name, documents),
                )
            self.obs.events.emit(
                SOURCE_UPDATED,
                source=name,
                change_fraction=change_fraction,
                reanalyzed=False,
            )
            return None
        self.remove_source(name)
        report = self.add_source(name, format_name, text, **options)
        self.obs.events.emit(
            SOURCE_UPDATED,
            source=name,
            change_fraction=change_fraction,
            reanalyzed=True,
        )
        return report

    def _swap_data(self, name: str, fresh: Database) -> DocumentDelta:
        """Swap ``fresh`` in as the source's data; return the index delta.

        Everything but the search index is re-derived whatever changed,
        so an update costs about the same for one changed row as for
        all of them: the engine's statistics and the repository's
        profiles, samples, and row counts come from one profile walk of
        ``fresh``, and the object web re-attaches. The index re-tokenizes
        only the pages that differ between a crawl before and after the
        swap.
        """
        old_pages = self._crawl_source(name)
        self._databases[name] = fresh
        self.web.attach_database(name, fresh)
        profiles = collect_profiles(fresh)
        statistics = self._engine.refresh_source(fresh, profiles)
        samples, row_counts = self._data_snapshot(fresh)
        self.repository.refresh_source_data(
            name,
            statistics=statistics,
            sample_rows=samples,
            row_counts=row_counts,
            profiles=profiles,
        )
        return self._index.update_source(name, old_pages, self._crawl_source(name))

    def remove_source(self, name: str) -> None:
        """Drop one source incrementally: nothing else is re-analyzed.

        The engine deregisters the source (surviving sources keep their
        cached statistics), the object web detaches it, and the search
        index drops its documents in place — no re-registration, no
        re-crawl of surviving sources.
        """
        with self.obs.trace.span("op.remove_source", source=name):
            self._remove_source_impl(name)

    def _remove_source_impl(self, name: str) -> None:
        self._fault_all_sources()
        self.repository.remove_source(name)
        if self._lazy is not None:
            self._lazy.forget(name)
        self._databases.pop(name, None)
        self._raw_inputs.pop(name, None)
        if name in self._engine.source_names():
            self._engine.deregister_source(name)
        self.web.detach_database(name)
        self._index.remove_source(name)
        if self._store is not None:
            self._commit_checkpoint(
                name, "remove", lambda: self._store.checkpoint_remove(name)
            )
        self.obs.events.emit(SOURCE_REMOVED, source=name)

    def remove_link(self, link: ObjectLink) -> bool:
        """User feedback: delete one wrong link (Section 6.2)."""
        removed = self.repository.remove_object_link(link)
        if removed and self._store is not None:
            self._store.remove_object_link(link)
        return removed

    # ------------------------------------------------------------------
    # access modes
    # ------------------------------------------------------------------
    def browser(self) -> Browser:
        return Browser(self.web, tracer=self.obs.trace_or_none)

    def search_engine(self) -> SearchEngine:
        return SearchEngine(self._index, tracer=self.obs.trace_or_none)

    def _fault_all_sources(self) -> None:
        """Maintenance guard under a lazy open: mutate fully resident state.

        Every mutating entry point calls this first, so link discovery
        sees all sources' statistics and no stub can resurrect stale rows
        after an in-place change. Systems not opened from a snapshot:
        no-op.
        """
        if self._lazy is not None:
            self._lazy.hydrate()
            self._lazy.note_maintenance()

    def release_source(self, name: str) -> bool:
        """Evict one hydrated source back to its stub (snapshot opens only).

        The rows, ColumnStore caches, and engine statistics of ``name``
        are dropped; the next touch faults them back in from the
        snapshot. Bounds resident memory in long-lived read-only
        processes. Returns False if the source was not hydrated; raises
        :class:`SnapshotError` on a system not opened from a snapshot
        (memory is the only copy there) or after maintenance has written.
        """
        if self._lazy is None:
            raise SnapshotError(
                "release_source requires a system opened from a snapshot "
                "(Aladin.open)"
            )
        return self._lazy.release(name)

    def hydration_stats(self) -> Dict[str, Any]:
        """Which sources are resident, their bytes, and pushdown hits.

        ``decoded`` lists the snapshot sources whose metadata (structure,
        profiles, samples) has been decoded so far; ``link_lookups``
        counts per-object link reads answered from the snapshot;
        ``links_loaded`` says whether the whole link web has been
        replayed into memory; ``index_rebuilt`` says whether the open
        had to build the search index because the snapshot carried none
        (a file written before every snapshot carried it).
        """
        if self._lazy is not None:
            return self._lazy.stats()
        return {
            "lazy": False,
            "sources": len(self._databases),
            "hydrated": sorted(self._databases),
            "decoded": [],  # nothing came from a snapshot
            "resident_bytes": None,  # in-memory systems do not meter payloads
            "pushdown_hits": 0,
            "link_lookups": 0,
            "links_loaded": self.repository.links_loaded,
            "index_rebuilt": False,
            "per_source": {
                name: {
                    "hydrated": True,
                    "resident_bytes": 0,
                    "pushdown_hits": 0,
                }
                for name in sorted(self._databases)
            },
        }

    def _index_add_source(self, name: str) -> None:
        """Crawl and index only ``name``'s pages into the existing index."""
        self._index.add_pages(self._crawl_source(name))

    def _crawl_source(self, name: str) -> List[ObjectPage]:
        """Every page of one source, in accession (crawl) order."""
        seeds = [(name, accession) for accession in self.web.accessions(name)]
        return list(Crawler(self.web).crawl(seeds=seeds, follow_links=False))

    # ------------------------------------------------------------------
    # persistence (snapshot save / warm-start open)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize the entire integrated state to a snapshot file.

        The store stays attached afterwards: every later ``add_source`` /
        ``update_source`` / ``remove_source`` checkpoints just that
        source's slice of the snapshot in place, so the file tracks the
        live system without full rewrites.

        Attaching takes the snapshot's advisory writer lock; if another
        *process* holds it, this raises
        :class:`~repro.persist.lock.SnapshotLockedError` (after waiting
        ``persist.lock_timeout`` seconds under the ``"block"`` policy).
        """
        with self.obs.trace.span("op.save", path=str(path)):
            self._fault_all_sources()
            store = SnapshotStore(path)
            store.tracer = self.obs.trace_or_none
            policy = self.config.persist
            timeout = policy.lock_timeout if policy.lock_policy == "block" else 0.0
            store.attach_writer(timeout=timeout)
            try:
                store.write_full(self)
            except BaseException:
                store.detach_writer()
                raise
            if self._store is not None and self._store is not store:
                self._store.detach_writer()
            self._store = store
            self.read_only = False

    @classmethod
    def open(
        cls,
        path,
        config: Optional[AladinConfig] = None,
        *,
        attach: bool = True,
        read_only: bool = False,
        lock_timeout: Optional[float] = None,
        force_lock: bool = False,
        lazy: bool = True,
    ) -> "Aladin":
        """Warm-start a system from a snapshot — no re-integration.

        Nothing is re-imported, re-discovered, re-linked, or re-indexed:
        the persisted ColumnProfiles become the profile caches, the engine
        is rehydrated with statistics rebuilt arithmetically from those
        profiles, links land back in the repository, and the inverted
        index is restored posting by posting. The snapshot stays attached
        for incremental checkpoints, exactly as after :meth:`save`.

        Only the manifest — version, config, and per source its name,
        content hash, format, and row counts — is read up front
        (O(sources), not O(rows)). Each source's structure, profiles, and
        samples are decoded on first touch, and its tables fault in on
        first touch; point lookups and single-table SELECTs against
        untouched sources are pushed down to SQL on the snapshot's value
        index. The reopened system is observably identical to the one
        that wrote the snapshot — the differential suite pins rows,
        links, postings, and BM25 rankings byte-for-byte. ``lazy=False`` means "fault every source in at
        open": the same load, finished before this call returns.
        Maintenance faults all sources in first either way.

        Attaching as a writer takes the snapshot's advisory lock. When
        another *process* holds it, ``persist.lock_policy`` decides:
        ``"fail"`` raises :class:`~repro.persist.lock.SnapshotLockedError`
        immediately, ``"block"`` waits up to the timeout, ``"readonly"``
        degrades to a detached system (``read_only`` is then True and no
        maintenance checkpoints reach the file). ``read_only=True`` or
        ``attach=False`` skips the lock and the attachment outright;
        ``lock_timeout`` overrides the policy's wait; ``force_lock``
        breaks an abandoned lock the stale detection cannot prove dead.

        Unless ``config`` overrides it, the configuration the snapshot was
        integrated with is restored too, so later maintenance (update
        thresholds, duplicate detection, importer constraints) behaves
        exactly like the system that wrote the snapshot.
        """
        # Root-span timing starts before the Aladin (and its tracer)
        # exists; the span is recorded after the fact.
        opened_wall = time.time()
        opened = time.perf_counter()
        store = SnapshotStore(path)
        policy = config.persist if config is not None else AladinConfig().persist
        attach_writer = attach and not read_only
        if attach_writer:
            if lock_timeout is None:
                lock_timeout = (
                    policy.lock_timeout if policy.lock_policy == "block" else 0.0
                )
            try:
                store.attach_writer(timeout=lock_timeout, force=force_lock)
            except SnapshotLockedError:
                if policy.lock_policy != "readonly":
                    raise
                attach_writer = False
        aladin = None
        session = None
        try:
            # Any failure from here to the end must release the writer
            # lock and the session's connections: nothing else would
            # survive to close them.
            session = LazySnapshotSession(store)
            manifest = session.manifest
            if attach_writer:
                # A file saved before an index joined the schema gains it
                # here; readers answer from the file as it is.
                store.ensure_schema()
            if config is None and manifest.config is not None:
                config = config_from_dict(manifest.config)
            aladin = cls(config)
            session.install(aladin)
            aladin._lazy = session
            if manifest.index_built:
                aladin._index = LazyInvertedIndex(session)
            else:
                # Written without an index (before every system kept
                # one): build it by one crawl, which hydrates every
                # source, and let a writer rewrite the file with it for
                # later sessions.
                aladin._index.add_pages(Crawler(aladin.web).crawl(follow_links=False))
                session.index_rebuilt = True
                if attach_writer:
                    aladin._fault_all_sources()
                    store.write_full(aladin)
            if not lazy:
                session.hydrate()
        except BaseException:
            if aladin is not None:
                aladin.close()
            if session is not None:
                session.close()
            if attach_writer:
                store.detach_writer()
            raise
        aladin._store = store if attach_writer else None
        store.tracer = aladin.obs.trace_or_none
        aladin.read_only = not attach_writer
        aladin.obs.events.emit(
            SNAPSHOT_OPENED,
            path=str(path),
            lazy=lazy,
            read_only=aladin.read_only,
            sources=len(aladin.source_names()),
            index_rebuilt=session.index_rebuilt,
        )
        aladin.obs.trace.record_complete(
            "op.open",
            opened_wall,
            time.perf_counter() - opened,
            path=str(path),
            lazy=lazy,
            read_only=aladin.read_only,
            sources=len(aladin.source_names()),
        )
        return aladin

    def detach_store(self) -> None:
        """Stop checkpointing to the attached snapshot (the file remains).

        Releases this system's hold on the snapshot's writer lock, so
        another process can attach.
        """
        if self._store is not None:
            self._store.detach_writer()
        self._store = None

    def compact(self) -> CompactionStats:
        """Compact the attached snapshot now (see ``SnapshotStore.compact``).

        The rewrite is verified against the in-memory state — sources and
        per-source content hashes must match — before the atomic swap.
        """
        if self._store is None:
            raise SnapshotError(
                "no snapshot attached (save or open one first); use "
                "SnapshotStore.compact or `repro compact` for a bare file"
            )
        with self.obs.trace.span("op.compact") as span:
            stats = self._store.compact(self)
            span.set(reclaimed_bytes=stats.reclaimed_bytes)
        self._record_compaction(stats)
        return stats

    def _record_compaction(self, stats: CompactionStats) -> None:
        """Telemetry for one completed compaction (manual or policy-run)."""
        self.obs.metrics.histogram("persist.compaction_seconds").observe(
            stats.seconds
        )
        self.obs.events.emit(
            COMPACTION_RAN,
            bytes_before=stats.bytes_before,
            bytes_after=stats.bytes_after,
            reclaimed_bytes=stats.reclaimed_bytes,
            sources_verified=stats.sources_verified,
            seconds=stats.seconds,
        )

    def close(self) -> None:
        """Release lifecycle resources: the writer lock, the query thread.

        Safe to call more than once; the system stays usable in memory
        (a later :meth:`save` re-attaches, a later ``submit`` re-creates
        the query thread).
        """
        # Readers first: the writer's close then finds itself the last
        # connection, folds the WAL into the main file and removes it.
        if self._lazy is not None:
            self._lazy.close()
        self.detach_store()
        self._executor.shutdown()
        # Flushes the final metrics line into the JSON-lines export sink
        # (if one is configured) and closes it; safe to call repeatedly.
        self.obs.close()

    def _checkpoint(self, name: str) -> None:
        if self._store is not None:
            self._commit_checkpoint(
                name, "write", lambda: self._store.checkpoint_source(self, name)
            )

    def _commit_checkpoint(self, name: str, op: str, write) -> None:
        """Run one checkpoint ``write`` under its ``persist.checkpoint``
        span; the histogram and the event read that span's duration."""
        with self.obs.trace.span("persist.checkpoint", source=name, op=op) as span:
            write()
        self.obs.metrics.histogram("persist.checkpoint_seconds").observe(span.duration)
        self.obs.events.emit(
            CHECKPOINT_COMMITTED, source=name, op=op, seconds=span.duration
        )
        # Hands-off lifecycle: reclaim checkpoint churn once the policy
        # thresholds say the file carries more dead than live.
        self._auto_compact()

    def _auto_compact(self) -> None:
        """Policy compaction behind a committed maintenance op.

        Contained: by ``compact``'s contract a failure (disk full for
        the rewrite, a refused swap) leaves the original snapshot valid,
        and the maintenance operation that triggered us has already
        committed — so housekeeping trouble is surfaced as a warning,
        never as a failure of the successful foreground call.
        """
        try:
            with self.obs.trace.span("persist.compaction", auto=True) as span:
                stats = self._store.maybe_compact(self, self.config.persist)
                span.set(ran=stats is not None)
            if stats is not None:
                self._record_compaction(stats)
        except Exception as exc:  # noqa: BLE001 - background housekeeping
            warnings.warn(
                f"auto-compaction of snapshot {self._store.path!r} failed "
                f"(the checkpoint itself committed): {exc}",
                RuntimeWarning,
                stacklevel=4,
            )

    def query_engine(self) -> QueryEngine:
        return QueryEngine(self.web)

    def ranker(self, max_length: int = 3) -> PathRanker:
        return PathRanker(self.repository, max_length=max_length)

    # ------------------------------------------------------------------
    def source_names(self) -> List[str]:
        return self.repository.source_names()

    def database(self, name: str) -> Database:
        if self._lazy is not None and name not in self._databases:
            self._lazy.hydrate(name)  # unknown names still KeyError below
        return self._databases[name]

    def summary(self) -> str:
        return self.repository.summary()
