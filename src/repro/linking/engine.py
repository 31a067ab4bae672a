"""Link-discovery orchestration for one new source against all targets.

Runs the channels of Section 4.4 in order — explicit cross-references,
sequence similarity, text similarity, name recognition, shared vocabulary
— against every previously integrated source, reusing cached per-source
statistics. Channels can be toggled for the pruning/ablation experiments
(E6).

Each channel takes the two sources' :class:`~repro.linking.features.LinkFeatures`:
everything a channel derives from one source alone (attribute
selections, the object resolver and its owner memo, TF-IDF and BLAST
indexes, the name dictionary, entity mentions, vocabularies, decoded
cross-reference candidates, the accession value set) is built on the
first pair scan that needs it and reused by every later one, so an
N-source ingestion builds each source's indexes once instead of once
per pair. A source's features live on its registration entry; every
``register_source``/``refresh_source``/``restore_source`` installs a
fresh entry, so nothing needs invalidating.

Pair scans are *pure* with respect to the link web: a ``(mode, source,
target)`` spec reads only the two sources' entries (filling their
feature caches) and returns a fresh ``LinkSet`` plus its comparison
count. ``discover_for`` therefore fans specs through an
:class:`~repro.exec.pool.Executor` (an inline one unless the caller
passes its own) and merges the results in a fixed source/channel order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.discovery.model import AttributeRef, SourceStructure
from repro.exec.pool import Executor
from repro.linking.crossref import discover_crossref_links
from repro.linking.features import LinkFeatures
from repro.linking.model import LinkConfig, LinkSet
from repro.linking.ner import discover_name_links
from repro.linking.ontologylinks import discover_ontology_links
from repro.linking.seqlinks import discover_sequence_links
from repro.linking.stats import (
    AttributeStatistics,
    collect_statistics,
    statistics_from_profile,
)
from repro.linking.textlinks import discover_text_links
from repro.relational.columns import ColumnProfile
from repro.relational.database import Database

# One unit of fan-out work: ("pair" | "directional", source, target).
PairSpec = Tuple[str, str, str]


def _pair_task(engine: "LinkDiscoveryEngine", spec: PairSpec):
    """Fan-out task for one pair scan.

    Returns ``(links, comparisons)`` — counters travel back as data, so
    the engine books them in one ordered merge.
    """
    mode, source_name, target_name = spec
    source = engine.features_for(source_name)
    target = engine.features_for(target_name)
    if mode == "pair":
        return engine._pair_links(source, target)
    if mode == "directional":
        return engine._directional_links(source, target)
    raise ValueError(f"unknown pair-scan mode {mode!r}")


@dataclass
class LinkChannels:
    """Toggle switches for the discovery channels."""

    crossref: bool = True
    sequence: bool = True
    text: bool = True
    name: bool = True
    ontology: bool = True


@dataclass
class _SourceEntry:
    database: Database
    structure: SourceStructure
    statistics: Dict[AttributeRef, AttributeStatistics]
    features: Optional[LinkFeatures] = None  # built by the first pair scan


class LinkDiscoveryEngine:
    """Incremental link discovery across an growing set of sources."""

    def __init__(
        self,
        config: Optional[LinkConfig] = None,
        channels: Optional[LinkChannels] = None,
        executor: Optional[Executor] = None,
    ):
        self.config = config or LinkConfig()
        self.channels = channels or LinkChannels()
        self.executor = executor if executor is not None else Executor()
        self._sources: Dict[str, _SourceEntry] = {}
        self.comparisons_made = 0  # attribute-pair scans, for E6
        self.registrations = 0  # register_source calls, for maintenance tests

    # ------------------------------------------------------------------
    def register_source(
        self, database: Database, structure: SourceStructure
    ) -> Dict[AttributeRef, AttributeStatistics]:
        """Cache a source and its one-time statistics; returns the stats."""
        self.registrations += 1
        statistics = collect_statistics(database)
        self._sources[structure.source_name] = _SourceEntry(
            database=database, structure=structure, statistics=statistics
        )
        return statistics

    def restore_source(
        self,
        database: Database,
        structure: SourceStructure,
        statistics: Dict[AttributeRef, AttributeStatistics],
    ) -> None:
        """Rehydrate one source from persisted state — zero recomputation.

        Warm starts hand the engine statistics rebuilt from persisted
        ColumnProfiles; nothing is profiled, compared, or counted, so a
        reopened system shows ``registrations == 0`` and
        ``comparisons_made == 0`` until real integration work happens.
        """
        self._sources[structure.source_name] = _SourceEntry(
            database=database, structure=structure, statistics=dict(statistics)
        )

    def deregister_source(self, name: str) -> None:
        """Forget one source; every other registration stays untouched.

        This is what lets ``Aladin.remove_source`` keep the engine (and the
        surviving sources' cached statistics) instead of rebuilding it and
        re-profiling every remaining source.
        """
        if name not in self._sources:
            raise KeyError(f"source {name!r} is not registered")
        del self._sources[name]

    def refresh_source(
        self, database: Database, profiles: Dict[AttributeRef, ColumnProfile]
    ) -> Dict[AttributeRef, AttributeStatistics]:
        """Re-derive a registered source's statistics from ``profiles``.

        Below-threshold updates swap the data but keep the discovered
        structure; the cached statistics must describe the *new* data or
        every later ``discover_for`` would link against stale profiles.
        ``profiles`` is the caller's one walk of the database's column
        profiles (:func:`collect_profiles`).
        """
        entry = self._sources.get(database.name)
        if entry is None:
            raise KeyError(f"source {database.name!r} is not registered")
        statistics = {
            attr: statistics_from_profile(attr, profile)
            for attr, profile in profiles.items()
        }
        self._sources[database.name] = _SourceEntry(
            database=database, structure=entry.structure, statistics=statistics
        )
        return statistics

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    def statistics_for(self, name: str) -> Dict[AttributeRef, AttributeStatistics]:
        return self._sources[name].statistics

    def database_for(self, name: str) -> Database:
        return self._sources[name].database

    def structure_for(self, name: str) -> SourceStructure:
        return self._sources[name].structure

    # ------------------------------------------------------------------
    def pair_specs(self, source_name: str) -> List[PairSpec]:
        """The fixed-order fan-out plan for one source's link discovery.

        Two specs per counterpart — the symmetric+outgoing scan and the
        incoming directional scan — in sorted counterpart order. Merging
        results in exactly this order reproduces the serial link web.
        """
        specs: List[PairSpec] = []
        for other_name in self.source_names():
            if other_name == source_name:
                continue
            specs.append(("pair", source_name, other_name))
            specs.append(("directional", other_name, source_name))
        return specs

    def run_pair_specs(self, specs: Sequence[PairSpec]) -> List[Tuple[LinkSet, int]]:
        """Execute pair scans as one fan-out of ``(links, comparisons)``.

        Results come back in spec order; nothing is
        merged or counted here, so callers control ordering end to end.
        The executor names a fan-out's stage after its first label, so a
        source with no counterparts still files its empty fan-out under
        ``link``.
        """
        specs = list(specs)
        labels = [f"link:{mode}:{a}->{b}" for mode, a, b in specs] or ["link"]
        return self.executor.map_ordered(_pair_task, specs, state=self, labels=labels)

    def merge_pair_results(self, results: Iterable[Tuple[LinkSet, int]]) -> LinkSet:
        """Fold ordered scan results into one LinkSet; book the comparisons."""
        merged = LinkSet()
        for links, comparisons in results:
            merged.extend(links)
            self.comparisons_made += comparisons
        return merged

    def discover_for(self, source_name: str) -> LinkSet:
        """All links between ``source_name`` and every *other* source.

        Both directions are explored (the new source may reference old
        sources and vice versa — Section 5's PDB→Swiss-Prot and
        Swiss-Prot→PDB cases both exist). The pair scans run on the
        engine's executor; the merge order is fixed, so the result is
        independent of scan timing.
        """
        if source_name not in self._sources:
            raise KeyError(f"source {source_name!r} is not registered")
        return self.merge_pair_results(self.run_pair_specs(self.pair_specs(source_name)))

    def features_for(self, name: str) -> LinkFeatures:
        """``name``'s link features, created on the first pair scan that
        reads them and kept until its entry is replaced or removed."""
        entry = self._sources[name]
        if entry.features is None:
            entry.features = LinkFeatures(
                entry.database, entry.structure, entry.statistics, self.config
            )
        return entry.features

    def _pair_links(
        self, source: LinkFeatures, target: LinkFeatures
    ) -> Tuple[LinkSet, int]:
        """Symmetric channels + source->target directional channels.

        Pure with respect to the engine's counters: returns the links and
        the number of attribute-pair comparisons instead of bumping shared
        counters, so the scans can merge deterministically.
        """
        result, comparisons = self._directional_links(source, target)
        if self.channels.sequence:
            comparisons += len(source.sequence_fields) * len(target.sequence_fields)
            result.extend(discover_sequence_links(source, target, self.config))
        if self.channels.text:
            result.extend(discover_text_links(source, target, self.config))
        if self.channels.ontology:
            result.extend(discover_ontology_links(source, target, self.config))
        return result, comparisons

    def _directional_links(
        self, source: LinkFeatures, target: LinkFeatures
    ) -> Tuple[LinkSet, int]:
        """Channels where the evidence lives on the source side only."""
        result = LinkSet()
        comparisons = 0
        if self.channels.crossref:
            comparisons += len(source.statistics)
            result.extend(discover_crossref_links(source, target, self.config))
        if self.channels.name:
            result.extend(discover_name_links(source, target, self.config))
        return result, comparisons
