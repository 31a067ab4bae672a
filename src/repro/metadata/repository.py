"""Central store for discovered structure, statistics, and links."""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.discovery.model import AttributeRef, SourceStructure
from repro.linking.model import AttributeLink, ObjectLink
from repro.linking.stats import AttributeStatistics
from repro.relational.columns import ColumnProfile


@dataclass
class SourceRecord:
    """Everything the repository knows about one source.

    ``profiles`` holds the storage-level :class:`ColumnProfile` objects —
    the one-time per-source statistics of Section 4.4. They are computed by
    the ColumnStore during registration and reused by every later source
    addition; nothing above this record touches raw rows to re-derive them.
    """

    structure: SourceStructure
    statistics: Dict[AttributeRef, AttributeStatistics] = field(default_factory=dict)
    profiles: Dict[AttributeRef, ColumnProfile] = field(default_factory=dict)
    sample_rows: Dict[str, List[dict]] = field(default_factory=dict)
    row_counts: Dict[str, int] = field(default_factory=dict)


class MetadataRepository:
    """Discovered schemata, statistics, samples, and object-level links."""

    def __init__(self) -> None:
        self._sources: Dict[str, SourceRecord] = {}
        # A lazy open registers each source by name and defers its record
        # behind a resolver (see register_deferred); _sources_lock makes
        # concurrent first reads resolve a record exactly once.
        self._deferred_sources: Dict[str, Callable[[], SourceRecord]] = {}
        self._deferred_structures: Dict[str, Callable[[], SourceStructure]] = {}
        self._sources_lock = threading.Lock()
        self._attribute_links: List[AttributeLink] = []
        self._object_links: List[ObjectLink] = []
        # Adjacency: (source, accession) -> list of link indexes.
        self._adjacency: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        self._link_keys: Set[Tuple] = set()
        # A lazy open defers the whole-web link load behind this loader;
        # the first whole-web read or any write replays it, while
        # per-object reads go through the lookup (see set_deferred_links).
        self._deferred_links = None
        self._deferred_lookup = None
        # True once links are authoritative in memory. Eager repositories
        # are born loaded; set_deferred_links flips this off until the
        # one-shot replay completes, and _links_lock keeps a concurrent
        # reader from observing the replay half-done.
        self._links_loaded = True
        self._links_lock = threading.RLock()

    # ------------------------------------------------------------------
    # deferred link loading (lazy snapshot opens)
    # ------------------------------------------------------------------
    def set_deferred_links(self, loader, lookup=None) -> None:
        """Defer the link web behind a one-shot loader and a per-object lookup.

        ``loader`` is called with this repository exactly once, before the
        first operation that reads the whole web or mutates links, and
        replays every link through the public mutators. ``lookup(source,
        accession)`` answers :meth:`links_of` (and so :meth:`neighbors_of`)
        while the web is still deferred: it must return exactly the links
        the replay would file under that object, in the same order, or
        ``None`` to decline — declining falls back to the replay, which is
        always correct, just slower. Once the web is loaded, memory is
        authoritative and the lookup is never consulted again.

        Sources defer the same way, one record at a time
        (:meth:`register_deferred`); the link tables defer here as a whole
        because they belong to no one source.
        """
        self._deferred_links = loader
        self._deferred_lookup = lookup
        self._links_loaded = False

    @property
    def links_loaded(self) -> bool:
        """True once the link web is resident (always, unless deferred)."""
        return self._links_loaded

    def load_links(self) -> None:
        """Replay a deferred link web now; a no-op once it is resident.

        Callers about to walk many objects' links (crawls, path searches,
        link joins) call this once up front: one replay is cheaper than a
        per-object lookup for every visited position.
        """
        if self._links_loaded:
            return
        with self._links_lock:
            if self._links_loaded:
                return
            loader, self._deferred_links = self._deferred_links, None
            if loader is None:
                # Re-entrant call from the loader itself (it replays links
                # through the public mutators below); the outer frame owns
                # the flag, so the replay cannot publish itself half-done.
                return
            loader(self)
            self._deferred_lookup = None
            self._links_loaded = True

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def register_source(
        self,
        structure: SourceStructure,
        statistics: Optional[Dict[AttributeRef, AttributeStatistics]] = None,
        sample_rows: Optional[Dict[str, List[dict]]] = None,
        row_counts: Optional[Dict[str, int]] = None,
        profiles: Optional[Dict[AttributeRef, ColumnProfile]] = None,
    ) -> None:
        name = structure.source_name
        if self.has_source(name):
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = SourceRecord(
            structure=structure,
            statistics=statistics or {},
            profiles=profiles or {},
            sample_rows=sample_rows or {},
            row_counts=row_counts or {},
        )

    def register_deferred(
        self,
        name: str,
        resolve: Callable[[], SourceRecord],
        structure: Callable[[], SourceStructure],
    ) -> None:
        """Register a source by name; build its record on first use.

        ``resolve()`` is called at most once, by the first :meth:`source`
        call for ``name``, under a lock so concurrent first reads share
        one record. If it raises, the source stays deferred and the next
        read retries. ``structure()`` answers :meth:`structure` while the
        record is still deferred; it must return the structure
        ``resolve()`` later puts in the record. Name-only reads —
        :meth:`has_source`, :meth:`source_names` — never resolve.
        """
        if self.has_source(name):
            raise ValueError(f"source {name!r} already registered")
        self._deferred_sources[name] = resolve
        self._deferred_structures[name] = structure

    def refresh_source_data(
        self,
        name: str,
        statistics: Optional[Dict[AttributeRef, AttributeStatistics]] = None,
        sample_rows: Optional[Dict[str, List[dict]]] = None,
        row_counts: Optional[Dict[str, int]] = None,
        profiles: Optional[Dict[AttributeRef, ColumnProfile]] = None,
    ) -> None:
        """Swap the data-derived parts of a record, keeping structure/links.

        Used by the below-threshold ``update_source`` path: the raw data
        changed slightly, the discovered structure and links are kept, but
        cached statistics must describe the *new* data.
        """
        record = self.source(name)
        if statistics is not None:
            record.statistics = statistics
        if profiles is not None:
            record.profiles = profiles
        if sample_rows is not None:
            record.sample_rows = sample_rows
        if row_counts is not None:
            record.row_counts = row_counts

    def has_source(self, name: str) -> bool:
        return name in self._sources or name in self._deferred_sources

    def source(self, name: str) -> SourceRecord:
        record = self._sources.get(name)
        if record is not None:
            return record
        with self._sources_lock:
            record = self._sources.get(name)
            if record is None:
                resolve = self._deferred_sources.get(name)
                if resolve is None:
                    raise KeyError(f"source {name!r} not registered")
                record = resolve()
                # Published before the deferred entry goes, so has_source
                # never sees the name in neither map.
                self._sources[name] = record
                del self._deferred_sources[name]
                self._deferred_structures.pop(name, None)
        return record

    def source_names(self) -> List[str]:
        return sorted(set(self._sources) | set(self._deferred_sources))

    def structure(self, name: str) -> SourceStructure:
        record = self._sources.get(name)
        if record is not None:
            return record.structure
        read = self._deferred_structures.get(name)
        if read is not None:
            return read()
        return self.source(name).structure

    def remove_source(self, name: str) -> None:
        """Drop a source and every link touching it (re-analysis support)."""
        if not self.has_source(name):
            raise KeyError(f"source {name!r} not registered")
        self.load_links()
        with self._sources_lock:
            self._sources.pop(name, None)
            self._deferred_sources.pop(name, None)
            self._deferred_structures.pop(name, None)
        self._attribute_links = [
            l for l in self._attribute_links if name not in (l.source, l.target)
        ]
        kept = [
            l for l in self._object_links if name not in (l.source_a, l.source_b)
        ]
        self._object_links = []
        self._adjacency = defaultdict(list)
        self._link_keys = set()
        for link in kept:
            self._add_object_link(link)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def add_attribute_link(self, link: AttributeLink) -> None:
        self.load_links()
        self._attribute_links.append(link)

    def add_object_link(self, link: ObjectLink) -> bool:
        """Store one link; duplicate (same endpoints + kind) links are ignored."""
        self.load_links()
        return self._add_object_link(link)

    def _add_object_link(self, link: ObjectLink) -> bool:
        key = link.key()
        if key in self._link_keys:
            return False
        self._link_keys.add(key)
        index = len(self._object_links)
        self._object_links.append(link)
        self._adjacency[(link.source_a, link.accession_a)].append(index)
        self._adjacency[(link.source_b, link.accession_b)].append(index)
        return True

    def add_object_links(self, links: Iterable[ObjectLink]) -> int:
        self.load_links()
        return sum(1 for link in links if self._add_object_link(link))

    def attribute_links(self) -> List[AttributeLink]:
        self.load_links()
        return list(self._attribute_links)

    def object_links(self, kind: Optional[str] = None) -> List[ObjectLink]:
        self.load_links()
        if kind is None:
            return list(self._object_links)
        return [l for l in self._object_links if l.kind == kind]

    def links_of(self, source: str, accession: str, kind: Optional[str] = None) -> List[ObjectLink]:
        """All links touching one object."""
        if not self._links_loaded:
            lookup = self._deferred_lookup
            links = None if lookup is None else lookup(source, accession)
            if links is not None:
                if kind is None:
                    return links
                return [link for link in links if link.kind == kind]
            self.load_links()
        out = []
        for index in self._adjacency.get((source, accession), ()):
            link = self._object_links[index]
            if kind is None or link.kind == kind:
                out.append(link)
        return out

    def neighbors_of(
        self, source: str, accession: str, kind: Optional[str] = None
    ) -> List[Tuple[str, str, ObjectLink]]:
        """(other_source, other_accession, link) triples for one object."""
        out = []
        for link in self.links_of(source, accession, kind):
            for endpoint in link.endpoints():
                if endpoint != (source, accession):
                    out.append((endpoint[0], endpoint[1], link))
        return out

    def remove_object_link(self, link: ObjectLink) -> bool:
        """User feedback: drop one wrong link (Section 6.2)."""
        self.load_links()
        key = link.key()
        if key not in self._link_keys:
            return False
        remaining = [l for l in self._object_links if l.key() != key]
        self._object_links = []
        self._adjacency = defaultdict(list)
        self._link_keys = set()
        for survivor in remaining:
            self._add_object_link(survivor)
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def link_counts_by_kind(self) -> Dict[str, int]:
        self.load_links()
        counts: Dict[str, int] = defaultdict(int)
        for link in self._object_links:
            counts[link.kind] += 1
        return dict(counts)

    def summary(self) -> str:
        self.load_links()
        parts = [f"{len(self.source_names())} sources", f"{len(self._object_links)} object links"]
        kinds = self.link_counts_by_kind()
        if kinds:
            parts.append(
                "(" + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) + ")"
            )
        return "; ".join(parts)
