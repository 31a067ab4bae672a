"""Lazy snapshot sessions: manifest-only opens, fault-in hydration.

A :class:`LazySnapshotSession` is the one loader of a snapshot. It
installs the O(manifest) part of the file — per-source stubs carrying
name, content hash, format, import options, and row counts — and leaves
four fault-in seams armed:

* *metadata*: each source's structure is decoded on the first read of
  it, and the rest of its repository record (ColumnProfiles, samples, and
  the statistics built from the profiles) on the first read of the whole
  record, each with keyed SQLite reads — a search or a pushed-down SELECT
  decodes none, a browse decodes the browsed source's structure alone;
* *sources*: the object web's hydrator callback loads exactly one source's
  tables (:meth:`SnapshotStore.load_source_body`) the first time a query
  or crawl needs them resident, decoding its metadata in the same read
  transaction if nothing has yet;
* *links*: the link web grows with the corpus, not with a query, so it
  stays in SQLite. A per-object read (``links_of``, and so a page
  visit) pushes down to one indexed statement that decodes only that
  object's rows (:meth:`LazySnapshotSession.lookup_links`); whole-web
  reads, link walks (crawls, path searches, link joins) and every link
  write replay the web into memory once, and from then on memory is
  authoritative;
* *index*: :class:`LazyInvertedIndex` answers a BM25 query from one
  document-count aggregate and its query tokens' posting lists, each read
  with the metadata of just the documents it names
  (:class:`SnapshotIndexReader`); only whole-index operations load it all.

On top of the fault-in path sits *pushdown*: for a source that is not
hydrated yet, point lookups (``value -> row_ids``), single-table SELECT
statements, simple aggregations and object pages are answered by SQL
against the snapshot's own ``cells`` value index (written at checkpoint
time) — a query over 2 of 50 sources never materializes the other 48,
and a browse reads one object's rows (:meth:`LazySnapshotSession.read_page`)
from a slice verified against its content hash once per session. Only a
source's first page is read that way: a session that reads a second
page of it is walking the source, so that page hydrates it and memory
answers from then on.
Anything the pushdown layer cannot answer exactly declines, hydrates, and
runs in memory; declining is always correct, just slower.

An eager open (``Aladin.open(..., lazy=False)``) is this session followed
by :meth:`LazySnapshotSession.hydrate` with no name: every source, the
link web, and the whole index are faulted in before the open returns.

Maintenance (``add_source``/``update_source``/``remove_source``/``save``)
faults every source in first — mutation runs only against fully resident
state, so a reopened system cannot diverge from the one that wrote the
snapshot. ``release_source`` evicts a hydrated source again (read-only
long-runners bounding RSS), and is refused once maintenance has written,
because the in-memory state may then be ahead of what a re-fault would
reload.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sqlite3
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.access.index import DocumentDelta, InvertedIndex, PostingField
from repro.access.objects import DECLINED, ObjectPage, walk_annotations
from repro.linking.model import ObjectLink
from repro.linking.resolve import ObjectResolver
from repro.linking.stats import statistics_from_profile
from repro.metadata.repository import SourceRecord
from repro.obs.events import HYDRATION_FAULTED
from repro.persist import codec
from repro.persist.snapshot import (  # noqa: PLC2701 - one WAL snapshot per read
    LINK_LOOKUP_SQL,
    SnapshotError,
    SnapshotStore,
    SourceStub,
    _read_transaction,
    read_index_generation,
)
from repro.relational.expressions import ColumnRef, Comparison, Literal
# The pushdown executor must rank, project, and dedupe byte-identically
# to the in-memory engine, so it runs the engine's own helpers instead of
# reimplementing their ordering rules.
from repro.relational.query import (  # noqa: PLC2701 - shared executor internals
    ResultSet,
    _distinct_rows,
    _resolve_bare,
    _stable_sort,
)
from repro.relational.sql import SelectPlan, plan_select


def _probe_value(value: Any) -> Optional[Any]:
    """The bindable probe for a cells lookup, or None to decline.

    Stricter than the write-side ``_cell_value``: a float at or beyond
    2**63 could equal a stored out-of-range int that the cells index
    skipped, so such probes must fall back to the in-memory path. NaN is
    kept — it binds as NULL and matches nothing, which is exactly what
    equality against NaN means in the in-memory engine too.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value if -(2 ** 63) <= value < 2 ** 63 else None
    if isinstance(value, float):
        if value != value:  # NaN
            return value
        return value if -(2.0 ** 63) < value < 2.0 ** 63 else None
    if isinstance(value, str):
        return value
    return None


def _decode_payloads(
    conn: sqlite3.Connection, sql: str, params: Tuple = ()
) -> List[Any]:
    """Every canonical-JSON ``payload`` the statement yields, in one parse."""
    return codec.decode_batch([payload for (payload,) in conn.execute(sql, params)])


def _simple_equality(where) -> Optional[Tuple[str, Any]]:
    """``(column, literal)`` if ``where`` is one bare equality, else None."""
    if not isinstance(where, Comparison) or where.op != "=":
        return None
    left, right = where.left, where.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.name.lower(), right.value
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right.name.lower(), left.value
    return None


# Bound parameters per IN list, well under SQLite's variable limit.
_IN_CHUNK = 500


def _chunks(items: List[Any]):
    for start in range(0, len(items), _IN_CHUNK):
        yield items[start:start + _IN_CHUNK]


# A row of one table whose value at JSON path ?4 is a scalar a probe can
# match (``_probe_value`` takes no other kind) but that has no ``cells``
# entry holding that value under column ?3. One such row means lookups
# on the column could miss rows, so the column is not read through cells.
_CELLS_GAP_SQL = (
    "SELECT 1 FROM rows AS r WHERE r.source = ?1 AND r.table_name = ?2 "
    "AND json_type(r.data, ?4) IN ('integer', 'real', 'text', 'true', 'false') "
    "AND NOT EXISTS (SELECT 1 FROM cells AS c WHERE c.source = ?1 "
    "AND c.table_name = ?2 AND c.column_name = ?3 "
    "AND c.value = json_extract(r.data, ?4) AND c.row_id = r.row_id) "
    "LIMIT 1"
)


class _SliceReader:
    """Point reads of one source's verified slice, in one read transaction.

    Rows are found through the ``cells`` value index and decoded from
    ``rows``. The content hash covers ``rows``, not ``cells``, so the
    index is held to both sides of an exact answer: a column is probed
    only once every row's value in it is shown to have its cells entry
    (:meth:`_cells_complete`), and every found row is checked against the
    values it was found by. The index narrows what is read but never
    decides an answer. Each method returns :data:`DECLINED` where it
    cannot answer exactly as the in-memory object web would, and the
    caller hydrates instead.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        source: str,
        columns: Dict[str, List[str]],
        complete: Dict[Tuple[str, str], bool],
    ):
        self._conn = conn
        self._source = source
        self._columns = columns  # table -> column names, as verified
        # (table, column) -> _cells_complete's answer, kept with the
        # verified slice it was checked against.
        self._complete = complete
        self._decoded: Dict[Tuple[str, int], Dict[str, Any]] = {}

    def _cells_complete(self, table: str, column: str) -> bool:
        """Does ``cells`` hold every value of ``table.column`` a probe can
        match? Checked in SQL once per verified slice and column."""
        key = (table, column)
        known = self._complete.get(key)
        if known is None:
            path = f"$[{self._columns[table].index(column)}]"
            known = self._conn.execute(
                _CELLS_GAP_SQL, (self._source, table, column, path)
            ).fetchone() is None
            self._complete[key] = known
        return known

    def _rows(self, table: str, row_ids: List[int]):
        """``row_id -> row`` for ``row_ids`` (ascending), each decoded once."""
        names = self._columns[table]
        missing = [i for i in row_ids if (table, i) not in self._decoded]
        for chunk in _chunks(missing):
            fetched = self._conn.execute(
                "SELECT row_id, data FROM rows WHERE source = ? AND table_name = ? "
                f"AND row_id IN ({','.join('?' * len(chunk))}) ORDER BY row_id",
                (self._source, table, *chunk),
            ).fetchall()
            decoded = codec.decode_batch([data for _, data in fetched])
            for (row_id, _data), values in zip(fetched, decoded):
                if len(values) != len(names):
                    return DECLINED
                self._decoded[(table, row_id)] = dict(zip(names, values))
        try:
            return {i: self._decoded[(table, i)] for i in row_ids}
        except KeyError:  # the cells index names a row the slice lacks
            return DECLINED

    def find(self, table: str, column: str, values: List[Any]):
        """``row_id -> row`` of ``table``'s rows whose ``column`` equals one
        of ``values`` (non-null), in row order."""
        table, column = table.lower(), column.lower()
        if column not in self._columns.get(table, ()):
            return DECLINED
        if not self._cells_complete(table, column):
            return DECLINED
        probes = []
        for value in values:
            probe = _probe_value(value)
            if probe is None:
                return DECLINED
            probes.append(probe)
        row_ids = set()
        for chunk in _chunks(list(dict.fromkeys(probes))):
            row_ids.update(
                row_id
                for (row_id,) in self._conn.execute(
                    "SELECT row_id FROM cells WHERE source = ? AND table_name = ? "
                    f"AND column_name = ? AND value IN ({','.join('?' * len(chunk))})",
                    (self._source, table, column, *chunk),
                )
            )
        rows = self._rows(table, sorted(row_ids))
        if rows is DECLINED:
            return DECLINED
        wanted = set(values)
        if any(row[column] not in wanted for row in rows.values()):
            return DECLINED
        return rows

    def page(
        self,
        resolver: ObjectResolver,
        tables: List[str],
        source: str,
        accession: Any,
    ):
        """The page ``ObjectWeb.page`` builds in memory: the first primary
        row holding ``accession``, and the annotations
        :func:`walk_annotations` reaches from its primary rows."""
        seed = self.find(resolver.primary_relation, resolver.accession_column, [accession])
        if seed is DECLINED:
            return DECLINED
        if not seed:
            return None
        annotations = walk_annotations(resolver, tables, seed, self.find)
        if annotations is DECLINED:
            return DECLINED
        return ObjectPage(
            source=source, accession=accession, fields=dict(seed[min(seed)]),
            annotations=annotations,
        )

    def siblings(self, resolver: ObjectResolver, accession: Any, limit: int):
        """The first ``limit`` of ``ObjectResolver.primary_accessions``
        other than ``accession``: decoded in row order until enough."""
        primary = resolver.primary_relation.lower()
        column = resolver.accession_column.lower()
        names = self._columns.get(primary, [])
        if column not in names:
            return DECLINED
        position = names.index(column)
        found: List[Any] = []
        if limit == 0:
            return found
        cursor = self._conn.execute(
            "SELECT data FROM rows WHERE source = ? AND table_name = ? "
            "ORDER BY row_id",
            (self._source, primary),
        )
        while True:
            batch = cursor.fetchmany(64)
            if not batch:
                return found
            for values in codec.decode_batch([data for (data,) in batch]):
                if len(values) != len(names):
                    return DECLINED
                value = values[position]
                if value is not None and value != accession:
                    found.append(value)
                    if len(found) == limit:
                        return found


class SnapshotColumnSource:
    """The ColumnStore backing of one snapshot-resident table.

    Attached by hydration to every table of a lazily loaded source; as
    long as the table has not mutated, ``lookup_row_ids`` answers point
    lookups from the snapshot's ``cells`` index instead of forcing the
    value->row_ids cache to materialize.
    """

    def __init__(self, session: "LazySnapshotSession", source: str, table: str):
        self._session = session
        self._source = source
        self._table = table

    def lookup_row_ids(self, column: str, value: Any) -> Optional[List[int]]:
        return self._session.lookup_row_ids(
            self._source, self._table, column, value
        )


_INDEX_CHANGED = "snapshot index changed under a lazy reader; reopen the snapshot"


class SnapshotIndexReader:
    """What a BM25 query reads of an index still in the snapshot.

    The document count and total length come from one aggregate, and
    each query token's posting list arrives with the metadata of just the
    documents it names; nothing else of the document table is read.
    Document ids are ``index_documents.id``. Postings keep the order the
    writer exported them in (document, then insertion order), and the
    length total is an integer sum, so BM25 scores and tie-breaks equal
    those of the resident index.

    Every read carries the index generation; one that differs from the
    generation of this reader's first read, or a posting of a document
    the file no longer holds, raises SnapshotError instead of mixing two
    versions of the index. A reader's ids never change, so a query that
    pinned it (:meth:`InvertedIndex.reader`) stays consistent while
    another thread faults the whole index in.
    """

    def __init__(self, session: "LazySnapshotSession"):
        self._session = session
        self.generation: Optional[str] = None
        self._totals: Optional[Tuple[int, int]] = None  # (documents, length sum)
        self._postings: Dict[str, List[PostingField]] = {}
        self._documents: Dict[int, Tuple[str, str, int]] = {}
        # Double-checked page-ins: concurrent first reads of the totals
        # or of one token read them once.
        self._lock = threading.Lock()

    def _check(self, generation: str) -> None:
        if self.generation is None:
            self.generation = generation
        elif generation != self.generation:
            raise SnapshotError(_INDEX_CHANGED)

    def _ensure_totals(self) -> Tuple[int, int]:
        if self._totals is None:
            with self._lock:
                if self._totals is None:
                    generation, totals = self._session.fetch_document_totals()
                    self._check(generation)
                    self._totals = totals
        return self._totals

    def __len__(self) -> int:
        return self._ensure_totals()[0]

    def document_count(self) -> int:
        return self._ensure_totals()[0]

    @property
    def average_length(self) -> float:
        count, total = self._ensure_totals()
        return total / count if count else 0.0

    def postings(self, token: str) -> List[PostingField]:
        loaded = self._postings.get(token)
        if loaded is None:
            with self._lock:
                loaded = self._postings.get(token)
                if loaded is None:
                    loaded = self._load_token(token)
                    # Published last: an unlocked reader that finds the
                    # list also finds its documents.
                    self._postings[token] = loaded
        return list(loaded)

    def _load_token(self, token: str) -> List[PostingField]:
        generation, rows = self._session.fetch_token_postings(token)
        self._check(generation)
        loaded = []
        for doc, field_name, frequency, source, accession, length in rows:
            if source is None:
                raise SnapshotError(_INDEX_CHANGED)
            self._documents[doc] = (source, accession, length)
            loaded.append(
                PostingField(doc_id=doc, field=field_name, frequency=frequency)
            )
        return loaded

    def document_frequency(self, token: str) -> int:
        return len({posting.doc_id for posting in self.postings(token)})

    def document(self, doc_id: int) -> Tuple[str, str]:
        source, accession, _length = self._documents[doc_id]
        return source, accession

    def doc_length(self, doc_id: int) -> int:
        return self._documents[doc_id][2]

    def source_of(self, doc_id: int) -> str:
        return self._documents[doc_id][0]


class LazyInvertedIndex(InvertedIndex):
    """An inverted index that stays in the snapshot until a write needs it.

    Until then a query reads through :meth:`reader`, a
    :class:`SnapshotIndexReader` whose document ids are
    ``index_documents.id``, and the totals come from its aggregate. Any
    other read that names a document, and any operation that needs the
    whole index — mutation, source removal, export — faults all of it in
    first (:meth:`_ensure_all`): documents in id order take positional
    ids, and from then on this behaves like a plain
    :class:`InvertedIndex`. So every id a caller gets from this object
    is positional, and only a pinned reader hands out the other kind.
    """

    def __init__(self, session: "LazySnapshotSession"):
        super().__init__()
        self._session = session
        self._snapshot = SnapshotIndexReader(session)
        self._all_loaded = False
        # Serializes the whole-index fault-in: a doubled restore pass
        # would append every document twice.
        self._load_lock = threading.Lock()

    def reader(self):
        return self if self._all_loaded else self._snapshot

    def _ensure_all(self) -> None:
        if self._all_loaded:
            return
        with self._load_lock:
            if self._all_loaded:
                return
            generation, documents, by_pk = self._session.fetch_index()
            served = self._snapshot.generation
            if (served is not None and generation != served) or (
                set(by_pk) - {document[0] for document in documents}
            ):
                raise SnapshotError(_INDEX_CHANGED)
            # Documents in id order, each one's postings in rowid order:
            # token insertion order is the stored one, so
            # export_documents round-trips byte-identically.
            for pk, source, accession, length, is_primary in documents:
                InvertedIndex.restore_document(
                    self, source, accession, length, bool(is_primary),
                    by_pk.get(pk, ()),
                )
            # Published last: readers that see the flag see every document.
            self._all_loaded = True

    # ------------------------------------------------------------------
    # totals: from the snapshot's aggregate until the whole index is
    # resident. They name no document, so they hold in either id space.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self._all_loaded:
            return len(self._snapshot)
        return super().__len__()

    @property
    def average_length(self) -> float:
        if not self._all_loaded:
            return self._snapshot.average_length
        return InvertedIndex.average_length.fget(self)

    def document_count(self) -> int:
        if not self._all_loaded:
            return self._snapshot.document_count()
        return super().document_count()

    # ------------------------------------------------------------------
    # per-document reads and whole-index operations fault the remainder
    # in first: only a pinned reader() reads documents from the snapshot
    # ------------------------------------------------------------------
    def postings(self, token: str) -> List[PostingField]:
        self._ensure_all()
        return super().postings(token)

    def document_frequency(self, token: str) -> int:
        self._ensure_all()
        return super().document_frequency(token)

    def document(self, doc_id: int) -> Tuple[str, str]:
        self._ensure_all()
        return super().document(doc_id)

    def doc_length(self, doc_id: int) -> int:
        self._ensure_all()
        return super().doc_length(doc_id)

    def source_of(self, doc_id: int) -> str:
        self._ensure_all()
        return super().source_of(doc_id)

    def add_tokenized(self, identity, tokenized) -> int:
        self._ensure_all()
        return super().add_tokenized(identity, tokenized)

    def restore_document(self, source, accession, length, is_primary, postings) -> int:
        self._ensure_all()
        return super().restore_document(
            source, accession, length, is_primary, postings
        )

    def remove_source(self, source: str) -> int:
        self._ensure_all()
        return super().remove_source(source)

    def update_source(self, source, old_pages, new_pages) -> DocumentDelta:
        self._ensure_all()
        return super().update_source(source, old_pages, new_pages)

    def vocabulary_size(self) -> int:
        self._ensure_all()
        return super().vocabulary_size()

    def export_documents(self, source: Optional[str] = None):
        self._ensure_all()
        return super().export_documents(source)


class LazySnapshotSession:
    """One lazily opened snapshot: stubs installed, bodies on first touch.

    Constructing a session reads the snapshot's manifest (``manifest``)
    on the session's own reader connection; a failed read closes it
    again before raising.
    """

    def __init__(self, store: SnapshotStore):
        self._store = store
        self._aladin = None
        self._hydrated: Dict[str, int] = {}  # name -> resident payload bytes
        self._pushdown_counts: Dict[str, int] = {}
        self._link_lookups = 0
        self._cells_cache: Dict[str, bool] = {}
        # name -> (content hash, table -> column names, the cells
        # columns checked complete): the slices page reads have verified.
        # Verification walks every row payload, so concurrent first reads
        # of one source share one walk.
        self._verified: Dict[
            str, Tuple[str, Dict[str, List[str]], Dict[Tuple[str, str], bool]]
        ] = {}
        self._verify_lock = threading.Lock()
        # Sources whose one snapshot page read is taken. A page walk
        # costs a few keyed reads per secondary table every time, while
        # memory pays once per source: a second page of a source
        # hydrates it, so a crawl, a link join or a long-lived server
        # reads a source from the snapshot at most once.
        self._paged: Set[str] = set()
        self._paged_lock = threading.Lock()
        # One connection per reader thread: sqlite3 connections are not
        # safe for concurrent use (and by default refuse cross-thread use
        # outright), and a serving layer drives this session from a pool
        # of worker threads. Every connection is also tracked in
        # ``_conns`` so ``close`` can tear them all down from whichever
        # thread the owner closes on. The manifest, metadata decodes and
        # hydrations read on these connections too: a cold session
        # connects once, and SQLite rebuilds the WAL index only for the
        # first connection to an otherwise unopened file.
        self._conn_local = threading.local()
        self._conns: List[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        self._maintained = False
        # Set by the open when the snapshot carried no index and the open
        # built one (see ``SnapshotManifest.index_built``).
        self.index_rebuilt = False
        # Serializes fault-ins: two threads touching the same stub must
        # hydrate it (and emit HYDRATION_FAULTED) exactly once.
        self._hydrate_lock = threading.RLock()
        try:
            self.manifest = store.load_manifest(self._connection)
        except BaseException:
            self.close()
            raise
        self._stubs = {stub.name: stub for stub in self.manifest.sources}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, aladin) -> None:
        """Register every source by name and arm the fault-in seams.

        Each stub registers as a deferred repository record: nothing is
        decoded until the record is first read (:meth:`_source_record`),
        and no database is attached until the source is faulted in.
        """
        self._aladin = aladin
        for stub in self.manifest.sources:
            aladin.repository.register_deferred(
                stub.name,
                functools.partial(self._source_record, stub),
                functools.partial(self._source_structure, stub),
            )
        aladin.repository.set_deferred_links(self._load_links, self.lookup_links)
        aladin.web.set_hydrator(self.hydrate)
        aladin.web.set_sql_pushdown(self.try_select)
        aladin.web.set_page_pushdown(self.read_page, self.read_siblings)

    def _source_structure(self, stub: SourceStub):
        return self._store.load_source_structure(self._connection(), stub)

    def _source_record(self, stub: SourceStub) -> SourceRecord:
        """One source's repository record, decoded from the snapshot.

        Statistics are rebuilt arithmetically from the persisted
        profiles; the record is the one copy hydration later hands the
        linking engine too.
        """
        metadata = self._store.load_source_metadata(self._connection(), stub)
        return SourceRecord(
            structure=metadata.structure,
            statistics={
                attr: statistics_from_profile(attr, profile)
                for attr, profile in metadata.profiles.items()
            },
            profiles=metadata.profiles,
            sample_rows=metadata.samples,
            row_counts=stub.row_counts,
        )

    def _connection(self) -> sqlite3.Connection:
        local = self._conn_local
        conn = getattr(local, "conn", None)
        if conn is None:
            conn = self._store._connect(  # noqa: SLF001
                read_only=True, cross_thread=True
            )
            with self._conn_lock:
                self._conns.append(conn)
            local.conn = conn
        return conn

    def close(self) -> None:
        # Swap in a fresh thread-local map first so a racing reader can
        # only reopen (harmless), never observe a half-closed connection
        # through a stale slot.
        self._conn_local = threading.local()
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    # ------------------------------------------------------------------
    # hydration
    # ------------------------------------------------------------------
    def hydrate(self, name: Optional[str] = None) -> None:
        """Fault one source (or, with ``None``, every remaining one) in.

        Unknown names are ignored — the caller's own lookup then fails
        exactly as it would on a fully resident system.
        """
        if name is None:
            for stub_name in sorted(self._stubs):
                self._hydrate_one(stub_name)
            self._materialize_rest()
        elif name in self._stubs:
            self._hydrate_one(name)

    def _materialize_rest(self) -> None:
        """Fault in the non-source lazies too: links and index postings.

        A full fault-in precedes maintenance writes, and a write
        transaction on the same snapshot file must not find this session
        still needing to read from it mid-write — so nothing stays
        deferred once everything else is resident.
        """
        aladin = self._aladin
        if aladin is None:
            return
        aladin.repository.attribute_links()  # triggers the deferred load
        index = aladin._index  # noqa: SLF001 - session owns wiring
        if isinstance(index, LazyInvertedIndex):
            index._ensure_all()  # noqa: SLF001

    def _trace(self):
        """The owning system's tracer, or ``None`` (obs off / detached)."""
        aladin = self._aladin
        obs = getattr(aladin, "obs", None)
        return None if obs is None else obs.trace_or_none

    def _metrics(self):
        aladin = self._aladin
        obs = getattr(aladin, "obs", None)
        return None if obs is None else obs.metrics_or_none

    def _hydrate_one(self, name: str) -> None:
        # Unlocked fast path, then double-checked under the lock.
        if name in self._hydrated or self._aladin is None:
            return
        with self._hydrate_lock:
            if name in self._hydrated:
                return
            tracer = self._trace()
            if tracer is None:
                self._hydrate_locked(name)
            else:
                with tracer.span("persist.hydration_fault", source=name) as span:
                    self._hydrate_locked(name)
                    span.set(payload_bytes=self._hydrated.get(name, 0))

    def _hydrate_locked(self, name: str) -> None:
        stub = self._stubs[name]
        body = self._store.load_source_body(stub, self._connection())
        aladin = self._aladin
        # Resolved from the metadata the body load just decoded (or an
        # earlier touch did): one statistics build per source, shared by
        # the repository and the engine as on the eager path.
        record = aladin.repository.source(name)
        database = body.database
        for attr, profile in record.profiles.items():
            database.table(attr.table).columns.restore_profile(attr.column, profile)
        if self._cells_available(name):
            for table in database.tables():
                table.columns.attach_backing(
                    SnapshotColumnSource(self, name, table.name)
                )
        self._hydrated[name] = body.payload_bytes
        try:
            aladin._engine.restore_source(  # noqa: SLF001 - session owns wiring
                database, record.structure, record.statistics
            )
            aladin._databases[name] = database
            aladin.web.attach_database(name, database)
            if stub.format_name is not None:
                aladin._raw_inputs[name] = (
                    stub.format_name,
                    body.raw_text,
                    stub.import_options,
                )
        except BaseException:
            # Unwind so a failed fault-in is retryable, not half-attached.
            self._hydrated.pop(name, None)
            self._evict_from_system(aladin, name)
            raise
        obs = getattr(aladin, "obs", None)
        if obs is not None:
            obs.events.emit(
                HYDRATION_FAULTED, source=name, payload_bytes=body.payload_bytes
            )

    @staticmethod
    def _evict_from_system(aladin, name: str) -> None:
        try:
            aladin.web.detach_database(name)
        except Exception:  # noqa: BLE001 - best-effort unwind
            pass
        aladin._databases.pop(name, None)
        aladin._raw_inputs.pop(name, None)
        try:
            if name in aladin._engine.source_names():
                aladin._engine.deregister_source(name)
        except Exception:  # noqa: BLE001 - best-effort unwind
            pass

    def release(self, name: str) -> bool:
        """Evict one hydrated source's rows; re-faulted on next touch.

        Refused once maintenance has written through this system: the
        in-memory state may then be ahead of the snapshot, and a re-fault
        could resurrect stale rows.

        Eviction takes ``_hydrate_lock``: a reader mid-fault in another
        thread must never observe a half-evicted source, and an eviction
        must never tear down a source whose fault-in is still attaching.
        """
        with self._hydrate_lock:
            if name not in self._hydrated:
                return False
            if self._maintained:
                raise SnapshotError(
                    "cannot release a source after maintenance writes; "
                    "reopen the snapshot for a fresh lazy session"
                )
            self._evict_from_system(self._aladin, name)
            del self._hydrated[name]
            return True

    def forget(self, name: str) -> None:
        """Drop a removed source's stub so it can never re-fault."""
        self._stubs.pop(name, None)
        self._hydrated.pop(name, None)
        self._pushdown_counts.pop(name, None)
        self._cells_cache.pop(name, None)
        self._verified.pop(name, None)
        self._paged.discard(name)

    def note_maintenance(self) -> None:
        self._maintained = True

    # ------------------------------------------------------------------
    # deferred links
    # ------------------------------------------------------------------
    def _load_links(self, repository) -> None:
        conn = self._connection()
        try:
            attribute_links = [
                codec.attribute_link_from_dict(payload)
                for payload in _decode_payloads(
                    conn, "SELECT payload FROM attribute_links ORDER BY rowid"
                )
            ]
            object_links = [
                codec.object_link_from_dict(payload)
                for payload in _decode_payloads(
                    conn, "SELECT payload FROM object_links ORDER BY rowid"
                )
            ]
        except (sqlite3.DatabaseError, json.JSONDecodeError, KeyError,
                ValueError, TypeError) as exc:
            raise SnapshotError(
                f"snapshot {self._store.path!r} is corrupted: {exc}"
            ) from exc
        for link in attribute_links:
            repository.add_attribute_link(link)
        repository.add_object_links(object_links)

    def lookup_links(self, source: str, accession: str) -> Optional[List[ObjectLink]]:
        """One object's links straight from the snapshot, or None to decline.

        Returns exactly the adjacency list a whole-web replay would build
        for ``(source, accession)``: matching rows in rowid order, deduped
        on :meth:`ObjectLink.key` with the first row winning, and a
        self-link listed once per matching endpoint. Any SQLite or decode
        error (e.g. no JSON1 support) declines; the caller then replays
        the whole web, which reports a corrupted file as SnapshotError.
        """
        try:
            candidates = [
                codec.object_link_from_dict(payload)
                for payload in _decode_payloads(
                    self._connection(), LINK_LOOKUP_SQL, (source, accession)
                )
            ]
        except (sqlite3.Error, json.JSONDecodeError, KeyError,
                ValueError, TypeError):
            self._count_decline("links")
            return None
        identity = (source, accession)
        seen = set()
        links = []
        for link in candidates:
            key = link.key()
            if key not in seen:
                seen.add(key)
                links.extend(
                    link for endpoint in link.endpoints() if endpoint == identity
                )
        # Not a per-source pushdown hit: links belong to no one source.
        self._link_lookups += 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("persist.pushdown.links.accepted").inc()
        return links

    # ------------------------------------------------------------------
    # pushdown: point lookups
    # ------------------------------------------------------------------
    def _cells_available(self, source: str) -> bool:
        """Does this file carry a cells slice for ``source``?

        A source with no non-null scalar cell has no slice, so its
        lookups decline to the in-memory path.
        """
        cached = self._cells_cache.get(source)
        if cached is None:
            try:
                cached = (
                    self._connection()
                    .execute(
                        "SELECT 1 FROM cells WHERE source = ? LIMIT 1", (source,)
                    )
                    .fetchone()
                    is not None
                )
            except sqlite3.Error:
                cached = False
            self._cells_cache[source] = cached
        return cached

    def lookup_row_ids(
        self, source: str, table: str, column: str, value: Any
    ) -> Optional[List[int]]:
        """Ascending row ids where ``column = value``, or None to decline."""
        probe = _probe_value(value)
        if probe is None or not self._cells_available(source):
            self._count_decline("lookup")
            return None
        try:
            rows = self._connection().execute(
                "SELECT row_id FROM cells WHERE source = ? AND table_name = ? "
                "AND column_name = ? AND value = ? ORDER BY row_id",
                (source, table, column, probe),
            ).fetchall()
        except (sqlite3.Error, OverflowError):
            self._count_decline("lookup")
            return None
        self._count_pushdown(source, "lookup")
        return [row_id for (row_id,) in rows]

    def aggregate(
        self, source: str, table: str, column: str, op: str
    ) -> Optional[Any]:
        """COUNT / COUNT DISTINCT / MIN / MAX without hydrating, or None.

        Answered over the cells index, which carries every non-null cell
        SQLite can represent exactly — the same population the persisted
        ColumnProfiles describe for clean data. Declines (returns None)
        for hydrated sources, where memory is authoritative and cheaper.
        """
        expressions = {
            "count": "COUNT(value)",
            "distinct": "COUNT(DISTINCT value)",
            "min": "MIN(value)",
            "max": "MAX(value)",
        }
        if op not in expressions:
            raise ValueError(
                f"unknown aggregate {op!r}; expected one of "
                f"{sorted(expressions)}"
            )
        if source in self._hydrated or source not in self._stubs:
            self._count_decline("aggregate")
            return None
        if not self._cells_available(source):
            self._count_decline("aggregate")
            return None
        try:
            row = self._connection().execute(
                f"SELECT {expressions[op]} FROM cells "
                "WHERE source = ? AND table_name = ? AND column_name = ?",
                (source, table, column),
            ).fetchone()
        except sqlite3.Error:
            self._count_decline("aggregate")
            return None
        self._count_pushdown(source, "aggregate")
        return row[0]

    def _count_pushdown(self, source: str, kind: str = "select") -> None:
        self._pushdown_counts[source] = self._pushdown_counts.get(source, 0) + 1
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(f"persist.pushdown.{kind}.accepted").inc()

    def _count_decline(self, kind: str) -> None:
        """An answered-in-memory fallback; declining is correct, just slower."""
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter(f"persist.pushdown.{kind}.declined").inc()

    # ------------------------------------------------------------------
    # pushdown: object pages
    # ------------------------------------------------------------------
    def read_page(self, source: str, accession: Any):
        """One object's page from the snapshot, or DECLINED.

        Finds the object's primary rows through the ``cells`` index,
        walks each secondary table's shortest path forward by ``cells``
        lookups on the join columns (:func:`walk_annotations`, the walk a
        resident page takes over its in-memory indexes), and decodes only
        the rows it reaches, all in one read transaction with the slice's
        verified content hash. Decodes the source's structure, nothing
        else of its metadata, and hydrates nothing.

        Only the source's first page read in this session is answered
        so; every later one declines, and the caller hydrates the source.
        """
        return self._read_object(
            source, "page",
            lambda reader, resolver, structure: reader.page(
                resolver, list(structure.secondary_paths), source, accession
            ),
            first_only=True,
        )

    def read_siblings(self, source: str, accession: Any, limit: int):
        """A bounded prefix of a source's other primary accessions from
        the snapshot, or DECLINED."""
        if limit < 0:
            self._count_decline("siblings")
            return DECLINED  # a negative slice bound counts from the end
        return self._read_object(
            source, "siblings",
            lambda reader, resolver, _structure: reader.siblings(
                resolver, accession, limit
            ),
        )

    def _claim_first_page(self, source: str) -> bool:
        with self._paged_lock:
            if source in self._paged:
                return False
            self._paged.add(source)
            return True

    def _read_object(self, source: str, kind: str, read, first_only: bool = False):
        """Run ``read(slice reader, resolver, structure)`` over ``source``'s
        verified slice; a source without pages answers ``read``'s empty
        answer without reading. With ``first_only``, only the first such
        read of the source in this session reads at all."""
        if (
            source in self._hydrated
            or source not in self._stubs
            or not self._cells_available(source)
        ):
            self._count_decline(kind)
            return DECLINED
        structure = self._aladin.repository.structure(source)
        try:
            resolver = ObjectResolver(None, structure)
        except ValueError:  # no primary relation: no pages
            self._count_pushdown(source, kind)
            return None if kind == "page" else []
        if first_only and not self._claim_first_page(source):
            self._count_decline(kind)
            return DECLINED
        conn = self._connection()
        try:
            with _read_transaction(conn):
                row = conn.execute(
                    "SELECT content_hash FROM sources WHERE name = ?", (source,)
                ).fetchone()
                answer = DECLINED
                if row is not None:
                    answer = read(
                        _SliceReader(conn, source, *self._verify(conn, source, row[0])),
                        resolver,
                        structure,
                    )
        except (sqlite3.Error, OverflowError, ValueError, TypeError):
            answer = DECLINED
        if answer is DECLINED:
            self._count_decline(kind)
        else:
            self._count_pushdown(source, kind)
        return answer

    def _verify(
        self, conn: sqlite3.Connection, source: str, content_hash: str
    ) -> Tuple[Dict[str, List[str]], Dict[Tuple[str, str], bool]]:
        """The verified slice's column names and its cells checks so far;
        verifies a hash not seen yet.

        Runs in the caller's read transaction, so the rows it reads next
        belong to the hash checked here. A mismatch raises SnapshotError.
        """
        known = self._verified.get(source)
        if known is None or known[0] != content_hash:
            with self._verify_lock:
                known = self._verified.get(source)
                if known is None or known[0] != content_hash:
                    known = (
                        content_hash,
                        self._store.verify_source_slice(conn, source, content_hash),
                        {},
                    )
                    self._verified[source] = known
        return known[1], known[2]

    # ------------------------------------------------------------------
    # pushdown: single-table SELECT
    # ------------------------------------------------------------------
    def try_select(self, source: str, statement: str) -> Optional[ResultSet]:
        """Answer a SELECT from the snapshot, or None to decline.

        Parse errors propagate as :class:`~repro.relational.sql.SqlError`
        — the same exception the in-memory path raises — so declining
        never changes a statement's error shape, only where rows come
        from.
        """
        if source not in self._stubs or source in self._hydrated:
            self._count_decline("select")
            return None
        plan = plan_select(statement)
        tracer = self._trace()
        if tracer is None:
            result = self._execute_plan(source, plan)
        else:
            with tracer.span("persist.pushdown.select", source=source) as span:
                result = self._execute_plan(source, plan)
                span.set(accepted=result is not None)
        if result is None:
            self._count_decline("select")
        return result

    def _execute_plan(self, source: str, plan: SelectPlan) -> Optional[ResultSet]:
        if plan.joins:
            return None  # joins need the in-memory hash-join machinery
        conn = self._connection()
        try:
            schema_row = conn.execute(
                "SELECT schema FROM table_schemas "
                "WHERE source = ? AND table_name = ?",
                (source, plan.table.lower()),
            ).fetchone()
        except sqlite3.Error:
            return None
        if schema_row is None:
            # Unknown table: decline, so hydration raises the engine's
            # own SchemaError with its exact message.
            return None
        try:
            schema = codec.schema_from_dict(codec.canonical_loads(schema_row[0]))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            return None
        column_names = schema.column_names

        # Scan the stored rows and decode them in one parse; one bare
        # equality in WHERE additionally narrows the scan through the
        # cells index before a single payload is decoded. The predicate is
        # still re-evaluated in Python on what comes back, so the index is
        # an I/O filter, never the semantics.
        sql = "SELECT data FROM rows WHERE source = ? AND table_name = ?"
        params: List[Any] = [source, plan.table.lower()]
        equality = _simple_equality(plan.where)
        if equality is not None:
            column, value = equality
            probe = _probe_value(value)
            if (
                "." not in column
                and column in column_names
                and probe is not None
                and self._cells_available(source)
            ):
                sql += (
                    " AND row_id IN (SELECT row_id FROM cells "
                    "WHERE source = ? AND table_name = ? "
                    "AND column_name = ? AND value = ?)"
                )
                params += [source, plan.table.lower(), column, probe]
        sql += " ORDER BY row_id"
        try:
            decoded = _decode_payloads(conn, sql, tuple(params))
        except (sqlite3.Error, OverflowError, ValueError, TypeError):
            return None
        rows = [dict(zip(column_names, tup)) for tup in decoded]

        # From here on this is Query.execute for the single-table case,
        # sharing its helpers so ordering/dedup rules cannot drift.
        if plan.where is not None:
            rows = [row for row in rows if plan.where.evaluate(row)]
        for column, descending in reversed(plan.order_by):
            rows = _stable_sort(rows, column, descending)
        if plan.columns != ["*"]:
            columns: List[str] = []
            for name in plan.columns:
                if name == "*":
                    columns.extend(column_names)
                else:
                    columns.append(name)
        else:
            columns = list(column_names)
        projected = []
        for row in rows:
            projected.append(
                {
                    name: row[name] if name in row else _resolve_bare(row, name)
                    for name in columns
                }
            )
        if plan.distinct:
            projected = _distinct_rows(projected, columns)
        if plan.limit is not None:
            projected = projected[: plan.limit]
        self._count_pushdown(source)
        return ResultSet(columns=columns, rows=projected)

    # ------------------------------------------------------------------
    # lazy index reads
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _index_read(self):
        """Yield ``(index generation, connection)`` in one WAL snapshot."""
        conn = self._connection()
        try:
            with _read_transaction(conn):
                yield read_index_generation(conn), conn
        except sqlite3.Error as exc:
            raise SnapshotError(
                f"snapshot {self._store.path!r} is corrupted: {exc}"
            ) from exc

    def fetch_document_totals(self) -> Tuple[str, Tuple[int, int]]:
        """The index's document count and length sum, one aggregate."""
        with self._index_read() as (generation, conn):
            count, total = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(length), 0) FROM index_documents"
            ).fetchone()
        return generation, (count, total)

    def fetch_token_postings(self, token: str) -> Tuple[str, List[Tuple]]:
        """One token's postings in (document, insertion) order, each with
        its document's source, accession and length (NULL for a posting
        whose document is gone)."""
        with self._index_read() as (generation, conn):
            return generation, conn.execute(
                "SELECT p.doc, p.field, p.frequency, d.source, d.accession, "
                "d.length FROM index_postings AS p "
                "LEFT JOIN index_documents AS d ON d.id = p.doc "
                "WHERE p.token = ? ORDER BY p.doc, p.rowid",
                (token,),
            ).fetchall()

    def fetch_index(
        self,
    ) -> Tuple[str, List[Tuple], Dict[int, List[Tuple[str, str, int]]]]:
        """The whole index: documents in id order, postings per document."""
        by_pk: Dict[int, List[Tuple[str, str, int]]] = {}
        with self._index_read() as (generation, conn):
            documents = conn.execute(
                "SELECT id, source, accession, length, is_primary "
                "FROM index_documents ORDER BY id"
            ).fetchall()
            for doc, token, field_name, frequency in conn.execute(
                "SELECT doc, token, field, frequency FROM index_postings "
                "ORDER BY rowid"
            ):
                by_pk.setdefault(doc, []).append((token, field_name, frequency))
        return generation, documents, by_pk

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Hydration and pushdown accounting for ``Aladin.hydration_stats``.

        "Hydrated" means resident in memory: stubs that were faulted in,
        plus any source added after the open — those never came from the
        snapshot, so their ``resident_bytes`` (snapshot payload faulted
        in) is 0. "Decoded" lists the stubs whose structure has been
        decoded: a browse, a bare structure read and a hydration each
        decode it.
        """
        resident = set(self._hydrated)
        if self._aladin is not None:
            resident |= set(self._aladin._databases)
        per_source = {
            name: {
                "hydrated": name in resident,
                "resident_bytes": self._hydrated.get(name, 0),
                "pushdown_hits": self._pushdown_counts.get(name, 0),
            }
            for name in sorted(set(self._stubs) | resident)
        }
        return {
            "lazy": True,
            "sources": len(per_source),
            "hydrated": sorted(resident),
            "decoded": sorted(
                name for name, stub in self._stubs.items() if stub.decoded
            ),
            "resident_bytes": sum(self._hydrated.values()),
            "pushdown_hits": sum(self._pushdown_counts.values()),
            "link_lookups": self._link_lookups,
            "links_loaded": self._aladin.repository.links_loaded,
            "index_rebuilt": self.index_rebuilt,
            "per_source": per_source,
        }
