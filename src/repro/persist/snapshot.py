"""SQLite-backed snapshot store: durable integrated state, warm starts.

The paper's promise is that integration happens *once*; before this
subsystem every process restart re-imported, re-discovered, and re-linked
every source from raw text. A snapshot serializes the entire integrated
state — per-source relational tables, the one-time ColumnProfile
statistics, the discovered structure, the link web, and the BM25 inverted
index — so reopening rehydrates everything directly into the in-memory
caches without running a single discovery, linking, or indexing step.

Layout (one SQLite file):

* ``manifest`` — magic marker, format version, index-built flag (every
  write sets it; a file written before every system kept its index may
  carry ``"0"`` and no index rows, and ``Aladin.open`` builds the index
  for such a file);
* ``sources`` — per-source record: content hash, raw input (format, text,
  import options) for later ``update_source`` calls, discovered structure,
  sample rows, row counts;
* ``table_schemas`` / ``rows`` — the relational data, one JSON-encoded
  tuple per row;
* ``profiles`` — the per-column ColumnProfile statistics (Section 4.4's
  compute-once statistics survive restarts);
* ``attribute_links`` / ``object_links`` — the link web, each link stored
  once with its endpoint sources as indexed columns; two expression
  indexes on ``(source, accession)`` per endpoint make one object's links
  a point read;
* ``index_documents`` / ``index_postings`` — the inverted index, postings
  keyed by document so no re-tokenization happens on load.

Every per-source slice is keyed by source name, which is what makes the
incremental checkpoints cheap: ``checkpoint_source`` deletes and rewrites
exactly one source's rows, profiles, links, and postings in place. A
below-threshold ``update_source`` keeps structure and links, so its
data-only checkpoint rewrites the source's tables and profiles and
changes its index documents by the search index's delta
(:class:`~repro.access.index.DocumentDelta`); unchanged documents keep
their rowids.

An attached store writes through one long-lived connection, opened on
the first write after :meth:`SnapshotStore.attach_writer` and closed by
:meth:`SnapshotStore.detach_writer`; every serialized write runs on it
under the per-file write mutex. It commits with ``synchronous=FULL`` (a
checkpoint is durable when the call returns) and folds its WAL back into
the main file every 256 pages, truncating the WAL to 1 MiB afterwards.
While a writer is attached, the main file alone may lag the committed
state: copy it together with its ``-wal``/``-shm`` sidecars. Detaching
the last connection folds the WAL in and removes the sidecars.

Lifecycle maintenance (the two long-run failure modes of an
always-attached store):

**Online compaction.** Checkpoints are DELETE-then-rewrite, so freed
pages land on SQLite's freelist and the WAL fills between folds; removed
sources never shrink the file. :meth:`SnapshotStore.compact` rewrites the
live content into a fresh file (``VACUUM INTO`` after folding the WAL
back), re-verifies every per-source manifest content hash against the
compacted rows — and, when called with the live system, against hashes
recomputed from the *in-memory* state — and only then atomically replaces
the snapshot (``os.replace``; stale ``-wal``/``-shm`` sidecars of the old
file are removed so they can never be mis-associated with the new one).
:meth:`SnapshotStore.maybe_compact` is the hands-off policy hook run
after checkpoints: compact once the file exceeds
``PersistConfig.compact_after_bytes`` *and* the reclaimable fraction
(freelist + WAL bytes over total bytes) exceeds
``PersistConfig.compact_churn_ratio``. From the command line::

    python -m repro compact warehouse.snapshot

**Advisory writer locking.** Two processes attached to one snapshot
would silently interleave checkpoints. Any attached writer takes a
sidecar lock file (``<snapshot>.lock``) through
:class:`repro.persist.lock.SnapshotLock`:

* held via ``fcntl.flock`` where available (crash of the holder releases
  it automatically), with an ``O_CREAT | O_EXCL`` fallback that detects
  stale locks by probing the recorded holder PID;
* the lock file records the holder (PID, hostname, timestamp) so a
  refused attach names who owns the file;
* reentrant *within* a process (refcounted), exclusive *across*
  processes — in-process concurrency stays with SQLite's WAL + busy
  timeout exactly as before;
* a second process's ``Aladin.open`` fails fast with
  :class:`~repro.persist.lock.SnapshotLockedError`, blocks up to
  ``lock_timeout``, or degrades to a read-only (detached) open,
  per ``PersistConfig.lock_policy`` / the CLI's ``--read-only`` and
  ``--lock-timeout`` flags; ``force`` breaks a lock whose holder is
  known dead but undetectable (e.g. crashed on another host).
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import sqlite3
import threading
import time
import urllib.parse
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.access.index import DocumentDelta, InvertedIndex
from repro.discovery.model import AttributeRef, SourceStructure
from repro.linking.model import ObjectLink
from repro.metadata.repository import MetadataRepository
from repro.persist import codec
from repro.relational.columns import ColumnProfile
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import is_null

# Version 3: snapshots carry the `cells` value index (the SQL-pushdown
# covering index lazy readers answer point lookups from). Older builds
# must refuse v3 files: their checkpoints would rewrite a source's rows
# without maintaining its cells slice, leaving the index silently stale.
# This build reads v3 only; older files raise a clean SnapshotError.
FORMAT_VERSION = 3
_READ_VERSIONS = (FORMAT_VERSION,)
_MAGIC = "repro-aladin-snapshot"

# Manifest key every document delta bumps. A delta rewrites a surviving
# document's postings under its old ``index_documents.id``, so a lazy
# reader cannot see by key that the index moved under it: it compares
# this generation instead (absent until the first delta).
_INDEX_GENERATION = "index_generation"

# The attached writer connection's settings. FULL syncs the WAL on every
# commit, so a checkpoint is durable when the call returns (per-write
# connections got that from the WAL fold on close). The WAL bound: a
# commit that leaves more than 256 pages (1 MiB at the default page size)
# in the WAL folds them back into the main file, and a WAL reset
# truncates the file to 1 MiB — so the WAL stays far below the
# auto-compaction size threshold, and compaction fires no more often
# than with per-write connections, which folded the WAL on every close.
_WRITER_PRAGMAS = (
    "PRAGMA synchronous = FULL",
    "PRAGMA wal_autocheckpoint = 256",
    "PRAGMA journal_size_limit = 1048576",
)


def _encode_row(tup) -> str:
    """Encode one raw row tuple as its ``rows.data`` payload.

    ``canonical_json`` rather than bare ``json.dumps``: a REAL cell can
    hold a non-finite float (hostile input parsed with ``float``), which
    must become the explicit marker encoding, never an invalid bare
    ``NaN`` token.
    """
    return codec.canonical_json(list(tup))


def _file_id(path: str) -> Optional[Tuple[int, int]]:
    """(device, inode) of the file at ``path``, or None if there is none."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


def _hash_stored_source(
    conn: sqlite3.Connection, name: str, schemas: Optional[Dict[str, str]] = None
) -> str:
    """Recompute one stored source's content hash from its persisted slice.

    Byte-for-byte the hashing order of ``_write_tables`` / ``_load_tables``:
    per table (sorted by name) the canonical schema JSON, then every row
    payload in row-id order. Each hashed schema JSON is also kept in
    ``schemas`` (table name -> JSON) when one is passed.
    """
    hasher = hashlib.sha256()
    for table_name, schema_json in conn.execute(
        "SELECT table_name, schema FROM table_schemas "
        "WHERE source = ? ORDER BY table_name",
        (name,),
    ):
        hasher.update(schema_json.encode("utf-8"))
        if schemas is not None:
            schemas[table_name] = schema_json
        for (data,) in conn.execute(
            "SELECT data FROM rows WHERE source = ? AND table_name = ? "
            "ORDER BY row_id",
            (name, table_name),
        ):
            hasher.update(data.encode("utf-8"))
    return hasher.hexdigest()


def _hash_memory_source(database) -> str:
    """The content hash of a live in-memory source, same byte order.

    ``Database.table_names()`` is sorted, matching the stored slice's
    ``ORDER BY table_name``.
    """
    hasher = hashlib.sha256()
    for table_name in database.table_names():
        table = database.table(table_name)
        schema_json = codec.canonical_json(codec.schema_to_dict(table.schema))
        hasher.update(schema_json.encode("utf-8"))
        for tup in table.raw_rows():
            hasher.update(_encode_row(tup).encode("utf-8"))
    return hasher.hexdigest()


_TABLES = (
    "manifest",
    "sources",
    "table_schemas",
    "rows",
    "profiles",
    "attribute_links",
    "object_links",
    "index_documents",
    "index_postings",
    "cells",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS manifest (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sources (
    name TEXT PRIMARY KEY,
    content_hash TEXT NOT NULL,
    format_name TEXT,
    raw_text TEXT,
    import_options TEXT,
    structure TEXT NOT NULL,
    samples TEXT NOT NULL,
    row_counts TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS table_schemas (
    source TEXT NOT NULL,
    table_name TEXT NOT NULL,
    schema TEXT NOT NULL,
    PRIMARY KEY (source, table_name)
);
CREATE TABLE IF NOT EXISTS rows (
    source TEXT NOT NULL,
    table_name TEXT NOT NULL,
    row_id INTEGER NOT NULL,
    data TEXT NOT NULL,
    PRIMARY KEY (source, table_name, row_id)
);
CREATE TABLE IF NOT EXISTS profiles (
    source TEXT NOT NULL,
    table_name TEXT NOT NULL,
    column_name TEXT NOT NULL,
    profile TEXT NOT NULL,
    PRIMARY KEY (source, table_name, column_name)
);
CREATE TABLE IF NOT EXISTS attribute_links (
    source TEXT NOT NULL,
    target TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_attribute_links_source ON attribute_links (source);
CREATE INDEX IF NOT EXISTS idx_attribute_links_target ON attribute_links (target);
CREATE TABLE IF NOT EXISTS object_links (
    source_a TEXT NOT NULL,
    source_b TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_object_links_a ON object_links (source_a);
CREATE INDEX IF NOT EXISTS idx_object_links_b ON object_links (source_b);
CREATE INDEX IF NOT EXISTS idx_object_links_a_accession
    ON object_links (source_a, json_extract(payload, '$.accession_a'));
CREATE INDEX IF NOT EXISTS idx_object_links_b_accession
    ON object_links (source_b, json_extract(payload, '$.accession_b'));
CREATE TABLE IF NOT EXISTS index_documents (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    source TEXT NOT NULL,
    accession TEXT NOT NULL,
    length INTEGER NOT NULL,
    is_primary INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_index_documents_source ON index_documents (source);
CREATE TABLE IF NOT EXISTS index_postings (
    source TEXT NOT NULL,
    doc INTEGER NOT NULL,
    token TEXT NOT NULL,
    field TEXT NOT NULL,
    frequency INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_index_postings_source ON index_postings (source);
CREATE INDEX IF NOT EXISTS idx_index_postings_doc ON index_postings (doc);
CREATE INDEX IF NOT EXISTS idx_index_postings_token ON index_postings (token);
CREATE TABLE IF NOT EXISTS cells (
    source TEXT NOT NULL,
    table_name TEXT NOT NULL,
    column_name TEXT NOT NULL,
    row_id INTEGER NOT NULL,
    value NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_lookup
    ON cells (source, table_name, column_name, value, row_id);
"""


# One object's link rows, in rowid order. SQLite runs it as a MULTI-INDEX
# OR over the two accession indexes above, whose expressions must stay
# textually identical to these or the planner falls back to scanning the
# source's links (``tests/persist/test_link_pushdown.py`` pins the plan).
# A file without those indexes answers the same statement by that scan.
LINK_LOOKUP_SQL = (
    "SELECT payload FROM object_links WHERE "
    "(source_a = ?1 AND json_extract(payload, '$.accession_a') = ?2) "
    "OR (source_b = ?1 AND json_extract(payload, '$.accession_b') = ?2) "
    "ORDER BY rowid"
)


def _ensure_schema(conn: sqlite3.Connection) -> None:
    """Create any missing tables/indexes inside the current transaction.

    Statement-by-statement rather than ``executescript``, which issues an
    implicit COMMIT first and would split a write's transaction.
    """
    for statement in _SCHEMA.split(";"):
        statement = statement.strip()
        if statement:
            conn.execute(statement)


# ``cells`` carries one row per non-null scalar cell of every stored
# table — the value column is typeless (BLOB affinity, no coercion) so
# TEXT/INTEGER/REAL probes compare exactly as Python equality does on
# the in-memory row tuples. Cells a SQLite bind cannot represent
# losslessly are skipped; lookups for such probe values must therefore
# fall back to the in-memory path (see ``_cell_value``).
def _cell_value(value: Any) -> Optional[Any]:
    """The bindable cells representation of one cell, or None to skip.

    NULL/NaN cells are excluded by the caller (``is_null`` — matching the
    row_ids index, which is non-null only). Out-of-64-bit ints overflow
    the SQLite bind; anything non-scalar has no exact SQL equality.
    ±inf is representable (SQLite REAL) and kept.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value if -(2 ** 63) <= value < 2 ** 63 else None
    if isinstance(value, (float, str)):
        return value
    return None


@contextmanager
def _read_transaction(conn: sqlite3.Connection):
    """Run the enclosed reads in one transaction: one WAL snapshot.

    Read-only: the transaction is rolled back at the end. Inside an
    already open transaction it joins that one.
    """
    if conn.in_transaction:
        yield
        return
    conn.execute("BEGIN")
    try:
        yield
    finally:
        try:
            conn.rollback()
        except sqlite3.Error:
            pass


def read_index_generation(conn: sqlite3.Connection) -> str:
    """The snapshot's index generation (see ``_INDEX_GENERATION``)."""
    row = conn.execute(
        "SELECT value FROM manifest WHERE key = ?", (_INDEX_GENERATION,)
    ).fetchone()
    return "0" if row is None else row[0]


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupted, or from another format version."""


@dataclass
class PersistConfig:
    """Snapshot lifecycle knobs: writer locking and online compaction.

    A *host* property — it governs how this process treats snapshot
    files, not what the integrated data means — so it is not restored
    from snapshots.

    ``lock_policy`` decides what a writer attach does when another
    process holds the lock: ``"fail"`` raises
    :class:`~repro.persist.lock.SnapshotLockedError` immediately,
    ``"block"`` waits up to ``lock_timeout`` seconds before raising, and
    ``"readonly"`` degrades the open to a detached (non-checkpointing)
    system instead of raising.

    Auto-compaction runs after checkpoints once the snapshot (main file
    plus WAL) exceeds ``compact_after_bytes`` *and* the reclaimable
    fraction — freed pages plus WAL over total bytes — exceeds
    ``compact_churn_ratio``. An attached writer's WAL holds committed
    pages that are live until folded back into the main file (every 256
    pages, or by compaction); it counts as reclaimable because folding
    it frees the WAL, not the data. ``auto_compact=False`` leaves
    compaction fully manual (:meth:`SnapshotStore.compact`,
    ``repro compact``).
    """

    lock_policy: str = "fail"  # "fail" | "block" | "readonly"
    lock_timeout: float = 10.0  # seconds to wait under the "block" policy
    auto_compact: bool = True
    compact_after_bytes: int = 4 * 1024 * 1024
    compact_churn_ratio: float = 0.5


@dataclass
class CompactionStats:
    """What one :meth:`SnapshotStore.compact` run did."""

    bytes_before: int  # main file + WAL before compaction
    bytes_after: int
    reclaimed_bytes: int
    seconds: float
    sources_verified: int  # per-source content hashes re-checked

    def render(self) -> str:
        return (
            f"compacted {self.bytes_before} -> {self.bytes_after} bytes "
            f"(reclaimed {self.reclaimed_bytes}, "
            f"{self.sources_verified} sources verified, "
            f"{self.seconds * 1000:.0f} ms)"
        )


@dataclass
class SourceMetadata:
    """One source's decoded metadata: structure, profiles, samples.

    ``profiles`` are in (table, column) order — the order every reader
    of a snapshot has always restored them in.
    """

    structure: SourceStructure
    profiles: Dict[AttributeRef, ColumnProfile]
    samples: Dict[str, List[dict]]


@dataclass
class SourceStub:
    """One source's manifest slice: what a lazy open needs, nothing more.

    The open reads only the name, content hash, format, import options,
    and row counts. The source's structure stays encoded in the file
    until its first read (:meth:`structure`, fed by
    :meth:`SnapshotStore.load_source_structure`), its ColumnProfiles and
    samples until the first read of the whole record (:meth:`metadata`,
    fed by :meth:`SnapshotStore.load_source_metadata` or by a
    hydration's :meth:`SnapshotStore.load_source_body`); the raw text
    and row payloads stay on disk until hydration.
    """

    name: str
    content_hash: str
    row_counts: Dict[str, int]
    format_name: Optional[str] = None
    import_options: Dict[str, Any] = field(default_factory=dict)
    _structure: Optional[SourceStructure] = field(
        default=None, init=False, repr=False, compare=False
    )
    _metadata: Optional[SourceMetadata] = field(
        default=None, init=False, repr=False, compare=False
    )
    # Concurrent first touches (serve threads) decode the source once.
    # ``threading.Lock`` is looked up per stub, not bound at import, so
    # the lock-order sanitizer can watch these locks too.
    _lock: Any = field(
        default_factory=lambda: threading.Lock(),
        init=False, repr=False, compare=False,
    )

    @property
    def decoded(self) -> bool:
        """True once this source's structure has been decoded."""
        return self._structure is not None

    def structure(self, read: Callable[[], SourceStructure]) -> SourceStructure:
        """The decoded structure; ``read()`` runs on the first call only.

        A failed ``read`` leaves the stub undecoded, so the next touch
        retries (and fails the same way on a corrupt file).
        """
        if self._structure is None:
            with self._lock:
                if self._structure is None:
                    self._structure = read()
        return self._structure

    def metadata(
        self,
        read_structure: Callable[[], SourceStructure],
        read_profiles: Callable[[], Tuple[Dict[AttributeRef, ColumnProfile],
                                          Dict[str, List[dict]]]],
    ) -> SourceMetadata:
        """The whole decoded metadata, decoding what no touch has yet.

        ``read_profiles()`` returns ``(profiles, samples)`` and, like
        ``read_structure``, runs at most once; a failure leaves that part
        undecoded for the next touch to retry.
        """
        structure = self.structure(read_structure)
        if self._metadata is None:
            with self._lock:
                if self._metadata is None:
                    profiles, samples = read_profiles()
                    self._metadata = SourceMetadata(
                        structure=structure, profiles=profiles, samples=samples
                    )
        return self._metadata


@dataclass
class SnapshotManifest:
    """The O(manifest) part of a snapshot: stubs, flags, config — no rows.

    ``config`` is the raw dict of the :class:`AladinConfig` the system was
    integrated with — the core layer rebuilds the dataclass (the persist
    layer sits below core and does not import it). ``index_built`` is
    False only for a file written without its search index.
    """

    index_built: bool
    sources: List[SourceStub]
    config: Optional[Dict[str, Any]] = None


@dataclass
class SourceBody:
    """One hydrated source body: the warm database plus its raw input."""

    name: str
    database: Database
    payload_bytes: int  # decoded row-payload volume (the RSS proxy)
    raw_text: Optional[str] = None


# One write mutex per snapshot file (realpath), shared by every store of
# this process. The advisory sidecar lock excludes other *processes*, but
# it is deliberately reentrant within one process — several stores may
# attach to one file — so in-process writers must serialize here or a
# compaction's rewrite-then-swap window could silently drop a sibling
# store's committed checkpoint (the swap replaces the inode the sibling
# just wrote to). Entries are refcounted and evicted when the last
# holder leaves, so a process that touches many distinct snapshot files
# over its lifetime does not accumulate one lock per path forever.
_WRITE_MUTEXES: Dict[str, List[Any]] = {}  # key -> [RLock, holder count]
_WRITE_MUTEXES_GUARD = threading.Lock()


class _write_mutex:
    """Context manager: hold the per-file write mutex for one operation."""

    def __init__(self, path: str):
        self._key = os.path.realpath(path)
        self._entry: Optional[List[Any]] = None

    def __enter__(self) -> "_write_mutex":
        with _WRITE_MUTEXES_GUARD:
            entry = _WRITE_MUTEXES.get(self._key)
            if entry is None:
                entry = _WRITE_MUTEXES[self._key] = [threading.RLock(), 0]
            entry[1] += 1
            self._entry = entry
        entry[0].acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        entry, self._entry = self._entry, None
        entry[0].release()
        with _WRITE_MUTEXES_GUARD:
            entry[1] -= 1
            if entry[1] == 0 and _WRITE_MUTEXES.get(self._key) is entry:
                del _WRITE_MUTEXES[self._key]


def _serialized(method):
    """Run a write method under the file's in-process write mutex.

    Reentrant (the entry's RLock), so serialized methods may call each
    other: the auto-compaction hook runs inside a checkpoint,
    ``maybe_compact`` calls ``compact``.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with _write_mutex(self.path):
            return method(self, *args, **kwargs)

    return wrapper


# Stores currently attached as writers, so fork hygiene reaches them:
# the lock module drops a child's inherited registry holds, but a child
# also inherits each store's _lock handle — without this reset the
# child's `write_locked` would claim a lock its process does not hold
# (and attach_writer would no-op instead of re-acquiring).
_ATTACHED_STORES: "weakref.WeakSet" = weakref.WeakSet()


def _forget_attached_writers() -> None:
    for store in list(_ATTACHED_STORES):
        store._lock = None
        conn, store._writer = store._writer, None
        if conn is not None:
            # The child's copy of the writer connection carries SQLite's
            # lock and WAL-index state of the *parent's* connection:
            # closing it could fold a stale WAL into the parent's file or
            # unlink the parent's live -wal. So it is never closed — one
            # reference that is never released keeps even interpreter
            # shutdown from finalizing it.
            ctypes.pythonapi.Py_IncRef(ctypes.py_object(conn))
    for store in list(_ATTACHED_STORES):
        _ATTACHED_STORES.discard(store)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_attached_writers)


class SnapshotStore:
    """One snapshot file: full save/load plus per-source checkpoints."""

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._lock = None  # SnapshotLock while attached as a writer
        # The attached writer's connection (opened on first write) and
        # the (device, inode) of the file it was opened on.
        self._writer: Optional[sqlite3.Connection] = None
        self._writer_file: Optional[Tuple[int, int]] = None
        # A copy of the config this store last wrote or found in the
        # manifest, with that manifest JSON: an unchanged config skips
        # re-encoding (see _write_config).
        self._config_written: Optional[Tuple[Any, str]] = None
        #: Optional :class:`~repro.obs.trace.Tracer`; the owning
        #: ``Aladin`` sets it so full writes and compactions record
        #: ``persist.*`` spans.  ``None`` keeps the store span-free.
        self.tracer = None

    @contextmanager
    def _span(self, name: str, **attributes):
        tracer = self.tracer
        if tracer is None:
            yield None
        else:
            with tracer.span(name, **attributes) as handle:
                yield handle

    # ------------------------------------------------------------------
    # advisory writer lock
    # ------------------------------------------------------------------
    @property
    def write_locked(self) -> bool:
        """Is this store attached as a writer (holding the sidecar lock)?"""
        return self._lock is not None

    def attach_writer(self, timeout: float = 0.0, force: bool = False) -> None:
        """Take the snapshot's advisory writer lock (see module docs).

        Raises :class:`~repro.persist.lock.SnapshotLockedError` when
        another process holds it past ``timeout`` seconds; ``force``
        breaks an existing lock first. Reentrant within this process.
        """
        from repro.persist.lock import SnapshotLock  # import cycle: lock -> errors

        if self._lock is None:
            lock = SnapshotLock(self.path)
            lock.acquire(timeout=timeout, force=force)
            self._lock = lock
            self._config_written = None
            _ATTACHED_STORES.add(self)

    @_serialized
    def detach_writer(self) -> None:
        """Close the writer connection; release this store's lock hold."""
        self._close_writer()
        if self._lock is not None:
            self._lock.release()
            self._lock = None
        _ATTACHED_STORES.discard(self)

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _connect(
        self, read_only: bool = False, cross_thread: bool = False
    ) -> sqlite3.Connection:
        # ``cross_thread`` relaxes sqlite3's same-thread check so a
        # connection can at least be *closed* from another thread (a lazy
        # session hands each worker thread its own connection but tears
        # them all down from whichever thread calls ``close``). Callers
        # must still confine each connection's queries to one thread.
        if read_only:
            # ``mode=ro`` can never take a write lock or create stray
            # -wal/-shm sidecars — what lazy readers under the read-only
            # lock policy need while a writer compacts. SQLite refuses a
            # read-only open of a WAL database whose -wal needs recovery
            # (or whose -shm it may not create); fall through to the
            # normal read-write connection in that case — reads still
            # work, the pragmas below stay safe.
            uri = f"file:{urllib.parse.quote(os.path.abspath(self.path))}?mode=ro"
            try:
                conn = sqlite3.connect(
                    uri, uri=True, check_same_thread=not cross_thread
                )
                conn.execute("PRAGMA busy_timeout = 5000")
                return conn
            except sqlite3.DatabaseError:
                pass
        try:
            conn = sqlite3.connect(self.path, check_same_thread=not cross_thread)
            # Concurrent-writer safety: WAL keeps readers unblocked while
            # an off-critical-path checkpoint (the pipelined add_source's
            # final task) writes, and the busy timeout makes two stores on
            # the same file queue instead of failing fast.
            conn.execute("PRAGMA busy_timeout = 5000")
            conn.execute("PRAGMA synchronous = NORMAL")
        except sqlite3.DatabaseError as exc:
            raise SnapshotError(
                f"{self.path!r} is not a readable snapshot: {exc}"
            ) from exc
        try:
            conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.DatabaseError:
            # Read-only media (or a file that is not a database at all —
            # the manifest check reports that case properly): rollback
            # journaling still serves plain reads.
            pass
        return conn

    @contextmanager
    def _write_connection(self):
        """The connection one serialized write runs on.

        Attached: the long-lived writer connection. Detached (a bare
        store, or a forked child whose inherited attachment was dropped):
        a connection of its own, closed when the write is done.
        """
        if self._lock is None:
            conn = self._connect()
            try:
                yield conn
            finally:
                conn.close()
            return
        if self._writer is not None and self._writer_file != _file_id(self.path):
            # A sibling store of this process compacted the file: this
            # connection still writes to the replaced inode.
            self._close_writer()
        try:
            if self._writer is None:
                self._writer = self._connect(cross_thread=True)
                self._writer_file = _file_id(self.path)
                for pragma in _WRITER_PRAGMAS:
                    self._writer.execute(pragma)
            yield self._writer
        except BaseException:
            # A failed write may leave the connection in any state; the
            # next write starts from a fresh one, as a detached store does.
            self._close_writer()
            raise

    @_serialized
    def _close_writer(self) -> None:
        conn, self._writer, self._writer_file = self._writer, None, None
        if conn is not None:
            conn.close()

    def _read_manifest(self, conn: sqlite3.Connection) -> Dict[str, str]:
        try:
            rows = conn.execute("SELECT key, value FROM manifest").fetchall()
        except sqlite3.OperationalError as exc:
            # A valid SQLite file without our tables: some other database.
            raise SnapshotError(
                f"{self.path!r} is an SQLite file but not an ALADIN snapshot "
                f"({exc})"
            ) from exc
        except sqlite3.DatabaseError as exc:
            raise SnapshotError(
                f"{self.path!r} is not a readable snapshot: {exc}"
            ) from exc
        manifest = dict(rows)
        if manifest.get("magic") != _MAGIC:
            raise SnapshotError(
                f"{self.path!r} is an SQLite file but not an ALADIN snapshot"
            )
        version = int(manifest.get("format_version", -1))
        if version not in _READ_VERSIONS:
            raise SnapshotError(
                f"snapshot {self.path!r} has format version {version}; "
                f"this build reads versions "
                f"{', '.join(str(v) for v in _READ_VERSIONS)}"
            )
        return manifest

    def _set_manifest(self, conn: sqlite3.Connection, key: str, value: str) -> None:
        conn.execute(
            "INSERT INTO manifest (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    # ------------------------------------------------------------------
    # full save
    # ------------------------------------------------------------------
    @_serialized
    def write_full(self, aladin) -> None:
        """Serialize the entire integrated state, replacing any previous
        content of the snapshot file."""
        with self._span(
            "persist.write_full", sources=len(aladin.source_names())
        ):
            with self._write_connection() as conn, conn:
                self._ensure_overwritable(conn)
                try:
                    _ensure_schema(conn)
                except sqlite3.DatabaseError as exc:
                    raise SnapshotError(
                        f"cannot write snapshot {self.path!r}: {exc}"
                    ) from exc
                for table in _TABLES:
                    conn.execute(f"DELETE FROM {table}")
                self._set_manifest(conn, "magic", _MAGIC)
                self._set_manifest(conn, "format_version", str(FORMAT_VERSION))
                self._write_config(conn, aladin, {})  # emptied above
                for name in aladin.source_names():
                    self._write_source(conn, aladin, name)
                self._write_all_links(conn, aladin.repository)
                self._write_index_full(conn, aladin._index)

    @_serialized
    def ensure_schema(self) -> None:
        """Add whatever table or index of the schema the file lacks.

        Checkpoints and ``VACUUM INTO`` keep a file's index set as it was
        written, so a file saved before an index joined the schema would
        never gain it. An attached writer runs this once at open; a reader
        writes nothing and answers from the file as it is.
        """
        with self._write_connection() as conn, conn:
            self._read_manifest(conn)
            try:
                _ensure_schema(conn)
            except sqlite3.DatabaseError as exc:
                raise SnapshotError(
                    f"cannot write snapshot {self.path!r}: {exc}"
                ) from exc

    def _ensure_overwritable(self, conn: sqlite3.Connection) -> None:
        """Refuse to clobber an SQLite file that is not ours.

        A fresh or empty file is fine; anything carrying tables must bear
        the snapshot magic (any format version — overwriting an outdated
        snapshot is the upgrade path). This keeps ``save`` from silently
        deleting data out of an unrelated application database.
        """
        try:
            has_tables = conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' LIMIT 1"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise SnapshotError(
                f"{self.path!r} is not a readable snapshot: {exc}"
            ) from exc
        if not has_tables:
            return
        magic = None
        try:
            row = conn.execute(
                "SELECT value FROM manifest WHERE key = 'magic'"
            ).fetchone()
            magic = row[0] if row else None
        except sqlite3.DatabaseError:
            pass
        if magic != _MAGIC:
            raise SnapshotError(
                f"refusing to overwrite {self.path!r}: it is an SQLite "
                "database but not an ALADIN snapshot"
            )

    def _write_source(self, conn: sqlite3.Connection, aladin, name: str) -> None:
        record = aladin.repository.source(name)
        content_hash = self._write_tables(conn, name, aladin.database(name))
        self._write_profiles(conn, name, record.profiles)
        raw = aladin._raw_inputs.get(name)
        conn.execute(
            "INSERT INTO sources (name, content_hash, format_name, raw_text, "
            "import_options, structure, samples, row_counts) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                name,
                content_hash,
                raw[0] if raw else None,
                raw[1] if raw else None,
                codec.canonical_json(raw[2]) if raw else None,
                codec.canonical_json(codec.structure_to_dict(record.structure)),
                codec.canonical_json(record.sample_rows),
                codec.canonical_json(record.row_counts),
            ),
        )

    def _write_tables(
        self, conn: sqlite3.Connection, name: str, database: Database
    ) -> str:
        """Insert every table of ``database``; return the content hash."""
        # This hash walk (per table sorted by name: schema JSON, then row
        # payloads in row-id order) is the content-hash definition;
        # ``_load_tables``, ``_hash_stored_source``, and
        # ``_hash_memory_source`` replay it byte for byte, and the
        # compaction tests fail loudly if any of the four drift.
        hasher = hashlib.sha256()
        for table_name in database.table_names():
            schema_json, payloads = self._write_table(
                conn, name, database.table(table_name)
            )
            hasher.update(schema_json.encode("utf-8"))
            for data in payloads:
                hasher.update(data.encode("utf-8"))
        return hasher.hexdigest()

    def _write_table(
        self, conn: sqlite3.Connection, name: str, table: Table
    ) -> Tuple[str, List[str]]:
        """Insert one table's schema, rows, and cells; return the schema
        JSON and the row payloads in row-id order."""
        schema_json = codec.canonical_json(codec.schema_to_dict(table.schema))
        conn.execute(
            "INSERT INTO table_schemas (source, table_name, schema) "
            "VALUES (?, ?, ?)",
            (name, table.name, schema_json),
        )
        raw_rows = table.raw_rows()
        payloads = [_encode_row(tup) for tup in raw_rows]
        conn.executemany(
            "INSERT INTO rows (source, table_name, row_id, data) "
            "VALUES (?, ?, ?, ?)",
            [
                (name, table.name, row_id, data)
                for row_id, data in enumerate(payloads)
            ],
        )
        # The pushdown value index: one cells row per non-null scalar
        # cell, mirroring the ColumnStore's row_ids index so a lazy
        # reader's point lookups are answered by SQL instead of
        # hydration. Unrepresentable values are skipped — the reader
        # rejects such probes and falls back (see ``_cell_value``).
        column_names = table.schema.column_names
        cells = []
        for row_id, tup in enumerate(raw_rows):
            for position, value in enumerate(tup):
                if is_null(value):
                    continue
                stored = _cell_value(value)
                if stored is not None:
                    cells.append(
                        (name, table.name, column_names[position], row_id, stored)
                    )
        conn.executemany(
            "INSERT INTO cells (source, table_name, column_name, row_id, value) "
            "VALUES (?, ?, ?, ?, ?)",
            cells,
        )
        return schema_json, payloads

    def _write_profiles(
        self,
        conn: sqlite3.Connection,
        name: str,
        profiles: Dict[AttributeRef, ColumnProfile],
    ) -> None:
        conn.executemany(
            "INSERT INTO profiles (source, table_name, column_name, profile) "
            "VALUES (?, ?, ?, ?)",
            [
                (
                    name,
                    attr.table,
                    attr.column,
                    codec.canonical_json(codec.profile_to_dict(profile)),
                )
                for attr, profile in sorted(
                    profiles.items(), key=lambda item: item[0].qualified
                )
            ],
        )

    def _write_all_links(
        self, conn: sqlite3.Connection, repository: MetadataRepository
    ) -> None:
        conn.executemany(
            "INSERT INTO attribute_links (source, target, payload) VALUES (?, ?, ?)",
            [
                (
                    link.source,
                    link.target,
                    codec.canonical_json(codec.attribute_link_to_dict(link)),
                )
                for link in repository.attribute_links()
            ],
        )
        conn.executemany(
            "INSERT INTO object_links (source_a, source_b, payload) VALUES (?, ?, ?)",
            [
                (
                    link.source_a,
                    link.source_b,
                    codec.canonical_json(codec.object_link_to_dict(link)),
                )
                for link in repository.object_links()
            ],
        )

    def _write_index_full(self, conn: sqlite3.Connection, index: InvertedIndex) -> None:
        conn.execute("DELETE FROM index_postings")
        conn.execute("DELETE FROM index_documents")
        for source, accession, length, is_primary, postings in index.export_documents():
            self._write_document(
                conn, source, accession, length, is_primary, postings
            )
        self._set_manifest(conn, "index_built", "1")

    def _write_document(
        self,
        conn: sqlite3.Connection,
        source: str,
        accession: str,
        length: int,
        is_primary: bool,
        postings,
    ) -> None:
        cursor = conn.execute(
            "INSERT INTO index_documents (source, accession, length, is_primary) "
            "VALUES (?, ?, ?, ?)",
            (source, accession, length, int(is_primary)),
        )
        self._write_postings(conn, source, cursor.lastrowid, postings)

    def _write_postings(
        self, conn: sqlite3.Connection, source: str, doc_pk: int, postings
    ) -> None:
        conn.executemany(
            "INSERT INTO index_postings (source, doc, token, field, frequency) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (source, doc_pk, token, field_name, frequency)
                for token, field_name, frequency in postings
            ],
        )

    # ------------------------------------------------------------------
    # per-source incremental checkpoints
    # ------------------------------------------------------------------
    @_serialized
    def checkpoint_source(
        self, aladin, name: str, documents: Optional[DocumentDelta] = None
    ) -> None:
        """Write one source's slice of the snapshot in place.

        Without ``documents`` (after ``add_source``) the source's rows,
        profiles, structure record, links touching it, and index postings
        are replaced. With ``documents`` (a below-threshold
        ``update_source``, which keeps structure and links by contract)
        the checkpoint is data-only; see :meth:`_write_data`. Either way
        every other source's slice stays byte-identical.
        """
        with self._write_connection() as conn, conn:
            manifest = self._read_manifest(conn)
            self._write_config(conn, aladin, manifest)
            if documents is not None:
                self._write_data(conn, aladin, name, documents, manifest)
                return
            self._delete_source_slice(conn, name)
            self._write_source(conn, aladin, name)
            self._write_source_links(conn, aladin.repository, name)
            self._checkpoint_index(conn, aladin, name, manifest)

    def _write_config(
        self, conn: sqlite3.Connection, aladin, manifest: Dict[str, str]
    ) -> None:
        stored = manifest.get("config")
        cached = self._config_written
        if cached is not None and cached[1] == stored and cached[0] == aladin.config:
            return
        # asdict keeps this layer ignorant of the core config classes.
        config = codec.canonical_json(dataclasses.asdict(aladin.config))
        if stored != config:
            self._set_manifest(conn, "config", config)
        self._config_written = (copy.deepcopy(aladin.config), config)

    def _write_data(
        self,
        conn: sqlite3.Connection,
        aladin,
        name: str,
        documents: DocumentDelta,
        manifest: Dict[str, str],
    ) -> None:
        """The data-only checkpoint of a below-threshold update.

        The source's tables are rewritten whole (schemas, rows, cells,
        profiles) and its ``sources`` row gets the new content hash, raw
        text, samples, and row counts; structure and links stay as they
        are. The index documents change by exactly ``documents``: a
        rewritten document keeps its ``index_documents.id``, so on-disk
        order stays the in-memory doc-id order.
        """
        for table in ("table_schemas", "rows", "cells", "profiles"):
            conn.execute(f"DELETE FROM {table} WHERE source = ?", (name,))
        record = aladin.repository.source(name)
        content_hash = self._write_tables(conn, name, aladin.database(name))
        self._write_profiles(conn, name, record.profiles)
        conn.execute(
            "UPDATE sources SET content_hash = ?, raw_text = ?, samples = ?, "
            "row_counts = ? WHERE name = ?",
            (
                content_hash,
                aladin._raw_inputs[name][1],
                codec.canonical_json(record.sample_rows),
                codec.canonical_json(record.row_counts),
                name,
            ),
        )
        self._checkpoint_index(conn, aladin, name, manifest, documents)

    def _write_document_delta(
        self,
        conn: sqlite3.Connection,
        name: str,
        documents: DocumentDelta,
        manifest: Dict[str, str],
    ) -> None:
        """Apply one source's index delta; surviving documents keep their id.

        A non-empty delta bumps the index generation, which lazy readers
        check on every postings read.
        """
        if not (documents.replaced or documents.added or documents.dropped):
            return
        self._set_manifest(
            conn,
            _INDEX_GENERATION,
            str(int(manifest.get(_INDEX_GENERATION, "0")) + 1),
        )
        ids = dict(
            conn.execute(
                "SELECT accession, id FROM index_documents WHERE source = ?",
                (name,),
            )
        )
        for held, (accession, length, is_primary, postings) in documents.replaced:
            doc_pk = ids[held]
            conn.execute(
                "UPDATE index_documents SET accession = ?, length = ?, "
                "is_primary = ? WHERE id = ?",
                (accession, length, int(is_primary), doc_pk),
            )
            conn.execute("DELETE FROM index_postings WHERE doc = ?", (doc_pk,))
            self._write_postings(conn, name, doc_pk, postings)
        for accession in documents.dropped:
            doc_pk = ids[accession]
            conn.execute("DELETE FROM index_postings WHERE doc = ?", (doc_pk,))
            conn.execute("DELETE FROM index_documents WHERE id = ?", (doc_pk,))
        for accession, length, is_primary, postings in documents.added:
            self._write_document(conn, name, accession, length, is_primary, postings)

    @_serialized
    def checkpoint_remove(self, name: str) -> None:
        """Drop one source's slice (rows, profiles, links, postings)."""
        with self._write_connection() as conn, conn:
            self._read_manifest(conn)
            self._delete_source_slice(conn, name)

    @_serialized
    def remove_object_link(self, link: ObjectLink) -> int:
        """Delete one object link's row (link-level user feedback).

        Matches the repository's semantics — normalized endpoints plus
        kind — by scanning only the rows between the link's two endpoint
        sources (indexed columns), not the whole table.
        """
        key = link.key()
        with self._write_connection() as conn, conn:
            self._read_manifest(conn)
            doomed = []
            for rowid, payload in conn.execute(
                "SELECT rowid, payload FROM object_links "
                "WHERE (source_a = ? AND source_b = ?) "
                "OR (source_a = ? AND source_b = ?)",
                (link.source_a, link.source_b, link.source_b, link.source_a),
            ):
                candidate = codec.object_link_from_dict(
                    codec.canonical_loads(payload)
                )
                if candidate.key() == key:
                    doomed.append(rowid)
            for rowid in doomed:
                conn.execute("DELETE FROM object_links WHERE rowid = ?", (rowid,))
            return len(doomed)

    def _delete_source_slice(self, conn: sqlite3.Connection, name: str) -> None:
        conn.execute("DELETE FROM sources WHERE name = ?", (name,))
        conn.execute("DELETE FROM table_schemas WHERE source = ?", (name,))
        conn.execute("DELETE FROM rows WHERE source = ?", (name,))
        conn.execute("DELETE FROM cells WHERE source = ?", (name,))
        conn.execute("DELETE FROM profiles WHERE source = ?", (name,))
        conn.execute(
            "DELETE FROM attribute_links WHERE source = ? OR target = ?",
            (name, name),
        )
        conn.execute(
            "DELETE FROM object_links WHERE source_a = ? OR source_b = ?",
            (name, name),
        )
        conn.execute("DELETE FROM index_postings WHERE source = ?", (name,))
        conn.execute("DELETE FROM index_documents WHERE source = ?", (name,))

    def _write_source_links(
        self, conn: sqlite3.Connection, repository: MetadataRepository, name: str
    ) -> None:
        conn.executemany(
            "INSERT INTO attribute_links (source, target, payload) VALUES (?, ?, ?)",
            [
                (
                    link.source,
                    link.target,
                    codec.canonical_json(codec.attribute_link_to_dict(link)),
                )
                for link in repository.attribute_links()
                if name in (link.source, link.target)
            ],
        )
        conn.executemany(
            "INSERT INTO object_links (source_a, source_b, payload) VALUES (?, ?, ?)",
            [
                (
                    link.source_a,
                    link.source_b,
                    codec.canonical_json(codec.object_link_to_dict(link)),
                )
                for link in repository.object_links()
                if name in (link.source_a, link.source_b)
            ],
        )

    def _checkpoint_index(
        self,
        conn: sqlite3.Connection,
        aladin,
        name: str,
        manifest: Dict[str, str],
        documents: Optional[DocumentDelta] = None,
    ) -> None:
        """Write one source's documents: its whole slice, or ``documents``."""
        if documents is not None:
            self._write_document_delta(conn, name, documents, manifest)
        else:
            for source, accession, length, is_primary, postings in (
                aladin._index.export_documents(source=name)
            ):
                self._write_document(
                    conn, source, accession, length, is_primary, postings
                )

    # ------------------------------------------------------------------
    # online compaction
    # ------------------------------------------------------------------
    @_serialized
    def file_stats(self) -> Dict[str, Any]:
        """Size and churn accounting of the snapshot on disk.

        ``reclaimable_bytes`` is what compaction would free: SQLite's
        freelist (pages dead since DELETE-then-rewrite checkpoints and
        removed sources) plus the WAL, which compaction folds back into
        the main file. While a writer is attached its WAL holds live
        committed pages until folded; they count here as WAL bytes.
        ``churn_ratio`` is the reclaimable fraction — the auto-compaction
        trigger.
        """
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        wal = 0
        if os.path.exists(self.path + "-wal"):
            wal = os.path.getsize(self.path + "-wal")
        freelist_bytes = 0
        if size:
            with self._write_connection() as conn:
                page_size = conn.execute("PRAGMA page_size").fetchone()[0]
                freelist = conn.execute("PRAGMA freelist_count").fetchone()[0]
                freelist_bytes = page_size * freelist
        total = size + wal
        reclaimable = freelist_bytes + wal
        return {
            "file_bytes": size,
            "wal_bytes": wal,
            "total_bytes": total,
            "reclaimable_bytes": reclaimable,
            "churn_ratio": reclaimable / total if total else 0.0,
        }

    @_serialized
    def compact(self, aladin=None) -> CompactionStats:
        """Rewrite the live content into a fresh file and swap it in.

        The compacted file is written next to the snapshot (``VACUUM
        INTO`` after folding the WAL back into the main file), then
        every per-source manifest content hash is re-verified against
        the compacted rows — and, when ``aladin`` is given, against
        hashes recomputed from the in-memory state — before the atomic
        ``os.replace``. A failure at any point leaves the original
        snapshot untouched.

        Callers that share the file across processes must hold the
        writer lock (:meth:`attach_writer`); concurrent *readers* of the
        pre-compaction file should reopen after a compaction.
        """
        started = time.perf_counter()
        with self._span("persist.compact") as span:
            if not os.path.exists(self.path):
                raise SnapshotError(f"snapshot {self.path!r} does not exist")
            before = self.file_stats()
            tmp = self.path + ".compact"
            self._remove_file_set(tmp)
            with self._write_connection() as conn:
                self._read_manifest(conn)  # never "compact" a foreign database
                # Fold the WAL into the main file so VACUUM INTO sees — and
                # the leftover sidecar after the swap holds — nothing live.
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                try:
                    conn.execute("VACUUM INTO ?", (tmp,))
                except sqlite3.DatabaseError as exc:
                    raise SnapshotError(
                        f"cannot compact snapshot {self.path!r}: {exc}"
                    ) from exc
            # A writer left on the replaced inode would lose every later
            # checkpoint without a sign; the next write reopens it.
            self._close_writer()
            try:
                verified = self._verify_compacted(tmp, aladin)
                os.replace(tmp, self.path)
            except BaseException:
                self._remove_file_set(tmp)
                raise
            self._config_written = None
            # The old file's journal sidecars must not survive next to the
            # new file — SQLite could mis-associate them. The WAL was
            # truncated above, so nothing live is lost.
            self._remove_file_set(self.path, main=False)
            after = self.file_stats()
            stats = CompactionStats(
                bytes_before=before["total_bytes"],
                bytes_after=after["total_bytes"],
                reclaimed_bytes=before["total_bytes"] - after["total_bytes"],
                seconds=time.perf_counter() - started,
                sources_verified=verified,
            )
            if span is not None:
                span.set(reclaimed_bytes=stats.reclaimed_bytes)
            return stats

    @_serialized
    def maybe_compact(self, aladin, policy: PersistConfig) -> Optional[CompactionStats]:
        """The auto-compaction policy hook, run after checkpoints.

        Compacts when the policy says the accumulated churn is worth
        reclaiming (see :class:`PersistConfig`); returns the stats of a
        run, or ``None`` when no compaction was due.
        """
        if not policy.auto_compact:
            return None
        # Runs after *every* checkpoint, so gate on the cheap stat-only
        # size check first; the freelist probe (a SQLite connection)
        # only happens once the file is big enough to be worth it.
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if os.path.exists(self.path + "-wal"):
            size += os.path.getsize(self.path + "-wal")
        if size < policy.compact_after_bytes:
            return None
        if self.file_stats()["churn_ratio"] < policy.compact_churn_ratio:
            return None
        return self.compact(aladin)

    @staticmethod
    def _remove_file_set(path: str, main: bool = True) -> None:
        """Remove a SQLite file and/or its journal sidecars, quietly."""
        doomed = ([path] if main else []) + [path + "-wal", path + "-shm"]
        for target in doomed:
            try:
                os.unlink(target)
            except FileNotFoundError:
                pass

    def _verify_compacted(self, tmp_path: str, aladin) -> int:
        """Re-verify the compacted file's manifest hashes; return count.

        Every source's content hash is recomputed from the compacted
        rows and checked against the manifest it carries; with the live
        system at hand, the same hashes are recomputed a third time from
        the in-memory tables — the compacted file must agree with both
        or the swap is refused.
        """
        tmp_store = SnapshotStore(tmp_path)
        conn = tmp_store._connect()
        file_hashes: Dict[str, str] = {}
        try:
            tmp_store._read_manifest(conn)
            for name, stored in conn.execute(
                "SELECT name, content_hash FROM sources ORDER BY name"
            ).fetchall():
                recomputed = _hash_stored_source(conn, name)
                if recomputed != stored:
                    raise SnapshotError(
                        f"compaction of {self.path!r} produced a content "
                        f"hash mismatch for source {name!r}; the original "
                        "snapshot was left untouched"
                    )
                file_hashes[name] = stored
        finally:
            conn.close()
        if aladin is not None:
            if sorted(aladin.source_names()) != sorted(file_hashes):
                raise SnapshotError(
                    f"compaction of {self.path!r} does not match the "
                    "in-memory state (source sets differ); the original "
                    "snapshot was left untouched"
                )
            for name in aladin.source_names():
                if _hash_memory_source(aladin.database(name)) == file_hashes[name]:
                    continue
                raise SnapshotError(
                    f"compaction of {self.path!r} does not match the "
                    f"in-memory state (content hash differs for source "
                    f"{name!r}); the original snapshot was left untouched"
                )
        return len(file_hashes)

    # ------------------------------------------------------------------
    # load: manifest now, bodies on first touch
    # ------------------------------------------------------------------
    def _load_tables(
        self, conn: sqlite3.Connection, name: str, content_hash: str
    ) -> Tuple[Database, int]:
        """Rebuild one source's tables from its stored slice, hash-verified.

        Returns the database plus the decoded row-payload volume in bytes
        (the RSS proxy lazy hydration accounts per source). The
        ColumnStore access paths are left unbuilt: they are deferred to
        first access so a snapshot-backed lookup can be answered by
        pushdown instead.
        """
        hasher = hashlib.sha256()
        database = Database(name)
        payload_bytes = 0
        for table_name, schema_json in conn.execute(
            "SELECT table_name, schema FROM table_schemas "
            "WHERE source = ? ORDER BY table_name",
            (name,),
        ):
            hasher.update(schema_json.encode("utf-8"))
            table = database.create_table(
                codec.schema_from_dict(codec.canonical_loads(schema_json))
            )
            payloads = [
                data
                for (data,) in conn.execute(
                    "SELECT data FROM rows WHERE source = ? AND table_name = ? "
                    "ORDER BY row_id",
                    (name, table_name),
                )
            ]
            # The hash runs over the payloads in row order, concatenated:
            # one update over the joined text hashes the same bytes.
            joined = "".join(payloads)
            hasher.update(joined.encode("utf-8"))
            payload_bytes += len(joined)
            table.bulk_load(codec.decode_batch(payloads), materialize=False)
        if hasher.hexdigest() != content_hash:
            raise self._hash_mismatch(name)
        return database, payload_bytes

    def _hash_mismatch(self, name: str) -> SnapshotError:
        return SnapshotError(
            f"snapshot {self.path!r}: content hash mismatch for source "
            f"{name!r} — the stored rows do not match the manifest"
        )

    def verify_source_slice(
        self, conn: sqlite3.Connection, name: str, content_hash: str
    ) -> Dict[str, List[str]]:
        """Check one source's stored slice against ``content_hash``.

        The hash walk of :meth:`_load_tables` without decoding a row:
        every schema and row payload is hashed, and a mismatch raises
        SnapshotError naming the file and the source. Returns each
        table's column names, for reading single rows of the verified
        slice in the caller's transaction.
        """
        schemas: Dict[str, str] = {}
        if _hash_stored_source(conn, name, schemas) != content_hash:
            raise self._hash_mismatch(name)
        # The hashed schemas are the writer's own, whose column names a
        # TableSchema has already normalized: no schema is rebuilt.
        return {
            table_name: [
                column["name"]
                for column in codec.canonical_loads(schema_json)["columns"]
            ]
            for table_name, schema_json in schemas.items()
        }

    def load_manifest(
        self, connect: Callable[[], sqlite3.Connection]
    ) -> SnapshotManifest:
        """Read the O(manifest) slice: stubs, flags, config — no row data.

        This is the lazy open's whole I/O bill: one short row per source
        (name, content hash, format, import options, row counts). Each
        source's structure, profiles, and samples are decoded on its
        first touch (:meth:`load_source_metadata`); row payloads, raw
        inputs, links, and postings stay on disk until
        :meth:`load_source_body` (or the lazy session's link/index
        loaders) fault them in.

        ``connect()`` hands over the reader connection to read on — the
        lazy session's own, so a cold open connects to the file once.
        It is called only after the file is known to exist: a
        connection's read-write fallback would otherwise create an
        empty database at the path.
        """
        if not os.path.exists(self.path):
            raise SnapshotError(f"snapshot {self.path!r} does not exist")
        conn = connect()
        manifest = self._read_manifest(conn)
        try:
            stubs = [
                SourceStub(
                    name=name,
                    content_hash=content_hash,
                    row_counts=json.loads(row_counts_json),
                    format_name=format_name,
                    import_options=(
                        json.loads(import_options) if import_options else {}
                    ),
                )
                for name, content_hash, format_name, import_options,
                row_counts_json in conn.execute(
                    "SELECT name, content_hash, format_name, import_options, "
                    "row_counts FROM sources ORDER BY name"
                )
            ]
        except (sqlite3.DatabaseError, json.JSONDecodeError, KeyError,
                ValueError, TypeError) as exc:
            raise SnapshotError(
                f"snapshot {self.path!r} is corrupted: {exc}"
            ) from exc
        config_json = manifest.get("config")
        return SnapshotManifest(
            index_built=manifest.get("index_built") == "1",
            sources=stubs,
            config=json.loads(config_json) if config_json else None,
        )

    def _corrupt_metadata(self, name: str, exc: Exception) -> SnapshotError:
        return SnapshotError(
            f"snapshot {self.path!r}: metadata of source {name!r} is "
            f"corrupted: {exc}"
        )

    def _read_source_structure(
        self, conn: sqlite3.Connection, name: str
    ) -> SourceStructure:
        """Decode one source's structure: one keyed read of ``sources``.

        A missing or undecodable row raises a SnapshotError naming the
        file and the source.
        """
        try:
            row = conn.execute(
                "SELECT structure FROM sources WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                raise SnapshotError(
                    f"snapshot {self.path!r} has no source {name!r}"
                )
            structure = codec.structure_from_dict(codec.canonical_loads(row[0]))
            if structure.source_name != name:
                raise ValueError(
                    f"structure belongs to source {structure.source_name!r}"
                )
        except (sqlite3.DatabaseError, json.JSONDecodeError, KeyError,
                ValueError, TypeError, AttributeError) as exc:
            raise self._corrupt_metadata(name, exc) from exc
        return structure

    def _read_source_profiles(
        self, conn: sqlite3.Connection, name: str
    ) -> Tuple[Dict[AttributeRef, ColumnProfile], Dict[str, List[dict]]]:
        """Decode one source's ColumnProfiles and samples.

        Two keyed reads (``sources`` and ``profiles`` by primary key) in
        the caller's transaction; errors name the file and the source.
        """
        try:
            row = conn.execute(
                "SELECT samples FROM sources WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                raise SnapshotError(
                    f"snapshot {self.path!r} has no source {name!r}"
                )
            samples = codec.canonical_loads(row[0])
            if not isinstance(samples, dict):
                raise ValueError("samples are not a JSON object")
            keyed = conn.execute(
                "SELECT table_name, column_name, profile FROM profiles "
                "WHERE source = ? ORDER BY table_name, column_name",
                (name,),
            ).fetchall()
            decoded = codec.decode_batch([profile for _, _, profile in keyed])
            profiles = {
                AttributeRef(table, column): codec.profile_from_dict(payload)
                for (table, column, _), payload in zip(keyed, decoded)
            }
        except (sqlite3.DatabaseError, json.JSONDecodeError, KeyError,
                ValueError, TypeError, AttributeError) as exc:
            raise self._corrupt_metadata(name, exc) from exc
        return profiles, samples

    def _decode_metadata(
        self, conn: sqlite3.Connection, stub: SourceStub
    ) -> SourceMetadata:
        """``stub``'s whole metadata, decoding in the caller's transaction."""
        return stub.metadata(
            functools.partial(self._read_source_structure, conn, stub.name),
            functools.partial(self._read_source_profiles, conn, stub.name),
        )

    def _in_read_transaction(self, conn: sqlite3.Connection, read, name: str):
        """``read(conn, name)`` as a callable running in its own transaction."""

        def run():
            with _read_transaction(conn):
                return read(conn, name)

        return run

    def load_source_structure(
        self, conn: sqlite3.Connection, stub: SourceStub
    ) -> SourceStructure:
        """``stub``'s structure, decoded in a read transaction of its own.

        What an object page needs of a source's metadata: its profiles
        and samples stay encoded.
        """
        return stub.structure(
            self._in_read_transaction(conn, self._read_source_structure, stub.name)
        )

    def load_source_metadata(
        self, conn: sqlite3.Connection, stub: SourceStub
    ) -> SourceMetadata:
        """``stub``'s metadata; each undecoded part in a transaction of its own.

        For a first read of the whole record that is not a hydration; a
        hydration decodes inside :meth:`load_source_body` instead, in the
        same transaction as the rows.
        """
        return stub.metadata(
            self._in_read_transaction(conn, self._read_source_structure, stub.name),
            self._in_read_transaction(conn, self._read_source_profiles, stub.name),
        )

    def content_fingerprint(self) -> str:
        """One hash over the snapshot's per-source content hashes.

        Cheap — a manifest-sized SELECT on a short-lived read-only
        connection — and it changes exactly when a writer's checkpoint
        changes what a reader would observe. Serving layers key result
        caches on it, so a checkpoint invalidates precisely: same
        fingerprint, same bytes.
        """
        if not os.path.exists(self.path):
            raise SnapshotError(f"snapshot {self.path!r} does not exist")
        conn = self._connect(read_only=True)
        try:
            manifest = self._read_manifest(conn)
            try:
                rows = conn.execute(
                    "SELECT name, content_hash FROM sources ORDER BY name"
                ).fetchall()
            except sqlite3.DatabaseError as exc:
                raise SnapshotError(
                    f"snapshot {self.path!r} is corrupted: {exc}"
                ) from exc
        finally:
            conn.close()
        hasher = hashlib.sha256()
        hasher.update(manifest.get("index_built", "").encode("utf-8"))
        for name, content_hash in rows:
            hasher.update(b"\x00" + name.encode("utf-8"))
            hasher.update(b"\x01" + content_hash.encode("utf-8"))
        return hasher.hexdigest()

    def load_source_body(
        self, stub: SourceStub, conn: sqlite3.Connection
    ) -> SourceBody:
        """Fault in exactly one source's row data (the lazy hydration read).

        The content hash is re-fetched rather than trusted from the stub:
        a writer may have checkpointed the source since the manifest was
        read, and the single read transaction below guarantees the hash
        and the rows it verifies come from one consistent WAL snapshot —
        old or new, never torn. An undecoded ``stub`` has its structure,
        samples, and profiles decoded in that same transaction.
        """
        name = stub.name
        try:
            with _read_transaction(conn):
                self._read_manifest(conn)
                row = conn.execute(
                    "SELECT content_hash, raw_text FROM sources WHERE name = ?",
                    (name,),
                ).fetchone()
                if row is None:
                    raise SnapshotError(
                        f"snapshot {self.path!r} has no source {name!r}"
                    )
                content_hash, raw_text = row
                self._decode_metadata(conn, stub)
                database, payload_bytes = self._load_tables(
                    conn, name, content_hash
                )
        except (sqlite3.DatabaseError, json.JSONDecodeError, KeyError,
                ValueError, TypeError) as exc:
            raise SnapshotError(
                f"snapshot {self.path!r} is corrupted: {exc}"
            ) from exc
        return SourceBody(
            name=name,
            database=database,
            payload_bytes=payload_bytes,
            raw_text=raw_text,
        )
