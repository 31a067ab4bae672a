"""Persistence subsystem: durable snapshots of the integrated state.

A snapshot is one SQLite file holding every layer's state — relational
tables, column profiles, discovered structure, the link web, and the
search index — so that :meth:`repro.core.Aladin.save` /
:meth:`repro.core.Aladin.open` turn process restarts from a full
re-integration into a cheap rehydration. Per-source checkpoints keep an
attached snapshot current as sources are added, updated, and removed;
online compaction (:meth:`repro.persist.snapshot.SnapshotStore.compact`)
reclaims the churn those checkpoints leave behind, and an advisory
sidecar lock (:class:`repro.persist.lock.SnapshotLock`) keeps two writer
*processes* from attaching to one snapshot at a time.

Every open goes through one loader,
:class:`repro.persist.lazy.LazySnapshotSession`: it reads only the
manifest (:meth:`SnapshotStore.load_manifest`), then decodes each
source's metadata and faults its rows in on first touch, pushing point
lookups and single-table SELECTs down to SQL on the snapshot's value
index until then. ``lazy=False`` means "fault every source in at open".
"""

from repro.persist.snapshot import (
    FORMAT_VERSION,
    CompactionStats,
    PersistConfig,
    SnapshotError,
    SnapshotManifest,
    SnapshotStore,
    SourceBody,
    SourceStub,
)
from repro.persist.lazy import LazyInvertedIndex, LazySnapshotSession
from repro.persist.lock import SnapshotLock, SnapshotLockedError

__all__ = [
    "FORMAT_VERSION",
    "CompactionStats",
    "LazyInvertedIndex",
    "LazySnapshotSession",
    "PersistConfig",
    "SnapshotError",
    "SnapshotLock",
    "SnapshotLockedError",
    "SnapshotManifest",
    "SnapshotStore",
    "SourceBody",
    "SourceStub",
]
