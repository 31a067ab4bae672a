"""Columnar access paths: cached per-column arrays, sets, and indexes.

Every layer above :class:`~repro.relational.table.Table` — uniqueness
detection, inclusion-dependency mining, accession analysis, link-discovery
statistics, vocabulary overlap, duplicate blocking — is expressed over
per-column reads. Before this module each caller rebuilt the column it
needed from the row store on every call; a single ``add_source`` re-derived
the same value sets dozens of times. The :class:`ColumnStore` materializes
each access path once, lazily, and keeps it consistent under mutation:

* ``values`` / ``non_null_values`` — row-ordered arrays;
* ``value_set`` — a frozen set for containment and overlap tests;
* ``distinct_values`` — first-seen-order distinct list;
* ``row_ids`` — a ``value -> [row_id, ...]`` hash index driving
  ``find_where`` / ``lookup_unique`` without linear scans;
* ``profile`` — a :class:`ColumnProfile` with the one-time per-source
  statistics of Section 4.4 ("computed only once for each data source and
  ... reused for subsequently added data sources").

Invalidation is precise: ``note_insert`` extends materialized structures in
O(1) per row (only the aggregate profile is dropped, since averages cannot
be patched incrementally without storing partial sums — and those *are*
stored, see ``_ProfileAccumulator``); ``note_delete`` drops caches because
row ids shift. Callers must treat every returned container as immutable —
they are the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, TYPE_CHECKING

from repro.relational.types import DataType, is_null

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.table import Table

_PROTEIN_CHARS = frozenset("ACDEFGHIKLMNPQRSTVWY")
_DNA_CHARS = frozenset("ACGTUN")


@dataclass(frozen=True)
class ColumnProfile:
    """One column's value statistics, computed once per source.

    This is the storage-level half of
    :class:`repro.linking.stats.AttributeStatistics`: everything derivable
    from the column alone, with the same conventions (text lengths over
    ``str(v)``, numeric = number or digit-only string, alphabet fractions
    over characters).
    """

    column: str
    data_type: DataType
    row_count: int
    non_null_count: int
    distinct_count: int
    is_unique: bool  # unique over non-null values AND non-empty
    avg_length: float
    min_length: int
    max_length: int
    numeric_fraction: float
    alpha_fraction: float
    protein_alphabet_fraction: float
    dna_alphabet_fraction: float


class _ProfileAccumulator:
    """Running sums behind a ColumnProfile, patchable on insert."""

    __slots__ = (
        "total_chars", "alpha_chars", "protein_chars", "dna_chars",
        "numeric_count", "min_length", "max_length",
    )

    def __init__(self) -> None:
        self.total_chars = 0
        self.alpha_chars = 0
        self.protein_chars = 0
        self.dna_chars = 0
        self.numeric_count = 0
        self.min_length: Optional[int] = None
        self.max_length: Optional[int] = None

    def add(self, value: Any) -> None:
        text = str(value)
        length = len(text)
        self.total_chars += length
        self.alpha_chars += sum(map(str.isalpha, text))
        self.protein_chars += sum(map(_PROTEIN_CHARS.__contains__, text))
        self.dna_chars += sum(map(_DNA_CHARS.__contains__, text))
        if isinstance(value, (int, float)) or (isinstance(value, str) and value.isdigit()):
            self.numeric_count += 1
        self.min_length = length if self.min_length is None else min(self.min_length, length)
        self.max_length = length if self.max_length is None else max(self.max_length, length)


class ColumnStore:
    """Lazily materialized, incrementally maintained column caches.

    One store per :class:`Table`. Every cache is built at most once between
    mutations; ``hits``/``misses`` count served-from-cache vs. materializing
    accesses so the E6 acceptance test can assert that a second discovery
    pass performs zero recomputation.
    """

    def __init__(self, table: "Table"):
        self._table = table
        self._values: Dict[str, List[Any]] = {}
        self._non_null: Dict[str, List[Any]] = {}
        self._sets: Dict[str, Set[Any]] = {}
        self._frozen: Dict[str, FrozenSet[Any]] = {}
        self._distinct: Dict[str, List[Any]] = {}
        self._row_ids: Dict[str, Dict[Any, List[int]]] = {}
        self._accumulators: Dict[str, _ProfileAccumulator] = {}
        self._profiles: Dict[str, ColumnProfile] = {}
        self._backing = None  # ColumnSource while snapshot-backed
        self.hits = 0
        self.misses = 0
        self.pushdown_hits = 0

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pushdown_hits": self.pushdown_hits,
        }

    # ------------------------------------------------------------------
    # snapshot backing (the ColumnSource seam)
    # ------------------------------------------------------------------
    def attach_backing(self, backing: Any) -> None:
        """Back this store by a lazy column source (snapshot pushdown).

        ``backing`` answers ``lookup_row_ids(column, value)`` from the
        snapshot's own SQL indexes (or returns ``None`` to decline, e.g.
        for a probe value SQLite cannot bind exactly). While attached and
        unmutated, the rows here are a byte-identical replica of the
        snapshot slice, so cache builds are rehydration work — counted as
        neither hit nor miss, like :meth:`materialize_all`. The first
        mutation detaches the backing: the replica has diverged and every
        answer must come from memory again.
        """
        self._backing = backing

    def _note_build(self) -> None:
        """Account one cache materialization on the lazy-access path.

        With a pristine snapshot backing attached, builds are rehydration
        work, not cache misses — warm-started stores keep ``misses == 0``.
        """
        if self._backing is None:
            self.misses += 1

    def lookup_row_ids(self, column: str, value: Any) -> List[int]:
        """``value -> row ids`` through the cheapest available path.

        A materialized ``row_ids`` index answers directly; otherwise an
        attached backing is asked to push the lookup down to the snapshot
        (no cache is built); only then is the full index materialized.
        """
        column = column.lower()
        cached = self._row_ids.get(column)
        if cached is not None:
            self.hits += 1
            return cached.get(value, [])
        if self._backing is not None:
            pushed = self._backing.lookup_row_ids(column, value)
            if pushed is not None:
                self.pushdown_hits += 1
                return pushed
        return self.row_ids(column).get(value, [])

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def values(self, column: str) -> List[Any]:
        """Row-ordered values including NULLs. Do not mutate."""
        column = column.lower()
        cached = self._values.get(column)
        if cached is not None:
            self.hits += 1
            return cached
        self._note_build()
        idx = self._table.schema.column_index(column)
        cached = [tup[idx] for tup in self._table.raw_rows()]
        self._values[column] = cached
        return cached

    def non_null_values(self, column: str) -> List[Any]:
        """Row-ordered non-null values. Do not mutate."""
        column = column.lower()
        cached = self._non_null.get(column)
        if cached is not None:
            self.hits += 1
            return cached
        self._note_build()
        cached = [v for v in self.values(column) if not is_null(v)]
        self._non_null[column] = cached
        return cached

    def value_set(self, column: str) -> FrozenSet[Any]:
        """Frozen set of the column's non-null values."""
        column = column.lower()
        frozen = self._frozen.get(column)
        if frozen is not None:
            self.hits += 1
            return frozen
        self._note_build()
        frozen = frozenset(self._mutable_set(column))
        self._frozen[column] = frozen
        return frozen

    def distinct_values(self, column: str) -> List[Any]:
        """Distinct non-null values in first-seen order. Do not mutate."""
        column = column.lower()
        cached = self._distinct.get(column)
        if cached is not None:
            self.hits += 1
            return cached
        self._note_build()
        seen: Set[Any] = set()
        out: List[Any] = []
        for value in self.non_null_values(column):
            if value not in seen:
                seen.add(value)
                out.append(value)
        self._distinct[column] = out
        return out

    def row_ids(self, column: str) -> Dict[Any, List[int]]:
        """Hash index ``value -> ascending row ids`` (non-null values only).

        Do not mutate; this is the shared access path behind
        ``find_where``, ``lookup_unique`` and the object resolver.
        """
        column = column.lower()
        cached = self._row_ids.get(column)
        if cached is not None:
            self.hits += 1
            return cached
        self._note_build()
        index: Dict[Any, List[int]] = {}
        idx = self._table.schema.column_index(column)
        for row_id, tup in enumerate(self._table.raw_rows()):
            value = tup[idx]
            if not is_null(value):
                index.setdefault(value, []).append(row_id)
        self._row_ids[column] = index
        return index

    def profile(self, column: str) -> ColumnProfile:
        """The column's :class:`ColumnProfile`, cached until mutation."""
        column = column.lower()
        cached = self._profiles.get(column)
        if cached is not None:
            self.hits += 1
            return cached
        self._note_build()
        non_null = self.non_null_values(column)
        accumulator = self._accumulators.get(column)
        if accumulator is None:
            accumulator = _ProfileAccumulator()
            for value in non_null:
                accumulator.add(value)
            self._accumulators[column] = accumulator
        profile = self._profile_from(
            column, len(non_null), len(self.value_set(column)), accumulator
        )
        self._profiles[column] = profile
        return profile

    def _profile_from(
        self,
        column: str,
        non_null_count: int,
        distinct_count: int,
        accumulator: _ProfileAccumulator,
    ) -> ColumnProfile:
        return ColumnProfile(
            column=column,
            data_type=self._table.schema.column(column).data_type,
            row_count=len(self._table),
            non_null_count=non_null_count,
            distinct_count=distinct_count,
            is_unique=non_null_count > 0 and distinct_count == non_null_count,
            avg_length=(
                accumulator.total_chars / non_null_count if non_null_count else 0.0
            ),
            min_length=accumulator.min_length or 0,
            max_length=accumulator.max_length or 0,
            numeric_fraction=(
                accumulator.numeric_count / non_null_count if non_null_count else 0.0
            ),
            alpha_fraction=(
                accumulator.alpha_chars / accumulator.total_chars
                if accumulator.total_chars else 0.0
            ),
            protein_alphabet_fraction=(
                accumulator.protein_chars / accumulator.total_chars
                if accumulator.total_chars else 0.0
            ),
            dna_alphabet_fraction=(
                accumulator.dna_chars / accumulator.total_chars
                if accumulator.total_chars else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # bulk materialization and rehydration
    # ------------------------------------------------------------------
    def materialize_all(self, with_profiles: bool = True) -> None:
        """Build every missing access path for every column in one pass.

        This is the bulk-load fast path: after a batch insert (or a
        snapshot rehydration) nothing is materialized yet, so one
        column-major sweep builds values, non-null arrays, sets, distinct
        lists, row-id indexes — and, unless ``with_profiles`` is False,
        the accumulators and profiles — without the per-access laziness.
        Structures that already exist (kept consistent by ``note_insert``)
        are left untouched. Materialization is load work, not query work:
        it counts as neither a hit nor a miss, so a warm-started table
        reports zero misses until something genuinely recomputes.
        """
        for column in self._table.schema.column_names:
            self._materialize_column(column, with_profiles)

    def _materialize_column(self, column: str, with_profiles: bool) -> None:
        values = self._values.get(column)
        if values is None:
            idx = self._table.schema.column_index(column)
            values = [tup[idx] for tup in self._table.raw_rows()]
            self._values[column] = values
        non_null = self._non_null.get(column)
        row_index = self._row_ids.get(column)
        if non_null is None or row_index is None:
            new_non_null: Optional[List[Any]] = [] if non_null is None else None
            new_index: Optional[Dict[Any, List[int]]] = (
                {} if row_index is None else None
            )
            for row_id, value in enumerate(values):
                if is_null(value):
                    continue
                if new_non_null is not None:
                    new_non_null.append(value)
                if new_index is not None:
                    new_index.setdefault(value, []).append(row_id)
            if new_non_null is not None:
                non_null = new_non_null
                self._non_null[column] = non_null
            if new_index is not None:
                self._row_ids[column] = new_index
        mutable = self._sets.get(column)
        if mutable is None:
            mutable = set(non_null)
            self._sets[column] = mutable
        if column not in self._frozen:
            self._frozen[column] = frozenset(mutable)
        if column not in self._distinct:
            seen: Set[Any] = set()
            distinct: List[Any] = []
            for value in non_null:
                if value not in seen:
                    seen.add(value)
                    distinct.append(value)
            self._distinct[column] = distinct
        if with_profiles and column not in self._profiles:
            accumulator = self._accumulators.get(column)
            if accumulator is None:
                accumulator = _ProfileAccumulator()
                for value in non_null:
                    accumulator.add(value)
                self._accumulators[column] = accumulator
            self._profiles[column] = self._profile_from(
                column, len(non_null), len(mutable), accumulator
            )

    def restore_profile(self, column: str, profile: ColumnProfile) -> None:
        """Install a deserialized :class:`ColumnProfile` as the cached one.

        Snapshot rehydration calls this instead of recomputing: the
        restored object becomes the cache, so the first ``profile()`` read
        after a warm start is a hit. The accumulator is left unset — it is
        only rebuilt if the table mutates later.
        """
        self._profiles[column.lower()] = profile

    # ------------------------------------------------------------------
    # maintenance hooks (called by Table)
    # ------------------------------------------------------------------
    def note_insert(self, tup: tuple, row_id: int) -> None:
        """Extend every *materialized* cache with one appended row.

        Unmaterialized columns stay lazy (bulk import costs nothing);
        materialized ones are patched in O(1) per structure instead of
        being thrown away.
        """
        # Before the emptiness check: a snapshot-backed store with no
        # materialized caches still diverges from its snapshot slice on
        # insert, and the backing must never answer for diverged rows.
        self._backing = None
        if not (self._values or self._non_null or self._sets or self._row_ids
                or self._distinct or self._accumulators or self._profiles
                or self._frozen):
            return
        columns = self._table.schema.column_names
        for position, column in enumerate(columns):
            value = tup[position]
            values = self._values.get(column)
            if values is not None:
                values.append(value)
            if is_null(value):
                continue
            non_null = self._non_null.get(column)
            if non_null is not None:
                non_null.append(value)
            mutable = self._sets.get(column)
            is_new = False
            if mutable is not None:
                is_new = value not in mutable
                if is_new:
                    mutable.add(value)
                    self._frozen.pop(column, None)
            distinct = self._distinct.get(column)
            if distinct is not None:
                if mutable is None:
                    # No membership set yet: fall back to scan-free check
                    # against the distinct list's own set materialization.
                    mutable = set(distinct)
                    self._sets[column] = mutable
                    is_new = value not in mutable
                    if is_new:
                        mutable.add(value)
                if is_new:
                    distinct.append(value)
            index = self._row_ids.get(column)
            if index is not None:
                index.setdefault(value, []).append(row_id)
            accumulator = self._accumulators.get(column)
            if accumulator is not None:
                accumulator.add(value)
        # A new row changes row_count for every column's profile, even
        # all-NULL ones; the accumulators above keep profile rebuilds O(1).
        self._profiles.clear()

    def note_delete(self) -> None:
        """Drop every cache: deletions shift row ids and remove values."""
        self._backing = None
        self._values.clear()
        self._non_null.clear()
        self._sets.clear()
        self._frozen.clear()
        self._distinct.clear()
        self._row_ids.clear()
        self._accumulators.clear()
        self._profiles.clear()

    # ------------------------------------------------------------------
    def _mutable_set(self, column: str) -> Set[Any]:
        mutable = self._sets.get(column)
        if mutable is None:
            mutable = set(self.non_null_values(column))
            self._sets[column] = mutable
        return mutable
