"""Versioned main-memory tables.

A :class:`TableData` is one immutable version of a table's contents: a
tuple of columns plus the row count. A :class:`Table` is a named sequence
of versions, each tagged with the commit timestamp that installed it.
Readers resolve the version visible at their snapshot timestamp; writers
derive a new :class:`TableData` by copy-on-write and install it at commit.

This versioning is what lets long-running analytical queries run against a
consistent snapshot while transactional updates continue — the HyPer
"one system for OLTP and OLAP" story the paper builds on (section 3).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import CatalogError, ExecutionError
from .column import Column, ColumnBatch
from .encoding import (
    DictionaryColumn,
    decode_column,
    merge_dictionary,
    plain_values,
)
from .schema import TableSchema

#: Default number of rows per batch ("morsel") produced by table scans.
DEFAULT_MORSEL_ROWS = 65_536


#: Process-wide source of :attr:`TableData.version_token` values.
_VERSION_TOKENS = itertools.count(1)


class TableData:
    """One immutable version of a table's contents."""

    __slots__ = ("schema", "columns", "row_count", "version_token")

    def __init__(self, schema: TableSchema, columns: Sequence[Column]):
        if len(columns) != len(schema):
            raise CatalogError(
                f"schema has {len(schema)} columns, got {len(columns)}"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise CatalogError(f"ragged table: column lengths {lengths}")
        self.schema = schema
        self.columns = tuple(columns)
        self.row_count = lengths.pop() if lengths else 0
        #: Unique per version (contents are immutable, so equal tokens
        #: imply equal contents) — the key derived caches hang off.
        self.version_token = next(_VERSION_TOKENS)

    @classmethod
    def empty(cls, schema: TableSchema) -> "TableData":
        """A zero-row version conforming to ``schema``."""
        cols = [
            Column(np.zeros(0, dtype=c.sql_type.numpy_dtype()), c.sql_type)
            for c in schema
        ]
        return cls(schema, cols)

    @classmethod
    def from_rows(
        cls, schema: TableSchema, rows: Iterable[Sequence[object]]
    ) -> "TableData":
        """Build a version from Python row tuples (coercing values)."""
        materialised = [tuple(r) for r in rows]
        for r in materialised:
            if len(r) != len(schema):
                raise CatalogError(
                    f"row has {len(r)} values, schema has {len(schema)}"
                )
        cols = []
        for i, col_schema in enumerate(schema):
            cols.append(
                Column.from_values(
                    [r[i] for r in materialised], col_schema.sql_type
                )
            )
        schema.check_not_null(cols)
        return cls(schema, cols)

    @classmethod
    def from_batch(cls, schema: TableSchema, batch: ColumnBatch) -> "TableData":
        """Adopt a batch whose columns positionally match ``schema``."""
        names = batch.names()
        if len(names) != len(schema):
            raise CatalogError(
                f"batch has {len(names)} columns, schema has {len(schema)}"
            )
        return cls(schema, [batch[n] for n in names])

    def column_by_name(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def to_batch(self) -> ColumnBatch:
        """The whole version as a single batch keyed by schema names."""
        return ColumnBatch(
            dict(zip(self.schema.names(), self.columns))
        )

    def scan(
        self, morsel_rows: int = DEFAULT_MORSEL_ROWS
    ) -> Iterator[ColumnBatch]:
        """Yield the contents as a sequence of bounded-size batches."""
        names = self.schema.names()
        if self.row_count == 0:
            yield ColumnBatch.empty(
                dict(zip(names, self.schema.types()))
            )
            return
        for start in range(0, self.row_count, morsel_rows):
            stop = min(start + morsel_rows, self.row_count)
            yield ColumnBatch(
                {
                    name: col.slice(start, stop)
                    for name, col in zip(names, self.columns)
                }
            )

    def append_rows(self, rows: Iterable[Sequence[object]]) -> "TableData":
        """A new version with ``rows`` appended (copy-on-write)."""
        addition = TableData.from_rows(self.schema, rows)
        return self.append_data(addition)

    def append_data(self, other: "TableData") -> "TableData":
        """A new version with another version's rows appended. A stored
        dictionary column is extended, not re-encoded: only the
        addition is looked up in (or merged into) its dictionary."""
        if other.row_count == 0:
            return self
        if self.row_count == 0:
            return TableData(self.schema, other.columns)
        cols = [
            _extend_dictionary(mine, theirs)
            if isinstance(mine, DictionaryColumn)
            else Column.concat([mine, theirs])
            for mine, theirs in zip(self.columns, other.columns)
        ]
        return TableData(self.schema, cols)

    def delete_where(self, keep_mask: np.ndarray) -> "TableData":
        """A new version keeping only rows where ``keep_mask`` is True.
        Frame-of-reference columns come back as plain values, so the
        layout they are stored in next follows from the surviving
        values alone (dictionary columns keep their codes)."""
        if len(keep_mask) != self.row_count:
            raise ExecutionError("delete mask length mismatch")
        kept = (c.filter(keep_mask) for c in self.columns)
        return TableData(
            self.schema,
            [
                c if isinstance(c, DictionaryColumn) else decode_column(c)
                for c in kept
            ],
        )

    def update_rows(
        self, positions: np.ndarray, replacements: dict[int, Column]
    ) -> "TableData":
        """A new version in which, for each column ordinal in
        ``replacements``, the rows at ``positions`` take the values of
        the replacement column (one value per position, already of the
        column's type) — UPDATE."""
        cols = list(self.columns)
        for i, new in replacements.items():
            if len(new) != len(positions):
                raise ExecutionError("update column length mismatch")
            cols[i] = _scatter(cols[i], positions, new)
        return TableData(self.schema, cols)

    def rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate rows as Python tuples (slow path)."""
        return self.to_batch().rows()


def _merged_validity(old: Column, new: Column, merge) -> np.ndarray | None:
    if old.valid is None and new.valid is None:
        return None
    return merge(old.validity(), new.validity())


def _extend_dictionary(
    mine: DictionaryColumn, addition: Column
) -> DictionaryColumn:
    dictionary, codes, added = merge_dictionary(mine, addition)
    return DictionaryColumn(
        np.concatenate([codes, added]),
        dictionary,
        mine.sql_type,
        _merged_validity(mine, addition, lambda a, b: np.concatenate([a, b])),
        dict_nbytes=(
            mine._dict_bytes if dictionary is mine.dictionary else None
        ),
    )


def _scatter(old: Column, positions: np.ndarray, new: Column) -> Column:
    """``old`` with ``new``'s values written at ``positions``."""

    def put(target, source):
        target = np.array(target)
        target[positions] = source
        return target

    valid = _merged_validity(old, new, put)
    if isinstance(old, DictionaryColumn):
        dictionary, codes, new_codes = merge_dictionary(old, new)
        return DictionaryColumn(
            put(codes, new_codes), dictionary, old.sql_type, valid,
            dict_nbytes=(
                old._dict_bytes if dictionary is old.dictionary else None
            ),
        )
    return Column(put(plain_values(old), new.values), old.sql_type, valid)


class Table:
    """A named, versioned table.

    ``versions`` is an append-only list of ``(commit_ts, TableData)`` pairs
    in increasing timestamp order. ``created_ts``/``dropped_ts`` scope the
    table's visibility so snapshots see a consistent catalog.
    """

    def __init__(self, name: str, schema: TableSchema, created_ts: int):
        self.name = name
        self.schema = schema
        self.created_ts = created_ts
        self.dropped_ts: int | None = None
        self.versions: list[tuple[int, TableData]] = [
            (created_ts, TableData.empty(schema))
        ]

    def visible_at(self, ts: int) -> bool:
        """Whether the table exists in the snapshot at ``ts``."""
        if ts < self.created_ts:
            return False
        return self.dropped_ts is None or ts < self.dropped_ts

    def data_at(self, ts: int) -> TableData:
        """Latest version committed at or before ``ts``."""
        chosen: TableData | None = None
        for commit_ts, data in self.versions:
            if commit_ts <= ts:
                chosen = data
            else:
                break
        if chosen is None:
            raise CatalogError(
                f"table {self.name!r} not visible at snapshot {ts}"
            )
        return chosen

    def latest(self) -> TableData:
        """The most recently committed version."""
        return self.versions[-1][1]

    def latest_commit_ts(self) -> int:
        return self.versions[-1][0]

    def install(self, commit_ts: int, data: TableData) -> None:
        """Append a new committed version (called by the txn manager)."""
        if commit_ts < self.versions[-1][0]:
            raise CatalogError("non-monotonic version install")
        self.versions.append((commit_ts, data))

    def truncate_history(self, keep_after_ts: int) -> int:
        """Garbage-collect versions no snapshot at or after
        ``keep_after_ts`` can see. Returns the number dropped."""
        # Keep the newest version at or before the horizon plus everything
        # after it; everything older is unreachable.
        idx = 0
        for i, (commit_ts, _) in enumerate(self.versions):
            if commit_ts <= keep_after_ts:
                idx = i
        if idx:
            # Rebind, never shrink in place: a reader on another thread
            # may be iterating the list it fetched.
            self.versions = self.versions[idx:]
        return idx
