"""Typed column vectors and column batches.

A :class:`Column` is a densely typed numpy array plus an optional validity
mask (``None`` means "no NULLs"). Columns are treated as immutable once
constructed; mutation goes through copy-on-write at the table layer.

A :class:`ColumnBatch` is the engine's unit of data flow: an ordered mapping
of column names to :class:`Column` values of equal length. Physical
operators are generators of batches, which is the vectorised analogue of
HyPer's data-centric tuple pipelines.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..types import SQLType, TypeKind, coerce_scalar


#: Python types whose values ``np.asarray`` converts to a SQL type's
#: dtype exactly as per-cell ``coerce_scalar`` would (bool is not int
#: here: ``type(True)`` is ``bool``).
_NATIVE = {
    TypeKind.BOOLEAN: (bool,),
    TypeKind.INTEGER: (int,),
    TypeKind.BIGINT: (int,),
    TypeKind.DATE: (int,),
    TypeKind.DOUBLE: (float, int),
    TypeKind.VARCHAR: (str,),
    TypeKind.NULL: (),
}


class Column:
    """An immutable typed vector of values with NULL tracking.

    Attributes:
        values: numpy array holding the (dense) values. Slots that are NULL
            hold an unspecified filler value and must not be interpreted.
        valid: boolean numpy array, ``True`` where the value is non-NULL,
            or ``None`` when every value is valid.
        sql_type: the SQL type of the column.
    """

    __slots__ = ("values", "valid", "sql_type", "_zones")

    def __init__(
        self,
        values: np.ndarray,
        sql_type: SQLType,
        valid: np.ndarray | None = None,
    ):
        self.values = values
        self.sql_type = sql_type
        if valid is not None and bool(valid.all()):
            valid = None
        self.valid = valid
        # Lazily built zone map (None = not built, False = unbuildable).
        self._zones = None

    def zone_map(self):
        """Per-zone min/max/null statistics for scan pruning, built on
        first demand and cached (columns are immutable). None for
        types without ordered zone statistics (VARCHAR)."""
        zones = self._zones
        if zones is None:
            from .zonemap import build_zone_map

            zones = build_zone_map(self)
            # Benign race: concurrent builders produce equal maps, and
            # the slot assignment is atomic.
            self._zones = zones if zones is not None else False
            return zones
        return zones if zones is not False else None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_values(
        cls, values: Iterable[object], sql_type: SQLType
    ) -> "Column":
        """Build a column from arbitrary Python values, coercing each to
        ``sql_type`` and tracking NULLs — the one place Python rows
        become columns (INSERT ... VALUES, ``insert_rows``, CSV import,
        literals). Values that are all of the one Python type the SQL
        type stores natively (so: no ``None``) convert as one array;
        anything else is coerced cell by cell, with the same errors."""
        items = list(values)
        n = len(items)
        dtype = sql_type.numpy_dtype()
        kinds = set(map(type, items))
        if len(kinds) == 1 and kinds.pop() in _NATIVE[sql_type.kind]:
            return cls(np.asarray(items, dtype=dtype), sql_type)
        out = np.zeros(n, dtype=dtype)
        valid = np.ones(n, dtype=np.bool_)
        for i, item in enumerate(items):
            if item is None:
                valid[i] = False
                if dtype == object:
                    out[i] = None
            else:
                out[i] = coerce_scalar(item, sql_type)
        return cls(out, sql_type, valid if not valid.all() else None)

    @classmethod
    def all_null(cls, n: int, sql_type: SQLType) -> "Column":
        """A column of ``n`` NULLs."""
        values = np.zeros(n, dtype=sql_type.numpy_dtype())
        return cls(values, sql_type, np.zeros(n, dtype=np.bool_))

    @classmethod
    def constant(cls, value: object, n: int, sql_type: SQLType) -> "Column":
        """A column repeating ``value`` ``n`` times."""
        if value is None:
            return cls.all_null(n, sql_type)
        dtype = sql_type.numpy_dtype()
        coerced = coerce_scalar(value, sql_type)
        values = np.full(n, coerced, dtype=dtype)
        return cls(values, sql_type)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        nulls = 0 if self.valid is None else int((~self.valid).sum())
        return (
            f"Column({self.sql_type}, n={len(self)}, nulls={nulls})"
        )

    @property
    def nbytes(self) -> int:
        """Accounted size in bytes (values plus validity mask), as seen
        by the resource governor's memory ledger."""
        total = int(self.values.nbytes)
        if self.valid is not None:
            total += int(self.valid.nbytes)
        return total

    def null_count(self) -> int:
        """Number of NULL slots in the column."""
        if self.valid is None:
            return 0
        return int((~self.valid).sum())

    def validity(self) -> np.ndarray:
        """A materialised validity mask (always an array, never None)."""
        if self.valid is None:
            # len(self), not len(self.values): encoded subclasses know
            # their length without decoding (see storage/encoding.py).
            return np.ones(len(self), dtype=np.bool_)
        return self.valid

    def value_at(self, i: int) -> object:
        """The Python value at row ``i`` (None for NULL)."""
        if self.valid is not None and not self.valid[i]:
            return None
        raw = self.values[i]
        kind = self.sql_type.kind
        if kind is TypeKind.BOOLEAN:
            return bool(raw)
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DATE):
            return int(raw)
        if kind is TypeKind.DOUBLE:
            return float(raw)
        return raw

    def to_pylist(self) -> list[object]:
        """All values as a Python list with None for NULLs: the values
        :meth:`value_at` gives, converted by one ``tolist`` when they
        are stored in their type's own dtype."""
        values = self.values
        if values.dtype != self.sql_type.numpy_dtype():
            return [self.value_at(i) for i in range(len(self))]
        out = values.tolist()
        if self.valid is not None:
            for i in np.flatnonzero(~self.valid).tolist():
                out[i] = None
        return out

    # -- vectorised manipulation -------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position (used by joins, sorts, filters)."""
        values = self.values[indices]
        valid = None if self.valid is None else self.valid[indices]
        return Column(values, self.sql_type, valid)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        values = self.values[mask]
        valid = None if self.valid is None else self.valid[mask]
        return Column(values, self.sql_type, valid)

    def slice(self, start: int, stop: int) -> "Column":
        """A contiguous row range as a (view-backed) column."""
        values = self.values[start:stop]
        valid = None if self.valid is None else self.valid[start:stop]
        return Column(values, self.sql_type, valid)

    @classmethod
    def concat(cls, parts: Sequence["Column"]) -> "Column":
        """Concatenate columns of an identical SQL type."""
        if not parts:
            raise ExecutionError("cannot concatenate zero columns")
        encoded = parts[0]._concat_encoded(parts)
        if encoded is not None:
            return encoded
        sql_type = parts[0].sql_type
        values = np.concatenate([p.values for p in parts])
        if all(p.valid is None for p in parts):
            valid = None
        else:
            valid = np.concatenate([p.validity() for p in parts])
        return cls(values, sql_type, valid)

    def _concat_encoded(
        self, parts: Sequence["Column"]
    ) -> "Column | None":
        """``parts`` (``self`` first) concatenated without decoding, or
        None when their physical forms have no common encoded one."""
        return None

    def cast(self, target: SQLType) -> "Column":
        """Vectorised cast to ``target``; NULLs stay NULL."""
        if target.kind == self.sql_type.kind:
            return Column(self.values, target, self.valid)
        kind = target.kind
        if kind is TypeKind.VARCHAR:
            out = np.empty(len(self), dtype=object)
            validity = self.validity()
            src_kind = self.sql_type.kind
            for i in range(len(self)):
                if validity[i]:
                    raw = self.values[i]
                    if src_kind is TypeKind.BOOLEAN:
                        out[i] = "true" if raw else "false"
                    elif src_kind is TypeKind.DOUBLE:
                        out[i] = repr(float(raw))
                    else:
                        out[i] = str(raw)
            return Column(out, target, self.valid)
        if self.sql_type.kind is TypeKind.VARCHAR:
            return Column.from_values(
                [
                    None if v is None else coerce_scalar(v, target)
                    for v in self.to_pylist()
                ],
                target,
            )
        try:
            values = self.values.astype(target.numpy_dtype())
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"cannot cast {self.sql_type} to {target}"
            ) from exc
        return Column(values, target, self.valid)


class ColumnBatch:
    """An ordered set of equal-length named columns (a vectorised chunk).

    Column names inside a batch are the *resolved output names* of the
    producing operator; binding has already mapped SQL identifiers to
    unique slot names, so batches never carry ambiguity.
    """

    __slots__ = ("columns", "_length")

    def __init__(self, columns: Mapping[str, Column]):
        self.columns: dict[str, Column] = dict(columns)
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(
                f"ragged batch: column lengths {sorted(lengths)}"
            )
        self._length = lengths.pop() if lengths else 0

    @classmethod
    def empty(cls, names_and_types: Mapping[str, SQLType]) -> "ColumnBatch":
        """A zero-row batch with the given layout."""
        return cls(
            {
                name: Column(np.zeros(0, dtype=t.numpy_dtype()), t)
                for name, t in names_and_types.items()
            }
        )

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def __getitem__(self, name: str) -> Column:
        return self.columns[name]

    def names(self) -> list[str]:
        return list(self.columns)

    @property
    def nbytes(self) -> int:
        """Accounted size in bytes of all columns (governor ledger)."""
        return sum(c.nbytes for c in self.columns.values())

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        return ColumnBatch(
            {n: c.take(indices) for n, c in self.columns.items()}
        )

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        return ColumnBatch(
            {n: c.filter(mask) for n, c in self.columns.items()}
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(
            {n: c.slice(start, stop) for n, c in self.columns.items()}
        )

    def with_columns(self, extra: Mapping[str, Column]) -> "ColumnBatch":
        """A new batch with additional/overridden columns."""
        merged = dict(self.columns)
        merged.update(extra)
        return ColumnBatch(merged)

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Keep only ``names``, in order."""
        return ColumnBatch({n: self.columns[n] for n in names})

    def rename(self, mapping: Mapping[str, str]) -> "ColumnBatch":
        """Rename columns; names absent from ``mapping`` are kept."""
        return ColumnBatch(
            {mapping.get(n, n): c for n, c in self.columns.items()}
        )

    def rows(self) -> Iterator[tuple[object, ...]]:
        """Iterate rows as Python tuples (results, the wire, tests)."""
        yield from zip(*(c.to_pylist() for c in self.columns.values()))

    @classmethod
    def concat(cls, parts: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches with identical layouts."""
        if not parts:
            raise ExecutionError("cannot concatenate zero batches")
        names = parts[0].names()
        return cls(
            {
                name: Column.concat([p[name] for p in parts])
                for name in names
            }
        )
