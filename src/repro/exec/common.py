"""Shared vectorised kernels: key factorization and row materialisation.

Factorization maps rows of one or more key columns to dense integer
codes in ``[0, n_groups)``. It is the workhorse behind hash aggregation,
DISTINCT, set operations, and hash joins — the engine's equivalent of
building a hash table. Each key column takes the cheapest exact route
its physical form allows (:func:`factorize_column`); every route numbers
the groups the way the one it replaces did, so which one ran never
shows in the output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..storage.column import Column, ColumnBatch
from ..storage.encoding import DictionaryColumn
from ..types import TypeKind

#: The engine's one density rule: integer keys spanning at most this
#: many slots per row are addressed through a table with one slot per
#: key value (group codes here, match ranges in :func:`offset_table`),
#: so the table costs no more than a pass over its input. Sparser keys
#: are sorted.
DENSE_SPAN_FACTOR = 4


def dense_span(span: int, n_keys: int, probe_rows: int = 0) -> bool:
    """:func:`offset_table`'s rule: whether ``n_keys`` keys spanning
    ``span`` values, probed by ``probe_rows`` rows, get a table."""
    return span <= DENSE_SPAN_FACTOR * n_keys + probe_rows


def offset_table(
    sorted_keys: np.ndarray, probe_rows: int = 0
) -> Optional[tuple[int, np.ndarray]]:
    """``(base, offsets)`` such that the rows with key ``k`` are
    ``sorted_keys[offsets[k - base]:offsets[k - base + 1]]``, or None
    when the keys are too sparse (or absent) for a table. ``offsets``
    ends in one spare slot with an empty range — where the probe sends
    keys outside ``[base, base + span)``.

    The table has one slot per key value between the smallest and
    largest key, and is built when that span is at most
    ``DENSE_SPAN_FACTOR`` slots per key plus one per probe row, so it
    costs no more than a pass over its inputs; sparser keys are
    binary-searched (:func:`key_ranges`). The hash join builds one over
    its build-side codes, ``x IN (subquery)`` one over the subquery's
    distinct integer keys (:class:`KeySet`)."""
    if len(sorted_keys) == 0:
        return None
    base = int(sorted_keys[0])
    # Python ints: the span of two int64 keys can exceed int64.
    span = int(sorted_keys[-1]) - base + 1
    if not dense_span(span, len(sorted_keys), probe_rows):
        return None
    offsets = np.zeros(span + 2, dtype=np.int64)
    np.cumsum(
        np.bincount(sorted_keys - base, minlength=span),
        out=offsets[1:-1],
    )
    offsets[-1] = offsets[-2]
    return base, offsets


def key_ranges(
    sorted_keys: np.ndarray,
    probe: np.ndarray,
    table: Optional[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: each probe key's run ``sorted_keys[lo:hi]`` — read
    from ``table`` (the keys' :func:`offset_table`, int64 probes only)
    or binary-searched when it is None. Both give the same ranges
    wherever a range is non-empty."""
    if table is None:
        lo = np.searchsorted(sorted_keys, probe, side="left")
        hi = np.searchsorted(sorted_keys, probe, side="right")
        return lo, hi
    base, offsets = table
    # As uint64, ``key - base`` (wrapping) is below the span exactly for
    # keys inside it: keys under ``base`` wrap to huge values.
    slot = np.minimum(
        (probe - base).view(np.uint64), len(offsets) - 2
    ).view(np.int64)
    return offsets[slot], offsets[slot + 1]


#: ``KeySet`` domains: values of two different domains are never equal
#: (a string never equals a number); within ``int`` and ``float`` every
#: comparison is exact.
_INT_KINDS = frozenset(
    {TypeKind.BOOLEAN, TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DATE}
)

#: int64's range as floats: ``[-2**63, 2**63)``.
_INT64_FLOAT_LOW = -(2.0 ** 63)
_INT64_FLOAT_HIGH = 2.0 ** 63


def _key_domain(col: Column) -> Optional[str]:
    kind = col.sql_type.kind
    if kind in _INT_KINDS:
        return "int"
    if kind is TypeKind.DOUBLE:
        return "float"
    if kind is TypeKind.VARCHAR:
        return "str"
    return None  # the NULL type: no value at all


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values: dense integers through a presence
    table (the density rule), everything else by ``np.unique``."""
    if values.dtype.kind == "i" and len(values):
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= DENSE_SPAN_FACTOR * len(values):
            present = np.zeros(span, dtype=np.bool_)
            present[values - low] = True
            return np.flatnonzero(present) + low
    return np.unique(values)


def _integral(values: np.ndarray) -> np.ndarray:
    """Mask of the doubles that equal an int64 exactly."""
    with np.errstate(invalid="ignore"):
        return (
            (values == np.trunc(values))
            & (values >= _INT64_FLOAT_LOW)
            & (values < _INT64_FLOAT_HIGH)
        )


class KeySet:
    """The values of one column, as ``probe IN (subquery)`` tests rows
    against them: sorted distinct non-NULL keys (NaN dropped: it equals
    nothing), whether a NULL was among them, and whether the column was
    empty.

    Membership is SQL equality across types, exact as comparing the
    Python values would be: BOOLEAN, INTEGER, BIGINT and DATE compare
    as integers; a DOUBLE equals an integer only when it is that
    integer exactly (``9007199254740993`` is not ``9007199254740992.0``);
    ``-0.0`` equals ``0.0``; NaN equals nothing; a string equals only
    the same string. Integer probes read an :func:`offset_table` when
    the keys are dense, other probes binary-search; a dictionary-encoded
    probe is answered once per dictionary entry and gathered by code.
    """

    __slots__ = (
        "domain", "keys", "has_null", "empty", "_table", "_int_keys",
        "_dict_flags",
    )

    def __init__(self, col: Column):
        n = len(col)
        valid = col.valid
        n_valid = n if valid is None else int(valid.sum())
        self.domain = _key_domain(col)
        if self.domain is None:
            n_valid = 0
        self.has_null = n_valid < n
        #: The column had no row at all.
        self.empty = n == 0
        self._dict_flags = None
        self._int_keys = None
        self._table = None
        if n_valid == 0:
            self.keys = np.zeros(0, dtype=np.int64)
        elif isinstance(col, DictionaryColumn):
            codes = col.codes if valid is None else col.codes[valid]
            # The dictionary is sorted: code order is value order.
            distinct = _distinct_sorted(codes.astype(np.int64))
            self.keys = col.dictionary[distinct]
        else:
            live = col.values if valid is None else col.values[valid]
            if self.domain == "int":
                self.keys = _distinct_sorted(live.astype(np.int64))
                self._table = offset_table(self.keys)
            elif self.domain == "float":
                self.keys = np.unique(live[~np.isnan(live)])
            else:
                self.keys = np.unique(live)

    def _integer_keys(self) -> tuple[np.ndarray, Optional[tuple]]:
        """The keys an integer probe can equal, as sorted int64, and
        their offset table."""
        if self.domain == "int":
            return self.keys, self._table
        if self._int_keys is None:
            exact = self.keys[_integral(self.keys)].astype(np.int64)
            self._int_keys = (exact, offset_table(exact))
        return self._int_keys

    def member(self, col: Column) -> np.ndarray:
        """Per row of ``col``: whether its value equals a key (False at
        NULL rows)."""
        domain = _key_domain(col)
        if len(self.keys) == 0 or domain is None or (
            (domain == "str") != (self.domain == "str")
        ):
            return np.zeros(len(col), dtype=np.bool_)
        valid = col.valid
        if isinstance(col, DictionaryColumn):
            cached = self._dict_flags
            if cached is None or cached[0] is not col.dictionary:
                flags = _found(self.keys, None, col.dictionary)
                cached = self._dict_flags = (col.dictionary, flags)
            hit = cached[1][col.codes]
            return hit if valid is None else hit & valid
        if valid is None:
            return self._member_values(domain, col.values)
        out = np.zeros(len(col), dtype=np.bool_)
        out[valid] = self._member_values(domain, col.values[valid])
        return out

    def _member_values(self, domain: str, values: np.ndarray) -> np.ndarray:
        if domain == "str" or domain == self.domain == "float":
            return _found(self.keys, None, values)
        keys, table = self._integer_keys()
        if domain == "int":
            return _found(keys, table, values.astype(np.int64, copy=False))
        # A double probe meets integer keys: only integral doubles can
        # match, and they compare as the integers they are.
        exact = _integral(values)
        out = np.zeros(len(values), dtype=np.bool_)
        out[exact] = _found(keys, table, values[exact].astype(np.int64))
        return out


def _found(keys: np.ndarray, table, probe: np.ndarray) -> np.ndarray:
    """Whether each probe value is among the sorted ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(probe), dtype=np.bool_)
    lo, hi = key_ranges(keys, probe, table)
    return hi > lo


#: The routes of :func:`factorize_column`, as the ``path`` label of
#: ``exec_group_keys_total``.
GROUP_KEY_PATHS = ("dict", "dense", "sort", "rows")


def _value_order_codes(
    slots: np.ndarray, n_slots: int
) -> tuple[np.ndarray, int]:
    """Renumber ``slots`` (int64 in ``[0, n_slots)``) by the rank of
    their value among the occupied slots: ``np.unique``'s numbering
    without its sort."""
    occupied = np.zeros(n_slots, dtype=np.bool_)
    occupied[slots] = True
    rank = np.cumsum(occupied) - 1
    return rank[slots], int(rank[-1]) + 1


def _first_appearance_codes(
    slots: np.ndarray, n_slots: int
) -> tuple[np.ndarray, int]:
    """Renumber ``slots`` (int64 in ``[0, n_slots)``) in the order their
    values first appear — the numbering of the per-row loop in
    :func:`factorize_column` — in O(n + n_slots)."""
    first_row = group_representatives(slots, n_slots)[slots]
    opens_group = first_row == np.arange(len(slots), dtype=np.int64)
    code_at_row = np.cumsum(opens_group) - 1
    return code_at_row[first_row], int(code_at_row[-1]) + 1


def _dense_integer_codes(
    values: np.ndarray,
) -> Optional[tuple[np.ndarray, int]]:
    """Value-order codes of a non-empty integer array through a presence
    table, or None when its span fails the density rule."""
    low = int(values.min())
    # Python ints: the span of two int64 values can exceed int64.
    span = int(values.max()) - low + 1
    if span > DENSE_SPAN_FACTOR * len(values):
        return None
    return _value_order_codes(
        np.subtract(values, low, dtype=np.int64), span
    )


def _sorted_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Value-order codes by sorting: the fallback for every dtype."""
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniques)


def factorize_column(col: Column, stats=None) -> tuple[np.ndarray, int]:
    """Dense codes for one column; NULLs form their own group (SQL
    GROUP BY treats NULLs as equal). Returns (codes, n_codes).

    Strings are numbered in first-appearance order — a dictionary-
    encoded column from its codes, a raw one by a per-row loop — and
    every other type in value order with the NULL group last: dense
    integers through a presence table, the rest by ``np.unique``.
    ``stats`` (an :class:`~repro.exec.physical.ExecutionStats`) counts
    the route taken.
    """
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    valid = col.valid
    if isinstance(col, DictionaryColumn):
        path = "dict"
        slots = col.codes.astype(np.int64)
        n_slots = len(col.dictionary)
        if valid is not None:
            slots[~valid] = n_slots
            n_slots += 1
        codes, count = _first_appearance_codes(slots, n_slots)
    elif col.sql_type.kind is TypeKind.VARCHAR:
        path = "rows"
        codes = np.zeros(n, dtype=np.int64)
        mapping: dict[object, int] = {}
        validity = col.validity()
        values = col.values
        null_code = -1
        for i in range(n):
            if validity[i]:
                value = values[i]
                code = mapping.get(value)
                if code is None:
                    code = mapping[value] = len(mapping) + (null_code >= 0)
            else:
                if null_code < 0:
                    null_code = len(mapping)
                code = null_code
            codes[i] = code
        count = len(mapping) + (null_code >= 0)
    else:
        # Factorize only valid slots: backing values at NULL slots (NaN,
        # sentinels) must not mint codes of their own, or they'd surface
        # as phantom empty groups downstream.
        live = col.values if valid is None else col.values[valid]
        dense = (
            _dense_integer_codes(live)
            if live.dtype.kind == "i" and len(live)
            else None
        )
        path = "sort" if dense is None else "dense"
        live_codes, count = dense or _sorted_codes(live)
        if valid is None:
            codes = live_codes
        else:
            codes = np.full(n, count, dtype=np.int64)
            codes[valid] = live_codes
            count += 1
    if stats is not None:
        stats.group_keys[path] += 1
    return codes, count


def compose_codes(
    codes: np.ndarray, count: int, more_codes: np.ndarray, more_count: int
) -> tuple[np.ndarray, int]:
    """Dense codes of the pairs ``(codes[i], more_codes[i])``, numbered
    in pair order."""
    combined = codes * np.int64(more_count) + more_codes
    if count * more_count <= DENSE_SPAN_FACTOR * len(combined):
        return _value_order_codes(combined, count * more_count)
    return _sorted_codes(combined)


def factorize(
    columns: Sequence[Column], stats=None
) -> tuple[np.ndarray, int]:
    """Dense row codes over one or more key columns (mixed-radix
    compose, re-compacted pairwise to avoid int64 overflow)."""
    codes, count = factorize_column(columns[0], stats)
    for col in columns[1:]:
        more_codes, more_count = factorize_column(col, stats)
        if count == 0 or more_count == 0:
            return np.zeros(len(codes), dtype=np.int64), 0
        codes, count = compose_codes(codes, count, more_codes, more_count)
    return codes, count


def group_representatives(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the first row of each group (for gathering key values);
    -1 for a group without rows."""
    first = np.full(n_groups, -1, dtype=np.int64)
    # Reverse so earlier rows overwrite later ones.
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def concat_batches(
    batches: list[ColumnBatch], names: Sequence[str]
) -> ColumnBatch:
    """Concatenate batches (possibly none) into one, preserving layout."""
    non_empty = [b for b in batches if len(b) > 0]
    if not non_empty:
        if batches:
            return batches[0]
        raise ValueError("concat_batches needs a layout batch")
    if len(non_empty) == 1:
        return non_empty[0]
    return ColumnBatch(
        {
            name: Column.concat([b[name] for b in non_empty])
            for name in names
        }
    )
