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
#: key value (group codes here, match ranges in ``exec/join.py``), so
#: the table costs no more than a pass over its input. Sparser keys are
#: sorted.
DENSE_SPAN_FACTOR = 4

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
