"""Encoded column storage: dictionary, frame-of-reference, run-length.

The paper's premise (and PIMDAL's, PAPERS.md) is that analytical scans
are bound by bytes moved, not cycles spent. This module shrinks the
bytes: each column of a committed table version may be stored in an
*encoded* physical form chosen per column at write time:

* :class:`DictionaryColumn` — VARCHAR values as ``int32`` codes into a
  **sorted** dictionary of distinct strings. Sorting the dictionary is
  what makes every comparison operator evaluable on codes: the code
  order equals the value order, so ``col < 'm'`` becomes an integer
  compare against ``searchsorted(dictionary, 'm')``.
* :class:`FORColumn` — INTEGER/BIGINT/DATE values as a frame-of-
  reference base plus unsigned offsets in the narrowest of
  uint8/uint16/uint32 that spans the column's value range.
* :class:`RLEColumn` — NULL-free columns whose values arrive in long
  runs, stored as (run value, run length) pairs.

Encoded columns subclass :class:`~repro.storage.column.Column` and
shadow its ``values`` slot with a lazy-decode property, so every
existing operator works unchanged — it just pays a decode the first
time it touches ``.values``. The hot paths that matter never do:
``take``/``filter``/``slice`` stay in code space, zone maps build from
codes/offsets/runs, and the expression compiler has predicate-on-codes
fast paths (see ``repro/expr/compiler.py``) that evaluate
``=, <>, <, <=, >, >=, IN, IS NULL`` without decoding a single value.

Selection policy (:func:`encode_column`):

* ``auto`` (default) — dictionary for VARCHAR when the distinct count
  is at most 3/4 of the rows; RLE for NULL-free integrals with at most
  ``n/4`` runs; FOR when the offsets fit a strictly narrower dtype.
* ``dict`` / ``for`` / ``rle`` — force one family (others stay raw).
* ``raw`` — decode everything (the control arm of the differential
  twin checks).

The policy is a property of the session (``Database(encoding=...)`` or
``REPRO_ENCODING``) and is applied where a transaction stages a table
version — the single choke point every INSERT/UPDATE/DELETE/CTAS/
WAL-replay funnels through — so encoded state survives DML and
rollback for free (table versions are immutable; rollback just drops
the staged version). What reaches it is a dictionary column or plain
values (:func:`stored_form`), so under ``auto`` the layout of a stored
column follows from its values, not from the statements that produced
them.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

import numpy as np

from ..types import INTEGER, SQLType, TypeKind
from .column import Column

#: Valid values of the session encoding policy.
ENCODING_POLICIES = ("auto", "dict", "for", "rle", "raw")

#: Minimum rows before ``auto`` bothers encoding a column.
_AUTO_MIN_ROWS = 4

#: Integral kinds eligible for FOR / RLE.
_INTEGRAL_KINDS = frozenset(
    {TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DATE}
)


def _object_payload_nbytes(values) -> int:
    """Bytes owned by the Python string objects in an object array."""
    return sum(
        sys.getsizeof(v) for v in values if v is not None
    )


class EncodedColumn(Column):
    """Base of the encoded physical layouts.

    Shadows the parent's ``values`` slot with a lazily-decoded, cached
    property. Subclass constructors must NOT call ``Column.__init__``
    (it assigns ``self.values``, which the property forbids); they call
    :meth:`_init_base` instead.
    """

    __slots__ = ("_decoded",)

    @property
    def values(self) -> np.ndarray:
        """The decoded dense value array (built on first access and
        cached on this instance; morsel slices are short-lived, so the
        cache does not pin whole-table decodes)."""
        decoded = self._decoded
        if decoded is None:
            decoded = self._decode()
            self._decoded = decoded
        return decoded

    def _init_base(
        self, sql_type: SQLType, valid: Optional[np.ndarray]
    ) -> None:
        self.sql_type = sql_type
        if valid is not None and bool(valid.all()):
            valid = None
        self.valid = valid
        self._zones = None
        self._decoded = None

    def _decode(self) -> np.ndarray:
        raise NotImplementedError

    #: Short name of the layout ("dict", "for", "rle").
    encoding = "encoded"


class DictionaryColumn(EncodedColumn):
    """VARCHAR column as int32 codes into a sorted string dictionary.

    NULL slots carry code 0 as a filler; the validity mask is
    authoritative, exactly like the unspecified fillers in raw columns.
    Invariants (checked by ``tests/test_encoding.py``): the dictionary
    is sorted, free of duplicates and of NULL, and — on committed table
    versions — every entry is referenced by at least one valid row
    (:func:`compact_dictionary` runs whenever a version is staged).
    """

    __slots__ = ("codes", "dictionary", "_dict_bytes")

    encoding = "dict"

    def __init__(
        self,
        codes: np.ndarray,
        dictionary: np.ndarray,
        sql_type: SQLType,
        valid: Optional[np.ndarray] = None,
        dict_nbytes: Optional[int] = None,
    ):
        self.codes = codes
        self.dictionary = dictionary
        if dict_nbytes is None:
            dict_nbytes = int(dictionary.nbytes) + _object_payload_nbytes(
                dictionary
            )
        self._dict_bytes = dict_nbytes
        self._init_base(sql_type, valid)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        total = int(self.codes.nbytes) + self._dict_bytes
        if self.valid is not None:
            total += int(self.valid.nbytes)
        return total

    def _decode(self) -> np.ndarray:
        if len(self.dictionary) == 0:
            out = np.empty(len(self.codes), dtype=object)
        else:
            out = self.dictionary[self.codes]
        if self.valid is not None:
            out[~self.valid] = None
        return out

    def take(self, indices: np.ndarray) -> "DictionaryColumn":
        return DictionaryColumn(
            self.codes[indices],
            self.dictionary,
            self.sql_type,
            None if self.valid is None else self.valid[indices],
            dict_nbytes=self._dict_bytes,
        )

    def filter(self, mask: np.ndarray) -> "DictionaryColumn":
        return DictionaryColumn(
            self.codes[mask],
            self.dictionary,
            self.sql_type,
            None if self.valid is None else self.valid[mask],
            dict_nbytes=self._dict_bytes,
        )

    def slice(self, start: int, stop: int) -> "DictionaryColumn":
        return DictionaryColumn(
            self.codes[start:stop],
            self.dictionary,
            self.sql_type,
            None if self.valid is None else self.valid[start:stop],
            dict_nbytes=self._dict_bytes,
        )

    def _concat_encoded(
        self, parts: Sequence[Column]
    ) -> Optional["DictionaryColumn"]:
        """Parts that share this column's dictionary *object* (slices,
        gathers and filters of one stored column) stay codes."""
        dictionary = self.dictionary
        for part in parts:
            if (
                not isinstance(part, DictionaryColumn)
                or part.dictionary is not dictionary
            ):
                return None
        if all(p.valid is None for p in parts):
            valid = None
        else:
            valid = np.concatenate([p.validity() for p in parts])
        return DictionaryColumn(
            np.concatenate([p.codes for p in parts]),
            dictionary,
            self.sql_type,
            valid,
            dict_nbytes=self._dict_bytes,
        )

    def zone_map(self):
        """A *code-space* zone map: min/max are dictionary codes, not
        values. Because the dictionary is sorted this is order-faithful;
        :class:`~repro.storage.zonemap.ScanPruner` translates string
        constants to code space before consulting it."""
        zones = self._zones
        if zones is None:
            from .zonemap import build_zone_map

            proxy = Column(self.codes, INTEGER, self.valid)
            zones = build_zone_map(proxy)
            self._zones = zones if zones is not None else False
            return zones
        return zones if zones is not False else None

    # -- predicate-on-codes -------------------------------------------

    def code_bound(self, value: str) -> tuple[int, bool]:
        """``(insertion index, present)`` of ``value`` in the sorted
        dictionary. Codes ``< index`` hold strictly smaller strings."""
        idx = int(np.searchsorted(self.dictionary, value))
        present = (
            idx < len(self.dictionary)
            and self.dictionary[idx] == value
        )
        return idx, bool(present)

    def compare_const(self, op: str, value: str) -> np.ndarray:
        """Evaluate ``column <op> value`` on codes; returns the boolean
        value array (slots invalid per ``self.valid`` are unspecified,
        exactly like raw comparison output)."""
        idx, present = self.code_bound(value)
        codes = self.codes
        if op == "=":
            if not present:
                return np.zeros(len(codes), dtype=np.bool_)
            return codes == idx
        if op in ("<>", "!="):
            if not present:
                return np.ones(len(codes), dtype=np.bool_)
            return codes != idx
        if op == "<":
            return codes < idx
        if op == "<=":
            return codes <= idx if present else codes < idx
        if op == ">":
            return codes > idx if present else codes >= idx
        if op == ">=":
            return codes >= idx
        raise ValueError(f"unknown comparison operator {op!r}")

    def isin_const(self, items: Sequence[str]) -> np.ndarray:
        """Membership of each row in ``items``, evaluated on codes."""
        member = []
        for item in items:
            idx, present = self.code_bound(item)
            if present:
                member.append(idx)
        if not member:
            return np.zeros(len(self.codes), dtype=np.bool_)
        return np.isin(self.codes, np.asarray(member, dtype=np.int64))


class FORColumn(EncodedColumn):
    """Frame-of-reference integers: ``value = base + offset`` with the
    offsets held in the narrowest unsigned dtype spanning the range.
    NULL slots carry offset 0 as a filler."""

    __slots__ = ("offsets", "base")

    encoding = "for"

    def __init__(
        self,
        offsets: np.ndarray,
        base: int,
        sql_type: SQLType,
        valid: Optional[np.ndarray] = None,
    ):
        self.offsets = offsets
        self.base = int(base)
        self._init_base(sql_type, valid)

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def nbytes(self) -> int:
        total = int(self.offsets.nbytes)
        if self.valid is not None:
            total += int(self.valid.nbytes)
        return total

    def _decode(self) -> np.ndarray:
        wide = self.offsets.astype(np.int64) + self.base
        return wide.astype(self.sql_type.numpy_dtype(), copy=False)

    def take(self, indices: np.ndarray) -> "FORColumn":
        return FORColumn(
            self.offsets[indices],
            self.base,
            self.sql_type,
            None if self.valid is None else self.valid[indices],
        )

    def filter(self, mask: np.ndarray) -> "FORColumn":
        return FORColumn(
            self.offsets[mask],
            self.base,
            self.sql_type,
            None if self.valid is None else self.valid[mask],
        )

    def slice(self, start: int, stop: int) -> "FORColumn":
        return FORColumn(
            self.offsets[start:stop],
            self.base,
            self.sql_type,
            None if self.valid is None else self.valid[start:stop],
        )

    def zone_map(self):
        """Built over the offsets, then shifted by ``base`` — the map
        is in *value* space, so the pruner needs no translation."""
        zones = self._zones
        if zones is None:
            from .zonemap import ZoneMap, build_zone_map

            proxy = Column(self.offsets, self.sql_type, self.valid)
            built = build_zone_map(proxy)
            if built is not None:
                built = ZoneMap(
                    built.zone_rows,
                    built.n_rows,
                    built.mins + self.base,
                    built.maxs + self.base,
                    built.null_counts,
                    built.valid_counts,
                    built.finite_counts,
                )
            self._zones = built if built is not None else False
            return built
        return zones if zones is not False else None

    def compare_const(self, op: str, value) -> np.ndarray:
        """``column <op> value`` evaluated on offsets against the
        base-shifted constant (never materialises the decoded array)."""
        shifted = value - self.base
        off = self.offsets
        if op == "=":
            return off == shifted
        if op in ("<>", "!="):
            return off != shifted
        if op == "<":
            return off < shifted
        if op == "<=":
            return off <= shifted
        if op == ">":
            return off > shifted
        if op == ">=":
            return off >= shifted
        raise ValueError(f"unknown comparison operator {op!r}")


class RLEColumn(EncodedColumn):
    """Run-length encoding of a NULL-free column: parallel arrays of
    run values and run lengths (restricting to NULL-free columns keeps
    every code path branch-free on validity)."""

    __slots__ = ("run_values", "run_lengths", "_ends", "_n")

    encoding = "rle"

    def __init__(
        self,
        run_values: np.ndarray,
        run_lengths: np.ndarray,
        sql_type: SQLType,
    ):
        self.run_values = run_values
        self.run_lengths = run_lengths
        self._ends = np.cumsum(run_lengths)
        self._n = int(self._ends[-1]) if len(run_lengths) else 0
        self._init_base(sql_type, None)

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        return int(self.run_values.nbytes) + int(
            self.run_lengths.nbytes
        )

    def _decode(self) -> np.ndarray:
        return np.repeat(self.run_values, self.run_lengths)

    def take(self, indices: np.ndarray) -> Column:
        # Arbitrary gathers leave run space; fall back to a raw column.
        return Column(self.values[indices], self.sql_type)

    def filter(self, mask: np.ndarray) -> Column:
        return Column(self.values[mask], self.sql_type)

    def slice(self, start: int, stop: int) -> Column:
        """Re-slice in run space (morsel slicing stays encoded)."""
        if stop <= start:
            return Column(
                np.empty(0, dtype=self.run_values.dtype), self.sql_type
            )
        ends = self._ends
        run_starts = ends - self.run_lengths
        i0 = int(np.searchsorted(ends, start, side="right"))
        i1 = int(np.searchsorted(run_starts, stop, side="left"))
        values = self.run_values[i0:i1]
        lengths = (
            np.minimum(ends[i0:i1], stop)
            - np.maximum(run_starts[i0:i1], start)
        )
        return RLEColumn(values, lengths, self.sql_type)

    def zone_map(self):
        """Built run-by-run without decoding: each zone's min/max come
        from the runs overlapping it, counts from the clipped lengths."""
        zones = self._zones
        if zones is None:
            zones = self._build_zone_map()
            self._zones = zones if zones is not None else False
            return zones
        return zones if zones is not False else None

    def _build_zone_map(self):
        from .zonemap import ZONE_ROWS, ZoneMap

        n = self._n
        if n == 0:
            return None
        ends = self._ends
        run_starts = ends - self.run_lengths
        is_float = self.run_values.dtype.kind == "f"
        n_zones = (n + ZONE_ROWS - 1) // ZONE_ROWS
        mins = np.full(n_zones, np.nan)
        maxs = np.full(n_zones, np.nan)
        null_counts = np.zeros(n_zones, dtype=np.int64)
        valid_counts = np.zeros(n_zones, dtype=np.int64)
        finite_counts = np.zeros(n_zones, dtype=np.int64)
        for z in range(n_zones):
            start = z * ZONE_ROWS
            stop = min(start + ZONE_ROWS, n)
            i0 = int(np.searchsorted(ends, start, side="right"))
            i1 = int(np.searchsorted(run_starts, stop, side="left"))
            vals = self.run_values[i0:i1]
            lens = (
                np.minimum(ends[i0:i1], stop)
                - np.maximum(run_starts[i0:i1], start)
            )
            valid_counts[z] = stop - start
            if is_float:
                finite_mask = ~np.isnan(vals)
                finite = vals[finite_mask]
                finite_counts[z] = int(lens[finite_mask].sum())
            else:
                finite = vals
                finite_counts[z] = stop - start
            if len(finite):
                mins[z] = float(finite.min())
                maxs[z] = float(finite.max())
        return ZoneMap(
            ZONE_ROWS, n, mins, maxs,
            null_counts, valid_counts, finite_counts,
        )

    def compare_const(self, op: str, value) -> np.ndarray:
        """``column <op> value`` evaluated once per run, then expanded."""
        rv = self.run_values
        if op == "=":
            runs = rv == value
        elif op in ("<>", "!="):
            runs = rv != value
        elif op == "<":
            runs = rv < value
        elif op == "<=":
            runs = rv <= value
        elif op == ">":
            runs = rv > value
        elif op == ">=":
            runs = rv >= value
        else:
            raise ValueError(f"unknown comparison operator {op!r}")
        return np.repeat(
            np.asarray(runs, dtype=np.bool_), self.run_lengths
        )


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def dictionary_encode(column: Column) -> Optional[DictionaryColumn]:
    """Dictionary-encode a VARCHAR column; None when it has no valid
    rows (an all-NULL column gains nothing and would need an empty
    dictionary with dangling filler codes)."""
    values = column.values
    valid = column.valid
    n = len(column)
    if valid is None:
        live = values
    else:
        live = values[valid]
    if live.size == 0:
        return None
    dictionary = np.unique(live)
    if valid is None:
        codes = np.searchsorted(dictionary, values).astype(np.int32)
    else:
        codes = np.zeros(n, dtype=np.int32)
        codes[valid] = np.searchsorted(dictionary, live).astype(
            np.int32
        )
    return DictionaryColumn(codes, dictionary, column.sql_type, valid)


def for_encode(column: Column) -> Optional[FORColumn]:
    """Frame-of-reference-encode an integral column; None when the
    offsets would not fit a dtype narrower than the stored values (or
    no valid rows exist to pick a base from)."""
    values = column.values
    valid = column.valid
    live = values if valid is None else values[valid]
    if live.size == 0:
        return None
    lo = int(live.min())
    hi = int(live.max())
    if abs(lo) > 2**53 or abs(hi) > 2**53:
        # Beyond float64's exact-integer range a base-shifted float
        # comparison could round differently from the decoded one.
        return None
    span = hi - lo
    if span < 2**8:
        dtype = np.uint8
    elif span < 2**16:
        dtype = np.uint16
    elif span < 2**32:
        dtype = np.uint32
    else:
        return None
    if np.dtype(dtype).itemsize >= values.dtype.itemsize:
        return None
    wide = values.astype(np.int64) - lo
    if valid is not None:
        wide = np.where(valid, wide, 0)
    return FORColumn(wide.astype(dtype), lo, column.sql_type, valid)


def rle_encode(
    column: Column, max_runs: Optional[int] = None
) -> Optional[RLEColumn]:
    """Run-length-encode a NULL-free column; None when it has NULLs,
    is empty, or has more than ``max_runs`` runs."""
    if column.valid is not None:
        return None
    values = column.values
    n = len(values)
    if n == 0:
        return None
    # Floating values split on their bits: ``0.0 == -0.0`` would merge
    # the two into one run (identical NaNs share one, bit for bit).
    bits = (
        values.view(f"u{values.itemsize}")
        if values.dtype.kind == "f"
        else values
    )
    boundaries = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if max_runs is not None and len(boundaries) + 1 > max_runs:
        return None
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    return RLEColumn(
        values[starts].copy(), ends - starts, column.sql_type
    )


def compact_dictionary(column: DictionaryColumn) -> Column:
    """Re-establish the compaction invariant after row deletions: drop
    dictionary entries no valid row references, remapping codes. An
    all-NULL result degrades to a raw column."""
    dictionary = column.dictionary
    codes = column.codes
    valid = column.valid
    if len(dictionary) == 0:
        return column
    live = codes if valid is None else codes[valid]
    if live.size == 0:
        return Column.all_null(len(column), column.sql_type)
    counts = np.bincount(live, minlength=len(dictionary))
    used = counts > 0
    if bool(used.all()):
        return column
    remap = np.cumsum(used) - 1
    new_codes = remap[codes].astype(np.int32)
    if valid is not None:
        new_codes = np.where(valid, new_codes, 0).astype(np.int32)
    return DictionaryColumn(
        new_codes, dictionary[used], column.sql_type, valid
    )


def plain_values(column: Column) -> np.ndarray:
    """The dense value array of ``column``. Unlike ``column.values`` it
    does not cache the decode on an encoded column, so serialising or
    rewriting a *stored* column does not pin a second copy of it."""
    if isinstance(column, EncodedColumn):
        return column._decode()
    return column.values


def stored_form(column: Column, sql_type: SQLType) -> Column:
    """``column`` as the write path stages and logs it for a table
    column of type ``sql_type`` (same kind): a dictionary column keeps
    its codes, anything else becomes plain values of the stored dtype,
    so the layout ``encode_column`` then picks depends on the values
    alone and a replayed or recovered table gets the same one."""
    if isinstance(column, DictionaryColumn):
        if column.sql_type == sql_type:
            return column
        return DictionaryColumn(
            column.codes, column.dictionary, sql_type, column.valid,
            dict_nbytes=column._dict_bytes,
        )
    values = plain_values(column)
    dtype = sql_type.numpy_dtype()
    if values.dtype != dtype:
        values = values.astype(dtype)
    return Column(values, sql_type, column.valid)


def merge_dictionary(
    mine: DictionaryColumn, addition: Column
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dictionary, codes of mine, codes of addition)`` under one
    sorted dictionary holding the words of both columns.

    Only ``addition`` is encoded — against ``mine.dictionary``, which is
    returned as the same object when it already holds every word; new
    words cost one merge and one integer remap of ``mine.codes``. For
    the write path only (append and UPDATE of a stored dictionary
    column): :meth:`Column.concat` keeps its read-side contract and
    decodes parts whose dictionaries differ."""
    if isinstance(addition, DictionaryColumn):
        words, add_codes = addition.dictionary, addition.codes
    else:
        values, valid = addition.values, addition.valid
        words, inverse = np.unique(
            values if valid is None else values[valid],
            return_inverse=True,
        )
        add_codes = np.zeros(len(addition), dtype=np.int32)
        add_codes[slice(None) if valid is None else valid] = inverse
    dictionary = mine.dictionary
    if words is dictionary or len(words) == 0:
        return dictionary, mine.codes, add_codes
    if len(dictionary):
        at = np.searchsorted(dictionary, words)
        known = dictionary[np.minimum(at, len(dictionary) - 1)] == words
        if bool(known.all()):
            return dictionary, mine.codes, at.astype(np.int32)[add_codes]
    merged = np.union1d(dictionary, words)
    remap = np.searchsorted(merged, dictionary).astype(np.int32)
    return (
        merged,
        remap[mine.codes] if len(remap) else mine.codes,
        np.searchsorted(merged, words).astype(np.int32)[add_codes],
    )


def decode_column(column: Column) -> Column:
    """The raw physical form of a (possibly encoded) column."""
    if not isinstance(column, EncodedColumn):
        return column
    return Column(column.values, column.sql_type, column.valid)


def _auto_dictionary(column: DictionaryColumn) -> bool:
    """Whether ``auto`` stores these values as a dictionary column."""
    n = len(column)
    return n >= _AUTO_MIN_ROWS and len(column.dictionary) <= max(
        1, (3 * n) // 4
    )


def encode_column(column: Column, policy: str = "auto") -> Column:
    """The physical form of ``column`` under the session policy.

    Already-encoded inputs pass through (dictionaries are re-compacted
    under ``auto``/``dict``); ``raw`` decodes them. Raw inputs are
    dispatched per type and policy; anything ineligible stays raw.
    """
    if policy == "raw":
        return decode_column(column)
    if isinstance(column, DictionaryColumn):
        if policy in ("auto", "dict"):
            column = compact_dictionary(column)
        if (
            policy == "auto"
            and isinstance(column, DictionaryColumn)
            and not _auto_dictionary(column)
        ):
            # Extended or updated past the point where a dictionary
            # pays: store what a fresh encode of these values would.
            return decode_column(column)
        return column
    if isinstance(column, EncodedColumn):
        return column
    n = len(column)
    if n == 0:
        return column
    kind = column.sql_type.kind

    if kind is TypeKind.VARCHAR:
        if policy == "dict" or (
            policy == "auto" and n >= _AUTO_MIN_ROWS
        ):
            encoded = dictionary_encode(column)
            if encoded is not None and (
                policy == "dict" or _auto_dictionary(encoded)
            ):
                return encoded
        return column

    if kind in _INTEGRAL_KINDS:
        if policy == "rle":
            return rle_encode(column) or column
        if policy == "for":
            return for_encode(column) or column
        if policy == "auto" and n >= _AUTO_MIN_ROWS * 2:
            encoded = rle_encode(column, max_runs=n // 4)
            if encoded is not None:
                return encoded
            return for_encode(column) or column
        return column

    if policy == "rle" and kind in (
        TypeKind.DOUBLE, TypeKind.BOOLEAN
    ):
        return rle_encode(column) or column
    return column


def encode_table_data(data, policy: str = "auto"):
    """``data`` with every column in its policy-chosen physical form
    (the same object when nothing changes)."""
    from .table import TableData

    columns = [encode_column(c, policy) for c in data.columns]
    if all(a is b for a, b in zip(columns, data.columns)):
        return data
    return TableData(data.schema, columns)


# ---------------------------------------------------------------------------
# Footprint accounting
# ---------------------------------------------------------------------------


def column_raw_nbytes(column: Column) -> int:
    """Bytes a raw columnar layout would spend on this column: the
    dense value array (for VARCHAR: an 8-byte slot plus the string
    payload *per row*, the layout a pointer-free engine would material-
    ise) plus the validity mask."""
    n = len(column)
    total = 0 if column.valid is None else int(column.validity().nbytes)
    kind = column.sql_type.kind
    if kind is not TypeKind.VARCHAR:
        return total + n * column.sql_type.numpy_dtype().itemsize
    total += n * 8
    if isinstance(column, DictionaryColumn):
        # Payload per row = payload of its dictionary entry; weight the
        # per-entry sizes by reference counts instead of decoding.
        if len(column.dictionary) == 0:
            return total
        codes = column.codes
        live = codes if column.valid is None else codes[column.valid]
        counts = np.bincount(live, minlength=len(column.dictionary))
        sizes = np.array(
            [sys.getsizeof(v) for v in column.dictionary],
            dtype=np.int64,
        )
        return total + int((counts * sizes).sum())
    return total + _object_payload_nbytes(column.values)


def column_encoding_of(column: Column) -> str:
    """Short name of a column's physical layout."""
    if isinstance(column, EncodedColumn):
        return column.encoding
    return "raw"
