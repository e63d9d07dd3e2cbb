"""Column chunks: the one binary form table contents take outside memory.

A chunk is a list of equal-length :class:`~repro.storage.column.Column`
values as bytes. The write-ahead log's data records and the checkpoint
snapshot both carry chunks and nothing else serialises table contents
(docs/durability.md, docs/storage.md). Everything is little-endian::

    chunk   := head column*
    head    := b"RPCK" crc32:u32 nbytes:u64 n_cols:u32 0:u32 n_rows:u64
    column  := kind:u8 layout:u8 has_valid:u8 0:u8 width:i32   (-1: none)
               [validity]  values
    section := nbytes:u64 bytes pad-to-8

``nbytes`` is the length of the whole chunk and ``crc32`` covers every
byte after itself, so a truncated or bit-flipped chunk raises
:class:`~repro.errors.ChunkError` — it never decodes to wrong values.
``validity`` is one section of bit-packed flags (absent when the column
has no NULL). ``values`` depends on the layout:

* ``PLAIN`` — one section, the value buffer in the column's dtype.
  Frame-of-reference and run-length columns are written as the values
  they decode to (numeric, cheap) and re-pick their layout when loaded.
* ``STRINGS`` — a string page: a section of ``u32`` lengths counted in
  code points, then a section holding all strings as one UTF-8 blob
  (NULL slots are empty strings).
* ``DICT`` — a stored :class:`DictionaryColumn` as it is: the sorted
  dictionary as a string page, then a section of ``int32`` codes.
* ``NONE`` — a column of the NULL type: nothing but the validity.

Decoding hands back ``np.frombuffer`` views into the buffer it was
given (read-only, like every stored column is meant to be) and
``DictionaryColumn`` values that ``encode_table_data`` passes through
untouched. Sections are padded to 8 bytes so that the views are aligned
whenever the chunk itself starts on an 8-byte boundary; a view that
ends up unaligned is copied instead.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

import numpy as np

from ..errors import ChunkError
from ..types import SQLType, TypeKind
from .column import Column
from .encoding import DictionaryColumn, plain_values

MAGIC = b"RPCK"
_HEAD = struct.Struct("<4sIQIIQ")
_COLUMN = struct.Struct("<BBBxi")
_LENGTH = struct.Struct("<Q")
#: The crc covers everything after the magic and the crc itself.
_CRC_FROM = 8

_KIND_CODES = {
    TypeKind.BOOLEAN: 1,
    TypeKind.INTEGER: 2,
    TypeKind.BIGINT: 3,
    TypeKind.DOUBLE: 4,
    TypeKind.VARCHAR: 5,
    TypeKind.DATE: 6,
    TypeKind.NULL: 7,
}
_KINDS = {code: kind for kind, code in _KIND_CODES.items()}
_DTYPES = {
    TypeKind.BOOLEAN: np.dtype("?"),
    TypeKind.INTEGER: np.dtype("<i4"),
    TypeKind.BIGINT: np.dtype("<i8"),
    TypeKind.DOUBLE: np.dtype("<f8"),
    TypeKind.DATE: np.dtype("<i4"),
}
_CODES = np.dtype("<i4")
_LENGTHS = np.dtype("<u4")
_PLAIN, _STRINGS, _DICT, _NONE = 0, 1, 2, 3
_PADDING = bytes(8)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _put(parts: list, buffer) -> None:
    """Append one section: ``buffer`` is bytes or a contiguous array."""
    if isinstance(buffer, np.ndarray):
        buffer = np.ascontiguousarray(buffer).reshape(-1).view(np.uint8)
    parts.append(_LENGTH.pack(len(buffer)))
    parts.append(buffer)
    if len(buffer) % 8:
        parts.append(_PADDING[len(buffer) % 8 :])


def _put_strings(parts: list, strings: list) -> None:
    try:
        lengths = np.fromiter(
            map(len, strings), dtype=_LENGTHS, count=len(strings)
        )
        blob = "".join(strings).encode("utf-8", "surrogatepass")
    except TypeError as exc:
        raise ChunkError(
            f"a VARCHAR column holds a value that is not a string: {exc}"
        ) from exc
    _put(parts, lengths)
    _put(parts, blob)


def _put_column(parts: list, column: Column) -> None:
    sql_type = column.sql_type
    kind = sql_type.kind
    valid = column.valid
    if kind is TypeKind.NULL:
        layout = _NONE
    elif isinstance(column, DictionaryColumn):
        layout = _DICT
    elif kind is TypeKind.VARCHAR:
        layout = _STRINGS
    else:
        layout = _PLAIN
    parts.append(
        _COLUMN.pack(
            _KIND_CODES[kind], layout, valid is not None,
            -1 if sql_type.width is None else sql_type.width,
        )
    )
    if valid is not None:
        _put(parts, np.packbits(valid))
    if layout == _DICT:
        _put_strings(parts, column.dictionary.tolist())
        _put(parts, column.codes.astype(_CODES, copy=False))
    elif layout == _STRINGS:
        strings = column.values.tolist()
        if valid is not None:
            strings = [
                s if ok else "" for s, ok in zip(strings, valid.tolist())
            ]
        _put_strings(parts, strings)
    elif layout == _PLAIN:
        _put(parts, plain_values(column).astype(_DTYPES[kind], copy=False))


def encode_chunk(columns: Sequence[Column]) -> bytes:
    """``columns`` (equal lengths; any physical layout) as one chunk."""
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ChunkError(f"ragged chunk: column lengths {sorted(lengths)}")
    parts: list = []
    for column in columns:
        _put_column(parts, column)
    nbytes = _HEAD.size + sum(len(p) for p in parts)
    tail = _HEAD.pack(
        MAGIC, 0, nbytes, len(columns), 0, lengths.pop() if lengths else 0
    )[_CRC_FROM:]
    crc = zlib.crc32(tail)
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([MAGIC, struct.pack("<I", crc), tail, *parts])


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _take(view: memoryview, pos: int) -> tuple[memoryview, int]:
    """The section at ``pos`` and the offset after its padding."""
    start = pos + _LENGTH.size
    if start > len(view):
        raise ChunkError("chunk ends inside a section header")
    (nbytes,) = _LENGTH.unpack_from(view, pos)
    end = start + nbytes
    if end > len(view):
        raise ChunkError("chunk ends inside a section")
    return view[start:end], end + (-nbytes % 8)


def _array(section: memoryview, dtype: np.dtype, count: int, what: str):
    if len(section) != count * dtype.itemsize:
        raise ChunkError(
            f"{what}: {len(section)} byte(s) for {count} value(s)"
        )
    array = np.frombuffer(section, dtype=dtype)
    return array if array.flags.aligned else array.copy()


def _take_strings(view: memoryview, pos: int) -> tuple[np.ndarray, int]:
    section, pos = _take(view, pos)
    if len(section) % _LENGTHS.itemsize:
        raise ChunkError("string lengths are not whole u32 values")
    lengths = _array(
        section, _LENGTHS, len(section) // _LENGTHS.itemsize, "lengths"
    )
    blob, pos = _take(view, pos)
    try:
        text = str(blob, "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise ChunkError(f"string page is not UTF-8: {exc}") from exc
    ends = np.cumsum(lengths, dtype=np.int64)
    if (int(ends[-1]) if len(ends) else 0) != len(text):
        raise ChunkError("string lengths do not add up to the page")
    out = np.empty(len(lengths), dtype=object)
    out[:] = [
        text[a:b] for a, b in zip((ends - lengths).tolist(), ends.tolist())
    ]
    return out, pos


def _take_column(
    view: memoryview, pos: int, n_rows: int
) -> tuple[Column, int]:
    if pos + _COLUMN.size > len(view):
        raise ChunkError("chunk ends inside a column header")
    code, layout, has_valid, width = _COLUMN.unpack_from(view, pos)
    pos += _COLUMN.size
    kind = _KINDS.get(code)
    if kind is None:
        raise ChunkError(f"unknown column kind {code}")
    sql_type = SQLType(kind, None if width < 0 else width)
    valid = None
    if has_valid:
        section, pos = _take(view, pos)
        if len(section) != (n_rows + 7) // 8:
            raise ChunkError("validity does not cover the rows")
        valid = np.unpackbits(
            np.frombuffer(section, dtype=np.uint8), count=n_rows
        ).view(np.bool_)
    if layout == _NONE and kind is TypeKind.NULL:
        return Column.all_null(n_rows, sql_type), pos
    if layout == _PLAIN and kind in _DTYPES:
        section, pos = _take(view, pos)
        values = _array(section, _DTYPES[kind], n_rows, str(sql_type))
        return Column(values, sql_type, valid), pos
    if layout == _STRINGS and kind is TypeKind.VARCHAR:
        values, pos = _take_strings(view, pos)
        if len(values) != n_rows:
            raise ChunkError("string page does not cover the rows")
        if valid is not None:
            values[~valid] = None
        return Column(values, sql_type, valid), pos
    if layout == _DICT and kind is TypeKind.VARCHAR:
        dictionary, pos = _take_strings(view, pos)
        section, pos = _take(view, pos)
        codes = _array(section, _CODES, n_rows, "dictionary codes")
        if n_rows and not (
            0 <= int(codes.min()) and int(codes.max()) < len(dictionary)
        ):
            raise ChunkError("dictionary code outside the dictionary")
        return DictionaryColumn(codes, dictionary, sql_type, valid), pos
    raise ChunkError(f"layout {layout} does not fit a {kind.value} column")


def decode_chunk(buffer, offset: int = 0) -> tuple[list[Column], int]:
    """The columns of the chunk starting at ``buffer[offset]`` and the
    offset just past it (chunks can sit back to back). Raises
    :class:`~repro.errors.ChunkError` for anything but a chunk
    :func:`encode_chunk` wrote, whole and unchanged."""
    view = memoryview(buffer)[offset:]
    if len(view) < _HEAD.size:
        raise ChunkError("chunk shorter than its header")
    magic, crc, nbytes, n_cols, _, n_rows = _HEAD.unpack_from(view)
    if magic != MAGIC:
        raise ChunkError(f"not a column chunk (magic {magic!r})")
    if not _HEAD.size <= nbytes <= len(view):
        raise ChunkError(
            f"chunk is {len(view)} byte(s), its header says {nbytes}"
        )
    view = view[:nbytes]
    if zlib.crc32(view[_CRC_FROM:]) != crc:
        raise ChunkError("chunk crc mismatch")
    columns = []
    pos = _HEAD.size
    for _ in range(n_cols):
        column, pos = _take_column(view, pos, n_rows)
        columns.append(column)
    if pos != nbytes:
        raise ChunkError("chunk holds bytes past its last column")
    return columns, offset + nbytes
