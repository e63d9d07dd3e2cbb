"""The column-chunk codec (storage/chunk.py): what goes in comes out —
for every type, NULL pattern and physical layout — and anything but a
whole, unchanged chunk raises ChunkError instead of decoding."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ChunkError
from repro.storage.chunk import decode_chunk, encode_chunk
from repro.storage.column import Column
from repro.storage.encoding import (
    DictionaryColumn,
    column_encoding_of,
    dictionary_encode,
    for_encode,
    rle_encode,
)
from repro.types import (
    BIGINT, BOOLEAN, DATE, DOUBLE, INTEGER, NULLTYPE, VARCHAR, SQLType,
    TypeKind,
)

INT32 = st.integers(-(2**31), 2**31 - 1)
INT64 = st.integers(-(2**63), 2**63 - 1)
#: Every float bit pattern hypothesis knows: NaN payloads, infinities,
#: signed zeros, subnormals.
DOUBLES = st.floats(allow_nan=True, allow_infinity=True)
TEXT = st.one_of(
    st.sampled_from(["", "NULL", "None", "null", "\x00", "😀", "a\U0001F9EAb"]),
    st.text(max_size=12),
)
VALUES = {
    BOOLEAN: st.booleans(),
    INTEGER: INT32,
    BIGINT: INT64,
    DOUBLE: DOUBLES,
    DATE: INT32,
    VARCHAR: TEXT,
    SQLType(TypeKind.VARCHAR, 7): TEXT,
    NULLTYPE: st.none(),
}


@st.composite
def typed_cells(draw, n=None):
    """``(sql_type, cells)`` with NULLs: some, none, or only."""
    sql_type = draw(st.sampled_from(list(VALUES)))
    if n is None:
        n = draw(st.integers(0, 40))
    nulls = draw(st.sampled_from(["some", "none", "all"]))
    if nulls == "all" or sql_type is NULLTYPE:
        return sql_type, [None] * n
    cell = VALUES[sql_type]
    if nulls == "some":
        cell = st.one_of(st.none(), cell)
    return sql_type, draw(st.lists(cell, min_size=n, max_size=n))


def same_bits(expected: list, got: list) -> bool:
    """Equality that tells -0.0 from 0.0 and one NaN from another."""

    def bits(v):
        return struct.pack("<d", v) if isinstance(v, float) else v

    return [bits(v) for v in expected] == [bits(v) for v in got]


def layouts_of(column: Column) -> list[Column]:
    """``column`` in every physical layout that can hold it."""
    out = [column]
    kind = column.sql_type.kind
    if kind is TypeKind.VARCHAR:
        out.append(dictionary_encode(column))
    elif kind in (TypeKind.INTEGER, TypeKind.BIGINT, TypeKind.DATE):
        out += [for_encode(column), rle_encode(column)]
    elif kind in (TypeKind.DOUBLE, TypeKind.BOOLEAN):
        out.append(rle_encode(column))
    return [c for c in out if c is not None]


@st.composite
def chunk_cases(draw):
    """``(n, [(sql_type, cells)], columns)``: up to four columns of ``n``
    cells each, every one in a layout that can hold it."""
    n = draw(st.integers(0, 40))
    drawn = [draw(typed_cells(n)) for _ in range(draw(st.integers(0, 4)))]
    columns = [
        draw(st.sampled_from(layouts_of(Column.from_values(cells, t))))
        for t, cells in drawn
    ]
    return n, drawn, columns


#: 0.0 and -0.0 compare equal: one run length-encoded as one value.
SIGNED_ZEROS = [0.0] * 39 + [-0.0]


class TestRoundTrip:
    @given(chunk_cases())
    @example((
        len(SIGNED_ZEROS),
        [(DOUBLE, SIGNED_ZEROS)],
        [rle_encode(Column.from_values(SIGNED_ZEROS, DOUBLE))],
    ))
    @settings(max_examples=150, deadline=None)
    def test_every_type_null_pattern_and_layout(self, case):
        n, drawn, columns = case
        blob = encode_chunk(columns)
        decoded, end = decode_chunk(blob)
        assert end == len(blob)
        assert len(decoded) == len(columns)
        for (sql_type, cells), sent, got in zip(drawn, columns, decoded):
            assert got.sql_type == sql_type
            assert len(got) == n
            assert same_bits(cells, got.to_pylist())
            # A dictionary column comes back as one; FOR and RLE come
            # back as the values they stand for.
            sent_layout = column_encoding_of(sent)
            assert column_encoding_of(got) == (
                "dict" if sent_layout == "dict" else "raw"
            )

    def test_extremes_are_bit_preserved(self):
        doubles = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324]
        columns = [
            Column.from_values(doubles, DOUBLE),
            Column.from_values(
                [2**63 - 1, -(2**63), 0, -1, 1, None], BIGINT
            ),
            Column.from_values(["", "NULL", "None", "😀", None, "\ud800"], VARCHAR),
        ]
        decoded, _ = decode_chunk(encode_chunk(columns))
        for sent, got in zip(columns, decoded):
            assert same_bits(sent.to_pylist(), got.to_pylist())
        assert np.signbit(decoded[0].values[3])
        # An odd NaN payload survives too.
        odd = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)
        got, _ = decode_chunk(encode_chunk([Column(odd, DOUBLE)]))
        assert got[0].values.view(np.uint64)[0] == 0x7FF8_0000_DEAD_BEEF

    def test_zero_rows_and_zero_columns(self):
        assert decode_chunk(encode_chunk([]))[0] == []
        decoded, _ = decode_chunk(
            encode_chunk([Column.from_values([], t) for t in VALUES])
        )
        assert [len(c) for c in decoded] == [0] * len(VALUES)
        assert [c.sql_type for c in decoded] == list(VALUES)

    def test_dictionary_page_is_kept(self):
        column = dictionary_encode(
            Column.from_values(["b", "a", None, "b", "c"], VARCHAR)
        )
        (got,), _ = decode_chunk(encode_chunk([column]))
        assert isinstance(got, DictionaryColumn)
        assert got.dictionary.tolist() == ["a", "b", "c"]
        assert got.codes.tolist() == column.codes.tolist()
        assert got.to_pylist() == ["b", "a", None, "b", "c"]

    def test_chunks_sit_back_to_back_and_views_are_aligned(self):
        a = encode_chunk([Column.from_values([1, 2, 3], INTEGER)])
        b = encode_chunk([Column.from_values([1.5], DOUBLE)])
        first, pos = decode_chunk(a + b)
        second, end = decode_chunk(a + b, pos)
        assert (first[0].to_pylist(), second[0].to_pylist()) == ([1, 2, 3], [1.5])
        assert end == len(a) + len(b)
        assert len(a) % 8 == 0
        assert second[0].values.flags.aligned
        # Decoded buffers are views, and read-only like the bytes.
        assert not first[0].values.flags.writeable
        # An odd offset still decodes (to aligned copies).
        shifted, _ = decode_chunk(b"x" + b, 1)
        assert shifted[0].values.flags.aligned
        assert shifted[0].to_pylist() == [1.5]

    def test_ragged_and_non_string_input_is_refused(self):
        with pytest.raises(ChunkError, match="ragged"):
            encode_chunk(
                [
                    Column.from_values([1], INTEGER),
                    Column.from_values([1, 2], INTEGER),
                ]
            )
        with pytest.raises(ChunkError, match="not a string"):
            encode_chunk([Column(np.array([1, "a"], dtype=object), VARCHAR)])


class TestDamage:
    COLUMNS = [
        Column.from_values([1, None, 3, 4, 5, 6, 7, 8, 9], INTEGER),
        Column.from_values([0.5, 1.5, None, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5], DOUBLE),
        Column.from_values(list("abcdefgh") + [None], VARCHAR),
        dictionary_encode(Column.from_values(list("xyxyxyxyx"), VARCHAR)),
    ]

    def test_every_truncation_raises(self):
        blob = encode_chunk(self.COLUMNS)
        for cut in range(len(blob)):
            with pytest.raises(ChunkError):
                decode_chunk(blob[:cut])

    def test_every_bit_flip_raises(self):
        blob = encode_chunk(self.COLUMNS)
        for offset in range(len(blob)):
            for bit in (0x01, 0x80):
                damaged = bytearray(blob)
                damaged[offset] ^= bit
                with pytest.raises(ChunkError):
                    decode_chunk(bytes(damaged))

    def test_foreign_bytes_raise(self):
        for junk in (b"", b"RPCK", b"\x00" * 64, b"not a chunk at all, sorry......"):
            with pytest.raises(ChunkError):
                decode_chunk(junk)

    def test_structural_lies_raise_even_with_a_valid_crc(self):
        """Past the CRC the decoder still checks what it reads: patch a
        field, re-stamp the CRC, and it must refuse, not mis-decode."""
        import zlib

        def restamp(data: bytearray) -> bytes:
            data[4:8] = struct.pack("<I", zlib.crc32(bytes(data[8:])))
            return bytes(data)

        blob = bytearray(encode_chunk([Column.from_values([1, 2, 3], INTEGER)]))
        rows = bytearray(blob)
        rows[24:32] = struct.pack("<Q", 4)  # n_rows says 4, values hold 3
        with pytest.raises(ChunkError):
            decode_chunk(restamp(rows))
        kind = bytearray(blob)
        kind[32] = 99  # unknown column kind
        with pytest.raises(ChunkError, match="unknown column kind"):
            decode_chunk(restamp(kind))
        layout = bytearray(blob)
        layout[33] = 2  # a dictionary page on an INTEGER column
        with pytest.raises(ChunkError, match="does not fit"):
            decode_chunk(restamp(layout))
        codes = bytearray(
            encode_chunk([dictionary_encode(Column.from_values(["a", "b", "a", "b"], VARCHAR))])
        )
        codes[-16:-12] = struct.pack("<i", 7)  # a code past the dictionary
        with pytest.raises(ChunkError, match="outside the dictionary"):
            decode_chunk(restamp(codes))
