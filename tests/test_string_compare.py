"""String comparisons: a truth table recorded before object-column
comparisons became one numpy call per batch.

``=, <>, <, <=, >, >=`` over a dictionary-encoded column ``d``, a raw
column ``r`` (too many distinct values to encode) and string
constants, in every orientation: column vs literal, literal vs column,
column vs column (dictionary vs raw under ``auto``), and a ``?``
parameter bound to a string and to NULL. NULLs sit on either side.
``RECORDED`` holds the rows each query returned, by ``repr``; every
encoding must reproduce them, and SQLite must agree. The kernel cases
compile one comparison over one batch and record the output's values
*and* its validity mask, so a position under a NULL is pinned too.
"""

import sqlite3

import numpy as np
import pytest

import repro
from repro.expr import bound as b
from repro.expr.compiler import EvalContext, ExpressionCompiler
from repro.storage.column import Column, ColumnBatch
from repro.storage.encoding import dictionary_encode
from repro.types import BOOLEAN, NULLTYPE, VARCHAR

OPS = ("=", "<>", "<", "<=", ">", ">=")

#: ``d``: five values over twelve rows (a dictionary under ``auto``);
#: ``r``: eleven distinct values (stays raw). Case, the empty string
#: and a non-ASCII letter exercise the ordering.
ROWS = [
    (0, "apple", "apple"),
    (1, "Apple", "banana"),
    (2, None, "cherry"),
    (3, "", None),
    (4, "banana", "Apple"),
    (5, "apple", ""),
    (6, "élan", "zebra"),
    (7, None, None),
    (8, "banana", "élan"),
    (9, "Apple", "apples"),
    (10, "", "appl"),
    (11, "élan", "b"),
]


def make_db(encoding: str) -> repro.Database:
    db = repro.Database(encoding=encoding)
    db.execute("CREATE TABLE t (id INTEGER, d VARCHAR, r VARCHAR)")
    db.insert_rows("t", ROWS)
    return db


def queries():
    """name -> (sql, params)."""
    out = {}
    for i, op in enumerate(OPS):
        out[f"col_lit_{i}"] = (
            f"SELECT id, d {op} 'apple', r {op} 'apple' FROM t ORDER BY id",
            None,
        )
        out[f"lit_col_{i}"] = (
            f"SELECT id, 'banana' {op} d, 'banana' {op} r FROM t "
            "ORDER BY id",
            None,
        )
        out[f"col_col_{i}"] = (
            f"SELECT id, d {op} r, r {op} d FROM t ORDER BY id", None
        )
        for tag, value in (("str", "Apple"), ("null", None)):
            out[f"param_{tag}_{i}"] = (
                f"SELECT id, d {op} ?, ? {op} r FROM t ORDER BY id",
                [value, value],
            )
        out[f"where_{i}"] = (
            f"SELECT id FROM t WHERE d {op} r OR r {op} 'b' ORDER BY id",
            None,
        )
    return out


_SHORT = {"True": "T", "False": "F", "None": "N"}


def answers(db: repro.Database) -> dict:
    """name -> the rows, one ``,``-joined group per row, each value by
    its ``repr`` (``True``/``False``/``None`` as ``T``/``F``/``N``)."""
    return {
        name: " ".join(
            ",".join(_SHORT.get(repr(v), repr(v)) for v in row)
            for row in db.execute(sql, params).rows
        )
        for name, (sql, params) in queries().items()
    }


def _batch_columns():
    d = Column.from_values([row[1] for row in ROWS], VARCHAR)
    r = Column.from_values([row[2] for row in ROWS], VARCHAR)
    return {"d": d, "dd": dictionary_encode(d), "r": r}


def kernel_cases():
    """name -> expression: every operand shape the compiler sees, over
    a raw column, a dictionary column and constants."""
    lit = b.BoundLiteral("apple", VARCHAR)
    param = b.BoundParam("?1", VARCHAR)
    null_param = b.BoundParam("?2", NULLTYPE)
    out = {}
    for i, op in enumerate(OPS):
        for name in ("d", "dd", "r"):
            col = b.BoundColumnRef(name, VARCHAR)
            shapes = {
                "lit": (col, lit),
                "lit_rev": (lit, col),
                "param": (col, param),
                "param_rev": (param, col),
                "null_param": (col, null_param),
                "col": (col, b.BoundColumnRef("r", VARCHAR)),
            }
            for shape, (lhs, rhs) in shapes.items():
                out[f"{name}_{shape}_{i}"] = b.BoundBinary(
                    op, lhs, rhs, BOOLEAN
                )
    return out


def kernel_answers() -> dict:
    batch = ColumnBatch(_batch_columns())
    ctx = EvalContext(params={"?1": "banana", "?2": None})
    compiler = ExpressionCompiler()
    out = {}
    for name, expr in kernel_cases().items():
        col = compiler.compile(expr)(batch, ctx)
        valid = col.validity()
        out[name] = (
            "".join("1" if v else "0" for v in np.asarray(col.values)),
            "".join("1" if v else "0" for v in valid),
        )
    return out


RECORDED = {
    "col_col_0": (
        "0,T,T 1,F,F 2,N,N 3,N,N 4,F,F 5,F,F 6,F,F 7,N,N 8,F,F 9,F,F 10,F,F"
        " 11,F,F"
    ),
    "col_col_1": (
        "0,F,F 1,T,T 2,N,N 3,N,N 4,T,T 5,T,T 6,T,T 7,N,N 8,T,T 9,T,T 10,T,T"
        " 11,T,T"
    ),
    "col_col_2": (
        "0,F,F 1,T,F 2,N,N 3,N,N 4,F,T 5,F,T 6,F,T 7,N,N 8,T,F 9,T,F 10,T,F"
        " 11,F,T"
    ),
    "col_col_3": (
        "0,T,T 1,T,F 2,N,N 3,N,N 4,F,T 5,F,T 6,F,T 7,N,N 8,T,F 9,T,F 10,T,F"
        " 11,F,T"
    ),
    "col_col_4": (
        "0,F,F 1,F,T 2,N,N 3,N,N 4,T,F 5,T,F 6,T,F 7,N,N 8,F,T 9,F,T 10,F,T"
        " 11,T,F"
    ),
    "col_col_5": (
        "0,T,T 1,F,T 2,N,N 3,N,N 4,T,F 5,T,F 6,T,F 7,N,N 8,F,T 9,F,T 10,F,T"
        " 11,T,F"
    ),
    "col_lit_0": (
        "0,T,T 1,F,F 2,N,F 3,F,N 4,F,F 5,T,F 6,F,F 7,N,N 8,F,F 9,F,F 10,F,F"
        " 11,F,F"
    ),
    "col_lit_1": (
        "0,F,F 1,T,T 2,N,T 3,T,N 4,T,T 5,F,T 6,T,T 7,N,N 8,T,T 9,T,T 10,T,T"
        " 11,T,T"
    ),
    "col_lit_2": (
        "0,F,F 1,T,F 2,N,F 3,T,N 4,F,T 5,F,T 6,F,F 7,N,N 8,F,F 9,T,F 10,T,T"
        " 11,F,F"
    ),
    "col_lit_3": (
        "0,T,T 1,T,F 2,N,F 3,T,N 4,F,T 5,T,T 6,F,F 7,N,N 8,F,F 9,T,F 10,T,T"
        " 11,F,F"
    ),
    "col_lit_4": (
        "0,F,F 1,F,T 2,N,T 3,F,N 4,T,F 5,F,F 6,T,T 7,N,N 8,T,T 9,F,T 10,F,F"
        " 11,T,T"
    ),
    "col_lit_5": (
        "0,T,T 1,F,T 2,N,T 3,F,N 4,T,F 5,T,F 6,T,T 7,N,N 8,T,T 9,F,T 10,F,F"
        " 11,T,T"
    ),
    "lit_col_0": (
        "0,F,F 1,F,T 2,N,F 3,F,N 4,T,F 5,F,F 6,F,F 7,N,N 8,T,F 9,F,F 10,F,F"
        " 11,F,F"
    ),
    "lit_col_1": (
        "0,T,T 1,T,F 2,N,T 3,T,N 4,F,T 5,T,T 6,T,T 7,N,N 8,F,T 9,T,T 10,T,T"
        " 11,T,T"
    ),
    "lit_col_2": (
        "0,F,F 1,F,F 2,N,T 3,F,N 4,F,F 5,F,F 6,T,T 7,N,N 8,F,T 9,F,F 10,F,F"
        " 11,T,F"
    ),
    "lit_col_3": (
        "0,F,F 1,F,T 2,N,T 3,F,N 4,T,F 5,F,F 6,T,T 7,N,N 8,T,T 9,F,F 10,F,F"
        " 11,T,F"
    ),
    "lit_col_4": (
        "0,T,T 1,T,F 2,N,F 3,T,N 4,F,T 5,T,T 6,F,F 7,N,N 8,F,F 9,T,T 10,T,T"
        " 11,F,T"
    ),
    "lit_col_5": (
        "0,T,T 1,T,T 2,N,F 3,T,N 4,T,T 5,T,T 6,F,F 7,N,N 8,T,F 9,T,T 10,T,T"
        " 11,F,T"
    ),
    "param_null_0": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_null_1": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_null_2": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_null_3": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_null_4": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_null_5": (
        "0,N,N 1,N,N 2,N,N 3,N,N 4,N,N 5,N,N 6,N,N 7,N,N 8,N,N 9,N,N 10,N,N"
        " 11,N,N"
    ),
    "param_str_0": (
        "0,F,F 1,T,F 2,N,F 3,F,N 4,F,T 5,F,F 6,F,F 7,N,N 8,F,F 9,T,F 10,F,F"
        " 11,F,F"
    ),
    "param_str_1": (
        "0,T,T 1,F,T 2,N,T 3,T,N 4,T,F 5,T,T 6,T,T 7,N,N 8,T,T 9,F,T 10,T,T"
        " 11,T,T"
    ),
    "param_str_2": (
        "0,F,T 1,F,T 2,N,T 3,T,N 4,F,F 5,F,F 6,F,T 7,N,N 8,F,T 9,F,T 10,T,T"
        " 11,F,T"
    ),
    "param_str_3": (
        "0,F,T 1,T,T 2,N,T 3,T,N 4,F,T 5,F,F 6,F,T 7,N,N 8,F,T 9,T,T 10,T,T"
        " 11,F,T"
    ),
    "param_str_4": (
        "0,T,F 1,F,F 2,N,F 3,F,N 4,T,F 5,T,T 6,T,F 7,N,N 8,T,F 9,F,F 10,F,F"
        " 11,T,F"
    ),
    "param_str_5": (
        "0,T,F 1,T,F 2,N,F 3,F,N 4,T,T 5,T,T 6,T,F 7,N,N 8,T,F 9,T,F 10,F,F"
        " 11,T,F"
    ),
    "where_0": "0 11",
    "where_1": "0 1 2 4 5 6 8 9 10 11",
    "where_2": "0 1 4 5 8 9 10",
    "where_3": "0 1 4 5 8 9 10 11",
    "where_4": "1 2 4 5 6 8 11",
    "where_5": "0 1 2 4 5 6 8 11",
}

RECORDED_KERNEL = {
    "d_col_0": ("100000000000", "110011101111"),
    "d_col_1": ("010011101111", "110011101111"),
    "d_col_2": ("010000001110", "110011101111"),
    "d_col_3": ("110000001110", "110011101111"),
    "d_col_4": ("000011100001", "110011101111"),
    "d_col_5": ("100011100001", "110011101111"),
    "d_lit_0": ("100001000000", "110111101111"),
    "d_lit_1": ("010110101111", "110111101111"),
    "d_lit_2": ("010100000110", "110111101111"),
    "d_lit_3": ("110101000110", "110111101111"),
    "d_lit_4": ("000010101001", "110111101111"),
    "d_lit_5": ("100011101001", "110111101111"),
    "d_lit_rev_0": ("100001000000", "110111101111"),
    "d_lit_rev_1": ("010110101111", "110111101111"),
    "d_lit_rev_2": ("000010101001", "110111101111"),
    "d_lit_rev_3": ("100011101001", "110111101111"),
    "d_lit_rev_4": ("010100000110", "110111101111"),
    "d_lit_rev_5": ("110101000110", "110111101111"),
    "d_null_param_0": ("000000000000", "000000000000"),
    "d_null_param_1": ("000000000000", "000000000000"),
    "d_null_param_2": ("000000000000", "000000000000"),
    "d_null_param_3": ("000000000000", "000000000000"),
    "d_null_param_4": ("000000000000", "000000000000"),
    "d_null_param_5": ("000000000000", "000000000000"),
    "d_param_0": ("000010001000", "110111101111"),
    "d_param_1": ("110101100111", "110111101111"),
    "d_param_2": ("110101000110", "110111101111"),
    "d_param_3": ("110111001110", "110111101111"),
    "d_param_4": ("000000100001", "110111101111"),
    "d_param_5": ("000010101001", "110111101111"),
    "d_param_rev_0": ("000010001000", "110111101111"),
    "d_param_rev_1": ("110101100111", "110111101111"),
    "d_param_rev_2": ("000000100001", "110111101111"),
    "d_param_rev_3": ("000010101001", "110111101111"),
    "d_param_rev_4": ("110101000110", "110111101111"),
    "d_param_rev_5": ("110111001110", "110111101111"),
    "dd_col_0": ("100000000000", "110011101111"),
    "dd_col_1": ("010011101111", "110011101111"),
    "dd_col_2": ("010000001110", "110011101111"),
    "dd_col_3": ("110000001110", "110011101111"),
    "dd_col_4": ("000011100001", "110011101111"),
    "dd_col_5": ("100011100001", "110011101111"),
    "dd_lit_0": ("100001000000", "110111101111"),
    "dd_lit_1": ("011110111111", "110111101111"),
    "dd_lit_2": ("011100010110", "110111101111"),
    "dd_lit_3": ("111101010110", "110111101111"),
    "dd_lit_4": ("000010101001", "110111101111"),
    "dd_lit_5": ("100011101001", "110111101111"),
    "dd_lit_rev_0": ("100001000000", "110111101111"),
    "dd_lit_rev_1": ("011110111111", "110111101111"),
    "dd_lit_rev_2": ("000010101001", "110111101111"),
    "dd_lit_rev_3": ("100011101001", "110111101111"),
    "dd_lit_rev_4": ("011100010110", "110111101111"),
    "dd_lit_rev_5": ("111101010110", "110111101111"),
    "dd_null_param_0": ("000000000000", "000000000000"),
    "dd_null_param_1": ("000000000000", "000000000000"),
    "dd_null_param_2": ("000000000000", "000000000000"),
    "dd_null_param_3": ("000000000000", "000000000000"),
    "dd_null_param_4": ("000000000000", "000000000000"),
    "dd_null_param_5": ("000000000000", "000000000000"),
    "dd_param_0": ("000010001000", "110111101111"),
    "dd_param_1": ("111101110111", "110111101111"),
    "dd_param_2": ("111101010110", "110111101111"),
    "dd_param_3": ("111111011110", "110111101111"),
    "dd_param_4": ("000000100001", "110111101111"),
    "dd_param_5": ("000010101001", "110111101111"),
    "dd_param_rev_0": ("000010001000", "110111101111"),
    "dd_param_rev_1": ("111101110111", "110111101111"),
    "dd_param_rev_2": ("000000100001", "110111101111"),
    "dd_param_rev_3": ("000010101001", "110111101111"),
    "dd_param_rev_4": ("111101010110", "110111101111"),
    "dd_param_rev_5": ("111111011110", "110111101111"),
    "r_col_0": ("111011101111", "111011101111"),
    "r_col_1": ("000000000000", "111011101111"),
    "r_col_2": ("000000000000", "111011101111"),
    "r_col_3": ("111011101111", "111011101111"),
    "r_col_4": ("000000000000", "111011101111"),
    "r_col_5": ("111011101111", "111011101111"),
    "r_lit_0": ("100000000000", "111011101111"),
    "r_lit_1": ("011011101111", "111011101111"),
    "r_lit_2": ("000011000010", "111011101111"),
    "r_lit_3": ("100011000010", "111011101111"),
    "r_lit_4": ("011000101101", "111011101111"),
    "r_lit_5": ("111000101101", "111011101111"),
    "r_lit_rev_0": ("100000000000", "111011101111"),
    "r_lit_rev_1": ("011011101111", "111011101111"),
    "r_lit_rev_2": ("011000101101", "111011101111"),
    "r_lit_rev_3": ("111000101101", "111011101111"),
    "r_lit_rev_4": ("000011000010", "111011101111"),
    "r_lit_rev_5": ("100011000010", "111011101111"),
    "r_null_param_0": ("000000000000", "000000000000"),
    "r_null_param_1": ("000000000000", "000000000000"),
    "r_null_param_2": ("000000000000", "000000000000"),
    "r_null_param_3": ("000000000000", "000000000000"),
    "r_null_param_4": ("000000000000", "000000000000"),
    "r_null_param_5": ("000000000000", "000000000000"),
    "r_param_0": ("010000000000", "111011101111"),
    "r_param_1": ("101011101111", "111011101111"),
    "r_param_2": ("100011000111", "111011101111"),
    "r_param_3": ("110011000111", "111011101111"),
    "r_param_4": ("001000101000", "111011101111"),
    "r_param_5": ("011000101000", "111011101111"),
    "r_param_rev_0": ("010000000000", "111011101111"),
    "r_param_rev_1": ("101011101111", "111011101111"),
    "r_param_rev_2": ("001000101000", "111011101111"),
    "r_param_rev_3": ("011000101000", "111011101111"),
    "r_param_rev_4": ("100011000111", "111011101111"),
    "r_param_rev_5": ("110011000111", "111011101111"),
}


@pytest.mark.parametrize("encoding", ["raw", "auto"])
def test_rows_match_the_recording(encoding):
    db = make_db(encoding)
    try:
        assert answers(db) == RECORDED
    finally:
        db.close()


def test_auto_stores_d_as_a_dictionary_and_r_raw():
    db = make_db("auto")
    try:
        columns = db.storage_stats()["tables"]["t"]["columns"]
        assert columns["d"] == "dict" and columns["r"] == "raw"
    finally:
        db.close()


def test_sqlite_agrees():
    db = make_db("auto")
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (id INTEGER, d TEXT, r TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
        for name, (sql, params) in queries().items():
            # SQLite answers 1/0 for TRUE/FALSE; they compare equal.
            want = conn.execute(sql, params or []).fetchall()
            got = [tuple(row) for row in db.execute(sql, params).rows]
            assert got == want, name
    finally:
        conn.close()
        db.close()


def test_kernel_values_and_validity_match_the_recording():
    assert kernel_answers() == RECORDED_KERNEL


if __name__ == "__main__":
    import pprint

    recorded = {}
    for encoding in ("raw", "auto"):
        db = make_db(encoding)
        recorded[encoding] = answers(db)
        db.close()
    assert recorded["raw"] == recorded["auto"]
    print("RECORDED = ", end="")
    pprint.pprint(recorded["raw"], width=76)
    print("\nRECORDED_KERNEL = ", end="")
    pprint.pprint(kernel_answers(), width=76)
