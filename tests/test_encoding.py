"""Property tests for the encoded columnar storage layer.

Three layers of guarantees:

* **Codec round-trips** — every encoder (dictionary, FOR, RLE) decodes
  back to exactly the values and NULLs it was given, across types,
  NULL densities, and forced policies.
* **Structural invariants** — dictionaries are sorted/unique with
  in-range codes and (after compaction) no unreferenced entries; FOR
  offsets are non-negative; RLE runs cover the column.
* **Equivalence under DML** — an encoded database and a raw twin
  running the same INSERT/UPDATE/DELETE/ROLLBACK script agree on every
  table's full contents after every statement, and zone maps built
  over encoded columns match a recompute over the decoded values.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import Database
from repro.storage.column import Column
from repro.storage.encoding import (
    ENCODING_POLICIES,
    DictionaryColumn,
    EncodedColumn,
    FORColumn,
    RLEColumn,
    column_encoding_of,
    column_raw_nbytes,
    compact_dictionary,
    decode_column,
    dictionary_encode,
    encode_column,
    for_encode,
    rle_encode,
)
from repro.types import BIGINT, BOOLEAN, DOUBLE, INTEGER, VARCHAR

_WORDS = ["ash", "beech", "cedar", "oak", "pine", "willow"]


def _random_column(rng, sql_type, n, null_rate=0.15, cardinality=6):
    values = []
    for _ in range(n):
        if rng.random() < null_rate:
            values.append(None)
        elif sql_type is VARCHAR:
            values.append(rng.choice(_WORDS[:cardinality]))
        elif sql_type is DOUBLE:
            values.append(round(rng.uniform(-50, 50), 2))
        elif sql_type is BOOLEAN:
            values.append(rng.random() < 0.5)
        elif sql_type is BIGINT:
            values.append(rng.randint(10**12, 10**12 + 50))
        else:
            values.append(rng.randint(-40, 40))
    return Column.from_values(values, sql_type)


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "sql_type", [INTEGER, BIGINT, DOUBLE, VARCHAR, BOOLEAN],
    ids=lambda t: str(t),
)
@pytest.mark.parametrize("policy", list(ENCODING_POLICIES))
def test_encode_round_trip(seed, sql_type, policy):
    rng = random.Random(seed)
    n = rng.choice([0, 1, 5, 64, 257])
    null_rate = rng.choice([0.0, 0.15, 1.0])
    column = _random_column(rng, sql_type, n, null_rate=null_rate)
    encoded = encode_column(column, policy)
    assert len(encoded) == n
    assert encoded.sql_type == column.sql_type
    assert decode_column(encoded).to_pylist() == column.to_pylist()
    # Round-trip again through a re-encode of the encoded form.
    assert encode_column(encoded, policy).to_pylist() == column.to_pylist()


@pytest.mark.parametrize("seed", range(6))
def test_dictionary_invariants(seed):
    rng = random.Random(1000 + seed)
    column = _random_column(rng, VARCHAR, rng.randint(4, 200))
    encoded = dictionary_encode(column)
    if encoded is None:
        pytest.skip("not encodable (all NULL)")
    words = list(encoded.dictionary)
    assert words == sorted(set(words)), "dictionary must be sorted unique"
    assert encoded.codes.min() >= 0
    assert encoded.codes.max() < len(words)
    # Every entry referenced by at least one valid row (fresh encodes
    # are compact by construction).
    referenced = set(
        encoded.codes[encoded.validity()].tolist()
    )
    assert referenced == set(range(len(words)))
    assert encoded.to_pylist() == column.to_pylist()


def test_dictionary_compaction_drops_dead_entries():
    column = Column.from_values(
        ["a", "b", "c", "b", "a", "d"], VARCHAR
    )
    encoded = dictionary_encode(column)
    # Keep only the 'b' rows: 'a', 'c', 'd' become unreferenced.
    survivors = encoded.filter(
        np.array([False, True, False, True, False, False])
    )
    assert isinstance(survivors, DictionaryColumn)
    assert len(survivors.dictionary) == 4  # stale, shared dictionary
    compacted = compact_dictionary(survivors)
    assert isinstance(compacted, DictionaryColumn)
    assert list(compacted.dictionary) == ["b"]
    assert compacted.to_pylist() == ["b", "b"]


def test_for_column_invariants():
    column = Column.from_values(
        [1_000_000, 1_000_005, None, 1_000_017], INTEGER
    )
    encoded = for_encode(column)
    assert isinstance(encoded, FORColumn)
    assert encoded.offsets.dtype == np.uint8
    assert int(encoded.offsets.min()) >= 0
    assert encoded.to_pylist() == column.to_pylist()


def test_for_encode_declines_huge_bigints():
    # Frame-of-reference comparisons shift the constant by the base;
    # beyond 2**53 that shift is float-unsafe, so the encoder declines.
    column = Column.from_values(
        [2**60, 2**60 + 1, 2**60 + 2], BIGINT
    )
    assert for_encode(column) is None


def test_rle_invariants():
    values = [5] * 40 + [7] * 20 + [5] * 40
    column = Column.from_values(values, INTEGER)
    encoded = rle_encode(column)
    assert isinstance(encoded, RLEColumn)
    assert list(encoded.run_values) == [5, 7, 5]
    assert int(encoded.run_lengths.sum()) == len(values)
    assert encoded.to_pylist() == values
    # NULLs disqualify RLE (validity would need its own run structure).
    assert rle_encode(Column.from_values([5, None, 5], INTEGER)) is None


def test_rle_keeps_the_sign_of_zero():
    """0.0 == -0.0, so runs split on the values would merge them and
    store the second run's rows as 0.0."""
    db = Database(encoding="rle")
    db.execute("CREATE TABLE f (x DOUBLE)")
    db.insert_rows("f", [(0.0,)] * 5000 + [(-0.0,)] * 5000)
    assert db.storage_stats()["tables"]["f"]["columns"]["x"] == "rle"
    rows = db.execute("SELECT x FROM f").rows
    signs = [math.copysign(1.0, x) for (x,) in rows]
    assert signs == [1.0] * 5000 + [-1.0] * 5000
    # Identical NaNs still share a run, and decode bit for bit.
    nan = np.array([np.nan] * 8)
    encoded = rle_encode(Column.from_values(list(nan), DOUBLE))
    assert len(encoded.run_values) == 1
    assert encoded.values.tobytes() == nan.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_encoded_slice_take_filter_match_raw(seed):
    rng = random.Random(2000 + seed)
    for sql_type in (VARCHAR, INTEGER):
        column = _random_column(rng, sql_type, 120)
        for policy in ("dict", "for", "rle", "auto"):
            encoded = encode_column(column, policy)
            lo = rng.randint(0, 60)
            hi = rng.randint(lo, 120)
            assert (
                encoded.slice(lo, hi).to_pylist()
                == column.slice(lo, hi).to_pylist()
            )
            idx = np.array(
                [rng.randrange(120) for _ in range(30)], dtype=np.int64
            )
            assert (
                encoded.take(idx).to_pylist()
                == column.take(idx).to_pylist()
            )
            mask = np.array(
                [rng.random() < 0.4 for _ in range(120)], dtype=np.bool_
            )
            assert (
                encoded.filter(mask).to_pylist()
                == column.filter(mask).to_pylist()
            )


@pytest.mark.parametrize("seed", range(6))
def test_encoded_zone_maps_match_recompute(seed):
    rng = random.Random(3000 + seed)
    for sql_type in (INTEGER, BIGINT, DOUBLE):
        column = _random_column(rng, sql_type, 300, null_rate=0.1)
        for policy in ("for", "rle", "auto"):
            encoded = encode_column(column, policy)
            if not isinstance(encoded, EncodedColumn):
                continue
            zones = encoded.zone_map()
            reference = decode_column(encoded).zone_map()
            if zones is None:
                assert reference is None
                continue
            assert zones.n_rows == len(column)
            np.testing.assert_array_equal(zones.mins, reference.mins)
            np.testing.assert_array_equal(zones.maxs, reference.maxs)
            np.testing.assert_array_equal(
                zones.null_counts, reference.null_counts
            )


# ---------------------------------------------------------------------------
# Predicate-on-codes semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_dictionary_compare_const_matches_python(seed):
    rng = random.Random(4000 + seed)
    column = _random_column(rng, VARCHAR, 150, cardinality=4)
    encoded = dictionary_encode(column)
    ops = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    valid = encoded.validity()
    # Probe present words, absent words inside the range, and words
    # beyond both ends of the sorted dictionary.
    for const in ["ash", "beer", "cedar", "aaa", "zzz", "oak"]:
        for op, fn in ops.items():
            got = encoded.compare_const(op, const)
            for i, value in enumerate(column.to_pylist()):
                if not valid[i]:
                    continue  # mask slot; validity handled by caller
                assert bool(got[i]) == fn(value, const), (
                    f"{value!r} {op} {const!r}"
                )


@pytest.mark.parametrize("seed", range(4))
def test_dictionary_isin_matches_python(seed):
    rng = random.Random(5000 + seed)
    column = _random_column(rng, VARCHAR, 100)
    encoded = dictionary_encode(column)
    items = ["ash", "zzz", "pine"]
    got = encoded.isin_const(items)
    valid = encoded.validity()
    for i, value in enumerate(column.to_pylist()):
        if valid[i]:
            assert bool(got[i]) == (value in items)


def test_for_compare_const_matches_python():
    column = Column.from_values(
        [100, 105, None, 117, 100, 250], INTEGER
    )
    encoded = for_encode(column)
    valid = encoded.validity()
    values = column.to_pylist()
    for const in (99, 100, 117, 300, 104.5):
        for op, fn in (
            ("=", lambda a, b: a == b), ("<", lambda a, b: a < b),
            (">=", lambda a, b: a >= b),
        ):
            got = encoded.compare_const(op, const)
            for i, value in enumerate(values):
                if valid[i]:
                    assert bool(got[i]) == fn(value, const)


def test_encoding_footprint_accounting():
    column = Column.from_values(
        [_WORDS[i % 3] for i in range(4096)], VARCHAR
    )
    encoded = encode_column(column, "auto")
    assert column_encoding_of(encoded) == "dict"
    assert column_raw_nbytes(encoded) == column_raw_nbytes(column)
    assert encoded.nbytes * 3 < column_raw_nbytes(column)


# ---------------------------------------------------------------------------
# Equivalence under DML and rollback
# ---------------------------------------------------------------------------

_DML_SCRIPT = [
    "CREATE TABLE t (k INTEGER, s VARCHAR, v INTEGER, f FLOAT)",
    # Bulk insert: low-cardinality strings, clustered ints.
    None,  # placeholder: executed via insert_rows below
    "UPDATE t SET s = 'mango' WHERE v < 10",
    "DELETE FROM t WHERE k % 7 = 3",
    "BEGIN",
    "UPDATE t SET v = v + 100 WHERE s = 'mango'",
    "ROLLBACK",
    "BEGIN",
    "DELETE FROM t WHERE s = 'kiwi'",
    "INSERT INTO t VALUES (9001, 'pear', 5, 2.5)",
    "COMMIT",
    "UPDATE t SET f = f * 2.0 WHERE k < 50",
    "INSERT INTO t SELECT k + 10000, s, v, f FROM t WHERE v >= 40",
]


def _run_script(db: Database, rows) -> list[list[tuple]]:
    snapshots = []
    for statement in _DML_SCRIPT:
        if statement is None:
            db.insert_rows("t", rows)
        else:
            db.execute(statement)
        snapshots.append(
            sorted(
                db.execute(
                    "SELECT k, s, v, f FROM t"
                ).rows
            )
        )
    return snapshots


@pytest.mark.parametrize("seed", range(3))
def test_dml_equivalence_encoded_vs_raw(seed):
    rng = random.Random(6000 + seed)
    rows = [
        (
            i,
            rng.choice(["kiwi", "mango", "plum"]) if rng.random() > 0.1
            else None,
            rng.randint(0, 60),
            round(rng.uniform(0, 9), 2),
        )
        for i in range(400)
    ]
    encoded_db = Database(encoding="auto")
    raw_db = Database(encoding="raw")
    try:
        assert _run_script(encoded_db, rows) == _run_script(raw_db, rows)
        # The encoded side must actually be encoded after all that DML.
        data = encoded_db.catalog.data(
            "t", encoded_db.catalog.current_ts
        )
        layouts = {
            field.name: column_encoding_of(col)
            for field, col in zip(data.schema, data.columns)
        }
        assert layouts["s"] == "dict"
        assert layouts["v"] in ("for", "rle", "raw")
    finally:
        encoded_db.close()
        raw_db.close()


def test_rollback_restores_encoded_version():
    db = Database(encoding="dict")
    try:
        db.execute("CREATE TABLE t (s VARCHAR)")
        db.insert_rows("t", [("a",), ("b",), ("a",)])
        before = db.execute("SELECT s FROM t").rows
        db.begin()
        db.execute("UPDATE t SET s = 'z'")
        db.rollback()
        assert db.execute("SELECT s FROM t").rows == before
        data = db.catalog.data("t", db.catalog.current_ts)
        assert isinstance(data.columns[0], DictionaryColumn)
        assert list(data.columns[0].dictionary) == ["a", "b"]
    finally:
        db.close()


def test_dictionary_stays_compact_after_delete():
    db = Database(encoding="auto")
    try:
        db.execute("CREATE TABLE t (s VARCHAR)")
        db.insert_rows(
            "t", [(w,) for w in ["a", "b", "c", "a", "b", "c"] * 20]
        )
        db.execute("DELETE FROM t WHERE s = 'c'")
        data = db.catalog.data("t", db.catalog.current_ts)
        column = data.columns[0]
        assert isinstance(column, DictionaryColumn)
        # Committed versions never carry unreferenced entries.
        assert list(column.dictionary) == ["a", "b"]
    finally:
        db.close()
