"""Unit tests for columns, batches, table versions, and the catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.storage import (
    Catalog,
    Column,
    ColumnBatch,
    ColumnSchema,
    Table,
    TableData,
    TableSchema,
)
from repro.storage.encoding import dictionary_encode, for_encode, rle_encode
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    NULLTYPE,
    VARCHAR,
    SQLType,
    TypeKind,
)


class TestColumn:
    def test_from_values_with_nulls(self):
        col = Column.from_values([1, None, 3], INTEGER)
        assert len(col) == 3
        assert col.null_count() == 1
        assert col.to_pylist() == [1, None, 3]

    def test_from_values_no_nulls_drops_mask(self):
        col = Column.from_values([1, 2], INTEGER)
        assert col.valid is None

    def test_all_valid_mask_normalised_to_none(self):
        col = Column(
            np.asarray([1, 2], dtype=np.int32), INTEGER,
            np.asarray([True, True]),
        )
        assert col.valid is None

    def test_all_null(self):
        col = Column.all_null(4, DOUBLE)
        assert col.null_count() == 4
        assert col.to_pylist() == [None] * 4

    def test_constant(self):
        col = Column.constant(7, 3, INTEGER)
        assert col.to_pylist() == [7, 7, 7]

    def test_constant_none(self):
        assert Column.constant(None, 2, INTEGER).null_count() == 2

    def test_take_preserves_nulls(self):
        col = Column.from_values([1, None, 3], INTEGER)
        taken = col.take(np.asarray([2, 1, 1, 0]))
        assert taken.to_pylist() == [3, None, None, 1]

    def test_filter(self):
        col = Column.from_values([1, 2, 3], INTEGER)
        kept = col.filter(np.asarray([True, False, True]))
        assert kept.to_pylist() == [1, 3]

    def test_slice(self):
        col = Column.from_values([1, 2, 3, 4], INTEGER)
        assert col.slice(1, 3).to_pylist() == [2, 3]

    def test_concat(self):
        a = Column.from_values([1, 2], INTEGER)
        b = Column.from_values([None, 4], INTEGER)
        merged = Column.concat([a, b])
        assert merged.to_pylist() == [1, 2, None, 4]

    def test_concat_empty_list_raises(self):
        with pytest.raises(ExecutionError):
            Column.concat([])

    def test_cast_int_to_double(self):
        col = Column.from_values([1, None], INTEGER).cast(DOUBLE)
        assert col.to_pylist() == [1.0, None]
        assert col.sql_type == DOUBLE

    def test_cast_to_varchar(self):
        col = Column.from_values([True, None], BOOLEAN)
        text = col.cast(VARCHAR)
        assert text.to_pylist() == ["true", None]

    def test_cast_varchar_to_int(self):
        col = Column.from_values(["12", None], VARCHAR).cast(INTEGER)
        assert col.to_pylist() == [12, None]

    def test_cast_bad_string_raises(self):
        col = Column.from_values(["x"], VARCHAR)
        with pytest.raises(Exception):
            col.cast(INTEGER)

    def test_value_at_returns_python_types(self):
        col = Column.from_values([1], INTEGER)
        assert type(col.value_at(0)) is int
        dcol = Column.from_values([1.5], DOUBLE)
        assert type(dcol.value_at(0)) is float


class TestColumnBatch:
    def test_ragged_rejected(self):
        with pytest.raises(ExecutionError, match="ragged"):
            ColumnBatch(
                {
                    "a": Column.from_values([1], INTEGER),
                    "b": Column.from_values([1, 2], INTEGER),
                }
            )

    def test_rows_iteration(self):
        batch = ColumnBatch(
            {
                "a": Column.from_values([1, 2], INTEGER),
                "b": Column.from_values(["x", None], VARCHAR),
            }
        )
        assert list(batch.rows()) == [(1, "x"), (2, None)]

    def test_project_reorders(self):
        batch = ColumnBatch(
            {
                "a": Column.from_values([1], INTEGER),
                "b": Column.from_values([2], INTEGER),
            }
        )
        assert batch.project(["b", "a"]).names() == ["b", "a"]

    def test_rename(self):
        batch = ColumnBatch({"a": Column.from_values([1], INTEGER)})
        assert batch.rename({"a": "z"}).names() == ["z"]

    def test_with_columns_overrides(self):
        batch = ColumnBatch({"a": Column.from_values([1], INTEGER)})
        updated = batch.with_columns(
            {"a": Column.from_values([9], INTEGER)}
        )
        assert list(updated.rows()) == [(9,)]

    def test_empty_layout(self):
        batch = ColumnBatch.empty({"a": INTEGER, "b": VARCHAR})
        assert len(batch) == 0
        assert batch.names() == ["a", "b"]

    def test_concat_batches(self):
        one = ColumnBatch({"a": Column.from_values([1], INTEGER)})
        two = ColumnBatch({"a": Column.from_values([2], INTEGER)})
        assert list(ColumnBatch.concat([one, two]).rows()) == [(1,), (2,)]


class TestRowsFastPath:
    """``to_pylist`` and ``rows`` convert a column stored in its type's
    own dtype with one ``tolist``; every value, and its Python type,
    must be the one ``value_at`` gives."""

    VALUES = {
        TypeKind.BOOLEAN: [True, None, False, True],
        TypeKind.INTEGER: [1, None, -3, 2**31 - 1],
        TypeKind.BIGINT: [2**40, None, 0, -(2**63)],
        TypeKind.DOUBLE: [1.5, None, -0.0, float("nan")],
        TypeKind.VARCHAR: ["a", None, "", "b"],
        TypeKind.DATE: [19000, None, 0, -1],
        TypeKind.NULL: [None, None, None, None],
    }

    @staticmethod
    def _expect_same(col):
        expected = [col.value_at(i) for i in range(len(col))]
        got = col.to_pylist()
        assert list(map(repr, got)) == list(map(repr, expected))
        assert list(map(type, got)) == list(map(type, expected))
        rows = [row for (row,) in ColumnBatch({"c": col}).rows()]
        assert list(map(repr, rows)) == list(map(repr, expected))
        assert list(map(type, rows)) == list(map(type, expected))

    @pytest.mark.parametrize("kind", list(TypeKind))
    def test_every_kind_with_and_without_nulls(self, kind):
        values = self.VALUES[kind]
        sql_type = SQLType(kind)
        self._expect_same(Column.from_values(values, sql_type))
        self._expect_same(
            Column.from_values([v for v in values if v is not None],
                               sql_type)
        )

    def test_values_outside_their_dtype_keep_value_at(self):
        # A DOUBLE over int64 storage still yields floats, an INTEGER
        # over int64 storage ints.
        for values, sql_type in (
            (np.array([1, 2, 3], dtype=np.int64), DOUBLE),
            (np.array([1, 2, 3], dtype=np.int64), INTEGER),
            (np.array([0, 1, 0], dtype=np.int8), BOOLEAN),
        ):
            col = Column(values, sql_type, np.array([True, False, True]))
            self._expect_same(col)
        assert Column(np.arange(2), DOUBLE).to_pylist() == [0.0, 1.0]
        assert type(Column(np.arange(2), DOUBLE).to_pylist()[0]) is float

    def test_encoded_columns(self):
        text = Column.from_values(["x", None, "y", "x"], VARCHAR)
        ints = Column.from_values([7, 9, None, 8], BIGINT)
        runs = Column.from_values([3, 3, 3, 5], INTEGER)
        for col in (
            dictionary_encode(text), for_encode(ints), rle_encode(runs)
        ):
            assert col is not None
            self._expect_same(col)

    def test_empty_batch(self):
        batch = ColumnBatch.empty({"a": INTEGER, "b": VARCHAR})
        assert list(batch.rows()) == []
        assert list(ColumnBatch({}).rows()) == []
        assert Column.from_values([], DATE).to_pylist() == []

    def test_rows_zip_columns(self):
        batch = ColumnBatch(
            {
                "a": Column.from_values([1, None], BIGINT),
                "b": Column.from_values([None, 2.5], DOUBLE),
                "c": Column.from_values([True, None], BOOLEAN),
                "d": Column.from_values([None, None], NULLTYPE),
            }
        )
        assert list(batch.rows()) == [
            (1, None, True, None), (None, 2.5, None, None)
        ]


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            TableSchema.of(("a", INTEGER), ("A", DOUBLE))

    def test_lookup_case_insensitive(self):
        schema = TableSchema.of(("Name", VARCHAR), ("Age", INTEGER))
        assert schema.index_of("name") == 0
        assert schema.column("AGE").sql_type == INTEGER

    def test_missing_column_raises(self):
        schema = TableSchema.of(("a", INTEGER))
        with pytest.raises(CatalogError, match="no such column"):
            schema.index_of("b")

    def test_str(self):
        schema = TableSchema(
            (ColumnSchema("a", INTEGER, not_null=True),)
        )
        assert "NOT NULL" in str(schema)


class TestTableData:
    def _schema(self):
        return TableSchema.of(("id", INTEGER), ("name", VARCHAR))

    def test_from_rows(self):
        data = TableData.from_rows(
            self._schema(), [(1, "a"), (2, None)]
        )
        assert data.row_count == 2
        assert list(data.rows()) == [(1, "a"), (2, None)]

    def test_arity_mismatch(self):
        with pytest.raises(CatalogError):
            TableData.from_rows(self._schema(), [(1,)])

    def test_not_null_enforced(self):
        schema = TableSchema(
            (ColumnSchema("id", INTEGER, not_null=True),)
        )
        with pytest.raises(CatalogError, match="NOT NULL"):
            TableData.from_rows(schema, [(None,)])

    def test_append_is_copy_on_write(self):
        base = TableData.from_rows(self._schema(), [(1, "a")])
        extended = base.append_rows([(2, "b")])
        assert base.row_count == 1
        assert extended.row_count == 2

    def test_delete_where(self):
        data = TableData.from_rows(
            self._schema(), [(1, "a"), (2, "b"), (3, "c")]
        )
        kept = data.delete_where(np.asarray([True, False, True]))
        assert [r[0] for r in kept.rows()] == [1, 3]

    def test_scan_morsels(self):
        data = TableData.from_rows(
            self._schema(), [(i, "x") for i in range(10)]
        )
        batches = list(data.scan(morsel_rows=4))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_scan_empty_yields_layout(self):
        data = TableData.empty(self._schema())
        batches = list(data.scan())
        assert len(batches) == 1
        assert batches[0].names() == ["id", "name"]

    def test_update_rows(self):
        data = TableData.from_rows(
            self._schema(), [(1, "a"), (2, "b"), (3, None)]
        )
        new = data.update_rows(
            np.asarray([0, 2]),
            {
                0: Column.from_values([9, None], INTEGER),
                1: Column.from_values(["z", "y"], VARCHAR),
            },
        )
        assert list(new.rows()) == [(9, "z"), (2, "b"), (None, "y")]
        assert list(data.rows()) == [(1, "a"), (2, "b"), (3, None)]


class TestTableVersions:
    def test_version_visibility(self):
        table = Table("t", TableSchema.of(("a", INTEGER)), created_ts=1)
        v2 = TableData.from_rows(table.schema, [(1,)])
        table.install(5, v2)
        assert table.data_at(1).row_count == 0
        assert table.data_at(5).row_count == 1
        assert table.data_at(99).row_count == 1

    def test_not_visible_before_creation(self):
        table = Table("t", TableSchema.of(("a", INTEGER)), created_ts=3)
        assert not table.visible_at(2)
        assert table.visible_at(3)

    def test_non_monotonic_install_rejected(self):
        table = Table("t", TableSchema.of(("a", INTEGER)), created_ts=5)
        with pytest.raises(CatalogError):
            table.install(4, TableData.empty(table.schema))

    def test_truncate_history(self):
        table = Table("t", TableSchema.of(("a", INTEGER)), created_ts=1)
        for ts in (2, 3, 4):
            table.install(ts, TableData.empty(table.schema))
        dropped = table.truncate_history(keep_after_ts=3)
        assert dropped == 2  # versions at ts 1 and 2 are unreachable
        assert table.data_at(3) is not None


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table("t", TableSchema.of(("a", INTEGER)))
        assert catalog.has_table("T")
        assert catalog.table_names() == ["t"]

    def test_duplicate_create(self):
        catalog = Catalog()
        schema = TableSchema.of(("a", INTEGER))
        catalog.create_table("t", schema)
        with pytest.raises(CatalogError):
            catalog.create_table("t", schema)
        catalog.create_table("t", schema, if_not_exists=True)  # no raise

    def test_drop_and_snapshot_visibility(self):
        catalog = Catalog()
        catalog.create_table("t", TableSchema.of(("a", INTEGER)))
        ts_before_drop = catalog.current_ts
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.has_table("t", ts=ts_before_drop)

    def test_drop_missing(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        catalog.drop_table("nope", if_exists=True)

    def test_install_bumps_ts(self):
        catalog = Catalog()
        table = catalog.create_table("t", TableSchema.of(("a", INTEGER)))
        before = catalog.current_ts
        ts = catalog.install(
            [("t", TableData.from_rows(table.schema, [(1,)]))]
        )
        assert ts == before + 1
        assert catalog.data("t").row_count == 1

    def test_vacuum_removes_dropped(self):
        catalog = Catalog()
        catalog.create_table("t", TableSchema.of(("a", INTEGER)))
        catalog.drop_table("t")
        freed = catalog.vacuum(catalog.current_ts)
        assert freed >= 1
        assert "t" not in catalog.table_names()
