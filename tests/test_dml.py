"""INSERT / UPDATE / DELETE / CREATE TABLE AS semantics."""

import pytest

import repro
from repro.errors import BindError, CatalogError


class TestInsert:
    def test_values(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        assert db.execute("SELECT count(*) FROM t").scalar() == 2

    def test_column_list_fills_missing_with_null(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c FLOAT)")
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        assert db.execute("SELECT a, b, c FROM t").rows == [(7, None, 1.5)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INTEGER)")
        db.execute("CREATE TABLE dst (a INTEGER)")
        db.insert_rows("src", [(1,), (2,), (3,)])
        result = db.execute(
            "INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1"
        )
        assert result.rowcount == 2
        assert db.execute("SELECT a FROM dst ORDER BY a").rows == [
            (20,), (30,),
        ]

    def test_type_coercion_on_insert(self, db):
        db.execute("CREATE TABLE t (a FLOAT)")
        db.execute("INSERT INTO t VALUES (1)")
        value = db.execute("SELECT a FROM t").scalar()
        assert value == 1.0 and isinstance(value, float)

    def test_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BindError, match="values"):
            db.execute("INSERT INTO t VALUES (1)")

    def test_not_null_violation(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(CatalogError, match="NOT NULL"):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_insert_expression_values(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (2 + 3 * 4)")
        assert db.execute("SELECT a FROM t").scalar() == 14

    def test_insert_subquery_value(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(5,)])
        db.execute("INSERT INTO t VALUES ((SELECT max(a) + 1 FROM t))")
        assert db.execute("SELECT max(a) FROM t").scalar() == 6


class TestUpdate:
    def test_update_where(self, people_db):
        result = people_db.execute(
            "UPDATE people SET age = age + 1 WHERE city = 'munich'"
        )
        assert result.rowcount == 2
        rows = people_db.execute(
            "SELECT name, age FROM people WHERE city = 'munich' "
            "ORDER BY name"
        ).rows
        assert rows == [("alice", 35), ("carol", 42)]

    def test_update_all_rows(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        assert db.execute("UPDATE t SET a = 0").rowcount == 2

    def test_update_multiple_columns_sees_old_values(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.insert_rows("t", [(1, 10)])
        db.execute("UPDATE t SET a = b, b = a")
        assert db.execute("SELECT a, b FROM t").rows == [(10, 1)]

    def test_update_to_null(self, people_db):
        people_db.execute("UPDATE people SET city = NULL WHERE id = 1")
        assert people_db.execute(
            "SELECT city FROM people WHERE id = 1"
        ).scalar() is None

    def test_update_null_predicate_matches_nothing(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(None,), (1,)])
        assert db.execute("UPDATE t SET a = 9 WHERE a > 0").rowcount == 1

    def test_update_not_null_violation(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        db.insert_rows("t", [(1,)])
        with pytest.raises(CatalogError, match="NOT NULL"):
            db.execute("UPDATE t SET a = NULL")

    def test_update_with_cast(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(1,)])
        db.execute("UPDATE t SET a = 2.9")
        assert db.execute("SELECT a FROM t").scalar() == 2


class TestDelete:
    def test_delete_where(self, people_db):
        assert people_db.execute(
            "DELETE FROM people WHERE age < 30"
        ).rowcount == 2
        assert people_db.execute(
            "SELECT count(*) FROM people"
        ).scalar() == 3

    def test_delete_all(self, people_db):
        assert people_db.execute("DELETE FROM people").rowcount == 5
        assert people_db.execute(
            "SELECT count(*) FROM people"
        ).scalar() == 0

    def test_delete_unknown_is_kept(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(None,), (1,), (-1,)])
        db.execute("DELETE FROM t WHERE a > 0")
        # The NULL row's predicate is unknown -> not deleted.
        assert db.execute("SELECT count(*) FROM t").scalar() == 2


class TestCreateDrop:
    def test_create_table_as(self, people_db):
        result = people_db.execute(
            "CREATE TABLE munich AS SELECT name, age FROM people "
            "WHERE city = 'munich'"
        )
        assert result.rowcount == 2
        schema = people_db.table_schema("munich")
        assert schema.names() == ["name", "age"]

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INTEGER)")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS ghost")
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE ghost")

    def test_drop_then_recreate(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(1,)])
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (b VARCHAR)")
        assert db.table_schema("t").names() == ["b"]
        assert db.execute("SELECT count(*) FROM t").scalar() == 0


class TestStatementTransactions:
    def test_explicit_txn_rollback(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 1
        db.execute("ROLLBACK")
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_explicit_txn_commit(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("BEGIN; INSERT INTO t VALUES (1); COMMIT")
        assert db.execute("SELECT count(*) FROM t").scalar() == 1

    def test_failed_statement_autocommit_rolls_back(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO t VALUES (1), (NULL)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_transaction_context_manager(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO t VALUES (2)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (3)")
                raise RuntimeError("boom")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2


class TestInsertSelectCoercion:
    """INSERT ... SELECT and CTAS append the query's column batch; the
    values stored are the ones the row-at-a-time path used to store
    (expected values recorded from the parent commit)."""

    SRC = [
        (1, 10, 2.7, "42", True),
        (-3, -5, -2.7, "7", False),
        (None, None, None, None, None),
        (7, 2**40, 1e3, "-1", True),
        (0, 0, -0.0, "0", False),
    ]

    @pytest.fixture
    def src(self, db):
        db.execute(
            "CREATE TABLE src "
            "(i INTEGER, b BIGINT, d DOUBLE, s VARCHAR, f BOOLEAN)"
        )
        db.insert_rows("src", self.SRC)
        return db

    @pytest.mark.parametrize(
        "target,source,expected",
        [
            ("INTEGER", "d", [2, -2, None, 1000, 0]),
            ("BIGINT", "d", [2, -2, None, 1000, 0]),
            ("DOUBLE", "i", [1.0, -3.0, None, 7.0, 0.0]),
            ("DOUBLE", "b", [10.0, -5.0, None, 1099511627776.0, 0.0]),
            ("VARCHAR", "i", ["1", "-3", None, "7", "0"]),
            ("VARCHAR", "d", ["2.7", "-2.7", None, "1000.0", "-0.0"]),
            ("VARCHAR", "b", ["10", "-5", None, "1099511627776", "0"]),
            ("VARCHAR", "f", ["True", "False", None, "True", "False"]),
            ("VARCHAR(3)", "s", ["42", "7", None, "-1", "0"]),
            ("INTEGER", "s", [42, 7, None, -1, 0]),
            ("DOUBLE", "s", [42.0, 7.0, None, -1.0, 0.0]),
            ("INTEGER", "f", [1, 0, None, 1, 0]),
            ("BOOLEAN", "i", [True, True, None, True, False]),
            ("DATE", "i", [1, -3, None, 7, 0]),
            ("INTEGER", "NULL", [None] * 5),
        ],
    )
    def test_values_match_the_row_path(self, src, target, source, expected):
        src.execute(f"CREATE TABLE dst (x {target})")
        result = src.execute(f"INSERT INTO dst SELECT {source} FROM src")
        assert result.rowcount == 5
        got = [row[0] for row in src.execute("SELECT x FROM dst").rows]
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert repr(got) == repr(expected)  # -0.0 stays -0.0

    def test_out_of_range_and_non_finite_are_errors(self, src):
        src.execute("CREATE TABLE dst (x INTEGER)")
        with pytest.raises(BindError, match="1099511627776 to INTEGER"):
            src.execute("INSERT INTO dst SELECT b FROM src")
        with pytest.raises(BindError, match="3000000000.0 to INTEGER"):
            src.execute("INSERT INTO dst SELECT d * 3000000 FROM src")
        with pytest.raises(BindError, match="inf to INTEGER"):
            src.execute("INSERT INTO dst SELECT exp(d * 1000) FROM src")
        with pytest.raises(BindError, match="'x' to INTEGER"):
            src.execute("INSERT INTO dst SELECT 'x' FROM src")
        assert src.row_count("dst") == 0
        # In range, the same narrowing goes through.
        src.execute("INSERT INTO dst SELECT b FROM src WHERE b < 100")
        assert src.execute("SELECT x FROM dst").rows == [(10,), (-5,), (0,)]

    def test_not_null_violation(self, src):
        src.execute("CREATE TABLE dst (x INTEGER NOT NULL)")
        with pytest.raises(CatalogError, match="NULL in NOT NULL column 'x'"):
            src.execute("INSERT INTO dst SELECT i FROM src")
        assert src.row_count("dst") == 0

    def test_column_list_and_width(self, src):
        src.execute("CREATE TABLE dst (x INTEGER, y VARCHAR, z DOUBLE)")
        src.execute("INSERT INTO dst (z, x) SELECT i, d FROM src")
        assert src.execute("SELECT x, y, z FROM dst").rows == [
            (2, None, 1.0), (-2, None, -3.0), (None, None, None),
            (1000, None, 7.0), (0, None, 0.0),
        ]
        with pytest.raises(BindError, match="expects 3 values, got 1"):
            src.execute("INSERT INTO dst SELECT i FROM src")
        # The width is wrong whether or not the query returns rows.
        with pytest.raises(BindError, match="expects 3 values, got 1"):
            src.execute("INSERT INTO dst SELECT i FROM src WHERE i > 100")

    def test_ctas_keeps_types_and_values(self, src):
        src.execute(
            "CREATE TABLE dst AS SELECT i, d, s, f, b, i + d AS e FROM src"
        )
        assert [str(t) for t in src.table_schema("dst").types()] == [
            "INTEGER", "DOUBLE", "VARCHAR", "BOOLEAN", "BIGINT", "DOUBLE",
        ]
        assert src.execute("SELECT i, b, d, s, f FROM dst").rows == self.SRC

    def test_dictionary_source_stays_a_dictionary(self):
        from repro.storage.encoding import DictionaryColumn

        db = repro.Database(encoding="auto")
        db.execute("CREATE TABLE src (k INTEGER, w VARCHAR)")
        db.insert_rows("src", [(i, f"w{i % 3}") for i in range(30)])
        db.execute("CREATE TABLE dst (k INTEGER, w VARCHAR)")
        db.execute("INSERT INTO dst SELECT k, w FROM src WHERE k < 20")
        db.execute("INSERT INTO dst SELECT k, w FROM src WHERE k >= 20")
        db.execute("INSERT INTO dst VALUES (99, 'new'), (100, 'w1')")
        stored = db.catalog.data("dst").column_by_name("w")
        assert isinstance(stored, DictionaryColumn)
        assert stored.dictionary.tolist() == ["new", "w0", "w1", "w2"]
        assert db.execute("SELECT k, w FROM dst").rows == [
            (i, f"w{i % 3}") for i in range(30)
        ] + [(99, "new"), (100, "w1")]
