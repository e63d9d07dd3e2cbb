"""Replay differential: a seeded random DML history runs on a durable
database and on a WAL-less twin; after close + reopen — from the log
alone, or from a mid-history checkpoint plus the log's suffix, under
the same encoding policy or the other one — every table holds the same
rows in the same order, stored in the same layouts.

Every writer the engine has is in the history: ``INSERT ... VALUES``,
``executemany``, ``insert_rows``, ``load_columns``, ``INSERT ...
SELECT``, CTAS, ``UPDATE``, ``DELETE`` with and without ``WHERE``,
statements that change nothing, multi-statement transactions that
commit or roll back, savepoints, a statement that fails on NOT NULL in
the middle of a transaction, and DDL + DML in one transaction.
"""

import random

import numpy as np
import pytest

import repro
from repro.errors import ReproError

WORDS = ["alpha", "bravo", "", "NULL", "délta", "echo", None]
DDL = (
    "CREATE TABLE {name} "
    "(id INTEGER NOT NULL, word VARCHAR, score INTEGER, ratio DOUBLE)"
)


class History:
    """The seed's operations, as closures over a database — a pure
    function of the seed, so both databases get the same calls."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.next_id = 0
        self.tables = ["t0", "t1"]
        self.made = 0
        self.ops = [self.create("t0"), self.create("t1")]
        self.ops += [self.statement() for _ in range(self.rng.randint(25, 40))]

    # -- generators -------------------------------------------------------

    def row(self) -> tuple:
        rng = self.rng
        self.next_id += 1
        return (
            self.next_id,
            rng.choice(WORDS),
            rng.choice([None, rng.randint(-5, 100)]),
            rng.choice([None, float("inf"), -0.0, rng.random() * 100]),
        )

    def rows(self, lo=1, hi=6) -> list[tuple]:
        return [self.row() for _ in range(self.rng.randint(lo, hi))]

    def where(self) -> str:
        rng = self.rng
        return rng.choice(
            [
                f"score < {rng.randint(0, 100)}",
                f"id % {rng.randint(2, 5)} = 0",
                f"word = '{rng.choice(['alpha', 'echo', 'NULL', 'zz'])}'",
                "word IS NULL",
                "id < 0",  # matches nothing
            ]
        )

    def create(self, name: str):
        return lambda db: db.execute(DDL.format(name=name))

    def write(self, table: str):
        """One writing call against ``table``."""
        rng = self.rng
        kind = rng.choice(
            [
                "values", "values", "many", "rows", "load", "select",
                "update", "update_word", "update", "delete", "delete_all",
                "nothing",
            ]
        )
        if kind == "values":
            rows = self.rows(1, 3)
            sql = f"INSERT INTO {table} VALUES " + ", ".join(
                ["(?, ?, ?, ?)"] * len(rows)
            )
            params = [v for row in rows for v in row]
            return lambda db: db.execute(sql, params)
        if kind == "many":
            rows = self.rows(2, 6)
            return lambda db: db.executemany(
                f"INSERT INTO {table} (id, word, score, ratio) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
        if kind == "rows":
            rows = self.rows()
            return lambda db: db.insert_rows(table, rows)
        if kind == "load":
            n = rng.randint(1, 12)
            ids = np.arange(self.next_id + 1, self.next_id + n + 1)
            self.next_id += n
            columns = {
                "id": ids,
                "word": np.array(
                    [rng.choice(WORDS[:-1]) for _ in range(n)], dtype=object
                ),
                "score": ids % 13,
                "ratio": ids / 7.0,
            }
            return lambda db: db.load_columns(table, columns)
        if kind == "select":
            source = rng.choice(self.tables)
            shift = 10_000 * rng.randint(1, 9)
            sql = (
                f"INSERT INTO {table} SELECT id + {shift}, word, score, "
                f"ratio FROM {source} WHERE {self.where()}"
            )
            return lambda db: db.execute(sql)
        if kind == "update":
            sql = (
                f"UPDATE {table} SET score = score + {rng.randint(1, 9)}, "
                f"ratio = NULL WHERE {self.where()}"
            )
            return lambda db: db.execute(sql)
        if kind == "update_word":
            word = rng.choice(["alpha", "fresh", "echo"])
            sql = f"UPDATE {table} SET word = '{word}' WHERE {self.where()}"
            return lambda db: db.execute(sql)
        if kind == "delete":
            sql = f"DELETE FROM {table} WHERE {self.where()}"
            return lambda db: db.execute(sql)
        if kind == "delete_all":
            return lambda db: db.execute(f"DELETE FROM {table}")
        sql = f"UPDATE {table} SET score = 0 WHERE id = -1"
        return lambda db: db.execute(sql)

    def statement(self):
        rng = self.rng
        roll = rng.random()
        table = rng.choice(self.tables)
        if roll < 0.55:
            return self.write(table)
        if roll < 0.70:
            return self.transaction(table, commit=rng.random() < 0.7)
        if roll < 0.80:
            return self.savepoint(table)
        if roll < 0.90:
            # Only the first two tables are sure to have the constraint.
            return self.failing_statement(rng.choice(self.tables[:2]))
        return self.ddl_and_dml()

    def transaction(self, table: str, commit: bool):
        writes = [self.write(table) for _ in range(self.rng.randint(2, 4))]

        def run(db):
            db.begin()
            for write in writes:
                write(db)
            db.commit() if commit else db.rollback()

        return run

    def savepoint(self, table: str):
        kept, undone, after = self.write(table), self.write(table), self.write(table)

        def run(db):
            db.begin()
            kept(db)
            txn = db.default_session.txn
            mark = txn.savepoint()
            undone(db)
            txn.rollback_to(mark)
            after(db)
            db.commit()

        return run

    def failing_statement(self, table: str):
        before, after = self.write(table), self.write(table)
        good = self.row()

        def run(db):
            db.begin()
            before(db)
            with pytest.raises(ReproError, match="NOT NULL"):
                db.execute(
                    f"INSERT INTO {table} VALUES (?, ?, ?, ?), (NULL, 'x', 1, 1.0)",
                    list(good),
                )
            after(db)
            db.commit()

        return run

    def ddl_and_dml(self):
        rng = self.rng
        self.made += 1
        name = f"made{self.made}"
        source = rng.choice(self.tables)
        fill = self.write(name)
        drop = rng.random() < 0.3
        ctas = rng.random() < 0.5

        def run(db):
            db.begin()
            if ctas:
                db.execute(
                    f"CREATE TABLE {name} AS SELECT id, word, score, ratio "
                    f"FROM {source} WHERE id % 2 = 0"
                )
            else:
                db.execute(DDL.format(name=name).replace(" NOT NULL", ""))
            fill(db)
            if drop:
                db.execute(f"DROP TABLE {name}")
            db.commit()

        if not drop:
            self.tables = self.tables + [name]
        return run


def contents(db) -> dict:
    """Every table's rows in storage order (NaN-free data: ``==`` works,
    and ``repr`` tells -0.0 from 0.0)."""
    return {
        name: [repr(row) for row in db.catalog.data(name).rows()]
        for name in db.catalog.table_names()
    }


def layouts(db) -> dict:
    return {
        name: table["columns"]
        for name, table in db.storage_stats()["tables"].items()
    }


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "written,reopened",
    [("auto", "auto"), ("raw", "raw"), ("auto", "raw"), ("raw", "auto")],
)
@pytest.mark.parametrize("checkpoint", [False, True])
def test_recovered_state_equals_the_twin(
    tmp_path, seed, written, reopened, checkpoint
):
    history = History(seed)
    path = str(tmp_path / "db.wal")
    durable = repro.Database(wal_path=path, encoding=written)
    twin = repro.Database(encoding=written)
    middle = len(history.ops) // 2
    for i, op in enumerate(history.ops):
        op(durable)
        op(twin)
        if checkpoint and i == middle:
            durable.checkpoint()
    expected = contents(twin)
    assert contents(durable) == expected
    assert layouts(durable) == layouts(twin)
    live_layouts = layouts(durable)
    durable.close()
    twin.close()

    recovered = repro.Database(
        wal_path=path, encoding=reopened, recovery="strict"
    )
    assert recovered.last_recovery["snapshot_used"] == checkpoint
    assert recovered.last_recovery["records_discarded"] == 0
    assert contents(recovered) == expected
    if reopened == written:
        assert layouts(recovered) == live_layouts
    # The recovered database keeps working, durably.
    recovered.execute("CREATE TABLE probe (id INTEGER)")
    recovered.execute("INSERT INTO probe VALUES (1)")
    recovered.close()
    again = repro.Database(wal_path=path, encoding=reopened)
    assert again.execute("SELECT id FROM probe").rows == [(1,)]
    again.close()
