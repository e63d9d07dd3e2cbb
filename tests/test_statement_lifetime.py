"""A finished statement leaves no reference cycle behind that holds its
transaction. A transaction in a cycle keeps its snapshot's table
versions alive until the cycle collector runs, which undercuts
"commits prune superseded versions" and the governor's view of what
is held."""

import gc

import pytest

import repro
from repro.testing import tpch
from repro.testing.oracle import build_repro_db
from repro.txn.manager import Transaction

from .test_effects import BATTERY, LADDER


@pytest.fixture(scope="module")
def tables():
    return tpch.generate(scale=0.2, seed=7)


def live_transactions() -> list:
    return [obj for obj in gc.get_objects() if isinstance(obj, Transaction)]


@pytest.mark.parametrize(
    "plan_cache", [False, True], ids=["cache-off", "cache-on"]
)
def test_no_transaction_outlives_a_battery_query(tables, plan_cache):
    """Each query runs twice, so with the cache on both the miss that
    plans it and the hit that reuses the plan are checked."""
    db = build_repro_db(tables, plan_cache=plan_cache)
    gc.collect()
    assert live_transactions() == []
    gc.disable()
    try:
        for path in BATTERY:
            for run in ("first", "second"):
                db.execute(path.read_text())
                assert live_transactions() == [], (path.stem, run)
    finally:
        gc.enable()


#: Writes whose subqueries run through ``ExecutionContext.run_subplan``
#: with no plan of their own around them.
DML = [
    "UPDATE t SET b = b + 1 WHERE a IN (SELECT a FROM u)",
    "DELETE FROM t WHERE a = (SELECT max(a) FROM u)",
    "INSERT INTO t VALUES ((SELECT min(a) FROM u), (SELECT max(a) FROM u))",
]


def dml_db(plan_cache: bool) -> repro.Database:
    db = repro.Database(plan_cache=plan_cache)
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.execute("CREATE TABLE u (a INTEGER)")
    db.insert_rows("t", [(i, i) for i in range(20)])
    db.insert_rows("u", [(i,) for i in range(0, 20, 3)])
    return db


@pytest.mark.parametrize(
    "plan_cache", [False, True], ids=["cache-off", "cache-on"]
)
@pytest.mark.parametrize("sql", DML, ids=["update", "delete", "insert"])
def test_no_transaction_outlives_a_write_with_subqueries(plan_cache, sql):
    db = dml_db(plan_cache)
    gc.collect()
    gc.disable()
    try:
        for run in ("first", "second"):
            db.execute(sql)
            assert live_transactions() == [], run
    finally:
        gc.enable()


def statements(tables) -> list:
    """``(database, sql)`` for every battery query, every ``ladder``
    statement and every write above, on databases built once."""
    out = []
    for plan_cache in (False, True):
        db = build_repro_db(tables, plan_cache=plan_cache)
        out += [(db, path.read_text()) for path in BATTERY]
        for make_db, texts in LADDER.items():
            db = make_db(plan_cache=plan_cache)
            out += [(db, sql) for sql in texts]
        db = dml_db(plan_cache)
        out += [(db, sql) for sql in DML]
    return out


def test_statements_leave_no_garbage_cycles(tables):
    """Reference counting alone frees everything a finished statement
    made: after a warm-up run of each statement (a plan-cache miss with
    the cache on), with the collector off, the next run leaves nothing
    for it to find."""
    runs = statements(tables)
    for db, sql in runs:
        db.execute(sql)
    gc.collect()
    gc.disable()
    try:
        left = []
        for db, sql in runs:
            db.execute(sql)
            found = gc.collect()
            if found:
                left.append((db.config.plan_cache, sql[:60], found))
        assert left == []
    finally:
        gc.enable()
