"""Engine sessions without a server: several ``db.session()`` objects on
one ``Database``, driven from one thread."""

import pytest

import repro
from repro.errors import SerializationConflict, TransactionError


@pytest.fixture
def db():
    db = repro.Database(plan_cache=True)
    db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
    db.insert_rows("t", [(1, 10), (2, 20)])
    return db


def ids(caller):
    return [r[0] for r in caller.execute("SELECT id FROM t ORDER BY id").rows]


def test_uncommitted_writes_are_private_to_their_session(db):
    one, two = db.session(), db.session()
    one.execute("BEGIN")
    one.execute("INSERT INTO t VALUES (3, 30)")
    assert one.in_transaction and not two.in_transaction
    assert not db.in_transaction
    assert ids(one) == [1, 2, 3]
    assert ids(two) == [1, 2]
    assert ids(db) == [1, 2]
    one.execute("COMMIT")
    assert ids(two) == [1, 2, 3] and ids(db) == [1, 2, 3]


def test_snapshot_is_pinned_at_begin(db):
    one, two = db.session(), db.session()
    one.begin()
    two.execute("INSERT INTO t VALUES (3, 30)")  # autocommits
    assert ids(one) == [1, 2]
    one.rollback()
    assert ids(one) == [1, 2, 3]


def test_first_committer_wins(db):
    one, two = db.session(), db.session()
    one.begin()
    two.begin()
    one.execute("UPDATE t SET v = v + 1 WHERE id = 1")
    two.execute("UPDATE t SET v = v + 5 WHERE id = 2")
    one.commit()
    with pytest.raises(SerializationConflict):
        two.commit()
    assert not two.in_transaction
    assert db.execute("SELECT v FROM t ORDER BY id").rows == [(11,), (20,)]
    two.execute("UPDATE t SET v = v + 5 WHERE id = 2")  # still usable
    assert db.execute("SELECT v FROM t ORDER BY id").rows == [(11,), (25,)]


def test_release_rolls_back_and_is_idempotent(db):
    one = db.session()
    one.begin()
    one.execute("DELETE FROM t")
    assert ids(one) == []
    one.release()
    one.release()
    assert not one.in_transaction
    assert ids(db) == [1, 2]
    assert db.txns.active_count() == 0


def test_default_session_is_untouched_by_the_others(db):
    one = db.session()
    db.begin()
    db.execute("INSERT INTO t VALUES (9, 90)")
    one.begin()
    one.execute("INSERT INTO t VALUES (8, 80)")
    one.rollback()
    with pytest.raises(TransactionError):
        one.commit()  # nothing open on this session ...
    assert db.in_transaction  # ... and the default one still is
    assert db.default_session.txn is not None
    db.commit()
    assert ids(one) == [1, 2, 9]


def test_sessions_share_the_engine(db):
    one, two = db.session(), db.session()
    sql = "SELECT v FROM t WHERE id = ?"
    one.execute(sql, [1])
    two.execute(sql, [2])  # the plan one cached
    counters = db.metrics.snapshot()["counters"]
    assert counters["exec_plan_cache_hits_total"] == 1
    # One history store, one record per statement, whoever ran it.
    assert [r.sql for r in db.history(2)] == [sql, sql]
    # last_stats / last_governor are per session.
    assert one.last_governor["verdict"] == "ok"
    assert db.last_governor is not one.last_governor


def test_queue_wait_lands_in_the_history_phases(db):
    one = db.session()
    one.execute("SELECT count(*) FROM t", queue_wait_s=0.25)
    record = db.history(1)[0]
    assert record.phases["queue"] == pytest.approx(0.25)
    assert {"parse", "bind", "optimize", "plan", "execute"} <= set(
        record.phases
    )
    db.execute("SELECT count(*) FROM t")
    assert "queue" not in db.history(1)[0].phases
