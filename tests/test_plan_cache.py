"""Statement/plan cache: hits, keying, invalidation, and equivalence.

The contract under test (docs/performance.md): a cached plan may never
change what a statement returns or raises — only how fast it gets
there. Every behaviour is exercised against both a cache-on and a
cache-off database where results could plausibly differ.
"""

import os

import pytest

from repro.api.database import Database
from repro.errors import ReproError
from repro.plan.cache import PlanCache, sql_fingerprint
from repro.testing import tpch
from repro.testing.oracle import build_repro_db

from .test_effects import BATTERY


def counter(db, name):
    return db.metrics.snapshot()["counters"].get(name, 0.0)


def make_db(rows=5000, **kwargs):
    # plan_cache=True by default: the constructor overrides the
    # REPRO_PLAN_CACHE switch, so hit-count assertions hold on the
    # cache-off CI leg too.
    kwargs.setdefault("profile_operators", False)
    kwargs.setdefault("plan_cache", True)
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INTEGER, name VARCHAR, v DOUBLE)")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, f"n{i % 7}", i * 0.25) for i in range(rows)],
    )
    return db


# ---------------------------------------------------------------------------
# Hits and correctness
# ---------------------------------------------------------------------------


def test_repeated_parameterized_query_hits_cache():
    db = make_db()
    for i in (10, 20, 30, 40):
        rows = db.execute(
            "SELECT v FROM t WHERE id = ?", (i,)
        ).rows
        assert rows == [(i * 0.25,)]
    assert counter(db, "exec_plan_cache_hits_total") == 3.0
    assert counter(db, "exec_plan_cache_misses_total") >= 1.0


def test_warm_passes_over_the_battery_are_all_hits():
    """A plan depends on the statement and the catalog, not on how often
    the statement ran: after one cold pass over the 16 ``olap``-shaped
    battery queries, every statement of the next two passes is a hit."""
    olap = [
        path.read_text() for path in BATTERY
        if not path.stem.startswith(("q17", "q20"))
    ]
    assert len(olap) == 16
    db = build_repro_db(tpch.generate(scale=1.0, seed=7), plan_cache=True)
    for sql in olap:
        db.execute(sql)
    misses = counter(db, "exec_plan_cache_misses_total")
    hits = counter(db, "exec_plan_cache_hits_total")
    for _ in range(2):
        for sql in olap:
            db.execute(sql)
    assert counter(db, "exec_plan_cache_misses_total") == misses
    assert counter(db, "exec_plan_cache_hits_total") == hits + 32


def test_literal_sql_also_cached():
    db = make_db()
    for _ in range(3):
        assert db.execute(
            "SELECT count(*) FROM t WHERE id < 100"
        ).rows == [(100,)]
    assert counter(db, "exec_plan_cache_hits_total") == 2.0


def test_cache_keyed_on_parameter_types():
    db = make_db()
    int_rows = db.execute("SELECT count(*) FROM t WHERE v < ?", (10,))
    float_rows = db.execute(
        "SELECT count(*) FROM t WHERE v < ?", (10.0,)
    )
    assert int_rows.rows == float_rows.rows
    # Different type signatures plan separately: no hit yet.
    assert counter(db, "exec_plan_cache_hits_total") == 0.0
    db.execute("SELECT count(*) FROM t WHERE v < ?", (20,))
    assert counter(db, "exec_plan_cache_hits_total") == 1.0


def test_cached_and_uncached_results_identical():
    on = make_db()
    off = make_db(plan_cache=False)
    statements = [
        ("SELECT name, count(*) FROM t WHERE id < ? "
         "GROUP BY name ORDER BY name", (1000,)),
        ("SELECT v FROM t WHERE id = ? OR id = ? ORDER BY v",
         (3, 4000)),
        ("SELECT max(v) - min(v) FROM t WHERE name = ?", ("n3",)),
    ]
    for sql, params in statements:
        for _ in range(3):  # cold, cached, cached
            assert (
                on.execute(sql, params).rows
                == off.execute(sql, params).rows
            )
    assert counter(on, "exec_plan_cache_hits_total") >= 6.0
    assert counter(off, "exec_plan_cache_hits_total") == 0.0


def test_wrong_parameter_count_still_raises_after_caching():
    db = make_db()
    db.execute("SELECT v FROM t WHERE id = ?", (1,))
    db.execute("SELECT v FROM t WHERE id = ?", (2,))  # cached now
    with pytest.raises(ReproError):
        db.execute("SELECT v FROM t WHERE id = ?", (1, 2))
    with pytest.raises(ReproError):
        db.execute("SELECT v FROM t WHERE id = ?")


# ---------------------------------------------------------------------------
# Bypasses
# ---------------------------------------------------------------------------


def test_null_parameters_bypass_cache():
    db = make_db()
    misses = counter(db, "exec_plan_cache_misses_total")
    hits = counter(db, "exec_plan_cache_hits_total")
    for _ in range(2):
        assert db.execute(
            "SELECT count(*) FROM t WHERE name = ?", (None,)
        ).rows == [(0,)]
    # NULL gives no type to key on: the statement never touches the
    # cache, in either direction.
    assert counter(db, "exec_plan_cache_misses_total") == misses
    assert counter(db, "exec_plan_cache_hits_total") == hits


def test_multi_statement_sql_negative_cached():
    db = make_db(rows=10)
    misses = counter(db, "exec_plan_cache_misses_total")
    hits = counter(db, "exec_plan_cache_hits_total")
    for _ in range(3):
        db.execute("SELECT 1; SELECT 2")
    # One miss when the negative entry is created, none afterwards.
    assert counter(db, "exec_plan_cache_misses_total") == misses + 1.0
    assert counter(db, "exec_plan_cache_hits_total") == hits


def test_bind_time_constant_placeholder_falls_back():
    db = make_db(rows=50)
    for n in (5, 7):
        rows = db.execute(
            "SELECT id FROM t ORDER BY id LIMIT ?", (n,)
        ).rows
        assert len(rows) == n
    assert counter(db, "exec_plan_cache_hits_total") == 0.0


def test_correlated_subquery_with_statement_params():
    on = make_db(rows=200)
    off = make_db(rows=200, plan_cache=False)
    sql = (
        "SELECT id FROM t a WHERE v < ? AND EXISTS "
        "(SELECT 1 FROM t b WHERE b.id = a.id + ? AND b.v > a.v) "
        "ORDER BY id"
    )
    for params in ((5.0, 1), (5.0, 1), (9.0, 2)):
        assert (
            on.execute(sql, params).rows == off.execute(sql, params).rows
        )


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def test_ddl_invalidates_cached_plans():
    db = make_db(rows=10)
    sql = "SELECT count(*) FROM t WHERE id >= ?"
    assert db.execute(sql, (0,)).rows == [(10,)]
    assert db.execute(sql, (0,)).rows == [(10,)]
    db.execute("DROP TABLE t")
    with pytest.raises(ReproError):
        db.execute(sql, (0,))
    # Recreate with a different shape: the stale plan must not serve.
    db.execute("CREATE TABLE t (id INTEGER)")
    db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(3)])
    assert db.execute(sql, (0,)).rows == [(3,)]
    assert db.execute("SELECT * FROM t ORDER BY id").rows == [
        (0,), (1,), (2,)
    ]


def test_create_table_bumps_ddl_version():
    db = make_db(rows=10)
    sql = "SELECT count(*) FROM t"
    db.execute(sql)
    db.execute(sql)
    hits_before = counter(db, "exec_plan_cache_hits_total")
    db.execute("CREATE TABLE other (x INTEGER)")
    db.execute(sql)  # replans: epoch moved
    assert counter(db, "exec_plan_cache_hits_total") == hits_before


def test_udf_reregistration_invalidates():
    db = make_db(rows=10)
    db.create_function("boost", lambda x: x + 1.0, "DOUBLE")
    sql = "SELECT boost(v) FROM t WHERE id = ?"
    assert db.execute(sql, (4,)).rows == [(2.0,)]
    db.create_function("boost", lambda x: x + 100.0, "DOUBLE")
    assert db.execute(sql, (4,)).rows == [(101.0,)]


def test_dml_under_cached_plan_sees_new_rows():
    db = make_db(rows=10)
    sql = "SELECT count(*) FROM t WHERE id >= ?"
    assert db.execute(sql, (0,)).rows == [(10,)]
    db.execute("INSERT INTO t VALUES (100, 'x', 1.0)")
    assert db.execute(sql, (0,)).rows == [(11,)]
    db.execute("DELETE FROM t WHERE id >= 5")
    assert db.execute(sql, (0,)).rows == [(5,)]


def test_open_txn_with_local_ddl_bypasses_cache():
    db = make_db(rows=10)
    db.begin()
    db.execute("CREATE TABLE staged (x INTEGER)")
    db.execute("INSERT INTO staged VALUES (1)")
    assert db.execute("SELECT count(*) FROM staged").rows == [(1,)]
    db.rollback()
    with pytest.raises(ReproError):
        db.execute("SELECT count(*) FROM staged")


# ---------------------------------------------------------------------------
# Switches
# ---------------------------------------------------------------------------


def test_env_switch_disables_cache(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    db = make_db(rows=10, plan_cache=None)
    for _ in range(3):
        db.execute("SELECT count(*) FROM t WHERE id >= ?", (0,))
    assert counter(db, "exec_plan_cache_hits_total") == 0.0
    assert counter(db, "exec_plan_cache_misses_total") == 0.0


def test_constructor_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    db = make_db(rows=10, plan_cache=True)
    db.execute("SELECT count(*) FROM t WHERE id >= ?", (0,))
    db.execute("SELECT count(*) FROM t WHERE id >= ?", (1,))
    assert counter(db, "exec_plan_cache_hits_total") == 1.0


# ---------------------------------------------------------------------------
# executemany
# ---------------------------------------------------------------------------


def test_executemany_bulk_insert_matches_loop():
    fast = Database(profile_operators=False)
    slow = Database(profile_operators=False, plan_cache=False)
    for db in (fast, slow):
        db.execute("CREATE TABLE r (a INTEGER, b VARCHAR, c DOUBLE)")
    rows = [(i, f"s{i}", i / 4 if i % 3 else None) for i in range(500)]
    assert fast.executemany(
        "INSERT INTO r VALUES (?, ?, ?)", rows
    ) == 500
    for a, bcol, c in rows:
        slow.execute("INSERT INTO r VALUES (?, ?, ?)", (a, bcol, c))
    probe = "SELECT a, b, c FROM r ORDER BY a"
    assert fast.execute(probe).rows == slow.execute(probe).rows


def test_executemany_rolls_back_atomically():
    db = Database(profile_operators=False)
    db.execute("CREATE TABLE r (a INTEGER NOT NULL)")
    with pytest.raises(ReproError):
        db.executemany(
            "INSERT INTO r VALUES (?)", [(1,), (2,), (None,)]
        )
    assert db.execute("SELECT count(*) FROM r").rows == [(0,)]


def test_executemany_select_loops_through_plan_cache():
    db = make_db(rows=100)
    total = db.executemany(
        "SELECT v FROM t WHERE id = ?", [(i,) for i in range(10)]
    )
    assert total == 0  # SELECTs report no affected rows
    assert counter(db, "exec_plan_cache_hits_total") >= 9.0


# ---------------------------------------------------------------------------
# explain_analyze integration
# ---------------------------------------------------------------------------


def test_explain_analyze_reports_hot_path_counters():
    db = make_db()
    db.explain_analyze("SELECT v FROM t WHERE id = ?", (1,))
    analyzed = db.explain_analyze("SELECT v FROM t WHERE id = ?", (2,))
    assert analyzed.counters.get("exec_plan_cache_hits_total") == 1.0
    assert "hot path:" in analyzed.format()
    # The plan populated here also serves plain execute().
    db.execute("SELECT v FROM t WHERE id = ?", (3,))
    assert counter(db, "exec_plan_cache_hits_total") == 2.0


# ---------------------------------------------------------------------------
# Parallel pool
# ---------------------------------------------------------------------------


def test_plan_cache_with_parallel_pool():
    db = Database(
        workers=4, parallel_threshold=0, morsel_rows=64,
        profile_operators=False, plan_cache=True,
    )
    db.execute("CREATE TABLE p (id INTEGER, v DOUBLE)")
    db.executemany(
        "INSERT INTO p VALUES (?, ?)",
        [(i, float(i)) for i in range(2000)],
    )
    sql = "SELECT v FROM p WHERE id = ?"
    expected = [[(float(i),)] for i in range(4)]
    got = [db.execute(sql, (i,)).rows for i in range(4)]
    assert got == expected
    assert counter(db, "exec_plan_cache_hits_total") == 3.0
    db.close()


# ---------------------------------------------------------------------------
# Unit level
# ---------------------------------------------------------------------------


def test_fingerprint_normalizes_whitespace_and_case():
    a = sql_fingerprint("SELECT v FROM t WHERE id = ?")
    b = sql_fingerprint("select   v\nfrom t where id=?")
    assert a is not None and a == b
    assert sql_fingerprint("SELECT 'a''b'") == sql_fingerprint(
        "select 'a''b'"
    )
    assert sql_fingerprint("SELECT ' FROM") is None  # unlexable


def test_plan_cache_lru_and_epoch():
    cache = PlanCache(capacity=2)
    from repro.plan.cache import CachedPlan

    cache.store("a", CachedPlan("plan-a", (1, 0)))
    cache.store("b", CachedPlan("plan-b", (1, 0)))
    assert cache.lookup("a", (1, 0)).plan == "plan-a"
    cache.store("c", CachedPlan("plan-c", (1, 0)))  # evicts b (LRU)
    assert cache.lookup("b", (1, 0)) is None
    assert cache.lookup("a", (1, 0)).plan == "plan-a"
    # Epoch mismatch drops the entry on sight.
    assert cache.lookup("a", (2, 0)) is None
    assert len(cache) == 1
