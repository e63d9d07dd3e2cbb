"""Subquery predicates (docs/performance.md, "Subquery predicates").

An uncorrelated ``x [NOT] IN (SELECT ...)`` probes a key set built once
per statement; conjuncts holding uncorrelated subqueries push down like
any other; a correlated subquery runs once per distinct outer value.
Every answer must be what evaluating the Python values row by row gave,
NULL rules and cross-type equality included.
"""

import math
import sqlite3

import numpy as np
import pytest

import repro
from repro.errors import BindError, ExecutionError
from repro.storage.column import Column

NAN = float("nan")
BIG = 2 ** 53

#: name -> (probe type, probe value, set type, set values,
#: (``IN`` result, ``NOT IN`` result)) — recorded from the row-at-a-time
#: evaluation this engine used before key sets, which compared the
#: Python values of probe and set.
TRUTH = {
    "null_probe": ("INTEGER", None, "INTEGER", [1, 2], (None, None)),
    "null_probe_empty_set": ("INTEGER", None, "INTEGER", [], (False, True)),
    "empty_set": ("INTEGER", 1, "INTEGER", [], (False, True)),
    "miss_set_with_null": ("INTEGER", 3, "INTEGER", [1, None], (None, None)),
    "hit_set_with_null": ("INTEGER", 1, "INTEGER", [1, None], (True, False)),
    "null_probe_null_set": ("INTEGER", None, "INTEGER", [None], (None, None)),
    "nan_probe": ("DOUBLE", NAN, "DOUBLE", [NAN, 1.0], (False, True)),
    "nan_probe_set_with_null": (
        "DOUBLE", NAN, "DOUBLE", [1.0, None], (None, None)),
    "null_probe_nan_only_set": (
        "DOUBLE", None, "DOUBLE", [NAN], (None, None)),
    "negative_zero_probe": ("DOUBLE", -0.0, "DOUBLE", [0.0], (True, False)),
    "zero_probe_negative_zero_set": (
        "DOUBLE", 0.0, "DOUBLE", [-0.0], (True, False)),
    "infinity": ("DOUBLE", math.inf, "DOUBLE", [math.inf, 2.0],
                 (True, False)),
    "boolean_true_in_integers": (
        "BOOLEAN", True, "INTEGER", [1, 5], (True, False)),
    "boolean_false_in_integers": (
        "BOOLEAN", False, "INTEGER", [1, 5], (False, True)),
    "integer_in_booleans": ("INTEGER", 1, "BOOLEAN", [True], (True, False)),
    "integer_two_in_booleans": (
        "INTEGER", 2, "BOOLEAN", [True, False], (False, True)),
    "date_in_integers": ("DATE", 1, "INTEGER", [1, 40], (True, False)),
    "integer_in_dates": ("INTEGER", 40, "DATE", [1, 40], (True, False)),
    "varchar_in_integers": ("VARCHAR", "1", "INTEGER", [1, 2], (False, True)),
    "integer_in_varchars": (
        "INTEGER", 1, "VARCHAR", ["1", "2"], (False, True)),
    "varchar_hit": ("VARCHAR", "b", "VARCHAR", ["a", "b"], (True, False)),
    "varchar_miss_set_with_null": (
        "VARCHAR", "c", "VARCHAR", ["a", None], (None, None)),
    "bigint_beyond_2_53_in_doubles": (
        "BIGINT", BIG + 1, "DOUBLE", [float(BIG)], (False, True)),
    "bigint_2_53_in_doubles": (
        "BIGINT", BIG, "DOUBLE", [float(BIG)], (True, False)),
    "double_2_53_in_bigints": (
        "DOUBLE", float(BIG), "BIGINT", [BIG + 1], (False, True)),
    "double_fraction_in_integers": (
        "DOUBLE", 2.5, "INTEGER", [2, 3], (False, True)),
    "double_integral_in_integers": (
        "DOUBLE", 2.0, "INTEGER", [2, 3], (True, False)),
    "integer_in_doubles": ("INTEGER", 3, "DOUBLE", [3.0, 0.5], (True, False)),
}


def _truth_db(case, **kwargs):
    ptype, pval, stype, svals, _expected = TRUTH[case]
    db = repro.Database(**kwargs)
    db.execute(f"CREATE TABLE p (v {ptype})")
    db.execute(f"CREATE TABLE s (w {stype})")
    db.insert_rows("p", [(pval,)] * 40)
    if svals:
        db.insert_rows("s", [(v,) for v in svals])
    return db


def _as_truth(value):
    return None if value is None else bool(value)


@pytest.mark.parametrize("morsel_rows", [16, 65536])
@pytest.mark.parametrize("encoding", ["raw", "auto"])
@pytest.mark.parametrize("case", sorted(TRUTH))
def test_in_and_not_in_truth_table(case, encoding, morsel_rows):
    db = _truth_db(case, encoding=encoding, morsel_rows=morsel_rows)
    rows = db.execute(
        "SELECT v IN (SELECT w FROM s), v NOT IN (SELECT w FROM s) FROM p"
    ).rows
    assert {tuple(map(_as_truth, row)) for row in rows} == {TRUTH[case][4]}
    # As a WHERE conjunct (pushed into the scan): TRUE rows only.
    count = db.execute(
        "SELECT count(*) FROM (SELECT v AS x FROM p) q "
        "WHERE x IN (SELECT w FROM s)"
    ).scalar()
    assert count == (40 if TRUTH[case][4][0] else 0)


@pytest.mark.parametrize("case", sorted(TRUTH))
def test_correlated_in_matches_the_uncorrelated_truth(case):
    """The same sets, reached through a correlation: one key set per
    distinct outer key, NULL rules per group."""
    ptype, pval, stype, svals, expected = TRUTH[case]
    db = repro.Database(morsel_rows=16)
    db.execute(f"CREATE TABLE p (g INTEGER, v {ptype})")
    db.execute(f"CREATE TABLE s (g INTEGER, w {stype})")
    db.insert_rows("p", [(i % 3, pval) for i in range(30)])
    # Group 0 holds the case's set; groups 1 and 2 hold nothing.
    if svals:
        db.insert_rows("s", [(0, v) for v in svals])
    rows = db.execute(
        "SELECT g, v IN (SELECT w FROM s WHERE s.g = p.g), "
        "v NOT IN (SELECT w FROM s WHERE s.g = p.g) FROM p"
    ).rows
    by_group = {g: (_as_truth(a), _as_truth(b)) for g, a, b in rows}
    assert by_group[0] == expected
    assert by_group[1] == by_group[2] == (False, True)  # empty set


# -- against SQLite ----------------------------------------------------------


def twin(tables: dict[str, tuple[str, list[tuple]]], **kwargs):
    """The same tables in this engine and in SQLite."""
    db = repro.Database(**kwargs)
    con = sqlite3.connect(":memory:")
    for name, (columns, rows) in tables.items():
        ddl = f"CREATE TABLE {name} ({columns})"
        db.execute(ddl)
        con.execute(ddl)
        if rows:
            db.insert_rows(name, rows)
            marks = ", ".join("?" * len(rows[0]))
            con.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    return db, con


def same_rows(db, con, sql):
    got = [tuple(_plain(v) for v in row) for row in db.execute(sql).rows]
    want = con.execute(sql).fetchall()
    assert sorted(got, key=repr) == sorted(want, key=repr), sql


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    item = getattr(value, "item", None)
    return item() if callable(item) else value


@pytest.fixture
def tu():
    return twin(
        {
            "t": (
                "a INTEGER, c INTEGER, s VARCHAR",
                [(i % 7 if i % 5 else None, i, f"w{i % 4}")
                 for i in range(60)],
            ),
            "u": ("x INTEGER, y INTEGER", [(1, 1), (3, 2), (5, 2),
                                          (None, 3), (9, 4)]),
        },
        morsel_rows=8,
    )


PUSHDOWN_SHAPES = [
    # Through a projection that renames the probe column.
    "SELECT * FROM (SELECT a AS b, c FROM t) q WHERE b IN (SELECT x FROM u)",
    "SELECT * FROM (SELECT a AS b, c FROM t) q "
    "WHERE b NOT IN (SELECT x FROM u WHERE x IS NOT NULL)",
    # Into both branches of a UNION ALL.
    "SELECT * FROM (SELECT a AS b FROM t UNION ALL SELECT c FROM t) q "
    "WHERE b IN (SELECT x FROM u)",
    "SELECT * FROM (SELECT a AS b, s FROM t UNION ALL "
    "SELECT c, s FROM t) q WHERE b IN (SELECT x FROM u) AND s <> 'w1'",
    # Below an aggregate, as a predicate on its group key.
    "SELECT * FROM (SELECT a AS b, count(*) AS n FROM t GROUP BY a) q "
    "WHERE b IN (SELECT x FROM u)",
    "SELECT * FROM (SELECT a + 1 AS b, sum(c) AS n FROM t GROUP BY a + 1) q "
    "WHERE b IN (SELECT y FROM u)",
    # Into one side of a join; scalar and EXISTS conjuncts move too.
    "SELECT t.c, u.y FROM t JOIN u ON t.a = u.y WHERE t.c IN "
    "(SELECT x FROM u) AND t.c > (SELECT min(y) FROM u)",
    "SELECT * FROM (SELECT a AS b FROM t) q "
    "WHERE EXISTS (SELECT 1 FROM u WHERE y > 3) AND b >= "
    "(SELECT count(*) FROM u)",
]


@pytest.mark.parametrize("sql", PUSHDOWN_SHAPES)
def test_pushed_subquery_predicates_match_sqlite(tu, sql):
    db, con = tu
    same_rows(db, con, sql)


def below_the_filter(db, sql) -> str:
    """The plan node right under the statement's one Filter."""
    lines = db.explain(sql).splitlines()
    (at,) = [i for i, line in enumerate(lines) if "Filter" in line]
    return lines[at + 1].split()[0]


def test_pushdown_rewrites_the_probe_and_lands_in_the_scan(tu):
    db, _con = tu
    sql = (
        "SELECT * FROM (SELECT a AS b, c FROM t) q "
        "WHERE b IN (SELECT x FROM u)"
    )
    assert below_the_filter(db, sql) == "Scan"
    analyzed = db.explain_analyze(sql)
    in_u = [i for i in range(60) if i % 5 and i % 7 in (1, 3, 5)]
    assert analyzed.root.find("Scan(t)").rows_out == len(in_u)


def test_correlated_conjuncts_stay_where_they_were_bound(tu):
    db, con = tu
    sql = (
        "SELECT * FROM (SELECT a AS b, c FROM t) q "
        "WHERE EXISTS (SELECT 1 FROM u WHERE u.x = q.b)"
    )
    same_rows(db, con, sql)
    assert below_the_filter(db, sql) == "Project"


GROUP_KEY_SHAPES = [
    "SELECT a, count(*) FROM t GROUP BY a HAVING a + 1 > 1",
    "SELECT a, count(*) FROM t GROUP BY a HAVING a IN (1, 2)",
    "SELECT a, count(*) FROM t GROUP BY a HAVING a IN (SELECT x FROM u)",
    "SELECT a, a IN (SELECT x FROM u) FROM t GROUP BY a",
    "SELECT a, count(*) FROM t GROUP BY a "
    "HAVING count(*) IN (SELECT x FROM u)",
    "SELECT a * 2, count(*) FROM t GROUP BY a "
    "HAVING a NOT IN (SELECT x FROM u WHERE x IS NOT NULL)",
]


@pytest.mark.parametrize("sql", GROUP_KEY_SHAPES)
def test_expressions_over_group_keys_match_sqlite(tu, sql):
    db, con = tu
    same_rows(db, con, sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT c FROM t GROUP BY a",
        "SELECT a FROM t GROUP BY a HAVING c + 1 > 1",
        "SELECT a FROM t GROUP BY a HAVING c IN (SELECT x FROM u)",
    ],
)
def test_a_column_outside_group_by_still_raises(tu, sql):
    db, _con = tu
    with pytest.raises(BindError, match="must appear in GROUP BY"):
        db.execute(sql)


def test_correlated_subqueries_match_sqlite(tu):
    db, con = tu
    for sql in [
        "SELECT c, (SELECT max(y) FROM u WHERE u.x = t.a) FROM t",
        "SELECT c FROM t WHERE c > (SELECT count(*) FROM u WHERE u.y = t.a)",
        "SELECT c, EXISTS (SELECT 1 FROM u WHERE u.x = t.a) FROM t",
        "SELECT c FROM t WHERE NOT EXISTS "
        "(SELECT 1 FROM u WHERE u.y = t.a AND u.x > 2)",
        "SELECT c, s IN (SELECT 'w' || x FROM u WHERE u.y >= t.a) FROM t",
    ]:
        same_rows(db, con, sql)


def test_correlated_slot_read_only_by_the_subquery_survives_a_filter(tu):
    """The outer column a correlated subquery reads must stay in the
    scan's batches after an earlier filter drops the other columns."""
    db, con = tu
    same_rows(
        db, con,
        "SELECT s, EXISTS (SELECT 1 FROM u WHERE u.x = t.a) FROM t "
        "WHERE c < 20",
    )


# -- subplan executions --------------------------------------------------------


def runs(analyzed) -> float:
    return analyzed.counters.get("exec_subquery_runs_total", 0.0)


def test_uncorrelated_in_runs_its_subplan_once_per_statement():
    db = repro.Database(morsel_rows=16)
    db.execute("CREATE TABLE orders (o_orderkey INTEGER, o_day INTEGER)")
    db.execute("CREATE TABLE lineitem (l_orderkey INTEGER, l_c INTEGER, "
               "l_r INTEGER)")
    db.insert_rows("orders", [(i, i % 50) for i in range(500)])
    db.insert_rows(
        "lineitem", [(i % 600, i % 3, i % 5) for i in range(1500)]
    )
    analyzed = db.explain_analyze(
        "SELECT count(*) FROM orders o WHERE o.o_day >= 10 "
        "AND o.o_orderkey IN (SELECT l_orderkey FROM lineitem "
        "WHERE l_c < l_r)"
    )
    assert runs(analyzed) == 1
    assert "exec_subquery_runs_total=1" in str(analyzed)


def test_correlated_scalar_runs_once_per_distinct_key():
    db = repro.Database()
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("CREATE TABLE u (k INTEGER, w INTEGER)")
    keys = [1, 2, 3, 1, 4, 5, None, 6, 2, None]  # 7 distinct, NULL one
    db.insert_rows("t", [(k,) for k in keys])
    db.insert_rows("u", [(k, k * 10) for k in range(1, 5)])
    analyzed = db.explain_analyze(
        "SELECT k, (SELECT max(w) FROM u WHERE u.k = t.k) FROM t"
    )
    assert runs(analyzed) == 7
    assert analyzed.result.rows == [
        (k, k * 10 if k is not None and k <= 4 else None) for k in keys
    ]


def test_doubles_group_on_their_bit_pattern():
    """``-0.0`` and ``0.0`` are one value to ``=`` but two parameter
    values: each runs its own subplan."""
    db = repro.Database()
    db.execute("CREATE TABLE t (d DOUBLE)")
    db.insert_rows("t", [(-0.0,), (0.0,), (-0.0,)])
    analyzed = db.explain_analyze(
        "SELECT (SELECT CAST(t.d AS VARCHAR)) FROM t"
    )
    assert runs(analyzed) == 2
    assert analyzed.result.rows == [("-0.0",), ("0.0",), ("-0.0",)]


def test_a_udf_in_the_subplan_runs_once_per_row():
    db = repro.Database()
    calls = []

    def tick(v):
        calls.append(v)
        return v

    db.create_function("tick", tick, "INTEGER")
    db.execute("CREATE TABLE t (k INTEGER)")
    db.insert_rows("t", [(1,), (1,), (2,)])
    rows = db.execute("SELECT (SELECT tick(t.k)) FROM t").rows
    assert rows == [(1,), (1,), (2,)]
    assert calls == [1, 1, 2]


# -- no per-row Python -----------------------------------------------------------


def test_subquery_predicates_never_fetch_python_values(monkeypatch):
    db = repro.Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR)")
    db.execute("CREATE TABLE u (x INTEGER, y INTEGER)")
    db.insert_rows(
        "t", [(i, i % 97, f"s{i % 13}") for i in range(10_000)]
    )
    db.insert_rows("u", [(i * 3, i % 97) for i in range(2_000)])
    queries = {
        "SELECT count(*) FROM t WHERE a IN (SELECT x FROM u)": 2_000,
        "SELECT count(*) FROM t WHERE s NOT IN "
        "(SELECT 's' || y FROM u WHERE y < 5)": sum(
            1 for i in range(10_000) if i % 13 >= 5
        ),
        "SELECT count(*) FROM t WHERE a < "
        "(SELECT max(x) FROM u WHERE u.y = t.b)": None,
    }
    expected = {sql: db.execute(sql).scalar() for sql in queries}

    def forbidden(*_args, **_kwargs):
        raise AssertionError("per-row Python value fetched")

    monkeypatch.setattr(Column, "value_at", forbidden)
    monkeypatch.setattr(Column, "to_pylist", forbidden)
    results = {sql: db.execute(sql) for sql in queries}
    monkeypatch.undo()
    for sql, want in queries.items():
        got = results[sql].scalar()
        assert got == expected[sql]
        if want is not None:
            assert got == want


# -- zone maps ------------------------------------------------------------------------


@pytest.fixture
def clustered():
    """``f.d`` is a day number, sorted (clustered) on load. Zone maps
    belong to the hot-path stack, which ``plan_cache`` switches."""
    db = repro.Database(morsel_rows=4096, plan_cache=True)
    db.execute("CREATE TABLE f (d INTEGER, k INTEGER)")
    db.insert_rows("f", [(i // 10, i % 1000) for i in range(40_000)])
    db.execute("CREATE TABLE keys (x INTEGER)")
    db.insert_rows("keys", [(i,) for i in range(0, 1000, 7)])
    return db


def pruned(analyzed) -> float:
    return analyzed.counters.get("scan_morsels_pruned_total", 0.0)


def test_a_pushed_in_costs_no_pruning(clustered):
    """The IN conjunct is pushed through the projection into the scan
    next to the day filter; the day filter prunes exactly as alone."""
    date_only = clustered.explain_analyze(
        "SELECT count(*) FROM (SELECT d, k FROM f) q WHERE d < 800"
    )
    with_in = clustered.explain_analyze(
        "SELECT count(*) FROM (SELECT d, k FROM f) q WHERE d < 800 "
        "AND k IN (SELECT x FROM keys)"
    )
    assert pruned(date_only) == pruned(with_in) == 8
    assert with_in.result.scalar() == sum(
        1 for i in range(8000) if (i % 1000) % 7 == 0
    )


def test_pruning_cannot_skip_a_subplan_error(clustered):
    # Every morsel is pruned; the subplan still runs, and still raises.
    with pytest.raises(ExecutionError, match="division by zero"):
        clustered.execute(
            "SELECT count(*) FROM f WHERE d < -5 "
            "AND k IN (SELECT 1 / (x - x) FROM keys)"
        )
