"""Zone-map pruning, scan-program shapes, and the CSR cache.

The hot-path contract (docs/performance.md): pruning a morsel or
reusing a cached CSR index may never change a statement's result —
every test here runs the same statement against a hot-path-off twin
(``plan_cache=False`` disables the whole stack) and requires identical
rows, then asserts the counters actually moved (or stayed put, for the
cases where pruning must decline).
"""

import math

import pytest

from repro.api.database import Database
from repro.analytics.csr import csr_cache_clear
from repro.errors import ExecutionError, ReproError
from repro.storage.zonemap import ZONE_ROWS, ScanPruner, build_zone_map


def counter(db, name):
    return db.metrics.snapshot()["counters"].get(name, 0.0)


def pruned(db):
    return counter(db, "scan_morsels_pruned_total")


def make_pair(rows, morsel_rows=ZONE_ROWS, nulls_from=None,
              nan_from=None, workers=None, parallel_threshold=0):
    """(hot, cold) databases over the same ``t(id, v, name)`` data.

    ``id`` ascends 0..rows-1 so zone min/max ranges are disjoint;
    ``nulls_from``/``nan_from`` turn every ``v`` from that id on into
    NULL / NaN (whole trailing zones become all-NULL / all-NaN)."""
    dbs = []
    for plan_cache in (True, False):
        kwargs = dict(
            morsel_rows=morsel_rows,
            profile_operators=False,
            plan_cache=plan_cache,
        )
        if workers is not None:
            kwargs.update(
                workers=workers, parallel_threshold=parallel_threshold
            )
        db = Database(**kwargs)
        db.execute(
            "CREATE TABLE t (id INTEGER, name VARCHAR, v DOUBLE)"
        )

        def value(i):
            if nulls_from is not None and i >= nulls_from:
                return None
            if nan_from is not None and i >= nan_from:
                return math.nan
            return i * 0.5

        db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, f"n{i % 5}", value(i)) for i in range(rows)],
        )
        dbs.append(db)
    return dbs[0], dbs[1]


def check(hot, cold, sql, params=None):
    """Identical rows on both engines; returns the hot-path rows."""
    rows = hot.execute(sql, params).rows
    assert rows == cold.execute(sql, params).rows
    return rows


# ---------------------------------------------------------------------------
# Serial pruning
# ---------------------------------------------------------------------------


def test_point_query_skips_morsels():
    hot, cold = make_pair(5 * ZONE_ROWS)
    assert check(
        hot, cold, "SELECT v FROM t WHERE id = ?", (7,)
    ) == [(3.5,)]
    # id ascends, so four of the five zones cannot contain id = 7.
    assert pruned(hot) == 4.0
    assert pruned(cold) == 0.0


def test_range_predicates_prune_and_match():
    hot, cold = make_pair(4 * ZONE_ROWS)
    n = 4 * ZONE_ROWS
    cases = [
        ("SELECT count(*) FROM t WHERE id < ?", (100,), 100),
        ("SELECT count(*) FROM t WHERE id <= ?", (100,), 101),
        ("SELECT count(*) FROM t WHERE id > ?", (n - 50,), 49),
        ("SELECT count(*) FROM t WHERE id >= ?", (n - 50,), 50),
        ("SELECT count(*) FROM t WHERE ? > id", (3,), 3),
    ]
    for sql, params, expected in cases:
        before = pruned(hot)
        assert check(hot, cold, sql, params) == [(expected,)]
        assert pruned(hot) > before
    assert pruned(cold) == 0.0


def test_conjunction_prunes_by_any_conjunct():
    hot, cold = make_pair(3 * ZONE_ROWS)
    # The VARCHAR conjunct has no zone map; id does the pruning.
    before = pruned(hot)
    rows = check(
        hot, cold,
        "SELECT id FROM t WHERE name = 'n1' AND id < 10 ORDER BY id",
    )
    assert rows == [(1,), (6,)]
    assert pruned(hot) > before


def test_negated_literal_and_or_do_not_misprune():
    hot, cold = make_pair(2 * ZONE_ROWS)
    # OR is one non-prunable conjunct: nothing may be skipped.
    before = pruned(hot)
    check(
        hot, cold,
        "SELECT count(*) FROM t WHERE id < 5 OR id > ?",
        (2 * ZONE_ROWS - 3,),
    )
    assert pruned(hot) == before
    # Negated parameter constants resolve through the unary minus.
    check(hot, cold, "SELECT count(*) FROM t WHERE id < -?", (5,))
    assert pruned(hot) > before


#: One conjunct per kind of node that may raise (or run user code) on
#: data a pruned morsel would never evaluate: each makes the whole
#: predicate refuse zone pruning (``repro.expr.effects.prune_safe``).
UNSAFE_CONJUNCTS = {
    "division": "10 / (id + 1) > 0",
    "cast": "CAST(v AS INTEGER) >= 0",
    "case": "CASE WHEN v > 1 THEN 1 ELSE 0 END >= 0",
    "function": "abs(v) >= 0",
    "like": "name LIKE 'n%'",
    "modulo": "id % 7 >= 0",
    "udf": "same(id) >= 0",
}


@pytest.mark.parametrize("kind", sorted(UNSAFE_CONJUNCTS))
def test_unsafe_predicate_disables_pruning(kind):
    hot, cold = make_pair(2 * ZONE_ROWS)
    for db in (hot, cold):
        db.create_function("same", lambda x: x, "INTEGER")
    before = pruned(hot)
    assert check(
        hot, cold,
        f"SELECT count(*) FROM t WHERE id = 3 AND {UNSAFE_CONJUNCTS[kind]}",
    ) == [(1,)]
    assert pruned(hot) == before


def test_cast_failing_only_in_a_prunable_morsel_still_raises():
    """``id = 3`` alone would prune the morsel holding the one value the
    CAST cannot convert; the statement must raise as if unpruned."""
    rows = 3 * ZONE_ROWS
    dbs = []
    for plan_cache in (True, False):
        db = Database(
            morsel_rows=ZONE_ROWS, profile_operators=False,
            plan_cache=plan_cache,
        )
        db.execute("CREATE TABLE c (id INTEGER, s VARCHAR)")
        db.insert_rows("c", [
            (i, "x" if i == rows - 7 else str(i)) for i in range(rows)
        ])
        dbs.append(db)
    hot, cold = dbs
    sql = "SELECT count(*) FROM c WHERE id = 3 AND CAST(s AS INTEGER) >= 0"
    with pytest.raises(ReproError) as unpruned:
        cold.execute(sql)
    with pytest.raises(type(unpruned.value), match=str(unpruned.value)):
        hot.execute(sql)
    assert hot.execute("SELECT count(*) FROM c WHERE id = 3").rows == [(1,)]
    assert pruned(hot) > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_power_keeps_pruning():
    """``^`` computes in float64 — a negative base or an overflow gives
    NaN or inf, never an error — so it leaves the predicate prunable."""
    hot, cold = make_pair(2 * ZONE_ROWS)
    before = pruned(hot)
    check(
        hot, cold,
        "SELECT count(*) FROM t WHERE id = 3 AND (v - 9.5) ^ 0.5 "
        "+ (id - 1000) ^ 400 IS NOT NULL",
    )
    assert pruned(hot) > before


# ---------------------------------------------------------------------------
# NULL / NaN semantics
# ---------------------------------------------------------------------------


def test_is_null_and_is_not_null_pruning():
    n = 3 * ZONE_ROWS
    hot, cold = make_pair(n, nulls_from=2 * ZONE_ROWS)
    before = pruned(hot)
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v IS NULL"
    ) == [(ZONE_ROWS,)]
    assert pruned(hot) == before + 2  # the two fully-valid zones
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v IS NOT NULL"
    ) == [(2 * ZONE_ROWS,)]
    assert pruned(hot) == before + 3  # + the all-NULL zone


def test_comparisons_never_match_null_zones():
    n = 2 * ZONE_ROWS
    hot, cold = make_pair(n, nulls_from=ZONE_ROWS)
    before = pruned(hot)
    # The all-NULL zone has no finite values: prunable for every
    # comparison, including <>.
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v >= 0.0"
    ) == [(ZONE_ROWS,)]
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v <> 1e9"
    ) == [(ZONE_ROWS,)]
    assert pruned(hot) > before


def test_nan_rows_satisfy_not_equal():
    n = 2 * ZONE_ROWS
    hot, cold = make_pair(n, nan_from=ZONE_ROWS)
    # NaN <> c is True: the NaN zone must NOT be pruned for <>.
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v <> 17.0"
    ) == [(n - 1,)]
    # ...but NaN = c / NaN < c are False: prunable for = and ranges.
    before = pruned(hot)
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v = 17.0"
    ) == [(1,)]
    assert check(
        hot, cold, "SELECT count(*) FROM t WHERE v < 0.0"
    ) == [(0,)]
    assert pruned(hot) > before


# ---------------------------------------------------------------------------
# Invalidation under DML
# ---------------------------------------------------------------------------


def test_inserts_are_visible_through_pruned_plans():
    hot, cold = make_pair(2 * ZONE_ROWS)
    sql = "SELECT count(*) FROM t WHERE id >= ?"
    probe = (10 * ZONE_ROWS,)
    assert check(hot, cold, sql, probe) == [(0,)]
    for db in (hot, cold):
        db.execute(
            "INSERT INTO t VALUES (?, 'x', 1.0)", (10 * ZONE_ROWS,)
        )
    # New table version, new zone maps: the row must appear even
    # though the prior execution pruned this id range away.
    assert check(hot, cold, sql, probe) == [(1,)]
    for db in (hot, cold):
        db.execute("DELETE FROM t WHERE id >= ?", (ZONE_ROWS,))
    assert check(hot, cold, sql, (0,)) == [(ZONE_ROWS,)]


def test_update_rewrites_zone_statistics():
    hot, cold = make_pair(2 * ZONE_ROWS)
    sql = "SELECT count(*) FROM t WHERE v > ?"
    limit = (2.0 * ZONE_ROWS,)
    assert check(hot, cold, sql, limit) == [(0,)]
    for db in (hot, cold):
        db.execute("UPDATE t SET v = v + 100000 WHERE id < 10")
    assert check(hot, cold, sql, limit) == [(10,)]


# ---------------------------------------------------------------------------
# Parallel pool
# ---------------------------------------------------------------------------


def test_parallel_scan_prunes_and_matches_serial():
    hot, cold = make_pair(
        3 * ZONE_ROWS, morsel_rows=1024, workers=4
    )
    assert check(
        hot, cold, "SELECT v FROM t WHERE id = ?", (11,)
    ) == [(5.5,)]
    # Zones are 4096 rows: the morsels of the two foreign zones (four
    # 1024-row morsels each) are pruned; zone 0's morsels are not.
    assert pruned(hot) == 8.0
    # ...and only the four surviving morsels are dispatched.
    assert counter(hot, "exec_morsels_dispatched_total") == 4.0
    check(hot, cold, "SELECT count(*) FROM t WHERE id < 100")
    hot.close()
    cold.close()


def test_parallel_threshold_counts_rows_left_after_pruning():
    hot, cold = make_pair(
        3 * ZONE_ROWS, morsel_rows=1024, workers=4,
        parallel_threshold=2 * ZONE_ROWS,
    )
    check(hot, cold, "SELECT count(*) FROM t WHERE id >= 0")
    assert counter(hot, "exec_parallel_pipelines_total") == 1.0
    # Zone maps keep one zone (4096 rows < threshold): the scan streams
    # its four morsels on the caller thread instead.
    check(hot, cold, "SELECT count(*) FROM t WHERE id < 100")
    assert pruned(hot) == 8.0
    assert counter(hot, "exec_parallel_pipelines_total") == 1.0
    hot.close()
    cold.close()


# ---------------------------------------------------------------------------
# Scan program shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("morsel_rows", [0, -5])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("plan_cache", [True, False])
@pytest.mark.parametrize("profile", [True, False])
def test_degenerate_morsel_rows_clamp_to_one(
    morsel_rows, workers, plan_cache, profile
):
    # Regression: the profiled serial scan computed its own ranges and
    # died with ``range() arg 3 must not be zero`` where the fused path
    # (which went through morsel_ranges) worked.
    with Database(
        morsel_rows=morsel_rows, workers=workers, parallel_threshold=0,
        plan_cache=plan_cache, profile_operators=profile,
    ) as db:
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)")
        db.insert_rows("t", [(i, i * 0.5) for i in range(40)])
        assert db.execute(
            "SELECT id, v * 2 FROM t WHERE id >= 37"
        ).rows == [(37, 37.0), (38, 38.0), (39, 39.0)]


def test_stacked_filters_prune_on_both_predicates_when_profiled():
    # Regression: under profiling only the filter directly on the scan
    # reached the zone maps; the unprofiled path used every leading
    # filter. Filter(Filter(Scan)) is built by hand — the optimizer
    # merges adjacent filters into one conjunction.
    from repro.exec.planner import build_physical
    from repro.plan import logical as lp
    from repro.sql import parse_sql
    from repro.storage.zonemap import split_conjuncts

    hot, _cold = make_pair(4 * ZONE_ROWS)
    lo, hi = ZONE_ROWS + 10, ZONE_ROWS + 20
    txn = hot.txns.begin()
    try:
        plan = hot.pipeline.plan_select(
            parse_sql(
                f"SELECT id FROM t WHERE id >= {lo} AND id < {hi}"
            )[0],
            txn,
        )
        project, merged = plan, plan.child
        assert isinstance(merged, lp.LogicalFilter)
        assert isinstance(merged.child, lp.LogicalScan)
        lower, upper = split_conjuncts(merged.predicate)
        stacked = lp.LogicalProject(
            lp.LogicalFilter(
                lp.LogicalFilter(merged.child, lower), upper
            ),
            project.exprs, project.output,
        )
        ctx = hot.pipeline.exec_context(txn)
        ctx.profile = True
        op = build_physical(stacked, ctx)
        batch = op.execute_materialized(ctx.new_eval_context())
    finally:
        txn.rollback()
    assert len(batch) == 10
    # Each predicate alone leaves two or three zones; together, one.
    assert ctx.stats.morsels_pruned == 3
    assert [root.label for root in ctx.profile_roots] == ["Scan(t)"]


def test_constant_projection_over_filter_keeps_rows():
    # Regression: a projection referencing no columns above a filter
    # must not drop the filter's survivors (the zero-column batch
    # loses its row count).
    hot, cold = make_pair(64, morsel_rows=16, nulls_from=63)
    rows = check(hot, cold, "SELECT 36 AS c0 FROM t WHERE v IS NULL")
    assert rows == [(36,)]


def test_scan_program_chain_matches_with_caches_off():
    hot, cold = make_pair(ZONE_ROWS, morsel_rows=256)
    check(
        hot, cold,
        "SELECT v * 2 AS d, id + 1 FROM t "
        "WHERE id >= ? AND name <> 'n0' ORDER BY id LIMIT 7",
        (50,),
    )
    check(
        hot, cold,
        "SELECT count(*) FROM (SELECT id FROM t WHERE v < 8.0) s "
        "WHERE s.id > 2",
    )


def test_error_ordering_preserved_by_scan_program():
    hot, cold = make_pair(128, morsel_rows=32)
    # Data-dependent errors must surface identically on both paths
    # (division is not prune-safe, so no morsel skipping hides them).
    for db in (hot, cold):
        with pytest.raises(ExecutionError):
            db.execute("SELECT count(*) FROM t WHERE v / id > 0.4")
    # Once the offending row is gone, both engines agree again.
    for db in (hot, cold):
        db.execute("DELETE FROM t WHERE id = 0")
    check(hot, cold, "SELECT count(*) FROM t WHERE v / id > 0.4")


# ---------------------------------------------------------------------------
# CSR cache
# ---------------------------------------------------------------------------


PAGERANK = (
    "SELECT vertex, rank FROM PAGERANK((SELECT src, dest FROM e), "
    "0.85, 0.0, 20) ORDER BY vertex"
)


@pytest.fixture(autouse=True)
def _fresh_csr_cache():
    csr_cache_clear()
    yield
    csr_cache_clear()


def make_graph_db(plan_cache=True):
    db = Database(profile_operators=False, plan_cache=plan_cache)
    db.execute("CREATE TABLE e (src INTEGER, dest INTEGER)")
    db.executemany(
        "INSERT INTO e VALUES (?, ?)",
        [(i, (i + 1) % 50) for i in range(50)]
        + [((i + 1) % 50, i) for i in range(50)],
    )
    return db


def test_csr_cache_hits_and_dml_invalidation():
    db = make_graph_db()
    first = db.execute(PAGERANK).rows
    assert counter(db, "analytics_csr_cache_misses_total") == 1.0
    second = db.execute(PAGERANK).rows
    assert second == first
    assert counter(db, "analytics_csr_cache_hits_total") == 1.0
    # DML produces a new table version: the cached CSR must not serve.
    db.execute("INSERT INTO e VALUES (0, 25)")
    db.execute("INSERT INTO e VALUES (25, 0)")
    third = db.execute(PAGERANK).rows
    assert counter(db, "analytics_csr_cache_misses_total") == 2.0
    assert third != first
    # The post-DML result matches a cold engine over the same edges.
    cold = make_graph_db(plan_cache=False)
    cold.execute("INSERT INTO e VALUES (0, 25)")
    cold.execute("INSERT INTO e VALUES (25, 0)")
    assert cold.execute(PAGERANK).rows == third
    assert counter(cold, "analytics_csr_cache_hits_total") == 0.0
    assert counter(cold, "analytics_csr_cache_misses_total") == 0.0


def test_csr_cache_weight_lambda_keying():
    db = Database(profile_operators=False, plan_cache=True)
    db.execute("CREATE TABLE e (src INTEGER, dest INTEGER, w FLOAT)")
    db.executemany(
        "INSERT INTO e VALUES (?, ?, ?)",
        [(0, 1, 1.0), (0, 2, 10.0), (1, 0, 1.0), (2, 0, 1.0)],
    )
    weighted = (
        "SELECT vertex, rank FROM PAGERANK("
        "(SELECT src, dest, w FROM e), 0.85, 0.0, 60, "
        "LAMBDA(edge) edge.w) ORDER BY vertex"
    )
    unweighted = (
        "SELECT vertex, rank FROM PAGERANK("
        "(SELECT src, dest FROM e), 0.85, 0.0, 60) ORDER BY vertex"
    )
    a1 = db.execute(weighted).rows
    b1 = db.execute(unweighted).rows
    # Distinct keys (the weight lambda is part of the fingerprint):
    # both are cold, and neither may serve the other's graph.
    assert counter(db, "analytics_csr_cache_misses_total") == 2.0
    assert db.execute(weighted).rows == a1
    assert db.execute(unweighted).rows == b1
    assert counter(db, "analytics_csr_cache_hits_total") == 2.0
    ranks = dict(a1)
    assert ranks[2] > ranks[1]


# ---------------------------------------------------------------------------
# Unit level
# ---------------------------------------------------------------------------


def test_build_zone_map_statistics():
    db = Database(profile_operators=False)
    db.execute("CREATE TABLE z (x DOUBLE)")
    db.executemany(
        "INSERT INTO z VALUES (?)",
        [(float(i),) for i in range(100)] + [(None,)] * 5,
    )
    txn = db.txns.begin()
    try:
        column = txn.read("z").column_by_name("x")
        zones = build_zone_map(column, zone_rows=64)
    finally:
        txn.rollback()
    assert zones.n_zones == 2
    assert zones.mins[0] == 0.0 and zones.maxs[0] == 63.0
    assert zones.mins[1] == 64.0 and zones.maxs[1] == 99.0
    assert zones.null_counts.tolist() == [0, 5]
    assert zones.valid_counts.tolist() == [64, 36]


def test_scan_pruner_inactive_without_usable_conjuncts():
    db = Database(profile_operators=False)
    db.execute("CREATE TABLE z (x DOUBLE)")
    db.execute("INSERT INTO z VALUES (1.0)")
    result = db.execute("SELECT x AS only FROM z WHERE x + x > 0.5")
    assert result.rows == [(1.0,)]
    # x + x is no `col <op> const` shape: the pruner stays inactive.
    pruner = ScanPruner([], [])
    assert not pruner.active
    txn = db.txns.begin()
    try:
        data = txn.read("z")
    finally:
        txn.rollback()
    ranges = [(0, 1)]
    assert pruner.keep_ranges(data, ranges) == ([(0, 1)], 0)
