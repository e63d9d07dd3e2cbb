"""Adaptive query optimization: bounded top-N sort, limit pushdown and
the statistics-backed cardinality estimator.

The top-N contract is *bit-identity*: for any ORDER BY + LIMIT
statement, the fused bounded sort must return exactly the rows — in
exactly the order, ties resolved identically — that the full
sort-then-limit pipeline returns, across serial/parallel execution and
raw/encoded storage.
"""

import pytest

from repro.api.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.plan import logical as lp
from repro.plan.cardinality import CardinalityEstimator
from repro.plan.logical import PlanColumn


def counter(db, name):
    return db.metrics.snapshot()["counters"].get(name, 0.0)


ROWS = [
    # Deliberate ties in both b (groups of 4) and a (pairs), plus NULLs
    # sprinkled in every column the queries sort on.
    (
        i,
        None if i % 11 == 0 else (i // 2) % 10,
        None if i % 13 == 0 else f"s{(i // 4) % 5}",
        float(i % 7) + 0.25,
    )
    for i in range(120)
]

QUERIES = [
    "SELECT id, a, b FROM t ORDER BY a LIMIT 10",
    "SELECT id, a, b FROM t ORDER BY a DESC LIMIT 10",
    "SELECT id, a, b FROM t ORDER BY a NULLS FIRST LIMIT 10",
    "SELECT id, a, b FROM t ORDER BY a DESC NULLS LAST LIMIT 10",
    "SELECT id, a, b FROM t ORDER BY b, a DESC, id LIMIT 17 OFFSET 3",
    "SELECT id, a, b FROM t ORDER BY b DESC, a LIMIT 5 OFFSET 0",
    "SELECT id, b FROM t ORDER BY b LIMIT 0",          # LIMIT 0
    "SELECT id, b FROM t ORDER BY b LIMIT 5 OFFSET 500",  # offset past end
    "SELECT id, b FROM t ORDER BY b LIMIT 500",        # k >= n
    "SELECT id, c FROM t ORDER BY c, id DESC LIMIT 8",
    "SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY n DESC, a LIMIT 4",
]


def _make_db(**kwargs):
    db = Database(**kwargs)
    db.execute(
        "CREATE TABLE t (id INTEGER, a INTEGER, b VARCHAR, c DOUBLE)"
    )
    db.insert_rows("t", ROWS)
    return db


class TestTopNBitIdentity:
    def test_topn_matches_full_sort_exactly(self):
        fused = _make_db(topn=True)
        full = _make_db(topn=False)
        for sql in QUERIES:
            assert fused.execute(sql).rows == full.execute(sql).rows, sql

    def test_matrix_serial_parallel_raw_encoded(self):
        # {top-N, full sort} x {serial, parallel} x {raw, encoded}: all
        # eight configurations must agree row-for-row.
        reference = None
        configs = [
            dict(topn=topn, encoding=encoding, **workers)
            for topn in (True, False)
            for encoding in ("raw", "auto")
            for workers in (
                dict(workers=1),
                dict(workers=4, parallel_threshold=0, morsel_rows=32),
            )
        ]
        for config in configs:
            db = _make_db(profile_operators=False, **config)
            rows = [db.execute(sql).rows for sql in QUERIES]
            if reference is None:
                reference = rows
            else:
                assert rows == reference, config
            db.close()

    def test_fusion_visible_and_counted(self):
        db = _make_db()
        before = counter(db, "sort_topn_used_total")
        analyzed = db.explain_analyze(
            "SELECT id FROM t ORDER BY a LIMIT 3"
        )
        assert analyzed.find("TopNSort") is not None
        assert len(analyzed.result) == 3
        assert counter(db, "sort_topn_used_total") > before

    def test_switch_disables_fusion(self):
        db = _make_db(topn=False)
        analyzed = db.explain_analyze(
            "SELECT id FROM t ORDER BY a LIMIT 3"
        )
        assert analyzed.find("TopNSort") is None
        assert analyzed.find("Sort") is not None


class TestLimitPushdownAndEarlyExit:
    def test_limit_early_exit_stops_scanning(self):
        # With 8-row morsels and LIMIT 5, the limit must stop pulling
        # long before the scan has produced all 400 rows.
        db = Database(morsel_rows=8)
        db.execute("CREATE TABLE big (x INTEGER)")
        db.insert_rows("big", [(i,) for i in range(400)])
        analyzed = db.explain_analyze("SELECT x FROM big LIMIT 5")
        scan = analyzed.find("Scan(big)")
        assert len(analyzed.result) == 5
        assert scan.rows_out < 400

    def test_limit_pushes_through_projection(self):
        db = _make_db()
        before = counter(db, "limit_pushdown_total")
        rows = db.execute("SELECT id FROM t LIMIT 7").rows
        assert len(rows) == 7
        assert counter(db, "limit_pushdown_total") > before

    def test_limit_caps_union_all_branches(self):
        db = _make_db()
        before = counter(db, "limit_pushdown_total")
        rows = db.execute(
            "SELECT id FROM t UNION ALL SELECT id FROM t LIMIT 9"
        ).rows
        assert len(rows) == 9
        assert counter(db, "limit_pushdown_total") > before

    def test_limit_pushdown_preserves_rows_vs_disabled_paths(self):
        # The pushdown may only relocate work, never change output:
        # compare against the full-sort twin which plans identically at
        # the logical level (pushdown applies to both, so also compare
        # with hand-computed prefixes).
        db = _make_db()
        rows = db.execute(
            "SELECT id FROM t UNION ALL SELECT id FROM t LIMIT 9"
        ).rows
        assert rows == [(i,) for i in range(9)]

    def test_limit_not_pushed_below_filter(self):
        # A filter is not row-preserving: LIMIT above it must see
        # post-filter rows.
        db = _make_db()
        rows = db.execute(
            "SELECT id FROM t WHERE a = 3 LIMIT 4"
        ).rows
        assert len(rows) == 4
        ids = [r[0] for r in rows]
        assert all((i // 2) % 10 == 3 and i % 11 != 0 for i in ids)


class TestStatisticsEstimates:
    def test_equality_on_dictionary_column_uses_stats(self):
        # Dictionary NDV only exists with encoded storage, so pin the
        # encoding rather than inherit REPRO_ENCODING (the third
        # `make test` leg forces raw).
        db = _make_db(encoding="auto")
        text = db.explain("SELECT id FROM t WHERE b = 's1'")
        assert "src=stats" in text

    def test_range_on_integer_uses_stats(self):
        db = _make_db()
        text = db.explain("SELECT id FROM t WHERE id > 100")
        assert "src=stats" in text

    def test_is_null_uses_stats(self):
        db = _make_db()
        text = db.explain("SELECT id FROM t WHERE a IS NULL")
        assert "src=stats" in text

    def test_scan_estimate_is_static_catalog_count(self):
        db = _make_db()
        text = db.explain("SELECT id FROM t")
        assert "est=120" in text

    def test_range_estimate_interpolates(self):
        # id is uniform on [0, 119]; id > 100 should estimate ~19 rows,
        # far from the static 30% guess (36) and the old flat fallback.
        db = _make_db()
        analyzed = db.explain_analyze("SELECT id FROM t WHERE id > 100")
        scan = analyzed.find("Scan(t)")
        assert scan is not None
        assert scan.estimated_rows is not None
        assert abs(scan.estimated_rows - 19) <= 3

    def test_out_of_range_literal_estimates_zero(self):
        db = _make_db()
        analyzed = db.explain_analyze(
            "SELECT id FROM t WHERE id = 100000"
        )
        assert analyzed.find("Scan(t)").estimated_rows == 0

    def test_scan_miss_counter_and_fallback(self):
        def missing(_name):
            raise KeyError("no such table")

        metrics = MetricsRegistry()
        estimator = CardinalityEstimator(missing, metrics=metrics)
        scan = lp.LogicalScan(
            table_name="ghost",
            output=[PlanColumn("x", "x", None)],
        )
        assert estimator.estimate(scan) == 1000.0
        snapshot = metrics.snapshot()["counters"]
        assert snapshot.get("cardinality_stats_miss_total", 0.0) >= 1.0


def _skewed_join_db(**kwargs):
    """A join whose static estimate is badly wrong: v = 1.0 matches
    ~95% of big (static equality guess: 10%)."""
    db = Database(plan_cache=True, **kwargs)
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
    db.insert_rows(
        "big",
        [
            (i % 500, 1.0 if i % 20 != 0 else i + 0.5)
            for i in range(4000)
        ],
    )
    db.execute("CREATE TABLE small (k INTEGER)")
    db.insert_rows("small", [(i,) for i in range(500)])
    return db


SKEWED_JOIN_SQL = (
    "SELECT count(*) FROM big JOIN small ON big.k = small.k "
    "WHERE big.v = 1.0"
)


class TestSmallBuildJoinFastPath:
    """The raw-integer-key join path (build side <= SMALL_BUILD_ROWS)
    must produce exactly the rows, in exactly the order, of the joint
    factorization path it bypasses."""

    JOIN_QUERIES = [
        "SELECT f.id, f.k, d.tag FROM fact f JOIN dim d ON f.k = d.k",
        "SELECT f.id, d.tag FROM fact f LEFT JOIN dim d ON f.k = d.k",
        "SELECT count(*), sum(f.id) FROM fact f JOIN dim d ON f.k = d.k",
        "SELECT d.tag, count(*) AS n FROM fact f JOIN dim d "
        "ON f.k = d.k GROUP BY d.tag ORDER BY n DESC, d.tag LIMIT 3",
    ]

    @staticmethod
    def _join_db(**kwargs):
        db = Database(**kwargs)
        db.execute("CREATE TABLE fact (id INTEGER, k BIGINT)")
        # Duplicates (k repeats), NULL keys, and keys with no dim match.
        db.insert_rows(
            "fact",
            [
                (i, None if i % 17 == 0 else (i * 31) % 40)
                for i in range(300)
            ],
        )
        db.execute("CREATE TABLE dim (k INTEGER, tag VARCHAR)")
        db.insert_rows(
            "dim",
            [(k, f"tag{k % 4}") for k in range(0, 30)]
            + [(None, "nulltag")],
        )
        return db

    def test_fast_path_bit_identical_to_factorize(self, monkeypatch):
        fast = self._join_db()
        slow = self._join_db()
        expected = {
            sql: fast.execute(sql).rows for sql in self.JOIN_QUERIES
        }
        # Force the factorize path on the twin regardless of build size.
        import repro.exec.join as join_mod
        monkeypatch.setattr(join_mod, "_raw_int_keys", lambda *_: None)
        for sql in self.JOIN_QUERIES:
            assert slow.execute(sql).rows == expected[sql], sql

    def test_fast_path_parallel_matches_serial(self):
        serial = self._join_db(workers=1)
        parallel = self._join_db(
            workers=4, parallel_threshold=0, morsel_rows=32
        )
        for sql in self.JOIN_QUERIES:
            assert (
                parallel.execute(sql).rows == serial.execute(sql).rows
            ), sql

    def test_fast_path_rejects_varchar_and_multi_key(self):
        # VARCHAR keys and composite keys must keep the factorize path;
        # this is a behavioural check that they still join correctly.
        db = Database()
        db.execute("CREATE TABLE a (s VARCHAR, x INTEGER)")
        db.insert_rows("a", [(f"s{i % 5}", i) for i in range(50)])
        db.execute("CREATE TABLE b (s VARCHAR)")
        db.insert_rows("b", [(f"s{i}",) for i in range(3)])
        rows = db.execute(
            "SELECT count(*) FROM a JOIN b ON a.s = b.s"
        ).rows
        assert rows == [(30,)]


class TestExplain:
    def test_explain_statement_and_method_print_the_same_plan(self):
        # The EXPLAIN statement (the only form a remote client has)
        # must print what db.explain prints: same estimates, same join
        # sides, also after the statement has run and been cached.
        db = _skewed_join_db()
        db.execute(SKEWED_JOIN_SQL)
        db.execute(SKEWED_JOIN_SQL)
        method = db.explain(SKEWED_JOIN_SQL)
        statement = "\n".join(
            row[0] for row in db.execute("EXPLAIN " + SKEWED_JOIN_SQL).rows
        )
        assert statement == method

    def test_repeated_executions_leave_the_plan_alone(self):
        # A plan comes from the statement and the catalog alone: running
        # it does not move an estimate or a join side, and every repeat
        # is served from the plan cache.
        db = _skewed_join_db()
        before = db.explain(SKEWED_JOIN_SQL)
        expected = db.execute(SKEWED_JOIN_SQL).rows
        hits = counter(db, "exec_plan_cache_hits_total")
        for _ in range(3):
            assert db.execute(SKEWED_JOIN_SQL).rows == expected
        assert counter(db, "exec_plan_cache_hits_total") == hits + 3
        assert db.explain(SKEWED_JOIN_SQL) == before
        assert "src=static" in before or "src=stats" in before
