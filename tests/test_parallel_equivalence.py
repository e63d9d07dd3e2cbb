"""Serial-equivalence battery for morsel-driven parallel execution.

The determinism contract (``docs/parallelism.md``): for any statement
and any analytics workload, ``workers=1`` and ``workers=N`` produce
bit-identical results — morsel/chunk boundaries depend only on data
size, dispatch is ordered, and merges fold partials in chunk order.
These tests enforce the contract three ways: a differential corpus of
generated SQL, the three paper workloads (rows *and* convergence
telemetry), and direct multi-chunk checks of the partial-aggregate,
k-Means, and SpMV reductions.
"""

import numpy as np
import pytest

import repro
from repro.analytics.csr import SPMV_CHUNK_VERTICES, CSRGraph
from repro.analytics.kmeans import kmeans
from repro.datagen.graphs import generate_social_graph, load_edge_table
from repro.datagen.vectors import (
    feature_names,
    load_centers_table,
    load_vector_table,
)
from repro.errors import ReproError
from repro.exec.parallel import (
    WorkerPool,
    partial_grouped_aggregate,
)
from repro.storage.column import Column
from repro.testing.generator import QueryGenerator
from repro.testing.oracle import build_repro_db, normalize_rows
from repro.types import BIGINT, DOUBLE

#: The parallel session used throughout: 4 workers, no cardinality
#: threshold, and tiny morsels, so even test-sized tables genuinely
#: dispatch multi-morsel pipelines.
PARALLEL_KWARGS = dict(workers=4, parallel_threshold=0, morsel_rows=32)


def _run_normalized(db, sql: str, ordered: bool):
    """("ok", rows) or ("error", exception type name)."""
    try:
        return "ok", normalize_rows(db.execute(sql).rows, ordered)
    except (ReproError, OverflowError, ValueError) as exc:
        return "error", type(exc).__name__


# ---------------------------------------------------------------------------
# Differential corpus: generated SQL, serial vs parallel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_generated_queries_identical_across_worker_counts(seed):
    generator = QueryGenerator(seed)
    tables = generator.schema()
    serial = build_repro_db(tables, workers=1)
    parallel = build_repro_db(tables, workers=4)
    try:
        for index in range(3):
            query = generator.query(tables)
            sql = query.to_sql()
            expected = _run_normalized(serial, sql, query.ordered)
            got = _run_normalized(parallel, sql, query.ordered)
            assert got == expected, (
                f"seed={seed} query={index} diverged between "
                f"workers=1 and workers=4:\n{sql}"
            )
    finally:
        parallel.close()
        serial.close()


# ---------------------------------------------------------------------------
# The three workloads: rows and convergence telemetry
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def db_pair():
    serial = repro.Database(workers=1)
    parallel = repro.Database(**PARALLEL_KWARGS)
    yield serial, parallel
    parallel.close()
    serial.close()


def _rows_both(db_pair, loader, sql):
    serial, parallel = db_pair
    results = []
    for db in (serial, parallel):
        loader(db)
        results.append(db.execute(sql))
    return results


def test_kmeans_workload_equivalence(db_pair):
    feats = feature_names(3)
    sql = (
        f"SELECT cluster, {', '.join(feats)} FROM KMEANS("
        f"(SELECT {', '.join(feats)} FROM data), "
        f"(SELECT {', '.join(feats)} FROM centers), 4) ORDER BY cluster"
    )

    def loader(db):
        columns = load_vector_table(db, "data", 900, 3, seed=11)
        load_centers_table(db, "centers", columns, 5, seed=13)

    serial_res, parallel_res = _rows_both(db_pair, loader, sql)
    assert normalize_rows(parallel_res.rows, False) == normalize_rows(
        serial_res.rows, False
    )
    s_tel = serial_res.telemetry["kmeans"]
    p_tel = parallel_res.telemetry["kmeans"]
    assert p_tel["iterations"] == s_tel["iterations"]
    assert p_tel["inertia"] == pytest.approx(
        s_tel["inertia"], abs=1e-9
    )
    assert p_tel["center_shift"] == pytest.approx(
        s_tel["center_shift"], abs=1e-9
    )


def test_pagerank_workload_equivalence(db_pair):
    sql = (
        "SELECT vertex, rank FROM PAGERANK("
        "(SELECT src, dest FROM edges), 0.85, 0.0, 8) ORDER BY vertex"
    )

    def loader(db):
        load_edge_table(db, "edges", 150, 1700, seed=17)

    serial_res, parallel_res = _rows_both(db_pair, loader, sql)
    assert normalize_rows(parallel_res.rows, True) == normalize_rows(
        serial_res.rows, True
    )
    s_tel = serial_res.telemetry["pagerank"]
    p_tel = parallel_res.telemetry["pagerank"]
    assert p_tel["iterations"] == s_tel["iterations"]
    assert p_tel["residual_l1"] == pytest.approx(
        s_tel["residual_l1"], abs=1e-9
    )


def test_naive_bayes_workload_equivalence(db_pair):
    feats = feature_names(3)
    sql = (
        "SELECT class, attribute, prior, mean, stddev "
        "FROM NAIVE_BAYES_TRAIN("
        f"(SELECT label, {', '.join(feats)} FROM train)) "
        "ORDER BY class, attribute"
    )

    def loader(db):
        load_vector_table(db, "train", 700, 3, seed=19, with_label=True)

    serial_res, parallel_res = _rows_both(db_pair, loader, sql)
    assert normalize_rows(parallel_res.rows, True) == normalize_rows(
        serial_res.rows, True
    )
    s_tel = serial_res.telemetry["naive_bayes"]
    p_tel = parallel_res.telemetry["naive_bayes"]
    assert p_tel["classes"] == s_tel["classes"]
    assert p_tel["class_counts"] == s_tel["class_counts"]
    assert p_tel["priors"] == pytest.approx(s_tel["priors"], abs=1e-9)


# ---------------------------------------------------------------------------
# One scan operator: plan shape and rows are invariant under
# profile_operators x plan_cache x workers; only dispatch differs, and
# it is visible in the counters
# ---------------------------------------------------------------------------

#: 3,200 rows at 32-row morsels = 100 morsels of ``t``; ``e`` is empty.
SCAN_ROWS = 3_200

SCAN_SHAPES = {
    "bare": "SELECT a, b, s FROM t",
    "filter": "SELECT a, b FROM t WHERE a % 7 = 3",
    "project": "SELECT a + 1, b * 2.0, upper(s) FROM t",
    "filter_project_filter": (
        "SELECT x, y FROM (SELECT a * 2 AS x, b + 1.0 AS y FROM t "
        "WHERE a > 40) q WHERE x % 3 = 0"
    ),
    "zero_column": "SELECT 1 FROM t WHERE a > 3100",
    "count_over_filter": "SELECT count(*) FROM t WHERE b < 0.25",
    "all_pruned": "SELECT a, s FROM t WHERE a > 1000000",
    "empty_table": "SELECT a + 1 FROM e WHERE a > 0",
    "udf_predicate": "SELECT a FROM t WHERE is_even(a)",
    "subquery_predicate": (
        "SELECT a FROM t WHERE a > (SELECT max(a) - 50 FROM t)"
    ),
    "limit_one": "SELECT a FROM t LIMIT 1",
}


def _scan_db(**kwargs):
    db = repro.Database(morsel_rows=32, **kwargs)
    db.execute("CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)")
    db.load_columns(
        "t",
        {
            "a": np.arange(SCAN_ROWS, dtype=np.int32),
            "b": np.linspace(0.0, 1.0, SCAN_ROWS),
            "s": np.array(
                [f"s{i % 11}" for i in range(SCAN_ROWS)], dtype=object
            ),
        },
    )
    db.execute("CREATE TABLE e (a INTEGER)")
    db.create_function("is_even", lambda v: v % 2 == 0, "BOOLEAN")
    return db


@pytest.fixture(scope="module")
def scan_dbs():
    """The 8 configurations, keyed (profile, plan_cache, workers)."""
    dbs = {
        (profile, cache, workers): _scan_db(
            profile_operators=profile, plan_cache=cache,
            workers=workers, parallel_threshold=0,
        )
        for profile in (True, False)
        for cache in (True, False)
        for workers in (1, 4)
    }
    yield dbs
    for db in dbs.values():
        db.close()


def _dispatch_delta(db, sql):
    """(rows, parallel pipelines, morsels dispatched) of one execute."""
    names = (
        "exec_parallel_pipelines_total", "exec_morsels_dispatched_total",
    )
    before = db.metrics.snapshot()["counters"]
    rows = db.execute(sql).rows
    after = db.metrics.snapshot()["counters"]
    return (rows, *(after.get(n, 0) - before.get(n, 0) for n in names))


@pytest.mark.parametrize("shape", sorted(SCAN_SHAPES))
def test_scan_rows_identical_in_every_configuration(scan_dbs, shape):
    sql = SCAN_SHAPES[shape]
    expected = None
    for (profile, cache, workers), db in scan_dbs.items():
        for _attempt in range(2):  # cold, then plan-cached
            rows, pipelines, morsels = _dispatch_delta(db, sql)
            if expected is None:
                expected = rows
            assert rows == expected, (shape, profile, cache, workers)
            if workers == 1:
                assert (pipelines, morsels) == (0, 0)
    assert len(expected) == {
        "bare": SCAN_ROWS, "zero_column": 99, "count_over_filter": 1,
        "all_pruned": 0, "empty_table": 0, "limit_one": 1,
        "udf_predicate": SCAN_ROWS // 2, "subquery_predicate": 50,
    }.get(shape, len(expected))


def _describe_tree(op):
    """``describe()`` of an operator and, recursively, of every operator
    it holds — seen through any ``ProfiledOperator`` wrapper."""
    from repro.exec.physical import PhysicalOperator, ProfiledOperator

    if isinstance(op, ProfiledOperator):
        op = op.inner
    held = []
    for value in vars(op).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, PhysicalOperator):
                held.append(_describe_tree(item))
    return (op.describe(), held)


@pytest.mark.parametrize("shape", sorted(SCAN_SHAPES))
def test_operator_tree_does_not_depend_on_profiling(scan_dbs, shape):
    from repro.exec.planner import build_physical
    from repro.sql import parse_sql

    trees = []
    for key in ((True, True, 1), (False, True, 1), (True, False, 4)):
        db = scan_dbs[key]
        txn = db.txns.begin()
        try:
            plan = db.pipeline.plan_select(
                parse_sql(SCAN_SHAPES[shape])[0], txn
            )
            for profile in (True, False):
                ctx = db.pipeline.exec_context(txn)
                ctx.profile = profile
                trees.append(_describe_tree(build_physical(plan, ctx)))
        finally:
            txn.rollback()
    assert all(tree == trees[0] for tree in trees), trees
    # Every leaf over a base table is the one scan operator, and no
    # Filter/Project survives directly above it.
    def check(node):
        label, held = node
        for child in held:
            if label == "Filter" or label.startswith("Project("):
                assert not child[0].startswith("Scan("), trees[0]
            check(child)

    check(trees[0])


def test_dispatch_follows_what_the_scan_observes(scan_dbs):
    parallel = scan_dbs[(True, True, 4)]
    # 100 morsels, thread-safe expressions: dispatched to the pool.
    _rows, pipelines, morsels = _dispatch_delta(
        parallel, SCAN_SHAPES["project"]
    )
    assert (pipelines, morsels) == (1, 100)
    analyzed = parallel.explain_analyze(SCAN_SHAPES["project"])
    assert analyzed.root.label == "Scan(t)"
    assert analyzed.counters["exec_parallel_pipelines_total"] == 1
    assert analyzed.counters["exec_morsels_dispatched_total"] == 100
    # A UDF pins the scan to the caller thread.
    assert _dispatch_delta(
        parallel, SCAN_SHAPES["udf_predicate"]
    )[1:] == (0, 0)
    # Everything pruned / empty table: nothing to dispatch.
    for shape in ("all_pruned", "empty_table"):
        assert _dispatch_delta(parallel, SCAN_SHAPES[shape])[1:] == (0, 0)


def test_threshold_keeps_small_scans_serial():
    with _scan_db(workers=4, parallel_threshold=SCAN_ROWS + 1) as db:
        assert _dispatch_delta(db, SCAN_SHAPES["project"])[1:] == (0, 0)
    with _scan_db(workers=4, parallel_threshold=SCAN_ROWS) as db:
        assert _dispatch_delta(db, SCAN_SHAPES["project"])[1:] == (1, 100)


@pytest.mark.parametrize("profile", [True, False])
def test_limit_stops_the_serial_scan_early(scan_dbs, profile):
    """Streaming kept: LIMIT 1 over a 100-morsel table pulls at most
    two morsels from the lazy serial scan."""
    db = scan_dbs[(profile, True, 1)]
    analyzed = db.explain_analyze(SCAN_SHAPES["limit_one"])
    scan = analyzed.find("Scan(t)")
    assert scan.batches_out <= 2
    assert analyzed.governor["checkpoints"] <= 2
    assert analyzed.result.rows == [(0,)]


def test_parallel_session_emits_morsel_counters():
    with repro.Database(**PARALLEL_KWARGS) as db:
        db.execute("CREATE TABLE t (a BIGINT)")
        db.load_columns("t", {"a": np.arange(400, dtype=np.int64)})
        db.execute("SELECT a FROM t WHERE a >= 0")
        counters = db.metrics.snapshot()["counters"]
        assert counters.get("exec_parallel_pipelines_total", 0) >= 1
        # 400 rows / 32-row morsels = 13 morsels dispatched.
        assert counters.get("exec_morsels_dispatched_total", 0) >= 13
        per_worker = sum(
            value
            for series, value in counters.items()
            if series.startswith("parallel_morsels_total")
        )
        assert per_worker >= 13


# ---------------------------------------------------------------------------
# Worker-count plumbing
# ---------------------------------------------------------------------------


def test_repro_workers_env_is_respected(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    db = repro.Database()
    try:
        assert db.workers == 3
        assert db.pool.workers == 3
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Direct multi-chunk reductions (the fixed merge order, exercised)
# ---------------------------------------------------------------------------


def _pools():
    return WorkerPool(1), WorkerPool(4)


def test_partial_aggregate_multi_chunk_is_worker_independent():
    rng = np.random.default_rng(23)
    n, n_groups = 10_000, 7
    codes = rng.integers(0, n_groups, size=n).astype(np.int64)
    doubles = Column(
        rng.normal(size=n), DOUBLE, rng.random(n) > 0.1
    )
    ints = Column(
        rng.integers(-50, 50, size=n).astype(np.int64),
        BIGINT,
        rng.random(n) > 0.1,
    )
    serial_pool, parallel_pool = _pools()
    try:
        for func, col in [
            ("sum", doubles), ("avg", doubles), ("min", doubles),
            ("max", doubles), ("sum", ints), ("count", ints),
        ]:
            expected = partial_grouped_aggregate(
                func, col, codes, n_groups, serial_pool, chunk_rows=256
            )
            got = partial_grouped_aggregate(
                func, col, codes, n_groups, parallel_pool,
                chunk_rows=256,
            )
            assert expected is not None and got is not None
            assert np.array_equal(got.values, expected.values), func
            assert np.array_equal(
                got.validity(), expected.validity()
            ), func
    finally:
        parallel_pool.shutdown()
        serial_pool.shutdown()


def test_partial_sum_matches_plain_numpy_per_group():
    rng = np.random.default_rng(29)
    n, n_groups = 5_000, 4
    codes = rng.integers(0, n_groups, size=n).astype(np.int64)
    values = rng.integers(0, 1000, size=n).astype(np.int64)
    col = Column(values, BIGINT)
    pool = WorkerPool(4)
    try:
        got = partial_grouped_aggregate(
            "sum", col, codes, n_groups, pool, chunk_rows=128
        )
        expected = np.bincount(
            codes, weights=values, minlength=n_groups
        ).astype(np.int64)
        assert np.array_equal(got.values, expected)
    finally:
        pool.shutdown()


def test_kmeans_multi_chunk_rounds_are_worker_independent():
    # 140k tuples crosses the fixed 131 072-row update-chunk size, so
    # every round genuinely merges two partial states per pool.
    rng = np.random.default_rng(31)
    points = rng.random((140_000, 2))
    seeds = points[:4].copy()
    serial_pool, parallel_pool = _pools()
    serial_tel, parallel_tel = [], []
    try:
        s_centers, s_assign, s_sizes, s_iters = kmeans(
            points, seeds, max_iterations=3, telemetry=serial_tel,
            pool=serial_pool,
        )
        p_centers, p_assign, p_sizes, p_iters = kmeans(
            points, seeds, max_iterations=3, telemetry=parallel_tel,
            pool=parallel_pool,
        )
    finally:
        parallel_pool.shutdown()
        serial_pool.shutdown()
    assert p_iters == s_iters
    assert np.array_equal(p_centers, s_centers)
    assert np.array_equal(p_assign, s_assign)
    assert np.array_equal(p_sizes, s_sizes)
    assert [r["inertia"] for r in parallel_tel] == [
        r["inertia"] for r in serial_tel
    ]


def test_spmv_multi_chunk_gather_is_bit_identical():
    # More vertices than one SpMV chunk; chunk edges land on CSR
    # segment boundaries, so the parallel gather must equal the
    # whole-array reduceat exactly.
    n_vertices = SPMV_CHUNK_VERTICES + 4_096
    src, dst = generate_social_graph(n_vertices, 3 * n_vertices, seed=37)
    graph = CSRGraph.from_edges(src, dst)
    per_source = np.random.default_rng(41).random(graph.n_vertices)
    pool = WorkerPool(4)
    try:
        parallel_sums = graph.gather_incoming(per_source, pool=pool)
    finally:
        pool.shutdown()
    serial_sums = graph.gather_incoming(per_source)
    assert np.array_equal(parallel_sums, serial_sums)


def test_large_grouped_sql_aggregate_identical_across_workers():
    # Past PARTIAL_CHUNK_ROWS the SQL path itself goes multi-chunk;
    # both sessions fold the same chunks in the same order.
    rng = np.random.default_rng(43)
    n = 150_000
    columns = {
        "g": rng.integers(0, 11, size=n).astype(np.int64),
        "x": rng.normal(size=n),
    }
    sql = (
        "SELECT g, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) "
        "FROM big GROUP BY g ORDER BY g"
    )
    results = []
    for kwargs in (dict(workers=1), PARALLEL_KWARGS):
        with repro.Database(**kwargs) as db:
            db.execute("CREATE TABLE big (g BIGINT, x DOUBLE)")
            db.load_columns("big", columns)
            results.append(db.execute(sql).rows)
    assert results[0] == results[1]
