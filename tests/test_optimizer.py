"""Optimizer rules: plan shapes and optimized/unoptimized equivalence."""

import gc
import pathlib
import types

import pytest

import repro
from repro.expr import bound as b
from repro.plan import logical as lp
from repro.plan import rules
from repro.sql.parser import parse_statement
from repro.testing import tpch
from repro.testing.oracle import build_repro_db
from repro.types import BOOLEAN
from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)

BATTERY = pathlib.Path(__file__).parent / "sql_battery"


def plan_of(db, sql):
    statement = parse_statement(sql)
    txn = db.txns.begin()
    try:
        return db.pipeline.plan_select(statement, txn)
    finally:
        txn.rollback()


def find_nodes(plan, node_type):
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            out.append(node)
        stack.extend(node.children())
    return out


@pytest.fixture
def schema_db(db):
    db.execute("CREATE TABLE big (k INTEGER, a INTEGER, b VARCHAR)")
    db.execute("CREATE TABLE small (k INTEGER, c INTEGER)")
    db.insert_rows("big", [(i, i * 2, f"s{i}") for i in range(100)])
    db.insert_rows("small", [(i, i) for i in range(5)])
    return db


class TestPredicatePushdown:
    def test_filter_reaches_scan_side_of_join(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM big JOIN small ON big.k = small.k "
            "WHERE big.a > 10 AND small.c < 3",
        )
        joins = find_nodes(plan, lp.LogicalJoin)
        assert len(joins) == 1
        # Both join inputs are filters (predicates pushed to each side).
        kinds = {type(c).__name__ for c in joins[0].children()}
        assert kinds == {"LogicalFilter"}

    def test_where_over_comma_join_becomes_hash_join(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM big, small WHERE big.k = small.k",
        )
        joins = find_nodes(plan, lp.LogicalJoin)
        assert joins[0].kind == "inner"
        assert joins[0].equi_keys

    def test_filter_pushed_below_sort(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM (SELECT a FROM big ORDER BY a) s WHERE a > 5",
        )
        sorts = find_nodes(plan, lp.LogicalSort)
        assert sorts
        # A filter exists somewhere below the sort.
        below = find_nodes(sorts[0], lp.LogicalFilter)
        assert below

    def test_filter_not_pushed_below_limit(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM (SELECT a FROM big LIMIT 3) s WHERE a > 0",
        )
        limits = find_nodes(plan, lp.LogicalLimit)
        assert not find_nodes(limits[0], lp.LogicalFilter)

    def test_group_key_filter_pushed_below_aggregate(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM (SELECT k, count(*) AS n FROM big GROUP BY k) "
            "g WHERE k = 1",
        )
        aggregates = find_nodes(plan, lp.LogicalAggregate)
        assert find_nodes(aggregates[0].child, lp.LogicalFilter)

    def test_aggregate_result_filter_stays_above(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM (SELECT k, count(*) AS n FROM big GROUP BY k) "
            "g WHERE n > 1",
        )
        aggregates = find_nodes(plan, lp.LogicalAggregate)
        assert not find_nodes(aggregates[0].child, lp.LogicalFilter)

    def test_no_pushdown_through_analytics_operator(self, db):
        """Section 5.2: selections must not cross an analytical
        operator — its result depends on the whole input."""
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.insert_rows("pts", [(0.0, 0.0), (5.0, 5.0)])
        plan = plan_of(
            db,
            "SELECT * FROM KMEANS((SELECT x, y FROM pts), "
            "(SELECT x, y FROM pts), 3) WHERE x > 1",
        )
        ops = find_nodes(plan, lp.LogicalTableFunction)
        assert len(ops) == 1
        assert not find_nodes(ops[0], lp.LogicalFilter)
        # The filter survives above the operator.
        assert find_nodes(plan, lp.LogicalFilter)

    def test_no_pushdown_into_iterate(self, db):
        plan = plan_of(
            db,
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x > 3)) WHERE x > 100",
        )
        iterates = find_nodes(plan, lp.LogicalIterate)
        filters_above = find_nodes(plan, lp.LogicalFilter)
        # The x > 100 filter stays outside the ITERATE's init plan.
        assert not find_nodes(iterates[0].init, lp.LogicalFilter)
        assert filters_above

    def test_pushdown_into_union_branches(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM (SELECT a FROM big UNION ALL "
            "SELECT c FROM small) u WHERE a > 3",
        )
        setops = find_nodes(plan, lp.LogicalSetOp)
        for branch in setops[0].children():
            assert find_nodes(branch, lp.LogicalFilter)


class TestColumnPruning:
    def test_scan_projects_only_needed_columns(self, schema_db):
        plan = plan_of(schema_db, "SELECT a FROM big WHERE k = 1")
        scans = find_nodes(plan, lp.LogicalScan)
        names = {c.name for c in scans[0].output}
        assert names == {"a", "k"}

    def test_count_star_keeps_one_column(self, schema_db):
        plan = plan_of(schema_db, "SELECT count(*) FROM big")
        scans = find_nodes(plan, lp.LogicalScan)
        assert len(scans[0].output) == 1

    def test_star_keeps_everything(self, schema_db):
        plan = plan_of(schema_db, "SELECT * FROM big")
        scans = find_nodes(plan, lp.LogicalScan)
        assert len(scans[0].output) == 3


class TestJoinSides:
    def test_smaller_input_becomes_build_side(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM small JOIN big ON small.k = big.k",
        )
        joins = find_nodes(plan, lp.LogicalJoin)
        # big (100 rows) should be the probe (left), small the build.
        left_scans = find_nodes(joins[0].left, lp.LogicalScan)
        assert left_scans[0].table_name == "big"

    def test_left_join_sides_pinned(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM small LEFT JOIN big ON small.k = big.k",
        )
        joins = find_nodes(plan, lp.LogicalJoin)
        left_scans = find_nodes(joins[0].left, lp.LogicalScan)
        assert left_scans[0].table_name == "small"


def filtered_scans(plan) -> list[str]:
    """The tables of the scans right under a Filter, sorted."""
    return sorted(
        node.child.table_name
        for node in find_nodes(plan, lp.LogicalFilter)
        if isinstance(node.child, lp.LogicalScan)
    )


@pytest.fixture(scope="module")
def tpch_tables():
    return tpch.generate(scale=1.0, seed=7)


@pytest.fixture(scope="module")
def tpch_db(tpch_tables):
    db = build_repro_db(tpch_tables)
    yield db
    db.close()


class TestImpliedFilters:
    """A WHERE disjunction that stays as a join residual pushes, into
    each side, the OR of what its arms ask of that side alone."""

    def test_q07_filters_both_nation_scans(self, tpch_db):
        plan = plan_of(
            tpch_db, (BATTERY / "q07_volume_shipping.sql").read_text()
        )
        assert filtered_scans(plan) == ["nation", "nation"]
        top = find_nodes(plan, lp.LogicalJoin)[0]
        assert top.residual is not None  # the OR itself stays

    def test_q19_filters_lineitem_and_part(self, tpch_db):
        plan = plan_of(
            tpch_db,
            (BATTERY / "q19_discounted_revenue.sql").read_text(),
        )
        assert filtered_scans(plan) == ["lineitem", "part"]

    def test_an_arm_with_nothing_local_derives_nothing(self, schema_db):
        plan = plan_of(
            schema_db,
            "SELECT * FROM big JOIN small ON big.k = small.k "
            "WHERE (big.a > 10 AND small.c = 1) OR big.a < 4",
        )
        assert filtered_scans(plan) == ["big"]

    def test_left_join_filters_its_left_side_only(self, schema_db):
        sql = (
            "SELECT big.k, small.c FROM big LEFT JOIN small "
            "ON big.k = small.k WHERE (big.a > 10 AND small.c IS NULL) "
            "OR (big.a < 4 AND small.c = 1) ORDER BY big.k"
        )
        plan = plan_of(schema_db, sql)
        assert filtered_scans(plan) == ["big"]
        (join,) = find_nodes(plan, lp.LogicalJoin)
        assert not find_nodes(join.right, lp.LogicalFilter)
        rows = schema_db.execute(sql).rows
        assert rows[:2] == [(1, 1), (6, None)] and len(rows) == 95

    def test_a_loop_body_implies_once(self, db):
        """A LEFT join's OR stays above the join: were the loop body
        optimized twice, it would imply again on the second pass."""
        db.execute("CREATE TABLE t (k INTEGER, c INTEGER)")
        db.insert_rows("t", [(i, i % 3) for i in range(10)])
        sql = (
            "WITH RECURSIVE w(x) AS (SELECT 1 UNION ALL SELECT w.x + 1 "
            "FROM w LEFT JOIN t ON w.x = t.k "
            "WHERE (w.x < 3 AND t.c = 1) OR (w.x < 8 AND t.c = 2)) "
            "SELECT x FROM w ORDER BY x"
        )
        assert db.execute(sql).rows == [(1,), (2,), (3,)]
        (implied,) = [
            node.predicate for node in find_nodes(
                plan_of(db, sql), lp.LogicalFilter
            )
            if isinstance(node.child, lp.LogicalWorkingTableRef)
        ]
        assert len(b.split_conjuncts(implied)) == 1

    def test_a_conjunct_that_may_raise_is_left_out(self, db):
        db.execute("CREATE TABLE a (k INTEGER, s VARCHAR)")
        db.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        db.insert_rows("a", [(1, "5"), (2, "7"), (3, "x")])
        db.insert_rows("b", [(1, 1), (2, 2)])
        # 'x' fails the CAST, but its row has no partner in b.
        sql = (
            "SELECT a.k, b.y FROM a JOIN b ON a.k = b.k "
            "WHERE (CAST(a.s AS INTEGER) > 0 AND b.y = 1) "
            "OR (a.k = 2 AND b.y = 2) ORDER BY a.k"
        )
        assert db.execute(sql).rows == [(1, 1), (2, 2)]
        assert filtered_scans(plan_of(db, sql)) == ["b"]

    def test_the_join_comes_back_when_nothing_is_implied(self, schema_db):
        plan = plan_of(
            schema_db, "SELECT * FROM big JOIN small ON big.k = small.k"
        )
        (join,) = find_nodes(plan, lp.LogicalJoin)
        big_a, small_c = (
            b.BoundColumnRef(col.slot, col.sql_type, col.name)
            for col in (join.left.output[1], join.right.output[1])
        )
        left, right = set(join.left.output_slots()), set(
            join.right.output_slots()
        )
        spanning = b.BoundBinary("<", big_a, small_c, BOOLEAN)
        no_local_arm = b.BoundBinary(
            "or", spanning, b.BoundBinary(">", big_a, small_c, BOOLEAN),
            BOOLEAN,
        )
        for conjunct in (spanning, no_local_arm):
            assert rules._push_implied(conjunct, join, left, right) is join


    def test_binding_and_the_rule_leave_no_function_in_a_cycle(
        self, tpch_tables
    ):
        """A recursive closure reaches itself through its own cell, so
        every bind that made one left a cycle for the collector."""
        db = build_repro_db(tpch_tables, plan_cache=False)
        texts = [
            (BATTERY / name).read_text()
            for name in (
                "q07_volume_shipping.sql", "q19_discounted_revenue.sql"
            )
        ]
        for sql in texts:
            db.execute(sql)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for sql in texts:
                db.execute(sql)
            gc.collect()
            leaked = [
                obj.__qualname__ for obj in gc.garbage
                if isinstance(obj, types.FunctionType)
                and (
                    "_split_equi_keys" in obj.__qualname__
                    or obj.__module__ == rules.__name__
                )
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
            db.close()
        assert leaked == []


class TestEquivalence:
    """The optimizer must never change results."""

    QUERIES = [
        "SELECT a FROM big WHERE a > 50 AND k < 80 ORDER BY a",
        "SELECT big.k, c FROM big, small WHERE big.k = small.k "
        "ORDER BY big.k",
        "SELECT k % 3, count(*), sum(a) FROM big GROUP BY k % 3 "
        "ORDER BY 1",
        "SELECT * FROM (SELECT k, a FROM big WHERE a > 10) s "
        "JOIN small ON s.k = small.k ORDER BY s.k",
        "SELECT a FROM big WHERE a IN (SELECT c * 2 FROM small) "
        "ORDER BY a",
        "SELECT b FROM big WHERE k IN (1, 2, 3) OR a > 190 ORDER BY b",
        "SELECT big.k, c FROM big JOIN small ON big.k = small.k "
        "WHERE (a > 2 AND c = 1) OR (b = 's3' AND c > 2) ORDER BY big.k",
        "SELECT big.k, c FROM big, small WHERE big.k < small.k "
        "AND ((a < 4 AND c = 4) OR (a = 6 AND c > 3)) ORDER BY 1, 2",
        "SELECT big.k, c FROM big LEFT JOIN small ON big.k = small.k "
        "WHERE (a > 150 AND c IS NULL) OR (a < 9 AND c < 3) "
        "ORDER BY big.k",
        # Filtering small first would pad k = 0, 2, 3, 4 with NULLs.
        "SELECT big.k, c FROM big LEFT JOIN small ON big.k = small.k "
        "WHERE (a < 9 AND c IS NULL) OR (a < 9 AND c = 1) ORDER BY big.k",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_optimized_matches_unoptimized(self, sql):
        def build(optimize):
            db = repro.Database(optimize=optimize)
            db.execute(
                "CREATE TABLE big (k INTEGER, a INTEGER, b VARCHAR)"
            )
            db.execute("CREATE TABLE small (k INTEGER, c INTEGER)")
            db.insert_rows(
                "big", [(i, i * 2, f"s{i}") for i in range(100)]
            )
            db.insert_rows("small", [(i, i) for i in range(5)])
            return db.execute(sql).rows

        assert build(True) == build(False)


class TestCardinality:
    def test_estimates_available(self, schema_db):
        txn = schema_db.txns.begin()
        try:
            optimizer = schema_db.pipeline.optimizer(txn)
            plan = schema_db.pipeline.binder(txn).bind_query(
                parse_statement("SELECT * FROM big WHERE a = 1")
            )
            estimate = optimizer.estimate(plan)
            assert 0 < estimate < 100
        finally:
            txn.rollback()

    def test_analytics_contract_kmeans(self, db):
        db.execute("CREATE TABLE pts (x FLOAT)")
        db.insert_rows("pts", [(float(i),) for i in range(50)])
        txn = db.txns.begin()
        try:
            optimizer = db.pipeline.optimizer(txn)
            plan = db.pipeline.binder(txn).bind_query(
                parse_statement(
                    "SELECT * FROM KMEANS((SELECT x FROM pts), "
                    "(SELECT x FROM pts LIMIT 3), 5)"
                )
            )
            # Contract: k-Means returns k rows (the centers input size).
            assert optimizer.estimate(plan) <= 5
        finally:
            txn.rollback()


FEATURES = ["f0", "f1", "f2"]

#: The six statements of the ``ladder`` workload — k-Means and PageRank
#: as operator, ITERATE and recursive CTE — on small tables.
LOOP_STATEMENTS = [
    "SELECT cluster, f0, f1, f2 FROM KMEANS((SELECT f0, f1, f2 FROM pts), "
    "(SELECT f0, f1, f2 FROM ctr), 3) ORDER BY cluster",
    kmeans_iterate_sql("pts", "ctr", FEATURES, 3),
    kmeans_recursive_sql("pts", "ctr", FEATURES, 3),
    "SELECT vertex, rank FROM PAGERANK((SELECT src, dest FROM edges), "
    "0.85, 0.0, 45) ORDER BY vertex",
    pagerank_iterate_sql("edges", 0.85, 45),
    pagerank_recursive_sql("edges", 0.85, 45),
]


@pytest.fixture(scope="module")
def loop_db():
    db = repro.Database()
    db.execute(
        "CREATE TABLE pts (id INTEGER, f0 DOUBLE, f1 DOUBLE, f2 DOUBLE)"
    )
    db.insert_rows(
        "pts", [(i, i % 7 / 3, i % 5 / 2, i % 11 / 4) for i in range(400)]
    )
    db.execute(
        "CREATE TABLE ctr (cid INTEGER, f0 DOUBLE, f1 DOUBLE, f2 DOUBLE)"
    )
    db.insert_rows("ctr", [(i, i, i / 2, i / 3) for i in range(4)])
    db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
    db.insert_rows(
        "edges", [(i % 30, (i * 7 + 3) % 30) for i in range(600)]
    )
    return db


def plan_signature(plan: lp.LogicalPlan) -> tuple:
    """The plan's nodes' :func:`~repro.plan.logical.node_signature`,
    tree-shaped."""
    return (
        lp.node_signature(plan, repr, {}),
        tuple(plan_signature(child) for child in plan.children()),
    )


class TestNestedPlansOptimizedOnce:
    """The rules' walks stop at ITERATE, recursive-CTE and table-function
    nodes; the optimizer optimizes each of their nested plans once."""

    RULES = (
        "fold_constants", "push_down_predicates", "push_down_limits",
        "_apply_pruning", "order_joins",
    )

    def _visits(self, monkeypatch, db, sql, leaf):
        """How often each rule visits a node ``leaf`` accepts, and the
        optimized plan."""
        visits = dict.fromkeys(self.RULES, 0)
        for name in self.RULES:
            real = getattr(rules, name)

            def counting(plan, *args, _real=real, _name=name):
                visits[_name] += bool(leaf(plan))
                return _real(plan, *args)

            monkeypatch.setattr(rules, name, counting)
        plan = plan_of(db, sql)
        monkeypatch.undo()
        return visits, plan

    @pytest.mark.parametrize("sql", LOOP_STATEMENTS[1:3] + LOOP_STATEMENTS[4:])
    def test_each_rule_visits_a_loop_body_once(
        self, monkeypatch, loop_db, sql
    ):
        visits, plan = self._visits(
            monkeypatch, loop_db, sql,
            lambda node: isinstance(node, lp.LogicalWorkingTableRef),
        )
        refs = len(find_nodes(plan, lp.LogicalWorkingTableRef))
        assert refs and visits == dict.fromkeys(self.RULES, refs)

    def test_each_rule_visits_a_table_function_input_once(
        self, monkeypatch, loop_db
    ):
        visits, _plan = self._visits(
            monkeypatch, loop_db, LOOP_STATEMENTS[3],
            lambda node: isinstance(node, lp.LogicalScan),
        )
        assert visits == dict.fromkeys(self.RULES, 1)

    def _both_ways(self, monkeypatch, db, sql):
        once = plan_signature(plan_of(db, sql))
        # The walks into nested plans: each is optimized twice.
        monkeypatch.setattr(rules, "NESTED_PLANS", ())
        twice = plan_signature(plan_of(db, sql))
        monkeypatch.undo()
        return once, twice

    @pytest.mark.parametrize("sql", LOOP_STATEMENTS)
    def test_ladder_plans_are_unchanged(self, monkeypatch, loop_db, sql):
        once, twice = self._both_ways(monkeypatch, loop_db, sql)
        assert once == twice

    @pytest.mark.parametrize(
        "path", sorted(BATTERY.glob("*.sql")), ids=lambda p: p.stem
    )
    def test_battery_plans_are_unchanged(self, monkeypatch, tpch_db, path):
        once, twice = self._both_ways(
            monkeypatch, tpch_db, path.read_text()
        )
        assert once == twice

    @pytest.mark.parametrize("sql", TestEquivalence.QUERIES)
    def test_equivalence_plans_are_unchanged(
        self, monkeypatch, schema_db, sql
    ):
        once, twice = self._both_ways(monkeypatch, schema_db, sql)
        assert once == twice
