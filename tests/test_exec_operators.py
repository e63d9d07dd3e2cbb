"""Direct tests of physical operators and execution machinery."""

import numpy as np
import pytest

import repro
from repro.errors import ExecutionError
from repro.exec.common import (
    concat_batches,
    factorize,
    group_member_lists,
    group_representatives,
)
from repro.exec.physical import ExecutionContext, materialize
from repro.exec.planner import build_physical, execute_plan
from repro.plan import logical as lp
from repro.sql.parser import parse_statement
from repro.storage.column import Column, ColumnBatch
from repro.types import INTEGER, VARCHAR


class TestCommonKernels:
    def test_group_representatives_first_occurrence(self):
        codes = np.asarray([1, 0, 1, 2, 0], dtype=np.int64)
        reps = group_representatives(codes, 3)
        assert reps.tolist() == [1, 0, 3]

    def test_group_member_lists(self):
        codes = np.asarray([1, 0, 1, 2], dtype=np.int64)
        order, offsets = group_member_lists(codes, 3)
        members = {
            g: sorted(order[offsets[g]:offsets[g + 1]].tolist())
            for g in range(3)
        }
        assert members == {0: [1], 1: [0, 2], 2: [3]}

    def test_factorize_empty(self):
        codes, count = factorize([Column.from_values([], INTEGER)])
        assert len(codes) == 0 and count == 0

    def test_factorize_null_string_sentinel_safe(self):
        # A string equal to the internal sentinel must not collide
        # with NULL.
        col = Column.from_values(["\0__null__", None], VARCHAR)
        codes, count = factorize([col])
        assert codes[0] != codes[1]

    def test_concat_batches_skips_empty(self):
        layout = {"a": INTEGER}
        empty = ColumnBatch.empty(layout)
        full = ColumnBatch({"a": Column.from_values([1], INTEGER)})
        merged = concat_batches([empty, full, empty], ["a"])
        assert len(merged) == 1


class TestMaterialize:
    def test_empty_output_layout(self):
        cols = [lp.PlanColumn("a", "s1", INTEGER)]
        batch = materialize([], cols)
        assert len(batch) == 0
        assert batch.names() == ["s1"]

    def test_missing_slot_detected(self):
        cols = [lp.PlanColumn("a", "s1", INTEGER)]
        wrong = ColumnBatch({"other": Column.from_values([1], INTEGER)})
        with pytest.raises(ExecutionError, match="missing"):
            materialize([wrong], cols)


def plan_for(db, sql):
    txn = db.txns.begin()
    plan = db.pipeline.plan_select(parse_statement(sql), txn)
    ctx = db.pipeline.exec_context(txn)
    return plan, ctx, txn


class TestExecutionContext:
    def test_morsel_size_respected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(10)])
        small = repro.Database(morsel_rows=3)
        small.execute("CREATE TABLE t (a INTEGER)")
        small.insert_rows("t", [(i,) for i in range(10)])
        plan, ctx, txn = plan_for(small, "SELECT a FROM t")
        op = build_physical(plan, ctx)
        batches = list(op.execute(ctx.new_eval_context()))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        txn.rollback()

    def test_working_table_outside_iteration_raises(self, db):
        node = lp.LogicalWorkingTableRef(
            "ghost", [lp.PlanColumn("x", "s", INTEGER)]
        )
        ctx = ExecutionContext(read_table=lambda n: None)
        from repro.exec.scan import WorkingTableOp

        op = WorkingTableOp(node, ctx)
        with pytest.raises(ExecutionError, match="outside"):
            list(op.execute(ctx.new_eval_context()))

    def test_execute_plan_helper(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(5,)])
        plan, ctx, txn = plan_for(db, "SELECT a + 1 FROM t")
        batch = execute_plan(plan, ctx)
        assert list(batch.rows()) == [(6,)]
        txn.rollback()

    def test_stats_batches_zero_default(self):
        ctx = ExecutionContext(read_table=lambda n: None)
        assert ctx.stats.peak_live_tuples == 0
        ctx.stats.observe_live_tuples(7)
        ctx.stats.observe_live_tuples(3)
        assert ctx.stats.peak_live_tuples == 7


class TestPlanExplain:
    def test_explain_tree_structure(self, people_db):
        text = people_db.explain(
            "SELECT city, count(*) FROM people WHERE age > 1 "
            "GROUP BY city ORDER BY 2 DESC LIMIT 3"
        )
        for fragment in (
            "Limit", "Sort", "Aggregate", "Filter", "Scan people",
        ):
            assert fragment in text
        # Deeper operators are indented further.
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert lines[-1].strip().startswith("Scan")

    def test_explain_statement_via_sql(self, people_db):
        rows = people_db.execute("EXPLAIN SELECT id FROM people").rows
        assert any("Scan people" in row[0] for row in rows)

    def test_join_explain_shows_method(self, people_db):
        text = people_db.explain(
            "SELECT 1 FROM people p JOIN orders o ON p.id = o.person_id"
        )
        assert "HashJoin" in text

    def test_analytics_explain(self, db):
        db.execute("CREATE TABLE pts (x FLOAT)")
        text = db.explain(
            "SELECT * FROM KMEANS((SELECT x FROM pts), "
            "(SELECT x FROM pts), 3)"
        )
        assert "AnalyticsOperator kmeans" in text

    def test_iterate_explain(self, db):
        text = db.explain(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x FROM iterate), (SELECT x FROM iterate))"
        )
        assert "Iterate" in text
        assert "WorkingTable" in text


class TestLimitStreaming:
    def test_limit_stops_pulling(self):
        """LIMIT over a morsel scan must not materialise everything."""
        db = repro.Database(morsel_rows=10)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(1000)])
        rows = db.execute("SELECT a FROM t LIMIT 5").rows
        assert len(rows) == 5
        # rows_scanned counts the full table (scan registers the whole
        # snapshot) but batches stop early — verify via physical pull.
        plan, ctx, txn = plan_for(db, "SELECT a FROM t LIMIT 5")
        op = build_physical(plan, ctx)
        batches = list(op.execute(ctx.new_eval_context()))
        assert sum(len(b) for b in batches) == 5
        txn.rollback()
