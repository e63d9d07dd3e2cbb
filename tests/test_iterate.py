"""The ITERATE construct (paper section 5.1) and recursive CTEs."""

import pytest

import repro
from repro.errors import BindError, IterationLimitError


class TestIterate:
    def test_listing1(self, db):
        assert db.execute(
            'SELECT * FROM ITERATE((SELECT 7 "x"),'
            " (SELECT x + 7 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 100))"
        ).scalar() == 105

    def test_stop_checked_before_first_step(self, db):
        # Initial state already satisfies the stop condition: zero steps.
        assert db.execute(
            "SELECT * FROM ITERATE((SELECT 200 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 100))"
        ).scalar() == 200

    def test_boolean_stop_column(self, db):
        assert db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x * 2 FROM iterate),"
            " (SELECT x > 50 FROM iterate))"
        ).scalar() == 64

    def test_boolean_stop_all_false_continues(self, db):
        # A stop query returning rows that are all FALSE must continue.
        assert db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x >= 5 FROM iterate))"
        ).scalar() == 5

    def test_working_relation_replaced_not_appended(self, db):
        result = db.execute(
            "SELECT count(*) FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 10))"
        )
        assert result.scalar() == 1  # one tuple, not ten

    def test_multi_row_working_relation(self, db):
        db.execute("CREATE TABLE seeds (v INTEGER)")
        db.insert_rows("seeds", [(1,), (2,), (3,)])
        rows = db.execute(
            "SELECT * FROM ITERATE((SELECT v FROM seeds),"
            " (SELECT v * 2 FROM iterate),"
            " (SELECT 1 FROM iterate WHERE v >= 8)) ORDER BY v"
        ).rows
        # The stop fires as soon as ANY row satisfies it: after the
        # second round the relation is (4, 8, 12) and 8 >= 8.
        assert rows == [(4,), (8,), (12,)]

    def test_aggregation_in_step(self, db):
        # Collapse the relation to a single row in the first step.
        db.execute("CREATE TABLE vals (v INTEGER)")
        db.insert_rows("vals", [(1,), (2,), (3,)])
        assert db.execute(
            "SELECT * FROM ITERATE((SELECT sum(v) AS s FROM vals),"
            " (SELECT s * 10 FROM iterate),"
            " (SELECT s FROM iterate WHERE s >= 600))"
        ).scalar() == 600

    def test_iterate_composes_with_postprocessing(self, db):
        assert db.execute(
            "SELECT x * 100 FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 3)) WHERE x > 0"
        ).scalar() == 300

    def test_iterate_with_alias(self, db):
        assert db.execute(
            "SELECT it.x FROM ITERATE((SELECT 5 AS x),"
            " (SELECT x FROM iterate),"
            " (SELECT x FROM iterate)) AS it"
        ).scalar() == 5

    def test_infinite_loop_guard(self, db):
        small = repro.Database(max_iterations=50)
        with pytest.raises(IterationLimitError):
            small.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS x),"
                " (SELECT x FROM iterate),"
                " (SELECT x FROM iterate WHERE x > 99))"
            )

    def test_step_schema_coerced_to_init(self, db):
        # Step yields DOUBLE where init had INTEGER-compatible value.
        value = db.execute(
            "SELECT * FROM ITERATE((SELECT 1.0 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 3))"
        ).scalar()
        assert value == 3.0

    def test_step_arity_mismatch_rejected(self, db):
        with pytest.raises(BindError):
            db.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS x),"
                " (SELECT x, x FROM iterate),"
                " (SELECT x FROM iterate))"
            )

    def test_peak_live_tuples_is_two_rounds(self, db):
        db.execute("CREATE TABLE seeds (v INTEGER)")
        db.insert_rows("seeds", [(i,) for i in range(10)])
        db.execute(
            "SELECT * FROM ITERATE((SELECT v FROM seeds),"
            " (SELECT v + 1 FROM iterate),"
            " (SELECT 1 FROM iterate WHERE v >= 14))"
        )
        assert db.last_stats.peak_live_tuples == 20  # 2n, not n*i


class TestRecursiveCTE:
    def test_counting(self, db):
        assert db.execute(
            "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM t WHERE n < 10) SELECT sum(n) FROM t"
        ).scalar() == 55

    def test_union_distinct_reaches_fixpoint(self, db):
        # With UNION (not ALL), revisiting rows terminates recursion.
        db.execute("CREATE TABLE edges (a INTEGER, b INTEGER)")
        db.insert_rows("edges", [(1, 2), (2, 3), (3, 1)])  # a cycle
        rows = db.execute(
            "WITH RECURSIVE reach(v) AS ("
            "SELECT 1 UNION "
            "SELECT e.b FROM reach r JOIN edges e ON e.a = r.v) "
            "SELECT v FROM reach ORDER BY v"
        ).rows
        assert rows == [(1,), (2,), (3,)]

    def test_transitive_closure(self, db):
        db.execute("CREATE TABLE edges (a INTEGER, b INTEGER)")
        db.insert_rows("edges", [(1, 2), (2, 3), (3, 4)])
        rows = db.execute(
            "WITH RECURSIVE paths(src, dst) AS ("
            "SELECT a, b FROM edges UNION "
            "SELECT p.src, e.b FROM paths p JOIN edges e ON p.dst = e.a) "
            "SELECT count(*) FROM paths"
        )
        assert rows.scalar() == 6  # 1->2,1->3,1->4,2->3,2->4,3->4

    def test_each_round_sees_previous_round_only(self, db):
        # Standard SQL semantics: the step reads last round's rows, so
        # doubling per round yields powers of two, not a blow-up.
        rows = db.execute(
            "WITH RECURSIVE t(n, r) AS ("
            "SELECT 1, 0 UNION ALL "
            "SELECT n * 2, r + 1 FROM t WHERE r < 4) "
            "SELECT n FROM t ORDER BY n"
        ).rows
        assert [r[0] for r in rows] == [1, 2, 4, 8, 16]

    def test_infinite_recursion_guard(self):
        small = repro.Database(max_iterations=20)
        with pytest.raises(IterationLimitError):
            small.execute(
                "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
                "SELECT n FROM t) SELECT count(*) FROM t"
            )

    def test_memory_grows_with_iterations(self, db):
        db.execute(
            "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM t WHERE n < 50) SELECT count(*) FROM t"
        )
        # Appending semantics: all 50 rounds stay live.
        assert db.last_stats.peak_live_tuples == 50

    def test_nonrecursive_with_recursive_keyword(self, db):
        # WITH RECURSIVE on a CTE that never self-references.
        assert db.execute(
            "WITH RECURSIVE c AS (SELECT 42 AS x) SELECT x FROM c"
        ).scalar() == 42

    def test_requires_union_shape(self, db):
        with pytest.raises(BindError, match="UNION"):
            db.execute(
                "WITH RECURSIVE t(n) AS (SELECT n + 1 FROM t) "
                "SELECT * FROM t"
            )


class TestIterateVsRecursiveEquivalence:
    def test_same_final_relation(self, db):
        """The paper's point: for replace-style algorithms both forms
        compute the same result; ITERATE just keeps it smaller."""
        it = db.execute(
            "SELECT * FROM ITERATE((SELECT 2 AS x),"
            " (SELECT x * x FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 256))"
        ).scalar()
        rc = db.execute(
            "WITH RECURSIVE t(x, it) AS ("
            "SELECT 2, 0 UNION ALL "
            "SELECT x * x, it + 1 FROM t WHERE x < 256) "
            "SELECT x FROM t ORDER BY it DESC LIMIT 1"
        ).scalar()
        assert it == rc == 256


class TestSubqueryOverWorkingTable:
    """An uncorrelated subquery over the working table is evaluated
    every round, not once per statement (its cached result used to be
    replayed forever, so all three ran into the iteration limit)."""

    def test_scalar_subquery_in_iterate_step(self):
        small = repro.Database(max_iterations=50)
        assert small.execute(
            "SELECT * FROM ITERATE((SELECT 0 AS x),"
            " (SELECT (SELECT max(x) FROM iterate) + 1 AS x FROM iterate),"
            " (SELECT 1 FROM iterate WHERE x >= 3))"
        ).rows == [(3,)]

    def test_scalar_subquery_in_recursive_step(self):
        small = repro.Database(max_iterations=50)
        assert small.execute(
            "WITH RECURSIVE r(x) AS (SELECT 0 UNION ALL"
            " SELECT (SELECT max(x) FROM r) + 1 FROM r WHERE x < 3)"
            " SELECT * FROM r"
        ).rows == [(0,), (1,), (2,), (3,)]

    def test_scalar_subquery_in_iterate_stop(self):
        small = repro.Database(max_iterations=50)
        assert small.execute(
            "SELECT * FROM ITERATE((SELECT 0 AS x),"
            " (SELECT x + 1 AS x FROM iterate),"
            " (SELECT 1 WHERE (SELECT max(x) FROM iterate) >= 3))"
        ).rows == [(3,)]


class TestIterationCounting:
    """``ExecutionStats.iterations`` counts executed rounds uniformly
    across ITERATE, recursive CTEs, and iterative analytics."""

    def test_iterate_counts_rounds(self, db):
        db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 5))"
        )
        # 1 -> 2 -> 3 -> 4 -> 5: four step executions.
        assert db.last_stats.iterations == 4

    def test_iterate_zero_rounds(self, db):
        db.execute(
            "SELECT * FROM ITERATE((SELECT 200 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 100))"
        )
        assert db.last_stats.iterations == 0

    def test_recursive_cte_counts_rounds(self, db):
        db.execute(
            "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM t WHERE n < 10) SELECT count(*) FROM t"
        )
        # Nine producing rounds plus the final empty round.
        assert db.last_stats.iterations == 10

    def test_counts_survive_iteration_limit(self):
        small = repro.Database(max_iterations=50)
        with pytest.raises(IterationLimitError):
            small.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS x),"
                " (SELECT x FROM iterate),"
                " (SELECT x FROM iterate WHERE x > 99))"
            )
        # Per-round counting: the aborted statement's rounds stay
        # observable in both last_stats and the metrics registry.
        assert small.last_stats.iterations == 50
        counters = small.metrics.snapshot()["counters"]
        assert counters["exec_iterations_total"] == 50

    def test_kmeans_counts_iterations(self, db):
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.insert_rows(
            "pts", [(0.0, 0.0), (0.2, 0.1), (5.0, 5.0), (5.1, 4.9)]
        )
        db.execute("CREATE TABLE seeds (x FLOAT, y FLOAT)")
        db.insert_rows("seeds", [(1.0, 1.0), (4.0, 4.0)])
        db.execute(
            "SELECT * FROM KMEANS((SELECT x, y FROM pts), "
            "(SELECT x, y FROM seeds), 10)"
        )
        assert db.last_stats.iterations >= 1


class TestNesting:
    def test_iterate_inside_iterate_step(self, db):
        rows = db.execute(
            "SELECT * FROM ITERATE("
            "(SELECT 1 AS outer_v),"
            "(SELECT outer_v + inner_sum FROM iterate, ("
            "  SELECT sum(x) AS inner_sum FROM ITERATE("
            "    (SELECT 1 AS x), (SELECT x + 1 FROM iterate),"
            "    (SELECT x FROM iterate WHERE x >= 3)) inner_it) s),"
            "(SELECT outer_v FROM iterate WHERE outer_v > 5))"
        ).rows
        assert rows == [(7,)]  # 1 -> +6 (= 1+2+3) once

    def test_iterate_inside_recursive_cte_step(self, db):
        assert db.execute(
            "WITH RECURSIVE r(n) AS ("
            "SELECT 1 UNION ALL "
            "SELECT n + (SELECT x FROM ITERATE((SELECT 1 AS x),"
            "  (SELECT x + 1 FROM iterate),"
            "  (SELECT x FROM iterate WHERE x >= 2))) "
            "FROM r WHERE n < 5) "
            "SELECT max(n) FROM r"
        ).scalar() == 5

    def test_window_function_inside_iterate_step(self, db):
        assert db.execute(
            "SELECT * FROM ITERATE("
            "(SELECT 1 AS v),"
            "(SELECT rn + v FROM (SELECT v, row_number() OVER "
            "(ORDER BY v) AS rn FROM iterate) t),"
            "(SELECT v FROM iterate WHERE v >= 4))"
        ).scalar() == 4
