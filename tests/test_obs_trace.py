"""Query-lifecycle tracing: span trees and the per-statement log
(``db.query_log`` — a view over the history store)."""

import pytest

from repro.errors import ReproError
from repro.obs.trace import Span, Tracer


class TestTracerUnit:
    def test_nesting_and_walk(self):
        tracer = Tracer()
        with tracer.statement("SELECT 1") as root:
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                with tracer.span("iteration", round=1):
                    pass
        assert [s.name for s in root.walk()] == [
            "statement", "parse", "execute", "iteration",
        ]
        assert root.find("iteration").attributes["round"] == 1
        assert tracer.last_root is root

    def test_span_records_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.statement("boom"):
                with tracer.span("execute"):
                    raise ValueError("nope")
        root = tracer.last_root
        assert root.error == "ValueError: nope"
        assert root.find("execute").error == "ValueError: nope"

    def test_root_ring_bounds_and_order(self):
        tracer = Tracer(root_ring_size=3)
        for i in range(5):
            with tracer.statement(f"Q{i}"):
                pass

        def sqls(n):
            return [r.attributes["sql"] for r in tracer.recent_roots(n)]

        assert sqls(10) == ["Q2", "Q3", "Q4"]
        assert sqls(2) == ["Q3", "Q4"]
        assert sqls(0) == []

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.statement("s") as root:
            with tracer.span("inner"):
                pass
        inner = root.children[0]
        assert 0.0 <= inner.duration_s <= root.duration_s

    def test_format_mentions_phases(self):
        tracer = Tracer()
        with tracer.statement("SELECT 1"):
            with tracer.span("parse"):
                pass
        text = str(tracer.last_root)
        assert "statement" in text and "parse" in text


class TestStatementTrace:
    def test_select_phases_in_order(self, people_db):
        """Acceptance: all five lifecycle phases, in order, as children
        of the statement root."""
        people_db.execute("SELECT count(*) FROM people WHERE age > 30")
        root = people_db.last_trace()
        assert root.name == "statement"
        assert [c.name for c in root.children] == [
            "parse", "bind", "optimize", "plan", "execute",
        ]
        assert root.attributes["rows"] == 1
        assert root.error is None

    def test_iterate_rounds_become_spans(self, db):
        """Acceptance: one iteration span per executed round."""
        db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 5))"
        )
        root = db.last_trace()
        rounds = root.find_all("iteration")
        assert len(rounds) == db.last_stats.iterations == 4
        assert [s.attributes["round"] for s in rounds] == [1, 2, 3, 4]
        # The rounds live under the execute phase, not the root.
        execute = root.find("execute")
        assert execute.find_all("iteration") == rounds

    def test_recursive_cte_rounds_become_spans(self, db):
        db.execute(
            "WITH RECURSIVE t(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM t WHERE n < 10) SELECT count(*) FROM t"
        )
        rounds = db.last_trace().find_all("iteration")
        assert len(rounds) == db.last_stats.iterations == 10

    def test_failing_statement_recorded(self, db):
        """Acceptance: a failing statement keeps its trace and log
        entry, error message included."""
        with pytest.raises(ReproError):
            db.execute("SELECT * FROM no_such_table")
        root = db.last_trace()
        assert root.error is not None
        assert "no_such_table" in root.attributes["sql"]
        entry = db.query_log(1)[-1]
        assert entry.error is not None
        assert entry.sql == "SELECT * FROM no_such_table"
        assert "parse" in entry.phases  # parse succeeded before bind

    def test_query_log_phases_and_rows(self, people_db):
        people_db.execute("SELECT name FROM people ORDER BY name")
        entry = people_db.query_log(1)[-1]
        assert entry.rows == 5
        assert entry.error is None
        for phase in ("parse", "bind", "optimize", "plan", "execute"):
            assert phase in entry.phases
        assert entry.duration_s >= sum(entry.phases.values()) * 0.5
        assert "people" in entry.format()

    def test_query_log_is_the_history_store(self, people_db):
        """One per-statement log: execute, explain and explain_analyze
        each leave exactly one record, and ``query_log`` is
        ``history`` (explain used to land in the log only)."""
        before = len(people_db.history(1000))
        people_db.execute("SELECT 1")
        people_db.explain("SELECT name FROM people")
        people_db.explain_analyze("SELECT count(*) FROM people")
        with pytest.raises(ReproError):
            people_db.explain("DROP TABLE people")
        records = people_db.history(1000)[before:]
        assert [r.sql for r in records] == [
            "SELECT 1",
            "SELECT name FROM people",
            "SELECT count(*) FROM people",
            "DROP TABLE people",
        ]
        assert [r.error is None for r in records] == [
            True, True, True, False,
        ]
        assert people_db.query_log(4) == records

    def test_explain_analyze_is_traced(self, people_db):
        people_db.explain_analyze("SELECT count(*) FROM people")
        root = people_db.last_trace()
        names = [c.name for c in root.children]
        assert names == ["parse", "bind", "optimize", "plan", "execute"]

    def test_multi_statement_sql_is_one_log_entry(self, db):
        db.execute("CREATE TABLE t (v INTEGER); INSERT INTO t VALUES (1)")
        entry = db.query_log(1)[-1]
        assert "INSERT" in entry.sql
        assert len(db.query_log(100)) == 1


class TestOperatorStatsTop:
    def test_top_orders_by_self_time(self, people_db):
        analyzed = people_db.explain_analyze(
            "SELECT city, count(*) FROM people GROUP BY city"
        )
        top = analyzed.top(3)
        assert 0 < len(top) <= 3
        selves = [node.self_s for node in top]
        assert selves == sorted(selves, reverse=True)
        assert analyzed.top(0) == []
        # Same helper on a stats subtree directly.
        assert analyzed.root.top(1)[0].self_s == max(
            n.self_s for n in analyzed.root.walk()
        )

    def test_operator_class_strips_decoration(self, people_db):
        analyzed = people_db.explain_analyze("SELECT * FROM people")
        scan = analyzed.find("Scan")
        assert scan.operator_class == "Scan"
        assert "(" not in scan.operator_class
