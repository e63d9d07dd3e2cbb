"""Tests for the query history store (src/repro/obs/history.py).

Covers the always-on per-statement records, the per-fingerprint
index (the acceptance surface: estimated vs observed per-operator
cardinalities for a repeated parameterized query), the slow-query log,
JSONL spill, and the bounded-ring/LRU behaviour of the store itself.
"""

import json
import os

import pytest

import repro
from repro.errors import QueryTimeout
from repro.obs.history import (
    QueryHistory,
    QueryRecord,
    load_jsonl,
)
from repro.plan.cache import sql_fingerprint


class TestAlwaysOnRecords:
    def test_every_statement_leaves_a_record(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.executemany("INSERT INTO t VALUES (?)", [(2,), (3,)])
        db.execute("SELECT sum(v) FROM t")
        sqls = [r.sql for r in db.history(100)]
        assert sqls == [
            "CREATE TABLE t (v INTEGER)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (?)",
            "SELECT sum(v) FROM t",
        ]

    def test_record_fields(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        db.execute("SELECT v FROM t WHERE v > 1")
        rec = db.history(1)[0]
        assert rec.sql == "SELECT v FROM t WHERE v > 1"
        assert rec.fingerprint == sql_fingerprint(rec.sql)
        assert rec.rows == 1
        assert rec.verdict == "ok"
        assert rec.error is None
        assert rec.duration_s > 0
        assert rec.started_at > 0
        assert rec.workers == db.workers
        assert rec.encoding == db.encoding
        # Phase timings come from the statement span's children.
        assert "execute" in rec.phases

    def test_errors_are_recorded_too(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT * FROM no_such_table")
        rec = db.history(1)[0]
        assert rec.error is not None
        assert rec.rows == 0

    def test_history_is_callable_and_sized(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        for _ in range(5):
            db.execute("SELECT count(*) FROM t")
        assert len(db.history(3)) == 3
        assert db.history(0) == []
        # Callable shorthand equals .recent().
        assert [r.sql for r in db.history(4)] == [
            r.sql for r in db.history.recent(4)
        ]

    def test_counter_tracks_records(self, db):
        before = db.metrics.counter("history_records_total").value
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("SELECT count(*) FROM t")
        after = db.metrics.counter("history_records_total").value
        assert after == before + 2


class TestPlanFeedback:
    """The acceptance surface: ``history.by_fingerprint(fp)`` returns
    observed per-operator cardinalities for a repeated parameterized
    query."""

    def _run_repeated(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(i,) for i in range(100)])
        sql = "SELECT v FROM t WHERE v > ?"
        for threshold in (90, 50, 10):
            db.execute(sql, [threshold])
        return sql_fingerprint(sql)

    def test_by_fingerprint_collects_repeated_statement(self, db):
        fp = self._run_repeated(db)
        records = db.history.by_fingerprint(fp)
        assert len(records) == 3
        # Parameterized re-runs share one fingerprint...
        assert {r.fingerprint for r in records} == {fp}
        # ...and oldest-first order preserves the run sequence.
        assert [r.rows for r in records] == [9, 49, 89]

    def test_records_carry_observed_operator_cardinalities(self, db):
        fp = self._run_repeated(db)
        for record, expected_rows in zip(
            db.history.by_fingerprint(fp), (9, 49, 89)
        ):
            # The filter runs inside the one scan operator, so its
            # observation is the post-filter cardinality.
            assert [
                (op["op"], op["observed_rows"])
                for op in record.operators
            ] == [("Scan(t)", expected_rows)]

    def test_operators_carry_estimates_and_q_error(self, db):
        fp = self._run_repeated(db)
        record = db.history.by_fingerprint(fp)[-1]
        estimated = [
            op for op in record.operators
            if op["estimated_rows"] is not None
        ]
        assert estimated, "no operator carried a cardinality estimate"
        for op in estimated:
            assert op["q_error"] >= 1.0
        assert record.max_q_error >= 1.0

    def test_observed_cardinalities_aggregates(self, db):
        fp = self._run_repeated(db)
        observed = db.history.observed_cardinalities(fp)
        assert observed
        # Every aggregated operator saw all three executions.
        for label, slot in observed.items():
            assert slot["executions"] == 3, label
            assert slot["mean_rows"] >= 0
        # The filter's observed truth: mean over 9/49/89 rows.
        means = sorted(s["mean_rows"] for s in observed.values())
        assert 49.0 in means

    def test_cache_hit_flag_flips_on_repeat(self, db):
        fp = self._run_repeated(db)
        hits = [r.cache_hit for r in db.history.by_fingerprint(fp)]
        if db.plan_cache_active():
            assert hits == [False, True, True]
        else:
            assert hits == [False, False, False]

    def test_fingerprints_lists_index(self, db):
        fp = self._run_repeated(db)
        assert fp in db.history.fingerprints()


class TestGovernorOutcomes:
    def test_timeout_verdict_recorded(self):
        db = repro.Database(timeout_ms=0.01)
        with pytest.raises(QueryTimeout):
            db.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS n),"
                " (SELECT n + 1 FROM iterate),"
                " (SELECT n FROM iterate WHERE n >= 1000000))"
            )
        rec = db.history(1)[0]
        assert rec.verdict == "timeout"
        assert rec.error is not None
        assert rec.checkpoints >= 1

    def test_ok_verdict_on_success(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        assert db.history(1)[0].verdict == "ok"


class TestSlowLog:
    def test_slow_threshold_flags_statements(self):
        db = repro.Database(slow_ms=0.000001)
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("SELECT count(*) FROM t")
        assert all(r.slow for r in db.history(10))
        assert len(db.history.slow(10)) == 2

    def test_no_threshold_means_no_slow_log(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        assert db.history.slow(10) == []

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_MS", "0.000001")
        db = repro.Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        assert db.history.slow(10)


class TestJsonlSpill:
    def test_spill_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        db = repro.Database(history=path)
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        db.execute("SELECT sum(v) FROM t")
        loaded = load_jsonl(path)
        assert len(loaded) == len(db.history(100))
        assert loaded[-1].sql == "SELECT sum(v) FROM t"
        assert loaded[-1].rows == 1
        assert loaded[-1].verdict == "ok"
        # Operators survive the round trip.
        assert loaded[-1].operators == db.history(1)[0].operators

    def test_spill_lines_are_plain_json(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        db = repro.Database(history=path)
        db.execute("CREATE TABLE t (v INTEGER)")
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                payload = json.loads(line)
                assert "sql" in payload and "verdict" in payload

    def test_env_spill_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_HISTORY", path)
        db = repro.Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        assert os.path.exists(path)

    def test_spill_failure_latches_not_raises(self, tmp_path):
        store = QueryHistory(
            spill_path=str(tmp_path / "no_dir" / "x.jsonl")
        )
        store.record(_record("SELECT 1"))
        assert store.spill_error is not None
        # Recording keeps working in memory.
        store.record(_record("SELECT 2"))
        assert len(store) == 2


def _record(sql, fingerprint=None, **kwargs):
    defaults = dict(
        sql=sql,
        fingerprint=fingerprint or sql_fingerprint(sql),
        started_at=1.0,
        duration_s=0.001,
    )
    defaults.update(kwargs)
    return QueryRecord(**defaults)


class TestStoreBounds:
    def test_ring_is_bounded(self):
        store = QueryHistory(capacity=4)
        for i in range(10):
            store.record(_record(f"SELECT {i}"))
        assert len(store) == 4
        assert [r.sql for r in store.recent(10)] == [
            "SELECT 6", "SELECT 7", "SELECT 8", "SELECT 9"
        ]

    def test_per_fingerprint_bucket_is_bounded(self):
        store = QueryHistory(per_fingerprint=2)
        for i in range(5):
            store.record(_record("SELECT ?", rows=i))
        bucket = store.by_fingerprint(sql_fingerprint("SELECT ?"))
        assert [r.rows for r in bucket] == [3, 4]

    def test_fingerprint_index_evicts_lru(self):
        store = QueryHistory(max_fingerprints=2)
        store.record(_record("SELECT 1"))
        store.record(_record("SELECT 2"))
        store.record(_record("SELECT 1"))  # refresh 1
        store.record(_record("SELECT 3"))  # evicts 2
        assert store.by_fingerprint(sql_fingerprint("SELECT 2")) == []
        assert store.by_fingerprint(sql_fingerprint("SELECT 1"))
        assert store.by_fingerprint(sql_fingerprint("SELECT 3"))

    def test_clear(self):
        store = QueryHistory()
        store.record(_record("SELECT 1"))
        store.clear()
        assert len(store) == 0
        assert store.fingerprints() == []

    def test_record_round_trips_through_dict(self):
        rec = _record(
            "SELECT 1",
            operators=[{
                "op": "Scan(t)", "estimated_rows": 10.0,
                "observed_rows": 12, "q_error": 1.2,
            }],
            verdict="timeout",
            error="boom",
            slow=True,
        )
        clone = QueryRecord.from_dict(rec.to_dict())
        assert clone.to_dict() == rec.to_dict()
        assert clone.max_q_error == 1.2
        assert "SLOW" in clone.format()
        assert "timeout" in clone.format()
