"""The resource governor: deadlines, cooperative cancellation, memory
budgets, statement atomicity, and worker-pool fault tolerance
(docs/robustness.md)."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    TransactionError,
)
from repro.governor import CancelToken, QueryContext
from repro.testing.chaos import ChaosInjector

LONG_PAGERANK = (
    "SELECT * FROM PAGERANK((SELECT src, dst FROM e), "
    "0.85, 0.0, 1000000)"
)


def _edges_db(n_edges=20_000, n_vertices=3_000, **kwargs):
    db = repro.Database(**kwargs)
    db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
    rng = np.random.default_rng(7)
    db.load_columns(
        "e",
        {
            "src": rng.integers(0, n_vertices, size=n_edges),
            "dst": rng.integers(0, n_vertices, size=n_edges),
        },
    )
    return db


def _big_edges_db(**kwargs):
    # Large enough that PAGERANK with epsilon=0 runs for seconds
    # (~20ms per power-iteration round), so deadlines and cross-thread
    # cancels land mid-computation.
    return _edges_db(n_edges=2_000_000, n_vertices=150_000, **kwargs)


class TestQueryContext:
    def test_defaults_never_fire(self):
        governor = QueryContext()
        for _ in range(100):
            governor.check("test")
        governor.reserve(1 << 40, "huge")
        assert governor.verdict == "ok"

    def test_timeout_fires_at_checkpoint(self):
        governor = QueryContext(timeout_ms=1)
        time.sleep(0.01)
        with pytest.raises(QueryTimeout):
            governor.check("test")
        assert governor.verdict == "timeout"

    def test_cancel_token(self):
        token = CancelToken()
        governor = QueryContext(cancel_token=token)
        governor.check("before")
        token.cancel()
        with pytest.raises(QueryCancelled) as excinfo:
            governor.check("after")
        assert governor.verdict == "cancelled"
        assert excinfo.value.report["verdict"] == "cancelled"

    def test_ledger_reserve_release_and_peak(self):
        governor = QueryContext(memory_budget_bytes=100)
        governor.reserve(60, "a")
        governor.release(60)
        governor.reserve(90, "b")
        assert governor.peak_bytes == 90
        with pytest.raises(MemoryBudgetExceeded):
            governor.reserve(20, "c")
        assert governor.verdict == "oom"

    def test_nonpositive_timeout_disables(self):
        assert QueryContext(timeout_ms=0).deadline is None
        assert QueryContext(timeout_ms=-5).deadline is None


class TestTimeout:
    def test_long_pagerank_times_out(self):
        db = _big_edges_db()
        with pytest.raises(QueryTimeout):
            db.execute(LONG_PAGERANK, timeout_ms=100)
        assert db.last_governor["verdict"] == "timeout"
        assert db.last_governor["checkpoints"] > 0
        # Session stays fully usable.
        assert db.execute("SELECT count(*) FROM e").scalar() == 2_000_000
        db.close()

    def test_session_default_applies(self):
        slow = repro.Database(timeout_ms=20)
        slow.execute("CREATE TABLE t (a INTEGER)")
        slow.insert_rows("t", [(i,) for i in range(10)])
        # No per-call limit: the session-wide default governs.
        with pytest.raises(QueryTimeout):
            slow.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS x),"
                " (SELECT x + 1 FROM iterate),"
                " (SELECT x FROM iterate WHERE x >= 100000000))"
            )

    def test_per_call_override_wins(self):
        db = repro.Database(timeout_ms=1)
        db.execute("CREATE TABLE t (a INTEGER)", timeout_ms=None)
        # Override disables the 1ms session default entirely.
        db.insert_rows("t", [(i,) for i in range(5)])
        assert db.execute(
            "SELECT count(*) FROM t", timeout_ms=None
        ).scalar() == 5

    def test_timeout_on_iterate_rounds(self, db):
        with pytest.raises(QueryTimeout):
            db.execute(
                "SELECT * FROM ITERATE((SELECT 1 AS x),"
                " (SELECT x + 1 FROM iterate),"
                " (SELECT x FROM iterate WHERE x >= 100000000))",
                timeout_ms=100,
            )
        assert db.last_governor["verdict"] == "timeout"


class TestCancellation:
    def test_cancel_from_another_thread(self):
        db = _big_edges_db()
        outcome = {}

        def run():
            try:
                db.execute(LONG_PAGERANK)
                outcome["error"] = "completed"
            except QueryCancelled:
                outcome["cancelled_at"] = time.perf_counter()
            except Exception as exc:  # pragma: no cover
                outcome["error"] = repr(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.15)  # let it get into the iteration loop
        signalled = db.cancel()
        cancelled_from = time.perf_counter()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert signalled == 1
        assert "cancelled_at" in outcome, outcome.get("error")
        # Cooperative latency is bounded by one SpMV round (~20ms on
        # this graph), far under this generous bound.
        assert outcome["cancelled_at"] - cancelled_from < 2.0
        # Session survives: the next statement runs normally.
        assert db.execute("SELECT count(*) FROM e").scalar() == 2_000_000
        db.close()

    def test_cancel_with_no_statement_running(self, db):
        assert db.cancel() == 0

    def test_cancel_does_not_poison_later_statements(self):
        db = _big_edges_db()
        outcome = {}

        def run():
            try:
                db.execute(LONG_PAGERANK)
            except QueryCancelled:
                outcome["cancelled"] = True

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.15)
        db.cancel()
        thread.join(timeout=10)
        assert outcome.get("cancelled")
        # The cancel token was per-statement: fresh statements are
        # unaffected, including a fresh (convergent) PAGERANK.
        first = db.execute(
            "SELECT vertex, rank FROM PAGERANK("
            "(SELECT src, dst FROM e), 0.85, 0.001, 3) "
            "ORDER BY vertex LIMIT 5"
        ).rows
        assert len(first) == 5
        db.close()


class TestMemoryBudget:
    def test_join_exceeds_budget(self):
        db = _edges_db(n_edges=20_000)
        with pytest.raises(MemoryBudgetExceeded):
            db.execute(
                "SELECT e1.src FROM e e1 JOIN e e2 ON e1.dst = e2.src",
                memory_budget_mb=0.1,
            )
        assert db.last_governor["verdict"] == "oom"
        assert db.last_governor["peak_bytes"] > 0

    def test_generous_budget_passes(self):
        db = _edges_db(n_edges=5_000)
        rows = db.execute(
            "SELECT count(*) FROM e", memory_budget_mb=256
        )
        assert rows.scalar() == 5_000
        assert db.last_governor["verdict"] == "ok"

    def test_iterate_releases_per_round(self, db):
        # ITERATE replaces its per-round reservation (2n semantics):
        # many rounds over a small relation stay within a small budget.
        assert db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x + 1 FROM iterate),"
            " (SELECT x FROM iterate WHERE x >= 500))",
            memory_budget_mb=1,
        ).scalar() == 500

    def test_budget_error_carries_report(self):
        db = _edges_db(n_edges=20_000)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            db.execute(
                "SELECT e1.src FROM e e1 JOIN e e2 ON e1.dst = e2.src",
                memory_budget_mb=0.1,
            )
        report = excinfo.value.report
        assert report["verdict"] == "oom"
        assert report["memory_budget_bytes"] == int(0.1 * 1024 * 1024)


class TestCountersAndReports:
    def test_governor_counters(self):
        db = _edges_db()
        with pytest.raises(QueryTimeout):
            # A deadline already in the past fires at the very first
            # checkpoint regardless of statement cost.
            db.execute(LONG_PAGERANK, timeout_ms=0.0001)
        with pytest.raises(MemoryBudgetExceeded):
            db.execute(
                "SELECT e1.src FROM e e1 JOIN e e2 ON e1.dst = e2.src",
                memory_budget_mb=0.1,
            )
        counters = db.metrics.snapshot()["counters"]
        assert counters["engine_queries_timed_out_total"] == 1
        assert counters["engine_queries_oom_aborted_total"] == 1
        assert "engine_queries_cancelled_total" not in counters

    def test_explain_analyze_reports_governor(self, people_db):
        analyzed = people_db.explain_analyze(
            "SELECT count(*) FROM people"
        )
        assert analyzed.governor["verdict"] == "ok"
        assert analyzed.governor["checkpoints"] > 0
        text = analyzed.format()
        assert "governor: verdict=ok" in text

    def test_explain_analyze_renders_limits(self, people_db):
        analyzed = people_db.explain_analyze(
            "SELECT count(*) FROM people", timeout_ms=60_000
        )
        assert "timeout_ms=60000" in analyzed.format()

    def test_last_governor_set_on_success(self, people_db):
        people_db.execute("SELECT 1")
        assert people_db.last_governor["verdict"] == "ok"


class TestStatementAtomicity:
    def test_timeout_rolls_back_autocommit_dml(self):
        db = _edges_db(n_edges=5_000)
        before = db.row_count("e")
        # The INSERT..SELECT's source query hits the deadline at a
        # checkpoint; nothing may be inserted.
        with pytest.raises(QueryTimeout):
            db.execute(
                "INSERT INTO e SELECT t1.src, t2.dst FROM e t1 "
                "JOIN e t2 ON t1.dst = t2.src",
                timeout_ms=1,
            )
        assert db.row_count("e") == before

    def test_governor_abort_keeps_open_txn_unwound(self):
        db = _edges_db(n_edges=5_000)
        db.begin()
        db.execute("INSERT INTO e VALUES (999991, 999992)")
        with pytest.raises(QueryTimeout):
            db.execute(LONG_PAGERANK, timeout_ms=0.0001)
        # The explicit transaction survives with its earlier write.
        assert db.in_transaction
        db.commit()
        assert db.execute(
            "SELECT count(*) FROM e WHERE src = 999991"
        ).scalar() == 1


class TestExecutemanyAtomicity:
    def test_interrupt_mid_batch_autocommit(self, db, monkeypatch):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(0,)])
        from repro.types import coerce_scalar as real_coerce

        calls = {"n": 0}

        def exploding(value, sql_type):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt()
            return real_coerce(value, sql_type)

        # Mixed Python types, so the batch converts cell by cell.
        monkeypatch.setattr(
            "repro.storage.column.coerce_scalar", exploding
        )
        with pytest.raises(KeyboardInterrupt):
            db.executemany(
                "INSERT INTO t VALUES (?)", [(1,), (2.0,), (3,), (4,)]
            )
        monkeypatch.undo()
        # The whole batch rolled back; the session is not mid-txn.
        assert not db.in_transaction
        assert db.execute("SELECT count(*) FROM t").scalar() == 1

    def test_interrupt_mid_batch_inside_open_txn(
        self, db, monkeypatch
    ):
        db.execute("CREATE TABLE t (a INTEGER)")
        from repro.types import coerce_scalar as real_coerce

        calls = {"n": 0}

        def exploding(value, sql_type):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt()
            return real_coerce(value, sql_type)

        db.begin()
        db.execute("INSERT INTO t VALUES (100)")
        # Mixed Python types, so the batch converts cell by cell.
        monkeypatch.setattr(
            "repro.storage.column.coerce_scalar", exploding
        )
        with pytest.raises(KeyboardInterrupt):
            db.executemany(
                "INSERT INTO t VALUES (?)", [(1,), (2.0,), (3,), (4,)]
            )
        monkeypatch.undo()
        # The batch unwound to its savepoint; the earlier statement of
        # the transaction is intact and the txn still open.
        assert db.in_transaction
        db.commit()
        assert db.execute("SELECT a FROM t ORDER BY a").rows == [(100,)]

    def test_per_row_loop_unwinds_to_savepoint(self, db):
        db.execute("CREATE TABLE t (id INTEGER, a INTEGER)")
        db.insert_rows("t", [(1, 10), (2, 20)])
        db.begin()
        db.execute("UPDATE t SET a = 99 WHERE id = 1")
        with pytest.raises(repro.ReproError):
            # Second tuple's value cannot coerce to INTEGER: the batch
            # fails mid-way and must unwind, keeping the earlier UPDATE.
            db.executemany(
                "UPDATE t SET a = ? WHERE id = ?",
                [(7, 1), ("boom", 2)],
            )
        assert db.in_transaction
        db.commit()
        assert db.execute(
            "SELECT a FROM t ORDER BY id"
        ).rows == [(99,), (20,)]

    def test_savepoint_rollback_to(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.begin()
        txn = db.default_session.txn
        db.execute("INSERT INTO t VALUES (1)")
        savepoint = txn.savepoint()
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("CREATE TABLE u (b INTEGER)")
        txn.rollback_to(savepoint)
        db.commit()
        assert db.execute("SELECT a FROM t").rows == [(1,)]
        assert "u" not in db.table_names()

    def test_savepoint_requires_active_txn(self, db):
        db.begin()
        txn = db.default_session.txn
        db.commit()
        with pytest.raises(TransactionError):
            txn.savepoint()


class TestWorkerPoolRobustness:
    def test_double_close_is_noop(self, db):
        db.close()
        db.close()  # must not raise
        # And the session respawns workers on demand afterwards.
        db.execute("CREATE TABLE t (a INTEGER)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 0

    def test_pool_shutdown_idempotent(self):
        from repro.exec.parallel import WorkerPool

        pool = WorkerPool(2)
        pool.map_ordered(lambda x: x + 1, [1, 2, 3])
        pool.shutdown()
        pool.shutdown()

    def test_worker_crash_retried_serially(self):
        injector = ChaosInjector("worker_crash", 1).arm()
        db = repro.Database(
            workers=2, parallel_threshold=0, morsel_rows=32,
            chaos=injector,
        )
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(1_000)])
        # The injected crash on a worker thread is retried serially on
        # the coordinator: the query still answers correctly.
        assert db.execute(
            "SELECT sum(a) FROM t WHERE a >= 0"
        ).scalar() == 499_500
        assert injector.fired
        counters = db.metrics.snapshot()["counters"]
        assert counters.get("parallel_morsel_retries_total", 0) >= 1
        db.close()
