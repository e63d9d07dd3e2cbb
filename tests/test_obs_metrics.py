"""The metrics registry, engine counters, exporters, and telemetry."""

import json

import pytest

import repro
from repro.errors import ReproError
from repro.obs.export import (
    main as export_main,
    to_json,
    to_prometheus,
    validate_exposition,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    global_registry,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.snapshot()["counters"]["hits"] == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("active")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert reg.snapshot()["gauges"]["active"] == 2

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("stmt", kind="Select").inc()
        reg.counter("stmt", kind="Insert").inc(2)
        counters = reg.snapshot()["counters"]
        assert counters['stmt{kind="Select"}'] == 1
        assert counters['stmt{kind="Insert"}'] == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x")

    def test_histogram_counts_and_sum(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = reg.snapshot()["histograms"]["latency"]
        assert snap["counts"] == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert hist.cumulative() == [1, 2, 3]

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)

    def test_parent_mirroring(self):
        parent = MetricsRegistry()
        child_a = MetricsRegistry(parent=parent)
        child_b = MetricsRegistry(parent=parent)
        child_a.counter("ops").inc(2)
        child_b.counter("ops").inc(3)
        assert child_a.snapshot()["counters"]["ops"] == 2
        assert parent.snapshot()["counters"]["ops"] == 5

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}

    def test_database_mirrors_into_global(self):
        before = (
            global_registry()
            .snapshot()["counters"]
            .get('statements_total{kind="SelectStatement"}', 0)
        )
        repro.Database().execute("SELECT 1")
        after = global_registry().snapshot()["counters"][
            'statements_total{kind="SelectStatement"}'
        ]
        assert after == before + 1


class TestEngineCounters:
    def test_snapshot_nonempty_after_analytics_workload(self, db):
        """Acceptance: metrics flow from the txn layer, executor, and
        analytics after a k-Means + PageRank + ITERATE workload."""
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.insert_rows(
            "pts", [(0.0, 0.1), (0.2, 0.0), (5.0, 5.1), (5.2, 4.9)]
        )
        db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
        db.insert_rows("edges", [(1, 2), (2, 3), (3, 1)])
        db.execute(
            "SELECT * FROM KMEANS((SELECT x, y FROM pts),"
            " (SELECT x, y FROM pts LIMIT 2), 10)"
        )
        db.execute(
            "SELECT * FROM PAGERANK((SELECT src, dest FROM edges),"
            " 0.85, 0.0001, 50)"
        )
        db.execute(
            "SELECT * FROM ITERATE((SELECT 1 AS n),"
            " (SELECT n + 1 FROM iterate),"
            " (SELECT n FROM iterate WHERE n >= 3))"
        )
        snap = db.metrics.snapshot()
        counters = snap["counters"]
        assert counters["txn_commits_total"] > 0
        assert counters["storage_rows_inserted_total"] == 7
        assert counters["exec_rows_scanned_total"] > 0
        assert counters["exec_iterations_total"] > 0
        assert counters['statements_total{kind="SelectStatement"}'] == 3
        assert snap["histograms"]["statement_seconds"]["count"] > 0
        # Always-on operator profiling feeds per-class histograms.
        assert any(
            s.startswith("operator_self_seconds")
            for s in snap["histograms"]
        )

    def test_dml_counters(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,), (3,)])
        db.execute("UPDATE t SET v = v + 1 WHERE v >= 2")
        db.execute("DELETE FROM t WHERE v = 4")
        counters = db.metrics.snapshot()["counters"]
        assert counters["storage_rows_inserted_total"] == 3
        assert counters["storage_rows_updated_total"] == 2
        assert counters["storage_rows_deleted_total"] == 1

    def test_rollback_and_error_counters(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.begin()
        db.execute("INSERT INTO t VALUES (1)")
        db.rollback()
        with pytest.raises(ReproError):
            db.execute("SELECT * FROM missing")
        counters = db.metrics.snapshot()["counters"]
        assert counters["txn_rollbacks_total"] >= 1
        assert counters["statement_errors_total"] == 1

    def test_bulk_executemany_is_one_measured_statement(self, db):
        # The bulk-INSERT fast path goes through the same statement
        # wrapper as everything else: one statement_seconds observation
        # per batch, and a failing batch counts as a statement error.
        db.execute("CREATE TABLE t (v INTEGER NOT NULL)")

        def seconds_count():
            hist = db.metrics.snapshot()["histograms"]
            return hist["statement_seconds"]["count"]

        before = seconds_count()
        assert db.executemany(
            "INSERT INTO t VALUES (?)", [(1,), (2,), (3,)]
        ) == 3
        assert seconds_count() == before + 1
        with pytest.raises(ReproError):
            db.executemany("INSERT INTO t VALUES (?)", [(4,), (None,)])
        assert seconds_count() == before + 2
        counters = db.metrics.snapshot()["counters"]
        assert counters["statement_errors_total"] == 1
        assert db.history(1)[0].error is not None
        assert db.execute("SELECT count(*) FROM t").scalar() == 3

    def test_wal_bytes_counter(self, tmp_path):
        db = repro.Database(wal_path=str(tmp_path / "wal.jsonl"))
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        written = db.metrics.snapshot()["counters"][
            "wal_bytes_written_total"
        ]
        assert written > 0
        assert written <= (tmp_path / "wal.jsonl").stat().st_size

    def test_vacuum_counter(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,)])
        db.insert_rows("t", [(2,)])
        db.vacuum()
        counters = db.metrics.snapshot()["counters"]
        assert counters["storage_versions_vacuumed_total"] >= 1


class TestConvergenceTelemetry:
    def test_kmeans_inertia_monotone(self, db):
        """Acceptance: Lloyd iterations never increase the inertia."""
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.insert_rows(
            "pts",
            [
                (0.0, 0.0), (0.3, 0.1), (0.1, 0.4), (1.0, 0.8),
                (5.0, 5.0), (5.3, 5.2), (4.8, 5.1), (6.0, 5.5),
            ],
        )
        result = db.execute(
            "SELECT * FROM KMEANS((SELECT x, y FROM pts),"
            " (SELECT x, y FROM pts LIMIT 2), 20)"
        )
        telemetry = result.telemetry["kmeans"]
        inertia = telemetry["inertia"]
        assert len(inertia) == telemetry["iterations"] >= 1
        assert all(b <= a * (1 + 1e-9) for a, b in zip(inertia, inertia[1:]))
        assert len(telemetry["center_shift"]) == telemetry["iterations"]
        assert telemetry["center_shift"][-1] >= 0.0

    def test_pagerank_residuals(self, db):
        db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
        db.insert_rows(
            "edges", [(1, 2), (2, 3), (3, 1), (3, 4), (4, 2)]
        )
        result = db.execute(
            "SELECT * FROM PAGERANK((SELECT src, dest FROM edges),"
            " 0.85, 0.000001, 100)"
        )
        telemetry = result.telemetry["pagerank"]
        residuals = telemetry["residual_l1"]
        assert len(residuals) == telemetry["iterations"] >= 1
        # Power iteration on a stochastic matrix contracts the residual.
        assert residuals[-1] < residuals[0]

    def test_naive_bayes_class_counts(self, db):
        db.execute("CREATE TABLE train (label INTEGER, f FLOAT)")
        db.insert_rows(
            "train", [(0, 1.0)] * 3 + [(1, 5.0)] * 2
        )
        result = db.execute(
            "SELECT * FROM NAIVE_BAYES_TRAIN("
            "(SELECT label, f FROM train))"
        )
        telemetry = result.telemetry["naive_bayes"]
        assert telemetry["class_counts"] == [3, 2]
        assert len(telemetry["classes"]) == 2
        assert sum(telemetry["priors"]) == pytest.approx(1.0)

    def test_telemetry_empty_without_analytics(self, db):
        assert db.execute("SELECT 1").telemetry == {}


class TestExport:
    def _workload_db(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        db.execute("SELECT sum(v) FROM t")
        return db

    def test_prometheus_exposition_is_valid(self):
        db = self._workload_db()
        text = to_prometheus(db.metrics)
        assert validate_exposition(text) == []
        assert "# TYPE txn_commits_total counter" in text
        assert "statement_seconds_bucket" in text
        assert 'le="+Inf"' in text

    def test_json_dump_round_trips(self):
        db = self._workload_db()
        payload = json.loads(to_json(db.metrics))
        assert payload["counters"]["txn_commits_total"] >= 2
        hist = payload["histograms"]["statement_seconds"]
        assert hist["count"] == sum(hist["counts"])

    def test_validate_flags_problems(self):
        assert validate_exposition("what is this") != []
        assert validate_exposition("orphan_total 3") != []
        dup = "# TYPE a counter\na 1\na 2"
        assert any("duplicate series" in p for p in validate_exposition(dup))

    def test_summary_quantiles_golden_output(self):
        # Deterministic histogram: 10 observations per bucket, so the
        # whole exposition — including the interpolated p50/p95/p99
        # summary family — is byte-exact.
        reg = MetricsRegistry()
        hist = reg.histogram("latency_seconds", buckets=(1.0, 2.0, 4.0))
        for value in [0.5] * 10 + [1.5] * 10 + [3.0] * 10:
            hist.observe(value)
        reg.counter("requests_total", route="q").inc(7)
        golden = (
            '# TYPE latency_seconds histogram\n'
            'latency_seconds_bucket{le="1"} 10\n'
            'latency_seconds_bucket{le="2"} 20\n'
            'latency_seconds_bucket{le="4"} 30\n'
            'latency_seconds_bucket{le="+Inf"} 30\n'
            'latency_seconds_sum 50\n'
            'latency_seconds_count 30\n'
            '# TYPE latency_seconds_summary gauge\n'
            'latency_seconds_summary{quantile="0.5"} 1.5\n'
            'latency_seconds_summary{quantile="0.95"} 3.7\n'
            'latency_seconds_summary{quantile="0.99"} 3.94\n'
            '# TYPE requests_total counter\n'
            'requests_total{route="q"} 7\n'
        )
        text = to_prometheus(reg)
        assert text == golden
        assert validate_exposition(text) == []

    def test_quantile_interpolation_and_clamp(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None
        for value in (0.5, 0.5, 1.5, 1.5):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        # +Inf-bucket observations clamp to the highest finite bound.
        overflow = reg.histogram("o", buckets=(1.0, 2.0))
        overflow.observe(50.0)
        assert overflow.quantile(0.99) == 2.0

    def test_session_statement_summary_exported(self):
        db = self._workload_db()
        text = to_prometheus(db.metrics)
        assert "# TYPE statement_seconds_summary gauge" in text
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in text

    def test_cli_check_passes(self, capsys):
        assert export_main(["--check"]) == 0
        out = capsys.readouterr().out
        assert "observability smoke OK" in out

    def test_cli_json_format(self, capsys):
        assert export_main(["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]


class TestBenchSnapshot:
    def test_write_bench_json_embeds_metrics(self, tmp_path):
        from repro.bench.runner import (
            BenchResult, SeriesTable, write_bench_json,
        )

        table = SeriesTable("demo", "n", ["iterate"])
        table.add(BenchResult("iterate", 10, 0.5))
        reg = MetricsRegistry()
        reg.counter("exec_iterations_total").inc(7)
        path = write_bench_json(
            "demo", table, directory=str(tmp_path),
            metrics=reg.snapshot(),
        )
        assert path.endswith("BENCH_demo.json")
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["experiment"] == "demo"
        assert payload["results"][0]["series"] == "iterate"
        assert (
            payload["metrics"]["counters"]["exec_iterations_total"] == 7
        )


class TestFuzzCounters:
    def test_oracle_counts_queries(self):
        from repro.testing.oracle import run_seed

        before = global_registry().snapshot()["counters"].get(
            "fuzz_queries_total", 0
        )
        run_seed(0, queries_per_seed=1)
        after = global_registry().snapshot()["counters"][
            "fuzz_queries_total"
        ]
        assert after >= before + 1


class TestThreadSafety:
    """Concurrent hammer: morsel workers update shared metrics, so a
    registry that drops updates under contention would silently corrupt
    every parallel run's telemetry. Totals must be exact."""

    N_THREADS = 8
    N_INCREMENTS = 2_000

    def _hammer(self, worker):
        import threading

        threads = [
            threading.Thread(target=worker)
            for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("hammer_total")

        def worker():
            for _ in range(self.N_INCREMENTS):
                counter.inc()

        self._hammer(worker)
        assert counter.value == self.N_THREADS * self.N_INCREMENTS

    def test_concurrent_mirrored_counter_is_exact_in_both(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        counter = child.counter("hammer_total")

        def worker():
            for _ in range(self.N_INCREMENTS):
                counter.inc(2.0)

        self._hammer(worker)
        expected = 2.0 * self.N_THREADS * self.N_INCREMENTS
        assert counter.value == expected
        assert parent.counter("hammer_total").value == expected

    def test_concurrent_gauge_inc_dec_balances(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("hammer_gauge")

        def worker():
            for _ in range(self.N_INCREMENTS):
                gauge.inc()
                gauge.dec()

        self._hammer(worker)
        assert gauge.value == 0.0

    def test_concurrent_histogram_stays_consistent(self):
        reg = MetricsRegistry()
        hist = reg.histogram("hammer_seconds")

        def worker():
            for i in range(self.N_INCREMENTS):
                hist.observe(1e-5 * (i % 7))

        self._hammer(worker)
        total = self.N_THREADS * self.N_INCREMENTS
        assert hist.count == total
        assert sum(hist.counts) == total
        per_thread = sum(1e-5 * (i % 7) for i in range(self.N_INCREMENTS))
        assert hist.sum == pytest.approx(self.N_THREADS * per_thread)

    def test_concurrent_registration_yields_one_family(self):
        import threading

        reg = MetricsRegistry()
        barrier = threading.Barrier(self.N_THREADS)

        def worker():
            barrier.wait()
            for i in range(200):
                reg.counter("race_total", worker=str(i % 4)).inc()

        self._hammer(worker)
        counters = reg.snapshot()["counters"]
        series = [s for s in counters if s.startswith("race_total")]
        assert len(series) == 4
        assert sum(counters[s] for s in series) == self.N_THREADS * 200
