"""Concurrency: analytical snapshots under transactional churn —
the HyPer one-system story the paper builds on (section 3)."""

import threading

import numpy as np
import pytest

import repro
from repro.errors import SerializationConflict


class TestAnalyticsUnderWrites:
    def test_kmeans_sees_consistent_snapshot(self):
        db = repro.Database()
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        rng = np.random.default_rng(0)
        db.load_columns(
            "pts", {"x": rng.random(500), "y": rng.random(500)}
        )

        analysis = db.txns.begin()
        # A writer commits new points mid-"analysis".
        writer = db.txns.begin()
        writer.insert_rows("pts", [(100.0, 100.0)] * 50)
        writer.commit()

        # The analysis snapshot still has 500 points.
        assert analysis.read("pts").row_count == 500
        analysis.commit()
        assert db.row_count("pts") == 550

    def test_query_results_stable_within_explicit_txn(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        db.begin()
        before = db.execute("SELECT sum(a) FROM t").scalar()
        other = db.txns.begin()
        other.insert_rows("t", [(100,)])
        other.commit()
        after = db.execute("SELECT sum(a) FROM t").scalar()
        db.commit()
        assert before == after == 3
        assert db.execute("SELECT sum(a) FROM t").scalar() == 103

    def test_threaded_readers_with_writer(self):
        """Readers in threads always see a consistent version while a
        writer keeps appending batches of a known size."""
        db = repro.Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(0,)] * 10)
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                count = db.execute("SELECT count(*) FROM t").scalar()
                # Writer inserts in chunks of 10: any consistent
                # snapshot has a multiple of 10.
                if count % 10 != 0:
                    errors.append(f"torn read: {count}")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(20):
            db.insert_rows("t", [(1,)] * 10)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert db.row_count("t") == 210

    def test_writer_conflict_under_threads(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(0,)])
        outcomes: list[str] = []
        barrier = threading.Barrier(2)
        lock = threading.Lock()

        def contender(value):
            txn = db.txns.begin()
            txn.insert_rows("t", [(value,)])
            barrier.wait()  # both hold overlapping snapshots
            try:
                txn.commit()
                result = "committed"
            except SerializationConflict:
                result = "aborted"
            with lock:
                outcomes.append(result)

        threads = [
            threading.Thread(target=contender, args=(v,))
            for v in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["aborted", "committed"]
        assert db.row_count("t") == 2  # original + one winner

    def test_vacuum_after_churn(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        # A commit drops the versions it supersedes by itself ...
        for i in range(10):
            db.insert_rows("t", [(i,)])
        assert len(db.catalog.table("t").versions) == 1
        assert db.vacuum() == 0
        # ... unless a snapshot can still see them; what it pinned goes
        # with the next vacuum after it ends.
        reader = db.txns.begin()
        for i in range(10, 20):
            db.insert_rows("t", [(i,)])
        assert len(db.catalog.table("t").versions) == 11
        assert reader.read("t").row_count == 10
        reader.commit()
        freed = db.vacuum()
        assert freed == 10
        assert db.execute("SELECT count(*) FROM t").scalar() == 20
        # Data still fully queryable post-vacuum.
        assert db.execute("SELECT sum(a) FROM t").scalar() == sum(
            range(20)
        )

    def test_long_analytics_query_then_vacuum(self):
        db = repro.Database()
        db.execute("CREATE TABLE e (src INTEGER, dest INTEGER)")
        db.insert_rows("e", [(i, (i + 1) % 50) for i in range(50)])
        reader = db.txns.begin()
        db.insert_rows("e", [(0, 25)])
        db.vacuum()  # must not free the reader's version
        assert reader.read("e").row_count == 50
        reader.commit()
        db.vacuum()
