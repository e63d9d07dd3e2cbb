"""``dml_commit`` — the write path.

Embedded ``Database(wal_path=..., checkpoint_bytes=16 MiB)``, fsync per
commit (the engine default; the latencies are the sandbox file
system's, not a device's), one client:

(a) single-row autocommit ``UPDATE`` / ``DELETE`` / ``INSERT`` and a
    two-statement transfer transaction on a 20,000-row table that was
    loaded through the WAL (the auto-checkpoint fires on the way);
(b) ``INSERT INTO t SELECT ...`` of 50,000 rows into a fresh table;
(c) ``db.checkpoint()``, close, then reopen-and-recover cycles.

``txn.wal``, ``txn.checkpoint``, row-at-a-time DML and encode-at-commit
do all the work here and none in ``olap``: this is the *write* side of
the same storage layer, so a read win bought with write cost shows.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import repro
from repro.errors import ReproError

import gen
import stages
from base import Workload
from harness import Metric, clock, timebox

ACCT_ROWS = 20_000
BULK_ROWS = 50_000
CHECKPOINT_BYTES = 16 << 20
#: UPDATEs logged after a checkpoint to time WAL replay at recovery.
REPLAY_SUFFIX = 5

UPDATE = "UPDATE acct SET bal = bal + 1 WHERE id = ?"
DELETE = "DELETE FROM acct WHERE id = ?"
INSERT = "INSERT INTO acct VALUES (?, ?, ?)"
DEBIT = "UPDATE acct SET bal = bal - 1 WHERE id = ?"
BULK = "INSERT INTO t SELECT a, b, c FROM src"
POINT = "SELECT id, bal, owner FROM acct WHERE id = ?"
REREAD = "SELECT id, bal, owner FROM acct"


class DmlCommit(Workload):
    name = "dml_commit"
    SLOTS = (
        "commit_p50_ms", "insert_commit_ms", "recovery_ms",
        "delete_commit_ms", "bulk_insert_ms", "transfer_ms",
    )

    def __init__(self, seed: int, workdir: Path, min_samples: int):
        super().__init__(seed, workdir, min_samples)
        self.wal_path = str(workdir / "db.wal")
        self.rng = np.random.default_rng([seed, 8])
        self.checkpoints = 0
        self._counter_base: dict[str, float] = {}

    # -- set-up -----------------------------------------------------------

    def _open(self):
        return repro.Database(
            wal_path=self.wal_path, checkpoint_bytes=CHECKPOINT_BYTES)

    def setup(self) -> None:
        """Generate, load ``acct`` through the WAL, load the bulk source
        and warm the statements up."""
        self.acct = gen.acct(self.seed, ACCT_ROWS)
        self.src = gen.bulk_source(self.seed, BULK_ROWS)
        #: id -> (bal, owner): what every acknowledged statement leaves.
        self.expected = {row[0]: row[1:] for row in self.acct.rows()}
        self.ids = self.acct.columns["id"]
        self.db = self._open()
        self.db.execute(self.acct.ddl)
        self.db.insert_rows("acct", self.acct.rows())
        started = clock()
        self.src.load(self.db)
        self.load_seconds = clock() - started
        for _ in range(2):
            self._dml_cycle({}, None)

    def counters(self) -> dict:
        """Cumulative counters across every ``Database`` this workload
        has opened (a reopen starts a fresh registry)."""
        merged = dict(self._counter_base)
        for name, value in self.db.metrics.snapshot()["counters"].items():
            merged[name] = merged.get(name, 0.0) + value
        return {"counters": merged}

    def _retire_db(self) -> None:
        self._counter_base = self.counters()["counters"]
        self.db.close()

    # -- the closed loop --------------------------------------------------

    def _timed(self, samples: dict, alias: str, tracer, sql, params=None):
        started = clock()
        result = self._execute(sql, params, tracer, alias)
        samples.setdefault(alias, []).append((clock() - started) * 1e3)
        return result

    def _pick(self) -> int:
        return int(self.ids[self.rng.integers(0, ACCT_ROWS)])

    def _dml_cycle(self, samples: dict, tracer) -> None:
        """One UPDATE, one DELETE + INSERT of the same row, one transfer;
        ``expected`` follows every acknowledged change."""
        key = self._pick()
        acked = self._timed(samples, "commit_p50_ms", tracer, UPDATE, [key])
        if acked is not None:
            bal, owner = self.expected[key]
            self.expected[key] = (bal + 1, owner)
        key = self._pick()
        row = self.expected[key]
        acked = self._timed(samples, "delete_commit_ms", tracer, DELETE, [key])
        if acked is not None:
            del self.expected[key]
        acked = self._timed(
            samples, "insert_commit_ms", tracer, INSERT, [key, *row])
        if acked is not None:
            self.expected[key] = row
        debit, credit = self._pick(), self._pick()
        started = clock()
        done = [
            self._execute(sql, params, tracer, "transfer_ms")
            for sql, params in (
                ("BEGIN", None), (DEBIT, [debit]), (UPDATE, [credit]),
                ("COMMIT", None),
            )
        ]
        samples.setdefault("transfer_ms", []).append((clock() - started) * 1e3)
        if None not in done:
            for key, delta in ((debit, -1), (credit, 1)):
                bal, owner = self.expected[key]
                self.expected[key] = (bal + delta, owner)

    def _bulk_insert(self, samples: dict, tracer) -> None:
        self._execute("DROP TABLE IF EXISTS t")
        self._execute("CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR)")
        self._timed(samples, "bulk_insert_ms", tracer, BULK)

    def _reopen(self, samples: dict, tracer) -> None:
        self._retire_db()
        self.attempted += 1
        started = clock()
        try:
            if tracer is None:
                self.db = self._open()
            else:
                with tracer.span("api.open", stmt="recovery_ms"):
                    self.db = self._open()
        except ReproError:
            self.failed += 1
            raise
        samples.setdefault("recovery_ms", []).append((clock() - started) * 1e3)
        samples.setdefault("recovery_reported_ms", []).append(
            self.db.last_recovery["duration_seconds"] * 1e3)

    def measure(self, seconds: float, tracer=None) -> dict[str, Metric]:
        samples: dict[str, list[float]] = {}
        before = self.counters()
        for _cycle in timebox(seconds * 0.4, self.min_samples):
            self._dml_cycle(samples, tracer)
        # A fixed count, so the recovered state does not depend on speed.
        for _ in range(self.min_samples):
            self._bulk_insert(samples, tracer)
        started = clock()
        self.attempted += 1
        self.db.checkpoint()
        samples["checkpoint_ms"] = [(clock() - started) * 1e3]
        self.snapshot_bytes = self.db.last_checkpoint["snapshot_bytes"]
        for _cycle in timebox(seconds * 0.25, self.min_samples):
            self._reopen(samples, tracer)
        self.checkpoints = int(stages.counter_delta(
            before, self.counters(), "wal_checkpoints_total"))
        out = {a: Metric.of(v, "ms") for a, v in samples.items()}
        out["bulk_rows_per_s"] = Metric(
            BULK_ROWS / (out["bulk_insert_ms"].value / 1e3), "rows/s",
            count=out["bulk_insert_ms"].count,
        )
        return out

    # -- output check -----------------------------------------------------

    def verify(self) -> list[str]:
        """Every acknowledged row, re-read after the last recovery."""
        problems = []
        got = {
            int(r[0]): (int(r[1]), str(r[2]))
            for r in self.db.execute(REREAD).rows
        }
        if got != self.expected:
            problems.append("acct differs from the acknowledged writes")
        copied = sorted(
            (int(a), float(b), str(c))
            for a, b, c in self.db.execute("SELECT a, b, c FROM t").rows
        )
        if copied != self.src.rows():
            problems.append("t differs from the bulk source")
        return problems

    # -- per-layer metrics (traced pass) ----------------------------------

    def _wal_delta(self, sql: str, params) -> int:
        """WAL bytes one statement appends (retried if an
        auto-checkpoint truncated the log underneath it)."""
        while True:
            before = os.path.getsize(self.wal_path)
            self.db.execute(sql, params)
            delta = os.path.getsize(self.wal_path) - before
            if delta > 0:
                return delta

    def layers(self, seconds, tracer, plain, before, after) -> dict:
        out: dict[str, Metric] = {}
        key = self._pick()
        row = self.expected[key]
        out["txn.wal_bytes_per_update"] = Metric(
            self._wal_delta(UPDATE, [key]), "count", count=1)
        self.db.execute(DELETE, [key])
        out["txn.wal_bytes_per_insert"] = Metric(
            self._wal_delta(INSERT, [key, row[0] + 1, row[1]]), "count",
            count=1)
        self.db.execute("DROP TABLE IF EXISTS t")
        self.db.execute("CREATE TABLE t (a INTEGER, b FLOAT, c VARCHAR)")
        bulk_bytes = self._wal_delta(BULK, None)
        user_bytes = self.db.storage_stats()["tables"]["t"]["raw_bytes"]
        out["txn.wal_bytes_per_user_byte"] = Metric(
            bulk_bytes / user_bytes, "ratio", count=1)

        # The same UPDATE on a twin without a WAL.
        twin = repro.Database()
        try:
            self.acct.load(twin)
            samples = []
            for _ in range(self.min_samples + 1):
                started = clock()
                twin.execute(UPDATE, [self._pick()])
                samples.append((clock() - started) * 1e3)
            out["txn.inmem_update_ms"] = Metric.of(samples[1:], "ms")
        finally:
            twin.close()
        out["txn.durable_overhead_ms"] = Metric(
            plain["commit_p50_ms"].value - out["txn.inmem_update_ms"].value,
            "ms")
        out["txn.checkpoint_ms"] = plain["checkpoint_ms"]
        out["txn.checkpoint_count"] = Metric(self.checkpoints, "count")
        out["txn.snapshot_bytes"] = Metric(self.snapshot_bytes, "bytes")
        out["txn.recovery_snapshot_ms"] = plain["recovery_reported_ms"]

        # Recovery with a WAL suffix to replay on top of the snapshot.
        self.db.checkpoint()
        for _ in range(REPLAY_SUFFIX):
            self.db.execute(UPDATE, [self._pick()])
        self.db.close()
        with tracer.span("api.open", stmt="replay"):
            self.db = self._open()
        out["txn.recovery_replay_ms"] = Metric(
            self.db.last_recovery["duration_seconds"] * 1e3
            - out["txn.recovery_snapshot_ms"].value,
            "ms", count=self.db.last_recovery["operations_replayed"],
        )

        selects = [(POINT, [key]), (REREAD, None)]
        out.update(stages.stage_metrics(
            self.db, tracer, selects, seconds * 0.1, self.min_samples))
        out.update(stages.operator_shares(self.db, selects))
        out.update(self.api_metrics(
            POINT, lambda i: [self._pick()], seconds * 0.05))
        out.update(self.storage_metrics(BULK_ROWS, self.load_seconds))
        return out
