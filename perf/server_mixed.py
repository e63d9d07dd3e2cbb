"""``server_mixed`` — statement-rate-bound traffic through the wire.

``python -m repro.server --port 0 --wal <tmp>/db.wal`` runs as a
subprocess recovered from a checkpoint the harness prepared (table
``points``, 100,000 rows). Two ``Client`` connections each follow a
seeded schedule, closed loop: 90 % ``point`` (parameterised key lookup,
a plan-cache hit), 5 % ``fetch`` (a 1,000-row range result, bound by
serialisation) and 5 % ``write`` (single-row autocommit ``INSERT`` into
a per-connection ``events_<k>`` table, fsync per commit; the tables are
per connection so contention is not what is measured).

This is the only workload where ``server.protocol``, admission and
session handling, parse + fingerprint + plan-cache lookup, history
recording and result serialisation dominate and ``exec`` does almost
nothing; reads and durable writes share one GIL-bound server.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import repro
from repro.errors import ReproError
from repro.server import Client
from repro.server.protocol import decode_payload, encode_frame, result_payload

import gen
import stages
from base import Workload
from harness import ROOT, Metric, clock, peak_rss_mib

POINT_ROWS = 100_000
CONNECTIONS = 2
SCHEDULE_LENGTH = 100_000
WARMUP_STATEMENTS = 100
STARTUP_TIMEOUT_S = 60.0
PAYLOAD = "x" * 24
#: A fresh connection costs ~2 ms, so ten times the minimum is cheap.
CONNECTS_PER_SAMPLE = 10

POINT_SQL = "SELECT id, grp, val, tag FROM points WHERE id = ?"
FETCH_SQL = "SELECT id, grp, val, tag FROM points WHERE id >= ? AND id < ?"
KIND_NAMES = {gen.POINT: "point", gen.FETCH: "fetch", gen.WRITE: "write"}


def parse_metrics(text: str) -> dict:
    """Prometheus exposition -> ``{"counters": {series: value}}`` (every
    sample line, histogram buckets included)."""
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return {"counters": series}


def histogram_p50(before: dict, after: dict, name: str) -> float:
    """Median of a Prometheus histogram over a snapshot delta, linearly
    interpolated inside the bucket that holds it."""
    buckets = []
    for key, value in after["counters"].items():
        match = re.fullmatch(rf'{name}_bucket{{.*le="([^"]+)".*}}', key)
        if match and match.group(1) != "+Inf":
            delta = value - before["counters"].get(key, 0.0)
            buckets.append((float(match.group(1)), delta))
    buckets.sort()
    total = stages.counter_delta(before, after, f"{name}_count")
    if not buckets or total <= 0:
        return 0.0
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= total / 2:
            inside = count - lower_count
            share = (total / 2 - lower_count) / inside if inside else 0.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return buckets[-1][0]


class _Connection:
    """One client connection with its schedule position and what it
    has been acknowledged so far."""

    def __init__(self, index: int, client: Client, schedule):
        self.index = index
        self.client = client
        self.kind, self.key = schedule
        self.position = 0
        self.write_sql = f"INSERT INTO events_{index} VALUES (?, ?, ?)"
        self.acked_seqs: list[int] = []
        #: (kind, key, rows) of every read, checked after the run.
        self.reads: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def step(self, latencies: dict, tracer) -> None:
        slot = self.position % SCHEDULE_LENGTH
        kind, key = int(self.kind[slot]), int(self.key[slot])
        seq = self.position
        self.position += 1
        self.attempted += 1
        if kind == gen.POINT:
            sql, params = POINT_SQL, [key]
        elif kind == gen.FETCH:
            sql, params = FETCH_SQL, [key, key + gen.FETCH_ROWS]
        else:
            sql, params = self.write_sql, [seq, self.index, PAYLOAD]
        started = clock()
        try:
            if tracer is None:
                rows = self.client.query(sql, params).rows
            else:
                with tracer.span(f"client.{KIND_NAMES[kind]}", stmt=seq):
                    rows = self.client.query(sql, params).rows
        except ReproError:
            self.failed += 1
            return
        latencies[kind].append((clock() - started) * 1e3)
        if kind == gen.WRITE:
            self.acked_seqs.append(seq)
        else:
            self.reads.append((kind, key, rows))


class ServerMixed(Workload):
    name = "server_mixed"
    SLOTS = (
        "stmt_ms", "point_p50_ms", "point_p99_ms", "fetch_p50_ms",
        "commit_p50_ms", "connect_ms",
    )

    def __init__(self, seed: int, workdir: Path, min_samples: int):
        super().__init__(seed, workdir, min_samples)
        self.wal_path = str(workdir / "db.wal")
        self.process = None
        self.connections: list[_Connection] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate, prepare the checkpoint, start the server (which
        recovers from it), connect and warm up."""
        self.points = gen.points(self.seed, POINT_ROWS)
        prepared = repro.Database(wal_path=self.wal_path)
        try:
            self.points.load(prepared)
            for k in range(CONNECTIONS):
                prepared.execute(
                    f"CREATE TABLE events_{k} "
                    "(seq INTEGER, conn INTEGER, payload VARCHAR)")
            prepared.checkpoint()
        finally:
            prepared.close()
        self._start_server()
        for k in range(CONNECTIONS):
            connection = _Connection(
                k, Client("127.0.0.1", self.port),
                gen.schedule(self.seed, k, SCHEDULE_LENGTH, POINT_ROWS),
            )
            self.connections.append(connection)
            warmup = {kind: [] for kind in KIND_NAMES}
            for _ in range(WARMUP_STATEMENTS):
                connection.step(warmup, None)

    def _start_server(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--wal", self.wal_path],
            stdout=subprocess.PIPE, text=True, env=env, cwd=self.workdir,
        )
        deadline = clock() + STARTUP_TIMEOUT_S
        while clock() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                return
        self.close()
        raise RuntimeError("repro.server did not start")

    def close(self) -> None:
        for connection in self.connections:
            connection.client.close()
        self.connections = []
        if self.process is not None:
            self.process.terminate()
            self.process.wait()
            self.process.stdout.close()
            self.process = None
        super().close()

    def counters(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            return parse_metrics(response.read().decode("utf-8"))

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.process.pid)

    def config(self) -> dict:
        return {"server": self.process.args[1:], "engine": "defaults"}

    # -- the closed loop --------------------------------------------------

    def _drive(self, connection, seconds, latencies, tracer) -> None:
        per_class = max(self.min_samples // CONNECTIONS, 1)
        started = clock()
        while (
            clock() - started < seconds
            or len(latencies[gen.FETCH]) < per_class
            or len(latencies[gen.WRITE]) < per_class
        ):
            connection.step(latencies, tracer)

    def measure(self, seconds: float, tracer=None) -> dict[str, Metric]:
        latencies = [
            {kind: [] for kind in KIND_NAMES} for _ in self.connections
        ]
        wal_before = os.path.getsize(self.wal_path)
        threads = [
            threading.Thread(
                target=self._drive, args=(c, seconds * 0.9, lat, tracer))
            for c, lat in zip(self.connections, latencies)
        ]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - started
        for connection in self.connections:
            self.attempted += connection.attempted
            self.failed += connection.failed
            connection.attempted = connection.failed = 0
        merged = {
            kind: [v for lat in latencies for v in lat[kind]]
            for kind in KIND_NAMES
        }
        acked = sum(len(v) for v in merged.values())
        self.wal_bytes_per_insert = (
            os.path.getsize(self.wal_path) - wal_before
        ) / max(len(merged[gen.WRITE]), 1)

        # Session set-up: a fresh connection's handshake + first lookup.
        connect = []
        for i in range(self.min_samples * CONNECTS_PER_SAMPLE):
            self.attempted += 1
            started = clock()
            try:
                with Client("127.0.0.1", self.port) as client:
                    client.query(POINT_SQL, [i])
            except ReproError:
                self.failed += 1
                continue
            connect.append((clock() - started) * 1e3)

        return {
            "stmt_per_s": Metric(acked / wall, "1/s", count=acked),
            "stmt_ms": Metric(wall / acked * 1e3, "ms", count=acked),
            "point_p50_ms": Metric.of(merged[gen.POINT], "ms"),
            "point_p95_ms": Metric.of(merged[gen.POINT], "ms", p=95.0),
            "point_p99_ms": Metric.of(merged[gen.POINT], "ms", p=99.0),
            "fetch_p50_ms": Metric.of(merged[gen.FETCH], "ms"),
            "commit_p50_ms": Metric.of(merged[gen.WRITE], "ms"),
            "connect_ms": Metric.of(connect, "ms"),
        }

    # -- output check -----------------------------------------------------

    def verify(self) -> list[str]:
        """Every point/fetch row against the generator, and the final
        ``events_<k>`` contents against the acknowledged writes."""
        problems = []
        expected = self.points.rows()
        for connection in self.connections:
            bad = 0
            for kind, key, rows in connection.reads:
                span = 1 if kind == gen.POINT else gen.FETCH_ROWS
                if sorted(rows) != expected[key:key + span]:
                    bad += 1
            if bad:
                problems.append(
                    f"connection {connection.index}: {bad} wrong read(s)")
            count, total = connection.client.query(
                f"SELECT count(*), sum(seq) FROM events_{connection.index}"
            ).rows[0]
            if (int(count), int(total or 0)) != (
                len(connection.acked_seqs), sum(connection.acked_seqs)
            ):
                problems.append(
                    f"events_{connection.index} differs from the "
                    "acknowledged writes")
        return problems

    # -- per-layer metrics (traced pass) ----------------------------------

    def layers(self, seconds, tracer, plain, before, after) -> dict:
        out: dict[str, Metric] = {}
        client = self.connections[0].client
        for _ in range(self.min_samples * 20):
            with tracer.span("server.ping"):
                client.ping()
        out["server.ping_rtt_us"] = Metric.of(
            [v * 1e6 for v in tracer.durations("server.ping")], "us")
        out["server.point_p95_ms"] = plain["point_p95_ms"]
        out["server.queue_wait_p50_us"] = Metric(
            histogram_p50(before, after, "server_queue_wait_seconds") * 1e6,
            "us")
        out["server.admission_rejected"] = Metric(stages.counter_delta(
            before, after, "server_admission_rejected_total"), "count")
        out["server.requests_total"] = Metric(sum(
            value - before["counters"].get(key, 0.0)
            for key, value in after["counters"].items()
            if key.startswith("server_requests_total")
        ), "count")
        out["txn.wal_bytes_per_insert"] = Metric(
            self.wal_bytes_per_insert, "count")

        # An embedded twin of the served table, for the layers the
        # harness can only reach in-process.
        self.db = repro.Database()
        started = clock()
        self.points.load(self.db)
        self.load_seconds = clock() - started
        out.update(self.api_metrics(
            POINT_SQL, lambda i: [(i * 7919) % POINT_ROWS], seconds * 0.1))
        out["server.point_overhead_us"] = Metric(
            plain["point_p50_ms"].value * 1e3
            - out["api.point_execute_us"].value, "us")
        for i in range(self.min_samples):
            lo = (i * 7919) % (POINT_ROWS - gen.FETCH_ROWS)
            result = self.db.execute(FETCH_SQL, [lo, lo + gen.FETCH_ROWS])
            with tracer.span("server.serialize"):
                frame = encode_frame(result_payload(result))
            with tracer.span("server.decode"):
                decode_payload(frame[4:])
        per_krow = 1e6 * 1000 / gen.FETCH_ROWS
        for stage in ("serialize", "decode"):
            out[f"server.{stage}_us_per_krow"] = Metric.of(
                [v * per_krow for v in tracer.durations(f"server.{stage}")],
                "us")
        selects = [(POINT_SQL, [4242]), (FETCH_SQL, [4242, 5242])]
        out.update(stages.stage_metrics(
            self.db, tracer, selects, seconds * 0.1, self.min_samples))
        out.update(stages.operator_shares(self.db, selects))
        out.update(self.storage_metrics(POINT_ROWS, self.load_seconds))
        return out
