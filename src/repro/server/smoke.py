"""``make server-smoke`` — the end-to-end serving battery.

Starts a real server on an ephemeral port and drives it the way the
acceptance bar demands:

1. **Concurrent correctness**: 8 client sessions run a mixed
   DML / query / analytics workload — private per-session tables plus
   shared read-only aggregates plus an ITERATE statement — and the
   final database state must equal a serial twin's, bit for bit.
2. **Backpressure**: with one executor and a depth-0 queue, a blocking
   UDF wedges the executor and the overflow statement must come back
   as a typed ``ADMISSION_REJECTED`` error — never a hang.
3. **Observability**: an HTTP ``GET /metrics`` scrape of the protocol
   port must report the server metric families.
4. **Clean shutdown**, under a hard watchdog (the process ``os._exit``s
   with status 2 if the whole battery overruns its deadline, so a hung
   server can never hang CI).

Exit status 0 on success, 1 on assertion failure, 2 on watchdog.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from ..api.database import Database
from ..errors import AdmissionRejected
from .client import Client
from .server import Server
from .session import TenantBudget

#: Hard wall-clock ceiling for the whole battery.
DEADLINE_S = 120.0

N_CLIENTS = 8
ROWS_PER_CLIENT = 200


def log(msg: str) -> None:
    print(f"[server-smoke] {msg}", flush=True)


def start_watchdog() -> threading.Event:
    """Kill the process (exit 2) if the battery overruns the deadline —
    'never hangs' is part of the acceptance bar, so the enforcement
    cannot rely on the thing being tested."""
    done = threading.Event()

    def watch() -> None:
        if not done.wait(DEADLINE_S):
            print(
                f"[server-smoke] WATCHDOG: battery exceeded "
                f"{DEADLINE_S:.0f}s, killing process",
                file=sys.stderr,
                flush=True,
            )
            os._exit(2)

    threading.Thread(target=watch, name="smoke-watchdog", daemon=True).start()
    return done


def client_script(i: int) -> list[str]:
    """Client ``i``'s statement sequence. Private table + shared reads,
    so any interleaving across clients is serializable and the serial
    twin is a valid oracle."""
    rows = ", ".join(
        f"({k}, {(k * 7 + i) % 101})" for k in range(ROWS_PER_CLIENT)
    )
    return [
        f"CREATE TABLE smoke_{i} (k INTEGER, v INTEGER)",
        f"INSERT INTO smoke_{i} VALUES {rows}",
        "BEGIN",
        f"UPDATE smoke_{i} SET v = v + 1000 WHERE k < 50",
        "COMMIT",
        "BEGIN",
        f"DELETE FROM smoke_{i} WHERE k >= 150",
        "ROLLBACK",  # the delete must NOT stick
        f"DELETE FROM smoke_{i} WHERE v % 10 = {i % 10}",
        f"SELECT count(*), sum(v) FROM smoke_{i}",
        "SELECT count(*), sum(w) FROM shared_fact",  # shared read-only
        # A little analytics: iterate a scalar past a threshold.
        "SELECT * FROM ITERATE((SELECT 1 AS x),"
        " (SELECT x * 2 FROM iterate),"
        f" (SELECT x FROM iterate WHERE x >= {64 << (i % 4)}))",
    ]


def run_script_remote(host: str, port: int, i: int, out: dict) -> None:
    try:
        with Client(host, port, tenant="smoke") as client:
            results = []
            for sql in client_script(i):
                result = client.execute(sql)
                if result.rows:
                    results.append(result.rows)
            out[i] = results
    except Exception as exc:  # noqa: BLE001 — surfaced by the caller
        out[i] = exc


def table_state(db: Database, table: str) -> list[tuple]:
    return db.execute(f"SELECT * FROM {table} ORDER BY k, v").rows


def seed_shared(db: Database) -> None:
    db.execute("CREATE TABLE shared_fact (f INTEGER, w INTEGER)")
    rows = ", ".join(f"({j}, {j * j % 997})" for j in range(500))
    db.execute(f"INSERT INTO shared_fact VALUES {rows}")


def phase_concurrent() -> None:
    log(f"phase 1: {N_CLIENTS} concurrent sessions vs serial twin")
    db = Database()
    seed_shared(db)
    server = Server(db, executors=4, queue_depth=64, max_sessions=32)
    server.start()
    host, port = server.address
    try:
        outcomes: dict = {}
        threads = [
            threading.Thread(
                target=run_script_remote, args=(host, port, i, outcomes)
            )
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=DEADLINE_S)
        failures = {
            i: v for i, v in outcomes.items() if isinstance(v, Exception)
        }
        assert not failures, f"client sessions failed: {failures}"
        assert len(outcomes) == N_CLIENTS, (
            f"only {len(outcomes)}/{N_CLIENTS} sessions completed"
        )

        # The serial twin: same scripts, one embedded session, in order.
        twin = Database()
        seed_shared(twin)
        twin_results: dict = {}
        for i in range(N_CLIENTS):
            results = []
            for sql in client_script(i):
                result = twin.execute(sql)
                if result.rows:
                    results.append(result.rows)
            twin_results[i] = results

        for i in range(N_CLIENTS):
            assert outcomes[i] == twin_results[i], (
                f"client {i}: remote results diverge from serial twin\n"
                f"remote: {outcomes[i]}\ntwin:   {twin_results[i]}"
            )
            remote_state = table_state(db, f"smoke_{i}")
            twin_state = table_state(twin, f"smoke_{i}")
            assert remote_state == twin_state, (
                f"table smoke_{i}: final state diverges from twin"
            )
        twin.close()
        log("phase 1 OK: states and results identical to serial twin")

        # Scrape /metrics over plain HTTP on the same port.
        log("phase 3: HTTP /metrics scrape")
        body = http_get_metrics(host, port)
        for needle in (
            "server_sessions_active",
            "server_admission_queued_total",
            "server_requests_total",
            "server_queue_wait_seconds",
        ):
            assert needle in body, f"/metrics missing {needle}"
        log("phase 3 OK: server metric families exported")
    finally:
        server.stop()
        db.close()


def http_get_metrics(host: str, port: int) -> str:
    import socket

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            f"GET /metrics HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    assert b"200 OK" in head.split(b"\r\n", 1)[0], head
    return body.decode("utf-8")


def phase_backpressure() -> None:
    log("phase 2: admission backpressure (1 executor, depth-0 queue)")
    db = Database()
    entered = threading.Event()
    release = threading.Event()

    def block(x):
        entered.set()
        release.wait(DEADLINE_S)
        return x

    db.create_function("smoke_block", block, "INTEGER", arity=1)
    server = Server(db, executors=1, queue_depth=0, max_sessions=8)
    server.start()
    host, port = server.address
    clients = [Client(host, port) for _ in range(3)]
    try:
        wedge_done: dict = {}

        def wedge() -> None:
            try:
                wedge_done["result"] = clients[0].query(
                    "SELECT smoke_block(1)"
                ).scalar()
            except Exception as exc:  # noqa: BLE001
                wedge_done["result"] = exc

        wedge_thread = threading.Thread(target=wedge)
        wedge_thread.start()
        assert entered.wait(10.0), "blocking UDF never started"

        # Executor is wedged; with queue_depth=0 the next statement must
        # bounce as a typed AdmissionRejected, immediately.
        t0 = time.perf_counter()
        try:
            clients[1].query("SELECT 1")
        except AdmissionRejected as exc:
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"rejection took {elapsed:.1f}s"
            assert getattr(exc, "wire_code", None) == "ADMISSION_REJECTED"
            log(f"phase 2 OK: typed rejection in {elapsed * 1000:.0f}ms")
        else:
            raise AssertionError(
                "second statement ran despite a wedged executor"
            )

        release.set()
        wedge_thread.join(timeout=10.0)
        assert wedge_done.get("result") == 1, wedge_done

        # The surviving sessions stay usable after the rejection.
        for client in clients[1:]:
            assert client.query("SELECT 41 + 1").scalar() == 42
        log("phase 2 OK: rejected client recovered, sessions usable")
    finally:
        for client in clients:
            client.close()
        release.set()
        server.stop()
        db.close()


def main() -> int:
    done = start_watchdog()
    t0 = time.perf_counter()
    try:
        phase_concurrent()
        phase_backpressure()
    except AssertionError as exc:
        log(f"FAILED: {exc}")
        return 1
    finally:
        done.set()
    log(f"all phases passed in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
