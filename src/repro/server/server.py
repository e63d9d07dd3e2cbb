"""The threaded multi-session database server (docs/server.md).

One :class:`Server` wraps one shared
:class:`~repro.api.database.Database` — catalog, worker pool, caches,
governor, history, flight recorder and all — and multiplexes many
client sessions over it:

* **connections**: one reader thread per accepted socket speaking the
  length-prefixed JSON protocol (:mod:`repro.server.protocol`); the
  same port also answers a plain HTTP ``GET /metrics`` with the
  Prometheus exposition, so a scraper needs no second endpoint;
* **sessions**: each connection owns a :class:`~.session.Session` with
  its own transaction slot (snapshot isolation across sessions comes
  straight from the engine's transaction manager) and per-tenant
  governor budgets; a dropped connection rolls its transaction back;
* **admission control**: statements do not run on connection threads —
  they pass through a *bounded* queue into a fixed executor pool.
  A full queue rejects immediately with a typed ``ADMISSION_REJECTED``
  frame (backpressure, never unbounded buffering), and every admitted
  statement's queue wait lands in the query history's phase timings
  next to parse/bind/optimize/plan/execute;
* **metrics**: ``server_sessions_active``,
  ``server_admission_queued_total``, ``server_admission_rejected_total``,
  ``server_requests_total{status=...}`` and a
  ``server_queue_wait_seconds`` histogram, all on the shared session
  registry the Prometheus exporter already renders.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..api.database import Database
from ..errors import AdmissionRejected, ProtocolError, TransactionError
from ..obs.export import to_prometheus
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    error_payload,
    read_frame,
    result_payload,
)
from .session import Session, TenantBudget

#: The tenant sessions get when ``connect`` names none.
DEFAULT_TENANT = "default"


@dataclass
class ServerConfig:
    """Tunable serving knobs (engine knobs live on the Database)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``Server.port``.
    port: int = 0
    #: Concurrent sessions accepted before ``SESSION_LIMIT`` errors.
    max_sessions: int = 64
    #: Statements queued (beyond the ones executing) before
    #: ``ADMISSION_REJECTED`` backpressure kicks in.
    queue_depth: int = 32
    #: Executor threads actually running statements.
    executors: int = 4
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Tenant name -> :class:`TenantBudget`; unknown tenants fall back
    #: to a budget-less default (engine session defaults still apply).
    tenants: dict = field(default_factory=dict)


class _Work:
    """One admitted statement: runs on an executor, the connection
    thread waits on ``done``."""

    __slots__ = ("fn", "done", "payload", "enqueued_s")

    def __init__(self, fn):
        self.fn = fn
        self.done = threading.Event()
        self.payload: Optional[dict] = None
        self.enqueued_s = time.perf_counter()


_STOP = object()


class AdmissionController:
    """A bounded statement queue feeding a fixed executor pool.

    ``submit`` never blocks: a full queue raises
    :class:`~repro.errors.AdmissionRejected` immediately so clients get
    typed backpressure instead of unbounded latency. The queue bound
    counts *waiting* statements; ``executors`` more may be running.
    """

    def __init__(self, executors: int, queue_depth: int, metrics):
        self.executors = max(int(executors), 1)
        self.queue_depth = max(int(queue_depth), 0)
        self.metrics = metrics
        # Capacity covers running + waiting work; enforcing it with an
        # explicit counter (not queue maxsize) keeps the waiting bound
        # exact even while every executor is busy, and allows depth 0.
        self._capacity = self.executors + self.queue_depth
        self._inflight = 0
        self._queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()
        self._queued = metrics.counter("server_admission_queued_total")
        self._rejected = metrics.counter(
            "server_admission_rejected_total"
        )
        self._wait_hist = metrics.histogram("server_queue_wait_seconds")

    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            for i in range(self.executors):
                thread = threading.Thread(
                    target=self._run,
                    name=f"repro-server-exec-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def submit(self, work: _Work) -> _Work:
        with self._lock:
            if self._inflight >= self._capacity:
                self._rejected.inc()
                raise AdmissionRejected(
                    f"admission queue full ({self.queue_depth} waiting "
                    f"statement(s) over {self.executors} busy "
                    f"executor(s)); back off and retry"
                )
            self._inflight += 1
        self._queue.put(work)
        self._queued.inc()
        return work

    def _run(self) -> None:
        while True:
            work = self._queue.get()
            if work is _STOP:
                return
            wait_s = time.perf_counter() - work.enqueued_s
            self._wait_hist.observe(wait_s)
            try:
                work.payload = work.fn(wait_s)
            except BaseException as exc:  # noqa: BLE001 — typed frame
                work.payload = error_payload(exc)
            finally:
                with self._lock:
                    self._inflight -= 1
                work.done.set()

    def stop(self) -> None:
        with self._lock:
            if not self._started:
                return
            self._started = False
        # Fail anything still waiting, then stop the executors.
        drained: list[_Work] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                drained.append(item)
        for work in drained:
            work.payload = error_payload(
                code="ADMISSION_REJECTED",
                message="server shutting down",
            )
            with self._lock:
                self._inflight -= 1
            work.done.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()


class Server:
    """A multi-session socket server over one shared Database.

    ``db`` defaults to a fresh engine; pass one to serve existing data
    or a tuned configuration (workers, encoding, chaos, budgets). The
    server owns the database it *created* and closes it on
    :meth:`stop`; a caller-provided database stays the caller's.
    """

    def __init__(self, db: Optional[Database] = None, **config):
        tenants = config.pop("tenants", None)
        self.config = ServerConfig(**config)
        if tenants:
            self.config.tenants = {
                name: (
                    budget
                    if isinstance(budget, TenantBudget)
                    else TenantBudget(name, **budget)
                )
                for name, budget in tenants.items()
            }
        self._owns_db = db is None
        self.db = db if db is not None else Database()
        self.metrics = self.db.metrics
        self.admission = AdmissionController(
            self.config.executors, self.config.queue_depth, self.metrics
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._conns: set[socket.socket] = set()
        self._next_session = 0
        self.running = False
        self._sessions_gauge = self.metrics.gauge(
            "server_sessions_active"
        )
        self._requests = self.metrics.counter  # labelled per status
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        """Bind, listen, and start accepting (returns immediately)."""
        if self.running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.running = True
        self.admission.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, fail queued work, roll back every session's
        open transaction, and join the executors. Idempotent."""
        if not self.running:
            return
        self.running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it sleeping until the join timeout.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        # Unblock connection reader threads.
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.release()
        self._sessions_gauge.set(0)
        self.admission.stop()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.config.host, self.port or self.config.port)

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- accept / connection loop -----------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while self.running and listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-server-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session: Optional[Session] = None
        try:
            try:
                head = conn.recv(4, socket.MSG_PEEK)
            except OSError:
                return
            if head[:4] == b"GET " or head[:4] == b"HEAD":
                self._serve_http(conn)
                return
            fh = conn.makefile("rwb")
            try:
                session = self._frame_loop(fh)
            finally:
                try:
                    fh.close()
                except (OSError, ValueError):
                    pass
        finally:
            if session is not None:
                self._close_session(session)
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _frame_loop(self, fh) -> Optional[Session]:
        """Serve one protocol connection; returns its session (if a
        ``connect`` succeeded) for cleanup."""
        session: Optional[Session] = None
        while self.running:
            try:
                request = read_frame(fh, self.config.max_frame_bytes)
            except ProtocolError as exc:
                code = (
                    "FRAME_TOO_LARGE"
                    if "exceeds" in str(exc)
                    else "MALFORMED_FRAME"
                )
                self._send(fh, error_payload(exc, code=code))
                self._count(code)
                return session  # framing is lost; drop the connection
            if request is None:
                return session  # clean EOF
            response, keep_open = self._dispatch(session, request)
            if session is None and response.get("ok") and (
                request.get("op") == "connect"
            ):
                session = self._session_of(response["session"])
            if not self._send(fh, response):
                return session
            if not keep_open:
                return session

    def _send(self, fh, payload: dict) -> bool:
        try:
            fh.write(encode_frame(payload))
            fh.flush()
            return True
        except (OSError, ValueError):
            return False

    def _count(self, status: str) -> None:
        self._requests("server_requests_total", status=status).inc()

    def _session_of(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    # -- request dispatch --------------------------------------------------

    def _dispatch(
        self, session: Optional[Session], request: dict
    ) -> tuple[dict, bool]:
        """(response payload, keep-connection-open)."""
        op = request.get("op")
        if op == "connect":
            return self._op_connect(session, request)
        if op == "ping":
            self._count("ok")
            return {"ok": True, "pong": True}, True
        if op == "metrics":
            self._count("ok")
            return {
                "metrics": to_prometheus(self.metrics),
                "ok": True,
            }, True
        if op == "cancel":
            return self._op_cancel(session, request), True
        if session is None:
            self._count("PROTOCOL_ERROR")
            return (
                error_payload(
                    code="PROTOCOL_ERROR",
                    message=f"first message must be 'connect', "
                    f"got {op!r}",
                ),
                True,
            )
        if op == "query":
            return self._op_query(session, request), True
        if op == "close":
            self._count("ok")
            # Release before replying, so a client that saw the close
            # response observes the session gone (no teardown race).
            self._close_session(session)
            return {"closed": True, "ok": True, "session": session.id}, False
        self._count("PROTOCOL_ERROR")
        return (
            error_payload(
                code="PROTOCOL_ERROR", message=f"unknown op {op!r}"
            ),
            True,
        )

    def _op_connect(
        self, session: Optional[Session], request: dict
    ) -> tuple[dict, bool]:
        if session is not None:
            self._count("PROTOCOL_ERROR")
            return (
                error_payload(
                    code="PROTOCOL_ERROR",
                    message="connection already has a session",
                ),
                True,
            )
        tenant_name = str(request.get("tenant") or DEFAULT_TENANT)
        tenant = self.config.tenants.get(tenant_name) or TenantBudget(
            tenant_name
        )
        with self._lock:
            if len(self._sessions) >= self.config.max_sessions:
                rejected = True
            else:
                rejected = False
                self._next_session += 1
                session_id = f"s-{self._next_session}"
                new_session = Session(self.db, session_id, tenant)
                self._sessions[session_id] = new_session
                active = len(self._sessions)
        if rejected:
            self._count("SESSION_LIMIT")
            return (
                error_payload(
                    code="SESSION_LIMIT",
                    message=f"session limit of "
                    f"{self.config.max_sessions} reached",
                ),
                True,
            )
        self._sessions_gauge.set(active)
        self.metrics.counter("server_sessions_total").inc()
        self._count("ok")
        return (
            {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "session": session_id,
                "tenant": tenant_name,
            },
            True,
        )

    def _op_cancel(
        self, session: Optional[Session], request: dict
    ) -> dict:
        target_id = request.get("session") or (
            session.id if session is not None else None
        )
        target = self._session_of(target_id) if target_id else None
        if target is None:
            self._count("PROTOCOL_ERROR")
            return error_payload(
                code="PROTOCOL_ERROR",
                message=f"no such session {target_id!r}",
            )
        cancelled = target.cancel()
        self._count("ok")
        return {
            "cancelled": bool(cancelled),
            "ok": True,
            "session": target_id,
        }

    def _op_query(self, session: Session, request: dict) -> dict:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self._count("PROTOCOL_ERROR")
            return error_payload(
                code="PROTOCOL_ERROR",
                message="query op requires a non-empty 'sql' string",
            )
        params = request.get("params")
        if params is not None and not isinstance(params, list):
            self._count("PROTOCOL_ERROR")
            return error_payload(
                code="PROTOCOL_ERROR",
                message="'params' must be an array",
            )
        timeout_ms, budget_mb = session.effective_budgets(
            request.get("timeout_ms"), request.get("memory_budget_mb")
        )
        # Only forward budgets actually set: an explicit None would
        # override the engine's own session defaults with "unlimited".
        budgets: dict = {}
        if timeout_ms is not None:
            budgets["timeout_ms"] = timeout_ms
        if budget_mb is not None:
            budgets["memory_budget_mb"] = budget_mb
        token = session.new_cancel_token()

        def run(wait_s: float) -> dict:
            if session.closed:
                raise TransactionError(
                    f"session {session.id} is closed"
                )
            result = session.engine.execute(
                sql,
                params,
                cancel_token=token,
                queue_wait_s=wait_s,
                **budgets,
            )
            payload = result_payload(result)
            payload["in_txn"] = session.engine.in_transaction
            payload["session"] = session.id
            return payload

        try:
            work = self.admission.submit(_Work(run))
        except AdmissionRejected as exc:
            self._count("ADMISSION_REJECTED")
            return error_payload(exc)
        work.done.wait()
        session.clear_cancel_token()
        session.statements += 1
        payload = work.payload or error_payload(
            code="INTERNAL_ERROR", message="statement produced no result"
        )
        status = (
            "ok"
            if payload.get("ok")
            else payload.get("error", {}).get("code", "INTERNAL_ERROR")
        )
        self._count(status)
        return payload

    def _close_session(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.id, None)
            active = len(self._sessions)
        session.release()
        self._sessions_gauge.set(active)

    # -- HTTP /metrics -----------------------------------------------------

    def _serve_http(self, conn: socket.socket) -> None:
        """Answer one plain HTTP request on the protocol port — the
        Prometheus scrape path (``GET /metrics``)."""
        try:
            conn.settimeout(5.0)
            data = b""
            while b"\r\n\r\n" not in data and len(data) < 65536:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
            request_line = data.split(b"\r\n", 1)[0].decode(
                "latin-1", "replace"
            )
            parts = request_line.split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.split("?", 1)[0] == "/metrics":
                body = to_prometheus(self.metrics).encode("utf-8")
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"repro server: scrape /metrics\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            head = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            conn.sendall(head + body)
        except OSError:
            pass
