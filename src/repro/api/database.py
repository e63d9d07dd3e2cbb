"""The :class:`Database` session — the engine's public entry point.

One object composes the whole stack: catalog + transaction manager
(snapshot isolation, optional WAL), SQL front end, optimizer, vectorised
executor, the analytics operator registry, and the UDF registry.

Statements run in the session's explicit transaction when one is open
(``BEGIN``/``COMMIT``/``ROLLBACK`` or :meth:`Database.transaction`);
otherwise each statement autocommits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..analytics.registry import OperatorRegistry, default_registry
from ..errors import (
    BindError,
    CatalogError,
    InjectedFault,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    ResourceGovernorError,
    TransactionError,
)
from ..exec.parallel import WorkerPool, resolve_workers
from ..exec.physical import (
    DEFAULT_PARALLEL_THRESHOLD,
    ExecutionContext,
    ExecutionStats,
    materialize,
)
from ..exec.planner import build_physical
from ..expr.compiler import truth_mask
from ..governor import QueryContext
from ..obs.flight import FlightRecorder
from ..obs.history import (
    QueryHistory,
    QueryRecord,
    operator_observations,
    record_from_span,
    resolve_history_path,
    resolve_slow_ms,
)
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.trace import Span, Tracer
from ..exec.sort import resolve_topn
from ..plan.cardinality import CardinalityEstimator
from ..plan.feedback import CardinalityFeedback, resolve_feedback
from ..plan.stats import TableStatistics
from ..plan.cache import (
    CachedPlan,
    NegativePlan,
    PlanCache,
    cache_enabled,
    sql_fingerprint,
)
from ..plan.logical import PlanColumn
from ..plan.optimizer import Optimizer, explain_with_estimates
from ..sql import ast
from ..sql.binder import Binder
from ..sql.parser import parse_sql
from ..storage.catalog import Catalog
from ..storage.column import Column, ColumnBatch
from ..storage.encoding import (
    column_encoding_of,
    column_raw_nbytes,
    resolve_encoding,
)
from ..storage.schema import ColumnSchema, TableSchema
from ..storage.table import TableData
from ..txn.checkpoint import (
    capture_catalog,
    load_snapshot,
    restore_into,
    snapshot_path,
    write_snapshot,
)
from ..txn.manager import Transaction, TransactionManager
from ..txn.wal import (
    WriteAheadLog,
    resolve_checkpoint_bytes,
    resolve_recovery,
)
from ..types import (
    SQLType,
    coerce_scalar,
    infer_literal_type,
    type_from_name,
)
from ..udf.registry import TableUDFDescriptor, UDFRegistry
from .result import AnalyzedQuery, QueryResult


#: Sentinel distinguishing "not passed" from an explicit ``None``
#: (which disables the session default for that call).
_UNSET = object()

#: Governor error type -> the session counter it bumps.
_GOVERNOR_COUNTERS = (
    (QueryCancelled, "engine_queries_cancelled_total"),
    (QueryTimeout, "engine_queries_timed_out_total"),
    (MemoryBudgetExceeded, "engine_queries_oom_aborted_total"),
)


class _TxnCatalogView:
    """The binder's read-only window onto a transaction's snapshot."""

    def __init__(self, txn: Transaction):
        self._txn = txn

    def table_exists(self, name: str) -> bool:
        return self._txn.table_exists(name)

    def schema_of(self, name: str) -> TableSchema:
        return self._txn.schema_of(name)


class Database:
    """A main-memory relational database with in-core analytics.

    Args:
        wal_path: file path for the write-ahead log; None disables
            durability (pure main-memory session). Passing a path that
            already holds a log **recovers** from it.
        optimize: disable to run binder plans verbatim (ablations).
        profile_operators: keep per-operator self-time histograms for
            every statement (``operator_self_seconds{op=...}``); disable
            to shave the wrapper overhead in micro-benchmarks. Profiled
            operators are also the only source of observed
            cardinalities, so turning this off turns cardinality
            feedback (``feedback``) off with it.
        workers: worker-thread count for morsel-driven parallel
            execution. ``None`` reads ``REPRO_WORKERS`` (default 1 —
            fully serial). Results are bit-identical for every worker
            count (see ``docs/parallelism.md``).
        parallel_threshold: minimum rows a base-table scan must have
            left after zone-map pruning before it dispatches its morsels
            to the worker pool instead of streaming them serially
            (0 dispatches everything — test battery use).
        plan_cache: enable the statement/plan cache (and with it the
            whole hot-path stack: expression-kernel cache, zone-map
            pruning, CSR cache). ``None`` reads ``REPRO_PLAN_CACHE``
            (default on); see ``docs/performance.md``.
        timeout_ms: default per-statement deadline; a statement past it
            aborts with :class:`~repro.errors.QueryTimeout` at its next
            checkpoint. ``None``/``<= 0`` disables. Per-call overrides
            on :meth:`execute` et al. win (docs/robustness.md).
        memory_budget_mb: default per-statement budget over accounted
            operator memory (materialised numpy state); exceeding it
            aborts with :class:`~repro.errors.MemoryBudgetExceeded`.
            ``None``/``<= 0`` disables.
        chaos: a :class:`repro.testing.chaos.ChaosInjector` for
            deterministic fault injection; ``None`` reads
            ``REPRO_CHAOS`` (default off).
        encoding: column-encoding policy for committed table versions —
            ``auto`` (per-column selection: dictionary for strings,
            RLE/frame-of-reference for integers), ``dict``/``for``/
            ``rle`` (force one family), or ``raw``. ``None`` reads
            ``REPRO_ENCODING`` (default ``auto``); see
            ``docs/storage.md``.
        history: JSONL spill path for the query history store; every
            finished statement appends one JSON document. ``None``
            reads ``REPRO_HISTORY`` (default: memory-only — the
            in-memory store is always on regardless). See
            :attr:`history` and ``docs/observability.md``.
        slow_ms: slow-query threshold in milliseconds — statements at
            or past it are flagged and land in ``db.history.slow()``.
            ``None`` reads ``REPRO_SLOW_MS`` (default off).
        flight_dir: directory for flight-recorder diagnostic bundles
            (dumped when a statement dies on a governor abort, an
            injected fault, or a survived worker crash). ``None`` reads
            ``REPRO_FLIGHTREC`` (default ``results/flightrec``).
    """

    def __init__(
        self,
        wal_path: Optional[str] = None,
        optimize: bool = True,
        morsel_rows: int = 65_536,
        max_iterations: int = 10_000,
        profile_operators: bool = True,
        workers: Optional[int] = None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        plan_cache: Optional[bool] = None,
        timeout_ms: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
        chaos=None,
        encoding: Optional[str] = None,
        history: Optional[str] = None,
        slow_ms: Optional[float] = None,
        flight_dir: Optional[str] = None,
        topn: Optional[bool] = None,
        feedback: Optional[bool] = None,
        checkpoint_bytes: Optional[int] = None,
        recovery: Optional[str] = None,
    ):
        self.catalog = Catalog()
        #: Session metrics registry; mirrored into
        #: :func:`repro.obs.metrics.global_registry` so tools that open
        #: many sessions (bench sweeps, the fuzzer) see aggregates.
        self.metrics = MetricsRegistry(parent=global_registry())
        #: Durability knobs (docs/durability.md). The WAL itself is
        #: opened *after* the flight recorder exists, so a failed
        #: recovery can dump a diagnostic bundle.
        self.wal_path = wal_path
        #: Corruption-recovery mode (argument, then REPRO_RECOVERY,
        #: then "tolerant"): strict raises WalCorruptionError on
        #: mid-log damage, tolerant discards-and-counts.
        self.recovery = resolve_recovery(recovery)
        #: Auto-checkpoint threshold in WAL bytes (argument, then
        #: REPRO_CHECKPOINT_BYTES, then off).
        self.checkpoint_bytes = resolve_checkpoint_bytes(checkpoint_bytes)
        #: Effective column-encoding policy (argument, then
        #: REPRO_ENCODING, then "auto").
        self.encoding = resolve_encoding(encoding)
        self.txns = TransactionManager(
            self.catalog, None, metrics=self.metrics,
            encoding=self.encoding,
        )
        self.udfs = UDFRegistry()
        self.analytics: OperatorRegistry = default_registry()
        self.optimize_enabled = optimize
        self.morsel_rows = morsel_rows
        self.max_iterations = max_iterations
        self.profile_operators = profile_operators
        #: Effective worker count (argument, then REPRO_WORKERS, then 1).
        self.workers = resolve_workers(workers)
        self.parallel_threshold = parallel_threshold
        #: Session-default resource budgets (per-call overrides win).
        self.timeout_ms = timeout_ms
        self.memory_budget_mb = memory_budget_mb
        if chaos is None:
            from ..testing.chaos import ChaosInjector

            chaos = ChaosInjector.from_env()
        #: Optional chaos injector, consulted by every statement's
        #: governor and by the worker pool (docs/robustness.md).
        self.chaos = chaos
        #: The governor of the statement running on each thread.
        self._stmt_local = threading.local()
        #: Governors of all in-flight statements (:meth:`cancel`).
        self._active_governors: list[QueryContext] = []
        self._governor_lock = threading.Lock()
        #: Final governor report of the most recent statement.
        self.last_governor: Optional[dict] = None
        self._tracer = Tracer()
        #: Shared morsel-dispatch pool; threads are created lazily, so a
        #: serial session never spawns any. The tracer rides along so
        #: worker-side morsel spans stitch under the owning statement.
        self.pool = WorkerPool(
            self.workers, metrics=self.metrics, chaos=self.chaos,
            tracer=self._tracer,
        )
        #: Backing slot of the ``_session_txn`` property for embedded
        #: (scope-less) use; server sessions carry their own slot.
        self._default_txn: Optional[Transaction] = None
        #: Statement/plan cache (docs/performance.md). ``None`` defers
        #: the on/off decision to REPRO_PLAN_CACHE at statement time.
        self._plan_cache_enabled = plan_cache
        self._plan_cache = PlanCache()
        #: Bumped by UDF/operator registration: cached plans embed the
        #: registered callables, so re-registration must invalidate.
        #: Also bumped by cardinality feedback when observed rows would
        #: flip a cached plan's join build side (docs/performance.md).
        self._cache_epoch = 0
        #: Sort+Limit -> top-N fusion switch (argument, then
        #: REPRO_TOPN, then on).
        self.topn_enabled = resolve_topn(topn)
        #: Feedback-driven re-optimization switch (argument, then
        #: REPRO_FEEDBACK, then on). Only effective while operator
        #: profiling is on — feedback is fed by profiled observations.
        self.feedback_enabled = resolve_feedback(feedback)
        #: Version-keyed table statistics shared across statements
        #: (dictionary NDV, min/max, null fractions — plan/stats.py).
        self._stats_cache: "OrderedDict" = OrderedDict()
        #: Always-on per-statement history store: recent records
        #: (``db.history(n)``), the per-fingerprint plan-feedback index
        #: (``db.history.by_fingerprint(fp)``), and the slow-query log
        #: (``db.history.slow()``). See docs/observability.md.
        self.history = QueryHistory(
            spill_path=resolve_history_path(history),
            slow_ms=resolve_slow_ms(slow_ms),
            metrics=self.metrics,
        )
        #: Per-fingerprint observed-cardinality overrides derived from
        #: the history store (plan/feedback.py).
        self._feedback = CardinalityFeedback(
            self.history, metrics=self.metrics
        )
        #: Flight recorder: a self-contained diagnostic bundle is
        #: dumped whenever a statement dies on a governor abort or an
        #: injected fault, and whenever a worker crash is survived.
        self.flight = FlightRecorder(
            tracer=self._tracer,
            history=self.history,
            metrics=self.metrics,
            config=self._session_config(),
            directory=flight_dir,
        )
        self.pool.on_worker_crash = self._on_worker_crash
        #: Stats of the most recent statement (peak live tuples, etc.).
        self.last_stats: ExecutionStats = ExecutionStats()
        #: Telemetry of the most recent durable open (``None`` for a
        #: pure in-memory session): snapshot used, records scanned /
        #: replayed / discarded, torn-tail bytes, duration.
        self.last_recovery: Optional[dict] = None
        #: Result of the most recent :meth:`checkpoint`.
        self.last_checkpoint: Optional[dict] = None
        self._checkpointing = False
        if wal_path is not None:
            try:
                self._open_durable(wal_path)
            except BaseException as exc:
                self.flight.dump(
                    "recovery_failure",
                    error=exc if isinstance(exc, Exception) else None,
                )
                raise
            self.txns.after_commit = self._maybe_checkpoint

    # ------------------------------------------------------------------
    # durability: recovery and checkpointing (docs/durability.md)
    # ------------------------------------------------------------------

    def _open_durable(self, wal_path: str) -> None:
        """Open (or create) the WAL and bring the catalog to the newest
        durable state: load the newest valid snapshot, then replay the
        WAL suffix atomically per original transaction."""
        started = time.perf_counter()
        snapshot = load_snapshot(snapshot_path(wal_path))
        wal = WriteAheadLog(
            wal_path, metrics=self.metrics, recovery=self.recovery
        )
        try:
            self.txns.wal = wal
            min_seq = 0
            tables_restored = 0
            if snapshot is not None:
                tables_restored = restore_into(self.txns, snapshot)
                min_seq = int(snapshot.get("wal_seq", 0))
                wal.ensure_seq(min_seq)
            replay = wal.replay_stats(self.txns, min_seq=min_seq)
        except BaseException:
            wal.close()
            self.txns.wal = None
            raise
        duration = time.perf_counter() - started
        scan = wal.open_scan
        discarded = scan.records_discarded if scan is not None else 0
        if discarded:
            self.metrics.counter("wal_records_discarded_total").inc(
                discarded
            )
        self.metrics.histogram("wal_recovery_seconds").observe(duration)
        self.last_recovery = {
            "wal_path": wal_path,
            "snapshot_used": snapshot is not None,
            "snapshot_seq": min_seq,
            "tables_restored": tables_restored,
            "records_scanned": (
                scan.records_scanned if scan is not None else 0
            ),
            "records_discarded": discarded,
            "bytes_discarded": (
                scan.bytes_discarded if scan is not None else 0
            ),
            "torn_bytes": scan.torn_bytes if scan is not None else 0,
            "operations_replayed": replay["operations"],
            "transactions_replayed": replay["transactions"],
            "incomplete_transactions": replay["incomplete_transactions"],
            "duration_seconds": duration,
        }

    def checkpoint(self) -> dict:
        """Snapshot the committed catalog beside the WAL and truncate
        the records it covers; returns what was written.

        The snapshot lands via atomic write-then-rename (fsynced file
        *and* directory), stamped with the WAL sequence number it is
        consistent with — so a crash anywhere in the protocol recovers
        cleanly: before the rename the old snapshot still rules, and
        between the rename and the truncation the stale WAL prefix is
        filtered out by sequence number instead of replayed twice."""
        wal = self.txns.wal
        if wal is None or wal.path is None:
            raise TransactionError(
                "checkpoint requires a file-backed WAL "
                "(Database(wal_path=...))"
            )
        with self.txns._lock:
            ts = self.catalog.current_ts
            seq = wal.last_seq
            tables = capture_catalog(self.catalog, ts)
            snapshot_bytes = write_snapshot(
                snapshot_path(wal.path),
                {"wal_seq": seq, "commit_ts": ts, "tables": tables},
            )
            wal.truncate_through(seq)
        self.metrics.counter("wal_checkpoints_total").inc()
        self.metrics.gauge("wal_size_bytes").set(wal.size_bytes())
        self.last_checkpoint = {
            "wal_seq": seq,
            "commit_ts": ts,
            "tables": len(tables),
            "snapshot_bytes": snapshot_bytes,
            "wal_bytes_after": wal.size_bytes(),
        }
        return self.last_checkpoint

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint policy, invoked from the commit path (under
        the manager's re-entrant lock) after every durable commit."""
        if self._checkpointing or not self.checkpoint_bytes:
            return
        wal = self.txns.wal
        if wal is None or wal.path is None:
            return
        if wal.size_bytes() < self.checkpoint_bytes:
            return
        self._checkpointing = True
        try:
            self.checkpoint()
        finally:
            self._checkpointing = False

    # ------------------------------------------------------------------
    # session-transaction routing
    # ------------------------------------------------------------------
    #
    # Embedded use keeps one transaction slot per Database. A server
    # multiplexing many client sessions over one shared Database routes
    # the slot through a per-thread *scope* instead (``txn_scope``), so
    # each session owns its transaction and BEGIN/COMMIT/ROLLBACK from
    # concurrent sessions never collide (docs/server.md).

    @property
    def _session_txn(self) -> Optional[Transaction]:
        scope = getattr(self._stmt_local, "txn_scope", None)
        if scope is not None:
            return scope.txn
        return self._default_txn

    @_session_txn.setter
    def _session_txn(self, value: Optional[Transaction]) -> None:
        scope = getattr(self._stmt_local, "txn_scope", None)
        if scope is not None:
            scope.txn = value
        else:
            self._default_txn = value

    @contextmanager
    def txn_scope(self, scope):
        """Route this thread's session-transaction state into ``scope``
        (any object with a mutable ``txn`` attribute) for the duration.

        While active, ``begin``/``commit``/``rollback`` and statement
        execution on this thread read and write ``scope.txn`` instead of
        the Database's own slot, giving every server session its own
        transaction over one shared engine. Scopes nest (the previous
        scope is restored on exit) and are thread-local, so concurrent
        sessions never observe each other's transaction."""
        prev = getattr(self._stmt_local, "txn_scope", None)
        self._stmt_local.txn_scope = scope
        try:
            yield scope
        finally:
            self._stmt_local.txn_scope = prev

    def stage_statement_phase(self, name: str, seconds: float) -> None:
        """Attach an extra phase timing to the *next* statement record
        on this thread (merged into ``QueryRecord.phases``). The server
        uses this to surface admission-queue wait next to the engine's
        own parse/bind/optimize/plan/execute phases."""
        staged = getattr(self._stmt_local, "staged_phases", None)
        if staged is None:
            staged = self._stmt_local.staged_phases = {}
        staged[name] = staged.get(name, 0.0) + float(seconds)

    def _session_config(self) -> dict:
        """The session settings a flight-recorder bundle embeds."""
        return {
            "workers": self.workers,
            "encoding": self.encoding,
            "timeout_ms": self.timeout_ms,
            "memory_budget_mb": self.memory_budget_mb,
            "plan_cache": self.plan_cache_active(),
            "morsel_rows": self.morsel_rows,
            "parallel_threshold": self.parallel_threshold,
            "profile_operators": self.profile_operators,
            "wal_path": self.wal_path,
            "recovery": self.recovery,
            "checkpoint_bytes": self.checkpoint_bytes,
        }

    def _on_worker_crash(self, exc: Exception) -> None:
        """A worker crash was survived by serial retry: the statement
        will succeed, so this dump is the only evidence it happened."""
        governor = getattr(self._stmt_local, "governor", None)
        self.flight.dump(
            "worker_crash",
            error=exc,
            governor=governor.report() if governor is not None else None,
            trace=self._tracer.current_root(),
        )

    def close(self) -> None:
        """Release session resources (joins the worker pool). The
        session stays usable afterwards — worker threads respawn on the
        next parallel statement, and the WAL append handle reopens on
        the next durable commit. Idempotent: closing twice is a no-op."""
        self.pool.shutdown()
        if self.txns.wal is not None:
            self.txns.wal.close()

    def cancel(self) -> int:
        """Cooperatively cancel every in-flight statement.

        Safe to call from any thread. Each running statement observes
        the cancellation at its next morsel / iteration-round checkpoint
        and aborts with :class:`~repro.errors.QueryCancelled` (its
        transaction rolls back; the session stays usable). Returns the
        number of statements signalled."""
        with self._governor_lock:
            governors = list(self._active_governors)
        for governor in governors:
            governor.cancel_token.cancel()
        return len(governors)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def create_function(
        self,
        name: str,
        func: Callable,
        return_type: SQLType | str,
        arity: Optional[int] = None,
    ) -> None:
        """Register a scalar UDF callable from SQL (layer 2)."""
        if isinstance(return_type, str):
            return_type = type_from_name(return_type)
        self.udfs.register_scalar(name, func, return_type, arity)
        self._cache_epoch += 1

    def create_table_function(
        self,
        name: str,
        func: Callable,
        output_schema: Sequence[tuple[str, SQLType | str]],
    ) -> None:
        """Register a table UDF usable in FROM (layer 2)."""
        schema = [
            (
                col_name,
                type_from_name(t) if isinstance(t, str) else t,
            )
            for col_name, t in output_schema
        ]
        udf = self.udfs.register_table(name, func, schema)
        self.analytics.register(TableUDFDescriptor(udf))
        self._cache_epoch += 1

    def register_operator(self, descriptor) -> None:
        """Plug a custom analytics operator into the core (layer 4)."""
        self.analytics.register(descriptor)
        self._cache_epoch += 1

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        if self._session_txn is not None:
            raise TransactionError("transaction already open")
        self._session_txn = self.txns.begin()

    def commit(self) -> None:
        if self._session_txn is None:
            raise TransactionError("no transaction open")
        txn, self._session_txn = self._session_txn, None
        txn.commit()

    def rollback(self) -> None:
        if self._session_txn is None:
            raise TransactionError("no transaction open")
        txn, self._session_txn = self._session_txn, None
        txn.rollback()

    @property
    def in_transaction(self) -> bool:
        return self._session_txn is not None

    @contextmanager
    def transaction(self):
        """``with db.transaction():`` — commit on success, roll back on
        error."""
        self.begin()
        try:
            yield self
        except BaseException:
            if self._session_txn is not None:
                self.rollback()
            raise
        else:
            self.commit()

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    @contextmanager
    def _governed(
        self, timeout_ms=_UNSET, memory_budget_mb=_UNSET,
        cancel_token=None,
    ):
        """Install a per-statement :class:`QueryContext` on this thread.

        Re-entrant: a statement executed from inside another governed
        call (``executemany``'s per-row loop) shares the outer governor,
        so one deadline/budget covers the whole batch. On a governor
        abort the matching session counter is bumped; the final report
        always lands in :attr:`last_governor`.

        ``cancel_token`` lets a caller hand in a pre-made
        :class:`~repro.governor.CancelToken` targeting *this call only*
        — the server uses one per request so cancelling one session
        never touches another's statement; :meth:`cancel` still reaches
        every in-flight governor."""
        existing = getattr(self._stmt_local, "governor", None)
        if existing is not None:
            yield existing
            return
        effective_timeout = (
            self.timeout_ms if timeout_ms is _UNSET else timeout_ms
        )
        effective_budget_mb = (
            self.memory_budget_mb
            if memory_budget_mb is _UNSET
            else memory_budget_mb
        )
        budget_bytes = (
            int(effective_budget_mb * 1024 * 1024)
            if effective_budget_mb is not None and effective_budget_mb > 0
            else None
        )
        governor = QueryContext(
            timeout_ms=effective_timeout,
            memory_budget_bytes=budget_bytes,
            cancel_token=cancel_token,
            chaos=self.chaos,
        )
        self._stmt_local.governor = governor
        with self._governor_lock:
            self._active_governors.append(governor)
        try:
            yield governor
        except ResourceGovernorError as exc:
            for exc_type, counter in _GOVERNOR_COUNTERS:
                if isinstance(exc, exc_type):
                    self.metrics.counter(counter).inc()
                    break
            raise
        finally:
            self._stmt_local.governor = None
            with self._governor_lock:
                try:
                    self._active_governors.remove(governor)
                except ValueError:
                    pass
            self.last_governor = governor.report()

    def _statement(
        self,
        sql: str,
        body: Callable,
        timeout_ms=_UNSET,
        memory_budget_mb=_UNSET,
        cancel_token=None,
    ):
        """Run ``body(statement_span, governor)`` as one statement:
        governed, traced under a ``statement`` root span, timed, and —
        success or abort — recorded in the history store. Every public
        statement entry point (:meth:`execute`, :meth:`explain`,
        :meth:`explain_analyze`) goes through here, so each call leaves
        exactly one record."""
        started = time.perf_counter()
        started_at = time.time()
        info = self._stmt_local.record_info = {}
        governor: Optional[QueryContext] = None
        error: Optional[BaseException] = None
        try:
            with self._governed(
                timeout_ms, memory_budget_mb, cancel_token
            ) as governor:
                with self._tracer.statement(sql) as stmt:
                    info["span"] = stmt
                    return body(stmt, governor)
        except BaseException as exc:
            error = exc
            self.metrics.counter("statement_errors_total").inc()
            raise
        finally:
            self.metrics.histogram("statement_seconds").observe(
                time.perf_counter() - started
            )
            self._finish_statement(sql, started_at, governor, error)

    def _run_sql(
        self,
        sql: str,
        params: Optional[Sequence[object]],
        stmt: Span,
        analyze: bool = False,
    ) -> QueryResult:
        """Execute ``sql`` inside its open statement span: through the
        plan cache when it applies, else parse + run each statement.
        ``analyze`` (``explain_analyze``) admits a single SELECT only
        and profiles its operators whatever the session default."""
        if analyze:
            self._record_info()["analyze"] = True
        result = self._execute_with_plan_cache(sql, params)
        if result is None:
            with self._tracer.span("parse"):
                statements = parse_sql(sql, params)
            if analyze and (
                len(statements) != 1
                or not isinstance(statements[0], ast.SelectStatement)
            ):
                raise BindError(
                    "explain_analyze supports a single SELECT statement"
                )
            if not statements:
                raise BindError("empty statement")
            result = QueryResult.statement(0)
            for statement in statements:
                result = self._execute_statement(statement)
        stmt.attributes["rows"] = len(result)
        return result

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=_UNSET,
        memory_budget_mb=_UNSET,
        cancel_token=None,
    ) -> QueryResult:
        """Execute one or more ``;``-separated statements; returns the
        result of the last one.

        ``params`` fills ``?`` placeholders positionally; values become
        literals during parsing and are never string-interpolated, so
        user input cannot inject SQL.

        ``timeout_ms`` / ``memory_budget_mb`` override the session
        defaults for this call (``None`` or ``<= 0`` disables the
        corresponding limit). ``cancel_token`` installs a caller-owned
        :class:`~repro.governor.CancelToken` scoped to this call."""
        return self._statement(
            sql,
            lambda stmt, _governor: self._run_sql(sql, params, stmt),
            timeout_ms, memory_budget_mb, cancel_token,
        )

    def query(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=_UNSET,
        memory_budget_mb=_UNSET,
        cancel_token=None,
    ) -> QueryResult:
        """Alias of :meth:`execute` for read-style call sites."""
        return self.execute(
            sql, params,
            timeout_ms=timeout_ms, memory_budget_mb=memory_budget_mb,
            cancel_token=cancel_token,
        )

    def executemany(
        self,
        sql: str,
        seq_of_params: Iterable[Sequence[object]],
        *,
        timeout_ms=_UNSET,
        memory_budget_mb=_UNSET,
    ) -> int:
        """Run one parameterised statement per parameter tuple inside a
        single transaction; returns the total affected row count.

        A plain ``INSERT ... VALUES`` of placeholders/literals takes a
        bulk fast path: the statement is parsed and resolved **once**,
        every row is coerced against the schema, and a single
        ``insert_rows`` installs them all. Other statements loop over
        :meth:`execute`, where the plan cache amortises the per-call
        parse/bind/optimize instead.

        The batch is atomic even when interrupted mid-way
        (KeyboardInterrupt, governor abort, injected fault): in
        autocommit the owned transaction rolls back; inside an explicit
        session transaction the batch unwinds to a savepoint taken at
        entry, leaving earlier statements of the transaction intact.
        One governor covers the whole batch."""
        rows = [tuple(params) for params in seq_of_params]
        if not rows:
            return 0
        with self._governed(timeout_ms, memory_budget_mb):
            fast = self._executemany_insert(sql, rows)
            if fast is not None:
                return fast
            total = 0
            owned = self._session_txn is None
            savepoint = None
            if owned:
                self.begin()
            else:
                savepoint = self._session_txn.savepoint()
            try:
                for params in rows:
                    result = self.execute(sql, params)
                    total += max(result.rowcount, 0)
            except BaseException:
                if owned:
                    if self._session_txn is not None:
                        self.rollback()
                elif (
                    self._session_txn is not None
                    and self._session_txn.status == "active"
                ):
                    # Partial batch inside a caller-owned transaction:
                    # unwind to the entry savepoint, keep the txn open.
                    self._session_txn.rollback_to(savepoint)
                raise
            if owned:
                self.commit()
            return total

    def _executemany_insert(
        self, sql: str, rows: list[tuple]
    ) -> Optional[int]:
        """The bulk-INSERT fast path of :meth:`executemany`, or None
        when the statement doesn't qualify (caller falls back to the
        per-row loop, which reports any parse/bind error itself)."""
        try:
            statements = parse_sql(
                sql, list(rows[0]), parameterize=True
            )
        except ReproError:
            return None
        if len(statements) != 1:
            return None
        statement = statements[0]
        if not isinstance(statement, ast.Insert):
            return None
        if statement.query is not None or not statement.rows:
            return None
        cells = [cell for row in statement.rows for cell in row]
        if not all(
            isinstance(cell, (ast.Placeholder, ast.Literal))
            for cell in cells
        ):
            return None
        n_params = len(rows[0])
        started_at = time.time()
        self._stmt_local.record_info = {}
        governor = getattr(self._stmt_local, "governor", None)
        error: Optional[BaseException] = None
        try:
            return self._executemany_insert_traced(
                sql, rows, statement, n_params
            )
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._finish_statement(sql, started_at, governor, error)

    def _executemany_insert_traced(
        self, sql, rows, statement, n_params
    ) -> int:
        with self._tracer.statement(sql) as stmt:
            self._record_info()["span"] = stmt
            txn, owned = self._current_txn()
            savepoint = None if owned else txn.savepoint()
            try:
                schema = txn.schema_of(statement.table)
                target_columns = statement.columns or schema.names()
                positions = [
                    schema.index_of(name) for name in target_columns
                ]
                width = len(schema)
                types = [
                    schema.columns[pos].sql_type for pos in positions
                ]
                rows_out = []
                for params in rows:
                    if len(params) != n_params:
                        raise BindError(
                            f"executemany row has {len(params)} "
                            f"parameters, expected {n_params}"
                        )
                    for template in statement.rows:
                        if len(template) != len(positions):
                            raise BindError(
                                f"INSERT expects {len(positions)} "
                                f"values, got {len(template)}"
                            )
                        full: list[object] = [None] * width
                        for pos, sql_type, cell in zip(
                            positions, types, template
                        ):
                            value = (
                                params[cell.index]
                                if isinstance(cell, ast.Placeholder)
                                else cell.value
                            )
                            full[pos] = (
                                None
                                if value is None
                                else coerce_scalar(value, sql_type)
                            )
                        rows_out.append(tuple(full))
                count = txn.insert_rows(statement.table, rows_out)
                # Metric parity with the per-row path: each parameter
                # tuple counts as one executed statement.
                self.metrics.counter(
                    "statements_total", kind="Insert"
                ).inc(len(rows))
                stmt.attributes["rows"] = count
                if owned:
                    txn.commit()
                return count
            except BaseException:
                if owned:
                    txn.rollback()
                elif txn.status == "active":
                    # Inside a session transaction: discard this batch's
                    # partial writes, keep earlier statements intact.
                    txn.rollback_to(savepoint)
                raise

    def explain(self, sql: str) -> str:
        """The optimized logical plan of a SELECT, as text.

        Each node carries its estimated row count and the estimate's
        provenance: ``static`` (hard-wired selectivities), ``stats``
        (table statistics: dictionary NDV, zone-map min/max, null
        counts), or ``feedback`` (observed cardinalities from earlier
        executions of the same statement fingerprint).
        """

        def body(_stmt, _governor) -> str:
            statement = parse_sql(sql)
            if len(statement) != 1 or not isinstance(
                statement[0], ast.SelectStatement
            ):
                raise BindError(
                    "EXPLAIN supports a single SELECT statement"
                )
            fingerprint = sql_fingerprint(sql)
            txn, owned = self._current_txn()
            try:
                plan = self._plan_select(
                    statement[0], txn, fingerprint=fingerprint
                )
                estimator = self._make_estimator(txn, fingerprint)
                return explain_with_estimates(plan, estimator)
            finally:
                if owned:
                    txn.rollback()

        return self._statement(sql, body)

    def explain_analyze(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=_UNSET,
        memory_budget_mb=_UNSET,
    ) -> AnalyzedQuery:
        """Execute a single SELECT with per-operator instrumentation.

        Every physical operator reports rows/batches in and out, call
        count, and inclusive wall time; the returned
        :class:`AnalyzedQuery` carries the result rows plus the stats
        tree (``.root``, ``.operators()``, ``str(...)`` for the
        rendered form) and the statement's final governor report
        (``.governor``: verdict, checkpoints, peak accounted bytes).
        Iterative operators (ITERATE, recursive CTEs) accumulate their
        init/step/stop children over all rounds. The statement takes
        the same path as :meth:`execute` — plan cache included — so the
        profiled operator tree is the one ``execute`` runs.
        """
        counters_before = self._hot_path_counter_values()

        def body(stmt, governor) -> AnalyzedQuery:
            result = self._run_sql(sql, params, stmt, analyze=True)
            roots = self._record_info()["profile_roots"]
            return AnalyzedQuery(
                result, roots[0], roots[1:],
                stmt.find("execute").duration_s,
                counters=self._hot_path_counter_delta(counters_before),
                governor=governor.report(),
            )

        return self._statement(sql, body, timeout_ms, memory_budget_mb)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The session tracer (exporters read its recent root spans —
        :func:`repro.obs.timeline.export_chrome_trace` renders them as
        a Chrome-trace / Perfetto timeline)."""
        return self._tracer

    def last_trace(self) -> Optional[Span]:
        """The span tree of the most recent completed statement: a
        ``statement`` root whose children are the lifecycle phases
        (``parse``, ``bind``, ``optimize``, ``plan``, ``execute``), with
        one ``iteration`` span per round under ``execute`` for ITERATE
        and recursive CTEs. ``None`` before the first statement."""
        return self._tracer.last_root

    def query_log(self, n: int = 20) -> list[QueryRecord]:
        """The most recent ``n`` statements (oldest first): SQL text,
        total and per-phase timings, row count, and the error message
        for statements that failed — a view over ``db.history(n)``."""
        return self.history.recent(n)

    def _record_info(self) -> dict:
        """This thread's per-statement recording scratch (statement
        span, plan-cache hit flag, profiled operator trees). Thread
        local so concurrent sessions sharing one Database never mix
        their records up."""
        info = getattr(self._stmt_local, "record_info", None)
        if info is None:
            info = self._stmt_local.record_info = {}
        return info

    def _finish_statement(
        self,
        sql: str,
        started_at: float,
        governor: Optional[QueryContext],
        error: Optional[BaseException],
    ) -> None:
        """History + flight recording after one statement finishes
        (success and abort alike). Must never raise — a recording bug
        must not turn a finished statement into a failed one."""
        info = getattr(self._stmt_local, "record_info", None) or {}
        self._stmt_local.record_info = None
        staged_phases = getattr(
            self._stmt_local, "staged_phases", None
        )
        self._stmt_local.staged_phases = None
        span = info.get("span")
        if span is None:
            return
        fingerprint = sql_fingerprint(sql)
        # Capture governor scalars now (the context is frozen once the
        # statement ends) and defer record assembly to the first reader
        # — the always-on cost per statement is just this bookkeeping.
        gov = (
            {
                "verdict": governor.verdict,
                "checkpoints": governor.checkpoints,
                "peak_bytes": governor.peak_bytes,
            }
            if governor is not None
            else None
        )
        profile_roots = info.get("profile_roots") or ()
        cache_hit = bool(info.get("cache_hit"))
        workers = self.workers
        encoding = self.encoding

        def build():
            return record_from_span(
                span,
                fingerprint=fingerprint,
                started_at=started_at,
                governor=gov,
                operators=operator_observations(profile_roots),
                cache_hit=cache_hit,
                workers=workers,
                encoding=encoding,
                extra_phases=staged_phases,
            )

        try:
            self.history.record_deferred(
                build, fingerprint=fingerprint,
                duration_s=span.duration_s,
            )
        except Exception:  # noqa: BLE001 — see docstring
            self.metrics.counter("history_record_errors_total").inc()
        if error is not None and isinstance(
            error, (ResourceGovernorError, InjectedFault)
        ):
            report = governor.report() if governor is not None else None
            reason = (report or {}).get("verdict") or "error"
            if reason == "ok":
                # An operator-level injected fault bypasses the
                # governor's verdict stamping.
                reason = (
                    "injected_fault"
                    if isinstance(error, InjectedFault)
                    else "governor"
                )
            self.flight.dump(
                reason, error=error, governor=report, trace=span
            )

    def table_names(self) -> list[str]:
        txn, owned = self._current_txn()
        try:
            return txn.visible_tables()
        finally:
            if owned:
                txn.rollback()

    def table_schema(self, name: str) -> TableSchema:
        txn, owned = self._current_txn()
        try:
            return txn.schema_of(name)
        finally:
            if owned:
                txn.rollback()

    def row_count(self, name: str) -> int:
        txn, owned = self._current_txn()
        try:
            return txn.read(name).row_count
        finally:
            if owned:
                txn.rollback()

    def storage_stats(self) -> dict:
        """Per-table storage footprint of the latest committed
        versions: encoded bytes actually held vs the bytes a raw
        columnar layout would spend (VARCHAR accounted as an 8-byte
        slot plus the string payload per row), and each column's
        physical layout. Also refreshes the ``storage_bytes_raw`` /
        ``storage_bytes_encoded`` gauges, so the footprint win is
        visible next to the engine's other metrics."""
        ts = self.catalog.current_ts
        tables = {}
        raw_total = encoded_total = 0
        for name in self.catalog.table_names(ts):
            data = self.catalog.data(name, ts)
            raw = sum(column_raw_nbytes(c) for c in data.columns)
            encoded = sum(c.nbytes for c in data.columns)
            tables[name] = {
                "rows": data.row_count,
                "raw_bytes": raw,
                "encoded_bytes": encoded,
                "columns": {
                    schema_col.name: column_encoding_of(col)
                    for schema_col, col in zip(
                        data.schema, data.columns
                    )
                },
            }
            raw_total += raw
            encoded_total += encoded
        self.metrics.gauge("storage_bytes_raw").set(raw_total)
        self.metrics.gauge("storage_bytes_encoded").set(encoded_total)
        return {
            "encoding": self.encoding,
            "raw_bytes": raw_total,
            "encoded_bytes": encoded_total,
            "tables": tables,
        }

    def load_csv(
        self,
        table: str,
        path: str,
        delimiter: str = ",",
        header: bool = True,
        create: bool = True,
        column_types=None,
    ) -> int:
        """Bulk-load a CSV file (see :mod:`repro.api.csv_io`)."""
        from .csv_io import load_csv

        return load_csv(
            self, table, path, delimiter=delimiter, header=header,
            create=create, column_types=column_types,
        )

    def vacuum(self) -> int:
        """Garbage-collect table versions no active snapshot can reach;
        returns the number of versions freed."""
        return self.txns.vacuum()

    def insert_rows(
        self, table: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Bulk-load Python rows (bypasses SQL parsing — the fast path
        data scientists get from HyPer-style bulk loading)."""
        txn, owned = self._current_txn()
        try:
            count = txn.insert_rows(table, rows)
            if owned:
                txn.commit()
            return count
        except BaseException:
            if owned and txn.status == "active":
                txn.rollback()
            raise

    def load_columns(
        self, table: str, columns: dict[str, np.ndarray]
    ) -> int:
        """Bulk-load numpy columns directly into a table (zero-copy
        where dtypes already match). Column names must cover the schema.
        Note: this fast path bypasses the WAL."""
        txn, owned = self._current_txn()
        try:
            current = txn.read(table)
            schema = current.schema
            cols = []
            for col_schema in schema:
                if col_schema.name not in columns:
                    raise CatalogError(
                        f"load_columns: missing column "
                        f"{col_schema.name!r}"
                    )
            lengths = {len(v) for v in columns.values()}
            if len(lengths) != 1:
                raise CatalogError("load_columns: ragged input")
            for col_schema in schema:
                values = np.asarray(columns[col_schema.name])
                target = col_schema.sql_type.numpy_dtype()
                if values.dtype != target:
                    values = values.astype(target)
                cols.append(Column(values, col_schema.sql_type))
            addition = TableData(schema, cols)
            txn.write(table, current.append_data(addition))
            if owned:
                txn.commit()
            return addition.row_count
        except BaseException:
            if owned and txn.status == "active":
                txn.rollback()
            raise

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _current_txn(self) -> tuple[Transaction, bool]:
        """(transaction, owned): owned means this statement must
        commit/abort it (autocommit)."""
        if self._session_txn is not None:
            return self._session_txn, False
        return self.txns.begin(), True

    def _make_binder(
        self, txn: Transaction, param_types=None
    ) -> Binder:
        return Binder(
            _TxnCatalogView(txn), self.udfs, self.analytics,
            param_types=param_types,
        )

    def _make_exec_context(
        self, txn: Transaction, fingerprint: Optional[str] = None
    ) -> ExecutionContext:
        ctx = ExecutionContext(
            read_table=txn.read,
            analytics=self.analytics,
            udfs=self.udfs,
            morsel_rows=self.morsel_rows,
            max_iterations=self.max_iterations,
            tracer=self._tracer,
            metrics=self.metrics,
            pool=self.pool,
            parallel_threshold=self.parallel_threshold,
            governor=getattr(self._stmt_local, "governor", None),
        )
        ctx.profile = self.profile_operators or bool(
            self._record_info().get("analyze")
        )
        ctx.topn = self.topn_enabled
        if ctx.profile:
            # Stamp the optimizer's cardinality estimate — and its
            # provenance (static / stats / feedback) — onto every
            # profiled operator so explain_analyze and the history
            # store can report estimated vs observed rows (q-error).
            ctx.estimator = self._make_estimator(txn, fingerprint)
        # One switch for the whole hot-path stack: the session's
        # plan-cache setting also gates kernel caching, zone-map
        # pruning, and the CSR cache.
        active = self.plan_cache_active()
        ctx.hot_path = active
        ctx.compiler.enabled = active
        return ctx

    def _flush_exec_metrics(self, ctx: ExecutionContext) -> None:
        """Fold one statement's :class:`ExecutionStats` and profiled
        operator trees into the session metrics registry."""
        stats = ctx.stats
        batches = 0
        for root in ctx.profile_roots:
            for node in root.walk():
                batches += node.batches_out
                self.metrics.histogram(
                    "operator_self_seconds", op=node.operator_class
                ).observe(node.self_s)
        stats.batches_produced += batches
        if stats.rows_scanned:
            self.metrics.counter("exec_rows_scanned_total").inc(
                stats.rows_scanned
            )
        if stats.iterations:
            self.metrics.counter("exec_iterations_total").inc(
                stats.iterations
            )
        if batches:
            self.metrics.counter("exec_batches_total").inc(batches)
        if stats.parallel_pipelines:
            self.metrics.counter("exec_parallel_pipelines_total").inc(
                stats.parallel_pipelines
            )
        if stats.morsels_dispatched:
            self.metrics.counter("exec_morsels_dispatched_total").inc(
                stats.morsels_dispatched
            )
        if stats.morsels_pruned:
            self.metrics.counter("scan_morsels_pruned_total").inc(
                stats.morsels_pruned
            )
        self.metrics.gauge("exec_peak_live_tuples").set(
            stats.peak_live_tuples
        )

    def _feedback_overrides(
        self, fingerprint: Optional[str]
    ) -> Optional[dict]:
        """Observed-cardinality overrides for ``fingerprint``; None when
        feedback is off, the fingerprint is unknown, or profiling (the
        observation source) is disabled."""
        if (
            not self.feedback_enabled
            or not self.profile_operators
            or not fingerprint
        ):
            return None
        overrides = self._feedback.overrides_for(fingerprint)
        return overrides or None

    def _make_estimator(
        self, txn: Transaction, fingerprint: Optional[str] = None
    ) -> CardinalityEstimator:
        return CardinalityEstimator(
            lambda name: txn.read(name).row_count,
            self.analytics,
            stats=TableStatistics(txn.read, self._stats_cache),
            feedback=self._feedback_overrides(fingerprint),
            metrics=self.metrics,
        )

    def _make_optimizer(
        self, txn: Transaction, fingerprint: Optional[str] = None
    ) -> Optimizer:
        def row_count_of(name: str) -> int:
            return txn.read(name).row_count

        return Optimizer(
            row_count_of,
            self.analytics,
            enabled=self.optimize_enabled,
            stats=TableStatistics(txn.read, self._stats_cache),
            feedback=self._feedback_overrides(fingerprint),
            metrics=self.metrics,
        )

    def _plan_select(
        self, statement: ast.SelectStatement, txn, param_types=None,
        fingerprint: Optional[str] = None,
    ):
        with self._tracer.span("bind"):
            plan = self._make_binder(txn, param_types).bind_query(
                statement
            )
        with self._tracer.span("optimize"):
            return self._make_optimizer(txn, fingerprint).optimize(plan)

    # -- statement/plan cache ------------------------------------------

    #: Counters of the hot-path stack, surfaced as a per-statement
    #: delta on :class:`AnalyzedQuery` (docs/performance.md).
    HOT_PATH_COUNTERS = (
        "exec_plan_cache_hits_total",
        "exec_plan_cache_misses_total",
        "expr_kernel_cache_hits_total",
        "expr_kernel_cache_misses_total",
        "scan_morsels_pruned_total",
        "exec_parallel_pipelines_total",
        "exec_morsels_dispatched_total",
        "exec_loop_invariant_materialized_total",
        "exec_loop_invariant_reused_total",
        "analytics_csr_cache_hits_total",
        "analytics_csr_cache_misses_total",
    )

    def _hot_path_counter_values(self) -> dict:
        counters = self.metrics.snapshot()["counters"]
        return {
            name: counters.get(name, 0.0)
            for name in self.HOT_PATH_COUNTERS
        }

    def _hot_path_counter_delta(self, before: dict) -> dict:
        after = self._hot_path_counter_values()
        return {
            name: after[name] - before[name]
            for name in self.HOT_PATH_COUNTERS
            if after[name] != before[name]
        }

    def plan_cache_active(self) -> bool:
        """Whether the hot-path caches apply to this session right now
        (constructor override, else the REPRO_PLAN_CACHE switch)."""
        if self._plan_cache_enabled is not None:
            return self._plan_cache_enabled
        return cache_enabled()

    def _plan_cache_epoch(self) -> tuple:
        return (self.catalog.ddl_version, self._cache_epoch)

    def _execute_with_plan_cache(
        self, sql: str, params: Optional[Sequence[object]]
    ) -> Optional[QueryResult]:
        """Serve ``sql`` through the plan cache; None means "not
        cacheable — run the ordinary literal-substitution path".

        Only single SELECT statements are cached. Parameter *values*
        never enter the key — only their SQL types do — so a point query
        re-executed with fresh parameters reuses the plan. NULL
        parameters bypass the cache (they bind as NULLTYPE literals with
        their own comparison folding), as does a session transaction
        holding uncommitted local DDL (the snapshot disagrees with the
        committed catalog version the epoch tracks)."""
        if not self.plan_cache_active():
            return None
        values = list(params) if params is not None else []
        if any(value is None for value in values):
            return None
        txn_local = self._session_txn
        if txn_local is not None and (
            txn_local.created_tables or txn_local.dropped_tables
        ):
            return None
        fingerprint = sql_fingerprint(sql)
        if fingerprint is None:
            return None
        try:
            param_types = [infer_literal_type(v) for v in values]
        except ReproError:
            return None
        key = (fingerprint, tuple(t.kind.value for t in param_types))
        epoch = self._plan_cache_epoch()
        entry = self._plan_cache.lookup(key, epoch)
        if isinstance(entry, NegativePlan):
            return None
        txn, owned = self._current_txn()
        try:
            if isinstance(entry, CachedPlan) and self._feedback_stale(
                fingerprint, entry.plan, txn
            ):
                # Observed cardinalities flipped a plan choice: the
                # epoch bump above retired the stale entry; re-plan now
                # under the feedback estimates instead of reusing it.
                entry = None
            if isinstance(entry, CachedPlan):
                self.metrics.counter("exec_plan_cache_hits_total").inc()
                self._record_info()["cache_hit"] = True
                plan = entry.plan
            else:
                self.metrics.counter(
                    "exec_plan_cache_misses_total"
                ).inc()
                plan = self._try_cache_plan(
                    sql, values, param_types, key, txn,
                    fingerprint=fingerprint,
                )
                if plan is None:
                    if owned:
                        txn.rollback()
                    return None
            self.metrics.counter(
                "statements_total", kind="SelectStatement"
            ).inc()
            result = self._execute_plan(
                plan, txn, query_params=values, fingerprint=fingerprint
            )
            if owned:
                txn.commit()
            return result
        except BaseException:
            if owned and txn.status == "active":
                txn.rollback()
            raise

    def _feedback_stale(
        self, fingerprint: str, plan, txn: Transaction
    ) -> bool:
        """Whether observed cardinalities would flip a join build side
        the cached ``plan`` committed to. When they would, the plan
        cache epoch is bumped (retiring every entry of the old epoch)
        so the statement re-optimizes under feedback estimates. A
        freshly re-optimized plan is a fixpoint of the build-side rule,
        so at most one bump happens per feedback change — repeated
        executions settle back onto cache hits (the no-thrash
        property)."""
        overrides = self._feedback_overrides(fingerprint)
        if not overrides:
            return False
        estimator = CardinalityEstimator(
            lambda name: txn.read(name).row_count,
            self.analytics,
            stats=TableStatistics(txn.read, self._stats_cache),
            feedback=overrides,
            metrics=self.metrics,
        )
        if not self._feedback.wants_replan(fingerprint, plan, estimator):
            return False
        self._cache_epoch += 1
        self.metrics.counter(
            "plan_cache_feedback_invalidations_total"
        ).inc()
        return True

    def _try_cache_plan(
        self, sql, values, param_types, key, txn, fingerprint=None
    ):
        """Plan ``sql`` in parameterized mode against ``txn`` and cache
        the result; None (after storing a negative entry) when the
        statement cannot take the cached path."""
        epoch = self._plan_cache_epoch()
        try:
            with self._tracer.span("parse"):
                statements = parse_sql(sql, values, parameterize=True)
        except ReproError:
            self._plan_cache.store(key, NegativePlan(epoch))
            return None
        if len(statements) != 1 or not isinstance(
            statements[0], ast.SelectStatement
        ):
            self._plan_cache.store(key, NegativePlan(epoch))
            return None
        try:
            plan = self._plan_select(
                statements[0], txn, param_types=param_types,
                fingerprint=fingerprint,
            )
        except ReproError:
            # LIMIT ?, GROUP BY ?, analytics args, ... need values at
            # bind time; remember that and use the literal path.
            self._plan_cache.store(key, NegativePlan(epoch))
            return None
        self._plan_cache.store(key, CachedPlan(plan, epoch))
        return plan

    def _execute_plan(
        self,
        plan,
        txn: Transaction,
        query_params: Optional[Sequence[object]] = None,
        fingerprint: Optional[str] = None,
    ) -> QueryResult:
        """Instantiate and run physical operators for an optimized
        logical plan (fresh or cached)."""
        ctx = self._make_exec_context(txn, fingerprint=fingerprint)
        if query_params:
            ctx.query_params = {
                f"?{i}": value for i, value in enumerate(query_params)
            }
        with self._tracer.span("plan"):
            op = build_physical(plan, ctx)
        try:
            with self._tracer.span("execute"):
                batch = materialize(
                    list(op.execute(ctx.new_eval_context())), plan.output
                )
        finally:
            # Publish even when execution aborts (iteration limit, ...):
            # rounds already executed stay observable.
            self.last_stats = ctx.stats
            self._record_info()["profile_roots"] = ctx.profile_roots
            self._flush_exec_metrics(ctx)
        result = QueryResult.from_batch(batch, plan.output)
        result.telemetry = dict(ctx.telemetry)
        return result

    def _execute_statement(self, statement: ast.Statement) -> QueryResult:
        self.metrics.counter(
            "statements_total", kind=type(statement).__name__
        ).inc()
        if isinstance(statement, ast.BeginTransaction):
            self.begin()
            return QueryResult.statement(0)
        if isinstance(statement, ast.CommitTransaction):
            self.commit()
            return QueryResult.statement(0)
        if isinstance(statement, ast.RollbackTransaction):
            self.rollback()
            return QueryResult.statement(0)

        txn, owned = self._current_txn()
        try:
            if isinstance(statement, ast.SelectStatement):
                result = self._run_select(statement, txn)
            elif isinstance(statement, ast.Explain):
                plan = self._plan_select(statement.query, txn)
                lines = explain_with_estimates(
                    plan, self._make_estimator(txn)
                ).splitlines()
                result = QueryResult(
                    columns=["plan"],
                    types=[type_from_name("VARCHAR")],
                    batch=ColumnBatch(
                        {
                            "plan": Column.from_values(
                                lines, type_from_name("VARCHAR")
                            )
                        }
                    ),
                    slots=["plan"],
                )
            elif isinstance(statement, ast.CreateTable):
                result = self._run_create(statement, txn)
            elif isinstance(statement, ast.DropTable):
                txn.drop_table(statement.name, statement.if_exists)
                result = QueryResult.statement(0)
            elif isinstance(statement, ast.Insert):
                result = self._run_insert(statement, txn)
            elif isinstance(statement, ast.Update):
                result = self._run_update(statement, txn)
            elif isinstance(statement, ast.Delete):
                result = self._run_delete(statement, txn)
            else:
                raise ReproError(
                    f"unsupported statement {type(statement).__name__}"
                )
            if owned:
                txn.commit()
            return result
        except BaseException:
            if owned and txn.status == "active":
                txn.rollback()
            raise

    def _run_select(
        self, statement: ast.SelectStatement, txn: Transaction
    ) -> QueryResult:
        plan = self._plan_select(statement, txn)
        return self._execute_plan(plan, txn)

    def _run_create(
        self, statement: ast.CreateTable, txn: Transaction
    ) -> QueryResult:
        if statement.as_query is not None:
            inner = self._run_select(statement.as_query, txn)
            schema = TableSchema(
                tuple(
                    ColumnSchema(name, sql_type)
                    for name, sql_type in zip(inner.columns, inner.types)
                )
            )
            txn.create_table(
                statement.name, schema, statement.if_not_exists
            )
            txn.insert_rows(statement.name, inner.rows)
            return QueryResult.statement(len(inner))
        columns = []
        for col in statement.columns:
            sql_type = type_from_name(col.type_name, col.width)
            columns.append(ColumnSchema(col.name, sql_type, col.not_null))
        txn.create_table(
            statement.name, TableSchema(tuple(columns)),
            statement.if_not_exists,
        )
        return QueryResult.statement(0)

    def _run_insert(
        self, statement: ast.Insert, txn: Transaction
    ) -> QueryResult:
        schema = txn.schema_of(statement.table)
        target_columns = statement.columns or schema.names()
        positions = [schema.index_of(name) for name in target_columns]

        if statement.query is not None:
            inner = self._run_select(statement.query, txn)
            source_rows = inner.rows
        else:
            assert statement.rows is not None
            source_rows = self._evaluate_value_rows(statement.rows, txn)

        width = len(schema)
        rows_out = []
        for row in source_rows:
            if len(row) != len(positions):
                raise BindError(
                    f"INSERT expects {len(positions)} values, got "
                    f"{len(row)}"
                )
            full: list[object] = [None] * width
            for pos, value in zip(positions, row):
                col_schema = schema.columns[pos]
                full[pos] = (
                    None
                    if value is None
                    else coerce_scalar(value, col_schema.sql_type)
                )
            rows_out.append(tuple(full))
        count = txn.insert_rows(statement.table, rows_out)
        return QueryResult.statement(count)

    def _evaluate_value_rows(
        self, rows: list[list[ast.Expr]], txn: Transaction
    ) -> list[tuple]:
        binder = self._make_binder(txn)
        ctx = self._make_exec_context(txn)
        from ..exec.scan import ValuesOp
        from ..types import INTEGER

        one_row = ColumnBatch(
            {ValuesOp.CARRIER: Column(np.zeros(1, np.int32), INTEGER)}
        )
        eval_ctx = ctx.new_eval_context()
        out = []
        for row in rows:
            values = []
            for cell in row:
                bound = binder.bind_standalone(cell, [])
                compiled = ctx.compiler.compile(bound)
                values.append(compiled(one_row, eval_ctx).value_at(0))
            out.append(tuple(values))
        return out

    def _table_as_batch(
        self, data: TableData
    ) -> tuple[ColumnBatch, list[PlanColumn]]:
        columns = [
            PlanColumn(c.name, f"u.{c.name}", c.sql_type)
            for c in data.schema
        ]
        batch = ColumnBatch(
            {
                col.slot: data.columns[i]
                for i, col in enumerate(columns)
            }
        )
        return batch, columns

    def _run_update(
        self, statement: ast.Update, txn: Transaction
    ) -> QueryResult:
        data = txn.read(statement.table)
        batch, columns = self._table_as_batch(data)
        binder = self._make_binder(txn)
        ctx = self._make_exec_context(txn)
        eval_ctx = ctx.new_eval_context()

        if statement.where is not None:
            predicate = binder.bind_standalone(statement.where, columns)
            mask = truth_mask(
                ctx.compiler.compile(predicate)(batch, eval_ctx)
            )
        else:
            mask = np.ones(data.row_count, dtype=np.bool_)

        replacements: dict[int, Column] = {}
        for col_name, expr in statement.assignments:
            ordinal = data.schema.index_of(col_name)
            target_schema = data.schema.columns[ordinal]
            bound = binder.bind_standalone(expr, columns)
            new_col = ctx.compiler.compile(bound)(batch, eval_ctx)
            new_col = new_col.cast(target_schema.sql_type)
            old_col = data.columns[ordinal]
            merged_values = np.where(mask, new_col.values, old_col.values)
            if data.schema.columns[ordinal].sql_type.numpy_dtype() == object:
                merged_values = merged_values.astype(object)
            else:
                merged_values = merged_values.astype(
                    target_schema.sql_type.numpy_dtype()
                )
            merged_valid = np.where(
                mask, new_col.validity(), old_col.validity()
            )
            if target_schema.not_null and not merged_valid.all():
                raise CatalogError(
                    f"NULL in NOT NULL column {col_name!r}"
                )
            replacements[ordinal] = Column(
                merged_values, target_schema.sql_type, merged_valid
            )
        new_data = data.replace_columns(replacements)
        txn.write(statement.table, new_data)
        self._log_replace(txn, statement.table, new_data)
        updated = int(mask.sum())
        self.metrics.counter("storage_rows_updated_total").inc(updated)
        return QueryResult.statement(updated)

    def _run_delete(
        self, statement: ast.Delete, txn: Transaction
    ) -> QueryResult:
        data = txn.read(statement.table)
        batch, columns = self._table_as_batch(data)
        if statement.where is None:
            keep = np.zeros(data.row_count, dtype=np.bool_)
        else:
            binder = self._make_binder(txn)
            ctx = self._make_exec_context(txn)
            predicate = binder.bind_standalone(statement.where, columns)
            mask = truth_mask(
                ctx.compiler.compile(predicate)(
                    batch, ctx.new_eval_context()
                )
            )
            keep = ~mask
        deleted = int(data.row_count - keep.sum())
        new_data = data.delete_where(keep)
        txn.write(statement.table, new_data)
        self._log_replace(txn, statement.table, new_data)
        self.metrics.counter("storage_rows_deleted_total").inc(deleted)
        return QueryResult.statement(deleted)

    def _log_replace(
        self, txn: Transaction, table: str, data: TableData
    ) -> None:
        """Record a whole-table replacement in the WAL (UPDATE/DELETE)."""
        if self.txns.wal is None:
            return
        txn._log.append(("replace", table.lower(), list(data.rows())))


def connect(wal_path: Optional[str] = None, **kwargs) -> Database:
    """Open a database session (sqlite3-flavoured convenience)."""
    return Database(wal_path=wal_path, **kwargs)
