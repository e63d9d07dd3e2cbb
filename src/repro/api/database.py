"""The :class:`Database` — the engine's public entry point.

One object composes the whole stack: catalog + transaction manager
(snapshot isolation, optional WAL), the statement pipeline
(:mod:`repro.api.pipeline`: SQL front end, optimizer, plan cache,
vectorised executor), the analytics operator registry and the UDF
registry — configured by one frozen :class:`~repro.config.EngineConfig`.

Statements run through a :class:`~repro.api.session.Session`. The
database owns a default one — ``db.execute`` / ``db.begin`` / ... are
one-line delegations to it — and hands out more with
:meth:`Database.session`, each with its own transaction.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..analytics.registry import OperatorRegistry, default_registry
from ..config import EngineConfig
from ..errors import CatalogError, TransactionError
from ..exec.parallel import WorkerPool
from ..exec.physical import ExecutionStats
from ..obs.flight import FlightRecorder
from ..obs.history import QueryHistory, QueryRecord
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.trace import Span, Tracer
from ..storage.allocator import pin_malloc_policy
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.encoding import column_encoding_of, column_raw_nbytes
from ..storage.schema import TableSchema
from ..txn.checkpoint import (
    load_snapshot,
    restore_into,
    snapshot_path,
    write_snapshot,
)
from ..txn.manager import TransactionManager
from ..txn.wal import WriteAheadLog
from ..types import SQLType, type_from_name
from ..udf.registry import TableUDFDescriptor, UDFRegistry
from .pipeline import StatementPipeline
from .result import AnalyzedQuery, QueryResult
from .session import UNSET, Session


def _setting(field: str) -> property:
    return property(
        lambda self: getattr(self.config, field),
        doc=f"``db.config.{field}`` (read-only).",
    )


def _weakly(method) -> Callable:
    """``method`` as a callback that does not keep its object alive. The
    parts of a database that call back into it hold these, so that a
    dropped :class:`Database` is freed — tables and all — when its last
    reference goes, not whenever the cyclic collector next runs (which
    counts objects, and a recovered catalog is a few large buffers)."""
    ref = weakref.WeakMethod(method)

    def call(*args):
        target = ref()
        if target is not None:
            target(*args)

    return call


class Database:
    """A main-memory relational database with in-core analytics.

    Every keyword argument is one :class:`~repro.config.EngineConfig`
    field, resolved argument > environment variable > default at
    construction and readable afterwards as ``db.config`` — the
    settings table in ``docs/api.md`` lists each field with its
    environment variable, default and meaning. ``chaos`` takes a live
    :class:`repro.testing.chaos.ChaosInjector` (``db.chaos``); the
    config records its spec. Passing a ``wal_path`` that already holds
    a log **recovers** from it.
    """

    def __init__(
        self,
        wal_path: Optional[str] = None,
        optimize: Optional[bool] = None,
        morsel_rows: Optional[int] = None,
        max_iterations: Optional[int] = None,
        profile_operators: Optional[bool] = None,
        workers: Optional[int] = None,
        parallel_threshold: Optional[int] = None,
        plan_cache: Optional[bool] = None,
        timeout_ms: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
        chaos=None,
        encoding: Optional[str] = None,
        history: Optional[str] = None,
        slow_ms: Optional[float] = None,
        flight_dir: Optional[str] = None,
        topn: Optional[bool] = None,
        checkpoint_bytes: Optional[int] = None,
        recovery: Optional[str] = None,
    ):
        arguments = {k: v for k, v in locals().items() if k != "self"}
        pin_malloc_policy()
        #: The resolved, frozen engine settings.
        self.config = config = EngineConfig.resolve(**arguments)
        if chaos is None and config.chaos is not None:
            from ..testing.chaos import ChaosInjector

            # Environment-configured injectors come up armed.
            chaos = ChaosInjector.from_spec(config.chaos).arm()
        #: Optional chaos injector, consulted by every statement's
        #: governor and by the worker pool (docs/robustness.md).
        self.chaos = chaos
        self.catalog = Catalog()
        #: Metrics registry; mirrored into
        #: :func:`repro.obs.metrics.global_registry` so tools that open
        #: many databases (bench sweeps, the fuzzer) see aggregates.
        self.metrics = MetricsRegistry(parent=global_registry())
        #: The WAL itself is opened *after* the flight recorder exists,
        #: so a failed recovery can dump a diagnostic bundle.
        self.txns = TransactionManager(
            self.catalog, None, metrics=self.metrics,
            encoding=config.encoding,
        )
        self.udfs = UDFRegistry()
        self.analytics: OperatorRegistry = default_registry()
        #: The tracer (exporters read its recent root spans —
        #: :func:`repro.obs.timeline.export_chrome_trace` renders them
        #: as a Chrome-trace / Perfetto timeline).
        self.tracer = Tracer()
        #: Shared morsel-dispatch pool; threads are created lazily, so a
        #: serial engine never spawns any. The tracer rides along so
        #: worker-side morsel spans stitch under the owning statement.
        self.pool = WorkerPool(
            config.workers, metrics=self.metrics, chaos=self.chaos,
            tracer=self.tracer,
        )
        #: Always-on per-statement history store: recent records
        #: (``db.history(n)``), the per-fingerprint index
        #: (``db.history.by_fingerprint(fp)``), and the slow-query log
        #: (``db.history.slow()``). See docs/observability.md.
        self.history = QueryHistory(
            spill_path=config.history, slow_ms=config.slow_ms,
            metrics=self.metrics,
        )
        #: Flight recorder: a self-contained diagnostic bundle is
        #: dumped whenever a statement dies on a governor abort or an
        #: injected fault, and whenever a worker crash is survived.
        self.flight = FlightRecorder(
            tracer=self.tracer,
            history=self.history,
            metrics=self.metrics,
            config=dataclasses.asdict(config),
            directory=config.flight_dir,
        )
        #: The engine-wide statement pipeline (stages, plan cache).
        self.pipeline = StatementPipeline(self)
        self.pool.on_worker_crash = _weakly(self.pipeline.on_worker_crash)
        #: The session ``db.execute`` / ``db.begin`` / ... run on.
        self.default_session = Session(self.pipeline)
        #: Telemetry of the most recent durable open (``None`` for a
        #: pure in-memory database): snapshot used, records scanned /
        #: replayed / discarded, torn-tail bytes, duration.
        self.last_recovery: Optional[dict] = None
        #: Result of the most recent :meth:`checkpoint`.
        self.last_checkpoint: Optional[dict] = None
        self._checkpointing = False
        if config.wal_path is not None:
            try:
                self._open_durable(config.wal_path)
            except BaseException as exc:
                self.flight.dump(
                    "recovery_failure",
                    error=exc if isinstance(exc, Exception) else None,
                )
                raise
            self.txns.after_commit = _weakly(self._maybe_checkpoint)

    # -- settings, as read-only views of ``config`` ----------------------

    wal_path = _setting("wal_path")
    morsel_rows = _setting("morsel_rows")
    max_iterations = _setting("max_iterations")
    profile_operators = _setting("profile_operators")
    workers = _setting("workers")
    parallel_threshold = _setting("parallel_threshold")
    encoding = _setting("encoding")
    topn_enabled = _setting("topn")
    #: Always False: read only by perf/harness.py::engine_config.
    feedback_enabled = property(lambda self: False)
    checkpoint_bytes = _setting("checkpoint_bytes")
    recovery = _setting("recovery")

    def plan_cache_active(self) -> bool:
        """Whether the hot-path caches (plan cache, kernel cache,
        zone-map pruning, CSR cache) apply."""
        return self.config.plan_cache

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
            wal_path, metrics=self.metrics, recovery=self.config.recovery
        )
        try:
            self.txns.wal = wal
            min_seq = 0
            tables_restored = 0
            if snapshot is not None:
                tables_restored = restore_into(self.txns, snapshot)
                min_seq = int(snapshot.get("wal_seq", 0))
                wal.ensure_seq(min_seq)
            restored = time.perf_counter()
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
            # Snapshot load + restore + opening the log, then the
            # replay of the log's suffix.
            "snapshot_seconds": restored - started,
            "replay_seconds": duration - (restored - started),
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
        started = time.perf_counter()
        with self.txns._lock:
            ts = self.catalog.current_ts
            seq = wal.last_seq
            written = write_snapshot(
                snapshot_path(wal.path), self.catalog, ts, seq
            )
            wal.truncate_through(seq)
        self.metrics.counter("wal_checkpoints_total").inc()
        self.metrics.gauge("wal_size_bytes").set(wal.size_bytes())
        self.last_checkpoint = {
            "wal_seq": seq,
            "commit_ts": ts,
            "tables": len(written["tables"]),
            "snapshot_bytes": written["bytes"],
            "wal_bytes_after": wal.size_bytes(),
            "duration_seconds": time.perf_counter() - started,
        }
        return self.last_checkpoint

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint policy, invoked from the commit path (under
        the manager's re-entrant lock) after every durable commit."""
        if self._checkpointing or not self.config.checkpoint_bytes:
            return
        wal = self.txns.wal
        if wal is None or wal.path is None:
            return
        if wal.size_bytes() < self.config.checkpoint_bytes:
            return
        self._checkpointing = True
        try:
            self.checkpoint()
        finally:
            self._checkpointing = False


    def close(self) -> None:
        """Release engine resources (joins the worker pool). The
        database stays usable afterwards — worker threads respawn on
        the next parallel statement, and the WAL append handle reopens
        on the next durable commit. Idempotent: closing twice is a
        no-op."""
        self.pool.shutdown()
        if self.txns.wal is not None:
            self.txns.wal.close()

    def cancel(self) -> int:
        """Cooperatively cancel every in-flight statement of every
        session.

        Safe to call from any thread. Each running statement observes
        the cancellation at its next morsel / iteration-round checkpoint
        and aborts with :class:`~repro.errors.QueryCancelled` (its
        transaction rolls back; the session stays usable). Returns the
        number of statements signalled."""
        return self.pipeline.cancel()

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
        self.pipeline.bump_cache_epoch()

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
        self.pipeline.bump_cache_epoch()

    def register_operator(self, descriptor) -> None:
        """Plug a custom analytics operator into the core (layer 4)."""
        self.analytics.register(descriptor)
        self.pipeline.bump_cache_epoch()

    # ------------------------------------------------------------------
    # sessions: the default one, and more on request
    # ------------------------------------------------------------------

    def session(self) -> Session:
        """A new :class:`~repro.api.session.Session` over this engine,
        with its own transaction slot; ``release()`` it when done."""
        return Session(self.pipeline)

    def begin(self) -> None:
        self.default_session.begin()

    def commit(self) -> None:
        self.default_session.commit()

    def rollback(self) -> None:
        self.default_session.rollback()

    @property
    def in_transaction(self) -> bool:
        return self.default_session.txn is not None

    def transaction(self):
        """``with db.transaction():`` — commit on success, roll back on
        error."""
        return self.default_session.transaction()

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
        cancel_token=None,
    ) -> QueryResult:
        """Execute one or more ``;``-separated statements on the
        default session (:meth:`Session.execute
        <repro.api.session.Session.execute>`)."""
        return self.default_session.execute(
            sql, params,
            timeout_ms=timeout_ms, memory_budget_mb=memory_budget_mb,
            cancel_token=cancel_token,
        )

    #: Alias of :meth:`execute` for read-style call sites.
    query = execute

    def executemany(
        self,
        sql: str,
        seq_of_params: Iterable[Sequence[object]],
        *,
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
    ) -> int:
        """One parameterised statement per parameter tuple, atomically
        (:meth:`Session.executemany
        <repro.api.session.Session.executemany>`)."""
        return self.default_session.executemany(
            sql, seq_of_params,
            timeout_ms=timeout_ms, memory_budget_mb=memory_budget_mb,
        )

    def explain(self, sql: str) -> str:
        """The optimized logical plan of a SELECT, as text
        (:meth:`Session.explain <repro.api.session.Session.explain>`)."""
        return self.default_session.explain(sql)

    def explain_analyze(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
    ) -> AnalyzedQuery:
        """Execute a single SELECT with per-operator instrumentation
        (:meth:`Session.explain_analyze
        <repro.api.session.Session.explain_analyze>`)."""
        return self.default_session.explain_analyze(
            sql, params,
            timeout_ms=timeout_ms, memory_budget_mb=memory_budget_mb,
        )

    @property
    def last_stats(self) -> ExecutionStats:
        """Stats of the default session's most recent statement."""
        return self.default_session.last_stats

    @property
    def last_governor(self) -> Optional[dict]:
        """Final governor report of the default session's most recent
        statement."""
        return self.default_session.last_governor

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def last_trace(self) -> Optional[Span]:
        """The span tree of the most recent completed statement: a
        ``statement`` root whose children are the lifecycle phases
        (``parse``, ``bind``, ``optimize``, ``plan``, ``execute``), with
        one ``iteration`` span per round under ``execute`` for ITERATE
        and recursive CTEs. ``None`` before the first statement."""
        return self.tracer.last_root

    def query_log(self, n: int = 20) -> list[QueryRecord]:
        """The most recent ``n`` statements (oldest first): SQL text,
        total and per-phase timings, row count, and the error message
        for statements that failed — a view over ``db.history(n)``."""
        return self.history.recent(n)

    def table_names(self) -> list[str]:
        with self.default_session.autocommit(commit=False) as txn:
            return txn.visible_tables()

    def table_schema(self, name: str) -> TableSchema:
        with self.default_session.autocommit(commit=False) as txn:
            return txn.schema_of(name)

    def row_count(self, name: str) -> int:
        with self.default_session.autocommit(commit=False) as txn:
            return txn.read(name).row_count

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
            "encoding": self.config.encoding,
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
        with self.default_session.autocommit() as txn:
            return txn.insert_rows(table, rows)

    def load_columns(
        self, table: str, columns: dict[str, np.ndarray]
    ) -> int:
        """Bulk-load numpy columns directly into a table (zero-copy
        where dtypes already match). Column names must cover the schema.
        On a durable database the batch is logged as one binary column
        chunk, like any other append."""
        with self.default_session.autocommit() as txn:
            schema = txn.schema_of(table)
            for col_schema in schema:
                if col_schema.name not in columns:
                    raise CatalogError(
                        f"load_columns: missing column "
                        f"{col_schema.name!r}"
                    )
            lengths = {len(v) for v in columns.values()}
            if len(lengths) != 1:
                raise CatalogError("load_columns: ragged input")
            cols = []
            for col_schema in schema:
                values = np.asarray(columns[col_schema.name])
                target = col_schema.sql_type.numpy_dtype()
                if values.dtype != target:
                    values = values.astype(target)
                cols.append(Column(values, col_schema.sql_type))
            return txn.append_columns(table, cols)


def connect(wal_path: Optional[str] = None, **kwargs) -> Database:
    """Open a database (sqlite3-flavoured convenience)."""
    return Database(wal_path=wal_path, **kwargs)
