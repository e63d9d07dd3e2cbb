"""A :class:`Session`: what one caller of the engine owns.

The open-transaction slot, ``begin``/``commit``/``rollback``, the
statement entry points, and ``last_stats`` / ``last_governor``. Every
entry point — ``execute``, ``explain``, ``explain_analyze`` and both
``executemany`` paths — runs through one wrapper, :meth:`_statement`
(govern → trace → time → record), so each leaves exactly one history
record and one ``statement_seconds`` observation.

A :class:`~repro.api.database.Database` owns a default session (its own
``execute``/``begin``/... delegate to it) and hands out more with
``db.session()`` — one per client in the server, so concurrent clients'
transactions never collide. Statements run in the session's open
transaction when there is one, else each autocommits.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

from ..errors import (
    BindError,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    ResourceGovernorError,
    TransactionError,
)
from ..exec.physical import ExecutionStats
from ..governor import QueryContext
from ..sql import ast
from ..sql.parser import parse_sql
from ..storage.allocator import minor_faults
from ..txn.manager import Transaction
from . import dml
from .pipeline import RunningStatement
from .result import AnalyzedQuery, QueryResult

#: Sentinel distinguishing "not passed" from an explicit ``None``
#: (which disables the engine default for that call).
UNSET = object()

#: Governor error type -> the counter it bumps.
_GOVERNOR_COUNTERS = (
    (QueryCancelled, "engine_queries_cancelled_total"),
    (QueryTimeout, "engine_queries_timed_out_total"),
    (MemoryBudgetExceeded, "engine_queries_oom_aborted_total"),
)


class Session:
    def __init__(self, pipeline):
        self._pipeline = pipeline
        #: The open explicit transaction (None: statements autocommit).
        self.txn: Optional[Transaction] = None
        #: Stats of the most recent statement (peak live tuples, etc.).
        self.last_stats: ExecutionStats = ExecutionStats()
        #: Final governor report of the most recent statement.
        self.last_governor: Optional[dict] = None

    # -- transactions ----------------------------------------------------

    def begin(self) -> None:
        if self.txn is not None:
            raise TransactionError("transaction already open")
        self.txn = self._pipeline.txns.begin()

    def commit(self) -> None:
        if self.txn is None:
            raise TransactionError("no transaction open")
        txn, self.txn = self.txn, None
        txn.commit()

    def rollback(self) -> None:
        if self.txn is None:
            raise TransactionError("no transaction open")
        txn, self.txn = self.txn, None
        txn.rollback()

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    @contextmanager
    def transaction(self):
        """``with session.transaction():`` — commit on success, roll
        back on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            if self.txn is not None:
                self.rollback()
            raise
        else:
            self.commit()

    def release(self) -> None:
        """End the session: roll back an open transaction (a dropped
        client must never leak uncommitted writes or pin the vacuum
        horizon). Idempotent."""
        txn, self.txn = self.txn, None
        if txn is not None and txn.status == "active":
            txn.rollback()

    @contextmanager
    def autocommit(self, commit: bool = True, savepoint: bool = False):
        """The transaction one statement runs in: the open one, or a
        fresh one that is committed here (rolled back when ``commit``
        is false — read-only callers — or on error). ``savepoint``
        makes the statement atomic inside an open transaction too: on
        error its writes unwind and earlier statements stay intact."""
        txn = self.txn
        if txn is None:
            txn = self._pipeline.txns.begin()
            try:
                yield txn
                if commit:
                    txn.commit()
                else:
                    txn.rollback()
            except BaseException:
                if txn.status == "active":
                    txn.rollback()
                raise
            return
        mark = txn.savepoint() if savepoint else None
        try:
            yield txn
        except BaseException:
            if savepoint and txn.status == "active":
                txn.rollback_to(mark)
            raise

    # -- the statement wrapper -------------------------------------------

    @contextmanager
    def _governed(self, timeout_ms, memory_budget_mb, cancel_token=None):
        """Admit a per-statement :class:`QueryContext` for this thread.

        Re-entrant: a statement run from inside a governed call
        (``executemany``'s per-row loop) shares the outer governor, so
        one deadline/budget covers the whole batch. On a governor abort
        the matching counter is bumped; the final report always lands
        in :attr:`last_governor`.

        ``cancel_token`` is a caller-owned
        :class:`~repro.governor.CancelToken` targeting *this call only*
        — the server uses one per request so cancelling one client
        never touches another's statement; ``Database.cancel()`` still
        reaches every admitted governor."""
        pipeline = self._pipeline
        outer = pipeline.running_governor()
        if outer is not None:
            yield outer
            return
        config = pipeline.config
        if timeout_ms is UNSET:
            timeout_ms = config.timeout_ms
        if memory_budget_mb is UNSET:
            memory_budget_mb = config.memory_budget_mb
        governor = QueryContext(
            timeout_ms=timeout_ms,
            memory_budget_bytes=(
                int(memory_budget_mb * 1024 * 1024)
                if memory_budget_mb is not None and memory_budget_mb > 0
                else None
            ),
            cancel_token=cancel_token,
            chaos=pipeline.chaos,
        )
        pipeline.admit(governor)
        try:
            yield governor
        except ResourceGovernorError as exc:
            for exc_type, counter in _GOVERNOR_COUNTERS:
                if isinstance(exc, exc_type):
                    self._pipeline.metrics.counter(counter).inc()
                    break
            raise
        finally:
            pipeline.release()
            self.last_governor = governor.report()

    def _statement(
        self,
        sql: str,
        body: Callable[[RunningStatement], object],
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
        cancel_token=None,
        queue_wait_s: Optional[float] = None,
    ):
        """Run ``body(running)`` as one statement: governed, traced
        under a ``statement`` root span, timed, and — success or abort
        — recorded in the history store. Every public entry point goes
        through here, so each call leaves exactly one record."""
        started = time.perf_counter()
        started_at = time.time()
        metrics = self._pipeline.metrics
        running = RunningStatement(
            sql, None if queue_wait_s is None else {"queue": queue_wait_s}
        )
        error: Optional[BaseException] = None
        try:
            with self._governed(
                timeout_ms, memory_budget_mb, cancel_token
            ) as running.governor:
                with self._pipeline.tracer.statement(sql) as running.span:
                    return body(running)
        except BaseException as exc:
            error = exc
            metrics.counter("statement_errors_total").inc()
            raise
        finally:
            metrics.histogram("statement_seconds").observe(
                time.perf_counter() - started
            )
            if running.stats is not None:
                self.last_stats = running.stats
            self._pipeline.record(running, started_at, error)

    def _run_sql(
        self,
        sql: str,
        params: Optional[Sequence[object]],
        running: RunningStatement,
    ) -> QueryResult:
        """Execute ``sql`` inside its open statement span: through the
        plan cache when it applies, else parse + run each statement.
        ``running.analyze`` (``explain_analyze``) admits a single
        SELECT only."""
        pipeline = self._pipeline
        result = pipeline.run_cached(sql, params, self, running)
        if result is None:
            parsed = pipeline.parse(sql, params)
            if running.analyze and (
                len(parsed) != 1
                or not isinstance(parsed[0], ast.SelectStatement)
            ):
                raise BindError(
                    "explain_analyze supports a single SELECT statement"
                )
            if not parsed:
                raise BindError("empty statement")
            for one in parsed:
                result = pipeline.run_statement(one, self, running)
        running.span.attributes["rows"] = len(result)
        return result

    # -- entry points ----------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
        cancel_token=None,
        queue_wait_s: Optional[float] = None,
    ) -> QueryResult:
        """Execute one or more ``;``-separated statements; returns the
        result of the last one.

        ``params`` fills ``?`` placeholders positionally; values become
        literals during parsing and are never string-interpolated, so
        user input cannot inject SQL.

        ``timeout_ms`` / ``memory_budget_mb`` override the engine
        defaults for this call (``None`` or ``<= 0`` disables the
        corresponding limit). ``cancel_token`` installs a caller-owned
        :class:`~repro.governor.CancelToken` scoped to this call.
        ``queue_wait_s`` is time the caller already spent waiting for
        this statement to start (the server's admission queue); it is
        recorded as the ``queue`` phase of the history record."""
        return self._statement(
            sql,
            lambda running: self._run_sql(sql, params, running),
            timeout_ms, memory_budget_mb, cancel_token, queue_wait_s,
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
        """Run one parameterised statement per parameter tuple inside a
        single transaction; returns the total affected row count.

        A plain ``INSERT ... VALUES`` of placeholders/literals takes a
        bulk fast path: the statement is parsed and resolved **once**,
        every row is coerced against the schema, and a single
        ``insert_rows`` installs them all — one statement, one history
        record. Other statements loop over :meth:`execute` (a record
        per row), where the plan cache amortises the per-call
        parse/bind/optimize instead.

        The batch is atomic even when interrupted mid-way
        (KeyboardInterrupt, governor abort, injected fault): in
        autocommit the owned transaction rolls back; inside an open
        transaction the batch unwinds to a savepoint taken at entry,
        leaving earlier statements of the transaction intact. One
        governor covers the whole batch."""
        rows = [tuple(params) for params in seq_of_params]
        if not rows:
            return 0
        template = dml.bulk_insert_template(sql, rows[0])
        if template is not None:
            return self._statement(
                sql,
                lambda running: self._bulk_insert(template, rows, running),
                timeout_ms, memory_budget_mb,
            )
        with self._governed(timeout_ms, memory_budget_mb):
            with (
                self.transaction()
                if self.txn is None
                else self.autocommit(savepoint=True)
            ):
                total = 0
                for params in rows:
                    total += max(self.execute(sql, params).rowcount, 0)
                return total

    def _bulk_insert(
        self, template: ast.Insert, rows: list[tuple], running: RunningStatement
    ) -> int:
        with self.autocommit(savepoint=True) as txn:
            count = dml.bulk_insert(template, rows, txn)
            # Metric parity with the per-row path: each parameter
            # tuple counts as one executed statement.
            self._pipeline.metrics.counter(
                "statements_total", kind="Insert"
            ).inc(len(rows))
            running.span.attributes["rows"] = count
            return count

    def explain(self, sql: str) -> str:
        """The optimized logical plan of a SELECT, as text.

        Each node carries its estimated row count and the estimate's
        provenance: ``static`` (hard-wired selectivities) or ``stats``
        (table statistics: dictionary NDV, zone-map min/max, null
        counts). The ``EXPLAIN <select>`` statement prints the same
        plan.
        """

        def body(_running) -> str:
            parsed = parse_sql(sql)
            if len(parsed) != 1 or not isinstance(
                parsed[0], ast.SelectStatement
            ):
                raise BindError(
                    "EXPLAIN supports a single SELECT statement"
                )
            with self.autocommit(commit=False) as txn:
                return self._pipeline.explain(parsed[0], txn)

        return self._statement(sql, body)

    def explain_analyze(
        self,
        sql: str,
        params: Optional[Sequence[object]] = None,
        *,
        timeout_ms=UNSET,
        memory_budget_mb=UNSET,
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
        pipeline = self._pipeline
        before = pipeline.hot_path_counters()

        def body(running: RunningStatement) -> AnalyzedQuery:
            running.analyze = True
            faults = minor_faults()
            result = self._run_sql(sql, params, running)
            if faults is not None:
                faults = minor_faults() - faults
            after = pipeline.hot_path_counters()
            roots = running.profile_roots
            return AnalyzedQuery(
                result, roots[0], roots[1:],
                running.span.find("execute").duration_s,
                counters={
                    name: after[name] - before[name]
                    for name in after
                    if after[name] != before[name]
                },
                governor=running.governor.report(),
                minor_faults=faults,
            )

        return self._statement(sql, body, timeout_ms, memory_budget_mb)
