"""The statement pipeline: parse → bind → optimize → physical plan → run.

One :class:`StatementPipeline` per :class:`~repro.api.database.Database`
(``db.pipeline``), shared by every :class:`~repro.api.session.Session`.
It owns what is engine-wide about running a statement: the stage
methods (public — tests, the chaos battery and the benchmarks call them
instead of re-implementing the stages), the plan cache with its
epoch invalidation, the one function that builds an ``Optimizer``
(and with it the ``CardinalityEstimator`` and ``TableStatistics``) to
plan a SELECT, the per-statement metrics flush and history/flight
recording, and the registry of in-flight statements behind
``Database.cancel()``.

What is per caller — the open transaction, the statement wrapper — is
the session's; what is per statement travels in a
:class:`RunningStatement` the wrapper creates and passes down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from ..errors import InjectedFault, ReproError, ResourceGovernorError
from ..exec.common import GROUP_KEY_PATHS
from ..exec.physical import ExecutionContext, materialize
from ..exec.planner import build_physical
from ..governor import QueryContext
from ..obs.history import operator_observations, record_from_span
from ..plan.cache import CachedPlan, NegativePlan, PlanCache, sql_fingerprint
from ..plan.optimizer import Optimizer
from ..plan.stats import TableStatistics
from ..sql import ast
from ..sql.binder import Binder
from ..sql.parser import parse_sql
from ..storage.column import Column, ColumnBatch
from ..txn.manager import Transaction
from ..types import infer_literal_type, type_from_name
from . import dml
from .result import QueryResult

#: Counters of the hot-path stack, surfaced as a per-statement delta on
#: :class:`~repro.api.result.AnalyzedQuery` (docs/performance.md).
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
    "exec_loop_shared_reused_total",
    "exec_loop_pairs_reused_total",
    "exec_loop_group_codes_reused_total",
    "exec_subquery_runs_total",
    *(f'exec_group_keys_total{{path="{p}"}}' for p in GROUP_KEY_PATHS),
    "analytics_csr_cache_hits_total",
    "analytics_csr_cache_misses_total",
)


class RunningStatement:
    """Scratch of one running statement: created by the session's
    statement wrapper, passed down explicitly, read back when the
    statement is recorded."""

    __slots__ = (
        "sql", "governor", "span", "extra_phases", "analyze",
        "cache_hit", "profile_roots", "stats",
    )

    def __init__(self, sql: str, extra_phases: Optional[dict] = None):
        self.sql = sql
        self.governor: Optional[QueryContext] = None
        #: The ``statement`` root span (None until it opens).
        self.span = None
        #: Phases timed outside the engine (the server's ``queue``
        #: wait), merged into the history record's phases.
        self.extra_phases = extra_phases
        #: ``explain_analyze``: profile operators whatever the setting.
        self.analyze = False
        self.cache_hit = False
        self.profile_roots: Sequence = ()
        self.stats = None


class _Uncacheable(Exception):
    """Unwinds :meth:`StatementPipeline.run_cached` out of its
    transaction when the statement cannot take the cached path."""


class StatementPipeline:
    def __init__(self, db):
        self.config = db.config
        self.catalog = db.catalog
        self.txns = db.txns
        self.udfs = db.udfs
        self.analytics = db.analytics
        self.metrics = db.metrics
        self.tracer = db.tracer
        self.pool = db.pool
        self.history = db.history
        self.flight = db.flight
        self.chaos = db.chaos
        self.plan_cache = PlanCache()
        #: Bumped by UDF/operator registration (cached plans embed the
        #: registered callables).
        self.cache_epoch = 0
        #: Version-keyed table statistics shared across statements
        #: (dictionary NDV, min/max, null fractions — plan/stats.py).
        self._stats_cache: OrderedDict = OrderedDict()
        #: thread ident -> governor of the statement (or ``executemany``
        #: batch) that thread is running.
        self._running: dict[int, QueryContext] = {}
        self._running_lock = threading.Lock()

    # -- in-flight statements ------------------------------------------

    def admit(self, governor: QueryContext) -> None:
        with self._running_lock:
            self._running[threading.get_ident()] = governor

    def release(self) -> None:
        with self._running_lock:
            self._running.pop(threading.get_ident(), None)

    def running_governor(self) -> Optional[QueryContext]:
        """The governor of the statement this thread is running."""
        return self._running.get(threading.get_ident())

    def cancel(self) -> int:
        with self._running_lock:
            governors = list(self._running.values())
        for governor in governors:
            governor.cancel_token.cancel()
        return len(governors)

    def on_worker_crash(self, exc: Exception) -> None:
        """A worker crash was survived by serial retry: the statement
        will succeed, so this dump is the only evidence it happened.
        The pool calls this on the statement's own thread."""
        governor = self.running_governor()
        self.flight.dump(
            "worker_crash",
            error=exc,
            governor=governor.report() if governor is not None else None,
            trace=self.tracer.current_root(),
        )

    # -- stages ----------------------------------------------------------

    def parse(self, sql: str, params=None, parameterize: bool = False):
        with self.tracer.span("parse"):
            return parse_sql(sql, params, parameterize=parameterize)

    def binder(self, txn: Transaction, param_types=None) -> Binder:
        return Binder(
            txn, self.udfs, self.analytics, param_types=param_types
        )

    def optimizer(self, txn: Transaction) -> Optimizer:
        """The optimizer of one SELECT — the only place a
        ``CardinalityEstimator`` (``.estimator``) is built: row counts
        and table statistics from ``txn``'s snapshot."""
        read = txn.read
        return Optimizer(
            lambda name: read(name).row_count,
            self.analytics,
            enabled=self.config.optimize,
            stats=TableStatistics(read, self._stats_cache),
            metrics=self.metrics,
        )

    def plan_select(
        self,
        statement: ast.SelectStatement,
        txn: Transaction,
        param_types=None,
    ):
        """Bind and optimize one SELECT into a logical plan whose every
        node carries the cardinality estimate it was planned with."""
        with self.tracer.span("bind"):
            plan = self.binder(txn, param_types).bind_query(statement)
        with self.tracer.span("optimize"):
            optimizer = self.optimizer(txn)
            plan = optimizer.optimize(plan)
            optimizer.estimator.stamp(plan)
            return plan

    def exec_context(
        self,
        txn: Transaction,
        running: Optional[RunningStatement] = None,
    ) -> ExecutionContext:
        config = self.config
        ctx = ExecutionContext(
            read_table=txn.read,
            analytics=self.analytics,
            udfs=self.udfs,
            morsel_rows=config.morsel_rows,
            max_iterations=config.max_iterations,
            tracer=self.tracer,
            metrics=self.metrics,
            pool=self.pool,
            parallel_threshold=config.parallel_threshold,
            governor=running.governor if running is not None else None,
        )
        ctx.profile = config.profile_operators or (
            running is not None and running.analyze
        )
        ctx.topn = config.topn
        # One switch for the whole hot-path stack: the plan-cache
        # setting also gates kernel caching, zone-map pruning, and the
        # CSR cache.
        ctx.hot_path = ctx.compiler.enabled = config.plan_cache
        return ctx

    def run_plan(
        self,
        plan,
        txn: Transaction,
        running: Optional[RunningStatement] = None,
        query_params: Optional[Sequence[object]] = None,
    ) -> QueryResult:
        """Instantiate and run physical operators for an optimized
        logical plan (fresh or cached)."""
        ctx = self.exec_context(txn, running)
        if query_params:
            ctx.query_params = {
                f"?{i}": value for i, value in enumerate(query_params)
            }
        with self.tracer.span("plan"):
            op = build_physical(plan, ctx)
        try:
            with self.tracer.span("execute"):
                batch = materialize(
                    list(op.execute(ctx.new_eval_context())), plan.output
                )
        finally:
            # Publish even when execution aborts (iteration limit, ...):
            # rounds already executed stay observable.
            if running is not None:
                running.stats = ctx.stats
                running.profile_roots = ctx.profile_roots
            self._flush_exec_metrics(ctx)
            # Subquery operators point back at ``ctx``: drop them so the
            # context (and the transaction it reads) dies by reference
            # count, not at the next cycle collection.
            ctx.release_subplans()
        result = QueryResult.from_batch(batch, plan.output)
        result.telemetry = dict(ctx.telemetry)
        return result

    def run_select(
        self,
        select: ast.SelectStatement,
        txn: Transaction,
        running: Optional[RunningStatement] = None,
    ) -> QueryResult:
        return self.run_plan(self.plan_select(select, txn), txn, running)

    def explain(self, select: ast.SelectStatement, txn: Transaction) -> str:
        """The optimized plan of ``select`` with per-node estimates —
        what ``db.explain(q)`` and the ``EXPLAIN q`` statement both
        print."""
        return self.plan_select(select, txn).explain()

    def run_statement(
        self, parsed: ast.Statement, session, running: RunningStatement
    ) -> QueryResult:
        """Run one parsed statement for ``session``."""
        self.metrics.counter(
            "statements_total", kind=type(parsed).__name__
        ).inc()
        if isinstance(parsed, ast.BeginTransaction):
            session.begin()
            return QueryResult.statement(0)
        if isinstance(parsed, ast.CommitTransaction):
            session.commit()
            return QueryResult.statement(0)
        if isinstance(parsed, ast.RollbackTransaction):
            session.rollback()
            return QueryResult.statement(0)
        with session.autocommit() as txn:
            if isinstance(parsed, ast.SelectStatement):
                return self.run_select(parsed, txn, running)
            if isinstance(parsed, ast.Explain):
                lines = self.explain(parsed.query, txn).splitlines()
                varchar = type_from_name("VARCHAR")
                return QueryResult(
                    columns=["plan"],
                    types=[varchar],
                    batch=ColumnBatch(
                        {"plan": Column.from_values(lines, varchar)}
                    ),
                    slots=["plan"],
                )
            if isinstance(parsed, ast.CreateTable):
                return dml.run_create(self, running, parsed, txn)
            if isinstance(parsed, ast.DropTable):
                txn.drop_table(parsed.name, parsed.if_exists)
                return QueryResult.statement(0)
            if isinstance(parsed, ast.Insert):
                return dml.run_insert(self, running, parsed, txn)
            if isinstance(parsed, ast.Update):
                return dml.run_update(self, running, parsed, txn)
            if isinstance(parsed, ast.Delete):
                return dml.run_delete(self, running, parsed, txn)
            raise ReproError(
                f"unsupported statement {type(parsed).__name__}"
            )

    # -- statement/plan cache ------------------------------------------

    def bump_cache_epoch(self) -> None:
        self.cache_epoch += 1

    def _epoch(self) -> tuple:
        return (self.catalog.ddl_version, self.cache_epoch)

    def run_cached(
        self,
        sql: str,
        params: Optional[Sequence[object]],
        session,
        running: RunningStatement,
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
        if not self.config.plan_cache:
            return None
        values = list(params) if params is not None else []
        if any(value is None for value in values):
            return None
        open_txn = session.txn
        if open_txn is not None and (
            open_txn.created_tables or open_txn.dropped_tables
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
        entry = self.plan_cache.lookup(key, self._epoch())
        if isinstance(entry, NegativePlan):
            return None
        try:
            with session.autocommit() as txn:
                if isinstance(entry, CachedPlan):
                    self.metrics.counter(
                        "exec_plan_cache_hits_total"
                    ).inc()
                    running.cache_hit = True
                    plan = entry.plan
                else:
                    self.metrics.counter(
                        "exec_plan_cache_misses_total"
                    ).inc()
                    plan = self._plan_and_cache(
                        sql, values, param_types, key, txn
                    )
                self.metrics.counter(
                    "statements_total", kind="SelectStatement"
                ).inc()
                return self.run_plan(plan, txn, running, values)
        except _Uncacheable:
            return None

    def _plan_and_cache(self, sql, values, param_types, key, txn):
        """Plan ``sql`` in parameterized mode against ``txn`` and cache
        the result; a statement that cannot take the cached path leaves
        a negative entry and raises :class:`_Uncacheable`."""
        epoch = self._epoch()
        try:
            statements = self.parse(sql, values, parameterize=True)
            if len(statements) != 1 or not isinstance(
                statements[0], ast.SelectStatement
            ):
                raise _Uncacheable
            # LIMIT ?, GROUP BY ?, analytics args, ... need values at
            # bind time; those raise here and use the literal path.
            plan = self.plan_select(statements[0], txn, param_types)
        except (ReproError, _Uncacheable):
            self.plan_cache.store(key, NegativePlan(epoch))
            raise _Uncacheable from None
        self.plan_cache.store(key, CachedPlan(plan, epoch))
        return plan

    # -- per-statement bookkeeping -------------------------------------

    def hot_path_counters(self) -> dict:
        counters = self.metrics.snapshot()["counters"]
        return {name: counters.get(name, 0.0) for name in HOT_PATH_COUNTERS}

    def _flush_exec_metrics(self, ctx: ExecutionContext) -> None:
        """Fold one statement's :class:`ExecutionStats` and profiled
        operator trees into the metrics registry."""
        stats = ctx.stats
        metrics = self.metrics
        batches = 0
        for root in ctx.profile_roots:
            for node in root.walk():
                batches += node.batches_out
                metrics.histogram(
                    "operator_self_seconds", op=node.operator_class
                ).observe(node.self_s)
        stats.batches_produced += batches
        for name, amount in (
            ("exec_rows_scanned_total", stats.rows_scanned),
            ("exec_iterations_total", stats.iterations),
            ("exec_batches_total", batches),
            ("exec_parallel_pipelines_total", stats.parallel_pipelines),
            ("exec_morsels_dispatched_total", stats.morsels_dispatched),
            ("scan_morsels_pruned_total", stats.morsels_pruned),
            ("exec_subquery_runs_total", stats.subquery_runs),
        ):
            if amount:
                metrics.counter(name).inc(amount)
        for path, amount in stats.group_keys.items():
            if amount:
                metrics.counter("exec_group_keys_total", path=path).inc(
                    amount
                )
        metrics.gauge("exec_peak_live_tuples").set(stats.peak_live_tuples)

    def record(
        self,
        running: RunningStatement,
        started_at: float,
        error: Optional[BaseException],
    ) -> None:
        """History + flight recording after one statement finishes
        (success and abort alike). Must never raise — a recording bug
        must not turn a finished statement into a failed one."""
        span = running.span
        if span is None:
            return
        governor = running.governor
        fingerprint = sql_fingerprint(running.sql)
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
        config = self.config

        def build():
            return record_from_span(
                span,
                fingerprint=fingerprint,
                started_at=started_at,
                governor=gov,
                operators=operator_observations(running.profile_roots),
                cache_hit=running.cache_hit,
                workers=config.workers,
                encoding=config.encoding,
                extra_phases=running.extra_phases,
            )

        try:
            self.history.record_deferred(
                build, fingerprint=fingerprint,
                duration_s=span.duration_s,
            )
        except Exception:  # noqa: BLE001 — see docstring
            self.metrics.counter("history_record_errors_total").inc()
        if isinstance(error, (ResourceGovernorError, InjectedFault)):
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
