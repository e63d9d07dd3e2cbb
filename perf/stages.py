"""Stage-by-stage replay of SELECT statements through the layers' public
entry points, each call wrapped in a harness-owned span.

The engine's own ``Database.execute`` runs the same five calls (with a
plan cache, a governor and history recording around them); replaying
them from outside gives a per-layer split without touching the engine.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from repro.exec.physical import ExecutionContext, materialize
from repro.exec.planner import build_physical
from repro.plan.optimizer import Optimizer
from repro.plan.stats import TableStatistics
from repro.sql import parse_sql
from repro.sql.binder import Binder

from harness import Metric, Tracer, timebox

#: Span name per stage, in execution order: the module is the layer.
STAGES = ("sql.parse", "sql.bind", "plan.optimize", "exec.plan", "exec.execute")


class _CatalogView:
    """What the binder needs from a transaction's snapshot."""

    def __init__(self, txn):
        self.table_exists = txn.table_exists
        self.schema_of = txn.schema_of


def replay(db, tracer: Tracer, sql: str, params, stmt: int, stats_cache):
    """Run one SELECT as parse -> bind -> optimize -> plan -> execute and
    return the materialised batch."""
    with tracer.span("statement", stmt=stmt):
        with tracer.span("sql.parse"):
            statement = parse_sql(sql, params)[0]
        txn = db.txns.begin()
        try:
            with tracer.span("sql.bind"):
                plan = Binder(
                    _CatalogView(txn), db.udfs, db.analytics
                ).bind_query(statement)
            with tracer.span("plan.optimize"):
                plan = Optimizer(
                    lambda name: txn.read(name).row_count,
                    db.analytics,
                    stats=TableStatistics(txn.read, stats_cache),
                    metrics=db.metrics,
                ).optimize(plan)
            ctx = ExecutionContext(
                read_table=txn.read,
                analytics=db.analytics,
                udfs=db.udfs,
                morsel_rows=db.morsel_rows,
                max_iterations=db.max_iterations,
                metrics=db.metrics,
                pool=db.pool,
                parallel_threshold=db.parallel_threshold,
            )
            with tracer.span("exec.plan"):
                op = build_physical(plan, ctx)
            with tracer.span("exec.execute"):
                return materialize(
                    list(op.execute(ctx.new_eval_context())), plan.output
                )
        finally:
            txn.rollback()


def stage_metrics(
    db, tracer: Tracer, statements: list[tuple], seconds: float, min_rounds: int
) -> dict[str, Metric]:
    """Replay ``statements`` (``(sql, params)`` pairs) round-robin for
    ``seconds`` and report the median per statement of each stage."""
    stats_cache: OrderedDict = OrderedDict()
    first = len(tracer.spans)
    for _round in timebox(seconds, min_rounds):
        for i, (sql, params) in enumerate(statements):
            replay(db, tracer, sql, params, i, stats_cache)
    spans = tracer.spans[first:]
    out = {}
    for stage in STAGES:
        samples = [s[2] - s[1] for s in spans if s[0] == stage]
        if stage == "exec.execute":
            out["exec.execute_ms"] = Metric.of([v * 1e3 for v in samples], "ms")
        else:
            out[f"{stage}_us"] = Metric.of([v * 1e6 for v in samples], "us")
    return out


#: Operator class (``OperatorStats.operator_class``) -> share bucket.
def _bucket(operator_class: str) -> str:
    name = operator_class.lower()
    if "join" in name:
        return "join"
    if "aggregate" in name:
        return "aggregate"
    if "sort" in name:
        return "sort"
    if name in ("scan", "filter", "project") or "pipeline" in name:
        return "scan"
    return "other"


def operator_shares(db, statements: list[tuple]) -> dict[str, Metric]:
    """Self-time share per operator class and the share of base-table
    morsels the zone maps pruned, over one pass of ``statements`` — as
    the program itself reports them through ``explain_analyze``
    (profiled plans, so not the fused pipeline)."""
    totals = {"scan": 0.0, "join": 0.0, "aggregate": 0.0, "sort": 0.0,
              "other": 0.0}
    tables = set(db.table_names())
    morsels = pruned = 0
    for sql, params in statements:
        analyzed = db.explain_analyze(sql, params)
        pruned += analyzed.counters.get("scan_morsels_pruned_total", 0)
        for node in analyzed.operators():
            totals[_bucket(node.operator_class)] += node.self_s
            table = node.label.partition("(")[2].rstrip(")")
            if node.operator_class == "Scan" and table in tables:
                morsels += node.calls * math.ceil(
                    db.row_count(table) / db.morsel_rows)
    whole = sum(totals.values()) or 1.0
    out = {
        f"exec.{bucket}_share": Metric(totals[bucket] / whole, "ratio")
        for bucket in ("scan", "join", "aggregate", "sort")
    }
    out["exec.morsels_pruned_ratio"] = Metric(
        pruned / morsels if morsels else 0.0, "ratio", count=morsels)
    return out


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0.0) - before["counters"].get(name, 0.0)


def hit_ratio(before: dict, after: dict, stem: str) -> float:
    """``hits / (hits + misses)`` of one cache over a snapshot delta
    (0 when the cache was never consulted)."""
    hits = counter_delta(before, after, f"{stem}_hits_total")
    misses = counter_delta(before, after, f"{stem}_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def cache_ratios(before: dict, after: dict) -> dict[str, Metric]:
    """Cache hit ratios from counter snapshot deltas."""
    return {
        "plan.cache_hit_ratio": Metric(
            hit_ratio(before, after, "exec_plan_cache"), "ratio"),
        "expr.kernel_cache_hit_ratio": Metric(
            hit_ratio(before, after, "expr_kernel_cache"), "ratio"),
        "analytics.csr_cache_hit_ratio": Metric(
            hit_ratio(before, after, "analytics_csr_cache"), "ratio"),
    }
