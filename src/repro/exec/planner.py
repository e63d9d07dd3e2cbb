"""Physical planning: logical plan -> physical operator tree."""

from __future__ import annotations

from ..errors import PlanError
from ..plan import logical as lp
from ..storage.column import ColumnBatch
from .aggregate import DistinctOp, HashAggregateOp
from .cte import RecursiveCTEOp
from .filter import FilterOp
from .iterate import IterateOp
from .join import HashJoinOp, NestedLoopJoinOp
from .physical import (
    ExecutionContext,
    OperatorStats,
    PhysicalOperator,
    ProfiledOperator,
    materialize,
)
from ..plan.feedback import feedback_key_base
from .project import ProjectOp
from .scan import ScanOp, ValuesOp, WorkingTableOp
from .setops import SetOpOp
from .sort import LimitOp, SortOp, TopNSortOp
from .table_function import TableFunctionOp
from .window import WindowOp


def build_physical(
    plan: lp.LogicalPlan, ctx: ExecutionContext
) -> PhysicalOperator:
    """Recursively instantiate physical operators for a logical plan.

    With ``ctx.profile`` set, every operator is wrapped in a
    :class:`ProfiledOperator` and its :class:`OperatorStats` node is
    linked to its parent's — the stats tree mirrors the operator tree.
    A plan built while no other profiled build is in flight becomes a
    new root in ``ctx.profile_roots`` (the main plan, then any subquery
    plans built lazily during execution).
    """
    if not ctx.profile:
        return _build_physical_node(plan, ctx)
    children: list[OperatorStats] = []
    ctx._profile_stack.append(children)
    try:
        op = _build_physical_node(plan, ctx)
    finally:
        ctx._profile_stack.pop()
    stats = OperatorStats(op.describe(), children)
    stats.node_key = ctx.next_node_key(feedback_key_base(plan))
    if ctx.estimator is not None:
        try:
            (
                stats.estimated_rows,
                stats.estimate_source,
            ) = ctx.estimator.estimate_with_source(plan)
        except Exception:  # noqa: BLE001 — estimates are best-effort
            stats.estimated_rows = None
            stats.estimate_source = None
    if ctx._profile_stack:
        ctx._profile_stack[-1].append(stats)
    else:
        ctx.profile_roots.append(stats)
    return ProfiledOperator(op, stats)


def _build_physical_node(
    plan: lp.LogicalPlan, ctx: ExecutionContext
) -> PhysicalOperator:
    if isinstance(
        plan, (lp.LogicalScan, lp.LogicalFilter, lp.LogicalProject)
    ):
        # A Filter/Project chain rooted at a base table is one ScanOp;
        # FilterOp/ProjectOp serve every other child (joins, working
        # tables, aggregates).
        stages: list[lp.LogicalPlan] = []
        node = plan
        while isinstance(node, (lp.LogicalFilter, lp.LogicalProject)):
            stages.append(node)
            node = node.child
        if isinstance(node, lp.LogicalScan):
            return ScanOp(plan, stages, node, ctx)
        child = build_physical(plan.child, ctx)
        if isinstance(plan, lp.LogicalFilter):
            return FilterOp(plan, child, ctx)
        return ProjectOp(plan, child, ctx)
    if isinstance(plan, lp.LogicalValues):
        return ValuesOp(plan, ctx)
    if isinstance(plan, lp.LogicalWorkingTableRef):
        return WorkingTableOp(plan, ctx)
    if isinstance(plan, lp.LogicalJoin):
        left = build_physical(plan.left, ctx)
        right = build_physical(plan.right, ctx)
        if plan.equi_keys and plan.kind in ("inner", "left"):
            return HashJoinOp(plan, left, right, ctx)
        return NestedLoopJoinOp(plan, left, right, ctx)
    if isinstance(plan, lp.LogicalAggregate):
        return HashAggregateOp(plan, build_physical(plan.child, ctx), ctx)
    if isinstance(plan, lp.LogicalSort):
        return SortOp(plan, build_physical(plan.child, ctx), ctx)
    if isinstance(plan, lp.LogicalLimit):
        child = plan.child
        if (
            ctx.topn
            and plan.limit is not None
            and isinstance(child, lp.LogicalSort)
            and child.keys
        ):
            # Fuse ORDER BY + LIMIT into a bounded top-N sort: only the
            # offset+limit candidate rows are fully sorted.
            if ctx.metrics is not None:
                ctx.metrics.counter("sort_topn_used_total").inc()
            return TopNSortOp(
                child, plan, build_physical(child.child, ctx), ctx
            )
        return LimitOp(plan, build_physical(plan.child, ctx), ctx)
    if isinstance(plan, lp.LogicalWindow):
        return WindowOp(plan, build_physical(plan.child, ctx), ctx)
    if isinstance(plan, lp.LogicalDistinct):
        return DistinctOp(plan, build_physical(plan.child, ctx), ctx)
    if isinstance(plan, lp.LogicalSetOp):
        return SetOpOp(
            plan,
            build_physical(plan.left, ctx),
            build_physical(plan.right, ctx),
            ctx,
        )
    if isinstance(plan, lp.LogicalRecursiveCTE):
        return RecursiveCTEOp(
            plan,
            build_physical(plan.init, ctx),
            build_physical(plan.step, ctx),
            ctx,
        )
    if isinstance(plan, lp.LogicalIterate):
        return IterateOp(
            plan,
            build_physical(plan.init, ctx),
            build_physical(plan.step, ctx),
            build_physical(plan.stop, ctx),
            ctx,
        )
    if isinstance(plan, lp.LogicalTableFunction):
        inputs = [build_physical(child, ctx) for child in plan.inputs]
        return TableFunctionOp(plan, inputs, ctx)
    raise PlanError(
        f"no physical implementation for {type(plan).__name__}"
    )


def execute_plan(
    plan: lp.LogicalPlan, ctx: ExecutionContext
) -> ColumnBatch:
    """Build, run, and fully materialise a logical plan."""
    op = build_physical(plan, ctx)
    eval_ctx = ctx.new_eval_context()
    return materialize(list(op.execute(eval_ctx)), plan.output)
