"""Physical planning: logical plan -> physical operator tree."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

from ..errors import PlanError
from ..expr.bound import BoundColumnRef
from ..expr.effects import plan_effects
from ..plan import logical as lp
from ..storage.column import ColumnBatch
from .aggregate import DistinctOp, HashAggregateOp, broadcast_extremes
from .cte import RecursiveCTEOp
from .filter import FilterOp
from .hoist import (
    LoopInvariantOp,
    LoopScope,
    SharedReadOp,
    SharedSubtree,
)
from .iterate import IterateOp
from .join import HashJoinOp, NestedLoopJoinOp
from .physical import (
    ExecutionContext,
    OperatorStats,
    PhysicalOperator,
    ProfiledOperator,
    materialize,
)
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

    Inside the step/stop plan of an ITERATE or recursive CTE, a subtree
    that cannot change between rounds is built under a
    :class:`LoopInvariantOp` owned by the outermost enclosing loop it
    is invariant in, so only the working-table-dependent part of the
    plan runs per round; and of a subtree that occurs more than once in
    the innermost loop's body (:attr:`LoopScope.shared`), only the
    first copy runs each round.

    With ``ctx.profile`` set, every operator is wrapped in a
    :class:`ProfiledOperator` and its :class:`OperatorStats` node is
    linked to its parent's — the stats tree mirrors the operator tree.
    A plan built while no other profiled build is in flight becomes a
    new root in ``ctx.profile_roots`` (the main plan, then any subquery
    plans built lazily during execution).
    """
    depth = _invariant_depth(plan, ctx)
    loops = ctx._loops
    if depth is None:
        shared = loops[-1].shared.get(id(plan)) if loops else None
        if shared is None:
            return _profiled(
                ctx, lambda: _build_physical_node(plan, ctx), plan
            )
        return _build_shared(plan, shared, loops[-1], ctx)

    def hoisted() -> PhysicalOperator:
        # Loops from ``depth`` inward are settled for this subtree; the
        # ones further out may still hoist parts of it.
        with _enclosing_loops(ctx, loops[:depth]):
            child = build_physical(plan, ctx)
        return LoopInvariantOp(child, loops[depth], ctx)

    return _profiled(ctx, hoisted)


def _build_shared(
    plan: lp.LogicalPlan,
    shared: SharedSubtree,
    scope: LoopScope,
    ctx: ExecutionContext,
) -> PhysicalOperator:
    """One copy of a subtree shared within a round of ``scope``'s loop:
    the first copy built runs under a round-lifetime
    :class:`LoopInvariantOp`, every later one reads its batch."""
    source = shared.source
    if source is not None:
        return _profiled(ctx, lambda: SharedReadOp(source, plan.output))

    def first() -> PhysicalOperator:
        child = _profiled(
            ctx, lambda: _build_physical_node(plan, ctx), plan
        )
        shared.source = LoopInvariantOp(child, scope, ctx, shared)
        return shared.source

    return _profiled(ctx, first)


def _invariant_depth(
    plan: lp.LogicalPlan, ctx: ExecutionContext
) -> Optional[int]:
    """Index into ``ctx._loops`` (outermost first) of the outermost
    enclosing loop across whose rounds ``plan`` cannot change, or None.

    A subtree changes with a loop's rounds when it reads that loop's
    working table *or that of any loop nested inside it* (those rounds
    run within one outer round); volatile subtrees never qualify, a
    bare base-table scan has nothing to save, and the zero-column row
    of a FROM-less SELECT keeps its row count in a hidden column that
    materialising would drop."""
    loops = ctx._loops
    if (
        not loops
        or not plan.output
        or isinstance(plan, lp.LogicalScan)
    ):
        return None
    found = plan_effects(plan)
    if found.volatile:
        return None
    depth = len(loops)
    while depth > 0 and loops[depth - 1].key not in found.working_tables:
        depth -= 1
    return depth if depth < len(loops) else None


@contextmanager
def _enclosing_loops(ctx: ExecutionContext, loops: tuple):
    saved = ctx._loops
    ctx._loops = loops
    try:
        yield
    finally:
        ctx._loops = saved


def _profiled(
    ctx: ExecutionContext,
    build: Callable[[], PhysicalOperator],
    plan: Optional[lp.LogicalPlan] = None,
) -> PhysicalOperator:
    """Run ``build``; under ``ctx.profile`` wrap its operator in a
    :class:`ProfiledOperator` whose stats node adopts the nodes of the
    operators built meanwhile. ``plan`` is the logical node the
    operator implements — the node's stamp supplies the cardinality
    estimate; a :class:`LoopInvariantOp` implements none."""
    if not ctx.profile:
        return build()
    children: list[OperatorStats] = []
    ctx._profile_stack.append(children)
    try:
        op = build()
    finally:
        ctx._profile_stack.pop()
    stats = OperatorStats(op.describe(), children)
    if plan is not None:
        stats.estimated_rows, stats.estimate_source = plan.estimated()
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
            join = HashJoinOp(plan, left, right, ctx)
            if ctx._loops:
                _make_round_stable(join, plan, left, right, ctx._loops[-1])
            return join
        return NestedLoopJoinOp(plan, left, right, ctx)
    if isinstance(plan, lp.LogicalAggregate):
        child = build_physical(plan.child, ctx)
        if not ctx._loops:
            return HashAggregateOp(plan, child, ctx)
        replayed = _replayed_slots(child)
        stable = bool(plan.group_exprs) and all(
            isinstance(expr, BoundColumnRef) and expr.slot in replayed
            for expr in plan.group_exprs
        )
        aggregate = HashAggregateOp(
            plan, child, ctx, broadcast_extremes(plan), stable
        )
        if stable:
            ctx._loops[-1].round_stable.append(aggregate)
        return aggregate
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
        init = build_physical(plan.init, ctx)
        scope = LoopScope(plan.key, [plan.step])
        with _enclosing_loops(ctx, ctx._loops + (scope,)):
            step = build_physical(plan.step, ctx)
        return RecursiveCTEOp(plan, init, step, scope, ctx)
    if isinstance(plan, lp.LogicalIterate):
        init = build_physical(plan.init, ctx)
        scope = LoopScope(plan.key, [plan.step, plan.stop])
        with _enclosing_loops(ctx, ctx._loops + (scope,)):
            step = build_physical(plan.step, ctx)
            stop = build_physical(plan.stop, ctx)
        return IterateOp(plan, init, step, stop, scope, ctx)
    if isinstance(plan, lp.LogicalTableFunction):
        inputs = [build_physical(child, ctx) for child in plan.inputs]
        return TableFunctionOp(plan, inputs, ctx)
    raise PlanError(
        f"no physical implementation for {type(plan).__name__}"
    )


def _make_round_stable(
    join: HashJoinOp,
    plan: lp.LogicalJoin,
    left: PhysicalOperator,
    right: PhysicalOperator,
    scope: LoopScope,
) -> None:
    """Make ``join`` round-stable (:meth:`HashJoinOp.round_stable`) when
    one input is a hoisted :class:`LoopInvariantOp` — not a copy shared
    within a round — joined on bare columns, so its keys are the batch's
    own; ``scope`` drops the join's memo when its loop ends."""
    for side, op, keys in (
        ("left", left, [lk for lk, _rk in plan.equi_keys]),
        ("right", right, [rk for _lk, rk in plan.equi_keys]),
    ):
        op = _unprofiled(op)
        if (
            isinstance(op, LoopInvariantOp)
            and op.hoisted
            and all(isinstance(key, BoundColumnRef) for key in keys)
        ):
            join.round_stable(side, op)
            scope.round_stable.append(join)
            return


def _replayed_slots(op: PhysicalOperator) -> frozenset[str]:
    """The slots ``op`` passes on, row for row and column object for
    column object, from a round-stable join's replayed columns: the
    join's own, or through broadcast nested-loop joins without a
    predicate."""
    op = _unprofiled(op)
    if isinstance(op, HashJoinOp):
        return op.replayed_slots
    if isinstance(op, NestedLoopJoinOp):
        other = op.broadcast_other
        if other is not None:
            return _replayed_slots(other)
    return frozenset()


def _unprofiled(op: PhysicalOperator) -> PhysicalOperator:
    while isinstance(op, ProfiledOperator):
        op = op.inner
    return op


def execute_plan(
    plan: lp.LogicalPlan, ctx: ExecutionContext
) -> ColumnBatch:
    """Build, run, and fully materialise a logical plan."""
    op = build_physical(plan, ctx)
    eval_ctx = ctx.new_eval_context()
    return materialize(list(op.execute(eval_ctx)), plan.output)
