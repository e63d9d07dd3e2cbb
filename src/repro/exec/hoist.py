"""Loop-invariant hoisting for ITERATE and recursive CTEs.

The step (and stop) plan of a loop runs once per round, but only the
part that reads the working table can produce a different result. The
planner wraps every maximal subtree that cannot change between rounds
(:func:`repro.plan.logical.loop_dependencies`) in a
:class:`LoopInvariantOp` — Postgres' ``Material`` node, scoped to one
execution of the loop operator — and hands the loop operator the
:class:`LoopScope` that owns them. The same invariance test bounds the
life of cached uncorrelated-subquery results: one whose plan reads the
working table is good for one round, any other for the whole loop.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..expr.bound import BoundSubquery
from ..expr.compiler import EvalContext
from ..plan.logical import (
    LogicalPlan,
    loop_dependencies,
    walk_expressions,
    walk_plan,
)
from ..storage.column import ColumnBatch
from .physical import ExecutionContext, PhysicalOperator


class LoopScope:
    """What one loop operator must reset: per round, the cached results
    of subqueries over its working table; per execution, the batches
    its hoisted subtrees hold."""

    def __init__(self, key: str, body: list[LogicalPlan]):
        self.key = key
        self.hoisted: list[LoopInvariantOp] = []
        #: ``id(node)`` -> :func:`loop_dependencies` of every plan node
        #: in ``body`` (the planner asks about each one it builds).
        self.dependencies: dict[int, tuple[frozenset[str], bool]] = {}
        for plan in body:
            loop_dependencies(plan, self.dependencies)
        #: ``EvalContext.subquery_cache`` keys of the uncorrelated
        #: subqueries in ``body`` whose plan reads this working table.
        self.round_subqueries = [
            id(expr.plan)
            for plan in body
            for node in walk_plan(plan)
            for expr in walk_expressions(node)
            if isinstance(expr, BoundSubquery)
            and not expr.outer_slots
            and key in self.dependencies[id(expr.plan)][0]
        ]

    def begin_round(self, eval_ctx: EvalContext) -> None:
        """The working table is about to change under the subqueries
        that read it: forget what they returned last round."""
        for cache_key in self.round_subqueries:
            eval_ctx.subquery_cache.pop(cache_key, None)

    def release(self) -> None:
        """The loop operator is done (or died): drop every hoisted
        batch and return its bytes to the governor."""
        for op in self.hoisted:
            op.release()


class LoopInvariantOp(PhysicalOperator):
    """Runs its child once per execution of the enclosing loop operator
    and replays the batch every later round. The batch is accounted
    against the statement's memory budget until the loop's ``finally``
    releases it, so a re-entered loop (nested ITERATE, ITERATE inside a
    correlated subquery) starts empty."""

    def __init__(
        self,
        child: PhysicalOperator,
        scope: LoopScope,
        ctx: ExecutionContext,
    ):
        super().__init__(child.output)
        self._child = child
        # The key only: a reference back to the scope would make the
        # whole operator tree cyclic garbage.
        self._loop_key = scope.key
        self._ctx = ctx
        self._batch: Optional[ColumnBatch] = None
        self._reserved = 0
        scope.hoisted.append(self)

    def describe(self) -> str:
        return f"LoopInvariant({self._loop_key})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        counter = "exec_loop_invariant_reused_total"
        if self._batch is None:
            counter = "exec_loop_invariant_materialized_total"
            self._batch = self._child.execute_materialized(eval_ctx)
            self._reserved = self._ctx.governor.reserve(
                self._batch.nbytes, "loop_invariant"
            )
        if self._ctx.metrics is not None:
            self._ctx.metrics.counter(counter).inc()
        yield self._batch

    def release(self) -> None:
        self._ctx.governor.release(self._reserved)
        self._reserved = 0
        self._batch = None
