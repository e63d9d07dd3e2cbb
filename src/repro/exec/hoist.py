"""Loop-invariant hoisting and round-scoped sharing for ITERATE and
recursive CTEs.

The step (and stop) plan of a loop runs once per round, but only the
part that reads the working table can produce a different result. The
planner wraps every maximal subtree that cannot change between rounds
(:func:`repro.expr.effects.plan_effects`: the working tables it reads,
and whether it is volatile) in a
:class:`LoopInvariantOp` — Postgres' ``Material`` node, scoped to one
execution of the loop operator — and hands the loop operator the
:class:`LoopScope` that owns them. The same invariance test bounds the
life of cached uncorrelated-subquery results: one whose plan reads the
working table is good for one round, any other for the whole loop.

A subtree that does read the working table can still occur twice in
one body — SQL that inlines a derived table twice (k-Means' ``dist``).
The scope finds such copies by a canonical key (:class:`SubtreeKeys`);
the first copy runs once per round under a :class:`LoopInvariantOp`
with a round lifetime, and each later copy replays its batch under its
own slots (:class:`SharedReadOp`).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from ..expr.bound import BoundExpr
from ..expr.compiler import EvalContext, kernel_fingerprint
from ..expr.effects import effects, plan_effects
from ..plan import logical as lp
from ..plan.logical import (
    LogicalPlan,
    PlanColumn,
    node_signature,
    plan_expressions,
    walk_plan,
)
from ..storage.column import ColumnBatch
from .physical import ExecutionContext, PhysicalOperator

#: Plan nodes no copy of which is shared: a nested loop's rounds belong
#: to its own scope; a table function is volatile.
_OPAQUE = (lp.LogicalIterate, lp.LogicalRecursiveCTE, lp.LogicalTableFunction)


class _Unshareable(Exception):
    """An expression without a fingerprint: its node has no key."""


class SubtreeKeys:
    """Canonical keys of plan subtrees: equal for two subtrees that
    compute the same rows into the same output positions from the same
    inputs, whatever slots the binder gave them.

    A node's key stands for its :func:`node_signature` — its fields and
    output columns, expressions as their :func:`kernel_fingerprint` and
    column slots as their (child, position) among the node's inputs —
    and its children's keys. A subtree holding something without a
    fingerprint (a subquery, a UDF, a lambda), a nested loop or a table
    function has no key (None). Keys are small integers, interned per
    instance, so a node's key costs a hash of the node alone, not of
    its whole subtree. Each keyed node is held beside its key: a freed
    node's ``id()`` could otherwise come back on a new node and hand it
    the old node's key."""

    def __init__(self) -> None:
        self._by_node: dict[int, tuple[LogicalPlan, Optional[int]]] = {}
        self._interned: dict[tuple, int] = {}

    def of(self, node: LogicalPlan) -> Optional[int]:
        known = self._by_node.get(id(node))
        if known is not None:
            return known[1]
        key = None
        if not isinstance(node, _OPAQUE):
            children = node.children()
            child_keys = tuple(self.of(child) for child in children)
            if None not in child_keys:
                positions = {
                    col.slot: (i, p)
                    for i, child in enumerate(children)
                    for p, col in enumerate(child.output)
                }

                def fingerprint(expr: BoundExpr) -> tuple:
                    out = kernel_fingerprint(expr, positions)
                    if out is None:
                        raise _Unshareable
                    return out

                try:
                    signature = node_signature(node, fingerprint, positions)
                except _Unshareable:
                    pass
                else:
                    key = self._interned.setdefault(
                        (signature, child_keys), len(self._interned)
                    )
        self._by_node[id(node)] = (node, key)
        return key


class SharedSubtree:
    """The copies of one subtree shared within a round: how many read
    it per round, and the operator the first copy built."""

    __slots__ = ("number", "readers", "source")

    def __init__(self, number: int, readers: int):
        self.number = number
        self.readers = readers
        self.source: Optional[LoopInvariantOp] = None


def _shared_subtrees(
    key: str, body: list[LogicalPlan]
) -> dict[int, SharedSubtree]:
    """``id(node)`` -> its :class:`SharedSubtree`, for every copy of the
    maximal subtrees of ``body`` that occur at least twice, read the
    working table ``key`` (invariant ones are hoisted instead), are not
    volatile and are more than the bare working table."""
    keys = SubtreeKeys()
    counts = Counter(keys.of(node) for node in _body_nodes(body))
    copies: dict[int, list[LogicalPlan]] = {}
    stack = list(body)
    while stack:
        node = stack.pop()
        node_key = keys.of(node)
        found = plan_effects(node)
        if (
            node_key is not None
            and counts[node_key] > 1
            and key in found.working_tables
            and not found.volatile
            and node.output
            and not isinstance(node, lp.LogicalWorkingTableRef)
        ):
            copies.setdefault(node_key, []).append(node)
        elif not isinstance(node, _OPAQUE):
            stack.extend(node.children())
    shared: dict[int, SharedSubtree] = {}
    for nodes in copies.values():
        if len(nodes) > 1:
            group = SharedSubtree(len(shared) + 1, len(nodes))
            for node in nodes:
                shared[id(node)] = group
    return shared


def _body_nodes(body: list[LogicalPlan]) -> Iterator[LogicalPlan]:
    """Every node of a loop body reachable through ``children()``, short
    of the bodies of nested loops."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _OPAQUE):
            stack.extend(node.children())


class LoopScope:
    """What one loop operator must reset: per round, the cached results
    of subqueries over its working table and the batches of its shared
    subtrees; per execution, the batches its hoisted subtrees hold and
    what its round-stable joins and aggregates remember of last round."""

    def __init__(self, key: str, body: list[LogicalPlan]):
        self.key = key
        self.hoisted: list[LoopInvariantOp] = []
        #: Operators of this loop's body that keep last round's work
        #: (``HashJoinOp`` / ``HashAggregateOp``), each with a
        #: ``drop_memo()``.
        self.round_stable: list = []
        #: The round-lifetime :class:`LoopInvariantOp` of every shared
        #: subtree built so far.
        self.round_shared: list[LoopInvariantOp] = []
        #: ``id(node)`` -> :class:`SharedSubtree` of each copy of a
        #: subtree evaluated once per round for all its copies.
        self.shared = _shared_subtrees(key, body)
        #: ``EvalContext.subquery_cache`` keys of the uncorrelated
        #: subqueries in ``body`` whose plan reads this working table.
        self.round_subqueries = [
            id(subquery.plan)
            for plan in body
            for node in walk_plan(plan)
            for expr in plan_expressions(node)
            for subquery in effects(expr).subqueries
            if not subquery.outer_slots
            and key in plan_effects(subquery.plan).working_tables
        ]

    def begin_round(self, eval_ctx: EvalContext) -> None:
        """The working table is about to change under the subqueries
        and shared subtrees that read it: forget what they returned
        last round."""
        for cache_key in self.round_subqueries:
            eval_ctx.subquery_cache.pop(cache_key, None)
        for op in self.round_shared:
            op.release()

    def release(self) -> None:
        """The loop operator is done (or died): drop every hoisted or
        shared batch and every round memo, and return their bytes to
        the governor."""
        for op in self.hoisted + self.round_shared:
            op.release()
        for op in self.round_stable:
            op.drop_memo()


class LoopInvariantOp(PhysicalOperator):
    """Runs its child once and replays the batch until the scope drops
    it, accounted against the statement's memory budget meanwhile.

    Hoisted (``shared`` None), the batch lives for one execution of the
    enclosing loop operator: the loop's ``finally`` releases it, so a
    re-entered loop (nested ITERATE, ITERATE inside a correlated
    subquery) starts empty. Shared within a round, it lives for one
    round at most: it is released after the last of the subtree's
    copies has read it, or when the next round begins.

    ``generation`` counts the batches materialised so far: a reader
    that remembers work done on one batch tells by it whether the batch
    it reads now is the same materialisation."""

    def __init__(
        self,
        child: PhysicalOperator,
        scope: LoopScope,
        ctx: ExecutionContext,
        shared: Optional[SharedSubtree] = None,
    ):
        super().__init__(child.output)
        self._child = child
        # The key only: a reference back to the scope would make the
        # whole operator tree cyclic garbage.
        self._loop_key = scope.key
        self._ctx = ctx
        self._batch: Optional[ColumnBatch] = None
        self._reserved = 0
        self._shared = None if shared is None else shared.number
        self._readers = 0 if shared is None else shared.readers
        self._reads = 0
        self.generation = 0
        if shared is None:
            scope.hoisted.append(self)
        else:
            scope.round_shared.append(self)

    @property
    def hoisted(self) -> bool:
        """Whether the batch lives for a whole execution of the loop
        (not for one round)."""
        return self._shared is None

    def describe(self) -> str:
        if self._shared is None:
            return f"LoopInvariant({self._loop_key})"
        return f"LoopInvariant({self._loop_key}, round #{self._shared})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        yield self.read(eval_ctx)

    def read(self, eval_ctx: EvalContext) -> ColumnBatch:
        """The batch, materialised by the first read since it was last
        released."""
        hoisted = self.hoisted
        batch = self._batch
        if batch is None:
            batch = self._batch = self._child.execute_materialized(eval_ctx)
            self.generation += 1
            self._reserved = self._ctx.governor.reserve(
                batch.nbytes, "loop_invariant" if hoisted else "loop_shared"
            )
            counter = (
                "exec_loop_invariant_materialized_total" if hoisted else None
            )
        elif hoisted:
            counter = "exec_loop_invariant_reused_total"
        else:
            counter = "exec_loop_shared_reused_total"
        if counter is not None and self._ctx.metrics is not None:
            self._ctx.metrics.counter(counter).inc()
        if self._readers:
            self._reads += 1
            if self._reads == self._readers:
                self.release()
        return batch

    def release(self) -> None:
        self._ctx.governor.release(self._reserved)
        self._reserved = 0
        self._batch = None
        self._reads = 0


class SharedReadOp(PhysicalOperator):
    """A later copy of a subtree shared within a round: the batch of the
    first copy's :class:`LoopInvariantOp` (materialised by whichever
    copy runs first), renamed to this copy's slots."""

    def __init__(self, source: LoopInvariantOp, output: list[PlanColumn]):
        super().__init__(output)
        self._source = source
        self._renames = [
            (mine.slot, theirs.slot)
            for mine, theirs in zip(output, source.output)
        ]

    def describe(self) -> str:
        label = self._source.describe()
        return f"{label[:-1]}, reused)"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        batch = self._source.read(eval_ctx)
        yield ColumnBatch(
            {mine: batch[theirs] for mine, theirs in self._renames}
        )
