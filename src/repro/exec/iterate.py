"""The non-appending ITERATE operator (paper section 5.1).

Semantics of ``ITERATE((init), (step), (stop))``:

1. The working relation ``iterate`` is initialised from *init*.
2. Before each round, *stop* is evaluated against the current working
   relation; iteration ends when it returns at least one row whose first
   column is true (or at least one row, when the first column is not
   boolean — a row-existence stop predicate like Listing 1's).
3. Otherwise one round runs: *step* is evaluated against the working
   relation, and its result **replaces** it.
4. The final working relation is the operator's result.

Unlike the appending recursive CTE, only the current round (and
transiently the next one) is live: 2·n tuples instead of n·i. The
max-iteration guard aborts infinite loops, as the paper requires.

Each round starts with a governor checkpoint
(:meth:`repro.exec.physical.ExecutionContext.checkpoint`), so a long
ITERATE can be cancelled or timed out with latency bounded by one
round; the working relation's bytes are accounted against the
statement's memory budget, with the reservation *replaced* (not
accumulated) as rounds replace the relation.

Only the part of *step*/*stop* that reads the working relation runs
every round: the planner builds the rest under
:class:`repro.exec.hoist.LoopInvariantOp` nodes, which this operator's
:class:`~repro.exec.hoist.LoopScope` empties when the loop ends; and
of a subtree that occurs twice in the body, the scope runs one copy per
round.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator

from ..errors import IterationLimitError
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalIterate
from ..storage.column import ColumnBatch
from ..types import TypeKind
from .hoist import LoopScope
from .physical import ExecutionContext, PhysicalOperator


class IterateOp(PhysicalOperator):
    def __init__(
        self,
        node: LogicalIterate,
        init: PhysicalOperator,
        step: PhysicalOperator,
        stop: PhysicalOperator,
        scope: LoopScope,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._init = init
        self._step = step
        self._stop = stop
        self._scope = scope
        self._ctx = ctx
        #: Rounds executed by the most recent run (EXPLAIN ANALYZE).
        self.last_iterations = 0

    def describe(self) -> str:
        return "Iterate"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        node = self._node
        ctx = self._ctx
        governor = ctx.governor

        init_batch = self._init.execute_materialized(eval_ctx)
        working = self._as_working(
            init_batch, self._node.init.output_slots()
        )
        ctx.stats.observe_live_tuples(2 * len(working))
        reserved = governor.reserve(working.nbytes, "iterate_init")

        tracer = ctx.tracer
        iterations = 0
        max_iterations = min(node.max_iterations, ctx.max_iterations)
        try:
            while True:
                ctx.checkpoint("iterate_round")
                self._scope.begin_round(eval_ctx)
                ctx.working_tables[node.key] = working
                try:
                    stop_batch = self._stop.execute_materialized(eval_ctx)
                    if self._stop_satisfied(stop_batch):
                        break
                    if iterations >= max_iterations:
                        raise IterationLimitError(
                            f"ITERATE exceeded {max_iterations} iterations "
                            "without satisfying its stop condition"
                        )
                    iterations += 1
                    # Incremented per round (not once at the end) so the
                    # count survives an iteration-limit abort.
                    ctx.stats.iterations += 1
                    round_span = (
                        tracer.span("iteration", round=iterations)
                        if tracer is not None
                        else nullcontext()
                    )
                    with round_span:
                        step_batch = self._step.execute_materialized(
                            eval_ctx
                        )
                finally:
                    ctx.working_tables.pop(node.key, None)
                next_working = self._as_working(
                    step_batch, self._node.step.output_slots()
                )
                # Non-appending: the new round replaces the old; at most
                # the two of them are live at once. The reservation is
                # replaced along with the rows.
                ctx.stats.observe_live_tuples(
                    len(working) + len(next_working)
                )
                next_reserved = governor.reserve(
                    next_working.nbytes, "iterate_round"
                )
                governor.release(reserved)
                reserved = next_reserved
                working = next_working
        finally:
            governor.release(reserved)
            self._scope.release()
        self.last_iterations = iterations

        yield ColumnBatch(
            {
                col.slot: working[name]
                for col, name in zip(self.output, working.names())
            }
        )

    def _as_working(
        self, batch: ColumnBatch, source_slots: list[str]
    ) -> ColumnBatch:
        names = [c.name for c in self.output]
        return ColumnBatch(
            {
                name: batch[slot]
                for name, slot in zip(names, source_slots)
            }
        )

    @staticmethod
    def _stop_satisfied(stop_batch: ColumnBatch) -> bool:
        if len(stop_batch) == 0:
            return False
        names = stop_batch.names()
        if not names:
            return True
        first = stop_batch[names[0]]
        if first.sql_type.kind is TypeKind.BOOLEAN:
            mask = first.values.astype(bool, copy=False)
            validity = first.validity()
            return bool((mask & validity).any())
        return True
