"""Appending recursion: the WITH RECURSIVE operator.

SQL:1999 semantics (the paper's HyPer SQL baseline, sections 5.1/8.4.1):
the result is the union of every round; each round's step sees only the
*previous* round's rows; iteration stops at a fixpoint (the step produced
no new rows). With UNION (distinct) semantics, rows already seen anywhere
in the result do not recurse again.

The memory behaviour the paper criticises is explicit here: every round's
rows stay materialised, so the accumulated result grows to n*i tuples.
``ExecutionStats.peak_live_tuples`` records that growth for the
iterate-vs-CTE ablation benchmark.

As in :mod:`repro.exec.iterate`, the part of the step that does not
read the previous round's rows is hoisted
(:mod:`repro.exec.hoist`) and runs once per execution, not per round.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator

import numpy as np

from ..errors import IterationLimitError
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalRecursiveCTE
from ..storage.column import Column, ColumnBatch
from .common import factorize
from .hoist import LoopScope
from .physical import ExecutionContext, PhysicalOperator, materialize


class RecursiveCTEOp(PhysicalOperator):
    def __init__(
        self,
        node: LogicalRecursiveCTE,
        init: PhysicalOperator,
        step: PhysicalOperator,
        scope: LoopScope,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._init = init
        self._step = step
        self._scope = scope
        self._ctx = ctx
        #: Rounds executed by the most recent run (EXPLAIN ANALYZE).
        self.last_iterations = 0

    def describe(self) -> str:
        return f"RecursiveCTE({self._node.key})"

    def _as_working(self, batch: ColumnBatch, slots: list[str]) -> ColumnBatch:
        """Re-key a round's rows to canonical working-table column names
        (positional), so the step's WorkingTableOp can re-alias them."""
        names = [name for name, _t in _working_layout(self._node)]
        return ColumnBatch(
            {name: batch[slot] for name, slot in zip(names, slots)}
        )

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        node = self._node
        ctx = self._ctx
        out_slots = [c.slot for c in node.output]

        init_batch = self._init.execute_materialized(eval_ctx)
        current = self._relabel(init_batch, self._node.init.output_slots())
        if not node.union_all:
            from .aggregate import distinct_rows

            current = distinct_rows(current, ctx.stats)

        accumulated: list[ColumnBatch] = [current]
        total_rows = len(current)
        ctx.stats.observe_live_tuples(total_rows)
        governor = ctx.governor
        # Appending semantics: every round stays live, so reservations
        # accumulate (n*i growth is exactly what a memory budget caps).
        reserved = governor.reserve(current.nbytes, "recursive_cte_init")

        tracer = ctx.tracer
        iterations = 0
        max_iterations = min(node.max_iterations, ctx.max_iterations)
        try:
            while len(current) > 0:
                ctx.checkpoint("recursive_cte_round")
                if iterations >= max_iterations:
                    raise IterationLimitError(
                        f"recursive CTE {node.key!r} exceeded "
                        f"{max_iterations} iterations"
                    )
                iterations += 1
                # Incremented per round (not once at the end) so the count
                # survives an iteration-limit abort.
                ctx.stats.iterations += 1
                self._scope.begin_round(eval_ctx)
                ctx.working_tables[node.key] = self._as_working(
                    current, out_slots
                )
                round_span = (
                    tracer.span("iteration", round=iterations)
                    if tracer is not None
                    else nullcontext()
                )
                try:
                    with round_span:
                        step_batch = self._step.execute_materialized(
                            eval_ctx
                        )
                finally:
                    ctx.working_tables.pop(node.key, None)
                produced = self._relabel(
                    step_batch, self._node.step.output_slots()
                )
                if not node.union_all:
                    produced = self._drop_seen(accumulated, produced)
                if len(produced) == 0:
                    break
                accumulated.append(produced)
                total_rows += len(produced)
                # Appending semantics: every prior round stays live.
                ctx.stats.observe_live_tuples(total_rows)
                reserved += governor.reserve(
                    produced.nbytes, "recursive_cte_round"
                )
                current = produced
        finally:
            governor.release(reserved)
            self._scope.release()
        self.last_iterations = iterations

        yield materialize(accumulated, node.output)

    def _relabel(
        self, batch: ColumnBatch, source_slots: list[str]
    ) -> ColumnBatch:
        return ColumnBatch(
            {
                out.slot: batch[src]
                for out, src in zip(self.output, source_slots)
            }
        )

    def _drop_seen(
        self, accumulated: list[ColumnBatch], produced: ColumnBatch
    ) -> ColumnBatch:
        """UNION-distinct recursion: drop rows equal to any already-seen
        row, and deduplicate the round itself."""
        from .aggregate import distinct_rows

        produced = distinct_rows(produced, self._ctx.stats)
        if len(produced) == 0:
            return produced
        slots = [c.slot for c in self.output]
        prior = [b for b in accumulated if len(b) > 0]
        if not prior:
            return produced
        n_prior = sum(len(b) for b in prior)
        stacked = [
            Column.concat(
                [b[slot] for b in prior] + [produced[slot]]
            )
            for slot in slots
        ]
        codes, n_groups = factorize(stacked, self._ctx.stats)
        seen = np.zeros(n_groups, dtype=np.bool_)
        seen[codes[:n_prior]] = True
        fresh = ~seen[codes[n_prior:]]
        return produced.filter(fresh)


def _working_layout(node: LogicalRecursiveCTE) -> list[tuple[str, object]]:
    return [(c.name, c.sql_type) for c in node.output]
