"""Set operations: UNION [ALL], INTERSECT, EXCEPT."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ExecutionError
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalSetOp
from ..storage.column import Column, ColumnBatch
from .aggregate import distinct_rows
from .common import factorize
from .physical import ExecutionContext, PhysicalOperator


class SetOpOp(PhysicalOperator):
    """Aligns both inputs positionally to the node's output slots, then
    applies bag/set semantics. INTERSECT/EXCEPT use SQL set semantics
    (distinct results); UNION ALL streams, the rest materialise."""

    def __init__(
        self,
        node: LogicalSetOp,
        left: PhysicalOperator,
        right: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._left = left
        self._right = right
        self._ctx = ctx

    def describe(self) -> str:
        return f"SetOp({self._node.op})"

    def _relabel(
        self, batch: ColumnBatch, source_slots: list[str]
    ) -> ColumnBatch:
        return ColumnBatch(
            {
                out.slot: batch[src]
                for out, src in zip(self.output, source_slots)
            }
        )

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        op = self._node.op
        stats = self._ctx.stats
        self._ctx.checkpoint("setop")
        left_slots = self._node.left.output_slots()
        right_slots = self._node.right.output_slots()

        if op == "union_all":
            for batch in self._left.execute(eval_ctx):
                yield self._relabel(batch, left_slots)
            for batch in self._right.execute(eval_ctx):
                yield self._relabel(batch, right_slots)
            return

        left_batch = self._relabel(
            self._left.execute_materialized(eval_ctx), left_slots
        )
        right_batch = self._relabel(
            self._right.execute_materialized(eval_ctx), right_slots
        )

        if op == "union":
            slots = [c.slot for c in self.output]
            if len(left_batch) == 0:
                yield distinct_rows(right_batch, stats)
                return
            if len(right_batch) == 0:
                yield distinct_rows(left_batch, stats)
                return
            combined = ColumnBatch(
                {
                    slot: Column.concat(
                        [left_batch[slot], right_batch[slot]]
                    )
                    for slot in slots
                }
            )
            yield distinct_rows(combined, stats)
            return

        if op not in ("intersect", "except"):
            raise ExecutionError(f"unknown set operation {op!r}")

        n_left = len(left_batch)
        slots = [c.slot for c in self.output]
        if n_left == 0:
            yield left_batch
            return
        if len(right_batch) == 0:
            if op == "except":
                yield distinct_rows(left_batch, stats)
            else:
                yield self.empty_batch()
            return
        stacked = [
            Column.concat([left_batch[slot], right_batch[slot]])
            for slot in slots
        ]
        codes, n_groups = factorize(stacked, stats)
        left_codes = codes[:n_left]
        right_present = np.zeros(n_groups, dtype=np.bool_)
        right_present[codes[n_left:]] = True
        member = right_present[left_codes]
        keep = member if op == "intersect" else ~member
        filtered = left_batch.filter(keep)
        yield distinct_rows(filtered, stats)
