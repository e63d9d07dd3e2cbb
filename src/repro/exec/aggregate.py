"""Hash aggregation and DISTINCT — pipeline breakers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ExecutionError
from ..expr import aggregates as agg_registry
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalAggregate, LogicalDistinct
from ..storage.column import Column, ColumnBatch
from .common import (
    compose_codes,
    factorize,
    factorize_column,
    group_representatives,
)
from .physical import ExecutionContext, PhysicalOperator


class HashAggregateOp(PhysicalOperator):
    """Materialises input, factorizes group keys, and runs each
    aggregate's grouped kernel once over the whole input — the vectorised
    form of thread-local partial aggregation plus a global merge."""

    def __init__(
        self,
        node: LogicalAggregate,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._child = child
        self._ctx = ctx
        self._group_fns = [
            ctx.compiler.compile(e) for e in node.group_exprs
        ]
        self._agg_arg_fns = [
            ctx.compiler.compile(spec.arg) if spec.arg is not None else None
            for spec in node.aggregates
        ]
        self._kernels = []
        for spec in node.aggregates:
            func = agg_registry.lookup(spec.func_name)
            if func is None:
                raise ExecutionError(
                    f"unknown aggregate {spec.func_name!r}"
                )
            self._kernels.append(func)

    def describe(self) -> str:
        return (
            f"HashAggregate(keys={len(self._node.group_exprs)}, "
            f"aggs={len(self._node.aggregates)})"
        )

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        governor = self._ctx.governor
        batch = self._child.execute_materialized(eval_ctx)
        reserved = governor.reserve(batch.nbytes, "hash_aggregate")
        try:
            yield from self._aggregate(eval_ctx, batch)
        finally:
            governor.release(reserved)

    def _aggregate(
        self, eval_ctx: EvalContext, batch: ColumnBatch
    ) -> Iterator[ColumnBatch]:
        node = self._node
        n = len(batch)
        self._ctx.checkpoint("hash_aggregate")

        if node.group_exprs:
            key_cols = [fn(batch, eval_ctx) for fn in self._group_fns]
            codes, n_groups = factorize(key_cols, self._ctx.stats)
            if n_groups == 0:
                yield self.empty_batch()
                return
        else:
            key_cols = []
            codes = np.zeros(n, dtype=np.int64)
            n_groups = 1  # global aggregation: always one output row

        columns: dict[str, Column] = {}
        if key_cols:
            reps = group_representatives(codes, n_groups)
            for slot, col in zip(node.group_slots, key_cols):
                columns[slot] = col.take(reps)

        for spec, arg_fn, kernel in zip(
            node.aggregates, self._agg_arg_fns, self._kernels
        ):
            arg_col = arg_fn(batch, eval_ctx) if arg_fn is not None else None
            use_codes = codes
            use_col = arg_col
            if spec.distinct:
                if arg_col is None:
                    raise ExecutionError("COUNT(DISTINCT *) is not valid")
                use_col, use_codes = _deduplicate(
                    arg_col, codes, n_groups, self._ctx.stats
                )
            # Partial-aggregate/merge path: chunk boundaries and merge
            # order are worker-independent, so workers=1 (inline) and
            # workers=N produce bit-identical results — including
            # floating-point sums, which always fold in chunk order.
            result = None
            pool = self._ctx.pool
            if not spec.distinct and pool is not None:
                from .parallel import partial_grouped_aggregate

                result = partial_grouped_aggregate(
                    spec.func_name, use_col, use_codes, n_groups, pool
                )
            if result is None:
                result = kernel.grouped(use_col, use_codes, n_groups)
            columns[spec.slot] = result

        yield ColumnBatch(columns)


def _first_rows(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """The first row of every group, in row order (a sort of groups,
    not of rows)."""
    return np.sort(group_representatives(codes, n_groups))


def _deduplicate(
    col: Column, codes: np.ndarray, n_groups: int, stats=None
) -> tuple[Column, np.ndarray]:
    """Keep one row per (group, value) pair — DISTINCT aggregation input.
    NULLs are preserved (the kernels skip them anyway)."""
    value_codes, n_values = factorize_column(col, stats)
    if n_values == 0:
        return col, codes
    pair_codes, n_pairs = compose_codes(
        codes, n_groups, value_codes, n_values
    )
    keep = _first_rows(pair_codes, n_pairs)
    return col.take(keep), codes[keep]


class DistinctOp(PhysicalOperator):
    """SELECT DISTINCT: one representative row per distinct full row."""

    def __init__(
        self,
        node: LogicalDistinct,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(list(node.output))
        self._child = child
        self._ctx = ctx

    def describe(self) -> str:
        return "Distinct"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        batch = self._child.execute_materialized(eval_ctx)
        self._ctx.checkpoint("distinct")
        if len(batch) == 0:
            yield batch
            return
        yield distinct_rows(batch, self._ctx.stats)


def distinct_rows(batch: ColumnBatch, stats=None) -> ColumnBatch:
    """Deduplicate full rows of a batch, keeping first occurrences in
    their original order."""
    cols = [batch[name] for name in batch.names()]
    codes, n_groups = factorize(cols, stats)
    if n_groups == 0 or n_groups == len(batch):
        return batch
    return batch.take(_first_rows(codes, n_groups))
