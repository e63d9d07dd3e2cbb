"""Hash aggregation and DISTINCT — pipeline breakers."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..errors import ExecutionError
from ..expr import aggregates as agg_registry
from ..expr.bound import BoundColumnRef
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalAggregate, LogicalDistinct, LogicalJoin
from ..storage.column import Column, ColumnBatch
from .common import (
    compose_codes,
    factorize,
    factorize_column,
    group_representatives,
)
from .join import _one_row_side
from .physical import ExecutionContext, PhysicalOperator


def broadcast_extremes(node: LogicalAggregate) -> list[Optional[str]]:
    """Per aggregate of ``node``, the slot it folds when it is a
    ``min``/``max`` (not DISTINCT) of a bare column of the provably
    one-row side of the inner or cross join below — every row of every
    group holds that row's value — else None."""
    child = node.child
    side = _one_row_side(child) if isinstance(child, LogicalJoin) else None
    if side is None:
        return [None] * len(node.aggregates)
    slots = {col.slot for col in getattr(child, side).output}
    return [
        spec.arg.slot
        if spec.func_name in ("min", "max")
        and not spec.distinct
        and isinstance(spec.arg, BoundColumnRef)
        and spec.arg.slot in slots
        else None
        for spec in node.aggregates
    ]


class _CodesMemo:
    """Last round's group codes of a round-stable
    :class:`HashAggregateOp`, with the key columns they were built from
    (held, so their identity stays theirs)."""

    __slots__ = ("keys", "codes", "n_groups", "reps", "reserved")

    def __init__(self, keys, codes, n_groups, reps, reserved):
        self.keys = keys
        self.codes = codes
        self.n_groups = n_groups
        self.reps = reps
        self.reserved = reserved


class HashAggregateOp(PhysicalOperator):
    """Materialises input, factorizes group keys, and runs each
    aggregate's grouped kernel once over the whole input — the vectorised
    form of thread-local partial aggregation plus a global merge.

    In a loop body the planner may hand it two plan-decided shortcuts:
    ``broadcast`` (:func:`broadcast_extremes`) folds a ``min``/``max``
    of a one-row join side at the group representatives only, and
    ``stable_codes`` keeps the group codes of one round for the next
    while the key columns are the very objects a round-stable join
    replayed — what the join hands out only when it reused its pairs."""

    def __init__(
        self,
        node: LogicalAggregate,
        child: PhysicalOperator,
        ctx: ExecutionContext,
        broadcast: Optional[list[Optional[str]]] = None,
        stable_codes: bool = False,
    ):
        super().__init__(node.output)
        self._node = node
        self._child = child
        self._ctx = ctx
        self._broadcast = broadcast or [None] * len(node.aggregates)
        self._stable_codes = stable_codes
        self._memo: Optional[_CodesMemo] = None
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

        columns: dict[str, Column] = {}
        if node.group_exprs:
            key_cols = [fn(batch, eval_ctx) for fn in self._group_fns]
            codes, n_groups, reps = self._group_codes(key_cols)
            if n_groups == 0:
                yield self.empty_batch()
                return
            for slot, col in zip(node.group_slots, key_cols):
                columns[slot] = col.take(reps)
        else:
            codes = np.zeros(n, dtype=np.int64)
            n_groups = 1  # global aggregation: always one output row
            reps = codes[:1]

        for spec, arg_fn, kernel, folded in zip(
            node.aggregates, self._agg_arg_fns, self._kernels,
            self._broadcast,
        ):
            if folded is not None and n:
                # One row per group, each holding the group's value: the
                # kernel folds it exactly as it folds all the copies.
                columns[spec.slot] = kernel.grouped(
                    batch[folded].take(reps),
                    np.arange(n_groups, dtype=np.int64),
                    n_groups,
                )
                continue
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

    def _group_codes(
        self, key_cols: list[Column]
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """``(codes, n_groups, representatives)`` of the key columns —
        last round's, when they are the very columns it was built from."""
        memo = self._memo
        if memo is not None and all(
            col is kept for col, kept in zip(key_cols, memo.keys)
        ):
            if self._ctx.metrics is not None:
                self._ctx.metrics.counter(
                    "exec_loop_group_codes_reused_total"
                ).inc()
            return memo.codes, memo.n_groups, memo.reps
        codes, n_groups = factorize(key_cols, self._ctx.stats)
        reps = group_representatives(codes, n_groups)
        if self._stable_codes:
            self.drop_memo()
            reserved = self._ctx.governor.reserve(
                int(codes.nbytes + reps.nbytes), "round_stable_aggregate"
            )
            self._memo = _CodesMemo(
                key_cols, codes, n_groups, reps, reserved
            )
        return codes, n_groups, reps

    def drop_memo(self) -> None:
        memo = self._memo
        if memo is not None:
            self._ctx.governor.release(memo.reserved)
            self._memo = None


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
