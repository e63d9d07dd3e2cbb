"""Sorting and LIMIT/OFFSET."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..expr.compiler import EvalContext
from ..plan.logical import LogicalLimit, LogicalSort
from ..storage.column import Column, ColumnBatch
from ..storage.encoding import DictionaryColumn
from ..types import TypeKind
from .physical import ExecutionContext, PhysicalOperator

class SortOp(PhysicalOperator):
    """Materialises and sorts by the node's keys.

    Implemented as repeated stable argsorts from the least significant
    key to the most significant one. NULL ordering follows PostgreSQL:
    NULLs sort as larger than every value (last for ASC, first for DESC)
    unless NULLS FIRST/LAST overrides.
    """

    def __init__(
        self,
        node: LogicalSort,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(list(node.output))
        self._node = node
        self._child = child
        self._ctx = ctx
        self._key_fns = [ctx.compiler.compile(k.expr) for k in node.keys]

    def describe(self) -> str:
        return f"Sort(keys={len(self._node.keys)})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        governor = self._ctx.governor
        batch = self._child.execute_materialized(eval_ctx)
        reserved = governor.reserve(batch.nbytes, "sort")
        try:
            self._ctx.checkpoint("sort")
            if len(batch) <= 1:
                yield batch
                return
            order = np.arange(len(batch), dtype=np.int64)
            for key, fn in zip(
                reversed(self._node.keys), reversed(self._key_fns)
            ):
                col = fn(batch, eval_ctx)
                order = order[_stable_key_sort(col.take(order), key)]
            yield batch.take(order)
        finally:
            governor.release(reserved)


def _stable_key_sort(col: Column, key) -> np.ndarray:
    """Stable permutation ordering one key column."""
    n = len(col)
    validity = col.validity()
    nulls_last = key.nulls_last
    if nulls_last is None:
        nulls_last = not key.descending  # NULLs are "largest"

    if col.sql_type.kind is TypeKind.VARCHAR:
        # Python-object sort; sorted() is stable, including reverse=True.
        non_null = [i for i in range(n) if validity[i]]
        null_rows = [i for i in range(n) if not validity[i]]
        non_null.sort(key=lambda i: col.values[i], reverse=key.descending)
        decorated = (
            non_null + null_rows if nulls_last else null_rows + non_null
        )
        return np.asarray(decorated, dtype=np.int64)

    values = col.values.astype(np.float64, copy=True)
    if key.descending:
        values = -values
    # Place NULLs at the requested end via +/- infinity sentinels.
    values[~validity] = np.inf if nulls_last else -np.inf
    return np.argsort(values, kind="stable")


def _encode_primary_key(col: Column, key) -> np.ndarray:
    """Encode one sort key as an ascending float64 rank vector.

    Smaller rank == earlier in the requested order; exactly mirrors the
    sentinel scheme of :func:`_stable_key_sort` (NULLs as +/-inf, NaN
    sorting after +inf in both directions, descending via negation) so
    a partition on the ranks selects the same prefix a full stable sort
    would.
    """
    n = len(col)
    validity = col.validity()
    nulls_last = key.nulls_last
    if nulls_last is None:
        nulls_last = not key.descending

    if col.sql_type.kind is TypeKind.VARCHAR:
        enc = np.zeros(n, dtype=np.float64)
        if isinstance(col, DictionaryColumn):
            # Sorted dictionary: codes are already order-faithful ranks.
            enc[:] = col.codes.astype(np.float64)
        else:
            live = np.flatnonzero(validity)
            if len(live):
                # np.unique sorts with the same __lt__ Python's sorted()
                # uses, so the dense ranks reproduce lexicographic order.
                _, inverse = np.unique(
                    col.values[live], return_inverse=True
                )
                enc[live] = inverse.astype(np.float64)
        if key.descending:
            enc = -enc
    else:
        enc = col.values.astype(np.float64, copy=True)
        if key.descending:
            enc = -enc
    enc[~validity] = np.inf if nulls_last else -np.inf
    return enc


class TopNSortOp(PhysicalOperator):
    """Fused ORDER BY + LIMIT: sort only the rows that can make the cut.

    ``np.argpartition`` on the most-significant key's rank selects the
    k = offset+limit smallest rows plus *every* row tied with the k-th
    boundary value (ties must survive so secondary keys and stability
    can break them exactly as a full sort would); the candidate set —
    kept in ascending original-row order to preserve stability — then
    runs the same repeated-stable-argsort loop as :class:`SortOp` and is
    sliced to ``[offset : offset+limit]``. Bit-identical to
    Sort -> Limit by construction; degrades to a full sort when
    k >= n or when the boundary value ties the whole input.
    """

    def __init__(
        self,
        sort_node: LogicalSort,
        limit_node: LogicalLimit,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(list(sort_node.output))
        self._node = sort_node
        self._child = child
        self._ctx = ctx
        self._key_fns = [
            ctx.compiler.compile(k.expr) for k in sort_node.keys
        ]
        self._limit = int(limit_node.limit)
        self._offset = limit_node.offset or 0

    def describe(self) -> str:
        return (
            f"TopNSort(keys={len(self._node.keys)}, "
            f"limit={self._limit}, offset={self._offset})"
        )

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        k = self._limit + self._offset
        if self._limit <= 0 or k <= 0:
            yield self.empty_batch()
            return
        governor = self._ctx.governor
        batch = self._child.execute_materialized(eval_ctx)
        reserved = governor.reserve(batch.nbytes, "sort")
        try:
            self._ctx.checkpoint("sort")
            n = len(batch)
            if n == 0:
                yield batch
                return
            if k < n:
                primary = self._key_fns[0](batch, eval_ctx)
                enc = _encode_primary_key(primary, self._node.keys[0])
                boundary = enc[np.argpartition(enc, k - 1)[k - 1]]
                if np.isnan(boundary):
                    # The k-th row is NaN: every non-NaN row precedes it
                    # and all NaNs tie — nothing can be discarded.
                    candidates = np.arange(n, dtype=np.int64)
                else:
                    # Strict winners plus ALL boundary ties (NaNs compare
                    # False and drop out: they sort after +inf).
                    candidates = np.flatnonzero(enc <= boundary).astype(
                        np.int64
                    )
                sub = batch.take(candidates)
            else:
                sub = batch
            order = np.arange(len(sub), dtype=np.int64)
            if len(sub) > 1:
                for key, fn in zip(
                    reversed(self._node.keys), reversed(self._key_fns)
                ):
                    col = fn(sub, eval_ctx)
                    order = order[_stable_key_sort(col.take(order), key)]
            picked = order[self._offset:k]
            if len(picked) == 0:
                yield self.empty_batch()
            else:
                yield sub.take(picked)
        finally:
            governor.release(reserved)


class LimitOp(PhysicalOperator):
    """Streams through at most ``limit`` rows after skipping ``offset``."""

    def __init__(
        self,
        node: LogicalLimit,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(list(node.output))
        self._child = child
        self._limit = node.limit
        self._offset = node.offset or 0

    def describe(self) -> str:
        return f"Limit({self._limit}, offset={self._offset})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        to_skip = self._offset
        remaining = self._limit
        produced = False
        if remaining is not None and remaining <= 0:
            yield self.empty_batch()
            return
        source = self._child.execute(eval_ctx)
        try:
            for batch in source:
                if to_skip:
                    if len(batch) <= to_skip:
                        to_skip -= len(batch)
                        continue
                    batch = batch.slice(to_skip, len(batch))
                    to_skip = 0
                if remaining is not None:
                    if len(batch) > remaining:
                        batch = batch.slice(0, remaining)
                    remaining -= len(batch)
                produced = True
                yield batch
                # Early exit: once offset+limit rows are out, stop
                # pulling child batches so pushed-down limits actually
                # truncate upstream work.
                if remaining is not None and remaining <= 0:
                    break
        finally:
            close = getattr(source, "close", None)
            if close is not None:
                close()
        if not produced:
            yield self.empty_batch()
