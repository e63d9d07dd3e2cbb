"""The window operator.

Materialises its input, then per spec: partitions rows (factorize),
sorts within partitions by the window's ORDER BY (stable), computes the
function vectorised over partition segments, and scatters results back
to the original row order — window operators never reorder their
output.

Frame semantics (the SQL default):

* no ORDER BY — the frame is the whole partition (every row gets the
  partition aggregate);
* with ORDER BY — RANGE UNBOUNDED PRECEDING .. CURRENT ROW: running
  values where peer rows (ties on all sort keys) share the value of
  their last peer.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ExecutionError
from ..expr.compiler import EvalContext
from ..plan.logical import LogicalWindow, WindowSpec
from ..storage.column import Column, ColumnBatch
from ..types import BIGINT, DOUBLE, TypeKind
from .common import factorize
from .physical import ExecutionContext, PhysicalOperator
from .sort import _stable_key_sort


class WindowOp(PhysicalOperator):
    def __init__(
        self,
        node: LogicalWindow,
        child: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._child = child
        self._ctx = ctx
        self._compiled = []
        for spec in node.specs:
            self._compiled.append(
                (
                    [ctx.compiler.compile(a) for a in spec.args],
                    [ctx.compiler.compile(p) for p in spec.partition_by],
                    [ctx.compiler.compile(k.expr) for k in spec.order_by],
                )
            )

    def describe(self) -> str:
        return f"Window({len(self._node.specs)} specs)"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        batch = self._child.execute_materialized(eval_ctx)
        self._ctx.checkpoint("window")
        columns = dict(batch.columns)
        n = len(batch)
        for spec, (arg_fns, part_fns, key_fns) in zip(
            self._node.specs, self._compiled
        ):
            columns[spec.slot] = self._evaluate_spec(
                spec, arg_fns, part_fns, key_fns, batch, eval_ctx, n
            )
        yield ColumnBatch(columns)

    # ------------------------------------------------------------------

    def _evaluate_spec(
        self, spec: WindowSpec, arg_fns, part_fns, key_fns, batch,
        eval_ctx, n,
    ) -> Column:
        if n == 0:
            return Column(
                np.zeros(0, dtype=spec.sql_type.numpy_dtype()),
                spec.sql_type,
            )
        if part_fns:
            part_cols = [fn(batch, eval_ctx) for fn in part_fns]
            codes, _count = factorize(part_cols, self._ctx.stats)
        else:
            codes = np.zeros(n, dtype=np.int64)

        # Order: stable sort by the window keys, then stably by the
        # partition code, giving contiguous partitions in key order.
        order = np.arange(n, dtype=np.int64)
        for key, fn in zip(
            reversed(spec.order_by), reversed(key_fns)
        ):
            col = fn(batch, eval_ctx)
            order = order[_stable_key_sort(col.take(order), key)]
        order = order[np.argsort(codes[order], kind="stable")]
        sorted_codes = codes[order]
        segment_start = np.concatenate(
            ([True], sorted_codes[1:] != sorted_codes[:-1])
        )

        peer_start = segment_start.copy()
        if key_fns:
            for fn in key_fns:
                col = fn(batch, eval_ctx).take(order)
                values, validity = col.values, col.validity()
                if col.sql_type.kind is TypeKind.VARCHAR:
                    differs = np.ones(n, dtype=np.bool_)
                    for i in range(1, n):
                        differs[i] = (
                            values[i] != values[i - 1]
                            or validity[i] != validity[i - 1]
                        )
                else:
                    differs = np.concatenate(
                        (
                            [True],
                            (values[1:] != values[:-1])
                            | (validity[1:] != validity[:-1]),
                        )
                    )
                peer_start |= differs

        sorted_result = self._compute(
            spec, arg_fns, batch, eval_ctx, order, segment_start,
            peer_start,
        )
        # Scatter back to original row order.
        values = np.empty_like(sorted_result.values)
        values[order] = sorted_result.values
        valid = None
        if sorted_result.valid is not None:
            valid = np.empty_like(sorted_result.valid)
            valid[order] = sorted_result.valid
        return Column(values, spec.sql_type, valid)

    def _compute(
        self, spec, arg_fns, batch, eval_ctx, order, segment_start,
        peer_start,
    ) -> Column:
        n = len(order)
        name = spec.func_name.lower()
        position = _positions_within_segments(segment_start)

        if name == "row_number":
            return Column((position + 1).astype(np.int64), BIGINT)
        if name == "rank":
            # Rank = position of the peer group's first row + 1.
            first_of_peer = _broadcast_from_starts(peer_start, position)
            return Column((first_of_peer + 1).astype(np.int64), BIGINT)
        if name == "dense_rank":
            dense = _reset_segments(
                np.cumsum(peer_start.astype(np.int64)), segment_start
            )
            return Column(dense.astype(np.int64), BIGINT)
        if name in ("lag", "lead"):
            return self._lag_lead(
                spec, arg_fns, batch, eval_ctx, order, segment_start,
                name == "lead",
            )
        if name in ("count", "sum", "avg", "min", "max"):
            return self._windowed_aggregate(
                spec, arg_fns, batch, eval_ctx, order, segment_start,
                peer_start, name,
            )
        raise ExecutionError(f"unknown window function {name!r}")

    def _lag_lead(
        self, spec, arg_fns, batch, eval_ctx, order, segment_start,
        is_lead,
    ) -> Column:
        n = len(order)
        value_col = arg_fns[0](batch, eval_ctx).take(order)
        offset = 1
        if len(spec.args) >= 2:
            offset = _constant_int(spec.args[1], "lag/lead offset")
        default = None
        if len(spec.args) >= 3:
            default_col = arg_fns[2](batch, eval_ctx)
            default = default_col.value_at(0) if len(default_col) else None
        if offset < 0:
            raise ExecutionError("lag/lead offset must be >= 0")

        segment_ids = np.cumsum(segment_start) - 1
        indices = np.arange(n, dtype=np.int64)
        source = indices + offset if is_lead else indices - offset
        in_range = (source >= 0) & (source < n)
        safe = np.clip(source, 0, n - 1)
        same_segment = in_range & (
            segment_ids[safe] == segment_ids
        )
        gathered = value_col.take(safe)
        validity = gathered.validity() & same_segment
        values = gathered.values.copy()
        if default is not None:
            fill = ~same_segment
            filler = Column.constant(
                default, int(fill.sum()), spec.sql_type
            )
            values[fill] = filler.values
            validity = validity | fill
        return Column(values, spec.sql_type, validity)

    def _windowed_aggregate(
        self, spec, arg_fns, batch, eval_ctx, order, segment_start,
        peer_start, name,
    ) -> Column:
        n = len(order)
        has_order = bool(spec.order_by)
        if arg_fns:
            col = arg_fns[0](batch, eval_ctx).take(order)
            validity = col.validity()
            numeric = col.values.astype(np.float64, copy=False) \
                if name in ("sum", "avg") else col.values
        else:  # count(*)
            col = None
            validity = np.ones(n, dtype=np.bool_)
            numeric = None

        segment_ids = np.cumsum(segment_start) - 1
        n_segments = int(segment_ids[-1]) + 1 if n else 0

        if not has_order:
            # Whole-partition frame: reuse the grouped aggregate kernels.
            from ..expr import aggregates as agg

            kernel = agg.lookup("count_star" if col is None else name)
            grouped = kernel.grouped(col, segment_ids, n_segments)
            return grouped.take(segment_ids)

        # Running frame with peers sharing their group's last value.
        if name == "count":
            running = np.cumsum(validity.astype(np.int64))
            running = _reset_segments(running, segment_start)
            result_values = running.astype(np.int64)
            result_valid = None
        elif name in ("sum", "avg"):
            filled = np.where(validity, numeric, 0.0)
            csum = _reset_segments(np.cumsum(filled), segment_start)
            ccount = _reset_segments(
                np.cumsum(validity.astype(np.int64)), segment_start
            )
            if name == "sum":
                result_values = csum
                result_valid = ccount > 0
            else:
                safe = np.where(ccount == 0, 1, ccount)
                result_values = csum / safe
                result_valid = ccount > 0
            if (
                name == "sum"
                and spec.sql_type.kind is not TypeKind.DOUBLE
            ):
                result_values = result_values.astype(np.int64)
        else:  # min / max running
            result_values, result_valid = _running_extreme(
                col, segment_start, name == "min"
            )

        # Peers share the value at the END of their peer group.
        last_of_peer = _peer_group_last(peer_start)
        result_values = np.asarray(result_values)[last_of_peer]
        if result_valid is not None:
            result_valid = np.asarray(result_valid)[last_of_peer]
        if name == "sum" and spec.sql_type.kind is TypeKind.DOUBLE:
            result_values = result_values.astype(np.float64)
        return Column(
            np.asarray(
                result_values, dtype=spec.sql_type.numpy_dtype()
            ),
            spec.sql_type,
            result_valid,
        )


def _constant_int(expr, what: str) -> int:
    from ..expr.bound import BoundCast, BoundLiteral

    node = expr
    while isinstance(node, BoundCast):
        node = node.operand
    if isinstance(node, BoundLiteral) and isinstance(node.value, int):
        return node.value
    raise ExecutionError(f"{what} must be an integer literal")


def _positions_within_segments(segment_start: np.ndarray) -> np.ndarray:
    """0-based row index within each contiguous segment."""
    n = len(segment_start)
    indices = np.arange(n, dtype=np.int64)
    starts = np.where(segment_start, indices, 0)
    np.maximum.accumulate(starts, out=starts)
    return indices - starts


def _broadcast_from_starts(
    group_start: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Each row takes ``values`` from the first row of its group."""
    picked = np.where(group_start, values, 0)
    # Carry the group's first value forward; works because values at
    # start rows overwrite anything accumulated before.
    out = np.empty_like(values)
    current = 0
    starts = np.flatnonzero(group_start)
    bounds = np.append(starts, len(values))
    for i in range(len(starts)):
        out[bounds[i]:bounds[i + 1]] = picked[starts[i]]
    return out


def _peer_group_last(peer_start: np.ndarray) -> np.ndarray:
    """Index of the last row of each row's peer group."""
    n = len(peer_start)
    starts = np.flatnonzero(peer_start)
    ends = np.append(starts[1:], n) - 1
    out = np.empty(n, dtype=np.int64)
    for start, end in zip(starts, ends):
        out[start:end + 1] = end
    return out


def _reset_segments(
    cumulative: np.ndarray, segment_start: np.ndarray
) -> np.ndarray:
    """Turn a global cumulative array into per-segment cumulatives."""
    starts = np.flatnonzero(segment_start)
    offsets = np.zeros_like(cumulative)
    for i, start in enumerate(starts):
        if start == 0:
            continue
        end = starts[i + 1] if i + 1 < len(starts) else len(cumulative)
        offsets[start:end] = cumulative[start - 1]
    return cumulative - offsets


def _running_extreme(col, segment_start, is_min):
    """Per-segment running min/max skipping NULLs (segment loop with a
    vectorised accumulate inside)."""
    n = len(col)
    validity = col.validity()
    values = col.values
    out = values.copy()
    out_valid = np.zeros(n, dtype=np.bool_)
    starts = np.flatnonzero(segment_start)
    bounds = np.append(starts, n)
    op = np.fmin if is_min else np.fmax
    for i in range(len(starts)):
        lo, hi = bounds[i], bounds[i + 1]
        seg_values = values[lo:hi].astype(np.float64, copy=True)
        seg_valid = validity[lo:hi]
        seg_values[~seg_valid] = np.nan
        running = op.accumulate(seg_values)
        seen = np.maximum.accumulate(seg_valid.astype(np.int8)) > 0
        out_valid[lo:hi] = seen
        filled = np.where(np.isnan(running), 0.0, running)
        out[lo:hi] = filled.astype(out.dtype, copy=False)
    return out, out_valid
