"""Join operators: vectorised hash join and nested-loop join.

The hash join materialises both sides, factorizes the key columns into
dense codes (the vectorised equivalent of building and probing a hash
table), and matches code ranges through an offset table over the build
keys (``searchsorted`` when they are sparse) — no per-tuple Python in
the hot path. A multi-key join whose joint codes would need a sort
probes through one dense integer key instead and compares the others
on the candidates (:func:`_lead_key_pairs`). SQL semantics: NULL keys
never match; LEFT joins NULL-extend unmatched left rows.

In a nested-loop join, a side of an inner or cross join that the plan
proves to hold at most one row runs first: empty, it ends the join
(the other side runs only if running it could be observed); otherwise
its row is broadcast onto the other side's batches.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from ..errors import ExecutionError
from ..expr.bound import BoundExpr
from ..expr.compiler import EvalContext
from ..plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSetOp,
    LogicalSort,
    LogicalValues,
    LogicalWorkingTableRef,
    PlanColumn,
    at_most_one_row,
    plan_expressions,
    walk_plan,
)
from ..storage.column import Column, ColumnBatch
from ..storage.zonemap import prune_safe
from ..types import TypeKind
from .common import DENSE_SPAN_FACTOR, factorize, key_ranges, offset_table
from .parallel import _parallel_safe, morsel_ranges
from .physical import ExecutionContext, PhysicalOperator

#: Build (right) sides at or below this row count take the raw
#: integer-key path: binary-searching a few thousand sorted raw keys
#: is far cheaper than jointly factorizing both sides, whose
#: ``np.unique`` sort of the large probe side dominates the join.
SMALL_BUILD_ROWS = 4096

_INT_KEY_KINDS = (TypeKind.INTEGER, TypeKind.BIGINT)


def _raw_small_build_keys(
    left_key_cols: list[Column],
    right_key_cols: list[Column],
    n_right: int,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Raw int64 key arrays for the small-build fast path, or None.

    Applies to single-column integer equi-keys when the build (right)
    side is small. Bit-identical to the factorized path: ``np.unique``
    assigns codes in value order, so sorting and range-matching raw
    values produces exactly the same pairs in exactly the same order —
    while skipping the joint factorization whose sort of the large
    probe side dominates small-build joins. NULL slots are excluded by
    the caller's validity masks, so sentinel backing values at invalid
    positions are never compared.
    """
    if len(left_key_cols) != 1 or n_right > SMALL_BUILD_ROWS:
        return None
    lcol, rcol = left_key_cols[0], right_key_cols[0]
    if (
        lcol.sql_type.kind not in _INT_KEY_KINDS
        or rcol.sql_type.kind not in _INT_KEY_KINDS
    ):
        return None
    lvals = np.asarray(lcol.values)
    rvals = np.asarray(rcol.values)
    if not (
        np.issubdtype(lvals.dtype, np.integer)
        and np.issubdtype(rvals.dtype, np.integer)
    ):
        return None
    return (
        lvals.astype(np.int64, copy=False),
        rvals.astype(np.int64, copy=False),
    )


def _probe_chunk(
    probe_rows: np.ndarray,
    left_codes: np.ndarray,
    sorted_codes: np.ndarray,
    right_rows: np.ndarray,
    table: Optional[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Probe one chunk of left rows against the sorted build side and
    expand the matching ``[lo, hi)`` ranges into explicit pair lists.
    ``table`` is the build side's :func:`~repro.exec.common.offset_table`;
    the pairs and their order do not depend on whether it is set."""
    lo, hi = key_ranges(sorted_codes, left_codes[probe_rows], table)
    return _expand_ranges(probe_rows, lo, hi, right_rows)


def _expand_ranges(
    probe_rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    right_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each probe row with ``right_rows[lo:hi]``, in probe order."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    pair_left = np.repeat(probe_rows, counts)
    starts = np.repeat(lo, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    pair_right = right_rows[starts + within]
    return pair_left, pair_right


def _integer_span(left: Column, right: Column) -> Optional[int]:
    """``max - min + 1`` over the valid values of an integer key pair
    (both sides stacked), or None unless both sides are integers."""
    if (
        left.sql_type.kind not in _INT_KEY_KINDS
        or right.sql_type.kind not in _INT_KEY_KINDS
    ):
        return None
    lows, highs = [], []
    for col in (left, right):
        values = np.asarray(col.values)
        if values.dtype.kind not in "iu":
            return None
        if col.valid is not None:
            values = values[col.valid]
        if len(values):
            lows.append(int(values.min()))
            highs.append(int(values.max()))
    # Python ints: the span of two int64 keys can exceed int64.
    return max(highs) - min(lows) + 1 if lows else 0


def _keys_equal(
    left: Column, pair_left: np.ndarray,
    right: Column, pair_right: np.ndarray,
) -> np.ndarray:
    """Per pair, whether the two (non-NULL) key values are equal as
    :func:`~repro.exec.common.factorize` groups them: ``-0.0`` meets
    ``0.0`` and NaN meets NaN."""
    lvals = np.asarray(left.values)[pair_left]
    rvals = np.asarray(right.values)[pair_right]
    equal = np.asarray(lvals == rvals, dtype=np.bool_)
    if lvals.dtype.kind == "f" and rvals.dtype.kind == "f":
        equal |= np.isnan(lvals) & np.isnan(rvals)
    return equal


def _lead_key_pairs(
    left_key_cols: list[Column],
    right_key_cols: list[Column],
    probe_rows: np.ndarray,
    build_rows: np.ndarray,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The pairs of a multi-key join found through one dense integer
    key, or None where the joint factorization should run instead.

    Factorizing the stacked keys sorts whenever one of them is a DOUBLE,
    a VARCHAR or a sparse integer, or when the composite span outgrows
    the density rule. Here the first integer key that passes the rule
    leads: the build rows are stably sorted by it alone, each probe row
    takes the build rows of its lead value (:func:`key_ranges`, through
    an :func:`offset_table`), and only the candidates on which every
    other key is equal (:func:`_keys_equal`) survive. The stable build
    order keeps the pairs and their order exactly those of the
    factorized join. ``probe_rows`` and ``build_rows`` hold no NULL key;
    the route gives way when the candidates, counted before any is
    expanded, outnumber the rows of both sides."""
    bound = len(left_key_cols[0]) + len(right_key_cols[0])
    spans = [
        _integer_span(lc, rc)
        for lc, rc in zip(left_key_cols, right_key_cols)
    ]
    dense = [
        span is not None and span <= DENSE_SPAN_FACTOR * bound
        for span in spans
    ]
    if True not in dense or (
        all(dense) and math.prod(spans) <= DENSE_SPAN_FACTOR * bound
    ):
        return None
    lead = dense.index(True)
    probe = np.asarray(left_key_cols[lead].values)[probe_rows]
    build = np.asarray(right_key_cols[lead].values)[build_rows]
    probe = probe.astype(np.int64, copy=False)
    build = build.astype(np.int64, copy=False)
    order = np.argsort(build, kind="stable")
    right_rows = build_rows[order]
    sorted_keys = build[order]
    lo, hi = key_ranges(
        sorted_keys, probe, offset_table(sorted_keys, len(probe_rows))
    )
    if int((hi - lo).sum()) > bound:
        return None
    pair_left, pair_right = _expand_ranges(probe_rows, lo, hi, right_rows)
    keep = np.ones(len(pair_left), dtype=np.bool_)
    for i, (lc, rc) in enumerate(zip(left_key_cols, right_key_cols)):
        if i != lead:
            keep &= _keys_equal(lc, pair_left, rc, pair_right)
    return pair_left[keep], pair_right[keep]


def _null_extended(
    batch: ColumnBatch,
    indices: np.ndarray,
    valid_rows: np.ndarray,
    columns: list[PlanColumn],
) -> dict[str, Column]:
    """Gather ``indices`` from ``batch``; rows where ``valid_rows`` is
    False become all-NULL (LEFT join padding)."""
    out: dict[str, Column] = {}
    # Inner and cross joins pad nothing: no per-column masks to build.
    padded = not valid_rows.all()
    safe = np.where(valid_rows, indices, 0) if padded else indices
    for col in columns:
        source = batch[col.slot]
        if len(source) == 0:
            out[col.slot] = Column.all_null(len(indices), col.sql_type)
            continue
        gathered = source.take(safe)
        validity = (
            gathered.validity() & valid_rows if padded else gathered.valid
        )
        out[col.slot] = Column(gathered.values, col.sql_type, validity)
    return out


def _one_row_side(node: LogicalJoin) -> tuple[Optional[str], bool]:
    """``(side, skip)``: which input of an inner or cross join provably
    holds at most one row (:func:`at_most_one_row`; the right one when
    both do), or None; and whether, when that side comes back empty,
    the other may go unrun — running it could neither raise nor call
    user code (:func:`_unobservable`)."""
    if node.kind not in ("inner", "cross"):
        return None, False
    for side, other in (("right", node.left), ("left", node.right)):
        if at_most_one_row(getattr(node, side)):
            return side, _unobservable(other)
    return None, False


#: Plan nodes that raise nothing of their own; what running them can
#: raise comes from their expressions.
_QUIET_NODES = (
    LogicalScan, LogicalWorkingTableRef, LogicalValues, LogicalFilter,
    LogicalProject, LogicalJoin, LogicalAggregate, LogicalSort,
    LogicalLimit, LogicalDistinct, LogicalSetOp,
)


def _unobservable(plan: LogicalPlan) -> bool:
    """Whether leaving ``plan`` unrun cannot be told from its result:
    it holds only :data:`_QUIET_NODES` and every expression in it is
    free of data-dependent errors and user code
    (:func:`~repro.storage.zonemap.prune_safe` — no CAST, division,
    function, UDF or subquery), the rule zone-map pruning follows."""
    return all(
        isinstance(node, _QUIET_NODES)
        and all(prune_safe(expr) for expr in plan_expressions(node))
        for node in walk_plan(plan)
    )


class HashJoinOp(PhysicalOperator):
    """Equi-join via key factorization; supports inner and left joins
    plus a residual predicate on matched pairs."""

    def __init__(
        self,
        node: LogicalJoin,
        left: PhysicalOperator,
        right: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        if node.kind not in ("inner", "left"):
            raise ExecutionError(f"hash join cannot run kind {node.kind!r}")
        self._node = node
        self._left = left
        self._right = right
        self._ctx = ctx
        self._left_keys = [
            ctx.compiler.compile(lk) for lk, _rk in node.equi_keys
        ]
        self._right_keys = [
            ctx.compiler.compile(rk) for _lk, rk in node.equi_keys
        ]
        self._residual = (
            ctx.compiler.compile_predicate(node.residual)
            if node.residual is not None
            else None
        )
        # Key evaluation may run on worker threads only when no key
        # expression carries a subquery or UDF (shared plan cache /
        # arbitrary Python are not thread-safe).
        self._keys_parallel_safe = all(
            _parallel_safe(k)
            for pair in node.equi_keys
            for k in pair
        )

    def describe(self) -> str:
        return (
            f"HashJoin({self._node.kind}, "
            f"keys={len(self._node.equi_keys)})"
        )

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        governor = self._ctx.governor
        reserved = 0
        try:
            left_batch = self._left.execute_materialized(eval_ctx)
            reserved += governor.reserve(left_batch.nbytes, "hash_join_build")
            right_batch = self._right.execute_materialized(eval_ctx)
            reserved += governor.reserve(
                right_batch.nbytes, "hash_join_probe"
            )
            yield from self._join(eval_ctx, left_batch, right_batch)
        finally:
            governor.release(reserved)

    def _join(
        self,
        eval_ctx: EvalContext,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
    ) -> Iterator[ColumnBatch]:
        n_left = len(left_batch)
        n_right = len(right_batch)
        is_left_join = self._node.kind == "left"
        self._ctx.checkpoint("hash_join")

        if n_left == 0:
            yield self.empty_batch()
            return
        if n_right == 0:
            if is_left_join:
                yield self._pad_unmatched(left_batch, right_batch)
            else:
                yield self.empty_batch()
            return

        # Evaluate key expressions on both sides. The two sides are
        # independent, so a parallel pool evaluates them as two build
        # tasks.
        pool = self._ctx.pool
        parallel = (
            pool is not None
            and pool.is_parallel
            and self._keys_parallel_safe
        )
        if parallel and self._left_keys:
            left_key_cols, right_key_cols = pool.map_ordered(
                lambda side: [fn(side[1], eval_ctx) for fn in side[0]],
                [
                    (self._left_keys, left_batch),
                    (self._right_keys, right_batch),
                ],
            )
        else:
            left_key_cols = [
                fn(left_batch, eval_ctx) for fn in self._left_keys
            ]
            right_key_cols = [
                fn(right_batch, eval_ctx) for fn in self._right_keys
            ]
        # NULL keys never match.
        left_null = np.zeros(n_left, dtype=np.bool_)
        for col in left_key_cols:
            left_null |= ~col.validity()
        right_null = np.zeros(n_right, dtype=np.bool_)
        for col in right_key_cols:
            right_null |= ~col.validity()
        probe_rows = np.flatnonzero(~left_null)
        usable_right = ~right_null

        pairs = None
        if len(left_key_cols) > 1:
            pairs = _lead_key_pairs(
                left_key_cols, right_key_cols, probe_rows,
                np.flatnonzero(usable_right),
            )
        if pairs is None:
            pairs = self._factorized_pairs(
                left_key_cols, right_key_cols, probe_rows, usable_right,
                parallel,
            )
        pair_left, pair_right = pairs

        if self._residual is not None and len(pair_left) > 0:
            pair_batch = self._pair_batch(
                left_batch, right_batch, pair_left, pair_right
            )
            keep = self._residual(pair_batch, eval_ctx)
            pair_left = pair_left[keep]
            pair_right = pair_right[keep]

        if is_left_join:
            matched = np.zeros(n_left, dtype=np.bool_)
            matched[pair_left] = True
            unmatched = np.flatnonzero(~matched)
            if len(unmatched):
                pair_left = np.concatenate([pair_left, unmatched])
                pad = np.full(len(unmatched), -1, dtype=np.int64)
                pair_right = np.concatenate([pair_right, pad])

        if len(pair_left) == 0:
            yield self.empty_batch()
            return
        valid_right = pair_right >= 0
        columns = {}
        taken_left = left_batch.take(pair_left)
        for col in self._node.left.output:
            columns[col.slot] = taken_left[col.slot]
        columns.update(
            _null_extended(
                right_batch, pair_right, valid_right,
                self._node.right.output,
            )
        )
        yield ColumnBatch(columns)

    def _factorized_pairs(
        self,
        left_key_cols: list[Column],
        right_key_cols: list[Column],
        probe_rows: np.ndarray,
        usable_right: np.ndarray,
        parallel: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Match the probe rows against the usable build rows through
        codes shared by both sides: raw small-build integers, or the
        joint factorization of every key."""
        n_left = len(left_key_cols[0])
        raw_keys = _raw_small_build_keys(
            left_key_cols, right_key_cols, len(usable_right)
        )
        if raw_keys is not None:
            left_codes, right_codes = raw_keys
        else:
            stacked = [
                Column.concat([lc, rc])
                for lc, rc in zip(left_key_cols, right_key_cols)
            ]
            codes, _count = factorize(stacked, self._ctx.stats)
            left_codes = codes[:n_left].copy()
            right_codes = codes[n_left:].copy()

        order = np.argsort(right_codes[usable_right], kind="stable")
        right_rows = np.flatnonzero(usable_right)[order]
        sorted_codes = right_codes[right_rows]
        table = offset_table(sorted_codes, len(probe_rows))
        if parallel and 0 < len(probe_rows) \
                and len(probe_rows) >= self._ctx.parallel_threshold:
            # Probe in parallel over fixed probe-row chunks. Each
            # chunk's pair lists are integer gathers — exact slices of
            # what the whole-array probe computes — so concatenating in
            # chunk order reproduces the serial output bit for bit.
            ranges = morsel_ranges(
                len(probe_rows), self._ctx.morsel_rows
            )
            chunks = self._ctx.pool.map_ordered(
                lambda rng: _probe_chunk(
                    probe_rows[rng[0]:rng[1]],
                    left_codes, sorted_codes, right_rows, table,
                ),
                ranges,
            )
            return (
                np.concatenate([c[0] for c in chunks]),
                np.concatenate([c[1] for c in chunks]),
            )
        return _probe_chunk(
            probe_rows, left_codes, sorted_codes, right_rows, table
        )

    def _pair_batch(
        self,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
        pair_left: np.ndarray,
        pair_right: np.ndarray,
    ) -> ColumnBatch:
        columns = {}
        taken_left = left_batch.take(pair_left)
        taken_right = right_batch.take(pair_right)
        for col in self._node.left.output:
            columns[col.slot] = taken_left[col.slot]
        for col in self._node.right.output:
            columns[col.slot] = taken_right[col.slot]
        return ColumnBatch(columns)

    def _pad_unmatched(
        self, left_batch: ColumnBatch, right_batch: ColumnBatch
    ) -> ColumnBatch:
        columns = dict(left_batch.columns)
        for col in self._node.right.output:
            columns[col.slot] = Column.all_null(
                len(left_batch), col.sql_type
            )
        return ColumnBatch(columns)


class NestedLoopJoinOp(PhysicalOperator):
    """Fallback join: cross product (in chunks) with an optional
    predicate. Handles cross joins and non-equi inner/left joins."""

    #: Target number of PAIRS per chunk; the per-chunk left-row count
    #: adapts to the right side's size so small right inputs (e.g. a
    #: centers relation) don't degrade into thousands of tiny batches.
    TARGET_PAIRS = 262_144
    MIN_CHUNK = 1_024

    def __init__(
        self,
        node: LogicalJoin,
        left: PhysicalOperator,
        right: PhysicalOperator,
        ctx: ExecutionContext,
    ):
        super().__init__(node.output)
        self._node = node
        self._left = left
        self._right = right
        self._ctx = ctx
        predicate: Optional[BoundExpr] = node.residual
        self._predicate = (
            ctx.compiler.compile_predicate(predicate)
            if predicate is not None
            else None
        )
        self._one_row, self._skip_other = _one_row_side(node)

    def describe(self) -> str:
        if self._one_row is not None:
            return f"NestedLoopJoin({self._node.kind}, broadcast)"
        return f"NestedLoopJoin({self._node.kind})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        if self._one_row is not None:
            yield from self._broadcast(eval_ctx)
            return
        left_batch = self._left.execute_materialized(eval_ctx)
        right_batch = self._right.execute_materialized(eval_ctx)
        n_left = len(left_batch)
        n_right = len(right_batch)
        is_left_join = self._node.kind == "left"

        if n_left == 0 or (n_right == 0 and not is_left_join):
            yield self.empty_batch()
            return

        chunk_rows = max(
            self.MIN_CHUNK, self.TARGET_PAIRS // max(n_right, 1)
        )
        produced_any = False
        for start in range(0, n_left, chunk_rows):
            self._ctx.checkpoint("nested_loop_chunk")
            stop = min(start + chunk_rows, n_left)
            chunk = stop - start
            if n_right == 0:
                pair_left = np.zeros(0, dtype=np.int64)
                pair_right = np.zeros(0, dtype=np.int64)
            else:
                pair_left = np.repeat(
                    np.arange(start, stop, dtype=np.int64), n_right
                )
                pair_right = np.tile(
                    np.arange(n_right, dtype=np.int64), chunk
                )
            if self._predicate is not None and len(pair_left):
                pair_batch = self._assemble(
                    left_batch, right_batch, pair_left, pair_right,
                    np.ones(len(pair_right), dtype=np.bool_),
                )
                keep = self._predicate(pair_batch, eval_ctx)
                pair_left = pair_left[keep]
                pair_right = pair_right[keep]
            if is_left_join:
                matched = np.zeros(chunk, dtype=np.bool_)
                matched[pair_left - start] = True
                unmatched = np.flatnonzero(~matched) + start
                if len(unmatched):
                    pair_left = np.concatenate([pair_left, unmatched])
                    pad = np.full(len(unmatched), -1, dtype=np.int64)
                    pair_right = np.concatenate([pair_right, pad])
            if len(pair_left) == 0:
                continue
            produced_any = True
            yield self._assemble(
                left_batch, right_batch, pair_left, pair_right,
                pair_right >= 0,
            )
        if not produced_any:
            yield self.empty_batch()

    def _broadcast(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        """Join against a provably one-row side: run it first; empty, it
        ends the join (running the other side only for the errors or
        user-code calls it may make); otherwise its values ride along
        as constant columns on each batch of the other side — no pair
        lists, no gather of the wide side. Rows keep the other side's
        order, as the pairs would."""
        if self._one_row == "right":
            one_child, other_child = self._right, self._left
        else:
            one_child, other_child = self._left, self._right
        one = one_child.execute_materialized(eval_ctx)
        if len(one) == 0:
            if not self._skip_other:
                for _batch in other_child.execute(eval_ctx):
                    pass
            yield self.empty_batch()
            return
        one_slots = {c.slot for c in one_child.output}
        produced_any = False
        for batch in other_child.execute(eval_ctx):
            self._ctx.checkpoint("nested_loop_chunk")
            n = len(batch)
            if n == 0:
                continue
            first = np.zeros(n, dtype=np.int64)
            out = ColumnBatch(
                {
                    col.slot: (
                        one[col.slot].take(first)
                        if col.slot in one_slots
                        else batch[col.slot]
                    )
                    for col in self.output
                }
            )
            if self._predicate is not None:
                keep = self._predicate(out, eval_ctx)
                if not keep.any():
                    continue
                out = out.filter(keep)
            produced_any = True
            yield out
        if not produced_any:
            yield self.empty_batch()

    def _assemble(
        self,
        left_batch: ColumnBatch,
        right_batch: ColumnBatch,
        pair_left: np.ndarray,
        pair_right: np.ndarray,
        valid_right: np.ndarray,
    ) -> ColumnBatch:
        columns = {}
        taken_left = left_batch.take(pair_left)
        for col in self._node.left.output:
            columns[col.slot] = taken_left[col.slot]
        columns.update(
            _null_extended(
                right_batch, pair_right, valid_right,
                self._node.right.output,
            )
        )
        return ColumnBatch(columns)
