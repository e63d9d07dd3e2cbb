"""Leaf operators: the base-table scan pipeline, working-table
reference, literal values.

:class:`ScanOp` is the only operator that reads a base table. It owns
the whole Filter/Project chain the optimizer left above its
``LogicalScan``, compiled into one **program** — a bottom-up list of
steps — so a morsel runs predicate + projection in a single pass
without crossing operator boundaries. Two optimisations ride on the
program form:

* **Column pruning at filter boundaries**: after a filter's mask is
  evaluated, only the columns later steps (or the final output) still
  reference are gathered — predicate-only columns are dropped *before*
  the fancy-index gather, which is where filter time goes.
* **Zone-map pruning**: morsel ranges provably empty under the leading
  filter predicates are never sliced at all
  (:class:`repro.storage.zonemap.ScanPruner`). The uncorrelated
  subqueries of those predicates run when the scan opens, so a pushed
  ``x IN (SELECT ...)`` costs no pruning.

Filter steps evaluate **sequentially** (no mask merging): conjunct
evaluation order is observable through data-dependent errors
(``a <> 0 AND b / a > 1`` must not divide where ``a = 0``), so the
program never reorders or combines predicate evaluations.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Optional

import numpy as np

from ..expr.bound import BoundSubquery
from ..expr.compiler import EvalContext, subquery_result
from ..expr.effects import effects, statement_constant
from ..plan import logical as lp
from ..plan.logical import LogicalValues, LogicalWorkingTableRef
from ..storage.column import Column, ColumnBatch
from ..storage.zonemap import ScanPruner
from ..types import INTEGER
from .parallel import morsel_ranges
from .physical import ExecutionContext, PhysicalOperator


def _stage_exprs(stage: lp.LogicalPlan) -> list:
    if isinstance(stage, lp.LogicalFilter):
        return [stage.predicate]
    return list(stage.exprs)


def build_pipeline_program(
    stages: list[lp.LogicalPlan],
    ctx: ExecutionContext,
) -> list[tuple]:
    """Compile a top-down Filter/Project stage chain into a bottom-up
    step program.

    Steps are ``("filter", mask_fn, keep_slots)`` — ``keep_slots`` is
    the ordered list of slots later steps still need (None = keep all) —
    or ``("project", out_cols, fns)``.
    """
    bottom_up = list(reversed(stages))
    # Slots needed *after* each step, computed by a backward pass. The
    # final step's consumers need exactly the chain's output slots.
    needed_after: list[Optional[list[str]]] = [None] * len(bottom_up)
    needed = [col.slot for col in stages[0].output] if stages else []
    for i in range(len(bottom_up) - 1, -1, -1):
        stage = bottom_up[i]
        needed_after[i] = list(needed)
        refs = list(needed) if isinstance(stage, lp.LogicalFilter) else []
        for expr in _stage_exprs(stage):
            for slot in sorted(effects(expr).consumed):
                if slot not in refs:
                    refs.append(slot)
        needed = refs
    program: list[tuple] = []
    for i, stage in enumerate(bottom_up):
        if isinstance(stage, lp.LogicalFilter):
            # A batch with zero columns loses its row count (the length
            # is derived from the columns), so a chain whose upper
            # stages reference no slots at all must keep the scan
            # columns as row-count carriers.
            program.append(
                (
                    "filter",
                    ctx.compiler.compile_predicate(stage.predicate),
                    needed_after[i] or None,
                )
            )
        else:
            program.append(
                (
                    "project",
                    list(stage.output),
                    [ctx.compiler.compile(e) for e in stage.exprs],
                )
            )
    return program


def run_program(
    program: list[tuple], batch: ColumnBatch, eval_ctx
) -> ColumnBatch:
    """Apply a pipeline program to one morsel batch."""
    for step in program:
        if step[0] == "filter":
            _tag, mask_fn, keep = step
            # Mask first (it may read predicate-only columns), then drop
            # those columns before the gather. The projection also runs
            # on already-empty batches so every morsel leaves this step
            # with an identical layout.
            mask = mask_fn(batch, eval_ctx) if len(batch) else None
            if keep is not None and len(keep) < len(batch.columns):
                batch = batch.project(keep)
            if mask is not None and not mask.all():
                batch = batch.filter(mask)
        else:
            _tag, out_cols, fns = step
            batch = ColumnBatch(
                {
                    col.slot: fn(batch, eval_ctx)
                    for col, fn in zip(out_cols, fns)
                }
            )
    return batch


def leading_predicates(stages: list[lp.LogicalPlan]) -> list:
    """The predicates of the leading filter stages: the filters applied
    before any projection changes the slot space — the ones zone maps
    can prune for."""
    leading = []
    for stage in reversed(stages):
        if not isinstance(stage, lp.LogicalFilter):
            break
        leading.append(stage.predicate)
    return leading


def opening_subqueries(predicates: list) -> list[BoundSubquery]:
    """The subqueries of ``predicates`` the scan runs when it opens:
    those with one result per execution. Their results are ready before
    zone maps skip a morsel, so skipping cannot skip a subplan error."""
    return [
        subquery
        for expr in predicates
        for subquery in effects(expr).subqueries
        if statement_constant(subquery)
    ]


class ScanOp(PhysicalOperator):
    """Morsel-wise scan of a base table at the statement's snapshot,
    running the Filter/Project ``stages`` above it (top-down, possibly
    empty) on every morsel.

    Column pruning is applied at the scan: only the slots the optimizer
    left in the ``LogicalScan``'s output are sliced into batches.

    Each execution picks its dispatch from what it observes: with a
    parallel pool, thread-safe expressions, more than one surviving
    morsel and at least ``ctx.parallel_threshold`` rows left after
    zone-map pruning, morsels run as ordered tasks on the worker pool;
    otherwise a lazy per-morsel generator keeps memory streaming and
    lets a ``LimitOp`` above stop the scan early. Both produce the same
    batches in the same order (docs/parallelism.md).
    """

    def __init__(
        self,
        plan: lp.LogicalPlan,
        stages: list[lp.LogicalPlan],
        scan: lp.LogicalScan,
        ctx: ExecutionContext,
    ):
        super().__init__(list(plan.output))
        self._scan = scan
        self._ctx = ctx
        self._program = build_pipeline_program(stages, ctx)
        leading = leading_predicates(stages)
        self._opening = opening_subqueries(leading)
        self._pruner = None
        if ctx.hot_path and leading:
            pruner = ScanPruner(
                scan.output, leading,
                frozenset(id(expr) for expr in self._opening),
            )
            self._pruner = pruner if pruner.active else None
        # Subqueries and user UDFs pin the pipeline to the caller thread.
        self._parallel_safe = all(
            effects(expr).parallel_safe
            for stage in stages
            for expr in _stage_exprs(stage)
        )

    def describe(self) -> str:
        return f"Scan({self._scan.table_name})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        for subquery in self._opening:
            subquery_result(subquery, eval_ctx)
        data = ctx.read_table(self._scan.table_name)
        ctx.stats.rows_scanned += data.row_count
        ranges = morsel_ranges(data.row_count, ctx.morsel_rows)
        if self._pruner is not None:
            ranges, pruned = self._pruner.keep_ranges(
                data, ranges, eval_ctx.params
            )
            ctx.stats.morsels_pruned += pruned
        if not ranges:
            yield self.empty_batch()
            return
        columns = {
            col.slot: data.column_by_name(col.name)
            for col in self._scan.output
        }
        program = self._program

        def run_morsel(rng: tuple[int, int]) -> ColumnBatch:
            # May run on a worker thread: the governor's ledger and
            # token are thread-safe, so each morsel is its own
            # checkpoint and cancellation latency stays bounded by one
            # morsel.
            ctx.checkpoint("scan")
            start, stop = rng
            batch = ColumnBatch(
                {
                    slot: col.slice(start, stop)
                    for slot, col in columns.items()
                }
            )
            return run_program(program, batch, eval_ctx)

        pool = ctx.pool
        dispatch = (
            pool is not None
            and pool.is_parallel
            and self._parallel_safe
            and len(ranges) > 1
            and sum(stop - start for start, stop in ranges)
            >= ctx.parallel_threshold
        )
        if not dispatch:
            for rng in ranges:
                yield run_morsel(rng)
            return
        ctx.stats.parallel_pipelines += 1
        ctx.stats.morsels_dispatched += len(ranges)
        ctx.checkpoint("parallel_dispatch")
        span = (
            ctx.tracer.span(
                "parallel_pipeline",
                table=self._scan.table_name,
                workers=pool.workers,
                morsels=len(ranges),
            )
            if ctx.tracer is not None
            else nullcontext()
        )
        with span:
            batches = pool.map_ordered(run_morsel, ranges, label="morsel")
        yield from batches


class WorkingTableOp(PhysicalOperator):
    """Reads the current working relation of an enclosing ITERATE or
    recursive CTE; columns are matched positionally and re-keyed to this
    reference's slots."""

    def __init__(self, node: LogicalWorkingTableRef, ctx: ExecutionContext):
        super().__init__(node.output)
        self._node = node
        self._ctx = ctx

    def describe(self) -> str:
        return f"WorkingTable({self._node.key})"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        from ..errors import ExecutionError

        batch = self._ctx.working_tables.get(self._node.key)
        if batch is None:
            raise ExecutionError(
                f"working table {self._node.key!r} referenced outside its "
                "iteration"
            )
        names = batch.names()
        if len(names) != len(self.output):
            raise ExecutionError("working table arity mismatch")
        yield ColumnBatch(
            {
                col.slot: batch[name]
                for col, name in zip(self.output, names)
            }
        )


class ValuesOp(PhysicalOperator):
    """Materialises literal rows.

    Each cell is a bound expression evaluated against a one-row carrier
    batch, so constant function calls and uncorrelated subqueries are
    allowed in VALUES. A hidden carrier column keeps the row count honest
    when the output has zero columns (the FROM-less SELECT's single row).
    """

    CARRIER = "__rid__"

    def __init__(self, node: LogicalValues, ctx: ExecutionContext):
        super().__init__(node.output)
        self._node = node
        self._ctx = ctx
        self._cell_fns = [
            [ctx.compiler.compile(cell) for cell in row]
            for row in node.rows
        ]

    def describe(self) -> str:
        return f"Values({len(self._node.rows)} rows)"

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        one_row = ColumnBatch(
            {self.CARRIER: Column(np.zeros(1, dtype=np.int32), INTEGER)}
        )
        n = len(self._node.rows)
        per_column: list[list[object]] = [
            [None] * n for _ in self.output
        ]
        for r, row_fns in enumerate(self._cell_fns):
            for c, fn in enumerate(row_fns):
                per_column[c][r] = fn(one_row, eval_ctx).value_at(0)
        columns = {
            col.slot: Column.from_values(values, col.sql_type)
            for col, values in zip(self.output, per_column)
        }
        columns[self.CARRIER] = Column(
            np.arange(n, dtype=np.int32), INTEGER
        )
        yield ColumnBatch(columns)
