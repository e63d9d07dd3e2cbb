"""Physical operator protocol and the execution context."""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

from ..errors import ExecutionError
from ..expr.compiler import EvalContext, ExpressionCompiler
from ..governor import QueryContext
from ..plan.logical import LogicalPlan, PlanColumn
from ..storage.column import Column, ColumnBatch
from ..storage.table import DEFAULT_MORSEL_ROWS, TableData
from .common import GROUP_KEY_PATHS

#: Minimum rows a base-table scan must have left after zone-map pruning
#: before it dispatches morsels to the worker pool. Below this, dispatch
#: overhead exceeds the work; morsels stream on the caller thread.
DEFAULT_PARALLEL_THRESHOLD = 8_192


class ExecutionStats:
    """Counters collected during one statement's execution.

    ``peak_live_tuples`` records the largest number of tuples held live by
    iterative operators — the quantity the paper's section 5.1 memory
    argument is about (recursive CTEs grow to n*i, ITERATE stays at 2n).
    """

    def __init__(self) -> None:
        self.peak_live_tuples = 0
        self.iterations = 0
        self.rows_scanned = 0
        self.batches_produced = 0
        self.parallel_pipelines = 0
        self.morsels_dispatched = 0
        #: Morsels skipped via zone maps; ``rows_scanned`` still counts
        #: the full table so scan cardinality semantics stay unchanged.
        self.morsels_pruned = 0
        #: Key columns factorized, by the route that numbered their
        #: groups (``exec/common.py::factorize_column``).
        self.group_keys = dict.fromkeys(GROUP_KEY_PATHS, 0)
        #: Subplan executions for subqueries inside expressions: one
        #: per statement for an uncorrelated subquery, one per distinct
        #: outer value in a batch for a correlated one.
        self.subquery_runs = 0

    def observe_live_tuples(self, count: int) -> None:
        if count > self.peak_live_tuples:
            self.peak_live_tuples = count


class OperatorStats:
    """Per-operator counters of one profiled execution (EXPLAIN ANALYZE).

    One node per physical operator; ``children`` mirrors the operator
    tree. ``elapsed_s`` is *inclusive* wall time (the operator plus
    everything below it); ``self_s`` subtracts the children. Operators
    that run repeatedly inside an iteration (ITERATE / recursive-CTE
    step and stop plans) accumulate over all rounds, with ``calls``
    recording how many times they were opened; ``rows_per_call`` is
    the cardinality of one opening.
    """

    def __init__(self, label: str, children: list["OperatorStats"]):
        self.label = label
        self.children = children
        self.calls = 0
        self.batches_out = 0
        self.rows_out = 0
        self.elapsed_s = 0.0
        #: The cardinality estimate stamped on this operator's logical
        #: node when it was planned (None when no optimizer planned
        #: it, as for a subquery inside UPDATE / DELETE). Paired
        #: with the observed ``rows_per_call`` this is the estimation-error
        #: signal the history store persists per plan fingerprint.
        self.estimated_rows: Optional[float] = None
        #: Provenance of ``estimated_rows``: ``static`` (heuristic
        #: constants) or ``stats`` (table statistics contributed).
        self.estimate_source: Optional[str] = None

    @property
    def rows_in(self) -> int:
        return sum(child.rows_out for child in self.children)

    @property
    def batches_in(self) -> int:
        return sum(child.batches_out for child in self.children)

    @property
    def rows_per_call(self) -> float:
        """Rows produced per opening — the operator's observed
        cardinality. ``rows_out`` of an operator inside a loop body is
        the sum over all rounds; estimates and q-errors are about one
        execution of the node."""
        if self.calls > 1:
            return self.rows_out / self.calls
        return self.rows_out

    @property
    def self_s(self) -> float:
        return max(
            0.0,
            self.elapsed_s - sum(c.elapsed_s for c in self.children),
        )

    def walk(self) -> Iterator["OperatorStats"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, prefix: str) -> Optional["OperatorStats"]:
        """The first node (pre-order) whose label starts with ``prefix``."""
        for node in self.walk():
            if node.label.startswith(prefix):
                return node
        return None

    @property
    def q_error(self) -> Optional[float]:
        """The q-error of the cardinality estimate: ``max(est/obs,
        obs/est)`` with both sides floored at one row (the standard
        symmetric metric — 1.0 is a perfect estimate). None when no
        estimate was recorded."""
        if self.estimated_rows is None:
            return None
        est = max(float(self.estimated_rows), 1.0)
        obs = max(float(self.rows_per_call), 1.0)
        return max(est / obs, obs / est)

    @property
    def operator_class(self) -> str:
        """The label without its argument decoration — ``Scan(t)`` and
        ``Scan(u)`` both report as class ``Scan`` (metrics grouping)."""
        return self.label.split("(", 1)[0]

    def top(self, n: int = 5) -> list["OperatorStats"]:
        """The ``n`` most expensive operators of this subtree by
        ``self_s`` (exclusive time), most expensive first."""
        return sorted(
            self.walk(), key=lambda node: node.self_s, reverse=True
        )[: max(n, 0)]

    def format(self, indent: int = 0) -> str:
        pad = "  " * indent
        estimate = ""
        if self.estimated_rows is not None:
            source = (
                f" src={self.estimate_source}"
                if self.estimate_source
                else ""
            )
            estimate = (
                f" est={self.estimated_rows:.0f} q={self.q_error:.2f}"
                f"{source}"
            )
        line = (
            f"{pad}{self.label}  "
            f"(rows_in={self.rows_in} rows_out={self.rows_out}"
            f"{estimate} "
            f"batches={self.batches_out} calls={self.calls} "
            f"time={self.elapsed_s * 1e3:.3f}ms "
            f"self={self.self_s * 1e3:.3f}ms)"
        )
        parts = [line]
        parts.extend(c.format(indent + 1) for c in self.children)
        return "\n".join(parts)

    def __repr__(self) -> str:
        return (
            f"OperatorStats({self.label!r}, rows_out={self.rows_out}, "
            f"time={self.elapsed_s:.6f}s)"
        )


class ExecutionContext:
    """Everything physical operators need at run time.

    ``read_table`` resolves a base-table name to the snapshot's
    :class:`TableData`; the transaction layer provides it so a whole
    statement sees one consistent snapshot.

    With ``profile`` enabled, :func:`repro.exec.planner.build_physical`
    wraps every operator it instantiates in a :class:`ProfiledOperator`;
    the resulting :class:`OperatorStats` trees accumulate in
    ``profile_roots`` (the main plan first, lazily-built subquery plans
    after it).
    """

    def __init__(
        self,
        read_table: Callable[[str], TableData],
        analytics=None,
        udfs=None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        max_iterations: int = 10_000,
        tracer=None,
        metrics=None,
        pool=None,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        governor: Optional[QueryContext] = None,
    ):
        self.read_table = read_table
        self.analytics = analytics
        self.udfs = udfs
        self.morsel_rows = morsel_rows
        self.max_iterations = max_iterations
        self.compiler = ExpressionCompiler(metrics=metrics)
        self.working_tables: dict[str, ColumnBatch] = {}
        self.stats = ExecutionStats()
        self.profile = False
        self.profile_roots: list[OperatorStats] = []
        self._profile_stack: list[list[OperatorStats]] = []
        self._physical_cache: dict[int, "PhysicalOperator"] = {}
        #: The :class:`repro.exec.hoist.LoopScope` of every ITERATE /
        #: recursive CTE whose step or stop plan the planner is inside
        #: of right now, outermost first.
        self._loops: tuple = ()
        #: Optional :class:`repro.obs.trace.Tracer` — iterative operators
        #: open one ``iteration`` span per round when it is set.
        self.tracer = tracer
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` for
        #: operators that want to record directly (most metrics are
        #: flushed from ``stats`` by the session after the statement).
        self.metrics = metrics
        #: Operator-reported telemetry for the statement (convergence
        #: series of analytics operators); surfaced on
        #: :attr:`repro.api.result.QueryResult.telemetry`.
        self.telemetry: dict[str, object] = {}
        #: Optional :class:`repro.exec.parallel.WorkerPool` shared by
        #: the session; operators dispatch morsels through it. ``None``
        #: (or a serial pool) keeps every operator on the caller thread.
        self.pool = pool
        #: Minimum scanned cardinality for a scan to dispatch its
        #: morsels to the pool rather than stream them serially.
        self.parallel_threshold = parallel_threshold
        #: Statement parameter values for cached parameterized plans,
        #: keyed ``?0``, ``?1``, ... — merged into every EvalContext so
        #: BoundParam slots resolve anywhere in the plan (including
        #: inside subplans).
        self.query_params: dict[str, object] = {}
        #: Whether the hot-path stack (zone-map pruning, kernel cache,
        #: CSR cache) applies. The pipeline sets it, and the kernel-cache
        #: switch of ``compiler``, from the engine's ``plan_cache``
        #: setting; standalone contexts run with the stack on.
        self.hot_path = True
        #: The statement's resource governor (deadline / cancel token /
        #: memory budget). Standalone contexts get an unbounded one so
        #: operator code can call :meth:`checkpoint` unconditionally.
        self.governor = governor if governor is not None else QueryContext()
        #: Whether the planner may fuse adjacent Sort+Limit nodes into a
        #: :class:`repro.exec.sort.TopNSortOp`. The pipeline sets it from
        #: the engine's ``topn`` setting; standalone contexts fuse.
        self.topn = True

    def checkpoint(self, where: str = "") -> None:
        """Cooperative governor checkpoint — called by operators at
        morsel / iteration-round boundaries. Raises the typed governor
        errors on cancellation, deadline, or injected fault."""
        self.governor.check(where)

    def new_eval_context(
        self, params: Optional[dict[str, object]] = None
    ) -> EvalContext:
        """An EvalContext wired to execute subquery plans in this
        context (shared uncorrelated-subquery cache)."""
        if self.query_params:
            merged = dict(self.query_params)
            if params:
                merged.update(params)
            params = merged
        ctx = EvalContext(execute_plan=self.run_subplan, params=params)
        return ctx

    def run_subplan(
        self, plan: LogicalPlan, params: dict[str, object]
    ) -> ColumnBatch:
        """Execute a (sub)plan to a single materialised batch. Used by
        scalar/IN/EXISTS subqueries inside expressions."""
        from .planner import build_physical

        op = self._physical_cache.get(id(plan))
        if op is None:
            op = build_physical(plan, self)
            self._physical_cache[id(plan)] = op
        self.stats.subquery_runs += 1
        eval_ctx = self.new_eval_context(params)
        eval_ctx.subquery_cache = {}  # params change => don't share cache
        batches = list(op.execute(eval_ctx))
        return materialize(batches, plan.output)

    def release_subplans(self) -> None:
        """Forget the operators :meth:`run_subplan` built. They hold
        this context, so keeping them past the statement forms a cycle."""
        self._physical_cache.clear()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        """A statement that runs in a ``with`` block drops its subquery
        operators when the block ends, however it ends."""
        self.release_subplans()


class PhysicalOperator:
    """Base class: a generator of column batches.

    ``output`` mirrors the logical node's output columns; batches produced
    are keyed by those slots.
    """

    def __init__(self, output: list[PlanColumn]):
        self.output = output

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def execute_materialized(self, eval_ctx: EvalContext) -> ColumnBatch:
        """Pull everything into one batch (pipeline-breaker helper)."""
        return materialize(list(self.execute(eval_ctx)), self.output)

    def empty_batch(self) -> ColumnBatch:
        return ColumnBatch.empty(
            {c.slot: c.sql_type for c in self.output}
        )

    def describe(self) -> str:
        """Short label for EXPLAIN ANALYZE output (operators override
        this to add table names, join kinds, key counts, ...)."""
        return type(self).__name__


class ProfiledOperator(PhysicalOperator):
    """Transparent wrapper that meters another operator's execution.

    Counts batches/rows produced and accumulates inclusive wall time
    (time spent inside ``next()`` on the wrapped generator — which
    includes the children, themselves wrapped, so a parent's elapsed
    time always bounds each child's).
    """

    def __init__(self, inner: PhysicalOperator, stats: OperatorStats):
        super().__init__(inner.output)
        self.inner = inner
        self.stats = stats

    def describe(self) -> str:
        return self.inner.describe()

    def execute(self, eval_ctx: EvalContext) -> Iterator[ColumnBatch]:
        stats = self.stats
        stats.calls += 1
        source = self.inner.execute(eval_ctx)
        while True:
            started = time.perf_counter()
            try:
                batch = next(source)
            except StopIteration:
                stats.elapsed_s += time.perf_counter() - started
                return
            stats.elapsed_s += time.perf_counter() - started
            stats.batches_out += 1
            stats.rows_out += len(batch)
            yield batch


def materialize(
    batches: list[ColumnBatch], output: list[PlanColumn]
) -> ColumnBatch:
    """Concatenate operator output into one batch with the plan layout."""
    non_empty = [b for b in batches if len(b) > 0]
    if not non_empty:
        return ColumnBatch.empty({c.slot: c.sql_type for c in output})
    if len(non_empty) == 1:
        batch = non_empty[0]
    else:
        batch = ColumnBatch(
            {
                c.slot: Column.concat([b[c.slot] for b in non_empty])
                for c in output
            }
        )
    missing = [c.slot for c in output if c.slot not in batch]
    if missing:
        raise ExecutionError(f"operator output missing slots {missing}")
    return batch.project([c.slot for c in output])
