"""Morsel-driven parallel execution (HyPer-style, paper section 3).

The engine's parallel substrate is a shared :class:`WorkerPool` of
threads (numpy kernels release the GIL, so memory-bound scans,
aggregations, and the analytics operators genuinely overlap) plus a
morsel dispatcher: base-table scans are split into fixed-size morsels
and :class:`~repro.exec.scan.ScanOp` runs its whole Filter/Project
program one morsel per task.

Determinism contract — parallel execution is **schedule-independent**:

* morsel boundaries depend only on the table size and ``morsel_rows``,
  never on the worker count;
* every dispatch is *ordered* (:meth:`WorkerPool.map_ordered` returns
  results in submission order), and all merges fold partial states in
  morsel-index order, so floating-point reductions happen in one fixed
  order regardless of how many workers ran them;
* consequently ``workers=1`` and ``workers=N`` produce bit-identical
  results (the serial-equivalence battery in
  ``tests/test_parallel_equivalence.py`` enforces this).

A scan only dispatches to the pool when at least
:data:`~repro.exec.physical.DEFAULT_PARALLEL_THRESHOLD` rows survive
zone-map pruning; small inputs stream morsels on the caller thread.
"""

from __future__ import annotations

import atexit
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from ..expr.aggregates import _segmented_reduce, group_counts, group_sums
from ..storage.column import Column
from ..types import BIGINT, BOOLEAN, DOUBLE, TypeKind

T = TypeVar("T")
R = TypeVar("R")

#: Rows per partial-aggregation chunk. Fixed (worker-independent) so the
#: merge order — and therefore every floating-point sum — is identical
#: for any worker count.
PARTIAL_CHUNK_ROWS = 65_536


def morsel_ranges(
    n_rows: int, morsel_rows: int
) -> list[tuple[int, int]]:
    """Split ``[0, n_rows)`` into ``[start, stop)`` morsels.

    Boundaries depend only on the inputs (never the worker count); the
    final morsel absorbs the non-divisible remainder. Empty input
    yields no ranges."""
    morsel_rows = max(int(morsel_rows), 1)
    return [
        (start, min(start + morsel_rows, n_rows))
        for start in range(0, n_rows, morsel_rows)
    ]


class WorkerPool:
    """A shared thread pool dispatching morsels to workers.

    Threads are created lazily on the first parallel dispatch, so a
    serial session (``workers=1``) never spawns any — every task runs
    inline on the caller. Each worker thread gets a stable id used to
    label the per-worker morsel counters
    (``parallel_morsels_total{worker="<id>"}``); the inline path counts
    as worker ``"0"``.
    """

    def __init__(
        self,
        workers: int = 1,
        metrics=None,
        chaos=None,
        tracer=None,
    ):
        self.workers = workers
        self.metrics = metrics
        #: Optional :class:`repro.testing.chaos.ChaosInjector` consulted
        #: before every task (worker-crash injection).
        self.chaos = chaos
        #: Optional :class:`repro.obs.trace.Tracer`. When set, every
        #: parallel dispatch captures the coordinator's current span and
        #: attaches one child span per task from the worker that ran it,
        #: so worker activity stitches under the owning statement.
        self.tracer = tracer
        #: Optional callback invoked with the exception whenever a task
        #: dies with a ``retry_serial`` error and is retried inline —
        #: the survived crash would otherwise be invisible to the
        #: session (the statement succeeds). The flight recorder hooks
        #: this to dump a diagnostic bundle.
        self.on_worker_crash: Optional[Callable[[Exception], None]] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._atexit_registered = False

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    @property
    def worker_id(self) -> int:
        """The calling thread's worker id (0 on non-pool threads)."""
        return getattr(self._local, "worker_id", 0)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-worker",
                    initializer=self._init_worker,
                )
                if not self._atexit_registered:
                    # Joining live workers at interpreter exit would
                    # otherwise hang teardown if a session forgot to
                    # close(); shutdown is idempotent, so a normal
                    # close() beforehand makes this a no-op.
                    atexit.register(self.shutdown)
                    self._atexit_registered = True
            return self._executor

    def _init_worker(self) -> None:
        self._local.worker_id = next(self._ids)

    def _run_one(self, fn: Callable[[T], R], item: T) -> R:
        if self.chaos is not None:
            self.chaos.on_worker_task(self.worker_id)
        result = fn(item)
        if self.metrics is not None:
            self.metrics.counter(
                "parallel_morsels_total", worker=str(self.worker_id)
            ).inc()
        return result

    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        label: str = "task",
    ) -> list[R]:
        """``[fn(item) for item in items]`` with results in submission
        order — the ordered dispatch every deterministic merge relies
        on. Runs inline when the pool is serial or there is at most one
        item.

        Trace propagation: with a tracer attached, the coordinator's
        innermost open span is captured *before* dispatch and each task
        runs inside an attached child span named ``label`` (with its
        submission ``index``), opened on whichever worker thread ran it.
        Worker spans therefore appear exactly once under the owning
        statement's tree regardless of scheduling; the inline/serial
        path nests naturally and adds no extra spans.

        Fault tolerance: a task that dies with a *worker-infrastructure*
        error (``retry_serial`` on the exception, e.g.
        :class:`repro.errors.WorkerCrashError`) is retried once, inline
        on the coordinator thread, before the query fails — so a crashed
        worker never takes the statement down with it. The crashed
        attempt keeps its (errored) span and ``on_worker_crash`` fires,
        because the statement will otherwise succeed and hide the crash.
        Query errors (including governor errors) propagate unchanged.
        """
        items = list(items)
        if not self.is_parallel or len(items) <= 1:
            return [self._run_one(fn, item) for item in items]
        executor = self._ensure_executor()
        tracer = self.tracer
        parent = tracer.current() if tracer is not None else None

        def run_task(item: T, index: int) -> R:
            if parent is None:
                return self._run_one(fn, item)
            with tracer.attached_span(parent, label, index=index):
                return self._run_one(fn, item)

        futures = [
            executor.submit(run_task, item, i)
            for i, item in enumerate(items)
        ]
        results: list[R] = []
        for future, item in zip(futures, items):
            try:
                results.append(future.result())
            except Exception as exc:  # noqa: BLE001 — typed retry gate
                if not getattr(exc, "retry_serial", False):
                    raise
                if self.metrics is not None:
                    self.metrics.counter(
                        "parallel_morsel_retries_total"
                    ).inc()
                if self.on_worker_crash is not None:
                    try:
                        self.on_worker_crash(exc)
                    except Exception:  # noqa: BLE001 — diagnostics only
                        pass
                results.append(self._run_one(fn, item))
        return results

    def shutdown(self) -> None:
        """Join the worker threads (idempotent; the pool can be reused
        afterwards — a new executor is created on demand). Also drops
        the pool's atexit hook so processes that open and close many
        sessions (server fleets, bench sweeps) never accumulate stale
        interpreter-exit callbacks."""
        with self._lock:
            executor, self._executor = self._executor, None
            if self._atexit_registered:
                atexit.unregister(self.shutdown)
                self._atexit_registered = False
        if executor is not None:
            executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Partial aggregation with ordered merge
# ---------------------------------------------------------------------------

#: Aggregates with a decomposable (partial state + ordered merge) form.
MERGEABLE_AGGREGATES = frozenset(
    {
        "count", "count_star", "sum", "avg", "mean", "min", "max",
        "bool_and", "bool_or", "every",
    }
)


def partial_grouped_aggregate(
    func_name: str,
    col: Optional[Column],
    codes: np.ndarray,
    n_groups: int,
    pool: WorkerPool,
    chunk_rows: int = PARTIAL_CHUNK_ROWS,
) -> Optional[Column]:
    """Thread-local partial aggregation plus a global ordered merge.

    The input is split into fixed ``chunk_rows`` chunks (independent of
    the worker count); each chunk computes its partial state on the
    pool, and partials are folded **in chunk order**, so results are
    identical for any worker count. Returns ``None`` when the aggregate
    has no decomposable form (caller falls back to the serial kernel)
    or when a single chunk suffices (the serial kernel is already that
    chunk's partial).
    """
    name = func_name.lower()
    if name not in MERGEABLE_AGGREGATES:
        return None
    if col is not None and col.sql_type.kind is TypeKind.VARCHAR:
        return None  # object-dtype extremes keep the per-row path
    n = len(codes)
    ranges = morsel_ranges(n, chunk_rows)
    if len(ranges) <= 1:
        return None

    if name in ("count", "count_star"):
        def partial(rng):
            s, e = rng
            part = None if col is None else col.slice(s, e)
            return group_counts(part, codes[s:e], n_groups)

        counts = pool.map_ordered(partial, ranges, label="partial_aggregate")
        total = np.zeros(n_groups, dtype=np.int64)
        for part in counts:
            total += part
        return Column(total, BIGINT)

    if name in ("sum", "avg", "mean"):
        integral_sum = (
            name == "sum" and col.sql_type.kind is not TypeKind.DOUBLE
        )

        def partial(rng):
            s, e = rng
            chunk = col.slice(s, e)
            chunk_codes = codes[s:e]
            counts = group_counts(chunk, chunk_codes, n_groups)
            if integral_sum:
                mask = chunk.validity()
                values = chunk.values[mask].astype(np.int64)
                sums, _present = _segmented_reduce(
                    values, chunk_codes[mask], n_groups, np.add
                )
            else:
                sums = group_sums(chunk, chunk_codes, n_groups)
            return counts, sums

        parts = pool.map_ordered(partial, ranges, label="partial_aggregate")
        counts = np.zeros(n_groups, dtype=np.int64)
        sums = np.zeros(
            n_groups, dtype=np.int64 if integral_sum else np.float64
        )
        for part_counts, part_sums in parts:  # fixed reduction order
            counts += part_counts
            sums += part_sums
        valid = counts > 0
        if name == "sum":
            return Column(
                sums, BIGINT if integral_sum else DOUBLE, valid
            )
        out = np.zeros(n_groups, dtype=np.float64)
        out[valid] = sums[valid] / counts[valid]
        return Column(out, DOUBLE, valid)

    # Extremes (min/max) and boolean folds (segmented ufunc reduce).
    if name in ("min", "bool_and", "every"):
        ufunc = np.minimum
    else:
        ufunc = np.maximum
    boolean = name in ("bool_and", "bool_or", "every")

    def partial(rng):
        s, e = rng
        chunk = col.slice(s, e)
        mask = chunk.validity()
        values = chunk.values[mask]
        if boolean:
            values = values.astype(np.int8)
        return _segmented_reduce(
            values, codes[s:e][mask], n_groups, ufunc
        )

    parts = pool.map_ordered(partial, ranges, label="partial_aggregate")
    merged, present = parts[0]
    merged = merged.copy()
    present = present.copy()
    for part_values, part_present in parts[1:]:
        both = present & part_present
        merged[both] = ufunc(merged[both], part_values[both])
        fresh = part_present & ~present
        merged[fresh] = part_values[fresh]
        present |= part_present
    if boolean:
        return Column(merged.astype(np.bool_), BOOLEAN, present)
    return Column(merged, col.sql_type, present)
