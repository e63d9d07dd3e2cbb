"""The physical k-Means operator (paper section 6.1).

Lloyd's algorithm with a lambda-parameterised distance metric
(section 7, Listing 3):

* two relational inputs — the data and the initial centers — arrive as
  arbitrary subqueries;
* each iteration assigns every tuple to its nearest center by evaluating
  the (compiled, vectorised) distance lambda once per center over the
  whole data batch — the lambda is fused into the inner loop, never
  interpreted per call;
* the update step accumulates per-cluster partial sums chunk-by-chunk and
  merges them, mirroring the thread-local aggregation + global merge
  structure of the paper (numpy vectorisation stands in for the threads);
* iteration stops when no tuple changes its cluster or after
  ``max_iterations``;
* the output relation holds the cluster id, the center coordinates, and
  the cluster size.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import AnalyticsError, BindError
from ..expr.bound import (
    BoundBinary,
    BoundColumnRef,
    BoundLambda,
)
from ..expr.effects import effects
from ..plan.logical import LogicalTableFunction, PlanColumn
from ..storage.column import Column, ColumnBatch
from ..types import BIGINT, DOUBLE, INTEGER
from .registry import OperatorDescriptor

#: Rows per "worker" chunk in the update step (emulated thread locality).
UPDATE_CHUNK_ROWS = 131_072


def default_distance_lambda(attrs: list[str]) -> BoundLambda:
    """The default variation point: squared Euclidean distance over the
    matched attributes, built as a bound expression tree (so the default
    and a user lambda compile identically)."""
    body = None
    for attr in attrs:
        a_ref = BoundColumnRef(f"a.{attr}", DOUBLE, f"a.{attr}")
        b_ref = BoundColumnRef(f"b.{attr}", DOUBLE, f"b.{attr}")
        diff = BoundBinary("-", a_ref, b_ref, DOUBLE)
        term = BoundBinary("*", diff, diff, DOUBLE)
        body = term if body is None else BoundBinary("+", body, term, DOUBLE)
    assert body is not None
    lam = BoundLambda(
        params=["a", "b"],
        body=body,
        param_attrs={"a": list(attrs), "b": list(attrs)},
    )
    # Marker letting the operator fuse the default variation point into
    # its tightest kernel — the analogue of HyPer generating optimal code
    # when no user lambda overrides the default (section 7).
    lam.is_default_euclidean = True  # type: ignore[attr-defined]
    return lam


class KMeansDescriptor(OperatorDescriptor):
    """``KMEANS((data), (centers) [, λ(a,b) distance] [, max_iter])``."""

    name = "kmeans"

    def bind(self, binder, func, parent_scope, ctes) -> LogicalTableFunction:
        data_plan = self._arg_subquery(
            binder, func, 0, parent_scope, ctes, "data"
        )
        centers_plan = self._arg_subquery(
            binder, func, 1, parent_scope, ctes, "initial centers"
        )
        data_cols = self._numeric_columns(data_plan, "KMEANS data")
        center_cols = self._numeric_columns(centers_plan, "KMEANS centers")
        if len(data_cols) != len(data_plan.output) or len(
            center_cols
        ) != len(centers_plan.output):
            raise BindError(
                "KMEANS inputs must project only the numeric attributes "
                "of interest"
            )
        if len(data_cols) != len(center_cols):
            raise BindError(
                f"KMEANS data has {len(data_cols)} dimensions but centers "
                f"have {len(center_cols)}"
            )

        attrs = [c.name for c in data_cols]
        param_schemas = [
            [(c.name, DOUBLE) for c in data_cols],
            [(c.name, DOUBLE) for c in center_cols],
        ]
        # Lambda parameter `b` exposes the *center's* attribute names so
        # λ(a, b) a.x - b.x works even if spellings differ per side; the
        # common case is identical names.
        param_schemas[1] = [(c.name, DOUBLE) for c in data_cols]

        distance = self._optional_lambda(binder, func, 2, param_schemas)
        next_arg = 3 if (len(func.args) > 2 and func.args[2].lambda_expr) \
            else 2
        max_iterations = self._scalar_arg(
            binder, func, next_arg, "max iterations", default=100
        )
        if not isinstance(max_iterations, int) or max_iterations < 1:
            raise BindError("KMEANS max iterations must be a positive int")

        if distance is None:
            distance = default_distance_lambda(attrs)

        output = [
            PlanColumn("cluster", binder.fresh_expr_slot(), INTEGER)
        ] + [
            PlanColumn(attr, binder.fresh_expr_slot(), DOUBLE)
            for attr in attrs
        ] + [
            PlanColumn("size", binder.fresh_expr_slot(), BIGINT)
        ]
        return LogicalTableFunction(
            name=self.name,
            inputs=[data_plan, centers_plan],
            lambdas={"distance": distance},
            params=[max_iterations, attrs],
            output=output,
        )

    def estimate_rows(self, node, input_estimates) -> float:
        # Contract: exactly k output rows (one per initial center).
        return max(input_estimates[1] if len(input_estimates) > 1 else 1.0,
                   1.0)

    def run(self, node, inputs, ctx, eval_ctx) -> ColumnBatch:
        data_batch, centers_batch = inputs
        max_iterations, attrs = node.params
        distance = node.lambdas["distance"]
        fused_default = getattr(distance, "is_default_euclidean", False)
        distance_fn = (
            None if fused_default else ctx.compiler.compile(distance)
        )

        data_names = data_batch.names()
        center_names = centers_batch.names()
        matrix = _as_matrix(data_batch, data_names, "KMEANS data")
        centers = _as_matrix(centers_batch, center_names, "KMEANS centers")
        if centers.shape[0] == 0:
            raise AnalyticsError("KMEANS requires at least one center")

        if fused_default:
            def metric(points: np.ndarray, center: np.ndarray) -> np.ndarray:
                diff = points - center
                return np.einsum("ij,ij->i", diff, diff)
        else:
            def metric(points: np.ndarray, center: np.ndarray) -> np.ndarray:
                n = points.shape[0]
                columns: dict[str, Column] = {}
                a_attrs = distance.param_attrs[distance.params[0]]
                b_attrs = distance.param_attrs[distance.params[1]]
                for j, attr in enumerate(a_attrs):
                    columns[f"{distance.params[0]}.{attr}"] = Column(
                        points[:, j], DOUBLE
                    )
                for j, attr in enumerate(b_attrs):
                    columns[f"{distance.params[1]}.{attr}"] = Column(
                        np.full(n, center[j]), DOUBLE
                    )
                result = distance_fn(ColumnBatch(columns), eval_ctx)
                return result.values.astype(np.float64, copy=False)

        pool = getattr(ctx, "pool", None)
        if pool is not None and not fused_default:
            # User lambdas evaluate through the shared EvalContext;
            # only subquery-/UDF-free bodies may run on workers.
            if not effects(distance.body).parallel_safe:
                pool = None
        governor = getattr(ctx, "governor", None)
        reserved = 0
        if governor is not None:
            reserved = governor.reserve(
                int(matrix.nbytes) + int(centers.nbytes), "kmeans_matrix"
            )
        rounds: list[dict] = []
        try:
            centers_out, assignment, sizes, iters = lloyd_kmeans(
                matrix, centers, metric, max_iterations,
                telemetry=rounds, pool=pool, governor=governor,
            )
        finally:
            if governor is not None:
                governor.release(reserved)
        ctx.stats.iterations += iters
        ctx.telemetry["kmeans"] = {
            "iterations": iters,
            "inertia": [r["inertia"] for r in rounds],
            "center_shift": [r["center_shift"] for r in rounds],
        }
        return self._output_batch(attrs, centers_out, sizes)

    @staticmethod
    def _output_batch(
        attrs: list[str], centers_out: np.ndarray, sizes: np.ndarray
    ) -> ColumnBatch:
        columns = {
            "cluster": Column(
                np.arange(centers_out.shape[0], dtype=np.int32), INTEGER
            )
        }
        for j, attr in enumerate(attrs):
            columns[attr] = Column(centers_out[:, j].copy(), DOUBLE)
        columns["size"] = Column(sizes.astype(np.int64), BIGINT)
        return ColumnBatch(columns)


def _as_matrix(
    batch: ColumnBatch, names: list[str], what: str
) -> np.ndarray:
    columns = []
    for name in names:
        col = batch[name]
        if col.null_count():
            raise AnalyticsError(f"{what} must not contain NULLs")
        columns.append(col.values.astype(np.float64, copy=False))
    if not columns:
        return np.zeros((0, 0), dtype=np.float64)
    return np.column_stack(columns)


def lloyd_kmeans(
    matrix: np.ndarray,
    centers: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iterations: int,
    telemetry: Optional[list] = None,
    pool=None,
    governor=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Core Lloyd iteration shared by the SQL operator and the Python API.

    ``metric(points, center)`` returns per-point distances to one center.
    ``telemetry``, when given, receives one dict per iteration with the
    round's ``inertia`` (sum of each point's distance to its assigned
    center, under ``metric``) and ``center_shift`` (largest L2 move of
    any center in the update step) — the convergence series the paper's
    section 8.1 wall-time claims rest on.

    ``pool`` (a :class:`repro.exec.parallel.WorkerPool`) runs the
    assign-and-partial-sum chunks on worker threads. Chunk boundaries
    are worker-independent and partials merge in chunk order, so the
    centers, assignment, and inertia series are bit-identical for any
    worker count (and to ``pool=None``).
    Returns (centers, assignment, cluster_sizes, iterations_run).
    """
    n = matrix.shape[0]
    k = centers.shape[0]
    d = matrix.shape[1]
    centers = centers.astype(np.float64, copy=True)
    assignment = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return centers, assignment, np.zeros(k, dtype=np.int64), 0

    # One cache-sized chunk at a time ("morsel" processing): each chunk
    # plays the role of one worker's share in the paper's design —
    # assign its tuples, accumulate local partial sums, then merge
    # globally in chunk order.
    chunk_rows = min(UPDATE_CHUNK_ROWS, max(n, 1))
    ranges = [
        (start, min(start + chunk_rows, n))
        for start in range(0, n, chunk_rows)
    ]
    want_inertia = telemetry is not None

    def assign_chunk(rng: tuple) -> tuple:
        """One worker's share of a round: assign the chunk's tuples to
        the (frozen) centers and compute the chunk-local partial sums.
        Reads the previous round's ``assignment`` slice; the
        coordinator applies writes only after every chunk returns."""
        start, stop = rng
        block = matrix[start:stop]
        dist_block = np.empty((stop - start, k), dtype=np.float64)
        for j in range(k):
            dist_block[:, j] = metric(block, centers[j])
        local_assign = np.argmin(dist_block, axis=1)
        local_inertia = 0.0
        if want_inertia:
            local_inertia = float(
                dist_block[
                    np.arange(stop - start), local_assign
                ].sum()
            )
        local_counts = np.bincount(local_assign, minlength=k)
        local_sums = np.empty((k, d), dtype=np.float64)
        for dim in range(d):
            local_sums[:, dim] = np.bincount(
                local_assign, weights=block[:, dim], minlength=k
            )
        local_changed = bool(
            (local_assign != assignment[start:stop]).any()
        )
        return (
            local_assign, local_counts, local_sums,
            local_inertia, local_changed,
        )

    iterations = 0
    for _round in range(max_iterations):
        if governor is not None:
            # Per-round checkpoint: a cancel or deadline aborts within
            # one assignment round.
            governor.check("kmeans_round")
        iterations += 1
        if pool is not None:
            chunk_results = pool.map_ordered(assign_chunk, ranges)
        else:
            chunk_results = [assign_chunk(rng) for rng in ranges]
        changed = False
        inertia = 0.0
        sums = np.zeros_like(centers)
        counts = np.zeros(k, dtype=np.int64)
        for rng, result in zip(ranges, chunk_results):
            start, stop = rng
            (
                local_assign, local_counts, local_sums,
                local_inertia, local_changed,
            ) = result
            assignment[start:stop] = local_assign
            counts += local_counts
            sums += local_sums
            inertia += local_inertia
            changed = changed or local_changed
        non_empty = counts > 0
        previous_centers = centers.copy() if telemetry is not None else None
        centers[non_empty] = (
            sums[non_empty] / counts[non_empty, None]
        )
        if telemetry is not None:
            shift = float(
                np.sqrt(
                    ((centers - previous_centers) ** 2).sum(axis=1)
                ).max()
            )
            telemetry.append(
                {"inertia": inertia, "center_shift": shift}
            )
        if not changed:
            break
    sizes = np.bincount(assignment, minlength=k)
    return centers, assignment, sizes, iterations


def kmeans_plusplus_init(
    points: np.ndarray, k: int, seed: int = 0
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii): pick initial centers
    with probability proportional to squared distance from the centers
    chosen so far. The paper's experiments use plain random selection
    for cross-system comparability (section 8.1.1); this is the better
    initialization strategy offered as the operator's alternative.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise AnalyticsError("kmeans++ expects a non-empty 2-D array")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise AnalyticsError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        diff = points - centers[i - 1]
        np.minimum(
            closest, np.einsum("ij,ij->i", diff, diff), out=closest
        )
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers.
            centers[i:] = centers[i - 1]
            break
        probabilities = closest / total
        centers[i] = points[rng.choice(n, p=probabilities)]
    return centers


def kmeans(
    points: np.ndarray,
    initial_centers: np.ndarray,
    max_iterations: int = 100,
    metric: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    telemetry: Optional[list] = None,
    pool=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Library-level k-Means over numpy arrays (no SQL involved).

    ``metric`` defaults to squared Euclidean distance; ``telemetry``
    receives one per-iteration convergence dict and ``pool`` an optional
    :class:`repro.exec.parallel.WorkerPool` (see :func:`lloyd_kmeans`).
    Returns (centers, assignment, sizes, iterations)."""
    points = np.asarray(points, dtype=np.float64)
    initial_centers = np.asarray(initial_centers, dtype=np.float64)
    if points.ndim != 2 or initial_centers.ndim != 2:
        raise AnalyticsError("kmeans expects 2-D arrays")
    if points.shape[1] != initial_centers.shape[1]:
        raise AnalyticsError("points/centers dimensionality mismatch")
    if max_iterations < 1:
        raise AnalyticsError("max_iterations must be positive")
    if metric is None:
        def metric(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
            diff = pts - center
            return np.einsum("ij,ij->i", diff, diff)
    return lloyd_kmeans(
        points, initial_centers, metric, max_iterations,
        telemetry=telemetry, pool=pool,
    )
