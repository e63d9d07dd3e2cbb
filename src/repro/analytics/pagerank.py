"""The physical PageRank operator (paper section 6.3).

``PAGERANK((edges), damping, epsilon [, max_iterations] [, λ(e) weight])``

The operator builds a temporary CSR index with densely re-labelled
vertex ids (one array read per neighbour rank access), iterates the
sparse matrix-vector multiplication keeping only the current and
previous rank arrays, aggregates the per-round rank change, stops when
the change drops to ``epsilon`` or the iteration cap is reached, and
finally reverse-maps internal ids to the original vertex ids.

An optional lambda over the edge tuple defines edge weights (the paper's
example of a PageRank variation point, section 4.3): contributions are
proportional to ``weight / total outgoing weight``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AnalyticsError, BindError
from ..expr import bound as b
from ..expr.effects import effects
from ..plan import logical as lp
from ..plan.logical import LogicalTableFunction, PlanColumn
from ..storage.column import Column, ColumnBatch
from ..types import BIGINT, DOUBLE
from .csr import CSRGraph, csr_cache_lookup, csr_cache_store
from .registry import OperatorDescriptor

DEFAULT_MAX_ITERATIONS = 100


class PageRankDescriptor(OperatorDescriptor):
    name = "pagerank"

    def bind(self, binder, func, parent_scope, ctes) -> LogicalTableFunction:
        edges_plan = self._arg_subquery(
            binder, func, 0, parent_scope, ctes, "edges"
        )
        if len(edges_plan.output) < 2:
            raise BindError(
                "PAGERANK edges must have at least (source, target)"
            )
        for col in edges_plan.output[:2]:
            if not col.sql_type.is_integral:
                raise BindError(
                    "PAGERANK vertex id columns must be integers, got "
                    f"{col.sql_type} for {col.name!r}"
                )
        damping = self._scalar_arg(binder, func, 1, "damping factor")
        epsilon = self._scalar_arg(binder, func, 2, "epsilon")
        damping = float(damping)
        epsilon = float(epsilon)
        if not 0.0 <= damping <= 1.0:
            raise BindError("PAGERANK damping factor must be in [0, 1]")
        if epsilon < 0.0:
            raise BindError("PAGERANK epsilon must be non-negative")

        max_iterations = DEFAULT_MAX_ITERATIONS
        weight_lambda = None
        index = 3
        if index < len(func.args) and func.args[index].scalar is not None:
            max_iterations = self._scalar_arg(
                binder, func, index, "max iterations"
            )
            if not isinstance(max_iterations, int) or max_iterations < 1:
                raise BindError(
                    "PAGERANK max iterations must be a positive integer"
                )
            index += 1
        if index < len(func.args):
            edge_schema = [
                (c.name, c.sql_type) for c in edges_plan.output
            ]
            weight_lambda = self._optional_lambda(
                binder, func, index, [edge_schema]
            )
            if weight_lambda is None:
                raise BindError(
                    f"PAGERANK: unexpected argument {index + 1}"
                )

        lambdas = {}
        if weight_lambda is not None:
            lambdas["weight"] = weight_lambda
        output = [
            PlanColumn("vertex", binder.fresh_expr_slot(), BIGINT),
            PlanColumn("rank", binder.fresh_expr_slot(), DOUBLE),
        ]
        return LogicalTableFunction(
            name=self.name,
            inputs=[edges_plan],
            lambdas=lambdas,
            params=[damping, epsilon, max_iterations],
            output=output,
        )

    def estimate_rows(self, node, input_estimates) -> float:
        # Contract: one row per distinct vertex; bounded by 2x edge count.
        edges = input_estimates[0] if input_estimates else 1.0
        return max(min(edges * 2.0, edges + 1.0), 1.0)

    @staticmethod
    def _csr_cache_key(node, ctx) -> Optional[tuple]:
        """A cache key for the edges input's CSR index, or None when the
        input is not a plain base-table read (or the weight lambda is
        value-dependent / unfingerprintable).

        Cacheable shapes: a bare scan, or a projection of unmodified
        columns over one — exactly the cases where the materialised
        edge batch is a pure function of one immutable
        :class:`~repro.storage.table.TableData` version."""
        plan = node.inputs[0]
        if isinstance(plan, lp.LogicalProject) and isinstance(
            plan.child, lp.LogicalScan
        ):
            slot_to_name = {c.slot: c.name for c in plan.child.output}
            names = []
            for expr in plan.exprs:
                if not isinstance(expr, b.BoundColumnRef):
                    return None
                name = slot_to_name.get(expr.slot)
                if name is None:
                    return None
                names.append(name)
            table_name = plan.child.table_name
        elif isinstance(plan, lp.LogicalScan):
            names = [c.name for c in plan.output]
            table_name = plan.table_name
        else:
            return None
        weight_key = None
        weight_lambda = node.lambdas.get("weight")
        if weight_lambda is not None:
            from ..expr.compiler import kernel_fingerprint

            body_fp = kernel_fingerprint(weight_lambda.body)
            if body_fp is None:
                return None
            # Cached weights are *values*, so a body reading outer
            # parameters would pin stale numbers into the graph.
            if effects(weight_lambda.body).params:
                return None
            weight_key = (tuple(weight_lambda.params), body_fp)
        try:
            data = ctx.read_table(table_name)
        except Exception:  # noqa: BLE001 — e.g. working-table scopes
            return None
        return (data.version_token, tuple(names), weight_key)

    def run(self, node, inputs, ctx, eval_ctx) -> ColumnBatch:
        (edges_batch,) = inputs
        damping, epsilon, max_iterations = node.params
        names = edges_batch.names()

        graph = None
        cache_key = None
        if getattr(ctx, "hot_path", False):
            cache_key = self._csr_cache_key(node, ctx)
            if cache_key is not None:
                graph = csr_cache_lookup(cache_key)
                if ctx.metrics is not None:
                    name = (
                        "analytics_csr_cache_hits_total"
                        if graph is not None
                        else "analytics_csr_cache_misses_total"
                    )
                    ctx.metrics.counter(name).inc()

        if graph is None:
            src_col = edges_batch[names[0]]
            dst_col = edges_batch[names[1]]
            if src_col.null_count() or dst_col.null_count():
                raise AnalyticsError(
                    "PAGERANK edges must not contain NULLs"
                )
            src = src_col.values.astype(np.int64, copy=False)
            dst = dst_col.values.astype(np.int64, copy=False)

            weights = None
            weight_lambda = node.lambdas.get("weight")
            if weight_lambda is not None:
                weight_fn = ctx.compiler.compile(weight_lambda)
                param = weight_lambda.params[0]
                attrs = weight_lambda.param_attrs[param]
                lam_batch = ColumnBatch(
                    {
                        f"{param}.{attr}": edges_batch[name]
                        for attr, name in zip(attrs, names)
                    }
                )
                weight_col = weight_fn(lam_batch, eval_ctx)
                weights = weight_col.values.astype(
                    np.float64, copy=False
                )
                if weight_col.null_count() or (weights < 0).any():
                    raise AnalyticsError(
                        "PAGERANK edge weights must be non-negative and "
                        "non-NULL"
                    )

            graph = CSRGraph.from_edges(
                src, dst, weights,
                governor=getattr(ctx, "governor", None),
            )
            if cache_key is not None:
                csr_cache_store(cache_key, graph)
        governor = getattr(ctx, "governor", None)
        reserved = 0
        if governor is not None:
            reserved = governor.reserve(graph.nbytes, "pagerank_csr")
        residuals: list[float] = []
        try:
            ranks, iterations = pagerank_csr(
                graph, damping, epsilon, max_iterations,
                telemetry=residuals, pool=getattr(ctx, "pool", None),
                governor=governor,
            )
        finally:
            if governor is not None:
                governor.release(reserved)
        ctx.stats.iterations += iterations
        ctx.telemetry["pagerank"] = {
            "iterations": iterations,
            "residual_l1": residuals,
        }
        return ColumnBatch(
            {
                "vertex": Column(
                    graph.vertex_ids.astype(np.int64), BIGINT
                ),
                "rank": Column(ranks, DOUBLE),
            }
        )


def pagerank_csr(
    graph: CSRGraph,
    damping: float,
    epsilon: float,
    max_iterations: int,
    telemetry: Optional[list] = None,
    pool=None,
    governor=None,
) -> tuple[np.ndarray, int]:
    """Iterate PageRank over a CSR index.

    Only the current and previous rank arrays are live (the operator's
    non-appending state, contrast with the relational formulation).
    Dangling vertices redistribute their mass uniformly. Stops when the
    aggregated rank change ``max |r' - r|`` is <= epsilon, or at the
    iteration cap. ``telemetry``, when given, receives the per-round L1
    residual ``sum |r' - r|`` (the convergence series). ``pool`` runs
    the SpMV gather chunked across workers; chunk boundaries align with
    CSR segments, so ranks and residuals stay bit-identical for any
    worker count. Returns (ranks, iterations_run)."""
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0, dtype=np.float64), 0
    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    out_weight = graph.weighted_out_sums()
    dangling = out_weight == 0.0
    safe_out = np.where(dangling, 1.0, out_weight)
    base = (1.0 - damping) / n

    iterations = 0
    for _round in range(max_iterations):
        if governor is not None:
            # Per-round checkpoint: a cancel or deadline aborts within
            # one SpMV round.
            governor.check("pagerank_round")
        iterations += 1
        per_source = ranks / safe_out
        per_source[dangling] = 0.0
        new_ranks = base + damping * graph.gather_incoming(
            per_source, pool=pool
        )
        if dangling.any():
            new_ranks += damping * ranks[dangling].sum() / n
        change = np.abs(new_ranks - ranks)
        delta = float(change.max())
        if telemetry is not None:
            telemetry.append(float(change.sum()))
        ranks = new_ranks
        if delta <= epsilon:
            break
    return ranks, iterations


def pagerank(
    src: np.ndarray,
    dst: np.ndarray,
    damping: float = 0.85,
    epsilon: float = 1e-6,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    weights: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Library-level PageRank over edge arrays (no SQL involved).

    Returns (vertex_ids, ranks, iterations)."""
    graph = CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        None if weights is None else np.asarray(weights, dtype=np.float64),
    )
    ranks, iterations = pagerank_csr(
        graph, damping, epsilon, max_iterations
    )
    return graph.vertex_ids, ranks, iterations
