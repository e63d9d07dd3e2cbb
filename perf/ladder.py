"""``ladder`` — the paper's Figures 1/4/5 as a permanent workload.

One k-Means problem and one PageRank problem, each run three ways:
the layer-4 operator (``KMEANS(...)`` / ``PAGERANK(...)``), layer-3
``ITERATE`` and the layer-3 recursive CTE, interleaved round-robin.
``exec/iterate.py``, ``exec/cte.py`` and the per-round join/aggregate
rebuilds do almost all the work; the server, the WAL and the parser do
none. (Layer 2, the MADlib-like UDF driver, is a cost simulator nobody
should optimise, so it is left out.)
"""

from __future__ import annotations

from statistics import median

import numpy as np

import repro
from repro.analytics.csr import CSRGraph
from repro.analytics.kmeans import lloyd_kmeans
from repro.analytics.pagerank import pagerank_csr
from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)

import gen
import stages
from base import Workload
from harness import Metric, clock, timebox

N_POINTS, DIMS, CLUSTERS = 20_000, 10, 5
VERTICES, EDGES, DAMPING = 300, 20_000, 0.85
ITERATIONS = {"kmeans": 3, "pagerank": 45}
LAYERS = ("op", "iterate", "cte")
#: Operator samples are batches, so one sample lasts >= 15 ms.
OPERATOR_BATCH = 10
#: Cross-layer equivalence tolerance (the paper's layer 3 == layer 4).
TOLERANCE = 1e-6
FEATURES = gen.feature_names(DIMS)


def kmeans_operator_sql(iterations: int) -> str:
    feats = ", ".join(FEATURES)
    return (
        f"SELECT cluster, {feats} FROM KMEANS((SELECT {feats} FROM pts), "
        f"(SELECT {feats} FROM ctr), {iterations}) ORDER BY cluster"
    )


def pagerank_operator_sql(iterations: int) -> str:
    return (
        "SELECT vertex, rank FROM PAGERANK((SELECT src, dest FROM edges), "
        f"{DAMPING}, 0.0, {iterations}) ORDER BY vertex"
    )


#: (algorithm, layer) -> SQL text for a given iteration count.
STATEMENTS = {
    ("kmeans", "op"): kmeans_operator_sql,
    ("kmeans", "iterate"):
        lambda n: kmeans_iterate_sql("pts", "ctr", FEATURES, n),
    ("kmeans", "cte"):
        lambda n: kmeans_recursive_sql("pts", "ctr", FEATURES, n),
    ("pagerank", "op"): pagerank_operator_sql,
    ("pagerank", "iterate"):
        lambda n: pagerank_iterate_sql("edges", DAMPING, n),
    ("pagerank", "cte"):
        lambda n: pagerank_recursive_sql("edges", DAMPING, n),
}


def _sq_euclidean(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


class Ladder(Workload):
    name = "ladder"
    #: End-to-end metrics in slot order (lat1_ms .. lat6_ms).
    SLOTS = tuple(
        f"{algo}_{layer}_ms" for algo in ITERATIONS for layer in LAYERS)

    def __init__(self, seed: int, workdir, min_samples: int):
        super().__init__(seed, workdir, min_samples)
        #: alias -> rows of its latest execution, for the output check.
        self.outputs: dict[str, list] = {}
        #: alias -> (sql, executions per sample)
        self.variants = {
            f"{algo}_{layer}_ms": (
                sql_of(ITERATIONS[algo]),
                OPERATOR_BATCH if layer == "op" else 1,
            )
            for (algo, layer), sql_of in STATEMENTS.items()
        }

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate, load and run one warm-up round."""
        self.tables = [
            *gen.vectors(self.seed, N_POINTS, DIMS, CLUSTERS),
            gen.graph(self.seed, VERTICES, EDGES),
        ]
        self.db = repro.Database()
        started = clock()
        for table in self.tables:
            table.load(self.db)
        self.load_seconds = clock() - started
        for sql, _batch in self.variants.values():
            self.db.execute(sql)

    # -- the closed loop --------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> dict[str, Metric]:
        samples: dict[str, list[float]] = {a: [] for a in self.variants}
        for _round in timebox(seconds, self.min_samples):
            for stmt, (alias, (sql, batch)) in enumerate(self.variants.items()):
                started = clock()
                for _ in range(batch):
                    result = self._execute(sql, None, tracer, stmt)
                samples[alias].append((clock() - started) * 1e3 / batch)
                self.outputs[alias] = result.rows if result is not None else None
        return {a: Metric.of(v, "ms") for a, v in samples.items()}

    # -- output check -----------------------------------------------------

    def _kernel_inputs(self):
        """The arrays the operators see: points, initial centres, CSR."""
        points, centers, edges = (t.columns for t in self.tables)
        return (
            np.column_stack([points[f] for f in FEATURES]),
            np.column_stack([centers[f] for f in FEATURES]),
            CSRGraph.from_edges(edges["src"], edges["dest"]),
        )

    def verify(self) -> list[str]:
        """Operator == ITERATE == recursive CTE, centres and ranks; and
        the operators' kernels ran every iteration the SQL runs (they
        stop early on a converged input, which would not be equal work).
        """
        problems = []
        matrix, seeds, graph = self._kernel_inputs()
        ran = {
            "kmeans": lloyd_kmeans(
                matrix, seeds, _sq_euclidean, ITERATIONS["kmeans"])[3],
            "pagerank": pagerank_csr(
                graph, DAMPING, 0.0, ITERATIONS["pagerank"])[1],
        }
        for algo, iterations in ITERATIONS.items():
            if ran[algo] != iterations:
                problems.append(
                    f"{algo}: kernel stopped after {ran[algo]} of "
                    f"{iterations} iterations")
        for algo in ITERATIONS:
            reference = self.outputs.get(f"{algo}_op_ms")
            if not reference:
                problems.append(f"{algo}: operator produced no rows")
                continue
            want = np.asarray(reference, dtype=np.float64)
            for layer in ("iterate", "cte"):
                rows = self.outputs.get(f"{algo}_{layer}_ms")
                got = np.asarray(rows or [], dtype=np.float64)
                if got.shape != want.shape or not np.allclose(
                    got, want, rtol=0.0, atol=TOLERANCE
                ):
                    problems.append(
                        f"{algo}: {layer} differs from the operator"
                    )
        return problems

    # -- per-layer metrics (traced pass) ----------------------------------

    def _timed(self, sql: str, repeats: int) -> float:
        samples = []
        for _ in range(repeats):
            started = clock()
            self._execute(sql)
            samples.append((clock() - started) * 1e3)
        return median(samples)

    def _slope(self, sql_of, iterations: int, repeats: int):
        """(per-round ms, fixed ms): wall time at 1 and N iterations."""
        one = self._timed(sql_of(1), repeats)
        full = self._timed(sql_of(iterations), repeats)
        per_round = (full - one) / (iterations - 1)
        return per_round, one - per_round

    def layers(self, seconds, tracer, plain, before, after) -> dict:
        out: dict[str, Metric] = {}
        repeats = max(self.min_samples // 2, 2)
        for algo, iterations in ITERATIONS.items():
            for layer in ("iterate", "cte"):
                per_round, fixed = self._slope(
                    STATEMENTS[algo, layer], iterations, repeats)
                out[f"exec.{layer}_round_ms.{algo}"] = Metric(
                    per_round, "ms", count=repeats)
                if layer == "iterate":
                    out[f"exec.iterate_fixed_ms.{algo}"] = Metric(
                        fixed, "ms", count=repeats)
            out[f"exec.iterate_over_op.{algo}"] = Metric(
                plain[f"{algo}_iterate_ms"].value / plain[f"{algo}_op_ms"].value,
                "ratio",
            )

        # The kernels the operators wrap, on the same arrays.
        matrix, seeds, graph = self._kernel_inputs()
        for _ in range(self.min_samples):
            with tracer.span("analytics.kmeans_kernel"):
                lloyd_kmeans(
                    matrix, seeds, _sq_euclidean, ITERATIONS["kmeans"])
            with tracer.span("analytics.pagerank_kernel"):
                pagerank_csr(graph, DAMPING, 0.0, ITERATIONS["pagerank"])
        for algo in ITERATIONS:
            out[f"analytics.{algo}_kernel_ms"] = Metric.of(
                [v * 1e3 for v in tracer.durations(f"analytics.{algo}_kernel")],
                "ms",
            )
        out["analytics.op_sql_overhead_ms"] = Metric(
            plain["kmeans_op_ms"].value
            - out["analytics.kmeans_kernel_ms"].value,
            "ms",
        )

        selects = [(sql, None) for sql, _batch in self.variants.values()]
        out.update(stages.stage_metrics(
            self.db, tracer, selects, 0.0, max(self.min_samples // 5, 1)))
        out.update(stages.operator_shares(self.db, selects))
        out.update(self.api_metrics(
            "SELECT id, f0 FROM pts WHERE id = ?",
            lambda i: [(i * 7919) % N_POINTS], seconds * 0.05))
        out.update(self.storage_metrics(
            sum(t.row_count for t in self.tables), self.load_seconds))
        return out
