"""One function per paper table/figure, printing the measured series."""

from __future__ import annotations

import numpy as np

from ..datagen.graphs import graph_experiments
from ..datagen.vectors import (
    KMEANS_CLUSTER_SWEEP,
    KMEANS_DEFAULTS,
    KMEANS_DIMENSION_SWEEP,
    KMEANS_TUPLE_SWEEP,
    table1_experiments,
)
from .experiments import (
    KMEANS_SYSTEMS,
    NAIVE_BAYES_SYSTEMS,
    PAGERANK_SYSTEMS,
    run_kmeans,
    run_naive_bayes,
    run_pagerank,
    setup_kmeans,
    setup_naive_bayes,
    setup_pagerank,
)
from .runner import SeriesTable, measure


def _scaled_n(paper_n: int, scale: float) -> int:
    return max(int(paper_n * scale), 16)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def run_table1(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    """Generate every Table 1 dataset (scaled) and report its shape —
    validating that the full experiment grid is materialisable."""
    table = SeriesTable(
        f"Table 1 — k-Means dataset grid (scale={scale})",
        "sweep/point",
        ["n", "d", "k"],
        units={"n": "", "d": "", "k": ""},
    )
    for experiment in table1_experiments(scale):
        label = f"{experiment.sweep}:{experiment.n}x{experiment.d}k{experiment.k}"
        table.record("n", label, float(experiment.n))
        table.record("d", label, float(experiment.d))
        table.record("k", label, float(experiment.k))
    table.print()
    return table


# ---------------------------------------------------------------------------
# Figure 4 — k-Means
# ---------------------------------------------------------------------------


def _kmeans_sweep(
    title: str,
    xlabel: str,
    points: list[tuple[object, int, int, int]],
    repeat: int,
) -> SeriesTable:
    iterations = KMEANS_DEFAULTS["iterations"]
    table = SeriesTable(title, xlabel, list(KMEANS_SYSTEMS))
    for x, n, d, k in points:
        setup = setup_kmeans(n, d, k, iterations)
        for system in KMEANS_SYSTEMS:
            if run_kmeans(setup, system) is None:  # warm-up / cap probe
                table.record(system, x, None, "over cap")
                continue
            seconds = measure(
                lambda: run_kmeans(setup, system), repeat
            )
            table.record(system, x, seconds)
    table.print()
    return table


def run_fig4_tuples(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    d, k = KMEANS_DEFAULTS["d"], KMEANS_DEFAULTS["k"]
    points = [
        (f"{n:,}", _scaled_n(n, scale), d, k)
        for n in KMEANS_TUPLE_SWEEP
    ]
    return _kmeans_sweep(
        f"Figure 4 (left) — k-Means, varying tuples (scale={scale}, "
        f"d={d}, k={k}, 3 iterations)",
        "paper n",
        points,
        repeat,
    )


def run_fig4_dims(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    n = _scaled_n(KMEANS_DEFAULTS["n"], scale)
    k = KMEANS_DEFAULTS["k"]
    points = [(d, n, d, k) for d in KMEANS_DIMENSION_SWEEP]
    return _kmeans_sweep(
        f"Figure 4 (middle) — k-Means, varying dimensions (n={n}, k={k})",
        "dimensions",
        points,
        repeat,
    )


def run_fig4_clusters(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    n = _scaled_n(KMEANS_DEFAULTS["n"], scale)
    d = KMEANS_DEFAULTS["d"]
    points = [(k, n, d, k) for k in KMEANS_CLUSTER_SWEEP]
    return _kmeans_sweep(
        f"Figure 4 (right) — k-Means, varying clusters (n={n}, d={d})",
        "clusters",
        points,
        repeat,
    )


# ---------------------------------------------------------------------------
# Figure 5 — PageRank and Naive Bayes
# ---------------------------------------------------------------------------


def run_fig5_pagerank(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    table = SeriesTable(
        f"Figure 5 (left) — PageRank on LDBC-like graphs (scale={scale}, "
        "damping=0.85, 45 iterations)",
        "graph",
        list(PAGERANK_SYSTEMS),
    )
    for experiment in graph_experiments(scale):
        setup = setup_pagerank(
            experiment.n_vertices, experiment.n_edges
        )
        label = f"{experiment.n_vertices}v/{setup.n_edges}e"
        for system in PAGERANK_SYSTEMS:
            if run_pagerank(setup, system) is None:
                table.record(system, label, None, "over cap")
                continue
            seconds = measure(
                lambda: run_pagerank(setup, system), repeat
            )
            table.record(system, label, seconds)
    table.print()
    return table


def _nb_sweep(
    title: str,
    xlabel: str,
    points: list[tuple[object, int, int]],
    repeat: int,
) -> SeriesTable:
    table = SeriesTable(title, xlabel, list(NAIVE_BAYES_SYSTEMS))
    for x, n, d in points:
        setup = setup_naive_bayes(n, d)
        for system in NAIVE_BAYES_SYSTEMS:
            if run_naive_bayes(setup, system) is None:
                table.record(system, x, None, "over cap")
                continue
            seconds = measure(
                lambda: run_naive_bayes(setup, system), repeat
            )
            table.record(system, x, seconds)
    table.print()
    return table


def run_fig5_nb_tuples(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    d = KMEANS_DEFAULTS["d"]
    points = [
        (f"{n:,}", _scaled_n(n, scale), d) for n in KMEANS_TUPLE_SWEEP
    ]
    return _nb_sweep(
        f"Figure 5 (middle) — Naive Bayes training, varying tuples "
        f"(scale={scale}, d={d})",
        "paper n",
        points,
        repeat,
    )


def run_fig5_nb_dims(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    n = _scaled_n(KMEANS_DEFAULTS["n"], scale)
    points = [(d, n, d) for d in KMEANS_DIMENSION_SWEEP]
    return _nb_sweep(
        f"Figure 5 (right) — Naive Bayes training, varying dimensions "
        f"(n={n})",
        "dimensions",
        points,
        repeat,
    )


# ---------------------------------------------------------------------------
# Figure 1 — the four layers, qualitatively, on one k-Means workload
# ---------------------------------------------------------------------------


def run_fig1_layers(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    n = _scaled_n(KMEANS_DEFAULTS["n"], scale)
    d, k = KMEANS_DEFAULTS["d"], KMEANS_DEFAULTS["k"]
    iterations = KMEANS_DEFAULTS["iterations"]
    setup = setup_kmeans(n, d, k, iterations)
    layers = [
        ("layer 1: external tool", "External tool"),
        ("layer 2: UDF driver (MADlib-like)", "MADlib-like"),
        ("layer 3: SQL (recursive CTE)", "HyPer SQL"),
        ("layer 3: SQL (ITERATE)", "HyPer Iterate"),
        ("layer 4: in-core operator", "HyPer Operator"),
    ]
    table = SeriesTable(
        f"Figure 1 — integration layers on k-Means (n={n}, d={d}, k={k})",
        "layer",
        ["runtime"],
    )
    for label, system in layers:
        if run_kmeans(setup, system) is None:
            table.record("runtime", label, None, "over cap")
            continue
        seconds = measure(lambda: run_kmeans(setup, system), repeat)
        table.record("runtime", label, seconds)
    table.print()
    return table


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def run_ablation_iterate(
    scale: float = 0.001, repeat: int = 1
) -> SeriesTable:
    """ITERATE vs recursive CTE: runtime and peak live tuples of the
    iterative working relation (the section 5.1 memory argument)."""
    from ..workloads import kmeans_iterate_sql, kmeans_recursive_sql

    n = _scaled_n(KMEANS_DEFAULTS["n"], scale)
    d, k = KMEANS_DEFAULTS["d"], KMEANS_DEFAULTS["k"]
    table = SeriesTable(
        f"Ablation §5.1 — ITERATE vs recursive CTE (k-Means, n={n}, "
        f"d={d}, k={k})",
        "iterations",
        ["ITERATE s", "CTE s", "ITERATE tuples", "CTE tuples"],
        units={"ITERATE tuples": "", "CTE tuples": ""},
    )
    setup = setup_kmeans(n, d, k)
    for iterations in (2, 4, 8, 16):
        it_sql = kmeans_iterate_sql(
            "data", "centers", setup.features, iterations
        )
        rc_sql = kmeans_recursive_sql(
            "data", "centers", setup.features, iterations
        )
        it_seconds = measure(lambda: setup.db.execute(it_sql), repeat)
        it_tuples = setup.db.last_stats.peak_live_tuples
        rc_seconds = measure(lambda: setup.db.execute(rc_sql), repeat)
        rc_tuples = setup.db.last_stats.peak_live_tuples
        table.record("ITERATE s", iterations, it_seconds)
        table.record("CTE s", iterations, rc_seconds)
        table.record("ITERATE tuples", iterations, float(it_tuples))
        table.record("CTE tuples", iterations, float(rc_tuples))
    table.print()
    return table


def run_ablation_csr(scale: float = 0.001, repeat: int = 1) -> SeriesTable:
    """The section 6.3 claim: the operator's CSR index vs the relational
    join formulation, isolated on one graph at growing iteration counts
    (joins are per-iteration; the CSR build is once)."""
    vertices, edges = 11_000, 452_000
    n_vertices = max(int(vertices * max(scale, 0.01)), 64)
    n_edges = max(int(edges * max(scale, 0.01)), 128)
    setup = setup_pagerank(n_vertices, n_edges, iterations=0)
    from ..workloads import pagerank_iterate_sql

    table = SeriesTable(
        f"Ablation §6.3 — CSR operator vs relational joins "
        f"({n_vertices}v/{setup.n_edges}e)",
        "iterations",
        ["CSR operator", "relational joins"],
    )
    for iterations in (5, 15, 45):
        op_sql = (
            f"SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
            f"0.85, 0.0, {iterations})"
        )
        join_sql = pagerank_iterate_sql("edges", 0.85, iterations)
        table.record(
            "CSR operator", iterations,
            measure(lambda: setup.db.execute(op_sql), repeat),
        )
        table.record(
            "relational joins", iterations,
            measure(lambda: setup.db.execute(join_sql), repeat),
        )
    table.print()
    return table


def run_ablation_lambda(
    scale: float = 0.001, repeat: int = 1
) -> SeriesTable:
    """Section 7's point, isolated inside one operator: the same k-Means
    run with (a) the default fused distance, (b) a user SQL lambda
    compiled to vectorised code, and (c) a lambda whose body is a
    black-box Python UDF — which the compiler must run row-at-a-time
    because it cannot inspect it (section 4.1)."""
    from ..types import DOUBLE

    n = max(_scaled_n(KMEANS_DEFAULTS["n"], scale) // 4, 16)
    d, k = 4, KMEANS_DEFAULTS["k"]
    setup = setup_kmeans(n, d, k)
    feats = ", ".join(setup.features)
    lam = " + ".join(f"(a.{f} - b.{f})^2" for f in setup.features)
    args = ", ".join(
        [f"a.{f}" for f in setup.features]
        + [f"b.{f}" for f in setup.features]
    )

    def metric_udf(*values: float) -> float:
        total = 0.0
        for i in range(d):
            diff = values[i] - values[d + i]
            total += diff * diff
        return total

    setup.db.create_function("py_metric", metric_udf, DOUBLE, arity=2 * d)

    variants = [
        ("default distance (fused kernel)", f"{3}"),
        ("SQL lambda (compiled)", f"LAMBDA(a, b) {lam}, 3"),
        (
            "Python UDF lambda (black box)",
            f"LAMBDA(a, b) py_metric({args}), 3",
        ),
    ]
    table = SeriesTable(
        f"Ablation §7 — lambda compilation (k-Means, n={n}, d={d}, "
        f"k={k})",
        "variant",
        ["runtime"],
    )
    for label, tail in variants:
        sql = (
            f"SELECT * FROM KMEANS((SELECT {feats} FROM data), "
            f"(SELECT {feats} FROM centers), {tail})"
        )
        table.record(
            "runtime", label,
            measure(lambda: setup.db.execute(sql), repeat),
        )
    table.print()
    return table


# ---------------------------------------------------------------------------
# Resource governor (docs/robustness.md)
# ---------------------------------------------------------------------------

def run_governor(
    scale: float = 0.001, repeat: int = 1
) -> SeriesTable:
    """Cancellation and deadline latency vs statement runtime.

    For each graph size, one non-convergent PAGERANK (epsilon=0, so it
    runs to the float fixpoint) is measured three ways:

    * **full runtime** — uninterrupted wall clock;
    * **cancel latency** — ``db.cancel()`` fires from another thread a
      quarter of the way in; the latency is cancel-signal to typed
      ``QueryCancelled``, bounded by one checkpoint interval (one SpMV
      round or one CSR build step), not by statement runtime;
    * **timeout latency** — a per-call deadline at a quarter of the
      runtime; the latency is deadline to typed ``QueryTimeout``.
    """
    import threading
    import time as _time

    from .. import Database
    from ..errors import QueryCancelled, QueryTimeout

    # The paper's LDBC-like graphs run to ~100M edges; scale 0.001
    # keeps the sweep laptop-sized.
    sweep = [
        max(_scaled_n(n, scale), 50_000)
        for n in (500_000_000, 1_000_000_000, 2_000_000_000)
    ]
    table = SeriesTable(
        "Resource governor — abort latency vs statement runtime "
        "(PAGERANK, epsilon=0)",
        "edges",
        ["full runtime", "cancel latency", "timeout latency"],
    )
    sql = (
        "SELECT * FROM PAGERANK((SELECT src, dst FROM e), "
        "0.85, 0.0, 1000000)"
    )
    for n_edges in sweep:
        db = Database(profile_operators=False)
        db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        rng = np.random.default_rng(7)
        n_vertices = max(n_edges // 13, 64)
        db.load_columns("e", {
            "src": rng.integers(0, n_vertices, size=n_edges),
            "dst": rng.integers(0, n_vertices, size=n_edges),
        })
        label = f"{n_edges:,}"

        full = measure(lambda: db.execute(sql), repeat)
        table.record(
            "full runtime", label, full,
            note=f"{db.last_governor['checkpoints']} checkpoints",
        )

        cancel_best = float("inf")
        for _ in range(max(repeat, 1)):
            outcome = {}

            def run():
                try:
                    db.execute(sql)
                    outcome["error"] = "completed"
                except QueryCancelled:
                    outcome["at"] = _time.perf_counter()

            thread = threading.Thread(target=run)
            thread.start()
            _time.sleep(full * 0.25)
            db.cancel()
            signalled = _time.perf_counter()
            thread.join()
            if "at" not in outcome:
                raise RuntimeError(
                    f"cancel bench: {outcome.get('error')}"
                )
            cancel_best = min(cancel_best, outcome["at"] - signalled)
        table.record(
            "cancel latency", label, cancel_best,
            note="signal to QueryCancelled",
        )

        timeout_best = float("inf")
        deadline_ms = full * 0.25 * 1e3
        for _ in range(max(repeat, 1)):
            start = _time.perf_counter()
            try:
                db.execute(sql, timeout_ms=deadline_ms)
                raise RuntimeError("timeout bench: completed")
            except QueryTimeout:
                observed = _time.perf_counter() - start
            timeout_best = min(
                timeout_best, observed - deadline_ms / 1e3
            )
        table.record(
            "timeout latency", label, timeout_best,
            note=f"deadline {deadline_ms:.0f}ms to QueryTimeout",
        )
        db.close()
    table.print()
    return table
