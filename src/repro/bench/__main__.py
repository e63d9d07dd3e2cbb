"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench all --scale 0.001
    python -m repro.bench fig4_tuples fig5_pagerank --scale 0.01 --repeat 3

Experiments (paper locations in parentheses):

    table1             dataset grid validation (Table 1)
    fig4_tuples        k-Means runtime vs number of tuples (Fig. 4 left)
    fig4_dims          k-Means runtime vs dimensions (Fig. 4 middle)
    fig4_clusters      k-Means runtime vs clusters (Fig. 4 right)
    fig5_pagerank      PageRank vs graph size (Fig. 5 left)
    fig5_nb_tuples     Naive Bayes train vs tuples (Fig. 5 middle)
    fig5_nb_dims       Naive Bayes train vs dimensions (Fig. 5 right)
    fig1_layers        the four integration layers on one workload (Fig. 1)
    ablation_iterate   ITERATE vs recursive CTE memory & time (§5.1/§8.4.1)
    ablation_csr       CSR operator vs relational joins (§6.3/§8.4.2)
    ablation_lambda    compiled lambda vs interpreted UDF metric (§7)
    governor           cancellation/deadline abort latency vs statement
                       runtime (docs/robustness.md)

``--scale`` scales the paper's data sizes (default 0.001: 1/1000 of the
1 TB-server workloads, laptop-sized). Runtimes will not match the
paper's absolute numbers; the series *ordering* and scaling shape should.
"""

from __future__ import annotations

import argparse
import sys

from ..obs.metrics import global_registry
from .runner import write_bench_json
from .figures import (
    run_ablation_csr,
    run_ablation_iterate,
    run_ablation_lambda,
    run_fig1_layers,
    run_fig4_clusters,
    run_fig4_dims,
    run_fig4_tuples,
    run_fig5_nb_dims,
    run_fig5_nb_tuples,
    run_fig5_pagerank,
    run_governor,
    run_table1,
)

EXPERIMENTS = {
    "table1": run_table1,
    "fig4_tuples": run_fig4_tuples,
    "fig4_dims": run_fig4_dims,
    "fig4_clusters": run_fig4_clusters,
    "fig5_pagerank": run_fig5_pagerank,
    "fig5_nb_tuples": run_fig5_nb_tuples,
    "fig5_nb_dims": run_fig5_nb_dims,
    "fig1_layers": run_fig1_layers,
    "ablation_iterate": run_ablation_iterate,
    "ablation_csr": run_ablation_csr,
    "ablation_lambda": run_ablation_lambda,
    "governor": run_governor,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, or 'all'",
    )
    parser.add_argument(
        "--scale", type=float, default=0.001,
        help="fraction of the paper's data sizes (default 0.001)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per point (best is reported)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write all measured points to a JSON file",
    )
    parser.add_argument(
        "--results-dir", metavar="DIR", default="results",
        help=(
            "directory for per-experiment BENCH_<name>.json files, "
            "each embedding a metrics snapshot (default: results)"
        ),
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else (
        args.experiments
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments {unknown}; choose from "
            f"{sorted(EXPERIMENTS)} or 'all'"
        )
    tables = {}
    for name in names:
        # Experiments open their own Database sessions; those mirror
        # into the process-wide registry, so resetting it before each
        # experiment gives a per-experiment metrics snapshot.
        global_registry().reset()
        tables[name] = EXPERIMENTS[name](
            scale=args.scale, repeat=args.repeat
        )
        path = write_bench_json(
            name, tables[name], directory=args.results_dir,
            metrics=global_registry().snapshot(),
        )
        print(f"wrote {path}")
    if args.json is not None:
        import json

        payload = {
            name: table.to_dict() for name, table in tables.items()
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
