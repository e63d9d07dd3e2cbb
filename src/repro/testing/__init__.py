"""Differential correctness tooling (generator + SQLite oracle).

The paper's layers — recursive-CTE SQL, ITERATE, physical operators —
must agree on results; this package provides the machinery to check our
whole SQL surface against a reference implementation:

* :mod:`repro.testing.generator` — a deterministic, schema-aware random
  SQL workload generator (seed in, queries out).
* :mod:`repro.testing.oracle` — draws one engine configuration per
  seed, runs each query on that configuration, on a plain reference
  :class:`repro.Database` and on an in-memory ``sqlite3`` mirror of the
  same data, normalizes the results, and minimizes reproducers — query,
  configuration and data — on divergence.
* :mod:`repro.testing.fuzz` — the CLI entry point
  (``python -m repro.testing.fuzz --seeds N``).
"""

from .generator import (
    GenColumn,
    GenQuery,
    GenTable,
    QueryGenerator,
    expr_to_sql,
    random_ast_expr,
)
from .oracle import (
    Divergence,
    DifferentialOracle,
    FuzzConfig,
    draw_config,
    run_seed,
    run_seeds,
)

__all__ = [
    "GenColumn",
    "GenQuery",
    "GenTable",
    "QueryGenerator",
    "expr_to_sql",
    "random_ast_expr",
    "Divergence",
    "DifferentialOracle",
    "FuzzConfig",
    "draw_config",
    "run_seed",
    "run_seeds",
]
