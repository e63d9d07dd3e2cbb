"""Feedback node keys (``plan/feedback.py::FeedbackKeys``).

A node's key names its class and the base tables beneath it. Each
node's tables are united from its children's once per plan, bottom-up,
instead of walking its whole subtree at every node; the keys — and the
estimates that look feedback up by them — must be exactly those of the
walk, for the TPC-H-shaped battery (a superset of the ``olap``
workload's 16 queries) and the six ``ladder`` statements.
"""

import pathlib

import pytest

from repro.plan import logical as lp
from repro.plan.feedback import FeedbackKeys
from repro.testing import tpch
from repro.testing.oracle import build_repro_db
from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)

from .test_loop_hoisting import graph_db, kmeans_db

BATTERY = sorted(
    (pathlib.Path(__file__).parent / "sql_battery").glob("*.sql")
)

LADDER = {
    kmeans_db: [
        "SELECT cluster, x, y FROM KMEANS((SELECT x, y FROM pts), "
        "(SELECT x, y FROM ctr), 3) ORDER BY cluster",
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3),
        kmeans_recursive_sql("pts", "ctr", ["x", "y"], 3),
    ],
    graph_db: [
        "SELECT vertex, rank FROM PAGERANK((SELECT src, dest FROM edges), "
        "0.85, 0.0, 7) ORDER BY vertex",
        pagerank_iterate_sql("edges", 0.85, 7),
        pagerank_recursive_sql("edges", 0.85, 7),
    ],
}


def walked_base(plan: lp.LogicalPlan) -> str:
    """The key as the per-node subtree walk built it."""
    tables: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, lp.LogicalScan):
            tables.add(node.table_name)
        stack.extend(node.children())
    name = type(plan).__name__[len("Logical"):]
    return f"{name}[{','.join(sorted(tables))}]"


def observed(make_db, statements) -> list:
    """Every operator's key and estimate, on the third execution of
    each statement — the first two leave feedback for the estimator,
    which reaches it through the plan cache (pinned on)."""
    db = make_db(plan_cache=True)
    out = []
    for sql in statements:
        db.execute(sql)
        db.execute(sql)
        analyzed = db.explain_analyze(sql)
        out.append([
            (n.label, n.node_key, n.estimated_rows, n.estimate_source)
            for n in analyzed.operators()
        ])
    return out


@pytest.fixture(scope="module")
def tables():
    return tpch.generate(scale=0.2, seed=7)


def every_statement(tables) -> list:
    battery = [path.read_text() for path in BATTERY]
    out = observed(
        lambda **kwargs: build_repro_db(tables, **kwargs), battery
    )
    for make_db, statements in LADDER.items():
        out += observed(make_db, statements)
    return out


def test_keys_and_estimates_match_the_subtree_walk(tables, monkeypatch):
    once = every_statement(tables)
    assert sum(len(ops) for ops in once) > 250
    assert any(
        source == "feedback" for ops in once for *_rest, source in ops
    )
    monkeypatch.setattr(
        FeedbackKeys, "base", lambda self, plan: walked_base(plan)
    )
    assert every_statement(tables) == once

