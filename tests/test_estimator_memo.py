"""The cardinality estimator estimates each plan node once per
statement (``plan/cardinality.py::CardinalityEstimator._known``).

Stamping every profiled operator with its estimate used to re-estimate
the whole subtree under it. The memo must not change a single number
or provenance: every operator's estimate and source must be exactly
those of the re-walking estimator, for the TPC-H-shaped battery (a
superset of the ``olap`` workload's 16 queries) and the six ``ladder``
statements.
"""

import pytest

from repro.plan.cardinality import CardinalityEstimator
from repro.testing import tpch
from repro.testing.oracle import build_repro_db

from .test_effects import BATTERY, LADDER


def rewalk(self, plan):
    """``estimate`` as it was before the memo: every call estimates
    the node's whole subtree again. It records its answer so that
    ``estimate_with_source`` can read the provenance."""
    outer, self._used_stats = self._used_stats, False
    try:
        rows = max(self._estimate_node(plan), 0.0)
        self._known[id(plan)] = (plan, rows, self._used_stats)
    finally:
        self._used_stats = outer or self._used_stats
    return rows


def observed(make_db, statements) -> list:
    """Every operator's label, estimate and source, on the second
    execution of each statement (a plan-cache hit, pinned on)."""
    db = make_db(plan_cache=True)
    out = []
    for sql in statements:
        db.execute(sql)
        analyzed = db.explain_analyze(sql)
        out.append([
            (n.label, n.estimated_rows, n.estimate_source)
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


def test_memoized_estimates_match_the_subtree_walk(tables, monkeypatch):
    once = every_statement(tables)
    assert sum(len(ops) for ops in once) > 250
    sources = {source for ops in once for *_rest, source in ops}
    assert {"stats", "static"} <= sources
    monkeypatch.setattr(CardinalityEstimator, "estimate", rewalk)
    assert every_statement(tables) == once
