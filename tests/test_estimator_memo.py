"""Every node of a plan carries the cardinality estimate it was planned
with (``LogicalPlan._estimate``): the estimator keeps each node's
estimate on the node, and ``StatementPipeline.plan_select`` stamps
every node of the plan it makes — children, loop bodies, subquery
plans. Execution, ``explain_analyze``, ``EXPLAIN`` and the history read
the stamp; no execution builds an optimizer to estimate again.

Estimating each node once must not change a single number or
provenance: every stamp must be exactly what a fresh walk of the
node's subtree computes, and every profiled operator's estimate and
source exactly those recorded in ``estimates_recorded.json`` (written
by the re-estimating code this replaced), for the TPC-H-shaped battery
(a superset of the ``olap`` workload's 16 queries) and the six
``ladder`` statements. After a deliberate estimator change, rewrite the
file with ``PYTHONPATH=src python -m tests.test_estimator_memo``.
"""

import json
import pathlib
from types import MethodType

import pytest

import repro
from repro.plan.cardinality import CardinalityEstimator
from repro.plan.logical import walk_plan
from repro.plan.optimizer import Optimizer
from repro.plan.stats import TableStatistics
from repro.sql.parser import parse_sql
from repro.testing import tpch
from repro.testing.oracle import build_repro_db
from repro.workloads import kmeans_iterate_sql

from .test_effects import BATTERY, LADDER
from .test_loop_hoisting import kmeans_db

RECORDED = pathlib.Path(__file__).with_name("estimates_recorded.json")


def rewalk(self, plan):
    """``estimate`` without the memo: every call estimates the node's
    whole subtree again, and nothing is kept on a node."""
    outer, self._used_stats = self._used_stats, False
    try:
        return max(self._estimate_node(plan), 0.0)
    finally:
        self._used_stats = outer or self._used_stats


def databases(tables) -> list:
    """``(database, statements)``: the battery, then the ladder."""
    battery = [path.read_text() for path in BATTERY]
    out = [
        (build_repro_db(tables, plan_cache=True, encoding="auto"), battery)
    ]
    out += [
        (make_db(plan_cache=True, encoding="auto"), statements)
        for make_db, statements in LADDER.items()
    ]
    return out


def observed(tables) -> list:
    """Every operator's label, estimate and source, on the second
    execution of each statement (a plan-cache hit, pinned on)."""
    out = []
    for db, statements in databases(tables):
        for sql in statements:
            db.execute(sql)
            analyzed = db.explain_analyze(sql)
            out.append([
                [n.label, n.estimated_rows, n.estimate_source]
                for n in analyzed.operators()
            ])
    return out


@pytest.fixture(scope="module")
def tables():
    return tpch.generate(scale=0.2, seed=7)


def test_memoized_estimates_match_the_subtree_walk(tables):
    checked = 0
    for db, statements in databases(tables):
        for sql in statements:
            txn = db.txns.begin()
            try:
                plan = db.pipeline.plan_select(parse_sql(sql)[0], txn)
                walker = db.pipeline.optimizer(txn).estimator
                walker.estimate = MethodType(rewalk, walker)
                for node in walk_plan(plan):
                    walker._used_stats = False
                    rows = walker.estimate(node)
                    source = "stats" if walker._used_stats else "static"
                    assert node.estimated() == (rows, source), node.describe()
                    checked += 1
            finally:
                txn.rollback()
    assert checked > 250


def test_operators_report_the_recorded_estimates(tables):
    got = observed(tables)
    assert sum(len(ops) for ops in got) > 250
    sources = {source for ops in got for *_rest, source in ops}
    assert {"stats", "static"} <= sources
    assert got == json.loads(RECORDED.read_text())


@pytest.fixture
def constructions(monkeypatch) -> dict:
    """How many optimizers, estimators and statistics providers have
    been built since the fixture was made."""
    counts = {}
    for cls in (Optimizer, CardinalityEstimator, TableStatistics):
        counts[cls.__name__] = 0
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_only_planning_builds_an_optimizer(constructions):
    db = repro.Database(plan_cache=True, profile_operators=True)
    db.execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
    db.insert_rows("kv", [(i, i * 10) for i in range(100)])
    point = "SELECT v FROM kv WHERE k = ?"

    def built(sql, params=None) -> dict:
        for name in constructions:
            constructions[name] = 0
        db.execute(sql, params)
        return dict(constructions)

    once = dict.fromkeys(constructions, 1)
    none = dict.fromkeys(constructions, 0)
    assert built(point, [3]) == once  # the miss plans
    assert built(point, [4]) == none  # the hit runs the cached plan
    assert built("UPDATE kv SET v = v + 1 WHERE k < 5") == none
    assert built("DELETE FROM kv WHERE k = 7") == none
    assert built("INSERT INTO kv VALUES (1000, (SELECT max(v) FROM kv))") \
        == none
    assert built("EXPLAIN SELECT v FROM kv WHERE k = 2") == once
    assert built("INSERT INTO kv SELECT k + 500, v FROM kv") == once


def test_subquery_and_loop_body_operators_carry_estimates():
    db = kmeans_db()
    correlated = db.explain_analyze(
        "SELECT id FROM pts WHERE x > "
        "(SELECT avg(c.x) FROM ctr c WHERE c.cid = pts.id)"
    )
    assert correlated.subplans
    loop = db.explain_analyze(
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], 2)
    )
    for analyzed in (correlated, loop):
        for node in analyzed.operators():
            if not node.label.startswith("LoopInvariant"):
                assert node.estimated_rows is not None, node.label
                assert node.estimate_source in ("static", "stats")
    body = loop.find("Iterate").children[1]
    assert body.estimated_rows is not None


def test_a_cached_plan_keeps_its_planned_estimate():
    db = repro.Database(plan_cache=True)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.insert_rows("t", [(i,) for i in range(10)])
    sql = "SELECT a FROM t"
    db.execute(sql)
    db.insert_rows("t", [(i,) for i in range(90)])
    analyzed = db.explain_analyze(sql)
    assert analyzed.counters["exec_plan_cache_hits_total"] == 1
    scan = analyzed.find("Scan(t)")
    assert scan.rows_out == 100
    assert scan.estimated_rows == 10.0


if __name__ == "__main__":
    # One statement a block, one operator a line.
    RECORDED.write_text("[\n%s\n]\n" % ",\n".join(
        "[\n%s\n]" % ",\n".join(json.dumps(op) for op in ops)
        for ops in observed(tpch.generate(scale=0.2, seed=7))
    ))
