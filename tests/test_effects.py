"""The effect analysis (``expr/effects.py``).

Pushdown, zone-map pruning, loop hoisting, round sharing, the
empty-side join skip and parallel dispatch each used to answer their
question about an expression or a subplan with a walk of their own.
The walks are kept here, as they were, as references: every consumer's
question must answer the same through ``effects`` / ``plan_effects``
for every expression and every plan node of the bound and the
optimized plans of the TPC-H-shaped battery, the six ``ladder``
statements, the loop-hoisting step shapes, a few statements with user
code and parameters, and the queries of generator seeds 0-499.

The one answer allowed to differ is the *order* of the subqueries a
scan runs when it opens: the walk listed them right to left, the fold
lists them as they evaluate, inner before outer and left to right. The
set is the same.
"""

import gc
import pathlib
import weakref
from collections import Counter
from typing import Iterator

import pytest

from repro.errors import ReproError
from repro.exec.scan import opening_subqueries
from repro.expr import bound as b
from repro.expr.bound import BoundParam, BoundSubquery, BoundUDF
from repro.expr.effects import (
    effects,
    plan_effects,
    prune_safe,
    statement_constant,
)
from repro.plan import logical as lp
from repro.plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSetOp,
    LogicalSort,
    LogicalTableFunction,
    LogicalValues,
    LogicalWorkingTableRef,
    plan_expressions,
    walk_plan,
)
from repro.sql.parser import parse_sql
from repro.testing import tpch
from repro.testing.generator import QueryGenerator
from repro.testing.oracle import (
    DEFAULT_QUERIES_PER_SEED,
    build_repro_db,
    draw_config,
)
from repro.types import BOOLEAN, INTEGER, infer_literal_type

from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)

from .test_loop_hoisting import (
    INIT,
    SHAPES,
    STOP,
    graph_db,
    iterate_sql,
    kmeans_db,
    seeded_db,
    twice,
)

#: The TPC-H-shaped battery, a superset of the ``olap`` workload's 16
#: queries.
BATTERY = sorted(
    (pathlib.Path(__file__).parent / "sql_battery").glob("*.sql")
)

#: The six ``ladder`` statements, small: database builder -> statements.
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

# ---------------------------------------------------------------------------
# The walks the analysis replaced, as they were
# ---------------------------------------------------------------------------

def walk_expressions(node: lp.LogicalPlan) -> Iterator[b.BoundExpr]:
    """``plan/logical.py::walk_expressions``, which the walks used."""
    stack = plan_expressions(node)
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(expr.children())


_SAFE_BINARY_OPS = frozenset(
    {"and", "or", "=", "<>", "!=", "<", "<=", ">", ">=",
     "+", "-", "*", "^", "||"}
)

_SAFE_UNARY_OPS = frozenset({"-", "+", "not"})


def walked_prune_safe(
    expr: b.BoundExpr, prebuilt: frozenset = frozenset()
) -> bool:
    """``storage/zonemap.py::prune_safe``."""
    if isinstance(expr, (b.BoundLiteral, b.BoundColumnRef, b.BoundParam)):
        return True
    if isinstance(expr, b.BoundUnary):
        return (
            expr.op in _SAFE_UNARY_OPS
            and walked_prune_safe(expr.operand, prebuilt)
        )
    if isinstance(expr, b.BoundBinary):
        return (
            expr.op in _SAFE_BINARY_OPS
            and walked_prune_safe(expr.left, prebuilt)
            and walked_prune_safe(expr.right, prebuilt)
        )
    if isinstance(expr, b.BoundIsNull):
        return walked_prune_safe(expr.operand, prebuilt)
    if isinstance(expr, b.BoundInList):
        return walked_prune_safe(expr.operand, prebuilt) and all(
            walked_prune_safe(item, prebuilt) for item in expr.items
        )
    if isinstance(expr, b.BoundSubquery) and id(expr) in prebuilt:
        return expr.probe is None or walked_prune_safe(expr.probe, prebuilt)
    return False


def walked_parallel_safe(expr: b.BoundExpr) -> bool:
    """``exec/parallel.py::_parallel_safe``."""
    stack: list[b.BoundExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (b.BoundSubquery, b.BoundUDF)):
            return False
        stack.extend(node.children())
    return True


def walked_loop_dependencies(
    plan: lp.LogicalPlan, memo: dict[int, tuple[frozenset[str], bool]]
) -> tuple[frozenset[str], bool]:
    """``plan/logical.py::loop_dependencies``."""
    known = memo.get(id(plan))
    if known is not None:
        return known
    keys: set[str] = set()
    volatile = isinstance(plan, LogicalTableFunction)
    if isinstance(plan, LogicalWorkingTableRef):
        keys.add(plan.key)
    below = list(plan.children())
    for expr in walk_expressions(plan):
        if isinstance(expr, BoundSubquery):
            below.append(expr.plan)
        elif isinstance(expr, BoundUDF) or (
            isinstance(expr, BoundParam) and not expr.slot.startswith("?")
        ):
            volatile = True
    for node in below:
        node_keys, node_volatile = walked_loop_dependencies(node, memo)
        keys |= node_keys
        volatile = volatile or node_volatile
    memo[id(plan)] = result = (frozenset(keys), volatile)
    return result


def walked_statement_constant(expr: BoundSubquery) -> bool:
    """``plan/logical.py::statement_constant``."""
    return not expr.outer_slots and not walked_loop_dependencies(
        expr.plan, {}
    )[1]


_QUIET_NODES = (
    LogicalScan, LogicalWorkingTableRef, LogicalValues, LogicalFilter,
    LogicalProject, LogicalJoin, LogicalAggregate, LogicalSort,
    LogicalLimit, LogicalDistinct, LogicalSetOp,
)


def walked_unobservable(plan: lp.LogicalPlan) -> bool:
    """``exec/join.py::_unobservable``."""
    return all(
        isinstance(node, _QUIET_NODES)
        and all(walked_prune_safe(expr) for expr in plan_expressions(node))
        for node in walk_plan(plan)
    )


def walked_runs_user_code(plan) -> bool:
    """``expr/compiler.py::_runs_user_code``."""
    return any(
        isinstance(node, LogicalTableFunction)
        or any(isinstance(e, b.BoundUDF) for e in walk_expressions(node))
        for node in walk_plan(plan)
    )


def walked_opening_subqueries(predicates: list) -> list[BoundSubquery]:
    """``exec/scan.py::opening_subqueries``."""
    found = []
    stack = list(predicates)
    while stack:
        expr = stack.pop()
        if isinstance(expr, BoundSubquery) and walked_statement_constant(
            expr
        ):
            found.append(expr)
        stack.extend(expr.children())
    return found


def walked_movable(conjunct: b.BoundExpr) -> bool:
    """``plan/rules.py::_movable``."""
    stack = [conjunct]
    while stack:
        node = stack.pop()
        if isinstance(
            node, b.BoundSubquery
        ) and not walked_statement_constant(node):
            return False
        stack.extend(node.children())
    return True


def walked_referenced_slots(self) -> set[str]:
    """``expr/bound.py::BoundExpr.referenced_slots``."""
    slots: set[str] = set()
    stack: list[b.BoundExpr] = [self]
    while stack:
        node = stack.pop()
        if isinstance(node, b.BoundColumnRef):
            slots.add(node.slot)
        stack.extend(node.children())
    return slots


def walked_consumed_slots(self) -> set[str]:
    """``expr/bound.py::BoundExpr.consumed_slots``."""
    slots: set[str] = set()
    stack: list[b.BoundExpr] = [self]
    while stack:
        node = stack.pop()
        if isinstance(node, b.BoundColumnRef):
            slots.add(node.slot)
        elif isinstance(node, b.BoundSubquery):
            slots.update(node.outer_slots)
        stack.extend(node.children())
    return slots


def walked_contains_subquery(self) -> bool:
    """``expr/bound.py::BoundExpr.contains_subquery``."""
    stack: list[b.BoundExpr] = [self]
    while stack:
        node = stack.pop()
        if isinstance(node, b.BoundSubquery):
            return True
        stack.extend(node.children())
    return False


def walked_reads_a_parameter(body: b.BoundExpr) -> bool:
    """The ``BoundParam`` walk of ``analytics/pagerank.py``'s weight
    cache key (True where it returned None)."""
    stack = [body]
    while stack:
        sub = stack.pop()
        if isinstance(sub, b.BoundParam):
            return True
        stack.extend(sub.children())
    return False


def walked_collect_params(plan: lp.LogicalPlan) -> set[str]:
    """``sql/binder.py::Binder._collect_params``."""
    return {
        expr.slot
        for node in lp.walk_plan(plan)
        for expr in walk_expressions(node)
        if isinstance(expr, b.BoundParam)
    }


# ---------------------------------------------------------------------------
# Comparing every consumer's question
# ---------------------------------------------------------------------------


def compare(plan: lp.LogicalPlan, seen: Counter) -> None:
    """Assert every question answers the same for every plan node and
    expression node of ``plan``; count the answers in ``seen``."""
    memo: dict = {}
    for node in walk_plan(plan):
        found = plan_effects(node)
        keys, volatile = walked_loop_dependencies(node, memo)
        assert found.working_tables == keys, node.describe()
        assert found.volatile == volatile, node.describe()
        assert found.user_code == walked_runs_user_code(node)
        assert found.quiet == walked_unobservable(node), node.describe()
        assert found.params == walked_collect_params(node)
        seen["volatile", volatile] += 1
        seen["quiet", found.quiet] += 1
        seen["reads a working table", bool(keys)] += 1
        for expr in walk_expressions(node):
            compare_expr(expr, seen)


def compare_expr(expr: b.BoundExpr, seen: Counter) -> None:
    found = effects(expr)
    label = repr(expr)[:200]
    assert found.reads == walked_referenced_slots(expr), label
    assert found.consumed == walked_consumed_slots(expr), label
    assert bool(found.subqueries) == walked_contains_subquery(expr), label
    assert found.parallel_safe == walked_parallel_safe(expr), label
    assert bool(found.params) == walked_reads_a_parameter(expr), label
    assert all(
        statement_constant(s) for s in found.subqueries
    ) == walked_movable(expr), label
    walked_opening = walked_opening_subqueries([expr])
    assert sorted(map(id, opening_subqueries([expr]))) == sorted(
        map(id, walked_opening)
    ), label
    prebuilt = frozenset(id(s) for s in walked_opening)
    for ids in (frozenset(), prebuilt):
        assert prune_safe(expr, ids) == walked_prune_safe(expr, ids), label
    if isinstance(expr, BoundSubquery):
        constant = walked_statement_constant(expr)
        assert statement_constant(expr) == constant, label
        seen["statement constant", constant] += 1
    seen["prune safe", prune_safe(expr, prebuilt)] += 1
    seen["parallel safe", found.parallel_safe] += 1
    seen["correlated", found.correlated] += 1


def compare_statement(db, sql: str, seen: Counter, values=None) -> None:
    """Compare on the bound and on the optimized plan of ``sql``."""
    statement = parse_sql(sql, values, parameterize=values is not None)[0]
    param_types = (
        [infer_literal_type(v) for v in values] if values else None
    )
    txn = db.txns.begin()
    try:
        bound = db.pipeline.binder(txn, param_types).bind_query(statement)
        optimized = db.pipeline.optimizer(txn).optimize(bound)
    finally:
        txn.rollback()
    compare(bound, seen)
    compare(optimized, seen)
    seen["statements"] += 1


def test_battery_and_ladder_answer_as_the_walks():
    seen: Counter = Counter()
    db = build_repro_db(tpch.generate(scale=0.05, seed=7))
    for path in BATTERY:
        compare_statement(db, path.read_text(), seen)
    for make_db, statements in LADDER.items():
        db = make_db()
        for sql in statements:
            compare_statement(db, sql, seen)
    assert seen["statements"] == len(BATTERY) + 6
    assert seen["statement constant", True]
    assert seen["reads a working table", True]
    assert seen["volatile", True] and seen["volatile", False]
    assert seen["quiet", True] and seen["quiet", False]
    assert seen["prune safe", True] and seen["prune safe", False]


#: Statements holding what neither the battery nor the ladder does: a
#: Python UDF (in a correlated and in an uncorrelated subquery),
#: statement parameters next to correlated ones, and lambdas.
USER_CODE = [
    ("SELECT k FROM t WHERE v > (SELECT max(twice(w)) FROM u WHERE u.k = t.k)",
     None),
    ("SELECT k FROM t WHERE k IN (SELECT twice(k) FROM u) AND v > ?", (2,)),
    ("SELECT k, (SELECT count(*) FROM u WHERE u.w > t.v + ?) FROM t", (1,)),
    ("SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k "
     "AND u.w % 2 = 0) OR v / 2 > 1", None),
    ("SELECT cluster, x FROM KMEANS((SELECT k AS x, v AS y FROM t), "
     "(SELECT k AS x, w AS y FROM u), "
     "LAMBDA(a, b) (a.x - b.x)^2 + abs(a.y - b.y), 3) ORDER BY cluster",
     None),
]


def test_shapes_and_user_code_answer_as_the_walks():
    seen: Counter = Counter()
    db = seeded_db(0)
    db.create_function("twice", twice, "INTEGER")
    for step, _hoists, _shares in SHAPES.values():
        compare_statement(db, iterate_sql(INIT, step, STOP), seen)
    for sql, values in USER_CODE:
        compare_statement(db, sql, seen, values)
    assert seen["statements"] == len(SHAPES) + len(USER_CODE)
    assert seen["parallel safe", False]
    assert seen["correlated", True]
    assert seen["statement constant", True]
    assert seen["statement constant", False]


@pytest.mark.parametrize("block", range(5))
def test_generated_queries_answer_as_the_walks(block):
    """Generator seeds 0-499, in five blocks of 100."""
    seen: Counter = Counter()
    for seed in range(100 * block, 100 * (block + 1)):
        schema = draw_config(seed).schema
        generator = QueryGenerator(seed, schema_profile=schema)
        tables = generator.schema()
        db = build_repro_db(tables, plan_cache=False)
        for _ in range(DEFAULT_QUERIES_PER_SEED):
            sql = generator.query(tables).to_sql()
            try:
                compare_statement(db, sql, seen)
            except ReproError:
                seen["rejected"] += 1
    assert seen["statements"] > 250
    assert seen["prune safe", True] and seen["prune safe", False]


# ---------------------------------------------------------------------------
# A freed node's answer dies with it
# ---------------------------------------------------------------------------


def test_answers_survive_freed_nodes():
    """The answer lives on the node: a node freed after it was asked
    about cannot hand its answer to a later node at its address, as an
    ``id(node)``-keyed memo could."""

    def node(i: int, divides: bool):
        left = b.BoundColumnRef(f"a{i}", INTEGER)
        right = b.BoundColumnRef(f"b{i}", INTEGER)
        op = "/" if divides else "+"
        predicate = b.BoundBinary(op, left, right, INTEGER)
        return LogicalFilter(LogicalWorkingTableRef(f"w{i}", []), predicate)

    first = node(0, True)
    assert not plan_effects(first).quiet
    assert effects(first.predicate).may_raise
    del first
    for i in range(1, 2001):
        divides = i % 2 == 0
        temp = node(i, divides)
        found = effects(temp.predicate)
        assert found.may_raise == divides, i
        assert found.reads == {f"a{i}", f"b{i}"}, i
        assert plan_effects(temp).quiet != divides, i
        assert plan_effects(temp).working_tables == {f"w{i}"}, i
        del temp, found


def test_a_subquery_is_freed_without_the_cycle_collector():
    """A subquery's answer lists the subquery: kept on the node itself it
    would make a cycle, and every dropped plan holding a subquery would
    wait for the cycle collector."""
    subquery = b.BoundSubquery(
        plan=LogicalWorkingTableRef("w", []), kind="exists",
        sql_type=BOOLEAN,
    )
    predicate = b.BoundUnary("not", subquery, BOOLEAN)
    assert effects(subquery).subqueries == (subquery,)
    assert effects(predicate).subqueries == (subquery,)
    assert plan_effects(LogicalFilter(subquery.plan, predicate)).working_tables
    freed = weakref.ref(subquery)
    gc.collect()
    gc.disable()
    try:
        del predicate, subquery
        assert freed() is None
    finally:
        gc.enable()
