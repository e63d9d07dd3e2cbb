"""Loop-invariant hoisting in ITERATE / recursive-CTE bodies
(src/repro/exec/hoist.py, docs/performance.md).

SQLite has no ITERATE, so the referee here is the paper's layer 2: the
same init/step/stop run as a client-side driver loop against a real
table named ``iterate`` — plain SELECTs, where nothing is a loop and
nothing can be hoisted or cached across rounds.
"""

import gc
import random
import threading
import time

import pytest

import repro
from repro.errors import (
    IterationLimitError,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.types import TypeKind
from repro.workloads import (
    kmeans_iterate_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)
from repro.workloads.kmeans_sql import _assignment_subquery

#: Fires on an emptied relation too, so no shape can loop forever.
STOP = "SELECT count(*) = 0 OR max(it) >= 3 FROM iterate"


def drive_iterate(db, init: str, step: str, stop: str) -> list[tuple]:
    """``ITERATE((init), (step), (stop))`` as a driver loop: the
    working relation is the base table ``"iterate"``, replaced after
    every step; the stop rule is IterateOp's (any TRUE in a boolean
    first column, else any row)."""
    db.execute(f'CREATE TABLE "iterate" AS {init}')
    try:
        for _round in range(100):
            verdict = db.execute(stop)
            if verdict.types[0].kind is TypeKind.BOOLEAN:
                if any(row[0] for row in verdict.rows):
                    break
            elif verdict.rows:
                break
            rows = db.execute(step).rows
            db.execute('DELETE FROM "iterate"')
            db.insert_rows("iterate", rows)
        else:
            raise AssertionError("driver loop did not stop")
        return sorted(db.execute("SELECT * FROM iterate").rows)
    finally:
        db.execute('DROP TABLE "iterate"')


def iterate_sql(init: str, step: str, stop: str) -> str:
    return f"SELECT * FROM ITERATE(({init}), ({step}), ({stop}))"


def counter(db, name: str) -> float:
    return db.metrics.snapshot()["counters"].get(name, 0.0)


def seeded_db(seed: int) -> repro.Database:
    """``t(k, v)``: 10 rows over keys 0..4; ``u(k, w)``: one row per
    key. Small integers only, so every shape is exact."""
    rng = random.Random(seed)
    db = repro.Database()
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.insert_rows(
        "t", [(rng.randrange(5), rng.randrange(-9, 10)) for _ in range(10)]
    )
    db.execute("CREATE TABLE u (k INTEGER, w INTEGER)")
    db.insert_rows("u", [(k, rng.randrange(-5, 6)) for k in range(5)])
    return db


INIT = "SELECT k, v AS x, 0 AS it FROM t"

#: The k-Means assignment (``asg``) over ``u``'s points and the working
#: relation's centres: ``dist`` inlined twice, integer coordinates, so
#: points sit at equal distance from several centres and the join-back's
#: ``min(cid)`` breaks the ties.
KMEANS_ASSIGNMENT = _assignment_subquery(
    "u", "iterate", "k", "k", ["w"], ["x"]
)

#: A grouped derived table over the working relation (one row per key).
PER_KEY = (
    "(SELECT k, sum({x}) AS s, max(it) AS it FROM iterate {where}GROUP BY k)"
)

#: The working relation ranked within each key.
RANKED = (
    "(SELECT k, x, it, row_number() OVER (PARTITION BY k ORDER BY x) AS rn "
    "FROM iterate)"
)

#: name -> (step, hoists, shares): ``hoists`` says whether the step
#: holds a subtree the planner must materialise once per loop,
#: ``shares`` whether it holds copies of one subtree over the working
#: relation that run once per round for all of them.
SHAPES = {
    "join_with_invariant_filtered_table": (
        "SELECT i.k, i.x + f.w AS x, i.it + 1 AS it FROM iterate i "
        "JOIN (SELECT k, w FROM u WHERE w > -2) f ON i.k = f.k",
        True,
        False,
    ),
    "invariant_union_cte_referenced_twice": (
        "WITH c AS (SELECT k FROM t UNION SELECT k + 1 FROM u), "
        "a AS (SELECT count(*) AS n FROM c) "
        "SELECT i.k, i.x + a.n - b.lo AS x, i.it + 1 AS it "
        "FROM iterate i, a, (SELECT min(k) AS lo FROM c) b",
        True,
        False,
    ),
    "scalar_in_exists_subqueries_over_iterate": (
        "SELECT k, x + (SELECT max(x) FROM iterate) AS x, it + 1 AS it "
        "FROM iterate WHERE k IN (SELECT k FROM iterate WHERE x >= "
        "(SELECT min(x) FROM iterate) + 1) "
        "AND EXISTS (SELECT 1 FROM iterate WHERE it < 9)",
        False,
        False,
    ),
    "invariant_subquery_next_to_variant_one": (
        "SELECT k, x + (SELECT sum(w) FROM u) "
        "- (SELECT count(*) FROM iterate WHERE x > 0) AS x, it + 1 AS it "
        "FROM iterate",
        False,
        False,
    ),
    # ``e`` and ``d`` meet only through the working table in the FROM
    # list; the optimizer joins them to each other first.
    "two_invariant_tables_joined_through_the_working_table": (
        "SELECT i.k, i.x + e.v + d.w AS x, i.it + 1 AS it "
        "FROM iterate i, t e, u d WHERE i.k = e.k AND e.k = d.k",
        True,
        False,
    ),
    # ``o`` reads the *outer* working table: invariant for the inner
    # loop only. ``m`` is invariant for both and belongs to the outer.
    "nested_iterate_reading_outer_working_table": (
        "WITH o AS (SELECT sum(x) AS s FROM iterate) "
        "SELECT w.k, w.x + n.y AS x, w.it + 1 AS it FROM iterate w, "
        "(SELECT y FROM ITERATE((SELECT 0 AS y, 0 AS j), "
        "(SELECT i.y + o.s + m.c AS y, i.j + 1 AS j FROM iterate i, o, "
        "(SELECT count(*) AS c FROM t WHERE v > 0) m), "
        "(SELECT 1 FROM iterate WHERE j >= 2))) n",
        True,
        False,
    ),
    # -- shared within a round ----------------------------------------------
    "derived_table_over_iterate_under_two_aliases": (
        f"WITH d AS {PER_KEY.format(x='x', where='')} "
        "SELECT a.k, a.s + b.s AS x, a.it + 1 AS it "
        "FROM d a JOIN d b ON a.k = b.k",
        False,
        True,
    ),
    "kmeans_min_join_with_equidistant_ties": (
        "SELECT i.k, i.x + coalesce(n.c, 0) AS x, i.it + 1 AS it "
        "FROM iterate i LEFT JOIN (SELECT cid, count(*) AS c "
        f"FROM ({KMEANS_ASSIGNMENT}) asg GROUP BY cid) n ON i.k = n.cid",
        False,
        True,
    ),
    # One join written in both orders over all-INTEGER columns; the
    # optimizer builds both with ``g`` (larger than the working table's
    # estimate) on the left. The aggregates above read its columns in
    # opposite roles, so a copy renamed by the wrong positions would
    # negate ``r.s``.
    "mirrored_joins_of_equal_column_types": (
        "WITH g AS (SELECT t1.k, t1.v FROM t t1, t t2, t t3, u) "
        "SELECT i.k, i.x + coalesce(l.s, 0) - coalesce(r.s, 0) AS x, "
        "i.it + 1 AS it FROM iterate i "
        "LEFT JOIN (SELECT a.k, sum(a.x - b.v) AS s FROM iterate a "
        "JOIN g b ON a.k = b.k GROUP BY a.k) l ON i.k = l.k "
        "LEFT JOIN (SELECT a.k, sum(b.v - a.x) AS s FROM g b "
        "JOIN iterate a ON a.k = b.k GROUP BY a.k) r ON i.k = r.k",
        True,
        True,
    ),
    "window_over_iterate_under_two_aliases": (
        f"WITH w AS {RANKED} "
        "SELECT a.k, a.x + b.rn AS x, a.it + 1 AS it "
        "FROM w a JOIN w b ON a.k = b.k AND a.rn = b.rn",
        False,
        True,
    ),
    # -- copies that are not shared -----------------------------------------
    "copies_differing_in_a_literal": (
        "SELECT a.k, a.s + b.s AS x, a.it + 1 AS it "
        f"FROM {PER_KEY.format(x='x', where='WHERE x > 0 ')} a "
        f"JOIN {PER_KEY.format(x='x', where='WHERE x > 1 ')} b "
        "ON a.k = b.k",
        False,
        False,
    ),
    # ``o`` reads the outer working table, ``q`` the inner one.
    "copies_over_the_outer_and_the_inner_working_table": (
        "WITH o AS (SELECT sum(x) AS s FROM iterate) "
        "SELECT w.k, w.x + n.x AS x, w.it + 1 AS it FROM iterate w, "
        "(SELECT x FROM ITERATE((SELECT 0 AS k, 1 AS x, 0 AS it), "
        "(SELECT i.k, i.x + o.s + q.s AS x, i.it + 1 AS it "
        "FROM iterate i, o, (SELECT sum(x) AS s FROM iterate) q), "
        "(SELECT 1 FROM iterate WHERE it >= 2))) n",
        True,
        False,
    ),
    "copies_holding_a_python_udf": (
        "SELECT a.k, a.s + b.s AS x, a.it + 1 AS it "
        f"FROM {PER_KEY.format(x='twice(x)', where='')} a "
        f"JOIN {PER_KEY.format(x='twice(x)', where='')} b ON a.k = b.k",
        False,
        False,
    ),
    "copy_under_a_correlated_subquery": (
        "SELECT i.k, i.x + m.n + (SELECT count(*) FROM "
        "(SELECT k FROM iterate WHERE x > 0) c WHERE c.k = i.k) AS x, "
        "i.it + 1 AS it FROM iterate i, "
        "(SELECT count(*) AS n FROM (SELECT k FROM iterate WHERE x > 0) c) m",
        False,
        False,
    ),
}


def twice(value):
    return None if value is None else 2 * value


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_step_shapes_match_the_driver_loop(shape, seed):
    step, hoists, shares = SHAPES[shape]
    db = seeded_db(seed)
    db.create_function("twice", twice, "INTEGER")
    expected = drive_iterate(db, INIT, step, STOP)
    before = counter(db, "exec_loop_invariant_materialized_total")
    before_shared = counter(db, "exec_loop_shared_reused_total")
    got = sorted(db.execute(iterate_sql(INIT, step, STOP)).rows)
    assert got == expected
    hoisted = counter(db, "exec_loop_invariant_materialized_total") - before
    assert (hoisted > 0) == hoists
    shared = counter(db, "exec_loop_shared_reused_total") - before_shared
    assert (shared > 0) == shares


def test_copies_holding_a_python_udf_call_it_every_time():
    db = seeded_db(2)
    calls = []

    def counted(value):
        calls.append(value)
        return twice(value)

    db.create_function("twice", counted, "INTEGER")
    step = SHAPES["copies_holding_a_python_udf"][0]
    expected = drive_iterate(db, INIT, step, STOP)
    driver_calls = len(calls)
    assert driver_calls > 0
    del calls[:]
    assert sorted(db.execute(iterate_sql(INIT, step, STOP)).rows) == expected
    assert len(calls) == driver_calls


#: Seed 23 draws ten distinct ``v``: one loop execution per outer row.
@pytest.mark.parametrize("seed", [*range(6), 23])
def test_iterate_inside_a_correlated_subquery(seed):
    """One loop execution per distinct outer ``v`` (the correlated
    subquery runs once per parameter value): the hoisted batch of one
    execution must not leak into the next, and the subtree holding the
    correlated parameter is not hoisted at all."""
    db = seeded_db(seed)
    init = "SELECT {v} AS x, 0 AS it"
    step = (
        "SELECT i.x + a.n + b.n AS x, i.it + 1 AS it FROM iterate i, "
        "(SELECT count(*) AS n FROM u WHERE w > 0) a, "
        "(SELECT count(*) AS n FROM u WHERE w > {v}) b"
    )
    outer = db.execute("SELECT k, v FROM t").rows
    expected = sorted(
        (k, v, drive_iterate(
            db, init.format(v=v), step.format(v=v), STOP)[0][0])
        for k, v in outer
    )
    loop = iterate_sql(init.format(v="t.v"), step.format(v="t.v"), STOP)
    got = db.execute(f"SELECT k, v, (SELECT max(x) FROM ({loop}) l) FROM t")
    assert sorted(got.rows) == expected
    # ``a`` once per loop execution; ``b`` (correlated) never.
    distinct_v = {v for _k, v in outer}
    assert counter(
        db, "exec_loop_invariant_materialized_total") == len(distinct_v)
    assert counter(db, "exec_subquery_runs_total") >= len(distinct_v)


def test_python_udf_in_an_invariant_subtree_runs_every_round():
    db = seeded_db(0)
    calls = []

    def tick(w):
        calls.append(w)
        return w

    db.create_function("tick", tick, "INTEGER")
    step = (
        "SELECT i.k, i.x + s.c AS x, i.it + 1 AS it FROM iterate i, "
        "(SELECT sum(tick(w)) AS c FROM u) s"
    )
    expected = drive_iterate(db, INIT, step, STOP)
    driver_calls = len(calls)
    assert driver_calls == 3 * 5  # three rounds over u's five rows
    del calls[:]
    assert sorted(db.execute(iterate_sql(INIT, step, STOP)).rows) == expected
    assert len(calls) == driver_calls
    assert counter(db, "exec_loop_invariant_materialized_total") == 0


# -- what explain_analyze shows ---------------------------------------------


def graph_db(edges: int = 400, vertices: int = 30, **kwargs):
    rng = random.Random(5)
    ring = [(v, (v + 1) % vertices) for v in range(vertices)]
    extra = [
        (rng.randrange(vertices), rng.randrange(vertices))
        for _ in range(edges - vertices)
    ]
    db = repro.Database(**kwargs)
    db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
    db.insert_rows("edges", ring + extra)
    return db


@pytest.mark.parametrize(
    "sql_of, working",
    [
        (pagerank_iterate_sql, "WorkingTable(iterate"),
        (pagerank_recursive_sql, "WorkingTable(rcte_ranks_r"),
    ],
)
def test_pagerank_invariants_run_once(sql_of, working):
    rounds = 7
    db = graph_db()
    analyzed = db.explain_analyze(sql_of("edges", 0.85, rounds))
    nodes = list(analyzed.operators())
    hoisted = [n for n in nodes if n.label.startswith("LoopInvariant(")]
    # The out-degree aggregate and the vertex count over the UNION.
    assert len(hoisted) == 2
    for wrapper in hoisted:
        assert wrapper.calls >= rounds
        assert {n.calls for n in wrapper.children[0].walk()} == {1}
    unions = [n for n in nodes if n.label == "SetOp(union)"]
    assert unions and {n.calls for n in unions} == {1}
    deg = [n for n in nodes if n.label == "HashAggregate(keys=1, aggs=1)"]
    assert {n.calls for n in deg} == {1}
    reads = [n for n in nodes if n.label.startswith(working)]
    assert reads and all(n.calls >= rounds for n in reads)
    assert analyzed.counters["exec_loop_invariant_materialized_total"] == 2
    assert analyzed.counters["exec_loop_invariant_reused_total"] > 0
    assert "exec_loop_invariant_reused_total" in analyzed.format()


def test_subtree_key_follows_output_positions():
    """A join whose output lists its children's columns in another
    order (``choose_join_sides`` swaps the children, not the output) is
    not a copy, even when names and types line up position by
    position; a copy under fresh slots is."""
    from repro.exec.hoist import SubtreeKeys
    from repro.expr.bound import BoundColumnRef
    from repro.plan import logical as lp
    from repro.types import INTEGER

    def join(tag: str, mirrored: bool) -> lp.LogicalJoin:
        left, right = (
            lp.LogicalScan(table, [
                lp.PlanColumn(name, f"{tag}{table}.{name}", INTEGER)
                for name in ("k", "v")
            ])
            for table in ("t", "u")
        )
        keys = [(
            BoundColumnRef(left.output[0].slot, INTEGER),
            BoundColumnRef(right.output[0].slot, INTEGER),
        )]
        output = right.output + left.output if mirrored \
            else left.output + right.output
        return lp.LogicalJoin("inner", left, right, keys, None, output)

    keys = SubtreeKeys()
    first = keys.of(join("a", False))
    assert first is not None
    assert keys.of(join("b", False)) == first
    assert keys.of(join("c", True)) != first


def kmeans_db(points: int = 200, **kwargs) -> repro.Database:
    """Integer-valued points, so many sit equidistant from two
    centres."""
    rng = random.Random(3)
    db = repro.Database(**kwargs)
    db.execute("CREATE TABLE pts (id INTEGER, x DOUBLE, y DOUBLE)")
    db.insert_rows("pts", [
        (i, float(rng.randrange(-6, 7)), float(rng.randrange(-6, 7)))
        for i in range(points)
    ])
    db.execute("CREATE TABLE ctr (cid INTEGER, x DOUBLE, y DOUBLE)")
    db.insert_rows("ctr", [(0, -3.0, 0.0), (1, 3.0, 0.0), (2, 0.0, 3.0)])
    return db


def test_kmeans_round_computes_dist_once():
    """The step inlines ``dist`` twice; each round runs one cross join
    of the points with the centres, and the second copy reads the
    first one's batch."""
    rounds = 3
    analyzed = kmeans_db().explain_analyze(
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], rounds)
    )
    nodes = list(analyzed.operators())
    (cross,) = [
        n for n in nodes
        if n.label == "NestedLoopJoin(cross)"
        and "Scan(pts)" in {c.label for c in n.children}
    ]
    assert cross.calls == rounds
    (first,) = [n for n in nodes if n.label.endswith(", round #1)")]
    (reader,) = [n for n in nodes if n.label.endswith(", round #1, reused)")]
    assert first.label.startswith("LoopInvariant(")
    assert first.calls == reader.calls == rounds
    assert first.children and not reader.children
    assert analyzed.counters["exec_loop_shared_reused_total"] == rounds
    assert "exec_loop_shared_reused_total" in analyzed.format()


def joined_to_working_table(analyzed) -> list:
    """The other input of every hash join that reads a working table."""
    return [
        sibling
        for node in analyzed.operators()
        if node.label.startswith("HashJoin(")
        for child, sibling in (node.children, node.children[::-1])
        if child.label.startswith("WorkingTable(")
    ]


@pytest.mark.parametrize(
    "sql_of", [pagerank_iterate_sql, pagerank_recursive_sql]
)
def test_pagerank_joins_edges_to_deg_once(sql_of):
    """``FROM iterate r, edges e, deg dg`` binds to (r JOIN e) JOIN dg —
    two 20,000-row probes a round. Re-associated, ``e JOIN dg`` is one
    invariant subtree and the round is left with one join."""
    rounds = 7
    analyzed = graph_db().explain_analyze(sql_of("edges", 0.85, rounds))
    (hoisted,) = joined_to_working_table(analyzed)
    assert hoisted.label.startswith("LoopInvariant(")
    (once,) = hoisted.children
    assert once.label.startswith("HashJoin(") and once.calls == 1
    assert once.children[0].label == "Scan(edges)"
    assert "HashAggregate(keys=1, aggs=1)" in {  # deg
        n.label for n in once.children[1].walk()
    }
    per_round = [
        n for n in analyzed.operators()
        if n.label.startswith("HashJoin(") and n.calls >= rounds
    ]
    assert len(per_round) == 1
    assert {c.label.split("(")[0] for c in per_round[0].children} == {
        "LoopInvariant", "WorkingTable",
    }


#: FROM lists whose left-deep join tree must stay as bound.
NOT_REASSOCIATED = {
    "second_predicate_touches_the_working_table":
        "FROM iterate i, t e, u d WHERE i.k = e.k AND i.k = d.k",
    "volatile_side":
        "FROM iterate i, t e, (SELECT k, tick(w) AS w FROM u) d "
        "WHERE i.k = e.k AND e.k = d.k",
    "left_join":
        "FROM iterate i JOIN t e ON i.k = e.k LEFT JOIN u d ON e.k = d.k",
    "residual_only_no_equi_key":
        "FROM iterate i, t e, u d WHERE i.k = e.k AND e.k < d.k",
}


@pytest.mark.parametrize("case", sorted(NOT_REASSOCIATED))
def test_join_order_is_kept_when_the_rule_does_not_apply(case):
    db = seeded_db(1)
    db.create_function("tick", lambda w: w, "INTEGER")
    step = (
        "SELECT i.k, i.x + coalesce(d.w, 0) AS x, i.it + 1 AS it "
        + NOT_REASSOCIATED[case]
    )
    expected = drive_iterate(db, INIT, step, STOP)
    analyzed = db.explain_analyze(iterate_sql(INIT, step, STOP))
    assert sorted(analyzed.result.rows) == expected
    assert [n.label for n in joined_to_working_table(analyzed)] == [
        "Scan(t)"
    ]


def test_correlated_parameter_or_a_growing_join_pins_the_order():
    """Subquery plans are not optimized today, so this case cannot be
    reached through SQL: the rule is handed ``(w JOIN e) JOIN d`` with a
    correlated parameter in ``d``'s filter, and with a constant."""
    from repro.expr import bound as b
    from repro.plan import logical as lp
    from repro.plan.cardinality import CardinalityEstimator
    from repro.plan.rules import reassociate_invariant_joins
    from repro.types import BOOLEAN, INTEGER

    def relation(alias):
        return [lp.PlanColumn("k", f"{alias}.k", INTEGER)]

    def ref(alias):
        return b.BoundColumnRef(f"{alias}.k", INTEGER)

    def body(bound):
        w, e, d = relation("w"), relation("e"), relation("d")
        through_w = lp.LogicalJoin(
            "inner", lp.LogicalWorkingTableRef("loop", w),
            lp.LogicalScan("t", e), [(ref("w"), ref("e"))], None, w + e,
        )
        filtered = lp.LogicalFilter(
            lp.LogicalScan("u", d),
            b.BoundBinary(">", ref("d"), bound, BOOLEAN),
        )
        return lp.LogicalJoin(
            "inner", through_w, filtered, [(ref("e"), ref("d"))], None,
            w + e + d,
        )

    estimator = CardinalityEstimator(lambda name: 10)
    moved = reassociate_invariant_joins(
        body(b.BoundLiteral(0, INTEGER)), "loop", estimator
    )
    assert isinstance(moved.left, lp.LogicalWorkingTableRef)
    assert isinstance(moved.right, lp.LogicalJoin)
    pinned = reassociate_invariant_joins(
        body(b.BoundParam("outer.v", INTEGER)), "loop", estimator
    )
    assert isinstance(pinned.left, lp.LogicalJoin)
    assert isinstance(pinned.right, lp.LogicalFilter)
    # A statement parameter is a constant of the execution.
    moved = reassociate_invariant_joins(
        body(b.BoundParam("?0", INTEGER)), "loop", estimator
    )
    assert isinstance(moved.right, lp.LogicalJoin)
    # ``e JOIN d`` expected to outgrow the ``w JOIN e`` it would replace.
    big_d = CardinalityEstimator({"t": 10, "u": 10**6}.__getitem__)
    kept = reassociate_invariant_joins(
        body(b.BoundLiteral(0, INTEGER)), "loop", big_d
    )
    assert isinstance(kept.left, lp.LogicalJoin)


def test_joins_outside_a_loop_body_keep_their_order():
    """Same FROM list, no loop: nothing is invariant *in* anything, and
    the left-deep tree the binder built is what runs."""
    from repro.plan import logical as lp
    from repro.sql.parser import parse_statement

    db = seeded_db(3)
    txn = db.txns.begin()
    try:
        plan = db.pipeline.plan_select(
            parse_statement(
                "SELECT i.k, e.v + d.w FROM (SELECT k FROM t WHERE v > 0) i, "
                "t e, u d WHERE i.k = e.k AND e.k = d.k"
            ),
            txn,
        )
    finally:
        txn.rollback()
    top, below = (
        n for n in lp.walk_plan(plan) if isinstance(n, lp.LogicalJoin)
    )
    (last,) = (c for c in top.children() if c is not below)
    assert isinstance(last, lp.LogicalScan) and last.table_name == "u"


def test_operator_tree_is_freed_without_the_cycle_collector():
    """Scope and hoisted or shared operators must not reference each
    other: a cycle would park every loop statement's whole operator
    tree (and execution context) until the next full collection."""
    from repro.exec.hoist import LoopInvariantOp

    db = graph_db()
    shared = kmeans_db()
    gc.collect()
    gc.disable()
    try:
        db.execute(pagerank_iterate_sql("edges", 0.85, 3))
        shared.execute(kmeans_iterate_sql("pts", "ctr", ["x", "y"], 2))
        alive = [
            obj for obj in gc.get_objects()
            if isinstance(obj, LoopInvariantOp)
        ]
        assert alive == []
    finally:
        gc.enable()


def test_history_records_per_round_cardinalities():
    """Feedback must see a loop-body scan at the table's cardinality,
    not multiplied by the round count — next to a hoisted (calls=1)
    sibling the cumulative number compares apples with oranges."""
    from repro.plan.cache import sql_fingerprint

    db = graph_db()
    sql = pagerank_iterate_sql("edges", 0.85, 9)
    db.execute(sql)
    record = db.history.recent(1)[0]
    scans = [op for op in record.operators if op["op"] == "Scan(edges)"]
    assert len(scans) == 8  # four in init, four in the step
    for op in scans:
        assert op["observed_rows"] == 400
        assert op["q_error"] == 1.0
    means = db.history.observed_node_cardinalities(sql_fingerprint(sql))
    scan_means = [
        slot["mean_rows"] for key, slot in means.items()
        if key.startswith("Scan[edges]")
    ]
    assert scan_means and set(scan_means) == {400.0}


# -- governor ----------------------------------------------------------------

#: Step = the working row x one hoisted 50,000-row join side; the loop
#: itself holds a single row, so a budget it fits in but the batch
#: does not can only trip on the hoisted reservation.
BIG_INVARIANT_LOOP = iterate_sql(
    "SELECT 0 AS x",
    "SELECT max(i.x + 1) AS x FROM iterate i, "
    "(SELECT a * 2 AS b FROM big WHERE a >= 0) s WHERE s.b >= 0",
    "SELECT 1 FROM iterate WHERE x >= {rounds}",
)


def big_db(**kwargs):
    db = repro.Database(**kwargs)
    db.execute("CREATE TABLE big (a INTEGER)")
    db.insert_rows("big", [(i,) for i in range(50_000)])
    return db


class TestGovernor:
    def test_shared_batch_counts_against_the_budget(self):
        """2,000 points x 3 centres: the shared ``dist`` batch alone
        outgrows the budget, before the join reading it reserves."""
        db = kmeans_db(points=2000)
        with pytest.raises(MemoryBudgetExceeded, match="loop_shared"):
            db.execute(
                kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3),
                memory_budget_mb=0.06,
            )
        assert db.last_governor["verdict"] == "oom"

    @pytest.mark.parametrize("max_iterations", [2, 10_000])
    def test_shared_batch_released(self, max_iterations):
        db = kmeans_db(max_iterations=max_iterations)
        sql = kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3)
        if max_iterations < 3:
            with pytest.raises(IterationLimitError):
                db.execute(sql)
        else:
            db.execute(sql)
        assert db.last_governor["live_bytes"] == 0

    def test_hoisted_batch_counts_against_the_budget(self):
        db = big_db()
        with pytest.raises(MemoryBudgetExceeded, match="loop_invariant"):
            db.execute(
                BIG_INVARIANT_LOOP.format(rounds=3), memory_budget_mb=0.1
            )
        assert db.last_governor["verdict"] == "oom"

    def test_released_after_normal_completion(self):
        db = big_db()
        assert db.execute(
            BIG_INVARIANT_LOOP.format(rounds=3)).rows == [(3,)]
        assert db.last_governor["peak_bytes"] >= 50_000 * 4
        assert db.last_governor["live_bytes"] == 0

    def test_released_after_iteration_limit(self):
        db = big_db(max_iterations=3)
        with pytest.raises(IterationLimitError):
            db.execute(BIG_INVARIANT_LOOP.format(rounds=10))
        assert db.last_governor["peak_bytes"] >= 50_000 * 4
        assert db.last_governor["live_bytes"] == 0

    def test_released_after_timeout(self):
        db = big_db()
        with pytest.raises(QueryTimeout):
            db.execute(
                BIG_INVARIANT_LOOP.format(rounds=10**9), timeout_ms=150
            )
        assert db.last_governor["peak_bytes"] >= 50_000 * 4
        assert db.last_governor["live_bytes"] == 0

    def test_released_after_cancel(self):
        db = big_db()
        outcome = {}

        def run():
            try:
                db.execute(BIG_INVARIANT_LOOP.format(rounds=10**9))
            except QueryCancelled:
                outcome["cancelled"] = True

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.15)
        db.cancel()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome.get("cancelled")
        assert db.last_governor["peak_bytes"] >= 50_000 * 4
        assert db.last_governor["live_bytes"] == 0
