"""Join order: each block of inner joins outside a loop body is
enumerated bottom-up over its equi-join graph and costed by C_out
(``plan/rules.py::order_joins``).

The enumerator must list every csg-cmp pair once (the closed forms of
Moerkotte and Neumann, VLDB 2006), put the small filtered dimensions of
q07 and q05 first, stop at LEFT joins, cross-join disconnected
components in FROM order, print the same plan whatever the hash seed,
and leave the ``ladder`` plans exactly as they were before it existed
(``ladder_plans_recorded.json``, recorded on the tree without it).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.plan import logical as lp
from repro.plan import rules
from repro.plan.rules import csg_cmp_pairs
from repro.sql.parser import parse_statement
from repro.testing import tpch
from repro.testing.oracle import build_repro_db

from .test_effects import LADDER

HERE = pathlib.Path(__file__).parent
RECORDED = HERE / "ladder_plans_recorded.json"


def plan_of(db, sql):
    txn = db.txns.begin()
    try:
        return db.pipeline.plan_select(parse_statement(sql), txn)
    finally:
        txn.rollback()


def joins(plan) -> list[lp.LogicalJoin]:
    return [n for n in lp.walk_plan(plan) if isinstance(n, lp.LogicalJoin)]


def scans(plan) -> list[str]:
    """The tables scanned under ``plan``, left to right."""
    if isinstance(plan, lp.LogicalScan):
        return [plan.table_name]
    return [name for child in plan.children() for name in scans(child)]


def key_names(join: lp.LogicalJoin) -> list[set]:
    return [{lk.display, rk.display} for lk, rk in join.equi_keys]


# ---------------------------------------------------------------------------
# The pairs the enumerator costs
# ---------------------------------------------------------------------------


def graph(shape: str, n: int) -> list[int]:
    """Each relation's neighbours, as bitmasks."""
    edges = {
        "chain": [(i, i + 1) for i in range(n - 1)],
        # Two relations: one edge, which is both a chain and a cycle.
        "cycle": [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)],
        "star": [(0, i) for i in range(1, n)],
        "clique": [(i, j) for i in range(n) for j in range(i + 1, n)],
    }[shape]
    neighbours = [0] * n
    for i, j in edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    return neighbours


CLOSED_FORMS = {
    "chain": lambda n: (n**3 - n) // 6,
    "cycle": lambda n: (n**3 - 2 * n**2 + n) // 2,
    "star": lambda n: (n - 1) * 2 ** (n - 2),
    "clique": lambda n: (3**n - 2 ** (n + 1) + 1) // 2,
}


def connected(bits: int, neighbours: list[int]) -> bool:
    seen, frontier = bits & -bits, bits & -bits
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = neighbours[low.bit_length() - 1] & bits & ~seen
        seen |= grown
        frontier |= grown
    return seen == bits


@pytest.mark.parametrize("shape", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("n", range(2, 9))
def test_csg_cmp_pairs_match_the_closed_forms(shape, n):
    neighbours = graph(shape, n)
    pairs = list(csg_cmp_pairs((1 << n) - 1, neighbours))
    assert len(pairs) == CLOSED_FORMS[shape](n)
    assert len({frozenset(pair) for pair in pairs}) == len(pairs)
    last = {s1 | s2: i for i, (s1, s2) in enumerate(pairs)}
    for i, (s1, s2) in enumerate(pairs):
        assert s1 and s2 and not s1 & s2
        assert connected(s1, neighbours) and connected(s2, neighbours)
        assert any(
            neighbours[j] & s2 for j in range(n) if s1 >> j & 1
        )
        # Bottom-up: every pair of each half comes before this one.
        for half in (s1, s2):
            if half & (half - 1):
                assert last[half] < i


def test_pairs_stay_inside_the_given_relations():
    neighbours = graph("chain", 5)
    within = 0b01110
    pairs = list(csg_cmp_pairs(within, neighbours))
    assert len(pairs) == CLOSED_FORMS["chain"](3)
    assert all(not (s1 | s2) & ~within for s1, s2 in pairs)


# ---------------------------------------------------------------------------
# The TPC-H-shaped joins
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_db():
    return build_repro_db(tpch.generate(scale=5, seed=7))


def battery(name: str) -> str:
    (path,) = (HERE / "sql_battery").glob(f"{name}_*.sql")
    return path.read_text()


def test_q07_joins_the_filtered_nations_before_lineitem(tpch_db):
    """Each filtered ``nation`` joins its supplier or customer first,
    and every join that carries lineitem's rows has a nation cut below
    it. (The two ``nation ⋈ …`` arms meet only through lineitem, so
    without a cross product one of them joins above it.)"""
    plan = plan_of(tpch_db, battery("q07"))
    found = joins(plan)
    ends = [join for join in found if "nation" in scans(join)[-1:]
            and len(scans(join)) == 2]
    assert sorted(scans(join)[0] for join in ends) == [
        "customer", "supplier"
    ]
    assert all(
        "nation" in scans(join) for join in found
        if "lineitem" in scans(join)
    )
    # The OR over both nations' names sits on the join that first
    # covers both, as its only residual.
    residuals = [join for join in found if join.residual is not None]
    assert residuals == [found[0]]


def test_q05_closes_its_cycle_with_a_two_key_join(tpch_db):
    plan = plan_of(tpch_db, battery("q05"))
    found = joins(plan)
    assert all(join.residual is None for join in found)
    assert sorted(len(join.equi_keys) for join in found) == [1, 1, 1, 1, 2]
    (nations,) = [
        join for join in found
        if {"c.c_nationkey", "s.s_nationkey"} in key_names(join)
    ]
    assert len(nations.equi_keys) == 2


def test_enumerated_plans_return_the_binders_rows(tpch_db):
    """Up to float summation order: another join order adds the same
    values in another order."""
    plain = build_repro_db(tpch.generate(scale=5, seed=7), optimize=False)
    for name in ("q03", "q05", "q07", "q10", "q21"):
        sql = battery(name)
        got, want = tpch_db.execute(sql).rows, plain.execute(sql).rows
        assert len(got) == len(want), name
        for row, expected in zip(got, want):
            assert row == pytest.approx(expected, rel=1e-9), name


# ---------------------------------------------------------------------------
# Where a block stops, and what keeps the binder's order
# ---------------------------------------------------------------------------


def small_db(**options) -> repro.Database:
    """``big`` (400 rows) whose keys ``small`` (4 rows) and ``mid``
    (40 rows) share."""
    db = repro.Database(**options)
    for name, rows in (("big", 400), ("small", 4), ("mid", 40)):
        db.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER)")
        db.insert_rows(name, [(i % 40, i) for i in range(rows)])
    return db


def test_a_left_join_is_a_barrier():
    """``small`` joins ``big`` on ``big``'s key, and would join it first
    — but ``big`` sits under a LEFT join, which is a leaf of the outer
    block: the LEFT join keeps its two inputs, and ``small`` joins
    above it."""
    sql = (
        "SELECT b.v, m.v, s.v FROM big b LEFT JOIN mid m ON b.k = m.k "
        "JOIN small s ON b.k = s.k"
    )
    db = small_db()
    plan = plan_of(db, sql)
    (left,) = [join for join in joins(plan) if join.kind == "left"]
    assert scans(left) == ["big", "mid"]
    top = joins(plan)[0]
    assert top.kind == "inner" and left in top.children()
    plain = small_db(optimize=False)
    assert sorted(db.execute(sql).rows) == sorted(plain.execute(sql).rows)


def test_cross_joined_components_keep_the_from_order():
    db = small_db()
    plan = plan_of(db, "SELECT b.v, s.v, m.v FROM big b, small s, mid m")
    assert scans(plan) == ["big", "small", "mid"]
    assert [join.kind for join in joins(plan)] == ["cross", "cross"]
    # ``big`` and ``mid`` are one component, ``small`` another: the
    # component holding the first FROM entry comes first, whatever the
    # components' sizes.
    for sql, first in (
        ("SELECT b.v, s.v, m.v FROM big b, small s, mid m "
         "WHERE b.k = m.k", ["big", "mid"]),
        ("SELECT b.v, s.v, m.v FROM small s, big b, mid m "
         "WHERE b.k = m.k", ["small"]),
    ):
        top = joins(plan_of(db, sql))[0]
        assert top.kind == "cross"
        assert sorted(scans(top.left)) == first


def test_a_condition_that_may_raise_keeps_the_binders_order():
    """A division in a join condition runs on the rows its join sees;
    another order would show it others."""
    db = small_db()
    plan = plan_of(
        db, "SELECT b.v FROM big b JOIN mid m ON b.k = m.k "
        "JOIN small s ON m.k = s.k AND 10 / (s.v + 1) > 0"
    )
    top, below = joins(plan)
    assert sorted(scans(below)) == ["big", "mid"]
    assert scans(top.right) == ["small"]


def test_loop_bodies_keep_the_binders_order():
    """By the estimates, the working table would join ``small`` first;
    a loop body's joins keep the binder's order all the same (and only
    get their build sides chosen)."""
    sql = (
        "SELECT * FROM ITERATE((SELECT k, v, 0 AS it FROM small), "
        "(SELECT b.k, b.v + s.v AS v, r.it + 1 AS it "
        "FROM big b, iterate r, small s WHERE b.k = r.k AND r.k = s.k), "
        "(SELECT max(it) >= 2 FROM iterate))"
    )
    db = small_db()
    (loop,) = [
        node for node in lp.walk_plan(plan_of(db, sql))
        if isinstance(node, lp.LogicalIterate)
    ]
    _top, below = joins(loop.step)
    assert {type(child) for child in below.children()} == {
        lp.LogicalScan, lp.LogicalWorkingTableRef
    }
    assert scans(below) == ["big"]
    plain = small_db(optimize=False)
    assert sorted(db.execute(sql).rows) == sorted(plain.execute(sql).rows)


def test_large_blocks_are_ordered_greedily(monkeypatch):
    """Twelve relations in a chain: more than the enumerator takes; the
    greedy order returns the binder's rows."""
    enumerated = []

    def pairs(nodes, neighbours):
        enumerated.append(bin(nodes).count("1"))
        return csg_cmp_pairs(nodes, neighbours)

    monkeypatch.setattr(rules, "csg_cmp_pairs", pairs)
    sql = "SELECT count(*), sum(t0.v + t11.v) FROM t0" + "".join(
        f" JOIN t{i + 1} ON t{i}.k = t{i + 1}.k" for i in range(11)
    )
    tables = [f"t{i}" for i in range(12)]
    found = {}
    for optimize in (True, False):
        db = repro.Database(optimize=optimize)
        for i, name in enumerate(tables):
            db.execute(f"CREATE TABLE {name} (k INTEGER, v INTEGER)")
            db.insert_rows(name, [(j % (i + 3), j) for j in range(3 * i + 4)])
        plan = plan_of(db, sql)
        assert len(joins(plan)) == 11
        found[optimize] = (scans(plan), db.execute(sql).rows)
    assert set(found[True][0]) == set(tables)
    assert found[True][0] != tables
    assert found[False][0] == tables
    assert found[True][1] == found[False][1]
    assert enumerated == []


# ---------------------------------------------------------------------------
# Stable plans
# ---------------------------------------------------------------------------

#: The battery's plans, then blocks whose candidates all cost the same
#: (one table joined with itself on its key), where only the
#: tie-break decides.
PRINT_PLANS = """
import pathlib
from repro.testing import tpch
from repro.testing.oracle import build_repro_db
db = build_repro_db(tpch.generate(scale=5, seed=7))
for path in sorted(pathlib.Path("tests/sql_battery").glob("*.sql")):
    print(db.explain(path.read_text()))
for n in range(3, 8):
    names = [f"n{i}" for i in range(n)]
    print(db.explain(
        "SELECT n0.n_name FROM " + ", ".join(f"nation {a}" for a in names)
        + " WHERE " + " AND ".join(
            f"{a}.n_nationkey = {b}.n_nationkey"
            for a, b in zip(names, names[1:])
        )
    ))
"""


def test_plans_do_not_depend_on_the_hash_seed():
    root = HERE.parent
    outputs = set()
    for seed in ("0", "1", "2", "3", "12345"):
        env = dict(
            os.environ, PYTHONHASHSEED=seed,
            PYTHONPATH=str(root / "src"),
        )
        done = subprocess.run(
            [sys.executable, "-c", PRINT_PLANS], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        )
        assert "HashJoin" in done.stdout
        outputs.add(done.stdout)
    assert len(outputs) == 1


def shape(node) -> list:
    return [node.label, [shape(child) for child in node.children]]


def test_ladder_plans_keep_their_recorded_shapes():
    """Labels and child order of every operator, estimates left out."""
    got = []
    for make_db, statements in LADDER.items():
        db = make_db()
        got += [shape(db.explain_analyze(sql).root) for sql in statements]
    assert got == json.loads(RECORDED.read_text())
