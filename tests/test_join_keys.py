"""Multi-key hash joins: rows and row order, recorded before the
lead-key route existed (``exec/join.py::_lead_key_pairs``).

A join on two or more keys probes through one dense integer key and
compares the others on the candidate pairs, or — when no key can lead,
the composite codes stay dense, or the candidates outnumber the rows of
both sides — factorizes every key jointly. Either way the pairs and
their order are those of the joint factorization: NaN meets NaN,
``-0.0`` meets ``0.0``, NULL never matches. ``RECORDED`` holds each
case's output from the factorizing join; every configuration below
must reproduce it row for row, in order. Values print through
``repr``, so ``-0.0`` and ``0.0`` (and NaN) are told apart.
"""

import itertools
import math
import random

import pytest

import repro
from repro.workloads import kmeans_iterate_sql, kmeans_recursive_sql


def make_db(**kwargs) -> repro.Database:
    """``l`` and ``r``: a dense BIGINT ``a`` (with NULLs), a sparse
    BIGINT ``b``, a DOUBLE ``d`` holding NaN, ``-0.0``, ``0.0`` and
    NULL, a VARCHAR ``s`` (dictionary-encoded under ``auto``); ``h``:
    ten rows on one lead value."""
    rng = random.Random(7)
    db = repro.Database(**kwargs)
    db.execute(
        "CREATE TABLE l (tag INTEGER, a BIGINT, b BIGINT, d DOUBLE, "
        "s VARCHAR)"
    )
    db.execute(
        "CREATE TABLE r (val INTEGER, a BIGINT, b BIGINT, d DOUBLE, "
        "s VARCHAR)"
    )
    db.execute("CREATE TABLE h (tag INTEGER, a BIGINT, d DOUBLE)")
    a = [-1, 0, 1, None]
    b = [10**12, -(10**12), 7 * 10**9, None]
    d = [0.0, -0.0, math.nan, None, 2.0]
    s = ["x", "", None]
    for name, n in (("l", 24), ("r", 18)):
        db.insert_rows(name, [
            (i, rng.choice(a), rng.choice(b), rng.choice(d), rng.choice(s))
            for i in range(n)
        ])
    db.insert_rows(
        "h", [(i, 1, rng.choice([0.0, -0.0, 1.0])) for i in range(10)]
    )
    return db


#: The equi-keys of each case, in ON order; the lead is the first dense
#: integer key (``a`` or ``tag``), wherever it stands.
CASES = {
    "bigint_then_double": "SELECT l.tag, r.val, l.d, r.d FROM l JOIN r "
    "ON l.a = r.a AND l.d = r.d",
    "double_then_bigint": "SELECT l.tag, r.val, l.d, r.d FROM l JOIN r "
    "ON l.d = r.d AND l.a = r.a",
    "bigint_then_varchar": "SELECT l.tag, r.val, l.s FROM l JOIN r "
    "ON l.a = r.a AND l.s = r.s",
    "bigint_then_sparse_bigint": "SELECT l.tag, r.val, l.b FROM l JOIN r "
    "ON l.a = r.a AND l.b = r.b",
    "unique_lead_then_sparse_bigint": "SELECT l.tag, r.val, l.b "
    "FROM l JOIN r ON l.tag = r.val AND l.b = r.b",
    "unique_lead_then_double": "SELECT l.tag, r.val, l.d "
    "FROM l JOIN r ON l.tag = r.val AND l.d = r.d",
    "three_keys": "SELECT l.tag, r.val FROM l JOIN r "
    "ON l.a = r.a AND l.d = r.d AND l.b = r.b",
    "left_join_padding": "SELECT l.tag, r.val, r.d FROM l LEFT JOIN r "
    "ON l.a = r.a AND l.d = r.d",
    "residual": "SELECT l.tag, r.val FROM l JOIN r "
    "ON l.a = r.a AND l.d = r.d AND l.tag < r.val",
    "left_join_residual": "SELECT l.tag, r.val FROM l LEFT JOIN r "
    "ON l.a = r.a AND l.s = r.s AND l.tag + r.val > 12",
    # 100 candidate pairs against 20 rows: over the bound.
    "many_build_rows_per_lead_key": "SELECT x.tag, y.tag, x.d "
    "FROM h x JOIN h y ON x.a = y.a AND x.d = y.d",
}

RECORDED = {
    "bigint_then_double": [
        '1|14|2.0|2.0',
        '2|13|2.0|2.0',
        '6|12|2.0|2.0',
        '9|14|2.0|2.0',
        '10|12|2.0|2.0',
        '11|3|0.0|-0.0',
        '11|9|0.0|-0.0',
        '12|14|2.0|2.0',
        '15|3|0.0|-0.0',
        '15|9|0.0|-0.0',
        '16|7|nan|nan',
        '21|13|2.0|2.0',
    ],
    "double_then_bigint": [
        '1|14|2.0|2.0',
        '2|13|2.0|2.0',
        '6|12|2.0|2.0',
        '9|14|2.0|2.0',
        '10|12|2.0|2.0',
        '11|3|0.0|-0.0',
        '11|9|0.0|-0.0',
        '12|14|2.0|2.0',
        '15|3|0.0|-0.0',
        '15|9|0.0|-0.0',
        '16|7|nan|nan',
        '21|13|2.0|2.0',
    ],
    "bigint_then_varchar": [
        "1|17|'x'",
        "3|5|''",
        "3|14|''",
        "8|2|'x'",
        "8|11|'x'",
        "12|17|'x'",
        "18|5|''",
        "18|14|''",
        "19|2|'x'",
        "19|11|'x'",
        "21|1|''",
        "22|5|''",
        "22|14|''",
    ],
    "bigint_then_sparse_bigint": [
        '0|6|-1000000000000',
        '0|13|-1000000000000',
        '2|1|1000000000000',
        '4|5|-1000000000000',
        '4|17|-1000000000000',
        '6|2|1000000000000',
        '6|10|1000000000000',
        '8|3|7000000000',
        '8|11|7000000000',
        '10|2|1000000000000',
        '10|10|1000000000000',
        '11|3|7000000000',
        '11|11|7000000000',
        '15|9|-1000000000000',
    ],
    "unique_lead_then_sparse_bigint": [
        '1|1|1000000000000',
        '2|2|1000000000000',
        '10|10|1000000000000',
        '11|11|7000000000',
    ],
    "unique_lead_then_double": [
        '12|12|2.0',
    ],
    "three_keys": [
        '11|3',
        '15|9',
    ],
    "left_join_padding": [
        '1|14|2.0',
        '2|13|2.0',
        '6|12|2.0',
        '9|14|2.0',
        '10|12|2.0',
        '11|3|-0.0',
        '11|9|-0.0',
        '12|14|2.0',
        '15|3|-0.0',
        '15|9|-0.0',
        '16|7|nan',
        '21|13|2.0',
        '0|None|None',
        '3|None|None',
        '4|None|None',
        '5|None|None',
        '7|None|None',
        '8|None|None',
        '13|None|None',
        '14|None|None',
        '17|None|None',
        '18|None|None',
        '19|None|None',
        '20|None|None',
        '22|None|None',
        '23|None|None',
    ],
    "residual": [
        '1|14',
        '2|13',
        '6|12',
        '9|14',
        '10|12',
        '12|14',
    ],
    "left_join_residual": [
        '1|17',
        '3|14',
        '8|11',
        '12|17',
        '18|5',
        '18|14',
        '19|2',
        '19|11',
        '21|1',
        '22|5',
        '22|14',
        '0|None',
        '2|None',
        '4|None',
        '5|None',
        '6|None',
        '7|None',
        '9|None',
        '10|None',
        '11|None',
        '13|None',
        '14|None',
        '15|None',
        '16|None',
        '17|None',
        '20|None',
        '23|None',
    ],
    "many_build_rows_per_lead_key": [
        '0|0|0.0',
        '0|1|0.0',
        '0|3|0.0',
        '0|4|0.0',
        '0|5|0.0',
        '0|7|0.0',
        '0|9|0.0',
        '1|0|-0.0',
        '1|1|-0.0',
        '1|3|-0.0',
        '1|4|-0.0',
        '1|5|-0.0',
        '1|7|-0.0',
        '1|9|-0.0',
        '2|2|1.0',
        '2|6|1.0',
        '2|8|1.0',
        '3|0|0.0',
        '3|1|0.0',
        '3|3|0.0',
        '3|4|0.0',
        '3|5|0.0',
        '3|7|0.0',
        '3|9|0.0',
        '4|0|0.0',
        '4|1|0.0',
        '4|3|0.0',
        '4|4|0.0',
        '4|5|0.0',
        '4|7|0.0',
        '4|9|0.0',
        '5|0|0.0',
        '5|1|0.0',
        '5|3|0.0',
        '5|4|0.0',
        '5|5|0.0',
        '5|7|0.0',
        '5|9|0.0',
        '6|2|1.0',
        '6|6|1.0',
        '6|8|1.0',
        '7|0|0.0',
        '7|1|0.0',
        '7|3|0.0',
        '7|4|0.0',
        '7|5|0.0',
        '7|7|0.0',
        '7|9|0.0',
        '8|2|1.0',
        '8|6|1.0',
        '8|8|1.0',
        '9|0|0.0',
        '9|1|0.0',
        '9|3|0.0',
        '9|4|0.0',
        '9|5|0.0',
        '9|7|0.0',
        '9|9|0.0',
    ],
}


def rendered(db: repro.Database, sql: str) -> list[str]:
    return [
        "|".join(repr(value) for value in row)
        for row in db.execute(sql).rows
    ]


CONFIGS = list(itertools.product(("raw", "auto"), (16, 65536), (1, 2)))


@pytest.mark.parametrize("encoding, morsel_rows, workers", CONFIGS)
def test_two_key_joins_match_the_recording(encoding, morsel_rows, workers):
    db = make_db(
        encoding=encoding, morsel_rows=morsel_rows, workers=workers,
        parallel_threshold=1,
    )
    for name, sql in CASES.items():
        assert rendered(db, sql) == RECORDED[name], name


def test_each_route_is_exercised(monkeypatch):
    """The lead-key route answers the cases with a usable lead; the
    factorizing join answers the ones over the candidate bound."""
    from repro.exec import join

    taken = []
    lead_key_pairs = join._lead_key_pairs

    def spy(*args):
        pairs = lead_key_pairs(*args)
        taken.append(pairs is not None)
        return pairs

    monkeypatch.setattr(join, "_lead_key_pairs", spy)
    db = make_db()
    routes = {}
    for name, sql in CASES.items():
        taken.clear()
        db.execute(sql)
        (routes[name],) = taken
    assert not routes["many_build_rows_per_lead_key"]
    assert not routes["bigint_then_sparse_bigint"]
    assert routes["bigint_then_double"] and routes["double_then_bigint"]
    assert routes["bigint_then_varchar"] and routes["three_keys"]
    assert routes["unique_lead_then_sparse_bigint"]
    assert routes["left_join_padding"] and routes["residual"]


# -- k-Means: the assignment join-back ----------------------------------------


def kmeans_db(points: int = 120) -> repro.Database:
    rng = random.Random(11)
    db = repro.Database()
    db.execute("CREATE TABLE pts (id INTEGER, x DOUBLE, y DOUBLE)")
    db.insert_rows("pts", [
        (i, rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(points)
    ])
    db.execute("CREATE TABLE ctr (cid INTEGER, x DOUBLE, y DOUBLE)")
    db.insert_rows("ctr", [(0, -2.0, 0.0), (1, 2.0, 0.0), (2, 0.0, 3.0)])
    return db


def test_kmeans_iterate_join_back_sorts_no_key():
    analyzed = kmeans_db().explain_analyze(
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3)
    )
    assert 'exec_group_keys_total{path="sort"}' not in analyzed.format()
    assert analyzed.find("HashJoin(inner, keys=2)").calls == 3


def test_kmeans_cte_skips_the_assignment_of_its_empty_round():
    """Round four's ``m`` (``min(it) + 1 <= 3``) is empty: the cross
    join yields nothing without running the assignment."""
    analyzed = kmeans_db().explain_analyze(
        kmeans_recursive_sql("pts", "ctr", ["x", "y"], 3)
    )
    broadcast = analyzed.find("NestedLoopJoin(cross, broadcast)")
    assert broadcast.calls == 4
    assert analyzed.find("HashJoin(inner, keys=2)").calls == 3
    assert analyzed.find("HashJoin(inner, keys=1)").calls == 3
