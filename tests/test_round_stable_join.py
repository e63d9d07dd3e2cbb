"""Round-stable joins and aggregates in ITERATE / recursive-CTE bodies
(``exec/join.py::HashJoinOp``, ``exec/aggregate.py::HashAggregateOp``,
docs/performance.md).

A hash join one side of which is a hoisted loop invariant keeps last
round's pairs while the other side's keys stay bit-identical; a GROUP
BY over the columns it replays keeps its group codes; ``min``/``max``
of a column of a provably one-row join side is that row's value. None
of it may show in a result: every case below was recorded before the
reuse existed (``RECORDED``, values through ``repr`` so ``-0.0``, NaN
and NULL are told apart), must reproduce it row for row under every
configuration, and must agree with the client-side driver loop of
``tests/test_loop_hoisting.py``.
"""

import itertools
import math
import random
import threading
import time

import pytest

import repro
from repro.errors import IterationLimitError, QueryCancelled
from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)

from .test_loop_hoisting import counter, drive_iterate, graph_db, kmeans_db

STOP = "SELECT count(*) = 0 OR max(it) >= 4 FROM iterate"

#: 1,500 rows: estimated above a working table's 1,000, so the join
#: keeps this side on the left (the probe side).
BIG = "(SELECT s, d, w, fs, tag FROM e WHERE w > -100)"
#: 12 rows: the join puts this side on the right (the build side).
SMALL = "(SELECT k, w, name FROM u WHERE w > -100)"


def make_db(**kwargs) -> repro.Database:
    """``e``: 1,500 edge-like rows over vertices 0..11 with an integer-
    valued DOUBLE weight, a DOUBLE key holding NULL, NaN, ``-0.0`` and
    ``0.0``, and a VARCHAR key (dictionary-encoded under ``auto``);
    ``u``: one row per vertex; ``z``: what the one-row ``m`` sides
    aggregate."""
    rng = random.Random(11)
    db = repro.Database(**kwargs)
    db.execute(
        "CREATE TABLE e (s INTEGER, d INTEGER, w DOUBLE, fs DOUBLE, "
        "tag VARCHAR)"
    )
    db.insert_rows("e", [
        (
            rng.randrange(12), rng.randrange(12),
            float(rng.randrange(-3, 4)),
            rng.choice([0.0, -0.0, math.nan, None, 1.5, 2.5]),
            rng.choice(["a", "b", "c", None]),
        )
        for _ in range(1500)
    ])
    db.execute("CREATE TABLE u (k INTEGER, w INTEGER, name VARCHAR)")
    db.insert_rows("u", [
        (k, rng.randrange(-3, 4), rng.choice(["p", "q", None]))
        for k in range(12)
    ])
    db.execute("CREATE TABLE z (id INTEGER, fz DOUBLE, nm VARCHAR)")
    db.insert_rows("z", [
        (1, None, None), (2, math.nan, "b"), (2, 1.0, "a"),
        (3, -0.0, "zz"), (4, 0.0, ""), (4, -0.0, "x"),
    ])
    return db


INIT = "SELECT DISTINCT s AS k, 1.0 AS x, 0 AS it FROM e"


def broadcast_step(z_id: int, extreme: str = "min") -> str:
    """A PageRank-shaped step whose GROUP BY also folds ``min``/``max``
    of the one-row side ``m`` (a NULL, NaN, ``-0.0`` or string)."""
    return (
        f"SELECT f.d AS k, sum(i.x + f.w) AS x, min(m.nit) AS it, "
        f"{extreme}(m.nm) AS lo, {extreme}(m.fz) AS hi "
        f"FROM iterate i JOIN {BIG} f ON i.k = f.s, "
        f"(SELECT max(it) + 1 AS nit, max(fz) AS fz, min(nm) AS nm "
        f" FROM iterate, z WHERE z.id = {z_id}) m "
        f"GROUP BY f.d"
    )


BROADCAST_INIT = (
    "SELECT DISTINCT s AS k, 1.0 AS x, 0 AS it, 'a' AS lo, 0.0 AS hi FROM e"
)

#: name -> (init, step). Each step joins the working relation to a
#: hoisted side; the comment says what the reuse must survive.
CASES = {
    # The GROUP BY emits the invariant side's keys in one order from
    # round 2 on: the join and the GROUP BY replay.
    "invariant_left_stable_keys": (
        INIT,
        f"SELECT f.d AS k, sum(i.x + f.w) AS x, max(i.it) + 1 AS it "
        f"FROM iterate i JOIN {BIG} f ON i.k = f.s GROUP BY f.d",
    ),
    "invariant_right_stable_keys": (
        INIT,
        f"SELECT i.k, i.x + f.w AS x, i.it + 1 AS it "
        f"FROM iterate i JOIN {SMALL} f ON i.k = f.k",
    ),
    # The working keys come back in another order every round.
    "keys_reordered": (
        INIT,
        f"SELECT k, x, it FROM (SELECT i.k, i.x + f.w AS x, "
        f"i.it + 1 AS it FROM iterate i JOIN {SMALL} f ON i.k = f.k) q "
        f"ORDER BY CASE WHEN it % 2 = 0 THEN k ELSE -k END",
    ),
    # One more key every round, then one fewer.
    "keys_grow": (
        "SELECT 0 AS k, 1.0 AS x, 0 AS it",
        f"SELECT i.k, i.x + f.w AS x, i.it + 1 AS it "
        f"FROM iterate i JOIN {SMALL} f ON i.k = f.k "
        f"UNION ALL SELECT max(k) + 1 AS k, 0.0 AS x, max(it) + 1 AS it "
        f"FROM iterate",
    ),
    "keys_shrink": (
        INIT,
        f"SELECT i.k, i.x + f.w AS x, i.it + 1 AS it "
        f"FROM iterate i JOIN {SMALL} f ON i.k = f.k WHERE i.k > i.it",
    ),
    # Working keys NULL (never matches), NaN (meets NaN) and -0.0/0.0
    # (one group, meets both).
    "null_nan_negative_zero_keys": (
        "SELECT DISTINCT fs AS k, 1.0 AS x, 0 AS it FROM e",
        f"SELECT f.fs AS k, sum(i.x + f.w) AS x, max(i.it) + 1 AS it "
        f"FROM iterate i JOIN {BIG} f ON i.k = f.fs GROUP BY f.fs",
    ),
    "dictionary_key": (
        "SELECT DISTINCT tag AS k, 1.0 AS x, 0 AS it FROM e",
        f"SELECT f.tag AS k, sum(i.x + f.w) AS x, max(i.it) + 1 AS it "
        f"FROM iterate i JOIN {BIG} f ON i.k = f.tag GROUP BY f.tag",
    ),
    "left_join_invariant_right": (
        INIT,
        "SELECT i.k, i.x + coalesce(f.w, 100) AS x, i.it + 1 AS it "
        "FROM iterate i LEFT JOIN (SELECT k, w FROM u WHERE w > 0) f "
        "ON i.k = f.k",
    ),
    "left_join_invariant_left": (
        INIT,
        f"SELECT f.d AS k, sum(coalesce(i.x, 0.5) + f.w) AS x, "
        f"min(m.nit) AS it FROM {BIG} f LEFT JOIN iterate i "
        f"ON f.s = i.k AND i.k < 9, "
        f"(SELECT max(it) + 1 AS nit FROM iterate) m GROUP BY f.d",
    ),
    # The residual reads a working column that changes every round.
    "residual_reads_working_column": (
        INIT,
        f"SELECT f.d AS k, sum(i.x + f.w) AS x, max(i.it) + 1 AS it "
        f"FROM iterate i JOIN {BIG} f ON i.k = f.s "
        f"AND f.w + i.it < 2 GROUP BY f.d",
    ),
    "left_join_residual": (
        INIT,
        f"SELECT i.k, i.x + coalesce(f.w, 7) AS x, i.it + 1 AS it "
        f"FROM iterate i LEFT JOIN {SMALL} f "
        f"ON i.k = f.k AND f.w + i.it > 1",
    ),
    # The inner loop reads the outer working table (``o``), so every
    # outer round runs it afresh; its join's side ``f`` is hoisted into
    # the outer loop, its memo lives for one inner execution.
    "nested_iterate": (
        INIT,
        "WITH o AS (SELECT sum(x) AS s FROM iterate) "
        "SELECT w.k, w.x + n.y AS x, w.it + 1 AS it FROM iterate w, "
        "(SELECT sum(y) AS y FROM ITERATE("
        "(SELECT k, 1.0 AS y, 0 AS j FROM u), "
        f"(SELECT i.k, i.y + f.w + o.s AS y, i.j + 1 AS j "
        f"FROM iterate i JOIN {SMALL} f ON i.k = f.k, o), "
        "(SELECT 1 FROM iterate WHERE j >= 3))) n",
    ),
    # -- min / max of a one-row side -----------------------------------------
    "broadcast_null": (BROADCAST_INIT, broadcast_step(1)),
    "broadcast_nan_and_string": (BROADCAST_INIT, broadcast_step(2)),
    "broadcast_negative_zero": (BROADCAST_INIT, broadcast_step(3, "max")),
    "broadcast_zero_then_negative_zero": (
        BROADCAST_INIT, broadcast_step(4, "max"),
    ),
    # Only min / max fold: a sum or count of the copies is no copy.
    "broadcast_sum_and_count": (
        BROADCAST_INIT,
        broadcast_step(2, "max").replace(
            "sum(i.x + f.w) AS x",
            "sum(i.x + f.w) + count(m.nm) + sum(m.nit) AS x",
        ),
    ),
    "broadcast_distinct": (
        BROADCAST_INIT,
        broadcast_step(2).replace("min(m.nm)", "min(DISTINCT m.nm)"),
    ),
    # Ungrouped: the join comes back empty on odd rounds.
    "broadcast_ungrouped_empty_input": (
        BROADCAST_INIT,
        f"SELECT coalesce(max(f.d), 3) AS k, coalesce(sum(i.x), 0.5) AS x, "
        f"coalesce(min(m.nit), 9) AS it, min(m.nm) AS lo, "
        f"max(m.fz) AS hi FROM iterate i JOIN {BIG} f ON i.k = f.s, "
        f"(SELECT max(it) + 1 AS nit, max(fz) AS fz, min(nm) AS nm "
        f" FROM iterate, z WHERE z.id = 2) m WHERE i.it % 2 = 0",
    ),
}


def rendered(rows) -> list[str]:
    return ["|".join(repr(value) for value in row) for row in rows]


def iterate_sql(init: str, step: str, stop: str = STOP) -> str:
    return f"SELECT * FROM ITERATE(({init}), ({step}), ({stop}))"


RECORDED = {'broadcast_distinct': ["0|212777951.0|4|'a'|nan",
                        "1|254872871.0|4|'a'|nan",
                        "2|239740159.0|4|'a'|nan",
                        "3|231672580.0|4|'a'|nan",
                        "4|231770255.0|4|'a'|nan",
                        "5|251900850.0|4|'a'|nan",
                        "6|237095428.0|4|'a'|nan",
                        "7|244782590.0|4|'a'|nan",
                        "8|214786546.0|4|'a'|nan",
                        "9|235457891.0|4|'a'|nan",
                        "10|232653058.0|4|'a'|nan",
                        "11|234498890.0|4|'a'|nan"],
 'broadcast_nan_and_string': ["0|212777951.0|4|'a'|nan",
                              "1|254872871.0|4|'a'|nan",
                              "2|239740159.0|4|'a'|nan",
                              "3|231672580.0|4|'a'|nan",
                              "4|231770255.0|4|'a'|nan",
                              "5|251900850.0|4|'a'|nan",
                              "6|237095428.0|4|'a'|nan",
                              "7|244782590.0|4|'a'|nan",
                              "8|214786546.0|4|'a'|nan",
                              "9|235457891.0|4|'a'|nan",
                              "10|232653058.0|4|'a'|nan",
                              "11|234498890.0|4|'a'|nan"],
 'broadcast_negative_zero': ["0|212777951.0|4|'zz'|-0.0",
                             "1|254872871.0|4|'zz'|-0.0",
                             "2|239740159.0|4|'zz'|-0.0",
                             "3|231672580.0|4|'zz'|-0.0",
                             "4|231770255.0|4|'zz'|-0.0",
                             "5|251900850.0|4|'zz'|-0.0",
                             "6|237095428.0|4|'zz'|-0.0",
                             "7|244782590.0|4|'zz'|-0.0",
                             "8|214786546.0|4|'zz'|-0.0",
                             "9|235457891.0|4|'zz'|-0.0",
                             "10|232653058.0|4|'zz'|-0.0",
                             "11|234498890.0|4|'zz'|-0.0"],
 'broadcast_null': ['0|212777951.0|4|None|None',
                    '1|254872871.0|4|None|None',
                    '2|239740159.0|4|None|None',
                    '3|231672580.0|4|None|None',
                    '4|231770255.0|4|None|None',
                    '5|251900850.0|4|None|None',
                    '6|237095428.0|4|None|None',
                    '7|244782590.0|4|None|None',
                    '8|214786546.0|4|None|None',
                    '9|235457891.0|4|None|None',
                    '10|232653058.0|4|None|None',
                    '11|234498890.0|4|None|None'],
 'broadcast_ungrouped_empty_input': ['3|0.5|9|None|None'],
 'broadcast_sum_and_count': ["0|659384037.0|4|'a'|nan",
                             "1|789955674.0|4|'a'|nan",
                             "2|742956999.0|4|'a'|nan",
                             "3|718066861.0|4|'a'|nan",
                             "4|718344121.0|4|'a'|nan",
                             "5|780736639.0|4|'a'|nan",
                             "6|734761933.0|4|'a'|nan",
                             "7|758645412.0|4|'a'|nan",
                             "8|665595849.0|4|'a'|nan",
                             "9|729760569.0|4|'a'|nan",
                             "10|721087317.0|4|'a'|nan",
                             "11|726710968.0|4|'a'|nan"],
 'broadcast_zero_then_negative_zero': ["0|212777951.0|4|''|-0.0",
                                       "1|254872871.0|4|''|-0.0",
                                       "2|239740159.0|4|''|-0.0",
                                       "3|231672580.0|4|''|-0.0",
                                       "4|231770255.0|4|''|-0.0",
                                       "5|251900850.0|4|''|-0.0",
                                       "6|237095428.0|4|''|-0.0",
                                       "7|244782590.0|4|''|-0.0",
                                       "8|214786546.0|4|''|-0.0",
                                       "9|235457891.0|4|''|-0.0",
                                       "10|232653058.0|4|''|-0.0",
                                       "11|234498890.0|4|''|-0.0"],
 'dictionary_key': ["'a'|21754497073.0|4",
                    "'b'|17300224361.0|4",
                    "'c'|16236490271.0|4"],
 'invariant_left_stable_keys': ['0|212777951.0|4',
                                '1|254872871.0|4',
                                '2|239740159.0|4',
                                '3|231672580.0|4',
                                '4|231770255.0|4',
                                '5|251900850.0|4',
                                '6|237095428.0|4',
                                '7|244782590.0|4',
                                '8|214786546.0|4',
                                '9|235457891.0|4',
                                '10|232653058.0|4',
                                '11|234498890.0|4'],
 'invariant_right_stable_keys': ['7|13.0|4',
                                 '8|13.0|4',
                                 '10|5.0|4',
                                 '9|-7.0|4',
                                 '0|9.0|4',
                                 '6|13.0|4',
                                 '5|13.0|4',
                                 '1|-7.0|4',
                                 '11|5.0|4',
                                 '4|5.0|4',
                                 '2|1.0|4',
                                 '3|9.0|4'],
 'keys_grow': ['0|9.0|4', '1|-6.0|4', '2|0.0|4', '3|2.0|4', '4|0.0|4'],
 'keys_reordered': ['0|9.0|4',
                    '1|-7.0|4',
                    '2|1.0|4',
                    '3|9.0|4',
                    '4|5.0|4',
                    '5|13.0|4',
                    '6|13.0|4',
                    '7|13.0|4',
                    '8|13.0|4',
                    '9|-7.0|4',
                    '10|5.0|4',
                    '11|5.0|4'],
 'keys_shrink': ['7|13.0|4',
                 '8|13.0|4',
                 '10|5.0|4',
                 '9|-7.0|4',
                 '6|13.0|4',
                 '5|13.0|4',
                 '11|5.0|4',
                 '4|5.0|4'],
 'kmeans_iterate': ['0|-3.9473684210526314|-1.8245614035087718',
                    '1|3.632911392405063|-2.6455696202531644',
                    '2|0.046875|3.765625'],
 'kmeans_recursive': ['0|-3.9473684210526314|-1.8245614035087718',
                      '1|3.632911392405063|-2.6455696202531644',
                      '2|0.046875|3.765625'],
 'left_join_invariant_left': ['0|71386667.5|4',
                              '1|94411226.5|4',
                              '2|88671276.5|4',
                              '3|83623634.0|4',
                              '4|87085131.0|4',
                              '5|92904363.0|4',
                              '6|84106727.5|4',
                              '7|90301570.5|4',
                              '8|81235331.5|4',
                              '9|89165741.5|4',
                              '10|91286318.5|4',
                              '11|77971617.5|4'],
 'left_join_invariant_right': ['7|13.0|4',
                               '8|13.0|4',
                               '10|5.0|4',
                               '0|9.0|4',
                               '6|13.0|4',
                               '5|13.0|4',
                               '11|5.0|4',
                               '4|5.0|4',
                               '3|9.0|4',
                               '9|401.0|4',
                               '1|401.0|4',
                               '2|401.0|4'],
 'left_join_residual': ['7|13.0|4',
                        '8|13.0|4',
                        '0|9.0|4',
                        '6|13.0|4',
                        '5|13.0|4',
                        '3|9.0|4',
                        '10|11.0|4',
                        '11|11.0|4',
                        '4|11.0|4',
                        '2|15.0|4',
                        '9|29.0|4',
                        '1|29.0|4'],
 'nested_iterate': ['7|39790252741.0|4',
                    '8|39790252741.0|4',
                    '10|39790252741.0|4',
                    '9|39790252741.0|4',
                    '0|39790252741.0|4',
                    '6|39790252741.0|4',
                    '5|39790252741.0|4',
                    '1|39790252741.0|4',
                    '11|39790252741.0|4',
                    '4|39790252741.0|4',
                    '2|39790252741.0|4',
                    '3|39790252741.0|4'],
 'null_nan_negative_zero_keys': ['-0.0|56938829806.0|4',
                                 '1.5|5693223841.0|4',
                                 '2.5|2775321776.0|4',
                                 'nan|3068946601.0|4'],
 'pagerank_iterate': ['0|0.03222883417666181',
                      '1|0.03763028906695855',
                      '2|0.02401242473817684',
                      '3|0.027044725032800886',
                      '4|0.04568946429126222',
                      '5|0.04595964565202913',
                      '6|0.02943601811187229',
                      '7|0.0238632751260163',
                      '8|0.030944033581686882',
                      '9|0.04617815908371049',
                      '10|0.019624329168547762',
                      '11|0.031708729403969176',
                      '12|0.03172187053891269',
                      '13|0.04058720828484075',
                      '14|0.030975033486102543',
                      '15|0.048946243930337974',
                      '16|0.02195320591494095',
                      '17|0.028155008165435987',
                      '18|0.038069951277081515',
                      '19|0.048423109788831936',
                      '20|0.0347080065881374',
                      '21|0.023683232321678214',
                      '22|0.03358130380887596',
                      '23|0.03294916751578218',
                      '24|0.025504593072452265',
                      '25|0.021354419625271157',
                      '26|0.03258329157079203',
                      '27|0.04317892675231291',
                      '28|0.034650359998401006',
                      '29|0.03465513992612024'],
 'pagerank_recursive': ['0|0.03222883417666181',
                        '1|0.03763028906695855',
                        '2|0.02401242473817684',
                        '3|0.027044725032800886',
                        '4|0.04568946429126222',
                        '5|0.04595964565202913',
                        '6|0.02943601811187229',
                        '7|0.0238632751260163',
                        '8|0.030944033581686882',
                        '9|0.04617815908371049',
                        '10|0.019624329168547762',
                        '11|0.031708729403969176',
                        '12|0.03172187053891269',
                        '13|0.04058720828484075',
                        '14|0.030975033486102543',
                        '15|0.048946243930337974',
                        '16|0.02195320591494095',
                        '17|0.028155008165435987',
                        '18|0.038069951277081515',
                        '19|0.048423109788831936',
                        '20|0.0347080065881374',
                        '21|0.023683232321678214',
                        '22|0.03358130380887596',
                        '23|0.03294916751578218',
                        '24|0.025504593072452265',
                        '25|0.021354419625271157',
                        '26|0.03258329157079203',
                        '27|0.04317892675231291',
                        '28|0.034650359998401006',
                        '29|0.03465513992612024'],
 'residual_reads_working_column': ['0|-7251.0|4',
                                   '1|-11980.0|4',
                                   '2|-6258.0|4',
                                   '3|-12347.0|4',
                                   '4|-11005.0|4',
                                   '5|-8313.0|4',
                                   '6|-14257.0|4',
                                   '7|-11284.0|4',
                                   '8|-5727.0|4',
                                   '9|-8096.0|4',
                                   '10|-10126.0|4',
                                   '11|-12353.0|4']}


WORKLOADS = {
    "pagerank_iterate":
        (graph_db, pagerank_iterate_sql("edges", 0.85, 7)),
    "pagerank_recursive":
        (graph_db, pagerank_recursive_sql("edges", 0.85, 7)),
    "kmeans_iterate":
        (kmeans_db, kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3)),
    "kmeans_recursive":
        (kmeans_db, kmeans_recursive_sql("pts", "ctr", ["x", "y"], 3)),
}

CONFIGS = list(itertools.product(("raw", "auto"), (1, 2)))


@pytest.mark.parametrize("encoding, workers", CONFIGS)
def test_cases_match_the_recording(encoding, workers):
    db = make_db(encoding=encoding, workers=workers, parallel_threshold=1)
    for name, (init, step) in CASES.items():
        rows = db.execute(iterate_sql(init, step)).rows
        assert rendered(rows) == RECORDED[name], name


@pytest.mark.parametrize("encoding, workers", CONFIGS)
def test_workloads_match_the_recording(encoding, workers):
    for name, (make, sql) in WORKLOADS.items():
        db = make(encoding=encoding, workers=workers, parallel_threshold=1)
        assert rendered(db.execute(sql).rows) == RECORDED[name], name


@pytest.mark.parametrize("case", sorted(CASES))
def test_cases_match_the_driver_loop(case):
    init, step = CASES[case]
    db = make_db()
    expected = sorted(rendered(drive_iterate(db, init, step, STOP)))
    assert sorted(rendered(db.execute(iterate_sql(init, step)).rows)) \
        == expected


def reuse(db, sql) -> tuple[float, float]:
    """(pairs reused, group codes reused) by one execution of ``sql``."""
    names = (
        "exec_loop_pairs_reused_total", "exec_loop_group_codes_reused_total"
    )
    before = [counter(db, name) for name in names]
    db.execute(sql)
    pairs, codes = (counter(db, n) - b for n, b in zip(names, before))
    return pairs, codes


#: name -> (pairs reused, group codes reused) over the case's 4 rounds.
#: Round 1 reads the init's rows; a GROUP BY emits its keys in another
#: order than the init, a LEFT join moves its unmatched rows to the end,
#: so round 2 misses too where either happens. A residual keeps the
#: group codes from replaying (the join gathers its columns afresh).
REUSE = {
    "invariant_left_stable_keys": (2, 2),
    "invariant_right_stable_keys": (3, 0),
    "keys_reordered": (0, 0),
    "keys_grow": (0, 0),
    "keys_shrink": (0, 0),
    "null_nan_negative_zero_keys": (2, 2),
    "dictionary_key": (2, 2),
    "left_join_invariant_right": (2, 0),
    "left_join_invariant_left": (2, 0),
    "residual_reads_working_column": (2, 0),
    # Which rows the residual drops moves the working keys each round.
    "left_join_residual": (0, 0),
    # 4 inner executions, each replaying its rounds 2 and 3.
    "nested_iterate": (8, 0),
    "broadcast_null": (2, 2),
    "broadcast_nan_and_string": (2, 2),
    "broadcast_negative_zero": (2, 2),
    "broadcast_zero_then_negative_zero": (2, 2),
    "broadcast_sum_and_count": (2, 2),
    "broadcast_distinct": (2, 2),
    "broadcast_ungrouped_empty_input": (0, 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reuse_happens_exactly_where_the_keys_repeat(case):
    init, step = CASES[case]
    assert reuse(make_db(), iterate_sql(init, step)) == REUSE[case]


@pytest.mark.parametrize(
    "sql_of", [pagerank_iterate_sql, pagerank_recursive_sql]
)
def test_pagerank_replays_all_but_the_first_rounds(sql_of):
    rounds = 9
    db = graph_db()
    analyzed = db.explain_analyze(sql_of("edges", 0.85, rounds))
    (join,) = [
        n for n in analyzed.operators()
        if n.label == "HashJoin(inner, keys=1, round-stable)"
    ]
    assert join.calls == rounds
    # Round 1 reads the init's rows; the GROUP BY emits the vertices in
    # the init's order, so every later round replays.
    assert analyzed.counters["exec_loop_pairs_reused_total"] == rounds - 1
    assert (
        analyzed.counters["exec_loop_group_codes_reused_total"]
        == rounds - 1
    )
    text = analyzed.format()
    assert "exec_loop_pairs_reused_total" in text
    assert "exec_loop_group_codes_reused_total" in text


def test_joins_outside_a_loop_are_not_round_stable():
    db = make_db()
    analyzed = db.explain_analyze(
        f"SELECT f.d, sum(u.w) FROM {BIG} f JOIN u ON f.s = u.k GROUP BY f.d"
    )
    labels = [n.label for n in analyzed.operators()]
    assert "HashJoin(inner, keys=1)" in labels
    assert not any("round-stable" in label for label in labels)


def test_round_shared_copies_are_not_round_stable():
    """A copy shared within a round is a new batch every round: joining
    it keeps no memo."""
    db = kmeans_db()
    analyzed = db.explain_analyze(
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3)
    )
    assert not any(
        "round-stable" in n.label for n in analyzed.operators()
    )


# -- governor ----------------------------------------------------------------

#: A PageRank-shaped loop that never stops on its own.
ENDLESS = iterate_sql(
    INIT,
    f"SELECT f.d AS k, sum(i.x * 0.5 + f.w) AS x, max(i.it) + 1 AS it "
    f"FROM iterate i JOIN {BIG} f ON i.k = f.s GROUP BY f.d",
    "SELECT 1 FROM iterate WHERE it < 0",
)


def test_memos_are_released_after_completion_and_limit():
    db = make_db()
    init, step = CASES["invariant_left_stable_keys"]
    db.execute(iterate_sql(init, step))
    assert db.last_governor["live_bytes"] == 0
    limited = make_db(max_iterations=5)
    with pytest.raises(IterationLimitError):
        limited.execute(ENDLESS)
    assert limited.last_governor["live_bytes"] == 0


def test_memos_are_released_after_cancel():
    db = make_db()
    outcome = {}

    def run():
        try:
            db.execute(ENDLESS)
        except QueryCancelled:
            outcome["cancelled"] = True
        except IterationLimitError:
            outcome["limit"] = True

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(0.3)
    db.cancel()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcome.get("cancelled"), outcome
    # Cancelled mid-loop, with the memos made in round 1 still held.
    assert db.last_stats.iterations > 2
    assert db.last_governor["live_bytes"] == 0
