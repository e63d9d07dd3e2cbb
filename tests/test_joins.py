"""Join semantics: hash joins, outer joins, non-equi, NULL keys."""

import numpy as np
import pytest

import repro
from repro.exec import join as join_mod


class TestInnerJoins:
    def test_basic_equi_join(self, people_db):
        rows = people_db.execute(
            "SELECT p.name, o.amount FROM people p "
            "JOIN orders o ON p.id = o.person_id ORDER BY o.order_id"
        ).rows
        assert rows == [
            ("alice", 25.0), ("alice", 75.0), ("bob", 10.0),
            ("carol", 99.5),
        ]

    def test_comma_join_with_where_becomes_equi(self, people_db):
        rows = people_db.execute(
            "SELECT count(*) FROM people p, orders o "
            "WHERE p.id = o.person_id"
        ).scalar()
        assert rows == 4

    def test_using_clause(self, db):
        db.execute("CREATE TABLE a (k INTEGER, x INTEGER)")
        db.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        db.insert_rows("a", [(1, 10), (2, 20)])
        db.insert_rows("b", [(2, 200), (3, 300)])
        rows = db.execute(
            "SELECT a.k, x, y FROM a JOIN b USING (k)"
        ).rows
        assert rows == [(2, 20, 200)]

    def test_multi_key_join(self, db):
        db.execute("CREATE TABLE a (k1 INTEGER, k2 VARCHAR, v INTEGER)")
        db.execute("CREATE TABLE b (k1 INTEGER, k2 VARCHAR, w INTEGER)")
        db.insert_rows("a", [(1, "x", 10), (1, "y", 11), (2, "x", 20)])
        db.insert_rows("b", [(1, "x", 100), (2, "y", 201)])
        rows = db.execute(
            "SELECT v, w FROM a JOIN b ON a.k1 = b.k1 AND a.k2 = b.k2"
        ).rows
        assert rows == [(10, 100)]

    def test_duplicate_build_keys_expand(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.insert_rows("l", [(1,), (1,)])
        db.insert_rows("r", [(1,), (1,), (1,)])
        assert db.execute(
            "SELECT count(*) FROM l JOIN r ON l.k = r.k"
        ).scalar() == 6

    def test_null_keys_never_match(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.insert_rows("l", [(1,), (None,)])
        db.insert_rows("r", [(None,), (1,)])
        assert db.execute(
            "SELECT count(*) FROM l JOIN r ON l.k = r.k"
        ).scalar() == 1

    def test_join_expression_keys(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.insert_rows("l", [(2,), (3,)])
        db.insert_rows("r", [(4,), (9,)])
        rows = db.execute(
            "SELECT l.k, r.k FROM l JOIN r ON l.k * 2 = r.k"
        ).rows
        assert rows == [(2, 4)]

    def test_self_join_disambiguated(self, people_db):
        rows = people_db.execute(
            "SELECT a.name, b.name FROM people a JOIN people b "
            "ON a.age = b.age AND a.id < b.id"
        ).rows
        assert rows == [("bob", "erin")]

    def test_residual_predicate(self, people_db):
        rows = people_db.execute(
            "SELECT p.name FROM people p JOIN orders o "
            "ON p.id = o.person_id AND o.amount > 50 ORDER BY p.name"
        ).rows
        assert rows == [("alice",), ("carol",)]

    def test_join_three_tables(self, db):
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (x INTEGER)")
        db.execute("CREATE TABLE c (x INTEGER)")
        for table in ("a", "b", "c"):
            db.insert_rows(table, [(1,), (2,)])
        assert db.execute(
            "SELECT count(*) FROM a JOIN b ON a.x = b.x "
            "JOIN c ON b.x = c.x"
        ).scalar() == 2


class TestLeftJoins:
    def test_unmatched_left_rows_null_extended(self, people_db):
        rows = people_db.execute(
            "SELECT p.name, o.amount FROM people p "
            "LEFT JOIN orders o ON p.id = o.person_id "
            "ORDER BY p.id, o.order_id"
        ).rows
        assert ("dave", None) in rows
        assert ("erin", None) in rows
        assert len(rows) == 6

    def test_left_join_empty_right(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER, v INTEGER)")
        db.insert_rows("l", [(1,), (2,)])
        rows = db.execute(
            "SELECT l.k, r.v FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.k"
        ).rows
        assert rows == [(1, None), (2, None)]

    def test_left_join_residual_failure_keeps_row(self, people_db):
        # A match that fails the residual makes the row unmatched.
        rows = people_db.execute(
            "SELECT p.name, o.order_id FROM people p "
            "LEFT JOIN orders o ON p.id = o.person_id "
            "AND o.amount > 1000 ORDER BY p.id"
        ).rows
        assert all(order_id is None for _name, order_id in rows)
        assert len(rows) == 5

    def test_is_null_filter_finds_unmatched(self, people_db):
        rows = people_db.execute(
            "SELECT p.name FROM people p "
            "LEFT JOIN orders o ON p.id = o.person_id "
            "WHERE o.order_id IS NULL ORDER BY p.name"
        ).rows
        assert rows == [("dave",), ("erin",)]


class TestCrossAndNonEqui:
    def test_cross_join_cardinality(self, db):
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.insert_rows("a", [(1,), (2,), (3,)])
        db.insert_rows("b", [(10,), (20,)])
        assert db.execute(
            "SELECT count(*) FROM a CROSS JOIN b"
        ).scalar() == 6

    def test_non_equi_join(self, db):
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.insert_rows("a", [(1,), (5,)])
        db.insert_rows("b", [(3,), (4,)])
        rows = db.execute(
            "SELECT x, y FROM a JOIN b ON a.x < b.y ORDER BY x, y"
        ).rows
        assert rows == [(1, 3), (1, 4)]

    def test_empty_inputs(self, db):
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.insert_rows("a", [(1,)])
        assert db.execute(
            "SELECT count(*) FROM a JOIN b ON a.x = b.y"
        ).scalar() == 0
        assert db.execute(
            "SELECT count(*) FROM a CROSS JOIN b"
        ).scalar() == 0


class TestOffsetTableProbe:
    """``_probe_chunk`` reads match ranges from an offset table when the
    build keys are dense and binary-searches them when they are not;
    the pairs and their order must not depend on which one ran."""

    INT64 = np.iinfo(np.int64)

    @staticmethod
    def _probe_both_ways(build, probe):
        build = np.asarray(build, dtype=np.int64)
        probe = np.asarray(probe, dtype=np.int64)
        right_rows = np.argsort(build, kind="stable")
        sorted_codes = build[right_rows]
        probe_rows = np.arange(len(probe), dtype=np.int64)
        table = join_mod.offset_table(sorted_codes)
        searched = join_mod._probe_chunk(
            probe_rows, probe, sorted_codes, right_rows, None
        )
        if table is not None:
            indexed = join_mod._probe_chunk(
                probe_rows, probe, sorted_codes, right_rows, table
            )
            assert np.array_equal(indexed[0], searched[0])
            assert np.array_equal(indexed[1], searched[1])
        # Independent of both: the pairs a nested loop would list.
        expected = [
            (i, j)
            for i, key in enumerate(probe.tolist())
            for j in right_rows.tolist()
            if build[j] == key
        ]
        assert list(zip(*map(np.ndarray.tolist, searched))) == expected
        return table is not None

    @pytest.mark.parametrize("seed", range(40))
    def test_random_key_sets(self, seed):
        rng = np.random.default_rng(seed)
        low = int(rng.integers(-50, 50))
        width = int(rng.integers(1, 60))
        build = rng.integers(low, low + width, size=rng.integers(1, 40))
        # Duplicates on both sides, probes below, inside and above.
        probe = rng.integers(low - 10, low + width + 10,
                             size=rng.integers(0, 60))
        self._probe_both_ways(build, probe)

    def test_dense_keys_take_the_table_and_sparse_do_not(self):
        assert self._probe_both_ways(range(100), [0, 50, 99, 100, -1])
        assert self._probe_both_ways([7] * 5, [7, 6, 8])
        assert not self._probe_both_ways([0, 1_000_000], [0, 5, 1_000_000])

    def test_probe_rows_widen_the_span_a_table_may_cover(self):
        # Factorized codes number the distinct keys of both sides, so a
        # small build's codes can be spread over build + probe values.
        codes = np.array([0, 500, 999], dtype=np.int64)
        assert join_mod.offset_table(codes) is None
        assert join_mod.offset_table(codes, probe_rows=987) is None
        base, offsets = join_mod.offset_table(codes, probe_rows=988)
        assert base == 0 and len(offsets) == 1002

    def test_single_key_and_empty_builds(self):
        lo, hi = self.INT64.min, self.INT64.max
        assert self._probe_both_ways([5], [5, 4, 6, lo, hi])
        assert not self._probe_both_ways([], [1, 2, 3])
        assert self._probe_both_ways([3, 3], [])

    def test_spans_near_the_int64_limits(self):
        lo, hi = self.INT64.min, self.INT64.max
        # The span itself does not fit in int64: must not overflow into
        # a small number and allocate (or index) a bogus table.
        assert not self._probe_both_ways([lo, hi], [lo, hi, 0, -1])
        assert not self._probe_both_ways([-1, hi], [hi, -1, 0])
        # Dense keys hugging either limit; probes a whole range away.
        assert self._probe_both_ways([hi, hi - 1, hi], [hi, lo, 0, hi - 2])
        assert self._probe_both_ways([lo, lo + 2], [lo, hi, lo + 1, lo + 2])

    def test_sql_results_identical_with_the_table_switched_off(
        self, monkeypatch
    ):
        def join_db():
            db = repro.Database()
            db.execute("CREATE TABLE fact (id INTEGER, k BIGINT, s VARCHAR)")
            db.insert_rows(
                "fact",
                [
                    (i, None if i % 13 == 0 else (i * 7) % 45 - 3,
                     f"s{i % 9}")
                    for i in range(400)
                ],
            )
            db.execute("CREATE TABLE dim (k INTEGER, s VARCHAR, w DOUBLE)")
            db.insert_rows(
                "dim",
                [(i % 40, f"s{i % 6}", i / 7) for i in range(60)]
                + [(None, "s1", 0.5)],
            )
            return db

        queries = [
            "SELECT f.id, d.w FROM fact f JOIN dim d ON f.k = d.k",
            "SELECT f.id, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k",
            "SELECT f.id, d.k FROM fact f JOIN dim d "
            "ON f.s = d.s AND f.k = d.k",
            "SELECT sum(d.w), count(*) FROM fact f JOIN dim d ON f.s = d.s",
        ]
        indexed = join_db()
        expected = [indexed.execute(sql).rows for sql in queries]
        monkeypatch.setattr(join_mod, "offset_table", lambda *_: None)
        searched = join_db()
        for sql, rows in zip(queries, expected):
            assert searched.execute(sql).rows == rows, sql


    # A build side whose keys are unique — a key/foreign-key join —
    # probes with one gather of the hits instead of expanding match
    # ranges; the pairs and their order must be those of the expansion.
    # A dense integer build of any size probes its raw keys; its pairs
    # must be those of the joint factorization.

    JOINS = [
        "SELECT f.id, d.w FROM fact f JOIN dim d ON f.k = d.k",
        "SELECT f.id, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k",
        "SELECT d.w, count(*) FROM fact f JOIN dim d ON f.k = d.k "
        "GROUP BY d.w ORDER BY d.w",
    ]

    @staticmethod
    def _db(build_keys, probe_keys, **kwargs):
        db = repro.Database(**kwargs)
        db.execute("CREATE TABLE dim (k BIGINT, w DOUBLE)")
        db.insert_rows(
            "dim", [(k, i / 4) for i, k in enumerate(build_keys)]
        )
        db.execute("CREATE TABLE fact (id INTEGER, k INTEGER)")
        db.insert_rows("fact", list(enumerate(probe_keys)))
        return db

    @staticmethod
    def _spy(monkeypatch, forced_unique=None):
        """Record each probe's ``unique`` flag; with ``forced_unique``,
        probe as if the flag were that instead."""
        seen = []
        real = join_mod._probe_chunk

        def probe(probe_rows, codes, sorted_codes, right_rows, table,
                  unique=False):
            seen.append(unique)
            if forced_unique is not None:
                unique = forced_unique
            return real(
                probe_rows, codes, sorted_codes, right_rows, table, unique
            )

        monkeypatch.setattr(join_mod, "_probe_chunk", probe)
        return seen

    def _rows_both_ways(self, monkeypatch, build_keys, probe_keys,
                        **kwargs):
        """Each join's rows, and whether its build was found unique —
        checked against the same join probed by expansion."""
        db = self._db(build_keys, probe_keys, **kwargs)
        seen = self._spy(monkeypatch)
        rows = [db.execute(sql).rows for sql in self.JOINS]
        flags = set(seen)
        monkeypatch.undo()
        self._spy(monkeypatch, forced_unique=False)
        assert [db.execute(sql).rows for sql in self.JOINS] == rows
        monkeypatch.undo()
        assert len(flags) == 1
        return rows, flags.pop()

    @pytest.mark.parametrize("seed", range(8))
    def test_unique_keys_gather_the_hits(self, seed):
        rng = np.random.default_rng(seed)
        build = rng.permutation(60)[:40]
        probe = rng.integers(-5, 65, size=200)
        right_rows = np.argsort(build, kind="stable")
        sorted_codes = build[right_rows]
        probe_rows = np.arange(len(probe), dtype=np.int64)
        for table in (None, join_mod.offset_table(sorted_codes)):
            expanded = join_mod._probe_chunk(
                probe_rows, probe, sorted_codes, right_rows, table
            )
            gathered = join_mod._probe_chunk(
                probe_rows, probe, sorted_codes, right_rows, table, True
            )
            assert np.array_equal(gathered[0], expanded[0])
            assert np.array_equal(gathered[1], expanded[1])

    def test_a_key_foreign_key_join_takes_the_gather(self, monkeypatch):
        rows, unique = self._rows_both_ways(
            monkeypatch, range(50), [(i * 7) % 60 for i in range(300)]
        )
        assert unique and len(rows[0]) == 250 and len(rows[1]) == 300

    def test_one_duplicate_key_expands(self, monkeypatch):
        rows, unique = self._rows_both_ways(
            monkeypatch, list(range(50)) + [17],
            [(i * 7) % 60 for i in range(300)],
        )
        assert not unique
        assert sum(1 for _id, w in rows[1] if w is None) == 50

    def test_null_keys_meet_nothing(self, monkeypatch):
        build = [None if k % 10 == 3 else k for k in range(50)] + [None]
        probe = [None if i % 11 == 0 else i % 55 for i in range(300)]
        rows, unique = self._rows_both_ways(monkeypatch, build, probe)
        assert unique
        ids = {i for i, _w in rows[0]}
        assert all(probe[i] is not None and probe[i] % 10 != 3 for i in ids)

    def test_left_join_pads_the_misses(self, monkeypatch):
        rows, unique = self._rows_both_ways(
            monkeypatch, range(0, 100, 2), [i % 120 for i in range(300)]
        )
        assert unique
        padded = [i for i, w in rows[1] if w is None]
        misses = [k % 2 or k >= 100 for k in (i % 120 for i in range(300))]
        assert padded == [i for i, miss in enumerate(misses) if miss]

    def test_parallel_morsels_match_serial(self, monkeypatch):
        args = (range(40), [(i * 13) % 47 for i in range(500)])
        serial, unique = self._rows_both_ways(monkeypatch, *args)
        parallel, _ = self._rows_both_ways(
            monkeypatch, *args, workers=4, parallel_threshold=0,
            morsel_rows=7,
        )
        assert unique and parallel == serial

    def test_a_large_dense_build_probes_raw_keys(self, monkeypatch):
        build = [k * 3 for k in range(join_mod.SMALL_BUILD_ROWS + 500)]
        probe = [(i * 37) % (3 * len(build) + 20) for i in range(6000)]
        db = self._db(build, probe)
        calls = []
        real = join_mod.factorize
        monkeypatch.setattr(
            join_mod, "factorize",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        raw = [db.execute(sql).rows for sql in self.JOINS]
        assert calls == []
        monkeypatch.setattr(join_mod, "_raw_int_keys", lambda *_: None)
        assert [db.execute(sql).rows for sql in self.JOINS] == raw
        assert calls

class TestUnpaddedGather:
    """Inner and cross joins skip the padding masks of
    ``_null_extended``; NULLs the right side already has must survive
    that shortcut, and a LEFT join must still pad."""

    @pytest.fixture
    def db(self):
        db = repro.Database()
        db.execute("CREATE TABLE l (k INTEGER)")
        db.insert_rows("l", [(1,), (2,), (3,)])
        db.execute("CREATE TABLE r (k INTEGER, v DOUBLE, w DOUBLE)")
        db.insert_rows("r", [(1, 0.5, None), (2, 1.5, 2.5)])
        return db

    def test_nulls_of_the_right_side_survive(self, db):
        assert db.execute(
            "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k ORDER BY l.k"
        ).rows == [(1, None), (2, 2.5)]
        assert db.execute(
            "SELECT l.k, r.w FROM l, r WHERE l.k = 3 ORDER BY r.k"
        ).rows == [(3, None), (3, 2.5)]

    def test_left_join_still_pads(self, db):
        assert db.execute(
            "SELECT l.k, r.v, r.w FROM l LEFT JOIN r ON l.k = r.k "
            "ORDER BY l.k"
        ).rows == [(1, 0.5, None), (2, 1.5, 2.5), (3, None, None)]


class TestOneRowSide:
    """A nested-loop join side the plan proves to hold at most one row
    — an ungrouped aggregate, ``LIMIT 1``, a one-row VALUES — runs
    first; empty, it ends the join, otherwise its row is broadcast. The
    rows, in their order, and the errors are those the pairwise join
    gives the same side when the plan cannot prove it has one row."""

    #: name -> (provably one row, the same row unproven)
    SIDES = {
        "ungrouped_aggregate": (
            "(SELECT max(w) AS m, max(s) AS s FROM u)",
            "(SELECT w AS m, s FROM u WHERE w = 7)",
        ),
        "limit_one": (
            "(SELECT w AS m, s FROM u ORDER BY w DESC LIMIT 1)",
            "(SELECT w AS m, s FROM u WHERE w > 6)",
        ),
        "one_row_values": (
            "(SELECT 7 AS m, 'b' AS s)",
            "(SELECT 7 AS m, 'b' AS s UNION ALL "
            "SELECT 7 AS m, 'b' AS s WHERE 1 = 0)",
        ),
    }
    SHAPES = [
        "SELECT t.k, t.v, x.m, x.s FROM t, {side} x",
        "SELECT t.k, t.v, x.m, x.s FROM {side} x, t",
        "SELECT t.k, x.s FROM t JOIN {side} x ON t.v < x.m",
        "SELECT t.k, t.v, x.s FROM t JOIN {side} x ON t.k + 5 = x.m",
    ]

    @pytest.fixture
    def db(self):
        db = repro.Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows(
            "t", [(i % 3, None if i == 4 else 10 - i) for i in range(8)]
        )
        db.execute("CREATE TABLE u (w INTEGER, s VARCHAR)")
        db.insert_rows("u", [(5, "a"), (-2, None), (7, "b")])
        return db

    @pytest.mark.parametrize("side", sorted(SIDES))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_match_the_pairwise_join(self, db, side, shape):
        proven, unproven = self.SIDES[side]
        expected = db.execute(shape.format(side=unproven)).rows
        assert expected
        assert db.execute(shape.format(side=proven)).rows == expected

    def test_cross_join_broadcasts(self, db):
        analyzed = db.explain_analyze(
            "SELECT t.k, x.m FROM t, (SELECT max(w) AS m FROM u) x"
        )
        assert analyzed.find("NestedLoopJoin(cross, broadcast)")
        assert len(analyzed.result.rows) == 8

    def test_empty_side_leaves_the_other_unrun(self, db):
        analyzed = db.explain_analyze(
            "SELECT t.k FROM t, "
            "(SELECT max(w) AS m FROM u HAVING max(w) > 100) x"
        )
        assert analyzed.result.rows == []
        assert analyzed.find("Scan(t)").calls == 0

    #: One other side per kind of node that may raise or run user code
    #: (``repro.expr.effects.PlanEffects.quiet``): the error it raises
    #: on ``u``, or None where the node cannot raise on this data.
    MAY_RAISE = {
        "cast": ("CAST(s AS INTEGER)", "cannot coerce"),
        "case": ("CASE WHEN w > 0 THEN w ELSE 0 END", None),
        "division": ("10 / (w - 5)", "division by zero"),
        "function": ("sqrt(w - 6)", "math domain error"),
        "like": ("s LIKE 'a%'", None),
        "modulo": ("10 % (w - 5)", "division by zero"),
        "udf": ("boom(w)", "boom"),
    }

    @pytest.mark.parametrize("kind", sorted(MAY_RAISE))
    def test_empty_side_still_runs_an_other_side_that_may_raise(
        self, db, kind
    ):
        """Leaving the other side unrun must not hide the error it
        raises in the pairwise join; one that raises nothing here still
        runs."""
        def boom(w):
            if w == 5:
                raise ValueError("boom")
            return w

        db.create_function("boom", boom, "INTEGER")
        expr, error = self.MAY_RAISE[kind]
        other = f"(SELECT {expr} AS z FROM u) a"
        pairwise = (
            f"SELECT a.z FROM {other}, (SELECT k FROM t WHERE k > 100) x"
        )
        broadcast = (
            f"SELECT a.z FROM {other}, "
            "(SELECT max(v) AS m FROM t HAVING max(v) > 100) x"
        )
        if error is None:
            assert db.execute(pairwise).rows == []
            analyzed = db.explain_analyze(broadcast)
            assert analyzed.find("NestedLoopJoin(cross, broadcast)")
            assert analyzed.result.rows == []
            assert analyzed.find("Scan(u)").calls == 1
            return
        with pytest.raises(repro.ReproError, match=error) as raised:
            db.execute(pairwise)
        with pytest.raises(type(raised.value), match=str(raised.value)):
            db.execute(broadcast)

    def test_empty_side_still_runs_a_volatile_other_side(self, db):
        calls = []

        def tick(v):
            calls.append(v)
            return v

        db.create_function("tick", tick, "INTEGER")
        other = "(SELECT tick(v) AS z FROM t) a"
        db.execute(
            f"SELECT a.z FROM {other}, (SELECT w FROM u WHERE w > 100) x"
        )
        pairwise = len(calls)
        del calls[:]
        assert db.execute(
            f"SELECT a.z FROM {other}, "
            "(SELECT max(w) AS m FROM u HAVING max(w) > 100) x"
        ).rows == []
        assert len(calls) == pairwise > 0
