"""Direct tests of physical operators and execution machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ExecutionError
from repro.exec.common import (
    DENSE_SPAN_FACTOR,
    concat_batches,
    factorize,
    group_representatives,
)
from repro.exec.parallel import WorkerPool, partial_grouped_aggregate
from repro.exec.physical import (
    ExecutionContext,
    ExecutionStats,
    materialize,
)
from repro.exec.planner import build_physical, execute_plan
from repro.expr import aggregates
from repro.plan import logical as lp
from repro.sql.parser import parse_statement
from repro.storage.column import Column, ColumnBatch
from repro.storage.encoding import (
    DictionaryColumn,
    decode_column,
    dictionary_encode,
)
from repro.types import BIGINT, BOOLEAN, DOUBLE, INTEGER, VARCHAR


class TestCommonKernels:
    def test_group_representatives_first_occurrence(self):
        codes = np.asarray([1, 0, 1, 2, 0], dtype=np.int64)
        reps = group_representatives(codes, 3)
        assert reps.tolist() == [1, 0, 3]

    def test_factorize_empty(self):
        codes, count = factorize([Column.from_values([], INTEGER)])
        assert len(codes) == 0 and count == 0

    def test_factorize_null_string_sentinel_safe(self):
        # A string equal to the internal sentinel must not collide
        # with NULL.
        col = Column.from_values(
            [None, "\0__null__", None, "\0__null__"], VARCHAR
        )
        codes, count = factorize([col])
        assert (codes.tolist(), count) == ([0, 1, 0, 1], 2)

    def test_concat_batches_skips_empty(self):
        layout = {"a": INTEGER}
        empty = ColumnBatch.empty(layout)
        full = ColumnBatch({"a": Column.from_values([1], INTEGER)})
        merged = concat_batches([empty, full, empty], ["a"])
        assert len(merged) == 1


# -- oracles -----------------------------------------------------------------
# The kernels these replaced, kept as references: ``np.unique`` per key
# column (a per-row dict for strings) and argsort + ``reduceat`` per
# aggregate. The engine's routes must hand out the very same codes.


def oracle_factorize_column(col: Column) -> tuple[np.ndarray, int]:
    col = decode_column(col)
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    validity = col.validity()
    if col.sql_type.kind is VARCHAR.kind:
        mapping: dict[object, int] = {}
        codes = np.zeros(n, dtype=np.int64)
        for i, value in enumerate(col.values):
            key = value if validity[i] else ("null",)
            codes[i] = mapping.setdefault(key, len(mapping))
        return codes, len(mapping)
    uniques, live = np.unique(col.values[validity], return_inverse=True)
    codes = np.full(n, len(uniques), dtype=np.int64)
    codes[validity] = live
    return codes, len(uniques) + (not validity.all())


def oracle_factorize(columns) -> tuple[np.ndarray, int]:
    codes, count = oracle_factorize_column(columns[0])
    for col in columns[1:]:
        more, more_count = oracle_factorize_column(col)
        uniques, codes = np.unique(
            codes * np.int64(more_count) + more, return_inverse=True
        )
        count = len(uniques)
    return codes.astype(np.int64), count


def oracle_reduce(values, codes, n_groups, ufunc):
    present = np.zeros(n_groups, dtype=np.bool_)
    out = np.zeros(n_groups, dtype=values.dtype)
    if len(values) == 0:
        return out, present
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    )
    out[sorted_codes[starts]] = ufunc.reduceat(values[order], starts)
    present[sorted_codes[starts]] = True
    return out, present


def assert_same_codes(columns, path=None):
    stats = ExecutionStats()
    codes, count = factorize(columns, stats)
    want_codes, want_count = oracle_factorize(columns)
    assert codes.dtype == np.int64
    assert count == want_count
    assert codes.tolist() == want_codes.tolist()
    assert np.bincount(codes, minlength=count).tolist() == np.bincount(
        want_codes, minlength=want_count
    ).tolist()
    if path is not None:
        taken = {p: c for p, c in stats.group_keys.items() if c}
        assert taken == {path: len(columns)}


def opt(values):
    return st.one_of(st.none(), values)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
words = st.sampled_from(["", "a", "b", "ab", "zeta", "\0__null__"])


class TestKeyCodes:
    @given(st.lists(opt(st.integers(-20, 20)), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_dense_and_negative_integers(self, values):
        assert_same_codes([Column.from_values(values, INTEGER)])

    @given(
        st.lists(
            opt(st.integers(-10**9, 10**9)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_gapped_integers(self, values):
        assert_same_codes([Column.from_values(values, BIGINT)])

    @given(
        st.lists(
            st.sampled_from(
                [INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1,
                 INT64_MAX]
            ),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_int64_extremes(self, values):
        # The span of these does not fit int64; one value alone is dense.
        col = Column(np.asarray(values, dtype=np.int64), BIGINT)
        path = "dense" if len(set(values)) == 1 else None
        assert_same_codes([col], path)

    def test_the_density_bound_is_the_joins(self):
        n = 50
        inside = np.arange(n, dtype=np.int64)
        inside[-1] = DENSE_SPAN_FACTOR * n - 1  # span == factor * rows
        assert_same_codes([Column(inside, BIGINT)], "dense")
        outside = inside.copy()
        outside[-1] += 1
        assert_same_codes([Column(outside, BIGINT)], "sort")

    @given(st.lists(opt(words), min_size=1, max_size=60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dictionary_columns(self, values, data):
        raw = Column.from_values(values, VARCHAR)
        encoded = dictionary_encode(raw)
        if encoded is None:  # all NULL
            return
        assert_same_codes([encoded], "dict")
        assert_same_codes([raw], "rows")
        # What an uncommitted DELETE leaves before compact_dictionary:
        # entries no row references.
        keep = np.asarray(
            data.draw(
                st.lists(st.booleans(), min_size=len(values),
                         max_size=len(values))
            )
        )
        if keep.any():
            survivors = encoded.filter(keep)
            assert len(survivors.dictionary) == len(encoded.dictionary)
            assert_same_codes([survivors], "dict")

    @given(
        st.lists(
            opt(st.sampled_from([0.0, -0.0, 1.5, -1.5, float("nan"),
                                 float("inf")])),
            min_size=1, max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_doubles_with_nan_and_signed_zero(self, values):
        assert_same_codes([Column.from_values(values, DOUBLE)], "sort")

    @given(
        st.lists(
            st.tuples(
                opt(st.integers(-3, 3)), opt(words),
                st.integers(-10**6, 10**6),
            ),
            min_size=1, max_size=60,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_and_three_column_keys(self, rows, encode):
        ints = Column.from_values([r[0] for r in rows], INTEGER)
        strs = Column.from_values([r[1] for r in rows], VARCHAR)
        if encode:
            strs = dictionary_encode(strs) or strs
        wide = Column.from_values([r[2] for r in rows], BIGINT)
        assert_same_codes([ints, strs])
        assert_same_codes([strs, ints])
        # ``wide`` is nearly unique: the radix product outgrows the
        # density bound and the pair is compacted by sorting.
        assert_same_codes([ints, wide, strs])


def oracle_grouped(name, col, codes, n_groups):
    """(values, validity) of ``name`` over ``col`` from the sorted
    reduce, following the kernels' NULL handling."""
    mask = col.validity()
    values = col.values[mask]
    if name == "sum":
        values, ufunc = values.astype(np.int64), np.add
    elif name in ("min", "bool_and"):
        ufunc = np.minimum
    else:
        ufunc = np.maximum
    if name.startswith("bool"):
        values = values.astype(np.int8)
    reduced, present = oracle_reduce(values, codes[mask], n_groups, ufunc)
    if name.startswith("bool"):
        reduced = reduced.astype(np.bool_)
    return reduced, present


def assert_same_column(got: Column, values, present, bits=True):
    assert got.validity().tolist() == present.tolist()
    if bits:
        assert got.values[present].tobytes() == values[present].tobytes()
    else:
        assert np.array_equal(
            got.values[present], values[present], equal_nan=True
        )


#: No -0.0: a tie between the two zeros is the one place the fold
#: order shows (see test_signed_zero_ties).
doubles = st.sampled_from(
    [0.0, 1.0, -1.0, 2.5, float("nan"), float("inf"), float("-inf")]
)


def grouped_rows(values):
    return st.lists(
        st.tuples(st.integers(0, 6), opt(values)), max_size=120
    )


def split(rows, sql_type, n_groups=8):
    """Codes leave group 7 empty and, with luck, some group all-NULL."""
    codes = np.asarray([r[0] for r in rows], dtype=np.int64)
    return Column.from_values([r[1] for r in rows], sql_type), codes, n_groups


class TestScatterReduce:
    @given(grouped_rows(doubles))
    @settings(max_examples=80, deadline=None)
    def test_min_max_of_doubles(self, rows):
        col, codes, n = split(rows, DOUBLE)
        for name in ("min", "max"):
            got = aggregates.lookup(name).grouped(col, codes, n)
            assert_same_column(got, *oracle_grouped(name, col, codes, n))

    @given(grouped_rows(st.sampled_from([0.0, -0.0, 1.0, float("nan")])))
    @settings(max_examples=80, deadline=None)
    def test_signed_zero_ties(self, rows):
        """0.0 and -0.0 are one SQL value; which sign a tie reports is
        the fold order's business (the sorted reduce folded in SIMD
        lanes, the scatter takes the last row) — equal as values."""
        col, codes, n = split(rows, DOUBLE)
        for name in ("min", "max"):
            got = aggregates.lookup(name).grouped(col, codes, n)
            assert_same_column(
                got, *oracle_grouped(name, col, codes, n), bits=False
            )

    def test_the_last_of_tied_zeros_wins(self):
        col = Column(np.asarray([0.0, -0.0, 0.0, -0.0]), DOUBLE)
        codes = np.asarray([0, 0, 1, 1], dtype=np.int64)
        got = aggregates.lookup("min").grouped(col, codes[::-1].copy(), 2)
        assert np.signbit(got.values).tolist() == [True, True]
        got = aggregates.lookup("max").grouped(col, codes, 2)
        assert np.signbit(got.values).tolist() == [True, True]

    @given(
        grouped_rows(
            st.sampled_from([INT64_MIN, -7, 0, 3, 2**62, INT64_MAX])
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_min_max_sum(self, rows):
        # Sums wrap like int64 in both; extremes never do.
        col, codes, n = split(rows, BIGINT)
        for name in ("min", "max", "sum"):
            got = aggregates.lookup(name).grouped(col, codes, n)
            assert_same_column(got, *oracle_grouped(name, col, codes, n))

    @given(grouped_rows(st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_boolean_folds(self, rows):
        col, codes, n = split(rows, BOOLEAN)
        for name in ("bool_and", "bool_or"):
            got = aggregates.lookup(name).grouped(col, codes, n)
            assert_same_column(got, *oracle_grouped(name, col, codes, n))

    def test_empty_input_and_all_null_groups(self):
        empty = Column.from_values([], DOUBLE)
        got = aggregates.lookup("min").grouped(
            empty, np.zeros(0, dtype=np.int64), 3
        )
        assert got.to_pylist() == [None, None, None]
        col = Column.from_values([None, 4, None], INTEGER)
        codes = np.asarray([0, 1, 0], dtype=np.int64)
        for name, want in (("min", 4), ("max", 4), ("sum", 4)):
            got = aggregates.lookup(name).grouped(col, codes, 3)
            assert got.to_pylist() == [None, want, None]

    @given(grouped_rows(doubles), grouped_rows(st.integers(-9, 9)),
           grouped_rows(st.booleans()))
    @settings(max_examples=40, deadline=None)
    def test_partials_on_a_pool_fold_to_the_same_bits(
        self, double_rows, int_rows, bool_rows
    ):
        pool = WorkerPool(4)
        try:
            for rows, sql_type, names in (
                (double_rows, DOUBLE, ("min", "max")),
                (int_rows, BIGINT, ("min", "max", "sum")),
                (bool_rows, BOOLEAN, ("bool_and", "bool_or")),
            ):
                col, codes, n = split(rows, sql_type)
                for name in names:
                    got = partial_grouped_aggregate(
                        name, col, codes, n, pool, chunk_rows=7
                    )
                    if got is None:  # a single chunk: the serial kernel
                        assert len(rows) <= 7
                        continue
                    assert_same_column(
                        got, *oracle_grouped(name, col, codes, n)
                    )
        finally:
            pool.shutdown()


class TestConcatKeepsDictionary:
    #: Not what the dictionary weighs: concat must pass the accounted
    #: size along like take/filter/slice, not walk the strings again.
    DICT_NBYTES = 12_345

    def stored(self):
        raw = Column.from_values(
            ["b", None, "a", "b", "c", None, "a", "c"], VARCHAR
        )
        fresh = dictionary_encode(raw)
        return raw, DictionaryColumn(
            fresh.codes, fresh.dictionary, VARCHAR, fresh.valid,
            dict_nbytes=self.DICT_NBYTES,
        )

    def test_parts_of_one_dictionary_stay_codes(self):
        raw, encoded = self.stored()
        parts = [encoded.slice(0, 3), encoded.filter(
            np.asarray([0, 0, 0, 1, 1, 0, 0, 0], dtype=bool)
        ), encoded.take(np.asarray([5, 6, 7]))]
        merged = Column.concat(parts)
        assert isinstance(merged, DictionaryColumn)
        assert merged.dictionary is encoded.dictionary
        assert merged.to_pylist() == raw.to_pylist()
        assert merged.nbytes == (
            merged.codes.nbytes + merged.valid.nbytes + self.DICT_NBYTES
        )
        no_nulls = Column.concat([encoded.slice(2, 5), encoded.slice(6, 8)])
        assert isinstance(no_nulls, DictionaryColumn)
        assert no_nulls.valid is None
        assert no_nulls.to_pylist() == ["a", "b", "c", "a", "c"]

    def test_other_dictionaries_and_raw_parts_decode(self):
        raw, encoded = self.stored()
        twin = dictionary_encode(raw)  # an equal dictionary, not the same
        for parts in ([encoded, twin], [encoded, raw], [raw, encoded]):
            merged = Column.concat(parts)
            assert type(merged) is Column
            assert merged.to_pylist() == raw.to_pylist() * 2


GROUPED = "SELECT k, min(a), max(b), sum(c), count(*) FROM t GROUP BY k"


def grouping_db(key_type: str, keys, **kwargs) -> repro.Database:
    db = repro.Database(morsel_rows=16, **kwargs)
    db.execute(
        f"CREATE TABLE t (k {key_type}, a INTEGER, b FLOAT, c INTEGER)"
    )
    db.insert_rows(
        "t",
        [
            (k, i % 7, None if i % 11 == 0 else i / 4, i - 30)
            for i, k in enumerate(keys)
        ],
    )
    return db


class TestGroupingNeverSorts:
    @pytest.mark.parametrize(
        "key_type, keys, path",
        [
            ("INTEGER", [(i * 7) % 13 for i in range(100)], "dense"),
            ("VARCHAR", [f"k{(i * 7) % 5}" for i in range(100)], "dict"),
        ],
    )
    def test_group_by_runs_with_the_sorts_removed(
        self, monkeypatch, key_type, keys, path
    ):
        db = grouping_db(key_type, keys, encoding="auto")
        want = db.execute(GROUPED).rows
        assert len(want) == len(set(keys))

        def forbidden(*args, **kwargs):
            raise AssertionError("a GROUP BY sorted its input")

        monkeypatch.setattr(np, "argsort", forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        analyzed = db.explain_analyze(GROUPED)
        assert analyzed.result.rows == want
        routes = {
            name: count for name, count in analyzed.counters.items()
            if name.startswith("exec_group_keys_total")
        }
        assert routes == {f'exec_group_keys_total{{path="{path}"}}': 1}
        assert f'exec_group_keys_total{{path="{path}"}}=1' in (
            analyzed.format()
        )


class TestEmissionOrderIgnoresEncoding:
    """Without ORDER BY the row order is whatever the group numbering
    makes it — which must not depend on the physical form of a key."""

    KEYS = [
        None if i % 9 == 4 else f"w{(i * 5) % 6}" for i in range(90)
    ]

    @pytest.mark.parametrize(
        "sql",
        [
            GROUPED,
            "SELECT k, a, count(*) FROM t GROUP BY k, a",
            "SELECT a, k, count(*) FROM t GROUP BY a, k",
            "SELECT DISTINCT k FROM t",
            "SELECT DISTINCT a, k FROM t",
            "SELECT k FROM t WHERE a > 2 UNION SELECT k FROM t WHERE a < 5",
            "SELECT k, a FROM t WHERE c > 0 EXCEPT "
            "SELECT k, a FROM t WHERE c > 40",
            "SELECT count(DISTINCT k), a FROM t GROUP BY a",
        ],
    )
    def test_same_rows_in_the_same_order(self, sql):
        auto = grouping_db("VARCHAR", self.KEYS, encoding="auto")
        raw = grouping_db("VARCHAR", self.KEYS, encoding="raw")
        rows = auto.execute(sql).rows
        assert rows == raw.execute(sql).rows
        assert len(rows) > 1


class TestMaterialize:
    def test_empty_output_layout(self):
        cols = [lp.PlanColumn("a", "s1", INTEGER)]
        batch = materialize([], cols)
        assert len(batch) == 0
        assert batch.names() == ["s1"]

    def test_missing_slot_detected(self):
        cols = [lp.PlanColumn("a", "s1", INTEGER)]
        wrong = ColumnBatch({"other": Column.from_values([1], INTEGER)})
        with pytest.raises(ExecutionError, match="missing"):
            materialize([wrong], cols)


def plan_for(db, sql):
    txn = db.txns.begin()
    plan = db.pipeline.plan_select(parse_statement(sql), txn)
    ctx = db.pipeline.exec_context(txn)
    return plan, ctx, txn


class TestExecutionContext:
    def test_morsel_size_respected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(10)])
        small = repro.Database(morsel_rows=3)
        small.execute("CREATE TABLE t (a INTEGER)")
        small.insert_rows("t", [(i,) for i in range(10)])
        plan, ctx, txn = plan_for(small, "SELECT a FROM t")
        op = build_physical(plan, ctx)
        batches = list(op.execute(ctx.new_eval_context()))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        txn.rollback()

    def test_working_table_outside_iteration_raises(self, db):
        node = lp.LogicalWorkingTableRef(
            "ghost", [lp.PlanColumn("x", "s", INTEGER)]
        )
        ctx = ExecutionContext(read_table=lambda n: None)
        from repro.exec.scan import WorkingTableOp

        op = WorkingTableOp(node, ctx)
        with pytest.raises(ExecutionError, match="outside"):
            list(op.execute(ctx.new_eval_context()))

    def test_execute_plan_helper(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(5,)])
        plan, ctx, txn = plan_for(db, "SELECT a + 1 FROM t")
        batch = execute_plan(plan, ctx)
        assert list(batch.rows()) == [(6,)]
        txn.rollback()

    def test_stats_batches_zero_default(self):
        ctx = ExecutionContext(read_table=lambda n: None)
        assert ctx.stats.peak_live_tuples == 0
        ctx.stats.observe_live_tuples(7)
        ctx.stats.observe_live_tuples(3)
        assert ctx.stats.peak_live_tuples == 7


class TestPlanExplain:
    def test_explain_tree_structure(self, people_db):
        text = people_db.explain(
            "SELECT city, count(*) FROM people WHERE age > 1 "
            "GROUP BY city ORDER BY 2 DESC LIMIT 3"
        )
        for fragment in (
            "Limit", "Sort", "Aggregate", "Filter", "Scan people",
        ):
            assert fragment in text
        # Deeper operators are indented further.
        lines = text.splitlines()
        assert lines[0].startswith("Limit")
        assert lines[-1].strip().startswith("Scan")

    def test_explain_statement_via_sql(self, people_db):
        rows = people_db.execute("EXPLAIN SELECT id FROM people").rows
        assert any("Scan people" in row[0] for row in rows)

    def test_join_explain_shows_method(self, people_db):
        text = people_db.explain(
            "SELECT 1 FROM people p JOIN orders o ON p.id = o.person_id"
        )
        assert "HashJoin" in text

    def test_analytics_explain(self, db):
        db.execute("CREATE TABLE pts (x FLOAT)")
        text = db.explain(
            "SELECT * FROM KMEANS((SELECT x FROM pts), "
            "(SELECT x FROM pts), 3)"
        )
        assert "AnalyticsOperator kmeans" in text

    def test_iterate_explain(self, db):
        text = db.explain(
            "SELECT * FROM ITERATE((SELECT 1 AS x),"
            " (SELECT x FROM iterate), (SELECT x FROM iterate))"
        )
        assert "Iterate" in text
        assert "WorkingTable" in text


class TestLimitStreaming:
    def test_limit_stops_pulling(self):
        """LIMIT over a morsel scan must not materialise everything."""
        db = repro.Database(morsel_rows=10)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(1000)])
        rows = db.execute("SELECT a FROM t LIMIT 5").rows
        assert len(rows) == 5
        # rows_scanned counts the full table (scan registers the whole
        # snapshot) but batches stop early — verify via physical pull.
        plan, ctx, txn = plan_for(db, "SELECT a FROM t LIMIT 5")
        op = build_physical(plan, ctx)
        batches = list(op.execute(ctx.new_eval_context()))
        assert sum(len(b) for b in batches) == 5
        txn.rollback()
