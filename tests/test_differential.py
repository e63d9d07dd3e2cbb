"""Differential tests: generated SQL on each seed's drawn engine
configuration, on the reference engine and on SQLite.

Tier-1 runs a fixed 100-seed range (3 queries per seed = 300 queries;
tests/test_config_sampling.py checks that the range draws every sampled
value); the wider sweep is marked ``slow``. Any failure prints a
minimized standalone reproducer (schema DDL + INSERTs + SQL + seed +
failing switches).
"""

import pytest

from repro.testing import QueryGenerator, run_seed
from repro.testing.oracle import (
    DifferentialOracle,
    normalize_rows,
    normalize_value,
    rows_agree,
    rows_equal,
    run_seeds,
)

# Chunked so a single failure pinpoints its seed decade immediately
# and pytest-level parallelism (if ever enabled) can spread the work.
_TIER1_CHUNKS = [range(start, start + 10) for start in range(0, 100, 10)]


@pytest.mark.parametrize(
    "seeds", _TIER1_CHUNKS, ids=lambda r: f"seeds{r.start}-{r.stop - 1}"
)
def test_fixed_seeds_agree_with_sqlite(seeds):
    divergences = run_seeds(seeds, queries_per_seed=3)
    assert not divergences, "\n\n".join(
        d.report() for d in divergences
    )


@pytest.mark.slow
@pytest.mark.fuzz
@pytest.mark.parametrize("start", range(100, 1000, 100))
def test_extended_seed_sweep(start):
    divergences = run_seeds(range(start, start + 100))
    assert not divergences, "\n\n".join(
        d.report() for d in divergences
    )


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------


def _generate(seed, n=5):
    generator = QueryGenerator(seed)
    tables = generator.schema()
    ddl = [t.ddl() for t in tables]
    inserts = [s for t in tables for s in t.insert_statements()]
    queries = [generator.query(tables).to_sql() for _ in range(n)]
    return ddl, inserts, queries


def test_generator_is_deterministic():
    assert _generate(7) == _generate(7)
    assert _generate(8) == _generate(8)


def test_different_seeds_differ():
    assert _generate(7) != _generate(9)


def test_generated_queries_parse_and_run():
    generator = QueryGenerator(3)
    tables = generator.schema()
    oracle = DifferentialOracle(tables)
    try:
        for _ in range(10):
            query = generator.query(tables)
            # Must not raise on our engine: the generator stays inside
            # the supported dialect.
            oracle.subject.execute(query.to_sql())
    finally:
        oracle.close()


# ---------------------------------------------------------------------------
# Normalizer unit tests
# ---------------------------------------------------------------------------


def test_normalize_value_booleans_and_numpy():
    import numpy as np

    assert normalize_value(True) == 1
    assert normalize_value(False) == 0
    assert normalize_value(np.int32(5)) == 5
    assert normalize_value(np.float64(2.5)) == 2.5
    assert normalize_value(np.bool_(True)) == 1
    assert normalize_value(None) is None
    assert normalize_value(-0.0) == 0.0


def test_normalize_rows_bag_mode_sorts():
    rows = [(2, "b"), (1, "a"), (None, None)]
    normalized = normalize_rows(rows, ordered=False)
    assert normalized[0] == (None, None)
    assert normalized[1:] == [(1, "a"), (2, "b")]


def test_rows_equal_float_tolerance():
    left = [(1.0000000001, "x")]
    right = [(1.0, "x")]
    assert rows_equal(left, right, ordered=True)
    assert not rows_equal([(1.1,)], [(1.0,)], ordered=True)
    assert not rows_equal([(1,)], [(1,), (1,)], ordered=False)


def test_rows_agree_tolerates_float_ties_in_the_sort_only():
    # ORDER BY 2 DESC, 1 ASC: summation noise makes one engine see
    # -36.589999999999996 > -36.59 where the other sees a tie.
    order_by = [(2, True, True), (1, False, True)]
    ours = [("dahlia", -36.589999999999996), ("birch", -36.59)]
    theirs = [("birch", -36.589999999999996), ("dahlia", -36.589999999999996)]
    assert rows_agree(ours, theirs, order_by)
    # Unsorted output, or different rows, still disagree.
    assert not rows_agree(ours[::-1], theirs[::-1], order_by)
    assert not rows_agree(ours, [("birch", -1.0), ("elm", -2.0)], order_by)


def test_run_seed_reports_kind_and_sql():
    # A healthy seed returns no divergences.
    assert run_seed(42, queries_per_seed=2) == []
