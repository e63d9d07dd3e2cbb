"""Per-operator execution statistics via ``Database.explain_analyze``.

Row counts are asserted exactly against hand-computed plans on the
shared ``people_db`` fixture; timings can only be bounded (non-negative,
parents enclosing children — the profiler measures inclusive time).
"""

import pytest

import repro
from repro.errors import BindError
from repro.workloads.kmeans_sql import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
)
from repro.workloads.naive_bayes_sql import naive_bayes_train_sql
from repro.workloads.pagerank_sql import (
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)


def test_scan_filter_counts(people_db):
    analyzed = people_db.explain_analyze(
        "SELECT name FROM people WHERE age > 30"
    )
    # The filter and projection run inside the one scan operator.
    scan = analyzed.find("Scan(people)")
    assert scan is analyzed.root and not scan.children
    assert scan.rows_in == 0  # leaves have no input
    assert scan.rows_out == 2  # alice (34), carol (41); NULL age drops
    assert people_db.last_stats.rows_scanned == 5
    assert len(analyzed.result) == 2


def test_scan_filter_join_aggregate_counts(people_db):
    analyzed = people_db.explain_analyze(
        "SELECT city, count(*) AS n FROM people "
        "JOIN orders ON id = person_id "
        "WHERE age > 20 GROUP BY city"
    )
    # age > 20 keeps alice, bob, carol, erin (dave's NULL age drops);
    # the pushed-down filter runs inside the people scan.
    assert analyzed.find("Scan(people)").rows_out == 4
    assert analyzed.find("Scan(orders)").rows_out == 5
    assert analyzed.find("Filter") is None
    # Orders matching those people: 100, 101 (alice), 102 (bob),
    # 103 (carol); order 104 dangles.
    join = analyzed.find("HashJoin")
    assert join is not None
    assert join.rows_out == 4
    agg = analyzed.find("HashAggregate")
    assert agg.rows_in == 4
    assert agg.rows_out == 2  # munich, venice
    assert sorted(analyzed.result.rows) == [("munich", 3), ("venice", 1)]


def test_sort_and_limit_counts(people_db):
    # ORDER BY + LIMIT fuses into a single bounded top-N sort operator.
    analyzed = people_db.explain_analyze(
        "SELECT name FROM people ORDER BY name LIMIT 3"
    )
    topn = analyzed.find("TopNSort")
    assert topn is not None
    assert topn.rows_in == 5
    assert topn.rows_out == 3
    assert len(analyzed.result) == 3


def test_sort_and_limit_counts_unfused(people_db_fullsort):
    analyzed = people_db_fullsort.explain_analyze(
        "SELECT name FROM people ORDER BY name LIMIT 3"
    )
    sort = analyzed.find("Sort")
    limit = analyzed.find("Limit")
    assert sort.rows_in == 5 or sort.rows_out == 5
    assert limit.rows_out == 3
    assert len(analyzed.result) == 3


def test_timings_non_negative_and_nested(people_db):
    analyzed = people_db.explain_analyze(
        "SELECT city, count(*) FROM people "
        "JOIN orders ON id = person_id GROUP BY city ORDER BY city"
    )
    for node in analyzed.operators():
        assert node.elapsed_s >= 0.0
        assert node.self_s >= 0.0
        assert node.calls >= 1
        # Inclusive timing: a parent's clock runs while its children
        # produce, so it must enclose each child's.
        for child in node.children:
            assert node.elapsed_s >= child.elapsed_s
    assert analyzed.total_s >= analyzed.root.elapsed_s


def test_rows_in_is_sum_of_children(people_db):
    analyzed = people_db.explain_analyze(
        "SELECT p.name FROM people p, orders o WHERE p.id = o.person_id"
    )
    for node in analyzed.operators():
        assert node.rows_in == sum(c.rows_out for c in node.children)


def test_subquery_plans_are_profiled(people_db):
    analyzed = people_db.explain_analyze(
        "SELECT name FROM people "
        "WHERE id IN (SELECT person_id FROM orders)"
    )
    assert analyzed.subplans, "IN-subquery plan should be profiled"
    assert analyzed.find("Scan(orders)") is not None
    assert len(analyzed.result) == 3  # alice, bob, carol


def test_format_is_readable(people_db):
    analyzed = people_db.explain_analyze("SELECT count(*) FROM people")
    text = analyzed.format()
    assert "total time" in text
    assert "HashAggregate" in text
    assert "rows_out=1" in text
    assert str(analyzed) == text


def test_format_counts_the_statements_page_faults(people_db, monkeypatch):
    """The statement's delta of the process's minor faults, labelled
    process-wide; no line where the host cannot count them."""
    import repro.api.session as session_mod

    counts = iter([100, 142])
    monkeypatch.setattr(session_mod, "minor_faults", lambda: next(counts))
    analyzed = people_db.explain_analyze("SELECT count(*) FROM people")
    assert analyzed.minor_faults == 42
    assert analyzed.format().splitlines()[-1] == (
        "faults: minor=42 (process-wide)"
    )
    monkeypatch.setattr(session_mod, "minor_faults", lambda: None)
    analyzed = people_db.explain_analyze("SELECT count(*) FROM people")
    assert analyzed.minor_faults is None
    assert "faults:" not in analyzed.format()


def test_result_matches_plain_execute(people_db):
    sql = (
        "SELECT city, avg(age) FROM people GROUP BY city "
        "ORDER BY city NULLS LAST"
    )
    analyzed = people_db.explain_analyze(sql)
    assert analyzed.result.rows == people_db.execute(sql).rows


def test_rejects_non_select(people_db):
    with pytest.raises(BindError):
        people_db.explain_analyze("INSERT INTO people VALUES (9, 'x', 1, 'y')")
    with pytest.raises(BindError):
        people_db.explain_analyze(
            "SELECT 1; SELECT 2"
        )


# ---------------------------------------------------------------------------
# Workload coverage: every physical operator the three paper workloads
# use must show up with stats in explain_analyze output.
# ---------------------------------------------------------------------------


@pytest.fixture
def workload_db(db: repro.Database) -> repro.Database:
    db.execute("CREATE TABLE pts (id INTEGER, x FLOAT, y FLOAT)")
    db.insert_rows(
        "pts",
        [(1, 0.0, 0.0), (2, 0.2, 0.1), (3, 5.0, 5.0), (4, 5.1, 4.9)],
    )
    db.execute("CREATE TABLE ctr (cid INTEGER, x FLOAT, y FLOAT)")
    db.insert_rows("ctr", [(0, 0.0, 0.0), (1, 5.0, 5.0)])
    db.execute("CREATE TABLE edges (src INTEGER, dest INTEGER)")
    db.insert_rows("edges", [(1, 2), (2, 3), (3, 1), (1, 3)])
    db.execute("CREATE TABLE train (label VARCHAR, f1 FLOAT, f2 FLOAT)")
    db.insert_rows(
        "train",
        [("a", 1.0, 2.0), ("a", 1.1, 2.1), ("b", 5.0, 6.0)],
    )
    return db


def test_kmeans_layers_are_profiled(workload_db):
    iterate = workload_db.explain_analyze(
        kmeans_iterate_sql("pts", "ctr", ["x", "y"], 3)
    )
    assert iterate.find("Iterate") is not None
    assert iterate.find("WorkingTable") is not None
    assert iterate.find("HashAggregate") is not None

    recursive = workload_db.explain_analyze(
        kmeans_recursive_sql("pts", "ctr", ["x", "y"], 3)
    )
    assert recursive.find("RecursiveCTE") is not None

    operator = workload_db.explain_analyze(
        "SELECT * FROM KMEANS((SELECT x, y FROM pts), "
        "(SELECT x, y FROM ctr), 3)"
    )
    func = operator.find("TableFunction(kmeans)")
    assert func is not None
    assert func.rows_out == 2  # one row per centroid
    assert func.rows_in == 6  # 4 points + 2 seed centers


def test_pagerank_layers_are_profiled(workload_db):
    operator = workload_db.explain_analyze(
        "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), "
        "0.85, 0.0, 5)"
    )
    func = operator.find("TableFunction(pagerank)")
    assert func is not None
    assert func.rows_in == 4  # edge list
    assert func.rows_out == 3  # one rank per vertex

    iterate = workload_db.explain_analyze(
        pagerank_iterate_sql("edges", 0.85, 5)
    )
    assert iterate.find("Iterate") is not None

    recursive = workload_db.explain_analyze(
        pagerank_recursive_sql("edges", 0.85, 5)
    )
    assert recursive.find("RecursiveCTE") is not None


def test_naive_bayes_layers_are_profiled(workload_db):
    operator = workload_db.explain_analyze(
        "SELECT * FROM NAIVE_BAYES_TRAIN("
        "(SELECT label, f1, f2 FROM train))"
    )
    func = operator.find("TableFunction(naive_bayes_train)")
    assert func is not None
    assert func.rows_in == 3  # training rows

    sql_form = workload_db.explain_analyze(
        naive_bayes_train_sql("train", "label", ["f1", "f2"])
    )
    assert sql_form.find("SetOp") is not None
    assert sql_form.find("HashAggregate") is not None
