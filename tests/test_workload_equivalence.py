"""Integration: the layer-3 SQL workloads match the layer-4 operators
and the competitor baselines, numerically.

This is the correctness backbone of the evaluation: the benchmark series
compare runtimes of computations whose results are verified equal here.
"""

import numpy as np
import pytest

import repro
from repro.baselines import (
    ExternalToolClient,
    SparkLikeContext,
    madlib_like_kmeans,
    madlib_like_naive_bayes_train,
    madlib_like_pagerank,
    matlab_like_kmeans,
    matlab_like_naive_bayes_train,
    matlab_like_pagerank,
)
from repro.datagen.graphs import load_edge_table
from repro.datagen.vectors import (
    feature_names,
    load_centers_table,
    load_vector_table,
)
from repro.workloads import (
    kmeans_iterate_sql,
    kmeans_recursive_sql,
    naive_bayes_train_sql,
    pagerank_iterate_sql,
    pagerank_recursive_sql,
)


@pytest.fixture(scope="module")
def kmeans_world():
    db = repro.Database()
    columns = load_vector_table(db, "data", 800, 3, seed=3)
    centers = load_centers_table(db, "centers", columns, 4, seed=5)
    feats = feature_names(3)
    matrix = np.column_stack([columns[f] for f in feats])
    seeds = np.column_stack([centers[f] for f in feats])
    operator_rows = db.execute(
        f"SELECT cluster, {', '.join(feats)} FROM KMEANS("
        f"(SELECT {', '.join(feats)} FROM data), "
        f"(SELECT {', '.join(feats)} FROM centers), 3) ORDER BY cluster"
    ).rows
    reference = np.asarray([row[1:] for row in operator_rows])
    return db, feats, matrix, seeds, reference


class TestKMeansEquivalence:
    def test_iterate_matches_operator(self, kmeans_world):
        db, feats, _m, _s, reference = kmeans_world
        rows = db.execute(
            kmeans_iterate_sql("data", "centers", feats, 3)
        ).rows
        got = np.asarray([row[1:] for row in rows])
        assert np.allclose(np.sort(got, 0), np.sort(reference, 0))

    def test_recursive_matches_operator(self, kmeans_world):
        db, feats, _m, _s, reference = kmeans_world
        rows = db.execute(
            kmeans_recursive_sql("data", "centers", feats, 3)
        ).rows
        got = np.asarray([row[1:] for row in rows])
        assert np.allclose(np.sort(got, 0), np.sort(reference, 0))

    def test_spark_like_matches(self, kmeans_world):
        _db, _f, matrix, seeds, reference = kmeans_world
        out = SparkLikeContext(8).kmeans(matrix, seeds, 3)
        assert np.allclose(np.sort(out, 0), np.sort(reference, 0))

    def test_matlab_like_matches(self, kmeans_world):
        _db, _f, matrix, seeds, reference = kmeans_world
        out = np.asarray(
            matlab_like_kmeans(matrix.tolist(), seeds.tolist(), 3)
        )
        assert np.allclose(np.sort(out, 0), np.sort(reference, 0))

    def test_madlib_like_matches(self, kmeans_world):
        db, feats, _m, _s, reference = kmeans_world
        rows = madlib_like_kmeans(db, "data", "centers", feats, 3)
        got = np.asarray([row[1:] for row in rows])
        assert np.allclose(np.sort(got, 0), np.sort(reference, 0))

    def test_external_tool_matches(self, kmeans_world):
        db, feats, _m, _s, reference = kmeans_world
        client = ExternalToolClient(db)
        out = client.kmeans(
            f"SELECT {', '.join(feats)} FROM data",
            f"SELECT {', '.join(feats)} FROM centers",
            3,
        )
        assert np.allclose(np.sort(out, 0), np.sort(reference, 0))


def test_kmeans_equidistant_points_go_to_the_smaller_centre_id():
    """Round one puts every point of the ``x = 0`` column at equal
    distance from centres 0 and 1; the operator's first-centre argmin
    and the SQL join-back's ``min(cid)`` must send it to centre 0 alike
    (centre 1 would end elsewhere)."""
    db = repro.Database()
    db.execute("CREATE TABLE tie_pts (id INTEGER, x DOUBLE, y DOUBLE)")
    points = [(x, y) for x in (-3, -2, 0, 2, 3) for y in (-2, -1, 0, 1, 2)]
    points += [(-1, 8), (0, 8), (1, 8)]
    db.insert_rows("tie_pts", [
        (i, float(x), float(y)) for i, (x, y) in enumerate(points)
    ])
    db.execute("CREATE TABLE tie_ctr (cid INTEGER, x DOUBLE, y DOUBLE)")
    db.insert_rows(
        "tie_ctr", [(0, -1.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 8.0)]
    )
    operator = np.asarray(db.execute(
        "SELECT cluster, x, y FROM KMEANS((SELECT x, y FROM tie_pts), "
        "(SELECT x, y FROM tie_ctr), 2) ORDER BY cluster"
    ).rows)
    # Ties to centre 0: x = -5/3 and 5/2; to centre 1: -5/2 and 5/3.
    assert operator[:2, 1].tolist() == pytest.approx([-5 / 3, 5 / 2])
    for sql_of in (kmeans_iterate_sql, kmeans_recursive_sql):
        rows = db.execute(
            sql_of("tie_pts", "tie_ctr", ["x", "y"], 2, center_id="cid")
        ).rows
        got = np.asarray(rows)
        assert got.shape == operator.shape
        assert np.allclose(got, operator, rtol=0.0, atol=1e-9), sql_of


@pytest.fixture(scope="module")
def pagerank_world():
    db = repro.Database()
    src, dst = load_edge_table(db, "edges", 120, 1400, seed=9)
    reference = dict(
        db.execute(
            "SELECT vertex, rank FROM PAGERANK("
            "(SELECT src, dest FROM edges), 0.85, 0.0, 8)"
        ).rows
    )
    return db, src, dst, reference


class TestPageRankEquivalence:
    def test_iterate_matches_operator(self, pagerank_world):
        db, _s, _d, reference = pagerank_world
        rows = dict(
            db.execute(pagerank_iterate_sql("edges", 0.85, 8)).rows
        )
        assert rows.keys() == reference.keys()
        for vertex, rank in reference.items():
            assert rows[vertex] == pytest.approx(rank, abs=1e-10)

    def test_recursive_matches_operator(self, pagerank_world):
        db, _s, _d, reference = pagerank_world
        rows = dict(
            db.execute(pagerank_recursive_sql("edges", 0.85, 8)).rows
        )
        for vertex, rank in reference.items():
            assert rows[vertex] == pytest.approx(rank, abs=1e-10)

    def test_spark_like_matches(self, pagerank_world):
        _db, src, dst, reference = pagerank_world
        ids, ranks = SparkLikeContext(8).pagerank(src, dst, 0.85, 8)
        for vid, rank in zip(ids.tolist(), ranks.tolist()):
            assert rank == pytest.approx(reference[vid], abs=1e-10)

    def test_matlab_like_matches(self, pagerank_world):
        _db, src, dst, reference = pagerank_world
        ranks = matlab_like_pagerank(
            list(zip(src.tolist(), dst.tolist())), 0.85, 8
        )
        for vid, rank in ranks.items():
            assert rank == pytest.approx(reference[vid], abs=1e-10)

    def test_madlib_like_matches(self, pagerank_world):
        db, _s, _d, reference = pagerank_world
        rows = dict(madlib_like_pagerank(db, "edges", 0.85, 8))
        for vertex, rank in reference.items():
            assert rows[vertex] == pytest.approx(rank, abs=1e-10)


@pytest.fixture(scope="module")
def nb_world():
    db = repro.Database()
    columns = load_vector_table(
        db, "train", 600, 3, seed=4, with_label=True
    )
    feats = feature_names(3)
    reference = db.execute(
        "SELECT class, attribute, prior, mean, stddev "
        "FROM NAIVE_BAYES_TRAIN("
        f"(SELECT label, {', '.join(feats)} FROM train)) "
        "ORDER BY class, attribute"
    ).rows
    return db, feats, columns, reference


def assert_model_rows_match(got, reference):
    assert len(got) == len(reference)
    for g_row, r_row in zip(got, reference):
        assert g_row[0] == r_row[0] and g_row[1] == r_row[1]
        for g_val, r_val in zip(g_row[2:5], r_row[2:5]):
            assert g_val == pytest.approx(r_val, abs=1e-10)


class TestNaiveBayesEquivalence:
    def test_sql_matches_operator(self, nb_world):
        db, feats, _c, reference = nb_world
        rows = db.execute(
            naive_bayes_train_sql("train", "label", feats)
        ).rows
        assert_model_rows_match(
            [row[:5] for row in rows], reference
        )

    def test_iterate_matches_operator(self, nb_world):
        # Training is single-pass, so its ITERATE formulation is the
        # same model inside a zero-round loop (terminator immediately
        # true) — covering the middle layer on this workload too.
        db, feats, _c, reference = nb_world
        sql = naive_bayes_train_sql("train", "label", feats)
        rows = db.execute(
            "SELECT class, attribute, prior, mean, stddev, cnt "
            f"FROM ITERATE(({sql}), (SELECT * FROM iterate), "
            "(SELECT 1)) ORDER BY class, attribute"
        ).rows
        assert_model_rows_match([row[:5] for row in rows], reference)

    def test_madlib_like_matches(self, nb_world):
        db, feats, _c, reference = nb_world
        rows = madlib_like_naive_bayes_train(db, "train", "label", feats)
        assert_model_rows_match(rows, reference)

    def test_spark_like_matches(self, nb_world):
        _db, feats, columns, reference = nb_world
        matrix = np.column_stack([columns[f] for f in feats])
        classes, priors, means, stds = SparkLikeContext(
            8
        ).naive_bayes_train(columns["label"], matrix)
        lookup = {
            (row[0], row[1]): row for row in reference
        }
        for ci, klass in enumerate(classes.tolist()):
            for ai, attr in enumerate(feats):
                _c, _a, prior, mean, std = lookup[(klass, attr)]
                assert priors[ci] == pytest.approx(prior)
                assert means[ci, ai] == pytest.approx(mean)
                assert stds[ci, ai] == pytest.approx(std)

    def test_matlab_like_matches(self, nb_world):
        _db, feats, columns, reference = nb_world
        matrix = np.column_stack([columns[f] for f in feats])
        model = matlab_like_naive_bayes_train(
            columns["label"].tolist(), matrix.tolist()
        )
        lookup = {(row[0], row[1]): row for row in reference}
        for klass, stats in model.items():
            for ai, attr in enumerate(feats):
                _c, _a, prior, mean, std = lookup[(klass, attr)]
                assert stats["prior"][0] == pytest.approx(prior)
                assert stats["mean"][ai] == pytest.approx(mean)
                assert stats["std"][ai] == pytest.approx(std)

    def test_external_tool_matches(self, nb_world):
        db, feats, _c, reference = nb_world
        model = ExternalToolClient(db).naive_bayes_train(
            f"SELECT label, {', '.join(feats)} FROM train"
        )
        lookup = {(row[0], row[1]): row for row in reference}
        for ci, klass in enumerate(model.classes.tolist()):
            for ai, attr in enumerate(feats):
                _cc, _a, prior, mean, std = lookup[(klass, attr)]
                assert model.priors[ci] == pytest.approx(prior)
                assert model.means[ci, ai] == pytest.approx(mean)
                assert model.stds[ci, ai] == pytest.approx(std)


class TestWindowFormulation:
    def test_window_assignment_matches_join_assignment(self, kmeans_world):
        db, feats, _m, _s, reference = kmeans_world
        rows = db.execute(
            kmeans_iterate_sql(
                "data", "centers", feats, 3, use_window=True
            )
        ).rows
        got = np.asarray([row[1:] for row in rows])
        assert np.allclose(np.sort(got, 0), np.sort(reference, 0))
