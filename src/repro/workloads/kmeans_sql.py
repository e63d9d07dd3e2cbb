"""k-Means expressed in pure SQL (layer 3).

The relational formulation of one Lloyd iteration:

1. ``dist``  — cross join data x centers with the squared distance,
2. ``mind``  — per-point minimum distance (GROUP BY),
3. ``asg``   — per-point assigned center (join back on the minimum,
   breaking ties by the smallest center id),
4. update   — per-center AVG of its assigned points.

The working relation carries an explicit iteration counter column —
exactly the overhead the paper attributes to SQL-level iteration when
the stop criterion is an iteration count (section 5.1): with recursive
CTEs the counter is materialised in *every* tuple of *every* round.

Both variants expect:

* a data table with an integer key column plus ``d`` numeric feature
  columns, and
* an initial-centers table with an integer center id plus the same
  ``d`` feature columns.
"""

from __future__ import annotations


def _sqdist(
    left_alias: str, right_alias: str,
    features: list[str], center_features: list[str],
) -> str:
    terms = [
        f"({left_alias}.{f} - {right_alias}.{c})^2"
        for f, c in zip(features, center_features)
    ]
    return " + ".join(terms)


def _assignment_subquery(
    data_table: str,
    working: str,
    key: str,
    cid: str,
    features: list[str],
    center_features: list[str],
    use_window: bool = False,
) -> str:
    """The ``asg`` derived table: (point key, assigned center id).

    Default (``use_window=False``): the classic min-join formulation —
    the distance computation is inlined twice (once for the per-point
    minimum, once for the join back), the join-heavy shape the paper
    describes for relational iteration (section 8.4.2). The SQL keeps
    both copies; the engine evaluates them once per round
    (:mod:`repro.exec.hoist`), and the ``(pid, dd)`` join back probes
    through its integer point key instead of sorting the distances.

    With ``use_window=True``: the leaner window formulation, one
    distance evaluation ranked by ``row_number() OVER (PARTITION BY
    point ORDER BY distance, center)``.
    """
    if use_window:
        return (
            f"SELECT pid, cid FROM ("
            f"SELECT d.{key} AS pid, c.{cid} AS cid, "
            f"row_number() OVER (PARTITION BY d.{key} ORDER BY "
            f"{_sqdist('d', 'c', features, center_features)}, c.{cid}"
            f") AS rn FROM {data_table} d, {working} c) ranked "
            f"WHERE rn = 1"
        )
    dist = (
        f"SELECT d.{key} AS pid, c.{cid} AS cid, "
        f"{_sqdist('d', 'c', features, center_features)} AS dd "
        f"FROM {data_table} d, {working} c"
    )
    mind = (
        f"SELECT pid, min(dd) AS md FROM ({dist}) dd1 GROUP BY pid"
    )
    return (
        f"SELECT dd2.pid AS pid, min(dd2.cid) AS cid "
        f"FROM ({dist}) dd2, ({mind}) mn "
        f"WHERE dd2.pid = mn.pid AND dd2.dd = mn.md "
        f"GROUP BY dd2.pid"
    )


def kmeans_iterate_sql(
    data_table: str,
    centers_table: str,
    features: list[str],
    iterations: int,
    key: str = "id",
    center_id: str = "cid",
    use_window: bool = False,
) -> str:
    """k-Means via the ITERATE construct (the *HyPer Iterate* series).

    ``use_window`` switches the assignment step to the window-function
    formulation (one distance evaluation instead of two)."""
    center_cols = [f"c{i}" for i in range(len(features))]
    init = (
        f"SELECT {center_id} AS cid, "
        + ", ".join(
            f"CAST({f} AS FLOAT) AS {c}"
            for f, c in zip(features, center_cols)
        )
        + f", 0 AS it FROM {centers_table}"
    )
    asg = _assignment_subquery(
        data_table, "iterate", key, "cid", features, center_cols,
        use_window,
    )
    averages = ", ".join(
        f"avg(d.{f}) AS {c}" for f, c in zip(features, center_cols)
    )
    step = (
        f"SELECT asg.cid AS cid, {averages}, min(m.nit) AS it "
        f"FROM ({asg}) asg, {data_table} d, "
        f"(SELECT min(it)+1 AS nit FROM iterate) m "
        f"WHERE asg.pid = d.{key} "
        f"GROUP BY asg.cid"
    )
    stop = f"SELECT 1 FROM iterate WHERE it >= {iterations}"
    selected = ", ".join(["cid"] + center_cols)
    return (
        f"SELECT {selected} FROM ITERATE(({init}), ({step}), ({stop})) "
        f"ORDER BY cid"
    )


def kmeans_recursive_sql(
    data_table: str,
    centers_table: str,
    features: list[str],
    iterations: int,
    key: str = "id",
    center_id: str = "cid",
) -> str:
    """k-Means via WITH RECURSIVE (the *HyPer SQL* series).

    Appending semantics: all rounds accumulate; the final SELECT picks
    the last round by its iteration counter."""
    center_cols = [f"c{i}" for i in range(len(features))]
    init = (
        f"SELECT {center_id} AS cid, "
        + ", ".join(
            f"CAST({f} AS FLOAT) AS {c}"
            for f, c in zip(features, center_cols)
        )
        + f", 0 AS it FROM {centers_table}"
    )
    asg = _assignment_subquery(
        data_table, "kmeans_r", key, "cid", features, center_cols
    )
    averages = ", ".join(
        f"avg(d.{f}) AS {c}" for f, c in zip(features, center_cols)
    )
    step = (
        f"SELECT asg.cid AS cid, {averages}, min(m.nit) AS it "
        f"FROM ({asg}) asg, {data_table} d, "
        f"(SELECT min(it)+1 AS nit FROM kmeans_r) m "
        f"WHERE asg.pid = d.{key} AND m.nit <= {iterations} "
        f"GROUP BY asg.cid"
    )
    columns = ", ".join(["cid"] + center_cols + ["it"])
    selected = ", ".join(["cid"] + center_cols)
    return (
        f"WITH RECURSIVE kmeans_r({columns}) AS "
        f"({init} UNION ALL {step}) "
        f"SELECT {selected} FROM kmeans_r WHERE it = {iterations} "
        f"ORDER BY cid"
    )
