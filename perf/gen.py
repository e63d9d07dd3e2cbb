"""Seeded input generators. Every input of every workload is a pure
function of ``(seed, size)`` through ``numpy.random.default_rng``; the
engine only ever sees the generated rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Table(NamedTuple):
    name: str
    #: The CREATE TABLE text.
    ddl: str
    #: numpy columns in schema order.
    columns: dict[str, np.ndarray]

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values())))

    def rows(self) -> list[tuple]:
        """Python row tuples (for SQLite and ``insert_rows``)."""
        return list(zip(*(v.tolist() for v in self.columns.values())))

    def load(self, db) -> None:
        db.execute(self.ddl)
        db.load_columns(self.name, self.columns)


_SQL_TYPE = {"i": "INTEGER", "f": "FLOAT", "O": "VARCHAR"}


def _table(name: str, columns: dict[str, np.ndarray]) -> Table:
    cols = ", ".join(
        f"{col} {_SQL_TYPE[values.dtype.kind]}"
        for col, values in columns.items()
    )
    return Table(name, f"CREATE TABLE {name} ({cols})", columns)


def _choice(rng: np.random.Generator, words: list[str], n: int) -> np.ndarray:
    return np.array(words, dtype=object)[rng.integers(0, len(words), n)]


# ---------------------------------------------------------------------------
# ladder: vectors and graph
# ---------------------------------------------------------------------------


def feature_names(d: int) -> list[str]:
    return [f"f{i}" for i in range(d)]


def vectors(seed: int, n: int, d: int, k: int) -> tuple[Table, Table]:
    """``n`` points in ``k`` overlapping blobs, and the first ``k`` points
    as initial centres. The blobs overlap so that Lloyd's algorithm is
    still moving points after a few rounds: the operator stops as soon
    as no assignment changes, the SQL formulations never do, and only
    equal work is comparable (``Ladder.verify`` checks it)."""
    rng = np.random.default_rng([seed, 1])
    blobs = rng.normal(0.0, 2.0, (k, d))
    matrix = blobs[rng.integers(0, k, n)] + rng.normal(0.0, 2.0, (n, d))
    feats = feature_names(d)
    points = {"id": np.arange(n)}
    points.update({f: matrix[:, j] for j, f in enumerate(feats)})
    centers = {"cid": np.arange(k)}
    centers.update({f: matrix[:k, j] for j, f in enumerate(feats)})
    return _table("pts", points), _table("ctr", centers)


def graph(seed: int, n_vertices: int, n_edges: int) -> Table:
    """An undirected multigraph stored in both directions: two
    communities joined by 1 % of the edges, plus a ring backbone so
    every vertex has an in- and an out-edge (the SQL formulation does
    not redistribute dangling mass). The weak link makes the ranks mix
    slowly, so the operator (which stops at a floating-point fixed
    point) runs every iteration the SQL formulations run."""
    rng = np.random.default_rng([seed, 2])
    pairs = n_edges // 2 - n_vertices
    half = n_vertices // 2
    a = rng.integers(0, n_vertices, pairs)
    b = rng.integers(0, half, pairs) + (a // half) * half
    b = np.where(rng.random(pairs) < 0.01, (b + half) % n_vertices, b)
    b = np.where(a == b, a ^ 1, b)
    ring = np.arange(n_vertices)
    a = np.concatenate([a, ring])
    b = np.concatenate([b, (ring + 1) % n_vertices])
    return _table(
        "edges",
        {"src": np.concatenate([a, b]), "dest": np.concatenate([b, a])},
    )


# ---------------------------------------------------------------------------
# olap: TPC-H-shaped tables
# ---------------------------------------------------------------------------

#: Day numbers of the TPC-H date window; the vendored query texts filter
#: on constants inside it.
DATE_LO = 8035
DATE_HI = 10561

_REGIONS = ["africa", "america", "asia", "europe", "middle east"]
_NATIONS = [
    ("algeria", 0), ("ethiopia", 0), ("kenya", 0), ("morocco", 0),
    ("mozambique", 0), ("argentina", 1), ("brazil", 1), ("canada", 1),
    ("peru", 1), ("united states", 1), ("china", 2), ("india", 2),
    ("indonesia", 2), ("japan", 2), ("vietnam", 2), ("france", 3),
    ("germany", 3), ("romania", 3), ("russia", 3), ("united kingdom", 3),
    ("egypt", 4), ("iran", 4), ("iraq", 4), ("jordan", 4),
    ("saudi arabia", 4),
]
_SEGMENTS = ["automobile", "building", "furniture", "household", "machinery"]
_PRIORITIES = ["1-urgent", "2-high", "3-medium", "4-not specified", "5-low"]
_SHIPMODES = ["air", "fob", "mail", "rail", "reg air", "ship", "truck"]
_SHIPINSTRUCT = [
    "collect cod", "deliver in person", "none", "take back return",
]
_CONTAINERS = ["jumbo box", "lg case", "med bag", "sm pack", "wrap jar"]
_BRANDS = [f"brand#{i}{j}" for i in (1, 2, 3, 4, 5) for j in (1, 3, 5)]
_TYPES = [
    f"{a} {b} {c}"
    for a in ("economy", "large", "medium", "promo", "small", "standard")
    for b in ("anodized", "brushed", "burnished", "plated", "polished")
    for c in ("brass", "copper", "nickel", "steel", "tin")
]


def tpch(seed: int, scale: int = 100) -> list[Table]:
    """region, nation, supplier, part, customer, orders, lineitem with
    ``300 * scale`` orders of 1-7 lines each (scale 100: 30,000 orders,
    ~120,000 lineitems). Floats are rounded to cents and dates are
    integer day numbers, so SQLite sees exactly the same values."""
    rng = np.random.default_rng([seed, 3])
    n_supplier, n_part = 40 * scale, 80 * scale
    n_customer, n_orders = 60 * scale, 300 * scale
    n_nations = len(_NATIONS)

    region = _table("region", {
        "r_regionkey": np.arange(len(_REGIONS)),
        "r_name": np.array(_REGIONS, dtype=object),
    })
    nation = _table("nation", {
        "n_nationkey": np.arange(n_nations),
        "n_name": np.array([n for n, _ in _NATIONS], dtype=object),
        "n_regionkey": np.array([r for _, r in _NATIONS]),
    })
    suppkey = np.arange(1, n_supplier + 1)
    supplier = _table("supplier", {
        "s_suppkey": suppkey,
        "s_name": np.array(
            [f"supplier#{k:06d}" for k in suppkey], dtype=object
        ),
        "s_nationkey": rng.integers(0, n_nations, n_supplier),
        "s_acctbal": rng.uniform(-999.99, 9999.99, n_supplier).round(2),
    })
    partkey = np.arange(1, n_part + 1)
    retail = (900.0 + partkey + rng.uniform(0.0, 100.0, n_part)).round(2)
    part = _table("part", {
        "p_partkey": partkey,
        "p_name": np.array([f"part#{k:06d}" for k in partkey], dtype=object),
        "p_mfgr": np.array(
            [f"manufacturer#{m}" for m in rng.integers(1, 6, n_part)],
            dtype=object,
        ),
        "p_brand": _choice(rng, _BRANDS, n_part),
        "p_type": _choice(rng, _TYPES, n_part),
        "p_size": rng.integers(1, 51, n_part),
        "p_container": _choice(rng, _CONTAINERS, n_part),
        "p_retailprice": retail,
    })
    custkey = np.arange(1, n_customer + 1)
    customer = _table("customer", {
        "c_custkey": custkey,
        "c_name": np.array(
            [f"customer#{k:06d}" for k in custkey], dtype=object
        ),
        "c_nationkey": rng.integers(0, n_nations, n_customer),
        "c_acctbal": rng.uniform(-999.99, 9999.99, n_customer).round(2),
        "c_mktsegment": _choice(rng, _SEGMENTS, n_customer),
    })

    orderkey = np.arange(1, n_orders + 1)
    orderdate = rng.integers(DATE_LO, DATE_HI - 150, n_orders)
    n_lines = rng.integers(1, 8, n_orders)
    first_line = np.concatenate([[0], np.cumsum(n_lines)[:-1]])
    n_li = int(n_lines.sum())
    l_order = np.repeat(orderkey, n_lines)
    l_orderdate = np.repeat(orderdate, n_lines)
    l_part = rng.integers(1, n_part + 1, n_li)
    quantity = rng.integers(1, 51, n_li)
    extended = (quantity * retail[l_part - 1]).round(2)
    shipdate = l_orderdate + rng.integers(1, 122, n_li)
    receiptdate = shipdate + rng.integers(1, 31, n_li)
    lineitem = _table("lineitem", {
        "l_orderkey": l_order,
        "l_partkey": l_part,
        "l_suppkey": rng.integers(1, n_supplier + 1, n_li),
        "l_linenumber": np.arange(n_li) - np.repeat(first_line, n_lines) + 1,
        "l_quantity": quantity,
        "l_extendedprice": extended,
        "l_discount": (rng.integers(0, 11, n_li) / 100.0).round(2),
        "l_tax": (rng.integers(0, 9, n_li) / 100.0).round(2),
        "l_returnflag": np.where(
            receiptdate <= 9400, _choice(rng, ["a", "r"], n_li), "n"
        ).astype(object),
        "l_linestatus": np.where(shipdate <= 9400, "f", "o").astype(object),
        "l_shipdate": shipdate,
        "l_commitdate": l_orderdate + rng.integers(30, 91, n_li),
        "l_receiptdate": receiptdate,
        "l_shipmode": _choice(rng, _SHIPMODES, n_li),
        "l_shipinstruct": _choice(rng, _SHIPINSTRUCT, n_li),
    })
    orders = _table("orders", {
        "o_orderkey": orderkey,
        "o_custkey": rng.integers(1, n_customer + 1, n_orders),
        "o_orderstatus": _choice(rng, ["f", "o", "p"], n_orders),
        "o_totalprice": np.add.reduceat(extended, first_line).round(2),
        "o_orderdate": orderdate,
        "o_orderpriority": _choice(rng, _PRIORITIES, n_orders),
    })
    return [region, nation, supplier, part, customer, orders, lineitem]


# ---------------------------------------------------------------------------
# server_mixed and dml_commit
# ---------------------------------------------------------------------------


def points(seed: int, n: int) -> Table:
    """The key-lookup table of ``server_mixed``: dense unique ``id``."""
    rng = np.random.default_rng([seed, 4])
    return _table("points", {
        "id": np.arange(n),
        "grp": rng.integers(0, 100, n),
        "val": rng.random(n).round(4),
        "tag": np.array([f"tag{t:02d}" for t in rng.integers(0, 50, n)],
                        dtype=object),
    })


def acct(seed: int, n: int) -> Table:
    """The update target of ``dml_commit``. Every value has a fixed
    printed width (six-digit balances, three-digit owners), so the WAL
    bytes one statement writes do not depend on the seed."""
    rng = np.random.default_rng([seed, 5])
    return _table("acct", {
        "id": np.arange(10_000, 10_000 + n),
        "bal": rng.integers(100_000, 900_000, n),
        "owner": np.array(
            [f"own{o:03d}" for o in rng.integers(0, 1000, n)], dtype=object
        ),
    })


def bulk_source(seed: int, n: int) -> Table:
    """What ``INSERT INTO t SELECT ... FROM src`` copies."""
    rng = np.random.default_rng([seed, 6])
    return _table("src", {
        "a": np.arange(n),
        "b": rng.random(n).round(6),
        "c": np.array([f"s{v:02d}" for v in rng.integers(0, 100, n)],
                      dtype=object),
    })


#: Statement kinds of the ``server_mixed`` schedule and their shares.
POINT, FETCH, WRITE = 0, 1, 2
MIX = ((POINT, 0.90), (FETCH, 0.05), (WRITE, 0.05))
FETCH_ROWS = 1000


def schedule(
    seed: int, connection: int, length: int, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """One connection's statement schedule: (kind, key) per statement.
    ``key`` is the looked-up id for a point, the range start for a
    fetch, and unused for a write."""
    rng = np.random.default_rng([seed, 7, connection])
    u = rng.random(length)
    kind = np.full(length, WRITE)
    kind[u < MIX[0][1] + MIX[1][1]] = FETCH
    kind[u < MIX[0][1]] = POINT
    key = rng.integers(0, n_points - FETCH_ROWS, length)
    return kind, key
