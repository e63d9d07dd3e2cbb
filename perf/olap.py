"""``olap`` — the TPC-H-shaped decision-support set at scale 100.

Sixteen vendored query texts (``perf/queries``) over ~120k lineitems
and 30k orders, embedded ``Database``, one client, repeated passes.
Fused scan/filter/project, hash join, aggregate, sort/top-N, zone maps
and predicates on encoded columns do the work; ITERATE, the wire and
the WAL do none. It is the *read* side of ``storage.encoding``.

q17 and q20 of the battery are left out: their correlated subqueries
are quadratic here (~10 s and ~5.5 s, 95 % of a pass) and would hide
every other operator.
"""

from __future__ import annotations

import math
import sqlite3
from pathlib import Path
from statistics import median

import repro

import gen
import stages
from base import Workload
from harness import Metric, clock, timebox

SCALE = 100
QUERY_DIR = Path(__file__).resolve().parent / "queries"
#: The five costliest queries of a pass at the seed (83 % of it): a
#: six-way join, a semi-join on a grouped subquery, a disjunctive join
#: predicate, an IN-subquery semi-join and the scan-aggregate sweep.
SLOT_QUERIES = ("q07", "q18", "q19", "q04", "q01")
REL_TOL, ABS_TOL = 1e-9, 1e-6


def load_queries() -> dict[str, tuple[str, bool]]:
    """short name -> (sql, compare as ordered list)."""
    out = {}
    for path in sorted(QUERY_DIR.glob("*.sql")):
        text = path.read_text()
        out[path.stem.split("_", 1)[0]] = (text, "-- compare: ordered" in text)
    return out


def _plain(value):
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _sort_key(row: tuple):
    return tuple(
        (0, "") if v is None
        else (1, round(v, 4)) if isinstance(v, (int, float))
        else (2, v)
        for v in row
    )


def rows_match(got: list, want: list, ordered: bool) -> bool:
    """Row-for-row equality with a float tolerance (summation order
    differs between the two engines)."""
    got = [tuple(_plain(v) for v in row) for row in got]
    want = [tuple(row) for row in want]
    if not ordered:
        got.sort(key=_sort_key)
        want.sort(key=_sort_key)
    if len(got) != len(want):
        return False
    for grow, wrow in zip(got, want):
        if len(grow) != len(wrow):
            return False
        for g, w in zip(grow, wrow):
            if isinstance(g, float) or isinstance(w, float):
                if g is None or w is None or not math.isclose(
                    g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ):
                    return False
            elif g != w:
                return False
    return True


class Olap(Workload):
    name = "olap"
    SLOTS = ("olap_round_ms",) + tuple(f"{q}_ms" for q in SLOT_QUERIES)

    def __init__(self, seed: int, workdir, min_samples: int):
        super().__init__(seed, workdir, min_samples)
        self.queries = load_queries()
        #: query -> rows of its latest execution, for the output check.
        self.outputs: dict[str, list] = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate, load and run the first (cold) pass."""
        self.tables = gen.tpch(self.seed, SCALE)
        self.db = repro.Database()
        started = clock()
        for table in self.tables:
            table.load(self.db)
        self.load_seconds = clock() - started
        started = clock()
        self._one_pass({q: [] for q in self.queries}, None)
        self.cold_pass_ms = (clock() - started) * 1e3

    # -- the closed loop --------------------------------------------------

    def _one_pass(self, samples: dict[str, list], tracer) -> None:
        for stmt, (name, (sql, _ordered)) in enumerate(self.queries.items()):
            started = clock()
            result = self._execute(sql, None, tracer, stmt)
            samples[name].append((clock() - started) * 1e3)
            self.outputs[name] = result.rows if result is not None else None

    def measure(self, seconds: float, tracer=None) -> dict[str, Metric]:
        samples: dict[str, list[float]] = {q: [] for q in self.queries}
        rounds = []
        for _pass in timebox(seconds, self.min_samples):
            started = clock()
            self._one_pass(samples, tracer)
            rounds.append((clock() - started) * 1e3)
        out = {"olap_round_ms": Metric.of(rounds, "ms")}
        out.update(
            {f"{q}_ms": Metric.of(v, "ms") for q, v in samples.items()})
        return out

    # -- output check -----------------------------------------------------

    def verify(self) -> list[str]:
        """Every query's rows against stdlib SQLite on the same rows."""
        conn = sqlite3.connect(":memory:")
        try:
            for table in self.tables:
                conn.execute(table.ddl)
                marks = ", ".join("?" * len(table.columns))
                conn.executemany(
                    f"INSERT INTO {table.name} VALUES ({marks})", table.rows())
            problems = []
            for name, (sql, ordered) in self.queries.items():
                want = conn.execute(sql).fetchall()
                got = self.outputs.get(name)
                if got is None or not rows_match(got, want, ordered):
                    problems.append(f"{name}: rows differ from SQLite")
            return problems
        finally:
            conn.close()

    # -- per-layer metrics (traced pass) ----------------------------------

    def _parallel_ratio(self) -> Metric:
        """q01+q06 pass time at workers=1 over workers=2."""
        db2 = repro.Database(workers=2)
        try:
            for table in self.tables:
                table.load(db2)
            pair = [self.queries[q][0] for q in ("q01", "q06")]
            times = {1: [], 2: []}
            for _ in range(self.min_samples + 1):
                for workers, db in ((1, self.db), (2, db2)):
                    started = clock()
                    for sql in pair:
                        db.execute(sql).rows
                    times[workers].append(clock() - started)
            # The first pair is db2's cold pass.
            return Metric(
                median(times[1][1:]) / median(times[2][1:]), "ratio",
                count=self.min_samples,
            )
        finally:
            db2.close()

    def layers(self, seconds, tracer, plain, before, after) -> dict:
        out: dict[str, Metric] = {}
        out["plan.cold_round_ms"] = Metric(
            self.cold_pass_ms - plain["olap_round_ms"].value, "ms", count=1)
        lineitem = self.tables[-1]
        out["exec.scan_rows_per_s"] = Metric(
            lineitem.row_count / (plain["q06_ms"].value / 1e3), "rows/s",
            count=plain["q06_ms"].count,
        )
        out["exec.parallel_w2_ratio"] = self._parallel_ratio()
        selects = [(sql, None) for sql, _ordered in self.queries.values()]
        out.update(stages.stage_metrics(
            self.db, tracer, selects, seconds * 0.2,
            max(self.min_samples // 5, 1)))
        out.update(stages.operator_shares(self.db, selects))
        n_orders = self.tables[-2].row_count
        out.update(self.api_metrics(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = ?",
            lambda i: [(i * 7919) % n_orders + 1], seconds * 0.05))
        out.update(self.storage_metrics(
            sum(t.row_count for t in self.tables), self.load_seconds))
        return out
