"""Differential oracle: our engine vs an in-memory SQLite mirror.

Both engines load identical data (from the generator's table specs),
run the same generated query, and must produce the same *normalized*
result. Normalization bridges representation differences that are not
semantic: numpy scalars vs Python scalars, booleans vs SQLite's 0/1,
float rounding noise (different summation orders), and row order when
the query doesn't pin a total order.

On divergence the oracle shrinks the query (dropping clauses, items,
joins) and then the data (dropping rows) while the divergence persists,
so the reported reproducer is close to minimal.
"""

from __future__ import annotations

import copy
import math
import os
import sqlite3
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..api.database import Database
from ..errors import InjectedFault, ReproError, ResourceGovernorError
from ..obs.metrics import global_registry
from .generator import (
    BOOLEAN,
    FLOAT,
    GenQuery,
    GenTable,
    INTEGER,
    QueryGenerator,
    VARCHAR,
)

_SQLITE_TYPES = {
    INTEGER: "INTEGER",
    FLOAT: "REAL",
    VARCHAR: "TEXT",
    BOOLEAN: "INTEGER",
}

#: Tolerances for float comparison: generated data is O(100) and row
#: counts are O(100), so genuine equality holds far tighter than this.
_ABS_TOL = 1e-6
_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Result normalization
# ---------------------------------------------------------------------------


def normalize_value(value: object) -> object:
    """Engine-independent canonical form of one result cell."""
    if value is None:
        return None
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == 0.0:  # merge -0.0 and +0.0
            return 0.0
        return value
    return value


def _sort_key(row: tuple) -> tuple:
    """Total order over normalized rows of mixed types (bag compare)."""
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, (int, float)):
            key.append((1, float(value)))
        else:
            key.append((2, str(value)))
    return tuple(key)


def normalize_rows(
    rows: Iterable[tuple], ordered: bool
) -> list[tuple]:
    out = [
        tuple(normalize_value(v) for v in row) for row in rows
    ]
    if not ordered:
        out.sort(key=_sort_key)
    return out


def _values_match(left: object, right: object) -> bool:
    if isinstance(left, float) and isinstance(right, (int, float)):
        return math.isclose(
            left, float(right), rel_tol=_REL_TOL, abs_tol=_ABS_TOL
        )
    if isinstance(right, float) and isinstance(left, (int, float)):
        return math.isclose(
            float(left), right, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
        )
    return left == right


def rows_equal(
    left: list[tuple], right: list[tuple], ordered: bool
) -> bool:
    """Compare two *normalized* result sets.

    Exact match first; on mismatch, floats get a tolerance pass —
    after aligning by sort order when the comparison is unordered
    (tiny float noise rarely flips the sort in only one engine: the
    generator keeps float expressions out of anything order-critical).
    """
    if left == right:
        return True
    if len(left) != len(right):
        return False
    for lrow, rrow in zip(left, right):
        if len(lrow) != len(rrow):
            return False
        for lval, rval in zip(lrow, rrow):
            if not _values_match(lval, rval):
                return False
    return True


# ---------------------------------------------------------------------------
# Engine harnesses
# ---------------------------------------------------------------------------


def build_repro_db(
    tables: list[GenTable],
    workers: int = 1,
    plan_cache: Optional[bool] = None,
    chaos=None,
    encoding: Optional[str] = None,
    topn: Optional[bool] = None,
    wal_path: Optional[str] = None,
) -> Database:
    # Tiny morsels and no cardinality threshold: multi-morsel scans and
    # the all-morsels-pruned path get differential coverage, and with
    # workers > 1 every generated query genuinely dispatches to the pool
    # even on fuzz-sized tables.
    db = Database(
        workers=workers, parallel_threshold=0, morsel_rows=32,
        plan_cache=plan_cache, chaos=chaos, encoding=encoding,
        topn=topn, wal_path=wal_path,
    )
    for table in tables:
        db.execute(table.ddl())
        if table.rows:
            db.insert_rows(table.name, table.rows)
    return db


def build_sqlite_db(tables: list[GenTable]) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for table in tables:
        cols = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.sql_type]}"
            for c in table.columns
        )
        conn.execute(f"CREATE TABLE {table.name} ({cols})")
        if table.rows:
            placeholders = ", ".join("?" * len(table.columns))
            converted = [
                tuple(
                    int(v) if isinstance(v, bool) else v
                    for v in row
                )
                for row in table.rows
            ]
            conn.executemany(
                f"INSERT INTO {table.name} VALUES ({placeholders})",
                converted,
            )
    conn.commit()
    return conn


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One observed disagreement, carrying a standalone reproducer."""

    seed: int
    query_index: int
    kind: str  # "result" | "error"
    sql: str
    tables: list[GenTable]
    detail: str
    repro_rows: Optional[list[tuple]] = None
    sqlite_rows: Optional[list[tuple]] = None

    def report(self) -> str:
        lines = [
            f"=== divergence (seed={self.seed}, "
            f"query={self.query_index}, kind={self.kind}) ===",
            f"-- reproduce: python -m repro.testing.fuzz "
            f"--seeds 1 --start {self.seed}",
            "-- schema + data:",
        ]
        for table in self.tables:
            lines.append(f"{table.ddl()};")
            lines.extend(
                f"{stmt};" for stmt in table.insert_statements()
            )
        lines.append("-- query:")
        lines.append(f"{self.sql};")
        lines.append(f"-- {self.detail}")
        if self.repro_rows is not None:
            lines.append(f"-- repro rows:  {self.repro_rows[:10]}")
        if self.sqlite_rows is not None:
            lines.append(f"-- sqlite rows: {self.sqlite_rows[:10]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class DifferentialOracle:
    """Runs generated queries through both engines and compares.

    With ``cache_check`` the repro side runs three legs per statement —
    cold (populates the plan cache), cached (served from it), and a twin
    database with the whole hot-path stack disabled — and any
    disagreement between legs is a ``"cache"`` divergence.

    ``chaos_injector`` arms a seeded fault injector on the repro side
    *after* data population; statements aborted by the injected fault
    (the typed governor family) are not divergences — the oracle then
    checks that later statements still agree with SQLite, i.e. the
    fault left no partial state behind.

    With ``encoding_check`` the repro side additionally runs every
    statement on two storage twins — one forced to encoded columns
    (dictionary/RLE/FOR), one forced raw — and any disagreement between
    them is an ``"encoding"`` divergence, shrunk to a minimal
    reproducer exactly like an engine bug.

    With ``topn_check`` the repro side runs every statement on a twin
    with top-N sort fusion disabled (every ORDER BY + LIMIT takes the
    full-sort-then-limit path), and any disagreement — ties included,
    since the bounded sort is required to be bit-identical — is a
    ``"topn"`` divergence.

    With ``durability_check`` the repro side additionally maintains a
    WAL-backed twin: every statement runs on it too, and after each
    statement a *fresh* database is recovered from that WAL and its
    full committed state compared against the live twin — any
    round-trip loss through the log (or through checkpoint/replay) is
    a ``"durability"`` divergence (docs/durability.md)."""

    def __init__(
        self,
        tables: list[GenTable],
        workers: int = 1,
        cache_check: bool = False,
        chaos_injector=None,
        encoding_check: bool = False,
        topn_check: bool = False,
        durability_check: bool = False,
    ):
        self.tables = tables
        self.workers = workers
        self.cache_check = cache_check
        self.encoding_check = encoding_check
        self.topn_check = topn_check
        self.durability_check = durability_check
        # With the encoding twin active the primary runs forced-auto so
        # the comparison is encoded-vs-raw regardless of REPRO_ENCODING.
        self.db = build_repro_db(
            tables, workers=workers, chaos=chaos_injector,
            encoding="auto" if encoding_check else None,
        )
        if chaos_injector is not None:
            chaos_injector.arm()
        self.db_nocache = (
            build_repro_db(tables, workers=workers, plan_cache=False)
            if cache_check
            else None
        )
        self.db_raw = (
            build_repro_db(tables, workers=workers, encoding="raw")
            if encoding_check
            else None
        )
        self.db_fullsort = (
            build_repro_db(tables, workers=workers, topn=False)
            if topn_check
            else None
        )
        self._wal_dir = None
        self.db_durable = None
        if durability_check:
            import tempfile

            self._wal_dir = tempfile.TemporaryDirectory(
                prefix="repro-fuzz-wal-"
            )
            self._wal_path = os.path.join(self._wal_dir.name, "db.wal")
            self.db_durable = build_repro_db(
                tables, workers=workers, wal_path=self._wal_path
            )
        self.conn = build_sqlite_db(tables)

    def close(self) -> None:
        self.conn.close()
        self.db.close()
        if self.db_nocache is not None:
            self.db_nocache.close()
        if self.db_raw is not None:
            self.db_raw.close()
        if self.db_fullsort is not None:
            self.db_fullsort.close()
        if self.db_durable is not None:
            self.db_durable.close()
        if self._wal_dir is not None:
            self._wal_dir.cleanup()

    def _check_cache_legs(
        self, sql: str, ordered: bool, cold_rows: list[tuple]
    ) -> Optional[dict]:
        """Compare the cold run's rows against the cached re-run and
        the cache-disabled twin."""
        for leg, db in (
            ("cached", self.db),
            ("cache-disabled", self.db_nocache),
        ):
            try:
                rows = normalize_rows(db.execute(sql).rows, ordered)
            except (ResourceGovernorError, InjectedFault):
                # Chaos fault in a cache leg: abort, not a divergence.
                global_registry().counter(
                    "fuzz_chaos_faults_total"
                ).inc()
                return None
            except (ReproError, OverflowError, ValueError) as exc:
                return {
                    "kind": "cache",
                    "detail": (
                        f"{leg} leg raised where the cold run "
                        f"succeeded: {type(exc).__name__}: {exc}"
                    ),
                    "repro_rows": cold_rows,
                }
            if not rows_equal(cold_rows, rows, ordered):
                return {
                    "kind": "cache",
                    "detail": (
                        f"{leg} leg differs from the cold run: "
                        f"{len(cold_rows)} vs {len(rows)} row(s)"
                    ),
                    "repro_rows": cold_rows,
                    "sqlite_rows": rows,
                }
        return None

    def _check_encoding_leg(
        self, sql: str, ordered: bool, cold_rows: list[tuple]
    ) -> Optional[dict]:
        """Compare the (encoded) primary's rows against the raw-storage
        twin: encoding must change footprint, never results."""
        try:
            rows = normalize_rows(
                self.db_raw.execute(sql).rows, ordered
            )
        except (ResourceGovernorError, InjectedFault):
            global_registry().counter("fuzz_chaos_faults_total").inc()
            return None
        except (ReproError, OverflowError, ValueError) as exc:
            return {
                "kind": "encoding",
                "detail": (
                    f"raw-storage twin raised where the encoded run "
                    f"succeeded: {type(exc).__name__}: {exc}"
                ),
                "repro_rows": cold_rows,
            }
        if not rows_equal(cold_rows, rows, ordered):
            return {
                "kind": "encoding",
                "detail": (
                    f"encoded and raw storage disagree: "
                    f"{len(cold_rows)} vs {len(rows)} row(s)"
                ),
                "repro_rows": cold_rows,
                "sqlite_rows": rows,
            }
        return None

    def _check_topn_leg(
        self, sql: str, ordered: bool, cold_rows: list[tuple]
    ) -> Optional[dict]:
        """Compare the primary (top-N fusion enabled) against the
        full-sort twin. Ordered queries compare positionally, so a
        top-N that resolves ties differently from the stable full sort
        is caught as a divergence."""
        try:
            rows = normalize_rows(
                self.db_fullsort.execute(sql).rows, ordered
            )
        except (ResourceGovernorError, InjectedFault):
            global_registry().counter("fuzz_chaos_faults_total").inc()
            return None
        except (ReproError, OverflowError, ValueError) as exc:
            return {
                "kind": "topn",
                "detail": (
                    f"full-sort twin raised where the top-N run "
                    f"succeeded: {type(exc).__name__}: {exc}"
                ),
                "repro_rows": cold_rows,
            }
        if not rows_equal(cold_rows, rows, ordered):
            return {
                "kind": "topn",
                "detail": (
                    f"top-N and full-sort disagree: "
                    f"{len(cold_rows)} vs {len(rows)} row(s)"
                ),
                "repro_rows": cold_rows,
                "sqlite_rows": rows,
            }
        return None

    def _check_durability_leg(
        self, sql: str, ordered: bool, cold_rows: list[tuple]
    ) -> Optional[dict]:
        """Run the statement on the WAL-backed twin, then recover a
        fresh database from that WAL and require its full committed
        state to match the live twin's — the log must round-trip
        everything, after every statement."""
        try:
            rows = normalize_rows(
                self.db_durable.execute(sql).rows, ordered
            )
        except (ResourceGovernorError, InjectedFault):
            global_registry().counter("fuzz_chaos_faults_total").inc()
            return None
        except (ReproError, OverflowError, ValueError) as exc:
            return {
                "kind": "durability",
                "detail": (
                    f"WAL-backed twin raised where the primary "
                    f"succeeded: {type(exc).__name__}: {exc}"
                ),
                "repro_rows": cold_rows,
            }
        if not rows_equal(cold_rows, rows, ordered):
            return {
                "kind": "durability",
                "detail": (
                    f"WAL-backed twin differs from the primary: "
                    f"{len(cold_rows)} vs {len(rows)} row(s)"
                ),
                "repro_rows": cold_rows,
                "sqlite_rows": rows,
            }
        from .crash import dump_state

        recovered = Database(wal_path=self._wal_path, workers=1)
        try:
            live_state = dump_state(self.db_durable)
            rec_state = dump_state(recovered)
        finally:
            recovered.close()
        if live_state != rec_state:
            return {
                "kind": "durability",
                "detail": (
                    "state recovered from the WAL differs from the "
                    "live twin: "
                    + ", ".join(
                        f"{name}: {len(rec_state.get(name, []))} vs "
                        f"{len(live_state.get(name, []))} row(s)"
                        for name in sorted(
                            set(live_state) | set(rec_state)
                        )
                        if live_state.get(name) != rec_state.get(name)
                    )
                ),
                "repro_rows": cold_rows,
            }
        return None

    def check(self, query: GenQuery) -> Optional[dict]:
        """None when both engines agree; otherwise a dict describing
        the disagreement (used by :meth:`check_query` and the
        minimizer)."""
        return self._check_sql(query.to_sql(), query.ordered)

    def _check_sql(self, sql: str, ordered: bool) -> Optional[dict]:
        metrics = global_registry()
        metrics.counter("fuzz_queries_total").inc()
        repro_error = sqlite_error = None
        repro_rows = sqlite_rows = None
        try:
            repro_rows = normalize_rows(
                self.db.execute(sql).rows, ordered
            )
            metrics.counter("fuzz_rows_compared_total").inc(
                len(repro_rows)
            )
        except (ResourceGovernorError, InjectedFault):
            # A chaos-injected abort is not a semantic divergence; the
            # statement rolled back and later queries re-check state.
            metrics.counter("fuzz_chaos_faults_total").inc()
            return None
        except (ReproError, OverflowError, ValueError) as exc:
            repro_error = f"{type(exc).__name__}: {exc}"
        try:
            sqlite_rows = normalize_rows(
                self.conn.execute(sql).fetchall(), ordered
            )
        except sqlite3.Error as exc:
            sqlite_error = f"{type(exc).__name__}: {exc}"

        if repro_error is None and self.db_nocache is not None:
            cache_failure = self._check_cache_legs(
                sql, ordered, repro_rows
            )
            if cache_failure is not None:
                return cache_failure
        if repro_error is None and self.db_raw is not None:
            encoding_failure = self._check_encoding_leg(
                sql, ordered, repro_rows
            )
            if encoding_failure is not None:
                return encoding_failure
        if repro_error is None and self.db_fullsort is not None:
            topn_failure = self._check_topn_leg(
                sql, ordered, repro_rows
            )
            if topn_failure is not None:
                return topn_failure
        if repro_error is None and self.db_durable is not None:
            durability_failure = self._check_durability_leg(
                sql, ordered, repro_rows
            )
            if durability_failure is not None:
                return durability_failure
        if repro_error is None and sqlite_error is None:
            if rows_equal(repro_rows, sqlite_rows, ordered):
                return None
            return {
                "kind": "result",
                "detail": (
                    f"results differ: {len(repro_rows)} vs "
                    f"{len(sqlite_rows)} row(s)"
                ),
                "repro_rows": repro_rows,
                "sqlite_rows": sqlite_rows,
            }
        if repro_error is not None and sqlite_error is not None:
            # Both engines reject the statement: not a semantic
            # divergence (the generator overstepped both dialects).
            return None
        return {
            "kind": "error",
            "detail": (
                f"repro error: {repro_error}"
                if repro_error is not None
                else f"sqlite error: {sqlite_error}"
            ),
            "repro_rows": repro_rows,
            "sqlite_rows": sqlite_rows,
        }


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _query_variants(query: GenQuery) -> list[GenQuery]:
    """Candidate one-step shrinks of a query, all well-formed."""
    out = []

    def clone() -> GenQuery:
        return copy.deepcopy(query)

    if query.limit is not None:
        candidate = clone()
        candidate.limit = None
        candidate.offset = None
        out.append(candidate)
    if query.order_by:
        candidate = clone()
        candidate.order_by = []
        candidate.limit = None
        candidate.offset = None
        out.append(candidate)
    if query.set_op is not None:
        candidate = clone()
        candidate.set_op = None
        out.append(candidate)
    if query.having is not None:
        candidate = clone()
        candidate.having = None
        out.append(candidate)
    if query.distinct:
        candidate = clone()
        candidate.distinct = False
        out.append(candidate)
    for i in range(len(query.where)):
        candidate = clone()
        del candidate.where[i]
        out.append(candidate)
    # Select items: only in plain queries without set op (arms must
    # keep matching signatures; group keys stay tied to GROUP BY).
    if query.set_op is None and not query.group_by:
        for i in range(len(query.items)):
            if len(query.items) > 1:
                candidate = clone()
                del candidate.items[i]
                candidate.order_by = []
                candidate.limit = None
                candidate.offset = None
                out.append(candidate)
    # Aggregates beyond the group keys can drop one by one.
    if query.group_by and query.set_op is None:
        n_keys = len(query.group_by)
        for i in range(n_keys, len(query.items)):
            if len(query.items) > 1:
                candidate = clone()
                del candidate.items[i]
                candidate.order_by = []
                candidate.limit = None
                candidate.offset = None
                out.append(candidate)
    # Drop a join plus everything that references its alias.
    for i, join in enumerate(query.joins):
        alias = join.alias
        used = any(
            alias in item.aliases for item in query.items
        ) or any(alias in g.aliases for g in query.group_by)
        if query.having is not None and alias in query.having.aliases:
            used = True
        if used:
            continue
        candidate = clone()
        del candidate.joins[i]
        candidate.where = [
            p for p in candidate.where if alias not in p.aliases
        ]
        out.append(candidate)
    return out


def minimize_query(
    oracle: DifferentialOracle, query: GenQuery
) -> GenQuery:
    """Greedy shrink: keep applying the first one-step variant that
    still diverges, until none does."""
    current = query
    for _ in range(64):
        for candidate in _query_variants(current):
            if oracle.check(candidate) is not None:
                current = candidate
                break
        else:
            return current
    return current


def minimize_data(
    tables: list[GenTable],
    query: GenQuery,
    workers: int = 1,
    cache_check: bool = False,
    encoding_check: bool = False,
    topn_check: bool = False,
    durability_check: bool = False,
) -> list[GenTable]:
    """Drop row chunks (halves, then quarters, ...) from each table
    while the divergence persists. Rebuilds both engines per probe."""

    def diverges(candidate_tables: list[GenTable]) -> bool:
        oracle = DifferentialOracle(
            candidate_tables, workers=workers, cache_check=cache_check,
            encoding_check=encoding_check, topn_check=topn_check,
            durability_check=durability_check,
        )
        try:
            return oracle.check(query) is not None
        finally:
            oracle.close()

    current = copy.deepcopy(tables)
    for t_index in range(len(current)):
        chunk = max(len(current[t_index].rows) // 2, 1)
        while chunk >= 1:
            start = 0
            rows = current[t_index].rows
            progressed = False
            while start < len(rows):
                candidate = copy.deepcopy(current)
                del candidate[t_index].rows[start:start + chunk]
                if candidate[t_index].rows != rows and diverges(
                    candidate
                ):
                    current = candidate
                    rows = current[t_index].rows
                    progressed = True
                else:
                    start += chunk
            if not progressed or chunk == 1:
                chunk //= 2
            else:
                chunk = min(chunk, max(len(rows) // 2, 1))
    return current


# ---------------------------------------------------------------------------
# Seed-level driver (shared by tests and the fuzz CLI)
# ---------------------------------------------------------------------------


def run_seed(
    seed: int,
    queries_per_seed: int = 3,
    minimize: bool = True,
    allow_subqueries: bool = True,
    workers: int = 1,
    cache_check: bool = False,
    chaos: bool = False,
    encoding_check: bool = False,
    topn_check: bool = False,
    durability_check: bool = False,
    schema_profile: str = "default",
) -> list[Divergence]:
    """Run one seed's schema + queries; returns found divergences.

    ``workers > 1`` runs the repro side with a parallel pool (zero
    cardinality threshold, tiny morsels) so the differential corpus
    exercises the morsel-driven paths against SQLite. ``cache_check``
    additionally compares cold vs plan-cached vs cache-disabled
    executions of every statement. ``chaos`` arms a seeded fault
    injector on the repro side: the injected abort itself is tolerated,
    but every query after it must still agree with SQLite.
    ``encoding_check`` runs every statement on encoded-vs-raw storage
    twins; ``topn_check`` runs every statement on a full-sort twin
    (top-N fusion disabled) and requires bit-identical ordered output;
    ``durability_check`` keeps a WAL-backed twin and recovers a fresh
    database from its log after every statement, requiring the
    round-tripped state to match; ``schema_profile="strings"``
    generates the string-heavy, low-cardinality schemas that stress
    dictionary encoding."""
    generator = QueryGenerator(
        seed, allow_subqueries=allow_subqueries,
        schema_profile=schema_profile,
    )
    tables = generator.schema()
    chaos_injector = None
    if chaos:
        from .chaos import ChaosInjector

        chaos_injector = ChaosInjector.from_seed(seed)
    oracle = DifferentialOracle(
        tables, workers=workers, cache_check=cache_check,
        chaos_injector=chaos_injector, encoding_check=encoding_check,
        topn_check=topn_check, durability_check=durability_check,
    )
    divergences = []
    try:
        for index in range(queries_per_seed):
            query = generator.query(tables)
            failure = oracle.check(query)
            if failure is None:
                continue
            small_tables = tables
            if minimize:
                query = minimize_query(oracle, query)
                small_tables = minimize_data(
                    tables, query,
                    workers=workers, cache_check=cache_check,
                    encoding_check=encoding_check,
                    topn_check=topn_check,
                    durability_check=durability_check,
                )
                probe = DifferentialOracle(
                    small_tables,
                    workers=workers, cache_check=cache_check,
                    encoding_check=encoding_check,
                    topn_check=topn_check,
                    durability_check=durability_check,
                )
                try:
                    failure = probe.check(query) or failure
                finally:
                    probe.close()
            global_registry().counter("fuzz_divergences_total").inc()
            divergences.append(
                Divergence(
                    seed=seed,
                    query_index=index,
                    kind=failure["kind"],
                    sql=query.to_sql(),
                    tables=small_tables,
                    detail=failure["detail"],
                    repro_rows=failure.get("repro_rows"),
                    sqlite_rows=failure.get("sqlite_rows"),
                )
            )
    finally:
        oracle.close()
    return divergences


def run_seeds(
    seeds: Iterable[int],
    queries_per_seed: int = 3,
    minimize: bool = True,
    allow_subqueries: bool = True,
    workers: int = 1,
    cache_check: bool = False,
    chaos: bool = False,
    encoding_check: bool = False,
    topn_check: bool = False,
    durability_check: bool = False,
    schema_profile: str = "default",
) -> list[Divergence]:
    out = []
    for seed in seeds:
        out.extend(
            run_seed(
                seed,
                queries_per_seed=queries_per_seed,
                minimize=minimize,
                allow_subqueries=allow_subqueries,
                workers=workers,
                cache_check=cache_check,
                chaos=chaos,
                encoding_check=encoding_check,
                topn_check=topn_check,
                durability_check=durability_check,
                schema_profile=schema_profile,
            )
        )
    return out
