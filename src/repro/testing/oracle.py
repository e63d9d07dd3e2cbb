"""Differential oracle: a sampled engine configuration vs a plain
reference engine vs an in-memory SQLite mirror.

Each seed draws one *subject* configuration (:func:`draw_config`). All
three engines load the generator's data and run its queries: the
:data:`REFERENCE` engine must agree with SQLite, and the subject with
the reference — no switch may change an answer. Normalization bridges
representation differences that are not semantic: numpy vs Python
scalars, booleans vs SQLite's 0/1, float noise from summation order,
row order where the query pins none.

On divergence the oracle shrinks the query, then the configuration
(resetting switches to the reference), then the data, while the
divergence persists — so the reproducer is close to minimal and names
the switches that matter.
"""

from __future__ import annotations

import copy
import math
import os
import random
import sqlite3
import tempfile
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional

import numpy as np

from ..api.database import Database
from ..errors import InjectedFault, ReproError, ResourceGovernorError
from ..obs.metrics import global_registry
from ..storage.encoding import ENCODING_POLICIES
from ..storage.table import DEFAULT_MORSEL_ROWS
from ..txn.wal import RECOVERY_MODES
from .generator import (
    BOOLEAN,
    FLOAT,
    SCHEMA_PROFILES,
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

#: Queries generated per seed unless told otherwise.
DEFAULT_QUERIES_PER_SEED = 3


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


def _sorted_by(rows: list[tuple], order_by: list) -> bool:
    """Whether normalized ``rows`` follow ``order_by`` — (1-based
    ordinal, descending, nulls_last) keys — by their own values."""
    for prev, row in zip(rows, rows[1:]):
        for ordinal, descending, nulls_last in order_by:
            a, b = prev[ordinal - 1], row[ordinal - 1]
            if a == b:
                continue
            if a is None or b is None:
                if (a is None) == nulls_last:
                    return False
            elif (a > b) != descending:
                return False
            break
    return True


def rows_agree(
    left: list[tuple], right: list[tuple], order_by: Optional[list]
) -> bool:
    """:func:`rows_equal`, where an ordered comparison (``order_by``
    given) that fails positionally still agrees when both sides are
    sorted by their own values and equal as bags: float noise can flip
    two rows whose float sort keys tie within tolerance."""
    if rows_equal(left, right, order_by is not None):
        return True
    return (
        order_by is not None
        and _sorted_by(left, order_by)
        and _sorted_by(right, order_by)
        and rows_equal(
            sorted(left, key=_sort_key), sorted(right, key=_sort_key),
            ordered=False,
        )
    )


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

#: A checkpoint threshold every data load crosses, so recovery goes
#: through snapshot restore plus a short log suffix.
TINY_CHECKPOINT_BYTES = 256


@dataclass(frozen=True)
class FuzzConfig:
    """One point of :data:`CONFIG_SPACE`. The defaults are the plain
    reference engine; ``schema`` picks the generator's schema profile
    and is shared by subject and reference."""

    chaos: bool = False
    wal: bool = False
    checkpoint_bytes: Optional[int] = None
    recovery: str = "tolerant"
    workers: int = 1
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    plan_cache: bool = False
    encoding: str = "raw"
    topn: bool = False
    optimize: bool = True
    schema: str = "default"

    def __str__(self) -> str:
        return " ".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self)
        )

    def engine_settings(self) -> dict:
        """``Database`` keyword arguments. Every setting is passed, so
        no ``REPRO_*`` variable can change it (``checkpoint_bytes=0``
        pins automatic checkpoints off)."""
        return {
            "workers": self.workers,
            "parallel_threshold": 0,
            "morsel_rows": self.morsel_rows,
            "plan_cache": self.plan_cache,
            "encoding": self.encoding,
            "topn": self.topn,
            "optimize": self.optimize,
            "checkpoint_bytes": self.checkpoint_bytes or 0,
            "recovery": self.recovery,
        }

    def switches(self) -> dict:
        """The engine fields that differ from :data:`REFERENCE`, in
        minimization order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "schema"
            and getattr(self, f.name) != getattr(REFERENCE, f.name)
        }


#: The plain reference engine every subject is compared against.
REFERENCE = FuzzConfig()

#: Each sampled field and its candidate values; :func:`draw_config`
#: picks one value per field, uniformly. The fault injector comes first
#: in :class:`FuzzConfig` so minimization drops it before anything else:
#: a probe whose query it aborts proves nothing.
CONFIG_SPACE: dict[str, tuple] = {
    "chaos": (False, True),
    "wal": (False, True),
    "checkpoint_bytes": (None, TINY_CHECKPOINT_BYTES),
    "recovery": RECOVERY_MODES,
    "workers": (1, 2, 4),
    "morsel_rows": (1, 7, 32, DEFAULT_MORSEL_ROWS),
    "plan_cache": (False, True),
    "encoding": ENCODING_POLICIES,
    "topn": (False, True),
    "schema": SCHEMA_PROFILES,
    # Last, so that every earlier field's draw per seed is unchanged.
    "optimize": (True, False),
}


def draw_config(seed: int) -> FuzzConfig:
    """The seed's subject configuration. It comes from its own random
    stream, so the generator's stream — every seed's SQL — is the same
    whatever the draw."""
    rng = random.Random(f"fuzz-config:{seed}")
    return FuzzConfig(
        **{name: rng.choice(values) for name, values in CONFIG_SPACE.items()}
    )


# ---------------------------------------------------------------------------
# Engine harnesses
# ---------------------------------------------------------------------------


def build_repro_db(tables: list[GenTable], **settings) -> Database:
    """Our engine, loaded with ``tables``. ``settings`` are ``Database``
    keyword arguments; by default morsels are tiny and the cardinality
    threshold zero, so multi-morsel scans get coverage and with
    ``workers > 1`` every query genuinely dispatches to the pool even
    on small tables."""
    db = Database(**{"parallel_threshold": 0, "morsel_rows": 32, **settings})
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
    kind: str  # "result" | "error" | "config" | "durability"
    sql: str
    tables: list[GenTable]
    detail: str
    #: The configuration the seed ran under.
    config: FuzzConfig
    #: Its smallest failing switch set (field -> value).
    switches: dict
    #: Normalized rows per engine: "subject", "reference", "sqlite".
    rows: dict

    def reproducer(self) -> str:
        n_queries = max(self.query_index + 1, DEFAULT_QUERIES_PER_SEED)
        if self.config != draw_config(self.seed):
            return (
                f"repro.testing.oracle.run_seed({self.seed}, "
                f"queries_per_seed={n_queries}, config={self.config!r})"
            )
        command = (
            f"python -m repro.testing.fuzz --seeds 1 --start {self.seed}"
        )
        if n_queries > DEFAULT_QUERIES_PER_SEED:
            command += f" --queries-per-seed {n_queries}"
        return command

    def report(self) -> str:
        lines = [
            f"=== divergence (seed={self.seed}, "
            f"query={self.query_index}, kind={self.kind}) ===",
            f"-- reproduce: {self.reproducer()}",
            f"-- config: {self.config}",
            "-- failing switches: " + (
                " ".join(f"{k}={v}" for k, v in self.switches.items())
                or "none"
            ),
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
        for side, rows in self.rows.items():
            lines.append(f"-- {side} rows: {rows[:10]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def _run(db: Database, sql: str, ordered: bool) -> tuple:
    """``(rows, None)`` or ``(None, error)``. Governor aborts — what an
    armed fault injector raises — propagate."""
    try:
        return normalize_rows(db.execute(sql).rows, ordered), None
    except (ResourceGovernorError, InjectedFault):
        raise
    except (ReproError, OverflowError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _disagreement(
    answers: dict, left: str, right: str, order_by: Optional[list]
) -> Optional[str]:
    """How two engines' answers differ, or None when they agree. Both
    rejecting the statement is agreement (the generator overstepped
    both dialects)."""
    (lrows, lerror), (rrows, rerror) = answers[left], answers[right]
    if lerror is None and rerror is None:
        if rows_agree(lrows, rrows, order_by):
            return None
        return (
            f"{left} and {right} differ: {len(lrows)} vs "
            f"{len(rrows)} row(s)"
        )
    if lerror is not None and rerror is not None:
        return None
    if lerror is not None:
        return f"{left} error: {lerror}"
    return f"{right} error: {rerror}"


def _failure(kind: str, detail: str, answers: dict) -> dict:
    return {
        "kind": kind,
        "detail": detail,
        "rows": {
            side: answers[side][0]
            for side in ("subject", "reference", "sqlite")
            if side in answers and answers[side][0] is not None
        },
    }


class DifferentialOracle:
    """Runs generated queries on a *subject* engine built from
    ``config``, on the :data:`REFERENCE` engine and on SQLite.

    Per statement, in order: the reference must agree with SQLite
    (``"result"`` / ``"error"`` divergences); the subject runs it
    twice — cold, then cached — and each run must agree with the
    reference (``"config"``); and when the subject has a WAL, a *fresh*
    database recovered from that log after the statement must hold the
    subject's full committed state (``"durability"``).

    With ``config.chaos`` a fault injector seeded from ``seed`` is
    armed on the subject *after* data population; a statement it aborts
    (the typed governor family) is skipped, not a divergence — later
    statements must still agree, i.e. the fault left no partial state
    behind (docs/robustness.md)."""

    def __init__(
        self,
        tables: list[GenTable],
        config: FuzzConfig = REFERENCE,
        seed: int = 0,
    ):
        self.config = config
        # Holds the subject's WAL and its flight-recorder bundles.
        self._dir = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
        self.wal_path = (
            os.path.join(self._dir.name, "db.wal") if config.wal else None
        )
        # Imported here: `python -m` runs chaos.py and crash.py after
        # the package (and so this module) is loaded.
        from .chaos import ChaosInjector

        chaos = ChaosInjector.from_seed(seed) if config.chaos else None
        self.subject = build_repro_db(
            tables, chaos=chaos, wal_path=self.wal_path,
            flight_dir=self._dir.name, **config.engine_settings(),
        )
        if chaos is not None:
            chaos.arm()
        self.reference = build_repro_db(
            tables, **REFERENCE.engine_settings()
        )
        self.conn = build_sqlite_db(tables)

    def close(self) -> None:
        self.conn.close()
        self.subject.close()
        self.reference.close()
        self._dir.cleanup()

    def check(self, query: GenQuery) -> Optional[dict]:
        """None when every engine agrees; otherwise a dict describing
        the disagreement (used by :func:`run_seed` and the
        minimizers)."""
        sql, ordered = query.to_sql(), query.ordered
        order_by = query.order_by if ordered else None
        metrics = global_registry()
        metrics.counter("fuzz_queries_total").inc()
        answers = {"reference": _run(self.reference, sql, ordered)}
        try:
            answers["sqlite"] = (
                normalize_rows(self.conn.execute(sql).fetchall(), ordered),
                None,
            )
        except sqlite3.Error as exc:
            answers["sqlite"] = (None, f"{type(exc).__name__}: {exc}")
        if answers["reference"][0] is not None:
            metrics.counter("fuzz_rows_compared_total").inc(
                len(answers["reference"][0])
            )
        detail = _disagreement(answers, "reference", "sqlite", order_by)
        if detail is not None:
            ran = all(error is None for _rows, error in answers.values())
            return _failure("result" if ran else "error", detail, answers)
        for run in ("cold", "cached"):
            try:
                answers["subject"] = _run(self.subject, sql, ordered)
            except (ResourceGovernorError, InjectedFault):
                # An injected abort rolled the statement back; later
                # statements re-check the state it left.
                metrics.counter("fuzz_chaos_faults_total").inc()
                return None
            detail = _disagreement(
                answers, "subject", "reference", order_by
            )
            if detail is not None:
                return _failure("config", f"{run} run: {detail}", answers)
        if self.wal_path is not None:
            detail = self._recovery_disagreement()
            if detail is not None:
                return _failure("durability", detail, answers)
        return None

    def _recovery_disagreement(self) -> Optional[str]:
        """Recover a fresh database from the subject's WAL (snapshot
        plus log suffix) and compare full committed states."""
        from .crash import dump_state

        try:
            recovered = Database(
                wal_path=self.wal_path, workers=1, checkpoint_bytes=0,
                recovery=self.config.recovery, flight_dir=self._dir.name,
            )
        except ReproError as exc:
            return f"recovery failed: {type(exc).__name__}: {exc}"
        try:
            live, restored = dump_state(self.subject), dump_state(recovered)
        finally:
            recovered.close()
        if live == restored:
            return None
        return "state recovered from the WAL differs from the subject: " + (
            ", ".join(
                f"{name}: {len(restored.get(name, []))} vs "
                f"{len(live.get(name, []))} row(s)"
                for name in sorted(set(live) | set(restored))
                if live.get(name) != restored.get(name)
            )
        )


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


def _probe(
    tables: list[GenTable], query: GenQuery, config: FuzzConfig, seed: int
) -> Optional[dict]:
    """``query`` on freshly built engines."""
    oracle = DifferentialOracle(tables, config, seed)
    try:
        return oracle.check(query)
    finally:
        oracle.close()


def minimize_config(
    tables: list[GenTable],
    query: GenQuery,
    config: FuzzConfig,
    seed: int = 0,
) -> FuzzConfig:
    """Greedy shrink: keep resetting the first switch whose reference
    value still diverges, until none does — no single remaining switch
    can then be reset."""
    while True:
        for name in config.switches():
            candidate = replace(config, **{name: getattr(REFERENCE, name)})
            if _probe(tables, query, candidate, seed) is not None:
                config = candidate
                break
        else:
            return config


def minimize_data(
    tables: list[GenTable],
    query: GenQuery,
    config: FuzzConfig = REFERENCE,
    seed: int = 0,
) -> list[GenTable]:
    """Drop row chunks (halves, then quarters, ...) from each table
    while the divergence persists. Rebuilds every engine per probe."""
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
                if candidate[t_index].rows != rows and _probe(
                    candidate, query, config, seed
                ) is not None:
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
    queries_per_seed: int = DEFAULT_QUERIES_PER_SEED,
    minimize: bool = True,
    config: Optional[FuzzConfig] = None,
) -> list[Divergence]:
    """Run one seed's schema + queries under the seed's drawn
    configuration (or ``config``, forced); returns found divergences,
    each shrunk to its query, switches and data."""
    if config is None:
        config = draw_config(seed)
    generator = QueryGenerator(seed, schema_profile=config.schema)
    tables = generator.schema()
    oracle = DifferentialOracle(tables, config, seed)
    divergences = []
    try:
        for index in range(queries_per_seed):
            query = generator.query(tables)
            failure = oracle.check(query)
            if failure is None:
                continue
            small_tables, small_config = tables, config
            if minimize:
                query = minimize_query(oracle, query)
                small_config = minimize_config(tables, query, config, seed)
                small_tables = minimize_data(
                    tables, query, small_config, seed
                )
                failure = (
                    _probe(small_tables, query, small_config, seed)
                    or failure
                )
            global_registry().counter("fuzz_divergences_total").inc()
            divergences.append(
                Divergence(
                    seed=seed,
                    query_index=index,
                    kind=failure["kind"],
                    sql=query.to_sql(),
                    tables=small_tables,
                    detail=failure["detail"],
                    config=config,
                    switches=small_config.switches(),
                    rows=failure["rows"],
                )
            )
    finally:
        oracle.close()
    return divergences


def run_seeds(
    seeds: Iterable[int],
    queries_per_seed: int = DEFAULT_QUERIES_PER_SEED,
    minimize: bool = True,
) -> list[Divergence]:
    out = []
    for seed in seeds:
        out.extend(run_seed(seed, queries_per_seed, minimize))
    return out
