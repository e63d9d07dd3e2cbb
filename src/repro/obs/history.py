"""The query history store: per-statement records that survive the
statement (docs/observability.md).

One :class:`QueryHistory` per :class:`~repro.api.database.Database`
(``db.history``). Every statement — successful or aborted — leaves one
:class:`QueryRecord` behind: the plan-cache fingerprint, SQL text, phase
timings from the tracer, per-operator *estimated vs observed*
cardinalities with their q-error, the governor outcome (``ok`` /
``timeout`` / ``cancelled`` / ``oom`` / ``injected_fault``), hot-path
cache flags, worker count, encoding mode, and peak accounted memory.

The store is always on, bounded (a ring plus a bounded per-fingerprint
index), and thread-safe (statements may finish on any thread). The
statement hot path only captures references (span, profiled stats,
governor scalars) — records materialize lazily on first read, keeping
the always-on cost to a few microseconds per statement
(``api.noop_stmt_us`` in ``BENCHMARK.json``). Three surfaces:

* ``db.history(n)`` — the most recent ``n`` records, oldest first;
* ``db.history.by_fingerprint(fp)`` — every retained record of one
  normalized statement, with its estimated-vs-observed cardinalities
  (:meth:`QueryHistory.observed_cardinalities` aggregates them);
* ``db.history.slow(n)`` — the slow-query log, fed by statements whose
  wall time passed the ``REPRO_SLOW_MS`` / ``Database(slow_ms=...)``
  threshold.

Records can optionally spill to a JSONL file (``Database(history=path)``
or ``REPRO_HISTORY=path``) so history survives the process: one JSON
document per line, append-only, written outside the store's lock.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional

#: Records retained in the ring (and per fingerprint) by default.
DEFAULT_CAPACITY = 512
DEFAULT_PER_FINGERPRINT = 32
#: Distinct fingerprints indexed before the least-recently-updated one
#: is evicted (bounds the index for fingerprint-churning workloads).
DEFAULT_FINGERPRINTS = 256


@dataclass(slots=True)
class QueryRecord:
    """One statement's afterlife: everything the history store keeps.

    ``operators`` is a list of per-operator dicts — ``{"op",
    "estimated_rows", "observed_rows", "q_error", "source"}`` in plan
    pre-order (main plan first, lazily-built subquery plans after) —
    present whenever the statement ran with operator profiling on.
    ``observed_rows`` is rows per opening of the operator: one inside
    an ITERATE step opened 45 times records its per-round cardinality.
    """

    sql: str
    fingerprint: Optional[str]
    started_at: float  # wall-clock epoch seconds
    duration_s: float
    phases: dict = field(default_factory=dict)
    rows: int = 0
    error: Optional[str] = None
    #: Governor outcome: ok / timeout / cancelled / oom / injected_fault.
    verdict: str = "ok"
    checkpoints: int = 0
    peak_bytes: int = 0
    operators: list = field(default_factory=list)
    #: Whether the statement was served from the plan cache.
    cache_hit: bool = False
    workers: int = 1
    encoding: str = "auto"
    #: Whether the statement crossed the slow-query threshold.
    slow: bool = False

    def to_dict(self) -> dict:
        return {
            "sql": self.sql,
            "fingerprint": self.fingerprint,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "phases": dict(self.phases),
            "rows": self.rows,
            "error": self.error,
            "verdict": self.verdict,
            "checkpoints": self.checkpoints,
            "peak_bytes": self.peak_bytes,
            "operators": list(self.operators),
            "cache_hit": self.cache_hit,
            "workers": self.workers,
            "encoding": self.encoding,
            "slow": self.slow,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryRecord":
        return cls(
            sql=payload.get("sql", ""),
            fingerprint=payload.get("fingerprint"),
            started_at=float(payload.get("started_at", 0.0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            phases=dict(payload.get("phases", {})),
            rows=int(payload.get("rows", 0)),
            error=payload.get("error"),
            verdict=payload.get("verdict", "ok"),
            checkpoints=int(payload.get("checkpoints", 0)),
            peak_bytes=int(payload.get("peak_bytes", 0)),
            operators=list(payload.get("operators", [])),
            cache_hit=bool(payload.get("cache_hit", False)),
            workers=int(payload.get("workers", 1)),
            encoding=payload.get("encoding", "auto"),
            slow=bool(payload.get("slow", False)),
        )

    @property
    def max_q_error(self) -> Optional[float]:
        """The worst per-operator q-error of this execution (None when
        no operator carried an estimate)."""
        worst = None
        for op in self.operators:
            q = op.get("q_error")
            if q is not None and (worst is None or q > worst):
                worst = q
        return worst

    def format(self) -> str:
        status = (
            f"ERROR[{self.verdict}]: {self.error}"
            if self.error
            else f"{self.rows} row(s)"
        )
        flags = []
        if self.cache_hit:
            flags.append("cached")
        if self.slow:
            flags.append("SLOW")
        tail = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"[{self.duration_s * 1e3:.3f}ms] {self.sql!r} — "
            f"{status}{tail}"
        )


def operator_observations(stats_roots) -> list[dict]:
    """Flatten profiled :class:`~repro.exec.physical.OperatorStats`
    trees into the per-operator observation rows a record stores."""
    out: list[dict] = []
    for root in stats_roots:
        for node in root.walk():
            observation = {
                "op": node.label,
                "estimated_rows": node.estimated_rows,
                # Per opening, not the sum over a loop's rounds: this
                # is what estimates are compared with.
                "observed_rows": node.rows_per_call,
                "q_error": node.q_error,
            }
            source = getattr(node, "estimate_source", None)
            if source is not None:
                observation["source"] = source
            out.append(observation)
    return out


class _LazyRecord:
    """A deferred :class:`QueryRecord`: the statement hot path stores
    the builder closure (references to the finished span, profiled
    stats, governor scalars) and the record materializes on first read.
    Keeps the always-on recording cost to a few microseconds per
    statement — readers, not statements, pay for dict assembly."""

    __slots__ = ("_thunk", "_record", "slow")

    def __init__(self, thunk, slow: bool):
        self._thunk = thunk
        self._record: Optional[QueryRecord] = None
        self.slow = slow

    def get(self) -> QueryRecord:
        record = self._record
        if record is None:
            try:
                record = self._thunk()
            except Exception as exc:  # noqa: BLE001 — reads never raise
                record = QueryRecord(
                    sql="<history record failed>",
                    fingerprint=None,
                    started_at=0.0,
                    duration_s=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if self.slow:
                record.slow = True
            self._record = record
        return record


class QueryHistory:
    """Bounded, thread-safe per-session statement history.

    Callable for convenience: ``db.history(20)`` is
    ``db.history.recent(20)``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        per_fingerprint: int = DEFAULT_PER_FINGERPRINT,
        max_fingerprints: int = DEFAULT_FINGERPRINTS,
        spill_path: Optional[str] = None,
        slow_ms: Optional[float] = None,
        metrics=None,
    ):
        self.capacity = max(int(capacity), 1)
        self.per_fingerprint = max(int(per_fingerprint), 1)
        self.max_fingerprints = max(int(max_fingerprints), 1)
        #: JSONL spill target (None = memory only).
        self.spill_path = spill_path
        #: Slow-query threshold in milliseconds (None = disabled).
        self.slow_ms = slow_ms
        self._metrics = metrics
        # Counter children resolved once — record() runs after every
        # statement, so per-record label lookups would be pure waste.
        self._records_counter = (
            metrics.counter("history_records_total")
            if metrics is not None
            else None
        )
        self._slow_counter = (
            metrics.counter("slow_statements_total")
            if metrics is not None
            else None
        )
        self._lock = threading.Lock()
        self._ring: deque[QueryRecord] = deque(maxlen=self.capacity)
        self._by_fp: "OrderedDict[str, deque[QueryRecord]]" = OrderedDict()
        self._slow: deque[QueryRecord] = deque(maxlen=self.capacity)
        self._spill_lock = threading.Lock()
        self._spill_error: Optional[str] = None

    def __call__(self, n: int = 20) -> list[QueryRecord]:
        return self.recent(n)

    # -- recording ---------------------------------------------------------

    def record(self, record: QueryRecord) -> QueryRecord:
        """Retain one finished statement (called by the session after
        every ``execute``/``explain_analyze``, success or abort)."""
        if (
            self.slow_ms is not None
            and record.duration_s * 1e3 >= self.slow_ms
        ):
            record.slow = True
        self._store(record, record.fingerprint, record.slow)
        if self.spill_path is not None:
            self._spill(record)
        return record

    def record_deferred(
        self,
        thunk,
        fingerprint: Optional[str] = None,
        duration_s: float = 0.0,
    ) -> None:
        """Retain one finished statement *lazily*: ``thunk`` builds the
        :class:`QueryRecord` on first read. This is the statement hot
        path — the session calls it after every execute, so it only
        does ring/index bookkeeping; dict assembly is deferred to the
        reader. With a JSONL spill configured the record is needed now,
        so it materializes eagerly."""
        slow = (
            self.slow_ms is not None
            and duration_s * 1e3 >= self.slow_ms
        )
        if self.spill_path is not None:
            record = thunk()
            if slow:
                record.slow = True
            self._store(record, fingerprint, slow)
            self._spill(record)
            return
        self._store(_LazyRecord(thunk, slow), fingerprint, slow)

    def _store(self, item, fingerprint: Optional[str], slow: bool) -> None:
        with self._lock:
            self._ring.append(item)
            if fingerprint is not None:
                bucket = self._by_fp.get(fingerprint)
                if bucket is None:
                    bucket = deque(maxlen=self.per_fingerprint)
                    self._by_fp[fingerprint] = bucket
                bucket.append(item)
                self._by_fp.move_to_end(fingerprint)
                while len(self._by_fp) > self.max_fingerprints:
                    self._by_fp.popitem(last=False)
            if slow:
                self._slow.append(item)
        if self._records_counter is not None:
            self._records_counter.inc()
            if slow:
                self._slow_counter.inc()

    @staticmethod
    def _resolve(item) -> QueryRecord:
        return item.get() if type(item) is _LazyRecord else item

    def _spill(self, record: QueryRecord) -> None:
        """Append one JSONL line; spill failures disable further spill
        (recorded in ``spill_error``) instead of failing statements."""
        if self._spill_error is not None:
            return
        try:
            line = json.dumps(record.to_dict(), sort_keys=True)
            with self._spill_lock:
                with open(self.spill_path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
        except OSError as exc:
            self._spill_error = f"{type(exc).__name__}: {exc}"

    @property
    def spill_error(self) -> Optional[str]:
        """Why JSONL spill stopped (None while healthy)."""
        return self._spill_error

    # -- reading -----------------------------------------------------------

    def recent(self, n: int = 20) -> list[QueryRecord]:
        """The most recent ``n`` records, oldest first."""
        if n <= 0:
            return []
        with self._lock:
            items = list(self._ring)
        return [self._resolve(item) for item in items[-n:]]

    def by_fingerprint(self, fingerprint: str) -> list[QueryRecord]:
        """Every retained record of one normalized statement, oldest
        first. Each record carries per-operator estimated vs observed
        cardinalities for the plan the fingerprint keys in the plan
        cache."""
        with self._lock:
            items = list(self._by_fp.get(fingerprint) or ())
        return [self._resolve(item) for item in items]

    def slow(self, n: int = 20) -> list[QueryRecord]:
        """The most recent ``n`` slow statements, oldest first (empty
        while no threshold is configured)."""
        if n <= 0:
            return []
        with self._lock:
            items = list(self._slow)
        return [self._resolve(item) for item in items[-n:]]

    def fingerprints(self) -> list[str]:
        """Indexed fingerprints, least-recently-updated first."""
        with self._lock:
            return list(self._by_fp)

    def observed_cardinalities(self, fingerprint: str) -> dict:
        """Estimated vs observed rows of one fingerprint: per-operator
        label -> ``{"mean_rows", "last_rows", "estimated_rows",
        "mean_q_error", "executions"}`` over every retained record that
        profiled its operators. The optimizer does not read it: it is
        the estimator's report card, not an input."""
        totals: dict[str, dict] = {}
        for record in self.by_fingerprint(fingerprint):
            for op in record.operators:
                label = op["op"]
                slot = totals.setdefault(
                    label,
                    {
                        "rows_sum": 0.0,
                        "q_sum": 0.0,
                        "q_n": 0,
                        "executions": 0,
                        "last_rows": 0,
                        "estimated_rows": None,
                    },
                )
                slot["executions"] += 1
                slot["rows_sum"] += float(op.get("observed_rows", 0))
                slot["last_rows"] = op.get("observed_rows", 0)
                if op.get("estimated_rows") is not None:
                    slot["estimated_rows"] = op["estimated_rows"]
                if op.get("q_error") is not None:
                    slot["q_sum"] += float(op["q_error"])
                    slot["q_n"] += 1
        out = {}
        for label, slot in totals.items():
            executions = slot["executions"]
            out[label] = {
                "mean_rows": slot["rows_sum"] / executions,
                "last_rows": slot["last_rows"],
                "estimated_rows": slot["estimated_rows"],
                "mean_q_error": (
                    slot["q_sum"] / slot["q_n"] if slot["q_n"] else None
                ),
                "executions": executions,
            }
        return out

    def tail_dicts(self, n: int = 20) -> list[dict]:
        """The most recent ``n`` records as JSON-safe dicts (flight
        recorder bundles embed this)."""
        return [record.to_dict() for record in self.recent(n)]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._by_fp.clear()
            self._slow.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def load_jsonl(path: str) -> list[QueryRecord]:
    """Read a JSONL spill file back into records (post-mortem use:
    ``QueryHistory`` itself never reads the file)."""
    records: list[QueryRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            records.append(QueryRecord.from_dict(json.loads(line)))
    return records


def record_from_span(
    span,
    *,
    fingerprint: Optional[str],
    started_at: Optional[float] = None,
    governor: Optional[dict] = None,
    operators: Optional[list] = None,
    cache_hit: bool = False,
    workers: int = 1,
    encoding: str = "auto",
    extra_phases: Optional[dict] = None,
) -> QueryRecord:
    """Assemble a :class:`QueryRecord` from a completed ``statement``
    span plus the statement's governor report and profiled operators.

    ``extra_phases`` merges caller-supplied timings (e.g. the server's
    admission-queue wait) into the span-derived phase map."""
    phases: dict[str, float] = {}
    for child in span.children:
        phases[child.name] = phases.get(child.name, 0.0) + child.duration_s
    for name, seconds in (extra_phases or {}).items():
        phases[name] = phases.get(name, 0.0) + float(seconds)
    governor = governor or {}
    return QueryRecord(
        sql=span.attributes.get("sql", ""),
        fingerprint=fingerprint,
        started_at=(
            started_at if started_at is not None else time.time()
        ),
        duration_s=span.duration_s,
        phases=phases,
        rows=int(span.attributes.get("rows", 0)),
        error=span.error,
        verdict=governor.get("verdict", "ok"),
        checkpoints=int(governor.get("checkpoints", 0)),
        peak_bytes=int(governor.get("peak_bytes", 0)),
        operators=operators or [],
        cache_hit=cache_hit,
        workers=workers,
        encoding=encoding,
    )
