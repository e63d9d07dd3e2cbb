"""Materialised query results."""

from __future__ import annotations

from typing import Iterator, Optional

from ..exec.physical import OperatorStats
from ..plan.logical import PlanColumn
from ..storage.column import Column, ColumnBatch
from ..types import SQLType


class QueryResult:
    """The materialised outcome of one statement.

    Row-oriented access (``rows``, ``fetchone``, iteration) for
    convenience; column-oriented access (:meth:`column`) without leaving
    numpy for analytics pipelines.
    """

    def __init__(
        self,
        columns: list[str],
        types: list[SQLType],
        batch: Optional[ColumnBatch] = None,
        slots: Optional[list[str]] = None,
        rowcount: int = -1,
    ):
        self.columns = columns
        self.types = types
        self._batch = batch
        self._slots = slots or []
        #: For DML statements: number of affected rows; -1 for queries.
        self.rowcount = rowcount
        #: Operator-reported convergence telemetry, keyed by operator
        #: name (``kmeans``: per-iteration inertia and center shift,
        #: ``pagerank``: per-iteration L1 residual, ``naive_bayes``:
        #: per-class counts and priors). Empty for statements that ran
        #: no analytics operator.
        self.telemetry: dict[str, object] = {}
        self._rows: Optional[list[tuple]] = None

    @classmethod
    def from_batch(
        cls, batch: ColumnBatch, output: list[PlanColumn]
    ) -> "QueryResult":
        return cls(
            columns=[c.name for c in output],
            types=[c.sql_type for c in output],
            batch=batch,
            slots=[c.slot for c in output],
        )

    @classmethod
    def statement(cls, rowcount: int) -> "QueryResult":
        """A result for a statement that returns no rows."""
        return cls(columns=[], types=[], rowcount=rowcount)

    # -- row access ----------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            if self._batch is None:
                self._rows = []
            else:
                ordered = self._batch.project(self._slots)
                self._rows = list(ordered.rows())
        return self._rows

    def fetchall(self) -> list[tuple]:
        return list(self.rows)

    def fetchone(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        row = self.fetchone()
        if row is None or len(row) != 1 or len(self.rows) != 1:
            raise ValueError(
                "scalar() requires exactly one row and one column, got "
                f"{len(self.rows)} row(s) x {len(self.columns)} column(s)"
            )
        return row[0]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        if self._batch is not None:
            return len(self._batch)
        return max(self.rowcount, 0)

    def __repr__(self) -> str:
        return (
            f"QueryResult({len(self)} rows, columns={self.columns})"
        )

    # -- column access ---------------------------------------------------------

    def column(self, name: str) -> Column:
        """A result column by name (numpy-backed)."""
        if self._batch is None:
            raise KeyError(name)
        lowered = name.lower()
        for col_name, slot in zip(self.columns, self._slots):
            if col_name.lower() == lowered:
                return self._batch[slot]
        raise KeyError(name)

    def output_columns(self) -> list[Column]:
        """The result's columns in output order (numpy-backed; what
        INSERT ... SELECT and CREATE TABLE AS append)."""
        if self._batch is None:
            return []
        return [self._batch[slot] for slot in self._slots]

    def to_csv(self, path_or_buffer, delimiter: str = ",") -> int:
        """Write the result as CSV; returns the data-row count."""
        from .csv_io import result_to_csv

        return result_to_csv(self, path_or_buffer, delimiter)

    def to_dict(self) -> dict[str, list[object]]:
        """Column-name -> list-of-values (duplicate names keep the
        first occurrence)."""
        out: dict[str, list[object]] = {}
        for col_name, slot in zip(self.columns, self._slots):
            if col_name not in out and self._batch is not None:
                out[col_name] = self._batch[slot].to_pylist()
        return out


class AnalyzedQuery:
    """What :meth:`Database.explain_analyze` returns: the query's
    result plus the profiled physical-operator tree.

    ``root`` is the main plan's :class:`OperatorStats`; ``subplans``
    holds the stats trees of subquery plans built lazily during
    execution (scalar/IN/EXISTS subqueries), in build order.
    ``counters`` is this statement's delta of the hot-path cache
    counters — plan cache, expression-kernel cache, zone-map pruning,
    CSR cache — empty when none moved (docs/performance.md).
    ``governor`` is the statement's final resource-governor report:
    verdict, checkpoints passed, elapsed time, peak accounted operator
    bytes, and the limits in force (docs/robustness.md).
    ``minor_faults`` is the process's minor page faults while the
    statement ran — every thread's, the statement's own among them —
    or None where the host cannot count them (docs/observability.md).
    """

    def __init__(
        self,
        result: QueryResult,
        root: OperatorStats,
        subplans: list[OperatorStats],
        total_s: float,
        counters: Optional[dict] = None,
        governor: Optional[dict] = None,
        minor_faults: Optional[int] = None,
    ):
        self.result = result
        self.root = root
        self.subplans = subplans
        self.total_s = total_s
        self.counters: dict = counters or {}
        self.governor: dict = governor or {}
        self.minor_faults = minor_faults

    def operators(self) -> Iterator[OperatorStats]:
        """Every stats node of the main plan and all subplans."""
        yield from self.root.walk()
        for sub in self.subplans:
            yield from sub.walk()

    def find(self, prefix: str) -> Optional[OperatorStats]:
        """First operator (pre-order, main plan then subplans) whose
        label starts with ``prefix``."""
        for node in self.operators():
            if node.label.startswith(prefix):
                return node
        return None

    def top(self, n: int = 5) -> list[OperatorStats]:
        """The ``n`` most expensive operators (main plan and subplans)
        by exclusive time ``self_s``, most expensive first."""
        return sorted(
            self.operators(), key=lambda node: node.self_s,
            reverse=True,
        )[: max(n, 0)]

    def format(self) -> str:
        parts = [
            f"total time: {self.total_s * 1e3:.3f}ms, "
            f"{len(self.result)} row(s)",
            self.root.format(),
        ]
        for i, sub in enumerate(self.subplans):
            parts.append(f"subplan {i}:")
            parts.append(sub.format(indent=1))
        if self.counters:
            rendered = ", ".join(
                f"{name}={value:g}"
                for name, value in sorted(self.counters.items())
            )
            parts.append(f"hot path: {rendered}")
        if self.governor:
            gov = self.governor
            limits = []
            if gov.get("timeout_ms"):
                limits.append(f"timeout_ms={gov['timeout_ms']:g}")
            if gov.get("memory_budget_bytes"):
                limits.append(
                    f"budget_bytes={gov['memory_budget_bytes']}"
                )
            trailer = f", {', '.join(limits)}" if limits else ""
            parts.append(
                f"governor: verdict={gov.get('verdict', 'ok')}, "
                f"checkpoints={gov.get('checkpoints', 0)}, "
                f"peak_bytes={gov.get('peak_bytes', 0)}{trailer}"
            )
        if self.minor_faults is not None:
            parts.append(
                f"faults: minor={self.minor_faults} (process-wide)"
            )
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        n_ops = sum(1 for _ in self.operators())
        return (
            f"AnalyzedQuery({len(self.result)} rows, {n_ops} operators, "
            f"{self.total_s * 1e3:.3f}ms)"
        )
