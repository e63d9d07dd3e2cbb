"""Cardinality estimation.

Estimates drive join order and build sides. Analytics operators supply
their own contracts through the operator registry (section 4.3: "the
query optimizer knows their exact properties"); the generic ITERATE
construct, by contrast, admits only coarse heuristics — the difficulty
the paper discusses in section 5.2.

Two sources feed an estimate, stronger first:

* **stats** — table statistics (:mod:`repro.plan.stats`): dictionary
  NDV for ``=`` / ``IN`` selectivity, equi-join keys and GROUP BY keys,
  column min/max for ranges, null counts for ``IS [NOT] NULL``;
* **static** — the classic constant heuristics below.

:meth:`~repro.plan.logical.LogicalPlan.estimated` reads a node's
estimate and which source actually influenced it; ``explain`` /
``explain_analyze`` surface the latter as the estimate's provenance.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Callable, Optional

from ..expr import bound as b
from . import logical as lp
from .stats import ColumnStats, TableStatistics

#: Default selectivities per predicate shape.
EQUALITY_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
DEFAULT_SELECTIVITY = 0.25
#: Group-count heuristic: |groups| ~= |input| ** GROUP_EXPONENT.
GROUP_EXPONENT = 0.75

_log = logging.getLogger(__name__)

#: Tables already warned about (once per process, not once per query).
_warned_scan_tables: set[str] = set()

_RANGE_OPS = ("<", "<=", ">", ">=")
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class CardinalityEstimator:
    """Estimates output rows for every plan node.

    ``row_count_of`` maps a base-table name to its current row count;
    ``analytics`` is the operator registry (may be None). ``stats`` is
    an optional :class:`~repro.plan.stats.TableStatistics` provider.
    """

    def __init__(
        self,
        row_count_of: Callable[[str], int],
        analytics=None,
        stats: Optional[TableStatistics] = None,
        metrics=None,
    ):
        self._row_count_of = row_count_of
        self._analytics = analytics
        self._stats = stats
        self._metrics = metrics
        #: Whether statistics shaped the estimate being computed.
        self._used_stats = False
        #: The slot map of :meth:`sources_of` (None: walk the subtree).
        self._sources: Optional[dict[str, tuple[str, str]]] = None
        #: (table, column) -> statistics, as asked of ``stats`` once.
        self._columns: dict[tuple[str, str], Optional[ColumnStats]] = {}

    def estimate(self, plan: lp.LogicalPlan) -> float:
        """Estimated output rows of ``plan``, kept on the node
        (:attr:`~repro.plan.logical.LogicalPlan._estimate`) with
        whether statistics shaped it anywhere in its subtree: plans do
        not change once built, so each node is estimated once, and the
        planner stamps the numbers it chose the plan with onto every
        node (:meth:`stamp`) for execution and EXPLAIN to read."""
        known = plan._estimate
        if known is None:
            outer, self._used_stats = self._used_stats, False
            try:
                known = (max(self._estimate_node(plan), 0.0),
                         self._used_stats)
            finally:
                self._used_stats = outer
            plan._estimate = known
        if known[1]:
            self._used_stats = True
        return known[0]

    def stamp(self, plan: lp.LogicalPlan) -> None:
        """Estimate every node of ``plan`` — children, loop bodies and
        the plans of subqueries inside expressions — so each carries its
        estimate. An estimate that fails leaves its node unstamped
        (estimates are best-effort)."""
        for node in lp.walk_plan(plan):
            try:
                self.estimate(node)
            except Exception:  # noqa: BLE001 — estimates are best-effort
                pass

    @contextmanager
    def sources_of(self, plan: lp.LogicalPlan):
        """Within the block, estimates read ``plan``'s slot map: slots
        are statement-unique, so it agrees with every subtree's own."""
        outer, self._sources = self._sources, self._slot_sources(plan)
        try:
            yield
        finally:
            self._sources = outer

    def _estimate_node(self, plan: lp.LogicalPlan) -> float:
        method = getattr(
            self, f"_estimate_{type(plan).__name__}", None
        )
        if method is not None:
            return method(plan)
        children = plan.children()
        if children:
            return self.estimate(children[0])
        return 1.0

    # -- leaves -----------------------------------------------------------

    def _estimate_LogicalScan(self, plan: lp.LogicalScan) -> float:
        try:
            return float(self._row_count_of(plan.table_name))
        except Exception:  # noqa: BLE001 - stats are best-effort
            self._record_scan_miss(plan.table_name)
            return 1000.0

    def _record_scan_miss(self, table: str) -> None:
        """An estimator blind spot: no row count for ``table``. Counted
        and logged (once per table) instead of silently guessing."""
        if self._metrics is not None:
            try:
                self._metrics.counter(
                    "cardinality_stats_miss_total"
                ).inc()
            except Exception:  # noqa: BLE001 — metrics are best-effort
                pass
        if table not in _warned_scan_tables:
            _warned_scan_tables.add(table)
            _log.warning(
                "no row count available for table %r; "
                "estimating 1000 rows", table,
            )

    def _estimate_LogicalValues(self, plan: lp.LogicalValues) -> float:
        return float(len(plan.rows))

    def _estimate_LogicalWorkingTableRef(self, plan) -> float:
        # The working relation's size is data-dependent; a neutral guess.
        return 1000.0

    # -- unary -------------------------------------------------------------

    def _estimate_LogicalFilter(self, plan: lp.LogicalFilter) -> float:
        child = self.estimate(plan.child)
        slot_map = self._slot_sources(plan.child)
        return child * self.predicate_selectivity(
            plan.predicate, slot_map
        )

    def predicate_selectivity(
        self,
        predicate: b.BoundExpr,
        slot_map: Optional[dict[str, tuple[str, str]]] = None,
    ) -> float:
        """Selectivity of a predicate tree: real statistics where the
        leaf shape allows it, heuristic constants elsewhere.

        ``slot_map`` maps column slots to their originating
        ``(table, column)`` pair; without it (or without a statistics
        provider) the method degrades to the static heuristics.
        """
        from_stats = self._stats_selectivity(predicate, slot_map)
        if from_stats is not None:
            self._used_stats = True
            return from_stats
        if isinstance(predicate, b.BoundBinary):
            if predicate.op == "and":
                return self.predicate_selectivity(
                    predicate.left, slot_map
                ) * self.predicate_selectivity(predicate.right, slot_map)
            if predicate.op == "or":
                left = self.predicate_selectivity(
                    predicate.left, slot_map
                )
                right = self.predicate_selectivity(
                    predicate.right, slot_map
                )
                return min(1.0, left + right - left * right)
            if predicate.op == "=":
                return EQUALITY_SELECTIVITY
            if predicate.op in _RANGE_OPS:
                return RANGE_SELECTIVITY
            if predicate.op == "<>":
                return 1.0 - EQUALITY_SELECTIVITY
        if isinstance(predicate, b.BoundUnary) and predicate.op == "not":
            return 1.0 - self.predicate_selectivity(
                predicate.operand, slot_map
            )
        if isinstance(predicate, b.BoundIsNull):
            return 0.05 if not predicate.negated else 0.95
        if isinstance(predicate, b.BoundInList):
            return min(
                1.0, EQUALITY_SELECTIVITY * max(len(predicate.items), 1)
            )
        return DEFAULT_SELECTIVITY

    # -- statistics-driven selectivity -------------------------------------

    def _slot_sources(
        self, plan: lp.LogicalPlan
    ) -> dict[str, tuple[str, str]]:
        """slot -> (table, column) for every base-table column visible
        beneath ``plan`` (slots are statement-unique, so collecting from
        all scans in the subtree is unambiguous)."""
        if self._sources is not None:
            return self._sources
        mapping: dict[str, tuple[str, str]] = {}
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, lp.LogicalScan):
                for col in node.output:
                    mapping[col.slot] = (node.table_name, col.name)
            stack.extend(node.children())
        return mapping

    def _column_stats(
        self,
        expr: b.BoundExpr,
        slot_map: Optional[dict[str, tuple[str, str]]],
    ) -> Optional[ColumnStats]:
        if (
            self._stats is None
            or not slot_map
            or not isinstance(expr, b.BoundColumnRef)
        ):
            return None
        source = slot_map.get(expr.slot)
        if source is None:
            return None
        if source not in self._columns:
            self._columns[source] = self._stats.column_stats(*source)
        return self._columns[source]

    def _stats_selectivity(
        self,
        predicate: b.BoundExpr,
        slot_map: Optional[dict[str, tuple[str, str]]],
    ) -> Optional[float]:
        """Statistics-backed selectivity for the leaf shapes that allow
        it; None means "no statistics apply, use the heuristics"."""
        if self._stats is None or not slot_map:
            return None
        if isinstance(predicate, b.BoundIsNull):
            stats = self._column_stats(predicate.operand, slot_map)
            if stats is None:
                return None
            null_fraction = min(max(stats.null_fraction, 0.0), 1.0)
            return (
                1.0 - null_fraction if predicate.negated else null_fraction
            )
        if isinstance(predicate, b.BoundInList):
            stats = self._column_stats(predicate.operand, slot_map)
            if stats is None or not stats.ndv:
                return None
            matched = float(max(len(predicate.items), 1))
            valid = 1.0 - stats.null_fraction
            return min(1.0, matched / stats.ndv) * valid
        if not isinstance(predicate, b.BoundBinary):
            return None
        op, column, constant = self._comparison_shape(predicate)
        if op is None:
            return None
        stats = self._column_stats(column, slot_map)
        if stats is None:
            return None
        valid = 1.0 - min(max(stats.null_fraction, 0.0), 1.0)
        if op in ("=", "<>"):
            if not stats.ndv:
                return None
            equality = min(1.0, 1.0 / stats.ndv) * valid
            value = _literal_number(constant)
            if value is not None and stats.value_in_range(value) is False:
                equality = 0.0
            return equality if op == "=" else max(valid - equality, 0.0)
        if op in _RANGE_OPS:
            value = _literal_number(constant)
            if (
                value is None
                or stats.min_value is None
                or stats.max_value is None
            ):
                return None
            span = stats.max_value - stats.min_value
            if span <= 0.0:
                holds = _op_holds(stats.min_value, op, value)
                return valid if holds else 0.0
            fraction = (value - stats.min_value) / span
            fraction = min(max(fraction, 0.0), 1.0)
            if op in (">", ">="):
                fraction = 1.0 - fraction
            return fraction * valid
        return None

    @staticmethod
    def _comparison_shape(predicate: b.BoundBinary):
        """Normalise ``col <op> const`` / ``const <op> col`` to
        ``(op, column_ref, const_expr)``; (None, None, None) otherwise."""
        op = predicate.op
        if op not in ("=", "<>") and op not in _RANGE_OPS:
            return None, None, None
        left, right = predicate.left, predicate.right
        if isinstance(left, b.BoundColumnRef) and isinstance(
            right, (b.BoundLiteral, b.BoundParam)
        ):
            return op, left, right
        if isinstance(right, b.BoundColumnRef) and isinstance(
            left, (b.BoundLiteral, b.BoundParam)
        ):
            return _FLIPPED.get(op, op), right, left
        return None, None, None

    def _estimate_LogicalProject(self, plan: lp.LogicalProject) -> float:
        return self.estimate(plan.child)

    def _estimate_LogicalAggregate(
        self, plan: lp.LogicalAggregate
    ) -> float:
        """The group keys' NDVs multiplied, capped by the input."""
        child = self.estimate(plan.child)
        if not plan.group_exprs:
            return 1.0
        groups = self._ndv(plan.group_exprs, self._slot_sources(plan.child))
        if groups is None:
            return max(1.0, child**GROUP_EXPONENT)
        return max(1.0, min(groups, child))

    def _estimate_LogicalSort(self, plan: lp.LogicalSort) -> float:
        return self.estimate(plan.child)

    def _estimate_LogicalLimit(self, plan: lp.LogicalLimit) -> float:
        child = self.estimate(plan.child)
        if plan.limit is None:
            return max(child - plan.offset, 0.0)
        return min(child, float(plan.limit))

    def _estimate_LogicalDistinct(self, plan: lp.LogicalDistinct) -> float:
        return max(1.0, self.estimate(plan.child) * 0.5)

    # -- binary -------------------------------------------------------------

    def _estimate_LogicalJoin(self, plan: lp.LogicalJoin) -> float:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        if plan.kind == "cross":
            return left * right
        estimate = self.join_rows(
            left, right, plan.equi_keys, plan.residual,
            self._slot_sources(plan),
        )
        if plan.kind == "left":
            estimate = max(estimate, left)
        return estimate

    def join_rows(
        self, left: float, right: float, keys, residual, slot_map=None
    ) -> float:
        """Rows of an inner join (a cross product with no condition).
        Equi-``keys`` keep |L|·|R| / max(ndv(L.k), ndv(R.k)), a side's
        key NDV capped by its rows; with no NDV, the larger side cut by
        the smaller (key) side's filters. ``slot_map`` defaults to
        :meth:`sources_of`'s, so a candidate is costed unbuilt."""
        if slot_map is None:
            slot_map = self._sources
        rows = left * right
        if keys:
            left_keys, right_keys = zip(*keys)
            left_ndv = self._ndv(left_keys, slot_map)
            right_ndv = self._ndv(right_keys, slot_map)
            if left_ndv is not None or right_ndv is not None:
                rows /= max(
                    min(left_ndv or 0.0, max(left, 1.0)),
                    min(right_ndv or 0.0, max(right, 1.0)),
                )
            else:
                small, key = (left, left_keys[0]) if left <= right else (
                    right, right_keys[0]
                )
                stats = self._column_stats(key, slot_map)
                rows = max(left, right) * (
                    min(small / stats.row_count, 1.0)
                    if stats is not None and stats.row_count else 1.0
                )
        elif residual is not None:
            rows *= DEFAULT_SELECTIVITY
        if residual is not None:
            rows *= self.predicate_selectivity(residual, slot_map)
        return rows

    def _ndv(self, exprs, slot_map) -> Optional[float]:
        """The columns' NDVs multiplied; None unless all are known."""
        ndv = 1.0
        for expr in exprs:
            stats = self._column_stats(expr, slot_map)
            if stats is None or not stats.ndv:
                return None
            ndv *= stats.ndv
        self._used_stats = True
        return ndv

    def _estimate_LogicalSetOp(self, plan: lp.LogicalSetOp) -> float:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        if plan.op == "union_all":
            return left + right
        if plan.op == "union":
            return max(left, right)
        if plan.op == "intersect":
            return min(left, right) * 0.5
        return max(left * 0.5, 1.0)  # except

    # -- iterative & analytics -------------------------------------------------

    def _estimate_LogicalIterate(self, plan: lp.LogicalIterate) -> float:
        # Non-appending: the result has the working relation's size;
        # best guess is the init query's size (k-Means-style workloads
        # keep it constant — section 5.2).
        return self.estimate(plan.init)

    def _estimate_LogicalRecursiveCTE(
        self, plan: lp.LogicalRecursiveCTE
    ) -> float:
        # Appending: grows with the (unknown) iteration count.
        return self.estimate(plan.init) * 10.0

    def _estimate_LogicalTableFunction(
        self, plan: lp.LogicalTableFunction
    ) -> float:
        inputs = [self.estimate(child) for child in plan.inputs]
        if self._analytics is not None:
            descriptor = self._analytics.lookup(plan.name)
            if descriptor is not None:
                return descriptor.estimate_rows(plan, inputs)
        return inputs[0] if inputs else 1.0


def _literal_number(expr) -> Optional[float]:
    if not isinstance(expr, b.BoundLiteral):
        return None
    value = expr.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _op_holds(x: float, op: str, value: float) -> bool:
    if op == "<":
        return x < value
    if op == "<=":
        return x <= value
    if op == ">":
        return x > value
    return x >= value
