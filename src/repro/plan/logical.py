"""Logical plan operators.

A logical plan is a tree of operators, each publishing an ordered output
schema of :class:`PlanColumn` (display name + unique slot + type). Bound
expressions inside operators reference child columns by slot.

Relational and analytical operators live in one plan space — the paper's
Figure 3: the optimizer inspects both kinds, and analytics operators
declare their cardinality contracts so the rest of the plan optimises
normally around them (section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, Mapping, Optional

from ..expr.bound import (
    BoundExpr,
    BoundLambda,
    BoundParam,
    BoundSubquery,
    BoundUDF,
)
from ..types import SQLType

#: Default infinite-loop guard for ITERATE / WITH RECURSIVE (section 5.1).
DEFAULT_MAX_ITERATIONS = 10_000

#: ``metadata`` of a dataclass field that holds column slots (one, or a
#: list): :func:`node_signature` keys them by position, not by name.
SLOTS = {"slots": True}


@dataclass(frozen=True)
class PlanColumn:
    """One output column of a plan node."""

    name: str  # user-visible name
    slot: str  # unique batch key
    sql_type: SQLType


class LogicalPlan:
    """Base class for logical operators."""

    output: list[PlanColumn]

    def children(self) -> list["LogicalPlan"]:
        return []

    def replace_children(
        self, new_children: list["LogicalPlan"]
    ) -> "LogicalPlan":
        """A copy of this node with new children (rewrite support)."""
        raise NotImplementedError

    def output_slots(self) -> list[str]:
        return [c.slot for c in self.output]

    def column_types(self) -> dict[str, SQLType]:
        return {c.slot: c.sql_type for c in self.output}

    def explain(self, indent: int = 0) -> str:
        """A human-readable plan tree (EXPLAIN output)."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class LogicalScan(LogicalPlan):
    """Full scan of a base table (at the query's snapshot)."""

    table_name: str
    output: list[PlanColumn]

    def replace_children(self, new_children):
        assert not new_children
        return self

    def describe(self) -> str:
        return f"Scan {self.table_name}"


@dataclass
class LogicalValues(LogicalPlan):
    """A literal row set (VALUES lists, constant SELECTs).

    Rows hold bound expressions (usually literals, but constant function
    calls and subqueries are allowed); ``rows == [[]]`` with empty output
    encodes the one conceptual row of a FROM-less SELECT.
    """

    rows: list[list[BoundExpr]]
    output: list[PlanColumn]

    def replace_children(self, new_children):
        assert not new_children
        return self

    def describe(self) -> str:
        return f"Values ({len(self.rows)} rows)"


@dataclass
class LogicalFilter(LogicalPlan):
    child: LogicalPlan
    predicate: BoundExpr

    @property
    def output(self) -> list[PlanColumn]:  # type: ignore[override]
        return self.child.output

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalFilter(child, self.predicate)

    def describe(self) -> str:
        return "Filter"


@dataclass
class LogicalProject(LogicalPlan):
    """Computes expressions; output slot i is exprs[i] evaluated."""

    child: LogicalPlan
    exprs: list[BoundExpr]
    output: list[PlanColumn]

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalProject(child, self.exprs, self.output)

    def describe(self) -> str:
        names = ", ".join(c.name for c in self.output)
        return f"Project [{names}]"


@dataclass
class LogicalJoin(LogicalPlan):
    """kind: inner | left | cross. ``equi_keys`` holds (left_expr,
    right_expr) pairs extracted for hash joins; ``residual`` is any
    non-equi remainder evaluated on candidate pairs."""

    kind: str
    left: LogicalPlan
    right: LogicalPlan
    equi_keys: list[tuple[BoundExpr, BoundExpr]] = field(default_factory=list)
    residual: Optional[BoundExpr] = None
    output: list[PlanColumn] = field(default_factory=list)

    def children(self):
        return [self.left, self.right]

    def replace_children(self, new_children):
        left, right = new_children
        return LogicalJoin(
            self.kind, left, right, self.equi_keys, self.residual,
            self.output,
        )

    def describe(self) -> str:
        method = "HashJoin" if self.equi_keys else "NLJoin"
        return f"{method} ({self.kind})"


@dataclass
class AggregateSpec:
    """One aggregate computation in a LogicalAggregate."""

    slot: str = field(metadata=SLOTS)
    func_name: str  # registry name; "count_star" for COUNT(*)
    arg: Optional[BoundExpr]
    distinct: bool = False
    sql_type: SQLType = None  # type: ignore[assignment]


@dataclass
class LogicalAggregate(LogicalPlan):
    """Hash aggregation: group-by expressions + aggregate computations.

    A pipeline breaker — like the analytics operators, it must consume
    all input before producing output (paper section 3).
    """

    child: LogicalPlan
    group_exprs: list[BoundExpr]
    group_slots: list[str] = field(metadata=SLOTS)
    aggregates: list[AggregateSpec]
    output: list[PlanColumn]

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalAggregate(
            child, self.group_exprs, self.group_slots, self.aggregates,
            self.output,
        )

    def describe(self) -> str:
        aggs = ", ".join(a.func_name for a in self.aggregates)
        return f"Aggregate [groups={len(self.group_exprs)}; {aggs}]"


@dataclass
class SortKey:
    expr: BoundExpr
    descending: bool = False
    nulls_last: Optional[bool] = None


@dataclass
class LogicalSort(LogicalPlan):
    child: LogicalPlan
    keys: list[SortKey]

    @property
    def output(self) -> list[PlanColumn]:  # type: ignore[override]
        return self.child.output

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalSort(child, self.keys)

    def describe(self) -> str:
        return f"Sort ({len(self.keys)} keys)"


@dataclass
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    limit: Optional[int]
    offset: int = 0

    @property
    def output(self) -> list[PlanColumn]:  # type: ignore[override]
        return self.child.output

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalLimit(child, self.limit, self.offset)

    def describe(self) -> str:
        return f"Limit {self.limit} offset {self.offset}"


@dataclass
class LogicalDistinct(LogicalPlan):
    child: LogicalPlan

    @property
    def output(self) -> list[PlanColumn]:  # type: ignore[override]
        return self.child.output

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalDistinct(child)


@dataclass
class LogicalSetOp(LogicalPlan):
    """union | union_all | intersect | except (left/right positionally
    aligned; output adopts left's names with fresh slots)."""

    op: str
    left: LogicalPlan
    right: LogicalPlan
    output: list[PlanColumn]

    def children(self):
        return [self.left, self.right]

    def replace_children(self, new_children):
        left, right = new_children
        return LogicalSetOp(self.op, left, right, self.output)

    def describe(self) -> str:
        return f"SetOp {self.op}"


@dataclass
class LogicalWorkingTableRef(LogicalPlan):
    """Reads the current working relation of an enclosing iterative
    operator (the ``iterate`` relation of ITERATE, or the recursive CTE's
    previous-round rows)."""

    key: str
    output: list[PlanColumn]

    def replace_children(self, new_children):
        assert not new_children
        return self

    def describe(self) -> str:
        return f"WorkingTable {self.key}"


@dataclass
class LogicalRecursiveCTE(LogicalPlan):
    """The SQL:1999 appending recursion (WITH RECURSIVE): the result grows
    monotonically; each round the step sees only the previous round's rows;
    terminates when a round adds nothing (fixpoint). The paper's HyPer SQL
    baseline (sections 5.1, 8.4.1)."""

    key: str
    init: LogicalPlan
    step: LogicalPlan
    union_all: bool
    output: list[PlanColumn]
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def children(self):
        return [self.init, self.step]

    def replace_children(self, new_children):
        init, step = new_children
        return LogicalRecursiveCTE(
            self.key, init, step, self.union_all, self.output,
            self.max_iterations,
        )

    def describe(self) -> str:
        return f"RecursiveCTE {self.key}"


@dataclass
class LogicalIterate(LogicalPlan):
    """The paper's non-appending ITERATE construct (section 5.1).

    Each round *replaces* the working relation with the step's result;
    only the current and previous rounds are ever live (2n tuples). The
    stop plan is evaluated after each round; iteration ends when it
    produces at least one row whose first column is true (or any row, if
    the first column is not boolean)."""

    key: str
    init: LogicalPlan
    step: LogicalPlan
    stop: LogicalPlan
    output: list[PlanColumn]
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def children(self):
        return [self.init, self.step, self.stop]

    def replace_children(self, new_children):
        init, step, stop = new_children
        return LogicalIterate(
            self.key, init, step, stop, self.output, self.max_iterations
        )

    def describe(self) -> str:
        return "Iterate"


@dataclass
class WindowSpec:
    """One window computation: function, arguments, and its window."""

    slot: str = field(metadata=SLOTS)
    func_name: str
    args: list[BoundExpr]
    partition_by: list[BoundExpr]
    order_by: list[SortKey]
    sql_type: SQLType


@dataclass
class LogicalWindow(LogicalPlan):
    """Window computations over the child: the output carries every
    child column plus one column per spec. Original row order is
    preserved (windows sort internally and unsort)."""

    child: LogicalPlan
    specs: list[WindowSpec]
    output: list[PlanColumn]

    def children(self):
        return [self.child]

    def replace_children(self, new_children):
        (child,) = new_children
        return LogicalWindow(child, self.specs, self.output)

    def describe(self) -> str:
        names = ", ".join(s.func_name for s in self.specs)
        return f"Window [{names}]"


@dataclass
class LogicalTableFunction(LogicalPlan):
    """A layer-4 analytics operator (or table UDF) in the plan.

    ``inputs`` are full subplans (arbitrary pre-processing, Listing 2);
    ``lambdas`` are the operator's bound variation points (section 7);
    ``params`` are constant scalars (k, damping factor, max iterations).
    The node's cardinality contract comes from the operator registry.
    """

    name: str
    inputs: list[LogicalPlan]
    lambdas: dict[str, BoundLambda]
    params: list[object]
    output: list[PlanColumn]

    def children(self):
        return list(self.inputs)

    def replace_children(self, new_children):
        return LogicalTableFunction(
            self.name, list(new_children), self.lambdas, self.params,
            self.output,
        )

    def describe(self) -> str:
        return f"AnalyticsOperator {self.name}"


# ---------------------------------------------------------------------------
# plan walks
# ---------------------------------------------------------------------------


def plan_expressions(node: LogicalPlan) -> list[BoundExpr]:
    """All bound expressions directly held by a plan node."""
    out: list[BoundExpr] = []
    if isinstance(node, LogicalFilter):
        out.append(node.predicate)
    elif isinstance(node, LogicalProject):
        out.extend(node.exprs)
    elif isinstance(node, LogicalJoin):
        for lk, rk in node.equi_keys:
            out.extend([lk, rk])
        if node.residual is not None:
            out.append(node.residual)
    elif isinstance(node, LogicalAggregate):
        out.extend(node.group_exprs)
        for spec in node.aggregates:
            if spec.arg is not None:
                out.append(spec.arg)
    elif isinstance(node, LogicalSort):
        out.extend(k.expr for k in node.keys)
    elif isinstance(node, LogicalValues):
        for row in node.rows:
            out.extend(row)
    elif isinstance(node, LogicalWindow):
        for spec in node.specs:
            out.extend(spec.args)
            out.extend(spec.partition_by)
            out.extend(key.expr for key in spec.order_by)
    elif isinstance(node, LogicalTableFunction):
        out.extend(node.lambdas.values())
    return out


def walk_expressions(node: LogicalPlan) -> Iterator[BoundExpr]:
    """Every expression node (roots and sub-expressions) held by one
    plan node. Subquery *plans* are not entered — :func:`walk_plan`
    does that."""
    stack = plan_expressions(node)
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(expr.children())


def walk_plan(plan: LogicalPlan) -> Iterator[LogicalPlan]:
    """Every plan node reachable from ``plan``: through ``children()``
    and through the plans of subqueries inside expressions."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
        stack.extend(
            expr.plan
            for expr in walk_expressions(node)
            if isinstance(expr, BoundSubquery)
        )


def loop_dependencies(
    plan: LogicalPlan, memo: dict[int, tuple[frozenset[str], bool]]
) -> tuple[frozenset[str], bool]:
    """What decides whether ``plan``'s result can differ between two
    rounds of an enclosing ITERATE / recursive CTE: the keys of every
    working table read anywhere beneath it (through ``children()`` and
    through subquery plans inside expressions), and whether it is
    *volatile* — holds a Python UDF (scalar or table function: the
    engine cannot see inside, it may count calls or read a clock) or a
    correlated parameter (its value belongs to an outer row, not to the
    plan). Statement parameters (``?N``) are constants of the
    execution. ``memo`` (``id(node)`` -> result) is filled for every
    node visited, so one call on a loop body answers for each of its
    subtrees."""
    known = memo.get(id(plan))
    if known is not None:
        return known
    keys: set[str] = set()
    volatile = isinstance(plan, LogicalTableFunction)
    if isinstance(plan, LogicalWorkingTableRef):
        keys.add(plan.key)
    below = list(plan.children())
    for expr in walk_expressions(plan):
        if isinstance(expr, BoundSubquery):
            below.append(expr.plan)
        elif isinstance(expr, BoundUDF) or (
            isinstance(expr, BoundParam) and not expr.slot.startswith("?")
        ):
            volatile = True
    for node in below:
        node_keys, node_volatile = loop_dependencies(node, memo)
        keys |= node_keys
        volatile = volatile or node_volatile
    memo[id(plan)] = result = (frozenset(keys), volatile)
    return result


def at_most_one_row(plan: LogicalPlan) -> bool:
    """Whether the plan alone proves ``plan`` yields at most one row: an
    ungrouped aggregate, a ``LIMIT`` of at most one, or a VALUES list
    of at most one row — seen through the operators that never add a
    row (Filter, Project, Sort, Limit, Distinct, Window)."""
    while True:
        if isinstance(plan, LogicalAggregate):
            return not plan.group_exprs
        if isinstance(plan, LogicalValues):
            return len(plan.rows) <= 1
        if isinstance(plan, LogicalLimit) and plan.limit is not None \
                and plan.limit <= 1:
            return True
        if not isinstance(
            plan,
            (
                LogicalFilter, LogicalProject, LogicalSort, LogicalLimit,
                LogicalDistinct, LogicalWindow,
            ),
        ):
            return False
        plan = plan.child


def node_signature(
    node: LogicalPlan,
    expr_key: Callable[[BoundExpr], Hashable],
    inputs: Mapping[str, Hashable],
) -> tuple:
    """What, besides its children's rows, decides the rows ``node``
    yields, and in which output column each one lands: every dataclass
    field of the node but its children, then its output columns.

    A bound expression stands as ``expr_key(expr)``; an output column
    as its name, type and slot. A slot — an output column's, or one in a
    field marked :data:`SLOTS` — stands as its position:
    ``inputs[slot]`` for a column of the node's children, ``("out", i)``
    for the node's own i-th output column. So two nodes that read and
    write different slots the same way — and only those — share a
    signature: a join whose output lists its children's columns in
    another order does not. A new field enters by itself; a new slot
    field left unmarked keys by name, which only makes fewer signatures
    equal."""
    own = {col.slot: ("out", i) for i, col in enumerate(node.output)}

    def position(slot: str) -> Hashable:
        if slot in inputs:
            return inputs[slot]
        return own.get(slot, slot)

    def canonical(value: object) -> Hashable:
        if isinstance(value, (str, int, float, type(None), SQLType)):
            return value
        if isinstance(value, PlanColumn):  # the commonest record
            return value.name, position(value.slot), value.sql_type
        if isinstance(value, LogicalPlan):
            return None  # a child: its rows are the caller's to key
        if isinstance(value, BoundExpr):
            return expr_key(value)
        if isinstance(value, (list, tuple)):
            return tuple(canonical(item) for item in value)
        if isinstance(value, dict):
            return tuple((k, canonical(v)) for k, v in value.items())
        if is_dataclass(value) and not isinstance(value, type):
            return record(value)
        return value  # type: ignore[return-value]

    def record(obj: object) -> tuple:
        return (type(obj),) + tuple(
            _slot_positions(getattr(obj, name), position)
            if slots
            else canonical(getattr(obj, name))
            for name, slots in _key_fields(type(obj))
        )

    # Filter, Sort, Limit and Distinct derive their output: not a field.
    return record(node) + (canonical(node.output),)


@lru_cache(maxsize=None)
def _key_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """``(name, holds slots)`` of each dataclass field of ``cls`` that
    :func:`node_signature` keys (all but ``output``)."""
    return tuple(
        (f.name, bool(f.metadata.get("slots")))
        for f in fields(cls)
        if f.name != "output"
    )


def _slot_positions(
    value: object, position: Callable[[str], Hashable]
) -> Hashable:
    """A slot, or a list of slots, as positions."""
    if isinstance(value, str):
        return position(value)
    return tuple(position(slot) for slot in value)  # type: ignore[union-attr]


def statement_constant(expr: BoundSubquery) -> bool:
    """Whether a subquery has one result for the whole execution: it is
    uncorrelated and not volatile (:func:`loop_dependencies` — no Python
    UDF, table function or correlated parameter anywhere in its plan).
    Such a subquery may be evaluated anywhere in the plan, and as early
    as the scan that holds it opens."""
    return not expr.outer_slots and not loop_dependencies(expr.plan, {})[1]
