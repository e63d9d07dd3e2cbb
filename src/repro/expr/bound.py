"""Bound (resolved, typed) expression trees.

Produced by the binder; consumed by the expression compiler and the
optimizer's rewrite rules. Every node knows its result
:class:`~repro.types.SQLType`. Column references carry *slots* — the
unique batch keys assigned during binding — so evaluation never needs
name resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..types import BOOLEAN, SQLType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..plan.logical import LogicalPlan


class BoundExpr:
    """Base class; every subclass has a ``sql_type`` attribute."""

    sql_type: SQLType
    #: :func:`repro.expr.effects.effects`, once asked (not a field).
    _effects = None

    def children(self) -> list["BoundExpr"]:
        """Direct sub-expressions (for tree walks)."""
        return []


@dataclass
class BoundLiteral(BoundExpr):
    value: object
    sql_type: SQLType


@dataclass
class BoundColumnRef(BoundExpr):
    """Reads the batch column named ``slot``."""

    slot: str
    sql_type: SQLType
    #: User-facing name for error messages / EXPLAIN.
    display: str = ""


@dataclass
class BoundParam(BoundExpr):
    """A correlated-subquery parameter: filled from the outer row at
    evaluation time (keyed by the outer slot name)."""

    slot: str
    sql_type: SQLType


@dataclass
class BoundUnary(BoundExpr):
    op: str  # "-" | "not"
    operand: BoundExpr
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        return [self.operand]


@dataclass
class BoundBinary(BoundExpr):
    """Arithmetic (+,-,*,/,%,^), comparison (=,<>,<,<=,>,>=),
    logical (and, or), string concat (||)."""

    op: str
    left: BoundExpr
    right: BoundExpr
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        return [self.left, self.right]


def split_conjuncts(expr: BoundExpr, op: str = "and") -> list[BoundExpr]:
    """The operands of a tree of ``op`` (AND, or ``"or"`` for the arms of
    a disjunction), left to right."""
    if isinstance(expr, BoundBinary) and expr.op == op:
        return split_conjuncts(expr.left, op) + split_conjuncts(
            expr.right, op
        )
    return [expr]


def conjoin(terms: list[BoundExpr], op: str = "and") -> Optional[BoundExpr]:
    """``terms`` folded left into one tree of ``op``; None if empty."""
    result: Optional[BoundExpr] = None
    for term in terms:
        result = (
            term if result is None
            else BoundBinary(op, result, term, BOOLEAN)
        )
    return result


@dataclass
class BoundFunction(BoundExpr):
    """A built-in scalar function call (resolved against the registry)."""

    name: str
    args: list[BoundExpr]
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        return list(self.args)


@dataclass
class BoundUDF(BoundExpr):
    """A user-defined scalar function: executed as a black box per the
    paper's layer 2 — the optimizer cannot see inside ``func``."""

    name: str
    func: object  # callable(*scalars) -> scalar
    args: list[BoundExpr]
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        return list(self.args)


@dataclass
class BoundCast(BoundExpr):
    operand: BoundExpr
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        return [self.operand]


@dataclass
class BoundCase(BoundExpr):
    """Searched CASE (simple CASE is desugared by the binder)."""

    whens: list[tuple[BoundExpr, BoundExpr]]
    else_result: Optional[BoundExpr]
    sql_type: SQLType

    def children(self) -> list[BoundExpr]:
        out: list[BoundExpr] = []
        for cond, result in self.whens:
            out.append(cond)
            out.append(result)
        if self.else_result is not None:
            out.append(self.else_result)
        return out


@dataclass
class BoundIsNull(BoundExpr):
    operand: BoundExpr
    negated: bool = False
    sql_type: SQLType = field(default=BOOLEAN)

    def children(self) -> list[BoundExpr]:
        return [self.operand]


@dataclass
class BoundInList(BoundExpr):
    operand: BoundExpr
    items: list[BoundExpr]
    negated: bool = False
    sql_type: SQLType = field(default=BOOLEAN)

    def children(self) -> list[BoundExpr]:
        return [self.operand, *self.items]


@dataclass
class BoundLike(BoundExpr):
    operand: BoundExpr
    pattern: BoundExpr
    negated: bool = False
    sql_type: SQLType = field(default=BOOLEAN)

    def children(self) -> list[BoundExpr]:
        return [self.operand, self.pattern]


@dataclass
class BoundSubquery(BoundExpr):
    """A subquery used inside an expression.

    ``kind`` is ``scalar`` (single value), ``exists``, or ``in``
    (membership of ``probe`` in the subquery's single output column).
    ``outer_slots`` lists the outer-row slots the subplan's
    :class:`BoundParam` nodes consume; empty means uncorrelated, in which
    case the result is computed once and cached for the whole batch.
    """

    plan: "LogicalPlan"
    kind: str
    sql_type: SQLType
    probe: Optional[BoundExpr] = None
    negated: bool = False
    outer_slots: tuple[str, ...] = ()

    def children(self) -> list[BoundExpr]:
        return [self.probe] if self.probe is not None else []


@dataclass
class BoundLambda(BoundExpr):
    """A bound lambda (paper section 7): the body is an ordinary bound
    expression whose column refs use slots of the form ``param.attr``.

    Variation points bind the lambda against the tuple layouts they feed
    it; at execution the operator presents batches whose columns are
    named exactly ``{param}.{attr}`` and evaluates the body vectorised —
    the lambda fuses into the operator's inner loop.
    """

    params: list[str]
    body: BoundExpr
    #: For each parameter, the attribute names it exposes, in order.
    param_attrs: dict[str, list[str]] = field(default_factory=dict)

    @property
    def sql_type(self) -> SQLType:  # type: ignore[override]
        return self.body.sql_type

    def children(self) -> list[BoundExpr]:
        return [self.body]
