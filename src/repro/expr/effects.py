"""What running an expression or a plan can do: one bottom-up fold per
node, cached on the node.

Pushdown, zone-map pruning, loop hoisting, round sharing, the
empty-side join skip and parallel dispatch each decide from the same
few facts: which slots and working tables a piece of the plan reads,
whether it can raise, whether it runs user code and whether it holds a
subquery. They all ask here, so the rule that a skip must not hide an
error is written once (PostgreSQL keeps the same family of questions in
``optimizer/util/clauses.c``).

A node's answer is folded from its children's and kept on the node in
``_effects``, a class attribute of the base classes, not a dataclass
field: ``dataclasses.replace``, ``==`` and
:func:`~repro.plan.logical.node_signature` never see it, a rewritten
node starts without one, and it dies with its node, which an
``id(node)``-keyed memo does not. No bound expression or plan node is
changed after it is built, so a kept answer cannot go stale.
"""

from __future__ import annotations

from typing import NamedTuple

from ..plan import logical as lp
from . import bound as b

#: Binary operators that cannot raise at evaluation time (no division,
#: no modulo, no exponentiation — those carry data-dependent errors).
#: ``^`` computes in float64 whatever its operands: NaN or inf, never an
#: error.
_SAFE_BINARY_OPS = frozenset(
    {"and", "or", "=", "<>", "!=", "<", "<=", ">", ">=",
     "+", "-", "*", "^", "||"}
)

_SAFE_UNARY_OPS = frozenset({"-", "+", "not"})

#: Expression nodes that raise nothing of their own, whatever their
#: operator. A subquery counts as its probe: running its plan is the
#: caller's question (:func:`prune_safe`, :attr:`PlanEffects.quiet`).
_SAFE_NODES = (b.BoundIsNull, b.BoundInList, b.BoundSubquery)

#: Plan nodes that raise nothing of their own; what running them can
#: raise comes from their expressions.
_QUIET_NODES = (
    lp.LogicalScan, lp.LogicalWorkingTableRef, lp.LogicalValues,
    lp.LogicalFilter, lp.LogicalProject, lp.LogicalJoin,
    lp.LogicalAggregate, lp.LogicalSort, lp.LogicalLimit,
    lp.LogicalDistinct, lp.LogicalSetOp,
)

_EMPTY: frozenset = frozenset()


class Effects(NamedTuple):
    """What evaluating one expression can do. A subquery's plan is not
    entered — :func:`plan_effects` does that."""

    #: Column slots read from the batch.
    reads: frozenset = _EMPTY
    #: Outer-row slots the correlated subqueries take their parameter
    #: values from.
    outer_reads: frozenset = _EMPTY
    #: Slots of every parameter: statement parameters (``?N``) and
    #: correlated outer values alike.
    params: frozenset = _EMPTY
    #: Whether a parameter is a correlated outer value, not a ``?N``.
    correlated: bool = False
    #: Whether a Python UDF is called.
    user_code: bool = False
    #: Whether some node can raise on some data: any node but a
    #: literal, a column, a parameter, IS NULL, an IN list, a subquery
    #: and the operators of ``_SAFE_*`` — so every function, UDF, CASE,
    #: CAST, LIKE, lambda, division, modulo.
    may_raise: bool = False
    #: The subquery nodes, inner before outer, left to right.
    subqueries: tuple = ()

    @property
    def consumed(self) -> frozenset:
        """The slots evaluating the expression reads from its batch."""
        return self.reads | self.outer_reads

    @property
    def parallel_safe(self) -> bool:
        """Whether the expression may run on worker threads: a subquery
        (shared physical-plan cache, working tables) or a Python UDF
        (unknown thread safety) pins it to the caller's thread."""
        return not (self.user_code or self.subqueries)


_NOTHING = Effects()


def effects(expr: b.BoundExpr) -> Effects:
    """The :class:`Effects` of ``expr``."""
    known = expr._effects
    if known is None:
        known = _fold(expr)
        # A subquery's answer lists the subquery itself: kept on it, it
        # would make a reference cycle, and a dropped plan would wait
        # for the cycle collector. Its probe's answer is kept.
        if not isinstance(expr, b.BoundSubquery):
            expr._effects = known
    return known


def _fold(expr: b.BoundExpr) -> Effects:
    if isinstance(expr, b.BoundLiteral):
        return _NOTHING
    if isinstance(expr, b.BoundColumnRef):
        return Effects(reads=frozenset((expr.slot,)))
    if isinstance(expr, b.BoundParam):
        return Effects(
            params=frozenset((expr.slot,)),
            correlated=not expr.slot.startswith("?"),
        )
    if isinstance(expr, b.BoundUnary):
        raises = expr.op not in _SAFE_UNARY_OPS
    elif isinstance(expr, b.BoundBinary):
        raises = expr.op not in _SAFE_BINARY_OPS
    else:
        raises = not isinstance(expr, _SAFE_NODES)
    reads = outer_reads = params = _EMPTY
    correlated = user_code = may_raise = False
    subqueries: tuple = ()
    for child in expr.children():
        kid = effects(child)
        reads |= kid.reads
        outer_reads |= kid.outer_reads
        params |= kid.params
        correlated |= kid.correlated
        user_code |= kid.user_code
        may_raise |= kid.may_raise
        subqueries += kid.subqueries
    if isinstance(expr, b.BoundSubquery):
        outer_reads |= frozenset(expr.outer_slots)
        subqueries += (expr,)
    return Effects(
        reads, outer_reads, params, correlated,
        user_code or isinstance(expr, b.BoundUDF), may_raise or raises,
        subqueries,
    )


def prune_safe(expr: b.BoundExpr, prebuilt: frozenset = _EMPTY) -> bool:
    """Whether ``expr`` is free of data-dependent errors, so leaving it
    unevaluated on some rows cannot be told from its result.

    ``prebuilt`` holds the ``id`` of every subquery node whose result
    is computed before any row is skipped: such a subquery has already
    raised whatever it would raise, and testing rows against its result
    cannot raise."""
    found = effects(expr)
    return not found.may_raise and all(
        id(s) in prebuilt for s in found.subqueries
    )


class PlanEffects(NamedTuple):
    """What running a plan can do, through its children and the plans
    of the subqueries in its expressions."""

    #: Keys of the working tables read.
    working_tables: frozenset
    #: Slots of every parameter, as :attr:`Effects.params`.
    params: frozenset
    #: Whether a Python UDF or a table function runs.
    user_code: bool
    #: Whether a correlated outer value is read.
    correlated: bool
    #: Whether leaving the plan unrun cannot be told from its result:
    #: only :data:`_QUIET_NODES`, and no expression that may raise or
    #: holds a subquery.
    quiet: bool

    @property
    def volatile(self) -> bool:
        """Whether two runs may differ while no table does: the engine
        cannot see inside user code (it may count calls or read a
        clock), and a correlated value belongs to an outer row, not to
        the plan. Statement parameters are constants of the
        execution."""
        return self.user_code or self.correlated


def plan_effects(plan: lp.LogicalPlan) -> PlanEffects:
    """The :class:`PlanEffects` of ``plan``."""
    known = plan._effects
    if known is None:
        known = plan._effects = _fold_plan(plan)
    return known


def _fold_plan(plan: lp.LogicalPlan) -> PlanEffects:
    tables = params = _EMPTY
    if isinstance(plan, lp.LogicalWorkingTableRef):
        tables = frozenset((plan.key,))
    user_code = isinstance(plan, lp.LogicalTableFunction)
    correlated = False
    quiet = isinstance(plan, _QUIET_NODES)
    below = list(plan.children())
    for expr in lp.plan_expressions(plan):
        found = effects(expr)
        params |= found.params
        user_code |= found.user_code
        correlated |= found.correlated
        quiet &= not (found.may_raise or found.subqueries)
        below += [subquery.plan for subquery in found.subqueries]
    for node in below:
        inner = plan_effects(node)
        tables |= inner.working_tables
        params |= inner.params
        user_code |= inner.user_code
        correlated |= inner.correlated
        quiet &= inner.quiet
    return PlanEffects(tables, params, user_code, correlated, quiet)


def statement_constant(subquery: b.BoundSubquery) -> bool:
    """Whether a subquery has one result for the whole execution: it is
    uncorrelated and not :attr:`~PlanEffects.volatile`. Such a subquery
    may be evaluated anywhere in the plan, and as early as the scan
    that holds it opens."""
    return not subquery.outer_slots and not plan_effects(
        subquery.plan
    ).volatile
