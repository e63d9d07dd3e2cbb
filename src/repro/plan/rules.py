"""Optimizer rewrite rules.

Three classical rules plus the paper's constraint, and one rule for
the bodies of ITERATE and recursive CTEs:

* **Predicate pushdown** — filters move toward the data, splitting
  conjunctions across joins, sliding through projections (with slot
  substitution) and below sorts/distincts, and into both branches of a
  UNION. Pushdown **stops at analytics operators, ITERATE, recursive
  CTEs, and aggregation over non-group columns** — an analytical
  operator's result depends on its whole input (section 5.2), so a
  selection above it is not a selection below it. A conjunct holding a
  subquery moves like any other when the subquery is uncorrelated and
  non-volatile; a correlated one stays where it was bound.
* **Implied filters** — a disjunction over a join that would stay as
  its residual first pushes, into each side, the OR of what each arm
  asks of that side alone (see :func:`_push_implied`).
* **Column pruning** — base-table scans materialise only the columns the
  plan above actually consumes.
* **Join order** — each block of inner joins is reordered bottom-up by
  estimated cost (:func:`order_joins`); the side estimated smaller
  becomes the build side of every inner hash join.
* **Join re-association in loop bodies** — two loop-invariant relations
  joined *through* the working table are joined to each other first,
  so the planner can hoist that join out of the rounds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..errors import PlanError
from ..expr import bound as b
from ..expr.bound import conjoin, split_conjuncts
from ..expr.effects import effects, plan_effects, statement_constant
from ..types import BOOLEAN
from . import logical as lp
from .cardinality import CardinalityEstimator


#: The nodes whose nested plans :class:`~repro.plan.optimizer.Optimizer`
#: optimizes on their own, once each: every rule's walk stops at them.
NESTED_PLANS = (
    lp.LogicalIterate, lp.LogicalRecursiveCTE, lp.LogicalTableFunction,
)


def _with_children(plan: lp.LogicalPlan, rule) -> lp.LogicalPlan:
    """``plan`` with ``rule`` applied to each child; the nested plans of
    :data:`NESTED_PLANS` are left as they are."""
    if isinstance(plan, NESTED_PLANS):
        return plan
    return plan.replace_children([rule(c) for c in plan.children()])


# ---------------------------------------------------------------------------
# expression helpers
# ---------------------------------------------------------------------------


def substitute_slots(
    expr: b.BoundExpr, mapping: dict[str, b.BoundExpr]
) -> b.BoundExpr:
    """Replace column references by expressions (projection pushdown)."""
    if isinstance(expr, b.BoundColumnRef):
        replacement = mapping.get(expr.slot)
        return replacement if replacement is not None else expr
    if isinstance(expr, b.BoundUnary):
        return replace(expr, operand=substitute_slots(expr.operand, mapping))
    if isinstance(expr, b.BoundBinary):
        return replace(
            expr,
            left=substitute_slots(expr.left, mapping),
            right=substitute_slots(expr.right, mapping),
        )
    if isinstance(expr, b.BoundFunction):
        return replace(
            expr, args=[substitute_slots(a, mapping) for a in expr.args]
        )
    if isinstance(expr, b.BoundUDF):
        return replace(
            expr, args=[substitute_slots(a, mapping) for a in expr.args]
        )
    if isinstance(expr, b.BoundCast):
        return replace(expr, operand=substitute_slots(expr.operand, mapping))
    if isinstance(expr, b.BoundCase):
        return replace(
            expr,
            whens=[
                (
                    substitute_slots(c, mapping),
                    substitute_slots(r, mapping),
                )
                for c, r in expr.whens
            ],
            else_result=(
                substitute_slots(expr.else_result, mapping)
                if expr.else_result is not None
                else None
            ),
        )
    if isinstance(expr, b.BoundIsNull):
        return replace(expr, operand=substitute_slots(expr.operand, mapping))
    if isinstance(expr, b.BoundInList):
        return replace(
            expr,
            operand=substitute_slots(expr.operand, mapping),
            items=[substitute_slots(i, mapping) for i in expr.items],
        )
    if isinstance(expr, b.BoundLike):
        return replace(
            expr,
            operand=substitute_slots(expr.operand, mapping),
            pattern=substitute_slots(expr.pattern, mapping),
        )
    if isinstance(expr, b.BoundSubquery) and expr.probe is not None:
        # The probe is an expression of this query's rows; the subplan
        # is not, and is shared by every copy of the node.
        return replace(expr, probe=substitute_slots(expr.probe, mapping))
    # Literals, params, probe-less subqueries.
    return expr


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def push_down_predicates(plan: lp.LogicalPlan) -> lp.LogicalPlan:
    """Recursively push filter conjuncts as deep as legal."""
    plan = _with_children(plan, push_down_predicates)
    if not isinstance(plan, lp.LogicalFilter):
        return plan
    conjuncts = split_conjuncts(plan.predicate)
    child = plan.child
    remaining: list[b.BoundExpr] = []
    for conjunct in conjuncts:
        pushed = _try_push(conjunct, child)
        if pushed is None:
            remaining.append(conjunct)
        else:
            child = pushed
    predicate = conjoin(remaining)
    if predicate is None:
        return child
    return lp.LogicalFilter(child, predicate)


def _try_push(
    conjunct: b.BoundExpr, child: lp.LogicalPlan
) -> Optional[lp.LogicalPlan]:
    """Push one conjunct below ``child``; None if it must stay above."""
    # Each subquery must have one result per execution to move: a
    # correlated one reads the outer row it was bound next to, and a
    # Python UDF inside one runs as often as the SQL says.
    if not all(
        statement_constant(s) for s in effects(conjunct).subqueries
    ):
        return None

    if isinstance(child, lp.LogicalFilter):
        inner = _try_push(conjunct, child.child)
        if inner is not None:
            return lp.LogicalFilter(inner, child.predicate)
        return lp.LogicalFilter(
            child.child, _and(child.predicate, conjunct)
        )

    if isinstance(child, lp.LogicalProject):
        mapping = {
            col.slot: expr
            for col, expr in zip(child.output, child.exprs)
        }
        refs = effects(conjunct).reads
        if not refs <= set(mapping):
            return None
        # Don't duplicate expensive work: only substitute through cheap
        # projection expressions (column refs, casts of refs, literals).
        for slot in refs:
            if not _is_cheap(mapping[slot]):
                return None
        rewritten = substitute_slots(conjunct, mapping)
        inner = _try_push(rewritten, child.child)
        if inner is None:
            inner = lp.LogicalFilter(child.child, rewritten)
        return lp.LogicalProject(inner, child.exprs, child.output)

    if isinstance(child, lp.LogicalJoin):
        refs = effects(conjunct).reads
        left_slots = set(child.left.output_slots())
        right_slots = set(child.right.output_slots())
        if refs and refs <= left_slots:
            inner = _try_push(conjunct, child.left)
            if inner is None:
                inner = lp.LogicalFilter(child.left, conjunct)
            return child.replace_children([inner, child.right])
        if refs and refs <= right_slots and child.kind != "left":
            inner = _try_push(conjunct, child.right)
            if inner is None:
                inner = lp.LogicalFilter(child.right, conjunct)
            return child.replace_children([child.left, inner])
        # A conjunct spanning both sides of a cross/inner join becomes a
        # join condition: WHERE over a cross product IS an inner join.
        # Equality conjuncts with one side per input become hash keys —
        # this is what turns the comma-join SQL formulations of the
        # paper's workloads into hash joins.
        if child.kind in ("cross", "inner") and refs:
            equi = as_equi_pair(conjunct, left_slots, right_slots)
            if equi is not None:
                return lp.LogicalJoin(
                    "inner", child.left, child.right,
                    child.equi_keys + [equi], child.residual,
                    child.output,
                )
            if refs <= (left_slots | right_slots):
                child = _push_implied(
                    conjunct, child, left_slots, right_slots
                )
                return lp.LogicalJoin(
                    "inner", child.left, child.right, child.equi_keys,
                    _and(child.residual, conjunct), child.output,
                )
        if child.kind == "left" and refs:
            implied = _push_implied(
                conjunct, child, left_slots, right_slots
            )
            if implied is not child:
                return lp.LogicalFilter(implied, conjunct)
        return None

    if isinstance(child, (lp.LogicalSort, lp.LogicalDistinct)):
        grandchild = child.children()[0]
        inner = _try_push(conjunct, grandchild)
        if inner is None:
            inner = lp.LogicalFilter(grandchild, conjunct)
        return child.replace_children([inner])

    if isinstance(child, lp.LogicalAggregate):
        # Only conjuncts over group-key slots may move below (they are
        # functions of single input rows); aggregates depend on the
        # whole input — same argument as for analytics operators.
        refs = effects(conjunct).reads
        group_mapping = {
            slot: expr
            for slot, expr in zip(child.group_slots, child.group_exprs)
        }
        if not refs or not refs <= set(group_mapping):
            return None
        rewritten = substitute_slots(conjunct, group_mapping)
        inner = _try_push(rewritten, child.child)
        if inner is None:
            inner = lp.LogicalFilter(child.child, rewritten)
        return child.replace_children([inner])

    if isinstance(child, lp.LogicalSetOp) and child.op in (
        "union", "union_all"
    ):
        # Rewrite output slots to each branch's slots positionally and
        # push into both branches.
        new_children = []
        for branch in (child.left, child.right):
            mapping = {
                out.slot: b.BoundColumnRef(src.slot, src.sql_type, src.name)
                for out, src in zip(child.output, branch.output)
            }
            rewritten = substitute_slots(conjunct, mapping)
            inner = _try_push(rewritten, branch)
            if inner is None:
                inner = lp.LogicalFilter(branch, rewritten)
            new_children.append(inner)
        return child.replace_children(new_children)

    # LogicalScan / Values / Limit / TableFunction / Iterate /
    # RecursiveCTE / WorkingTableRef: the filter stays above. For the
    # analytical operators this is the section 5.2 rule, for LIMIT it is
    # a semantic requirement, for scans there is simply nothing deeper.
    return None


def _push_implied(
    conjunct: b.BoundExpr,
    join: lp.LogicalJoin,
    left_slots: set[str],
    right_slots: set[str],
) -> lp.LogicalJoin:
    """``join`` with the filters a disjunction over it implies pushed
    into its sides; ``join`` itself when it implies none.

    No joined row satisfies ``(a1 AND b1) OR (a2 AND b2)`` — the ``a``
    reading only the left side, the ``b`` only the right — unless its
    left row satisfies ``a1 OR a2`` and its right row ``b1 OR b2``. So
    each side may drop the rows that fail its part before the join
    (PostgreSQL's ``optimizer/util/orclauses.c``); the disjunction stays
    above. A side gets nothing when some arm has no conjunct local to
    it. A conjunct that may raise or holds a subquery is left out: the
    side would run it on rows the join drops. The null-supplying side of
    a LEFT join keeps every row: its rows decide which left rows come
    out padded."""
    if not (isinstance(conjunct, b.BoundBinary) and conjunct.op == "or"):
        return join
    arms = [split_conjuncts(arm) for arm in split_conjuncts(conjunct, "or")]
    sides = [join.left, join.right]
    for i, slots in enumerate(
        (left_slots,) if join.kind == "left" else (left_slots, right_slots)
    ):
        terms = []
        for arm in arms:
            local = [c for c in arm if _filters_side(c, slots)]
            if not local:
                break
            terms.append(conjoin(local))
        else:
            implied = conjoin(terms, "or")
            pushed = _try_push(implied, sides[i])
            sides[i] = (
                pushed if pushed is not None
                else lp.LogicalFilter(sides[i], implied)
            )
    if sides[0] is join.left and sides[1] is join.right:
        return join
    return join.replace_children(sides)


def _filters_side(conjunct: b.BoundExpr, slots: set[str]) -> bool:
    """Whether an arm's ``conjunct`` may filter the side with ``slots``
    before a join."""
    found = effects(conjunct)
    return bool(
        found.reads and found.reads <= slots
        and not found.may_raise and not found.subqueries
    )


def _and(
    existing: Optional[b.BoundExpr], conjunct: b.BoundExpr
) -> b.BoundExpr:
    """``existing AND conjunct`` (``conjunct`` when there is none)."""
    if existing is None:
        return conjunct
    return b.BoundBinary("and", existing, conjunct, BOOLEAN)


def as_equi_pair(
    conjunct: b.BoundExpr,
    left_slots: set[str],
    right_slots: set[str],
) -> Optional[tuple[b.BoundExpr, b.BoundExpr]]:
    """An equality conjunct with one operand per join side, oriented as
    (left_key, right_key); None otherwise."""
    if not (
        isinstance(conjunct, b.BoundBinary) and conjunct.op == "="
    ):
        return None
    lrefs = effects(conjunct.left).reads
    rrefs = effects(conjunct.right).reads
    if not lrefs or not rrefs:
        return None
    if lrefs <= left_slots and rrefs <= right_slots:
        return (conjunct.left, conjunct.right)
    if lrefs <= right_slots and rrefs <= left_slots:
        return (conjunct.right, conjunct.left)
    return None


def _is_cheap(expr: b.BoundExpr) -> bool:
    if isinstance(expr, (b.BoundColumnRef, b.BoundLiteral, b.BoundParam)):
        return True
    if isinstance(expr, b.BoundCast):
        return _is_cheap(expr.operand)
    return False


# ---------------------------------------------------------------------------
# column pruning
# ---------------------------------------------------------------------------


def prune_columns(plan: lp.LogicalPlan) -> lp.LogicalPlan:
    """Trim base-table scans to the columns consumed above them."""
    required = _collect_required(plan, set())
    return _apply_pruning(plan, required)


def _collect_required(
    plan: lp.LogicalPlan, needed_from_above: set[str]
) -> set[str]:
    """All slots consumed anywhere in the plan (a global set is
    sufficient because slots are unique per statement)."""
    required = set(needed_from_above)
    stack = [plan]
    roots_seen = set()
    while stack:
        node = stack.pop()
        if id(node) in roots_seen:
            continue
        roots_seen.add(id(node))
        for expr in lp.plan_expressions(node):
            required |= effects(expr).consumed
        # Filters/sorts/limits/joins merely forward columns — they do
        # not require them, so scans below can shed unused ones. Set
        # operations and the iterative/analytical operators map columns
        # positionally and keep their full inputs.
        if isinstance(node, lp.LogicalSetOp):
            required |= set(node.left.output_slots())
            required |= set(node.right.output_slots())
        if isinstance(
            node,
            (
                lp.LogicalRecursiveCTE,
                lp.LogicalIterate,
                lp.LogicalTableFunction,
            ),
        ):
            for child in node.children():
                required |= set(child.output_slots())
        # A nested plan's own pruning sees what it consumes: slots are
        # unique per statement, so nothing outside it reads its scans.
        if not isinstance(node, NESTED_PLANS):
            stack.extend(node.children())
    required |= set(plan.output_slots())
    return required


def _apply_pruning(
    plan: lp.LogicalPlan, required: set[str]
) -> lp.LogicalPlan:
    plan = _with_children(
        plan, lambda child: _apply_pruning(child, required)
    )
    if isinstance(plan, lp.LogicalScan):
        kept = [c for c in plan.output if c.slot in required]
        if not kept:
            kept = [plan.output[0]]  # keep one column for the row count
        if len(kept) != len(plan.output):
            return lp.LogicalScan(plan.table_name, kept)
    if isinstance(plan, lp.LogicalJoin):
        # The join's static output list must track its (possibly
        # pruned) children.
        return _in_child_order(plan)
    return plan


def _in_child_order(join: lp.LogicalJoin) -> lp.LogicalJoin:
    """``join`` listing its left input's columns, then its right
    input's — the order the join operators emit them in."""
    output = list(join.left.output) + list(join.right.output)
    if [c.slot for c in output] == [c.slot for c in join.output]:
        return join
    return lp.LogicalJoin(
        join.kind, join.left, join.right, join.equi_keys, join.residual,
        output,
    )


# ---------------------------------------------------------------------------
# join order and build sides
# ---------------------------------------------------------------------------

#: Connected blocks with more relations than this are ordered greedily.
DP_LIMIT = 10


def order_joins(
    plan: lp.LogicalPlan, estimator: CardinalityEstimator, reorder=True
) -> lp.LogicalPlan:
    """With ``reorder``, each block — a maximal tree of inner and cross
    joins; LEFT joins, filters, nested plans are its leaves — is planned
    anew (:func:`_order_block`); loop bodies keep the binder's tree.
    Every inner hash join builds the side estimated smaller
    (:func:`_join`); every join lists its columns in child order."""
    if reorder and _in_block(plan):
        with estimator.sources_of(plan):
            ordered = _order_block(plan, estimator)
        if ordered is not None:
            return ordered
    plan = _with_children(
        plan, lambda child: order_joins(child, estimator, reorder)
    )
    if _in_block(plan):
        return _join(
            plan.left, plan.right, plan.equi_keys, plan.residual, estimator
        )
    return _in_child_order(plan) if isinstance(plan, lp.LogicalJoin) else plan


def _in_block(plan: lp.LogicalPlan) -> bool:
    return isinstance(plan, lp.LogicalJoin) and plan.kind != "left"


def _join(left, right, keys, residual, estimator) -> lp.LogicalJoin:
    """``left`` joined to ``right`` (a cross join with no condition),
    building the side estimated smaller, the right; a tie keeps them."""
    if keys and estimator.estimate(left) < estimator.estimate(right):
        left, right = right, left
        keys = [(rk, lk) for lk, rk in keys]
    kind = "inner" if keys or residual is not None else "cross"
    return lp.LogicalJoin(
        kind, left, right, keys, residual, left.output + right.output
    )


def _collect_block(plan, leaves, conjuncts, splits) -> int:
    """Gathers the block's leaves, its conditions (an equi-key as ``=``)
    and its joins' ``(left, right)`` leaf bitmasks; returns ``plan``'s."""
    if not _in_block(plan):
        leaves.append(plan)
        return 1 << (len(leaves) - 1)
    left = _collect_block(plan.left, leaves, conjuncts, splits)
    right = _collect_block(plan.right, leaves, conjuncts, splits)
    splits.add((left, right))
    conjuncts += [b.BoundBinary("=", *key, BOOLEAN) for key in plan.equi_keys]
    if plan.residual is not None:
        conjuncts += split_conjuncts(plan.residual)
    return left | right


def _order_block(plan, estimator) -> Optional[lp.LogicalPlan]:
    """The join tree of least C_out (the sum of its joins' estimated
    rows) over the block under ``plan``, or None to keep the binder's
    join there, as for a condition that may raise or call user code.

    Relations are bitmasks in FROM position; the equi-conjuncts between
    two are the graph's edges. Each connected component is costed
    bottom-up over :func:`csg_cmp_pairs` (greedily above
    :data:`DP_LIMIT`), then components are cross-joined in FROM order.
    A conjunct goes on the lowest join covering its relations. A tie
    keeps the binder's join."""
    leaves, conjuncts, splits = [], [], set()
    _collect_block(plan, leaves, conjuncts, splits)
    owner = {
        slot: i for i, leaf in enumerate(leaves)
        for slot in leaf.output_slots()
    }
    if len(owner) < sum(len(leaf.output) for leaf in leaves):
        return None  # a slot that two leaves share

    def mask(expr) -> Optional[int]:  # None: keep the binder's order
        found = effects(expr)
        if found.may_raise or found.user_code or found.subqueries or not (
            found.reads <= owner.keys()
        ):
            return None
        return sum({1 << owner[slot] for slot in found.reads})

    full = (1 << len(leaves)) - 1
    neighbours = [0] * len(leaves)
    conditions = []
    for conjunct in conjuncts:
        covers = mask(conjunct)
        if covers is None:
            return None
        lm = rm = 0
        if isinstance(conjunct, b.BoundBinary) and conjunct.op == "=":
            lm, rm = mask(conjunct.left), mask(conjunct.right)
        if lm != rm and lm.bit_count() == rm.bit_count() == 1:
            neighbours[lm.bit_length() - 1] |= rm
            neighbours[rm.bit_length() - 1] |= lm
        covers = covers or full
        conditions.append((covers, covers.bit_count() == 1, conjunct, lm, rm))
    leaves = [order_joins(leaf, estimator) for leaf in leaves]

    #: relations -> (C_out, not the binder's split, rows, the leaf or
    #: the (S1, S2, keys, residual) joined)
    best = {
        1 << i: (0.0, False, estimator.estimate(leaf), leaf)
        for i, leaf in enumerate(leaves)
    }

    def consider(s1: int, s2: int) -> None:
        both = s1 | s2
        left, right, known = best[s1], best[s2], best.get(both)
        if known is not None and left[0] + right[0] > known[0]:
            return  # costlier before its own join's rows are counted
        keys, residual = [], []
        for covers, single, conjunct, lm, rm in conditions:
            if covers & ~both or (  # not the lowest join covering it
                covers not in (s1, s2) if single
                else not (covers & ~s1 and covers & ~s2)
            ):
                continue
            if lm and rm and not (lm & ~s1 or rm & ~s2):
                keys.append((conjunct.left, conjunct.right))
            elif lm and rm and not (lm & ~s2 or rm & ~s1):
                keys.append((conjunct.right, conjunct.left))
            else:
                residual.append(conjunct)
        condition = conjoin(residual)
        rows = estimator.join_rows(left[2], right[2], keys, condition)
        cost, rank = left[0] + right[0] + rows, (s1, s2) not in splits
        if known is None or (cost, rank) < known[:2]:
            best[both] = (cost, rank, rows, (s1, s2, keys, condition))

    components, rest = [], full
    while rest:
        components.append(_component(rest & -rest, rest, neighbours))
        rest &= ~components[-1]
    for component in components:
        if component.bit_count() <= DP_LIMIT:
            for s1, s2 in csg_cmp_pairs(component, neighbours):
                consider(s1, s2)
            continue
        parts = [1 << i for i in range(len(leaves)) if component >> i & 1]
        while len(parts) > 1:
            pairs = [
                (s1, s2) for i, s1 in enumerate(parts) for s2 in parts[i + 1:]
                if _component(s1, s1 | s2, neighbours) == s1 | s2
            ]
            for s1, s2 in pairs:
                consider(s1, s2)
            s1, s2 = min(pairs, key=lambda pair: best[pair[0] | pair[1]][2])
            parts = [p for p in parts if p not in (s1, s2)] + [s1 | s2]
    for i in range(1, len(components)):
        consider(sum(components[:i]), components[i])
    return _build(best, full, estimator)


def _build(best, bits: int, estimator) -> lp.LogicalPlan:
    """The plan :func:`_order_block` chose for the relations ``bits``."""
    how = best[bits][3]
    if isinstance(how, lp.LogicalPlan):
        return how
    s1, s2, keys, residual = how
    left, right = _build(best, s1, estimator), _build(best, s2, estimator)
    return _join(left, right, keys, residual, estimator)


def _component(seed: int, within: int, neighbours: list[int]) -> int:
    """The relations of ``within`` connected to ``seed`` inside it."""
    seen = 0
    while seed != seen:
        seen = seed
        for i, adjacent in enumerate(neighbours):
            if seen >> i & 1:
                seed |= adjacent & within
    return seen


def csg_cmp_pairs(nodes: int, neighbours: list[int]):
    """Each pair of disjoint connected sets of the relations ``nodes``
    with an edge between them (``neighbours[i]``: relation i's), once,
    as ``(S1, S2)`` with S1 holding the lowest relation; ascending in
    S1 ∪ S2, so a set's pairs follow its subsets' (DPsub; Moerkotte and
    Neumann, VLDB 2006, count these csg-cmp pairs)."""
    connected: set[int] = set()
    reach = {0: 0}  # subset -> the relations adjacent to it
    s = 0
    while s := (s - nodes) & nodes:
        low = s & -s
        reach[s] = reach[s ^ low] | neighbours[low.bit_length() - 1]
        seen, grown = 0, low
        while grown != seen:
            seen, grown = grown, grown | (reach[grown] & s)
        if seen != s:
            continue
        connected.add(s)
        # Two connected halves of a connected set share an edge.
        rest = s2 = s ^ low
        while s2:
            if s2 in connected and s ^ s2 in connected:
                yield s ^ s2, s2
            s2 = (s2 - 1) & rest


# ---------------------------------------------------------------------------
# join re-association inside loop bodies
# ---------------------------------------------------------------------------


def reassociate_invariant_joins(
    plan: lp.LogicalPlan, loop_key: str, estimator: CardinalityEstimator
) -> lp.LogicalPlan:
    """Inside the step/stop plan of the loop ``loop_key``, rewrite

        ``Join(Join(A, B, p1), C, p2)``  to  ``Join(A, Join(B, C, p2), p1)``

    (inner joins; A and B in either order) when only A reads the loop's
    working table, p2 is an equi-predicate over B and C alone, and
    ``Join(B, C, p2)`` is not expected to outgrow the ``Join(A, B, p1)``
    it replaces. The left-deep tree a FROM list binds to joins the
    working table first, which leaves nothing but single relations for
    the planner to hoist; after the rewrite ``Join(B, C)`` is one
    loop-invariant subtree and runs once per loop, not once per round.
    Rows keep their order when A is the inner join's left input."""
    plan = plan.replace_children(
        [
            reassociate_invariant_joins(c, loop_key, estimator)
            for c in plan.children()
        ]
    )
    inner = plan.left if isinstance(plan, lp.LogicalJoin) else None
    if not (
        isinstance(inner, lp.LogicalJoin)
        and plan.kind == "inner"
        and inner.kind == "inner"
        and plan.equi_keys
    ):
        return plan
    reads_loop = [
        loop_key in plan_effects(side).working_tables
        for side in inner.children()
    ]
    if reads_loop[0] == reads_loop[1]:
        return plan
    a, b = inner.children() if reads_loop[0] else inner.children()[::-1]
    c = plan.right
    p2_slots: set[str] = set()
    for expr in lp.plan_expressions(plan):
        p2_slots |= effects(expr).consumed
    if not p2_slots <= set(b.output_slots()) | set(c.output_slots()):
        return plan
    invariant = lp.LogicalJoin(
        "inner", b, c, plan.equi_keys, plan.residual,
        list(b.output) + list(c.output),
    )
    found = plan_effects(invariant)
    if (
        loop_key in found.working_tables
        or found.volatile
        or estimator.estimate(invariant) > estimator.estimate(inner)
    ):
        return plan
    children = [a, invariant] if reads_loop[0] else [invariant, a]
    return lp.LogicalJoin(
        "inner", *children, inner.equi_keys, inner.residual, plan.output
    )


# ---------------------------------------------------------------------------
# limit pushdown
# ---------------------------------------------------------------------------


def push_down_limits(plan: lp.LogicalPlan, on_push=None) -> lp.LogicalPlan:
    """Sink LIMIT toward the data where row-preservation allows it.

    * ``Limit(Project(x))`` relocates below the projection (1:1
      operator) — ``Project(Limit(x))`` — which also creates the
      Sort+Limit adjacency the planner fuses into a top-N sort when the
      projection sat between ORDER BY and LIMIT;
    * ``Limit k OFFSET o`` above a **left outer** join copies
      ``Limit k+o`` onto the streaming (left / probe) side: every
      probe row produces at least one output row, so ``k+o`` probe rows
      bound the output. The outer limit stays for exactness;
    * ``Limit k OFFSET o`` above **UNION ALL** copies ``Limit k+o``
      into both branches (bag concatenation; the outer limit trims).

    Filters, aggregates, distinct, inner joins, and the ordered set
    operations are not row-preserving, so the limit stops above them.
    ``on_push`` is called once per applied rewrite (metrics hook).
    """
    plan = _with_children(
        plan, lambda child: push_down_limits(child, on_push)
    )
    if not isinstance(plan, lp.LogicalLimit) or plan.limit is None:
        return plan
    child = plan.child
    cap = plan.limit + (plan.offset or 0)

    if isinstance(child, lp.LogicalProject):
        if on_push is not None:
            on_push()
        inner = push_down_limits(
            lp.LogicalLimit(child.child, plan.limit, plan.offset or 0),
            on_push,
        )
        return lp.LogicalProject(inner, child.exprs, child.output)

    if (
        isinstance(child, lp.LogicalJoin)
        and child.kind == "left"
        and not _has_limit_cap(child.left, cap)
    ):
        if on_push is not None:
            on_push()
        capped = push_down_limits(
            lp.LogicalLimit(child.left, cap, 0), on_push
        )
        return lp.LogicalLimit(
            lp.LogicalJoin(
                child.kind,
                capped,
                child.right,
                child.equi_keys,
                child.residual,
                child.output,
            ),
            plan.limit,
            plan.offset,
        )

    if (
        isinstance(child, lp.LogicalSetOp)
        and child.op == "union_all"
        and not (
            _has_limit_cap(child.left, cap)
            and _has_limit_cap(child.right, cap)
        )
    ):
        if on_push is not None:
            on_push()
        left = push_down_limits(
            lp.LogicalLimit(child.left, cap, 0), on_push
        )
        right = push_down_limits(
            lp.LogicalLimit(child.right, cap, 0), on_push
        )
        return lp.LogicalLimit(
            lp.LogicalSetOp(child.op, left, right, child.output),
            plan.limit,
            plan.offset,
        )
    return plan


def _has_limit_cap(plan: lp.LogicalPlan, cap: int) -> bool:
    """True when ``plan`` is already limited to ``cap`` rows or fewer —
    the idempotence guard that keeps re-optimization (plan-cache epoch
    bumps re-run the rules) from stacking redundant limits."""
    return (
        isinstance(plan, lp.LogicalLimit)
        and plan.limit is not None
        and plan.offset == 0
        and plan.limit <= cap
    )


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------


def fold_constants(plan: lp.LogicalPlan) -> lp.LogicalPlan:
    """Evaluate literal-only arithmetic/comparison subtrees at plan time."""
    plan = _with_children(plan, fold_constants)
    if isinstance(plan, lp.LogicalFilter):
        return lp.LogicalFilter(plan.child, _fold(plan.predicate))
    if isinstance(plan, lp.LogicalProject):
        return lp.LogicalProject(
            plan.child, [_fold(e) for e in plan.exprs], plan.output
        )
    return plan


def _fold(expr: b.BoundExpr) -> b.BoundExpr:
    if isinstance(expr, b.BoundBinary):
        left = _fold(expr.left)
        right = _fold(expr.right)
        expr = replace(expr, left=left, right=right)
        if isinstance(left, b.BoundLiteral) and isinstance(
            right, b.BoundLiteral
        ):
            folded = _fold_binary(expr.op, left.value, right.value)
            if folded is not _NOT_FOLDED:
                return b.BoundLiteral(folded, expr.sql_type)
        return expr
    if isinstance(expr, b.BoundUnary):
        operand = _fold(expr.operand)
        expr = replace(expr, operand=operand)
        if isinstance(operand, b.BoundLiteral):
            if expr.op == "-" and operand.value is not None:
                return b.BoundLiteral(-operand.value, expr.sql_type)
            if expr.op == "not" and operand.value is not None:
                return b.BoundLiteral(
                    not operand.value, expr.sql_type
                )
        return expr
    if isinstance(expr, b.BoundCast):
        operand = _fold(expr.operand)
        return replace(expr, operand=operand)
    return expr


_NOT_FOLDED = object()


def _fold_binary(op: str, left: object, right: object):
    # Kleene logic folds differently from strict NULL propagation.
    if op == "and":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left) and bool(right)
    if op == "or":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return _NOT_FOLDED  # keep runtime error semantics
            if isinstance(left, int) and isinstance(right, int):
                quotient = left / right
                return int(quotient) if quotient >= 0 else -int(-quotient)
            return left / right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "and":
            return bool(left) and bool(right)
        if op == "or":
            return bool(left) or bool(right)
    except Exception:  # noqa: BLE001 - never fail a plan on folding
        return _NOT_FOLDED
    return _NOT_FOLDED
