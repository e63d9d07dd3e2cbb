"""Semantic analysis: AST -> bound logical plan.

The binder resolves names against the catalog and scopes, infers and
coerces types, classifies function calls (scalar built-in / aggregate /
UDF), detects correlation, expands stars, desugars simple CASE, rewrites
aggregate queries into aggregate + post-projection, and binds the paper's
extensions:

* ``ITERATE`` (section 5.1) -> :class:`LogicalIterate`,
* ``WITH RECURSIVE`` -> :class:`LogicalRecursiveCTE`,
* analytics table functions with lambda arguments (sections 6, 7)
  -> :class:`LogicalTableFunction` via the analytics operator registry.

Slots: every relation instance gets a fresh scope id; its columns get
slots ``t{n}.{col}``. Expression outputs get slots ``e{n}``. Slots are
globally unique inside one statement, so batches never carry ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from ..errors import BindError
from ..expr import bound as b
from ..expr.effects import effects, plan_effects
from ..plan import logical as lp
from ..plan.rules import as_equi_pair
from ..storage.schema import TableSchema
from ..types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    NULLTYPE,
    SQLType,
    TypeKind,
    VARCHAR,
    can_implicitly_cast,
    common_supertype,
    infer_literal_type,
    type_from_name,
)
from . import ast


class CatalogReader(Protocol):
    """What the binder needs from the environment."""

    def table_exists(self, name: str) -> bool: ...

    def schema_of(self, name: str) -> TableSchema: ...


@dataclass
class RelationBinding:
    """One relation visible in a scope."""

    alias: Optional[str]
    columns: list[lp.PlanColumn]

    def find(self, name: str) -> Optional[lp.PlanColumn]:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        return None


class Scope:
    """A name-resolution scope; chains to the parent for correlation."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.relations: list[RelationBinding] = []
        #: Outer slots referenced from within this scope's query
        #: (propagated upward so subquery nodes know their parameters).
        self.outer_refs: set[str] = set()
        #: For output scopes of plain (non-aggregate, non-distinct)
        #: SELECT cores: the FROM scope, so ORDER BY may reference
        #: non-projected columns via hidden sort columns.
        self.order_scope: Optional["Scope"] = None

    def add(self, binding: RelationBinding) -> None:
        if binding.alias is not None:
            lowered = binding.alias.lower()
            for existing in self.relations:
                if existing.alias and existing.alias.lower() == lowered:
                    raise BindError(
                        f"duplicate table alias {binding.alias!r}"
                    )
        self.relations.append(binding)

    def all_columns(self) -> list[lp.PlanColumn]:
        out: list[lp.PlanColumn] = []
        for rel in self.relations:
            out.extend(rel.columns)
        return out

    def resolve(
        self, name: str, table: Optional[str]
    ) -> tuple[lp.PlanColumn, bool]:
        """Resolve a column reference. Returns (column, is_outer)."""
        found = self._resolve_local(name, table)
        if found is not None:
            return found, False
        if self.parent is not None:
            col, _outer = self.parent.resolve(name, table)
            self.outer_refs.add(col.slot)
            return col, True
        target = f"{table}.{name}" if table else name
        raise BindError(f"column not found: {target!r}")

    def _resolve_local(
        self, name: str, table: Optional[str]
    ) -> Optional[lp.PlanColumn]:
        if table is not None:
            lowered = table.lower()
            for rel in self.relations:
                if rel.alias and rel.alias.lower() == lowered:
                    col = rel.find(name)
                    if col is None:
                        raise BindError(
                            f"column {name!r} not found in {table!r}"
                        )
                    return col
            return None
        matches = [
            col
            for rel in self.relations
            if (col := rel.find(name)) is not None
        ]
        if len(matches) > 1:
            raise BindError(f"ambiguous column reference: {name!r}")
        return matches[0] if matches else None


@dataclass
class _HiddenKey:
    """Marker: an ORDER BY key bound against the pre-projection scope."""

    expr: b.BoundExpr


@dataclass
class WorkingTableDef:
    """A name bound to an iterative operator's working relation."""

    key: str
    columns: list[tuple[str, SQLType]]  # (display name, type)


#: What a CTE name can resolve to while binding.
CTEDef = object  # LogicalPlan (inline) or WorkingTableDef


@dataclass
class _AggregateBinding:
    """What binding above one aggregation boundary reads and fills:
    the GROUP BY keys by ``repr`` of their bound expression, and the
    aggregate calls met so far."""

    scope: Scope
    ctes: dict
    group_map: dict[str, tuple[str, SQLType]]
    specs: list[lp.AggregateSpec]


class Binder:
    """Binds statements; one instance per statement (slot counter state)."""

    def __init__(
        self,
        catalog: CatalogReader,
        udfs=None,
        analytics=None,
        param_types=None,
    ):
        self.catalog = catalog
        self.udfs = udfs  # UDFRegistry or None
        self.analytics = analytics  # OperatorRegistry or None
        #: SQL types for ast.Placeholder slots (plan-cache mode), by index.
        self.param_types = param_types
        self._scope_counter = 0
        self._expr_counter = 0
        self._iterate_counter = 0

    # -- slot helpers -----------------------------------------------------

    def fresh_scope_id(self) -> str:
        self._scope_counter += 1
        return f"t{self._scope_counter}"

    def fresh_expr_slot(self) -> str:
        self._expr_counter += 1
        return f"e{self._expr_counter}"

    # ======================================================================
    # statements
    # ======================================================================

    def bind_query(self, stmt: ast.SelectStatement) -> lp.LogicalPlan:
        """Bind a full SELECT statement to a logical plan."""
        return self._bind_select(stmt, parent_scope=None, ctes={})

    def _bind_select(
        self,
        stmt: ast.SelectStatement,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> lp.LogicalPlan:
        ctes = dict(ctes)
        for cte in stmt.ctes:
            if cte.recursive and self._cte_is_self_referencing(cte):
                ctes[cte.name.lower()] = self._bind_recursive_cte(
                    cte, parent_scope, ctes
                )
            else:
                plan = self._bind_select(cte.query, parent_scope, ctes)
                plan = self._apply_column_aliases(plan, cte.column_names)
                ctes[cte.name.lower()] = plan

        plan, output_scope = self._bind_body(stmt.body, parent_scope, ctes)

        if stmt.order_by:
            plan = self._bind_order_by(plan, stmt.order_by, output_scope)
        if stmt.limit is not None or stmt.offset is not None:
            plan = lp.LogicalLimit(
                plan,
                self._constant_int(stmt.limit, "LIMIT"),
                self._constant_int(stmt.offset, "OFFSET") or 0,
            )
        return plan

    @staticmethod
    def _cte_is_self_referencing(cte: ast.CommonTableExpr) -> bool:
        """Heuristic check used only to decide recursive binding: does the
        CTE body's FROM mention its own name? (A full reference walk.)"""
        target = cte.name.lower()
        # One explicit stack, not mutually recursive closures: those
        # reach each other through their cells, a cycle per call.
        stack: list = [cte.query]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.TableRef):
                if node.name.lower() == target:
                    return True
            elif isinstance(node, (ast.Join, ast.SetOp)):
                stack += [node.left, node.right]
            elif isinstance(node, ast.SubqueryRef):
                stack.append(node.query)
            elif isinstance(node, ast.IterateRef):
                stack += [node.init_query, node.step_query, node.stop_query]
            elif isinstance(node, ast.TableFunction):
                stack += [
                    arg.query for arg in node.args if arg.query is not None
                ]
            elif isinstance(node, ast.SelectCore):
                if node.from_clause is not None:
                    stack.append(node.from_clause)
            elif isinstance(node, ast.SelectStatement):
                stack.append(node.body)
                stack += [inner.query for inner in node.ctes]
        return False

    def _apply_column_aliases(
        self, plan: lp.LogicalPlan, names: Optional[list[str]]
    ) -> lp.LogicalPlan:
        if not names:
            return plan
        if len(names) != len(plan.output):
            raise BindError(
                f"column alias list has {len(names)} names, query "
                f"produces {len(plan.output)} columns"
            )
        output = [
            lp.PlanColumn(alias, col.slot, col.sql_type)
            for alias, col in zip(names, plan.output)
        ]
        exprs = [
            b.BoundColumnRef(col.slot, col.sql_type, col.name)
            for col in plan.output
        ]
        return lp.LogicalProject(plan, exprs, output)

    # -- recursive CTEs -------------------------------------------------------

    def _bind_recursive_cte(
        self,
        cte: ast.CommonTableExpr,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> lp.LogicalPlan:
        body = cte.query.body
        if not isinstance(body, ast.SetOp) or body.op not in (
            "union", "union_all"
        ):
            raise BindError(
                "recursive CTE must be 'initial UNION [ALL] step'"
            )
        if cte.query.order_by or cte.query.limit is not None:
            raise BindError(
                "ORDER BY / LIMIT not allowed directly in a recursive CTE"
            )
        init_plan, _scope = self._bind_body(body.left, parent_scope, ctes)
        names = cte.column_names or [c.name for c in init_plan.output]
        if len(names) != len(init_plan.output):
            raise BindError(
                "recursive CTE column list arity mismatch"
            )
        key = f"rcte_{cte.name.lower()}_{self.fresh_scope_id()}"
        working = WorkingTableDef(
            key,
            [
                (name, col.sql_type)
                for name, col in zip(names, init_plan.output)
            ],
        )
        step_ctes = dict(ctes)
        step_ctes[cte.name.lower()] = working
        step_plan, _scope2 = self._bind_body(
            body.right, parent_scope, step_ctes
        )
        step_plan = self._coerce_to_layout(
            step_plan,
            [t for _n, t in working.columns],
            "recursive CTE step",
        )
        output = [
            lp.PlanColumn(name, self.fresh_expr_slot(), sql_type)
            for name, sql_type in working.columns
        ]
        return lp.LogicalRecursiveCTE(
            key=key,
            init=init_plan,
            step=step_plan,
            union_all=(body.op == "union_all"),
            output=output,
        )

    # -- query bodies -----------------------------------------------------------

    def _bind_body(
        self,
        body,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> tuple[lp.LogicalPlan, Scope]:
        if isinstance(body, ast.SetOp):
            return self._bind_setop(body, parent_scope, ctes)
        return self._bind_select_core(body, parent_scope, ctes)

    def _bind_setop(
        self,
        body: ast.SetOp,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> tuple[lp.LogicalPlan, Scope]:
        left, _ls = self._bind_body(body.left, parent_scope, ctes)
        right, _rs = self._bind_body(body.right, parent_scope, ctes)
        if len(left.output) != len(right.output):
            raise BindError(
                f"set operation arity mismatch: {len(left.output)} vs "
                f"{len(right.output)} columns"
            )
        types = [
            common_supertype(lc.sql_type, rc.sql_type)
            for lc, rc in zip(left.output, right.output)
        ]
        left = self._coerce_to_layout(left, types, "set operation")
        right = self._coerce_to_layout(right, types, "set operation")
        output = [
            lp.PlanColumn(col.name, self.fresh_expr_slot(), t)
            for col, t in zip(left.output, types)
        ]
        plan = lp.LogicalSetOp(body.op, left, right, output)
        scope = Scope(parent_scope)
        scope.add(RelationBinding(None, output))
        return plan, scope

    def _coerce_to_layout(
        self,
        plan: lp.LogicalPlan,
        types: list[SQLType],
        what: str,
    ) -> lp.LogicalPlan:
        """Insert a cast projection so ``plan`` outputs exactly ``types``."""
        if len(types) != len(plan.output):
            raise BindError(f"{what}: arity mismatch")
        needs_cast = any(
            col.sql_type != t and col.sql_type.kind != t.kind
            for col, t in zip(plan.output, types)
        )
        if not needs_cast:
            return plan
        exprs: list[b.BoundExpr] = []
        output: list[lp.PlanColumn] = []
        for col, t in zip(plan.output, types):
            ref: b.BoundExpr = b.BoundColumnRef(col.slot, col.sql_type, col.name)
            if col.sql_type.kind != t.kind:
                if not can_implicitly_cast(col.sql_type, t) and not (
                    t.is_numeric and col.sql_type.is_numeric
                ):
                    raise BindError(
                        f"{what}: cannot unify {col.sql_type} with {t}"
                    )
                ref = b.BoundCast(ref, t)
            slot = self.fresh_expr_slot()
            exprs.append(ref)
            output.append(lp.PlanColumn(col.name, slot, t))
        return lp.LogicalProject(plan, exprs, output)

    # -- SELECT core ----------------------------------------------------------------

    def _bind_select_core(
        self,
        core: ast.SelectCore,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> tuple[lp.LogicalPlan, Scope]:
        scope = Scope(parent_scope)
        if core.from_clause is not None:
            plan = self._bind_from(core.from_clause, scope, ctes)
        else:
            # SELECT without FROM: one conceptual row.
            plan = lp.LogicalValues(rows=[[]], output=[])

        if core.where is not None:
            predicate = self._bind_scalar(core.where, scope, ctes)
            self._require_boolean(predicate, "WHERE")
            plan = lp.LogicalFilter(plan, predicate)

        has_aggregates = any(
            self._contains_aggregate(item.expr) for item in core.items
        ) or (
            core.having is not None
            and self._contains_aggregate(core.having)
        )

        if core.group_by or has_aggregates:
            if any(
                self._contains_window(item.expr) for item in core.items
            ):
                raise BindError(
                    "window functions cannot be combined with GROUP BY "
                    "or aggregates in the same SELECT; compute the "
                    "aggregate in a derived table first"
                )
            plan, output = self._bind_aggregate_query(
                core, plan, scope, ctes
            )
        else:
            if core.having is not None:
                raise BindError("HAVING requires GROUP BY or aggregates")
            plan, output = self._bind_plain_projection(
                core, plan, scope, ctes
            )

        if core.distinct:
            plan = lp.LogicalDistinct(plan)

        out_scope = Scope(parent_scope)
        out_scope.add(RelationBinding(None, plan.output))
        if not (core.group_by or has_aggregates or core.distinct):
            # Plain projections allow ORDER BY on non-projected columns
            # (hidden sort columns); aggregates and DISTINCT restrict
            # ordering to the output, per SQL.
            out_scope.order_scope = scope
        return plan, out_scope

    def _bind_plain_projection(
        self,
        core: ast.SelectCore,
        plan: lp.LogicalPlan,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> tuple[lp.LogicalPlan, list[lp.PlanColumn]]:
        window_specs: list[lp.WindowSpec] = []
        exprs: list[b.BoundExpr] = []
        output: list[lp.PlanColumn] = []
        for item in self._expand_stars(core.items, scope):
            bound_expr = self._bind_select_item(
                item.expr, scope, ctes, window_specs
            )
            name = item.alias or self._derive_name(item.expr, len(output))
            slot = self.fresh_expr_slot()
            exprs.append(bound_expr)
            output.append(lp.PlanColumn(name, slot, bound_expr.sql_type))
        if window_specs:
            window_output = list(plan.output) + [
                lp.PlanColumn(spec.func_name, spec.slot, spec.sql_type)
                for spec in window_specs
            ]
            plan = lp.LogicalWindow(plan, window_specs, window_output)
        return lp.LogicalProject(plan, exprs, output), output

    def _bind_select_item(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctes: dict[str, CTEDef],
        window_specs: list[lp.WindowSpec],
    ) -> b.BoundExpr:
        """Bind one item of a plain projection; its window calls append
        to ``window_specs``."""
        if isinstance(expr, ast.WindowFunction):
            return self._bind_window_call(expr, scope, ctes, window_specs)
        if self._contains_window(expr):
            return self._rebind_composite(
                expr,
                lambda sub: self._bind_select_item(
                    sub, scope, ctes, window_specs
                ),
                scope,
                ctes,
            )
        return self._bind_scalar(expr, scope, ctes)

    def _contains_window(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.WindowFunction):
            return True
        return any(
            self._contains_window(child)
            for child in self._ast_children(expr)
        )

    def _bind_window_call(
        self,
        call: ast.WindowFunction,
        scope: Scope,
        ctes: dict[str, CTEDef],
        specs: list[lp.WindowSpec],
    ) -> b.BoundExpr:
        from ..expr.windows import lookup_window

        descriptor = lookup_window(call.name)
        if descriptor is None:
            raise BindError(
                f"unknown window function: {call.name!r}"
            )
        call_args = list(call.args)
        if (
            call.name.lower() == "count"
            and len(call_args) == 1
            and isinstance(call_args[0], ast.Star)
        ):
            call_args = []  # count(*) over (...) counts rows
        descriptor.check_arity(len(call_args))
        if descriptor.requires_order and not call.order_by:
            raise BindError(
                f"{call.name}() requires an ORDER BY in its window"
            )
        args = [self._bind_scalar(a, scope, ctes) for a in call_args]
        partition = [
            self._bind_scalar(p, scope, ctes) for p in call.partition_by
        ]
        order = [
            lp.SortKey(
                self._bind_scalar(item.expr, scope, ctes),
                item.descending,
                item.nulls_last,
            )
            for item in call.order_by
        ]
        result_type = descriptor.infer_type(
            [a.sql_type for a in args]
        )
        slot = self.fresh_expr_slot()
        specs.append(
            lp.WindowSpec(
                slot=slot,
                func_name=call.name,
                args=args,
                partition_by=partition,
                order_by=order,
                sql_type=result_type,
            )
        )
        return b.BoundColumnRef(slot, result_type)

    def _expand_stars(
        self, items: list[ast.SelectItem], scope: Scope
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            star: ast.Star = item.expr
            relations = scope.relations
            if star.table is not None:
                lowered = star.table.lower()
                relations = [
                    r
                    for r in scope.relations
                    if r.alias and r.alias.lower() == lowered
                ]
                if not relations:
                    raise BindError(f"unknown table in star: {star.table!r}")
            if not relations:
                raise BindError("SELECT * with no FROM relations")
            for rel in relations:
                for col in rel.columns:
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(col.name, rel.alias), col.name
                        )
                    )
        return expanded

    @staticmethod
    def _derive_name(expr: ast.Expr, ordinal: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FunctionCall):
            return expr.name
        if isinstance(expr, ast.Cast):
            return Binder._derive_name(expr.operand, ordinal)
        return f"column{ordinal + 1}"

    # -- aggregation -------------------------------------------------------------------

    def _contains_aggregate(self, expr: ast.Expr) -> bool:
        from ..expr import aggregates

        if isinstance(expr, ast.FunctionCall):
            if aggregates.is_aggregate_name(expr.name):
                return True
            return any(self._contains_aggregate(a) for a in expr.args)
        for child in self._ast_children(expr):
            if self._contains_aggregate(child):
                return True
        return False

    @staticmethod
    def _ast_children(expr: ast.Expr) -> list[ast.Expr]:
        if isinstance(expr, ast.Unary):
            return [expr.operand]
        if isinstance(expr, ast.Binary):
            return [expr.left, expr.right]
        if isinstance(expr, ast.FunctionCall):
            return list(expr.args)
        if isinstance(expr, ast.Cast):
            return [expr.operand]
        if isinstance(expr, ast.Case):
            out = []
            if expr.operand is not None:
                out.append(expr.operand)
            for cond, res in expr.whens:
                out.extend([cond, res])
            if expr.else_result is not None:
                out.append(expr.else_result)
            return out
        if isinstance(expr, ast.IsNull):
            return [expr.operand]
        if isinstance(expr, ast.InList):
            return [expr.operand, *expr.items]
        if isinstance(expr, ast.WindowFunction):
            out = list(expr.args) + list(expr.partition_by)
            out.extend(item.expr for item in expr.order_by)
            return out
        if isinstance(expr, (ast.InSubquery, ast.Like, ast.Between)):
            if isinstance(expr, ast.Between):
                return [expr.operand, expr.low, expr.high]
            if isinstance(expr, ast.Like):
                return [expr.operand, expr.pattern]
            return [expr.operand]
        return []

    def _bind_aggregate_query(
        self,
        core: ast.SelectCore,
        plan: lp.LogicalPlan,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> tuple[lp.LogicalPlan, list[lp.PlanColumn]]:
        items = self._expand_stars(core.items, scope)

        # 1. Bind the GROUP BY expressions (ordinals and aliases allowed).
        group_exprs: list[b.BoundExpr] = []
        group_slots: list[str] = []
        group_map: dict[str, tuple[str, SQLType]] = {}
        for g in core.group_by:
            resolved = self._resolve_group_item(g, items)
            bound_expr = self._bind_scalar(resolved, scope, ctes)
            slot = self.fresh_expr_slot()
            group_exprs.append(bound_expr)
            group_slots.append(slot)
            group_map[repr(bound_expr)] = (slot, bound_expr.sql_type)

        agg = _AggregateBinding(scope, ctes, group_map, [])

        # 2. Bind select items and HAVING above the aggregation.
        post_exprs: list[b.BoundExpr] = []
        output: list[lp.PlanColumn] = []
        for item in items:
            bound_expr = self._bind_in_agg_context(item.expr, agg)
            name = item.alias or self._derive_name(item.expr, len(output))
            slot = self.fresh_expr_slot()
            post_exprs.append(bound_expr)
            output.append(lp.PlanColumn(name, slot, bound_expr.sql_type))

        having_expr: Optional[b.BoundExpr] = None
        if core.having is not None:
            having_expr = self._bind_in_agg_context(core.having, agg)
            self._require_boolean(having_expr, "HAVING")

        agg_output = [
            lp.PlanColumn(f"group{i}", slot, expr.sql_type)
            for i, (slot, expr) in enumerate(zip(group_slots, group_exprs))
        ] + [
            lp.PlanColumn(spec.func_name, spec.slot, spec.sql_type)
            for spec in agg.specs
        ]
        plan = lp.LogicalAggregate(
            plan, group_exprs, group_slots, agg.specs, agg_output
        )
        if having_expr is not None:
            plan = lp.LogicalFilter(plan, having_expr)
        return lp.LogicalProject(plan, post_exprs, output), output

    def _bind_in_agg_context(
        self, expr: ast.Expr, agg: "_AggregateBinding"
    ) -> b.BoundExpr:
        """Bind an expression above the aggregation boundary."""
        from ..expr import aggregates as agg_registry

        scope, ctes = agg.scope, agg.ctes
        # Whole expression matches a GROUP BY item?
        if not self._contains_aggregate(expr):
            probe = self._bind_scalar(expr, scope, ctes)
            key = repr(probe)
            if key in agg.group_map:
                slot, sql_type = agg.group_map[key]
                return b.BoundColumnRef(slot, sql_type)
            if isinstance(probe, b.BoundLiteral):
                return probe
            if not effects(probe).reads:
                return probe
            if not self._ast_children(expr):
                # A bare column outside GROUP BY.
                raise BindError(
                    "expression must appear in GROUP BY or be used "
                    f"in an aggregate: {self._describe_ast(expr)}"
                )
            # A composite over group keys (``a + 1``, ``a IN (..)``)
            # rebuilds from its parts, like one over aggregates.
        if isinstance(expr, ast.FunctionCall) and (
            agg_registry.is_aggregate_name(expr.name)
        ):
            return self._bind_aggregate_call(expr, agg)
        # Recurse structurally, rebuilding the expression above the
        # aggregate boundary.
        return self._rebind_composite(
            expr, lambda sub: self._bind_in_agg_context(sub, agg),
            scope, ctes,
        )

    def _bind_aggregate_call(
        self, call: ast.FunctionCall, agg: "_AggregateBinding"
    ) -> b.BoundExpr:
        from ..expr import aggregates as agg_registry

        func = agg_registry.lookup(call.name)
        assert func is not None
        arg_expr: Optional[b.BoundExpr] = None
        func_name = call.name.lower()
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            if func_name != "count":
                raise BindError(
                    f"{call.name}(*) is not valid"
                )
            func_name = "count_star"
            func = agg_registry.lookup("count_star")
        elif func.needs_argument or call.args:
            if len(call.args) != 1:
                raise BindError(
                    f"aggregate {call.name}() takes one argument"
                )
            if self._contains_aggregate(call.args[0]):
                raise BindError("aggregates cannot be nested")
            arg_expr = self._bind_scalar(call.args[0], agg.scope, agg.ctes)
        result_type = func.infer_type(
            arg_expr.sql_type if arg_expr is not None else None
        )
        slot = self.fresh_expr_slot()
        agg.specs.append(
            lp.AggregateSpec(
                slot, func_name, arg_expr, call.distinct, result_type
            )
        )
        return b.BoundColumnRef(slot, result_type)

    def _resolve_group_item(
        self, expr: ast.Expr, items: list[ast.SelectItem]
    ) -> ast.Expr:
        """GROUP BY 1 / GROUP BY alias resolve to select-list items."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= len(items):
                raise BindError(f"GROUP BY position {ordinal} out of range")
            return items[ordinal - 1].expr
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in items:
                if item.alias and item.alias.lower() == expr.name.lower():
                    if self._contains_aggregate(item.expr):
                        raise BindError(
                            "cannot GROUP BY an aggregate expression"
                        )
                    return item.expr
        return expr

    def _rebind_composite(
        self,
        expr: ast.Expr,
        recurse: Callable[[ast.Expr], b.BoundExpr],
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> b.BoundExpr:
        """Rebuild a composite AST expression with ``recurse`` applied to
        sub-expressions (used above the aggregation boundary)."""
        if isinstance(expr, ast.Unary):
            operand = recurse(expr.operand)
            return self._make_unary(expr.op, operand)
        if isinstance(expr, ast.Binary):
            return self._make_binary(
                expr.op, recurse(expr.left), recurse(expr.right)
            )
        if isinstance(expr, ast.FunctionCall):
            args = [recurse(a) for a in expr.args]
            return self._make_function(expr.name, args)
        if isinstance(expr, ast.Cast):
            target = type_from_name(expr.type_name, expr.width)
            return b.BoundCast(recurse(expr.operand), target)
        if isinstance(expr, ast.Case):
            return self._make_case(expr, recurse)
        if isinstance(expr, ast.IsNull):
            return b.BoundIsNull(recurse(expr.operand), expr.negated)
        if isinstance(expr, ast.InList):
            return self._make_in_list(
                recurse(expr.operand),
                [recurse(i) for i in expr.items],
                expr.negated,
            )
        if isinstance(expr, ast.Between):
            return self._make_between(
                recurse(expr.operand), recurse(expr.low),
                recurse(expr.high), expr.negated,
            )
        if isinstance(expr, ast.Like):
            return b.BoundLike(
                recurse(expr.operand), recurse(expr.pattern), expr.negated
            )
        if isinstance(expr, ast.InSubquery):
            # The probe is rebuilt; the subquery binds as anywhere else.
            probe = recurse(expr.operand)
            return self._bind_subquery_expr(
                expr.query, "in", scope, ctes, probe, expr.negated
            )
        raise BindError(
            f"unsupported expression above aggregation: "
            f"{type(expr).__name__}"
        )

    @staticmethod
    def _describe_ast(expr: ast.Expr) -> str:
        if isinstance(expr, ast.ColumnRef):
            return str(expr)
        return type(expr).__name__

    # -- ORDER BY ---------------------------------------------------------------------

    def _bind_order_by(
        self,
        plan: lp.LogicalPlan,
        order_by: list[ast.OrderItem],
        output_scope: Scope,
    ) -> lp.LogicalPlan:
        keys: list[lp.SortKey] = []
        #: Keys referencing non-projected columns, evaluated below the
        #: final projection via hidden sort columns.
        hidden: list[b.BoundExpr] = []
        hidden_key_index: list[int] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(plan.output):
                    raise BindError(
                        f"ORDER BY position {ordinal} out of range"
                    )
                col = plan.output[ordinal - 1]
                bound_expr: b.BoundExpr = b.BoundColumnRef(
                    col.slot, col.sql_type, col.name
                )
            else:
                try:
                    bound_expr = self._bind_scalar(expr, output_scope, {})
                except BindError:
                    bound_expr = self._bind_order_fallback(
                        expr, output_scope
                    )
                    if bound_expr is None:
                        raise
                    if isinstance(bound_expr, _HiddenKey):
                        hidden.append(bound_expr.expr)
                        hidden_key_index.append(len(keys))
                        bound_expr = bound_expr.expr
            keys.append(
                lp.SortKey(bound_expr, item.descending, item.nulls_last)
            )

        if not hidden:
            return lp.LogicalSort(plan, keys)
        return self._sort_with_hidden_columns(
            plan, keys, hidden, hidden_key_index
        )

    def _bind_order_fallback(self, expr: ast.Expr, output_scope: Scope):
        """Resolve an ORDER BY key that is not visible in the output:
        first a qualified name whose bare column is projected, then the
        pre-projection scope (yielding a hidden sort column)."""
        if isinstance(expr, ast.ColumnRef) and expr.table is not None:
            try:
                return self._bind_scalar(
                    ast.ColumnRef(expr.name), output_scope, {}
                )
            except BindError:
                pass
        if output_scope.order_scope is not None:
            bound = self._bind_scalar(
                expr, output_scope.order_scope, {}
            )
            return _HiddenKey(bound)
        return None

    def _sort_with_hidden_columns(
        self,
        plan: lp.LogicalPlan,
        keys: list[lp.SortKey],
        hidden: list[b.BoundExpr],
        hidden_key_index: list[int],
    ) -> lp.LogicalPlan:
        """Extend the top projection with hidden sort columns, sort,
        then project them away again."""
        if not isinstance(plan, lp.LogicalProject):
            raise BindError(
                "ORDER BY references a column that is not in the "
                "query's output"
            )
        extended_exprs = list(plan.exprs)
        extended_output = list(plan.output)
        for i, expr in enumerate(hidden):
            slot = self.fresh_expr_slot()
            extended_exprs.append(expr)
            extended_output.append(
                lp.PlanColumn(f"__sort{i}", slot, expr.sql_type)
            )
            keys[hidden_key_index[i]] = lp.SortKey(
                b.BoundColumnRef(slot, expr.sql_type),
                keys[hidden_key_index[i]].descending,
                keys[hidden_key_index[i]].nulls_last,
            )
        extended = lp.LogicalProject(
            plan.child, extended_exprs, extended_output
        )
        sorted_plan = lp.LogicalSort(extended, keys)
        final_exprs = [
            b.BoundColumnRef(c.slot, c.sql_type, c.name)
            for c in plan.output
        ]
        final_output = [
            lp.PlanColumn(c.name, self.fresh_expr_slot(), c.sql_type)
            for c in plan.output
        ]
        return lp.LogicalProject(sorted_plan, final_exprs, final_output)

    def _constant_int(
        self, expr: Optional[ast.Expr], what: str
    ) -> Optional[int]:
        if expr is None:
            return None
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if expr.value < 0:
                raise BindError(f"{what} must be non-negative")
            return expr.value
        raise BindError(f"{what} must be an integer literal")

    # ======================================================================
    # FROM clause
    # ======================================================================

    def _bind_from(
        self,
        table_expr: ast.TableExpr,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> lp.LogicalPlan:
        if isinstance(table_expr, ast.TableRef):
            return self._bind_table_ref(table_expr, scope, ctes)
        if isinstance(table_expr, ast.SubqueryRef):
            return self._bind_subquery_ref(table_expr, scope, ctes)
        if isinstance(table_expr, ast.ValuesRef):
            return self._bind_values_ref(table_expr, scope, ctes)
        if isinstance(table_expr, ast.Join):
            return self._bind_join(table_expr, scope, ctes)
        if isinstance(table_expr, ast.IterateRef):
            return self._bind_iterate(table_expr, scope, ctes)
        if isinstance(table_expr, ast.TableFunction):
            return self._bind_table_function(table_expr, scope, ctes)
        raise BindError(
            f"unsupported FROM element: {type(table_expr).__name__}"
        )

    def _bind_table_ref(
        self, ref: ast.TableRef, scope: Scope, ctes: dict[str, CTEDef]
    ) -> lp.LogicalPlan:
        name = ref.name.lower()
        alias = ref.alias or ref.name

        definition = ctes.get(name)
        if isinstance(definition, WorkingTableDef):
            output = [
                lp.PlanColumn(
                    col_name, f"{self.fresh_scope_id()}.{col_name}", t
                )
                for col_name, t in definition.columns
            ]
            plan: lp.LogicalPlan = lp.LogicalWorkingTableRef(
                definition.key, output
            )
            scope.add(RelationBinding(alias, output))
            return plan
        if definition is not None:
            # Inline CTE: re-alias its output with fresh slots so two
            # references to the same CTE never collide.
            cte_plan: lp.LogicalPlan = definition  # type: ignore[assignment]
            scope_id = self.fresh_scope_id()
            output = [
                lp.PlanColumn(c.name, f"{scope_id}.{c.name}", c.sql_type)
                for c in cte_plan.output
            ]
            exprs = [
                b.BoundColumnRef(c.slot, c.sql_type, c.name)
                for c in cte_plan.output
            ]
            plan = lp.LogicalProject(cte_plan, exprs, output)
            scope.add(RelationBinding(alias, output))
            return plan

        if not self.catalog.table_exists(name):
            raise BindError(f"no such table: {ref.name!r}")
        schema = self.catalog.schema_of(name)
        scope_id = self.fresh_scope_id()
        output = [
            lp.PlanColumn(c.name, f"{scope_id}.{c.name}", c.sql_type)
            for c in schema
        ]
        plan = lp.LogicalScan(name, output)
        scope.add(RelationBinding(alias, output))
        return plan

    def _bind_subquery_ref(
        self, ref: ast.SubqueryRef, scope: Scope, ctes: dict[str, CTEDef]
    ) -> lp.LogicalPlan:
        plan = self._bind_select(ref.query, scope.parent, ctes)
        names = ref.column_aliases or [c.name for c in plan.output]
        if len(names) != len(plan.output):
            raise BindError("derived-table column alias arity mismatch")
        scope_id = self.fresh_scope_id()
        output = [
            lp.PlanColumn(n, f"{scope_id}.{n}", c.sql_type)
            for n, c in zip(names, plan.output)
        ]
        exprs = [
            b.BoundColumnRef(c.slot, c.sql_type, c.name)
            for c in plan.output
        ]
        wrapped = lp.LogicalProject(plan, exprs, output)
        scope.add(RelationBinding(ref.alias, output))
        return wrapped

    def _bind_values_ref(
        self, ref: ast.ValuesRef, scope: Scope, ctes: dict[str, CTEDef]
    ) -> lp.LogicalPlan:
        if not ref.rows:
            raise BindError("VALUES requires at least one row")
        width = len(ref.rows[0])
        bound_rows: list[list[b.BoundExpr]] = []
        for row in ref.rows:
            if len(row) != width:
                raise BindError("VALUES rows differ in arity")
            bound_rows.append(
                [self._bind_scalar(e, Scope(scope.parent), ctes) for e in row]
            )
        types: list[SQLType] = []
        for i in range(width):
            t = NULLTYPE
            for row in bound_rows:
                t = common_supertype(t, row[i].sql_type)
            if t.kind is TypeKind.NULL:
                t = VARCHAR
            types.append(t)
        names = ref.column_aliases or [
            f"column{i + 1}" for i in range(width)
        ]
        scope_id = self.fresh_scope_id()
        output = [
            lp.PlanColumn(n, f"{scope_id}.{n}", t)
            for n, t in zip(names, types)
        ]
        plan = lp.LogicalValues(rows=bound_rows, output=output)
        scope.add(RelationBinding(ref.alias, output))
        return plan

    def _bind_join(
        self, join: ast.Join, scope: Scope, ctes: dict[str, CTEDef]
    ) -> lp.LogicalPlan:
        left = self._bind_from(join.left, scope, ctes)
        right = self._bind_from(join.right, scope, ctes)
        output = list(left.output) + list(right.output)

        if join.kind == "cross":
            return lp.LogicalJoin(
                "cross", left, right, [], None, output
            )

        condition: Optional[b.BoundExpr]
        if join.using:
            clauses: list[b.BoundExpr] = []
            left_names = {c.slot: c for c in left.output}
            for col_name in join.using:
                lcol = self._find_output_column(left, col_name, "left")
                rcol = self._find_output_column(right, col_name, "right")
                clauses.append(
                    self._make_binary(
                        "=",
                        b.BoundColumnRef(lcol.slot, lcol.sql_type, lcol.name),
                        b.BoundColumnRef(rcol.slot, rcol.sql_type, rcol.name),
                    )
                )
            condition = clauses[0]
            for clause in clauses[1:]:
                condition = b.BoundBinary("and", condition, clause, BOOLEAN)
        else:
            assert join.condition is not None
            condition = self._bind_scalar(join.condition, scope, ctes)
            self._require_boolean(condition, "JOIN ON")
            self._check_on_scope(condition, output, scope)

        equi, residual = self._split_equi_keys(condition, left, right)
        return lp.LogicalJoin(
            join.kind, left, right, equi, residual, output
        )

    @staticmethod
    def _check_on_scope(
        condition: b.BoundExpr,
        output: list[lp.PlanColumn],
        scope: Scope,
    ) -> None:
        """Reject ON conditions referencing FROM entries outside the
        join's own operands (PostgreSQL semantics; SQLite would accept
        them). Without this check the reference resolves at bind time
        but its slot is absent from the join's batches at execution."""
        used = effects(condition).consumed
        display: dict[str, str] = {}
        stack = [condition]
        while stack:
            node = stack.pop()
            if isinstance(node, b.BoundColumnRef) and node.display:
                display[node.slot] = node.display
            stack.extend(node.children())
        available = {c.slot for c in output}
        missing = used - available - scope.outer_refs
        if missing:
            names = ", ".join(
                sorted(display.get(slot, slot) for slot in missing)
            )
            raise BindError(
                "JOIN ON may only reference columns of its own "
                f"operands; out of scope: {names}"
            )

    @staticmethod
    def _find_output_column(
        plan: lp.LogicalPlan, name: str, side: str
    ) -> lp.PlanColumn:
        lowered = name.lower()
        matches = [c for c in plan.output if c.name.lower() == lowered]
        if not matches:
            raise BindError(
                f"USING column {name!r} not found on {side} side"
            )
        if len(matches) > 1:
            raise BindError(f"USING column {name!r} ambiguous on {side}")
        return matches[0]

    def _split_equi_keys(
        self,
        condition: b.BoundExpr,
        left: lp.LogicalPlan,
        right: lp.LogicalPlan,
    ) -> tuple[list[tuple[b.BoundExpr, b.BoundExpr]], Optional[b.BoundExpr]]:
        """Split an AND-tree into hashable equi-key pairs + a residual."""
        left_slots = set(left.output_slots())
        right_slots = set(right.output_slots())
        equi: list[tuple[b.BoundExpr, b.BoundExpr]] = []
        residual: list[b.BoundExpr] = []
        for conj in b.split_conjuncts(condition):
            pair = (
                None if effects(conj).subqueries
                else as_equi_pair(conj, left_slots, right_slots)
            )
            if pair is None:
                residual.append(conj)
            else:
                equi.append(pair)
        return equi, b.conjoin(residual)

    # -- ITERATE (section 5.1) ---------------------------------------------------------

    def _bind_iterate(
        self, ref: ast.IterateRef, scope: Scope, ctes: dict[str, CTEDef]
    ) -> lp.LogicalPlan:
        init_plan = self._bind_select(ref.init_query, scope.parent, ctes)
        self._iterate_counter += 1
        key = f"iterate_{self._iterate_counter}"
        working = WorkingTableDef(
            key,
            [(c.name, c.sql_type) for c in init_plan.output],
        )
        inner_ctes = dict(ctes)
        inner_ctes["iterate"] = working
        step_plan = self._bind_select(
            ref.step_query, scope.parent, inner_ctes
        )
        step_plan = self._coerce_to_layout(
            step_plan,
            [c.sql_type for c in init_plan.output],
            "ITERATE step",
        )
        stop_plan = self._bind_select(
            ref.stop_query, scope.parent, inner_ctes
        )
        scope_id = self.fresh_scope_id()
        alias = ref.alias or "iterate"
        output = [
            lp.PlanColumn(c.name, f"{scope_id}.{c.name}", c.sql_type)
            for c in init_plan.output
        ]
        plan = lp.LogicalIterate(
            key=key, init=init_plan, step=step_plan, stop=stop_plan,
            output=output,
        )
        scope.add(RelationBinding(alias, output))
        return plan

    # -- analytics table functions (sections 6-7) ------------------------------------------

    def _bind_table_function(
        self,
        func: ast.TableFunction,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> lp.LogicalPlan:
        if self.analytics is None:
            raise BindError(
                f"no table function registry available for {func.name!r}"
            )
        descriptor = self.analytics.lookup(func.name)
        if descriptor is None:
            raise BindError(f"unknown table function: {func.name!r}")
        node = descriptor.bind(self, func, scope.parent, ctes)
        alias = func.alias or func.name.lower()
        scope.add(RelationBinding(alias, node.output))
        return node

    # Helpers exposed to operator descriptors -------------------------------

    def bind_subquery_arg(
        self,
        query: ast.SelectStatement,
        parent_scope: Optional[Scope],
        ctes: dict[str, CTEDef],
    ) -> lp.LogicalPlan:
        """Bind a subquery argument of a table function."""
        return self._bind_select(query, parent_scope, ctes)

    def bind_lambda_arg(
        self,
        lam: ast.LambdaExpr,
        param_schemas: list[list[tuple[str, SQLType]]],
    ) -> b.BoundLambda:
        """Bind a lambda against the tuple layouts of its parameters.

        ``param_schemas[i]`` lists (attribute, type) for parameter ``i``.
        Types are inferred — the user never declares them (section 7).
        """
        if len(lam.params) != len(param_schemas):
            raise BindError(
                f"lambda takes {len(param_schemas)} parameters, "
                f"got {len(lam.params)}"
            )
        lambda_scope = Scope()
        param_attrs: dict[str, list[str]] = {}
        for param, attrs in zip(lam.params, param_schemas):
            columns = [
                lp.PlanColumn(attr, f"{param}.{attr}", t)
                for attr, t in attrs
            ]
            lambda_scope.add(RelationBinding(param, columns))
            param_attrs[param] = [attr for attr, _t in attrs]
        body = self._bind_scalar(lam.body, lambda_scope, {})
        return b.BoundLambda(
            params=list(lam.params), body=body, param_attrs=param_attrs
        )

    def bind_standalone(
        self, expr: ast.Expr, columns: list[lp.PlanColumn]
    ) -> b.BoundExpr:
        """Bind an expression against a flat column list (UPDATE SET,
        DELETE WHERE — no query context)."""
        scope = Scope()
        scope.add(RelationBinding(None, columns))
        return self._bind_scalar(expr, scope, {})

    def constant_scalar(self, expr: ast.Expr, what: str) -> object:
        """Evaluate a constant scalar table-function argument."""
        bound_expr = self._bind_scalar(expr, Scope(), {})
        if isinstance(bound_expr, b.BoundLiteral):
            return bound_expr.value
        if (
            isinstance(bound_expr, b.BoundUnary)
            and bound_expr.op == "-"
            and isinstance(bound_expr.operand, b.BoundLiteral)
        ):
            return -bound_expr.operand.value  # type: ignore[operator]
        raise BindError(f"{what} must be a constant scalar")

    # ======================================================================
    # scalar expressions
    # ======================================================================

    def _bind_scalar(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> b.BoundExpr:
        if isinstance(expr, ast.Literal):
            return b.BoundLiteral(expr.value, infer_literal_type(expr.value))
        if isinstance(expr, ast.Placeholder):
            if self.param_types is None or expr.index >= len(
                self.param_types
            ):
                raise BindError(
                    "? placeholder outside a parameterized statement"
                )
            return b.BoundParam(
                f"?{expr.index}", self.param_types[expr.index]
            )
        if isinstance(expr, ast.ColumnRef):
            col, is_outer = scope.resolve(expr.name, expr.table)
            if is_outer:
                return b.BoundParam(col.slot, col.sql_type)
            return b.BoundColumnRef(col.slot, col.sql_type, str(expr))
        if isinstance(expr, ast.Star):
            raise BindError("* is only allowed in SELECT lists and COUNT(*)")
        if isinstance(expr, ast.Unary):
            return self._make_unary(
                expr.op, self._bind_scalar(expr.operand, scope, ctes)
            )
        if isinstance(expr, ast.Binary):
            return self._make_binary(
                expr.op,
                self._bind_scalar(expr.left, scope, ctes),
                self._bind_scalar(expr.right, scope, ctes),
            )
        if isinstance(expr, ast.FunctionCall):
            return self._bind_function_call(expr, scope, ctes)
        if isinstance(expr, ast.Cast):
            target = type_from_name(expr.type_name, expr.width)
            return b.BoundCast(
                self._bind_scalar(expr.operand, scope, ctes), target
            )
        if isinstance(expr, ast.Case):
            return self._make_case(
                expr, lambda e: self._bind_scalar(e, scope, ctes)
            )
        if isinstance(expr, ast.IsNull):
            return b.BoundIsNull(
                self._bind_scalar(expr.operand, scope, ctes), expr.negated
            )
        if isinstance(expr, ast.InList):
            return self._make_in_list(
                self._bind_scalar(expr.operand, scope, ctes),
                [self._bind_scalar(i, scope, ctes) for i in expr.items],
                expr.negated,
            )
        if isinstance(expr, ast.Between):
            return self._make_between(
                self._bind_scalar(expr.operand, scope, ctes),
                self._bind_scalar(expr.low, scope, ctes),
                self._bind_scalar(expr.high, scope, ctes),
                expr.negated,
            )
        if isinstance(expr, ast.Like):
            operand = self._bind_scalar(expr.operand, scope, ctes)
            pattern = self._bind_scalar(expr.pattern, scope, ctes)
            if operand.sql_type.kind not in (
                TypeKind.VARCHAR, TypeKind.NULL
            ):
                raise BindError("LIKE requires a string operand")
            return b.BoundLike(operand, pattern, expr.negated)
        if isinstance(expr, ast.ScalarSubquery):
            return self._bind_subquery_expr(expr.query, "scalar", scope, ctes)
        if isinstance(expr, ast.Exists):
            return self._bind_subquery_expr(
                expr.query, "exists", scope, ctes, negated=expr.negated
            )
        if isinstance(expr, ast.InSubquery):
            probe = self._bind_scalar(expr.operand, scope, ctes)
            return self._bind_subquery_expr(
                expr.query, "in", scope, ctes, probe, expr.negated
            )
        if isinstance(expr, ast.WindowFunction):
            raise BindError(
                "window functions are only allowed in the SELECT list"
            )
        if isinstance(expr, ast.LambdaExpr):
            raise BindError(
                "lambda expressions are only valid as analytics operator "
                "arguments"
            )
        raise BindError(
            f"unsupported expression: {type(expr).__name__}"
        )

    def _bind_subquery_expr(
        self,
        query: ast.SelectStatement,
        kind: str,
        scope: Scope,
        ctes: dict[str, CTEDef],
        probe: Optional[b.BoundExpr] = None,
        negated: bool = False,
    ) -> b.BoundSubquery:
        inner_scope_parent = scope
        # Bind with the current scope as parent so the subquery can
        # correlate; collect which outer slots it actually used.
        before = set(scope.outer_refs)
        plan = self._bind_select(query, inner_scope_parent, ctes)
        # Outer refs recorded on `scope` during the child bind are the
        # correlation parameters whose values come from *this* query's
        # rows. Refs that resolve even further out stay as params of the
        # enclosing query and are forwarded transparently.
        used = plan_effects(plan).params
        own = {s for s in used if s in {c.slot for c in scope.all_columns()}}
        scope.outer_refs = before | (used - own)
        if kind == "scalar":
            if len(plan.output) != 1:
                raise BindError("scalar subquery must return one column")
            sql_type = plan.output[0].sql_type
        elif kind == "in":
            if len(plan.output) != 1:
                raise BindError("IN subquery must return one column")
            sql_type = BOOLEAN
        else:
            sql_type = BOOLEAN
        return b.BoundSubquery(
            plan=plan, kind=kind, sql_type=sql_type, probe=probe,
            negated=negated, outer_slots=tuple(sorted(own)),
        )

    # -- expression constructors with type rules --------------------------------------

    def _make_unary(self, op: str, operand: b.BoundExpr) -> b.BoundExpr:
        if op == "-":
            if not (
                operand.sql_type.is_numeric
                or operand.sql_type.kind is TypeKind.NULL
            ):
                raise BindError(f"cannot negate {operand.sql_type}")
            return b.BoundUnary("-", operand, operand.sql_type)
        if op == "not":
            self._require_boolean(operand, "NOT")
            return b.BoundUnary("not", operand, BOOLEAN)
        raise BindError(f"unknown unary operator {op!r}")

    def _make_binary(
        self, op: str, left: b.BoundExpr, right: b.BoundExpr
    ) -> b.BoundExpr:
        if op in ("and", "or"):
            self._require_boolean(left, op.upper())
            self._require_boolean(right, op.upper())
            return b.BoundBinary(op, left, right, BOOLEAN)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            common = common_supertype(left.sql_type, right.sql_type)
            left = self._maybe_cast(left, common)
            right = self._maybe_cast(right, common)
            return b.BoundBinary(op, left, right, BOOLEAN)
        if op == "||":
            return b.BoundBinary("||", left, right, VARCHAR)
        if op in ("+", "-", "*", "/", "%"):
            common = common_supertype(left.sql_type, right.sql_type)
            if not (common.is_numeric or common.kind is TypeKind.NULL):
                raise BindError(
                    f"operator {op} requires numeric operands, got "
                    f"{left.sql_type} and {right.sql_type}"
                )
            if common.kind is TypeKind.NULL:
                common = DOUBLE
            left = self._maybe_cast(left, common)
            right = self._maybe_cast(right, common)
            return b.BoundBinary(op, left, right, common)
        if op == "^":
            for side in (left, right):
                if not (
                    side.sql_type.is_numeric
                    or side.sql_type.kind is TypeKind.NULL
                ):
                    raise BindError("operator ^ requires numeric operands")
            return b.BoundBinary("^", left, right, DOUBLE)
        raise BindError(f"unknown binary operator {op!r}")

    def _maybe_cast(self, expr: b.BoundExpr, target: SQLType) -> b.BoundExpr:
        if expr.sql_type.kind == target.kind:
            return expr
        if expr.sql_type.kind is TypeKind.NULL:
            return b.BoundCast(expr, target)
        return b.BoundCast(expr, target)

    def _make_function(
        self, name: str, args: list[b.BoundExpr]
    ) -> b.BoundExpr:
        from ..expr import functions

        func = functions.lookup(name)
        if func is not None:
            func.check_arity(len(args))
            result = func.infer_type([a.sql_type for a in args])
            return b.BoundFunction(name.lower(), args, result)
        if self.udfs is not None:
            udf = self.udfs.lookup_scalar(name)
            if udf is not None:
                udf.check_arity(len(args))
                return b.BoundUDF(
                    name.lower(), udf.func, args, udf.return_type
                )
        raise BindError(f"unknown function: {name!r}")

    def _bind_function_call(
        self,
        call: ast.FunctionCall,
        scope: Scope,
        ctes: dict[str, CTEDef],
    ) -> b.BoundExpr:
        from ..expr import aggregates

        if aggregates.is_aggregate_name(call.name):
            raise BindError(
                f"aggregate {call.name}() is not allowed here"
            )
        args = [self._bind_scalar(a, scope, ctes) for a in call.args]
        return self._make_function(call.name, args)

    def _make_case(
        self,
        expr: ast.Case,
        recurse: Callable[[ast.Expr], b.BoundExpr],
    ) -> b.BoundExpr:
        whens: list[tuple[b.BoundExpr, b.BoundExpr]] = []
        operand = recurse(expr.operand) if expr.operand is not None else None
        result_type = NULLTYPE
        for cond_ast, result_ast in expr.whens:
            cond = recurse(cond_ast)
            if operand is not None:
                cond = self._make_binary("=", operand, cond)
            else:
                self._require_boolean(cond, "CASE WHEN")
            result = recurse(result_ast)
            result_type = common_supertype(result_type, result.sql_type)
            whens.append((cond, result))
        else_result = (
            recurse(expr.else_result)
            if expr.else_result is not None
            else None
        )
        if else_result is not None:
            result_type = common_supertype(
                result_type, else_result.sql_type
            )
        if result_type.kind is TypeKind.NULL:
            result_type = VARCHAR
        return b.BoundCase(whens, else_result, result_type)

    def _make_in_list(
        self,
        operand: b.BoundExpr,
        items: list[b.BoundExpr],
        negated: bool,
    ) -> b.BoundExpr:
        common = operand.sql_type
        for item in items:
            common = common_supertype(common, item.sql_type)
        operand = self._maybe_cast(operand, common)
        items = [self._maybe_cast(i, common) for i in items]
        return b.BoundInList(operand, items, negated)

    def _make_between(
        self,
        operand: b.BoundExpr,
        low: b.BoundExpr,
        high: b.BoundExpr,
        negated: bool,
    ) -> b.BoundExpr:
        lower = self._make_binary("<=", low, operand)
        upper = self._make_binary("<=", operand, high)
        both = b.BoundBinary("and", lower, upper, BOOLEAN)
        if negated:
            return b.BoundUnary("not", both, BOOLEAN)
        return both

    @staticmethod
    def _require_boolean(expr: b.BoundExpr, where: str) -> None:
        if expr.sql_type.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
            raise BindError(
                f"{where} requires a boolean expression, got "
                f"{expr.sql_type}"
            )
