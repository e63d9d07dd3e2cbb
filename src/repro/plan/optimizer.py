"""The rule-based optimizer pipeline."""

from __future__ import annotations

from typing import Callable, Optional

from . import logical as lp
from .cardinality import CardinalityEstimator
from .rules import (
    fold_constants,
    order_joins,
    prune_columns,
    push_down_limits,
    push_down_predicates,
    reassociate_invariant_joins,
)


class Optimizer:
    """Applies the rewrite rules in a fixed, dependency-aware order:

    1. constant folding (cheapens later selectivity decisions),
    2. predicate pushdown (the classical rule, bounded by the paper's
       section 5.2 restriction at analytics operators),
    3. limit pushdown (after predicates so a limit never slides past a
       filter that still needs to move),
    4. column pruning (after pushdown so pushed predicates' columns are
       accounted for),
    5. inside the step/stop plan of a loop only: join re-association,
       so loop-invariant relations join each other before they join the
       working table (and hoist as one unit),
    6. join order by C_out, the sum of estimated intermediate rows
       (loop bodies keep the binder's), each hash join building its
       smaller side — estimates may come from table statistics (see
       :mod:`repro.plan.cardinality`).

    Pass ``enabled=False`` (or construct with no stats) to execute the
    binder's plan untouched — used by the ablation benchmarks.
    """

    def __init__(
        self,
        row_count_of: Optional[Callable[[str], int]] = None,
        analytics=None,
        enabled: bool = True,
        stats=None,
        metrics=None,
    ):
        self.enabled = enabled
        self._metrics = metrics
        self._estimator = CardinalityEstimator(
            row_count_of if row_count_of is not None else (lambda name: 1000),
            analytics,
            stats=stats,
            metrics=metrics,
        )

    @property
    def estimator(self) -> CardinalityEstimator:
        return self._estimator

    def optimize(
        self, plan: lp.LogicalPlan, loop_key: Optional[str] = None
    ) -> lp.LogicalPlan:
        """``loop_key`` names the ITERATE / recursive CTE whose step or
        stop plan ``plan`` is (None for any other plan)."""
        if not self.enabled:
            return plan
        plan = fold_constants(plan)
        plan = push_down_predicates(plan)
        plan = push_down_limits(plan, self._count_limit_pushdown)
        plan = prune_columns(plan)
        if loop_key is not None:
            plan = reassociate_invariant_joins(
                plan, loop_key, self._estimator
            )
        plan = order_joins(plan, self._estimator, reorder=loop_key is None)
        return self._recurse_into_nested(plan)

    def _count_limit_pushdown(self) -> None:
        if self._metrics is not None:
            self._metrics.counter("limit_pushdown_total").inc()

    def estimate(self, plan: lp.LogicalPlan) -> float:
        """Estimated output rows (exposed for tests)."""
        return self._estimator.estimate(plan)

    def _recurse_into_nested(self, plan: lp.LogicalPlan) -> lp.LogicalPlan:
        """Optimize the nested plans of iterative and analytical
        operators independently: relational optimization applies *around*
        and *inside* the analytical algorithm, but not across it
        (section 5.2). The rules' own walks stop at these operators
        (:data:`~repro.plan.rules.NESTED_PLANS`), so each nested plan is
        optimized here, once."""
        if isinstance(plan, lp.LogicalIterate):
            return lp.LogicalIterate(
                key=plan.key,
                init=self.optimize(plan.init),
                step=self.optimize(plan.step, plan.key),
                stop=self.optimize(plan.stop, plan.key),
                output=plan.output,
                max_iterations=plan.max_iterations,
            )
        if isinstance(plan, lp.LogicalRecursiveCTE):
            return lp.LogicalRecursiveCTE(
                key=plan.key,
                init=self.optimize(plan.init),
                step=self.optimize(plan.step, plan.key),
                union_all=plan.union_all,
                output=plan.output,
                max_iterations=plan.max_iterations,
            )
        if isinstance(plan, lp.LogicalTableFunction):
            return lp.LogicalTableFunction(
                name=plan.name,
                inputs=[self.optimize(child) for child in plan.inputs],
                lambdas=plan.lambdas,
                params=plan.params,
                output=plan.output,
            )
        return plan.replace_children(
            [self._recurse_into_nested(c) for c in plan.children()]
        )
