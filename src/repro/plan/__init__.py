"""Logical query plans, optimizer rules, and cardinality estimation.

The optimizer is imported from :mod:`repro.plan.optimizer`: its rules
ask :mod:`repro.expr.effects`, which reads the plan node classes here.
"""

from .logical import LogicalPlan, PlanColumn

__all__ = ["LogicalPlan", "PlanColumn"]
