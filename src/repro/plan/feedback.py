"""Cardinality feedback: observed rows from history drive re-planning.

``explain_analyze``-grade profiling already records, for every executed
operator, the optimizer's estimate next to the observed row count (the
query-history store keeps them per statement fingerprint). This module
closes the loop:

* every profiled operator is stamped with a **structural node key** —
  operator class plus the sorted set of base tables beneath it plus an
  occurrence index (``Join[lineitem,orders]#0``). The key is invariant
  under join build-side swaps, the one estimate-dependent rewrite, so
  an observation recorded against one plan variant still matches the
  node after re-optimization flips it;
* :class:`CardinalityFeedback` aggregates those observations per
  fingerprint into estimate **overrides** (mean observed rows per node
  key) that :class:`~repro.plan.cardinality.CardinalityEstimator`
  prefers over both static heuristics and table statistics;
* on a plan-cache hit the session asks :meth:`CardinalityFeedback.
  wants_replan` whether the overrides would flip a join build side the
  cached plan committed to. If so, the session bumps its plan-cache
  epoch: the stale plan is re-optimized (now under feedback estimates)
  instead of reused. Re-optimized plans are fixpoints of the build-side
  rule, so the signal fires at most once per feedback change — the
  cache cannot thrash.

Ambiguous keys (the same class-plus-tables shape occurring more than
once in a plan, e.g. a self-join's two scans) are dropped rather than
guessed, so feedback never applies an observation to the wrong node.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from . import logical as lp

#: Most-recently-used fingerprints retained in the feedback cache.
FEEDBACK_CAPACITY = 256


def collect_base_tables(plan: lp.LogicalPlan) -> list[str]:
    """Sorted base-table names scanned anywhere beneath ``plan``."""
    tables: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, lp.LogicalScan):
            tables.add(node.table_name)
        stack.extend(node.children())
    return sorted(tables)


def feedback_key_base(plan: lp.LogicalPlan) -> str:
    """The swap-invariant part of a node's feedback key."""
    name = type(plan).__name__
    if name.startswith("Logical"):
        name = name[len("Logical"):]
    return f"{name}[{','.join(collect_base_tables(plan))}]"


def split_node_key(key: str) -> tuple[str, int]:
    """``Join[a,b]#1`` -> (``Join[a,b]``, 1)."""
    base, _, idx = key.rpartition("#")
    try:
        return base, int(idx)
    except ValueError:
        return key, 0


class CardinalityFeedback:
    """Per-fingerprint cache of observed-cardinality overrides.

    ``history`` is the session's :class:`~repro.obs.history.QueryHistory`.
    A fingerprint's overrides are cached against its execution count in
    the history and rebuilt when that count has moved. Every recorded
    execution moves it, so a statement that runs repeatedly rebuilds its
    overrides on *every* execution: :meth:`overrides_for` walks all the
    fingerprint's retained records, which also forces the history's
    deferred records into being. The cache only answers repeated
    lookups within one execution. (ROADMAP item 2 (b) has the measurement
    and the fix that is still to do.)
    """

    def __init__(self, history, metrics=None):
        self._history = history
        self._metrics = metrics
        #: fingerprint -> {"count": int, "overrides": {base_key: rows}}
        self._states: OrderedDict[str, dict] = OrderedDict()

    def overrides_for(self, fingerprint: Optional[str]) -> dict[str, float]:
        """Current overrides for ``fingerprint``, refreshed from history
        when new executions were recorded. Empty dict when none apply."""
        if not fingerprint or self._history is None:
            return {}
        count = self._history.execution_count(fingerprint)
        if count <= 0:
            return {}
        state = self._states.get(fingerprint)
        if state is not None and state["count"] == count:
            self._states.move_to_end(fingerprint)
            return state["overrides"]
        overrides = self._build_overrides(fingerprint)
        self._states[fingerprint] = {
            "count": count, "overrides": overrides,
        }
        self._states.move_to_end(fingerprint)
        while len(self._states) > FEEDBACK_CAPACITY:
            self._states.popitem(last=False)
        return overrides

    def wants_replan(
        self, fingerprint: Optional[str], plan: lp.LogicalPlan, estimator
    ) -> bool:
        """True when the overrides would flip a build side the cached
        ``plan`` committed to — the signal to bump the plan-cache epoch.

        ``estimator`` must already carry this fingerprint's overrides.
        The check mirrors :func:`repro.plan.rules.choose_join_sides`:
        an inner equi-join swaps when the left side estimates strictly
        smaller than the right, so a freshly optimized plan can never
        want an immediate second swap (left >= right by construction).
        """
        stale = False
        stack = [plan]
        while stack:
            node = stack.pop()
            if (
                isinstance(node, lp.LogicalJoin)
                and node.kind == "inner"
                and node.equi_keys
            ):
                try:
                    left = estimator.estimate(node.left)
                    right = estimator.estimate(node.right)
                except Exception:  # noqa: BLE001 — advisory only
                    left = right = 0.0
                if left < right:
                    stale = True
                    break
            stack.extend(node.children())
        return stale

    def _build_overrides(self, fingerprint: str) -> dict[str, float]:
        observed = self._history.observed_node_cardinalities(fingerprint)
        grouped: dict[str, list[float]] = {}
        for key, slot in observed.items():
            base, _ = split_node_key(key)
            grouped.setdefault(base, []).append(float(slot["mean_rows"]))
        return {
            base: rows[0]
            for base, rows in grouped.items()
            if len(rows) == 1
        }
