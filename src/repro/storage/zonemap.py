"""Zone maps: per-chunk column statistics for morsel skipping.

A :class:`ZoneMap` partitions a column into fixed ``ZONE_ROWS``-row
zones and keeps, per zone, the min/max over *finite* valid values plus
null/valid/finite counts. Scan operators consult them through
:class:`ScanPruner` to skip whole morsels that cannot contain a row
satisfying a conjunctive predicate — the cheapest possible win for a
memory-bandwidth-bound engine: the skipped morsel is never sliced,
never filtered, never materialised.

NULL/NaN semantics (the correctness core — see docs/performance.md):

* NULL rows never satisfy a comparison (3VL unknown -> filtered), so a
  zone's min/max ignore them; ``IS NULL`` prunes only when the zone has
  ``null_count == 0`` and ``IS NOT NULL`` only when ``valid_count == 0``.
* NaN values are *valid non-NULL* doubles. IEEE comparisons with NaN
  yield False for ``= < <= > >=`` — a zone of only NULLs/NaNs is
  prunable for those — but ``NaN <> c`` is True, so ``<>`` may prune
  only zones that contain no NaN at all.

Pruning is also gated on the *whole* predicate being side-effect-free
(:func:`prune_safe`): skipping a morsel suppresses evaluation of every
conjunct on it, and an expression like ``b / a > 1`` must keep raising
division-by-zero exactly as the unpruned plan would. An uncorrelated
subquery qualifies because the scan runs it when it opens, whatever it
then skips.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..expr import bound as b
from ..types import TypeKind

#: Rows per zone. Smaller than a morsel so every morsel boundary is
#: covered by whole zones plus at most two partial overlaps.
ZONE_ROWS = 4096

#: Binary operators that cannot raise at evaluation time (no division,
#: no modulo, no exponentiation — those carry data-dependent errors).
#: ``^`` computes in float64 whatever its operands: NaN or inf, never an
#: error.
_SAFE_BINARY_OPS = frozenset(
    {"and", "or", "=", "<>", "!=", "<", "<=", ">", ">=",
     "+", "-", "*", "^", "||"}
)

_SAFE_UNARY_OPS = frozenset({"-", "+", "not"})

_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "=": "=", "<>": "<>", "!=": "!="}


class ZoneMap:
    """Per-zone statistics of one column (immutable once built)."""

    __slots__ = (
        "zone_rows", "n_rows", "mins", "maxs",
        "null_counts", "valid_counts", "finite_counts",
    )

    def __init__(self, zone_rows, n_rows, mins, maxs,
                 null_counts, valid_counts, finite_counts):
        self.zone_rows = zone_rows
        self.n_rows = n_rows
        self.mins = mins
        self.maxs = maxs
        self.null_counts = null_counts
        self.valid_counts = valid_counts
        self.finite_counts = finite_counts

    @property
    def n_zones(self) -> int:
        return len(self.mins)


def build_zone_map(
    column, zone_rows: int = ZONE_ROWS
) -> Optional[ZoneMap]:
    """Build the zone map of a column; None when the type has no
    ordered zone statistics (VARCHAR) or the column is empty."""
    if column.sql_type.kind is TypeKind.VARCHAR:
        return None
    n = len(column)
    if n == 0:
        return None
    values = np.asarray(column.values)
    valid = column.valid  # None == all valid
    is_float = values.dtype.kind == "f"
    n_zones = (n + zone_rows - 1) // zone_rows
    mins = np.full(n_zones, np.nan)
    maxs = np.full(n_zones, np.nan)
    null_counts = np.zeros(n_zones, dtype=np.int64)
    valid_counts = np.zeros(n_zones, dtype=np.int64)
    finite_counts = np.zeros(n_zones, dtype=np.int64)
    for z in range(n_zones):
        start = z * zone_rows
        stop = min(start + zone_rows, n)
        vals = values[start:stop]
        if valid is None:
            n_valid = stop - start
            live = vals
        else:
            mask = valid[start:stop]
            n_valid = int(mask.sum())
            live = vals[mask]
        null_counts[z] = (stop - start) - n_valid
        valid_counts[z] = n_valid
        if is_float:
            finite = live[~np.isnan(live)]
        else:
            finite = live
        finite_counts[z] = len(finite)
        if len(finite):
            mins[z] = float(finite.min())
            maxs[z] = float(finite.max())
    return ZoneMap(
        zone_rows, n, mins, maxs,
        null_counts, valid_counts, finite_counts,
    )


# ---------------------------------------------------------------------------
# Predicate analysis
# ---------------------------------------------------------------------------


def prune_safe(expr: b.BoundExpr, prebuilt: frozenset = frozenset()) -> bool:
    """Whether an entire predicate is free of data-dependent errors, so
    skipping its evaluation on a pruned morsel is unobservable.

    ``prebuilt`` holds the ``id`` of every subquery node whose result
    the scan computes when it opens, before any morsel is skipped: such
    a subquery has already raised whatever it would raise, and testing
    rows against its result (``probe IN <key set>``, a comparison with
    its value) cannot raise — it is as safe as its probe."""
    if isinstance(expr, (b.BoundLiteral, b.BoundColumnRef, b.BoundParam)):
        return True
    if isinstance(expr, b.BoundUnary):
        return (
            expr.op in _SAFE_UNARY_OPS
            and prune_safe(expr.operand, prebuilt)
        )
    if isinstance(expr, b.BoundBinary):
        return (
            expr.op in _SAFE_BINARY_OPS
            and prune_safe(expr.left, prebuilt)
            and prune_safe(expr.right, prebuilt)
        )
    if isinstance(expr, b.BoundIsNull):
        return prune_safe(expr.operand, prebuilt)
    if isinstance(expr, b.BoundInList):
        return prune_safe(expr.operand, prebuilt) and all(
            prune_safe(item, prebuilt) for item in expr.items
        )
    if isinstance(expr, b.BoundSubquery) and id(expr) in prebuilt:
        return expr.probe is None or prune_safe(expr.probe, prebuilt)
    # Functions, UDFs, CASE, CAST, LIKE, other subqueries, lambdas:
    # excluded — any of them may raise (or observe evaluation) at run
    # time.
    return False


def split_conjuncts(expr: b.BoundExpr) -> list[b.BoundExpr]:
    """Flatten a tree of AND into its conjuncts."""
    if isinstance(expr, b.BoundBinary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _const_source(expr: b.BoundExpr):
    """A resolver spec for the constant side of a comparison:
    ``("lit", v)``, ``("param", slot)``, ``("neg", inner)`` — or None
    when the side is not a bind-time/execute-time constant."""
    if isinstance(expr, b.BoundLiteral):
        value = expr.value
        if isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            return ("lit", value)
        if isinstance(value, bool):
            return ("lit", int(value))
        if isinstance(value, str):
            # String constants prune only against dictionary-encoded
            # columns (translated to code space in keep_ranges).
            return ("lit", value)
        return None
    if isinstance(expr, b.BoundParam):
        # Statement parameters (?N) and correlated outer values alike:
        # both resolve from eval-context params at execute time.
        return ("param", expr.slot)
    if isinstance(expr, b.BoundUnary) and expr.op == "-":
        inner = _const_source(expr.operand)
        if inner is None:
            return None
        return ("neg", inner)
    return None


def _resolve_const(source, params: dict):
    kind = source[0]
    if kind == "lit":
        return source[1]
    if kind == "param":
        value = params.get(source[1])
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float, str)):
            return value
        return None
    inner = _resolve_const(source[1], params)
    return None if inner is None else -inner


class _Conjunct:
    """One prunable conjunct: ``column <op> const`` or ``column IS
    [NOT] NULL``."""

    __slots__ = ("column_name", "op", "const_source")

    def __init__(self, column_name, op, const_source=None):
        self.column_name = column_name
        self.op = op
        self.const_source = const_source

    def prunable_zones(self, zones: ZoneMap, params: dict) -> np.ndarray:
        """Boolean mask over zones: True where *no* row can satisfy
        this conjunct (hence none can satisfy the whole conjunction)."""
        none = np.zeros(zones.n_zones, dtype=np.bool_)
        if self.op == "isnull":
            return zones.null_counts == 0
        if self.op == "isnotnull":
            return zones.valid_counts == 0
        const = _resolve_const(self.const_source, params)
        if not isinstance(const, (int, float)):
            # None, or a string constant that was not translated to
            # code space (raw VARCHAR columns have no zone map).
            return none
        no_finite = zones.finite_counts == 0
        mins, maxs = zones.mins, zones.maxs
        if self.op in ("<>", "!="):
            # NaN <> c is True, so zones with NaN rows never prune.
            nan_free = zones.valid_counts == zones.finite_counts
            exact = (mins == const) & (maxs == const)
            return nan_free & (no_finite | exact)
        if self.op == "=":
            return no_finite | (const < mins) | (const > maxs)
        if self.op == "<":
            return no_finite | (mins >= const)
        if self.op == "<=":
            return no_finite | (mins > const)
        if self.op == ">":
            return no_finite | (maxs <= const)
        if self.op == ">=":
            return no_finite | (maxs < const)
        return none


def _prunable_for_column(
    conjunct: _Conjunct, column, zones: ZoneMap, params: dict
) -> Optional[np.ndarray]:
    """The conjunct's prunable-zone mask against a concrete column,
    translating string constants to dictionary code space when the
    column is dictionary-encoded (its zone map is over codes)."""
    from .encoding import DictionaryColumn

    if conjunct.op in ("isnull", "isnotnull") or not isinstance(
        column, DictionaryColumn
    ):
        return conjunct.prunable_zones(zones, params)
    const = _resolve_const(conjunct.const_source, params)
    if not isinstance(const, str):
        # NULL / unbound parameter: the comparison is never true, but
        # stay conservative and just skip this conjunct.
        return None
    idx, present = column.code_bound(const)
    op = conjunct.op
    if op == "=" and not present:
        # No row can equal an absent dictionary entry: every zone
        # prunes (scan output is provably empty).
        return np.ones(zones.n_zones, dtype=np.bool_)
    if op in ("<>", "!=") and not present:
        # Every valid row differs: only all-NULL zones prune.
        return zones.valid_counts == 0
    # The sorted dictionary makes code order equal value order; the
    # insertion index bounds absent constants exactly.
    if op == "<=" and not present:
        op = "<"
    elif op == ">" and not present:
        op = ">="
    translated = _Conjunct(conjunct.column_name, op, ("lit", idx))
    return translated.prunable_zones(zones, params)


class ScanPruner:
    """Decides, per morsel range, whether zone maps prove the range
    empty under a conjunctive predicate.

    Built from the scan's output columns and the predicate(s) of the
    filter(s) sitting directly on the scan; ``prebuilt`` as for
    :func:`prune_safe`. Unusable predicates (not prune-safe, or without
    any ``col <op> const`` conjunct) yield an inactive pruner —
    ``keep_ranges`` then returns its input."""

    def __init__(self, scan_output, predicates, prebuilt=frozenset()):
        slot_to_name = {col.slot: col.name for col in scan_output}
        self._conjuncts: list[_Conjunct] = []
        if not all(prune_safe(p, prebuilt) for p in predicates):
            return
        for predicate in predicates:
            for conjunct in split_conjuncts(predicate):
                parsed = self._parse(conjunct, slot_to_name)
                if parsed is not None:
                    self._conjuncts.append(parsed)

    @staticmethod
    def _parse(expr, slot_to_name) -> Optional[_Conjunct]:
        if isinstance(expr, b.BoundIsNull) and isinstance(
            expr.operand, b.BoundColumnRef
        ):
            name = slot_to_name.get(expr.operand.slot)
            if name is None:
                return None
            op = "isnotnull" if expr.negated else "isnull"
            return _Conjunct(name, op)
        if not (
            isinstance(expr, b.BoundBinary) and expr.op in _COMPARISONS
        ):
            return None
        left, right, op = expr.left, expr.right, expr.op
        if isinstance(left, b.BoundColumnRef):
            const = _const_source(right)
            if const is None:
                return None
            name = slot_to_name.get(left.slot)
            if name is None:
                return None
            return _Conjunct(name, op, const)
        if isinstance(right, b.BoundColumnRef):
            const = _const_source(left)
            if const is None:
                return None
            name = slot_to_name.get(right.slot)
            if name is None:
                return None
            return _Conjunct(name, _FLIPPED[op], const)
        return None

    @property
    def active(self) -> bool:
        return bool(self._conjuncts)

    def keep_ranges(
        self, data, ranges, params: Optional[dict] = None
    ) -> tuple[list, int]:
        """``(surviving_ranges, n_pruned)`` for one table snapshot.
        Ranges are ``[start, stop)`` row intervals; a range survives
        unless *every* zone it overlaps is prunable by at least one
        conjunct."""
        if not self._conjuncts or not ranges:
            return list(ranges), 0
        params = params or {}
        prunable = None
        for conjunct in self._conjuncts:
            try:
                column = data.column_by_name(conjunct.column_name)
            except Exception:  # noqa: BLE001 — schema drift: no pruning
                continue
            zones = column.zone_map()
            if zones is None or zones.n_rows != data.row_count:
                continue
            mask = _prunable_for_column(conjunct, column, zones, params)
            if mask is None:
                continue
            prunable = mask if prunable is None else (prunable | mask)
        if prunable is None or not prunable.any():
            return list(ranges), 0
        zone_rows = ZONE_ROWS
        kept = []
        pruned = 0
        for start, stop in ranges:
            z0 = start // zone_rows
            z1 = (stop + zone_rows - 1) // zone_rows
            if prunable[z0:z1].all():
                pruned += 1
            else:
                kept.append((start, stop))
        return kept, pruned
