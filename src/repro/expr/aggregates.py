"""Aggregate function registry.

Every aggregate is implemented as a *grouped* vectorised kernel: it
receives the argument column, an ``int64`` array of group codes (one per
input row, in ``[0, n_groups)``), and the group count, and returns one
output :class:`Column` with ``n_groups`` rows. The ungrouped case is the
one-group special case. NULL inputs are skipped per SQL semantics; groups
with no non-NULL input yield NULL (except COUNT, which yields 0).

The same kernels serve the aggregation operator and the analytics
operators' shared statistics building blocks (paper section 6.2 mentions
mean / standard deviation per class as reusable sub-operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import BindError
from ..storage.column import Column
from ..types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    SQLType,
    TypeKind,
)


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate: result-type inference plus a grouped kernel."""

    name: str
    needs_argument: bool
    infer_type: Callable[[Optional[SQLType]], SQLType]
    grouped: Callable[[Optional[Column], np.ndarray, int], Column]


_REGISTRY: dict[str, AggregateFunction] = {}


def register(func: AggregateFunction) -> None:
    _REGISTRY[func.name] = func


def lookup(name: str) -> AggregateFunction | None:
    return _REGISTRY.get(name.lower())


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _REGISTRY


def aggregate_names() -> list[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# shared kernels
# ---------------------------------------------------------------------------


def _valid_mask(col: Column) -> np.ndarray:
    return col.validity()


def group_counts(
    col: Optional[Column], codes: np.ndarray, n_groups: int
) -> np.ndarray:
    """Non-NULL row count per group (all rows when ``col`` is None)."""
    if col is None:
        return np.bincount(codes, minlength=n_groups)
    mask = _valid_mask(col)
    return np.bincount(codes[mask], minlength=n_groups)


def group_sums(
    col: Column, codes: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group float64 sums skipping NULLs."""
    mask = _valid_mask(col)
    return np.bincount(
        codes[mask],
        weights=col.values[mask].astype(np.float64),
        minlength=n_groups,
    )


def _segmented_reduce(
    values: np.ndarray, codes: np.ndarray, n_groups: int, ufunc
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-group reduce by scattering: ``ufunc.at`` folds each
    group's values in row order (among equal extremes — 0.0 and -0.0 —
    the last row's wins).

    Returns (result, present) where ``present[g]`` says group ``g`` had at
    least one row; result values for absent groups are unspecified.
    """
    present = np.zeros(n_groups, dtype=np.bool_)
    out = np.zeros(n_groups, dtype=values.dtype)
    if len(values) == 0:
        return out, present
    present[codes] = True
    if ufunc.identity is None:
        # min/max have no neutral start: seed each group with its first
        # value (reversed, so the earliest row is the write that stays).
        # Folding that value in once more changes nothing.
        out[codes[::-1]] = values[::-1]
    # NaN is a value to propagate here, not an invalid operation.
    with np.errstate(invalid="ignore"):
        ufunc.at(out, codes, values)
    return out, present


def _object_extreme(
    col: Column, codes: np.ndarray, n_groups: int, pick_smaller: bool
) -> Column:
    """MIN/MAX for object-dtype (VARCHAR) columns — per-row Python path."""
    best: list[object] = [None] * n_groups
    mask = _valid_mask(col)
    values = col.values
    for i in np.flatnonzero(mask):
        g = codes[i]
        current = best[g]
        value = values[i]
        if current is None:
            best[g] = value
        elif (value < current) == pick_smaller and value != current:
            best[g] = value
    return Column.from_values(best, col.sql_type)


# ---------------------------------------------------------------------------
# COUNT
# ---------------------------------------------------------------------------


def _count_star(
    col: Optional[Column], codes: np.ndarray, n_groups: int
) -> Column:
    return Column(
        group_counts(None, codes, n_groups).astype(np.int64), BIGINT
    )


def _count(col: Optional[Column], codes: np.ndarray, n_groups: int) -> Column:
    return Column(
        group_counts(col, codes, n_groups).astype(np.int64), BIGINT
    )


register(AggregateFunction(
    "count_star", False, lambda arg: BIGINT, _count_star,
))
register(AggregateFunction("count", True, lambda arg: BIGINT, _count))


# ---------------------------------------------------------------------------
# SUM / AVG
# ---------------------------------------------------------------------------


def _sum_infer(arg: Optional[SQLType]) -> SQLType:
    if arg is None or not (arg.is_numeric or arg.kind is TypeKind.NULL):
        raise BindError(f"sum() requires a numeric argument, got {arg}")
    if arg.kind is TypeKind.DOUBLE or arg.kind is TypeKind.NULL:
        return DOUBLE
    return BIGINT


def _sum(col: Optional[Column], codes: np.ndarray, n_groups: int) -> Column:
    assert col is not None
    counts = group_counts(col, codes, n_groups)
    valid = counts > 0
    if col.sql_type.kind is TypeKind.DOUBLE:
        sums = group_sums(col, codes, n_groups)
        return Column(sums, DOUBLE, valid)
    # Integral: exact int64 accumulation.
    mask = _valid_mask(col)
    values = col.values[mask].astype(np.int64)
    sums, _present = _segmented_reduce(values, codes[mask], n_groups, np.add)
    return Column(sums, BIGINT, valid)


register(AggregateFunction("sum", True, _sum_infer, _sum))


def _avg_infer(arg: Optional[SQLType]) -> SQLType:
    if arg is None or not (arg.is_numeric or arg.kind is TypeKind.NULL):
        raise BindError(f"avg() requires a numeric argument, got {arg}")
    return DOUBLE


def _avg(col: Optional[Column], codes: np.ndarray, n_groups: int) -> Column:
    assert col is not None
    counts = group_counts(col, codes, n_groups)
    sums = group_sums(col, codes, n_groups)
    valid = counts > 0
    out = np.zeros(n_groups, dtype=np.float64)
    out[valid] = sums[valid] / counts[valid]
    return Column(out, DOUBLE, valid)


register(AggregateFunction("avg", True, _avg_infer, _avg))
register(AggregateFunction("mean", True, _avg_infer, _avg))


# ---------------------------------------------------------------------------
# MIN / MAX
# ---------------------------------------------------------------------------


def _extreme_infer(name: str):
    def infer(arg: Optional[SQLType]) -> SQLType:
        if arg is None:
            raise BindError(f"{name}() requires an argument")
        return arg

    return infer


def _make_extreme(pick_smaller: bool):
    ufunc = np.minimum if pick_smaller else np.maximum

    def impl(
        col: Optional[Column], codes: np.ndarray, n_groups: int
    ) -> Column:
        assert col is not None
        if col.sql_type.kind is TypeKind.VARCHAR:
            return _object_extreme(col, codes, n_groups, pick_smaller)
        mask = _valid_mask(col)
        values = col.values[mask]
        reduced, present = _segmented_reduce(
            values, codes[mask], n_groups, ufunc
        )
        return Column(reduced, col.sql_type, present)

    return impl


register(AggregateFunction(
    "min", True, _extreme_infer("min"), _make_extreme(True),
))
register(AggregateFunction(
    "max", True, _extreme_infer("max"), _make_extreme(False),
))


# ---------------------------------------------------------------------------
# variance / standard deviation
# ---------------------------------------------------------------------------


def _stat_infer(name: str):
    def infer(arg: Optional[SQLType]) -> SQLType:
        if arg is None or not (arg.is_numeric or arg.kind is TypeKind.NULL):
            raise BindError(f"{name}() requires a numeric argument")
        return DOUBLE

    return infer


def _make_variance(sample: bool, take_sqrt: bool):
    def impl(
        col: Optional[Column], codes: np.ndarray, n_groups: int
    ) -> Column:
        assert col is not None
        mask = _valid_mask(col)
        values = col.values[mask].astype(np.float64)
        group = codes[mask]
        counts = np.bincount(group, minlength=n_groups).astype(np.float64)
        sums = np.bincount(group, weights=values, minlength=n_groups)
        sumsq = np.bincount(
            group, weights=values * values, minlength=n_groups
        )
        min_count = 2 if sample else 1
        valid = counts >= min_count
        out = np.zeros(n_groups, dtype=np.float64)
        denom = counts - 1 if sample else counts
        with np.errstate(invalid="ignore", divide="ignore"):
            centred = sumsq - sums * sums / np.where(counts == 0, 1, counts)
            out[valid] = centred[valid] / denom[valid]
        # Guard tiny negative values from floating-point cancellation.
        np.clip(out, 0.0, None, out=out)
        if take_sqrt:
            out = np.sqrt(out)
        return Column(out, DOUBLE, valid)

    return impl


register(AggregateFunction(
    "var_samp", True, _stat_infer("var_samp"), _make_variance(True, False),
))
register(AggregateFunction(
    "var_pop", True, _stat_infer("var_pop"), _make_variance(False, False),
))
register(AggregateFunction(
    "variance", True, _stat_infer("variance"), _make_variance(True, False),
))
register(AggregateFunction(
    "stddev", True, _stat_infer("stddev"), _make_variance(True, True),
))
register(AggregateFunction(
    "stddev_samp", True, _stat_infer("stddev_samp"),
    _make_variance(True, True),
))
register(AggregateFunction(
    "stddev_pop", True, _stat_infer("stddev_pop"),
    _make_variance(False, True),
))


# ---------------------------------------------------------------------------
# boolean aggregates
# ---------------------------------------------------------------------------


def _bool_infer(name: str):
    def infer(arg: Optional[SQLType]) -> SQLType:
        if arg is None or arg.kind not in (TypeKind.BOOLEAN, TypeKind.NULL):
            raise BindError(f"{name}() requires a boolean argument")
        return BOOLEAN

    return infer


def _make_bool(all_of: bool):
    def impl(
        col: Optional[Column], codes: np.ndarray, n_groups: int
    ) -> Column:
        assert col is not None
        mask = _valid_mask(col)
        values = col.values[mask].astype(np.int8)
        ufunc = np.minimum if all_of else np.maximum
        reduced, present = _segmented_reduce(
            values, codes[mask], n_groups, ufunc
        )
        return Column(reduced.astype(np.bool_), BOOLEAN, present)

    return impl


register(AggregateFunction(
    "bool_and", True, _bool_infer("bool_and"), _make_bool(True),
))
register(AggregateFunction(
    "bool_or", True, _bool_infer("bool_or"), _make_bool(False),
))
register(AggregateFunction(
    "every", True, _bool_infer("every"), _make_bool(True),
))
