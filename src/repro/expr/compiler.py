"""Vectorised expression compilation.

:class:`ExpressionCompiler` turns a bound expression tree into a Python
closure ``(ColumnBatch, EvalContext) -> Column`` *once per query*; running
the closure performs only numpy array operations. This mirrors the paper's
data-centric code generation (section 3): the cost of translating the
expression is paid at compile time, and the per-batch work contains no
name resolution, no type dispatch, and no per-tuple interpretation.

Three-valued logic: every result :class:`Column` carries a validity mask;
``NULL`` comparisons yield unknown, and AND/OR implement Kleene semantics.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, Mapping, Optional

import numpy as np

from ..errors import ExecutionError, UDFError
from ..storage.column import Column, ColumnBatch
from ..storage.encoding import DictionaryColumn, EncodedColumn
from ..types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    SQLType,
    TypeKind,
    VARCHAR,
)
from . import bound as b

#: A compiled expression: evaluates one batch to one column.
Compiled = Callable[[ColumnBatch, "EvalContext"], Column]


def _decode_skipped(rows: int) -> None:
    """Count rows whose predicate was evaluated on codes/offsets/runs
    instead of decoded values. Kernel closures are shared process-wide
    (the kernel cache outlives sessions), so this reports to the global
    registry rather than a captured session registry."""
    from ..obs.metrics import global_registry

    global_registry().counter("scan_decode_skipped_total").inc(rows)


class EvalContext:
    """Runtime state threaded through expression evaluation.

    ``params`` holds correlated-subquery parameter values for the current
    outer value. ``execute_plan`` is injected by the executor so
    expressions can run subplans (scalar/IN/EXISTS subqueries);
    uncorrelated subquery results are cached per query execution
    (:func:`subquery_result`).
    """

    def __init__(
        self,
        execute_plan: Optional[Callable] = None,
        params: Optional[dict[str, object]] = None,
    ):
        self.execute_plan = execute_plan
        self.params: dict[str, object] = params or {}
        self.subquery_cache: dict[int, object] = {}

    def child(self, params: dict[str, object]) -> "EvalContext":
        """A context for a correlated subquery invocation: fresh params,
        shared executor and cache. Statement-level ``?N`` parameter
        slots are inherited — the subquery may reference them too."""
        merged = {
            k: v for k, v in self.params.items() if k.startswith("?")
        }
        merged.update(params)
        ctx = EvalContext(self.execute_plan, merged)
        ctx.subquery_cache = self.subquery_cache
        return ctx


def truth_mask(col: Column) -> np.ndarray:
    """Collapse a 3VL boolean column to a selection mask: unknown -> False
    (SQL WHERE semantics)."""
    values = col.values.astype(np.bool_, copy=False)
    if col.valid is None:
        return values
    return values & col.valid


def _and_validity(
    left: np.ndarray | None, right: np.ndarray | None
) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left & right


#: The numpy ufunc of each comparison operator.
_COMPARISONS = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _compare_live(compare, lval, rval, validity) -> np.ndarray:
    """``compare`` over the rows ``validity`` keeps, False elsewhere.
    Over object arrays (strings) the ufunc makes the Python rich
    comparison once per row, in C, and is not asked on a NULL; an
    operand that is not an array is a scalar."""
    if validity is None:
        return compare(lval, rval)
    live = np.flatnonzero(validity)
    out = np.zeros(len(validity), dtype=np.bool_)
    out[live] = compare(
        lval[live] if isinstance(lval, np.ndarray) else lval,
        rval[live] if isinstance(rval, np.ndarray) else rval,
    )
    return out


def _scalar_constant(expr: b.BoundExpr):
    """The Python scalar a numeric expression folds to, or None.

    Recognises literals and casts of literals — these become inline
    constants in compiled closures instead of materialised columns."""
    if isinstance(expr, b.BoundLiteral):
        value = expr.value
        if isinstance(value, (int, float, bool)) and not isinstance(
            value, bool
        ):
            return value
        return None
    if isinstance(expr, b.BoundCast):
        inner = _scalar_constant(expr.operand)
        if inner is None:
            return None
        kind = expr.sql_type.kind
        if kind is TypeKind.DOUBLE:
            return float(inner)
        if kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            return int(inner)
        return None
    return None


def _string_const_source(expr: b.BoundExpr):
    """A resolver spec for a constant string comparison side:
    ``("lit", s)`` or ``("param", slot)``; None otherwise. Parameters
    resolve per batch (correlated values change per outer row)."""
    if isinstance(expr, b.BoundLiteral) and isinstance(
        expr.value, str
    ):
        return ("lit", expr.value)
    if isinstance(expr, b.BoundParam) and expr.sql_type.kind in (
        TypeKind.VARCHAR, TypeKind.NULL
    ):
        return ("param", expr.slot)
    return None


def _resolve_string_const(source, ctx: "EvalContext"):
    if source[0] == "lit":
        return source[1]
    return ctx.params.get(source[1])


def _to_dtype(value, dtype: np.dtype):
    """Cast an array (no copy when possible); pass scalars through."""
    if isinstance(value, np.ndarray):
        return value.astype(dtype, copy=False)
    return value


# ---------------------------------------------------------------------------
# Subqueries
# ---------------------------------------------------------------------------


def _run_subquery(expr: b.BoundSubquery, ctx: EvalContext, params: dict):
    """Run the subplan once. The result's shape depends on ``kind``:
    EXISTS a bool, a scalar subquery its one-row column (a NULL row
    when it returned none), IN a :class:`~repro.exec.common.KeySet`."""
    from ..exec.common import KeySet

    if ctx.execute_plan is None:
        raise ExecutionError(
            "subquery evaluation requires an executor context"
        )
    batch = ctx.execute_plan(expr.plan, params)
    if expr.kind == "exists":
        return len(batch) > 0
    col = batch[batch.names()[0]]
    if expr.kind == "in":
        return KeySet(col)
    if len(col) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if len(col) == 0:
        return Column.from_values([None], expr.sql_type)
    return col


def subquery_result(expr: b.BoundSubquery, ctx: EvalContext):
    """The result of an uncorrelated subquery: computed on first demand
    and kept in ``ctx.subquery_cache`` for the rest of the execution.
    The key is the subplan, so copies of the node that pushdown made
    (one per UNION branch, say) share one run."""
    key = id(expr.plan)
    cache = ctx.subquery_cache
    if key not in cache:
        cache[key] = _run_subquery(expr, ctx, {})
    return cache[key]


def _python_values(col: Column, rows: np.ndarray) -> list:
    """The Python values (None for NULL) of ``col`` at ``rows`` — the
    values a correlated parameter takes."""
    picked = col.take(rows)
    values = picked.values.tolist()
    if picked.valid is not None:
        for i in np.flatnonzero(~picked.valid).tolist():
            values[i] = None
    return values


def _grouping_key(col: Column) -> Column:
    """DOUBLE parameters group on their bit pattern: ``-0.0`` and
    ``0.0`` (or two NaNs) are different parameter values."""
    if col.sql_type.kind is TypeKind.DOUBLE:
        return Column(
            np.ascontiguousarray(col.values).view(np.int64),
            BIGINT,
            col.valid,
        )
    return col


def _correlated_results(
    expr: b.BoundSubquery, batch: ColumnBatch, ctx: EvalContext,
    by_row: bool,
) -> tuple[np.ndarray, list]:
    """``(codes, results)``: the subplan run once per distinct tuple of
    outer-slot values in ``batch`` (once per row when ``by_row``), in
    the order the tuples first appear; row ``i``'s result is
    ``results[codes[i]]``."""
    from ..exec.common import factorize, group_representatives

    n = len(batch)
    if n == 0:
        return np.zeros(0, dtype=np.intp), []
    cols = [batch[slot] for slot in expr.outer_slots]
    if by_row:
        codes, n_groups = np.arange(n, dtype=np.intp), n
    else:
        codes, n_groups = factorize([_grouping_key(c) for c in cols])
    first_rows = group_representatives(codes, n_groups)
    params = [_python_values(c, first_rows) for c in cols]
    results: list = [None] * n_groups
    for group in np.argsort(first_rows, kind="stable").tolist():
        results[group] = _run_subquery(
            expr,
            ctx,
            {
                slot: values[group]
                for slot, values in zip(expr.outer_slots, params)
            },
        )
    return codes, results


def _in_result(
    probe: Column, codes: np.ndarray, key_sets: list, negated: bool
) -> Column:
    """``probe [NOT] IN`` the key set of each row's group. SQL rules:
    a match is TRUE; no match is NULL when the set holds a NULL, FALSE
    otherwise; a NULL probe is NULL — except against an empty set,
    where every probe is FALSE (there is no row to be unknown
    against)."""
    if len(key_sets) == 1:
        hit = key_sets[0].member(probe)
        has_null = np.bool_(key_sets[0].has_null)
        empty = np.bool_(key_sets[0].empty)
    else:
        hit = np.zeros(len(probe), dtype=np.bool_)
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(key_sets)))
        for group, key_set in enumerate(key_sets):
            rows = order[ends[group - 1] if group else 0:ends[group]]
            hit[rows] = key_set.member(probe.take(rows))
        has_null = np.array([k.has_null for k in key_sets], bool)[codes]
        empty = np.array([k.empty for k in key_sets], bool)[codes]
    valid = probe.validity()
    validity = (valid & (hit | ~has_null)) | empty
    return Column(~hit if negated else hit, BOOLEAN, validity)


# ---------------------------------------------------------------------------
# Compiled-kernel cache
# ---------------------------------------------------------------------------

#: Whole-expression kernels kept across statements (LRU beyond this).
KERNEL_CACHE_CAPACITY = 512

_KERNEL_CACHE: "OrderedDict[tuple, Compiled]" = OrderedDict()
_KERNEL_LOCK = threading.Lock()


def kernel_fingerprint(
    expr: b.BoundExpr, slots: Optional[Mapping[str, object]] = None
) -> Optional[tuple]:
    """A structural, hashable fingerprint of a bound expression tree.

    Two trees with equal fingerprints compile to interchangeable
    closures: node types, operators, column slots (whose batch keys are
    binder-deterministic), literal values *and* their Python types, and
    SQL result types all participate. Returns None for uncacheable
    trees: subqueries (their closures capture plans and key runtime
    caches on plan identity) and UDFs/lambdas (arbitrary Python whose
    identity a structural walk cannot capture).

    ``slots`` replaces the column slots it maps (by their position in
    the plan node's inputs, say): two trees that read different slots
    the same way then share one fingerprint.
    """
    if isinstance(expr, b.BoundLiteral):
        value = expr.value
        if isinstance(value, float):
            value = repr(value)  # -0.0 == 0.0, but they print apart
        return (
            "lit", type(expr.value).__name__, value,
            expr.sql_type.kind.value,
        )
    if isinstance(expr, b.BoundColumnRef):
        slot = expr.slot
        if slots is not None:
            slot = slots.get(slot, slot)
        return ("col", slot, expr.sql_type.kind.value)
    if isinstance(expr, b.BoundParam):
        return ("param", expr.slot, expr.sql_type.kind.value)
    if isinstance(expr, b.BoundUnary):
        operand = kernel_fingerprint(expr.operand, slots)
        if operand is None:
            return None
        return ("un", expr.op, expr.sql_type.kind.value, operand)
    if isinstance(expr, b.BoundBinary):
        left = kernel_fingerprint(expr.left, slots)
        right = kernel_fingerprint(expr.right, slots)
        if left is None or right is None:
            return None
        return ("bin", expr.op, expr.sql_type.kind.value, left, right)
    if isinstance(expr, b.BoundFunction):
        args = tuple(kernel_fingerprint(a, slots) for a in expr.args)
        if any(a is None for a in args):
            return None
        return ("fn", expr.name, expr.sql_type.kind.value) + args
    if isinstance(expr, b.BoundCast):
        operand = kernel_fingerprint(expr.operand, slots)
        if operand is None:
            return None
        return (
            "cast", expr.sql_type.kind.value, expr.sql_type.width,
            operand,
        )
    if isinstance(expr, b.BoundCase):
        parts: list[object] = ["case", expr.sql_type.kind.value]
        for when, then in expr.whens:
            w = kernel_fingerprint(when, slots)
            t = kernel_fingerprint(then, slots)
            if w is None or t is None:
                return None
            parts.append((w, t))
        if expr.else_result is not None:
            e = kernel_fingerprint(expr.else_result, slots)
            if e is None:
                return None
            parts.append(("else", e))
        return tuple(parts)
    if isinstance(expr, b.BoundIsNull):
        operand = kernel_fingerprint(expr.operand, slots)
        if operand is None:
            return None
        return ("isnull", expr.negated, operand)
    if isinstance(expr, b.BoundInList):
        operand = kernel_fingerprint(expr.operand, slots)
        if operand is None:
            return None
        items = tuple(kernel_fingerprint(i, slots) for i in expr.items)
        if any(i is None for i in items):
            return None
        return ("inlist", expr.negated, operand) + items
    if isinstance(expr, b.BoundLike):
        operand = kernel_fingerprint(expr.operand, slots)
        pattern = kernel_fingerprint(expr.pattern, slots)
        if operand is None or pattern is None:
            return None
        return ("like", expr.negated, pattern, operand)
    # BoundSubquery, BoundUDF, BoundLambda, anything unknown.
    return None


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex (cached)."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


class ExpressionCompiler:
    """Compiles bound expressions to batch-at-a-time closures.

    Whole-expression kernels are shared across statements through a
    process-wide LRU keyed on :func:`kernel_fingerprint`: compiled
    closures are pure functions of ``(batch, eval_ctx)``, so a repeated
    predicate or projection skips the tree walk entirely. ``metrics``
    (optional) receives ``expr_kernel_cache_{hits,misses}_total``.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        #: Whether whole-expression kernels go through the shared cache.
        self.enabled = True
        self._depth = 0

    def compile(self, expr: b.BoundExpr) -> Compiled:
        """Dispatch on node type; returns the evaluation closure."""
        if self._depth == 0 and self.enabled:
            return self._compile_cached(expr)
        return self._dispatch(expr)

    def _compile_cached(self, expr: b.BoundExpr) -> Compiled:
        # Leaves compile in a few instructions; caching them per literal
        # value would only churn the LRU (e.g. one INSERT per row floods
        # it with single-use fingerprints).
        if isinstance(
            expr, (b.BoundLiteral, b.BoundColumnRef, b.BoundParam)
        ):
            return self._dispatch(expr)
        fingerprint = kernel_fingerprint(expr)
        if fingerprint is None:
            return self._dispatch(expr)
        with _KERNEL_LOCK:
            fn = _KERNEL_CACHE.get(fingerprint)
            if fn is not None:
                _KERNEL_CACHE.move_to_end(fingerprint)
        if fn is not None:
            if self.metrics is not None:
                self.metrics.counter(
                    "expr_kernel_cache_hits_total"
                ).inc()
            return fn
        fn = self._dispatch(expr)
        with _KERNEL_LOCK:
            _KERNEL_CACHE[fingerprint] = fn
            _KERNEL_CACHE.move_to_end(fingerprint)
            while len(_KERNEL_CACHE) > KERNEL_CACHE_CAPACITY:
                _KERNEL_CACHE.popitem(last=False)
        if self.metrics is not None:
            self.metrics.counter("expr_kernel_cache_misses_total").inc()
        return fn

    def _dispatch(self, expr: b.BoundExpr) -> Compiled:
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression node {type(expr).__name__}"
            )
        self._depth += 1
        try:
            return method(expr)
        finally:
            self._depth -= 1

    def compile_predicate(
        self, expr: b.BoundExpr
    ) -> Callable[[ColumnBatch, EvalContext], np.ndarray]:
        """Compile to a selection-mask function (unknown -> False)."""
        compiled = self.compile(expr)

        def run(batch: ColumnBatch, ctx: EvalContext) -> np.ndarray:
            return truth_mask(compiled(batch, ctx))

        return run

    # -- leaves ------------------------------------------------------------

    def _compile_BoundLiteral(self, expr: b.BoundLiteral) -> Compiled:
        value = expr.value
        sql_type = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            return Column.constant(value, len(batch), sql_type)

        return run

    def _compile_BoundColumnRef(self, expr: b.BoundColumnRef) -> Compiled:
        slot = expr.slot

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            try:
                return batch[slot]
            except KeyError:
                raise ExecutionError(
                    f"column slot {slot!r} missing from batch "
                    f"(has {batch.names()})"
                ) from None

        return run

    def _compile_BoundParam(self, expr: b.BoundParam) -> Compiled:
        slot = expr.slot
        sql_type = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            if slot not in ctx.params:
                raise ExecutionError(
                    f"unbound correlated parameter {slot!r}"
                )
            return Column.constant(ctx.params[slot], len(batch), sql_type)

        return run

    # -- operators -----------------------------------------------------------

    def _compile_BoundUnary(self, expr: b.BoundUnary) -> Compiled:
        operand = self.compile(expr.operand)
        if expr.op == "-":
            sql_type = expr.sql_type

            def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
                col = operand(batch, ctx)
                return Column(-col.values, sql_type, col.valid)

            return run
        if expr.op == "not":

            def run_not(batch: ColumnBatch, ctx: EvalContext) -> Column:
                col = operand(batch, ctx)
                values = ~col.values.astype(np.bool_, copy=False)
                return Column(values, BOOLEAN, col.valid)

            return run_not
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _compile_BoundBinary(self, expr: b.BoundBinary) -> Compiled:
        op = expr.op
        if op in ("and", "or"):
            return self._compile_logical(expr)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        sql_type = expr.sql_type

        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._compile_comparison(expr, left, right)

        if op == "||":

            def run_concat(batch: ColumnBatch, ctx: EvalContext) -> Column:
                lcol = left(batch, ctx).cast(VARCHAR)
                rcol = right(batch, ctx).cast(VARCHAR)
                validity = _and_validity(lcol.valid, rcol.valid)
                n = len(lcol)
                out = np.empty(n, dtype=object)
                mask = (
                    validity
                    if validity is not None
                    else np.ones(n, dtype=np.bool_)
                )
                for i in np.flatnonzero(mask):
                    out[i] = lcol.values[i] + rcol.values[i]
                return Column(out, VARCHAR, validity)

            return run_concat

        # Arithmetic: the binder guarantees numeric operands and has set
        # the result type; cast inputs to it once. Literal operands stay
        # Python scalars (constant propagation into the generated
        # closure) so constants are never materialised as columns and
        # numpy broadcasting does the work.
        integral = sql_type.is_integral
        target_dtype = sql_type.numpy_dtype()
        left_const = _scalar_constant(expr.left)
        right_const = _scalar_constant(expr.right)

        if op == "^" and right_const is not None:
            # Specialise constant exponents; x^2 as x*x is the single
            # biggest win for lambda distance metrics.
            exponent = float(right_const)

            def run_pow(batch: ColumnBatch, ctx: EvalContext) -> Column:
                lcol = left(batch, ctx)
                base = lcol.values.astype(np.float64, copy=False)
                if exponent == 2.0:
                    values = base * base
                elif exponent == 1.0:
                    values = base
                elif exponent == 0.5:
                    values = np.sqrt(base)
                else:
                    values = np.power(base, exponent)
                return Column(values, sql_type, lcol.valid)

            return run_pow

        def run_arith(batch: ColumnBatch, ctx: EvalContext) -> Column:
            if left_const is not None:
                lval = left_const
                lvalid = None
            else:
                lcol = left(batch, ctx)
                lval = lcol.values
                lvalid = lcol.valid
            if right_const is not None:
                rval = right_const
                rvalid = None
            else:
                rcol = right(batch, ctx)
                rval = rcol.values
                rvalid = rcol.valid
            validity = _and_validity(lvalid, rvalid)
            lval = _to_dtype(lval, target_dtype)
            rval = _to_dtype(rval, target_dtype)
            if op == "+":
                values = lval + rval
            elif op == "-":
                values = lval - rval
            elif op == "*":
                values = lval * rval
            elif op == "/":
                if np.isscalar(rval) or rval.ndim == 0:
                    if rval == 0:
                        raise ExecutionError("division by zero")
                    safe = rval
                else:
                    live = (
                        validity
                        if validity is not None
                        else np.ones(len(batch), dtype=np.bool_)
                    )
                    if np.any((rval == 0) & live):
                        raise ExecutionError("division by zero")
                    safe = np.where(rval == 0, 1, rval)
                if integral:
                    # SQL integer division truncates toward zero.
                    quotient = (
                        np.asarray(lval, dtype=np.float64)
                        / np.asarray(safe, dtype=np.float64)
                    )
                    values = np.trunc(quotient).astype(target_dtype)
                else:
                    values = (
                        np.asarray(lval, dtype=np.float64)
                        / np.asarray(safe, dtype=np.float64)
                    )
            elif op == "%":
                if np.isscalar(rval) or rval.ndim == 0:
                    if rval == 0:
                        raise ExecutionError("division by zero in %")
                    safe = rval
                else:
                    live = (
                        validity
                        if validity is not None
                        else np.ones(len(batch), dtype=np.bool_)
                    )
                    if np.any((rval == 0) & live):
                        raise ExecutionError("division by zero in %")
                    safe = np.where(rval == 0, 1, rval)
                values = np.fmod(lval, safe)
            elif op == "^":
                values = np.power(
                    np.asarray(lval, dtype=np.float64),
                    np.asarray(rval, dtype=np.float64),
                )
            else:
                raise ExecutionError(f"unknown binary operator {op!r}")
            if np.isscalar(values) or values.ndim == 0:
                # Both operands were constants: broadcast to the batch.
                return Column.constant(
                    values.item() if hasattr(values, "item") else values,
                    len(batch),
                    sql_type,
                )
            return Column(values, sql_type, validity)

        return run_arith

    def _compile_comparison(
        self, expr: b.BoundBinary, left: Compiled, right: Compiled
    ) -> Compiled:
        op = expr.op
        is_string = (
            expr.left.sql_type.kind is TypeKind.VARCHAR
            or expr.right.sql_type.kind is TypeKind.VARCHAR
        )

        left_const = None if is_string else _scalar_constant(expr.left)
        right_const = None if is_string else _scalar_constant(expr.right)

        # Predicate-on-codes: when one side is a constant, an encoded
        # column on the other side compares without decoding —
        # dictionary codes for strings, offsets/runs for integers.
        # ``(compiled column side, effective op, string source)``; the
        # numeric consts reuse left_const/right_const.
        _FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                 "=": "=", "<>": "<>", "!=": "!="}
        if is_string:
            rsrc = _string_const_source(expr.right)
            lsrc = _string_const_source(expr.left)
            if rsrc is not None:
                fast_str = (True, op, rsrc)
            elif lsrc is not None:
                fast_str = (False, _FLIP[op], lsrc)
            else:
                fast_str = None
        else:
            fast_str = None

        compare = _COMPARISONS[op]

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            if fast_str is not None:
                col_on_left, eff_op, src = fast_str
                ccol = (left if col_on_left else right)(batch, ctx)
                # An unbound parameter is left to raise below.
                bound = src[0] == "lit" or src[1] in ctx.params
                const = _resolve_string_const(src, ctx)
                if bound and const is None:
                    # Bound-but-NULL parameter: the comparison is
                    # unknown everywhere, without reading the column.
                    n = len(batch)
                    return Column(
                        np.zeros(n, dtype=np.bool_), BOOLEAN,
                        np.zeros(n, dtype=np.bool_),
                    )
                if isinstance(const, str):
                    if isinstance(ccol, DictionaryColumn):
                        out = ccol.compare_const(eff_op, const)
                        _decode_skipped(len(ccol))
                        return Column(out, BOOLEAN, ccol.valid)
                    # The constant stays one Python string, not a
                    # column of them.
                    operands = (
                        (ccol.values, const) if col_on_left
                        else (const, ccol.values)
                    )
                    return Column(
                        _compare_live(compare, *operands, ccol.valid),
                        BOOLEAN, ccol.valid,
                    )
            if left_const is not None:
                lval, lvalid = left_const, None
                if right_const is None:
                    rcol = right(batch, ctx)
                    if isinstance(rcol, EncodedColumn) and not (
                        isinstance(rcol, DictionaryColumn)
                    ):
                        out = rcol.compare_const(
                            _FLIP[op], left_const
                        )
                        _decode_skipped(len(rcol))
                        return Column(out, BOOLEAN, rcol.valid)
                    rval, rvalid = rcol.values, rcol.valid
                else:
                    rval, rvalid = right_const, None
            else:
                lcol = left(batch, ctx)
                if right_const is not None and isinstance(
                    lcol, EncodedColumn
                ) and not isinstance(lcol, DictionaryColumn):
                    out = lcol.compare_const(op, right_const)
                    _decode_skipped(len(lcol))
                    return Column(out, BOOLEAN, lcol.valid)
                lval, lvalid = lcol.values, lcol.valid
                if right_const is not None:
                    rval, rvalid = right_const, None
                else:
                    rcol = right(batch, ctx)
                    rval, rvalid = rcol.values, rcol.valid
            validity = _and_validity(lvalid, rvalid)
            if is_string:
                return Column(
                    _compare_live(compare, lval, rval, validity),
                    BOOLEAN, validity,
                )
            values = compare(lval, rval)
            if np.isscalar(values) or (
                hasattr(values, "ndim") and values.ndim == 0
            ):
                return Column.constant(bool(values), len(batch), BOOLEAN)
            return Column(np.asarray(values, dtype=np.bool_), BOOLEAN, validity)

        return run

    def _compile_logical(self, expr: b.BoundBinary) -> Compiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        is_and = expr.op == "and"

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            lcol = left(batch, ctx)
            rcol = right(batch, ctx)
            lval = lcol.values.astype(np.bool_, copy=False)
            rval = rcol.values.astype(np.bool_, copy=False)
            lvalid = lcol.validity()
            rvalid = rcol.validity()
            if is_and:
                # Kleene AND: false AND anything = false.
                values = lval & rval
                known_false = (~lval & lvalid) | (~rval & rvalid)
                validity = (lvalid & rvalid) | known_false
            else:
                # Kleene OR: true OR anything = true.
                values = lval | rval
                known_true = (lval & lvalid) | (rval & rvalid)
                validity = (lvalid & rvalid) | known_true
            return Column(values, BOOLEAN, validity)

        return run

    # -- functions, casts, CASE ------------------------------------------------

    def _compile_BoundFunction(self, expr: b.BoundFunction) -> Compiled:
        from . import functions

        func = functions.lookup(expr.name)
        if func is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [self.compile(a) for a in expr.args]
        impl = func.impl
        sql_type = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            cols = [a(batch, ctx) for a in args]
            if not cols:
                # Zero-arg functions (pi()): broadcast to batch length.
                single = impl(cols)
                return Column.constant(
                    single.value_at(0), len(batch), sql_type
                )
            return impl(cols)

        return run

    def _compile_BoundUDF(self, expr: b.BoundUDF) -> Compiled:
        args = [self.compile(a) for a in expr.args]
        func = expr.func
        name = expr.name
        sql_type = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            cols = [a(batch, ctx) for a in args]
            n = len(batch)
            results: list[object] = [None] * n
            # Black-box per-row execution: the engine cannot vectorise or
            # inspect user code (paper section 4.1).
            arg_lists = [c.to_pylist() for c in cols]
            for i in range(n):
                try:
                    results[i] = func(*(a[i] for a in arg_lists))
                except Exception as exc:  # noqa: BLE001 - sandbox boundary
                    raise UDFError(
                        f"UDF {name!r} raised {type(exc).__name__}: {exc}"
                    ) from exc
            return Column.from_values(results, sql_type)

        return run

    def _compile_BoundCast(self, expr: b.BoundCast) -> Compiled:
        operand = self.compile(expr.operand)
        target = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            return operand(batch, ctx).cast(target)

        return run

    def _compile_BoundCase(self, expr: b.BoundCase) -> Compiled:
        whens = [
            (self.compile(cond), self.compile(result))
            for cond, result in expr.whens
        ]
        else_result = (
            self.compile(expr.else_result)
            if expr.else_result is not None
            else None
        )
        sql_type = expr.sql_type

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            n = len(batch)
            out = np.zeros(n, dtype=sql_type.numpy_dtype())
            out_valid = np.zeros(n, dtype=np.bool_)
            undecided = np.ones(n, dtype=np.bool_)
            for cond, result in whens:
                if not undecided.any():
                    break
                mask = truth_mask(cond(batch, ctx)) & undecided
                if not mask.any():
                    # A WHEN that matches nothing still decides nothing.
                    undecided &= ~mask
                    continue
                res = result(batch, ctx).cast(sql_type)
                out[mask] = res.values[mask]
                out_valid[mask] = res.validity()[mask]
                undecided &= ~mask
            if else_result is not None and undecided.any():
                res = else_result(batch, ctx).cast(sql_type)
                out[undecided] = res.values[undecided]
                out_valid[undecided] = res.validity()[undecided]
            return Column(out, sql_type, out_valid)

        return run

    # -- predicates ---------------------------------------------------------------

    def _compile_BoundIsNull(self, expr: b.BoundIsNull) -> Compiled:
        operand = self.compile(expr.operand)
        negated = expr.negated

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            col = operand(batch, ctx)
            if isinstance(col, EncodedColumn):
                # Already decode-free (validity only) — count it.
                _decode_skipped(len(col))
            is_null = ~col.validity()
            values = ~is_null if negated else is_null
            return Column(values, BOOLEAN)

        return run

    def _compile_BoundInList(self, expr: b.BoundInList) -> Compiled:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated
        # Dictionary fast path: every IN item a constant string means
        # membership is a set test over codes, no decode.
        item_sources = None
        if expr.operand.sql_type.kind is TypeKind.VARCHAR:
            sources = [
                _string_const_source(item) for item in expr.items
            ]
            if all(s is not None for s in sources):
                item_sources = sources

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            col = operand(batch, ctx)
            if item_sources is not None and isinstance(
                col, DictionaryColumn
            ):
                consts = [
                    _resolve_string_const(s, ctx)
                    for s in item_sources
                ]
                if all(isinstance(c, str) for c in consts):
                    matched = col.isin_const(consts)
                    _decode_skipped(len(col))
                    values = ~matched if negated else matched
                    return Column(values, BOOLEAN, col.valid)
            n = len(col)
            matched = np.zeros(n, dtype=np.bool_)
            any_null_item = np.zeros(n, dtype=np.bool_)
            for item in items:
                icol = item(batch, ctx)
                ivalid = icol.validity()
                any_null_item |= ~ivalid
                equal = col.values == icol.values
                matched |= np.asarray(equal, dtype=np.bool_) & ivalid
            # SQL: x IN (..NULL..) is NULL when nothing matched.
            validity = col.validity() & (matched | ~any_null_item)
            values = ~matched if negated else matched
            return Column(values, BOOLEAN, validity)

        return run

    def _compile_BoundLike(self, expr: b.BoundLike) -> Compiled:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            col = operand(batch, ctx)
            pat = pattern(batch, ctx)
            validity = _and_validity(col.valid, pat.valid)
            n = len(col)
            out = np.zeros(n, dtype=np.bool_)
            live = (
                validity if validity is not None else np.ones(n, np.bool_)
            )
            for i in np.flatnonzero(live):
                regex = _like_regex(pat.values[i])
                out[i] = regex.match(col.values[i]) is not None
            if negated:
                out = ~out
            return Column(out, BOOLEAN, validity)

        return run

    # -- subqueries -------------------------------------------------------------------

    def _compile_BoundSubquery(self, expr: b.BoundSubquery) -> Compiled:
        probe = self.compile(expr.probe) if expr.probe is not None else None
        kind = expr.kind
        negated = expr.negated
        sql_type = expr.sql_type
        # Imported here: effects needs the plan package, and that
        # package loads this module before it is complete.
        from .effects import plan_effects

        # A subplan holding user code runs once per outer row, as the
        # SQL says, never once per distinct outer value.
        by_row = bool(expr.outer_slots) and plan_effects(expr.plan).user_code

        def run(batch: ColumnBatch, ctx: EvalContext) -> Column:
            if expr.outer_slots:
                codes, results = _correlated_results(expr, batch, ctx, by_row)
            else:
                codes = np.zeros(len(batch), dtype=np.intp)
                results = [subquery_result(expr, ctx)]
            if kind == "exists":
                values = np.asarray(results, dtype=np.bool_)[codes]
                return Column(~values if negated else values, BOOLEAN)
            if kind == "scalar":
                if not results:
                    return Column.from_values([], sql_type)
                per_group = Column.concat(results)
                values = per_group.values.astype(
                    sql_type.numpy_dtype(), copy=False
                )
                return Column(values, sql_type, per_group.valid).take(codes)
            return _in_result(probe(batch, ctx), codes, results, negated)

        return run

    # -- lambdas --------------------------------------------------------------------

    def _compile_BoundLambda(self, expr: b.BoundLambda) -> Compiled:
        """Compiling a lambda compiles its body: the variation point feeds
        batches whose column slots are ``{param}.{attr}`` (section 7)."""
        return self.compile(expr.body)
