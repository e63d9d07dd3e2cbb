"""The CREATE / INSERT / UPDATE / DELETE executors.

Each takes the engine's :class:`~repro.api.pipeline.StatementPipeline`
(``pipe``: binder, execution contexts, nested SELECTs, metrics), the
running statement's scratch and the transaction to write into.
"""

from __future__ import annotations

import numpy as np

from ..errors import BindError, ReproError
from ..exec.scan import ValuesOp
from ..expr.compiler import truth_mask
from ..plan.logical import PlanColumn
from ..sql import ast
from ..sql.parser import parse_sql
from ..storage.column import Column, ColumnBatch
from ..storage.schema import ColumnSchema, TableSchema
from ..storage.table import TableData
from ..txn.manager import Transaction
from ..types import INTEGER, SQLType, TypeKind, type_from_name
from .result import QueryResult


def run_create(
    pipe, running, statement: ast.CreateTable, txn: Transaction
) -> QueryResult:
    if statement.as_query is not None:
        inner = pipe.run_select(statement.as_query, txn, running)
        schema = TableSchema(
            tuple(
                ColumnSchema(name, sql_type)
                for name, sql_type in zip(inner.columns, inner.types)
            )
        )
        txn.create_table(
            statement.name, schema, statement.if_not_exists
        )
        _append(
            txn, statement.name, range(len(schema)), inner.output_columns()
        )
        return QueryResult.statement(len(inner))
    columns = []
    for col in statement.columns:
        sql_type = type_from_name(col.type_name, col.width)
        columns.append(ColumnSchema(col.name, sql_type, col.not_null))
    txn.create_table(
        statement.name, TableSchema(tuple(columns)),
        statement.if_not_exists,
    )
    return QueryResult.statement(0)


def _assign(column: Column, target: SQLType) -> Column:
    """A query's output column as values of a table column of type
    ``target`` (INSERT ... SELECT, CTAS): :meth:`Column.cast`, plus
    the check per-value coercion used to make — a NaN, an infinity or
    a number outside the integer type's range is an error, not a
    wrapped integer."""
    if column.sql_type.kind is target.kind:
        return column
    if (
        column.sql_type.kind is TypeKind.BOOLEAN
        and target.kind is TypeKind.VARCHAR
    ):
        # What INSERT ... VALUES stores for a boolean, not CAST's 'true'.
        words = np.array(["False", "True"], dtype=object)
        values = words[column.values.astype(np.intp)]
        return Column(values, target, column.valid)
    dtype = target.numpy_dtype()
    if dtype.kind == "i" and column.sql_type.is_numeric:
        live = column.values
        if column.valid is not None:
            live = live[column.valid]
        if live.size:
            bounds = np.iinfo(dtype)
            inside = (live > bounds.min - 1.0) & (live < bounds.max + 1.0)
            if not inside.all():
                raise BindError(
                    f"cannot coerce {live[~inside][0].item()!r} to {target}"
                )
    return column.cast(target)


def _append(txn: Transaction, table: str, positions, columns) -> int:
    """Append rows: ``columns`` go to the schema ordinals in
    ``positions`` (coerced to their types), every other column is
    NULL."""
    schema = txn.schema_of(table)
    if len(columns) != len(positions):
        raise BindError(
            f"INSERT expects {len(positions)} values, got {len(columns)}"
        )
    n = len(columns[0]) if columns else 0
    given = dict(zip(positions, columns))
    return txn.append_columns(
        table,
        [
            _assign(given[i], col.sql_type)
            if i in given
            else Column.all_null(n, col.sql_type)
            for i, col in enumerate(schema)
        ],
    )


def _target_positions(txn: Transaction, statement: ast.Insert) -> list[int]:
    schema = txn.schema_of(statement.table)
    return [
        schema.index_of(name)
        for name in statement.columns or schema.names()
    ]


def run_insert(
    pipe, running, statement: ast.Insert, txn: Transaction
) -> QueryResult:
    positions = _target_positions(txn, statement)
    if statement.query is not None:
        inner = pipe.run_select(statement.query, txn, running)
        return QueryResult.statement(
            _append(txn, statement.table, positions, inner.output_columns())
        )
    assert statement.rows is not None
    rows = _evaluate_value_rows(pipe, running, statement.rows, txn)
    return QueryResult.statement(
        _append_cells(txn, statement.table, positions, rows)
    )


def _append_cells(
    txn: Transaction, table: str, positions: list[int], rows: list
) -> int:
    """Append Python value rows whose cells go to ``positions``."""
    for row in rows:
        if len(row) != len(positions):
            raise BindError(
                f"INSERT expects {len(positions)} values, got "
                f"{len(row)}"
            )
    schema = txn.schema_of(table)
    columns = [
        Column.from_values(
            [row[k] for row in rows], schema.columns[pos].sql_type
        )
        for k, pos in enumerate(positions)
    ]
    return _append(txn, table, positions, columns)


def _evaluate_value_rows(
    pipe, running, rows: list[list[ast.Expr]], txn: Transaction
) -> list[tuple]:
    binder = pipe.binder(txn)
    one_row = ColumnBatch(
        {ValuesOp.CARRIER: Column(np.zeros(1, np.int32), INTEGER)}
    )
    out = []
    with pipe.exec_context(txn, running) as ctx:
        eval_ctx = ctx.new_eval_context()
        for row in rows:
            values = []
            for cell in row:
                bound = binder.bind_standalone(cell, [])
                compiled = ctx.compiler.compile(bound)
                values.append(compiled(one_row, eval_ctx).value_at(0))
            out.append(tuple(values))
    return out


def _table_as_batch(
    data: TableData,
) -> tuple[ColumnBatch, list[PlanColumn]]:
    columns = [
        PlanColumn(c.name, f"u.{c.name}", c.sql_type)
        for c in data.schema
    ]
    batch = ColumnBatch(
        {
            col.slot: data.columns[i]
            for i, col in enumerate(columns)
        }
    )
    return batch, columns


def _matching_positions(binder, ctx, where, batch, columns) -> np.ndarray:
    """Row numbers of the table (as ``batch``) a statement's WHERE
    keeps — all of them without one."""
    if where is None:
        return np.arange(len(batch))
    predicate = binder.bind_standalone(where, columns)
    return np.flatnonzero(
        truth_mask(
            ctx.compiler.compile(predicate)(batch, ctx.new_eval_context())
        )
    )


def run_update(
    pipe, running, statement: ast.Update, txn: Transaction
) -> QueryResult:
    data = txn.read(statement.table)
    batch, columns = _table_as_batch(data)
    binder = pipe.binder(txn)
    replacements: dict[int, Column] = {}
    with pipe.exec_context(txn, running) as ctx:
        positions = _matching_positions(
            binder, ctx, statement.where, batch, columns
        )
        eval_ctx = ctx.new_eval_context()
        for col_name, expr in statement.assignments:
            ordinal = data.schema.index_of(col_name)
            bound = binder.bind_standalone(expr, columns)
            new_col = ctx.compiler.compile(bound)(batch, eval_ctx)
            new_col = new_col.take(positions)
            target = data.schema.columns[ordinal].sql_type
            if new_col.sql_type.kind is not target.kind:
                new_col = new_col.cast(target)
            replacements[ordinal] = new_col
    updated = txn.update_rows(statement.table, positions, replacements)
    pipe.metrics.counter("storage_rows_updated_total").inc(updated)
    return QueryResult.statement(updated)


def run_delete(
    pipe, running, statement: ast.Delete, txn: Transaction
) -> QueryResult:
    data = txn.read(statement.table)
    batch, columns = _table_as_batch(data)
    with pipe.exec_context(txn, running) as ctx:
        positions = _matching_positions(
            pipe.binder(txn), ctx, statement.where, batch, columns
        )
    deleted = txn.delete_rows(statement.table, positions)
    pipe.metrics.counter("storage_rows_deleted_total").inc(deleted)
    return QueryResult.statement(deleted)


def bulk_insert_template(sql: str, first_row: tuple):
    """``executemany``'s bulk fast path applies to one plain
    ``INSERT ... VALUES`` of placeholders/literals: returns it parsed
    once in parameterized form, or None when ``sql`` doesn't qualify
    (the per-row loop then reports any parse/bind error itself)."""
    try:
        statements = parse_sql(sql, list(first_row), parameterize=True)
    except ReproError:
        return None
    if len(statements) != 1:
        return None
    statement = statements[0]
    if not isinstance(statement, ast.Insert):
        return None
    if statement.query is not None or not statement.rows:
        return None
    if not all(
        isinstance(cell, (ast.Placeholder, ast.Literal))
        for row in statement.rows
        for cell in row
    ):
        return None
    return statement


def bulk_insert(
    statement: ast.Insert, rows: list[tuple], txn: Transaction
) -> int:
    """Install every parameter tuple with a single append: each target
    column's cells are gathered (placeholders from the tuples, literals
    from the statement) and converted as one column."""
    n_params = len(rows[0])
    for params in rows:
        if len(params) != n_params:
            raise BindError(
                f"executemany row has {len(params)} "
                f"parameters, expected {n_params}"
            )
    return _append_cells(
        txn,
        statement.table,
        _target_positions(txn, statement),
        [
            [
                params[cell.index]
                if isinstance(cell, ast.Placeholder)
                else cell.value
                for cell in template
            ]
            for params in rows
            for template in statement.rows
        ],
    )
