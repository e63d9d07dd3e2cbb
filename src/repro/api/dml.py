"""The CREATE / INSERT / UPDATE / DELETE executors.

Each takes the engine's :class:`~repro.api.pipeline.StatementPipeline`
(``pipe``: binder, execution contexts, nested SELECTs, metrics), the
running statement's scratch and the transaction to write into.
"""

from __future__ import annotations

import numpy as np

from ..errors import BindError, CatalogError, ReproError
from ..exec.scan import ValuesOp
from ..expr.compiler import truth_mask
from ..plan.logical import PlanColumn
from ..sql import ast
from ..sql.parser import parse_sql
from ..storage.column import Column, ColumnBatch
from ..storage.schema import ColumnSchema, TableSchema
from ..storage.table import TableData
from ..txn.manager import Transaction
from ..types import INTEGER, coerce_scalar, type_from_name
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
        txn.insert_rows(statement.name, inner.rows)
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


def run_insert(
    pipe, running, statement: ast.Insert, txn: Transaction
) -> QueryResult:
    schema = txn.schema_of(statement.table)
    target_columns = statement.columns or schema.names()
    positions = [schema.index_of(name) for name in target_columns]

    if statement.query is not None:
        inner = pipe.run_select(statement.query, txn, running)
        source_rows = inner.rows
    else:
        assert statement.rows is not None
        source_rows = _evaluate_value_rows(
            pipe, running, statement.rows, txn
        )

    width = len(schema)
    rows_out = []
    for row in source_rows:
        if len(row) != len(positions):
            raise BindError(
                f"INSERT expects {len(positions)} values, got "
                f"{len(row)}"
            )
        full: list[object] = [None] * width
        for pos, value in zip(positions, row):
            col_schema = schema.columns[pos]
            full[pos] = (
                None
                if value is None
                else coerce_scalar(value, col_schema.sql_type)
            )
        rows_out.append(tuple(full))
    count = txn.insert_rows(statement.table, rows_out)
    return QueryResult.statement(count)


def _evaluate_value_rows(
    pipe, running, rows: list[list[ast.Expr]], txn: Transaction
) -> list[tuple]:
    binder = pipe.binder(txn)
    ctx = pipe.exec_context(txn, running)
    one_row = ColumnBatch(
        {ValuesOp.CARRIER: Column(np.zeros(1, np.int32), INTEGER)}
    )
    eval_ctx = ctx.new_eval_context()
    out = []
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


def run_update(
    pipe, running, statement: ast.Update, txn: Transaction
) -> QueryResult:
    data = txn.read(statement.table)
    batch, columns = _table_as_batch(data)
    binder = pipe.binder(txn)
    ctx = pipe.exec_context(txn, running)
    eval_ctx = ctx.new_eval_context()

    if statement.where is not None:
        predicate = binder.bind_standalone(statement.where, columns)
        mask = truth_mask(
            ctx.compiler.compile(predicate)(batch, eval_ctx)
        )
    else:
        mask = np.ones(data.row_count, dtype=np.bool_)

    replacements: dict[int, Column] = {}
    for col_name, expr in statement.assignments:
        ordinal = data.schema.index_of(col_name)
        target_schema = data.schema.columns[ordinal]
        bound = binder.bind_standalone(expr, columns)
        new_col = ctx.compiler.compile(bound)(batch, eval_ctx)
        new_col = new_col.cast(target_schema.sql_type)
        old_col = data.columns[ordinal]
        merged_values = np.where(mask, new_col.values, old_col.values)
        if data.schema.columns[ordinal].sql_type.numpy_dtype() == object:
            merged_values = merged_values.astype(object)
        else:
            merged_values = merged_values.astype(
                target_schema.sql_type.numpy_dtype()
            )
        merged_valid = np.where(
            mask, new_col.validity(), old_col.validity()
        )
        if target_schema.not_null and not merged_valid.all():
            raise CatalogError(
                f"NULL in NOT NULL column {col_name!r}"
            )
        replacements[ordinal] = Column(
            merged_values, target_schema.sql_type, merged_valid
        )
    new_data = data.replace_columns(replacements)
    txn.write(statement.table, new_data)
    _log_replace(pipe, txn, statement.table, new_data)
    updated = int(mask.sum())
    pipe.metrics.counter("storage_rows_updated_total").inc(updated)
    return QueryResult.statement(updated)


def run_delete(
    pipe, running, statement: ast.Delete, txn: Transaction
) -> QueryResult:
    data = txn.read(statement.table)
    batch, columns = _table_as_batch(data)
    if statement.where is None:
        keep = np.zeros(data.row_count, dtype=np.bool_)
    else:
        binder = pipe.binder(txn)
        ctx = pipe.exec_context(txn, running)
        predicate = binder.bind_standalone(statement.where, columns)
        mask = truth_mask(
            ctx.compiler.compile(predicate)(
                batch, ctx.new_eval_context()
            )
        )
        keep = ~mask
    deleted = int(data.row_count - keep.sum())
    new_data = data.delete_where(keep)
    txn.write(statement.table, new_data)
    _log_replace(pipe, txn, statement.table, new_data)
    pipe.metrics.counter("storage_rows_deleted_total").inc(deleted)
    return QueryResult.statement(deleted)


def _log_replace(
    pipe, txn: Transaction, table: str, data: TableData
) -> None:
    """Record a whole-table replacement in the WAL (UPDATE/DELETE)."""
    if pipe.txns.wal is None:
        return
    txn._log.append(("replace", table.lower(), list(data.rows())))


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
    """Coerce every parameter tuple against the schema and install
    them all with a single ``insert_rows``."""
    n_params = len(rows[0])
    schema = txn.schema_of(statement.table)
    target_columns = statement.columns or schema.names()
    positions = [schema.index_of(name) for name in target_columns]
    width = len(schema)
    types = [schema.columns[pos].sql_type for pos in positions]
    rows_out = []
    for params in rows:
        if len(params) != n_params:
            raise BindError(
                f"executemany row has {len(params)} "
                f"parameters, expected {n_params}"
            )
        for template in statement.rows:
            if len(template) != len(positions):
                raise BindError(
                    f"INSERT expects {len(positions)} "
                    f"values, got {len(template)}"
                )
            full: list[object] = [None] * width
            for pos, sql_type, cell in zip(positions, types, template):
                value = (
                    params[cell.index]
                    if isinstance(cell, ast.Placeholder)
                    else cell.value
                )
                full[pos] = (
                    None
                    if value is None
                    else coerce_scalar(value, sql_type)
                )
            rows_out.append(tuple(full))
    return txn.insert_rows(statement.table, rows_out)
