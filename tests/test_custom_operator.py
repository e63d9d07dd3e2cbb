"""Extensibility: plugging a new analytics operator into the core.

The paper's layer 4 is implemented "by the database system's
architects" (section 1); this test plays architect and registers a
Z-SCORE normalisation operator with its own lambda variation point,
verifying that binding, cardinality contract, lambda compilation, and
execution all compose through the public registry API.
"""

import numpy as np
import pytest

import repro
from repro.analytics.registry import OperatorDescriptor
from repro.errors import BindError
from repro.plan.logical import LogicalTableFunction, PlanColumn
from repro.storage.column import Column, ColumnBatch
from repro.types import DOUBLE


class ZScoreDescriptor(OperatorDescriptor):
    """``ZSCORE((data) [, λ(x) transform])`` — normalise every numeric
    column to zero mean / unit variance, optionally post-transforming
    values with a lambda over the normalised tuple."""

    name = "zscore"

    def bind(self, binder, func, parent_scope, ctes):
        data_plan = self._arg_subquery(
            binder, func, 0, parent_scope, ctes, "data"
        )
        numeric = self._numeric_columns(data_plan, "ZSCORE data")
        if len(numeric) != len(data_plan.output):
            raise BindError("ZSCORE input must be all numeric")
        attrs = [c.name for c in numeric]
        transform = self._optional_lambda(
            binder, func, 1, [[(a, DOUBLE) for a in attrs]]
        )
        lambdas = {"transform": transform} if transform else {}
        output = [
            PlanColumn(a, binder.fresh_expr_slot(), DOUBLE)
            for a in attrs
        ]
        return LogicalTableFunction(
            name=self.name, inputs=[data_plan], lambdas=lambdas,
            params=[attrs], output=output,
        )

    def estimate_rows(self, node, input_estimates):
        return input_estimates[0]  # contract: row-preserving

    def run(self, node, inputs, ctx, eval_ctx):
        (batch,) = inputs
        (attrs,) = node.params
        columns = {}
        for name in attrs:
            values = batch[name].values.astype(np.float64)
            std = values.std() or 1.0
            columns[name] = Column(
                (values - values.mean()) / std, DOUBLE
            )
        out = ColumnBatch(columns)
        transform = node.lambdas.get("transform")
        if transform is not None:
            fn = ctx.compiler.compile(transform)
            param = transform.params[0]
            lam_batch = ColumnBatch(
                {
                    f"{param}.{a}": out[a]
                    for a in transform.param_attrs[param]
                }
            )
            first = attrs[0]
            columns[first] = fn(lam_batch, eval_ctx)
            out = ColumnBatch(columns)
        return out


@pytest.fixture
def db_with_op(db):
    db.register_operator(ZScoreDescriptor())
    db.execute("CREATE TABLE m (v FLOAT, w FLOAT)")
    db.insert_rows(
        "m", [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
    )
    return db


class TestCustomOperator:
    def test_runs_from_sql(self, db_with_op):
        rows = db_with_op.execute(
            "SELECT v FROM ZSCORE((SELECT v, w FROM m)) ORDER BY v"
        ).rows
        values = [r[0] for r in rows]
        assert values[1] == pytest.approx(0.0)
        assert sum(values) == pytest.approx(0.0)

    def test_composes_with_relational_ops(self, db_with_op):
        top = db_with_op.execute(
            "SELECT count(*) FROM ZSCORE((SELECT v, w FROM m)) "
            "WHERE v > 0"
        ).scalar()
        assert top == 1

    def test_lambda_variation_point(self, db_with_op):
        rows = db_with_op.execute(
            "SELECT v FROM ZSCORE((SELECT v, w FROM m), "
            "LAMBDA(t) abs(t.v)) ORDER BY v"
        ).rows
        assert [round(r[0], 6) for r in rows] == [
            0.0,
            pytest.approx(1.224745),
            pytest.approx(1.224745),
        ]

    def test_bind_errors_surface(self, db_with_op):
        db_with_op.execute("CREATE TABLE s (t VARCHAR)")
        with pytest.raises(BindError, match="numeric"):
            db_with_op.execute(
                "SELECT * FROM ZSCORE((SELECT t FROM s))"
            )

    def test_cardinality_contract_used(self, db_with_op):
        from repro.sql.parser import parse_statement

        txn = db_with_op.txns.begin()
        try:
            optimizer = db_with_op.pipeline.optimizer(txn)
            plan = db_with_op.pipeline.binder(txn).bind_query(
                parse_statement(
                    "SELECT * FROM ZSCORE((SELECT v, w FROM m))"
                )
            )
            assert optimizer.estimate(plan) == pytest.approx(3.0)
        finally:
            txn.rollback()

    def test_unregistered_operator_still_unknown(self, db):
        with pytest.raises(BindError, match="unknown table function"):
            db.execute("SELECT * FROM ZSCORE((SELECT 1))")
