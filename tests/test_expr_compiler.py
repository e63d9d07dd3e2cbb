"""Direct unit tests for the expression compiler and bound expressions."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.expr import bound as b
from repro.expr.compiler import (
    EvalContext,
    ExpressionCompiler,
    truth_mask,
    _like_regex,
    _scalar_constant,
)
from repro.expr.effects import effects
from repro.storage.column import Column, ColumnBatch
from repro.types import BOOLEAN, DOUBLE, INTEGER, VARCHAR


@pytest.fixture
def compiler():
    return ExpressionCompiler()


@pytest.fixture
def batch():
    return ColumnBatch(
        {
            "a": Column.from_values([1, 2, None, 4], INTEGER),
            "b": Column.from_values([10.0, 20.0, 30.0, 40.0], DOUBLE),
            "s": Column.from_values(["x", "y", None, "w"], VARCHAR),
        }
    )


def run(compiler, expr, batch):
    return compiler.compile(expr)(batch, EvalContext())


class TestLeaves:
    def test_literal_broadcast(self, compiler, batch):
        col = run(compiler, b.BoundLiteral(5, INTEGER), batch)
        assert col.to_pylist() == [5, 5, 5, 5]

    def test_column_ref(self, compiler, batch):
        col = run(compiler, b.BoundColumnRef("a", INTEGER), batch)
        assert col.to_pylist() == [1, 2, None, 4]

    def test_missing_slot_raises(self, compiler, batch):
        with pytest.raises(ExecutionError, match="missing"):
            run(compiler, b.BoundColumnRef("nope", INTEGER), batch)

    def test_param(self, compiler, batch):
        compiled = compiler.compile(b.BoundParam("p", INTEGER))
        col = compiled(batch, EvalContext(params={"p": 9}))
        assert col.to_pylist() == [9, 9, 9, 9]

    def test_unbound_param_raises(self, compiler, batch):
        compiled = compiler.compile(b.BoundParam("p", INTEGER))
        with pytest.raises(ExecutionError, match="unbound"):
            compiled(batch, EvalContext())


def test_negative_zero_literal_has_a_kernel_of_its_own():
    """``-0.0 == 0.0``, but the two literals print apart: the shared
    kernel cache (and the loop-body sharing keyed on the same
    fingerprint) must tell them apart."""
    import repro

    db = repro.Database()
    assert db.execute("SELECT CAST(0.0 AS VARCHAR)").rows == [("0.0",)]
    assert db.execute("SELECT CAST(-0.0 AS VARCHAR)").rows == [("-0.0",)]


class TestArithmetic:
    def test_null_propagation(self, compiler, batch):
        expr = b.BoundBinary(
            "+",
            b.BoundColumnRef("a", INTEGER),
            b.BoundLiteral(1, INTEGER),
            INTEGER,
        )
        assert run(compiler, expr, batch).to_pylist() == [2, 3, None, 5]

    def test_constant_folding_into_closure(self, compiler):
        """Literal operands stay scalars — never materialised columns."""
        expr = b.BoundBinary(
            "*", b.BoundLiteral(3, INTEGER), b.BoundLiteral(4, INTEGER),
            INTEGER,
        )
        batch = ColumnBatch(
            {"x": Column.from_values([0] * 3, INTEGER)}
        )
        col = run(compiler, expr, batch)
        assert col.to_pylist() == [12, 12, 12]

    def test_pow_two_specialised(self, compiler, batch):
        expr = b.BoundBinary(
            "^", b.BoundColumnRef("b", DOUBLE),
            b.BoundLiteral(2, INTEGER), DOUBLE,
        )
        assert run(compiler, expr, batch).to_pylist() == [
            100.0, 400.0, 900.0, 1600.0,
        ]

    def test_pow_half_is_sqrt(self, compiler, batch):
        expr = b.BoundBinary(
            "^", b.BoundColumnRef("b", DOUBLE),
            b.BoundLiteral(0.5, DOUBLE), DOUBLE,
        )
        values = run(compiler, expr, batch).to_pylist()
        assert values[0] == pytest.approx(np.sqrt(10.0))

    def test_scalar_division_by_zero(self, compiler, batch):
        expr = b.BoundBinary(
            "/", b.BoundColumnRef("a", INTEGER),
            b.BoundLiteral(0, INTEGER), INTEGER,
        )
        with pytest.raises(ExecutionError):
            run(compiler, expr, batch)


class TestHelpers:
    def test_truth_mask_unknown_is_false(self):
        col = Column.from_values([True, None, False], BOOLEAN)
        assert truth_mask(col).tolist() == [True, False, False]

    def test_like_regex_translation(self):
        assert _like_regex("a%b").match("aXYZb")
        assert _like_regex("a_b").match("axb")
        assert not _like_regex("a_b").match("axxb")
        assert _like_regex("100%").match("100 percent")
        # Regex metacharacters are literal in LIKE.
        assert _like_regex("a.b").match("a.b")
        assert not _like_regex("a.b").match("axb")

    def test_scalar_constant_recognises_casts(self):
        lit = b.BoundLiteral(3, INTEGER)
        assert _scalar_constant(lit) == 3
        cast = b.BoundCast(lit, DOUBLE)
        assert _scalar_constant(cast) == 3.0
        assert _scalar_constant(b.BoundColumnRef("x", INTEGER)) is None
        assert _scalar_constant(b.BoundLiteral(None, INTEGER)) is None
        assert _scalar_constant(b.BoundLiteral(True, BOOLEAN)) is None

    def test_referenced_slots(self):
        expr = b.BoundBinary(
            "+",
            b.BoundColumnRef("a", INTEGER),
            b.BoundFunction(
                "abs", [b.BoundColumnRef("b", DOUBLE)], DOUBLE
            ),
            DOUBLE,
        )
        assert effects(expr).reads == {"a", "b"}


class TestCaseEvaluation:
    def test_case_lazy_enough(self, compiler, batch):
        # CASE guards division: rows failing the WHEN are never divided.
        expr = b.BoundCase(
            whens=[
                (
                    b.BoundBinary(
                        ">",
                        b.BoundColumnRef("b", DOUBLE),
                        b.BoundLiteral(15.0, DOUBLE),
                        BOOLEAN,
                    ),
                    b.BoundLiteral("big", VARCHAR),
                )
            ],
            else_result=b.BoundLiteral("small", VARCHAR),
            sql_type=VARCHAR,
        )
        assert run(compiler, expr, batch).to_pylist() == [
            "small", "big", "big", "big",
        ]


class TestLambdaCompilation:
    def test_lambda_body_vectorised(self, compiler):
        lam = b.BoundLambda(
            params=["a", "b"],
            body=b.BoundBinary(
                "-",
                b.BoundColumnRef("a.x", DOUBLE),
                b.BoundColumnRef("b.x", DOUBLE),
                DOUBLE,
            ),
            param_attrs={"a": ["x"], "b": ["x"]},
        )
        batch = ColumnBatch(
            {
                "a.x": Column.from_values([3.0, 5.0], DOUBLE),
                "b.x": Column.from_values([1.0, 1.0], DOUBLE),
            }
        )
        col = compiler.compile(lam)(batch, EvalContext())
        assert col.to_pylist() == [2.0, 4.0]
        assert lam.sql_type == DOUBLE  # inferred from the body
