"""Unit tests for the expression language."""

import numpy as np
import pytest

from repro.errors import TypeCheckError
from repro.relational.expressions import col, days_from_date, infer_atom_type, lit
from repro.types import BOOL, FLOAT64, INT64, STRING, TupleType


@pytest.fixture
def columns():
    return {
        "a": np.array([1, 2, 3, 4], dtype=np.int64),
        "b": np.array([10.0, 20.0, 30.0, 40.0]),
        "s": np.array(["PROMO X", "STD Y", "PROMO Z", "ECON W"], dtype="U16"),
    }


class TestEvaluation:
    def test_column_and_literal(self, columns):
        assert col("a").evaluate(columns).tolist() == [1, 2, 3, 4]
        assert lit(7).evaluate(columns) == 7

    def test_arithmetic(self, columns):
        expr = col("a") * 2 + 1
        assert expr.evaluate(columns).tolist() == [3, 5, 7, 9]

    def test_division_produces_floats(self, columns):
        expr = col("b") / col("a")
        assert expr.evaluate(columns).tolist() == [10.0, 10.0, 10.0, 10.0]

    def test_reverse_operators(self, columns):
        assert (10 - col("a")).evaluate(columns).tolist() == [9, 8, 7, 6]
        assert (2 * col("a")).evaluate(columns).tolist() == [2, 4, 6, 8]

    def test_comparisons(self, columns):
        assert (col("a") >= 3).evaluate(columns).tolist() == [False, False, True, True]
        assert (col("a") != 2).evaluate(columns).tolist() == [True, False, True, True]

    def test_boolean_connectives(self, columns):
        expr = (col("a") > 1) & (col("a") < 4)
        assert expr.evaluate(columns).tolist() == [False, True, True, False]
        assert (~expr).evaluate(columns).tolist() == [True, False, False, True]
        both = (col("a") == 1) | (col("a") == 4)
        assert both.evaluate(columns).tolist() == [True, False, False, True]

    def test_isin(self, columns):
        expr = col("a").isin([2, 4, 99])
        assert expr.evaluate(columns).tolist() == [False, True, False, True]

    def test_isin_drops_a_literal_the_column_cannot_hold(self, columns):
        # Cast to the column's dtype, 'MAILBOX' would match 'MAIL' and 1.5
        # would match 1; as under ``==``, neither matches anything.
        modes = {"x": np.array(["MAIL", "SHIP", "AIR"])}
        assert col("x").isin(["MAILBOX"]).evaluate(modes).tolist() == [False] * 3
        assert (col("x") == "MAILBOX").evaluate(modes).tolist() == [False] * 3
        assert col("x").isin(["MAILBOX", "AIR"]).evaluate(modes).tolist() == [False, False, True]
        assert col("a").isin([1.5]).evaluate(columns).tolist() == [False] * 4
        assert col("a").isin([1.5, 2.0]).evaluate(columns).tolist() == [False, True, False, False]

    def test_between_is_inclusive(self, columns):
        expr = col("a").between(2, 3)
        assert expr.evaluate(columns).tolist() == [False, True, True, False]

    def test_startswith(self, columns):
        expr = col("s").startswith("PROMO")
        assert expr.evaluate(columns).tolist() == [True, False, True, False]

    def test_unknown_column(self, columns):
        with pytest.raises(TypeCheckError, match="unknown column"):
            col("zz").evaluate(columns)

    def test_truthiness_is_rejected(self):
        with pytest.raises(TypeCheckError, match="symbolic"):
            bool(col("a") == 1)

    def test_scalar_evaluation(self):
        env = {"a": 5, "b": 2.0}
        assert (col("a") * col("b")).evaluate(env) == 10.0


class TestReferences:
    def test_collects_all_columns(self):
        expr = (col("a") + col("b")) * col("c")
        assert expr.references() == {"a", "b", "c"}

    def test_literals_reference_nothing(self):
        assert lit(5).references() == set()

    def test_isin_and_startswith(self):
        assert col("x").isin([1]).references() == {"x"}
        assert col("y").startswith("P").references() == {"y"}


class TestDates:
    def test_epoch(self):
        assert days_from_date("1970-01-01") == 0

    def test_tpch_window(self):
        assert days_from_date("1992-01-01") < days_from_date("1998-08-02")

    def test_known_value(self):
        assert days_from_date("1970-01-02") == 1


class TestTypeInference:
    SCHEMA = TupleType.of(i=INT64, f=FLOAT64, s=STRING)

    def test_column_types(self):
        assert infer_atom_type(col("i"), self.SCHEMA) == INT64
        assert infer_atom_type(col("f"), self.SCHEMA) == FLOAT64

    def test_literal_types(self):
        assert infer_atom_type(lit(1), self.SCHEMA) == INT64
        assert infer_atom_type(lit(1.5), self.SCHEMA) == FLOAT64
        assert infer_atom_type(lit(True), self.SCHEMA) == BOOL
        assert infer_atom_type(lit("x"), self.SCHEMA) == STRING

    def test_comparison_is_bool(self):
        assert infer_atom_type(col("i") > 3, self.SCHEMA) == BOOL

    def test_arithmetic_promotion(self):
        assert infer_atom_type(col("i") + 1, self.SCHEMA) == INT64
        assert infer_atom_type(col("i") * col("f"), self.SCHEMA) == FLOAT64
        assert infer_atom_type(col("i") / 2, self.SCHEMA) == FLOAT64

    def test_bool_arithmetic_is_int(self):
        flag = col("s").startswith("P") * 1
        assert infer_atom_type(flag, self.SCHEMA) == INT64

    def test_predicates_are_bool(self):
        assert infer_atom_type(col("i").isin([1]), self.SCHEMA) == BOOL
        assert infer_atom_type(~(col("i") > 1), self.SCHEMA) == BOOL
