"""Unit tests for value typing, coercion, and inference."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational import DataType, coerce_value, infer_type, is_null


class TestIsNull:
    def test_none_is_null(self):
        assert is_null(None)

    def test_nan_is_null(self):
        assert is_null(float("nan"))

    def test_zero_and_empty_are_not_null(self):
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(0.0)


class TestCoerce:
    def test_integer_from_string(self):
        assert coerce_value("42", DataType.INTEGER) == 42
        assert coerce_value("-7", DataType.INTEGER) == -7
        assert coerce_value("+13", DataType.INTEGER) == 13

    def test_integer_from_integral_float(self):
        assert coerce_value(3.0, DataType.INTEGER) == 3

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(TypeError):
            coerce_value(3.5, DataType.INTEGER)

    def test_integer_rejects_text(self):
        with pytest.raises(TypeError):
            coerce_value("P12345", DataType.INTEGER)

    def test_float_from_string(self):
        assert coerce_value("2.5", DataType.FLOAT) == 2.5

    def test_float_rejects_garbage(self):
        with pytest.raises(TypeError):
            coerce_value("abc", DataType.FLOAT)

    def test_text_accepts_numbers(self):
        assert coerce_value(12, DataType.TEXT) == "12"

    def test_null_passes_through_all_types(self):
        for data_type in DataType:
            assert coerce_value(None, data_type) is None

    def test_nan_becomes_null(self):
        assert coerce_value(float("nan"), DataType.FLOAT) is None


class TestInferType:
    def test_all_integers(self):
        assert infer_type(["1", "2", "30"]) is DataType.INTEGER

    def test_mixed_numeric(self):
        assert infer_type(["1", "2.5"]) is DataType.FLOAT

    def test_accession_values_are_text(self):
        assert infer_type(["P12345", "Q99999"]) is DataType.TEXT

    def test_nulls_ignored(self):
        assert infer_type([None, "7", None]) is DataType.INTEGER

    def test_empty_defaults_to_text(self):
        assert infer_type([]) is DataType.TEXT
        assert infer_type([None, None]) is DataType.TEXT

    def test_negative_numbers(self):
        assert infer_type(["-1", "-2"]) is DataType.INTEGER

    def test_scientific_notation_is_float(self):
        assert infer_type(["1e5"]) is DataType.FLOAT


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9)))
def test_property_integer_lists_infer_integer(values):
    strings = [str(v) for v in values]
    expected = DataType.INTEGER if values else DataType.TEXT
    assert infer_type(strings) is expected


@given(st.lists(st.text(min_size=1), min_size=1))
def test_property_inferred_type_roundtrips_through_coercion(values):
    data_type = infer_type(values)
    for value in values:
        coerced = coerce_value(value, data_type)
        python_type = {DataType.INTEGER: int, DataType.FLOAT: float}.get(data_type, str)
        assert coerced is None or isinstance(coerced, python_type)
