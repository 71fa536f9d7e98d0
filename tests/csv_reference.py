"""The list-based CSV type conversion the typed reader replaced, frozen.

``read_csv`` once converted each column from a list of ``str`` cells
with the functions below.  They stay here unchanged as the reference the
typed array conversion must match bit for bit: values, dtypes,
categories and simulated bytes.  Do not edit them to make a test pass.
"""

from typing import List

import numpy as np

from repro.frame.column import Column
from repro.frame.dtypes import CategoricalDtype, is_categorical, normalize_dtype


def infer_column(values: List[str]) -> Column:
    """int64 -> float64 -> object inference with '' as NA."""
    has_empty = any(v == "" for v in values)
    if not has_empty:
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except (ValueError, OverflowError):
            pass
    try:
        arr = np.asarray(
            [("nan" if v == "" else v) for v in values], dtype=np.float64
        )
        return Column(arr)
    except ValueError:
        pass
    obj = np.asarray(values, dtype=object)
    if has_empty:
        obj = np.where(obj == "", None, obj)
    return Column(obj)


def convert_with_dtype(values: List[str], dtype_spec) -> Column:
    target = normalize_dtype(dtype_spec)
    if is_categorical(target):
        arr = np.asarray(values, dtype=object)
        arr = np.where(arr == "", None, arr)
        col = Column.from_strings_as_category(arr)
        if isinstance(target, CategoricalDtype) and target.categories is not None:
            # Re-encode against the declared category set.
            return Column.from_values(col.to_array(), dtype=target)
        return col
    if target.kind == "f":
        arr = np.asarray(
            [("nan" if v == "" else v) for v in values], dtype=np.float64
        )
        return Column(arr)
    if target.kind == "i":
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except ValueError:
            # NA present: silently promote, as pandas does for int columns.
            arr = np.asarray(
                [("nan" if v == "" else v) for v in values], dtype=np.float64
            )
            return Column(arr)
    if target.kind == "M":
        return parse_datetime(values)
    if target.kind == "b":
        arr = np.asarray(
            [v in ("True", "true", "1") for v in values], dtype=bool
        )
        return Column(arr)
    obj = np.asarray(values, dtype=object)
    obj = np.where(obj == "", None, obj)
    return Column(obj)


def parse_datetime(values: List[str]) -> Column:
    cleaned = ["NaT" if v == "" else v for v in values]
    arr = np.asarray(cleaned, dtype="datetime64[ns]")
    return Column(arr)


def assert_columns_identical(got: Column, want: Column, name: str = "") -> None:
    """Same dtype, values (element types included), categories and
    simulated bytes."""
    assert got.values.dtype == want.values.dtype, name
    np.testing.assert_array_equal(got.values, want.values, err_msg=name)
    if want.values.dtype == object:
        assert list(map(type, got.values)) == list(map(type, want.values)), name
    assert (got.categories is None) == (want.categories is None), name
    if want.categories is not None:
        assert got.categories.dtype == want.categories.dtype, name
        np.testing.assert_array_equal(got.categories, want.categories, err_msg=name)
    assert got.nbytes == want.nbytes, name
