"""The block CSV reader against the per-row reader it replaced.

``rowwise_read_csv`` below is that earlier reader: a whole-file
``csv.reader`` with a per-cell append loop, a byte-range path that
parses each line on its own, and the list-based type conversion frozen
in ``csv_reference``.  Equal cells must give bit-identical frames:
values, dtypes, categories and simulated bytes.
"""

import csv
import itertools
import os
from unittest import mock

import pytest
from csv_reference import (
    assert_columns_identical,
    convert_with_dtype,
    infer_column,
    parse_datetime,
)

from repro.frame import DataFrame, read_csv
from repro.frame import io_csv
from repro.frame.dtypes import CategoricalDtype
from repro.frame.io_csv import scan_partitions
from repro.memory import current_memory_manager
from repro.workloads import datagen


def rowwise_read_csv(path, usecols=None, nrows=None, byte_range=None,
                     dtype=None, parse_dates=None):
    with open(path, newline="", encoding="utf-8") as f:
        header = next(csv.reader(f))
    wanted = [c for c in header if usecols is None or c in usecols]
    positions = [header.index(c) for c in wanted]
    if byte_range is None:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            next(reader)
            rows = list(itertools.islice(reader, nrows))
    else:
        rows = []
        start, end = byte_range
        with open(path, "rb") as f:
            f.seek(start - 1)
            if f.read(1) != b"\n":
                f.readline()
            while f.tell() < end and (nrows is None or len(rows) < nrows):
                line = f.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\r\n")
                if text:
                    rows.append(next(csv.reader([text])))
    dtype = dtype or {}
    columns = {}
    for name, p in zip(wanted, positions):
        values = [row[p] for row in rows]
        if name in (parse_dates or ()):
            columns[name] = parse_datetime(values)
        elif name in dtype:
            columns[name] = convert_with_dtype(values, dtype[name])
        else:
            columns[name] = infer_column(values)
    return DataFrame.from_columns(columns)


def assert_identical(got: DataFrame, want: DataFrame) -> None:
    assert got.columns == want.columns
    assert len(got) == len(want)
    for name in want.columns:
        assert_columns_identical(got.column(name), want.column(name), name)


def assert_reads_identical(path, **kwargs):
    """Both readers give the same frame and charge the same bytes."""
    manager = current_memory_manager()
    before = manager.live
    got = read_csv(path, **kwargs)
    charged = manager.live - before
    want = rowwise_read_csv(path, **kwargs)
    assert manager.live - before - charged == charged
    assert_identical(got, want)


@pytest.fixture(scope="module")
def paper_data(tmp_path_factory):
    return datagen.generate_all(str(tmp_path_factory.mktemp("data")), rows=1500)


#: the generated datasets' timestamp columns
DATE_COLUMNS = {"ts", "placed_at", "timestamp", "tpep_pickup_datetime",
                "tpep_dropoff_datetime", "basedatetime"}


def typed_read(path):
    """``dtype``/``parse_dates`` arguments that take ``path``'s columns
    through every declared conversion: ``category`` with and without
    declared categories, int (promoted to float where a cell is empty or
    not an integer), float, bool, str, and dates."""
    frame = rowwise_read_csv(path)
    by_kind = {}
    for name in frame.columns:
        if name not in DATE_COLUMNS:
            by_kind.setdefault(frame.column(name).values.dtype.kind, []).append(name)
    strings, ints = by_kind.get("O", []), by_kind.get("i", [])
    dtype = {name: "int64" for name in by_kind.get("f", [])}
    if strings:
        dtype[strings[0]] = "category"
        declared = frame.column(strings[-1]).unique_values()
        dtype[strings[-1]] = CategoricalDtype(declared[::-1])
    for name, spec in zip(ints, ["float64", bool, str, "category"]):
        dtype[name] = spec
    dates = [name for name in frame.columns if name in DATE_COLUMNS]
    return {"dtype": dtype, "parse_dates": dates}


@pytest.mark.parametrize("block", [io_csv.BLOCK_BYTES, 4096])
def test_bit_identical_on_paper_datasets(paper_data, block):
    with mock.patch.object(io_csv, "BLOCK_BYTES", block):
        for path in paper_data:
            typed = typed_read(path)
            assert_reads_identical(path)
            assert_reads_identical(path, **typed)
            assert_reads_identical(path, nrows=100)
            header = io_csv.read_header(path)
            assert_reads_identical(path, usecols=header[1::3])
            assert_reads_identical(path, usecols=header[::2], **typed)
            for rng in scan_partitions(path, 4):
                assert_reads_identical(path, byte_range=rng)
                assert_reads_identical(path, byte_range=rng, nrows=7)
                assert_reads_identical(path, byte_range=rng, **typed)


def test_typed_reads_cover_every_conversion(paper_data):
    kinds = set()
    for path in paper_data:
        frame = read_csv(path, **typed_read(path))
        for name in frame.columns:
            column = frame.column(name)
            kinds.add("category" if column.is_category
                      else column.values.dtype.kind)
            if column.values.dtype.kind == "f" and column.isna().any():
                kinds.add("NA")
    assert kinds == {"category", "i", "f", "b", "O", "M", "NA"}


def write(tmp_path, data: bytes, name="t.csv") -> str:
    path = os.path.join(tmp_path, name)
    with open(path, "wb") as f:
        f.write(data)
    return path


def test_quoted_newline_in_byte_range(tmp_path):
    path = write(tmp_path, b'a,b\r\n1,"x\r\ny"\r\n2,"p,q"\r\n')
    whole = read_csv(path)
    assert whole["b"].to_list() == ["x\r\ny", "p,q"]
    part = read_csv(path, byte_range=(5, os.path.getsize(path)))
    assert_identical(part, whole)


@pytest.mark.parametrize("block", [io_csv.BLOCK_BYTES, 3])
@pytest.mark.parametrize("byte_range", [None, (4, 12)])
def test_short_row_raises(tmp_path, block, byte_range):
    path = write(tmp_path, b"a,b\n1,2\n3\n4,5\n")
    with mock.patch.object(io_csv, "BLOCK_BYTES", block):
        with pytest.raises(IndexError):
            read_csv(path, byte_range=byte_range)
        # a short row holding every projected column is read
        assert read_csv(path, usecols=["a"])["a"].to_list() == [1, 3, 4]


def test_long_row_keeps_header_width(tmp_path):
    path = write(tmp_path, b"a,b\n1,2\n3,4,5\n")
    assert read_csv(path)["b"].to_list() == [2, 4]


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ValueError, match="no header"):
        read_csv(write(tmp_path, b""))


def test_file_opened_once_per_read(tmp_path):
    path = write(tmp_path, b"a,b\n1,2\n3,4\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    with mock.patch.object(io_csv, "open", counting_open, create=True):
        read_csv(path, usecols=["b"])
        read_csv(path, byte_range=(4, 12))
    assert opened == [path, path]


def test_header_read_once_per_file_version(tmp_path):
    path = write(tmp_path, b"a,b\n1,2\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    with mock.patch.object(io_csv, "open", counting_open, create=True):
        header = io_csv.read_header(path)
        header.append("mutated by a caller")
        assert io_csv.read_header(path) == ["a", "b"]
        assert len(opened) == 1
        write(tmp_path, b"a,b,c\n1,2,3\n")  # a new version of the file
        assert io_csv.read_header(path) == ["a", "b", "c"]
    assert len(opened) == 2
