"""Property tests: the block CSV reader against a plain ``csv.reader``.

Generated files mix quoted fields (commas, quotes, embedded newlines),
LF and CRLF line ends, a missing final newline, empty fields, blank
lines and non-ASCII text.  The block size is patched down to a few bytes
so block edges land everywhere, including inside quoted records.  Typed
cells (signs, spaces, underscores, overflow, exponents, nan/inf, NA,
NUL) are converted by ``read_csv`` and by the frozen list-based
conversion in ``csv_reference``, which must agree bit for bit.
"""

import csv
import io
import os
import sys
import tempfile
import tracemalloc
from unittest import mock

import csv_reference
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import io_csv, read_csv
from repro.frame.io_csv import scan_partitions


def fields(*pieces):
    return st.lists(st.sampled_from(pieces), max_size=4).map("".join)


plain = fields("a", "b", "1", ".", "-", " ")
# a CR only inside a CRLF: the reader takes LF and CRLF line ends
tricky = fields("a", "1", ",", '"', "é", " ", "\n", "\r\n")
one_line = fields("a", "1", ",", '"', "é", " ")


@st.composite
def csv_files(draw, cells=tricky):
    """``(file bytes, header, rows)`` as a ``csv.reader`` reads them."""
    ncols = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(ncols)]
    kinds = [draw(st.sampled_from([plain, cells])) for _ in header]
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=25))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
        if draw(st.integers(0, 9)) == 0:
            out.write(terminator)  # a blank line
    text = out.getvalue()
    if rows and draw(st.booleans()):
        text = text[: -len(terminator)]  # no trailing newline
    return text.encode("utf-8"), header, rows


def reference(data: bytes):
    """Header and data rows of a plain ``csv.reader``, blank lines skipped."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    header = next(reader)
    return header, [row for row in reader if row]


def cells(frame, names):
    """Each row's cells, with the NA an empty field reads as."""
    columns = [frame[name].to_list() for name in names]
    return [list(row) for row in zip(*columns)]


def read(path, names, **kwargs):
    # every column as strings: compares cells, not type inference
    return read_csv(path, dtype={name: object for name in names}, **kwargs)


def as_read(rows, positions):
    return [[row[p] or None for p in positions] for row in rows]


def write(data: bytes) -> str:
    fd, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(fd, "wb") as f:
        f.write(data)
    return path


@given(
    csv_files(),
    st.data(),
    st.integers(1, 16),
)
@settings(max_examples=150, deadline=None)
def test_whole_file_read_matches_csv_reader(file, data, block):
    raw, header, rows = file
    assert reference(raw) == (header, rows)
    names = data.draw(st.lists(st.sampled_from(header), unique=True, min_size=1))
    nrows = data.draw(st.none() | st.integers(0, 30))
    wanted = [c for c in header if c in names]
    positions = [header.index(c) for c in wanted]
    path = write(raw)
    try:
        with mock.patch.object(io_csv, "BLOCK_BYTES", block):
            frame = read(path, header, usecols=names, nrows=nrows)
            whole = read(path, header, byte_range=(1, len(raw)))
    finally:
        os.remove(path)
    assert frame.columns == wanted
    assert cells(frame, wanted) == as_read(rows[:nrows], positions)
    # one range over the whole data region reads the same rows
    assert cells(whole, header) == as_read(rows, range(len(header)))


@given(
    csv_files(cells=one_line),
    st.integers(1, 8),
    st.integers(1, 16),
    st.none() | st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_byte_ranges_return_every_row_once(file, n_parts, block, nrows):
    # no newline inside a quoted field: a partition boundary there is
    # the documented limitation of scan_partitions
    raw, header, rows = file
    path = write(raw)
    try:
        with mock.patch.object(io_csv, "BLOCK_BYTES", block):
            ranges = scan_partitions(path, n_parts)
            parts = [read(path, header, byte_range=r) for r in ranges]
            heads = [read(path, header, byte_range=r, nrows=nrows)
                     for r in ranges]
    finally:
        os.remove(path)
    got = [cells(p, header) for p in parts]
    assert sum(got, []) == as_read(rows, range(len(header)))
    assert [cells(h, header) for h in heads] == [g[:nrows] for g in got]


# -- typed cells ---------------------------------------------------------------

#: cell families a column draws from; numpy's ``astype`` must parse each
#: exactly as the frozen list-based conversion does.
FAMILIES = {
    "int": [" 12", "+3", "1_000", "-0", "7", "-12"],
    "overflow": ["12345678901234567890", "5"],
    "float": ["1e3", ".5", "nan", "NaN", "inf", "-0", "2.5"],
    "text": ["a", "b c", "True", "true", "1", "é"],
    "date": ["2024-01-02", "2024-01-02 03:04:05"],
}
if sys.version_info >= (3, 11):  # older csv modules reject NUL
    FAMILIES["text"].append("x\0")
#: declared dtypes a column may get; where its cells cannot take one,
#: both readers must raise the same error
SPECS = [None, "int64", "float64", "category", bool, str, "datetime64[ns]"]


@st.composite
def typed_files(draw):
    """``(file bytes, header, columns' cells, dtype)``."""
    ncols = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(ncols)]
    families = [draw(st.sampled_from(sorted(FAMILIES))) for _ in header]
    kinds = [
        st.sampled_from(FAMILIES[f] + ([""] if draw(st.booleans()) else []))
        for f in families
    ]
    rows = draw(st.lists(st.tuples(*kinds).map(list), max_size=20))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n", quoting=quoting)
    writer.writerow(header)
    writer.writerows(rows)
    dtype = {name: spec for name in header
             if (spec := draw(st.sampled_from(SPECS))) is not None}
    return out.getvalue().encode("utf-8"), header, rows, dtype


def reference_column(values, spec):
    if spec is None:
        return csv_reference.infer_column(values)
    return csv_reference.convert_with_dtype(values, spec)


@given(typed_files(), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_typed_cells_match_frozen_reference(file, block):
    raw, header, rows, dtype = file
    path = write(raw)
    try:
        with mock.patch.object(io_csv, "BLOCK_BYTES", block):
            try:
                frame = read_csv(path, dtype=dtype)
            except (ValueError, OverflowError) as error:
                frame = type(error)
    finally:
        os.remove(path)
    try:
        want = {name: reference_column([row[p] for row in rows], dtype.get(name))
                for p, name in enumerate(header)}
    except (ValueError, OverflowError) as error:
        assert frame is type(error)
        return
    assert not isinstance(frame, type), frame
    for name in header:
        csv_reference.assert_columns_identical(frame.column(name), want[name], name)


@pytest.mark.parametrize("block", [io_csv.BLOCK_BYTES, 4096])
@pytest.mark.parametrize("at", [0, 700])
def test_wide_cell_reads_without_a_wide_gather(block, at):
    """One 64 KiB cell among 2,000 short ones: a fixed-width gather of
    the column would take 2,000 x 64 KiB = 128 MiB.  At row 0 with small
    blocks the wide cell is a block of its own, so the bound on joining
    blocks is what keeps the column narrow."""
    wide = "w" * (1 << 16)
    rows = [[str(i), wide if i == at else f"s{i}"] for i in range(2000)]
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows([["a", "b"], *rows])
    path = write(out.getvalue().encode("ascii"))
    try:
        with mock.patch.object(io_csv, "BLOCK_BYTES", block):
            tracemalloc.start()
            try:
                frame = read_csv(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    finally:
        os.remove(path)
    assert frame["b"].to_list() == [row[1] for row in rows]
    assert frame["a"].to_list() == list(range(2000))
    assert peak < 16 << 20
