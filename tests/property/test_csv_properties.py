"""Property tests: the block CSV tokenizer against a plain ``csv.reader``.

Generated files mix quoted fields (commas, quotes, embedded newlines),
LF and CRLF line ends, a missing final newline, empty fields, blank
lines and non-ASCII text.  The block size is patched down to a few bytes
so block edges land everywhere, including inside quoted records.
"""

import csv
import io
import os
import tempfile
from unittest import mock

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
