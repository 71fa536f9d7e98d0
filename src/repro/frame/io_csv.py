"""CSV reader/writer.

``read_csv`` exposes exactly the knobs LaFP's optimizer drives:

- ``usecols``      -- column-selection optimization (section 3.1),
- ``dtype``        -- metadata-driven types, including ``category``
                      (section 3.6),
- ``parse_dates``  -- datetime columns,
- ``nrows``        -- sampling for the metastore,
- ``byte_range``   -- partitioned reads for the Dask-like backend.

Parsing is projection-aware, so reading 3 of 22 columns costs about
3/22 of the tokenizing.  The reader takes line-aligned blocks of about
:data:`BLOCK_BYTES` raw bytes.  A block that is ASCII, has no ``"``,
ends its lines in LF or CRLF and has exactly ``len(header)`` fields on
every line is tokenized by one numpy pass over its ``,``/``\n`` bytes;
only the projected columns are then sliced out of the decoded block.
The first block that does not qualify hands the rest of the read to one
stdlib ``csv.reader`` (quoted fields, embedded newlines, non-ASCII text,
ragged rows); on a qualifying block both give the same cells.  Line ends
are LF or CRLF (a bare CR is not a line end).  Blank lines are skipped;
a row too short to hold a projected column raises ``IndexError``.
Type inference tries int64 -> float64 -> object per
column, mirroring pandas defaults (dates stay strings unless
``parse_dates`` asks for them -- the paper's metadata optimization exists
precisely because inference is this naive).
"""

from __future__ import annotations

import csv
import os
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.frame.column import Column
from repro.frame.dataframe import DataFrame
from repro.frame.dtypes import CategoricalDtype, is_categorical, normalize_dtype
from repro.frame.series import Series

#: Raw bytes per tokenizer block, before rounding up to the end of a line.
#: Bounded so a large file never sits in memory whole.
BLOCK_BYTES = 1 << 20

_COMMA, _LF, _CR = ord(","), ord("\n"), ord("\r")


def read_csv(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[Dict[str, object]] = None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    byte_range: Optional[Tuple[int, int]] = None,
) -> DataFrame:
    """Read a CSV file into a :class:`DataFrame`.

    With ``byte_range=(start, end)`` only the data rows whose first byte
    lies in ``[start, end)`` are read, so the ranges of
    :func:`scan_partitions` return every row exactly once.
    """
    with open(path, "rb") as f:
        header = _read_header(f)
        if usecols is not None:
            unknown = [c for c in usecols if c not in header]
            if unknown:
                raise ValueError(f"usecols not in file: {unknown}")
            wanted = [c for c in header if c in set(usecols)]
        else:
            wanted = list(header)
        positions = [header.index(c) for c in wanted]
        end = None
        if byte_range is not None:
            end = byte_range[1]
            _seek_line(f, max(f.tell(), byte_range[0]))
        raw = _read_cells(f, len(header), positions, nrows, end)

    dtype = dtype or {}
    parse_set = set(parse_dates or [])
    columns: Dict[str, Column] = {}
    for name, values in zip(wanted, raw):
        if name in parse_set:
            columns[name] = _parse_datetime(values)
        elif name in dtype:
            columns[name] = _convert_with_dtype(values, dtype[name])
        else:
            columns[name] = _infer_column(values)

    frame = DataFrame.from_columns(columns)
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def read_header(path: str) -> List[str]:
    """Column names from the first record."""
    with open(path, "rb") as f:
        return _read_header(f)


def scan_partitions(path: str, n_partitions: int) -> List[Tuple[int, int]]:
    """Split the data region of a CSV into ~equal byte ranges.

    Ranges are aligned downstream to newline boundaries by the reader, so
    every row lands in exactly one partition.  As in dask, a boundary that
    falls inside a quoted field holding a newline is not detected: the
    reader takes the line after that newline for the start of a row.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.readline()  # header
        data_start = f.tell()
    n_partitions = max(1, n_partitions)
    span = max(1, (size - data_start) // n_partitions)
    ranges = []
    start = data_start
    for i in range(n_partitions):
        end = size if i == n_partitions - 1 else min(size, start + span)
        if start >= size:
            break
        ranges.append((start, end))
        start = end
    return ranges


def _lines(f: BinaryIO) -> Iterator[str]:
    for line in iter(f.readline, b""):
        yield line.decode("utf-8")


def _read_header(f: BinaryIO) -> List[str]:
    """The header record; leaves ``f`` at the first data byte.

    ``csv.reader`` pulls one line at a time and never reads ahead, so
    the handle stops exactly where the header record ends.
    """
    header = next(csv.reader(_lines(f)), None)
    if header is None:
        raise ValueError(f"{f.name}: empty CSV file, no header")
    return header


def _seek_line(f: BinaryIO, start: int) -> None:
    """Position ``f`` at the first line that starts at or after ``start``.

    Standard partitioned-CSV convention: a partial line in progress at
    ``start`` belongs to the range before it.
    """
    f.seek(start - 1)
    if f.read(1) != b"\n":
        f.readline()


def _read_cells(
    f: BinaryIO,
    ncols: int,
    positions: List[int],
    nrows: Optional[int],
    end: Optional[int],
) -> List[List[str]]:
    """The projected cells of each row from ``f``'s position on.

    Reads rows whose first byte lies before ``end`` (to EOF when None),
    at most ``nrows`` of them, one bounded block at a time.
    """
    raw: List[List[str]] = [[] for _ in positions]
    have = 0
    pos = f.tell()
    while (end is None or pos < end) and (nrows is None or have < nrows):
        # every line starting in the block lies before ``end``
        block = f.read(BLOCK_BYTES if end is None else min(BLOCK_BYTES, end - pos))
        if not block:
            break
        if not block.endswith(b"\n"):
            block += f.readline()
        limit = None if nrows is None else nrows - have
        tokens = _tokenize_block(block, ncols, positions, limit)
        if tokens is None:
            f.seek(pos)
            _stream_cells(f, raw, positions, limit, end)
            break
        rows, cells = tokens
        for out, values in zip(raw, cells):
            out.extend(values)
        have += rows
        pos += len(block)
    return raw


def _tokenize_block(
    block: bytes, ncols: int, positions: List[int], limit: Optional[int]
) -> Optional[Tuple[int, List[List[str]]]]:
    """``(rows, projected cells)`` of a line-aligned block, or None to
    fall back.

    A block qualifies when ``csv.reader`` would split it at exactly its
    ``,`` and ``\n`` bytes: ASCII, no quote character, no NUL, every
    ``\r`` part of a CRLF, and every line holding ``ncols`` non-blank
    fields.
    """
    if not block.isascii() or b'"' in block or b"\0" in block:
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # last line of a file without a trailing newline
    buf = np.frombuffer(block, dtype=np.uint8)
    is_lf = buf == _LF
    delims = np.flatnonzero(is_lf | (buf == _COMMA))
    if delims.size % ncols:
        return None
    delims = delims.reshape(-1, ncols)
    line_ends = delims[:, -1]
    # every line's last delimiter is its LF, and no LF is anywhere else
    if not is_lf[line_ends].all() or np.count_nonzero(is_lf) != line_ends.size:
        return None
    crlf = buf[line_ends - 1] == _CR
    if b"\r" in block and np.count_nonzero(buf == _CR) != np.count_nonzero(crlf):
        return None  # a CR that does not end a line
    line_starts = np.empty_like(line_ends)
    line_starts[0] = 0
    line_starts[1:] = line_ends[:-1] + 1
    field_ends = line_ends - crlf  # a CRLF line's last field stops at the CR
    if ncols == 1 and (field_ends == line_starts).any():
        return None  # blank line: csv.reader yields no row for it
    rows = line_ends.size if limit is None else min(line_ends.size, limit)
    text = block.decode("ascii")
    cells = []
    for p in positions:
        starts = line_starts if p == 0 else delims[:, p - 1] + 1
        stops = field_ends if p == ncols - 1 else delims[:, p]
        cells.append([
            text[i:j]
            for i, j in zip(starts[:rows].tolist(), stops[:rows].tolist())
        ])
    return rows, cells


def _stream_cells(
    f: BinaryIO,
    raw: List[List[str]],
    positions: List[int],
    nrows: Optional[int],
    end: Optional[int],
) -> None:
    """Append the projected cells of the rest of the read via one
    ``csv.reader``, so a quoted record may span lines and blocks.

    The reader never reads ahead, so ``f.tell()`` before each record is
    that record's first byte.
    """
    reader = csv.reader(_lines(f))
    have = 0
    while (end is None or f.tell() < end) and (nrows is None or have < nrows):
        row = next(reader, None)
        if row is None:
            break
        if not row:
            continue  # blank line
        for out, p in zip(raw, positions):
            out.append(row[p])
        have += 1


def _infer_column(values: List[str]) -> Column:
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


def _convert_with_dtype(values: List[str], dtype_spec) -> Column:
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
        return _parse_datetime(values)
    if target.kind == "b":
        arr = np.asarray(
            [v in ("True", "true", "1") for v in values], dtype=bool
        )
        return Column(arr)
    obj = np.asarray(values, dtype=object)
    obj = np.where(obj == "", None, obj)
    return Column(obj)


def _parse_datetime(values: List[str]) -> Column:
    cleaned = ["NaT" if v == "" else v for v in values]
    arr = np.asarray(cleaned, dtype="datetime64[ns]")
    return Column(arr)


def to_datetime(data: Union[Series, Sequence[str]]) -> Series:
    """Parse strings (ISO format) into a datetime64 series."""
    if isinstance(data, Series):
        values = data.column.to_array()
        cleaned = ["NaT" if (v is None or v == "") else str(v) for v in values]
        return Series(
            Column(np.asarray(cleaned, dtype="datetime64[ns]")),
            index=data.index,
            name=data.name,
        )
    cleaned = ["NaT" if (v is None or v == "") else str(v) for v in data]
    return Series(Column(np.asarray(cleaned, dtype="datetime64[ns]")))


def write_csv(frame: DataFrame, path: str, index: bool = False) -> None:
    """Write a frame to CSV (NA as empty string, datetimes in ISO)."""
    arrays = [frame.column(name).to_array() for name in frame.columns]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = frame.columns
        if index:
            header = ["index", *header]
        writer.writerow(header)
        labels = frame.index.to_array() if index else None
        for i in range(len(frame)):
            row = [_cell(a[i]) for a in arrays]
            if index:
                row.insert(0, _cell(labels[i]))
            writer.writerow(row)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return ""
        return str(value.astype("datetime64[s]")).replace("T", " ")
    if isinstance(value, np.floating) and np.isnan(value):
        return ""
    return str(value)
