"""CSV reader/writer.

``read_csv`` exposes exactly the knobs LaFP's optimizer drives:

- ``usecols``      -- column-selection optimization (section 3.1),
- ``dtype``        -- metadata-driven types, including ``category``
                      (section 3.6),
- ``parse_dates``  -- datetime columns,
- ``nrows``        -- sampling for the metastore,
- ``byte_range``   -- partitioned reads for the Dask-like backend.

Parsing is projection-aware, so reading 3 of 22 columns costs about
3/22 of the parse.  The reader takes line-aligned blocks of about
:data:`BLOCK_BYTES` raw bytes.  A block that is ASCII, has no ``"`` or
NUL, ends its lines in LF or CRLF and has exactly ``len(header)`` fields
on every line is tokenized by one numpy pass over its ``,``/``\\n``
bytes.  Each projected column's cells are then copied straight from
their ``(start, stop)`` byte offsets into one fixed-width bytes (``S``)
array by a single gather, with no Python string per cell.  The gather
is rows x widest cell; a column for which that exceeds
:data:`GATHER_SLACK` times the block's bytes (a few very wide cells) is
sliced into ``str`` cells instead, and the blocks of a column are joined
under the same bound.

The first block that does not qualify hands the rest of the read to one
stdlib ``csv.reader`` (quoted fields, embedded newlines, non-ASCII text,
ragged rows); on a qualifying block both give the same cells.  Its cells
stay ``str`` objects in an object array: a numpy string array would drop
a cell's trailing NULs.  Line ends are LF or CRLF (a bare CR is not a
line end).  Blank lines are skipped; a row too short to hold a projected
column raises ``IndexError``.

Conversion is typed and runs on the whole column array at once; an empty
cell is NA.  With no declared dtype, inference tries int64 -> float64 ->
object, mirroring pandas defaults (dates stay strings unless
``parse_dates`` asks for them -- the paper's metadata optimization exists
precisely because inference is this naive).  Numbers and dates are
parsed by numpy ``astype``, ``category`` is one ``np.unique`` over the
cells.  An object column's simulated string bytes
(:func:`repro.frame.dtypes.object_nbytes`'s rule) are charged from the
cell lengths the tokenizer already has, so no string is walked twice.

:func:`read_header` is memoized per file version, so the schema readers
(sources, the dask simulator, the metastore, plan analysis) share one
read of each header.
"""

from __future__ import annotations

import csv
import os
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.frame.column import Column
from repro.frame.dataframe import DataFrame
from repro.frame.dtypes import STRING_OVERHEAD, is_categorical, normalize_dtype
from repro.frame.series import Series

#: Raw bytes per tokenizer block, before rounding up to the end of a line.
#: Bounded so a large file never sits in memory whole.
BLOCK_BYTES = 1 << 20

#: A column's fixed-width cell array (rows x widest cell) may take at most
#: this many times the bytes of the blocks it came from; past that its
#: cells are kept as ``str`` objects, so one very wide cell cannot
#: inflate a whole column to its width.
GATHER_SLACK = 4

_COMMA, _LF, _CR = ord(","), ord("\n"), ord("\r")

#: cells a ``bool`` column reads as True.
_TRUE_CELLS = ("True", "true", "1")

#: (path, mtime_ns, size) -> header columns.  Keyed by file identity so
#: an overwritten file misses; bounded by clearing.
_HEADER_CACHE: Dict[Tuple[str, int, int], Tuple[str, ...]] = {}
_HEADER_CACHE_MAX = 256


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
        cells = _read_cells(f, len(header), positions, nrows, end)

    dtype = dtype or {}
    parse_set = set(parse_dates or [])
    columns: Dict[str, Column] = {}
    for name, column_cells in zip(wanted, cells):
        if name in parse_set:
            target = np.dtype("datetime64[ns]")
        elif name in dtype:
            target = normalize_dtype(dtype[name])
        else:
            target = None
        # one column's raw cells alive at a time beside the converted ones
        columns[name] = _convert(*column_cells.finish(), target)

    frame = DataFrame.from_columns(columns)
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def read_header(path: str) -> List[str]:
    """Column names from the first record, read once per file version."""
    stat = os.stat(path)
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    header = _HEADER_CACHE.get(key)
    if header is None:
        with open(path, "rb") as f:
            header = tuple(_read_header(f))
        if len(_HEADER_CACHE) >= _HEADER_CACHE_MAX:
            _HEADER_CACHE.clear()
        _HEADER_CACHE[key] = header
    return list(header)


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


class _ColumnCells:
    """One projected column's cells, collected block by block.

    Each piece is a fixed-width ``S`` array gathered from a qualifying
    block or an object array of ``str``.
    """

    __slots__ = ("pieces", "block_bytes")

    def __init__(self) -> None:
        self.pieces: List[np.ndarray] = []
        #: bytes of the blocks the ``S`` pieces were gathered from
        self.block_bytes = 0

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cells, their lengths in characters)``, dropping the
        pieces: one ``S`` array when every piece is one and the joined
        width stays in bound, else one object array."""
        pieces, self.pieces = self.pieces, []
        if not pieces:
            return np.zeros(0, dtype="S1"), np.zeros(0, dtype=np.int64)
        if all(p.dtype.kind == "S" for p in pieces):
            rows = sum(map(len, pieces))
            width = max(p.itemsize for p in pieces)
            if rows * width <= GATHER_SLACK * self.block_bytes:
                values = _join(pieces)
                # exact: a gathered cell holds no NUL
                return values, np.strings.str_len(values)
        values = _join([_widen(p).astype(object) for p in pieces])
        return values, np.fromiter(map(len, values), np.int64, len(values))


def _join(arrays: List[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _read_cells(
    f: BinaryIO,
    ncols: int,
    positions: List[int],
    nrows: Optional[int],
    end: Optional[int],
) -> List[_ColumnCells]:
    """The cells of each projected column from ``f``'s position on.

    Reads rows whose first byte lies before ``end`` (to EOF when None),
    at most ``nrows`` of them, one bounded block at a time.
    """
    columns = [_ColumnCells() for _ in positions]
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
            streamed = _stream_cells(f, positions, limit, end)
            for column, values in zip(columns, streamed):
                column.pieces.append(np.array(values, dtype=object))
            break
        rows, cells = tokens
        for column, values in zip(columns, cells):
            column.pieces.append(values)
            if values.dtype.kind == "S":
                column.block_bytes += len(block)
        have += rows
        pos += len(block)
    return columns


def _tokenize_block(
    block: bytes, ncols: int, positions: List[int], limit: Optional[int]
) -> Optional[Tuple[int, List[np.ndarray]]]:
    """``(rows, cells of each projected column)`` of a line-aligned
    block, or None to fall back.

    A block qualifies when ``csv.reader`` would split it at exactly its
    ``,`` and ``\\n`` bytes: ASCII, no quote character, no NUL, every
    ``\\r`` part of a CRLF, and every line holding ``ncols`` non-blank
    fields.
    """
    if not block.isascii() or b'"' in block or b"\0" in block:
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # last line of a file without a trailing newline
    buf = np.frombuffer(block, dtype=np.uint8)
    # the block-sized masks are dropped as soon as they are used, so they
    # are not held beside the gathered cells
    is_lf = buf == _LF
    is_delim = buf == _COMMA
    is_delim |= is_lf
    delims = np.flatnonzero(is_delim)
    del is_delim
    if delims.size % ncols:
        return None
    delims = delims.reshape(-1, ncols)
    line_ends = delims[:, -1]
    # every line's last delimiter is its LF, and no LF is anywhere else
    if not is_lf[line_ends].all() or np.count_nonzero(is_lf) != line_ends.size:
        return None
    del is_lf
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
    spans = []
    for p in positions:
        starts = (line_starts if p == 0 else delims[:, p - 1] + 1)[:rows]
        stops = (field_ends if p == ncols - 1 else delims[:, p])[:rows]
        spans.append((starts, stops - starts))
    widths = [max(1, int(lengths.max())) for _, lengths in spans]
    bound = GATHER_SLACK * len(block)
    # pad so every gathered window, even the last cell's, lies in the buffer
    pad = max([w for w in widths if rows * w <= bound], default=0)
    padded = np.frombuffer(block + bytes(pad), dtype=np.uint8)
    cells = []
    text = None
    for (starts, lengths), width in zip(spans, widths):
        if rows * width <= bound:
            gathered = sliding_window_view(padded, width)[starts]
            gathered[np.arange(width) >= lengths[:, None]] = 0
            values = gathered.view(f"S{width}").ravel()
        else:
            if text is None:
                text = block.decode("ascii")
            values = np.array(
                [text[i:i + n] for i, n in zip(starts.tolist(), lengths.tolist())],
                dtype=object,
            )
        cells.append(values)
    return rows, cells


def _stream_cells(
    f: BinaryIO,
    positions: List[int],
    nrows: Optional[int],
    end: Optional[int],
) -> List[List[str]]:
    """The projected cells of the rest of the read via one
    ``csv.reader``, so a quoted record may span lines and blocks.

    The reader never reads ahead, so ``f.tell()`` before each record is
    that record's first byte.
    """
    raw: List[List[str]] = [[] for _ in positions]
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
    return raw


def _convert(values: np.ndarray, lengths: np.ndarray, target) -> Column:
    """The column of one projected column's cells.

    ``target`` is a normalized dtype, or None to infer int64 -> float64
    -> object.  Empty cells are NA.
    """
    empty = lengths == 0
    if target is None:
        if not empty.any():
            try:
                return Column(values.astype(np.int64))
            except (ValueError, OverflowError):
                pass
        try:
            return Column(_floats(values, empty))
        except ValueError:
            pass
        return _strings(values, lengths, empty)
    if is_categorical(target):
        return Column.from_strings_as_category(_widen(values), na=empty)
    if target.kind == "f":
        return Column(_floats(values, empty))
    if target.kind == "i":
        try:
            return Column(values.astype(np.int64))
        except ValueError:
            # NA present: silently promote, as pandas does for int columns.
            return Column(_floats(values, empty))
    if target.kind == "M":
        return Column(values.astype("datetime64[ns]"))  # empty -> NaT
    if target.kind == "b":
        return Column(np.isin(values, [_like(values, v) for v in _TRUE_CELLS]))
    return _strings(values, lengths, empty)


def _like(values: np.ndarray, text: str):
    """``text`` as a scalar of ``values``' kind (bytes for ``S``)."""
    return text.encode("ascii") if values.dtype.kind == "S" else text


def _floats(values: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """The cells as float64, NaN where empty."""
    if empty.any():
        values = np.where(empty, _like(values, "nan"), values)
    return values.astype(np.float64)


def _widen(values: np.ndarray) -> np.ndarray:
    """An ASCII ``S`` array as a ``U`` array, each byte widened to one
    code point; any other array as it is."""
    if values.dtype.kind != "S":
        return values
    width = values.dtype.itemsize
    codes = values.view(np.uint8).reshape(-1, width).astype(np.uint32)
    return codes.view(f"U{width}").ravel()


def _strings(values: np.ndarray, lengths: np.ndarray, empty: np.ndarray) -> Column:
    """An object column of ``str`` (None for NA), its string payload
    charged from the cell lengths rather than by walking the strings."""
    out = _widen(values).astype(object, copy=False)
    out[empty] = None
    present = lengths.size - int(np.count_nonzero(empty))
    heap = int(lengths.sum()) + STRING_OVERHEAD * present
    return Column(out, heap_nbytes=heap)


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
