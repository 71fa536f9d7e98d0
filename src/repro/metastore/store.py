"""Persistent metadata store with modified-time invalidation.

Metadata is kept as one JSON file per data file (hashed path name) under a
store directory (default ``~/.lafp_metastore`` or ``$LAFP_METASTORE``).
``get`` returns ``None`` when metadata is missing or stale, so callers can
fall back to un-hinted reads (the paper: outdated metadata "is not used").
A store remembers what ``get`` parsed, keyed by the ``(mtime_ns, size)``
of both the entry file and the data file, so repeated consults during
one plan cost two ``stat`` calls instead of a JSON parse.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro.metastore.stats import FileMetadata, compute_metadata

_MTIME_TOLERANCE = 1e-6


class MetaStore:
    """Directory-backed metadata cache."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get(
                "LAFP_METASTORE",
                os.path.join(os.path.expanduser("~"), ".lafp_metastore"),
            )
        self.root = root
        os.makedirs(self.root, exist_ok=True)
        #: entry path -> (entry + data file stats, parsed metadata or None)
        self._parsed: Dict[
            str, Tuple[Tuple[int, int, int, int], Optional[FileMetadata]]
        ] = {}

    def _entry_path(self, data_path: str) -> str:
        digest = hashlib.md5(
            os.path.abspath(data_path).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.root, f"{digest}.json")

    def get(self, data_path: str) -> Optional[FileMetadata]:
        """Metadata for ``data_path`` if present and not stale."""
        entry = self._entry_path(data_path)
        try:
            entry_stat = os.stat(entry)
            data_stat = os.stat(data_path)
        except OSError:
            return None
        key = (entry_stat.st_mtime_ns, entry_stat.st_size,
               data_stat.st_mtime_ns, data_stat.st_size)
        parsed = self._parsed.get(entry)
        if parsed is not None and parsed[0] == key:
            return parsed[1]
        with open(entry) as f:
            meta: Optional[FileMetadata] = FileMetadata.from_dict(json.load(f))
        if abs(data_stat.st_mtime - meta.mtime) > _MTIME_TOLERANCE:
            meta = None  # file changed since metadata was computed
        self._parsed[entry] = (key, meta)
        return meta

    def put(self, meta: FileMetadata) -> None:
        entry = self._entry_path(meta.path)
        self._parsed.pop(entry, None)
        with open(entry, "w") as f:
            json.dump(meta.to_dict(), f)

    def compute_and_store(
        self,
        data_path: str,
        sample_rows: Optional[int] = 10_000,
        fmt: str = "csv",
        partition_ranges=None,
    ) -> FileMetadata:
        """Run the metadata script on ``data_path`` and persist the result.

        ``partition_ranges`` records exact per-partition statistics (see
        :func:`repro.metastore.stats.compute_metadata`); ``fmt`` selects
        the reader (``csv`` / ``jsonl``).
        """
        meta = compute_metadata(
            data_path, sample_rows=sample_rows, fmt=fmt,
            partition_ranges=partition_ranges,
        )
        self.put(meta)
        return meta

    def get_or_compute(
        self,
        data_path: str,
        sample_rows: Optional[int] = 10_000,
        fmt: str = "csv",
        partition_ranges=None,
    ) -> FileMetadata:
        meta = self.get(data_path)
        if meta is None:
            meta = self.compute_and_store(
                data_path, sample_rows=sample_rows, fmt=fmt,
                partition_ranges=partition_ranges,
            )
        return meta

    def invalidate(self, data_path: str) -> None:
        entry = self._entry_path(data_path)
        self._parsed.pop(entry, None)
        if os.path.exists(entry):
            os.remove(entry)

    def clear(self) -> None:
        self._parsed.clear()
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                os.remove(os.path.join(self.root, name))
