"""Spillable partition storage.

Materialized partitions (from ``persist()``, shuffle buckets, or cached
reads) live in a :class:`PartitionStore`.  When the simulated memory
budget tightens, least-recently-used partitions are pickled to a temporary
directory and their tracked bytes released; access transparently loads
them back.  This is the mechanism that lets the Dask backend run 9-of-10
programs on the largest dataset in Figure 12.

The directory is made on the first spill and removed, files and all, by
:meth:`PartitionStore.close` or when the store is collected.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import weakref
from typing import Dict, Optional

from repro.memory import current_memory_manager

#: Spill until live bytes drop below this fraction of the budget.
LOW_WATER = 0.5
#: Begin spilling when live bytes exceed this fraction of the budget.
HIGH_WATER = 0.8


class PartitionHandle:
    """A partition that is either in memory or spilled to disk."""

    _ids = iter(range(1, 1 << 60))

    def __init__(self, store: "PartitionStore", value):
        self.id = next(self._ids)
        self._store = store
        self._value = value
        self._path: Optional[str] = None
        self.nbytes = _value_nbytes(value)

    @property
    def in_memory(self) -> bool:
        return self._value is not None

    def get(self):
        """The partition value, loading from disk if spilled."""
        self._store.touch(self)
        if self._value is None:
            with open(self._path, "rb") as f:
                self._value = pickle.load(f)  # re-registers tracked bytes
        return self._value

    def spill(self) -> None:
        """Write to disk and drop the in-memory reference."""
        if self._value is None:
            return
        if self._path is None:
            self._path = os.path.join(
                self._store.directory, f"part-{self.id}.pkl"
            )
            with open(self._path, "wb") as f:
                pickle.dump(self._value, f, protocol=pickle.HIGHEST_PROTOCOL)
        # Dropping the reference lets the Column finalizers release the
        # tracked bytes promptly under CPython refcounting.
        self._value = None

    def drop(self) -> None:
        self._value = None
        if self._path and os.path.exists(self._path):
            os.remove(self._path)
        self._path = None


class PartitionStore:
    """LRU registry of spillable partitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._directory: Optional[str] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._clock = 0
        self._last_used: Dict[int, int] = {}
        self._handles: Dict[int, PartitionHandle] = {}
        self.spill_count = 0

    @property
    def directory(self) -> str:
        """The spill directory, made on first use."""
        with self._lock:
            if self._directory is None:
                self._directory = tempfile.mkdtemp(prefix="lafp-spill-")
                self._finalizer = weakref.finalize(
                    self, _remove_directory, self._directory, os.getpid()
                )
            return self._directory

    def put(self, value) -> PartitionHandle:
        handle = PartitionHandle(self, value)
        with self._lock:
            self._handles[handle.id] = handle
            self._clock += 1
            self._last_used[handle.id] = self._clock
        self.ensure_headroom()
        return handle

    def touch(self, handle: PartitionHandle) -> None:
        with self._lock:
            self._clock += 1
            self._last_used[handle.id] = self._clock

    def ensure_headroom(self, protect: Optional[set] = None) -> None:
        """Spill LRU partitions until under the low-water mark.

        ``protect`` names handle ids that must stay resident (inputs of the
        partition currently being computed).
        """
        manager = current_memory_manager()
        budget = manager.budget
        if budget is None:
            return
        if manager.live < HIGH_WATER * budget:
            return
        protect = protect or set()
        with self._lock:
            candidates = sorted(
                (
                    h
                    for h in self._handles.values()
                    if h.in_memory and h.id not in protect
                ),
                key=lambda h: self._last_used[h.id],
            )
        for handle in candidates:
            if manager.live <= LOW_WATER * budget:
                break
            handle.spill()
            self.spill_count += 1

    def spill_all(self, protect: Optional[set] = None) -> None:
        """Emergency spill of every resident partition (OOM recovery)."""
        protect = protect or set()
        with self._lock:
            handles = [
                h
                for h in self._handles.values()
                if h.in_memory and h.id not in protect
            ]
        for handle in handles:
            handle.spill()
            self.spill_count += 1

    def release(self, handle: PartitionHandle) -> None:
        with self._lock:
            self._handles.pop(handle.id, None)
            self._last_used.pop(handle.id, None)
        handle.drop()

    def clear(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            self._last_used.clear()
        for handle in handles:
            handle.drop()

    def close(self) -> None:
        """Drop every partition and remove the spill directory; a later
        spill makes a new one."""
        self.clear()
        with self._lock:
            finalizer, self._finalizer = self._finalizer, None
            self._directory = None
        if finalizer is not None:
            finalizer()


def _remove_directory(path: str, owner_pid: int) -> None:
    # A forked child inherits the finalizer; only the process that made
    # the directory may remove it.
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


def _value_nbytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    if nbytes is None:
        return 0
    return int(nbytes)
