"""Dask facade for the manually-ported baseline programs.

The paper had to rewrite programs by hand to run on Dask: forcing
computation before prints, avoiding position-based access, passing
dtypes to ``apply``, working around unsupported APIs.  The ``dask_body``
variants in :mod:`repro.workloads.programs` are those manual ports; they
import this module.

Each ``read_csv`` shares one backend instance per program run (so
partitions spill into one store); :func:`reset` gives the runner a fresh
store between runs.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.dask_backend import DaskBackend
from repro.backends.dask_sim.frame import DaskFrame, DaskSeries, from_pandas
from repro.frame import DataFrame as _EagerFrame

_backend: Optional[DaskBackend] = None


def _get_backend() -> DaskBackend:
    global _backend
    if _backend is None:
        _backend = DaskBackend()
    return _backend


def reset() -> None:
    """Fresh backend/store (called by the runner between programs)."""
    global _backend
    if _backend is not None:
        _backend.close()
    _backend = None


def read_csv(path: str, **kwargs) -> DaskFrame:
    return _get_backend().read_csv(path=path, **kwargs)


def DataFrame(data) -> DaskFrame:
    backend = _get_backend()
    return from_pandas(_EagerFrame(data), backend.evaluator)


def merge(left: DaskFrame, right, **kwargs) -> DaskFrame:
    return left.merge(right, **kwargs)


def concat(objs, ignore_index: bool = True):
    return _get_backend().concat(objs)


def to_datetime(series: DaskSeries) -> DaskSeries:
    return _get_backend().to_datetime(series)


__all__ = [
    "DataFrame", "concat", "merge", "read_csv", "reset", "to_datetime",
]
