"""The benchmark's three workloads, each a closed loop of *ops*.

An op is one unit a user waits for: one ``Runner.run`` of a paper
program, one notebook collect, or one remote-lake query.  Every
workload is driven by one single-threaded client and offers the same
surface to :mod:`run`:

- ``setup()`` builds the inputs from the process's seeded state, computes
  an independent reference for every op a round can hold, and warms up
  (no op is timed; ``run.py`` times the whole call as ``setup_s``);
- ``round(rng)`` yields the next batch of ops.  A round holds every op
  shape the same number of times, so latency percentiles are taken over
  the same mix in every run;
- ``execute(op)`` runs one op and returns a :class:`Result`;
  ``matches(op, value)`` compares it with the op's reference afterwards,
  outside the timed call;
- ``corrupt_reference()`` breaks one reference on purpose, so the
  self-test can prove that a wrong answer is caught.

Why these three (each stresses a different layer of the system):

- ``paper_programs`` -- the paper's own experiment (Fig. 13-15): ten
  programs x {lafp_pandas, lafp_dask} at size S.  CSV ingest is about
  half the time, and it is the only workload with JIT rewriting
  (``pd.analyze()``) or the lazy ``dask_sim`` engine.  At the runner's
  default 12,000 base rows ``dso`` under ``lafp_dask`` raises
  ``KeyError: ['service']``; the op stays in the workload and counts as
  failed.
- ``notebook_session`` -- one long-lived session at default options over
  an eagerly loaded 2,000-row taxi frame: thousands of small collects,
  so per-collect fixed cost (analysis gate, optimizer, planning) and
  session growth dominate; nothing is parsed.
- ``remote_lake`` -- columnar tables in the in-memory object store with
  2 ms charged per range read, one fresh threaded session per query:
  remote range reads, chunk pruning and prefetch overlap; no CSV
  parsing and no JIT.

Two workloads are deferred until their defects are fixed (see
:data:`DEFERRED`); each is added together with the fix of its defect.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from typing import Callable, Dict, Iterator, List, Tuple

#: Workloads left out until the defect each one shows is fixed.
DEFERRED = {
    "cache_rerun": (
        "notebook_session's loop with optimizer.reuse=True fails 147 of "
        "600 collects: a cached, projection-narrowed filter result is "
        "served to a later query that needs more columns"
    ),
    "out_of_core_remote": (
        "remote_lake's queries with memory.budget = 1/2 of the remote "
        "columnar fact table: groupby, broadcast-join and shuffle-join "
        "queries all raise a simulated OOM"
    ),
}


#: stands in for a reference that no result can match.
_CORRUPT = object()


@dataclasses.dataclass
class Result:
    """What one op returned."""

    #: the eager result (a result-file md5 for the paper programs).
    value: object
    #: the op raised, or the runner reported an error.
    raised: bool
    #: the largest simulated tracked bytes the op's session held.
    peak_bytes: int


#: relative tolerance for float results.  Partitioned engines sum in
#: another order than the eager reference, so the last bits differ (the
#: paper programs' md5 check rounds to 3 decimals for the same reason).
FLOAT_RTOL = 1e-9


def same_result(expected, actual) -> bool:
    """Whether ``actual`` equals the eager ``expected`` frame, series or
    scalar: same type, names, dtypes and values in the same order; floats
    within :data:`FLOAT_RTOL`, NaN matching NaN.

    A series' index (its group keys) must match too; a frame's row
    labels need not, as in the paper programs' md5 check (which writes
    frames with ``index=False``): the Dask engine re-splits a
    ``from_pandas`` frame by position, so ``head`` over several
    partitions returns positional labels where the eager engine keeps
    the source's."""
    import numpy as np

    from repro.frame import DataFrame, Series

    def same_array(a, b) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind == "f":
            return bool(np.allclose(a, b, rtol=FLOAT_RTOL, atol=0.0,
                                    equal_nan=True))
        return a.tolist() == b.tolist()

    if type(expected) is not type(actual):
        return False
    if isinstance(expected, DataFrame):
        return (
            list(expected.columns) == list(actual.columns)
            and all(same_array(expected.column(name).to_array(),
                               actual.column(name).to_array())
                    for name in expected.columns)
        )
    if isinstance(expected, Series):
        return (
            expected.name == actual.name
            and same_array(expected.index.to_array(), actual.index.to_array())
            and same_array(expected.column.to_array(),
                           actual.column.to_array())
        )
    return same_array([expected], [actual])


def _collect(build: Callable[[], object], peak: Callable[[], int]) -> Result:
    try:
        value = build().collect()
    except Exception:  # noqa: BLE001 - a raising op is a counted failure
        return Result(value=None, raised=True, peak_bytes=peak())
    return Result(value=value, raised=False, peak_bytes=peak())


# ---------------------------------------------------------------------------
# paper_programs
# ---------------------------------------------------------------------------


class PaperPrograms:
    """The ten paper programs x {lafp_pandas, lafp_dask} at size S."""

    name = "paper_programs"
    modes = ("lafp_pandas", "lafp_dask")

    def __init__(self, workdir: str, tiny: bool = False):
        self.workdir = workdir
        #: None = the runner's default base rows (12,000).
        self.base_rows = 600 if tiny else None
        self.runner = None
        self.reference: Dict[str, object] = {}

    def setup(self) -> None:
        from repro.workloads.programs import PROGRAMS
        from repro.workloads.runner import Runner

        if self.runner is not None:
            self.runner.cleanup()
        self.runner = Runner(workdir=os.path.join(self.workdir, "paper"),
                             base_rows=self.base_rows)
        self.runner.prepare(["S"])
        self.reference = {}
        for program in sorted(PROGRAMS):
            # the independent reference: plain eager pandas mode
            result = self.runner.run(program, "pandas")
            if not result.ok or result.result_hash is None:
                raise RuntimeError(
                    f"reference run of {program} failed: {result.error}"
                )
            self.reference[program] = result.result_hash
        for op in self.round(None):  # warm-up: cold imports land here
            self.execute(op)

    def round(self, rng) -> Iterator[Tuple[str, str]]:
        for program in sorted(self.reference):
            for mode in self.modes:
                yield program, mode

    @staticmethod
    def shape(op: Tuple[str, str]) -> str:
        return f"{op[0]}/{op[1]}"

    def execute(self, op: Tuple[str, str]) -> Result:
        program, mode = op
        result = self.runner.run(program, mode)
        return Result(value=result.result_hash, raised=not result.ok,
                      peak_bytes=result.peak_bytes)

    def matches(self, op: Tuple[str, str], value) -> bool:
        return value == self.reference[op[0]]

    def corrupt_reference(self) -> None:
        """Break the reference of the first program."""
        self.reference[sorted(self.reference)[0]] = _CORRUPT

    def close(self) -> None:
        if self.runner is not None:
            self.runner.cleanup()
            self.runner = None


# ---------------------------------------------------------------------------
# notebook_session and remote_lake
# ---------------------------------------------------------------------------


class _ShapedQueries:
    """A workload whose ops are (shape, parameter) pairs over
    :attr:`shapes` (name -> (query function, number of parameters)),
    checked against the same query evaluated eagerly with
    :mod:`repro.frame` during set-up."""

    shapes: Dict[str, Tuple[Callable, int]] = {}
    #: each shape appears this many times per round.
    per_round = 1

    def __init__(self):
        self.reference: Dict[Tuple[str, int], object] = {}

    def _compute_reference(self, data) -> None:
        self.reference = {
            (shape, p): build(data, p)
            for shape, (build, n_params) in self.shapes.items()
            for p in range(n_params)
        }

    def round(self, rng) -> List[Tuple[str, int]]:
        ops = [
            (shape, rng.randrange(n_params))
            for shape, (_, n_params) in self.shapes.items()
            for _ in range(self.per_round)
        ]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def shape(op: Tuple[str, int]) -> str:
        return op[0]

    def matches(self, op: Tuple[str, int], value) -> bool:
        return same_result(self.reference[op], value)

    def corrupt_reference(self) -> None:
        """Break every reference of the first shape."""
        first = next(iter(self.shapes))
        for key in self.reference:
            if key[0] == first:
                self.reference[key] = _CORRUPT


# ---------------------------------------------------------------------------
# notebook_session
# ---------------------------------------------------------------------------

_FARE_CUTS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)
_DISTANCE_CUTS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
_PASSENGER_CUTS = (1, 2, 3, 4, 5, 6)
_HEAD_ROWS = (5, 10, 20, 50)


def _filter_groupby_sum(frame, p):
    cut = _FARE_CUTS[p % len(_FARE_CUTS)]
    return frame[frame["fare_amount"] > cut].groupby(
        "payment_type")["tip_amount"].sum()


def _filter_project_head(frame, p):
    cut = _DISTANCE_CUTS[p % len(_DISTANCE_CUTS)]
    picked = frame[frame["trip_distance"] > cut]
    return picked[["fare_amount", "tip_amount", "passenger_count"]].head(
        _HEAD_ROWS[p % len(_HEAD_ROWS)])


def _filter_scalar_mean(frame, p):
    cut = _PASSENGER_CUTS[p % len(_PASSENGER_CUTS)]
    return frame[frame["passenger_count"] >= cut]["fare_amount"].mean()


def _filter_multi_agg(frame, p):
    cut = _FARE_CUTS[p % len(_FARE_CUTS)]
    return frame[frame["fare_amount"] > cut].groupby("passenger_count").agg(
        {"fare_amount": "mean", "tip_amount": "max", "trip_distance": "sum"})


#: shape name -> (query function, number of distinct parameters)
NOTEBOOK_SHAPES: Dict[str, Tuple[Callable, int]] = {
    "filter_groupby_sum": (_filter_groupby_sum, len(_FARE_CUTS)),
    "filter_project_head": (_filter_project_head, len(_DISTANCE_CUTS)),
    "filter_scalar_mean": (_filter_scalar_mean, len(_PASSENGER_CUTS)),
    "filter_multi_agg": (_filter_multi_agg, len(_FARE_CUTS)),
}


class NotebookSession(_ShapedQueries):
    """One long-lived default-options session; thousands of collects."""

    name = "notebook_session"
    shapes = NOTEBOOK_SHAPES
    per_round = 5
    warmup_rounds = 10

    def __init__(self, workdir: str, tiny: bool = False):
        super().__init__()
        self.workdir = workdir
        self.rows = 200 if tiny else 2_000
        self.session = None
        self.lazy = None

    def setup(self) -> None:
        import random

        from repro.core.session import Session
        from repro.frame import read_csv
        from repro.io.api import from_pandas
        from repro.workloads import datagen

        self.close()
        path = datagen.generate("taxi", os.path.join(self.workdir, "nb"),
                                self.rows)
        frame = read_csv(path)
        self._compute_reference(frame)
        self.session = Session()
        with self.session:
            self.lazy = from_pandas(frame)
        rng = random.Random(-1)
        for _ in range(self.warmup_rounds):
            for op in self.round(rng):
                self.execute(op)

    def execute(self, op: Tuple[str, int]) -> Result:
        shape, p = op
        build = self.shapes[shape][0]
        memory = self.session.memory
        memory.reset_peak()
        with self.session:
            return _collect(lambda: build(self.lazy, p),
                            lambda: memory.peak)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
            self.lazy = None
        shutil.rmtree(os.path.join(self.workdir, "nb"), ignore_errors=True)


# ---------------------------------------------------------------------------
# remote_lake
# ---------------------------------------------------------------------------

_LAKE_FARE_CUTS = (40.0, 45.0, 50.0, 55.0, 60.0)
_LAKE_GROUP_KEYS = ("payment_type", "passenger_count")
_LAKE_RATING_CUTS = (3.0, 3.5, 4.0, 4.5)


def _lake_selective(tables, p):
    taxi = tables["taxi"]
    cut = _LAKE_FARE_CUTS[p % len(_LAKE_FARE_CUTS)]
    return taxi[taxi["fare_amount"] > cut][
        ["fare_amount", "tip_amount", "passenger_count"]]


def _lake_groupby(tables, p):
    key = _LAKE_GROUP_KEYS[p % len(_LAKE_GROUP_KEYS)]
    return tables["taxi"].groupby(key).agg(
        {"fare_amount": "sum", "trip_distance": "max", "tip_amount": "mean"})


def _lake_join(tables, p):
    ratings = tables["ratings"]
    cut = _LAKE_RATING_CUTS[p % len(_LAKE_RATING_CUTS)]
    liked = ratings[ratings["rating"] >= cut]
    return liked.merge(tables["movies"], on="movieId").groupby(
        "genre")["rating"].mean()


LAKE_SHAPES: Dict[str, Tuple[Callable, int]] = {
    "selective_filter_project": (_lake_selective, len(_LAKE_FARE_CUTS)),
    "full_groupby": (_lake_groupby, len(_LAKE_GROUP_KEYS)),
    "filter_join_groupby": (_lake_join, len(_LAKE_RATING_CUTS)),
}

#: seconds the object store charges per range read.
LAKE_RANGE_LATENCY = 0.002
LAKE_ROW_GROUP_ROWS = 8_192


class RemoteLake(_ShapedQueries):
    """Columnar tables in the in-memory object store; one threaded
    session per query."""

    name = "remote_lake"
    shapes = LAKE_SHAPES
    per_round = 2

    def __init__(self, workdir: str, tiny: bool = False):
        super().__init__()
        self.workdir = workdir
        self.rows = 2_000 if tiny else 48_000
        self.urls: Dict[str, str] = {}

    def setup(self) -> None:
        import random

        from repro.frame import read_csv
        from repro.io import memory_store, write_columnar
        from repro.io.prefetch import range_cache
        from repro.workloads import datagen

        self.close()
        local = os.path.join(self.workdir, "lake")
        frames = {}
        for name in ("taxi", "ratings", "movies"):
            path = datagen.generate(name, local, self.rows)
            frames[name] = read_csv(path)
            url = f"memory://lake/{name}.lfc"
            write_columnar(frames[name], url,
                           row_group_rows=LAKE_ROW_GROUP_ROWS)
            self.urls[name] = url
        shutil.rmtree(local, ignore_errors=True)
        self._compute_reference(frames)
        memory_store().latency = LAKE_RANGE_LATENCY
        range_cache().clear()
        for op in self.round(random.Random(-1)):
            self.execute(op)

    def execute(self, op: Tuple[str, int]) -> Result:
        from repro.core.session import Session
        from repro.io.api import scan_columnar

        shape, p = op
        build = self.shapes[shape][0]
        # the eager engine: threaded scheduling (and with it prefetch)
        # only takes effect on a non-lazy backend.
        session = Session(backend="pandas",
                          options={"executor.strategy": "threaded"})
        try:
            with session:
                tables = {name: scan_columnar(url)
                          for name, url in self.urls.items()}
                return _collect(lambda: build(tables, p),
                                lambda: session.memory.peak)
        finally:
            session.close()

    def close(self) -> None:
        from repro.io import memory_store
        from repro.io.prefetch import range_cache

        if self.urls:
            memory_store().reset()
            range_cache().clear()
            self.urls = {}


WORKLOADS = {
    cls.name: cls for cls in (PaperPrograms, NotebookSession, RemoteLake)
}


def make(name: str, workdir: str, tiny: bool = False):
    """The workload called ``name``, set to build its data in ``workdir``."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(workdir, tiny=tiny)


