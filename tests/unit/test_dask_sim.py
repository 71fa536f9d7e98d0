"""Unit tests for the Dask simulator: lazy partitioned execution."""

import gc
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.backends import BackendUnsupported, DaskBackend
from repro.backends.dask_sim import compute as compute_module
from repro.backends.dask_sim import store as store_module
from repro.backends.dask_sim.frame import DaskFrame
from repro.core.session import Session
from repro.frame import DataFrame, read_csv
from repro.memory import memory_manager


@pytest.fixture
def backend():
    b = DaskBackend(partition_bytes=2_000)
    yield b
    b.store.clear()


@pytest.fixture
def wide_csv(make_csv):
    n = 500
    rng = np.random.default_rng(3)
    return make_csv(
        {
            "k": rng.integers(0, 20, n),
            "v": np.round(rng.random(n) * 100, 3),
            "g": np.array([f"g{i % 7}" for i in range(n)], dtype=object),
            "pad": np.array([f"pad-{i:05d}" for i in range(n)], dtype=object),
        },
        "wide.csv",
    )


class TestLazyReads:
    def test_read_is_partitioned_and_lazy(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        assert isinstance(frame, DaskFrame)
        assert frame.npartitions > 1
        assert frame.expr.kind == "read_csv"

    def test_compute_assembles_all_rows(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        assert len(frame.compute()) == 500

    def test_len_counts_without_full_concat(self, backend, wide_csv):
        assert len(backend.read_csv(path=wide_csv)) == 500

    def test_usecols_pushed_into_partitions(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv, usecols=["k", "v"])
        out = frame.compute()
        assert out.columns == ["k", "v"]

    def test_index_col_emulated_with_set_index(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv, index_col="pad")
        assert "pad" not in frame.columns

    def test_head_reads_leading_partitions_only(self, backend, wide_csv):
        frame = backend.read_csv(path=wide_csv)
        head = frame.head(5)
        assert isinstance(head, DataFrame)
        assert len(head) == 5


class TestBlockwise:
    def test_filter_matches_eager(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy[lazy["v"] > 50.0].compute()
        eager = read_csv(wide_csv)
        expected = eager[eager["v"] > 50.0]
        assert len(out) == len(expected)
        assert sorted(out["v"].to_list()) == sorted(expected["v"].to_list())

    def test_with_column(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        lazy = lazy.with_column("double", lazy["v"] * 2)
        out = lazy.compute()
        assert np.allclose(out["double"].values, out["v"].values * 2)

    def test_setitem_mutates_wrapper(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        lazy["flag"] = lazy["v"] > 10
        assert "flag" in lazy.columns

    def test_str_accessor(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy["g"].str.upper().compute()
        assert out.values[0].startswith("G")

    def test_series_methods(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        assert lazy["k"].isin([1, 2]).compute().values.dtype == bool
        assert lazy["v"].between(10, 20).compute().values.dtype == bool
        assert (~(lazy["v"] > 50)).compute().values.dtype == bool

    def test_dropna_fillna(self, backend, make_csv):
        path = make_csv({"a": [1.0, np.nan, 3.0] * 30}, "na.csv")
        b = DaskBackend(partition_bytes=200)
        lazy = b.read_csv(path=path)
        assert len(lazy.dropna().compute()) == 60
        filled = lazy.fillna(0.0).compute()
        assert not np.isnan(filled["a"].values).any()
        b.store.clear()


class TestAggregations:
    def test_groupby_sum_matches_eager(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.groupby("g")["v"].sum()
        eager = read_csv(wide_csv).groupby("g")["v"].sum()
        got = dict(zip(out.index.to_array(), np.round(out.values, 6)))
        want = dict(zip(eager.index.to_array(), np.round(eager.values, 6)))
        assert got == want

    def test_groupby_mean_decomposes(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.groupby("g")["v"].mean()
        eager = read_csv(wide_csv).groupby("g")["v"].mean()
        assert np.allclose(np.sort(out.values), np.sort(eager.values))

    def test_groupby_size(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).groupby("g").size()
        assert out.values.sum() == 500

    def test_groupby_agg_dict(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).groupby("g").agg(
            {"v": "max", "k": "min"}
        )
        assert set(out.columns) == {"v", "k"}

    def test_scalar_reductions(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        eager = read_csv(wide_csv)
        assert float(lazy["v"].sum().compute()) == pytest.approx(eager["v"].sum())
        assert float(lazy["v"].mean().compute()) == pytest.approx(eager["v"].mean())
        assert float(lazy["v"].min().compute()) == pytest.approx(eager["v"].min())
        assert float(lazy["v"].max().compute()) == pytest.approx(eager["v"].max())
        assert int(lazy["v"].count().compute()) == 500

    def test_nunique_and_unique(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        assert lazy["g"].nunique() == 7
        assert len(lazy["g"].unique()) == 7

    def test_value_counts(self, backend, wide_csv):
        counts = backend.read_csv(path=wide_csv)["g"].value_counts()
        assert counts.values.sum() == 500

    def test_drop_duplicates_tree(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).drop_duplicates(subset=["g"])
        assert len(out.compute()) == 7

    def test_nlargest_tree(self, backend, wide_csv):
        out = backend.read_csv(path=wide_csv).nlargest(3, "v").compute()
        eager = read_csv(wide_csv).nlargest(3, "v")
        assert sorted(out["v"].to_list()) == sorted(eager["v"].to_list())


class TestMerges:
    def test_broadcast_merge(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        dim = DataFrame({"k": list(range(20)), "label": [f"L{i}" for i in range(20)]})
        out = lazy.merge(dim, on="k").compute()
        assert len(out) == 500
        assert "label" in out.columns

    def test_broadcast_side_read_once_per_pass(self, backend, wide_csv, make_csv):
        dim_path = make_csv(
            {"k": list(range(20)), "label": [f"L{i}" for i in range(20)]},
            "dim.csv",
        )
        lazy = backend.read_csv(path=wide_csv)
        dim = backend.read_csv(path=dim_path)
        assert lazy.npartitions > 1 and dim.npartitions == 1
        joined = lazy.merge(dim, on="k")
        reads = []
        real = compute_module.read_csv

        def counting(path, **kwargs):
            reads.append(path)
            return real(path, **kwargs)

        with mock.patch.object(compute_module, "read_csv", counting):
            out = joined.compute()
            assert reads.count(dim_path) == 1
            assert len(joined) == 500  # a second pass reads it again
            assert reads.count(dim_path) == 2
        expected = read_csv(wide_csv).merge(read_csv(dim_path), on="k")
        assert out["label"].to_list() == expected["label"].to_list()

    def test_shuffle_merge_matches_eager(self, backend, make_csv):
        n = 300
        rng = np.random.default_rng(5)
        left_path = make_csv(
            {"k": rng.integers(0, 50, n), "v": np.arange(n)}, "left.csv"
        )
        right_path = make_csv(
            {
                "k": np.tile(np.arange(50), 10),
                "w": np.arange(500) * 10,
                "pad": np.array([f"r-{i:06d}" for i in range(500)], dtype=object),
            },
            "right.csv",
        )
        b = DaskBackend(partition_bytes=500)
        left = b.read_csv(path=left_path)
        right = b.read_csv(path=right_path)
        assert left.npartitions > 1 and right.npartitions > 1
        out = left.merge(right, on="k").compute()
        expected = read_csv(left_path).merge(read_csv(right_path), on="k")
        assert len(out) > 0
        assert len(out) == len(expected)
        assert sorted(out["w"].to_list()) == sorted(expected["w"].to_list())
        b.store.clear()

    def test_merge_tracks_columns(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        dim = DataFrame({"k": [1], "label": ["x"]})
        out = lazy.merge(dim, on="k")
        assert "label" in out.columns


class TestUnsupportedOps:
    def test_sort_values_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).sort_values("v")

    def test_describe_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).describe()

    def test_iloc_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).iloc

    def test_apply_without_meta_raises(self, backend, wide_csv):
        with pytest.raises(BackendUnsupported):
            backend.read_csv(path=wide_csv).apply(lambda r: r, axis=1)

    def test_apply_with_meta_works(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        out = lazy.apply(lambda row: row["k"] * 2, axis=1, meta="int64")
        assert len(out.compute()) == 500


class TestPersistAndSpill:
    def test_persist_materializes(self, backend, wide_csv):
        lazy = backend.read_csv(path=wide_csv)
        pinned = lazy.persist()
        assert pinned.expr.kind == "materialized"
        assert len(pinned.compute()) == 500

    def test_spill_under_pressure_still_correct(self, make_csv):
        n = 2000
        path = make_csv(
            {
                "k": np.arange(n) % 10,
                "s": np.array([f"text-{i:07d}-xxxxxxxx" for i in range(n)], dtype=object),
            },
            "big.csv",
        )
        eager_total = read_csv(path).groupby("k")["k"].count()
        frame_bytes = read_csv(path).nbytes
        memory_manager.reset()
        memory_manager.budget = int(frame_bytes * 0.6)  # cannot hold it all
        try:
            b = DaskBackend(partition_bytes=2_000)
            lazy = b.read_csv(path=path)
            pinned = lazy.persist()  # must spill to fit
            out = pinned.groupby("k")["k"].count()
            assert b.store.spill_count > 0
            assert dict(zip(out.index.to_array(), out.values)) == dict(
                zip(eager_total.index.to_array(), eager_total.values)
            )
            b.store.clear()
        finally:
            memory_manager.budget = None

    def test_oom_when_materializing_too_much(self, make_csv):
        n = 3000
        path = make_csv(
            {"s": np.array([f"blob-{i:09d}-yyyyyyyyyyy" for i in range(n)], dtype=object)},
            "huge.csv",
        )
        frame_bytes = read_csv(path).nbytes
        memory_manager.reset()
        memory_manager.budget = int(frame_bytes * 0.5)
        try:
            b = DaskBackend(partition_bytes=2_000)
            lazy = b.read_csv(path=path)
            with pytest.raises(MemoryError):
                lazy.compute()  # full materialization cannot fit
            b.store.clear()
        finally:
            memory_manager.budget = None


def spill_dirs(root):
    return [name for name in os.listdir(root) if name.startswith("lafp-spill-")]


class TestSpillDirectory:
    @pytest.fixture
    def spill_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_made_on_first_spill_only(self, spill_root, wide_csv):
        b = DaskBackend(partition_bytes=2_000)
        assert len(b.read_csv(path=wide_csv).persist().compute()) == 500
        assert spill_dirs(spill_root) == []
        b.store.spill_all()
        assert len(spill_dirs(spill_root)) == 1
        b.close()
        assert spill_dirs(spill_root) == []

    def test_forced_spill_collect_leaves_nothing_once_session_closed(
        self, spill_root, wide_csv
    ):
        with Session(backend="dask") as s:
            df = lfp.read_csv(wide_csv)
            df = df[df.k >= 0].persist()
            store = s._engines["dask"].backend.store
            store.spill_all()  # every persisted partition goes to disk
            assert store.spill_count > 0
            assert spill_dirs(spill_root)
            counts = df.groupby("g")["k"].count().collect()
            assert sum(counts.to_list()) == 500
        s.close()
        assert spill_dirs(spill_root) == []

    def test_directory_removed_when_store_collected(self, spill_root, wide_csv):
        b = DaskBackend(partition_bytes=2_000)
        b.read_csv(path=wide_csv).persist()
        b.store.spill_all()
        assert spill_dirs(spill_root)
        del b
        gc.collect()
        assert spill_dirs(spill_root) == []

    def test_finalizer_in_another_process_leaves_directory(
        self, spill_root, wide_csv
    ):
        b = DaskBackend(partition_bytes=2_000)
        pinned = b.read_csv(path=wide_csv).persist()
        b.store.spill_all()
        # a forked child inherits the finalizer; running it there (as
        # collecting its copy of the store would) must not touch the
        # parent's directory
        with mock.patch.object(store_module.os, "getpid", return_value=-1):
            b.store._finalizer()
        assert spill_dirs(spill_root)
        assert len(pinned.compute()) == 500  # spilled partitions load back
