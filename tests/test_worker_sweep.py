"""Tests for the process workers' chunked leaf-group sweep.

The vectorized worker path (:func:`repro.parallel.process._sweep_query`)
replaces a page-at-a-time best-first search with a sweep over
leaf-parent groups: one ``read_pages`` call and one ``point_keys`` call
per chunk.  Its contract is the scalar ``best_first`` adapter's
(:func:`~repro.parallel.process._worker_query`, kept as the oracle):
the same local top-k ``(key, oid, point)`` items per disk, and through
:class:`~repro.parallel.process.ProcessParallelEngine` the same
neighbors, per-disk pages and distance computations in both kernel
modes.  The engine must also fail fast, and clean, when a worker dies.
"""

import gc
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.data.fourier import fourier_points
from repro.index.metrics import Euclidean
from repro.parallel.process import (
    ProcessParallelEngine,
    _BatchPageMemo,
    _LeafGroups,
    _sweep_query,
    _worker_query,
)
from repro.storage import bulk_load_mmap


def _shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        return set()


def _fresh_bound(k):
    return np.full(k, np.inf), threading.Lock()


def _assert_items_equal(ours, theirs):
    assert [(key, oid) for key, oid, _ in ours] == [
        (key, oid) for key, oid, _ in theirs
    ]
    for (_, _, a), (_, _, b) in zip(ours, theirs):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dimension", [1, 2, 3, 8, 16, 64])
def test_point_keys_over_concatenated_pages_are_bit_identical(dimension):
    """Scoring a chunk's concatenated payloads in one call gives every
    row the key it gets when its page is scored alone."""
    rng = np.random.default_rng(dimension)
    metric = Euclidean()
    for _ in range(20):
        sizes = rng.integers(0, 37, size=int(rng.integers(1, 9)))
        pages = [rng.standard_normal((size, dimension)) * 7 for size in sizes]
        query = rng.standard_normal(dimension)
        per_page = np.concatenate(
            [metric.point_keys(page, query) for page in pages]
        )
        together = metric.point_keys(np.concatenate(pages), query)
        assert per_page.tobytes() == together.tobytes()


def _store(tmp_path, name, points, num_disks):
    return bulk_load_mmap(
        points,
        NearOptimalDeclusterer(points.shape[1], num_disks),
        tmp_path / name,
        num_disks=num_disks,
    )


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Named stores covering the sweep's shapes; closed at teardown."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    rng = np.random.default_rng(5)
    opened = {
        "uniform16": _store(tmp_path, "u16", rng.random((3000, 16)), 4),
        "fourier8": _store(
            tmp_path, "f8",
            fourier_points(4000, 8, seed=3, num_families=20), 2,
        ),
        "empty": _store(tmp_path, "empty", np.zeros((0, 4)), 4),
        "single-leaf": _store(tmp_path, "one", rng.random((12, 3)), 4),
    }
    yield opened
    for store in opened.values():
        store.close()


def _queries(store, count, seed):
    rng = np.random.default_rng(seed)
    dimension = store.tree.dimension
    if not len(store):
        return rng.random((count, dimension))
    points = np.vstack(
        [store.read_page(leaf)[0] for leaf in store.leaves]
    )
    picks = points[rng.integers(0, len(points), size=count)]
    return picks + rng.normal(scale=0.01, size=picks.shape)


class TestSweepMatchesBestFirst:
    @pytest.mark.parametrize(
        "name", ["uniform16", "fourier8", "empty", "single-leaf"]
    )
    @pytest.mark.parametrize("k", [1, 10])
    def test_items_per_disk(self, stores, name, k):
        store = stores[name]
        for disk in range(store.num_disks):
            groups = _LeafGroups(store, disk)
            for query in _queries(store, 3, seed=disk):
                view, lock = _fresh_bound(k)
                ours, ours_faults = _sweep_query(
                    store, groups, query, k, view, lock
                )
                view, lock = _fresh_bound(k)
                theirs, their_faults = _worker_query(
                    store, disk, query, k, view, lock
                )
                _assert_items_equal(ours, theirs)
                assert ours_faults >= their_faults

    def test_disk_without_pages(self, stores):
        """A single-leaf root lives on one disk; the others own no page
        and answer with no candidates and no reads."""
        store = stores["single-leaf"]
        assert store.tree.root.is_leaf
        owner = store.disk_of(store.tree.root)
        for disk in range(store.num_disks):
            view, lock = _fresh_bound(4)
            items, faults = _sweep_query(
                store, _LeafGroups(store, disk), np.zeros(3), 4, view, lock
            )
            if disk == owner:
                assert len(items) == 4 and faults == 1
            else:
                assert items == [] and faults == 0

    def test_k_beyond_a_disks_point_count(self, stores):
        store = stores["single-leaf"]
        owner = store.disk_of(store.tree.root)
        query = np.full(3, 0.5)
        view, lock = _fresh_bound(40)
        ours, _ = _sweep_query(
            store, _LeafGroups(store, owner), query, 40, view, lock
        )
        view, lock = _fresh_bound(40)
        theirs, _ = _worker_query(store, owner, query, 40, view, lock)
        assert len(ours) == len(store) == 12
        _assert_items_equal(ours, theirs)

    def test_batch_memo_source(self, stores):
        """Through the batch page memo the sweep returns the same items,
        and a repeated query is served without new store reads."""
        store = stores["uniform16"]
        memo = _BatchPageMemo(store)
        groups = _LeafGroups(store, 1)
        query = _queries(store, 1, seed=9)[0]
        direct = _sweep_query(store, groups, query, 5, *_fresh_bound(5))
        first = _sweep_query(memo, groups, query, 5, *_fresh_bound(5))
        cached = len(memo._pages)
        second = _sweep_query(memo, groups, query, 5, *_fresh_bound(5))
        assert len(memo._pages) == cached
        _assert_items_equal(first[0], direct[0])
        _assert_items_equal(second[0], direct[0])
        assert first[1] == second[1] == direct[1]


class TestLeafGroups:
    def test_all_disk_table_covers_every_leaf_once(self, stores):
        store = stores["uniform16"]
        groups = _LeafGroups(store)
        assert sorted(map(id, groups.leaves)) == sorted(
            map(id, store.leaves)
        )
        assert groups.offsets[-1] == len(store.leaves)
        rows = groups.rows(np.arange(len(groups.low)))
        assert np.array_equal(rows, np.arange(len(store.leaves)))

    def test_passing_equals_flat_leaf_filter(self, stores):
        store = stores["fourier8"]
        groups = _LeafGroups(store)
        metric = Euclidean()
        for query in _queries(store, 5, seed=2):
            keys = metric.mindist_many(
                groups.leaf_low, groups.leaf_high, query
            )
            for bound in (0.0, float(np.median(keys)), np.inf):
                assert np.array_equal(
                    np.sort(groups.passing(query, bound)),
                    np.nonzero(keys <= bound)[0],
                )

    def test_empty_tree_is_an_empty_table(self, stores):
        groups = _LeafGroups(stores["empty"])
        assert groups.low.shape == (0, 4) and groups.leaves == []
        assert len(groups.passing(np.zeros(4), np.inf)) == 0


def _assert_same(ours, theirs):
    assert [(n.oid, n.distance) for n in ours.neighbors] == [
        (n.oid, n.distance) for n in theirs.neighbors
    ]
    assert np.array_equal(ours.pages_per_disk, theirs.pages_per_disk)
    assert ours.distance_computations == theirs.distance_computations


@pytest.mark.parametrize("name", ["uniform16", "fourier8"])
def test_engine_kernel_modes_agree(stores, name):
    """Grouped sweep (kernels on) and best-first oracle (kernels off)
    give identical answers and accounting, per call and per batch."""
    store = stores[name]
    queries = _queries(store, 6, seed=4)
    with ProcessParallelEngine(store, use_kernels=True) as fast, \
            ProcessParallelEngine(store, use_kernels=False) as oracle:
        for query in queries:
            _assert_same(fast.query(query, 7), oracle.query(query, 7))
        ours = fast.query_batch(queries, k=7)
        theirs = oracle.query_batch(queries, k=7)
        for a, b in zip(ours.results, theirs.results):
            _assert_same(a, b)


class TestDeadWorker:
    @pytest.mark.parametrize("call", ["query", "query_batch"])
    def test_killed_worker_fails_fast_and_cleans_up(self, stores, call):
        store = stores["uniform16"]
        query = np.full(16, 0.5)
        before = _shm_names()
        engine = ProcessParallelEngine(store)
        try:
            engine.query(query, 3)
            workers = list(engine._procs)
            os.kill(workers[2].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(RuntimeError, match=r"disk worker 2 died"):
                if call == "query":
                    engine.query(query, 3)
                else:
                    engine.query_batch(np.vstack([query] * 4), k=3)
            assert time.monotonic() - start < 5.0
            assert engine._procs == []
            for worker in workers:
                worker.join(timeout=5.0)
                assert not worker.is_alive()
        finally:
            engine.close()
        del engine, workers
        gc.collect()
        assert _shm_names() - before == set()
