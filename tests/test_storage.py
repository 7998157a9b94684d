"""Tests for the out-of-core page store (``repro.storage``).

Covers the page-file format (round trip, crash/truncation behavior,
oversized payloads), the store directory round trip, the edge cases the
format must handle (zero-page disks, concurrent mappings), and the
bit-for-bit equivalence of :class:`~repro.parallel.paged.PagedEngine`
over an :class:`~repro.storage.mmap_store.MmapStore` with the in-memory
reference — including the buffer-pool charging contract and the scalar
kernel fallback.
"""

import json

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.parallel.cache import CacheConfig
from repro.parallel.paged import PagedEngine, PagedStore
from repro.persistence import StoreFormatError
from repro.storage import (
    HEADER_BYTES,
    MmapStore,
    PAGEFILE_FORMAT_VERSION,
    PageFile,
    PageFileWriter,
    PageFormatError,
    SlotOverflowError,
    bulk_load_mmap,
    load_mmap_store,
    payload_bytes,
    save_mmap_store,
)


def _results_equal(a, b):
    assert [(n.oid, n.distance) for n in a.neighbors] == [
        (n.oid, n.distance) for n in b.neighbors
    ]
    assert np.array_equal(a.pages_per_disk, b.pages_per_disk)
    assert a.distance_computations == b.distance_computations
    assert a.parallel_time_ms == b.parallel_time_ms


@pytest.fixture
def paged_store(small_uniform):
    return PagedStore(
        points=small_uniform, declusterer=NearOptimalDeclusterer(6, 4)
    )


@pytest.fixture
def store_dir(paged_store, tmp_path):
    directory = tmp_path / "store"
    save_mmap_store(paged_store, directory)
    return directory


class TestPageFile:
    def _write(self, path, payloads, dimension=3, slot_bytes=4096):
        writer = PageFileWriter(
            path, disk_id=2, num_slots=len(payloads),
            slot_bytes=slot_bytes, dimension=dimension, page_bytes=4096,
        )
        with writer:
            for slot, (oids, points) in enumerate(payloads):
                writer.write_slot(slot, oids, points)

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        payloads = [
            (
                np.arange(count, dtype=np.int64) * 7,
                rng.random((count, 3)),
            )
            for count in (5, 0, 12)
        ]
        self._write(path, payloads)
        with PageFile(path) as handle:
            assert handle.disk_id == 2
            assert handle.num_slots == 3
            for slot, (oids, points) in enumerate(payloads):
                got_points, got_oids = handle.read_slot(slot)
                assert got_points.tobytes() == points.tobytes()
                assert got_oids.tobytes() == oids.tobytes()
                assert handle.entry_count(slot) == len(oids)

    def test_reads_survive_close(self, rng, tmp_path):
        """read_slot returns owned copies, not views into the mapping."""
        path = tmp_path / "disk.pages"
        points = rng.random((4, 3))
        self._write(path, [(np.arange(4, dtype=np.int64), points)])
        handle = PageFile(path)
        got_points, got_oids = handle.read_slot(0)
        handle.close()
        assert np.array_equal(got_points, points)
        assert got_oids.sum() == 6

    def test_zero_slot_file(self, tmp_path):
        """A disk that owns no pages still gets a valid (header-only)
        file."""
        path = tmp_path / "empty.pages"
        self._write(path, [])
        with PageFile(path) as handle:
            assert handle.num_slots == 0
            assert path.stat().st_size == HEADER_BYTES

    def test_oversized_payload_raises_not_truncates(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        writer = PageFileWriter(
            path, disk_id=0, num_slots=1, slot_bytes=64,
            dimension=3, page_bytes=64,
        )
        big = rng.random((10, 3))
        assert payload_bytes(10, 3) > 64
        with pytest.raises(SlotOverflowError, match="slot"):
            writer.write_slot(0, np.arange(10, dtype=np.int64), big)
        writer.close()

    def test_truncated_file_fails_fast(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        self._write(path, [(np.arange(3, dtype=np.int64),
                            rng.random((3, 3)))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])  # chop the tail: simulated crash
        with pytest.raises(PageFormatError, match="bytes"):
            PageFile(path)

    def test_bad_magic_and_version_are_rejected(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        self._write(path, [(np.arange(2, dtype=np.int64),
                            rng.random((2, 3)))])
        raw = bytearray(path.read_bytes())
        corrupt = tmp_path / "corrupt.pages"
        corrupt.write_bytes(b"NOTAPAGE" + raw[8:])
        with pytest.raises(PageFormatError, match="magic"):
            PageFile(corrupt)
        versioned = bytearray(raw)
        versioned[8] = PAGEFILE_FORMAT_VERSION + 1  # little-endian u32
        wrong = tmp_path / "wrong_version.pages"
        wrong.write_bytes(bytes(versioned))
        with pytest.raises(PageFormatError, match="format version"):
            PageFile(wrong)

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(PageFormatError, match="does not exist"):
            PageFile(tmp_path / "nope.pages")

    def test_unwritten_slots_read_as_empty_pages(self, tmp_path):
        """The writer pre-truncates and commits counts at close: a slot
        never written (crash before close) is an empty page, not
        garbage."""
        writer = PageFileWriter(
            tmp_path / "disk.pages", disk_id=0, num_slots=2,
            slot_bytes=128, dimension=2, page_bytes=128,
        )
        writer.write_slot(
            1, np.array([9], dtype=np.int64), np.zeros((1, 2))
        )
        writer.close()
        with PageFile(tmp_path / "disk.pages") as handle:
            points, oids = handle.read_slot(0)
            assert len(oids) == 0 and points.shape == (0, 2)
            assert handle.entry_count(1) == 1


class TestMmapStoreRoundTrip:
    def test_surface_matches_paged_store(self, paged_store, store_dir):
        store = load_mmap_store(store_dir)
        assert store.out_of_core
        assert len(store) == len(paged_store)
        assert store.num_disks == paged_store.num_disks
        assert store.scheme == paged_store.scheme
        assert np.array_equal(store.page_disks, paged_store.page_disks)
        assert np.array_equal(store.disk_loads(),
                              paged_store.disk_loads())
        for ours, theirs in zip(store.leaves, paged_store.leaves):
            assert store.disk_of(ours) == paged_store.disk_of(theirs)
            assert store.entry_count(ours) == len(theirs.entries)
        store.close()

    def test_payloads_are_bit_exact(self, paged_store, store_dir):
        with MmapStore(store_dir) as store:
            for ours, theirs in zip(store.leaves, paged_store.leaves):
                points, oids = store.read_page(ours)
                expected = np.vstack(
                    [entry.point for entry in theirs.entries]
                )
                assert points.tobytes() == expected.tobytes()
                assert list(oids) == [e.oid for e in theirs.entries]

    def test_zero_page_disks_get_valid_files(self, small_uniform,
                                             tmp_path):
        """More disks than pages: the trailing disks own zero pages and
        still open cleanly."""
        store = PagedStore(
            points=small_uniform[:40],
            declusterer=NearOptimalDeclusterer(6, 8),
        )
        directory = tmp_path / "sparse"
        save_mmap_store(store, directory)
        with MmapStore(directory) as reopened:
            loads = reopened.disk_loads()
            assert (loads == 0).any()
            assert loads.sum() == len(reopened.leaves)
            total = sum(
                len(reopened.read_page(leaf)[1])
                for leaf in reopened.leaves
            )
            assert total == 40

    def test_reopen_while_another_handle_maps_it(self, store_dir):
        """A second opener (e.g. a worker process) maps the same files
        while the first still holds them — reads stay consistent."""
        first = MmapStore(store_dir)
        leaf = first.leaves[0]
        before = first.read_page(leaf)
        with MmapStore(store_dir) as second:
            other = second.read_page(second.leaves[0])
            assert other[0].tobytes() == before[0].tobytes()
            # First handle still serves pages after the second closed...
        after = first.read_page(leaf)
        assert after[0].tobytes() == before[0].tobytes()
        first.close()
        first.close()  # idempotent

    def test_slot_too_small_raises_at_save(self, paged_store, tmp_path):
        with pytest.raises(SlotOverflowError):
            save_mmap_store(
                paged_store, tmp_path / "tiny", slot_bytes=32
            )

    def test_not_a_store_directory(self, tmp_path):
        with pytest.raises(PageFormatError, match="store.json"):
            MmapStore(tmp_path)

    def test_store_version_mismatch(self, store_dir):
        meta_path = store_dir / "store.json"
        meta = json.loads(meta_path.read_text())
        meta["store_format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError, match="store format"):
            MmapStore(store_dir)

    def test_cache_config_round_trips(self, small_uniform, tmp_path):
        config = CacheConfig(capacity_pages=32, policy="shared")
        store = PagedStore(
            points=small_uniform,
            declusterer=NearOptimalDeclusterer(6, 4),
            cache_config=config,
        )
        directory = tmp_path / "cached"
        save_mmap_store(store, directory)
        with MmapStore(directory) as reopened:
            assert reopened.cache_config == config
            engine = PagedEngine(reopened)
            assert engine.cache is not None
            assert engine.cache.capacity_pages == 32


class TestReadPages:
    """``MmapStore.read_pages``: several payloads, one simulated wait."""

    def _record_sleeps(self, monkeypatch):
        import repro.storage.mmap_store as mmap_store

        sleeps = []
        monkeypatch.setattr(mmap_store.time, "sleep", sleeps.append)
        return sleeps

    def test_payloads_equal_read_page(self, store_dir):
        with MmapStore(store_dir) as store:
            leaves = store.leaves[::3]
            for (points, oids), leaf in zip(store.read_pages(leaves), leaves):
                want_points, want_oids = store.read_page(leaf)
                assert np.array_equal(points, want_points)
                assert np.array_equal(oids, want_oids)

    def test_one_sleep_per_call_for_all_blocks(self, store_dir, monkeypatch):
        sleeps = self._record_sleeps(monkeypatch)
        with MmapStore(store_dir, simulated_disk_ms=0.25) as store:
            leaves = store.leaves[:5]
            store.read_pages(leaves)
            blocks = sum(leaf.blocks for leaf in leaves)
            assert sleeps == [0.25 * blocks / 1000.0]
            store.read_page(leaves[0])
            assert sleeps[1:] == [0.25 * leaves[0].blocks / 1000.0]

    def test_empty_list_reads_and_sleeps_nothing(
        self, store_dir, monkeypatch
    ):
        sleeps = self._record_sleeps(monkeypatch)
        with MmapStore(store_dir, simulated_disk_ms=0.25) as store:
            assert store.read_pages([]) == []
        assert sleeps == []

    def test_closed_store_raises(self, store_dir):
        store = MmapStore(store_dir)
        leaves = store.leaves[:2]
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.read_pages(leaves)
        with pytest.raises(ValueError, match="closed"):
            store.read_pages([])


class TestEngineOverMmap:
    def test_query_parity_with_in_memory(self, paged_store, store_dir,
                                         rng):
        reference = PagedEngine(paged_store)
        with MmapStore(store_dir) as store:
            engine = PagedEngine(store)
            for query in rng.random((10, 6)):
                _results_equal(
                    reference.query(query, 5), engine.query(query, 5)
                )

    def test_scalar_kernel_parity(self, paged_store, store_dir, rng):
        with MmapStore(store_dir) as store:
            fast = PagedEngine(store, use_kernels=True)
            slow = PagedEngine(store, use_kernels=False)
            for query in rng.random((5, 6)):
                _results_equal(fast.query(query, 7), slow.query(query, 7))

    def test_warm_pool_reads_are_free(self, store_dir, rng):
        """The charging contract: a cold mmap read charges the disk, a
        warm buffer-pool hit charges nothing."""
        with MmapStore(store_dir) as store:
            engine = PagedEngine(
                store, cache=CacheConfig(capacity_pages=4096)
            )
            query = rng.random(6)
            cold = engine.query(query, 5)
            warm = engine.query(query, 5)
            assert cold.pages_per_disk.sum() > 0
            assert warm.pages_per_disk.sum() == 0
            assert warm.cache_stats.hits > 0
            assert [n.oid for n in cold.neighbors] == [
                n.oid for n in warm.neighbors
            ]

    def test_empty_query_on_all_disks(self, store_dir):
        """A query far outside the data still touches >= one page per
        covered disk only as the bound demands."""
        with MmapStore(store_dir) as store:
            result = PagedEngine(store).query(np.full(6, 50.0), 1)
            assert len(result.neighbors) == 1


class TestBulkLoadMmap:
    def test_builds_without_in_memory_tree(self, small_uniform, tmp_path):
        store = bulk_load_mmap(
            small_uniform,
            NearOptimalDeclusterer(6, 4),
            tmp_path / "bulk",
        )
        try:
            assert len(store) == len(small_uniform)
            assert store.num_disks == 4
            total = sum(
                len(store.read_page(leaf)[1]) for leaf in store.leaves
            )
            assert total == len(small_uniform)
            # Every point is retrievable through a query.
            engine = PagedEngine(store)
            result = engine.query(small_uniform[17], 1)
            assert result.neighbors[0].oid == 17
            assert result.neighbors[0].distance == 0.0
        finally:
            store.close()

    def test_matches_save_path_exactly(self, small_uniform, tmp_path):
        """Both construction routes produce stores whose engines agree
        with the brute-force oracle."""
        from repro.index.knn import knn_linear_scan

        store = bulk_load_mmap(
            small_uniform,
            NearOptimalDeclusterer(6, 4),
            tmp_path / "bulk",
        )
        try:
            engine = PagedEngine(store)
            rng = np.random.default_rng(5)
            for query in rng.random((8, 6)):
                expected = knn_linear_scan(small_uniform, query, 5)
                got = engine.query(query, 5).neighbors
                assert [n.oid for n in got] == [n.oid for n in expected]
        finally:
            store.close()

    def test_custom_oids_and_large_scale_knobs(self, rng, tmp_path):
        points = rng.random((300, 4))
        oids = np.arange(300) * 3 + 1
        store = bulk_load_mmap(
            points,
            NearOptimalDeclusterer(4, 2),
            tmp_path / "oids",
            oids=oids,
        )
        try:
            result = PagedEngine(store).query(points[10], 1)
            assert result.neighbors[0].oid == 31
        finally:
            store.close()
