"""Golden traces of the best-first kNN engines, and kernel-mode parity.

Every in-process engine (``ParallelEngine`` in both execution modes,
``SequentialEngine``, ``PagedEngine`` over an in-memory ``PagedStore``
and over an out-of-core ``MmapStore``), with and without a buffer pool
and with directory charging on and off, runs a small seeded workload
under a :class:`~repro.obs.RecordingTracer`.  Two contracts are pinned:

* the traced event stream (kind, disk, pages, ``t_ms``, extras, in
  order) and the query results are identical between the vectorized
  kernels and the scalar path (``docs/performance.md``);
* both are byte-for-byte equal to ``tests/golden/best_first.jsonl`` —
  which fixes per-child ``prune`` order, tiebreak consumption, cache
  hits and page charging exactly.

Regenerate the golden file (only when a behaviour change is intended)
with::

    PYTHONPATH=src python tests/test_best_first_traces.py
"""

import json
import pathlib
import tempfile
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.obs import RecordingTracer
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore
from repro.registry import make_declusterer
from repro.storage import MmapStore, save_mmap_store

GOLDEN = pathlib.Path(__file__).parent / "golden" / "best_first.jsonl"

DIMENSION = 4
DISKS = 3
PAGE_BYTES = 512
CACHE_PAGES = 4
KS = (1, 5)

#: ``factory(points, use_kernels, tracer, mmap_dir) -> (engine, run)``.
Factory = Callable[..., Tuple[object, Callable]]


def workload() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12)
    return rng.random((300, DIMENSION)), rng.random((2, DIMENSION))


def _declusterer():
    return make_declusterer("col", DIMENSION, DISKS)


def _parallel(mode: str, count_directory: bool, cache) -> Factory:
    def build(points, use_kernels, tracer, mmap_dir):
        store = DeclusteredStore(
            points, _declusterer(), page_bytes=PAGE_BYTES
        )
        engine = ParallelEngine(
            store, count_directory=count_directory, cache=cache,
            tracer=tracer, use_kernels=use_kernels,
        )
        return engine, lambda query, k: engine.query(query, k, mode)

    return build


def _sequential(count_directory: bool, cache) -> Factory:
    def build(points, use_kernels, tracer, mmap_dir):
        engine = SequentialEngine(
            points, page_bytes=PAGE_BYTES, count_directory=count_directory,
            cache=cache, tracer=tracer, use_kernels=use_kernels,
        )
        return engine, engine.query

    return build


def _paged(mmap: bool, cache) -> Factory:
    def build(points, use_kernels, tracer, mmap_dir):
        store = PagedStore(points, _declusterer(), page_bytes=PAGE_BYTES)
        if mmap:
            save_mmap_store(store, mmap_dir)
            store = MmapStore(mmap_dir, simulated_disk_ms=0.0)
        engine = PagedEngine(
            store, cache=cache, tracer=tracer, use_kernels=use_kernels
        )
        return engine, engine.query

    return build


def _matrix() -> Dict[str, Factory]:
    configs: Dict[str, Factory] = {}
    for cache in (None, CACHE_PAGES):
        pool = f"pool{cache or 0}"
        for mode in ("coordinated", "independent"):
            for directory in (False, True):
                configs[f"parallel-{mode}-dir{int(directory)}-{pool}"] = (
                    _parallel(mode, directory, cache)
                )
        for directory in (False, True):
            configs[f"sequential-dir{int(directory)}-{pool}"] = (
                _sequential(directory, cache)
            )
        for mmap in (False, True):
            store = "mmap" if mmap else "memory"
            configs[f"paged-{store}-{pool}"] = _paged(mmap, cache)
    return configs


CONFIGS = _matrix()


def _result_record(result) -> Dict[str, object]:
    record: Dict[str, object] = {
        "neighbors": [
            [neighbor.oid, neighbor.distance]
            for neighbor in result.neighbors
        ],
        "pages_per_disk": [int(p) for p in result.pages_per_disk],
    }
    if hasattr(result, "parallel_time_ms"):
        record["time_ms"] = result.parallel_time_ms
        record["distance_computations"] = result.distance_computations
    else:
        stats = result.stats
        record["time_ms"] = result.time_ms
        record["stats"] = [
            stats.node_accesses, stats.leaf_accesses,
            stats.page_accesses, stats.distance_computations,
        ]
    cache = result.cache_stats
    record["cache"] = None if cache is None else [
        cache.hits, cache.misses, cache.evictions,
        [int(h) for h in cache.hits_per_disk],
        [int(m) for m in cache.misses_per_disk],
    ]
    return record


def run_config(name: str, use_kernels: bool, tmp_dir) -> List[str]:
    """JSONL lines of one configuration: its results, then its events."""
    points, queries = workload()
    tracer = RecordingTracer()
    engine, run = CONFIGS[name](
        points, use_kernels, tracer, pathlib.Path(tmp_dir) / "store"
    )
    lines = []
    try:
        for k in KS:
            for index, query in enumerate(queries):
                record = {"config": name, "kind": "result",
                          "query": index, "k": k}
                record.update(_result_record(run(query, k)))
                lines.append(json.dumps(record))
    finally:
        close = getattr(getattr(engine, "store", None), "close", None)
        if close is not None:
            close()
    for event in tracer.events:
        lines.append(json.dumps({"config": name, **event.to_dict()}))
    return lines


def _golden_by_config() -> Dict[str, List[str]]:
    sections: Dict[str, List[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        sections.setdefault(json.loads(line)["config"], []).append(line)
    return sections


@pytest.fixture(scope="module")
def golden() -> Dict[str, List[str]]:
    return _golden_by_config()


def test_golden_covers_the_matrix(golden):
    assert list(golden) == list(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_kernel_modes_trace_identically(name, tmp_path):
    vectorized = run_config(name, True, tmp_path / "vec")
    scalar = run_config(name, False, tmp_path / "scalar")
    assert vectorized == scalar


@pytest.mark.parametrize("use_kernels", (True, False))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_golden(name, use_kernels, golden, tmp_path):
    assert run_config(name, use_kernels, tmp_path) == golden[name]


def _regenerate(tmp_dir: pathlib.Path) -> None:
    lines: List[str] = []
    for index, name in enumerate(CONFIGS):
        vectorized = run_config(name, True, tmp_dir / f"{index}v")
        scalar = run_config(name, False, tmp_dir / f"{index}s")
        if vectorized != scalar:
            raise SystemExit(f"{name}: kernel modes disagree")
        lines.extend(vectorized)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        _regenerate(pathlib.Path(scratch))
