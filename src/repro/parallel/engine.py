"""Parallel nearest-neighbor query engine over a declustered store.

Reproduces the paper's measurement model: a kNN query is executed against
the per-disk X-trees, every page access is attributed to its disk, and the
query's elapsed time is the service time of the **busiest** disk ("we
determined the disk which accesses most pages during query processing [and]
used the search time of this disk as the search time of the whole parallel
X-tree").

Two execution modes:

* ``"coordinated"`` (default) — one global best-first search (HS 95) over
  the forest of per-disk trees with a shared pruning bound: every disk reads
  exactly the pages whose MBR intersects the global kNN sphere.  This
  models the paper's parallel X-tree, where the coordinating workstation
  tightens the candidate bound across all disks as results stream in.
* ``"independent"`` — every disk answers the kNN query on its local tree
  with only local pruning, and the coordinator merges the per-disk
  candidate lists.  One round-trip, but more pages read; kept as an
  ablation of the coordination benefit.

:class:`SequentialEngine` provides the single-disk baseline used for
speed-up numbers.

Both engines accept a ``cache`` (page count, :class:`CacheConfig`, or a
prebuilt :class:`BufferPool`): hot pages are then served from the pool —
which persists across queries — and only misses are charged to the disks.
With no cache (or capacity 0) the cold page counts of the paper's
measurement are reproduced exactly.

Both engines are instrumented for :mod:`repro.obs`: pass a
``tracer`` (or wrap the run in :func:`repro.obs.observe`) to receive
``query_start`` / ``node_visit`` / ``page_read`` / ``cache_hit`` /
``cache_miss`` / ``prune`` / ``query_end`` events whose per-disk
``page_read`` totals equal the returned ``pages_per_disk`` counters
bit-for-bit.  The default :data:`~repro.obs.tracer.NULL_TRACER` emits
nothing and leaves every counter untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Type, Union

import numpy as np

from repro.index import kernels
from repro.index.knn import Neighbor, SearchStats, _CandidateSet, best_first
from repro.index.node import DEFAULT_PAGE_BYTES, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.index.bulk import bulk_load
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.cache import (
    BufferPool,
    CacheConfig,
    CacheStats,
    as_buffer_pool,
    merge_cache_stats,
)
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.store import DeclusteredStore

__all__ = [
    "BatchQueryResult",
    "ParallelQueryResult",
    "ParallelEngine",
    "SequentialQueryResult",
    "SequentialEngine",
]

#: What the engines accept as their ``cache`` argument.
CacheSpec = Union[None, int, CacheConfig, BufferPool]


@dataclass
class ParallelQueryResult:
    """Outcome of one parallel kNN query.

    ``pages_per_disk`` counts disk reads — with a buffer pool attached,
    cache hits are excluded and ``cache_stats`` carries the per-query
    hit/miss counters (None when the engine has no cache).
    """

    neighbors: List[Neighbor]
    pages_per_disk: np.ndarray
    parallel_time_ms: float
    distance_computations: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest disk (the paper's cost metric)."""
        return int(self.pages_per_disk.max())

    @property
    def total_pages(self) -> int:
        """Pages read across all disks."""
        return int(self.pages_per_disk.sum())


@dataclass
class SequentialQueryResult:
    """Outcome of one single-disk kNN query.

    Exposes the same ``pages_per_disk`` / ``max_pages`` / ``total_pages``
    surface as :class:`ParallelQueryResult` (a single-disk engine is a
    one-element disk array), so batch aggregation and reporting code can
    treat every engine uniformly.
    """

    neighbors: List[Neighbor]
    stats: SearchStats
    time_ms: float
    pages: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def pages_per_disk(self) -> np.ndarray:
        """The single disk's page count as a one-element array."""
        return np.array([self.pages], dtype=np.int64)

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest (only) disk."""
        return self.pages

    @property
    def total_pages(self) -> int:
        """Pages read in total."""
        return self.pages


class BatchQueryResult:
    """Aggregated outcome of one ``query_batch`` call.

    Behaves as a sequence of the per-query results (``len``, iteration,
    indexing — existing per-query consumers keep working) while exposing
    batch-level aggregates uniformly across :class:`ParallelEngine`,
    :class:`SequentialEngine`, and
    :class:`~repro.parallel.paged.PagedEngine`:

    * ``pages_per_disk`` — per-disk reads summed over the batch;
    * ``max_pages`` — the busiest disk's total over the whole batch (the
      batch's parallel cost under the paper's accounting);
    * ``total_pages`` — reads across all disks and queries;
    * ``cache_stats`` — the merged per-query deltas (``None`` when the
      engine has no buffer pool).
    """

    def __init__(self, results: Sequence, num_disks: int):
        self.results = list(results)
        pages = np.zeros(num_disks, dtype=np.int64)
        for result in self.results:
            pages += result.pages_per_disk
        self.pages_per_disk = pages
        self.cache_stats = merge_cache_stats(
            result.cache_stats for result in self.results
        )

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest disk over the whole batch."""
        return int(self.pages_per_disk.max()) if self.pages_per_disk.size \
            else 0

    @property
    def total_pages(self) -> int:
        """Pages read across all disks and queries."""
        return int(self.pages_per_disk.sum())

    @property
    def neighbors(self) -> List[List[Neighbor]]:
        """Per-query neighbor lists, in input order."""
        return [result.neighbors for result in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchQueryResult(queries={len(self.results)}, "
            f"total_pages={self.total_pages}, max_pages={self.max_pages})"
        )


def run_query_batch(
    query_one: Callable, queries: np.ndarray, num_disks: int, *args
) -> BatchQueryResult:
    """The engines' shared ``query_batch`` body.

    Converts the query matrix to float64 once up front (each query is
    then a zero-copy row view) and runs ``query_one(query, *args)`` per
    row, in order: a buffer pool stays warm across the batch, so later
    queries hit the pages earlier ones pulled in, and the per-query
    results are identical to issuing the calls one by one.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.size == 0:
        return BatchQueryResult([], num_disks)
    return BatchQueryResult(
        [query_one(query, *args) for query in np.atleast_2d(queries)],
        num_disks,
    )


def page_visitor(
    disks: DiskArray,
    cache: Optional[BufferPool],
    tracer: Tracer,
    span: int,
    count_directory: bool,
    disk_of: Optional[Callable[[Node], int]] = None,
) -> Callable[[int, Node], None]:
    """The :func:`~repro.index.knn.best_first` ``visit`` hook of the
    in-process engines: page charging, buffer pool and tracing.

    Per visited node: ``node_visit``, then — for a data page, or any
    node under ``count_directory`` — a pool lookup (``cache_hit`` ends
    it, ``cache_miss`` continues), the disk charge of ``node.blocks``
    pages, and ``page_read``.  ``disk_of`` maps a data page to its disk
    when the queue's disk tag does not (the shared directory of
    :class:`~repro.parallel.paged.PagedEngine` is tagged ``-1``).
    """

    def visit(disk: int, node: Node) -> None:
        if disk_of is not None and node.is_leaf:
            disk = disk_of(node)
        if tracer.enabled:
            tracer.node_visit(span, disk, leaf=node.is_leaf)
        if not (node.is_leaf or count_directory):
            return
        pages = node.blocks
        if cache is not None:
            if cache.access(disk, id(node), pages):
                if tracer.enabled:
                    tracer.cache_hit(span, disk, pages)
                return
            if tracer.enabled:
                tracer.cache_miss(span, disk, pages)
        disks.charge(disk, pages)
        if tracer.enabled:
            tracer.page_read(span, disk, pages)

    return visit


def pruner(tracer: Tracer, span: int) -> Optional[Callable[[int, int], None]]:
    """The ``prune`` hook tracing pruned subtrees (None when untraced)."""
    if not tracer.enabled:
        return None

    def prune(disk: int, count: int) -> None:
        if tracer.enabled:
            tracer.prune(span, disk, count=count)

    return prune


class InProcessEngine:
    """What the in-process engines share: a buffer pool (``cache``), a
    tracer, and the per-disk result of a finished search."""

    cache: Optional[BufferPool]
    tracer: Optional[Tracer]

    def reset_cache(self) -> None:
        """Drop every cached page (next query runs cold)."""
        if self.cache is not None:
            self.cache.reset()

    def _active_tracer(self) -> Tracer:
        """This engine's tracer, else the ambient one, else the null
        tracer."""
        return self.tracer if self.tracer is not None else current_tracer()

    def _result(
        self,
        tracer: Tracer,
        span: int,
        disks: DiskArray,
        stats: SearchStats,
        candidates: _CandidateSet,
        cache_before: Optional[CacheStats],
    ) -> ParallelQueryResult:
        """Close the query span and package the per-disk result."""
        if tracer.enabled:
            tracer.end_query(
                span, time_ms=disks.parallel_time_ms,
                distance_computations=stats.distance_computations,
            )
        return ParallelQueryResult(
            neighbors=candidates.neighbors(),
            pages_per_disk=disks.pages_per_disk,
            parallel_time_ms=disks.parallel_time_ms,
            distance_computations=stats.distance_computations,
            cache_stats=(
                self.cache.delta_since(cache_before) if self.cache else None
            ),
        )


class ParallelEngine(InProcessEngine):
    """kNN execution over a :class:`DeclusteredStore`.

    ``count_directory=False`` (default) charges only data (leaf) pages to
    the disks, modeling the paper's setting where each workstation caches
    the small directory in main memory; set it to True to charge every
    node access.

    ``cache`` attaches a buffer pool (see :mod:`repro.parallel.cache`)
    that persists across queries on this engine; use
    :meth:`reset_cache` to cold-start it.

    ``tracer`` attaches an observability tracer (see :mod:`repro.obs`);
    when omitted, the ambient :func:`repro.obs.observe` tracer — if any —
    is used, and otherwise the zero-overhead null tracer.

    ``use_kernels`` selects the vectorized traversal kernels
    (:mod:`repro.index.kernels`); the default ``None`` defers to the
    ``REPRO_SCALAR_KERNELS`` environment variable at query time.  Both
    paths produce bit-identical results and counters.
    """

    def __init__(
        self,
        store: DeclusteredStore,
        parameters: Optional[DiskParameters] = None,
        count_directory: bool = False,
        cache: CacheSpec = None,
        tracer: Optional[Tracer] = None,
        use_kernels: Optional[bool] = None,
    ):
        self.store = store
        self.parameters = parameters or DiskParameters(
            page_bytes=store.page_bytes
        )
        self.count_directory = count_directory
        self.cache = as_buffer_pool(
            cache, store.num_disks, store.page_bytes
        )
        self.tracer = tracer
        self.use_kernels = use_kernels

    def query(
        self, query: Sequence[float], k: int = 1, mode: str = "coordinated"
    ) -> ParallelQueryResult:
        """Run one kNN query in the given execution mode.

        ``"coordinated"`` is one :func:`~repro.index.knn.best_first`
        search over every ``(disk, root)``; ``"independent"`` is one
        search per disk, merged on the exact squared keys.  Under an
        enabled tracer this emits a full query span (``query_start`` ...
        ``query_end``) with per-disk ``page_read`` events matching the
        returned ``pages_per_disk`` exactly.
        """
        if mode not in ("coordinated", "independent"):
            raise ValueError(
                f"mode must be 'coordinated' or 'independent', got {mode!r}"
            )
        query = np.asarray(query, dtype=float)
        vectorized = kernels.kernels_enabled(self.use_kernels)
        disks = DiskArray(self.store.num_disks, self.parameters)
        cache_before = self.cache.stats() if self.cache else None
        tracer = self._active_tracer()
        span = -1
        if tracer.enabled:
            span = tracer.begin_query(
                "parallel", k=k, num_disks=self.store.num_disks, mode=mode,
                service_ms=self.parameters.page_service_time_ms,
            )
        visit = page_visitor(
            disks, self.cache, tracer, span, self.count_directory
        )
        roots = [
            (disk, tree.root)
            for disk, tree in enumerate(self.store.trees)
            if tree.size
        ]
        candidates = _CandidateSet(k)
        stats = SearchStats()
        if mode == "coordinated":
            best_first(
                roots, query, candidates, stats, vectorized=vectorized,
                visit=visit, prune=pruner(tracer, span),
            )
        else:
            for root in roots:
                local = _CandidateSet(k)
                best_first(
                    [root], query, local, stats, vectorized=vectorized,
                    visit=visit,
                )
                for key, oid, point in local.items():
                    candidates.offer(key, oid, point)
        return self._result(
            tracer, span, disks, stats, candidates, cache_before
        )

    def query_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        mode: str = "coordinated",
    ) -> BatchQueryResult:
        """Run a batch of kNN queries sharing this engine's buffer pool
        (see :func:`run_query_batch`)."""
        return run_query_batch(
            self.query, queries, self.store.num_disks, k, mode
        )


class SequentialEngine(InProcessEngine):
    """Single-disk baseline: one index over the whole data set.

    Charges data (leaf) pages only, matching :class:`ParallelEngine`'s
    default accounting, unless ``count_directory=True``.
    """

    def __init__(
        self,
        points: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        tree_cls: Type[RStarTree] = XTree,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        parameters: Optional[DiskParameters] = None,
        tree: Optional[RStarTree] = None,
        count_directory: bool = False,
        cache: CacheSpec = None,
        tracer: Optional[Tracer] = None,
        use_kernels: Optional[bool] = None,
    ):
        self.parameters = parameters or DiskParameters(page_bytes=page_bytes)
        self.count_directory = count_directory
        if tree is not None:
            self.tree = tree
        else:
            self.tree = bulk_load(
                points, oids=oids, tree_cls=tree_cls, page_bytes=page_bytes
            )
        self.cache = as_buffer_pool(cache, 1, page_bytes)
        self.tracer = tracer
        self.use_kernels = use_kernels

    def query(self, query: Sequence[float], k: int = 1) -> SequentialQueryResult:
        """Run one kNN query against the single-disk index.

        Under an enabled tracer this emits a ``query_start`` ...
        ``query_end`` span whose ``page_read`` events (all on disk 0)
        total exactly ``result.pages``; cache lookups additionally emit
        ``cache_hit``/``cache_miss``.
        """
        tracer = self._active_tracer()
        span = -1
        if tracer.enabled:
            span = tracer.begin_query(
                "sequential", k=k, num_disks=1,
                service_ms=self.parameters.page_service_time_ms,
            )
        disks = DiskArray(1, self.parameters)
        cache_before = self.cache.stats() if self.cache else None
        candidates = _CandidateSet(k)
        stats = SearchStats()
        best_first(
            [(0, self.tree.root)] if self.tree.size else [],
            np.asarray(query, dtype=float),
            candidates,
            stats,
            vectorized=kernels.kernels_enabled(self.use_kernels),
            visit=page_visitor(
                disks, self.cache, tracer, span, self.count_directory
            ),
        )
        pages = disks.total_pages
        time_ms = pages * self.parameters.page_service_time_ms
        if tracer.enabled:
            tracer.end_query(
                span, time_ms=time_ms,
                distance_computations=stats.distance_computations,
            )
        return SequentialQueryResult(
            candidates.neighbors(), stats, time_ms, pages,
            self.cache.delta_since(cache_before) if self.cache else None,
        )

    def query_batch(
        self, queries: np.ndarray, k: int = 1
    ) -> BatchQueryResult:
        """Run a batch of kNN queries sharing this engine's buffer pool
        (see :func:`run_query_batch`)."""
        return run_query_batch(self.query, queries, 1, k)
