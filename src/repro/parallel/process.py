"""True process parallelism: one worker process per simulated disk.

The in-process engines *count* what a disk farm would do; this engine
actually does it.  Each disk of an out-of-core
:class:`~repro.storage.mmap_store.MmapStore` gets a dedicated worker
process that maps only its own page file, searches the shared RAM
directory, reads and scores only its own disk's data pages, and
cooperates with its siblings through a **shared monotonically
tightening kNN pruning bound** (a ``multiprocessing`` top-k distance
array): every candidate distance a worker finds tightens the bound all
workers prune with.

Determinism contract (see ``docs/performance.md``): the returned
neighbors and per-disk page counts are **bit-for-bit identical** to
:class:`~repro.parallel.paged.PagedEngine` over the same store —
enforced by a sanitizer replay cell — while wall-clock time and the
amount of *speculative* I/O naturally vary run to run.  This works
because of a property of HS 95 best-first search: the set of data pages
a single-process traversal reads is exactly the pages whose ``mindist``
does not exceed the final k-th candidate distance ``B*`` — independent
of visit interleaving.  So the coordinator

1. lets workers race (any stale — i.e. too large — view of the shared
   bound only causes extra speculative reads, never a missed
   candidate, because the shared bound never drops below ``B*``),
2. merges the workers' candidate sets into the exact global top-k
   (squared keys, no sqrt round trip), and
3. derives the charged page set *post hoc* by filtering the directory
   against ``B*`` — the identical arithmetic the single-process engine
   applies incrementally.

So a worker needs no HS 95 visit order: the charged pages never come
from its reads, and it only has to return the exact top-k of its own
disk among the points within the bound.  Any search that never skips
a page whose ``mindist`` is within a bound that stays >= ``B*`` does
that.  The vectorized worker therefore runs a chunked sweep
(:func:`_sweep_query`) over the directory's leaf-parent groups
(:class:`_LeafGroups`, built once per worker): a few NumPy calls and
one simulated disk wait per chunk of pages, instead of a heap pop, a
kernel call and a disk wait per page.  The scalar path
(``use_kernels=False`` / ``REPRO_SCALAR_KERNELS``) keeps the
page-at-a-time :func:`~repro.index.knn.best_first` adapter
(:func:`_worker_query`) as the oracle.

The engine is cacheless by design: the OS page cache plays the buffer
pool's role for mmap'd pages, and simulated-pool semantics belong to
the in-process engines.  Boundary ties (two points at exactly distance
``B*``) are outside the contract, as everywhere else in the repo;
generic-position (e.g. random float) data never produces them.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
from multiprocessing.connection import wait as wait_ready
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.index import kernels
from repro.index.knn import SearchStats, _CandidateSet, best_first
from repro.index.metrics import Euclidean
from repro.index.node import Node
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.engine import BatchQueryResult, ParallelQueryResult

__all__ = ["ProcessParallelEngine"]

_EUCLIDEAN = Euclidean()

#: Seconds the coordinator waits for a worker reply before giving up.
_REPLY_TIMEOUT_S = 120.0

#: Queries in flight during a pipelined ``query_batch``: while the
#: coordinator reduces query ``j``, every worker is already faulting and
#: scoring pages for query ``j + 1``.  Each in-flight query owns a
#: *bank* — its own shared pruning-bound array and its own slice of the
#: shared result arena — so concurrent queries never contaminate each
#: other's bounds or results.
_PIPELINE_DEPTH = 2

_CandidateItems = List[Tuple[float, int, np.ndarray]]


def _arena_stride(dimension: int) -> int:
    """Arena floats per candidate row: key, oid (bit-cast), coords."""
    return 2 + dimension


def _arena_base(
    bank: int, disk: int, num_disks: int, max_k: int, stride: int
) -> int:
    """Start offset of one ``(bank, disk)`` result cell in the arena."""
    return (bank * num_disks + disk) * max_k * stride


def _pack_items(
    arena: np.ndarray,
    base: int,
    items: _CandidateItems,
    dimension: int,
) -> None:
    """Serialize a worker's top-k candidates into its arena cell.

    Keys and coordinates are float64 already; oids are int64 *bit-cast*
    into the float lane (``view``, not a value conversion), so the
    round trip is exact for every representable oid.
    """
    if not items:
        return
    stride = _arena_stride(dimension)
    block = np.empty((len(items), stride), dtype=np.float64)
    block[:, 0] = [item[0] for item in items]
    block[:, 1] = np.array(
        [item[1] for item in items], dtype=np.int64
    ).view(np.float64)
    block[:, 2:] = np.vstack([item[2] for item in items])
    arena[base : base + block.size] = block.ravel()


def _unpack_items(
    arena: np.ndarray, base: int, count: int, dimension: int
) -> _CandidateItems:
    """Read one arena cell back into ``(key, oid, point)`` candidates."""
    if not count:
        return []
    stride = _arena_stride(dimension)
    block = arena[base : base + count * stride].reshape(count, stride)
    keys = block[:, 0]
    oids = np.ascontiguousarray(block[:, 1]).view(np.int64)
    return [
        (float(keys[row]), int(oids[row]), block[row, 2:].copy())
        for row in range(count)
    ]


def _merge_shared(view: np.ndarray, k: int, keys: np.ndarray) -> None:
    """Fold candidate keys into the shared top-k array (lock held).

    ``keys`` need not be sorted.  Each real candidate distance enters
    the shared array at most once per query (a worker scores every page
    exactly once), so the k-th shared value is always >= the true
    global k-th distance ``B*`` — the monotone-safety invariant the
    pruning relies on.
    """
    merged = np.sort(np.concatenate((view[:k], keys)))[:k]
    view[:k] = merged


def _publish(
    view: np.ndarray, lock: Any, k: int, keys: np.ndarray, shared: float
) -> float:
    """Fold scored keys into the shared top-k; returns the new bound.

    Keys that cannot tighten the bound are skipped without the lock;
    otherwise only their ``k`` smallest (``np.partition``) are merged.
    """
    if keys.min() >= shared:
        return shared
    if len(keys) > k:
        keys = np.partition(keys, k - 1)[:k]
    with lock:
        _merge_shared(view, k, keys)
        return float(view[k - 1])


def _top_k(
    keys: np.ndarray, oids: np.ndarray, points: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``k`` smallest rows by ``(key, oid)``, in that order.

    ``np.partition`` finds the k-th key; every row within it survives
    (ties included), so the ``np.lexsort`` over the survivors is exact.
    """
    if len(keys) > k:
        kth = np.partition(keys, k - 1)[k - 1]
        keep = np.nonzero(keys <= kth)[0]
        keys, oids, points = keys[keep], oids[keep], points[keep]
    order = np.lexsort((oids, keys))[:k]
    return keys[order], oids[order], points[order]


def _mbr_bounds(
    nodes: List[Node], dimension: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lows, highs)`` of the nodes' MBRs as ``(N, d)`` arrays."""
    if not nodes:
        return np.zeros((0, dimension)), np.zeros((0, dimension))
    return (
        np.vstack([node.mbr.low for node in nodes]),
        np.vstack([node.mbr.high for node in nodes]),
    )


class _LeafGroups:
    """The RAM directory as leaf-parent groups, flattened once.

    A *group* is a directory node with data-page children; a leaf root
    is its own group.  ``low``/``high`` are the group MBRs as ``(G, d)``
    arrays, and ``offsets`` is a CSR index: group ``g`` owns the leaf
    rows ``offsets[g]:offsets[g + 1]`` of ``leaf_low``/``leaf_high``
    (leaf MBRs), ``leaves`` (the nodes), ``disks``, ``blocks`` and
    ``entries`` (from the store's slot table — no payload is touched).
    With ``disk`` given only that disk's leaves are kept, and groups
    left without leaves are dropped.  An empty tree is an empty table.

    A group's MBR is the min/max union of its children's, so per row
    its ``mindist_many`` key is <= each child's: the gaps are exact
    differences of ordered bounds, and squaring and the fixed-order
    row sum are monotone.  Filtering groups first and then only their
    leaves therefore keeps exactly the leaves a flat pass over every
    leaf would keep.
    """

    __slots__ = (
        "low", "high", "offsets", "leaf_low", "leaf_high", "leaves",
        "disks", "blocks", "entries",
    )

    def __init__(self, store: Any, disk: Optional[int] = None):
        tree = store.tree
        groups: List[Node] = []
        leaves: List[Node] = []
        offsets = [0]
        stack: List[Node] = [tree.root] if tree.size else []
        while stack:
            node = stack.pop()
            children = [node] if node.is_leaf else node.entries
            own = [
                child for child in children
                if child.is_leaf
                and (disk is None or store.disk_of(child) == disk)
            ]
            stack.extend(child for child in children if not child.is_leaf)
            if own:
                groups.append(node)
                leaves.extend(own)
                offsets.append(len(leaves))
        self.low, self.high = _mbr_bounds(groups, tree.dimension)
        self.leaf_low, self.leaf_high = _mbr_bounds(leaves, tree.dimension)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.leaves = leaves
        self.disks = np.asarray(
            [store.disk_of(leaf) for leaf in leaves], dtype=np.int64
        )
        self.blocks = np.asarray(
            [leaf.blocks for leaf in leaves], dtype=np.int64
        )
        self.entries = np.asarray(
            [store.entry_count(leaf) for leaf in leaves], dtype=np.int64
        )

    def rows(self, groups: np.ndarray) -> np.ndarray:
        """Leaf rows of ``groups``, group by group (a CSR gather)."""
        starts = self.offsets[groups]
        counts = self.offsets[groups + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        return np.arange(total) + np.repeat(starts - ends + counts, counts)

    def passing(self, query: np.ndarray, bound: float) -> np.ndarray:
        """Rows of every leaf with ``mindist <= bound`` (ties included),
        found through the groups that pass the same test."""
        group_keys = _EUCLIDEAN.mindist_many(self.low, self.high, query)
        rows = self.rows(np.nonzero(group_keys <= bound)[0])
        keys = _EUCLIDEAN.mindist_many(
            self.leaf_low[rows], self.leaf_high[rows], query
        )
        return rows[keys <= bound]


class _BatchPageMemo:
    """Batch-scoped read-through page memo over a worker's store.

    Within one ``query_batch`` a worker streams its queries
    sequentially, and consecutive kNN spheres overlap heavily, so a
    page faulted for query ``j`` is very likely visited again by query
    ``j + 1``.  The memo serves those repeat visits from the payloads
    already materialized — no mmap re-slice, no repeated simulated disk
    service time — which the per-call path structurally cannot do (its
    unit of work is a single query).  This intra-batch reuse is a large
    part of the batch fast path's throughput edge.

    Correctness is untouched: repeat visits return the exact arrays the
    first read produced, and the *charged* per-disk page counts are
    derived post hoc by the coordinator from the RAM directory, never
    from what workers physically read.  Entries are capped (read-through
    without insertion once full — no eviction bookkeeping) to bound the
    worker's memory; the memo dies with the batch.
    """

    __slots__ = ("_store", "_pages", "tree", "disk_of")

    #: Max memoized pages per worker per batch (~64 MB at 4 KB pages —
    #: covers a 1M-point disk's full batch working set; beyond the cap
    #: the memo degrades to read-through, never evicts).
    _CAP = 16384

    def __init__(self, store: Any):
        self._store = store
        self._pages: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.tree = store.tree
        self.disk_of = store.disk_of

    def read_page(self, node: Node) -> Tuple[np.ndarray, np.ndarray]:
        return self.read_pages([node])[0]

    def read_pages(
        self, nodes: Sequence[Node]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Payloads of ``nodes``; the misses go to the store in **one**
        ``read_pages`` call (one simulated disk wait)."""
        pages = self._pages
        misses = [node for node in nodes if id(node) not in pages]
        fetched = dict(
            zip(map(id, misses), self._store.read_pages(misses))
        )
        for key, payload in fetched.items():
            if len(pages) >= self._CAP:
                break
            pages[key] = payload
        return [
            fetched[id(node)] if id(node) in fetched else pages[id(node)]
            for node in nodes
        ]


def _worker_query(
    store: Any,
    disk: int,
    query: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_CandidateItems, int]:
    """One kNN query on one disk's worker, scalar oracle: own-disk pages
    only.

    A scalar :func:`~repro.index.knn.best_first` search that admits only
    this disk's data pages (a single-page tree's leaf root included),
    prunes with the shared bound as well as its own, and publishes every
    scored page's k smallest keys to the shared top-k array.  Returns
    the worker's local top-k candidates (squared keys) and the number of
    pages it actually faulted in (its speculative read count).
    """
    tree = store.tree
    candidates = _CandidateSet(k)
    faults = 0

    def read_page(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        nonlocal faults
        faults += node.blocks
        return store.read_page(node)

    def shared_bound() -> float:
        with lock:
            return float(view[k - 1])

    def publish(keys: np.ndarray, shared: float) -> float:
        return _publish(view, lock, k, keys, shared)

    best_first(
        [(disk, tree.root)] if tree.size else [],
        query,
        candidates,
        SearchStats(),
        vectorized=False,
        read_page=read_page,
        admit=lambda node: not node.is_leaf or store.disk_of(node) == disk,
        shared_bound=shared_bound,
        publish=publish,
    )
    return candidates.items(), faults


def _sweep_query(
    source: Any,
    groups: _LeafGroups,
    query: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_CandidateItems, int]:
    """One kNN query on one disk's worker: the chunked leaf-group sweep.

    The vectorized twin of :func:`_worker_query` over the disk's own
    :class:`_LeafGroups`.  All group mindists come from one call; the
    groups are expanded in increasing mindist order, in chunks of 1, 2,
    4, ... groups, while their mindist is within ``min(local k-th key,
    shared bound)``.  The chunk's own leaves that pass the same bound
    are fetched with one ``read_pages`` call (one simulated disk wait),
    scored with one ``point_keys`` over the concatenated payloads —
    bit-identical per row to scoring page by page — published to the
    shared bound, and folded into the local top-k by ``(key, oid)``.
    Each leaf is read at most once.  Returns the local top-k (squared
    keys) and the page blocks read, like :func:`_worker_query`.
    """
    top_keys = np.empty(0)
    top_oids = np.empty(0, dtype=np.int64)
    top_points = np.empty((0, groups.leaf_low.shape[1]))
    faults = 0
    group_keys = _EUCLIDEAN.mindist_many(groups.low, groups.high, query)
    order = np.argsort(group_keys, kind="stable")
    group_keys = group_keys[order]
    start, step = 0, 1
    while start < len(order):
        with lock:
            shared = float(view[k - 1])
        local = float(top_keys[k - 1]) if len(top_keys) == k else np.inf
        bound = min(local, shared)
        stop = start + int(
            np.searchsorted(
                group_keys[start : start + step], bound, side="right"
            )
        )
        if stop == start:
            break
        rows = groups.rows(order[start:stop])
        start, step = stop, step * 2
        leaf_keys = _EUCLIDEAN.mindist_many(
            groups.leaf_low[rows], groups.leaf_high[rows], query
        )
        passed = np.nonzero(leaf_keys <= bound)[0]
        rows = rows[passed[np.argsort(leaf_keys[passed], kind="stable")]]
        if not len(rows):
            continue
        faults += int(groups.blocks[rows].sum())
        payloads = source.read_pages([groups.leaves[row] for row in rows])
        oids = np.concatenate([page_oids for _, page_oids in payloads])
        if not len(oids):
            continue
        points = np.concatenate([page_points for page_points, _ in payloads])
        keys = _EUCLIDEAN.point_keys(points, query)
        _publish(view, lock, k, keys, shared)
        top_keys, top_oids, top_points = _top_k(
            np.concatenate((top_keys, keys)),
            np.concatenate((top_oids, oids)),
            np.concatenate((top_points, points)),
            k,
        )
    items = [
        (float(key), int(oid), point)
        for key, oid, point in zip(top_keys, top_oids, top_points)
    ]
    return items, faults


def _disk_search(
    source: Any,
    groups: _LeafGroups,
    disk: int,
    query: np.ndarray,
    k: int,
    vectorized: bool,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_CandidateItems, int]:
    """The grouped sweep, or the scalar ``best_first`` oracle."""
    if vectorized:
        return _sweep_query(source, groups, query, k, view, lock)
    return _worker_query(source, disk, query, k, view, lock)


def _worker_main(
    directory: str,
    disk: int,
    max_k: int,
    depth: int,
    tasks: Any,
    replies: Any,
    shared: Any,
    locks: Any,
    arena: Any,
    gate: Any,
) -> None:
    """Worker process entry point (spawn-safe, module level).

    Opens its own :class:`MmapStore` handle over ``directory`` — each
    worker maps only its own disk's page file on first read — builds
    its disk's :class:`_LeafGroups` once, then serves tasks until it
    receives ``None`` (``vectorized`` picks the grouped sweep or the
    scalar oracle, :func:`_disk_search`):

    ``("one", query_id, query, k, vectorized)``
        One query against pruning-bound bank 0; candidates travel back
        through the reply queue (pickled) as before.

    ``("batch", queries, k, vectorized)``
        The pipelined fast path: the whole batch arrives in a single
        message, and the worker streams through it in order.  Query
        ``j`` uses bank ``j % depth``; ``gate`` (this worker's own
        semaphore, ``depth`` permits, one released per query the
        coordinator consumes) stops the worker from running more than
        ``depth`` queries ahead — so the bank it is about to reuse has
        always been fully read and re-armed.  The worker writes its
        top-k into its shared-arena cell and replies with only
        ``(j, disk, count, faults)`` — no payload pickling on the hot
        path.  Page payloads are served through a batch-scoped
        :class:`_BatchPageMemo`, so a page visited by several of the
        batch's queries is materialized (and pays any simulated disk
        service time) once.
    """
    from repro.storage.mmap_store import MmapStore

    bounds = np.frombuffer(shared, dtype=np.float64)
    arena_view = np.frombuffer(arena, dtype=np.float64)
    store = MmapStore(directory)
    try:
        groups = _LeafGroups(store, disk)
        num_disks = store.num_disks
        dimension = store.tree.dimension
        stride = _arena_stride(dimension)
        while True:
            task = tasks.get()
            if task is None:
                break
            if task[0] == "one":
                _, query_id, query, k, vectorized = task
                lock = locks[0]
                with lock:
                    view = bounds[:max_k]
                items, faults = _disk_search(
                    store, groups, disk, query, k, vectorized, view, lock,
                )
                replies.put((query_id, disk, items, faults))
                continue
            _, queries, k, vectorized = task
            memo = _BatchPageMemo(store)
            for index in range(len(queries)):
                bank = index % depth
                gate.acquire()
                lock = locks[bank]
                with lock:
                    view = bounds[bank * max_k : (bank + 1) * max_k]
                items, faults = _disk_search(
                    memo, groups, disk, queries[index], k, vectorized,
                    view, lock,
                )
                with lock:
                    _pack_items(
                        arena_view,
                        _arena_base(bank, disk, num_disks, max_k, stride),
                        items,
                        dimension,
                    )
                replies.put((index, disk, len(items), faults))
    finally:
        store.close()


class ProcessParallelEngine:
    """Per-disk worker processes over an :class:`MmapStore`.

    Parameters
    ----------
    store:
        An out-of-core store (must expose ``directory`` and
        ``read_page`` — i.e. an
        :class:`~repro.storage.mmap_store.MmapStore`); workers reopen
        it from its directory path.
    parameters:
        Disk service-time model for the simulated ``parallel_time_ms``
        (page *counts* are exact; times are derived, as everywhere).
    cache:
        Must be ``None``: the OS page cache serves warm mmap reads, and
        simulated buffer-pool semantics belong to the in-process
        engines.
    max_k:
        Capacity of the shared bound array; queries may use any
        ``k <= max_k``.
    start_method:
        ``multiprocessing`` start method; the default ``"spawn"`` is
        safe everywhere (workers re-import, nothing is forked mid-state).

    Workers start lazily on the first query and persist across queries
    (and across a whole ``query_batch``) until :meth:`close`; the engine
    is a context manager.  Queries are answered one at a time, each
    fanned out to every disk in parallel — the paper's execution model.
    """

    def __init__(
        self,
        store: Any,
        parameters: Optional[DiskParameters] = None,
        cache: None = None,
        tracer: Optional[Tracer] = None,
        use_kernels: Optional[bool] = None,
        max_k: int = 64,
        start_method: str = "spawn",
    ):
        if getattr(store, "read_page", None) is None or not hasattr(
            store, "directory"
        ):
            raise TypeError(
                "ProcessParallelEngine requires an out-of-core store "
                "(repro.storage.MmapStore); build one with "
                "save_mmap_store or bulk_load_mmap"
            )
        if cache is not None:
            raise ValueError(
                "ProcessParallelEngine is cacheless: warm mmap reads are "
                "served by the OS page cache; use PagedEngine for "
                "simulated buffer-pool semantics"
            )
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.store = store
        self.parameters = parameters or DiskParameters(
            page_bytes=store.page_bytes
        )
        self.cache = None
        self.tracer = tracer
        self.use_kernels = use_kernels
        self.max_k = max_k
        self._start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: List[Any] = []
        self._tasks: List[Any] = []
        self._replies: Optional[Any] = None
        self._shared: Optional[Any] = None
        self._locks: List[Any] = []
        self._arena: Optional[Any] = None
        self._gates: List[Any] = []
        self._query_ids = itertools.count()
        self._groups: Optional[_LeafGroups] = None
        #: Pages speculatively faulted by the workers on the last query
        #: (diagnostic only — always >= the charged count, varies run
        #: to run; the charged counts do not).
        self.last_speculative_pages = 0

    # --------------------------------------------------------- lifecycle

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        ctx = self._ctx
        depth = _PIPELINE_DEPTH
        num_disks = self.store.num_disks
        stride = _arena_stride(self.store.tree.dimension)
        # One pruning-bound bank + one arena slice + one gate per
        # in-flight pipeline slot; bank 0 doubles as the single-query
        # path's bound array.
        self._shared = ctx.Array("d", depth * self.max_k, lock=False)
        self._locks = [ctx.Lock() for _ in range(depth)]
        self._arena = ctx.Array(
            "d", depth * num_disks * self.max_k * stride, lock=False
        )
        # One gate per worker, ``depth`` permits each: worker ``w`` may
        # start batch query ``j`` only after the coordinator consumed
        # query ``j - depth``, so arena cells and bound banks are never
        # reused while still live.
        self._gates = [ctx.Semaphore(depth) for _ in range(num_disks)]
        self._replies = ctx.Queue()
        self._tasks = []
        self._procs = []
        directory = os.fspath(self.store.directory)
        try:
            for disk in range(num_disks):
                tasks = ctx.Queue()
                self._tasks.append(tasks)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        directory, disk, self.max_k, depth, tasks,
                        self._replies, self._shared, self._locks,
                        self._arena, self._gates[disk],
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except (OSError, RuntimeError, ValueError):
            # A worker failed to spawn mid-start: tear down the workers
            # and queues that did start (close() handles partial state)
            # so nothing leaks into the caller's error path.
            self.close()
            raise

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        for tasks in self._tasks:
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - teardown
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        for tasks in self._tasks:
            tasks.close()
        if self._replies is not None:
            self._replies.close()
        self._procs = []
        self._tasks = []
        self._replies = None
        self._shared = None
        self._locks = []
        self._arena = None
        self._gates = []

    def __enter__(self) -> "ProcessParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            if self._procs:
                self.close()
        except (OSError, ValueError, RuntimeError, AttributeError):
            # Interpreter teardown: queues/processes may already be gone.
            pass

    # ----------------------------------------------------------- queries

    def _active_tracer(self) -> Tracer:
        """This engine's tracer, else the ambient one, else the null
        tracer."""
        return self.tracer if self.tracer is not None else current_tracer()

    def _leaf_groups(self) -> _LeafGroups:
        """All disks' :class:`_LeafGroups`, built at first use.  The
        mmap store's directory is immutable for the engine's lifetime,
        so one traversal replaces a Python node walk per query."""
        if self._groups is None:
            self._groups = _LeafGroups(self.store)
        return self._groups

    def _exact_counts(
        self, query: np.ndarray, bound: float
    ) -> Tuple[np.ndarray, int]:
        """Per-disk pages + distance computations of the charged set.

        Filters the RAM directory for data pages with
        ``mindist <= bound`` (ties included — the single-process engine
        reads them too, since its break condition is strictly greater).
        Entry counts come from the store's slot table, so no payload is
        touched.

        A leaf is charged iff its own mindist passes: every ancestor
        MBR contains the leaf's, so ancestor mindists are lower bounds
        and the tree walk's interior filter can never exclude a passing
        leaf.  So filtering the leaf-parent groups first and then only
        their leaves (:meth:`_LeafGroups.passing`) keeps exactly the
        walk's set — and ``mindist_many``'s row-wise ``add.reduce`` is
        bit-identical to the scalar ``MBR.mindist`` (see that
        docstring), so the charged set matches both kernel modes.
        """
        groups = self._leaf_groups()
        rows = groups.passing(query, bound)
        counts = np.bincount(
            groups.disks[rows],
            weights=groups.blocks[rows],
            minlength=self.store.num_disks,
        ).astype(np.int64)
        return counts, int(groups.entries[rows].sum())

    def _check_k(self, k: int) -> None:
        if k > self.max_k:
            raise ValueError(
                f"k={k} exceeds this engine's max_k={self.max_k}; "
                f"construct the engine with a larger max_k"
            )

    def _empty_result(self) -> ParallelQueryResult:
        return ParallelQueryResult(
            [],
            np.zeros(self.store.num_disks, dtype=np.int64),
            0.0,
            0,
            cache_stats=None,
        )

    def _collect_reply(self) -> Tuple[int, int, Any, int]:
        """One worker reply, or a clean teardown on a dead worker.

        Waits on the reply queue and every worker's sentinel at once,
        so a worker that exits (killed, crashed, failed at spawn) is
        reported as soon as it dies, not after the reply timeout.
        """
        assert self._replies is not None
        sentinels = {
            proc.sentinel: disk for disk, proc in enumerate(self._procs)
        }
        ready = wait_ready(
            [self._replies._reader, *sentinels], timeout=_REPLY_TIMEOUT_S
        )
        for handle in ready:
            if handle in sentinels:
                disk = sentinels[handle]
                proc = self._procs[disk]
                proc.join(timeout=1.0)
                self._abort(
                    f"disk worker {disk} died (exit code {proc.exitcode})"
                )
        try:
            reply = self._replies.get(timeout=_REPLY_TIMEOUT_S)
        except queue_module.Empty:
            self._abort(f"no disk worker replied within {_REPLY_TIMEOUT_S} s")
        reply_id, disk, payload, faults = reply
        return int(reply_id), int(disk), payload, int(faults)

    def _abort(self, reason: str) -> NoReturn:
        """Close the engine after a worker failure and raise.

        Surviving workers may be blocked mid-batch on their gates, so
        they are terminated instead of being asked to stop; the next
        query starts a fresh pool.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for tasks in self._tasks:
            tasks.cancel_join_thread()
        self.close()
        raise RuntimeError(f"{reason}; the engine was closed")

    def _reduce(
        self,
        query: np.ndarray,
        k: int,
        items: _CandidateItems,
        tracer: Tracer,
        traced: bool,
        span: int,
    ) -> ParallelQueryResult:
        """Merge worker candidates into the exact global result.

        Deterministic merge — squared keys, ``(key, oid)`` order — then
        the post-hoc charged page set from the RAM directory.  Shared by
        the per-call path and the pipelined batch path, which is what
        keeps their results bit-for-bit identical.
        """
        merged = _CandidateSet(k)
        for key, oid, point in sorted(
            items, key=lambda item: (item[0], item[1])
        ):
            merged.offer(key, oid, point)
        counts, computations = self._exact_counts(query, merged.bound)
        disks = DiskArray.from_counts(counts, self.parameters)
        if traced:
            for disk in range(self.store.num_disks):
                if counts[disk]:
                    tracer.page_read(span, disk, int(counts[disk]))
            tracer.end_query(
                span, time_ms=disks.parallel_time_ms,
                distance_computations=computations,
            )
        return ParallelQueryResult(
            neighbors=merged.neighbors(),
            pages_per_disk=disks.pages_per_disk,
            parallel_time_ms=disks.parallel_time_ms,
            distance_computations=computations,
            cache_stats=None,
        )

    def query(
        self, query: Sequence[float], k: int = 1
    ) -> ParallelQueryResult:
        """Run one kNN query across all disk workers in parallel.

        Under an enabled tracer this emits a ``query_start`` ...
        ``query_end`` span with one aggregate ``page_read`` per disk
        (the exact charged counts — per-page event order inside a
        worker is not deterministic and is not traced).
        """
        self._check_k(k)
        query = np.asarray(query, dtype=float)
        vectorized = kernels.kernels_enabled(self.use_kernels)
        tracer = self._active_tracer()
        traced = tracer.enabled
        span = -1
        if traced:
            span = tracer.begin_query(
                "process", k=k, num_disks=self.store.num_disks,
                service_ms=self.parameters.page_service_time_ms,
            )
        if self.store.tree.size == 0:
            if traced:
                tracer.end_query(span)
            return self._empty_result()
        self._ensure_workers()
        assert self._shared is not None and self._locks
        bound_view = np.frombuffer(self._shared, dtype=np.float64)
        lock = self._locks[0]
        with lock:
            bound_view[: self.max_k] = np.inf
        query_id = next(self._query_ids)
        for tasks in self._tasks:
            tasks.put(("one", query_id, query, k, vectorized))

        items: _CandidateItems = []
        speculative = 0
        for _ in range(self.store.num_disks):
            reply_id, _disk, worker_items, faults = self._collect_reply()
            if reply_id != query_id:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"out-of-order worker reply: query {reply_id} "
                    f"while waiting for {query_id}"
                )
            items.extend(worker_items)
            speculative += faults
        self.last_speculative_pages = speculative
        return self._reduce(query, k, items, tracer, traced, span)

    def query_batch(
        self, queries: np.ndarray, k: int = 1
    ) -> BatchQueryResult:
        """Run a batch of queries over the persistent worker pool,
        pipelined across the pipeline banks.

        The whole batch ships to every worker in **one** task message.
        Workers stream through the queries in order — query ``j`` prunes
        against bank ``j % depth``'s shared bound and deposits its local
        top-k in its shared-memory arena cell, so per-query replies
        carry only four small integers (no payload pickling).  With
        depth 2, workers fault and score pages for query ``j + 1`` while
        the coordinator is still merging query ``j`` — the page I/O of
        the next query overlaps the reduction of the current one.  Each
        worker also reuses page payloads *across* the batch's queries
        (:class:`_BatchPageMemo`): a page whose MBR intersects several
        of the batch's kNN spheres is faulted and materialized once, not
        once per query — the structural throughput edge over per-call
        dispatch, whose unit of work is a single query.

        Results are bit-for-bit identical to calling :meth:`query` per
        query (and to ``PagedEngine``): each query's merge and post-hoc
        charged-page derivation are exactly the per-call path's, and the
        bank discipline (a gate per bank, released only after the
        coordinator consumes the bank) keeps concurrent queries from
        sharing pruning state.
        """
        self._check_k(k)
        queries = np.asarray(queries, dtype=float)
        if queries.size == 0:
            return BatchQueryResult([], self.store.num_disks)
        queries = np.atleast_2d(queries)
        vectorized = kernels.kernels_enabled(self.use_kernels)
        tracer = self._active_tracer()
        traced = tracer.enabled
        if self.store.tree.size == 0:
            results = []
            for _query in queries:
                if traced:
                    span = tracer.begin_query(
                        "process", k=k, num_disks=self.store.num_disks,
                        service_ms=self.parameters.page_service_time_ms,
                    )
                    tracer.end_query(span)
                results.append(self._empty_result())
            return BatchQueryResult(results, self.store.num_disks)
        self._ensure_workers()
        assert self._shared is not None and self._arena is not None
        num_disks = self.store.num_disks
        dimension = self.store.tree.dimension
        stride = _arena_stride(dimension)
        depth = _PIPELINE_DEPTH
        bounds = np.frombuffer(self._shared, dtype=np.float64)
        arena = np.frombuffer(self._arena, dtype=np.float64)
        # All banks are idle between batches; reset every bound.
        for bank in range(depth):
            bank_lock = self._locks[bank]
            with bank_lock:
                bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
        for tasks in self._tasks:
            tasks.put(("batch", queries, k, vectorized))

        results: List[ParallelQueryResult] = []
        staged: List[_CandidateItems] = []
        pending: Dict[int, List[Tuple[int, int, int]]] = {}
        speculative = 0
        for index in range(len(queries)):
            replies = pending.pop(index, [])
            while len(replies) < num_disks:
                reply_id, disk, count, faults = self._collect_reply()
                if reply_id == index:
                    replies.append((disk, count, faults))
                else:
                    pending.setdefault(reply_id, []).append(
                        (disk, count, faults)
                    )
            bank = index % depth
            bank_lock = self._locks[bank]
            span = -1
            if traced:
                span = tracer.begin_query(
                    "process", k=k, num_disks=num_disks,
                    service_ms=self.parameters.page_service_time_ms,
                )
            items: _CandidateItems = []
            for disk, count, faults in replies:
                speculative += faults
                with bank_lock:
                    items.extend(
                        _unpack_items(
                            arena,
                            _arena_base(
                                bank, disk, num_disks, self.max_k, stride
                            ),
                            count,
                            dimension,
                        )
                    )
            if traced:
                # Keep the per-query reduce inline so the span's
                # page_read/end_query events land between this query's
                # begin_query and the next one's — the event order the
                # golden traces and the sanitizer pin.
                results.append(
                    self._reduce(
                        queries[index], k, items, tracer, traced, span,
                    )
                )
            else:
                staged.append(items)
            # The bank is consumed: re-arm its bound, then let every
            # worker advance one query (into this bank at
            # ``index + depth``).
            with bank_lock:
                bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
            for gate in self._gates:
                gate.release()
        # Untraced hot path: the merge + post-hoc charged-page sweep
        # runs per query *after* the pipeline drains.  The directory
        # sweep is the coordinator's one big numpy pass; doing it while
        # the workers are still crunching the next queries would just
        # time-slice against them on a busy machine (identical results,
        # worse wall clock), so the loop above only unpacks arena cells
        # and keeps the workers fed.
        for index, items in enumerate(staged):
            results.append(
                self._reduce(queries[index], k, items, tracer, False, -1)
            )
        self.last_speculative_pages = speculative
        return BatchQueryResult(results, num_disks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._procs else "idle"
        return (
            f"ProcessParallelEngine(disks={self.store.num_disks}, "
            f"workers={state}, max_k={self.max_k})"
        )
