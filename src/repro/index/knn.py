"""k-nearest-neighbor search over R\\*/X-trees with page-access accounting.

Two traversal strategies from the literature (both discussed in Section 2
of the paper):

* :func:`knn_best_first` — Hjaltason & Samet [HS 95]: a global priority
  queue ordered by ``mindist`` visits partitions in increasing distance
  order; optimal in the number of accessed pages for a given tree.  The
  loop itself is :func:`best_first`, which every engine of
  :mod:`repro.parallel` drives through hooks (page charging, payload
  source, queue filter, shared bound, pruning trace).
* :func:`knn_branch_and_bound` — Roussopoulos et al. [RKV 95]: depth-first
  traversal with ``mindist`` ordering and ``minmaxdist``/``mindist``
  pruning; the algorithm the paper ran on the X-tree.

Both return the result list together with :class:`SearchStats`, whose
``page_accesses`` field (supernode-aware) is the cost metric of every
experiment in the paper.  :func:`knn_linear_scan` is the brute-force oracle
used by the tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.index import kernels
from repro.index.metrics import Euclidean, Metric
from repro.index.node import LeafEntry, Node
from repro.index.rstar import RStarTree

#: Default metric: L2 with squared-distance ranking keys.
_EUCLIDEAN = Euclidean()

#: Queue pops between two reads of :func:`best_first`'s ``shared_bound``.
_BOUND_REFRESH_POPS = 8

#: A leaf payload source: ``read_page(leaf) -> (points, oids)``.
PageSource = Callable[[Node], Tuple[np.ndarray, np.ndarray]]

__all__ = [
    "Neighbor",
    "SearchStats",
    "best_first",
    "knn_best_first",
    "knn_branch_and_bound",
    "knn_linear_scan",
    "pages_intersecting_radius",
]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One kNN result: Euclidean distance, object id and the point.

    Orders by (distance, oid), so sorted result lists are deterministic.
    """

    distance: float
    oid: int
    point: np.ndarray = field(repr=False, compare=False)


@dataclass
class SearchStats:
    """I/O and CPU counters of one kNN search."""

    node_accesses: int = 0
    leaf_accesses: int = 0
    page_accesses: int = 0
    distance_computations: int = 0

    def record(self, node: Node) -> None:
        """Charge one node visit (supernodes cost ``blocks`` pages)."""
        self.node_accesses += 1
        self.page_accesses += node.blocks
        if node.is_leaf:
            self.leaf_accesses += 1

    def merge(self, other: "SearchStats") -> None:
        self.node_accesses += other.node_accesses
        self.leaf_accesses += other.leaf_accesses
        self.page_accesses += other.page_accesses
        self.distance_computations += other.distance_computations


class _CandidateSet:
    """Bounded max-heap of the best k candidates seen so far."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: List[Tuple[float, int, np.ndarray]] = []

    @property
    def bound(self) -> float:
        """Squared distance of the current k-th candidate (inf if fewer)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer(self, sq_distance: float, oid: int, point: np.ndarray) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-sq_distance, oid, point))
        elif sq_distance < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-sq_distance, oid, point))

    def offer_many(
        self, keys: np.ndarray, entries: Sequence[LeafEntry]
    ) -> None:
        """Offer a whole leaf's entries at once (vectorized bound filter).

        Exactly equivalent to calling :meth:`offer` per entry in order:
        after warming the heap to ``k`` elements, a single NumPy mask
        drops every key that fails the *current* bound — exact because
        the bound only tightens during the loop, so a key rejected
        against the bound at mask time could never be accepted later.
        Survivors are re-checked in order against the live bound.
        """
        heap = self._heap
        start = 0
        total = len(entries)
        while len(heap) < self.k and start < total:
            entry = entries[start]
            heapq.heappush(heap, (-float(keys[start]), entry.oid, entry.point))
            start += 1
        if start >= total:
            return
        bound = -heap[0][0]
        for offset in np.nonzero(keys[start:] < bound)[0]:
            index = start + int(offset)
            key = float(keys[index])
            if key < -heap[0][0]:
                entry = entries[index]
                heapq.heapreplace(heap, (-key, entry.oid, entry.point))

    def offer_many_arrays(
        self, keys: np.ndarray, oids: np.ndarray, points: np.ndarray
    ) -> None:
        """Array-payload twin of :meth:`offer_many`.

        Same semantics over ``(N,)`` key/oid arrays and ``(N, d)``
        points — used by the out-of-core path, where a page arrives as
        raw arrays instead of :class:`LeafEntry` objects.  Exactly
        equivalent to calling :meth:`offer` per row in order.
        """
        heap = self._heap
        start = 0
        total = len(oids)
        while len(heap) < self.k and start < total:
            heapq.heappush(
                heap, (-float(keys[start]), int(oids[start]), points[start])
            )
            start += 1
        if start >= total:
            return
        bound = -heap[0][0]
        for offset in np.nonzero(keys[start:] < bound)[0]:
            index = start + int(offset)
            key = float(keys[index])
            if key < -heap[0][0]:
                heapq.heapreplace(
                    heap, (-key, int(oids[index]), points[index])
                )

    def items(self) -> List[Tuple[float, int, np.ndarray]]:
        """Current candidates as ``(squared key, oid, point)``, best
        first.

        Unlike :meth:`neighbors` this keeps the *exact* squared ranking
        keys, so candidate sets merged across processes reproduce the
        single-process pruning bound bit-for-bit (a sqrt round trip
        would not).
        """
        return sorted(
            ((-neg, oid, point) for neg, oid, point in self._heap),
            key=lambda item: (item[0], item[1]),
        )

    def neighbors(self, metric: Metric = _EUCLIDEAN) -> List[Neighbor]:
        ordered = sorted(
            ((-neg, oid, point) for neg, oid, point in self._heap)
        )
        return [
            Neighbor(float(metric.key_to_distance(key)), oid, point)
            for key, oid, point in ordered
        ]


def _leaf_distances(
    leaf: Node,
    query: np.ndarray,
    stats: SearchStats,
    metric: Metric = _EUCLIDEAN,
) -> Tuple[np.ndarray, List[LeafEntry]]:
    entries: List[LeafEntry] = leaf.entries  # type: ignore[assignment]
    points = np.vstack([entry.point for entry in entries])
    keys = metric.point_keys(points, query)
    stats.distance_computations += len(entries)
    return keys, entries


def best_first(
    roots: Sequence[Tuple[int, Node]],
    query: np.ndarray,
    candidates: _CandidateSet,
    stats: SearchStats,
    *,
    vectorized: bool,
    metric: Metric = _EUCLIDEAN,
    visit: Optional[Callable[[int, Node], None]] = None,
    read_page: Optional[PageSource] = None,
    admit: Optional[Callable[[Node], bool]] = None,
    shared_bound: Optional[Callable[[], float]] = None,
    publish: Optional[Callable[[np.ndarray, float], float]] = None,
    prune: Optional[Callable[[int, int], None]] = None,
) -> None:
    """The HS 95 best-first kNN loop behind every engine.

    One priority queue of ``(mindist, tiebreak, disk, node)`` over the
    forest ``roots`` (``(disk, root)`` pairs; the disk tag is inherited
    by every descendant).  The first popped node farther than the bound
    ends the search, so exactly the pages whose MBR intersects the final
    kNN sphere are visited; ``stats`` records them.  The hooks:

    * ``visit(disk, node)`` — every visited node, before it is scored or
      expanded (page charging, buffer pool, tracing);
    * ``read_page(leaf) -> (points, oids)`` — an out-of-core payload
      source; without it leaves are scored from their entries;
    * ``admit(node)`` — queue filter for roots and children;
    * ``shared_bound()`` — an external bound, read at the start and every
      ``_BOUND_REFRESH_POPS`` pops; the search prunes with the smaller
      of it and the local bound;
    * ``publish(keys, shared) -> shared`` — every scored leaf's ranking
      keys; returns the refreshed shared bound;
    * ``prune(disk, count)`` — one call per child rejected by the bound,
      plus one for the queue left when the search stops.

    ``vectorized`` selects the batched kernels (:mod:`repro.index.kernels`,
    looked up at call time) or the scalar ``metric.mindist`` / per-entry
    offers kept as the test oracle; both take the same pruning
    decisions, consume the same tiebreaks, and call the hooks in the
    same order.
    """
    tiebreak = itertools.count()
    queue: List[Tuple[float, int, int, Node]] = [
        (0.0, next(tiebreak), disk, root)
        for disk, root in roots
        if admit is None or admit(root)
    ]
    shared = float("inf") if shared_bound is None else shared_bound()
    pops = 0
    while queue:
        mindist, _, disk, node = heapq.heappop(queue)
        bound = candidates.bound
        if shared_bound is not None:
            pops += 1
            if pops % _BOUND_REFRESH_POPS == 0:
                shared = shared_bound()
            bound = min(bound, shared)
        if mindist > bound:
            if prune is not None:
                prune(disk, len(queue) + 1)
            break
        stats.record(node)
        if visit is not None:
            visit(disk, node)
        if node.is_leaf:
            keys = _score_leaf(
                node, query, candidates, stats, vectorized, metric, read_page
            )
            if publish is not None and keys is not None:
                shared = publish(keys, shared)
            continue
        if vectorized:
            child_keys = kernels.child_mindists(node, query, metric)
        else:
            child_keys = np.array(
                [metric.mindist(child.mbr, query) for child in node.entries]
            )
        # The bound cannot change while a node is expanded, so one mask
        # reproduces the per-child test, including which children consume
        # a tiebreak value, in order.
        passed = child_keys <= bound
        if prune is not None:
            for _ in range(len(passed) - int(np.count_nonzero(passed))):
                prune(disk, 1)
        for index in np.nonzero(passed)[0]:
            child = node.entries[index]
            if admit is None or admit(child):
                heapq.heappush(
                    queue,
                    (float(child_keys[index]), next(tiebreak), disk, child),
                )


def _score_leaf(
    leaf: Node,
    query: np.ndarray,
    candidates: _CandidateSet,
    stats: SearchStats,
    vectorized: bool,
    metric: Metric,
    read_page: Optional[PageSource],
) -> Optional[np.ndarray]:
    """Offer one leaf's points; returns their keys (None when empty)."""
    if read_page is not None:
        points, oids = read_page(leaf)
        if not len(oids):
            return None
        if vectorized:
            return kernels.offer_payload(
                candidates, points, oids, query, stats, metric
            )
        keys = metric.point_keys(points, query)
        stats.distance_computations += len(oids)
        for key, oid, point in zip(keys, oids, points):
            candidates.offer(float(key), int(oid), point)
        return keys
    if not leaf.entries:
        return None
    if vectorized:
        return kernels.offer_leaf(candidates, leaf, query, stats, metric)
    keys, entries = _leaf_distances(leaf, query, stats, metric)
    for key, entry in zip(keys, entries):
        candidates.offer(float(key), entry.oid, entry.point)
    return keys


def knn_best_first(
    tree: RStarTree,
    query: Sequence[float],
    k: int = 1,
    metric: Optional[Metric] = None,
    on_node: Optional[Callable[[Node], None]] = None,
    use_kernels: Optional[bool] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """HS 95 incremental best-first kNN over one tree.

    Maintains a priority queue of tree nodes keyed by ``mindist`` to the
    query; terminates once the nearest unvisited node is farther than the
    current k-th candidate — i.e. it reads exactly the pages whose MBR
    intersects the kNN sphere (page-optimal for the given tree).  A thin
    adapter over :func:`best_first`.

    ``metric`` selects the distance (default Euclidean); see
    :mod:`repro.index.metrics`.  ``on_node`` is invoked for every visited
    node in traversal order.  ``use_kernels`` selects the vectorized
    traversal kernels (:mod:`repro.index.kernels`); ``None`` defers to
    the ``REPRO_SCALAR_KERNELS`` environment variable.  Both paths
    produce bit-identical results and counters.
    """
    metric = metric or _EUCLIDEAN
    stats = SearchStats()
    candidates = _CandidateSet(k)
    best_first(
        [(0, tree.root)] if tree.size else [],
        np.asarray(query, dtype=float),
        candidates,
        stats,
        vectorized=kernels.kernels_enabled(use_kernels),
        metric=metric,
        visit=None if on_node is None else lambda _disk, node: on_node(node),
    )
    return candidates.neighbors(metric), stats


def knn_branch_and_bound(
    tree: RStarTree,
    query: Sequence[float],
    k: int = 1,
    metric: Optional[Metric] = None,
    use_kernels: Optional[bool] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """RKV 95 depth-first branch-and-bound kNN.

    Children are visited in ``mindist`` order; subtrees are pruned when
    their ``mindist`` exceeds the current k-th distance, and (for k = 1
    under the default Euclidean metric) when it exceeds the smallest
    sibling ``minmaxdist`` — the "all partition lists may be pruned" rule
    of the paper's Section 2.  ``use_kernels`` selects the vectorized
    kernels as in :func:`knn_best_first`.
    """
    custom_metric = metric is not None
    metric = metric or _EUCLIDEAN
    vectorized = kernels.kernels_enabled(use_kernels)
    query = np.asarray(query, dtype=float)
    stats = SearchStats()
    candidates = _CandidateSet(k)
    if tree.size == 0:
        return [], stats

    def visit(node: Node) -> None:
        stats.record(node)
        if node.is_leaf:
            if node.entries:
                if vectorized:
                    kernels.offer_leaf(candidates, node, query, stats, metric)
                else:
                    keys, entries = _leaf_distances(node, query, stats, metric)
                    for key, entry in zip(keys, entries):
                        candidates.offer(float(key), entry.oid, entry.point)
            return
        if vectorized:
            child_keys = kernels.child_mindists(node, query, metric)
            branches = sorted(
                (float(child_keys[index]), index, child)
                for index, child in enumerate(node.entries)
            )
        else:
            branches = sorted(
                ((metric.mindist(child.mbr, query), index, child)
                 for index, child in enumerate(node.entries)),
            )
        if k == 1 and not custom_metric:
            # MM-pruning: some sibling guarantees a point within its
            # minmaxdist, so children farther than the best guarantee can
            # never host the nearest neighbor.  (The bound is derived for
            # squared Euclidean keys, so it is skipped for custom metrics.)
            if vectorized:
                best_guarantee = float(
                    kernels.child_minmaxdists(node, query).min()
                )
            else:
                best_guarantee = min(
                    child.mbr.minmaxdist(query) for _, _, child in branches
                )
        else:
            best_guarantee = float("inf")
        for mindist, _, child in branches:
            if mindist > candidates.bound or mindist > best_guarantee:
                continue
            visit(child)

    visit(tree.root)
    return candidates.neighbors(metric), stats


def knn_linear_scan(
    points: np.ndarray,
    query: Sequence[float],
    k: int = 1,
    oids: Optional[Sequence[int]] = None,
    metric: Optional[Metric] = None,
) -> List[Neighbor]:
    """Brute-force kNN over a raw point array (testing/baseline oracle)."""
    metric = metric or _EUCLIDEAN
    points = np.asarray(points, dtype=float)
    query = np.asarray(query, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, d), got {points.shape}")
    if oids is None:
        oids = np.arange(len(points))
    keys = metric.point_keys(points, query)
    k = min(k, len(points))
    order = np.argsort(keys, kind="stable")[:k]
    return [
        Neighbor(float(metric.key_to_distance(keys[i])), int(oids[i]),
                 points[i])
        for i in order
    ]


def pages_intersecting_radius(
    tree: RStarTree,
    query: Sequence[float],
    radius: float,
    use_kernels: Optional[bool] = None,
) -> int:
    """Pages any correct NN algorithm must read for the given kNN radius.

    Counts the pages of all nodes whose MBR intersects the sphere of
    (Euclidean) ``radius`` around ``query`` — the paper's "data pages
    intersecting the NN-sphere" (Section 3.1).  The sphere test is
    applied when a child is pushed (one batched ``mindist`` call per
    directory node under the vectorized kernels); children of a
    non-empty directory always have an MBR, so only the root needs the
    ``None`` guard.
    """
    query = np.asarray(query, dtype=float)
    sq_radius = radius * radius
    vectorized = kernels.kernels_enabled(use_kernels)
    root = tree.root
    if root.mbr is None or root.mbr.mindist(query) > sq_radius:
        return 0
    pages = root.blocks
    stack: List[Node] = [] if root.is_leaf else [root]
    while stack:
        node = stack.pop()
        if vectorized:
            child_keys = kernels.child_mindists(node, query)
            hits = [
                node.entries[index]
                for index in np.nonzero(child_keys <= sq_radius)[0]
            ]
        else:
            hits = [
                child
                for child in node.entries
                if child.mbr.mindist(query) <= sq_radius
            ]
        for child in hits:
            pages += child.blocks
            if not child.is_leaf:
                stack.append(child)
    return pages
