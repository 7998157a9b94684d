"""Vectorized traversal kernels over contiguous per-node entry arrays.

The scalar hot path of every kNN engine computes ``MBR.mindist`` one
child at a time and re-stacks leaf points on every visit — a Python loop
per node.  This module replaces both with single NumPy calls over
*cached contiguous arrays*:

* :func:`child_bounds` — stacked ``(C, d)`` ``low``/``high`` matrices of
  a directory node's children, built lazily on first visit and
  invalidated by :meth:`~repro.index.node.Node.recompute_mbr` /
  :meth:`~repro.index.node.Node.extend_mbr` (every entry mutation in the
  tree code runs through one of the two);
* :func:`leaf_points` — the stacked ``(N, d)`` point matrix of a leaf,
  same lifecycle;
* :func:`child_mindists` / :func:`child_minmaxdists` — one call yields
  the pruning bound for *all* children of a node;
* :func:`offer_leaf` — fused leaf kernel: ranking keys, bound filtering,
  and bulk candidate insertion without a per-entry Python loop;
* :func:`child_intersects` / :func:`leaf_window_mask` — batched window
  predicates for range/partial-match queries.

**Exactness contract.**  Every kernel reproduces the scalar path
bit-for-bit: same neighbor sets, same pruning decisions, and therefore
the same page/disk/cache/``distance_computations`` counters (the oracle
suite in ``tests/test_kernels_oracle.py`` asserts this with no
float-tolerance waivers).  This works because the scalar reductions in
:mod:`repro.index.mbr` / :mod:`repro.index.metrics` use
``np.add.reduce``, whose row-wise 2-D form is bit-identical to the 1-D
case (a BLAS dot product is not).

**Fallback.**  Setting the environment variable ``REPRO_SCALAR_KERNELS``
to a non-empty value other than ``0`` (or passing ``use_kernels=False``
to the engines) selects the original scalar path; see
``docs/performance.md``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.index.metrics import Euclidean, Metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.index.knn import SearchStats, _CandidateSet
    from repro.index.node import Node

__all__ = [
    "SCALAR_ENV",
    "kernels_enabled",
    "child_bounds",
    "leaf_points",
    "child_mindists",
    "child_minmaxdists",
    "child_intersects",
    "leaf_window_mask",
    "offer_leaf",
    "offer_payload",
]

#: Environment variable selecting the scalar fallback path.
SCALAR_ENV = "REPRO_SCALAR_KERNELS"

_EUCLIDEAN = Euclidean()

#: Tags distinguishing the two cache layouts sharing ``_kernel_cache``.
_DIR_CACHE = "dir"
_LEAF_CACHE = "leaf"


def kernels_enabled(override: Optional[bool] = None) -> bool:
    """Whether the vectorized kernels are active.

    ``override`` (an engine's ``use_kernels`` argument) wins when given;
    otherwise the :data:`SCALAR_ENV` environment variable decides —
    unset, empty, or ``"0"`` means kernels on, anything else selects the
    scalar fallback.
    """
    if override is not None:
        return override
    return os.environ.get(SCALAR_ENV, "").strip() in ("", "0")


def child_bounds(node: "Node") -> Tuple[np.ndarray, np.ndarray]:
    """Stacked ``(C, d)`` ``low``/``high`` matrices of a directory node.

    Built lazily on first use and memoized on the node; the tree code
    invalidates the memo whenever the node's entries or any child MBR
    change (both funnel through ``recompute_mbr`` / ``extend_mbr``).
    """
    cache = node._kernel_cache
    count = len(node.entries)
    if (
        cache is not None
        and cache[0] == _DIR_CACHE
        and cache[1] == count
    ):
        return cache[2], cache[3]
    lows = np.vstack([child.mbr.low for child in node.entries])
    highs = np.vstack([child.mbr.high for child in node.entries])
    node._kernel_cache = (_DIR_CACHE, count, lows, highs)
    return lows, highs


def leaf_points(node: "Node") -> np.ndarray:
    """The stacked ``(N, d)`` point matrix of a leaf node (memoized).

    Identical (values and C-contiguous layout) to the ``np.vstack`` the
    scalar ``_leaf_distances`` performs on every visit, so
    ``metric.point_keys`` returns bit-identical ranking keys.
    """
    cache = node._kernel_cache
    count = len(node.entries)
    if (
        cache is not None
        and cache[0] == _LEAF_CACHE
        and cache[1] == count
    ):
        return cache[2]
    points = np.vstack([entry.point for entry in node.entries])
    node._kernel_cache = (_LEAF_CACHE, count, points)
    return points


def child_mindists(
    node: "Node", query: np.ndarray, metric: Metric = _EUCLIDEAN
) -> np.ndarray:
    """``metric.mindist`` of the query to every child of ``node``.

    One batched call instead of ``C`` scalar ones; entry ``i`` equals
    ``metric.mindist(node.entries[i].mbr, query)`` bit-for-bit.
    """
    lows, highs = child_bounds(node)
    return metric.mindist_many(lows, highs, query)


def child_minmaxdists(node: "Node", query: np.ndarray) -> np.ndarray:
    """Squared RKV 95 ``minmaxdist`` bound for every child of ``node``.

    Entry ``i`` equals ``node.entries[i].mbr.minmaxdist(query)``
    bit-for-bit (same elementwise operations, same ``add.reduce``).
    """
    lows, highs = child_bounds(node)
    centers = (lows + highs) / 2.0
    near_face = np.where(query <= centers, lows, highs)
    far_face = np.where(query >= centers, lows, highs)
    near_term = (query - near_face) ** 2
    far_term = (query - far_face) ** 2
    total_far = np.add.reduce(far_term, axis=1, keepdims=True)
    return (near_term + (total_far - far_term)).min(axis=1)


def child_intersects(
    node: "Node", low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Boolean mask: which children of ``node`` intersect ``[low, high]``.

    Entry ``i`` equals ``node.entries[i].mbr.intersects(window)`` (pure
    comparisons — exact by construction).
    """
    lows, highs = child_bounds(node)
    return (lows <= high).all(axis=1) & (low <= highs).all(axis=1)


def leaf_window_mask(
    node: "Node", low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """Boolean mask: which entries of leaf ``node`` lie in ``[low, high]``.

    Entry ``i`` equals ``window.contains_point(entries[i].point)``.
    """
    points = leaf_points(node)
    return (low <= points).all(axis=1) & (points <= high).all(axis=1)


def offer_leaf(
    candidates: "_CandidateSet",
    node: "Node",
    query: np.ndarray,
    stats: "SearchStats",
    metric: Metric = _EUCLIDEAN,
) -> np.ndarray:
    """Fused leaf kernel: keys + bound filter + bulk candidate insertion.

    Equivalent to the scalar ``_leaf_distances`` + per-entry
    ``_CandidateSet.offer`` loop: charges ``len(entries)`` distance
    computations and leaves ``candidates`` in exactly the state the
    ordered scalar offers would (see ``_CandidateSet.offer_many``).
    Returns the leaf's ranking keys, in entry order.
    """
    points = leaf_points(node)
    keys = metric.point_keys(points, query)
    stats.distance_computations += len(node.entries)
    candidates.offer_many(keys, node.entries)
    return keys


def offer_payload(
    candidates: "_CandidateSet",
    points: np.ndarray,
    oids: np.ndarray,
    query: np.ndarray,
    stats: "SearchStats",
    metric: Metric = _EUCLIDEAN,
) -> np.ndarray:
    """Leaf kernel over a raw page payload (out-of-core path).

    The mmap store serves a page as ``(points, oids)`` arrays rather
    than :class:`~repro.index.node.LeafEntry` objects; this scores and
    offers them with the same arithmetic as :func:`offer_leaf` —
    ``metric.point_keys`` over the contiguous point matrix, one
    ``distance_computations`` charge per entry, ordered bulk insertion
    — so in-memory and mmap-backed engines return bit-identical
    results and counters.  Returns the payload's ranking keys, in row
    order (the process workers publish them to the shared bound).
    """
    keys = metric.point_keys(points, query)
    stats.distance_computations += len(oids)
    candidates.offer_many_arrays(keys, oids, points)
    return keys
