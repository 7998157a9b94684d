"""Tests for kNN search: oracle equivalence, accounting, pruning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.bulk import bulk_load
from repro.index.knn import (
    Neighbor,
    SearchStats,
    _CandidateSet,
    best_first,
    knn_best_first,
    knn_branch_and_bound,
    knn_linear_scan,
    pages_intersecting_radius,
)
from repro.index.metrics import Euclidean
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree

ALGORITHMS = [knn_best_first, knn_branch_and_bound]


class TestLinearScanOracle:
    def test_basic(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        result = knn_linear_scan(points, [0.1, 0.0], 2)
        assert [n.oid for n in result] == [0, 1]
        assert result[0].distance == pytest.approx(0.1)

    def test_k_larger_than_n(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = knn_linear_scan(points, [0.0, 0.0], 10)
        assert len(result) == 2

    def test_custom_oids(self):
        points = np.array([[0.0], [1.0]])
        result = knn_linear_scan(points, [0.9], 1, oids=[100, 200])
        assert result[0].oid == 200

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            knn_linear_scan(np.zeros(3), [0.0], 1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestTreeKnn:
    def test_matches_oracle(self, algorithm, medium_uniform, rng):
        tree = bulk_load(medium_uniform)
        for query in rng.random((15, 8)):
            for k in (1, 5, 20):
                result, _ = algorithm(tree, query, k)
                oracle = knn_linear_scan(medium_uniform, query, k)
                assert len(result) == k
                got = [n.distance for n in result]
                expected = [n.distance for n in oracle]
                assert got == pytest.approx(expected)

    def test_results_sorted(self, algorithm, medium_uniform, rng):
        tree = bulk_load(medium_uniform)
        result, _ = algorithm(tree, rng.random(8), 12)
        distances = [n.distance for n in result]
        assert distances == sorted(distances)

    def test_neighbor_points_returned(self, algorithm, small_uniform):
        tree = bulk_load(small_uniform)
        query = small_uniform[17]
        result, _ = algorithm(tree, query, 1)
        assert result[0].oid == 17
        assert np.allclose(result[0].point, query)
        assert result[0].distance == pytest.approx(0.0)

    def test_empty_tree(self, algorithm):
        tree = RStarTree(4)
        result, stats = algorithm(tree, np.zeros(4), 3)
        assert result == []
        assert stats.node_accesses == 0

    def test_invalid_k(self, algorithm, small_uniform):
        tree = bulk_load(small_uniform)
        with pytest.raises(ValueError):
            algorithm(tree, np.zeros(6), 0)

    def test_stats_populated(self, algorithm, medium_uniform, rng):
        tree = bulk_load(medium_uniform)
        _, stats = algorithm(tree, rng.random(8), 5)
        assert stats.node_accesses > 0
        assert stats.leaf_accesses > 0
        assert stats.page_accesses >= stats.node_accesses
        assert stats.distance_computations > 0

    def test_dynamic_tree_agrees(self, algorithm, rng):
        points = rng.random((600, 5))
        tree = XTree(5, leaf_cap=8, dir_cap=8)
        tree.extend(points)
        query = rng.random(5)
        result, _ = algorithm(tree, query, 4)
        oracle = knn_linear_scan(points, query, 4)
        assert [n.distance for n in result] == pytest.approx(
            [n.distance for n in oracle]
        )

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 1000))
    def test_property_random_data(self, algorithm, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((200, 4))
        tree = bulk_load(points, tree_cls=RStarTree)
        query = rng.random(4)
        result, _ = algorithm(tree, query, 7)
        oracle = knn_linear_scan(points, query, 7)
        assert result[-1].distance == pytest.approx(oracle[-1].distance)


class TestAccounting:
    def test_pages_monotone_in_k(self, medium_uniform, rng):
        tree = bulk_load(medium_uniform)
        query = rng.random(8)
        previous = 0
        for k in (1, 5, 25, 100):
            _, stats = knn_best_first(tree, query, k)
            assert stats.page_accesses >= previous
            previous = stats.page_accesses

    def test_best_first_never_reads_more_than_branch_and_bound(
        self, medium_uniform, rng
    ):
        """HS 95 is page-optimal: it reads no more pages than RKV 95."""
        tree = bulk_load(medium_uniform)
        for query in rng.random((10, 8)):
            _, bf = knn_best_first(tree, query, 10)
            _, bb = knn_branch_and_bound(tree, query, 10)
            assert bf.page_accesses <= bb.page_accesses

    def test_best_first_reads_exactly_sphere_pages(
        self, medium_uniform, rng
    ):
        """Best-first reads exactly the nodes intersecting the kNN
        sphere (modulo boundary ties)."""
        tree = bulk_load(medium_uniform)
        for query in rng.random((5, 8)):
            result, stats = knn_best_first(tree, query, 5)
            radius = result[-1].distance
            must_read = pages_intersecting_radius(tree, query, radius)
            assert stats.page_accesses <= must_read + tree.height

    def test_stats_merge(self):
        a = SearchStats(1, 1, 2, 10)
        b = SearchStats(2, 1, 3, 5)
        a.merge(b)
        assert (a.node_accesses, a.leaf_accesses, a.page_accesses,
                a.distance_computations) == (3, 2, 5, 15)


class TestNeighborType:
    def test_ordering_by_distance(self):
        a = Neighbor(0.5, 1, np.zeros(2))
        b = Neighbor(0.7, 0, np.zeros(2))
        assert a < b

    def test_equality_ignores_point_array(self):
        assert Neighbor(0.5, 1, np.zeros(2)) == Neighbor(0.5, 1, np.ones(2))


class TestBestFirstHooks:
    """The hooks the engines adapt :func:`best_first` with."""

    @staticmethod
    def _tree(n=400, d=3, seed=4):
        points = np.random.default_rng(seed).random((n, d))
        return points, bulk_load(points, page_bytes=512)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_publish_receives_each_scored_leafs_keys(self, vectorized):
        points, tree = self._tree()
        query = np.full(3, 0.5)
        published, visited = [], []

        def visit(disk, node):
            assert disk == 7
            visited.append(node)

        def publish(keys, shared):
            published.append(keys)
            return shared

        candidates, stats = _CandidateSet(5), SearchStats()
        best_first(
            [(7, tree.root)], query, candidates, stats,
            vectorized=vectorized, visit=visit, publish=publish,
        )
        leaves = [node for node in visited if node.is_leaf]
        assert len(published) == len(leaves) == stats.leaf_accesses
        for keys, leaf in zip(published, leaves):
            leaf_points = np.vstack([e.point for e in leaf.entries])
            np.testing.assert_array_equal(
                keys, Euclidean().point_keys(leaf_points, query)
            )
        expected = knn_linear_scan(points, query, 5)
        assert [n.oid for n in candidates.neighbors()] == [
            n.oid for n in expected
        ]

    def test_admit_filters_a_leaf_root(self):
        _, tree = self._tree(n=5)
        assert tree.root.is_leaf
        candidates, stats = _CandidateSet(1), SearchStats()
        best_first(
            [(0, tree.root)], np.zeros(3), candidates, stats,
            vectorized=True, admit=lambda node: not node.is_leaf,
        )
        assert stats.node_accesses == 0 and candidates.items() == []

    def test_shared_bound_prunes_and_prune_counts_the_queue(self):
        _, tree = self._tree()
        pruned = []
        candidates, stats = _CandidateSet(3), SearchStats()
        best_first(
            [(0, tree.root)], np.full(3, 2.0), candidates, stats,
            vectorized=True, shared_bound=lambda: 0.0,
            prune=lambda disk, count: pruned.append(count),
        )
        # Only the root (mindist 0) is visited: every child of it lies
        # farther than the shared bound of 0.
        assert stats.node_accesses == 1
        assert pruned == [1] * len(tree.root.entries)
        assert candidates.items() == []
