import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.clustering import (
    ClusterAssignment,
    DistanceMatrix,
    average_linkage,
    build_distance_matrix,
    cluster_to_two,
    cluster_to_two_traced,
)
from fedswap.errors import (
    InvalidAssignment,
    OverlappingClusters,
    TooFewDecoders,
    ZeroNormVector,
)
from fedswap.params import ParamVector


def vec(*values):
    return ParamVector(np.array(values, dtype=np.float64))


def matrix(entries):
    return DistanceMatrix(np.array(entries, dtype=np.float64))


def random_matrix(rng, n):
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = rng.uniform(0.01, 2.0, size=len(iu[0]))
    return DistanceMatrix(m + m.T)


def oracle_linkage(entries, ci, cj):
    return sum(entries[u][v] for u in ci for v in cj) / (len(ci) * len(cj))


def oracle_merge_to_two(entries, n):
    """Independent agglomerative reference: frozensets, full rescan each step,
    ties broken by the sorted pair of cluster minima."""
    clusters = [frozenset([i]) for i in range(n)]
    merges = []
    while len(clusters) > 2:
        best = None
        for a, b in itertools.combinations(clusters, 2):
            link = oracle_linkage(entries, a, b)
            key = (link, tuple(sorted((min(a), min(b)))))
            if best is None or key < best[0]:
                best = (key, a, b)
        _, a, b = best
        merges.append((a, b, best[0][0]))
        clusters = [c for c in clusters if c not in (a, b)] + [a | b]
    return clusters, merges


class TestDistanceMatrix:
    def test_orthogonal_pair(self):
        dm = build_distance_matrix([vec(1, 0), vec(0, 1)])
        assert np.array_equal(dm.entries, [[0, 1], [1, 0]])

    def test_duplicate_plus_orthogonal(self):
        dm = build_distance_matrix([vec(1, 0), vec(1, 0), vec(0, 1)])
        assert dm.entries[0, 1] == 0.0
        assert dm.entries[0, 2] == 1.0

    def test_diagonal_entry_value(self):
        dm = build_distance_matrix([vec(1, 0), vec(1, 1)])
        assert dm.entries[0, 1] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)

    def test_zero_norm_reports_offending_index(self):
        with pytest.raises(ZeroNormVector, match="decoder 1"):
            build_distance_matrix([vec(1, 0), vec(0, 0)])

    def test_too_few(self):
        with pytest.raises(TooFewDecoders):
            build_distance_matrix([vec(1, 0)])

    def test_validation_rejects_asymmetry_and_bad_range(self):
        with pytest.raises(ValueError):
            matrix([[0, 1], [0.5, 0]])
        with pytest.raises(ValueError):
            matrix([[0, 3], [3, 0]])
        with pytest.raises(ValueError):
            matrix([[0.5, 1], [1, 0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_pairwise_cosine(self, seed):
        from fedswap.params import cosine_distance

        rng = np.random.default_rng(seed)
        decoders = [ParamVector(rng.normal(size=4)) for _ in range(5)]
        dm = build_distance_matrix(decoders)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert dm.entries[i, j] == cosine_distance(
                        decoders[i], decoders[j]
                    )


class TestAverageLinkage:
    def test_singleton_pair(self):
        dm = matrix([[0, 1], [1, 0]])
        assert average_linkage(dm, (0,), (1,)) == 1.0

    def test_hand_summed_example(self):
        d = 1 - 1 / np.sqrt(2)
        entries = np.array([[0, 1, d], [1, 0, 1], [d, 1, 0]])
        dm = DistanceMatrix(entries)
        assert average_linkage(dm, (0,), (1, 2)) == pytest.approx(
            (1 + d) / 2, abs=1e-12
        )

    def test_constant_cross_block(self):
        d = 0.7
        entries = np.full((4, 4), d)
        np.fill_diagonal(entries, 0.0)
        entries[0, 1] = entries[1, 0] = 0.1
        entries[2, 3] = entries[3, 2] = 0.1
        dm = DistanceMatrix(entries)
        assert average_linkage(dm, (0, 1), (2, 3)) == pytest.approx(d, abs=1e-15)

    def test_overlap_and_empty_raise(self):
        dm = matrix([[0, 1], [1, 0]])
        with pytest.raises(OverlappingClusters):
            average_linkage(dm, (0,), (0, 1))
        with pytest.raises(OverlappingClusters):
            average_linkage(dm, (), (1,))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matches_double_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        dm = random_matrix(rng, n)
        members = list(rng.permutation(n))
        cut = int(rng.integers(1, n))
        ci, cj = members[:cut], members[cut:]
        expected = oracle_linkage(dm.entries, ci, cj)
        assert average_linkage(dm, ci, cj) == pytest.approx(expected, abs=1e-12)


class TestClusterAssignment:
    def test_index_list_orientation(self):
        ca = ClusterAssignment.from_members(4, [0, 2])
        assert ca.index_list == (0, 1, 0, 1)
        assert ca.members_0 == (0, 2)
        assert ca.members_1 == (1, 3)

    def test_rejects_single_block(self):
        with pytest.raises(InvalidAssignment):
            ClusterAssignment((0, 0, 0))
        with pytest.raises(InvalidAssignment):
            ClusterAssignment((1,))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidAssignment):
            ClusterAssignment((0, 2, 1))


class TestClusterToTwo:
    def test_two_decoders_forced_partition(self):
        ca = cluster_to_two(matrix([[0, 1], [1, 0]]))
        assert ca.members_0 == (0,)
        assert ca.members_1 == (1,)

    def test_three_decoder_merge_choice(self):
        entries = [[0, 0.1, 1.0], [0.1, 0, 1.0], [1.0, 1.0, 0]]
        ca = cluster_to_two(matrix(entries))
        assert ca.members_0 == (0, 1)
        assert ca.members_1 == (2,)

    def test_two_tight_direction_groups(self):
        decoders = [vec(1, 0), vec(1, 0.01), vec(0, 1), vec(0.01, 1)]
        dm = build_distance_matrix(decoders)
        ca = cluster_to_two(dm)
        assert ca.members_0 == (0, 1)
        assert ca.members_1 == (2, 3)
        # brute force over all bipartitions, scoring pooled within-cluster distance
        best, best_score = None, None
        n = 4
        for bits in range(1, 2 ** (n - 1)):
            a = [i for i in range(n) if (bits >> i) & 1 == 0]
            b = [i for i in range(n) if (bits >> i) & 1]
            pairs = [(u, v) for grp in (a, b) for u in grp for v in grp if u < v]
            if not pairs:
                continue
            score = np.mean([dm.entries[u, v] for u, v in pairs])
            if best_score is None or score < best_score:
                best, best_score = {frozenset(a), frozenset(b)}, score
        assert best == {frozenset(ca.members_0), frozenset(ca.members_1)}

    def test_block_structured_matrix_recovered(self):
        rng = np.random.default_rng(5)
        n = 7
        blocks = [0, 0, 1, 0, 1, 1, 0]
        entries = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                low = blocks[i] == blocks[j]
                entries[i, j] = entries[j, i] = rng.uniform(
                    0.01, 0.3) if low else rng.uniform(1.0, 1.9)
        ca = cluster_to_two(DistanceMatrix(entries))
        assert ca.members_0 == tuple(i for i in range(n) if blocks[i] == 0)
        assert ca.members_1 == tuple(i for i in range(n) if blocks[i] == 1)

    def test_label_zero_follows_decoder_zero(self):
        entries = [[0, 1.0, 1.0], [1.0, 0, 0.1], [1.0, 0.1, 0]]
        ca = cluster_to_two(matrix(entries))
        assert ca.index_list[0] == 0
        assert ca.members_0 == (0,)

    def test_deterministic_on_ties(self):
        # all distances equal: merges must follow the lexicographic tie-break
        entries = np.full((4, 4), 1.0)
        np.fill_diagonal(entries, 0.0)
        _, merges = cluster_to_two_traced(DistanceMatrix(entries))
        assert [set(m.first) | set(m.second) for m in merges] == [{0, 1}, {0, 1, 2}]

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            dm = random_matrix(rng, n)
            ca, merges = cluster_to_two_traced(dm)
            oracle_clusters, oracle_merges = oracle_merge_to_two(dm.entries, n)
            assert len(merges) == len(oracle_merges)
            for step, (a, b, link) in zip(merges, oracle_merges):
                assert {frozenset(step.first), frozenset(step.second)} == {a, b}
                assert step.linkage == pytest.approx(link, abs=1e-12)
            assert {frozenset(ca.members_0), frozenset(ca.members_1)} == set(
                oracle_clusters
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        dm = random_matrix(rng, n)
        perm = rng.permutation(n)
        permuted = DistanceMatrix(dm.entries[np.ix_(perm, perm)])
        base = cluster_to_two(dm)
        mapped = cluster_to_two(permuted)
        # index k of the permuted problem is original index perm[k]
        expected = {
            frozenset(perm[list(mapped.members_0)]),
            frozenset(perm[list(mapped.members_1)]),
        }
        got = {frozenset(base.members_0), frozenset(base.members_1)}
        assert expected == got

    def test_scipy_oracle_large_n(self):
        # tie-free random matrices: the bipartition must be scipy's top
        # average-linkage split, and every merge linkage the double sum
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import squareform

        rng = np.random.default_rng(256)
        for n in (8, 9, 16, 31, 32, 50, 64, 65, 100, 128, 150, 200, 255, 256, 256):
            dm = random_matrix(rng, n)
            ca, merges = cluster_to_two_traced(dm)
            labels = fcluster(
                linkage(squareform(dm.entries, checks=False), method="average"),
                t=2, criterion="maxclust",
            )
            assert ca.index_list == tuple(0 if v == labels[0] else 1 for v in labels)
            assert ca == cluster_to_two(dm)
            for step in merges:
                assert step.linkage == pytest.approx(
                    average_linkage(dm, step.first, step.second), abs=1e-12
                )

    def test_determinism(self):
        rng = np.random.default_rng(3)
        dm = random_matrix(rng, 6)
        assert cluster_to_two(dm).index_list == cluster_to_two(dm).index_list
