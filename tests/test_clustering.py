import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.clustering import (
    ClusterAssignment,
    DistanceMatrix,
    build_distance_matrix,
    cluster_to_two,
)
from fedswap.errors import InvalidInput
from distance_oracle import oracle_distance_matrix
from linkage_oracle import oracle_full_recompute, oracle_linkage, oracle_merge_to_two


def vec(*values):
    return np.array(values, dtype=np.float64)


def rows(*vectors):
    return np.stack(vectors)


def pair_distance(a, b):
    """Cosine distance of one pair: the off-diagonal entry of its matrix."""
    return build_distance_matrix(np.stack((a, b))).entries[0, 1]


def finite_vectors(min_dim=1, max_dim=16):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=d, max_size=d
        )
    ).map(lambda vals: np.array(vals, dtype=np.float64)).filter(
        lambda a: np.linalg.norm(a) > 1e-6
    )


def matrix(entries):
    return DistanceMatrix(np.array(entries, dtype=np.float64))


def random_matrix(rng, n):
    m = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = rng.uniform(0.01, 2.0, size=len(iu[0]))
    return DistanceMatrix(m + m.T)


def oracle_instances(seed, count):
    """Upload matrices, n in [2, 129] and dim in [1, 69]: a third of the rows
    exact, scaled or antiparallel copies of others; every third instance
    small integers, so many distances tie; overall scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, dim = int(rng.integers(2, 130)), int(rng.integers(1, 70))
        if k % 3 == 2:
            values = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
            values[~values.any(axis=1), 0] = 1.0
        else:
            values = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
        for i in rng.choice(n, size=n // 3, replace=False):
            scale = rng.choice([1.0, 2.0, rng.uniform(0.01, 100.0)])
            values[i] = rng.choice([-1.0, 1.0]) * scale * values[rng.integers(n)]
        yield values


def assert_merges_equal_the_full_recompute(dm):
    ca = cluster_to_two(dm)
    members_0, merges = oracle_full_recompute(dm.entries)
    assert ca.members_0 == members_0
    assert list(ca.merges) == merges
    # the merges are ready for JSON as they stand
    assert json.loads(json.dumps(ca.merges)) == [[list(a), list(b), link]
                                                 for a, b, link in merges]


class TestCosineDistance:
    def test_identical_vectors(self):
        assert pair_distance(vec(1, 0), vec(1, 0)) == 0.0

    def test_orthogonal_vectors(self):
        assert pair_distance(vec(1, 0), vec(0, 1)) == 1.0

    def test_antiparallel_vectors(self):
        assert pair_distance(vec(1, 0), vec(-1, 0)) == 2.0

    def test_zero_norm_raises(self):
        with pytest.raises(InvalidInput):
            pair_distance(vec(0, 0), vec(1, 0))
        with pytest.raises(InvalidInput):
            pair_distance(vec(1, 0), vec(0, 0))

    def test_non_matrix_raises(self):
        for bad in (np.ones(3), np.ones((2, 0)), np.ones((0, 3)), np.ones((1, 3)),
                    np.ones((2, 2, 2))):
            with pytest.raises(InvalidInput, match="must be an"):
                build_distance_matrix(bad)

    def test_overflowing_norm_names_the_decoder(self):
        # equal decoders used to come out at distance 2.0, with numpy warnings
        big = np.full(3, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoder 1 has norm inf, not a finite non-zero one$"):
                build_distance_matrix(rows(vec(1, 2, 3), big, big))

    def test_overflowing_dot_names_the_pair(self):
        # both norms are finite, but the pair's dot overflows
        a = vec(6.104282793167473e153, 9.965903859473683e153, 6.571742944683598e153)
        b = vec(6.104282793167471e153, 9.965903859473681e153, 6.571742944683602e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoders 1 and 2 have a non-finite cosine$"):
                build_distance_matrix(rows(vec(1, 2, 3), a, b))

    @given(finite_vectors())
    def test_self_distance_is_zero(self, arr):
        assert abs(pair_distance(arr, arr)) <= 1e-12

    @given(finite_vectors(min_dim=4, max_dim=4), finite_vectors(min_dim=4, max_dim=4))
    def test_symmetry_and_range(self, a, b):
        d = pair_distance(a, b)
        assert d == pair_distance(b, a)
        assert 0.0 <= d <= 2.0

    @given(
        finite_vectors(min_dim=3, max_dim=8),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_positive_scale_invariance(self, a, c):
        b = a[::-1].copy() + 0.5
        if np.linalg.norm(b) <= 1e-6:
            b = b + 1.0
        d0 = pair_distance(a, b)
        d1 = pair_distance(c * a, b)
        assert abs(d0 - d1) <= 1e-9

    def test_scale_invariance_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 12))
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            c = float(rng.uniform(0.01, 100.0))
            d0 = pair_distance(a, b)
            d1 = pair_distance(c * a, b)
            assert abs(d0 - d1) <= 1e-9


class TestDistanceMatrix:
    def test_orthogonal_pair(self):
        dm = build_distance_matrix(rows(vec(1, 0), vec(0, 1)))
        assert np.array_equal(dm.entries, [[0, 1], [1, 0]])

    def test_duplicate_plus_orthogonal(self):
        dm = build_distance_matrix(rows(vec(1, 0), vec(1, 0), vec(0, 1)))
        assert dm.entries[0, 1] == 0.0
        assert dm.entries[0, 2] == 1.0

    def test_diagonal_entry_value(self):
        dm = build_distance_matrix(rows(vec(1, 0), vec(1, 1)))
        assert dm.entries[0, 1] == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)

    def test_zero_norm_reports_offending_index(self):
        with pytest.raises(InvalidInput, match="decoder 1"):
            build_distance_matrix(rows(vec(1, 0), vec(0, 0)))

    def test_too_few(self):
        with pytest.raises(InvalidInput):
            build_distance_matrix(rows(vec(1, 0)))
        with pytest.raises(InvalidInput, match="^need at least two decoders, got 1$"):
            cluster_to_two(matrix([[0.0]]))

    def test_validation_rejects_asymmetry_and_bad_range(self):
        with pytest.raises(InvalidInput):
            matrix([[0, 1], [0.5, 0]])
        with pytest.raises(InvalidInput):
            matrix([[0, 3], [3, 0]])
        # the range is closed at both ends, and one ulp outside it is refused
        assert matrix([[0, 2], [2, 0]]).entries[0, 1] == 2.0
        for outside in (np.nextafter(2.0, 3.0), -np.nextafter(0.0, 1.0)):
            with pytest.raises(InvalidInput, match=r"distances must lie in \[0, 2\]"):
                matrix([[0, outside], [outside, 0]])
        with pytest.raises(InvalidInput):
            matrix([[0.5, 1], [1, 0]])
        with pytest.raises(InvalidInput, match=r"must be square, got \(2, 3\)"):
            matrix([[0, 1, 1], [1, 0, 1]])
        with pytest.raises(InvalidInput, match=r"must be square, got \(4,\)"):
            matrix([0, 1, 1, 0])

    def test_scipy_cdist_oracle(self):
        # an independent formula: scipy's cosine cdist, clipped to [0, 2],
        # on uploads with scaled duplicates and antiparallel rows
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            dim = int(rng.integers(1, 34))
            values = rng.normal(size=(n, dim))
            for k in rng.choice(n, size=n // 3, replace=False):
                sign = rng.choice([-1.0, 1.0])
                values[k] = sign * rng.uniform(0.01, 100.0) * values[rng.integers(n)]
            dm = build_distance_matrix(values)
            expected = np.clip(cdist(values, values, "cosine"), 0.0, 2.0)
            np.fill_diagonal(expected, 0.0)
            assert np.max(np.abs(dm.entries - expected)) <= 1e-12


class TestBitwiseOracles:
    """The whole-array kernels against the loops they replaced. A last-bit
    change in a distance reaches the golden digests only if it flips a
    merge; these compare every entry and every merge exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distances_and_merges_equal_the_replaced_loops(self, seed):
        for values in oracle_instances(seed, 50):
            dm = build_distance_matrix(values)
            assert dm.entries.tobytes() == oracle_distance_matrix(values).tobytes()
            assert_merges_equal_the_full_recompute(dm)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(5, 4), (17, 33), (64, 33)]))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_cosine(self, seed, shape):
        # every entry has the bits of its own pair's np.dot, so none depends
        # on the other decoders in the round
        n, dim = shape
        rng = np.random.default_rng(seed)
        values = np.stack([rng.normal(size=dim) for _ in range(n)])
        dm = build_distance_matrix(values)
        assert dm.entries.tobytes() == oracle_distance_matrix(values).tobytes()

    @pytest.mark.parametrize("seed", range(2))
    def test_tie_heavy_merges_equal_the_full_recompute(self, seed):
        # entries from {0, 0.5, 1, 1.5, 2}: most argmins are ties
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            n = int(rng.integers(2, 130))
            m = np.triu(rng.integers(0, 5, size=(n, n)) / 2.0, k=1)
            assert_merges_equal_the_full_recompute(DistanceMatrix(m + m.T))


class TestClusterAssignment:
    def test_index_list_orientation(self):
        ca = ClusterAssignment.from_members(4, [0, 2])
        assert ca.index_list == (0, 1, 0, 1)
        assert ca.members_0 == (0, 2)
        assert ca.members_1 == (1, 3)

    def test_rejects_single_block(self):
        with pytest.raises(InvalidInput):
            ClusterAssignment((0, 0, 0))
        with pytest.raises(InvalidInput):
            ClusterAssignment((1,))
        with pytest.raises(InvalidInput):
            ClusterAssignment(())

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInput):
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
        decoders = rows(vec(1, 0), vec(1, 0.01), vec(0, 1), vec(0.01, 1))
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
        merges = cluster_to_two(DistanceMatrix(entries)).merges
        assert [set(first) | set(second) for first, second, _ in merges] == [
            {0, 1}, {0, 1, 2}]

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            dm = random_matrix(rng, n)
            ca = cluster_to_two(dm)
            merges = ca.merges
            oracle_clusters, oracle_merges = oracle_merge_to_two(dm.entries, n)
            assert len(merges) == len(oracle_merges)
            for (first, second, linkage), (a, b, link) in zip(merges, oracle_merges):
                assert {frozenset(first), frozenset(second)} == {a, b}
                assert linkage == pytest.approx(link, abs=1e-12)
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
            ca = cluster_to_two(dm)
            labels = fcluster(
                linkage(squareform(dm.entries, checks=False), method="average"),
                t=2, criterion="maxclust",
            )
            assert ca.index_list == tuple(0 if v == labels[0] else 1 for v in labels)
            assert ca == cluster_to_two(dm)
            assert len(ca.merges) == n - 2
            for first, second, link in ca.merges:
                assert link == pytest.approx(
                    oracle_linkage(dm.entries, first, second), abs=1e-12
                )

    def test_determinism(self):
        rng = np.random.default_rng(3)
        dm = random_matrix(rng, 6)
        assert cluster_to_two(dm).index_list == cluster_to_two(dm).index_list
