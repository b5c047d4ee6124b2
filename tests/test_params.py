import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.errors import InvalidInput
from fedswap.params import (
    AggregationWeights,
    checked_vector,
    cosine_distances,
    weighted_average,
)


def pair_distance(a, b):
    """Cosine distance of one pair: the off-diagonal entry of cosine_distances."""
    return cosine_distances(np.stack((a, b)))[0, 1]


def vec(*values):
    return np.array(values, dtype=np.float64)


def rows(*vectors):
    return np.stack(vectors)


def finite_vectors(min_dim=1, max_dim=16):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=d, max_size=d
        )
    ).map(lambda vals: np.array(vals, dtype=np.float64)).filter(
        lambda a: np.linalg.norm(a) > 1e-6
    )


class TestCheckedVector:
    def test_values_are_readonly_copies(self):
        src = np.ones(3)
        decoder = checked_vector(src, "decoder")
        src[0] = 7.0
        assert decoder[0] == 1.0
        with pytest.raises(ValueError):
            decoder[0] = 2.0

    def test_rejects_empty_nan_and_2d(self):
        with pytest.raises(InvalidInput):
            checked_vector(np.array([]), "decoder")
        with pytest.raises(InvalidInput):
            checked_vector(np.array([1.0, np.nan]), "decoder")
        with pytest.raises(InvalidInput):
            checked_vector(np.array([1.0, np.inf]), "decoder")
        with pytest.raises(InvalidInput):
            checked_vector(np.ones((2, 2)), "decoder")

    def test_errors_name_the_decoder(self):
        with pytest.raises(InvalidInput, match="^initial decoder entries must be finite$"):
            checked_vector(vec(3.0, np.nan), "initial decoder")


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
        for bad in (np.ones(3), np.ones((2, 0)), np.ones((0, 3)), np.ones((2, 2, 2))):
            with pytest.raises(InvalidInput, match="must be an"):
                cosine_distances(bad)

    def test_overflowing_norm_names_the_decoder(self):
        # equal decoders used to come out at distance 2.0, with numpy warnings
        big = np.full(3, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoder 1 has norm inf, not a finite non-zero one$"):
                cosine_distances(rows(vec(1, 2, 3), big, big))

    def test_overflowing_dot_names_the_pair(self):
        # both norms are finite, but the pair's dot overflows
        a = vec(6.104282793167473e153, 9.965903859473683e153, 6.571742944683598e153)
        b = vec(6.104282793167471e153, 9.965903859473681e153, 6.571742944683602e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoders 1 and 2 have a non-finite cosine$"):
                cosine_distances(rows(vec(1, 2, 3), a, b))

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


class TestWeightedAverage:
    def test_unweighted_mean(self):
        out = weighted_average(
            rows(vec(2, 0), vec(0, 2)), AggregationWeights(np.array([0.5, 0.5]))
        )
        assert np.array_equal(out, [1.0, 1.0])

    def test_weighted_mean(self):
        out = weighted_average(
            rows(vec(4, 0), vec(0, 4)), AggregationWeights(np.array([0.25, 0.75]))
        )
        assert np.array_equal(out, [1.0, 3.0])

    def test_single_client_identity(self):
        out = weighted_average(rows(vec(1, 1)), AggregationWeights(np.array([1.0])))
        assert np.array_equal(out, [1.0, 1.0])

    def test_one_hot_returns_selected_decoder_exactly(self):
        rng = np.random.default_rng(0)
        decoders = rng.normal(size=(4, 5))
        for k in range(4):
            w = np.zeros(4)
            w[k] = 1.0
            out = weighted_average(decoders, AggregationWeights(w))
            assert np.array_equal(out, decoders[k])

    def test_empty_raises(self):
        with pytest.raises(InvalidInput):
            weighted_average(np.empty((0, 2)), AggregationWeights(np.array([1.0])))

    def test_row_and_weight_counts_must_agree(self):
        with pytest.raises(InvalidInput, match="^3 decoders but 2 weights$"):
            weighted_average(np.ones((3, 2)), AggregationWeights(np.array([0.5, 0.5])))
        with pytest.raises(InvalidInput, match="must be an"):
            weighted_average(vec(1, 0), AggregationWeights(np.array([0.5, 0.5])))

    def test_non_finite_result_raises(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInput,
                               match="^aggregated decoder entries must be finite$"):
                weighted_average(rows(vec(1, bad), vec(1, 2)),
                                 AggregationWeights(np.array([0.5, 0.5])))

    @pytest.mark.parametrize("dim", [1, 2, 33])
    def test_sums_rows_left_to_right_in_client_order(self, dim):
        # the round's aggregation must equal w_0 g_0 + w_1 g_1 + ... summed in
        # client order, bit for bit; np.add.reduce over the rows pairs the
        # terms in another order when D = 1, as the last assertion pins
        rng = np.random.default_rng(40 + dim)
        reduce_differs = 0
        for _ in range(200):
            n = int(rng.integers(2, 65))
            decoders = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            w = AggregationWeights.from_sizes(rng.integers(1, 2000, size=n).tolist())
            expected = 0.0
            for weight, row in zip(w.weights, decoders):
                expected = expected + weight * row
            out = weighted_average(decoders, w)
            assert out.tobytes() == expected.tobytes()
            assert not out.flags.writeable
            reduced = np.add.reduce(w.weights[:, None] * decoders, axis=0)
            reduce_differs += reduced.tobytes() != expected.tobytes()
        assert (reduce_differs > 0) == (dim == 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_output_is_coordinatewise_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 6))
        decoders = rng.normal(size=(k, dim))
        w = rng.dirichlet(np.ones(k))
        out = weighted_average(decoders, AggregationWeights(w))
        assert np.all(out >= decoders.min(axis=0) - 1e-12)
        assert np.all(out <= decoders.max(axis=0) + 1e-12)


class TestAggregationWeights:
    def test_from_sizes_exact_ratio(self):
        sizes = [2000, 2000, 2000, 500]
        w = AggregationWeights.from_sizes(sizes)
        total = sum(sizes)
        for wi, ni in zip(w.weights, sizes):
            assert wi == ni / total

    def test_rejects_negative_and_bad_sum(self):
        # a NaN weight used to pass: NaN is neither negative nor off the sum
        for bad in ([np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 1.0]):
            with pytest.raises(InvalidInput, match="^weights entries must be finite$"):
                AggregationWeights(np.array(bad))
        with pytest.raises(InvalidInput):
            AggregationWeights(np.array([-0.1, 1.1]))
        with pytest.raises(InvalidInput):
            AggregationWeights(np.array([0.4, 0.4]))
        with pytest.raises(InvalidInput):
            AggregationWeights.from_sizes([])
        with pytest.raises(InvalidInput):
            AggregationWeights.from_sizes([5, 0])

