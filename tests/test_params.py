import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedswap.errors import InvalidInput
from fedswap.params import (
    AggregationWeights,
    ParamVector,
    cosine_distances,
    weighted_average,
)


def pair_distance(a, b):
    """Cosine distance of one pair: the off-diagonal entry of cosine_distances."""
    return cosine_distances((a, b))[0, 1]


def vec(*values):
    return ParamVector(np.array(values, dtype=np.float64))


def finite_vectors(min_dim=1, max_dim=16):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=d, max_size=d
        )
    ).map(lambda vals: np.array(vals, dtype=np.float64)).filter(
        lambda a: np.linalg.norm(a) > 1e-6
    )


class TestParamVector:
    def test_values_are_readonly_copies(self):
        src = np.ones(3)
        pv = ParamVector(src)
        src[0] = 7.0
        assert pv.values[0] == 1.0
        with pytest.raises(ValueError):
            pv.values[0] = 2.0

    def test_rejects_empty_nan_and_2d(self):
        with pytest.raises(InvalidInput):
            ParamVector(np.array([]))
        with pytest.raises(InvalidInput):
            ParamVector(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInput):
            ParamVector(np.array([1.0, np.inf]))
        with pytest.raises(InvalidInput):
            ParamVector(np.ones((2, 2)))

    def test_dim(self):
        assert vec(3.0, 4.0).dim == 2


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

    def test_dim_mismatch_raises(self):
        with pytest.raises(InvalidInput):
            pair_distance(vec(1, 0), vec(1, 0, 0))

    def test_overflowing_norm_names_the_decoder(self):
        # equal decoders used to come out at distance 2.0, with numpy warnings
        big = ParamVector(np.full(3, 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoder 1 has norm inf, not a finite non-zero one$"):
                cosine_distances([vec(1, 2, 3), big, big])

    def test_overflowing_dot_names_the_pair(self):
        # both norms are finite, but the pair's dot overflows
        a = vec(6.104282793167473e153, 9.965903859473683e153, 6.571742944683598e153)
        b = vec(6.104282793167471e153, 9.965903859473681e153, 6.571742944683602e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput,
                               match=r"^decoders 1 and 2 have a non-finite cosine$"):
                cosine_distances([vec(1, 2, 3), a, b])

    @given(finite_vectors())
    def test_self_distance_is_zero(self, arr):
        assert abs(pair_distance(ParamVector(arr), ParamVector(arr))) <= 1e-12

    @given(finite_vectors(min_dim=4, max_dim=4), finite_vectors(min_dim=4, max_dim=4))
    def test_symmetry_and_range(self, a, b):
        pa, pb = ParamVector(a), ParamVector(b)
        d = pair_distance(pa, pb)
        assert d == pair_distance(pb, pa)
        assert 0.0 <= d <= 2.0

    @given(
        finite_vectors(min_dim=3, max_dim=8),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_positive_scale_invariance(self, a, c):
        b = a[::-1].copy() + 0.5
        if np.linalg.norm(b) <= 1e-6:
            b = b + 1.0
        pa, pb = ParamVector(a), ParamVector(b)
        d0 = pair_distance(pa, pb)
        d1 = pair_distance(ParamVector(c * a), pb)
        assert abs(d0 - d1) <= 1e-9

    def test_scale_invariance_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 12))
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            c = float(rng.uniform(0.01, 100.0))
            d0 = pair_distance(ParamVector(a), ParamVector(b))
            d1 = pair_distance(ParamVector(c * a), ParamVector(b))
            assert abs(d0 - d1) <= 1e-9


class TestWeightedAverage:
    def test_unweighted_mean(self):
        out = weighted_average(
            [vec(2, 0), vec(0, 2)], AggregationWeights(np.array([0.5, 0.5]))
        )
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_weighted_mean(self):
        out = weighted_average(
            [vec(4, 0), vec(0, 4)], AggregationWeights(np.array([0.25, 0.75]))
        )
        assert np.array_equal(out.values, [1.0, 3.0])

    def test_single_client_identity(self):
        out = weighted_average([vec(1, 1)], AggregationWeights(np.array([1.0])))
        assert np.array_equal(out.values, [1.0, 1.0])

    def test_one_hot_returns_selected_decoder_exactly(self):
        rng = np.random.default_rng(0)
        decoders = [ParamVector(rng.normal(size=5)) for _ in range(4)]
        for k in range(4):
            w = np.zeros(4)
            w[k] = 1.0
            out = weighted_average(decoders, AggregationWeights(w))
            assert np.array_equal(out.values, decoders[k].values)

    def test_empty_raises(self):
        with pytest.raises(InvalidInput):
            weighted_average([], AggregationWeights(np.array([1.0])))

    def test_dim_mismatch_raises(self):
        with pytest.raises(InvalidInput):
            weighted_average(
                [vec(1, 0), vec(1, 0, 0)], AggregationWeights(np.array([0.5, 0.5]))
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_output_is_coordinatewise_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 6))
        decoders = [ParamVector(rng.normal(size=dim)) for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        out = weighted_average(decoders, AggregationWeights(w)).values
        stacked = np.stack([d.values for d in decoders])
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)


class TestAggregationWeights:
    def test_from_sizes_exact_ratio(self):
        sizes = [2000, 2000, 2000, 500]
        w = AggregationWeights.from_sizes(sizes)
        total = sum(sizes)
        for wi, ni in zip(w.weights, sizes):
            assert wi == ni / total

    def test_rejects_negative_and_bad_sum(self):
        with pytest.raises(InvalidInput):
            AggregationWeights(np.array([-0.1, 1.1]))
        with pytest.raises(InvalidInput):
            AggregationWeights(np.array([0.4, 0.4]))
        with pytest.raises(InvalidInput):
            AggregationWeights.from_sizes([])
        with pytest.raises(InvalidInput):
            AggregationWeights.from_sizes([5, 0])

