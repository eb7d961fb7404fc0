"""Fixed-zero 2-means threshold selection (Algorithm 1, line 5)."""

import numpy as np
import pytest

from repro.core.kmeans import fixed_zero_two_means
from repro.core.tends import Tends
from repro.exceptions import DataError


class TestDegenerateInputs:
    def test_empty(self):
        result = fixed_zero_two_means(np.array([]))
        assert result.threshold == 0.0
        assert result.n_zero_cluster == 0
        assert result.n_upper_cluster == 0

    def test_all_equal(self):
        result = fixed_zero_two_means(np.full(10, 0.5))
        assert result.threshold == 0.0
        assert result.n_upper_cluster == 10

    def test_all_zero(self):
        result = fixed_zero_two_means(np.zeros(10))
        assert result.threshold == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            fixed_zero_two_means(np.array([0.1, -0.2]))

    def test_tiny_values_split_like_their_multiples(self):
        # A spread of 9e-12 once counted as "all equal" below an absolute
        # 1e-12 tolerance once scaled by 0.11, but not before.
        values = np.array([8.94302692e-12, 0.0])
        for scale in (1.0, 0.109375, 1e-6):
            result = fixed_zero_two_means(values * scale)
            assert (result.n_zero_cluster, result.n_upper_cluster) == (1, 1)
            assert result.threshold == 0.0

    def test_single_value(self):
        result = fixed_zero_two_means(np.array([0.7]))
        assert result.threshold == 0.0
        assert result.n_upper_cluster == 1


class TestBimodalSplit:
    def test_clean_split(self):
        values = np.concatenate([np.full(50, 0.01), np.full(10, 0.5)])
        result = fixed_zero_two_means(values)
        assert result.threshold == pytest.approx(0.01)
        assert result.n_zero_cluster == 50
        assert result.n_upper_cluster == 10
        assert result.upper_centroid == pytest.approx(0.5)

    def test_noisy_bimodal(self):
        rng = np.random.default_rng(0)
        low = np.abs(rng.normal(0.0, 0.005, 500))
        high = rng.normal(0.4, 0.05, 60)
        result = fixed_zero_two_means(np.concatenate([low, high]))
        assert 0.0 < result.threshold < 0.2
        assert result.n_upper_cluster == pytest.approx(60, abs=5)

    def test_threshold_is_member_of_zero_cluster(self):
        values = np.array([0.01, 0.02, 0.03, 0.5, 0.6])
        result = fixed_zero_two_means(values)
        assert result.threshold in values
        assert result.threshold < result.upper_centroid / 2

    def test_accepts_2d_input(self):
        values = np.array([[0.01, 0.02], [0.5, 0.6]])
        result = fixed_zero_two_means(values)
        assert result.n_zero_cluster + result.n_upper_cluster == 4

    def test_converges_quickly(self):
        rng = np.random.default_rng(1)
        values = np.abs(rng.normal(0, 0.1, 1000))
        result = fixed_zero_two_means(values)
        assert result.iterations < 50

    def test_cluster_counts_sum(self):
        rng = np.random.default_rng(2)
        values = rng.random(321)
        result = fixed_zero_two_means(values)
        assert result.n_zero_cluster + result.n_upper_cluster == 321


class TestInputUntouched:
    def test_input_is_neither_sorted_nor_written(self):
        rng = np.random.default_rng(3)
        values = rng.random(257)
        before = values.copy()
        fixed_zero_two_means(values)
        assert np.array_equal(values, before)


class TestSelectThreshold:
    """``Tends._select_threshold`` clusters the bands the MI pass
    collected and frees them before the clustering copies the sample,
    so two copies of the sample are alive at a time, not three."""

    def test_bands_equal_their_concatenation_and_are_freed(self):
        rng = np.random.default_rng(4)
        bands = [rng.random(size) ** 3 for size in (40, 0, 17, 90)]
        expected = fixed_zero_two_means(np.concatenate(bands))
        sample = list(bands)
        tau, clustering = Tends(threshold_scale=1.5)._select_threshold(sample)
        assert clustering == expected
        assert tau == expected.threshold * 1.5
        assert sample == []
