"""Property-based checks of the fixed-zero 2-means threshold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kmeans import fixed_zero_two_means

non_negative_arrays = arrays(
    dtype=np.float64,
    shape=st.integers(0, 200),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


@given(values=non_negative_arrays)
@settings(max_examples=100, deadline=None)
def test_cluster_sizes_partition(values):
    result = fixed_zero_two_means(values)
    assert result.n_zero_cluster + result.n_upper_cluster == values.size


@given(values=non_negative_arrays)
@settings(max_examples=100, deadline=None)
def test_threshold_within_data_range(values):
    result = fixed_zero_two_means(values)
    if values.size == 0 or result.n_zero_cluster == 0:
        assert result.threshold == 0.0
    else:
        assert 0.0 <= result.threshold <= float(values.max())


@given(values=non_negative_arrays)
@settings(max_examples=100, deadline=None)
def test_threshold_is_a_data_point_or_zero(values):
    result = fixed_zero_two_means(values)
    if result.n_zero_cluster > 0:
        assert np.any(np.isclose(values, result.threshold))
    else:
        assert result.threshold == 0.0


@given(values=non_negative_arrays)
@settings(max_examples=100, deadline=None)
def test_split_separates_clusters(values):
    """Everything in the zero cluster is <= everything in the upper cluster."""
    result = fixed_zero_two_means(values)
    if 0 < result.n_zero_cluster < values.size:
        ordered = np.sort(values)
        low_max = ordered[result.n_zero_cluster - 1]
        high_min = ordered[result.n_zero_cluster]
        assert low_max <= high_min
        assert result.threshold == low_max


@given(values=non_negative_arrays, scale=st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_scale_equivariance(values, scale):
    """Scaling every value scales the threshold: the split is shape-based."""
    base = fixed_zero_two_means(values)
    scaled = fixed_zero_two_means(values * scale)
    assert scaled.n_zero_cluster == base.n_zero_cluster
    assert np.isclose(scaled.threshold, base.threshold * scale, atol=1e-9)


@given(values=non_negative_arrays)
@settings(max_examples=60, deadline=None)
def test_invariant_to_input_order(values):
    rng = np.random.default_rng(0)
    shuffled = values.copy()
    rng.shuffle(shuffled)
    a = fixed_zero_two_means(values)
    b = fixed_zero_two_means(shuffled)
    assert a.threshold == b.threshold
    assert a.n_zero_cluster == b.n_zero_cluster


@given(values=non_negative_arrays)
@settings(max_examples=100, deadline=None)
def test_overwrite_input_sorts_in_place_to_the_same_result(values):
    """``overwrite_input=True`` clusters the same as the copying call and
    sorts its input in place; the default leaves its input bit for bit
    unchanged."""
    original = values.copy()
    expected = fixed_zero_two_means(values)
    assert values.tobytes() == original.tobytes()
    got = fixed_zero_two_means(values, overwrite_input=True)
    assert repr(got) == repr(expected)
    if got.iterations:
        # Past the empty and all-equal early exits, the input is sorted.
        assert values.tobytes() == np.sort(original).tobytes()
    else:
        assert values.tobytes() == original.tobytes()


def test_overwrite_input_leaves_a_converted_input_alone():
    """A list or non-float64 input is converted to a private copy, so
    nothing the caller holds is sorted."""
    values = np.array([5, 1, 4, 0, 3], dtype=np.int64)
    listed = [0.5, 0.1, 0.4, 0.0, 0.3]
    reference = fixed_zero_two_means(values.astype(np.float64))
    assert repr(fixed_zero_two_means(values, overwrite_input=True)) == repr(reference)
    assert values.tolist() == [5, 1, 4, 0, 3]
    fixed_zero_two_means(listed, overwrite_input=True)
    assert listed == [0.5, 0.1, 0.4, 0.0, 0.3]
