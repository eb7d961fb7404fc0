"""Integer-width regression suite for the count algebra.

Externally constructed statistics — a deserialised shard, a tile read
back from disk, a user-built :class:`SufficientStats` — may carry int32
counts.  Before the ``_accumulator`` promotion, ``merged()`` added them
with numpy's dtype rules, so two shards whose counts sum past 2³¹ − 1
silently wrapped negative.  These tests pin the fix: count algebra
always runs in int64 accumulators, whatever width the operands arrived
in — on the one stored plane of fully observed statistics and on the
four stored planes of masked ones, and in the planes
:func:`~repro.core.stats.derive_counts` rebuilds — and float operands
(the decayed-window path) pass through unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import SufficientStats, derive_counts, stored_count_keys
from repro.exceptions import DataError

#: A per-pair count close enough to INT32_MAX that one addition wraps.
NEAR_MAX = np.int32(2**31 - 10)


def _narrow_stats(n=3, value=NEAR_MAX, beta=None, masked=False, dtype=np.int32):
    """Statistics as a narrow-width producer would hand them over: every
    stored plane, ``infected`` and ``observed`` hold ``value``.  For the
    masked layout every pair is observed ``value`` times out of
    ``value + 1`` processes and ``n10`` and ``n01`` are 0, so the derived
    ``n00`` is ``value − value`` = 0."""
    if beta is None:
        beta = int(value) + 1 if masked else int(value)
    counts = {
        key: np.full((n, n), value, dtype=dtype)
        for key in stored_count_keys(masked)
    }
    if masked:
        counts["10"] = np.zeros((n, n), dtype=dtype)
        counts["01"] = np.zeros((n, n), dtype=dtype)
    return SufficientStats(
        counts=counts,
        infected=np.full(n, value, dtype=dtype),
        observed=np.full(n, value, dtype=dtype),
        beta=int(beta),
        has_missing=masked,
    )


def _int32_stats(n=3, value=NEAR_MAX, beta=2**31 - 10):
    return _narrow_stats(n, value, beta)


def _assert_merged_wide(shard, masked):
    merged = shard.merged(shard)
    expected = 2 * int(NEAR_MAX)
    assert expected > 2**31  # the sum genuinely exceeds int32
    assert tuple(merged.counts) == stored_count_keys(masked)
    for key, plane in merged.counts.items():
        assert plane.dtype == np.int64, key
        assert np.all(plane == (0 if key in ("10", "01") else expected)), key
    assert merged.infected.dtype == np.int64
    assert np.all(merged.infected == expected)
    assert np.all(merged.observed == expected)
    assert merged.beta == 2 * shard.beta


class TestMergedPromotion:
    def test_merge_of_int32_shards_does_not_wrap(self):
        _assert_merged_wide(_int32_stats(), masked=False)

    def test_merge_of_masked_int32_shards_does_not_wrap(self):
        # All four stored planes are promoted.
        _assert_merged_wide(_narrow_stats(masked=True), masked=True)

    def test_many_shard_accumulation_stays_exact(self):
        shard = _int32_stats(value=np.int32(2**30), beta=2**30)
        total = SufficientStats.zeros(3)
        for _ in range(8):
            total = total.merged(shard)
        assert np.all(total.counts["11"] == 8 * 2**30)  # = 2³³, > int32

    def test_mixed_width_operands_promote(self):
        wide = _int32_stats().merged(SufficientStats.zeros(3))
        assert wide.counts["11"].dtype == np.int64
        merged = wide.merged(_int32_stats())
        assert np.all(merged.counts["11"] == 2 * int(NEAR_MAX))

    def test_int16_operands_promote_too(self):
        small = _narrow_stats(
            n=2, value=30_000, beta=30_000, masked=True, dtype=np.int16
        )
        merged = small.merged(small)
        assert merged.counts["obs"].dtype == np.int64
        assert np.all(merged.counts["obs"] == 60_000)  # > int16 range
        assert merged.count_matrix("00").dtype == np.int64

    def test_clean_int32_shard_into_masked_layout_promotes(self):
        # The clean operand's derived planes (n10, n01, obs) join the
        # masked sum in int64 too.
        merged = _narrow_stats(masked=True).merged(_int32_stats())
        expected = 2 * int(NEAR_MAX)
        assert tuple(merged.counts) == stored_count_keys(True)
        for key, plane in merged.counts.items():
            assert plane.dtype == np.int64, key
        assert np.all(merged.counts["11"] == expected)
        assert np.all(merged.counts["obs"] == expected)
        assert np.all(merged.counts["10"] == 0)


class TestDerivedPlanePromotion:
    @pytest.mark.parametrize("masked", [False, True])
    def test_derived_planes_are_int64_from_narrow_inputs(self, masked):
        # A tile's stored planes arrive as uint8.
        stats = _narrow_stats(n=2, value=200, beta=250, masked=masked, dtype=np.uint8)
        planes = derive_counts(
            stats.counts,
            has_missing=masked,
            row_infected=stats.infected,
            col_infected=stats.infected,
            beta=stats.beta,
        )
        for key, plane in planes.items():
            assert plane.dtype == np.int64, key
        assert np.all(planes["00"] == (0 if masked else 50))
        assert np.all(planes["obs"] == (200 if masked else 250))


def _assert_subtracted_exact(shard, masked):
    remainder = shard.merged(shard).subtracted(shard)
    assert tuple(remainder.counts) == stored_count_keys(masked)
    for key, plane in remainder.counts.items():
        assert plane.dtype == np.int64, key
        assert np.all(plane == (0 if key in ("10", "01") else int(NEAR_MAX))), key
    assert remainder.beta == shard.beta


class TestSubtractedPromotion:
    def test_subtracting_int32_operands_is_exact(self):
        _assert_subtracted_exact(_int32_stats(), masked=False)

    def test_subtracting_masked_int32_operands_is_exact(self):
        _assert_subtracted_exact(_narrow_stats(masked=True), masked=True)

    def test_negative_guard_still_fires_after_promotion(self):
        small = _int32_stats(value=np.int32(5), beta=10)
        big = _int32_stats(value=np.int32(7), beta=10)
        with pytest.raises(DataError):
            small.subtracted(big)


class TestFloatPassThrough:
    def test_decayed_float_counts_are_not_promoted(self):
        n = 2
        decayed = SufficientStats(
            counts={"11": np.full((n, n), 0.5, dtype=np.float64)},
            infected=np.full(n, 0.5, dtype=np.float64),
            observed=np.full(n, 0.5, dtype=np.float64),
            beta=1,
            has_missing=False,
        )
        merged = decayed.merged(decayed)
        assert merged.counts["11"].dtype == np.float64
        assert np.all(merged.counts["11"] == 1.0)
