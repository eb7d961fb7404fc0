"""Unit tests for cached sufficient statistics and dirty-node updates.

Covers the :class:`SufficientStats` arithmetic itself plus the dirty/clean
split of :meth:`Tends.partial_fit`: a masked batch touching only one
community must leave the other community's parent sets untouched and skip
their searches entirely, and degenerate batches (empty, all-infected,
τ-flipping) must be absorbed gracefully and stay bit-identical to a
one-shot refit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import SufficientStats
from repro.core.tends import Tends
from repro.exceptions import ConfigurationError, DataError, InferenceError
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _random_statuses(beta, n, seed, mask_fraction=0.0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(beta, n), dtype=np.uint8)
    mask = None
    if mask_fraction:
        mask = rng.random((beta, n)) >= mask_fraction
    return StatusMatrix(data, mask)


class TestSufficientStats:
    def test_from_statuses_matches_matrix_counts(self):
        statuses = _random_statuses(30, 6, seed=0)
        stats = SufficientStats.from_statuses(statuses)
        joints = oracle.joint_counts(statuses)
        for key in ("11", "10", "01", "00"):
            assert np.array_equal(stats.counts[key], joints[key])
        assert np.array_equal(stats.infected, statuses.infection_counts())
        assert stats.beta == 30
        assert stats.n_nodes == 6
        assert not stats.has_missing

    @pytest.mark.parametrize("mask_fraction", [0.0, 0.3])
    def test_updated_equals_recount_of_concatenation(self, mask_fraction):
        first = _random_statuses(20, 5, seed=1, mask_fraction=mask_fraction)
        second = _random_statuses(13, 5, seed=2, mask_fraction=mask_fraction)
        incremental = SufficientStats.from_statuses(first).updated(second)
        recounted = SufficientStats.from_statuses(first.append(second))
        assert incremental.equals(recounted)
        assert incremental.checksum() == recounted.checksum()

    def test_merged_is_order_sensitive_only_in_nothing(self):
        a = SufficientStats.from_statuses(_random_statuses(9, 4, seed=3))
        b = SufficientStats.from_statuses(_random_statuses(7, 4, seed=4))
        assert a.merged(b).equals(b.merged(a))

    def test_empty_batch_returns_self(self):
        stats = SufficientStats.from_statuses(_random_statuses(10, 4, seed=5))
        empty = StatusMatrix(np.empty((0, 4), dtype=np.uint8))
        assert stats.updated(empty) is stats

    def test_updated_is_copy_on_write(self):
        stats = SufficientStats.from_statuses(_random_statuses(10, 4, seed=6))
        before = stats.checksum()
        stats.updated(_random_statuses(5, 4, seed=7))
        assert stats.checksum() == before

    def test_node_count_mismatch_raises(self):
        stats = SufficientStats.from_statuses(_random_statuses(10, 4, seed=8))
        with pytest.raises(DataError):
            stats.updated(_random_statuses(5, 6, seed=9))
        with pytest.raises(DataError):
            stats.merged(
                SufficientStats.from_statuses(_random_statuses(5, 6, seed=9))
            )

    def test_mi_matrix_matches_from_scratch_estimate(self):
        from repro.core.imi import infection_mi_matrix, traditional_mi_matrix

        for mask_fraction in (0.0, 0.25):
            statuses = _random_statuses(
                40, 6, seed=10, mask_fraction=mask_fraction
            )
            stats = SufficientStats.from_statuses(statuses)
            for kind, estimate, reference in (
                ("infection", infection_mi_matrix, oracle.infection_mi_matrix),
                ("traditional", traditional_mi_matrix, oracle.traditional_mi_matrix),
            ):
                assert np.array_equal(stats.mi_matrix(kind), estimate(statuses))
                assert np.array_equal(stats.mi_matrix(kind), reference(statuses))
        with pytest.raises(DataError):
            stats.mi_matrix("nonsense")

    def test_zero_beta_mi_refused(self):
        empty = SufficientStats.from_statuses(
            StatusMatrix(np.empty((0, 3), dtype=np.uint8))
        )
        with pytest.raises(DataError):
            empty.mi_terms()

    def test_checksum_changes_with_counts(self):
        stats = SufficientStats.from_statuses(_random_statuses(10, 4, seed=11))
        updated = stats.updated(_random_statuses(3, 4, seed=12))
        assert stats.checksum() != updated.checksum()

    def test_equals_rejects_different_shapes_and_types(self):
        stats = SufficientStats.from_statuses(_random_statuses(10, 4, seed=13))
        other = SufficientStats.from_statuses(_random_statuses(10, 5, seed=13))
        assert not stats.equals(other)
        assert not stats.equals("not stats")


def _two_community_history(beta, seed):
    """12 nodes in two independent 6-node communities: within a community
    every node copies the community's coin flip, across communities the
    flips are independent."""
    rng = np.random.default_rng(seed)
    flips_a = rng.integers(0, 2, size=(beta, 1), dtype=np.uint8)
    flips_b = rng.integers(0, 2, size=(beta, 1), dtype=np.uint8)
    return StatusMatrix(
        np.hstack([np.repeat(flips_a, 6, axis=1), np.repeat(flips_b, 6, axis=1)])
    )


class TestDirtyNodeUpdates:
    #: Explicit τ so candidate sets depend only on each node's own MI row
    #: (an auto-selected τ would drift with every batch and dirty all
    #: nodes through global threshold movement).
    CONFIG = dict(threshold=0.05, audit="ignore")

    def test_masked_batch_touching_one_community_skips_the_other(self):
        history = _two_community_history(40, seed=0)
        estimator = Tends(trace=True, **self.CONFIG)
        first = estimator.fit(history)

        # A batch observing only community A (columns 0-5).
        rng = np.random.default_rng(1)
        batch_flips = rng.integers(0, 2, size=(10, 1), dtype=np.uint8)
        batch_data = np.hstack(
            [np.repeat(batch_flips, 6, axis=1), np.zeros((10, 6), np.uint8)]
        )
        batch_mask = np.zeros((10, 12), dtype=np.bool_)
        batch_mask[:, :6] = True
        batch = StatusMatrix(batch_data, batch_mask)

        result = estimator.partial_fit(batch)

        # Community B (nodes 6-11) is provably unaffected: warm-started,
        # searches skipped, parent sets bit-identical.
        assert result.update.clean_nodes == tuple(range(6, 12))
        assert set(result.update.dirty_nodes) <= set(range(6))
        assert result.parent_sets[6:] == first.parent_sets[6:]
        counters = result.telemetry.metrics["counters"]
        assert counters["tends_update_searches_skipped_total"] == 6
        assert counters["tends_update_nodes_clean_total"] == 6
        assert counters["tends_update_nodes_dirty_total"] == len(
            result.update.dirty_nodes
        )

        # And the skip is exactness-preserving: a one-shot fit on the
        # concatenated masked history agrees bit for bit.
        full = Tends(**self.CONFIG).fit(history.append(batch))
        assert result.parent_sets == full.parent_sets
        assert np.array_equal(result.mi_matrix, full.mi_matrix)
        assert result.threshold == full.threshold

    def test_empty_batch_is_a_no_op_update(self):
        history = _two_community_history(30, seed=2)
        estimator = Tends(**self.CONFIG)
        first = estimator.fit(history)
        result = estimator.partial_fit(np.empty((0, 12), dtype=np.uint8))
        assert result.update.n_dirty == 0
        assert result.update.n_skipped == 12
        assert result.update.batch_beta == 0
        assert not result.update.threshold_changed
        assert result.parent_sets == first.parent_sets
        assert np.array_equal(result.mi_matrix, first.mi_matrix)
        assert estimator.model.beta == 30

    def test_all_infected_batch_handled_gracefully(self):
        history = _two_community_history(30, seed=3)
        estimator = Tends(**self.CONFIG)
        estimator.fit(history)
        batch = StatusMatrix(np.ones((8, 12), dtype=np.uint8))
        result = estimator.partial_fit(batch)
        full = Tends(**self.CONFIG).fit(history.append(batch))
        assert result.parent_sets == full.parent_sets
        assert np.array_equal(result.mi_matrix, full.mi_matrix)
        # Unmasked batches observe every node, so nothing can be skipped.
        assert result.update.n_dirty == 12

    def test_tau_flipping_batch_stays_equivalent(self):
        # Auto-selected τ: a noise batch moves the whole MI distribution
        # and with it the 2-means threshold — every node goes dirty, and
        # the result still matches a full refit bit for bit.
        history = _two_community_history(40, seed=4)
        estimator = Tends(audit="ignore")
        first = estimator.fit(history)
        rng = np.random.default_rng(5)
        noise = StatusMatrix(
            rng.integers(0, 2, size=(25, 12), dtype=np.uint8)
        )
        result = estimator.partial_fit(noise)
        assert result.update.threshold_changed
        assert result.threshold != first.threshold
        full = Tends(audit="ignore").fit(history.append(noise))
        assert result.threshold == full.threshold
        assert result.parent_sets == full.parent_sets
        assert np.array_equal(result.mi_matrix, full.mi_matrix)

    def test_partial_fit_requires_a_fitted_model(self):
        with pytest.raises(InferenceError):
            Tends().partial_fit(np.zeros((3, 4), dtype=np.uint8))

    def test_bootstrap_configs_are_refused(self):
        statuses = _random_statuses(20, 5, seed=6)
        for config in (dict(threshold="stable"), dict(bootstrap_samples=10)):
            estimator = Tends(audit="ignore", **config)
            estimator.fit(statuses)
            assert estimator.model is None
            with pytest.raises(ConfigurationError):
                estimator.partial_fit(statuses)

    def test_node_count_mismatch_refused(self):
        estimator = Tends(**self.CONFIG)
        estimator.fit(_random_statuses(20, 5, seed=7))
        with pytest.raises(DataError):
            estimator.partial_fit(np.zeros((3, 7), dtype=np.uint8))

    def test_missing_policy_applies_to_batches(self):
        statuses = _random_statuses(20, 5, seed=8)
        masked_batch = _random_statuses(6, 5, seed=9, mask_fraction=0.4)

        refusing = Tends(audit="ignore", missing="refuse")
        refusing.fit(statuses)
        with pytest.raises(DataError):
            refusing.partial_fit(masked_batch)

        zero_filling = Tends(audit="ignore", missing="zero-fill")
        zero_filling.fit(statuses)
        result = zero_filling.partial_fit(masked_batch)
        full = Tends(audit="ignore", missing="zero-fill").fit(
            statuses.append(masked_batch.filled(0))
        )
        assert result.parent_sets == full.parent_sets
        assert np.array_equal(result.mi_matrix, full.mi_matrix)

    def test_update_emits_spans(self):
        estimator = Tends(trace=True, **self.CONFIG)
        estimator.fit(_two_community_history(30, seed=10))
        result = estimator.partial_fit(np.ones((4, 12), dtype=np.uint8))
        names = result.telemetry.span_names()
        for expected in (
            "tends.update",
            "tends.stats",
            "tends.imi",
            "tends.threshold",
            "tends.diff",
            "tends.search",
        ):
            assert expected in names
