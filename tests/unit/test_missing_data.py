"""Missing-data-aware estimation: pairwise-complete counts, policies,
and the clean-data equality guarantee.

The load-bearing tests here are the golden-fixture equality ones: on
complete (mask-free) data, every ``missing=`` policy must reproduce the
frozen golden topology bit-for-bit — proving the mask-aware code paths
left the clean path untouched.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import TendsConfig
from repro.core.imi import infection_mi_matrix, traditional_mi_matrix
from repro.core.scoring import delta_i, family_counts
from repro.core.tends import Tends
from repro.exceptions import ConfigurationError, DataError
from repro.graphs import io as graph_io
from repro.robustness import missing_at_random
from repro.simulation import io as sim_io
from repro.simulation.statuses import StatusMatrix

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def golden_statuses() -> StatusMatrix:
    return sim_io.read_statuses_csv(DATA_DIR / "golden_statuses.csv")


@pytest.fixture(scope="module")
def golden_edges():
    return graph_io.read_edge_list(DATA_DIR / "golden_edges.txt")


class TestCleanDataEquality:
    """Acceptance criterion: clean-data inference is identical under
    every missing policy's default path."""

    @pytest.mark.parametrize("policy", ["pairwise", "refuse", "zero-fill"])
    def test_golden_fixture_identical_under_all_policies(
        self, golden_statuses, golden_edges, policy
    ):
        result = Tends(missing=policy).fit(golden_statuses)
        frozen_threshold = float(
            (DATA_DIR / "golden_threshold.txt").read_text().strip()
        )
        assert result.graph.edge_set() == golden_edges.edge_set()
        assert result.threshold == pytest.approx(frozen_threshold, rel=1e-12, abs=0.0)

    def test_all_observed_mask_is_normalised_away(self, golden_statuses):
        mask = np.ones(golden_statuses.values.shape, dtype=bool)
        masked = StatusMatrix(golden_statuses.values, mask)
        assert masked.mask is None
        assert masked == golden_statuses

    def test_imi_identical_under_all_true_mask(self, golden_statuses):
        mask = np.ones(golden_statuses.values.shape, dtype=bool)
        masked = StatusMatrix(golden_statuses.values, mask)
        np.testing.assert_array_equal(
            infection_mi_matrix(masked), infection_mi_matrix(golden_statuses)
        )


class TestPairwiseCompleteImi:
    def test_uses_only_jointly_observed_rows(self):
        data = np.array(
            [[1, 1], [0, 0], [1, 0], [0, 1], [1, 1], [0, 0]], dtype=int
        )
        mask = np.ones_like(data, dtype=bool)
        mask[4, 0] = False  # row 4 missing for node 0
        mask[5, 1] = False  # row 5 missing for node 1
        masked = StatusMatrix(np.where(mask, data, 0), mask)
        # Pairwise-complete estimate == dropping the incomplete rows.
        complete = StatusMatrix(data[:4])
        for function in (infection_mi_matrix, traditional_mi_matrix):
            np.testing.assert_allclose(
                function(masked)[0, 1], function(complete)[0, 1], atol=1e-12
            )

    def test_fully_unobserved_pair_is_finite(self):
        data = np.zeros((5, 3), dtype=int)
        mask = np.ones_like(data, dtype=bool)
        mask[:, 2] = False
        masked = StatusMatrix(data, mask)
        mi = infection_mi_matrix(masked)
        assert np.isfinite(mi).all()
        assert mi[0, 2] == 0.0 and mi[2, 1] == 0.0

    def test_mask_perturbs_estimate_relative_to_zero_fill(self):
        rng = np.random.default_rng(8)
        clean = StatusMatrix((rng.random((120, 6)) < 0.4).astype(int))
        record = missing_at_random(clean, 0.3, seed=2)
        pairwise_mi = infection_mi_matrix(record.statuses)
        zero_fill_mi = infection_mi_matrix(record.statuses.filled(0))
        assert not np.allclose(pairwise_mi, zero_fill_mi)


class TestFamilyCompleteScoring:
    def test_family_counts_restrict_to_complete_rows(self):
        rng = np.random.default_rng(4)
        data = (rng.random((40, 4)) < 0.5).astype(int)
        mask = np.ones_like(data, dtype=bool)
        mask[10:20, 1] = False  # parent 1 unobserved on rows 10..19
        masked = StatusMatrix(np.where(mask, data, 0), mask)
        complete = StatusMatrix(np.vstack([data[:10], data[20:]]))
        got = family_counts(masked, child=0, parents=(1, 2))
        want = family_counts(complete, child=0, parents=(1, 2))
        assert got.beta == want.beta
        np.testing.assert_array_equal(got.totals, want.totals)
        np.testing.assert_array_equal(got.infected, want.infected)

    def test_delta_uses_child_observed_rows_only(self):
        rng = np.random.default_rng(4)
        data = (rng.random((40, 4)) < 0.5).astype(int)
        mask = np.ones_like(data, dtype=bool)
        mask[:15, 0] = False
        masked = StatusMatrix(np.where(mask, data, 0), mask)
        complete = StatusMatrix(data[15:])
        assert delta_i(masked, 0) == pytest.approx(delta_i(complete, 0))

    def test_never_observed_child_degrades_gracefully(self):
        data = np.zeros((10, 3), dtype=int)
        mask = np.ones_like(data, dtype=bool)
        mask[:, 0] = False
        masked = StatusMatrix(data, mask)
        assert delta_i(masked, 0) == 0.0


class TestMissingPolicies:
    @pytest.fixture(scope="class")
    def masked_statuses(self) -> StatusMatrix:
        rng = np.random.default_rng(6)
        clean = StatusMatrix((rng.random((100, 8)) < 0.4).astype(int))
        return missing_at_random(clean, 0.2, seed=3).statuses

    def test_refuse_raises_on_masked_input(self, masked_statuses):
        with pytest.raises(DataError, match="missing"):
            Tends(missing="refuse", audit="ignore").fit(masked_statuses)

    def test_zero_fill_matches_explicit_fill(self, masked_statuses):
        by_policy = Tends(missing="zero-fill", audit="ignore").fit(masked_statuses)
        by_hand = Tends(audit="ignore").fit(masked_statuses.filled(0))
        assert by_policy.graph.edge_set() == by_hand.graph.edge_set()
        assert by_policy.threshold == by_hand.threshold

    def test_pairwise_and_zero_fill_diverge_on_masked_input(self, masked_statuses):
        pairwise = Tends(audit="ignore").fit(masked_statuses)
        zero_fill = Tends(missing="zero-fill", audit="ignore").fit(masked_statuses)
        assert pairwise.threshold != zero_fill.threshold

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            TendsConfig(missing="drop-everything")


class TestStableThresholdAndConfidence:
    @pytest.fixture(scope="class")
    def statuses(self) -> StatusMatrix:
        rng = np.random.default_rng(12)
        data = (rng.random((120, 6)) < 0.35).astype(int)
        data[:, 1] = np.where(rng.random(120) < 0.85, data[:, 0], data[:, 1])
        return StatusMatrix(data)

    def test_stable_threshold_is_deterministic(self, statuses):
        first = Tends(threshold="stable", bootstrap_samples=30, audit="ignore").fit(statuses)
        second = Tends(threshold="stable", bootstrap_samples=30, audit="ignore").fit(statuses)
        assert first.graph.edge_set() == second.graph.edge_set()
        assert first.edge_confidence == second.edge_confidence

    def test_stable_edges_clear_ci_lower_bound(self, statuses):
        stable = Tends(threshold="stable", bootstrap_samples=30, audit="ignore").fit(statuses)
        lower, _ = stable.imi_bootstrap.ci()
        for parent, child in stable.graph.edge_set():
            # The screening rule: an inferred edge's pair survived the CI
            # check, so its lower bound clears τ.
            assert lower[parent, child] > stable.threshold

    def test_edge_confidence_reported_per_edge(self, statuses):
        result = Tends(threshold="stable", bootstrap_samples=30, audit="ignore").fit(statuses)
        assert result.edge_confidence is not None
        assert set(result.edge_confidence) == result.graph.edge_set()
        for value in result.edge_confidence.values():
            assert 0.0 <= value <= 1.0
        assert result.imi_bootstrap is not None
        assert result.imi_bootstrap.n_samples == 30
        assert "bootstrap" in result.stage_seconds

    def test_default_fit_has_no_confidence(self, statuses):
        result = Tends(audit="ignore").fit(statuses)
        assert result.edge_confidence is None
        assert result.imi_bootstrap is None

    def test_bootstrap_config_validation(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            TendsConfig(threshold="wobbly")
        with pytest.raises(ConfigurationError, match="bootstrap_samples"):
            TendsConfig(bootstrap_samples=0)
        with pytest.raises(ConfigurationError, match="ci_level"):
            TendsConfig(ci_level=1.5)
        with pytest.raises(ConfigurationError, match="bootstrap_seed"):
            TendsConfig(bootstrap_seed=-1)


class TestInputValidation:
    def test_non_binary_entry_names_offending_row(self):
        with pytest.raises(DataError) as excinfo:
            StatusMatrix([[0, 1], [2, 0]])
        message = str(excinfo.value)
        assert "must be 0 or 1" in message
        assert "row 1" in message and "column 0" in message

    def test_nan_entry_names_offending_row(self):
        with pytest.raises(DataError) as excinfo:
            StatusMatrix([[0.0, 1.0], [1.0, float("nan")]])
        message = str(excinfo.value)
        assert "row 1" in message and "column 1" in message

    def test_mask_shape_must_match(self):
        with pytest.raises(DataError, match="mask"):
            StatusMatrix([[0, 1]], np.ones((2, 2), dtype=bool))


class TestMaskRoundTrip:
    def test_npz_preserves_mask(self, tmp_path):
        rng = np.random.default_rng(2)
        clean = StatusMatrix((rng.random((20, 5)) < 0.4).astype(int))
        masked = missing_at_random(clean, 0.3, seed=1).statuses
        path = tmp_path / "statuses.npz"
        sim_io.write_statuses_npz(masked, path)
        restored = sim_io.read_statuses_npz(path)
        assert restored == masked
        assert restored.has_missing

    def test_npz_without_mask_stays_maskless(self, tmp_path):
        clean = StatusMatrix([[0, 1], [1, 0]])
        path = tmp_path / "clean.npz"
        sim_io.write_statuses_npz(clean, path)
        assert sim_io.read_statuses_npz(path).mask is None

    def test_csv_warns_when_mask_is_lost(self, tmp_path):
        from repro.exceptions import DataQualityWarning

        clean = StatusMatrix(np.ones((4, 3), dtype=int))
        masked = missing_at_random(clean, 0.5, seed=7).statuses
        path = tmp_path / "statuses.csv"
        with pytest.warns(DataQualityWarning, match="mask"):
            sim_io.write_statuses_csv(masked, path)
        assert sim_io.read_statuses_csv(path).mask is None
