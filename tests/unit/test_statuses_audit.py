"""Observation audit + graceful degradation on degenerate status matrices.

The all-zero and all-one fixtures hit the paper's boundary cases head-on:
``N₁ = 0`` / ``N₂ = 0`` in the δ_i bound (Eq. 16–17) and zero-marginal
pairs in the IMI terms (Eq. 24–25).  The estimators must stay finite and
the audit must name every finding.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.imi import infection_mi_matrix, traditional_mi_matrix
from repro.core.scoring import delta_i, empty_set_score, size_bound
from repro.core.tends import Tends
from repro.exceptions import DataError, DataQualityWarning
from repro.simulation.statuses import (
    StatusAudit,
    StatusMatrix,
    validate_observations,
)


@pytest.fixture
def all_zero() -> StatusMatrix:
    """No diffusion ever spread: every N₂ marginal is zero."""
    return StatusMatrix(np.zeros((10, 4), dtype=np.int8))


@pytest.fixture
def all_one() -> StatusMatrix:
    """Every diffusion saturated: every N₁ marginal is zero."""
    return StatusMatrix(np.ones((10, 4), dtype=np.int8))


@pytest.fixture
def clean() -> StatusMatrix:
    """Every process partial, every node sometimes (not always) infected."""
    return StatusMatrix(
        [
            [1, 0, 1, 0],
            [0, 1, 1, 0],
            [1, 1, 0, 1],
            [0, 1, 0, 1],
        ]
    )


@pytest.fixture
def mixed_degenerate() -> StatusMatrix:
    """One empty process; nodes 1 and 3 never infected."""
    return StatusMatrix(
        [
            [0, 0, 0, 0],
            [1, 0, 1, 0],
            [0, 0, 1, 0],
            [1, 0, 1, 0],
        ]
    )


class TestAuditFindings:
    def test_clean_matrix_is_not_degenerate(self, clean):
        audit = validate_observations(clean, on_degenerate="ignore")
        assert isinstance(audit, StatusAudit)
        assert not audit.is_degenerate
        assert audit.findings() == []

    def test_all_zero_findings(self, all_zero):
        audit = validate_observations(all_zero, on_degenerate="ignore")
        assert audit.empty_processes == tuple(range(10))
        assert audit.never_infected_nodes == (0, 1, 2, 3)
        assert audit.saturated_processes == ()
        assert audit.always_infected_nodes == ()
        assert audit.is_degenerate

    def test_all_one_findings(self, all_one):
        audit = validate_observations(all_one, on_degenerate="ignore")
        assert audit.saturated_processes == tuple(range(10))
        assert audit.always_infected_nodes == (0, 1, 2, 3)
        assert audit.empty_processes == ()
        assert audit.is_degenerate

    def test_mixed_findings_name_each_case(self, mixed_degenerate):
        audit = validate_observations(mixed_degenerate, on_degenerate="ignore")
        assert audit.empty_processes == (0,)
        assert audit.saturated_processes == ()
        assert audit.never_infected_nodes == (1, 3)
        assert audit.always_infected_nodes == ()
        assert len(audit.findings()) == 2

    def test_findings_truncate_long_index_lists(self, all_zero):
        audit = validate_observations(all_zero, on_degenerate="ignore")
        finding = audit.findings()[0]
        assert finding.startswith("10 all-zero")
        assert ", ..." in finding


class TestAuditPolicies:
    def test_warn_emits_data_quality_warning(self, all_zero):
        with pytest.warns(DataQualityWarning, match="degenerate observations"):
            validate_observations(all_zero)

    def test_strict_raises_data_error(self, all_zero):
        with pytest.raises(DataError, match="never-infected"):
            validate_observations(all_zero, on_degenerate="strict")

    def test_ignore_is_silent(self, all_zero, recwarn):
        validate_observations(all_zero, on_degenerate="ignore")
        assert len(recwarn) == 0

    def test_unknown_policy_is_rejected(self, all_zero):
        with pytest.raises(DataError, match="on_degenerate"):
            validate_observations(all_zero, on_degenerate="explode")

    def test_clean_matrix_never_warns(self, clean, recwarn):
        validate_observations(clean)
        assert len(recwarn) == 0


class TestGracefulDegradationInEstimators:
    """Eq. 16–17 / 24–25 limits: finite everywhere on degenerate data."""

    @pytest.mark.parametrize("fixture", ["all_zero", "all_one"])
    def test_delta_and_bound_stay_finite(self, fixture, request):
        statuses = request.getfixturevalue(fixture)
        for child in range(statuses.n_nodes):
            delta = delta_i(statuses, child)
            assert math.isfinite(delta)
            assert math.isfinite(empty_set_score(statuses, child))
            assert math.isfinite(size_bound(statuses.n_nodes - 1, delta))

    @pytest.mark.parametrize("fixture", ["all_zero", "all_one"])
    def test_mi_matrices_stay_finite(self, fixture, request):
        statuses = request.getfixturevalue(fixture)
        for matrix in (
            infection_mi_matrix(statuses),
            traditional_mi_matrix(statuses),
        ):
            assert np.all(np.isfinite(matrix))

    @pytest.mark.parametrize("fixture", ["all_zero", "all_one"])
    def test_fit_warns_but_completes(self, fixture, request):
        statuses = request.getfixturevalue(fixture)
        with pytest.warns(DataQualityWarning):
            result = Tends().fit(statuses)
        # No pairwise signal — the only defensible topology is empty.
        assert result.n_edges == 0

    def test_fit_warning_names_the_callers_line(self, all_zero):
        # The audit runs inside Tends.fit, but the warning must point at
        # the line that called fit, here in this file.
        with pytest.warns(DataQualityWarning) as record:
            Tends().fit(all_zero)
        filenames = {
            w.filename for w in record if issubclass(w.category, DataQualityWarning)
        }
        assert filenames == {__file__}

    def test_fit_strict_audit_refuses_degenerate_data(self, all_zero):
        with pytest.raises(DataError, match="degenerate observations"):
            Tends(audit="strict").fit(all_zero)

    def test_fit_ignore_audit_is_silent(self, all_zero, recwarn):
        Tends(audit="ignore").fit(all_zero)
        assert not any(
            isinstance(w.message, DataQualityWarning) for w in recwarn.list
        )
