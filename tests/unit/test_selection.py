"""Held-out threshold-scale selection."""

import numpy as np
import pytest

from repro.core.config import TendsConfig
from repro.core.selection import (
    predictive_log_likelihood,
    select_threshold_scale,
)
from repro.exceptions import ConfigurationError, DataError
from repro.simulation.statuses import StatusMatrix


def _coupled_statuses(beta: int = 120, seed: int = 0) -> StatusMatrix:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, beta)
    b = np.where(rng.random(beta) < 0.1, 1 - a, a)
    noise = rng.integers(0, 2, (beta, 2))
    return StatusMatrix(np.column_stack([a, b, noise]))


class TestPredictiveLogLikelihood:
    def test_true_parent_beats_no_parent(self):
        statuses = _coupled_statuses()
        train = statuses.subset(range(80))
        valid = statuses.subset(range(80, 120))
        with_parent = predictive_log_likelihood(
            train, valid, [[], [0], [], []]
        )
        without = predictive_log_likelihood(train, valid, [[], [], [], []])
        assert with_parent > without

    def test_random_parent_does_not_help_much(self):
        statuses = _coupled_statuses()
        train = statuses.subset(range(80))
        valid = statuses.subset(range(80, 120))
        junk = predictive_log_likelihood(train, valid, [[], [2], [], []])
        without = predictive_log_likelihood(train, valid, [[], [], [], []])
        assert junk <= without + 3.0  # noise parents buy nothing real

    def test_always_negative(self):
        statuses = _coupled_statuses()
        train = statuses.subset(range(60))
        valid = statuses.subset(range(60, 120))
        value = predictive_log_likelihood(train, valid, [[], [], [], []])
        assert value < 0

    def test_unseen_patterns_fall_back_to_marginal(self):
        train = StatusMatrix([[0, 0], [0, 1]])  # parent 0 always uninfected
        valid = StatusMatrix([[1, 1]])  # unseen parent pattern
        value = predictive_log_likelihood(train, valid, [[], [0]])
        assert np.isfinite(value)

    @pytest.mark.parametrize("parent", [-1, 4, 7])
    def test_parent_outside_the_nodes_rejected(self, parent):
        # -1 would wrap to node 3 scoring itself, 7 would raise a bare
        # IndexError from the status columns.
        statuses = _coupled_statuses()
        train = statuses.subset(range(80))
        valid = statuses.subset(range(80, 120))
        with pytest.raises(DataError, match="out of range"):
            predictive_log_likelihood(train, valid, [[], [], [], [parent]])

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            predictive_log_likelihood(
                StatusMatrix([[0, 1]]), StatusMatrix([[0, 1, 0]]), [[], []]
            )

    def test_parent_sets_length_checked(self):
        statuses = _coupled_statuses()
        with pytest.raises(DataError):
            predictive_log_likelihood(statuses, statuses, [[]])


class TestSelectThresholdScale:
    def test_returns_candidate_scale_and_full_fit(self):
        statuses = _coupled_statuses(beta=150)
        selection = select_threshold_scale(
            statuses, scales=(0.8, 1.0, 1.5), seed=0
        )
        assert selection.best_scale in (0.8, 1.0, 1.5)
        assert set(selection.scores) == {0.8, 1.0, 1.5}
        assert selection.result.graph.n_nodes == 4

    def test_best_scale_maximises_score(self):
        statuses = _coupled_statuses(beta=150)
        selection = select_threshold_scale(statuses, scales=(0.8, 1.2), seed=1)
        assert selection.scores[selection.best_scale] == max(
            selection.scores.values()
        )

    def test_strong_signal_still_recovered(self):
        statuses = _coupled_statuses(beta=200, seed=2)
        selection = select_threshold_scale(statuses, seed=3)
        edges = selection.result.graph.edge_set()
        assert (0, 1) in edges and (1, 0) in edges

    def test_respects_base_config(self):
        statuses = _coupled_statuses(beta=150)
        selection = select_threshold_scale(
            statuses,
            scales=(1.0,),
            config=TendsConfig(mi_kind="traditional"),
            seed=0,
        )
        assert selection.result.mi_matrix.min() >= 0.0  # traditional MI

    def test_empty_scales_rejected(self):
        with pytest.raises(ConfigurationError):
            select_threshold_scale(_coupled_statuses(), scales=())

    def test_degenerate_heldout_fraction_rejected(self):
        statuses = StatusMatrix([[0, 1], [1, 0]])
        with pytest.raises(ConfigurationError):
            select_threshold_scale(statuses, heldout_fraction=0.9)

    def test_deterministic_for_seed(self):
        statuses = _coupled_statuses(beta=150)
        a = select_threshold_scale(statuses, seed=7)
        b = select_threshold_scale(statuses, seed=7)
        assert a.best_scale == b.best_scale
        assert a.scores == b.scores