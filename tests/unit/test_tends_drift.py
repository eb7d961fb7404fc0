"""Unit tests for drift-aware ``Tends.partial_fit`` and self-healing.

The contracts under test, in decreasing order of load-bearing-ness:

* ``drift="ignore"`` is byte-for-byte today's ``partial_fit`` — same
  model fingerprint, no report;
* ``drift="detect"`` attaches a report but the model still accumulates
  exactly as ``"ignore"`` does;
* an adaptation with every node flagged is fingerprint-identical to a
  fresh :meth:`Tends.fit` on the recent window alone (the equivalence
  the self-healing path is built on);
* a partial adaptation re-searches only the affected nodes and keeps
  quiescent parent sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift import DriftConfig, DriftReport, PairDrift
from repro.core.tends import Tends
from repro.core.tiles import TiledSufficientStats
from repro.exceptions import ConfigurationError, InferenceError
from repro.graphs import erdos_renyi_digraph
from repro.simulation.engine import DiffusionSimulator
from repro.simulation.statuses import StatusMatrix


def _stream(n=24, beta=160, seed=5):
    graph = erdos_renyi_digraph(n, 0.12, seed=seed)
    return DiffusionSimulator(graph, seed=seed).run(beta=beta).statuses


def _shifted_stream(n=24, beta=160, seed=9):
    """A stream whose second half comes from a different graph."""
    first = DiffusionSimulator(
        erdos_renyi_digraph(n, 0.12, seed=seed), seed=seed
    ).run(beta=beta // 2).statuses
    second = DiffusionSimulator(
        erdos_renyi_digraph(n, 0.12, seed=seed + 1), seed=seed + 1
    ).run(beta=beta - beta // 2).statuses
    return first, second


class TestIgnoreMode:
    def test_ignore_is_bit_identical_to_plain_partial_fit(self):
        statuses = _stream()
        head = statuses.subset(range(0, 100))
        tail = statuses.subset(range(100, 160))

        plain = Tends()
        plain.fit(head)
        plain_result = plain.partial_fit(tail)

        flagged = Tends()
        flagged.fit(head)
        flagged_result = flagged.partial_fit(tail, drift="ignore")

        assert flagged.model.fingerprint() == plain.model.fingerprint()
        assert flagged_result.drift is None
        assert np.array_equal(plain_result.mi_matrix, flagged_result.mi_matrix)

    def test_unknown_mode_rejected(self):
        estimator = Tends()
        estimator.fit(_stream())
        with pytest.raises(ConfigurationError):
            estimator.partial_fit(_stream(seed=6), drift="panic")

    def test_bad_window_rejected(self):
        estimator = Tends()
        estimator.fit(_stream())
        with pytest.raises(ConfigurationError):
            estimator.partial_fit(
                _stream(seed=6), drift="detect", drift_window=0
            )


class TestDetectMode:
    def test_detect_attaches_report_and_still_accumulates(self):
        statuses = _stream()
        head = statuses.subset(range(0, 100))
        tail = statuses.subset(range(100, 160))

        plain = Tends()
        plain.fit(head)
        plain.partial_fit(tail)

        detecting = Tends()
        detecting.fit(head)
        result = detecting.partial_fit(tail, drift="detect")

        assert result.drift is not None
        assert result.drift.recent_beta == 60
        assert result.drift.reference_beta == 100
        # Detection is observational: the model matches plain accumulation.
        assert detecting.model.fingerprint() == plain.model.fingerprint()

    def test_stationary_stream_not_flagged(self):
        statuses = _stream(beta=200)
        estimator = Tends()
        estimator.fit(statuses.subset(range(0, 140)))
        result = estimator.partial_fit(
            statuses.subset(range(140, 200)), drift="detect"
        )
        assert not result.drift.drifted

    def test_shifted_stream_flagged(self):
        first, second = _shifted_stream()
        estimator = Tends()
        estimator.fit(first)
        result = estimator.partial_fit(second, drift="detect")
        assert result.drift.drifted

    def test_detect_method_is_read_only(self):
        estimator = Tends()
        estimator.fit(_stream())
        before = estimator.model.fingerprint()
        report = estimator.detect_drift()
        assert isinstance(report, DriftReport)
        assert estimator.model.fingerprint() == before

    def test_detect_method_requires_model(self):
        with pytest.raises(InferenceError):
            Tends().detect_drift()


class TestDriftStage:
    @pytest.mark.parametrize("mode", ["detect", "adapt"])
    def test_drift_check_is_a_timed_stage(self, mode):
        # The check is a stage of its own in the detect result and in the
        # adaptation's result, under the one tends.drift span.
        first, second = _shifted_stream()
        estimator = Tends(trace=True)
        estimator.fit(first)
        result = estimator.partial_fit(
            second, drift=mode, drift_config=DriftConfig(min_pair_obs=1)
        )
        assert result.drift.drifted
        assert result.update.batch_beta == (0 if mode == "adapt" else second.beta)
        assert result.stage_seconds["drift"] > 0
        spans = [s for s in result.telemetry.spans if s.name == "tends.drift"]
        assert len(spans) == 1


class TestAdaptMode:
    def test_all_flagged_adaptation_matches_fresh_fit_on_window(self):
        first, second = _shifted_stream()
        estimator = Tends()
        estimator.fit(first)
        result = estimator.partial_fit(
            second,
            drift="adapt",
            drift_config=DriftConfig(min_pair_obs=1),
        )
        assert result.drift is not None and result.drift.drifted
        # Force-flag every node via a synthetic all-nodes report to pin
        # the equivalence regardless of which pairs the detector chose.
        n = second.n_nodes
        report = DriftReport(
            drifted_pairs=tuple(
                PairDrift(i=i, j=i + 1, statistic=1.0, p_value=0.0)
                for i in range(n - 1)
            ),
            affected_nodes=tuple(range(n)),
            n_pairs_tested=n - 1,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=first.beta,
            recent_beta=second.beta,
        )
        healer = Tends()
        healer.fit(first)
        healer.partial_fit(second)
        healer.apply_drift_adaptation(report)

        fresh = Tends()
        fresh.fit(second)
        assert healer.model.fingerprint() == fresh.model.fingerprint()

    def test_partial_adaptation_keeps_quiescent_parent_sets(self):
        first, second = _shifted_stream()
        estimator = Tends()
        estimator.fit(first)
        before = estimator.partial_fit(second)
        affected = (0, 1)
        report = DriftReport(
            drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
            affected_nodes=affected,
            n_pairs_tested=10,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=first.beta,
            recent_beta=second.beta,
        )
        after = estimator.apply_drift_adaptation(report)
        for node in range(second.n_nodes):
            if node in affected:
                continue
            assert after.parent_sets[node] == before.parent_sets[node]

    def test_tiled_adaptation_keeps_tile_backed_stats(self, tmp_path):
        first, second = _shifted_stream()
        report = DriftReport(
            drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
            affected_nodes=(0, 1, 5),
            n_pairs_tested=10,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=first.beta,
            recent_beta=second.beta,
        )
        dense = Tends()
        dense.fit(first)
        dense.partial_fit(second)
        dense.apply_drift_adaptation(report)
        tiled = Tends(tile_size=7, spill_dir=str(tmp_path))
        tiled.fit(first)
        tiled.partial_fit(second)
        tiled.apply_drift_adaptation(report)
        assert isinstance(tiled.model.stats, TiledSufficientStats)
        assert tiled.model.stats.checksum() == dense.model.stats.checksum()
        assert tiled.model.fingerprint() == dense.model.fingerprint()

    def test_tiled_adaptation_leaves_the_live_tiles_intact(self, tmp_path):
        # The window recount must not overwrite the tiles of the model it
        # replaces (one resident tile forces every read back to disk).
        first, second = _shifted_stream()
        estimator = Tends(tile_size=7, spill_dir=str(tmp_path), max_resident_tiles=1)
        estimator.fit(first.append(second))
        before = estimator.model
        checksum = before.stats.checksum()
        report = DriftReport(
            drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
            affected_nodes=(0, 1),
            n_pairs_tested=10,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=first.beta,
            recent_beta=second.beta,
        )
        estimator.apply_drift_adaptation(report, window=second.beta)
        assert before.stats.checksum() == checksum
        assert estimator.model.stats.generation == before.stats.generation + 1

    def test_traced_adaptation_records_the_fit_metrics(self):
        # The adaptation's stages 1-3 run through the same helpers as fit
        # and partial_fit, so its telemetry carries the same counters.
        first, second = _shifted_stream()
        estimator = Tends(trace=True)
        estimator.fit(first)
        estimator.partial_fit(second)
        n = second.n_nodes
        report = DriftReport(
            drifted_pairs=(PairDrift(i=0, j=1, statistic=9.0, p_value=1e-9),),
            affected_nodes=(0, 1, 5),
            n_pairs_tested=10,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=first.beta,
            recent_beta=second.beta,
        )
        result = estimator.apply_drift_adaptation(report)
        metrics = result.telemetry.metrics
        dirty = result.update.dirty_nodes
        assert dirty == (0, 1, 5)
        assert metrics["counters"]["tends_bound_terminations_total"] == sum(
            result.diagnostics[node].bound_hits for node in dirty
        )
        assert metrics["histograms"]["tends_greedy_iterations"]["count"] == len(
            dirty
        )
        assert metrics["counters"]["tends_imi_pairs_total"] == n * (n - 1) // 2
        assert metrics["gauges"]["tends_threshold_tau"] == result.threshold

    def test_adaptation_requires_drifted_report(self):
        estimator = Tends()
        estimator.fit(_stream())
        quiet = DriftReport(
            drifted_pairs=(),
            affected_nodes=(),
            n_pairs_tested=5,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=100,
            recent_beta=60,
        )
        with pytest.raises(InferenceError):
            estimator.apply_drift_adaptation(quiet)

    def test_adaptation_requires_model(self):
        report = DriftReport(
            drifted_pairs=(PairDrift(i=0, j=1, statistic=1.0, p_value=0.0),),
            affected_nodes=(0, 1),
            n_pairs_tested=1,
            alpha=0.01,
            correction="bh",
            statistic="gtest",
            reference_beta=10,
            recent_beta=10,
        )
        with pytest.raises(InferenceError):
            Tends().apply_drift_adaptation(report)
