"""The TENDS estimator end-to-end on small controlled inputs."""

import numpy as np
import pytest

from repro.core.config import TendsConfig
from repro.core.search import prune_candidates
from repro.core.tends import Tends
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix


def _two_block_statuses(beta: int = 120, seed: int = 0) -> StatusMatrix:
    """Nodes {0,1} strongly coupled, {2,3} strongly coupled, blocks independent."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, beta)
    b = np.where(rng.random(beta) < 0.08, 1 - a, a)
    c = rng.integers(0, 2, beta)
    d = np.where(rng.random(beta) < 0.08, 1 - c, c)
    return StatusMatrix(np.column_stack([a, b, c, d]))


class TestFit:
    def test_recovers_block_structure(self):
        result = Tends().fit(_two_block_statuses())
        edges = result.graph.edge_set()
        assert (0, 1) in edges and (1, 0) in edges
        assert (2, 3) in edges and (3, 2) in edges
        cross = {(u, v) for u, v in edges if (u < 2) != (v < 2)}
        assert not cross

    def test_accepts_raw_arrays(self):
        raw = _two_block_statuses().values
        result = Tends().fit(raw)
        assert result.graph.n_nodes == 4

    def test_requires_two_processes(self):
        with pytest.raises(DataError):
            Tends().fit(StatusMatrix(np.zeros((1, 3), dtype=int)))

    def test_result_fields(self):
        # Pin the backend: this test checks the serial worker labels, so
        # it must not pick up a REPRO_EXECUTOR environment fallback.
        result = Tends(executor="serial").fit(_two_block_statuses())
        assert result.mi_matrix.shape == (4, 4)
        assert result.threshold >= 0.0
        assert result.clustering is not None
        assert len(result.parent_sets) == 4
        assert len(result.diagnostics) == 4
        # Pin the full key namespace: bare stage names plus one
        # search/<worker> entry per worker, and nothing else.
        assert set(result.stage_seconds) == {
            "audit", "stats", "imi", "threshold", "search", "search/serial",
        }
        assert set(result.stage_times) == {
            "audit", "stats", "imi", "threshold", "search",
        }
        assert result.worker_seconds == {
            "serial": result.stage_seconds["search/serial"]
        }
        assert [w.worker for w in result.worker_stats] == ["serial"]
        assert result.worker_stats[0].n_items == 4
        assert result.telemetry is None  # tracing is opt-in

    def test_parent_sets_match_graph(self):
        result = Tends().fit(_two_block_statuses())
        for child, parents in enumerate(result.parent_sets):
            for parent in parents:
                assert result.graph.has_edge(parent, child)
        assert sum(len(p) for p in result.parent_sets) == result.n_edges

    def test_deterministic(self):
        statuses = _two_block_statuses()
        a = Tends().fit(statuses)
        b = Tends().fit(statuses)
        assert a.graph.edge_set() == b.graph.edge_set()
        assert a.threshold == b.threshold


class TestConfigEffects:
    def test_explicit_threshold_skips_clustering(self):
        result = Tends(threshold=0.5).fit(_two_block_statuses())
        assert result.clustering is None
        assert result.threshold == 0.5

    def test_huge_threshold_prunes_everything(self):
        result = Tends(threshold=10.0).fit(_two_block_statuses())
        assert result.n_edges == 0
        assert result.candidate_counts().tolist() == [0, 0, 0, 0]

    def test_threshold_scale_applied(self):
        statuses = _two_block_statuses()
        base = Tends().fit(statuses)
        scaled = Tends(threshold_scale=2.0).fit(statuses)
        assert scaled.threshold == pytest.approx(2.0 * base.threshold)

    def test_traditional_mi_mode(self):
        result = Tends(mi_kind="traditional").fit(_two_block_statuses())
        assert result.mi_matrix.min() >= 0.0

    def test_max_candidates_cap(self):
        result = Tends(max_candidates=1).fit(_two_block_statuses())
        assert result.candidate_counts().max() <= 1

    def test_max_candidates_tie_breaking_is_stable(self):
        # A tie-heavy MI row: many candidates share the same MI value, so
        # the cap must keep the lowest-indexed ones regardless of the
        # sort algorithm numpy picks (unstable argsort + [::-1] used to
        # reverse tie order and could differ across numpy versions).
        n = 12
        mi = np.zeros((n, n))
        mi[0, 1:] = 0.5           # ten-way tie ...
        mi[0, 7] = 0.9            # ... plus one clear winner
        estimator = Tends(max_candidates=4)
        capped = prune_candidates(mi, 0, 0.1, estimator.config)
        assert capped == [1, 2, 3, 7]

    def test_max_candidates_all_tied_keeps_lowest_indices(self):
        n = 9
        mi = np.full((n, n), 0.25)
        np.fill_diagonal(mi, 0.0)
        estimator = Tends(max_candidates=3)
        for node in range(n):
            capped = prune_candidates(mi, node, 0.1, estimator.config)
            expected = [i for i in range(n) if i != node][:3]
            assert capped == expected

    def test_config_object_and_overrides(self):
        config = TendsConfig(threshold_scale=0.5)
        estimator = Tends(config, min_improvement=0.1)
        assert estimator.config.threshold_scale == 0.5
        assert estimator.config.min_improvement == 0.1

    def test_total_evaluations_positive(self):
        result = Tends().fit(_two_block_statuses())
        assert result.total_evaluations() > 0


class TestTelemetry:
    """trace=True attaches spans/metrics without perturbing inference."""

    def test_traced_fit_matches_untraced(self):
        statuses = _two_block_statuses()
        plain = Tends(executor="serial").fit(statuses)
        traced = Tends(executor="serial", trace=True).fit(statuses)
        assert traced.parent_sets == plain.parent_sets
        assert traced.threshold == plain.threshold
        assert np.array_equal(traced.mi_matrix, plain.mi_matrix)

    def test_telemetry_contents(self):
        result = Tends(executor="serial", trace=True).fit(_two_block_statuses())
        telemetry = result.telemetry
        assert telemetry is not None
        names = set(telemetry.span_names())
        assert {"tends.fit", "tends.imi", "tends.threshold",
                "tends.search", "search.node"} <= names
        counters = telemetry.metrics["counters"]
        assert counters["tends_imi_pairs_total"] == 6  # C(4, 2)
        assert (counters["tends_candidate_pairs_pruned_total"]
                + counters["tends_candidate_pairs_kept_total"]) == 12
        assert counters["tends_score_evaluations_total"] == (
            result.total_evaluations()
        )
        assert telemetry.metrics["gauges"]["tends_threshold_tau"] == (
            result.threshold
        )
        iters = telemetry.metrics["histograms"]["tends_greedy_iterations"]
        assert iters["count"] == 4  # one observation per node

    def test_threshold_span_records_tau(self):
        result = Tends(executor="serial", threshold=0.5, trace=True).fit(
            _two_block_statuses()
        )
        span = next(
            s for s in result.telemetry.spans if s.name == "tends.threshold"
        )
        assert span.attrs["tau"] == 0.5
