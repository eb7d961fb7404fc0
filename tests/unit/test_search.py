"""Greedy parent-set search strategies."""

import numpy as np
import pytest

from repro.core.config import TendsConfig
from repro.core.scoring import empty_set_score, local_score
from repro.core.search import ParentSearch
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _copy_noise_statuses(beta: int = 60, seed: int = 0) -> StatusMatrix:
    """Column 1 copies column 0 with small flip noise; columns 2-3 random."""
    rng = np.random.default_rng(seed)
    parent = rng.integers(0, 2, beta)
    child = np.where(rng.random(beta) < 0.1, 1 - parent, parent)
    noise = rng.integers(0, 2, size=(beta, 2))
    return StatusMatrix(np.column_stack([parent, child, noise]))


class TestGreedyRescoring:
    def test_finds_true_parent(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig())
        parents, diag = search.find_parents(1, [0, 2, 3])
        assert parents == [0]
        assert diag.final_score > diag.empty_score

    def test_no_candidates_returns_empty(self, tiny_statuses):
        search = ParentSearch(tiny_statuses, TendsConfig())
        parents, diag = search.find_parents(0, [])
        assert parents == []
        assert diag.final_score == diag.empty_score
        assert diag.n_candidates == 0

    def test_child_removed_from_pool(self, tiny_statuses):
        search = ParentSearch(tiny_statuses, TendsConfig())
        parents, _ = search.find_parents(0, [0])
        assert parents == []

    def test_pure_noise_selects_nothing(self):
        rng = np.random.default_rng(3)
        statuses = StatusMatrix(rng.integers(0, 2, size=(200, 5)))
        search = ParentSearch(statuses, TendsConfig())
        parents, _ = search.find_parents(0, [1, 2, 3, 4])
        assert parents == []

    def test_min_improvement_gate(self):
        statuses = _copy_noise_statuses()
        strict = ParentSearch(statuses, TendsConfig(min_improvement=1e9))
        parents, _ = strict.find_parents(1, [0, 2, 3])
        assert parents == []

    def test_final_score_is_actual_score(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig())
        parents, diag = search.find_parents(1, [0, 2, 3])
        assert diag.final_score == pytest.approx(local_score(statuses, 1, parents))

    def test_diagnostics_counters(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig())
        _, diag = search.find_parents(1, [0, 2, 3])
        assert diag.node == 1
        assert diag.n_candidates == 3
        assert diag.n_evaluations > 0
        assert diag.iterations >= 1

    def test_combination_size_two(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig(max_combination_size=2))
        parents, _ = search.find_parents(1, [0, 2, 3])
        assert 0 in parents


class TestRankedUnion:
    def test_finds_true_parent(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig(search_strategy="ranked-union"))
        parents, _ = search.find_parents(1, [0, 2, 3])
        assert 0 in parents

    def test_respects_size_bound(self):
        # Tiny beta gives a tight Theorem-2 bound: the union cannot absorb
        # all candidates.
        rng = np.random.default_rng(1)
        statuses = StatusMatrix(rng.integers(0, 2, size=(8, 10)))
        search = ParentSearch(statuses, TendsConfig(search_strategy="ranked-union"))
        parents, _ = search.find_parents(0, list(range(1, 10)))
        from repro.core.scoring import delta_i, family_counts, size_bound

        counts = family_counts(statuses, 0, parents)
        assert len(parents) <= size_bound(counts.phi, delta_i(statuses, 0))

    def test_deterministic(self):
        statuses = _copy_noise_statuses()
        search = ParentSearch(statuses, TendsConfig(search_strategy="ranked-union"))
        a, _ = search.find_parents(1, [0, 2, 3])
        b, _ = search.find_parents(1, [0, 2, 3])
        assert a == b


class TestVacuousBoundSafety:
    """Theorem 2's bound self-satisfies for large |F| (phi ~ 2^|F|), so on
    weak-signal data the literal Algorithm-1 strategy grows parent sets
    aggressively; the hard cap and sparse counting must keep that safe."""

    def test_ranked_union_terminates_on_weak_signal(self):
        rng = np.random.default_rng(0)
        # Correlated noise: every pair weakly dependent, so singleton scores
        # beat the empty set and the union wants to absorb everything.
        base = rng.integers(0, 2, (40, 1))
        flips = rng.random((40, 30)) < 0.35
        data = np.where(flips, 1 - base, base).astype(np.uint8)
        statuses = StatusMatrix(data)
        search = ParentSearch(statuses, TendsConfig(search_strategy="ranked-union"))
        parents, diag = search.find_parents(0, list(range(1, 30)))
        from repro.core.search import MAX_PARENT_SET_SIZE

        assert len(parents) <= MAX_PARENT_SET_SIZE
        assert diag.n_evaluations < 10_000

    def test_greedy_handles_wide_parent_sets(self):
        rng = np.random.default_rng(1)
        statuses = StatusMatrix(rng.integers(0, 2, (30, 70)))
        search = ParentSearch(statuses, TendsConfig())
        parents, _ = search.find_parents(0, list(range(1, 70)))
        assert len(parents) <= 62

    @pytest.mark.parametrize(
        "strategy, masked",
        [("ranked-union", False), ("ranked-union", True), ("greedy-rescoring", True)],
    )
    def test_wide_parent_sets_equal_scalar_reference(self, strategy, masked):
        # Correlated noise grows these parent sets well past 10 parents
        # (29 for the union, 18 for masked greedy); the search must still
        # match the oracle's one-family-at-a-time counts and scores.
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2, (40, 1))
        flips = rng.random((40, 30)) < 0.35
        data = np.where(flips, 1 - base, base).astype(np.uint8)
        mask = rng.random((40, 30)) < 0.95 if masked else None
        statuses = StatusMatrix(data, mask)
        config = TendsConfig(search_strategy=strategy)
        result = ParentSearch(statuses, config).find_parents(0, list(range(1, 30)))
        reference = oracle.ScalarParentSearch(statuses, config)
        assert result == reference.find_parents(0, list(range(1, 30)))
        assert len(result[0]) > 10


class TestStrategyComparison:
    def test_both_strategies_recover_strong_signal(self):
        statuses = _copy_noise_statuses(beta=100, seed=7)
        for strategy in ("greedy-rescoring", "ranked-union"):
            search = ParentSearch(statuses, TendsConfig(search_strategy=strategy))
            parents, _ = search.find_parents(1, [0, 2, 3])
            assert 0 in parents, strategy

    def test_greedy_is_at_least_as_selective(self):
        # The rescoring greedy conditions on already-selected parents, so it
        # never returns a superset of what ranked-union returns on noise.
        rng = np.random.default_rng(9)
        statuses = StatusMatrix(rng.integers(0, 2, size=(120, 6)))
        greedy = ParentSearch(statuses, TendsConfig())
        ranked = ParentSearch(statuses, TendsConfig(search_strategy="ranked-union"))
        g_parents, _ = greedy.find_parents(0, [1, 2, 3, 4, 5])
        r_parents, _ = ranked.find_parents(0, [1, 2, 3, 4, 5])
        assert len(g_parents) <= max(len(r_parents), 1)


class TestSearchChunk:
    def test_matches_individual_calls_in_order(self):
        from repro.core.search import search_chunk

        statuses = _copy_noise_statuses(beta=100, seed=7)
        search = ParentSearch(statuses, TendsConfig())
        items = [(1, [0, 2, 3]), (0, [1, 2]), (3, [])]
        chunked = search_chunk(search, items)
        assert len(chunked) == len(items)
        for (node, candidates), (parents, diag) in zip(items, chunked):
            expected_parents, expected_diag = search.find_parents(node, candidates)
            assert parents == expected_parents
            assert diag.node == node
            assert diag.n_evaluations == expected_diag.n_evaluations

    def test_search_is_picklable_with_results_intact(self):
        import pickle

        statuses = _copy_noise_statuses(beta=100, seed=7)
        search = ParentSearch(statuses, TendsConfig())
        clone = pickle.loads(pickle.dumps(search))
        original, _ = search.find_parents(1, [0, 2, 3])
        restored, _ = clone.find_parents(1, [0, 2, 3])
        assert restored == original
        assert clone.config == search.config
