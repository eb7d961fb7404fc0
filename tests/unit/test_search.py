"""Greedy parent-set search strategies."""

import numpy as np
import pytest

from repro.core import search as search_module
from repro.core.config import TendsConfig
from repro.core.kernels import (
    PackedStatuses,
    packed_pattern_counts,
    packed_split_words,
    pattern_tree,
)
from repro.core.scoring import empty_set_score, local_score, size_bound
from repro.core.search import ParentSearch, SearchDiagnostics
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


class TestBoundCheck:
    def test_size_bound_runs_once_per_distinct_observed_count(self, monkeypatch):
        phis = []

        def counting_size_bound(phi, delta):
            phis.append(phi)
            return size_bound(phi, delta)

        monkeypatch.setattr(search_module, "size_bound", counting_size_bound)
        # Two parents: 4 possible patterns, so phi = 4 - observed, and
        # with delta = 1.5 only families observing one pattern pass.
        observed = np.array([3, 1, 3, 4, 1, 3])
        diag = SearchDiagnostics(node=0, n_candidates=6)
        allowed = search_module._within_bound(2, observed, 1.5, diag)
        assert sorted(phis) == [0, 1, 3]
        assert allowed.tolist() == [2 <= size_bound(4 - k, 1.5) for k in observed]
        assert allowed.tolist() == [False, True, False, False, True, False]
        assert diag.bound_hits == 4


def _correlated_noise(masked: bool, n: int = 12) -> StatusMatrix:
    """Every column a noisy copy of one hidden column: the greedy keeps
    accepting parents, so a search runs many levels."""
    rng = np.random.default_rng(4)
    base = rng.integers(0, 2, (60, 1))
    data = np.where(rng.random((60, n)) < 0.3, 1 - base, base).astype(np.uint8)
    return StatusMatrix(data, rng.random((60, n)) < 0.9 if masked else None)


class TestComplementPath:
    """Each candidate's ones half is counted as the tree's own counts
    minus its zeros half (popcounted under a mask), and the search
    carries the accepted family's counts into the next level."""

    @pytest.mark.parametrize("combination_size", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_carried_counts_equal_the_accepted_tree(
        self, monkeypatch, masked, combination_size
    ):
        statuses = _correlated_noise(masked)
        calls = []
        rate = ParentSearch._rate

        def spy(self, node, parents, planes, counts, *rest):
            calls.append((list(parents), planes.copy(), counts.copy()))
            return rate(self, node, parents, planes, counts, *rest)

        monkeypatch.setattr(ParentSearch, "_rate", spy)
        config = TendsConfig(max_combination_size=combination_size)
        _, diag = ParentSearch(statuses, config).find_parents(0, range(1, 12))
        assert diag.iterations >= 2
        # One level per accepted step, plus the level that accepts nothing.
        assert len({tuple(parents) for parents, _, _ in calls}) == diag.iterations + 1
        packed = PackedStatuses.from_statuses(statuses)
        zeros, ones = packed_split_words(packed)
        child = packed.ones[0]
        for parents, planes, counts in calls:
            tree = pattern_tree(
                (zeros[0] | ones[0])[None], zeros[parents], ones[parents]
            )
            assert np.array_equal(planes[0], tree)
            assert np.array_equal(planes[1], tree & child)
            assert np.array_equal(counts, np.stack(packed_pattern_counts(tree, child)))

    @pytest.mark.parametrize("strategy", ["greedy-rescoring", "ranked-union"])
    @pytest.mark.parametrize("combination_size", [1, 2])
    def test_never_observed_child_equals_scalar_reference(
        self, strategy, combination_size
    ):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, (50, 5))
        mask = np.ones((50, 5), dtype=bool)
        mask[:, 0] = False
        statuses = StatusMatrix(data, mask)
        config = TendsConfig(
            search_strategy=strategy, max_combination_size=combination_size
        )
        result = ParentSearch(statuses, config).find_parents(0, [1, 2, 3, 4])
        assert result == oracle.ScalarParentSearch(statuses, config).find_parents(
            0, [1, 2, 3, 4]
        )
        # No complete row: every family scores 0.0, the empty one included.
        assert result[1].empty_score == result[1].final_score == 0.0

    @pytest.mark.parametrize("strategy", ["greedy-rescoring", "ranked-union"])
    @pytest.mark.parametrize("combination_size", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_candidate_with_empty_zeros_half_equals_scalar_reference(
        self, strategy, combination_size, masked
    ):
        # Node 2 is infected wherever it is observed, so its zeros words
        # are empty and its ones half is the whole of every row.
        statuses = _copy_noise_statuses(beta=80, seed=2)
        data = statuses.values.copy()
        data[:, 2] = 1
        mask = np.random.default_rng(6).random(data.shape) < 0.8 if masked else None
        statuses = StatusMatrix(data, mask)
        packed = PackedStatuses.from_statuses(statuses)
        assert not packed_split_words(packed)[0][2].any()
        config = TendsConfig(
            search_strategy=strategy, max_combination_size=combination_size
        )
        reference = oracle.ScalarParentSearch(statuses, config)
        search = ParentSearch(statuses, config)
        for node in range(statuses.n_nodes):
            others = [c for c in range(statuses.n_nodes) if c != node]
            assert search.find_parents(node, others) == reference.find_parents(
                node, others
            )


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
