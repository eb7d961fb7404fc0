"""Scoring criterion: counts, likelihood, penalty, Theorem-2 bound."""

import math

import numpy as np
import pytest

from repro.core.kernels import PackedStatuses
from repro.core.scoring import (
    delta_i,
    empty_set_score,
    family_counts,
    global_score,
    local_score,
    log_likelihood,
    penalty,
    size_bound,
)
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix


class TestFamilyCounts:
    def test_empty_parent_set(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 0, [])
        assert counts.n_parents == 0
        assert counts.totals.tolist() == [6]
        assert counts.infected.tolist() == [3]
        assert counts.uninfected.tolist() == [3]

    def test_single_parent(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 2, [0])
        # parent col 0: [1,1,0,0,1,0]; child col 2: [0,1,0,1,0,1]
        assert counts.totals.tolist() == [3, 3]  # parent=0 thrice, =1 thrice
        assert counts.infected.tolist() == [2, 1]

    def test_two_parents(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 2, [0, 1])
        assert counts.n_possible == 4
        assert counts.totals.sum() == 6
        assert counts.infected.sum() == 3

    def test_phi_counts_missing_combinations(self):
        statuses = StatusMatrix([[0, 0, 1], [0, 1, 0]])  # patterns 00, 10 only
        counts = family_counts(statuses, 2, [0, 1])
        assert counts.n_observed == 2
        assert counts.phi == 2

    def test_child_in_parents_rejected(self, tiny_statuses):
        with pytest.raises(DataError):
            family_counts(tiny_statuses, 0, [0, 1])

    def test_duplicate_parents_rejected(self, tiny_statuses):
        with pytest.raises(DataError):
            family_counts(tiny_statuses, 2, [0, 0])

    def test_beta_recorded(self, tiny_statuses):
        assert family_counts(tiny_statuses, 0, [1]).beta == 6


class TestLogLikelihood:
    def test_always_non_positive(self, small_observations):
        statuses = small_observations.statuses
        for child in range(0, statuses.n_nodes, 5):
            parents = [p for p in (0, 1) if p != child]
            assert log_likelihood(family_counts(statuses, child, parents)) <= 1e-12

    def test_deterministic_child_scores_zero(self):
        statuses = StatusMatrix([[0, 0], [0, 0], [1, 1], [1, 1]])
        counts = family_counts(statuses, 1, [0])  # child == parent always
        assert log_likelihood(counts) == pytest.approx(0.0)

    def test_hand_computed_empty_family(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 0, [])
        # N1 = N2 = 3, beta = 6: LL = 6 * log2(1/2) = -6.
        assert log_likelihood(counts) == pytest.approx(-6.0)

    def test_theorem1_monotone_in_parents(self, small_observations):
        # Theorem 1: adding any parent never decreases the likelihood.
        statuses = small_observations.statuses
        for child in (0, 3, 7):
            base: list[int] = []
            previous = log_likelihood(family_counts(statuses, child, base))
            for parent in (p for p in (1, 2, 4, 5) if p != child):
                base = base + [parent]
                current = log_likelihood(family_counts(statuses, child, base))
                assert current >= previous - 1e-9
                previous = current


class TestPenalty:
    def test_empty_family(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 0, [])
        assert penalty(counts) == pytest.approx(0.5 * math.log2(7))

    def test_penalty_grows_with_parents(self, small_observations):
        statuses = small_observations.statuses
        child = 9
        values = [
            penalty(family_counts(statuses, child, parents))
            for parents in ([], [0], [0, 1], [0, 1, 2])
        ]
        assert values == sorted(values)

    def test_unobserved_combinations_contribute_zero(self):
        statuses = StatusMatrix([[0, 0, 1]] * 4)  # single pattern observed
        counts = family_counts(statuses, 2, [0, 1])
        assert penalty(counts) == pytest.approx(0.5 * math.log2(5))


class TestLocalScore:
    def test_matches_components(self, tiny_statuses):
        counts = family_counts(tiny_statuses, 2, [0])
        assert local_score(tiny_statuses, 2, [0]) == pytest.approx(
            log_likelihood(counts) - penalty(counts)
        )

    def test_empty_set_score_equation18(self, tiny_statuses):
        # g(v, {}) = N1 log2(N1/b) + N2 log2(N2/b) - 0.5 log2(b + 1)
        expected = 3 * math.log2(0.5) + 3 * math.log2(0.5) - 0.5 * math.log2(7)
        assert empty_set_score(tiny_statuses, 0) == pytest.approx(expected)

    def test_informative_parent_beats_empty(self):
        column = np.array([i % 2 for i in range(40)], dtype=np.uint8)
        statuses = StatusMatrix(np.stack([column, column], axis=1))
        assert local_score(statuses, 1, [0]) > empty_set_score(statuses, 1)

    def test_random_parent_loses_to_empty(self):
        rng = np.random.default_rng(0)
        statuses = StatusMatrix(rng.integers(0, 2, size=(60, 2)))
        assert local_score(statuses, 1, [0]) <= empty_set_score(statuses, 1) + 0.5


class TestGlobalScore:
    def test_equals_sum_of_local_scores(self, tiny_statuses):
        parent_sets = [[1], [], [0, 1]]
        expected = sum(
            local_score(tiny_statuses, child, parents)
            for child, parents in enumerate(parent_sets)
        )
        assert global_score(tiny_statuses, parent_sets) == pytest.approx(expected)

    def test_empty_topology(self, tiny_statuses):
        value = global_score(tiny_statuses, [[], [], []])
        expected = sum(empty_set_score(tiny_statuses, c) for c in range(3))
        assert value == pytest.approx(expected)

    def test_tends_output_beats_empty_topology(self, small_observations):
        from repro.core.tends import Tends

        statuses = small_observations.statuses
        result = Tends().fit(statuses)
        inferred = global_score(statuses, [list(p) for p in result.parent_sets])
        empty = global_score(statuses, [[] for _ in range(statuses.n_nodes)])
        assert inferred >= empty

    def test_wrong_length_rejected(self, tiny_statuses):
        with pytest.raises(DataError):
            global_score(tiny_statuses, [[], []])


class TestDelta:
    def test_balanced_child(self, tiny_statuses):
        # N1 = N2 = 3, beta = 6: delta = 6 log2(2) + 6 log2(2) + log2(7).
        assert delta_i(tiny_statuses, 0) == pytest.approx(12 + math.log2(7))

    def test_constant_child(self):
        statuses = StatusMatrix([[1, 0]] * 8)
        # N1 = 0 contributes nothing; N2 = 8 with log2(8/8) = 0.
        assert delta_i(statuses, 0) == pytest.approx(math.log2(9))

    def test_zero_processes_rejected(self):
        with pytest.raises(DataError):
            delta_i(StatusMatrix(np.zeros((0, 2))), 0)


class TestNodeIndices:
    """Every scorer entry point takes node indices in ``[0, n)`` only: a
    negative index must not wrap onto another node, and a large one must
    not escape as a bare ``IndexError``."""

    @pytest.fixture
    def statuses(self):
        rng = np.random.default_rng(0)
        return StatusMatrix((rng.random((50, 4)) < 0.5).astype(np.uint8))

    @pytest.mark.parametrize("node", [-1, -4, 4, 100])
    def test_bad_child_rejected(self, statuses, node):
        for call in (
            lambda: family_counts(statuses, node, [0]),
            lambda: local_score(statuses, node, [0]),
            lambda: empty_set_score(statuses, node),
            lambda: delta_i(statuses, node),
        ):
            with pytest.raises(DataError, match="out of range"):
                call()

    @pytest.mark.parametrize("parent", [-1, 4])
    def test_bad_parent_rejected(self, statuses, parent):
        # family_counts(s, 3, [-1]) used to score node 3 as its own parent.
        with pytest.raises(DataError, match="out of range"):
            family_counts(statuses, 3, [parent])
        with pytest.raises(DataError, match="out of range"):
            local_score(statuses, 3, [0, parent])
        with pytest.raises(DataError, match="out of range"):
            global_score(statuses, [[], [], [], [parent]])

    def test_packed_from_another_matrix_rejected(self, statuses):
        for other in (statuses.subset(range(40)), StatusMatrix(np.zeros((50, 5)))):
            packed = PackedStatuses.from_statuses(other)
            with pytest.raises(DataError, match="packed statuses"):
                local_score(statuses, 3, [0], packed=packed)

    def test_numpy_integer_indices_accepted(self, statuses):
        assert local_score(statuses, np.int64(3), [np.int32(0)]) == local_score(
            statuses, 3, [0]
        )


class TestSizeBound:
    def test_formula(self):
        assert size_bound(0, 8.0) == pytest.approx(3.0)
        assert size_bound(4, 4.0) == pytest.approx(3.0)

    def test_pathological_small_argument(self):
        assert size_bound(0, 0.5) == 0.0

    def test_monotone_in_phi(self):
        assert size_bound(10, 5.0) > size_bound(0, 5.0)
