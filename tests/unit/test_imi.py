"""Infection MI (Eq. 24-25) and traditional MI."""

import math

import numpy as np
import pytest

from repro.core.imi import (
    imi_from_terms,
    infection_mi_matrix,
    mi_from_terms,
    mi_terms_from_joint_counts,
    mi_terms_from_pairwise_counts,
    pointwise_mi_terms,
    traditional_mi_matrix,
)
from repro.core.kernels import PackedStatuses, packed_pairwise_complete_counts
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix


def _perfectly_correlated(beta: int = 20) -> StatusMatrix:
    column = np.array([i % 2 for i in range(beta)], dtype=np.uint8)
    return StatusMatrix(np.stack([column, column], axis=1))


def _perfectly_anticorrelated(beta: int = 20) -> StatusMatrix:
    column = np.array([i % 2 for i in range(beta)], dtype=np.uint8)
    return StatusMatrix(np.stack([column, 1 - column], axis=1))


def _independent(beta: int = 4) -> StatusMatrix:
    # All four joint outcomes equally often: exactly independent.
    return StatusMatrix([[0, 0], [0, 1], [1, 0], [1, 1]] * (beta // 4))


class TestPointwiseTerms:
    def test_keys(self, tiny_statuses):
        terms = pointwise_mi_terms(tiny_statuses)
        assert set(terms) == {"11", "10", "01", "00"}

    def test_zero_processes_rejected(self):
        with pytest.raises(DataError):
            pointwise_mi_terms(StatusMatrix(np.zeros((0, 3))))

    def test_independent_terms_are_zero(self):
        terms = pointwise_mi_terms(_independent(8))
        for matrix in terms.values():
            assert matrix[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_correlated_cross_terms_negative(self):
        terms = pointwise_mi_terms(_perfectly_correlated())
        # (1,0) never observed -> 0; but for near-perfect correlation with
        # one disagreement the cross term goes negative:
        data = [[1, 1]] * 10 + [[0, 0]] * 9 + [[1, 0]]
        terms = pointwise_mi_terms(StatusMatrix(data))
        assert terms["10"][0, 1] < 0

    def test_degenerate_marginals_contribute_zero(self):
        statuses = StatusMatrix([[1, 0], [1, 1]])  # column 0 constant
        terms = pointwise_mi_terms(statuses)
        for matrix in terms.values():
            assert np.isfinite(matrix).all()


class TestInfectionMI:
    def test_symmetry(self, small_observations):
        imi = infection_mi_matrix(small_observations.statuses)
        assert np.allclose(imi, imi.T)

    def test_diagonal_zero(self, small_observations):
        imi = infection_mi_matrix(small_observations.statuses)
        assert np.allclose(np.diag(imi), 0.0)

    def test_perfect_correlation_is_positive(self):
        imi = infection_mi_matrix(_perfectly_correlated())
        assert imi[0, 1] == pytest.approx(1.0)

    def test_perfect_anticorrelation_is_negative(self):
        imi = infection_mi_matrix(_perfectly_anticorrelated())
        assert imi[0, 1] == pytest.approx(-1.0)

    def test_independence_is_zero(self):
        imi = infection_mi_matrix(_independent(8))
        assert imi[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_distinguishes_sign_where_mi_cannot(self):
        imi_pos = infection_mi_matrix(_perfectly_correlated())[0, 1]
        imi_neg = infection_mi_matrix(_perfectly_anticorrelated())[0, 1]
        mi_pos = traditional_mi_matrix(_perfectly_correlated())[0, 1]
        mi_neg = traditional_mi_matrix(_perfectly_anticorrelated())[0, 1]
        assert mi_pos == pytest.approx(mi_neg)  # MI blind to direction...
        assert imi_pos > 0 > imi_neg  # ...IMI is not (the paper's point)


class TestTraditionalMI:
    def test_non_negative(self, small_observations):
        mi = traditional_mi_matrix(small_observations.statuses)
        assert mi.min() >= 0.0

    def test_perfect_dependence_is_one_bit(self):
        mi = traditional_mi_matrix(_perfectly_correlated())
        assert mi[0, 1] == pytest.approx(1.0)

    def test_diagonal_zero(self, small_observations):
        mi = traditional_mi_matrix(small_observations.statuses)
        assert np.allclose(np.diag(mi), 0.0)


class TestBlockForm:
    """A tile scores one block of the pair space through the same
    functions; every entry must equal the dense matrix bit for bit."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("combine", [imi_from_terms, mi_from_terms])
    @pytest.mark.parametrize(
        "rows, cols", [((2, 6), (2, 6)), ((0, 3), (5, 9)), ((5, 9), (0, 3))]
    )
    def test_block_equals_dense_slice(self, masked, combine, rows, cols):
        rng = np.random.default_rng(21)
        data = (rng.random((90, 9)) < 0.4).astype(np.uint8)
        mask = rng.random((90, 9)) < 0.85 if masked else None
        statuses = StatusMatrix(data, mask)
        counts = packed_pairwise_complete_counts(PackedStatuses.from_statuses(statuses))
        a, b = slice(*rows), slice(*cols)
        block_counts = {key: plane[a, b] for key, plane in counts.items()}
        if masked:
            dense = mi_terms_from_pairwise_counts(counts)
            block = mi_terms_from_pairwise_counts(block_counts)
        else:
            infected = statuses.infection_counts()
            dense = mi_terms_from_joint_counts(counts, infected, statuses.beta)
            block = mi_terms_from_joint_counts(
                block_counts, infected[a], statuses.beta, column_counts=infected[b]
            )
        expected = combine(dense)[a, b]
        got = combine(block, zero_diagonal=rows == cols)
        assert np.array_equal(got, expected)
