"""Property-based checks of the infection-MI machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.imi import infection_mi_matrix, traditional_mi_matrix
from repro.simulation.statuses import StatusMatrix
from tests import oracle

status_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(2, 50), st.integers(2, 8)),
    elements=st.integers(0, 1),
).map(StatusMatrix)


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_imi_symmetric(statuses):
    imi = infection_mi_matrix(statuses)
    assert np.allclose(imi, imi.T, atol=1e-12)


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_imi_diagonal_zero(statuses):
    assert np.allclose(np.diag(infection_mi_matrix(statuses)), 0.0)


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_imi_bounded_by_one_bit(statuses):
    imi = infection_mi_matrix(statuses)
    assert imi.max() <= 1.0 + 1e-9
    assert imi.min() >= -1.0 - 1e-9


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_traditional_mi_non_negative_and_bounded(statuses):
    mi = traditional_mi_matrix(statuses)
    assert mi.min() >= 0.0
    assert mi.max() <= 1.0 + 1e-9


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_pointwise_terms_sum_to_traditional_mi(statuses):
    terms = oracle.pointwise_mi_terms(statuses)
    total = terms["11"] + terms["10"] + terms["01"] + terms["00"]
    np.fill_diagonal(total, 0.0)
    expected = traditional_mi_matrix(statuses)
    assert np.allclose(np.maximum(total, 0.0), expected, atol=1e-9)


@given(statuses=status_matrices)
@settings(max_examples=80, deadline=None)
def test_imi_never_exceeds_traditional_mi(statuses):
    # IMI subtracts |cross terms| where MI adds them, so IMI <= MI pairwise.
    imi = infection_mi_matrix(statuses)
    mi = traditional_mi_matrix(statuses)
    assert (imi <= mi + 1e-9).all()


@given(statuses=status_matrices)
@settings(max_examples=50, deadline=None)
def test_imi_invariant_to_row_order(statuses):
    rng = np.random.default_rng(0)
    permutation = rng.permutation(statuses.beta)
    shuffled = StatusMatrix(statuses.values[permutation])
    assert np.allclose(
        infection_mi_matrix(statuses), infection_mi_matrix(shuffled), atol=1e-12
    )
